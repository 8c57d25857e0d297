#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Zero-overhead observability for the CPGAN workspace.
//!
//! `cpgan-obs` is a self-contained instrumentation layer (see DESIGN.md §9)
//! that depends only on the in-repo serde shims, which render its JSON
//! sinks. It has four ingredients:
//!
//! * **hierarchical span timers** — [`span`] returns an RAII guard; nested
//!   guards form a path (`core.fit/core.epoch/nn.backward`) aggregated by
//!   call count and total wall-clock,
//! * **metrics** — [`counter_add`] / [`gauge_set`] and fixed log-bucket
//!   streaming histograms ([`hist_record`]),
//! * **training telemetry** — [`series_record`] appends `(step, value)`
//!   points to named scalar series (losses, grad norms, modularity-Q per
//!   epoch),
//! * **two sinks** — a JSONL event/series log ([`Report::to_jsonl`]) and a
//!   deterministic human-readable summary tree ([`Report::summary_tree`]).
//!
//! # Disabled-mode cost contract
//!
//! Collection is **off by default**. Every instrumentation call starts with
//! [`enabled`] — a single relaxed atomic load plus a branch — and returns
//! immediately when observability is off, so instrumented hot paths cost a
//! few cycles per call (`results/BENCH_obs_overhead.json` pins the bound).
//! Setting `CPGAN_OBS=1` (or calling [`set_enabled`], e.g. from the CLI's
//! `--obs-out` flag) turns collection on.
//!
//! # Determinism contract
//!
//! Collection is per-thread (each thread owns a collector registered in a
//! global index-ordered registry, the same discipline as `cpgan-parallel`)
//! and merged in index order at snapshot time with commutative combines, so
//! the report is identical at any `CPGAN_THREADS` setting **except for
//! wall-clock durations**. By convention every duration-valued key ends in
//! `_ns`; everything else (span paths and counts, counters, gauges,
//! histogram contents, series values) must be thread-count invariant. The
//! workspace determinism suite (`tests/obs_determinism.rs`) strips `_ns`
//! fields and asserts bit-identical JSONL at `CPGAN_THREADS={1,2,4}`.

mod collect;
mod metrics;
mod report;
mod span;
mod stopwatch;

pub use metrics::{counter_add, gauge_set, hist_record, series_record, Hist, HIST_BUCKETS};
pub use report::{finish, Report};
pub use span::{span, with_root_scope, SpanGuard};
pub use stopwatch::Stopwatch;

use std::sync::atomic::{AtomicU8, Ordering};

/// Tri-state enabled flag: 0 = unresolved, 1 = off, 2 = on.
static ENABLED: AtomicU8 = AtomicU8::new(0);

/// Whether collection is on. One relaxed load and a branch after the first
/// call — this is the entire disabled-mode cost of every instrumentation
/// point.
#[inline]
pub fn enabled() -> bool {
    match ENABLED.load(Ordering::Relaxed) {
        2 => true,
        1 => false,
        _ => resolve_enabled(),
    }
}

/// First-call resolution from the `CPGAN_OBS` environment variable (set and
/// not `0`/empty = on).
#[cold]
fn resolve_enabled() -> bool {
    let on = std::env::var("CPGAN_OBS")
        .map(|v| !v.trim().is_empty() && v.trim() != "0")
        .unwrap_or(false);
    ENABLED.store(if on { 2 } else { 1 }, Ordering::Relaxed);
    on
}

/// Turns collection on or off programmatically (wins over `CPGAN_OBS`).
pub fn set_enabled(on: bool) {
    ENABLED.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

/// Merges every thread's collector (in registration-index order) into a
/// [`Report`] without clearing anything.
pub fn snapshot() -> Report {
    collect::merged()
}

/// Clears all collected data in every registered collector (the collectors
/// themselves stay registered). Used between determinism-suite runs.
pub fn reset() {
    collect::reset()
}
