//! The repository benchmark: one program, three workloads, every metric on
//! every workload, and a separate traced run for the per-layer numbers.
//!
//! Each workload stresses layers the others do not reach (the full
//! rationale and the layer → end-to-end metric → workload map are in
//! `perfbench/METRICS.md`):
//!
//! * `train_eval` — registry ingest of `citeseer-fixture`, repeated
//!   default-config fits, posterior generation at the observed size, Table
//!   III/IV evaluation. Fit dominates: nn kernels, tape, per-epoch Louvain.
//! * `shard_100k` — a 100,000-node planted graph, ingested from an edge
//!   list, through the sharded pipeline: thousands of tiny fit+generate
//!   calls and recursive Louvain.
//! * `serve_mixed` — an in-process loopback server fed an open-loop,
//!   fixed-rate schedule of small generate requests, 40% of them repeats,
//!   then a few observed-size requests whose graphs are evaluated.
//!
//! Every workload reports the same end-to-end metrics: set-up, peak RSS,
//! the time of the operation the workload is about (`op_s`), output nodes
//! per second, and the evaluation time and Table III/IV quality of its
//! output graphs. The traced run reports every per-layer metric on every
//! workload: layers the measured pass does not reach are probed on the
//! workload's own graph and model (e.g. the shard pipeline on
//! `citeseer-fixture`, or a short request burst against a server holding
//! the workload's model).
//!
//! The benchmark only calls the layers' public functions. Every input is
//! generated from the workload seed; the program under test sees only
//! those inputs. Timings use `cpgan_obs::Stopwatch`; no thread is spawned
//! here (the serve client runs on the calling thread over non-blocking
//! sockets).

#![forbid(unsafe_code)]

pub mod check;
pub mod client;
pub mod metrics;
pub mod procfs;
pub mod trace;

mod probes;
mod serve_mixed;
mod shard_100k;
mod steps;
mod train_eval;

use check::Outcome;
use metrics::Metric;
use probes::Observed;
use std::path::PathBuf;
use trace::Tracer;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Ingest, repeated fits, posterior generate and eval on `citeseer-fixture`.
    TrainEval,
    /// The sharded pipeline on a 100,000-node planted graph.
    Shard100k,
    /// Open-loop mixed cold/cached traffic against the loopback server.
    ServeMixed,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::TrainEval,
        Workload::Shard100k,
        Workload::ServeMixed,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TrainEval => "train_eval",
            Workload::Shard100k => "shard_100k",
            Workload::ServeMixed => "serve_mixed",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes. [`Sizes::full`] is the benchmark; [`Sizes::smoke`] keeps
/// every code path but shrinks the inputs so the tests finish quickly.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// Epochs of each `train_eval` fit (the default config's other
    /// settings are kept).
    pub train_epochs: usize,
    /// Distinct posterior-generation seeds per `train_eval` fit.
    pub train_gen_seeds: usize,
    /// Set-ups per run whose median is `setup_s`, where a set-up takes a
    /// second or more (train_eval's millisecond set-up runs ten times as
    /// many).
    pub setup_repeats: usize,
    /// Node count of the `shard_100k` planted graph.
    pub shard_n: usize,
    /// Open-loop request rate of `serve_mixed`, requests per second.
    pub serve_rate: f64,
    /// Fit epochs of the model `serve_mixed` serves.
    pub serve_fit_epochs: usize,
    /// Observed-size graphs `serve_mixed` requests and evaluates.
    pub serve_quality_graphs: usize,
    /// Length of the request burst the traced run sends to a server
    /// holding a workload's model, where the workload serves nothing.
    pub probe_serve_seconds: f64,
}

impl Sizes {
    /// The benchmark's sizes.
    pub fn full() -> Sizes {
        Sizes {
            train_epochs: 60,
            train_gen_seeds: 6,
            setup_repeats: 5,
            shard_n: 100_000,
            serve_rate: 40.0,
            serve_fit_epochs: 10,
            serve_quality_graphs: 6,
            probe_serve_seconds: 3.0,
        }
    }

    /// Test sizes: same code paths, small inputs.
    pub fn smoke() -> Sizes {
        Sizes {
            train_epochs: 2,
            train_gen_seeds: 2,
            setup_repeats: 2,
            shard_n: 5_000,
            serve_rate: 40.0,
            serve_fit_epochs: 2,
            serve_quality_graphs: 1,
            probe_serve_seconds: 1.5,
        }
    }
}

/// Everything one invocation is parameterised by.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Workload seed: every generated input derives from it.
    pub seed: u64,
    /// How long the measured phase may run: loops start another whole
    /// operation only while it would still end in time, after a floor of
    /// operations every output check needs.
    pub seconds: f64,
    /// Input sizes.
    pub sizes: Sizes,
    /// Scratch directory for the dataset cache and model files; removed
    /// at the end of the run.
    pub work_dir: PathBuf,
}

impl Ctx {
    /// A sub-seed for input `stream`, so inputs are independent of each
    /// other but all fixed by the workload seed.
    pub fn derive(&self, stream: u64) -> u64 {
        let mut x = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(stream.wrapping_mul(0xBF58_476D_1CE4_E5B9));
        x ^= x >> 31;
        x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 29)
    }
}

/// The result of one invocation.
#[derive(Debug)]
pub struct RunResult {
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// Operations attempted and failed, with the reason of each failure.
    pub outcome: Outcome,
    /// Human-readable lines (e.g. traced vs untraced end-to-end numbers).
    pub notes: Vec<String>,
}

/// What one pass of a workload measured: its end-to-end metrics, the
/// seconds the tracing overhead is computed on (the measured phase's wall
/// time; for serve, whose schedule fixes that, the mean request latency),
/// and what the traced run's layer probes start from.
pub(crate) struct Pass {
    pub metrics: Vec<Metric>,
    pub measured_s: f64,
    pub notes: Vec<String>,
    pub observed: Observed,
}

/// Runs `workload` once. Untraced, it returns the end-to-end metrics.
/// Traced, it runs the same pass twice — untraced, then with spans on —
/// and returns the per-layer metrics from the layer probes and the tracing
/// overhead (the difference between the two passes' measured wall time).
pub fn run(workload: Workload, ctx: &Ctx, traced: bool) -> Result<RunResult, String> {
    std::fs::create_dir_all(&ctx.work_dir)
        .map_err(|e| format!("cannot create {}: {e}", ctx.work_dir.display()))?;
    let mut outcome = Outcome::default();
    let result = drive(workload, ctx, traced, &mut outcome);
    // Best effort: a leftover scratch directory is only disk space.
    let _ = std::fs::remove_dir_all(&ctx.work_dir);
    let (metrics, notes) = result?;
    Ok(RunResult {
        metrics,
        outcome,
        notes,
    })
}

fn pass(workload: Workload, ctx: &Ctx, tr: &Tracer, out: &mut Outcome) -> Result<Pass, String> {
    match workload {
        Workload::TrainEval => train_eval::pass(ctx, tr, out),
        Workload::Shard100k => shard_100k::pass(ctx, tr, out),
        Workload::ServeMixed => serve_mixed::pass(ctx, tr, out),
    }
}

fn drive(
    workload: Workload,
    ctx: &Ctx,
    traced: bool,
    outcome: &mut Outcome,
) -> Result<(Vec<Metric>, Vec<String>), String> {
    if !traced {
        let p = pass(workload, ctx, &Tracer::off(), outcome)?;
        return Ok((p.metrics, p.notes));
    }
    let base = pass(workload, ctx, &Tracer::off(), outcome)?;
    drop(base.observed);
    let tracer = Tracer::on();
    let traced_pass = {
        let _root = tracer.enter("bench.pass");
        pass(workload, ctx, &tracer, outcome)?
    };
    let mut notes = traced_pass.notes.clone();
    notes.push("end-to-end, untraced pass vs traced pass:".to_string());
    for (b, t) in base.metrics.iter().zip(&traced_pass.metrics) {
        notes.push(format!(
            "  {:<20} {:>14.6} {:>14.6} {}",
            b.name, b.value, t.value, b.unit
        ));
    }
    let overhead = (traced_pass.measured_s / base.measured_s - 1.0) * 100.0;
    notes.push(format!(
        "  overhead base: {:.6} s untraced, {:.6} s traced ({overhead:+.2}%)",
        base.measured_s, traced_pass.measured_s
    ));
    let mut metrics = {
        let _root = tracer.enter("bench.probes");
        probes::run(ctx, &tracer, outcome, traced_pass.observed)?
    };
    metrics.push(Metric::new("trace.overhead_pct", "%", overhead));
    notes.extend(tracer.self_time_table());
    let file = trace::out_dir().join(format!("trace-{}-seed{}.jsonl", workload.name(), ctx.seed));
    match tracer.write_jsonl(&file) {
        Ok(()) => notes.push(format!("spans written to {}", file.display())),
        Err(e) => notes.push(format!("could not write spans: {e}")),
    }
    Ok((metrics, notes))
}

/// Median of `values` (mean of the middle two for an even count); `NaN`
/// for an empty slice, which the report rejects as a failed run.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Arithmetic mean; `NaN` for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Nearest-rank percentile of `values` (`q` in `0..=1`); `NaN` if empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}
