//! Disabled-mode overhead proof for the cpgan-obs instrumentation layer,
//! written to `results/BENCH_obs_overhead.json`.
//!
//! Usage:
//! `cargo run --release -p bench --bin obs_overhead [--assert-max-overhead-pct X]`
//!
//! The observability guards are compiled into the hot kernels unconditionally,
//! so the cost that matters is what each guard does when `CPGAN_OBS` is unset:
//! one relaxed atomic load plus a branch. This binary measures that cost per
//! guard kind in a tight loop, then scales it by the number of instrumentation
//! points a representative kernel call crosses and divides by the kernel's own
//! wall-clock. With `--assert-max-overhead-pct` the binary exits non-zero when
//! the estimated overhead exceeds the bound, which lets CI gate regressions.

use bench::BenchMeta;
use cpgan_nn::Matrix;
use serde::Value;
use serde_json::json;
use std::time::Instant;

/// Per-op nanoseconds for `f`, best of `reps` timed loops of `iters` calls.
fn ns_per_op(reps: usize, iters: u64, f: impl Fn()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        let total = start.elapsed().as_nanos() as f64;
        best = best.min(total / iters as f64);
    }
    best
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let max_pct = bench::flag::<f64>(&args, "--assert-max-overhead-pct")
        .unwrap_or_else(|e| bench::usage_error(&e));

    // The whole point is the disabled path; force it regardless of the
    // ambient environment so the numbers are what production code pays.
    cpgan_obs::set_enabled(false);
    assert!(
        !cpgan_obs::enabled(),
        "obs must be disabled for the overhead measurement"
    );

    const ITERS: u64 = 4_000_000;
    const REPS: usize = 5;
    let guards: Vec<(&str, f64)> = vec![
        (
            "enabled_check",
            ns_per_op(REPS, ITERS, || {
                std::hint::black_box(cpgan_obs::enabled());
            }),
        ),
        (
            "span_guard",
            ns_per_op(REPS, ITERS, || {
                let g = cpgan_obs::span(std::hint::black_box("bench.noop"));
                std::hint::black_box(&g);
            }),
        ),
        (
            "counter_add",
            ns_per_op(REPS, ITERS, || {
                cpgan_obs::counter_add("bench.noop", std::hint::black_box(1));
            }),
        ),
        (
            "hist_record",
            ns_per_op(REPS, ITERS, || {
                cpgan_obs::hist_record("bench.noop", std::hint::black_box(2.0));
            }),
        ),
        (
            "series_record",
            ns_per_op(REPS, ITERS, || {
                cpgan_obs::series_record("bench.noop", std::hint::black_box(0), 1.0);
            }),
        ),
    ];

    // Representative instrumented kernel: a 256x256 matmul crosses one span
    // guard and one histogram guard per call (see cpgan-nn::matrix).
    let a = Matrix::from_fn(256, 256, |r, c| ((r * 256 + c) as f32 * 0.37).sin());
    let b = Matrix::from_fn(256, 256, |r, c| ((r * 256 + c) as f32 * 0.53).cos());
    let kernel_ns = ns_per_op(REPS, 20, || {
        std::hint::black_box(a.matmul(&b));
    });

    let span_ns = guards[1].1;
    let hist_ns = guards[3].1;
    let per_call_guard_ns = span_ns + hist_ns;
    let overhead_pct = 100.0 * per_call_guard_ns / kernel_ns.max(1.0);

    for (name, ns) in &guards {
        eprintln!("{name:>14}: {ns:.2} ns/op (disabled)");
    }
    eprintln!("matmul 256x256: {:.0} ns/call", kernel_ns);
    eprintln!(
        "estimated disabled-mode overhead: {per_call_guard_ns:.2} ns across \
         2 guards per call = {overhead_pct:.4}% of kernel wall-clock"
    );

    let meta = BenchMeta::capture(1);
    let guards_ns = guards
        .iter()
        .map(|&(name, ns)| (name.to_string(), Value::Float(ns)))
        .collect();
    let report = json!({
        "guards_disabled_ns_per_op": Value::Object(guards_ns),
        "kernel": "matmul_256x256",
        "kernel_ns_per_call": kernel_ns,
        "guards_per_kernel_call": 2,
        "overhead_pct": overhead_pct,
    });
    bench::write_report("results/BENCH_obs_overhead.json", &meta, &report)
        .unwrap_or_else(|e| bench::die(&e));

    if let Some(bound) = max_pct {
        if overhead_pct > bound {
            eprintln!("FAIL: overhead {overhead_pct:.4}% exceeds bound {bound}%");
            std::process::exit(1);
        }
        eprintln!("OK: overhead {overhead_pct:.4}% within bound {bound}%");
    }
}
