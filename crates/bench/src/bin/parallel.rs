//! Serial-vs-parallel wall-clock for the graph statistics that run on the
//! cpgan-parallel scoped tier (local clustering and the CPL BFS fan-out),
//! written to `results/BENCH_parallel.json`.
//!
//! Usage: `cargo run --release -p bench --bin parallel [--threads N]`
//!
//! Each kernel runs pinned to one thread and then to `N` threads (default:
//! `available_parallelism`) via `with_thread_count`; the best of several
//! repetitions is reported. Because the runtime is deterministic, both runs
//! produce bit-identical values — only the wall-clock differs.

use bench::BenchMeta;
use cpgan_graph::{stats::clustering, stats::path, Graph};
use cpgan_parallel::with_thread_count;
use serde::Serialize;
use serde_json::json;
use std::time::Instant;

/// Best-of-`reps` wall-clock seconds for `f`.
fn best_of<R>(reps: usize, f: impl Fn() -> R) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        std::hint::black_box(f());
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

/// Ring + strided chords: deterministic, triangle-rich benchmark graph.
fn bench_graph(n: u32) -> Graph {
    let mut edges: Vec<(u32, u32)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
    for (stride, jump) in [(1u32, 2u32), (2, 3), (3, 5), (5, 7), (7, 11)] {
        edges.extend((0..n).step_by(stride as usize).map(|i| (i, (i + jump) % n)));
    }
    edges.sort_unstable();
    edges.dedup();
    Graph::from_edges(n as usize, edges).unwrap_or_else(|e| {
        eprintln!("bench graph construction failed: {e}");
        std::process::exit(1);
    })
}

/// A named, owned benchmark closure.
type Kernel = Box<dyn Fn()>;

/// One kernel's best-of wall-clock at one thread and at `threads`.
#[derive(Serialize)]
struct Row {
    name: &'static str,
    serial_s: f64,
    parallel_s: f64,
    speedup: f64,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let flag_threads =
        bench::flag::<usize>(&args, "--threads").unwrap_or_else(|e| bench::usage_error(&e));
    // On a single-core box `available_parallelism() == 1` and defaulting the
    // "parallel" leg to it silently benchmarks serial-vs-serial, reporting
    // speedups below 1.0 (pure overhead). Force an explicit oversubscribed
    // thread count instead and flag the run loudly: the numbers then measure
    // scheduling overhead, not scaling.
    let (threads, warning) = match flag_threads {
        Some(t) => (t.max(1), None),
        None if hw > 1 => (hw, None),
        None => (
            4,
            Some(
                "available_parallelism() == 1: parallel leg forced to 4 \
                 oversubscribed threads; speedups measure overhead, not scaling",
            ),
        ),
    };
    let meta = BenchMeta::capture(threads);
    if let Some(w) = warning {
        eprintln!("WARNING: {w}");
        eprintln!("WARNING: do not read this report as a scaling result");
    }
    eprintln!("benchmarking kernels at 1 vs {threads} thread(s) ({hw} cores visible)...");

    let g_big = bench_graph(60_000);
    let g_mid = bench_graph(4_000);

    let kernels: Vec<(&'static str, Kernel)> = vec![
        (
            "clustering",
            Box::new(move || {
                std::hint::black_box(clustering::local_clustering(&g_big));
            }),
        ),
        (
            "cpl",
            Box::new(move || {
                std::hint::black_box(path::characteristic_path_length(&g_mid, 128));
            }),
        ),
    ];

    let mut rows = Vec::new();
    for (name, f) in &kernels {
        let serial = with_thread_count(1, || best_of(3, f));
        let parallel = with_thread_count(threads, || best_of(3, f));
        let speedup = serial / parallel.max(1e-12);
        eprintln!(
            "{name:>10}: serial {serial:.4}s  parallel {parallel:.4}s  speedup {speedup:.2}x"
        );
        rows.push(Row {
            name,
            serial_s: serial,
            parallel_s: parallel,
            speedup,
        });
    }

    let report = json!({"warning": warning, "kernels": rows});
    bench::write_report("results/BENCH_parallel.json", &meta, &report)
        .unwrap_or_else(|e| bench::die(&e));
}
