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
use std::fmt::Write as _;
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

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let flag_threads = args
        .iter()
        .position(|a| a == "--threads")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<usize>().ok());
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

    let kernels: Vec<(&str, Kernel)> = vec![
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
        rows.push((*name, serial, parallel, speedup));
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&meta.json_fields("  "));
    match warning {
        Some(w) => {
            let _ = writeln!(json, "  \"warning\": \"{w}\",");
        }
        None => json.push_str("  \"warning\": null,\n"),
    }
    json.push_str("  \"kernels\": [\n");
    for (i, (name, serial, parallel, speedup)) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"name\": \"{name}\", \"serial_s\": {serial:.6}, \
             \"parallel_s\": {parallel:.6}, \"speedup\": {speedup:.3}}}{comma}"
        );
    }
    json.push_str("  ]\n}\n");

    let out = "results/BENCH_parallel.json";
    if let Err(e) = std::fs::create_dir_all("results").and_then(|()| std::fs::write(out, &json)) {
        eprintln!("failed to write {out}: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote {out}");
}
