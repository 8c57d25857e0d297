//! Sharded-pipeline scale benchmark, written to `results/BENCH_scale.json`.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p bench --bin scale [--threads N] [--max-nodes N]
//!     [--assert-min-nodes-per-sec X]
//! ```
//!
//! Runs `cpgan_shard::ShardPipeline` end-to-end (partition → per-shard
//! train+generate → stitch) on planted-partition graphs at 10k, 100k and
//! 500k nodes, reporting throughput (nodes/sec, edges/sec) and two memory
//! figures per leg: the scheduler's per-wave peak estimate and the nn
//! allocator's measured peak (`cpgan_nn::memory::peak_bytes`). Each leg
//! states the memory budget it ran under; `--max-nodes` trims the list for
//! CI, and `--assert-min-nodes-per-sec` gates regressions (exit 1).

use bench::BenchMeta;
use cpgan::CpGanConfig;
use cpgan_data::planted::{self, PlantedConfig};
use cpgan_parallel::with_thread_count;
use cpgan_shard::{ShardConfig, ShardPipeline};
use serde::Serialize;
use serde_json::json;
use std::time::Instant;

/// Per-wave scheduling budget every leg runs under (stated in the report).
const MEMORY_BUDGET_BYTES: usize = 512 << 20; // 512 MiB

/// One pipeline run at one graph size.
#[derive(Serialize)]
struct LegResult {
    nodes: usize,
    edges_in: usize,
    edges_out: usize,
    shards: usize,
    waves: usize,
    secs: f64,
    nodes_per_sec: f64,
    edges_per_sec: f64,
    scheduled_peak_bytes: usize,
    measured_nn_peak_bytes: usize,
    within_budget: bool,
}

/// Planted graph sized so community scale roughly matches the shard budget.
fn leg_graph(n: usize, seed: u64) -> cpgan_graph::Graph {
    let cfg = PlantedConfig {
        n,
        m: n * 4,
        communities: (n / 1200).max(8),
        mixing: 0.1,
        seed,
        ..PlantedConfig::default()
    };
    planted::generate(&cfg).graph
}

/// Per-shard model sized for throughput: the bench measures the pipeline's
/// scaling, not model quality, so each shard gets a few cheap epochs.
fn leg_model() -> CpGanConfig {
    CpGanConfig {
        epochs: 2,
        sample_size: 32,
        hidden_dim: 16,
        latent_dim: 8,
        levels: 1,
        ..CpGanConfig::tiny()
    }
}

fn run_leg(n: usize) -> Option<LegResult> {
    let g = leg_graph(n, 0xBEEF ^ n as u64);
    let pipeline = match ShardPipeline::new(ShardConfig {
        max_shard_size: 2000,
        memory_budget_bytes: MEMORY_BUDGET_BYTES,
        model: leg_model(),
        seed: 42,
        inter_pair_fraction: 1.0,
    }) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("pipeline config rejected: {e}");
            return None;
        }
    };
    cpgan_nn::memory::reset_peak();
    let start = Instant::now();
    let report = match pipeline.run(&g) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("pipeline failed at n={n}: {e}");
            return None;
        }
    };
    let secs = start.elapsed().as_secs_f64();
    let edges_out = report.graph.m();
    Some(LegResult {
        nodes: n,
        edges_in: g.m(),
        edges_out,
        shards: report.shards,
        waves: report.waves,
        secs,
        nodes_per_sec: n as f64 / secs,
        edges_per_sec: edges_out as f64 / secs,
        scheduled_peak_bytes: report.peak_estimate_bytes,
        measured_nn_peak_bytes: cpgan_nn::memory::peak_bytes(),
        within_budget: report.peak_estimate_bytes <= MEMORY_BUDGET_BYTES,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let flag_threads =
        bench::flag::<usize>(&args, "--threads").unwrap_or_else(|e| bench::usage_error(&e));
    // Same convention as BENCH_parallel: on a single-core box the default
    // "parallel" fan-out silently degenerates to serial execution, so force
    // oversubscription and flag the run — throughput then includes
    // scheduling overhead, not scaling headroom.
    let (threads, warning) = match flag_threads {
        Some(t) => (t.max(1), None),
        None if hw > 1 => (hw, None),
        None => (
            4,
            Some(
                "available_parallelism() == 1: shard fan-out forced to 4 \
                 oversubscribed threads; throughput includes scheduling \
                 overhead, not parallel speedup",
            ),
        ),
    };
    let max_nodes = bench::flag::<usize>(&args, "--max-nodes")
        .unwrap_or_else(|e| bench::usage_error(&e))
        .unwrap_or(usize::MAX);
    let min_nps = bench::flag::<f64>(&args, "--assert-min-nodes-per-sec")
        .unwrap_or_else(|e| bench::usage_error(&e));

    let meta = BenchMeta::capture(threads);
    if let Some(w) = warning {
        eprintln!("WARNING: {w}");
    }
    eprintln!(
        "sharded-pipeline scale bench at {threads} thread(s), \
         {} MiB wave budget...",
        MEMORY_BUDGET_BYTES >> 20
    );

    let mut results = Vec::new();
    for n in [10_000usize, 100_000, 500_000] {
        if n > max_nodes {
            eprintln!("skipping n={n} (--max-nodes {max_nodes})");
            continue;
        }
        let Some(leg) = with_thread_count(threads, || run_leg(n)) else {
            std::process::exit(1);
        };
        eprintln!(
            "n={:>7}: {:>7.2}s  {:>9.0} nodes/s  {:>9.0} edges/s  \
             {} shards / {} waves  sched peak {} MiB, measured nn peak {} MiB",
            leg.nodes,
            leg.secs,
            leg.nodes_per_sec,
            leg.edges_per_sec,
            leg.shards,
            leg.waves,
            leg.scheduled_peak_bytes >> 20,
            leg.measured_nn_peak_bytes >> 20,
        );
        if !leg.within_budget {
            eprintln!(
                "NOTE: scheduled peak exceeds the wave budget at n={} — an \
                 indivisible shard was larger than the budget",
                leg.nodes
            );
        }
        results.push(leg);
    }

    if results.is_empty() {
        eprintln!("no legs executed (check --max-nodes)");
        std::process::exit(1);
    }

    let report = json!({
        "warning": warning,
        "memory_budget_bytes": MEMORY_BUDGET_BYTES,
        "legs": results,
    });
    bench::write_report("results/BENCH_scale.json", &meta, &report)
        .unwrap_or_else(|e| bench::die(&e));

    if let Some(min) = min_nps {
        for leg in &results {
            if leg.nodes_per_sec < min {
                eprintln!(
                    "FAIL: n={} ran at {:.0} nodes/s, below the {min:.0} floor",
                    leg.nodes, leg.nodes_per_sec
                );
                std::process::exit(1);
            }
        }
        eprintln!("throughput gate passed (>= {min:.0} nodes/s on every leg)");
    }
}
