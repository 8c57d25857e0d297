//! Metric values and the catalogue of every metric the benchmark reports,
//! by name and unit. Every workload reports every metric: the end-to-end
//! ones from an untraced run, the per-layer ones from a traced run.
//! `BENCHMARK.json` lists the same names and units (a test keeps the two
//! in step); `perfbench/METRICS.md` defines each one per workload.

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Catalogue name, e.g. `op_s`.
    pub name: String,
    /// Unit, e.g. `s`.
    pub unit: &'static str,
    /// The value as measured.
    pub value: f64,
}

impl Metric {
    /// A metric value.
    pub fn new(name: &str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.to_string(),
            unit,
            value,
        }
    }
}

/// A catalogue entry.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
}

const fn spec(name: &'static str, unit: &'static str) -> Spec {
    Spec { name, unit }
}

/// End-to-end metrics, reported by untraced runs.
pub const END_TO_END: &[Spec] = &[
    spec("setup_s", "s"),
    spec("peak_rss_mb", "MiB"),
    spec("op_s", "s"),
    spec("nodes_per_s", "nodes/s"),
    spec("eval_s", "s"),
    spec("nmi", "score"),
    spec("ari", "score"),
    spec("mmd_degree", "mmd"),
    spec("mmd_clustering", "mmd"),
];

/// Per-layer metrics, reported by traced runs.
pub const PER_LAYER: &[Spec] = &[
    spec("datasets.ingest_s", "s"),
    spec("datasets.edges_per_s", "edges/s"),
    spec("graph.spectral_s", "s"),
    spec("community.louvain_s", "s"),
    spec("community.louvain_hierarchy_ms", "ms"),
    spec("nn.matmul.gflops", "GFLOP/s"),
    spec("nn.matmul.flop_per_call", "count"),
    spec("nn.matmul.bytes_per_call", "bytes"),
    spec("nn.matmul_nt.gflops", "GFLOP/s"),
    spec("nn.matmul_nt.flop_per_call", "count"),
    spec("nn.matmul_nt.bytes_per_call", "bytes"),
    spec("nn.matmul_tn.gflops", "GFLOP/s"),
    spec("nn.matmul_tn.flop_per_call", "count"),
    spec("nn.matmul_tn.bytes_per_call", "bytes"),
    spec("nn.peak_tensor_mb", "MiB"),
    spec("core.fit.fixed_s", "s"),
    spec("core.fit.epoch_ms", "ms"),
    spec("core.generate.edge_fill", "ratio"),
    spec("core.persist.save_s", "s"),
    spec("core.persist.load_s", "s"),
    spec("core.persist.model_mb", "MiB"),
    spec("parallel.speedup", "ratio"),
    spec("parallel.cpu_util", "ratio"),
    spec("parallel.sys_cpu_share", "ratio"),
    spec("shard.partition_s", "s"),
    spec("shard.train_generate_stitch_s", "s"),
    spec("shard.per_shard_ms", "ms"),
    spec("shard.count", "count"),
    spec("shard.max_nodes", "count"),
    spec("serve.start_s", "s"),
    spec("serve.cache_hit_ratio", "ratio"),
    spec("serve.cold_p50_ms", "ms"),
    spec("serve.cached_p50_ms", "ms"),
    spec("serve.p99_ms", "ms"),
    spec("serve.rejected", "count"),
    spec("serve.timed_out", "count"),
    spec("serve.errors", "count"),
    spec("serve.send_lag_p99_ms", "ms"),
    spec("eval.community_scores_s", "s"),
    spec("eval.quality_diff_s", "s"),
    spec("trace.overhead_pct", "%"),
];

/// The catalogue a run reports: per-layer when traced, else end-to-end.
pub fn expected(traced: bool) -> &'static [Spec] {
    if traced {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// Puts `metrics` in catalogue order and checks them against it: every
/// expected metric present once with its catalogue unit, nothing else, and
/// every value finite. Returns the problems found.
pub fn conform(traced: bool, metrics: &mut [Metric]) -> Vec<String> {
    let want = expected(traced);
    let mut problems = Vec::new();
    for m in metrics.iter() {
        match want.iter().find(|s| s.name == m.name) {
            None => problems.push(format!("unexpected metric {}", m.name)),
            Some(s) if s.unit != m.unit => problems.push(format!(
                "{}: unit {} != catalogue {}",
                m.name, m.unit, s.unit
            )),
            Some(_) if !m.value.is_finite() => {
                problems.push(format!("{}: value {} is not finite", m.name, m.value))
            }
            Some(_) => {}
        }
    }
    for s in want {
        let n = metrics.iter().filter(|m| m.name == s.name).count();
        if n != 1 {
            problems.push(format!("{}: reported {n} times", s.name));
        }
    }
    metrics.sort_by_key(|m| want.iter().position(|s| s.name == m.name));
    problems
}
