//! `shard_100k`: a 100,000-node planted graph, written as a SNAP edge list
//! and ingested by the program, through `ShardPipeline` with the scale
//! bench's leg settings. Thousands of tiny fit+generate calls over the
//! pool plus recursive Louvain make per-call fixed costs and coarse-grain
//! parallelism dominate; every generate runs at n ≤ 2000.

use crate::check::{graph_digest, Digests, Outcome};
use crate::metrics::Metric;
use crate::probes::{Main, MainCall, Observed, ShardSeen};
use crate::procfs::{peak_rss_mb, CpuTimes};
use crate::steps::{self, timed};
use crate::trace::Tracer;
use crate::{median, Ctx, Pass};
use cpgan::CpGanConfig;
use cpgan_datasets::Format;
use cpgan_graph::{DuplicatePolicy, Graph, SelfLoopPolicy};
use cpgan_obs::Stopwatch;
use cpgan_shard::{ShardConfig, ShardPipeline, ShardReport};
use std::io::Write;
use std::path::Path;

/// Evaluations of each (bit-identical) output per run: the first
/// evaluation in a process is often 30–50% slower than the next (fresh
/// heap pages), so the median needs three.
const EVAL_REPEATS: usize = 3;
/// Seed streams of the pipelines a run alternates between. Run time and
/// quality both depend on the pipeline seed, so two seeds per run halve
/// the spread that one seed's luck adds.
pub(crate) const PIPELINE_SEED_STREAMS: [u64; 2] = [2, 3];

/// The scale bench's leg configuration: shards of at most 2,000 nodes, a
/// 512 MiB wave budget, and a small per-shard model. The pipeline seed
/// (partition and per-shard generation) comes from the workload seed.
pub(crate) fn config(seed: u64) -> ShardConfig {
    ShardConfig {
        max_shard_size: 2000,
        memory_budget_bytes: 512 << 20,
        model: CpGanConfig {
            epochs: 2,
            sample_size: 32,
            hidden_dim: 16,
            latent_dim: 8,
            levels: 1,
            ..CpGanConfig::tiny()
        },
        seed,
        inter_pair_fraction: 1.0,
    }
}

/// One checked pipeline run: the output must keep every input node, and
/// its edge list must be the same on every run of the same pipeline.
pub(crate) fn run_checked(
    tr: &Tracer,
    out: &mut Outcome,
    digests: &mut Digests,
    pipeline: &ShardPipeline,
    g: &Graph,
) -> Result<(ShardReport, f64), String> {
    let op = out.attempt();
    let (report, secs) = tr.op("shard.run", || timed(|| pipeline.run(g)));
    let report = report.map_err(|e| format!("shard pipeline: {e}"))?;
    out.check(op, report.graph.n() == g.n(), || {
        format!("output has {} nodes, input {}", report.graph.n(), g.n())
    });
    out.check(op, report.graph.m() >= 1, || {
        "output has no edges".to_string()
    });
    digests.record(
        out,
        op,
        &format!(
            "shard output, pipeline seed {}, {}-node input",
            pipeline.config().seed,
            g.n()
        ),
        graph_digest(&report.graph),
    );
    Ok((report, secs))
}

/// Writes `g` as a SNAP edge list (the benchmark's input synthesis).
fn write_snap(g: &Graph, path: &Path) -> Result<(), String> {
    let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut w = std::io::BufWriter::new(file);
    let mut write = || -> std::io::Result<()> {
        writeln!(w, "# planted graph: {} nodes, {} edges", g.n(), g.m())?;
        for &(u, v) in g.edges() {
            writeln!(w, "{u}\t{v}")?;
        }
        w.flush()?;
        // Written back before set-up, so no timed ingest shares the disk
        // with the flush of its own input.
        w.get_ref().sync_all()
    };
    write().map_err(|e| format!("{}: {e}", path.display()))
}

/// The program's ingest of the edge list: every edge kept, every node
/// with an edge present, and the same graph on every ingest.
fn ingest(
    tr: &Tracer,
    out: &mut Outcome,
    digests: &mut Digests,
    path: &Path,
    planted: &Graph,
) -> Result<Graph, String> {
    let op = out.attempt();
    let files = [(path.to_path_buf(), Format::SnapEdges)];
    let ingested = tr
        .span("datasets.ingest_files", || {
            cpgan_datasets::ingest_files(&files, SelfLoopPolicy::Drop, DuplicatePolicy::Merge)
        })
        .map_err(|e| format!("ingest {}: {e}", path.display()))?;
    let g = ingested.graph;
    let linked = (0..planted.n() as u32)
        .filter(|&v| planted.degree(v) > 0)
        .count();
    out.check(op, (g.n(), g.m()) == (linked, planted.m()), || {
        format!(
            "ingested n={} m={}, written {linked} linked nodes and {} edges",
            g.n(),
            g.m(),
            planted.m()
        )
    });
    digests.record(out, op, "ingest", graph_digest(&g));
    Ok(g)
}

pub(crate) fn pass(ctx: &Ctx, tr: &Tracer, out: &mut Outcome) -> Result<Pass, String> {
    let planted = steps::planted_graph(ctx.sizes.shard_n);
    let path = ctx.work_dir.join("planted.snap");
    write_snap(&planted, &path)?;
    let configs = PIPELINE_SEED_STREAMS.map(|stream| config(ctx.derive(stream)));

    let mut digests = Digests::default();
    let (mut setup_s, mut ingest_s) = (Vec::new(), Vec::new());
    let mut ready = None;
    {
        let _s = tr.enter("bench.setup");
        for _ in 0..ctx.sizes.setup_repeats {
            let sw = Stopwatch::start();
            let (g, secs) = timed(|| ingest(tr, out, &mut digests, &path, &planted));
            let pipelines = tr.span("shard.new", || {
                configs
                    .iter()
                    .map(|c| ShardPipeline::new(c.clone()))
                    .collect::<Result<Vec<_>, _>>()
            });
            setup_s.push(sw.elapsed_secs());
            ingest_s.push(secs);
            ready = Some((g?, pipelines));
        }
    }
    drop(planted);
    let (graph, pipelines) = ready.ok_or("no set-up ran")?;
    let mut pipelines = pipelines.map_err(|e| format!("shard config: {e}"))?;

    let _m = tr.enter("bench.measure");
    let measure = Stopwatch::start();
    cpgan_nn::memory::reset_peak();
    let (mut run_s, mut cpu) = (Vec::new(), CpuTimes::default());
    let mut reports: Vec<Option<ShardReport>> = vec![None; pipelines.len()];
    // The pipelines take turns, each at least twice, so every output
    // digest is compared within the run.
    loop {
        let i = run_s.len() % pipelines.len();
        let cpu0 = CpuTimes::now()?;
        let (r, secs) = run_checked(tr, out, &mut digests, &pipelines[i], &graph)?;
        cpu = cpu.plus(cpu0.until(CpuTimes::now()?));
        run_s.push(secs);
        reports[i].get_or_insert(r);
        if run_s.len() >= 2 * pipelines.len()
            && run_s.len() % pipelines.len() == 0
            && !steps::room_for_another(
                ctx.seconds,
                measure.elapsed_secs(),
                secs * pipelines.len() as f64,
            )
        {
            break;
        }
    }
    let measured_s = measure.elapsed_secs();
    let peak_tensor_bytes = cpgan_nn::memory::peak_bytes();
    let reports: Vec<ShardReport> = reports.into_iter().flatten().collect();
    // Each pipeline's runs are bit-identical (checked above): evaluate one
    // output of each.
    let mut evals = Vec::new();
    for r in &reports {
        evals.extend(steps::evaluate_repeated(
            tr,
            out,
            &graph,
            &r.graph,
            EVAL_REPEATS,
        ));
    }
    let first = reports.first().ok_or("no pipeline run")?;

    let op_s = median(&run_s);
    let mut metrics = vec![
        Metric::new("setup_s", "s", median(&setup_s)),
        Metric::new("peak_rss_mb", "MiB", peak_rss_mb()?),
        Metric::new("op_s", "s", op_s),
        Metric::new("nodes_per_s", "nodes/s", graph.n() as f64 / op_s),
    ];
    metrics.extend(steps::quality_metrics(&evals));
    Ok(Pass {
        metrics,
        measured_s,
        notes: vec![format!(
            "op_s: median of {} runs of {} pipeline seeds at n={} m={} ({} and {} shards)",
            run_s.len(),
            pipelines.len(),
            graph.n(),
            graph.m(),
            first.shards,
            reports.last().map_or(0, |r| r.shards),
        )],
        observed: Observed {
            ingest_edges: graph.m(),
            fitted: None,
            cfg: configs[0].model.clone(),
            ingest_s,
            shard: Some(ShardSeen {
                run_s: run_s[0],
                shards: first.shards,
                max_nodes: first.max_shard_nodes,
            }),
            fills: reports
                .iter()
                .map(|r| steps::edge_fill(&r.graph, graph.m()))
                .collect(),
            main: Main {
                call: MainCall::Shard(pipelines.swap_remove(0)),
                median_s: op_s,
                total_s: run_s.iter().sum(),
                cpu,
            },
            peak_tensor_bytes,
            evals,
            digests,
            serve: None,
            graph,
        },
    })
}
