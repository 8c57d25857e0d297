//! `train_eval`: registry ingest of `citeseer-fixture`, repeated fits of
//! the default config, posterior generation at the observed size for fixed
//! seeds after each fit, and Table III/IV evaluation. Fit is most of the
//! wall time.

use crate::check::{graph_digest, Digests, Outcome};
use crate::metrics::Metric;
use crate::probes::{Fitted, Main, MainCall, Observed};
use crate::procfs::{peak_rss_mb, CpuTimes};
use crate::steps::{self, timed};
use crate::trace::Tracer;
use crate::{median, Ctx, Pass};
use cpgan::{CpGan, CpGanConfig};
use cpgan_datasets::LoadOptions;
use cpgan_graph::Graph;
use cpgan_obs::Stopwatch;

const DATASET: &str = "citeseer-fixture";
/// Evaluations of each generated graph: one takes about 20 ms, too short
/// a sample to time steadily alone.
pub(crate) const EVAL_REPEATS: usize = 5;

/// The default config, with the run's epoch count.
fn config(ctx: &Ctx) -> CpGanConfig {
    CpGanConfig {
        epochs: ctx.sizes.train_epochs,
        ..CpGanConfig::default()
    }
}

/// Registry resolve plus ingest of `citeseer-fixture` into a fresh cache
/// directory; the graph must match the registry's reference counts and
/// be the same on every ingest. Returns the graph and the ingest time.
pub(crate) fn ingest(
    ctx: &Ctx,
    tr: &Tracer,
    out: &mut Outcome,
    digests: &mut Digests,
    i: usize,
) -> Result<(Graph, f64), String> {
    let op = out.attempt();
    let opts = LoadOptions {
        data_dir: Some(ctx.work_dir.join(format!("data-{i}"))),
        offline: true,
        ..LoadOptions::default()
    };
    let (loaded, ingest_s) = tr.span("datasets.load", || {
        timed(|| {
            let entry = cpgan_datasets::resolve(DATASET)?;
            cpgan_datasets::load(entry, &opts).map(|ds| (entry.reference, ds))
        })
    });
    let (reference, ds) = loaded.map_err(|e| format!("{DATASET}: {e}"))?;
    let g = ds.graph;
    out.check(op, (g.n(), g.m()) == (reference.n, reference.m), || {
        format!(
            "ingested n={} m={}, registry reference n={} m={}",
            g.n(),
            g.m(),
            reference.n,
            reference.m
        )
    });
    digests.record(out, op, "ingest", graph_digest(&g));
    Ok((g, ingest_s))
}

pub(crate) fn pass(ctx: &Ctx, tr: &Tracer, out: &mut Outcome) -> Result<Pass, String> {
    let cfg = config(ctx);
    let mut digests = Digests::default();
    let mut setup_s = Vec::new();
    let mut ingest_s = Vec::new();
    let mut ready = None;
    {
        let _s = tr.enter("bench.setup");
        // Set-up is milliseconds here, so take more of them.
        for i in 0..ctx.sizes.setup_repeats * 10 {
            let sw = Stopwatch::start();
            let (g, ingest) = ingest(ctx, tr, out, &mut digests, i)?;
            let model = steps::new_model(tr, &cfg)?;
            setup_s.push(sw.elapsed_secs());
            ingest_s.push(ingest);
            ready = Some((g, model));
        }
    }
    let (graph, mut model): (Graph, CpGan) = ready.ok_or("no set-up ran")?;

    // Each round fits the same config on the same graph, so it yields the
    // same model: every round generates the same seeds, whose digests must
    // match across rounds. Only the first round is evaluated.
    let seeds: Vec<u64> = (0..ctx.sizes.train_gen_seeds as u64)
        .map(|i| ctx.derive(100 + i))
        .collect();
    let _m = tr.enter("bench.measure");
    let measure = Stopwatch::start();
    cpgan_nn::memory::reset_peak();
    let (mut fit_s, mut gen_s, mut fills, mut evals) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut fit_cpu = CpuTimes::default();
    let mut round = 0;
    loop {
        let sw = Stopwatch::start();
        if round > 0 {
            model = steps::new_model(tr, &cfg)?;
        }
        let cpu0 = CpuTimes::now()?;
        fit_s.push(steps::fit(tr, out, &mut model, &graph));
        fit_cpu = fit_cpu.plus(cpu0.until(CpuTimes::now()?));
        for &seed in &seeds {
            let (g, secs) =
                steps::generate(tr, out, &mut digests, &model, graph.n(), graph.m(), seed);
            gen_s.push(secs);
            if round == 0 {
                fills.push(steps::edge_fill(&g, graph.m()));
                evals.extend(steps::evaluate_repeated(tr, out, &graph, &g, EVAL_REPEATS));
            }
        }
        round += 1;
        if round >= 2
            && !steps::room_for_another(ctx.seconds, measure.elapsed_secs(), sw.elapsed_secs())
        {
            break;
        }
    }
    let measured_s = measure.elapsed_secs();
    let peak_tensor_bytes = cpgan_nn::memory::peak_bytes();

    let mut metrics = vec![
        Metric::new("setup_s", "s", median(&setup_s)),
        Metric::new("peak_rss_mb", "MiB", peak_rss_mb()?),
        Metric::new("op_s", "s", median(&fit_s)),
        Metric::new("nodes_per_s", "nodes/s", graph.n() as f64 / median(&gen_s)),
    ];
    metrics.extend(steps::quality_metrics(&evals));
    let fit_median = median(&fit_s);
    Ok(Pass {
        metrics,
        measured_s,
        notes: vec![format!(
            "op_s: median of {} fits ({} epochs); nodes_per_s: median of {} generate calls \
             at n={} m={}; quality: mean of {} graphs",
            fit_s.len(),
            cfg.epochs,
            gen_s.len(),
            graph.n(),
            graph.m(),
            fills.len()
        )],
        observed: Observed {
            ingest_edges: graph.m(),
            fitted: Some(Fitted {
                model,
                graph: graph.clone(),
                fit_s: fit_median,
            }),
            graph,
            cfg,
            ingest_s,
            main: Main {
                call: MainCall::Fit,
                median_s: fit_median,
                total_s: fit_s.iter().sum(),
                cpu: fit_cpu,
            },
            peak_tensor_bytes,
            fills,
            evals,
            digests,
            shard: None,
            serve: None,
        },
    })
}
