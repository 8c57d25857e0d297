//! The traced run's layer probes, shared by every workload. Each probe
//! calls one layer's public functions on the workload's own graph and
//! model; where the measured pass already observed a layer (the shard
//! pipeline on `shard_100k`, the server on `serve_mixed`) the probe reads
//! that, and elsewhere it runs the layer on this workload's inputs, so
//! every workload reports every per-layer metric.

use crate::check::{graph_digest, Digests, Outcome};
use crate::client::Sample;
use crate::metrics::Metric;
use crate::procfs::CpuTimes;
use crate::steps::{self, timed, Eval};
use crate::trace::Tracer;
use crate::{mean, median, percentile, serve_mixed, shard_100k, Ctx};
use cpgan::{CpGan, CpGanConfig};
use cpgan_graph::sampling::SubgraphSampler;
use cpgan_graph::Graph;
use cpgan_nn::Matrix;
use cpgan_shard::ShardPipeline;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A model fitted with the workload's config, the graph it was fitted on
/// and how long one such fit took.
pub(crate) struct Fitted {
    pub model: CpGan,
    pub graph: Graph,
    pub fit_s: f64,
}

/// The workload's main compute call, which the probes rerun at one thread.
pub(crate) enum MainCall {
    /// A fit of the workload's config on [`Fitted::graph`].
    Fit,
    /// A run of this pipeline on [`Observed::graph`].
    Shard(ShardPipeline),
}

/// The main compute call as measured by the pass: the median wall time of
/// one call at the default thread count, and the CPU time and wall time
/// of all measured calls together.
pub(crate) struct Main {
    pub call: MainCall,
    pub median_s: f64,
    pub total_s: f64,
    pub cpu: CpuTimes,
}

/// What the pass saw of the shard layer.
pub(crate) struct ShardSeen {
    pub run_s: f64,
    pub shards: usize,
    pub max_nodes: usize,
}

/// What the pass saw of the serve layer (and of persistence, which
/// serving a model goes through).
pub(crate) struct ServeSeen {
    pub save_s: Vec<f64>,
    pub load_s: Vec<f64>,
    pub start_s: Vec<f64>,
    pub model_bytes: u64,
    pub samples: Vec<Sample>,
    pub repeats: Vec<bool>,
    pub hits: usize,
}

/// What a pass leaves for the probes.
pub(crate) struct Observed {
    /// The graph the workload's outputs are evaluated against.
    pub graph: Graph,
    /// The workload's model config (for `shard_100k`, the per-shard model).
    pub cfg: CpGanConfig,
    /// A fitted model, or `None` where the pass fits no single model
    /// (`shard_100k`: the probes then fit one on the largest shard).
    pub fitted: Option<Fitted>,
    /// Wall time of each ingest of the workload's input, and its edges.
    pub ingest_s: Vec<f64>,
    pub ingest_edges: usize,
    pub main: Main,
    pub peak_tensor_bytes: usize,
    /// Edges produced ÷ edges requested, per generated graph.
    pub fills: Vec<f64>,
    pub evals: Vec<Eval>,
    pub digests: Digests,
    pub shard: Option<ShardSeen>,
    pub serve: Option<ServeSeen>,
}

/// Runs every probe and returns the per-layer metrics (all but the
/// tracing overhead, which the caller adds).
pub(crate) fn run(
    ctx: &Ctx,
    tr: &Tracer,
    out: &mut Outcome,
    mut obs: Observed,
) -> Result<Vec<Metric>, String> {
    let g = &obs.graph;
    let ingest_s = median(&obs.ingest_s);
    let mut metrics = vec![
        Metric::new("datasets.ingest_s", "s", ingest_s),
        Metric::new(
            "datasets.edges_per_s",
            "edges/s",
            obs.ingest_edges as f64 / ingest_s,
        ),
    ];

    // The shard layer: partition of this workload's graph, and a pipeline
    // run on it unless the pass made one.
    let shard_cfg = shard_100k::config(ctx.derive(shard_100k::PIPELINE_SEED_STREAMS[0]));
    let (shards, partition_s) = tr.span("shard.partition_shards", || {
        timed(|| cpgan_shard::partition_shards(g, shard_cfg.max_shard_size, shard_cfg.seed))
    });
    let shard = match obs.shard.take() {
        Some(seen) => seen,
        None => {
            let pipeline =
                ShardPipeline::new(shard_cfg.clone()).map_err(|e| format!("shard config: {e}"))?;
            let (report, run_s) = shard_100k::run_checked(tr, out, &mut obs.digests, &pipeline, g)?;
            ShardSeen {
                run_s,
                shards: report.shards,
                max_nodes: report.max_shard_nodes,
            }
        }
    };
    let op = out.attempt();
    out.check(op, shards.len() == shard.shards, || {
        format!(
            "partition_shards gave {} shards, the pipeline {}",
            shards.len(),
            shard.shards
        )
    });

    // The model the core, nn and serve probes use: the pass's, or one
    // fitted on the largest shard, as the pipeline fits each shard.
    let fitted = match obs.fitted.take() {
        Some(f) => f,
        None => {
            let largest = shards
                .iter()
                .max_by_key(|s| s.nodes.len())
                .ok_or("partition_shards gave no shards")?;
            let (sub, _) = g.induced_subgraph(&largest.nodes);
            let (model, fit_s) = steps::fit_new(tr, out, &obs.cfg, &sub)?;
            Fitted {
                model,
                graph: sub,
                fit_s,
            }
        }
    };
    let fg = &fitted.graph;

    metrics.push(spectral_metric(tr, fg, &obs.cfg));
    metrics.push(louvain_metric(tr, g));
    metrics.push(louvain_hierarchy_metric(ctx, tr, fg, &obs.cfg)?);
    metrics.extend(kernel_metrics(tr, &obs.cfg));
    metrics.push(Metric::new(
        "nn.peak_tensor_mb",
        "MiB",
        obs.peak_tensor_bytes as f64 / (1024.0 * 1024.0),
    ));

    let one_epoch = CpGanConfig {
        epochs: 1,
        ..obs.cfg.clone()
    };
    let (_, one_epoch_s) = steps::fit_new(tr, out, &one_epoch, fg)?;
    let epoch_s = (fitted.fit_s - one_epoch_s) / (obs.cfg.epochs.max(2) - 1) as f64;
    metrics.push(Metric::new("core.fit.fixed_s", "s", one_epoch_s - epoch_s));
    metrics.push(Metric::new("core.fit.epoch_ms", "ms", epoch_s * 1e3));
    metrics.push(Metric::new(
        "core.generate.edge_fill",
        "ratio",
        mean(&obs.fills),
    ));

    let serve = match obs.serve.take() {
        Some(seen) => seen,
        None => serve_mixed::burst(ctx, tr, out, &fitted.model)?,
    };
    metrics.push(Metric::new(
        "core.persist.save_s",
        "s",
        median(&serve.save_s),
    ));
    metrics.push(Metric::new(
        "core.persist.load_s",
        "s",
        median(&serve.load_s),
    ));
    metrics.push(Metric::new(
        "core.persist.model_mb",
        "MiB",
        serve.model_bytes as f64 / (1024.0 * 1024.0),
    ));

    metrics.extend(parallel_metrics(
        ctx,
        tr,
        out,
        &mut obs.digests,
        &obs.main,
        &fitted,
        &obs.cfg,
        g,
    )?);

    let stitch_s = shard.run_s - partition_s;
    metrics.extend([
        Metric::new("shard.partition_s", "s", partition_s),
        Metric::new("shard.train_generate_stitch_s", "s", stitch_s),
        Metric::new(
            "shard.per_shard_ms",
            "ms",
            stitch_s * 1e3 / shard.shards as f64,
        ),
        Metric::new("shard.count", "count", shard.shards as f64),
        Metric::new("shard.max_nodes", "count", shard.max_nodes as f64),
    ]);
    metrics.extend(serve_metrics(&serve));
    metrics.extend(eval_metrics(&obs.evals));
    Ok(metrics)
}

/// The main call again at one thread: the speedup of the default count
/// over one thread, and the determinism contract (DESIGN.md §8) — the
/// output at one thread must have the same digest as at the default count.
#[allow(clippy::too_many_arguments)]
fn parallel_metrics(
    ctx: &Ctx,
    tr: &Tracer,
    out: &mut Outcome,
    digests: &mut Digests,
    main: &Main,
    fitted: &Fitted,
    cfg: &CpGanConfig,
    g: &Graph,
) -> Result<Vec<Metric>, String> {
    let one_thread_s = match &main.call {
        MainCall::Fit => {
            let fg = &fitted.graph;
            let seed = ctx.derive(77);
            let key = "model after fit, at 1 vs default threads";
            let op = out.attempt();
            let g0 = fitted
                .model
                .generate(fg.n(), fg.m(), &mut StdRng::seed_from_u64(seed));
            digests.record(out, op, key, graph_digest(&g0));
            cpgan_parallel::with_thread_count(1, || {
                let (model, secs) = steps::fit_new(tr, out, cfg, fg)?;
                let op = out.attempt();
                let g1 = model.generate(fg.n(), fg.m(), &mut StdRng::seed_from_u64(seed));
                digests.record(out, op, key, graph_digest(&g1));
                Ok::<_, String>(secs)
            })?
        }
        MainCall::Shard(pipeline) => {
            cpgan_parallel::with_thread_count(1, || {
                shard_100k::run_checked(tr, out, digests, pipeline, g)
            })?
            .1
        }
    };
    let threads = cpgan_parallel::current_threads();
    Ok(vec![
        Metric::new("parallel.speedup", "ratio", one_thread_s / main.median_s),
        Metric::new(
            "parallel.cpu_util",
            "ratio",
            main.cpu.utilisation(main.total_s, threads),
        ),
        Metric::new("parallel.sys_cpu_share", "ratio", main.cpu.sys_share()),
    ])
}

/// Median of `reps` timed calls, fewer on large inputs.
fn reps_for(g: &Graph) -> usize {
    if g.n() > 20_000 {
        1
    } else {
        3
    }
}

/// The public spectral embedding of `g` at the config's width — the call
/// fit makes once on the graph it fits.
fn spectral_metric(tr: &Tracer, g: &Graph, cfg: &CpGanConfig) -> Metric {
    let d = cfg.spectral_dim.min(g.n());
    let times: Vec<f64> = (0..reps_for(g))
        .map(|_| {
            tr.span("graph.spectral_embedding", || {
                timed(|| cpgan_graph::spectral::spectral_embedding(g, d, cfg.seed)).1
            })
        })
        .collect();
    Metric::new("graph.spectral_s", "s", median(&times))
}

/// `cpgan_community::louvain` on `g`, the call `community_scores` makes
/// on each graph it scores.
fn louvain_metric(tr: &Tracer, g: &Graph) -> Metric {
    let times: Vec<f64> = (0..reps_for(g))
        .map(|_| {
            tr.span("community.louvain", || {
                timed(|| cpgan_community::louvain::louvain(g, steps::EVAL_SEED)).1
            })
        })
        .collect();
    Metric::new("community.louvain_s", "s", median(&times))
}

/// The per-epoch ground truth of fit: `louvain_hierarchy` on subgraphs
/// drawn by the public sampler at the config's sample size.
fn louvain_hierarchy_metric(
    ctx: &Ctx,
    tr: &Tracer,
    g: &Graph,
    cfg: &CpGanConfig,
) -> Result<Metric, String> {
    let k = cfg.sample_size.min(g.n());
    let mut sampler = SubgraphSampler::new(ctx.derive(7));
    let mut ms = Vec::new();
    for _ in 0..20 {
        let (sub, _) = sampler.next_subgraph(g, k).map_err(|e| e.to_string())?;
        let (_, secs) = tr.span("community.louvain_hierarchy", || {
            timed(|| cpgan_community::louvain::louvain_hierarchy(&sub, cfg.seed))
        });
        ms.push(secs * 1e3);
    }
    Ok(Metric::new(
        "community.louvain_hierarchy_ms",
        "ms",
        median(&ms),
    ))
}

/// GFLOP/s of each dense kernel at the shape that dominates fit's flop
/// count: the decoder's link logits `E·Eᵀ` on a sampled subgraph
/// (`E`: sample_size × hidden_dim) and the two products of its backward
/// pass, each `2·s²·h` flops. Flops and bytes moved are computed from the
/// shapes (f32 operands read once, output written once).
fn kernel_metrics(tr: &Tracer, cfg: &CpGanConfig) -> Vec<Metric> {
    let (s, h) = (cfg.sample_size, cfg.hidden_dim);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let e = cpgan_nn::init::standard_normal(&mut rng, s, h);
    let et = e.transpose();
    let grad = cpgan_nn::init::standard_normal(&mut rng, s, s);
    type Kernel<'a> = (&'static str, Box<dyn Fn() -> Matrix + 'a>);
    let kernels: [Kernel; 3] = [
        ("nn.matmul", Box::new(|| e.matmul(&et))),
        ("nn.matmul_nt", Box::new(|| grad.matmul_nt(&et))),
        ("nn.matmul_tn", Box::new(|| e.matmul_tn(&grad))),
    ];
    let flops = 2.0 * (s * s * h) as f64;
    let bytes = 4.0 * (s * h + h * s + s * s) as f64;
    // About ten milliseconds of work per timed batch at any shape.
    let reps = ((1e8 / flops).ceil() as usize).clamp(1, 10_000);
    let mut metrics = Vec::new();
    for (name, call) in kernels {
        // Warm the buffer pool, then time batches of calls.
        for _ in 0..3 {
            std::hint::black_box(call());
        }
        let per_call: Vec<f64> = (0..7)
            .map(|_| {
                let (_, secs) = tr.span(name, || {
                    timed(|| {
                        for _ in 0..reps {
                            std::hint::black_box(call());
                        }
                    })
                });
                secs / reps as f64
            })
            .collect();
        metrics.push(Metric::new(
            &format!("{name}.gflops"),
            "GFLOP/s",
            flops / median(&per_call) / 1e9,
        ));
        metrics.push(Metric::new(
            &format!("{name}.flop_per_call"),
            "count",
            flops,
        ));
        metrics.push(Metric::new(
            &format!("{name}.bytes_per_call"),
            "bytes",
            bytes,
        ));
    }
    metrics
}

/// The serve layer's metrics from the requests of a schedule.
fn serve_metrics(seen: &ServeSeen) -> Vec<Metric> {
    let count = |code: u16| {
        seen.samples
            .iter()
            .filter(|s| s.status == Some(code))
            .count()
    };
    let errors = seen
        .samples
        .iter()
        .filter(|s| !matches!(s.status, Some(200 | 429 | 408)))
        .count();
    let ok_ms = |keep: &dyn Fn(bool) -> bool| -> Vec<f64> {
        seen.samples
            .iter()
            .zip(&seen.repeats)
            .filter(|(s, &r)| keep(r) && s.status == Some(200))
            .map(|(s, _)| s.latency_ms())
            .collect()
    };
    let lag_ms: Vec<f64> = seen.samples.iter().map(Sample::send_lag_ms).collect();
    vec![
        Metric::new("serve.start_s", "s", median(&seen.start_s)),
        Metric::new(
            "serve.cache_hit_ratio",
            "ratio",
            seen.hits as f64 / seen.samples.len() as f64,
        ),
        Metric::new("serve.cold_p50_ms", "ms", percentile(&ok_ms(&|r| !r), 0.5)),
        Metric::new("serve.cached_p50_ms", "ms", percentile(&ok_ms(&|r| r), 0.5)),
        Metric::new("serve.p99_ms", "ms", percentile(&ok_ms(&|_| true), 0.99)),
        Metric::new("serve.rejected", "count", count(429) as f64),
        Metric::new("serve.timed_out", "count", count(408) as f64),
        Metric::new("serve.errors", "count", errors as f64),
        Metric::new("serve.send_lag_p99_ms", "ms", percentile(&lag_ms, 0.99)),
    ]
}

/// The eval layer's timings over a run's evaluated graphs.
fn eval_metrics(evals: &[Eval]) -> Vec<Metric> {
    let pick = |f: fn(&Eval) -> f64| evals.iter().map(f).collect::<Vec<f64>>();
    vec![
        Metric::new(
            "eval.community_scores_s",
            "s",
            median(&pick(|e| e.community_scores_s)),
        ),
        Metric::new(
            "eval.quality_diff_s",
            "s",
            median(&pick(|e| e.quality_diff_s)),
        ),
    ]
}
