//! Steps shared by the workloads: checked generation, Table III/IV
//! evaluation, and the planted inputs.

use crate::check::{check_generated, graph_digest, Digests, Outcome};
use crate::metrics::Metric;
use crate::trace::Tracer;
use crate::{mean, median};
use cpgan::{CpGan, CpGanConfig};
use cpgan_data::planted::{self, PlantedConfig};
use cpgan_graph::Graph;
use cpgan_obs::Stopwatch;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Louvain seed of the evaluation (an evaluation setting, not an input).
pub const EVAL_SEED: u64 = 42;
/// BFS sources of the path-length estimate inside `quality_diff`, as in
/// the repository's ingested-graph evaluation.
const CPL_SOURCES: usize = 64;

/// Runs `f` and returns its result with its wall time in seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let sw = Stopwatch::start();
    let r = f();
    (r, sw.elapsed_secs())
}

/// Whether a run that has measured for `elapsed` seconds has room for one
/// more operation like its last (which took `last`) within `seconds`.
/// Operations are whole, so a run stops early rather than overrun.
pub fn room_for_another(seconds: f64, elapsed: f64, last: f64) -> bool {
    elapsed + last <= seconds
}

/// The scale bench's planted graph at `n` nodes: `m = 4n`, one community
/// per 1,200 nodes (at least 8), mixing 0.1, and the scale bench's graph
/// seed. The graph is the same for every workload seed — which only picks
/// the generation seeds — so a run's spread is that of the program, not of
/// the graph family (quality and generate time both vary far more from one
/// planted graph to the next than between generation seeds).
pub fn planted_graph(n: usize) -> Graph {
    let seed = 0xBEEF ^ n as u64;
    planted::generate(&PlantedConfig {
        n,
        m: n * 4,
        communities: (n / 1200).max(8),
        mixing: 0.1,
        seed,
        ..PlantedConfig::default()
    })
    .graph
}

/// One checked `CpGan::generate` call: returns the graph and its wall
/// time. The graph must have `n` nodes and an edge count within the
/// assembler's target, and the same `seed` must always give the same
/// edge list.
pub fn generate(
    tr: &Tracer,
    out: &mut Outcome,
    digests: &mut Digests,
    model: &CpGan,
    n: usize,
    m: usize,
    seed: u64,
) -> (Graph, f64) {
    let op = out.attempt();
    let (g, secs) = tr.op("core.generate", || {
        timed(|| model.generate(n, m, &mut StdRng::seed_from_u64(seed)))
    });
    check_generated(out, op, &g, n, m);
    digests.record(out, op, &format!("generate seed {seed}"), graph_digest(&g));
    (g, secs)
}

/// Table III/IV scores of one generated graph and the time each call took.
#[derive(Debug, Clone, Copy)]
pub struct Eval {
    pub nmi: f64,
    pub ari: f64,
    pub mmd_degree: f64,
    pub mmd_clustering: f64,
    pub community_scores_s: f64,
    pub quality_diff_s: f64,
}

/// Evaluates `generated` against `observed` through the public
/// `cpgan_eval::pipelines` calls; scores must be finite.
pub fn evaluate(tr: &Tracer, out: &mut Outcome, observed: &Graph, generated: &Graph) -> Eval {
    let op = out.attempt();
    let ((nmi, ari), community_scores_s) = tr.span("eval.community_scores", || {
        timed(|| cpgan_eval::pipelines::community_scores(observed, generated, EVAL_SEED))
    });
    let (q, quality_diff_s) = tr.span("eval.quality_diff", || {
        timed(|| cpgan_eval::pipelines::quality_diff(observed, generated, CPL_SOURCES))
    });
    let all = [nmi, ari, q.deg, q.clus];
    out.check(op, all.iter().all(|v| v.is_finite()), || {
        format!("non-finite scores {all:?}")
    });
    Eval {
        nmi,
        ari,
        mmd_degree: q.deg,
        mmd_clustering: q.clus,
        community_scores_s,
        quality_diff_s,
    }
}

/// [`evaluate`] `reps` times on the same pair: every repeat must give
/// bit-identical scores (evaluation is deterministic), and the timings
/// give a steadier `eval_s` where a run has few graphs.
pub fn evaluate_repeated(
    tr: &Tracer,
    out: &mut Outcome,
    observed: &Graph,
    generated: &Graph,
    reps: usize,
) -> Vec<Eval> {
    let evals: Vec<Eval> = (0..reps)
        .map(|_| evaluate(tr, out, observed, generated))
        .collect();
    let scores = |e: &Eval| [e.nmi, e.ari, e.mmd_degree, e.mmd_clustering].map(f64::to_bits);
    if let Some(first) = evals.first() {
        let op = out.attempt();
        out.check(op, evals.iter().all(|e| scores(e) == scores(first)), || {
            "repeated evaluation of one graph gave different scores".to_string()
        });
    }
    evals
}

/// `eval_s` and the four quality metrics over a run's evaluated graphs:
/// the median eval time per graph and the mean of each score.
pub fn quality_metrics(evals: &[Eval]) -> Vec<Metric> {
    let pick = |f: fn(&Eval) -> f64| evals.iter().map(f).collect::<Vec<f64>>();
    vec![
        Metric::new(
            "eval_s",
            "s",
            median(&pick(|e| e.community_scores_s + e.quality_diff_s)),
        ),
        Metric::new("nmi", "score", mean(&pick(|e| e.nmi))),
        Metric::new("ari", "score", mean(&pick(|e| e.ari))),
        Metric::new("mmd_degree", "mmd", mean(&pick(|e| e.mmd_degree))),
        Metric::new("mmd_clustering", "mmd", mean(&pick(|e| e.mmd_clustering))),
    ]
}

/// Edges produced ÷ edges requested, per generated graph (base: the
/// requested edge count).
pub fn edge_fill(g: &Graph, requested: usize) -> f64 {
    g.m() as f64 / requested as f64
}

/// Fits `model` on `g`; the fit must train every configured epoch and
/// leave the model trained on `g`'s node count. Returns the wall time.
pub fn fit(tr: &Tracer, out: &mut Outcome, model: &mut CpGan, g: &Graph) -> f64 {
    let op = out.attempt();
    let (stats, secs) = tr.span("core.fit", || timed(|| model.fit(g)));
    let epochs = model.config().epochs;
    out.check(op, stats.epochs.len() == epochs, || {
        format!("fit ran {} of {epochs} epochs", stats.epochs.len())
    });
    out.check(
        op,
        model.trained_shape().map(|s| s.0) == Some(g.n()),
        || format!("fit left trained shape {:?}", model.trained_shape()),
    );
    secs
}

/// A fresh model with `cfg`, fitted on `g`, and the fit's wall time.
pub fn fit_new(
    tr: &Tracer,
    out: &mut Outcome,
    cfg: &CpGanConfig,
    g: &Graph,
) -> Result<(CpGan, f64), String> {
    let mut model = new_model(tr, cfg)?;
    let secs = fit(tr, out, &mut model, g);
    Ok((model, secs))
}

/// `CpGan::try_new` inside a span.
pub fn new_model(tr: &Tracer, cfg: &CpGanConfig) -> Result<CpGan, String> {
    tr.span("core.new", || CpGan::try_new(cfg.clone()))
        .map_err(|e| format!("model config: {e}"))
}
