//! Table V: graph reconstruction with an 80/20 edge split.

use crate::pipelines::{load_all, quality_diff};
use crate::registry::{cpgan_config, deep_config, ModelKind};
use crate::report::Table;
use crate::{paper, EvalConfig};
use cpgan::{CpGan, Variant};
use cpgan_datasets::{DatasetEntry, DatasetError, LoadOptions};
use cpgan_deep::{condgen::CondGenR, graphite::Graphite, sbmgnn::SbmGnn, vgae::Vgae};
use cpgan_graph::{Graph, GraphBuilder, NodeId};
use cpgan_nn::Matrix;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Table V's model list.
pub fn models() -> Vec<ModelKind> {
    vec![
        ModelKind::Vgae,
        ModelKind::Graphite,
        ModelKind::Sbmgnn,
        ModelKind::CondGenR,
        ModelKind::CpGan(Variant::Full),
    ]
}

/// Table V's default datasets.
pub const DATASETS: [&str; 2] = ["ppi-synthetic", "citeseer-synthetic"];

/// One reconstruction measurement.
#[derive(Debug, Clone, Copy)]
pub struct ReconResult {
    /// Statistic differences of the reconstructed graph vs the full graph.
    pub deg: f64,
    /// Clustering MMD.
    pub clus: f64,
    /// |CPL difference|.
    pub cpl: f64,
    /// |Gini difference|.
    pub gini: f64,
    /// |PWE difference|.
    pub pwe: f64,
    /// Mean NLL of the training edges.
    pub train_nll: f64,
    /// Mean NLL of the held-out edges.
    pub test_nll: f64,
}

/// Result of [`edge_split`]: `(train_graph, train_edges, test_edges)`.
pub type EdgeSplit = (Graph, Vec<(NodeId, NodeId)>, Vec<(NodeId, NodeId)>);

/// Splits edges 80/20 and returns `(train_graph, train_edges, test_edges)`.
pub fn edge_split(g: &Graph, seed: u64) -> EdgeSplit {
    let mut edges: Vec<(NodeId, NodeId)> = g.edges().to_vec();
    let mut rng = StdRng::seed_from_u64(seed);
    edges.shuffle(&mut rng);
    let split = (edges.len() * 4) / 5;
    let (train, test) = edges.split_at(split);
    // The edges come from an existing graph, so rebuild infallibly.
    let mut b = GraphBuilder::with_capacity(g.n(), train.len());
    for &(u, v) in train {
        b.push_edge(u, v);
    }
    let train_graph = b.build();
    (train_graph, train.to_vec(), test.to_vec())
}

/// Fits `kind` on the train graph and returns the full link-probability
/// matrix.
///
/// # Panics
///
/// Panics when called with a model kind that has no reconstruction path —
/// a driver-contract violation, not a data error (the callers in this
/// module only pass `models()`). Tolerated in `lint-baseline.toml`.
#[allow(clippy::panic)]
pub fn reconstruct_probs(kind: ModelKind, train: &Graph, cfg: &EvalConfig, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x77);
    match kind {
        ModelKind::Vgae => Vgae::fit(train, &deep_config(cfg, seed)).decode_probabilities(&mut rng),
        ModelKind::Graphite => {
            Graphite::fit(train, &deep_config(cfg, seed)).decode_probabilities(&mut rng)
        }
        ModelKind::Sbmgnn => SbmGnn::fit(train, &deep_config(cfg, seed), 0).probabilities(),
        ModelKind::CondGenR => {
            CondGenR::fit(train, &deep_config(cfg, seed)).decode_probabilities(&mut rng)
        }
        ModelKind::CpGan(variant) => {
            let mut model = CpGan::new(cpgan_config(variant, train, cfg, seed));
            model.fit(train);
            model.reconstruct_probabilities(train)
        }
        other => panic!("{other:?} is not a reconstruction model"),
    }
}

/// Evaluates one (model, observed graph) reconstruction.
pub fn evaluate(kind: ModelKind, observed: &Graph, cfg: &EvalConfig) -> ReconResult {
    let (train, train_edges, test_edges) = edge_split(observed, cfg.seed);
    let probs = reconstruct_probs(kind, &train, cfg, cfg.seed);
    // Reconstruct a graph with the *full* edge count, as the paper does
    // ("employ the model to reconstruct the whole graph"). Degree budgets
    // from the training graph (scaled to the full edge count) apply to all
    // models uniformly.
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x55);
    let scale = observed.m() as f64 / train.m().max(1) as f64;
    let budgets: Vec<usize> = train
        .degrees()
        .iter()
        .map(|&d| ((d as f64) * scale).round() as usize)
        .collect();
    let nodes: Vec<NodeId> = (0..observed.n() as NodeId).collect();
    let mut asm = cpgan::assembly::GraphAssembler::new(observed.n(), observed.m())
        .with_degree_budgets(budgets);
    asm.add_subgraph(&nodes, &probs, observed.m(), &mut rng);
    asm.fill_residual(&mut rng);
    let recon = asm.build();
    let q = quality_diff(observed, &recon, 64);
    ReconResult {
        deg: q.deg,
        clus: q.clus,
        cpl: q.cpl,
        gini: q.gini,
        pwe: q.pwe,
        train_nll: CpGan::edge_nll(&probs, &train_edges),
        test_nll: CpGan::edge_nll(&probs, &test_edges),
    }
}

/// Runs the Table V experiment, seven columns per registry entry.
///
/// # Errors
///
/// An entry that fails to load.
pub fn run(
    cfg: &EvalConfig,
    entries: &[&DatasetEntry],
    opts: &LoadOptions,
) -> Result<Table, DatasetError> {
    let datasets = load_all(entries, cfg, opts)?;
    let mut table = Table::new(
        format!(
            "Table V: graph reconstruction, 80/20 split (scale 1/{})",
            cfg.scale
        ),
        &["Model"],
    );
    for ds in &datasets {
        for metric in ["Deg.", "Clus.", "CPL", "GINI", "PWE", "TrainNLL", "TestNLL"] {
            table.headers.push(format!("{} {metric}", ds.label));
        }
    }
    for kind in models() {
        let mut row = vec![kind.name().to_string()];
        for ds in &datasets {
            let r = evaluate(kind, &ds.graph, cfg);
            let vals = [r.deg, r.clus, r.cpl, r.gini, r.pwe, r.train_nll, r.test_nll];
            // The paper prints "CondGen" in Table V for CondGen-R.
            let paper_row = paper::table5_ref(&ds.label, kind.name());
            for (i, v) in vals.iter().enumerate() {
                match paper_row {
                    Some(p) => row.push(format!("{v:.3} ({:.3})", p[i])),
                    None => row.push(format!("{v:.3}")),
                }
            }
        }
        table.push_row(row);
    }
    table.push_note("NLL is the mean negative log-likelihood of train/test edges");
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_preserves_counts() {
        let edges: Vec<(u32, u32)> = (0..50u32).map(|i| (i, (i + 1) % 50)).collect();
        let g = Graph::from_edges(50, edges).unwrap();
        let (train, tr, te) = edge_split(&g, 1);
        assert_eq!(tr.len(), 40);
        assert_eq!(te.len(), 10);
        assert_eq!(train.m(), 40);
        assert_eq!(train.n(), 50);
    }

    #[test]
    fn cpgan_reconstruction_test_nll_reasonable() {
        let cfg = EvalConfig {
            scale: 64,
            deep_epochs: 30,
            cpgan_epochs: 20,
            ..EvalConfig::fast()
        };
        let entry = cpgan_datasets::resolve("ppi-synthetic").unwrap();
        let ppi =
            crate::pipelines::EvalDataset::load(entry, &cfg, &LoadOptions::default()).unwrap();
        let r = evaluate(ModelKind::CpGan(Variant::Full), &ppi.graph, &cfg);
        assert!(r.train_nll.is_finite() && r.train_nll > 0.0);
        assert!(r.test_nll.is_finite() && r.test_nll > 0.0);
        // Train edges should be at least as likely as held-out edges.
        assert!(
            r.train_nll <= r.test_nll + 0.5,
            "{} vs {}",
            r.train_nll,
            r.test_nll
        );
    }
}
