//! One module per paper experiment.

pub mod ablation;
pub mod community;
pub mod efficiency;
pub mod quality;
pub mod reconstruction;
pub mod robustness;
pub mod sensitivity;

use crate::report::Table;
use crate::EvalConfig;
use cpgan_community::{louvain, metrics};
use cpgan_datasets::{DatasetEntry, DatasetError, LoadOptions, Source};
use cpgan_graph::{mmd, stats, Graph};
use std::sync::Arc;

/// A registry dataset loaded once for a pipeline run.
#[derive(Debug, Clone)]
pub struct EvalDataset {
    /// Column label: a stand-in's Table II name, a file-backed entry's
    /// title. Paper reference values attach only to labels that name a
    /// paper dataset, so a surrogate never gets paper columns.
    pub label: String,
    /// Node count the paper-scale memory budget is judged at
    /// (`entry.reference.n`).
    pub paper_n: usize,
    /// Whether the graph was ingested from files, at full scale.
    pub file_backed: bool,
    /// The observed graph, shared with the pool jobs that fit against it.
    pub graph: Arc<Graph>,
}

impl EvalDataset {
    /// Loads `entry` through [`cpgan_datasets::load`]: a stand-in is
    /// synthesized at `cfg.scale`/`cfg.seed`, a file-backed entry is
    /// fetched and ingested under `opts`' cache and offline settings.
    pub fn load(
        entry: &DatasetEntry,
        cfg: &EvalConfig,
        opts: &LoadOptions,
    ) -> Result<Self, DatasetError> {
        let _span = cpgan_obs::span("eval.load");
        let opts = LoadOptions {
            scale: cfg.scale,
            seed: cfg.seed,
            ..opts.clone()
        };
        let ds = cpgan_datasets::load(entry, &opts)?;
        let label = match &entry.source {
            Source::Synthetic { spec } => spec.name.to_string(),
            Source::Files { .. } => ds.title,
        };
        Ok(EvalDataset {
            label,
            paper_n: entry.reference.n,
            file_backed: entry.is_file_backed(),
            graph: Arc::new(ds.graph),
        })
    }
}

/// Loads every entry once, in order.
pub(crate) fn load_all(
    entries: &[&DatasetEntry],
    cfg: &EvalConfig,
    opts: &LoadOptions,
) -> Result<Vec<EvalDataset>, DatasetError> {
    entries
        .iter()
        .map(|e| EvalDataset::load(e, cfg, opts))
        .collect()
}

/// When any column is file-backed, notes that those columns are ingested
/// at full scale rather than scaled down like the stand-ins.
fn note_file_backed(table: &mut Table, datasets: &[EvalDataset]) {
    if datasets.iter().any(|ds| ds.file_backed) {
        table.push_note(
            "file-backed columns are ingested and evaluated at full scale; \
             OOM = the 24 GB budget at the entry's reference size; \
             skip = local CPU dense-node cap.",
        );
    }
}

/// Resolves registry names, e.g. a pipeline's default `DATASETS`.
pub fn resolve_all(names: &[&str]) -> Result<Vec<&'static DatasetEntry>, DatasetError> {
    names.iter().map(|n| cpgan_datasets::resolve(n)).collect()
}

/// Community-preservation scores of a generated graph against the observed
/// graph, following §IV-A: Louvain partitions of both graphs compared under
/// the node identity mapping. Returns `(NMI, ARI)`.
pub fn community_scores(observed: &Graph, generated: &Graph, seed: u64) -> (f64, f64) {
    let y = louvain::louvain(observed, seed);
    let x = louvain::louvain(generated, seed);
    (
        metrics::nmi(x.labels(), y.labels()),
        metrics::adjusted_rand_index(x.labels(), y.labels()),
    )
}

/// The Table IV/V/VI statistic differences between observed and generated
/// graphs.
#[derive(Debug, Clone, Copy)]
pub struct QualityDiff {
    /// MMD of degree distributions ("Deg.").
    pub deg: f64,
    /// MMD of clustering-coefficient distributions ("Clus.").
    pub clus: f64,
    /// |CPL difference|.
    pub cpl: f64,
    /// |Gini difference|.
    pub gini: f64,
    /// |power-law-exponent difference|.
    pub pwe: f64,
}

/// Computes all five quality differences; `cpl_sources` caps the BFS seeds
/// for the path-length estimate on large graphs.
pub fn quality_diff(observed: &Graph, generated: &Graph, cpl_sources: usize) -> QualityDiff {
    let so = stats::GraphStats::compute(observed, cpl_sources);
    let sg = stats::GraphStats::compute(generated, cpl_sources);
    QualityDiff {
        deg: mmd::degree_mmd(observed, generated),
        clus: mmd::clustering_mmd(observed, generated),
        cpl: (so.cpl - sg.cpl).abs(),
        gini: (so.gini - sg.gini).abs(),
        pwe: (so.pwe - sg.pwe).abs(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_graphs_score_perfectly() {
        let g =
            Graph::from_edges(8, [(0, 1), (1, 2), (2, 0), (4, 5), (5, 6), (6, 4), (0, 4)]).unwrap();
        let (nmi, ari) = community_scores(&g, &g, 0);
        assert!((nmi - 1.0).abs() < 1e-9);
        assert!((ari - 1.0).abs() < 1e-9);
        let q = quality_diff(&g, &g, usize::MAX);
        assert!(q.deg < 1e-9 && q.clus < 1e-9 && q.cpl < 1e-9);
    }

    #[test]
    fn different_graphs_score_worse() {
        let g =
            Graph::from_edges(8, [(0, 1), (1, 2), (2, 0), (4, 5), (5, 6), (6, 4), (0, 4)]).unwrap();
        let star = Graph::from_edges(8, (1..8u32).map(|v| (0, v))).unwrap();
        let (nmi, _) = community_scores(&g, &star, 0);
        assert!(nmi < 0.99);
        let q = quality_diff(&g, &star, usize::MAX);
        assert!(q.deg > 0.0);
    }
}
