//! Table III: community-structure preservation (NMI / ARI).

use crate::pipelines::{community_scores, load_all, note_file_backed, EvalDataset};
use crate::registry::{fit_model, ModelKind};
use crate::report::{mean_std, Table};
use crate::{budget, paper, EvalConfig};
use cpgan_datasets::{DatasetEntry, DatasetError, LoadOptions};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One measured cell of Table III.
#[derive(Debug, Clone)]
pub enum Cell {
    /// Mean ± std over seeds, `(nmi_values, ari_values)` in percent.
    Measured(Vec<f64>, Vec<f64>),
    /// Exceeds the paper-scale 24 GB budget.
    Oom,
    /// Within budget at paper scale but too large for the local CPU cap.
    SkippedCpu,
}

/// Table III's default columns: the six Table II stand-ins.
pub const DATASETS: [&str; 6] = [
    "citeseer-synthetic",
    "pubmed-synthetic",
    "ppi-synthetic",
    "3d-point-cloud-synthetic",
    "facebook-synthetic",
    "google-synthetic",
];

/// Runs the Table III experiment, one column pair per registry entry.
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
            "Table III: community preservation, NMI/ARI x100 (scale 1/{}, {} seed(s))",
            cfg.scale, cfg.seeds
        ),
        &["Model"],
    );
    for ds in &datasets {
        table.headers.push(format!("{} NMI", ds.label));
        table.headers.push(format!("{} ARI", ds.label));
    }

    let models = ModelKind::table3();
    for kind in &models {
        let mut row = vec![kind.name().to_string()];
        for ds in &datasets {
            let cell = evaluate_cell(*kind, ds, cfg);
            let paper_ref = paper::table3_ref(&ds.label, kind.name());
            let in_paper = paper::TABLE3.iter().any(|r| r.0 == ds.label);
            match cell {
                Cell::Oom | Cell::SkippedCpu => {
                    let label = if matches!(cell, Cell::Oom) {
                        "OOM"
                    } else {
                        "skip"
                    };
                    let agree = if in_paper && paper_ref.is_none() {
                        " (paper OOM)"
                    } else {
                        ""
                    };
                    row.push(format!("{label}{agree}"));
                    row.push(format!("{label}{agree}"));
                }
                Cell::Measured(nmis, aris) => {
                    let fmt = |vals: &[f64], p: Option<f64>| match p {
                        Some(p) => format!("{} (paper {p:.1})", mean_std(vals)),
                        None => mean_std(vals),
                    };
                    row.push(fmt(&nmis, paper_ref.map(|r| r.0)));
                    row.push(fmt(&aris, paper_ref.map(|r| r.1)));
                }
            }
        }
        table.push_row(row);
    }
    if datasets.iter().any(|ds| !ds.file_backed) {
        table.push_note(
            "OOM = the paper-scale run exceeds the simulated 24 GB GPU budget \
             (see cpgan_eval::budget); measured values are on the scaled stand-ins.",
        );
    }
    note_file_backed(&mut table, &datasets);
    Ok(table)
}

/// Evaluates one (model, dataset) cell.
pub fn evaluate_cell(kind: ModelKind, ds: &EvalDataset, cfg: &EvalConfig) -> Cell {
    let _span = cpgan_obs::span("eval.community.cell");
    cpgan_obs::counter_add("eval.community.cells", 1);
    if budget::would_oom(kind, ds.paper_n) {
        return Cell::Oom;
    }
    if kind.is_dense() && ds.graph.n() > cfg.dense_node_cap {
        return Cell::SkippedCpu;
    }
    let mut nmis = Vec::with_capacity(cfg.seeds);
    let mut aris = Vec::with_capacity(cfg.seeds);
    for s in 0..cfg.seeds {
        let seed = cfg.seed.wrapping_add(s as u64 * 7919);
        let model = fit_model(kind, &ds.graph, cfg, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9999);
        let generated = model.generate(&mut rng);
        let (nmi, ari) = community_scores(&ds.graph, &generated, cfg.seed);
        nmis.push(100.0 * nmi);
        aris.push(100.0 * ari);
    }
    Cell::Measured(nmis, aris)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpgan_graph::Graph;
    use std::sync::Arc;

    /// `name`'s paper-scale size on a stand-in graph of two nodes: enough
    /// for the OOM budget, which is decided before any fit.
    fn paper_sized(name: &str) -> EvalDataset {
        let entry = cpgan_datasets::resolve(name).unwrap();
        EvalDataset {
            label: entry.title.clone(),
            paper_n: entry.reference.n,
            file_backed: false,
            graph: Arc::new(Graph::from_edges(2, [(0, 1)]).unwrap()),
        }
    }

    #[test]
    fn oom_cells_match_paper() {
        let cfg = EvalConfig::fast();
        let pubmed = paper_sized("pubmed-synthetic");
        assert!(matches!(
            evaluate_cell(ModelKind::Mmsb, &pubmed, &cfg),
            Cell::Oom
        ));
        assert!(matches!(
            evaluate_cell(ModelKind::NetGan, &pubmed, &cfg),
            Cell::Oom
        ));
        let google = paper_sized("google-synthetic");
        assert!(matches!(
            evaluate_cell(ModelKind::Vgae, &google, &cfg),
            Cell::Oom
        ));
    }

    #[test]
    fn dense_models_skip_above_the_cap() {
        let cfg = EvalConfig {
            dense_node_cap: 8,
            ..EvalConfig::fast()
        };
        let mut ds = paper_sized("citeseer-fixture");
        ds.graph = Arc::new(Graph::from_edges(30, (0..29u32).map(|v| (v, v + 1))).unwrap());
        assert!(matches!(
            evaluate_cell(ModelKind::Vgae, &ds, &cfg),
            Cell::SkippedCpu
        ));
    }

    #[test]
    fn small_dataset_produces_measurement() {
        let cfg = EvalConfig {
            scale: 64,
            seeds: 1,
            deep_epochs: 5,
            cpgan_epochs: 3,
            ..EvalConfig::fast()
        };
        let entry = cpgan_datasets::resolve("ppi-synthetic").unwrap();
        let ppi = EvalDataset::load(entry, &cfg, &LoadOptions::default()).unwrap();
        assert_eq!(ppi.label, "PPI");
        match evaluate_cell(ModelKind::Sbm, &ppi, &cfg) {
            Cell::Measured(nmis, aris) => {
                assert_eq!(nmis.len(), 1);
                assert!((0.0..=100.0).contains(&nmis[0]));
                assert!((-100.0..=100.0).contains(&aris[0]));
            }
            other => panic!("expected measurement, got {other:?}"),
        }
    }
}
