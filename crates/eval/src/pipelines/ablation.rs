//! Table VI: ablation of CPGAN's sub-modules.

use crate::pipelines::{community_scores, load_all, quality_diff};
use crate::registry::{fit_model, ModelKind};
use crate::report::Table;
use crate::{paper, EvalConfig};
use cpgan::Variant;
use cpgan_datasets::{DatasetEntry, DatasetError, LoadOptions};
use cpgan_graph::Graph;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Table VI's default datasets.
pub const DATASETS: [&str; 3] = ["pubmed-synthetic", "ppi-synthetic", "facebook-synthetic"];

/// The ablation variants in paper row order.
pub fn variants() -> Vec<Variant> {
    vec![
        Variant::ConcatDecoder,
        Variant::NoVariational,
        Variant::NoHierarchy,
        Variant::Full,
    ]
}

/// One ablation measurement: `(NMI*100, ARI*100, Deg, Clus)`.
#[derive(Debug, Clone, Copy)]
pub struct AblationResult {
    /// NMI x100.
    pub nmi: f64,
    /// ARI x100.
    pub ari: f64,
    /// Degree MMD.
    pub deg: f64,
    /// Clustering MMD.
    pub clus: f64,
}

/// Evaluates one variant on one observed graph, averaged over
/// `cfg.seeds` runs.
pub fn evaluate(variant: Variant, observed: &Graph, cfg: &EvalConfig) -> AblationResult {
    let mut acc = AblationResult {
        nmi: 0.0,
        ari: 0.0,
        deg: 0.0,
        clus: 0.0,
    };
    let runs = cfg.seeds.max(1);
    for s in 0..runs {
        let seed = cfg.seed.wrapping_add(s as u64 * 7919);
        let model = fit_model(ModelKind::CpGan(variant), observed, cfg, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x6666);
        let generated = model.generate(&mut rng);
        let (nmi, ari) = community_scores(observed, &generated, cfg.seed);
        let q = quality_diff(observed, &generated, 64);
        acc.nmi += 100.0 * nmi;
        acc.ari += 100.0 * ari;
        acc.deg += q.deg;
        acc.clus += q.clus;
    }
    let r = runs as f64;
    AblationResult {
        nmi: acc.nmi / r,
        ari: acc.ari / r,
        deg: acc.deg / r,
        clus: acc.clus / r,
    }
}

/// Runs the Table VI experiment, four columns per registry entry.
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
        format!("Table VI: CPGAN ablation (scale 1/{})", cfg.scale),
        &["Variant"],
    );
    for ds in &datasets {
        for metric in ["NMI", "ARI", "Deg.", "Clus."] {
            table.headers.push(format!("{} {metric}", ds.label));
        }
    }
    for variant in variants() {
        let mut row = vec![variant.label().to_string()];
        for ds in &datasets {
            let r = evaluate(variant, &ds.graph, cfg);
            let paper_row = paper::table6_ref(&ds.label, variant.label());
            let vals = [r.nmi, r.ari, r.deg, r.clus];
            for (i, v) in vals.iter().enumerate() {
                match paper_row {
                    Some(p) => row.push(format!("{v:.3} ({:.3})", p[i])),
                    None => row.push(format!("{v:.3}")),
                }
            }
        }
        table.push_row(row);
    }
    table.push_note("expected ordering: CPGAN > CPGAN-C > CPGAN-noV > CPGAN-noH on NMI/ARI");
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_variants_run_on_small_ppi() {
        let cfg = EvalConfig {
            scale: 64,
            cpgan_epochs: 8,
            ..EvalConfig::fast()
        };
        let entry = cpgan_datasets::resolve("ppi-synthetic").unwrap();
        let ppi =
            crate::pipelines::EvalDataset::load(entry, &cfg, &LoadOptions::default()).unwrap();
        for v in variants() {
            let r = evaluate(v, &ppi.graph, &cfg);
            assert!(r.nmi.is_finite());
            assert!(r.deg.is_finite() && r.deg >= 0.0);
        }
    }
}
