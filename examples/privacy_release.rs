//! Privacy-preserving citation-network release: compare every generator
//! family on the Citeseer stand-in and pick the best trade-off.
//!
//! This mirrors the paper's headline comparison (Tables III/IV condensed to
//! one dataset): traditional models are fast but flatten communities;
//! one-shot VAEs keep communities but not always degrees; CPGAN balances
//! both.
//!
//! Run with `cargo run --release --example privacy_release`.

// Examples are demo entry points: aborting with a clear message on a
// broken invariant is the right behavior here, so the workspace
// panic-policy lints are relaxed (see DESIGN.md).
#![allow(clippy::expect_used, clippy::unwrap_used, clippy::panic)]

use cpgan_datasets::LoadOptions;
use cpgan_eval::pipelines::{community_scores, quality_diff};
use cpgan_eval::registry::{fit_model, ModelKind};
use cpgan_eval::EvalConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let cfg = EvalConfig {
        scale: 16,
        seeds: 1,
        deep_epochs: 120,
        cpgan_epochs: 60,
        ..EvalConfig::default()
    };
    let entry = cpgan_datasets::resolve("citeseer-synthetic").expect("known dataset");
    let opts = LoadOptions {
        scale: cfg.scale,
        seed: cfg.seed,
        ..LoadOptions::default()
    };
    let ds = cpgan_datasets::load(entry, &opts).expect("stand-ins load offline");
    println!(
        "Citeseer stand-in at 1/{} scale: {} nodes, {} edges",
        cfg.scale,
        ds.graph.n(),
        ds.graph.m()
    );
    println!(
        "{:<12} {:>8} {:>8} {:>10} {:>10}",
        "model", "NMI", "ARI", "Deg.MMD", "Clus.MMD"
    );
    for kind in [
        ModelKind::Er,
        ModelKind::Bter,
        ModelKind::Sbm,
        ModelKind::Vgae,
        ModelKind::CpGan(cpgan::Variant::Full),
    ] {
        let model = fit_model(kind, &ds.graph, &cfg, cfg.seed);
        let mut rng = StdRng::seed_from_u64(5);
        let generated = model.generate(&mut rng);
        let (nmi, ari) = community_scores(&ds.graph, &generated, 0);
        let q = quality_diff(&ds.graph, &generated, 64);
        println!(
            "{:<12} {:>8.3} {:>8.3} {:>10.4} {:>10.4}",
            kind.name(),
            nmi,
            ari,
            q.deg,
            q.clus
        );
    }
    println!("\nhigher NMI/ARI = communities preserved; lower MMD = degrees/clustering preserved");
}
