//! Pins the rendered Tables III (PPI), IV (Citeseer), V and VI (PPI) by
//! FNV-1a digests at a tiny configuration.
//!
//! Every pipeline is deterministic for a fixed `EvalConfig` (seeded
//! stand-ins, seeded fits, seed-ordered results), so each rendered table
//! is a constant: a change to dataset loading, model fitting, metric
//! computation or table formatting shows up here under a plain
//! `cargo test`. A deliberate change of output re-pins the constant and
//! says so in CHANGES.md.

// Test-support helpers sit outside `#[test]` fns, where the
// `allow-*-in-tests` carve-out does not reach.
#![allow(clippy::unwrap_used)]

use cpgan_datasets::{DatasetEntry, DatasetError, LoadOptions};
use cpgan_eval::pipelines::{ablation, community, quality, reconstruction, resolve_all};
use cpgan_eval::report::Table;
use cpgan_eval::EvalConfig;

/// FNV-1a over the rendered table's bytes.
fn digest(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn tiny_cfg() -> EvalConfig {
    EvalConfig {
        scale: 256,
        seeds: 1,
        deep_epochs: 3,
        cpgan_epochs: 3,
        ..EvalConfig::fast()
    }
}

type Pipeline = fn(&EvalConfig, &[&DatasetEntry], &LoadOptions) -> Result<Table, DatasetError>;

/// Renders `pipeline` on the named registry datasets.
fn render(pipeline: Pipeline, names: &[&str]) -> String {
    let entries = resolve_all(names).unwrap();
    pipeline(&tiny_cfg(), &entries, &LoadOptions::default())
        .unwrap()
        .render()
}

fn assert_pinned(name: &str, rendered: &str, pinned: u64) {
    let got = digest(rendered);
    assert_eq!(
        got, pinned,
        "{name} drifted to {got}; rendered:\n{rendered}"
    );
}

#[test]
fn table3_ppi_digest_is_pinned() {
    let rendered = render(community::run, &["ppi-synthetic"]);
    assert_pinned("Table III (PPI)", &rendered, 16_391_164_677_959_048_365);
}

#[test]
fn table4_citeseer_digest_is_pinned() {
    let rendered = render(quality::run, &["citeseer-synthetic"]);
    assert_pinned("Table IV (Citeseer)", &rendered, 15_100_503_649_997_354_609);
}

#[test]
fn table5_digest_is_pinned() {
    let rendered = render(reconstruction::run, &reconstruction::DATASETS);
    assert_pinned("Table V", &rendered, 15_233_938_358_552_639_839);
}

#[test]
fn table6_ppi_digest_is_pinned() {
    let rendered = render(ablation::run, &["ppi-synthetic"]);
    assert_pinned("Table VI (PPI)", &rendered, 15_877_179_698_860_529_996);
}
