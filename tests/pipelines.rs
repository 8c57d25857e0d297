//! Integration tests for the table/figure pipelines at smoke scale: every
//! experiment renderer must produce a complete, well-formed table.

// Test-support helpers sit outside `#[test]` fns, where the
// `allow-*-in-tests` carve-out does not reach; panicking is the right
// failure mode in test code.
#![allow(clippy::panic, clippy::unwrap_used, clippy::expect_used)]

use cpgan_datasets::LoadOptions;
use cpgan_eval::pipelines::{
    ablation, community, efficiency, quality, reconstruction, resolve_all,
};
use cpgan_eval::report::Table;
use cpgan_eval::EvalConfig;

fn smoke_cfg() -> EvalConfig {
    EvalConfig {
        scale: 64,
        seeds: 1,
        deep_epochs: 10,
        cpgan_epochs: 5,
        dense_node_cap: 400,
        ..EvalConfig::fast()
    }
}

type Pipeline = fn(
    &EvalConfig,
    &[&cpgan_datasets::DatasetEntry],
    &LoadOptions,
) -> Result<Table, cpgan_datasets::DatasetError>;

/// Runs `pipeline` on the named registry datasets.
fn run_on(pipeline: Pipeline, names: &[&str]) -> Table {
    let entries = resolve_all(names).unwrap();
    pipeline(&smoke_cfg(), &entries, &LoadOptions::default()).unwrap()
}

#[test]
fn table3_renders_all_models_and_datasets() {
    let table = run_on(community::run, &["citeseer-synthetic", "ppi-synthetic"]);
    // 9 models, 2 datasets x 2 metrics + model column.
    assert_eq!(table.rows.len(), 9);
    assert_eq!(table.headers.len(), 5);
    let rendered = table.render();
    assert!(rendered.contains("CPGAN"));
    assert!(rendered.contains("BTER"));
    assert!(rendered.contains("paper"));
}

#[test]
fn table3_facebook_column_has_oom_rows() {
    let table = run_on(community::run, &["facebook-synthetic"]);
    let vgae_row = table
        .rows
        .iter()
        .find(|r| r[0] == "VGAE")
        .expect("VGAE row");
    assert!(vgae_row[1].contains("OOM"), "VGAE cell: {}", vgae_row[1]);
    assert!(vgae_row[1].contains("paper OOM"));
    let cpgan_row = table
        .rows
        .iter()
        .find(|r| r[0] == "CPGAN")
        .expect("CPGAN row");
    assert!(
        !cpgan_row[1].contains("OOM"),
        "CPGAN cell: {}",
        cpgan_row[1]
    );
}

#[test]
fn table4_renders_citeseer() {
    let table = run_on(quality::run, &["citeseer-synthetic"]);
    assert_eq!(table.rows.len(), 13);
    assert_eq!(table.headers.len(), 6);
    for row in &table.rows {
        assert_eq!(row.len(), 6, "row {row:?}");
    }
}

#[test]
fn table5_renders_both_datasets() {
    let table = run_on(reconstruction::run, &reconstruction::DATASETS);
    assert_eq!(table.rows.len(), 5);
    assert_eq!(table.headers.len(), 15);
    let rendered = table.render();
    assert!(rendered.contains("TrainNLL"));
}

#[test]
fn table6_renders_variants_in_order() {
    let table = run_on(ablation::run, &["ppi-synthetic"]);
    let names: Vec<&str> = table.rows.iter().map(|r| r[0].as_str()).collect();
    assert_eq!(names, vec!["CPGAN-C", "CPGAN-noV", "CPGAN-noH", "CPGAN"]);
}

#[test]
fn efficiency_tables_render_at_small_sizes() {
    let cfg = smoke_cfg();
    let tables = efficiency::run(&cfg, &[100]);
    assert_eq!(tables.generation.rows.len(), 15);
    assert_eq!(tables.training.rows.len(), 15);
    assert_eq!(tables.memory.rows.len(), 15);
    // At n = 100 nothing is OOM.
    for row in &tables.generation.rows {
        assert!(!row[1].contains("OOM"), "row {row:?}");
    }
}
