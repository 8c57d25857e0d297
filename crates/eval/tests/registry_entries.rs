//! Tables III and IV on registry entries of each source: the vendored
//! `citeseer-fixture` surrogate (ingested offline from a temp cache, at
//! full scale) and the `ppi-synthetic` stand-in.

// Integration-test helpers sit outside `#[test]` fns, so the
// allow-panic-in-tests carve-out does not reach them.
#![allow(clippy::panic, clippy::unwrap_used, clippy::expect_used)]

use cpgan_datasets::{resolve, LoadOptions};
use cpgan_eval::pipelines::{community, quality};
use cpgan_eval::report::Table;
use cpgan_eval::EvalConfig;
use std::path::PathBuf;

/// A unique scratch cache root, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("cpgan-eval-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }

    fn offline(&self) -> LoadOptions {
        LoadOptions {
            data_dir: Some(self.0.clone()),
            offline: true,
            ..LoadOptions::default()
        }
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
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

fn row<'t>(table: &'t Table, model: &str) -> &'t [String] {
    table
        .rows
        .iter()
        .find(|r| r[0] == model)
        .unwrap_or_else(|| panic!("no {model} row"))
}

/// The surrogate column is labelled with the entry title, carries no paper
/// reference, and skips the dense models: the fixture is ingested at its
/// full 3327 nodes, above the fast configuration's 600-node cap.
fn assert_surrogate_table(table: &Table, dense: &str, width: usize) {
    let title = &resolve("citeseer-fixture").unwrap().title;
    assert!(title.contains("synthetic surrogate"));
    assert!(
        table.headers[1].starts_with(title.as_str()),
        "{:?}",
        table.headers
    );
    assert_eq!(table.headers.len(), 1 + width);
    let rendered = table.render();
    assert!(!rendered.contains("(paper"), "{rendered}");
    assert!(!rendered.contains("paper's"), "{rendered}");
    assert!(row(table, dense)[1..].iter().all(|c| c == "skip"));
    let cpgan = row(table, "CPGAN");
    assert!(
        cpgan[1..].iter().all(|c| c != "skip" && c != "OOM"),
        "{cpgan:?}"
    );
}

#[test]
fn tables_3_and_4_evaluate_the_citeseer_fixture() {
    let scratch = Scratch::new("fixture");
    let entry = resolve("citeseer-fixture").unwrap();
    let cfg = tiny_cfg();
    let t3 = community::run(&cfg, &[entry], &scratch.offline()).unwrap();
    assert_surrogate_table(&t3, "VGAE", 2);
    let t4 = quality::run(&cfg, &[entry], &scratch.offline()).unwrap();
    assert_surrogate_table(&t4, "NetGAN", 5);
}

#[test]
fn remote_entries_fail_offline() {
    let scratch = Scratch::new("remote");
    let entry = resolve("citeseer").unwrap();
    assert!(community::run(&tiny_cfg(), &[entry], &scratch.offline()).is_err());
}

#[test]
fn ppi_synthetic_still_evaluates_with_paper_columns() {
    let entry = resolve("ppi-synthetic").unwrap();
    let table = community::run(&tiny_cfg(), &[entry], &LoadOptions::default()).unwrap();
    assert_eq!(table.headers, ["Model", "PPI NMI", "PPI ARI"]);
    assert!(row(&table, "CPGAN")[1].contains("(paper 57.0)"));
}
