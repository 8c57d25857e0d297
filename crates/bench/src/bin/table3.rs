//! Regenerates paper Table III (community preservation, NMI/ARI).
//!
//! Usage: `cargo run --release -p bench --bin table3 -- [DATASET...]
//!     [--offline] [--data-dir DIR] [--fast] [--scale S] [--seeds K] [--json FILE]`
//!
//! `DATASET` is a registry name (`cpgan data list`); the default is the
//! six Table II stand-ins.

use cpgan_eval::{datasets_from_args, pipelines::community, EvalConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = EvalConfig::from_args(&args).unwrap_or_else(|e| bench::usage_error(&e));
    let (entries, opts) =
        datasets_from_args(&args, &community::DATASETS).unwrap_or_else(|e| bench::usage_error(&e));
    eprintln!(
        "running Table III at scale 1/{} with {} seed(s)...",
        cfg.scale, cfg.seeds
    );
    let table =
        community::run(&cfg, &entries, &opts).unwrap_or_else(|e| bench::die(&e.to_string()));
    println!("{}", table.render());
    cpgan_eval::report::maybe_write_json(&args, &table).unwrap_or_else(|e| bench::die(&e));
    cpgan_obs::finish(Some("results/obs.table3.jsonl"));
}
