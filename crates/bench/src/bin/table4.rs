//! Regenerates paper Table IV (generative distribution distance).
//!
//! Usage: `cargo run --release -p bench --bin table4 -- [DATASET...]
//!     [--offline] [--data-dir DIR] [--fast] [--scale S] [--json FILE]`
//!
//! `DATASET` is a registry name (`cpgan data list`); the default is the
//! Citeseer, 3D Point Cloud and Google stand-ins.

use cpgan_eval::{datasets_from_args, pipelines::quality, EvalConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = EvalConfig::from_args(&args).unwrap_or_else(|e| bench::usage_error(&e));
    let (entries, opts) =
        datasets_from_args(&args, &quality::DATASETS).unwrap_or_else(|e| bench::usage_error(&e));
    eprintln!("running Table IV at scale 1/{}...", cfg.scale);
    let table = quality::run(&cfg, &entries, &opts).unwrap_or_else(|e| bench::die(&e.to_string()));
    println!("{}", table.render());
    cpgan_eval::report::maybe_write_json(&args, &table).unwrap_or_else(|e| bench::die(&e));
    cpgan_obs::finish(Some("results/obs.table4.jsonl"));
}
