//! Regenerates paper Figure 5 (parameter sensitivity).
//!
//! Usage: `cargo run --release -p bench --bin fig5 [--fast] [--scale S]`

use cpgan_datasets::LoadOptions;
use cpgan_eval::pipelines::{resolve_all, sensitivity};
use cpgan_eval::EvalConfig;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = EvalConfig::from_args(&args).unwrap_or_else(|e| bench::usage_error(&e));
    let entries =
        resolve_all(&sensitivity::DATASETS).unwrap_or_else(|e| bench::die(&e.to_string()));
    for entry in entries {
        eprintln!("running Figure 5 sweeps on {}...", entry.name);
        let table = sensitivity::run(&cfg, entry, &LoadOptions::default())
            .unwrap_or_else(|e| bench::die(&e.to_string()));
        println!("{}", table.render());
    }
    cpgan_obs::finish(Some("results/obs.fig5.jsonl"));
}
