//! Regenerates paper Table V (graph reconstruction, 80/20 split).
//!
//! Usage: `cargo run --release -p bench --bin table5 [--fast] [--scale S]`

use cpgan_datasets::LoadOptions;
use cpgan_eval::pipelines::{reconstruction, resolve_all};
use cpgan_eval::EvalConfig;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = EvalConfig::from_args(&args).unwrap_or_else(|e| bench::usage_error(&e));
    eprintln!("running Table V at scale 1/{}...", cfg.scale);
    let table = resolve_all(&reconstruction::DATASETS)
        .and_then(|entries| reconstruction::run(&cfg, &entries, &LoadOptions::default()))
        .unwrap_or_else(|e| bench::die(&e.to_string()));
    println!("{}", table.render());
    cpgan_eval::report::maybe_write_json(&args, &table).unwrap_or_else(|e| bench::die(&e));
    cpgan_obs::finish(Some("results/obs.table5.jsonl"));
}
