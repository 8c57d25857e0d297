//! Regenerates paper Figure 6 (hyper-parameter robustness).
//!
//! Usage: `cargo run --release -p bench --bin fig6 [--fast] [--scale S]`

use cpgan_datasets::LoadOptions;
use cpgan_eval::{pipelines::robustness, EvalConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = EvalConfig::from_args(&args).unwrap_or_else(|e| bench::usage_error(&e));
    eprintln!("running Figure 6 grid on {}...", robustness::DATASET);
    let table = cpgan_datasets::resolve(robustness::DATASET)
        .and_then(|entry| robustness::run(&cfg, entry, &LoadOptions::default()))
        .unwrap_or_else(|e| bench::die(&e.to_string()));
    println!("{}", table.render());
    cpgan_eval::report::maybe_write_json(&args, &table).unwrap_or_else(|e| bench::die(&e));
    cpgan_obs::finish(Some("results/obs.fig6.jsonl"));
}
