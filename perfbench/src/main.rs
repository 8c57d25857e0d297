//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints its metrics, one per line, then the run
//! metadata, and as the last line one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}`.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` the per-layer
//! metrics and the tracing overhead. Exits 2 on bad arguments and 1 when
//! the workload cannot run.

use bench::BenchMeta;
use perfbench::{metrics, run, Ctx, Sizes, Workload};
use serde::Value;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    let workload = Workload::parse(value("--workload")?)
        .ok_or_else(|| format!("--workload must be one of {}", names.join(", ")))?;
    let seed = value("--seed")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = value("--seconds")?
        .parse::<f64>()
        .ok()
        .filter(|s| s.is_finite() && *s > 0.0)
        .ok_or("--seconds must be a positive number")?;
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        sizes: Sizes::full(),
        work_dir: perfbench::trace::out_dir().join(format!("work-{}", std::process::id())),
    };
    let mut result = match run(args.workload, &ctx, args.trace) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload.name());
            std::process::exit(1);
        }
    };
    let problems = metrics::conform(args.trace, &mut result.metrics);
    for p in &problems {
        eprintln!("perfbench: metric problem: {p}");
    }
    for reason in result.outcome.reasons() {
        eprintln!("perfbench: failed: {reason}");
    }

    let meta = BenchMeta::capture(cpgan_parallel::current_threads());
    let meta_json = format!(
        "{{\n{}  \"workload\": \"{}\",\n  \"workload_seed\": {},\n  \"seconds\": {},\n  \"trace\": {}\n}}",
        meta.json_fields("  "),
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace
    );
    for note in &result.notes {
        println!("# {note}");
    }
    for m in &result.metrics {
        println!("{:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "attempted {} failed {}",
        result.outcome.attempted(),
        result.outcome.failed()
    );
    println!("meta {}", meta_json.replace('\n', " "));

    let metrics = result
        .metrics
        .iter()
        .map(|m| {
            let entry = Value::Object(vec![
                ("value".to_string(), Value::Float(m.value)),
                ("unit".to_string(), Value::Str(m.unit.to_string())),
            ]);
            (m.name.clone(), entry)
        })
        .collect();
    let line = Value::Object(vec![
        (
            "correct".to_string(),
            Value::Bool(result.outcome.failed() == 0 && problems.is_empty()),
        ),
        (
            "attempted".to_string(),
            Value::UInt(result.outcome.attempted()),
        ),
        ("failed".to_string(), Value::UInt(result.outcome.failed())),
        ("metrics".to_string(), Value::Object(metrics)),
    ]);
    match serde_json::to_string(&line) {
        Ok(text) => println!("{text}"),
        Err(e) => {
            eprintln!("perfbench: cannot render the result: {e}");
            std::process::exit(1);
        }
    }
}
