//! `cpgan data` — the dataset registry subcommand.
//!
//! ```text
//! cpgan data list
//! cpgan data fetch  <name> [--data-dir DIR] [--offline]
//! cpgan data verify <name> [--data-dir DIR] [--offline] [--report PATH]
//! cpgan data stats  <name> [--data-dir DIR] [--offline]
//! cpgan data ingest <name> --output <edge-list> [--data-dir DIR] [--offline]
//! ```
//!
//! Unlike the other subcommands this one takes a positional action and
//! dataset name plus bare `--offline`, so it parses its own tokens
//! instead of going through `args::Args`. `--threads N` and
//! `--obs-out PATH` work here like everywhere else.

use cpgan_datasets::{fetch, load, registry, verify, Cache, FetchAction, LoadOptions};
use cpgan_graph::io;
use std::path::PathBuf;

/// Parsed `cpgan data` invocation.
struct DataArgs {
    action: String,
    names: Vec<String>,
    data_dir: Option<PathBuf>,
    offline: bool,
    report: Option<String>,
    output: Option<String>,
    scale: usize,
    seed: u64,
    threads: Option<usize>,
    obs_out: Option<String>,
}

fn parse(tokens: &[String]) -> Result<DataArgs, String> {
    let mut it = tokens.iter();
    let action = it.next().ok_or("data: missing action")?.clone();
    let mut args = DataArgs {
        action,
        names: Vec::new(),
        data_dir: None,
        offline: false,
        report: None,
        output: None,
        scale: 1,
        seed: 1,
        threads: None,
        obs_out: None,
    };
    while let Some(tok) = it.next() {
        let mut value = |key: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("data: flag --{key} needs a value"))
        };
        match tok.as_str() {
            "--offline" => args.offline = true,
            "--data-dir" => args.data_dir = Some(PathBuf::from(value("data-dir")?)),
            "--report" => args.report = Some(value("report")?),
            "--output" => args.output = Some(value("output")?),
            "--scale" => {
                let v = value("scale")?;
                args.scale = v
                    .parse()
                    .map_err(|e| format!("data: --scale: invalid number '{v}' ({e})"))?;
            }
            "--seed" => {
                let v = value("seed")?;
                args.seed = v
                    .parse()
                    .map_err(|e| format!("data: --seed: invalid number '{v}' ({e})"))?;
            }
            "--threads" => {
                let v = value("threads")?;
                args.threads = Some(
                    v.parse()
                        .map_err(|e| format!("data: --threads: invalid number '{v}' ({e})"))?,
                );
            }
            "--obs-out" => args.obs_out = Some(value("obs-out")?),
            flag if flag.starts_with("--") => {
                return Err(format!("data: unknown flag '{flag}'"));
            }
            name => args.names.push(name.to_string()),
        }
    }
    Ok(args)
}

fn options(args: &DataArgs) -> LoadOptions {
    LoadOptions {
        data_dir: args.data_dir.clone(),
        offline: args.offline,
        scale: args.scale,
        seed: args.seed,
        ..LoadOptions::default()
    }
}

/// Entry point, dispatched from `main` before the `--key value` parser.
pub fn run(tokens: &[String]) -> Result<(), String> {
    let args = parse(tokens)?;
    if args.obs_out.is_some() {
        cpgan_obs::set_enabled(true);
    }
    let dispatch = || match args.action.as_str() {
        "list" => list(&args),
        "fetch" => do_fetch(&args),
        "verify" => do_verify(&args),
        "stats" => do_stats(&args),
        "ingest" => do_ingest(&args),
        other => Err(format!("data: unknown action '{other}'")),
    };
    let result = match args.threads {
        Some(n) => cpgan_parallel::with_thread_count(n, dispatch),
        None => dispatch(),
    };
    cpgan_obs::finish(args.obs_out.as_deref());
    result
}

fn require_names(args: &DataArgs) -> Result<&[String], String> {
    if args.names.is_empty() {
        return Err(format!("data {}: missing dataset name", args.action));
    }
    Ok(&args.names)
}

fn list(args: &DataArgs) -> Result<(), String> {
    let cache = Cache::resolve(args.data_dir.as_deref());
    let cached = cache.scan().map_err(|e| e.to_string())?;
    println!(
        "{:<26} {:>8} {:>9}  {:<10} cached",
        "name", "nodes", "edges", "data"
    );
    for entry in registry::registry() {
        // `data` is the provenance class: real upstream files, an
        // in-repo surrogate fixture, or a load-time synthesizer.
        let cached = if !entry.is_file_backed() {
            "-"
        } else if cached.iter().any(|c| c == &entry.name) {
            "yes"
        } else {
            "no"
        };
        println!(
            "{:<26} {:>8} {:>9}  {:<10} {}",
            entry.name,
            entry.reference.n,
            entry.reference.m,
            entry.data.label(),
            cached
        );
    }
    Ok(())
}

fn do_fetch(args: &DataArgs) -> Result<(), String> {
    let cache = Cache::resolve(args.data_dir.as_deref());
    for name in require_names(args)? {
        let entry = registry::resolve(name).map_err(|e| e.to_string())?;
        let outcomes = fetch(entry, &cache, args.offline).map_err(|e| e.to_string())?;
        if outcomes.is_empty() {
            println!("{name}: synthesized at load time (nothing to fetch)");
        }
        for o in outcomes {
            let what = match o.action {
                FetchAction::AlreadyCached => "cached, checksum ok",
                FetchAction::CopiedFixture => "copied from fixtures, checksum ok",
            };
            println!(
                "{name}: {} -> {} ({what})",
                o.file,
                cache.file_path(&entry.name, &o.file).display()
            );
        }
    }
    Ok(())
}

fn do_verify(args: &DataArgs) -> Result<(), String> {
    let opts = options(args);
    let mut reports = Vec::new();
    let mut all_pass = true;
    for name in require_names(args)? {
        let entry = registry::resolve(name).map_err(|e| e.to_string())?;
        let loaded = load(entry, &opts).map_err(|e| e.to_string())?;
        let report = verify::verify(entry, &loaded.graph, verify::DEFAULT_CPL_SOURCES);
        print!("{}", report.render());
        all_pass &= report.passed();
        reports.push(report);
    }
    if let Some(path) = &args.report {
        let json = serde_json::to_string(&reports).map_err(|e| format!("report: {e}"))?;
        std::fs::write(path, json + "\n").map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("report written to {path}");
    }
    if all_pass {
        Ok(())
    } else {
        Err("data verify: one or more checks failed".to_string())
    }
}

fn do_stats(args: &DataArgs) -> Result<(), String> {
    let opts = options(args);
    for name in require_names(args)? {
        let entry = registry::resolve(name).map_err(|e| e.to_string())?;
        let loaded = load(entry, &opts).map_err(|e| e.to_string())?;
        let s = cpgan_graph::stats::GraphStats::compute(&loaded.graph, 128);
        println!("{name} ({}):", loaded.title);
        println!("  nodes:            {}", s.n);
        println!("  edges:            {}", s.m);
        println!("  mean degree:      {:.4}", s.mean_degree);
        println!("  CPL (≤128 seeds): {:.4}", s.cpl);
        println!("  gini:             {:.4}", s.gini);
        println!("  power-law exp:    {:.4}", s.pwe);
        if let Some(ing) = &loaded.ingest {
            println!(
                "  ingest:           {} raw edges, {} self-loops seen ({} dropped), {} duplicates merged",
                ing.raw_edges, ing.self_loops_seen, ing.self_loops_dropped, ing.duplicates_merged
            );
        }
        if let Some(labels) = &loaded.node_labels {
            let labeled = labels.iter().filter(|l| !l.is_empty()).count();
            println!("  labeled nodes:    {labeled}");
        }
    }
    Ok(())
}

fn do_ingest(args: &DataArgs) -> Result<(), String> {
    let output = args
        .output
        .as_deref()
        .ok_or("data ingest: missing --output")?;
    let opts = options(args);
    let names = require_names(args)?;
    if names.len() != 1 {
        return Err("data ingest: exactly one dataset name expected".to_string());
    }
    let entry = registry::resolve(&names[0]).map_err(|e| e.to_string())?;
    let loaded = load(entry, &opts).map_err(|e| e.to_string())?;
    io::save(&loaded.graph, output).map_err(|e| format!("cannot write {output}: {e}"))?;
    eprintln!(
        "ingested {}: {} nodes / {} edges -> {output}",
        loaded.name,
        loaded.graph.n(),
        loaded.graph.m()
    );
    Ok(())
}
