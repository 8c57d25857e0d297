#![forbid(unsafe_code)]
//! `cpgan` — command-line interface to the CPGAN graph generator.
//!
//! ```text
//! cpgan fit      --input graph.txt --model model.json [--epochs N] [--seed S]
//! cpgan generate --model model.json --output out.txt [--seed S]
//! cpgan stats    --input graph.txt
//! cpgan eval     --observed graph.txt --generated out.txt
//! cpgan serve    --model model.json [--addr HOST:PORT] [--workers N]
//! cpgan shard    --input graph.txt --output out.txt [--max-shard-size N] [--budget-mb N]
//! cpgan data     list | fetch <name> | verify <name> | stats <name> | ingest <name>
//! ```
//!
//! Graphs are whitespace edge lists (`# nodes: N` header optional), the
//! format `cpgan_graph::io` reads and writes.

use cpgan::{CpGan, CpGanConfig};
use cpgan_community::{louvain, metrics};
use cpgan_graph::{io, mmd, stats, Graph};
use cpgan_serve::{ModelRegistry, ServeConfig, Server};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::process::ExitCode;

mod args;
mod data;

use args::Args;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!();
            eprintln!("{}", usage());
            ExitCode::FAILURE
        }
    }
}

fn usage() -> &'static str {
    "usage:\n  \
     cpgan fit      --input <edge-list> --model <model.json> [--epochs N] [--sample-size N] [--seed S]\n  \
     cpgan generate --model <model.json> --output <edge-list> [--nodes N] [--edges M] [--seed S]\n  \
     cpgan stats    --input <edge-list>\n  \
     cpgan eval     --observed <edge-list> --generated <edge-list>\n  \
     cpgan serve    --model <model.json>[,<model.json>...] [--addr HOST:PORT] [--workers N]\n                 \
     [--queue-depth N] [--deadline-ms N] [--idle-ms N] [--cache-mb N] [--max-conns N]\n  \
     cpgan shard    --input <edge-list> --output <edge-list> [--max-shard-size N] [--budget-mb N]\n                 \
     [--epochs N] [--sample-size N] [--seed S]\n  \
     cpgan data     list | fetch <name> | verify <name> [--report PATH] | stats <name>\n                 \
     | ingest <name> --output <edge-list>   (all: [--data-dir DIR] [--offline];\n                 \
     synthetic entries: [--scale S] [--seed S]; see DESIGN.md \u{a7}15)\n\n\
     any subcommand also accepts:\n  \
     --threads N     worker threads for parallel code (same as CPGAN_THREADS=N;\n                  \
     not serve, which sizes its pool with --workers)\n  \
     --obs-out PATH  write observability JSONL there and print a summary tree\n                  \
     (see DESIGN.md \u{a7}9)"
}

fn run(argv: &[String]) -> Result<(), String> {
    let (cmd, rest) = argv.split_first().ok_or("missing subcommand")?;
    // `data` takes positional actions/names and bare `--offline`, which the
    // strict `--key value` parser rejects — it owns its token parsing (and
    // its own --threads/--obs-out glue).
    if cmd == "data" {
        return data::run(rest);
    }
    let args = Args::parse(rest)?;
    // `--obs-out <path>` turns on observability collection and names the
    // JSONL sink (equivalent to CPGAN_OBS=1 CPGAN_OBS_OUT=<path>).
    let obs_out = args.get("obs-out");
    if obs_out.is_some() {
        cpgan_obs::set_enabled(true);
    }
    // `--threads N` pins the deterministic parallel runtime's thread count
    // for this invocation (equivalent to CPGAN_THREADS=N; results are
    // bit-identical at any setting). Serve generations reach no parallel
    // code, so there it would only resize the default worker pool, which
    // `--workers` owns.
    let threads = args.get_usize("threads")?;
    if threads.is_some() && cmd == "serve" {
        return Err("--threads does not apply to serve; use --workers".to_string());
    }
    let dispatch = || match cmd.as_str() {
        "fit" => fit(&args),
        "generate" => generate(&args),
        "stats" => show_stats(&args),
        "eval" => eval(&args),
        "serve" => serve(&args),
        "shard" => shard(&args),
        other => Err(format!("unknown subcommand '{other}'")),
    };
    let result = match threads {
        Some(n) => cpgan_parallel::with_thread_count(n, dispatch),
        None => dispatch(),
    };
    // Flush even on error so partial runs still leave telemetry behind.
    cpgan_obs::finish(obs_out.as_deref());
    result
}

fn load_graph(path: &str) -> Result<Graph, String> {
    io::load(path).map_err(|e| format!("cannot read {path}: {e}"))
}

fn fit(args: &Args) -> Result<(), String> {
    let input = args.require("input")?;
    let model_path = args.require("model")?;
    let g = load_graph(&input)?;
    eprintln!("observed graph: {} nodes, {} edges", g.n(), g.m());
    let cfg = CpGanConfig {
        epochs: args.get_usize("epochs")?.unwrap_or(400),
        sample_size: args.get_usize("sample-size")?.unwrap_or(200),
        seed: args.get_u64("seed")?.unwrap_or(42),
        ..CpGanConfig::default()
    };
    let mut model = CpGan::try_new(cfg).map_err(|e| e.to_string())?;
    let stats = model.fit(&g);
    let last = stats.last().ok_or("training produced no epochs")?;
    eprintln!(
        "trained {} epochs: d_loss {:.3}, g_loss {:.3}, recon {:.3}",
        stats.epochs.len(),
        last.d_loss,
        last.g_loss,
        last.recon_loss
    );
    model
        .save(&model_path)
        .map_err(|e| format!("cannot write {model_path}: {e}"))?;
    eprintln!("model saved to {model_path}");
    Ok(())
}

fn generate(args: &Args) -> Result<(), String> {
    let model_path = args.require("model")?;
    let output = args.require("output")?;
    let model = CpGan::load(&model_path).map_err(|e| format!("cannot load {model_path}: {e}"))?;
    // Default to the trained graph's size when not overridden.
    let (def_n, def_m) = model
        .trained_shape()
        .ok_or("model is untrained; pass --nodes and --edges")
        .or_else(
            |e| match (args.get_usize("nodes"), args.get_usize("edges")) {
                (Ok(Some(n)), Ok(Some(m))) => Ok((n, m)),
                _ => Err(e.to_string()),
            },
        )?;
    let n = args.get_usize("nodes")?.unwrap_or(def_n);
    let m = args.get_usize("edges")?.unwrap_or(def_m);
    let mut rng = StdRng::seed_from_u64(args.get_u64("seed")?.unwrap_or(7));
    let out = model.generate(n, m, &mut rng);
    io::save(&out, &output).map_err(|e| format!("cannot write {output}: {e}"))?;
    eprintln!(
        "generated {} nodes / {} edges -> {output}",
        out.n(),
        out.m()
    );
    Ok(())
}

fn serve(args: &Args) -> Result<(), String> {
    let models = args.require("model")?;
    let mut registry = ModelRegistry::new();
    for path in models.split(',').map(str::trim).filter(|p| !p.is_empty()) {
        let name = registry.load_file(path).map_err(|e| e.to_string())?;
        let shape = registry
            .get(&name)
            .and_then(|m| m.trained_shape())
            .map(|(n, m)| format!("trained on {n} nodes / {m} edges"))
            .unwrap_or_else(|| "untrained".to_string());
        eprintln!("loaded model '{name}' from {path} ({shape})");
    }
    let cfg = ServeConfig {
        addr: args
            .get("addr")
            .unwrap_or_else(|| "127.0.0.1:8787".to_string()),
        workers: args.get_usize("workers")?.unwrap_or(0),
        queue_depth: args.get_usize("queue-depth")?.unwrap_or(64),
        deadline_ms: args.get_u64("deadline-ms")?.unwrap_or(5_000),
        idle_ms: args.get_u64("idle-ms")?.unwrap_or(5_000),
        // `--cache-mb 0` disables the generation cache entirely.
        cache_bytes: args.get_usize("cache-mb")?.unwrap_or(16) * 1024 * 1024,
        max_conns: args.get_usize("max-conns")?.unwrap_or(1024),
        ..ServeConfig::default()
    };
    // The metrics endpoint serves the merged cpgan-obs report; a server
    // without collection would serve an empty document forever.
    cpgan_obs::set_enabled(true);
    let server = Server::start(cfg, registry).map_err(|e| e.to_string())?;
    eprintln!(
        "cpgan-serve listening on http://{} ({} workers, queue {}); \
         POST /v1/generate, GET /v1/models /healthz /metrics",
        server.addr(),
        server.worker_count(),
        args.get_usize("queue-depth")?.unwrap_or(64),
    );
    server.wait();
    Ok(())
}

fn shard(args: &Args) -> Result<(), String> {
    let input = args.require("input")?;
    let output = args.require("output")?;
    let g = load_graph(&input)?;
    eprintln!("observed graph: {} nodes, {} edges", g.n(), g.m());
    let model = CpGanConfig {
        epochs: args.get_usize("epochs")?.unwrap_or(20),
        sample_size: args.get_usize("sample-size")?.unwrap_or(60),
        ..CpGanConfig::tiny()
    };
    let cfg = cpgan_shard::ShardConfig {
        max_shard_size: args.get_usize("max-shard-size")?.unwrap_or(4000),
        memory_budget_bytes: args.get_usize("budget-mb")?.unwrap_or(256) << 20,
        model,
        seed: args.get_u64("seed")?.unwrap_or(42),
        ..cpgan_shard::ShardConfig::default()
    };
    let pipeline = cpgan_shard::ShardPipeline::new(cfg).map_err(|e| e.to_string())?;
    let report = pipeline.run(&g).map_err(|e| e.to_string())?;
    io::save(&report.graph, &output).map_err(|e| format!("cannot write {output}: {e}"))?;
    eprintln!(
        "sharded generation: {} shards in {} waves (largest {} nodes, \
         scheduled peak ~{} MiB)",
        report.shards,
        report.waves,
        report.max_shard_nodes,
        report.peak_estimate_bytes >> 20
    );
    eprintln!(
        "generated {} nodes / {} edges ({} intra + {} inter) -> {output}",
        report.graph.n(),
        report.graph.m(),
        report.intra_edges,
        report.inter_edges
    );
    Ok(())
}

fn show_stats(args: &Args) -> Result<(), String> {
    let input = args.require("input")?;
    let g = load_graph(&input)?;
    let s = stats::GraphStats::compute(&g, 128);
    let part = louvain::louvain(&g, 0);
    println!("nodes:            {}", s.n);
    println!("edges:            {}", s.m);
    println!("mean degree:      {:.4}", s.mean_degree);
    println!("CPL (≤128 seeds): {:.4}", s.cpl);
    println!("gini:             {:.4}", s.gini);
    println!("power-law exp:    {:.4}", s.pwe);
    println!("mean clustering:  {:.4}", s.mean_clustering);
    println!("louvain comms:    {}", part.community_count());
    Ok(())
}

fn eval(args: &Args) -> Result<(), String> {
    let observed = load_graph(&args.require("observed")?)?;
    let generated = load_graph(&args.require("generated")?)?;
    if observed.n() != generated.n() {
        return Err(format!(
            "node counts differ ({} vs {}); NMI/ARI need node-aligned graphs",
            observed.n(),
            generated.n()
        ));
    }
    let y = louvain::louvain(&observed, 0);
    let x = louvain::louvain(&generated, 0);
    println!("NMI:        {:.4}", metrics::nmi(x.labels(), y.labels()));
    println!(
        "ARI:        {:.4}",
        metrics::adjusted_rand_index(x.labels(), y.labels())
    );
    println!("deg MMD:    {:.5}", mmd::degree_mmd(&observed, &generated));
    println!(
        "clus MMD:   {:.5}",
        mmd::clustering_mmd(&observed, &generated)
    );
    let so = stats::GraphStats::compute(&observed, 128);
    let sg = stats::GraphStats::compute(&generated, 128);
    println!("CPL diff:   {:.4}", (so.cpl - sg.cpl).abs());
    println!("gini diff:  {:.4}", (so.gini - sg.gini).abs());
    println!("PWE diff:   {:.4}", (so.pwe - sg.pwe).abs());
    Ok(())
}
