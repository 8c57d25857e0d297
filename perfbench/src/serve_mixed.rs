//! `serve_mixed`: an in-process loopback `cpgan_serve::Server` (default
//! config apart from the port) serving a model fitted on
//! `citeseer-fixture`, saved and loaded back. One client on this thread
//! sends an open-loop, fixed-rate schedule of small `/v1/generate`
//! requests over two keep-alive connections; about 40% repeat an earlier
//! seed, so cache hits are served beside cold generations that go through
//! the queue and the workers. A few observed-size requests after the
//! schedule give the graphs whose quality the workload reports.

use crate::check::{check_generated, check_served, fnv1a, Digests, Outcome};
use crate::client::{self, Planned, Sample};
use crate::metrics::Metric;
use crate::probes::{Fitted, Main, MainCall, Observed, ServeSeen};
use crate::procfs::{peak_rss_mb, CpuTimes};
use crate::steps::{self, timed};
use crate::trace::Tracer;
use crate::{median, percentile, train_eval, Ctx, Pass};
use cpgan::{CpGan, CpGanConfig};
use cpgan_graph::Graph;
use cpgan_parallel::Pool;
use cpgan_serve::http::parse_reply;
use cpgan_serve::{ModelRegistry, ServeConfig, Server};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// Requested graph size: small, so a cold generation costs tens of
/// milliseconds and a cached reply far less.
const NODES: usize = 1000;
const EDGES: usize = 2000;
/// Keep-alive connections the schedule is spread over.
const CONNECTIONS: usize = 2;
/// Share of requests that repeat an earlier seed (once one is old enough).
/// Below one half by a margin, so the median request is always a cold one:
/// at 0.5, about one run in ten drew more repeats than fresh requests and
/// its median flipped to a cache hit, an eighth of the usual latency.
const REPEAT_SHARE: f64 = 0.4;
/// A repeated seed was first requested at least this long before.
const REPEAT_AGE_NS: u64 = 1_000_000_000;
/// Latency limit of `serve_goodput_rps`.
const LATENCY_LIMIT_MS: f64 = 250.0;
/// Cold requests sent before the schedule, so the workers' buffer pools and
/// allocator are warm, as in a server that has been up for a while.
const WARMUP_REQUESTS: u64 = 16;
/// How long unanswered requests are awaited after the last one was due.
const DRAIN: Duration = Duration::from_secs(30);

/// Blocking `GET /healthz`; true on a 200.
fn healthz(addr: SocketAddr) -> bool {
    let Ok(mut stream) = TcpStream::connect(addr) else {
        return false;
    };
    if stream
        .write_all(b"GET /healthz HTTP/1.1\r\nhost: bench\r\nconnection: close\r\n\r\n")
        .is_err()
    {
        return false;
    }
    let mut buf = Vec::new();
    if stream.read_to_end(&mut buf).is_err() {
        return false;
    }
    matches!(parse_reply(&buf), Ok(Some((reply, _))) if reply.status == 200)
}

/// A running server holding a saved-and-loaded model, and the step times.
struct Ready {
    server: Server,
    save_s: f64,
    load_s: f64,
    start_s: f64,
}

/// `save` of `model`, load of the file into a registry, `Server::start`
/// until `/healthz` answers.
fn start_serving(
    tr: &Tracer,
    out: &mut Outcome,
    model: &CpGan,
    model_path: &Path,
) -> Result<Ready, String> {
    let (saved, save_s) = tr.span("core.save", || timed(|| model.save(model_path)));
    saved.map_err(|e| format!("save {}: {e}", model_path.display()))?;
    let path = model_path.to_string_lossy().to_string();
    let mut registry = ModelRegistry::new();
    let (loaded, load_s) = tr.span("serve.registry_load", || {
        timed(|| registry.load_file(&path))
    });
    loaded.map_err(|e| format!("load {path}: {e}"))?;
    let op = out.attempt();
    let (started, start_s) = tr.span("serve.start", || {
        timed(|| {
            let config = ServeConfig {
                addr: "127.0.0.1:0".to_string(),
                ..ServeConfig::default()
            };
            Server::start(config, registry).map(|server| {
                let up = healthz(server.addr());
                (server, up)
            })
        })
    });
    let (server, up) = started.map_err(|e| format!("server start: {e}"))?;
    out.check(op, up, || "/healthz did not answer 200".to_string());
    Ok(Ready {
        server,
        save_s,
        load_s,
        start_s,
    })
}

fn request_wire(nodes: usize, edges: usize, seed: u64) -> Vec<u8> {
    let body = format!("{{\"nodes\":{nodes},\"edges\":{edges},\"seed\":{seed}}}");
    format!(
        "POST /v1/generate HTTP/1.1\r\nhost: bench\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// A request schedule: when each request is due, its seed and whether it
/// repeats an earlier one.
struct Schedule {
    plan: Vec<Planned>,
    seeds: Vec<u64>,
    repeats: Vec<bool>,
}

/// `rate` small requests per second for `seconds`, seeds from `stream`.
/// Each request repeats, with probability [`REPEAT_SHARE`], a uniformly
/// chosen seed first requested at least [`REPEAT_AGE_NS`] earlier (so the
/// repeat finds it cached), else uses a fresh seed. The first second has
/// no repeats.
fn schedule(ctx: &Ctx, rate: f64, seconds: f64, stream: u64) -> Schedule {
    let count = (rate * seconds).ceil().max(1.0) as usize;
    let mut rng = StdRng::seed_from_u64(ctx.derive(stream));
    let mut sched = Schedule {
        plan: Vec::new(),
        seeds: Vec::new(),
        repeats: Vec::new(),
    };
    // (due time, seed) of every fresh request, in due order.
    let mut fresh: Vec<(u64, u64)> = Vec::new();
    for i in 0..count {
        let due_ns = (i as f64 * 1e9 / rate) as u64;
        let old = fresh.partition_point(|&(due, _)| due + REPEAT_AGE_NS <= due_ns);
        let repeat = old > 0 && rng.gen::<f64>() < REPEAT_SHARE;
        let seed = if repeat {
            fresh[rng.gen_range(0..old)].1
        } else {
            let s = ctx.derive(stream * 1_000_000 + i as u64);
            fresh.push((due_ns, s));
            s
        };
        sched.plan.push(Planned {
            due_ns,
            wire: request_wire(NODES, EDGES, seed),
        });
        sched.seeds.push(seed);
        sched.repeats.push(repeat);
    }
    sched
}

/// Digest of the body `cpgan generate` would write for `seed` with
/// `model`, and the graph.
fn expected(model: &CpGan, n: usize, m: usize, seed: u64) -> Result<(u64, Graph), String> {
    let g = model.generate(n, m, &mut StdRng::seed_from_u64(seed));
    let mut body = Vec::new();
    cpgan_graph::io::write_edge_list(&g, &mut body).map_err(|e| e.to_string())?;
    Ok((fnv1a(&body), g))
}

/// Sends `sched` to `addr` and checks every reply against an in-process
/// generation from the served model file, one per distinct key, fanned
/// out over the program's own pool. Returns the samples and the number of
/// cache hits: repeats whose key's first 200 had arrived before they were
/// sent.
fn traffic(
    tr: &Tracer,
    out: &mut Outcome,
    addr: SocketAddr,
    model_path: &Path,
    sched: &Schedule,
) -> Result<(Vec<Sample>, usize), String> {
    let samples = {
        let _m = tr.enter("bench.traffic");
        let base_ns = tr.now_ns();
        let samples = client::run(addr, &sched.plan, CONNECTIONS, DRAIN)
            .map_err(|e| format!("load client: {e}"))?;
        for s in &samples {
            tr.record("serve.request", base_ns + s.sent_ns, base_ns + s.done_ns);
        }
        samples
    };
    let mut first_ok: BTreeMap<u64, u64> = BTreeMap::new();
    for (s, seed) in samples.iter().zip(&sched.seeds) {
        if s.status == Some(200) {
            let t = first_ok.entry(*seed).or_insert(s.done_ns);
            *t = (*t).min(s.done_ns);
        }
    }
    let hits = samples
        .iter()
        .zip(&sched.seeds)
        .filter(|(s, seed)| first_ok.get(seed).is_some_and(|&t| t <= s.sent_ns))
        .count();

    let model = Arc::new(CpGan::load(model_path).map_err(|e| format!("reload model: {e}"))?);
    let distinct: Vec<u64> = sched
        .seeds
        .iter()
        .copied()
        .collect::<BTreeSet<u64>>()
        .into_iter()
        .collect();
    let digests = Pool::global().par_map_owned(distinct.clone(), move |_, seed| {
        expected(&model, NODES, EDGES, seed).map(|(d, _)| d)
    });
    let mut want = BTreeMap::new();
    for (seed, d) in distinct.into_iter().zip(digests) {
        want.insert(seed, d?);
    }
    check_served(out, &samples, &sched.seeds, &want);
    Ok((samples, hits))
}

/// Set-up: ingest of the fixture, a fit, then [`start_serving`].
fn setup(
    ctx: &Ctx,
    tr: &Tracer,
    out: &mut Outcome,
    digests: &mut Digests,
    cfg: &CpGanConfig,
    model_path: &Path,
    i: usize,
) -> Result<(Graph, f64, CpGan, f64, CpuTimes, Ready), String> {
    let (g, ingest_s) = train_eval::ingest(ctx, tr, out, digests, i)?;
    let cpu0 = CpuTimes::now()?;
    let (model, fit_s) = steps::fit_new(tr, out, cfg, &g)?;
    let fit_cpu = cpu0.until(CpuTimes::now()?);
    let ready = start_serving(tr, out, &model, model_path)?;
    Ok((g, ingest_s, model, fit_s, fit_cpu, ready))
}

pub(crate) fn pass(ctx: &Ctx, tr: &Tracer, out: &mut Outcome) -> Result<Pass, String> {
    let cfg = CpGanConfig {
        epochs: ctx.sizes.serve_fit_epochs,
        ..CpGanConfig::default()
    };
    let model_path = ctx.work_dir.join("serve-model.json");
    let mut digests = Digests::default();
    let mut setup_s = Vec::new();
    let (mut ingest_s, mut fit_s, mut fit_cpu) = (Vec::new(), Vec::new(), CpuTimes::default());
    let (mut save_s, mut load_s, mut start_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut last = None;
    {
        let _s = tr.enter("bench.setup");
        for i in 0..ctx.sizes.setup_repeats {
            // Shut the previous server down outside the timed set-up.
            drop(last.take());
            let (done, secs) = timed(|| setup(ctx, tr, out, &mut digests, &cfg, &model_path, i));
            let (g, ingest, model, fit, cpu, ready) = done?;
            setup_s.push(secs);
            ingest_s.push(ingest);
            fit_s.push(fit);
            fit_cpu = fit_cpu.plus(cpu);
            save_s.push(ready.save_s);
            load_s.push(ready.load_s);
            start_s.push(ready.start_s);
            last = Some((g, model, ready.server));
        }
    }
    let (graph, model, server) = last.ok_or("no set-up ran")?;
    let model_bytes = std::fs::metadata(&model_path)
        .map_err(|e| format!("{}: {e}", model_path.display()))?
        .len();

    let warmup: Vec<Planned> = (0..WARMUP_REQUESTS)
        .map(|i| Planned {
            due_ns: i * 30_000_000,
            wire: request_wire(NODES, EDGES, ctx.derive(900_000 + i)),
        })
        .collect();
    let warm = client::run(server.addr(), &warmup, CONNECTIONS, DRAIN)
        .map_err(|e| format!("warm-up client: {e}"))?;
    if warm.iter().any(|s| s.status != Some(200)) {
        return Err("warm-up requests did not all answer 200".to_string());
    }

    let sched = schedule(ctx, ctx.sizes.serve_rate, ctx.seconds, 3);
    cpgan_nn::memory::reset_peak();
    let (samples, hits) = {
        let _m = tr.enter("bench.measure");
        traffic(tr, out, server.addr(), &model_path, &sched)?
    };
    let peak_tensor_bytes = cpgan_nn::memory::peak_bytes();
    let mean_latency_s =
        samples.iter().map(|s| s.latency_ms()).sum::<f64>() / samples.len() as f64 / 1e3;

    // Observed-size graphs through the same server, each checked against
    // an in-process generation and evaluated against the observed graph.
    let (n, m) = (graph.n(), graph.m());
    let quality_seeds: Vec<u64> = (0..ctx.sizes.serve_quality_graphs as u64)
        .map(|i| ctx.derive(5_000 + i))
        .collect();
    let plan: Vec<Planned> = quality_seeds
        .iter()
        .enumerate()
        .map(|(i, &seed)| Planned {
            due_ns: i as u64 * 100_000_000,
            wire: request_wire(n, m, seed),
        })
        .collect();
    let served = client::run(server.addr(), &plan, CONNECTIONS, DRAIN)
        .map_err(|e| format!("quality client: {e}"))?;
    server.shutdown();
    let (mut fills, mut evals) = (Vec::new(), Vec::new());
    for (sample, &seed) in served.iter().zip(&quality_seeds) {
        let (digest, g) = expected(&model, n, m, seed)?;
        let op = out.attempt();
        check_generated(out, op, &g, n, m);
        out.check(op, sample.status == Some(200), || {
            format!("observed-size seed {seed}: status {:?}", sample.status)
        });
        out.check(op, sample.body_digest == digest, || {
            format!("observed-size seed {seed}: served body differs from in-process generate")
        });
        fills.push(steps::edge_fill(&g, m));
        evals.extend(steps::evaluate_repeated(
            tr,
            out,
            &graph,
            &g,
            train_eval::EVAL_REPEATS,
        ));
    }

    let ok_ms: Vec<f64> = samples
        .iter()
        .filter(|s| s.status == Some(200))
        .map(Sample::latency_ms)
        .collect();
    // Goodput per second of the run as it actually took, from the first
    // due time to the last reply, so a backlog that spills past the
    // schedule lowers it.
    let run_s = samples.iter().map(|s| s.done_ns).max().unwrap_or(0) as f64 / 1e9;
    let good = ok_ms.iter().filter(|&&ms| ms <= LATENCY_LIMIT_MS).count();
    let mut metrics = vec![
        Metric::new("setup_s", "s", median(&setup_s)),
        Metric::new("peak_rss_mb", "MiB", peak_rss_mb()?),
        Metric::new("op_s", "s", percentile(&ok_ms, 0.50) / 1e3),
        Metric::new("nodes_per_s", "nodes/s", (good * NODES) as f64 / run_s),
    ];
    metrics.extend(steps::quality_metrics(&evals));
    let fit_median = median(&fit_s);
    Ok(Pass {
        metrics,
        measured_s: mean_latency_s,
        notes: vec![
            format!(
                "serve: {} requests at {} req/s over {CONNECTIONS} connections, {} answered 200, \
                 {} within {LATENCY_LIMIT_MS} ms; quality: mean of {} served graphs at n={n} m={m}",
                sched.plan.len(),
                ctx.sizes.serve_rate,
                ok_ms.len(),
                good,
                quality_seeds.len()
            ),
            tail_note(&samples),
        ],
        observed: Observed {
            ingest_edges: m,
            fitted: Some(Fitted {
                model,
                graph: graph.clone(),
                fit_s: fit_median,
            }),
            graph,
            cfg,
            ingest_s,
            main: Main {
                call: MainCall::Fit,
                median_s: fit_median,
                total_s: fit_s.iter().sum(),
                cpu: fit_cpu,
            },
            peak_tensor_bytes,
            fills,
            evals,
            digests,
            shard: None,
            serve: Some(ServeSeen {
                save_s,
                load_s,
                start_s,
                model_bytes,
                samples,
                repeats: sched.repeats,
                hits,
            }),
        },
    })
}

/// The traced run's serve probe for a workload that serves nothing: its
/// model saved, loaded and served, and a short burst of the same mixed
/// traffic at half the rate.
pub(crate) fn burst(
    ctx: &Ctx,
    tr: &Tracer,
    out: &mut Outcome,
    model: &CpGan,
) -> Result<ServeSeen, String> {
    let model_path = ctx.work_dir.join("probe-model.json");
    let ready = start_serving(tr, out, model, &model_path)?;
    let model_bytes = std::fs::metadata(&model_path)
        .map_err(|e| format!("{}: {e}", model_path.display()))?
        .len();
    let sched = schedule(
        ctx,
        ctx.sizes.serve_rate / 2.0,
        ctx.sizes.probe_serve_seconds,
        4,
    );
    let result = traffic(tr, out, ready.server.addr(), &model_path, &sched);
    ready.server.shutdown();
    let (samples, hits) = result?;
    Ok(ServeSeen {
        save_s: vec![ready.save_s],
        load_s: vec![ready.load_s],
        start_s: vec![ready.start_s],
        model_bytes,
        samples,
        repeats: sched.repeats,
        hits,
    })
}

/// When the slowest 1% of requests were due, by second of the schedule:
/// a tail spread over the run is the server's, one bunched in a second or
/// two is a stall.
fn tail_note(samples: &[Sample]) -> String {
    let mut by_latency: Vec<&Sample> = samples.iter().collect();
    by_latency.sort_by(|a, b| b.latency_ms().total_cmp(&a.latency_ms()));
    let mut seconds: Vec<u64> = by_latency
        .iter()
        .take(samples.len().div_ceil(100))
        .map(|s| s.due_ns / 1_000_000_000)
        .collect();
    seconds.sort_unstable();
    format!("serve: slowest 1% of requests were due at seconds {seconds:?}")
}
