//! The server: one event loop, a bounded queue, a fixed worker pool.
//!
//! Threading model (DESIGN.md §11): a single `serve-event` thread owns
//! the listener and **every** client socket through a `poll(2)`-based
//! readiness loop — it accepts, reads, parses incrementally, answers
//! cheap routes (health, models, metrics, errors, **cache hits**)
//! inline, and hands only cache-miss generation work to the bounded
//! queue. Workers do nothing but generate: they pop jobs, run the
//! model, insert the body into the seed-keyed [`GenCache`], and post a
//! completion back to the event loop via the poller's wakeup. Overload
//! is shed at admission (`429` when the queue is full, `503` at the
//! connection limit), staleness at deadlines (`408`), and shutdown
//! drains: accepting stops, every admitted request still gets its
//! response — with **no sleep-polling anywhere** (every wait is a
//! `poll(2)` or condvar wait with an exact deadline).

use crate::cache::{CacheKey, GenCache};
use crate::error::ServeError;
use crate::event;
use crate::http::{Request, Response};
use crate::protocol::{GenerateRequest, DEFAULT_SEED};
use crate::queue::Bounded;
use crate::registry::ModelRegistry;
use cpgan::CpGan;
use cpgan_graph::io as graph_io;
use cpgan_obs::{counter_add, gauge_set, hist_record, span, Stopwatch};
use polling::Poller;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Value;
use std::net::{SocketAddr, TcpListener};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// Server configuration. `Default` gives a loopback server with
/// hardware-sized workers, a 64-deep queue, a 5 s request deadline, a
/// 5 s keep-alive idle timeout, and a 16 MiB generation cache.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:8787` (`:0` picks a free port).
    pub addr: String,
    /// Worker threads; `0` = `CPGAN_SERVE_WORKERS` env if set, else the
    /// `cpgan-parallel` thread count (`CPGAN_THREADS` /
    /// `available_parallelism`).
    pub workers: usize,
    /// Bounded queue depth; admission beyond it is rejected with `429`.
    pub queue_depth: usize,
    /// Per-request deadline in milliseconds, measured from the first
    /// byte of the request; requests that cannot finish in time are
    /// answered `408`.
    pub deadline_ms: u64,
    /// Maximum jobs a worker drains from the queue per wakeup.
    pub batch_size: usize,
    /// Keep-alive idle timeout in milliseconds: a connection with no
    /// request in flight is closed after this much silence.
    pub idle_ms: u64,
    /// Byte budget for the seed-keyed generation cache; `0` disables
    /// caching.
    pub cache_bytes: usize,
    /// Maximum simultaneously open client connections; beyond this new
    /// sockets are answered `503` and closed.
    pub max_conns: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:8787".to_string(),
            workers: 0,
            queue_depth: 64,
            deadline_ms: 5_000,
            batch_size: 8,
            idle_ms: 5_000,
            cache_bytes: 16 * 1024 * 1024,
            max_conns: 1024,
        }
    }
}

/// A cache-miss generation admitted to the worker queue. The stopwatch
/// started at the request's first byte and anchors its deadline.
pub(crate) struct Job {
    /// Event-loop connection id awaiting the completion.
    pub conn_id: usize,
    /// Canonical cache key (also the full generation parameter set).
    pub key: CacheKey,
    /// The resolved model.
    pub model: Arc<CpGan>,
    /// Deadline anchor.
    pub sw: Stopwatch,
}

/// A finished job travelling back to the event loop.
pub(crate) struct Completion {
    /// The connection the response belongs to.
    pub conn_id: usize,
    /// The response to write (`200` with a shared cached body, or an
    /// error from the taxonomy).
    pub response: Response,
}

/// State shared by the event loop and every worker.
pub(crate) struct Shared {
    pub registry: ModelRegistry,
    pub queue: Bounded<Job>,
    pub cache: GenCache,
    completions: Mutex<Vec<Completion>>,
    pub poller: Poller,
    pub deadline: Duration,
    pub idle: Duration,
    pub workers: usize,
    pub batch_size: usize,
    pub max_conns: usize,
    pub stop: AtomicBool,
}

impl Shared {
    /// Posts a completion and wakes the event loop.
    pub fn complete(&self, completion: Completion) {
        self.completions
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(completion);
        if self.poller.notify().is_err() {
            counter_add("serve.notify_error", 1);
        }
    }

    /// Drains all pending completions (event-loop side).
    pub fn take_completions(&self) -> Vec<Completion> {
        std::mem::take(
            &mut *self
                .completions
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        )
    }
}

/// A running server. Dropping it performs a graceful drain (stop
/// accepting, finish everything admitted, join every thread).
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    event: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `cfg.addr`, loads nothing (models come pre-loaded in
    /// `registry`), and starts the event-loop and worker threads.
    pub fn start(cfg: ServeConfig, registry: ModelRegistry) -> Result<Server, ServeError> {
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;

        let workers = resolve_workers(cfg.workers);
        let shared = Arc::new(Shared {
            registry,
            queue: Bounded::new(cfg.queue_depth),
            cache: GenCache::new(cfg.cache_bytes),
            completions: Mutex::new(Vec::new()),
            poller: Poller::new()?,
            deadline: Duration::from_millis(cfg.deadline_ms.max(1)),
            idle: Duration::from_millis(cfg.idle_ms.max(1)),
            workers,
            batch_size: cfg.batch_size.max(1),
            max_conns: cfg.max_conns.max(1),
            stop: AtomicBool::new(false),
        });

        let event = {
            let shared = Arc::clone(&shared);
            cpgan_parallel::spawn_service("serve-event", move || event::run(listener, &shared))?
        };
        let mut worker_handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let shared = Arc::clone(&shared);
            worker_handles.push(cpgan_parallel::spawn_service(
                &format!("serve-worker-{i}"),
                move || worker_loop(&shared),
            )?);
        }

        Ok(Server {
            addr,
            shared,
            event: Some(event),
            workers: worker_handles,
        })
    }

    /// The bound address (useful with `:0` ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Worker threads serving generation jobs.
    pub fn worker_count(&self) -> usize {
        self.shared.workers
    }

    /// Jobs currently queued (admission-side observability).
    pub fn queue_len(&self) -> usize {
        self.shared.queue.len()
    }

    /// Gracefully drains the server: stops accepting, answers everything
    /// already admitted, and joins all threads. Equivalent to dropping
    /// the server, spelled out for call sites that mean it.
    pub fn shutdown(self) {
        drop(self);
    }

    /// Blocks until the server stops (for the CLI, that is "forever":
    /// only process termination ends a `cpgan serve` run).
    pub fn wait(mut self) {
        if let Some(handle) = self.event.take() {
            join_quietly(handle, "event loop");
        }
        // Reached only if the event loop stopped; drain as usual via Drop.
    }

    fn drain(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        // The poller wakeup replaces the old sleep-poll shutdown dance:
        // the event loop notices `stop` on the very next `poll` return.
        if self.shared.poller.notify().is_err() {
            counter_add("serve.notify_error", 1);
        }
        if let Some(handle) = self.event.take() {
            join_quietly(handle, "event loop");
        }
        // Only close after the event loop exits so nothing it admitted
        // lands on a closed queue.
        self.shared.queue.close();
        for handle in self.workers.drain(..) {
            join_quietly(handle, "worker");
        }
        gauge_set("serve.queue_depth", 0.0);
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.drain();
    }
}

fn join_quietly(handle: JoinHandle<()>, who: &str) {
    if handle.join().is_err() {
        eprintln!("cpgan-serve: {who} thread panicked");
    }
}

/// `cfg.workers` if positive, else `CPGAN_SERVE_WORKERS`, else the
/// `cpgan-parallel` thread count. Always at least 1.
fn resolve_workers(configured: usize) -> usize {
    if configured > 0 {
        return configured;
    }
    if let Ok(v) = std::env::var("CPGAN_SERVE_WORKERS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    cpgan_parallel::current_threads().max(1)
}

// -------------------------------------------------------------- routing

/// What the event loop should do with a parsed request.
pub(crate) enum Routed {
    /// Answer immediately (cheap routes and errors).
    Respond(Response),
    /// Run generation: check the cache under `key`, else dispatch.
    Generate {
        /// The canonical cache key.
        key: CacheKey,
        /// The resolved model.
        model: Arc<CpGan>,
    },
}

/// Routes one request. Everything except generation is answered inline;
/// generation resolves its model and canonical parameters here so the
/// cache key is complete before any queueing happens.
pub(crate) fn route(shared: &Shared, request: &Request) -> Result<Routed, ServeError> {
    let path = request.path.split('?').next().unwrap_or("");
    match (request.method.as_str(), path) {
        ("GET", "/healthz") => Ok(Routed::Respond(health(shared))),
        ("GET", "/v1/models") => Ok(Routed::Respond(Response::json(
            200,
            render_json(&shared.registry.to_json_value()),
        ))),
        ("GET", "/metrics") => Ok(Routed::Respond(Response::json(
            200,
            cpgan_obs::snapshot().to_json(),
        ))),
        ("POST", "/v1/generate") => prepare_generate(shared, request),
        (_, "/healthz" | "/v1/models" | "/metrics" | "/v1/generate") => {
            Err(ServeError::MethodNotAllowed {
                method: request.method.clone(),
                path: path.to_string(),
            })
        }
        _ => Err(ServeError::NotFound(request.path.clone())),
    }
}

/// Resolves model, shape, and seed into a canonical [`CacheKey`] —
/// defaulting mirrors `cpgan generate` (trained shape unless overridden,
/// [`DEFAULT_SEED`] unless set), so an empty body and the equivalent
/// explicit request share one cache entry.
fn prepare_generate(shared: &Shared, request: &Request) -> Result<Routed, ServeError> {
    let body = GenerateRequest::from_body(&request.body)?;
    let (name, model, rev) = match &body.model {
        Some(name) => {
            let (model, rev) = shared
                .registry
                .get_with_rev(name)
                .ok_or_else(|| ServeError::UnknownModel(name.clone()))?;
            (name.clone(), model, rev)
        }
        None => {
            let (name, _) = shared.registry.sole_model().ok_or_else(|| {
                ServeError::BadRequest(format!(
                    "request must name a model; loaded: {}",
                    shared.registry.names().join(", ")
                ))
            })?;
            let name = name.to_string();
            let (model, rev) = shared
                .registry
                .get_with_rev(&name)
                .ok_or_else(|| ServeError::UnknownModel(name.clone()))?;
            (name, model, rev)
        }
    };
    let (n, m) = match (model.trained_shape(), body.nodes, body.edges) {
        (_, Some(n), Some(m)) => (n, m),
        (Some((dn, dm)), n, m) => (n.unwrap_or(dn), m.unwrap_or(dm)),
        (None, _, _) => {
            return Err(ServeError::BadRequest(format!(
                "model '{name}' is untrained; request must set nodes and edges"
            )));
        }
    };
    Ok(Routed::Generate {
        key: CacheKey {
            model: name,
            rev,
            nodes: n,
            edges: m,
            seed: body.seed.unwrap_or(DEFAULT_SEED),
        },
        model,
    })
}

// -------------------------------------------------------------- workers

fn worker_loop(shared: &Shared) {
    loop {
        let (batch, done) = shared
            .queue
            .pop_batch(shared.batch_size, Duration::from_millis(25));
        if !batch.is_empty() {
            hist_record("serve.batch_size", batch.len() as f64);
            gauge_set("serve.queue_depth", shared.queue.len() as f64);
        }
        for job in batch {
            hist_record("serve.queue_wait_ns", job.sw.elapsed_ns() as f64);
            let response = run_job(shared, &job);
            shared.complete(Completion {
                conn_id: job.conn_id,
                response,
            });
        }
        if done {
            break;
        }
    }
}

/// Runs one generation job to a response. A panicking model must not
/// kill the worker (the pool is fixed-size) **and** must still answer
/// its connection — otherwise the event loop would hold the socket until
/// its deadline.
fn run_job(shared: &Shared, job: &Job) -> Response {
    if let Err(err) = remaining_deadline(shared, job.sw) {
        count_error(&err);
        return error_response(&err);
    }
    let outcome = catch_unwind(AssertUnwindSafe(|| generate_body(&job.model, &job.key)));
    match outcome {
        Ok(Ok(body)) => {
            let body = Arc::new(body);
            shared.cache.insert(job.key.clone(), Arc::clone(&body));
            counter_add("serve.generated", 1);
            Response::shared(200, body)
        }
        Ok(Err(err)) => {
            count_error(&err);
            error_response(&err)
        }
        Err(_) => {
            counter_add("serve.handler_panic", 1);
            let err = ServeError::Internal("generation panicked".to_string());
            count_error(&err);
            error_response(&err)
        }
    }
}

/// Generates the edge-list body for `key` — the same
/// seed → `StdRng` → `write_edge_list` pipeline as `cpgan generate`, so
/// served bytes (cached or not) are byte-identical to the CLI.
fn generate_body(model: &CpGan, key: &CacheKey) -> Result<Vec<u8>, ServeError> {
    let graph = {
        let _g = span("serve.generate");
        let mut rng = StdRng::seed_from_u64(key.seed);
        model.generate(key.nodes, key.edges, &mut rng)
    };
    let mut out = Vec::new();
    graph_io::write_edge_list(&graph, &mut out)
        .map_err(|e| ServeError::Io(std::io::Error::other(e.to_string())))?;
    Ok(out)
}

/// `Err(DeadlineExceeded)` once `sw` has outlived the deadline.
pub(crate) fn remaining_deadline(shared: &Shared, sw: Stopwatch) -> Result<Duration, ServeError> {
    let elapsed = Duration::from_nanos(sw.elapsed_ns());
    if elapsed >= shared.deadline {
        return Err(ServeError::DeadlineExceeded {
            waited_ms: sw.elapsed_ns() / 1_000_000,
            deadline_ms: shared.deadline.as_millis() as u64,
        });
    }
    Ok(shared.deadline - elapsed)
}

fn health(shared: &Shared) -> Response {
    let body = Value::Object(vec![
        ("status".to_string(), Value::Str("ok".to_string())),
        (
            "models".to_string(),
            Value::UInt(shared.registry.len() as u64),
        ),
        (
            "queue_depth".to_string(),
            Value::UInt(shared.queue.len() as u64),
        ),
        (
            "queue_capacity".to_string(),
            Value::UInt(shared.queue.capacity() as u64),
        ),
        ("workers".to_string(), Value::UInt(shared.workers as u64)),
        (
            "deadline_ms".to_string(),
            Value::UInt(shared.deadline.as_millis() as u64),
        ),
        (
            "idle_ms".to_string(),
            Value::UInt(shared.idle.as_millis() as u64),
        ),
        (
            "cache_entries".to_string(),
            Value::UInt(shared.cache.len() as u64),
        ),
        (
            "cache_bytes".to_string(),
            Value::UInt(shared.cache.bytes() as u64),
        ),
    ]);
    Response::json(200, render_json(&body))
}

fn render_json(value: &Value) -> String {
    serde_json::to_string(value).unwrap_or_else(|_| "{}".to_string())
}

/// Renders a [`ServeError`] as its HTTP response:
/// `{"error":{"code":...,"message":...,"status":...}}`, with `Retry-After`
/// on overload/shutdown rejections.
pub fn error_response(err: &ServeError) -> Response {
    let body = Value::Object(vec![(
        "error".to_string(),
        Value::Object(vec![
            ("code".to_string(), Value::Str(err.code().to_string())),
            ("message".to_string(), Value::Str(err.to_string())),
            ("status".to_string(), Value::UInt(u64::from(err.status()))),
        ]),
    )]);
    let mut response = Response::json(err.status(), render_json(&body));
    if matches!(
        err,
        ServeError::QueueFull { .. } | ServeError::ShuttingDown | ServeError::OverCapacity { .. }
    ) {
        response.retry_after = Some(1);
    }
    response
}

pub(crate) fn count_error(err: &ServeError) {
    let name = match err {
        ServeError::BadRequest(_) => "serve.err.bad_request",
        ServeError::NotFound(_) => "serve.err.not_found",
        ServeError::UnknownModel(_) => "serve.err.unknown_model",
        ServeError::MethodNotAllowed { .. } => "serve.err.method_not_allowed",
        ServeError::DeadlineExceeded { .. } => "serve.err.deadline",
        ServeError::PayloadTooLarge { .. } => "serve.err.payload_too_large",
        ServeError::QueueFull { .. } => "serve.err.queue_full",
        ServeError::ShuttingDown => "serve.err.shutting_down",
        ServeError::OverCapacity { .. } => "serve.err.over_capacity",
        ServeError::ModelLoad(_) => "serve.err.model_load",
        ServeError::Io(_) => "serve.err.io",
        ServeError::Internal(_) => "serve.err.internal",
    };
    counter_add(name, 1);
}
