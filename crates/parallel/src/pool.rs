//! Persistent thread pool for owned (`'static`) coarse-grained jobs.
//!
//! Workers are spawned lazily, parked on a shared queue, and live for the
//! rest of the process, so repeated fan-outs (one per evaluation-pipeline
//! cell) never pay spawn cost after warm-up. Jobs must be `'static`: the
//! workspace forbids `unsafe_code`, and lending borrowed data to long-lived
//! threads would need lifetime erasure — borrow-based kernels use the scoped
//! tier instead (see [`crate::par_chunks_mut`]).

use crate::threads::current_threads;
use parking_lot::Mutex;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, OnceLock};

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Starts one named worker thread running the given loop.
type Spawner = fn(String, Job) -> std::io::Result<()>;

/// A persistent pool of worker threads executing owned jobs.
pub struct Pool {
    sender: Mutex<Sender<Job>>,
    receiver: Arc<Mutex<Receiver<Job>>>,
    /// Number of workers that actually started; grown on demand up to the
    /// largest concurrently requested parallelism.
    spawned: Mutex<usize>,
    spawn: Spawner,
}

impl Pool {
    /// The process-wide pool. Workers are only spawned when a fan-out
    /// actually requests parallelism, so serial runs (`CPGAN_THREADS=1`)
    /// never start a thread.
    pub fn global() -> &'static Pool {
        static GLOBAL: OnceLock<Pool> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            Pool::with_spawner(|name, run| {
                std::thread::Builder::new().name(name).spawn(run).map(drop)
            })
        })
    }

    fn with_spawner(spawn: Spawner) -> Pool {
        let (sender, receiver) = channel::<Job>();
        Pool {
            sender: Mutex::new(sender),
            receiver: Arc::new(Mutex::new(receiver)),
            spawned: Mutex::new(0),
            spawn,
        }
    }

    /// Tries to grow the pool to `want` workers (workers are never reaped)
    /// and returns how many are running. A failed spawn is not counted, so
    /// a later batch tries again.
    fn ensure_workers(&self, want: usize) -> usize {
        let mut spawned = self.spawned.lock();
        while *spawned < want {
            let rx = Arc::clone(&self.receiver);
            let worker = Box::new(move || loop {
                let job = rx.lock().recv();
                match job {
                    Ok(job) => job(),
                    Err(_) => break, // sender gone: process shutdown
                }
            });
            if (self.spawn)(format!("cpgan-pool-{}", *spawned), worker).is_err() {
                break;
            }
            *spawned += 1;
        }
        *spawned
    }

    /// Maps `f` over owned `items` on the pool, returning results in item
    /// order.
    ///
    /// Uses `current_threads()` workers (so `CPGAN_THREADS=1` and
    /// [`crate::with_thread_count`]`(1, ..)` run serially inline on the
    /// caller). Results are gathered as `(index, value)` pairs and sorted by
    /// index, so output order is independent of scheduling; for
    /// deterministic `f`, the output is bit-identical at every thread
    /// count. If no worker thread can be started, the batch runs inline on
    /// the caller, as in the serial case. A panicking job is forwarded to
    /// the caller after the whole batch completes.
    pub fn par_map_owned<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send + 'static,
        R: Send + 'static,
        F: Fn(usize, T) -> R + Send + Sync + 'static,
    {
        let n = items.len();
        let workers = current_threads().min(n);
        // The jobs counter is bumped on the caller in BOTH execution paths,
        // so its value is thread-count invariant (obs determinism contract).
        cpgan_obs::counter_add("parallel.pool.jobs", n as u64);
        if workers <= 1 || self.ensure_workers(workers) == 0 {
            return items
                .into_iter()
                .enumerate()
                .map(|(i, t)| run_job(&f, i, t))
                .collect();
        }
        let f = Arc::new(f);
        let (done_tx, done_rx) = channel();
        {
            let sender = self.sender.lock();
            for (i, item) in items.into_iter().enumerate() {
                let f = Arc::clone(&f);
                let done = done_tx.clone();
                let queued = cpgan_obs::enabled().then(cpgan_obs::Stopwatch::start);
                let job: Job = Box::new(move || {
                    if let Some(q) = queued {
                        cpgan_obs::counter_add("parallel.pool.queue_wait_ns", q.elapsed_ns());
                    }
                    let out = catch_unwind(AssertUnwindSafe(|| run_job(f.as_ref(), i, item)));
                    // The batch channel outlives the job; a send can only
                    // fail if the caller already panicked and dropped the
                    // receiver, in which case the result is moot.
                    let _ = done.send((i, out));
                });
                // Send cannot fail: the receiver lives in `self`.
                let _ = sender.send(job);
            }
        }
        drop(done_tx);
        let mut results = Vec::with_capacity(n);
        let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
        for (i, out) in done_rx {
            match out {
                Ok(r) => results.push((i, r)),
                Err(p) => panic = Some(p),
            }
        }
        if let Some(p) = panic {
            resume_unwind(p);
        }
        results.sort_unstable_by_key(|&(i, _)| i);
        results.into_iter().map(|(_, r)| r).collect()
    }
}

/// Runs one pool job under an empty observability span stack — in both the
/// serial-inline and worker-thread paths — so span paths recorded inside the
/// job never depend on where (or whether) it was scheduled. Worker busy time
/// accumulates in the `parallel.pool.busy_ns` counter.
fn run_job<T, R>(f: &(impl Fn(usize, T) -> R + Sync), i: usize, item: T) -> R {
    cpgan_obs::with_root_scope(|| {
        if cpgan_obs::enabled() {
            let busy = cpgan_obs::Stopwatch::start();
            let r = f(i, item);
            cpgan_obs::counter_add("parallel.pool.busy_ns", busy.elapsed_ns());
            r
        } else {
            f(i, item)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::with_thread_count;

    #[test]
    fn owned_map_preserves_order_across_thread_counts() {
        let serial = with_thread_count(1, || {
            Pool::global().par_map_owned((0..40u64).collect(), |i, x| i as u64 * 100 + x * x)
        });
        for threads in [2, 4] {
            let par = with_thread_count(threads, || {
                Pool::global().par_map_owned((0..40u64).collect(), |i, x| i as u64 * 100 + x * x)
            });
            assert_eq!(par, serial, "threads={threads}");
        }
    }

    #[test]
    fn pool_is_reusable_across_batches() {
        let pool = Pool::global();
        for round in 0..3u64 {
            let out = with_thread_count(4, || {
                pool.par_map_owned(vec![1u64, 2, 3], move |_, x| x + round)
            });
            assert_eq!(out, vec![1 + round, 2 + round, 3 + round]);
        }
    }

    #[test]
    fn job_panic_propagates_to_caller() {
        let caught = std::panic::catch_unwind(|| {
            with_thread_count(4, || {
                Pool::global().par_map_owned(vec![0u32, 1, 2, 3], |_, x| {
                    assert!(x != 2, "job blew up");
                    x
                })
            })
        });
        assert!(caught.is_err());
        // The pool survives the panic and still runs new batches.
        let out = with_thread_count(2, || Pool::global().par_map_owned(vec![5u32], |_, x| x * 2));
        assert_eq!(out, vec![10]);
    }

    #[test]
    fn batch_runs_inline_when_no_worker_starts() {
        let pool = Pool::with_spawner(|_, _| Err(std::io::Error::other("no threads")));
        // Without the inline fallback this would queue jobs no worker ever
        // runs and block forever.
        let out = with_thread_count(4, || {
            pool.par_map_owned((0..9u64).collect(), |i, x| i as u64 * 7 + x)
        });
        assert_eq!(out, (0..9u64).map(|x| x * 8).collect::<Vec<_>>());
        assert_eq!(*pool.spawned.lock(), 0);
    }
}
