#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Deterministic parallel runtime for the workspace's hot paths.
//!
//! Every primitive here upholds one contract: **the result is bit-identical
//! for every thread count**, including `CPGAN_THREADS=1` (pure serial
//! execution). That determinism is what makes the serial-equivalence test
//! layer possible — each parallelized computation is tested by running it
//! at 1 and several threads and asserting bitwise-equal outputs.
//!
//! The contract is achieved by construction:
//!
//! * work is split into **fixed-size chunks** whose boundaries depend only
//!   on the problem shape (never on the thread count),
//! * chunk results are **combined in chunk-index order** on the calling
//!   thread, and
//! * the single-thread path runs the *same* chunk loop inline, so there is
//!   exactly one numerical code path.
//!
//! Threads are claimed from `std::thread::available_parallelism`, overridable
//! with the `CPGAN_THREADS` environment variable (`CPGAN_THREADS=1` degrades
//! every primitive to serial execution) and, per thread, with
//! [`with_thread_count`] (used by the equivalence tests to exercise both
//! paths in one process).
//!
//! Two execution tiers (see DESIGN.md §8):
//!
//! * **Scoped tier** — [`par_chunks_mut`], [`par_reduce`] borrow caller
//!   data directly and run on `std::thread::scope`. The workspace forbids
//!   `unsafe_code`, and lending non-`'static` borrows to long-lived workers
//!   requires lifetime erasure, so the scoped tier spawns scoped OS threads
//!   per call. Only the graph statistics that measurably gain from it use
//!   it: local clustering and the CPL BFS fan-out. The
//!   `cpgan-nn` kernels, spectral embedding and MMD run serially, because
//!   per-call spawns inside their millisecond calls cost more than they
//!   save (DESIGN.md §8).
//! * **Pool tier** — [`Pool`] keeps persistent workers alive for owned
//!   (`'static`) coarse-grained jobs, e.g. the evaluation pipeline's
//!   independent baseline-generator runs ([`Pool::par_map_owned`]).
//!
//! A third, non-numeric entry point, [`spawn_service`], hosts long-lived
//! infrastructure threads (the serving layer's acceptor/workers); it is
//! outside the determinism contract because service threads communicate
//! only through explicit synchronization and never combine numeric
//! results by scheduling order.

mod pool;
mod scoped;
mod service;
mod threads;

pub use pool::Pool;
pub use scoped::{par_chunks_mut, par_reduce};
pub use service::spawn_service;
pub use threads::{current_threads, with_thread_count};

/// Splits `n` items into fixed chunks of at most `chunk` items and returns
/// the number of chunks. Chunk boundaries depend only on `(n, chunk)` — the
/// determinism contract's anchor.
#[inline]
pub fn chunk_count(n: usize, chunk: usize) -> usize {
    n.div_ceil(chunk.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_count_covers_all_items() {
        assert_eq!(chunk_count(0, 8), 0);
        assert_eq!(chunk_count(1, 8), 1);
        assert_eq!(chunk_count(8, 8), 1);
        assert_eq!(chunk_count(9, 8), 2);
        assert_eq!(chunk_count(17, 8), 3);
        assert_eq!(chunk_count(5, 0), 5); // degenerate chunk size clamps to 1
    }
}
