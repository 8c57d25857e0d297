//! Scoped, borrow-based primitives: fixed chunking, index-ordered combining.
//!
//! Both primitives share one execution scheme: the work is split into
//! chunks whose boundaries depend only on the problem shape, a shared queue
//! hands chunks to `current_threads() - 1` scoped helper threads plus the
//! calling thread, and any per-chunk results are re-assembled **in chunk
//! order** on the calling thread. Which thread computes a chunk never
//! affects the value of anything — that is the determinism contract.

use crate::threads::current_threads;
use parking_lot::Mutex;
use std::ops::Range;

/// Applies `f(chunk_index, chunk)` to disjoint consecutive chunks of at most
/// `chunk` elements of `data`, in parallel.
///
/// Chunk boundaries depend only on `(data.len(), chunk)`. Each output
/// element is written by exactly one invocation, so the result is identical
/// for every thread count.
pub fn par_chunks_mut<T, F>(data: &mut [T], chunk: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let chunk = chunk.max(1);
    let chunks = crate::chunk_count(data.len(), chunk);
    let workers = current_threads().min(chunks);
    if workers <= 1 {
        for (i, c) in data.chunks_mut(chunk).enumerate() {
            f(i, c);
        }
        return;
    }
    let queue = Mutex::new(data.chunks_mut(chunk).enumerate());
    let run = |queue: &Mutex<std::iter::Enumerate<std::slice::ChunksMut<'_, T>>>| loop {
        let next = queue.lock().next();
        match next {
            Some((i, c)) => f(i, c),
            None => break,
        }
    };
    std::thread::scope(|s| {
        for _ in 1..workers {
            s.spawn(|| run(&queue));
        }
        run(&queue);
    });
}

/// Ordered parallel reduction over the index range `0..n`.
///
/// `map` is evaluated on fixed consecutive chunks `i*chunk..min((i+1)*chunk, n)`
/// and the per-chunk results are folded with `combine` **in chunk-index
/// order** on the calling thread:
///
/// ```text
/// combine(combine(map(c0), map(c1)), map(c2)) ...
/// ```
///
/// Because the chunk boundaries and the fold order are both fixed, the
/// result is bit-identical for every thread count even for non-associative
/// floating-point combines. Returns `None` when `n == 0`.
pub fn par_reduce<R, M, C>(n: usize, chunk: usize, map: M, combine: C) -> Option<R>
where
    R: Send,
    M: Fn(Range<usize>) -> R + Sync,
    C: Fn(R, R) -> R,
{
    let chunk = chunk.max(1);
    let ranges = move |i: usize| -> Range<usize> { i * chunk..((i + 1) * chunk).min(n) };
    let chunks = crate::chunk_count(n, chunk);
    let workers = current_threads().min(chunks);
    if workers <= 1 {
        return (0..chunks).map(|i| map(ranges(i))).reduce(combine);
    }
    let queue = Mutex::new(0..chunks);
    let results: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(chunks));
    let run = || loop {
        let next = queue.lock().next();
        match next {
            Some(i) => {
                let r = map(ranges(i));
                results.lock().push((i, r));
            }
            None => break,
        }
    };
    std::thread::scope(|s| {
        for _ in 1..workers {
            s.spawn(run);
        }
        run();
    });
    let mut pairs = results.into_inner();
    pairs.sort_unstable_by_key(|&(i, _)| i);
    pairs.into_iter().map(|(_, r)| r).reduce(combine)
}

#[cfg(test)]
// Tests may assert exact float values: determinism is the feature under test.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use crate::with_thread_count;

    #[test]
    fn chunks_mut_writes_every_element_once() {
        for threads in [1, 2, 4, 7] {
            let mut data = vec![0u32; 103];
            with_thread_count(threads, || {
                par_chunks_mut(&mut data, 8, |ci, chunk| {
                    for (k, v) in chunk.iter_mut().enumerate() {
                        *v = (ci * 8 + k) as u32 + 1;
                    }
                });
            });
            let expect: Vec<u32> = (1..=103).collect();
            assert_eq!(data, expect, "threads={threads}");
        }
    }

    #[test]
    fn reduce_is_bit_identical_across_thread_counts() {
        // A non-associative float fold: ordering matters, so equality is a
        // real check of the fixed-chunk + ordered-combine contract.
        let vals: Vec<f32> = (0..1000).map(|i| ((i * 37) % 101) as f32 * 0.137).collect();
        let sum = |r: Range<usize>| -> f32 { r.map(|i| vals[i] * vals[i]).sum() };
        let serial = with_thread_count(1, || par_reduce(vals.len(), 64, sum, |a, b| a + b));
        for threads in [2, 4, 8] {
            let par = with_thread_count(threads, || par_reduce(vals.len(), 64, sum, |a, b| a + b));
            assert_eq!(par, serial, "threads={threads}");
        }
    }

    #[test]
    fn reduce_empty_is_none() {
        assert_eq!(par_reduce(0, 16, |_| 1u64, |a, b| a + b), None);
    }

    #[test]
    fn reduce_combines_in_index_order() {
        // Concatenation is order-sensitive; the result must read 0,1,2,...
        let out = with_thread_count(4, || {
            par_reduce(
                10,
                3,
                |r| r.map(|i| i.to_string()).collect::<Vec<_>>().join(","),
                |a, b| format!("{a},{b}"),
            )
        });
        assert_eq!(out.as_deref(), Some("0,1,2,3,4,5,6,7,8,9"));
    }

    #[test]
    fn empty_inputs_are_fine() {
        let mut empty: Vec<u8> = Vec::new();
        par_chunks_mut(&mut empty, 4, |_, _| {});
    }
}
