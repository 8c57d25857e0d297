//! Serial-equivalence suite: every parallelized graph statistic (local
//! clustering and the CPL BFS fan-out) must produce
//! bit-identical output at any thread count — the determinism contract of
//! DESIGN.md §8. Floating-point results are compared as raw bit patterns,
//! not within a tolerance.

// Test-support helpers sit outside `#[test]` fns, where the
// `allow-*-in-tests` carve-out does not reach.
#![allow(clippy::panic, clippy::unwrap_used, clippy::expect_used)]

use cpgan_graph::stats::{clustering, path};
use cpgan_graph::Graph;
use cpgan_parallel::with_thread_count;

/// A deterministic graph with triangles, hubs, and varied path lengths:
/// `n`-ring plus chords at two strides.
fn fixture_graph(n: u32) -> Graph {
    let mut edges: Vec<(u32, u32)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
    edges.extend((0..n).step_by(3).map(|i| (i, (i + 2) % n)));
    edges.extend((0..n / 4).map(|i| (i, i + n / 2)));
    edges.sort_unstable();
    edges.dedup();
    let g = Graph::from_edges(n as usize, edges).unwrap();
    assert!(
        clustering::triangle_count(&g) > 0,
        "fixture needs triangles"
    );
    g
}

fn assert_equivalent_f64(what: &str, f: impl Fn() -> Vec<f64>) {
    let serial = with_thread_count(1, &f);
    for threads in [2, 4, 8] {
        let parallel = with_thread_count(threads, &f);
        assert_eq!(serial.len(), parallel.len(), "{what}: length mismatch");
        for (i, (a, b)) in serial.iter().zip(&parallel).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{what}[{i}] differs at {threads} threads: {a} vs {b}"
            );
        }
    }
}

#[test]
fn clustering_bitwise_equal_across_thread_counts() {
    // 600 nodes spans several 256-node blocks.
    let g = fixture_graph(600);
    assert_equivalent_f64("local_clustering", || clustering::local_clustering(&g));
    assert_equivalent_f64("mean_clustering", || vec![clustering::mean_clustering(&g)]);
}

#[test]
fn cpl_bitwise_equal_across_thread_counts() {
    let g = fixture_graph(300);
    assert_equivalent_f64("cpl_exact", || {
        vec![path::characteristic_path_length(&g, usize::MAX)]
    });
    assert_equivalent_f64("cpl_sampled", || {
        vec![path::characteristic_path_length(&g, 64)]
    });
    let serial = with_thread_count(1, || path::diameter_lower_bound(&g, usize::MAX));
    for threads in [2, 4, 8] {
        let parallel = with_thread_count(threads, || path::diameter_lower_bound(&g, usize::MAX));
        assert_eq!(serial, parallel, "diameter at {threads} threads");
    }
}
