//! Spectral node embeddings.
//!
//! The paper sets the default node feature matrix to spectral embeddings of
//! the adjacency matrix, `X = X(A)` (§III-C1). We compute the top-`d`
//! eigenvectors of the self-loop-augmented symmetric normalized adjacency
//! `Â = D̃^{-1/2} (A + I) D̃^{-1/2}` by orthogonal (subspace) iteration with
//! Gram–Schmidt re-orthonormalization, using only sparse mat-vec products —
//! `O(iters * d * (m + n d))`, which scales to the 100k-node sweeps.

use crate::{Graph, NodeId};

/// Multiplies `Â x` into `out` where `Â` is the normalized adjacency with
/// self-loops of `g`. `inv_sqrt_deg[v] = 1 / sqrt(deg(v) + 1)`.
fn normalized_adj_matvec(g: &Graph, inv_sqrt_deg: &[f64], x: &[f64], out: &mut [f64]) {
    for v in 0..g.n() {
        let dv = inv_sqrt_deg[v];
        // Self-loop contribution: Â_vv = 1 / (deg(v) + 1).
        let mut acc = dv * dv * x[v];
        for &w in g.neighbors(v as NodeId) {
            acc += dv * inv_sqrt_deg[w as usize] * x[w as usize];
        }
        out[v] = acc;
    }
}

/// Orthonormalizes `cols` (each of length `n`) in place via modified
/// Gram–Schmidt. Columns that collapse to (near) zero are re-seeded
/// deterministically so the subspace keeps full rank.
fn gram_schmidt(cols: &mut [Vec<f64>], reseed: &mut u64) {
    let k = cols.len();
    for i in 0..k {
        for j in 0..i {
            let dot: f64 = cols[i].iter().zip(&cols[j]).map(|(a, b)| a * b).sum();
            let (head, tail) = cols.split_at_mut(i);
            let cj = &head[j];
            for (a, b) in tail[0].iter_mut().zip(cj) {
                *a -= dot * b;
            }
        }
        let norm: f64 = cols[i].iter().map(|a| a * a).sum::<f64>().sqrt();
        if norm < 1e-12 {
            // Degenerate direction (e.g. d exceeds the spectrum's effective
            // rank): reseed with a deterministic pseudo-random vector.
            for (idx, a) in cols[i].iter_mut().enumerate() {
                *reseed = reseed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(idx as u64 | 1);
                *a = ((*reseed >> 33) as f64 / (1u64 << 31) as f64) - 1.0;
            }
            let n2: f64 = cols[i].iter().map(|a| a * a).sum::<f64>().sqrt();
            for a in cols[i].iter_mut() {
                *a /= n2;
            }
        } else {
            for a in cols[i].iter_mut() {
                *a /= norm;
            }
        }
    }
}

/// Computes a row-major `n x d` spectral embedding of `g`.
///
/// Deterministic for a given `(g, d, seed)`. For `d = 0` or an empty graph an
/// empty vector is returned.
pub fn spectral_embedding(g: &Graph, d: usize, seed: u64) -> Vec<f32> {
    let _span = cpgan_obs::span("graph.spectral");
    let n = g.n();
    if n == 0 || d == 0 {
        return Vec::new();
    }
    let d = d.min(n);
    let inv_sqrt_deg: Vec<f64> = (0..n)
        .map(|v| 1.0 / ((g.degree(v as NodeId) as f64) + 1.0).sqrt())
        .collect();

    // Deterministic pseudo-random initial subspace (SplitMix-style stream).
    let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
    let mut next = || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut cols: Vec<Vec<f64>> = (0..d)
        .map(|_| {
            (0..n)
                .map(|_| ((next() >> 33) as f64 / (1u64 << 31) as f64) - 1.0)
                .collect()
        })
        .collect();
    let mut reseed = seed | 1;
    gram_schmidt(&mut cols, &mut reseed);

    let iters = 30 + 2 * d;
    let mut tmp = vec![0.0f64; n];
    for _ in 0..iters {
        for col in cols.iter_mut() {
            normalized_adj_matvec(g, &inv_sqrt_deg, col, &mut tmp);
            std::mem::swap(col, &mut tmp);
        }
        gram_schmidt(&mut cols, &mut reseed);
    }

    // Interleave into row-major n x d, f32.
    let mut out = vec![0.0f32; n * d];
    for (j, col) in cols.iter().enumerate() {
        for (i, &v) in col.iter().enumerate() {
            out[i * d + j] = v as f32;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn karate_like() -> Graph {
        // Two 6-cliques joined by one bridge edge: strong 2-community graph.
        let mut edges = Vec::new();
        for u in 0..6u32 {
            for v in (u + 1)..6 {
                edges.push((u, v));
                edges.push((u + 6, v + 6));
            }
        }
        edges.push((0, 6));
        Graph::from_edges(12, edges).unwrap()
    }

    #[test]
    fn embedding_shape_and_determinism() {
        let g = karate_like();
        let e1 = spectral_embedding(&g, 4, 7);
        let e2 = spectral_embedding(&g, 4, 7);
        assert_eq!(e1.len(), 12 * 4);
        assert_eq!(e1, e2);
    }

    #[test]
    fn leading_eigenvector_separates_components() {
        // Two disjoint triangles: the top-2 eigenspace is spanned by the
        // component indicators, so rows within a component agree and across
        // components differ in the 2-d embedding.
        let g = Graph::from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]).unwrap();
        let e = spectral_embedding(&g, 2, 3);
        let row = |i: usize| (e[i * 2] as f64, e[i * 2 + 1] as f64);
        let d_same = {
            let (a, b) = (row(0), row(1));
            ((a.0 - b.0).powi(2) + (a.1 - b.1).powi(2)).sqrt()
        };
        let d_diff = {
            let (a, b) = (row(0), row(3));
            ((a.0 - b.0).powi(2) + (a.1 - b.1).powi(2)).sqrt()
        };
        assert!(d_same < 1e-6, "within-component distance {d_same}");
        assert!(d_diff > 0.1, "cross-component distance {d_diff}");
    }

    #[test]
    fn columns_orthonormal() {
        let g = karate_like();
        let d = 3;
        let e = spectral_embedding(&g, d, 11);
        let n = g.n();
        for a in 0..d {
            for b in a..d {
                let dot: f64 = (0..n)
                    .map(|i| e[i * d + a] as f64 * e[i * d + b] as f64)
                    .sum();
                let expect = if a == b { 1.0 } else { 0.0 };
                assert!((dot - expect).abs() < 1e-3, "col {a}·{b} = {dot}");
            }
        }
    }

    #[test]
    fn d_capped_at_n() {
        let g = Graph::from_edges(3, [(0, 1), (1, 2)]).unwrap();
        let e = spectral_embedding(&g, 10, 1);
        assert_eq!(e.len(), 3 * 3);
    }
}
