//! Maximum Mean Discrepancy between graph-statistic distributions.
//!
//! The paper's "Deg." and "Clus." columns (Tables IV–VI) are MMD values
//! between the degree / clustering-coefficient distributions of the observed
//! and generated graphs, following the GraphRNN evaluation protocol: each
//! graph is summarized as a histogram, histograms are compared with a
//! Gaussian kernel over the first Wasserstein (earth mover's) distance, and
//! MMD^2 is the standard biased two-sample estimate.

use crate::stats::{clustering, degree};
use crate::Graph;

/// First Wasserstein distance between two discrete distributions given as
/// (possibly different-length) histograms over the same integer grid.
pub fn emd_1d(p: &[f64], q: &[f64]) -> f64 {
    let len = p.len().max(q.len());
    let mut cum_p = 0.0;
    let mut cum_q = 0.0;
    let mut dist = 0.0;
    for i in 0..len {
        cum_p += p.get(i).copied().unwrap_or(0.0);
        cum_q += q.get(i).copied().unwrap_or(0.0);
        dist += (cum_p - cum_q).abs();
    }
    dist
}

/// Gaussian kernel over the EMD: `exp(-W1(p, q)^2 / (2 sigma^2))`.
pub fn gaussian_emd_kernel(p: &[f64], q: &[f64], sigma: f64) -> f64 {
    gaussian_emd_kernel_scaled(p, q, sigma, 1.0)
}

/// Gaussian EMD kernel with the W1 distance measured in units of
/// `bin_width` (clustering-coefficient histograms live on `[0, 1]` with
/// 1/[`CLUSTERING_BINS`] wide bins; degree histograms use unit bins).
pub fn gaussian_emd_kernel_scaled(p: &[f64], q: &[f64], sigma: f64, bin_width: f64) -> f64 {
    let d = emd_1d(p, q) * bin_width;
    (-d * d / (2.0 * sigma * sigma)).exp()
}

/// Biased MMD^2 estimate between two samples of histograms.
///
/// `MMD^2 = E[k(x,x')] + E[k(y,y')] - 2 E[k(x,y)]`, clamped at 0 to absorb
/// floating-point negativity of the biased estimator.
pub fn mmd_squared(xs: &[Vec<f64>], ys: &[Vec<f64>], sigma: f64) -> f64 {
    mmd_squared_scaled(xs, ys, sigma, 1.0)
}

/// [`mmd_squared`] with the EMD measured in units of `bin_width`.
pub fn mmd_squared_scaled(xs: &[Vec<f64>], ys: &[Vec<f64>], sigma: f64, bin_width: f64) -> f64 {
    let _span = cpgan_obs::span("graph.mmd");
    cpgan_obs::hist_record("graph.mmd.pairs", (xs.len() * ys.len()) as f64);
    /// Rows of `a` per partial sum of the kernel matrix; partials are added
    /// in row order, so this constant fixes the float summation order.
    const ROW_CHUNK: usize = 4;
    fn mean_kernel(a: &[Vec<f64>], b: &[Vec<f64>], sigma: f64, w: f64) -> f64 {
        if a.is_empty() || b.is_empty() {
            return 0.0;
        }
        let total: f64 = a
            .chunks(ROW_CHUNK)
            .map(|rows| {
                let mut partial = 0.0;
                for p in rows {
                    for q in b {
                        partial += gaussian_emd_kernel_scaled(p, q, sigma, w);
                    }
                }
                partial
            })
            .sum();
        total / (a.len() * b.len()) as f64
    }
    let v = mean_kernel(xs, xs, sigma, bin_width) + mean_kernel(ys, ys, sigma, bin_width)
        - 2.0 * mean_kernel(xs, ys, sigma, bin_width);
    v.max(0.0)
}

/// Default kernel bandwidth used by the GraphRNN evaluation scripts.
pub const DEFAULT_SIGMA: f64 = 1.0;

/// Number of bins used to histogram clustering coefficients in `[0, 1]`.
pub const CLUSTERING_BINS: usize = 100;

/// Normalized degree histogram of a graph (sums to 1; empty graph -> empty).
pub fn degree_histogram_normalized(g: &Graph) -> Vec<f64> {
    degree::degree_distribution(g)
}

/// Normalized histogram of local clustering coefficients over
/// [`CLUSTERING_BINS`] equal bins of `[0, 1]`.
pub fn clustering_histogram_normalized(g: &Graph) -> Vec<f64> {
    let mut hist = vec![0.0f64; CLUSTERING_BINS];
    if g.n() == 0 {
        return hist;
    }
    for c in clustering::local_clustering(g) {
        let bin = ((c * CLUSTERING_BINS as f64) as usize).min(CLUSTERING_BINS - 1);
        hist[bin] += 1.0;
    }
    let n = g.n() as f64;
    for h in &mut hist {
        *h /= n;
    }
    hist
}

/// MMD^2 between the degree distributions of two graphs (paper "Deg.").
pub fn degree_mmd(observed: &Graph, generated: &Graph) -> f64 {
    mmd_squared(
        &[degree_histogram_normalized(observed)],
        &[degree_histogram_normalized(generated)],
        DEFAULT_SIGMA,
    )
}

/// MMD^2 between the clustering-coefficient distributions (paper "Clus.").
/// The W1 distance is measured in coefficient units (`[0, 1]` support, bin
/// width `1/CLUSTERING_BINS`), following the GraphRNN evaluation scripts.
pub fn clustering_mmd(observed: &Graph, generated: &Graph) -> f64 {
    mmd_squared_scaled(
        &[clustering_histogram_normalized(observed)],
        &[clustering_histogram_normalized(generated)],
        DEFAULT_SIGMA,
        1.0 / CLUSTERING_BINS as f64,
    )
}

/// MMD^2 between two *sets* of graphs' degree distributions, for callers that
/// evaluate a generator over several samples.
pub fn degree_mmd_sets(observed: &[Graph], generated: &[Graph]) -> f64 {
    let xs: Vec<Vec<f64>> = observed.iter().map(degree_histogram_normalized).collect();
    let ys: Vec<Vec<f64>> = generated.iter().map(degree_histogram_normalized).collect();
    mmd_squared(&xs, &ys, DEFAULT_SIGMA)
}

#[cfg(test)]
// Tests may assert exact float values (constructed, not computed).
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    #[test]
    fn emd_identical_zero() {
        let p = vec![0.25, 0.5, 0.25];
        assert_eq!(emd_1d(&p, &p), 0.0);
    }

    #[test]
    fn emd_shift_by_one() {
        // Moving all mass one bin right costs 1.
        let p = vec![1.0, 0.0];
        let q = vec![0.0, 1.0];
        assert!((emd_1d(&p, &q) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn emd_handles_unequal_lengths() {
        let p = vec![1.0];
        let q = vec![0.0, 0.0, 1.0];
        assert!((emd_1d(&p, &q) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn mmd_zero_for_same_graph() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        assert!(degree_mmd(&g, &g) < 1e-12);
        assert!(clustering_mmd(&g, &g) < 1e-12);
    }

    #[test]
    fn mmd_larger_for_more_different_graphs() {
        let path = Graph::from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]).unwrap();
        let near = Graph::from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]).unwrap();
        let star = Graph::from_edges(6, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]).unwrap();
        let d_near = degree_mmd(&path, &near);
        let d_far = degree_mmd(&path, &star);
        assert!(d_far > d_near, "far {d_far} <= near {d_near}");
    }

    #[test]
    fn mmd_sets_symmetric() {
        let a = Graph::from_edges(4, [(0, 1), (1, 2)]).unwrap();
        let b = Graph::from_edges(4, [(0, 1), (0, 2), (0, 3)]).unwrap();
        let xy = degree_mmd_sets(std::slice::from_ref(&a), std::slice::from_ref(&b));
        let yx = degree_mmd_sets(&[b], &[a]);
        assert!((xy - yx).abs() < 1e-12);
    }
}
