//! Local clustering coefficients (triangle-based).

use crate::{Graph, NodeId};

/// Number of triangles through node `v`, computed by merging sorted neighbor
/// lists (`O(sum over neighbors of deg)`).
fn triangles_at(g: &Graph, v: NodeId) -> usize {
    let nv = g.neighbors(v);
    let mut count = 0usize;
    for (i, &w) in nv.iter().enumerate() {
        let nw = g.neighbors(w);
        // Intersect nv[i+1..] with nw via two-pointer merge.
        let rest = &nv[i + 1..];
        let (mut a, mut b) = (0usize, 0usize);
        while a < rest.len() && b < nw.len() {
            match rest[a].cmp(&nw[b]) {
                std::cmp::Ordering::Less => a += 1,
                std::cmp::Ordering::Greater => b += 1,
                std::cmp::Ordering::Equal => {
                    count += 1;
                    a += 1;
                    b += 1;
                }
            }
        }
    }
    count
}

/// Nodes per parallel block for the per-node statistics. Fixed (not
/// thread-dependent) so results are identical at every `CPGAN_THREADS`
/// setting.
const NODE_CHUNK: usize = 256;

/// Local clustering coefficient per node: `2T(v) / (deg(v)(deg(v)-1))`,
/// defined as 0 for degree < 2. Node-blocked across the pool (each
/// coefficient is independent, so the output is thread-count independent).
pub fn local_clustering(g: &Graph) -> Vec<f64> {
    let _span = cpgan_obs::span("graph.clustering");
    let mut out = vec![0.0f64; g.n()];
    cpgan_parallel::par_chunks_mut(&mut out, NODE_CHUNK, |ci, chunk| {
        for (k, slot) in chunk.iter_mut().enumerate() {
            let v = (ci * NODE_CHUNK + k) as NodeId;
            let d = g.degree(v);
            if d >= 2 {
                let t = triangles_at(g, v);
                *slot = 2.0 * t as f64 / (d * (d - 1)) as f64;
            }
        }
    });
    out
}

/// Mean local clustering coefficient (0 for the empty graph).
pub fn mean_clustering(g: &Graph) -> f64 {
    if g.n() == 0 {
        return 0.0;
    }
    local_clustering(g).iter().sum::<f64>() / g.n() as f64
}

/// Total number of triangles in the graph.
pub fn triangle_count(g: &Graph) -> usize {
    // Each triangle is counted at all three vertices.
    (0..g.n())
        .map(|v| triangles_at(g, v as NodeId))
        .sum::<usize>()
        / 3
}

#[cfg(test)]
// Tests may assert exact float values (constructed, not computed).
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    #[test]
    fn triangle_is_fully_clustered() {
        let g = Graph::from_edges(3, [(0, 1), (1, 2), (2, 0)]).unwrap();
        assert_eq!(local_clustering(&g), vec![1.0, 1.0, 1.0]);
        assert_eq!(triangle_count(&g), 1);
    }

    #[test]
    fn path_has_no_triangles() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        assert_eq!(mean_clustering(&g), 0.0);
        assert_eq!(triangle_count(&g), 0);
    }

    #[test]
    fn square_with_diagonal() {
        // 0-1-2-3-0 plus diagonal 0-2: two triangles (0,1,2) and (0,2,3).
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]).unwrap();
        assert_eq!(triangle_count(&g), 2);
        let cc = local_clustering(&g);
        // Node 1 has neighbors {0, 2} which are adjacent: cc = 1.
        assert!((cc[1] - 1.0).abs() < 1e-12);
        // Node 0 has neighbors {1, 2, 3}; pairs (1,2) and (2,3) adjacent: 2/3.
        assert!((cc[0] - 2.0 / 3.0).abs() < 1e-12);
    }
}
