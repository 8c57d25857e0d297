//! Compressed sparse row matrices for graph operators.
//!
//! The encoder's message passing (paper Eq. 6) multiplies the symmetric
//! normalized adjacency `D̃^{-1/2} Ã D̃^{-1/2}` by dense feature matrices.
//! Keeping the adjacency sparse gives the `O(m + n)` per-layer cost the
//! paper's complexity analysis relies on.

use crate::kernels::FusedAct;
use crate::Matrix;
use cpgan_graph::Graph;
use std::sync::{Arc, OnceLock};

/// A CSR sparse `f32` matrix.
#[derive(Debug, Clone)]
pub struct Csr {
    rows: usize,
    cols: usize,
    offsets: Vec<usize>,
    indices: Vec<u32>,
    values: Vec<f32>,
    /// Lazily memoized transpose (see [`Csr::transpose_cached`]). Not part
    /// of the matrix's value: equality and serialization ignore it.
    cached_t: OnceLock<Arc<Csr>>,
}

impl PartialEq for Csr {
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self.offsets == other.offsets
            && self.indices == other.indices
            && self.values == other.values
    }
}

impl Csr {
    /// Builds from row-major triplets `(row, col, value)`; triplets must be
    /// sorted by `(row, col)` with no duplicates.
    pub fn from_sorted_triplets(
        rows: usize,
        cols: usize,
        triplets: impl IntoIterator<Item = (usize, usize, f32)>,
    ) -> Self {
        let mut offsets = vec![0usize; rows + 1];
        let mut indices = Vec::new();
        let mut values = Vec::new();
        let mut last: Option<(usize, usize)> = None;
        for (r, c, v) in triplets {
            assert!(r < rows && c < cols, "triplet out of bounds");
            if let Some(prev) = last {
                assert!(prev < (r, c), "triplets must be sorted and unique");
            }
            last = Some((r, c));
            offsets[r + 1] += 1;
            indices.push(c as u32);
            values.push(v);
        }
        for r in 0..rows {
            offsets[r + 1] += offsets[r];
        }
        Csr {
            rows,
            cols,
            offsets,
            indices,
            values,
            cached_t: OnceLock::new(),
        }
    }

    /// The symmetric normalized adjacency with self-loops of `g`:
    /// `Â = D̃^{-1/2} (A + I) D̃^{-1/2}` (paper Eq. 6).
    pub fn normalized_adjacency(g: &Graph) -> Self {
        let n = g.n();
        let inv_sqrt: Vec<f32> = (0..n)
            .map(|v| 1.0 / ((g.degree(v as u32) as f32) + 1.0).sqrt())
            .collect();
        let mut triplets = Vec::with_capacity(2 * g.m() + n);
        for u in 0..n {
            let du = inv_sqrt[u];
            // Merge sorted neighbors with the diagonal entry.
            let mut placed_diag = false;
            for &w in g.neighbors(u as u32) {
                let w = w as usize;
                if !placed_diag && w > u {
                    triplets.push((u, u, du * du));
                    placed_diag = true;
                }
                triplets.push((u, w, du * inv_sqrt[w]));
            }
            if !placed_diag {
                triplets.push((u, u, du * du));
            }
        }
        Csr::from_sorted_triplets(n, n, triplets)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Whether this matrix is square and symmetric (entry-wise).
    pub fn is_symmetric(&self) -> bool {
        if self.rows != self.cols {
            return false;
        }
        for r in 0..self.rows {
            for (c, v) in self.row_iter(r) {
                match self.get(c as usize, r) {
                    Some(w) if (w - v).abs() <= 1e-6 * v.abs().max(1.0) => {}
                    _ => return false,
                }
            }
        }
        true
    }

    /// Value at `(r, c)` if stored.
    pub fn get(&self, r: usize, c: usize) -> Option<f32> {
        let range = self.offsets[r]..self.offsets[r + 1];
        let row = &self.indices[range.clone()];
        row.binary_search(&(c as u32))
            .ok()
            .map(|i| self.values[range.start + i])
    }

    /// Iterator over `(col, value)` of row `r`.
    pub fn row_iter(&self, r: usize) -> impl Iterator<Item = (u32, f32)> + '_ {
        let range = self.offsets[r]..self.offsets[r + 1];
        self.indices[range.clone()]
            .iter()
            .copied()
            .zip(self.values[range].iter().copied())
    }

    /// Sparse x dense product `self * x`.
    ///
    /// Each output row accumulates its own CSR row in index order.
    pub fn matmul_dense(&self, x: &Matrix) -> Matrix {
        assert_eq!(self.cols, x.rows(), "spmm shape mismatch");
        let _span = cpgan_obs::span("nn.spmm");
        cpgan_obs::hist_record("nn.spmm.nnz", self.nnz() as f64);
        cpgan_obs::hist_record("nn.spmm.flops", 2.0 * self.nnz() as f64 * x.cols() as f64);
        let d = x.cols();
        let mut out = Matrix::zeros(self.rows, d);
        if d == 0 {
            return out;
        }
        for (r, out_row) in out.as_mut_slice().chunks_mut(d).enumerate() {
            self.accumulate_row(r, x, out_row);
        }
        out
    }

    /// Fused `act(self * x + bias)` in one pass over the output.
    ///
    /// Identical accumulation to [`matmul_dense`](Self::matmul_dense)
    /// followed, per output row while it is still cache-hot, by the row
    /// bias add and the activation map. Per element the float ops and their
    /// order are exactly the composed `spmm → add_row_broadcast → act`
    /// sequence, so the result is bit-identical to the unfused op chain.
    ///
    /// `bias` is a `1 × x.cols()` row (or `None` for no bias).
    pub fn matmul_dense_bias_act(
        &self,
        x: &Matrix,
        bias: Option<&Matrix>,
        act: FusedAct,
    ) -> Matrix {
        assert_eq!(self.cols, x.rows(), "spmm shape mismatch");
        if let Some(b) = bias {
            assert_eq!(b.shape(), (1, x.cols()), "fused bias must be 1 x cols");
        }
        let _span = cpgan_obs::span("nn.spmm_fused");
        cpgan_obs::hist_record("nn.spmm.nnz", self.nnz() as f64);
        cpgan_obs::hist_record("nn.spmm.flops", 2.0 * self.nnz() as f64 * x.cols() as f64);
        let d = x.cols();
        let mut out = Matrix::zeros(self.rows, d);
        if d == 0 {
            return out;
        }
        for (r, out_row) in out.as_mut_slice().chunks_mut(d).enumerate() {
            self.accumulate_row(r, x, out_row);
            if let Some(b) = bias {
                for (o, &bv) in out_row.iter_mut().zip(b.row(0)) {
                    *o += bv;
                }
            }
            if act != FusedAct::Identity {
                for o in out_row.iter_mut() {
                    *o = act.apply(*o);
                }
            }
        }
        out
    }

    /// `out_row += (row r of self) * x`, accumulating the CSR row in index
    /// order (`out_row` is `x.cols()` wide).
    fn accumulate_row(&self, r: usize, x: &Matrix, out_row: &mut [f32]) {
        let d = out_row.len();
        for i in self.offsets[r]..self.offsets[r + 1] {
            let c = self.indices[i] as usize;
            let v = self.values[i];
            let x_row = &x.as_slice()[c * d..(c + 1) * d];
            for (o, &xv) in out_row.iter_mut().zip(x_row) {
                *o += v * xv;
            }
        }
    }

    /// Transposed copy (used by autograd for non-symmetric operators).
    ///
    /// Two-pass counting transpose: pass one histograms the column indices
    /// into the output row offsets, pass two scatters each entry to its
    /// slot. `O(nnz + rows + cols)` with no sort and no per-entry tuple
    /// materialization; scanning the source in row-major order leaves every
    /// output row sorted by column, preserving the CSR invariant.
    pub fn transpose(&self) -> Csr {
        let mut offsets = vec![0usize; self.cols + 1];
        for &c in &self.indices {
            offsets[c as usize + 1] += 1;
        }
        for c in 0..self.cols {
            offsets[c + 1] += offsets[c];
        }
        let mut indices = vec![0u32; self.nnz()];
        let mut values = vec![0.0f32; self.nnz()];
        // Per-output-row write cursors, advanced as entries scatter in.
        let mut next = offsets[..self.cols].to_vec();
        for r in 0..self.rows {
            for (c, v) in self.row_iter(r) {
                let dst = next[c as usize];
                indices[dst] = r as u32;
                values[dst] = v;
                next[c as usize] += 1;
            }
        }
        Csr {
            rows: self.cols,
            cols: self.rows,
            offsets,
            indices,
            values,
            cached_t: OnceLock::new(),
        }
    }

    /// The transpose, computed once per matrix and memoized.
    ///
    /// Training hits the same adjacency operator's transpose on every
    /// backward pass (`Op::SpMM` / `Op::SpmmBiasAct` hold it per tape node);
    /// before this cache each forward call rebuilt it from scratch. The
    /// cache is keyed on `&self`, so clones recompute independently, and it
    /// is invisible to `PartialEq`.
    pub fn transpose_cached(&self) -> Arc<Csr> {
        Arc::clone(self.cached_t.get_or_init(|| Arc::new(self.transpose())))
    }
}

/// `k` square sparse operators packed into one block-diagonal CSR, so one
/// fused spmm call covers a whole batch of sampled subgraphs.
///
/// Block `b` occupies rows and columns `offsets[b]..offsets[b + 1]` of the
/// packed operator; feature matrices are stacked the same way
/// ([`Matrix::vstack`]). Because blocks share no columns, each packed
/// output row accumulates exactly the entries the standalone per-block
/// spmm would, in the same index order — packed results are bit-identical
/// to `k` independent calls. Empty (0-node) and single-node blocks are
/// legal; they simply contribute zero or one row.
///
/// The transpose is computed once at construction and shared (`Arc`), so
/// the tape's fused op does not re-transpose per call the way the
/// standalone spmm path does.
#[derive(Debug, Clone)]
pub struct BlockDiagCsr {
    op: Arc<Csr>,
    op_t: Arc<Csr>,
    /// Node offsets, length `k + 1`: block `b` is rows `offsets[b]..offsets[b+1]`.
    offsets: Arc<Vec<usize>>,
}

impl BlockDiagCsr {
    /// Packs square blocks into one block-diagonal operator.
    pub fn from_blocks(blocks: &[Csr]) -> Self {
        let mut offsets = Vec::with_capacity(blocks.len() + 1);
        offsets.push(0usize);
        let mut total = 0usize;
        let mut nnz = 0usize;
        for b in blocks {
            assert_eq!(b.rows(), b.cols(), "block-diagonal blocks must be square");
            total += b.rows();
            nnz += b.nnz();
            offsets.push(total);
        }
        let mut triplets = Vec::with_capacity(nnz);
        for (bi, b) in blocks.iter().enumerate() {
            let base = offsets[bi];
            for r in 0..b.rows() {
                for (c, v) in b.row_iter(r) {
                    triplets.push((base + r, base + c as usize, v));
                }
            }
        }
        let op = Csr::from_sorted_triplets(total, total, triplets);
        // Seed the packed operator's memoized transpose so the tape and any
        // direct `transpose_cached` caller share the same Arc.
        let op_t = op.transpose_cached();
        BlockDiagCsr {
            op: Arc::new(op),
            op_t,
            offsets: Arc::new(offsets),
        }
    }

    /// Packs the normalized adjacencies (paper Eq. 6) of a batch of graphs.
    pub fn from_graphs<'a>(graphs: impl IntoIterator<Item = &'a Graph>) -> Self {
        let blocks: Vec<Csr> = graphs.into_iter().map(Csr::normalized_adjacency).collect();
        BlockDiagCsr::from_blocks(&blocks)
    }

    /// Number of blocks `k`.
    pub fn blocks(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total packed rows (sum of block sizes).
    pub fn total_rows(&self) -> usize {
        self.op.rows()
    }

    /// Packed row range of block `b`.
    pub fn block_range(&self, b: usize) -> std::ops::Range<usize> {
        self.offsets[b]..self.offsets[b + 1]
    }

    /// The packed operator.
    pub fn op(&self) -> &Arc<Csr> {
        &self.op
    }

    /// The packed operator's transpose (cached at construction).
    pub fn op_t(&self) -> &Arc<Csr> {
        &self.op_t
    }

    /// The shared node-offset table (length `k + 1`).
    pub fn offsets(&self) -> &Arc<Vec<usize>> {
        &self.offsets
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path3_adj() -> Csr {
        let g = Graph::from_edges(3, [(0, 1), (1, 2)]).unwrap();
        Csr::normalized_adjacency(&g)
    }

    #[test]
    fn normalized_adjacency_rows_structure() {
        let a = path3_adj();
        assert_eq!(a.rows(), 3);
        assert_eq!(a.nnz(), 7); // 4 off-diagonal + 3 diagonal
                                // deg+1: node0 -> 2, node1 -> 3, node2 -> 2.
        let d00 = a.get(0, 0).unwrap();
        assert!((d00 - 0.5).abs() < 1e-6);
        let d01 = a.get(0, 1).unwrap();
        assert!((d01 - 1.0 / (2.0f32.sqrt() * 3.0f32.sqrt())).abs() < 1e-6);
    }

    #[test]
    fn transpose_cached_memoizes_and_matches() {
        let a = path3_adj();
        let t1 = a.transpose_cached();
        let t2 = a.transpose_cached();
        assert!(Arc::ptr_eq(&t1, &t2), "repeated calls share one transpose");
        assert_eq!(*t1, a.transpose(), "cached transpose equals a fresh one");
        // The cache is not part of the value: a clone is equal but rebuilds
        // its own transpose independently.
        let b = a.clone();
        assert_eq!(a, b);
        // BlockDiagCsr's construction-time transpose is the packed
        // operator's memoized one.
        let g = Graph::from_edges(3, [(0, 1), (1, 2)]).unwrap();
        let batch = BlockDiagCsr::from_graphs([&g]);
        assert!(Arc::ptr_eq(batch.op_t(), &batch.op().transpose_cached()));
    }

    #[test]
    fn symmetric() {
        assert!(path3_adj().is_symmetric());
    }

    #[test]
    fn spmm_matches_dense() {
        let a = path3_adj();
        let x = Matrix::from_fn(3, 2, |r, c| (r * 2 + c) as f32 + 1.0);
        let y = a.matmul_dense(&x);
        // Dense reference.
        let mut dense = Matrix::zeros(3, 3);
        for r in 0..3 {
            for (c, v) in a.row_iter(r) {
                dense.set(r, c as usize, v);
            }
        }
        let expect = dense.matmul(&x);
        for (u, v) in y.as_slice().iter().zip(expect.as_slice()) {
            assert!((u - v).abs() < 1e-6);
        }
    }

    #[test]
    fn transpose_involution() {
        let t = Csr::from_sorted_triplets(2, 3, [(0, 1, 2.0), (1, 0, 3.0), (1, 2, 4.0)]);
        assert_eq!(t.transpose().transpose(), t);
        assert_eq!(t.transpose().get(1, 0), Some(2.0));
    }

    #[test]
    fn fused_spmm_matches_composed_bitwise() {
        let a = path3_adj();
        let x = Matrix::from_fn(3, 4, |r, c| ((r * 4 + c) as f32 * 0.37).sin());
        let b = Matrix::from_fn(1, 4, |_, c| (c as f32 * 0.91).cos() * 0.3);
        for act in FusedAct::ALL {
            let fused = a.matmul_dense_bias_act(&x, Some(&b), act);
            let mut composed = a.matmul_dense(&x);
            for r in 0..composed.rows() {
                for c in 0..composed.cols() {
                    let v = composed.get(r, c) + b.get(0, c);
                    composed.set(r, c, act.apply(v));
                }
            }
            for (i, (u, v)) in fused.as_slice().iter().zip(composed.as_slice()).enumerate() {
                assert_eq!(u.to_bits(), v.to_bits(), "{} [{i}]", act.name());
            }
        }
    }

    #[test]
    fn block_diag_packs_and_matches_per_block() {
        let g1 = Graph::from_edges(3, [(0, 1), (1, 2)]).unwrap();
        let g2 = Graph::from_edges(1, []).unwrap(); // single node
        let g3 = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        let batch = BlockDiagCsr::from_graphs([&g1, &g2, &g3]);
        assert_eq!(batch.blocks(), 3);
        assert_eq!(batch.total_rows(), 8);
        assert_eq!(batch.block_range(1), 3..4);
        let d = 5;
        let x = Matrix::from_fn(8, d, |r, c| ((r * d + c) as f32 * 0.13).sin());
        let packed = batch.op().matmul_dense(&x);
        for (bi, g) in [&g1, &g2, &g3].iter().enumerate() {
            let adj = Csr::normalized_adjacency(g);
            let range = batch.block_range(bi);
            let xb = Matrix::from_fn(range.len(), d, |r, c| x.get(range.start + r, c));
            let yb = adj.matmul_dense(&xb);
            for r in 0..range.len() {
                for c in 0..d {
                    assert_eq!(
                        packed.get(range.start + r, c).to_bits(),
                        yb.get(r, c).to_bits(),
                        "block {bi} ({r},{c})"
                    );
                }
            }
        }
    }

    #[test]
    fn block_diag_empty_block_is_legal() {
        let e = Csr::from_sorted_triplets(0, 0, []);
        let g = Graph::from_edges(2, [(0, 1)]).unwrap();
        let batch = BlockDiagCsr::from_blocks(&[e, Csr::normalized_adjacency(&g)]);
        assert_eq!(batch.blocks(), 2);
        assert_eq!(batch.block_range(0), 0..0);
        assert_eq!(batch.total_rows(), 2);
        let y = batch
            .op()
            .matmul_dense(&Matrix::from_fn(2, 3, |r, c| (r + c) as f32));
        assert_eq!(y.shape(), (2, 3));
    }

    #[test]
    fn row_sums_of_normalized_adjacency_bounded() {
        // Spectral radius of the normalized adjacency is <= 1, and row sums
        // stay near 1 for regular-ish graphs.
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        let a = Csr::normalized_adjacency(&g);
        for r in 0..4 {
            let s: f32 = a.row_iter(r).map(|(_, v)| v).sum();
            assert!((s - 1.0).abs() < 1e-6); // 2-regular: exact
        }
    }
}
