//! Dense row-major `f32` matrices.
//!
//! All tensor data in the workspace flows through [`Matrix`]. Buffers are
//! checked out of the [`crate::memory`] workspace pool (falling back to the
//! allocator on a miss) and registered with its live/peak accounting so
//! experiments can report peak tensor memory (the reproduction's stand-in
//! for the paper's "peak GPU memory", Table IX).
//!
//! The three dense products delegate to the cache-blocked, register-tiled
//! microkernels in [`crate::kernels`]; this module only owns the shape
//! checks, the row-block split and the obs instrumentation.

use crate::error::{nn_panic, NnError, ShapeError};
use crate::kernels;
use crate::memory;
use std::fmt;

/// Elements per partial sum in [`Matrix::sum`] and
/// [`Matrix::frobenius_norm`]: partials are folded in chunk order, so this
/// constant fixes the float summation order and with it every pinned output
/// digest.
const SUM_CHUNK: usize = 4096;

/// Target output elements per row block of [`Matrix::matmul`] and
/// [`Matrix::matmul_tn`]: the MC of the MC×KC×NC blocking, so a block stays
/// cache-resident while the kernel re-reads it once per KC slab
/// (DESIGN.md §10).
const MM_BLOCK: usize = 32 * 1024;

/// Splits a row-major output with `cols`-wide rows into consecutive
/// [`MM_BLOCK`]-sized row blocks, yielding `(first_row, rows, block)`.
fn row_blocks(out: &mut [f32], cols: usize) -> impl Iterator<Item = (usize, usize, &mut [f32])> {
    let cols = cols.max(1);
    let rows = (MM_BLOCK / cols).max(1);
    out.chunks_mut(rows * cols)
        .enumerate()
        .map(move |(bi, block)| (bi * rows, block.len() / cols, block))
}

/// Reports a kernel's achieved GFLOP/s (= flops per nanosecond) when
/// observability is on; `sw` is `None` (and nothing is recorded) when it is
/// off, so the disabled-mode cost is one branch.
#[inline]
fn gflops_gauge(name: &'static str, flops: f64, sw: Option<cpgan_obs::Stopwatch>) {
    if let Some(sw) = sw {
        cpgan_obs::gauge_set(name, flops / sw.elapsed_ns().max(1) as f64);
    }
}

/// A dense row-major `f32` matrix.
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Allocates a zero matrix (from the buffer pool when possible).
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: memory::buffer_filled(rows * cols, 0.0),
        }
    }

    /// Allocates a matrix filled with `value` (from the buffer pool when
    /// possible).
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Matrix {
            rows,
            cols,
            data: memory::buffer_filled(rows * cols, value),
        }
    }

    /// A matrix whose contents are arbitrary (pooled garbage or zeros) —
    /// for kernel outputs that overwrite every element before the matrix
    /// escapes. Crate-private so uninitialized values can never leak out.
    fn uninit(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: memory::buffer_uninit(rows * cols),
        }
    }

    /// Wraps an existing buffer (`data.len()` must equal `rows * cols`).
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        Matrix::try_from_vec(rows, cols, data).unwrap_or_else(|e| nn_panic(e))
    }

    /// Fallible [`Matrix::from_vec`]: rejects a buffer whose length is not
    /// `rows * cols`.
    pub fn try_from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self, NnError> {
        if data.len() != rows * cols {
            return Err(ShapeError::new(
                "from_vec buffer",
                format!("{rows}x{cols} = {} elements", rows * cols),
                format!("{} elements", data.len()),
            )
            .into());
        }
        memory::on_alloc(data.len() * std::mem::size_of::<f32>());
        Ok(Matrix { rows, cols, data })
    }

    /// Builds from a closure over `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m.data[r * cols + c] = f(r, c);
            }
        }
        m
    }

    /// Stacks matrices vertically (all parts must share a column count;
    /// zero-row parts are fine). Used to pack per-subgraph feature blocks
    /// alongside [`crate::BlockDiagCsr`].
    pub fn vstack(parts: &[&Matrix]) -> Self {
        let cols = parts.first().map_or(0, |p| p.cols());
        let rows: usize = parts.iter().map(|p| p.rows()).sum();
        let mut out = Matrix::zeros(rows, cols);
        let mut r0 = 0;
        for p in parts {
            assert_eq!(p.cols(), cols, "vstack: column mismatch");
            for r in 0..p.rows() {
                out.row_mut(r0 + r).copy_from_slice(p.row(r));
            }
            r0 += p.rows();
        }
        out
    }

    /// A 1x1 matrix holding a scalar.
    pub fn scalar(v: f32) -> Self {
        Matrix::from_vec(1, 1, vec![v])
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix has zero elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Element setter.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] = v;
    }

    /// Row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Row `r` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The single element of a 1x1 matrix.
    pub fn item(&self) -> f32 {
        self.try_item().unwrap_or_else(|e| nn_panic(e))
    }

    /// Fallible [`Matrix::item`]: rejects non-1x1 matrices.
    pub fn try_item(&self) -> Result<f32, NnError> {
        if self.shape() != (1, 1) {
            return Err(ShapeError::new("item", "1x1", format!("{:?}", self.shape())).into());
        }
        Ok(self.data[0])
    }

    /// Matrix product `self * other` via the cache-blocked, register-tiled
    /// microkernel ([`crate::kernels::gemm_nn`]).
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        self.try_matmul(other).unwrap_or_else(|e| nn_panic(e))
    }

    /// Fallible [`Matrix::matmul`]: rejects inner-dimension mismatches.
    pub fn try_matmul(&self, other: &Matrix) -> Result<Matrix, NnError> {
        if self.cols != other.rows {
            return Err(ShapeError::new(
                "matmul",
                "lhs.cols == rhs.rows",
                format!("{:?} x {:?}", self.shape(), other.shape()),
            )
            .into());
        }
        let _span = cpgan_obs::span("nn.matmul");
        let flops = 2.0 * self.rows as f64 * self.cols as f64 * other.cols as f64;
        cpgan_obs::hist_record("nn.matmul.flops", flops);
        let sw = cpgan_obs::enabled().then(cpgan_obs::Stopwatch::start);
        let (k, n) = (self.cols, other.cols);
        let mut out = Matrix::uninit(self.rows, n);
        for (r0, rb, block) in row_blocks(&mut out.data, n) {
            let lhs = &self.data[r0 * k..(r0 + rb) * k];
            kernels::gemm_nn(lhs, &other.data, block, rb, k, n);
        }
        gflops_gauge("nn.matmul.gflops", flops, sw);
        Ok(out)
    }

    /// `self^T * other` without materializing the transpose.
    pub fn matmul_tn(&self, other: &Matrix) -> Matrix {
        self.try_matmul_tn(other).unwrap_or_else(|e| nn_panic(e))
    }

    /// Fallible [`Matrix::matmul_tn`]: rejects row-count mismatches.
    pub fn try_matmul_tn(&self, other: &Matrix) -> Result<Matrix, NnError> {
        if self.rows != other.rows {
            return Err(ShapeError::new(
                "matmul_tn",
                "lhs.rows == rhs.rows",
                format!("{:?} x {:?}", self.shape(), other.shape()),
            )
            .into());
        }
        let _span = cpgan_obs::span("nn.matmul_tn");
        let flops = 2.0 * self.rows as f64 * self.cols as f64 * other.cols as f64;
        cpgan_obs::hist_record("nn.matmul.flops", flops);
        let sw = cpgan_obs::enabled().then(cpgan_obs::Stopwatch::start);
        let (k, n, m) = (self.rows, self.cols, other.cols);
        let mut out = Matrix::uninit(n, m);
        // Out row i reads column i of self, so a row block of the output
        // names its first row instead of slicing the left operand.
        for (r0, rb, block) in row_blocks(&mut out.data, m) {
            kernels::gemm_tn(&self.data, &other.data, block, r0, rb, k, n, m);
        }
        gflops_gauge("nn.matmul_tn.gflops", flops, sw);
        Ok(out)
    }

    /// `self * other^T` without materializing the transpose.
    pub fn matmul_nt(&self, other: &Matrix) -> Matrix {
        self.try_matmul_nt(other).unwrap_or_else(|e| nn_panic(e))
    }

    /// Fallible [`Matrix::matmul_nt`]: rejects column-count mismatches.
    pub fn try_matmul_nt(&self, other: &Matrix) -> Result<Matrix, NnError> {
        if self.cols != other.cols {
            return Err(ShapeError::new(
                "matmul_nt",
                "lhs.cols == rhs.cols",
                format!("{:?} x {:?}", self.shape(), other.shape()),
            )
            .into());
        }
        let _span = cpgan_obs::span("nn.matmul_nt");
        let flops = 2.0 * self.rows as f64 * self.cols as f64 * other.rows as f64;
        cpgan_obs::hist_record("nn.matmul.flops", flops);
        let sw = cpgan_obs::enabled().then(cpgan_obs::Stopwatch::start);
        let (k, m) = (self.cols, other.rows);
        let mut out = Matrix::uninit(self.rows, m);
        kernels::gemm_nt(&self.data, &other.data, &mut out.data, self.rows, k, m);
        gflops_gauge("nn.matmul_nt.gflops", flops, sw);
        Ok(out)
    }

    /// Transposed copy, cache-blocked in 32×32 tiles so both the read and
    /// the write side stay within a few cache lines per tile.
    pub fn transpose(&self) -> Matrix {
        const TB: usize = 32;
        let (nr, nc) = (self.rows, self.cols);
        let mut out = Matrix::uninit(nc, nr);
        let mut r0 = 0;
        while r0 < nr {
            let rb = TB.min(nr - r0);
            let mut c0 = 0;
            while c0 < nc {
                let cb = TB.min(nc - c0);
                for r in r0..r0 + rb {
                    for c in c0..c0 + cb {
                        out.data[c * nr + r] = self.data[r * nc + c];
                    }
                }
                c0 += cb;
            }
            r0 += rb;
        }
        out
    }

    /// Elementwise map into a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        let mut out = self.clone();
        out.map_inplace(f);
        out
    }

    /// In-place elementwise map.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Elementwise combination of two same-shape matrices.
    pub fn zip(&self, other: &Matrix, f: impl Fn(f32, f32) -> f32) -> Matrix {
        self.try_zip(other, f).unwrap_or_else(|e| nn_panic(e))
    }

    /// Fallible [`Matrix::zip`]: rejects shape mismatches.
    pub fn try_zip(&self, other: &Matrix, f: impl Fn(f32, f32) -> f32) -> Result<Matrix, NnError> {
        same_shape("zip", self, other)?;
        let mut out = self.clone();
        for (o, &b) in out.data.iter_mut().zip(&other.data) {
            *o = f(*o, b);
        }
        Ok(out)
    }

    /// `self += alpha * other` (same shape).
    pub fn axpy(&mut self, alpha: f32, other: &Matrix) {
        self.try_axpy(alpha, other).unwrap_or_else(|e| nn_panic(e))
    }

    /// Fallible [`Matrix::axpy`]: rejects shape mismatches.
    pub fn try_axpy(&mut self, alpha: f32, other: &Matrix) -> Result<(), NnError> {
        same_shape("axpy", self, other)?;
        kernels::axpy_lanes(alpha, &other.data, &mut self.data);
        Ok(())
    }

    /// Sum of all elements: [`SUM_CHUNK`]-element chunks, each reduced with
    /// the fixed 8-lane split of [`crate::kernels::sum_lanes`], folded in
    /// chunk order.
    pub fn sum(&self) -> f32 {
        chunked_sum(&self.data, kernels::sum_lanes)
    }

    /// Frobenius norm (per-chunk 8-lane sum of squares, chunks folded in
    /// order).
    pub fn frobenius_norm(&self) -> f32 {
        chunked_sum(&self.data, kernels::sumsq_lanes).sqrt()
    }

    /// Sets all elements to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }
}

/// Folds `lanes` over [`SUM_CHUNK`]-element chunks of `data` in chunk order
/// (`0.0` for an empty slice).
fn chunked_sum(data: &[f32], lanes: fn(&[f32]) -> f32) -> f32 {
    data.chunks(SUM_CHUNK)
        .map(lanes)
        .reduce(|a, b| a + b)
        .unwrap_or(0.0)
}

/// Checks that two matrices share a shape, for elementwise ops.
fn same_shape(op: &'static str, a: &Matrix, b: &Matrix) -> Result<(), NnError> {
    if a.shape() != b.shape() {
        return Err(ShapeError::new(
            op,
            "equal shapes",
            format!("{:?} vs {:?}", a.shape(), b.shape()),
        )
        .into());
    }
    Ok(())
}

impl Clone for Matrix {
    fn clone(&self) -> Self {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: memory::buffer_copied(&self.data),
        }
    }
}

impl Drop for Matrix {
    fn drop(&mut self) {
        // Unregisters from the live/peak accounting and offers the buffer
        // to the thread-local pool for the next same-sized allocation.
        memory::release_buffer(std::mem::take(&mut self.data));
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)?;
        if self.len() <= 16 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

impl PartialEq for Matrix {
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows && self.cols == other.cols && self.data == other.data
    }
}

impl serde::Serialize for Matrix {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("rows".to_string(), self.rows.to_value()),
            ("cols".to_string(), self.cols.to_value()),
            ("data".to_string(), self.data.to_value()),
        ])
    }
}

impl serde::Deserialize for Matrix {
    fn from_value(value: &serde::Value) -> Result<Self, serde::de::Error> {
        let field = |name: &str| value.get(name).unwrap_or(&serde::Value::Null);
        let rows = usize::from_value(field("rows"))?;
        let cols = usize::from_value(field("cols"))?;
        let data = Vec::<f32>::from_value(field("data"))?;
        if data.len() != rows * cols {
            return Err(serde::de::Error::custom(format!(
                "matrix buffer size {} does not match {rows}x{cols}",
                data.len()
            )));
        }
        // Route through from_vec so the memory accounting stays consistent.
        Ok(Matrix::from_vec(rows, cols, data))
    }
}

#[cfg(test)]
// Tests may assert exact float values (constructed, not computed).
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    #[test]
    fn matmul_known() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Matrix::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let a = Matrix::from_vec(3, 2, vec![1., 2., 3., 4., 5., 6.]);
        let b = Matrix::from_vec(3, 2, vec![1., 0., 0., 1., 1., 1.]);
        let expect = a.transpose().matmul(&b);
        assert_eq!(a.matmul_tn(&b), expect);
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Matrix::from_vec(4, 3, vec![1., 0., 0., 0., 1., 0., 0., 0., 1., 1., 1., 1.]);
        let expect = a.matmul(&b.transpose());
        assert_eq!(a.matmul_nt(&b), expect);
    }

    #[test]
    fn transpose_round_trip() {
        let a = Matrix::from_fn(3, 4, |r, c| (r * 4 + c) as f32);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn map_zip_axpy() {
        let a = Matrix::from_vec(1, 3, vec![1., -2., 3.]);
        let b = a.map(|v| v.abs());
        assert_eq!(b.as_slice(), &[1., 2., 3.]);
        let c = a.zip(&b, |x, y| x + y);
        assert_eq!(c.as_slice(), &[2., 0., 6.]);
        let mut d = a.clone();
        d.axpy(2.0, &b);
        assert_eq!(d.as_slice(), &[3., 2., 9.]);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_shape_checked() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn scalar_item() {
        assert_eq!(Matrix::scalar(2.5).item(), 2.5);
    }

    #[test]
    fn try_ops_report_typed_shape_errors() {
        use crate::error::NnError;
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        match a.try_matmul(&b) {
            Err(NnError::Shape(e)) => {
                assert_eq!(e.op, "matmul");
                assert!(e.got.contains("(2, 3)"), "{e}");
            }
            other => panic!("expected shape error, got {other:?}"),
        }
        assert!(a.try_matmul_tn(&Matrix::zeros(3, 2)).is_err());
        assert!(a.try_matmul_nt(&Matrix::zeros(3, 4)).is_err());
        assert!(a.try_zip(&Matrix::zeros(3, 2), |x, _| x).is_err());
        assert!(a.try_item().is_err());
        assert!(Matrix::try_from_vec(2, 2, vec![0.0; 3]).is_err());
        let mut c = Matrix::zeros(2, 3);
        assert!(c.try_axpy(1.0, &Matrix::zeros(1, 1)).is_err());
        // The Ok paths agree with the panicking wrappers.
        let x = Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]);
        let y = Matrix::from_vec(2, 2, vec![5., 6., 7., 8.]);
        assert_eq!(x.try_matmul(&y).unwrap(), x.matmul(&y));
    }
}
