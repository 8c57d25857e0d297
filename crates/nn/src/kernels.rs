//! Cache-blocked, register-tiled dense matmul microkernels.
//!
//! The three dense products ([`Matrix::matmul`](crate::Matrix::matmul) and
//! its fused-transpose variants) bottom out here. Each kernel processes a
//! contiguous *row block* of the output (`matrix.rs` passes the whole
//! output as one block) and within a block runs an MC×KC×NC blocking scheme
//! with an MR×NR register tile:
//!
//! * **MC** — the caller's row block,
//! * **KC** ([`KC`]) — the inner-dimension cache block; the `out` block is
//!   re-read/re-written once per KC slab so a `KC × NC` panel of `b` stays
//!   cache-resident,
//! * **NC** ([`NC`]) — the output-column cache block,
//! * **MR×NR** ([`MR`], [`NR`]) — the register tile: MR output rows by NR
//!   output columns accumulated in fixed-size local arrays, written as
//!   slice-chunk loops the compiler can autovectorize (8 lanes matches one
//!   AVX2 `f32` vector).
//!
//! # Determinism contract (DESIGN.md §10)
//!
//! Every output element accumulates its `k`-products in **ascending `k`
//! order**, regardless of block sizes, ragged edges, or how the output is
//! split into row blocks — so results do not depend on the split. For
//! [`gemm_nn`] / [`gemm_tn`] this order equals the classic scalar i-k-j
//! loop, so the blocked kernels are bit-identical to the retained seed
//! references ([`matmul_naive`], [`matmul_tn_naive`]) for inputs whose left
//! operand has no exact zeros (see their docs). [`gemm_nt`] reduces
//! each dot product in a fixed 8-lane split (lane `l` owns `k ≡ l mod 8`,
//! lanes summed in index order, then the ragged tail in ascending order) —
//! still fixed for a given shape, but intentionally *not* the scalar
//! order, so [`matmul_nt_naive`] comparisons are tolerance-based.
//!
//! There is deliberately no `a == 0.0` skip in the dense path: the branch
//! defeats autovectorization, and sparse operands route through
//! [`crate::Csr::matmul_dense`] instead.

use crate::Matrix;

/// Register-tile height: output rows accumulated together.
pub const MR: usize = 4;
/// Register-tile width / vector lanes: output columns per inner loop.
pub const NR: usize = 8;
/// Cache block over the inner (`k`) dimension.
pub const KC: usize = 256;
/// Cache block over the output-column (`n`) dimension.
pub const NC: usize = 1024;

/// `out = a * b` for a row block: `a` is `rb x k` (the block's rows of the
/// left operand), `b` is `k x n` (full), `out` is `rb x n`.
///
/// `out` is overwritten (it does not need to be zeroed first). Each element
/// accumulates in ascending-`k` order — bit-identical to [`matmul_naive`].
pub fn gemm_nn(a: &[f32], b: &[f32], out: &mut [f32], rb: usize, k: usize, n: usize) {
    assert_eq!(a.len(), rb * k, "gemm_nn: lhs block size");
    assert_eq!(out.len(), rb * n, "gemm_nn: out block size");
    assert!(b.len() >= k * n, "gemm_nn: rhs size");
    if rb == 0 || n == 0 {
        return;
    }
    if k == 0 {
        out.fill(0.0);
        return;
    }
    let mut k0 = 0;
    while k0 < k {
        let kb = KC.min(k - k0);
        let first = k0 == 0;
        let mut j0 = 0;
        while j0 < n {
            let jb = NC.min(n - j0);
            let mut i0 = 0;
            while i0 < rb {
                let ib = MR.min(rb - i0);
                nn_tile(a, b, out, (i0, ib), (k0, kb), (j0, jb), k, n, first);
                i0 += ib;
            }
            j0 += jb;
        }
        k0 += kb;
    }
}

/// One MR-row strip of [`gemm_nn`]: rows `i0..i0+ib`, k-slab `k0..k0+kb`,
/// column panel `j0..j0+jb`. When `first`, accumulators start from zero;
/// otherwise they resume from the partial sums already in `out`.
#[inline]
#[allow(clippy::too_many_arguments)]
fn nn_tile(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    (i0, ib): (usize, usize),
    (k0, kb): (usize, usize),
    (j0, jb): (usize, usize),
    k: usize,
    n: usize,
    first: bool,
) {
    let mut j = j0;
    if ib == MR {
        // Full-height fast path: every loop bound below is a compile-time
        // constant (MR/NR), so the accumulator tile unrolls into registers
        // and the per-k row loads come from pre-sliced, bounds-check-free
        // iterators.
        let ar: [&[f32]; MR] = std::array::from_fn(|r| {
            let base = (i0 + r) * k + k0;
            &a[base..base + kb]
        });
        let bp = &b[k0 * n..(k0 + kb) * n];
        while j + NR <= j0 + jb {
            let mut acc = [[0.0f32; NR]; MR];
            if !first {
                for (r, accr) in acc.iter_mut().enumerate() {
                    let base = (i0 + r) * n + j;
                    accr.copy_from_slice(&out[base..base + NR]);
                }
            }
            // k unrolled by two; within a pair the products still land in
            // ascending-k order, so bit-exactness holds.
            let mut pairs = bp.chunks_exact(2 * n);
            let mut kk = 0;
            for bpair in &mut pairs {
                let (brow0, brow1) = bpair.split_at(n);
                let mut bv0 = [0.0f32; NR];
                bv0.copy_from_slice(&brow0[j..j + NR]);
                let mut bv1 = [0.0f32; NR];
                bv1.copy_from_slice(&brow1[j..j + NR]);
                let av0: [f32; MR] = std::array::from_fn(|r| ar[r][kk]);
                let av1: [f32; MR] = std::array::from_fn(|r| ar[r][kk + 1]);
                for (r, accr) in acc.iter_mut().enumerate() {
                    for (l, o) in accr.iter_mut().enumerate() {
                        *o += av0[r] * bv0[l];
                        *o += av1[r] * bv1[l];
                    }
                }
                kk += 2;
            }
            for brow in pairs.remainder().chunks_exact(n) {
                let mut bv = [0.0f32; NR];
                bv.copy_from_slice(&brow[j..j + NR]);
                let av: [f32; MR] = std::array::from_fn(|r| ar[r][kk]);
                for (accr, &avr) in acc.iter_mut().zip(&av) {
                    for (o, &x) in accr.iter_mut().zip(&bv) {
                        *o += avr * x;
                    }
                }
                kk += 1;
            }
            for (r, accr) in acc.iter().enumerate() {
                let base = (i0 + r) * n + j;
                out[base..base + NR].copy_from_slice(accr);
            }
            j += NR;
        }
    }
    // Ragged row tail (ib < MR) and, after the fast path, nothing: the
    // runtime `take(ib)` bound keeps this generic but unregistered.
    while ib < MR && j + NR <= j0 + jb {
        let mut acc = [[0.0f32; NR]; MR];
        if !first {
            for (r, accr) in acc.iter_mut().enumerate().take(ib) {
                let base = (i0 + r) * n + j;
                accr.copy_from_slice(&out[base..base + NR]);
            }
        }
        for kk in k0..k0 + kb {
            let mut bv = [0.0f32; NR];
            bv.copy_from_slice(&b[kk * n + j..kk * n + j + NR]);
            for (r, accr) in acc.iter_mut().enumerate().take(ib) {
                let av = a[(i0 + r) * k + kk];
                for (o, &x) in accr.iter_mut().zip(&bv) {
                    *o += av * x;
                }
            }
        }
        for (r, accr) in acc.iter().enumerate().take(ib) {
            let base = (i0 + r) * n + j;
            out[base..base + NR].copy_from_slice(accr);
        }
        j += NR;
    }
    // Ragged column tail (< NR wide): scalar, same ascending-k order.
    for jj in j..j0 + jb {
        for r in 0..ib {
            let arow = &a[(i0 + r) * k + k0..(i0 + r) * k + k0 + kb];
            let mut s = if first { 0.0 } else { out[(i0 + r) * n + jj] };
            for (kk, &av) in arow.iter().enumerate() {
                s += av * b[(k0 + kk) * n + jj];
            }
            out[(i0 + r) * n + jj] = s;
        }
    }
}

/// `out = a^T * b` for a row block of the output: `a` is `k x m` (full),
/// `b` is `k x n` (full), `out` holds rows `row0..row0+rb` of the `m x n`
/// product (so `out.len() == rb * n`).
///
/// Output row `row0 + r` reads column `row0 + r` of `a`; per `k` the MR
/// needed elements `a[kk*m + row0+i0 ..]` are contiguous, so the tile loads
/// stay vector-friendly. Accumulation is ascending-`k`, bit-identical to
/// [`matmul_tn_naive`].
#[allow(clippy::too_many_arguments)]
pub fn gemm_tn(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    row0: usize,
    rb: usize,
    k: usize,
    m: usize,
    n: usize,
) {
    assert!(a.len() >= k * m, "gemm_tn: lhs size");
    assert!(b.len() >= k * n, "gemm_tn: rhs size");
    assert_eq!(out.len(), rb * n, "gemm_tn: out block size");
    assert!(row0 + rb <= m, "gemm_tn: row block in range");
    if rb == 0 || n == 0 {
        return;
    }
    if k == 0 {
        out.fill(0.0);
        return;
    }
    let mut k0 = 0;
    while k0 < k {
        let kb = KC.min(k - k0);
        let first = k0 == 0;
        let mut j0 = 0;
        while j0 < n {
            let jb = NC.min(n - j0);
            let mut i0 = 0;
            while i0 < rb {
                let ib = MR.min(rb - i0);
                tn_tile(a, b, out, row0, (i0, ib), (k0, kb), (j0, jb), m, n, first);
                i0 += ib;
            }
            j0 += jb;
        }
        k0 += kb;
    }
}

/// One MR-row strip of [`gemm_tn`]; like [`nn_tile`] but the left operand
/// is read column-wise (`a[kk*m + row0 + i0 + r]`, contiguous in `r`).
#[inline]
#[allow(clippy::too_many_arguments)]
fn tn_tile(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    row0: usize,
    (i0, ib): (usize, usize),
    (k0, kb): (usize, usize),
    (j0, jb): (usize, usize),
    m: usize,
    n: usize,
    first: bool,
) {
    let mut j = j0;
    if ib == MR {
        // Full-height fast path: constant MR/NR bounds keep the tile in
        // registers; the MR left-operand elements per `k` are contiguous
        // (`a[kk*m + row0+i0 ..]`) and load as one fixed-size copy.
        let ap = &a[k0 * m..(k0 + kb) * m];
        while j + NR <= j0 + jb {
            let mut acc = [[0.0f32; NR]; MR];
            if !first {
                for (r, accr) in acc.iter_mut().enumerate() {
                    let base = (i0 + r) * n + j;
                    accr.copy_from_slice(&out[base..base + NR]);
                }
            }
            let bp = &b[k0 * n..(k0 + kb) * n];
            for (arow, brow) in ap.chunks_exact(m).zip(bp.chunks_exact(n)) {
                let mut bv = [0.0f32; NR];
                bv.copy_from_slice(&brow[j..j + NR]);
                let mut av = [0.0f32; MR];
                av.copy_from_slice(&arow[row0 + i0..row0 + i0 + MR]);
                for (accr, &avr) in acc.iter_mut().zip(&av) {
                    for (o, &x) in accr.iter_mut().zip(&bv) {
                        *o += avr * x;
                    }
                }
            }
            for (r, accr) in acc.iter().enumerate() {
                let base = (i0 + r) * n + j;
                out[base..base + NR].copy_from_slice(accr);
            }
            j += NR;
        }
    }
    while ib < MR && j + NR <= j0 + jb {
        let mut acc = [[0.0f32; NR]; MR];
        if !first {
            for (r, accr) in acc.iter_mut().enumerate().take(ib) {
                let base = (i0 + r) * n + j;
                accr.copy_from_slice(&out[base..base + NR]);
            }
        }
        for kk in k0..k0 + kb {
            let mut bv = [0.0f32; NR];
            bv.copy_from_slice(&b[kk * n + j..kk * n + j + NR]);
            let abase = kk * m + row0 + i0;
            for (r, accr) in acc.iter_mut().enumerate().take(ib) {
                let av = a[abase + r];
                for (o, &x) in accr.iter_mut().zip(&bv) {
                    *o += av * x;
                }
            }
        }
        for (r, accr) in acc.iter().enumerate().take(ib) {
            let base = (i0 + r) * n + j;
            out[base..base + NR].copy_from_slice(accr);
        }
        j += NR;
    }
    for jj in j..j0 + jb {
        for r in 0..ib {
            let mut s = if first { 0.0 } else { out[(i0 + r) * n + jj] };
            for kk in k0..k0 + kb {
                s += a[kk * m + row0 + i0 + r] * b[kk * n + jj];
            }
            out[(i0 + r) * n + jj] = s;
        }
    }
}

/// `out = a * b^T` for a row block: `a` is `rb x k` (the block's rows),
/// `b` is `mb x k` (full), `out` is `rb x mb`.
///
/// Each element is an independent dot product reduced by [`dot_lanes`] —
/// fixed 8-lane split, deterministic for a given `k`.
pub fn gemm_nt(a: &[f32], b: &[f32], out: &mut [f32], rb: usize, k: usize, mb: usize) {
    assert_eq!(a.len(), rb * k, "gemm_nt: lhs block size");
    assert!(b.len() >= mb * k, "gemm_nt: rhs size");
    assert_eq!(out.len(), rb * mb, "gemm_nt: out block size");
    for i in 0..rb {
        let arow = &a[i * k..(i + 1) * k];
        for (j, o) in out[i * mb..(i + 1) * mb].iter_mut().enumerate() {
            *o = dot_lanes(arow, &b[j * k..(j + 1) * k]);
        }
    }
}

/// Dot product with a fixed 8-lane accumulation split: lane `l` sums the
/// elements at indices `≡ l (mod NR)` of the leading `NR`-aligned prefix,
/// lanes are combined in index order, and the ragged tail is added last in
/// ascending order. The split depends only on `a.len()`.
#[inline]
pub fn dot_lanes(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f32; NR];
    let mut ca = a.chunks_exact(NR);
    let mut cb = b.chunks_exact(NR);
    for (xa, xb) in (&mut ca).zip(&mut cb) {
        for ((o, &x), &y) in acc.iter_mut().zip(xa).zip(xb) {
            *o += x * y;
        }
    }
    let mut s: f32 = acc.iter().sum();
    for (&x, &y) in ca.remainder().iter().zip(cb.remainder()) {
        s += x * y;
    }
    s
}

/// Sum with the same fixed 8-lane split as [`dot_lanes`]: lane `l` sums the
/// elements at indices `≡ l (mod NR)` of the `NR`-aligned prefix, lanes are
/// combined in index order, then the ragged tail is added in ascending
/// order. Depends only on `a.len()`.
#[inline]
pub fn sum_lanes(a: &[f32]) -> f32 {
    let mut acc = [0.0f32; NR];
    let mut ca = a.chunks_exact(NR);
    for xa in &mut ca {
        for (o, &x) in acc.iter_mut().zip(xa) {
            *o += x;
        }
    }
    let mut s: f32 = acc.iter().sum();
    for &x in ca.remainder() {
        s += x;
    }
    s
}

/// Sum of squares with the [`dot_lanes`] lane split (see [`sum_lanes`] for
/// the order contract).
#[inline]
pub fn sumsq_lanes(a: &[f32]) -> f32 {
    let mut acc = [0.0f32; NR];
    let mut ca = a.chunks_exact(NR);
    for xa in &mut ca {
        for (o, &x) in acc.iter_mut().zip(xa) {
            *o += x * x;
        }
    }
    let mut s: f32 = acc.iter().sum();
    for &x in ca.remainder() {
        s += x * x;
    }
    s
}

/// Maximum with an 8-lane inner loop. `max` is order-insensitive up to the
/// sign of equal zeros (which no consumer observes — softmax subtracts the
/// max, and `x - ±0.0` is the same value), so this is safe wherever the
/// sequential fold was. Returns `-inf` for an empty slice.
#[inline]
pub fn max_lanes(a: &[f32]) -> f32 {
    let mut acc = [f32::NEG_INFINITY; NR];
    let mut ca = a.chunks_exact(NR);
    for xa in &mut ca {
        for (o, &x) in acc.iter_mut().zip(xa) {
            *o = o.max(x);
        }
    }
    let mut m = f32::NEG_INFINITY;
    for &l in &acc {
        m = m.max(l);
    }
    for &x in ca.remainder() {
        m = m.max(x);
    }
    m
}

/// `y += alpha * x`, processed in explicit NR-wide chunks. Purely
/// elementwise — bit-identical to the scalar loop at any width.
#[inline]
pub fn axpy_lanes(alpha: f32, x: &[f32], y: &mut [f32]) {
    debug_assert_eq!(x.len(), y.len());
    let mut cx = x.chunks_exact(NR);
    let mut cy = y.chunks_exact_mut(NR);
    for (xs, ys) in (&mut cx).zip(&mut cy) {
        for (o, &v) in ys.iter_mut().zip(xs) {
            *o += alpha * v;
        }
    }
    for (o, &v) in cy.into_remainder().iter_mut().zip(cx.remainder()) {
        *o += alpha * v;
    }
}

/// In-place numerically-stable softmax over one row: max via [`max_lanes`],
/// `exp(v - max)` elementwise, then normalization by a [`sum_lanes`]
/// reduction. The lane split is shape-determined.
#[inline]
pub fn softmax_row(row: &mut [f32]) {
    if row.is_empty() {
        return;
    }
    let max = max_lanes(row);
    for v in row.iter_mut() {
        *v = (*v - max).exp();
    }
    let sum = sum_lanes(row);
    if sum > 0.0 {
        let inv = 1.0 / sum;
        for v in row.iter_mut() {
            *v *= inv;
        }
    }
}

/// Activation fused into [`crate::Csr::matmul_dense_bias_act`] and the
/// tape's `spmm_bias_act` op. Forward applies `apply` per element *after*
/// the bias add; backward derives the input gradient from the **saved
/// output** `y` alone via [`grad_from_output`](FusedAct::grad_from_output)
/// (the "mask" is the output buffer itself — no extra saved state). Each
/// arm reproduces the corresponding standalone tape op bit for bit:
/// `relu` uses `y > 0` (equivalent to the pre-activation test `v > 0`
/// because `y = max(v, 0)` preserves strict positivity), `sigmoid` and
/// `tanh` are already output-form in `tape.rs`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FusedAct {
    /// No activation: `y = v`.
    Identity,
    /// `y = max(v, 0)`.
    Relu,
    /// `y = 1 / (1 + e^{-v})`.
    Sigmoid,
    /// `y = tanh(v)`.
    Tanh,
}

impl FusedAct {
    /// Every variant, for exhaustive test sweeps and the DESIGN.md §13
    /// op-inventory sync test.
    pub const ALL: [FusedAct; 4] = [
        FusedAct::Identity,
        FusedAct::Relu,
        FusedAct::Sigmoid,
        FusedAct::Tanh,
    ];

    /// Stable name used in the DESIGN.md §13 inventory.
    pub fn name(self) -> &'static str {
        match self {
            FusedAct::Identity => "identity",
            FusedAct::Relu => "relu",
            FusedAct::Sigmoid => "sigmoid",
            FusedAct::Tanh => "tanh",
        }
    }

    /// Forward map, bit-identical to the standalone tape op for the same
    /// input.
    #[inline]
    pub fn apply(self, v: f32) -> f32 {
        match self {
            FusedAct::Identity => v,
            FusedAct::Relu => v.max(0.0),
            FusedAct::Sigmoid => 1.0 / (1.0 + (-v).exp()),
            FusedAct::Tanh => v.tanh(),
        }
    }

    /// Backward: upstream gradient `g` through the activation, expressed in
    /// terms of the saved output `y`.
    #[inline]
    pub fn grad_from_output(self, y: f32, g: f32) -> f32 {
        match self {
            FusedAct::Identity => g,
            FusedAct::Relu => {
                if y > 0.0 {
                    g
                } else {
                    0.0
                }
            }
            FusedAct::Sigmoid => g * y * (1.0 - y),
            FusedAct::Tanh => g * (1.0 - y * y),
        }
    }
}

/// Reference `a * b`: the pre-blocking seed kernel, retained verbatim — the
/// serial i-k-j loop *with* the branchy `a == 0.0` skip that defeats
/// autovectorization. Ground truth for the property tests and the baseline
/// of the `bench matmul` speedup gate (the gate measures blocked kernels
/// against exactly the code they replaced).
///
/// Bit-identical to the blocked [`gemm_nn`] path whenever the left operand
/// contains no exact `±0.0` (the skip elides `+0.0` additions, which can
/// only matter for signed-zero or `0.0 * inf/NaN` corner cases).
pub fn matmul_naive(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.rows(), "matmul_naive shape mismatch");
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut out = Matrix::zeros(m, n);
    for i in 0..m {
        for kk in 0..k {
            let av = a.as_slice()[i * k + kk];
            if av == 0.0 {
                continue;
            }
            let brow = &b.as_slice()[kk * n..(kk + 1) * n];
            for (o, &bv) in out.row_mut(i).iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    }
    out
}

/// Reference `a^T * b`: the retained seed kernel (serial, ascending-`k`,
/// with the `a == 0.0` skip). Bit-identical to the blocked [`gemm_tn`] path
/// under the same no-exact-zero proviso as [`matmul_naive`].
pub fn matmul_tn_naive(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.rows(), b.rows(), "matmul_tn_naive shape mismatch");
    let (k, m, n) = (a.rows(), a.cols(), b.cols());
    let mut out = Matrix::zeros(m, n);
    for i in 0..m {
        for kk in 0..k {
            let av = a.as_slice()[kk * m + i];
            if av == 0.0 {
                continue;
            }
            let brow = &b.as_slice()[kk * n..(kk + 1) * n];
            for (o, &bv) in out.row_mut(i).iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    }
    out
}

/// Reference scalar `a * b^T` (sequential ascending-`k` dot products).
/// The blocked [`gemm_nt`] uses a lane-split reduction, so comparisons
/// against this reference are tolerance-based, not bitwise.
pub fn matmul_nt_naive(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.cols(), "matmul_nt_naive shape mismatch");
    let (m, k, n) = (a.rows(), a.cols(), b.rows());
    let mut out = Matrix::zeros(m, n);
    for i in 0..m {
        let arow = a.row(i);
        for j in 0..n {
            let brow = &b.as_slice()[j * k..(j + 1) * k];
            let mut s = 0.0f32;
            for (&x, &y) in arow.iter().zip(brow) {
                s += x * y;
            }
            out.set(i, j, s);
        }
    }
    out
}

#[cfg(test)]
// Tests may assert exact float values (the determinism contract is bitwise).
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    fn seed(rows: usize, cols: usize, offset: f32) -> Matrix {
        Matrix::from_fn(rows, cols, |r, c| {
            ((r * cols + c) as f32 * 0.371 + offset).sin() * 1.3
        })
    }

    #[test]
    fn gemm_nn_matches_naive_bitwise_across_blocks() {
        // k crosses two KC boundaries, n crosses NC; ragged everywhere.
        for &(m, k, n) in &[(5, 517, 1050), (3, 256, 8), (7, 37, 17), (1, 1, 1)] {
            let a = seed(m, k, 0.2);
            let b = seed(k, n, 0.9);
            let naive = matmul_naive(&a, &b);
            let mut out = vec![f32::NAN; m * n];
            gemm_nn(a.as_slice(), b.as_slice(), &mut out, m, k, n);
            assert_eq!(out, naive.as_slice(), "{m}x{k}x{n}");
        }
    }

    #[test]
    fn gemm_tn_matches_naive_bitwise_with_row_offset() {
        let (k, m, n) = (300, 13, 29);
        let a = seed(k, m, 0.4);
        let b = seed(k, n, 0.1);
        let naive = matmul_tn_naive(&a, &b);
        // Compute rows 5..13 only: a row block need not start at row 0.
        let (row0, rb) = (5, 8);
        let mut out = vec![f32::NAN; rb * n];
        gemm_tn(a.as_slice(), b.as_slice(), &mut out, row0, rb, k, m, n);
        assert_eq!(out, &naive.as_slice()[row0 * n..(row0 + rb) * n]);
    }

    #[test]
    fn gemm_nt_matches_naive_within_tolerance() {
        let (m, k, n) = (9, 83, 11);
        let a = seed(m, k, 0.3);
        let b = seed(n, k, 0.6);
        let naive = matmul_nt_naive(&a, &b);
        let mut out = vec![f32::NAN; m * n];
        gemm_nt(a.as_slice(), b.as_slice(), &mut out, m, k, n);
        for (i, (x, y)) in out.iter().zip(naive.as_slice()).enumerate() {
            assert!((x - y).abs() < 1e-4 * (1.0 + y.abs()), "[{i}] {x} vs {y}");
        }
    }

    #[test]
    fn zero_k_zeroes_output() {
        let mut out = vec![f32::NAN; 6];
        gemm_nn(&[], &[], &mut out, 2, 0, 3);
        assert_eq!(out, vec![0.0; 6]);
        let mut out = vec![f32::NAN; 6];
        gemm_tn(&[], &[], &mut out, 0, 2, 0, 2, 3);
        assert_eq!(out, vec![0.0; 6]);
        let mut out = vec![f32::NAN; 6];
        gemm_nt(&[], &[], &mut out, 2, 0, 3);
        assert_eq!(out, vec![0.0; 6]);
    }

    #[test]
    fn empty_dims_are_fine() {
        let mut out = Vec::new();
        gemm_nn(&[], &[], &mut out, 0, 4, 0);
        gemm_tn(&[0.0; 8], &[], &mut out, 0, 0, 4, 2, 0);
        gemm_nt(&[], &[0.0; 12], &mut out, 0, 4, 3);
    }

    #[test]
    fn dot_lanes_handles_short_and_ragged() {
        assert_eq!(dot_lanes(&[], &[]), 0.0);
        assert_eq!(dot_lanes(&[2.0], &[3.0]), 6.0);
        let a: Vec<f32> = (0..19).map(|i| i as f32).collect();
        let b = vec![1.0f32; 19];
        assert_eq!(dot_lanes(&a, &b), (0..19).sum::<i32>() as f32);
    }

    #[test]
    fn sum_lanes_matches_dot_with_ones() {
        for len in [0usize, 1, 7, 8, 9, 19, 64, 100] {
            let a: Vec<f32> = (0..len).map(|i| (i as f32 * 0.31).sin()).collect();
            let ones = vec![1.0f32; len];
            assert_eq!(sum_lanes(&a), dot_lanes(&a, &ones), "len {len}");
        }
    }

    #[test]
    fn sumsq_lanes_matches_self_dot() {
        for len in [0usize, 1, 8, 23, 65] {
            let a: Vec<f32> = (0..len).map(|i| (i as f32 * 0.7).cos()).collect();
            assert_eq!(sumsq_lanes(&a), dot_lanes(&a, &a), "len {len}");
        }
    }

    #[test]
    fn max_lanes_matches_sequential_fold() {
        for len in [0usize, 1, 5, 8, 17, 40] {
            let a: Vec<f32> = (0..len).map(|i| ((i * 37 % 11) as f32) - 5.0).collect();
            let seq = a.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
            assert_eq!(max_lanes(&a), seq, "len {len}");
        }
    }

    #[test]
    fn axpy_lanes_is_elementwise_exact() {
        for len in [0usize, 1, 8, 21] {
            let x: Vec<f32> = (0..len).map(|i| (i as f32 * 0.11).sin()).collect();
            let mut y: Vec<f32> = (0..len).map(|i| (i as f32 * 0.23).cos()).collect();
            let mut want = y.clone();
            for (o, &v) in want.iter_mut().zip(&x) {
                *o += 1.7 * v;
            }
            axpy_lanes(1.7, &x, &mut y);
            assert_eq!(y, want, "len {len}");
        }
    }

    #[test]
    fn softmax_row_normalizes_and_is_stable() {
        let mut row = vec![1000.0f32, 1001.0, 999.0];
        softmax_row(&mut row);
        let total: f32 = row.iter().sum();
        assert!((total - 1.0).abs() < 1e-6);
        assert!(row.iter().all(|&p| p.is_finite() && p >= 0.0));
        assert!(row[1] > row[0] && row[0] > row[2]);
        let mut empty: Vec<f32> = Vec::new();
        softmax_row(&mut empty);
    }

    #[test]
    fn fused_act_matches_standalone_formulas() {
        for act in FusedAct::ALL {
            for &v in &[-2.0f32, -0.5, 0.0, 0.75, 3.0] {
                let y = act.apply(v);
                let want = match act {
                    FusedAct::Identity => v,
                    FusedAct::Relu => v.max(0.0),
                    FusedAct::Sigmoid => 1.0 / (1.0 + (-v).exp()),
                    FusedAct::Tanh => v.tanh(),
                };
                assert_eq!(y.to_bits(), want.to_bits(), "{} apply({v})", act.name());
            }
        }
        // Relu mask from output equals mask from input.
        for &v in &[-1.0f32, 0.0, 2.5] {
            let y = FusedAct::Relu.apply(v);
            let from_out = FusedAct::Relu.grad_from_output(y, 3.0);
            let from_in: f32 = if v > 0.0 { 3.0 } else { 0.0 };
            assert_eq!(from_out.to_bits(), from_in.to_bits());
        }
    }
}
