//! Bitwise equivalence proofs for the fused `spmm_bias_act` op and the
//! block-diagonal batch packer (DESIGN §13).
//!
//! * Fused forward and backward must be **bit-identical** to the composed
//!   `spmm → add_row_broadcast → activation` chain, over randomized
//!   shapes, sparsities, and activations.
//! * A `BlockDiagCsr` over `k` subgraphs must produce bit-identical
//!   forward rows, per-block input gradients, and bias gradients to `k`
//!   independent fused calls. (Gradients of shared weights *upstream* of
//!   the packed op reduce in one pass and are deliberately excluded —
//!   see DESIGN §13.)
//! * The DESIGN §13 activation table cannot drift from `FusedAct::ALL`.

// Integration-test helpers sit outside `#[test]` fns, so the
// `allow-panic-in-tests` carve-out does not reach them.
#![allow(clippy::panic, clippy::unwrap_used, clippy::expect_used)]

use cpgan_graph::{Graph, GraphBuilder};
use cpgan_nn::{BlockDiagCsr, Csr, FusedAct, Matrix, Param, Tape};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Deterministic pseudo-random graph: `n` nodes, each pair connected with
/// probability `p`.
fn random_graph(rng: &mut StdRng, n: usize, p: f64) -> Graph {
    let mut b = GraphBuilder::with_capacity(n, n * 2);
    for u in 0..n as u32 {
        for v in (u + 1)..n as u32 {
            if rng.gen::<f64>() < p {
                b.push_edge(u, v);
            }
        }
    }
    b.build()
}

fn random_matrix(rng: &mut StdRng, rows: usize, cols: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| rng.gen::<f32>() * 2.0 - 1.0)
}

fn assert_bits_eq(a: &Matrix, b: &Matrix, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what}: shape mismatch");
    for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: [{i}] {x} vs {y}");
    }
}

/// Applies the composed (unfused) equivalent of `spmm_bias_act` on `tape`.
fn composed(
    x: &cpgan_nn::Var,
    adj: &Arc<Csr>,
    bias: Option<&cpgan_nn::Var>,
    act: FusedAct,
) -> cpgan_nn::Var {
    let mut h = x.spmm(adj);
    if let Some(b) = bias {
        h = h.add_row_broadcast(b);
    }
    match act {
        FusedAct::Identity => h,
        FusedAct::Relu => h.relu(),
        FusedAct::Sigmoid => h.sigmoid(),
        FusedAct::Tanh => h.tanh(),
    }
}

/// Fused vs composed: forward values, input gradients, and bias gradients
/// must match bit-for-bit over randomized shapes and sparsities.
#[test]
fn fused_matches_composed_bitwise_over_random_shapes() {
    let mut rng = StdRng::seed_from_u64(0xf0_5ed);
    for trial in 0..24 {
        let n = rng.gen_range(1..=20);
        let d = [1usize, 3, 8, 17][trial % 4];
        let p = [0.1, 0.4, 0.8][trial % 3];
        let g = random_graph(&mut rng, n, p);
        let adj = Arc::new(Csr::normalized_adjacency(&g));
        let x0 = random_matrix(&mut rng, n, d);
        let b0 = random_matrix(&mut rng, 1, d);
        let w0 = random_matrix(&mut rng, n, d);
        let with_bias = trial % 2 == 0;
        for act in FusedAct::ALL {
            // Downstream of the op both tapes run the identical chain, so
            // any bit difference is the op's.
            let run = |fused: bool| -> (Matrix, Matrix, Option<Matrix>) {
                let xp = Param::new(x0.clone());
                let bp = Param::new(b0.clone());
                let tape = Tape::new();
                let x = tape.param(&xp);
                let b = with_bias.then(|| tape.param(&bp));
                let out = if fused {
                    x.spmm_bias_act(&adj, b.as_ref(), act)
                } else {
                    composed(&x, &adj, b.as_ref(), act)
                };
                let w = tape.constant(w0.clone());
                out.mul(&w).sum_all().backward();
                let value = out.value();
                let gx = xp.lock().grad.clone();
                let gb = with_bias.then(|| bp.lock().grad.clone());
                (value, gx, gb)
            };
            let (v_f, gx_f, gb_f) = run(true);
            let (v_c, gx_c, gb_c) = run(false);
            let what = format!("trial {trial} act {} n {n} d {d}", act.name());
            assert_bits_eq(&v_f, &v_c, &format!("{what}: forward"));
            assert_bits_eq(&gx_f, &gx_c, &format!("{what}: x grad"));
            if let (Some(f), Some(c)) = (&gb_f, &gb_c) {
                assert_bits_eq(f, c, &format!("{what}: bias grad"));
            }
        }
    }
}

/// Packed batch vs `k` independent fused calls: forward rows, per-block
/// input gradients, and the (shared) bias gradient must match bitwise.
/// Includes an empty and a single-node block.
#[test]
fn block_diag_batch_matches_independent_calls_bitwise() {
    let mut rng = StdRng::seed_from_u64(0xb10c);
    let d = 5usize;
    let sizes = [4usize, 0, 1, 7, 3];
    let graphs: Vec<Graph> = sizes
        .iter()
        .map(|&n| random_graph(&mut rng, n, 0.5))
        .collect();
    let blocks: Vec<Csr> = graphs.iter().map(Csr::normalized_adjacency).collect();
    let batch = BlockDiagCsr::from_blocks(&blocks);
    assert_eq!(batch.blocks(), sizes.len());
    let xs: Vec<Matrix> = sizes
        .iter()
        .map(|&n| random_matrix(&mut rng, n, d))
        .collect();
    let ws: Vec<Matrix> = sizes
        .iter()
        .map(|&n| random_matrix(&mut rng, n, d))
        .collect();
    let b0 = random_matrix(&mut rng, 1, d);
    let x_packed = Matrix::vstack(&xs.iter().collect::<Vec<_>>());
    let w_packed = Matrix::vstack(&ws.iter().collect::<Vec<_>>());

    for act in FusedAct::ALL {
        // Packed: one tape, one fused batched op, one backward.
        let xp = Param::new(x_packed.clone());
        let bp = Param::new(b0.clone());
        let (out_packed, gx_packed, gb_packed) = {
            let tape = Tape::new();
            let x = tape.param(&xp);
            let b = tape.param(&bp);
            let out = x.spmm_bias_act_batched(&batch, Some(&b), act);
            let w = tape.constant(w_packed.clone());
            out.mul(&w).sum_all().backward();
            (out.value(), xp.lock().grad.clone(), bp.lock().grad.clone())
        };
        // Independent: one tape per block, sharing the bias param so its
        // gradient accumulates in block order, exactly as the packed
        // backward combines per-block partials.
        let bp_ind = Param::new(b0.clone());
        for (bi, block) in blocks.iter().enumerate() {
            let adj = Arc::new(block.clone());
            let xp_b = Param::new(xs[bi].clone());
            let tape = Tape::new();
            let x = tape.param(&xp_b);
            let b = tape.param(&bp_ind);
            let out = x.spmm_bias_act(&adj, Some(&b), act);
            let w = tape.constant(ws[bi].clone());
            out.mul(&w).sum_all().backward();
            let what = format!("block {bi} act {}", act.name());
            let range = batch.block_range(bi);
            let rows: Vec<f32> = out_packed.as_slice()[range.start * d..range.end * d].to_vec();
            let packed_rows = Matrix::from_vec(sizes[bi], d, rows);
            assert_bits_eq(&packed_rows, &out.value(), &format!("{what}: forward"));
            let gx: Vec<f32> = gx_packed.as_slice()[range.start * d..range.end * d].to_vec();
            let packed_gx = Matrix::from_vec(sizes[bi], d, gx);
            assert_bits_eq(&packed_gx, &xp_b.lock().grad, &format!("{what}: x grad"));
        }
        assert_bits_eq(
            &gb_packed,
            &bp_ind.lock().grad,
            &format!("bias grad, act {}", act.name()),
        );
    }
}

/// Doc-sync: the DESIGN §13 activation table and `FusedAct::ALL` cannot
/// drift apart (same pattern as the §12 rule-catalog sync in xtask).
#[test]
fn design_section_13_activation_table_matches_fused_act() {
    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../DESIGN.md");
    let design =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let start = design
        .find("## 13.")
        .expect("DESIGN.md must have a §13 (fused tape ops)");
    let rest = &design[start..];
    let end = rest[3..].find("\n## ").map_or(rest.len(), |p| p + 3);
    let section = &rest[..end];
    let documented: Vec<String> = section
        .lines()
        .filter(|l| l.starts_with("| `"))
        .map(|l| {
            l.split('|')
                .map(str::trim)
                .nth(1)
                .unwrap_or_else(|| panic!("malformed table row: {l}"))
                .trim_matches('`')
                .to_string()
        })
        .collect();
    for act in FusedAct::ALL {
        assert!(
            documented.iter().any(|n| n == act.name()),
            "`{}` missing from the DESIGN.md §13 activation table",
            act.name()
        );
    }
    for name in &documented {
        assert!(
            FusedAct::ALL.iter().any(|a| a.name() == name),
            "DESIGN.md §13 documents `{name}`, which is not a FusedAct variant"
        );
    }
}
