//! Finite-difference gradient checks for every autograd op.
//!
//! Each check builds a scalar loss `f(theta)` from one parameter, runs
//! backward, and compares the analytic gradient against the central
//! difference `(f(theta + h) - f(theta - h)) / 2h` elementwise.

// Test-support helpers sit outside `#[test]` fns, where the
// `allow-*-in-tests` carve-out does not reach; panicking is the right
// failure mode in test code.
#![allow(clippy::panic, clippy::unwrap_used, clippy::expect_used)]

use cpgan_graph::Graph;
use cpgan_nn::{Csr, Matrix, Param, Tape, Var};
use std::sync::Arc;

/// Checks `d loss / d param` analytically vs numerically.
fn gradcheck(name: &str, init: Matrix, f: impl Fn(&Tape, &Var) -> Var) {
    let param = Param::new(init);
    // Analytic.
    {
        let tape = Tape::new();
        let x = tape.param(&param);
        let loss = f(&tape, &x);
        assert_eq!(loss.shape(), (1, 1), "{name}: loss must be scalar");
        loss.backward();
    }
    let analytic = param.lock().grad.clone();
    // Numeric.
    let h = 1e-2f32;
    let base = param.value();
    for i in 0..base.len() {
        let eval = |delta: f32| -> f64 {
            let mut perturbed = base.clone();
            perturbed.as_mut_slice()[i] += delta;
            let p2 = Param::new(perturbed);
            let tape = Tape::new();
            let x = tape.param(&p2);
            f(&tape, &x).item() as f64
        };
        let numeric = (eval(h) - eval(-h)) / (2.0 * h as f64);
        let a = analytic.as_slice()[i] as f64;
        let tol = 2e-2 * (1.0 + a.abs().max(numeric.abs()));
        assert!(
            (a - numeric).abs() < tol,
            "{name}: grad[{i}] analytic {a} vs numeric {numeric}"
        );
    }
}

/// Width of the wide operands: a 2-row matrix this wide spans several
/// 4096-element partial sums in `Matrix::sum`, and the kernels run on
/// multi-tile rows. Parameters stay small — the width comes from constants —
/// to keep the finite-difference loop cheap.
const WIDE: usize = 2100;

fn seed_matrix(rows: usize, cols: usize, offset: f32) -> Matrix {
    Matrix::from_fn(rows, cols, |r, c| {
        // Deterministic, non-degenerate, sign-mixed values.
        let v = ((r * cols + c) as f32 * 0.37 + offset).sin();
        0.8 * v + 0.05
    })
}

#[test]
fn grad_matmul() {
    gradcheck("matmul", seed_matrix(3, 4, 0.1), |t, x| {
        let w = t.constant(seed_matrix(4, 2, 0.7));
        x.matmul(&w).sum_all()
    });
    gradcheck("matmul_wide", seed_matrix(2, 6, 0.15), |t, x| {
        let w = t.constant(seed_matrix(6, WIDE, 0.6));
        x.matmul(&w).square().sum_all()
    });
}

#[test]
fn grad_matmul_right_operand() {
    gradcheck("matmul_rhs", seed_matrix(4, 2, 0.3), |t, x| {
        let a = t.constant(seed_matrix(3, 4, 0.9));
        a.matmul(x).square().sum_all()
    });
    // A tall left operand: x's gradient flows through matmul_tn with
    // k = WIDE / 2, across several KC slabs.
    gradcheck("matmul_rhs_tall", seed_matrix(6, 4, 0.25), |t, x| {
        let a = t.constant(seed_matrix(WIDE / 2, 6, 0.45));
        a.matmul(x).square().sum_all()
    });
}

#[test]
fn grad_spmm() {
    let g = Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)]).unwrap();
    let adj = Arc::new(Csr::normalized_adjacency(&g));
    let a = Arc::clone(&adj);
    gradcheck("spmm", seed_matrix(5, 3, 0.2), move |_t, x| {
        x.spmm(&a).square().sum_all()
    });
    gradcheck("spmm_wide", seed_matrix(5, 3, 0.2), move |t, x| {
        let w = t.constant(seed_matrix(3, 840, 0.7));
        x.matmul(&w).spmm(&adj).square().sum_all()
    });
}

#[test]
fn grad_add_sub_mul() {
    gradcheck("add", seed_matrix(2, 3, 0.0), |t, x| {
        let c = t.constant(seed_matrix(2, 3, 1.3));
        x.add(&c).square().sum_all()
    });
    gradcheck("sub", seed_matrix(2, 3, 0.4), |t, x| {
        let c = t.constant(seed_matrix(2, 3, 0.8));
        c.sub(x).square().sum_all()
    });
    gradcheck("mul", seed_matrix(2, 3, 0.5), |t, x| {
        let c = t.constant(seed_matrix(2, 3, 2.0));
        x.mul(&c).square().sum_all()
    });
}

#[test]
fn grad_self_product_chain() {
    // x^3 via x*x*x exercises repeated-parent accumulation.
    gradcheck("cube", seed_matrix(2, 2, 0.6), |_t, x| {
        x.mul(x).mul(x).sum_all()
    });
}

#[test]
fn grad_broadcasts() {
    gradcheck("add_row_broadcast_row", seed_matrix(1, 3, 0.2), |t, row| {
        let x = t.constant(seed_matrix(4, 3, 1.0));
        x.add_row_broadcast(row).square().sum_all()
    });
    gradcheck("add_row_broadcast_x", seed_matrix(4, 3, 0.2), |t, x| {
        let row = t.constant(seed_matrix(1, 3, 1.0));
        x.add_row_broadcast(&row).square().sum_all()
    });
    gradcheck("broadcast_row", seed_matrix(1, 3, 0.5), |_t, row| {
        row.broadcast_row(5).square().sum_all()
    });
}

#[test]
fn grad_scalar_ops() {
    gradcheck("scale", seed_matrix(2, 2, 0.1), |_t, x| {
        x.scale(-2.5).square().sum_all()
    });
    gradcheck("add_scalar", seed_matrix(2, 2, 0.1), |_t, x| {
        x.add_scalar(3.0).square().sum_all()
    });
}

#[test]
fn grad_activations() {
    // Shift away from the ReLU kink so finite differences are clean.
    gradcheck(
        "relu",
        seed_matrix(3, 3, 0.35).map(|v| v + 0.2 * v.signum()),
        |_t, x| x.relu().sum_all(),
    );
    gradcheck("sigmoid", seed_matrix(3, 3, 0.2), |_t, x| {
        x.sigmoid().square().sum_all()
    });
    gradcheck("tanh", seed_matrix(3, 3, 0.3), |_t, x| {
        x.tanh().square().sum_all()
    });
    gradcheck("exp", seed_matrix(2, 2, 0.1), |_t, x| x.exp().sum_all());
    gradcheck(
        "ln",
        seed_matrix(2, 2, 0.0).map(|v| v.abs() + 0.5),
        |_t, x| x.ln().sum_all(),
    );
    gradcheck(
        "sqrt",
        seed_matrix(2, 2, 0.0).map(|v| v.abs() + 0.5),
        |_t, x| x.sqrt().sum_all(),
    );
}

#[test]
fn grad_softmax() {
    gradcheck("softmax", seed_matrix(2, 4, 0.2), |t, x| {
        let w = t.constant(seed_matrix(2, 4, 1.7));
        x.softmax_rows().mul(&w).sum_all()
    });
    gradcheck("softmax_wide", seed_matrix(2, 8, 0.2), |t, x| {
        let w = t.constant(seed_matrix(8, WIDE, 0.9));
        let m = t.constant(seed_matrix(2, WIDE, 1.4));
        x.matmul(&w).softmax_rows().mul(&m).sum_all()
    });
}

#[test]
fn grad_transpose_concat() {
    gradcheck("transpose", seed_matrix(2, 3, 0.2), |_t, x| {
        x.transpose().square().sum_all()
    });
    gradcheck("concat_cols", seed_matrix(3, 2, 0.1), |t, x| {
        let c = t.constant(seed_matrix(3, 4, 0.5));
        Var::concat_cols(&[x.clone(), c]).square().sum_all()
    });
    gradcheck("concat_rows", seed_matrix(2, 3, 0.1), |t, x| {
        let c = t.constant(seed_matrix(4, 3, 0.5));
        Var::concat_rows(&[c, x.clone()]).square().sum_all()
    });
    gradcheck("concat_cols_wide", seed_matrix(2, 5, 0.1), |t, x| {
        let w = t.constant(seed_matrix(5, WIDE / 2, 0.5));
        let c = t.constant(seed_matrix(2, WIDE / 2, 0.8));
        Var::concat_cols(&[x.matmul(&w), c]).square().sum_all()
    });
    gradcheck("concat_rows_wide", seed_matrix(2, 5, 0.3), |t, x| {
        let w = t.constant(seed_matrix(5, WIDE / 2, 0.2));
        let c = t.constant(seed_matrix(2, WIDE / 2, 0.6));
        Var::concat_rows(&[c, x.matmul(&w)]).square().sum_all()
    });
}

#[test]
fn grad_reductions() {
    gradcheck("mean_rows", seed_matrix(4, 3, 0.2), |_t, x| {
        x.mean_rows().square().sum_all()
    });
    gradcheck("mean_all", seed_matrix(3, 3, 0.2), |_t, x| {
        x.square().mean_all()
    });
    gradcheck("mean_all_wide", seed_matrix(3, 7, 0.2), |t, x| {
        let w = t.constant(seed_matrix(7, WIDE / 3, 0.4));
        x.matmul(&w).square().mean_all()
    });
    gradcheck("mean_rows_wide", seed_matrix(2, 6, 0.4), |t, x| {
        let w = t.constant(seed_matrix(6, WIDE, 0.3));
        x.matmul(&w).mean_rows().square().sum_all()
    });
}

#[test]
fn grad_gather() {
    let idx = Arc::new(vec![0usize, 2, 2, 1]);
    gradcheck("gather_rows", seed_matrix(3, 2, 0.2), move |_t, x| {
        x.gather_rows(&idx).square().sum_all()
    });
}

#[test]
fn grad_row_l2_normalize() {
    gradcheck("row_l2_normalize", seed_matrix(3, 4, 0.4), |t, x| {
        let w = t.constant(seed_matrix(3, 4, 1.1));
        x.row_l2_normalize(2.0).mul(&w).sum_all()
    });
}

#[test]
fn grad_losses() {
    let target = Arc::new(seed_matrix(3, 2, 0.9).map(|v| (v > 0.0) as u8 as f32));
    gradcheck("bce", seed_matrix(3, 2, 0.2), move |_t, x| {
        x.bce_with_logits_mean(&target, None)
    });
    let target2 = Arc::new(seed_matrix(3, 2, 0.6).map(|v| (v > 0.0) as u8 as f32));
    let weight = Arc::new(Matrix::from_fn(3, 2, |r, c| 1.0 + (r + c) as f32 * 0.5));
    gradcheck("bce_weighted", seed_matrix(3, 2, 0.2), move |_t, x| {
        x.bce_with_logits_mean(&target2, Some(&weight))
    });
    let mse_target = Arc::new(seed_matrix(3, 2, 1.4));
    gradcheck("mse", seed_matrix(3, 2, 0.2), move |_t, x| {
        x.mse_mean(&mse_target)
    });
}

#[test]
fn grad_composite_gcn_like_stack() {
    // A miniature ladder-style stack: spmm -> linear -> relu -> softmax ->
    // pooled matmul chain, checking end-to-end correctness of composition.
    let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
    let adj = Arc::new(Csr::normalized_adjacency(&g));
    gradcheck("composite", seed_matrix(4, 3, 0.25), move |t, x| {
        let w = t.constant(seed_matrix(3, 3, 0.8));
        let z = x.matmul(&w).spmm(&adj).relu();
        let s = z.softmax_rows();
        let pooled = s.transpose().matmul(&z); // DiffPool-style S^T Z
        pooled.square().sum_all()
    });
}

#[test]
fn grad_gaussian_kl_composite() {
    gradcheck("kl_mu", seed_matrix(3, 2, 0.2), |t, mu| {
        let lv = t.constant(seed_matrix(3, 2, 0.7).map(|v| v * 0.3));
        cpgan_nn::loss::gaussian_kl(mu, &lv)
    });
    gradcheck(
        "kl_logvar",
        seed_matrix(3, 2, 0.5).map(|v| v * 0.4),
        |t, lv| {
            let mu = t.constant(seed_matrix(3, 2, 0.2));
            cpgan_nn::loss::gaussian_kl(&mu, lv)
        },
    );
}

// ---- Fused spmm+bias+activation coverage (DESIGN §13) --------------------

#[test]
fn grad_spmm_bias_act_every_activation() {
    let g = Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)]).unwrap();
    let adj = Arc::new(Csr::normalized_adjacency(&g));
    for act in cpgan_nn::FusedAct::ALL {
        // d loss / d x, bias present. Inputs are shifted off zero so the
        // ReLU kink stays away from the finite-difference window.
        let a = adj.clone();
        gradcheck(
            &format!("spmm_bias_act[{}]/x", act.name()),
            seed_matrix(5, 3, 0.2).map(|v| v + 0.25 * v.signum()),
            move |t, x| {
                let b = t.constant(seed_matrix(1, 3, 0.9));
                x.spmm_bias_act(&a, Some(&b), act).square().sum_all()
            },
        );
        // d loss / d bias.
        let a = adj.clone();
        gradcheck(
            &format!("spmm_bias_act[{}]/bias", act.name()),
            seed_matrix(1, 3, 0.4),
            move |t, b| {
                let x = t.constant(seed_matrix(5, 3, 0.3).map(|v| v + 0.25 * v.signum()));
                x.spmm_bias_act(&a, Some(b), act).square().sum_all()
            },
        );
        // No bias.
        let a = adj.clone();
        gradcheck(
            &format!("spmm_bias_act[{}]/no_bias", act.name()),
            seed_matrix(5, 3, 0.6).map(|v| v + 0.25 * v.signum()),
            move |t, x| {
                let _ = t;
                x.spmm_bias_act(&a, None, act).square().sum_all()
            },
        );
    }
}

#[test]
fn grad_spmm_bias_act_batched_with_empty_and_single_node_blocks() {
    // Three blocks: a 3-node path, an *empty* (0-node) block, and a
    // single-node block — the degenerate shapes the packer must keep legal.
    let g1 = Graph::from_edges(3, [(0, 1), (1, 2)]).unwrap();
    let empty = Csr::from_sorted_triplets(0, 0, []);
    let single = Graph::from_edges(1, std::iter::empty()).unwrap();
    let batch = cpgan_nn::BlockDiagCsr::from_blocks(&[
        Csr::normalized_adjacency(&g1),
        empty,
        Csr::normalized_adjacency(&single),
    ]);
    assert_eq!(batch.total_rows(), 4);
    for act in cpgan_nn::FusedAct::ALL {
        let bt = batch.clone();
        gradcheck(
            &format!("spmm_bias_act_batched[{}]/x", act.name()),
            seed_matrix(4, 2, 0.3).map(|v| v + 0.25 * v.signum()),
            move |t, x| {
                let b = t.constant(seed_matrix(1, 2, 0.8));
                x.spmm_bias_act_batched(&bt, Some(&b), act)
                    .square()
                    .sum_all()
            },
        );
        let bt = batch.clone();
        gradcheck(
            &format!("spmm_bias_act_batched[{}]/bias", act.name()),
            seed_matrix(1, 2, 0.5),
            move |t, b| {
                let x = t.constant(seed_matrix(4, 2, 0.7).map(|v| v + 0.25 * v.signum()));
                x.spmm_bias_act_batched(&bt, Some(b), act)
                    .square()
                    .sum_all()
            },
        );
    }
}

/// Pooled buffers hold arbitrary garbage at checkout; every op must fully
/// overwrite (or explicitly zero) what it reads. Running the same backward
/// pass with the pool off and then on — after priming the free lists with
/// dirty buffers — must produce bit-identical gradients.
#[test]
fn grads_bitwise_identical_with_pooled_buffers() {
    let run = || {
        let param = Param::new(seed_matrix(6, 5, 0.15));
        let tape = Tape::new();
        let x = tape.param(&param);
        let w = tape.constant(seed_matrix(5, 9, 0.65));
        let loss = x.matmul(&w).relu().square().mean_all();
        loss.backward();
        let grad = param.lock().grad.clone();
        (loss.item(), grad)
    };
    cpgan_nn::memory::set_pool_enabled(false);
    cpgan_nn::memory::pool_clear();
    let (loss_off, grad_off) = run();
    cpgan_nn::memory::set_pool_enabled(true);
    // Prime the pool with dirty buffers of the exact sizes the run uses.
    let dirt: Vec<Matrix> = [(6, 5), (5, 9), (6, 9), (1, 1)]
        .iter()
        .map(|&(r, c)| Matrix::full(r, c, f32::NAN))
        .collect();
    drop(dirt);
    let (loss_on, grad_on) = run();
    cpgan_nn::memory::pool_clear();
    assert_eq!(
        loss_off.to_bits(),
        loss_on.to_bits(),
        "loss differs with pool"
    );
    for (i, (a, b)) in grad_off
        .as_slice()
        .iter()
        .zip(grad_on.as_slice())
        .enumerate()
    {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "grad[{i}] differs with pool: {a} vs {b}"
        );
    }
}
