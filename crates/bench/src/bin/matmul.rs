//! Naive-vs-blocked dense matmul throughput, written to
//! `results/BENCH_matmul.json`.
//!
//! Usage: `cargo run --release -p bench --bin matmul [--assert-min-ratio R]`
//!
//! For each GEMM variant (`matmul`, `matmul_tn`, `matmul_nt`) and each
//! square size, two single-threaded GFLOP/s figures are reported:
//!
//! * `naive` — the retained scalar i-k-j reference in `cpgan_nn::kernels`,
//! * `blocked_serial` — the cache-blocked microkernels behind
//!   `Matrix::matmul*` (the dense kernels run on the calling thread only).
//!
//! `--assert-min-ratio R` exits nonzero unless
//! `blocked_serial / naive >= R` for `matmul` at 256x256x256 — the CI
//! regression gate for the blocking/tiling work.

use bench::BenchMeta;
use cpgan_nn::{kernels, Matrix};
use serde::Serialize;
use serde_json::json;
use std::time::Instant;

const SIZES: &[usize] = &[64, 128, 256, 448];
const GATE_SIZE: usize = 256;

/// One timed call of `f`, in wall-clock seconds.
fn time_once<R>(f: impl Fn() -> R) -> f64 {
    let start = Instant::now();
    std::hint::black_box(f());
    start.elapsed().as_secs_f64()
}

/// Best-of-`reps` seconds for both kernels, with the reps *interleaved*
/// (naive, blocked, repeat) so CPU frequency drift on a busy box hits both
/// legs alike instead of skewing whichever ran last.
fn best_of_interleaved<R>(
    reps: usize,
    naive: impl Fn() -> R,
    blocked: impl Fn() -> R,
) -> (f64, f64) {
    // Untimed warm-up: first-touch page faults and pool priming land here,
    // not in the first timed rep.
    std::hint::black_box(naive());
    std::hint::black_box(blocked());
    let mut best = (f64::INFINITY, f64::INFINITY);
    for _ in 0..reps.max(1) {
        best.0 = best.0.min(time_once(&naive));
        best.1 = best.1.min(time_once(&blocked));
    }
    best
}

fn seed_matrix(rows: usize, cols: usize, offset: f32) -> Matrix {
    Matrix::from_fn(rows, cols, |r, c| {
        ((r * cols + c) as f32 * 0.37 + offset).sin()
    })
}

/// One kernel at one size, in GFLOP/s.
#[derive(Serialize)]
struct Row {
    kernel: &'static str,
    size: usize,
    naive_gflops: f64,
    blocked_serial_gflops: f64,
    serial_ratio: f64,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let min_ratio =
        bench::flag::<f64>(&args, "--assert-min-ratio").unwrap_or_else(|e| bench::usage_error(&e));
    let meta = BenchMeta::capture(1);
    eprintln!("dense matmul: naive vs blocked, one thread...");

    let mut rows = Vec::new();
    for &s in SIZES {
        let a = seed_matrix(s, s, 0.1);
        let b = seed_matrix(s, s, 0.7);
        let flops = 2.0 * (s as f64).powi(3);
        // The gate size gets the most reps: best-of variance is what makes
        // a ratio gate flaky on a shared box.
        let reps = if s == GATE_SIZE {
            9
        } else if s > GATE_SIZE {
            5
        } else {
            7
        };
        type Pair<'m> = (
            &'static str,
            Box<dyn Fn() -> Matrix + 'm>,
            Box<dyn Fn() -> Matrix + 'm>,
        );
        let variants: Vec<Pair> = vec![
            (
                "matmul",
                Box::new(|| kernels::matmul_naive(&a, &b)),
                Box::new(|| a.matmul(&b)),
            ),
            (
                "matmul_tn",
                Box::new(|| kernels::matmul_tn_naive(&a, &b)),
                Box::new(|| a.matmul_tn(&b)),
            ),
            (
                "matmul_nt",
                Box::new(|| kernels::matmul_nt_naive(&a, &b)),
                Box::new(|| a.matmul_nt(&b)),
            ),
        ];
        for (kernel, naive_f, blocked_f) in &variants {
            let (t_naive, t_serial) = best_of_interleaved(reps, naive_f, blocked_f);
            let naive = flops / t_naive.max(1e-12) / 1e9;
            let blocked_serial = flops / t_serial.max(1e-12) / 1e9;
            let ratio = blocked_serial / naive.max(1e-12);
            eprintln!(
                "{kernel:>10} {s:>4}: naive {naive:7.3}  blocked {blocked_serial:7.3} GFLOP/s  \
                 ratio {ratio:.2}x"
            );
            rows.push(Row {
                kernel,
                size: s,
                naive_gflops: naive,
                blocked_serial_gflops: blocked_serial,
                serial_ratio: ratio,
            });
        }
    }

    let report = json!({"kernels": rows});
    bench::write_report("results/BENCH_matmul.json", &meta, &report)
        .unwrap_or_else(|e| bench::die(&e));

    if let Some(min) = min_ratio {
        let gate = rows
            .iter()
            .find(|r| r.kernel == "matmul" && r.size == GATE_SIZE);
        match gate {
            Some(r) => {
                let ratio = r.serial_ratio;
                if ratio < min {
                    eprintln!(
                        "FAIL: blocked/naive ratio {ratio:.2} < {min:.2} \
                         for matmul at {GATE_SIZE}^3"
                    );
                    std::process::exit(1);
                }
                eprintln!("gate OK: blocked/naive {ratio:.2} >= {min:.2} at {GATE_SIZE}^3");
            }
            None => {
                eprintln!("FAIL: no matmul row at gate size {GATE_SIZE}");
                std::process::exit(1);
            }
        }
    }
}
