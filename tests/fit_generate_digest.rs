//! Pins a plain seeded `CpGan` fit → generate by an FNV-1a digest of the
//! generated edge list, at one and two threads.
//!
//! The whole pipeline (spectral features, training, posterior generation)
//! is deterministic by construction (DESIGN.md §8), so the digest is a
//! constant: any change to float summation order, sampling, or assembly
//! shows up here as a mismatch under a plain `cargo test`. A deliberate
//! change of output re-pins the constant and says so in CHANGES.md.

// Test-support helpers sit outside `#[test]` fns, where the
// `allow-*-in-tests` carve-out does not reach.
#![allow(clippy::panic, clippy::unwrap_used, clippy::expect_used)]

use cpgan::{CpGan, CpGanConfig};
use cpgan_data::planted::{generate, PlantedConfig};
use cpgan_graph::Graph;
use cpgan_parallel::with_thread_count;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The pinned digest of [`fit_and_generate`]'s output.
const PINNED: u64 = 15_592_899_620_297_106_387;

/// FNV-1a over the node count and the canonical edge list (order included:
/// the list itself is canonical).
fn digest(g: &Graph) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |x: u32| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    mix(u32::try_from(g.n()).unwrap());
    for &(u, v) in g.edges() {
        mix(u);
        mix(v);
    }
    h
}

/// A 300-node planted-partition graph, a short fit of the unit-test model,
/// and one posterior generation at the observed size.
fn fit_and_generate() -> Graph {
    let observed = generate(&PlantedConfig {
        n: 300,
        m: 1_200,
        communities: 8,
        mixing: 0.1,
        seed: 11,
        ..Default::default()
    })
    .graph;
    let mut model = CpGan::new(CpGanConfig {
        epochs: 4,
        ..CpGanConfig::tiny()
    });
    model.fit(&observed);
    model.generate(observed.n(), observed.m(), &mut StdRng::seed_from_u64(3))
}

#[test]
fn fit_generate_digest_is_pinned_at_one_and_two_threads() {
    for threads in [1, 2] {
        let g = with_thread_count(threads, fit_and_generate);
        assert!(g.m() > 0, "generated an empty graph at {threads} threads");
        assert_eq!(
            digest(&g),
            PINNED,
            "fit -> generate digest drifted at {threads} threads (m = {})",
            g.m()
        );
    }
}
