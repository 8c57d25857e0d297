//! Output checks. Every failed check marks its operation failed; a run
//! is correct only when no operation failed.

use crate::client::Sample;
use cpgan_graph::Graph;
use std::collections::{BTreeMap, BTreeSet};

/// Operations attempted and failed in one run.
#[derive(Debug, Default)]
pub struct Outcome {
    attempted: u64,
    failed_ops: BTreeSet<u64>,
    reasons: Vec<String>,
}

impl Outcome {
    /// Starts one operation (a program call whose output is checked) and
    /// returns its id.
    pub fn attempt(&mut self) -> u64 {
        self.attempted += 1;
        self.attempted
    }

    /// Marks operation `op` failed because of `why`. An operation fails
    /// at most once, however many of its checks fail.
    pub fn fail(&mut self, op: u64, why: String) {
        self.failed_ops.insert(op);
        self.reasons.push(format!("op {op}: {why}"));
    }

    /// Runs a check on operation `op`'s output.
    pub fn check(&mut self, op: u64, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.fail(op, why());
        }
    }

    /// Operations attempted.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Operations failed.
    pub fn failed(&self) -> u64 {
        self.failed_ops.len() as u64
    }

    /// Why each failed operation failed.
    pub fn reasons(&self) -> &[String] {
        &self.reasons
    }
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a digest of a graph's node count and canonical edge list.
pub fn graph_digest(g: &Graph) -> u64 {
    let mut bytes = Vec::with_capacity(8 + g.m() * 8);
    bytes.extend_from_slice(&(g.n() as u64).to_le_bytes());
    for &(u, v) in g.edges() {
        bytes.extend_from_slice(&u.to_le_bytes());
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    fnv1a(&bytes)
}

/// The edge count `cpgan::assembly::GraphAssembler` aims at for a request
/// of `m` edges on `n` nodes: `m`, capped at the simple-graph maximum.
pub fn assembler_target(n: usize, m: usize) -> usize {
    m.min(n.saturating_mul(n.saturating_sub(1)) / 2)
}

/// Checks a generated graph: the requested node count and an edge count
/// in `1..=` the assembler's target.
pub fn check_generated(out: &mut Outcome, op: u64, g: &Graph, n: usize, m: usize) {
    out.check(op, g.n() == n, || {
        format!("generated {} nodes, requested {n}", g.n())
    });
    let target = assembler_target(n, m);
    out.check(op, g.m() >= 1 && g.m() <= target, || {
        format!("generated {} edges, assembler target {target}", g.m())
    });
}

/// Digests seen per key; a key whose digest changes is a determinism
/// failure (DESIGN.md §8: output is a pure function of inputs and seed,
/// at any thread count).
#[derive(Debug, Default)]
pub struct Digests {
    seen: BTreeMap<String, u64>,
}

impl Digests {
    /// Records `digest` for `key` on operation `op`; fails the operation
    /// if `key` was seen before with another digest.
    pub fn record(&mut self, out: &mut Outcome, op: u64, key: &str, digest: u64) {
        match self.seen.get(key) {
            Some(&first) => out.check(op, first == digest, || {
                format!("{key}: digest {digest:016x} differs from earlier {first:016x}")
            }),
            None => {
                self.seen.insert(key.to_string(), digest);
            }
        }
    }
}

/// Checks every request: a 200 whose body is byte-identical (by digest)
/// to an in-process `CpGan::generate` for the same key (`expected`: seed →
/// body digest). Any other outcome fails the request.
pub fn check_served(
    out: &mut Outcome,
    samples: &[Sample],
    seeds: &[u64],
    expected: &BTreeMap<u64, u64>,
) {
    for (sample, seed) in samples.iter().zip(seeds) {
        let op = out.attempt();
        match sample.status {
            Some(200) => out.check(op, expected.get(seed) == Some(&sample.body_digest), || {
                format!("seed {seed}: served body differs from in-process generate")
            }),
            Some(status) => out.fail(op, format!("seed {seed}: status {status}")),
            None => out.fail(op, format!("seed {seed}: no reply")),
        }
    }
}
