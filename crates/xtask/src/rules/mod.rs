//! One module per rule family, plus the rule catalog backing `--explain`
//! and the DESIGN.md doc-sync test.
//!
//! Every rule walks the code-token stream of a [`FileCtx`]; rules never see
//! comments or the inside of string/char literals, so masked-in-string
//! cases are structurally impossible rather than special-cased.

pub mod casts;
pub mod determinism;
pub mod float_order;
pub mod panic_safety;
pub mod runtime_gates;

use crate::context::FileCtx;
use crate::{Rule, Violation};

/// Builds a violation anchored at code token `tok` of `ctx`.
pub(crate) fn violation(ctx: &FileCtx, tok: usize, rule: Rule, message: String) -> Violation {
    let t = ctx.code[tok];
    Violation {
        file: ctx.file.to_string(),
        line: t.line,
        col: t.col,
        rule,
        message,
    }
}

/// Documentation for one rule: the source of truth for `--explain` and the
/// DESIGN.md §12 catalog (a doc-sync test keeps them aligned).
pub struct RuleDoc {
    /// The rule documented.
    pub rule: Rule,
    /// One-line summary of what is flagged.
    pub summary: &'static str,
    /// Which workspace invariant the rule protects, and why.
    pub rationale: &'static str,
    /// A minimal flagged example.
    pub example_bad: &'static str,
    /// The sanctioned replacement.
    pub example_good: &'static str,
    /// When a baseline suppression is acceptable.
    pub suppression: &'static str,
}

/// The full rule catalog, in [`Rule::ALL`] order.
pub fn catalog() -> Vec<RuleDoc> {
    Rule::ALL.into_iter().map(doc).collect()
}

/// Documentation for `rule`.
pub fn doc(rule: Rule) -> RuleDoc {
    match rule {
        Rule::NoUnwrap => RuleDoc {
            rule,
            summary: "`.unwrap()` in library (non-test) code",
            rationale: "Panics abort the whole generation pipeline; library code must \
                        propagate the crate's typed errors (DESIGN.md §7).",
            example_bad: "let g = builder.build().unwrap();",
            example_good: "let g = builder.build()?;",
            suppression: "Only for provably-infallible unwraps that cannot be expressed \
                          as `expect` on an invariant; prefer restructuring.",
        },
        Rule::NoExpect => RuleDoc {
            rule,
            summary: "`.expect(..)` in library (non-test) code",
            rationale: "Same contract as no-unwrap: typed errors, not panics, cross API \
                        boundaries (DESIGN.md §7).",
            example_bad: "let f = File::open(p).expect(\"config\");",
            example_good: "let f = File::open(p).map_err(CpganError::io)?;",
            suppression: "Only at binary entry points where the process is the error \
                          boundary, with a message naming the invariant.",
        },
        Rule::NoPanic => RuleDoc {
            rule,
            summary: "`panic!`, `todo!` or `unimplemented!` in library code",
            rationale: "A panic in one shard kills the whole deterministic pipeline; \
                        unreachable states should be typed errors (DESIGN.md §7).",
            example_bad: "panic!(\"bad community id {id}\")",
            example_good: "return Err(CommunityError::UnknownId(id));",
            suppression: "Documented unreachable-by-construction arms only (each \
                          baselined site carries a comment).",
        },
        Rule::FloatEq => RuleDoc {
            rule,
            summary: "`==`/`!=` against a floating-point literal",
            rationale: "Exact float equality is brittle under reassociation and makes \
                        golden tests lie; compare via epsilon or `total_cmp`.",
            example_bad: "if delta_q == 0.0 { .. }",
            example_good: "if delta_q.abs() < EPS { .. }",
            suppression: "Exact sentinel comparisons (e.g. against a value stored \
                          verbatim and never computed) — document the sentinel.",
        },
        Rule::PartialCmpExpect => RuleDoc {
            rule,
            summary: "`partial_cmp(..).unwrap()`-style float comparators",
            rationale: "NaN turns the comparator into a panic site inside `sort_by`; \
                        `f64::total_cmp` is total and deterministic.",
            example_bad: "v.sort_by(|a, b| a.partial_cmp(b).unwrap());",
            example_good: "v.sort_by(|a, b| a.total_cmp(b));",
            suppression: "None — `total_cmp` is always available.",
        },
        Rule::WorkspaceDeps => RuleDoc {
            rule,
            summary: "crate dependency not inherited from the workspace table",
            rationale: "Locally pinned versions drift; the root \
                        `[workspace.dependencies]` table is the single source of truth.",
            example_bad: "rand = \"0.8\"",
            example_good: "rand.workspace = true",
            suppression: "None — every dependency goes through the root table.",
        },
        Rule::AdHocThreading => RuleDoc {
            rule,
            summary: "direct `std::thread` spawning outside `cpgan-parallel`",
            rationale: "Bit-identical output at any thread count (DESIGN.md §8) relies \
                        on cpgan-parallel's fixed chunking and index-ordered combining; \
                        ad-hoc threads bypass both.",
            example_bad: "std::thread::spawn(move || shard.train());",
            example_good: "cpgan_parallel::Pool::global().par_map_owned(shards, |_, s| s.train());",
            suppression: "None — new parallel primitives belong in crates/parallel.",
        },
        Rule::AdHocTiming => RuleDoc {
            rule,
            summary: "raw `Instant::now()`/`SystemTime::now()` outside cpgan-obs/bench",
            rationale: "Timing must stay discoverable and obs-gated (spans, Stopwatch) \
                        so measurement never leaks into library control flow.",
            example_bad: "let t0 = std::time::Instant::now();",
            example_good: "let _span = cpgan_obs::span(\"train.epoch\");",
            suppression: "None — crates/obs and crates/bench are the only clock readers.",
        },
        Rule::SleepPoll => RuleDoc {
            rule,
            summary: "`thread::sleep` or `set_read_timeout` re-armed inside a loop",
            rationale: "A sleep-poll trades latency for idle burn: reaction time \
                        degrades to the sleep quantum and the CPU wakes just to \
                        re-check. Blocking primitives already exist — Condvar waits \
                        in the queue, the polling shim's wait/notify in the serve \
                        event loop (DESIGN.md §11).",
            example_bad: "loop {\n    stream.set_read_timeout(Some(SHORT))?;\n    ..\n}",
            example_good: "poller.wait(&mut events, timeout)?; // woken by notify()",
            suppression: "Only where no waitable event exists (e.g. watching a \
                          foreign file for change) — document what is being polled.",
        },
        Rule::HashIter => RuleDoc {
            rule,
            summary: "iteration over a `HashMap`/`HashSet` outside a sorted context",
            rationale: "Hash iteration order is seeded per process; anything ordering- \
                        or float-accumulation-sensitive downstream silently breaks the \
                        bit-identical-generation contract (DESIGN.md §8). PR 2 found \
                        exactly this in `louvain::aggregate()` after the fact.",
            example_bad: "for (k, v) in &map { out.push((k, v)); }",
            example_good: "let mut kv: Vec<_> = map.iter().collect();\nkv.sort_unstable();",
            suppression: "Iteration whose consumer is provably order-insensitive \
                          (pure counting/max with total tiebreak) — document why.",
        },
        Rule::UnseededRng => RuleDoc {
            rule,
            summary: "unseeded or environment-derived entropy source",
            rationale: "`thread_rng`/`OsRng`/`RandomState`/`from_entropy` draw from the \
                        environment, so two runs with the same config diverge; all \
                        randomness flows from the run seed (DESIGN.md §8).",
            example_bad: "let mut rng = rand::thread_rng();",
            example_good: "let mut rng = SplitMix64::new(cfg.seed);",
            suppression: "None — even diagnostics should derive from the run seed.",
        },
        Rule::UnboundedCollect => RuleDoc {
            rule,
            summary: "hash-ordered iterator collected into a `Vec` without sorting",
            rationale: "Collecting `HashMap`/`HashSet` iteration into a `Vec` freezes \
                        the per-process hash order into positional data; when that Vec \
                        later feeds generation (edge assembly, node selection), every \
                        run produces a different graph. Worse than a transient \
                        `hash-iter` because the nondeterminism outlives the statement \
                        (DESIGN.md §8).",
            example_bad: "let nodes: Vec<u32> = members.keys().copied().collect();",
            example_good: "let mut nodes: Vec<u32> = members.keys().copied().collect();\n\
                           nodes.sort_unstable();",
            suppression: "A Vec that is provably consumed order-insensitively before \
                          any RNG or output touches it — document why.",
        },
        Rule::UnsortedDirWalk => RuleDoc {
            rule,
            summary: "`fs::read_dir` results consumed without sorting",
            rationale: "Directory iteration order is filesystem-dependent (inode \
                        order on ext4, insertion order on tmpfs, name order on \
                        some network mounts), so any walk feeding file contents \
                        into processing produces machine-dependent results unless \
                        the entries are sorted first (DESIGN.md §8).",
            example_bad: "for entry in fs::read_dir(dir)? { visit(entry?); }",
            example_good: "let mut paths: Vec<_> = fs::read_dir(dir)?\n    \
                           .map(|e| e.map(|e| e.path())).collect::<Result<_, _>>()?;\n\
                           paths.sort();",
            suppression: "A walk whose consumer is provably order-insensitive \
                          (e.g. counting files, deleting everything) — document why.",
        },
        Rule::HashFloatAccum => RuleDoc {
            rule,
            summary: "float reduction (`sum`/`fold`) fed by a hash-ordered iterator",
            rationale: "Float addition is not associative; reducing in hash order makes \
                        the result depend on the per-process hasher seed, which breaks \
                        golden files and serve-vs-CLI byte equality.",
            example_bad: "map.values().map(|&c| c as f64 / n).sum::<f64>()",
            example_good: "BTreeMap iteration (or collect + sort) before the reduction",
            suppression: "Only when the reduction is exact in f64 (e.g. small-integer \
                          sums) — document the exactness argument.",
        },
        Rule::LossyCast => RuleDoc {
            rule,
            summary: "lossy `as` cast: `f64 as f32`, wide-int `as f32`, or a \
                      widening-then-truncating chain",
            rationale: "Silent precision loss moves error into places the golden tests \
                        cannot localize; conversions that can lose data should be \
                        explicit (`try_from`) or a documented design decision.",
            example_bad: "let w = (count as f64 / total as f64) as f32;",
            example_good: "keep f64 end to end, or baseline the documented demotion",
            suppression: "Deliberate precision demotions at storage boundaries (e.g. \
                          f64 accumulate → f32 store) with a comment at the site.",
        },
        Rule::BoxedErrorPub => RuleDoc {
            rule,
            summary: "`Box<dyn Error>` in a `pub fn` signature",
            rationale: "The PR 1 typed-error taxonomy exists so callers can match on \
                        failure modes; boxed errors erase that at the API boundary.",
            example_bad: "pub fn load(p: &Path) -> Result<Graph, Box<dyn Error>>",
            example_good: "pub fn load(p: &Path) -> Result<Graph, GraphError>",
            suppression: "None in workspace crates; bin-only glue may baseline it.",
        },
    }
}

/// Renders one rule's documentation for `--explain`.
pub fn explain(rule: Rule) -> String {
    let d = doc(rule);
    format!(
        "{name} [{family}/{severity}]\n  {summary}\n\nWhy:\n  {rationale}\n\n\
         Flagged:\n  {bad}\n\nInstead:\n  {good}\n\nBaseline policy:\n  {sup}\n",
        name = rule.name(),
        family = rule.family(),
        severity = rule.severity().name(),
        summary = d.summary,
        rationale = d.rationale,
        bad = d.example_bad,
        good = d.example_good,
        sup = d.suppression,
    )
}
