#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Workspace automation tasks, invoked as `cargo xtask <command>`.
//!
//! The only command today is `lint`: a custom static analyzer enforcing the
//! workspace's panic-safety, determinism, and numeric-safety policies (see
//! DESIGN.md §7, §8 and §12). It depends only on the in-repo serde shims
//! (for `--json`) — a hand-rolled lexer plus token-walking rules, not a
//! full parser — so it builds instantly and runs offline.
//!
//! Pipeline:
//!
//! 1. [`lexer`] turns the source into a token stream (strings, chars,
//!    comments, raw strings and lifetimes classified, with line/column
//!    spans) so rules never fire inside literals or comments.
//! 2. [`context`] derives per-file facts: test-gated item spans, a
//!    heuristic binding-type table, and `fn` signature spans.
//! 3. [`rules`] hosts one module per rule family; each walks the code
//!    tokens with lookahead. [`scan`] orchestrates them per file.
//! 4. [`manifest`] checks crate `Cargo.toml` dependency hygiene.
//! 5. [`baseline`] suppresses pre-existing violations via a checked-in
//!    ratchet file that is only ever allowed to shrink.
//! 6. [`walk`] ties it together over `crates/*/src/**/*.rs` plus each
//!    crate manifest.
//!
//! [`mask`] is the PR 1 line-masking scanner kept as the differential-test
//! oracle for the lexer (see `tests/tokenizer_differential.rs`).

pub mod baseline;
pub mod context;
pub mod lexer;
pub mod manifest;
pub mod mask;
pub mod rules;
pub mod scan;
pub mod walk;

use serde::{Serialize, Value};
use serde_json::json;
use std::fmt;

/// The rules enforced by `cargo xtask lint`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// `.unwrap()` in library (non-test) code.
    NoUnwrap,
    /// `.expect(..)` in library (non-test) code.
    NoExpect,
    /// `panic!`, `todo!` or `unimplemented!` in library code.
    NoPanic,
    /// `==`/`!=` against a floating-point literal.
    FloatEq,
    /// `partial_cmp(..).expect(..)`-style comparators.
    PartialCmpExpect,
    /// Crate manifests must take dependencies from the workspace table.
    WorkspaceDeps,
    /// Direct `std::thread` spawning outside the `cpgan-parallel` runtime.
    AdHocThreading,
    /// Raw `Instant::now()`/`SystemTime::now()` timing outside `cpgan-obs`
    /// and `cpgan-bench`.
    AdHocTiming,
    /// Iteration over `HashMap`/`HashSet` outside an immediately-sorted
    /// context.
    HashIter,
    /// Unseeded or environment-derived entropy (`thread_rng`, `OsRng`,
    /// `RandomState`, `from_entropy`, `rand::random`).
    UnseededRng,
    /// Float reduction (`.sum()`/`.fold()`) fed by a hash-ordered iterator.
    HashFloatAccum,
    /// Lossy `as` cast (`f64 as f32`, wide-int `as f32`,
    /// widening-then-truncating chains).
    LossyCast,
    /// `Box<dyn Error>` in a `pub fn` signature instead of a typed error.
    BoxedErrorPub,
    /// Collecting a hash-ordered iterator into a `Vec` without sorting it.
    UnboundedCollect,
    /// `thread::sleep` or `set_read_timeout` inside a loop body — a
    /// sleep-poll standing in for a blocking primitive.
    SleepPoll,
    /// `fs::read_dir` results consumed without sorting — directory order
    /// is filesystem-dependent.
    UnsortedDirWalk,
}

/// Severity attached to each rule: `Error` rules protect a hard invariant
/// (determinism, panic-freedom); `Warning` rules flag hygiene debt. Both
/// gate CI identically through the baseline ratchet — severity is report
/// metadata, not an enforcement tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Violates a hard workspace invariant.
    Error,
    /// Hygiene / debt finding.
    Warning,
}

impl Severity {
    /// Stable lowercase name used in `--json` output.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
        }
    }
}

impl Rule {
    /// Every rule, in registry order (used by `--explain` and the doc-sync
    /// test; keep in step with the `DESIGN.md` §12 catalog).
    pub const ALL: [Rule; 16] = [
        Rule::NoUnwrap,
        Rule::NoExpect,
        Rule::NoPanic,
        Rule::FloatEq,
        Rule::PartialCmpExpect,
        Rule::WorkspaceDeps,
        Rule::AdHocThreading,
        Rule::AdHocTiming,
        Rule::SleepPoll,
        Rule::HashIter,
        Rule::UnseededRng,
        Rule::UnboundedCollect,
        Rule::UnsortedDirWalk,
        Rule::HashFloatAccum,
        Rule::LossyCast,
        Rule::BoxedErrorPub,
    ];

    /// Stable kebab-case rule name used in output and the baseline file.
    pub fn name(self) -> &'static str {
        match self {
            Rule::NoUnwrap => "no-unwrap",
            Rule::NoExpect => "no-expect",
            Rule::NoPanic => "no-panic",
            Rule::FloatEq => "float-eq",
            Rule::PartialCmpExpect => "partial-cmp-expect",
            Rule::WorkspaceDeps => "workspace-deps",
            Rule::AdHocThreading => "ad-hoc-threading",
            Rule::AdHocTiming => "ad-hoc-timing",
            Rule::SleepPoll => "sleep-poll",
            Rule::HashIter => "hash-iter",
            Rule::UnseededRng => "unseeded-rng",
            Rule::HashFloatAccum => "hash-float-accum",
            Rule::LossyCast => "lossy-cast",
            Rule::BoxedErrorPub => "boxed-error-pub",
            Rule::UnboundedCollect => "unbounded-collect",
            Rule::UnsortedDirWalk => "unsorted-dir-walk",
        }
    }

    /// Parses a rule from its [`Rule::name`] form.
    pub fn from_name(name: &str) -> Option<Rule> {
        Rule::ALL.into_iter().find(|r| r.name() == name)
    }

    /// The rule family (one module under [`rules`] per family).
    pub fn family(self) -> &'static str {
        match self {
            Rule::NoUnwrap | Rule::NoExpect | Rule::NoPanic | Rule::PartialCmpExpect => {
                "panic-safety"
            }
            Rule::FloatEq | Rule::HashFloatAccum => "float-order",
            Rule::WorkspaceDeps => "manifest",
            Rule::AdHocThreading | Rule::AdHocTiming | Rule::SleepPoll => "runtime-gates",
            Rule::HashIter | Rule::UnseededRng | Rule::UnboundedCollect | Rule::UnsortedDirWalk => {
                "determinism"
            }
            Rule::LossyCast | Rule::BoxedErrorPub => "cast-safety",
        }
    }

    /// Severity of this rule (see [`Severity`]).
    pub fn severity(self) -> Severity {
        match self {
            Rule::LossyCast | Rule::BoxedErrorPub => Severity::Warning,
            _ => Severity::Error,
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// 1-based column (byte) number; 0 when unknown (manifest rules).
    pub col: usize,
    /// The rule that fired.
    pub rule: Rule,
    /// Human-readable explanation with the suggested fix.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.col == 0 {
            write!(
                f,
                "{}:{}: {} — {}",
                self.file, self.line, self.rule, self.message
            )
        } else {
            write!(
                f,
                "{}:{}:{}: {} — {}",
                self.file, self.line, self.col, self.rule, self.message
            )
        }
    }
}

impl Serialize for Violation {
    fn to_value(&self) -> Value {
        json!({
            "file": self.file,
            "line": self.line,
            "col": self.col,
            "rule": self.rule.name(),
            "family": self.rule.family(),
            "severity": self.rule.severity().name(),
            "message": self.message,
        })
    }
}

impl Violation {
    /// Renders the violation as a JSON object (for `--json` mode).
    pub fn to_json(&self) -> String {
        // Strings and integers only, so rendering cannot fail.
        serde_json::to_string(self).unwrap_or_default()
    }
}
