//! Fixture-driven integration tests for the lint engine: each file under
//! `tests/fixtures/` exercises one rule class (or its exemption), and the
//! baseline tests cover the ratchet semantics end to end.

// Integration-test helpers sit outside `#[test]` fns, so the
// `allow-panic-in-tests` carve-out does not reach them.
#![allow(clippy::panic, clippy::unwrap_used, clippy::expect_used)]

use std::fs;
use std::path::PathBuf;
use xtask::baseline::Baseline;
use xtask::manifest::scan_manifest;
use xtask::scan::scan_source;
use xtask::{Rule, Violation};

fn fixture(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn scan_fixture(name: &str) -> Vec<Violation> {
    scan_source(name, &fixture(name))
}

#[test]
fn clean_fixture_has_no_findings() {
    let v = scan_fixture("clean.rs");
    assert!(v.is_empty(), "clean fixture flagged: {v:?}");
}

#[test]
fn unwrap_and_expect_fixture() {
    let v = scan_fixture("unwrap_expect.rs");
    let rules: Vec<Rule> = v.iter().map(|v| v.rule).collect();
    assert_eq!(rules, vec![Rule::NoUnwrap, Rule::NoExpect], "{v:?}");
    assert_eq!(v[0].line, 5);
    assert_eq!(v[1].line, 10);
}

#[test]
fn panic_family_fixture() {
    let v = scan_fixture("panics.rs");
    assert_eq!(v.len(), 3, "{v:?}");
    assert!(v.iter().all(|v| v.rule == Rule::NoPanic));
    assert_eq!(
        v.iter().map(|v| v.line).collect::<Vec<_>>(),
        vec![5, 10, 15]
    );
}

#[test]
fn float_eq_fixture() {
    let v = scan_fixture("float_eq.rs");
    assert_eq!(v.len(), 2, "{v:?}");
    assert!(v.iter().all(|v| v.rule == Rule::FloatEq));
    assert_eq!(v.iter().map(|v| v.line).collect::<Vec<_>>(), vec![5, 10]);
}

#[test]
fn partial_cmp_fixture() {
    let v = scan_fixture("partial_cmp.rs");
    // One specific finding per comparator — the generic no-unwrap/no-expect
    // rules must not double-report the same chain.
    assert_eq!(v.len(), 2, "{v:?}");
    assert!(v.iter().all(|v| v.rule == Rule::PartialCmpExpect));
    assert_eq!(v.iter().map(|v| v.line).collect::<Vec<_>>(), vec![5, 10]);
}

#[test]
fn timing_fixture() {
    let v = scan_fixture("timing.rs");
    assert_eq!(v.len(), 2, "{v:?}");
    assert!(v.iter().all(|v| v.rule == Rule::AdHocTiming));
    assert_eq!(v.iter().map(|v| v.line).collect::<Vec<_>>(), vec![5, 10]);
    // The observability crate and the bench harness are allowed to read the
    // clock directly.
    for exempt in ["crates/obs/src/span.rs", "crates/bench/src/bin/x.rs"] {
        let v = scan_source(exempt, &fixture("timing.rs"));
        assert!(
            v.iter().all(|v| v.rule != Rule::AdHocTiming),
            "{exempt} flagged: {v:?}"
        );
    }
}

#[test]
fn bench_bin_timing_idiom_is_exempt_only_under_bench() {
    // The matmul/parallel bench binaries read the clock in best-of rep
    // loops; that idiom is fine under crates/bench/ and a violation
    // anywhere else — including a bench-sounding module in another crate.
    for exempt in [
        "crates/bench/src/bin/matmul.rs",
        "crates/bench/src/bin/parallel.rs",
        "crates/bench/src/bin/serve.rs",
        "crates/bench/src/lib.rs",
    ] {
        let v = scan_source(exempt, &fixture("timing_bench_bin.rs"));
        assert!(
            v.iter().all(|v| v.rule != Rule::AdHocTiming),
            "{exempt} flagged: {v:?}"
        );
    }
    for flagged in ["crates/nn/src/kernels.rs", "crates/eval/src/bench_like.rs"] {
        let v = scan_source(flagged, &fixture("timing_bench_bin.rs"));
        assert!(
            v.iter().any(|v| v.rule == Rule::AdHocTiming),
            "{flagged} not flagged: {v:?}"
        );
    }
}

#[test]
fn sleep_poll_fixture() {
    let v = scan_fixture("sleep_poll.rs");
    let sp: Vec<_> = v.iter().filter(|v| v.rule == Rule::SleepPoll).collect();
    assert_eq!(sp.len(), 3, "{v:?}");
    assert_eq!(
        sp.iter().map(|v| v.line).collect::<Vec<_>>(),
        vec![6, 14, 24]
    );
    // Load generators measure the other side of the socket: short client
    // timeouts inside request loops are the workload, not a poll.
    let v = scan_source("crates/bench/src/bin/serve.rs", &fixture("sleep_poll.rs"));
    assert!(
        v.iter().all(|v| v.rule != Rule::SleepPoll),
        "bench exempt, yet flagged: {v:?}"
    );
}

#[test]
fn hash_iter_fixture() {
    let v = scan_fixture("determinism_hash_iter.rs");
    // Both forms fire (method chain and for-loop); the BTreeMap, the
    // collect-and-sort, the string-masked, and the in-test iterations stay
    // clean.
    assert!(v.iter().all(|v| v.rule == Rule::HashIter), "{v:?}");
    assert_eq!(v.iter().map(|v| v.line).collect::<Vec<_>>(), vec![7, 18]);
}

#[test]
fn unbounded_collect_fixture() {
    let v = scan_fixture("unbounded_collect.rs");
    // The two unsorted Vec collects fire; collect-then-sort and BTree
    // targets stay clean; the HashSet-target collect (no Vec evidence)
    // falls through to plain `hash-iter`; strings and tests are masked.
    assert_eq!(
        v.iter().map(|v| (v.rule, v.line)).collect::<Vec<_>>(),
        vec![
            (Rule::UnboundedCollect, 8),
            (Rule::UnboundedCollect, 14),
            (Rule::HashIter, 32),
        ],
        "{v:?}"
    );
}

#[test]
fn unsorted_dir_walk_fixture() {
    let v = scan_fixture("unsorted_dir_walk.rs");
    // The bare for-loop walk and the unsorted collect fire; the
    // collect-then-sort walk, the string-masked call, and the in-test walk
    // stay clean.
    assert_eq!(
        v.iter().map(|v| (v.rule, v.line)).collect::<Vec<_>>(),
        vec![(Rule::UnsortedDirWalk, 9), (Rule::UnsortedDirWalk, 18),],
        "{v:?}"
    );
}

#[test]
fn unseeded_rng_fixture() {
    let v = scan_fixture("unseeded_rng.rs");
    assert!(v.iter().all(|v| v.rule == Rule::UnseededRng), "{v:?}");
    assert_eq!(
        v.iter().map(|v| v.line).collect::<Vec<_>>(),
        vec![8, 13, 18, 19, 24, 25]
    );
}

#[test]
fn hash_float_accum_fixture() {
    let v = scan_fixture("hash_float_accum.rs");
    // Float reductions report as hash-float-accum and claim their own
    // iteration call; the integer reduction stays a plain hash-iter.
    assert_eq!(
        v.iter().map(|v| (v.rule, v.line)).collect::<Vec<_>>(),
        vec![
            (Rule::HashFloatAccum, 8),
            (Rule::HashFloatAccum, 13),
            (Rule::HashIter, 19),
        ],
        "{v:?}"
    );
}

#[test]
fn lossy_cast_fixture() {
    let v = scan_fixture("lossy_cast.rs");
    assert!(v.iter().all(|v| v.rule == Rule::LossyCast), "{v:?}");
    assert_eq!(
        v.iter().map(|v| v.line).collect::<Vec<_>>(),
        vec![5, 10, 15, 20, 25]
    );
}

#[test]
fn boxed_error_fixture() {
    let v = scan_fixture("boxed_error.rs");
    // Public erased-error signatures only: private fns, typed errors,
    // non-error boxes, strings, and test helpers stay clean.
    assert!(v.iter().all(|v| v.rule == Rule::BoxedErrorPub), "{v:?}");
    assert_eq!(v.iter().map(|v| v.line).collect::<Vec<_>>(), vec![6, 11]);
}

#[test]
fn cfg_test_items_are_exempt() {
    let v = scan_fixture("cfg_test_exempt.rs");
    assert!(v.is_empty(), "test-only code flagged: {v:?}");
}

#[test]
fn manifest_fixtures() {
    let good = scan_manifest("manifest_good.toml", &fixture("manifest_good.toml"));
    assert!(good.is_empty(), "good manifest flagged: {good:?}");
    let bad = scan_manifest("manifest_bad.toml", &fixture("manifest_bad.toml"));
    assert_eq!(bad.len(), 3, "{bad:?}");
    assert!(bad.iter().all(|v| v.rule == Rule::WorkspaceDeps));
    assert_eq!(
        bad.iter().map(|v| v.line).collect::<Vec<_>>(),
        vec![8, 9, 12]
    );
}

#[test]
fn violation_display_format() {
    let v = &scan_fixture("unwrap_expect.rs")[0];
    let line = v.to_string();
    assert!(
        line.starts_with("unwrap_expect.rs:5:7: no-unwrap — "),
        "unexpected format: {line}"
    );
    let json = v.to_json();
    assert!(json.contains("\"file\":\"unwrap_expect.rs\""), "{json}");
    assert!(json.contains("\"line\":5"), "{json}");
    assert!(json.contains("\"col\":7"), "{json}");
    assert!(json.contains("\"rule\":\"no-unwrap\""), "{json}");
    assert!(json.contains("\"family\":\"panic-safety\""), "{json}");
    assert!(json.contains("\"severity\":\"error\""), "{json}");
}

#[test]
fn violation_json_round_trips_a_quoted_message() {
    let v = Violation {
        file: "crates/a/src/lib.rs".to_string(),
        line: 3,
        col: 9,
        rule: Rule::NoUnwrap,
        message: "replace \"x.unwrap()\" with `?`\\n".to_string(),
    };
    let back: serde::Value = serde_json::from_str(&v.to_json()).unwrap();
    assert_eq!(
        back.get("message"),
        Some(&serde::Value::Str(v.message.clone()))
    );
    assert_eq!(back.get("line").and_then(serde::Value::as_u64), Some(3));
    assert_eq!(
        back.get("rule"),
        Some(&serde::Value::Str("no-unwrap".to_string()))
    );
}

#[test]
fn baseline_round_trips_through_render_and_parse() {
    let mut findings = scan_fixture("unwrap_expect.rs");
    findings.extend(scan_fixture("panics.rs"));
    findings.extend(scan_fixture("float_eq.rs"));
    let baseline = Baseline::from_violations(&findings);
    let reparsed = Baseline::parse(&baseline.render()).expect("canonical render must parse");
    assert_eq!(reparsed, baseline);
}

#[test]
fn baseline_suppresses_exactly_its_budget() {
    let findings = scan_fixture("panics.rs");
    let baseline = Baseline::from_violations(&findings);
    let report = baseline.check(&findings);
    assert!(report.passed());
    assert_eq!(report.suppressed, findings.len());
}

#[test]
fn baseline_rejects_growth() {
    let findings = scan_fixture("panics.rs");
    let baseline = Baseline::from_violations(&findings[..2]);
    // One more no-panic than the baseline tolerates: check fails...
    let report = baseline.check(&findings);
    assert!(!report.passed());
    assert_eq!(report.new_violations.len(), 3, "{report:?}");
    // ...and --update-baseline refuses to absorb it.
    let err = baseline.ratchet_to(&findings);
    assert!(err.is_err(), "ratchet must refuse growth");
}

#[test]
fn baseline_ratchets_down() {
    let findings = scan_fixture("panics.rs");
    let baseline = Baseline::from_violations(&findings);
    let fewer = &findings[..1];
    let report = baseline.check(fewer);
    assert!(report.passed());
    assert_eq!(report.stale.len(), 1, "{report:?}");
    let next = baseline.ratchet_to(fewer).expect("shrinking is allowed");
    assert_eq!(next.entries.values().sum::<usize>(), 1);
}

#[test]
fn checked_in_workspace_baseline_parses() {
    let content = fixture("../../lint-baseline.toml");
    let baseline = Baseline::parse(&content).expect("checked-in baseline must parse");
    assert!(!baseline.entries.is_empty());
}
