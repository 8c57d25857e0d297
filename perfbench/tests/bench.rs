//! The benchmark's own tests: every workload emits every catalogued metric
//! (end-to-end untraced, per-layer traced) with its unit at smoke size, corrupted outputs count as failed
//! operations, and `BENCHMARK.json` lists exactly the catalogue.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`
//! (the smoke workloads still fit and generate, which is slow unoptimised).

#![allow(clippy::panic, clippy::unwrap_used, clippy::expect_used)]

use perfbench::check::{check_served, Digests, Outcome};
use perfbench::client::Sample;
use perfbench::metrics::{self, Spec};
use perfbench::trace::Tracer;
use perfbench::{run, Ctx, Sizes, Workload};
use serde::Value;
use std::collections::BTreeMap;
use std::path::Path;

fn smoke_ctx(w: Workload, traced: bool) -> Ctx {
    Ctx {
        seed: 5,
        // Long enough for serve_mixed's schedule to reach its first repeats.
        seconds: 2.0,
        sizes: Sizes::smoke(),
        work_dir: perfbench::trace::out_dir().join(format!("test-{}-{traced}", w.name())),
    }
}

fn smoke(w: Workload) {
    for traced in [false, true] {
        let mut r = run(w, &smoke_ctx(w, traced), traced)
            .unwrap_or_else(|e| panic!("{} traced={traced}: {e}", w.name()));
        let problems = metrics::conform(traced, &mut r.metrics);
        assert!(problems.is_empty(), "{}: {problems:?}", w.name());
        assert!(r.outcome.attempted() > 0);
        assert_eq!(r.outcome.failed(), 0, "{:?}", r.outcome.reasons());
        let names: Vec<&str> = r.metrics.iter().map(|m| m.name.as_str()).collect();
        let want: Vec<&str> = metrics::expected(traced).iter().map(|s| s.name).collect();
        assert_eq!(names, want);
    }
}

#[test]
fn smoke_train_eval_emits_every_metric() {
    smoke(Workload::TrainEval);
}

#[test]
fn smoke_shard_100k_emits_every_metric() {
    smoke(Workload::Shard100k);
}

#[test]
fn smoke_serve_mixed_emits_every_metric() {
    smoke(Workload::ServeMixed);
}

#[test]
fn altered_digest_is_a_failed_operation() {
    let mut out = Outcome::default();
    let mut digests = Digests::default();
    let first = out.attempt();
    digests.record(&mut out, first, "generate seed 1", 0xabc);
    let again = out.attempt();
    digests.record(&mut out, again, "generate seed 1", 0xabc);
    assert_eq!(out.failed(), 0);
    let corrupted = out.attempt();
    digests.record(&mut out, corrupted, "generate seed 1", 0xabd);
    assert_eq!((out.attempted(), out.failed()), (3, 1));
}

#[test]
fn altered_served_body_is_a_failed_request() {
    let sample = |status, body_digest| Sample {
        status,
        body_digest,
        ..Sample::default()
    };
    let expected = BTreeMap::from([(7u64, 0x1111u64), (8, 0x2222)]);
    let mut out = Outcome::default();
    check_served(
        &mut out,
        &[sample(Some(200), 0x1111), sample(Some(200), 0x2222)],
        &[7, 8],
        &expected,
    );
    assert_eq!((out.attempted(), out.failed()), (2, 0));
    // One flipped body and one refused request: both fail.
    check_served(
        &mut out,
        &[sample(Some(200), 0x1110), sample(Some(429), 0)],
        &[7, 8],
        &expected,
    );
    assert_eq!((out.attempted(), out.failed()), (4, 2));
}

#[test]
fn self_time_subtracts_the_union_of_overlapping_children() {
    let tr = Tracer::on();
    {
        let _parent = tr.enter("parent");
        let t = tr.now_ns();
        tr.record("child", t, t + 1_000_000);
        tr.record("child", t + 500_000, t + 1_500_000);
        // Keep the parent open past its children's end.
        while tr.now_ns() < t + 2_000_000 {
            std::hint::spin_loop();
        }
    }
    let spans = tr.spans();
    let selfs = tr.self_times_ns();
    let parent = spans[0].end_ns - spans[0].start_ns;
    assert!(parent >= 1_500_000);
    assert_eq!(selfs[0], parent - 1_500_000);
    assert_eq!(selfs[1], 1_000_000);
    assert_ne!(spans[1].op, spans[2].op);
}

fn specs_of(doc: &Value, key: &str) -> Vec<(String, String)> {
    let Some(Value::Array(items)) = doc.get(key) else {
        panic!("BENCHMARK.json: no {key} array");
    };
    items
        .iter()
        .map(|m| {
            let field = |f: &str| match m.get(f) {
                Some(Value::Str(s)) => s.clone(),
                other => panic!("{key}: field {f} is {other:?}"),
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn catalogue(specs: &[Spec]) -> Vec<(String, String)> {
    specs
        .iter()
        .map(|s| (s.name.to_string(), s.unit.to_string()))
        .collect()
}

#[test]
fn benchmark_json_lists_the_catalogue() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let doc = serde_json::parse_value(&text).expect("BENCHMARK.json parses");
    assert_eq!(specs_of(&doc, "end_to_end"), catalogue(metrics::END_TO_END));
    assert_eq!(specs_of(&doc, "per_layer"), catalogue(metrics::PER_LAYER));
    let Some(Value::Array(workloads)) = doc.get("workloads") else {
        panic!("BENCHMARK.json: no workloads array");
    };
    let names: Vec<Option<&Value>> = workloads.iter().map(|w| w.get("name")).collect();
    let want: Vec<Option<Value>> = Workload::ALL
        .iter()
        .map(|w| Some(Value::Str(w.name().to_string())))
        .collect();
    assert_eq!(names, want.iter().map(Option::as_ref).collect::<Vec<_>>());
}
