//! Merged report: JSONL sink and human-readable summary tree.

use crate::collect::SpanStat;
use crate::metrics::Hist;
use serde::{Serialize, Value};
use serde_json::json;
use std::collections::BTreeMap;

/// A merged snapshot of everything every thread recorded.
///
/// Produced by [`crate::snapshot`]; all maps are `BTreeMap`s so iteration
/// (and therefore both sinks) is deterministically ordered. Fields whose
/// JSONL key ends in `_ns` hold wall-clock durations and are the only
/// thread-count-dependent values in the report (histogram `sum` stays
/// invariant because recorded samples are integer-valued work sizes, whose
/// f64 additions are exact and hence order-independent below 2^53).
#[derive(Debug, Default)]
pub struct Report {
    pub(crate) spans: BTreeMap<String, SpanStat>,
    pub(crate) counters: BTreeMap<String, u64>,
    pub(crate) gauges: BTreeMap<String, (u64, f64)>,
    pub(crate) hists: BTreeMap<String, Hist>,
    pub(crate) series: BTreeMap<String, Vec<(u64, f64)>>,
}

impl Report {
    /// Canonicalizes order-dependent pieces: each series is stable-sorted by
    /// `(step, value)` so concatenating per-thread segments in any order
    /// yields the same point list.
    pub(crate) fn normalize(&mut self) {
        for points in self.series.values_mut() {
            points.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.total_cmp(&b.1)));
        }
    }

    /// Aggregated `(count, total_ns)` of a span path, if recorded.
    pub fn span_stat(&self, path: &str) -> Option<(u64, u64)> {
        self.spans.get(path).map(|s| (s.count, s.total_ns))
    }

    /// Value of a counter, if recorded.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// Latest value of a gauge, if set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).map(|&(_, v)| v)
    }

    /// A histogram by name, if recorded.
    pub fn hist(&self, name: &str) -> Option<&Hist> {
        self.hists.get(name)
    }

    /// The points of a scalar series, sorted by `(step, value)`.
    pub fn series(&self, name: &str) -> Option<&[(u64, f64)]> {
        self.series.get(name).map(Vec::as_slice)
    }

    /// Renders the report as JSONL: one `meta` line, then one line per span
    /// path, counter, gauge, histogram, and series, each tagged with `"t"`.
    ///
    /// Everything except `_ns`-suffixed fields and the `meta` line is
    /// thread-count invariant; the determinism suite strips exactly those.
    pub fn to_jsonl(&self) -> String {
        let threads = std::env::var("CPGAN_THREADS").unwrap_or_default();
        let mut lines = vec![json!({"t": "meta", "cpgan_threads": threads})];
        for (path, s) in &self.spans {
            lines.push(entry("span", "path", path, span_value(s)));
        }
        for (name, &v) in &self.counters {
            lines.push(entry("counter", "name", name, json!({"value": v})));
        }
        for (name, &(_, v)) in &self.gauges {
            let v = Value::from(v);
            lines.push(entry("gauge", "name", name, json!({"value": v})));
        }
        for (name, h) in &self.hists {
            lines.push(entry("hist", "name", name, hist_value(h)));
        }
        for (name, points) in &self.series {
            let points = series_value(points);
            lines.push(entry("series", "name", name, json!({"points": points})));
        }
        lines.iter().map(|line| render(line) + "\n").collect()
    }

    /// Renders the report as one JSON object —
    /// `{"spans":{...},"counters":{...},"gauges":{...},"hists":{...},
    /// "series":{...}}` — for machine consumers that want a single
    /// document rather than the JSONL stream (e.g. the serving layer's
    /// `GET /metrics` endpoint). Key order is the `BTreeMap` order, so
    /// the rendering is deterministic.
    pub fn to_json(&self) -> String {
        render(&json!({
            "spans": object(&self.spans, span_value),
            "counters": object(&self.counters, |&v| Value::UInt(v)),
            "gauges": object(&self.gauges, |&(_, v)| Value::from(v)),
            "hists": object(&self.hists, hist_value),
            "series": object(&self.series, |points| series_value(points)),
        }))
    }

    /// Renders a deterministic human-readable summary: spans as an indented
    /// tree (durations included — those vary run to run, the structure does
    /// not), then counters, gauges, histograms, and series extents.
    pub fn summary_tree(&self) -> String {
        let mut out = String::from("== cpgan-obs summary ==\n");
        if !self.spans.is_empty() {
            out.push_str("spans:\n");
            for (path, s) in &self.spans {
                let depth = path.matches('/').count();
                let leaf = path.rsplit('/').next().unwrap_or(path);
                let label = format!("{}{}", "  ".repeat(depth + 1), leaf);
                out.push_str(&format!(
                    "{label:<40} count={:<8} total={}\n",
                    s.count,
                    fmt_dur(s.total_ns)
                ));
            }
        }
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (name, v) in &self.counters {
                if name.ends_with("_ns") {
                    out.push_str(&format!("  {name:<38} {}\n", fmt_dur(*v)));
                } else {
                    out.push_str(&format!("  {name:<38} {v}\n"));
                }
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges:\n");
            for (name, &(_, v)) in &self.gauges {
                out.push_str(&format!("  {name:<38} {v}\n"));
            }
        }
        if !self.hists.is_empty() {
            out.push_str("histograms:\n");
            for (name, h) in &self.hists {
                out.push_str(&format!(
                    "  {name:<38} count={} min={} max={} mean={}\n",
                    h.count,
                    h.min,
                    h.max,
                    if h.count > 0 {
                        h.sum / h.count as f64
                    } else {
                        0.0
                    }
                ));
            }
        }
        if !self.series.is_empty() {
            out.push_str("series:\n");
            for (name, points) in &self.series {
                let last = points.last().map(|&(s, v)| format!("last=({s}, {v})"));
                out.push_str(&format!(
                    "  {name:<38} points={} {}\n",
                    points.len(),
                    last.unwrap_or_default()
                ));
            }
        }
        out
    }
}

/// Flushes observability at program exit: when collection is enabled, merges
/// all collectors, writes the JSONL report to `CPGAN_OBS_OUT` (falling back
/// to `default_out`), and prints the summary tree to stderr. A no-op when
/// collection is disabled; sink I/O errors are reported to stderr, never
/// panicked on.
pub fn finish(default_out: Option<&str>) {
    if !crate::enabled() {
        return;
    }
    let report = crate::snapshot();
    let env_out = std::env::var("CPGAN_OBS_OUT").ok();
    let out_path = env_out.as_deref().or(default_out);
    if let Some(path) = out_path {
        if let Some(parent) = std::path::Path::new(path).parent() {
            if !parent.as_os_str().is_empty() {
                if let Err(e) = std::fs::create_dir_all(parent) {
                    eprintln!("cpgan-obs: cannot create {}: {e}", parent.display());
                }
            }
        }
        match std::fs::write(path, report.to_jsonl()) {
            Ok(()) => eprintln!("cpgan-obs: wrote {path}"),
            Err(e) => eprintln!("cpgan-obs: cannot write {path}: {e}"),
        }
    }
    eprint!("{}", report.summary_tree());
}

fn span_value(s: &SpanStat) -> Value {
    json!({"count": s.count, "total_ns": s.total_ns})
}

/// Non-finite `sum`/`min`/`max` (an empty histogram's infinities) become
/// `null`; only non-empty buckets are listed, as `[index, count]` pairs.
fn hist_value(h: &Hist) -> Value {
    let buckets: Vec<(usize, u64)> = h
        .buckets
        .iter()
        .enumerate()
        .filter(|&(_, &c)| c > 0)
        .map(|(i, &c)| (i, c))
        .collect();
    json!({
        "count": h.count,
        "sum": Value::from(h.sum),
        "min": Value::from(h.min),
        "max": Value::from(h.max),
        "buckets": buckets,
    })
}

fn series_value(points: &[(u64, f64)]) -> Value {
    Value::Array(
        points
            .iter()
            .map(|&(step, v)| Value::Array(vec![Value::UInt(step), Value::from(v)]))
            .collect(),
    )
}

/// A JSONL line: the `"t"` tag and the entry's name ahead of `body`'s fields.
fn entry(t: &str, key: &str, name: &str, body: Value) -> Value {
    let mut fields = vec![
        ("t".to_string(), t.to_value()),
        (key.to_string(), name.to_value()),
    ];
    if let Value::Object(rest) = body {
        fields.extend(rest);
    }
    Value::Object(fields)
}

fn object<T>(map: &BTreeMap<String, T>, value: impl Fn(&T) -> Value) -> Value {
    Value::Object(map.iter().map(|(k, v)| (k.clone(), value(v))).collect())
}

/// Compact JSON text. Cannot fail: every float went through
/// `Value::from(f64)`, which turns the non-finite ones into `null`.
fn render(value: &Value) -> String {
    serde_json::to_string(value).unwrap_or_default()
}

/// Human-readable duration from nanoseconds.
fn fmt_dur(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sinks_escape_names_and_null_non_finite_values() {
        let mut r = Report::default();
        let path = "a\"q\\b\nc";
        r.spans.insert(
            path.to_string(),
            crate::collect::SpanStat {
                count: 2,
                total_ns: 9,
            },
        );
        r.gauges.insert("g".to_string(), (1, f64::NAN));
        r.hists.insert("empty".to_string(), Hist::default());
        let jsonl = r.to_jsonl();
        let lines: Vec<Value> = jsonl
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect();
        assert_eq!(lines.len(), 4, "{jsonl}");
        let span = json!({"count": 2i64, "total_ns": 9i64});
        assert_eq!(lines[1], entry("span", "path", path, span.clone()));
        assert_eq!(lines[2].get("value"), Some(&Value::Null));
        assert_eq!(lines[3].get("min"), Some(&Value::Null));
        let doc: Value = serde_json::from_str(&r.to_json()).unwrap();
        assert_eq!(doc.get("spans").and_then(|s| s.get(path)), Some(&span));
        assert_eq!(doc.get("gauges").unwrap().get("g"), Some(&Value::Null));
    }

    #[test]
    fn normalize_sorts_series_points() {
        let mut r = Report::default();
        r.series.insert(
            "loss".to_string(),
            vec![(2, 0.5), (0, 1.0), (1, 0.7), (1, 0.2)],
        );
        r.normalize();
        assert_eq!(
            r.series("loss"),
            Some(&[(0, 1.0), (1, 0.2), (1, 0.7), (2, 0.5)][..])
        );
    }

    #[test]
    fn jsonl_shape_and_tree() {
        let mut r = Report::default();
        r.spans.insert(
            "a/b".to_string(),
            crate::collect::SpanStat {
                count: 3,
                total_ns: 1500,
            },
        );
        r.counters.insert("jobs".to_string(), 7);
        let jsonl = r.to_jsonl();
        assert!(jsonl.contains("\"t\":\"meta\""));
        assert!(jsonl.contains("{\"t\":\"span\",\"path\":\"a/b\",\"count\":3,\"total_ns\":1500}"));
        assert!(jsonl.contains("{\"t\":\"counter\",\"name\":\"jobs\",\"value\":7}"));
        let tree = r.summary_tree();
        assert!(tree.contains("spans:"));
        assert!(tree.contains("b"));
        assert!(tree.contains("jobs"));
    }

    #[test]
    fn json_object_shape() {
        let mut r = Report::default();
        r.spans.insert(
            "a/b".to_string(),
            crate::collect::SpanStat {
                count: 3,
                total_ns: 1500,
            },
        );
        r.counters.insert("jobs".to_string(), 7);
        r.gauges.insert("depth".to_string(), (1, 2.5));
        let mut h = Hist::default();
        h.record(4.0);
        r.hists.insert("lat".to_string(), h);
        r.series.insert("loss".to_string(), vec![(0, 1.0)]);
        let json = r.to_json();
        assert!(json.starts_with("{\"spans\":{"), "{json}");
        assert!(
            json.contains("\"a/b\":{\"count\":3,\"total_ns\":1500}"),
            "{json}"
        );
        assert!(json.contains("\"counters\":{\"jobs\":7}"), "{json}");
        assert!(json.contains("\"gauges\":{\"depth\":2.5}"), "{json}");
        assert!(json.contains("\"lat\":{\"count\":1,"), "{json}");
        assert!(json.contains("\"series\":{\"loss\":[[0,1.0]]}"), "{json}");
        assert!(json.ends_with("}}"), "{json}");
        // An empty report is still a complete, parseable object.
        let empty = Report::default().to_json();
        assert_eq!(
            empty,
            "{\"spans\":{},\"counters\":{},\"gauges\":{},\"hists\":{},\"series\":{}}"
        );
    }
}
