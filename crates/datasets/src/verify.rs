//! Reference-stat verification (`cpgan data verify`).
//!
//! Recomputes the registry's reference scalars — n, m, mean degree,
//! degree Gini, power-law exponent, characteristic path length — on a
//! loaded graph and diffs each against the entry's reference value under
//! that entry's per-stat tolerance. What the reference *is* depends on
//! the entry's [`crate::registry::DataProvenance`]:
//!
//! * **upstream** entries diff against the published Table II (or
//!   exemplar-table) values — a real-graph fidelity check, runnable once
//!   the real files are placed in the cache;
//! * **fixture surrogates** diff against measurements recorded when the
//!   fixture was generated — an ingestion-fidelity gate (parsers,
//!   interning, symmetrization, CSR build must reproduce the recorded
//!   numbers), deliberately *not* a claim about the real dataset;
//! * **synthetic stand-ins** diff against their spec's published targets
//!   under wide synthesizer-fidelity bounds.
//!
//! The PWE check uses the KS-fitted-cutoff estimator
//! ([`powerlaw::powerlaw_exponent_ks`]): published tables fit the cutoff
//! too, and the fixed `d_min = 1` estimator is mathematically capped at
//! `1 + 1/ln 2 ≈ 2.44`, below e.g. Citeseer's published 2.8757.
//!
//! All measurements are deterministic: CPL uses evenly-spaced BFS
//! sources, everything else is a pure fold over the degree sequence, so
//! reports are bit-identical across thread counts.

use crate::registry::DatasetEntry;
use cpgan_graph::stats::{gini, path, powerlaw};
use cpgan_graph::Graph;
use serde::{Serialize, Value};
use serde_json::json;

/// Default BFS-source cap for the CPL measurement. 512 evenly-spaced
/// sources keep verification fast on large graphs while staying exact on
/// graphs smaller than the cap.
pub const DEFAULT_CPL_SOURCES: usize = 512;

/// One reference-vs-measured comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct StatCheck {
    /// Stat name (`n`, `m`, `mean_degree`, `gini`, `pwe`, `cpl`).
    pub stat: &'static str,
    /// Reference value (published, recorded-fixture, or stand-in target —
    /// see the module docs).
    pub reference: f64,
    /// Value measured on the loaded graph.
    pub measured: f64,
    /// Absolute tolerance applied (0 = must match exactly).
    pub tolerance: f64,
    /// Whether `|measured - reference| <= tolerance`.
    pub pass: bool,
}

/// The full verification report for one dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyReport {
    /// Registry name of the dataset.
    pub dataset: String,
    /// Every comparison performed, registry order.
    pub checks: Vec<StatCheck>,
}

impl VerifyReport {
    /// Whether every check passed.
    pub fn passed(&self) -> bool {
        self.checks.iter().all(|c| c.pass)
    }

    /// Human-readable fixed-width table.
    pub fn render(&self) -> String {
        let mut out = format!(
            "verify {}\n  {:<12} {:>14} {:>14} {:>12}  status\n",
            self.dataset, "stat", "reference", "measured", "tolerance"
        );
        for c in &self.checks {
            out.push_str(&format!(
                "  {:<12} {:>14.4} {:>14.4} {:>12.4}  {}\n",
                c.stat,
                c.reference,
                c.measured,
                c.tolerance,
                if c.pass { "ok" } else { "FAIL" }
            ));
        }
        out.push_str(&format!(
            "  result: {}\n",
            if self.passed() { "PASS" } else { "FAIL" }
        ));
        out
    }

    /// Machine-readable JSON (one object, checks as an array).
    pub fn to_json(&self) -> String {
        // Non-finite values become `null`, so rendering cannot fail.
        serde_json::to_string(self).unwrap_or_default()
    }
}

impl Serialize for VerifyReport {
    fn to_value(&self) -> Value {
        let checks: Vec<Value> = self
            .checks
            .iter()
            .map(|c| {
                json!({
                    "stat": c.stat,
                    "reference": Value::from(c.reference),
                    "measured": Value::from(c.measured),
                    "tolerance": Value::from(c.tolerance),
                    "pass": c.pass,
                })
            })
            .collect();
        json!({"dataset": self.dataset, "passed": self.passed(), "checks": checks})
    }
}

fn check(stat: &'static str, reference: f64, measured: f64, tolerance: f64) -> StatCheck {
    StatCheck {
        stat,
        reference,
        measured,
        tolerance,
        pass: (measured - reference).abs() <= tolerance,
    }
}

/// Verifies `g` against `entry`'s reference statistics.
///
/// `cpl_sources` bounds the BFS sources for the CPL measurement (use
/// [`DEFAULT_CPL_SOURCES`] unless exactness matters more than time). The
/// CPL check only runs when the registry records a CPL for the entry.
pub fn verify(entry: &DatasetEntry, g: &Graph, cpl_sources: usize) -> VerifyReport {
    let _span = cpgan_obs::span("data.verify");
    let p = &entry.reference;
    let t = &entry.tol;
    let degs = g.degrees();

    let mut checks = vec![
        check("n", p.n as f64, g.n() as f64, 0.0),
        check("m", p.m as f64, g.m() as f64, t.m_rel * p.m as f64),
        check("mean_degree", p.mean_degree, g.mean_degree(), t.mean_degree),
        check("gini", p.gini, gini::gini_coefficient(&degs), t.gini),
        check("pwe", p.pwe, powerlaw::powerlaw_exponent_ks(&degs), t.pwe),
    ];
    if let Some(cpl) = p.cpl {
        checks.push(check(
            "cpl",
            cpl,
            path::characteristic_path_length(g, cpl_sources),
            t.cpl,
        ));
    }
    VerifyReport {
        dataset: entry.name.clone(),
        checks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_renders_and_serializes() {
        let report = VerifyReport {
            dataset: "toy".to_string(),
            checks: vec![check("n", 4.0, 4.0, 0.0), check("gini", 0.5, 0.9, 0.1)],
        };
        assert!(!report.passed());
        let text = report.render();
        assert!(text.contains("FAIL"));
        assert!(text.contains("verify toy"));
        assert!(text.contains("reference"));
        let json = report.to_json();
        assert!(json.contains("\"passed\":false"));
        assert!(json.contains("\"stat\":\"gini\""));
        assert!(json.contains("\"reference\":0.5"));
    }

    #[test]
    fn json_round_trips_a_quoted_dataset_name() {
        let report = VerifyReport {
            dataset: "to\"y".to_string(),
            checks: vec![check("pwe", 2.5, f64::NAN, 0.1)],
        };
        let back: Value = serde_json::from_str(&report.to_json()).unwrap();
        assert_eq!(back.get("dataset"), Some(&Value::Str("to\"y".to_string())));
        assert_eq!(back.get("passed"), Some(&Value::Bool(false)));
        let Some(Value::Array(checks)) = back.get("checks") else {
            panic!("checks must be an array: {back:?}");
        };
        assert_eq!(
            checks[0].get("reference").and_then(Value::as_f64),
            Some(2.5)
        );
        assert_eq!(checks[0].get("measured"), Some(&Value::Null));
    }

    #[test]
    fn exact_checks_use_zero_tolerance() {
        let c = check("n", 10.0, 11.0, 0.0);
        assert!(!c.pass);
        let c = check("n", 10.0, 10.0, 0.0);
        assert!(c.pass);
    }
}
