//! Doc-sync: DESIGN.md §15 documents the dataset registry. If the file
//! formats, the checksum/offline model, or the tolerance table change,
//! the section must move with them — these tests fail on drift,
//! mirroring the §11/§12/§13/§14 suites.

// Test-support helpers sit outside `#[test]` fns, where the
// `allow-*-in-tests` carve-out does not reach.
#![allow(clippy::panic, clippy::unwrap_used, clippy::expect_used)]

/// DESIGN.md §15 body (from the section header to the next `## `).
fn section_15() -> String {
    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../DESIGN.md");
    let text = std::fs::read_to_string(path).expect("DESIGN.md must be readable");
    let start = text
        .find("## 15.")
        .expect("DESIGN.md must have a §15 (dataset registry)");
    let body = &text[start..];
    let end = body[6..].find("\n## ").map(|i| i + 6).unwrap_or(body.len());
    body[..end].to_string()
}

#[test]
fn design_section_documents_the_formats() {
    let s = section_15();
    for item in [
        "snap-edges",
        "linqs-cites",
        "linqs-content",
        "first-appearance order",
        "DuplicatePolicy::Merge",
        "SelfLoopPolicy::Drop",
        "Graph::from_edge_stream",
        "data.ingest.parse_ns",
    ] {
        assert!(s.contains(item), "DESIGN.md §15 must mention `{item}`");
    }
}

#[test]
fn design_section_documents_the_checksum_and_offline_model() {
    let s = section_15();
    for item in [
        "CPGAN_DATA_DIR",
        "SHA-256",
        "OfflineRemote",
        "ManualDownload",
        "crates/datasets/fixtures/",
        "gen_fixtures",
        "data-verify",
        "DataProvenance",
        "FixtureSurrogate",
    ] {
        assert!(s.contains(item), "DESIGN.md §15 must mention `{item}`");
    }
}

#[test]
fn design_section_carries_the_tolerance_table() {
    let s = section_15();
    for item in [
        "powerlaw_exponent_ks",
        "| `citeseer` (upstream, manual) | published Table II | exact | exact |",
        "| `citeseer-fixture` / `cora-fixture` (vendored surrogates) | recorded fixture stats |",
        "| `<name>-synthetic` stand-ins | spec targets |",
        "Havel–Hakimi",
    ] {
        assert!(s.contains(item), "DESIGN.md §15 must keep `{item}`");
    }
    // The documented tolerances must match the registry: upstream
    // citeseer's published-row bounds, and the fixtures' tight
    // recorded-reference bounds.
    let upstream = cpgan_datasets::resolve("citeseer").unwrap();
    for tol in [
        upstream.tol.mean_degree,
        upstream.tol.gini,
        upstream.tol.pwe,
        upstream.tol.cpl,
    ] {
        assert!(
            s.contains(&format!("{tol}")),
            "§15 tolerance table must list {tol} for citeseer"
        );
    }
    let fixture = cpgan_datasets::resolve("citeseer-fixture").unwrap();
    for tol in [
        fixture.tol.mean_degree,
        fixture.tol.gini,
        fixture.tol.pwe,
        fixture.tol.cpl,
    ] {
        assert!(
            s.contains(&format!("{tol}")),
            "§15 tolerance table must list {tol} for citeseer-fixture"
        );
    }
}

#[test]
fn cli_usage_points_at_the_section() {
    let s = section_15();
    for cmd in ["cpgan data list", "table3 -- citeseer-fixture"] {
        assert!(s.contains(cmd), "§15 must name the `{cmd}` entry point");
    }
}
