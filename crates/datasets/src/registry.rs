//! The manifest-driven dataset registry.
//!
//! One [`DatasetEntry`] per dataset name. Three provenance classes cover
//! every entry, and the class is recorded explicitly so downstream
//! consumers (`cpgan data list`, eval, docs) can never mistake one for
//! another:
//!
//! * **upstream** datasets backed by the real distribution files
//!   (`citeseer`, `cora`, `epinions`, `google`, `pubmed`). This build has
//!   no network stack, so their files must be placed in the cache by
//!   hand; once present they are ingested and verified against the
//!   published statistics.
//! * **fixture surrogates** (`citeseer-fixture`, `cora-fixture`):
//!   synthetic graphs generated in-repo by the `gen_fixtures` bin
//!   (degree-sequence design + Havel–Hakimi + rewiring) and vendored
//!   under `crates/datasets/fixtures/`. They contain **no upstream
//!   data** — they exist so the ingestion/eval pipeline is exercisable
//!   offline. Their reference stats are *recorded measurements of the
//!   fixture itself* (pinned at generation time), so `verify` gates
//!   ingestion fidelity, not real-graph fidelity.
//! * the six **synthetic Table II stand-ins** from
//!   `cpgan_data::datasets`, registered under `<name>-synthetic`, so CLI
//!   and eval resolve every flavor through the same interface instead of
//!   special-casing `PAPER_DATASETS`.
//!
//! Reference numbers come from three sources, one per provenance class:
//! the paper's Table II row (or the exemplar repos' measurement table,
//! SNIPPETS.md §Data Description) for upstream entries; recorded
//! generation-time measurements for the fixtures; and the stand-in
//! specs' published targets for the synthetic entries. Per-stat
//! tolerances live next to the numbers — see DESIGN.md §15 for how each
//! bound was chosen.

use crate::{DatasetError, Format};
use cpgan_data::datasets::{self, DatasetSpec, PAPER_DATASETS};
use std::sync::OnceLock;

/// Reference summary statistics for one dataset: published values for
/// upstream entries, recorded fixture measurements for surrogates, the
/// stand-in spec's targets for synthetic entries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReferenceStats {
    /// Node count.
    pub n: usize,
    /// Undirected edge count.
    pub m: usize,
    /// Mean degree.
    pub mean_degree: f64,
    /// Gini coefficient of the degree distribution.
    pub gini: f64,
    /// Power-law exponent of the degree distribution.
    pub pwe: f64,
    /// Characteristic path length, when the source reports one.
    pub cpl: Option<f64>,
}

/// Per-stat absolute tolerances for [`crate::verify`] (relative for `m`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tolerances {
    /// Relative tolerance on the edge count (dedup/symmetrization drift).
    pub m_rel: f64,
    /// Absolute tolerance on mean degree.
    pub mean_degree: f64,
    /// Absolute tolerance on the Gini coefficient.
    pub gini: f64,
    /// Absolute tolerance on the power-law exponent.
    pub pwe: f64,
    /// Absolute tolerance on the characteristic path length.
    pub cpl: f64,
}

/// Where a registry file comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Provenance {
    /// Shipped with the repository under `crates/datasets/fixtures/`.
    Vendored(&'static str),
    /// Must be downloaded from this URL (no network stack in this build —
    /// fetch prints manual instructions).
    Remote(&'static str),
}

/// Where an entry's *graph data* comes from — distinct from the per-file
/// [`Provenance`], this classifies whether the data is real at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataProvenance {
    /// The real upstream distribution files (manual download in this
    /// network-less build).
    Upstream,
    /// A synthetic surrogate generated in-repo by `gen_fixtures` and
    /// vendored as files; contains no upstream data.
    FixtureSurrogate,
    /// Synthesized at load time by the Table II stand-in generator.
    Synthesized,
}

impl DataProvenance {
    /// Stable lowercase label for CLI/report rendering.
    pub fn label(self) -> &'static str {
        match self {
            DataProvenance::Upstream => "real",
            DataProvenance::FixtureSurrogate => "surrogate",
            DataProvenance::Synthesized => "synthetic",
        }
    }

    /// Whether the entry's graph is real upstream data (as opposed to a
    /// generated surrogate or stand-in).
    pub fn is_real_data(self) -> bool {
        matches!(self, DataProvenance::Upstream)
    }
}

/// One file of a file-backed dataset.
#[derive(Debug, Clone, Copy)]
pub struct FileSpec {
    /// File name inside the dataset's cache directory.
    pub name: &'static str,
    /// Parser to apply.
    pub format: Format,
    /// Lowercase-hex SHA-256 of the file; `None` when unknown (remote
    /// files we cannot download to hash — verified stats still gate them).
    pub sha256: Option<&'static str>,
    /// Where the file comes from.
    pub provenance: Provenance,
}

/// How a dataset's graph is obtained.
#[derive(Debug, Clone)]
pub enum Source {
    /// Ingested from files.
    Files {
        /// Ordered file list (order fixes the dense node numbering).
        files: Vec<FileSpec>,
    },
    /// Synthesized by the Table II stand-in generator.
    Synthetic {
        /// The stand-in's spec (published stats + synthesizer knobs).
        spec: &'static DatasetSpec,
    },
}

/// One registry entry.
#[derive(Debug, Clone)]
pub struct DatasetEntry {
    /// Registry name (lowercase; what the CLI and eval resolve).
    pub name: String,
    /// Display name for rendered tables; surrogate/stand-in entries carry
    /// the suffix so no table can silently present them as real data.
    pub title: String,
    /// What the graph data is (real upstream / in-repo surrogate /
    /// synthesized stand-in).
    pub data: DataProvenance,
    /// License / terms-of-use note (for surrogates: where the generator
    /// lives — there is no upstream license because there is no upstream
    /// data).
    pub license: &'static str,
    /// Canonical home of the dataset (generator path for surrogates).
    pub home: &'static str,
    /// Reference statistics to verify against (see [`ReferenceStats`]).
    pub reference: ReferenceStats,
    /// Per-stat verification tolerances.
    pub tol: Tolerances,
    /// Files or synthesizer.
    pub source: Source,
}

impl DatasetEntry {
    /// Whether this entry's graph is generated rather than real upstream
    /// data (true for fixture surrogates and `-synthetic` stand-ins).
    pub fn is_synthetic(&self) -> bool {
        !self.data.is_real_data()
    }

    /// Whether this entry is ingested from files (vs synthesized at load
    /// time), independent of whether those files are real or surrogate.
    pub fn is_file_backed(&self) -> bool {
        matches!(self.source, Source::Files { .. })
    }
}

/// SHA-256 of the vendored `citeseer.cites` surrogate fixture.
pub const CITESEER_FIXTURE_SHA256: &str = FIXTURE_SHA256_CITESEER;
/// SHA-256 of the vendored `cora-edges.txt` surrogate fixture.
pub const CORA_FIXTURE_SHA256: &str = FIXTURE_SHA256_CORA;

// Pinned by `cargo run -p cpgan-datasets --bin gen_fixtures`, which
// regenerates the surrogate fixtures deterministically and prints their
// digests and measured reference stats.
const FIXTURE_SHA256_CITESEER: &str =
    "05e171669320022a9fd6c59c692bdc0bba4bcd46a191add73b404f2d4852d6bb";
const FIXTURE_SHA256_CORA: &str =
    "bf5c1614c82fa7f6dbcb575bee24217a36a2d9c25cb5ac60042ce9f2841b4981";

static REGISTRY: OnceLock<Vec<DatasetEntry>> = OnceLock::new();

/// Every registered dataset: upstream entries, then the vendored
/// surrogate fixtures, then the six synthetic stand-ins, each group
/// alphabetical.
pub fn registry() -> &'static [DatasetEntry] {
    REGISTRY.get_or_init(build)
}

/// Resolves a dataset by (case-insensitive) name.
pub fn resolve(name: &str) -> Result<&'static DatasetEntry, DatasetError> {
    registry()
        .iter()
        .find(|e| e.name.eq_ignore_ascii_case(name))
        .ok_or_else(|| DatasetError::UnknownDataset {
            name: name.to_string(),
        })
}

fn build() -> Vec<DatasetEntry> {
    let mut entries = vec![
        DatasetEntry {
            name: "citeseer".to_string(),
            title: "Citeseer".to_string(),
            data: DataProvenance::Upstream,
            license: "linqs.org CiteSeer collection — free for research use",
            home: "https://linqs.org/datasets/",
            reference: table2(&datasets::CITESEER),
            tol: Tolerances {
                m_rel: 0.0,
                mean_degree: 0.01,
                gini: 0.05,
                pwe: 0.45,
                // Estimator drift only: 512-source sampled BFS over
                // reachable pairs vs the published figure.
                cpl: 1.0,
            },
            source: Source::Files {
                files: vec![FileSpec {
                    name: "citeseer.cites",
                    format: Format::LinqsCites,
                    sha256: None,
                    provenance: Provenance::Remote(
                        "https://linqs-data.soe.ucsc.edu/public/lbc/citeseer.tgz",
                    ),
                }],
            },
        },
        DatasetEntry {
            name: "cora".to_string(),
            title: "Cora".to_string(),
            data: DataProvenance::Upstream,
            license: "linqs.org Cora collection — free for research use",
            home: "https://linqs.org/datasets/",
            // Exemplar measurement table (SNIPPETS.md §Data Description);
            // cora is not in the paper's Table II.
            reference: ReferenceStats {
                n: 2708,
                m: 5429,
                mean_degree: 3.898,
                gini: 0.405,
                pwe: 1.932,
                cpl: None,
            },
            tol: Tolerances {
                m_rel: 0.0,
                mean_degree: 0.15,
                gini: 0.05,
                pwe: 0.45,
                cpl: 0.0,
            },
            source: Source::Files {
                files: vec![FileSpec {
                    name: "cora.cites",
                    format: Format::LinqsCites,
                    sha256: None,
                    provenance: Provenance::Remote(
                        "https://linqs-data.soe.ucsc.edu/public/lbc/cora.tgz",
                    ),
                }],
            },
        },
        DatasetEntry {
            name: "epinions".to_string(),
            title: "Epinions".to_string(),
            data: DataProvenance::Upstream,
            license: "SNAP soc-Epinions1 — open web data",
            home: "https://snap.stanford.edu/data/soc-Epinions1.html",
            reference: ReferenceStats {
                n: 75879,
                m: 508837,
                mean_degree: 10.694,
                gini: 0.805,
                pwe: 2.026,
                cpl: None,
            },
            tol: Tolerances {
                // The SNAP file is directed; symmetrization merges mutual
                // arcs, so the undirected edge count lands below 508837.
                m_rel: 0.25,
                mean_degree: 3.0,
                gini: 0.1,
                pwe: 0.6,
                cpl: 0.0,
            },
            source: Source::Files {
                files: vec![FileSpec {
                    name: "soc-Epinions1.txt",
                    format: Format::SnapEdges,
                    sha256: None,
                    provenance: Provenance::Remote(
                        "https://snap.stanford.edu/data/soc-Epinions1.txt.gz",
                    ),
                }],
            },
        },
        DatasetEntry {
            name: "google".to_string(),
            title: "Google".to_string(),
            data: DataProvenance::Upstream,
            license: "SNAP web-Google — released for the 2002 Google programming contest",
            home: "https://snap.stanford.edu/data/web-Google.html",
            reference: table2(&datasets::GOOGLE),
            tol: Tolerances {
                m_rel: 0.02,
                mean_degree: 0.2,
                gini: 0.1,
                pwe: 0.6,
                cpl: 1.5,
            },
            source: Source::Files {
                files: vec![FileSpec {
                    name: "web-Google.txt",
                    format: Format::SnapEdges,
                    sha256: None,
                    provenance: Provenance::Remote(
                        "https://snap.stanford.edu/data/web-Google.txt.gz",
                    ),
                }],
            },
        },
        DatasetEntry {
            name: "pubmed".to_string(),
            title: "PubMed".to_string(),
            data: DataProvenance::Upstream,
            license: "linqs.org Pubmed-Diabetes collection — free for research use",
            home: "https://linqs.org/datasets/",
            reference: table2(&datasets::PUBMED),
            tol: Tolerances {
                m_rel: 0.02,
                mean_degree: 0.2,
                gini: 0.1,
                pwe: 0.6,
                cpl: 1.5,
            },
            source: Source::Files {
                files: vec![FileSpec {
                    name: "Pubmed-Diabetes.DIRECTED.cites.tab",
                    format: Format::LinqsCites,
                    sha256: None,
                    provenance: Provenance::Remote(
                        "https://linqs-data.soe.ucsc.edu/public/Pubmed-Diabetes.tgz",
                    ),
                }],
            },
        },
        // Vendored surrogate fixtures. Reference stats are *measured on
        // the fixture at generation time* and pinned here, so `verify`
        // checks that ingestion reproduces them — an ingestion-fidelity
        // gate, deliberately not a claim about the real datasets the
        // surrogates imitate (the generator targeted the published
        // n/m/Gini/PWE, but e.g. its CPL lands at 4.13 vs Citeseer's
        // published 5.94).
        DatasetEntry {
            name: "citeseer-fixture".to_string(),
            title: "Citeseer-fixture (synthetic surrogate)".to_string(),
            data: DataProvenance::FixtureSurrogate,
            license: "generated in-repo by gen_fixtures — synthetic surrogate, no linqs data",
            home: "crates/datasets/src/bin/gen_fixtures.rs",
            reference: ReferenceStats {
                n: 3327,
                m: 4732,
                mean_degree: 2.8446,
                gini: 0.6773,
                pwe: 2.8770,
                cpl: Some(4.1331),
            },
            tol: FIXTURE_TOL,
            source: Source::Files {
                files: vec![FileSpec {
                    name: "citeseer.cites",
                    format: Format::LinqsCites,
                    sha256: Some(FIXTURE_SHA256_CITESEER),
                    provenance: Provenance::Vendored("citeseer.cites"),
                }],
            },
        },
        DatasetEntry {
            name: "cora-fixture".to_string(),
            title: "Cora-fixture (synthetic surrogate)".to_string(),
            data: DataProvenance::FixtureSurrogate,
            license: "generated in-repo by gen_fixtures — synthetic surrogate, no linqs data",
            home: "crates/datasets/src/bin/gen_fixtures.rs",
            reference: ReferenceStats {
                n: 2708,
                m: 5429,
                mean_degree: 4.0096,
                gini: 0.4047,
                pwe: 1.9548,
                cpl: Some(CORA_FIXTURE_CPL),
            },
            tol: FIXTURE_TOL,
            source: Source::Files {
                files: vec![FileSpec {
                    name: "cora-edges.txt",
                    format: Format::SnapEdges,
                    sha256: Some(FIXTURE_SHA256_CORA),
                    provenance: Provenance::Vendored("cora-edges.txt"),
                }],
            },
        },
    ];

    // The six Table II stand-ins, registered under `<slug>-synthetic`.
    for spec in &PAPER_DATASETS {
        entries.push(DatasetEntry {
            name: format!("{}-synthetic", slug(spec.name)),
            title: format!("{} (synthetic stand-in)", spec.name),
            data: DataProvenance::Synthesized,
            license: "synthesized in-repo (no external data)",
            home: "crates/data/src/datasets.rs",
            reference: table2(spec),
            // Stand-in fidelity bounds: the synthesizer pins sizes and the
            // tail *ordering*, not each scalar — see DESIGN.md §15.
            tol: Tolerances {
                m_rel: 0.12,
                mean_degree: 1.0,
                gini: 0.35,
                pwe: 1.6,
                cpl: 30.0,
            },
            source: Source::Synthetic { spec },
        });
    }
    entries
}

/// The paper's Table II row for `spec`: the reference of the upstream
/// entry and of the `-synthetic` stand-in alike, so Table II is typed once.
fn table2(spec: &DatasetSpec) -> ReferenceStats {
    ReferenceStats {
        n: spec.n,
        m: spec.m,
        mean_degree: spec.mean_degree,
        gini: spec.gini,
        pwe: spec.pwe,
        cpl: Some(spec.cpl),
    }
}

/// Recorded 512-source CPL of the cora surrogate fixture.
const CORA_FIXTURE_CPL: f64 = 3.7786;

/// Ingestion-fidelity tolerances for the vendored surrogate fixtures:
/// sizes exact, scalars within rounding of the recorded 4-decimal
/// measurements. Any looser and the gate would stop catching parser or
/// builder regressions.
const FIXTURE_TOL: Tolerances = Tolerances {
    m_rel: 0.0,
    mean_degree: 1e-3,
    gini: 1e-3,
    pwe: 1e-3,
    cpl: 1e-3,
};

/// Lowercase, dash-separated form of a display name.
fn slug(name: &str) -> String {
    name.to_ascii_lowercase().replace(' ', "-")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolves_every_provenance_uniformly() {
        assert!(!resolve("citeseer").unwrap().is_synthetic());
        assert!(resolve("Citeseer").unwrap().name == "citeseer");
        assert!(resolve("citeseer-fixture").unwrap().is_synthetic());
        assert!(resolve("citeseer-fixture").unwrap().is_file_backed());
        assert!(resolve("citeseer-synthetic").unwrap().is_synthetic());
        assert!(!resolve("citeseer-synthetic").unwrap().is_file_backed());
        assert!(resolve("3d-point-cloud-synthetic").unwrap().is_synthetic());
        assert!(resolve("nope").is_err());
    }

    #[test]
    fn every_paper_dataset_has_a_synthetic_entry() {
        let mut upstreams = 0;
        for spec in &PAPER_DATASETS {
            let name = format!("{}-synthetic", slug(spec.name));
            let e = resolve(&name).unwrap();
            assert_eq!(e.reference.n, spec.n);
            assert!(e.title.starts_with(spec.name));
            // An upstream entry of the same dataset carries the same
            // Table II row.
            if let Ok(upstream) = resolve(&slug(spec.name)) {
                assert_eq!(upstream.reference, e.reference, "{}", upstream.name);
                upstreams += 1;
            }
        }
        assert_eq!(upstreams, 3, "citeseer, pubmed and google");
    }

    #[test]
    fn registry_names_are_unique_and_lowercase() {
        let names: Vec<&str> = registry().iter().map(|e| e.name.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate names: {names:?}");
        assert!(names.iter().all(|n| *n == n.to_ascii_lowercase()));
    }

    #[test]
    fn no_upstream_entry_is_backed_by_a_vendored_file() {
        // The provenance honesty invariant: vendored fixtures are
        // surrogates, never presented as upstream data.
        for e in registry() {
            if let Source::Files { files } = &e.source {
                for f in files {
                    if matches!(f.provenance, Provenance::Vendored(_)) {
                        assert_eq!(
                            e.data,
                            DataProvenance::FixtureSurrogate,
                            "{} vendored file presented as {:?}",
                            e.name,
                            e.data
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn surrogate_entries_are_labeled_in_every_display_field() {
        for e in registry() {
            if e.data == DataProvenance::FixtureSurrogate {
                assert!(e.title.contains("synthetic surrogate"), "{}", e.title);
                assert!(e.license.contains("synthetic surrogate"), "{}", e.license);
                assert!(e.name.ends_with("-fixture"), "{}", e.name);
            }
        }
    }
}
