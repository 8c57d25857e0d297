#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Evaluation harness reproducing every table and figure of the paper's
//! experimental section (§IV).
//!
//! * [`registry`] — a uniform interface over all 15 generators (8
//!   traditional, 6 learning-based, CPGAN + its ablation variants),
//! * [`budget`] — the 24 GB GPU memory model that reproduces the paper's
//!   "OOM" rows at full dataset scale,
//! * [`pipelines`] — one module per experiment (Tables III–IX, Figures 5–6),
//! * [`report`] — paper-vs-measured table rendering.

pub mod budget;
pub mod paper;
pub mod pipelines;
pub mod registry;
pub mod report;

use cpgan_datasets::{DatasetEntry, LoadOptions};

/// Scaling and effort knobs shared by the experiment pipelines.
#[derive(Debug, Clone)]
pub struct EvalConfig {
    /// Divisor applied to the paper's dataset sizes (1 = full scale).
    pub scale: usize,
    /// Random repetitions for mean ± std columns.
    pub seeds: usize,
    /// Training epochs for the deep baselines.
    pub deep_epochs: usize,
    /// Training epochs for CPGAN.
    pub cpgan_epochs: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Hard cap on nodes for models that materialize dense `n x n` state
    /// locally (they are skipped above it even when the paper-scale budget
    /// says they fit — CPU time guard, not a memory guard).
    pub dense_node_cap: usize,
}

impl Default for EvalConfig {
    fn default() -> Self {
        EvalConfig {
            scale: 16,
            seeds: 2,
            deep_epochs: 200,
            cpgan_epochs: 300,
            seed: 20220501,
            dense_node_cap: 1400,
        }
    }
}

impl EvalConfig {
    /// A fast smoke configuration for tests and `--fast` runs.
    pub fn fast() -> Self {
        EvalConfig {
            scale: 48,
            seeds: 1,
            deep_epochs: 60,
            cpgan_epochs: 60,
            dense_node_cap: 600,
            ..Default::default()
        }
    }

    /// Parses `--scale`, `--seeds`, `--fast` style CLI arguments (used by
    /// every `table*`/`fig*`/`sweep` binary).
    ///
    /// # Errors
    ///
    /// A flag that is present but has no value or a malformed one.
    pub fn from_args(args: &[String]) -> Result<Self, String> {
        let mut cfg = if args.iter().any(|a| a == "--fast") {
            EvalConfig::fast()
        } else {
            EvalConfig::default()
        };
        for (name, field) in [
            ("--scale", &mut cfg.scale),
            ("--seeds", &mut cfg.seeds),
            ("--deep-epochs", &mut cfg.deep_epochs),
            ("--cpgan-epochs", &mut cfg.cpgan_epochs),
        ] {
            if let Some(v) = flag(args, name)? {
                *field = v;
            }
        }
        // `--json FILE` is written after the run; refuse a missing value
        // before it starts.
        flag::<String>(args, "--json")?;
        Ok(cfg)
    }
}

/// The value after the flag `name` in `args`, parsed as `T`.
///
/// # Errors
///
/// The flag is present but has no value, or its value does not parse.
/// An absent flag is `Ok(None)`.
pub fn flag<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    let Some(at) = args.iter().position(|a| a == name) else {
        return Ok(None);
    };
    let value = args
        .get(at + 1)
        .ok_or_else(|| format!("{name} needs a value"))?;
    value
        .parse()
        .map(Some)
        .map_err(|_| format!("{name}: cannot parse {value:?}"))
}

/// Parses the sweep sizes for the efficiency binaries: all of
/// `cpgan_data::sweep::SWEEP_SIZES` up to `--max-size` (default 100k, or 1k
/// under `--fast`).
///
/// # Errors
///
/// `--max-size` without a value or with a malformed one.
pub fn sweep_sizes_from_args(args: &[String]) -> Result<Vec<usize>, String> {
    let fast = args.iter().any(|a| a == "--fast");
    let max = flag(args, "--max-size")?.unwrap_or(if fast { 1_000 } else { 100_000 });
    Ok(cpgan_data::sweep::SWEEP_SIZES
        .iter()
        .copied()
        .filter(|&n| n <= max)
        .collect())
}

/// Flags of the `table*`/`fig*`/`sweep` binaries that take a value.
const VALUE_FLAGS: [&str; 7] = [
    "--scale",
    "--seeds",
    "--deep-epochs",
    "--cpgan-epochs",
    "--max-size",
    "--json",
    "--data-dir",
];

/// The registry datasets a `table*` binary evaluates: its positional
/// arguments resolved with [`cpgan_datasets::resolve`], or `defaults`
/// when there are none. Load options come from `--offline` and
/// `--data-dir DIR`; the pipelines set scale and seed from their config.
///
/// # Errors
///
/// An unknown dataset name, or `--data-dir` without a value.
pub fn datasets_from_args(
    args: &[String],
    defaults: &[&str],
) -> Result<(Vec<&'static DatasetEntry>, LoadOptions), String> {
    let mut names = Vec::new();
    let mut rest = args.iter();
    while let Some(a) = rest.next() {
        if VALUE_FLAGS.contains(&a.as_str()) {
            rest.next();
        } else if !a.starts_with("--") {
            names.push(a.as_str());
        }
    }
    if names.is_empty() {
        names = defaults.to_vec();
    }
    let entries = pipelines::resolve_all(&names).map_err(|e| e.to_string())?;
    let opts = LoadOptions {
        offline: args.iter().any(|a| a == "--offline"),
        data_dir: flag::<String>(args, "--data-dir")?.map(std::path::PathBuf::from),
        ..LoadOptions::default()
    };
    Ok((entries, opts))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn arg_parsing() {
        let cfg = EvalConfig::from_args(&args(&["--scale", "32", "--seeds", "3"])).unwrap();
        assert_eq!(cfg.scale, 32);
        assert_eq!(cfg.seeds, 3);
    }

    #[test]
    fn fast_flag() {
        let args = args(&["--fast"]);
        let cfg = EvalConfig::from_args(&args).unwrap();
        assert_eq!(cfg.seeds, 1);
        assert_eq!(sweep_sizes_from_args(&args).unwrap(), vec![100, 1_000]);
    }

    #[test]
    fn sweep_sizes_default_and_capped() {
        assert_eq!(
            sweep_sizes_from_args(&[]).unwrap(),
            vec![100, 1_000, 10_000, 100_000]
        );
        let capped = sweep_sizes_from_args(&args(&["--max-size", "10000"])).unwrap();
        assert_eq!(capped, vec![100, 1_000, 10_000]);
    }

    #[test]
    fn malformed_values_are_refused() {
        assert!(EvalConfig::from_args(&args(&["--seeds", "3x"])).is_err());
        assert!(EvalConfig::from_args(&args(&["--scale", "--fast"])).is_err());
        assert!(sweep_sizes_from_args(&args(&["--max-size", "10k"])).is_err());
    }

    #[test]
    fn missing_values_are_refused() {
        assert!(EvalConfig::from_args(&args(&["--fast", "--cpgan-epochs"])).is_err());
        assert!(EvalConfig::from_args(&args(&["--fast", "--json"])).is_err());
        assert!(sweep_sizes_from_args(&args(&["--fast", "--max-size"])).is_err());
        assert!(datasets_from_args(&args(&["--data-dir"]), &[]).is_err());
    }

    #[test]
    fn dataset_arguments_resolve_through_the_registry() {
        let defaults = ["ppi-synthetic"];
        let (entries, opts) = datasets_from_args(&args(&["--fast"]), &defaults).unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].name, "ppi-synthetic");
        assert!(!opts.offline);
        let given = args(&[
            "--seeds",
            "1",
            "citeseer-fixture",
            "--offline",
            "--data-dir",
            "d",
            "PPI-synthetic",
        ]);
        let (entries, opts) = datasets_from_args(&given, &defaults).unwrap();
        let names: Vec<&str> = entries.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["citeseer-fixture", "ppi-synthetic"]);
        assert!(opts.offline);
        assert_eq!(opts.data_dir, Some(std::path::PathBuf::from("d")));
        assert!(datasets_from_args(&args(&["no-such-dataset"]), &defaults).is_err());
    }
}
