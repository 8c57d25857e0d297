#![forbid(unsafe_code)]

//! `cargo xtask` — workspace automation CLI.
//!
//! The `.cargo/config.toml` alias makes `cargo xtask lint` run this binary
//! from anywhere in the workspace.

use std::env;
use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;
use xtask::baseline::Baseline;
use xtask::walk::{find_workspace_root, scan_workspace};
use xtask::Rule;

const USAGE: &str = "\
Usage: cargo xtask <command>

Commands:
  lint [--json] [--update-baseline]
      Run the workspace lints (panic-safety, determinism, float-order,
      cast-safety, runtime-gates, manifest hygiene) over crates/*/src and
      each crate manifest.

      --json             emit findings as a JSON array instead of text
      --update-baseline  rewrite crates/xtask/lint-baseline.toml from the
                         current findings (ratchet down only: refuses if
                         any entry would grow)

      Exits non-zero on findings above the baseline AND on stale baseline
      entries (suppressions no longer matched by any finding).

  lint --explain <rule>
      Print the documentation for one rule (or for every rule when <rule>
      is `all`): what it flags, the invariant it protects, examples, and
      the baseline suppression policy.
";

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint(&args[1..]),
        Some("--help" | "-h" | "help") | None => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("xtask: unknown command `{other}`\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn lint(flags: &[String]) -> ExitCode {
    let mut json = false;
    let mut update = false;
    let mut flags_iter = flags.iter();
    while let Some(flag) = flags_iter.next() {
        match flag.as_str() {
            "--json" => json = true,
            "--update-baseline" => update = true,
            "--explain" => {
                let Some(name) = flags_iter.next() else {
                    eprintln!("xtask lint: --explain needs a rule name (or `all`)\n\n{USAGE}");
                    return ExitCode::from(2);
                };
                return explain(name);
            }
            other => {
                eprintln!("xtask lint: unknown flag `{other}`\n\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    match run_lint(json, update) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("xtask lint: {e}");
            ExitCode::from(2)
        }
    }
}

fn explain(name: &str) -> ExitCode {
    if name == "all" {
        let docs: Vec<String> = Rule::ALL.into_iter().map(xtask::rules::explain).collect();
        print!("{}", docs.join("\n"));
        return ExitCode::SUCCESS;
    }
    match Rule::from_name(name) {
        Some(rule) => {
            print!("{}", xtask::rules::explain(rule));
            ExitCode::SUCCESS
        }
        None => {
            let known: Vec<&str> = Rule::ALL.iter().map(|r| r.name()).collect();
            eprintln!(
                "xtask lint: unknown rule `{name}` — known rules: {}",
                known.join(", ")
            );
            ExitCode::from(2)
        }
    }
}

fn run_lint(json: bool, update: bool) -> Result<ExitCode, String> {
    let start = match env::var_os("CARGO_MANIFEST_DIR") {
        Some(dir) => PathBuf::from(dir),
        None => env::current_dir().map_err(|e| e.to_string())?,
    };
    let root = find_workspace_root(&start)?;
    let baseline_path = root.join("crates/xtask/lint-baseline.toml");

    let violations = scan_workspace(&root)?;
    let have_baseline = baseline_path.is_file();
    let baseline = if have_baseline {
        let content = fs::read_to_string(&baseline_path)
            .map_err(|e| format!("{}: {e}", baseline_path.display()))?;
        Baseline::parse(&content)?
    } else {
        Baseline::default()
    };

    if update {
        // Seeding a missing baseline is unrestricted; after that the file
        // only ratchets down.
        let next = if have_baseline {
            baseline.ratchet_to(&violations)?
        } else {
            Baseline::from_violations(&violations)
        };
        fs::write(&baseline_path, next.render())
            .map_err(|e| format!("{}: {e}", baseline_path.display()))?;
        println!(
            "xtask lint: baseline updated ({} entries, {} tolerated violations)",
            next.entries.len(),
            next.entries.values().sum::<usize>()
        );
        return Ok(ExitCode::SUCCESS);
    }

    let report = baseline.check(&violations);
    // Stale suppressions are a failure, not a note: a baseline entry that
    // matches nothing hides future regressions at that (file, rule) key.
    let stale_fail = !report.stale.is_empty();

    if json {
        let rows = serde_json::to_string(&report.new_violations).map_err(|e| e.to_string())?;
        println!("{rows}");
        for (file, rule, allowed, current) in &report.stale {
            eprintln!(
                "error: stale baseline entry: {file}: `{rule}` tolerates {allowed} but \
                 {current} present — run `cargo xtask lint --update-baseline`"
            );
        }
    } else {
        for v in &report.new_violations {
            println!("{v}");
        }
        for (file, rule, allowed, current) in &report.stale {
            eprintln!(
                "error: stale baseline entry: {file}: `{rule}` tolerates {allowed} but \
                 {current} present — run `cargo xtask lint --update-baseline`"
            );
        }
        if report.passed() && !stale_fail {
            eprintln!(
                "xtask lint: clean ({} findings suppressed by baseline)",
                report.suppressed
            );
        } else {
            eprintln!(
                "xtask lint: {} violation(s) above baseline, {} stale baseline entr(y/ies)",
                report.new_violations.len(),
                report.stale.len()
            );
        }
    }

    Ok(if report.passed() && !stale_fail {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
