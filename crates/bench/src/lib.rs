#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Shared benchmark plumbing.
//!
//! Every bench binary that writes a `results/BENCH_*.json` report parses
//! its flags with [`flag`], which refuses a present-but-malformed value
//! instead of silently dropping it, and writes the report with
//! [`write_report`]: the run metadata of [`BenchMeta`] first, so reports
//! from different machines and revisions are comparable without guessing
//! at the environment, then the binary's own fields, all rendered by the
//! `serde_json` shim.

use serde::{Serialize, Value};

/// Environment metadata captured once per benchmark run.
#[derive(Debug, Clone, Serialize)]
pub struct BenchMeta {
    /// Hardware threads visible to the process.
    pub available_parallelism: usize,
    /// Worker threads the benchmark actually used.
    pub threads: usize,
    /// The raw `CPGAN_THREADS` setting, if any.
    pub cpgan_threads_env: Option<String>,
    /// Short git revision of the workspace, or `"unknown"` outside a repo.
    pub git_rev: String,
}

impl BenchMeta {
    /// Captures the current environment; `threads` is the worker count the
    /// benchmark resolved (after flags/env defaulting).
    pub fn capture(threads: usize) -> Self {
        let available_parallelism = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let git_rev = std::process::Command::new("git")
            .args(["rev-parse", "--short", "HEAD"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_string());
        BenchMeta {
            available_parallelism,
            threads,
            cpgan_threads_env: std::env::var("CPGAN_THREADS").ok(),
            git_rev,
        }
    }

    /// Renders the metadata as JSON object fields (no surrounding braces),
    /// one per line, each line ending in a comma, indented by `indent`.
    pub fn json_fields(&self, indent: &str) -> String {
        let mut out = String::new();
        for (key, value) in self.fields() {
            // Strings, integers and null only, so rendering cannot fail.
            let key = serde_json::to_string(&key).unwrap_or_default();
            let value = serde_json::to_string(&value).unwrap_or_default();
            out.push_str(&format!("{indent}{key}: {value},\n"));
        }
        out
    }

    fn fields(&self) -> Vec<(String, Value)> {
        match self.to_value() {
            Value::Object(fields) => fields,
            _ => Vec::new(),
        }
    }
}

/// Writes one bench report to `file`: `meta`'s fields, then the fields of
/// `body` (which must serialize to an object), as pretty-printed JSON with
/// a trailing newline. Creates the file's directory and prints
/// `wrote <file>` to stderr.
///
/// # Errors
///
/// A body that is not an object, a non-finite float in it, or a failed
/// directory creation or write.
pub fn write_report(file: &str, meta: &BenchMeta, body: &impl Serialize) -> Result<(), String> {
    let Value::Object(body) = body.to_value() else {
        return Err(format!("{file}: report body must be a JSON object"));
    };
    let mut fields = meta.fields();
    fields.extend(body);
    let text = serde_json::to_string_pretty(&Value::Object(fields))
        .map_err(|e| format!("cannot render {file}: {e}"))?;
    if let Some(dir) = std::path::Path::new(file).parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(file, text + "\n").map_err(|e| format!("failed to write {file}: {e}"))?;
    eprintln!("wrote {file}");
    Ok(())
}

/// The value after a flag, refusing a missing or malformed one; shared
/// with the `table*`/`fig*`/`sweep` binaries' [`cpgan_eval::EvalConfig`].
pub use cpgan_eval::flag;

/// Prints `msg` as a usage error and exits with status 2.
pub fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2)
}

/// Prints `msg` and exits with status 1: the run failed.
pub fn die(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn capture_and_render() {
        let meta = BenchMeta::capture(4);
        assert!(meta.available_parallelism >= 1);
        assert_eq!(meta.threads, 4);
        let fields = meta.json_fields("  ");
        assert!(fields.contains("\"threads\": 4,"));
        assert!(fields.contains("\"git_rev\": \""));
        // Must be valid inside a JSON object: every line ends with a comma.
        assert!(fields.lines().all(|l| l.ends_with(',')));
    }

    #[test]
    fn json_fields_escape_through_the_shim() {
        let mut meta = BenchMeta::capture(1);
        let env = "4\"\\".to_string();
        meta.cpgan_threads_env = Some(env.clone());
        let doc = format!("{{{}\"end\": 0}}", meta.json_fields(""));
        let back: Value = serde_json::from_str(&doc).unwrap();
        assert_eq!(back.get("cpgan_threads_env"), Some(&Value::Str(env)));
    }

    #[test]
    fn write_report_puts_meta_fields_first() {
        let meta = BenchMeta::capture(3);
        let file = std::env::temp_dir()
            .join(format!("cpgan_bench_report_{}", std::process::id()))
            .join("BENCH_test.json");
        let file = file.to_str().unwrap();
        let body = serde_json::json!({"rows": vec![1.5f64, 2.0], "note": "a\"b"});
        write_report(file, &meta, &body).unwrap();
        let text = std::fs::read_to_string(file).unwrap();
        assert!(text.ends_with("}\n"));
        let Value::Object(fields) = serde_json::from_str::<Value>(&text).unwrap() else {
            panic!("report must be an object: {text}");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "available_parallelism",
                "threads",
                "cpgan_threads_env",
                "git_rev",
                "rows",
                "note"
            ]
        );
        assert_eq!(fields[1].1.as_u64(), Some(3));
        assert_eq!(fields[5].1, Value::Str("a\"b".to_string()));
        assert!(write_report(file, &meta, &1u32).is_err());
        assert!(write_report(file, &meta, &serde_json::json!({"x": f64::NAN})).is_err());
        let _ = std::fs::remove_file(file);
    }

    #[test]
    fn flag_absent_present_and_malformed() {
        let a = args(&["--fast", "--assert-min-ratio", "1.5", "--max-nodes"]);
        assert_eq!(flag::<f64>(&a, "--threads"), Ok(None));
        assert_eq!(flag::<f64>(&a, "--assert-min-ratio"), Ok(Some(1.5)));
        // A trailing flag has no value.
        assert!(flag::<usize>(&a, "--max-nodes").is_err());
        // A decimal comma does not parse, and a flag name is not a value.
        assert!(flag::<f64>(&args(&["--assert-min-ratio", "1,5"]), "--assert-min-ratio").is_err());
        assert!(flag::<f64>(&args(&["--threads", "--fast"]), "--threads").is_err());
    }
}
