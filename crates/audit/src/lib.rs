//! `cocco-audit` — the workspace determinism & robustness lint.
//!
//! The repo's load-bearing guarantee is that seeded explorations are
//! bit-identical at any thread count and across checkpoint/resume. That
//! property is enforced by example-based tests, but example tests only
//! cover the examples; this crate makes the *discipline* machine-checked:
//! a dependency-free static-analysis pass (hand-rolled lexer, no syn)
//! that scans every workspace source file for the constructs that have
//! historically produced nondeterminism or user-reachable panics.
//!
//! See [`rules::RULES`] for the rule set, `audit.toml` at the repo root
//! for path-level policy, and the README "Determinism invariants"
//! section for the narrative version.
//!
//! The crate is a library (so tests can audit the live workspace and
//! drive fixtures in-process) plus a thin CLI binary.

pub mod config;
pub mod lexer;
pub mod rules;

pub use config::{Allow, Config, ConfigError};
pub use rules::{
    analyze_file, rule, Diagnostic, FileReport, NoAllows, PathPolicy, RuleInfo, RULES,
};

use std::fmt;
use std::path::{Path, PathBuf};

/// The outcome of auditing a whole tree.
#[derive(Debug, Default)]
pub struct Report {
    /// Findings that survived suppressions and allows, in (path, line,
    /// rule) order.
    pub diagnostics: Vec<Diagnostic>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Findings silenced by inline suppressions.
    pub suppressed: usize,
    /// Findings silenced by `audit.toml` path allows.
    pub allowed: usize,
}

impl Report {
    /// True when nothing survived — the gate passes.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Human-readable rendering: one `file:line rule message` block per
    /// finding plus a summary line.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&format!("{}:{} {} {}\n", d.path, d.line, d.rule, d.message));
            if !d.snippet.is_empty() {
                out.push_str(&format!("    {}\n", d.snippet));
            }
        }
        out.push_str(&format!(
            "cocco-audit: {} finding(s) in {} file(s) scanned ({} suppressed, {} path-allowed)\n",
            self.diagnostics.len(),
            self.files_scanned,
            self.suppressed,
            self.allowed
        ));
        out
    }

    /// Machine-readable rendering (hand-rolled JSON — the crate is
    /// dependency-free).
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n  \"diagnostics\": [");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"file\": {}, \"line\": {}, \"rule\": {}, \"message\": {}, \"snippet\": {}}}",
                json_str(&d.path),
                d.line,
                json_str(d.rule),
                json_str(&d.message),
                json_str(&d.snippet)
            ));
        }
        if !self.diagnostics.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str(&format!(
            "],\n  \"files_scanned\": {},\n  \"suppressed\": {},\n  \"allowed\": {},\n  \"findings\": {}\n}}\n",
            self.files_scanned,
            self.suppressed,
            self.allowed,
            self.diagnostics.len()
        ));
        out
    }
}

/// JSON string escaping.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Errors from driving a whole-tree audit.
#[derive(Debug)]
pub enum AuditError {
    /// `audit.toml` failed to parse.
    Config(ConfigError),
    /// An include root or source file could not be read.
    Io {
        path: PathBuf,
        error: std::io::Error,
    },
    /// The config references a rule id that does not exist.
    UnknownRule { rule: String, path: String },
}

impl fmt::Display for AuditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditError::Config(e) => write!(f, "{e}"),
            AuditError::Io { path, error } => write!(f, "{}: {error}", path.display()),
            AuditError::UnknownRule { rule, path } => {
                write!(
                    f,
                    "audit.toml: [[allow]] for `{path}` names unknown rule `{rule}`"
                )
            }
        }
    }
}

impl std::error::Error for AuditError {}

impl From<ConfigError> for AuditError {
    fn from(e: ConfigError) -> Self {
        AuditError::Config(e)
    }
}

/// Path policy backed by the parsed config, pinned to one file.
struct FilePolicy<'a> {
    config: &'a Config,
    rel_path: &'a str,
}

impl PathPolicy for FilePolicy<'_> {
    fn rule_allowed(&self, rule: &str) -> bool {
        self.config.is_allowed(rule, self.rel_path)
    }
}

/// Audits the tree under `root` using `config`. File order is sorted, so
/// the report is deterministic — the audit holds itself to its own rules.
pub fn audit_tree(root: &Path, config: &Config) -> Result<Report, AuditError> {
    for allow in &config.allows {
        if rule(&allow.rule).is_none() {
            return Err(AuditError::UnknownRule {
                rule: allow.rule.clone(),
                path: allow.path.clone(),
            });
        }
    }
    let mut files = Vec::new();
    for include in &config.include {
        let base = root.join(include);
        if !base.exists() {
            continue;
        }
        collect_rs_files(&base, &mut files)?;
    }
    files.sort();

    let mut report = Report::default();
    for file in &files {
        let rel = rel_label(root, file);
        if config.is_excluded(&rel) {
            continue;
        }
        let source = std::fs::read_to_string(file).map_err(|error| AuditError::Io {
            path: file.clone(),
            error,
        })?;
        let policy = FilePolicy {
            config,
            rel_path: &rel,
        };
        let file_report = analyze_file(&rel, &source, &policy);
        report.files_scanned += 1;
        report.suppressed += file_report.suppressed;
        report.allowed += file_report.allowed;
        report.diagnostics.extend(file_report.diagnostics);
    }
    report
        .diagnostics
        .sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    Ok(report)
}

/// Audits `root` with its `audit.toml` (or the default config when the
/// file is absent).
pub fn audit_workspace(root: &Path) -> Result<Report, AuditError> {
    let config_path = root.join("audit.toml");
    let config = if config_path.exists() {
        Config::load(&config_path)?
    } else {
        Config::default()
    };
    audit_tree(root, &config)
}

/// Recursively collects `.rs` files (sorted traversal for determinism).
fn collect_rs_files(base: &Path, out: &mut Vec<PathBuf>) -> Result<(), AuditError> {
    if base.is_file() {
        if base.extension().is_some_and(|e| e == "rs") {
            out.push(base.to_path_buf());
        }
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = std::fs::read_dir(base)
        .map_err(|error| AuditError::Io {
            path: base.to_path_buf(),
            error,
        })?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for entry in entries {
        if entry.is_dir() {
            // `target/` can nest anywhere cargo runs; never descend.
            if entry.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect_rs_files(&entry, out)?;
        } else if entry.extension().is_some_and(|e| e == "rs") {
            out.push(entry);
        }
    }
    Ok(())
}

/// Repo-relative, `/`-separated label for a file.
fn rel_label(root: &Path, file: &Path) -> String {
    let rel = file.strip_prefix(root).unwrap_or(file);
    let mut label = String::new();
    for part in rel.components() {
        if !label.is_empty() {
            label.push('/');
        }
        label.push_str(&part.as_os_str().to_string_lossy());
    }
    label
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping_survives_quotes_and_newlines() {
        assert_eq!(json_str("a\"b\\c\nd"), r#""a\"b\\c\nd""#);
    }

    #[test]
    fn report_renders_both_modes() {
        let report = Report {
            diagnostics: vec![Diagnostic {
                path: "crates/x/src/lib.rs".into(),
                line: 3,
                rule: "R1",
                message: "`.unwrap()` in library code".into(),
                snippet: "x.unwrap()".into(),
            }],
            files_scanned: 1,
            suppressed: 2,
            allowed: 1,
        };
        let human = report.render_human();
        assert!(human.contains("crates/x/src/lib.rs:3 R1"));
        assert!(human.contains("1 finding(s)"));
        let json = report.render_json();
        assert!(json.contains("\"rule\": \"R1\""));
        assert!(json.contains("\"files_scanned\": 1"));
    }

    #[test]
    fn unknown_rule_in_config_is_an_error() {
        let config = Config {
            allows: vec![Allow {
                rule: "Z9".into(),
                path: "crates/".into(),
                reason: "nope".into(),
            }],
            ..Config::default()
        };
        let err = audit_tree(Path::new("/nonexistent"), &config).unwrap_err();
        assert!(matches!(err, AuditError::UnknownRule { .. }));
    }
}
