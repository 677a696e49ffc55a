//! `elint`: a multi-IR static analyzer for elastic networks.
//!
//! Elastic systems in this workspace exist at three levels: the component
//! network ([`elastic_core::network::ElasticNetwork`]), the gate-level
//! netlist it compiles to, and the levelized two-phase instruction tape
//! ([`elastic_netlist::levelize::Program`]) the Monte-Carlo backends
//! execute. Each lowering step has invariants that, when violated, surface
//! as deadlocks or silent data corruption *hours* of simulation later.
//! This crate checks them statically, in two pass groups:
//!
//! * **Network passes** ([`network`]) — token-liveness of every channel
//!   cycle (paper Sect. 2), join/fork arity and early-evaluation guard
//!   validity, anti-token counterflow reachability for early-enabling
//!   inputs, unreachable controllers, and a static throughput bound lint
//!   cross-checked against [`elastic_core::dmg_bridge`].
//! * **Tape passes** ([`tape`]) — translation validation of the levelized
//!   program after peephole optimization: def-before-use per phase,
//!   single assignment, slot/operand-window bounds, dead stores surviving
//!   DCE, and fault-arm columns referenced exactly once.
//!
//! All passes report through one [`Diagnostic`] type with stable codes
//! (`E1xx` network errors, `E2xx` tape errors, `Wxxx` warnings), rendered
//! human-readable or built into a JSON value by [`LintReport`]. The `elint` binary
//! drives them over the named paper systems and generated topologies; the
//! fuzz campaign (`elastic_bench`) lints every sampled topology before
//! simulating it. The binaries of both crates share [`cli`]'s flag
//! parsing and report writing, and [`json`]'s value type behind every
//! JSON report.
//!
//! # Example
//!
//! ```
//! use elastic_core::network::ElasticNetwork;
//! use elastic_lint::lint_network;
//!
//! let mut net = ElasticNetwork::new("starved");
//! let j = net.add_join("j", 2).unwrap();
//! let f = net.add_fork("f", 2).unwrap();
//! let b = net.add_eb("b", false).unwrap(); // a ring with no initial token
//! let src = net.add_source("src").unwrap();
//! let snk = net.add_sink("snk").unwrap();
//! net.connect(src, 0, j, 0, "in").unwrap();
//! net.connect(j, 0, f, 0, "jf").unwrap();
//! net.connect(f, 0, b, 0, "fb").unwrap();
//! net.connect(b, 0, j, 1, "bj").unwrap();
//! net.connect(f, 1, snk, 0, "out").unwrap();
//!
//! let report = lint_network(&net);
//! assert!(report.has_code("E101")); // token-starved cycle
//! ```

#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

use std::fmt;

use json::Json;

pub mod cli;
pub mod json;
pub mod network;
pub mod tape;

pub use network::{lint_network, lint_network_with_env};
pub use tape::lint_program;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Advisory: the construct is legal but probably not what was meant,
    /// or it caps performance.
    Warning,
    /// The invariant is violated; simulating or shipping this artefact
    /// will deadlock, corrupt data, or waste the run.
    Error,
}

impl Severity {
    /// Lowercase label used by both renderers.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// One finding of a lint pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code (`E101`, `W301`, ...) — test suites and the fuzz oracle
    /// match on this, never on the message text.
    pub code: &'static str,
    /// Error or warning.
    pub severity: Severity,
    /// Where: a component, channel, or tape position, in the artefact's
    /// own naming.
    pub site: String,
    /// What is wrong.
    pub message: String,
    /// Optional remediation hint.
    pub suggestion: Option<String>,
}

impl Diagnostic {
    /// Creates an error diagnostic.
    pub fn error(code: &'static str, site: impl Into<String>, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: Severity::Error,
            site: site.into(),
            message: message.into(),
            suggestion: None,
        }
    }

    /// Creates a warning diagnostic.
    pub fn warning(
        code: &'static str,
        site: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            code,
            severity: Severity::Warning,
            site: site.into(),
            message: message.into(),
            suggestion: None,
        }
    }

    /// Attaches a remediation hint.
    #[must_use]
    pub fn with_suggestion(mut self, suggestion: impl Into<String>) -> Self {
        self.suggestion = Some(suggestion.into());
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {}: {}",
            self.severity.label(),
            self.code,
            self.site,
            self.message
        )?;
        if let Some(s) = &self.suggestion {
            write!(f, "\n  help: {s}")?;
        }
        Ok(())
    }
}

/// The findings of one lint run over one artefact.
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    /// All findings, in pass order.
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// Wraps a finding list.
    pub fn new(diagnostics: Vec<Diagnostic>) -> Self {
        LintReport { diagnostics }
    }

    /// The error-severity findings.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }

    /// The warning-severity findings.
    pub fn warnings(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
    }

    /// No errors (warnings allowed).
    pub fn is_clean(&self) -> bool {
        self.errors().next().is_none()
    }

    /// Whether any finding carries `code`.
    pub fn has_code(&self, code: &str) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    /// Appends another report's findings.
    pub fn merge(&mut self, other: LintReport) {
        self.diagnostics.extend(other.diagnostics);
    }

    /// Human-readable rendering, one finding per line (plus help lines),
    /// ending with a summary line.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        let errors = self.errors().count();
        let warnings = self.warnings().count();
        out.push_str(&format!("{errors} error(s), {warnings} warning(s)\n"));
        out
    }

    /// The findings as a JSON array of finding objects.
    pub fn to_json(&self) -> Json {
        Json::array(self.diagnostics.iter().map(|d| {
            Json::object([
                ("code", d.code.into()),
                ("severity", d.severity.label().into()),
                ("site", d.site.as_str().into()),
                ("message", d.message.as_str().into()),
                (
                    "suggestion",
                    d.suggestion.as_deref().map_or(Json::Null, Into::into),
                ),
            ])
        }))
    }
}

/// `s` as a quoted JSON string, with quotes, backslashes and control
/// characters escaped: the one escaper behind every JSON report, through
/// [`json::Json`].
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_classifies_and_renders() {
        let report = LintReport::new(vec![
            Diagnostic::error("E101", "ring", "token-starved cycle")
                .with_suggestion("give some buffer an initial token"),
            Diagnostic::warning("W301", "net", "bound 0.5 < 1"),
        ]);
        assert!(!report.is_clean());
        assert!(report.has_code("E101"));
        assert!(report.has_code("W301"));
        assert!(!report.has_code("E999"));
        assert_eq!(report.errors().count(), 1);
        assert_eq!(report.warnings().count(), 1);
        let human = report.render_human();
        assert!(
            human.contains("error[E101] ring: token-starved cycle"),
            "{human}"
        );
        assert!(human.contains("help: give some buffer"), "{human}");
        assert!(human.contains("1 error(s), 1 warning(s)"), "{human}");
        let json = report.to_json().to_string();
        assert!(json.contains("\"code\": \"E101\""), "{json}");
        assert!(json.contains("\"suggestion\": null"), "{json}");
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(json.matches(open).count(), json.matches(close).count());
        }
    }

    #[test]
    fn json_escapes_control_characters() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_str("\u{1}"), "\"\\u0001\"");
    }
}
