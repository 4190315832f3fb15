//! Diagnostics and their text/JSON renderings.

use std::fmt;
use std::path::Path;

/// Stable machine-readable lint identifiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Lint {
    /// L1: committed state assigned outside `commit`/`tick`/`reset`.
    TwoPhase,
    /// L2: `unwrap()` / weak `expect` / `panic!` in non-test code.
    PanicHygiene,
    /// L3: crate root missing a required inner attribute.
    CrateHeader,
    /// L4: trace-event vocabulary or record-site discipline violated.
    Telemetry,
    /// L5: direction pair exposes asymmetric inherent APIs.
    DirectionParity,
    /// L6: `.remove(0)` / `.insert(0, ..)` shifting a whole buffer.
    FrontEviction,
}

impl Lint {
    /// Kebab-case lint name, as used in `lint.toml` and diagnostics.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Lint::TwoPhase => "two-phase",
            Lint::PanicHygiene => "panic-hygiene",
            Lint::CrateHeader => "crate-header",
            Lint::Telemetry => "telemetry",
            Lint::DirectionParity => "direction-parity",
            Lint::FrontEviction => "front-eviction",
        }
    }

    /// All lints, for `--list` style output and tests.
    pub const ALL: [Lint; 6] = [
        Lint::TwoPhase,
        Lint::PanicHygiene,
        Lint::CrateHeader,
        Lint::Telemetry,
        Lint::DirectionParity,
        Lint::FrontEviction,
    ];
}

impl fmt::Display for Lint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One finding at a source location.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Which lint fired.
    pub lint: Lint,
    /// File, relative to the workspace root where possible.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable description of the violation.
    pub message: String,
}

impl Diagnostic {
    /// Creates a diagnostic, storing `file` relative to `root` when it
    /// is inside it.
    #[must_use]
    pub fn new(lint: Lint, root: &Path, file: &Path, line: u32, message: String) -> Self {
        let rel = file.strip_prefix(root).unwrap_or(file);
        Diagnostic {
            lint,
            file: rel.display().to_string(),
            line,
            message,
        }
    }

    /// `file:line: [lint] message` — the human rendering.
    #[must_use]
    pub fn render(&self) -> String {
        format!(
            "{}:{}: [{}] {}",
            self.file,
            self.line,
            self.lint.name(),
            self.message
        )
    }

    /// One JSON object (hand-assembled; the offline workspace has no
    /// serialisation crate, same as everywhere else in the workspace).
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"lint\":\"{}\",\"file\":\"{}\",\"line\":{},\"message\":\"{}\"}}",
            self.lint.name(),
            escape(&self.file),
            self.line,
            escape(&self.message)
        )
    }
}

/// Renders the full diagnostics list as a JSON document.
#[must_use]
pub fn render_json(diags: &[Diagnostic], suppressed: usize) -> String {
    let items: Vec<String> = diags.iter().map(Diagnostic::to_json).collect();
    format!(
        "{{\"findings\":[{}],\"count\":{},\"suppressed\":{}}}",
        items.join(","),
        diags.len(),
        suppressed
    )
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    #[test]
    fn render_and_json() {
        let d = Diagnostic::new(
            Lint::PanicHygiene,
            &PathBuf::from("/ws"),
            &PathBuf::from("/ws/crates/x/src/lib.rs"),
            7,
            "bare `unwrap()` outside tests".to_string(),
        );
        assert_eq!(
            d.render(),
            "crates/x/src/lib.rs:7: [panic-hygiene] bare `unwrap()` outside tests"
        );
        let json = render_json(&[d], 2);
        assert!(json.contains("\"count\":1"));
        assert!(json.contains("\"suppressed\":2"));
        assert!(json.contains("panic-hygiene"));
    }

    #[test]
    fn json_escapes_quotes() {
        let d = Diagnostic {
            lint: Lint::Telemetry,
            file: "a.rs".to_string(),
            line: 1,
            message: "message with \"quotes\"".to_string(),
        };
        assert!(d.to_json().contains("\\\"quotes\\\""));
    }
}
