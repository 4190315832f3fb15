//! `tmu-lint` — repo-specific invariant linter for the AXI TMU
//! workspace.
//!
//! The paper's value proposition is *reliability*: the TMU must never
//! miscount a cycle or mis-order a handshake. The Rust reproduction
//! encodes that as conventions — a recorded vocabulary of trace events,
//! bounded buffers — and this tool checks the ones rustc and clippy
//! cannot. The safety floor itself (`unsafe_code`, `missing_docs`,
//! `unwrap_used`, `panic`, …) is the root manifest's
//! `[workspace.lints]`, and the two-phase drive/commit discipline is
//! the type system's: a stage's forward passes take `&self`, so only its
//! commit can write state (see `soc::stage::LinkStage`). Four
//! deny-by-default lints:
//!
//! | name | invariant |
//! |------|-----------|
//! | `panic-hygiene` | no weak `expect` message or bare `unreachable!()` in non-test code |
//! | `workspace-lints` | every member manifest has `[lints] workspace = true` |
//! | `telemetry` | every `TraceEvent` variant is recorded outside its crate |
//! | `front-eviction` | no `.remove(0)`/`.insert(0, ..)` shifting a whole buffer in non-test code |
//!
//! Suppressions live in the checked-in `lint.toml` and each must carry
//! a `reason` string. The parser is a hand-rolled `syn` stand-in (the
//! build environment is offline), coarse by design: see `DESIGN.md`
//! § "Static analysis & invariants" for the exact heuristics.

pub mod config;
pub mod diag;
pub mod lex;
pub mod lints;
pub mod parse;
pub mod workspace;

use std::path::Path;

pub use config::Config;
pub use diag::{Diagnostic, Lint};
pub use workspace::Workspace;

/// Result of a lint run: surviving findings plus how many were
/// suppressed by `lint.toml` path allowances.
#[derive(Debug)]
pub struct Outcome {
    /// Findings that survived suppression, sorted by file/line.
    pub diags: Vec<Diagnostic>,
    /// Number of findings removed by `[[allow]]` entries.
    pub suppressed: usize,
}

/// Runs every lint over a loaded workspace and applies the config's
/// path suppressions.
#[must_use]
pub fn run_lints(ws: &Workspace, cfg: &Config, root: &Path) -> Outcome {
    let mut diags = Vec::new();
    diags.extend(lints::panic_hygiene::check(ws, cfg, root));
    diags.extend(lints::workspace_lints::check(ws, root));
    diags.extend(lints::telemetry::check(ws, cfg, root));
    diags.extend(lints::front_eviction::check(ws, cfg, root));

    let before = diags.len();
    diags.retain(|d| !suppressed(d, cfg));
    let suppressed = before - diags.len();
    diags.sort_by(|a, b| (a.file.as_str(), a.line, a.lint).cmp(&(b.file.as_str(), b.line, b.lint)));
    Outcome { diags, suppressed }
}

/// True when a `lint.toml` `[[allow]]` entry covers the diagnostic.
fn suppressed(d: &Diagnostic, cfg: &Config) -> bool {
    cfg.allows.iter().any(|a| {
        d.file.starts_with(a.path.as_str())
            && a.lints.iter().any(|l| l == "*" || l == d.lint.name())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PathAllow;

    #[test]
    fn suppression_matches_prefix_and_lint_name() {
        let mut cfg = Config::default();
        cfg.allows.push(PathAllow {
            path: "vendor/".to_string(),
            lints: vec!["panic-hygiene".to_string()],
            reason: "vendored".to_string(),
        });
        let d = |file: &str, lint: Lint| Diagnostic {
            lint,
            file: file.to_string(),
            line: 1,
            message: String::new(),
        };
        assert!(suppressed(
            &d("vendor/rand/src/lib.rs", Lint::PanicHygiene),
            &cfg
        ));
        assert!(!suppressed(
            &d("vendor/rand/src/lib.rs", Lint::WorkspaceLints),
            &cfg
        ));
        assert!(!suppressed(
            &d("crates/core/src/lib.rs", Lint::PanicHygiene),
            &cfg
        ));
    }
}
