//! `workspace-lints` — every member inherits the workspace lint floor.
//!
//! The safety and documentation floor (`unsafe_code = "deny"`,
//! `missing_docs = "warn"` and the clippy table) lives in the root
//! manifest's `[workspace.lints]`, and rustc and clippy enforce it. A
//! member applies it only through `[lints] workspace = true`, so a new
//! crate without that line escapes all of it silently; this lint makes
//! the omission a finding. Vendored stand-ins opt out through a
//! justified `[[allow]]` path suppression.

use std::path::Path;

use crate::diag::{Diagnostic, Lint};
use crate::workspace::Workspace;

/// Runs the lint over the workspace.
#[must_use]
pub fn check(ws: &Workspace, root: &Path) -> Vec<Diagnostic> {
    ws.crates
        .iter()
        .filter(|krate| !krate.inherits_lints)
        .map(|krate| {
            Diagnostic::new(
                Lint::WorkspaceLints,
                root,
                &krate.dir.join("Cargo.toml"),
                1,
                format!(
                    "`{}` does not inherit the workspace lint floor (`unsafe_code`, \
                     `missing_docs`, clippy) — add `[lints] workspace = true`",
                    krate.name
                ),
            )
        })
        .collect()
}
