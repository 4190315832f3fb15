//! `telemetry` — trace-event coverage.
//!
//! Every variant of the event enum (default `TraceEvent` in the
//! `tmu-telemetry` crate) must be constructed by at least one non-test
//! call site outside the declaring crate. A variant nothing records is
//! dead vocabulary: it inflates the schema consumers must handle while
//! guaranteeing they never see it. Examples (`examples/`) are demo
//! code and do not count as call sites.
//!
//! Record sites need no allocation check: `TelemetryHub::record` takes
//! a `Copy` `TraceEvent`, so an argument built with `format!` does not
//! type-check.

use std::collections::HashSet;
use std::path::Path;

use crate::config::Config;
use crate::diag::{Diagnostic, Lint};
use crate::lex::TokKind;
use crate::workspace::Workspace;

fn is_example(path: &Path) -> bool {
    path.components().any(|c| c.as_os_str() == "examples")
}

/// Runs the lint over the workspace: every enum variant must be
/// constructed somewhere real.
#[must_use]
pub fn check(ws: &Workspace, cfg: &Config, root: &Path) -> Vec<Diagnostic> {
    let enum_name = cfg.telemetry.event_enum.as_str();
    let Some((decl_src, decl_enum)) = ws
        .crates
        .iter()
        .filter(|k| k.name == cfg.telemetry.event_crate)
        .flat_map(|k| k.sources.iter())
        .find_map(|s| {
            s.enums
                .iter()
                .find(|e| e.name == enum_name && !e.in_test)
                .map(|e| (s, e))
        })
    else {
        return Vec::new(); // no event enum in this workspace — nothing to check
    };

    let mut used: HashSet<String> = HashSet::new();
    for krate in &ws.crates {
        if krate.name == cfg.telemetry.event_crate {
            continue;
        }
        for src in &krate.sources {
            if is_example(&src.path) {
                continue;
            }
            for f in &src.fns {
                if f.in_test {
                    continue;
                }
                let toks = &src.tokens;
                let (lo, hi) = f.body;
                let mut j = lo;
                while j + 3 < hi {
                    if toks[j].is_ident(enum_name)
                        && toks[j + 1].is_punct(':')
                        && toks[j + 2].is_punct(':')
                        && toks[j + 3].kind == TokKind::Ident
                    {
                        used.insert(toks[j + 3].text.clone());
                    }
                    j += 1;
                }
            }
        }
    }

    decl_enum
        .variants
        .iter()
        .filter(|(variant, _)| !used.contains(variant))
        .map(|(variant, line)| {
            Diagnostic::new(
                Lint::Telemetry,
                root,
                &decl_src.path,
                *line,
                format!(
                    "`{enum_name}::{variant}` is declared but never recorded by any \
                     non-test call site outside `{}` — wire it up or retire it",
                    cfg.telemetry.event_crate
                ),
            )
        })
        .collect()
}
