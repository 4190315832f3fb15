//! L1 — two-phase discipline.
//!
//! The simulation kernel separates each cycle into a *drive* pass
//! (combinational: read state, write wires) and a *commit* pass
//! (sequential: latch the next state). Committed — registered — state
//! must therefore only be assigned from commit-edge code. The
//! convention this lint enforces: a struct field is **committed state**
//! when its doc comment contains the configured marker (default
//! `Committed state`) or its name carries the configured prefix
//! (default `q_`); such a field may only be assigned inside methods
//! named in the allowed set (default `commit`/`tick`/`reset`, extended
//! per type by justified `[[two_phase.allow]]` entries in `lint.toml`).
//!
//! Matching is name-based (the parser does not resolve types), scoped
//! to the crate declaring the field — committed field names are kept
//! distinctive for exactly this reason. Test code is exempt.
//!
//! An allowance whose `type` names no struct or enum in the workspace is
//! itself a finding (reported at its `lint.toml` line): a renamed or
//! deleted type must not leave a dead exemption behind.

use std::collections::{HashMap, HashSet};
use std::path::Path;

use crate::config::Config;
use crate::diag::{Diagnostic, Lint};
use crate::lints::{assign_op_at, match_delim};
use crate::workspace::{CrateSrc, Workspace};

/// Runs the lint over the workspace.
#[must_use]
pub fn check(ws: &Workspace, cfg: &Config, root: &Path) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for krate in &ws.crates {
        let tagged = tagged_fields(krate, cfg);
        if tagged.is_empty() {
            continue;
        }
        scan_crate(krate, cfg, &tagged, root, &mut diags);
    }
    let types: HashSet<&str> = ws
        .crates
        .iter()
        .flat_map(|k| &k.sources)
        .flat_map(|src| {
            let structs = src.structs.iter().map(|st| st.name.as_str());
            structs.chain(src.enums.iter().map(|en| en.name.as_str()))
        })
        .collect();
    for allow in &cfg.two_phase.allow {
        if !types.contains(allow.type_name.as_str()) {
            diags.push(Diagnostic::new(
                Lint::TwoPhase,
                root,
                &root.join("lint.toml"),
                allow.line,
                format!(
                    "[[two_phase.allow]] names type `{}`, which no longer exists in the \
                     workspace; remove the dead exemption",
                    allow.type_name
                ),
            ));
        }
    }
    diags
}

/// Committed field name → declaring type names (within one crate).
fn tagged_fields(krate: &CrateSrc, cfg: &Config) -> HashMap<String, Vec<String>> {
    let mut tagged: HashMap<String, Vec<String>> = HashMap::new();
    let marker = &cfg.two_phase.marker;
    let prefix = &cfg.two_phase.field_prefix;
    for src in &krate.sources {
        for st in &src.structs {
            if st.in_test {
                continue;
            }
            for field in &st.fields {
                let by_doc = !marker.is_empty() && field.doc.contains(marker.as_str());
                let by_name = !prefix.is_empty() && field.name.starts_with(prefix.as_str());
                if by_doc || by_name {
                    tagged
                        .entry(field.name.clone())
                        .or_default()
                        .push(st.name.clone());
                }
            }
        }
    }
    tagged
}

fn scan_crate(
    krate: &CrateSrc,
    cfg: &Config,
    tagged: &HashMap<String, Vec<String>>,
    root: &Path,
    diags: &mut Vec<Diagnostic>,
) {
    for src in &krate.sources {
        for f in &src.fns {
            if f.in_test || f.body.0 == f.body.1 {
                continue;
            }
            let toks = &src.tokens;
            let (lo, hi) = f.body;
            let mut j = lo;
            while j + 1 < hi {
                if toks[j].is_punct('.') {
                    let field_tok = &toks[j + 1];
                    if let Some(types) = tagged.get(&field_tok.text) {
                        // Skip an optional index expression after the
                        // field before looking for the operator.
                        let mut k = j + 2;
                        if k < hi && toks[k].is_punct('[') {
                            k = match_delim(toks, k, hi, '[', ']') + 1;
                        }
                        if assign_op_at(toks, k, hi) && !allowed(&f.name, types, cfg) {
                            diags.push(Diagnostic::new(
                                Lint::TwoPhase,
                                root,
                                &src.path,
                                field_tok.line,
                                format!(
                                    "committed-state field `{}` (of `{}`) assigned in `{}`, \
                                     which is not an allowed commit-phase method \
                                     (allowed: {}; extend via [[two_phase.allow]] in lint.toml)",
                                    field_tok.text,
                                    types.join("`/`"),
                                    f.name,
                                    allowed_names(types, cfg).join(", "),
                                ),
                            ));
                        }
                    }
                }
                j += 1;
            }
        }
    }
}

/// Whether `fn_name` may assign fields declared by any of `types`.
fn allowed(fn_name: &str, types: &[String], cfg: &Config) -> bool {
    allowed_set(types, cfg).contains(fn_name)
}

fn allowed_set<'a>(types: &'a [String], cfg: &'a Config) -> HashSet<&'a str> {
    let mut set: HashSet<&str> = cfg.two_phase.methods.iter().map(String::as_str).collect();
    for allow in &cfg.two_phase.allow {
        if types.iter().any(|t| t == &allow.type_name) {
            set.extend(allow.methods.iter().map(String::as_str));
        }
    }
    set
}

fn allowed_names(types: &[String], cfg: &Config) -> Vec<String> {
    let mut names: Vec<String> = allowed_set(types, cfg)
        .into_iter()
        .map(str::to_string)
        .collect();
    names.sort();
    names
}
