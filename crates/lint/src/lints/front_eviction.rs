//! L6 — front eviction.
//!
//! `Vec::remove(0)` and `Vec::insert(0, _)` shift every element, so
//! their cost grows with the buffer. On a bounded buffer kept full — a
//! retention ring, a FIFO — that turns every event into a copy of the
//! whole buffer, and per-event cost grows with run length. This lint
//! rejects both calls in non-test code; a `VecDeque` with
//! `pop_front`/`push_front` does the same in O(1).
//!
//! The parser does not resolve types, so it cannot tell a `Vec` from a
//! `VecDeque`, whose `remove(0)`/`insert(0, _)` are O(1). Such a call
//! site takes a `[[front_eviction.allow]]` entry in `lint.toml` naming
//! the file `path` (a prefix, relative to the workspace root) and the
//! `receiver` (the identifier before the dot), with a `reason`. An entry
//! that matches no call site is itself a finding, reported at its
//! `lint.toml` line, so a stale exemption cannot linger.

use std::path::Path;

use crate::config::Config;
use crate::diag::{Diagnostic, Lint};
use crate::lex::{TokKind, Token};
use crate::workspace::Workspace;

/// Runs the lint over the workspace.
#[must_use]
pub fn check(ws: &Workspace, cfg: &Config, root: &Path) -> Vec<Diagnostic> {
    let allows = &cfg.front_eviction.allow;
    let mut used = vec![false; allows.len()];
    let mut diags = Vec::new();
    for src in ws.crates.iter().flat_map(|k| &k.sources) {
        for f in src.fns.iter().filter(|f| !f.in_test) {
            let toks = &src.tokens;
            for j in f.body.0..f.body.1 {
                let Some((call, receiver)) = front_call(toks, j, f.body.1) else {
                    continue;
                };
                let d = Diagnostic::new(
                    Lint::FrontEviction,
                    root,
                    &src.path,
                    toks[j].line,
                    format!(
                        "`{receiver}.{call}` shifts every element (O(n) per call) — \
                         keep a `VecDeque` and use `{}`, or add a reasoned \
                         [[front_eviction.allow]] if `{receiver}` already is one",
                        if call.starts_with("remove") {
                            "pop_front()"
                        } else {
                            "push_front(..)"
                        }
                    ),
                );
                let hit = allows
                    .iter()
                    .position(|a| d.file.starts_with(a.path.as_str()) && a.receiver == receiver);
                match hit {
                    Some(k) => used[k] = true,
                    None => diags.push(d),
                }
            }
        }
    }
    for (allow, _) in allows.iter().zip(&used).filter(|(_, used)| !**used) {
        diags.push(Diagnostic::new(
            Lint::FrontEviction,
            root,
            &root.join("lint.toml"),
            allow.line,
            format!(
                "[[front_eviction.allow]] for `{}` under `{}` matches no call site; \
                 remove the dead exemption",
                allow.receiver, allow.path
            ),
        ));
    }
    diags
}

/// When the tokens at `j` spell `.remove(0)` or `.insert(0,`, the call
/// as written (`remove(0)` / `insert(0, ..)`) and its receiver: the
/// identifier before the dot, or `<expr>` when the receiver is not a
/// plain name.
fn front_call(toks: &[Token], j: usize, hi: usize) -> Option<(&'static str, String)> {
    let (call, closer) = match toks[j].text.as_str() {
        "remove" => ("remove(0)", ')'),
        "insert" => ("insert(0, ..)", ','),
        _ => return None,
    };
    let shape = toks[j].kind == TokKind::Ident
        && j >= 1
        && toks[j - 1].is_punct('.')
        && j + 3 < hi
        && toks[j + 1].is_punct('(')
        && toks[j + 2].kind == TokKind::Num
        && toks[j + 2].text == "0"
        && toks[j + 3].is_punct(closer);
    if !shape {
        return None;
    }
    let receiver = match j.checked_sub(2).map(|r| &toks[r]) {
        Some(t) if t.kind == TokKind::Ident => t.text.clone(),
        _ => "<expr>".to_string(),
    };
    Some((call, receiver))
}
