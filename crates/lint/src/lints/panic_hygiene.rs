//! `panic-hygiene` — panics state their invariant.
//!
//! Monitoring logic must not fall over: a TMU that panics on a
//! malformed transaction is worse than the fault it was watching for.
//! Bare `unwrap()`, `panic!`, `todo!` and `unimplemented!` are clippy's
//! (`[workspace.lints.clippy]`). What clippy cannot judge is whether a
//! sanctioned panic says *why* it cannot happen, so in non-test code
//! this lint rejects `expect` calls whose message is too short to state
//! an invariant, and message-less `unreachable!()`. `assert!`-style
//! macros are the sanctioned way to check invariants and stay allowed;
//! `unreachable!("why")` with a message is treated like an
//! invariant-stating `expect`.

use std::path::Path;

use crate::config::Config;
use crate::diag::{Diagnostic, Lint};
use crate::lex::TokKind;
use crate::lints::match_delim;
use crate::workspace::Workspace;

/// Runs the lint over the workspace.
#[must_use]
pub fn check(ws: &Workspace, cfg: &Config, root: &Path) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for krate in &ws.crates {
        for src in &krate.sources {
            for f in &src.fns {
                if f.in_test || f.body.0 == f.body.1 {
                    continue;
                }
                scan_body(src, f.body, cfg, root, &mut diags);
            }
        }
    }
    diags
}

fn scan_body(
    src: &crate::parse::SourceFile,
    (lo, hi): (usize, usize),
    cfg: &Config,
    root: &Path,
    diags: &mut Vec<Diagnostic>,
) {
    let toks = &src.tokens;
    let mut j = lo;
    while j < hi {
        let t = &toks[j];
        if t.kind != TokKind::Ident {
            j += 1;
            continue;
        }
        let after_dot = j > lo && toks[j - 1].is_punct('.');
        match t.text.as_str() {
            "expect" if after_dot && is_call(toks, j + 1, hi) => {
                let close = match_delim(toks, j + 1, hi, '(', ')');
                // Only a single bare string literal is auditable here; a
                // computed message is assumed descriptive.
                if close == j + 3 && toks[j + 2].kind == TokKind::Str {
                    let msg = toks[j + 2].text.trim();
                    if msg.len() < cfg.panic.min_expect_len || !msg.contains(' ') {
                        diags.push(Diagnostic::new(
                            Lint::PanicHygiene,
                            root,
                            &src.path,
                            t.line,
                            format!(
                                "`expect(\"{msg}\")` message does not state an invariant \
                                 (need ≥ {} chars incl. a space explaining why this \
                                 cannot fail)",
                                cfg.panic.min_expect_len
                            ),
                        ));
                    }
                }
            }
            "unreachable" if is_macro(toks, j + 1, hi) => {
                let open = j + 2;
                if open < hi && toks[open].is_punct('(') {
                    let close = match_delim(toks, open, hi, '(', ')');
                    if close == open + 1 {
                        diags.push(Diagnostic::new(
                            Lint::PanicHygiene,
                            root,
                            &src.path,
                            t.line,
                            "message-less `unreachable!()` — state the invariant that \
                             makes this arm impossible"
                                .to_string(),
                        ));
                    }
                }
            }
            _ => {}
        }
        j += 1;
    }
}

/// `name ( )`-style call start at `open`.
fn is_call(toks: &[crate::lex::Token], open: usize, hi: usize) -> bool {
    open < hi && toks[open].is_punct('(')
}

/// `name !` macro invocation.
fn is_macro(toks: &[crate::lex::Token], bang: usize, hi: usize) -> bool {
    bang < hi && toks[bang].is_punct('!')
}
