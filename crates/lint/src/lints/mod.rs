//! The lint passes and shared token-scanning helpers.

pub mod front_eviction;
pub mod panic_hygiene;
pub mod telemetry;
pub mod two_phase;
pub mod workspace_lints;

use crate::lex::Token;

/// Index of the delimiter closing the one at `open`, or `hi` when
/// unbalanced (truncated input).
pub(crate) fn match_delim(toks: &[Token], open: usize, hi: usize, o: char, c: char) -> usize {
    let mut depth = 0usize;
    let mut j = open;
    while j < hi {
        if toks[j].is_punct(o) {
            depth += 1;
        } else if toks[j].is_punct(c) {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
        j += 1;
    }
    hi
}

/// True when the tokens starting at `k` spell an assignment operator:
/// `=` (but not `==`/`=>`), `+=`, `-=`, `*=`, `/=`, `%=`, `&=`, `|=`,
/// `^=`, `<<=`, `>>=`.
pub(crate) fn assign_op_at(toks: &[Token], k: usize, hi: usize) -> bool {
    if k >= hi {
        return false;
    }
    let next_is = |i: usize, ch: char| i < hi && toks[i].is_punct(ch);
    let t = &toks[k];
    if t.is_punct('=') {
        return !next_is(k + 1, '=') && !next_is(k + 1, '>');
    }
    for op in ['+', '-', '*', '/', '%', '&', '|', '^'] {
        if t.is_punct(op) && next_is(k + 1, '=') {
            return true;
        }
    }
    (t.is_punct('<') && next_is(k + 1, '<') && next_is(k + 2, '='))
        || (t.is_punct('>') && next_is(k + 1, '>') && next_is(k + 2, '='))
}
