//! The lint passes and shared token-scanning helpers.

pub mod front_eviction;
pub mod panic_hygiene;
pub mod telemetry;
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
