//! Coarse item-level parsing on top of [`crate::lex`].
//!
//! The lints need *structure*, not full expression trees: which structs
//! declare which (doc-tagged) fields, which enums declare which
//! variants, which `fn` bodies span which token ranges, and whether a
//! given item lives under `#[cfg(test)]`. This module extracts exactly
//! that, brace-matching its way through anything it does not model.
//!
//! Deliberate simplifications (documented in `DESIGN.md`):
//!
//! * types are matched by name, not resolved — the committed-state
//!   convention keeps field names distinctive for this reason;
//! * `macro_rules!` definitions and item-position macro *invocations*
//!   are skipped wholesale (their interiors are not real item syntax);
//! * an attribute "is a test attribute" when it is `#[test]` or a `cfg`
//!   mentioning `test` without `not`.

use std::path::PathBuf;

use crate::lex::{lex, TokKind, Token};

/// One parsed struct field.
#[derive(Debug, Clone)]
pub struct FieldDef {
    /// Field name.
    pub name: String,
    /// Concatenated outer doc text of the field.
    pub doc: String,
    /// 1-based declaration line.
    pub line: u32,
}

/// One parsed `struct` item.
#[derive(Debug, Clone)]
pub struct StructDef {
    /// Type name.
    pub name: String,
    /// Named fields (tuple structs yield an empty list).
    pub fields: Vec<FieldDef>,
    /// 1-based declaration line.
    pub line: u32,
    /// True when declared under `#[cfg(test)]`.
    pub in_test: bool,
}

/// One parsed `enum` item.
#[derive(Debug, Clone)]
pub struct EnumDef {
    /// Type name.
    pub name: String,
    /// Variant names with their declaration lines.
    pub variants: Vec<(String, u32)>,
    /// 1-based declaration line.
    pub line: u32,
    /// True when declared under `#[cfg(test)]`.
    pub in_test: bool,
}

/// One parsed `fn` item (free, inherent, or trait-impl).
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Function name.
    pub name: String,
    /// 1-based declaration line.
    pub line: u32,
    /// Token range of the body, *excluding* the outer braces
    /// (`body.0..body.1` indexes into [`SourceFile::tokens`]). Empty for
    /// bodyless trait-method declarations.
    pub body: (usize, usize),
    /// True for `#[test]` fns or anything under `#[cfg(test)]`.
    pub in_test: bool,
}

/// A fully scanned source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Path the file was read from.
    pub path: PathBuf,
    /// The raw token stream (lints scan fn-body slices of this).
    pub tokens: Vec<Token>,
    /// All structs, in declaration order.
    pub structs: Vec<StructDef>,
    /// All enums, in declaration order.
    pub enums: Vec<EnumDef>,
    /// All fns, flattened across modules and impls.
    pub fns: Vec<FnDef>,
}

impl SourceFile {
    /// Marks every item in the file as test code. The workspace loader
    /// applies this to `tests.rs`-stem files and `tests/` directories,
    /// whose `#[cfg(test)]` gate lives on the `mod` declaration in the
    /// *parent* file where this parser cannot see it.
    pub fn mark_all_test(&mut self) {
        for f in &mut self.fns {
            f.in_test = true;
        }
        for s in &mut self.structs {
            s.in_test = true;
        }
        for e in &mut self.enums {
            e.in_test = true;
        }
    }
}

/// Parses `src` (read from `path`, used only for reporting).
#[must_use]
pub fn parse_source(path: PathBuf, src: &str) -> SourceFile {
    let tokens = lex(src);
    let mut file = SourceFile {
        path,
        tokens: Vec::new(),
        structs: Vec::new(),
        enums: Vec::new(),
        fns: Vec::new(),
    };
    let mut p = Parser {
        toks: &tokens,
        file: &mut file,
    };
    p.items(0, tokens.len(), false);
    file.tokens = tokens;
    file
}

struct Parser<'a> {
    toks: &'a [Token],
    file: &'a mut SourceFile,
}

impl<'a> Parser<'a> {
    /// Walks item positions in `lo..hi`; `in_test` is inherited from
    /// the enclosing item.
    fn items(&mut self, lo: usize, hi: usize, in_test: bool) {
        let mut i = lo;
        let mut pending_test = false;
        while i < hi {
            let t = &self.toks[i];
            if matches!(t.kind, TokKind::DocOuter | TokKind::DocInner) {
                i += 1;
                continue;
            }
            if t.is_punct('#') {
                let (attr, inner, next) = self.attribute(i, hi);
                if !inner && is_test_attr(&attr) {
                    pending_test = true;
                }
                i = next;
                continue;
            }
            // A visibility belongs to the item that follows: `pub` and
            // its `(crate)`-style group keep the item's attributes.
            if t.kind == TokKind::Ident && t.text == "pub" {
                i += 1;
                if i < hi && self.toks[i].is_punct('(') {
                    i = self.match_delim(i, hi, '(', ')').saturating_add(1);
                }
                continue;
            }
            let test = in_test || pending_test;
            pending_test = false;
            i = match t.text.as_str() {
                _ if t.kind != TokKind::Ident => i + 1,
                "struct" => self.struct_item(i, hi, test),
                "enum" => self.enum_item(i, hi, test),
                "impl" => self.impl_item(i, hi, test),
                "fn" => self.fn_item(i, hi, test),
                "mod" | "trait" => self.block_scope(i, hi, test),
                "macro_rules" => self.skip_to_block_end(i, hi),
                // Any other token: plain advance. Brace-matched regions
                // that we did not recognize as items (macro invocations,
                // const initializers…) are walked token-by-token, which
                // is fine — nested `fn`/`struct` keywords inside them
                // still register with the surrounding context.
                _ => i + 1,
            };
        }
    }

    /// Consumes `#[...]` / `#![...]` starting at `i` (the `#`).
    /// Returns (normalized content, is_inner, next index).
    fn attribute(&self, i: usize, hi: usize) -> (String, bool, usize) {
        let mut j = i + 1;
        let mut inner = false;
        if j < hi && self.toks[j].is_punct('!') {
            inner = true;
            j += 1;
        }
        if j >= hi || !self.toks[j].is_punct('[') {
            return (String::new(), false, i + 1);
        }
        let close = self.match_delim(j, hi, '[', ']');
        let content = self.toks[j + 1..close.min(hi)]
            .iter()
            .map(|t| t.text.as_str())
            .collect::<Vec<_>>()
            .join(" ");
        (content, inner, close.saturating_add(1).min(hi))
    }

    /// Index of the delimiter closing the one at `open` (or `hi`).
    fn match_delim(&self, open: usize, hi: usize, o: char, c: char) -> usize {
        let mut depth = 0usize;
        let mut j = open;
        while j < hi {
            let t = &self.toks[j];
            if t.is_punct(o) {
                depth += 1;
            } else if t.is_punct(c) {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
            j += 1;
        }
        hi
    }

    /// First `{` at zero paren/bracket depth in `i..hi`, or the `;` that
    /// ends a bodyless item, whichever comes first.
    fn find_body_open(&self, i: usize, hi: usize) -> Option<usize> {
        let mut depth = 0i32;
        let mut j = i;
        while j < hi {
            let t = &self.toks[j];
            if t.is_punct('(') || t.is_punct('[') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') {
                depth -= 1;
            } else if depth == 0 {
                if t.is_punct('{') {
                    return Some(j);
                }
                if t.is_punct(';') {
                    return None;
                }
            }
            j += 1;
        }
        None
    }

    fn struct_item(&mut self, i: usize, hi: usize, in_test: bool) -> usize {
        let line = self.toks[i].line;
        let Some(name_tok) = self.toks.get(i + 1) else {
            return hi;
        };
        let name = name_tok.text.clone();
        let Some(open) = self.find_body_open(i + 1, hi) else {
            // Unit or tuple struct: skip to the `;`.
            let mut j = i + 1;
            let mut depth = 0i32;
            while j < hi {
                let t = &self.toks[j];
                if t.is_punct('(') {
                    depth += 1;
                } else if t.is_punct(')') {
                    depth -= 1;
                } else if depth == 0 && t.is_punct(';') {
                    return j + 1;
                }
                j += 1;
            }
            return hi;
        };
        let close = self.match_delim(open, hi, '{', '}');
        let fields = self.fields(open + 1, close);
        self.file.structs.push(StructDef {
            name,
            fields,
            line,
            in_test,
        });
        close + 1
    }

    /// Parses named fields between `lo..hi` (inside struct braces).
    fn fields(&self, lo: usize, hi: usize) -> Vec<FieldDef> {
        let mut out = Vec::new();
        let mut i = lo;
        let mut doc = String::new();
        while i < hi {
            let t = &self.toks[i];
            match t.kind {
                TokKind::DocOuter => {
                    if !doc.is_empty() {
                        doc.push('\n');
                    }
                    doc.push_str(&t.text);
                    i += 1;
                }
                _ if t.is_punct('#') => {
                    let (_, _, next) = self.attribute(i, hi);
                    i = next;
                }
                TokKind::Ident if t.text == "pub" => {
                    i += 1;
                    if i < hi && self.toks[i].is_punct('(') {
                        i = self.match_delim(i, hi, '(', ')') + 1;
                    }
                }
                TokKind::Ident => {
                    // `name : Type ,` — capture the name, then skip the
                    // type to the comma at zero delimiter depth (angle
                    // brackets included, `->` tolerated).
                    let name = t.text.clone();
                    let line = t.line;
                    let mut j = i + 1;
                    if j < hi && self.toks[j].is_punct(':') {
                        j += 1;
                        let mut angle = 0i32;
                        let mut paren = 0i32;
                        while j < hi {
                            let u = &self.toks[j];
                            if u.is_punct('<') {
                                angle += 1;
                            } else if u.is_punct('>') {
                                if j > 0 && self.toks[j - 1].is_punct('-') {
                                    // `->` in an fn-pointer type
                                } else {
                                    angle -= 1;
                                }
                            } else if u.is_punct('(') || u.is_punct('[') {
                                paren += 1;
                            } else if u.is_punct(')') || u.is_punct(']') {
                                paren -= 1;
                            } else if u.is_punct(',') && angle <= 0 && paren == 0 {
                                break;
                            }
                            j += 1;
                        }
                        out.push(FieldDef {
                            name,
                            doc: std::mem::take(&mut doc),
                            line,
                        });
                        i = j + 1;
                    } else {
                        doc.clear();
                        i += 1;
                    }
                }
                _ => {
                    doc.clear();
                    i += 1;
                }
            }
        }
        out
    }

    fn enum_item(&mut self, i: usize, hi: usize, in_test: bool) -> usize {
        let line = self.toks[i].line;
        let Some(name_tok) = self.toks.get(i + 1) else {
            return hi;
        };
        let name = name_tok.text.clone();
        let Some(open) = self.find_body_open(i + 1, hi) else {
            return (i + 2).min(hi);
        };
        let close = self.match_delim(open, hi, '{', '}');
        let mut variants = Vec::new();
        let mut j = open + 1;
        while j < close {
            let t = &self.toks[j];
            match t.kind {
                TokKind::DocOuter | TokKind::DocInner => j += 1,
                _ if t.is_punct('#') => {
                    let (_, _, next) = self.attribute(j, close);
                    j = next;
                }
                TokKind::Ident => {
                    variants.push((t.text.clone(), t.line));
                    // Skip payload and discriminant to the comma.
                    j += 1;
                    let mut depth = 0i32;
                    while j < close {
                        let u = &self.toks[j];
                        if u.is_punct('(') || u.is_punct('{') || u.is_punct('[') {
                            depth += 1;
                        } else if u.is_punct(')') || u.is_punct('}') || u.is_punct(']') {
                            depth -= 1;
                        } else if depth == 0 && u.is_punct(',') {
                            break;
                        }
                        j += 1;
                    }
                    j += 1;
                }
                _ => j += 1,
            }
        }
        self.file.enums.push(EnumDef {
            name,
            variants,
            line,
            in_test,
        });
        close + 1
    }

    fn impl_item(&mut self, i: usize, hi: usize, in_test: bool) -> usize {
        // `impl<…> Path<…> (for Path<…>)? where … {`
        let mut j = i + 1;
        if j < hi && self.toks[j].is_punct('<') {
            j = self.match_angle(j, hi) + 1;
        }
        let Some(open) = self.find_body_open(j, hi) else {
            return (i + 1).min(hi);
        };
        let close = self.match_delim(open, hi, '{', '}');
        self.items(open + 1, close, in_test);
        close + 1
    }

    /// Matches a `<…>` generics group opened at `open`.
    fn match_angle(&self, open: usize, hi: usize) -> usize {
        let mut depth = 0i32;
        let mut j = open;
        while j < hi {
            let t = &self.toks[j];
            if t.is_punct('<') {
                depth += 1;
            } else if t.is_punct('>') && !(j > 0 && self.toks[j - 1].is_punct('-')) {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
            j += 1;
        }
        hi
    }

    fn fn_item(&mut self, i: usize, hi: usize, in_test: bool) -> usize {
        let Some(name_tok) = self.toks.get(i + 1) else {
            return hi;
        };
        let name = name_tok.text.clone();
        let line = name_tok.line;
        match self.find_body_open(i + 1, hi) {
            Some(open) => {
                let close = self.match_delim(open, hi, '{', '}');
                self.file.fns.push(FnDef {
                    name,
                    line,
                    body: (open + 1, close),
                    in_test,
                });
                // Walk the body too: nested fns/items register with the
                // enclosing context.
                self.items(open + 1, close, in_test);
                close + 1
            }
            None => {
                // Bodyless declaration: record and move past the `;`.
                self.file.fns.push(FnDef {
                    name,
                    line,
                    body: (0, 0),
                    in_test,
                });
                let mut j = i + 1;
                while j < hi && !self.toks[j].is_punct(';') {
                    j += 1;
                }
                j + 1
            }
        }
    }

    /// `mod name { … }` / `trait Name { … }`: recurse with updated test
    /// context; `mod name;` just advances.
    fn block_scope(&mut self, i: usize, hi: usize, in_test: bool) -> usize {
        let Some(open) = self.find_body_open(i + 1, hi) else {
            let mut j = i + 1;
            while j < hi && !self.toks[j].is_punct(';') {
                j += 1;
            }
            return j + 1;
        };
        let close = self.match_delim(open, hi, '{', '}');
        self.items(open + 1, close, in_test);
        close + 1
    }

    /// Skips `macro_rules! name { … }` without looking inside.
    fn skip_to_block_end(&mut self, i: usize, hi: usize) -> usize {
        let Some(open) = self.find_body_open(i + 1, hi) else {
            return (i + 1).min(hi);
        };
        self.match_delim(open, hi, '{', '}') + 1
    }
}

/// `#[test]`, `#[cfg(test)]`, `#[cfg(any(test, …))]` — but not
/// `#[cfg(not(test))]`.
fn is_test_attr(content: &str) -> bool {
    let has_test = content
        .split_whitespace()
        .any(|w| w == "test" || w == "bench");
    has_test && !content.contains("not") && {
        let first = content.split_whitespace().next().unwrap_or("");
        first == "cfg" || first == "test" || first == "bench" || first == "cfg_attr"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> SourceFile {
        parse_source(PathBuf::from("test.rs"), src)
    }

    #[test]
    fn struct_fields_with_docs() {
        let f = parse(
            "/// A thing.\npub struct S {\n    /// Committed state: x.\n    x: u64,\n    \
             pub y: Vec<(u8, u16)>,\n}",
        );
        assert_eq!(f.structs.len(), 1);
        let s = &f.structs[0];
        assert_eq!(s.name, "S");
        assert_eq!(s.fields.len(), 2);
        assert!(s.fields[0].doc.contains("Committed state"));
        assert_eq!(s.fields[1].name, "y");
    }

    #[test]
    fn impl_blocks_yield_their_methods() {
        let f = parse(
            "impl<D: Direction> GuardCore<D> { fn commit(&mut self) {} }\n\
             #[cfg(test)]\nimpl fmt::Display for Clock { fn fmt(&self) {} }",
        );
        let fns: Vec<_> = f.fns.iter().map(|f| (f.name.as_str(), f.in_test)).collect();
        assert_eq!(fns, [("commit", false), ("fmt", true)]);
    }

    #[test]
    fn cfg_test_marks_nested_items() {
        let f = parse(
            "fn prod() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { prod(); }\n}",
        );
        assert!(!f.fns[0].in_test);
        assert!(f.fns[1].in_test);
    }

    #[test]
    fn cfg_not_test_is_not_test() {
        let f = parse("#[cfg(not(test))]\nfn prod() {}");
        assert!(!f.fns[0].in_test);
    }

    #[test]
    fn enum_variants() {
        let f = parse("#![allow(dead_code)]\nenum E {\n    A,\n    B { x: u8 },\n    C(u16),\n}");
        let names: Vec<_> = f.enums[0].variants.iter().map(|v| v.0.as_str()).collect();
        assert_eq!(names, ["A", "B", "C"]);
    }

    #[test]
    fn bodyless_trait_fns_and_generics() {
        let f = parse("trait T { fn a(&self); fn b(&self) -> Vec<u8> { Vec::new() } }");
        assert_eq!(f.fns.len(), 2);
        assert_eq!(f.fns[0].body, (0, 0));
        assert!(f.fns[1].body.1 > f.fns[1].body.0);
    }
}
