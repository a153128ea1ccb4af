//! A lightweight, *total* item/expression parser on top of the lexer.
//!
//! The call-graph passes need more structure than a flat token stream:
//! which function a token belongs to, what that function calls, and where
//! closure boundaries lie. This module parses the token stream of one file
//! into exactly that — and nothing more. It is **not** a Rust parser:
//!
//! - It is total. Any token stream — including the output of the lexer on
//!   arbitrary bytes — produces an [`Ast`] without panicking. Constructs it
//!   does not understand are skipped as opaque token runs; a truncated or
//!   unbalanced file degrades to fewer recognized functions, never to an
//!   error.
//! - Spans are token-index ranges into the file's token stream (and via
//!   the tokens, byte ranges into the text), so every recognized node can
//!   be mapped back to `file:line:col` and re-sliced from the source. The
//!   `substrate::qc` properties in `tests/prop.rs` pin totality and span
//!   well-formedness.
//!
//! Recognized structure: `fn` items (free and inside `impl`/`mod` blocks,
//! with the enclosing impl's type name), call expressions (`path::to::f(`),
//! method calls (`.m(`, turbofish tolerated), macro invocations (`name!`),
//! and closures (`|args| body`, with their parameter names and body span).
//! Everything else — types, generics, expressions between the interesting
//! nodes — is deliberately opaque.

use crate::engine::SourceFile;
use crate::lexer::TokKind;

/// Marker comment declaring the next `fn` a perf-critical root for
/// `hot-path-alloc` reachability.
pub const HOT_ROOT_MARKER: &str = "tft-lint: hot-root";
/// Marker comment declaring the next `fn` an untrusted-input entry point
/// for `unchecked-arith-reachable` reachability.
pub const WIRE_ENTRY_MARKER: &str = "tft-lint: wire-entry";

/// One call site inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSite {
    /// Path segments as written (`["pool", "par_map"]`, `["f"]`). For
    /// method calls this is the single method name.
    pub path: Vec<String>,
    /// True for `.name(…)` method-call syntax.
    pub method: bool,
    /// Token index of the name token (the last path segment).
    pub name_tok: usize,
    /// Token-index range of the argument list `( … )`, open paren
    /// inclusive, close paren inclusive-end (exclusive bound).
    pub args: (usize, usize),
    /// 1-based position of the name token.
    pub line: u32,
    /// 1-based column of the name token.
    pub col: u32,
}

/// One macro invocation (`name!(…)`, `name![…]`, `name!{…}`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MacroUse {
    /// Macro name (without the `!`).
    pub name: String,
    /// Token index of the name.
    pub name_tok: usize,
    /// 1-based position.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

/// One closure literal inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Closure {
    /// Parameter names (identifiers only; pattern internals are flattened).
    pub params: Vec<String>,
    /// Token-index range of the closure body (block or expression),
    /// start inclusive, end exclusive.
    pub body: (usize, usize),
    /// 1-based position of the opening `|`.
    pub line: u32,
    /// 1-based column of the opening `|`.
    pub col: u32,
}

/// One recognized `fn` item.
#[derive(Debug, Clone)]
pub struct FnNode {
    /// The function's name.
    pub name: String,
    /// Enclosing `impl` type name, if any (`impl Foo { fn m … }` and
    /// `impl Trait for Foo { … }` both record `Foo`).
    pub impl_ty: Option<String>,
    /// Token-index range of the whole item (from `fn` through the closing
    /// brace or terminating `;`), end exclusive.
    pub span: (usize, usize),
    /// Token-index range of the body block `{ … }`, if the fn has one.
    pub body: Option<(usize, usize)>,
    /// Call sites in the body, in token order.
    pub calls: Vec<CallSite>,
    /// Macro invocations in the body, in token order.
    pub macros: Vec<MacroUse>,
    /// Closures in the body, in token order (nested closures appear as
    /// separate entries; their spans nest).
    pub closures: Vec<Closure>,
    /// Inside a `#[cfg(test)] mod` block.
    pub in_test_mod: bool,
    /// Annotated `// tft-lint: hot-root`.
    pub hot_root: bool,
    /// Annotated `// tft-lint: wire-entry`.
    pub wire_entry: bool,
    /// 1-based position of the `fn` keyword.
    pub line: u32,
    /// 1-based column of the `fn` keyword.
    pub col: u32,
}

/// The parse result for one file: the recognized functions, in source
/// order. Anything between them is opaque by construction.
#[derive(Debug, Clone, Default)]
pub struct Ast {
    /// Recognized `fn` items (free functions and impl methods, including
    /// nested fns — the list is flat, spans tell the nesting).
    pub fns: Vec<FnNode>,
}

/// Keywords that look like call heads but are control flow.
const NON_CALL_KEYWORDS: [&str; 10] = [
    "if", "while", "for", "match", "return", "loop", "else", "in", "move", "break",
];

/// Tokens that may directly precede a binary (value-context) `|`; anything
/// else starting with `|` opens a closure. A bitwise/logical `or` can only
/// follow a value: an identifier, a literal, or a closing bracket. Also
/// used by `unchecked-arith-reachable` to separate binary `+`/`*` from
/// their prefix readings.
pub(crate) fn value_ending(kind: TokKind, text: &str) -> bool {
    match kind {
        TokKind::Ident => !NON_CALL_KEYWORDS.contains(&text) && text != "let" && text != "as",
        TokKind::Int
        | TokKind::Float
        | TokKind::Str
        | TokKind::RawStr
        | TokKind::ByteStr
        | TokKind::Char
        | TokKind::Byte => true,
        TokKind::Punct => matches!(text, ")" | "]" | "?"),
        _ => false,
    }
}

/// Parse one file's token stream. Total on any input.
pub fn parse(file: &SourceFile) -> Ast {
    let code: Vec<usize> = file
        .tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
        .map(|(i, _)| i)
        .collect();
    let test_ranges = file.test_mod_ranges();
    let (hot_marks, wire_marks) = annotation_marks(file);
    let mut p = Parser {
        file,
        code: &code,
        test_ranges: &test_ranges,
        hot_marks: &hot_marks,
        wire_marks: &wire_marks,
        out: Ast::default(),
    };
    p.parse_items(0, code.len(), None);
    p.out
}

/// Byte offsets of `hot-root` / `wire-entry` marker comments. Each marker
/// attaches to the next `fn` keyword that follows it in the token stream.
fn annotation_marks(file: &SourceFile) -> (Vec<usize>, Vec<usize>) {
    let mut hot = Vec::new();
    let mut wire = Vec::new();
    for t in &file.tokens {
        if matches!(t.kind, TokKind::LineComment | TokKind::BlockComment) {
            let text = t.text(&file.text);
            if text.contains(HOT_ROOT_MARKER) {
                hot.push(t.start);
            }
            if text.contains(WIRE_ENTRY_MARKER) {
                wire.push(t.start);
            }
        }
    }
    (hot, wire)
}

struct Parser<'a> {
    file: &'a SourceFile,
    /// Indices of code (non-comment) tokens.
    code: &'a [usize],
    test_ranges: &'a [(usize, usize)],
    hot_marks: &'a [usize],
    wire_marks: &'a [usize],
    out: Ast,
}

impl<'a> Parser<'a> {
    /// Text of code token `w` (position in `self.code`).
    fn text(&self, w: usize) -> &str {
        self.code
            .get(w)
            .map(|&i| self.file.tok_text(i))
            .unwrap_or("")
    }

    /// Kind of code token `w`.
    fn kind(&self, w: usize) -> Option<TokKind> {
        self.code.get(w).map(|&i| self.file.tokens[i].kind)
    }

    /// Walk `[from, to)` (code-token positions) recognizing items; `impl_ty`
    /// is the enclosing impl's type name.
    fn parse_items(&mut self, from: usize, to: usize, impl_ty: Option<&str>) {
        let mut w = from;
        while w < to {
            match self.text(w) {
                "fn" if self.kind(w + 1) == Some(TokKind::Ident) => {
                    w = self.parse_fn(w, to, impl_ty);
                }
                "impl" => {
                    w = self.parse_impl(w, to);
                }
                "mod" | "trait" => {
                    // Recurse into the block body (trait default methods
                    // and mod items are regular fns for our purposes).
                    match self.find_block(w + 1, to) {
                        Some((open_w, close_w)) => {
                            self.parse_items(open_w + 1, close_w, impl_ty);
                            w = close_w + 1;
                        }
                        None => w += 1,
                    }
                }
                _ => w += 1,
            }
        }
    }

    /// Find the next top-level `{` at or after `w` (before `to`), skipping
    /// nothing — returns the positions of the `{` and its matching `}`.
    /// Gives up at a `;` (item ended without a block) or when unbalanced.
    fn find_block(&self, mut w: usize, to: usize) -> Option<(usize, usize)> {
        while w < to {
            match self.text(w) {
                "{" => {
                    let close = self.matching_close(w, to)?;
                    return Some((w, close));
                }
                ";" => return None,
                _ => w += 1,
            }
        }
        None
    }

    /// Position of the `}` matching the `{` at code position `open`
    /// (bounded by `to`); `None` when unbalanced.
    fn matching_close(&self, open: usize, to: usize) -> Option<usize> {
        let mut depth = 0i64;
        let mut w = open;
        while w < to {
            match self.text(w) {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        return Some(w);
                    }
                }
                _ => {}
            }
            w += 1;
        }
        None
    }

    /// Parse a `fn` item at code position `w`; returns the position one
    /// past the item.
    fn parse_fn(&mut self, w: usize, to: usize, impl_ty: Option<&str>) -> usize {
        let fn_idx = self.code[w];
        let fn_tok = self.file.tokens[fn_idx];
        let name = self.text(w + 1).to_string();
        let body = self.find_block(w + 2, to);
        let span_end = match body {
            Some((_, close_w)) => close_w + 1,
            None => {
                // Declaration (`trait` method without default, extern):
                // runs to the `;` or gives up one token in.
                let mut v = w + 2;
                while v < to && self.text(v) != ";" && self.text(v) != "{" {
                    v += 1;
                }
                v.min(to) + 1
            }
        };
        let fn_start_byte = fn_tok.start;
        let hot_root = self.is_marked(self.hot_marks, fn_start_byte);
        let wire_entry = self.is_marked(self.wire_marks, fn_start_byte);
        let mut node = FnNode {
            name,
            impl_ty: impl_ty.map(str::to_string),
            span: (
                fn_idx,
                self.code
                    .get(span_end.saturating_sub(1))
                    .map(|&i| i + 1)
                    .unwrap_or(self.file.tokens.len()),
            ),
            body: body.map(|(o, c)| (self.code[o], self.code[c] + 1)),
            calls: Vec::new(),
            macros: Vec::new(),
            closures: Vec::new(),
            in_test_mod: self
                .test_ranges
                .iter()
                .any(|&(s, e)| fn_idx >= s && fn_idx < e),
            hot_root,
            wire_entry,
            line: fn_tok.line,
            col: fn_tok.col,
        };
        if let Some((open_w, close_w)) = body {
            self.scan_body(open_w + 1, close_w, &mut node);
            // Nested fns (and fns inside closures) are items too.
            self.parse_items(open_w + 1, close_w, impl_ty);
        }
        self.out.fns.push(node);
        span_end
    }

    /// Does a marker comment attach to the item starting at `fn_start_byte`?
    /// A marker attaches to the next `fn` keyword after it; i.e. the marker
    /// lies before the fn and no other `fn` keyword sits between them.
    fn is_marked(&self, marks: &[usize], fn_start_byte: usize) -> bool {
        marks.iter().any(|&m| {
            m < fn_start_byte
                && !self.code.iter().any(|&i| {
                    let t = &self.file.tokens[i];
                    t.start > m && t.start < fn_start_byte && t.text(&self.file.text) == "fn"
                })
        })
    }

    /// Parse an `impl` block at `w`; returns one past it.
    fn parse_impl(&mut self, w: usize, to: usize) -> usize {
        let Some((open_w, close_w)) = self.find_block(w + 1, to) else {
            return w + 1;
        };
        // Type name: the last path-segment identifier before the `{`,
        // preferring what follows `for` (`impl Trait for Type`). Generic
        // argument lists are skipped by taking idents not inside `<…>`.
        let mut ty: Option<String> = None;
        let mut after_for = false;
        let mut angle = 0i64;
        for v in (w + 1)..open_w {
            match self.text(v) {
                "<" => angle += 1,
                ">" => angle -= 1,
                "for" if angle == 0 => {
                    after_for = true;
                    ty = None;
                }
                "where" if angle == 0 => break,
                // Before `for`: keep the last ident (trait path). After
                // `for`: keep the first (the implementing type).
                t if angle == 0
                    && self.kind(v) == Some(TokKind::Ident)
                    && (ty.is_none() || !after_for) =>
                {
                    ty = Some(t.to_string());
                }
                _ => {}
            }
        }
        self.parse_items(open_w + 1, close_w, ty.as_deref());
        close_w + 1
    }

    /// Scan a fn body `[from, to)` for calls, method calls, macros, and
    /// closures. Nested blocks are flat-scanned (nesting does not matter
    /// for call-graph purposes); nested `fn` items are excluded — their
    /// bodies belong to the nested node, parsed separately.
    fn scan_body(&mut self, from: usize, to: usize, node: &mut FnNode) {
        // Pre-compute nested-fn body ranges to exclude.
        let mut excluded: Vec<(usize, usize)> = Vec::new();
        {
            let mut v = from;
            while v < to {
                if self.text(v) == "fn" && self.kind(v + 1) == Some(TokKind::Ident) {
                    if let Some((_, close_w)) = self.find_block(v + 2, to) {
                        excluded.push((v, close_w + 1));
                        v = close_w + 1;
                        continue;
                    }
                }
                v += 1;
            }
        }
        let skip = |v: usize| excluded.iter().any(|&(s, e)| v >= s && v < e);

        let mut w = from;
        while w < to {
            if skip(w) {
                w += 1;
                continue;
            }
            let text = self.text(w);
            let kind = self.kind(w);
            if kind == Some(TokKind::Ident) && !NON_CALL_KEYWORDS.contains(&text) {
                // Macro invocation?
                if self.text(w + 1) == "!" && matches!(self.text(w + 2), "(" | "[" | "{") {
                    let idx = self.code[w];
                    let t = self.file.tokens[idx];
                    node.macros.push(MacroUse {
                        name: text.to_string(),
                        name_tok: idx,
                        line: t.line,
                        col: t.col,
                    });
                    w += 2;
                    continue;
                }
                // Call with a leading path: walk back over `seg ::` pairs.
                if self.text(w + 1) == "(" {
                    let mut segs = vec![text.to_string()];
                    let mut v = w;
                    while v >= 2
                        && self.text(v - 1) == ":"
                        && self.text(v - 2) == ":"
                        && v >= 3
                        && self.kind(v - 3) == Some(TokKind::Ident)
                    {
                        segs.push(self.text(v - 3).to_string());
                        v -= 3;
                    }
                    segs.reverse();
                    // `.name(` is a method call, not a plain call.
                    let is_method = segs.len() == 1 && v >= 1 && self.text(v - 1) == ".";
                    let close = self
                        .matching_paren(w + 1, to)
                        .unwrap_or(to.saturating_sub(1));
                    let idx = self.code[w];
                    let t = self.file.tokens[idx];
                    node.calls.push(CallSite {
                        path: segs,
                        method: is_method,
                        name_tok: idx,
                        args: (
                            self.code[w + 1],
                            self.code
                                .get(close)
                                .map(|&i| i + 1)
                                .unwrap_or(self.file.tokens.len()),
                        ),
                        line: t.line,
                        col: t.col,
                    });
                    w += 2; // continue inside the args (nested calls count)
                    continue;
                }
                // Method call with turbofish: `.name::<T>(…)`.
                if w >= 1
                    && self.text(w - 1) == "."
                    && self.text(w + 1) == ":"
                    && self.text(w + 2) == ":"
                    && self.text(w + 3) == "<"
                {
                    if let Some(after_angle) = self.matching_angle(w + 3, to) {
                        if self.text(after_angle) == "(" {
                            let close = self
                                .matching_paren(after_angle, to)
                                .unwrap_or(to.saturating_sub(1));
                            let idx = self.code[w];
                            let t = self.file.tokens[idx];
                            node.calls.push(CallSite {
                                path: vec![text.to_string()],
                                method: true,
                                name_tok: idx,
                                args: (
                                    self.code[after_angle],
                                    self.code
                                        .get(close)
                                        .map(|&i| i + 1)
                                        .unwrap_or(self.file.tokens.len()),
                                ),
                                line: t.line,
                                col: t.col,
                            });
                            w = after_angle + 1;
                            continue;
                        }
                    }
                }
                w += 1;
                continue;
            }
            if text == "|" {
                // Closure iff the previous code token cannot end a value.
                let prev_is_value = w
                    .checked_sub(1)
                    .filter(|&p| p >= from)
                    .map(|p| {
                        self.kind(p)
                            .map(|k| value_ending(k, self.text(p)))
                            .unwrap_or(false)
                    })
                    .unwrap_or(false);
                if !prev_is_value {
                    w = self.parse_closure(w, to, node);
                    continue;
                }
                // A binary `|` directly followed by another is a logical
                // `||`: step over both, or the second would open a closure
                // whose "parameter list" swallows the calls after it.
                if self.text(w + 1) == "|" {
                    w += 2;
                    continue;
                }
            }
            w += 1;
        }
    }

    /// Position one past the `>` matching `<` at `open` (for turbofish).
    fn matching_angle(&self, open: usize, to: usize) -> Option<usize> {
        let mut depth = 0i64;
        let mut w = open;
        while w < to {
            match self.text(w) {
                "<" => depth += 1,
                ">" => {
                    depth -= 1;
                    if depth == 0 {
                        return Some(w + 1);
                    }
                }
                "(" | "{" | ";" => return None, // not a turbofish after all
                _ => {}
            }
            w += 1;
        }
        None
    }

    /// Position of the `)` matching `(` at code position `open`.
    fn matching_paren(&self, open: usize, to: usize) -> Option<usize> {
        let mut depth = 0i64;
        let mut w = open;
        while w < to {
            match self.text(w) {
                "(" => depth += 1,
                ")" => {
                    depth -= 1;
                    if depth == 0 {
                        return Some(w);
                    }
                }
                _ => {}
            }
            w += 1;
        }
        None
    }

    /// Parse a closure starting at the `|` at code position `w`. Records
    /// the closure and returns the position one past its parameter list
    /// (the body is scanned by the enclosing loop as ordinary tokens; the
    /// recorded span covers it for containment queries).
    fn parse_closure(&mut self, w: usize, to: usize, node: &mut FnNode) -> usize {
        let open_idx = self.code[w];
        let open_tok = self.file.tokens[open_idx];
        // Parameters: pattern idents up to the closing `|`. Tuple/struct
        // patterns (`|(k, plan, mut w)|`) flatten — every bound ident
        // counts; a `:` at bracket depth 0 switches into type position
        // until the next top-level `,` so type names are not collected.
        let mut params = Vec::new();
        let mut v = w + 1;
        let mut depth = 0i64;
        let mut in_type = false;
        while v < to {
            let t = self.text(v);
            match t {
                "|" if depth == 0 => break,
                "(" | "[" | "<" | "{" => depth += 1,
                ")" | "]" | ">" | "}" => depth -= 1,
                ":" if depth == 0 => in_type = true,
                "," if depth == 0 => in_type = false,
                _ => {
                    if !in_type
                        && self.kind(v) == Some(TokKind::Ident)
                        && !matches!(t, "mut" | "ref" | "move" | "_")
                    {
                        params.push(t.to_string());
                    }
                }
            }
            v += 1;
        }
        if v >= to {
            // Unterminated parameter list: opaque, not a closure.
            return w + 1;
        }
        // Body: a block `{…}`, or an expression running to the first
        // `,`/`)`/`}`/`;` at depth 0.
        let body_start = v + 1;
        let body_end_w = if self.text(body_start) == "{" {
            self.matching_close(body_start, to)
                .map(|c| c + 1)
                .unwrap_or(to)
        } else {
            let mut u = body_start;
            let mut d = 0i64;
            while u < to {
                match self.text(u) {
                    "(" | "[" | "{" => d += 1,
                    ")" | "]" | "}" if d > 0 => d -= 1,
                    ")" | "]" | "}" | "," | ";" => break,
                    _ => {}
                }
                u += 1;
            }
            u
        };
        let body_span = (
            self.code
                .get(body_start)
                .copied()
                .unwrap_or(self.file.tokens.len()),
            self.code
                .get(body_end_w.saturating_sub(1))
                .map(|&i| i + 1)
                .unwrap_or(self.file.tokens.len()),
        );
        node.closures.push(Closure {
            params,
            body: body_span,
            line: open_tok.line,
            col: open_tok.col,
        });
        v + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ast(src: &str) -> Ast {
        parse(&SourceFile::rust("crates/x/src/a.rs", "x", src))
    }

    #[test]
    fn free_fn_with_calls() {
        let a = ast("fn top() { helper(1); other::deeper(2); obj.method(3); }");
        assert_eq!(a.fns.len(), 1);
        let f = &a.fns[0];
        assert_eq!(f.name, "top");
        assert_eq!(f.impl_ty, None);
        let paths: Vec<Vec<String>> = f.calls.iter().map(|c| c.path.clone()).collect();
        assert_eq!(
            paths,
            vec![
                vec!["helper".to_string()],
                vec!["other".to_string(), "deeper".to_string()],
                vec!["method".to_string()],
            ]
        );
        assert!(f.calls[2].method);
        assert!(!f.calls[0].method);
    }

    #[test]
    fn impl_methods_record_the_type() {
        let a = ast("impl Widget { fn new() -> Widget { Widget } fn go(&self) { self.new2(); } }");
        assert_eq!(a.fns.len(), 2);
        assert_eq!(a.fns[0].impl_ty.as_deref(), Some("Widget"));
        assert_eq!(a.fns[1].name, "go");
    }

    #[test]
    fn trait_impl_records_the_self_type() {
        let a = ast("impl Display for Badge { fn fmt(&self) {} }");
        assert_eq!(a.fns[0].impl_ty.as_deref(), Some("Badge"));
    }

    #[test]
    fn macros_are_recorded() {
        let a = ast(r#"fn f() { let s = format!("x{}", 1); vec![1, 2]; }"#);
        let names: Vec<&str> = a.fns[0].macros.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, vec!["format", "vec"]);
    }

    #[test]
    fn closures_capture_params_and_span() {
        let a = ast("fn f() { run(|x, y| x + y); go(move |q| { q.work() }); }");
        let f = &a.fns[0];
        assert_eq!(f.closures.len(), 2);
        assert_eq!(f.closures[0].params, vec!["x", "y"]);
        assert_eq!(f.closures[1].params, vec!["q"]);
        // The method call inside the second closure's body is inside its span.
        let c = &f.closures[1];
        let work = f
            .calls
            .iter()
            .find(|cs| cs.path == ["work"])
            .expect("work recorded");
        assert!(work.name_tok >= c.body.0 && work.name_tok < c.body.1);
    }

    #[test]
    fn bitwise_or_is_not_a_closure() {
        let a = ast("fn f(a: u8, b: u8) -> u8 { a | b }");
        assert!(a.fns[0].closures.is_empty());
    }

    #[test]
    fn logical_or_after_a_call_is_not_a_closure() {
        // Read as a closure opener, the second `|` of `||` would take
        // everything up to the `|x|` below as its parameter list.
        let a = ast("fn f() { if a.ok() || b > c { skipped(); } run(|x| x.go()); }");
        let f = &a.fns[0];
        let names: Vec<&str> = f.calls.iter().map(|c| c.path[0].as_str()).collect();
        assert_eq!(names, vec!["ok", "skipped", "run", "go"]);
        assert_eq!(f.closures.len(), 1);
        assert_eq!(f.closures[0].params, vec!["x"]);
    }

    #[test]
    fn hot_root_annotation_attaches_to_next_fn() {
        let a = ast(
            "// tft-lint: hot-root\nfn probe_loop() {}\nfn bystander() {}\n// tft-lint: wire-entry\nfn decode() {}",
        );
        assert!(a.fns[0].hot_root);
        assert!(!a.fns[0].wire_entry);
        assert!(!a.fns[1].hot_root);
        assert!(a.fns[2].wire_entry);
    }

    #[test]
    fn test_mod_fns_are_marked() {
        let a = ast("fn real() {}\n#[cfg(test)]\nmod tests { fn t() {} }");
        assert!(!a.fns[0].in_test_mod);
        let t = a.fns.iter().find(|f| f.name == "t").expect("parsed");
        assert!(t.in_test_mod);
    }

    #[test]
    fn degrades_on_garbage_without_panicking() {
        for src in [
            "fn",
            "fn {",
            "fn f(",
            "impl {}{}{}",
            "fn f() { ( [ { |",
            "|||||",
            "fn f() { a.b::<(); }",
            "}}}}}",
        ] {
            let _ = ast(src);
        }
    }

    #[test]
    fn turbofish_method_call_is_recorded() {
        let a = ast("fn f(v: Vec<u8>) { v.iter().collect::<Vec<_>>(); }");
        assert!(a.fns[0]
            .calls
            .iter()
            .any(|c| c.method && c.path == ["collect"]));
    }

    #[test]
    fn nested_fns_get_their_own_nodes() {
        let a = ast("fn outer() { fn inner() { leaf(); } inner(); }");
        assert_eq!(a.fns.len(), 2);
        let outer = a.fns.iter().find(|f| f.name == "outer").expect("outer");
        let inner = a.fns.iter().find(|f| f.name == "inner").expect("inner");
        // leaf() belongs to inner, not outer; inner() belongs to outer.
        assert!(inner.calls.iter().any(|c| c.path == ["leaf"]));
        assert!(!outer.calls.iter().any(|c| c.path == ["leaf"]));
        assert!(outer.calls.iter().any(|c| c.path == ["inner"]));
    }
}
