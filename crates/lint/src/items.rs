//! A per-file item model extracted from the token stream: functions
//! (with visibility, parameters, return type and body call sites),
//! enums (with variants), `use` declarations and string literals.
//!
//! This is deliberately *not* a full parser — it tracks exactly the
//! structure the semantic rules need:
//!
//! * **unit-safety** reads `pub fn` signatures (parameter names/types,
//!   return types);
//! * **determinism-taint** and **blocking-in-reader** walk a call graph
//!   built from each body's [`Callee`] list, linked across files by
//!   [`crate::taint::Workspace`];
//! * **exhaustive-proto-errors** reads enum variants and string
//!   literals.
//!
//! Items at or below the file's first `#[cfg(test)]` are marked
//! `test_only` (the workspace convention puts the test module at the
//! end of the file); workspace rules skip them.

use std::collections::BTreeSet;

use crate::lexer::{Token, TokenKind};

/// Item visibility, as far as the lint cares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Vis {
    /// Plain `pub` — part of the crate's external API.
    Public,
    /// `pub(crate)`, `pub(super)`, `pub(in …)` — internal.
    Restricted,
    /// No visibility keyword.
    Private,
}

/// One function parameter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Param {
    /// The binding name (pattern head; `_` for wildcards).
    pub name: String,
    /// The type, as its significant tokens joined by spaces
    /// (`"f64"`, `"& mut Vec < f64 >"`).
    pub ty: String,
    /// 1-based line of the parameter name.
    pub line: usize,
}

/// A call site inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Callee {
    /// Path segments as written: `["monotonic_ns"]`,
    /// `["clock", "monotonic_ns"]`, `["ErrorKind", "BadRequest"]`.
    pub path: Vec<String>,
    /// For method calls (`recv.name(…)`), the receiver chain
    /// (`["self", "cache"]` for `self.cache.lock()`); empty segments
    /// mark non-ident receivers like a call result.
    pub recv: Vec<String>,
    /// 1-based line of the called name.
    pub line: usize,
    /// Significant-token position (orders call sites within a body).
    pub seq: usize,
}

impl Callee {
    /// Last path segment — the called name.
    pub fn name(&self) -> &str {
        self.path.last().map(String::as_str).unwrap_or("")
    }

    /// Is this a method call (`x.f()`)?
    pub fn is_method(&self) -> bool {
        !self.recv.is_empty()
    }
}

/// A function item (free fn or impl method).
#[derive(Debug, Clone)]
pub struct FnItem {
    /// The bare name.
    pub name: String,
    /// `Type::name` for impl methods, `name` for free fns.
    pub qual_name: String,
    /// Visibility.
    pub vis: Vis,
    /// Parameters (excluding any `self` receiver).
    pub params: Vec<Param>,
    /// Does the signature take a `self` receiver?
    pub has_self: bool,
    /// Return type tokens joined by spaces; `None` when omitted.
    pub ret: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Call sites in the body, in token order.
    pub callees: Vec<Callee>,
    /// Every identifier mentioned in the body (gate detection).
    pub mentions: BTreeSet<String>,
    /// String literal contents in the body, with 1-based lines.
    pub strings: Vec<(String, usize)>,
    /// Is the item preceded by a doc comment (above any attributes)?
    pub doc: bool,
    /// Does the item sit at or below the file's first `#[cfg(test)]`?
    pub test_only: bool,
}

/// A non-fn item declaration (struct/enum/trait/…): enough for the
/// documentation-oriented rules.
#[derive(Debug, Clone)]
pub struct ItemDecl {
    /// The introducing keyword (`struct`, `enum`, `trait`, …).
    pub kind: String,
    /// The item name.
    pub name: String,
    /// Visibility.
    pub vis: Vis,
    /// 1-based line of the keyword.
    pub line: usize,
    /// Is the item preceded by a doc comment (above any attributes)?
    pub doc: bool,
    /// Below the first `#[cfg(test)]`?
    pub test_only: bool,
}

/// An enum with its variants (for exhaustiveness rules).
#[derive(Debug, Clone)]
pub struct EnumItem {
    /// The enum name.
    pub name: String,
    /// Visibility.
    pub vis: Vis,
    /// Variant names with their 1-based lines.
    pub variants: Vec<(String, usize)>,
    /// 1-based line of the `enum` keyword.
    pub line: usize,
}

/// One `use` mapping: `alias` (the name in scope) → full `path`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UseDecl {
    /// Full path segments (`["skyferry_trace", "clock", "monotonic_ns"]`).
    pub path: Vec<String>,
    /// The in-scope name (the last segment, or the alias after `as`;
    /// `*` for glob imports).
    pub alias: String,
}

/// Everything the semantic rules know about one file.
#[derive(Debug, Clone, Default)]
pub struct FileModel {
    /// Repo-relative path (`/`-separated).
    pub path: String,
    /// Functions, in source order.
    pub fns: Vec<FnItem>,
    /// Non-fn item declarations, in source order.
    pub decls: Vec<ItemDecl>,
    /// Enums with variants.
    pub enums: Vec<EnumItem>,
    /// `use` declarations.
    pub uses: Vec<UseDecl>,
    /// Every string literal in the file (content, 1-based line).
    pub strings: Vec<(String, usize)>,
    /// 1-based line of the first `#[cfg(test)]`, if any.
    pub cfg_test_line: Option<usize>,
}

/// Keywords that introduce a nameable item.
const ITEM_KEYWORDS: [&str; 9] = [
    "fn", "struct", "enum", "trait", "type", "const", "static", "mod", "union",
];

/// A view over the significant (code) tokens with index helpers.
struct Sig<'a> {
    src: &'a str,
    toks: Vec<Token>,
}

impl<'a> Sig<'a> {
    fn text(&self, i: usize) -> &'a str {
        self.toks
            .get(i)
            .map(|t| t.text(self.src))
            .unwrap_or_default()
    }

    fn line(&self, i: usize) -> usize {
        self.toks.get(i).map(|t| t.line).unwrap_or(1)
    }

    fn kind(&self, i: usize) -> Option<TokenKind> {
        self.toks.get(i).map(|t| t.kind)
    }

    /// Is `toks[i]`+`toks[i+1]` the two-char operator `a``b`
    /// (adjacent in the source)?
    fn pair(&self, i: usize, a: &str, b: &str) -> bool {
        i + 1 < self.toks.len()
            && self.text(i) == a
            && self.text(i + 1) == b
            && self.toks[i].adjacent(&self.toks[i + 1])
    }

    /// Is `toks[i]` the first `:` of a `::` path separator?
    fn is_path_sep(&self, i: usize) -> bool {
        self.pair(i, ":", ":")
    }

    /// Skip a balanced group starting at the opener `toks[i]`; returns
    /// the index one past the matching closer.
    fn skip_group(&self, i: usize, open: &str, close: &str) -> usize {
        debug_assert_eq!(self.text(i), open);
        let mut depth = 0usize;
        let mut j = i;
        while j < self.toks.len() {
            let t = self.text(j);
            if t == open {
                depth += 1;
            } else if t == close {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            j += 1;
        }
        self.toks.len()
    }

    /// Skip a generic parameter list starting at `<`; the `>` of a
    /// preceding `->` arrow does not count as a closer.
    fn skip_generics(&self, i: usize) -> usize {
        debug_assert_eq!(self.text(i), "<");
        let mut depth = 0isize;
        let mut j = i;
        while j < self.toks.len() {
            let t = self.text(j);
            if t == "<" {
                depth += 1;
            } else if t == ">" && !(j > 0 && self.pair(j - 1, "-", ">")) {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            j += 1;
        }
        self.toks.len()
    }
}

/// Extract the item model from a lexed file.
pub fn extract(path: &str, src: &str, tokens: &[Token]) -> FileModel {
    let sig = Sig {
        src,
        toks: tokens.iter().filter(|t| t.is_code()).copied().collect(),
    };
    // Significant-token index → index in the full token stream (for
    // doc-comment adjacency checks, which must see comments).
    let full_index: Vec<usize> = tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| t.is_code())
        .map(|(i, _)| i)
        .collect();

    let mut model = FileModel {
        path: path.to_string(),
        ..FileModel::default()
    };

    for t in tokens {
        if let TokenKind::StrLit { .. } = t.kind {
            model.strings.push((string_content(t.text(src)), t.line));
        }
    }

    let cfg_test = find_cfg_test(&sig);
    model.cfg_test_line = cfg_test.map(|i| sig.line(i));

    // (brace depth at which the impl was seen, self-type name, and —
    // for trait bodies — the trait's own visibility, which its methods
    // inherit: a `pub trait`'s methods are part of the public API even
    // though the method syntax itself carries no `pub`)
    let mut impl_stack: Vec<(usize, String, Option<Vis>)> = Vec::new();
    let mut depth = 0usize;
    let mut i = 0usize;
    while i < sig.toks.len() {
        let text = sig.text(i);
        match text {
            "{" => depth += 1,
            "}" => {
                depth = depth.saturating_sub(1);
                while impl_stack.last().is_some_and(|&(d, _, _)| d >= depth) {
                    impl_stack.pop();
                }
            }
            "use" if sig.kind(i) == Some(TokenKind::Ident) && item_position(&sig, i) => {
                let (uses, next) = parse_use(&sig, i + 1);
                model.uses.extend(uses);
                i = next;
                continue;
            }
            "impl" if sig.kind(i) == Some(TokenKind::Ident) && item_position(&sig, i) => {
                if let Some((name, body_open)) = parse_impl_head(&sig, i) {
                    impl_stack.push((depth, name, None));
                    i = body_open; // land on `{`; the loop tracks depth
                    continue;
                }
            }
            "fn" if sig.kind(i) == Some(TokenKind::Ident) => {
                let test_only = cfg_test.is_some_and(|c| i >= c);
                let doc = doc_above(src, tokens, full_index[i]);
                if let Some((mut item, next)) = parse_fn(
                    &sig,
                    i,
                    impl_stack.last().map(|(_, n, _)| n.as_str()),
                    doc,
                    test_only,
                ) {
                    // Trait methods carry no `pub` of their own: they
                    // inherit the trait's visibility.
                    if let Some(&(_, _, Some(tvis))) = impl_stack.last() {
                        if item.vis == Vis::Private {
                            item.vis = tvis;
                        }
                    }
                    if sig.text(next) == "{" {
                        let body_end = sig.skip_group(next, "{", "}");
                        collect_body(&sig, next + 1, body_end.saturating_sub(1), &mut item);
                    }
                    model.fns.push(item);
                    i = next; // the body `{` (or the `;`); loop continues
                    continue;
                }
            }
            "trait" if sig.kind(i) == Some(TokenKind::Ident) && item_position(&sig, i) => {
                let test_only = cfg_test.is_some_and(|c| i >= c);
                let doc = doc_above(src, tokens, full_index[i]);
                push_decl(&mut model, &sig, i, doc, test_only);
                // Trait bodies qualify their methods like impl blocks do
                // (`Clock::now_ns`). Bounds and where-clauses carry no
                // braces, so the next `{` opens the body (`;` would end
                // an associated-type-like form and means no body).
                if sig.kind(i + 1) == Some(TokenKind::Ident) {
                    let name = sig.text(i + 1).to_string();
                    let mut j = i + 2;
                    while j < sig.toks.len() && !matches!(sig.text(j), "{" | ";") {
                        j += 1;
                    }
                    if sig.text(j) == "{" {
                        impl_stack.push((depth, name, Some(vis_before(&sig, i))));
                        i = j; // land on `{`; the loop tracks depth
                        continue;
                    }
                }
            }
            "enum" if sig.kind(i) == Some(TokenKind::Ident) && item_position(&sig, i) => {
                if let Some(e) = parse_enum(&sig, i) {
                    model.enums.push(e);
                }
                let test_only = cfg_test.is_some_and(|c| i >= c);
                let doc = doc_above(src, tokens, full_index[i]);
                push_decl(&mut model, &sig, i, doc, test_only);
            }
            kw if ITEM_KEYWORDS.contains(&kw)
                && kw != "fn"
                && kw != "enum"
                && sig.kind(i) == Some(TokenKind::Ident)
                && item_position(&sig, i)
                // `pub const fn f()` — `const` here is a fn modifier.
                && !(kw == "const" && matches!(sig.text(i + 1), "fn" | "unsafe" | "extern")) =>
            {
                let test_only = cfg_test.is_some_and(|c| i >= c);
                let doc = doc_above(src, tokens, full_index[i]);
                push_decl(&mut model, &sig, i, doc, test_only);
            }
            _ => {}
        }
        i += 1;
    }

    model
}

/// Index (in significant tokens) of the first `#[cfg(test)]`.
fn find_cfg_test(sig: &Sig<'_>) -> Option<usize> {
    (0..sig.toks.len()).find(|&i| {
        sig.text(i) == "#"
            && sig.text(i + 1) == "["
            && sig.text(i + 2) == "cfg"
            && sig.text(i + 3) == "("
            && sig.text(i + 4) == "test"
            && sig.text(i + 5) == ")"
    })
}

/// Is the keyword at `i` in item position (not a type mention like
/// `impl Iterator` in return position, or an expression)? Heuristic:
/// the previous significant token must end a statement, close an
/// attribute, or introduce visibility/modifiers.
fn item_position(sig: &Sig<'_>, i: usize) -> bool {
    if i == 0 {
        return true;
    }
    matches!(
        sig.text(i - 1),
        "{" | "}" | ";" | "]" | ")" | "pub" | "unsafe" | "async" | "default"
    )
}

/// Visibility from the tokens immediately before `i`.
fn vis_before(sig: &Sig<'_>, i: usize) -> Vis {
    // Walk back over `unsafe`, `async`, `const`, `extern "C"` modifiers.
    let mut j = i;
    while j > 0 {
        match sig.text(j - 1) {
            "unsafe" | "async" | "const" | "extern" | "default" => j -= 1,
            s if s.starts_with('"') => j -= 1, // extern ABI string
            _ => break,
        }
    }
    if j == 0 {
        return Vis::Private;
    }
    if sig.text(j - 1) == ")" {
        // Possible `pub(crate)` / `pub(in path)`: walk to the matching
        // `(` and look for `pub` before it.
        let mut k = j - 1;
        let mut depth = 0usize;
        loop {
            let t = sig.text(k);
            if t == ")" {
                depth += 1;
            } else if t == "(" {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            if k == 0 {
                return Vis::Private;
            }
            k -= 1;
        }
        if k > 0 && sig.text(k - 1) == "pub" {
            return Vis::Restricted;
        }
        return Vis::Private;
    }
    if sig.text(j - 1) == "pub" {
        Vis::Public
    } else {
        Vis::Private
    }
}

/// Is a doc comment the first thing above the item at full-token index
/// `at`, looking past whitespace, attributes, visibility and modifiers?
fn doc_above(src: &str, tokens: &[Token], at: usize) -> bool {
    let mut i = at;
    while i > 0 {
        let t = &tokens[i - 1];
        match t.kind {
            TokenKind::Whitespace => i -= 1,
            TokenKind::LineComment { doc } | TokenKind::BlockComment { doc } => return doc,
            TokenKind::StrLit { .. } => i -= 1, // extern "C" ABI string
            TokenKind::Ident => match t.text(src) {
                "pub" | "unsafe" | "async" | "const" | "extern" | "default" | "crate" | "super"
                | "in" | "self" => i -= 1,
                _ => return false,
            },
            TokenKind::Punct => match t.text(src) {
                ")" => {
                    // `pub(crate)` / `pub(in path)` group.
                    let mut depth = 0usize;
                    while i > 0 {
                        let p = tokens[i - 1].text(src);
                        i -= 1;
                        if p == ")" {
                            depth += 1;
                        } else if p == "(" {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                    }
                }
                "]" => {
                    // An attribute `#[...]`: walk to its `[`, then past
                    // the introducing `#`.
                    let mut depth = 0usize;
                    while i > 0 {
                        let p = tokens[i - 1].text(src);
                        i -= 1;
                        if p == "]" {
                            depth += 1;
                        } else if p == "[" {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                    }
                    if i > 0 && tokens[i - 1].text(src) == "#" {
                        i -= 1;
                    }
                }
                _ => return false,
            },
            _ => return false,
        }
    }
    false
}

/// Strip a string literal's delimiters (prefix + quotes + hashes),
/// leaving the raw payload with escapes unprocessed.
fn string_content(text: &str) -> String {
    let chars: Vec<char> = text.chars().collect();
    let Some(open) = chars.iter().position(|&c| c == '"') else {
        return String::new();
    };
    let mut close = chars.len();
    while close > open + 1 && chars[close - 1] == '#' {
        close -= 1;
    }
    if close > open + 1 && chars[close - 1] == '"' {
        close -= 1;
    }
    chars[open + 1..close].iter().collect()
}

fn push_decl(model: &mut FileModel, sig: &Sig<'_>, i: usize, doc: bool, test_only: bool) {
    let name = sig.text(i + 1).to_string();
    if !name
        .chars()
        .next()
        .is_some_and(crate::lexer::is_ident_start)
    {
        return;
    }
    model.decls.push(ItemDecl {
        kind: sig.text(i).to_string(),
        name,
        vis: vis_before(sig, i),
        line: sig.line(i),
        doc,
        test_only,
    });
}

/// Parse a `use` item starting just past the keyword; returns the
/// expanded decls and the index one past the terminating `;`.
fn parse_use(sig: &Sig<'_>, mut i: usize) -> (Vec<UseDecl>, usize) {
    let mut out = Vec::new();
    let mut prefix: Vec<String> = Vec::new();
    parse_use_tree(sig, &mut i, &mut prefix, &mut out);
    while i < sig.toks.len() && sig.text(i) != ";" {
        i += 1;
    }
    (out, i + 1)
}

fn parse_use_tree(sig: &Sig<'_>, i: &mut usize, prefix: &mut Vec<String>, out: &mut Vec<UseDecl>) {
    let depth0 = prefix.len();
    loop {
        let t = sig.text(*i);
        match t {
            "" | ";" | "}" | "," => break,
            "{" => {
                *i += 1;
                loop {
                    parse_use_tree(sig, i, prefix, out);
                    if sig.text(*i) == "," {
                        *i += 1;
                        continue;
                    }
                    break;
                }
                if sig.text(*i) == "}" {
                    *i += 1;
                }
                break;
            }
            "*" => {
                out.push(UseDecl {
                    path: prefix.clone(),
                    alias: "*".to_string(),
                });
                *i += 1;
                break;
            }
            "as" => {
                let alias = sig.text(*i + 1).to_string();
                out.push(UseDecl {
                    path: prefix.clone(),
                    alias,
                });
                *i += 2;
                break;
            }
            ":" if sig.is_path_sep(*i) => *i += 2,
            _ => {
                prefix.push(t.to_string());
                *i += 1;
                // A leaf unless `::`, `as` or a group follows.
                if !sig.is_path_sep(*i) && sig.text(*i) != "as" && sig.text(*i) != "{" {
                    out.push(UseDecl {
                        path: prefix.clone(),
                        alias: prefix.last().cloned().unwrap_or_default(),
                    });
                    break;
                }
            }
        }
    }
    prefix.truncate(depth0);
}

/// Parse an `impl` head at `i`; returns (self-type name, index of `{`).
fn parse_impl_head(sig: &Sig<'_>, i: usize) -> Option<(String, usize)> {
    let mut j = i + 1;
    if sig.text(j) == "<" {
        j = sig.skip_generics(j);
    }
    let mut name: Option<String> = None;
    while j < sig.toks.len() {
        let t = sig.text(j);
        match t {
            "{" => return name.map(|n| (n, j)),
            ";" => return None,
            "for" => {
                // `impl Trait for Type` — the self type follows.
                name = None;
                j += 1;
            }
            "where" => {
                while j < sig.toks.len() && sig.text(j) != "{" {
                    j += 1;
                }
            }
            "<" => j = sig.skip_generics(j),
            "(" => j = sig.skip_group(j, "(", ")"),
            "[" => j = sig.skip_group(j, "[", "]"),
            _ => {
                if sig.kind(j) == Some(TokenKind::Ident) && !matches!(t, "dyn" | "mut" | "const") {
                    // Track the last path segment seen so far.
                    name = Some(t.to_string());
                }
                j += 1;
            }
        }
    }
    None
}

/// Parse a fn signature at the `fn` keyword; returns the item (body
/// fields empty) and the index of the body `{` / the trailing `;`.
fn parse_fn(
    sig: &Sig<'_>,
    i: usize,
    impl_type: Option<&str>,
    doc: bool,
    test_only: bool,
) -> Option<(FnItem, usize)> {
    let name = sig.text(i + 1).to_string();
    if !name
        .chars()
        .next()
        .is_some_and(crate::lexer::is_ident_start)
    {
        return None;
    }
    let mut j = i + 2;
    if sig.text(j) == "<" {
        j = sig.skip_generics(j);
    }
    if sig.text(j) != "(" {
        return None;
    }
    let params_end = sig.skip_group(j, "(", ")");
    let (params, has_self) = parse_params(sig, j + 1, params_end.saturating_sub(1));

    // Return type: `-> Type` up to `{`, `;` or `where`.
    let mut k = params_end;
    let mut ret: Option<String> = None;
    if sig.pair(k, "-", ">") {
        k += 2;
        let mut ty = Vec::new();
        while k < sig.toks.len() {
            let t = sig.text(k);
            if t == "{" || t == ";" || t == "where" {
                break;
            }
            ty.push(t.to_string());
            k += 1;
        }
        ret = Some(ty.join(" "));
    }
    while k < sig.toks.len() && sig.text(k) != "{" && sig.text(k) != ";" {
        k += 1;
    }

    let qual_name = match impl_type {
        Some(t) => format!("{t}::{name}"),
        None => name.clone(),
    };
    Some((
        FnItem {
            name,
            qual_name,
            vis: vis_before(sig, i),
            params,
            has_self,
            ret,
            line: sig.line(i),
            callees: Vec::new(),
            mentions: BTreeSet::new(),
            strings: Vec::new(),
            doc,
            test_only,
        },
        k,
    ))
}

/// Parse the parameter list between significant-token indices
/// `[start, end)` (the tokens inside the parens).
fn parse_params(sig: &Sig<'_>, start: usize, end: usize) -> (Vec<Param>, bool) {
    let mut params = Vec::new();
    let mut has_self = false;
    let mut i = start;
    while i < end {
        // One parameter: tokens up to the next top-level `,`.
        let p_start = i;
        let mut depth = 0isize;
        while i < end {
            let t = sig.text(i);
            match t {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                "<" => {
                    i = sig.skip_generics(i).min(end);
                    continue;
                }
                "," if depth == 0 => break,
                _ => {}
            }
            i += 1;
        }
        let p_end = i;
        i += 1; // past the comma

        // Find `name : Type`, skipping `mut`, `ref`, `&`, lifetimes.
        let mut n = p_start;
        while n < p_end {
            let t = sig.text(n);
            if t == "self" {
                has_self = true;
                break;
            }
            if matches!(t, "mut" | "ref" | "&") || sig.kind(n) == Some(TokenKind::Lifetime) {
                n += 1;
                continue;
            }
            break;
        }
        if n >= p_end || sig.text(n) == "self" {
            continue;
        }
        let name = sig.text(n).to_string();
        // The first single `:` after the name (not part of `::`).
        let mut colon = None;
        let mut c = n;
        while c < p_end {
            if sig.text(c) == ":" && !sig.is_path_sep(c) && !(c > n && sig.is_path_sep(c - 1)) {
                colon = Some(c);
                break;
            }
            c += 1;
        }
        let Some(colon) = colon else { continue };
        let ty: Vec<String> = (colon + 1..p_end)
            .map(|m| sig.text(m).to_string())
            .collect();
        params.push(Param {
            name,
            ty: ty.join(" "),
            line: sig.line(n),
        });
    }
    (params, has_self)
}

/// Parse an enum at the `enum` keyword.
fn parse_enum(sig: &Sig<'_>, i: usize) -> Option<EnumItem> {
    let name = sig.text(i + 1).to_string();
    if name.is_empty() {
        return None;
    }
    let mut j = i + 2;
    if sig.text(j) == "<" {
        j = sig.skip_generics(j);
    }
    while j < sig.toks.len() && sig.text(j) != "{" && sig.text(j) != ";" {
        j += 1;
    }
    if sig.text(j) != "{" {
        return None;
    }
    let end = sig.skip_group(j, "{", "}");
    let mut variants = Vec::new();
    let mut k = j + 1;
    let mut expecting = true; // at a variant-name position
    while k + 1 < end {
        let t = sig.text(k);
        match t {
            "#" if sig.text(k + 1) == "[" => {
                k = sig.skip_group(k + 1, "[", "]");
            }
            "(" => k = sig.skip_group(k, "(", ")"),
            "{" => k = sig.skip_group(k, "{", "}"),
            "," => {
                expecting = true;
                k += 1;
            }
            "=" => {
                // Discriminant: skip to the next comma.
                while k + 1 < end && sig.text(k) != "," {
                    k += 1;
                }
            }
            _ => {
                if expecting && sig.kind(k) == Some(TokenKind::Ident) {
                    variants.push((t.to_string(), sig.line(k)));
                    expecting = false;
                }
                k += 1;
            }
        }
    }
    Some(EnumItem {
        name,
        vis: vis_before(sig, i),
        variants,
        line: sig.line(i),
    })
}

/// Fill `callees`, `mentions` and `strings` from the body token range
/// `[start, end)` (inside the braces).
fn collect_body(sig: &Sig<'_>, start: usize, end: usize, f: &mut FnItem) {
    let mut i = start;
    while i < end {
        match sig.kind(i) {
            Some(TokenKind::Ident) => {
                let t = sig.text(i);
                f.mentions.insert(t.to_string());
                // A call site is an ident followed by `(`, possibly with
                // a `::<…>` turbofish in between. `name!(…)` is a macro,
                // deliberately not a call edge.
                let mut j = i + 1;
                if sig.is_path_sep(j) && sig.text(j + 2) == "<" {
                    j = sig.skip_generics(j + 2);
                }
                if sig.text(j) == "(" {
                    // Full path: walk `seg::`… backward from the name.
                    let mut path = vec![t.to_string()];
                    let mut k = i;
                    while k >= 3
                        && sig.is_path_sep(k - 2)
                        && sig.kind(k - 3) == Some(TokenKind::Ident)
                    {
                        path.insert(0, sig.text(k - 3).to_string());
                        k -= 3;
                    }
                    // Method receiver chain: `recv . name (`.
                    let mut recv = Vec::new();
                    if k >= 1 && sig.text(k - 1) == "." {
                        let mut m = k - 1;
                        while m >= 1 && sig.text(m) == "." {
                            let prev = m - 1;
                            match sig.kind(prev) {
                                Some(TokenKind::Ident) | Some(TokenKind::NumLit) => {
                                    recv.insert(0, sig.text(prev).to_string());
                                    if prev >= 1 && sig.text(prev - 1) == "." {
                                        m = prev - 1;
                                        continue;
                                    }
                                }
                                _ => {
                                    // A call result, index, paren group…
                                    recv.insert(0, String::new());
                                }
                            }
                            break;
                        }
                    }
                    f.callees.push(Callee {
                        path,
                        recv,
                        line: sig.line(i),
                        seq: i,
                    });
                }
            }
            Some(TokenKind::StrLit { .. }) => {
                f.strings.push((string_content(sig.text(i)), sig.line(i)));
            }
            _ => {}
        }
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn model(src: &str) -> FileModel {
        extract("test.rs", src, &lex(src))
    }

    #[test]
    fn extracts_free_fn_signature() {
        let m = model("/// docs\npub fn loss_db(d_m: f64, f_hz: f64) -> f64 { d_m + f_hz }\n");
        assert_eq!(m.fns.len(), 1);
        let f = &m.fns[0];
        assert_eq!(f.name, "loss_db");
        assert_eq!(f.qual_name, "loss_db");
        assert_eq!(f.vis, Vis::Public);
        assert!(f.doc);
        assert!(!f.has_self);
        assert_eq!(f.params.len(), 2);
        assert_eq!(f.params[0].name, "d_m");
        assert_eq!(f.params[0].ty, "f64");
        assert_eq!(f.ret.as_deref(), Some("f64"));
        assert_eq!(f.line, 2);
    }

    #[test]
    fn impl_methods_get_qualified_names() {
        let src = "struct Cache;\nimpl Cache {\n    pub fn get(&self, k: u64) -> bool { k > 0 }\n}\nfn free() {}\n";
        let m = model(src);
        let names: Vec<&str> = m.fns.iter().map(|f| f.qual_name.as_str()).collect();
        assert_eq!(names, vec!["Cache::get", "free"]);
        assert!(m.fns[0].has_self);
        assert_eq!(m.fns[0].params.len(), 1);
    }

    #[test]
    fn trait_impl_uses_self_type() {
        let src = "impl Display for Meters {\n    fn fmt(&self) -> bool { true }\n}\n";
        let m = model(src);
        assert_eq!(m.fns[0].qual_name, "Meters::fmt");
    }

    #[test]
    fn callees_and_receivers_collected() {
        let src = "fn f() {\n    let t = clock::monotonic_ns();\n    self.cache.lock();\n    helper(1);\n    span!(\"x\");\n}\n";
        let m = model(src);
        let f = &m.fns[0];
        let paths: Vec<Vec<String>> = f.callees.iter().map(|c| c.path.clone()).collect();
        assert!(paths.contains(&vec!["clock".to_string(), "monotonic_ns".to_string()]));
        assert!(paths.contains(&vec!["helper".to_string()]));
        // Macros are not call edges.
        assert!(!paths.iter().any(|p| p.last().is_some_and(|s| s == "span")));
        let lock = f.callees.iter().find(|c| c.name() == "lock").unwrap();
        assert_eq!(lock.recv, vec!["self".to_string(), "cache".to_string()]);
        assert!(f.mentions.contains("helper"));
    }

    #[test]
    fn use_decls_expand_groups_and_aliases() {
        let src = "use std::collections::{BTreeMap, BTreeSet};\nuse skyferry_trace::clock::monotonic_ns as mono;\nuse crate::rules::*;\n";
        let m = model(src);
        assert!(m.uses.contains(&UseDecl {
            path: vec!["std".into(), "collections".into(), "BTreeMap".into()],
            alias: "BTreeMap".into(),
        }));
        assert!(m.uses.contains(&UseDecl {
            path: vec!["std".into(), "collections".into(), "BTreeSet".into()],
            alias: "BTreeSet".into(),
        }));
        assert!(m.uses.contains(&UseDecl {
            path: vec![
                "skyferry_trace".into(),
                "clock".into(),
                "monotonic_ns".into()
            ],
            alias: "mono".into(),
        }));
        assert!(m.uses.contains(&UseDecl {
            path: vec!["crate".into(), "rules".into()],
            alias: "*".into(),
        }));
    }

    #[test]
    fn enum_variants_extracted() {
        let src = "pub enum ErrorKind {\n    #[allow(dead_code)]\n    BadRequest,\n    Overloaded(u32),\n    ShuttingDown { grace: bool },\n}\n";
        let m = model(src);
        assert_eq!(m.enums.len(), 1);
        let e = &m.enums[0];
        assert_eq!(e.name, "ErrorKind");
        assert_eq!(e.vis, Vis::Public);
        let names: Vec<&str> = e.variants.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["BadRequest", "Overloaded", "ShuttingDown"]);
    }

    #[test]
    fn cfg_test_marks_trailing_items() {
        let src = "pub fn real() {}\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n}\n";
        let m = model(src);
        assert!(!m.fns[0].test_only);
        assert!(m.fns[1].test_only);
        assert_eq!(m.cfg_test_line, Some(2));
    }

    #[test]
    fn doc_above_sees_past_attributes() {
        let src = "/// documented\n#[inline]\npub fn a() {}\n#[inline]\npub fn b() {}\n";
        let m = model(src);
        assert!(m.fns[0].doc);
        assert!(!m.fns[1].doc);
    }

    #[test]
    fn restricted_visibility_detected() {
        let m = model("pub(crate) fn f() {}\npub fn g() {}\nfn h() {}\n");
        assert_eq!(m.fns[0].vis, Vis::Restricted);
        assert_eq!(m.fns[1].vis, Vis::Public);
        assert_eq!(m.fns[2].vis, Vis::Private);
    }

    #[test]
    fn strings_collected_with_lines() {
        let m = model("fn f() -> &'static str {\n    \"bad-request\"\n}\n");
        assert!(m.strings.iter().any(|(s, l)| s == "bad-request" && *l == 2));
        assert!(m.fns[0]
            .strings
            .iter()
            .any(|(s, l)| s == "bad-request" && *l == 2));
    }

    #[test]
    fn impl_in_return_position_is_not_an_impl_block() {
        let src =
            "fn make() -> impl Iterator<Item = u32> {\n    [1u32].into_iter()\n}\nfn after() {}\n";
        let m = model(src);
        let names: Vec<&str> = m.fns.iter().map(|f| f.qual_name.as_str()).collect();
        assert_eq!(names, vec!["make", "after"]);
    }

    #[test]
    fn const_fn_is_a_fn_not_a_const() {
        let m = model("pub const fn zero() -> f64 { 0.0 }\npub const LIMIT: usize = 3;\n");
        assert_eq!(m.fns.len(), 1);
        assert_eq!(m.fns[0].name, "zero");
        assert!(m
            .decls
            .iter()
            .any(|d| d.kind == "const" && d.name == "LIMIT"));
        assert!(!m.decls.iter().any(|d| d.name == "fn"));
    }

    #[test]
    fn where_clause_and_generics_handled() {
        let src = "pub fn run<T: Clone>(xs: Vec<T>, scale_m: f64) -> f64\nwhere\n    T: Send,\n{\n    let _ = xs;\n    scale_m\n}\n";
        let m = model(src);
        let f = &m.fns[0];
        assert_eq!(f.params.len(), 2);
        assert_eq!(f.params[1].name, "scale_m");
        assert_eq!(f.params[1].ty, "f64");
        assert_eq!(f.ret.as_deref(), Some("f64"));
    }

    #[test]
    fn trait_method_without_body() {
        let src = "pub trait Clock {\n    fn now_ns(&self) -> u64;\n}\n";
        let m = model(src);
        assert_eq!(m.fns.len(), 1);
        assert_eq!(m.fns[0].qual_name, "Clock::now_ns");
        assert!(m.fns[0].callees.is_empty());
        assert!(m
            .decls
            .iter()
            .any(|d| d.kind == "trait" && d.name == "Clock"));
    }
}
