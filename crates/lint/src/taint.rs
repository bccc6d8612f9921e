//! Workspace-level semantic rules: a crate-aware symbol map and call
//! graph over every file's [`FileModel`](crate::items::FileModel), the
//! three cross-file checks built on it, and one name census beside
//! them:
//!
//! * [`determinism_taint`] — no call path from a nondeterminism source
//!   (`monotonic_ns`, `Instant::now`, `env::var`, ambient RNG) into a
//!   served decision response or a golden-CSV renderer, unless the path
//!   passes through a fn that handles the `--deterministic` gate or the
//!   sanctioned `trace::clock` reader.
//! * [`blocking_in_reader`] — no file I/O, `thread::sleep`, lock
//!   acquisition ordered after a cache lock, or cross-shard lock
//!   acquisition in any fn reachable from skyferryd's request path:
//!   the legacy reader-thread roots (`read_line` callers in
//!   `server.rs`) and the shard event loops (`poller.wait` callers in
//!   `shard.rs`) — everything a reactor callback runs is held to the
//!   same never-block standard.
//! * [`exhaustive_proto_errors`] — every `proto::ErrorKind` variant is
//!   constructed somewhere outside `proto.rs` and its wire tag is
//!   matched by loadgen's checker.
//! * [`test_only_pub`] — every plain-`pub` item of a library file is
//!   named by some non-test code.
//!
//! Call-graph edges are resolved conservatively: same file first, then
//! same crate, then cross-crate through the file's `use` map, then a
//! workspace-unique name match. Macros are never call edges. Ambiguous
//! names resolve to nothing rather than to everything, so taint
//! findings correspond to real paths. That same conservatism is why
//! `test_only_pub` matches names instead of walking the graph: an
//! unresolved method call would make a live item look dead, while a
//! name match can only miss a finding, never invent one.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::items::{Callee, FnItem, Vis};
use crate::rules::Analysis;
use crate::scanner::{find_ident, is_ident_char};

/// A workspace finding: `(repo-relative path, 1-based line, message)`.
pub type WsFinding = (String, usize, String);

/// Index of one fn in the workspace: `(file index, fn index)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct FnRef {
    /// Index into the analysis slice.
    pub file: usize,
    /// Index into that file's `model.fns`.
    pub idx: usize,
}

/// The linked symbol map over a set of analyzed files.
pub struct Workspace<'a> {
    files: &'a [Analysis],
    crate_names: Vec<String>,
    by_crate_name: BTreeMap<(String, String), Vec<FnRef>>,
    by_crate_qual: BTreeMap<(String, String), Vec<FnRef>>,
    by_name: BTreeMap<String, Vec<FnRef>>,
}

/// The owning crate of a repo-relative path (`crates/serve/src/…` →
/// `serve`; anything else → `root`).
pub fn crate_of(path: &str) -> String {
    match path.strip_prefix("crates/") {
        Some(rest) => rest.split('/').next().unwrap_or("").to_string(),
        None => "root".to_string(),
    }
}

/// Map a path head segment to a workspace crate name, if it names one.
fn seg_crate(seg: &str, current: &str) -> Option<String> {
    match seg {
        "crate" | "self" | "super" => Some(current.to_string()),
        _ => seg.strip_prefix("skyferry_").map(str::to_string),
    }
}

impl<'a> Workspace<'a> {
    /// Build the symbol map.
    pub fn build(files: &'a [Analysis]) -> Self {
        let crate_names: Vec<String> = files.iter().map(|a| crate_of(&a.path)).collect();
        let mut by_crate_name: BTreeMap<(String, String), Vec<FnRef>> = BTreeMap::new();
        let mut by_crate_qual: BTreeMap<(String, String), Vec<FnRef>> = BTreeMap::new();
        let mut by_name: BTreeMap<String, Vec<FnRef>> = BTreeMap::new();
        for (fi, a) in files.iter().enumerate() {
            for (idx, f) in a.model.fns.iter().enumerate() {
                let r = FnRef { file: fi, idx };
                let k = crate_names[fi].clone();
                by_crate_name
                    .entry((k.clone(), f.name.clone()))
                    .or_default()
                    .push(r);
                by_crate_qual
                    .entry((k, f.qual_name.clone()))
                    .or_default()
                    .push(r);
                by_name.entry(f.name.clone()).or_default().push(r);
            }
        }
        Workspace {
            files,
            crate_names,
            by_crate_name,
            by_crate_qual,
            by_name,
        }
    }

    /// The fn item behind a reference.
    pub fn fn_item(&self, r: FnRef) -> &FnItem {
        &self.files[r.file].model.fns[r.idx]
    }

    /// The repo-relative path of a reference's file.
    pub fn path(&self, r: FnRef) -> &str {
        &self.files[r.file].path
    }

    /// All fn refs, in deterministic order.
    pub fn all_fns(&self) -> impl Iterator<Item = FnRef> + '_ {
        self.files
            .iter()
            .enumerate()
            .flat_map(|(fi, a)| (0..a.model.fns.len()).map(move |idx| FnRef { file: fi, idx }))
    }

    /// The crate owning the file of a use-path head, through the
    /// calling file's `use` map when the head is itself an alias.
    fn map_crate(&self, file: usize, seg: &str) -> Option<String> {
        let current = &self.crate_names[file];
        if let Some(k) = seg_crate(seg, current) {
            return Some(k);
        }
        for u in &self.files[file].model.uses {
            if u.alias == seg {
                if let Some(head) = u.path.first() {
                    return seg_crate(head, current);
                }
            }
        }
        None
    }

    /// Resolve a call site in `file` to its workspace targets.
    ///
    /// Priority: qualified match in the same crate → qualified path
    /// through the `use` map → same file → same crate → `use`-mapped
    /// crate → workspace-unique bare name. Ambiguity resolves to
    /// nothing.
    pub fn resolve(&self, file: usize, c: &Callee) -> Vec<FnRef> {
        let name = c.name();
        if name.is_empty() {
            return Vec::new();
        }
        let krate = self.crate_names[file].clone();

        if c.path.len() >= 2 {
            let qual = format!("{}::{}", c.path[c.path.len() - 2], name);
            if let Some(v) = self.by_crate_qual.get(&(krate.clone(), qual.clone())) {
                return v.clone();
            }
            if let Some(target) = self.map_crate(file, &c.path[0]) {
                if let Some(v) = self
                    .by_crate_qual
                    .get(&(target.clone(), qual.clone()))
                    .or_else(|| self.by_crate_name.get(&(target, name.to_string())))
                {
                    return v.clone();
                }
            }
            // A qualified name unique across the workspace.
            let hits: Vec<FnRef> = self
                .by_crate_qual
                .iter()
                .filter(|((_, q), _)| *q == qual)
                .flat_map(|(_, v)| v.iter().copied())
                .collect();
            if !hits.is_empty() {
                return hits;
            }
        }

        let same_file: Vec<FnRef> = self.files[file]
            .model
            .fns
            .iter()
            .enumerate()
            .filter(|(_, f)| f.name == name)
            .map(|(idx, _)| FnRef { file, idx })
            .collect();
        if !same_file.is_empty() {
            return same_file;
        }
        if let Some(v) = self.by_crate_name.get(&(krate.clone(), name.to_string())) {
            return v.clone();
        }
        for u in &self.files[file].model.uses {
            if u.alias == name {
                if let Some(head) = u.path.first() {
                    if let Some(target) = seg_crate(head, &krate) {
                        if let Some(v) = self.by_crate_name.get(&(target, name.to_string())) {
                            return v.clone();
                        }
                    }
                }
            }
        }
        if c.path.len() == 1 && !c.is_method() {
            if let Some(v) = self.by_name.get(name) {
                if v.len() == 1 {
                    return v.clone();
                }
            }
        }
        Vec::new()
    }
}

/// Why a fn is tainted.
enum Cause {
    /// Directly calls the named source at this line.
    Direct { source: String, line: usize },
    /// Calls a tainted fn at this line.
    Via { next: FnRef, line: usize },
}

/// Is this call site a nondeterminism source read?
fn source_call(c: &Callee) -> Option<&'static str> {
    let n = c.name();
    let last2 = if c.path.len() >= 2 {
        Some((c.path[c.path.len() - 2].as_str(), n))
    } else {
        None
    };
    match (n, last2) {
        ("monotonic_ns", _) => Some("monotonic_ns"),
        (_, Some(("Instant", "now"))) => Some("Instant::now"),
        (_, Some(("SystemTime", "now"))) => Some("SystemTime::now"),
        (_, Some(("env", "var"))) | (_, Some(("env", "var_os"))) => Some("env::var"),
        ("thread_rng", _) => Some("thread_rng"),
        ("from_entropy", _) => Some("from_entropy"),
        _ if c.path.iter().any(|s| s == "OsRng") => Some("OsRng"),
        _ => None,
    }
}

/// The one file allowed to read the real clock.
const CLOCK_FILE: &str = "crates/trace/src/clock.rs";

/// Does this fn absorb taint (it handles the `--deterministic` gate, or
/// it *is* the sanctioned clock reader)?
fn gated(f: &FnItem, path: &str) -> bool {
    path == CLOCK_FILE
        || f.mentions.contains("deterministic")
        || f.params.iter().any(|p| p.name.contains("deterministic"))
}

/// Fns whose results are served or rendered into golden CSVs.
fn is_emitter(f: &FnItem) -> bool {
    f.callees
        .iter()
        .any(|c| c.name() == "decision_response" || c.name() == "render_csv")
}

/// The determinism-taint rule. See the module docs.
pub fn determinism_taint(files: &[Analysis]) -> Vec<WsFinding> {
    let ws = Workspace::build(files);

    // Reverse edges: callee → (caller, call-site line).
    let mut callers: BTreeMap<FnRef, Vec<(FnRef, usize)>> = BTreeMap::new();
    for r in ws.all_fns() {
        let f = ws.fn_item(r);
        if f.test_only {
            continue;
        }
        for c in &f.callees {
            for target in ws.resolve(r.file, c) {
                if target != r {
                    callers.entry(target).or_default().push((r, c.line));
                }
            }
        }
    }

    // Seed: fns that read a source directly (and are not gates).
    let mut cause: BTreeMap<FnRef, Cause> = BTreeMap::new();
    let mut queue: VecDeque<FnRef> = VecDeque::new();
    for r in ws.all_fns() {
        let f = ws.fn_item(r);
        if f.test_only || gated(f, ws.path(r)) {
            continue;
        }
        if let Some(c) = f.callees.iter().find_map(|c| {
            source_call(c).map(|s| Cause::Direct {
                source: s.to_string(),
                line: c.line,
            })
        }) {
            cause.insert(r, c);
            queue.push_back(r);
        }
    }

    // Propagate caller-ward; gates absorb.
    while let Some(t) = queue.pop_front() {
        let Some(ups) = callers.get(&t) else { continue };
        for &(caller, line) in ups {
            if cause.contains_key(&caller) {
                continue;
            }
            let f = ws.fn_item(caller);
            if gated(f, ws.path(caller)) {
                continue;
            }
            cause.insert(caller, Cause::Via { next: t, line });
            queue.push_back(caller);
        }
    }

    // Emitters that ended up tainted are the findings.
    let mut out = Vec::new();
    for r in ws.all_fns() {
        let f = ws.fn_item(r);
        if f.test_only || !is_emitter(f) || !cause.contains_key(&r) {
            continue;
        }
        let (chain, source, line) = trace_chain(&ws, &cause, r);
        out.push((
            ws.path(r).to_string(),
            line,
            format!(
                "`{}` feeds served/golden output but reaches `{}`{}; gate the path \
                 behind --deterministic or go through trace::clock",
                f.qual_name, source, chain
            ),
        ));
    }
    out.sort();
    out
}

/// Reconstruct the taint chain from `r` down to its source; returns
/// (rendered intermediate chain, source name, first-hop line in `r`).
fn trace_chain(
    ws: &Workspace<'_>,
    cause: &BTreeMap<FnRef, Cause>,
    r: FnRef,
) -> (String, String, usize) {
    let mut names: Vec<String> = Vec::new();
    let mut first_line = ws.fn_item(r).line;
    let mut cur = r;
    let mut seen = BTreeSet::new();
    for hop in 0.. {
        if !seen.insert(cur) {
            break;
        }
        match cause.get(&cur) {
            Some(Cause::Direct { source, line }) => {
                if hop == 0 {
                    first_line = *line;
                }
                return (render_chain(&names), source.clone(), first_line);
            }
            Some(Cause::Via { next, line }) => {
                if hop == 0 {
                    first_line = *line;
                }
                names.push(ws.fn_item(*next).qual_name.clone());
                cur = *next;
            }
            None => break,
        }
    }
    (
        render_chain(&names),
        "a nondeterminism source".into(),
        first_line,
    )
}

fn render_chain(names: &[String]) -> String {
    if names.is_empty() {
        String::new()
    } else {
        format!(" (via {})", names.join(" → "))
    }
}

/// The files hosting skyferryd's request path: the legacy blocking
/// reader and the shard event loops.
const READER_FILE: &str = "crates/serve/src/server.rs";
const SHARD_FILE: &str = "crates/serve/src/shard.rs";

/// Does this fn anchor the request path — a socket reader
/// (`read_line`) or a shard event loop (`poller.wait`)?
fn request_path_root(f: &FnItem) -> bool {
    f.callees.iter().any(|c| {
        c.name() == "read_line"
            || (c.name() == "wait" && c.recv.iter().any(|s| s.contains("poller")))
    })
}

/// Is a `lock` call at `line` a cross-shard acquisition? Receiver
/// chains truncate at indexing (`shards[i]` is not an ident segment),
/// so the check reads the source window instead: a lock written on or
/// just below a `shards[` receiver is grabbing another shard's state.
fn cross_shard_lock(a: &Analysis, line: usize) -> bool {
    let lo = line.saturating_sub(3).max(1);
    a.lines[lo - 1..line.min(a.lines.len())]
        .iter()
        .any(|l| l.code.contains("shards["))
}

/// The blocking-in-reader rule. See the module docs.
pub fn blocking_in_reader(files: &[Analysis]) -> Vec<WsFinding> {
    let ws = Workspace::build(files);

    // Roots: reader/event-loop fns in the request-path files.
    let mut queue: VecDeque<FnRef> = VecDeque::new();
    let mut reachable: BTreeSet<FnRef> = BTreeSet::new();
    for r in ws.all_fns() {
        let path = ws.path(r);
        if ![READER_FILE, SHARD_FILE]
            .iter()
            .any(|f| path == *f || path.ends_with(f))
        {
            continue;
        }
        let f = ws.fn_item(r);
        if f.test_only {
            continue;
        }
        if request_path_root(f) && reachable.insert(r) {
            queue.push_back(r);
        }
    }

    // Forward reachability, staying inside the serve crate.
    while let Some(r) = queue.pop_front() {
        let f = ws.fn_item(r);
        for c in &f.callees {
            for target in ws.resolve(r.file, c) {
                if crate_of(ws.path(target)) != "serve" || ws.fn_item(target).test_only {
                    continue;
                }
                if reachable.insert(target) {
                    queue.push_back(target);
                }
            }
        }
    }

    let mut out = Vec::new();
    for &r in &reachable {
        let f = ws.fn_item(r);
        let path = ws.path(r).to_string();
        // First cache-lock acquisition in this body, by token order.
        let cache_lock = f
            .callees
            .iter()
            .filter(|c| {
                c.name() == "lock" && c.recv.iter().any(|s| s.to_lowercase().contains("cache"))
            })
            .map(|c| c.seq)
            .min();
        for c in &f.callees {
            let n = c.name();
            if n == "sleep" && !c.is_method() {
                out.push((
                    path.clone(),
                    c.line,
                    format!(
                        "`thread::sleep` in request-path fn `{}`: a reader or \
                         shard event loop must never block on time",
                        f.qual_name
                    ),
                ));
            }
            let head = c.path.first().map(String::as_str).unwrap_or("");
            if c.path.iter().any(|s| s == "fs") || matches!(head, "File" | "OpenOptions") {
                out.push((
                    path.clone(),
                    c.line,
                    format!(
                        "file I/O `{}` in request-path fn `{}`: disk touches stall \
                         every connection on this thread",
                        c.path.join("::"),
                        f.qual_name
                    ),
                ));
            }
            if n == "lock" && cross_shard_lock(&files[r.file], c.line) {
                out.push((
                    path.clone(),
                    c.line,
                    format!(
                        "cross-shard lock in request-path fn `{}`: shards talk \
                         only through `send` mailboxes; locking another shard's \
                         state from an event loop invites deadlock",
                        f.qual_name
                    ),
                ));
            }
            if let Some(first) = cache_lock {
                if n == "lock"
                    && c.seq > first
                    && !c.recv.iter().any(|s| s.to_lowercase().contains("cache"))
                {
                    out.push((
                        path.clone(),
                        c.line,
                        format!(
                            "lock acquired after the cache lock in request-path fn \
                             `{}`: lock order must be cache-last to stay \
                             deadlock-free",
                            f.qual_name
                        ),
                    ));
                }
            }
        }
    }
    out.sort();
    out.dedup();
    out
}

/// The proto definition and checker files.
const PROTO_FILE: &str = "crates/serve/src/proto.rs";
const LOADGEN_FILE: &str = "crates/serve/src/loadgen.rs";

/// The exhaustive-proto-errors rule. See the module docs.
pub fn exhaustive_proto_errors(files: &[Analysis]) -> Vec<WsFinding> {
    let Some(proto_fi) = files.iter().position(|a| a.path == PROTO_FILE) else {
        return Vec::new();
    };
    let proto = &files[proto_fi];
    let Some(kind) = proto.model.enums.iter().find(|e| e.name == "ErrorKind") else {
        return Vec::new();
    };

    // Wire tags: the match arm line `ErrorKind::V => "tag"` (or
    // `Self::V => "tag"`) pairs the variant with the string on it.
    let mut tags: BTreeMap<&str, String> = BTreeMap::new();
    for (v, _) in &kind.variants {
        for (li, l) in proto.lines.iter().enumerate() {
            if !l.code.contains("=>") || find_ident(&l.code, v).is_empty() {
                continue;
            }
            if let Some((s, _)) = proto.model.strings.iter().find(|(_, sl)| *sl == li + 1) {
                tags.insert(v.as_str(), s.clone());
                break;
            }
        }
    }

    let mut out = Vec::new();
    for (v, vline) in &kind.variants {
        // Constructed somewhere outside proto.rs (non-test code).
        let constructed = files.iter().enumerate().any(|(fi, a)| {
            fi != proto_fi
                && crate_of(&a.path) == "serve"
                && construction_lines(a, v)
                    .iter()
                    .any(|&l| a.model.cfg_test_line.is_none_or(|c| l < c))
        });
        if !constructed {
            out.push((
                PROTO_FILE.to_string(),
                *vline,
                format!(
                    "proto error kind `ErrorKind::{v}` is never constructed outside \
                     proto.rs: either the server cannot produce it or the variant \
                     is dead"
                ),
            ));
        }
        // Matched in loadgen's checker by wire tag.
        let Some(tag) = tags.get(v.as_str()) else {
            out.push((
                PROTO_FILE.to_string(),
                *vline,
                format!("proto error kind `ErrorKind::{v}` has no wire tag match arm"),
            ));
            continue;
        };
        let checked = files.iter().any(|a| {
            a.path == LOADGEN_FILE
                && a.model
                    .strings
                    .iter()
                    .any(|(s, l)| s == tag && a.model.cfg_test_line.is_none_or(|c| *l < c))
        });
        if files.iter().any(|a| a.path == LOADGEN_FILE) && !checked {
            out.push((
                PROTO_FILE.to_string(),
                *vline,
                format!(
                    "proto error kind `ErrorKind::{v}` (tag \"{tag}\") is never \
                     matched by loadgen's checker: protocol errors of this kind \
                     would go unclassified"
                ),
            ));
        }
    }
    out.sort();
    out
}

/// Is `path` a library source file: under `crates/<name>/src/`, outside
/// `src/bin/`?
fn is_library_file(path: &str) -> bool {
    path.strip_prefix("crates/")
        .and_then(|rest| rest.split_once('/'))
        .is_some_and(|(_, rest)| rest.starts_with("src/") && !rest.starts_with("src/bin/"))
}

/// Is `path` inside an integration-test tree?
fn is_test_tree(path: &str) -> bool {
    path.starts_with("tests/") || path.contains("/tests/")
}

/// Does this code line open a `use` or re-export (`pub use`,
/// `pub(crate) use`)?
fn opens_use(code: &str) -> bool {
    let t = code.trim_start();
    let t = match t.strip_prefix("pub") {
        Some(rest) if rest.starts_with('(') => rest.split_once(')').map_or(rest, |(_, r)| r),
        Some(rest) => rest,
        None => t,
    };
    t.trim_start()
        .strip_prefix("use")
        .is_some_and(|rest| rest.starts_with(char::is_whitespace))
}

/// The plain-`pub` items a file declares above its test module, as
/// `(name, line)`. Trait methods inherit the trait's visibility without
/// writing `pub`, so only declaration lines that spell `pub` count;
/// modules are namespaces, named through `use` paths.
fn pub_items(a: &Analysis) -> Vec<(&str, usize)> {
    let spelled_pub = |line: usize| !find_ident(&a.lines[line - 1].code, "pub").is_empty();
    let fns = a
        .model
        .fns
        .iter()
        .filter(|f| f.vis == Vis::Public && !f.test_only && spelled_pub(f.line))
        .map(|f| (f.name.as_str(), f.line));
    let decls = a
        .model
        .decls
        .iter()
        .filter(|d| d.vis == Vis::Public && !d.test_only && d.kind != "mod")
        .map(|d| (d.name.as_str(), d.line));
    fns.chain(decls).collect()
}

/// The test-only-pub rule: a plain-`pub` item of a library file that no
/// non-test code names. A name counts only as code — not in comments,
/// strings or `use` items (one-line or multi-line re-exports) — and not
/// on the item's own declaration line. Test code is every `tests/` tree
/// plus everything from a file's first `#[cfg(test)]` on; bins, benches,
/// examples and the benchmark package are callers like any other.
pub fn test_only_pub(files: &[Analysis]) -> Vec<WsFinding> {
    let mut items: Vec<(usize, &str, usize)> = Vec::new();
    for (fi, a) in files.iter().enumerate() {
        if is_library_file(&a.path) {
            items.extend(pub_items(a).into_iter().map(|(n, l)| (fi, n, l)));
        }
    }
    let names: BTreeSet<&str> = items.iter().map(|&(_, n, _)| n).collect();

    // Where each candidate name is written in non-test code.
    let mut named: BTreeMap<&str, Vec<(usize, usize)>> = BTreeMap::new();
    for (fi, a) in files.iter().enumerate() {
        if is_test_tree(&a.path) {
            continue;
        }
        let end = a.model.cfg_test_line.map_or(a.lines.len(), |l| l - 1);
        let mut in_use = false;
        for (li, l) in a.lines[..end].iter().enumerate() {
            if in_use || opens_use(&l.code) {
                in_use = !l.code.contains(';');
                continue;
            }
            for ident in idents(&l.code) {
                if let Some(&n) = names.get(ident) {
                    named.entry(n).or_default().push((fi, li + 1));
                }
            }
        }
    }

    let mut out = Vec::new();
    for (fi, name, line) in items {
        let used = named
            .get(name)
            .is_some_and(|at| at.iter().any(|&site| site != (fi, line)));
        if !used {
            out.push((
                files[fi].path.clone(),
                line,
                format!(
                    "no non-test code names pub item `{name}`: delete it, or keep it \
                     with a line escape naming the test that needs it"
                ),
            ));
        }
    }
    out.sort();
    out
}

/// The identifiers in a code line (string contents are already blanked).
fn idents(code: &str) -> impl Iterator<Item = &str> {
    code.split(|c: char| !is_ident_char(c))
        .filter(|w| w.starts_with(|c: char| c.is_alphabetic() || c == '_'))
}

/// Lines (1-based) where `ErrorKind::<variant>` is written in a file.
fn construction_lines(a: &Analysis, variant: &str) -> Vec<usize> {
    let mut out = Vec::new();
    for (li, l) in a.lines.iter().enumerate() {
        for pos in find_ident(&l.code, "ErrorKind") {
            let rest = &l.code[pos + "ErrorKind".len()..];
            if let Some(after) = rest.strip_prefix("::") {
                if after.starts_with(variant)
                    && !after[variant.len()..]
                        .starts_with(|c: char| crate::scanner::is_ident_char(c))
                {
                    out.push(li + 1);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::analyze;

    fn ws_files(specs: &[(&str, &str)]) -> Vec<Analysis> {
        specs.iter().map(|(p, s)| analyze(p, s)).collect()
    }

    #[test]
    fn taint_flows_across_files_and_crates() {
        let files = ws_files(&[
            (
                "crates/serve/src/engine.rs",
                "use skyferry_trace::clock::monotonic_ns;\n\
                 pub fn timed() -> u64 { monotonic_ns() }\n",
            ),
            (
                "crates/serve/src/server.rs",
                "pub fn respond() { let t = crate::engine::timed(); decision_response(t); }\n\
                 fn decision_response(_t: u64) {}\n",
            ),
        ]);
        let f = determinism_taint(&files);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].0, "crates/serve/src/server.rs");
        assert!(f[0].2.contains("monotonic_ns"), "{}", f[0].2);
        assert!(f[0].2.contains("respond"), "{}", f[0].2);
    }

    #[test]
    fn deterministic_gate_absorbs_taint() {
        let files = ws_files(&[(
            "crates/serve/src/server.rs",
            "pub fn timed() -> u64 { monotonic_ns() }\n\
             pub fn respond(deterministic: bool) {\n\
                 let t = if deterministic { 0 } else { timed() };\n\
                 decision_response(t);\n\
             }\n\
             fn decision_response(_t: u64) {}\n\
             fn monotonic_ns() -> u64 { 0 }\n",
        )]);
        assert!(determinism_taint(&files).is_empty());
    }

    #[test]
    fn clock_file_is_sanctioned() {
        let files = ws_files(&[
            (
                "crates/trace/src/clock.rs",
                "pub fn monotonic_ns() -> u64 { Instant::now().elapsed().as_nanos() as u64 }\n",
            ),
            (
                "crates/bench/src/report.rs",
                "pub fn write() { render_csv(); }\nfn render_csv() {}\n",
            ),
        ]);
        assert!(determinism_taint(&files).is_empty());
    }

    #[test]
    fn emitter_with_direct_source_is_flagged() {
        let files = ws_files(&[(
            "crates/bench/src/report.rs",
            "pub fn write_tables() { let t = Instant::now(); render_csv(); let _ = t; }\n\
             fn render_csv() {}\n",
        )]);
        let f = determinism_taint(&files);
        assert_eq!(f.len(), 1);
        assert!(f[0].2.contains("Instant::now"));
    }

    #[test]
    fn reader_path_blocking_flagged() {
        let files = ws_files(&[(
            "crates/serve/src/server.rs",
            "pub fn serve_connection(r: &mut Reader) {\n\
                 r.read_line(&mut buf);\n\
                 handle(&buf);\n\
             }\n\
             fn handle(buf: &str) {\n\
                 thread::sleep(ms(1));\n\
                 let _ = fs::read_to_string(\"x\");\n\
             }\n",
        )]);
        let f = blocking_in_reader(&files);
        let msgs: Vec<&str> = f.iter().map(|(_, _, m)| m.as_str()).collect();
        assert!(msgs.iter().any(|m| m.contains("thread::sleep")), "{msgs:?}");
        assert!(msgs.iter().any(|m| m.contains("file I/O")), "{msgs:?}");
    }

    #[test]
    fn shard_event_loop_is_a_request_path_root() {
        let files = ws_files(&[(
            "crates/serve/src/shard.rs",
            "pub fn run(mut self) {\n\
                 let _ = self.poller.wait(&mut events, None);\n\
                 self.handle_event();\n\
             }\n\
             fn handle_event(&mut self) {\n\
                 thread::sleep(POLL);\n\
                 let _ = fs::read_to_string(\"stats\");\n\
                 let _g = self.state.shards[0].inbox.lock();\n\
             }\n",
        )]);
        let f = blocking_in_reader(&files);
        let msgs: Vec<&str> = f.iter().map(|(_, _, m)| m.as_str()).collect();
        assert_eq!(f.len(), 3, "{msgs:?}");
        assert!(msgs.iter().any(|m| m.contains("thread::sleep")), "{msgs:?}");
        assert!(msgs.iter().any(|m| m.contains("file I/O")), "{msgs:?}");
        assert!(
            msgs.iter().any(|m| m.contains("cross-shard lock")),
            "{msgs:?}"
        );
        assert_eq!(f[2].1, 8, "the cross-shard lock anchors to its line");
    }

    #[test]
    fn own_mailbox_lock_in_event_loop_is_allowed() {
        let files = ws_files(&[(
            "crates/serve/src/shard.rs",
            "pub fn run(mut self) {\n\
                 let _ = self.poller.wait(&mut events, None);\n\
                 self.drain_inbox();\n\
             }\n\
             fn drain_inbox(&mut self) {\n\
                 let msg = self.inbox.lock().pop_front();\n\
                 route(msg);\n\
             }\n\
             fn route(_m: Msg) {}\n",
        )]);
        assert!(
            blocking_in_reader(&files).is_empty(),
            "a shard's own mailbox is the sanctioned channel"
        );
    }

    #[test]
    fn lock_after_cache_lock_flagged_standalone_ok() {
        let files = ws_files(&[(
            "crates/serve/src/server.rs",
            "pub fn serve_connection(r: &mut Reader) {\n\
                 r.read_line(&mut buf);\n\
                 let g = self.cache.lock();\n\
                 let q = self.queue.lock();\n\
             }\n\
             pub fn other_reader(r: &mut Reader) {\n\
                 r.read_line(&mut buf);\n\
                 let q = self.queue.lock();\n\
             }\n",
        )]);
        let f = blocking_in_reader(&files);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].1, 4);
        assert!(f[0].2.contains("after the cache lock"));
    }

    #[test]
    fn proto_errors_must_be_constructed_and_checked() {
        let files = ws_files(&[
            (
                "crates/serve/src/proto.rs",
                "pub enum ErrorKind { BadRequest, Overloaded }\n\
                 impl ErrorKind {\n\
                     pub fn tag(&self) -> &'static str {\n\
                         match self {\n\
                             ErrorKind::BadRequest => \"bad-request\",\n\
                             ErrorKind::Overloaded => \"overloaded\",\n\
                         }\n\
                     }\n\
                 }\n",
            ),
            (
                "crates/serve/src/server.rs",
                "pub fn reject() { emit(ErrorKind::BadRequest); }\nfn emit(_k: ErrorKind) {}\n",
            ),
            (
                "crates/serve/src/loadgen.rs",
                "pub fn classify(tag: &str) -> bool { tag == \"bad-request\" }\n",
            ),
        ]);
        let f = exhaustive_proto_errors(&files);
        // Overloaded: never constructed outside proto.rs, never checked.
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().all(|(p, _, _)| p == PROTO_FILE));
        assert!(f.iter().any(|(_, _, m)| m.contains("never constructed")));
        assert!(f.iter().any(|(_, _, m)| m.contains("never matched")));
    }

    /// `test_only_pub` findings as `(path, line)`.
    fn orphans(specs: &[(&str, &str)]) -> Vec<(String, usize)> {
        test_only_pub(&ws_files(specs))
            .into_iter()
            .map(|(p, l, _)| (p, l))
            .collect()
    }

    const LIB: &str = "crates/geo/src/shape.rs";
    const ITEM: &str = "/// A shape.\npub fn area() -> f64 { 1.0 }\n";

    #[test]
    fn test_only_pub_fires_when_only_tests_name_the_item() {
        let expected = vec![(LIB.to_string(), 2)];
        // Nothing names it at all.
        assert_eq!(orphans(&[(LIB, ITEM)]), expected);
        // An integration-test tree names it.
        let test_tree = "fn t() { assert_eq!(area(), 1.0); }\n";
        for path in ["tests/geo.rs", "crates/geo/tests/shape.rs"] {
            assert_eq!(orphans(&[(LIB, ITEM), (path, test_tree)]), expected);
        }
        // Another library file names it, but only below `#[cfg(test)]`.
        let unit = "pub fn unrelated() {}\n#[cfg(test)]\nmod tests { fn t() { area(); } }\n";
        let got = orphans(&[(LIB, ITEM), ("crates/geo/src/other.rs", unit)]);
        assert_eq!(
            got,
            vec![
                ("crates/geo/src/other.rs".to_string(), 1),
                (LIB.to_string(), 2)
            ]
        );
    }

    #[test]
    fn test_only_pub_counts_bins_benches_examples_and_the_benchmark() {
        for caller in [
            "crates/bench/src/bin/repro.rs",
            "crates/bench/benches/kernels.rs",
            "examples/quickstart.rs",
            "crates/net/examples/calibration_fit.rs",
            "skyferry-benchmark/src/main.rs",
            "crates/geo/src/other.rs",
        ] {
            let src = "fn main() { let _ = skyferry_geo::shape::area(); }\n";
            assert!(
                orphans(&[(LIB, ITEM), (caller, src)]).is_empty(),
                "{caller}"
            );
        }
    }

    #[test]
    fn test_only_pub_ignores_reexports_comments_and_strings() {
        let reexports = [
            "pub use shape::area;\n",
            "pub use crate::shape::{\n    area,\n    area as size,\n};\n",
            "use crate::shape::area;\n",
            "/// Calls [`area`].\n// area() is cheap\nfn f() -> &'static str { \"area\" }\n",
        ];
        for src in reexports {
            assert_eq!(
                orphans(&[(LIB, ITEM), ("crates/geo/src/lib.rs", src)]),
                vec![(LIB.to_string(), 2)],
                "{src}"
            );
        }
        // A use statement does not swallow the code after it.
        let after_use = "use crate::shape::{\n    area,\n};\nfn f() -> f64 { area() }\n";
        assert!(orphans(&[(LIB, ITEM), ("crates/geo/src/lib.rs", after_use)]).is_empty());
    }

    #[test]
    fn test_only_pub_skips_restricted_items_bins_and_its_own_line() {
        // `pub(crate)` items are rustc's business; so are private ones.
        let restricted = "pub(crate) fn a() {}\npub(super) struct B;\nfn c() {}\n";
        assert!(orphans(&[(LIB, restricted)]).is_empty());
        // A binary's items are out of scope.
        assert!(orphans(&[("crates/geo/src/bin/tool.rs", ITEM)]).is_empty());
        // Trait methods inherit visibility without spelling `pub`.
        let tr = "pub trait Shape { fn area(&self) -> f64; }\nimpl Shape for u8 { fn area(&self) -> f64 { 0.0 } }\n";
        assert!(orphans(&[(LIB, tr)]).is_empty());
        // A recursive or self-describing declaration line is not a use.
        let own_line = "pub fn area(n: u32) -> u32 { if n == 0 { 0 } else { area(n - 1) } }\n";
        assert_eq!(orphans(&[(LIB, own_line)]), vec![(LIB.to_string(), 1)]);
    }

    #[test]
    fn test_only_pub_escape_goes_stale_once_live_code_names_the_item() {
        use crate::rules::lint_files;
        let kept = "/// A shape.\n// lint:allow-line(test-only-pub): oracle of tests/geo.rs\npub fn area() -> f64 { 1.0 }\n";
        let only_tests = [(LIB.to_string(), kept.to_string())];
        assert!(lint_files(&only_tests).is_empty());
        let live = [
            only_tests[0].clone(),
            (
                "examples/quickstart.rs".to_string(),
                "fn main() { let _ = skyferry_geo::shape::area(); }\n".to_string(),
            ),
        ];
        let f = lint_files(&live);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!((f[0].rule, f[0].line), ("stale-allow", 2));
    }

    #[test]
    fn resolve_prefers_same_file_then_crate() {
        let files = ws_files(&[
            (
                "crates/core/src/a.rs",
                "pub fn helper() {}\npub fn go() { helper(); }\n",
            ),
            ("crates/core/src/b.rs", "pub fn helper() {}\n"),
        ]);
        let ws = Workspace::build(&files);
        let go = FnRef { file: 0, idx: 1 };
        let call = files[0].model.fns[1].callees[0].clone();
        let targets = ws.resolve(go.file, &call);
        assert_eq!(targets, vec![FnRef { file: 0, idx: 0 }]);
    }
}
