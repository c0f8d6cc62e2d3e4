//! Workspace symbol table and call graph for `cargo xtask analyze`.
//!
//! The semantic passes (determinism taint, zero-alloc enforcement) need to
//! reason *across* function boundaries, which the per-file lexical rules
//! cannot. This module parses every target file's token stream into a
//! function table and a conservative call graph:
//!
//! - **Functions** are found by `fn <name>` with brace-matched bodies;
//!   `impl Type` context is tracked so methods get qualified names
//!   (`Wal::append`). `#[cfg(test)]` regions are skipped entirely.
//! - **Call references** are `name(`, `Type::name(` / `module::name(`, and
//!   `.name(` patterns inside bodies, plus `Type::name` path references
//!   (function pointers like `resize_with(n, ChunkScratch::default)`).
//! - **Resolution** is by name, scoped by the workspace crate dependency
//!   graph ([`crate::workspace::crate_visibility`]): a call in crate A can
//!   only resolve to functions in crates A actually depends on, which keeps
//!   the over-approximation honest (a `partition` function can never
//!   "reach" `bench` timing code). Qualified calls additionally require a
//!   matching `impl` context, and `self`-less free calls only match free
//!   functions.
//!
//! The graph is deliberately over-approximate (method calls resolve by name
//! alone — we have no type information) and never under-approximate for
//! workspace-internal calls, which is the right polarity for the passes
//! built on it: taint and allocation findings are *reachability* claims.
//!
//! ## Registration annotations
//!
//! Hot paths, ordering-sensitive sinks and codec files are registered in
//! the source itself with comment directives the analyzer parses:
//!
//! ```text
//! // analyze:hot-path -- warm metering core; must not allocate
//! // analyze:sink(wal-append) -- WAL bytes must replay byte-identically
//! // analyze:codec -- file-level: every encode/decode here is fingerprinted
//! ```
//!
//! A directive attaches to the next function declared after it (the codec
//! form attaches to the file). So the registry cannot silently rot, a
//! built-in table ([`REQUIRED_HOT_PATHS`], [`REQUIRED_SINKS`],
//! [`REQUIRED_CODECS`]) lists the registrations the workspace must carry;
//! a missing one is a `registry-drift` error.

use std::collections::{BTreeMap, BTreeSet};

use crate::allow::{parse_allows, AllowDirective};
use crate::diag::Diagnostic;
use crate::lexer::{lex, Comment, Lexed, Tok, TokKind};
use crate::policy::Policy;
use crate::scanner::{is_keyword, scan};

/// Hot-path registrations the workspace must carry: `(file label suffix,
/// function name)`. These are the warm cores of the paper's steady-state
/// epoch loop — the entry points (`meter_epoch`, `partition_kway_in`)
/// allocate deliberately on their cold setup paths, so the registry pins
/// the inner functions those paths converge on when warm.
pub const REQUIRED_HOT_PATHS: &[(&str, &str)] = &[
    ("crates/sim/src/metering.rs", "meter_flows"),
    ("crates/partition/src/refine.rs", "refine_in_place"),
    ("crates/workload/src/arena.rs", "set_prefix"),
    ("crates/partition/src/initial.rs", "grow_from"),
    ("crates/partition/src/initial.rs", "run_trials"),
    ("crates/service/src/daemon.rs", "answer_query"),
    ("crates/cluster/src/wal.rs", "append"),
    ("crates/cluster/src/wal.rs", "append_with_fault"),
];

/// Ordering-sensitive sink registrations the workspace must carry:
/// `(file label suffix, function name, sink label)`.
pub const REQUIRED_SINKS: &[(&str, &str, &str)] = &[
    ("crates/cluster/src/wal.rs", "append", "wal-append"),
    (
        "crates/cluster/src/wal.rs",
        "append_with_fault",
        "wal-append",
    ),
    ("crates/cluster/src/wal.rs", "drop_prefix", "wal-append"),
    ("crates/sim/src/report.rs", "runs_to_csv", "report-emit"),
    ("crates/sim/src/report.rs", "chaos_to_csv", "report-emit"),
    (
        "crates/sim/src/report.rs",
        "service_soak_to_csv",
        "report-emit",
    ),
    ("crates/service/src/proto.rs", "frame", "proto-encode"),
    (
        "crates/partition/src/bisect.rs",
        "bisect_with_seed",
        "partition-seed",
    ),
];

/// Codec-file registrations the workspace must carry (file label suffixes);
/// the wire-format drift guard fingerprints every encode/decode in these.
pub const REQUIRED_CODECS: &[&str] = &[
    "crates/cluster/src/wal.rs",
    "crates/cluster/src/snapshot.rs",
    "crates/service/src/proto.rs",
    "crates/service/src/dedup.rs",
    "crates/service/src/journal.rs",
];

/// One `// analyze:` registration directive.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AnnKind {
    /// `analyze:hot-path` — next function's transitive call graph must be
    /// allocation-free.
    HotPath,
    /// `analyze:sink(<label>)` — next function is ordering-sensitive; taint
    /// reaching it is an error.
    Sink(String),
    /// `analyze:codec` — the file's encode/decode pairs are fingerprinted
    /// against the golden wire schema.
    Codec,
}

/// A parsed annotation with its source line.
#[derive(Clone, Debug)]
pub struct Annotation {
    /// What is being registered.
    pub kind: AnnKind,
    /// 1-based line of the directive comment.
    pub line: u32,
}

/// One analyzable file with everything the passes need.
#[derive(Debug)]
pub struct FileCtx {
    /// Diagnostic path label.
    pub label: String,
    /// Owning workspace crate (resolution scope).
    pub crate_name: String,
    /// Active lexical policy.
    pub policy: Policy,
    /// Token stream + comments.
    pub lexed: Lexed,
    /// Per-token test-exemption flags.
    pub exempt: Vec<bool>,
    /// Parsed `lint:allow` directives (shared with the lexical rules).
    pub allows: Vec<AllowDirective>,
    /// Parsed `analyze:` registration directives.
    pub annotations: Vec<Annotation>,
    /// True when the file carries an `analyze:codec` marker.
    pub is_codec: bool,
    /// Lines of malformed `analyze:` directives (reported by [`build`]).
    malformed_annotations: Vec<u32>,
}

impl FileCtx {
    /// Lexes and pre-scans one file.
    pub fn new(label: String, crate_name: String, policy: Policy, src: &str) -> FileCtx {
        let lexed = lex(src);
        let exempt = scan(&lexed.tokens).exempt;
        let allows = parse_allows(&lexed.comments);
        let (annotations, malformed) = parse_annotations(&lexed.comments);
        let is_codec = annotations.iter().any(|a| a.kind == AnnKind::Codec);
        FileCtx {
            label,
            crate_name,
            policy,
            lexed,
            exempt,
            allows,
            annotations,
            is_codec,
            malformed_annotations: malformed,
        }
    }

    /// Lines of malformed `analyze:` directives (reported as
    /// `registry-drift` errors by [`build`]).
    pub fn malformed_annotation_lines(&self) -> &[u32] {
        &self.malformed_annotations
    }
}

/// One function found in the workspace.
#[derive(Debug)]
pub struct FnInfo {
    /// Index into [`Graph::files`].
    pub file: usize,
    /// Enclosing `impl` type name, when declared in an impl block.
    pub impl_type: Option<String>,
    /// Bare function name.
    pub name: String,
    /// 1-based position of the name token.
    pub line: u32,
    /// 1-based column of the name token.
    pub col: u32,
    /// Token index range of the body, inclusive of both braces.
    pub body: (usize, usize),
    /// Registered as a zero-alloc hot path.
    pub hot_path: bool,
    /// Registered as an ordering-sensitive sink, with its label.
    pub sink: Option<String>,
}

impl FnInfo {
    /// `Type::name` for methods, `name` for free functions.
    pub fn qual_name(&self) -> String {
        match &self.impl_type {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// How a call reference was written.
#[derive(Clone, Debug, PartialEq, Eq)]
enum CallKind {
    /// `name(...)` — resolves to free functions only.
    Free,
    /// `.name(...)` — resolves to impl functions only.
    Method,
    /// `Qual::name(...)` or `Qual::name` — resolves by qualifier.
    Qualified(String),
}

/// One unresolved call reference inside a function body.
#[derive(Debug)]
struct CallRef {
    caller: usize,
    kind: CallKind,
    name: String,
    line: u32,
    col: u32,
}

/// A resolved call edge with the source position of its (first) call site.
#[derive(Clone, Copy, Debug)]
pub struct Edge {
    /// Callee function id.
    pub callee: usize,
    /// 1-based line of the call site in the caller's file.
    pub line: u32,
    /// 1-based column of the call site.
    pub col: u32,
}

/// The workspace call graph.
#[derive(Debug)]
pub struct Graph {
    /// Every analyzed file.
    pub files: Vec<FileCtx>,
    /// Every function, in (file, declaration) order.
    pub fns: Vec<FnInfo>,
    /// Outgoing resolved edges per function, sorted and deduped by callee.
    pub edges: Vec<Vec<Edge>>,
}

impl Graph {
    /// The tokens of function `f`'s body, with their exemption flags.
    pub fn body_tokens(&self, f: usize) -> (&[Tok], &[bool]) {
        let info = &self.fns[f];
        let (lo, hi) = info.body;
        let file = &self.files[info.file];
        (&file.lexed.tokens[lo..=hi], &file.exempt[lo..=hi])
    }
}

/// Parses `analyze:` directives out of a file's comments.
///
/// Returns the well-formed annotations and the lines of malformed ones
/// (an `analyze:` prefix that is not one of the three known forms).
fn parse_annotations(comments: &[Comment]) -> (Vec<Annotation>, Vec<u32>) {
    let mut out = Vec::new();
    let mut malformed = Vec::new();
    for c in comments {
        let text = c.text.trim();
        let Some(rest) = text.strip_prefix("analyze:") else {
            continue;
        };
        let body = rest.split("--").next().unwrap_or("").trim();
        let kind = if body == "hot-path" {
            Some(AnnKind::HotPath)
        } else if body == "codec" {
            Some(AnnKind::Codec)
        } else if let Some(label) = body.strip_prefix("sink(").and_then(|r| r.strip_suffix(')')) {
            let label = label.trim();
            if label.is_empty() {
                None
            } else {
                Some(AnnKind::Sink(label.to_string()))
            }
        } else {
            None
        };
        match kind {
            Some(kind) => out.push(Annotation { kind, line: c.line }),
            None => malformed.push(c.line),
        }
    }
    (out, malformed)
}

/// Builds the call graph over `files`, resolving calls under `visible`
/// (crate → set of crates it may call into; every crate should at least see
/// itself). Returns the graph plus `registry-drift` diagnostics for
/// malformed annotation directives.
pub fn build(
    files: Vec<FileCtx>,
    visible: &BTreeMap<String, BTreeSet<String>>,
) -> (Graph, Vec<Diagnostic>) {
    let mut diags = Vec::new();
    let mut fns: Vec<FnInfo> = Vec::new();
    let mut calls: Vec<CallRef> = Vec::new();

    for (fi, f) in files.iter().enumerate() {
        for &line in f.malformed_annotation_lines() {
            diags.push(Diagnostic::error(
                "registry-drift",
                &f.label,
                line,
                1,
                "malformed `analyze:` directive; expected `analyze:hot-path`, \
                 `analyze:sink(<label>)` or `analyze:codec` (with an optional `-- reason`)"
                    .into(),
            ));
        }
        parse_file(fi, f, &mut fns, &mut calls);
    }

    // Attach hot-path / sink annotations to the first function declared
    // after each directive in the same file.
    for (fi, f) in files.iter().enumerate() {
        for ann in &f.annotations {
            let target = fns
                .iter_mut()
                .filter(|x| x.file == fi && x.line > ann.line)
                .min_by_key(|x| x.line);
            match (&ann.kind, target) {
                (AnnKind::Codec, _) => {}
                (AnnKind::HotPath, Some(t)) => t.hot_path = true,
                (AnnKind::Sink(label), Some(t)) => t.sink = Some(label.clone()),
                (_, None) => diags.push(Diagnostic::error(
                    "registry-drift",
                    &f.label,
                    ann.line,
                    1,
                    "`analyze:` directive is not followed by a function declaration".into(),
                )),
            }
        }
    }

    let edges = resolve(&files, &fns, &calls, visible);
    (Graph { files, fns, edges }, diags)
}

/// Extracts functions and call references from one file's token stream.
fn parse_file(fi: usize, f: &FileCtx, fns: &mut Vec<FnInfo>, calls: &mut Vec<CallRef>) {
    let toks = &f.lexed.tokens;
    let exempt = &f.exempt;
    let mut depth: i64 = 0;
    // (impl type name, depth after its `{`).
    let mut impl_stack: Vec<(String, i64)> = Vec::new();
    // (fn id, depth after its body `{`).
    let mut fn_stack: Vec<(usize, i64)> = Vec::new();
    // A live (non-test) `fn name` header was seen; its body `{` is pending.
    let mut pending_fn: Option<(String, u32, u32, Option<String>)> = None;
    // An impl header was seen; its block `{` is pending.
    let mut pending_impl: Option<String> = None;

    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        match (t.kind, t.text.as_str()) {
            (TokKind::Punct, "{") => {
                depth += 1;
                if let Some(name) = pending_impl.take() {
                    impl_stack.push((name, depth));
                } else if let Some((name, line, col, impl_type)) = pending_fn.take() {
                    fns.push(FnInfo {
                        file: fi,
                        impl_type,
                        name,
                        line,
                        col,
                        body: (i, i), // close patched at pop
                        hot_path: false,
                        sink: None,
                    });
                    fn_stack.push((fns.len() - 1, depth));
                }
            }
            (TokKind::Punct, "}") => {
                if fn_stack.last().is_some_and(|&(_, d)| d == depth) {
                    let (id, _) = fn_stack.pop().unwrap_or((0, 0));
                    if let Some(x) = fns.get_mut(id) {
                        x.body.1 = i;
                    }
                }
                if impl_stack.last().is_some_and(|&(_, d)| d == depth) {
                    impl_stack.pop();
                }
                depth -= 1;
            }
            (TokKind::Punct, ";") => {
                // Bodyless `fn` declaration (trait method, extern).
                pending_fn = None;
            }
            (TokKind::Punct, "#") => {
                // Skip attributes wholesale: their pseudo-calls
                // (`derive(..)`, `cfg(..)`) are not code.
                let mut j = i + 1;
                if toks.get(j).is_some_and(|n| n.text == "!") {
                    j += 1;
                }
                if toks.get(j).is_some_and(|n| n.text == "[") {
                    let mut bracket = 0i64;
                    while j < toks.len() {
                        match toks[j].text.as_str() {
                            "[" => bracket += 1,
                            "]" => {
                                bracket -= 1;
                                if bracket == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        j += 1;
                    }
                    i = j + 1;
                    continue;
                }
            }
            (TokKind::Ident, "impl") if !exempt[i] && impl_header_position(toks, i) => {
                let (name, next) = parse_impl_header(toks, i);
                pending_impl = name;
                i = next;
                continue;
            }
            (TokKind::Ident, "fn") if !exempt[i] => {
                if let Some(n) = toks.get(i + 1) {
                    if n.kind == TokKind::Ident && !is_keyword(&n.text) {
                        let impl_type = impl_stack.last().map(|(s, _)| s.clone());
                        pending_fn = Some((n.text.clone(), n.line, n.col, impl_type));
                        i += 2;
                        continue;
                    }
                }
            }
            (TokKind::Ident, _) if !exempt[i] && !fn_stack.is_empty() => {
                if let Some((kind, name, line, col, next)) = call_ref_at(toks, i) {
                    if let Some(&(caller, _)) = fn_stack.last() {
                        calls.push(CallRef {
                            caller,
                            kind,
                            name,
                            line,
                            col,
                        });
                    }
                    i = next;
                    continue;
                }
            }
            _ => {}
        }
        i += 1;
    }
}

/// True when an `impl` token at `i` starts an impl *block* (as opposed to
/// `impl Trait` in type position): it must follow an item boundary.
fn impl_header_position(toks: &[Tok], i: usize) -> bool {
    if i == 0 {
        return true;
    }
    let p = &toks[i - 1];
    match p.kind {
        TokKind::Punct => matches!(p.text.as_str(), ";" | "}" | "{" | "]"),
        TokKind::Ident => p.text == "unsafe",
        _ => false,
    }
}

/// Parses an impl header starting at the `impl` token; returns the self
/// type's last path segment (None for unparseable headers) and the index of
/// the block's `{` token (where the main loop resumes).
fn parse_impl_header(toks: &[Tok], start: usize) -> (Option<String>, usize) {
    let mut j = start + 1;
    // Skip the generic parameter list.
    if toks.get(j).is_some_and(|t| t.text == "<") {
        j = skip_angles(toks, j);
    }
    let mut name: Option<String> = None;
    let mut prev_was_path_sep = false;
    while j < toks.len() {
        let t = &toks[j];
        match t.kind {
            TokKind::Punct if t.text == "{" => break,
            TokKind::Punct if t.text == "<" => {
                j = skip_angles(toks, j);
                continue;
            }
            TokKind::Ident if t.text == "for" => {
                // HRTB `for<'a>` keeps the current candidate; a trait impl's
                // `for` resets it (the self type follows).
                if toks.get(j + 1).is_some_and(|n| n.text == "<") {
                    j = skip_angles(toks, j + 1);
                    continue;
                }
                name = None;
                prev_was_path_sep = false;
            }
            TokKind::Ident if t.text == "where" => break,
            TokKind::Ident => {
                if name.is_none() || prev_was_path_sep {
                    name = Some(t.text.clone());
                }
                prev_was_path_sep = false;
            }
            TokKind::Punct if t.text == ":" => {
                prev_was_path_sep = true;
            }
            _ => {}
        }
        j += 1;
    }
    // Resume at the `{` so the main loop opens the block.
    while j < toks.len() && toks[j].text != "{" {
        j += 1;
    }
    (name, j)
}

/// Skips a balanced `<...>` group starting at the `<` token; returns the
/// index after the closing `>`. `->` arrows inside do not close the group.
fn skip_angles(toks: &[Tok], start: usize) -> usize {
    let mut depth = 0i64;
    let mut j = start;
    while j < toks.len() {
        match toks[j].text.as_str() {
            "<" => depth += 1,
            ">" if j > 0 && toks[j - 1].text == "-" => {}
            ">" => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            "{" | ";" => return j, // malformed; bail at the item boundary
            _ => {}
        }
        j += 1;
    }
    j
}

/// Recognizes a call reference at ident `i`; returns its kind, name,
/// position, and the token index to resume scanning from.
fn call_ref_at(toks: &[Tok], i: usize) -> Option<(CallKind, String, u32, u32, usize)> {
    let t = &toks[i];
    if is_keyword(&t.text) {
        return None;
    }
    // Macro invocation (`name!`): not a function call. The alloc pass
    // handles banned macros lexically.
    if toks.get(i + 1).is_some_and(|n| n.text == "!") {
        return None;
    }

    let after_dot = i > 0 && toks[i - 1].text == "." && toks[i - 1].kind == TokKind::Punct;
    let after_path = i >= 2
        && toks[i - 1].text == ":"
        && toks[i - 2].text == ":"
        && toks[i - 1].kind == TokKind::Punct;
    let qualifier = if after_path && i >= 3 && toks[i - 3].kind == TokKind::Ident {
        Some(toks[i - 3].text.clone())
    } else {
        None
    };

    // Look past an optional turbofish for the opening paren.
    let mut j = i + 1;
    if toks.get(j).is_some_and(|n| n.text == ":")
        && toks.get(j + 1).is_some_and(|n| n.text == ":")
        && toks.get(j + 2).is_some_and(|n| n.text == "<")
    {
        j = skip_angles(toks, j + 2);
    }
    let is_call = toks.get(j).is_some_and(|n| n.text == "(");

    let kind = if after_path {
        CallKind::Qualified(qualifier.unwrap_or_default())
    } else if after_dot {
        if !is_call {
            return None; // field access
        }
        CallKind::Method
    } else {
        if !is_call {
            return None; // plain identifier
        }
        CallKind::Free
    };
    // Path references without parens are kept only as `Qual::name` — they
    // may be function pointers (`map(heap_vertex)` style usage is written
    // with parens in this codebase; bare local idents are too noisy).
    let resume = if is_call { j } else { i + 1 };
    Some((kind, t.text.clone(), t.line, t.col, resume))
}

/// Method names that collide with ubiquitous `std` container, slice,
/// string, iterator, `Option`/`Result`, and numeric methods. A bare
/// `x.resize(...)`-style call on an unknown receiver is far more likely to
/// hit `std` than a workspace type, so the receiver-less method heuristic
/// never resolves these names; qualified `Type::name(...)` calls still do.
/// The cost is missed edges into same-named workspace methods (e.g. the
/// queue's `push`), which is the right trade: every such method here is
/// neither a registered sink nor on a registered hot path, while the false
/// edges would thread unrelated subsystems into every blame path.
const STD_METHODS: &[&str] = &[
    "all",
    "any",
    "chain",
    "clear",
    "cloned",
    "contains",
    "contains_key",
    "copied",
    "count",
    "drain",
    "entry",
    "enumerate",
    "extend",
    "extend_from_slice",
    "fill",
    "filter",
    "find",
    "first",
    "flat_map",
    "flatten",
    "fold",
    "get",
    "get_mut",
    "insert",
    "iter",
    "iter_mut",
    "keys",
    "last",
    "len",
    "map",
    "max",
    "max_by_key",
    "min",
    "min_by_key",
    "next",
    "peek",
    "pop",
    "position",
    "push",
    "push_str",
    "remove",
    "replace",
    "reserve",
    "resize",
    "resize_with",
    "retain",
    "rev",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "split_off",
    "sum",
    "swap",
    "swap_remove",
    "take",
    "truncate",
    "values",
    "values_mut",
    "zip",
];

/// Resolves call references to edges under crate visibility.
fn resolve(
    files: &[FileCtx],
    fns: &[FnInfo],
    calls: &[CallRef],
    visible: &BTreeMap<String, BTreeSet<String>>,
) -> Vec<Vec<Edge>> {
    // Name → candidate fn ids.
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (id, f) in fns.iter().enumerate() {
        by_name.entry(f.name.as_str()).or_default().push(id);
    }
    let file_stem = |fi: usize| -> &str {
        let label = &files[fi].label;
        label
            .rsplit('/')
            .next()
            .unwrap_or(label)
            .strip_suffix(".rs")
            .unwrap_or(label)
    };

    let mut edges: Vec<BTreeMap<usize, (u32, u32)>> = vec![BTreeMap::new(); fns.len()];
    for c in calls {
        let caller = &fns[c.caller];
        let caller_crate = &files[caller.file].crate_name;
        let empty = BTreeSet::new();
        let vis = visible.get(caller_crate).unwrap_or(&empty);
        if matches!(c.kind, CallKind::Method) && STD_METHODS.contains(&c.name.as_str()) {
            continue;
        }
        let Some(cands) = by_name.get(c.name.as_str()) else {
            continue;
        };
        for &cand in cands {
            if cand == c.caller {
                continue;
            }
            let cf = &fns[cand];
            let cand_crate = &files[cf.file].crate_name;
            if cand_crate != caller_crate && !vis.contains(cand_crate) {
                continue;
            }
            let matches = match &c.kind {
                CallKind::Free => cf.impl_type.is_none(),
                CallKind::Method => cf.impl_type.is_some(),
                CallKind::Qualified(q) => match q.as_str() {
                    "Self" => cf.file == caller.file && cf.impl_type == caller.impl_type,
                    "crate" | "self" | "super" => cand_crate == caller_crate,
                    q if q.starts_with(char::is_uppercase) => cf.impl_type.as_deref() == Some(q),
                    q => file_stem(cf.file) == q,
                },
            };
            if matches {
                edges[c.caller].entry(cand).or_insert((c.line, c.col));
            }
        }
    }
    edges
        .into_iter()
        .map(|m| {
            m.into_iter()
                .map(|(callee, (line, col))| Edge { callee, line, col })
                .collect()
        })
        .collect()
}

/// Verifies the built-in registration tables against the graph (workspace
/// mode only): every required hot path, sink and codec file must exist and
/// carry its annotation. This makes the gate tamper-evident — deleting a
/// registration comment (or renaming the function away from it) fails the
/// run instead of silently shrinking coverage.
pub fn check_registry(g: &Graph) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let find = |suffix: &str, name: &str| -> Option<&FnInfo> {
        g.fns
            .iter()
            .find(|f| f.name == name && g.files[f.file].label.ends_with(suffix))
    };
    for &(file, name) in REQUIRED_HOT_PATHS {
        match find(file, name) {
            Some(f) if f.hot_path => {}
            Some(f) => out.push(Diagnostic::error(
                "registry-drift",
                &g.files[f.file].label,
                f.line,
                f.col,
                format!(
                    "`{}` is a required zero-alloc hot path but carries no \
                     `// analyze:hot-path` registration",
                    f.qual_name()
                ),
            )),
            None => out.push(Diagnostic::error(
                "registry-drift",
                file,
                1,
                1,
                format!(
                    "required hot path `{name}` not found in `{file}`; if it moved or was \
                     renamed, update the registry table in xtask/src/graph.rs"
                ),
            )),
        }
    }
    for &(file, name, label) in REQUIRED_SINKS {
        match find(file, name) {
            Some(f) if f.sink.as_deref() == Some(label) => {}
            Some(f) => out.push(Diagnostic::error(
                "registry-drift",
                &g.files[f.file].label,
                f.line,
                f.col,
                format!(
                    "`{}` is a required ordering-sensitive sink but carries no \
                     `// analyze:sink({label})` registration",
                    f.qual_name()
                ),
            )),
            None => out.push(Diagnostic::error(
                "registry-drift",
                file,
                1,
                1,
                format!(
                    "required sink `{name}` not found in `{file}`; if it moved or was \
                     renamed, update the registry table in xtask/src/graph.rs"
                ),
            )),
        }
    }
    for &file in REQUIRED_CODECS {
        let found = g.files.iter().find(|f| f.label.ends_with(file));
        match found {
            Some(f) if f.is_codec => {}
            Some(f) => out.push(Diagnostic::error(
                "registry-drift",
                &f.label,
                1,
                1,
                format!(
                    "`{}` is a required wire-codec file but carries no `// analyze:codec` \
                     registration",
                    f.label
                ),
            )),
            None => out.push(Diagnostic::error(
                "registry-drift",
                file,
                1,
                1,
                format!(
                    "required codec file `{file}` not found; if it moved, update the \
                     registry table in xtask/src/graph.rs"
                ),
            )),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn single(src: &str) -> Graph {
        let ctx = FileCtx::new("t.rs".into(), "fixture".into(), Policy::strict(), src);
        let mut vis = BTreeMap::new();
        vis.insert(
            "fixture".to_string(),
            BTreeSet::from(["fixture".to_string()]),
        );
        build(vec![ctx], &vis).0
    }

    fn edge_names(g: &Graph, caller: &str) -> Vec<String> {
        let id = g.fns.iter().position(|f| f.name == caller).unwrap();
        g.edges[id]
            .iter()
            .map(|e| g.fns[e.callee].qual_name())
            .collect()
    }

    #[test]
    fn free_and_method_calls_resolve() {
        let g = single(
            "fn helper() {}\nstruct S;\nimpl S { fn m(&self) { helper(); } }\nfn top(s: &S) { s.m(); }\n",
        );
        assert_eq!(edge_names(&g, "m"), vec!["helper"]);
        assert_eq!(edge_names(&g, "top"), vec!["S::m"]);
    }

    #[test]
    fn std_colliding_method_names_do_not_resolve_bare_calls() {
        // `v.resize(...)` is almost certainly `Vec::resize`, not the
        // workspace `S::resize` — the heuristic must not invent that edge.
        // The qualified spelling remains explicit and still resolves.
        let g = single(
            "struct S;\nimpl S { fn resize(&self) {} }\n\
             fn top(v: &mut Vec<u8>, s: &S) { v.resize(4, 0); S::resize(s); }\n",
        );
        assert_eq!(edge_names(&g, "top"), vec!["S::resize"]);
    }

    #[test]
    fn qualified_calls_require_matching_impl() {
        let g = single(
            "struct A;\nstruct B;\nimpl A { fn go() {} }\nimpl B { fn go() {} }\nfn top() { A::go(); }\n",
        );
        assert_eq!(edge_names(&g, "top"), vec!["A::go"]);
    }

    #[test]
    fn trait_impl_records_self_type() {
        let g = single("struct S;\nimpl Default for S { fn default() -> S { S } }\n");
        assert_eq!(g.fns[0].qual_name(), "S::default");
    }

    #[test]
    fn impl_trait_in_return_position_is_not_a_block() {
        let g = single(
            "fn inner() {}\nfn f() -> impl Iterator<Item = u8> { inner(); std::iter::empty() }\n",
        );
        assert_eq!(edge_names(&g, "f"), vec!["inner"]);
        assert!(g.fns.iter().all(|f| f.impl_type.is_none()));
    }

    #[test]
    fn test_code_contributes_no_fns_or_edges() {
        let g = single("fn live() {}\n#[cfg(test)]\nmod tests { fn t() { live(); } }\n");
        assert_eq!(g.fns.len(), 1);
        assert!(g.edges[0].is_empty());
    }

    #[test]
    fn annotations_attach_to_next_fn() {
        let g = single(
            "// analyze:hot-path -- test\nfn hot() {}\n// analyze:sink(out) -- test\nfn sink_fn() {}\n",
        );
        assert!(g.fns[0].hot_path);
        assert_eq!(g.fns[1].sink.as_deref(), Some("out"));
    }

    #[test]
    fn fn_pointer_path_reference_is_an_edge() {
        let g = single(
            "struct C;\nimpl C { fn make() -> C { C } }\nfn f(xs: &mut Vec<C>) { xs.resize_with(4, C::make); }\n",
        );
        assert_eq!(edge_names(&g, "f"), vec!["C::make"]);
    }
}
