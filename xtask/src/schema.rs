//! Wire-format drift guard (`wire-format-drift`).
//!
//! The five hand-rolled codecs (WAL records, snapshots, proto frames, the
//! dedup-window export, the service journal) promise byte-identical replay
//! across crashes and sockets. All five write and read through the WAL's
//! one `Enc`/`Dec` cursor and its frame writer and scanner. Their encode/decode symmetry is tested at runtime, but a field
//! added to `encode` and `decode` *consistently* still silently breaks
//! compatibility with bytes already on disk — no test notices, because
//! both sides changed together.
//!
//! This pass makes such changes deliberate: in every `// analyze:codec`
//! file it finds the codec functions (names `encode*`/`decode*`/`put_*`/
//! `get_*`/`frame`/`frame_into`/`frame_with`/`deframe`/`next_frame` — the frame scanner is
//! `decode_frame`), extracts each one's **op
//! sequence** — the ordered list of wire-primitive calls it makes
//! (`u32`, `raw:8`, `u64::from_le_bytes`, `as:u8`, tag literals…) — and
//! fingerprints it (FNV-1a 64). Fingerprints are compared against the
//! checked-in golden schema (`xtask/wire_schema.json`); any mismatch is an
//! error until the schema is regenerated with
//! `cargo xtask analyze --bless-schema`, which shows up in review as a
//! one-line diff per changed record — the deliberate bump the issue asks
//! for.
//!
//! The op vocabulary is lexical and codec-specific: primitive read/write
//! helpers, buffer ops, composite record helpers, checksum and
//! byte-conversion calls, plus `as:<ty>` casts. An op records its
//! qualifier when path-called (`u32::from_le_bytes`) and its first
//! argument when that is an integer literal (tag bytes: `u8:3`), so both
//! field *order* and tag *values* are covered by the fingerprint.

use std::collections::BTreeMap;

use crate::allow::find_covering;
use crate::diag::Diagnostic;
use crate::graph::Graph;
use crate::lexer::TokKind;

const RULE: &str = "wire-format-drift";

/// Wire-primitive identifiers that count as schema ops when called.
const OP_VOCAB: &[&str] = &[
    // Enc/Dec primitive helpers.
    "u8",
    "u16",
    "u32",
    "u64",
    "u128",
    "i8",
    "i16",
    "i32",
    "i64",
    "f32",
    "f64",
    "raw",
    "take",
    "count",
    // Buffer ops that move wire bytes.
    "push",
    "extend_from_slice",
    // Composite record helpers.
    "put_resources",
    "put_placement",
    "get_placement",
    "put_transition",
    "get_transition",
    "put_gate_states",
    "get_gate_states",
    "put_disposition",
    "get_disposition",
    // Nested codec entry points.
    "encode",
    "decode",
    "encode_into",
    "decode_from",
    "frame",
    "frame_into",
    "frame_with",
    "deframe",
    "next_frame",
    "decode_frame",
    // Integrity and byte conversion.
    "crc32",
    "to_le_bytes",
    "from_le_bytes",
];

/// One fingerprinted codec function.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SchemaEntry {
    /// Diagnostic file label.
    pub file: String,
    /// `Type::name` qualified function name.
    pub fn_name: String,
    /// FNV-1a 64 hex over the joined op sequence.
    pub fingerprint: String,
    /// The op sequence itself (kept in the golden file so reviewers can
    /// read *what* changed, not just that something did).
    pub ops: Vec<String>,
    /// Anchor for diagnostics (not serialized).
    pub line: u32,
    /// Anchor column (not serialized).
    pub col: u32,
    /// File index into the graph (not serialized).
    pub file_idx: usize,
}

/// True when a function name marks a codec entry point.
pub fn is_codec_fn(name: &str) -> bool {
    matches!(
        name,
        "encode" | "decode" | "frame" | "frame_into" | "frame_with" | "deframe" | "next_frame"
    ) || name.starts_with("put_")
        || name.starts_with("get_")
        || name.starts_with("encode_")
        || name.starts_with("decode_")
}

/// Extracts schema entries from every `analyze:codec` file in the graph,
/// sorted by (file, fn).
pub fn extract(g: &Graph) -> Vec<SchemaEntry> {
    let mut out = Vec::new();
    for (id, info) in g.fns.iter().enumerate() {
        let file = &g.files[info.file];
        if !file.is_codec || !is_codec_fn(&info.name) {
            continue;
        }
        let ops = op_sequence(g, id);
        let fingerprint = fnv1a64(&ops.join(","));
        out.push(SchemaEntry {
            file: file.label.clone(),
            fn_name: info.qual_name(),
            fingerprint,
            ops,
            line: info.line,
            col: info.col,
            file_idx: info.file,
        });
    }
    out.sort_by(|a, b| (&a.file, &a.fn_name).cmp(&(&b.file, &b.fn_name)));
    out
}

/// Walks one function body emitting its ordered op sequence.
fn op_sequence(g: &Graph, f: usize) -> Vec<String> {
    let info = &g.fns[f];
    let file = &g.files[info.file];
    let toks = &file.lexed.tokens;
    let (lo, hi) = info.body;
    let mut ops = Vec::new();
    let mut i = lo;
    while i <= hi {
        if file.exempt[i] {
            i += 1;
            continue;
        }
        let t = &toks[i];
        if t.kind == TokKind::Ident && t.text == "as" {
            if let Some(ty) = toks.get(i + 1).filter(|n| n.kind == TokKind::Ident) {
                ops.push(format!("as:{}", ty.text));
                i += 2;
                continue;
            }
        }
        if t.kind == TokKind::Ident
            && OP_VOCAB.contains(&t.text.as_str())
            && toks.get(i + 1).is_some_and(|n| n.text == "(")
        {
            let mut op = String::new();
            // Qualified form: `u32::from_le_bytes`.
            if i >= 3
                && toks[i - 1].text == ":"
                && toks[i - 2].text == ":"
                && toks[i - 3].kind == TokKind::Ident
            {
                op.push_str(&toks[i - 3].text);
                op.push_str("::");
            }
            op.push_str(&t.text);
            // Tag literal: `e.u8(3)`.
            if let Some(arg) = toks.get(i + 2) {
                if arg.kind == TokKind::Int && toks.get(i + 3).is_some_and(|n| n.text == ")") {
                    op.push(':');
                    op.push_str(&arg.text);
                }
            }
            ops.push(op);
        }
        i += 1;
    }
    ops
}

/// FNV-1a 64-bit hex digest.
fn fnv1a64(s: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Renders the golden schema file: a JSON array, one entry per line, so
/// codec changes review as single-line diffs.
pub fn render(entries: &[SchemaEntry]) -> String {
    let mut out = String::from("[\n");
    for (i, e) in entries.iter().enumerate() {
        out.push_str(&format!(
            "{{\"file\":\"{}\",\"fn\":\"{}\",\"fingerprint\":\"{}\",\"ops\":\"{}\"}}",
            e.file,
            e.fn_name,
            e.fingerprint,
            e.ops.join(",")
        ));
        out.push_str(if i + 1 == entries.len() { "\n" } else { ",\n" });
    }
    out.push_str("]\n");
    out
}

/// Parses a golden schema file back into `(file, fn) -> fingerprint`.
/// Field extraction is by key pattern, tolerant of whitespace-only
/// variation; the file is machine-written so this stays simple.
pub fn parse_golden(text: &str) -> BTreeMap<(String, String), String> {
    let mut out = BTreeMap::new();
    for line in text.lines() {
        let Some(file) = field(line, "file") else {
            continue;
        };
        let Some(fn_name) = field(line, "fn") else {
            continue;
        };
        let Some(fp) = field(line, "fingerprint") else {
            continue;
        };
        out.insert((file, fn_name), fp);
    }
    out
}

fn field(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":\"");
    let start = line.find(&pat)? + pat.len();
    let end = line[start..].find('"')? + start;
    Some(line[start..end].to_string())
}

/// Compares current entries against the golden text. Returns diagnostics
/// plus used-allow `(file index, allow index)` pairs.
pub fn compare(
    g: &Graph,
    current: &[SchemaEntry],
    golden_text: &str,
    golden_path_label: &str,
) -> (Vec<Diagnostic>, Vec<(usize, usize)>) {
    let golden = parse_golden(golden_text);
    let mut diags = Vec::new();
    let mut used_allows = Vec::new();
    let mut matched: BTreeMap<(String, String), bool> =
        golden.keys().map(|k| (k.clone(), false)).collect();

    for e in current {
        let key = (e.file.clone(), e.fn_name.clone());
        let finding = match golden.get(&key) {
            Some(fp) if *fp == e.fingerprint => {
                matched.insert(key, true);
                continue;
            }
            Some(fp) => {
                matched.insert(key, true);
                format!(
                    "wire format of `{}` changed: fingerprint {} != golden {} (ops now: {}); \
                     if the change is deliberate, regenerate the schema with \
                     `cargo xtask analyze --bless-schema` and commit the diff",
                    e.fn_name,
                    e.fingerprint,
                    fp,
                    e.ops.join(",")
                )
            }
            None => format!(
                "codec fn `{}` is not in the golden wire schema ({golden_path_label}); \
                 add it with `cargo xtask analyze --bless-schema`",
                e.fn_name
            ),
        };
        let file = &g.files[e.file_idx];
        if let Some(ai) = find_covering(&file.allows, &file.lexed.comments, RULE, e.line) {
            used_allows.push((e.file_idx, ai));
            continue;
        }
        diags.push(Diagnostic::error(RULE, &e.file, e.line, e.col, finding));
    }

    for ((file, fn_name), was_matched) in &matched {
        if !was_matched {
            diags.push(Diagnostic::error(
                RULE,
                file,
                1,
                1,
                format!(
                    "golden wire schema lists `{fn_name}` but no such codec fn exists; \
                     deleting a codec is a compatibility break — if deliberate, \
                     regenerate with `cargo xtask analyze --bless-schema`"
                ),
            ));
        }
    }
    (diags, used_allows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{build, FileCtx};
    use crate::policy::Policy;
    use std::collections::BTreeSet;

    fn graph_of(src: &str) -> Graph {
        let ctx = FileCtx::new("t.rs".into(), "fixture".into(), Policy::strict(), src);
        let mut vis = BTreeMap::new();
        vis.insert(
            "fixture".to_string(),
            BTreeSet::from(["fixture".to_string()]),
        );
        build(vec![ctx], &vis).0
    }

    const CODEC: &str = "// analyze:codec -- test\n\
        struct R;\n\
        impl R {\n\
        fn encode(&self, e: &mut Enc) { e.u8(1); e.u32(self.n); e.raw(&self.bytes); }\n\
        fn decode(d: &mut Dec) -> R { let tag = d.u8(); let n = d.u32(); R }\n\
        }\n";

    #[test]
    fn ops_capture_order_qualifiers_and_tag_literals() {
        let g = graph_of(CODEC);
        let entries = extract(&g);
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].fn_name, "R::decode");
        assert_eq!(entries[1].fn_name, "R::encode");
        assert_eq!(entries[1].ops, vec!["u8:1", "u32", "raw"]);
        assert_eq!(entries[0].ops, vec!["u8", "u32"]);
    }

    #[test]
    fn field_reorder_changes_fingerprint_and_is_flagged() {
        let g = graph_of(CODEC);
        let golden = render(&extract(&g));
        let reordered = CODEC.replace("e.u8(1); e.u32(self.n);", "e.u32(self.n); e.u8(1);");
        let g2 = graph_of(&reordered);
        let (d, _) = compare(&g2, &extract(&g2), &golden, "golden.json");
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "wire-format-drift");
        assert!(d[0].message.contains("R::encode"), "{}", d[0].message);
    }

    #[test]
    fn unchanged_codec_is_clean_and_roundtrips_through_render() {
        let g = graph_of(CODEC);
        let entries = extract(&g);
        let golden = render(&entries);
        let (d, _) = compare(&g, &entries, &golden, "golden.json");
        assert!(d.is_empty(), "{d:?}");
        assert_eq!(parse_golden(&golden).len(), 2);
    }

    #[test]
    fn deleted_codec_fn_is_flagged_from_golden() {
        let g = graph_of(CODEC);
        let golden = render(&extract(&g));
        let shrunk = CODEC.replace(
            "fn decode(d: &mut Dec) -> R { let tag = d.u8(); let n = d.u32(); R }\n",
            "",
        );
        let g2 = graph_of(&shrunk);
        let (d, _) = compare(&g2, &extract(&g2), &golden, "golden.json");
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("R::decode"), "{}", d[0].message);
    }

    #[test]
    fn casts_are_part_of_the_fingerprint() {
        let g = graph_of(
            "// analyze:codec -- test\n\
             fn encode_len(e: &mut Enc, n: usize) { e.u32(n as u32); }\n",
        );
        let entries = extract(&g);
        assert_eq!(entries[0].ops, vec!["u32", "as:u32"]);
    }
}
