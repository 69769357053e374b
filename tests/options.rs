//! Every option field is set by something besides its default. A pub
//! field of a listed option struct passes when a struct literal of its
//! type names it outside the type's own `Default` (a `Self { … }`
//! literal counts inside any other `impl` of the type), or when an
//! assignment `.field = …` sets it. The setters are looked for in
//! `crates/*/src`, `crates/*/tests`, `tests/`, `examples/` and
//! `perfbench/src`. A field nothing sets holds its default forever: it
//! becomes a named constant beside the code that reads it.
//!
//! Every `pub struct` in `crates/*/src` whose name ends in `Options`,
//! `Config`, `Control` or `Opts` is listed or excluded with a reason,
//! and a listed or excluded struct the scan cannot find fails the test.
//! The match is textual, on code with comments and literals blanked, so
//! a destructuring pattern that names a field also counts as setting it.

mod common;

use std::collections::BTreeSet;
use std::path::PathBuf;

use common::{read, root, rust_files};

/// The option structs whose fields must each be set somewhere.
const LISTED: [&str; 10] = [
    "BatchOptions",
    "ConstructConfig",
    "EmbedConfig",
    "FitControl",
    "IncrementalConfig",
    "IndexConfig",
    "IngestOptions",
    "RetryPolicy",
    "RouterOptions",
    "ServeOptions",
];

/// Option structs left out of the check, and why.
const EXCLUDED: [(&str, &str); 3] = [
    (
        "TaxoRecConfig",
        "stored in the `.taxo` artifact; ROADMAP 14 decides its defaults",
    ),
    (
        "SynthConfig",
        "holds the synthetic generator's levers (ROADMAP 10)",
    ),
    (
        "TrainOpts",
        "the baselines' training budget (ROADMAP 16(b))",
    ),
];

/// Name suffixes that make a struct an option struct.
const SUFFIXES: [&str; 4] = ["Options", "Config", "Control", "Opts"];

fn crate_dirs(sub: &str) -> Vec<PathBuf> {
    let mut files = Vec::new();
    for krate in std::fs::read_dir(root().join("crates")).expect("crates/") {
        rust_files(&krate.expect("crate entry").path().join(sub), &mut files);
    }
    files.sort();
    files
}

/// `text` with comments and the contents of string and char literals
/// blanked, lines and byte offsets kept.
fn code_only(text: &str) -> String {
    let b = text.as_bytes();
    let mut out = b.to_vec();
    let blank = |out: &mut Vec<u8>, from: usize, to: usize| {
        for c in &mut out[from..to.min(b.len())] {
            if *c != b'\n' {
                *c = b' ';
            }
        }
    };
    let mut j = 0;
    while j < b.len() {
        match b[j] {
            b'/' if b.get(j + 1) == Some(&b'/') => {
                let end = text[j..].find('\n').map_or(b.len(), |e| j + e);
                blank(&mut out, j, end);
                j = end;
            }
            b'/' if b.get(j + 1) == Some(&b'*') => {
                let end = text[j + 2..].find("*/").map_or(b.len(), |e| j + e + 4);
                blank(&mut out, j, end);
                j = end;
            }
            b'r' if text[j..].starts_with("r#\"") || text[j..].starts_with("r\"") => {
                let hashes = text[j + 1..].bytes().take_while(|&c| c == b'#').count();
                let close = format!("\"{}", "#".repeat(hashes));
                let open = j + 2 + hashes;
                let end = text[open..]
                    .find(&close)
                    .map_or(b.len(), |e| open + e + close.len());
                blank(&mut out, open, end - close.len());
                j = end;
            }
            b'"' => {
                let mut k = j + 1;
                while k < b.len() && b[k] != b'"' {
                    k += if b[k] == b'\\' { 2 } else { 1 };
                }
                blank(&mut out, j + 1, k);
                j = k + 1;
            }
            b'\'' => {
                // A char literal, or a lifetime left as it is.
                let end = if b.get(j + 1) == Some(&b'\\') {
                    text[j + 2..].find('\'').map(|e| j + 2 + e)
                } else {
                    let len = text[j + 1..].chars().next().map_or(1, char::len_utf8);
                    (b.get(j + 1 + len) == Some(&b'\'')).then_some(j + 1 + len)
                };
                match end {
                    Some(end) => {
                        blank(&mut out, j + 1, end);
                        j = end + 1;
                    }
                    None => j += 1,
                }
            }
            _ => j += 1,
        }
    }
    String::from_utf8(out).expect("blanking keeps UTF-8: only ASCII is written over")
}

fn ident_char(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// The byte after the brace that closes the one at `open`.
fn block_end(code: &str, open: usize) -> usize {
    let mut depth = 0usize;
    for (i, c) in code[open..].bytes().enumerate() {
        match c {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return open + i + 1;
                }
            }
            _ => {}
        }
    }
    code.len()
}

/// Start offsets of `word` in `code` as a whole identifier.
fn words<'a>(code: &'a str, word: &'a str) -> impl Iterator<Item = usize> + 'a {
    let b = code.as_bytes();
    code.match_indices(word)
        .map(|(at, _)| at)
        .filter(move |&at| {
            (at == 0 || !ident_char(b[at - 1]))
                && b.get(at + word.len()).is_none_or(|&c| !ident_char(c))
        })
}

/// The identifier that ends just before `at`, whitespace skipped.
fn word_before(code: &str, at: usize) -> &str {
    let head = code[..at].trim_end();
    let start = head
        .bytes()
        .rposition(|c| !ident_char(c))
        .map_or(0, |p| p + 1);
    &head[start..]
}

/// The pub fields of `pub struct name { … }` in `code`, or `None` when
/// `code` does not define it.
fn pub_fields(code: &str, name: &str) -> Option<Vec<String>> {
    let at = words(code, name).find(|&at| word_before(code, at) == "struct")?;
    let open = at + code[at..].find('{')?;
    let body = &code[open + 1..block_end(code, open) - 1];
    Some(
        body.lines()
            .filter_map(|l| l.trim().strip_prefix("pub "))
            .filter_map(|l| l.split_once(':'))
            .map(|(field, _)| field.trim().to_string())
            .collect(),
    )
}

/// The `impl` blocks of `name` as `(start, end, is_default)`.
fn impls(code: &str, name: &str) -> Vec<(usize, usize, bool)> {
    let mut out = Vec::new();
    for at in words(code, "impl") {
        let Some(open) = code[at..].find('{').map(|o| at + o) else {
            continue;
        };
        let header = &code[at..open];
        let target = header.rsplit(" for ").next().unwrap_or(header);
        if words(target, name).next().is_none() {
            continue;
        }
        let is_default = header.contains(" for ") && words(header, "Default").next().is_some();
        out.push((at, block_end(code, open), is_default));
    }
    out
}

/// The field names a struct literal whose `{` is at `open` sets.
fn literal_fields(code: &str, open: usize) -> Vec<String> {
    let body = &code[open + 1..block_end(code, open) - 1];
    let mut pieces = Vec::new();
    let (mut depth, mut from) = (0i32, 0);
    for (i, c) in body.bytes().enumerate() {
        match c {
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' | b'}' => depth -= 1,
            b',' if depth == 0 => {
                pieces.push(&body[from..i]);
                from = i + 1;
            }
            _ => {}
        }
    }
    pieces.push(&body[from..]);
    pieces
        .into_iter()
        .filter_map(|p| {
            let p = p.trim();
            let len = p.bytes().take_while(|&c| ident_char(c)).count();
            let rest = &p[len..];
            let named = rest.is_empty() || (rest.starts_with(':') && !rest.starts_with("::"));
            (len > 0 && named).then(|| p[..len].to_string())
        })
        .collect()
}

/// The fields of `name` that struct literals in `code` set.
fn literals_of(code: &str, name: &str) -> BTreeSet<String> {
    let impls = impls(code, name);
    let in_default = |at: usize| impls.iter().any(|&(s, e, d)| d && s <= at && at < e);
    let in_own_impl = |at: usize| impls.iter().any(|&(s, e, d)| !d && s <= at && at < e);
    let opens = |at: usize, len: usize| {
        let rest = &code[at + len..];
        rest.trim_start()
            .starts_with('{')
            .then(|| at + len + rest.find('{').expect("just seen"))
    };
    let mut out = BTreeSet::new();
    for at in words(code, name) {
        let decl = matches!(word_before(code, at), "struct" | "impl" | "for" | "enum");
        if let Some(open) = opens(at, name.len()).filter(|_| !decl && !in_default(at)) {
            out.extend(literal_fields(code, open));
        }
    }
    for at in words(code, "Self").filter(|&at| in_own_impl(at)) {
        if let Some(open) = opens(at, "Self".len()) {
            out.extend(literal_fields(code, open));
        }
    }
    out
}

/// Every field name assigned with `.field = …` in `code`.
fn assigned(code: &str) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for (at, _) in code.match_indices('.') {
        let len = code[at + 1..]
            .bytes()
            .take_while(|&c| ident_char(c))
            .count();
        let rest = code[at + 1 + len..].trim_start().as_bytes();
        if len > 0 && rest.first() == Some(&b'=') && rest.get(1) != Some(&b'=') {
            out.insert(code[at + 1..at + 1 + len].to_string());
        }
    }
    out
}

/// The files a setter may live in.
fn setter_files() -> Vec<PathBuf> {
    let mut files = crate_dirs("src");
    files.extend(crate_dirs("tests"));
    for dir in ["tests", "examples", "perfbench/src"] {
        rust_files(&root().join(dir), &mut files);
    }
    files
}

#[test]
fn every_field_of_a_listed_option_struct_is_set_somewhere() {
    let sources: Vec<String> = crate_dirs("src")
        .iter()
        .map(|f| code_only(&read(f)))
        .collect();
    let setters: Vec<String> = setter_files().iter().map(|f| code_only(&read(f))).collect();
    let assigned: BTreeSet<String> = setters.iter().flat_map(|c| assigned(c)).collect();
    let mut unset = Vec::new();
    for name in LISTED {
        let fields = sources
            .iter()
            .find_map(|code| pub_fields(code, name))
            .unwrap_or_else(|| panic!("no `pub struct {name}` under crates/*/src"));
        assert!(!fields.is_empty(), "`{name}` has no pub fields");
        let set: BTreeSet<String> = setters.iter().flat_map(|c| literals_of(c, name)).collect();
        unset.extend(
            fields
                .into_iter()
                .filter(|f| !set.contains(f) && !assigned.contains(f))
                .map(|f| format!("{name}::{f}")),
        );
    }
    assert!(
        unset.is_empty(),
        "option fields nothing sets (make each a named constant):\n{}",
        unset.join("\n")
    );
}

#[test]
fn every_option_struct_is_listed_or_excluded() {
    let mut found = Vec::new();
    let mut unlisted = Vec::new();
    for file in crate_dirs("src") {
        let code = code_only(&read(&file));
        for at in words(&code, "struct") {
            let rest = &code[at + "struct".len()..];
            let rest = rest.trim_start();
            let len = rest.bytes().take_while(|&c| ident_char(c)).count();
            let name = &rest[..len];
            if word_before(&code, at) != "pub" || !SUFFIXES.iter().any(|s| name.ends_with(s)) {
                continue;
            }
            found.push(name.to_string());
            if !LISTED.contains(&name) && !EXCLUDED.iter().any(|(n, _)| *n == name) {
                unlisted.push(name.to_string());
            }
        }
    }
    assert!(
        unlisted.is_empty(),
        "option structs neither listed nor excluded: {unlisted:?}"
    );
    let stale: Vec<_> = EXCLUDED
        .iter()
        .filter(|(n, _)| !found.iter().any(|f| f == n))
        .collect();
    assert!(stale.is_empty(), "exclusions no source defines: {stale:?}");
}
