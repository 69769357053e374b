//! One list of `TAXOREC_*` knobs. A knob exists when the source reads it:
//! a quoted `"TAXOREC_…"` literal under `crates/*/src`. README.md
//! documents exactly those names, and nothing else — no doc comment,
//! `--help` text or CI step — names a variable that is not read.
//!
//! Family mentions (`TAXOREC_INGEST_*`) name no single variable and are
//! exempt.

mod common;

use std::collections::BTreeSet;
use std::path::PathBuf;

use common::{read, root, rust_files};

/// The most knobs the workspace may read.
const MAX_KNOBS: usize = 26;

const PREFIX: &str = "TAXOREC_";

/// Every `.rs` file under `crates/*/src`.
fn source_files() -> Vec<PathBuf> {
    let mut files = Vec::new();
    for krate in std::fs::read_dir(root().join("crates")).expect("crates/") {
        rust_files(&krate.expect("crate entry").path().join("src"), &mut files);
    }
    files.sort();
    assert!(!files.is_empty(), "no sources found under crates/*/src");
    files
}

/// One occurrence of a `TAXOREC_` name: the character before it, the
/// name, the character after it, and its 1-based line.
struct Mention {
    before: char,
    name: String,
    after: char,
    line: usize,
}

impl Mention {
    /// `TAXOREC_INGEST_*`, `TAXOREC_*`: a family, not one variable.
    fn is_family(&self) -> bool {
        self.name.ends_with('_') && self.after == '*'
    }

    fn delimited_by(&self, open: char, close: char) -> bool {
        self.before == open && self.after == close
    }
}

fn mentions(text: &str) -> Vec<Mention> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(i) = text[from..].find(PREFIX) {
        let start = from + i;
        let tail = &text[start + PREFIX.len()..];
        let len = tail
            .bytes()
            .take_while(|b| b.is_ascii_uppercase() || b.is_ascii_digit() || *b == b'_')
            .count();
        let end = start + PREFIX.len() + len;
        out.push(Mention {
            before: text[..start].chars().next_back().unwrap_or(' '),
            name: text[start..end].to_string(),
            after: text[end..].chars().next().unwrap_or(' '),
            line: text[..start].matches('\n').count() + 1,
        });
        from = end;
    }
    out
}

/// The names the source reads: quoted literals under `crates/*/src`.
fn read_knobs() -> BTreeSet<String> {
    source_files()
        .iter()
        .flat_map(|f| mentions(&read(f)))
        .filter(|m| m.delimited_by('"', '"'))
        .map(|m| m.name)
        .collect()
}

#[test]
fn readme_documents_exactly_the_knobs_the_source_reads() {
    let knobs = read_knobs();
    let documented: BTreeSet<String> = mentions(&read(&root().join("README.md")))
        .into_iter()
        .filter(|m| m.delimited_by('`', '`'))
        .map(|m| m.name)
        .collect();
    let undocumented: Vec<_> = knobs.difference(&documented).collect();
    let unread: Vec<_> = documented.difference(&knobs).collect();
    assert!(
        undocumented.is_empty() && unread.is_empty(),
        "read but not in README.md: {undocumented:?}; in README.md but not read: {unread:?}"
    );
    assert!(
        knobs.len() <= MAX_KNOBS,
        "{} knobs, at most {MAX_KNOBS}: {knobs:?}",
        knobs.len()
    );
}

#[test]
fn every_name_in_sources_and_ci_is_a_knob_the_source_reads() {
    let knobs = read_knobs();
    let mut files = source_files();
    files.push(root().join(".github/workflows/ci.yml"));
    let mut stale = Vec::new();
    for file in &files {
        for m in mentions(&read(file)) {
            if !m.is_family() && !knobs.contains(&m.name) {
                let rel = file.strip_prefix(root()).unwrap_or(file);
                stale.push(format!("{}:{}: {}", rel.display(), m.line, m.name));
            }
        }
    }
    assert!(
        stale.is_empty(),
        "names no source reads:\n{}",
        stale.join("\n")
    );
}
