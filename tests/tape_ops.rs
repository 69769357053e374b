//! The autodiff tape records what production records. Every op kind in
//! `OP_NAMES` (`crates/autodiff/src/tape.rs`) is the name of the `Tape`
//! method that records it, and each one must be called as `.name(`
//! somewhere in the production sources: `crates/*/src` outside
//! `crates/autodiff`, `src/` and `examples/`. A kind that only tests
//! record is dead weight in the tape and its backward; delete it, or
//! exempt it below with the reason.
//!
//! The match is textual, so an unrelated method of the same name also
//! counts as a call.

use std::path::{Path, PathBuf};

/// Kinds no production source needs to call, with the reason. `leaf` is
/// entered through `leaf_copy` as often as through `leaf`.
const EXEMPT: [(&str, &str); 2] = [
    (
        "leaf",
        "parameters enter through `leaf_copy`, which records a leaf too",
    ),
    (
        "sum_all",
        "the loss reducer of the tests, which check gradients through it",
    ),
];

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The production sources: `crates/*/src` but autodiff's, `src/` and
/// `examples/`.
fn production_sources() -> Vec<PathBuf> {
    let mut files = Vec::new();
    for krate in std::fs::read_dir(root().join("crates")).expect("crates/") {
        let krate = krate.expect("crate entry").path();
        if !krate.ends_with("autodiff") {
            rust_files(&krate.join("src"), &mut files);
        }
    }
    rust_files(&root().join("src"), &mut files);
    rust_files(&root().join("examples"), &mut files);
    assert!(!files.is_empty(), "no production sources found");
    files
}

/// The quoted names of `OP_NAMES`, after checking that they are as many
/// as its type says.
fn op_names() -> Vec<String> {
    let tape = read(&root().join("crates/autodiff/src/tape.rs"));
    let start = tape
        .find("const OP_NAMES: [&str; ")
        .expect("tape.rs declares OP_NAMES");
    let decl = &tape[start..];
    let len: usize = decl["const OP_NAMES: [&str; ".len()..]
        .split(']')
        .next()
        .and_then(|n| n.trim().parse().ok())
        .expect("OP_NAMES has a literal length");
    let body = &decl[decl.find("= [").expect("OP_NAMES initializer")..];
    let body = &body[..body.find("];").expect("OP_NAMES ends")];
    let names: Vec<String> = body
        .split('"')
        .skip(1)
        .step_by(2)
        .map(str::to_string)
        .collect();
    assert_eq!(names.len(), len, "OP_NAMES lists {len} kinds: {names:?}");
    names
}

#[test]
fn every_tape_op_kind_has_a_production_caller() {
    let sources: Vec<String> = production_sources().iter().map(|f| read(f)).collect();
    let called = |name: &str| {
        let call = format!(".{name}(");
        sources.iter().any(|s| s.contains(&call))
    };
    let names = op_names();
    let exempt = |name: &str| EXEMPT.iter().any(|(n, _)| *n == name);
    let dead: Vec<&String> = names.iter().filter(|n| !exempt(n) && !called(n)).collect();
    assert!(
        dead.is_empty(),
        "tape op kinds no production source records: {dead:?}"
    );
    for (name, why) in EXEMPT {
        assert!(
            names.iter().any(|n| n == name),
            "exempt kind `{name}` ({why}) is no op kind"
        );
    }
}
