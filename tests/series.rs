//! Every telemetry series has a reader. A series is registered in
//! `crates/*/src` by a literal name passed to `counter`, `gauge`,
//! `histogram`, `held_counter!`, `observe_ms` or `Shedder::new`, by a
//! `PoolSpec` `metric` (which counts `<metric>.spawn_failed`), by a
//! `Red::new` server (its `<server>.<endpoint>.{ms,requests,errors}`
//! family), or as a `format!` family (`train.op.{op}.fwd_ms`), which is
//! known by the text before its first `{`.
//!
//! A name is read when an integration test (`tests/`, `crates/*/tests`),
//! perfbench's sources, `taxorec-loadgen`, a CI step or a row of the
//! operator table in DESIGN.md §9 names it, in dotted form
//! (`serve.cache.hit`) or Prometheus form (`taxorec_serve_cache_hit_total`,
//! with or without the `taxorec_` prefix). A family is read when its
//! prefix is, a `Red` family when one of its names is, or its labelled
//! Prometheus family (`<server>_endpoint_<leaf>`). A unit test next to a
//! call site is no reader: it only shows the series was published. A series nothing reads is deleted with its call site, or
//! given a reader.
//!
//! `test.*` names and registrations inside `#[cfg(test)]` items are not
//! series. The match is textual, so a reader that names a series for
//! another reason (a fault site of the same name) still counts.

mod common;

use std::path::{Path, PathBuf};

use common::{read, root, rust_files};

/// The calls whose first argument, a literal, names a series.
const REGISTRARS: [&str; 6] = [
    "counter(",
    "gauge(",
    "histogram(",
    "held_counter!(",
    "observe_ms(",
    "Shedder::new(",
];

/// A `PoolSpec` literal, whose `metric` names `<metric>.spawn_failed`.
const POOL: &str = "PoolSpec {";

/// A `Red` server, whose family is `<server>.<endpoint>.<leaf>`.
const RED: &str = "Red::new(";

/// The leaves of a `Red` family, one each per endpoint.
const RED_LEAVES: [&str; 3] = ["ms", "requests", "errors"];

/// Prometheus suffixes a reader may put after a mangled name.
const PROM_SUFFIXES: [&str; 4] = ["_total", "_sum", "_count", "_bucket"];

#[derive(Debug)]
enum Series {
    Name(String),
    /// The text of a `format!` name before its first `{`.
    Family(String),
    /// A `Red::new` server: every `<server>.<endpoint>.<leaf>`.
    Red(String),
}

/// A series, the pattern that found it, and where it is registered.
struct Site {
    series: Series,
    via: &'static str,
    at: String,
}

fn crate_sources() -> Vec<PathBuf> {
    let mut files = Vec::new();
    for krate in std::fs::read_dir(root().join("crates")).expect("crates/") {
        rust_files(&krate.expect("crate entry").path().join("src"), &mut files);
    }
    files.sort();
    assert!(!files.is_empty(), "no sources found under crates/*/src");
    files
}

/// `text` with every `#[cfg(test)]` item blanked out, lines kept. The
/// item ends at its first `;` or at the brace that closes its first `{`,
/// counted outside string and char literals.
fn without_tests(text: &str) -> String {
    const ATTR: &str = "#[cfg(test)]";
    let mut out = text.as_bytes().to_vec();
    let mut from = 0;
    while let Some(i) = text[from..].find(ATTR) {
        let start = from + i;
        let bytes = text.as_bytes();
        let mut j = start + ATTR.len();
        let mut depth = 0usize;
        while j < bytes.len() {
            match bytes[j] {
                b'"' => {
                    j += 1;
                    while j < bytes.len() && bytes[j] != b'"' {
                        j += if bytes[j] == b'\\' { 2 } else { 1 };
                    }
                }
                b'\'' if bytes.get(j + 2) == Some(&b'\'') => j += 2,
                b'{' => depth += 1,
                b'}' if depth <= 1 => break,
                b'}' => depth -= 1,
                b';' if depth == 0 => break,
                _ => {}
            }
            j += 1;
        }
        let end = (j + 1).min(bytes.len());
        for b in &mut out[start..end] {
            if *b != b'\n' {
                *b = b' ';
            }
        }
        from = end;
    }
    String::from_utf8(out).expect("blanking keeps UTF-8: only ASCII is written over")
}

/// The string literal `rest` opens with, after whitespace, or `None`.
fn literal(rest: &str) -> Option<&str> {
    let rest = rest.trim_start().strip_prefix('"')?;
    Some(&rest[..rest.find('"')?])
}

/// Every series registered in `text`, with the pattern that found it
/// and its 1-based line.
fn registrations(text: &str) -> Vec<(Series, &'static str, usize)> {
    let line = |at: usize| text[..at].matches('\n').count() + 1;
    let mut out = Vec::new();
    for call in REGISTRARS {
        for (at, _) in text.match_indices(call) {
            let rest = &text[at + call.len()..];
            if let Some(name) = literal(rest) {
                out.push((Series::Name(name.to_string()), call, line(at)));
            } else if let Some(name) = rest
                .trim_start()
                .strip_prefix("&format!(")
                .and_then(literal)
            {
                let prefix = &name[..name.find('{').unwrap_or(name.len())];
                // `{}.spawn_failed` is the `PoolSpec` helper's, scanned below.
                if !prefix.is_empty() {
                    out.push((Series::Family(prefix.to_string()), call, line(at)));
                }
            }
        }
    }
    for (at, _) in text.match_indices(POOL) {
        let body = &text[at..at + text[at..].find('}').expect("PoolSpec literal closes")];
        if let Some(pool) = body.find("metric: ").and_then(|m| literal(&body[m + 8..])) {
            out.push((Series::Name(format!("{pool}.spawn_failed")), POOL, line(at)));
        }
    }
    for (at, _) in text.match_indices(RED) {
        if let Some(server) = literal(&text[at + RED.len()..]) {
            out.push((Series::Red(server.to_string()), RED, line(at)));
        }
    }
    out
}

fn sites() -> Vec<Site> {
    let mut out = Vec::new();
    for file in crate_sources() {
        let rel = file
            .strip_prefix(root())
            .unwrap_or(&file)
            .display()
            .to_string();
        for (series, via, line) in registrations(&without_tests(&read(&file))) {
            let name = match &series {
                Series::Name(n) | Series::Family(n) | Series::Red(n) => n,
            };
            if !name.starts_with("test.") {
                out.push(Site {
                    series,
                    via,
                    at: format!("{rel}:{line}"),
                });
            }
        }
    }
    out
}

/// The labels `Endpoint::label` gives, which a `Red` family's names
/// carry.
fn endpoint_labels() -> Vec<String> {
    let net = read(&root().join("crates/serve/src/net.rs"));
    let start = net
        .find("fn label(self)")
        .expect("net.rs has Endpoint::label");
    let body = &net[start..start + net[start..].find("\n    }\n").expect("label ends")];
    body.split("=> \"")
        .skip(1)
        .map(|arm| arm[..arm.find('"').expect("label closes")].to_string())
        .collect()
}

fn name_char(c: Option<char>) -> bool {
    c.is_some_and(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Whether a name starts at byte `at` of `text`: nothing of a longer
/// name before it, or `taxorec_`, the Prometheus prefix.
fn starts_at(text: &str, at: usize) -> bool {
    let c = text[..at].chars().next_back();
    (!name_char(c) && c != Some('.')) || text[..at].ends_with("taxorec_")
}

/// Whether `text` names `name` whole: in dotted form, not as part of a
/// longer dotted name, or in Prometheus form (`.` as `_`, `taxorec_`
/// before it or not), with or without a suffix.
fn names(text: &str, name: &str) -> bool {
    let dotted = text.match_indices(name).any(|(at, _)| {
        let mut after = text[at + name.len()..].chars();
        let next = after.next();
        starts_at(text, at) && !name_char(next) && (next != Some('.') || !name_char(after.next()))
    });
    let prom = name.replace('.', "_");
    dotted
        || text.match_indices(&prom).any(|(at, _)| {
            let rest = &text[at + prom.len()..];
            let rest = PROM_SUFFIXES
                .iter()
                .find_map(|s| rest.strip_prefix(s))
                .unwrap_or(rest);
            starts_at(text, at) && !name_char(rest.chars().next())
        })
}

/// Whether `text` names a name that starts with `prefix`.
fn names_prefix(text: &str, prefix: &str) -> bool {
    let prom = prefix.replace('.', "_");
    [prefix, prom.as_str()]
        .iter()
        .any(|p| text.match_indices(p).any(|(at, _)| starts_at(text, at)))
}

/// The names in the first cell of each row of DESIGN.md §9's operator
/// table: every backquoted one.
fn operator_table() -> Vec<String> {
    let design = read(&root().join("DESIGN.md"));
    let start = design.find("\n## 9. ").expect("DESIGN.md has §9");
    let section = &design[start + 1..];
    let section = &section[..section.find("\n## ").unwrap_or(section.len())];
    section
        .lines()
        .filter_map(|l| l.strip_prefix("| `"))
        .flat_map(|l| {
            let cell = &l[..l.find(" |").expect("a row has a second cell")];
            cell.split('`')
                .step_by(2)
                .map(str::to_string)
                .collect::<Vec<_>>()
        })
        .collect()
}

/// Everything that reads a series: tests, perfbench, loadgen, CI and the
/// operator table.
fn readers() -> Vec<String> {
    let mut files = Vec::new();
    rust_files(&root().join("tests"), &mut files);
    for krate in std::fs::read_dir(root().join("crates")).expect("crates/") {
        rust_files(
            &krate.expect("crate entry").path().join("tests"),
            &mut files,
        );
    }
    rust_files(&root().join("perfbench/src"), &mut files);
    files.push(root().join("crates/bench/src/bin/loadgen.rs"));
    files.push(root().join(".github/workflows/ci.yml"));
    let this = Path::new(file!()).file_name().expect("this file");
    let mut out: Vec<String> = files
        .iter()
        .filter(|f| f.file_name() != Some(this))
        .map(|f| read(f))
        .collect();
    out.push(operator_table().join("\n"));
    out
}

fn is_read(series: &Series, readers: &[String], labels: &[String]) -> bool {
    readers.iter().any(|text| match series {
        Series::Name(name) => names(text, name),
        Series::Family(prefix) => names_prefix(text, prefix),
        Series::Red(server) => {
            names_prefix(text, &format!("{server}.endpoint."))
                || labels.iter().any(|label| {
                    RED_LEAVES
                        .iter()
                        .any(|leaf| names(text, &format!("{server}.{label}.{leaf}")))
                })
        }
    })
}

#[test]
fn every_registered_series_has_a_reader() {
    let sites = sites();
    let readers = readers();
    let labels = endpoint_labels();
    assert!(labels.len() >= 2, "Endpoint labels: {labels:?}");
    // A pattern that finds nothing has lost its call sites to a rename,
    // and would pass every series it no longer sees.
    for via in REGISTRARS.iter().chain(&[POOL, RED]) {
        assert!(
            sites.iter().any(|s| s.via == *via),
            "no series registered through `{via}`"
        );
    }
    let unread: Vec<String> = sites
        .iter()
        .filter(|s| !is_read(&s.series, &readers, &labels))
        .map(|s| format!("{}: {:?}", s.at, s.series))
        .collect();
    assert!(
        unread.is_empty(),
        "series no test, perfbench, loadgen, CI step or operator-table row reads:\n{}",
        unread.join("\n")
    );
}

#[test]
fn the_operator_table_lists_only_registered_series() {
    let sites = sites();
    let labels = endpoint_labels();
    let registered = |row: &str| {
        sites.iter().any(|s| match &s.series {
            Series::Name(name) => name == row,
            Series::Family(prefix) => row.starts_with(prefix.as_str()),
            Series::Red(server) => labels.iter().any(|label| {
                RED_LEAVES
                    .iter()
                    .any(|leaf| row == format!("{server}.{label}.{leaf}"))
            }),
        })
    };
    let stale: Vec<String> = operator_table()
        .into_iter()
        .filter(|row| !registered(row))
        .collect();
    assert!(
        stale.is_empty(),
        "operator-table rows no source registers: {stale:?}"
    );
}
