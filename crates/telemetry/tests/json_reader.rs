//! Properties of the one JSON reader, `json::parse`, over seeded value
//! trees up to depth 6: strings with every escape, raw control
//! characters and non-BMP characters; numbers as integers and with
//! exponents.
//!
//! * a tree written through `push_str_escaped` / `push_f64` (or with
//!   every escape spelled out) parses back to itself;
//! * every prefix and every single-byte mutation of such a document
//!   returns `Ok` or an `invalid JSON at byte N` error, never a panic;
//! * 65 nested openers at any value position are `nesting too deep`.

use taxorec_telemetry::json::{self, push_f64, push_str_escaped, Value, MAX_DEPTH};

/// splitmix64: a seeded, dependency-free stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn chance(&mut self, one_in: usize) -> bool {
        self.below(one_in) == 0
    }
}

const MAX_TREE_DEPTH: usize = 6;

fn gen_char(rng: &mut Rng) -> char {
    match rng.below(5) {
        // Everything with a short escape.
        0 => ['"', '\\', '/', '\u{8}', '\u{c}', '\n', '\r', '\t'][rng.below(8)],
        // Raw control characters.
        1 => char::from_u32(rng.below(0x20) as u32).expect("control char"),
        // Multi-byte BMP, including the edges of the surrogate gap.
        2 => ['é', '中', '\u{7f}', '\u{d7ff}', '\u{e000}', '\u{fffd}'][rng.below(6)],
        // Non-BMP: a surrogate pair when escaped.
        3 => char::from_u32(0x10000 + rng.below(0x10_0000) as u32).expect("non-BMP char"),
        _ => char::from(b' ' + rng.below(0x5f) as u8),
    }
}

fn gen_string(rng: &mut Rng) -> String {
    (0..rng.below(8)).map(|_| gen_char(rng)).collect()
}

fn gen_number(rng: &mut Rng) -> f64 {
    let sign = if rng.chance(2) { -1.0 } else { 1.0 };
    match rng.below(3) {
        0 => sign * rng.below(1000) as f64,
        1 => sign * (rng.next() >> 11) as f64,
        _ => {
            let mantissa = (rng.next() >> 11) as f64 / (1u64 << 53) as f64;
            sign * mantissa * 10f64.powi(rng.below(61) as i32 - 30)
        }
    }
}

fn gen_value(rng: &mut Rng, depth: usize) -> Value {
    let leaf = depth >= MAX_TREE_DEPTH || rng.chance(3);
    match if leaf { rng.below(4) } else { 4 + rng.below(2) } {
        0 => Value::Null,
        1 => Value::Bool(rng.chance(2)),
        2 => Value::Num(gen_number(rng)),
        3 => Value::Str(gen_string(rng)),
        4 => Value::Arr(
            (0..rng.below(4))
                .map(|_| gen_value(rng, depth + 1))
                .collect(),
        ),
        _ => Value::Obj(
            (0..rng.below(4))
                .map(|_| (gen_string(rng), gen_value(rng, depth + 1)))
                .collect(),
        ),
    }
}

/// `s` as a JSON string with every character escaped: the short forms
/// where JSON has one, `\uXXXX` (a surrogate pair beyond the BMP)
/// everywhere else.
fn push_str_all_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '/' => out.push_str("\\/"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c => {
                let mut units = [0u16; 2];
                for unit in c.encode_utf16(&mut units) {
                    out.push_str(&format!("\\u{unit:04X}"));
                }
            }
        }
    }
    out.push('"');
}

/// How a tree is written out.
#[derive(Clone, Copy)]
enum Style {
    /// The workspace's writers, no whitespace.
    Writers,
    /// Every escape spelled out, exponent numbers, random whitespace.
    Spelled,
}

fn ws(rng: &mut Rng, style: Style, out: &mut String) {
    if let Style::Spelled = style {
        for _ in 0..rng.below(3) {
            out.push([' ', '\t', '\n', '\r'][rng.below(4)]);
        }
    }
}

fn emit(v: &Value, rng: &mut Rng, style: Style, out: &mut String) {
    ws(rng, style, out);
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Num(n) => match style {
            Style::Writers => push_f64(out, *n),
            Style::Spelled if rng.chance(2) => out.push_str(&format!("{n:e}")),
            Style::Spelled => out.push_str(&format!("{n:E}")),
        },
        Value::Str(s) => match style {
            Style::Writers => push_str_escaped(out, s),
            Style::Spelled => push_str_all_escaped(out, s),
        },
        Value::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                emit(item, rng, style, out);
            }
            ws(rng, style, out);
            out.push(']');
        }
        Value::Obj(fields) => {
            out.push('{');
            for (i, (k, item)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                ws(rng, style, out);
                match style {
                    Style::Writers => push_str_escaped(out, k),
                    Style::Spelled => push_str_all_escaped(out, k),
                }
                ws(rng, style, out);
                out.push(':');
                emit(item, rng, style, out);
            }
            ws(rng, style, out);
            out.push('}');
        }
    }
    ws(rng, style, out);
}

fn document(v: &Value, rng: &mut Rng, style: Style) -> String {
    let mut out = String::new();
    emit(v, rng, style, &mut out);
    out
}

/// `parse` on arbitrary input: `Ok`, or an error in the documented form.
fn parse_total(s: &str) {
    if let Err(e) = json::parse(s) {
        assert!(e.starts_with("invalid JSON at byte "), "{e:?} for {s:?}");
    }
}

#[test]
fn trees_round_trip_through_the_writers_and_spelled_out_escapes() {
    let mut rng = Rng(0x5eed_0001);
    for _ in 0..200 {
        let tree = gen_value(&mut rng, 0);
        for style in [Style::Writers, Style::Spelled] {
            let doc = document(&tree, &mut rng, style);
            match json::parse(&doc) {
                Ok(back) => assert_eq!(back, tree, "{doc}"),
                Err(e) => panic!("{e}: {doc}"),
            }
        }
    }
}

#[test]
fn prefixes_and_single_byte_mutations_never_panic() {
    let mut rng = Rng(0x5eed_0002);
    const SWAPS: &[u8] = b"\"\\[]{},:0-.eEu \x00\x7f\xc3\xa9";
    for round in 0..40 {
        let tree = gen_value(&mut rng, 0);
        let style = if round % 2 == 0 {
            Style::Writers
        } else {
            Style::Spelled
        };
        let doc = document(&tree, &mut rng, style);
        for end in (0..doc.len()).filter(|&end| doc.is_char_boundary(end)) {
            parse_total(&doc[..end]);
        }
        let mut bytes = doc.clone().into_bytes();
        for at in 0..bytes.len() {
            let was = bytes[at];
            for _ in 0..3 {
                bytes[at] = SWAPS[rng.below(SWAPS.len())];
                if let Ok(mutated) = std::str::from_utf8(&bytes) {
                    parse_total(mutated);
                }
            }
            bytes[at] = was;
        }
    }
}

/// Replaces one random value slot of `v` (possibly `v` itself) with
/// `marker`.
fn plant(v: &mut Value, rng: &mut Rng, marker: &Value) {
    let children: Vec<&mut Value> = match v {
        Value::Arr(items) => items.iter_mut().collect(),
        Value::Obj(fields) => fields.iter_mut().map(|(_, item)| item).collect(),
        _ => Vec::new(),
    };
    if children.is_empty() || rng.chance(3) {
        *v = marker.clone();
        return;
    }
    let n = children.len();
    let child = children.into_iter().nth(rng.below(n)).expect("in range");
    plant(child, rng, marker);
}

#[test]
fn sixty_five_nested_openers_anywhere_are_too_deep() {
    let mut rng = Rng(0x5eed_0003);
    let marker = Value::Str("\u{0}bomb".to_string());
    let mut planted = String::new();
    push_str_escaped(&mut planted, "\u{0}bomb");
    for _ in 0..100 {
        let mut tree = gen_value(&mut rng, 0);
        plant(&mut tree, &mut rng, &marker);
        let mut openers = String::new();
        let mut closers = String::new();
        for _ in 0..=MAX_DEPTH {
            if rng.chance(2) {
                openers.push('[');
                closers.insert(0, ']');
            } else {
                openers.push_str("{\"k\":");
                closers.insert(0, '}');
            }
        }
        let bomb = format!("{openers}0{closers}");
        let doc = document(&tree, &mut rng, Style::Writers).replacen(&planted, &bomb, 1);
        let err = json::parse(&doc).expect_err("65 openers must not parse");
        assert!(err.contains("nesting too deep"), "{err}: {doc}");
    }
}

/// The bound is on nesting depth, not size: exactly 64 parses, 65 not.
#[test]
fn nesting_depth_64_parses_and_65_does_not() {
    let nest = |n: usize| format!("{}1{}", "[".repeat(n), "]".repeat(n));
    assert!(json::parse(&nest(MAX_DEPTH)).is_ok(), "depth {MAX_DEPTH}");
    let err = json::parse(&nest(MAX_DEPTH + 1)).expect_err("depth 65");
    assert!(err.contains("nesting too deep"), "{err}");
}
