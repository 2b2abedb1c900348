//! Minimal in-repo JSON support for the experiment harness.
//!
//! The hermetic-build policy (DESIGN.md) forbids registry dependencies, so
//! the `serde`/`serde_json` pair is replaced by this ~300-line module: a
//! [`Json`] value tree, a [`ToJson`] conversion trait with a
//! [`json_object!`](crate::json_object) ergonomic macro for row structs,
//! a writer with full string escaping and 2-space pretty-printing (matching
//! the `serde_json::to_string_pretty` layout of the checked-in
//! `results/*.json` files), and a recursive-descent parser used by the
//! round-trip tests.

use std::fmt::Write as _;

/// A JSON value.
///
/// Non-negative integers normalize to `UInt` and negative ones to `Int`
/// (both in the writer and the parser), so values compare equal across a
/// write→parse round trip.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Negative integer.
    Int(i64),
    /// Non-negative integer.
    UInt(u64),
    /// Any number written with a fraction or exponent.
    Float(f64),
    /// String.
    Str(String),
    /// Array.
    Array(Vec<Json>),
    /// Object; insertion order is preserved (the writer never reorders).
    Object(Vec<(String, Json)>),
}

/// Conversion into a [`Json`] tree — the stand-in for `serde::Serialize`.
pub trait ToJson {
    /// Converts `self` into a JSON value.
    fn to_json(&self) -> Json;
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Float(*self)
    }
}

impl ToJson for f32 {
    fn to_json(&self) -> Json {
        Json::Float(*self as f64)
    }
}

macro_rules! impl_tojson_uint {
    ($($t:ty),+) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::UInt(*self as u64)
            }
        }
    )+};
}

macro_rules! impl_tojson_int {
    ($($t:ty),+) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                let v = *self as i64;
                if v >= 0 {
                    Json::UInt(v as u64)
                } else {
                    Json::Int(v)
                }
            }
        }
    )+};
}

impl_tojson_uint!(u8, u16, u32, u64, usize);
impl_tojson_int!(i8, i16, i32, i64, isize);

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}

/// Builds a [`Json::Object`] from `key: value` pairs; keys are taken
/// literally from the identifiers and values through [`ToJson`].
///
/// ```
/// use orap_bench::json_object;
/// let row = json_object! { circuit: "c17", gates: 6usize, hd: 49.5f64 };
/// assert!(row.pretty().contains("\"circuit\": \"c17\""));
/// ```
#[macro_export]
macro_rules! json_object {
    ( $( $key:ident : $val:expr ),* $(,)? ) => {
        $crate::json::Json::Object(vec![
            $( (stringify!($key).to_string(), $crate::json::ToJson::to_json(&$val)) ),*
        ])
    };
}

fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Writes a finite float so it round-trips and always reads back as a
/// float (`1.0`, not `1`). Non-finite values have no JSON representation
/// and are written as `null`, mirroring the common lossy convention.
fn write_float(out: &mut String, f: f64) {
    if !f.is_finite() {
        out.push_str("null");
        return;
    }
    let s = format!("{f}");
    out.push_str(&s);
    if !s.contains(['.', 'e', 'E']) {
        out.push_str(".0");
    }
}

impl Json {
    fn write(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::UInt(u) => {
                let _ = write!(out, "{u}");
            }
            Json::Float(f) => write_float(out, *f),
            Json::Str(s) => escape_into(out, s),
            Json::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    match indent {
                        Some(level) => {
                            out.push('\n');
                            out.push_str(&"  ".repeat(level + 1));
                            item.write(out, Some(level + 1));
                        }
                        None => item.write(out, None),
                    }
                }
                if let Some(level) = indent {
                    out.push('\n');
                    out.push_str(&"  ".repeat(level));
                }
                out.push(']');
            }
            Json::Object(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    match indent {
                        Some(level) => {
                            out.push('\n');
                            out.push_str(&"  ".repeat(level + 1));
                            escape_into(out, key);
                            out.push_str(": ");
                            value.write(out, Some(level + 1));
                        }
                        None => {
                            escape_into(out, key);
                            out.push(':');
                            value.write(out, None);
                        }
                    }
                }
                if let Some(level) = indent {
                    out.push('\n');
                    out.push_str(&"  ".repeat(level));
                }
                out.push('}');
            }
        }
    }

    /// Serializes with 2-space indentation (the `serde_json` pretty layout
    /// used by the checked-in `results/*.json`).
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out
    }

    /// Serializes without any whitespace.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }
}

/// Position-annotated parse error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the error in the input.
    pub pos: usize,
    /// Human-readable description.
    pub msg: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// Deepest array/object nesting [`parse`] accepts. The parser recurses
/// once per level, so the cap bounds its stack use on hostile input (a
/// frame of nested `[` would otherwise overflow the reading thread's stack).
pub const MAX_DEPTH: usize = 128;

/// Parses a JSON document nested at most [`MAX_DEPTH`] levels deep.
pub fn parse(text: &str) -> Result<Json, ParseError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> ParseError {
        ParseError {
            pos: self.pos,
            msg: msg.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(&format!("unexpected `{}`", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Parses one array or object one level deeper, refusing to pass
    /// [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, ParseError>,
    ) -> Result<Json, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u16, ParseError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("non-ASCII \\u escape"))?;
        let v = u16::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("truncated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require a following \uXXXX.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    0x10000
                                        + ((hi as u32 - 0xD800) << 10)
                                        + (lo as u32 - 0xDC00)
                                } else {
                                    return Err(self.err("lone high surrogate"));
                                }
                            } else if (0xDC00..0xE000).contains(&hi) {
                                return Err(self.err("lone low surrogate"));
                            } else {
                                hi as u32
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid unicode escape"))?,
                            );
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 character (input is a &str, so the
                    // byte stream is valid UTF-8).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    let c = rest.chars().next().unwrap();
                    if (c as u32) < 0x20 {
                        return Err(self.err("unescaped control character"));
                    }
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if is_float {
            text.parse::<f64>()
                .map(Json::Float)
                .map_err(|_| self.err("invalid float"))
        } else if let Ok(u) = text.parse::<u64>() {
            Ok(Json::UInt(u))
        } else if let Ok(i) = text.parse::<i64>() {
            Ok(Json::Int(i))
        } else {
            // Integer overflowing both i64 and u64: keep it as a float, the
            // same lossy fallback serde_json's arbitrary_precision-less
            // default applies on read.
            text.parse::<f64>()
                .map(Json::Float)
                .map_err(|_| self.err("invalid number"))
        }
    }
}

impl ToJson for cdcl::SolverStats {
    fn to_json(&self) -> Json {
        crate::json_object! {
            solves: self.solves,
            decisions: self.decisions,
            propagations: self.propagations,
            conflicts: self.conflicts,
            restarts: self.restarts,
            learned_clauses: self.learned_clauses,
            learned_literals_pre: self.learned_literals_pre,
            learned_literals_post: self.learned_literals_post,
            db_reductions: self.db_reductions,
            clauses_deleted: self.clauses_deleted,
            inprocessings: self.inprocessings,
            subsumed_clauses: self.subsumed_clauses,
            strengthened_clauses: self.strengthened_clauses,
            eliminated_vars: self.eliminated_vars,
            restored_vars: self.restored_vars,
            vivified_literals: self.vivified_literals,
            // Chronological backtracking is gone; its counter stays in the
            // export at 0 so the wire transcripts of DESIGN.md §10 keep
            // their bytes.
            chrono_backtracks: 0u64,
            restarts_blocked: self.restarts_blocked,
            restarts_forced: self.restarts_forced,
        }
    }
}

impl ToJson for netlist::EngineCounters {
    fn to_json(&self) -> Json {
        crate::json_object! {
            full_evals: self.full_evals,
            incremental_props: self.incremental_props,
            events: self.events,
        }
    }
}

impl ToJson for attacks::DipTelemetry {
    fn to_json(&self) -> Json {
        crate::json_object! {
            clauses_added: self.clauses_added,
            conflicts: self.conflicts,
            subsumed_clauses: self.subsumed_clauses,
            eliminated_vars: self.eliminated_vars,
            vivified_literals: self.vivified_literals,
        }
    }
}

impl ToJson for attacks::AttackTelemetry {
    fn to_json(&self) -> Json {
        let avg_clauses_per_dip = if self.dips.is_empty() {
            0.0
        } else {
            self.dips.iter().map(|d| d.clauses_added).sum::<usize>() as f64
                / self.dips.len() as f64
        };
        crate::json_object! {
            dips: self.dips.len(),
            avg_clauses_per_dip: avg_clauses_per_dip,
            clauses: self.clauses,
            vars: self.vars,
            solver: self.solver,
            engine: self.engine,
        }
    }
}

impl ToJson for exec::StageStats {
    fn to_json(&self) -> Json {
        crate::json_object! {
            label: self.label,
            calls: self.calls,
            tasks: self.tasks,
            wall_ns: self.wall_ns,
            busy_ns: self.busy_ns,
            idle_ns: self.idle_ns,
            stolen: self.stolen,
        }
    }
}

impl ToJson for exec::PoolStats {
    fn to_json(&self) -> Json {
        crate::json_object! {
            threads: self.threads,
            total_tasks: self.total_tasks(),
            total_wall_ns: self.total_wall_ns(),
            stages: self.stages,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_round_trips() {
        let nasty = "quote:\" backslash:\\ newline:\n tab:\t ctrl:\u{01} high:\u{10348}";
        let written = Json::Str(nasty.to_string()).compact();
        assert!(written.contains("\\\""));
        assert!(written.contains("\\\\"));
        assert!(written.contains("\\n"));
        assert!(written.contains("\\t"));
        assert!(written.contains("\\u0001"));
        assert_eq!(parse(&written).unwrap(), Json::Str(nasty.to_string()));
    }

    #[test]
    fn floats_always_read_back_as_floats() {
        assert_eq!(Json::Float(1.0).compact(), "1.0");
        assert_eq!(Json::Float(15.82729605741279).compact(), "15.82729605741279");
        assert_eq!(Json::Float(-0.5).compact(), "-0.5");
        assert_eq!(parse(&Json::Float(1e300).compact()).unwrap(), Json::Float(1e300));
        assert_eq!(Json::Float(f64::NAN).compact(), "null");
        let round = parse(&Json::Float(15.82729605741279).compact()).unwrap();
        assert_eq!(round, Json::Float(15.82729605741279));
    }

    #[test]
    fn integer_normalization() {
        assert_eq!((5usize).to_json(), Json::UInt(5));
        assert_eq!((5i64).to_json(), Json::UInt(5));
        assert_eq!((-5i64).to_json(), Json::Int(-5));
        assert_eq!(parse("5").unwrap(), Json::UInt(5));
        assert_eq!(parse("-5").unwrap(), Json::Int(-5));
    }

    #[test]
    fn pretty_layout_matches_serde_json() {
        let v = json_object! {
            name: "x",
            values: vec![1usize, 2],
        };
        assert_eq!(
            v.pretty(),
            "{\n  \"name\": \"x\",\n  \"values\": [\n    1,\n    2\n  ]\n}"
        );
        assert_eq!(Json::Array(vec![]).pretty(), "[]");
        assert_eq!(Json::Object(vec![]).pretty(), "{}");
    }

    #[test]
    fn option_and_null() {
        assert_eq!(None::<bool>.to_json(), Json::Null);
        assert_eq!(Some(true).to_json(), Json::Bool(true));
        assert_eq!(parse("null").unwrap(), Json::Null);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("1 2").is_err());
        assert!(parse("truthy").is_err());
    }

    #[test]
    fn nesting_is_capped() {
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        assert!(parse(&nest(MAX_DEPTH + 1)).is_err());
        assert!(parse(&"{\"a\":".repeat(MAX_DEPTH + 1)).is_err());
        assert!(parse(&"[".repeat(1_000_000)).is_err());
    }

    /// The `solver` object of bench JSON and of the daemon's `attack`
    /// result: all 19 `cdcl::SolverStats` counters, in declaration order.
    #[test]
    fn solver_stats_export_every_counter_in_order() {
        let Json::Object(fields) = cdcl::SolverStats::default().to_json() else {
            panic!("SolverStats must export an object");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "solves",
                "decisions",
                "propagations",
                "conflicts",
                "restarts",
                "learned_clauses",
                "learned_literals_pre",
                "learned_literals_post",
                "db_reductions",
                "clauses_deleted",
                "inprocessings",
                "subsumed_clauses",
                "strengthened_clauses",
                "eliminated_vars",
                "restored_vars",
                "vivified_literals",
                "chrono_backtracks",
                "restarts_blocked",
                "restarts_forced",
            ]
        );
        assert!(fields.iter().all(|(_, v)| *v == Json::UInt(0)));
    }

    #[test]
    fn unicode_escapes_and_surrogates() {
        assert_eq!(parse("\"\\u0041\"").unwrap(), Json::Str("A".into()));
        assert_eq!(
            parse("\"\\ud800\\udf48\"").unwrap(),
            Json::Str("\u{10348}".into())
        );
        assert!(parse("\"\\ud800\"").is_err());
    }
}
