//! The workspace's one JSON codec. Every file it writes or reads
//! (metric snapshots, ledger records and diff reports, trace files,
//! chrome traces, SLO rule files, artifact bundles) goes through here:
//!
//! * [`parse`] — a strict recursive-descent parser producing a [`Json`]
//!   tree. Numbers keep their raw source token so `u64` counters
//!   round-trip exactly — going through `f64` would silently corrupt
//!   counts above 2^53, which real candidate counters can reach on
//!   adversarial workloads.
//! * [`Json::req`] and friends — typed field reads. A missing or
//!   mistyped key becomes a [`FieldError`] naming it; numbers read as
//!   `f64` must be finite.
//! * [`Writer`] — the only serializer: how a string is escaped, how a
//!   number is spelled, and where commas and newlines go ([`Layout`]).
//!
//! Scope is deliberately small: no serde-style derive, no streaming.
//! Malformed input yields a [`JsonError`] with a byte offset, never a
//! panic.

use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;

/// A parsed JSON value. Object keys are kept sorted (`BTreeMap`), which
/// matches the deterministic sorted-key serialization used everywhere
/// in this workspace.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number, stored as its raw source token (e.g. `"42"`, `"1.5"`,
    /// `"-3e-2"`) so integer precision is never lost.
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// The value as `u64`, when it is an integral number in range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(raw) => raw.parse::<u64>().ok(),
            _ => None,
        }
    }

    /// The value as `f64` (numbers only; `null` is *not* a number).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(raw) => raw.parse::<f64>().ok(),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The value as an object map.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// Member lookup on objects (`None` for other kinds or missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj().and_then(|m| m.get(key))
    }

    /// This value read as a `T`; errors name it `name`.
    pub fn to<'a, T: FromJson<'a>>(&'a self, name: impl fmt::Display) -> Result<T, FieldError> {
        T::from_json(self).map_err(|e| e.within(name))
    }

    /// The required member `key` read as a `T`.
    pub fn req<'a, T: FromJson<'a>>(&'a self, key: &str) -> Result<T, FieldError> {
        let missing = || FieldError {
            name: key.to_owned(),
            expected: None,
        };
        self.get(key).ok_or_else(missing)?.to(key)
    }

    /// The optional member `key` read as a `T`: `None` when absent, an
    /// error when present but mistyped.
    pub fn opt<'a, T: FromJson<'a>>(&'a self, key: &str) -> Result<Option<T>, FieldError> {
        self.get(key).map(|v| v.to(key)).transpose()
    }
}

/// A typed read that failed: which value, and what it should have been.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldError {
    /// The path of the offending value (e.g. `e1.gauges.g`,
    /// `tree[3].name`); empty until a caller names it.
    pub name: String,
    /// What the value must be (e.g. `"a u64"`); `None` when it is
    /// missing altogether.
    pub expected: Option<&'static str>,
}

impl FieldError {
    /// A value that is not `expected`, not yet named.
    pub(crate) fn not(expected: &'static str) -> Self {
        Self {
            name: String::new(),
            expected: Some(expected),
        }
    }

    /// The same error, with its path placed under `parent`.
    pub(crate) fn within(mut self, parent: impl fmt::Display) -> Self {
        self.name = match self.name.chars().next() {
            None => parent.to_string(),
            Some('[') => format!("{parent}{}", self.name),
            Some(_) => format!("{parent}.{}", self.name),
        };
        self
    }
}

impl fmt::Display for FieldError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.expected {
            None => write!(f, "missing `{}`", self.name),
            Some(what) => write!(f, "`{}` is not {what}", self.name),
        }
    }
}

impl std::error::Error for FieldError {}

/// Lets readers that report plain-text errors use `?` on field reads.
impl From<FieldError> for String {
    fn from(e: FieldError) -> String {
        e.to_string()
    }
}

/// A type a [`Json`] value can be read as (see [`Json::to`]).
pub trait FromJson<'a>: Sized {
    /// The conversion. Errors name the offending value's path below
    /// `v` (empty when `v` itself is the problem).
    fn from_json(v: &'a Json) -> Result<Self, FieldError>;
}

macro_rules! from_json {
    ($($t:ty => $what:literal, |$v:ident| $conv:expr;)*) => {$(
        impl<'a> FromJson<'a> for $t {
            fn from_json($v: &'a Json) -> Result<Self, FieldError> {
                $conv.ok_or_else(|| FieldError::not($what))
            }
        }
    )*};
}

// `f64` reads only finite numbers: `1e999` parses, but is no `f64`.
from_json! {
    u64 => "a u64", |v| v.as_u64();
    u32 => "a u32", |v| v.as_u64().and_then(|x| x.try_into().ok());
    usize => "a usize", |v| v.as_u64().and_then(|x| x.try_into().ok());
    f64 => "a finite number", |v| v.as_f64().filter(|x| x.is_finite());
    &'a str => "a string", |v| v.as_str();
    String => "a string", |v| v.as_str().map(str::to_owned);
    &'a [Json] => "an array", |v| v.as_arr();
    &'a BTreeMap<String, Json> => "an object", |v| v.as_obj();
    &'a Json => "any value", |v| Some(v);
}

/// `null` reads as `None`.
impl<'a, T: FromJson<'a>> FromJson<'a> for Option<T> {
    fn from_json(v: &'a Json) -> Result<Self, FieldError> {
        match v {
            Json::Null => Ok(None),
            v => T::from_json(v).map(Some),
        }
    }
}

/// Every element read as a `T`; errors name the element (`[i]`).
impl<'a, T: FromJson<'a>> FromJson<'a> for Vec<T> {
    fn from_json(v: &'a Json) -> Result<Self, FieldError> {
        let items: &[Json] = FromJson::from_json(v)?;
        let item = |(i, v)| T::from_json(v).map_err(|e| e.within(format_args!("[{i}]")));
        items.iter().enumerate().map(item).collect()
    }
}

/// Every member read as a `T`; errors name the member.
impl<'a, T: FromJson<'a>> FromJson<'a> for BTreeMap<String, T> {
    fn from_json(v: &'a Json) -> Result<Self, FieldError> {
        let members: &BTreeMap<String, Json> = FromJson::from_json(v)?;
        members
            .iter()
            .map(|(k, v)| Ok((k.clone(), v.to(k)?)))
            .collect()
    }
}

/// A parse failure: what was expected and the byte offset it failed at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description of the failure.
    pub message: String,
    /// Byte offset into the input where parsing stopped.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

/// Parses one complete JSON document (trailing whitespace allowed,
/// trailing garbage is an error).
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_owned(),
            offset: self.pos,
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

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
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
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let code = self.hex4()?;
                            // Surrogate pairs: a high surrogate must be
                            // followed by `\uXXXX` with a low surrogate.
                            let c = if (0xD800..0xDC00).contains(&code) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let low = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&low) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let combined =
                                        0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                    char::from_u32(combined)
                                } else {
                                    return Err(self.err("lone high surrogate"));
                                }
                            } else {
                                char::from_u32(code)
                            };
                            match c {
                                Some(c) => out.push(c),
                                None => return Err(self.err("invalid \\u escape")),
                            }
                            continue; // hex4 already advanced past the digits
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a valid &str, so
                    // a char boundary always exists at `pos`).
                    let rest = &self.bytes[self.pos..];
                    let s = match std::str::from_utf8(rest) {
                        Ok(s) => s,
                        Err(e) if e.valid_up_to() > 0 => {
                            // Safe: the prefix was just validated.
                            match std::str::from_utf8(&rest[..e.valid_up_to()]) {
                                Ok(s) => s,
                                Err(_) => return Err(self.err("invalid UTF-8")),
                            }
                        }
                        Err(_) => return Err(self.err("invalid UTF-8")),
                    };
                    match s.chars().next() {
                        Some(c) => {
                            out.push(c);
                            self.pos += c.len_utf8();
                        }
                        None => return Err(self.err("unterminated string")),
                    }
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let digits = &self.bytes[self.pos..end];
        let s = std::str::from_utf8(digits).map_err(|_| self.err("invalid \\u escape"))?;
        let code = u32::from_str_radix(s, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos = end;
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits_start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == digits_start {
            return Err(self.err("expected digit"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let frac_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == frac_start {
                return Err(self.err("expected fraction digit"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == exp_start {
                return Err(self.err("expected exponent digit"));
            }
        }
        let raw = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        Ok(Json::Num(raw.to_owned()))
    }
}

/// A value with one JSON spelling, so a [`Writer`] can take it whole
/// ([`Writer::val`]) or a list or map of it.
pub trait ToJson {
    /// Writes the value into `w`.
    fn write_json(&self, w: &mut Writer);
}

macro_rules! to_json {
    ($($t:ty => |$v:ident, $w:ident| $write:expr;)*) => {$(
        impl ToJson for $t {
            fn write_json(&self, $w: &mut Writer) {
                let $v = self;
                $write;
            }
        }
    )*};
}

// Floats take the shortest round-trip `Debug` spelling ([`Writer::f64`]).
to_json! {
    u64 => |v, w| w.u64(*v);
    u32 => |v, w| w.u64((*v).into());
    usize => |v, w| w.u64(*v as u64);
    f64 => |v, w| w.f64(*v);
    String => |v, w| w.str(v);
}

/// `None` is `null`.
impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, w: &mut Writer) {
        match self {
            Some(v) => v.write_json(w),
            None => {
                w.null();
            }
        }
    }
}

/// How a [`Writer`] container lays out its members.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// One member per line, indented two spaces per enclosing `Block`;
    /// the closing bracket gets its own line unless the container is
    /// empty (`{}` / `[]`).
    Block,
    /// All members on one line, separated by `", "`.
    Inline,
    /// All members on one line, separated by `","`.
    Compact,
}

/// The workspace's JSON serializer. Values are appended in document
/// order; containers take a closure that writes their members, so
/// brackets always balance. Object members are a [`Writer::key`]
/// followed by one value.
///
/// Spelling: strings escape `"`, `\`, `\n`, `\r`, `\t` and other
/// control characters (`\u00XX`); keys and values print as `"k": v`;
/// non-finite floats print as `null`, whichever float spelling the
/// caller picks.
#[derive(Debug, Default)]
pub struct Writer {
    out: String,
    /// Open containers: layout and members written so far.
    open: Vec<(Layout, usize)>,
    /// A key was just written, so the next value completes its member.
    keyed: bool,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The text written so far.
    pub fn finish(self) -> String {
        self.out
    }

    /// A newline, indented two spaces per open `Block` container.
    fn newline(&mut self) {
        self.out.push('\n');
        for _ in self.open.iter().filter(|(l, _)| *l == Layout::Block) {
            self.out.push_str("  ");
        }
    }

    /// Writes the separator before a new member of the innermost
    /// container (nothing when completing a keyed member).
    fn member(&mut self) {
        if std::mem::take(&mut self.keyed) {
            return;
        }
        let Some((layout, members)) = self.open.last_mut() else {
            return;
        };
        let (layout, first) = (*layout, *members == 0);
        *members += 1;
        match layout {
            Layout::Block if first => self.newline(),
            Layout::Block => {
                self.out.push(',');
                self.newline();
            }
            Layout::Inline if !first => self.out.push_str(", "),
            Layout::Compact if !first => self.out.push(','),
            _ => {}
        }
    }

    fn container(
        &mut self,
        layout: Layout,
        brackets: [char; 2],
        body: impl FnOnce(&mut Self),
    ) -> &mut Self {
        self.member();
        self.out.push(brackets[0]);
        self.open.push((layout, 0));
        body(self);
        if let Some((Layout::Block, 1..)) = self.open.pop() {
            self.newline();
        }
        self.out.push(brackets[1]);
        self
    }

    /// A value with its one JSON spelling (see [`ToJson`]).
    pub fn val(&mut self, v: &impl ToJson) -> &mut Self {
        v.write_json(self);
        self
    }

    /// An array of `items`.
    pub fn list<'v, T: ToJson + 'v>(
        &mut self,
        layout: Layout,
        items: impl IntoIterator<Item = &'v T>,
    ) -> &mut Self {
        self.arr(layout, |w| items.into_iter().for_each(|v| v.write_json(w)))
    }

    /// An object with one member per entry of `map`, in key order.
    pub fn map<T: ToJson>(&mut self, layout: Layout, map: &BTreeMap<String, T>) -> &mut Self {
        self.obj(layout, |w| {
            map.iter().for_each(|(k, v)| v.write_json(w.key(k)))
        })
    }

    /// An object; `body` writes its members.
    pub fn obj(&mut self, layout: Layout, body: impl FnOnce(&mut Self)) -> &mut Self {
        self.container(layout, ['{', '}'], body)
    }

    /// An array; `body` writes its elements.
    pub fn arr(&mut self, layout: Layout, body: impl FnOnce(&mut Self)) -> &mut Self {
        self.container(layout, ['[', ']'], body)
    }

    /// The key of the next object member.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.str(key);
        self.out.push_str(": ");
        self.keyed = true;
        self
    }

    /// A string, escaped.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.member();
        self.out.push('"');
        for c in s.chars() {
            match c {
                '"' => self.out.push_str("\\\""),
                '\\' => self.out.push_str("\\\\"),
                '\n' => self.out.push_str("\\n"),
                '\r' => self.out.push_str("\\r"),
                '\t' => self.out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(self.out, "\\u{:04x}", c as u32);
                }
                c => self.out.push(c),
            }
        }
        self.out.push('"');
        self
    }

    /// An integer.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.member();
        let _ = write!(self.out, "{v}");
        self
    }

    /// `null`.
    pub fn null(&mut self) -> &mut Self {
        self.member();
        self.out.push_str("null");
        self
    }

    fn finite(&mut self, v: f64, spelled: fmt::Arguments<'_>) -> &mut Self {
        if !v.is_finite() {
            return self.null();
        }
        self.member();
        let _ = self.out.write_fmt(spelled);
        self
    }

    /// A float in Rust's shortest round-trip `Debug` spelling: always a
    /// decimal point or an exponent (`1.0`, `1e-7`). The metric, ledger
    /// and diff formats use it.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.finite(v, format_args!("{v:?}"))
    }

    /// A float in Rust's shortest round-trip `Display` spelling: plain
    /// decimal, no exponent (`1`, `0.0000001`). The artifact bundle
    /// uses it.
    pub fn f64_plain(&mut self, v: f64) -> &mut Self {
        self.finite(v, format_args!("{v}"))
    }

    /// A float with exactly `digits` fractional digits (chrome-trace
    /// microsecond timestamps).
    pub fn f64_fixed(&mut self, v: f64, digits: usize) -> &mut Self {
        self.finite(v, format_args!("{v:.digits$}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(parse("false").unwrap(), Json::Bool(false));
        assert_eq!(parse("42").unwrap().as_u64(), Some(42));
        assert_eq!(parse("-1.5e3").unwrap().as_f64(), Some(-1500.0));
        assert_eq!(parse("\"hi\"").unwrap().as_str(), Some("hi"));
    }

    #[test]
    fn u64_counters_round_trip_exactly() {
        let big = u64::MAX;
        let parsed = parse(&big.to_string()).unwrap();
        assert_eq!(parsed.as_u64(), Some(big));
        // Above 2^53 an f64 detour would corrupt this.
        let above_f64 = (1u64 << 53) + 1;
        assert_eq!(
            parse(&above_f64.to_string()).unwrap().as_u64(),
            Some(above_f64)
        );
    }

    #[test]
    fn parses_nested_structures() {
        let doc = r#"{"a": [1, {"b": null}, "x"], "c": {"d": 2.5}}"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("c").unwrap().get("d").unwrap().as_f64(), Some(2.5));
    }

    #[test]
    fn unescapes_strings() {
        let v = parse(r#""line1\n\"quoted\"\u0041\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("line1\n\"quoted\"A😀"));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "tru",
            "01x",
            "\"unterminated",
            "{}extra",
            "[1 2]",
            "\"\\q\"",
            "1.",
            "-",
            "{\"a\":}",
        ] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn writer_lays_out_block_inline_and_compact() {
        let mut w = Writer::new();
        w.obj(Layout::Compact, |w| {
            w.key("a").obj(Layout::Block, |w| {
                w.key("xs").list(Layout::Inline, &[1u64, 2]);
                w.key("empty").arr(Layout::Block, |_| {});
            });
            w.key("b").str("t\tab\u{1}").key("c").f64(f64::NAN);
        });
        assert_eq!(
            w.finish(),
            "{\"a\": {\n  \"xs\": [1, 2],\n  \"empty\": []\n},\"b\": \"t\\tab\\u0001\",\"c\": null}"
        );
    }

    #[test]
    fn round_trips_snapshot_output() {
        use crate::{InMemoryRecorder, Obs};
        let rec = InMemoryRecorder::new();
        let obs = Obs::new(&rec);
        obs.counter("assoc.apriori.pass1.candidates", 44);
        obs.gauge("g.nan", f64::NAN);
        obs.gauge("g.v", 2.25);
        obs.value("par.shard.items", 100);
        obs.event("guard.trip", "detail \"quoted\"");
        {
            let _s = obs.span("assoc.apriori.pass1");
        }
        let json = rec.snapshot().to_json();
        let v = parse(&json).expect("snapshot JSON parses");
        assert_eq!(v.get("schema").unwrap().as_u64(), Some(5));
        assert_eq!(
            v.get("counters")
                .unwrap()
                .get("assoc.apriori.pass1.candidates")
                .unwrap()
                .as_u64(),
            Some(44)
        );
        assert_eq!(v.get("gauges").unwrap().get("g.nan").unwrap(), &Json::Null);
        assert_eq!(
            v.get("gauges").unwrap().get("g.v").unwrap().as_f64(),
            Some(2.25)
        );
    }
}
