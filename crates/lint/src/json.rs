//! The one JSON writer behind every report of the workspace (the campaign,
//! stabilization and fuzz reports of `elastic_bench`, `elint`'s lint
//! report). A report builds a [`Json`] value, and `Display` renders it
//! under one layout rule: the top-level value, and every container directly
//! inside it, breaks one child per line (two spaces of indent per level)
//! when it holds a container; every other container renders on one line,
//! with `, ` and `: ` separators. So each record of a report (a campaign
//! point, a fault class with its curve, a lint target with its diagnostics)
//! is one line, which is what a line diff of two reports reads.

use std::fmt;

use crate::json_str;

/// A JSON value: built with [`Json::object`], [`Json::array`] and `From`,
/// rendered with `Display`.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A count, size or seed, rendered without a decimal point.
    Int(u64),
    /// A float, rendered with six decimals, or as `null` when not finite.
    Float(f64),
    /// A string, escaped by [`json_str`].
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; its keys, escaped by [`json_str`], render in this order.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// An object of `fields`, in order.
    pub fn object<'a>(fields: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json::Object(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// An array of `items`, in order.
    pub fn array<T: Into<Json>>(items: impl IntoIterator<Item = T>) -> Json {
        Json::Array(items.into_iter().map(Into::into).collect())
    }

    /// Renders `self` as a value `depth` containers below the top level.
    fn write(&self, f: &mut fmt::Formatter<'_>, depth: usize) -> fmt::Result {
        let (brackets, children): (&str, Vec<(Option<&str>, &Json)>) = match self {
            Json::Null => return f.write_str("null"),
            Json::Bool(b) => return write!(f, "{b}"),
            Json::Int(i) => return write!(f, "{i}"),
            Json::Float(x) if x.is_finite() => return write!(f, "{x:.6}"),
            Json::Float(_) => return f.write_str("null"),
            Json::Str(s) => return f.write_str(&json_str(s)),
            Json::Array(items) => ("[]", items.iter().map(|v| (None, v)).collect()),
            Json::Object(fields) => (
                "{}",
                fields.iter().map(|(k, v)| (Some(k.as_str()), v)).collect(),
            ),
        };
        let breaks = depth <= 1
            && children
                .iter()
                .any(|(_, v)| matches!(v, Json::Array(_) | Json::Object(_)));
        f.write_str(&brackets[..1])?;
        for (i, (key, value)) in children.into_iter().enumerate() {
            f.write_str(match (i, breaks) {
                (0, _) => "",
                (_, true) => ",",
                (_, false) => ", ",
            })?;
            if breaks {
                write!(f, "\n{:1$}", "", 2 * depth + 2)?;
            }
            if let Some(key) = key {
                write!(f, "{}: ", json_str(key))?;
            }
            value.write(f, depth + 1)?;
        }
        if breaks {
            write!(f, "\n{:1$}", "", 2 * depth)?;
        }
        f.write_str(&brackets[1..])
    }
}

impl fmt::Display for Json {
    /// The value as a whole document, without a trailing newline.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, 0)
    }
}

impl Json {
    /// Parses one JSON document: a number without a fraction or exponent
    /// reads as [`Json::Int`] when it fits, every other number as
    /// [`Json::Float`], and `null` as [`Json::Null`] (so a report's
    /// non-finite float reads back as `Null`).
    ///
    /// # Errors
    ///
    /// A message naming the byte offset of the first malformed token, or
    /// of trailing input after the document.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let value = p.value()?;
        p.skip_ws();
        if p.pos < p.bytes.len() {
            return Err(p.error("trailing input"));
        }
        Ok(value)
    }

    /// The value of field `key` of an object; `None` for another value
    /// or a missing key.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// An [`Json::Int`] or [`Json::Float`] as a float.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::Int(i) => Some(i as f64),
            Json::Float(x) => Some(x),
            _ => None,
        }
    }
}

/// A cursor over the bytes of a JSON document.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, what: &str) -> String {
        format!("JSON: {what} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(u8::is_ascii_whitespace)
        {
            self.pos += 1;
        }
    }

    /// Consumes `byte` after any whitespace, or fails.
    fn expect(&mut self, byte: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected {:?}", byte as char)))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        let rest = &self.bytes[self.pos..];
        for (word, value) in [
            ("null", Json::Null),
            ("true", Json::Bool(true)),
            ("false", Json::Bool(false)),
        ] {
            if rest.starts_with(word.as_bytes()) {
                self.pos += word.len();
                return Ok(value);
            }
        }
        match rest.first() {
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.items(b']', Parser::value).map(Json::Array),
            Some(b'{') => self
                .items(b'}', |p| {
                    p.skip_ws();
                    let key = p.string()?;
                    p.expect(b':')?;
                    Ok((key, p.value()?))
                })
                .map(Json::Object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.error("expected a value")),
        }
    }

    /// The comma-separated items of an array or object, from its opening
    /// bracket to `close`.
    fn items<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.pos += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&close) {
            self.pos += 1;
            return Ok(items);
        }
        loop {
            items.push(item(self)?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(&b) if b == close => {
                    self.pos += 1;
                    return Ok(items);
                }
                _ => return Err(self.error(&format!("expected ',' or {:?}", close as char))),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || b"+-.eE".contains(b))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        if let Ok(i) = text.parse::<u64>() {
            return Ok(Json::Int(i));
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| self.error(&format!("bad number {text:?}")))
    }

    fn string(&mut self) -> Result<String, String> {
        if self.bytes.get(self.pos) != Some(&b'"') {
            return Err(self.error("expected a string"));
        }
        self.pos += 1;
        let mut out = Vec::new();
        loop {
            let Some(&b) = self.bytes.get(self.pos) else {
                return Err(self.error("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return String::from_utf8(out).map_err(|e| e.to_string()),
                b'\\' => {
                    let escaped = match self.bytes.get(self.pos) {
                        Some(b'u') => {
                            let hex = self.bytes.get(self.pos + 1..self.pos + 5);
                            let code = hex
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| self.error("bad \\u escape"))?;
                            self.pos += 4;
                            code
                        }
                        Some(b'n') => '\n',
                        Some(b't') => '\t',
                        Some(b'r') => '\r',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(&c @ (b'"' | b'\\' | b'/')) => c as char,
                        _ => return Err(self.error("bad escape")),
                    };
                    self.pos += 1;
                    out.extend_from_slice(escaped.encode_utf8(&mut [0; 4]).as_bytes());
                }
                _ => out.push(b),
            }
        }
    }
}

/// `From` impls, each as `type => |value| variant`.
macro_rules! json_from {
    ($($t:ty => |$v:ident| $e:expr),* $(,)?) => {$(
        impl From<$t> for Json {
            fn from($v: $t) -> Json {
                $e
            }
        }
    )*};
}

json_from!(
    bool => |b| Json::Bool(b),
    f64 => |x| Json::Float(x),
    u32 => |i| Json::Int(i.into()),
    u64 => |i| Json::Int(i),
    usize => |i| Json::Int(i as u64), // at most 64 bits on every supported target
    &str => |s| Json::Str(s.to_string()),
    String => |s| Json::Str(s),
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_and_scalars_render_as_specified() {
        let flat = || Json::array([1u32, 2, 4]);
        let empty = || Json::array(Vec::<Json>::new());
        let nested = || Json::object([("curve", Json::array([Json::object([("x", empty())])]))]);
        let cases: Vec<(Json, &str)> = vec![
            // Scalars.
            (0.5.into(), "0.500000"),
            (f64::NAN.into(), "null"),
            (f64::INFINITY.into(), "null"),
            (f64::NEG_INFINITY.into(), "null"),
            (7usize.into(), "7"),
            (u64::MAX.into(), "18446744073709551615"),
            (true.into(), "true"),
            (Json::Null, "null"),
            ("a\"b\\c\nd".into(), "\"a\\\"b\\\\c\\nd\""),
            // A top level holding no container stays on one line.
            (flat(), "[1, 2, 4]"),
            (Json::object([]), "{}"),
            (empty(), "[]"),
            // Key order is kept, keys are escaped.
            (
                Json::object([("b", 1u32.into()), ("a\"", 2u32.into())]),
                "{\"b\": 1, \"a\\\"\": 2}",
            ),
            // The top level and depth 1 break when they hold a container;
            // flat and empty containers stay inline at every depth, and
            // everything from depth 2 down is on one line.
            (
                Json::object([
                    ("flat", flat()),
                    ("empty", empty()),
                    ("none", Json::object([])),
                    ("rows", Json::array([nested(), Json::object([]), flat()])),
                    ("deep", nested()),
                ]),
                "{\n  \"flat\": [1, 2, 4],\n  \"empty\": [],\n  \"none\": {},\n  \
                 \"rows\": [\n    {\"curve\": [{\"x\": []}]},\n    {},\n    [1, 2, 4]\n  ],\n  \
                 \"deep\": {\n    \"curve\": [{\"x\": []}]\n  }\n}",
            ),
        ];
        for (value, want) in cases {
            assert_eq!(value.to_string(), want, "{value:?}");
        }
    }

    #[test]
    fn parse_reads_back_what_display_writes() {
        let report = Json::object([
            ("name", "a\"b\\c\nd\u{1}é".into()),
            ("count", 7u64.into()),
            ("big", u64::MAX.into()),
            ("mean", 0.25.into()),
            ("gone", f64::NAN.into()),
            ("ok", true.into()),
            ("none", Json::Null),
            (
                "rows",
                Json::array([Json::object([("x", Json::array(Vec::<Json>::new()))])]),
            ),
            ("empty", Json::object([])),
        ]);
        let back = Json::parse(&report.to_string()).unwrap();
        assert_eq!(back.get("name"), report.get("name"));
        assert_eq!(back.get("count"), Some(&Json::Int(7)));
        assert_eq!(back.get("big"), Some(&Json::Int(u64::MAX)));
        assert_eq!(back.get("mean").and_then(Json::as_f64), Some(0.25));
        assert_eq!(back.get("gone"), Some(&Json::Null));
        assert_eq!(back.get("rows"), report.get("rows"));
        assert_eq!(back.get("empty"), Some(&Json::object([])));
        // A non-finite float is written, and read back, as null.
        assert_eq!(back.to_string(), report.to_string());
        // Negative numbers, exponents and escapes the writer never emits.
        let other = Json::parse(r#" [-1, 2.5e3, "\u0041\/\t", false] "#).unwrap();
        assert_eq!(
            other,
            Json::array([
                Json::Float(-1.0),
                Json::Float(2500.0),
                "A/\t".into(),
                false.into()
            ])
        );
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "\"open",
            "[1] 2",
            "nul",
            "\"\\q\"",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?}");
        }
    }
}
