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
}
