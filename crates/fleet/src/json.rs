//! A tiny deterministic JSON writer.
//!
//! The workspace has no serialization dependency, so every report in
//! it serializes by hand. This module centralizes that: build a
//! [`Json`] tree, call [`Json::render`]. Object keys keep insertion
//! order and floats use Rust's shortest round-trip formatting, so the
//! same tree always renders to the same bytes — the property the fleet
//! determinism guard asserts on.

/// An ordered JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    UInt(u64),
    Int(i64),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Keys render in insertion order (no map reordering).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience constructor for objects.
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Renders with two-space indentation and a trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(n) => out.push_str(&n.to_string()),
            Json::Int(n) => out.push_str(&n.to_string()),
            Json::Num(v) => {
                if v.is_finite() {
                    // Shortest round-trip form; deterministic per value.
                    out.push_str(&format!("{v}"));
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => {
                out.push('"');
                out.push_str(&esc(s));
                out.push('"');
            }
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    pad(out, indent + 1);
                    item.write(out, indent + 1);
                }
                out.push('\n');
                pad(out, indent);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    pad(out, indent + 1);
                    out.push('"');
                    out.push_str(&esc(k));
                    out.push_str("\": ");
                    v.write(out, indent + 1);
                }
                out.push('\n');
                pad(out, indent);
                out.push('}');
            }
        }
    }
}

fn pad(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

/// Escapes a string for embedding in a JSON literal.
pub fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_deterministically() {
        let j = Json::obj(vec![
            ("b", Json::UInt(2)),
            ("a", Json::Num(1.5)),
            ("s", Json::Str("x\"y".into())),
            ("arr", Json::Arr(vec![Json::Bool(true), Json::Null])),
            ("empty", Json::Obj(Vec::new())),
        ]);
        let one = j.render();
        let two = j.render();
        assert_eq!(one, two);
        // Insertion order preserved: "b" before "a".
        assert!(one.find("\"b\"").expect("b key") < one.find("\"a\"").expect("a key"));
        assert!(one.contains("\\\"y"));
        assert!(one.ends_with('\n'));
    }

    #[test]
    fn non_finite_floats_render_null() {
        assert_eq!(Json::Num(f64::NAN).render(), "null\n");
        assert_eq!(Json::Num(f64::INFINITY).render(), "null\n");
    }

    #[test]
    fn control_chars_escaped() {
        assert_eq!(esc("a\u{1}b"), "a\\u0001b");
        assert_eq!(esc("a\tb\nc"), "a\\tb\\nc");
    }
}
