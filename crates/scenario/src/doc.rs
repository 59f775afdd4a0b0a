//! A minimal self-contained document model with TOML and JSON frontends.
//!
//! No serializer exists in the dependency tree, so the scenario layer
//! carries its own tiny reader/writer pair. Both frontends share one [`Value`] tree:
//!
//! * **TOML** — the human-facing format for preset files: bare top-level
//!   keys plus one level of `[section]` tables, single-line arrays,
//!   `#` comments.
//! * **JSON** — the machine-facing format, for tooling that already
//!   speaks JSON (the observability exports use the same approach).
//!
//! Floats are printed with Rust's shortest round-trip representation
//! (`{:?}`), so a parse → emit → parse cycle is bit-exact for every finite
//! `f64`; unsigned integers keep full 64-bit precision through a dedicated
//! variant.

use std::fmt;

/// One node of a parsed document.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (seeds, counts). Kept apart from floats so a
    /// 64-bit seed survives the round trip exactly.
    Int(u64),
    /// A finite floating-point number.
    Float(f64),
    /// A string.
    Str(String),
    /// A homogeneous single-line array.
    Arr(Vec<Value>),
    /// An ordered table: insertion order is emission order, so documents
    /// are deterministic.
    Table(Vec<(String, Value)>),
}

impl Value {
    /// An empty table.
    pub fn table() -> Self {
        Value::Table(Vec::new())
    }

    /// Inserts (or replaces) a key in a table value.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not a table (builder misuse, not input error).
    pub fn set(&mut self, key: &str, value: Value) {
        let Value::Table(entries) = self else {
            panic!("Value::set on a non-table");
        };
        match entries.iter_mut().find(|(k, _)| k == key) {
            Some((_, v)) => *v = value,
            None => entries.push((key.to_string(), value)),
        }
    }

    /// Looks up a key in a table value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Table(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Table entries, or an empty slice for non-tables.
    pub fn entries(&self) -> &[(String, Value)] {
        match self {
            Value::Table(entries) => entries,
            _ => &[],
        }
    }
}

/// A document-level parse or shape error, with enough context to fix the
/// offending line.
#[derive(Debug, Clone, PartialEq)]
pub struct DocError {
    /// What went wrong.
    pub message: String,
    /// 1-based line of the offending input, when known.
    pub line: Option<usize>,
}

impl DocError {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        DocError {
            message: message.into(),
            line: None,
        }
    }

    pub(crate) fn at(message: impl Into<String>, line: usize) -> Self {
        DocError {
            message: message.into(),
            line: Some(line),
        }
    }
}

impl fmt::Display for DocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.line {
            Some(line) => write!(f, "line {line}: {}", self.message),
            None => f.write_str(&self.message),
        }
    }
}

impl std::error::Error for DocError {}

// --- TOML frontend -------------------------------------------------------

/// Parses the supported TOML subset into a [`Value::Table`].
pub fn parse_toml(input: &str) -> Result<Value, DocError> {
    let mut root = Value::table();
    // Index of the section currently being filled, or None for the root.
    let mut section: Option<String> = None;

    for (i, raw) in input.lines().enumerate() {
        let lineno = i + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(rest) = line.strip_prefix('[') {
            let Some(name) = rest.strip_suffix(']') else {
                return Err(DocError::at("unterminated section header", lineno));
            };
            let name = name.trim();
            if name.is_empty() || name.contains('[') {
                return Err(DocError::at(format!("bad section name '{name}'"), lineno));
            }
            if root.get(name).is_some() {
                return Err(DocError::at(format!("duplicate section '{name}'"), lineno));
            }
            root.set(name, Value::table());
            section = Some(name.to_string());
            continue;
        }
        let Some(eq) = line.find('=') else {
            return Err(DocError::at(
                format!("expected 'key = value': {line}"),
                lineno,
            ));
        };
        let key = line[..eq].trim();
        if key.is_empty()
            || !key
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
        {
            return Err(DocError::at(format!("bad key '{key}'"), lineno));
        }
        let mut cursor = Cursor::new(&line[eq + 1..], lineno);
        let value = cursor.parse_value()?;
        cursor.skip_ws();
        if !cursor.at_end_or_comment() {
            return Err(DocError::at(
                format!("trailing input after value for '{key}'"),
                lineno,
            ));
        }
        let target = match &section {
            Some(name) => {
                // The section was created when its header was read.
                let Value::Table(entries) = &mut root else {
                    unreachable!()
                };
                &mut entries
                    .iter_mut()
                    .find(|(k, _)| k == name)
                    .expect("live section")
                    .1
            }
            None => &mut root,
        };
        if target.get(key).is_some() {
            return Err(DocError::at(format!("duplicate key '{key}'"), lineno));
        }
        target.set(key, value);
    }
    Ok(root)
}

/// Emits a [`Value::Table`] as TOML: root scalars first, then one
/// `[section]` per nested table, in insertion order.
pub fn to_toml(root: &Value) -> String {
    let mut out = String::new();
    for (key, value) in root.entries() {
        if !matches!(value, Value::Table(_)) {
            out.push_str(key);
            out.push_str(" = ");
            emit_toml_value(value, &mut out);
            out.push('\n');
        }
    }
    for (key, value) in root.entries() {
        if matches!(value, Value::Table(_)) {
            if !out.is_empty() {
                out.push('\n');
            }
            out.push('[');
            out.push_str(key);
            out.push_str("]\n");
            for (k, v) in value.entries() {
                out.push_str(k);
                out.push_str(" = ");
                emit_toml_value(v, &mut out);
                out.push('\n');
            }
        }
    }
    out
}

fn emit_toml_value(value: &Value, out: &mut String) {
    match value {
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(n) => out.push_str(&n.to_string()),
        // `{:?}` is Rust's shortest round-trip float form and always
        // carries a '.' or exponent, which TOML requires of floats.
        Value::Float(x) => out.push_str(&format!("{x:?}")),
        Value::Str(s) => emit_string(s, out),
        Value::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                emit_toml_value(item, out);
            }
            out.push(']');
        }
        Value::Table(_) => unreachable!("nested tables are emitted as sections"),
    }
}

// --- JSON frontend -------------------------------------------------------

/// Parses a JSON document into a [`Value`].
pub fn parse_json(input: &str) -> Result<Value, DocError> {
    let mut cursor = Cursor::new(input, 1);
    cursor.skip_ws();
    let value = cursor.parse_json_value()?;
    cursor.skip_ws();
    if !cursor.at_end() {
        return Err(DocError::at("trailing input after document", cursor.line));
    }
    Ok(value)
}

/// Emits a [`Value`] as pretty-printed JSON (2-space indent).
pub fn to_json(value: &Value) -> String {
    let mut out = String::new();
    emit_json_value(value, 0, &mut out);
    out.push('\n');
    out
}

fn emit_json_value(value: &Value, indent: usize, out: &mut String) {
    match value {
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(n) => out.push_str(&n.to_string()),
        Value::Float(x) => out.push_str(&format!("{x:?}")),
        Value::Str(s) => emit_string(s, out),
        Value::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                emit_json_value(item, indent, out);
            }
            out.push(']');
        }
        Value::Table(entries) => {
            if entries.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push_str("{\n");
            let pad = "  ".repeat(indent + 1);
            for (i, (key, v)) in entries.iter().enumerate() {
                out.push_str(&pad);
                emit_string(key, out);
                out.push_str(": ");
                emit_json_value(v, indent + 1, out);
                if i + 1 < entries.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            out.push_str(&"  ".repeat(indent));
            out.push('}');
        }
    }
}

/// Emits a double-quoted string with the escapes both formats share.
fn emit_string(s: &str, out: &mut String) {
    out.push('"');
    out.push_str(&imufit_obs::escape_json(s));
    out.push('"');
}

// --- Shared value cursor -------------------------------------------------

/// A byte cursor over one value expression (a TOML right-hand side or a
/// whole JSON document).
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    line: usize,
}

impl<'a> Cursor<'a> {
    fn new(input: &'a str, line: usize) -> Self {
        Cursor {
            bytes: input.as_bytes(),
            pos: 0,
            line,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        if b == b'\n' {
            self.line += 1;
        }
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.bump();
        }
    }

    fn at_end(&self) -> bool {
        self.pos >= self.bytes.len()
    }

    fn at_end_or_comment(&self) -> bool {
        self.at_end() || self.peek() == Some(b'#')
    }

    fn err(&self, message: impl Into<String>) -> DocError {
        DocError::at(message, self.line)
    }

    /// A scalar or array in the shared literal syntax (used by TOML).
    fn parse_value(&mut self) -> Result<Value, DocError> {
        self.skip_ws();
        match self.peek() {
            Some(b'"') => self.parse_string().map(Value::Str),
            Some(b'[') => {
                self.bump();
                let mut items = Vec::new();
                loop {
                    self.skip_ws();
                    if self.peek() == Some(b']') {
                        self.bump();
                        return Ok(Value::Arr(items));
                    }
                    items.push(self.parse_value()?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => {
                            self.bump();
                        }
                        Some(b']') => {}
                        _ => return Err(self.err("expected ',' or ']' in array")),
                    }
                }
            }
            Some(b't' | b'f') => self.parse_keyword(),
            Some(c) if c == b'-' || c == b'+' || c.is_ascii_digit() => self.parse_number(),
            _ => Err(self.err("expected a value")),
        }
    }

    /// A JSON value: the shared literals plus `{...}` objects.
    fn parse_json_value(&mut self) -> Result<Value, DocError> {
        self.skip_ws();
        if self.peek() == Some(b'{') {
            self.bump();
            let mut table = Value::table();
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.bump();
                return Ok(table);
            }
            loop {
                self.skip_ws();
                if self.peek() != Some(b'"') {
                    return Err(self.err("expected a quoted object key"));
                }
                let key = self.parse_string()?;
                self.skip_ws();
                if self.bump() != Some(b':') {
                    return Err(self.err("expected ':' after object key"));
                }
                if table.get(&key).is_some() {
                    return Err(self.err(format!("duplicate key '{key}'")));
                }
                let value = self.parse_json_value()?;
                table.set(&key, value);
                self.skip_ws();
                match self.bump() {
                    Some(b',') => continue,
                    Some(b'}') => return Ok(table),
                    _ => return Err(self.err("expected ',' or '}' in object")),
                }
            }
        }
        if self.peek() == Some(b'[') {
            self.bump();
            let mut items = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b']') {
                self.bump();
                return Ok(Value::Arr(items));
            }
            loop {
                items.push(self.parse_json_value()?);
                self.skip_ws();
                match self.bump() {
                    Some(b',') => continue,
                    Some(b']') => return Ok(Value::Arr(items)),
                    _ => return Err(self.err("expected ',' or ']' in array")),
                }
            }
        }
        match self.peek() {
            Some(b'"') => self.parse_string().map(Value::Str),
            Some(b't' | b'f') => self.parse_keyword(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn parse_keyword(&mut self) -> Result<Value, DocError> {
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_alphabetic()) {
            self.bump();
        }
        match &self.bytes[start..self.pos] {
            b"true" => Ok(Value::Bool(true)),
            b"false" => Ok(Value::Bool(false)),
            other => Err(self.err(format!(
                "unknown keyword '{}'",
                String::from_utf8_lossy(other)
            ))),
        }
    }

    fn parse_number(&mut self) -> Result<Value, DocError> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(c) if c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E' | b'_')
        ) {
            self.bump();
        }
        let text: String = String::from_utf8_lossy(&self.bytes[start..self.pos]).replace('_', "");
        if !text.contains(['.', 'e', 'E']) && !text.starts_with('-') {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::Int(n));
            }
        }
        match text.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(Value::Float(x)),
            Ok(_) => Err(self.err(format!("non-finite number '{text}'"))),
            Err(_) => Err(self.err(format!("bad number '{text}'"))),
        }
    }

    fn parse_string(&mut self) -> Result<String, DocError> {
        // Caller guaranteed the opening quote.
        self.bump();
        let mut s = String::new();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => return Ok(s),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => s.push('"'),
                    Some(b'\\') => s.push('\\'),
                    Some(b'n') => s.push('\n'),
                    Some(b't') => s.push('\t'),
                    Some(b'r') => s.push('\r'),
                    Some(b'u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self
                                .bump()
                                .and_then(|c| (c as char).to_digit(16))
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            code = code * 16 + d;
                        }
                        s.push(char::from_u32(code).ok_or_else(|| self.err("bad \\u code point"))?);
                    }
                    _ => return Err(self.err("unknown escape")),
                },
                Some(c) if c < 0x80 => s.push(c as char),
                Some(first) => {
                    // Re-assemble a multi-byte UTF-8 sequence.
                    let len = match first {
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        _ => 4,
                    };
                    let start = self.pos - 1;
                    for _ in 1..len {
                        self.bump();
                    }
                    let chunk = self
                        .bytes
                        .get(start..start + len)
                        .and_then(|b| std::str::from_utf8(b).ok())
                        .ok_or_else(|| self.err("bad UTF-8 in string"))?;
                    s.push_str(chunk);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Value {
        let mut sim = Value::table();
        sim.set("physics_rate", Value::Float(250.0));
        sim.set("imu_redundancy", Value::Int(3));
        sim.set(
            "durations",
            Value::Arr(vec![Value::Float(2.0), Value::Float(30.0)]),
        );
        let mut root = Value::table();
        root.set("name", Value::Str("paper-default".into()));
        root.set("enabled", Value::Bool(true));
        root.set("sim", sim);
        root
    }

    #[test]
    fn toml_round_trip() {
        let doc = sample();
        let text = to_toml(&doc);
        assert_eq!(parse_toml(&text).unwrap(), doc);
        assert!(text.starts_with("name = \"paper-default\""));
        assert!(text.contains("[sim]"));
    }

    #[test]
    fn json_round_trip() {
        let doc = sample();
        let text = to_json(&doc);
        assert_eq!(parse_json(&text).unwrap(), doc);
    }

    #[test]
    fn toml_comments_and_blanks_are_skipped() {
        let doc = parse_toml("# header\n\nname = \"x\" # trailing\n[s]\nk = 1\n").unwrap();
        assert_eq!(doc.get("name"), Some(&Value::Str("x".into())));
        assert_eq!(doc.get("s").unwrap().get("k"), Some(&Value::Int(1)));
    }

    #[test]
    fn toml_rejects_garbage() {
        assert!(parse_toml("key").is_err());
        assert!(parse_toml("[unterminated").is_err());
        assert!(parse_toml("k = ").is_err());
        assert!(parse_toml("k = 1 2").is_err());
        assert!(parse_toml("k = 1\nk = 2").is_err());
    }

    #[test]
    fn json_rejects_garbage() {
        assert!(parse_json("{").is_err());
        assert!(parse_json("{\"a\": }").is_err());
        assert!(parse_json("{\"a\": 1} x").is_err());
        assert!(parse_json("{\"a\": 1, \"a\": 2}").is_err());
    }

    #[test]
    fn floats_round_trip_shortest_repr() {
        for x in [0.1, 2.5e-3, 1.0 / 3.0, 90.0, f64::MIN_POSITIVE] {
            let text = to_toml(&{
                let mut t = Value::table();
                t.set("x", Value::Float(x));
                t
            });
            let back = parse_toml(&text).unwrap();
            assert_eq!(back.get("x"), Some(&Value::Float(x)), "{text}");
        }
    }

    #[test]
    fn u64_seeds_survive() {
        let mut t = Value::table();
        t.set("seed", Value::Int(u64::MAX));
        let back = parse_toml(&to_toml(&t)).unwrap();
        assert_eq!(back.get("seed"), Some(&Value::Int(u64::MAX)));
        let back = parse_json(&to_json(&t)).unwrap();
        assert_eq!(back.get("seed"), Some(&Value::Int(u64::MAX)));
    }

    #[test]
    fn strings_with_escapes() {
        let mut t = Value::table();
        t.set("s", Value::Str("a \"b\"\nüñ⚡".into()));
        assert_eq!(parse_toml(&to_toml(&t)).unwrap(), t);
        assert_eq!(parse_json(&to_json(&t)).unwrap(), t);
    }
}
