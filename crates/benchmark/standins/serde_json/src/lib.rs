//! Stand-in for `serde_json`: a `Value` tree, the `json!` macro, a compact
//! and a pretty writer, and a strict parser. There is no serde data model
//! behind it; [`ToJson`] and [`FromJson`] take the place of `Serialize` and
//! `Deserialize` for the types the repository passes.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

mod parse;

pub use parse::{from_slice, from_str};

/// Nesting depth at which the parser gives up, as in the published crate.
const MAX_DEPTH: usize = 128;

#[derive(Clone, Debug, PartialEq, Default)]
pub enum Value {
    #[default]
    Null,
    Bool(bool),
    Number(Number),
    String(String),
    Array(Vec<Value>),
    Object(Map<String, Value>),
}

/// A JSON number, kept as the integer it was when it was one.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Number {
    U(u64),
    I(i64),
    F(f64),
}

impl Number {
    pub fn as_f64(&self) -> Option<f64> {
        Some(match *self {
            Number::U(n) => n as f64,
            Number::I(n) => n as f64,
            Number::F(n) => n,
        })
    }

    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Number::U(n) => Some(n),
            Number::I(n) => u64::try_from(n).ok(),
            Number::F(_) => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Number::U(n) => i64::try_from(n).ok(),
            Number::I(n) => Some(n),
            Number::F(_) => None,
        }
    }
}

/// An object: keys in sorted order, like the published crate's default.
#[derive(Clone, Debug, PartialEq)]
pub struct Map<K: Ord, V>(BTreeMap<K, V>);

impl<K: Ord, V> Default for Map<K, V> {
    fn default() -> Self {
        Map(BTreeMap::new())
    }
}

impl Map<String, Value> {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn insert(&mut self, key: String, value: Value) -> Option<Value> {
        self.0.insert(key, value)
    }

    pub fn get(&self, key: &str) -> Option<&Value> {
        self.0.get(key)
    }

    pub fn get_mut(&mut self, key: &str) -> Option<&mut Value> {
        self.0.get_mut(key)
    }

    pub fn remove(&mut self, key: &str) -> Option<Value> {
        self.0.remove(key)
    }

    pub fn contains_key(&self, key: &str) -> bool {
        self.0.contains_key(key)
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn iter(&self) -> std::collections::btree_map::Iter<'_, String, Value> {
        self.0.iter()
    }

    pub fn keys(&self) -> std::collections::btree_map::Keys<'_, String, Value> {
        self.0.keys()
    }

    pub fn values(&self) -> std::collections::btree_map::Values<'_, String, Value> {
        self.0.values()
    }
}

impl<'a> IntoIterator for &'a Map<String, Value> {
    type Item = (&'a String, &'a Value);
    type IntoIter = std::collections::btree_map::Iter<'a, String, Value>;
    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

impl IntoIterator for Map<String, Value> {
    type Item = (String, Value);
    type IntoIter = std::collections::btree_map::IntoIter<String, Value>;
    fn into_iter(self) -> Self::IntoIter {
        self.0.into_iter()
    }
}

impl FromIterator<(String, Value)> for Map<String, Value> {
    fn from_iter<I: IntoIterator<Item = (String, Value)>>(iter: I) -> Self {
        Map(iter.into_iter().collect())
    }
}

static NULL: Value = Value::Null;

impl Value {
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    pub fn is_object(&self) -> bool {
        matches!(self, Value::Object(_))
    }

    pub fn is_array(&self) -> bool {
        matches!(self, Value::Array(_))
    }

    pub fn is_string(&self) -> bool {
        matches!(self, Value::String(_))
    }

    pub fn is_number(&self) -> bool {
        matches!(self, Value::Number(_))
    }

    pub fn is_u64(&self) -> bool {
        self.as_u64().is_some()
    }

    pub fn is_f64(&self) -> bool {
        matches!(self, Value::Number(Number::F(_)))
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => n.as_f64(),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) => n.as_u64(),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(n) => n.as_i64(),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_array_mut(&mut self) -> Option<&mut Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_object(&self) -> Option<&Map<String, Value>> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    pub fn as_object_mut(&mut self) -> Option<&mut Map<String, Value>> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    pub fn get<I: ValueIndex>(&self, index: I) -> Option<&Value> {
        index.index_into(self)
    }
}

/// What a `Value` can be indexed by: an object key or an array position.
pub trait ValueIndex {
    fn index_into<'v>(&self, value: &'v Value) -> Option<&'v Value>;
    fn index_or_insert<'v>(&self, value: &'v mut Value) -> &'v mut Value;
}

impl ValueIndex for str {
    fn index_into<'v>(&self, value: &'v Value) -> Option<&'v Value> {
        value.as_object()?.get(self)
    }

    fn index_or_insert<'v>(&self, value: &'v mut Value) -> &'v mut Value {
        if value.is_null() {
            *value = Value::Object(Map::new());
        }
        match value {
            Value::Object(map) => map.0.entry(self.to_owned()).or_insert(Value::Null),
            other => panic!("cannot index {other} with a string key"),
        }
    }
}

impl ValueIndex for String {
    fn index_into<'v>(&self, value: &'v Value) -> Option<&'v Value> {
        self.as_str().index_into(value)
    }

    fn index_or_insert<'v>(&self, value: &'v mut Value) -> &'v mut Value {
        self.as_str().index_or_insert(value)
    }
}

impl ValueIndex for usize {
    fn index_into<'v>(&self, value: &'v Value) -> Option<&'v Value> {
        value.as_array()?.get(*self)
    }

    fn index_or_insert<'v>(&self, value: &'v mut Value) -> &'v mut Value {
        match value {
            Value::Array(items) => &mut items[*self],
            other => panic!("cannot index {other} with a position"),
        }
    }
}

impl<T: ValueIndex + ?Sized> ValueIndex for &T {
    fn index_into<'v>(&self, value: &'v Value) -> Option<&'v Value> {
        (**self).index_into(value)
    }

    fn index_or_insert<'v>(&self, value: &'v mut Value) -> &'v mut Value {
        (**self).index_or_insert(value)
    }
}

impl<I: ValueIndex> std::ops::Index<I> for Value {
    type Output = Value;
    fn index(&self, index: I) -> &Value {
        index.index_into(self).unwrap_or(&NULL)
    }
}

impl<I: ValueIndex> std::ops::IndexMut<I> for Value {
    fn index_mut(&mut self, index: I) -> &mut Value {
        index.index_or_insert(self)
    }
}

/// Conversion into a [`Value`]; the stand-in for `Serialize`.
pub trait ToJson {
    fn to_json(&self) -> Value;
}

impl ToJson for Value {
    fn to_json(&self) -> Value {
        self.clone()
    }
}

impl ToJson for Map<String, Value> {
    fn to_json(&self) -> Value {
        Value::Object(self.clone())
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Value {
        Value::Bool(*self)
    }
}

impl ToJson for str {
    fn to_json(&self) -> Value {
        Value::String(self.to_owned())
    }
}

impl ToJson for String {
    fn to_json(&self) -> Value {
        Value::String(self.clone())
    }
}

macro_rules! number_to_json {
    ($variant:ident as $wide:ty: $($t:ty)*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Value {
                Value::Number(Number::$variant(*self as $wide))
            }
        }
    )*};
}
number_to_json!(U as u64: u8 u16 u32 u64 usize);
number_to_json!(I as i64: i8 i16 i32 i64 isize);

impl ToJson for f64 {
    // JSON has no NaN or infinity; they become null.
    fn to_json(&self) -> Value {
        if self.is_finite() {
            Value::Number(Number::F(*self))
        } else {
            Value::Null
        }
    }
}

impl ToJson for f32 {
    fn to_json(&self) -> Value {
        f64::from(*self).to_json()
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Value {
        (**self).to_json()
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Value {
        self.as_ref().map_or(Value::Null, ToJson::to_json)
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Value {
        Value::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Value {
        self.as_slice().to_json()
    }
}

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn to_json(&self) -> Value {
        self.as_slice().to_json()
    }
}

impl<T: ToJson> ToJson for BTreeMap<String, T> {
    fn to_json(&self) -> Value {
        Value::Object(self.iter().map(|(k, v)| (k.clone(), v.to_json())).collect())
    }
}

macro_rules! value_from {
    ($($t:ty)*) => {$(
        impl From<$t> for Value {
            fn from(v: $t) -> Value {
                v.to_json()
            }
        }
    )*};
}
value_from!(bool &str String u8 u16 u32 u64 usize i8 i16 i32 i64 isize f32 f64);

impl From<Map<String, Value>> for Value {
    fn from(map: Map<String, Value>) -> Value {
        Value::Object(map)
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(items: Vec<T>) -> Value {
        Value::Array(items.into_iter().map(Into::into).collect())
    }
}

impl PartialEq<str> for Value {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == Some(other)
    }
}

impl PartialEq<&str> for Value {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(*other)
    }
}

impl PartialEq<String> for Value {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == Some(other.as_str())
    }
}

impl PartialEq<bool> for Value {
    fn eq(&self, other: &bool) -> bool {
        self.as_bool() == Some(*other)
    }
}

macro_rules! value_eq_number {
    ($($t:ty => $get:ident as $wide:ty),*) => {$(
        impl PartialEq<$t> for Value {
            fn eq(&self, other: &$t) -> bool {
                self.$get() == Some(*other as $wide)
            }
        }
    )*};
}
value_eq_number!(u8 => as_u64 as u64, u16 => as_u64 as u64, u32 => as_u64 as u64, u64 => as_u64 as u64,
    usize => as_u64 as u64, i32 => as_i64 as i64, i64 => as_i64 as i64, f64 => as_f64 as f64);

/// Parsed type of [`from_str`]; the stand-in for `Deserialize`.
pub trait FromJson: Sized {
    fn from_json(value: Value) -> Result<Self>;
}

impl FromJson for Value {
    fn from_json(value: Value) -> Result<Self> {
        Ok(value)
    }
}

#[derive(Debug)]
pub struct Error(String);

impl Error {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        Error(message.into())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

impl From<Error> for std::io::Error {
    fn from(e: Error) -> Self {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e)
    }
}

pub type Result<T> = std::result::Result<T, Error>;

pub fn to_string<T: ToJson + ?Sized>(value: &T) -> Result<String> {
    Ok(value.to_json().to_string())
}

pub fn to_string_pretty<T: ToJson + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&mut out, &value.to_json(), Some(0));
    Ok(out)
}

pub fn to_vec<T: ToJson + ?Sized>(value: &T) -> Result<Vec<u8>> {
    to_string(value).map(String::into_bytes)
}

impl fmt::Display for Value {
    /// Compact by default; `{:#}` pretty-prints with two-space indents.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        write_value(&mut out, self, f.alternate().then_some(0));
        f.write_str(&out)
    }
}

/// Writes `value`; `indent` is the current depth when pretty-printing.
fn write_value(out: &mut String, value: &Value, indent: Option<usize>) {
    let newline = |out: &mut String, depth: usize| {
        if indent.is_some() {
            out.push('\n');
            out.extend(std::iter::repeat_n("  ", depth));
        }
    };
    let inner = indent.map(|d| d + 1);
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Number(Number::U(n)) => write!(out, "{n}").expect("write to String"),
        Value::Number(Number::I(n)) => write!(out, "{n}").expect("write to String"),
        // Debug keeps the ".0" of a whole float and switches to an exponent
        // for very large and very small ones; both forms are valid JSON.
        Value::Number(Number::F(n)) => write!(out, "{n:?}").expect("write to String"),
        Value::String(s) => write_string(out, s),
        Value::Array(items) if items.is_empty() => out.push_str("[]"),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline(out, inner.unwrap_or(0));
                write_value(out, item, inner);
            }
            newline(out, indent.unwrap_or(0));
            out.push(']');
        }
        Value::Object(map) if map.is_empty() => out.push_str("{}"),
        Value::Object(map) => {
            out.push('{');
            for (i, (key, item)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline(out, inner.unwrap_or(0));
                write_string(out, key);
                out.push_str(if indent.is_some() { ": " } else { ":" });
                write_value(out, item, inner);
            }
            newline(out, indent.unwrap_or(0));
            out.push('}');
        }
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write to String"),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Builds a [`Value`] from JSON-like syntax. Object keys are string
/// literals; a value is `null`, a nested `{}` or `[]`, or any expression
/// whose type implements [`ToJson`].
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ([ $($items:tt)* ]) => {{
        #[allow(unused_mut)]
        let mut items: ::std::vec::Vec<$crate::Value> = ::std::vec::Vec::new();
        $crate::json_items!(items () $($items)*);
        $crate::Value::Array(items)
    }};
    ({ $($fields:tt)* }) => {{
        #[allow(unused_mut)]
        let mut map = $crate::Map::new();
        $crate::json_fields!(map $($fields)*);
        $crate::Value::Object(map)
    }};
    ($value:expr) => { $crate::ToJson::to_json(&$value) };
}

/// Array body of [`json!`]: gathers tokens up to each top-level comma.
#[doc(hidden)]
#[macro_export]
macro_rules! json_items {
    ($items:ident ()) => {};
    ($items:ident ($($value:tt)+)) => { $items.push($crate::json!($($value)+)); };
    ($items:ident ($($value:tt)+) , $($rest:tt)*) => {
        $items.push($crate::json!($($value)+));
        $crate::json_items!($items () $($rest)*);
    };
    ($items:ident ($($value:tt)*) $next:tt $($rest:tt)*) => {
        $crate::json_items!($items ($($value)* $next) $($rest)*);
    };
}

/// Object body of [`json!`]: `"key": value` pairs.
#[doc(hidden)]
#[macro_export]
macro_rules! json_fields {
    ($map:ident) => {};
    ($map:ident $key:literal : $($rest:tt)+) => { $crate::json_field_value!($map $key () $($rest)+); };
    ($map:ident ($key:expr) : $($rest:tt)+) => { $crate::json_field_value!($map $key () $($rest)+); };
}

#[doc(hidden)]
#[macro_export]
macro_rules! json_field_value {
    ($map:ident $key:tt ($($value:tt)+)) => {
        $map.insert(::std::string::ToString::to_string(&$key), $crate::json!($($value)+));
    };
    ($map:ident $key:tt ($($value:tt)+) , $($rest:tt)*) => {
        $map.insert(::std::string::ToString::to_string(&$key), $crate::json!($($value)+));
        $crate::json_fields!($map $($rest)*);
    };
    ($map:ident $key:tt ($($value:tt)*) $next:tt $($rest:tt)*) => {
        $crate::json_field_value!($map $key ($($value)* $next) $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn macro_builds_nested_values() {
        let name = String::from("x");
        let list = vec![1u32, 2, 3];
        let v = json!({
            "name": name,
            "n": 3u64,
            "ratio": 1.0 / 4.0,
            "none": null,
            "nan": f64::NAN,
            "list": list.iter().map(|n| json!({ "n": n })).collect::<Vec<_>>(),
            "inner": { "a": [1, "two", null, [true]], "empty": {} },
        });
        assert_eq!(v["name"], "x");
        assert_eq!(v["n"], 3u64);
        assert_eq!(v["ratio"].as_f64(), Some(0.25));
        assert!(v["none"].is_null() && v["nan"].is_null() && v["missing"].is_null());
        assert_eq!(v["list"][2]["n"], 3u64);
        assert_eq!(v["inner"]["a"][3][0], true);
        assert_eq!(
            v["inner"].to_string(),
            r#"{"a":[1,"two",null,[true]],"empty":{}}"#
        );
    }

    #[test]
    fn text_round_trips() {
        let v =
            json!({ "s": "a\"b\\c\n\u{1}é😀", "f": 1.0, "big": 1e300, "neg": -7, "u": u64::MAX });
        for text in [to_string(&v).unwrap(), to_string_pretty(&v).unwrap()] {
            let back: Value = from_str(&text).unwrap();
            assert_eq!(back, v, "{text}");
        }
        assert_eq!(json!(1.0).to_string(), "1.0");
        let escaped: Value = from_str(r#""\ud83d\ude00\u00e9\/""#).unwrap();
        assert_eq!(escaped, "😀é/");
    }

    #[test]
    fn parser_rejects_malformed_text() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "01",
            "1.",
            "nul",
            "\"\\x\"",
            "\"a",
            "1 2",
            "\"\\ud800\"",
            "-",
        ] {
            assert!(from_str::<Value>(bad).is_err(), "{bad:?} parsed");
        }
        let deep = "[".repeat(MAX_DEPTH + 1);
        assert!(from_str::<Value>(&deep).is_err());
    }
}
