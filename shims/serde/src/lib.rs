//! Offline stand-in for `serde`.
//!
//! Instead of serde's visitor architecture this shim uses a concrete
//! [`Value`] tree as the data model: `Serialize` renders into a `Value`,
//! `Deserialize` reads back out of one, and `serde_json` maps `Value`
//! to/from JSON text. The `#[derive(Serialize, Deserialize)]` macros are
//! provided by the companion `serde_derive` proc-macro crate and generate the
//! same externally-tagged representation real serde would for the shapes this
//! workspace uses (named structs, newtype/tuple structs, enums with unit,
//! tuple and struct variants).

pub use serde_derive::{Deserialize, Serialize};

/// The self-describing data model all (de)serialization goes through.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    /// Signed integers (and any integer parsed from JSON that fits in i64).
    I64(i64),
    /// Unsigned integers above `i64::MAX`.
    U64(u64),
    F64(f64),
    Str(String),
    Array(Vec<Value>),
    /// Key-value pairs in insertion order.
    Object(Vec<(String, Value)>),
}

impl Value {
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(o) => Some(o),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::I64(_) | Value::U64(_) => "integer",
            Value::F64(_) => "float",
            Value::Str(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }
}

/// Deserialization error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeError(pub String);

impl DeError {
    pub fn custom(msg: impl Into<String>) -> Self {
        DeError(msg.into())
    }
}

impl std::fmt::Display for DeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "deserialization error: {}", self.0)
    }
}

impl std::error::Error for DeError {}

fn type_err<T>(expected: &str, got: &Value) -> Result<T, DeError> {
    Err(DeError(format!(
        "expected {expected}, got {}",
        got.type_name()
    )))
}

/// Renders `self` into the [`Value`] data model.
pub trait Serialize {
    fn to_value(&self) -> Value;
}

/// Reconstructs `Self` from the [`Value`] data model.
pub trait Deserialize: Sized {
    fn from_value(v: &Value) -> Result<Self, DeError>;
}

/// Looks up a field of an object value; used by derived impls.
pub fn object_field<'a>(obj: &'a [(String, Value)], name: &str) -> Result<&'a Value, DeError> {
    obj.iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v)
        .ok_or_else(|| DeError(format!("missing field `{name}`")))
}

// ---------------------------------------------------------------- primitives

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value { Value::I64(*self as i64) }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                let n: i64 = match *v {
                    Value::I64(n) => n,
                    Value::U64(n) => i64::try_from(n)
                        .map_err(|_| DeError(format!("integer {n} out of range")))?,
                    Value::F64(f) if f.fract() == 0.0 && f.abs() < 9.0e18 => f as i64,
                    ref other => return type_err("integer", other),
                };
                <$t>::try_from(n).map_err(|_| DeError(format!("integer {n} out of range")))
            }
        }
    )*};
}

impl_signed!(i8, i16, i32, i64, isize);

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                let wide = *self as u64;
                if wide <= i64::MAX as u64 { Value::I64(wide as i64) } else { Value::U64(wide) }
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                let n: u64 = match *v {
                    Value::I64(n) => u64::try_from(n)
                        .map_err(|_| DeError(format!("integer {n} out of range")))?,
                    Value::U64(n) => n,
                    Value::F64(f) if f.fract() == 0.0 && (0.0..1.9e19).contains(&f) => f as u64,
                    ref other => return type_err("integer", other),
                };
                <$t>::try_from(n).map_err(|_| DeError(format!("integer {n} out of range")))
            }
        }
    )*};
}

impl_unsigned!(u8, u16, u32, u64, usize);

macro_rules! impl_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value { Value::F64(*self as f64) }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                match *v {
                    Value::F64(f) => Ok(f as $t),
                    Value::I64(n) => Ok(n as $t),
                    Value::U64(n) => Ok(n as $t),
                    Value::Null => Ok(<$t>::NAN),
                    ref other => type_err("number", other),
                }
            }
        }
    )*};
}

impl_float!(f32, f64);

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => type_err("bool", other),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => type_err("string", other),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Deserialize for char {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Str(s) if s.chars().count() == 1 => Ok(s.chars().next().unwrap()),
            other => type_err("single-character string", other),
        }
    }
}

// ---------------------------------------------------------------- containers

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        T::from_value(v).map(Box::new)
    }
}

impl Deserialize for Box<str> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        String::from_value(v).map(String::into_boxed_str)
    }
}

impl<T: Deserialize> Deserialize for Box<[T]> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Vec::<T>::from_value(v).map(Vec::into_boxed_slice)
    }
}

impl<T: Serialize + ?Sized> Serialize for std::sync::Arc<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

/// Like upstream serde's `rc` feature: any `Arc<T>` whose `Box<T>`
/// deserializes, unsized `Arc<str>` and `Arc<[T]>` included.
impl<T: ?Sized> Deserialize for std::sync::Arc<T>
where
    Box<T>: Deserialize,
{
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Box::<T>::from_value(v).map(Into::into)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(t) => t.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Array(items) => items.iter().map(T::from_value).collect(),
            other => type_err("array", other),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let items: Vec<T> = Vec::from_value(v)?;
        let got = items.len();
        items
            .try_into()
            .map_err(|_| DeError(format!("expected array of length {N}, got {got}")))
    }
}

impl<T: Serialize> Serialize for std::collections::VecDeque<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for std::collections::VecDeque<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Array(items) => items.iter().map(T::from_value).collect(),
            other => type_err("array", other),
        }
    }
}

macro_rules! impl_tuple {
    ($(($($name:ident . $idx:tt),+ ; $len:literal)),*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$idx.to_value()),+])
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                let arr = v.as_array().ok_or_else(|| DeError("expected array for tuple".into()))?;
                if arr.len() != $len {
                    return Err(DeError(format!("expected {}-tuple, got {} elements", $len, arr.len())));
                }
                Ok(($($name::from_value(&arr[$idx])?,)+))
            }
        }
    )*};
}

impl_tuple!(
    (A.0; 1),
    (A.0, B.1; 2),
    (A.0, B.1, C.2; 3),
    (A.0, B.1, C.2, D.3; 4)
);

fn map_to_value<'a, K, V, I>(iter: I) -> Value
where
    K: std::fmt::Display + 'a,
    V: Serialize + 'a,
    I: Iterator<Item = (&'a K, &'a V)>,
{
    Value::Object(iter.map(|(k, v)| (k.to_string(), v.to_value())).collect())
}

impl<K: std::fmt::Display, V: Serialize, S> Serialize for std::collections::HashMap<K, V, S> {
    fn to_value(&self) -> Value {
        map_to_value(self.iter())
    }
}

impl<K: std::fmt::Display, V: Serialize> Serialize for std::collections::BTreeMap<K, V> {
    fn to_value(&self) -> Value {
        map_to_value(self.iter())
    }
}

/// Map key types: serialized via `Display`, parsed back from the JSON
/// object-key string (serde_json stringifies integer map keys the same way).
pub trait MapKey: Sized {
    fn from_key(key: &str) -> Result<Self, DeError>;
}

impl MapKey for String {
    fn from_key(key: &str) -> Result<Self, DeError> {
        Ok(key.to_string())
    }
}

macro_rules! impl_map_key {
    ($($t:ty),*) => {$(
        impl MapKey for $t {
            fn from_key(key: &str) -> Result<Self, DeError> {
                key.parse()
                    .map_err(|_| DeError(format!("invalid map key `{key}`")))
            }
        }
    )*};
}

impl_map_key!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl<K, V, S> Deserialize for std::collections::HashMap<K, V, S>
where
    K: MapKey + Eq + std::hash::Hash,
    V: Deserialize,
    S: std::hash::BuildHasher + Default,
{
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Object(o) => o
                .iter()
                .map(|(k, v)| Ok((K::from_key(k)?, V::from_value(v)?)))
                .collect(),
            other => type_err("object", other),
        }
    }
}

impl<K: MapKey + Ord, V: Deserialize> Deserialize for std::collections::BTreeMap<K, V> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Object(o) => o
                .iter()
                .map(|(k, v)| Ok((K::from_key(k)?, V::from_value(v)?)))
                .collect(),
            other => type_err("object", other),
        }
    }
}

impl Serialize for std::time::Duration {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("secs".to_string(), self.as_secs().to_value()),
            ("nanos".to_string(), self.subsec_nanos().to_value()),
        ])
    }
}

impl Deserialize for std::time::Duration {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let obj = match v.as_object() {
            Some(o) => o,
            None => return type_err("duration object", v),
        };
        let secs = u64::from_value(object_field(obj, "secs")?)?;
        let nanos = u32::from_value(object_field(obj, "nanos")?)?;
        Ok(std::time::Duration::new(secs, nanos))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        assert_eq!(i32::from_value(&42i32.to_value()).unwrap(), 42);
        assert_eq!(u64::from_value(&u64::MAX.to_value()).unwrap(), u64::MAX);
        assert_eq!(f64::from_value(&1.5f64.to_value()).unwrap(), 1.5);
        assert!(bool::from_value(&true.to_value()).unwrap());
        assert_eq!(
            String::from_value(&"hi".to_string().to_value()).unwrap(),
            "hi"
        );
    }

    #[test]
    fn containers_round_trip() {
        let v = vec![1u32, 2, 3];
        assert_eq!(Vec::<u32>::from_value(&v.to_value()).unwrap(), v);
        let o: Option<u8> = None;
        assert_eq!(Option::<u8>::from_value(&o.to_value()).unwrap(), None);
        let t = (1u8, "x".to_string());
        assert_eq!(
            <(u8, String)>::from_value(&t.to_value()).unwrap(),
            (1u8, "x".to_string())
        );
    }

    #[test]
    fn shared_unsized_round_trip() {
        use std::sync::Arc;
        let name: Arc<str> = Arc::from("field0");
        assert_eq!(Arc::<str>::from_value(&name.to_value()).unwrap(), name);
        let bytes: Arc<[u8]> = Arc::from(vec![1u8, 2, 3]);
        assert_eq!(Arc::<[u8]>::from_value(&bytes.to_value()).unwrap(), bytes);
        let sized = Arc::new(7u16);
        assert_eq!(Arc::<u16>::from_value(&sized.to_value()).unwrap(), sized);
        assert!(Arc::<str>::from_value(&Value::I64(1)).is_err());
    }

    #[test]
    fn type_errors_are_reported() {
        assert!(bool::from_value(&Value::I64(1)).is_err());
        assert!(u8::from_value(&Value::I64(300)).is_err());
        assert!(object_field(&[], "missing").is_err());
    }
}
