//! Offline stand-in for the [`serde`](https://serde.rs) crate.
//!
//! The real serde cannot be downloaded in this build environment, so this
//! shim provides the small (de)serialization surface the workspace uses:
//!
//! - a self-describing [`Value`] data model (JSON-shaped),
//! - [`Serialize`] / [`Deserialize`] traits that convert to and from it,
//! - `#[derive(Serialize, Deserialize)]` for named-field structs and
//!   unit-variant enums (via the `serde_derive` shim),
//! - impls for the primitives, `String`, `Vec<T>`, `Option<T>`, tuples and
//!   string-keyed maps.
//!
//! The `serde_json` shim renders [`Value`] to JSON text and parses it back,
//! so derived types round-trip through ordinary `.json` files exactly like
//! they would with the real crates (modulo serde's richer error locations).

#![forbid(unsafe_code)]

use std::collections::{BTreeMap, HashMap};

pub use serde_derive::{Deserialize, Serialize};

/// A dynamically typed (de)serialization value, shaped like JSON.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Signed integer.
    Int(i64),
    /// Unsigned integer (used when the value does not fit `i64`).
    UInt(u64),
    /// Floating-point number.
    Float(f64),
    /// String.
    Str(String),
    /// Array.
    Array(Vec<Value>),
    /// Object with insertion-ordered keys.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Looks up a key in an object value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an `f64` if it is numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::Int(v) => Some(v as f64),
            Value::UInt(v) => Some(v as f64),
            Value::Float(v) => Some(v),
            _ => None,
        }
    }

    /// The value as a `u64` if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::Int(v) if v >= 0 => Some(v as u64),
            Value::UInt(v) => Some(v),
            Value::Float(v) if v >= 0.0 && v.fract() == 0.0 && v <= u64::MAX as f64 => {
                Some(v as u64)
            }
            _ => None,
        }
    }

    /// The value as an `i64` if it is an integer in range.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Value::Int(v) => Some(v),
            Value::UInt(v) => i64::try_from(v).ok(),
            Value::Float(v) if v.fract() == 0.0 && v.abs() <= i64::MAX as f64 => Some(v as i64),
            _ => None,
        }
    }

    /// A short description of the value's kind, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) | Value::UInt(_) => "integer",
            Value::Float(_) => "float",
            Value::Str(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }
}

impl From<f64> for Value {
    /// A float value, or [`Value::Null`] for NaN and the infinities, which
    /// JSON cannot represent (as `serde_json::Value::from` does).
    fn from(v: f64) -> Self {
        if v.is_finite() {
            Value::Float(v)
        } else {
            Value::Null
        }
    }
}

/// Deserialization error types.
pub mod de {
    /// Error produced while converting a [`crate::Value`] into a typed value.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Error {
        message: String,
    }

    impl Error {
        /// Creates an error from any displayable message (mirrors
        /// `serde::de::Error::custom`).
        pub fn custom<T: std::fmt::Display>(msg: T) -> Self {
            Error {
                message: msg.to_string(),
            }
        }

        /// The error message.
        pub fn message(&self) -> &str {
            &self.message
        }
    }

    impl std::fmt::Display for Error {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "{}", self.message)
        }
    }

    impl std::error::Error for Error {}
}

/// Types that can be converted into a [`Value`].
pub trait Serialize {
    /// Converts `self` into the shim data model.
    fn to_value(&self) -> Value;
}

/// Types that can be reconstructed from a [`Value`].
pub trait Deserialize: Sized {
    /// Converts a value back into `Self`.
    fn from_value(value: &Value) -> Result<Self, de::Error>;
}

fn type_error<T>(expected: &str, got: &Value) -> Result<T, de::Error> {
    Err(de::Error::custom(format!(
        "expected {expected}, found {}",
        got.kind()
    )))
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}
impl Deserialize for bool {
    fn from_value(value: &Value) -> Result<Self, de::Error> {
        match value {
            Value::Bool(b) => Ok(*b),
            other => type_error("bool", other),
        }
    }
}

macro_rules! uint_value_impl {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::UInt(*self as u64)
            }
        }
        impl Deserialize for $t {
            fn from_value(value: &Value) -> Result<Self, de::Error> {
                let raw = value
                    .as_u64()
                    .ok_or_else(|| de::Error::custom(format!(
                        "expected unsigned integer, found {}",
                        value.kind()
                    )))?;
                <$t>::try_from(raw).map_err(|_| {
                    de::Error::custom(format!(
                        "integer {raw} out of range for {}",
                        stringify!($t)
                    ))
                })
            }
        }
    )*};
}
uint_value_impl!(u8, u16, u32, u64, usize);

macro_rules! int_value_impl {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Int(*self as i64)
            }
        }
        impl Deserialize for $t {
            fn from_value(value: &Value) -> Result<Self, de::Error> {
                let raw = value
                    .as_i64()
                    .ok_or_else(|| de::Error::custom(format!(
                        "expected integer, found {}",
                        value.kind()
                    )))?;
                <$t>::try_from(raw).map_err(|_| {
                    de::Error::custom(format!(
                        "integer {raw} out of range for {}",
                        stringify!($t)
                    ))
                })
            }
        }
    )*};
}
int_value_impl!(i8, i16, i32, i64, isize);

macro_rules! float_value_impl {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Float(*self as f64)
            }
        }
        impl Deserialize for $t {
            fn from_value(value: &Value) -> Result<Self, de::Error> {
                value
                    .as_f64()
                    .map(|v| v as $t)
                    .ok_or_else(|| de::Error::custom(format!(
                        "expected number, found {}",
                        value.kind()
                    )))
            }
        }
    )*};
}
float_value_impl!(f32, f64);

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}
impl Deserialize for String {
    fn from_value(value: &Value) -> Result<Self, de::Error> {
        match value {
            Value::Str(s) => Ok(s.clone()),
            other => type_error("string", other),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}
impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(value: &Value) -> Result<Self, de::Error> {
        match value {
            Value::Array(items) => items.iter().map(T::from_value).collect(),
            other => type_error("array", other),
        }
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            None => Value::Null,
            Some(v) => v.to_value(),
        }
    }
}
impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(value: &Value) -> Result<Self, de::Error> {
        match value {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

macro_rules! tuple_value_impl {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$idx.to_value()),+])
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn from_value(value: &Value) -> Result<Self, de::Error> {
                const LEN: usize = 0 $(+ { let _ = $idx; 1 })+;
                match value {
                    Value::Array(items) if items.len() == LEN => {
                        Ok(($($name::from_value(&items[$idx])?,)+))
                    }
                    Value::Array(items) => Err(de::Error::custom(format!(
                        "expected array of length {LEN}, found length {}",
                        items.len()
                    ))),
                    other => type_error("array", other),
                }
            }
        }
    )*};
}
tuple_value_impl! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
}

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn to_value(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| (k.clone(), v.to_value()))
                .collect(),
        )
    }
}
impl<V: Deserialize> Deserialize for BTreeMap<String, V> {
    fn from_value(value: &Value) -> Result<Self, de::Error> {
        match value {
            Value::Object(fields) => fields
                .iter()
                .map(|(k, v)| Ok((k.clone(), V::from_value(v)?)))
                .collect(),
            other => type_error("object", other),
        }
    }
}

impl<V: Serialize> Serialize for HashMap<String, V> {
    fn to_value(&self) -> Value {
        // Sort keys so output is deterministic.
        let mut fields: Vec<(String, Value)> = self
            .iter()
            .map(|(k, v)| (k.clone(), v.to_value()))
            .collect();
        fields.sort_by(|a, b| a.0.cmp(&b.0));
        Value::Object(fields)
    }
}
impl<V: Deserialize> Deserialize for HashMap<String, V> {
    fn from_value(value: &Value) -> Result<Self, de::Error> {
        match value {
            Value::Object(fields) => fields
                .iter()
                .map(|(k, v)| Ok((k.clone(), V::from_value(v)?)))
                .collect(),
            other => type_error("object", other),
        }
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}
impl Deserialize for Value {
    fn from_value(value: &Value) -> Result<Self, de::Error> {
        Ok(value.clone())
    }
}

/// Serialization-side helpers (kept for path compatibility with real serde).
pub mod ser {
    pub use super::Serialize;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        assert_eq!(u64::from_value(&42u64.to_value()).unwrap(), 42);
        assert_eq!(usize::from_value(&7usize.to_value()).unwrap(), 7);
        assert_eq!(f32::from_value(&1.5f32.to_value()).unwrap(), 1.5);
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
        let opt: Option<u32> = None;
        assert_eq!(Option::<u32>::from_value(&opt.to_value()).unwrap(), None);
        let tup = (1u32, "x".to_string(), 2.5f64);
        assert_eq!(
            <(u32, String, f64)>::from_value(&tup.to_value()).unwrap(),
            tup
        );
    }

    #[test]
    fn non_finite_float_converts_to_null() {
        assert_eq!(Value::from(1.5), Value::Float(1.5));
        assert_eq!(Value::from(f64::NAN), Value::Null);
        assert_eq!(Value::from(f64::NEG_INFINITY), Value::Null);
    }

    #[test]
    fn type_mismatch_reports_kinds() {
        let err = u64::from_value(&Value::Str("no".into())).unwrap_err();
        assert!(err.message().contains("string"));
    }
}
