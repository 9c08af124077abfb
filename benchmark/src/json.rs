//! Shorthands for building the vendored `serde::Value` tree by hand (the
//! vendored `serde_json` only serialises, and these documents have dynamic
//! keys, so there is nothing to derive).

use serde::Value;

/// An object with its keys in the given order.
pub fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(entries.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

pub fn text(s: &str) -> Value {
    Value::String(s.to_string())
}

/// `{"value": v, "unit": u}`, the form every reported metric takes.
pub fn measurement(value: f64, unit: &str) -> Value {
    obj(vec![("value", Value::Float(value)), ("unit", text(unit))])
}
