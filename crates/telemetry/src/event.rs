//! The structured event: the unit every sink consumes.

use crate::json::{self, Json};
use std::collections::BTreeMap;

/// A typed field value attached to an event.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Signed integer (counts, ids, epochs).
    Int(i64),
    /// Floating point (latencies, drops, hours). Non-finite values encode
    /// to JSON `null` and decode back as NaN.
    Float(f64),
    /// String (statuses, reasons, names).
    Str(String),
    /// Boolean (flags).
    Bool(bool),
}

impl Value {
    /// The value as a JSON scalar.
    pub fn to_json(&self) -> Json {
        match self {
            Value::Int(i) => Json::Int(*i),
            Value::Float(f) => Json::Float(*f),
            Value::Str(s) => Json::Str(s.clone()),
            Value::Bool(b) => Json::Bool(*b),
        }
    }

    fn from_json(j: &Json) -> Option<Value> {
        Some(match j {
            Json::Int(i) => Value::Int(*i),
            Json::Float(f) => Value::Float(*f),
            Json::Str(s) => Value::Str(s.clone()),
            Json::Bool(b) => Value::Bool(*b),
            Json::Null => Value::Float(f64::NAN),
            Json::Arr(_) | Json::Obj(_) => return None,
        })
    }

    /// The numeric value, if any.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The string value, if any.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::Int(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Value {
        Value::Int(v as i64)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Value {
        Value::Int(v as i64)
    }
}
impl From<u64> for Value {
    fn from(v: u64) -> Value {
        i64::try_from(v).map(Value::Int).unwrap_or(Value::Float(v as f64))
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::from(v as u64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Float(v)
    }
}
impl From<f32> for Value {
    fn from(v: f32) -> Value {
        Value::Float(v as f64)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v)
    }
}

/// What kind of record an event is (the `kind` JSONL key).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EventKind {
    /// A span opened (`duration_us` arrives with the matching end).
    SpanBegin,
    /// A span closed; fields carry `duration_us`.
    SpanEnd,
    /// An instantaneous structured observation.
    Point,
    /// A counter value flushed at shutdown; fields carry `value`.
    Counter,
    /// A histogram summary flushed at shutdown; fields carry
    /// `count`/`sum`/`min`/`max`/`p50`/`p99`.
    Histogram,
    /// Run metadata (configuration, environment).
    Meta,
}

impl EventKind {
    /// Wire name of the kind.
    pub fn as_str(&self) -> &'static str {
        match self {
            EventKind::SpanBegin => "span_begin",
            EventKind::SpanEnd => "span_end",
            EventKind::Point => "point",
            EventKind::Counter => "counter",
            EventKind::Histogram => "histogram",
            EventKind::Meta => "meta",
        }
    }

    /// Parses a wire name.
    pub fn parse(s: &str) -> Option<EventKind> {
        Some(match s {
            "span_begin" => EventKind::SpanBegin,
            "span_end" => EventKind::SpanEnd,
            "point" => EventKind::Point,
            "counter" => EventKind::Counter,
            "histogram" => EventKind::Histogram,
            "meta" => EventKind::Meta,
            _ => return None,
        })
    }
}

/// One structured telemetry event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Microseconds since telemetry was installed.
    pub ts_us: u64,
    /// Record kind.
    pub kind: EventKind,
    /// Event name, dot-separated taxonomy (`search.iter`, `finetune.eval`).
    pub name: String,
    /// Id of the span this event belongs to (0 = none). For span
    /// begin/end records, the span's own id.
    pub span: u64,
    /// Parent span id (0 = root).
    pub parent: u64,
    /// Telemetry thread id (small dense integers, assigned per thread).
    pub thread: u64,
    /// Typed payload fields.
    pub fields: Vec<(String, Value)>,
}

impl Event {
    /// Creates an event stamped with the current time, thread, and span
    /// context. Callers attach fields with [`Event::with_fields`].
    pub fn new(kind: EventKind, name: impl Into<String>) -> Event {
        Event {
            ts_us: crate::now_us(),
            kind,
            name: name.into(),
            span: crate::span::current_span(),
            parent: 0,
            thread: crate::span::thread_id(),
            fields: Vec::new(),
        }
    }

    /// Attaches payload fields.
    pub fn with_fields(mut self, fields: Vec<(String, Value)>) -> Event {
        self.fields = fields;
        self
    }

    /// Looks up a field by name.
    pub fn field(&self, name: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }

    /// Serializes to one compact JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(128);
        out.push_str("{\"ts_us\":");
        out.push_str(&self.ts_us.to_string());
        out.push_str(",\"kind\":\"");
        out.push_str(self.kind.as_str());
        out.push_str("\",\"name\":");
        json::encode_str(&self.name, &mut out);
        out.push_str(",\"span\":");
        out.push_str(&self.span.to_string());
        out.push_str(",\"parent\":");
        out.push_str(&self.parent.to_string());
        out.push_str(",\"thread\":");
        out.push_str(&self.thread.to_string());
        out.push_str(",\"fields\":{");
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::encode_str(k, &mut out);
            out.push(':');
            out.push_str(&v.to_json().encode());
        }
        out.push_str("}}");
        out
    }

    /// Parses an event from one JSON line written by [`Event::to_json`].
    pub fn from_json(line: &str) -> Result<Event, String> {
        let doc = Json::parse(line)?;
        let uint = |key: &str| -> Result<u64, String> {
            doc.get(key)
                .and_then(Json::as_i64)
                .and_then(|v| u64::try_from(v).ok())
                .ok_or_else(|| format!("missing or invalid {key:?}"))
        };
        let kind_str = doc
            .get("kind")
            .and_then(Json::as_str)
            .ok_or("missing \"kind\"")?;
        let kind =
            EventKind::parse(kind_str).ok_or_else(|| format!("unknown kind {kind_str:?}"))?;
        let name = doc
            .get("name")
            .and_then(Json::as_str)
            .ok_or("missing \"name\"")?
            .to_string();
        let fields_obj = match doc.get("fields") {
            Some(Json::Obj(m)) => m.clone(),
            Some(_) => return Err("\"fields\" is not an object".to_string()),
            None => BTreeMap::new(),
        };
        let mut fields = Vec::with_capacity(fields_obj.len());
        for (k, v) in &fields_obj {
            let value = Value::from_json(v)
                .ok_or_else(|| format!("field {k:?} has a non-scalar value"))?;
            fields.push((k.clone(), value));
        }
        Ok(Event {
            ts_us: uint("ts_us")?,
            kind,
            name,
            span: uint("span")?,
            parent: uint("parent")?,
            thread: uint("thread")?,
            fields,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_json_round_trips() {
        let e = Event {
            ts_us: 1234,
            kind: EventKind::Point,
            name: "search.iter".to_string(),
            span: 7,
            parent: 3,
            thread: 1,
            fields: vec![
                // Sorted by key: `from_json` yields fields in name order.
                ("iter".to_string(), Value::Int(5)),
                ("latency_ms".to_string(), Value::Float(2.25)),
                ("met".to_string(), Value::Bool(true)),
                ("status".to_string(), Value::Str("evaluated".to_string())),
            ],
        };
        let line = e.to_json();
        let back = Event::from_json(&line).unwrap();
        assert_eq!(back, e);
    }

    #[test]
    fn nan_fields_round_trip_as_nan() {
        let e = Event {
            ts_us: 0,
            kind: EventKind::Point,
            name: "x".to_string(),
            span: 0,
            parent: 0,
            thread: 0,
            fields: vec![("drop".to_string(), Value::Float(f64::NAN))],
        };
        let back = Event::from_json(&e.to_json()).unwrap();
        match back.field("drop") {
            Some(Value::Float(f)) => assert!(f.is_nan()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn kind_names_round_trip() {
        for kind in [
            EventKind::SpanBegin,
            EventKind::SpanEnd,
            EventKind::Point,
            EventKind::Counter,
            EventKind::Histogram,
            EventKind::Meta,
        ] {
            assert_eq!(EventKind::parse(kind.as_str()), Some(kind));
        }
        assert_eq!(EventKind::parse("bogus"), None);
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(Event::from_json("{}").is_err());
        assert!(Event::from_json("not json").is_err());
        assert!(
            Event::from_json(r#"{"ts_us":1,"kind":"nope","name":"x","span":0,"parent":0,"thread":0,"fields":{}}"#)
                .is_err()
        );
    }
}
