//! Control-plane documents (`/metrics`, `/health`, `/federation`):
//! each section is a snapshot struct rendered through its derived
//! `Serialize`, so a counter is spelled once — as the struct's field.

use serde::Serialize;
use serde_json::Value;

/// `snapshot` as a JSON object, with `extra`'s keys — the few computed
/// at render time — merged in. Objects render their keys sorted, so
/// field order never reaches the wire.
pub fn document(snapshot: &impl Serialize, extra: Value) -> Value {
    let mut doc = serde_json::to_value(snapshot).expect("snapshot structs serialize");
    if let (Value::Object(doc), Value::Object(extra)) = (&mut doc, extra) {
        doc.extend(extra);
    }
    doc
}
