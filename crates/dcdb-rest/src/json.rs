//! Push-style JSON writer for the data routes.
//!
//! `/sensors` and `/query` bodies are the REST traffic that scales with
//! the data (one object per reading or per aggregate point), so they
//! are written once, straight into the `String` that becomes the
//! response body — no document tree in between. The output is compact
//! JSON, byte for byte what the vendored `serde_json` renders for the
//! same values: floats as `{x:.1}` when integral and below 1e15, `{x}`
//! otherwise, `null` when absent or non-finite; strings through the
//! same escape table. Keys are written verbatim and in call order, so
//! the caller emits them in the byte order a `BTreeMap` would.

use std::fmt::Write;

/// A compact-JSON writer appending to one `String`.
#[derive(Debug)]
pub struct JsonWriter {
    out: String,
    /// The next key or value at this nesting level needs a `,` first.
    comma: bool,
}

impl JsonWriter {
    /// A writer whose buffer holds `bytes` before it has to grow.
    pub fn with_capacity(bytes: usize) -> JsonWriter {
        JsonWriter {
            out: String::with_capacity(bytes),
            comma: false,
        }
    }

    /// The finished document.
    pub fn finish(self) -> String {
        self.out
    }

    fn open(&mut self, bracket: char) {
        self.separate();
        self.out.push(bracket);
        self.comma = false;
    }

    fn close(&mut self, bracket: char) {
        self.out.push(bracket);
        self.comma = true;
    }

    /// Starts a value: emits the pending `,` and arms the next one.
    fn separate(&mut self) {
        if self.comma {
            self.out.push(',');
        }
        self.comma = true;
    }

    /// Opens an object.
    pub fn begin_object(&mut self) {
        self.open('{');
    }

    /// Closes the innermost object.
    pub fn end_object(&mut self) {
        self.close('}');
    }

    /// Opens an array.
    pub fn begin_array(&mut self) {
        self.open('[');
    }

    /// Closes the innermost array.
    pub fn end_array(&mut self) {
        self.close(']');
    }

    /// A member key; the member's value must follow, which the
    /// returned writer lets a caller chain: `w.key("n").u64(7)`.
    /// Written verbatim: keys are literals that need no escaping.
    pub fn key(&mut self, key: &'static str) -> &mut JsonWriter {
        self.separate();
        self.out.push('"');
        self.out.push_str(key);
        self.out.push_str("\":");
        self.comma = false;
        self
    }

    /// An unsigned integer.
    pub fn u64(&mut self, v: u64) {
        self.separate();
        self.digits(v);
    }

    /// A signed integer.
    pub fn i64(&mut self, v: i64) {
        self.separate();
        if v < 0 {
            self.out.push('-');
        }
        self.digits(v.unsigned_abs());
    }

    fn digits(&mut self, mut v: u64) {
        // u64::MAX has 20 digits; fill from the back.
        let mut buf = [0u8; 20];
        let mut at = buf.len();
        loop {
            at -= 1;
            buf[at] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        self.out
            .push_str(std::str::from_utf8(&buf[at..]).expect("ASCII digits"));
    }

    /// A float, or `null` when absent or not finite.
    pub fn f64(&mut self, v: Option<f64>) {
        let Some(x) = v.filter(|x| x.is_finite()) else {
            return self.raw("null");
        };
        if x.fract() != 0.0 || x.abs() >= 1e15 {
            self.separate();
            let _ = write!(self.out, "{x}");
        } else if x == 0.0 && x.is_sign_negative() {
            self.raw("-0.0");
        } else {
            // `{x:.1}` of an integral float is the integer's digits
            // and `.0`; below 1e15 the conversion is exact.
            self.i64(x as i64);
            self.out.push_str(".0");
        }
    }

    /// A string, escaped.
    pub fn str(&mut self, s: &str) {
        self.separate();
        self.out.push('"');
        let mut plain = 0;
        for (i, b) in s.bytes().enumerate() {
            let escape = match b {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                b'\r' => "\\r",
                b'\t' => "\\t",
                0..=0x1f => "",
                _ => continue,
            };
            self.out.push_str(&s[plain..i]);
            plain = i + 1;
            if escape.is_empty() {
                let _ = write!(self.out, "\\u{b:04x}");
            } else {
                self.out.push_str(escape);
            }
        }
        self.out.push_str(&s[plain..]);
        self.out.push('"');
    }

    /// Splices `json`, an already-rendered value, in as it is.
    pub fn raw(&mut self, json: &str) {
        self.separate();
        self.out.push_str(json);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one(f: impl FnOnce(&mut JsonWriter)) -> String {
        let mut w = JsonWriter::with_capacity(0);
        f(&mut w);
        w.finish()
    }

    #[test]
    fn commas_follow_nesting() {
        let mut w = JsonWriter::with_capacity(64);
        w.begin_object();
        w.key("a").begin_array();
        w.end_array();
        w.key("b").begin_array();
        w.u64(1);
        w.begin_object();
        w.end_object();
        w.str("x");
        w.raw("{\"k\":true}");
        w.f64(None);
        w.end_array();
        w.key("c").i64(-2);
        w.end_object();
        assert_eq!(
            w.finish(),
            r#"{"a":[],"b":[1,{},"x",{"k":true},null],"c":-2}"#
        );
    }

    #[test]
    fn integers_at_the_limits() {
        assert_eq!(one(|w| w.u64(0)), "0");
        assert_eq!(one(|w| w.u64(u64::MAX)), u64::MAX.to_string());
        assert_eq!(one(|w| w.i64(i64::MIN)), i64::MIN.to_string());
        assert_eq!(one(|w| w.i64(i64::MAX)), i64::MAX.to_string());
    }

    #[test]
    fn floats_follow_the_tree_renderers_rule() {
        for x in [
            0.0,
            -0.0,
            1.0,
            -17.0,
            0.1,
            -2.5,
            1.0 / 3.0,
            999_999_999_999_999.0,
            -999_999_999_999_999.0,
            1e15,
            -1e15,
            9.007199254740993e15,
            i64::MIN as f64,
            u64::MAX as f64,
            1e300,
            5e-324,
            f64::MAX,
        ] {
            let want = if x.fract() == 0.0 && x.abs() < 1e15 {
                format!("{x:.1}")
            } else {
                format!("{x}")
            };
            assert_eq!(one(|w| w.f64(Some(x))), want, "{x:e}");
        }
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(one(|w| w.f64(Some(x))), "null");
        }
        assert_eq!(one(|w| w.f64(None)), "null");
    }

    #[test]
    fn strings_use_the_short_escapes_then_u00xx() {
        assert_eq!(
            one(|w| w.str("a\"b\\c\nd\re\tf\u{1}g\u{1f}h\u{7f}é✓")),
            "\"a\\\"b\\\\c\\nd\\re\\tf\\u0001g\\u001fh\u{7f}é✓\""
        );
        assert_eq!(one(|w| w.str("")), "\"\"");
    }
}
