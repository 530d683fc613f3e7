//! Sensor topics.
//!
//! DCDB identifies sensors by MQTT-style topics: forward-slash separated
//! strings such as `/rack4/chassis2/server3/power` that encode the
//! physical or logical placement of the sensor in the HPC system
//! (paper §III-A). The last segment is the *sensor name*; the preceding
//! path locates the component it belongs to.

use crate::error::DcdbError;
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;
use std::fmt;
use std::sync::Arc;

/// Leading segments that name one node: `/rack00/node03/...` belongs
/// to `/rack00/node03`. A Pusher publishes one frame per node prefix,
/// the Collect Agent tracks delivery staleness per node prefix, and the
/// federation ring places topics on shards by it.
pub const NODE_PREFIX_DEPTH: usize = 2;

/// `path` truncated to its first `depth` segments, as
/// [`Topic::prefix_str`] does for a parsed topic.
pub fn prefix_of(path: &str, depth: usize) -> &str {
    let depth = depth.max(1);
    let mut segments = 0usize;
    for (i, byte) in path.bytes().enumerate() {
        if byte == b'/' && i > 0 {
            segments += 1;
            if segments == depth {
                return &path[..i];
            }
        }
    }
    path
}

/// A normalized sensor topic: `/seg1/seg2/.../name`.
///
/// Invariants (enforced by [`Topic::parse`]):
/// * starts with `/`,
/// * no trailing `/` (except the bare root `/`),
/// * no empty segments,
/// * segments contain no whitespace, `+`, `#` or `/`,
/// * at most 65 535 bytes: what an entry's `u16` length field carries
///   (see [`crate::batch::push_entry`]).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[serde(try_from = "String", into = "String")]
pub struct Topic(Arc<str>);

impl Topic {
    /// Parses and normalizes a topic string.
    ///
    /// Accepts missing leading slash and a trailing slash, normalizing
    /// both; rejects empty segments and MQTT wildcard characters (these
    /// belong to *topic filters*, not topics).
    pub fn parse(raw: &str) -> Result<Topic, DcdbError> {
        let trimmed = raw.trim();
        if trimmed.is_empty() || trimmed == "/" {
            return Err(DcdbError::Topic(format!("empty topic: {raw:?}")));
        }
        let body = trimmed.trim_start_matches('/').trim_end_matches('/');
        if body.is_empty() {
            return Err(DcdbError::Topic(format!("empty topic: {raw:?}")));
        }
        let mut out = String::with_capacity(body.len() + 1);
        for seg in body.split('/') {
            if seg.is_empty() {
                return Err(DcdbError::Topic(format!("empty segment in {raw:?}")));
            }
            if seg.contains(['+', '#']) {
                return Err(DcdbError::Topic(format!(
                    "wildcard character in topic {raw:?}; use TopicFilter instead"
                )));
            }
            if seg.chars().any(char::is_whitespace) {
                return Err(DcdbError::Topic(format!("whitespace in segment {seg:?}")));
            }
            out.push('/');
            out.push_str(seg);
        }
        if out.len() > u16::MAX as usize {
            return Err(DcdbError::Topic(format!(
                "topic of {} bytes is longer than 65535",
                out.len()
            )));
        }
        Ok(Topic(out.into()))
    }

    /// The full normalized topic string.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Iterator over the path segments (without slashes).
    pub fn segments(&self) -> impl Iterator<Item = &str> {
        self.0.split('/').skip(1)
    }

    /// Number of segments; a top-level sensor `/power` has depth 1.
    pub fn depth(&self) -> usize {
        self.segments().count()
    }

    /// The sensor name: the last segment.
    pub fn name(&self) -> &str {
        self.0.rsplit('/').next().unwrap_or("")
    }

    /// The parent path (component the sensor/component belongs to), or
    /// `None` for a top-level topic.
    pub fn parent(&self) -> Option<Topic> {
        let idx = self.0.rfind('/')?;
        if idx == 0 {
            return None;
        }
        Some(Topic(self.0[..idx].into()))
    }

    /// Appends a child segment, producing a deeper topic.
    pub fn child(&self, segment: &str) -> Result<Topic, DcdbError> {
        Topic::parse(&format!("{}/{}", self.0, segment))
    }

    /// True if `self` is a strict prefix (ancestor path) of `other`.
    pub fn is_ancestor_of(&self, other: &Topic) -> bool {
        other.0.len() > self.0.len()
            && other.0.starts_with(self.0.as_ref())
            && other.0.as_bytes()[self.0.len()] == b'/'
    }

    /// True when both topics share one allocation (one is a clone of
    /// the other) — an O(1) identity test; equal topics parsed apart
    /// compare unequal here.
    pub fn ptr_eq(&self, other: &Topic) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }

    /// The topic truncated to its first `depth` segments — the whole
    /// topic when it is shorter (never an empty path; `depth` is clamped
    /// to at least 1).
    ///
    /// This is the canonical *grouping key* for everything that buckets
    /// sensors by their leading path: delivery-staleness tracking groups
    /// by source (`/rack00/node03/...` at depth 2 → `/rack00/node03`)
    /// and the federation hash ring places topics on shards by the same
    /// key, so one component's sensors always land together. Both used
    /// to carry their own ad-hoc string-slicing; a single normalized
    /// implementation keeps the two keyspaces identical.
    pub fn prefix(&self, depth: usize) -> Topic {
        let prefix = self.prefix_str(depth);
        if prefix.len() == self.0.len() {
            self.clone()
        } else {
            Topic(prefix.into())
        }
    }

    /// [`Topic::prefix`] as a slice of this topic: the same key, with
    /// no allocation.
    pub fn prefix_str(&self, depth: usize) -> &str {
        prefix_of(&self.0, depth)
    }
}

/// A map keyed by `Topic` answers a `&str` lookup without building a
/// `Topic`: hashing and equality are those of the string.
impl Borrow<str> for Topic {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for Topic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl TryFrom<String> for Topic {
    type Error = DcdbError;
    fn try_from(s: String) -> Result<Self, Self::Error> {
        Topic::parse(&s)
    }
}

impl From<Topic> for String {
    fn from(t: Topic) -> String {
        t.0.to_string()
    }
}

impl std::str::FromStr for Topic {
    type Err = DcdbError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Topic::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_normalizes() {
        assert_eq!(
            Topic::parse("rack0/node1/power").unwrap().as_str(),
            "/rack0/node1/power"
        );
        assert_eq!(
            Topic::parse("/rack0/node1/power/").unwrap().as_str(),
            "/rack0/node1/power"
        );
        assert_eq!(Topic::parse("  /a/b  ").unwrap().as_str(), "/a/b");
    }

    #[test]
    fn parse_rejects_bad_topics() {
        for bad in ["", "/", "//", "/a//b", "/a/+/b", "/a/#", "/a b/c"] {
            assert!(Topic::parse(bad).is_err(), "{bad:?} should be rejected");
        }
        let longest = "x".repeat(u16::MAX as usize - 1);
        assert!(Topic::parse(&longest).is_ok());
        assert!(Topic::parse(&format!("{longest}x")).is_err());
    }

    #[test]
    fn accessors() {
        let t = Topic::parse("/r03/c02/s02/healthy").unwrap();
        assert_eq!(t.name(), "healthy");
        assert_eq!(t.depth(), 4);
        assert_eq!(
            t.segments().collect::<Vec<_>>(),
            vec!["r03", "c02", "s02", "healthy"]
        );
        assert_eq!(t.parent().unwrap().as_str(), "/r03/c02/s02");
        let top = Topic::parse("/power").unwrap();
        assert_eq!(top.parent(), None);
        assert_eq!(top.depth(), 1);
    }

    #[test]
    fn child_and_ancestor() {
        let node = Topic::parse("/r1/c1/s1").unwrap();
        let sensor = node.child("power").unwrap();
        assert_eq!(sensor.as_str(), "/r1/c1/s1/power");
        assert!(node.is_ancestor_of(&sensor));
        assert!(!sensor.is_ancestor_of(&node));
        // Prefix of a segment is not an ancestor.
        let other = Topic::parse("/r1/c1/s11/power").unwrap();
        assert!(!node.is_ancestor_of(&other));
        assert!(!node.is_ancestor_of(&node.clone()));
    }

    #[test]
    fn prefix_truncates_to_leading_segments() {
        let t = Topic::parse("/rack00/node03/cpu00/cycles").unwrap();
        assert_eq!(t.prefix(2).as_str(), "/rack00/node03");
        assert_eq!(t.prefix(1).as_str(), "/rack00");
        assert_eq!(t.prefix(3).as_str(), "/rack00/node03/cpu00");
        // Depth at or past the topic's own depth: the whole topic.
        assert_eq!(t.prefix(4), t);
        assert_eq!(t.prefix(99), t);
        // Shallow topics are returned whole; depth 0 clamps to 1.
        let short = Topic::parse("/short").unwrap();
        assert_eq!(short.prefix(2), short);
        assert_eq!(short.prefix(0), short);
        assert_eq!(t.prefix(0).as_str(), "/rack00");
        // The prefix is itself a valid, normalized topic.
        assert_eq!(Topic::parse(t.prefix(2).as_str()).unwrap(), t.prefix(2));
    }

    #[test]
    fn prefix_is_stable_grouping_key() {
        // Sensors under the same component share a prefix; overlapping
        // segment *names* (node3 vs node30) never collapse into one key.
        let a = Topic::parse("/r0/node3/power").unwrap();
        let b = Topic::parse("/r0/node3/cpu0/cycles").unwrap();
        let c = Topic::parse("/r0/node30/power").unwrap();
        assert_eq!(a.prefix(2), b.prefix(2));
        assert_ne!(a.prefix(2), c.prefix(2));
        assert!(a.prefix(2).is_ancestor_of(&b));
        assert!(!a.prefix(2).is_ancestor_of(&c));
    }

    #[test]
    fn parse_edge_cases_for_ring_keys() {
        // The hash ring keys off normalized topics: every spelling of
        // one path must normalize identically, and malformed paths must
        // be rejected rather than silently producing a different key.
        for (raw, want) in [
            ("a/b/c", "/a/b/c"),
            ("/a/b/c", "/a/b/c"),
            ("/a/b/c/", "/a/b/c"),
            ("  a/b/c/  ", "/a/b/c"),
            // Leading/trailing separator runs normalize away entirely.
            ("//a", "/a"),
            ("/a/b//", "/a/b"),
        ] {
            assert_eq!(Topic::parse(raw).unwrap().as_str(), want, "{raw:?}");
        }
        // Empty topics and *interior* empty segments are malformed.
        for bad in ["//", "///", "/a//b", "a//b", "/ /a"] {
            assert!(Topic::parse(bad).is_err(), "{bad:?} should be rejected");
        }
        // Whitespace-only and wildcard-bearing topics.
        for bad in ["   ", "\t", "/a/+/b", "/+", "/#", "/a/b#c", "/a/+b"] {
            assert!(Topic::parse(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn overlapping_prefixes_stay_distinct() {
        // `/a/b` vs `/a/bc`: byte-prefix but not path-prefix.
        let short = Topic::parse("/a/b").unwrap();
        let longer = Topic::parse("/a/bc").unwrap();
        let deeper = Topic::parse("/a/b/c").unwrap();
        assert!(!short.is_ancestor_of(&longer));
        assert!(short.is_ancestor_of(&deeper));
        assert_ne!(longer.prefix(2), short);
    }

    #[test]
    fn a_map_of_topics_answers_a_str_lookup() {
        let t = Topic::parse("/rack00/node03/power").unwrap();
        let map: std::collections::HashMap<Topic, u32> = [(t.clone(), 7)].into();
        let (key, value) = map.get_key_value("/rack00/node03/power").unwrap();
        assert!(key.ptr_eq(&t));
        assert_eq!(*value, 7);
        assert!(!map.contains_key("rack00/node03/power"), "no normalization");
        assert_eq!(
            prefix_of("/rack00/node03/power", NODE_PREFIX_DEPTH),
            "/rack00/node03"
        );
        assert_eq!(prefix_of("/rack00", NODE_PREFIX_DEPTH), "/rack00");
    }

    #[test]
    fn serde_round_trip() {
        let t = Topic::parse("/a/b/c").unwrap();
        let json = serde_json::to_string(&t).unwrap();
        assert_eq!(json, "\"/a/b/c\"");
        let back: Topic = serde_json::from_str(&json).unwrap();
        assert_eq!(back, t);
        assert!(serde_json::from_str::<Topic>("\"/a/+/c\"").is_err());
    }
}
