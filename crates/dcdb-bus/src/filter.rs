//! MQTT topic filters.
//!
//! DCDB transports all sensor data over MQTT; subscribers select topics
//! with the standard MQTT wildcards:
//!
//! * `+` matches exactly one path segment,
//! * `#` matches any number of trailing segments (including zero), and
//!   may only appear as the last segment.
//!
//! `/rack1/+/power` matches `/rack1/chassis2/power` but not
//! `/rack1/chassis2/server3/power`; `/rack1/#` matches everything below
//! `/rack1` and `/rack1` itself.

use dcdb_common::error::DcdbError;
use dcdb_common::topic::Topic;
use std::fmt;

/// One segment of a parsed topic filter.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum FilterSegment {
    /// Literal segment that must match exactly.
    Literal(String),
    /// `+`: any single segment.
    SingleLevel,
    /// `#`: the rest of the topic (terminal).
    MultiLevel,
}

/// A parsed, validated MQTT topic filter.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TopicFilter {
    segments: Vec<FilterSegment>,
    raw: String,
}

impl TopicFilter {
    /// Parses a filter string such as `/rack1/+/power` or `/#`.
    pub fn parse(raw: &str) -> Result<TopicFilter, DcdbError> {
        let trimmed = raw.trim();
        let body = trimmed.trim_start_matches('/').trim_end_matches('/');
        if body.is_empty() {
            // "/" or "#" alone: treat bare "#" below; bare "/" is invalid.
            if trimmed == "#" || trimmed == "/#" {
                return Ok(TopicFilter {
                    segments: vec![FilterSegment::MultiLevel],
                    raw: "/#".to_string(),
                });
            }
            return Err(DcdbError::Topic(format!("empty filter: {raw:?}")));
        }
        let mut segments = Vec::new();
        let parts: Vec<&str> = body.split('/').collect();
        for (i, seg) in parts.iter().enumerate() {
            match *seg {
                "" => return Err(DcdbError::Topic(format!("empty segment in filter {raw:?}"))),
                "+" => segments.push(FilterSegment::SingleLevel),
                "#" => {
                    if i + 1 != parts.len() {
                        return Err(DcdbError::Topic(format!(
                            "'#' must be the last segment in {raw:?}"
                        )));
                    }
                    segments.push(FilterSegment::MultiLevel);
                }
                s => {
                    if s.contains(['+', '#']) {
                        return Err(DcdbError::Topic(format!(
                            "wildcard inside segment {s:?} in {raw:?}"
                        )));
                    }
                    // No topic holds whitespace, so no literal may.
                    if s.chars().any(char::is_whitespace) {
                        return Err(DcdbError::Topic(format!(
                            "whitespace in segment {s:?} in {raw:?}"
                        )));
                    }
                    segments.push(FilterSegment::Literal(s.to_string()));
                }
            }
        }
        let mut norm = String::new();
        for s in &segments {
            norm.push('/');
            match s {
                FilterSegment::Literal(l) => norm.push_str(l),
                FilterSegment::SingleLevel => norm.push('+'),
                FilterSegment::MultiLevel => norm.push('#'),
            }
        }
        Ok(TopicFilter {
            segments,
            raw: norm,
        })
    }

    /// Builds a filter matching exactly one topic.
    pub fn exact(topic: &Topic) -> TopicFilter {
        TopicFilter {
            segments: topic
                .segments()
                .map(|s| FilterSegment::Literal(s.to_string()))
                .collect(),
            raw: topic.as_str().to_string(),
        }
    }

    /// The normalized filter string.
    pub fn as_str(&self) -> &str {
        &self.raw
    }

    /// The parsed segments.
    pub fn segments(&self) -> &[FilterSegment] {
        &self.segments
    }

    /// True if this filter matches `topic` under MQTT semantics: one
    /// walk over the topic's segments, allocating nothing.
    pub fn matches(&self, topic: &Topic) -> bool {
        let mut segs = topic.segments();
        for filter_seg in &self.segments {
            let matched = match filter_seg {
                FilterSegment::MultiLevel => return true, // the rest, even empty
                FilterSegment::SingleLevel => segs.next().is_some(),
                FilterSegment::Literal(l) => segs.next() == Some(l.as_str()),
            };
            if !matched {
                return false;
            }
        }
        segs.next().is_none()
    }

    /// True if the filter contains no wildcards (matches one topic).
    pub fn is_exact(&self) -> bool {
        self.segments
            .iter()
            .all(|s| matches!(s, FilterSegment::Literal(_)))
    }
}

impl fmt::Display for TopicFilter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.raw)
    }
}

impl std::str::FromStr for TopicFilter {
    type Err = DcdbError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        TopicFilter::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: &str) -> Topic {
        Topic::parse(s).unwrap()
    }
    fn f(s: &str) -> TopicFilter {
        TopicFilter::parse(s).unwrap()
    }

    #[test]
    fn literal_filters() {
        let filt = f("/rack1/node2/power");
        assert!(filt.matches(&t("/rack1/node2/power")));
        assert!(!filt.matches(&t("/rack1/node2/temp")));
        assert!(!filt.matches(&t("/rack1/node2")));
        assert!(!filt.matches(&t("/rack1/node2/power/extra")));
        assert!(filt.is_exact());
    }

    #[test]
    fn single_level_wildcard() {
        let filt = f("/rack1/+/power");
        assert!(filt.matches(&t("/rack1/node2/power")));
        assert!(filt.matches(&t("/rack1/node9/power")));
        assert!(!filt.matches(&t("/rack1/power")));
        assert!(!filt.matches(&t("/rack1/a/b/power")));
        assert!(!filt.is_exact());
    }

    #[test]
    fn multi_level_wildcard() {
        let filt = f("/rack1/#");
        assert!(filt.matches(&t("/rack1/node2/power")));
        assert!(filt.matches(&t("/rack1/x")));
        assert!(filt.matches(&t("/rack1")));
        assert!(!filt.matches(&t("/rack2/x")));
    }

    #[test]
    fn root_multi_level_matches_all() {
        let filt = f("/#");
        assert!(filt.matches(&t("/a")));
        assert!(filt.matches(&t("/a/b/c/d")));
        let bare = f("#");
        assert!(bare.matches(&t("/anything")));
    }

    #[test]
    fn leading_plus_combinations() {
        let filt = f("/+/+/power");
        assert!(filt.matches(&t("/r1/n1/power")));
        assert!(!filt.matches(&t("/r1/power")));
        let tail = f("/+/#");
        assert!(tail.matches(&t("/r1")));
        assert!(tail.matches(&t("/r1/n1/s1")));
    }

    #[test]
    fn parse_errors() {
        for bad in [
            "",
            "/",
            "/a/#/b",
            "/a/b#",
            "/a/+x/b",
            "/a//b",
            "/r0/ /power",
            "/r0/a b/#",
        ] {
            assert!(TopicFilter::parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn exact_from_topic() {
        let topic = t("/r1/n1/power");
        let filt = TopicFilter::exact(&topic);
        assert!(filt.is_exact());
        assert!(filt.matches(&topic));
        assert_eq!(filt.as_str(), "/r1/n1/power");
    }

    #[test]
    fn normalization() {
        assert_eq!(f("rack1/+/power").as_str(), "/rack1/+/power");
        assert_eq!(f("/rack1/#/").as_str(), "/rack1/#");
    }

    #[test]
    fn trailing_separators_normalize_and_empty_segments_reject() {
        // Leading/trailing separator runs are tolerated and normalized
        // away on otherwise-valid filters…
        assert_eq!(f("/a/+/").as_str(), "/a/+");
        assert!(f("/a/+/").matches(&t("/a/x")));
        assert_eq!(f("/a/b/").as_str(), "/a/b");
        assert_eq!(f("/+//").as_str(), "/+");
        assert_eq!(f("//#").as_str(), "/#");
        // …but empty *interior* segments are malformed, not wildcards.
        for bad in ["//", "/a//+", "/a//b/#"] {
            assert!(TopicFilter::parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn overlapping_segment_prefixes_do_not_match() {
        // Segment names that are byte-prefixes of each other must stay
        // distinct under every wildcard shape — the federation router
        // relies on this when fanning subscriptions across shards.
        let exact = f("/r1/n1/power");
        assert!(!exact.matches(&t("/r1/n11/power")));
        assert!(!f("/r1/n1/#").matches(&t("/r1/n11/power")));
        assert!(f("/r1/n1/#").matches(&t("/r1/n1/power")));
        assert!(f("/r1/+/power").matches(&t("/r1/n11/power")));
        assert!(!f("/r1/n1").matches(&t("/r1/n11")));
    }

    #[test]
    fn multi_level_matches_exact_parent_but_not_siblings() {
        let filt = f("/r1/n1/#");
        // `#` matches the parent itself (zero trailing segments)…
        assert!(filt.matches(&t("/r1/n1")));
        // …and arbitrarily deep children…
        assert!(filt.matches(&t("/r1/n1/cpu0/cycles")));
        // …but never a sibling or an ancestor.
        assert!(!filt.matches(&t("/r1/n2")));
        assert!(!filt.matches(&t("/r1")));
    }

    #[test]
    fn plus_never_spans_segments() {
        let filt = f("/+/power");
        assert!(filt.matches(&t("/n1/power")));
        assert!(!filt.matches(&t("/n1/x/power")));
        // `+` must also not match "nothing".
        assert!(!filt.matches(&t("/power")));
    }

    #[test]
    fn exact_filter_and_ring_keyspace_agree() {
        // A filter built from a topic matches exactly that topic and
        // nothing that merely shares a byte prefix.
        let topic = t("/rack00/node03/power");
        let filt = TopicFilter::exact(&topic);
        assert!(filt.matches(&topic));
        assert!(!filt.matches(&t("/rack00/node030/power")));
        assert!(!filt.matches(&t("/rack00/node03/power2")));
        assert!(!filt.matches(&t("/rack00/node03")));
    }
}
