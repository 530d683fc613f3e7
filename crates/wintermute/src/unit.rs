//! The Unit System: units, pattern units and their resolution
//! (paper §III-B, §III-C, §V-C.2).
//!
//! A *unit* is the atomic entity an operator computes on: a component
//! node of the sensor tree plus a set of input and output sensors. A
//! *pattern unit* describes units abstractly: each sensor is given only
//! by name, with a [`LevelSpec`] for vertical navigation and an optional
//! regex *filter* for horizontal navigation. Binding a pattern against a
//! concrete sensor tree instantiates one unit per node in the output
//! pattern's domain — "the instantiation of thousands of independent ODA
//! models ... using only a small configuration block".
//!
//! Pattern expression syntax, exactly as printed in the paper:
//!
//! ```text
//! <topdown+1>power
//! <bottomup, filter cpu>cpu-cycles
//! <bottomup-1>healthy
//! ```

use crate::query::{QueryEngine, SensorHandle};
use crate::tree::{LevelSpec, SensorNavigator};
use dcdb_common::error::DcdbError;
use dcdb_common::regex::Regex;
use dcdb_common::topic::Topic;
use std::cmp::Ordering;
use std::fmt;
use std::sync::OnceLock;

/// One pattern expression: where to look (level + filter) and what
/// sensor name to bind.
#[derive(Debug, Clone)]
pub struct PatternExpr {
    /// Vertical navigation: the tree level of the node the sensor
    /// belongs to.
    pub level: LevelSpec,
    /// Horizontal navigation: keep only nodes whose *name* (last path
    /// segment) matches this regex.
    pub filter: Option<Regex>,
    /// The sensor name (last topic segment).
    pub sensor: String,
}

impl PatternExpr {
    /// Parses `<levelspec[, filter re]>sensor-name`.
    pub fn parse(s: &str) -> Result<PatternExpr, DcdbError> {
        let s = s.trim();
        let rest = s
            .strip_prefix('<')
            .ok_or_else(|| DcdbError::Parse(format!("pattern {s:?}: expected '<'")))?;
        let (inside, sensor) = rest
            .split_once('>')
            .ok_or_else(|| DcdbError::Parse(format!("pattern {s:?}: missing '>'")))?;
        let sensor = sensor.trim();
        if sensor.is_empty() || sensor.contains('/') {
            return Err(DcdbError::Parse(format!(
                "pattern {s:?}: sensor name must be a single non-empty segment"
            )));
        }
        let mut parts = inside.split(',');
        let level_str = parts.next().unwrap_or("").trim();
        let level = Self::parse_level(level_str)
            .ok_or_else(|| DcdbError::Parse(format!("pattern {s:?}: bad level {level_str:?}")))?;
        let mut filter = None;
        for clause in parts {
            let clause = clause.trim();
            if let Some(expr) = clause.strip_prefix("filter") {
                let expr = expr.trim();
                if expr.is_empty() {
                    return Err(DcdbError::Parse(format!(
                        "pattern {s:?}: empty filter expression"
                    )));
                }
                filter = Some(Regex::new(expr)?);
            } else {
                return Err(DcdbError::Parse(format!(
                    "pattern {s:?}: unknown clause {clause:?}"
                )));
            }
        }
        Ok(PatternExpr {
            level,
            filter,
            sensor: sensor.to_string(),
        })
    }

    fn parse_level(s: &str) -> Option<LevelSpec> {
        if let Some(rest) = s.strip_prefix("topdown") {
            let off = match rest.trim() {
                "" => 0,
                r => r.strip_prefix('+')?.trim().parse::<i64>().ok()?,
            };
            return Some(LevelSpec::TopDown(off));
        }
        if let Some(rest) = s.strip_prefix("bottomup") {
            let off = match rest.trim() {
                "" => 0,
                r => r.strip_prefix('-')?.trim().parse::<i64>().ok()?,
            };
            return Some(LevelSpec::BottomUp(off));
        }
        None
    }

    /// The expression's *domain*: every node at the resolved level whose
    /// name passes the filter.
    pub fn domain(&self, nav: &SensorNavigator) -> Result<Vec<Topic>, DcdbError> {
        Ok(self.level_domain(nav)?.1)
    }

    /// The resolved level and the domain on it, in the navigator's
    /// order.
    fn level_domain(&self, nav: &SensorNavigator) -> Result<(usize, Vec<Topic>), DcdbError> {
        let level = nav.resolve_level(self.level)?;
        let domain = nav
            .nodes_at_level(level)
            .iter()
            .filter(|node| {
                self.filter
                    .as_ref()
                    .map(|f| f.is_match(node.name()))
                    .unwrap_or(true)
            })
            .cloned()
            .collect();
        Ok((level, domain))
    }
}

impl fmt::Display for PatternExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let level = match self.level {
            LevelSpec::TopDown(0) => "topdown".to_string(),
            LevelSpec::TopDown(n) => format!("topdown+{n}"),
            LevelSpec::BottomUp(0) => "bottomup".to_string(),
            LevelSpec::BottomUp(n) => format!("bottomup-{n}"),
        };
        match &self.filter {
            Some(re) => write!(f, "<{level}, filter {}>{}", re.pattern(), self.sensor),
            None => write!(f, "<{level}>{}", self.sensor),
        }
    }
}

/// A pattern unit: the abstract I/O specification of an operator.
#[derive(Debug, Clone)]
pub struct UnitTemplate {
    /// Input sensor patterns.
    pub inputs: Vec<PatternExpr>,
    /// Output sensor patterns. The **first** output's domain defines the
    /// set of units instantiated.
    pub outputs: Vec<PatternExpr>,
}

impl UnitTemplate {
    /// Parses the paper's configuration block form: lists of pattern
    /// strings for inputs and outputs.
    pub fn parse(inputs: &[&str], outputs: &[&str]) -> Result<UnitTemplate, DcdbError> {
        if outputs.is_empty() {
            return Err(DcdbError::Config(
                "a unit template needs at least one output pattern".into(),
            ));
        }
        Ok(UnitTemplate {
            inputs: inputs
                .iter()
                .map(|s| PatternExpr::parse(s))
                .collect::<Result<_, _>>()?,
            outputs: outputs
                .iter()
                .map(|s| PatternExpr::parse(s))
                .collect::<Result<_, _>>()?,
        })
    }
}

/// A concrete, resolved unit (paper §III-B).
///
/// A unit's sensors are fixed once it is built, so the first read or
/// publish of each finds its cache in the engine and keeps the handle
/// (`Unit::input_handle`, `Unit::output_handle`); `inputs` and
/// `outputs` must not be edited after that — build a new unit instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Unit {
    /// The unit's name: the sensor-tree node it is bound to.
    pub name: Topic,
    /// Fully-resolved input sensor topics.
    pub inputs: Vec<Topic>,
    /// Fully-resolved output sensor topics.
    pub outputs: Vec<Topic>,
    bound: Bound,
}

/// A unit's cache handles in one engine: one slot per input, then one
/// per output, each filled when its topic is first found there. No part
/// of the unit's value: a clone starts unbound, and units compare by
/// their topics.
#[derive(Debug, Default)]
struct Bound(OnceLock<(u64, Box<[OnceLock<SensorHandle>]>)>);

impl Clone for Bound {
    fn clone(&self) -> Bound {
        Bound::default()
    }
}

impl PartialEq for Bound {
    fn eq(&self, _: &Bound) -> bool {
        true
    }
}

impl Eq for Bound {}

impl Unit {
    /// A unit over the given sensors, not yet bound to any engine.
    pub fn new(name: Topic, inputs: Vec<Topic>, outputs: Vec<Topic>) -> Unit {
        Unit {
            name,
            inputs,
            outputs,
            bound: Bound::default(),
        }
    }

    /// The handle in slot `slot` of `engine`, found by `find` on first
    /// use. `None` while `find` has nothing, and for every engine but
    /// the first this unit was used with.
    fn handle(
        &self,
        engine: &QueryEngine,
        slot: usize,
        find: impl FnOnce() -> Option<SensorHandle>,
    ) -> Option<&SensorHandle> {
        let (bound_in, slots) = self.bound.0.get_or_init(|| {
            let slots = self.inputs.len() + self.outputs.len();
            (engine.id(), (0..slots).map(|_| OnceLock::new()).collect())
        });
        if *bound_in != engine.id() {
            return None;
        }
        let slot = slots.get(slot)?;
        if slot.get().is_none() {
            // A racing binder found the same map entry: either may win.
            let _ = slot.set(find()?);
        }
        slot.get()
    }

    /// The cache handle of input `k` in `engine`; `None` until the
    /// engine knows the topic.
    pub(crate) fn input_handle(&self, engine: &QueryEngine, k: usize) -> Option<&SensorHandle> {
        self.handle(engine, k, || engine.bind(self.inputs.get(k)?))
    }

    /// The cache handle (created on first publish) of the output
    /// `topic` names, when `topic` *is* one of this unit's outputs — a
    /// clone of it, tested by pointer, so no string is compared.
    pub(crate) fn output_handle(
        &self,
        engine: &QueryEngine,
        topic: &Topic,
    ) -> Option<&SensorHandle> {
        let j = self.outputs.iter().position(|o| o.ptr_eq(topic))?;
        self.handle(engine, self.inputs.len() + j, || {
            Some(engine.bind_or_create(topic))
        })
    }
}

impl fmt::Display for Unit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} in, {} out)",
            self.name,
            self.inputs.len(),
            self.outputs.len()
        )
    }
}

/// Why a candidate unit could not be built (diagnostics surfaced through
/// the REST API; silently skipping units makes configs undebuggable).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SkippedUnit {
    /// The candidate unit name.
    pub name: Topic,
    /// The pattern whose domain contributed no sensor.
    pub pattern: String,
}

/// Result of binding a template against a tree.
#[derive(Debug, Clone)]
pub struct Resolution {
    /// Successfully built units.
    pub units: Vec<Unit>,
    /// Candidates dropped because an input pattern had no match.
    pub skipped: Vec<SkippedUnit>,
}

/// Binds `template` against the sensor tree, following the paper's
/// three-step generation (§V-C.2):
///
/// 1. the domain of the first output pattern is computed;
/// 2. one unit is instantiated per node in that domain;
/// 3. each unit's sensors are resolved from the respective pattern
///    domains, keeping only nodes *hierarchically related* to the unit
///    name. A unit with any unmatchable input pattern is skipped.
///
/// Output sensors need not pre-exist in the tree (operators create
/// them); inputs must name sensors that exist.
pub fn resolve_units(
    template: &UnitTemplate,
    nav: &SensorNavigator,
) -> Result<Resolution, DcdbError> {
    let first_output = template
        .outputs
        .first()
        .ok_or_else(|| DcdbError::Config("unit template has no outputs".into()))?;
    let unit_domain = first_output.domain(nav)?;

    // Pre-compute every pattern's domain once; per-unit work is then
    // two binary searches per pattern.
    let input_domains: Vec<(usize, Vec<Topic>)> = template
        .inputs
        .iter()
        .map(|p| p.level_domain(nav))
        .collect::<Result<_, _>>()?;
    let output_domains: Vec<(usize, Vec<Topic>)> = template
        .outputs
        .iter()
        .map(|p| p.level_domain(nav))
        .collect::<Result<_, _>>()?;

    let mut units = Vec::with_capacity(unit_domain.len());
    let mut skipped = Vec::new();

    'units: for unit_name in unit_domain {
        let mut inputs = Vec::new();
        for (pattern, (level, domain)) in template.inputs.iter().zip(&input_domains) {
            let mut matched = false;
            for node in related(domain, *level, &unit_name) {
                let sensor = node.child(&pattern.sensor)?;
                if nav.has_sensor(&sensor) {
                    inputs.push(sensor);
                    matched = true;
                }
            }
            if !matched {
                skipped.push(SkippedUnit {
                    name: unit_name.clone(),
                    pattern: pattern.to_string(),
                });
                continue 'units;
            }
        }

        let mut outputs = Vec::new();
        for (pattern, (level, domain)) in template.outputs.iter().zip(&output_domains) {
            for node in related(domain, *level, &unit_name) {
                outputs.push(node.child(&pattern.sensor)?);
            }
        }
        if outputs.is_empty() {
            skipped.push(SkippedUnit {
                name: unit_name.clone(),
                pattern: first_output.to_string(),
            });
            continue;
        }

        units.push(Unit::new(unit_name, inputs, outputs));
    }

    Ok(Resolution { units, skipped })
}

/// The nodes of `domain` hierarchically related to `unit`, in order.
///
/// `domain` is (a filtered subsequence of) one navigator level, and a
/// level lists its nodes depth-first over sorted names — sorted by
/// their segments, compared one after another. A node on `level` is
/// related to the unit exactly when the two agree on every segment both
/// have: it is the unit's ancestor on that level (walk the unit's
/// parent chain up to it), the unit itself, or one of its descendants —
/// in each case the one contiguous run of nodes that start with `key`.
fn related<'d>(domain: &'d [Topic], level: usize, unit: &Topic) -> &'d [Topic] {
    let key = unit.prefix(level + 1);
    let start = domain.partition_point(|node| cmp_to_key(node, &key) == Ordering::Less);
    let len = domain[start..]
        .iter()
        .take_while(|node| cmp_to_key(node, &key) == Ordering::Equal)
        .count();
    &domain[start..start + len]
}

/// Where `node` lies against the run of paths that start with the
/// segments of `key`, in the navigator's order; `node` has at least as
/// many segments as `key`. Comparing the paths byte by byte with `/`
/// below every other byte compares them segment by segment.
fn cmp_to_key(node: &Topic, key: &Topic) -> Ordering {
    let (node, key) = (node.as_str().as_bytes(), key.as_str().as_bytes());
    let rank = |byte: u8| if byte == b'/' { 0 } else { byte };
    match node.iter().zip(key).find(|(n, k)| n != k) {
        Some((&n, &k)) => rank(n).cmp(&rank(k)),
        // One path is a prefix of the other: `node` runs on into a
        // longer segment, or is `key` or below it, or stops short.
        None => match node.get(key.len()) {
            Some(b'/') => Ordering::Equal,
            Some(_) => Ordering::Greater,
            None => node.len().cmp(&key.len()),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: &str) -> Topic {
        Topic::parse(s).unwrap()
    }

    /// The full tree of the paper's Figure 2 example.
    fn paper_tree() -> SensorNavigator {
        let mut topics: Vec<Topic> = Vec::new();
        for r in ["r01", "r02", "r03", "r04"] {
            topics.push(t(&format!("/{r}/inlet-temp")));
            for c in ["c01", "c02", "c03"] {
                topics.push(t(&format!("/{r}/{c}/power")));
                for s in ["s01", "s02", "s03", "s04"] {
                    topics.push(t(&format!("/{r}/{c}/{s}/memfree")));
                    for cpu in ["cpu0", "cpu1"] {
                        topics.push(t(&format!("/{r}/{c}/{s}/{cpu}/cpu-cycles")));
                        topics.push(t(&format!("/{r}/{c}/{s}/{cpu}/cache-misses")));
                    }
                }
            }
        }
        SensorNavigator::build(&topics)
    }

    /// The paper's §III-C pattern unit, verbatim.
    fn paper_template() -> UnitTemplate {
        UnitTemplate::parse(
            &[
                "<topdown+1>power",
                "<bottomup, filter cpu>cpu-cycles",
                "<bottomup, filter cpu>cache-misses",
            ],
            &["<bottomup-1>healthy"],
        )
        .unwrap()
    }

    #[test]
    fn parse_pattern_expressions() {
        let p = PatternExpr::parse("<topdown+1>power").unwrap();
        assert_eq!(p.level, LevelSpec::TopDown(1));
        assert!(p.filter.is_none());
        assert_eq!(p.sensor, "power");

        let p = PatternExpr::parse("<bottomup, filter cpu>cpu-cycles").unwrap();
        assert_eq!(p.level, LevelSpec::BottomUp(0));
        assert_eq!(p.filter.as_ref().unwrap().pattern(), "cpu");
        assert_eq!(p.sensor, "cpu-cycles");

        let p = PatternExpr::parse("<bottomup-2>avg").unwrap();
        assert_eq!(p.level, LevelSpec::BottomUp(2));

        let p = PatternExpr::parse("<topdown>x").unwrap();
        assert_eq!(p.level, LevelSpec::TopDown(0));
    }

    #[test]
    fn parse_rejects_malformed() {
        for bad in [
            "topdown>x",
            "<topdown",
            "<topdown>",
            "<topdown>a/b",
            "<updown>x",
            "<topdown-1>x",
            "<bottomup+1>x",
            "<topdown, wibble y>x",
            "<topdown, filter>x",
            "<topdown, filter [>x",
        ] {
            assert!(PatternExpr::parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn display_round_trips() {
        for s in [
            "<topdown+1>power",
            "<bottomup, filter cpu>cpu-cycles",
            "<bottomup-1>healthy",
            "<topdown>inlet-temp",
        ] {
            let p = PatternExpr::parse(s).unwrap();
            let printed = p.to_string();
            let reparsed = PatternExpr::parse(&printed).unwrap();
            assert_eq!(reparsed.to_string(), printed);
        }
    }

    #[test]
    fn domain_respects_level_and_filter() {
        let nav = paper_tree();
        let p = PatternExpr::parse("<topdown, filter ^r0[12]$>inlet-temp").unwrap();
        let d: Vec<String> = p
            .domain(&nav)
            .unwrap()
            .iter()
            .map(|x| x.as_str().to_string())
            .collect();
        assert_eq!(d, vec!["/r01", "/r02"]);
    }

    #[test]
    fn paper_example_resolves_exactly() {
        let nav = paper_tree();
        let resolution = resolve_units(&paper_template(), &nav).unwrap();
        // One unit per server: 4 racks × 3 chassis × 4 servers.
        assert_eq!(resolution.units.len(), 48);
        assert!(resolution.skipped.is_empty());

        let unit = resolution
            .units
            .iter()
            .find(|u| u.name.as_str() == "/r03/c02/s02")
            .expect("the paper's unit exists");
        let mut inputs: Vec<&str> = unit.inputs.iter().map(|x| x.as_str()).collect();
        inputs.sort();
        assert_eq!(
            inputs,
            vec![
                "/r03/c02/power",
                "/r03/c02/s02/cpu0/cache-misses",
                "/r03/c02/s02/cpu0/cpu-cycles",
                "/r03/c02/s02/cpu1/cache-misses",
                "/r03/c02/s02/cpu1/cpu-cycles",
            ]
        );
        assert_eq!(unit.outputs.len(), 1);
        assert_eq!(unit.outputs[0].as_str(), "/r03/c02/s02/healthy");
    }

    #[test]
    fn unit_isolation_between_siblings() {
        // The unit for s03 must not see s02's cpus or c01's power.
        let nav = paper_tree();
        let resolution = resolve_units(&paper_template(), &nav).unwrap();
        let unit = resolution
            .units
            .iter()
            .find(|u| u.name.as_str() == "/r01/c01/s03")
            .unwrap();
        assert!(unit
            .inputs
            .iter()
            .all(|i| i.as_str().starts_with("/r01/c01")));
        assert!(unit.inputs.iter().any(|i| i.as_str() == "/r01/c01/power"));
    }

    #[test]
    fn missing_input_sensor_skips_unit() {
        // A tree where one server has no cpu sensors.
        let topics = vec![
            t("/r1/c1/power"),
            t("/r1/c1/s1/cpu0/cpu-cycles"),
            t("/r1/c1/s1/cpu0/cache-misses"),
            t("/r1/c1/s1/memfree"),
            t("/r1/c1/s2/memfree"), // s2 has no cpus at all
            t("/r1/c1/s2/cpu-less/other"),
        ];
        let nav = SensorNavigator::build(&topics);
        let template = UnitTemplate::parse(
            &["<topdown+1>power", "<bottomup, filter cpu>cpu-cycles"],
            &["<bottomup-1>healthy"],
        )
        .unwrap();
        let resolution = resolve_units(&template, &nav).unwrap();
        let names: Vec<&str> = resolution.units.iter().map(|u| u.name.as_str()).collect();
        assert_eq!(names, vec!["/r1/c1/s1"]);
        assert_eq!(resolution.skipped.len(), 1);
        assert_eq!(resolution.skipped[0].name.as_str(), "/r1/c1/s2");
        assert!(resolution.skipped[0].pattern.contains("cpu-cycles"));
    }

    #[test]
    fn same_level_input_resolves_to_unit_node() {
        let nav = paper_tree();
        let template =
            UnitTemplate::parse(&["<bottomup-1>memfree"], &["<bottomup-1>memfree-pred"]).unwrap();
        let resolution = resolve_units(&template, &nav).unwrap();
        assert_eq!(resolution.units.len(), 48);
        let u = &resolution.units[0];
        assert_eq!(u.inputs.len(), 1);
        assert_eq!(u.inputs[0], u.name.child("memfree").unwrap());
        assert_eq!(u.outputs[0], u.name.child("memfree-pred").unwrap());
    }

    #[test]
    fn output_filter_restricts_units() {
        let nav = paper_tree();
        let template = UnitTemplate::parse(
            &["<bottomup-1>memfree"],
            &["<bottomup-1, filter ^s01$>swap-pred"],
        )
        .unwrap();
        let resolution = resolve_units(&template, &nav).unwrap();
        assert_eq!(resolution.units.len(), 12); // one s01 per chassis
        assert!(resolution.units.iter().all(|u| u.name.name() == "s01"));
    }

    #[test]
    fn top_level_unit_sees_whole_subtree() {
        let nav = paper_tree();
        // Rack-level aggregation: every chassis power under the rack.
        let template =
            UnitTemplate::parse(&["<topdown+1>power"], &["<topdown>rack-power"]).unwrap();
        let resolution = resolve_units(&template, &nav).unwrap();
        assert_eq!(resolution.units.len(), 4);
        for u in &resolution.units {
            assert_eq!(u.inputs.len(), 3, "{u}");
            assert!(u.inputs.iter().all(|i| i.name() == "power"));
        }
    }

    #[test]
    fn multiple_outputs() {
        let nav = paper_tree();
        let template = UnitTemplate::parse(
            &["<bottomup, filter cpu>cpu-cycles"],
            &["<bottomup-1>healthy", "<bottomup-1>score"],
        )
        .unwrap();
        let resolution = resolve_units(&template, &nav).unwrap();
        let u = &resolution.units[0];
        assert_eq!(u.outputs.len(), 2);
        assert_eq!(u.outputs[0].name(), "healthy");
        assert_eq!(u.outputs[1].name(), "score");
    }

    #[test]
    fn template_requires_output() {
        assert!(UnitTemplate::parse(&["<topdown>x"], &[]).is_err());
    }
}
