//! The sensor tree (paper §III-A).
//!
//! Sensor topics are slash-separated paths expressing each sensor's
//! placement in the HPC system. Splitting every topic at its last
//! segment yields a tree in which internal nodes are system components
//! (racks, chassis, compute nodes, CPUs) and leaves are sensors — "a
//! comprehensive view of the monitored system's structure, as well as a
//! natural way to correlate hierarchically-related sensors".
//!
//! The [`SensorNavigator`] wraps the tree with the level-indexed queries
//! the Unit System needs: *vertical* navigation by tree level (topdown /
//! bottomup) and *horizontal* filtering of a level's nodes by name.

use dcdb_common::error::DcdbError;
use dcdb_common::topic::Topic;
use std::collections::BTreeMap;

/// One component node in the sensor tree.
#[derive(Debug, Default)]
struct TreeNode {
    children: BTreeMap<String, TreeNode>,
    /// Names of sensors (leaves) directly attached to this component.
    sensors: Vec<String>,
}

impl TreeNode {
    fn child_mut(&mut self, seg: &str) -> &mut TreeNode {
        self.children.entry(seg.to_string()).or_default()
    }
}

/// An immutable, level-indexed view of the sensor space.
///
/// Built once from the set of known sensor topics and rebuilt when
/// sensors appear or disappear; operators hold an `Arc` to the current
/// navigator via the Query Engine.
#[derive(Debug)]
pub struct SensorNavigator {
    root: TreeNode,
    /// `levels[d]` = paths of all component nodes at depth `d`
    /// (depth 0 = directly below the implicit root).
    levels: Vec<Vec<Topic>>,
    sensor_count: usize,
}

impl SensorNavigator {
    /// Builds the tree from sensor topics. Topics with a single segment
    /// (a sensor directly under the root, e.g. `/db-uptime`) attach to
    /// the implicit root and do not create component nodes.
    pub fn build<'a, I>(topics: I) -> SensorNavigator
    where
        I: IntoIterator<Item = &'a Topic>,
    {
        let mut root = TreeNode::default();
        let mut sensor_count = 0usize;
        for topic in topics {
            let segs: Vec<&str> = topic.segments().collect();
            let (sensor, components) = segs.split_last().expect("topics are non-empty");
            let mut cur = &mut root;
            for seg in components {
                cur = cur.child_mut(seg);
            }
            if !cur.sensors.iter().any(|s| s == sensor) {
                cur.sensors.push(sensor.to_string());
                sensor_count += 1;
            }
        }

        // Index component nodes by depth.
        let mut levels: Vec<Vec<Topic>> = Vec::new();
        fn walk(node: &TreeNode, path: &str, depth: usize, levels: &mut Vec<Vec<Topic>>) {
            for (name, child) in &node.children {
                let child_path = format!("{path}/{name}");
                if levels.len() <= depth {
                    levels.resize_with(depth + 1, Vec::new);
                }
                levels[depth].push(Topic::parse(&child_path).expect("valid path"));
                walk(child, &child_path, depth + 1, levels);
            }
        }
        walk(&root, "", 0, &mut levels);

        SensorNavigator {
            root,
            levels,
            sensor_count,
        }
    }

    /// Number of distinct sensors in the tree.
    pub fn sensor_count(&self) -> usize {
        self.sensor_count
    }

    /// Number of component levels (the root is excluded, as in the
    /// paper's level notation).
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// All component nodes at `level` (0 = highest, `depth()-1` =
    /// lowest). Empty slice when out of range.
    pub fn nodes_at_level(&self, level: usize) -> &[Topic] {
        self.levels.get(level).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Internal lookup of a component node.
    fn find(&self, path: &Topic) -> Option<&TreeNode> {
        let mut cur = &self.root;
        for seg in path.segments() {
            cur = cur.children.get(seg)?;
        }
        Some(cur)
    }

    /// True if the tree contains the exact sensor `topic`.
    pub fn has_sensor(&self, topic: &Topic) -> bool {
        let Some(parent) = topic.parent() else {
            return self.root.sensors.iter().any(|s| s == topic.name());
        };
        self.find(&parent)
            .map(|n| n.sensors.iter().any(|s| s == topic.name()))
            .unwrap_or(false)
    }

    /// True when `a` and `b` are *hierarchically related*: equal, or one
    /// is an ancestor of the other. This is the Unit System's
    /// admissibility condition for binding input sensors to a unit
    /// (paper §III-B).
    pub fn hierarchically_related(a: &Topic, b: &Topic) -> bool {
        a == b || a.is_ancestor_of(b) || b.is_ancestor_of(a)
    }

    /// All sensors named `sensor_name` in the subtree rooted at `root`
    /// (including `root` itself), in depth-first order. Job operators
    /// use this to gather per-core metrics across a job's node list
    /// (paper §VI-C).
    pub fn sensors_in_subtree(&self, root: &Topic, sensor_name: &str) -> Vec<Topic> {
        let Some(node) = self.find(root) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        fn walk(node: &TreeNode, path: &Topic, name: &str, out: &mut Vec<Topic>) {
            if node.sensors.iter().any(|s| s == name) {
                out.push(path.child(name).expect("valid sensor topic"));
            }
            for (child_name, child) in &node.children {
                let child_path = path.child(child_name).expect("valid path");
                walk(child, &child_path, name, out);
            }
        }
        walk(node, root, sensor_name, &mut out);
        out
    }

    /// Resolves a level specification written against this tree.
    ///
    /// `topdown` offsets grow downward from the highest level;
    /// `bottomup` offsets grow upward from the lowest. Out-of-range
    /// specifications are an error, naming the offending spec.
    pub fn resolve_level(&self, spec: LevelSpec) -> Result<usize, DcdbError> {
        let depth = self.depth() as i64;
        if depth == 0 {
            return Err(DcdbError::InvalidState(
                "sensor tree has no component levels".into(),
            ));
        }
        let level = match spec {
            LevelSpec::TopDown(off) => off,
            LevelSpec::BottomUp(off) => depth - 1 - off,
        };
        if (0..depth).contains(&level) {
            Ok(level as usize)
        } else {
            Err(DcdbError::Config(format!(
                "level spec {spec:?} resolves to {level}, outside 0..{depth}"
            )))
        }
    }
}

/// Vertical position in the sensor tree, as written in pattern
/// expressions (paper §III-C): `topdown` is the highest component level,
/// `bottomup` the lowest, with relative offsets toward the middle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LevelSpec {
    /// `topdown+N`: N levels below the highest.
    TopDown(i64),
    /// `bottomup-N`: N levels above the lowest.
    BottomUp(i64),
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: &str) -> Topic {
        Topic::parse(s).unwrap()
    }

    /// The tree of the paper's Figure 2 (excerpt): racks r01-r03,
    /// chassis c01-c03 under r03, servers s01-s04 under c02, cpus under
    /// s02, plus root-level sensors.
    fn paper_tree() -> SensorNavigator {
        let topics: Vec<Topic> = [
            "/r01/inlet-temp",
            "/r02/inlet-temp",
            "/r03/inlet-temp",
            "/r03/c01/power",
            "/r03/c02/power",
            "/r03/c03/power",
            "/r03/c02/s01/memfree",
            "/r03/c02/s02/memfree",
            "/r03/c02/s02/healthy",
            "/r03/c02/s03/memfree",
            "/r03/c02/s04/memfree",
            "/r03/c02/s02/cpu0/cpu-cycles",
            "/r03/c02/s02/cpu0/cache-misses",
            "/r03/c02/s02/cpu1/cpu-cycles",
            "/r03/c02/s02/cpu1/cache-misses",
            "/db-uptime",
        ]
        .iter()
        .map(|s| t(s))
        .collect();
        SensorNavigator::build(&topics)
    }

    #[test]
    fn build_counts_and_depth() {
        let nav = paper_tree();
        assert_eq!(nav.sensor_count(), 16);
        assert_eq!(nav.depth(), 4); // racks, chassis, servers, cpus
    }

    #[test]
    fn levels_hold_expected_nodes() {
        let nav = paper_tree();
        let l0: Vec<&str> = nav.nodes_at_level(0).iter().map(|x| x.as_str()).collect();
        assert_eq!(l0, vec!["/r01", "/r02", "/r03"]);
        let l1: Vec<&str> = nav.nodes_at_level(1).iter().map(|x| x.as_str()).collect();
        assert_eq!(l1, vec!["/r03/c01", "/r03/c02", "/r03/c03"]);
        let l3: Vec<&str> = nav.nodes_at_level(3).iter().map(|x| x.as_str()).collect();
        assert_eq!(l3, vec!["/r03/c02/s02/cpu0", "/r03/c02/s02/cpu1"]);
        assert!(nav.nodes_at_level(9).is_empty());
    }

    #[test]
    fn has_sensor_including_root_level() {
        let nav = paper_tree();
        assert!(nav.has_sensor(&t("/r03/c02/power")));
        assert!(nav.has_sensor(&t("/db-uptime")));
        assert!(!nav.has_sensor(&t("/r03/c02/nope")));
        assert!(!nav.has_sensor(&t("/r99/power")));
    }

    #[test]
    fn hierarchical_relations() {
        let a = t("/r03/c02");
        let b = t("/r03/c02/s02/cpu0");
        assert!(SensorNavigator::hierarchically_related(&a, &b));
        assert!(SensorNavigator::hierarchically_related(&b, &a));
        assert!(SensorNavigator::hierarchically_related(&a, &a));
        assert!(!SensorNavigator::hierarchically_related(
            &t("/r03/c01"),
            &t("/r03/c02/s02")
        ));
    }

    #[test]
    fn resolve_level_specs() {
        let nav = paper_tree();
        assert_eq!(nav.resolve_level(LevelSpec::TopDown(0)).unwrap(), 0);
        assert_eq!(nav.resolve_level(LevelSpec::TopDown(1)).unwrap(), 1);
        assert_eq!(nav.resolve_level(LevelSpec::BottomUp(0)).unwrap(), 3);
        assert_eq!(nav.resolve_level(LevelSpec::BottomUp(1)).unwrap(), 2);
        assert_eq!(nav.resolve_level(LevelSpec::BottomUp(3)).unwrap(), 0);
        assert!(nav.resolve_level(LevelSpec::TopDown(4)).is_err());
        assert!(nav.resolve_level(LevelSpec::BottomUp(4)).is_err());
        assert!(nav.resolve_level(LevelSpec::TopDown(-1)).is_err());
    }

    #[test]
    fn duplicate_topics_are_idempotent() {
        let topics = vec![t("/a/b/x"), t("/a/b/x"), t("/a/b/y")];
        let nav = SensorNavigator::build(&topics);
        assert_eq!(nav.sensor_count(), 2);
    }

    #[test]
    fn empty_tree() {
        let nav = SensorNavigator::build(std::iter::empty::<&Topic>());
        assert_eq!(nav.depth(), 0);
        assert_eq!(nav.sensor_count(), 0);
        assert!(nav.resolve_level(LevelSpec::TopDown(0)).is_err());
    }

    #[test]
    fn sensors_in_subtree_collects_recursively() {
        let nav = paper_tree();
        // All cpu-cycles under server s02: its two cpus.
        let found = nav.sensors_in_subtree(&t("/r03/c02/s02"), "cpu-cycles");
        let names: Vec<&str> = found.iter().map(|x| x.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "/r03/c02/s02/cpu0/cpu-cycles",
                "/r03/c02/s02/cpu1/cpu-cycles"
            ]
        );
        // Root-of-subtree sensors are included.
        let mem = nav.sensors_in_subtree(&t("/r03/c02/s02"), "memfree");
        assert_eq!(mem.len(), 1);
        // Whole-rack scan finds the chassis power sensors.
        let power = nav.sensors_in_subtree(&t("/r03"), "power");
        assert_eq!(power.len(), 3);
        // Unknown root or sensor name: empty.
        assert!(nav.sensors_in_subtree(&t("/nope"), "power").is_empty());
        assert!(nav.sensors_in_subtree(&t("/r03"), "nope").is_empty());
    }

    #[test]
    fn ragged_tree_levels() {
        // One branch is deeper than the other.
        let topics = vec![t("/r1/n1/power"), t("/r1/n1/cpu0/cycles"), t("/r2/power")];
        let nav = SensorNavigator::build(&topics);
        assert_eq!(nav.depth(), 3);
        let l1: Vec<&str> = nav.nodes_at_level(1).iter().map(|x| x.as_str()).collect();
        assert_eq!(l1, vec!["/r1/n1"]);
        // bottomup resolves to the deepest level anywhere in the tree.
        assert_eq!(nav.resolve_level(LevelSpec::BottomUp(0)).unwrap(), 2);
    }
}
