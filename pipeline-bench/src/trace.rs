//! Spans recorded from the benchmark's own files, around the calls it
//! (or one of its wrapper impls) makes into a layer.
//!
//! Two sinks share one entry point ([`span`]):
//!
//! * on the thread that called [`install`] (the driver), a span stack
//!   that attributes each span to its parent, so a layer's self time is
//!   its busy time minus what its child spans cover. Per round it keeps
//!   one aggregate row per span name, and full per-call spans for every
//!   64th round, all in buffers allocated up front and written out only
//!   when the run ends;
//! * on every other thread — the REST workers and the WAL syncer run
//!   wrapper code too — process-wide totals per span name (count, busy
//!   ns, items).
//!
//! While recording is off a span is one relaxed atomic load; untraced
//! runs construct no wrappers at all, so they never reach this module.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

macro_rules! span_names {
    ($($variant:ident => $name:literal,)*) => {
        /// Every span the benchmark records, named `<layer>.<call>`.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(u8)]
        pub enum Sp { $($variant,)* }

        pub const SPAN_NAMES: &[&str] = &[$($name,)*];
    };
}

span_names! {
    Round => "round",
    PusherTick => "pusher.tick",
    PusherSample => "pusher.sample",
    BusEncode => "bus.encode",
    BusPublish => "bus.publish",
    BusSettle => "bus.settle",
    AgentProcessPending => "agent.process_pending",
    AgentOperators => "agent.operators",
    AgentMaintain => "agent.maintain",
    StorageInsert => "storage.insert",
    StorageSeal => "storage.seal",
    StorageScan => "storage.scan",
    StorageFrames => "storage.frames",
    StorageFlush => "storage.flush",
    IoWrite => "io.write",
    IoSync => "io.sync",
    IoRead => "io.read",
    RestDispatch => "rest.dispatch",
    Probe => "probe",
    Feed => "operators.feed",
    ManagerTick => "wintermute.tick",
    ComputePerfmetrics => "plugins.perfmetrics",
    ComputeAggregator => "plugins.aggregator",
    ComputeSmoother => "plugins.smoother",
    ComputeTester => "plugins.tester",
}

const N: usize = SPAN_NAMES.len();
const NO_PARENT: u32 = u32::MAX;
/// Full per-call spans are kept for rounds divisible by this.
const FULL_EVERY: u32 = 64;
const FULL_CAP: usize = 1 << 19;

struct GlobalStat {
    count: AtomicU64,
    busy_ns: AtomicU64,
    items: AtomicU64,
}

#[allow(clippy::declare_interior_mutable_const)]
const ZERO: GlobalStat = GlobalStat {
    count: AtomicU64::new(0),
    busy_ns: AtomicU64::new(0),
    items: AtomicU64::new(0),
};
static GLOBAL: [GlobalStat; N] = [ZERO; N];
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Totals of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Total {
    pub count: u64,
    pub busy_ns: u64,
    /// Work items the spans reported through [`Guard::items`].
    pub items: u64,
    /// Busy time covered by child spans (driver thread only).
    pub child_ns: u64,
}

impl Total {
    pub fn self_ns(&self) -> u64 {
        self.busy_ns.saturating_sub(self.child_ns)
    }
}

#[derive(Clone, Copy)]
struct Open {
    id: u8,
    child_ns: u64,
    /// Index of this span's full record, when the round keeps them.
    full: u32,
}

struct Full {
    id: u8,
    parent: u32,
    round: u32,
    start_ns: u64,
    end_ns: u64,
}

struct Row {
    round: u32,
    id: u8,
    count: u32,
    busy_ns: u64,
    child_ns: u64,
}

/// The driver thread's span stack and buffers.
pub struct Tracer {
    epoch: Instant,
    round: u32,
    stack: Vec<Open>,
    current: [Total; N],
    totals: [Total; N],
    /// `pairs[parent][child]`: busy ns of `child` spans directly under
    /// `parent`.
    pairs: Vec<[u64; N]>,
    rows: Vec<Row>,
    full: Vec<Full>,
    /// What threads without a tracer recorded, as of [`finish`].
    others: [Total; N],
}

thread_local! {
    static LOCAL: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Clears the process-wide totals and turns span recording on.
pub fn enable() {
    for stat in &GLOBAL {
        stat.count.store(0, Ordering::Relaxed);
        stat.busy_ns.store(0, Ordering::Relaxed);
        stat.items.store(0, Ordering::Relaxed);
    }
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turns span recording off (wrappers may outlive the traced phase).
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Installs the hierarchical tracer on the calling thread, with room
/// for `rounds` rounds of aggregate rows.
pub fn install(rounds: usize) {
    let tracer = Tracer {
        epoch: Instant::now(),
        round: 0,
        stack: Vec::with_capacity(16),
        current: [Total::default(); N],
        totals: [Total::default(); N],
        pairs: vec![[0; N]; N],
        rows: Vec::with_capacity((rounds + 1) * N),
        full: Vec::with_capacity(FULL_CAP),
        others: [Total::default(); N],
    };
    LOCAL.with(|local| *local.borrow_mut() = Some(tracer));
}

/// Turns recording off, closes the open round and returns the calling
/// thread's tracer with the other threads' totals folded in.
pub fn finish() -> Option<Tracer> {
    disable();
    let mut tracer = LOCAL.with(|local| local.borrow_mut().take())?;
    tracer.close_round();
    for (id, other) in tracer.others.iter_mut().enumerate() {
        *other = read_global(id);
    }
    Some(tracer)
}

/// Closes the current round's aggregate rows and starts the next round.
pub fn next_round() {
    LOCAL.with(|local| {
        if let Some(t) = local.borrow_mut().as_mut() {
            t.close_round();
            t.round += 1;
        }
    });
}

fn read_global(id: usize) -> Total {
    let stat = &GLOBAL[id];
    Total {
        count: stat.count.load(Ordering::Relaxed),
        busy_ns: stat.busy_ns.load(Ordering::Relaxed),
        items: stat.items.load(Ordering::Relaxed),
        child_ns: 0,
    }
}

/// Totals of one span name over every thread that has no tracer of its
/// own installed.
pub fn global(id: Sp) -> Total {
    read_global(id as usize)
}

fn add_global(id: Sp, busy_ns: u64, items: u64) {
    let stat = &GLOBAL[id as usize];
    stat.count.fetch_add(1, Ordering::Relaxed);
    stat.busy_ns.fetch_add(busy_ns, Ordering::Relaxed);
    stat.items.fetch_add(items, Ordering::Relaxed);
}

/// An open span; closes when dropped.
pub struct Guard {
    id: Sp,
    start: Option<Instant>,
    items: u64,
}

/// Opens a span. Spans nest by scope: the innermost open span on the
/// driver thread is the parent.
pub fn span(id: Sp) -> Guard {
    if !ENABLED.load(Ordering::Relaxed) {
        return Guard {
            id,
            start: None,
            items: 0,
        };
    }
    let start = Instant::now();
    LOCAL.with(|local| {
        if let Some(t) = local.borrow_mut().as_mut() {
            t.enter(id, start);
        }
    });
    Guard {
        id,
        start: Some(start),
        items: 0,
    }
}

/// Records an interval that already ended, and that spanned the whole
/// of the innermost open span so far, as that span's child — for work
/// only recognisable after the fact (an insert that turned out to have
/// sealed the memtable). The child gets only what the parent's other
/// children (the seal's own I/O spans) have not already covered, so no
/// nanosecond is attributed twice.
pub fn record(id: Sp, busy_ns: u64, items: u64) {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    let traced_here = LOCAL.with(|local| {
        let mut local = local.borrow_mut();
        let Some(t) = local.as_mut() else {
            return false;
        };
        if let Some(parent) = t.stack.last_mut() {
            let uncovered = busy_ns.saturating_sub(parent.child_ns);
            parent.child_ns += uncovered;
            t.pairs[parent.id as usize][id as usize] += uncovered;
            let cur = &mut t.current[id as usize];
            cur.count += 1;
            cur.busy_ns += uncovered;
            cur.items += items;
        }
        true
    });
    if !traced_here {
        add_global(id, busy_ns, items);
    }
}

impl Guard {
    /// Nanoseconds since the span opened (0 when recording is off).
    pub fn elapsed_ns(&self) -> u64 {
        self.start
            .map_or(0, |start| start.elapsed().as_nanos() as u64)
    }

    /// Reports how many work items (readings, frames, bytes' owners)
    /// this span processed.
    pub fn items(&mut self, n: u64) {
        self.items += n;
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(start) = self.start else {
            return;
        };
        let end = Instant::now();
        let busy = end.duration_since(start).as_nanos() as u64;
        let traced_here = LOCAL.with(|local| match local.borrow_mut().as_mut() {
            Some(t) => {
                t.exit(self.id, busy, self.items, end);
                true
            }
            None => false,
        });
        if !traced_here {
            add_global(self.id, busy, self.items);
        }
    }
}

impl Tracer {
    fn enter(&mut self, id: Sp, start: Instant) {
        let mut full = NO_PARENT;
        if self.round.is_multiple_of(FULL_EVERY) && self.full.len() < FULL_CAP {
            full = self.full.len() as u32;
            self.full.push(Full {
                id: id as u8,
                parent: self.stack.last().map_or(NO_PARENT, |open| open.full),
                round: self.round,
                start_ns: start.duration_since(self.epoch).as_nanos() as u64,
                end_ns: 0,
            });
        }
        self.stack.push(Open {
            id: id as u8,
            child_ns: 0,
            full,
        });
    }

    fn exit(&mut self, id: Sp, busy: u64, items: u64, end: Instant) {
        let Some(open) = self.stack.pop() else {
            return;
        };
        debug_assert_eq!(open.id, id as u8, "spans must nest");
        let cur = &mut self.current[id as usize];
        cur.count += 1;
        cur.busy_ns += busy;
        cur.items += items;
        cur.child_ns += open.child_ns;
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += busy;
            self.pairs[parent.id as usize][id as usize] += busy;
        }
        if open.full != NO_PARENT {
            self.full[open.full as usize].end_ns = end.duration_since(self.epoch).as_nanos() as u64;
        }
    }

    fn close_round(&mut self) {
        for id in 0..N {
            let cur = std::mem::take(&mut self.current[id]);
            if cur.count == 0 {
                continue;
            }
            let total = &mut self.totals[id];
            total.count += cur.count;
            total.busy_ns += cur.busy_ns;
            total.items += cur.items;
            total.child_ns += cur.child_ns;
            if self.rows.len() < self.rows.capacity() {
                self.rows.push(Row {
                    round: self.round,
                    id: id as u8,
                    count: cur.count as u32,
                    busy_ns: cur.busy_ns,
                    child_ns: cur.child_ns,
                });
            }
        }
    }

    /// Driver-thread totals of one span name, with child coverage.
    pub fn total(&self, id: Sp) -> Total {
        self.totals[id as usize]
    }

    /// Totals of one span name over every thread: the I/O seam runs on
    /// the driver and on the WAL syncer.
    pub fn all_threads(&self, id: Sp) -> Total {
        let (here, other) = (self.totals[id as usize], self.others[id as usize]);
        Total {
            count: here.count + other.count,
            busy_ns: here.busy_ns + other.busy_ns,
            items: here.items + other.items,
            child_ns: here.child_ns,
        }
    }

    /// Busy ns of `child` spans opened directly under `parent`.
    #[cfg(test)]
    pub fn under(&self, parent: Sp, child: Sp) -> u64 {
        self.pairs[parent as usize][child as usize]
    }

    /// Busy ns per round of one span name, in round order (rounds where
    /// the span never ran are absent).
    pub fn per_round(&self, id: Sp) -> Vec<u64> {
        self.rows
            .iter()
            .filter(|row| row.id == id as u8)
            .map(|row| row.busy_ns)
            .collect()
    }

    /// The reconciliation table: every span that had children, against
    /// the sum of its children plus its self time.
    pub fn reconciliation(&self) -> String {
        let mut out = String::new();
        for (parent, total) in self.totals.iter().enumerate() {
            if total.child_ns == 0 {
                continue;
            }
            let ms = |ns: u64| ns as f64 / 1e6;
            out.push_str(&format!(
                "  {:<24} busy {:>10.3} ms = children {:>10.3} ms + self {:>10.3} ms ({:.1} % self)\n",
                SPAN_NAMES[parent],
                ms(total.busy_ns),
                ms(total.child_ns),
                ms(total.self_ns()),
                100.0 * total.self_ns() as f64 / total.busy_ns.max(1) as f64,
            ));
            for (child, &busy) in self.pairs[parent].iter().enumerate() {
                if busy > 0 {
                    out.push_str(&format!(
                        "    - {:<22} {:>10.3} ms ({:.1} %)\n",
                        SPAN_NAMES[child],
                        ms(busy),
                        100.0 * busy as f64 / total.busy_ns.max(1) as f64,
                    ));
                }
            }
        }
        out
    }

    /// The trace file: span names, one aggregate row per (round, span
    /// name), and the full spans of every 64th round.
    pub fn to_json(&self, workload: &str) -> String {
        let mut out = String::with_capacity(64 * (self.rows.len() + self.full.len()) + 1024);
        out.push_str(&format!(
            "{{\"workload\":\"{workload}\",\"span_names\":{},\n\"round_columns\":[\"round\",\"span\",\"count\",\"busy_ns\",\"child_ns\"],\n\"rounds\":[",
            serde_json::to_string(&SPAN_NAMES).expect("names serialize"),
        ));
        for (i, row) in self.rows.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            out.push_str(&format!(
                "{sep}[{},{},{},{},{}]",
                row.round, row.id, row.count, row.busy_ns, row.child_ns
            ));
        }
        out.push_str(
            "],\n\"span_columns\":[\"span\",\"parent\",\"round\",\"start_ns\",\"end_ns\"],\n\"spans\":[",
        );
        for (i, span) in self.full.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let parent = if span.parent == NO_PARENT {
                -1
            } else {
                i64::from(span.parent)
            };
            out.push_str(&format!(
                "{sep}[{},{parent},{},{},{}]",
                span.id, span.round, span.start_ns, span.end_ns
            ));
        }
        out.push_str("]}\n");
        out
    }
}

/// Recording is switched on and off process-wide, and `cargo test`
/// runs tests on parallel threads: tests that record hold this lock.
#[cfg(test)]
pub static TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(us: u64) {
        let start = Instant::now();
        while start.elapsed().as_micros() < u128::from(us) {
            std::hint::black_box(0);
        }
    }

    #[test]
    fn self_time_is_busy_minus_children() {
        let _recording = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        enable();
        install(4);
        for _ in 0..2 {
            let _round = span(Sp::Round);
            {
                let mut tick = span(Sp::PusherTick);
                tick.items(10);
                spin(200);
                let _sample = span(Sp::PusherSample);
                spin(300);
            }
            drop(_round);
            next_round();
        }
        let t = finish().expect("installed");
        let tick = t.total(Sp::PusherTick);
        let sample = t.total(Sp::PusherSample);
        assert_eq!((tick.count, tick.items, sample.count), (2, 20, 2));
        assert_eq!(tick.child_ns, sample.busy_ns);
        assert_eq!(t.under(Sp::PusherTick, Sp::PusherSample), sample.busy_ns);
        assert!(tick.self_ns() >= 2 * 150_000, "{tick:?}");
        assert!(t.total(Sp::Round).child_ns == tick.busy_ns);
        assert_eq!(t.per_round(Sp::PusherTick).len(), 2);
        // The driver thread's spans stay out of the other-thread totals.
        assert_eq!(global(Sp::PusherSample).count, 0);
        assert_eq!(t.all_threads(Sp::PusherSample), sample);
        assert!(t.reconciliation().contains("pusher.sample"));
        let json: serde_json::Value = serde_json::from_str(&t.to_json("x")).expect("valid JSON");
        // Round 0 is a full-span round: 3 spans; 2 rounds × 3 names.
        assert_eq!(
            json.get("spans").and_then(|s| s.as_array()).map(Vec::len),
            Some(3)
        );
        assert_eq!(
            json.get("rounds").and_then(|s| s.as_array()).map(Vec::len),
            Some(6)
        );
    }
}
