//! The reference model: every reading the federation front door
//! accepted, and the comparison of a final answer against it.
//!
//! The conservation identities prove the stack does not lose *count*;
//! the ledger proves it returns the right *answer*. It sits between the
//! chaos layer and the federation as a recording [`MessageBus`]: a
//! publish the federation accepted is kept as `(topic, ts) -> value`, a
//! refused one is not. After the run one scatter-gather answer per
//! topic is held against it: never a reading the ledger does not hold,
//! never a timestamp twice, never a wrong value — and a held reading may
//! be missing only if the harness saw its engine shed it and then
//! killed the one node whose cache still served it.

use bytes::Bytes;
use dcdb_bus::{
    decode_frame, BusStatsSnapshot, Message, MessageBus, SubscribeOptions, Subscription,
    TopicFilter,
};
use dcdb_common::error::DcdbError;
use dcdb_common::reading::SensorReading;
use dcdb_common::topic::Topic;
use parking_lot::Mutex;
use serde::Serialize;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// How the final answers compared with the ledger, summed over topics.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct AnswerReport {
    /// Readings the ledger holds.
    pub held: u64,
    /// Readings the final answers returned.
    pub returned: u64,
    /// Held readings no answer returned.
    pub missing: u64,
    /// Missing readings noted by [`Ledger::note_shed_at_kill`].
    pub missing_shed_at_kill: u64,
    /// Returned readings the ledger never held.
    pub phantom: u64,
    /// Timestamps an answer returned more than once.
    pub duplicates: u64,
    /// Returned readings whose value differs from the held one.
    pub wrong_value: u64,
    /// The first few offending readings, `"<kind> <topic> <ts>"`.
    pub offenders: Vec<String>,
}

impl AnswerReport {
    /// The `answers` identity: nothing phantom, duplicated or wrong,
    /// and every missing reading attributed.
    pub fn holds(&self) -> bool {
        self.phantom + self.duplicates + self.wrong_value == 0
            && self.missing == self.missing_shed_at_kill
    }

    fn offend(&mut self, kind: &str, topic: &Topic, ts: u64) {
        if self.offenders.len() < 8 {
            self.offenders.push(format!("{kind} {topic} {ts}"));
        }
    }
}

/// The recording bus over the federation front door.
pub struct Ledger {
    inner: Arc<dyn MessageBus>,
    /// Every entry of a frame is recorded.
    all: TopicFilter,
    held: Mutex<BTreeMap<Topic, BTreeMap<u64, i64>>>,
    /// Readings in the publishes `inner` accepted, repeats included.
    accepted: AtomicU64,
    shed_at_kill: Mutex<BTreeSet<(Topic, u64)>>,
}

impl Ledger {
    /// Records every publish `inner` accepts.
    pub fn over(inner: Arc<dyn MessageBus>) -> Ledger {
        Ledger {
            inner,
            all: TopicFilter::parse("/#").expect("valid filter"),
            held: Mutex::default(),
            accepted: AtomicU64::new(0),
            shed_at_kill: Mutex::default(),
        }
    }

    /// Readings in the publishes the federation accepted: the unit
    /// storage sheds in.
    pub fn accepted(&self) -> u64 {
        self.accepted.load(Ordering::Relaxed)
    }

    /// Marks a reading that may go missing: its engine refused it
    /// (DESIGN §9's `shed` bucket) and the node whose sensor cache
    /// still serves it is being killed. It may equally survive — a
    /// refused append can outlive the crash in a journal never rotated
    /// away.
    pub fn note_shed_at_kill(&self, topic: Topic, ts: u64) {
        self.shed_at_kill.lock().insert((topic, ts));
    }

    /// Holds `answer` — the final query result for `topic` — against the
    /// ledger and adds the outcome to `report`.
    pub fn compare(&self, topic: &Topic, answer: &[SensorReading], report: &mut AnswerReport) {
        let held = self.held.lock().get(topic).cloned().unwrap_or_default();
        report.held += held.len() as u64;
        report.returned += answer.len() as u64;
        let mut seen = BTreeSet::new();
        for r in answer {
            let ts = r.ts.as_nanos();
            let kind = if !seen.insert(ts) {
                report.duplicates += 1;
                "duplicate"
            } else if !held.contains_key(&ts) {
                report.phantom += 1;
                "phantom"
            } else if held[&ts] != r.value {
                report.wrong_value += 1;
                "wrong-value"
            } else {
                continue;
            };
            report.offend(kind, topic, ts);
        }
        let shed_at_kill = self.shed_at_kill.lock();
        for &ts in held.keys().filter(|ts| !seen.contains(ts)) {
            report.missing += 1;
            if shed_at_kill.contains(&(topic.clone(), ts)) {
                report.missing_shed_at_kill += 1;
            } else {
                report.offend("missing", topic, ts);
            }
        }
    }
}

impl MessageBus for Ledger {
    fn publish(&self, topic: Topic, payload: Bytes) -> Result<(), DcdbError> {
        self.inner.publish(topic.clone(), payload.clone())?;
        if let Ok(entries) = decode_frame(&Message { topic, payload }, &self.all) {
            let mut held = self.held.lock();
            for (topic, batch) in entries {
                self.accepted
                    .fetch_add(batch.len() as u64, Ordering::Relaxed);
                let series = held.entry(topic).or_default();
                series.extend(batch.iter().map(|r| (r.ts.as_nanos(), r.value)));
            }
        }
        Ok(())
    }

    fn subscribe_with(&self, filter: TopicFilter, opts: SubscribeOptions) -> Subscription {
        self.inner.subscribe_with(filter, opts)
    }

    fn stats(&self) -> BusStatsSnapshot {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcdb_common::time::Timestamp;

    #[test]
    fn each_kind_of_tampering_fails_the_identity_and_is_named() {
        let ledger = Ledger::over(Arc::new(dcdb_bus::Broker::new().handle()));
        let topic = Topic::parse("/rack00/node00/power").unwrap();
        let truth: Vec<SensorReading> = (1..=4)
            .map(|i| SensorReading::new(10 * i, Timestamp(i as u64)))
            .collect();
        ledger.publish_readings(topic.clone(), &truth).unwrap();
        let check = |answer: &[SensorReading]| {
            let mut report = AnswerReport::default();
            ledger.compare(&topic, answer, &mut report);
            report
        };
        let exact = check(&truth);
        assert!(exact.holds() && exact.offenders.is_empty(), "{exact:?}");
        assert_eq!((exact.held, exact.returned), (4, 4));

        let phantom = [&truth[..], &[SensorReading::new(50, Timestamp(5))]].concat();
        let duplicated = [&truth[..], &truth[1..2]].concat();
        let mut wrong = truth.clone();
        wrong[2].value += 1;
        for (answer, offender) in [
            (&truth[1..], "missing /rack00/node00/power 1"),
            (&phantom[..], "phantom /rack00/node00/power 5"),
            (&duplicated[..], "duplicate /rack00/node00/power 2"),
            (&wrong[..], "wrong-value /rack00/node00/power 3"),
        ] {
            let report = check(answer);
            assert!(!report.holds(), "{offender}: {report:?}");
            assert_eq!(report.offenders, vec![offender.to_string()]);
        }
        // Only a reading noted as shed at a kill may be missing — that
        // one, not another, and it may as well be present.
        ledger.note_shed_at_kill(topic.clone(), 1);
        let excused = check(&truth[1..]);
        assert!(
            excused.holds() && excused.offenders.is_empty(),
            "{excused:?}"
        );
        assert_eq!((excused.missing, excused.missing_shed_at_kill), (1, 1));
        assert!(check(&truth).holds() && !check(&truth[2..]).holds());
    }
}
