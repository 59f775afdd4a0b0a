//! The black-box collector. It arms only in builds with the `enabled`
//! feature; without it, armed settings still give an unarmed collector.
//!
//! Strictly write-only from the simulation's point of view: the collector
//! consumes no RNG and nothing it stores feeds back into simulation state,
//! so arming it cannot change a run's outcome.

use crate::event::{TraceEvent, TraceEventKind};
use crate::record::TraceRecord;
use crate::ring::TraceRing;
use crate::settings::{TraceSettings, TraceTrigger};
use crate::wire::{BlackBox, TraceSegment};
use crate::TraceStats;

/// Hard bound on sealed capture segments per run: a flapping trigger must
/// not grow the black box without limit.
const MAX_SEGMENTS: usize = 64;

/// A capture window in flight: the pre-window has been frozen out of the
/// ring and post-trigger records are still being appended.
#[derive(Debug, Clone)]
struct Capture {
    trigger: TraceTrigger,
    trigger_event_id: u32,
    records: Vec<TraceRecord>,
    post_remaining: usize,
}

/// Per-run trace collector: full-rate ring, causal event stream, and
/// anomaly-triggered capture.
#[derive(Debug, Clone)]
pub struct TraceCollector {
    armed: bool,
    settings: TraceSettings,
    ring: TraceRing,
    events: Vec<TraceEvent>,
    segments: Vec<TraceSegment>,
    capture: Option<Capture>,
    next_id: u32,
    last_fault: Option<u32>,
    last_detection: Option<u32>,
    last_mitigation: Option<u32>,
    captured: u64,
    dropped_triggers: u64,
    finalized: bool,
}

impl TraceCollector {
    /// Builds a collector for one run; disarmed settings (or a build
    /// without the `enabled` feature) yield a collector whose every call is
    /// a cheap early return.
    pub fn new(settings: &TraceSettings) -> Self {
        let armed = cfg!(feature = "enabled") && settings.enabled;
        TraceCollector {
            armed,
            settings: settings.clone(),
            ring: TraceRing::new(if armed { settings.ring_capacity } else { 0 }),
            events: Vec::new(),
            segments: Vec::new(),
            capture: None,
            next_id: 0,
            last_fault: None,
            last_detection: None,
            last_mitigation: None,
            captured: 0,
            dropped_triggers: 0,
            finalized: false,
        }
    }

    /// True when the collector is recording this run. Call sites use this
    /// to skip building records and detail strings entirely; without the
    /// `enabled` feature it is a compile-time `false`, so they compile away.
    #[inline]
    pub fn is_armed(&self) -> bool {
        cfg!(feature = "enabled") && self.armed
    }

    /// Feeds one full-rate record through the ring (and any open capture).
    /// Returns the record evicted off the back of the ring, if any, so the
    /// caller can recycle its allocations on the next tick.
    pub fn record(&mut self, record: TraceRecord) -> Option<TraceRecord> {
        if !self.is_armed() {
            return Some(record);
        }
        if let Some(capture) = self.capture.as_mut() {
            capture.records.push(record.clone());
            self.captured += 1;
            capture.post_remaining -= 1;
            if capture.post_remaining == 0 {
                let done = self.capture.take().expect("capture is open");
                self.segments.push(TraceSegment {
                    trigger: done.trigger,
                    trigger_event_id: done.trigger_event_id,
                    records: done.records,
                });
            }
        }
        self.ring.push(record)
    }

    /// Records an event, wiring its causal link, and freezes a capture
    /// window when the event's kind maps to an armed trigger. Returns the
    /// event id (0 when disarmed).
    pub fn event(
        &mut self,
        kind: TraceEventKind,
        tick: u64,
        time: f64,
        param: u32,
        detail: String,
    ) -> u32 {
        if !self.is_armed() {
            return 0;
        }
        let id = self.next_id;
        self.next_id += 1;
        let caused_by = self.cause_for(kind);
        self.events.push(TraceEvent {
            id,
            caused_by,
            tick,
            time,
            kind,
            param,
            detail,
        });
        match kind {
            TraceEventKind::FaultActivated | TraceEventKind::AttackActivated => {
                self.last_fault = Some(id);
            }
            TraceEventKind::DetectorEdge
            | TraceEventKind::VoterExclusion
            | TraceEventKind::SensorDegradation => {
                self.last_detection = Some(id);
            }
            TraceEventKind::PrimarySwitch
            | TraceEventKind::CascadeTransition
            | TraceEventKind::FailsafeActivated => self.last_mitigation = Some(id),
            _ => {}
        }
        if let Some(trigger) = trigger_for(kind) {
            self.arm_capture(trigger, id);
        }
        id
    }

    /// The causal parent for a new event of `kind`: the most recent event
    /// one step up the fault → detection → mitigation → outcome chain.
    fn cause_for(&self, kind: TraceEventKind) -> Option<u32> {
        match kind {
            // Attacks are root causes, exactly like injected faults.
            TraceEventKind::FaultActivated | TraceEventKind::AttackActivated => None,
            TraceEventKind::FaultCleared
            | TraceEventKind::AttackCleared
            | TraceEventKind::DetectorEdge
            | TraceEventKind::VoterExclusion
            | TraceEventKind::VoterReinstatement
            // A degradation edge is the monitors *detecting* the attack.
            | TraceEventKind::SensorDegradation => self.last_fault,
            TraceEventKind::PrimarySwitch
            | TraceEventKind::CascadeTransition
            | TraceEventKind::FailsafeActivated => self.last_detection.or(self.last_fault),
            TraceEventKind::BubbleViolation
            | TraceEventKind::RunOutcome
            | TraceEventKind::PanicCaptured => self
                .last_mitigation
                .or(self.last_detection)
                .or(self.last_fault),
        }
    }

    /// Opens (or extends) a capture window for `trigger`.
    fn arm_capture(&mut self, trigger: TraceTrigger, event_id: u32) {
        if !self.settings.triggers_on(trigger) {
            return;
        }
        if let Some(capture) = self.capture.as_mut() {
            // A trigger inside an open window extends it rather than
            // starting an overlapping segment.
            capture.post_remaining = capture.post_remaining.max(self.settings.post_window.max(1));
            return;
        }
        if self.segments.len() >= MAX_SEGMENTS {
            self.dropped_triggers += 1;
            return;
        }
        let pre = self.ring.tail(self.settings.pre_window);
        self.captured += pre.len() as u64;
        self.capture = Some(Capture {
            trigger,
            trigger_event_id: event_id,
            records: pre,
            post_remaining: self.settings.post_window.max(1),
        });
    }

    /// Emits the terminal `RunOutcome` event; idempotent, so callers can
    /// call it defensively.
    pub fn finalize(&mut self, outcome_label: &str, tick: u64, time: f64) {
        if !self.is_armed() || self.finalized {
            return;
        }
        self.finalized = true;
        self.event(
            TraceEventKind::RunOutcome,
            tick,
            time,
            0,
            outcome_label.to_string(),
        );
    }

    /// Records that the simulation panicked; the campaign worker calls this
    /// from its unwind handler before extracting the black box.
    pub fn note_panic(&mut self, tick: u64, time: f64) {
        if !self.is_armed() {
            return;
        }
        self.event(
            TraceEventKind::PanicCaptured,
            tick,
            time,
            0,
            "simulation panicked".to_string(),
        );
    }

    /// Capture accounting for the obs counters.
    pub fn stats(&self) -> TraceStats {
        let in_flight = self
            .capture
            .as_ref()
            .map(|c| c.records.len() as u64)
            .unwrap_or(0);
        TraceStats {
            records_captured: self.captured,
            records_dropped: self.ring.evicted() + self.dropped_triggers,
            events: self.events.len() as u64,
            segments: self.segments.len() as u64 + u64::from(in_flight > 0),
        }
    }

    /// Seals any in-flight capture and serializes the run's black box.
    /// Returns `None` when disarmed or nothing at all was recorded.
    pub fn take_black_box(&mut self, drone_id: u32, metadata: &str) -> Option<Vec<u8>> {
        if !self.is_armed() {
            return None;
        }
        if let Some(open) = self.capture.take() {
            self.segments.push(TraceSegment {
                trigger: open.trigger,
                trigger_event_id: open.trigger_event_id,
                records: open.records,
            });
        }
        if self.segments.is_empty() && self.events.is_empty() {
            return None;
        }
        let bb = BlackBox {
            drone_id,
            metadata: metadata.to_string(),
            segments: std::mem::take(&mut self.segments),
            events: std::mem::take(&mut self.events),
        };
        self.armed = false;
        Some(bb.encode())
    }
}

/// The capture trigger an event kind maps to, if any.
fn trigger_for(kind: TraceEventKind) -> Option<TraceTrigger> {
    match kind {
        TraceEventKind::DetectorEdge => Some(TraceTrigger::DetectorEdge),
        TraceEventKind::VoterExclusion => Some(TraceTrigger::VoterExclusion),
        TraceEventKind::BubbleViolation => Some(TraceTrigger::BubbleViolation),
        TraceEventKind::FailsafeActivated => Some(TraceTrigger::Failsafe),
        TraceEventKind::PanicCaptured => Some(TraceTrigger::Panic),
        TraceEventKind::SensorDegradation => Some(TraceTrigger::SensorDegradation),
        _ => None,
    }
}

#[cfg(all(test, not(feature = "enabled")))]
mod disabled_tests {
    use super::*;

    /// Without the `enabled` feature, armed settings still give an unarmed
    /// collector that records no events and seals no box.
    #[test]
    fn disabled_build_never_arms() {
        let settings = TraceSettings {
            enabled: true,
            ..Default::default()
        };
        let mut c = TraceCollector::new(&settings);
        assert!(!c.is_armed());
        c.record(TraceRecord::default());
        let id = c.event(TraceEventKind::FaultActivated, 0, 0.0, 0, String::new());
        assert_eq!(id, 0);
        c.note_panic(1, 0.004);
        c.finalize("completed", 1, 0.004);
        assert_eq!(c.stats(), TraceStats::default());
        assert!(c.take_black_box(0, "").is_none());
    }
}

#[cfg(all(test, feature = "enabled"))]
mod tests {
    use super::*;
    use crate::wire::BlackBox;

    fn armed_settings() -> TraceSettings {
        TraceSettings {
            enabled: true,
            pre_window: 4,
            post_window: 3,
            ring_capacity: 8,
            ..Default::default()
        }
    }

    fn rec(tick: u64) -> TraceRecord {
        TraceRecord {
            tick,
            time: tick as f64 * 0.004,
            ..Default::default()
        }
    }

    #[test]
    fn disarmed_collector_produces_nothing() {
        let mut c = TraceCollector::new(&TraceSettings::default());
        assert!(!c.is_armed());
        c.record(rec(0));
        let id = c.event(TraceEventKind::FaultActivated, 0, 0.0, 0, String::new());
        assert_eq!(id, 0);
        c.finalize("completed", 1, 0.004);
        assert_eq!(c.stats(), TraceStats::default());
        assert!(c.take_black_box(0, "").is_none());
    }

    #[test]
    fn trigger_freezes_pre_and_post_window() {
        let mut c = TraceCollector::new(&armed_settings());
        for t in 0..10 {
            c.record(rec(t));
        }
        c.event(TraceEventKind::DetectorEdge, 10, 0.04, 0, String::new());
        for t in 10..20 {
            c.record(rec(t));
        }
        c.finalize("crash", 20, 0.08);
        let bb = BlackBox::decode(&c.take_black_box(7, "meta").unwrap()).unwrap();
        assert_eq!(bb.segments.len(), 1);
        let seg = &bb.segments[0];
        assert_eq!(seg.trigger, TraceTrigger::DetectorEdge);
        let ticks: Vec<u64> = seg.records.iter().map(|r| r.tick).collect();
        // 4 pre (ticks 6-9) + 3 post (ticks 10-12).
        assert_eq!(ticks, vec![6, 7, 8, 9, 10, 11, 12]);
        assert_eq!(bb.drone_id, 7);
        assert_eq!(bb.metadata, "meta");
    }

    #[test]
    fn overlapping_triggers_extend_one_segment() {
        let mut c = TraceCollector::new(&armed_settings());
        for t in 0..5 {
            c.record(rec(t));
        }
        c.event(TraceEventKind::DetectorEdge, 5, 0.02, 0, String::new());
        c.record(rec(5));
        c.event(TraceEventKind::VoterExclusion, 6, 0.024, 1, String::new());
        for t in 6..15 {
            c.record(rec(t));
        }
        let bb = BlackBox::decode(&c.take_black_box(0, "").unwrap()).unwrap();
        assert_eq!(bb.segments.len(), 1, "overlap must coalesce");
        assert_eq!(bb.events.len(), 2);
    }

    #[test]
    fn causal_chain_links_fault_to_outcome() {
        let mut c = TraceCollector::new(&armed_settings());
        let f = c.event(
            TraceEventKind::FaultActivated,
            100,
            0.4,
            0,
            "freeze".to_string(),
        );
        let d = c.event(TraceEventKind::DetectorEdge, 120, 0.48, 0, String::new());
        let m = c.event(
            TraceEventKind::CascadeTransition,
            130,
            0.52,
            4,
            "to failsafe".to_string(),
        );
        c.finalize("failsafe", 140, 0.56);
        let bb = BlackBox::decode(&c.take_black_box(0, "").unwrap()).unwrap();
        let by_id = |id: u32| bb.events.iter().find(|e| e.id == id).unwrap();
        assert_eq!(by_id(f).caused_by, None);
        assert_eq!(by_id(d).caused_by, Some(f));
        assert_eq!(by_id(m).caused_by, Some(d));
        let outcome = bb
            .events
            .iter()
            .find(|e| e.kind == TraceEventKind::RunOutcome)
            .unwrap();
        assert_eq!(outcome.caused_by, Some(m));
        assert_eq!(outcome.detail, "failsafe");
    }

    #[test]
    fn finalize_is_idempotent() {
        let mut c = TraceCollector::new(&armed_settings());
        c.finalize("completed", 10, 0.04);
        c.finalize("completed", 10, 0.04);
        let bb = BlackBox::decode(&c.take_black_box(0, "").unwrap()).unwrap();
        assert_eq!(bb.events.len(), 1);
    }

    #[test]
    fn unarmed_trigger_kinds_do_not_capture() {
        let settings = TraceSettings {
            triggers: vec![TraceTrigger::Failsafe],
            ..armed_settings()
        };
        let mut c = TraceCollector::new(&settings);
        for t in 0..5 {
            c.record(rec(t));
        }
        c.event(TraceEventKind::DetectorEdge, 5, 0.02, 0, String::new());
        for t in 5..10 {
            c.record(rec(t));
        }
        let bb = BlackBox::decode(&c.take_black_box(0, "").unwrap()).unwrap();
        assert!(bb.segments.is_empty());
        assert_eq!(bb.events.len(), 1);
    }

    #[test]
    fn stats_track_ring_drops_and_captures() {
        let mut c = TraceCollector::new(&armed_settings());
        for t in 0..20 {
            c.record(rec(t));
        }
        let s = c.stats();
        assert_eq!(s.records_captured, 0);
        assert_eq!(s.records_dropped, 12); // ring capacity 8
        c.event(
            TraceEventKind::FailsafeActivated,
            20,
            0.08,
            0,
            String::new(),
        );
        c.record(rec(20));
        let s = c.stats();
        assert_eq!(s.records_captured, 4 + 1); // pre window + 1 post
        assert_eq!(s.segments, 1);
    }
}
