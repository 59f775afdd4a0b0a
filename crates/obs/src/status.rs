//! The global status board backing the `/status` endpoint.
//!
//! Campaign runners and the fleet coordinator push coarse progress here —
//! units done / total, per-worker lease and busy-time state — and the
//! embedded HTTP server renders it as hand-rolled JSON. Like the metric
//! registry, the board is strictly write-only from the simulation's point
//! of view and every mutator early-returns when the runtime kill-switch
//! is thrown, so it cannot perturb campaign results.

use std::collections::BTreeMap;
use std::sync::OnceLock;
use std::time::Instant;

use parking_lot::Mutex;

use crate::{escape_json, runtime_enabled};

#[derive(Debug, Default, Clone)]
struct WorkerStatus {
    leases_held: u64,
    units_done: u64,
    busy_ms: u64,
    last_seen_ms: u64,
}

#[derive(Debug, Default)]
struct BoardInner {
    campaign: String,
    total: u64,
    done: u64,
    started: Option<Instant>,
    workers: BTreeMap<u32, WorkerStatus>,
}

/// Coarse live campaign state: progress, ETA inputs, per-worker activity.
#[derive(Debug, Default)]
pub struct StatusBoard {
    inner: Mutex<BoardInner>,
}

/// The process-wide status board.
pub fn board() -> &'static StatusBoard {
    static BOARD: OnceLock<StatusBoard> = OnceLock::new();
    BOARD.get_or_init(StatusBoard::default)
}

impl StatusBoard {
    /// Starts a new campaign: resets progress and forgets prior workers.
    /// `done` seeds the counter for resumed campaigns.
    pub fn begin_campaign(&self, name: &str, total: u64, done: u64) {
        if !runtime_enabled() {
            return;
        }
        let mut inner = self.inner.lock();
        inner.campaign = name.to_string();
        inner.total = total;
        inner.done = done;
        inner.started = Some(Instant::now());
        inner.workers.clear();
    }

    /// Grows the units-total counter without resetting progress or
    /// workers — the campaign-service pool admits campaigns while others
    /// are still flying.
    pub fn grow_campaign(&self, added_units: u64) {
        if !runtime_enabled() {
            return;
        }
        let mut inner = self.inner.lock();
        inner.total += added_units;
        if inner.started.is_none() {
            inner.started = Some(Instant::now());
        }
    }

    /// Updates the units-done counter.
    pub fn set_progress(&self, done: u64) {
        if !runtime_enabled() {
            return;
        }
        self.inner.lock().done = done;
    }

    /// Records a sighting of `worker`: leases currently held, cumulative
    /// units completed and busy wall-clock.
    pub fn worker_seen(&self, worker: u32, leases_held: u64, units_done: u64, busy_ms: u64) {
        if !runtime_enabled() {
            return;
        }
        let mut inner = self.inner.lock();
        let elapsed = inner
            .started
            .map(|s| s.elapsed().as_millis() as u64)
            .unwrap_or(0);
        let entry = inner.workers.entry(worker).or_default();
        entry.leases_held = leases_held;
        entry.units_done = units_done;
        entry.busy_ms = busy_ms;
        entry.last_seen_ms = elapsed;
    }

    /// Renders the board as a JSON document (hand-rolled, like the rest of
    /// the crate's exports): campaign name, progress, elapsed/ETA seconds
    /// and a per-worker array.
    pub fn render_json(&self) -> String {
        let inner = self.inner.lock();
        let elapsed_s = inner
            .started
            .map(|s| s.elapsed().as_secs_f64())
            .unwrap_or(0.0);
        let eta = if inner.done > 0 && inner.total > inner.done {
            format!(
                "{:.1}",
                elapsed_s * (inner.total - inner.done) as f64 / inner.done as f64
            )
        } else {
            "null".to_string()
        };
        let mut out = String::from("{\n");
        out.push_str(&format!(
            "  \"campaign\": \"{}\",\n",
            escape_json(&inner.campaign)
        ));
        out.push_str(&format!("  \"units_total\": {},\n", inner.total));
        out.push_str(&format!("  \"units_done\": {},\n", inner.done));
        out.push_str(&format!("  \"elapsed_s\": {elapsed_s:.1},\n"));
        out.push_str(&format!("  \"eta_s\": {eta},\n"));
        out.push_str(&format!(
            "  \"alerts\": {},\n",
            crate::alerts::board().render_summary()
        ));
        out.push_str("  \"workers\": [");
        let mut first = true;
        for (id, w) in &inner.workers {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "\n    {{\"id\": {id}, \"leases_held\": {}, \"units_done\": {}, \
                 \"busy_ms\": {}, \"last_seen_s\": {:.1}}}",
                w.leases_held,
                w.units_done,
                w.busy_ms,
                w.last_seen_ms as f64 / 1000.0
            ));
        }
        if !first {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn board_renders_progress_and_workers() {
        let b = StatusBoard::default();
        b.begin_campaign("quick", 100, 0);
        b.set_progress(25);
        b.worker_seen(1, 2, 10, 1234);
        b.worker_seen(2, 1, 15, 999);
        let json = b.render_json();
        if cfg!(feature = "enabled") {
            assert!(json.contains("\"campaign\": \"quick\""));
            assert!(json.contains("\"units_total\": 100"));
            assert!(json.contains("\"units_done\": 25"));
            assert!(json.contains("\"id\": 1"));
            assert!(json.contains("\"id\": 2"));
            assert!(json.contains("\"eta_s\": "));
        } else {
            assert!(json.contains("\"units_total\": 0"));
        }
    }

    #[test]
    fn begin_campaign_resets_stale_workers() {
        let b = StatusBoard::default();
        b.begin_campaign("one", 10, 0);
        b.worker_seen(7, 1, 1, 1);
        b.begin_campaign("two", 10, 0);
        assert!(!b.render_json().contains("\"id\": 7"));
    }
}
