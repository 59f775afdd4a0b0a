//! Time-series campaign recording: the `.ifms` file and its recorder.
//!
//! A [`Recorder`] samples a snapshot source on a fixed interval into a
//! fixed-capacity ring (oldest samples evicted), so memory is bounded no
//! matter how long a campaign runs. At campaign end the ring is flushed
//! to a CRC-framed `.ifms` file:
//!
//! ```text
//! [b"IFMS"] [version u8] [started_unix_ms u64] [frame count u32]
//! frame := [t_offset_ms u64] [len u32] [snapshot bytes] [crc16]
//! ```
//!
//! Each frame's checksum covers its offset, length and payload, and the
//! snapshot payload carries its own inner checksum, so a torn tail or a
//! flipped bit is detected per frame (the shared [`imufit_math::frame`]
//! codec; DESIGN.md §19). `triage metrics` decodes the series
//! and renders rates and derivatives (runs/sec over time, lease-expiry
//! bursts, tick-latency drift) via [`render_rates`].

use std::collections::VecDeque;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use imufit_math::frame::{crc16, Cursor, Put};
use parking_lot::Mutex;

use crate::snapshot::{Snapshot, SnapshotError};

/// Magic bytes opening a `.ifms` file.
pub const SERIES_MAGIC: &[u8; 4] = b"IFMS";

/// Current `.ifms` format version.
pub const SERIES_VERSION: u8 = 1;

/// Largest accepted frame payload on decode.
const MAX_FRAME_BYTES: usize = crate::snapshot::MAX_SNAPSHOT_BYTES;

/// A decoded (or recorded) metrics time series: snapshots at millisecond
/// offsets from the campaign start.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TimeSeries {
    /// Wall-clock campaign start (unix milliseconds) — for report headers.
    pub started_unix_ms: u64,
    /// `(offset_ms, snapshot)` pairs in capture order.
    pub frames: Vec<(u64, Snapshot)>,
}

impl TimeSeries {
    /// Encodes the series as a `.ifms` byte stream.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(SERIES_MAGIC);
        buf.put_u8(SERIES_VERSION);
        buf.put_u64(self.started_unix_ms);
        buf.put_u32(self.frames.len() as u32);
        for (offset_ms, snapshot) in &self.frames {
            let start = buf.len();
            let payload = snapshot.encode();
            buf.put_u64(*offset_ms);
            buf.put_u32(payload.len() as u32);
            buf.extend_from_slice(&payload);
            let crc = crc16(&buf[start..]);
            buf.put_u16(crc);
        }
        buf
    }

    /// Decodes a `.ifms` byte stream; typed errors, never panics.
    pub fn decode(bytes: &[u8]) -> Result<TimeSeries, SnapshotError> {
        let mut r = Cursor::new(bytes);
        if r.bytes(4)? != SERIES_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = r.u8()?;
        if version != SERIES_VERSION {
            return Err(SnapshotError::UnknownVersion(version));
        }
        let started_unix_ms = r.u64()?;
        let count = r.u32()? as usize;
        if count > 1 << 20 {
            return Err(SnapshotError::Malformed("frame count oversized"));
        }
        let mut frames = Vec::with_capacity(count.min(4096));
        for _ in 0..count {
            let start = r.position();
            let offset_ms = r.u64()?;
            let len = r.u32()? as usize;
            if len > MAX_FRAME_BYTES {
                return Err(SnapshotError::Malformed("frame oversized"));
            }
            let payload = r.bytes(len)?;
            r.check_crc(start)?;
            frames.push((offset_ms, Snapshot::decode(payload)?));
        }
        r.finish("trailing bytes")?;
        Ok(TimeSeries {
            started_unix_ms,
            frames,
        })
    }

    /// Reads and decodes a `.ifms` file.
    pub fn read(path: &Path) -> Result<TimeSeries, SnapshotError> {
        let bytes = std::fs::read(path).map_err(|_| SnapshotError::Truncated)?;
        TimeSeries::decode(&bytes)
    }
}

/// Samples snapshots on an interval into a bounded ring.
#[derive(Debug)]
pub struct Recorder {
    stop: Arc<AtomicBool>,
    state: Arc<RecorderState>,
    handle: Option<JoinHandle<()>>,
}

#[derive(Debug)]
struct RecorderState {
    started: Instant,
    started_unix_ms: u64,
    capacity: usize,
    ring: Mutex<VecDeque<(u64, Snapshot)>>,
}

impl RecorderState {
    fn push(&self, sampler: &(dyn Fn() -> Snapshot + Send + Sync)) {
        let offset_ms = self.started.elapsed().as_millis() as u64;
        let snap = sampler();
        let mut ring = self.ring.lock();
        while ring.len() >= self.capacity {
            ring.pop_front();
        }
        ring.push_back((offset_ms, snap));
    }
}

impl Recorder {
    /// Starts sampling `sampler` every `interval` into a ring of at most
    /// `capacity` snapshots.
    pub fn start(
        interval: Duration,
        capacity: usize,
        sampler: Arc<dyn Fn() -> Snapshot + Send + Sync>,
    ) -> Recorder {
        let stop = Arc::new(AtomicBool::new(false));
        let state = Arc::new(RecorderState {
            started: Instant::now(),
            started_unix_ms: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map(|d| d.as_millis() as u64)
                .unwrap_or(0),
            capacity: capacity.max(1),
            ring: Mutex::new(VecDeque::new()),
        });
        let stop_flag = Arc::clone(&stop);
        let thread_state = Arc::clone(&state);
        let handle = std::thread::Builder::new()
            .name("obs-recorder".into())
            .spawn(move || {
                // However short the interval, one sample per 25 ms at most.
                let interval = interval.max(Duration::from_millis(25));
                let mut next = Instant::now() + interval;
                // Parks until the next sample is due; a stop unparks it.
                while !stop_flag.load(Ordering::SeqCst) {
                    let left = next.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        thread_state.push(sampler.as_ref());
                        next += interval;
                    } else {
                        std::thread::park_timeout(left);
                    }
                }
                // Final sample so short campaigns always leave a series.
                thread_state.push(sampler.as_ref());
            })
            .expect("spawn obs-recorder thread");
        Recorder {
            stop,
            state,
            handle: Some(handle),
        }
    }

    /// Stops sampling (taking one final sample) and returns the recorded
    /// series.
    pub fn stop_into_series(mut self) -> TimeSeries {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.handle.take() {
            handle.thread().unpark();
            let _ = handle.join();
        }
        let ring = self.state.ring.lock();
        TimeSeries {
            started_unix_ms: self.state.started_unix_ms,
            frames: ring.iter().cloned().collect(),
        }
    }
}

impl Drop for Recorder {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.handle.take() {
            handle.thread().unpark();
            let _ = handle.join();
        }
    }
}

/// Renders a `.ifms` series as a rates/derivatives report for
/// `triage metrics`: per-sample runs/sec (with a spark bar), lease-expiry
/// deltas and sim-tick latency drift.
pub fn render_rates(series: &TimeSeries) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "metrics time series: {} samples, started unix_ms {}\n",
        series.frames.len(),
        series.started_unix_ms
    ));
    if series.frames.is_empty() {
        out.push_str("  (empty series)\n");
        return out;
    }
    let max_rate = {
        let mut max = 0.0f64;
        let mut prev: Option<(u64, u64)> = None;
        for (t, snap) in &series.frames {
            let runs = snap.counter_total("campaign_runs_total");
            if let Some((pt, pr)) = prev {
                let dt = (t.saturating_sub(pt)) as f64 / 1000.0;
                if dt > 0.0 {
                    max = max.max(runs.saturating_sub(pr) as f64 / dt);
                }
            }
            prev = Some((*t, runs));
        }
        max
    };
    out.push_str("      t(s)      runs   runs/sec   lease-exp   tick p50(us)   tick p99(us)\n");
    let mut prev: Option<(u64, u64, u64)> = None;
    for (t, snap) in &series.frames {
        let runs = snap.counter_total("campaign_runs_total");
        let expiries = snap.counter_total("fleet_lease_expiries_total");
        let (rate, d_exp) = match prev {
            Some((pt, pr, pe)) => {
                let dt = (t.saturating_sub(pt)) as f64 / 1000.0;
                let rate = if dt > 0.0 {
                    runs.saturating_sub(pr) as f64 / dt
                } else {
                    0.0
                };
                (rate, expiries.saturating_sub(pe))
            }
            None => (0.0, 0),
        };
        let p50 = snap
            .histogram_quantile("sim_tick_seconds", 0.5)
            .map(|s| format!("{:.1}", s * 1e6))
            .unwrap_or_else(|| "-".into());
        let p99 = snap
            .histogram_quantile("sim_tick_seconds", 0.99)
            .map(|s| format!("{:.1}", s * 1e6))
            .unwrap_or_else(|| "-".into());
        let bar_len = if max_rate > 0.0 {
            ((rate / max_rate) * 20.0).round() as usize
        } else {
            0
        };
        out.push_str(&format!(
            "  {:>8.1}  {:>8}  {:>9.2}  {:>10}  {:>13}  {:>13}  {}\n",
            *t as f64 / 1000.0,
            runs,
            rate,
            d_exp,
            p50,
            p99,
            "#".repeat(bar_len)
        ));
        prev = Some((*t, runs, expiries));
    }
    let last = &series.frames[series.frames.len() - 1];
    let span_s = last.0 as f64 / 1000.0;
    let total_runs = last.1.counter_total("campaign_runs_total");
    if span_s > 0.0 {
        out.push_str(&format!(
            "  overall: {} runs in {:.1}s ({:.2} runs/sec)\n",
            total_runs,
            span_s,
            total_runs as f64 / span_s
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{SnapshotMetric, SnapshotValue};

    fn snap_with_runs(runs: u64) -> Snapshot {
        Snapshot {
            metrics: vec![SnapshotMetric {
                name: "campaign_runs_total".into(),
                labels: vec![],
                value: SnapshotValue::Counter(runs),
            }],
        }
    }

    #[test]
    fn series_round_trips() {
        let series = TimeSeries {
            started_unix_ms: 1_700_000_000_000,
            frames: vec![(0, snap_with_runs(0)), (1000, snap_with_runs(7))],
        };
        assert_eq!(TimeSeries::decode(&series.encode()).unwrap(), series);
    }

    #[test]
    fn recorder_samples_and_bounds_the_ring() {
        let counter = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let c = Arc::clone(&counter);
        let recorder = Recorder::start(
            Duration::from_millis(30),
            3,
            Arc::new(move || snap_with_runs(c.fetch_add(1, Ordering::Relaxed))),
        );
        std::thread::sleep(Duration::from_millis(250));
        let series = recorder.stop_into_series();
        assert!(!series.frames.is_empty());
        assert!(series.frames.len() <= 3, "ring exceeded capacity");
        // Offsets are monotone.
        for pair in series.frames.windows(2) {
            assert!(pair[0].0 <= pair[1].0);
        }
    }

    #[test]
    fn rates_report_shows_runs_per_sec() {
        let series = TimeSeries {
            started_unix_ms: 0,
            frames: vec![
                (0, snap_with_runs(0)),
                (1000, snap_with_runs(10)),
                (2000, snap_with_runs(30)),
            ],
        };
        let report = render_rates(&series);
        assert!(report.contains("runs/sec"));
        assert!(report.contains("20.00"), "report:\n{report}");
        assert!(report.contains("overall: 30 runs"));
    }
}
