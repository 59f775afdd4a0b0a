//! Tick-stage statistical profiler: where the simulated tick's wall-clock
//! actually goes. It is the simulator's only tick-stage clock.
//!
//! The tick pipeline runs its stages in a fixed order (sensors → faults
//! → voter → estimator → controller → dynamics); this module samples every
//! Nth tick per thread (default [`DEFAULT_SAMPLE_PERIOD`]) and, on sampled
//! ticks only, timestamps each stage seam. Each stage's self-time goes
//! into the registry histogram `sim_stage_<name>_seconds` and the whole
//! sampled tick into `sim_tick_seconds`; those histograms are the
//! profiler's only store, so [`report`] and a `/metrics` scrape read the
//! same numbers. Unsampled ticks pay one thread-local counter increment
//! and a branch and read no clock, which is what keeps the profiler cheap
//! enough to leave on (the `sim/tick_obs_on` vs `sim/tick_obs_off` bench
//! pair holds the whole obs layer's tick cost under 2%).
//!
//! Because one `Instant::now()` closes a stage and opens the next, the
//! per-stage self-times tile the sampled tick exactly: the accounted
//! fraction ([`accounted_fraction`]) answers "EKF predict is N% of the
//! tick" with data. [`folded`] renders the totals as folded-stack lines
//! (`tick;estimator 123456`) for flamegraph tooling.
//!
//! The only switch is the metric runtime kill-switch
//! ([`crate::set_runtime_enabled`]). Like every obs facility the profiler
//! is write-only with respect to the simulation — it reads clocks and
//! writes its own histograms, never simulation state or RNG streams.
//! Without the `enabled` feature the runtime check is a constant `false`
//! and the histograms never register, so every seam compiles away.

/// One stage of the tick pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Clock advance + wind field step.
    Env = 0,
    /// Body-truth read + IMU bank sampling (and aiding-sensor cadences).
    Sensors = 1,
    /// IMU fault bank injection + sensor-attack schedules.
    Faults = 2,
    /// Consensus voter pass.
    Voter = 3,
    /// Estimator predict + sensor fusion.
    Estimator = 4,
    /// Mitigation, cascade and controller update.
    Controller = 5,
    /// Rigid-body dynamics step.
    Dynamics = 6,
    /// Tracking, conflict bookkeeping and end-of-flight classification.
    Bookkeeping = 7,
}

/// Number of stages in [`Stage`].
pub const STAGE_COUNT: usize = 8;

/// Stage names, indexed by `Stage as usize` (folded-stack frame names).
pub const STAGE_NAMES: [&str; STAGE_COUNT] = [
    "env",
    "sensors",
    "faults",
    "voter",
    "estimator",
    "controller",
    "dynamics",
    "bookkeeping",
];

/// Default sampling period: one tick in 64 is timed.
pub const DEFAULT_SAMPLE_PERIOD: u64 = 64;

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use crate::{buckets, histogram, Histogram};

static SAMPLE_PERIOD: AtomicU64 = AtomicU64::new(DEFAULT_SAMPLE_PERIOD);

thread_local! {
    static TICK_COUNTER: Cell<u64> = const { Cell::new(0) };
}

/// The profiler's only accumulators: one registry histogram per stage
/// (`sim_stage_<name>_seconds`) and the whole sampled tick
/// (`sim_tick_seconds`). Registered once, on the first sampled tick or
/// read.
struct StageClock {
    stages: [Histogram; STAGE_COUNT],
    tick: Histogram,
}

fn clock() -> &'static StageClock {
    static CLOCK: OnceLock<StageClock> = OnceLock::new();
    CLOCK.get_or_init(|| StageClock {
        stages: STAGE_NAMES
            .map(|name| histogram(&format!("sim_stage_{name}_seconds"), buckets::LATENCY_S)),
        tick: histogram("sim_tick_seconds", buckets::LATENCY_S),
    })
}

/// A histogram's summed seconds as whole nanoseconds.
fn nanos(hist: &Histogram) -> u64 {
    (hist.sum() * 1e9).round() as u64
}

/// Sets the per-thread sampling period (clamped to ≥1). Period 1 times
/// every tick — used by tests to prove the stage seams tile the tick.
pub fn set_sample_period(period: u64) {
    SAMPLE_PERIOD.store(period.max(1), Ordering::Relaxed);
}

/// An open tick sample. `None` inside means this tick was not sampled
/// (the common case): every method is then a no-op.
#[derive(Debug)]
pub struct TickGuard {
    active: Option<ActiveTick>,
}

#[derive(Debug)]
struct ActiveTick {
    tick_start: Instant,
    mark: Instant,
    stage: usize,
}

impl ActiveTick {
    /// Records the time since the previous seam against the open stage.
    fn close_stage(&self, clock: &StageClock, now: Instant) {
        clock.stages[self.stage].observe(now.duration_since(self.mark).as_secs_f64());
    }
}

/// Opens a tick. On the sampled ticks (every Nth per thread, and only
/// while the metric runtime is enabled) the guard timestamps stage seams;
/// otherwise it is inert and reads no clock.
pub fn tick_begin() -> TickGuard {
    if !crate::runtime_enabled() {
        return TickGuard { active: None };
    }
    let sampled = TICK_COUNTER.with(|c| {
        let n = c.get().wrapping_add(1);
        c.set(n);
        n % SAMPLE_PERIOD.load(Ordering::Relaxed) == 0
    });
    if !sampled {
        return TickGuard { active: None };
    }
    let now = Instant::now();
    TickGuard {
        active: Some(ActiveTick {
            tick_start: now,
            mark: now,
            stage: Stage::Env as usize,
        }),
    }
}

impl TickGuard {
    /// Marks a stage seam: the time since the previous mark is
    /// attributed to the stage that just ended, and `stage` begins.
    /// One clock read closes and opens, so stages tile the tick with
    /// no gaps.
    #[inline]
    pub fn stage(&mut self, stage: Stage) {
        if let Some(active) = &mut self.active {
            let now = Instant::now();
            active.close_stage(clock(), now);
            active.mark = now;
            active.stage = stage as usize;
        }
    }
}

impl Drop for TickGuard {
    fn drop(&mut self) {
        if let Some(active) = self.active.take() {
            let now = Instant::now();
            let clock = clock();
            active.close_stage(clock, now);
            clock
                .tick
                .observe(now.duration_since(active.tick_start).as_secs_f64());
        }
    }
}

/// Per-stage sampled self-time, `(name, nanos)`, stage order.
pub fn report() -> Vec<(&'static str, u64)> {
    STAGE_NAMES.into_iter().zip(stage_nanos()).collect()
}

/// Raw per-stage nanos, for delta-based attribution (fleet workers
/// snapshot before/after a unit).
pub fn stage_nanos() -> [u64; STAGE_COUNT] {
    clock().stages.each_ref().map(nanos)
}

/// Total wall-clock of all sampled ticks, nanoseconds.
pub fn sampled_tick_nanos() -> u64 {
    nanos(&clock().tick)
}

/// Number of ticks that were sampled.
pub fn sampled_ticks() -> u64 {
    clock().tick.count()
}

/// The fraction of sampled tick wall-clock accounted to stages. With the
/// seams tiling the tick this sits at ~1.0; anything below ~0.95 means a
/// pipeline stage is running outside the marked seams.
pub fn accounted_fraction() -> f64 {
    let total = sampled_tick_nanos();
    if total == 0 {
        return 0.0;
    }
    let stages: u64 = report().iter().map(|(_, n)| n).sum();
    stages as f64 / total as f64
}

/// Renders the accumulated self-times as folded-stack lines
/// (`tick;<stage> <nanos>`), the input format of flamegraph tooling.
/// Zero-time stages are omitted.
pub fn folded() -> String {
    let mut out = String::new();
    for (name, nanos) in report() {
        if nanos > 0 {
            out.push_str(&format!("tick;{name} {nanos}\n"));
        }
    }
    out
}

/// Renders a human percentage table of per-stage self-time, largest first.
pub fn render_table() -> String {
    let total = sampled_tick_nanos();
    let ticks = sampled_ticks();
    let mut out = String::new();
    if total == 0 || ticks == 0 {
        out.push_str("tick profile: no sampled ticks\n");
        return out;
    }
    out.push_str(&format!(
        "tick profile: {} sampled ticks, mean {:.2} us/tick, {:.1}% accounted\n",
        ticks,
        total as f64 / ticks as f64 / 1e3,
        accounted_fraction() * 100.0
    ));
    let mut stages = report();
    stages.sort_by_key(|&(_, nanos)| std::cmp::Reverse(nanos));
    for (name, nanos) in stages {
        if nanos == 0 {
            continue;
        }
        out.push_str(&format!(
            "  {:<12} {:>6.1}%  {:>8.2} us/tick\n",
            name,
            nanos as f64 / total as f64 * 100.0,
            nanos as f64 / ticks as f64 / 1e3
        ));
    }
    out
}

#[cfg(all(test, feature = "enabled"))]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Global accumulators; tests must not interleave.
    static SERIAL: Mutex<()> = Mutex::new(());

    /// `(sampled ticks, sampled tick nanos, summed stage nanos)` so far;
    /// tests assert on the difference of two readings.
    fn totals() -> (u64, u64, u64) {
        (
            sampled_ticks(),
            sampled_tick_nanos(),
            stage_nanos().iter().sum(),
        )
    }

    #[test]
    fn sampled_stages_tile_the_tick() {
        let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let (ticks0, tick_ns0, stage_ns0) = totals();
        set_sample_period(1);
        for _ in 0..50 {
            let mut guard = tick_begin();
            guard.stage(Stage::Sensors);
            std::hint::black_box((0..100).sum::<u64>());
            guard.stage(Stage::Estimator);
            std::hint::black_box((0..300).sum::<u64>());
            guard.stage(Stage::Dynamics);
            std::hint::black_box((0..100).sum::<u64>());
        }
        let (ticks1, tick_ns1, stage_ns1) = totals();
        assert_eq!(ticks1 - ticks0, 50);
        let fraction = (stage_ns1 - stage_ns0) as f64 / (tick_ns1 - tick_ns0) as f64;
        assert!(
            fraction > 0.99 && fraction < 1.01,
            "stages must tile the tick: accounted {fraction}"
        );
        let folded = folded();
        assert!(folded.contains("tick;estimator "), "{folded}");
        let table = render_table();
        assert!(table.contains("estimator"), "{table}");
        set_sample_period(DEFAULT_SAMPLE_PERIOD);
    }

    #[test]
    fn unsampled_ticks_record_nothing() {
        let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let before = totals();
        set_sample_period(1_000_000);
        // Fresh thread: its tick counter starts at zero, so none of these
        // ticks hit the sampling period.
        std::thread::spawn(|| {
            for _ in 0..100 {
                let mut guard = tick_begin();
                guard.stage(Stage::Dynamics);
            }
        })
        .join()
        .unwrap();
        assert_eq!(totals(), before);
        set_sample_period(DEFAULT_SAMPLE_PERIOD);
    }
}
