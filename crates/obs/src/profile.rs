//! Tick-stage statistical profiler: where the simulated tick's wall-clock
//! actually goes.
//!
//! The tick pipeline runs its stages in a fixed order (sensors → faults
//! → voter → estimator → controller → dynamics); this module samples every
//! Nth tick per thread (default [`DEFAULT_SAMPLE_PERIOD`]) and, on sampled
//! ticks only, timestamps each stage seam and accumulates the deltas into
//! global per-stage self-time counters. Unsampled ticks pay one
//! thread-local counter increment and a branch, which is what keeps the
//! profiler cheap enough to leave on (<2% tick overhead, proven by the
//! `sim/profiled_tick` bench).
//!
//! Because one `Instant::now()` closes a stage and opens the next, the
//! per-stage self-times tile the sampled tick exactly: the accounted
//! fraction ([`accounted_fraction`]) answers "EKF predict is N% of the
//! tick" with data. [`folded`] renders the totals as folded-stack lines
//! (`tick;estimator 123456`) for flamegraph tooling.
//!
//! Like every obs facility the profiler is write-only with respect to the
//! simulation — it reads clocks and writes its own atomics, never
//! simulation state or RNG streams — and compiles to zero-sized no-ops
//! without the `enabled` feature.

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

#[cfg(feature = "enabled")]
mod real {
    use super::{Stage, DEFAULT_SAMPLE_PERIOD, STAGE_COUNT, STAGE_NAMES};
    use std::cell::Cell;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::time::Instant;

    static ENABLED: AtomicBool = AtomicBool::new(true);
    static SAMPLE_PERIOD: AtomicU64 = AtomicU64::new(DEFAULT_SAMPLE_PERIOD);
    static STAGE_NANOS: [AtomicU64; STAGE_COUNT] = [
        AtomicU64::new(0),
        AtomicU64::new(0),
        AtomicU64::new(0),
        AtomicU64::new(0),
        AtomicU64::new(0),
        AtomicU64::new(0),
        AtomicU64::new(0),
        AtomicU64::new(0),
    ];
    static SAMPLED_TICK_NANOS: AtomicU64 = AtomicU64::new(0);
    static SAMPLED_TICKS: AtomicU64 = AtomicU64::new(0);

    thread_local! {
        static TICK_COUNTER: Cell<u64> = const { Cell::new(0) };
    }

    /// Turns the profiler on or off at runtime (independent of the metric
    /// kill-switch so benches can isolate its overhead).
    pub fn set_enabled(on: bool) {
        ENABLED.store(on, Ordering::Relaxed);
    }

    /// Sets the per-thread sampling period (clamped to ≥1). Period 1 times
    /// every tick — used by tests to prove the stage seams tile the tick.
    pub fn set_sample_period(period: u64) {
        SAMPLE_PERIOD.store(period.max(1), Ordering::Relaxed);
    }

    /// Zeroes every accumulator (tests and benches).
    pub fn reset() {
        for slot in &STAGE_NANOS {
            slot.store(0, Ordering::Relaxed);
        }
        SAMPLED_TICK_NANOS.store(0, Ordering::Relaxed);
        SAMPLED_TICKS.store(0, Ordering::Relaxed);
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

    /// Opens a tick. On the sampled ticks (every Nth per thread, and only
    /// while the profiler and the global metric runtime are enabled) the
    /// guard timestamps stage seams; otherwise it is inert.
    pub fn tick_begin() -> TickGuard {
        if !ENABLED.load(Ordering::Relaxed) || !crate::runtime_enabled() {
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
                STAGE_NANOS[active.stage].fetch_add(
                    now.duration_since(active.mark).as_nanos() as u64,
                    Ordering::Relaxed,
                );
                active.mark = now;
                active.stage = stage as usize;
            }
        }
    }

    impl Drop for TickGuard {
        fn drop(&mut self) {
            if let Some(active) = self.active.take() {
                let now = Instant::now();
                STAGE_NANOS[active.stage].fetch_add(
                    now.duration_since(active.mark).as_nanos() as u64,
                    Ordering::Relaxed,
                );
                SAMPLED_TICK_NANOS.fetch_add(
                    now.duration_since(active.tick_start).as_nanos() as u64,
                    Ordering::Relaxed,
                );
                SAMPLED_TICKS.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Per-stage sampled self-time, `(name, nanos)`, stage order.
    pub fn report() -> Vec<(&'static str, u64)> {
        STAGE_NAMES
            .iter()
            .zip(&STAGE_NANOS)
            .map(|(name, nanos)| (*name, nanos.load(Ordering::Relaxed)))
            .collect()
    }

    /// Raw per-stage nanos, for delta-based attribution (fleet workers
    /// snapshot before/after a unit).
    pub fn stage_nanos() -> [u64; STAGE_COUNT] {
        let mut out = [0u64; STAGE_COUNT];
        for (slot, cell) in out.iter_mut().zip(&STAGE_NANOS) {
            *slot = cell.load(Ordering::Relaxed);
        }
        out
    }

    /// Total wall-clock of all sampled ticks, nanoseconds.
    pub fn sampled_tick_nanos() -> u64 {
        SAMPLED_TICK_NANOS.load(Ordering::Relaxed)
    }

    /// Number of ticks that were sampled.
    pub fn sampled_ticks() -> u64 {
        SAMPLED_TICKS.load(Ordering::Relaxed)
    }
}

#[cfg(feature = "enabled")]
pub use real::{
    report, reset, sampled_tick_nanos, sampled_ticks, set_enabled, set_sample_period, stage_nanos,
    tick_begin, TickGuard,
};

#[cfg(not(feature = "enabled"))]
mod noop {
    use super::{Stage, STAGE_COUNT};

    /// No-op tick sample.
    #[derive(Debug)]
    pub struct TickGuard;

    impl TickGuard {
        /// Discards the seam.
        #[inline(always)]
        pub fn stage(&mut self, _stage: Stage) {}
    }

    /// No-op tick open.
    #[inline(always)]
    pub fn tick_begin() -> TickGuard {
        TickGuard
    }

    /// No-op enable toggle.
    #[inline(always)]
    pub fn set_enabled(_on: bool) {}

    /// No-op period setter.
    #[inline(always)]
    pub fn set_sample_period(_period: u64) {}

    /// No-op reset.
    #[inline(always)]
    pub fn reset() {}

    /// Always empty without the `enabled` feature.
    #[inline(always)]
    pub fn report() -> Vec<(&'static str, u64)> {
        Vec::new()
    }

    /// Always zero without the `enabled` feature.
    #[inline(always)]
    pub fn stage_nanos() -> [u64; STAGE_COUNT] {
        [0; STAGE_COUNT]
    }

    /// Always zero without the `enabled` feature.
    #[inline(always)]
    pub fn sampled_tick_nanos() -> u64 {
        0
    }

    /// Always zero without the `enabled` feature.
    #[inline(always)]
    pub fn sampled_ticks() -> u64 {
        0
    }
}

#[cfg(not(feature = "enabled"))]
pub use noop::{
    report, reset, sampled_tick_nanos, sampled_ticks, set_enabled, set_sample_period, stage_nanos,
    tick_begin, TickGuard,
};

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

    #[test]
    fn sampled_stages_tile_the_tick() {
        let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        reset();
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
        assert_eq!(sampled_ticks(), 50);
        let fraction = accounted_fraction();
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
        reset();
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
        assert_eq!(sampled_ticks(), 0);
        assert_eq!(sampled_tick_nanos(), 0);
        set_sample_period(DEFAULT_SAMPLE_PERIOD);
    }

    #[test]
    fn disabled_profiler_is_inert() {
        let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        set_enabled(false);
        set_sample_period(1);
        for _ in 0..10 {
            let mut guard = tick_begin();
            guard.stage(Stage::Voter);
        }
        assert_eq!(sampled_ticks(), 0);
        set_enabled(true);
        set_sample_period(DEFAULT_SAMPLE_PERIOD);
    }
}
