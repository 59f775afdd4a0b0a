//! The steady-state tick's heap traffic: a vehicle flying its mission
//! samples, corrupts and votes on its IMU bank, and an armed black box
//! records it and runs the detection ensemble, without allocating.
//!
//! A counting global allocator counts only while the calling thread has
//! switched counting on, so tests running beside these on other threads
//! do not disturb the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use imufit::prelude::*;
use imufit::trace::{TraceEventKind, TraceTrigger};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn note_allocation() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` unchanged; the counter is a
// side effect that neither allocates nor touches the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller's guarantees on `layout` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Flies `sim` to `warm_s`, then flies `ticks` more ticks and returns the
/// most allocations this thread made in any one of them. Left out are the
/// once-per-second ticks, which only append a point to the track
/// (bookkeeping, not the 250 Hz path), and, on a traced flight, ticks that
/// record an event or fill an open capture window: those copy records
/// and detail strings into the black box by design.
fn max_allocations_per_tick(sim: &mut FlightSimulator, warm_s: f64, ticks: u32) -> u64 {
    while sim.time() < warm_s {
        sim.step();
    }
    let mut worst = 0;
    let mut sensor_ticks = 0;
    for _ in 0..ticks {
        let track_len = sim.recorder().len();
        let capture = |sim: &FlightSimulator| {
            let stats = sim.trace_stats();
            (stats.records_captured, stats.events)
        };
        let trace = capture(sim);
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        COUNTING.with(|c| c.set(true));
        sim.step();
        COUNTING.with(|c| c.set(false));
        let made = ALLOCATIONS.load(Ordering::Relaxed) - before;
        if sim.recorder().len() == track_len && capture(sim) == trace {
            worst = worst.max(made);
            sensor_ticks += 1;
        }
    }
    assert!(sensor_ticks > ticks * 9 / 10, "too few plain ticks counted");
    worst
}

#[test]
fn steady_state_ticks_do_not_allocate() {
    let mission = &all_missions()[0];

    // Gold flight, three IMUs, cruising.
    let config = SimConfig::default_for(mission, 2024);
    assert_eq!(config.imu_redundancy, 3);
    let mut gold = FlightSimulator::new(mission, Vec::new(), config);
    let worst = max_allocations_per_tick(&mut gold, 30.0, 2_500);
    assert_eq!(worst, 0, "gold flight: a tick made {worst} allocations");

    // Faulted flight: noise on instance 0 only, so the injector corrupts
    // one instance every tick and the voter votes over a trusted subset
    // after excluding it.
    let mut config = SimConfig::default_for(mission, 2024);
    config.faults_affect_all_redundant = false;
    let fault = FaultSpec::new(
        FaultKind::Noise,
        FaultTarget::Imu,
        InjectionWindow::new(20.0, 60.0),
    );
    let mut faulted = FlightSimulator::new(mission, vec![fault], config.clone());
    let worst = max_allocations_per_tick(&mut faulted, 30.0, 2_500);
    assert_eq!(worst, 0, "faulted flight: a tick made {worst} allocations");

    // Its traced twin, with the default triggers `--trace-dir` arms: the
    // ring records every tick and the detection ensemble runs for the
    // detector-edge trigger. Tracing never feeds back into flight state,
    // so the twin flies the same flight, and its black box shows the
    // voter excluded the noisy instance.
    config.trace.enabled = true;
    assert!(config.trace.triggers_on(TraceTrigger::DetectorEdge));
    let mut twin = FlightSimulator::new(mission, vec![fault], config);
    let worst = max_allocations_per_tick(&mut twin, 30.0, 2_500);
    assert_eq!(worst, 0, "traced flight: a tick made {worst} allocations");
    assert_eq!(twin.time(), faulted.time());
    let bytes = twin
        .take_black_box("twin")
        .expect("traced twin seals a box");
    let events = BlackBox::decode(&bytes).expect("box decodes").events;
    assert!(
        events
            .iter()
            .any(|e| e.kind == TraceEventKind::VoterExclusion),
        "the voter must have excluded the noisy instance"
    );
}
