//! Allocation counts instead of wall clocks: after a warm-up, an α-search
//! allocates nothing per probe. A counting global allocator tallies the
//! allocations each thread makes, and a short search (`tol` 1e-1) and a
//! long one (`tol` 1e-9) over the same warmed engine must allocate equally
//! often, although the long one runs first-fit many more times (600
//! tasks on 64 machines, EDF and RMS-LL).

use hetfeas_model::rng::Rng;
use hetfeas_model::{Platform, Task, TaskSet};
use hetfeas_obs::MemorySink;
use hetfeas_partition::metrics as pm;
use hetfeas_partition::{EdfAdmission, FirstFitEngine, IndexableAdmission, RmsLlAdmission};
use hetfeas_robust::Gas;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting every allocation and reallocation the
/// calling thread makes.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // A thread being torn down has no counter left; it is not measured.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments,
// so `System` upholds the `GlobalAlloc` contract; the counting before it
// touches only a const-initialized thread-local `Cell`, which never
// allocates, so the allocator is not re-entered.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations this thread made while running `f`, and its result.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

/// 600 tasks of utilization up to 1/2 on 64 machines of speed 1..=3:
/// about 150 units of load on about 128 units of speed, so every search
/// has to bisect above α = 1.
fn system() -> (TaskSet, Platform) {
    let mut rng = Rng::new(0xA110_C8ED);
    let tasks = (0..600)
        .map(|_| Task::implicit(1 + rng.below(50), 100).expect("valid task"))
        .collect();
    let speeds: Vec<u64> = (0..64).map(|_| 1 + rng.below(3)).collect();
    (
        tasks,
        Platform::from_int_speeds(speeds).expect("valid platform"),
    )
}

fn assert_search_allocations_flat<A: IndexableAdmission>(admission: A) {
    let (tasks, platform) = system();
    let name = admission.name();
    let mut engine = FirstFitEngine::new(admission);
    let mut search = |tol: f64| {
        let gas = &mut Gas::unlimited();
        engine
            .min_feasible_alpha(&tasks, &platform, 4.0, tol, gas, &())
            .expect("unlimited gas cannot exhaust")
            .expect("feasible below α = 4")
    };
    search(1e-9);
    let (short, _) = allocations(|| search(1e-1));
    let (long, alpha) = allocations(|| search(1e-9));
    eprintln!("{name}: α* = {alpha:.6}; allocations: tol 1e-1 {short}, tol 1e-9 {long}");
    assert!(alpha > 1.0, "{name}: the search must bisect above α = 1");

    // The long search really runs first-fit more often: its kernel runs
    // (the probes no bound answered), read outside the measured searches.
    let mut runs = |tol: f64| {
        let sink = MemorySink::new();
        engine
            .min_feasible_alpha(&tasks, &platform, 4.0, tol, &mut Gas::unlimited(), &sink)
            .expect("unlimited gas cannot exhaust");
        sink.counter(pm::ALPHA_PROBES) - sink.counter(pm::ALPHA_PROBES_BOUNDED)
    };
    let (few, many) = (runs(1e-1), runs(1e-9));
    assert!(many >= few + 20, "{name}: {few} vs {many} first-fit runs");
    assert_eq!(
        short, long,
        "{name}: {few} first-fit runs allocated {short} times, {many} runs {long} times"
    );
}

#[test]
fn alpha_search_probes_allocate_nothing_after_warm_up() {
    assert_search_allocations_flat(EdfAdmission);
    assert_search_allocations_flat(RmsLlAdmission);
}
