//! The [`MetricsSink`] trait, its no-op implementation, and the in-memory
//! aggregating sink.

use crate::histogram::{HistogramSnapshot, Log2Histogram};
use crate::timer::ScopedTimer;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

/// A destination for metrics. Instrumented code is generic over this trait;
/// passing `&()` selects the no-op implementation whose calls compile away
/// entirely, so hot paths pay nothing when observability is off.
///
/// Metric names are `&'static str` in a dotted namespace
/// (`"ff.admission_checks"`, `"engine.admission_evals"`, …); the constants
/// live next to the code that emits them (e.g. `hetfeas_partition::metrics`).
pub trait MetricsSink {
    /// `false` for sinks that discard everything. Call sites guard
    /// *computing* expensive inputs (clock reads, derived values) on this
    /// constant so the disabled path does no work at all; the branch folds
    /// at monomorphization time.
    const ENABLED: bool = true;

    /// Add `delta` to the counter `name`.
    fn counter_add(&self, name: &'static str, delta: u64);

    /// Record one elapsed-time measurement of `ns` nanoseconds for `name`.
    fn record_ns(&self, name: &'static str, ns: u64);

    /// Record `value` into the log2-bucket histogram `name`.
    fn observe(&self, name: &'static str, value: u64);

    /// Record `n` observations of `value` into histogram `name`; by
    /// default `n` calls to [`Self::observe`].
    fn observe_n(&self, name: &'static str, value: u64, n: u64) {
        for _ in 0..n {
            self.observe(name, value);
        }
    }

    /// RAII timer: measures from now until drop, then [`Self::record_ns`]s
    /// the elapsed time. Reads no clock when [`Self::ENABLED`] is false.
    fn timer(&self, name: &'static str) -> ScopedTimer<'_, Self>
    where
        Self: Sized,
    {
        ScopedTimer::new(self, name)
    }
}

/// The no-op sink: every method is an empty `#[inline(always)]` body, so
/// monomorphized call sites vanish and `ENABLED = false` lets callers skip
/// preparing inputs (e.g. `Instant::now()`).
impl MetricsSink for () {
    const ENABLED: bool = false;

    #[inline(always)]
    fn counter_add(&self, _name: &'static str, _delta: u64) {}

    #[inline(always)]
    fn record_ns(&self, _name: &'static str, _ns: u64) {}

    #[inline(always)]
    fn observe(&self, _name: &'static str, _value: u64) {}

    #[inline(always)]
    fn observe_n(&self, _name: &'static str, _value: u64, _n: u64) {}
}

/// Forwarding impl so instrumented helpers can hand the same sink to
/// callees without threading lifetimes around.
impl<S: MetricsSink> MetricsSink for &S {
    const ENABLED: bool = S::ENABLED;

    #[inline(always)]
    fn counter_add(&self, name: &'static str, delta: u64) {
        (**self).counter_add(name, delta);
    }

    #[inline(always)]
    fn record_ns(&self, name: &'static str, ns: u64) {
        (**self).record_ns(name, ns);
    }

    #[inline(always)]
    fn observe(&self, name: &'static str, value: u64) {
        (**self).observe(name, value);
    }

    #[inline(always)]
    fn observe_n(&self, name: &'static str, value: u64, n: u64) {
        (**self).observe_n(name, value, n);
    }
}

/// Aggregate of all recordings for one timer name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TimerStat {
    /// Number of measurements.
    pub count: u64,
    /// Sum of all measured nanoseconds.
    pub total_ns: u64,
    /// Largest single measurement.
    pub max_ns: u64,
}

#[derive(Debug, Default)]
struct TimerCell {
    count: AtomicU64,
    total_ns: AtomicU64,
    max_ns: AtomicU64,
}

/// In-memory aggregating sink: atomic counters, timer aggregates and
/// log2 histograms keyed by name.
///
/// The maps are `RwLock`-protected only for first-touch registration;
/// steady-state recording takes the read lock and a relaxed atomic op, so
/// concurrent recorders (e.g. `par_map` workers) never serialize on a
/// single mutex.
#[derive(Debug, Default)]
pub struct MemorySink {
    counters: RwLock<BTreeMap<&'static str, AtomicU64>>,
    timers: RwLock<BTreeMap<&'static str, TimerCell>>,
    histograms: RwLock<BTreeMap<&'static str, Log2Histogram>>,
}

/// Plain copies of a [`MemorySink`]'s contents at one point in time, in
/// name order (ready for deterministic report rendering).
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Counter totals.
    pub counters: Vec<(String, u64)>,
    /// Timer aggregates.
    pub timers: Vec<(String, TimerStat)>,
    /// Histogram bucket counts.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MemorySink {
    /// A fresh, empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current value of counter `name` (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .read()
            .expect("counter map poisoned")
            .get(name)
            .map_or(0, |c| c.load(Ordering::Relaxed))
    }

    /// Aggregate for timer `name` (all-zero if never touched).
    pub fn timer_stat(&self, name: &str) -> TimerStat {
        self.timers
            .read()
            .expect("timer map poisoned")
            .get(name)
            .map_or(TimerStat::default(), |c| TimerStat {
                count: c.count.load(Ordering::Relaxed),
                total_ns: c.total_ns.load(Ordering::Relaxed),
                max_ns: c.max_ns.load(Ordering::Relaxed),
            })
    }

    /// Bucket counts of histogram `name` (`None` if never touched).
    pub fn histogram(&self, name: &str) -> Option<HistogramSnapshot> {
        self.histograms
            .read()
            .expect("histogram map poisoned")
            .get(name)
            .map(|h| h.snapshot())
    }

    /// Copy everything out, sorted by name.
    pub fn snapshot(&self) -> Snapshot {
        let counters = self
            .counters
            .read()
            .expect("counter map poisoned")
            .iter()
            .map(|(&k, v)| (k.to_string(), v.load(Ordering::Relaxed)))
            .collect();
        let timers = self
            .timers
            .read()
            .expect("timer map poisoned")
            .iter()
            .map(|(&k, c)| {
                (
                    k.to_string(),
                    TimerStat {
                        count: c.count.load(Ordering::Relaxed),
                        total_ns: c.total_ns.load(Ordering::Relaxed),
                        max_ns: c.max_ns.load(Ordering::Relaxed),
                    },
                )
            })
            .collect();
        let histograms = self
            .histograms
            .read()
            .expect("histogram map poisoned")
            .iter()
            .map(|(&k, h)| (k.to_string(), h.snapshot()))
            .collect();
        Snapshot {
            counters,
            timers,
            histograms,
        }
    }
}

/// Run `record` against the entry for `name`, inserting a default entry
/// under the write lock on first touch.
fn with_entry<V: Default, R>(
    map: &RwLock<BTreeMap<&'static str, V>>,
    name: &'static str,
    record: impl Fn(&V) -> R,
) -> R {
    {
        let read = map.read().expect("metric map poisoned");
        if let Some(v) = read.get(name) {
            return record(v);
        }
    }
    let mut write = map.write().expect("metric map poisoned");
    record(write.entry(name).or_default())
}

impl MetricsSink for MemorySink {
    fn counter_add(&self, name: &'static str, delta: u64) {
        with_entry(&self.counters, name, |c| {
            c.fetch_add(delta, Ordering::Relaxed);
        });
    }

    fn record_ns(&self, name: &'static str, ns: u64) {
        with_entry(&self.timers, name, |c| {
            c.count.fetch_add(1, Ordering::Relaxed);
            c.total_ns.fetch_add(ns, Ordering::Relaxed);
            c.max_ns.fetch_max(ns, Ordering::Relaxed);
        });
    }

    fn observe(&self, name: &'static str, value: u64) {
        with_entry(&self.histograms, name, |h| h.record(value));
    }

    fn observe_n(&self, name: &'static str, value: u64, n: u64) {
        with_entry(&self.histograms, name, |h| h.record_n(value, n));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_sink_is_disabled_and_inert() {
        const { assert!(!<() as MetricsSink>::ENABLED) };
        ().counter_add("x", 1);
        ().record_ns("x", 1);
        ().observe("x", 1);
        let _t = ().timer("x"); // must not panic on drop
    }

    #[test]
    fn counters_accumulate() {
        let s = MemorySink::new();
        s.counter_add("a", 2);
        s.counter_add("a", 3);
        s.counter_add("b", 1);
        assert_eq!(s.counter("a"), 5);
        assert_eq!(s.counter("b"), 1);
        assert_eq!(s.counter("untouched"), 0);
    }

    #[test]
    fn timers_aggregate_count_total_max() {
        let s = MemorySink::new();
        s.record_ns("t", 10);
        s.record_ns("t", 30);
        s.record_ns("t", 20);
        let st = s.timer_stat("t");
        assert_eq!(
            st,
            TimerStat {
                count: 3,
                total_ns: 60,
                max_ns: 30
            }
        );
        assert_eq!(s.timer_stat("untouched"), TimerStat::default());
    }

    #[test]
    fn scoped_timer_records_on_drop() {
        let s = MemorySink::new();
        {
            let _t = s.timer("scope");
        }
        let st = s.timer_stat("scope");
        assert_eq!(st.count, 1);
        assert!(st.max_ns <= st.total_ns || st.count == 1);
    }

    #[test]
    fn histograms_record() {
        let s = MemorySink::new();
        s.observe("h", 5);
        s.observe("h", 6);
        s.observe("h", 0);
        let h = s.histogram("h").unwrap();
        assert_eq!(h.count(), 3);
        assert!(s.histogram("untouched").is_none());
    }

    #[test]
    fn observe_n_equals_n_observations() {
        let (bulk, single) = (MemorySink::new(), MemorySink::new());
        bulk.observe_n("h", 6, 3);
        bulk.observe_n("h", 0, 2);
        for v in [6, 6, 6, 0, 0] {
            single.observe("h", v);
        }
        assert_eq!(bulk.histogram("h"), single.histogram("h"));
        // The provided default: `n` calls to `observe`.
        struct ObserveOnly(MemorySink);
        impl MetricsSink for ObserveOnly {
            fn counter_add(&self, _: &'static str, _: u64) {}
            fn record_ns(&self, _: &'static str, _: u64) {}
            fn observe(&self, name: &'static str, value: u64) {
                self.0.observe(name, value);
            }
        }
        let default = ObserveOnly(MemorySink::new());
        default.observe_n("h", 6, 3);
        default.observe_n("h", 0, 2);
        assert_eq!(default.0.histogram("h"), single.histogram("h"));
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let s = MemorySink::new();
        s.counter_add("z", 1);
        s.counter_add("a", 1);
        s.record_ns("t", 5);
        s.observe("h", 9);
        let snap = s.snapshot();
        assert_eq!(
            snap.counters
                .iter()
                .map(|(k, _)| k.as_str())
                .collect::<Vec<_>>(),
            vec!["a", "z"]
        );
        assert_eq!(snap.timers.len(), 1);
        assert_eq!(snap.histograms.len(), 1);
    }

    #[test]
    fn forwarding_impl_reaches_the_base_sink() {
        let s = MemorySink::new();
        let r = &s;
        r.counter_add("fwd", 4);
        assert_eq!(s.counter("fwd"), 4);
        const { assert!(<&MemorySink as MetricsSink>::ENABLED) };
        const { assert!(!<&() as MetricsSink>::ENABLED) };
    }

    #[test]
    fn sink_is_shareable_across_threads() {
        let s = MemorySink::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        s.counter_add("shared", 1);
                    }
                });
            }
        });
        assert_eq!(s.counter("shared"), 4000);
    }
}
