//! Log2-bucket histograms: fixed-size, lock-free, good enough for
//! order-of-magnitude distributions (per-task admission checks, probe
//! counts, nanosecond timings).

use crate::sink::MetricsSink;
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of buckets: one for zero plus one per power of two up to 2^63.
pub const BUCKETS: usize = 65;

/// A histogram over `u64` values with power-of-two bucket edges.
///
/// Bucket 0 holds exact zeros; bucket `k ≥ 1` holds values `v` with
/// `2^(k-1) ≤ v < 2^k`, i.e. `k = 64 - v.leading_zeros()`. Recording is a
/// single relaxed atomic increment, so histograms can be shared freely.
#[derive(Debug)]
pub struct Log2Histogram {
    buckets: [AtomicU64; BUCKETS],
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Log2Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// Index of the bucket holding `v`.
#[inline]
pub fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// Inclusive upper edge of bucket `i` (`0` for the zero bucket).
#[inline]
pub fn bucket_upper_edge(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        // Bucket i covers [2^(i-1), 2^i - 1].
        (1u128 << i).saturating_sub(1).min(u64::MAX as u128) as u64
    }
}

impl Log2Histogram {
    /// A fresh, empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one observation of `v`.
    #[inline]
    pub fn record(&self, v: u64) {
        self.record_n(v, 1);
    }

    /// Record `n` observations of `v`: one atomic add.
    #[inline]
    pub(crate) fn record_n(&self, v: u64, n: u64) {
        self.buckets[bucket_of(v)].fetch_add(n, Ordering::Relaxed);
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Copy the current bucket counts out.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; BUCKETS];
        for (out, b) in buckets.iter_mut().zip(&self.buckets) {
            *out = b.load(Ordering::Relaxed);
        }
        HistogramSnapshot { buckets }
    }
}

/// Plain (non-atomic) log2 bucket counts: a copy of a
/// [`Log2Histogram`], or a local histogram that a hot loop fills with
/// [`Self::record`] and hands to a sink once with [`Self::flush`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Count per bucket; see [`bucket_of`] for the edge convention.
    pub buckets: [u64; BUCKETS],
}

impl HistogramSnapshot {
    /// No observations.
    pub const EMPTY: HistogramSnapshot = HistogramSnapshot {
        buckets: [0; BUCKETS],
    };

    /// Count one observation of `v`.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
    }

    /// Add every counted observation to histogram `name` of `sink`: one
    /// [`MetricsSink::observe_n`] per non-empty bucket, so the sink's
    /// histogram gains exactly these bucket counts.
    pub fn flush<S: MetricsSink>(&self, sink: &S, name: &'static str) {
        for (i, &n) in self.buckets.iter().enumerate() {
            if n > 0 {
                sink.observe_n(name, bucket_upper_edge(i), n);
            }
        }
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Upper edge of the bucket containing the `q`-th percentile
    /// (`0 < q ≤ 100`, nearest-rank); `None` for an empty histogram.
    pub fn percentile_upper_edge(&self, q: f64) -> Option<u64> {
        let n = self.count();
        if n == 0 {
            return None;
        }
        let rank = ((q / 100.0) * n as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(bucket_upper_edge(i));
            }
        }
        Some(bucket_upper_edge(BUCKETS - 1))
    }

    /// Non-empty buckets as `(upper_edge, count)` pairs, in edge order.
    pub fn nonzero(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (bucket_upper_edge(i), c))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_upper_edge(0), 0);
        assert_eq!(bucket_upper_edge(1), 1);
        assert_eq!(bucket_upper_edge(2), 3);
        assert_eq!(bucket_upper_edge(64), u64::MAX);
    }

    #[test]
    fn record_and_count() {
        let h = Log2Histogram::new();
        for v in [0, 1, 2, 3, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        let s = h.snapshot();
        assert_eq!(s.buckets[0], 1); // the zero
        assert_eq!(s.buckets[1], 1); // 1
        assert_eq!(s.buckets[2], 2); // 2, 3
        assert_eq!(s.buckets[10], 1); // 1000 ∈ [512, 1023]
    }

    #[test]
    fn percentiles_are_bucket_edges() {
        let h = Log2Histogram::new();
        for _ in 0..99 {
            h.record(1);
        }
        h.record(1 << 20);
        let s = h.snapshot();
        assert_eq!(s.percentile_upper_edge(50.0), Some(1));
        assert_eq!(s.percentile_upper_edge(99.0), Some(1));
        assert_eq!(s.percentile_upper_edge(100.0), Some((1 << 21) - 1));
        assert_eq!(
            HistogramSnapshot {
                buckets: [0; BUCKETS]
            }
            .percentile_upper_edge(50.0),
            None
        );
    }

    #[test]
    fn local_counts_flush_into_a_sink_bucket_for_bucket() {
        let values = [0, 1, 3, 5, 5, 1000, u64::MAX];
        let direct = crate::MemorySink::new();
        let mut local = HistogramSnapshot::EMPTY;
        for v in values {
            direct.observe("h", v);
            local.record(v);
        }
        let flushed = crate::MemorySink::new();
        local.flush(&flushed, "h");
        assert_eq!(flushed.histogram("h"), direct.histogram("h"));
        assert_eq!(flushed.histogram("h"), Some(local));
        HistogramSnapshot::EMPTY.flush(&flushed, "untouched");
        assert!(flushed.histogram("untouched").is_none());
    }

    #[test]
    fn nonzero_lists_populated_buckets() {
        let h = Log2Histogram::new();
        h.record(0);
        h.record(5);
        h.record(5);
        assert_eq!(h.snapshot().nonzero(), vec![(0, 1), (7, 2)]);
    }
}
