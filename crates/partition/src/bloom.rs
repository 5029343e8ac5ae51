//! Visited-state filtering for the branch-and-bound exact solver: a bloom
//! front over an exact hash-set backing.
//!
//! The B&B search re-derives the same machine-state vector along many
//! different assignment paths (identical tasks commute, identical machines
//! are interchangeable even after canonicalization prunes most of it). A
//! state whose subtree was already *fully refuted* never needs exploring
//! again, so refuted canonical keys go into [`VisitedFilter`] and every
//! node checks membership on entry.
//!
//! Correctness splits cleanly across the two layers:
//!
//! * The **exact backing** is a `HashSet<Box<[u64]>>` over the full
//!   canonical key — never a hash of it. A 64-bit fingerprint collision
//!   would prune a *different* (possibly feasible) state, which is an
//!   unsound wrong-answer bug, not a perf bug; storing the whole key rules
//!   it out. The set is therefore the only layer consulted for a positive
//!   "seen" verdict.
//! * The **bloom front** only accelerates the common negative case: a
//!   clear bloom probe proves the key was never inserted, skipping the
//!   hash-set lookup entirely. Bloom false positives cost one extra exact
//!   lookup and are counted ([`VisitedFilter::bloom_false_positives`]);
//!   false negatives are impossible by construction (every insert sets the
//!   key's bits), which the property tests assert against a reference set.
//!
//! At the default sizing of [`BITS_PER_ENTRY`] = 16 with `K` = 2 probes
//! the false-positive rate is `(1 − e^(−2/16))² ≈ 1.4 %`, comfortably
//! under the 5 % the tests gate. At capacity saturation the filter simply
//! stops inserting (counted, never wrong): membership answers stay exact
//! for everything inserted before the cap, and the search just loses
//! dedup coverage for later states — a pure optimization, so soundness is
//! unaffected.

use hetfeas_model::rng::splitmix64;
use std::collections::HashSet;

/// Bloom bits reserved per expected entry (the default sizing).
pub const BITS_PER_ENTRY: usize = 16;

/// Number of bloom probes per key.
const K: u32 = 2;

/// Hash a canonical key (a word slice) to the 64-bit value the bloom
/// front probes with.
#[inline]
pub fn key_hash(key: &[u64]) -> u64 {
    let mut h = 0x51_7c_c1_b7_27_22_0a_95u64 ^ (key.len() as u64);
    for &w in key {
        h = splitmix64(h ^ w);
    }
    h
}

/// A plain bloom filter over pre-hashed 64-bit keys: power-of-two bit
/// count, `K` (two) probe positions derived from the two halves of a
/// splitmix64 remix.
#[derive(Debug, Clone)]
pub struct BloomFilter {
    bits: Vec<u64>,
    /// `bits.len() * 64 - 1`; bit count is a power of two.
    mask: u64,
}

impl BloomFilter {
    /// Sized for `entries` expected insertions at [`BITS_PER_ENTRY`] bits
    /// each (rounded up to a power of two, at least 1024 bits).
    pub fn with_capacity(entries: usize) -> Self {
        let bits = (entries.saturating_mul(BITS_PER_ENTRY))
            .max(1024)
            .next_power_of_two();
        BloomFilter {
            bits: vec![0u64; bits / 64],
            mask: bits as u64 - 1,
        }
    }

    #[inline]
    fn probes(&self, hash: u64) -> [u64; K as usize] {
        let h2 = splitmix64(hash);
        [hash & self.mask, (hash >> 32 ^ h2) & self.mask]
    }

    /// Set the key's probe bits.
    #[inline]
    pub fn insert(&mut self, hash: u64) {
        for p in self.probes(hash) {
            self.bits[(p / 64) as usize] |= 1u64 << (p % 64);
        }
    }

    /// `false` proves the key was never inserted; `true` means *maybe*.
    #[inline]
    pub fn might_contain(&self, hash: u64) -> bool {
        self.probes(hash)
            .into_iter()
            .all(|p| self.bits[(p / 64) as usize] >> (p % 64) & 1 == 1)
    }
}

/// The two-layer visited filter: bloom front + exact `HashSet` backing,
/// with a hard entry cap and the counters the `bnb.*` metrics report.
#[derive(Debug)]
pub struct VisitedFilter {
    bloom: BloomFilter,
    exact: HashSet<Box<[u64]>>,
    cap: usize,
    /// Queries answered "seen" by the exact backing.
    pub hits: u64,
    /// Queries where the bloom front said *maybe* but the exact backing
    /// said new — one wasted hash-set lookup each.
    pub bloom_false_positives: u64,
    /// Queries the bloom front settled negatively without an exact lookup.
    pub bloom_negatives: u64,
    /// Insertions dropped because the filter was at capacity.
    pub saturated_skips: u64,
}

impl VisitedFilter {
    /// A filter capped at `cap` entries, bloom-sized for that capacity.
    pub fn new(cap: usize) -> Self {
        VisitedFilter {
            bloom: BloomFilter::with_capacity(cap),
            exact: HashSet::new(),
            cap,
            hits: 0,
            bloom_false_positives: 0,
            bloom_negatives: 0,
            saturated_skips: 0,
        }
    }

    /// Exact membership: `true` iff `key` was actually inserted. Updates
    /// the hit/false-positive counters.
    pub fn contains(&mut self, key: &[u64]) -> bool {
        if !self.bloom.might_contain(key_hash(key)) {
            self.bloom_negatives += 1;
            return false;
        }
        if self.exact.contains(key) {
            self.hits += 1;
            true
        } else {
            self.bloom_false_positives += 1;
            false
        }
    }

    /// Record a (refuted) key. Silently dropped at capacity — the filter
    /// is an optimization, so losing coverage is sound.
    pub fn insert(&mut self, key: &[u64]) {
        if self.exact.len() >= self.cap {
            self.saturated_skips += 1;
            return;
        }
        if self.exact.insert(key.into()) {
            self.bloom.insert(key_hash(key));
        }
    }

    /// Number of keys stored exactly.
    pub fn len(&self) -> usize {
        self.exact.len()
    }

    /// True when nothing has been inserted.
    pub fn is_empty(&self) -> bool {
        self.exact.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use hetfeas_model::rng::Rng;

    /// Deterministic key material.
    fn random_key(rng: &mut Rng, len: usize) -> Vec<u64> {
        (0..len).map(|_| rng.next_u64()).collect()
    }

    #[test]
    fn inserted_keys_are_always_contained() {
        // No false negatives, ever: checked against a reference HashSet.
        let mut rng = Rng::new(0xdead_beef);
        let mut filter = VisitedFilter::new(4096);
        let mut reference: HashSet<Vec<u64>> = HashSet::new();
        for i in 0..2000 {
            let key = random_key(&mut rng, 1 + i % 7);
            filter.insert(&key);
            reference.insert(key);
        }
        for key in &reference {
            assert!(filter.contains(key), "false negative for {key:?}");
        }
        assert_eq!(filter.len(), reference.len());
    }

    #[test]
    fn contains_agrees_with_reference_on_unseen_keys() {
        let mut rng = Rng::new(42);
        let mut filter = VisitedFilter::new(4096);
        let mut reference: HashSet<Vec<u64>> = HashSet::new();
        for _ in 0..1000 {
            let key = random_key(&mut rng, 3);
            filter.insert(&key);
            reference.insert(key);
        }
        for _ in 0..5000 {
            let key = random_key(&mut rng, 3);
            assert_eq!(filter.contains(&key), reference.contains(&key));
        }
    }

    #[test]
    fn bloom_false_positive_rate_under_five_percent_at_default_sizing() {
        let mut rng = Rng::new(7);
        let entries = 1 << 14;
        let mut filter = VisitedFilter::new(entries);
        for _ in 0..entries {
            filter.insert(&random_key(&mut rng, 2));
        }
        // Query fresh keys: every "maybe" from the bloom front on these is
        // a false positive (they were never inserted, up to negligible
        // random collision probability on 128-bit key material).
        let queries = 100_000u64;
        for _ in 0..queries {
            let key = random_key(&mut rng, 2);
            filter.contains(&key);
        }
        let fp_rate = filter.bloom_false_positives as f64 / queries as f64;
        assert!(
            fp_rate < 0.05,
            "bloom FP rate {fp_rate:.4} ≥ 5% at default sizing"
        );
        // And the default sizing should be doing real work: the vast
        // majority of negative queries never touch the hash set.
        assert!(filter.bloom_negatives > queries * 9 / 10);
    }

    #[test]
    fn saturation_stops_inserting_but_stays_exact() {
        let mut rng = Rng::new(99);
        let mut filter = VisitedFilter::new(16);
        let kept: Vec<Vec<u64>> = (0..16).map(|_| random_key(&mut rng, 2)).collect();
        for key in &kept {
            filter.insert(key);
        }
        assert_eq!(filter.len(), 16);
        assert_eq!(filter.saturated_skips, 0);
        // Over-capacity inserts are dropped and counted ...
        let dropped: Vec<Vec<u64>> = (0..8).map(|_| random_key(&mut rng, 2)).collect();
        for key in &dropped {
            filter.insert(key);
        }
        assert_eq!(filter.len(), 16);
        assert_eq!(filter.saturated_skips, 8);
        // ... membership stays exact: kept keys in, dropped keys out.
        for key in &kept {
            assert!(filter.contains(key));
        }
        for key in &dropped {
            assert!(!filter.contains(key));
        }
    }

    #[test]
    fn duplicate_inserts_do_not_consume_capacity() {
        let mut filter = VisitedFilter::new(4);
        let key = [1u64, 2, 3];
        for _ in 0..10 {
            filter.insert(&key);
        }
        assert_eq!(filter.len(), 1);
        assert_eq!(filter.saturated_skips, 0);
    }

    #[test]
    fn key_hash_distinguishes_length_and_order() {
        assert_ne!(key_hash(&[]), key_hash(&[0]));
        assert_ne!(key_hash(&[0]), key_hash(&[0, 0]));
        assert_ne!(key_hash(&[1, 2]), key_hash(&[2, 1]));
    }

    #[test]
    fn bloom_filter_minimum_sizing() {
        // Tiny capacities still get a usable filter.
        let mut b = BloomFilter::with_capacity(0);
        b.insert(12345);
        assert!(b.might_contain(12345));
        assert!(!b.might_contain(54321));
    }
}
