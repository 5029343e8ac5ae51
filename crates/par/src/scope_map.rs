//! Order-preserving parallel map on `std` scoped threads.
//!
//! The experiment sweeps are embarrassingly parallel: thousands of
//! independent `(seed, index) → measurement` evaluations. The workspace
//! has no external dependencies, so we implement the one primitive we
//! need — a deterministic `par_map` — directly on `std::thread::scope`
//! with dynamic work stealing via a shared atomic cursor (chunked to avoid
//! contention on cheap items). Results land in their input slots, so output
//! order always equals input order regardless of scheduling.

use crate::chunk::default_workers;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Parallel, order-preserving map over a slice.
///
/// Spawns up to `available_parallelism` scoped workers; each repeatedly
/// claims a contiguous block of indices from an atomic cursor and writes
/// `f(item)` into the result slot for that index. A panic in `f` reaches
/// the caller with its original payload, matching `std` iterator
/// semantics.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_with(items, default_workers(usize::MAX), 1, f)
}

/// [`par_map`] with explicit worker count and claim-block size.
///
/// `block` tunes the stealing granularity: 1 for expensive items (perfect
/// balance), larger for cheap items (less cursor contention).
pub fn par_map_with<T, R, F>(items: &[T], workers: usize, block: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    let workers = workers.clamp(1, n.max(1));
    let block = block.max(1);
    if n == 0 {
        return Vec::new();
    }
    if workers == 1 {
        return items.iter().map(f).collect();
    }

    // Each worker keeps the (index, result) pairs of the blocks it claimed;
    // joining them fills every output slot exactly once, so no slot needs a
    // lock.
    let cursor = AtomicUsize::new(0);
    let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let start = cursor.fetch_add(block, Ordering::Relaxed);
                        if start >= n {
                            return done;
                        }
                        let end = (start + block).min(n);
                        done.extend((start..end).zip(&items[start..end]).map(|(i, t)| (i, f(t))));
                    }
                })
            })
            .collect();
        // Join every worker here so a panic resumes with its own payload
        // instead of the scope's generic one.
        for handle in handles {
            match handle.join() {
                Ok(done) => done.into_iter().for_each(|(i, r)| out[i] = Some(r)),
                Err(payload) => resume_unwind(payload),
            }
        }
    });
    out.into_iter()
        .map(|r| r.expect("every index is claimed exactly once"))
        .collect()
}

/// Parallel for-each (no results collected).
pub fn par_for_each<T, F>(items: &[T], f: F)
where
    T: Sync,
    F: Fn(&T) + Sync,
{
    let _ = par_map(items, |t| f(t));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_sequential_map() {
        let items: Vec<u64> = (0..1000).collect();
        let par = par_map(&items, |&x| x * x + 1);
        let seq: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        assert_eq!(par, seq);
    }

    #[test]
    fn empty_input() {
        let items: Vec<u32> = vec![];
        assert!(par_map(&items, |&x| x).is_empty());
    }

    #[test]
    fn single_item_and_single_worker() {
        assert_eq!(par_map(&[7], |&x| x + 1), vec![8]);
        assert_eq!(
            par_map_with(&[1, 2, 3], 1, 1, |&x| x * 10),
            vec![10, 20, 30]
        );
    }

    #[test]
    fn block_sizes_do_not_change_results() {
        let items: Vec<u32> = (0..501).collect();
        let expect: Vec<u32> = items.iter().map(|&x| x / 3).collect();
        for block in [1usize, 2, 7, 64, 1000] {
            for workers in [2usize, 4, 16] {
                assert_eq!(par_map_with(&items, workers, block, |&x| x / 3), expect);
            }
        }
    }

    #[test]
    fn heavy_unbalanced_items_complete() {
        // Items of wildly varying cost: stealing must still cover all.
        let items: Vec<u64> = (0..64).collect();
        let out = par_map(&items, |&x| {
            let mut acc = 0u64;
            for i in 0..(x * 1000) {
                acc = acc.wrapping_add(i);
            }
            acc
        });
        assert_eq!(out.len(), 64);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn panics_propagate() {
        let items: Vec<u32> = (0..100).collect();
        let _ = par_map(&items, |&x| {
            if x == 50 {
                panic!("boom");
            }
            x
        });
    }

    #[test]
    fn eight_workers_run_items_on_more_than_one_thread() {
        use std::sync::{Condvar, Mutex};
        use std::time::Duration;
        // Each item waits until a second item has arrived. Items run on
        // one thread only would meet no one: the first wait times out
        // and reports the failure instead of hanging.
        let arrived = Mutex::new(0usize);
        let met = Condvar::new();
        let items: Vec<usize> = (0..8).collect();
        let out = par_map_with(&items, 8, 1, |_| {
            let mut n = arrived.lock().expect("rendezvous lock");
            *n += 1;
            met.notify_all();
            let (n, _) = met
                .wait_timeout_while(n, Duration::from_secs(10), |n| *n < 2)
                .expect("rendezvous lock");
            (*n >= 2, std::thread::current().id())
        });
        assert!(
            out.iter().all(|&(rendezvous, _)| rendezvous),
            "an item waited alone: the items ran on one thread"
        );
        let threads: std::collections::HashSet<_> = out.iter().map(|&(_, id)| id).collect();
        assert!(threads.len() > 1);
    }

    #[test]
    fn for_each_side_effects_visible() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let sum = AtomicU64::new(0);
        let items: Vec<u64> = (1..=100).collect();
        par_for_each(&items, |&x| {
            sum.fetch_add(x, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 5050);
    }
}
