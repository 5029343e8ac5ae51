//! Task-set container and orderings.

use crate::error::ModelError;
use crate::ratio::Ratio;
use crate::task::Task;
use crate::time::hyperperiod;
use core::cmp::Ordering;
use core::fmt;
use core::ops::Index;

/// An ordered collection of sporadic tasks.
///
/// The container preserves insertion order; the paper's algorithm operates
/// on a *utilization-sorted view* obtained from
/// [`TaskSet::order_by_decreasing_utilization`], leaving the underlying set
/// untouched so callers can correlate results back to their original task
/// indices.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TaskSet {
    tasks: Vec<Task>,
}

impl TaskSet {
    /// Create a task set from the given tasks (may be empty).
    pub fn new(tasks: Vec<Task>) -> Self {
        TaskSet { tasks }
    }

    /// The empty task set.
    pub fn empty() -> Self {
        TaskSet { tasks: Vec::new() }
    }

    /// Build an implicit-deadline set from `(wcet, period)` pairs.
    pub fn from_pairs<I>(pairs: I) -> Result<Self, ModelError>
    where
        I: IntoIterator<Item = (u64, u64)>,
    {
        let tasks = pairs
            .into_iter()
            .map(|(c, p)| Task::implicit(c, p))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(TaskSet { tasks })
    }

    /// Number of tasks.
    #[inline]
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// True if there are no tasks.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Append a task.
    pub fn push(&mut self, task: Task) {
        self.tasks.push(task);
    }

    /// Task at `index`, if any.
    #[inline]
    pub fn get(&self, index: usize) -> Option<&Task> {
        self.tasks.get(index)
    }

    /// Iterate over tasks in insertion order.
    pub fn iter(&self) -> core::slice::Iter<'_, Task> {
        self.tasks.iter()
    }

    /// Borrow the underlying slice.
    #[inline]
    pub fn as_slice(&self) -> &[Task] {
        &self.tasks
    }

    /// Total utilization `Σ c_i / p_i` as `f64`, folded from `+0.0` (the
    /// std `Sum` starts from `-0.0`, so an empty set would print `-0.000`).
    pub fn total_utilization(&self) -> f64 {
        self.tasks.iter().fold(0.0, |sum, t| sum + t.utilization())
    }

    /// Total utilization as an exact rational.
    ///
    /// Prefer this only for sets whose periods share small common multiples;
    /// see the overflow discussion in [`Ratio`]. Panics if the sum
    /// overflows `i128` — public entry points must use
    /// [`TaskSet::try_total_utilization_ratio`] instead.
    pub fn total_utilization_ratio(&self) -> Ratio {
        self.tasks.iter().map(Task::utilization_ratio).sum()
    }

    /// Total utilization as an exact rational, with overflow surfaced as
    /// `Err(ModelError::Overflow)` instead of a panic. Sets with many
    /// coprime periods (whose lcm exceeds `i128`) land here; callers
    /// typically fall back to the `f64` total or a conservative verdict.
    pub fn try_total_utilization_ratio(&self) -> Result<Ratio, ModelError> {
        let mut total = Ratio::ZERO;
        for t in &self.tasks {
            total = total
                .checked_add(&t.utilization_ratio())
                .ok_or(ModelError::Overflow("total utilization"))?;
        }
        Ok(total)
    }

    /// Largest single-task utilization (0.0 for an empty set).
    pub fn max_utilization(&self) -> f64 {
        self.tasks.iter().map(Task::utilization).fold(0.0, f64::max)
    }

    /// Indices of tasks ordered by non-increasing utilization, ties broken
    /// by original index (a deterministic total order — required so the
    /// paper's first-fit is reproducible).
    pub fn order_by_decreasing_utilization(&self) -> Vec<usize> {
        let mut idx = Vec::new();
        self.order_by_decreasing_utilization_into(&mut idx);
        idx
    }

    /// [`TaskSet::order_by_decreasing_utilization`] into a caller-owned
    /// buffer, so repeated sorts (e.g. an engine probing many α values)
    /// reuse the allocation. The buffer is cleared first. The order is
    /// exact: [`TaskSet::cmp_by_decreasing_utilization`] on each task's
    /// [`utilization_key`] and index.
    pub fn order_by_decreasing_utilization_into(&self, idx: &mut Vec<usize>) {
        idx.clear();
        self.extend_by_decreasing_utilization(0, idx);
    }

    /// Append the indices `from..self.len()` to `idx` in the order of
    /// [`TaskSet::order_by_decreasing_utilization`] — that sort, over a
    /// tail of the set. The incremental engine's repack sorts only the
    /// tasks admitted since its previous repack this way and merges them
    /// into the order it kept.
    pub fn extend_by_decreasing_utilization(&self, from: usize, idx: &mut Vec<usize>) {
        let mut keys: Vec<(u128, usize)> = (from..)
            .zip(&self.tasks[from..])
            .map(|(i, t)| (utilization_key(t), i))
            .collect();
        keys.sort_unstable_by(|&a, &b| self.cmp_by_decreasing_utilization(a, b));
        idx.extend(keys.iter().map(|&(_, i)| i));
    }

    /// The decreasing-utilization order between tasks `a` and `b` of this
    /// set, each given as `(`[`utilization_key`]`, index)`: `Less` when `a`
    /// comes first. The heavier key comes first; equal keys fall back to
    /// the exact `u128` cross-multiplication `c_a·p_b` vs `c_b·p_a` (both
    /// factors are `u64`, so it cannot overflow), then to the lower index.
    /// This is the one comparison behind
    /// [`TaskSet::order_by_decreasing_utilization`] and every order the
    /// incremental engine's repacks merge.
    #[inline]
    pub fn cmp_by_decreasing_utilization(
        &self,
        (ka, a): (u128, usize),
        (kb, b): (u128, usize),
    ) -> Ordering {
        kb.cmp(&ka)
            .then_with(|| self.cmp_indices_by_decreasing_utilization(a, b))
    }

    /// [`TaskSet::cmp_by_decreasing_utilization`] between tasks `a` and `b`
    /// without their keys: the exact cross-multiplication, then the lower
    /// index. The order is the same, since the key is monotone in `c/p`
    /// and equal keys fall back to this comparison; it suits a caller that
    /// would otherwise compute a key (a `u128` division) per comparison.
    #[inline]
    pub fn cmp_indices_by_decreasing_utilization(&self, a: usize, b: usize) -> Ordering {
        let (ta, tb) = (&self.tasks[a], &self.tasks[b]);
        let lhs = u128::from(tb.wcet()) * u128::from(ta.period());
        let rhs = u128::from(ta.wcet()) * u128::from(tb.period());
        lhs.cmp(&rhs).then(a.cmp(&b))
    }

    /// Remove every task, keeping the allocation.
    pub fn clear(&mut self) {
        self.tasks.clear();
    }

    /// Hyperperiod (lcm of periods), `None` when empty or on overflow.
    pub fn hyperperiod(&self) -> Option<u128> {
        hyperperiod(self.tasks.iter().map(|t| t.period()))
    }

    /// Exact per-task scaled loads `c_i · (H / p_i)` against the set's own
    /// hyperperiod. Returns `None` if the hyperperiod overflows or any
    /// individual load overflows.
    pub fn scaled_loads(&self) -> Option<(u128, Vec<u128>)> {
        let h = self.hyperperiod()?;
        let loads = self
            .tasks
            .iter()
            .map(|t| t.scaled_load(h))
            .collect::<Option<Vec<_>>>()?;
        Some((h, loads))
    }

    /// True when every task has `deadline == period`.
    pub fn is_implicit_deadline(&self) -> bool {
        self.tasks.iter().all(Task::is_implicit_deadline)
    }

    /// Sub-set restricted to the given indices (in the given order).
    pub fn select(&self, indices: &[usize]) -> TaskSet {
        TaskSet {
            tasks: indices.iter().map(|&i| self.tasks[i]).collect(),
        }
    }
}

/// The fixed-point sort key `⌊c·2^64 / p⌋` (`u128`) of a task's
/// utilization `c/p`. It is monotone in `c/p`, so a strict key inequality
/// orders two tasks with no division or gcd.
#[inline]
pub fn utilization_key(task: &Task) -> u128 {
    (u128::from(task.wcet()) << 64) / u128::from(task.period())
}

impl Index<usize> for TaskSet {
    type Output = Task;
    fn index(&self, index: usize) -> &Task {
        &self.tasks[index]
    }
}

impl FromIterator<Task> for TaskSet {
    fn from_iter<I: IntoIterator<Item = Task>>(iter: I) -> Self {
        TaskSet {
            tasks: iter.into_iter().collect(),
        }
    }
}

impl<'a> IntoIterator for &'a TaskSet {
    type Item = &'a Task;
    type IntoIter = core::slice::Iter<'a, Task>;
    fn into_iter(self) -> Self::IntoIter {
        self.tasks.iter()
    }
}

impl fmt::Display for TaskSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, t) in self.tasks.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> TaskSet {
        TaskSet::from_pairs([(1, 4), (3, 6), (2, 12)]).unwrap()
    }

    #[test]
    fn totals() {
        let ts = demo();
        assert_eq!(ts.len(), 3);
        assert!((ts.total_utilization() - (0.25 + 0.5 + 1.0 / 6.0)).abs() < 1e-12);
        assert_eq!(
            ts.total_utilization_ratio(),
            Ratio::new(1, 4) + Ratio::new(1, 2) + Ratio::new(1, 6)
        );
        assert_eq!(ts.max_utilization(), 0.5);
    }

    #[test]
    fn try_total_utilization_surfaces_overflow() {
        let ts = demo();
        assert_eq!(
            ts.try_total_utilization_ratio().unwrap(),
            ts.total_utilization_ratio()
        );
        // Periods near u64::MAX with distinct values: common denominator
        // blows past i128, which must be an Err, not a panic.
        let huge =
            TaskSet::from_pairs((0..4u64).map(|i| (u64::MAX - 2 - 2 * i, u64::MAX - 1 - 2 * i)))
                .unwrap();
        assert_eq!(
            huge.try_total_utilization_ratio(),
            Err(ModelError::Overflow("total utilization"))
        );
        assert_eq!(
            TaskSet::empty().try_total_utilization_ratio(),
            Ok(Ratio::ZERO)
        );
    }

    #[test]
    fn empty_set_behaviour() {
        let ts = TaskSet::empty();
        assert!(ts.is_empty());
        assert_eq!(ts.total_utilization(), 0.0);
        assert_eq!(ts.max_utilization(), 0.0);
        assert_eq!(ts.hyperperiod(), None);
        assert!(ts.order_by_decreasing_utilization().is_empty());
    }

    #[test]
    fn ordering_is_by_decreasing_utilization_with_stable_ties() {
        // utils: 0.25, 0.5, 1/6 → order 1, 0, 2
        assert_eq!(demo().order_by_decreasing_utilization(), vec![1, 0, 2]);
        // Exact ties keep original index order.
        let ts = TaskSet::from_pairs([(2, 6), (1, 3), (1, 2)]).unwrap();
        assert_eq!(ts.order_by_decreasing_utilization(), vec![2, 0, 1]);
    }

    #[test]
    fn ordering_matches_exact_rational_ordering() {
        // Deterministic xorshift instances across several magnitudes,
        // including values whose f64 images collide (so the fixed-point key
        // tie-break path is exercised) and exact rational ties.
        let mut s = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        for round in 0..40 {
            let n = 1 + (next() % 64) as usize;
            let cap = [10u64, 1_000, 1_000_000, 1 << 40][round % 4];
            let ts = TaskSet::from_pairs((0..n).map(|_| {
                let p = 1 + next() % cap;
                let c = 1 + next() % p.max(1);
                (c, p)
            }))
            .unwrap();
            let mut rational: Vec<usize> = (0..n).collect();
            rational.sort_by(|&a, &b| {
                ts[b]
                    .utilization_ratio()
                    .cmp(&ts[a].utilization_ratio())
                    .then(a.cmp(&b))
            });
            assert_eq!(
                ts.order_by_decreasing_utilization(),
                rational,
                "round {round}"
            );
        }
        // Exact ties (1/3 == 2/6 == 4/12) keep original index order.
        let ts = TaskSet::from_pairs([(2, 6), (1, 3), (4, 12), (1, 2)]).unwrap();
        assert_eq!(ts.order_by_decreasing_utilization(), vec![3, 0, 1, 2]);
    }

    /// The key-less comparisons decide as the keyed order and as the
    /// reduced rationals: every pair of tasks across magnitudes, exact
    /// ties included, and fractions whose cross-products overflow `i128`.
    #[test]
    fn keyless_comparisons_match_the_keyed_and_rational_ones() {
        let mut s = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let wide = [
            Ratio::new((1 << 100) + 1, 1 << 101),
            Ratio::new(1, (1 << 120) + 3),
            Ratio::new(i128::MAX, i128::MAX - 1),
        ];
        for round in 0..20 {
            let cap = [10u64, 1_000, 1 << 40, u64::MAX][round % 4];
            let mut pairs: Vec<(u64, u64)> = (0..24)
                .map(|_| {
                    let p = 1 + next() % cap;
                    (1 + next() % p, p)
                })
                .collect();
            pairs.push((2 * pairs[0].0.min(1 << 62), 2 * pairs[0].1.min(1 << 62)));
            let ts = TaskSet::from_pairs(pairs).unwrap();
            let keyed = |i: usize| (utilization_key(&ts[i]), i);
            for a in 0..ts.len() {
                for b in 0..ts.len() {
                    assert_eq!(
                        ts.cmp_indices_by_decreasing_utilization(a, b),
                        ts.cmp_by_decreasing_utilization(keyed(a), keyed(b)),
                        "round {round}: tasks {a} and {b}"
                    );
                }
                let ratios = ts.iter().map(Task::utilization_ratio).chain(wide);
                for r in ratios {
                    assert_eq!(
                        ts[a].cmp_utilization(&r),
                        ts[a].utilization_ratio().cmp(&r),
                        "round {round}: task {a} against {r}"
                    );
                }
            }
        }
    }

    #[test]
    fn tail_ordering_is_the_full_ordering_restricted_to_the_tail() {
        // Exact ties (1/3 == 2/6 == 3/9 == 4/12) keep original index order
        // on both sides of every split point.
        let ts = TaskSet::from_pairs([(2, 6), (1, 3), (4, 12), (1, 2), (1, 10), (3, 9)]).unwrap();
        let full = ts.order_by_decreasing_utilization();
        for from in 0..=ts.len() {
            let mut idx = vec![usize::MAX];
            ts.extend_by_decreasing_utilization(from, &mut idx);
            let tail = full.iter().copied().filter(|&i| i >= from);
            let expect: Vec<usize> = std::iter::once(usize::MAX).chain(tail).collect();
            assert_eq!(idx, expect, "from {from}");
        }
    }

    #[test]
    fn ordering_is_exact_near_u64_max() {
        // Both utilizations are 1.0 in f64 and their rational
        // cross-products overflow i128, but the second task is heavier.
        let ts = TaskSet::from_pairs([
            (18446744073709551557, 18446744073709551556),
            (18446744073709551556, 18446744073709551555),
        ])
        .unwrap();
        assert_eq!(ts[0].utilization(), ts[1].utilization());
        assert_eq!(ts.order_by_decreasing_utilization(), vec![1, 0]);
    }

    #[test]
    fn hyperperiod_and_scaled_loads() {
        let ts = demo();
        assert_eq!(ts.hyperperiod(), Some(12));
        let (h, loads) = ts.scaled_loads().unwrap();
        assert_eq!(h, 12);
        assert_eq!(loads, vec![3, 6, 2]);
        // load/h equals utilization exactly.
        for (t, &l) in ts.iter().zip(&loads) {
            assert_eq!(Ratio::new(l as i128, h as i128), t.utilization_ratio());
        }
    }

    #[test]
    fn select_reorders() {
        let ts = demo();
        let sel = ts.select(&[2, 0]);
        assert_eq!(sel.len(), 2);
        assert_eq!(sel[0], ts[2]);
        assert_eq!(sel[1], ts[0]);
    }

    #[test]
    fn from_iterator_and_index() {
        let ts: TaskSet = [(1u64, 2u64), (1, 5)]
            .into_iter()
            .map(|(c, p)| Task::implicit(c, p).unwrap())
            .collect();
        assert_eq!(ts[1].period(), 5);
        assert!(ts.is_implicit_deadline());
    }

    #[test]
    fn display_lists_tasks() {
        let ts = TaskSet::from_pairs([(1, 4), (3, 6)]).unwrap();
        assert_eq!(ts.to_string(), "{τ(c=1, p=4), τ(c=3, p=6)}");
    }

    #[test]
    fn implicit_deadline_detection() {
        let mut ts = demo();
        assert!(ts.is_implicit_deadline());
        ts.push(Task::constrained(1, 10, 5).unwrap());
        assert!(!ts.is_implicit_deadline());
    }
}
