//! Policy-dispatched wrapper over [`DurableEngine`].
//!
//! Tenants pick their admission policy at `open` time, so a shard worker
//! holds a [`TenantEngine`] — an [`AnyDurable`], the partition crate's
//! enum over the three indexable admission tests — rather than a generic
//! engine. Every method dispatches through the one policy macro,
//! `with_admission!`: `create` and `recover` on the [`PolicyKind`], the
//! rest on the engine the tenant holds. Enum dispatch (not trait objects)
//! keeps the [`MetricsSink`] genericity of the underlying engine intact
//! and costs one match per op, which is noise next to the journal write
//! the op already paid for. The shard maps its ops onto these methods in
//! one place, `shard::apply_op`, tags rid-bearing ops with
//! [`TenantEngine::set_rid`], and runs the durability barrier
//! ([`TenantEngine::sync`]) once per batch, before it replies.
//!
//! Besides the journaled ops, a shard reads four things from its
//! engine after a batch or on request:
//!
//! * which machines the batch changed ([`TenantEngine::take_changed`]);
//! * those machines' residents ([`TenantEngine::copy_residents`]), which
//!   it republishes into the tenant's [`crate::quote::QuoteBoard`] for
//!   shed-time α quotes;
//! * the O(live) [`TenantEngine::state_digest`], which it computes only
//!   when asked: a `digest` request, boot, or shutdown;
//! * at boot, the request-id log a recovery rebuilt
//!   ([`TenantEngine::rid_log`]), which seeds the shard's dedup window.

use hetfeas_model::{Augmentation, Platform, Task};
use hetfeas_obs::MetricsSink;
use hetfeas_partition::durable::{
    recover, Applied, ChangedMachines, CompactionStep, DurableEngine, DurableError, DurableOptions,
    RecoverError, RecoveryReport,
};
use hetfeas_partition::incremental::{AddOutcome, EngineState, RepackOutcome, TaskId};
use hetfeas_partition::{with_admission, AnyDurable, PolicyKind};
use hetfeas_robust::journal::Storage;
use hetfeas_robust::Gas;

/// A tenant's [`DurableEngine`], under whichever admission test its
/// [`PolicyKind`] names.
pub struct TenantEngine(AnyDurable);

impl TenantEngine {
    /// Start a fresh journaled engine over `store` (writes the config
    /// record).
    #[allow(clippy::too_many_arguments)]
    pub fn create<S: MetricsSink>(
        policy: PolicyKind,
        platform: &Platform,
        alpha: Augmentation,
        opts: DurableOptions,
        store: Box<dyn Storage>,
        gas: &mut Gas,
        sink: &S,
    ) -> Result<TenantEngine, DurableError> {
        with_admission!(policy, adm => {
            let e = DurableEngine::create(adm, platform, alpha, opts, store, gas, sink)?;
            Ok(TenantEngine(e.into()))
        })
    }

    /// Recover an engine of the given policy by replaying the journal in
    /// `store`.
    pub fn recover<S: MetricsSink>(
        policy: PolicyKind,
        store: Box<dyn Storage>,
        gas: &mut Gas,
        sink: &S,
    ) -> Result<(TenantEngine, RecoveryReport), RecoverError> {
        with_admission!(policy, adm => {
            let (e, report) = recover(adm, store, gas, sink)?;
            Ok((TenantEngine(e.into()), report))
        })
    }

    /// Copy future compactions in slices of at most `bytes` (see
    /// [`DurableEngine::set_slice_bytes`]).
    pub fn set_slice_bytes(&mut self, bytes: u64) {
        with_admission!(engine in &mut self.0, e => e.set_slice_bytes(bytes))
    }

    /// Tag the next op with request id `rid` (see
    /// [`DurableEngine::set_rid`]).
    pub fn set_rid(&mut self, rid: u64) {
        with_admission!(engine in &mut self.0, e => e.set_rid(rid))
    }

    /// Keep at most `cap` tagged outcomes (see
    /// [`DurableEngine::set_rid_window`]).
    pub fn set_rid_window(&mut self, cap: usize) {
        with_admission!(engine in &mut self.0, e => e.set_rid_window(cap))
    }

    /// The logged `(request id, outcome)` pairs, oldest first.
    pub fn rid_log(&self) -> Vec<(u64, Applied)> {
        with_admission!(engine in &self.0, e => e.rid_log().collect())
    }

    /// The durability barrier over every record written since the last
    /// one (see [`DurableEngine::sync`]).
    pub fn sync<S: MetricsSink>(&mut self, gas: &mut Gas, sink: &S) -> Result<(), DurableError> {
        with_admission!(engine in &mut self.0, e => e.sync(gas, sink))
    }

    /// True when a barrier already covers every op applied so far (see
    /// [`DurableEngine::is_synced`]).
    pub fn is_synced(&self) -> bool {
        with_admission!(engine in &self.0, e => e.is_synced())
    }

    /// Journal-then-apply add.
    pub fn add<S: MetricsSink>(
        &mut self,
        task: Task,
        gas: &mut Gas,
        sink: &S,
    ) -> Result<AddOutcome, DurableError> {
        with_admission!(engine in &mut self.0, e => e.add(task, gas, sink))
    }

    /// Journal-then-apply remove by raw id; `None` when the id is dead.
    pub fn remove<S: MetricsSink>(
        &mut self,
        raw: u64,
        gas: &mut Gas,
        sink: &S,
    ) -> Result<Option<Task>, DurableError> {
        with_admission!(engine in &mut self.0, e => e.remove(TaskId::from_raw(raw), gas, sink))
    }

    /// Journal-then-apply snapshot into the single snapshot slot.
    pub fn snapshot<S: MetricsSink>(
        &mut self,
        gas: &mut Gas,
        sink: &S,
    ) -> Result<(), DurableError> {
        with_admission!(engine in &mut self.0, e => e.snapshot(gas, sink))
    }

    /// Journal-then-apply rollback; `false` when no snapshot is held.
    pub fn rollback<S: MetricsSink>(
        &mut self,
        gas: &mut Gas,
        sink: &S,
    ) -> Result<bool, DurableError> {
        with_admission!(engine in &mut self.0, e => e.rollback(gas, sink))
    }

    /// Journal-then-apply an explicit canonical repack.
    pub fn repack<S: MetricsSink>(
        &mut self,
        gas: &mut Gas,
        sink: &S,
    ) -> Result<RepackOutcome, DurableError> {
        with_admission!(engine in &mut self.0, e => e.repack(gas, sink))
    }

    /// Compact the journal to `[config, state, snapstate?]`.
    pub fn compact<S: MetricsSink>(&mut self, gas: &mut Gas, sink: &S) -> Result<(), DurableError> {
        with_admission!(engine in &mut self.0, e => e.compact(gas, sink))
    }

    /// Advance incremental compaction by one bounded slice (see
    /// [`DurableEngine::compaction_tick`]); shard workers call this
    /// between batches so a big journal never stalls the queue.
    pub fn compaction_tick<S: MetricsSink>(
        &mut self,
        gas: &mut Gas,
        sink: &S,
    ) -> Result<CompactionStep, DurableError> {
        with_admission!(engine in &mut self.0, e => e.compaction_tick(gas, sink))
    }

    /// CRC32 digest of the full observable state (see
    /// [`DurableEngine::state_digest`]).
    pub fn state_digest(&self) -> u32 {
        with_admission!(engine in &self.0, e => e.state_digest())
    }

    /// Live task count.
    pub fn len(&self) -> usize {
        with_admission!(engine in &self.0, e => e.engine().len())
    }

    /// True when no tasks are live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Machine currently hosting raw id, if live.
    pub fn machine_of(&self, raw: u64) -> Option<usize> {
        with_admission!(engine in &self.0, e => e.engine().machine_of(TaskId::from_raw(raw)))
    }

    /// Portable export of the live state.
    pub fn export_state(&self) -> EngineState {
        with_admission!(engine in &self.0, e => e.engine().export_state())
    }

    /// Number of machines on the tenant's platform.
    pub fn machines(&self) -> usize {
        with_admission!(engine in &self.0, e => e.engine().platform().len())
    }

    /// Overwrite `out` with the tasks resident on original machine index
    /// `machine`, in admission order.
    pub fn copy_residents(&self, machine: usize, out: &mut Vec<Task>) {
        out.clear();
        with_admission!(engine in &self.0, e => out.extend(e.engine().resident_tasks(machine).copied()));
    }

    /// Drain which machines changed since the last call (see
    /// [`DurableEngine::take_changed`]).
    pub fn take_changed(&mut self) -> ChangedMachines {
        with_admission!(engine in &mut self.0, e => e.take_changed())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quote::QuoteBoard;
    use hetfeas_robust::journal::MemStorage;

    fn platform() -> Platform {
        Platform::from_int_speeds([1, 1]).expect("platform")
    }

    #[test]
    fn policy_keys_round_trip() {
        for p in [PolicyKind::Edf, PolicyKind::RmsLl, PolicyKind::RmsHyp] {
            assert_eq!(PolicyKind::parse(p.key()), Ok(p));
        }
        assert!(PolicyKind::parse("rms-rta").is_err());
    }

    #[test]
    fn create_apply_recover_digest_round_trip() {
        let store = MemStorage::new();
        let mut gas = Gas::unlimited();
        let mut eng = TenantEngine::create(
            PolicyKind::Edf,
            &platform(),
            Augmentation::NONE,
            DurableOptions::default(),
            Box::new(store.clone()),
            &mut gas,
            &(),
        )
        .expect("create");
        let t = Task::implicit(3, 10).expect("task");
        let out = eng.add(t, &mut gas, &()).expect("add");
        assert!(matches!(out, AddOutcome::Admitted { .. }));
        let digest = eng.state_digest();
        let (back, report) = TenantEngine::recover(PolicyKind::Edf, Box::new(store), &mut gas, &())
            .expect("recover");
        assert_eq!(report.records_replayed, 1);
        assert_eq!(back.state_digest(), digest);
    }

    #[test]
    fn quote_finds_a_rung_when_capacity_exists_at_higher_alpha() {
        // A full machine pair at α = 1: one more 6/10 task only fits if
        // the machines were ~1.3x faster.
        let plat = platform();
        let mut eng = TenantEngine::create(
            PolicyKind::Edf,
            &plat,
            Augmentation::NONE,
            DurableOptions::default(),
            Box::new(MemStorage::new()),
            &mut Gas::unlimited(),
            &(),
        )
        .expect("create");
        for _ in 0..2 {
            eng.add(
                Task::implicit(8, 10).expect("task"),
                &mut Gas::unlimited(),
                &(),
            )
            .expect("gas");
        }
        let board = QuoteBoard::from_engine(&eng);
        let probe = Task::implicit(6, 10).expect("task");
        let rungs = [1.0, 1.5, 2.0];
        let quote = board.quote(PolicyKind::Edf, &plat, 1.0, probe, &rungs);
        assert_eq!(quote, Some(1.5));
        // Quoting must not have touched the live engine.
        assert_eq!(eng.len(), 2);
    }

    #[test]
    fn quote_is_none_when_no_rung_admits() {
        let plat = platform();
        let eng = TenantEngine::create(
            PolicyKind::Edf,
            &plat,
            Augmentation::NONE,
            DurableOptions::default(),
            Box::new(MemStorage::new()),
            &mut Gas::unlimited(),
            &(),
        )
        .expect("create");
        let impossible = Task::implicit(40, 10).expect("task");
        assert_eq!(
            QuoteBoard::from_engine(&eng).quote(
                PolicyKind::Edf,
                &plat,
                1.0,
                impossible,
                &[1.0, 2.0]
            ),
            None
        );
    }
}
