//! Crash-matrix and metamorphic tests for the durability layer.
//!
//! The central property is the
//! recovery invariant: for **every** byte prefix of a journal — every
//! record boundary and every torn mid-record cut — [`recover`] either
//! rebuilds the engine bit-identically to the state after the last whole
//! record, or (when not even the config record survives) reports
//! `Corrupt` without panicking. The same holds for a crash at every byte
//! of a batch of ops written under one barrier.

use hetfeas_model::{Augmentation, Platform, Task};
use hetfeas_obs::{MemorySink, MetricsSink};
use hetfeas_partition::{
    recover, CompactionStep, DurableEngine, DurableError, DurableOptions, EdfAdmission,
    IncrementalEngine, IndexableAdmission, RecoverError, RepairPolicy, RmsLlAdmission, TaskId,
};
use hetfeas_robust::journal::{FaultFs, FaultScript};
use hetfeas_robust::metrics as rmetrics;
use hetfeas_robust::{Gas, MemStorage};

fn platform() -> Platform {
    Platform::from_int_speeds([1, 2, 3]).expect("valid platform")
}

fn task(wcet: u64, period: u64) -> Task {
    Task::implicit(wcet, period).expect("valid task")
}

/// One scripted engine operation. `Remove(k)` removes the `k`-th admitted
/// task (0-based, in admission order), so the script stays valid however
/// ids are allocated across rollbacks.
#[derive(Clone, Copy)]
enum Op {
    Add(u64, u64),
    Remove(usize),
    Snapshot,
    Rollback,
    Repack,
}

/// A mixed workload exercising every op kind, including churn after a
/// rollback. Every op journals exactly one record (no remove-misses, no
/// rollback without a snapshot).
fn script() -> Vec<Op> {
    use Op::*;
    vec![
        Add(1, 4),
        Add(1, 3),
        Add(2, 5),
        Snapshot,
        Add(3, 7),
        Add(1, 9),
        Rollback,
        Remove(1),
        Add(5, 6),
        Repack,
        Add(2, 9),
        Snapshot,
        Remove(0),
        Rollback,
        Repack,
    ]
}

fn loads_bits<A: IndexableAdmission>(e: &IncrementalEngine<A>) -> Vec<u64> {
    (0..e.platform().len())
        .map(|m| e.load_on(m).to_bits())
        .collect()
}

/// Apply one scripted op to a durable engine and run its barrier, as a
/// caller that acknowledges each op does, tracking admitted ids.
fn apply_durable<A: IndexableAdmission, S: MetricsSink>(
    eng: &mut DurableEngine<A>,
    op: Op,
    ids: &mut Vec<TaskId>,
    sink: &S,
) {
    write_durable(eng, op, ids, sink).expect("durable op");
    eng.sync(&mut Gas::unlimited(), sink).expect("barrier");
}

/// Journal and apply one scripted op, with no barrier.
fn write_durable<A: IndexableAdmission, S: MetricsSink>(
    eng: &mut DurableEngine<A>,
    op: Op,
    ids: &mut Vec<TaskId>,
    sink: &S,
) -> Result<(), DurableError> {
    let mut gas = Gas::unlimited();
    match op {
        Op::Add(w, p) => {
            if let Some(id) = eng.add(task(w, p), &mut gas, sink)?.id() {
                ids.push(id);
            }
        }
        Op::Remove(k) => {
            let removed = eng.remove(ids[k], &mut gas, sink)?;
            assert!(removed.is_some(), "script removes only live ids");
        }
        Op::Snapshot => eng.snapshot(&mut gas, sink)?,
        Op::Rollback => {
            assert!(eng.rollback(&mut gas, sink)?);
        }
        Op::Repack => {
            eng.repack(&mut gas, sink)?;
        }
    }
    Ok(())
}

/// Apply one scripted op to a plain in-memory engine (the durable layer's
/// reference semantics); its snapshot slot behaves as the durable
/// engine's does (rollback does not consume it).
fn apply_plain<A: IndexableAdmission>(
    eng: &mut IncrementalEngine<A>,
    op: Op,
    ids: &mut Vec<TaskId>,
) {
    let gas = &mut Gas::unlimited();
    match op {
        Op::Add(w, p) => {
            let out = eng.add(task(w, p), gas, &()).expect("unlimited gas");
            if let Some(id) = out.id() {
                ids.push(id);
            }
        }
        Op::Remove(k) => {
            assert!(eng
                .remove(ids[k], gas, &())
                .expect("unlimited gas")
                .is_some());
        }
        Op::Snapshot => eng.snapshot(gas, &()).expect("unlimited gas"),
        Op::Rollback => {
            let held = eng.rollback(gas, &()).expect("unlimited gas");
            assert!(held, "script snapshots first");
        }
        Op::Repack => {
            eng.repack(gas, &()).expect("unlimited gas");
        }
    }
}

/// Run the script through a journaled engine over shared [`MemStorage`],
/// recording the journal length, state digest, per-machine load bits and
/// assignment after the config record and after every op. `repack_after:
/// 0` and `compact_every: 0` pin record boundaries to op boundaries.
struct Reference {
    journal: Vec<u8>,
    /// `cuts[k]` = journal length after op `k` (`cuts[0]` = config end).
    cuts: Vec<usize>,
    digests: Vec<u32>,
    loads: Vec<Vec<u64>>,
    assignments: Vec<hetfeas_partition::Assignment>,
}

fn run_reference(sink: &MemorySink) -> Reference {
    let mem = MemStorage::new();
    let opts = DurableOptions {
        repack_after: 0,
        compact_every: 0,
        ..DurableOptions::default()
    };
    let mut gas = Gas::unlimited();
    let mut eng = DurableEngine::create(
        EdfAdmission,
        &platform(),
        Augmentation::NONE,
        opts,
        Box::new(mem.clone()),
        &mut gas,
        sink,
    )
    .expect("create journaled engine");
    let mut r = Reference {
        journal: Vec::new(),
        cuts: vec![mem.bytes().len()],
        digests: vec![eng.state_digest()],
        loads: vec![loads_bits(eng.engine())],
        assignments: vec![eng.assignment()],
    };
    let mut ids = Vec::new();
    for op in script() {
        apply_durable(&mut eng, op, &mut ids, sink);
        r.cuts.push(mem.bytes().len());
        r.digests.push(eng.state_digest());
        r.loads.push(loads_bits(eng.engine()));
        r.assignments.push(eng.assignment());
    }
    r.journal = mem.bytes();
    r
}

/// The crash matrix: recovery from **every** byte prefix of the journal
/// is either bit-exact up to the last intact record, or `Corrupt` when
/// the config record itself is torn — and never a panic.
#[test]
fn recovery_is_bit_exact_at_every_crash_point() {
    let r = run_reference(&MemorySink::new());
    assert_eq!(r.cuts.len(), script().len() + 1);
    assert_eq!(*r.cuts.last().unwrap(), r.journal.len());
    for cut_len in 0..=r.journal.len() {
        let store = MemStorage::with_bytes(r.journal[..cut_len].to_vec());
        let mut gas = Gas::unlimited();
        let result = recover(EdfAdmission, Box::new(store.clone()), &mut gas, &());
        if cut_len < r.cuts[0] {
            // Not even the config record survived: unrecoverable, and the
            // evidence is left untouched on disk.
            let err = result
                .map(|_| ())
                .expect_err("torn config must not recover");
            assert!(matches!(err, RecoverError::Corrupt(_)), "{err:?}");
            assert_eq!(store.bytes().len(), cut_len, "forensic bytes preserved");
            continue;
        }
        let k = r
            .cuts
            .iter()
            .rposition(|&c| c <= cut_len)
            .expect("config boundary is <= cut_len");
        let (eng, rep) = match result {
            Ok(v) => v,
            Err(e) => panic!("prefix {cut_len} (op boundary {k}) failed: {e}"),
        };
        assert_eq!(rep.records_replayed, k as u64, "prefix {cut_len}");
        assert_eq!(eng.state_digest(), r.digests[k], "prefix {cut_len}");
        assert_eq!(loads_bits(eng.engine()), r.loads[k], "prefix {cut_len}");
        assert_eq!(eng.assignment(), r.assignments[k], "prefix {cut_len}");
        if cut_len > r.cuts[k] {
            assert_eq!(rep.truncated_records, 1, "prefix {cut_len}");
            assert_eq!(rep.truncated_bytes, (cut_len - r.cuts[k]) as u64);
            // The torn tail was truncated in place, so a second recovery
            // sees a clean journal.
            assert_eq!(store.bytes().len(), r.cuts[k], "prefix {cut_len}");
        } else {
            assert_eq!(rep.truncated_records, 0, "prefix {cut_len}");
            assert_eq!(rep.truncated_bytes, 0, "prefix {cut_len}");
        }
    }
}

/// The crash matrix for one batch: three ops written under a single
/// barrier, after a prefix acknowledged op by op. `FaultFs` kills the
/// process once `n` bytes have been written, for every `n` from the
/// previous barrier to the end of the batch. The batch stops at the op
/// whose write dies, its barrier fails (the process is dead, so the
/// journal cannot be truncated either), and recovery from what reached
/// storage must give the state after the last whole record — never a
/// state before the previous barrier.
#[test]
fn recovery_is_exact_at_every_byte_of_a_batch() {
    let prefix = [Op::Add(1, 4), Op::Add(1, 3), Op::Snapshot];
    let batch = [Op::Add(2, 5), Op::Remove(0), Op::Rollback];
    let opts = DurableOptions {
        repack_after: 0,
        compact_every: 0,
        ..DurableOptions::default()
    };
    let create = |store: Box<dyn hetfeas_robust::journal::Storage>| {
        DurableEngine::create(
            EdfAdmission,
            &platform(),
            Augmentation::NONE,
            opts,
            store,
            &mut Gas::unlimited(),
            &(),
        )
        .expect("create")
    };

    let mem = MemStorage::new();
    let mut eng = create(Box::new(mem.clone()));
    let mut ids = Vec::new();
    let (mut cuts, mut digests) = (vec![mem.bytes().len()], vec![eng.state_digest()]);
    for op in prefix {
        apply_durable(&mut eng, op, &mut ids, &());
        cuts.push(mem.bytes().len());
        digests.push(eng.state_digest());
    }
    let barrier = cuts.len() - 1;
    for op in batch {
        write_durable(&mut eng, op, &mut ids, &()).expect("batch op");
        cuts.push(mem.bytes().len());
        digests.push(eng.state_digest());
    }
    eng.sync(&mut Gas::unlimited(), &()).expect("batch barrier");
    let end = *cuts.last().expect("cuts");

    for n in cuts[barrier]..=end {
        let mem = MemStorage::new();
        let script = FaultScript {
            crash_after_bytes: Some(n as u64),
            ..FaultScript::default()
        };
        let mut eng = create(Box::new(FaultFs::new(mem.clone(), script)));
        let mut ids = Vec::new();
        for op in prefix {
            apply_durable(&mut eng, op, &mut ids, &());
        }
        for op in batch {
            if write_durable(&mut eng, op, &mut ids, &()).is_err() {
                break;
            }
        }
        let synced = eng.sync(&mut Gas::unlimited(), &());
        assert_eq!(synced.is_ok(), n == end, "crash at byte {n}: {synced:?}");
        drop(eng);

        let (rec, rep) = recover(
            EdfAdmission,
            Box::new(MemStorage::with_bytes(mem.bytes())),
            &mut Gas::unlimited(),
            &(),
        )
        .unwrap_or_else(|e| panic!("crash at byte {n}: {e}"));
        let k = cuts.iter().rposition(|&c| c <= n).expect("config survives");
        assert!(k >= barrier, "crash at byte {n}");
        assert_eq!(rep.records_replayed, k as u64, "crash at byte {n}");
        assert_eq!(rec.state_digest(), digests[k], "crash at byte {n}");
    }
}

/// Bit-flips inside the journal body: a corrupted record cuts replay at
/// the damage point (everything before it recovers bit-exactly) and never
/// panics — whichever byte is hit.
#[test]
fn recovery_survives_bit_flips_without_panicking() {
    let r = run_reference(&MemorySink::new());
    for pos in 0..r.journal.len() {
        let mut bytes = r.journal.clone();
        bytes[pos] ^= 0x40;
        let store = MemStorage::with_bytes(bytes);
        let mut gas = Gas::unlimited();
        match recover(EdfAdmission, Box::new(store), &mut gas, &()) {
            Ok((eng, rep)) => {
                // The flip landed at or after some record boundary k; the
                // replayed prefix must match the reference at k.
                let k = rep.records_replayed as usize;
                assert!(k < r.cuts.len(), "flip at {pos}");
                assert_eq!(eng.state_digest(), r.digests[k], "flip at {pos}");
                assert!(rep.truncated_records >= 1, "flip at {pos}");
            }
            Err(RecoverError::Corrupt(_)) => {
                // The config record (or its framing) was hit — also fine.
            }
            Err(e) => panic!("flip at {pos}: unexpected error {e}"),
        }
    }
}

/// Garbage that was never a journal is `Corrupt`, not a panic, for a
/// spread of adversarial shapes (truncated headers, absurd lengths,
/// valid-looking frames holding nonsense).
#[test]
fn garbage_journals_are_corrupt_not_panics() {
    let cases: Vec<Vec<u8>> = vec![
        Vec::new(),
        vec![0x00],
        vec![0xFF; 7],
        vec![0xFF; 64],
        u32::MAX
            .to_le_bytes()
            .iter()
            .chain([0u8; 12].iter())
            .copied()
            .collect(),
        b"hetfeas-journal v1 but not framed".to_vec(),
    ];
    for (i, bytes) in cases.into_iter().enumerate() {
        let store = MemStorage::with_bytes(bytes);
        let mut gas = Gas::unlimited();
        let result = recover(EdfAdmission, Box::new(store), &mut gas, &());
        let err = result.map(|_| ()).expect_err("garbage must not recover");
        assert!(matches!(err, RecoverError::Corrupt(_)), "case {i}: {err:?}");
    }
}

/// Metamorphic check: under journaling, snapshot/rollback interleaved
/// with repacks behaves bit-identically to the plain in-memory engine,
/// and a recovery of the finished journal reproduces the same state —
/// for both EDF and RMS-LL admission.
fn durable_matches_plain_impl<A, F>(make: F, policy: &str)
where
    A: IndexableAdmission,
    F: Fn() -> A,
{
    let mem = MemStorage::new();
    let opts = DurableOptions {
        repack_after: 0,
        compact_every: 0,
        ..DurableOptions::default()
    };
    let mut gas = Gas::unlimited();
    let mut durable = DurableEngine::create(
        make(),
        &platform(),
        Augmentation::NONE,
        opts,
        Box::new(mem.clone()),
        &mut gas,
        &(),
    )
    .expect("create journaled engine");
    let mut plain = IncrementalEngine::with_policy(
        make(),
        &platform(),
        Augmentation::NONE,
        RepairPolicy::never(),
    );
    let (mut dur_ids, mut plain_ids) = (Vec::new(), Vec::new());
    for (i, op) in script().into_iter().enumerate() {
        apply_durable(&mut durable, op, &mut dur_ids, &());
        apply_plain(&mut plain, op, &mut plain_ids);
        assert_eq!(dur_ids, plain_ids, "{policy} op {i}");
        assert_eq!(
            loads_bits(durable.engine()),
            loads_bits(&plain),
            "{policy} op {i}"
        );
        assert_eq!(durable.assignment(), plain.assignment(), "{policy} op {i}");
    }
    let final_digest = durable.state_digest();
    drop(durable);
    let mut gas = Gas::unlimited();
    let (recovered, rep) = recover(
        make(),
        Box::new(MemStorage::with_bytes(mem.bytes())),
        &mut gas,
        &(),
    )
    .expect("recover finished journal");
    assert_eq!(rep.records_replayed, script().len() as u64);
    assert_eq!(rep.truncated_records, 0);
    assert_eq!(recovered.state_digest(), final_digest);
    assert_eq!(loads_bits(recovered.engine()), loads_bits(&plain));
    assert_eq!(recovered.assignment(), plain.assignment());
}

#[test]
fn durable_edf_matches_plain_engine() {
    durable_matches_plain_impl(|| EdfAdmission, "edf");
}

#[test]
fn durable_rms_ll_matches_plain_engine() {
    durable_matches_plain_impl(|| RmsLlAdmission, "rms-ll");
}

/// Compaction rewrites the journal to `[config, state, snapstate?]`; a
/// recovery immediately after must land on the same digest, and further
/// ops after recovery keep working.
#[test]
fn recovery_survives_explicit_compaction() {
    let mem = MemStorage::new();
    let opts = DurableOptions {
        repack_after: 0,
        compact_every: 0,
        ..DurableOptions::default()
    };
    let mut gas = Gas::unlimited();
    let mut eng = DurableEngine::create(
        EdfAdmission,
        &platform(),
        Augmentation::NONE,
        opts,
        Box::new(mem.clone()),
        &mut gas,
        &(),
    )
    .expect("create");
    // Heavy churn: many adds and removes whose net live set is tiny, so
    // the op log dwarfs the compacted state image.
    let mut ids = Vec::new();
    for i in 0..30u64 {
        apply_durable(&mut eng, Op::Add(1, 100 + i), &mut ids, &());
    }
    for k in 0..28 {
        apply_durable(&mut eng, Op::Remove(k), &mut ids, &());
    }
    apply_durable(&mut eng, Op::Snapshot, &mut ids, &());
    let before = mem.bytes().len();
    eng.compact(&mut gas, &()).expect("compact");
    assert!(
        mem.bytes().len() < before,
        "compaction shrinks a churned journal ({} -> {})",
        before,
        mem.bytes().len()
    );
    let digest = eng.state_digest();
    drop(eng);
    let (mut recovered, rep) = recover(
        EdfAdmission,
        Box::new(MemStorage::with_bytes(mem.bytes())),
        &mut gas,
        &(),
    )
    .expect("recover compacted journal");
    assert_eq!(recovered.state_digest(), digest);
    assert_eq!(rep.truncated_records, 0);
    // The held snapshot survived compaction: rollback still works.
    assert!(recovered.has_snapshot());
    assert!(recovered.rollback(&mut gas, &()).expect("rollback"));
    assert!(recovered
        .add(task(1, 8), &mut gas, &())
        .expect("add after recovery")
        .is_admitted());
}

/// Crash matrix through a *live* incremental compaction: with tiny
/// `slice_bytes` the state image copies over many slices, live appends
/// interleave between them, and a crash is simulated before and after
/// every slice by recovering from a copy of the store's current bytes.
/// The staged rewrite is invisible until commit and every acked op is in
/// the live journal, so recovery must be bit-exact at every crash point
/// — before, during and after the compaction.
#[test]
fn recovery_is_exact_at_every_mid_slice_crash_point() {
    let sink = MemorySink::new();
    let mem = MemStorage::new();
    let opts = DurableOptions {
        repack_after: 0,
        compact_every: 0,
        slice_bytes: 48,
    };
    let mut gas = Gas::unlimited();
    let mut eng = DurableEngine::create(
        EdfAdmission,
        &platform(),
        Augmentation::NONE,
        opts,
        Box::new(mem.clone()),
        &mut gas,
        &sink,
    )
    .expect("create");

    let check = |mem: &MemStorage, eng: &DurableEngine<EdfAdmission>, at: &str| {
        let mut gas = Gas::unlimited();
        let (rec, rep) = recover(
            EdfAdmission,
            Box::new(MemStorage::with_bytes(mem.bytes())),
            &mut gas,
            &(),
        )
        .unwrap_or_else(|e| panic!("crash {at}: {e}"));
        assert_eq!(rec.state_digest(), eng.state_digest(), "crash {at}");
        assert_eq!(rec.assignment(), eng.assignment(), "crash {at}");
        assert_eq!(rep.truncated_records, 0, "crash {at}");
    };

    // Churn so the live image is big enough to need several 48-byte
    // slices, with a held snapshot in the compacted image.
    let mut ids = Vec::new();
    for i in 0..24u64 {
        apply_durable(&mut eng, Op::Add(1, 50 + i), &mut ids, &sink);
    }
    for k in 0..18 {
        apply_durable(&mut eng, Op::Remove(k), &mut ids, &sink);
    }
    apply_durable(&mut eng, Op::Snapshot, &mut ids, &sink);
    let before = mem.bytes().len();

    assert!(eng
        .begin_compaction(&mut gas, &sink)
        .expect("begin compaction"));
    check(&mem, &eng, "right after begin");
    let mut slices = 0u32;
    let mut next_period = 200u64;
    loop {
        let step = eng.compaction_slice(&mut gas, &sink).expect("slice");
        slices += 1;
        assert!(slices < 10_000, "compaction never finished");
        check(&mem, &eng, &format!("after slice {slices}"));
        match step {
            CompactionStep::InProgress => {
                // A live append lands *between* slices; it must survive
                // the eventual commit (mirrored into the staged tail) and
                // every crash before it.
                apply_durable(&mut eng, Op::Add(2, next_period), &mut ids, &sink);
                next_period += 1;
                check(&mem, &eng, &format!("after mid-compaction append {slices}"));
            }
            CompactionStep::Done { .. } | CompactionStep::Idle => break,
        }
    }
    assert!(!eng.compaction_active(), "compaction finished");
    assert!(
        sink.counter(rmetrics::JOURNAL_COMPACT_SLICES) >= 3,
        "the image actually copied over multiple slices ({} slices)",
        sink.counter(rmetrics::JOURNAL_COMPACT_SLICES)
    );
    assert!(
        mem.bytes().len() < before,
        "compaction shrank the churned journal ({} -> {})",
        before,
        mem.bytes().len()
    );
    assert!(sink.counter(rmetrics::JOURNAL_BYTES_RECLAIMED) > 0);
    check(&mem, &eng, "after commit");

    // And the engine keeps working after the whole dance.
    apply_durable(&mut eng, Op::Add(1, 13), &mut ids, &sink);
    apply_durable(&mut eng, Op::Rollback, &mut ids, &sink);
    check(&mem, &eng, "after post-compaction ops");
}

/// Differential counter conformance: the journal/recover counters say
/// exactly what happened — appends and syncs per record, bytes equal to
/// the on-disk length (no compaction ran), replays and truncations as
/// reported.
#[test]
fn journal_counters_match_observed_io() {
    let sink = MemorySink::new();
    let r = run_reference(&sink);
    let ops = script().len() as u64;
    assert_eq!(sink.counter(rmetrics::JOURNAL_APPENDS), ops);
    assert_eq!(sink.counter(rmetrics::JOURNAL_SYNCS), ops);
    assert_eq!(
        sink.counter(rmetrics::JOURNAL_BYTES_WRITTEN),
        r.journal.len() as u64,
        "create's replace plus every append, nothing else"
    );
    assert_eq!(sink.counter(rmetrics::JOURNAL_COMPACTIONS), 0);
    assert_eq!(sink.counter(rmetrics::JOURNAL_RETRIES), 0);
    assert_eq!(sink.counter(rmetrics::JOURNAL_IO_ERRORS), 0);

    // A torn-tail recovery bumps the recover.* side.
    let torn = r.journal[..r.journal.len() - 3].to_vec();
    let rsink = MemorySink::new();
    let mut gas = Gas::unlimited();
    let (_, rep) = recover(
        EdfAdmission,
        Box::new(MemStorage::with_bytes(torn)),
        &mut gas,
        &rsink,
    )
    .expect("torn tail recovers");
    assert_eq!(
        rsink.counter(rmetrics::RECOVER_RECORDS_REPLAYED),
        rep.records_replayed
    );
    assert_eq!(rsink.counter(rmetrics::RECOVER_TRUNCATED_RECORDS), 1);
    assert_eq!(
        rsink.counter(rmetrics::RECOVER_TRUNCATED_BYTES),
        rep.truncated_bytes
    );
}

/// Recovering with the wrong policy key is `Corrupt` (the config record
/// names the admission test the journal was written under).
#[test]
fn recovery_rejects_a_policy_mismatch() {
    let r = run_reference(&MemorySink::new());
    let mut gas = Gas::unlimited();
    let err = recover(
        RmsLlAdmission,
        Box::new(MemStorage::with_bytes(r.journal)),
        &mut gas,
        &(),
    )
    .map(|_| ())
    .expect_err("edf journal must not replay as rms-ll");
    assert!(matches!(err, RecoverError::Corrupt(_)), "{err:?}");
}
