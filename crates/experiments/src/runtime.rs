//! Experiment E6: running-time scaling of the feasibility test.
//!
//! §III claims `O(n log n + n·m)` total work. We time the first-fit scan
//! (sorting included) over geometric sweeps of `n` (machines fixed) and of
//! `m` (tasks fixed) and report nanoseconds per `n·m` admission check,
//! which should stay roughly flat, plus a linear fit of time vs `n·m`.

use crate::config::ExpConfig;
use crate::stats::linear_fit;
use crate::table::Table;
use hetfeas_model::Augmentation;
use hetfeas_obs::{MemorySink, MetricsSink};
use hetfeas_partition::{
    first_fit, first_fit_ordered, metrics, EdfAdmission, FirstFitEngine, ScanWorkspace,
};
use hetfeas_robust::Gas;
use hetfeas_workload::{Instance, PeriodMenu, PlatformSpec, UtilizationSampler, WorkloadSpec};
use std::time::Instant;

/// The reference scan's admission checks (`ff.admission_checks`) on one
/// EDF instance at α = 1 — exact work, not time.
fn scan_checks(inst: &Instance) -> u64 {
    let sink = MemorySink::new();
    let (tasks, platform) = (&inst.tasks, &inst.platform);
    first_fit_ordered(
        tasks,
        platform,
        Augmentation::NONE,
        &EdfAdmission,
        &tasks.order_by_decreasing_utilization(),
        &platform.order_by_increasing_speed(),
        &mut ScanWorkspace::new(),
        &mut Gas::unlimited(),
        &sink,
    );
    sink.counter(metrics::FF_ADMISSION_CHECKS)
}

/// Median-of-`reps` wall time of one first-fit run, in nanoseconds.
fn time_first_fit(spec: &WorkloadSpec, seed: u64, reps: usize) -> Option<f64> {
    let inst = spec.generate(seed, 0)?;
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            let out = first_fit(
                &inst.tasks,
                &inst.platform,
                Augmentation::NONE,
                &EdfAdmission,
            );
            let dt = start.elapsed().as_nanos() as f64;
            std::hint::black_box(&out);
            dt
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    Some(times[times.len() / 2])
}

/// Median wall times of the linear scan vs the indexed engine on the same
/// instance, in nanoseconds. The engine is reused across reps, so the reps
/// beyond the first also measure its workspace amortization.
fn time_scan_vs_indexed(spec: &WorkloadSpec, seed: u64, reps: usize) -> Option<(f64, f64)> {
    let inst = spec.generate(seed, 0)?;
    let mut engine = FirstFitEngine::new(EdfAdmission);
    let mut scan_times = Vec::with_capacity(reps);
    let mut idx_times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let start = Instant::now();
        let out = first_fit(
            &inst.tasks,
            &inst.platform,
            Augmentation::NONE,
            &EdfAdmission,
        );
        scan_times.push(start.elapsed().as_nanos() as f64);
        std::hint::black_box(&out);

        let start = Instant::now();
        let out = engine.run(
            &inst.tasks,
            &inst.platform,
            Augmentation::NONE,
            &mut Gas::unlimited(),
            &(),
        );
        idx_times.push(start.elapsed().as_nanos() as f64);
        std::hint::black_box(&out);
    }
    let median = |v: &mut Vec<f64>| {
        v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        v[v.len() / 2]
    };
    Some((median(&mut scan_times), median(&mut idx_times)))
}

/// E6: scaling tables (time vs n, time vs m).
pub fn e6(cfg: &ExpConfig) -> Vec<Table> {
    e6_with(cfg, &())
}

/// [`e6`] with metrics: each sweep runs under a scoped phase timer
/// (`e6.n_sweep`, `e6.m_sweep`, `e6.counts`, `e6.scan_vs_indexed`) so a
/// report can break the experiment's wall time down by phase — render them
/// with [`crate::stats::phase_table`]. Passing `&()` is exactly [`e6`].
pub fn e6_with<S: MetricsSink>(cfg: &ExpConfig, sink: &S) -> Vec<Table> {
    // High load so the scan visits many machines per task (worst-case-ish).
    let u_norm = 0.9;
    let reps = 5;
    let mut tables = Vec::new();

    // --- sweep n, m fixed ---
    {
        let _phase = sink.timer("e6.n_sweep");
        let m_fixed = 16;
        let n_values: &[usize] = if cfg.samples <= 50 {
            &[512, 1024, 2048, 4096]
        } else {
            &[1024, 2048, 4096, 8192, 16384, 32768, 65536]
        };
        let mut t1 = Table::new(
            "E6a: running time vs n (m = 16)",
            &["n", "m", "time (µs)", "ns / (n·m)"],
        );
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for (i, &n) in n_values.iter().enumerate() {
            let spec = WorkloadSpec {
                n_tasks: n,
                normalized_utilization: u_norm,
                platform: PlatformSpec::UniformRandom {
                    m: m_fixed,
                    lo: 1,
                    hi: 8,
                },
                sampler: UtilizationSampler::UUniFastCapped,
                periods: PeriodMenu::standard(),
            };
            if let Some(ns) = time_first_fit(&spec, cfg.cell_seed(i as u64), reps) {
                xs.push((n * m_fixed) as f64);
                ys.push(ns);
                t1.push_row(vec![
                    n.to_string(),
                    m_fixed.to_string(),
                    format!("{:.1}", ns / 1e3),
                    format!("{:.2}", ns / (n * m_fixed) as f64),
                ]);
            }
        }
        let (_, slope, r2) = linear_fit(&xs, &ys);
        t1.note(format!(
            "linear fit time ≈ a + b·(n·m): b = {slope:.2} ns per unit, r² = {r2:.4} (O(nm) ⇒ r² ≈ 1)"
        ));
        tables.push(t1);
    }

    // --- sweep m, n fixed ---
    let n_fixed = if cfg.samples <= 50 { 2048 } else { 8192 };
    {
        let _phase = sink.timer("e6.m_sweep");
        let m_values: &[usize] = &[2, 4, 8, 16, 32, 64, 128];
        let mut t2 = Table::new(
            format!("E6b: running time vs m (n = {n_fixed})"),
            &["n", "m", "time (µs)", "ns / (n·m)"],
        );
        for (i, &m) in m_values.iter().enumerate() {
            let spec = WorkloadSpec {
                n_tasks: n_fixed,
                normalized_utilization: u_norm,
                platform: PlatformSpec::UniformRandom { m, lo: 1, hi: 8 },
                sampler: UtilizationSampler::UUniFastCapped,
                periods: PeriodMenu::standard(),
            };
            if let Some(ns) = time_first_fit(&spec, cfg.cell_seed(100 + i as u64), reps) {
                t2.push_row(vec![
                    n_fixed.to_string(),
                    m.to_string(),
                    format!("{:.1}", ns / 1e3),
                    format!("{:.2}", ns / (n_fixed * m) as f64),
                ]);
            }
        }
        t2.note(
            "per-(n·m) cost falling with m means the scan stops early; the bound is worst-case"
                .to_string(),
        );
        tables.push(t2);
    }

    // --- exact operation counts (machine-independent) ---
    {
        let _phase = sink.timer("e6.counts");
        let mut t3 = Table::new(
            "E6c: exact admission-check counts (instrumented first-fit)",
            &["n", "m", "U/S", "checks", "n·m bound", "checks/(n·m)"],
        );
        for (i, &(n, m, u)) in [
            (256usize, 8usize, 0.5f64),
            (256, 8, 0.9),
            (256, 8, 0.99),
            (1024, 16, 0.9),
            (4096, 32, 0.9),
        ]
        .iter()
        .enumerate()
        {
            let spec = WorkloadSpec {
                n_tasks: n,
                normalized_utilization: u,
                platform: PlatformSpec::UniformRandom { m, lo: 1, hi: 8 },
                sampler: UtilizationSampler::UUniFastCapped,
                periods: PeriodMenu::standard(),
            };
            if let Some(inst) = spec.generate(cfg.cell_seed(200 + i as u64), 0) {
                let checks = scan_checks(&inst);
                let bound = (n * m) as u64;
                t3.push_row(vec![
                    n.to_string(),
                    m.to_string(),
                    format!("{u:.2}"),
                    checks.to_string(),
                    bound.to_string(),
                    format!("{:.3}", checks as f64 / bound as f64),
                ]);
            }
        }
        t3.note("checks ≤ n·m always; the ratio grows with load as tasks walk further up the speed ladder");
        tables.push(t3);
    }

    // --- linear scan vs indexed engine, sweeping m ---
    {
        let _phase = sink.timer("e6.scan_vs_indexed");
        let n_idx = if cfg.samples <= 50 { 1024 } else { 4096 };
        let m_idx: &[usize] = if cfg.samples <= 50 {
            &[16, 64, 256]
        } else {
            &[16, 64, 256, 1024, 4096]
        };
        let mut t4 = Table::new(
            format!("E6d: linear scan vs indexed engine (n = {n_idx})"),
            &[
                "n",
                "m",
                "scan (µs)",
                "indexed (µs)",
                "speedup",
                "scan checks",
                "engine evals",
            ],
        );
        for (i, &m) in m_idx.iter().enumerate() {
            let seed = cfg.cell_seed(300 + i as u64);
            let spec = WorkloadSpec {
                n_tasks: n_idx,
                normalized_utilization: u_norm,
                platform: PlatformSpec::UniformRandom { m, lo: 1, hi: 8 },
                sampler: UtilizationSampler::UUniFastCapped,
                periods: PeriodMenu::standard(),
            };
            if let Some((scan, indexed)) = time_scan_vs_indexed(&spec, seed, reps) {
                // Exact work counters on the same (deterministic) instance,
                // outside the timed reps so they cannot perturb the timing.
                let inst = spec.generate(seed, 0).expect("timed above");
                let row_sink = MemorySink::new();
                FirstFitEngine::new(EdfAdmission).run(
                    &inst.tasks,
                    &inst.platform,
                    Augmentation::NONE,
                    &mut Gas::unlimited(),
                    &row_sink,
                );
                t4.push_row(vec![
                    n_idx.to_string(),
                    m.to_string(),
                    format!("{:.1}", scan / 1e3),
                    format!("{:.1}", indexed / 1e3),
                    format!("{:.2}", scan / indexed),
                    scan_checks(&inst).to_string(),
                    row_sink
                        .counter(metrics::ENGINE_ADMISSION_EVALS)
                        .to_string(),
                ]);
            }
        }
        t4.note(
            "identical outcomes by construction (property-tested); the engine fills one machine at \
             a time, finding each machine's next task by a gallop over the sorted utilizations \
             instead of an O(m) scan per task, so its time is nearly flat in m"
                .to_string(),
        );
        t4.note(
            "'scan checks' is the reference admission-check count; 'engine evals' is how many \
             exact admission evaluations the engine's machine-major run made"
                .to_string(),
        );
        tables.push(t4);
    }
    tables
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e6_produces_two_tables_with_fits() {
        let cfg = ExpConfig {
            samples: 10,
            seed: 1,
            workers: 1,
        };
        let ts = e6(&cfg);
        assert_eq!(ts.len(), 4);
        assert_eq!(ts[0].rows.len(), 4); // quick n-sweep
        assert!(ts[0].notes[0].contains("r²"));
        assert_eq!(ts[1].rows.len(), 7);
        // E6c: the hard bound must hold in every row.
        for row in &ts[2].rows {
            let checks: u64 = row[3].parse().unwrap();
            let bound: u64 = row[4].parse().unwrap();
            assert!(checks <= bound, "{row:?}");
        }
        // E6d: both timing columns are populated and finite.
        assert_eq!(ts[3].rows.len(), 3); // quick m-sweep
        for row in &ts[3].rows {
            let scan: f64 = row[2].parse().unwrap();
            let indexed: f64 = row[3].parse().unwrap();
            assert!(scan > 0.0 && indexed > 0.0, "{row:?}");
            // Work counters: the engine evaluates about 2·log2(n) per
            // task at most, plus two per machine.
            let (n, m): (u64, u64) = (row[0].parse().unwrap(), row[1].parse().unwrap());
            let evals: u64 = row[6].parse().unwrap();
            let bits = u64::from(u64::BITS - n.leading_zeros());
            assert!((1..=n * (2 * bits + 2) + 2 * m).contains(&evals), "{row:?}");
        }
    }

    #[test]
    fn e6_with_records_phase_timings() {
        use hetfeas_obs::MemorySink;
        let cfg = ExpConfig {
            samples: 10,
            seed: 1,
            workers: 1,
        };
        let sink = MemorySink::new();
        let ts = e6_with(&cfg, &sink);
        assert_eq!(ts.len(), 4);
        for phase in [
            "e6.n_sweep",
            "e6.m_sweep",
            "e6.counts",
            "e6.scan_vs_indexed",
        ] {
            let stat = sink.timer_stat(phase);
            assert_eq!(stat.count, 1, "{phase} not timed");
            assert!(stat.total_ns > 0, "{phase} zero duration");
        }
        // Phase timings render into a table for the E6 report.
        let t = crate::stats::phase_table("E6 phases", &sink.snapshot());
        assert_eq!(t.rows.len(), 4);
    }

    #[test]
    fn timings_are_positive() {
        let cfg = ExpConfig {
            samples: 10,
            seed: 1,
            workers: 1,
        };
        for t in e6(&cfg) {
            for row in &t.rows {
                let us: f64 = row[2].parse().unwrap();
                assert!(us > 0.0);
            }
        }
    }
}
