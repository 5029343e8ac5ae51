//! # hetfeas-experiments
//!
//! The evaluation harness. The paper is theory-only (no tables or
//! figures), so this crate regenerates the evaluation the paper *implies*
//! — one experiment per theorem plus the standard acceptance-ratio,
//! runtime, validation and ablation studies. `DESIGN.md` §3 is the index;
//! `EXPERIMENTS.md` records outcomes.
//!
//! | id  | module        | what |
//! |-----|---------------|------|
//! | E1  | [`theorems`]  | Theorem I.1: FF-EDF vs optimal partitioned, α ≤ 2 |
//! | E2  | [`theorems`]  | Theorem I.2: FF-RMS vs optimal partitioned, α ≤ 2.414 |
//! | E3  | [`theorems`]  | Theorem I.3: FF-EDF vs LP, α ≤ 2.98 |
//! | E4  | [`theorems`]  | Theorem I.4: FF-RMS vs LP, α ≤ 3.34 |
//! | E5  | [`acceptance`]| acceptance-ratio curves vs utilization |
//! | E6  | [`runtime`]   | O(n·m) running-time scaling |
//! | E7  | [`simulation`]| simulator validation of accepted partitions |
//! | E8  | [`ablation`]  | ordering/fit ablation |
//! | E9  | [`ablation`]  | RMS admission tightness (LL/hyperbolic/RTA) |
//! | E10 | [`constants`] | the paper's constant system |
//! | E11 | [`baselines`] | LP-rounding baseline vs first-fit |
//! | E12 | [`baselines`] | constrained-deadline extension (density vs QPA) |
//! | E13 | [`baselines`] | sporadic-release robustness |
//! | E14 | [`lowerbound`]| adversarial lower-bound search |
//! | E15 | [`baselines`] | partitioned vs global EDF (Dhall effect) |
//! | E16 | [`baselines`] | semi-partitioned splitting vs partitioning vs migration |
//! | E17 | [`baselines`] | period-menu granularity / discretization sensitivity |
//!
//! Run everything with `cargo run --release -p hetfeas-experiments --bin
//! run-experiments -- all`.
//!
//! Beyond the numbered experiments, [`replay`] is the batched front end of
//! the online admission engine: it replays op traces
//! ([`hetfeas_model::parse_op_trace`]) on either the incremental engine or
//! a from-scratch baseline, sharding independent instances across workers
//! (`hetfeas ops`).

#![warn(missing_docs)]

pub mod ablation;
pub mod acceptance;
pub mod alpha_search;
pub mod baselines;
pub mod config;
pub mod constants;
pub mod lowerbound;
pub mod replay;
pub mod runtime;
pub mod simulation;
pub mod stats;
pub mod sweep;
pub mod table;
pub mod theorems;

pub use config::ExpConfig;
pub use replay::{
    combine_digests, replay_instance, replay_ops, replay_sharded, replay_stream,
    replay_stream_with, FromScratch, Incremental, InstanceOutcome, InstanceReplayer, OpEngine,
    ReplayError, ReplayMode, ReplayStats, Sharding, StreamOps, StreamSummary,
};
pub use sweep::{run_checkpointed, CellOutcome, Checkpoint};
pub use table::Table;

/// An experiment entry: id, one-line description, runner.
pub struct Experiment {
    /// Short id (`e1` … `e10`).
    pub id: &'static str,
    /// One-line description for `--list`.
    pub description: &'static str,
    /// Runner producing one or more tables.
    pub run: fn(&ExpConfig) -> Vec<Table>,
}

/// The registry of all experiments, in id order.
pub fn all_experiments() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "e1",
            description: "Theorem I.1 — FF-EDF vs optimal partitioned adversary (α ≤ 2)",
            run: theorems::e1,
        },
        Experiment {
            id: "e2",
            description: "Theorem I.2 — FF-RMS vs optimal partitioned adversary (α ≤ 2.414)",
            run: theorems::e2,
        },
        Experiment {
            id: "e3",
            description: "Theorem I.3 — FF-EDF vs LP adversary (α ≤ 2.98)",
            run: theorems::e3,
        },
        Experiment {
            id: "e4",
            description: "Theorem I.4 — FF-RMS vs LP adversary (α ≤ 3.34)",
            run: theorems::e4,
        },
        Experiment {
            id: "e5",
            description: "Acceptance-ratio curves vs normalized utilization",
            run: acceptance::e5,
        },
        Experiment {
            id: "e6",
            description: "Running-time scaling in n and m (O(n·m) claim)",
            run: runtime::e6,
        },
        Experiment {
            id: "e7",
            description: "Discrete-event simulation validation of accepted partitions",
            run: simulation::e7,
        },
        Experiment {
            id: "e8",
            description: "Ordering & fit-strategy ablation",
            run: ablation::e8,
        },
        Experiment {
            id: "e9",
            description: "RMS admission tightness: LL vs hyperbolic vs exact RTA",
            run: ablation::e9,
        },
        Experiment {
            id: "e10",
            description: "Numeric verification of the paper's constant system",
            run: constants::e10,
        },
        Experiment {
            id: "e11",
            description: "LP-rounding baseline vs first-fit",
            run: baselines::e11,
        },
        Experiment {
            id: "e12",
            description: "Constrained-deadline extension: density vs exact QPA admission",
            run: baselines::e12,
        },
        Experiment {
            id: "e13",
            description: "Sporadic-release robustness of accepted partitions",
            run: baselines::e13,
        },
        Experiment {
            id: "e14",
            description: "Adversarial lower-bound search (worst-case instances)",
            run: lowerbound::e14,
        },
        Experiment {
            id: "e15",
            description: "Partitioned first-fit vs global EDF (Dhall effect)",
            run: baselines::e15,
        },
        Experiment {
            id: "e16",
            description: "Semi-partitioned task splitting vs partitioning vs migration",
            run: baselines::e16,
        },
        Experiment {
            id: "e17",
            description: "Period-menu granularity / discretization sensitivity",
            run: baselines::e17,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_complete_and_ordered() {
        let exps = all_experiments();
        assert_eq!(exps.len(), 17);
        for (i, e) in exps.iter().enumerate() {
            assert_eq!(e.id, format!("e{}", i + 1));
            assert!(!e.description.is_empty());
        }
    }

    #[test]
    fn every_experiment_runs_in_quick_mode() {
        // Smoke-run the cheap ones end to end; the expensive oracles are
        // exercised by their module tests with small samples.
        let cfg = ExpConfig {
            samples: 4,
            seed: 1,
            workers: 2,
        };
        for e in all_experiments() {
            let tables = (e.run)(&cfg);
            assert!(!tables.is_empty(), "{} produced no tables", e.id);
            for t in &tables {
                assert!(!t.headers.is_empty());
                assert!(!t.render().is_empty());
                assert!(!t.to_csv().is_empty());
            }
        }
    }
}
