//! `exp_propagate` — the constraint-propagation prune stage against the
//! weight-only baseline, on the shared 400-solve clustered batch.
//!
//! The expansion kernel runs two prune stages: the weight bound
//! (`ω(partial) + suffix`) and, behind [`PruneStrategy`], the
//! propagation stage — under `ThreeThree::Full`, the packed
//! triple-domain arm-wipeout masks. Both
//! stages are answer-preserving (`tests/prune_differential.rs` pins the
//! optima bit for bit), so this experiment prices the trade directly:
//! nodes the propagation stage removes vs the fixpoint arithmetic it
//! adds per branched node.
//!
//! The batch, relabeling and rep protocol mirror `exp_frontier` — 20
//! sixteen-taxon + 380
//! twelve-taxon clustered instances, maxmin + UPGMM, interleaved best of
//! 4 — but with the full 3-3 rule on, since that is the only
//! configuration where the triple domains carry close-pair structure.
//! Thread counts 1/4/8 separate the sequential win from the parallel
//! one: at 1 thread the strategies' branched counts are deterministic
//! (and `weight ≥ propagate` is a theorem the table re-checks);
//! under the parallel driver expansion order is scheduling-dependent, so
//! those rows report wall-clock plus last-rep node counts.

use std::sync::Arc;
use std::time::Instant;

use mutree_bnb::{
    solve_parallel, solve_sequential, BoundKernel, SearchMode, SearchOptions, SpawnPool,
};
use mutree_core::{MutProblem, PruneStrategy, ThreeThree};

use crate::data;
use crate::report::{fmt_secs, Table};

/// Instances per batch — identical mix to `exp_frontier`, so both
/// experiments watch the same hot path.
const BATCH: usize = 400;

/// Interleaved repetitions; each strategy's cell is the best of its
/// reps, and the strategies alternate within a rep so slow host phases
/// hit both equally.
const REPS: usize = 4;

/// Per-instance outcome: optimum bits, branched nodes, propagation
/// prunes.
type Outcome = (Option<u64>, u64, u64);

/// One timed batch pass under one strategy at one thread count.
fn run_batch(
    problems: &[Arc<MutProblem<1>>],
    opts: &SearchOptions,
    threads: usize,
) -> Vec<Outcome> {
    problems
        .iter()
        .map(|p| {
            let out = if threads == 1 {
                solve_sequential(&**p, opts)
            } else {
                solve_parallel(Arc::clone(p), opts, threads, &SpawnPool, ())
            };
            (
                out.best_value.map(f64::to_bits),
                out.stats.branched,
                out.stats.propagation_pruned,
            )
        })
        .collect()
}

/// `exp_propagate` — weight-only vs propagate prune stages at
/// 1/4/8 threads on the 400-solve clustered batch (full 3-3 rule,
/// interleaved best of 4).
pub fn exp_propagate() -> Table {
    let mut t = Table::new(
        "exp_propagate",
        "prune stages: weight-only vs constraint propagation, batch of 400 clustered solves under the full 3-3 rule (interleaved best of 4)",
        &[
            "threads",
            "weight",
            "propagate",
            "prop_speedup",
            "branched_weight",
            "branched_propagate",
            "prop_pruned",
            "same_optimum",
        ],
    );

    // The exp_frontier workload, maxmin-relabeled, but with the full 3-3
    // rule so the arm-wipeout masks are live; one problem vector per
    // strategy, shared across every thread count.
    let matrices: Vec<_> = (0..20)
        .map(|i| data::clustered_matrix(4, 4, 0x5eed + i as u64))
        .chain((0..380).map(|i| data::clustered_matrix(4, 3, 0xfade + i as u64)))
        .map(|m| m.maxmin_permutation().apply(&m))
        .collect();
    assert_eq!(matrices.len(), BATCH);
    let build = |prune: PruneStrategy| -> Vec<Arc<MutProblem<1>>> {
        matrices
            .iter()
            .map(|pm| {
                Arc::new(MutProblem::<1>::with_config(
                    pm,
                    ThreeThree::Full,
                    true,
                    BoundKernel::default(),
                    prune,
                ))
            })
            .collect()
    };
    let weight = build(PruneStrategy::WeightOnly);
    let propagate = build(PruneStrategy::Propagate);
    let opts = SearchOptions::new(SearchMode::BestOne);

    for threads in [1usize, 4, 8] {
        let (mut weight_s, mut prop_s) = (f64::INFINITY, f64::INFINITY);
        let mut weight_out = Vec::new();
        let mut prop_out = Vec::new();
        for _ in 0..REPS {
            let t0 = Instant::now();
            weight_out = run_batch(&weight, &opts, threads);
            weight_s = weight_s.min(t0.elapsed().as_secs_f64());

            let t0 = Instant::now();
            prop_out = run_batch(&propagate, &opts, threads);
            prop_s = prop_s.min(t0.elapsed().as_secs_f64());
        }
        let same_optimum =
            (0..BATCH).all(|i| weight_out[i].0.is_some() && weight_out[i].0 == prop_out[i].0);
        if threads == 1 {
            // Sequential counts are deterministic; propagation may only
            // ever shrink the search (see tests/prune_differential.rs).
            for i in 0..BATCH {
                assert!(prop_out[i].1 <= weight_out[i].1, "propagation widened #{i}");
            }
        }
        let nodes = |out: &[Outcome]| out.iter().map(|(_, b, _)| b).sum::<u64>();
        t.push(vec![
            threads.to_string(),
            fmt_secs(weight_s),
            fmt_secs(prop_s),
            format!("{:.3}", weight_s / prop_s.max(1e-12)),
            nodes(&weight_out).to_string(),
            nodes(&prop_out).to_string(),
            prop_out.iter().map(|(_, _, p)| p).sum::<u64>().to_string(),
            same_optimum.to_string(),
        ]);
    }
    t
}
