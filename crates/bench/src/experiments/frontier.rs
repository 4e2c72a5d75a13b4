//! `exp_frontier` — the thread-parallel driver (the sharded work-stealing
//! frontier on a persistent [`Executor`], the production configuration)
//! on a batch of block-clustered instances, at 1/2/4/8 worker threads.
//!
//! The workload mirrors how the parallel driver is actually used: the
//! compact-set pipeline dispatches *many* group-sized subproblem solves,
//! not one giant search. Every instance must report the same optimum as
//! [`solve_sequential`]; the steal/donate/park counters show how much the
//! frontier's load balancing works at each width.

use std::sync::Arc;
use std::time::Instant;

use mutree_bnb::{solve_parallel, solve_sequential, SearchMode, SearchOptions};
use mutree_core::{Executor, MutProblem, ThreeThree};

use crate::data;
use crate::report::{fmt_secs, Table};

/// Instances per batch (20 sixteen-taxon + 380 twelve-taxon). Large
/// enough that per-solve dispatch costs are sampled many times, small
/// enough that one batch stays near a second.
const BATCH: usize = 400;

/// Repetitions per thread count; the cell is the best of them.
const REPS: usize = 4;

/// `exp_frontier` — batch wall-clock of the parallel driver at 1/2/4/8
/// workers, plus its contention counters.
pub fn exp_frontier() -> Table {
    let mut t = Table::new(
        "exp_frontier",
        "parallel driver: sharded work-stealing frontier on a shared executor, batch of 400 clustered solves (best of 4)",
        &[
            "threads",
            "batch_s",
            "same_optimum",
            "steals",
            "donations",
            "parks",
        ],
    );

    // Pipeline-scale instances — the compact-set pipeline dispatches
    // group solves of roughly threshold size, so the batch mixes a few
    // 16-taxon matrices with many 12-taxon ones, maxmin relabeling and
    // the UPGMM initial incumbent on (the production bound
    // configuration), a different seed per instance.
    let build = |clusters: usize, size: usize, seed: u64| {
        let m = data::clustered_matrix(clusters, size, seed);
        let pm = m.maxmin_permutation().apply(&m);
        Arc::new(MutProblem::new(&pm, ThreeThree::Off, true))
    };
    let problems: Vec<Arc<MutProblem>> = (0..20)
        .map(|i| build(4, 4, 0x5eed + i as u64))
        .chain((0..380).map(|i| build(4, 3, 0xfade + i as u64)))
        .collect();
    assert_eq!(problems.len(), BATCH);
    let opts = SearchOptions::new(SearchMode::BestOne);
    let reference: Vec<Option<f64>> = problems
        .iter()
        .map(|p| solve_sequential(&**p, &opts).best_value)
        .collect();

    for threads in [1usize, 2, 4, 8] {
        let exec = Executor::new(threads);
        let mut best = f64::INFINITY;
        let mut same = true;
        let (mut steals, mut donations, mut parks) = (0u64, 0u64, 0u64);
        for _ in 0..REPS {
            // Counters are summed over the batch of the last repetition.
            (steals, donations, parks) = (0, 0, 0);
            let t0 = Instant::now();
            let optima: Vec<Option<f64>> = problems
                .iter()
                .map(|p| {
                    let out = solve_parallel(Arc::clone(p), &opts, threads, &exec, ());
                    steals += out.stats.steals;
                    donations += out.stats.donations;
                    parks += out.stats.parks;
                    out.best_value
                })
                .collect();
            best = best.min(t0.elapsed().as_secs_f64());
            same &= optima.iter().zip(&reference).all(|pair| match pair {
                (Some(p), Some(s)) => (p - s).abs() < 1e-9,
                _ => false,
            });
        }
        t.push(vec![
            threads.to_string(),
            fmt_secs(best),
            same.to_string(),
            steals.to_string(),
            donations.to_string(),
            parks.to_string(),
        ]);
    }
    t
}
