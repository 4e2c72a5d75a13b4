//! Differential agreement between the prune-stage strategies: the
//! weight-only search (the reference) and the constraint-propagation
//! search must find *the same answer* — identical optimum weight to the
//! bit and identical topology (RF = 0) — on every driver and at every
//! monomorphized leaf width. Propagation is a pure 3-3 look-ahead, so it
//! may only discard nodes whose completions the 3-3 feasibility check
//! would reject anyway; it must also never *widen* the sequential
//! search.
//!
//! `ThreeThree::Full` cases are included deliberately: that is the only
//! configuration where the triple-domain arm-wipeout masks are active.
//! Without it the two strategies must run the same search node for node.

use mutree::clustersim::ClusterSpec;
use mutree::core::{MutSolver, PruneStrategy, SearchBackend, ThreeThree};
use mutree::distmat::gen;
use mutree::seqgen;
use mutree::tree::compare::robinson_foulds;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Sequential, all leaf widths, both 3-3 settings: bit-identical
    /// weight, RF-0 topology, and a search that never grows.
    #[test]
    fn strategies_agree_sequentially_at_every_width(
        n in 6usize..10,
        seed in any::<u64>(),
        full_33 in any::<bool>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let m = gen::perturbed_ultrametric(n, 60.0, 0.08, &mut rng);
        let rule = if full_33 { ThreeThree::Full } else { ThreeThree::Off };
        for words in [1usize, 2, 4] {
            let solve = |p| {
                MutSolver::new()
                    .leaf_words(words)
                    .three_three(rule)
                    .prune(p)
                    .solve(&m)
                    .unwrap()
            };
            let base = solve(PruneStrategy::WeightOnly);
            let sol = solve(PruneStrategy::Propagate);
            prop_assert!(sol.is_complete(), "K={words} {rule:?}");
            prop_assert_eq!(
                base.weight.to_bits(), sol.weight.to_bits(),
                "K={} {:?}: weight differs", words, rule
            );
            prop_assert_eq!(
                robinson_foulds(&base.tree, &sol.tree).unwrap(), 0,
                "K={} {:?}: topologies differ", words, rule
            );
            prop_assert!(
                sol.stats.branched <= base.stats.branched,
                "K={} {:?}: propagation widened the search ({} > {})",
                words, rule, sol.stats.branched, base.stats.branched
            );
            if !full_33 {
                // No arm masks without the Full rule: the same search.
                prop_assert_eq!(sol.stats.branched, base.stats.branched, "K={}", words);
                prop_assert_eq!(sol.stats.pruned, base.stats.pruned, "K={}", words);
                prop_assert_eq!(sol.stats.propagation_pruned, 0, "K={}", words);
            }
        }
    }

    /// The thread-parallel and simulated-cluster drivers agree on the
    /// optimum under propagation (parallel expansion order is
    /// scheduling-dependent, so the cross-driver contract is optimum +
    /// completeness; the deterministic sim also pins topology).
    #[test]
    fn strategies_agree_on_parallel_and_simulated_drivers(
        seed in any::<u64>(),
        full_33 in any::<bool>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let m = gen::perturbed_ultrametric(8, 60.0, 0.08, &mut rng);
        let rule = if full_33 { ThreeThree::Full } else { ThreeThree::Off };
        let base = MutSolver::new()
            .three_three(rule)
            .prune(PruneStrategy::WeightOnly)
            .solve(&m)
            .unwrap();
        let par = MutSolver::new()
            .three_three(rule)
            .prune(PruneStrategy::Propagate)
            .backend(SearchBackend::Parallel { workers: 4 })
            .solve(&m)
            .unwrap();
        prop_assert!(par.is_complete(), "parallel {rule:?}");
        prop_assert_eq!(
            base.weight.to_bits(), par.weight.to_bits(),
            "parallel {:?}: weight differs", rule
        );
        let sim = MutSolver::new()
            .three_three(rule)
            .prune(PruneStrategy::Propagate)
            .backend(SearchBackend::SimulatedCluster {
                spec: ClusterSpec::with_slaves(3),
            })
            .solve(&m)
            .unwrap();
        prop_assert!(sim.is_complete(), "sim {rule:?}");
        prop_assert_eq!(
            base.weight.to_bits(), sim.weight.to_bits(),
            "sim {:?}: weight differs", rule
        );
        prop_assert_eq!(
            robinson_foulds(&base.tree, &sim.tree).unwrap(), 0,
            "sim {:?}: topologies differ", rule
        );
    }
}

/// Sequence-derived workload under `Full` 3-3, where the triple domains
/// carry real close-pair structure: propagation must shrink (or at least
/// not grow) the search while reproducing the optimum bit for bit.
#[test]
fn propagation_shrinks_the_search_on_sequence_workloads() {
    let mut rng = StdRng::seed_from_u64(99);
    let m = seqgen::hmdna_like_matrix(11, 150, &mut rng);
    let base = MutSolver::new()
        .three_three(ThreeThree::Full)
        .prune(PruneStrategy::WeightOnly)
        .solve(&m)
        .unwrap();
    let sol = MutSolver::new()
        .three_three(ThreeThree::Full)
        .prune(PruneStrategy::Propagate)
        .solve(&m)
        .unwrap();
    assert_eq!(base.weight.to_bits(), sol.weight.to_bits());
    assert_eq!(robinson_foulds(&base.tree, &sol.tree).unwrap(), 0);
    assert!(sol.stats.branched <= base.stats.branched);
    assert_eq!(base.stats.propagation_pruned, 0);
}

/// Propagation is the default; the builder selects the weight-only
/// reference, which finds the same optimum with no propagation prunes.
#[test]
fn builder_selects_prune_strategy() {
    let mut rng = StdRng::seed_from_u64(6);
    let m = gen::uniform_metric(8, 1.0, 100.0, &mut rng);
    let solver = MutSolver::new().three_three(ThreeThree::Full);
    assert_eq!(solver.dispatch_prune(), PruneStrategy::Propagate);
    let weight_only = solver.clone().prune(PruneStrategy::WeightOnly);
    assert_eq!(weight_only.dispatch_prune(), PruneStrategy::WeightOnly);

    let base = weight_only.solve(&m).unwrap();
    let sol = solver.solve(&m).unwrap();
    assert_eq!(base.stats.propagation_pruned, 0);
    assert_eq!(sol.weight.to_bits(), base.weight.to_bits());
    assert_eq!(robinson_foulds(&sol.tree, &base.tree).unwrap(), 0);
}
