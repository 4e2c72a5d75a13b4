//! Property tests: MST agreement, union-find vs a naive model, compact
//! sets against their definition.

use mutree_distmat::{gen, DistanceMatrix};
use mutree_graph::{kruskal, prim, CompactSets, UnionFind, WeightedGraph};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A matrix of one of three families: small integers in `0..4` (heavily
/// tied), all entries equal, and a perturbed ultrametric (tie-free).
fn family_matrix(family: u8, n: usize, seed: u64) -> DistanceMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    if family == 2 {
        return gen::perturbed_ultrametric(n, 40.0, 0.15, &mut rng);
    }
    let constant = rng.gen_range(0u32..3) as f64;
    let mut m = DistanceMatrix::zeros(n).unwrap();
    for i in 1..n {
        for j in 0..i {
            let d = if family == 0 {
                rng.gen_range(0u32..4) as f64
            } else {
                constant
            };
            m.set(i, j, d);
        }
    }
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn kruskal_equals_prim_on_complete_graphs(n in 2usize..14, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let m = gen::uniform_metric(n, 1.0, 100.0, &mut rng);
        let g = WeightedGraph::from_matrix(&m);
        let k = kruskal(&g).unwrap();
        let p = prim(&g).unwrap();
        prop_assert!((k.weight() - p.weight()).abs() < 1e-9);
        prop_assert_eq!(k.edges().len(), n - 1);
    }

    #[test]
    fn union_find_matches_naive_model(ops in proptest::collection::vec((0usize..12, 0usize..12), 0..40)) {
        let n = 12;
        let mut uf = UnionFind::new(n);
        // Naive model: component label per element.
        let mut label: Vec<usize> = (0..n).collect();
        for (a, b) in ops {
            let (la, lb) = (label[a], label[b]);
            let expect_merge = la != lb;
            prop_assert_eq!(uf.union(a, b).is_some(), expect_merge);
            if expect_merge {
                for l in label.iter_mut() {
                    if *l == lb {
                        *l = la;
                    }
                }
            }
        }
        for a in 0..n {
            for b in 0..n {
                prop_assert_eq!(uf.same(a, b), label[a] == label[b]);
            }
        }
        let labels: std::collections::HashSet<usize> = label.iter().copied().collect();
        prop_assert_eq!(uf.components(), labels.len());
    }

    /// Brute-force definition check: enumerate all `2^n` subsets and
    /// require the reported family to be exactly the proper compact sets
    /// (`2 ≤ |A| < n`, `Max(A) < Min(A, !A)`), each listed after its
    /// subsets. Runs on small-integer (heavily tied), all-equal
    /// and perturbed-ultrametric matrices.
    #[test]
    fn compact_sets_match_definition(n in 2usize..=10, family in 0u8..3, seed in any::<u64>()) {
        let m = family_matrix(family, n, seed);
        let cs = CompactSets::find(&m);
        let mut want: Vec<Vec<usize>> = Vec::new();
        for mask in 1u32..(1 << n) - 1 {
            let members: Vec<usize> = (0..n).filter(|&v| mask >> v & 1 == 1).collect();
            if members.len() < 2 {
                continue;
            }
            let mut max_in = 0.0f64;
            let mut min_out = f64::INFINITY;
            for &a in &members {
                for b in 0..n {
                    if mask >> b & 1 == 0 {
                        min_out = min_out.min(m.get(a, b));
                    } else if b > a {
                        max_in = max_in.max(m.get(a, b));
                    }
                }
            }
            if max_in < min_out {
                want.push(members);
            }
        }
        let mut got: Vec<Vec<usize>> = cs.iter().map(|s| s.members().to_vec()).collect();
        // Detection order puts every set after its subsets.
        for (i, a) in got.iter().enumerate() {
            for b in &got[i + 1..] {
                prop_assert!(!b.iter().all(|v| a.contains(v)), "{:?} after {:?}", b, a);
            }
        }
        got.sort();
        want.sort();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn partition_respects_threshold(n in 4usize..14, seed in any::<u64>(), threshold in 2usize..8) {
        let mut rng = StdRng::seed_from_u64(seed);
        let m = gen::perturbed_ultrametric(n, 40.0, 0.1, &mut rng);
        let cs = CompactSets::find(&m);
        let groups = cs.partition(threshold);
        let mut all: Vec<usize> = groups.concat();
        all.sort_unstable();
        prop_assert_eq!(all, (0..n).collect::<Vec<_>>());
        for g in &groups {
            prop_assert!(g.len() <= threshold.max(1));
        }
    }

    #[test]
    fn mst_weight_lower_bounds_any_spanning_tree(n in 3usize..9, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let m = gen::uniform_metric(n, 1.0, 100.0, &mut rng);
        let g = WeightedGraph::from_matrix(&m);
        let mst = kruskal(&g).unwrap();
        // A star rooted at each vertex is a spanning tree; none may be
        // lighter than the MST.
        for center in 0..n {
            let star: f64 = (0..n).filter(|&v| v != center).map(|v| m.get(center, v)).sum();
            prop_assert!(mst.weight() <= star + 1e-9);
        }
    }
}

#[test]
fn compact_sets_on_perfect_clusters() {
    // Two tight clusters far apart: both must be compact.
    let m = DistanceMatrix::from_rows(&[
        vec![0.0, 1.0, 1.2, 50.0, 50.0],
        vec![1.0, 0.0, 1.1, 50.0, 50.0],
        vec![1.2, 1.1, 0.0, 50.0, 50.0],
        vec![50.0, 50.0, 50.0, 0.0, 2.0],
        vec![50.0, 50.0, 50.0, 2.0, 0.0],
    ])
    .unwrap();
    let cs = CompactSets::find(&m);
    let members: Vec<Vec<usize>> = cs.iter().map(|s| s.members().to_vec()).collect();
    assert!(members.contains(&vec![0, 1, 2]));
    assert!(members.contains(&vec![3, 4]));
}
