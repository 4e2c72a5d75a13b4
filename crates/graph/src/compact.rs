use mutree_distmat::DistanceMatrix;

/// A compact set: a vertex subset whose largest internal distance is smaller
/// than its smallest escaping distance (`Max(C) < Min(C, V ∖ C)`).
#[derive(Debug, Clone, PartialEq)]
pub struct CompactSet {
    members: Vec<usize>,
    max_internal: f64,
    min_crossing: f64,
}

impl CompactSet {
    /// The member vertices, sorted ascending.
    pub fn members(&self) -> &[usize] {
        &self.members
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Compact sets always have at least two members here, so this is
    /// always `false`.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// `Max(C)`: the largest pairwise distance inside the set.
    pub fn max_internal(&self) -> f64 {
        self.max_internal
    }

    /// `Min(C, V ∖ C)`: the smallest distance from a member to a
    /// non-member.
    pub fn min_crossing(&self) -> f64 {
        self.min_crossing
    }

    /// Whether `other ⊆ self`.
    pub fn contains_set(&self, other: &CompactSet) -> bool {
        // Both member lists are sorted.
        let mut it = self.members.iter().peekable();
        'outer: for x in &other.members {
            for y in it.by_ref() {
                match y.cmp(x) {
                    std::cmp::Ordering::Equal => continue 'outer,
                    std::cmp::Ordering::Greater => return false,
                    std::cmp::Ordering::Less => {}
                }
            }
            return false;
        }
        true
    }
}

/// All *proper* compact sets of a distance matrix: sets with at least two
/// members and fewer than all of them. Singletons and the full vertex set
/// are compact by convention and are omitted.
///
/// Sets are stored in detection order (ascending merge weight), which places
/// every set after all of its subsets.
#[derive(Debug, Clone, PartialEq)]
pub struct CompactSets {
    n: usize,
    sets: Vec<CompactSet>,
    /// `parent[i]`: the smallest set strictly containing set `i`, recorded
    /// when that set was detected.
    parent: Vec<Option<usize>>,
}

impl CompactSets {
    /// Runs the paper's compact-set algorithm (§3.1) in `O(n²)` time with
    /// one `n × n` working buffer:
    ///
    /// 1. build the minimum spanning tree of the complete distance graph
    ///    with a dense Prim scan over the matrix rows (copied once into the
    ///    buffer), comparing edges by the strict total order
    ///    `(weight, smaller endpoint, larger endpoint)`. Under a strict
    ///    order the MST is unique, so tied distances cannot change which
    ///    tree is found; its `n − 1` edges sorted by the same key are the
    ///    merge sequence;
    /// 2. process MST edges in that order, merging their endpoint
    ///    components;
    /// 3. after each merge `A`, test `Max(A) < Min(A, !A)` — when it holds,
    ///    `A` is compact.
    ///
    /// `Max` is maintained incrementally:
    /// `Max(A ∪ B) = max(Max A, Max B, cross-max(A, B))`, the cross-max read
    /// from the matrix; every pair is crossed once, so all max updates cost
    /// `O(n²)`. Once the MST is built, the buffer holds one row per live
    /// component, `low[c][y] = min over x ∈ c of d(x, y)` for `y ∉ c` and
    /// infinity for `y ∈ c`: a merge folds the dropped row into the kept
    /// one and takes `Min(A, !A)` as the folded row's minimum in the same
    /// `O(n)` sweep. Each component also carries
    /// the sets inside it that still lack a parent; a detected set adopts
    /// them, so the laminar forest is recorded as the sets are found.
    ///
    /// Correctness: every compact set `C` induces a connected subtree of the
    /// MST whose internal edges all weigh less than every edge escaping `C`
    /// (Lemmas 2 and 4), so in merge order the component equals exactly `C`
    /// right after its last internal MST edge — the test then fires. Hence
    /// **all** compact sets are found. Components only grow, so the first
    /// set detected in a set's component after it is its smallest strict
    /// superset: its parent.
    pub fn find(m: &DistanceMatrix) -> Self {
        let n = m.len();
        let lower = m.condensed();
        let mut rows = dense_rows(m);

        // comp[v] = current component id of v. Component `c` lists its
        // members from `c` along `next` (merges append the dropped list to
        // the kept one) and carries its running internal max and the sets
        // inside it still waiting for a parent.
        let mut comp: Vec<usize> = (0..n).collect();
        let mut next = vec![NONE; n];
        let mut tail: Vec<usize> = (0..n).collect();
        let mut size = vec![1usize; n];
        let mut max_internal: Vec<f64> = vec![0.0; n];
        let mut orphans: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut dropped = Vec::with_capacity(n);
        let mut sets = Vec::new();
        let mut parent = Vec::new();

        for (u, v) in mst_merge_order(&rows, n) {
            let (ca, cb) = (comp[u], comp[v]);
            debug_assert_ne!(ca, cb, "MST edges join distinct components");
            // Merge smaller into larger to bound relabeling cost.
            let (keep, drop) = if size[ca] >= size[cb] {
                (ca, cb)
            } else {
                (cb, ca)
            };
            // Cross-max from the matrix itself; the pairs crossed here stop
            // crossing, so blank them in both components' minimum rows.
            dropped.clear();
            dropped.extend(members(&next, drop));
            let mut cross_max = 0.0f64;
            for x in members(&next, keep) {
                for &y in &dropped {
                    // `lower` packs the strict lower triangle row by row.
                    let (hi, lo) = if x > y { (x, y) } else { (y, x) };
                    cross_max = cross_max.max(lower[hi * (hi - 1) / 2 + lo]);
                }
                rows[drop * n + x] = f64::INFINITY;
            }
            for &y in &dropped {
                rows[keep * n + y] = f64::INFINITY;
                comp[y] = keep;
            }
            next[tail[keep]] = drop;
            tail[keep] = tail[drop];
            size[keep] += size[drop];
            max_internal[keep] = max_internal[keep].max(max_internal[drop]).max(cross_max);
            if size[keep] == n {
                break;
            }

            let min_crossing = fold_rows(&mut rows, n, keep, drop);
            let adopted = std::mem::take(&mut orphans[drop]);
            orphans[keep].extend(adopted);
            if max_internal[keep] < min_crossing {
                let id = sets.len();
                for child in orphans[keep].drain(..) {
                    parent[child] = Some(id);
                }
                orphans[keep].push(id);
                parent.push(None);
                sets.push(CompactSet {
                    members: (0..n).filter(|&y| comp[y] == keep).collect(),
                    max_internal: max_internal[keep],
                    min_crossing,
                });
            }
        }
        CompactSets { n, sets, parent }
    }

    /// Number of taxa in the underlying matrix.
    pub fn taxon_count(&self) -> usize {
        self.n
    }

    /// Number of proper compact sets.
    pub fn len(&self) -> usize {
        self.sets.len()
    }

    /// Whether no proper compact set exists.
    pub fn is_empty(&self) -> bool {
        self.sets.is_empty()
    }

    /// Iterates the sets in detection order (subsets before supersets).
    pub fn iter(&self) -> impl Iterator<Item = &CompactSet> {
        self.sets.iter()
    }

    /// The sets as a slice, in detection order.
    pub fn as_slice(&self) -> &[CompactSet] {
        &self.sets
    }

    /// The maximal proper compact sets: those contained in no other proper
    /// compact set, in detection order. They are pairwise disjoint
    /// (Lemma 3).
    pub fn maximal(&self) -> Vec<&CompactSet> {
        self.sets
            .iter()
            .zip(&self.parent)
            .filter(|(_, p)| p.is_none())
            .map(|(s, _)| s)
            .collect()
    }

    /// Builds the laminar containment forest over the proper compact sets.
    pub fn forest(&self) -> LaminarForest {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.sets.len()];
        let mut roots = Vec::new();
        for (i, p) in self.parent.iter().enumerate() {
            match p {
                Some(p) => children[*p].push(i),
                None => roots.push(i),
            }
        }
        let nodes = children
            .into_iter()
            .enumerate()
            .map(|(i, children)| LaminarNode {
                set: i,
                parent: self.parent[i],
                children,
            })
            .collect();
        LaminarForest {
            n: self.n,
            nodes,
            roots,
        }
    }

    /// Partitions the taxa for decomposition: descend the laminar forest and
    /// cut at the largest compact sets with at most `max_size` members;
    /// every taxon not covered by such a set becomes a singleton group.
    ///
    /// Groups are returned sorted by their smallest member; members inside a
    /// group are sorted ascending. The groups always partition `0..n`.
    ///
    /// # Panics
    ///
    /// Panics when `max_size < 2` (no set could ever be cut).
    pub fn partition(&self, max_size: usize) -> Vec<Vec<usize>> {
        assert!(max_size >= 2, "max_size must be at least 2");
        // Sets shrink strictly down every forest path, so the descent stops
        // exactly at the small-enough sets whose parent is too big.
        let mut cut: Vec<Option<usize>> = vec![None; self.n];
        for (i, s) in self.sets.iter().enumerate() {
            if s.len() <= max_size && self.parent[i].is_none_or(|p| self.sets[p].len() > max_size) {
                for &v in s.members() {
                    cut[v] = Some(i);
                }
            }
        }
        let mut groups = Vec::new();
        for (v, c) in cut.into_iter().enumerate() {
            match c {
                None => groups.push(vec![v]),
                Some(i) if self.sets[i].members[0] == v => {
                    groups.push(self.sets[i].members.clone())
                }
                Some(_) => {}
            }
        }
        groups
    }
}

/// End of a member list.
const NONE: usize = usize::MAX;

/// The members of component `c`, in merge order.
fn members(next: &[usize], c: usize) -> impl Iterator<Item = usize> + '_ {
    std::iter::successors(Some(c), |&x| Some(next[x]).filter(|&y| y != NONE))
}

/// The matrix as dense row-major `n × n` rows, with an infinite diagonal
/// (a taxon never crosses out of its own component).
fn dense_rows(m: &DistanceMatrix) -> Vec<f64> {
    let n = m.len();
    let lower = m.condensed();
    let mut rows = Vec::with_capacity(n * n);
    for i in 0..n {
        // Row i: the packed strict lower triangle's row i, the diagonal,
        // then column i of the rows below it.
        let start = i * i.saturating_sub(1) / 2;
        rows.extend_from_slice(&lower[start..start + i]);
        rows.push(f64::INFINITY);
        let mut at = start + 2 * i;
        for j in i + 1..n {
            rows.push(lower[at]);
            at += j;
        }
    }
    rows
}

/// The minimum spanning tree of the complete graph over the dense `n × n`
/// rows `d`, by Prim's `O(n²)` scan under the strict edge order
/// `(weight, smaller endpoint, larger endpoint)` that
/// [`kruskal`](crate::kruskal) sorts by, as `(u, v)` pairs with `u < v` in
/// Kruskal's merge order.
fn mst_merge_order(d: &[f64], n: usize) -> Vec<(usize, usize)> {
    // The order as one integer key: the weight's bits above the endpoint
    // code `u · n + v`. Bit patterns of non-negative floats order like
    // their values once the sign of `-0.0` is cleared (it equals `0.0`).
    let key = |w: f64, a: usize, b: usize| {
        let code = if a < b { a * n + b } else { b * n + a };
        (u128::from(w.to_bits() & !(1 << 63)) << 64) | code as u128
    };
    // Vertices outside the tree, each with its lightest edge into it.
    let mut rest: Vec<usize> = (1..n).collect();
    let mut best = vec![u128::MAX; rest.len()];
    let mut edges = Vec::with_capacity(rest.len());
    let mut last = 0;
    while !rest.is_empty() {
        let row = &d[last * n..(last + 1) * n];
        let (mut pick, mut pick_key) = (0, u128::MAX);
        for (at, (&x, b)) in rest.iter().zip(best.iter_mut()).enumerate() {
            *b = (*b).min(key(row[x], last, x));
            if *b < pick_key {
                (pick, pick_key) = (at, *b);
            }
        }
        last = rest.swap_remove(pick);
        best.swap_remove(pick);
        edges.push(pick_key);
    }
    edges.sort_unstable();
    edges
        .into_iter()
        .map(|k| (k as u64 as usize / n, k as u64 as usize % n))
        .collect()
}

/// Folds component `drop`'s crossing-minimum row into component `keep`'s
/// and returns the merged row's minimum — `Min(A, !A)` of the merged set,
/// since every row holds infinity at its own component's members.
fn fold_rows(rows: &mut [f64], n: usize, keep: usize, drop: usize) -> f64 {
    let (kept, dropped) = if keep < drop {
        let (head, tail) = rows.split_at_mut(drop * n);
        (&mut head[keep * n..(keep + 1) * n], &tail[..n])
    } else {
        let (head, tail) = rows.split_at_mut(keep * n);
        (&mut tail[..n], &head[drop * n..(drop + 1) * n])
    };
    let mut min_crossing = f64::INFINITY;
    for (low, &other) in kept.iter_mut().zip(dropped) {
        if other < *low {
            *low = other;
        }
        if *low < min_crossing {
            min_crossing = *low;
        }
    }
    min_crossing
}

/// One node of a [`LaminarForest`]: a compact set with its containment
/// parent and children.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaminarNode {
    /// Index of this node's set within the originating [`CompactSets`].
    pub set: usize,
    /// Index of the smallest strictly-containing set, if any.
    pub parent: Option<usize>,
    /// Indices of the maximal strictly-contained sets.
    pub children: Vec<usize>,
}

/// The containment forest of a laminar family of compact sets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaminarForest {
    n: usize,
    /// One node per proper compact set, indexed like the originating
    /// [`CompactSets`].
    pub nodes: Vec<LaminarNode>,
    /// Nodes with no parent (the maximal proper compact sets).
    pub roots: Vec<usize>,
}

/// The Kruskal-based `O(n³)` detector, containment-scan forest and
/// forest-descent partition that [`CompactSets`] replaced, kept as a
/// differential oracle.
#[cfg(test)]
mod reference {
    use super::CompactSet;
    use crate::{kruskal, WeightedGraph};
    use mutree_distmat::DistanceMatrix;

    /// Kruskal's MST, then each merge's crossing minimum recomputed from
    /// the matrix.
    pub fn find(m: &DistanceMatrix) -> Vec<CompactSet> {
        let n = m.len();
        let mst = kruskal(&WeightedGraph::from_matrix(m)).expect("complete graph is connected");
        let mut comp: Vec<usize> = (0..n).collect();
        let mut members: Vec<Vec<usize>> = (0..n).map(|v| vec![v]).collect();
        let mut max_internal: Vec<f64> = vec![0.0; n];
        let mut sets = Vec::new();
        for e in mst.edges() {
            let (ca, cb) = (comp[e.u], comp[e.v]);
            let (keep, drop) = if members[ca].len() >= members[cb].len() {
                (ca, cb)
            } else {
                (cb, ca)
            };
            let mut cross_max = 0.0f64;
            for &x in &members[keep] {
                for &y in &members[drop] {
                    cross_max = cross_max.max(m.get(x, y));
                }
            }
            let dropped = std::mem::take(&mut members[drop]);
            for &y in &dropped {
                comp[y] = keep;
            }
            members[keep].extend(dropped);
            max_internal[keep] = max_internal[keep].max(max_internal[drop]).max(cross_max);
            if members[keep].len() < n {
                let mut inside = vec![false; n];
                for &x in &members[keep] {
                    inside[x] = true;
                }
                let mut min_crossing = f64::INFINITY;
                for &x in &members[keep] {
                    for (y, &is_in) in inside.iter().enumerate() {
                        if !is_in {
                            min_crossing = min_crossing.min(m.get(x, y));
                        }
                    }
                }
                if max_internal[keep] < min_crossing {
                    let mut ms = members[keep].clone();
                    ms.sort_unstable();
                    sets.push(CompactSet {
                        members: ms,
                        max_internal: max_internal[keep],
                        min_crossing,
                    });
                }
            }
        }
        sets
    }

    /// Each set's parent: its smallest strict superset.
    pub fn parents(sets: &[CompactSet]) -> Vec<Option<usize>> {
        (0..sets.len())
            .map(|i| {
                let mut best: Option<usize> = None;
                for j in 0..sets.len() {
                    if j != i && sets[j].len() > sets[i].len() && sets[j].contains_set(&sets[i]) {
                        match best {
                            None => best = Some(j),
                            Some(b) if sets[j].len() < sets[b].len() => best = Some(j),
                            _ => {}
                        }
                    }
                }
                best
            })
            .collect()
    }

    /// Depth-first descent from the roots, cutting at the first set of at
    /// most `max_size` members; uncovered taxa become singletons.
    pub fn partition(
        n: usize,
        sets: &[CompactSet],
        parents: &[Option<usize>],
        max_size: usize,
    ) -> Vec<Vec<usize>> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); sets.len()];
        let mut stack = Vec::new();
        for (i, p) in parents.iter().enumerate() {
            match p {
                Some(p) => children[*p].push(i),
                None => stack.push(i),
            }
        }
        let mut groups: Vec<Vec<usize>> = Vec::new();
        let mut covered = vec![false; n];
        while let Some(i) = stack.pop() {
            if sets[i].len() <= max_size {
                groups.push(sets[i].members().to_vec());
                for &v in sets[i].members() {
                    covered[v] = true;
                }
            } else {
                stack.extend(children[i].iter().copied());
            }
        }
        for (v, &is_covered) in covered.iter().enumerate() {
            if !is_covered {
                groups.push(vec![v]);
            }
        }
        groups.sort_by_key(|g| g[0]);
        groups
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mutree_distmat::gen;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A matrix of one of four families: small integers in `0..4` (heavily
    /// tied), all entries equal, a perturbed ultrametric (tie-free), and the
    /// same rounded to integers (clustered and tied).
    fn family_matrix(family: u8, n: usize, seed: u64) -> DistanceMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let u = gen::perturbed_ultrametric(n, 12.0, 0.15, &mut rng);
        let constant = rng.gen_range(0u32..3) as f64;
        let mut m = DistanceMatrix::zeros(n).unwrap();
        for i in 1..n {
            for j in 0..i {
                let d = match family {
                    0 => rng.gen_range(0u32..4) as f64,
                    1 => constant,
                    2 => u.get(i, j),
                    _ => u.get(i, j).round(),
                };
                m.set(i, j, d);
            }
        }
        m
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The `O(n²)` detector against the Kruskal-based reference: same
        /// sets in the same order with the same bound bits, the same forest
        /// parents, maximal sets and partitions at every threshold.
        #[test]
        fn find_matches_the_reference(n in 2usize..=64, family in 0u8..4, seed in any::<u64>()) {
            let m = family_matrix(family, n, seed);
            let cs = CompactSets::find(&m);
            let want = reference::find(&m);
            prop_assert_eq!(cs.len(), want.len());
            for (got, want) in cs.iter().zip(&want) {
                prop_assert_eq!(got.members(), want.members());
                prop_assert_eq!(got.max_internal().to_bits(), want.max_internal().to_bits());
                prop_assert_eq!(got.min_crossing().to_bits(), want.min_crossing().to_bits());
            }
            let parents = reference::parents(&want);
            let forest = cs.forest();
            for (i, node) in forest.nodes.iter().enumerate() {
                prop_assert_eq!(node.set, i);
                prop_assert_eq!(node.parent, parents[i]);
                for &c in &node.children {
                    prop_assert_eq!(parents[c], Some(i));
                }
            }
            let roots: Vec<usize> = (0..want.len()).filter(|&i| parents[i].is_none()).collect();
            prop_assert_eq!(&forest.roots, &roots);
            let maximal: Vec<&CompactSet> = roots.iter().map(|&i| &want[i]).collect();
            prop_assert_eq!(cs.maximal(), maximal);
            for t in 2..=n {
                prop_assert_eq!(cs.partition(t), reference::partition(n, &want, &parents, t));
            }
        }
    }

    /// A 6-vertex instance shaped like the paper's running example
    /// (Figs. 3–5): MST edge order (0,2), (3,5), (0,1), (2,4), (4,5) and
    /// compact sets {0,2}, {3,5}, {0,1,2}, {0,1,2,4}.
    fn paper_like() -> DistanceMatrix {
        DistanceMatrix::from_rows(&[
            vec![0.0, 3.0, 1.0, 7.0, 4.5, 6.5],
            vec![3.0, 0.0, 3.5, 7.2, 4.2, 6.8],
            vec![1.0, 3.5, 0.0, 7.5, 4.0, 6.9],
            vec![7.0, 7.2, 7.5, 0.0, 6.0, 2.0],
            vec![4.5, 4.2, 4.0, 6.0, 0.0, 5.0],
            vec![6.5, 6.8, 6.9, 2.0, 5.0, 0.0],
        ])
        .unwrap()
    }

    #[test]
    fn finds_paper_example_sets() {
        let cs = CompactSets::find(&paper_like());
        let members: Vec<Vec<usize>> = cs.iter().map(|s| s.members().to_vec()).collect();
        assert_eq!(
            members,
            vec![vec![0, 2], vec![3, 5], vec![0, 1, 2], vec![0, 1, 2, 4],]
        );
    }

    #[test]
    fn lemma2_holds_on_every_set() {
        let cs = CompactSets::find(&paper_like());
        for s in cs.iter() {
            assert!(
                s.max_internal() < s.min_crossing(),
                "set {:?} violates Lemma 2",
                s.members()
            );
        }
    }

    #[test]
    fn laminar_nesting() {
        let cs = CompactSets::find(&paper_like());
        // Every pair of sets is nested or disjoint (Lemma 3).
        for a in cs.iter() {
            for b in cs.iter() {
                let inter = a
                    .members()
                    .iter()
                    .filter(|x| b.members().contains(x))
                    .count();
                let nested = a.contains_set(b) || b.contains_set(a);
                assert!(inter == 0 || nested);
            }
        }
    }

    #[test]
    fn maximal_sets_are_disjoint_cover() {
        let cs = CompactSets::find(&paper_like());
        let maximal = cs.maximal();
        let members: Vec<Vec<usize>> = maximal.iter().map(|s| s.members().to_vec()).collect();
        assert_eq!(members, vec![vec![3, 5], vec![0, 1, 2, 4]]);
    }

    #[test]
    fn forest_structure() {
        let cs = CompactSets::find(&paper_like());
        let forest = cs.forest();
        assert_eq!(forest.roots.len(), 2);
        // {0,1,2,4} is the parent of {0,1,2}, which is the parent of {0,2}.
        let idx_of = |ms: &[usize]| {
            cs.as_slice()
                .iter()
                .position(|s| s.members() == ms)
                .unwrap()
        };
        let big = idx_of(&[0, 1, 2, 4]);
        let mid = idx_of(&[0, 1, 2]);
        let small = idx_of(&[0, 2]);
        assert_eq!(forest.nodes[mid].parent, Some(big));
        assert_eq!(forest.nodes[small].parent, Some(mid));
        assert_eq!(forest.nodes[big].parent, None);
    }

    #[test]
    fn partition_cuts_at_threshold() {
        let cs = CompactSets::find(&paper_like());
        // Threshold 4: take {0,1,2,4} and {3,5} whole.
        assert_eq!(cs.partition(4), vec![vec![0, 1, 2, 4], vec![3, 5]]);
        // Threshold 3: {0,1,2,4} is too big, descend to {0,1,2}; 4 is loose.
        assert_eq!(cs.partition(3), vec![vec![0, 1, 2], vec![3, 5], vec![4]]);
        // Threshold 2: descend further to {0,2}.
        assert_eq!(
            cs.partition(2),
            vec![vec![0, 2], vec![1], vec![3, 5], vec![4]]
        );
    }

    #[test]
    fn partition_is_a_partition() {
        let cs = CompactSets::find(&paper_like());
        for t in 2..=6 {
            let groups = cs.partition(t);
            let mut all: Vec<usize> = groups.concat();
            all.sort_unstable();
            assert_eq!(all, (0..6).collect::<Vec<_>>(), "threshold {t}");
        }
    }

    #[test]
    fn uniform_matrix_has_no_proper_compact_sets() {
        // All distances equal: the strict inequality never fires.
        let m = DistanceMatrix::from_rows(&[
            vec![0.0, 5.0, 5.0],
            vec![5.0, 0.0, 5.0],
            vec![5.0, 5.0, 0.0],
        ])
        .unwrap();
        let cs = CompactSets::find(&m);
        assert!(cs.is_empty());
        // Partition degrades to singletons.
        assert_eq!(cs.partition(3), vec![vec![0], vec![1], vec![2]]);
    }

    #[test]
    fn two_taxa_no_proper_sets() {
        let m = DistanceMatrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]).unwrap();
        assert!(CompactSets::find(&m).is_empty());
    }

    #[test]
    fn ultrametric_matrix_yields_deep_hierarchy() {
        // Perfect binary ultrametric: ((0,1),(2,3)) far from ((4,5),(6,7)).
        let mut m = DistanceMatrix::zeros(8).unwrap();
        for i in 0..8 {
            for j in (i + 1)..8 {
                let d = if i / 4 != j / 4 {
                    16.0
                } else if i / 2 != j / 2 {
                    8.0
                } else {
                    2.0
                };
                m.set(i, j, d);
            }
        }
        let cs = CompactSets::find(&m);
        let members: Vec<Vec<usize>> = cs.iter().map(|s| s.members().to_vec()).collect();
        assert!(members.contains(&vec![0, 1]));
        assert!(members.contains(&vec![6, 7]));
        assert!(members.contains(&vec![0, 1, 2, 3]));
        assert!(members.contains(&vec![4, 5, 6, 7]));
        assert_eq!(cs.len(), 6);
    }
}
