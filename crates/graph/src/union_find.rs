/// Disjoint-set union with union by rank and path compression.
///
/// Amortized near-constant time per operation; used by Kruskal's algorithm.
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<usize>,
    rank: Vec<u8>,
    components: usize,
}

impl UnionFind {
    /// Creates `n` singleton components.
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
            rank: vec![0; n],
            components: n,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Whether the structure is empty.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Number of components.
    pub fn components(&self) -> usize {
        self.components
    }

    /// Representative of `x`'s component (with path compression).
    pub fn find(&mut self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] != root {
            root = self.parent[root];
        }
        let mut cur = x;
        while self.parent[cur] != root {
            let next = self.parent[cur];
            self.parent[cur] = root;
            cur = next;
        }
        root
    }

    /// Merges the components of `a` and `b`. Returns the new root, or `None`
    /// when they were already joined.
    pub fn union(&mut self, a: usize, b: usize) -> Option<usize> {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return None;
        }
        self.components -= 1;
        let root = match self.rank[ra].cmp(&self.rank[rb]) {
            std::cmp::Ordering::Less => {
                self.parent[ra] = rb;
                rb
            }
            std::cmp::Ordering::Greater => {
                self.parent[rb] = ra;
                ra
            }
            std::cmp::Ordering::Equal => {
                self.parent[rb] = ra;
                self.rank[ra] += 1;
                ra
            }
        };
        Some(root)
    }

    /// Whether `a` and `b` share a component.
    pub fn same(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }

    /// Groups all elements by component, each group sorted ascending; groups
    /// ordered by their smallest element.
    pub fn groups(&mut self) -> Vec<Vec<usize>> {
        let n = self.len();
        let mut by_root: std::collections::BTreeMap<usize, Vec<usize>> = Default::default();
        for x in 0..n {
            let r = self.find(x);
            by_root.entry(r).or_default().push(x);
        }
        let mut groups: Vec<Vec<usize>> = by_root.into_values().collect();
        groups.sort_by_key(|g| g[0]);
        groups
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singletons_initially() {
        let mut uf = UnionFind::new(5);
        assert_eq!(uf.components(), 5);
        assert!(!uf.same(0, 1));
        assert_eq!(uf.find(3), 3);
    }

    #[test]
    fn union_merges_and_counts() {
        let mut uf = UnionFind::new(4);
        assert!(uf.union(0, 1).is_some());
        assert!(uf.union(2, 3).is_some());
        assert_eq!(uf.components(), 2);
        assert!(uf.same(0, 1));
        assert!(!uf.same(1, 2));
        assert!(uf.union(1, 3).is_some());
        assert_eq!(uf.components(), 1);
        assert!(uf.same(0, 2));
    }

    #[test]
    fn union_same_component_is_none() {
        let mut uf = UnionFind::new(3);
        uf.union(0, 1);
        assert!(uf.union(1, 0).is_none());
        assert_eq!(uf.components(), 2);
    }

    #[test]
    fn groups_sorted() {
        let mut uf = UnionFind::new(6);
        uf.union(5, 0);
        uf.union(2, 4);
        let groups = uf.groups();
        assert_eq!(groups, vec![vec![0, 5], vec![1], vec![2, 4], vec![3]]);
    }

    #[test]
    fn chain_path_compression() {
        let mut uf = UnionFind::new(100);
        for i in 0..99 {
            uf.union(i, i + 1);
        }
        assert_eq!(uf.components(), 1);
        let r = uf.find(0);
        for i in 0..100 {
            assert_eq!(uf.find(i), r);
        }
    }
}
