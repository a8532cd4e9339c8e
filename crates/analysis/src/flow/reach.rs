//! A small deterministic worklist engine.
//!
//! One breadth-first fixpoint serves every reachability question in the
//! analyzer: the derivation-closure propagation and the
//! escalation-witness search both instantiate [`reach`] with their own
//! node type and successor function. Nodes are ordered (`Ord`) and successors are sorted before
//! expansion, so the exploration order — and therefore every rendered
//! path — is byte-stable across runs. Because the search is
//! breadth-first, the parent pointers recover a *shortest-hop* path to
//! every reached node.

use std::collections::{BTreeMap, VecDeque};

/// The result of a [`reach`] run: every reached node with its BFS
/// parent (`None` for sources).
pub struct Reached<N: Ord + Clone> {
    parents: BTreeMap<N, Option<N>>,
}

impl<N: Ord + Clone> Reached<N> {
    /// True if the node was reached.
    pub fn contains(&self, n: &N) -> bool {
        self.parents.contains_key(n)
    }

    /// The shortest-hop path `source ..= n`, if `n` was reached.
    pub fn path(&self, n: &N) -> Option<Vec<N>> {
        if !self.parents.contains_key(n) {
            return None;
        }
        let mut path = vec![n.clone()];
        let mut cur = n.clone();
        while let Some(Some(p)) = self.parents.get(&cur) {
            path.push(p.clone());
            cur = p.clone();
        }
        path.reverse();
        Some(path)
    }

    /// All reached nodes, in `Ord` order.
    pub fn nodes(&self) -> impl Iterator<Item = &N> {
        self.parents.keys()
    }
}

/// Breadth-first worklist fixpoint from `sources` under `succs`.
///
/// Each node is expanded exactly once; successor lists are sorted and
/// deduplicated so insertion order cannot leak into the result.
pub fn reach<N, I, F>(sources: I, mut succs: F) -> Reached<N>
where
    N: Ord + Clone,
    I: IntoIterator<Item = N>,
    F: FnMut(&N) -> Vec<N>,
{
    let mut parents: BTreeMap<N, Option<N>> = BTreeMap::new();
    let mut queue: VecDeque<N> = VecDeque::new();
    for s in sources {
        if !parents.contains_key(&s) {
            parents.insert(s.clone(), None);
            queue.push_back(s);
        }
    }
    while let Some(n) = queue.pop_front() {
        let mut next = succs(&n);
        next.sort();
        next.dedup();
        for m in next {
            if !parents.contains_key(&m) {
                parents.insert(m.clone(), Some(n.clone()));
                queue.push_back(m);
            }
        }
    }
    Reached { parents }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bfs_paths_are_shortest_hop() {
        // 0 → 1 → 3 and 0 → 3 directly: the path to 3 must be direct.
        let r = reach([0u32], |&n| match n {
            0 => vec![1, 3],
            1 => vec![3],
            _ => vec![],
        });
        assert_eq!(r.path(&3), Some(vec![0, 3]));
        assert_eq!(r.path(&1), Some(vec![0, 1]));
        assert!(r.path(&9).is_none());
    }

    #[test]
    fn cycles_terminate() {
        let r = reach([0u32], |&n| vec![(n + 1) % 4]);
        assert_eq!(r.nodes().count(), 4);
        assert_eq!(r.path(&3), Some(vec![0, 1, 2, 3]));
    }

    #[test]
    fn multiple_sources_expand_once() {
        let mut expansions = 0;
        let r = reach([0u32, 1], |&n| {
            expansions += 1;
            vec![n + 2].into_iter().filter(|&m| m < 4).collect()
        });
        assert!(r.contains(&2) && r.contains(&3));
        assert_eq!(expansions, 4);
    }
}
