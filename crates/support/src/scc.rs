//! [`SccWalk`], the workspace's one strongly-connected-component walk.
//!
//! The paper's closure on Büchi automata keeps exactly the states from
//! which an accepting cycle is reachable, so closure, emptiness, lasso
//! membership, the product inclusion check, path quantification over
//! Kripke structures and the parity-strategy verifier all ask one
//! question: which components of a successor graph are *cyclic*? This
//! walk answers it for all of them. (The antichain search's lasso test
//! keeps its own walk over bit rows inside the search kernel.)

/// An iterative Tarjan walk over nodes `0..n` that reads successors by
/// position — `succ(v, i)` is `v`'s `i`-th successor, `None` past the
/// last — so no successor list is ever materialized. A walk visits only
/// what its root reaches and hands each *cyclic* component (more than
/// one node, or one node with a self loop) to a callback as it closes,
/// in reverse topological order; a callback that returns `Some` ends the
/// walk, and with it the walker's use. Further walks from unvisited
/// roots continue the same numbering.
///
/// A node outside every cyclic component is a component of its own, so
/// the component count of the nodes walked is the number of cyclic
/// components plus the number of nodes outside them.
///
/// # Examples
///
/// ```
/// use sl_support::SccWalk;
///
/// // 0 -> 1 -> 2 -> 1: one cyclic component, {1, 2}.
/// let adj: [&[usize]; 3] = [&[1], &[2], &[1]];
/// let mut cyclic = Vec::new();
/// SccWalk::new(3).walk(
///     0,
///     |v, i| adj[v].get(i).copied(),
///     |members| {
///         cyclic.push(members.len());
///         None::<()>
///     },
/// );
/// assert_eq!(cyclic, [2]);
/// ```
#[derive(Debug)]
pub struct SccWalk {
    /// DFS number, counted from 1; 0 = unvisited.
    index: Vec<usize>,
    low: Vec<usize>,
    on_stack: Vec<bool>,
    stack: Vec<usize>,
    /// Open nodes: the node, the position of its next successor, and
    /// whether it has been seen to loop on itself.
    calls: Vec<(usize, usize, bool)>,
    counter: usize,
}

impl SccWalk {
    /// A walker over nodes `0..n`, none of them visited.
    #[inline]
    #[must_use]
    pub fn new(n: usize) -> SccWalk {
        SccWalk {
            index: vec![0; n],
            low: vec![0; n],
            on_stack: vec![false; n],
            stack: Vec::new(),
            calls: Vec::new(),
            counter: 0,
        }
    }

    /// Whether an earlier walk reached `v`.
    #[inline]
    #[must_use]
    pub fn visited(&self, v: usize) -> bool {
        self.index[v] != 0
    }

    /// Walks from the unvisited `root`; see the type docs.
    pub fn walk<T>(
        &mut self,
        root: usize,
        mut succ: impl FnMut(usize, usize) -> Option<usize>,
        mut cyclic: impl FnMut(&[usize]) -> Option<T>,
    ) -> Option<T> {
        self.open(root);
        while let Some(top) = self.calls.last_mut() {
            let (v, i, _) = *top;
            if let Some(w) = succ(v, i) {
                top.1 += 1;
                top.2 |= w == v;
                if self.index[w] == 0 {
                    self.open(w);
                } else if self.on_stack[w] {
                    self.low[v] = self.low[v].min(self.index[w]);
                }
                continue;
            }
            let (_, _, self_loop) = self.calls.pop().expect("a frame is open");
            if let Some(&(parent, _, _)) = self.calls.last() {
                self.low[parent] = self.low[parent].min(self.low[v]);
            }
            if self.low[v] != self.index[v] {
                continue;
            }
            let start = self
                .stack
                .iter()
                .rposition(|&s| s == v)
                .expect("an open component root is on the stack");
            for &s in &self.stack[start..] {
                self.on_stack[s] = false;
            }
            let members = &self.stack[start..];
            if members.len() > 1 || self_loop {
                if let Some(found) = cyclic(members) {
                    return Some(found);
                }
            }
            self.stack.truncate(start);
        }
        None
    }

    #[inline]
    fn open(&mut self, v: usize) {
        self.counter += 1;
        self.index[v] = self.counter;
        self.low[v] = self.counter;
        self.on_stack[v] = true;
        self.stack.push(v);
        self.calls.push((v, 0, false));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn adjacency(n: usize, edges: &[(usize, usize)]) -> Vec<Vec<usize>> {
        let mut adj = vec![Vec::new(); n];
        for &(u, v) in edges {
            adj[u].push(v);
        }
        adj
    }

    /// The cyclic components, each sorted, in closing order, by walks
    /// from every root in index order.
    fn cyclic_components(n: usize, edges: &[(usize, usize)]) -> Vec<Vec<usize>> {
        let adj = adjacency(n, edges);
        let mut walk = SccWalk::new(n);
        let mut out = Vec::new();
        for root in 0..n {
            if !walk.visited(root) {
                walk.walk(
                    root,
                    |v, i| adj[v].get(i).copied(),
                    |members| {
                        let mut sorted = members.to_vec();
                        sorted.sort_unstable();
                        out.push(sorted);
                        None::<()>
                    },
                );
            }
        }
        assert!((0..n).all(|v| walk.visited(v)), "every root walked");
        out
    }

    #[test]
    fn single_cycle_is_one_component() {
        let found = cyclic_components(3, &[(0, 1), (1, 2), (2, 0)]);
        assert_eq!(found, [vec![0, 1, 2]]);
    }

    #[test]
    fn dag_has_singleton_components() {
        // No node of a DAG is cyclic: all three are components of their
        // own, and none is handed over.
        let found = cyclic_components(3, &[(0, 1), (1, 2), (0, 2)]);
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn walk_stops_at_the_first_cyclic_component_to_close() {
        // From 0 the walk reaches {1, 2} and {3} (a self loop); {1, 2}
        // closes first, and the walk returns before seeing 3.
        let adj: [&[usize]; 4] = [&[1, 3], &[2], &[1], &[3]];
        let mut walk = SccWalk::new(4);
        let mut seen = Vec::new();
        let found = walk.walk(
            0,
            |v, i| adj[v].get(i).copied(),
            |members| {
                seen.push(members.len());
                let mut sorted = members.to_vec();
                sorted.sort_unstable();
                Some(sorted)
            },
        );
        assert_eq!(found, Some(vec![1, 2]));
        assert_eq!(seen, [2]);
        assert!(!walk.visited(3));
    }

    #[test]
    fn reverse_topological_order() {
        // 0 -> 1 -> 2, each with a self loop, plus {3, 4} after 2: a
        // component closes after every component it reaches.
        let edges = [
            (0, 0),
            (0, 1),
            (1, 1),
            (1, 2),
            (2, 2),
            (2, 3),
            (3, 4),
            (4, 3),
        ];
        let found = cyclic_components(5, &edges);
        assert_eq!(found, [vec![3, 4], vec![2], vec![1], vec![0]]);
    }

    #[test]
    fn self_loop_counts_as_cycle() {
        assert_eq!(cyclic_components(2, &[(0, 0), (0, 1)]), [vec![0]]);
    }

    #[test]
    fn two_components_plus_bridge() {
        let edges = [(0, 1), (1, 0), (1, 2), (2, 3), (3, 4), (4, 2)];
        let found = cyclic_components(5, &edges);
        assert_eq!(found, [vec![2, 3, 4], vec![0, 1]]);
    }

    #[test]
    fn later_walks_continue_the_numbering() {
        // A walk from 2 first closes {2, 3}; the walk from 0 then meets
        // the visited 2 and must not pull it into {0, 1}.
        let adj = adjacency(4, &[(0, 1), (1, 0), (1, 2), (2, 3), (3, 2)]);
        let mut walk = SccWalk::new(4);
        let mut found = Vec::new();
        for root in [2, 0] {
            walk.walk(
                root,
                |v, i| adj[v].get(i).copied(),
                |members| {
                    let mut sorted = members.to_vec();
                    sorted.sort_unstable();
                    found.push(sorted);
                    None::<()>
                },
            );
        }
        assert_eq!(found, [vec![2, 3], vec![0, 1]]);
    }

    /// A 200,000-node path, and the same path closed into one cycle,
    /// on a thread with a 2 MiB stack: the walk keeps its frames on the
    /// heap, so depth costs no stack.
    #[test]
    fn large_path_does_not_overflow_stack() {
        let n = 200_000;
        let run = move || {
            let path = |v: usize, i: usize| (i == 0 && v + 1 < n).then_some(v + 1);
            let mut walk = SccWalk::new(n);
            let none = walk.walk(0, path, |_| Some(()));
            assert!(none.is_none() && walk.visited(n - 1));
            let ring = |v: usize, i: usize| (i == 0).then_some((v + 1) % n);
            SccWalk::new(n).walk(0, ring, |members| Some(members.len()))
        };
        let size = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(run)
            .expect("spawn a 2 MiB thread")
            .join()
            .expect("no stack overflow");
        assert_eq!(size, Some(n));
    }
}
