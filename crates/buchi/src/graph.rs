//! Graph algorithms on automata: Tarjan SCC and reachability helpers.

use std::borrow::Cow;

/// A generic successor-function graph on nodes `0..n`.
///
/// The successor function returns `Cow<[usize]>` so graphs backed by a
/// [`crate::Buchi`]'s precomputed adjacency (`Buchi::all_successors`)
/// can serve borrowed slices with zero allocation, while synthesized
/// graphs (products, test fixtures) return owned rows.
pub(crate) struct Graph<'a> {
    pub n: usize,
    pub succ: Box<dyn Fn(usize) -> Cow<'a, [usize]> + 'a>,
}

/// The strongly connected components of a graph, in reverse topological
/// order (a component appears after every component it can reach).
/// `component[v]` is the id of the SCC containing `v`.
pub(crate) struct SccResult {
    pub component: Vec<usize>,
    pub count: usize,
}

impl SccResult {
    /// The members of each component.
    pub fn members(&self) -> Vec<Vec<usize>> {
        let mut out = vec![Vec::new(); self.count];
        for (v, &c) in self.component.iter().enumerate() {
            out[c].push(v);
        }
        out
    }
}

/// Iterative Tarjan SCC (explicit stack; no recursion so big automata
/// don't overflow).
pub(crate) fn tarjan(graph: &Graph<'_>) -> SccResult {
    let n = graph.n;
    const UNSET: usize = usize::MAX;
    let mut index = vec![UNSET; n];
    let mut lowlink = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut component = vec![UNSET; n];
    let mut next_index = 0usize;
    let mut count = 0usize;

    // Work items: (node, successor list, position in list).
    enum Frame<'s> {
        Enter(usize),
        Resume(usize, Cow<'s, [usize]>, usize),
    }
    for root in 0..n {
        if index[root] != UNSET {
            continue;
        }
        let mut work = vec![Frame::Enter(root)];
        while let Some(frame) = work.pop() {
            match frame {
                Frame::Enter(v) => {
                    index[v] = next_index;
                    lowlink[v] = next_index;
                    next_index += 1;
                    stack.push(v);
                    on_stack[v] = true;
                    work.push(Frame::Resume(v, (graph.succ)(v), 0));
                }
                Frame::Resume(v, succs, mut i) => {
                    let mut descended = false;
                    while i < succs.len() {
                        let w = succs[i];
                        i += 1;
                        if index[w] == UNSET {
                            work.push(Frame::Resume(v, succs, i));
                            work.push(Frame::Enter(w));
                            descended = true;
                            break;
                        } else if on_stack[w] {
                            lowlink[v] = lowlink[v].min(index[w]);
                        }
                    }
                    if descended {
                        continue;
                    }
                    // All successors done: close v.
                    if lowlink[v] == index[v] {
                        loop {
                            let w = stack.pop().expect("tarjan stack underflow");
                            on_stack[w] = false;
                            component[w] = count;
                            if w == v {
                                break;
                            }
                        }
                        count += 1;
                    }
                    // Propagate lowlink to parent (the frame below, if it
                    // is a Resume of the DFS parent).
                    if let Some(Frame::Resume(parent, _, _)) = work.last() {
                        let parent = *parent;
                        lowlink[parent] = lowlink[parent].min(lowlink[v]);
                    }
                }
            }
        }
    }
    SccResult { component, count }
}

/// An iterative Tarjan walk over nodes `0..n` that reads successors by
/// position — `succ(v, i)` is `v`'s `i`-th successor, `None` past the
/// last — so no successor list is ever materialized. A walk visits only
/// what its root reaches and hands each *cyclic* component (more than
/// one node, or one node with a self loop) to a callback as it closes,
/// in reverse topological order; a callback that returns `Some` ends the
/// walk, and with it the walker's use. Further walks from unvisited
/// roots continue the same numbering.
pub(crate) struct SccWalk {
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

    fn open(&mut self, v: usize) {
        self.counter += 1;
        self.index[v] = self.counter;
        self.low[v] = self.counter;
        self.on_stack[v] = true;
        self.stack.push(v);
        self.calls.push((v, 0, false));
    }
}

/// Backward reachability: all nodes that can reach some node in `targets`
/// (including the targets themselves). `pred[v]` lists the predecessors
/// of `v` — callers build the reverse adjacency once (a single pass over
/// the successor lists), so the walk is O(V + E).
pub(crate) fn backward_reachable(pred: &[Vec<usize>], targets: &[usize]) -> Vec<bool> {
    let mut seen = vec![false; pred.len()];
    let mut stack: Vec<usize> = Vec::new();
    for &t in targets {
        if !seen[t] {
            seen[t] = true;
            stack.push(t);
        }
    }
    while let Some(v) = stack.pop() {
        for &p in &pred[v] {
            if !seen[p] {
                seen[p] = true;
                stack.push(p);
            }
        }
    }
    seen
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph_from_edges(n: usize, edges: &[(usize, usize)]) -> Graph<'_> {
        let mut adj = vec![Vec::new(); n];
        for &(u, v) in edges {
            adj[u].push(v);
        }
        Graph {
            n,
            succ: Box::new(move |v| Cow::Owned(adj[v].clone())),
        }
    }

    /// Which nodes lie on a cycle, by [`SccWalk`] from every root.
    fn on_cycle(n: usize, edges: &[(usize, usize)]) -> Vec<bool> {
        let mut adj = vec![Vec::new(); n];
        for &(u, v) in edges {
            adj[u].push(v);
        }
        let mut walk = SccWalk::new(n);
        let mut cyclic = vec![false; n];
        for root in 0..n {
            if !walk.visited(root) {
                walk.walk(
                    root,
                    |v, i| adj[v].get(i).copied(),
                    |members| {
                        for &m in members {
                            cyclic[m] = true;
                        }
                        None::<()>
                    },
                );
            }
        }
        cyclic
    }

    #[test]
    fn single_cycle_is_one_component() {
        let g = graph_from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        let scc = tarjan(&g);
        assert_eq!(scc.count, 1);
        assert_eq!(on_cycle(3, &[(0, 1), (1, 2), (2, 0)]), [true; 3]);
    }

    #[test]
    fn dag_has_singleton_components() {
        let g = graph_from_edges(3, &[(0, 1), (1, 2)]);
        let scc = tarjan(&g);
        assert_eq!(scc.count, 3);
        assert_eq!(on_cycle(3, &[(0, 1), (1, 2)]), [false; 3]);
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
        // 0 -> 1 -> 2 with 2 a sink: component ids increase towards
        // sources.
        let g = graph_from_edges(3, &[(0, 1), (1, 2)]);
        let scc = tarjan(&g);
        assert!(scc.component[2] < scc.component[1]);
        assert!(scc.component[1] < scc.component[0]);
    }

    #[test]
    fn self_loop_counts_as_cycle() {
        assert_eq!(on_cycle(2, &[(0, 0), (0, 1)]), [true, false]);
    }

    #[test]
    fn two_components_plus_bridge() {
        let g = graph_from_edges(5, &[(0, 1), (1, 0), (1, 2), (2, 3), (3, 4), (4, 2)]);
        let scc = tarjan(&g);
        assert_eq!(scc.count, 2);
        assert_eq!(scc.component[0], scc.component[1]);
        assert_eq!(scc.component[2], scc.component[4]);
        assert_ne!(scc.component[0], scc.component[2]);
    }

    #[test]
    fn backward_reachability() {
        // Reverse adjacency of 0 -> 1 -> 2, 3 -> 3.
        let mut pred = vec![Vec::new(); 4];
        for (s, t) in [(0usize, 1usize), (1, 2), (3, 3)] {
            pred[t].push(s);
        }
        let seen = backward_reachable(&pred, &[2]);
        assert_eq!(seen, vec![true, true, true, false]);
    }

    #[test]
    fn large_path_does_not_overflow_stack() {
        let n = 200_000;
        let g = Graph {
            n,
            succ: Box::new(move |v| Cow::Owned(if v + 1 < n { vec![v + 1] } else { vec![] })),
        };
        let scc = tarjan(&g);
        assert_eq!(scc.count, n);
    }
}
