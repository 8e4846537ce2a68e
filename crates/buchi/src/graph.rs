//! Backward reachability on automata. The SCC walk the closure,
//! emptiness and membership code runs lives in `sl_support::scc`.

use crate::automaton::Buchi;

/// The states of `b` that reach some `marked` state in zero or more
/// steps. The reverse adjacency is built in two passes over the
/// successor lists, so the search is O(V + E).
pub(crate) fn reaching(b: &Buchi, mut marked: Vec<bool>) -> Vec<bool> {
    let n = b.num_states();
    // CSR rows: the predecessors of `q` are `pred[start[q]..start[q + 1]]`.
    let mut start = vec![0usize; n + 1];
    for p in 0..n {
        for &q in b.all_successors(p) {
            start[q + 1] += 1;
        }
    }
    for q in 0..n {
        start[q + 1] += start[q];
    }
    let mut pred = vec![0usize; start[n]];
    let mut fill = start.clone();
    for p in 0..n {
        for &q in b.all_successors(p) {
            pred[fill[q]] = p;
            fill[q] += 1;
        }
    }
    let mut stack: Vec<usize> = (0..n).filter(|&q| marked[q]).collect();
    while let Some(v) = stack.pop() {
        for &p in &pred[start[v]..start[v + 1]] {
            if !marked[p] {
                marked[p] = true;
                stack.push(p);
            }
        }
    }
    marked
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automaton::BuchiBuilder;
    use sl_omega::Alphabet;

    #[test]
    fn backward_reachability() {
        // 0 -> 1 -> 2, 3 -> 3: only 2's predecessors reach it.
        let sigma = Alphabet::ab();
        let a = sigma.symbol("a").unwrap();
        let mut builder = BuchiBuilder::new(sigma);
        for _ in 0..4 {
            builder.add_state(false);
        }
        for (s, t) in [(0, 1), (1, 2), (3, 3)] {
            builder.add_transition(s, a, t);
        }
        let b = builder.build(0);
        let seen = reaching(&b, vec![false, false, true, false]);
        assert_eq!(seen, vec![true, true, true, false]);
    }
}
