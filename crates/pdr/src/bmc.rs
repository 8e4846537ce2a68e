//! The bounded-model-checking reference: explicit breadth-first
//! reachability and lasso search.
//!
//! This is the independent cross-check the conformance oracle diffs
//! LT-PDR against. It shares no code with the engine — plain BFS over
//! successor lists, parent-pointer trace reconstruction, and a
//! cycle-through-bad search for the liveness side. On a finite
//! structure BFS to depth `n` is exact, so disagreements are always an
//! engine bug (or a sabotage drill).
//!
//! The liveness certificate validators live here too, equally free of
//! engine code: [`validate_lasso`] replays a lasso and
//! [`validate_live_invariant`] a Live invariant, both by plain
//! successor-list iteration.

use crate::kripke::SafetyVerdict;
use sl_lattice::Bitset;
use sl_trees::Kripke;

/// Exact reachability by BFS: Unsafe with a shortest trace to a bad
/// state, or Safe with the reachable set as the (always inductive)
/// invariant.
#[must_use]
pub fn bmc_safety(kripke: &Kripke, bad: &[usize]) -> SafetyVerdict {
    let n = kripke.len();
    let mut is_bad = vec![false; n];
    for &b in bad {
        is_bad[b] = true;
    }
    let mut parent: Vec<Option<usize>> = vec![None; n];
    let mut seen = vec![false; n];
    let mut queue = std::collections::VecDeque::new();
    let start = kripke.initial();
    seen[start] = true;
    queue.push_back(start);
    let mut hit = if is_bad[start] { Some(start) } else { None };
    while hit.is_none() {
        let Some(s) = queue.pop_front() else {
            break;
        };
        for &t in kripke.successors(s) {
            if !seen[t] {
                seen[t] = true;
                parent[t] = Some(s);
                if is_bad[t] {
                    hit = Some(t);
                    break;
                }
                queue.push_back(t);
            }
        }
    }
    match hit {
        Some(mut cursor) => {
            let mut trace = vec![cursor];
            while let Some(p) = parent[cursor] {
                trace.push(p);
                cursor = p;
            }
            trace.reverse();
            SafetyVerdict::Unsafe { trace }
        }
        None => {
            let mut invariant = Bitset::empty(n);
            for (s, &reached) in seen.iter().enumerate() {
                if reached {
                    invariant.insert(s);
                }
            }
            SafetyVerdict::Safe { invariant }
        }
    }
}

/// Iterative-deepening BMC: the classic bounded-model-checking loop
/// that re-unrolls the structure from scratch at every bound
/// `d = 0, 1, 2, ..` (exactly as SAT-based BMC re-solves each depth),
/// stopping at the first bound that reaches a bad state or at the
/// fixpoint bound where the frontier empties (the reachability
/// diameter, the explicit-state completeness threshold). On safe
/// instances this costs `Θ(diameter²)` frontier work where a single
/// exact BFS costs `Θ(edges)` — the asymmetry property-directed
/// reachability exists to beat, and the baseline `e15_pdr` sweeps
/// against.
#[must_use]
pub fn bmc_safety_deepening(kripke: &Kripke, bad: &[usize]) -> SafetyVerdict {
    let n = kripke.len();
    let mut is_bad = vec![false; n];
    for &b in bad {
        is_bad[b] = true;
    }
    let start = kripke.initial();
    if is_bad[start] {
        return SafetyVerdict::Unsafe { trace: vec![start] };
    }
    for bound in 0.. {
        // A fresh depth-bounded exploration per bound: no incremental
        // state survives from the previous unrolling.
        let mut parent: Vec<Option<usize>> = vec![None; n];
        let mut seen = vec![false; n];
        seen[start] = true;
        let mut frontier = vec![start];
        let mut depth = 0usize;
        while depth < bound && !frontier.is_empty() {
            let mut next = Vec::new();
            for &s in &frontier {
                for &t in kripke.successors(s) {
                    if seen[t] {
                        continue;
                    }
                    seen[t] = true;
                    parent[t] = Some(s);
                    if is_bad[t] {
                        let mut trace = vec![t];
                        let mut cursor = t;
                        while let Some(p) = parent[cursor] {
                            trace.push(p);
                            cursor = p;
                        }
                        trace.reverse();
                        return SafetyVerdict::Unsafe { trace };
                    }
                    next.push(t);
                }
            }
            depth += 1;
            frontier = next;
        }
        if frontier.is_empty() {
            // Fixpoint below the bound: the reachable set is complete
            // and bad-free.
            let mut invariant = Bitset::empty(n);
            for (s, &reached) in seen.iter().enumerate() {
                if reached {
                    invariant.insert(s);
                }
            }
            return SafetyVerdict::Safe { invariant };
        }
    }
    unreachable!("the deepening loop resolves by the reachability diameter")
}

/// The verdict of a liveness (`FG !bad` over all paths) check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LivenessVerdict {
    /// Every path eventually avoids bad states forever. `k` is the
    /// counter bound that proved it; the invariant lives on the
    /// counter-augmented product.
    Live {
        /// The winning k-liveness bound.
        k: usize,
        /// Inductive invariant over product states.
        invariant: Bitset,
    },
    /// Some path visits a bad state infinitely often, witnessed by a
    /// lasso: `stem` runs from the initial state to the loop entry
    /// (inclusive), `looping` continues from the entry's successor
    /// back around to the entry, and contains a bad state.
    Lasso {
        /// Initial state up to and including the loop entry.
        stem: Vec<usize>,
        /// Successor of the entry around the cycle, ending at the
        /// entry again.
        looping: Vec<usize>,
    },
}

/// Direct lasso search: `FG !bad` fails iff some reachable cycle
/// contains a bad state. Returns the lasso when one exists.
#[must_use]
pub fn bmc_lasso(kripke: &Kripke, bad: &[usize]) -> Option<(Vec<usize>, Vec<usize>)> {
    let reachable = kripke.reachable();
    let mut candidates: Vec<usize> = bad.iter().copied().filter(|&b| reachable[b]).collect();
    candidates.sort_unstable();
    candidates.dedup();
    for b in candidates {
        // A cycle through b: BFS from b's successors back to b.
        if let Some(looping) = path_bfs_from_successors(kripke, b, b) {
            let stem = path_bfs(kripke, kripke.initial(), b).expect("b is reachable");
            return Some((stem, looping));
        }
    }
    None
}

/// The liveness reference verdict: a lasso through bad, or Live (with
/// a degenerate certificate — the reference carries no invariant, so
/// callers compare verdicts only).
#[must_use]
pub fn bmc_liveness(kripke: &Kripke, bad: &[usize]) -> LivenessVerdict {
    match bmc_lasso(kripke, bad) {
        Some((stem, looping)) => LivenessVerdict::Lasso { stem, looping },
        None => LivenessVerdict::Live {
            k: 0,
            invariant: Bitset::empty(0),
        },
    }
}

/// Shortest path `from -> .. -> to` (inclusive), by BFS.
fn path_bfs(kripke: &Kripke, from: usize, to: usize) -> Option<Vec<usize>> {
    if from == to {
        return Some(vec![from]);
    }
    let mut parent: Vec<Option<usize>> = vec![None; kripke.len()];
    let mut seen = vec![false; kripke.len()];
    seen[from] = true;
    let mut queue = std::collections::VecDeque::from([from]);
    while let Some(s) = queue.pop_front() {
        for &t in kripke.successors(s) {
            if !seen[t] {
                seen[t] = true;
                parent[t] = Some(s);
                if t == to {
                    let mut path = vec![to];
                    let mut cursor = to;
                    while let Some(p) = parent[cursor] {
                        path.push(p);
                        cursor = p;
                    }
                    path.reverse();
                    return Some(path);
                }
                queue.push_back(t);
            }
        }
    }
    None
}

/// Shortest nonempty path `from -> s1 -> .. -> to` excluding the start
/// (so a self-loop yields `[to]`).
fn path_bfs_from_successors(kripke: &Kripke, from: usize, to: usize) -> Option<Vec<usize>> {
    if kripke.successors(from).contains(&to) {
        return Some(vec![to]);
    }
    for &s in kripke.successors(from) {
        if let Some(path) = path_bfs(kripke, s, to) {
            // First successor with any path back; shortest-per-entry
            // is enough for a valid certificate.
            return Some(path);
        }
    }
    None
}

/// Replays a lasso certificate against the structure.
///
/// # Errors
///
/// Names the first violation.
pub fn validate_lasso(
    kripke: &Kripke,
    bad: &[usize],
    stem: &[usize],
    looping: &[usize],
) -> Result<(), String> {
    let Some(&first) = stem.first() else {
        return Err("empty lasso stem".into());
    };
    if first != kripke.initial() {
        return Err(format!("stem starts at {first}, not the initial state"));
    }
    for window in stem.windows(2) {
        if !kripke.successors(window[0]).contains(&window[1]) {
            return Err(format!("no stem edge {} -> {}", window[0], window[1]));
        }
    }
    let entry = *stem.last().expect("nonempty");
    let Some(&loop_head) = looping.first() else {
        return Err("empty lasso loop".into());
    };
    if !kripke.successors(entry).contains(&loop_head) {
        return Err(format!("no edge from loop entry {entry} -> {loop_head}"));
    }
    for window in looping.windows(2) {
        if !kripke.successors(window[0]).contains(&window[1]) {
            return Err(format!("no loop edge {} -> {}", window[0], window[1]));
        }
    }
    if *looping.last().expect("nonempty") != entry {
        return Err("loop does not return to its entry".into());
    }
    if !looping.iter().any(|s| bad.contains(s)) {
        return Err("loop contains no bad state".into());
    }
    Ok(())
}

/// Replays a Live certificate without building the counter product.
///
/// `invariant` is a set of product states `s·(k + 2) + c`, where the
/// counter `c` counts bad visits up to `cap = k + 1`: it starts at
/// `bad(initial)` and entering a bad state bumps it, saturating at
/// `cap`. The set must contain the initial product state, be closed
/// under every edge's counter step, and hold no saturated state.
///
/// # Errors
///
/// Names the first violation.
pub fn validate_live_invariant(
    kripke: &Kripke,
    bad: &[usize],
    k: usize,
    invariant: &Bitset,
) -> Result<(), String> {
    let n = kripke.len();
    let cap = k + 1;
    let width = cap + 1;
    if invariant.universe() != n * width {
        return Err("invariant universe mismatch".into());
    }
    let mut is_bad = vec![false; n];
    for &b in bad {
        if b >= n {
            return Err(format!("bad state {b} out of range"));
        }
        is_bad[b] = true;
    }
    // The product state reached by entering `t` with counter `c`.
    let enter = |t: usize, c: usize| t * width + (c + usize::from(is_bad[t])).min(cap);
    if !invariant.contains(enter(kripke.initial(), 0)) {
        return Err("invariant misses the initial product state".into());
    }
    for id in invariant.iter() {
        let (s, c) = (id / width, id % width);
        if c == cap {
            return Err(format!("invariant holds saturated state {id}"));
        }
        for &t in kripke.successors(s) {
            let next = enter(t, c);
            if !invariant.contains(next) {
                return Err(format!(
                    "invariant not closed under product edge {id} -> {next}"
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sl_omega::Alphabet;

    fn build(succ: Vec<Vec<usize>>, initial: usize) -> Kripke {
        let sigma = Alphabet::ab();
        let a = sigma.symbol("a").unwrap();
        let labels = vec![a; succ.len()];
        Kripke::new(sigma, labels, succ, initial)
    }

    #[test]
    fn bfs_finds_shortest_trace() {
        // 0 -> {1, 2}, 1 -> 3, 2 -> 3, 3 -> 3; bad = {3}.
        let k = build(vec![vec![1, 2], vec![3], vec![3], vec![3]], 0);
        match bmc_safety(&k, &[3]) {
            SafetyVerdict::Unsafe { trace } => assert_eq!(trace.len(), 3),
            SafetyVerdict::Safe { .. } => panic!("3 is reachable"),
        }
    }

    #[test]
    fn safe_invariant_is_the_reachable_set() {
        // 0 -> 1 -> 0, 2 -> 2 unreachable bad.
        let k = build(vec![vec![1], vec![0], vec![2]], 0);
        match bmc_safety(&k, &[2]) {
            SafetyVerdict::Safe { invariant } => {
                assert!(invariant.contains(0) && invariant.contains(1));
                assert!(!invariant.contains(2));
            }
            SafetyVerdict::Unsafe { .. } => panic!("2 is unreachable"),
        }
    }

    #[test]
    fn deepening_agrees_with_exact_bfs_on_random_structures() {
        use sl_support::SplitMix;
        let mut rng = SplitMix::new(77);
        for _ in 0..80 {
            let n = 1 + rng.below(9);
            let succ: Vec<Vec<usize>> = (0..n)
                .map(|_| {
                    let outs = 1 + rng.below(3);
                    (0..outs).map(|_| rng.below(n)).collect()
                })
                .collect();
            let bad: Vec<usize> = (0..n).filter(|_| rng.percent() < 30).collect();
            let k = build(succ, rng.below(n));
            let exact = bmc_safety(&k, &bad);
            let deepened = bmc_safety_deepening(&k, &bad);
            match (&exact, &deepened) {
                (SafetyVerdict::Safe { invariant: a }, SafetyVerdict::Safe { invariant: b }) => {
                    assert_eq!(a, b, "both invariants are the reachable set");
                }
                // Both traces are shortest (level-order exploration),
                // so the lengths must agree even if the paths differ.
                (SafetyVerdict::Unsafe { trace: a }, SafetyVerdict::Unsafe { trace: b }) => {
                    assert_eq!(a.len(), b.len(), "shortest trace lengths agree");
                }
                (a, b) => panic!("verdicts disagree: exact={a:?} deepening={b:?}"),
            }
        }
    }

    #[test]
    fn lasso_through_bad_cycle() {
        // 0 -> 1 -> 2 -> 1 with 2 bad: FG !bad fails.
        let k = build(vec![vec![1], vec![2], vec![1]], 0);
        let (stem, looping) = bmc_lasso(&k, &[2]).expect("bad cycle exists");
        validate_lasso(&k, &[2], &stem, &looping).unwrap();
    }

    #[test]
    fn transient_bad_has_no_lasso() {
        // 0 -> 1 -> 2 -> 2, bad = {1}: visited once, FG !bad holds.
        let k = build(vec![vec![1], vec![2], vec![2]], 0);
        assert!(bmc_lasso(&k, &[1]).is_none());
    }

    #[test]
    fn self_loop_bad_state() {
        let k = build(vec![vec![1], vec![1]], 0);
        let (stem, looping) = bmc_lasso(&k, &[1]).expect("1 loops on itself");
        assert_eq!(stem, vec![0, 1]);
        assert_eq!(looping, vec![1]);
        validate_lasso(&k, &[1], &stem, &looping).unwrap();
    }
}
