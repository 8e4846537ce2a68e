//! Independent answer checks. Every function here decides or validates
//! from the benchmark's own generated inputs with textbook algorithms
//! (reachability, strongly connected components, lasso products), and
//! shares no code with the daemon.

use crate::model::{Kripke, Lasso, Nba};
use std::collections::HashSet;

/// Strongly connected components (iterative Tarjan). Returns the
/// component index of every node and, per component, whether it holds a
/// cycle (more than one node, or a self-loop).
#[must_use]
pub fn sccs(succ: &[Vec<usize>]) -> (Vec<usize>, Vec<bool>) {
    const NONE: usize = usize::MAX;
    let n = succ.len();
    let mut index = vec![NONE; n];
    let mut low = vec![0; n];
    let mut on_stack = vec![false; n];
    let mut stack = Vec::new();
    let mut comp = vec![NONE; n];
    let mut cyclic = Vec::new();
    let mut next = 0;
    for root in 0..n {
        if index[root] != NONE {
            continue;
        }
        let mut frames: Vec<(usize, usize)> = vec![(root, 0)];
        index[root] = next;
        low[root] = next;
        next += 1;
        stack.push(root);
        on_stack[root] = true;
        while let Some(&mut (v, ref mut edge)) = frames.last_mut() {
            if let Some(&w) = succ[v].get(*edge) {
                *edge += 1;
                if index[w] == NONE {
                    index[w] = next;
                    low[w] = next;
                    next += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    frames.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
                continue;
            }
            frames.pop();
            if let Some(&(parent, _)) = frames.last() {
                low[parent] = low[parent].min(low[v]);
            }
            if low[v] == index[v] {
                let id = cyclic.len();
                let mut size = 0;
                loop {
                    let w = stack.pop().expect("tarjan stack holds the component");
                    on_stack[w] = false;
                    comp[w] = id;
                    size += 1;
                    if w == v {
                        break;
                    }
                }
                cyclic.push(size > 1 || succ[v].contains(&v));
            }
        }
    }
    (comp, cyclic)
}

/// Whether the Büchi automaton accepts the lasso word: some run of the
/// product of automaton and word positions reaches an accepting state
/// that lies on a cycle.
#[must_use]
pub fn accepts(nba: &Nba, word: &Lasso) -> bool {
    let len = word.stem.len() + word.cycle.len();
    let letter = |pos: usize| {
        if pos < word.stem.len() {
            word.stem[pos]
        } else {
            word.cycle[pos - word.stem.len()]
        }
    };
    let next_pos = |pos: usize| {
        if pos + 1 < len {
            pos + 1
        } else {
            word.stem.len()
        }
    };
    let id = |q: usize, pos: usize| q * len + pos;
    let nodes = nba.len() * len;
    let mut succ: Vec<Vec<usize>> = vec![Vec::new(); nodes];
    let mut reached = vec![false; nodes];
    let start = id(nba.initial, 0);
    reached[start] = true;
    let mut work = vec![(nba.initial, 0)];
    while let Some((q, pos)) = work.pop() {
        let np = next_pos(pos);
        for &t in &nba.succ[q][letter(pos)] {
            succ[id(q, pos)].push(id(t, np));
            if !reached[id(t, np)] {
                reached[id(t, np)] = true;
                work.push((t, np));
            }
        }
    }
    let (comp, cyclic) = sccs(&succ);
    (0..nodes).any(|v| reached[v] && nba.accepting[v / len] && cyclic[comp[v]])
}

/// States reachable from the initial state.
#[must_use]
pub fn reachable(k: &Kripke) -> Vec<bool> {
    let mut seen = vec![false; k.succ.len()];
    seen[k.initial] = true;
    let mut work = vec![k.initial];
    while let Some(s) = work.pop() {
        for &t in &k.succ[s] {
            if !seen[t] {
                seen[t] = true;
                work.push(t);
            }
        }
    }
    seen
}

/// The benchmark's own decision of `AG !bad`: safe iff no bad state is
/// reachable.
#[must_use]
pub fn decide_safe(k: &Kripke) -> bool {
    let seen = reachable(k);
    !k.bad.iter().any(|&b| seen[b])
}

/// The benchmark's own decision of `FG !bad` on all paths: live iff no
/// reachable bad state lies on a cycle.
#[must_use]
pub fn decide_live(k: &Kripke) -> bool {
    let seen = reachable(k);
    let (comp, cyclic) = sccs(&k.succ);
    !k.bad.iter().any(|&b| seen[b] && cyclic[comp[b]])
}

fn is_edge(k: &Kripke, from: usize, to: usize) -> bool {
    k.succ.get(from).is_some_and(|row| row.contains(&to))
}

/// A `safe` certificate: contains the initial state, is closed under
/// successors, and holds no bad state.
pub fn validate_invariant(k: &Kripke, invariant: &[usize]) -> Result<(), String> {
    let set: HashSet<usize> = invariant.iter().copied().collect();
    if !set.contains(&k.initial) {
        return Err("invariant misses the initial state".into());
    }
    for &s in invariant {
        if s >= k.succ.len() {
            return Err(format!("invariant names state {s} out of range"));
        }
        if k.bad.binary_search(&s).is_ok() {
            return Err(format!("invariant holds bad state {s}"));
        }
        if let Some(t) = k.succ[s].iter().find(|t| !set.contains(t)) {
            return Err(format!("invariant is not closed: {s} -> {t}"));
        }
    }
    Ok(())
}

/// An `unsafe` trace: starts at the initial state, follows edges, ends
/// on a bad state.
pub fn validate_trace(k: &Kripke, trace: &[usize]) -> Result<(), String> {
    if trace.first() != Some(&k.initial) {
        return Err("trace does not start at the initial state".into());
    }
    if let Some(w) = trace.windows(2).find(|w| !is_edge(k, w[0], w[1])) {
        return Err(format!("trace uses a missing edge {} -> {}", w[0], w[1]));
    }
    match trace.last() {
        Some(last) if k.bad.binary_search(last).is_ok() => Ok(()),
        _ => Err("trace does not end on a bad state".into()),
    }
}

/// A `lasso`: the stem runs from the initial state to the loop entry,
/// the loop leaves the entry and returns to it, and visits a bad state.
pub fn validate_lasso(k: &Kripke, stem: &[usize], looping: &[usize]) -> Result<(), String> {
    validate_path_from_initial(k, stem)?;
    let entry = *stem.last().expect("checked nonempty");
    let Some(&head) = looping.first() else {
        return Err("empty loop".into());
    };
    if !is_edge(k, entry, head) {
        return Err(format!("no edge from the loop entry {entry} to {head}"));
    }
    if let Some(w) = looping.windows(2).find(|w| !is_edge(k, w[0], w[1])) {
        return Err(format!("loop uses a missing edge {} -> {}", w[0], w[1]));
    }
    if looping.last() != Some(&entry) {
        return Err("loop does not return to its entry".into());
    }
    if !looping.iter().any(|s| k.bad.binary_search(s).is_ok()) {
        return Err("loop visits no bad state".into());
    }
    Ok(())
}

fn validate_path_from_initial(k: &Kripke, path: &[usize]) -> Result<(), String> {
    if path.first() != Some(&k.initial) {
        return Err("path does not start at the initial state".into());
    }
    match path.windows(2).find(|w| !is_edge(k, w[0], w[1])) {
        Some(w) => Err(format!("path uses a missing edge {} -> {}", w[0], w[1])),
        None => Ok(()),
    }
}

/// A `live` certificate: an invariant of the counter product that
/// counts bad visits up to `cap = k + 1` (product state `s * (cap + 1) +
/// c`). It must contain the product's initial state, be closed under
/// product successors, and hold no saturated state (`c = cap`).
pub fn validate_live(k: &Kripke, bound: usize, invariant: &[usize]) -> Result<(), String> {
    if bound > k.bad.len() {
        return Err(format!("bound k = {bound} exceeds |bad| = {}", k.bad.len()));
    }
    let cap = bound + 1;
    let width = cap + 1;
    let is_bad = |s: usize| usize::from(k.bad.binary_search(&s).is_ok());
    let set: HashSet<usize> = invariant.iter().copied().collect();
    let init = k.initial * width + is_bad(k.initial).min(cap);
    if !set.contains(&init) {
        return Err("product invariant misses the initial state".into());
    }
    for &id in invariant {
        let (s, c) = (id / width, id % width);
        if s >= k.succ.len() {
            return Err(format!("product state {id} out of range"));
        }
        if c == cap {
            return Err(format!("product invariant holds saturated state {id}"));
        }
        for &t in &k.succ[s] {
            let next = t * width + (c + is_bad(t)).min(cap);
            if !set.contains(&next) {
                return Err(format!("product invariant is not closed: {id} -> {next}"));
            }
        }
    }
    Ok(())
}

/// Monitor verdicts the benchmark expects: the safety closure of an
/// all-accepting automaton accepts a prefix iff its run exists and ends
/// in a state with an infinite continuation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Still extendable.
    Ok,
    /// Irrecoverably violated.
    Violation,
}

impl Verdict {
    /// The wire name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Violation => "violation",
        }
    }
}

/// States from which an infinite path exists.
#[must_use]
pub fn live_states(nba: &Nba) -> Vec<bool> {
    let succ: Vec<Vec<usize>> = nba
        .succ
        .iter()
        .map(|row| row.iter().flatten().copied().collect())
        .collect();
    let (comp, cyclic) = sccs(&succ);
    let mut live: Vec<bool> = (0..nba.len()).map(|q| cyclic[comp[q]]).collect();
    let mut changed = true;
    while changed {
        changed = false;
        for q in 0..nba.len() {
            if !live[q] && succ[q].iter().any(|&t| live[t]) {
                live[q] = true;
                changed = true;
            }
        }
    }
    live
}

/// One run of a deterministic all-accepting target over `symbols`,
/// from `state` (`None` = already violated). Returns the verdict after
/// each symbol and the final state.
#[must_use]
pub fn run_monitor(
    target: &Nba,
    live: &[bool],
    mut state: Option<usize>,
    symbols: &[usize],
) -> (Vec<Verdict>, Option<usize>) {
    let mut verdicts = Vec::with_capacity(symbols.len());
    for &s in symbols {
        state = state
            .and_then(|q| target.succ[q][s].first().copied())
            .filter(|&t| live[t]);
        verdicts.push(if state.is_some() {
            Verdict::Ok
        } else {
            Verdict::Violation
        });
    }
    (verdicts, state)
}
