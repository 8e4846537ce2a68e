//! Path quantification over Kripke structures with LTL path formulas —
//! the bridge between the branching world and the linear-time machinery.
//!
//! `E φ` ("some path from the initial state satisfies the LTL formula
//! φ") is decided exactly by translating φ to a Büchi automaton
//! (`sl-ltl`), forming the product with the structure, and searching for
//! a reachable accepting cycle. `A φ` is `¬E ¬φ`. This gives exact
//! deciders for all the CTL* shapes the paper's Section 4.3 examples
//! use, and is cross-checked against the dedicated limit-operator
//! implementations in [`crate::ctl`].

use crate::kripke::Kripke;
use sl_buchi::Buchi;
use sl_ltl::{translate, Ltl};

/// Whether some path from the initial state satisfies the LTL formula.
///
/// # Panics
///
/// Panics if the formula has more than 64 until-subformulas in
/// negation normal form ([`translate()`] panics there).
#[must_use]
pub fn exists_path(kripke: &Kripke, formula: &Ltl) -> bool {
    let nba = translate(kripke.alphabet(), formula);
    exists_accepted_path(kripke, &nba)
}

/// Whether every path from the initial state satisfies the formula.
///
/// # Panics
///
/// Panics if the formula's negation has more than 64 until-subformulas in
/// negation normal form ([`translate()`] panics there).
#[must_use]
pub fn all_paths(kripke: &Kripke, formula: &Ltl) -> bool {
    !exists_path(kripke, &formula.clone().not())
}

/// Whether some path's label word is accepted by the automaton.
#[must_use]
pub fn exists_accepted_path(kripke: &Kripke, nba: &Buchi) -> bool {
    let ns = kripke.len();
    let nq = nba.num_states();
    let n = ns * nq;
    let node = |s: usize, q: usize| s * nq + q;
    let succ = |v: usize| -> Vec<usize> {
        let (s, q) = (v / nq, v % nq);
        let sym = kripke.label(s);
        let mut out = Vec::new();
        for &qn in nba.successors(q, sym) {
            for &sn in kripke.successors(s) {
                out.push(node(sn, qn));
            }
        }
        out
    };
    // Forward reachability from (initial, nba initial).
    let start = node(kripke.initial(), nba.initial());
    let mut reach = vec![false; n];
    reach[start] = true;
    let mut stack = vec![start];
    while let Some(v) = stack.pop() {
        for w in succ(v) {
            if !reach[w] {
                reach[w] = true;
                stack.push(w);
            }
        }
    }
    // Accepting product node on a reachable cycle?
    // Reuse a small Tarjan here.
    let comps = sccs(n, &succ);
    let mut comp_size = vec![0usize; n];
    for &c in &comps {
        comp_size[c] += 1;
    }
    (0..n).any(|v| {
        reach[v] && nba.is_accepting(v % nq) && (comp_size[comps[v]] > 1 || succ(v).contains(&v))
    })
}

/// Component ids by iterative Tarjan over a successor function.
fn sccs(n: usize, succ: &dyn Fn(usize) -> Vec<usize>) -> Vec<usize> {
    const UNSET: usize = usize::MAX;
    let mut index = vec![UNSET; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack = Vec::new();
    let mut comp = vec![UNSET; n];
    let mut next = 0usize;
    let mut count = 0usize;
    enum Frame {
        Enter(usize),
        Resume(usize, Vec<usize>, usize),
    }
    for root in 0..n {
        if index[root] != UNSET {
            continue;
        }
        let mut work = vec![Frame::Enter(root)];
        while let Some(frame) = work.pop() {
            match frame {
                Frame::Enter(v) => {
                    index[v] = next;
                    low[v] = next;
                    next += 1;
                    stack.push(v);
                    on_stack[v] = true;
                    work.push(Frame::Resume(v, succ(v), 0));
                }
                Frame::Resume(v, outs, mut i) => {
                    let mut descended = false;
                    while i < outs.len() {
                        let w = outs[i];
                        i += 1;
                        if index[w] == UNSET {
                            work.push(Frame::Resume(v, outs, i));
                            work.push(Frame::Enter(w));
                            descended = true;
                            break;
                        } else if on_stack[w] {
                            low[v] = low[v].min(index[w]);
                        }
                    }
                    if descended {
                        continue;
                    }
                    if low[v] == index[v] {
                        loop {
                            let w = stack.pop().expect("scc stack underflow");
                            on_stack[w] = false;
                            comp[w] = count;
                            if w == v {
                                break;
                            }
                        }
                        count += 1;
                    }
                    if let Some(Frame::Resume(parent, _, _)) = work.last() {
                        let parent = *parent;
                        low[parent] = low[parent].min(low[v]);
                    }
                }
            }
        }
    }
    comp
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctl::{parse_ctl, satisfies};
    use crate::regular::enumerate_regular_trees;
    use sl_ltl::parse;
    use sl_omega::Alphabet;

    fn sigma() -> Alphabet {
        Alphabet::ab()
    }

    /// 0(a) -> {0, 1}; 1(b) -> {1}.
    fn simple() -> Kripke {
        let s = sigma();
        let a = s.symbol("a").unwrap();
        let b = s.symbol("b").unwrap();
        Kripke::new(s, vec![a, b], vec![vec![0, 1], vec![1]], 0)
    }

    #[test]
    fn exists_and_forall_basics() {
        let s = sigma();
        let k = simple();
        assert!(exists_path(&k, &parse(&s, "G a").unwrap()));
        assert!(exists_path(&k, &parse(&s, "F b").unwrap()));
        assert!(!all_paths(&k, &parse(&s, "F b").unwrap()));
        assert!(all_paths(&k, &parse(&s, "a").unwrap()));
        assert!(!exists_path(&k, &parse(&s, "G b").unwrap()));
        // Starting at 1 everything is b forever.
        assert!(all_paths(&k.rooted_at(1), &parse(&s, "G b").unwrap()));
    }

    #[test]
    fn limit_operators_agree_with_path_quantification() {
        // Differential: the dedicated graph algorithms for EGF/EFG/AGF/
        // AFG in the CTL checker must agree with the automaton-product
        // deciders on every 2-node-width-2 regular tree.
        let s = sigma();
        let gfa = parse(&s, "G F a").unwrap();
        let fga = parse(&s, "F G a").unwrap();
        for t in enumerate_regular_trees(&s, 2, 2) {
            let k = t.to_kripke();
            assert_eq!(
                satisfies(&k, &parse_ctl(&s, "EGF a").unwrap()),
                exists_path(&k, &gfa),
                "EGF mismatch on {t:?}"
            );
            assert_eq!(
                satisfies(&k, &parse_ctl(&s, "EFG a").unwrap()),
                exists_path(&k, &fga),
                "EFG mismatch on {t:?}"
            );
            assert_eq!(
                satisfies(&k, &parse_ctl(&s, "AGF a").unwrap()),
                all_paths(&k, &gfa),
                "AGF mismatch on {t:?}"
            );
            assert_eq!(
                satisfies(&k, &parse_ctl(&s, "AFG a").unwrap()),
                all_paths(&k, &fga),
                "AFG mismatch on {t:?}"
            );
        }
    }

    #[test]
    fn ctl_af_agrees_with_path_f() {
        // AF p on trees = A (F p) for propositional p: cross-check on a
        // universe of regular trees.
        let s = sigma();
        let fa = parse(&s, "F a").unwrap();
        let af = parse_ctl(&s, "AF a").unwrap();
        for t in enumerate_regular_trees(&s, 2, 2) {
            let k = t.to_kripke();
            assert_eq!(satisfies(&k, &af), all_paths(&k, &fa), "{t:?}");
        }
    }

    #[test]
    fn next_operator_through_product() {
        let s = sigma();
        let k = simple();
        assert!(exists_path(&k, &parse(&s, "X b").unwrap()));
        assert!(exists_path(&k, &parse(&s, "X a").unwrap()));
        assert!(!all_paths(&k, &parse(&s, "X b").unwrap()));
    }
}
