//! Emptiness checking with accepting-lasso extraction.
//!
//! `L(B)` is nonempty iff some accepting state lying on a cycle is
//! reachable from the initial state; the witness is then an ultimately
//! periodic word, which we return as a [`LassoWord`].

use crate::automaton::{Buchi, StateId};
use sl_omega::{LassoWord, Symbol, Word};
use sl_support::SccWalk;

/// Finds an accepted lasso word, or `None` if the language is empty.
/// The lasso runs through the smallest accepting state that lies on a
/// reachable cycle, along a shortest stem and a shortest cycle.
#[must_use]
pub fn find_accepted_word(b: &Buchi) -> Option<LassoWord> {
    let mut core: Option<StateId> = None;
    let succ = |q: usize, i| b.all_successors(q).get(i).copied();
    SccWalk::new(b.num_states()).walk(b.initial(), succ, |members| {
        if let Some(q) = members.iter().copied().filter(|&q| b.is_accepting(q)).min() {
            core = Some(core.map_or(q, |c| c.min(q)));
        }
        None::<()>
    });
    let q = core?;
    // Stem: shortest symbol path initial -> q.
    let stem = symbol_path(b, b.initial(), q, false)?;
    // Cycle: shortest nonempty symbol path q -> q.
    let cycle = symbol_path(b, q, q, true)?;
    Some(LassoWord::new(&stem, &cycle))
}

/// Whether the automaton's language is empty.
#[must_use]
pub fn is_empty(b: &Buchi) -> bool {
    find_accepted_word(b).is_none()
}

/// BFS for a symbol-labeled path from `from` to `to`. With
/// `require_step`, the path must take at least one transition (for
/// cycles).
fn symbol_path(b: &Buchi, from: StateId, to: StateId, require_step: bool) -> Option<Word> {
    // parent[q] = (previous state, symbol) on a shortest path.
    let mut parent: Vec<Option<(StateId, Symbol)>> = vec![None; b.num_states()];
    let mut visited = vec![false; b.num_states()];
    let mut queue = std::collections::VecDeque::new();

    if !require_step && from == to {
        return Some(Word::empty());
    }
    // Seed with the first step explicitly so cycles work.
    for sym in b.alphabet().symbols() {
        for &succ in b.successors(from, sym) {
            if succ == to {
                return Some(Word::new(&[sym]));
            }
            if !visited[succ] {
                visited[succ] = true;
                parent[succ] = Some((from, sym));
                queue.push_back(succ);
            }
        }
    }
    while let Some(q) = queue.pop_front() {
        for sym in b.alphabet().symbols() {
            for &succ in b.successors(q, sym) {
                if succ == to {
                    // Reconstruct path: from ... q, then sym.
                    let mut symbols = vec![sym];
                    let mut cur = q;
                    while cur != from {
                        let (prev, s) = parent[cur].expect("parent chain broken");
                        symbols.push(s);
                        cur = prev;
                    }
                    symbols.reverse();
                    return Some(Word::new(&symbols));
                }
                if !visited[succ] {
                    visited[succ] = true;
                    parent[succ] = Some((q, sym));
                    queue.push_back(succ);
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automaton::BuchiBuilder;
    use crate::member::accepts;
    use sl_omega::Alphabet;

    #[test]
    fn universal_is_nonempty() {
        let sigma = Alphabet::ab();
        let w = find_accepted_word(&Buchi::universal(sigma)).unwrap();
        assert_eq!(w.period(), 1);
    }

    #[test]
    fn empty_language_is_empty() {
        let sigma = Alphabet::ab();
        assert!(is_empty(&Buchi::empty_language(sigma)));
    }

    #[test]
    fn accepting_state_without_cycle_is_empty() {
        let sigma = Alphabet::ab();
        let a = sigma.symbol("a").unwrap();
        let mut b = BuchiBuilder::new(sigma);
        let q0 = b.add_state(false);
        let qf = b.add_state(true);
        b.add_transition(q0, a, qf);
        assert!(is_empty(&b.build(q0)));
    }

    #[test]
    fn unreachable_accepting_cycle_is_empty() {
        let sigma = Alphabet::ab();
        let a = sigma.symbol("a").unwrap();
        let mut b = BuchiBuilder::new(sigma);
        let q0 = b.add_state(false);
        let qf = b.add_state(true);
        b.add_transition(qf, a, qf);
        b.add_transition(q0, a, q0); // q0 loops but never reaches qf
        assert!(is_empty(&b.build(q0)));
    }

    #[test]
    fn witness_is_accepted() {
        // GF a automaton.
        let sigma = Alphabet::ab();
        let a = sigma.symbol("a").unwrap();
        let bsym = sigma.symbol("b").unwrap();
        let mut builder = BuchiBuilder::new(sigma.clone());
        let q0 = builder.add_state(false);
        let qa = builder.add_state(true);
        builder.add_transition(q0, bsym, q0);
        builder.add_transition(q0, a, qa);
        builder.add_transition(qa, bsym, q0);
        builder.add_transition(qa, a, qa);
        let m = builder.build(q0);
        let w = find_accepted_word(&m).unwrap();
        assert!(accepts(&m, &w), "witness {w} must be accepted");
    }

    #[test]
    fn witness_needs_nonempty_stem() {
        // Accepting cycle only reachable after reading 'b a'.
        let sigma = Alphabet::ab();
        let a = sigma.symbol("a").unwrap();
        let bsym = sigma.symbol("b").unwrap();
        let mut builder = BuchiBuilder::new(sigma.clone());
        let q0 = builder.add_state(false);
        let q1 = builder.add_state(false);
        let qf = builder.add_state(true);
        builder.add_transition(q0, bsym, q1);
        builder.add_transition(q1, a, qf);
        builder.add_transition(qf, a, qf);
        let m = builder.build(q0);
        let w = find_accepted_word(&m).unwrap();
        assert!(accepts(&m, &w));
        // The only accepted word is b a a^ω = b (a)^ω.
        assert_eq!(w, LassoWord::parse(&sigma, "b", "a"));
    }

    #[test]
    fn self_loop_accepting_cycle_found() {
        let sigma = Alphabet::ab();
        let a = sigma.symbol("a").unwrap();
        let mut builder = BuchiBuilder::new(sigma.clone());
        let q0 = builder.add_state(true);
        builder.add_transition(q0, a, q0);
        let m = builder.build(q0);
        assert_eq!(
            find_accepted_word(&m).unwrap(),
            LassoWord::parse(&sigma, "", "a")
        );
    }
}
