//! The closure operator on Büchi automata (paper, Section 2.4).
//!
//! The paper describes the operator as: "first removes states that cannot
//! reach an accepting state and then makes every remaining state an
//! accepting state. ... applying this operator to B results in an
//! automaton whose language is the lcl of the language of B."
//!
//! For the language identity to hold on *untrimmed* automata, "cannot
//! reach an accepting state" must be read as "has an empty language from
//! here": a state that reaches an accepting state from which no accepting
//! *cycle* is reachable contributes nothing to `L(B)` and must also be
//! pruned (otherwise the all-accepting step would invent limit words that
//! no member of `L(B)` approximates). [`closure`] therefore keeps exactly
//! the states `q` with `L(B(q)) ≠ ∅` — which coincides with the paper's
//! description on automata whose accepting states all lie on accepting
//! lassos.

use crate::automaton::Buchi;
use crate::graph::reaching;
use sl_support::SccWalk;

/// The set of *live* states: those from which some accepting cycle is
/// reachable, i.e. `L(B(q)) ≠ ∅`.
#[must_use]
pub fn live_states(b: &Buchi) -> Vec<bool> {
    // Accepting states on cycles are the cores of accepting lassos.
    let n = b.num_states();
    let mut cores = vec![false; n];
    let mut walk = SccWalk::new(n);
    let succ = |q: usize, i| b.all_successors(q).get(i).copied();
    for root in 0..n {
        if !walk.visited(root) {
            walk.walk(root, succ, |members| {
                for &q in members {
                    cores[q] = b.is_accepting(q);
                }
                None::<()>
            });
        }
    }
    reaching(b, cores)
}

/// The closure automaton: restrict to live states, then make every state
/// accepting. Its language is `lcl(L(B))`, the Alpern–Schneider closure
/// of `L(B)` — a safety property.
#[must_use]
pub fn closure(b: &Buchi) -> Buchi {
    b.restrict(&live_states(b)).with_all_accepting()
}

/// Whether the automaton is *closure-shaped*: every state accepting and
/// every state live. Closure automata recognize exactly the ω-regular
/// safety properties (Schneider's security automata have this shape).
#[must_use]
pub fn is_closure_shaped(b: &Buchi) -> bool {
    let live = live_states(b);
    (0..b.num_states()).all(|q| b.is_accepting(q)) && live.iter().all(|&l| l)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automaton::BuchiBuilder;
    use sl_omega::{all_lassos, Alphabet, LassoWord, Word};

    /// `lcl` membership oracle for a lasso word wrt an ω-regular
    /// property given by an automaton: `t ∈ lcl(L)` iff every finite
    /// prefix of `t` extends to a word in `L`. For a lasso word it
    /// suffices to check prefixes up to `phase_count * num_states + 1`
    /// (after that, (phase, possible-state-set) pairs repeat).
    fn lcl_contains(b: &Buchi, t: &LassoWord) -> bool {
        let bound = t.phase_count() * (1 << b.num_states().min(16)) + 2;
        for n in 0..bound {
            let prefix = t.prefix(n);
            if !prefix_extendable(b, &prefix) {
                return false;
            }
        }
        true
    }

    /// Whether some word with this prefix is accepted.
    fn prefix_extendable(b: &Buchi, prefix: &Word) -> bool {
        // Set of states reachable on the prefix.
        let mut current: Vec<usize> = vec![b.initial()];
        for i in 0..prefix.len() {
            let sym = prefix.at(i).unwrap();
            let mut next: Vec<usize> = current
                .iter()
                .flat_map(|&q| b.successors(q, sym).iter().copied())
                .collect();
            next.sort_unstable();
            next.dedup();
            current = next;
            if current.is_empty() {
                return false;
            }
        }
        // Some reached state must have a nonempty language.
        let live = live_states(b);
        current.iter().any(|&q| live[q])
    }

    fn gfa() -> (Alphabet, Buchi) {
        let sigma = Alphabet::ab();
        let a = sigma.symbol("a").unwrap();
        let b = sigma.symbol("b").unwrap();
        let mut builder = BuchiBuilder::new(sigma.clone());
        let q0 = builder.add_state(false);
        let qa = builder.add_state(true);
        builder.add_transition(q0, b, q0);
        builder.add_transition(q0, a, qa);
        builder.add_transition(qa, b, q0);
        builder.add_transition(qa, a, qa);
        (sigma, builder.build(q0))
    }

    #[test]
    fn closure_of_gfa_is_universal() {
        // lcl(GF a) = Σ^ω: every prefix extends with a^ω.
        let (sigma, m) = gfa();
        let c = closure(&m);
        for w in all_lassos(&sigma, 2, 2) {
            assert!(c.accepts(&w), "{w}");
        }
    }

    #[test]
    fn closure_matches_lcl_oracle_on_gfa() {
        let (sigma, m) = gfa();
        let c = closure(&m);
        for w in all_lassos(&sigma, 2, 3) {
            assert_eq!(c.accepts(&w), lcl_contains(&m, &w), "{w}");
        }
    }

    #[test]
    fn closure_prunes_dead_accepting_states() {
        // q0 --a--> qf(accepting, no cycle): L(B) = ∅, so the closure
        // must also be empty — the naive "reach an accepting state"
        // reading would wrongly accept a-prefixed limits.
        let sigma = Alphabet::ab();
        let a = sigma.symbol("a").unwrap();
        let mut builder = BuchiBuilder::new(sigma.clone());
        let q0 = builder.add_state(false);
        let qf = builder.add_state(true);
        builder.add_transition(q0, a, qf);
        let m = builder.build(q0);
        let c = closure(&m);
        for w in all_lassos(&sigma, 2, 2) {
            assert!(!c.accepts(&w), "{w}");
        }
    }

    #[test]
    fn closure_prunes_traps_with_unreachable_acceptance() {
        // q0 loops on a (non-accepting); q0 --b--> qf(accepting, no
        // outgoing). L(B) = ∅; lcl must be empty, in particular a^ω must
        // be rejected.
        let sigma = Alphabet::ab();
        let a = sigma.symbol("a").unwrap();
        let bsym = sigma.symbol("b").unwrap();
        let mut builder = BuchiBuilder::new(sigma.clone());
        let q0 = builder.add_state(false);
        let qf = builder.add_state(true);
        builder.add_transition(q0, a, q0);
        builder.add_transition(q0, bsym, qf);
        let m = builder.build(q0);
        let c = closure(&m);
        assert!(!c.accepts(&LassoWord::parse(&sigma, "", "a")));
    }

    #[test]
    fn closure_is_extensive_and_idempotent_on_samples() {
        let (sigma, m) = gfa();
        let c = closure(&m);
        let cc = closure(&c);
        for w in all_lassos(&sigma, 2, 3) {
            // Extensive: L(B) ⊆ L(cl B).
            if m.accepts(&w) {
                assert!(c.accepts(&w), "extensivity on {w}");
            }
            // Idempotent: L(cl cl B) = L(cl B).
            assert_eq!(c.accepts(&w), cc.accepts(&w), "idempotency on {w}");
        }
    }

    #[test]
    fn closure_of_safety_automaton_is_same_language() {
        // "First symbol is a" is a safety property.
        let sigma = Alphabet::ab();
        let a = sigma.symbol("a").unwrap();
        let bsym = sigma.symbol("b").unwrap();
        let mut builder = BuchiBuilder::new(sigma.clone());
        let q0 = builder.add_state(true);
        let q1 = builder.add_state(true);
        builder.add_transition(q0, a, q1);
        builder.add_transition(q1, a, q1);
        builder.add_transition(q1, bsym, q1);
        let m = builder.build(q0);
        let c = closure(&m);
        for w in all_lassos(&sigma, 2, 3) {
            assert_eq!(m.accepts(&w), c.accepts(&w), "{w}");
        }
        assert!(is_closure_shaped(&c));
    }

    #[test]
    fn live_states_identifies_dead_branches() {
        let sigma = Alphabet::ab();
        let a = sigma.symbol("a").unwrap();
        let mut builder = BuchiBuilder::new(sigma.clone());
        let q0 = builder.add_state(false);
        let live = builder.add_state(true);
        let dead = builder.add_state(false);
        builder.add_transition(q0, a, live);
        builder.add_transition(live, a, live);
        builder.add_transition(q0, a, dead);
        let m = builder.build(q0);
        assert_eq!(live_states(&m), vec![true, true, false]);
    }

    #[test]
    fn closure_shape_detection() {
        let sigma = Alphabet::ab();
        assert!(is_closure_shaped(&Buchi::universal(sigma.clone())));
        let (_, m) = gfa();
        assert!(!is_closure_shaped(&m));
    }
}
