//! Membership of lasso words.
//!
//! To decide `u · v^ω ∈ L(B)`, walk the product of `B` with the word's
//! phase graph and look for a reachable cycle through an accepting
//! automaton state. The product has `|Q| * (|u| + |v|)` nodes; one
//! Tarjan walk from `(initial, 0)` visits only the reachable ones and
//! stops at the first cyclic component holding an accepting state.

use crate::automaton::Buchi;
use sl_omega::LassoWord;
use sl_support::SccWalk;

/// Whether the automaton accepts the lasso word.
#[must_use]
pub fn accepts(b: &Buchi, word: &LassoWord) -> bool {
    let phases = word.phase_count();
    let succ = |v: usize, k: usize| {
        let (q, i) = (v / phases, v % phases);
        let next = b.successors(q, word.at(i)).get(k)?;
        Some(next * phases + word.next_phase(i))
    };
    let good = |members: &[usize]| {
        members
            .iter()
            .any(|&v| b.is_accepting(v / phases))
            .then_some(())
    };
    SccWalk::new(b.num_states() * phases)
        .walk(b.initial() * phases, succ, good)
        .is_some()
}

impl Buchi {
    /// Whether the automaton accepts the lasso word; method form of
    /// [`accepts`].
    #[must_use]
    pub fn accepts(&self, word: &LassoWord) -> bool {
        accepts(self, word)
    }
}

/// A Büchi automaton viewed as a [`sl_omega::LinearProperty`] — the
/// language it recognizes.
pub struct BuchiProperty {
    automaton: Buchi,
    name: String,
}

impl BuchiProperty {
    /// Wraps an automaton as a property.
    #[must_use]
    pub fn new(automaton: Buchi, name: impl Into<String>) -> Self {
        BuchiProperty {
            automaton,
            name: name.into(),
        }
    }

    /// The wrapped automaton.
    #[must_use]
    pub fn automaton(&self) -> &Buchi {
        &self.automaton
    }
}

impl sl_omega::LinearProperty for BuchiProperty {
    fn contains(&self, word: &LassoWord) -> bool {
        accepts(&self.automaton, word)
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automaton::BuchiBuilder;
    use crate::random::{random_buchi, random_nondeterministic, RandomConfig};
    use sl_omega::{all_lassos, Alphabet};

    /// Membership by definition, with no SCC code: some product node
    /// that is reachable and accepting reaches itself again in one or
    /// more steps. Kept as the reference the walk is checked against.
    fn reference_accepts(b: &Buchi, word: &LassoWord) -> bool {
        let phases = word.phase_count();
        let n = b.num_states() * phases;
        let succ = |v: usize| -> Vec<usize> {
            let (q, i) = (v / phases, v % phases);
            let j = word.next_phase(i);
            b.successors(q, word.at(i))
                .iter()
                .map(|&s| s * phases + j)
                .collect()
        };
        // The nodes reachable from `from` in one or more steps.
        let after = |from: usize| {
            let mut seen = vec![false; n];
            let mut stack = succ(from);
            while let Some(v) = stack.pop() {
                if !seen[v] {
                    seen[v] = true;
                    stack.extend(succ(v));
                }
            }
            seen
        };
        let start = b.initial() * phases;
        let reached = after(start);
        (0..n).any(|v| (v == start || reached[v]) && b.is_accepting(v / phases) && after(v)[v])
    }

    #[test]
    fn walk_matches_the_reference_on_random_automata() {
        let mut verdicts = [0usize; 2];
        for (k, sigma) in [Alphabet::ab(), Alphabet::new(&["x", "y", "z"])]
            .iter()
            .enumerate()
        {
            let lassos = all_lassos(sigma, 3, 3);
            for seed in 0..24u64 {
                let states = 1 + (seed % 7) as usize;
                let seed = seed + 100 * k as u64;
                let deterministic = random_buchi(
                    sigma,
                    seed,
                    RandomConfig {
                        states,
                        density_percent: 70,
                        accepting_percent: 40,
                    },
                );
                let nondeterministic = random_nondeterministic(sigma, seed, states, 160, 40);
                for b in [&deterministic, &nondeterministic] {
                    for w in &lassos {
                        let verdict = accepts(b, w);
                        assert_eq!(verdict, reference_accepts(b, w), "seed {seed}, {w}");
                        verdicts[usize::from(verdict)] += 1;
                    }
                }
            }
        }
        assert!(verdicts[0] > 1_000 && verdicts[1] > 1_000, "{verdicts:?}");
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
    fn gfa_membership_matches_semantics() {
        let (sigma, m) = gfa();
        let a = sigma.symbol("a").unwrap();
        for w in all_lassos(&sigma, 3, 3) {
            assert_eq!(m.accepts(&w), w.infinitely_often(a), "{w}");
        }
    }

    #[test]
    fn universal_accepts_everything() {
        let sigma = Alphabet::ab();
        let m = Buchi::universal(sigma.clone());
        for w in all_lassos(&sigma, 2, 2) {
            assert!(m.accepts(&w));
        }
    }

    #[test]
    fn empty_accepts_nothing() {
        let sigma = Alphabet::ab();
        let m = Buchi::empty_language(sigma.clone());
        for w in all_lassos(&sigma, 2, 2) {
            assert!(!m.accepts(&w));
        }
    }

    #[test]
    fn finite_visits_to_accepting_do_not_accept() {
        // Accepting state visited exactly once: a b^ω should be rejected
        // by an automaton whose only accepting state has no cycle.
        let sigma = Alphabet::ab();
        let a = sigma.symbol("a").unwrap();
        let b = sigma.symbol("b").unwrap();
        let mut builder = BuchiBuilder::new(sigma.clone());
        let q0 = builder.add_state(false);
        let qf = builder.add_state(true);
        let qs = builder.add_state(false);
        builder.add_transition(q0, a, qf);
        builder.add_transition(qf, b, qs);
        builder.add_transition(qs, b, qs);
        let m = builder.build(q0);
        assert!(!m.accepts(&sl_omega::LassoWord::parse(&sigma, "a", "b")));
    }

    #[test]
    fn property_adapter() {
        use sl_omega::LinearProperty;
        let (sigma, m) = gfa();
        let p = BuchiProperty::new(m, "GF a");
        assert_eq!(p.name(), "GF a");
        assert!(p.contains(&sl_omega::LassoWord::parse(&sigma, "", "a")));
        assert_eq!(p.automaton().num_states(), 2);
    }
}
