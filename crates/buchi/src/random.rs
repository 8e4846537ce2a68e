//! Seeded pseudo-random automata for property tests and benchmarks.
//!
//! Deterministic in the seed (SplitMix64), with a density knob so tests
//! can sweep from sparse partial machines to complete ones. Every
//! automaton [`random_buchi`] draws is deterministic: each (state,
//! symbol) pair gets at most one successor, whatever the density.
//! [`random_nondeterministic`] draws the other kind, for the inclusion
//! engine that a nondeterministic right operand reaches.

use crate::automaton::{Buchi, BuchiBuilder};
use sl_omega::Alphabet;
use sl_support::SplitMix;

/// Configuration for [`random_buchi`].
#[derive(Debug, Clone, Copy)]
pub struct RandomConfig {
    /// Number of states (must be at least 1).
    pub states: usize,
    /// Chance, in percent, that a (state, symbol) pair gets a successor.
    /// A pair never gets more than one, so values of 100 or more mean
    /// exactly one successor per pair (a complete deterministic
    /// automaton).
    pub density_percent: u32,
    /// Probability of each state being accepting, in percent.
    pub accepting_percent: u32,
}

impl Default for RandomConfig {
    fn default() -> Self {
        RandomConfig {
            states: 5,
            density_percent: 80,
            accepting_percent: 30,
        }
    }
}

/// Generates a pseudo-random deterministic Büchi automaton. Each
/// (state, symbol) pair independently gets one successor with the
/// configured density, and a state left with none gets one transition
/// on a random symbol, so runs do not die trivially.
///
/// # Panics
///
/// Panics if `config.states == 0`.
#[must_use]
pub fn random_buchi(alphabet: &Alphabet, seed: u64, config: RandomConfig) -> Buchi {
    assert!(config.states > 0, "need at least one state");
    // The promoted sl_support::SplitMix reproduces the exact streams of
    // the SplitMix struct that used to be private here, so seeded
    // corpora stay bit-identical across the migration.
    let mut rng = SplitMix::new(seed);
    let mut builder = BuchiBuilder::new(alphabet.clone());
    for _ in 0..config.states {
        builder.add_state(rng.percent() < config.accepting_percent);
    }
    for q in 0..config.states {
        let mut has_outgoing = false;
        for sym in alphabet.symbols() {
            if rng.percent() < config.density_percent {
                builder.add_transition(q, sym, rng.below(config.states));
                has_outgoing = true;
            }
        }
        if !has_outgoing {
            let sym_index = rng.below(alphabet.len());
            let sym = alphabet.symbols().nth(sym_index).expect("in range");
            builder.add_transition(q, sym, rng.below(config.states));
        }
    }
    builder.build(0)
}

/// A seeded automaton with `density_percent / 100` successors per
/// (state, symbol) pair, plus one more with the remaining percent —
/// nondeterministic past 100%, and (unlike [`random_buchi`]) free to
/// leave a state without successors. State 0 is initial. Successors are
/// drawn with replacement, so a pair can get fewer than the density
/// promises.
#[must_use]
pub fn random_nondeterministic(
    alphabet: &Alphabet,
    seed: u64,
    states: usize,
    density_percent: u32,
    accepting_percent: u32,
) -> Buchi {
    let mut rng = SplitMix::new(seed);
    let mut builder = BuchiBuilder::new(alphabet.clone());
    for _ in 0..states {
        builder.add_state(rng.percent() < accepting_percent);
    }
    for q in 0..states {
        for sym in alphabet.symbols() {
            let extra = u32::from(rng.percent() < density_percent % 100);
            for _ in 0..density_percent / 100 + extra {
                builder.add_transition(q, sym, rng.below(states));
            }
        }
    }
    builder.build(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::classify;
    use crate::closure::closure;
    use crate::decompose::decompose;
    use sl_omega::all_lassos;

    #[test]
    fn deterministic_in_seed() {
        let sigma = Alphabet::ab();
        let a = random_buchi(&sigma, 7, RandomConfig::default());
        let b = random_buchi(&sigma, 7, RandomConfig::default());
        assert_eq!(a, b);
        let c = random_buchi(&sigma, 8, RandomConfig::default());
        assert_ne!(a, c);
    }

    #[test]
    fn every_state_has_outgoing() {
        let sigma = Alphabet::ab();
        for seed in 0..20 {
            let m = random_buchi(
                &sigma,
                seed,
                RandomConfig {
                    states: 6,
                    density_percent: 10,
                    accepting_percent: 50,
                },
            );
            for q in 0..m.num_states() {
                assert!(!m.all_successors(q).is_empty(), "seed {seed} state {q}");
            }
        }
    }

    #[test]
    fn random_decompositions_hold_on_samples() {
        let sigma = Alphabet::ab();
        for seed in 0..25 {
            let m = random_buchi(&sigma, seed, RandomConfig::default());
            let d = decompose(&m);
            assert_eq!(
                d.check_sampled(&m, 2, 3),
                None,
                "decomposition failed for seed {seed}"
            );
        }
    }

    #[test]
    fn closure_extensive_on_random_machines() {
        let sigma = Alphabet::ab();
        for seed in 0..25 {
            let m = random_buchi(&sigma, seed, RandomConfig::default());
            let c = closure(&m);
            for w in all_lassos(&sigma, 2, 2) {
                if m.accepts(&w) {
                    assert!(c.accepts(&w), "seed {seed}, word {w}");
                }
            }
        }
    }

    #[test]
    fn classification_is_total_on_random_machines() {
        let sigma = Alphabet::ab();
        for seed in 0..10 {
            let m = random_buchi(
                &sigma,
                seed,
                RandomConfig {
                    states: 4,
                    ..RandomConfig::default()
                },
            );
            // Should not error within budget for 4-state machines.
            let _ = classify(&m).unwrap();
        }
    }
}
