//! # sl-buchi
//!
//! Büchi automata with the closure operator of Manolios & Trefler's
//! *A Lattice-Theoretic Characterization of Safety and Liveness*
//! (PODC 2003), Section 2.4 — plus everything needed to make the
//! paper's claims about ω-regular languages executable:
//!
//! * the closure operator `cl` on automata, with `L(cl B) = lcl(L(B))`
//!   ([`closure()`]);
//! * boolean operations and two complementation constructions
//!   ([`ops`], [`complement()`]), which make the ω-regular languages a
//!   Boolean algebra — the lattice on which the paper's Theorem 2 is
//!   instantiated (and which Gumm's σ-complete framework cannot handle);
//! * exact deciders for safety and liveness ([`classify()`]);
//! * the Alpern–Schneider decomposition `L(B) = L(B_S) ∩ L(B_L)`
//!   ([`decompose()`]);
//! * deterministic safety monitors and Schneider security automata
//!   ([`monitor`]).
//!
//! ```
//! use sl_buchi::{decompose::decompose, BuchiBuilder};
//! use sl_omega::Alphabet;
//!
//! // Rem's p3 (a ∧ F ¬a): neither safe nor live — but it decomposes.
//! let sigma = Alphabet::ab();
//! let a = sigma.symbol("a").unwrap();
//! let b = sigma.symbol("b").unwrap();
//! let mut builder = BuchiBuilder::new(sigma.clone());
//! let q0 = builder.add_state(false);
//! let wait = builder.add_state(false);
//! let done = builder.add_state(true);
//! builder.add_transition(q0, a, wait);
//! builder.add_transition(wait, a, wait);
//! builder.add_transition(wait, b, done);
//! builder.add_transition(done, a, done);
//! builder.add_transition(done, b, done);
//! let p3 = builder.build(q0);
//!
//! let d = decompose(&p3);
//! assert_eq!(d.check_sampled(&p3, 3, 3), None);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod antichain;
pub mod automaton;
pub mod classify;
pub mod closure;
pub mod compiled;
pub mod complement;
pub mod decompose;
pub mod empty;
mod graph;
pub mod hoa;
pub mod incl;
pub mod interned;
pub mod member;
pub mod monitor;
pub mod ops;
pub mod random;
pub mod reduce;

pub use antichain::{
    antichain_stats, equivalent_onthefly_with_cache, included_onthefly_with_cache,
    universal_onthefly_with_cache, AntichainStats, DEFAULT_ANTICHAIN_BUDGET,
};
pub use automaton::{Buchi, BuchiBuilder, StateId};
pub use classify::{classify, is_liveness, is_safety, Classification};
pub use closure::{closure, is_closure_shaped, live_states};
pub use compiled::{CompileError, CompiledMonitor, MonitorFleet};
pub use complement::{complement, complement_safety};
pub use decompose::{decompose, BuchiDecomposition};
pub use empty::{find_accepted_word, is_empty};
pub use incl::{
    equivalent, equivalent_rank, included, included_rank, included_with_complement,
    reset_shared_complement_cache, shared_complement_cache, universal, universal_rank,
    ComplementCache, Inclusion,
};
pub use interned::{
    reset_shared_quotient_cache, scratch_quotient, shared_quotient_cache, AdvanceReport,
    AdvanceStats, InternedNode, QuotientCache, QUOTIENT_CACHE_CAP,
};
pub use member::{accepts, BuchiProperty};
pub use monitor::{Monitor, SecurityAutomaton, Verdict};
pub use ops::{intersection, intersection_all, union, union_all};
pub use random::{random_buchi, random_nondeterministic, RandomConfig};
pub use reduce::{direct_simulation, reduce};
