//! # sl-pdr
//!
//! Lattice-generic property-directed reachability (LT-PDR, after Kori
//! et al.'s "The Lattice-Theoretic Essence of Property Directed
//! Reachability Analysis") plus the k-liveness liveness-to-safety
//! reduction, instantiated on Bitset powerset lattices of
//! Kripke-structure states.
//!
//! * [`engine`] — the generic engine: frames as lattice elements,
//!   relative induction via meets and complements, an obligation queue
//!   with two lattice-theoretic generalization strategies, and
//!   machine-checked certificates (an inductive invariant on Safe, a
//!   replayable atom chain on Unsafe).
//! * [`kripke`] — the powerset instantiation deciding `AG !bad` over
//!   one compressed edge relation per call, with concrete
//!   trace/invariant certificates replayed against the structure.
//! * [`liveness`] — the k-liveness sweep deciding `FG !bad` over all
//!   paths via [`sl_trees::counter_product`]: k = 0 is the model's own
//!   safety check, each later query names only the saturated copies of
//!   the bad states, and a counterexample whose bad end state lies on a
//!   cycle closes into a lasso at once.
//! * [`bmc`] — the independent explicit-state BFS / lasso-search
//!   reference used by the conformance oracle, and the concrete
//!   liveness validators ([`validate_lasso`], and
//!   [`validate_live_invariant`], which replays a Live certificate
//!   without building the product).
//!
//! ```
//! use sl_omega::Alphabet;
//! use sl_pdr::{check_safety, SafetyVerdict};
//! use sl_support::Budget;
//! use sl_trees::Kripke;
//!
//! let sigma = Alphabet::ab();
//! let a = sigma.symbol("a").unwrap();
//! let b = sigma.symbol("b").unwrap();
//! // 0 -> 1 -> 0 with a fenced bad state 2.
//! let k = Kripke::new(sigma, vec![a, a, b], vec![vec![1], vec![0], vec![2]], 0);
//! let run = check_safety(&k, &[2], &Budget::unlimited()).unwrap();
//! assert!(matches!(run.verdict, SafetyVerdict::Safe { .. }));
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod bmc;
pub mod engine;
pub mod kripke;
pub mod liveness;

pub use bmc::{
    bmc_lasso, bmc_liveness, bmc_safety, bmc_safety_deepening, validate_lasso,
    validate_live_invariant, LivenessVerdict,
};
pub use engine::{
    lt_pdr, validate_chain, validate_invariant, Atoms, PdrOutcome, PdrProblem, PdrRun, PdrStats,
};
pub use kripke::{
    check_safety, validate_safety_invariant, validate_trace, SafetyRun, SafetyVerdict,
};
pub use liveness::{check_liveness, LivenessRun};
