//! # sl-lattice
//!
//! An executable rendition of the lattice-theoretic characterization of
//! safety and liveness from:
//!
//! > Panagiotis Manolios and Richard Trefler. *A Lattice-Theoretic
//! > Characterization of Safety and Liveness.* PODC 2003.
//!
//! The paper's setting is a **modular complemented lattice** `(L, /\, \/,
//! 0, 1)` with a **lattice closure** `cl` (extensive, idempotent,
//! monotone). An element is a *cl-safety element* if `a = cl.a` and a
//! *cl-liveness element* if `cl.a = 1`. The central results, all
//! implemented here as constructions plus exhaustive verifiers:
//!
//! * **Theorems 2 & 3** ([`decompose()`], [`decompose_pair_checked`]):
//!   every element is the meet of a safety and a liveness element,
//!   `a = cl1.a /\ (a \/ b)` with `b` a complement of `cl2.a`.
//! * **Theorem 5** ([`theorem5_applies`], [`no_decomposition_exists`]):
//!   the "fourth combination" of two closures is impossible.
//! * **Theorems 6 & 7** ([`theorem6_strongest_safety`],
//!   [`theorem7_weakest_liveness`]): the decomposition is extremal —
//!   `cl.a` is the strongest safety part (machine closure) and, in a
//!   distributive lattice, `a \/ b` is the weakest second component.
//! * **Figures 1 & 2** ([`counterexamples`]): the pentagon shows
//!   modularity is necessary; the diamond M3 shows distributivity is
//!   necessary for Theorem 7.
//!
//! The sibling crates instantiate this framework exactly as the paper
//! does: `sl-buchi` for the lattice of ω-regular languages (where the
//! closure is computed on automata), `sl-trees` for branching time
//! (`ncl`/`fcl`), and `sl-rabin` for Rabin tree automata (`rfcl`).
//!
//! ## Quick start
//!
//! ```
//! use sl_lattice::{decompose, generators, Closure};
//!
//! // The Boolean algebra with 3 atoms, i.e. P({0,1,2}) by bitmask.
//! let lattice = generators::boolean(3);
//! // A closure whose fixpoints are {0b011, 0b111}.
//! let cl = Closure::from_fixpoints(&lattice, &[0b011, 0b111])?;
//! // Decompose the atom 0b001 into safety /\ liveness.
//! let d = decompose(&lattice, &cl, 0b001)?;
//! assert_eq!(lattice.meet(d.safety, d.liveness), 0b001);
//! assert!(cl.is_safety(d.safety));
//! assert!(cl.is_liveness(&lattice, d.liveness));
//! # Ok::<(), sl_lattice::LatticeError>(())
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod birkhoff;
pub mod bitset;
pub mod closure;
pub mod counterexamples;
pub mod decompose;
pub mod error;
pub mod generators;
pub mod lattice;
pub mod ops;
pub mod poset;
pub mod traits;

pub use birkhoff::{birkhoff_check, join_irreducibles, meet_irreducibles, BirkhoffOutcome};
pub use bitset::{Bitset, BitsetAlgebra};
pub use closure::{enumerate_closures, random_closure, Closure};
pub use counterexamples::{figure1, figure2, Figure1, Figure2};
pub use decompose::{
    all_decompositions, classify, decompose, decompose_generic, decompose_pair,
    decompose_pair_checked, is_machine_closed, lemma4_holds, no_decomposition_exists,
    theorem5_applies, theorem6_strongest_safety, theorem7_weakest_liveness, verify_decomposition,
    Classification, Decomposition,
};
pub use error::{LatticeError, Result};
pub use lattice::{DistributivityViolation, FiniteLattice, ModularityViolation};
pub use ops::{dual, interval, product};
pub use poset::Poset;
pub use traits::{BoundedLattice, ComplementedLattice, Lattice, LatticeClosure};
