//! # sl-trees
//!
//! The branching-time framework of Manolios & Trefler's *A
//! Lattice-Theoretic Characterization of Safety and Liveness*
//! (PODC 2003), Section 4: labeled trees with the paper's concatenation
//! and prefix order (Definitions 1–4), regular total trees as the
//! finitely-representable skeleton of `A_tot`, Kripke structures, a CTL
//! model checker extended with the CTL* limit operators the paper's
//! examples need, LTL path quantification via Büchi products, and the
//! two branching-time closures `ncl` and `fcl` (Definitions 5–6) with
//! bounded checkers and absolute path-based refutations.
//!
//! ```
//! use sl_omega::Alphabet;
//! use sl_trees::{parse_ctl, qexamples};
//!
//! let sigma = Alphabet::ab();
//! // The paper's recurring witness: one all-a path, one all-b path.
//! let witness = qexamples::two_path_witness(&sigma);
//! assert!(witness.satisfies(&parse_ctl(&sigma, "EG a")?));
//! assert!(!witness.satisfies(&parse_ctl(&sigma, "AGF a")?));
//! # Ok::<(), sl_trees::CtlParseError>(())
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod closures;
pub mod ctl;
pub mod finite;
pub mod kripke;
pub mod minimize;
pub mod paths;
pub mod prefix;
pub mod product;
pub mod qexamples;
pub mod regular;

pub use closures::{
    fcl_contains_bounded, fcl_refuted_by_path, ncl_contains_bounded, ncl_refuted_by_path,
    nontotal_prefixes, Refutation,
};
pub use ctl::{check, parse_ctl, satisfies, Ctl, CtlParseError};
pub use finite::{FiniteTree, Node, NotPrefixClosed};
pub use kripke::Kripke;
pub use minimize::{minimize, subtree_classes};
pub use paths::{all_paths, exists_accepted_path, exists_path};
pub use prefix::RegularPrefix;
pub use product::{counter_product, CounterProduct};
pub use qexamples::{examples as q_examples, two_path_witness, QExample};
pub use regular::{enumerate_regular_trees, RegularTree};
