//! # sl-games
//!
//! Infinite-duration games on finite graphs: parity games solved by
//! Zielonka's algorithm (with extracted, independently verified winning
//! strategies) and Rabin games solved via the index-appearance-record
//! reduction to parity.
//!
//! This crate is the algorithmic substrate for `sl-rabin`: emptiness and
//! membership of Rabin tree automata (paper, Section 4.4) reduce to
//! acceptance games whose winning conditions are exactly the Rabin
//! condition `⋁_i (GF green_i ∧ FG ¬red_i)`.
//!
//! ```
//! use sl_games::{solve, ParityGame, Player};
//!
//! // One Even-owned vertex choosing between an even and an odd loop.
//! let game = ParityGame::new(
//!     vec![Player::Even, Player::Even, Player::Even],
//!     vec![0, 2, 1],
//!     vec![vec![1, 2], vec![1], vec![2]],
//! );
//! let solution = solve(&game, None)?;
//! assert_eq!(solution.winner[0], Player::Even);
//! assert_eq!(solution.strategy[0], Some(1)); // pick the even loop
//! # Ok::<(), sl_support::SlError>(())
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod parity;
pub mod rabin;
pub mod zielonka;

pub use parity::{ParityGame, Player};
pub use rabin::{solve_rabin, RabinGame, RabinSolution};
pub use zielonka::{solve, verify, Solution};
