//! `sldbench`: the end-to-end benchmark client for the `sld` daemon.
//!
//! It generates every input from a seed ([`gen`]), drives the daemon
//! over TCP with closed-loop clients ([`daemon`]), checks every answer
//! with its own decision procedures ([`check`], [`verify`]), and reads
//! per-layer work counts from the daemon's `stats` verb ([`stats`]). It
//! links no crate of the workspace it measures.

pub mod check;
pub mod daemon;
pub mod gen;
pub mod json;
pub mod model;
pub mod rng;
pub mod stats;
pub mod verify;
