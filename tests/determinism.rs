//! Determinism guarantees of the `sl-support` migration.
//!
//! Two regressions this PR must never reintroduce:
//!
//! 1. **Parallel == sequential.** `sl_support::par` feeds the E4/E9/E10
//!    theorem sweeps; their claim tables are only trustworthy if the
//!    parallel fold is byte-identical to the single-threaded one. We
//!    re-run the E4 decomposition sweep over the full modular
//!    complemented lattice corpus at 1 and 4 workers and compare every
//!    record.
//! 2. **PRNG streams are frozen.** `sl_support::rng::SplitMix` replaced
//!    the private generator in `sl-buchi::random`; every recorded seed
//!    in EXPERIMENTS.md depends on the streams matching bit-for-bit.
//!    An inline copy of the old generator pins the contract.

use safety_liveness::lattice::{
    decompose, enumerate_closures, generators, random_closure, verify_decomposition,
};
use sl_support::par;
use sl_support::rng::{SplitMix, GOLDEN_GAMMA};

/// The E4 per-closure record: decomposition components and whether each
/// verified, for every element of the lattice.
fn e4_record(
    lattice: &safety_liveness::lattice::FiniteLattice,
    cl: &safety_liveness::lattice::Closure,
) -> Vec<(usize, usize, bool)> {
    (0..lattice.len())
        .filter_map(|a| {
            let d = decompose(lattice, cl, a).ok()?;
            let ok = verify_decomposition(lattice, cl, cl, &a, &d);
            Some((d.safety, d.liveness, ok))
        })
        .collect()
}

#[test]
fn par_map_matches_sequential_on_e4_corpus() {
    for (name, lattice) in generators::modular_complemented_corpus() {
        // Same corpus split as the E4 binary: exhaustive where feasible,
        // seeded sampling on the larger lattices.
        let closures = if lattice.len() <= 10 {
            enumerate_closures(&lattice, None).unwrap()
        } else {
            (0..40).map(|seed| random_closure(&lattice, seed)).collect()
        };
        let sequential = par::par_map_with(1, &closures, |cl| e4_record(&lattice, cl));
        let parallel = par::par_map_with(4, &closures, |cl| e4_record(&lattice, cl));
        assert_eq!(
            sequential, parallel,
            "{name}: parallel E4 sweep diverged from sequential"
        );
    }
}

#[test]
fn par_sweep_matches_sequential_ordering() {
    let f = |seed: usize| {
        let mut rng = SplitMix::new(seed as u64);
        (seed, rng.next_u64())
    };
    assert_eq!(
        par::par_sweep_with(1, 257, f),
        par::par_sweep_with(4, 257, f)
    );
}

/// Bit-for-bit copy of the SplitMix64 generator that used to live as a
/// private struct in `crates/buchi/src/random.rs`. If this test fails,
/// `sl_support::rng::SplitMix` no longer reproduces the historical
/// streams and every recorded seed in EXPERIMENTS.md is invalidated.
struct OldBuchiSplitMix(u64);

impl OldBuchiSplitMix {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[test]
fn promoted_prng_reproduces_the_old_buchi_stream() {
    let mut old = OldBuchiSplitMix(0xDEAD);
    let mut new = SplitMix::new(0xDEAD);
    for i in 0..64 {
        assert_eq!(
            old.next_u64(),
            new.next_u64(),
            "stream diverged at draw {i} for seed 0xDEAD"
        );
    }
}

#[test]
fn core_random_closure_preadvanced_stream_is_reachable() {
    // `sl-lattice::random_closure` historically started one gamma ahead
    // of the seed; it now seeds `SplitMix::new(seed + GOLDEN_GAMMA)`.
    // Pin that the mapping is exactly "skip nothing, shift the seed".
    let seed = 0xBEEF_u64;
    let mut old_style = OldBuchiSplitMix(seed.wrapping_add(GOLDEN_GAMMA));
    let mut new_style = SplitMix::new(seed.wrapping_add(GOLDEN_GAMMA));
    for _ in 0..64 {
        assert_eq!(old_style.next_u64(), new_style.next_u64());
    }
}
