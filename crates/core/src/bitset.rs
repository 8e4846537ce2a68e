//! Powerset Boolean algebras over `{0..universe}` backed by packed bit
//! vectors.
//!
//! [`BitsetAlgebra`] is the scalable counterpart of
//! [`crate::generators::boolean`]: the latter materializes the full
//! `2^n x 2^n` operation tables, while this type computes meets
//! (intersection), joins (union), and complements directly on 64-bit
//! blocks, so universes of thousands of points are cheap. It implements
//! the [`Lattice`] traits, so the decomposition machinery of
//! [`crate::decompose()`] applies unchanged.

use crate::traits::{BoundedLattice, ComplementedLattice, Lattice};
use std::fmt;

/// A subset of `{0..universe}`, packed into 64-bit blocks.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Bitset {
    universe: usize,
    blocks: Vec<u64>,
}

impl Bitset {
    fn block_count(universe: usize) -> usize {
        universe.div_ceil(64)
    }

    /// The empty subset of `{0..universe}`.
    #[must_use]
    pub fn empty(universe: usize) -> Self {
        Bitset {
            universe,
            blocks: vec![0; Self::block_count(universe)],
        }
    }

    /// The full subset `{0..universe}`.
    #[must_use]
    pub fn full(universe: usize) -> Self {
        Self::from_words(universe, vec![u64::MAX; Self::block_count(universe)])
    }

    /// A subset from its packed 64-bit words, member `i` being bit
    /// `i % 64` of word `i / 64`. Bits past the universe are cleared.
    ///
    /// # Panics
    ///
    /// Panics if the word count does not fit the universe.
    #[must_use]
    pub fn from_words(universe: usize, words: Vec<u64>) -> Self {
        assert_eq!(
            words.len(),
            Self::block_count(universe),
            "word count mismatch"
        );
        let mut set = Bitset {
            universe,
            blocks: words,
        };
        set.clear_tail();
        set
    }

    /// The packed 64-bit words, in the layout of [`Bitset::from_words`];
    /// bits past the universe are always clear.
    #[must_use]
    pub fn words(&self) -> &[u64] {
        &self.blocks
    }

    /// Clears the bits past the universe in the last block.
    fn clear_tail(&mut self) {
        let extra = self.blocks.len() * 64 - self.universe;
        if extra > 0 {
            if let Some(last) = self.blocks.last_mut() {
                *last &= u64::MAX >> extra;
            }
        }
    }

    /// A subset from explicit member indices.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    #[must_use]
    pub fn from_indices(universe: usize, indices: &[usize]) -> Self {
        let mut set = Self::empty(universe);
        for &i in indices {
            set.insert(i);
        }
        set
    }

    /// The size of the ambient universe.
    #[must_use]
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// Whether `i` is a member.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn contains(&self, i: usize) -> bool {
        assert!(i < self.universe, "index out of universe");
        self.blocks[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Adds `i` to the set.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn insert(&mut self, i: usize) {
        assert!(i < self.universe, "index out of universe");
        self.blocks[i / 64] |= 1u64 << (i % 64);
    }

    /// Removes `i` from the set.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn remove(&mut self, i: usize) {
        assert!(i < self.universe, "index out of universe");
        self.blocks[i / 64] &= !(1u64 << (i % 64));
    }

    /// Number of members.
    #[must_use]
    pub fn len(&self) -> usize {
        self.blocks.iter().map(|b| b.count_ones() as usize).sum()
    }

    /// Whether the set has no members.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.blocks.iter().all(|&b| b == 0)
    }

    /// Iterates over the member indices in increasing order. Skips empty
    /// 64-bit blocks wholesale and walks set bits with `trailing_zeros`,
    /// so iteration cost is proportional to the population count, not
    /// the universe size.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.blocks.iter().enumerate().flat_map(|(bi, &block)| {
            std::iter::successors(if block == 0 { None } else { Some(block) }, |&rest| {
                let next = rest & (rest - 1); // clear lowest set bit
                if next == 0 {
                    None
                } else {
                    Some(next)
                }
            })
            .map(move |rest| bi * 64 + rest.trailing_zeros() as usize)
        })
    }

    /// Whether the two sets share at least one member — a word-parallel
    /// short-circuit that avoids materializing the intersection.
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    #[must_use]
    pub fn intersects(&self, other: &Bitset) -> bool {
        assert_eq!(self.universe, other.universe, "universe mismatch");
        self.blocks
            .iter()
            .zip(&other.blocks)
            .any(|(a, b)| a & b != 0)
    }

    /// Unions `other` into `self` in place, without allocating — the
    /// hot-loop counterpart of [`Bitset::union`].
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    pub fn union_in_place(&mut self, other: &Bitset) {
        assert_eq!(self.universe, other.universe, "universe mismatch");
        for (a, b) in self.blocks.iter_mut().zip(&other.blocks) {
            *a |= b;
        }
    }

    /// Set intersection.
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    #[must_use]
    pub fn intersection(&self, other: &Bitset) -> Bitset {
        assert_eq!(self.universe, other.universe, "universe mismatch");
        Bitset {
            universe: self.universe,
            blocks: self
                .blocks
                .iter()
                .zip(&other.blocks)
                .map(|(a, b)| a & b)
                .collect(),
        }
    }

    /// Set union.
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    #[must_use]
    pub fn union(&self, other: &Bitset) -> Bitset {
        assert_eq!(self.universe, other.universe, "universe mismatch");
        Bitset {
            universe: self.universe,
            blocks: self
                .blocks
                .iter()
                .zip(&other.blocks)
                .map(|(a, b)| a | b)
                .collect(),
        }
    }

    /// Complement within the universe.
    #[must_use]
    pub fn complement(&self) -> Bitset {
        Self::from_words(self.universe, self.blocks.iter().map(|b| !b).collect())
    }

    /// Whether `self` is a subset of `other`.
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    #[must_use]
    pub fn is_subset(&self, other: &Bitset) -> bool {
        assert_eq!(self.universe, other.universe, "universe mismatch");
        self.blocks
            .iter()
            .zip(&other.blocks)
            .all(|(a, b)| a & !b == 0)
    }
}

impl fmt::Debug for Bitset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// The Boolean algebra `P({0..universe})` with [`Bitset`] elements.
///
/// # Examples
///
/// ```
/// use sl_lattice::{Bitset, BitsetAlgebra};
/// use sl_lattice::traits::{BoundedLattice, ComplementedLattice, Lattice};
///
/// let alg = BitsetAlgebra::new(100);
/// let a = Bitset::from_indices(100, &[1, 2, 3]);
/// let b = Bitset::from_indices(100, &[3, 4]);
/// assert_eq!(alg.meet(&a, &b), Bitset::from_indices(100, &[3]));
/// assert!(alg.leq(&alg.meet(&a, &b), &a));
/// assert_eq!(alg.meet(&a, &alg.complement(&a)), alg.bottom());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitsetAlgebra {
    universe: usize,
}

impl BitsetAlgebra {
    /// The powerset algebra over `{0..universe}`.
    #[must_use]
    pub fn new(universe: usize) -> Self {
        BitsetAlgebra { universe }
    }

    /// The size of the universe.
    #[must_use]
    pub fn universe(&self) -> usize {
        self.universe
    }
}

impl Lattice for BitsetAlgebra {
    type Elem = Bitset;

    fn meet(&self, a: &Bitset, b: &Bitset) -> Bitset {
        a.intersection(b)
    }

    fn join(&self, a: &Bitset, b: &Bitset) -> Bitset {
        a.union(b)
    }

    fn leq(&self, a: &Bitset, b: &Bitset) -> bool {
        a.is_subset(b)
    }
}

impl BoundedLattice for BitsetAlgebra {
    fn bottom(&self) -> Bitset {
        Bitset::empty(self.universe)
    }

    fn top(&self) -> Bitset {
        Bitset::full(self.universe)
    }
}

impl ComplementedLattice for BitsetAlgebra {
    fn complement(&self, a: &Bitset) -> Bitset {
        a.complement()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompose::{decompose_generic, verify_decomposition};
    use crate::traits::check;

    #[test]
    fn construction_and_membership() {
        let s = Bitset::from_indices(130, &[0, 64, 129]);
        assert!(s.contains(0) && s.contains(64) && s.contains(129));
        assert!(!s.contains(1));
        assert_eq!(s.len(), 3);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 64, 129]);
    }

    #[test]
    fn insert_remove_roundtrip() {
        let mut s = Bitset::empty(70);
        s.insert(69);
        assert!(s.contains(69));
        s.remove(69);
        assert!(s.is_empty());
    }

    #[test]
    fn complement_masks_out_of_universe_bits() {
        let s = Bitset::empty(70);
        let c = s.complement();
        assert_eq!(c.len(), 70);
        assert_eq!(c, Bitset::full(70));
        assert_eq!(c.complement(), s);
    }

    #[test]
    fn word_access_keeps_bits_past_the_universe_clear() {
        for universe in [0, 1, 63, 64, 65, 130] {
            let full = Bitset::full(universe);
            assert_eq!(full.len(), universe);
            assert_eq!(
                full.iter().collect::<Vec<_>>(),
                (0..universe).collect::<Vec<_>>()
            );
            let raw = Bitset::from_words(universe, vec![u64::MAX; universe.div_ceil(64)]);
            assert_eq!(raw, full);
            assert_eq!(Bitset::from_words(universe, full.words().to_vec()), full);
        }
        let s = Bitset::from_indices(130, &[0, 64, 129]);
        assert_eq!(s.words(), &[1, 1, 2]);
    }

    #[test]
    fn subset_and_order_agree() {
        let alg = BitsetAlgebra::new(10);
        let a = Bitset::from_indices(10, &[1, 2]);
        let b = Bitset::from_indices(10, &[1, 2, 3]);
        assert!(a.is_subset(&b));
        assert!(alg.leq(&a, &b));
        assert!(!alg.leq(&b, &a));
    }

    #[test]
    fn algebra_satisfies_lattice_laws() {
        let alg = BitsetAlgebra::new(65);
        let sample = vec![
            Bitset::empty(65),
            Bitset::full(65),
            Bitset::from_indices(65, &[0, 10, 64]),
            Bitset::from_indices(65, &[10, 20]),
            Bitset::from_indices(65, &[64]),
        ];
        check::lattice_laws(&alg, &sample).unwrap();
        check::bound_laws(&alg, &sample).unwrap();
        check::distributive_law(&alg, &sample).unwrap();
        check::modular_law(&alg, &sample).unwrap();
    }

    #[test]
    fn complement_laws() {
        let alg = BitsetAlgebra::new(100);
        let a = Bitset::from_indices(100, &[5, 50, 99]);
        let c = ComplementedLattice::complement(&alg, &a);
        assert_eq!(alg.meet(&a, &c), alg.bottom());
        assert_eq!(alg.join(&a, &c), alg.top());
    }

    #[test]
    fn decomposition_on_bitsets() {
        // Closure: upward closure to a fixed superset family — here,
        // cl(X) = X union {0} if X nonempty, else X. Extensive, idempotent,
        // monotone? X ⊆ Y nonempty: cl X = X+{0} ⊆ Y+{0} = cl Y; if X
        // empty cl X = {} ⊆ cl Y. Valid lattice closure.
        let alg = BitsetAlgebra::new(8);
        let cl = |_: &BitsetAlgebra, x: &Bitset| {
            if x.is_empty() {
                x.clone()
            } else {
                let mut y = x.clone();
                y.insert(0);
                y
            }
        };
        check::closure_laws(
            &alg,
            &cl,
            &[
                Bitset::empty(8),
                Bitset::from_indices(8, &[1]),
                Bitset::from_indices(8, &[0, 1]),
                Bitset::full(8),
            ],
        )
        .unwrap();
        // Safety elements: sets containing 0 (or empty). A liveness
        // element must close to the full set, so cl.X = full means
        // X ⊇ {1..7}. Decompose X = {1, 2}:
        let x = Bitset::from_indices(8, &[1, 2]);
        let cmp = |a: &BitsetAlgebra, s: &Bitset| Some(ComplementedLattice::complement(a, s));
        let d = decompose_generic(&alg, &cl, cmp, &x).unwrap();
        assert!(verify_decomposition(&alg, &cl, &cl, &x, &d));
        assert_eq!(d.safety, Bitset::from_indices(8, &[0, 1, 2]));
    }

    #[test]
    fn intersects_agrees_with_intersection() {
        let a = Bitset::from_indices(130, &[0, 64, 129]);
        let b = Bitset::from_indices(130, &[64]);
        let c = Bitset::from_indices(130, &[1, 65]);
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
        assert_eq!(a.intersects(&c), !a.intersection(&c).is_empty());
        assert!(!Bitset::empty(130).intersects(&Bitset::full(130)));
    }

    #[test]
    fn union_in_place_matches_union() {
        let a = Bitset::from_indices(130, &[0, 64, 129]);
        let b = Bitset::from_indices(130, &[1, 64, 70]);
        let mut c = a.clone();
        c.union_in_place(&b);
        assert_eq!(c, a.union(&b));
        // Idempotent on self.
        let before = c.clone();
        let snapshot = c.clone();
        c.union_in_place(&snapshot);
        assert_eq!(c, before);
    }

    #[test]
    fn iter_skips_empty_blocks() {
        // A sparse set over a big universe: iteration must still list
        // exactly the members, in order.
        let members = [3usize, 64, 127, 128, 1000, 4095];
        let s = Bitset::from_indices(4096, &members);
        assert_eq!(s.iter().collect::<Vec<_>>(), members.to_vec());
        assert_eq!(Bitset::empty(4096).iter().count(), 0);
    }

    #[test]
    #[should_panic(expected = "universe mismatch")]
    fn mismatched_universes_panic() {
        let a = Bitset::empty(8);
        let b = Bitset::empty(9);
        let _ = a.union(&b);
    }

    #[test]
    fn debug_output_lists_members() {
        let s = Bitset::from_indices(8, &[1, 3]);
        assert_eq!(format!("{s:?}"), "{1, 3}");
    }
}
