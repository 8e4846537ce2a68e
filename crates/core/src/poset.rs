//! Finite partially ordered sets.
//!
//! A [`Poset`] stores an explicit order relation on the elements
//! `0..len()`. Construction validates that the relation is reflexive,
//! antisymmetric, and transitive, so every `Poset` value is a genuine
//! partial order. Posets are the raw material for [`crate::FiniteLattice`]
//! and for Birkhoff-style constructions (down-set lattices).

use crate::error::{LatticeError, Result};

/// A finite partial order on the elements `0..len()`.
///
/// The relation is stored as a dense boolean matrix in row-major order:
/// `leq[a * n + b]` holds iff `a <= b`.
///
/// # Examples
///
/// ```
/// use sl_lattice::Poset;
///
/// // The diamond: 0 below 1 and 2, both below 3.
/// let p = Poset::from_covers(4, &[(0, 1), (0, 2), (1, 3), (2, 3)])?;
/// assert!(p.leq(0, 3));
/// assert!(!p.leq(1, 2));
/// assert_eq!(p.minimal_elements(), vec![0]);
/// # Ok::<(), sl_lattice::LatticeError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Poset {
    n: usize,
    leq: Vec<bool>,
}

impl Poset {
    /// Builds a poset from an explicit `<=` predicate.
    ///
    /// # Errors
    ///
    /// Returns an error if `n == 0` or if the induced relation is not
    /// reflexive, antisymmetric, or transitive.
    pub fn from_leq<F>(n: usize, leq: F) -> Result<Self>
    where
        F: Fn(usize, usize) -> bool,
    {
        if n == 0 {
            return Err(LatticeError::Empty);
        }
        let mut matrix = vec![false; n * n];
        for a in 0..n {
            for b in 0..n {
                matrix[a * n + b] = leq(a, b);
            }
        }
        let poset = Poset { n, leq: matrix };
        poset.validate()?;
        Ok(poset)
    }

    /// Builds a poset as the reflexive-transitive closure of a cover
    /// relation given as `(lower, upper)` pairs.
    ///
    /// # Errors
    ///
    /// Returns an error if `n == 0`, if a pair mentions an out-of-range
    /// element, or if the covers induce a cycle (which violates
    /// antisymmetry).
    pub fn from_covers(n: usize, covers: &[(usize, usize)]) -> Result<Self> {
        if n == 0 {
            return Err(LatticeError::Empty);
        }
        let mut matrix = vec![false; n * n];
        for a in 0..n {
            matrix[a * n + a] = true;
        }
        for &(lo, hi) in covers {
            for &x in &[lo, hi] {
                if x >= n {
                    return Err(LatticeError::OutOfRange { index: x, size: n });
                }
            }
            matrix[lo * n + hi] = true;
        }
        // Warshall transitive closure.
        for k in 0..n {
            for a in 0..n {
                if matrix[a * n + k] {
                    for b in 0..n {
                        if matrix[k * n + b] {
                            matrix[a * n + b] = true;
                        }
                    }
                }
            }
        }
        let poset = Poset { n, leq: matrix };
        poset.validate()?;
        Ok(poset)
    }

    /// The discrete (antichain) order on `n` elements.
    ///
    /// # Errors
    ///
    /// Returns an error if `n == 0`.
    pub fn antichain(n: usize) -> Result<Self> {
        Self::from_leq(n, |a, b| a == b)
    }

    /// The linear order `0 < 1 < ... < n - 1`.
    ///
    /// # Errors
    ///
    /// Returns an error if `n == 0`.
    pub fn chain(n: usize) -> Result<Self> {
        Self::from_leq(n, |a, b| a <= b)
    }

    fn validate(&self) -> Result<()> {
        let n = self.n;
        for a in 0..n {
            if !self.leq(a, a) {
                return Err(LatticeError::NotReflexive(a));
            }
        }
        for a in 0..n {
            for b in 0..n {
                if a != b && self.leq(a, b) && self.leq(b, a) {
                    return Err(LatticeError::NotAntisymmetric(a, b));
                }
            }
        }
        for a in 0..n {
            for b in 0..n {
                if !self.leq(a, b) {
                    continue;
                }
                for c in 0..n {
                    if self.leq(b, c) && !self.leq(a, c) {
                        return Err(LatticeError::NotTransitive(a, b, c));
                    }
                }
            }
        }
        Ok(())
    }

    /// Number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Always false: posets in this crate are nonempty by construction.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Whether `a <= b`.
    ///
    /// # Panics
    ///
    /// Panics if `a` or `b` is out of range.
    #[must_use]
    pub fn leq(&self, a: usize, b: usize) -> bool {
        assert!(a < self.n && b < self.n, "element out of range");
        self.leq[a * self.n + b]
    }

    /// Whether `a < b` (strictly).
    #[must_use]
    pub fn lt(&self, a: usize, b: usize) -> bool {
        a != b && self.leq(a, b)
    }

    /// Whether `a` and `b` are incomparable.
    #[must_use]
    pub fn incomparable(&self, a: usize, b: usize) -> bool {
        !self.leq(a, b) && !self.leq(b, a)
    }

    /// Whether `b` covers `a`: `a < b` with nothing strictly between.
    #[must_use]
    pub fn covers(&self, a: usize, b: usize) -> bool {
        self.lt(a, b) && (0..self.n).all(|c| !(self.lt(a, c) && self.lt(c, b)))
    }

    /// All cover pairs `(lower, upper)`, i.e. the edges of the Hasse
    /// diagram, in lexicographic order.
    #[must_use]
    pub fn cover_pairs(&self) -> Vec<(usize, usize)> {
        let mut pairs = Vec::new();
        for a in 0..self.n {
            for b in 0..self.n {
                if self.covers(a, b) {
                    pairs.push((a, b));
                }
            }
        }
        pairs
    }

    /// Elements with nothing strictly below them.
    #[must_use]
    pub fn minimal_elements(&self) -> Vec<usize> {
        (0..self.n)
            .filter(|&a| (0..self.n).all(|b| !self.lt(b, a)))
            .collect()
    }

    /// Elements with nothing strictly above them.
    #[must_use]
    pub fn maximal_elements(&self) -> Vec<usize> {
        (0..self.n)
            .filter(|&a| (0..self.n).all(|b| !self.lt(a, b)))
            .collect()
    }

    /// The unique minimum element, if one exists.
    #[must_use]
    pub fn bottom(&self) -> Option<usize> {
        (0..self.n).find(|&a| (0..self.n).all(|b| self.leq(a, b)))
    }

    /// The unique maximum element, if one exists.
    #[must_use]
    pub fn top(&self) -> Option<usize> {
        (0..self.n).find(|&a| (0..self.n).all(|b| self.leq(b, a)))
    }

    /// The greatest lower bound of `a` and `b`, if it exists.
    #[must_use]
    pub fn meet(&self, a: usize, b: usize) -> Option<usize> {
        let lower: Vec<usize> = (0..self.n)
            .filter(|&c| self.leq(c, a) && self.leq(c, b))
            .collect();
        lower
            .iter()
            .copied()
            .find(|&c| lower.iter().all(|&d| self.leq(d, c)))
    }

    /// The least upper bound of `a` and `b`, if it exists.
    #[must_use]
    pub fn join(&self, a: usize, b: usize) -> Option<usize> {
        let upper: Vec<usize> = (0..self.n)
            .filter(|&c| self.leq(a, c) && self.leq(b, c))
            .collect();
        upper
            .iter()
            .copied()
            .find(|&c| upper.iter().all(|&d| self.leq(c, d)))
    }

    /// A linear extension: a permutation of the elements in which every
    /// element appears after everything strictly below it.
    #[must_use]
    pub fn linear_extension(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.n).collect();
        // Counting how many elements lie weakly below each element yields a
        // valid topological key for a finite poset.
        let height: Vec<usize> = (0..self.n)
            .map(|a| (0..self.n).filter(|&b| self.leq(b, a)).count())
            .collect();
        order.sort_by_key(|&a| (height[a], a));
        order
    }

    /// The order-dual poset (all comparabilities reversed).
    #[must_use]
    pub fn dual(&self) -> Poset {
        let n = self.n;
        let mut leq = vec![false; n * n];
        for a in 0..n {
            for b in 0..n {
                leq[a * n + b] = self.leq[b * n + a];
            }
        }
        Poset { n, leq }
    }

    /// All down-sets (order ideals) of the poset, each encoded as a bitmask
    /// over the elements. Only supported for posets of at most 20 elements.
    ///
    /// The down-sets, ordered by inclusion, form a distributive lattice
    /// (Birkhoff's representation theorem); see
    /// [`crate::generators::downset_lattice`].
    ///
    /// # Panics
    ///
    /// Panics if the poset has more than 20 elements (the enumeration is
    /// exponential).
    #[must_use]
    pub fn down_sets(&self) -> Vec<u32> {
        assert!(self.n <= 20, "down-set enumeration limited to 20 elements");
        let n = self.n;
        let mut result = Vec::new();
        'outer: for mask in 0u32..(1u32 << n) {
            for a in 0..n {
                if mask & (1 << a) == 0 {
                    continue;
                }
                for b in 0..n {
                    if self.leq(b, a) && mask & (1 << b) == 0 {
                        continue 'outer;
                    }
                }
            }
            result.push(mask);
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Poset {
        Poset::from_covers(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap()
    }

    #[test]
    fn chain_orders_linearly() {
        let p = Poset::chain(5).unwrap();
        assert!(p.leq(0, 4));
        assert!(p.leq(2, 2));
        assert!(!p.leq(3, 1));
        assert_eq!(p.bottom(), Some(0));
        assert_eq!(p.top(), Some(4));
        assert_eq!(p.cover_pairs(), vec![(0, 1), (1, 2), (2, 3), (3, 4)]);
    }

    #[test]
    fn antichain_has_no_comparabilities() {
        let p = Poset::antichain(3).unwrap();
        assert!(p.incomparable(0, 1));
        assert!(p.incomparable(1, 2));
        assert_eq!(p.bottom(), None);
        assert_eq!(p.top(), None);
        assert_eq!(p.minimal_elements(), vec![0, 1, 2]);
        assert_eq!(p.maximal_elements(), vec![0, 1, 2]);
    }

    #[test]
    fn empty_poset_rejected() {
        assert_eq!(Poset::chain(0).unwrap_err(), LatticeError::Empty);
        assert_eq!(Poset::from_covers(0, &[]).unwrap_err(), LatticeError::Empty);
    }

    #[test]
    fn cyclic_covers_rejected() {
        let err = Poset::from_covers(2, &[(0, 1), (1, 0)]).unwrap_err();
        assert!(matches!(err, LatticeError::NotAntisymmetric(_, _)));
    }

    #[test]
    fn out_of_range_covers_rejected() {
        let err = Poset::from_covers(2, &[(0, 5)]).unwrap_err();
        assert_eq!(err, LatticeError::OutOfRange { index: 5, size: 2 });
    }

    #[test]
    fn non_transitive_relation_rejected() {
        let err =
            Poset::from_leq(3, |a, b| a == b || (a, b) == (0, 1) || (a, b) == (1, 2)).unwrap_err();
        assert_eq!(err, LatticeError::NotTransitive(0, 1, 2));
    }

    #[test]
    fn non_reflexive_relation_rejected() {
        let err = Poset::from_leq(2, |a, b| a == 0 && b == 0).unwrap_err();
        assert_eq!(err, LatticeError::NotReflexive(1));
    }

    #[test]
    fn diamond_meets_and_joins() {
        let p = diamond();
        assert_eq!(p.meet(1, 2), Some(0));
        assert_eq!(p.join(1, 2), Some(3));
        assert_eq!(p.meet(1, 3), Some(1));
        assert_eq!(p.join(0, 2), Some(2));
    }

    #[test]
    fn diamond_covers() {
        let p = diamond();
        assert!(p.covers(0, 1));
        assert!(p.covers(2, 3));
        assert!(!p.covers(0, 3));
        assert_eq!(p.cover_pairs().len(), 4);
    }

    #[test]
    fn meet_missing_between_incomparables() {
        let p = Poset::antichain(2).unwrap();
        assert_eq!(p.meet(0, 1), None);
        assert_eq!(p.join(0, 1), None);
    }

    #[test]
    fn join_missing_with_two_maximal_upper_bounds() {
        // 0 and 1 below both 2 and 3; 2, 3 incomparable: no least upper bound.
        let p = Poset::from_covers(4, &[(0, 2), (0, 3), (1, 2), (1, 3)]).unwrap();
        assert_eq!(p.join(0, 1), None);
        assert_eq!(p.meet(2, 3), None);
    }

    #[test]
    fn linear_extension_respects_order() {
        let p = diamond();
        let order = p.linear_extension();
        let pos = |x: usize| order.iter().position(|&y| y == x).unwrap();
        for a in 0..4 {
            for b in 0..4 {
                if p.lt(a, b) {
                    assert!(pos(a) < pos(b), "{a} before {b}");
                }
            }
        }
    }

    #[test]
    fn dual_swaps_extremes() {
        let p = Poset::chain(3).unwrap();
        let d = p.dual();
        assert_eq!(d.bottom(), Some(2));
        assert_eq!(d.top(), Some(0));
        assert!(d.leq(2, 0));
    }

    #[test]
    fn dual_is_involutive() {
        let p = diamond();
        assert_eq!(p.dual().dual(), p);
    }

    #[test]
    fn down_sets_of_chain_are_prefixes() {
        let p = Poset::chain(3).unwrap();
        let ds = p.down_sets();
        assert_eq!(ds, vec![0b000, 0b001, 0b011, 0b111]);
    }

    #[test]
    fn down_sets_of_antichain_are_all_subsets() {
        let p = Poset::antichain(3).unwrap();
        assert_eq!(p.down_sets().len(), 8);
    }

    #[test]
    fn incomparable_is_symmetric_irreflexive() {
        let p = diamond();
        for a in 0..4 {
            assert!(!p.incomparable(a, a));
            for b in 0..4 {
                assert_eq!(p.incomparable(a, b), p.incomparable(b, a));
            }
        }
    }
}
