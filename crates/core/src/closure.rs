//! Lattice closure operators on finite lattices.
//!
//! A lattice closure (paper, Section 3) is a map `cl : L -> L` that is
//! extensive (`a <= cl.a`), idempotent (`cl.cl.a = cl.a`), and monotone
//! (`a <= b  =>  cl.a <= cl.b`). Unlike a topological closure it need
//! *not* distribute over joins and need not fix the bottom element.
//!
//! On a finite lattice, closures are in bijection with their fixpoint sets:
//! a set `S` is the fixpoint set of a (unique) closure iff `S` is closed
//! under meets and contains the top element, and then
//! `cl.a = meet { s in S : a <= s }`. [`Closure::from_fixpoints`] and
//! [`Closure::fixpoints`] realize the two directions;
//! [`enumerate_closures`] walks the whole bijection for small lattices.

use crate::error::{LatticeError, Result};
use crate::lattice::FiniteLattice;
use crate::traits::LatticeClosure;
use sl_support::rng::{SplitMix, GOLDEN_GAMMA};

/// A validated table-based closure operator on a [`FiniteLattice`].
///
/// The closure stores only its table; pair it with the lattice it was
/// built from. Methods that need the lattice take it as an argument and
/// check sizes.
///
/// # Examples
///
/// ```
/// use sl_lattice::{Closure, FiniteLattice};
///
/// let l = FiniteLattice::from_covers(4, &[(0, 1), (0, 2), (1, 3), (2, 3)])?;
/// // Fixpoints {2, 3}: closure maps 0 and 1 up into {2, 3}.
/// let cl = Closure::from_fixpoints(&l, &[2, 3])?;
/// assert_eq!(cl.apply(0), 2);
/// assert_eq!(cl.apply(1), 3);
/// assert!(cl.is_safety(1) == false && cl.is_safety(2));
/// # Ok::<(), sl_lattice::LatticeError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Closure {
    table: Vec<u32>,
}

impl Closure {
    /// Builds a closure from an explicit table, validating the three
    /// closure laws against the lattice.
    ///
    /// # Errors
    ///
    /// Returns a size-mismatch error if the table length differs from the
    /// lattice, or the first violated closure law.
    pub fn new(lattice: &FiniteLattice, table: Vec<usize>) -> Result<Self> {
        let n = lattice.len();
        if table.len() != n {
            return Err(LatticeError::SizeMismatch {
                left: table.len(),
                right: n,
            });
        }
        for (a, &ca) in table.iter().enumerate() {
            if ca >= n {
                return Err(LatticeError::OutOfRange { index: ca, size: n });
            }
            if !lattice.leq(a, ca) {
                return Err(LatticeError::NotExtensive(a));
            }
        }
        for (a, &ca) in table.iter().enumerate() {
            if table[ca] != ca {
                return Err(LatticeError::NotIdempotent(a));
            }
        }
        for a in 0..n {
            for b in 0..n {
                if lattice.leq(a, b) && !lattice.leq(table[a], table[b]) {
                    return Err(LatticeError::NotMonotone(a, b));
                }
            }
        }
        Ok(Closure {
            table: table.into_iter().map(|x| x as u32).collect(),
        })
    }

    /// Builds the closure whose fixpoint set is `base`.
    ///
    /// # Errors
    ///
    /// Returns an error if `base` omits the top element or is not closed
    /// under binary meets (in which case no closure has exactly these
    /// fixpoints).
    pub fn from_fixpoints(lattice: &FiniteLattice, base: &[usize]) -> Result<Self> {
        let n = lattice.len();
        for &s in base {
            if s >= n {
                return Err(LatticeError::OutOfRange { index: s, size: n });
            }
        }
        if !base.contains(&lattice.top()) {
            return Err(LatticeError::BaseMissingTop);
        }
        for &s in base {
            for &t in base {
                if !base.contains(&lattice.meet(s, t)) {
                    return Err(LatticeError::BaseNotMeetClosed(s, t));
                }
            }
        }
        let table = (0..n)
            .map(|a| lattice.meet_all(base.iter().copied().filter(|&s| lattice.leq(a, s))))
            .collect();
        // The meet of all base elements above `a` is itself in the base
        // (base is meet-closed and nonempty above every `a` thanks to top),
        // so the table is idempotent; `new` re-validates for belt and
        // braces.
        Self::new(lattice, table)
    }

    /// The identity closure (every element is a fixpoint).
    #[must_use]
    pub fn identity(lattice: &FiniteLattice) -> Self {
        Closure {
            table: (0..lattice.len()).map(|x| x as u32).collect(),
        }
    }

    /// The coarsest closure, mapping everything to the top element.
    #[must_use]
    pub fn constant_top(lattice: &FiniteLattice) -> Self {
        Closure {
            table: vec![lattice.top() as u32; lattice.len()],
        }
    }

    /// Applies the closure.
    ///
    /// # Panics
    ///
    /// Panics if `a` is out of range.
    #[must_use]
    pub fn apply(&self, a: usize) -> usize {
        self.table[a] as usize
    }

    /// Number of elements of the underlying lattice.
    #[must_use]
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Always false.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The fixpoint set, i.e. the safety elements, in increasing index
    /// order.
    #[must_use]
    pub fn fixpoints(&self) -> Vec<usize> {
        (0..self.len()).filter(|&a| self.apply(a) == a).collect()
    }

    /// Whether `a` is a cl-safety element (`a = cl.a`).
    #[must_use]
    pub fn is_safety(&self, a: usize) -> bool {
        self.apply(a) == a
    }

    /// Whether `a` is a cl-liveness element (`cl.a = 1`).
    #[must_use]
    pub fn is_liveness(&self, lattice: &FiniteLattice, a: usize) -> bool {
        self.apply(a) == lattice.top()
    }

    /// All cl-liveness elements.
    #[must_use]
    pub fn liveness_elements(&self, lattice: &FiniteLattice) -> Vec<usize> {
        (0..self.len())
            .filter(|&a| self.is_liveness(lattice, a))
            .collect()
    }

    /// Whether `self.a <= other.a` for every `a` — the hypothesis
    /// `cl1 <= cl2` of Theorem 3.
    #[must_use]
    pub fn pointwise_leq(&self, lattice: &FiniteLattice, other: &Closure) -> bool {
        self.len() == other.len()
            && (0..self.len()).all(|a| lattice.leq(self.apply(a), other.apply(a)))
    }

    /// Whether the closure is *topological* in the Alpern–Schneider sense:
    /// `cl.0 = 0` and `cl(a \/ b) = cl.a \/ cl.b`.
    ///
    /// The paper's point is that lattice closures strictly generalize
    /// these; the branching-time closure `ncl` fails the join condition.
    #[must_use]
    pub fn is_topological(&self, lattice: &FiniteLattice) -> bool {
        if self.apply(lattice.bottom()) != lattice.bottom() {
            return false;
        }
        let n = self.len();
        for a in 0..n {
            for b in 0..n {
                let lhs = self.apply(lattice.join(a, b));
                let rhs = lattice.join(self.apply(a), self.apply(b));
                if lhs != rhs {
                    return false;
                }
            }
        }
        true
    }

    /// Lemma 3 check: `cl(a /\ b) <= cl.a /\ cl.b` for all pairs. This
    /// holds for every lattice closure; exposed for tests and the
    /// experiment harness.
    #[must_use]
    pub fn lemma3_holds(&self, lattice: &FiniteLattice) -> bool {
        let n = self.len();
        for a in 0..n {
            for b in 0..n {
                let lhs = self.apply(lattice.meet(a, b));
                let rhs = lattice.meet(self.apply(a), self.apply(b));
                if !lattice.leq(lhs, rhs) {
                    return false;
                }
            }
        }
        true
    }
}

impl LatticeClosure<FiniteLattice> for Closure {
    fn close(&self, _lattice: &FiniteLattice, a: &usize) -> usize {
        self.apply(*a)
    }
}

/// Enumerates *all* closure operators on the lattice, via the bijection
/// with meet-closed subsets containing the top element.
///
/// With `Some(budget)` each candidate subset charges one step (phase
/// `"core.closures"`), so a deadline or step limit bounds the `2^n`
/// sweep. With `None` nothing is metered.
///
/// # Errors
///
/// * [`SlError`](sl_support::SlError)`::InvalidInput` for lattices with
///   more than 16 elements (the enumeration is exponential in the size);
/// * `BudgetExceeded` / `Cancelled` from the budget;
/// * `Domain` if a meet-closed base unexpectedly fails validation (an
///   internal-invariant breach, surfaced instead of panicking).
pub fn enumerate_closures(
    lattice: &FiniteLattice,
    budget: Option<&sl_support::Budget>,
) -> std::result::Result<Vec<Closure>, sl_support::SlError> {
    let n = lattice.len();
    if n > 16 {
        return Err(sl_support::SlError::InvalidInput(format!(
            "closure enumeration limited to 16 elements, got {n}"
        )));
    }
    let mut meter = budget
        .unwrap_or(&sl_support::Budget::unlimited())
        .meter("core.closures");
    let top = lattice.top();
    let mut out = Vec::new();
    'subset: for mask in 0u32..(1u32 << n) {
        meter.charge(1)?;
        if mask & (1 << top) == 0 {
            continue;
        }
        let members: Vec<usize> = (0..n).filter(|&a| mask & (1 << a) != 0).collect();
        for &s in &members {
            for &t in &members {
                if mask & (1 << lattice.meet(s, t)) == 0 {
                    continue 'subset;
                }
            }
        }
        let cl = Closure::from_fixpoints(lattice, &members).map_err(|e| {
            sl_support::SlError::from(e)
                .context("enumerate_closures: meet-closed set with top must induce a closure")
        })?;
        out.push(cl);
    }
    Ok(out)
}

/// Builds a uniformly-seeded pseudo-random closure by closing a random
/// subset of elements under meets and adding the top. Deterministic in the
/// seed; used by property tests and benchmarks.
#[must_use]
pub fn random_closure(lattice: &FiniteLattice, seed: u64) -> Closure {
    let n = lattice.len();
    // Historically this inlined SplitMix64 with the state pre-advanced
    // by one gamma; seeding the shared generator at `seed + gamma`
    // reproduces that exact stream, keeping seeded corpora stable.
    let mut rng = SplitMix::new(seed.wrapping_add(GOLDEN_GAMMA));
    let mut base: Vec<usize> = (0..n).filter(|_| rng.next_u64() % 2 == 0).collect();
    if !base.contains(&lattice.top()) {
        base.push(lattice.top());
    }
    // Close under meets.
    loop {
        let mut added = false;
        let snapshot = base.clone();
        for &s in &snapshot {
            for &t in &snapshot {
                let m = lattice.meet(s, t);
                if !base.contains(&m) {
                    base.push(m);
                    added = true;
                }
            }
        }
        if !added {
            break;
        }
    }
    Closure::from_fixpoints(lattice, &base).expect("meet-closed base induces a closure")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lattice::FiniteLattice;
    use crate::poset::Poset;

    fn diamond() -> FiniteLattice {
        FiniteLattice::from_covers(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap()
    }

    fn chain(n: usize) -> FiniteLattice {
        FiniteLattice::from_poset(Poset::chain(n).unwrap()).unwrap()
    }

    #[test]
    fn identity_and_top_are_closures() {
        let l = diamond();
        let id = Closure::identity(&l);
        let ct = Closure::constant_top(&l);
        assert_eq!(id.fixpoints(), vec![0, 1, 2, 3]);
        assert_eq!(ct.fixpoints(), vec![3]);
        assert!(id.pointwise_leq(&l, &ct));
        assert!(!ct.pointwise_leq(&l, &id));
    }

    #[test]
    fn from_fixpoints_computes_least_cover() {
        let l = diamond();
        let cl = Closure::from_fixpoints(&l, &[2, 3]).unwrap();
        assert_eq!(cl.apply(0), 2);
        assert_eq!(cl.apply(1), 3);
        assert_eq!(cl.apply(2), 2);
        assert_eq!(cl.apply(3), 3);
    }

    #[test]
    fn base_missing_top_rejected() {
        let l = diamond();
        assert_eq!(
            Closure::from_fixpoints(&l, &[0, 1]).unwrap_err(),
            LatticeError::BaseMissingTop
        );
    }

    #[test]
    fn base_not_meet_closed_rejected() {
        let l = diamond();
        // {1, 2, 3} is missing 1 /\ 2 = 0.
        assert_eq!(
            Closure::from_fixpoints(&l, &[1, 2, 3]).unwrap_err(),
            LatticeError::BaseNotMeetClosed(1, 2)
        );
    }

    #[test]
    fn invalid_tables_rejected() {
        let l = chain(3);
        // Not extensive: maps 2 to 0.
        assert_eq!(
            Closure::new(&l, vec![0, 1, 0]).unwrap_err(),
            LatticeError::NotExtensive(2)
        );
        // Not idempotent: 0 -> 1 -> 2.
        assert_eq!(
            Closure::new(&l, vec![1, 2, 2]).unwrap_err(),
            LatticeError::NotIdempotent(0)
        );
        // Not monotone: 0 -> 2 but 1 -> 1.
        assert_eq!(
            Closure::new(&l, vec![2, 1, 2]).unwrap_err(),
            LatticeError::NotMonotone(0, 1)
        );
        // Wrong size.
        assert!(matches!(
            Closure::new(&l, vec![0, 1]).unwrap_err(),
            LatticeError::SizeMismatch { .. }
        ));
    }

    #[test]
    fn safety_and_liveness_partition_style() {
        let l = diamond();
        let cl = Closure::from_fixpoints(&l, &[0, 3]).unwrap();
        assert!(cl.is_safety(0));
        assert!(!cl.is_safety(1));
        // cl maps 1 and 2 to the top, so they are liveness elements.
        assert!(cl.is_liveness(&l, 1));
        assert!(cl.is_liveness(&l, 2));
        assert_eq!(cl.liveness_elements(&l), vec![1, 2, 3]);
        // 0 is safety but not liveness; 3 (top) is both.
        assert!(!cl.is_liveness(&l, 0));
        assert!(cl.is_safety(3) && cl.is_liveness(&l, 3));
    }

    #[test]
    fn enumerate_closures_counts() {
        // On the chain 0 < 1, meet-closed sets containing top {1}:
        // {1}, {0,1} -> exactly 2 closures.
        let l = chain(2);
        assert_eq!(enumerate_closures(&l, None).unwrap().len(), 2);
        // On the diamond: subsets containing 3 closed under meet.
        let l = diamond();
        let all = enumerate_closures(&l, None).unwrap();
        // {3}, {0,3}, {1,3}, {2,3}, {0,1,3}, {0,2,3}, {0,1,2,3}; the set
        // {1,2,3} is excluded since 1 /\ 2 = 0 is missing. Total 7.
        for cl in &all {
            let fp = cl.fixpoints();
            assert!(fp.contains(&3));
            for &s in &fp {
                for &t in &fp {
                    assert!(fp.contains(&l.meet(s, t)));
                }
            }
        }
        assert_eq!(all.len(), 7);
    }

    #[test]
    fn every_enumerated_closure_satisfies_lemma3() {
        let l = diamond();
        for cl in enumerate_closures(&l, None).unwrap() {
            assert!(cl.lemma3_holds(&l));
        }
    }

    #[test]
    fn budgeted_enumeration_matches_and_stops() {
        use sl_support::Budget;
        let l = diamond();
        let all = enumerate_closures(&l, Some(&Budget::unlimited())).unwrap();
        assert_eq!(all, enumerate_closures(&l, None).unwrap());
        // 2^4 = 16 candidate subsets; a budget of 5 steps stops early.
        let err = enumerate_closures(&l, Some(&Budget::unlimited().with_steps(5))).unwrap_err();
        assert!(err.is_budget_exceeded());
        assert_eq!(err.spent(), Some(6));
    }

    #[test]
    fn oversized_lattices_are_invalid_input_with_or_without_a_budget() {
        use sl_support::{Budget, SlError};
        let big = chain(17);
        for budget in [None, Some(&Budget::unlimited())] {
            let err = enumerate_closures(&big, budget).unwrap_err();
            assert!(matches!(err, SlError::InvalidInput(_)), "{err}");
        }
    }

    #[test]
    fn lattice_errors_convert_to_sl_errors() {
        let err: sl_support::SlError = LatticeError::BaseMissingTop.into();
        match &err {
            sl_support::SlError::Domain { domain, message } => {
                assert_eq!(*domain, "lattice");
                assert!(message.contains("top"));
            }
            other => panic!("unexpected variant: {other:?}"),
        }
    }

    #[test]
    fn topological_check_distinguishes() {
        let l = diamond();
        // The identity is topological.
        assert!(Closure::identity(&l).is_topological(&l));
        // constant-top fails cl.0 = 0.
        assert!(!Closure::constant_top(&l).is_topological(&l));
        // Fixpoints {0, 3}: cl(1 \/ 2) = cl(3) = 3, cl.1 \/ cl.2 = 3: need
        // a finer example; fixpoints {0,1,3}: cl(2)=3, cl(0 \/ 2)=cl(2)=3,
        // cl0 \/ cl2 = 0 \/ 3 = 3 ... check law exhaustively instead.
        let cl = Closure::from_fixpoints(&l, &[0, 1, 3]).unwrap();
        // cl(1 \/ 2) = cl(3) = 3 = 1 \/ 3 = cl1 \/ cl2: holds; and cl.0 = 0.
        assert!(cl.is_topological(&l));
    }

    #[test]
    fn non_topological_closure_exists_on_three_atoms() {
        // Boolean algebra on 3 atoms: closure with fixpoints {0, top}
        // where 0 is bottom: cl(a \/ b) vs cl.a \/ cl.b both top for
        // distinct atoms; but cl bottom = bottom. Take fixpoints
        // {atom1, top}: cl.0 = atom1 != 0, not topological.
        let p = Poset::from_leq(8, |a, b| a & b == a).unwrap();
        let l = FiniteLattice::from_poset(p).unwrap();
        let cl = Closure::from_fixpoints(&l, &[1, 7]).unwrap();
        assert!(!cl.is_topological(&l));
        assert!(cl.lemma3_holds(&l));
    }

    #[test]
    fn random_closure_is_valid_and_deterministic() {
        let l = diamond();
        for seed in 0..50 {
            let cl1 = random_closure(&l, seed);
            let cl2 = random_closure(&l, seed);
            assert_eq!(cl1, cl2);
            assert!(cl1.lemma3_holds(&l));
        }
    }
}
