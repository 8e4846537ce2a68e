//! Abstract lattice interfaces.
//!
//! The decomposition machinery in the `decompose` module is written against
//! these traits so that it applies uniformly to the table-based
//! [`crate::FiniteLattice`], the bitset Boolean algebra
//! [`crate::BitsetAlgebra`], and any downstream lattice of properties (for
//! example the lattice of Büchi-recognizable languages in `sl-buchi`, where
//! elements are automata and `meet`/`join` are product and union).
//!
//! The design follows the paper's Section 3: a lattice is a carrier with
//! `meet` and `join` satisfying the associative, commutative, idempotency,
//! and absorption laws; the order is *defined* by
//! `a <= b  iff  a /\ b = a`.

/// A lattice whose elements are values of type `Self::Elem`, with the
/// operations provided by the structure value (so one type can represent a
/// whole family of lattices, e.g. all powerset algebras).
///
/// Implementations must satisfy the lattice laws: `meet` and `join` are
/// associative, commutative, and idempotent, and absorb each other
/// (`a /\ (a \/ b) = a`). [`check::lattice_laws`] verifies these on a
/// sample of elements.
pub trait Lattice {
    /// The element type of the lattice.
    type Elem: Clone + Eq;

    /// Greatest lower bound.
    fn meet(&self, a: &Self::Elem, b: &Self::Elem) -> Self::Elem;

    /// Least upper bound.
    fn join(&self, a: &Self::Elem, b: &Self::Elem) -> Self::Elem;

    /// The induced partial order: `a <= b` iff `a /\ b = a`.
    fn leq(&self, a: &Self::Elem, b: &Self::Elem) -> bool {
        self.meet(a, b) == *a
    }
}

/// A lattice with least element `0` and greatest element `1`.
pub trait BoundedLattice: Lattice {
    /// The least element (`a \/ 0 = a`).
    fn bottom(&self) -> Self::Elem;

    /// The greatest element (`a /\ 1 = a`).
    fn top(&self) -> Self::Elem;
}

/// A bounded lattice in which every element has at least one complement,
/// and some complement can be computed.
///
/// Complements need not be unique in a merely modular lattice (the paper
/// writes `cmp.a` for the *set* of complements); implementations return an
/// arbitrary member of that set.
pub trait ComplementedLattice: BoundedLattice {
    /// Some `b` with `a /\ b = 0` and `a \/ b = 1`.
    fn complement(&self, a: &Self::Elem) -> Self::Elem;
}

/// A lattice closure in the sense of the paper (Section 3): an extensive,
/// idempotent, monotone map on a lattice.
///
/// Note what is *not* required: `cl` need not distribute over joins. That
/// is exactly the generality the paper needs for the branching-time closure
/// `ncl` and is what separates lattice closures from topological closure
/// operators.
pub trait LatticeClosure<L: Lattice + ?Sized> {
    /// Applies the closure to an element.
    fn close(&self, lattice: &L, a: &L::Elem) -> L::Elem;

    /// Whether `close(a) <= b`. The provided default is exactly
    /// `leq(close(a), b)`; an implementation may answer without
    /// building the image, but must return the same boolean.
    fn close_below(&self, lattice: &L, a: &L::Elem, b: &L::Elem) -> bool {
        lattice.leq(&self.close(lattice, a), b)
    }
}

/// Blanket implementation so plain functions and closures can be used as
/// lattice closures.
impl<L, F> LatticeClosure<L> for F
where
    L: Lattice + ?Sized,
    F: Fn(&L, &L::Elem) -> L::Elem,
{
    fn close(&self, lattice: &L, a: &L::Elem) -> L::Elem {
        self(lattice, a)
    }
}

/// Law checkers that validate trait implementations on a finite sample of
/// elements. These are used by property tests across the workspace.
pub mod check {
    use super::{BoundedLattice, Lattice, LatticeClosure};

    /// Checks the associative, commutative, idempotency, and absorption
    /// laws (and their duals) on all triples drawn from `sample`.
    /// Returns a human-readable description of the first violated law.
    pub fn lattice_laws<L: Lattice>(lat: &L, sample: &[L::Elem]) -> Result<(), String> {
        for a in sample {
            if lat.meet(a, a) != *a {
                return Err("meet idempotency".into());
            }
            if lat.join(a, a) != *a {
                return Err("join idempotency".into());
            }
            for b in sample {
                if lat.meet(a, b) != lat.meet(b, a) {
                    return Err("meet commutativity".into());
                }
                if lat.join(a, b) != lat.join(b, a) {
                    return Err("join commutativity".into());
                }
                if lat.meet(a, &lat.join(a, b)) != *a {
                    return Err("absorption a /\\ (a \\/ b) = a".into());
                }
                if lat.join(a, &lat.meet(a, b)) != *a {
                    return Err("absorption a \\/ (a /\\ b) = a".into());
                }
                for c in sample {
                    let left = lat.meet(&lat.meet(a, b), c);
                    let right = lat.meet(a, &lat.meet(b, c));
                    if left != right {
                        return Err("meet associativity".into());
                    }
                    let left = lat.join(&lat.join(a, b), c);
                    let right = lat.join(a, &lat.join(b, c));
                    if left != right {
                        return Err("join associativity".into());
                    }
                }
            }
        }
        Ok(())
    }

    /// Checks the bound laws `a /\ 1 = a` and `a \/ 0 = a` on `sample`.
    pub fn bound_laws<L: BoundedLattice>(lat: &L, sample: &[L::Elem]) -> Result<(), String> {
        let top = lat.top();
        let bottom = lat.bottom();
        for a in sample {
            if lat.meet(a, &top) != *a {
                return Err("a /\\ 1 = a".into());
            }
            if lat.join(a, &bottom) != *a {
                return Err("a \\/ 0 = a".into());
            }
        }
        Ok(())
    }

    /// Checks the modular law `a <= c  =>  a \/ (b /\ c) = (a \/ b) /\ c`
    /// on all triples drawn from `sample`.
    pub fn modular_law<L: Lattice>(lat: &L, sample: &[L::Elem]) -> Result<(), String> {
        for a in sample {
            for b in sample {
                for c in sample {
                    if !lat.leq(a, c) {
                        continue;
                    }
                    let left = lat.join(a, &lat.meet(b, c));
                    let right = lat.meet(&lat.join(a, b), c);
                    if left != right {
                        return Err("modular law".into());
                    }
                }
            }
        }
        Ok(())
    }

    /// Checks distributivity `a /\ (b \/ c) = (a /\ b) \/ (a /\ c)` on all
    /// triples drawn from `sample`.
    pub fn distributive_law<L: Lattice>(lat: &L, sample: &[L::Elem]) -> Result<(), String> {
        for a in sample {
            for b in sample {
                for c in sample {
                    let left = lat.meet(a, &lat.join(b, c));
                    let right = lat.join(&lat.meet(a, b), &lat.meet(a, c));
                    if left != right {
                        return Err("distributive law".into());
                    }
                }
            }
        }
        Ok(())
    }

    /// Checks the three closure laws on `sample` (monotonicity on all
    /// comparable pairs in the sample).
    pub fn closure_laws<L: Lattice, C: LatticeClosure<L>>(
        lat: &L,
        cl: &C,
        sample: &[L::Elem],
    ) -> Result<(), String> {
        for a in sample {
            let ca = cl.close(lat, a);
            if !lat.leq(a, &ca) {
                return Err("closure extensivity a <= cl.a".into());
            }
            if cl.close(lat, &ca) != ca {
                return Err("closure idempotency".into());
            }
            for b in sample {
                if lat.leq(a, b) && !lat.leq(&ca, &cl.close(lat, b)) {
                    return Err("closure monotonicity".into());
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The two-element Boolean algebra as a minimal trait implementation.
    struct Two;

    impl Lattice for Two {
        type Elem = bool;
        fn meet(&self, a: &bool, b: &bool) -> bool {
            *a && *b
        }
        fn join(&self, a: &bool, b: &bool) -> bool {
            *a || *b
        }
    }

    impl BoundedLattice for Two {
        fn bottom(&self) -> bool {
            false
        }
        fn top(&self) -> bool {
            true
        }
    }

    impl ComplementedLattice for Two {
        fn complement(&self, a: &bool) -> bool {
            !*a
        }
    }

    #[test]
    fn two_satisfies_all_laws() {
        let sample = [false, true];
        check::lattice_laws(&Two, &sample).unwrap();
        check::bound_laws(&Two, &sample).unwrap();
        check::modular_law(&Two, &sample).unwrap();
        check::distributive_law(&Two, &sample).unwrap();
    }

    #[test]
    fn induced_order_matches_implication() {
        assert!(Two.leq(&false, &true));
        assert!(!Two.leq(&true, &false));
        assert!(Two.leq(&true, &true));
    }

    #[test]
    fn function_as_closure() {
        // cl = constant top is a lattice closure.
        let cl = |_: &Two, _: &bool| true;
        check::closure_laws(&Two, &cl, &[false, true]).unwrap();
        assert!(cl.close(&Two, &false));
    }

    #[test]
    fn close_below_defaults_to_leq_of_close() {
        let cl = |_: &Two, a: &bool| *a;
        for a in [false, true] {
            for b in [false, true] {
                assert_eq!(
                    cl.close_below(&Two, &a, &b),
                    Two.leq(&cl.close(&Two, &a), &b)
                );
            }
        }
    }

    #[test]
    fn identity_is_a_closure() {
        let cl = |_: &Two, a: &bool| *a;
        check::closure_laws(&Two, &cl, &[false, true]).unwrap();
    }

    #[test]
    fn non_extensive_map_rejected() {
        let cl = |_: &Two, _: &bool| false;
        assert!(check::closure_laws(&Two, &cl, &[false, true]).is_err());
    }

    #[test]
    fn complement_laws() {
        for a in [false, true] {
            let c = Two.complement(&a);
            assert_eq!(Two.meet(&a, &c), Two.bottom());
            assert_eq!(Two.join(&a, &c), Two.top());
        }
    }
}
