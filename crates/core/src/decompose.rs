//! The paper's decomposition and extremal theorems, executable.
//!
//! * [`decompose`] / [`decompose_pair`] — Theorems 2 and 3: in a modular
//!   complemented lattice, every element is the meet of a cl1-safety and a
//!   cl2-liveness element, constructed as `a = cl1.a /\ (a \/ b)` with
//!   `b` a complement of `cl2.a`.
//! * [`theorem5_applies`] / [`no_decomposition_exists`] — Theorem 5: when
//!   `cl2.a = 1` but `cl1.a < 1`, no decomposition into a cl2-safety and a
//!   cl1-liveness element exists (the "fourth combination" fails).
//! * [`theorem6_strongest_safety`] — Theorem 6: `cl1.a` is the strongest
//!   safety element usable in any decomposition of `a` (machine closure).
//! * [`theorem7_weakest_liveness`] — Theorem 7: in a distributive lattice,
//!   `a \/ b` is the weakest second component.
//!
//! The constructive parts are generic over [`crate::traits::Lattice`] so the same code
//! decomposes finite lattice elements, bitset languages, and Büchi
//! automata; the exhaustive verifiers are specific to [`FiniteLattice`].

use crate::closure::Closure;
use crate::error::{LatticeError, Result};
use crate::lattice::FiniteLattice;
use crate::traits::{BoundedLattice, LatticeClosure};

/// The result of decomposing an element `a` as `safety /\ liveness`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decomposition<E> {
    /// The cl1-safety component, `cl1.a`.
    pub safety: E,
    /// The cl2-liveness component, `a \/ b`.
    pub liveness: E,
    /// The complement `b` of `cl2.a` that was used.
    pub complement: E,
}

/// Decomposes `a = cl1.a /\ (a \/ b)` in any bounded lattice, given the
/// two closures and a function producing a complement of `cl2.a`.
///
/// This is Theorem 3 as a construction. Correctness (that the meet
/// recovers `a` and the second component is cl2-live) additionally needs
/// the lattice to be modular; use [`verify_decomposition`] or the
/// `FiniteLattice`-specific [`decompose`] when you want that checked.
///
/// # Errors
///
/// Returns [`LatticeError::NoComplement`] if `cmp` cannot produce a
/// complement of `cl2.a`.
pub fn decompose_pair<L, C1, C2, F>(
    lattice: &L,
    cl1: &C1,
    cl2: &C2,
    cmp: F,
    a: &L::Elem,
) -> Result<Decomposition<L::Elem>>
where
    L: BoundedLattice,
    C1: LatticeClosure<L>,
    C2: LatticeClosure<L>,
    F: Fn(&L, &L::Elem) -> Option<L::Elem>,
{
    let safety = cl1.close(lattice, a);
    let closed2 = cl2.close(lattice, a);
    let complement = cmp(lattice, &closed2).ok_or(LatticeError::NoComplement(0))?;
    let liveness = lattice.join(a, &complement);
    Ok(Decomposition {
        safety,
        liveness,
        complement,
    })
}

/// Checks that a decomposition is genuinely a safety/liveness
/// decomposition of `a`:
///
/// 1. the safety part is a cl1-safety element,
/// 2. the liveness part is a cl2-liveness element (Lemma 4), and
/// 3. their meet is exactly `a` (Theorem 3; needs modularity).
pub fn verify_decomposition<L, C1, C2>(
    lattice: &L,
    cl1: &C1,
    cl2: &C2,
    a: &L::Elem,
    d: &Decomposition<L::Elem>,
) -> bool
where
    L: BoundedLattice,
    C1: LatticeClosure<L>,
    C2: LatticeClosure<L>,
{
    let safety_ok = cl1.close(lattice, &d.safety) == d.safety;
    let liveness_ok = cl2.close(lattice, &d.liveness) == lattice.top();
    let meet_ok = lattice.meet(&d.safety, &d.liveness) == *a;
    safety_ok && liveness_ok && meet_ok
}

/// Decomposes an element of a finite lattice per Theorem 3, verifying the
/// hypotheses (`cl1 <= cl2` pointwise) and the conclusion.
///
/// # Errors
///
/// * [`LatticeError::HypothesisViolated`] if `cl1 <= cl2` fails pointwise.
/// * [`LatticeError::NoComplement`] if `cl2.a` has no complement.
/// * [`LatticeError::HypothesisViolated`] if the verified identity fails —
///   which, per the paper's Figure 1, can only happen in a non-modular
///   lattice.
pub fn decompose_pair_checked(
    lattice: &FiniteLattice,
    cl1: &Closure,
    cl2: &Closure,
    a: usize,
) -> Result<Decomposition<usize>> {
    if !cl1.pointwise_leq(lattice, cl2) {
        return Err(LatticeError::HypothesisViolated("cl1 <= cl2 pointwise"));
    }
    let closed2 = cl2.apply(a);
    let complement = lattice
        .complement(closed2)
        .ok_or(LatticeError::NoComplement(closed2))?;
    let d = Decomposition {
        safety: cl1.apply(a),
        liveness: lattice.join(a, complement),
        complement,
    };
    if !verify_decomposition(lattice, cl1, cl2, &a, &d) {
        return Err(LatticeError::HypothesisViolated(
            "decomposition identity (lattice is probably not modular)",
        ));
    }
    Ok(d)
}

/// Theorem 2: the single-closure decomposition `a = cl.a /\ (a \/ b)`
/// with `b` a complement of `cl.a`.
///
/// # Errors
///
/// Same failure modes as [`decompose_pair_checked`] with `cl1 = cl2 = cl`.
pub fn decompose(lattice: &FiniteLattice, cl: &Closure, a: usize) -> Result<Decomposition<usize>> {
    decompose_pair_checked(lattice, cl, cl, a)
}

/// All decompositions of `a` as `s /\ l` with `s` a cl1-safety element
/// and `l` a cl2-liveness element, found by exhaustive search.
#[must_use]
pub fn all_decompositions(
    lattice: &FiniteLattice,
    cl1: &Closure,
    cl2: &Closure,
    a: usize,
) -> Vec<(usize, usize)> {
    let n = lattice.len();
    let mut out = Vec::new();
    for s in 0..n {
        if cl1.apply(s) != s {
            continue;
        }
        for l in 0..n {
            if cl2.apply(l) != lattice.top() {
                continue;
            }
            if lattice.meet(s, l) == a {
                out.push((s, l));
            }
        }
    }
    out
}

/// Whether the hypotheses of Theorem 5 hold for `a`: `cl2.a = 1` and
/// `cl1.a < 1`. Under these hypotheses no decomposition of `a` into a
/// cl2-safety and cl1-liveness element exists.
#[must_use]
pub fn theorem5_applies(lattice: &FiniteLattice, cl1: &Closure, cl2: &Closure, a: usize) -> bool {
    cl2.apply(a) == lattice.top() && cl1.apply(a) != lattice.top()
}

/// Exhaustively confirms the *conclusion* of Theorem 5: there is no pair
/// `(s, l)` with `cl2.s = s`, `cl1.l = 1`, and `a = s /\ l`.
///
/// Note the swapped roles relative to [`all_decompositions`]: here the
/// safety side uses `cl2` and the liveness side `cl1`.
#[must_use]
pub fn no_decomposition_exists(
    lattice: &FiniteLattice,
    cl_safety: &Closure,
    cl_liveness: &Closure,
    a: usize,
) -> bool {
    all_decompositions(lattice, cl_safety, cl_liveness, a).is_empty()
}

/// Theorem 6 (strongest safety / machine closure): for every
/// decomposition `a = s /\ z` where `s` is a cl1- or cl2-fixpoint,
/// `cl1.a <= s`. Returns `cl1.a` after exhaustively verifying the claim.
///
/// # Errors
///
/// Returns [`LatticeError::HypothesisViolated`] if `cl1 <= cl2` fails, or
/// if a counterexample decomposition is found (impossible per the paper —
/// this would indicate a bug).
pub fn theorem6_strongest_safety(
    lattice: &FiniteLattice,
    cl1: &Closure,
    cl2: &Closure,
    a: usize,
) -> Result<usize> {
    if !cl1.pointwise_leq(lattice, cl2) {
        return Err(LatticeError::HypothesisViolated("cl1 <= cl2 pointwise"));
    }
    let strongest = cl1.apply(a);
    let n = lattice.len();
    for s in 0..n {
        if cl1.apply(s) != s && cl2.apply(s) != s {
            continue;
        }
        for z in 0..n {
            if lattice.meet(s, z) == a && !lattice.leq(strongest, s) {
                return Err(LatticeError::HypothesisViolated(
                    "Theorem 6 counterexample found (bug)",
                ));
            }
        }
    }
    Ok(strongest)
}

/// Theorem 7 (weakest second component): in a *distributive* lattice, for
/// every decomposition `a = s /\ z` with `s` a cl1- or cl2-fixpoint and
/// every complement `b` of `cl1.a`, we have `z <= a \/ b`. Returns
/// `a \/ b` after exhaustively verifying the claim.
///
/// # Errors
///
/// * [`LatticeError::HypothesisViolated`] if the lattice is not
///   distributive or `cl1 <= cl2` fails.
/// * [`LatticeError::NoComplement`] if `cl1.a` has no complement.
pub fn theorem7_weakest_liveness(
    lattice: &FiniteLattice,
    cl1: &Closure,
    cl2: &Closure,
    a: usize,
) -> Result<usize> {
    if !lattice.is_distributive() {
        return Err(LatticeError::HypothesisViolated("distributivity"));
    }
    if !cl1.pointwise_leq(lattice, cl2) {
        return Err(LatticeError::HypothesisViolated("cl1 <= cl2 pointwise"));
    }
    let closed = cl1.apply(a);
    let b = lattice
        .complement(closed)
        .ok_or(LatticeError::NoComplement(closed))?;
    let weakest = lattice.join(a, b);
    let n = lattice.len();
    for s in 0..n {
        if cl1.apply(s) != s && cl2.apply(s) != s {
            continue;
        }
        for z in 0..n {
            if lattice.meet(s, z) == a && !lattice.leq(z, weakest) {
                return Err(LatticeError::HypothesisViolated(
                    "Theorem 7 counterexample found (bug)",
                ));
            }
        }
    }
    Ok(weakest)
}

/// Whether the pair `(s, z)` is a *machine-closed* decomposition of `a`:
/// `a = s /\ z` and `s = cl.a` — the safety part does as much of the
/// specifying as possible (Abadi–Lamport; paper, discussion after
/// Theorem 6).
#[must_use]
pub fn is_machine_closed(
    lattice: &FiniteLattice,
    cl: &Closure,
    a: usize,
    s: usize,
    z: usize,
) -> bool {
    lattice.meet(s, z) == a && cl.apply(a) == s
}

/// Lemma 4 as a checker: if `b` is a complement of `cl.a`, then `a \/ b`
/// is a cl-liveness element.
#[must_use]
pub fn lemma4_holds(lattice: &FiniteLattice, cl: &Closure, a: usize) -> bool {
    let closed = cl.apply(a);
    lattice
        .complements(closed)
        .into_iter()
        .all(|b| cl.apply(lattice.join(a, b)) == lattice.top())
}

/// Generic single-closure decomposition for any bounded lattice with a
/// complement function — used by the automata-theoretic instantiations.
///
/// # Errors
///
/// Returns [`LatticeError::NoComplement`] if `cmp` fails on `cl.a`.
pub fn decompose_generic<L, C, F>(
    lattice: &L,
    cl: &C,
    cmp: F,
    a: &L::Elem,
) -> Result<Decomposition<L::Elem>>
where
    L: BoundedLattice,
    C: LatticeClosure<L>,
    F: Fn(&L, &L::Elem) -> Option<L::Elem>,
{
    decompose_pair(lattice, cl, cl, cmp, a)
}

/// The classification of an element relative to a closure, mirroring the
/// paper's linear-time trichotomy (safety / liveness / neither, with the
/// top element being both).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Classification {
    /// `a = cl.a` and `cl.a != 1` (or `a` is not the top).
    Safety,
    /// `cl.a = 1` and `a != cl.a`.
    Liveness,
    /// Both safety and liveness: only the top element.
    Both,
    /// Neither: `a < cl.a < 1`.
    Neither,
}

impl std::fmt::Display for Classification {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let text = match self {
            Classification::Safety => "safety",
            Classification::Liveness => "liveness",
            Classification::Both => "safety+liveness",
            Classification::Neither => "neither",
        };
        f.write_str(text)
    }
}

/// Classifies `a` relative to `cl` on a finite lattice.
#[must_use]
pub fn classify(lattice: &FiniteLattice, cl: &Closure, a: usize) -> Classification {
    let safe = cl.apply(a) == a;
    let live = cl.apply(a) == lattice.top();
    match (safe, live) {
        (true, true) => Classification::Both,
        (true, false) => Classification::Safety,
        (false, true) => Classification::Liveness,
        (false, false) => Classification::Neither,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::closure::enumerate_closures;
    use crate::poset::Poset;

    /// Boolean algebra on 3 atoms via bitmask order.
    fn b3() -> FiniteLattice {
        let p = Poset::from_leq(8, |a, b| a & b == a).unwrap();
        FiniteLattice::from_poset(p).unwrap()
    }

    fn diamond() -> FiniteLattice {
        FiniteLattice::from_covers(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap()
    }

    #[test]
    fn theorem2_on_all_closures_of_diamond() {
        let l = diamond();
        for cl in enumerate_closures(&l, None).unwrap() {
            for a in 0..l.len() {
                let d = decompose(&l, &cl, a).unwrap();
                assert!(verify_decomposition(&l, &cl, &cl, &a, &d));
                assert_eq!(l.meet(d.safety, d.liveness), a);
            }
        }
    }

    #[test]
    fn theorem2_on_all_closures_of_b3() {
        let l = b3();
        for cl in enumerate_closures(&l, None).unwrap() {
            for a in 0..l.len() {
                let d = decompose(&l, &cl, a).unwrap();
                assert!(verify_decomposition(&l, &cl, &cl, &a, &d));
            }
        }
    }

    #[test]
    fn theorem3_two_closures() {
        let l = b3();
        let closures = enumerate_closures(&l, None).unwrap();
        let mut tested = 0usize;
        for cl1 in &closures {
            for cl2 in &closures {
                if !cl1.pointwise_leq(&l, cl2) {
                    continue;
                }
                for a in 0..l.len() {
                    let d = decompose_pair_checked(&l, cl1, cl2, a).unwrap();
                    assert!(verify_decomposition(&l, cl1, cl2, &a, &d));
                    tested += 1;
                }
            }
        }
        assert!(tested > 100, "should exercise many closure pairs");
    }

    #[test]
    fn hypothesis_cl1_leq_cl2_enforced() {
        let l = diamond();
        let id = Closure::identity(&l);
        let ct = Closure::constant_top(&l);
        // cl1 = constant top, cl2 = identity violates cl1 <= cl2.
        assert_eq!(
            decompose_pair_checked(&l, &ct, &id, 1).unwrap_err(),
            LatticeError::HypothesisViolated("cl1 <= cl2 pointwise")
        );
    }

    #[test]
    fn missing_complement_reported() {
        // Chain of 3: middle element has no complement.
        let l = FiniteLattice::from_poset(Poset::chain(3).unwrap()).unwrap();
        let id = Closure::identity(&l);
        assert_eq!(
            decompose(&l, &id, 1).unwrap_err(),
            LatticeError::NoComplement(1)
        );
    }

    #[test]
    fn figure1_lemma6_no_decomposition() {
        // N5: 0 < a(1) < b(2) < 1(4), 0 < c(3) < 1(4); cl.a = b, identity
        // otherwise. Element a has no safety /\ liveness decomposition.
        let l = FiniteLattice::from_covers(5, &[(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)]).unwrap();
        let cl = Closure::new(&l, vec![0, 2, 2, 3, 4]).unwrap();
        assert!(!l.is_modular());
        assert!(all_decompositions(&l, &cl, &cl, 1).is_empty());
        // The constructive formula exists but fails verification.
        assert!(decompose(&l, &cl, 1).is_err());
        // The only liveness element is the top (paper's Lemma 6 argument).
        assert_eq!(cl.liveness_elements(&l), vec![4]);
    }

    #[test]
    fn theorem5_impossibility() {
        let l = b3();
        // cl2 = constant top (so cl2.a = 1 for all a), cl1 = identity.
        let cl1 = Closure::identity(&l);
        let cl2 = Closure::constant_top(&l);
        for a in 0..l.len() - 1 {
            // every non-top a: cl2.a = top, cl1.a = a < top.
            assert!(theorem5_applies(&l, &cl1, &cl2, a));
            // No decomposition with cl2-safety and cl1-liveness parts:
            assert!(no_decomposition_exists(&l, &cl2, &cl1, a));
        }
        // Top itself decomposes trivially.
        let top = l.top();
        assert!(!theorem5_applies(&l, &cl1, &cl2, top));
        assert!(!no_decomposition_exists(&l, &cl2, &cl1, top));
    }

    #[test]
    fn theorem6_strongest_safety_on_b3() {
        let l = b3();
        for cl in enumerate_closures(&l, None).unwrap() {
            for a in 0..l.len() {
                let strongest = theorem6_strongest_safety(&l, &cl, &cl, a).unwrap();
                assert_eq!(strongest, cl.apply(a));
                // And the canonical decomposition attains it.
                let d = decompose(&l, &cl, a).unwrap();
                assert_eq!(d.safety, strongest);
            }
        }
    }

    #[test]
    fn theorem7_weakest_liveness_on_b3() {
        let l = b3();
        for cl in enumerate_closures(&l, None).unwrap() {
            for a in 0..l.len() {
                let weakest = theorem7_weakest_liveness(&l, &cl, &cl, a).unwrap();
                let d = decompose(&l, &cl, a).unwrap();
                assert_eq!(d.liveness, weakest);
            }
        }
    }

    #[test]
    fn theorem7_requires_distributivity() {
        // M3 with an extra bottom is modular but not distributive; the
        // checker should refuse.
        let l = FiniteLattice::from_covers(5, &[(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])
            .unwrap();
        let cl = Closure::identity(&l);
        assert_eq!(
            theorem7_weakest_liveness(&l, &cl, &cl, 1).unwrap_err(),
            LatticeError::HypothesisViolated("distributivity")
        );
    }

    #[test]
    fn figure2_z_not_below_a_join_b() {
        // M3 relabeled per Figure 2: bottom = a(0), atoms s(1), b(2),
        // z(3), top = 1(4). Closure: a -> s, b -> top, z -> top, s -> s.
        let l = FiniteLattice::from_covers(5, &[(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])
            .unwrap();
        let cl = Closure::new(&l, vec![1, 1, 4, 4, 4]).unwrap();
        assert!(l.is_modular());
        assert!(!l.is_distributive());
        let (a, s, b, z) = (0, 1, 2, 3);
        // s is a safety element and a = s /\ z.
        assert!(cl.is_safety(s));
        assert_eq!(l.meet(s, z), a);
        // b is a complement of cl.a = s.
        assert!(l.complements(cl.apply(a)).contains(&b));
        // But z <= a \/ b fails: a \/ b = b, and z is incomparable to b.
        assert!(!l.leq(z, l.join(a, b)));
    }

    #[test]
    fn lemma4_on_all_closures() {
        for l in [diamond(), b3()] {
            for cl in enumerate_closures(&l, None).unwrap() {
                for a in 0..l.len() {
                    assert!(lemma4_holds(&l, &cl, a));
                }
            }
        }
    }

    #[test]
    fn machine_closed_detection() {
        let l = b3();
        let cl = Closure::from_fixpoints(&l, &[3, 7]).unwrap();
        let a = 1; // cl.1 = 3 (join of atoms 1 and 2 in bitmask order)
        let d = decompose(&l, &cl, a).unwrap();
        assert!(is_machine_closed(&l, &cl, a, d.safety, d.liveness));
        // A non-canonical decomposition need not be machine closed:
        // s = top is a safety element and top /\ a = a.
        assert!(!is_machine_closed(&l, &cl, a, l.top(), a));
    }

    #[test]
    fn classification_trichotomy() {
        let l = b3();
        let cl = Closure::from_fixpoints(&l, &[3, 7]).unwrap();
        // 3 is a fixpoint below top: safety.
        assert_eq!(classify(&l, &cl, 3), Classification::Safety);
        // 7 is top: both.
        assert_eq!(classify(&l, &cl, 7), Classification::Both);
        // 4 closes to 7: liveness.
        assert_eq!(classify(&l, &cl, 4), Classification::Liveness);
        // 1 closes to 3 (neither itself nor top): neither.
        assert_eq!(classify(&l, &cl, 1), Classification::Neither);
        assert_eq!(classify(&l, &cl, 1).to_string(), "neither");
    }

    #[test]
    fn lemma2_meet_join_monotone() {
        // Lemma 2: a <= b implies a /\ c <= b /\ c and a \/ c <= b \/ c.
        let l = b3();
        for a in 0..l.len() {
            for b in 0..l.len() {
                if !l.leq(a, b) {
                    continue;
                }
                for c in 0..l.len() {
                    assert!(l.leq(l.meet(a, c), l.meet(b, c)));
                    assert!(l.leq(l.join(a, c), l.join(b, c)));
                }
            }
        }
    }

    #[test]
    fn lemma5_complement_disjointness() {
        // Lemma 5: c in cmp.b and a <= b imply a /\ c = 0.
        for l in [diamond(), b3(), crate::generators::m3()] {
            for b in 0..l.len() {
                for c in l.complements(b) {
                    for a in 0..l.len() {
                        if l.leq(a, b) {
                            assert_eq!(l.meet(a, c), l.bottom(), "a={a}, b={b}, c={c}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn lemma3_on_closures_of_corpus() {
        // Lemma 3: cl(a /\ b) <= cl.a /\ cl.b for every lattice closure.
        for (name, l) in crate::generators::modular_complemented_corpus() {
            if l.len() > 10 {
                continue;
            }
            for cl in enumerate_closures(&l, None).unwrap() {
                assert!(cl.lemma3_holds(&l), "{name}");
            }
        }
    }

    #[test]
    fn generic_decomposition_via_traits() {
        let l = b3();
        let cl = Closure::from_fixpoints(&l, &[3, 7]).unwrap();
        let cmp = |lat: &FiniteLattice, x: &usize| lat.complement(*x);
        let d = decompose_generic(&l, &cl, cmp, &1).unwrap();
        assert!(verify_decomposition(&l, &cl, &cl, &1, &d));
    }
}
