//! The branching-time closures `fcl` and `ncl` (Definitions 5 and 6),
//! with bounded membership checkers and absolute path-based refutations.
//!
//! The definitions quantify over all prefixes of a total tree and all
//! total extensions — neither is finitely enumerable, so the checkers
//! here are *bounded*: they test prefixes up to a depth, and search for
//! extensions among completions built from a caller-supplied family of
//! continuation trees (plus the tree itself). Refutations of `ncl`
//! membership for *universal path properties* `A φ` are absolute,
//! though: if a non-total prefix keeps an infinite path violating `φ`,
//! no extension whatsoever can land in the property (the path survives
//! into every extension).
//!
//! This is the substitution documented in DESIGN.md item 3: the paper's
//! Section 4.3 table is verified mechanically with the paper's own
//! witnesses plus exhaustive small-scope search.

use crate::ctl::Ctl;
use crate::finite::Node;
use crate::prefix::RegularPrefix;
use crate::regular::RegularTree;
use sl_ltl::Ltl;
use sl_support::{Budget, SlError};

/// A bounded refutation of closure membership: the prefix that could
/// not be extended into the property.
#[derive(Debug, Clone)]
pub struct Refutation {
    /// Depth of the unrolling where the stuck prefix lives.
    pub depth: usize,
    /// The cut paths defining the stuck prefix (empty = full
    /// truncation).
    pub cuts: Vec<Node>,
}

/// Bounded check of `y ∈ fcl.P`: for every full truncation of `y` up to
/// `max_depth`, some completion (by a tree from `continuations`, with
/// `width`-fold branching below the frontier, or `y` itself) satisfies
/// `property`.
///
/// The inner `Ok(())` means membership *as far as the bounds see*; the
/// inner `Err` returns the depth of a truncation for which no candidate
/// extension worked — a refutation relative to the candidate family.
///
/// With `Some(budget)` each graft-and-model-check of a candidate
/// extension charges one step (phase `"trees.fcl"`). The candidate
/// count is `depths × continuations` and each check walks a product
/// construction, so untrusted bounds should come with a budget. With
/// `None` nothing is metered.
///
/// # Errors
///
/// [`SlError::BudgetExceeded`] / [`SlError::Cancelled`] from the
/// budget; never with `budget: None`.
pub fn fcl_contains_bounded(
    y: &RegularTree,
    property: &Ctl,
    max_depth: usize,
    continuations: &[RegularTree],
    width: usize,
    budget: Option<&Budget>,
) -> Result<Result<(), Refutation>, SlError> {
    let mut meter = budget.unwrap_or(&Budget::unlimited()).meter("trees.fcl");
    // If y itself is in P, every truncation extends to y: done.
    meter.charge(1)?;
    if y.satisfies(property) {
        return Ok(Ok(()));
    }
    for depth in 0..=max_depth {
        let mut found = false;
        for cont in continuations {
            meter.charge(1)?;
            if y.graft(depth, cont, width).satisfies(property) {
                found = true;
                break;
            }
        }
        if !found {
            return Ok(Err(Refutation {
                depth,
                cuts: Vec::new(),
            }));
        }
    }
    Ok(Ok(()))
}

/// All antichain cut-pattern prefixes of `y` up to `max_depth`:
/// nonempty subsets of unrolling paths with no ancestor pairs. Total
/// prefixes (no cuts) are excluded — `ncl` quantifies over `A_nt`.
///
/// The `2^paths` enumeration blows up fast: with `Some(budget)` each
/// candidate subset charges one step (phase `"trees.prefixes"`); with
/// `None` nothing is metered.
///
/// # Errors
///
/// * [`SlError::InvalidInput`] when more than 16 unrolling paths would
///   make the subset enumeration intractable (lower `max_depth`);
/// * [`SlError::Domain`] if the tree's successor table is internally
///   inconsistent (an enumerated path leaves the tree);
/// * [`SlError::BudgetExceeded`] / [`SlError::Cancelled`] from the
///   budget.
pub fn nontotal_prefixes(
    y: &RegularTree,
    max_depth: usize,
    budget: Option<&Budget>,
) -> Result<Vec<RegularPrefix>, SlError> {
    Ok(nontotal_patterns(y, max_depth, budget)?
        .iter()
        .map(|cuts| RegularPrefix::cut(y, max_depth, cuts))
        .collect())
}

/// The cut patterns behind [`nontotal_prefixes`], in the same order:
/// each is the antichain of unrolling paths its prefix cuts.
fn nontotal_patterns(
    y: &RegularTree,
    max_depth: usize,
    budget: Option<&Budget>,
) -> Result<Vec<Vec<Node>>, SlError> {
    let mut meter = budget
        .unwrap_or(&Budget::unlimited())
        .meter("trees.prefixes");
    // Enumerate the unrolling paths up to max_depth.
    let mut paths: Vec<Node> = vec![Vec::new()];
    let mut frontier: Vec<Node> = vec![Vec::new()];
    for _ in 0..max_depth {
        let mut next = Vec::new();
        for path in &frontier {
            let node = y.node_at(path).ok_or_else(|| SlError::Domain {
                domain: "trees",
                message: format!("enumerated path {path:?} leaves the tree"),
            })?;
            for i in 0..y.children(node).len() {
                let mut child = path.clone();
                child.push(i as u32);
                paths.push(child.clone());
                next.push(child);
            }
        }
        frontier = next;
    }
    // Subsets that form antichains, nonempty.
    let n = paths.len();
    if n > 16 {
        return Err(SlError::InvalidInput(format!(
            "too many unrolling paths ({n} > 16); lower max_depth"
        )));
    }
    let mut out = Vec::new();
    'subset: for mask in 1u32..(1u32 << n) {
        meter.charge(1)?;
        let chosen: Vec<&Node> = (0..n)
            .filter(|&i| mask & (1 << i) != 0)
            .map(|i| &paths[i])
            .collect();
        for (i, a) in chosen.iter().enumerate() {
            for b in chosen.iter().skip(i + 1) {
                if crate::finite::is_ancestor(a, b) || crate::finite::is_ancestor(b, a) {
                    continue 'subset;
                }
            }
        }
        out.push(chosen.into_iter().cloned().collect());
    }
    Ok(out)
}

/// Bounded check of `y ∈ ncl.P`: every non-total cut-pattern prefix of
/// `y` (up to `max_depth`) has a completion in `property`, searching
/// completions built from `continuations` (plus `y` itself, which
/// extends every prefix of `y`). The inner `Err` returns the stuck
/// prefix pattern as a [`Refutation`].
///
/// With `Some(budget)` the prefix enumeration is metered through
/// [`nontotal_prefixes`] and each completion-and-model-check charges
/// one step (phase `"trees.ncl"`); with `None` nothing is metered.
///
/// # Errors
///
/// The typed errors of [`nontotal_prefixes`] (with or without a
/// budget), plus budget exhaustion and cancellation.
pub fn ncl_contains_bounded(
    y: &RegularTree,
    property: &Ctl,
    max_depth: usize,
    continuations: &[RegularTree],
    width: usize,
    budget: Option<&Budget>,
) -> Result<Result<(), Refutation>, SlError> {
    let mut meter = budget.unwrap_or(&Budget::unlimited()).meter("trees.ncl");
    meter.charge(1)?;
    let y_in_property = y.satisfies(property);
    let patterns = nontotal_patterns(y, max_depth, budget)
        .map_err(|e| e.context("ncl_contains_bounded: enumerating prefixes"))?;
    if y_in_property {
        return Ok(Ok(())); // y itself completes every prefix of y
    }
    for cuts in patterns {
        let prefix = RegularPrefix::cut(y, max_depth, &cuts);
        let mut found = false;
        for cont in continuations {
            meter.charge(1)?;
            if prefix.complete(cont, width).satisfies(property) {
                found = true;
                break;
            }
        }
        if !found {
            return Ok(Err(Refutation {
                depth: max_depth,
                cuts,
            }));
        }
    }
    Ok(Ok(()))
}

/// Absolute refutation of `y ∈ ncl.(A φ)` for a universal path property:
/// exhibits that the given cut pattern yields a non-total prefix of `y`
/// keeping an infinite path that violates `φ`. Every total extension of
/// that prefix inherits the violating path, so no extension lies in
/// `A φ` and `y ∉ ncl.(A φ)` — no bounds involved.
#[must_use]
pub fn ncl_refuted_by_path(
    y: &RegularTree,
    depth: usize,
    cuts: &[Node],
    path_formula: &Ltl,
) -> bool {
    let prefix = RegularPrefix::cut(y, depth, cuts);
    prefix.is_non_total()
        && prefix.is_prefix_of(y)
        && prefix.exists_infinite_path(&path_formula.clone().not())
}

/// The analogous absolute refutation for `fcl`: only *finite-depth*
/// prefixes count, and a finite-depth prefix keeps no infinite path —
/// which is exactly why `fcl`-refutations need the bounded search while
/// `ncl`-refutations can be absolute. Provided for documentation value:
/// always returns `false` on finite-depth patterns.
#[must_use]
pub fn fcl_refuted_by_path(
    y: &RegularTree,
    depth: usize,
    cuts: &[Node],
    path_formula: &Ltl,
) -> bool {
    let prefix = RegularPrefix::cut(y, depth, cuts);
    prefix.is_finite_depth() && prefix.exists_infinite_path(&path_formula.clone().not())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctl::parse_ctl;
    use sl_ltl::parse;
    use sl_omega::{Alphabet, Symbol};

    fn sigma() -> Alphabet {
        Alphabet::ab()
    }

    fn sym(name: &str) -> Symbol {
        sigma().symbol(name).unwrap()
    }

    fn const_a() -> RegularTree {
        RegularTree::constant(sigma(), sym("a"), 1)
    }

    fn const_b() -> RegularTree {
        RegularTree::constant(sigma(), sym("b"), 1)
    }

    /// Root a; left all-a, right all-b (width 2 at the root).
    fn two_branch() -> RegularTree {
        RegularTree::new(
            sigma(),
            vec![sym("a"), sym("a"), sym("b")],
            vec![vec![1, 2], vec![1], vec![2]],
            0,
        )
    }

    #[test]
    fn fcl_trivially_contains_members() {
        let q1 = parse_ctl(&sigma(), "a").unwrap();
        fcl_contains_bounded(&two_branch(), &q1, 2, &[], 1, None)
            .unwrap()
            .unwrap();
    }

    #[test]
    fn fcl_of_q3a_contains_all_a_sequence() {
        // a^ω ∉ q3a (= a & AF !a) but every finite truncation extends
        // with b's into q3a: a^ω ∈ fcl.q3a.
        let q3a = parse_ctl(&sigma(), "a & AF !a").unwrap();
        let y = const_a();
        assert!(!y.satisfies(&q3a));
        fcl_contains_bounded(&y, &q3a, 3, &[const_b()], 1, None)
            .unwrap()
            .unwrap();
    }

    #[test]
    fn fcl_of_q3a_excludes_b_rooted_trees() {
        // Trees rooted at b cannot extend into q3a: the depth-0
        // truncation is already stuck.
        let q3a = parse_ctl(&sigma(), "a & AF !a").unwrap();
        let err = fcl_contains_bounded(&const_b(), &q3a, 2, &[const_a(), const_b()], 1, None)
            .unwrap()
            .unwrap_err();
        assert_eq!(err.depth, 0);
    }

    #[test]
    fn ncl_refutation_via_surviving_all_a_path() {
        // The paper's §4.3 argument: the two-branch tree (one all-a
        // path) is NOT in ncl.q3a, because cutting the other branch
        // leaves a prefix whose surviving path violates F !a — so no
        // extension satisfies A(a & F !a).
        let y = two_branch();
        let phi = parse(&sigma(), "a & F !a").unwrap();
        assert!(ncl_refuted_by_path(&y, 1, &[vec![1]], &phi));
        // The same refutation applies to q4a = A FG !a.
        let fg_not_a = parse(&sigma(), "F G !a").unwrap();
        assert!(ncl_refuted_by_path(&y, 1, &[vec![1]], &fg_not_a));
        // And to q5a = A GF a? The surviving path is all-a, which
        // SATISFIES GF a, so this cut does not refute q5a...
        let gf_a = parse(&sigma(), "G F a").unwrap();
        assert!(!ncl_refuted_by_path(&y, 1, &[vec![1]], &gf_a));
        // ...but cutting the all-a branch leaves the all-b path, which
        // violates GF a.
        assert!(ncl_refuted_by_path(&y, 1, &[vec![0]], &gf_a));
    }

    #[test]
    fn ncl_refutations_report_the_stuck_cut_paths() {
        // On a unary tree at depth 1 the non-total prefixes cut `[]`
        // (the root alone) and `[0]` (the root and its child).
        let y = const_a();
        let prefixes = nontotal_prefixes(&y, 1, None).unwrap();
        assert_eq!(
            nontotal_patterns(&y, 1, None).unwrap(),
            vec![vec![vec![]], vec![vec![0]]]
        );
        // With no continuation, the first prefix is already stuck.
        let b = parse_ctl(&sigma(), "b").unwrap();
        let stuck = ncl_contains_bounded(&y, &b, 1, &[], 1, None)
            .unwrap()
            .unwrap_err();
        assert_eq!(stuck.cuts, vec![Vec::<u32>::new()]);
        assert_eq!(RegularPrefix::cut(&y, 1, &stuck.cuts), prefixes[0]);
        // `b` below the root completes the root-only prefix into `AX b`,
        // but the cut at `[0]` keeps an `a` child.
        let ax_b = parse_ctl(&sigma(), "AX b").unwrap();
        let stuck = ncl_contains_bounded(&y, &ax_b, 1, &[const_b()], 1, None)
            .unwrap()
            .unwrap_err();
        assert_eq!(stuck.cuts, vec![vec![0]]);
        assert_eq!(RegularPrefix::cut(&y, 1, &stuck.cuts), prefixes[1]);
    }

    #[test]
    fn fcl_refutation_by_path_is_impossible_on_truncations() {
        // Finite-depth prefixes keep no infinite path: the path-based
        // refutation cannot fire.
        let y = two_branch();
        let phi = parse(&sigma(), "F G !a").unwrap();
        assert!(!fcl_refuted_by_path(&y, 1, &[vec![0], vec![1]], &phi));
    }

    #[test]
    fn ncl_of_q4b_contains_everything_sampled() {
        // q4b = E FG !a: any prefix completes with b^ω below a cut
        // leaf. Check all cut-pattern prefixes of the two-branch tree.
        let q4b = parse_ctl(&sigma(), "EFG !a").unwrap();
        ncl_contains_bounded(&two_branch(), &q4b, 2, &[const_b()], 1, None)
            .unwrap()
            .unwrap();
        ncl_contains_bounded(&const_a(), &q4b, 2, &[const_b()], 1, None)
            .unwrap()
            .unwrap();
    }

    #[test]
    fn ncl_bounded_finds_stuck_prefixes() {
        // q1' = "root is b": prefixes of an a-rooted tree never
        // complete into it.
        let root_b = parse_ctl(&sigma(), "b").unwrap();
        let err = ncl_contains_bounded(&const_a(), &root_b, 1, &[const_a(), const_b()], 1, None)
            .unwrap()
            .unwrap_err();
        assert_eq!(err.depth, 1);
    }

    #[test]
    fn nontotal_prefix_enumeration_counts() {
        // Unary constant tree, depth 2: paths ε, 0, 00; antichains:
        // {ε}, {0}, {00} (any two are nested): 3 prefixes.
        let prefixes = nontotal_prefixes(&const_a(), 2, None).unwrap();
        assert_eq!(prefixes.len(), 3);
        for p in &prefixes {
            assert!(p.is_non_total());
            assert!(p.is_prefix_of(&const_a()));
        }
        // Two-branch tree, depth 1: paths ε, 0, 1; antichains: {ε},
        // {0}, {1}, {0,1}: 4 prefixes.
        assert_eq!(nontotal_prefixes(&two_branch(), 1, None).unwrap().len(), 4);
    }

    #[test]
    fn budgeted_checks_match_unbudgeted() {
        let q3a = parse_ctl(&sigma(), "a & AF !a").unwrap();
        let y = const_a();
        for budget in [None, Some(&Budget::unlimited())] {
            assert!(fcl_contains_bounded(&y, &q3a, 3, &[const_b()], 1, budget)
                .unwrap()
                .is_ok());
            assert!(ncl_contains_bounded(&y, &q3a, 3, &[const_b()], 1, budget)
                .unwrap()
                .is_ok());
            assert_eq!(nontotal_prefixes(&const_a(), 2, budget).unwrap().len(), 3);
        }
    }

    #[test]
    fn budgeted_checks_respect_step_limits() {
        let q3a = parse_ctl(&sigma(), "a & AF !a").unwrap();
        let y = const_a();
        let tight = Budget::unlimited().with_steps(2);
        let err = fcl_contains_bounded(&y, &q3a, 5, &[const_b(), const_a()], 1, Some(&tight))
            .unwrap_err();
        assert!(err.is_budget_exceeded());
        let err = ncl_contains_bounded(&two_branch(), &q3a, 2, &[const_b()], 1, Some(&tight))
            .unwrap_err();
        assert!(err.root().is_budget_exceeded());
    }

    #[test]
    fn deep_unrolling_is_a_typed_error_with_or_without_a_budget() {
        // Depth 8 on the two-branch tree yields 17 unrolling paths: too
        // many to enumerate subsets of, reported as InvalidInput.
        let q3a = parse_ctl(&sigma(), "a & AF !a").unwrap();
        for budget in [None, Some(&Budget::unlimited())] {
            let err = nontotal_prefixes(&two_branch(), 8, budget).unwrap_err();
            assert!(matches!(err, SlError::InvalidInput(_)), "{err}");
            assert!(err.to_string().contains("lower max_depth"), "{err}");
            let err =
                ncl_contains_bounded(&two_branch(), &q3a, 8, &[const_b()], 1, budget).unwrap_err();
            assert!(matches!(err.root(), SlError::InvalidInput(_)), "{err}");
        }
    }

    #[test]
    fn sequences_are_in_ncl_q3a() {
        // The paper: {a·y : y ∈ Σ^ω} ⊆ ncl.q3a; in particular a^ω,
        // which is not in q3a itself.
        let q3a = parse_ctl(&sigma(), "a & AF !a").unwrap();
        let y = const_a();
        assert!(!y.satisfies(&q3a));
        ncl_contains_bounded(&y, &q3a, 3, &[const_b()], 1, None)
            .unwrap()
            .unwrap();
    }
}
