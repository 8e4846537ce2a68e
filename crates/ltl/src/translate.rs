//! Tableau translation from LTL to Büchi automata.
//!
//! The construction is the classic obligation-set tableau: an automaton
//! state is the set of formulas that must hold of the remaining word,
//! plus a record of which until-promises the incoming transition
//! fulfilled. Reading a symbol expands every obligation by the expansion
//! laws
//!
//! ```text
//! p U q  =  q ∨ (p ∧ X(p U q))        (q-branch fulfills the promise)
//! p R q  =  q ∧ (p ∨ X(p R q))
//! ```
//!
//! and acceptance requires every until either absent or fulfilled
//! infinitely often — a generalized Büchi condition, degeneralized with
//! the standard round-robin counter.
//!
//! The output is trimmed and reduced by direct simulation
//! ([`sl_buchi::reduce()`]), then cross-checked against the direct
//! lasso-word semantics of [`crate::eval()`] by the test suite — the kind
//! of ground-truth redundancy the rest of the workspace leans on.

use crate::ast::Ltl;
use crate::nnf::nnf;
use sl_buchi::{Buchi, BuchiBuilder};
use sl_omega::{Alphabet, Symbol};
use sl_support::{Budget, SlError};
use std::collections::{BTreeSet, HashMap};

/// An obligation set plus the promises fulfilled on entry.
type TableauNode = (BTreeSet<Ltl>, u64);

/// Translates an LTL formula into a Büchi automaton with the same
/// language: [`translate_with_budget`] with `budget: None`, for callers
/// that want a bare automaton.
///
/// # Panics
///
/// Panics where [`translate_with_budget`] returns an error: if the
/// formula has more than 64 until-subformulas (promise masks are
/// `u64`).
///
/// # Examples
///
/// ```
/// use sl_ltl::{parse, translate};
/// use sl_omega::{Alphabet, LassoWord};
///
/// let sigma = Alphabet::ab();
/// let automaton = translate(&sigma, &parse(&sigma, "G F a")?);
/// assert!(automaton.accepts(&LassoWord::parse(&sigma, "b", "a b")));
/// assert!(!automaton.accepts(&LassoWord::parse(&sigma, "a a", "b")));
/// # Ok::<(), sl_ltl::ParseError>(())
/// ```
#[must_use]
pub fn translate(alphabet: &Alphabet, formula: &Ltl) -> Buchi {
    translate_with_budget(alphabet, formula, None).unwrap_or_else(|err| panic!("{err}"))
}

/// Translates an LTL formula into a Büchi automaton with the same
/// language. The formula is converted to negation normal form first.
///
/// With `Some(budget)` every tableau node charges one step against the
/// budget's meter (phase `"ltl.translate"`). The tableau is worst-case
/// exponential in the formula, so adversarial or machine-generated
/// formulas should come with a deadline. With `None` nothing is
/// metered.
///
/// # Errors
///
/// * [`SlError::BudgetExceeded`] / [`SlError::Cancelled`] from the
///   budget;
/// * [`SlError::InvalidInput`] if the formula has more than 64
///   until-subformulas (promise masks are `u64`), with or without a
///   budget.
pub fn translate_with_budget(
    alphabet: &Alphabet,
    formula: &Ltl,
    budget: Option<&Budget>,
) -> Result<Buchi, SlError> {
    let mut meter = budget
        .unwrap_or(&Budget::unlimited())
        .meter("ltl.translate");
    let normalized = nnf(formula);
    // Identify the until-subformulas: each carries a promise bit.
    let untils: Vec<Ltl> = normalized
        .subformulas()
        .into_iter()
        .filter(|f| matches!(f, Ltl::Until(_, _)))
        .cloned()
        .collect();
    if untils.len() > 64 {
        return Err(SlError::InvalidInput(format!(
            "too many until subformulas: {} (promise masks are u64)",
            untils.len()
        )));
    }
    let promise_of: HashMap<Ltl, u64> = untils
        .iter()
        .enumerate()
        .map(|(i, f)| (f.clone(), 1u64 << i))
        .collect();
    let k = untils.len();

    // Generalized tableau states, explored lazily.
    let mut ids: HashMap<TableauNode, usize> = HashMap::new();
    let mut transitions: Vec<Vec<(Symbol, usize)>> = Vec::new();
    let mut nodes: Vec<TableauNode> = Vec::new();

    let mut initial_set = BTreeSet::new();
    initial_set.insert(normalized.clone());
    let start: TableauNode = (initial_set, 0);
    meter.charge(1)?;
    ids.insert(start.clone(), 0);
    nodes.push(start.clone());
    transitions.push(Vec::new());
    let mut work = vec![start];

    while let Some(node) = work.pop() {
        let from = ids[&node];
        for sym in alphabet.symbols() {
            // Expand the conjunction of all obligations.
            let mut alternatives: Vec<(BTreeSet<Ltl>, u64)> = vec![(BTreeSet::new(), 0)];
            for obligation in &node.0 {
                let expansions = expand(obligation, sym, &promise_of);
                let mut combined = Vec::new();
                for (next, fulfilled) in &alternatives {
                    for (ob2, f2) in &expansions {
                        let mut merged = next.clone();
                        merged.extend(ob2.iter().cloned());
                        combined.push((merged, fulfilled | f2));
                    }
                }
                alternatives = combined;
                if alternatives.is_empty() {
                    break;
                }
            }
            alternatives.sort();
            alternatives.dedup();
            for target in alternatives {
                let to = match ids.get(&target) {
                    Some(&id) => id,
                    None => {
                        meter.charge(1)?;
                        let id = nodes.len();
                        ids.insert(target.clone(), id);
                        nodes.push(target.clone());
                        transitions.push(Vec::new());
                        work.push(target);
                        id
                    }
                };
                transitions[from].push((sym, to));
            }
        }
    }

    // Degeneralize: NBA states are (tableau node, counter in 0..k).
    // With no untils, every state is accepting.
    let mut builder = BuchiBuilder::new(alphabet.clone());
    let in_set = |node: &TableauNode, i: usize| -> bool {
        let bit = 1u64 << i;
        node.1 & bit != 0 || !node.0.contains(&untils[i])
    };
    if k == 0 {
        for _ in 0..nodes.len() {
            builder.add_state(true);
        }
        for (from, outs) in transitions.iter().enumerate() {
            for &(sym, to) in outs {
                builder.add_transition(from, sym, to);
            }
        }
        return Ok(sl_buchi::reduce(&builder.build(0).trim_unreachable()));
    }
    // State id = node * k + counter.
    for node in &nodes {
        for counter in 0..k {
            let accepting = counter == 0 && in_set(node, 0);
            builder.add_state(accepting);
            let _ = node;
        }
    }
    for (from, outs) in transitions.iter().enumerate() {
        for counter in 0..k {
            let next_counter = if in_set(&nodes[from], counter) {
                (counter + 1) % k
            } else {
                counter
            };
            for &(sym, to) in outs {
                builder.add_transition(from * k + counter, sym, to * k + next_counter);
            }
        }
    }
    Ok(sl_buchi::reduce(&builder.build(0).trim_unreachable()))
}

/// Expands one NNF formula on one symbol into the disjunction of
/// (next-step obligations, fulfilled promises).
fn expand(f: &Ltl, sym: Symbol, promise_of: &HashMap<Ltl, u64>) -> Vec<(BTreeSet<Ltl>, u64)> {
    match f {
        Ltl::True => vec![(BTreeSet::new(), 0)],
        Ltl::False => Vec::new(),
        Ltl::Ap(a) => {
            if *a == sym {
                vec![(BTreeSet::new(), 0)]
            } else {
                Vec::new()
            }
        }
        Ltl::Not(inner) => match &**inner {
            Ltl::Ap(a) => {
                if *a != sym {
                    vec![(BTreeSet::new(), 0)]
                } else {
                    Vec::new()
                }
            }
            other => unreachable!("formula not in NNF: !({other})"),
        },
        Ltl::And(l, r) => {
            let left = expand(l, sym, promise_of);
            let right = expand(r, sym, promise_of);
            let mut out = Vec::new();
            for (ol, fl) in &left {
                for (or, fr) in &right {
                    let mut merged = ol.clone();
                    merged.extend(or.iter().cloned());
                    out.push((merged, fl | fr));
                }
            }
            out
        }
        Ltl::Or(l, r) => {
            let mut out = expand(l, sym, promise_of);
            out.extend(expand(r, sym, promise_of));
            out
        }
        Ltl::Next(p) => {
            let mut obligations = BTreeSet::new();
            obligations.insert((**p).clone());
            vec![(obligations, 0)]
        }
        Ltl::Until(l, r) => {
            let promise = promise_of[f];
            // q-branch: fulfill the promise now.
            let mut out: Vec<(BTreeSet<Ltl>, u64)> = expand(r, sym, promise_of)
                .into_iter()
                .map(|(ob, fl)| (ob, fl | promise))
                .collect();
            // p-branch: hold p now, re-assert the until next step.
            for (mut ob, fl) in expand(l, sym, promise_of) {
                ob.insert(f.clone());
                out.push((ob, fl));
            }
            out
        }
        Ltl::Release(l, r) => {
            // r must hold now; either l releases now, or the release
            // carries to the next step.
            let right = expand(r, sym, promise_of);
            let left = expand(l, sym, promise_of);
            let mut out = Vec::new();
            for (or, fr) in &right {
                for (ol, fl) in &left {
                    let mut merged = or.clone();
                    merged.extend(ol.iter().cloned());
                    out.push((merged, fr | fl));
                }
                let mut carried = or.clone();
                carried.insert(f.clone());
                out.push((carried, *fr));
            }
            out
        }
        Ltl::Implies(_, _) | Ltl::Finally(_) | Ltl::Globally(_) => {
            unreachable!("formula not in NNF: {f}")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval;
    use crate::parse::parse;
    use sl_omega::{all_lassos, LassoWord};

    fn ab() -> Alphabet {
        Alphabet::ab()
    }

    /// Exhaustive agreement between the automaton and the evaluator on
    /// all small lassos.
    fn check_agreement(text: &str, max_stem: usize, max_cycle: usize) {
        let s = ab();
        let f = parse(&s, text).unwrap();
        let m = translate(&s, &f);
        for w in all_lassos(&s, max_stem, max_cycle) {
            assert_eq!(
                m.accepts(&w),
                eval(&f, &w),
                "{text} (automaton has {} states) on {w}",
                m.num_states()
            );
        }
    }

    #[test]
    fn atoms_and_boolean() {
        check_agreement("a", 2, 2);
        check_agreement("!a", 2, 2);
        check_agreement("a & X b", 2, 2);
        check_agreement("a | X b", 2, 2);
        check_agreement("true", 2, 2);
        check_agreement("false", 2, 2);
    }

    #[test]
    fn rem_examples() {
        check_agreement("a & F !a", 3, 3); // p3
        check_agreement("F G !a", 3, 3); // p4
        check_agreement("G F a", 3, 3); // p5
    }

    #[test]
    fn untils_and_releases() {
        check_agreement("a U b", 3, 3);
        check_agreement("b R a", 3, 3);
        check_agreement("a U (b U a)", 2, 3);
        check_agreement("(a U b) R a", 2, 3);
    }

    #[test]
    fn nested_temporal() {
        check_agreement("G (a -> F b)", 2, 3);
        check_agreement("F (a & X a)", 2, 3);
        check_agreement("G (a -> X b)", 2, 3);
        check_agreement("(F a) & (F b)", 2, 3);
        check_agreement("(G a) | (G b)", 2, 3);
    }

    #[test]
    fn implication_and_iff() {
        check_agreement("a -> F b", 2, 3);
        check_agreement("a <-> X a", 2, 3);
    }

    #[test]
    fn weak_until() {
        check_agreement("a W b", 3, 3);
        check_agreement("b W a", 3, 3);
    }

    #[test]
    fn translated_gfa_is_small() {
        let s = ab();
        let m = translate(&s, &parse(&s, "G F a").unwrap());
        // Tableau + degeneralization should stay in single digits here.
        assert!(m.num_states() <= 8, "got {}", m.num_states());
    }

    #[test]
    fn empty_formula_empty_language() {
        let s = ab();
        let m = translate(&s, &Ltl::False);
        assert!(sl_buchi::is_empty(&m));
        let m = translate(&s, &Ltl::True);
        for w in all_lassos(&s, 2, 2) {
            assert!(m.accepts(&w));
        }
    }

    #[test]
    fn negated_formulas_complement_on_samples() {
        let s = ab();
        for text in ["a U b", "G F a", "a & F !a"] {
            let f = parse(&s, text).unwrap();
            let m = translate(&s, &f);
            let mn = translate(&s, &f.clone().not());
            for w in all_lassos(&s, 2, 3) {
                assert_ne!(m.accepts(&w), mn.accepts(&w), "{text} on {w}");
            }
        }
    }

    #[test]
    fn budgeted_translate_matches_unbudgeted() {
        let s = ab();
        let f = parse(&s, "G (a -> F b)").unwrap();
        let m = translate_with_budget(&s, &f, Some(&Budget::unlimited())).unwrap();
        assert_eq!(m, translate_with_budget(&s, &f, None).unwrap());
        assert_eq!(m, translate(&s, &f));
    }

    #[test]
    fn budgeted_translate_stops_on_step_limit() {
        let s = ab();
        let f = parse(&s, "G (a -> F b)").unwrap();
        let err =
            translate_with_budget(&s, &f, Some(&Budget::unlimited().with_steps(1))).unwrap_err();
        assert!(err.is_budget_exceeded());
        assert_eq!(err.spent(), Some(2), "second tableau node breaks the limit");
    }

    #[test]
    fn specific_word_checks() {
        let s = ab();
        let m = translate(&s, &parse(&s, "a U b").unwrap());
        assert!(m.accepts(&LassoWord::parse(&s, "a a b", "a")));
        assert!(!m.accepts(&LassoWord::parse(&s, "", "a")));
    }
}
