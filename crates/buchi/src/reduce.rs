//! State-space reduction by direct simulation.
//!
//! Direct simulation for Büchi automata: `q ≤ r` iff (`q` accepting
//! implies `r` accepting) and every `σ`-successor of `q` is simulated by
//! some `σ`-successor of `r`. Quotienting by mutual direct simulation
//! (`q ≤ r ≤ q`) preserves the language, and pruning transitions to
//! simulation-dominated successors preserves it too. Reduction keeps
//! the closure/complement constructions downstream small — which
//! matters, since their costs are exponential in the state count.

use crate::automaton::Buchi;

/// Words per simulation row over `n` states.
pub(crate) fn row_words(n: usize) -> usize {
    n.div_ceil(64)
}

/// The members of a packed bitset, in increasing order.
fn members(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(i, &word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                i * 64 + bit
            })
        })
    })
}

/// The acceptance-consistent complete relation — the top element of
/// the refinement — as `n` flat rows of [`row_words`]`(n)` words:
/// `rows[q] = F_B` for accepting `q`, every state otherwise. Row `q`
/// holds `{ r | q ≤ r }`, member `r` at bit `r % 64` of word `r / 64`;
/// bits past `n` stay clear.
pub(crate) fn top_rows(b: &Buchi) -> Vec<u64> {
    let n = b.num_states();
    let w = row_words(n);
    let mut full = vec![u64::MAX; w];
    if n % 64 != 0 {
        full[w - 1] = (1 << (n % 64)) - 1;
    }
    let mut accepting = vec![0u64; w];
    for q in (0..n).filter(|&q| b.is_accepting(q)) {
        accepting[q / 64] |= 1 << (q % 64);
    }
    let mut rows = Vec::with_capacity(n * w);
    for q in 0..n {
        rows.extend_from_slice(if b.is_accepting(q) { &accepting } else { &full });
    }
    rows
}

/// Refines `rows` (flat, as in [`top_rows`]) in place to the greatest
/// fixpoint of the direct-simulation operator, by a worklist over
/// predecessor bitsets.
///
/// `q ≤ r` needs, for every symbol `s` and every `x ∈ δ(q, s)`, some
/// `s`-successor of `r` in `rows[x]` — that is, `r ∈ pre_s(rows[x])`
/// with `pre_s(X) = ⋃_{y ∈ X} pred_s[y]`. Every state starts queued;
/// popping `x` computes `pre_s(rows[x])` once per symbol, ANDs it into
/// the row of each `s`-predecessor of `x`, and requeues every row that
/// shrank. When the queue empties, each row has been cut against the
/// current row of each of its successors, so the relation is a
/// post-fixpoint.
///
/// The starting relation may be any set between the fixpoint and
/// [`top_rows`]: a cut against a superset of the fixpoint never drops
/// a true pair, so the stable relation is *the* greatest fixpoint,
/// whatever order the queue is drained in. That is what lets
/// [`crate::interned::QuotientCache::advance`] seed the rows with stale
/// verdicts from a previous automaton version and still land on a
/// bit-identical result.
pub(crate) fn refine(b: &Buchi, rows: &mut [u64]) {
    let n = b.num_states();
    let w = row_words(n);
    let k = b.alphabet().len();
    debug_assert_eq!(rows.len(), n * w, "one row per state");
    // pred[(s·n + y)·w ..][..w] = { q | y ∈ δ(q, s) }.
    let mut pred = vec![0u64; k * n * w];
    for q in 0..n {
        for (s, sym) in b.alphabet().symbols().enumerate() {
            for &y in b.successors(q, sym) {
                pred[(s * n + y) * w + q / 64] |= 1 << (q % 64);
            }
        }
    }
    let mut queue: Vec<usize> = (0..n).collect();
    let mut queued = vec![true; n];
    let mut pre = vec![0u64; w];
    while let Some(x) = queue.pop() {
        queued[x] = false;
        for s in 0..k {
            let preds = &pred[(s * n + x) * w..(s * n + x + 1) * w];
            if preds.iter().all(|&word| word == 0) {
                continue;
            }
            pre.fill(0);
            for y in members(&rows[x * w..(x + 1) * w]) {
                let from = &pred[(s * n + y) * w..(s * n + y + 1) * w];
                for (acc, &word) in pre.iter_mut().zip(from) {
                    *acc |= word;
                }
            }
            for q in members(preds) {
                let mut shrank = false;
                for (cell, &keep) in rows[q * w..(q + 1) * w].iter_mut().zip(&pre) {
                    shrank |= *cell & !keep != 0;
                    *cell &= keep;
                }
                if shrank && !queued[q] {
                    queued[q] = true;
                    queue.push(q);
                }
            }
        }
    }
}

/// The greatest-fixpoint simulation as flat rows.
fn simulation(b: &Buchi) -> Vec<u64> {
    let mut rows = top_rows(b);
    refine(b, &mut rows);
    rows
}

/// The direct-simulation preorder as a boolean matrix:
/// `result[q * n + r]` iff `q` is (direct-)simulated by `r`.
///
/// Internally the relation is one flat `u64` row per state, refined by
/// the worklist in [`refine`].
#[must_use]
pub fn direct_simulation(b: &Buchi) -> Vec<bool> {
    let n = b.num_states();
    let w = row_words(n);
    let rows = simulation(b);
    let mut sim = vec![false; n * n];
    for q in 0..n {
        for r in members(&rows[q * w..(q + 1) * w]) {
            sim[q * n + r] = true;
        }
    }
    sim
}

/// Quotients the automaton by mutual direct simulation and prunes
/// transitions whose target is strictly dominated by a sibling target.
/// The result recognizes the same language with at most as many states.
#[must_use]
pub fn reduce(b: &Buchi) -> Buchi {
    quotient(b, &simulation(b))
}

/// The quotient-and-prune half of [`reduce`], over an already-computed
/// greatest-fixpoint simulation in flat rows. Because the fixpoint is
/// unique, any two routes to `rows` — from-scratch refinement or the
/// incremental seeding in [`crate::interned`] — yield bit-identical
/// quotients here. The quotient's CSR rows are written directly.
pub(crate) fn quotient(b: &Buchi, rows: &[u64]) -> Buchi {
    let n = b.num_states();
    let w = row_words(n);
    let le = |q: usize, r: usize| rows[q * w + r / 64] >> (r % 64) & 1 != 0;
    // Representative of each mutual-simulation class: smallest index.
    // `q ≤ q`, so the first member of row `q` that simulates back is at
    // most `q`.
    let rep: Vec<usize> = (0..n)
        .map(|q| {
            members(&rows[q * w..(q + 1) * w])
                .find(|&r| le(r, q))
                .expect("q is equivalent to itself")
        })
        .collect();
    let mut new_id = vec![usize::MAX; n];
    let mut accepting = Vec::new();
    for q in (0..n).filter(|&q| rep[q] == q) {
        new_id[q] = accepting.len();
        accepting.push(b.is_accepting(q));
    }
    let mut offsets = Vec::with_capacity(accepting.len() * b.alphabet().len() + 1);
    offsets.push(0);
    let mut targets = Vec::new();
    let mut row = Vec::new();
    for q in (0..n).filter(|&q| rep[q] == q) {
        for sym in b.alphabet().symbols() {
            // Keep only simulation-maximal successors (by class rep).
            let succs = b.successors(q, sym);
            row.clear();
            row.extend(
                succs
                    .iter()
                    .filter(|&&t| !succs.iter().any(|&u| rep[u] != rep[t] && le(t, u)))
                    .map(|&t| new_id[rep[t]]),
            );
            row.sort_unstable();
            row.dedup();
            targets.extend_from_slice(&row);
            offsets.push(targets.len());
        }
    }
    Buchi::from_rows(
        b.alphabet().clone(),
        accepting,
        offsets,
        targets,
        new_id[rep[b.initial()]],
    )
    .trim_unreachable()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automaton::BuchiBuilder;
    use crate::random::{random_buchi, random_nondeterministic, RandomConfig};
    use sl_lattice::Bitset;
    use sl_omega::{all_lassos, Alphabet};
    use sl_support::SplitMix;

    fn sigma() -> Alphabet {
        Alphabet::ab()
    }

    /// Per-(state, symbol) successor sets, for the reference refinement.
    fn successor_sets(b: &Buchi) -> Vec<Vec<Bitset>> {
        let n = b.num_states();
        (0..n)
            .map(|q| {
                b.alphabet()
                    .symbols()
                    .map(|sym| Bitset::from_indices(n, b.successors(q, sym)))
                    .collect()
            })
            .collect()
    }

    /// The acceptance-consistent top as one [`Bitset`] per state,
    /// built independently of [`top_rows`].
    fn initial_rows(b: &Buchi) -> Vec<Bitset> {
        let n = b.num_states();
        let accepting: Vec<usize> = (0..n).filter(|&q| b.is_accepting(q)).collect();
        (0..n)
            .map(|q| {
                if b.is_accepting(q) {
                    Bitset::from_indices(n, &accepting)
                } else {
                    Bitset::full(n)
                }
            })
            .collect()
    }

    /// The reference refinement: full passes over every pair until a
    /// pass drops nothing. This was the production loop before the
    /// worklist; it stays here as the independent oracle for [`refine`].
    fn refine_rows(succ: &[Vec<Bitset>], rows: &mut [Bitset]) {
        let n = rows.len();
        let nsyms = if n == 0 { 0 } else { succ[0].len() };
        loop {
            let mut changed = false;
            for q in 0..n {
                let dropped: Vec<usize> = rows[q]
                    .iter()
                    .filter(|&r| {
                        !(0..nsyms)
                            .all(|s| succ[q][s].iter().all(|qs| rows[qs].intersects(&succ[r][s])))
                    })
                    .collect();
                for r in dropped {
                    rows[q].remove(r);
                    changed = true;
                }
            }
            if !changed {
                return;
            }
        }
    }

    fn to_bitsets(n: usize, rows: &[u64]) -> Vec<Bitset> {
        let w = row_words(n);
        (0..n)
            .map(|q| Bitset::from_words(n, rows[q * w..(q + 1) * w].to_vec()))
            .collect()
    }

    fn to_flat(rows: &[Bitset]) -> Vec<u64> {
        rows.iter().flat_map(|row| row.words().to_vec()).collect()
    }

    #[test]
    fn worklist_matches_the_pass_based_reference() {
        let alphabets = [
            Alphabet::new(&["a"]),
            Alphabet::ab(),
            Alphabet::new(&["a", "b", "c"]),
        ];
        let mut rng = SplitMix::new(0x5151);
        let mut cases = 0;
        for alphabet in &alphabets {
            // 63/64/65 and 130 states put row boundaries inside, at and
            // past a word; no benchmark quotient is that large.
            for states in [1usize, 63, 64, 65, 130] {
                for (density, accepting) in [(70, 40), (100, 30), (180, 50), (240, 20)] {
                    let seed = rng.next_u64();
                    let b = random_nondeterministic(alphabet, seed, states, density, accepting);
                    let n = b.num_states();
                    let top = top_rows(&b);
                    let mut reference = initial_rows(&b);
                    assert_eq!(to_bitsets(n, &top), reference, "seed {seed:#x}: top");
                    refine_rows(&successor_sets(&b), &mut reference);
                    let fixpoint = simulation(&b);
                    assert_eq!(
                        to_bitsets(n, &fixpoint),
                        reference,
                        "seed {seed:#x}, {states} states, |Σ| = {}, density {density}%",
                        alphabet.len()
                    );
                    // Any start between the fixpoint and top: keep each
                    // pair the fixpoint rejects with probability 1/2.
                    let fixpoint_flat = to_flat(&reference);
                    let mut start: Vec<u64> = top
                        .iter()
                        .zip(&fixpoint_flat)
                        .map(|(&t, &f)| f | (t & !f & rng.next_u64()))
                        .collect();
                    refine(&b, &mut start);
                    assert_eq!(
                        start, fixpoint_flat,
                        "seed {seed:#x}: a start between fixpoint and top drifted"
                    );
                    cases += 1;
                }
            }
        }
        assert_eq!(cases, 60);
    }

    #[test]
    fn simulation_is_reflexive_and_respects_acceptance() {
        let s = sigma();
        let m = random_buchi(&s, 3, RandomConfig::default());
        let n = m.num_states();
        let sim = direct_simulation(&m);
        for q in 0..n {
            assert!(sim[q * n + q], "reflexivity at {q}");
            for r in 0..n {
                if sim[q * n + r] && m.is_accepting(q) {
                    assert!(m.is_accepting(r));
                }
            }
        }
    }

    #[test]
    fn simulation_is_transitive() {
        let s = sigma();
        for seed in 0..10 {
            let m = random_buchi(&s, seed, RandomConfig::default());
            let n = m.num_states();
            let sim = direct_simulation(&m);
            for a in 0..n {
                for b in 0..n {
                    for c in 0..n {
                        if sim[a * n + b] && sim[b * n + c] {
                            assert!(sim[a * n + c], "seed {seed}: {a} <= {b} <= {c}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn duplicate_states_collapse() {
        // Two identical accepting states looping on a.
        let s = sigma();
        let a = s.symbol("a").unwrap();
        let mut b = BuchiBuilder::new(s.clone());
        let q0 = b.add_state(false);
        let q1 = b.add_state(true);
        let q2 = b.add_state(true);
        b.add_transition(q0, a, q1);
        b.add_transition(q0, a, q2);
        b.add_transition(q1, a, q1);
        b.add_transition(q2, a, q2);
        let m = b.build(q0);
        let r = reduce(&m);
        assert!(r.num_states() < m.num_states());
        for w in all_lassos(&s, 2, 2) {
            assert_eq!(m.accepts(&w), r.accepts(&w), "{w}");
        }
    }

    #[test]
    fn reduction_preserves_language_on_random_corpus() {
        let s = sigma();
        for seed in 0..60 {
            let m = random_buchi(
                &s,
                seed,
                RandomConfig {
                    states: 6,
                    density_percent: 70,
                    accepting_percent: 40,
                },
            );
            let r = reduce(&m);
            assert!(r.num_states() <= m.num_states());
            for w in all_lassos(&s, 2, 3) {
                assert_eq!(m.accepts(&w), r.accepts(&w), "seed {seed} on {w}");
            }
        }
    }

    #[test]
    fn reduction_is_idempotent_on_language() {
        let s = sigma();
        let m = random_buchi(&s, 11, RandomConfig::default());
        let r1 = reduce(&m);
        let r2 = reduce(&r1);
        assert!(r2.num_states() <= r1.num_states());
        for w in all_lassos(&s, 2, 2) {
            assert_eq!(r1.accepts(&w), r2.accepts(&w));
        }
    }

    #[test]
    fn universal_reduces_to_one_state() {
        let s = sigma();
        let a = s.symbol("a").unwrap();
        let b_sym = s.symbol("b").unwrap();
        // A bloated universal automaton.
        let mut b = BuchiBuilder::new(s.clone());
        let q0 = b.add_state(true);
        let q1 = b.add_state(true);
        for sym in [a, b_sym] {
            b.add_transition(q0, sym, q1);
            b.add_transition(q1, sym, q0);
            b.add_transition(q0, sym, q0);
            b.add_transition(q1, sym, q1);
        }
        let m = b.build(q0);
        let r = reduce(&m);
        assert_eq!(r.num_states(), 1);
    }
}
