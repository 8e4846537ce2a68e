//! The powerset instantiation: LT-PDR over Bitset lattices of
//! Kripke-structure states.
//!
//! `AG !bad` on a finite [`Kripke`] structure is exactly the engine's
//! `lfp (init \/ post) <= safe` question on the Boolean algebra
//! `2^{states}`: `init` is the singleton initial state, atoms are
//! singletons (lowest index first, for deterministic transcripts), and
//! `safe` is the complement of the bad set.
//!
//! `post` and `pre` are the forward and reverse views of one compressed
//! edge relation, built once per [`check_safety`] call: row offsets
//! plus `u32` targets, and the transpose built from the same rows. Both
//! views compute images by walking the set bits of each word of their
//! argument. Each also answers the engine's containment question
//! `post(x) <= y` without allocating and with early exit, from the
//! smaller side: it scans the images of `x` when `|x| <= |!y|`, and
//! otherwise the preimages of `!y` under the same edges. Both scans
//! look for one edge from `x` into `!y`, so both return exactly
//! `leq(close(x), y)`.
//!
//! Verdict certificates are translated to concrete form — a state
//! invariant or a state trace — and replayed against the structure by
//! the validators below, which deliberately use plain successor-list
//! iteration rather than the engine's lattice ops or the edge relation.

use crate::engine::{lt_pdr, PdrOutcome, PdrProblem, PdrStats};
use sl_lattice::traits::LatticeClosure;
use sl_lattice::{Bitset, BitsetAlgebra};
use sl_support::{Budget, SlError};
use sl_trees::Kripke;

/// The verdict of a safety (`AG !bad`) check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SafetyVerdict {
    /// No bad state is reachable; the invariant contains the initial
    /// state, is closed under successors, and avoids every bad state.
    Safe {
        /// The inductive invariant, as a set of states.
        invariant: Bitset,
    },
    /// A bad state is reachable along this concrete trace (initial
    /// state first, bad state last, consecutive states are edges).
    Unsafe {
        /// The witness trace.
        trace: Vec<usize>,
    },
}

/// A safety verdict plus the engine counters that produced it.
#[derive(Debug, Clone)]
pub struct SafetyRun {
    /// The validated verdict.
    pub verdict: SafetyVerdict,
    /// Engine counters.
    pub stats: PdrStats,
}

/// Adjacency rows in compressed form: row `s` is
/// `targets[offsets[s]..offsets[s + 1]]`.
#[derive(Debug)]
struct Rows {
    offsets: Vec<u32>,
    targets: Vec<u32>,
}

impl Rows {
    fn row(&self, s: usize) -> &[u32] {
        &self.targets[self.offsets[s] as usize..self.offsets[s + 1] as usize]
    }

    /// The same edges reversed, by a counting pass over the targets.
    fn transpose(&self) -> Rows {
        let n = self.offsets.len() - 1;
        let mut offsets = vec![0u32; n + 1];
        for &t in &self.targets {
            offsets[t as usize + 1] += 1;
        }
        for s in 0..n {
            offsets[s + 1] += offsets[s];
        }
        let mut cursor = offsets.clone();
        let mut targets = vec![0u32; self.targets.len()];
        for s in 0..n {
            for &t in self.row(s) {
                targets[cursor[t as usize] as usize] = s as u32;
                cursor[t as usize] += 1;
            }
        }
        Rows { offsets, targets }
    }
}

/// A structure's edges in both directions.
#[derive(Debug)]
struct EdgeRelation {
    forward: Rows,
    reverse: Rows,
}

impl EdgeRelation {
    /// The relation over `{0..universe}` whose successors of `s` are
    /// `row(s)`; duplicate targets and empty rows are allowed.
    fn new<'a>(universe: usize, row: impl Fn(usize) -> &'a [usize]) -> Self {
        let index = |i: usize| u32::try_from(i).expect("edge relation exceeds u32 indices");
        let mut offsets = Vec::with_capacity(universe + 1);
        let mut targets = Vec::new();
        offsets.push(0);
        for s in 0..universe {
            targets.extend(row(s).iter().map(|&t| {
                assert!(t < universe, "edge target out of range");
                index(t)
            }));
            offsets.push(index(targets.len()));
        }
        let forward = Rows { offsets, targets };
        let reverse = forward.transpose();
        EdgeRelation { forward, reverse }
    }

    /// The successor image, as the engine's `post` hook.
    fn post(&self) -> EdgeView<'_> {
        EdgeView {
            out: &self.forward,
            into: &self.reverse,
        }
    }

    /// The predecessor image, as the engine's `pre` hook.
    fn pre(&self) -> EdgeView<'_> {
        EdgeView {
            out: &self.reverse,
            into: &self.forward,
        }
    }
}

/// One direction of an [`EdgeRelation`]: `close` follows `out`, and
/// `into` holds the same edges reversed.
#[derive(Debug)]
struct EdgeView<'a> {
    out: &'a Rows,
    into: &'a Rows,
}

/// Whether `hit` holds for some member of the set whose words are
/// `words`, tried in increasing order up to the first hit.
fn any_member(words: impl Iterator<Item = u64>, mut hit: impl FnMut(usize) -> bool) -> bool {
    for (w, word) in words.enumerate() {
        let mut rest = word;
        while rest != 0 {
            if hit(w * 64 + rest.trailing_zeros() as usize) {
                return true;
            }
            rest &= rest - 1;
        }
    }
    false
}

fn has(words: &[u64], i: usize) -> bool {
    words[i / 64] >> (i % 64) & 1 != 0
}

/// The last word's bits inside a universe of `universe` states.
fn tail_mask(universe: usize) -> u64 {
    match universe % 64 {
        0 => u64::MAX,
        r => (1u64 << r) - 1,
    }
}

impl LatticeClosure<BitsetAlgebra> for EdgeView<'_> {
    fn close(&self, _lattice: &BitsetAlgebra, x: &Bitset) -> Bitset {
        let mut words = vec![0u64; x.words().len()];
        any_member(x.words().iter().copied(), |s| {
            for &t in self.out.row(s) {
                words[t as usize / 64] |= 1u64 << (t % 64);
            }
            false
        });
        Bitset::from_words(x.universe(), words)
    }

    fn close_below(&self, _lattice: &BitsetAlgebra, x: &Bitset, y: &Bitset) -> bool {
        let universe = x.universe();
        assert_eq!(universe, y.universe(), "universe mismatch");
        let (xw, yw) = (x.words(), y.words());
        if x.len() <= universe - y.len() {
            // Some image of `x` outside `y`?
            return !any_member(xw.iter().copied(), |s| {
                self.out.row(s).iter().any(|&t| !has(yw, t as usize))
            });
        }
        // Some preimage of `!y` inside `x`?
        let last = yw.len().saturating_sub(1);
        let missing = yw.iter().enumerate().map(|(w, &word)| {
            if w == last {
                !word & tail_mask(universe)
            } else {
                !word
            }
        });
        !any_member(missing, |t| {
            self.into.row(t).iter().any(|&s| has(xw, s as usize))
        })
    }
}

/// The lowest-index singleton below `x`.
fn lowest_atom(_lattice: &BitsetAlgebra, x: &Bitset) -> Option<Bitset> {
    x.iter()
        .next()
        .map(|i| Bitset::from_indices(x.universe(), &[i]))
}

/// Decides `AG !bad` by LT-PDR on the powerset lattice of states.
///
/// The returned certificate is machine-checked twice: once inside the
/// engine (lattice-level) and once here by explicit replay
/// ([`validate_safety_invariant`] / [`validate_trace`]).
///
/// # Errors
///
/// Budget exhaustion and cancellation propagate as typed [`SlError`]s.
///
/// # Panics
///
/// Panics if a bad index is out of range (callers validate input), or
/// if replay validation fails (an engine bug).
pub fn check_safety(kripke: &Kripke, bad: &[usize], budget: &Budget) -> Result<SafetyRun, SlError> {
    let n = kripke.len();
    for &b in bad {
        assert!(b < n, "bad state out of range");
    }
    let algebra = BitsetAlgebra::new(n);
    let edges = EdgeRelation::new(n, |s| kripke.successors(s));
    let problem = PdrProblem {
        lattice: &algebra,
        init: Bitset::from_indices(n, &[kripke.initial()]),
        safe: Bitset::from_indices(n, bad).complement(),
        post: edges.post(),
        pre: edges.pre(),
        atoms: lowest_atom,
    };
    let run = lt_pdr(&problem, budget)?;
    let verdict = match run.outcome {
        PdrOutcome::Safe { invariant } => SafetyVerdict::Safe { invariant },
        PdrOutcome::Unsafe { chain } => SafetyVerdict::Unsafe {
            trace: chain
                .iter()
                .map(|c| c.iter().next().expect("chain atoms are nonempty"))
                .collect(),
        },
    };
    let replay = match &verdict {
        SafetyVerdict::Safe { invariant } => validate_safety_invariant(kripke, bad, invariant),
        SafetyVerdict::Unsafe { trace } => validate_trace(kripke, bad, trace),
    };
    if !crate::engine::sabotage::relative_induction_broken() {
        assert!(
            replay.is_ok(),
            "PDR certificate failed concrete replay: {}",
            replay.unwrap_err()
        );
    }
    Ok(SafetyRun {
        verdict,
        stats: run.stats,
    })
}

/// Replays a Safe certificate: the invariant must contain the initial
/// state, be closed under every edge, and avoid every bad state.
///
/// # Errors
///
/// Names the first violation.
pub fn validate_safety_invariant(
    kripke: &Kripke,
    bad: &[usize],
    invariant: &Bitset,
) -> Result<(), String> {
    if invariant.universe() != kripke.len() {
        return Err("invariant universe mismatch".into());
    }
    if !invariant.contains(kripke.initial()) {
        return Err("invariant misses the initial state".into());
    }
    for s in invariant.iter() {
        for &t in kripke.successors(s) {
            if !invariant.contains(t) {
                return Err(format!("invariant not closed under edge {s} -> {t}"));
            }
        }
    }
    for &b in bad {
        if b < kripke.len() && invariant.contains(b) {
            return Err(format!("invariant contains bad state {b}"));
        }
    }
    Ok(())
}

/// Replays an Unsafe certificate: the trace must start at the initial
/// state, follow edges, and end in a bad state.
///
/// # Errors
///
/// Names the first violation.
pub fn validate_trace(kripke: &Kripke, bad: &[usize], trace: &[usize]) -> Result<(), String> {
    let Some(&first) = trace.first() else {
        return Err("empty trace".into());
    };
    if first != kripke.initial() {
        return Err(format!("trace starts at {first}, not the initial state"));
    }
    for window in trace.windows(2) {
        if window[0] >= kripke.len() || !kripke.successors(window[0]).contains(&window[1]) {
            return Err(format!("no edge {} -> {}", window[0], window[1]));
        }
    }
    let last = *trace.last().expect("nonempty");
    if !bad.contains(&last) {
        return Err(format!("trace ends at {last}, which is not bad"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sl_omega::Alphabet;
    use sl_support::SplitMix;
    use sl_trees::counter_product;

    /// Chain 0 -> 1 -> 2 -> 2 with a fenced component 3 -> 3.
    fn fenced() -> Kripke {
        let sigma = Alphabet::ab();
        let a = sigma.symbol("a").unwrap();
        let b = sigma.symbol("b").unwrap();
        Kripke::new(
            sigma,
            vec![a, a, a, b],
            vec![vec![1], vec![2], vec![2], vec![3]],
            0,
        )
    }

    #[test]
    fn unreachable_bad_is_safe() {
        let k = fenced();
        let run = check_safety(&k, &[3], &Budget::unlimited()).unwrap();
        match run.verdict {
            SafetyVerdict::Safe { invariant } => {
                validate_safety_invariant(&k, &[3], &invariant).unwrap();
            }
            SafetyVerdict::Unsafe { .. } => panic!("state 3 is unreachable"),
        }
    }

    #[test]
    fn reachable_bad_yields_a_shortest_style_trace() {
        let k = fenced();
        let run = check_safety(&k, &[2], &Budget::unlimited()).unwrap();
        match run.verdict {
            SafetyVerdict::Unsafe { trace } => {
                validate_trace(&k, &[2], &trace).unwrap();
                assert_eq!(trace, vec![0, 1, 2]);
            }
            SafetyVerdict::Safe { .. } => panic!("state 2 is reachable"),
        }
    }

    #[test]
    fn bad_initial_state() {
        let k = fenced();
        let run = check_safety(&k, &[0, 3], &Budget::unlimited()).unwrap();
        match run.verdict {
            SafetyVerdict::Unsafe { trace } => assert_eq!(trace, vec![0]),
            SafetyVerdict::Safe { .. } => panic!("initial state is bad"),
        }
    }

    #[test]
    fn no_bad_states_is_trivially_safe() {
        let k = fenced();
        let run = check_safety(&k, &[], &Budget::unlimited()).unwrap();
        assert!(matches!(run.verdict, SafetyVerdict::Safe { .. }));
    }

    #[test]
    fn budget_exhaustion_is_typed() {
        let k = fenced();
        let err = check_safety(&k, &[2], &Budget::unlimited().with_steps(1)).unwrap_err();
        assert!(err.is_budget_exceeded(), "{err}");
    }

    /// A random relation over `{0..n}`: out-degree 0–3, with a self-loop
    /// or a repeated target one row in four each.
    fn random_rows(rng: &mut SplitMix, n: usize) -> Vec<Vec<usize>> {
        (0..n)
            .map(|s| {
                let mut row: Vec<usize> = (0..rng.below(4)).map(|_| rng.below(n)).collect();
                if rng.chance(25) {
                    row.push(s);
                }
                if rng.chance(25) && !row.is_empty() {
                    row.push(row[0]);
                }
                row
            })
            .collect()
    }

    /// The image of `x` under `rows`, by per-bit inserts.
    fn naive_image(rows: &[Vec<usize>], x: &Bitset) -> Bitset {
        let mut out = Bitset::empty(x.universe());
        for s in x.iter() {
            for &t in &rows[s] {
                out.insert(t);
            }
        }
        out
    }

    /// `rows` reversed.
    fn naive_transpose(rows: &[Vec<usize>]) -> Vec<Vec<usize>> {
        let mut pred = vec![Vec::new(); rows.len()];
        for (s, row) in rows.iter().enumerate() {
            for &t in row {
                pred[t].push(s);
            }
        }
        pred
    }

    fn random_set(rng: &mut SplitMix, n: usize, percent: u32) -> Bitset {
        let members: Vec<usize> = (0..n).filter(|_| rng.chance(percent)).collect();
        Bitset::from_indices(n, &members)
    }

    #[test]
    fn edge_kernels_equal_the_naive_images() {
        let mut rng = SplitMix::new(0x65_6467_6573);
        // [forward scan, reverse scan] x [false, true] answers seen.
        let mut seen = [[0usize; 2]; 2];
        for n in [1, 63, 64, 65, 130, 300] {
            let algebra = BitsetAlgebra::new(n);
            for _ in 0..6 {
                let rows = random_rows(&mut rng, n);
                let pred = naive_transpose(&rows);
                let edges = EdgeRelation::new(n, |s| &rows[s]);
                let mut sets = vec![Bitset::empty(n), Bitset::full(n)];
                for _ in 0..3 {
                    sets.push(Bitset::from_indices(n, &[rng.below(n)]));
                }
                for percent in [3, 50, 97] {
                    sets.push(random_set(&mut rng, n, percent));
                }
                for (view, naive) in [(edges.post(), &rows), (edges.pre(), &pred)] {
                    for x in &sets {
                        let image = naive_image(naive, x);
                        assert_eq!(view.close(&algebra, x), image, "n {n} x {x:?}");
                        // Every sample set, plus supersets of the image
                        // so that `true` answers come up in both scans.
                        let mut ys = sets.clone();
                        for percent in [0, 50, 97] {
                            ys.push(image.union(&random_set(&mut rng, n, percent)));
                        }
                        for y in &ys {
                            let expected = image.is_subset(y);
                            assert_eq!(
                                view.close_below(&algebra, x, y),
                                expected,
                                "n {n} x {x:?} y {y:?}"
                            );
                            let reverse = x.len() > n - y.len();
                            seen[usize::from(reverse)][usize::from(expected)] += 1;
                        }
                    }
                }
            }
        }
        assert!(
            seen.iter().flatten().all(|&count| count > 0),
            "both scans must answer both ways: {seen:?}"
        );
    }

    /// A total model shaped like `sld`'s check traffic: 256 states, a
    /// forward-only stem from the initial state into a randomly wired
    /// core, a detached part no reachable state enters, out-degree 1–3,
    /// and 1–4 bad states in one of the three parts, each looping on
    /// itself.
    fn check_model(rng: &mut SplitMix) -> (Kripke, Vec<usize>) {
        let n = 256;
        let (stem, core_end) = (n / 8, n - n / 4);
        let mut succ: Vec<Vec<usize>> = (0..n)
            .map(|s| {
                (0..1 + rng.below(3))
                    .map(|_| {
                        if s + 1 < stem && rng.flip() {
                            s + 1 + rng.below(stem - s - 1)
                        } else if s >= core_end && rng.chance(80) {
                            core_end + rng.below(n - core_end)
                        } else {
                            stem + rng.below(core_end - stem)
                        }
                    })
                    .collect()
            })
            .collect();
        let part = rng.below(3);
        let mut bad: Vec<usize> = (0..1 + rng.below(4))
            .map(|_| match part {
                0 => 1 + rng.below(stem - 1),
                1 => stem + rng.below(core_end - stem),
                _ => core_end + rng.below(n - core_end),
            })
            .collect();
        bad.sort_unstable();
        bad.dedup();
        for &b in &bad {
            succ[b].push(b);
        }
        let sigma = Alphabet::ab();
        let a = sigma.symbol("a").unwrap();
        (Kripke::new(sigma, vec![a; n], succ, 0), bad)
    }

    #[test]
    fn edge_views_run_pdr_bit_identically_to_per_bit_closures() {
        let mut rng = SplitMix::new(0x7064_7231);
        let mut verdicts = [0usize; 2];
        for _ in 0..16 {
            let (model, bad) = check_model(&mut rng);
            let products = (0..2).map(|k| counter_product(&model, &bad, k + 1));
            let problems = std::iter::once((model.clone(), bad.clone()))
                .chain(products.map(|p| (p.kripke, p.bad)));
            for (kripke, bad) in problems {
                let n = kripke.len();
                let algebra = BitsetAlgebra::new(n);
                let succ: Vec<Vec<usize>> = (0..n).map(|s| kripke.successors(s).to_vec()).collect();
                let pred = naive_transpose(&succ);
                let edges = EdgeRelation::new(n, |s| kripke.successors(s));
                let init = Bitset::from_indices(n, &[kripke.initial()]);
                let safe = Bitset::from_indices(n, &bad).complement();
                let reference = PdrProblem {
                    lattice: &algebra,
                    init: init.clone(),
                    safe: safe.clone(),
                    post: |_l: &BitsetAlgebra, x: &Bitset| naive_image(&succ, x),
                    pre: |_l: &BitsetAlgebra, x: &Bitset| naive_image(&pred, x),
                    atoms: lowest_atom,
                };
                let viewed = PdrProblem {
                    lattice: &algebra,
                    init,
                    safe,
                    post: edges.post(),
                    pre: edges.pre(),
                    atoms: lowest_atom,
                };
                let want = lt_pdr(&reference, &Budget::unlimited()).unwrap();
                let got = lt_pdr(&viewed, &Budget::unlimited()).unwrap();
                assert_eq!(got.outcome, want.outcome);
                assert_eq!(got.stats, want.stats);
                verdicts[usize::from(matches!(got.outcome, PdrOutcome::Safe { .. }))] += 1;
            }
        }
        assert!(verdicts.iter().all(|&count| count > 0), "{verdicts:?}");
    }
}
