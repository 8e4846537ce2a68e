//! The lattice-generic LT-PDR engine.
//!
//! Following Kori et al. ("The Lattice-Theoretic Essence of Property
//! Directed Reachability Analysis"), IC3/PDR is a search for either a
//! witness to `lfp (init \/ post) <= safe` (an inductive invariant
//! between the reachable element and `safe`) or a refutation (a chain
//! of atoms from `init` into `!safe` connected by the one-step image).
//! The engine below is written purely against the workspace lattice
//! traits: frames are lattice elements, relative induction is a
//! `meet`/`leq` question, and the transition structure enters only
//! through two monotone maps passed via the [`LatticeClosure`]
//! interface (the blanket impl lets plain `Fn(&L, &L::Elem) -> L::Elem`
//! closures serve; extensivity/idempotency are not required of them).
//!
//! Every image-containment question `post(x) <= y` goes through the
//! `post` hook's [`LatticeClosure::close_below`]. Its default builds
//! `post(x)` and tests `leq`; a hook that knows its transition
//! structure can answer without building the image (the powerset
//! instantiation in [`crate::kripke`] scans the smaller side of one
//! edge relation). Either way the answer is the same boolean, so the
//! search, its counters and its certificates do not depend on which
//! hook is plugged in.
//!
//! Frame invariants maintained throughout (`F[0] = init`, `k` = frontier):
//!
//! * `F[i] <= F[i+1]` for all `i < k` (monotone chain);
//! * `post(F[i]) <= F[i+1]` for all `i < k` (one-step soundness);
//! * `init <= F[i]` for all `i`;
//! * `F[i] <= safe` for all `i < k` (the frontier is being cleared).
//!
//! Safe verdicts are found when `F[i] = F[i+1]` after propagation; the
//! element is then an inductive invariant and is re-validated before it
//! is returned. Unsafe verdicts carry the obligation parent chain — a
//! sequence of atoms replayable through `post` — and are likewise
//! validated before return. Termination is guaranteed on lattices of
//! finite height (every blocking strictly shrinks a frame); on other
//! instantiations the step budget is the backstop.

use sl_lattice::traits::{ComplementedLattice, LatticeClosure};
use sl_support::{Budget, SlError};

/// Test-only engine sabotage, used by the conformance fuzzer to prove
/// the pdr oracle catches a real engine bug. Never enabled outside
/// dedicated drill tests.
#[doc(hidden)]
pub mod sabotage {
    use std::sync::atomic::{AtomicBool, Ordering};

    static BREAK_RELATIVE_INDUCTION: AtomicBool = AtomicBool::new(false);

    /// When enabled, the engine's shared image-containment primitive
    /// (`post(x) <= y`, used by the relative-induction check, cube
    /// propagation, and the internal certificate validator) reports
    /// success without testing anything — so PDR blocks unblockable
    /// cubes and returns Safe for reachable bad states. The BMC
    /// reference is untouched, which is exactly the disagreement
    /// `slfuzz --sabotage pdr-relative-induction` must detect and
    /// shrink.
    pub fn set_break_relative_induction(on: bool) {
        BREAK_RELATIVE_INDUCTION.store(on, Ordering::Relaxed);
    }

    /// Whether the drill flag is currently set.
    #[must_use]
    pub fn relative_induction_broken() -> bool {
        BREAK_RELATIVE_INDUCTION.load(Ordering::Relaxed)
    }
}

/// The image-containment question `post(x) <= y` — the primitive that
/// relative induction, propagation, the generalization guard and
/// invariant validation all share (and the one the sabotage drill
/// breaks), answered by the hook's [`LatticeClosure::close_below`].
fn post_below<L, Post>(lattice: &L, post: &Post, x: &L::Elem, y: &L::Elem) -> bool
where
    L: ComplementedLattice + ?Sized,
    Post: LatticeClosure<L>,
{
    if sabotage::relative_induction_broken() {
        return true;
    }
    post.close_below(lattice, x, y)
}

/// Counters reported by one engine run (and summed per-verb by `sld`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PdrStats {
    /// Frames opened, counting the initial frontier.
    pub frames: u64,
    /// Obligations discharged by blocking a cube.
    pub obligations: u64,
    /// Blocked cubes strictly enlarged past the originating atom.
    pub generalizations: u64,
}

impl PdrStats {
    /// Component-wise sum.
    #[must_use]
    pub fn merged(self, other: PdrStats) -> PdrStats {
        PdrStats {
            frames: self.frames + other.frames,
            obligations: self.obligations + other.obligations,
            generalizations: self.generalizations + other.generalizations,
        }
    }
}

/// The verdict of one LT-PDR run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PdrOutcome<E> {
    /// `lfp (init \/ post) <= safe`, witnessed by an inductive
    /// invariant: `init <= inv`, `post(inv) <= inv`, `inv <= safe`.
    Safe {
        /// The invariant element.
        invariant: E,
    },
    /// Refuted by a chain of atoms `c0, .., cn` with
    /// `c0 /\ init != 0`, `c(j+1) /\ post(cj) != 0`, and
    /// `cn /\ !safe != 0`.
    Unsafe {
        /// The refutation chain, initial end first.
        chain: Vec<E>,
    },
}

/// A verdict plus the counters that produced it.
#[derive(Debug, Clone)]
pub struct PdrRun<E> {
    /// The (validated) verdict.
    pub outcome: PdrOutcome<E>,
    /// Engine counters.
    pub stats: PdrStats,
}

/// Extraction of atoms — minimal nonbottom elements — used to turn
/// frontier intersections and predecessor elements into obligations.
pub trait Atoms<L: ComplementedLattice + ?Sized> {
    /// Some atom below `x`, or `None` when `x` is bottom. Must be
    /// deterministic for reproducible transcripts.
    fn atom_below(&self, lattice: &L, x: &L::Elem) -> Option<L::Elem>;
}

/// Blanket impl so plain functions can serve as atom sources.
impl<L, F> Atoms<L> for F
where
    L: ComplementedLattice + ?Sized,
    F: Fn(&L, &L::Elem) -> Option<L::Elem>,
{
    fn atom_below(&self, lattice: &L, x: &L::Elem) -> Option<L::Elem> {
        self(lattice, x)
    }
}

/// One LT-PDR problem instance: decide `lfp (init \/ post) <= safe`.
pub struct PdrProblem<'a, L: ComplementedLattice + ?Sized, Post, Pre, A> {
    /// The ambient lattice.
    pub lattice: &'a L,
    /// The element of initial configurations.
    pub init: L::Elem,
    /// The safe region; the query is whether every reachable element
    /// stays below it.
    pub safe: L::Elem,
    /// One-step forward image (join-preserving in the intended models).
    pub post: Post,
    /// One-step backward image: `pre(x)` covers every atom with an
    /// image atom inside `x`.
    pub pre: Pre,
    /// Atom extraction.
    pub atoms: A,
}

/// Iteration cap for the forward generalization loop — each round costs
/// one image, and in practice the gain saturates after a few rounds.
const FORWARD_GENERALIZE_ROUNDS: usize = 4;

struct Obligation<E> {
    cube: E,
    level: usize,
    parent: Option<usize>,
}

struct Engine<'a, L: ComplementedLattice + ?Sized, Post, Pre, A> {
    problem: &'a PdrProblem<'a, L, Post, Pre, A>,
    /// `frames[0] = init`; `frames[i]` for `i >= 1` is the meet of the
    /// complements of every cube blocked at a level `>= i`.
    frames: Vec<L::Elem>,
    /// Cubes whose exact blocking level is `i` (for propagation).
    cubes: Vec<Vec<L::Elem>>,
    stats: PdrStats,
}

/// Runs LT-PDR on a problem instance under a budget.
///
/// The returned verdict is machine-checked before it is returned:
/// a Safe invariant is re-verified inductive and a refutation chain is
/// replayed through `post` (see [`validate_invariant`] /
/// [`validate_chain`]).
///
/// # Errors
///
/// [`SlError::BudgetExceeded`] / [`SlError::Cancelled`] when the budget
/// runs out mid-search.
///
/// # Panics
///
/// Panics if the hooks are inconsistent (e.g. `pre` fails to cover a
/// predecessor that `post` implies) and the engine derives a verdict
/// whose certificate does not validate.
pub fn lt_pdr<L, Post, Pre, A>(
    problem: &PdrProblem<'_, L, Post, Pre, A>,
    budget: &Budget,
) -> Result<PdrRun<L::Elem>, SlError>
where
    L: ComplementedLattice + ?Sized,
    Post: LatticeClosure<L>,
    Pre: LatticeClosure<L>,
    A: Atoms<L>,
{
    let mut meter = budget.meter("pdr.engine");
    let lattice = problem.lattice;
    let mut engine = Engine {
        problem,
        frames: vec![problem.init.clone()],
        cubes: vec![Vec::new()],
        stats: PdrStats::default(),
    };

    // An unsafe initial element refutes without any search.
    let bad0 = lattice.meet(&problem.init, &lattice.complement(&problem.safe));
    if let Some(atom) = problem.atoms.atom_below(lattice, &bad0) {
        let run = PdrRun {
            outcome: PdrOutcome::Unsafe { chain: vec![atom] },
            stats: engine.stats,
        };
        engine.validate_run(&run);
        return Ok(run);
    }

    engine.open_frame();
    loop {
        // Clear the frontier of !safe atoms.
        loop {
            let k = engine.frames.len() - 1;
            let frontier_bad = lattice.meet(&engine.frames[k], &lattice.complement(&problem.safe));
            let Some(atom) = problem.atoms.atom_below(lattice, &frontier_bad) else {
                break;
            };
            if let Some(chain) = engine.block(atom, k, &mut meter)? {
                let run = PdrRun {
                    outcome: PdrOutcome::Unsafe { chain },
                    stats: engine.stats,
                };
                engine.validate_run(&run);
                return Ok(run);
            }
        }
        // Propagate still-inductive cubes forward, then test adjacent
        // frames for convergence.
        engine.propagate(&mut meter)?;
        if let Some(invariant) = engine.converged() {
            let run = PdrRun {
                outcome: PdrOutcome::Safe { invariant },
                stats: engine.stats,
            };
            engine.validate_run(&run);
            return Ok(run);
        }
        engine.open_frame();
    }
}

impl<L, Post, Pre, A> Engine<'_, L, Post, Pre, A>
where
    L: ComplementedLattice + ?Sized,
    Post: LatticeClosure<L>,
    Pre: LatticeClosure<L>,
    A: Atoms<L>,
{
    fn lattice(&self) -> &L {
        self.problem.lattice
    }

    fn open_frame(&mut self) {
        self.frames.push(self.lattice().top());
        self.cubes.push(Vec::new());
        self.stats.frames += 1;
    }

    /// Meets `!cube` into frames `1..=level` and records the cube's
    /// exact level.
    fn install(&mut self, cube: L::Elem, level: usize) {
        let not_cube = self.lattice().complement(&cube);
        for i in 1..=level {
            self.frames[i] = self.lattice().meet(&self.frames[i], &not_cube);
        }
        self.cubes[level].push(cube);
    }

    /// `post(F[level] /\ !cube) <= !cube` — the relative induction
    /// question at the heart of PDR, phrased with one meet, one image,
    /// and one order test.
    fn relatively_inductive(&self, cube: &L::Elem, level: usize) -> bool {
        let lattice = self.lattice();
        let not_cube = lattice.complement(cube);
        let constrained = lattice.meet(&self.frames[level], &not_cube);
        post_below(lattice, &self.problem.post, &constrained, &not_cube)
    }

    /// Discharges the obligation `(atom, level)` and everything it
    /// spawns. Returns a refutation chain when an obligation reaches an
    /// initial atom, `None` when the frontier atom ends up blocked.
    fn block(
        &mut self,
        atom: L::Elem,
        level: usize,
        meter: &mut sl_support::BudgetMeter,
    ) -> Result<Option<Vec<L::Elem>>, SlError> {
        let mut arena: Vec<Obligation<L::Elem>> = vec![Obligation {
            cube: atom,
            level,
            parent: None,
        }];
        // Depth-first: the newest (deepest) obligation is processed
        // first, so predecessor chains extend before siblings run.
        let mut stack = vec![0usize];
        while let Some(idx) = stack.last().copied() {
            meter.charge(1)?;
            let lattice = self.lattice();
            let cube = arena[idx].cube.clone();
            let lvl = arena[idx].level;
            // An obligation touching init is a completed refutation:
            // the parent chain is a path from init into !safe.
            let at_init = !lattice.leq(&lattice.meet(&cube, &self.problem.init), &lattice.bottom());
            if lvl == 0 || at_init {
                let mut chain = Vec::new();
                let mut cursor = Some(idx);
                while let Some(i) = cursor {
                    chain.push(arena[i].cube.clone());
                    cursor = arena[i].parent;
                }
                return Ok(Some(chain));
            }
            // Already blocked since it was enqueued?
            if lattice.leq(&lattice.meet(&cube, &self.frames[lvl]), &lattice.bottom()) {
                stack.pop();
                continue;
            }
            meter.charge(1)?;
            if self.relatively_inductive(&cube, lvl - 1) {
                let (cube, grew) = self.generalize(cube, lvl, meter)?;
                let install_level = if grew.1 { self.frames.len() - 1 } else { lvl };
                self.install(cube, install_level);
                self.stats.obligations += 1;
                if grew.0 {
                    self.stats.generalizations += 1;
                }
                stack.pop();
            } else {
                // Extract a predecessor inside F[lvl-1] that steps into
                // the cube, and make proving it unreachable a new,
                // deeper obligation.
                meter.charge(1)?;
                let lattice = self.lattice();
                let pred_region = lattice.meet(
                    &self.frames[lvl - 1],
                    &self.problem.pre.close(lattice, &cube),
                );
                let pred = self
                    .problem
                    .atoms
                    .atom_below(lattice, &pred_region)
                    .expect("relative induction failed but no predecessor atom exists");
                arena.push(Obligation {
                    cube: pred,
                    level: lvl - 1,
                    parent: Some(idx),
                });
                stack.push(arena.len() - 1);
            }
        }
        Ok(None)
    }

    /// Enlarges a relatively-inductive cube. Two lattice-theoretic
    /// strategies, strongest first:
    ///
    /// 1. *Backward closure*: `B = lfp (cube \/ pre)`. `!B` is closed
    ///    under `post`, so if `B /\ init = 0` the whole backward cone
    ///    is blocked — absolutely inductively, so at the frontier.
    /// 2. *Forward tightening*: `cube' = !(init \/ post(F[l-1] /\
    ///    !cube))`. Since relative induction held, `!cube' <= !cube`,
    ///    and `post(F[l-1] /\ !cube') <= post(F[l-1] /\ !cube) <=
    ///    !cube'`, so the enlarged cube stays relatively inductive.
    ///    Iterated a few rounds.
    ///
    /// Returns the cube plus `(strictly_grew, absolute)`.
    fn generalize(
        &mut self,
        cube: L::Elem,
        level: usize,
        meter: &mut sl_support::BudgetMeter,
    ) -> Result<(L::Elem, (bool, bool)), SlError> {
        let lattice = self.lattice();
        // Strategy 1: the full backward cone, by frontier iteration —
        // each round applies `pre` only to the part added last round,
        // so the whole closure costs one pass over the cone's edges
        // instead of diameter-many passes over the accumulated cone.
        // For an additive `pre` (every image function is) this reaches
        // the same `lfp (cube \/ pre)`; a non-additive hook can only
        // under-close, which the explicit post-closure re-check below
        // rejects before the cone is ever used.
        let mut cone = cube.clone();
        let mut frontier = cube.clone();
        loop {
            meter.charge(1)?;
            let step = self.problem.pre.close(lattice, &frontier);
            let expanded = lattice.join(&cone, &step);
            if expanded == cone {
                break;
            }
            frontier = lattice.meet(&step, &lattice.complement(&cone));
            cone = expanded;
        }
        let init_hit = !lattice.leq(&lattice.meet(&cone, &self.problem.init), &lattice.bottom());
        if !init_hit {
            // `!cone` must be post-closed for consistent pre/post; the
            // cheap re-check guards against inconsistent hooks.
            let not_cone = lattice.complement(&cone);
            meter.charge(1)?;
            if post_below(lattice, &self.problem.post, &not_cone, &not_cone) {
                let grew = cone != cube;
                return Ok((cone, (grew, true)));
            }
        }
        // Strategy 2: forward tightening.
        let mut current = cube.clone();
        for _ in 0..FORWARD_GENERALIZE_ROUNDS {
            meter.charge(1)?;
            let not_current = lattice.complement(&current);
            let reach = self.problem.post.close(
                lattice,
                &lattice.meet(&self.frames[level - 1], &not_current),
            );
            // Joining the original cube back in is a no-op when the
            // relative-induction premise holds (the tightened cube
            // always contains it) but keeps the frontier shrinking
            // under the sabotage drill, where the premise is a lie.
            let next = lattice.join(
                &lattice.complement(&lattice.join(&self.problem.init, &reach)),
                &cube,
            );
            if next == current {
                break;
            }
            current = next;
        }
        let grew = current != cube;
        Ok((current, (grew, false)))
    }

    /// Re-tests every cube one level below the frontier and promotes
    /// the still-inductive ones.
    fn propagate(&mut self, meter: &mut sl_support::BudgetMeter) -> Result<(), SlError> {
        let k = self.frames.len() - 1;
        for level in 1..k {
            let pending = std::mem::take(&mut self.cubes[level]);
            for cube in pending {
                meter.charge(1)?;
                if self.relatively_inductive(&cube, level) {
                    let not_cube = self.lattice().complement(&cube);
                    self.frames[level + 1] =
                        self.lattice().meet(&self.frames[level + 1], &not_cube);
                    self.cubes[level + 1].push(cube);
                } else {
                    self.cubes[level].push(cube);
                }
            }
        }
        Ok(())
    }

    /// `F[i] = F[i+1]` for some interior `i` means `F[i]` is closed
    /// under `post` and is the Safe witness.
    fn converged(&self) -> Option<L::Elem> {
        let k = self.frames.len() - 1;
        (1..k)
            .find(|&i| self.frames[i] == self.frames[i + 1])
            .map(|i| self.frames[i].clone())
    }

    /// Machine-checks the verdict's certificate; inconsistent hooks
    /// surface here instead of as silently wrong answers.
    fn validate_run(&self, run: &PdrRun<L::Elem>) {
        let problem = self.problem;
        let result = match &run.outcome {
            PdrOutcome::Safe { invariant } => validate_invariant(
                self.lattice(),
                &problem.post,
                &problem.init,
                &problem.safe,
                invariant,
            ),
            PdrOutcome::Unsafe { chain } => validate_chain(
                self.lattice(),
                &problem.post,
                &problem.init,
                &problem.safe,
                chain,
            ),
        };
        assert!(
            result.is_ok(),
            "LT-PDR certificate failed validation (inconsistent post/pre/atom hooks): {}",
            result.unwrap_err()
        );
    }
}

/// Checks that `invariant` witnesses Safe: `init <= inv`,
/// `post(inv) <= inv`, `inv <= safe`.
///
/// # Errors
///
/// Names the first violated inclusion.
pub fn validate_invariant<L, Post>(
    lattice: &L,
    post: &Post,
    init: &L::Elem,
    safe: &L::Elem,
    invariant: &L::Elem,
) -> Result<(), String>
where
    L: ComplementedLattice + ?Sized,
    Post: LatticeClosure<L>,
{
    if !lattice.leq(init, invariant) {
        return Err("invariant does not contain init".into());
    }
    if !post_below(lattice, post, invariant, invariant) {
        return Err("invariant is not inductive under post".into());
    }
    if !lattice.leq(invariant, safe) {
        return Err("invariant is not contained in safe".into());
    }
    Ok(())
}

/// Checks that `chain` refutes Safe: a nonempty sequence whose head
/// meets `init`, whose consecutive elements are connected by `post`,
/// and whose last element meets `!safe`.
///
/// # Errors
///
/// Names the first broken link.
pub fn validate_chain<L, Post>(
    lattice: &L,
    post: &Post,
    init: &L::Elem,
    safe: &L::Elem,
    chain: &[L::Elem],
) -> Result<(), String>
where
    L: ComplementedLattice + ?Sized,
    Post: LatticeClosure<L>,
{
    let bottom = lattice.bottom();
    let Some(first) = chain.first() else {
        return Err("empty refutation chain".into());
    };
    if lattice.leq(&lattice.meet(first, init), &bottom) {
        return Err("chain head misses init".into());
    }
    for (i, window) in chain.windows(2).enumerate() {
        let image = post.close(lattice, &window[0]);
        if lattice.leq(&lattice.meet(&window[1], &image), &bottom) {
            return Err(format!("chain link {i} -> {} is not a post step", i + 1));
        }
    }
    let last = chain.last().expect("nonempty");
    let unsafe_region = lattice.complement(safe);
    if lattice.leq(&lattice.meet(last, &unsafe_region), &bottom) {
        return Err("chain tail misses !safe".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sl_lattice::{Bitset, BitsetAlgebra};

    /// A 4-state line 0 -> 1 -> 2 -> 3 (3 loops) as explicit images.
    fn line_post(universe: usize) -> impl Fn(&BitsetAlgebra, &Bitset) -> Bitset {
        move |_l: &BitsetAlgebra, x: &Bitset| {
            let mut out = Bitset::empty(universe);
            for s in x.iter() {
                let t = (s + 1).min(universe - 1);
                out.insert(t);
            }
            out
        }
    }

    fn line_pre(universe: usize) -> impl Fn(&BitsetAlgebra, &Bitset) -> Bitset {
        move |_l: &BitsetAlgebra, x: &Bitset| {
            let mut out = Bitset::empty(universe);
            for s in 0..universe {
                let t = (s + 1).min(universe - 1);
                if x.contains(t) {
                    out.insert(s);
                }
            }
            out
        }
    }

    fn first_atom(_l: &BitsetAlgebra, x: &Bitset) -> Option<Bitset> {
        x.iter()
            .next()
            .map(|i| Bitset::from_indices(x.universe(), &[i]))
    }

    #[test]
    fn reachable_bad_is_unsafe_with_replayable_chain() {
        let n = 4;
        let algebra = BitsetAlgebra::new(n);
        let problem = PdrProblem {
            lattice: &algebra,
            init: Bitset::from_indices(n, &[0]),
            safe: Bitset::from_indices(n, &[0, 1, 2]),
            post: line_post(n),
            pre: line_pre(n),
            atoms: first_atom,
        };
        let run = lt_pdr(&problem, &Budget::unlimited()).unwrap();
        match run.outcome {
            PdrOutcome::Unsafe { chain } => {
                let states: Vec<usize> = chain.iter().map(|c| c.iter().next().unwrap()).collect();
                assert_eq!(states, vec![0, 1, 2, 3]);
            }
            PdrOutcome::Safe { .. } => panic!("line reaches state 3"),
        }
    }

    #[test]
    fn unreachable_bad_is_safe_with_inductive_invariant() {
        // 0 -> 1 -> 1; states 2,3 unreachable, 3 is bad.
        let n = 4;
        let algebra = BitsetAlgebra::new(n);
        let post = |_l: &BitsetAlgebra, x: &Bitset| {
            let mut out = Bitset::empty(n);
            for s in x.iter() {
                out.insert(match s {
                    0 => 1,
                    1 => 1,
                    2 => 3,
                    _ => 3,
                });
            }
            out
        };
        let pre = |_l: &BitsetAlgebra, x: &Bitset| {
            let mut out = Bitset::empty(n);
            for (s, t) in [(0, 1), (1, 1), (2, 3), (3, 3)] {
                if x.contains(t) {
                    out.insert(s);
                }
            }
            out
        };
        let problem = PdrProblem {
            lattice: &algebra,
            init: Bitset::from_indices(n, &[0]),
            safe: Bitset::from_indices(n, &[0, 1, 2]),
            post,
            pre,
            atoms: first_atom,
        };
        let run = lt_pdr(&problem, &Budget::unlimited()).unwrap();
        match run.outcome {
            PdrOutcome::Safe { invariant } => {
                validate_invariant(&algebra, &post, &problem.init, &problem.safe, &invariant)
                    .unwrap();
            }
            PdrOutcome::Unsafe { .. } => panic!("state 3 is unreachable"),
        }
        assert!(run.stats.frames >= 1);
    }

    #[test]
    fn bad_initial_state_refutes_immediately() {
        let n = 2;
        let algebra = BitsetAlgebra::new(n);
        let problem = PdrProblem {
            lattice: &algebra,
            init: Bitset::from_indices(n, &[1]),
            safe: Bitset::from_indices(n, &[0]),
            post: line_post(n),
            pre: line_pre(n),
            atoms: first_atom,
        };
        let run = lt_pdr(&problem, &Budget::unlimited()).unwrap();
        match run.outcome {
            PdrOutcome::Unsafe { chain } => assert_eq!(chain.len(), 1),
            PdrOutcome::Safe { .. } => panic!("initial state is bad"),
        }
    }

    #[test]
    fn tiny_budget_is_a_typed_rejection() {
        let n = 64;
        let algebra = BitsetAlgebra::new(n);
        let problem = PdrProblem {
            lattice: &algebra,
            init: Bitset::from_indices(n, &[0]),
            safe: {
                let mut s = Bitset::full(n);
                s.remove(n - 1);
                s
            },
            post: line_post(n),
            pre: line_pre(n),
            atoms: first_atom,
        };
        let err = lt_pdr(&problem, &Budget::unlimited().with_steps(3)).unwrap_err();
        assert!(err.is_budget_exceeded(), "{err}");
    }
}
