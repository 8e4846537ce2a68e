//! A minimal property-based testing harness.
//!
//! This replaces the `proptest` dependency for the workspace's needs:
//! composable [`Strategy`] values generate seeded pseudo-random inputs,
//! a [`check`] runner drives a configurable number of cases, failures
//! are greedily shrunk toward minimal counterexamples, and the report
//! names the seed so a failure replays exactly.
//!
//! Configuration comes from the environment:
//!
//! * `SL_PROP_CASES` — cases per property (default 64);
//! * `SL_PROP_SEED` — base seed (default 0; decimal or `0x…` hex). A
//!   failing run prints the seed to copy back.
//!
//! ```
//! use sl_support::prop::{self, Strategy, StrategyExt};
//!
//! let evens = (0u64..1000).prop_map(|n| n * 2);
//! prop::check("doubles are even", &evens, |&n| {
//!     sl_support::prop_assert!(n % 2 == 0, "odd double {n}");
//!     Ok(())
//! });
//! ```

use crate::rng::{SplitMix, GOLDEN_GAMMA};
use std::cell::RefCell;
use std::fmt::Debug;
use std::ops::Range;
use std::rc::Rc;

// ---------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------

/// A generator of pseudo-random values plus a shrinker for minimizing
/// counterexamples. Strategies compose through [`StrategyExt`], tuples,
/// [`one_of`], [`vec_of`], and [`recursive`].
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Draws one value from the strategy.
    fn generate(&self, rng: &mut SplitMix) -> Self::Value;

    /// Proposes strictly "smaller" variants of a value for greedy
    /// shrinking. The default proposes nothing (no shrinking).
    fn shrink(&self, _value: &Self::Value) -> Vec<Self::Value> {
        Vec::new()
    }
}

/// A shared, type-erased strategy — the currency of recursive and
/// alternative ([`one_of`]) strategies.
pub type SBox<T> = Rc<dyn Strategy<Value = T>>;

impl<S: Strategy + ?Sized> Strategy for Rc<S> {
    type Value = S::Value;
    fn generate(&self, rng: &mut SplitMix) -> Self::Value {
        (**self).generate(rng)
    }
    fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
        (**self).shrink(value)
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn generate(&self, rng: &mut SplitMix) -> Self::Value {
        (**self).generate(rng)
    }
    fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
        (**self).shrink(value)
    }
}

/// Combinator methods available on every strategy.
pub trait StrategyExt: Strategy + Sized {
    /// Transforms generated values. The transformation is not
    /// invertible in general, so the mapped strategy remembers the
    /// inputs it generated (bounded memory) and shrinks a value by
    /// shrinking the input it came from and re-mapping.
    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F> {
        Map {
            inner: self,
            f,
            memory: RefCell::new(Vec::new()),
        }
    }

    /// Erases the concrete type into a shareable [`SBox`].
    fn boxed(self) -> SBox<Self::Value>
    where
        Self: 'static,
    {
        Rc::new(self)
    }
}

impl<S: Strategy> StrategyExt for S {}

/// Bound on how many generated inputs a [`Map`] remembers for
/// preimage lookup during shrinking.
const MAP_MEMORY_CAP: usize = 256;

/// See [`StrategyExt::prop_map`].
pub struct Map<S: Strategy, F> {
    inner: S,
    f: F,
    // Recently generated / proposed inputs, newest last. `shrink`
    // recovers the preimage of a value by image equality, so shrinking
    // composes through the (non-invertible) transformation.
    memory: RefCell<Vec<S::Value>>,
}

impl<S: Strategy, F> Map<S, F> {
    fn remember(&self, input: S::Value) {
        let mut memory = self.memory.borrow_mut();
        if memory.len() == MAP_MEMORY_CAP {
            memory.remove(0);
        }
        memory.push(input);
    }
}

impl<S: Strategy, U: PartialEq, F: Fn(S::Value) -> U> Strategy for Map<S, F>
where
    S::Value: Clone,
{
    type Value = U;
    fn generate(&self, rng: &mut SplitMix) -> U {
        let input = self.inner.generate(rng);
        let out = (self.f)(input.clone());
        self.remember(input);
        out
    }
    fn shrink(&self, value: &U) -> Vec<U> {
        // Newest match wins: the value currently being shrunk is the
        // most recently generated or proposed one with that image.
        let input = {
            let memory = self.memory.borrow();
            match memory
                .iter()
                .rev()
                .find(|i| (self.f)((*i).clone()) == *value)
            {
                Some(input) => input.clone(),
                None => return Vec::new(), // not generated here
            }
        };
        let candidates = self.inner.shrink(&input);
        let out = candidates.iter().map(|i| (self.f)(i.clone())).collect();
        for candidate in candidates {
            self.remember(candidate);
        }
        out
    }
}

/// Always produces a clone of the given value.
#[must_use]
pub fn just<T: Clone>(value: T) -> Just<T> {
    Just(value)
}

/// See [`just`].
pub struct Just<T>(T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut SplitMix) -> T {
        self.0.clone()
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut SplitMix) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                self.start + (rng.next_u64() % (self.end - self.start) as u64) as $t
            }
            fn shrink(&self, value: &$t) -> Vec<$t> {
                let mut out = Vec::new();
                let v = *value;
                if v > self.start {
                    out.push(self.start); // jump to the minimum
                    let mid = self.start + (v - self.start) / 2;
                    if mid != self.start && mid != v {
                        out.push(mid); // halve the distance
                    }
                    out.push(v - 1); // decrement
                }
                out.dedup();
                out
            }
        }
    )*};
}

int_range_strategy!(u16, u32, u64, usize);

/// Fair booleans, shrinking toward `false`.
#[must_use]
pub fn bools() -> Bools {
    Bools
}

/// See [`bools`].
pub struct Bools;

impl Strategy for Bools {
    type Value = bool;
    fn generate(&self, rng: &mut SplitMix) -> bool {
        rng.flip()
    }
    fn shrink(&self, value: &bool) -> Vec<bool> {
        if *value {
            vec![false]
        } else {
            Vec::new()
        }
    }
}

/// Picks uniformly among the given values, shrinking toward earlier
/// entries (list the simplest values first).
#[must_use]
pub fn sample<T: Clone + PartialEq>(values: Vec<T>) -> Sample<T> {
    assert!(!values.is_empty(), "sample requires at least one value");
    Sample(values)
}

/// See [`sample`].
pub struct Sample<T>(Vec<T>);

impl<T: Clone + PartialEq> Strategy for Sample<T> {
    type Value = T;
    fn generate(&self, rng: &mut SplitMix) -> T {
        self.0[rng.below(self.0.len())].clone()
    }
    fn shrink(&self, value: &T) -> Vec<T> {
        match self.0.iter().position(|v| v == value) {
            Some(i) => self.0[..i].to_vec(),
            None => Vec::new(),
        }
    }
}

/// Picks uniformly among the given strategies.
#[must_use]
pub fn one_of<T>(options: Vec<SBox<T>>) -> OneOf<T> {
    assert!(!options.is_empty(), "one_of requires at least one option");
    OneOf(options)
}

/// See [`one_of`].
pub struct OneOf<T>(Vec<SBox<T>>);

impl<T> Strategy for OneOf<T> {
    type Value = T;
    fn generate(&self, rng: &mut SplitMix) -> T {
        self.0[rng.below(self.0.len())].generate(rng)
    }
    fn shrink(&self, value: &T) -> Vec<T> {
        // The generating alternative is unknown; offer every option's
        // proposals (wrong-option proposals are just rejected by the
        // greedy loop if they don't keep the property failing).
        self.0.iter().flat_map(|s| s.shrink(value)).collect()
    }
}

macro_rules! tuple_strategy {
    ($($name:ident : $idx:tt),*) => {
        impl<$($name: Strategy),*> Strategy for ($($name,)*)
        where
            $($name::Value: Clone,)*
        {
            type Value = ($($name::Value,)*);
            fn generate(&self, rng: &mut SplitMix) -> Self::Value {
                ($(self.$idx.generate(rng),)*)
            }
            fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
                let mut out = Vec::new();
                $(
                    for candidate in self.$idx.shrink(&value.$idx) {
                        let mut next = value.clone();
                        next.$idx = candidate;
                        out.push(next);
                    }
                )*
                out
            }
        }
    };
}

tuple_strategy!(A: 0, B: 1);
tuple_strategy!(A: 0, B: 1, C: 2);
tuple_strategy!(A: 0, B: 1, C: 2, D: 3);

/// Vectors of `elem` values with a length drawn from `len`. Shrinks by
/// dropping elements (down to the minimum length) and by shrinking
/// individual elements.
#[must_use]
pub fn vec_of<S: Strategy>(elem: S, len: Range<usize>) -> VecOf<S> {
    assert!(len.start < len.end, "empty length range");
    VecOf { elem, len }
}

/// See [`vec_of`].
pub struct VecOf<S> {
    elem: S,
    len: Range<usize>,
}

impl<S: Strategy> Strategy for VecOf<S>
where
    S::Value: Clone,
{
    type Value = Vec<S::Value>;
    fn generate(&self, rng: &mut SplitMix) -> Vec<S::Value> {
        let n = self.len.generate(rng);
        (0..n).map(|_| self.elem.generate(rng)).collect()
    }
    fn shrink(&self, value: &Vec<S::Value>) -> Vec<Vec<S::Value>> {
        let mut out = Vec::new();
        if value.len() > self.len.start {
            for i in 0..value.len() {
                let mut shorter = value.clone();
                shorter.remove(i);
                out.push(shorter);
            }
        }
        for (i, v) in value.iter().enumerate() {
            for candidate in self.elem.shrink(v) {
                let mut next = value.clone();
                next[i] = candidate;
                out.push(next);
            }
        }
        out
    }
}

/// Recursive structures: level 0 draws from `leaf`; each further level
/// draws either a leaf or one application of `branch` to the previous
/// level (50/50), up to `depth` applications. This is the replacement
/// for `proptest`'s `prop_recursive`.
#[must_use]
pub fn recursive<T: 'static>(
    leaf: SBox<T>,
    depth: usize,
    branch: impl Fn(SBox<T>) -> SBox<T>,
) -> SBox<T> {
    let mut current = leaf.clone();
    for _ in 0..depth {
        current = one_of(vec![leaf.clone(), branch(current)]).boxed();
    }
    current
}

// ---------------------------------------------------------------------
// Runner
// ---------------------------------------------------------------------

/// Runner configuration, read from `SL_PROP_CASES` / `SL_PROP_SEED`.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Cases generated per property.
    pub cases: u32,
    /// Base seed; every (property, case) pair derives its own stream.
    pub seed: u64,
}

impl Config {
    /// Reads the configuration from the environment, with defaults of
    /// 64 cases and seed 0.
    #[must_use]
    pub fn from_env() -> Self {
        let cases = std::env::var("SL_PROP_CASES")
            .ok()
            .and_then(|raw| raw.trim().parse::<u32>().ok())
            .filter(|&n| n > 0)
            .unwrap_or(64);
        let seed = std::env::var("SL_PROP_SEED")
            .ok()
            .and_then(|raw| {
                let raw = raw.trim();
                match raw.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16).ok(),
                    None => raw.parse::<u64>().ok(),
                }
            })
            .unwrap_or(0);
        Config { cases, seed }
    }
}

fn fnv1a(text: &str) -> u64 {
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    for byte in text.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// The derived seed for one (base seed, property name, case index)
/// triple. [`case_rng`] is `SplitMix::new` of this value; failure
/// reports print it so a single case replays in isolation.
#[must_use]
pub fn case_seed(seed: u64, name: &str, case: u32) -> u64 {
    seed ^ fnv1a(name) ^ u64::from(case).wrapping_mul(GOLDEN_GAMMA)
}

/// The per-case generator stream: deterministic in (base seed, property
/// name, case index), so one failing case replays without re-running
/// the cases before it.
#[must_use]
pub fn case_rng(seed: u64, name: &str, case: u32) -> SplitMix {
    SplitMix::new(case_seed(seed, name, case))
}

/// Everything a failure report needs to point at the exact failing
/// case: passed to the repro-command formatter of [`check_with_repro`].
#[derive(Debug, Clone, Copy)]
pub struct Repro<'a> {
    /// The property name given to the runner.
    pub name: &'a str,
    /// The base seed (`SL_PROP_SEED`).
    pub seed: u64,
    /// The index of the failing case.
    pub case: u32,
    /// The derived per-case seed ([`case_seed`]).
    pub case_seed: u64,
}

/// Upper bound on shrink-candidate evaluations per failure, so a cyclic
/// shrinker cannot hang the suite.
const MAX_SHRINK_EVALS: usize = 4096;

/// Checks `property` on [`Config::from_env`]-many generated cases.
///
/// On the first failing case the counterexample is greedily shrunk:
/// every round tries the strategy's candidates in order and restarts
/// from the first one that still fails, until no candidate fails (a
/// local minimum) or the evaluation budget runs out.
///
/// # Panics
///
/// Panics (failing the enclosing test) with the property name, the
/// case index, the seed to replay, and the original plus shrunk
/// counterexamples if any case fails.
pub fn check<S: Strategy>(
    name: &str,
    strategy: &S,
    property: impl Fn(&S::Value) -> Result<(), String>,
) where
    S::Value: Debug + Clone,
{
    check_with_repro(name, strategy, property, |repro| {
        format!(
            "SL_PROP_SEED={} SL_PROP_CASES={} cargo test -q  # property `{}`",
            repro.seed,
            repro.case + 1,
            repro.name,
        )
    });
}

/// Like [`check`], but a failure report ends with a caller-supplied
/// one-line reproduction command built from the failing [`Repro`]
/// coordinates (e.g. `slfuzz --seed N --oracle X --case C` for the
/// conformance fuzzer).
pub fn check_with_repro<S: Strategy>(
    name: &str,
    strategy: &S,
    property: impl Fn(&S::Value) -> Result<(), String>,
    repro_command: impl Fn(Repro<'_>) -> String,
) where
    S::Value: Debug + Clone,
{
    let config = Config::from_env();
    for case in 0..config.cases {
        let mut rng = case_rng(config.seed, name, case);
        let value = strategy.generate(&mut rng);
        if let Err(message) = property(&value) {
            let (shrunk, shrunk_message, steps) = minimize(strategy, &property, &value, &message);
            let repro = repro_command(Repro {
                name,
                seed: config.seed,
                case,
                case_seed: case_seed(config.seed, name, case),
            });
            panic!(
                "property `{name}` falsified (case {case}/{cases}, SL_PROP_SEED={seed}):\n  \
                 case seed: {case_seed:#018x}\n  \
                 repro: {repro}\n  \
                 original: {value:?}\n  \
                 original failure: {message}\n  \
                 shrunk ({steps} steps): {shrunk:?}\n  \
                 shrunk failure: {shrunk_message}",
                cases = config.cases,
                seed = config.seed,
                case_seed = case_seed(config.seed, name, case),
            );
        }
    }
}

/// Greedily shrinks a failing value: every round tries the strategy's
/// candidates in order and restarts from the first one that still
/// fails, until no candidate fails (a local minimum) or the
/// [`MAX_SHRINK_EVALS`] budget runs out. Returns the minimized value,
/// its failure message, and the number of successful shrink steps.
///
/// Public so external harnesses (the `slfuzz` conformance fuzzer) can
/// reuse the shrink loop with their own case strategies.
pub fn minimize<S: Strategy>(
    strategy: &S,
    property: &impl Fn(&S::Value) -> Result<(), String>,
    original: &S::Value,
    original_message: &str,
) -> (S::Value, String, usize)
where
    S::Value: Clone,
{
    let mut current = original.clone();
    let mut current_message = original_message.to_string();
    let mut evals = 0usize;
    let mut steps = 0usize;
    'outer: loop {
        for candidate in strategy.shrink(&current) {
            evals += 1;
            if evals > MAX_SHRINK_EVALS {
                break 'outer;
            }
            if let Err(message) = property(&candidate) {
                current = candidate;
                current_message = message;
                steps += 1;
                continue 'outer;
            }
        }
        break; // local minimum: no candidate still fails
    }
    (current, current_message, steps)
}

// ---------------------------------------------------------------------
// Assertion macros
// ---------------------------------------------------------------------

/// Asserts a condition inside a property, returning `Err` with the
/// formatted message instead of panicking (so the runner can shrink).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return Err(format!($($fmt)*));
        }
    };
}

/// Asserts equality inside a property (see [`prop_assert!`]).
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l == r,
            "assertion failed: {} == {} ({:?} vs {:?})",
            stringify!($left),
            stringify!($right),
            l,
            r
        );
    }};
}

/// Asserts inequality inside a property (see [`prop_assert!`]).
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l != r,
            "assertion failed: {} != {} (both {:?})",
            stringify!($left),
            stringify!($right),
            l
        );
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_runs_all_cases() {
        check("sum is commutative", &(0u64..100, 0u64..100), |&(a, b)| {
            crate::prop_assert_eq!(a + b, b + a);
            Ok(())
        });
    }

    #[test]
    #[should_panic(expected = "property `always fails` falsified")]
    fn failing_property_reports() {
        check("always fails", &(0u64..100), |_| Err("nope".to_string()));
    }

    #[test]
    fn shrinking_minimizes_ranges() {
        // The property "n < 40" fails from 40 up; the shrinker must
        // land exactly on 40.
        let strategy = 0u64..1000;
        let mut failure: Option<u64> = None;
        for case in 0..200 {
            let mut rng = case_rng(0, "shrink probe", case);
            let v = strategy.generate(&mut rng);
            if v >= 40 {
                failure = Some(v);
                break;
            }
        }
        let original = failure.expect("some case exceeds 40");
        let prop = |&n: &u64| -> Result<(), String> {
            if n >= 40 {
                Err(format!("{n} too big"))
            } else {
                Ok(())
            }
        };
        let (shrunk, _, _) = minimize(&strategy, &prop, &original, "seed");
        assert_eq!(shrunk, 40);
    }

    #[test]
    fn vectors_shrink_by_dropping() {
        let strategy = vec_of(0u64..10, 0..8);
        let original = vec![3, 9, 1, 9, 2];
        // Fails whenever a 9 is present; minimal counterexample: [9].
        let prop = |v: &Vec<u64>| -> Result<(), String> {
            if v.contains(&9) {
                Err("contains 9".into())
            } else {
                Ok(())
            }
        };
        let (shrunk, _, _) = minimize(&strategy, &prop, &original, "seed");
        assert_eq!(shrunk, vec![9]);
    }

    #[test]
    fn recursive_strategies_terminate() {
        #[derive(Debug, Clone, PartialEq)]
        enum Expr {
            Lit(u64),
            Neg(Box<Expr>),
            Add(Box<Expr>, Box<Expr>),
        }
        fn depth(e: &Expr) -> usize {
            match e {
                Expr::Lit(_) => 0,
                Expr::Neg(a) => 1 + depth(a),
                Expr::Add(a, b) => 1 + depth(a).max(depth(b)),
            }
        }
        let leaf = (0u64..10).prop_map(Expr::Lit).boxed();
        let strategy = recursive(leaf, 4, |inner| {
            one_of(vec![
                inner.clone().prop_map(|e| Expr::Neg(Box::new(e))).boxed(),
                (inner.clone(), inner)
                    .prop_map(|(a, b)| Expr::Add(Box::new(a), Box::new(b)))
                    .boxed(),
            ])
            .boxed()
        });
        let mut rng = SplitMix::new(99);
        for _ in 0..200 {
            let e = strategy.generate(&mut rng);
            assert!(depth(&e) <= 4, "{e:?}");
        }
    }

    #[test]
    fn mapped_strategies_shrink_through_the_map() {
        // "double < 80" fails from 40 up; the shrinker must recover the
        // preimage and land exactly on 80 despite the map.
        let strategy = (0u64..1000).prop_map(|n| n * 2);
        let mut rng = SplitMix::new(3);
        let original = std::iter::repeat_with(|| strategy.generate(&mut rng))
            .find(|&v| v >= 80)
            .unwrap();
        let prop = |&n: &u64| -> Result<(), String> {
            if n >= 80 {
                Err(format!("{n} too big"))
            } else {
                Ok(())
            }
        };
        let (shrunk, _, steps) = minimize(&strategy, &prop, &original, "seed");
        assert_eq!(shrunk, 80);
        assert!(steps > 0 || original == 80);
    }

    #[test]
    fn recursive_mapped_strategies_shrink_their_leaves() {
        // Formula-shaped counterexamples shrink too: every literal in
        // the shrunk value is minimized through the nested maps. (The
        // shrinker minimizes leaves, not tree depth — replacing
        // `Neg(e)` by `e` would need tree-based shrinking.)
        #[derive(Debug, Clone, PartialEq)]
        enum Expr {
            Lit(u64),
            Neg(Box<Expr>),
        }
        fn has_neg(e: &Expr) -> bool {
            matches!(e, Expr::Neg(_))
        }
        fn literals_all_zero(e: &Expr) -> bool {
            match e {
                Expr::Lit(n) => *n == 0,
                Expr::Neg(a) => literals_all_zero(a),
            }
        }
        let leaf = (0u64..10).prop_map(Expr::Lit).boxed();
        let strategy = recursive(leaf, 3, |inner| {
            inner.prop_map(|e| Expr::Neg(Box::new(e))).boxed()
        });
        let prop = |e: &Expr| -> Result<(), String> {
            if has_neg(e) {
                Err("has a negation".into())
            } else {
                Ok(())
            }
        };
        let mut rng = SplitMix::new(5);
        let original = std::iter::repeat_with(|| strategy.generate(&mut rng))
            .find(|e| has_neg(e) && !literals_all_zero(e))
            .unwrap();
        let (shrunk, _, _) = minimize(&strategy, &prop, &original, "seed");
        assert!(has_neg(&shrunk), "shrunk value must still fail: {shrunk:?}");
        assert!(
            literals_all_zero(&shrunk),
            "literals not minimized: {shrunk:?}"
        );
    }

    #[test]
    fn sample_shrinks_to_earlier_entries() {
        let s = sample(vec!['a', 'b', 'c']);
        assert_eq!(s.shrink(&'c'), vec!['a', 'b']);
        assert!(s.shrink(&'a').is_empty());
    }

    #[test]
    fn config_defaults() {
        // Only checks the defaults when the env vars are unset; under
        // an overridden environment the parse paths are still covered
        // by from_env.
        let config = Config::from_env();
        assert!(config.cases > 0);
    }
}
