//! Ultimately periodic ω-words ("lasso words") in canonical form.
//!
//! The paper's linear-time framework works over `Σ^ω`, which is
//! uncountable; the finitely-representable skeleton of `Σ^ω` is the set
//! of ultimately periodic words `u · v^ω`. These suffice to separate any
//! two ω-regular languages (two distinct ω-regular languages always
//! differ on a lasso word), so all the sampling-based cross-checks in
//! this workspace quantify over [`LassoWord`]s.
//!
//! [`LassoWord`] maintains a *canonical* representation — the cycle is
//! primitive (not a proper power) and the stem is as short as possible —
//! so structural equality and hashing coincide with equality of the
//! denoted infinite words.

use crate::alphabet::{Alphabet, Symbol};
use crate::word::{all_words, Word};
use std::collections::HashSet;
use std::fmt;

/// An ultimately periodic ω-word `stem · cycle^ω` in canonical form.
///
/// # Examples
///
/// ```
/// use sl_omega::{Alphabet, LassoWord};
///
/// let sigma = Alphabet::ab();
/// // a (ba)^ω and (ab)^ω denote the same infinite word ...
/// let w1 = LassoWord::parse(&sigma, "a", "b a");
/// let w2 = LassoWord::parse(&sigma, "", "a b");
/// // ... and normalization makes them structurally equal.
/// assert_eq!(w1, w2);
/// assert_eq!(w1.at(0), sigma.symbol("a").unwrap());
/// assert_eq!(w1.at(1), sigma.symbol("b").unwrap());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LassoWord {
    stem: Vec<Symbol>,
    cycle: Vec<Symbol>,
}

/// Returns the primitive root length of `w`: the smallest `d` dividing
/// `w.len()` such that `w` is `w[..d]` repeated.
fn primitive_root_len(w: &[Symbol]) -> usize {
    let n = w.len();
    'candidate: for d in 1..=n {
        if !n.is_multiple_of(d) {
            continue;
        }
        for i in d..n {
            if w[i] != w[i - d] {
                continue 'candidate;
            }
        }
        return d;
    }
    n
}

impl LassoWord {
    /// Builds the ω-word `stem · cycle^ω`, normalizing to canonical form.
    ///
    /// # Panics
    ///
    /// Panics if `cycle` is empty (an ω-word needs an infinite tail).
    #[must_use]
    pub fn new(stem: &Word, cycle: &Word) -> Self {
        assert!(!cycle.is_empty(), "lasso cycle must be nonempty");
        let mut stem: Vec<Symbol> = stem.as_slice().to_vec();
        let root = primitive_root_len(cycle.as_slice());
        let mut cycle: Vec<Symbol> = cycle.as_slice()[..root].to_vec();
        // Absorb the stem's tail into the cycle: u·s (w·s)^ω = u (s·w)^ω.
        while let Some(&last) = stem.last() {
            if last != *cycle.last().expect("cycle nonempty") {
                break;
            }
            stem.pop();
            cycle.rotate_right(1);
        }
        LassoWord { stem, cycle }
    }

    /// The purely periodic word `cycle^ω`.
    ///
    /// # Panics
    ///
    /// Panics if `cycle` is empty.
    #[must_use]
    pub fn periodic(cycle: &Word) -> Self {
        LassoWord::new(&Word::empty(), cycle)
    }

    /// The constant word `sym^ω`.
    #[must_use]
    pub fn constant(sym: Symbol) -> Self {
        LassoWord {
            stem: Vec::new(),
            cycle: vec![sym],
        }
    }

    /// Parses stem and cycle from space-separated symbol names.
    ///
    /// # Panics
    ///
    /// Panics on unknown symbols or an empty cycle.
    #[must_use]
    pub fn parse(alphabet: &Alphabet, stem: &str, cycle: &str) -> Self {
        LassoWord::new(&Word::parse(alphabet, stem), &Word::parse(alphabet, cycle))
    }

    /// The canonical stem (possibly empty).
    #[must_use]
    pub fn stem(&self) -> Word {
        Word::new(&self.stem)
    }

    /// The canonical (primitive) cycle.
    #[must_use]
    pub fn cycle(&self) -> Word {
        Word::new(&self.cycle)
    }

    /// Length of the canonical stem.
    #[must_use]
    pub fn stem_len(&self) -> usize {
        self.stem.len()
    }

    /// Length of the canonical cycle (the eventual period).
    #[must_use]
    pub fn period(&self) -> usize {
        self.cycle.len()
    }

    /// The symbol at position `i` (the paper's `t.i`); total since the
    /// word is infinite.
    #[must_use]
    pub fn at(&self, i: usize) -> Symbol {
        if i < self.stem.len() {
            self.stem[i]
        } else {
            self.cycle[(i - self.stem.len()) % self.cycle.len()]
        }
    }

    /// The first symbol — what Rem's properties p1/p2 inspect.
    #[must_use]
    pub fn first(&self) -> Symbol {
        self.at(0)
    }

    /// The suffix ω-word starting at position `k`.
    #[must_use]
    pub fn suffix(&self, k: usize) -> LassoWord {
        if k <= self.stem.len() {
            LassoWord::new(&Word::new(&self.stem[k..]), &Word::new(&self.cycle))
        } else {
            let shift = (k - self.stem.len()) % self.cycle.len();
            let mut cycle = self.cycle.clone();
            cycle.rotate_left(shift);
            LassoWord::new(&Word::empty(), &Word::new(&cycle))
        }
    }

    /// The finite prefix of length `n` (the finite prefixes `x ⊏ t` that
    /// the closure `lcl` quantifies over).
    #[must_use]
    pub fn prefix(&self, n: usize) -> Word {
        (0..n).map(|i| self.at(i)).collect()
    }

    /// Prepends a finite word: `w · self`.
    #[must_use]
    pub fn prepend(&self, w: &Word) -> LassoWord {
        LassoWord::new(&w.concat(&self.stem()), &self.cycle())
    }

    /// Positions `0..bound` where each distinct "phase" of the word
    /// occurs: every suffix of the word equals the suffix at one of these
    /// positions. `bound = stem_len + period`.
    #[must_use]
    pub fn phase_count(&self) -> usize {
        self.stem.len() + self.cycle.len()
    }

    /// The successor phase of `i` within `0..phase_count()`: `i + 1`,
    /// wrapping from the last phase back to the start of the cycle.
    /// Evaluators (LTL, automata products) walk phases with this.
    #[must_use]
    pub fn next_phase(&self, i: usize) -> usize {
        if i + 1 < self.phase_count() {
            i + 1
        } else {
            self.stem.len()
        }
    }

    /// Whether the symbol `sym` occurs infinitely often (i.e. occurs in
    /// the cycle) — the shape of Rem's p5 (`GF a`).
    #[must_use]
    pub fn infinitely_often(&self, sym: Symbol) -> bool {
        self.cycle.contains(&sym)
    }

    /// Whether the symbol `sym` occurs only finitely often — Rem's p4
    /// (`FG ¬a` asks this of `a`).
    #[must_use]
    pub fn finitely_often(&self, sym: Symbol) -> bool {
        !self.infinitely_often(sym)
    }

    /// Whether `sym` occurs anywhere in the word.
    #[must_use]
    pub fn contains(&self, sym: Symbol) -> bool {
        self.stem.contains(&sym) || self.cycle.contains(&sym)
    }

    /// Renders the word as `stem (cycle)^ω` with alphabet names.
    #[must_use]
    pub fn display(&self, alphabet: &Alphabet) -> String {
        let stem = self.stem().display(alphabet);
        let cycle = self.cycle().display(alphabet);
        if stem.is_empty() {
            format!("({cycle})^w")
        } else {
            format!("{stem} ({cycle})^w")
        }
    }
}

impl fmt::Display for LassoWord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})^w", self.stem(), self.cycle())
    }
}

/// Enumerates all distinct lasso words with stem length at most
/// `max_stem` and cycle length at most `max_cycle`, deduplicated via the
/// canonical form. This is the standard sample space for cross-checking
/// ω-language identities.
///
/// Words come in a fixed order — stems, then cycles, each in
/// [`all_words`] order, keeping the first occurrence of each canonical
/// word — so callers that report the first failing lasso report the
/// same one every time.
#[must_use]
pub fn all_lassos(alphabet: &Alphabet, max_stem: usize, max_cycle: usize) -> Vec<LassoWord> {
    assert!(max_cycle >= 1, "need cycles of length at least 1");
    let stems = all_words(alphabet, max_stem);
    let cycles: Vec<Word> = all_words(alphabet, max_cycle)
        .into_iter()
        .filter(|w| !w.is_empty())
        .collect();
    let mut seen: HashSet<LassoWord> = HashSet::new();
    let mut out: Vec<LassoWord> = Vec::new();
    for stem in &stems {
        for cycle in &cycles {
            let lasso = LassoWord::new(stem, cycle);
            if seen.insert(lasso.clone()) {
                out.push(lasso);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sigma() -> Alphabet {
        Alphabet::ab()
    }

    #[test]
    fn primitive_root_detection() {
        let s = sigma();
        let abab = Word::parse(&s, "a b a b");
        assert_eq!(primitive_root_len(abab.as_slice()), 2);
        let aaa = Word::parse(&s, "a a a");
        assert_eq!(primitive_root_len(aaa.as_slice()), 1);
        let aab = Word::parse(&s, "a a b");
        assert_eq!(primitive_root_len(aab.as_slice()), 3);
    }

    #[test]
    fn normalization_identifies_equal_words() {
        let s = sigma();
        // a (ba)^ω = (ab)^ω.
        assert_eq!(
            LassoWord::parse(&s, "a", "b a"),
            LassoWord::parse(&s, "", "a b")
        );
        // ab (ab)^ω = (ab)^ω.
        assert_eq!(
            LassoWord::parse(&s, "a b", "a b"),
            LassoWord::parse(&s, "", "a b")
        );
        // a (aa)^ω = (a)^ω.
        assert_eq!(
            LassoWord::parse(&s, "a", "a a"),
            LassoWord::parse(&s, "", "a")
        );
        // b a^ω stays distinct from a^ω.
        assert_ne!(
            LassoWord::parse(&s, "b", "a"),
            LassoWord::parse(&s, "", "a")
        );
    }

    #[test]
    fn normalization_agrees_with_unrolling() {
        // Two lassos are equal iff their long unrollings agree; check the
        // canonical form against that ground truth over a small space.
        let s = sigma();
        let lassos = all_lassos(&s, 2, 2);
        for x in &lassos {
            for y in &lassos {
                let same_unroll = x.prefix(24) == y.prefix(24);
                assert_eq!(same_unroll, x == y, "{x} vs {y}");
            }
        }
    }

    #[test]
    fn at_walks_stem_then_cycle() {
        let s = sigma();
        let w = LassoWord::parse(&s, "b b", "a b");
        let names: Vec<&str> = (0..6).map(|i| s.name(w.at(i))).collect();
        assert_eq!(names, vec!["b", "b", "a", "b", "a", "b"]);
    }

    #[test]
    fn suffix_within_stem_and_cycle() {
        let s = sigma();
        let w = LassoWord::parse(&s, "b b", "a b");
        assert_eq!(w.suffix(1), LassoWord::parse(&s, "b", "a b"));
        assert_eq!(w.suffix(2), LassoWord::parse(&s, "", "a b"));
        // Suffix inside the cycle rotates it.
        assert_eq!(w.suffix(3), LassoWord::parse(&s, "", "b a"));
        assert_eq!(w.suffix(5), LassoWord::parse(&s, "", "b a"));
        // suffix(k) then at(i) equals at(k + i).
        for k in 0..8 {
            let suf = w.suffix(k);
            for i in 0..8 {
                assert_eq!(suf.at(i), w.at(k + i));
            }
        }
    }

    #[test]
    fn prefix_and_prepend() {
        let s = sigma();
        let w = LassoWord::parse(&s, "", "a b");
        assert_eq!(w.prefix(3), Word::parse(&s, "a b a"));
        let v = w.prepend(&Word::parse(&s, "b"));
        assert_eq!(v, LassoWord::parse(&s, "b", "a b"));
    }

    #[test]
    fn phase_arithmetic() {
        let s = sigma();
        let w = LassoWord::parse(&s, "b", "a b");
        // Canonical: stem "b"? last of stem 'b' == last of cycle 'b':
        // absorbed -> stem "", cycle "b a". phase_count = 2.
        assert_eq!(w.stem_len(), 0);
        assert_eq!(w.phase_count(), 2);
        assert_eq!(w.next_phase(0), 1);
        assert_eq!(w.next_phase(1), 0);
    }

    #[test]
    fn occurrence_predicates() {
        let s = sigma();
        let a = s.symbol("a").unwrap();
        let b = s.symbol("b").unwrap();
        let w = LassoWord::parse(&s, "a", "b");
        assert!(w.contains(a) && w.contains(b));
        assert!(w.finitely_often(a));
        assert!(w.infinitely_often(b));
        assert_eq!(s.name(w.first()), "a");
    }

    #[test]
    fn constant_word() {
        let s = sigma();
        let a = s.symbol("a").unwrap();
        let w = LassoWord::constant(a);
        assert_eq!(w, LassoWord::parse(&s, "", "a"));
        assert!(w.infinitely_often(a));
    }

    #[test]
    fn all_lassos_distinct_and_complete() {
        let s = sigma();
        let lassos = all_lassos(&s, 1, 2);
        // All pairwise distinct by construction.
        for (i, x) in lassos.iter().enumerate() {
            for y in &lassos[i + 1..] {
                assert_ne!(x, y);
            }
        }
        // Contains the obvious ones.
        assert!(lassos.contains(&LassoWord::parse(&s, "", "a")));
        assert!(lassos.contains(&LassoWord::parse(&s, "", "a b")));
        assert!(lassos.contains(&LassoWord::parse(&s, "b", "a")));
        // The order is the first-occurrence order of the quadratic
        // `Vec::contains` deduplication, kept here as the reference.
        let reference = |alphabet: &Alphabet, max_stem: usize, max_cycle: usize| {
            let mut out: Vec<LassoWord> = Vec::new();
            for stem in &all_words(alphabet, max_stem) {
                for cycle in all_words(alphabet, max_cycle)
                    .iter()
                    .filter(|w| !w.is_empty())
                {
                    let lasso = LassoWord::new(stem, cycle);
                    if !out.contains(&lasso) {
                        out.push(lasso);
                    }
                }
            }
            out
        };
        let abc = Alphabet::new(&["a", "b", "c"]);
        for (alphabet, max_stem, max_cycle) in [(&s, 2, 3), (&s, 1, 2), (&abc, 2, 2)] {
            assert_eq!(
                all_lassos(alphabet, max_stem, max_cycle),
                reference(alphabet, max_stem, max_cycle),
                "stem <= {max_stem}, cycle <= {max_cycle}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "lasso cycle must be nonempty")]
    fn empty_cycle_panics() {
        let s = sigma();
        let _ = LassoWord::new(&Word::parse(&s, "a"), &Word::empty());
    }

    #[test]
    fn display_formats() {
        let s = sigma();
        assert_eq!(LassoWord::parse(&s, "", "a").display(&s), "(a)^w");
        assert_eq!(LassoWord::parse(&s, "b", "a").display(&s), "b (a)^w");
    }
}
