//! Kripke structures: the finite generators of total trees.
//!
//! The branching-time framework interprets properties over total trees;
//! the trees that arise in practice are unwindings of finite
//! state-transition graphs. A [`Kripke`] structure here labels each
//! state with one alphabet symbol (matching the workspace's convention
//! that atomic propositions are the symbols of Σ), and every state has
//! at least one successor so unwindings are total.

use sl_omega::{Alphabet, Symbol};

/// A finite Kripke structure with symbol-labeled states.
///
/// Successors are stored as compressed sparse rows: state `s`'s
/// successors are `targets[offsets[s]..offsets[s + 1]]`, in the order
/// they were given.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Kripke {
    alphabet: Alphabet,
    labels: Vec<Symbol>,
    offsets: Vec<usize>,
    targets: Vec<usize>,
    initial: usize,
}

impl Kripke {
    /// Builds a structure from one successor list per state, flattened
    /// into rows (see [`Kripke::from_rows`]).
    ///
    /// # Panics
    ///
    /// Panics if there are no states, lengths mismatch, a successor or
    /// label is out of range, some state has no successor, or `initial`
    /// is out of range.
    #[must_use]
    pub fn new(
        alphabet: Alphabet,
        labels: Vec<Symbol>,
        succ: Vec<Vec<usize>>,
        initial: usize,
    ) -> Self {
        let mut offsets = Vec::with_capacity(succ.len() + 1);
        offsets.push(0);
        let mut targets = Vec::with_capacity(succ.iter().map(Vec::len).sum());
        for row in &succ {
            targets.extend_from_slice(row);
            offsets.push(targets.len());
        }
        Kripke::from_rows(alphabet, labels, offsets, targets, initial)
    }

    /// Builds a structure from compressed sparse rows: state `s`'s
    /// successors are `targets[offsets[s]..offsets[s + 1]]`.
    ///
    /// # Panics
    ///
    /// Panics if there are no states, `offsets` does not hold one entry
    /// per state plus one, the offsets do not rise from 0 to
    /// `targets.len()`, a successor or label is out of range, some state
    /// has no successor, or `initial` is out of range.
    #[must_use]
    pub fn from_rows(
        alphabet: Alphabet,
        labels: Vec<Symbol>,
        offsets: Vec<usize>,
        targets: Vec<usize>,
        initial: usize,
    ) -> Self {
        let n = labels.len();
        assert!(n > 0, "need at least one state");
        assert_eq!(offsets.len(), n + 1, "successor list length mismatch");
        assert!(
            offsets[0] == 0 && offsets[n] == targets.len(),
            "successor offsets must run from 0 to the target count"
        );
        assert!(initial < n, "initial state out of range");
        for &label in &labels {
            assert!(label.index() < alphabet.len(), "label out of alphabet");
        }
        for (state, row) in offsets.windows(2).enumerate() {
            assert!(row[0] <= row[1], "successor offsets must not decrease");
            assert!(row[0] < row[1], "state {state} has no successors");
            for &t in &targets[row[0]..row[1]] {
                assert!(t < n, "successor out of range");
            }
        }
        Kripke {
            alphabet,
            labels,
            offsets,
            targets,
            initial,
        }
    }

    /// The alphabet.
    #[must_use]
    pub fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    /// Number of states.
    #[must_use]
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Always false (at least one state).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The initial state.
    #[must_use]
    pub fn initial(&self) -> usize {
        self.initial
    }

    /// The label of a state.
    #[must_use]
    pub fn label(&self, state: usize) -> Symbol {
        self.labels[state]
    }

    /// Successors of a state (nonempty).
    #[must_use]
    pub fn successors(&self, state: usize) -> &[usize] {
        &self.targets[self.offsets[state]..self.offsets[state + 1]]
    }

    /// States reachable from the initial state.
    #[must_use]
    pub fn reachable(&self) -> Vec<bool> {
        let mut seen = vec![false; self.len()];
        seen[self.initial] = true;
        let mut stack = vec![self.initial];
        while let Some(s) = stack.pop() {
            for &t in self.successors(s) {
                if !seen[t] {
                    seen[t] = true;
                    stack.push(t);
                }
            }
        }
        seen
    }

    /// A copy rooted at a different initial state.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range.
    #[must_use]
    pub fn rooted_at(&self, state: usize) -> Kripke {
        assert!(state < self.len(), "state out of range");
        let mut out = self.clone();
        out.initial = state;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sigma() -> Alphabet {
        Alphabet::ab()
    }

    /// Two states: 0 labeled a loops to itself and to 1; 1 labeled b
    /// loops to itself.
    fn simple() -> Kripke {
        let s = sigma();
        let a = s.symbol("a").unwrap();
        let b = s.symbol("b").unwrap();
        Kripke::new(s, vec![a, b], vec![vec![0, 1], vec![1]], 0)
    }

    #[test]
    fn accessors() {
        let k = simple();
        assert_eq!(k.len(), 2);
        assert_eq!(k.initial(), 0);
        assert_eq!(k.label(1), sigma().symbol("b").unwrap());
        assert_eq!(k.successors(0), &[0, 1]);
    }

    #[test]
    fn reachability() {
        let k = simple();
        assert_eq!(k.reachable(), vec![true, true]);
        let k1 = k.rooted_at(1);
        assert_eq!(k1.reachable(), vec![false, true]);
    }

    #[test]
    #[should_panic(expected = "has no successors")]
    fn totality_enforced() {
        let s = sigma();
        let a = s.symbol("a").unwrap();
        let _ = Kripke::new(s, vec![a], vec![vec![]], 0);
    }

    #[test]
    fn rows_and_lists_build_the_same_structure() {
        let s = sigma();
        let a = s.symbol("a").unwrap();
        let b = s.symbol("b").unwrap();
        let rows = Kripke::from_rows(s, vec![a, b], vec![0, 2, 3], vec![0, 1, 1], 0);
        assert_eq!(rows, simple());
        assert_eq!(rows.successors(1), &[1]);
    }

    #[test]
    #[should_panic(expected = "successor list length mismatch")]
    fn row_count_checked() {
        let s = sigma();
        let a = s.symbol("a").unwrap();
        let _ = Kripke::from_rows(s, vec![a, a], vec![0, 1], vec![0], 0);
    }

    #[test]
    #[should_panic(expected = "successor offsets must run from 0 to the target count")]
    fn row_span_checked() {
        let s = sigma();
        let a = s.symbol("a").unwrap();
        let _ = Kripke::from_rows(s, vec![a], vec![0, 1], vec![0, 0], 0);
    }

    #[test]
    #[should_panic(expected = "successor offsets must not decrease")]
    fn row_order_checked() {
        let s = sigma();
        let a = s.symbol("a").unwrap();
        let _ = Kripke::from_rows(s, vec![a, a, a], vec![0, 2, 1, 3], vec![0, 1, 2], 0);
    }

    #[test]
    #[should_panic(expected = "successor out of range")]
    fn successors_checked() {
        let s = sigma();
        let a = s.symbol("a").unwrap();
        let _ = Kripke::new(s, vec![a], vec![vec![1]], 0);
    }

    #[test]
    #[should_panic(expected = "initial state out of range")]
    fn initial_checked() {
        let s = sigma();
        let a = s.symbol("a").unwrap();
        let _ = Kripke::new(s, vec![a], vec![vec![0]], 3);
    }
}
