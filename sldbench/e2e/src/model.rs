//! The benchmark's own view of what it sends: Büchi automata over {a, b}
//! (rendered as HOA in the fragment `sld` accepts) and total Kripke
//! models (rendered as `check` operands). Nothing here is shared with
//! the daemon's code.

use std::fmt::Write as _;

/// The alphabet every generated automaton uses, in symbol order.
pub const SYMBOLS: [&str; 2] = ["a", "b"];

/// A nondeterministic Büchi automaton with state-based acceptance.
/// `succ[q][s]` lists the successors of `q` on symbol `s`, sorted and
/// without repeats.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Nba {
    /// Start state.
    pub initial: usize,
    /// Büchi acceptance per state.
    pub accepting: Vec<bool>,
    /// Successor lists per state and symbol.
    pub succ: Vec<[Vec<usize>; 2]>,
}

impl Nba {
    /// Number of states.
    #[must_use]
    pub fn len(&self) -> usize {
        self.succ.len()
    }

    /// Whether the automaton has no states (never true for generated ones).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.succ.is_empty()
    }

    /// Number of transitions.
    #[must_use]
    pub fn transitions(&self) -> usize {
        self.succ
            .iter()
            .map(|row| row[0].len() + row[1].len())
            .sum()
    }

    /// HOA v1 text with one-hot symbol labels, as `sld` reads it.
    #[must_use]
    pub fn to_hoa(&self, name: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "HOA: v1");
        let _ = writeln!(out, "name: \"{name}\"");
        let _ = writeln!(out, "States: {}", self.len());
        let _ = writeln!(out, "Start: {}", self.initial);
        let _ = writeln!(out, "AP: 2 \"a\" \"b\"");
        let _ = writeln!(out, "acc-name: Buchi");
        let _ = writeln!(out, "Acceptance: 1 Inf(0)");
        let _ = writeln!(out, "properties: trans-labels explicit-labels state-acc");
        let _ = writeln!(out, "--BODY--");
        for (q, row) in self.succ.iter().enumerate() {
            if self.accepting[q] {
                let _ = writeln!(out, "State: {q} {{0}}");
            } else {
                let _ = writeln!(out, "State: {q}");
            }
            for (label, targets) in ["[0&!1]", "[!0&1]"].iter().zip(row.iter()) {
                for t in targets {
                    let _ = writeln!(out, "{label} {t}");
                }
            }
        }
        let _ = writeln!(out, "--END--");
        out
    }

    /// Whether the automaton is deterministic (at most one successor per
    /// state and symbol).
    #[must_use]
    pub fn is_deterministic(&self) -> bool {
        self.succ
            .iter()
            .all(|row| row[0].len() <= 1 && row[1].len() <= 1)
    }
}

/// A finite Kripke model with a total transition relation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Kripke {
    /// Successor lists; every list is nonempty.
    pub succ: Vec<Vec<usize>>,
    /// Start state.
    pub initial: usize,
    /// Bad states, sorted.
    pub bad: Vec<usize>,
}

impl Kripke {
    /// The `model` and `bad` operands of a `check` request, as JSON text.
    #[must_use]
    pub fn operands_json(&self) -> String {
        let mut out = String::from("\"model\":{\"succ\":[");
        for (i, row) in self.succ.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('[');
            for (j, t) in row.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{t}");
            }
            out.push(']');
        }
        let _ = write!(out, "],\"initial\":{}}},\"bad\":[", self.initial);
        for (j, b) in self.bad.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "{b}");
        }
        out.push(']');
        out
    }
}

/// A lasso word `stem cycle^ω` over symbol indices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lasso {
    /// Finite prefix.
    pub stem: Vec<usize>,
    /// Repeated part (nonempty).
    pub cycle: Vec<usize>,
}

impl Lasso {
    /// Parses the daemon's rendering: `"a b (b a)^w"` or `"(a)^w"`.
    #[must_use]
    pub fn parse(text: &str) -> Option<Lasso> {
        let open = text.find('(')?;
        let body = text[open + 1..].strip_suffix(")^w")?;
        let symbols = |part: &str| -> Option<Vec<usize>> {
            part.split_whitespace()
                .map(|name| SYMBOLS.iter().position(|s| *s == name))
                .collect()
        };
        let stem = symbols(&text[..open])?;
        let cycle = symbols(body)?;
        if cycle.is_empty() {
            return None;
        }
        Some(Lasso { stem, cycle })
    }

    /// Renders in the daemon's format (for tests and diagnostics).
    #[must_use]
    pub fn render(&self) -> String {
        let join = |w: &[usize]| w.iter().map(|&s| SYMBOLS[s]).collect::<Vec<_>>().join(" ");
        if self.stem.is_empty() {
            format!("({})^w", join(&self.cycle))
        } else {
            format!("{} ({})^w", join(&self.stem), join(&self.cycle))
        }
    }
}
