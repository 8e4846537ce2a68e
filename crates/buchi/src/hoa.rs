//! Export to — and import from — the Hanoi Omega-Automata (HOA) format.
//!
//! HOA is the interchange format understood by Spot, Owl, and the rest
//! of the ω-automata ecosystem; exporting lets the automata produced
//! here (tableau translations, closures, decomposition parts) be
//! inspected and cross-validated with external tooling, and
//! [`from_hoa`] is the ingest format of the `sld` query daemon
//! (`sl-service`): a `define` request may carry an automaton as HOA
//! text instead of an LTL formula.
//!
//! The encoding maps each alphabet symbol to one atomic proposition and
//! labels a transition on symbol `i` with the conjunction
//! `ap_i ∧ ⋀_{j≠i} ¬ap_j` — the standard embedding of a
//! symbol-alphabet automaton into HOA's AP-based edge labels.
//! [`from_hoa`] accepts exactly this state-based Büchi fragment
//! (`Acceptance: 1 Inf(0)`, one-hot explicit edge labels) and
//! round-trips [`to_hoa`] output bit-exactly; anything outside the
//! fragment is rejected with a line-numbered
//! [`SlError::InvalidInput`] diagnostic instead of a panic — the text
//! crosses a trust boundary when it arrives over the daemon protocol.

use crate::automaton::{Buchi, BuchiBuilder};
use sl_omega::Alphabet;
use sl_support::SlError;
use std::fmt::Write as _;

/// Renders the automaton in HOA v1 syntax with state-based Büchi
/// acceptance.
///
/// # Examples
///
/// ```
/// use sl_buchi::{hoa::to_hoa, Buchi};
/// use sl_omega::Alphabet;
///
/// let text = to_hoa(&Buchi::universal(Alphabet::ab()), "universal");
/// assert!(text.starts_with("HOA: v1"));
/// assert!(text.contains("acc-name: Buchi"));
/// ```
#[must_use]
pub fn to_hoa(b: &Buchi, name: &str) -> String {
    let sigma = b.alphabet();
    let mut out = String::new();
    let _ = writeln!(out, "HOA: v1");
    let _ = writeln!(out, "name: \"{name}\"");
    let _ = writeln!(out, "States: {}", b.num_states());
    let _ = writeln!(out, "Start: {}", b.initial());
    let aps: Vec<String> = sigma
        .symbols()
        .map(|s| format!("\"{}\"", sigma.name(s)))
        .collect();
    let _ = writeln!(out, "AP: {} {}", sigma.len(), aps.join(" "));
    let _ = writeln!(out, "acc-name: Buchi");
    let _ = writeln!(out, "Acceptance: 1 Inf(0)");
    let _ = writeln!(out, "properties: trans-labels explicit-labels state-acc");
    let _ = writeln!(out, "--BODY--");
    // One-hot label per symbol: this symbol true, all others false.
    let labels: Vec<String> = sigma
        .symbols()
        .map(|sym| {
            let mut label = String::from("[");
            for (i, s) in sigma.symbols().enumerate() {
                if i > 0 {
                    label.push('&');
                }
                if s != sym {
                    label.push('!');
                }
                let _ = write!(label, "{}", s.index());
            }
            label.push_str("] ");
            label
        })
        .collect();
    for q in 0..b.num_states() {
        if b.is_accepting(q) {
            let _ = writeln!(out, "State: {q} {{0}}");
        } else {
            let _ = writeln!(out, "State: {q}");
        }
        for (sym, label) in sigma.symbols().zip(&labels) {
            for &succ in b.successors(q, sym) {
                out.push_str(label);
                let _ = writeln!(out, "{succ}");
            }
        }
    }
    let _ = writeln!(out, "--END--");
    out
}

/// A line-numbered ingest error: every rejection names the offending
/// line (1-based) so daemon clients can point at their input.
fn bad(line_no: usize, message: impl std::fmt::Display) -> SlError {
    SlError::InvalidInput(format!("hoa line {line_no}: {message}"))
}

/// Parses the quoted strings of an `AP:` header tail (`2 "a" "b"`).
fn parse_ap_names(tail: &str, line_no: usize) -> Result<Vec<String>, SlError> {
    let tail = tail.trim();
    let (count_text, names_text) = tail
        .split_once(char::is_whitespace)
        .ok_or_else(|| bad(line_no, "AP header needs a count and quoted names"))?;
    let count: usize = count_text
        .parse()
        .map_err(|_| bad(line_no, format!("AP count `{count_text}` is not a number")))?;
    // The count comes from untrusted text; bound it before it sizes an
    // allocation. `Alphabet` holds at most `u16::MAX` symbols, and each
    // declared name occupies at least two bytes (`""`) of the tail, so
    // a count beyond either bound cannot be satisfied anyway.
    if count > usize::from(u16::MAX) {
        return Err(bad(
            line_no,
            format!(
                "AP count {count} exceeds the {} propositions an alphabet supports",
                u16::MAX
            ),
        ));
    }
    if count > names_text.len() {
        return Err(bad(
            line_no,
            format!("AP count {count} is larger than the header could possibly list"),
        ));
    }
    let mut names = Vec::with_capacity(count);
    let mut rest = names_text.trim();
    while !rest.is_empty() {
        let Some(stripped) = rest.strip_prefix('"') else {
            return Err(bad(
                line_no,
                format!("expected a quoted AP name at `{rest}`"),
            ));
        };
        let Some(end) = stripped.find('"') else {
            return Err(bad(line_no, "unterminated AP name quote"));
        };
        names.push(stripped[..end].to_string());
        rest = stripped[end + 1..].trim_start();
    }
    if names.len() != count {
        return Err(bad(
            line_no,
            format!(
                "AP header declares {count} propositions but lists {}",
                names.len()
            ),
        ));
    }
    if names.is_empty() {
        return Err(bad(line_no, "automaton needs at least one proposition"));
    }
    let mut seen = std::collections::HashSet::new();
    for name in &names {
        if !seen.insert(name.as_str()) {
            return Err(bad(
                line_no,
                format!("duplicate proposition name \"{name}\""),
            ));
        }
    }
    Ok(names)
}

/// Parses a one-hot edge label (`0&!1&!2` style): a conjunction of
/// literals over the AP indices with exactly one positive literal,
/// whose index is the transition's symbol.
fn parse_one_hot(label: &str, ap_count: usize, line_no: usize) -> Result<usize, SlError> {
    let mut positive: Option<usize> = None;
    for literal in label.split('&') {
        let literal = literal.trim();
        let (negated, index_text) = match literal.strip_prefix('!') {
            Some(rest) => (true, rest.trim()),
            None => (false, literal),
        };
        let index: usize = index_text.parse().map_err(|_| {
            bad(
                line_no,
                format!("label literal `{literal}` is not an AP index"),
            )
        })?;
        if index >= ap_count {
            return Err(bad(
                line_no,
                format!("label references AP {index} but only {ap_count} are declared"),
            ));
        }
        if !negated {
            if positive.is_some() {
                return Err(bad(
                    line_no,
                    "label has more than one positive proposition; only one-hot \
                     symbol labels are supported",
                ));
            }
            positive = Some(index);
        }
    }
    positive.ok_or_else(|| {
        bad(
            line_no,
            "label has no positive proposition; one-hot symbol labels need exactly one",
        )
    })
}

/// Parses HOA v1 text in the fragment [`to_hoa`] emits — state-based
/// Büchi acceptance (`Acceptance: 1 Inf(0)`), explicit one-hot edge
/// labels mapping atomic propositions to alphabet symbols — and
/// rebuilds the automaton. `from_hoa(&to_hoa(b, name))` reproduces `b`
/// exactly (the round-trip property in `tests/property_based.rs`).
///
/// Unknown header keys are ignored (HOA tooling adds informative
/// headers freely); structural problems are rejected.
///
/// # Errors
///
/// [`SlError::InvalidInput`] with a line-numbered message on malformed
/// text: a missing `HOA:` preamble, a non-Büchi acceptance condition,
/// out-of-range states or AP indices, labels that are not one-hot,
/// edges before the first `State:` header, or a truncated body.
pub fn from_hoa(text: &str) -> Result<Buchi, SlError> {
    let total_lines = text.lines().count();
    let mut states: Option<usize> = None;
    let mut start: Option<usize> = None;
    let mut ap_names: Option<Vec<String>> = None;
    let mut acceptance_ok = false;
    let mut saw_preamble = false;
    let mut body_at = None;

    let mut lines = text.lines().enumerate();
    for (i, raw) in lines.by_ref() {
        let line_no = i + 1;
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        if !saw_preamble {
            let version = line
                .strip_prefix("HOA:")
                .ok_or_else(|| bad(line_no, "expected the `HOA: v1` preamble"))?;
            if version.trim() != "v1" {
                return Err(bad(
                    line_no,
                    format!("unsupported HOA version `{}`", version.trim()),
                ));
            }
            saw_preamble = true;
            continue;
        }
        if line == "--BODY--" {
            body_at = Some(line_no);
            break;
        }
        let Some((key, tail)) = line.split_once(':') else {
            return Err(bad(line_no, format!("malformed header line `{line}`")));
        };
        let tail = tail.trim();
        match key.trim() {
            "States" => {
                let n: usize = tail
                    .parse()
                    .map_err(|_| bad(line_no, format!("state count `{tail}` is not a number")))?;
                if n == 0 {
                    return Err(bad(line_no, "automaton needs at least one state"));
                }
                // The count comes from untrusted text and later sizes
                // allocations. In the accepted fragment every state has
                // its own `State:` line, so a count beyond the input's
                // line count cannot be honest — reject it before it can
                // drive an absurd allocation.
                if n > total_lines {
                    return Err(bad(
                        line_no,
                        format!("state count {n} exceeds the {total_lines} lines of input"),
                    ));
                }
                states = Some(n);
            }
            "Start" => {
                start =
                    Some(tail.parse().map_err(|_| {
                        bad(line_no, format!("start state `{tail}` is not a number"))
                    })?);
            }
            "AP" => ap_names = Some(parse_ap_names(tail, line_no)?),
            "Acceptance" => {
                if tail.split_whitespace().collect::<Vec<_>>() != ["1", "Inf(0)"] {
                    return Err(bad(
                        line_no,
                        format!(
                            "acceptance `{tail}` is not state-based Büchi; only \
                             `Acceptance: 1 Inf(0)` is supported"
                        ),
                    ));
                }
                acceptance_ok = true;
            }
            // Informative headers (name, acc-name, properties, tool, ...)
            // carry no structure we need.
            _ => {}
        }
    }

    if !saw_preamble {
        return Err(bad(1, "expected the `HOA: v1` preamble"));
    }
    let body_line = body_at.ok_or_else(|| bad(text.lines().count(), "missing --BODY--"))?;
    let n = states.ok_or_else(|| bad(body_line, "missing States header"))?;
    let start = start.ok_or_else(|| bad(body_line, "missing Start header"))?;
    let names = ap_names.ok_or_else(|| bad(body_line, "missing AP header"))?;
    if !acceptance_ok {
        return Err(bad(body_line, "missing Acceptance header"));
    }
    if start >= n {
        return Err(bad(
            body_line,
            format!("start state {start} out of range (States: {n})"),
        ));
    }

    let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
    let sigma = Alphabet::new(&name_refs);
    let mut accepting = vec![false; n];
    let mut edges: Vec<(usize, usize, usize)> = Vec::new();
    let mut current: Option<usize> = None;
    let mut ended = false;

    for (i, raw) in lines {
        let line_no = i + 1;
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        if ended {
            return Err(bad(line_no, "content after --END--"));
        }
        if line == "--END--" {
            ended = true;
            continue;
        }
        if let Some(tail) = line.strip_prefix("State:") {
            let tail = tail.trim();
            let (index_text, marker) = match tail.split_once(char::is_whitespace) {
                Some((idx, rest)) => (idx, rest.trim()),
                None => (tail, ""),
            };
            let q: usize = index_text
                .parse()
                .map_err(|_| bad(line_no, format!("state id `{index_text}` is not a number")))?;
            if q >= n {
                return Err(bad(
                    line_no,
                    format!("state {q} out of range (States: {n})"),
                ));
            }
            match marker {
                "" => {}
                "{0}" => accepting[q] = true,
                other => {
                    return Err(bad(
                        line_no,
                        format!(
                            "unsupported state annotation `{other}`; only `{{0}}` is recognized"
                        ),
                    ))
                }
            }
            current = Some(q);
            continue;
        }
        if let Some(tail) = line.strip_prefix('[') {
            let from =
                current.ok_or_else(|| bad(line_no, "edge before the first State: header"))?;
            let (label, succ_text) = tail
                .split_once(']')
                .ok_or_else(|| bad(line_no, "unterminated edge label"))?;
            let sym_index = parse_one_hot(label, sigma.len(), line_no)?;
            let succ: usize = succ_text.trim().parse().map_err(|_| {
                bad(
                    line_no,
                    format!("edge target `{}` is not a state id", succ_text.trim()),
                )
            })?;
            if succ >= n {
                return Err(bad(
                    line_no,
                    format!("edge target {succ} out of range (States: {n})"),
                ));
            }
            edges.push((from, sym_index, succ));
            continue;
        }
        return Err(bad(line_no, format!("unrecognized body line `{line}`")));
    }
    if !ended {
        return Err(bad(text.lines().count(), "missing --END--"));
    }

    // Accepting flags are fixed at add_state time, so the automaton is
    // assembled only now that the whole body has been validated.
    let mut builder = BuchiBuilder::new(sigma.clone());
    for &acc in &accepting {
        builder.add_state(acc);
    }
    let symbols: Vec<_> = sigma.symbols().collect();
    for (from, sym_index, succ) in edges {
        builder.add_transition(from, symbols[sym_index], succ);
    }
    Ok(builder.build(start))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automaton::BuchiBuilder;
    use sl_omega::Alphabet;

    fn gfa() -> Buchi {
        let sigma = Alphabet::ab();
        let a = sigma.symbol("a").unwrap();
        let b = sigma.symbol("b").unwrap();
        let mut builder = BuchiBuilder::new(sigma);
        let q0 = builder.add_state(false);
        let qa = builder.add_state(true);
        builder.add_transition(q0, b, q0);
        builder.add_transition(q0, a, qa);
        builder.add_transition(qa, b, q0);
        builder.add_transition(qa, a, qa);
        builder.build(q0)
    }

    #[test]
    fn header_fields() {
        let text = to_hoa(&gfa(), "GF a");
        assert!(text.starts_with("HOA: v1\n"));
        assert!(text.contains("name: \"GF a\""));
        assert!(text.contains("States: 2"));
        assert!(text.contains("Start: 0"));
        assert!(text.contains("AP: 2 \"a\" \"b\""));
        assert!(text.contains("Acceptance: 1 Inf(0)"));
    }

    #[test]
    fn body_structure() {
        let text = to_hoa(&gfa(), "GF a");
        // Accepting state carries the {0} marker.
        assert!(text.contains("State: 1 {0}"));
        assert!(text.contains("State: 0\n"));
        // One-hot labels for both symbols appear.
        assert!(text.contains("[0&!1] 1")); // q0 --a--> qa
        assert!(text.contains("[!0&1] 0")); // q0 --b--> q0
        assert!(text.ends_with("--END--\n"));
    }

    #[test]
    fn transition_count_matches() {
        let m = gfa();
        let text = to_hoa(&m, "m");
        let edges = text.lines().filter(|l| l.starts_with('[')).count();
        assert_eq!(edges, m.num_transitions());
    }

    #[test]
    fn empty_language_automaton_exports() {
        let sigma = Alphabet::ab();
        let text = to_hoa(&Buchi::empty_language(sigma), "empty");
        assert!(text.contains("States: 1"));
        assert!(!text.contains('['), "no transitions expected");
    }

    #[test]
    fn round_trip_reproduces_the_automaton() {
        for m in [
            gfa(),
            Buchi::universal(Alphabet::ab()),
            Buchi::empty_language(Alphabet::ab()),
        ] {
            let back = from_hoa(&to_hoa(&m, "rt")).expect("round-trip parses");
            assert_eq!(back, m);
        }
    }

    #[test]
    fn round_trip_survives_larger_alphabets() {
        let sigma = Alphabet::new(&["req", "ack", "nak"]);
        let m = crate::random::random_buchi(&sigma, 7, crate::random::RandomConfig::default());
        let back = from_hoa(&to_hoa(&m, "abc")).unwrap();
        assert_eq!(back, m);
    }

    /// Every rejection is a typed `InvalidInput` naming the offending
    /// line — the diagnostics daemon clients see.
    #[test]
    fn malformed_text_is_rejected_with_line_diagnostics() {
        let cases: [(&str, &str); 10] = [
            (
                "HOA: v1\nStates: 18446744073709551615\nStart: 0\nAP: 1 \"a\"\nAcceptance: 1 Inf(0)\n--BODY--\n--END--\n",
                "state count",
            ),
            (
                "HOA: v1\nStates: 1\nStart: 0\nAP: 4000000000 \"a\"\nAcceptance: 1 Inf(0)\n--BODY--\nState: 0\n--END--\n",
                "AP count",
            ),
            (
                "HOA: v1\nStates: 1\nStart: 0\nAP: 2 \"a\" \"a\"\nAcceptance: 1 Inf(0)\n--BODY--\nState: 0\n--END--\n",
                "duplicate proposition",
            ),
            ("", "`HOA: v1` preamble"),
            ("HOA: v2\n--BODY--\n--END--\n", "unsupported HOA version"),
            (
                "HOA: v1\nStates: 1\nStart: 0\nAP: 1 \"a\"\nAcceptance: 2 Inf(0)&Inf(1)\n--BODY--\nState: 0\n--END--\n",
                "not state-based B",
            ),
            (
                "HOA: v1\nStates: 1\nStart: 3\nAP: 1 \"a\"\nAcceptance: 1 Inf(0)\n--BODY--\n--END--\n",
                "start state 3 out of range",
            ),
            (
                "HOA: v1\nStates: 1\nStart: 0\nAP: 1 \"a\"\nAcceptance: 1 Inf(0)\n--BODY--\n[0] 0\n--END--\n",
                "edge before the first State:",
            ),
            (
                "HOA: v1\nStates: 1\nStart: 0\nAP: 2 \"a\" \"b\"\nAcceptance: 1 Inf(0)\n--BODY--\nState: 0\n[0&1] 0\n--END--\n",
                "more than one positive",
            ),
            (
                "HOA: v1\nStates: 1\nStart: 0\nAP: 1 \"a\"\nAcceptance: 1 Inf(0)\n--BODY--\nState: 0\n",
                "missing --END--",
            ),
        ];
        for (text, needle) in cases {
            let err = from_hoa(text).expect_err(text);
            let message = err.to_string();
            assert!(
                matches!(err, SlError::InvalidInput(_)),
                "expected InvalidInput for {text:?}, got {err:?}"
            );
            assert!(message.contains(needle), "{message:?} missing {needle:?}");
            assert!(message.contains("line"), "{message:?} names no line");
        }
    }

    #[test]
    fn unknown_headers_are_ignored() {
        let mut text = to_hoa(&gfa(), "GF a");
        text = text.replace(
            "acc-name: Buchi\n",
            "acc-name: Buchi\ntool: \"sl-buchi\"\nowner: tests\n",
        );
        assert_eq!(from_hoa(&text).unwrap(), gfa());
    }
}
