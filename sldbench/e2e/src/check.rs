//! Checks one response against what the benchmark knows about its request.
//! A response fails when it is `ok:false`, does not parse, or fails the
//! benchmark's own check: a witness that does not verify on the generated
//! input, a verdict the benchmark's own decision procedure contradicts, or
//! a witness-free answer that differs from an earlier answer to the same
//! question.

use crate::gen::{kripke, Expect, Request};
use crate::json::{self, Value};
use crate::model::{Lasso, Nba};
use crate::verify::{self, accepts};
use std::collections::HashMap;

/// Response checker for one plan. Remembers each question's verdict.
pub struct Checker<'a> {
    automata: &'a [Nba],
    answers: HashMap<String, String>,
}

impl<'a> Checker<'a> {
    /// A checker for requests naming `automata` (a plan's
    /// [`crate::gen::Plan::automata`]).
    #[must_use]
    pub fn new(automata: &'a [Nba]) -> Self {
        Checker {
            automata,
            answers: HashMap::new(),
        }
    }

    /// Checks `response` to `request`.
    ///
    /// # Errors
    ///
    /// Why the response fails.
    pub fn check(&mut self, request: &Request, response: &str) -> Result<(), String> {
        let doc =
            json::parse(response.trim_end()).map_err(|e| format!("unparseable response: {e}"))?;
        if doc.get("id").and_then(Value::as_f64) != Some(request.id as f64) {
            return Err(format!(
                "response id does not match request id {}",
                request.id
            ));
        }
        if doc.get("ok").and_then(Value::as_bool) != Some(true) {
            let kind = doc
                .at(&["error", "kind"])
                .and_then(Value::as_str)
                .unwrap_or("?");
            let message = doc
                .at(&["error", "message"])
                .and_then(Value::as_str)
                .unwrap_or("?");
            return Err(format!(
                "{} failed: {kind}: {message}",
                request.expect.verb()
            ));
        }
        let result = doc.get("result").ok_or("response has no result")?;
        let verdict = self.verify(&request.expect, result)?;
        if let (Some(question), Some(verdict)) = (request.expect.question(), verdict) {
            match self.answers.get(&question) {
                Some(earlier) if *earlier != verdict => {
                    return Err(format!("{question}: answered {verdict}, earlier {earlier}"));
                }
                Some(_) => {}
                None => {
                    self.answers.insert(question, verdict);
                }
            }
        }
        Ok(())
    }

    /// Verifies one result; returns the verdict to hold repeated
    /// questions to.
    fn verify(&self, expect: &Expect, r: &Value) -> Result<Option<String>, String> {
        let automata = self.automata;
        let flag = |key: &str| {
            r.get(key)
                .and_then(Value::as_bool)
                .ok_or_else(|| format!("result has no boolean `{key}`"))
        };
        let lasso = |key: &str| {
            r.get(key)
                .and_then(Value::as_str)
                .and_then(Lasso::parse)
                .ok_or_else(|| format!("result has no lasso word `{key}`"))
        };
        match expect {
            Expect::Define {
                states,
                transitions,
            } => {
                let got = (
                    r.get("states").and_then(Value::as_usize),
                    r.get("transitions").and_then(Value::as_usize),
                );
                if got != (Some(*states), Some(*transitions)) {
                    return Err(format!(
                        "define reported {got:?}, sent {states} states and {transitions} transitions"
                    ));
                }
                Ok(None)
            }
            Expect::DefineLtl => match r.get("source").and_then(Value::as_str) {
                Some("ltl") => Ok(None),
                _ => Err("define from LTL did not report source ltl".into()),
            },
            Expect::Include(a, b) => {
                let holds = flag("holds")?;
                if !holds {
                    let w = lasso("counterexample")?;
                    if !accepts(&automata[*a], &w) || accepts(&automata[*b], &w) {
                        return Err(format!(
                            "counterexample {} is not in L(left) \\ L(right)",
                            w.render()
                        ));
                    }
                }
                Ok(Some(holds.to_string()))
            }
            Expect::Equivalent(a, b) => {
                let equal = flag("equivalent")?;
                if !equal {
                    let w = lasso("separator")?;
                    if accepts(&automata[*a], &w) == accepts(&automata[*b], &w) {
                        return Err(format!("separator {} does not separate", w.render()));
                    }
                }
                Ok(Some(equal.to_string()))
            }
            Expect::Universal(a) => {
                let all = flag("universal")?;
                if !all {
                    let w = lasso("rejected")?;
                    if accepts(&automata[*a], &w) {
                        return Err(format!("rejected word {} is accepted", w.render()));
                    }
                }
                Ok(Some(all.to_string()))
            }
            Expect::Classify(_) => match r.get("class").and_then(Value::as_str) {
                Some(class @ ("safety" | "liveness" | "both" | "neither")) => {
                    Ok(Some(class.to_string()))
                }
                other => Err(format!("classify answered {other:?}")),
            },
            Expect::Check {
                seed,
                states,
                liveness,
            } => {
                let model = kripke(*seed, *states);
                let verdict = r.get("verdict").and_then(Value::as_str).unwrap_or("");
                let states_of = |key: &str| {
                    r.get(key)
                        .and_then(Value::as_indices)
                        .ok_or_else(|| format!("result has no state list `{key}`"))
                };
                if *liveness {
                    let expected = if verify::decide_live(&model) {
                        "live"
                    } else {
                        "lasso"
                    };
                    if verdict != expected {
                        return Err(format!(
                            "liveness check answered {verdict}, the model is {expected}"
                        ));
                    }
                    if verdict == "live" {
                        let k = r
                            .get("k")
                            .and_then(Value::as_usize)
                            .ok_or("live answer has no k")?;
                        verify::validate_live(&model, k, &states_of("invariant")?)?;
                    } else {
                        verify::validate_lasso(&model, &states_of("stem")?, &states_of("loop")?)?;
                    }
                } else {
                    let expected = if verify::decide_safe(&model) {
                        "safe"
                    } else {
                        "unsafe"
                    };
                    if verdict != expected {
                        return Err(format!(
                            "safety check answered {verdict}, the model is {expected}"
                        ));
                    }
                    if verdict == "safe" {
                        verify::validate_invariant(&model, &states_of("invariant")?)?;
                    } else {
                        verify::validate_trace(&model, &states_of("trace")?)?;
                    }
                }
                Ok(Some(verdict.to_string()))
            }
            Expect::Step(expected) => {
                let got: Option<Vec<&str>> = r
                    .get("verdicts")
                    .and_then(Value::as_arr)
                    .and_then(|items| items.iter().map(Value::as_str).collect());
                let want: Vec<&str> = expected.iter().map(|v| v.name()).collect();
                if got.as_ref() != Some(&want) {
                    return Err(format!("monitor verdicts {got:?}, expected {want:?}"));
                }
                let last = want.last().copied().unwrap_or("ok");
                if r.get("verdict").and_then(Value::as_str) != Some(last) {
                    return Err("monitor final verdict differs from the last step".into());
                }
                Ok(None)
            }
            Expect::Decompose { name, .. } => {
                let part = |key: &str| r.at(&[key, "name"]).and_then(Value::as_str);
                if r.get("target").and_then(Value::as_str) != Some(name.as_str())
                    || part("safety") != Some(&format!("{name}.safety"))
                    || part("liveness") != Some(&format!("{name}.liveness"))
                {
                    return Err("decompose named the wrong parts".into());
                }
                if r.get("check_sampled").and_then(Value::as_str) != Some("ok") {
                    return Err("decompose's own sampled check failed".into());
                }
                let size = |key: &str| r.at(&[key, "states"]).and_then(Value::as_usize);
                Ok(Some(format!("{:?}/{:?}", size("safety"), size("liveness"))))
            }
        }
    }
}
