//! Tests of the benchmark's own generators and answer checks.
//!
//! Run with `cargo test --release --manifest-path sldbench/e2e/Cargo.toml`.

use sldbench::check::Checker;
use sldbench::gen::{self, differing_blocks, Expect, Plan, Request, Workload};
use sldbench::model::{Kripke, Lasso, Nba};
use sldbench::verify::{self, accepts};
use std::collections::{HashMap, HashSet};

fn plan(workload: Workload, seed: u64) -> Plan {
    gen::plan(workload, seed, 1)
}

#[test]
fn same_seed_same_bytes_and_other_seed_other_bytes() {
    for workload in Workload::ALL {
        let lines = |p: &Plan| -> Vec<String> {
            p.setup
                .iter()
                .chain(&p.warmup)
                .chain(p.streams.iter().flatten())
                .map(|r| r.line.clone())
                .collect()
        };
        let a = plan(workload, 7);
        let b = plan(workload, 7);
        assert!(a == b, "{}: same seed, different plans", workload.name());
        assert_eq!(lines(&a), lines(&b));
        let c = plan(workload, 8);
        assert_ne!(
            lines(&a),
            lines(&c),
            "{}: seeds 7 and 8 agree",
            workload.name()
        );
        assert_ne!(
            lines(&a)[lines(&a).len() - 1],
            lines(&c)[lines(&c).len() - 1]
        );
    }
}

#[test]
fn solve_cold_never_repeats_a_question() {
    let p = plan(Workload::SolveCold, 3);
    let mut questions = HashSet::new();
    let mut pairs = HashSet::new();
    for r in p.warmup.iter().chain(p.streams.iter().flatten()) {
        let q = r
            .expect
            .question()
            .expect("every solve-cold request is a question");
        assert!(questions.insert(q.clone()), "repeated question {q}");
        if let Expect::Include(a, b) | Expect::Equivalent(a, b) = r.expect {
            assert!(pairs.insert((a, b)), "ordered pair ({a}, {b}) asked twice");
        }
    }
    let checks = p
        .streams
        .iter()
        .flatten()
        .filter(|r| matches!(r.expect, Expect::Check { .. }))
        .count();
    let share = checks as f64 / p.streams.iter().map(Vec::len).sum::<usize>() as f64;
    assert!((0.2..0.3).contains(&share), "check share {share}");
}

/// Replays the query stream against a model of the daemon's caches:
/// the query cache striped 8 ways (here by left operand, the daemon
/// stripes by its structural hash) with 32 entries per stripe, and the
/// 256-entry check cache, both cleared when full.
fn simulated_hit_ratio(p: &Plan) -> f64 {
    let mut stripes: Vec<HashSet<String>> = vec![HashSet::new(); 8];
    let mut checks: HashSet<String> = HashSet::new();
    let (mut hits, mut lookups) = (0usize, 0usize);
    for (i, r) in p.warmup.iter().chain(&p.streams[0]).enumerate() {
        let timed = i >= p.warmup.len();
        let q = r
            .expect
            .question()
            .expect("every serve-zipf request is a question");
        let (set, cap) = match r.expect {
            Expect::Check { .. } => (&mut checks, 256),
            Expect::Include(a, _)
            | Expect::Equivalent(a, _)
            | Expect::Universal(a)
            | Expect::Classify(a) => (&mut stripes[a % 8], 32),
            _ => unreachable!("serve-zipf asks queries only"),
        };
        let hit = set.contains(&q);
        if !hit {
            if set.len() >= cap {
                set.clear();
            }
            set.insert(q);
        }
        if timed {
            lookups += 1;
            hits += usize::from(hit);
        }
    }
    hits as f64 / lookups as f64
}

#[test]
fn serve_zipf_hit_ratio_lands_in_its_band() {
    for seed in [1, 2, 3] {
        let p = plan(Workload::ServeZipf, seed);
        let ratio = simulated_hit_ratio(&p);
        assert!(
            (0.6..0.8).contains(&ratio),
            "seed {seed}: simulated hit ratio {ratio}"
        );
        let repeated = p.repeated_share(&[p.streams[0].len()]);
        assert!(
            (0.85..0.98).contains(&repeated),
            "seed {seed}: repeated share {repeated}"
        );
    }
}

#[test]
fn serve_zipf_verb_at_each_rank_is_seed_independent() {
    let verbs = |seed| {
        let p = plan(Workload::ServeZipf, seed);
        let mut by_verb: HashMap<&str, usize> = HashMap::new();
        for r in &p.streams[0] {
            *by_verb.entry(r.expect.verb()).or_default() += 1;
        }
        by_verb
    };
    let (a, b) = (verbs(1), verbs(2));
    for (verb, &n) in &a {
        let m = b.get(verb).copied().unwrap_or(0);
        let drift = (n as f64 - m as f64).abs() / n.max(m) as f64;
        assert!(drift < 0.1, "{verb}: {n} vs {m} requests across seeds");
    }
}

#[test]
fn every_monitor_journal_edit_changes_exactly_one_block() {
    let p = plan(Workload::MonitorJournal, 5);
    assert!(p.edits.len() > 100, "only {} edits", p.edits.len());
    for &(old, new, block) in &p.edits {
        assert_eq!(
            differing_blocks(&p.automata[old], &p.automata[new]),
            vec![block]
        );
    }
}

#[test]
fn corpus_automata_respect_the_monoid_cap() {
    let p = plan(Workload::SolveCold, 9);
    for nba in &p.automata {
        assert!(gen::monoid_size(nba, gen::MONOID_CAP) <= gen::MONOID_CAP);
        assert!(nba.is_deterministic());
    }
}

// ---- the independent checks and their negative controls -----------

/// Accepts exactly the words with infinitely many `a` (symbol 0).
fn inf_a() -> Nba {
    Nba {
        initial: 0,
        accepting: vec![true, false],
        succ: vec![[vec![0], vec![1]], [vec![0], vec![1]]],
    }
}

/// Accepts every word.
fn all() -> Nba {
    Nba {
        initial: 0,
        accepting: vec![true],
        succ: vec![[vec![0], vec![0]]],
    }
}

#[test]
fn lasso_membership_matches_the_language() {
    let word = |s: &str| Lasso::parse(s).expect("well-formed lasso");
    assert!(accepts(&inf_a(), &word("b b (a b)^w")));
    assert!(!accepts(&inf_a(), &word("a a (b)^w")));
    assert!(accepts(&all(), &word("(b)^w")));
    assert_eq!(word("a (b a)^w").render(), "a (b a)^w");
    assert!(Lasso::parse("a (c)^w").is_none());
}

fn request(id: u64, expect: Expect) -> Request {
    Request {
        id,
        line: String::new(),
        expect,
    }
}

#[test]
fn corrupted_inclusion_witnesses_are_rejected() {
    let automata = [all(), inf_a()];
    let mut checker = Checker::new(&automata);
    let include = request(1, Expect::Include(0, 1));
    let good = r#"{"id":1,"ok":true,"result":{"holds":false,"counterexample":"a (b)^w"}}"#;
    assert_eq!(checker.check(&include, good), Ok(()));
    let corrupted = r#"{"id":1,"ok":true,"result":{"holds":false,"counterexample":"b (a)^w"}}"#;
    assert!(checker.check(&include, corrupted).is_err());
    let wrong_id = r#"{"id":2,"ok":true,"result":{"holds":false,"counterexample":"a (b)^w"}}"#;
    assert!(checker.check(&include, wrong_id).is_err());
    let flipped = r#"{"id":1,"ok":true,"result":{"holds":true}}"#;
    assert!(
        checker.check(&include, flipped).is_err(),
        "verdict changed between askings"
    );

    let equivalent = request(3, Expect::Equivalent(1, 0));
    let separator = r#"{"id":3,"ok":true,"result":{"equivalent":false,"separator":"(b)^w"}}"#;
    assert_eq!(checker.check(&equivalent, separator), Ok(()));
    let not_separating = r#"{"id":3,"ok":true,"result":{"equivalent":false,"separator":"(a)^w"}}"#;
    assert!(checker.check(&equivalent, not_separating).is_err());

    let error = r#"{"id":1,"ok":false,"error":{"kind":"budget_exceeded","message":"x"}}"#;
    assert!(checker.check(&include, error).is_err());
    assert!(checker.check(&include, "not json").is_err());
}

#[test]
fn witness_free_answers_must_repeat() {
    let automata = [all()];
    let mut checker = Checker::new(&automata);
    let classify = request(4, Expect::Classify(0));
    let both = r#"{"id":4,"ok":true,"result":{"class":"both"}}"#;
    assert_eq!(checker.check(&classify, both), Ok(()));
    assert_eq!(checker.check(&classify, both), Ok(()));
    let other = r#"{"id":4,"ok":true,"result":{"class":"safety"}}"#;
    assert!(checker.check(&classify, other).is_err());
}

/// A correct safety answer for a generated model, as the daemon renders
/// its parts: the verdict, the certificate's key, and its states (the
/// reachable set, or a shortest path to a bad state).
fn safety_answer(model: &Kripke) -> (&'static str, &'static str, Vec<usize>) {
    let seen = verify::reachable(model);
    if verify::decide_safe(model) {
        let invariant = (0..model.succ.len()).filter(|&s| seen[s]).collect();
        return ("safe", "invariant", invariant);
    }
    let mut parent = vec![usize::MAX; model.succ.len()];
    let mut queue = std::collections::VecDeque::from([model.initial]);
    parent[model.initial] = model.initial;
    while let Some(s) = queue.pop_front() {
        if model.bad.contains(&s) {
            let mut path = vec![s];
            while *path.last().unwrap() != model.initial {
                path.push(parent[*path.last().unwrap()]);
            }
            path.reverse();
            return ("unsafe", "trace", path);
        }
        for &t in &model.succ[s] {
            if parent[t] == usize::MAX {
                parent[t] = s;
                queue.push_back(t);
            }
        }
    }
    unreachable!("an unsafe model reaches a bad state")
}

fn render_check(id: u64, verdict: &str, key: &str, states: &[usize]) -> String {
    let states: Vec<String> = states.iter().map(ToString::to_string).collect();
    format!(
        r#"{{"id":{id},"ok":true,"result":{{"mode":"safety","verdict":"{verdict}","{key}":[{}]}}}}"#,
        states.join(",")
    )
}

#[test]
fn corrupted_model_checking_certificates_are_rejected() {
    let mut checker = Checker::new(&[]);
    let mut verdicts = HashSet::new();
    for seed in 0..40u64 {
        let model = gen::kripke(seed, 64);
        let req = request(
            seed,
            Expect::Check {
                seed,
                states: 64,
                liveness: false,
            },
        );
        let (verdict, key, mut states) = safety_answer(&model);
        verdicts.insert(verdict);
        assert_eq!(
            checker.check(&req, &render_check(seed, verdict, key, &states)),
            Ok(())
        );
        // Dropping the last state breaks closure (it is reachable from a
        // kept state) or the trace's bad ending (shortest paths meet no
        // earlier bad state).
        states.pop();
        let corrupted = render_check(seed, verdict, key, &states);
        assert!(
            checker.check(&req, &corrupted).is_err(),
            "seed {seed}: accepted {corrupted}"
        );
        let other = if verdict == "safe" { "unsafe" } else { "safe" };
        let wrong = render_check(seed, other, key, &states);
        assert!(
            checker.check(&req, &wrong).is_err(),
            "seed {seed}: accepted the wrong verdict"
        );
    }
    assert_eq!(
        verdicts.len(),
        2,
        "the generator yields both safe and unsafe models"
    );
}

#[test]
fn liveness_decisions_and_lassos() {
    // 0 -> 1 -> 2 -> 1, bad = {2}: a reachable bad state on a cycle.
    let cyclic = Kripke {
        succ: vec![vec![1], vec![2], vec![1]],
        initial: 0,
        bad: vec![2],
    };
    assert!(!verify::decide_live(&cyclic));
    assert_eq!(verify::validate_lasso(&cyclic, &[0, 1], &[2, 1]), Ok(()));
    assert!(
        verify::validate_lasso(&cyclic, &[0, 1], &[1]).is_err(),
        "loop without a bad state"
    );
    // 0 -> 1 -> 2 -> 2, bad = {1}: bad is transient.
    let transient = Kripke {
        succ: vec![vec![1], vec![2], vec![2]],
        initial: 0,
        bad: vec![1],
    };
    assert!(verify::decide_live(&transient));
    // k = 1, cap 2, width 3: (0,0) -> (1,1) -> (2,1) -> (2,1).
    assert_eq!(verify::validate_live(&transient, 1, &[0, 4, 7]), Ok(()));
    assert!(
        verify::validate_live(&transient, 1, &[0, 4]).is_err(),
        "not closed"
    );
    assert!(
        verify::validate_live(&transient, 0, &[0, 4, 7]).is_err(),
        "saturated at k = 0"
    );
}

#[test]
fn monitor_verdicts_follow_the_target() {
    let p = plan(Workload::MonitorJournal, 11);
    let mut violations = 0;
    for r in p.warmup.iter().chain(&p.streams[0]) {
        if let Expect::Step(verdicts) = &r.expect {
            assert_eq!(verdicts.len(), gen::STEP_SYMBOLS);
            // Violations are sticky within a step.
            let first = verdicts
                .iter()
                .position(|v| *v == verify::Verdict::Violation);
            if let Some(i) = first {
                violations += 1;
                assert!(verdicts[i..]
                    .iter()
                    .all(|v| *v == verify::Verdict::Violation));
            }
        }
    }
    assert!(violations > 0, "the stream never violates a target");
    let mut checker = Checker::new(&p.automata);
    let step = p
        .warmup
        .iter()
        .find(|r| matches!(r.expect, Expect::Step(_)))
        .expect("a step");
    let Expect::Step(verdicts) = &step.expect else {
        unreachable!()
    };
    let render = |verdicts: &[verify::Verdict]| {
        let names: Vec<String> = verdicts
            .iter()
            .map(|v| format!("\"{}\"", v.name()))
            .collect();
        format!(
            r#"{{"id":{},"ok":true,"result":{{"monitor":"s0","target":"t0","verdicts":[{}],"verdict":"{}"}}}}"#,
            step.id,
            names.join(","),
            verdicts.last().unwrap().name()
        )
    };
    assert_eq!(checker.check(step, &render(verdicts)), Ok(()));
    let mut flipped = verdicts.clone();
    flipped[0] = match flipped[0] {
        verify::Verdict::Ok => verify::Verdict::Violation,
        verify::Verdict::Violation => verify::Verdict::Ok,
    };
    assert!(checker.check(step, &render(&flipped)).is_err());
}
