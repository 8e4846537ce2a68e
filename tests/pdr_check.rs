//! End-to-end tests of the `check` verb and the k-liveness reduction:
//!
//! * the golden check session (`scripts/check_session.jsonl` →
//!   `scripts/check_session.golden`) replayed in-process must be
//!   byte-identical at 1 and 8 worker threads;
//! * [`counter_product`] must have exactly the predicted size —
//!   `n * (cap + 1)` states and `E * (cap + 1)` transitions — on
//!   random structures;
//! * the k-liveness sweep must agree with an independent direct lasso
//!   search on every small random structure, including the negative
//!   control of a reachable bad cycle;
//! * each sweep query must ask the whole saturated layer's question:
//!   on every product, the saturated copies of the bad states and the
//!   whole layer agree on Safe/Unsafe, every normalized or lifted
//!   invariant replays against the whole layer, and Live stops at the
//!   first `k` whose layer is unreachable;
//! * concurrent `check` clients over one shared service must see
//!   transcripts byte-identical to solo runs, and the daemon's
//!   `check` counters must equal the exact sum of the per-request
//!   engine contributions.

use safety_liveness::service::{serve, Json, Service, ServiceConfig};
use sl_lattice::Bitset;
use sl_omega::{Alphabet, Symbol};
use sl_pdr::{
    bmc_lasso, check_liveness, check_safety, validate_lasso, validate_live_invariant,
    validate_safety_invariant, LivenessVerdict, SafetyVerdict,
};
use sl_support::{Budget, FaultPlan, SplitMix};
use sl_trees::{counter_product, Kripke};
use std::io::Cursor;

const SESSION_SCRIPT: &str = include_str!("../scripts/check_session.jsonl");
const SESSION_GOLDEN: &str = include_str!("../scripts/check_session.golden");

fn quiet_service(threads: usize) -> Service {
    Service::new(ServiceConfig {
        fault: FaultPlan::disabled(),
        threads,
        ..ServiceConfig::default()
    })
}

fn run_script(service: &Service, script: &str) -> String {
    let mut output = Vec::new();
    serve(service, &mut Cursor::new(script.as_bytes()), &mut output)
        .expect("in-memory serving cannot fail on i/o");
    String::from_utf8(output).expect("responses are utf-8")
}

/// Builds a Kripke structure labelled the way the `check` verb does:
/// `b` on bad states, `a` elsewhere.
fn build(succ: Vec<Vec<usize>>, initial: usize, bad: &[usize]) -> Kripke {
    let sigma = Alphabet::ab();
    let a = sigma.symbol("a").unwrap();
    let b = sigma.symbol("b").unwrap();
    let labels: Vec<Symbol> = (0..succ.len())
        .map(|s| if bad.contains(&s) { b } else { a })
        .collect();
    Kripke::new(sigma, labels, succ, initial)
}

/// A random total successor table over `n` states, 1–3 edges each.
fn random_structure(rng: &mut SplitMix, n: usize) -> (Vec<Vec<usize>>, Vec<usize>) {
    let succ: Vec<Vec<usize>> = (0..n)
        .map(|_| (0..1 + rng.below(3)).map(|_| rng.below(n)).collect())
        .collect();
    let bad: Vec<usize> = (0..n).filter(|_| rng.percent() < 25).collect();
    (succ, bad)
}

#[test]
fn check_session_golden_is_byte_identical_at_1_and_8_threads() {
    for threads in [1, 8] {
        let service = quiet_service(threads);
        let transcript = run_script(&service, SESSION_SCRIPT);
        assert_eq!(
            transcript, SESSION_GOLDEN,
            "check session transcript diverged from the golden at {threads} threads"
        );
    }
}

#[test]
fn counter_product_has_exactly_the_predicted_size() {
    let mut rng = SplitMix::new(0x9e15);
    for _ in 0..60 {
        let n = 1 + rng.below(12);
        let (succ, bad) = random_structure(&mut rng, n);
        let edges: usize = succ.iter().map(Vec::len).sum();
        let kripke = build(succ, rng.below(n), &bad);
        for cap in 1..=3 {
            let product = counter_product(&kripke, &bad, cap);
            assert_eq!(
                product.kripke.len(),
                n * (cap + 1),
                "product must have n * (cap + 1) states"
            );
            let product_edges: usize = (0..product.kripke.len())
                .map(|s| product.kripke.successors(s).len())
                .sum();
            assert_eq!(
                product_edges,
                edges * (cap + 1),
                "product must have E * (cap + 1) transitions"
            );
            // The saturated (bad) layer is one counter value per state.
            assert_eq!(product.bad.len(), n);
            // Projection round-trips through the product indexing.
            for s in 0..n {
                for c in 0..=cap {
                    assert_eq!(product.original(product.state_id(s, c)), (s, c));
                }
            }
        }
    }
}

#[test]
fn k_liveness_agrees_with_direct_lasso_search_on_small_structures() {
    let mut rng = SplitMix::new(0xf91);
    let (mut live, mut lassos) = (0, 0);
    for _ in 0..200 {
        let n = 1 + rng.below(10);
        let (succ, bad) = random_structure(&mut rng, n);
        let kripke = build(succ, rng.below(n), &bad);
        let run = check_liveness(&kripke, &bad, &Budget::unlimited()).expect("unbudgeted");
        match run.verdict {
            LivenessVerdict::Live { k, .. } => {
                live += 1;
                assert!(
                    bmc_lasso(&kripke, &bad).is_none(),
                    "PDR says Live at k = {k} but a direct search finds a bad lasso"
                );
                assert!(k <= bad.len(), "the pigeonhole bound |bad| caps k");
            }
            LivenessVerdict::Lasso { stem, looping } => {
                lassos += 1;
                assert!(
                    bmc_lasso(&kripke, &bad).is_some(),
                    "PDR reports a lasso but a direct search finds none"
                );
                validate_lasso(&kripke, &bad, &stem, &looping)
                    .expect("the reported lasso must replay against the structure");
            }
        }
    }
    // The 25% bad rate makes both verdicts common; a one-sided sample
    // would mean the generator (not the checker) regressed.
    assert!(
        live > 20 && lassos > 20,
        "one-sided sample: {live} live, {lassos} lassos"
    );
}

#[test]
fn narrowed_queries_ask_the_saturated_layers_question() {
    let mut rng = SplitMix::new(0x6e_6172);
    let unlimited = Budget::unlimited();
    let (mut live, mut lassos) = (0, 0);
    for _ in 0..240 {
        let n = 1 + rng.below(10);
        let (succ, bad) = random_structure(&mut rng, n);
        let kripke = build(succ, rng.below(n), &bad);
        // The first k whose whole saturated layer is unreachable.
        let mut first_safe = None;
        for k in 0..=bad.len() {
            let cap = k + 1;
            let product = counter_product(&kripke, &bad, cap);
            let narrowed: Vec<usize> = bad.iter().map(|&b| product.state_id(b, cap)).collect();
            let layer = check_safety(&product.kripke, &product.bad, &unlimited).unwrap();
            let narrow = check_safety(&product.kripke, &narrowed, &unlimited).unwrap();
            let layer_safe = matches!(layer.verdict, SafetyVerdict::Safe { .. });
            assert_eq!(
                matches!(narrow.verdict, SafetyVerdict::Safe { .. }),
                layer_safe,
                "narrowed and saturated-layer queries disagree at k = {k} on {kripke:?} bad {bad:?}"
            );
            if let SafetyVerdict::Safe { mut invariant } = narrow.verdict {
                for s in 0..n {
                    invariant.remove(product.state_id(s, cap));
                }
                validate_safety_invariant(&product.kripke, &product.bad, &invariant)
                    .expect("the normalized invariant replays against the saturated layer");
            }
            if k == 0 {
                let model = check_safety(&kripke, &bad, &unlimited).unwrap();
                assert_eq!(
                    matches!(model.verdict, SafetyVerdict::Safe { .. }),
                    layer_safe,
                    "k = 0 is the model's own safety question"
                );
                if let SafetyVerdict::Safe { invariant } = model.verdict {
                    // I × {0}: (s, 0) has id 2s when cap = 1.
                    let ids: Vec<usize> = invariant.iter().map(|s| 2 * s).collect();
                    let lifted = Bitset::from_indices(2 * n, &ids);
                    validate_safety_invariant(&product.kripke, &product.bad, &lifted)
                        .expect("the lifted invariant replays against the saturated layer");
                }
            }
            if layer_safe && first_safe.is_none() {
                first_safe = Some(k);
            }
        }
        let run = check_liveness(&kripke, &bad, &unlimited).expect("unbudgeted");
        match run.verdict {
            LivenessVerdict::Live { k, invariant } => {
                live += 1;
                assert_eq!(Some(k), first_safe, "Live stops at the saturated layer's k");
                let product = counter_product(&kripke, &bad, k + 1);
                validate_safety_invariant(&product.kripke, &product.bad, &invariant)
                    .expect("the Live certificate replays on the product");
                validate_live_invariant(&kripke, &bad, k, &invariant)
                    .expect("the Live certificate replays without the product");
            }
            LivenessVerdict::Lasso { .. } => lassos += 1,
        }
    }
    assert!(
        live > 20 && lassos > 20,
        "one-sided sample: {live} live, {lassos} lassos"
    );
}

#[test]
fn reachable_bad_cycle_is_reported_as_a_lasso() {
    // Negative control: 0 -> 1 -> 2 -> 1 with 1 bad — the bad state
    // sits on the only cycle, so `FG !bad` must fail.
    let kripke = build(vec![vec![1], vec![2], vec![1]], 0, &[1]);
    let run = check_liveness(&kripke, &[1], &Budget::unlimited()).expect("unbudgeted");
    match run.verdict {
        LivenessVerdict::Lasso { stem, looping } => {
            validate_lasso(&kripke, &[1], &stem, &looping).expect("lasso replays");
            assert!(
                stem.first() == Some(&0) && looping.iter().any(|&s| s == 1),
                "the lasso must start at the initial state and loop through bad"
            );
        }
        LivenessVerdict::Live { k, .. } => {
            panic!("a reachable bad cycle cannot be Live (claimed k = {k})")
        }
    }
}

/// Client `j`'s check-only session: a fenced safety query, a
/// transient-bad liveness query, and a repeat of the first (a cache
/// hit). Models are sized by `j`, so concurrent clients never share a
/// cache key.
fn check_script(j: usize) -> String {
    let (safety, bad_s) = safety_model(j);
    let (liveness, bad_l) = liveness_model(j);
    let succ_json = |succ: &[Vec<usize>]| {
        let rows: Vec<String> = succ
            .iter()
            .map(|row| {
                let cells: Vec<String> = row.iter().map(usize::to_string).collect();
                format!("[{}]", cells.join(","))
            })
            .collect();
        format!("[{}]", rows.join(","))
    };
    let safety_line = format!(
        "{{\"id\":1,\"verb\":\"check\",\"mode\":\"safety\",\"model\":{{\"succ\":{},\"initial\":0}},\"bad\":[{bad_s}]}}",
        succ_json(&safety)
    );
    let liveness_line = format!(
        "{{\"id\":2,\"verb\":\"check\",\"mode\":\"liveness\",\"model\":{{\"succ\":{},\"initial\":0}},\"bad\":[{bad_l}]}}",
        succ_json(&liveness)
    );
    let repeat = safety_line.replace("\"id\":1", "\"id\":3");
    format!("{safety_line}\n{liveness_line}\n{repeat}\n")
}

/// Client `j`'s safe model: a `j + 2`-cycle plus a fenced bad
/// self-loop state nobody reaches.
fn safety_model(j: usize) -> (Vec<Vec<usize>>, usize) {
    let m = j + 2;
    let mut succ: Vec<Vec<usize>> = (0..m).map(|i| vec![(i + 1) % m]).collect();
    succ.push(vec![m]);
    (succ, m)
}

/// Client `j`'s live model: a bad initial state every path leaves
/// forever (the `j + 2`-cycle over `1..` never returns to 0).
fn liveness_model(j: usize) -> (Vec<Vec<usize>>, usize) {
    let m = j + 3;
    let mut succ: Vec<Vec<usize>> = vec![vec![1]];
    for i in 1..m {
        succ.push(vec![if i + 1 < m { i + 1 } else { 1 }]);
    }
    (succ, 0)
}

#[test]
fn check_counters_sum_exactly_across_concurrent_clients() {
    const N: usize = 4;
    // Expected totals: the same engines run directly on the same
    // models, summed over every *computed* request (the per-client
    // repeat is a cache hit and must contribute nothing).
    let (mut frames, mut obligations, mut generalizations, mut k_reached) =
        (0u64, 0u64, 0u64, 0u64);
    for j in 0..N {
        let (succ, bad) = safety_model(j);
        let kripke = build(succ, 0, &[bad]);
        let run = check_safety(&kripke, &[bad], &Budget::unlimited()).expect("unbudgeted");
        frames += run.stats.frames;
        obligations += run.stats.obligations;
        generalizations += run.stats.generalizations;
        let (succ, bad) = liveness_model(j);
        let kripke = build(succ, 0, &[bad]);
        let run = check_liveness(&kripke, &[bad], &Budget::unlimited()).expect("unbudgeted");
        frames += run.stats.frames;
        obligations += run.stats.obligations;
        generalizations += run.stats.generalizations;
        k_reached += run.k_reached;
    }

    let solo: Vec<String> = (0..N)
        .map(|j| run_script(&quiet_service(1), &check_script(j)))
        .collect();
    let service = quiet_service(2);
    let outputs: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..N)
            .map(|j| {
                let service = &service;
                scope.spawn(move || run_script(service, &check_script(j)))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (j, concurrent) in outputs.iter().enumerate() {
        assert_eq!(
            concurrent, &solo[j],
            "check client {j}'s transcript changed under concurrency"
        );
    }

    let stats = service.handle_line("{\"id\":9,\"verb\":\"stats\"}").line;
    let doc = safety_liveness::service::json::parse(&stats).unwrap();
    let check = doc
        .get("result")
        .and_then(|r| r.get("check"))
        .expect("stats carries a check block");
    let count = |key: &str| check.get(key).and_then(Json::as_u64).unwrap();
    assert_eq!(count("frames"), frames, "{stats}");
    assert_eq!(count("obligations"), obligations, "{stats}");
    assert_eq!(count("generalizations"), generalizations, "{stats}");
    assert_eq!(count("k_reached"), k_reached, "{stats}");
    // Cache accounting: one computed safety + one computed liveness
    // query per client, one repeat hit per client, no cross-client
    // sharing (the models differ by construction).
    let cache = check.get("cache").expect("check cache block");
    let cached = |key: &str| cache.get(key).and_then(Json::as_u64).unwrap();
    assert_eq!(cached("hits"), N as u64, "{stats}");
    assert_eq!(cached("misses"), 2 * N as u64, "{stats}");
    assert_eq!(cached("entries"), 2 * N as u64, "{stats}");
    assert_eq!(cached("collisions"), 0, "{stats}");
}

/// One `check` line's outcome: `Ok(result)` rendered, or the error's
/// `(kind, message)`.
fn check_outcome(service: &Service, line: &str) -> Result<String, (String, String)> {
    let reply = service.handle_line(line).line;
    let doc = safety_liveness::service::json::parse(&reply).expect("replies are json");
    if doc.get("ok") == Some(&Json::Bool(true)) {
        return Ok(doc.get("result").expect("ok carries a result").render());
    }
    let error = doc.get("error").expect("failure carries an error");
    let field = |key: &str| error.get(key).and_then(Json::as_str).unwrap().to_string();
    Err((field("kind"), field("message")))
}

/// `n` self-looping rows, `[[0],[1],…]`, as JSON text.
fn loop_rows(n: usize) -> String {
    let rows: Vec<String> = (0..n).map(|s| format!("[{s}]")).collect();
    format!("[{}]", rows.join(","))
}

#[test]
fn every_check_rejection_is_pinned_with_its_kind_and_message() {
    let big_bad: Vec<String> = (0..255).map(|b| b.to_string()).collect();
    let too_many = format!(
        r#"{{"verb":"check","mode":"safety","model":{{"succ":{},"initial":0}},"bad":[]}}"#,
        loop_rows(4097)
    );
    let product_cap = format!(
        r#"{{"verb":"check","mode":"liveness","model":{{"succ":{},"initial":0}},"bad":[{}]}}"#,
        loop_rows(4096),
        big_bad.join(",")
    );
    // Too many states wins over a bad row further on.
    let too_many_with_bad_row = too_many.replacen("[1]", "[]", 1);
    let out_of_range = |index: usize, n: usize| {
        (
            "invalid_input",
            format!("state index {index} is out of range for a {n}-state model"),
        )
    };
    let not_an_index = (
        "parse",
        "state indices must be nonnegative integers".to_string(),
    );
    let cases: Vec<(&str, String, (&str, String))> = vec![
        (
            "mode missing",
            r#"{"verb":"check","model":{"succ":[[0]],"initial":0}}"#.into(),
            ("parse", "request needs a string `mode`".into()),
        ),
        (
            "mode not a string",
            r#"{"verb":"check","mode":1,"model":{"succ":[[0]],"initial":0}}"#.into(),
            ("parse", "request needs a string `mode`".into()),
        ),
        (
            "mode unknown",
            r#"{"verb":"check","mode":"eventually","model":{"succ":[[0]],"initial":0}}"#.into(),
            (
                "invalid_input",
                "check mode must be `safety` or `liveness`, not `eventually`".into(),
            ),
        ),
        (
            "mode beats a missing model",
            r#"{"verb":"check","mode":"eventually"}"#.into(),
            (
                "invalid_input",
                "check mode must be `safety` or `liveness`, not `eventually`".into(),
            ),
        ),
        (
            "model missing",
            r#"{"verb":"check","mode":"safety","bad":[]}"#.into(),
            (
                "parse",
                "check needs a `model` object with `succ` and `initial`".into(),
            ),
        ),
        (
            "model not an object",
            r#"{"verb":"check","mode":"safety","model":[[0]]}"#.into(),
            (
                "parse",
                "check needs a `model` object with `succ` and `initial`".into(),
            ),
        ),
        (
            "succ missing",
            r#"{"verb":"check","mode":"safety","model":{"initial":0}}"#.into(),
            (
                "parse",
                "model needs a `succ` array of arrays of state indices".into(),
            ),
        ),
        (
            "succ not an array",
            r#"{"verb":"check","mode":"safety","model":{"succ":{"0":[0]},"initial":0}}"#.into(),
            (
                "parse",
                "model needs a `succ` array of arrays of state indices".into(),
            ),
        ),
        (
            "succ empty",
            r#"{"verb":"check","mode":"safety","model":{"succ":[],"initial":0}}"#.into(),
            ("invalid_input", "model must have at least one state".into()),
        ),
        (
            "more than 4096 states",
            too_many,
            (
                "invalid_input",
                "model has 4097 states; check accepts at most 4096".into(),
            ),
        ),
        (
            "the state cap beats a bad row",
            too_many_with_bad_row,
            (
                "invalid_input",
                "model has 4097 states; check accepts at most 4096".into(),
            ),
        ),
        (
            "row not an array",
            r#"{"verb":"check","mode":"safety","model":{"succ":[[0],1],"initial":0}}"#.into(),
            ("parse", "succ[1] must be an array of state indices".into()),
        ),
        (
            "row empty",
            r#"{"verb":"check","mode":"safety","model":{"succ":[[1],[]],"initial":0}}"#.into(),
            (
                "invalid_input",
                "state 1 has no successor; the transition relation must be total".into(),
            ),
        ),
        (
            "negative index",
            r#"{"verb":"check","mode":"safety","model":{"succ":[[0,-1]],"initial":0}}"#.into(),
            not_an_index.clone(),
        ),
        (
            "fractional index",
            r#"{"verb":"check","mode":"safety","model":{"succ":[[0.5]],"initial":0}}"#.into(),
            not_an_index.clone(),
        ),
        (
            "integral float index",
            r#"{"verb":"check","mode":"safety","model":{"succ":[[1e0]],"initial":0}}"#.into(),
            not_an_index.clone(),
        ),
        (
            "string index",
            r#"{"verb":"check","mode":"safety","model":{"succ":[["0"]],"initial":0}}"#.into(),
            not_an_index.clone(),
        ),
        (
            "index out of range",
            r#"{"verb":"check","mode":"safety","model":{"succ":[[1],[2]],"initial":0}}"#.into(),
            out_of_range(2, 2),
        ),
        (
            "index past i64",
            r#"{"verb":"check","mode":"safety","model":{"succ":[[99999999999999999999]],"initial":0}}"#
                .into(),
            not_an_index.clone(),
        ),
        (
            "the first bad index in a row wins",
            r#"{"verb":"check","mode":"safety","model":{"succ":[[0,7,-1]],"initial":0}}"#.into(),
            out_of_range(7, 1),
        ),
        (
            "row 1 beats row 3",
            r#"{"verb":"check","mode":"safety","model":{"succ":[[0],[9],[0],[]],"initial":0}}"#
                .into(),
            out_of_range(9, 4),
        ),
        (
            "a malformed row 1 beats an empty row 3",
            r#"{"verb":"check","mode":"safety","model":{"succ":[[0],"x",[0],[]],"initial":0}}"#
                .into(),
            ("parse", "succ[1] must be an array of state indices".into()),
        ),
        (
            "an empty row 1 beats a malformed row 3",
            r#"{"verb":"check","mode":"safety","model":{"succ":[[0],[],[0],"x"],"initial":0}}"#
                .into(),
            (
                "invalid_input",
                "state 1 has no successor; the transition relation must be total".into(),
            ),
        ),
        (
            "initial missing",
            r#"{"verb":"check","mode":"safety","model":{"succ":[[0]]}}"#.into(),
            ("parse", "model needs an `initial` state index".into()),
        ),
        (
            "initial out of range",
            r#"{"verb":"check","mode":"safety","model":{"succ":[[1],[0]],"initial":5}}"#.into(),
            out_of_range(5, 2),
        ),
        (
            "initial not an index",
            r#"{"verb":"check","mode":"safety","model":{"succ":[[0]],"initial":"0"}}"#.into(),
            not_an_index.clone(),
        ),
        (
            "rows beat initial",
            r#"{"verb":"check","mode":"safety","model":{"succ":[[0],[3]],"initial":7},"bad":[9]}"#
                .into(),
            out_of_range(3, 2),
        ),
        (
            "rows beat a missing initial",
            r#"{"verb":"check","mode":"safety","model":{"succ":[[0],[]]},"bad":"x"}"#.into(),
            (
                "invalid_input",
                "state 1 has no successor; the transition relation must be total".into(),
            ),
        ),
        (
            "bad not an array",
            r#"{"verb":"check","mode":"safety","model":{"succ":[[0]],"initial":0},"bad":0}"#
                .into(),
            ("parse", "`bad` must be an array of state indices".into()),
        ),
        (
            "bad out of range",
            r#"{"verb":"check","mode":"safety","model":{"succ":[[1],[0]],"initial":0},"bad":[0,7]}"#
                .into(),
            out_of_range(7, 2),
        ),
        (
            "bad not an index",
            r#"{"verb":"check","mode":"safety","model":{"succ":[[0]],"initial":0},"bad":[true]}"#
                .into(),
            not_an_index.clone(),
        ),
        (
            "initial beats bad",
            r#"{"verb":"check","mode":"safety","model":{"succ":[[0],[1]],"initial":7},"bad":[9]}"#
                .into(),
            out_of_range(7, 2),
        ),
        (
            "a missing initial beats a malformed bad",
            r#"{"verb":"check","mode":"safety","model":{"succ":[[0]]},"bad":"x"}"#.into(),
            ("parse", "model needs an `initial` state index".into()),
        ),
        (
            "the liveness product cap",
            product_cap.clone(),
            (
                "invalid_input",
                "liveness check would build a counter product of up to 1052672 states \
                 (limit 1048576); shrink the model or the bad set"
                    .into(),
            ),
        ),
        (
            "bad beats the product cap",
            product_cap.replace("[0,1,2,", "[4096,1,2,"),
            out_of_range(4096, 4096),
        ),
    ];
    let service = quiet_service(1);
    for (name, line, (kind, message)) in &cases {
        assert_eq!(
            check_outcome(&service, line),
            Err((kind.to_string(), message.clone())),
            "{name}"
        );
    }
    // A null `bad` is an empty bad set, and the product cap binds only
    // liveness: the same oversized bad set is a fine safety question.
    assert_eq!(
        check_outcome(
            &service,
            r#"{"verb":"check","mode":"safety","model":{"succ":[[0]],"initial":0},"bad":null}"#
        ),
        Ok(r#"{"mode":"safety","verdict":"safe","invariant":[0]}"#.to_string())
    );
    let safety_cap = product_cap.replace("\"liveness\"", "\"safety\"");
    assert!(check_outcome(&service, &safety_cap).is_ok());
}

/// The `check` cache's `(hits, misses)` so far, read from `stats`.
fn check_cache_counts(service: &Service) -> (u64, u64) {
    let stats = service.handle_line(r#"{"verb":"stats"}"#).line;
    let doc = safety_liveness::service::json::parse(&stats).unwrap();
    let cache = doc
        .get("result")
        .and_then(|r| r.get("check"))
        .and_then(|c| c.get("cache"))
        .expect("stats carries the check cache");
    let count = |key: &str| cache.get(key).and_then(Json::as_u64).unwrap();
    (count("hits"), count("misses"))
}

#[test]
fn check_cache_keys_on_the_question_not_its_spelling() {
    let base = r#"{"id":1,"verb":"check","mode":"safety","model":{"succ":[[1,2],[2],[2]],"initial":0},"bad":[1,2]}"#;
    let reuses = [
        (
            "whitespace",
            " { \"id\" : 1 , \"verb\" : \"check\" , \"mode\" : \"safety\" , \"model\" : { \"succ\" : [ [ 1 , 2 ] , [ 2 ] , [ 2 ] ] , \"initial\" : 0 } , \"bad\" : [ 1 , 2 ] } ",
        ),
        (
            "key order",
            r#"{"bad":[1,2],"model":{"initial":0,"succ":[[1,2],[2],[2]]},"mode":"safety","verb":"check","id":1}"#,
        ),
        (
            "id",
            r#"{"id":"other","verb":"check","mode":"safety","model":{"succ":[[1,2],[2],[2]],"initial":0},"bad":[1,2]}"#,
        ),
        (
            "no id",
            r#"{"verb":"check","mode":"safety","model":{"succ":[[1,2],[2],[2]],"initial":0},"bad":[1,2]}"#,
        ),
        (
            "bad order",
            r#"{"id":1,"verb":"check","mode":"safety","model":{"succ":[[1,2],[2],[2]],"initial":0},"bad":[2,1]}"#,
        ),
        (
            "bad duplicates",
            r#"{"id":1,"verb":"check","mode":"safety","model":{"succ":[[1,2],[2],[2]],"initial":0},"bad":[2,1,2,1]}"#,
        ),
        (
            "a budget",
            r#"{"id":1,"verb":"check","mode":"safety","model":{"succ":[[1,2],[2],[2]],"initial":0},"bad":[1,2],"budget":{"steps":1}}"#,
        ),
    ];
    let fresh = [
        (
            "swapped targets",
            r#"{"id":1,"verb":"check","mode":"safety","model":{"succ":[[2,1],[2],[2]],"initial":0},"bad":[1,2]}"#,
        ),
        (
            "a duplicated target",
            r#"{"id":1,"verb":"check","mode":"safety","model":{"succ":[[1,2,2],[2],[2]],"initial":0},"bad":[1,2]}"#,
        ),
        (
            "another mode",
            r#"{"id":1,"verb":"check","mode":"liveness","model":{"succ":[[1,2],[2],[2]],"initial":0},"bad":[1,2]}"#,
        ),
        (
            "another initial",
            r#"{"id":1,"verb":"check","mode":"safety","model":{"succ":[[1,2],[2],[2]],"initial":1},"bad":[1,2]}"#,
        ),
        (
            "another bad set",
            r#"{"id":1,"verb":"check","mode":"safety","model":{"succ":[[1,2],[2],[2]],"initial":0},"bad":[2]}"#,
        ),
        (
            "a row moved",
            r#"{"id":1,"verb":"check","mode":"safety","model":{"succ":[[1],[2,2],[2]],"initial":0},"bad":[1,2]}"#,
        ),
    ];
    let service = quiet_service(1);
    let answer = check_outcome(&service, base).expect("the base question is well formed");
    assert_eq!(check_cache_counts(&service), (0, 1));
    let mut misses = 1;
    for (i, (name, line)) in reuses.iter().enumerate() {
        assert_eq!(
            check_outcome(&service, line).as_ref(),
            Ok(&answer),
            "{name}"
        );
        assert_eq!(
            check_cache_counts(&service),
            (i as u64 + 1, misses),
            "{name} must reuse the cached entry"
        );
    }
    let mut hits = reuses.len() as u64;
    for (name, line) in fresh {
        assert!(check_outcome(&service, line).is_ok(), "{name}");
        misses += 1;
        assert_eq!(
            check_cache_counts(&service),
            (hits, misses),
            "{name} must not reuse a cached entry"
        );
        assert!(check_outcome(&service, line).is_ok(), "{name}");
        hits += 1;
        assert_eq!(
            check_cache_counts(&service),
            (hits, misses),
            "{name} repeated is a hit"
        );
    }
}
