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
