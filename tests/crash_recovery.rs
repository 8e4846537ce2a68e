//! The acceptance drill for the durability layer: a long seeded daemon
//! session is driven through `sl_conform::crash_drill`, which kills a
//! persistent daemon at **every** journal record boundary (and once
//! more mid-record, with the journal truncated) and requires the
//! recovered daemon's remaining responses to be byte-identical to an
//! uninterrupted twin's.
//!
//! verify.sh runs this test at `SL_THREADS=1` and `SL_THREADS=8`; the
//! drill builds its services from `ServiceConfig::default()`, so the
//! thread knob flows through to batch fan-out.

use sl_conform::crash_drill;
use sl_support::SplitMix;

/// A seeded session of `total` requests: a few automaton definitions
/// (HOA-sourced — cheap to replay hundreds of times), then a stream
/// dominated by `monitor-step` (every one a journal record, hence a
/// kill point) over several concurrent monitor sessions, interleaved
/// with queries, redefinitions, decompositions, and the occasional
/// malformed line.
fn push(lines: &mut Vec<String>, id: &mut u64, body: String) {
    *id += 1;
    lines.push(format!("{{\"id\":{id},{body}}}"));
}

fn define(lines: &mut Vec<String>, id: &mut u64, rng: &mut SplitMix, name: &str) {
    let alphabet = sl_omega::Alphabet::ab();
    let b = sl_buchi::random_buchi(
        &alphabet,
        rng.next_u64(),
        sl_buchi::RandomConfig {
            states: 1 + rng.below(3),
            density_percent: 60,
            accepting_percent: 50,
        },
    );
    let hoa = sl_buchi::hoa::to_hoa(&b, name)
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n");
    push(
        lines,
        id,
        format!("\"verb\":\"define\",\"name\":\"{name}\",\"hoa\":\"{hoa}\""),
    );
}

fn seeded_session(seed: u64, total: usize) -> Vec<String> {
    let mut rng = SplitMix::new(seed);
    let mut lines = Vec::with_capacity(total);
    let mut id = 0u64;
    let names = ["p0", "p1", "p2"];
    for name in names {
        define(&mut lines, &mut id, &mut rng, name);
    }
    while lines.len() < total {
        match rng.below(10) {
            // monitor-step dominates: each one is a kill point.
            0..=5 => {
                let symbols: Vec<&str> = (0..1 + rng.below(3))
                    .map(|_| match rng.below(8) {
                        0 => "\"zz\"",
                        n if n % 2 == 0 => "\"a\"",
                        _ => "\"b\"",
                    })
                    .collect();
                let monitor = format!("m{}", rng.below(4));
                let target = names[rng.below(names.len())];
                push(
                    &mut lines,
                    &mut id,
                    format!(
                        "\"verb\":\"monitor-step\",\"monitor\":\"{monitor}\",\"target\":\"{target}\",\"symbols\":[{}]",
                        symbols.join(",")
                    ),
                );
            }
            6 => {
                let name = names[rng.below(names.len())];
                define(&mut lines, &mut id, &mut rng, name);
            }
            7 => push(
                &mut lines,
                &mut id,
                format!(
                    "\"verb\":\"decompose\",\"target\":\"{}\"",
                    names[rng.below(names.len())]
                ),
            ),
            8 => push(
                &mut lines,
                &mut id,
                format!(
                    "\"verb\":\"classify\",\"target\":\"{}\"",
                    names[rng.below(names.len())]
                ),
            ),
            _ => {
                if rng.percent() < 15 {
                    lines.push("{not json".to_string());
                } else {
                    push(
                        &mut lines,
                        &mut id,
                        format!(
                            "\"verb\":\"include\",\"left\":\"{}\",\"right\":\"{}\"",
                            names[rng.below(names.len())],
                            names[rng.below(names.len())]
                        ),
                    );
                }
            }
        }
    }
    lines
}

#[test]
fn long_seeded_session_survives_a_kill_at_every_record_boundary() {
    let lines = seeded_session(2003, 208);
    assert!(
        lines.len() >= 200,
        "the acceptance drill needs a 200+-request session"
    );
    crash_drill(&lines, 0).unwrap();
}

#[test]
fn long_seeded_session_survives_kills_across_snapshot_rotations() {
    let lines = seeded_session(7, 208);
    crash_drill(&lines, 16).unwrap();
}
