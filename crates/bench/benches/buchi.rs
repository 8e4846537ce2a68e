//! Wall-clock benchmarks for the Büchi layer: the closure operator, the
//! two complementation constructions, and the full decomposition.

use sl_buchi::{closure, complement, complement_safety, decompose, random_buchi, RandomConfig};
use sl_omega::Alphabet;
use sl_support::bench::{black_box, Bench};

fn machines(states: usize) -> Vec<sl_buchi::Buchi> {
    let sigma = Alphabet::ab();
    (0..8)
        .map(|seed| {
            random_buchi(
                &sigma,
                seed,
                RandomConfig {
                    states,
                    ..RandomConfig::default()
                },
            )
        })
        .collect()
}

fn main() {
    let mut bench = Bench::from_env();

    for states in [4usize, 8, 16, 32] {
        let ms = machines(states);
        bench.measure(&format!("buchi/closure/{states}"), || {
            for m in &ms {
                black_box(closure(m));
            }
        });
    }

    for states in [4usize, 8, 12] {
        let closures: Vec<_> = machines(states).iter().map(closure).collect();
        bench.measure(&format!("buchi/complement_safety/{states}"), || {
            for m in &closures {
                black_box(complement_safety(m));
            }
        });
    }

    for states in [2usize, 3, 4] {
        let ms = machines(states);
        bench.measure(&format!("buchi/complement_rank/{states}"), || {
            for m in &ms {
                let _ = black_box(complement(m, None));
            }
        });
    }

    for states in [4usize, 8, 12] {
        let ms = machines(states);
        bench.measure(&format!("buchi/decompose/{states}"), || {
            for m in &ms {
                black_box(decompose(m));
            }
        });
    }
    bench.finish("buchi");
}
