//! Wall-clock benchmarks for the game layer: Zielonka on random parity
//! games and the IAR reduction for Rabin games.

use sl_games::{solve, solve_rabin, ParityGame, Player, RabinGame};
use sl_support::bench::{black_box, Bench};

fn random_parity(n: usize, seed: u64) -> ParityGame {
    let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    let owner: Vec<Player> = (0..n)
        .map(|_| {
            if next() % 2 == 0 {
                Player::Even
            } else {
                Player::Odd
            }
        })
        .collect();
    let priority: Vec<u32> = (0..n).map(|_| (next() % 6) as u32).collect();
    let succ: Vec<Vec<usize>> = (0..n)
        .map(|_| {
            let mut outs: Vec<usize> = (0..(1 + next() % 3)).map(|_| next() % n).collect();
            outs.sort_unstable();
            outs.dedup();
            outs
        })
        .collect();
    ParityGame::new(owner, priority, succ)
}

fn main() {
    let mut bench = Bench::from_env();

    for n in [8usize, 32, 128, 512] {
        let games: Vec<ParityGame> = (0..4).map(|s| random_parity(n, s)).collect();
        bench.measure(&format!("games/zielonka/{n}"), || {
            for g in &games {
                black_box(solve(g, None).unwrap());
            }
        });
    }

    for (n, pairs) in [(6usize, 1usize), (6, 2), (6, 3), (10, 2)] {
        // Build a Rabin game with `pairs` random pairs over a random
        // arena.
        let base = random_parity(n, 99);
        let mut state = 7u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let rabin = RabinGame {
            owner: (0..n).map(|v| base.owner(v)).collect(),
            succ: (0..n).map(|v| base.successors(v).to_vec()).collect(),
            pairs: (0..pairs)
                .map(|_| {
                    let green: Vec<bool> = (0..n).map(|_| next() % 3 == 0).collect();
                    let red: Vec<bool> = (0..n).map(|_| next() % 4 == 0).collect();
                    (green, red)
                })
                .collect(),
        };
        bench.measure(&format!("games/rabin_iar/n{n}_k{pairs}"), || {
            black_box(solve_rabin(&rabin));
        });
    }
    bench.finish("games");
}
