//! Zielonka's recursive algorithm with winning-strategy extraction, plus
//! an independent strategy verifier used to cross-check the solver.

use crate::parity::{ParityGame, Player};
use sl_support::{Budget, BudgetMeter, SccWalk, SlError};

/// A solved parity game: per-vertex winner and, for each vertex owned by
/// its winner, a winning move.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Solution {
    /// `winner[v]` is the player who wins from `v` (with optimal play).
    pub winner: Vec<Player>,
    /// `strategy[v]` is the winning move at `v` when `owner(v) ==
    /// winner[v]`; `None` otherwise (the loser needs no strategy).
    pub strategy: Vec<Option<usize>>,
}

impl Solution {
    /// The winning region of a player.
    #[must_use]
    pub fn region(&self, player: Player) -> Vec<usize> {
        (0..self.winner.len())
            .filter(|&v| self.winner[v] == player)
            .collect()
    }
}

/// Solves a parity game by Zielonka's algorithm.
///
/// With `Some(budget)` each recursive sub-arena charges one step
/// against the budget's meter (phase `"games.zielonka"`), so a step
/// limit, wall-clock deadline, or cancellation flag aborts the
/// recursion with a typed error instead of running an adversarial
/// instance to completion. Zielonka's recursion depth is linear but the
/// call tree can be exponential in the number of priorities — exactly
/// the shape a deadline should bound. With `None` nothing is metered.
///
/// # Errors
///
/// [`SlError::BudgetExceeded`] / [`SlError::Cancelled`] from the
/// budget; never with `budget: None`.
pub fn solve(game: &ParityGame, budget: Option<&Budget>) -> Result<Solution, SlError> {
    let n = game.len();
    let mut winner = vec![Player::Even; n];
    let mut strategy: Vec<Option<usize>> = vec![None; n];
    let alive = vec![true; n];
    let mut meter = budget
        .unwrap_or(&Budget::unlimited())
        .meter("games.zielonka");
    solve_rec(game, alive, &mut winner, &mut strategy, &mut meter)?;
    Ok(Solution { winner, strategy })
}

fn solve_rec(
    game: &ParityGame,
    alive: Vec<bool>,
    winner: &mut [Player],
    strategy: &mut [Option<usize>],
    meter: &mut BudgetMeter,
) -> Result<(), SlError> {
    let vertices: Vec<usize> = (0..game.len()).filter(|&v| alive[v]).collect();
    if vertices.is_empty() {
        return Ok(());
    }
    meter.charge(1)?;
    let top = vertices
        .iter()
        .map(|&v| game.priority(v))
        .max()
        .expect("nonempty");
    let favored = Player::of_priority(top);
    let target: Vec<usize> = vertices
        .iter()
        .copied()
        .filter(|&v| game.priority(v) == top)
        .collect();
    let (attracted, attract_strategy) = game.attractor(&alive, &target, favored);

    // Solve the sub-arena without the attractor.
    let mut rest = alive.clone();
    for v in 0..game.len() {
        if attracted[v] {
            rest[v] = false;
        }
    }
    let mut sub_winner = vec![Player::Even; game.len()];
    let mut sub_strategy: Vec<Option<usize>> = vec![None; game.len()];
    solve_rec(
        game,
        rest.clone(),
        &mut sub_winner,
        &mut sub_strategy,
        meter,
    )?;

    let opponent = favored.opponent();
    let opponent_pocket: Vec<usize> = (0..game.len())
        .filter(|&v| rest[v] && sub_winner[v] == opponent)
        .collect();

    if opponent_pocket.is_empty() {
        // favored wins everywhere in this sub-arena.
        for &v in &vertices {
            winner[v] = favored;
            strategy[v] = None;
            if game.owner(v) != favored {
                continue;
            }
            if rest[v] {
                strategy[v] = sub_strategy[v];
            } else if let Some(next) = attract_strategy[v] {
                // Attractor move towards the top-priority set.
                strategy[v] = Some(next);
            } else {
                // v is in the target itself: any move staying alive works
                // (the play re-enters the attractor).
                strategy[v] = game.successors(v).iter().copied().find(|&w| alive[w]);
            }
        }
    } else {
        // The opponent wins their pocket plus its attractor; recurse on
        // the remainder.
        let (opp_attracted, opp_strategy) = game.attractor(&alive, &opponent_pocket, opponent);
        for v in 0..game.len() {
            if !alive[v] || !opp_attracted[v] {
                continue;
            }
            winner[v] = opponent;
            if game.owner(v) == opponent {
                // Inside the pocket keep the recursive strategy;
                // on the approach use the attractor strategy.
                strategy[v] = if rest[v] && sub_winner[v] == opponent {
                    sub_strategy[v]
                } else {
                    opp_strategy[v]
                };
            } else {
                strategy[v] = None;
            }
        }
        let mut remainder = alive;
        for v in 0..game.len() {
            if opp_attracted[v] {
                remainder[v] = false;
            }
        }
        solve_rec(game, remainder, winner, strategy, meter)?;
    }
    Ok(())
}

/// Independently verifies a claimed solution:
///
/// 1. winning regions are closed for the winner (the loser cannot escape
///    in one step without entering the winner's other region — i.e. each
///    region is a trap for its loser), and
/// 2. in the winner-strategy-restricted subgraph of each region, every
///    cycle has the winner's parity.
///
/// Returns a description of the first defect found.
pub fn verify(game: &ParityGame, solution: &Solution) -> Result<(), String> {
    let n = game.len();
    if solution.winner.len() != n || solution.strategy.len() != n {
        return Err("solution size mismatch".into());
    }
    for player in [Player::Even, Player::Odd] {
        let region: Vec<bool> = (0..n).map(|v| solution.winner[v] == player).collect();
        // Region must be nonempty to need checking.
        // Build restricted edges.
        let mut edges: Vec<Vec<usize>> = vec![Vec::new(); n];
        for v in 0..n {
            if !region[v] {
                continue;
            }
            if game.owner(v) == player {
                let Some(next) = solution.strategy[v] else {
                    return Err(format!("missing strategy at vertex {v}"));
                };
                if !game.successors(v).contains(&next) {
                    return Err(format!("strategy at {v} uses a non-edge"));
                }
                if !region[next] {
                    return Err(format!("strategy at {v} leaves the winning region"));
                }
                edges[v].push(next);
            } else {
                for &w in game.successors(v) {
                    if !region[w] {
                        return Err(format!(
                            "vertex {v} lets the opponent escape the region of {player}"
                        ));
                    }
                    edges[v].push(w);
                }
            }
        }
        // Every cycle in `edges` within the region must have max
        // priority of `player`'s parity. Check recursively: find the
        // max priority in each cyclic SCC; if it is the loser's parity,
        // fail; otherwise drop the top vertices and look for
        // loser-dominated sub-cycles among the rest.
        let mut active = region;
        loop {
            for outs in &mut edges {
                outs.retain(|&w| active[w]);
            }
            let mut walk = SccWalk::new(n);
            let mut changed = false;
            for root in 0..n {
                if walk.visited(root) {
                    continue;
                }
                let succ = |v: usize, i| edges[v].get(i).copied();
                let bad = walk.walk(root, succ, |comp| {
                    let top = comp
                        .iter()
                        .map(|&v| game.priority(v))
                        .max()
                        .expect("nonempty");
                    if Player::of_priority(top) != player {
                        return Some(());
                    }
                    for &v in comp {
                        if game.priority(v) == top {
                            active[v] = false;
                            changed = true;
                        }
                    }
                    None
                });
                if bad.is_some() {
                    return Err(format!(
                        "a cycle in the {player} region is dominated by the opponent's parity"
                    ));
                }
            }
            if !changed {
                break;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_even_loop() {
        let g = ParityGame::new(vec![Player::Even], vec![2], vec![vec![0]]);
        let s = solve(&g, None).unwrap();
        assert_eq!(s.winner, vec![Player::Even]);
        verify(&g, &s).unwrap();
    }

    #[test]
    fn single_odd_loop() {
        let g = ParityGame::new(vec![Player::Even], vec![1], vec![vec![0]]);
        let s = solve(&g, None).unwrap();
        assert_eq!(s.winner, vec![Player::Odd]);
        verify(&g, &s).unwrap();
    }

    #[test]
    fn chooser_picks_the_good_loop() {
        // 0 (Even, pr 0) -> {1, 2}; 1 (pr 2) self-loop; 2 (pr 1)
        // self-loop. Even should pick 1 and win everywhere except 2.
        let g = ParityGame::new(
            vec![Player::Even, Player::Even, Player::Even],
            vec![0, 2, 1],
            vec![vec![1, 2], vec![1], vec![2]],
        );
        let s = solve(&g, None).unwrap();
        assert_eq!(s.winner, vec![Player::Even, Player::Even, Player::Odd]);
        assert_eq!(s.strategy[0], Some(1));
        verify(&g, &s).unwrap();
    }

    #[test]
    fn opponent_forces_the_bad_loop() {
        // Same arena but Odd owns vertex 0: Odd sends the play to 2.
        let g = ParityGame::new(
            vec![Player::Odd, Player::Even, Player::Even],
            vec![0, 2, 1],
            vec![vec![1, 2], vec![1], vec![2]],
        );
        let s = solve(&g, None).unwrap();
        assert_eq!(s.winner, vec![Player::Odd, Player::Even, Player::Odd]);
        verify(&g, &s).unwrap();
    }

    #[test]
    fn alternation_cycle() {
        // 0 (Even, pr 1) <-> 1 (Odd, pr 2): the only play alternates and
        // sees max priority 2 infinitely often: Even wins everywhere.
        let g = ParityGame::new(
            vec![Player::Even, Player::Odd],
            vec![1, 2],
            vec![vec![1], vec![0]],
        );
        let s = solve(&g, None).unwrap();
        assert_eq!(s.winner, vec![Player::Even, Player::Even]);
        verify(&g, &s).unwrap();
    }

    #[test]
    fn textbook_example_with_escape() {
        // 0 (Odd, pr 3) -> 1; 1 (Even, pr 2) -> {0, 2}; 2 (Even, pr 4)
        // -> 2. From 1, Even should escape to the pr-4 loop; vertex 0
        // feeds into 1 so Even wins everywhere.
        let g = ParityGame::new(
            vec![Player::Odd, Player::Even, Player::Even],
            vec![3, 2, 4],
            vec![vec![1], vec![0, 2], vec![2]],
        );
        let s = solve(&g, None).unwrap();
        assert_eq!(s.winner, vec![Player::Even, Player::Even, Player::Even]);
        assert_eq!(s.strategy[1], Some(2));
        verify(&g, &s).unwrap();
    }

    #[test]
    fn verifier_rejects_wrong_winner() {
        let g = ParityGame::new(vec![Player::Even], vec![1], vec![vec![0]]);
        let bogus = Solution {
            winner: vec![Player::Even],
            strategy: vec![Some(0)],
        };
        assert!(verify(&g, &bogus).is_err());
    }

    #[test]
    fn verifier_rejects_escaping_strategy() {
        let g = ParityGame::new(
            vec![Player::Even, Player::Even, Player::Even],
            vec![0, 2, 1],
            vec![vec![1, 2], vec![1], vec![2]],
        );
        let bogus = Solution {
            winner: vec![Player::Even, Player::Even, Player::Odd],
            strategy: vec![Some(2), Some(1), None], // 0 -> 2 leaves region
        };
        assert!(verify(&g, &bogus).is_err());
    }

    /// 64-bit FNV-1a, folding `bytes` into `hash`.
    fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
        bytes.iter().fold(hash, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// Random games cross-checked: solve, then verify the strategies.
    /// Each solution is then corrupted — one winner flipped, one move
    /// redirected, or every owned move sent to its first successor —
    /// and the verifier's answers on the corrupted copies are pinned as
    /// a digest, computed before `verify` ran on the shared SCC walk.
    #[test]
    fn random_games_verify() {
        let mut corrupt = sl_support::SplitMix::new(0x2E11);
        let mut answers = 0xcbf2_9ce4_8422_2325u64;
        let mut rejected = 0;
        let mut state = 0xDEAD_BEEFu64;
        let mut rng = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        for round in 0..200 {
            let n = 2 + rng() % 7;
            let owner: Vec<Player> = (0..n)
                .map(|_| {
                    if rng() % 2 == 0 {
                        Player::Even
                    } else {
                        Player::Odd
                    }
                })
                .collect();
            let priority: Vec<u32> = (0..n).map(|_| (rng() % 6) as u32).collect();
            let succ: Vec<Vec<usize>> = (0..n)
                .map(|_| {
                    let degree = 1 + rng() % 3;
                    let mut outs: Vec<usize> = (0..degree).map(|_| rng() % n).collect();
                    outs.sort_unstable();
                    outs.dedup();
                    outs
                })
                .collect();
            let g = ParityGame::new(owner, priority, succ);
            let s = solve(&g, None).unwrap();
            verify(&g, &s).unwrap_or_else(|e| panic!("round {round}: {e}\n{g:?}\n{s:?}"));
            let mut bad = s.clone();
            let v = corrupt.below(n);
            match corrupt.below(3) {
                0 => bad.winner[v] = bad.winner[v].opponent(),
                1 => {
                    let outs = g.successors(v);
                    bad.strategy[v] = Some(outs[corrupt.below(outs.len())]);
                }
                _ => {
                    for (w, slot) in bad.strategy.iter_mut().enumerate() {
                        if g.owner(w) == bad.winner[w] {
                            *slot = g.successors(w).first().copied();
                        }
                    }
                }
            }
            let answer = verify(&g, &bad);
            rejected += usize::from(answer.is_err());
            answers = fnv1a(answers, format!("{round} {answer:?}\n").as_bytes());
        }
        assert_eq!(
            format!("{rejected} rejected, answers {answers:#018x}"),
            "100 rejected, answers 0xe4c339daa6cce5db"
        );
    }

    #[test]
    fn budgeted_solve_matches_unbudgeted() {
        let g = ParityGame::new(
            vec![Player::Odd, Player::Even, Player::Even],
            vec![3, 2, 4],
            vec![vec![1], vec![0, 2], vec![2]],
        );
        let s = solve(&g, Some(&Budget::unlimited())).unwrap();
        assert_eq!(s, solve(&g, None).unwrap());
    }

    #[test]
    fn budgeted_solve_stops_on_step_limit() {
        // The chooser arena needs at least two sub-arenas: the pr-2
        // attractor leaves the pr-1 self-loop for a recursive call.
        let g = ParityGame::new(
            vec![Player::Even, Player::Even, Player::Even],
            vec![0, 2, 1],
            vec![vec![1, 2], vec![1], vec![2]],
        );
        let err = solve(&g, Some(&Budget::unlimited().with_steps(1))).unwrap_err();
        assert!(err.is_budget_exceeded());
        assert_eq!(err.spent(), Some(2), "fails on the second sub-arena");
    }

    #[test]
    fn budgeted_solve_honors_cancellation() {
        use sl_support::CancelFlag;
        let flag = CancelFlag::new();
        flag.cancel();
        let g = ParityGame::new(vec![Player::Even], vec![2], vec![vec![0]]);
        let err = solve(&g, Some(&Budget::unlimited().with_cancel(&flag))).unwrap_err();
        assert!(err.is_cancelled());
    }

    #[test]
    fn regions_partition() {
        let g = ParityGame::new(
            vec![Player::Odd, Player::Even, Player::Even],
            vec![3, 2, 4],
            vec![vec![1], vec![0, 2], vec![2]],
        );
        let s = solve(&g, None).unwrap();
        let even = s.region(Player::Even);
        let odd = s.region(Player::Odd);
        assert_eq!(even.len() + odd.len(), g.len());
    }
}
