//! Rabin games, solved by reduction to parity games via index appearance
//! records (IAR).
//!
//! A Rabin winning condition is a list of pairs `(Green_i, Red_i)`; the
//! protagonist (player [`Player::Even`] after the reduction) wins a play
//! iff for some `i`, `Green_i` is visited infinitely often and `Red_i`
//! only finitely often — the same acceptance shape as the paper's Rabin
//! tree automata (Section 4.4, `Φ = ⋁_i (GF green_i ∧ FG ¬red_i)`).
//!
//! The IAR keeps a permutation of the pair indices; on every step the
//! indices whose red set was just hit are moved to the front. A pair
//! whose green recurs forever while its red eventually stops migrates to
//! a stable position and dominates with an even priority.

use crate::parity::{ParityGame, Player};
use crate::zielonka::{solve, Solution};
use std::collections::HashMap;

/// A Rabin game arena: like a parity game but with pair-based winning.
#[derive(Debug, Clone)]
pub struct RabinGame {
    /// Owner of each vertex; [`Player::Even`] is the protagonist who
    /// wants the Rabin condition to hold.
    pub owner: Vec<Player>,
    /// Successor lists (every vertex needs at least one).
    pub succ: Vec<Vec<usize>>,
    /// The Rabin pairs: `(green, red)` membership flags per vertex.
    pub pairs: Vec<(Vec<bool>, Vec<bool>)>,
}

/// The solution of a Rabin game (winners per vertex, in the *original*
/// arena).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RabinSolution {
    /// `winner[v]` for each original vertex, assuming the IAR starts in
    /// the identity permutation.
    pub winner: Vec<Player>,
}

impl RabinGame {
    /// Number of vertices.
    #[must_use]
    pub fn len(&self) -> usize {
        self.owner.len()
    }

    /// Whether the arena is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.owner.is_empty()
    }

    fn validate(&self) {
        let n = self.len();
        assert_eq!(self.succ.len(), n, "succ length mismatch");
        for (green, red) in &self.pairs {
            assert_eq!(green.len(), n, "green set length mismatch");
            assert_eq!(red.len(), n, "red set length mismatch");
        }
        for (v, outs) in self.succ.iter().enumerate() {
            assert!(!outs.is_empty(), "vertex {v} has no successors");
            for &w in outs {
                assert!(w < n, "successor out of range");
            }
        }
    }
}

/// One vertex of the IAR-expanded parity game: original vertex plus the
/// current permutation of pair indices.
type IarNode = (usize, Vec<usize>);

/// Solves a Rabin game by expanding index appearance records into a
/// parity game and running Zielonka. Exponential in the number of pairs
/// (factorially many permutations), fine for the handful of pairs tree
/// automata produce.
///
/// # Panics
///
/// Panics if the arena is malformed (see [`RabinGame`] field docs).
#[must_use]
pub fn solve_rabin(game: &RabinGame) -> RabinSolution {
    game.validate();
    let n = game.len();
    let k = game.pairs.len();
    if k == 0 {
        // No pairs: the Rabin condition is unsatisfiable; Odd wins
        // everywhere.
        return RabinSolution {
            winner: vec![Player::Odd; n],
        };
    }

    // Lazily build the product arena from all (vertex, permutation)
    // pairs reachable from identity starts.
    let mut ids: HashMap<IarNode, usize> = HashMap::new();
    let mut nodes: Vec<IarNode> = Vec::new();
    let mut work: Vec<usize> = Vec::new();
    let identity: Vec<usize> = (0..k).collect();
    for v in 0..n {
        let node = (v, identity.clone());
        ids.insert(node.clone(), nodes.len());
        work.push(nodes.len());
        nodes.push(node);
    }
    let mut owner: Vec<Player> = Vec::new();
    let mut priority: Vec<u32> = Vec::new();
    let mut edges: Vec<Vec<usize>> = Vec::new();

    // Priorities computed on entry to a node: examine the node's vertex
    // against the *previous* permutation is the usual formulation; the
    // equivalent vertex-based variant computes the record update and the
    // priority when constructing the node, storing both.
    // Here each IAR node stores the permutation *before* processing its
    // vertex; the outgoing step updates it.
    while let Some(id) = work.pop() {
        let (v, perm) = nodes[id].clone();
        // Positions are 1-based from the back: higher position = more
        // senior (longer since last red hit).
        let pos = |i: usize| perm.iter().position(|&x| x == i).expect("perm") + 1;
        let mut highest_red = 0usize;
        let mut highest_green = 0usize;
        for i in 0..k {
            if game.pairs[i].1[v] {
                highest_red = highest_red.max(pos(i));
            }
            if game.pairs[i].0[v] {
                highest_green = highest_green.max(pos(i));
            }
        }
        // Even (the protagonist) profits from a green beyond every red.
        let prio = if highest_green > highest_red {
            2 * highest_green as u32
        } else {
            2 * highest_red as u32 + 1
        };
        // Update the record: move red-hit indices to the front
        // (position 1 side), preserving relative order of the rest.
        let mut moved: Vec<usize> = perm
            .iter()
            .copied()
            .filter(|&i| game.pairs[i].1[v])
            .collect();
        let rest: Vec<usize> = perm
            .iter()
            .copied()
            .filter(|&i| !game.pairs[i].1[v])
            .collect();
        moved.extend(rest);
        let next_perm = moved;

        while owner.len() <= id {
            owner.push(Player::Even);
            priority.push(0);
            edges.push(Vec::new());
        }
        owner[id] = game.owner[v];
        priority[id] = prio;
        let mut outs = Vec::new();
        for &w in &game.succ[v] {
            let node = (w, next_perm.clone());
            let nid = match ids.get(&node) {
                Some(&nid) => nid,
                None => {
                    let nid = nodes.len();
                    ids.insert(node.clone(), nid);
                    nodes.push(node);
                    work.push(nid);
                    nid
                }
            };
            outs.push(nid);
        }
        edges[id] = outs;
    }
    debug_assert_eq!(owner.len(), nodes.len(), "all IAR nodes processed");
    let parity = ParityGame::new(owner, priority, edges);
    let solution: Solution = solve(&parity, None).expect("an unmetered solve cannot fail");
    RabinSolution {
        winner: (0..n).map(|v| solution.winner[v]).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Encodes a parity game as a Rabin game (max-even parity): for each
    /// even priority d, pair (green = {pr = d}, red = {pr > d}).
    fn parity_as_rabin(owner: &[Player], priority: &[u32], succ: &[Vec<usize>]) -> RabinGame {
        let n = owner.len();
        let mut pairs = Vec::new();
        let top = priority.iter().copied().max().unwrap_or(0);
        for d in (0..=top).filter(|d| d % 2 == 0) {
            let green: Vec<bool> = (0..n).map(|v| priority[v] == d).collect();
            let red: Vec<bool> = (0..n).map(|v| priority[v] > d).collect();
            pairs.push((green, red));
        }
        RabinGame {
            owner: owner.to_vec(),
            succ: succ.to_vec(),
            pairs,
        }
    }

    #[test]
    fn single_pair_green_loop() {
        // One vertex, self loop, green for pair 0, no red: Even wins.
        let game = RabinGame {
            owner: vec![Player::Even],
            succ: vec![vec![0]],
            pairs: vec![(vec![true], vec![false])],
        };
        assert_eq!(solve_rabin(&game).winner, vec![Player::Even]);
    }

    #[test]
    fn single_pair_red_and_green_loop() {
        // The loop hits both green and red of the same pair: Rabin
        // condition fails (red infinitely often): Odd wins.
        let game = RabinGame {
            owner: vec![Player::Even],
            succ: vec![vec![0]],
            pairs: vec![(vec![true], vec![true])],
        };
        assert_eq!(solve_rabin(&game).winner, vec![Player::Odd]);
    }

    #[test]
    fn no_pairs_odd_wins() {
        let game = RabinGame {
            owner: vec![Player::Even],
            succ: vec![vec![0]],
            pairs: vec![],
        };
        assert_eq!(solve_rabin(&game).winner, vec![Player::Odd]);
    }

    #[test]
    fn protagonist_chooses_clean_loop() {
        // 0 (Even) -> {1, 2}; 1: green0 loop; 2: red0 loop.
        let game = RabinGame {
            owner: vec![Player::Even; 3],
            succ: vec![vec![1, 2], vec![1], vec![2]],
            pairs: vec![(vec![false, true, false], vec![false, false, true])],
        };
        let sol = solve_rabin(&game);
        assert_eq!(sol.winner[0], Player::Even);
        assert_eq!(sol.winner[1], Player::Even);
        assert_eq!(sol.winner[2], Player::Odd);
    }

    #[test]
    fn antagonist_forces_red() {
        // Same arena, Odd owns vertex 0.
        let game = RabinGame {
            owner: vec![Player::Odd, Player::Even, Player::Even],
            succ: vec![vec![1, 2], vec![1], vec![2]],
            pairs: vec![(vec![false, true, false], vec![false, false, true])],
        };
        let sol = solve_rabin(&game);
        assert_eq!(sol.winner[0], Player::Odd);
    }

    #[test]
    fn two_pairs_alternation() {
        // Loop alternating 0 and 1; pair 0: green at 0, red at 1;
        // pair 1: green at 1, red at 0. Both pairs see their red
        // infinitely often: Odd wins.
        let game = RabinGame {
            owner: vec![Player::Even, Player::Even],
            succ: vec![vec![1], vec![0]],
            pairs: vec![
                (vec![true, false], vec![false, true]),
                (vec![false, true], vec![true, false]),
            ],
        };
        assert_eq!(solve_rabin(&game).winner, vec![Player::Odd, Player::Odd]);
    }

    #[test]
    fn two_pairs_one_satisfiable() {
        // Loop alternating 0 and 1; pair 0 red everywhere, pair 1 green
        // at 1 and never red: Even wins via pair 1.
        let game = RabinGame {
            owner: vec![Player::Even, Player::Even],
            succ: vec![vec![1], vec![0]],
            pairs: vec![
                (vec![true, true], vec![true, true]),
                (vec![false, true], vec![false, false]),
            ],
        };
        assert_eq!(solve_rabin(&game).winner, vec![Player::Even, Player::Even]);
    }

    /// Differential test: random parity games encoded as Rabin games
    /// must produce identical winners through the IAR pipeline.
    #[test]
    fn iar_agrees_with_direct_parity() {
        let mut state = 0x00C0_FFEEu64;
        let mut rng = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        for round in 0..100 {
            let n = 2 + rng() % 5;
            let owner: Vec<Player> = (0..n)
                .map(|_| {
                    if rng() % 2 == 0 {
                        Player::Even
                    } else {
                        Player::Odd
                    }
                })
                .collect();
            let priority: Vec<u32> = (0..n).map(|_| (rng() % 5) as u32).collect();
            let succ: Vec<Vec<usize>> = (0..n)
                .map(|_| {
                    let degree = 1 + rng() % 2;
                    let mut outs: Vec<usize> = (0..degree).map(|_| rng() % n).collect();
                    outs.sort_unstable();
                    outs.dedup();
                    outs
                })
                .collect();
            let direct = solve(
                &ParityGame::new(owner.clone(), priority.clone(), succ.clone()),
                None,
            )
            .unwrap();
            let rabin = solve_rabin(&parity_as_rabin(&owner, &priority, &succ));
            assert_eq!(
                rabin.winner, direct.winner,
                "round {round}: IAR disagrees with direct parity\nowners {owner:?} prios {priority:?} succ {succ:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "has no successors")]
    fn totality_enforced() {
        let game = RabinGame {
            owner: vec![Player::Even],
            succ: vec![vec![]],
            pairs: vec![(vec![true], vec![false])],
        };
        let _ = solve_rabin(&game);
    }
}
