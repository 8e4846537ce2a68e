//! Bisimulation minimization of regular trees.
//!
//! Two graph nodes of a [`RegularTree`] denote the same subtree iff they
//! have equal labels, equal branching widths, and pairwise-equivalent
//! children — the coarsest such relation is computed by partition
//! refinement, and quotienting by it yields the unique minimal
//! representation of the denoted tree. Minimization gives a canonical
//! form: two regular trees denote the same total tree iff their
//! minimizations are isomorphic with matched roots (for deterministic
//! ordered trees, isomorphism is just equality of the reachable
//! renumbered graphs).

use crate::regular::RegularTree;

/// The coarsest subtree-equivalence on graph nodes: `class[v]` is the
/// class index of node `v`.
#[must_use]
pub fn subtree_classes(tree: &RegularTree) -> Vec<usize> {
    let n = tree.num_graph_nodes();
    // Initial partition: by (label, width).
    let mut class: Vec<usize> = {
        let mut keys: Vec<(u16, usize)> = (0..n)
            .map(|v| (tree.label(v).0, tree.children(v).len()))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        sorted.dedup();
        keys.iter_mut()
            .map(|k| sorted.binary_search(k).expect("present"))
            .collect()
    };
    // Refine until stable: signature = (class, classes of children).
    loop {
        let signatures: Vec<(usize, Vec<usize>)> = (0..n)
            .map(|v| {
                (
                    class[v],
                    tree.children(v).iter().map(|&c| class[c]).collect(),
                )
            })
            .collect();
        let mut sorted = signatures.clone();
        sorted.sort_unstable();
        sorted.dedup();
        let next: Vec<usize> = signatures
            .iter()
            .map(|s| sorted.binary_search(s).expect("present"))
            .collect();
        if next == class {
            return class;
        }
        class = next;
    }
}

/// The minimal regular-tree representation of the denoted tree: one
/// graph node per reachable subtree class.
#[must_use]
pub fn minimize(tree: &RegularTree) -> RegularTree {
    let class = subtree_classes(tree);
    let n = tree.num_graph_nodes();
    // Representative node per class (first occurrence), restricted to
    // classes reachable from the root.
    let mut reachable_classes: Vec<usize> = Vec::new();
    let mut rep_of: std::collections::HashMap<usize, usize> = std::collections::HashMap::new();
    let mut stack = vec![tree.root()];
    let mut seen = vec![false; n];
    seen[tree.root()] = true;
    while let Some(v) = stack.pop() {
        let c = class[v];
        if let std::collections::hash_map::Entry::Vacant(entry) = rep_of.entry(c) {
            entry.insert(v);
            reachable_classes.push(c);
        }
        for &child in tree.children(v) {
            if !seen[child] {
                seen[child] = true;
                stack.push(child);
            }
        }
    }
    reachable_classes.sort_unstable();
    let index_of = |c: usize| reachable_classes.binary_search(&c).expect("reachable");
    let labels: Vec<sl_omega::Symbol> = reachable_classes
        .iter()
        .map(|&c| tree.label(rep_of[&c]))
        .collect();
    let children: Vec<Vec<usize>> = reachable_classes
        .iter()
        .map(|&c| {
            tree.children(rep_of[&c])
                .iter()
                .map(|&child| index_of(class[child]))
                .collect()
        })
        .collect();
    RegularTree::new(
        tree.alphabet().clone(),
        labels,
        children,
        index_of(class[tree.root()]),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use sl_omega::Alphabet;

    fn sigma() -> Alphabet {
        Alphabet::ab()
    }

    fn sym(name: &str) -> sl_omega::Symbol {
        sigma().symbol(name).unwrap()
    }

    #[test]
    fn redundant_representation_collapses() {
        // Two nodes both denoting the constant-a tree.
        let bloated =
            RegularTree::new(sigma(), vec![sym("a"), sym("a")], vec![vec![1], vec![0]], 0);
        let minimal = minimize(&bloated);
        assert_eq!(minimal.num_graph_nodes(), 1);
        assert!(minimal.denotes_same_tree(&bloated));
    }

    #[test]
    fn distinct_subtrees_stay_distinct() {
        // Root a with an all-a and an all-b branch: 3 genuinely
        // different subtrees.
        let t = RegularTree::new(
            sigma(),
            vec![sym("a"), sym("a"), sym("b")],
            vec![vec![1, 2], vec![1], vec![2]],
            0,
        );
        let m = minimize(&t);
        assert_eq!(m.num_graph_nodes(), 3);
        assert!(m.denotes_same_tree(&t));
    }

    #[test]
    fn unreachable_nodes_dropped() {
        let t = RegularTree::new(
            sigma(),
            vec![sym("a"), sym("b")],
            vec![vec![0], vec![1]], // node 1 unreachable from root 0
            0,
        );
        let m = minimize(&t);
        assert_eq!(m.num_graph_nodes(), 1);
        assert!(m.denotes_same_tree(&t));
    }

    #[test]
    fn minimization_is_canonical_for_equal_trees() {
        // Two different representations of a (ab)^ω spine: minimal
        // forms have the same size and denote the same tree.
        let one = RegularTree::new(sigma(), vec![sym("a"), sym("b")], vec![vec![1], vec![0]], 0);
        let two = RegularTree::new(
            sigma(),
            vec![sym("a"), sym("b"), sym("a"), sym("b")],
            vec![vec![1], vec![2], vec![3], vec![0]],
            0,
        );
        let m1 = minimize(&one);
        let m2 = minimize(&two);
        assert!(one.denotes_same_tree(&two));
        assert_eq!(m1.num_graph_nodes(), m2.num_graph_nodes());
        assert!(m1.denotes_same_tree(&m2));
    }

    #[test]
    fn minimization_preserves_ctl_properties() {
        use crate::ctl::parse_ctl;
        let s = sigma();
        for t in crate::regular::enumerate_regular_trees(&s, 2, 2) {
            let m = minimize(&t);
            assert!(m.denotes_same_tree(&t));
            for text in ["AF b", "EG a", "AGF a", "EFG b"] {
                let f = parse_ctl(&s, text).unwrap();
                assert_eq!(m.satisfies(&f), t.satisfies(&f), "{text} on {t:?}");
            }
        }
    }

    #[test]
    fn widths_separate_classes() {
        // Same labels everywhere but different widths cannot merge.
        let t = RegularTree::new(
            sigma(),
            vec![sym("a"), sym("a")],
            vec![vec![1, 1], vec![1]],
            0,
        );
        let m = minimize(&t);
        assert_eq!(m.num_graph_nodes(), 2);
    }
}
