//! Counter-augmented Kripke products for the k-liveness reduction.
//!
//! `FG !bad` over all paths of a finite structure holds iff there is a
//! `k` such that no path visits a bad state more than `k` times. The
//! [`counter_product`] below is the structural half of that reduction:
//! every state is paired with a saturating visit counter, entering a
//! bad state bumps the counter, and the product's bad states are
//! exactly the saturated ones — so the liveness question becomes the
//! safety question `AG (counter < cap)` on the product.
//!
//! The product is built in full (reachability is the checker's job),
//! so its size is exactly predictable: `n * (cap + 1)` states and
//! `E * (cap + 1)` transitions for an `n`-state, `E`-edge original.
//!
//! [`CounterProduct::bad`] is the whole saturated layer because it is
//! the certificate contract: a Live invariant must hold no saturated
//! state, and the validators replay against this set. The k-liveness
//! sweep in `sl-pdr` queries only a subset of it, the saturated copies
//! `(b, cap)` of the bad states: the counter grows only on entering a
//! bad state, so those are the first saturated states on any path.

use crate::kripke::Kripke;

/// A counter-augmented product: the product structure, its saturated
/// (bad) states, and the projection back to the original.
#[derive(Debug, Clone)]
pub struct CounterProduct {
    /// The product Kripke structure; state `(s, c)` has the label of
    /// `s`.
    pub kripke: Kripke,
    /// Product states whose counter has saturated at `cap`, in
    /// increasing index order.
    pub bad: Vec<usize>,
    /// The saturation value the counters count up to.
    pub cap: usize,
}

impl CounterProduct {
    /// The product index of `(state, counter)`.
    #[must_use]
    pub fn state_id(&self, state: usize, counter: usize) -> usize {
        state * (self.cap + 1) + counter
    }

    /// The `(state, counter)` pair behind a product index.
    #[must_use]
    pub fn original(&self, id: usize) -> (usize, usize) {
        (id / (self.cap + 1), id % (self.cap + 1))
    }
}

/// Builds the counter-augmented product of `kripke` with a saturating
/// bad-visit counter.
///
/// Counters live in `{0..=cap}`. The initial product state is the
/// original initial state with its own badness already counted; taking
/// an edge into a bad state increments the counter (saturating at
/// `cap`). A path's counter reaches `cap` iff the path visits bad
/// states at least `cap` times.
///
/// # Panics
///
/// Panics if `cap` is zero or a bad index is out of range.
#[must_use]
pub fn counter_product(kripke: &Kripke, bad: &[usize], cap: usize) -> CounterProduct {
    assert!(cap > 0, "counter cap must be positive");
    let n = kripke.len();
    let mut is_bad = vec![false; n];
    for &b in bad {
        assert!(b < n, "bad state out of range");
        is_bad[b] = true;
    }
    let width = cap + 1;
    let mut labels = Vec::with_capacity(n * width);
    let mut offsets = Vec::with_capacity(n * width + 1);
    offsets.push(0);
    let edges: usize = (0..n).map(|s| kripke.successors(s).len()).sum();
    let mut targets = Vec::with_capacity(edges * width);
    for s in 0..n {
        for c in 0..width {
            labels.push(kripke.label(s));
            targets.extend(kripke.successors(s).iter().map(|&t| {
                let bump = usize::from(is_bad[t]);
                t * width + (c + bump).min(cap)
            }));
            offsets.push(targets.len());
        }
    }
    let initial_counter = usize::from(is_bad[kripke.initial()]).min(cap);
    let initial = kripke.initial() * width + initial_counter;
    let product = Kripke::from_rows(kripke.alphabet().clone(), labels, offsets, targets, initial);
    let saturated = (0..n).map(|s| s * width + cap).collect();
    CounterProduct {
        kripke: product,
        bad: saturated,
        cap,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sl_omega::Alphabet;

    /// 0(a) -> 1(b) -> 0; 1 is bad.
    fn two_cycle() -> Kripke {
        let sigma = Alphabet::ab();
        let a = sigma.symbol("a").unwrap();
        let b = sigma.symbol("b").unwrap();
        Kripke::new(sigma, vec![a, b], vec![vec![1], vec![0]], 0)
    }

    #[test]
    fn product_size_is_exactly_predictable() {
        let k = two_cycle();
        let product = counter_product(&k, &[1], 3);
        assert_eq!(product.kripke.len(), 2 * 4);
        let edges: usize = (0..product.kripke.len())
            .map(|s| product.kripke.successors(s).len())
            .sum();
        assert_eq!(edges, 2 * 4);
        assert_eq!(product.bad.len(), 2);
    }

    #[test]
    fn counter_counts_bad_visits() {
        let k = two_cycle();
        let product = counter_product(&k, &[1], 2);
        // 0 with counter 0 is initial (0 is not bad).
        assert_eq!(product.kripke.initial(), product.state_id(0, 0));
        // Stepping 0 -> 1 bumps the counter.
        assert_eq!(
            product.kripke.successors(product.state_id(0, 0)),
            &[product.state_id(1, 1)]
        );
        // Stepping back to 0 keeps it.
        assert_eq!(
            product.kripke.successors(product.state_id(1, 1)),
            &[product.state_id(0, 1)]
        );
        // The counter saturates at the cap.
        assert_eq!(
            product.kripke.successors(product.state_id(0, 2)),
            &[product.state_id(1, 2)]
        );
    }

    #[test]
    fn bad_initial_state_starts_counted() {
        let k = two_cycle().rooted_at(1);
        let product = counter_product(&k, &[1], 2);
        assert_eq!(product.kripke.initial(), product.state_id(1, 1));
    }

    #[test]
    fn round_trip_ids() {
        let k = two_cycle();
        let product = counter_product(&k, &[1], 3);
        for id in 0..product.kripke.len() {
            let (s, c) = product.original(id);
            assert_eq!(product.state_id(s, c), id);
        }
    }
}
