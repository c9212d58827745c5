//! Threshold arithmetic for the `n_v/3` and `2n_v/3` quorum rules.
//!
//! The paper's central observation: if all correct nodes broadcast in a
//! round, then each correct node `v` receives fewer than `n_v/3` messages
//! from Byzantine nodes, where `n_v` is the number of nodes `v` has heard
//! from — so the classic `f + 1` / `n − f` thresholds can be replaced by
//! `n_v/3` / `2n_v/3` even though `n_v/3` is *not* a correct upper bound on
//! the number of failures.
//!
//! All comparisons are exact rational arithmetic over integers — no floats:
//! `count ≥ n/3 ⟺ 3·count ≥ n` and `count ≥ 2n/3 ⟺ 3·count ≥ 2n`.

use std::collections::BTreeMap;

/// `count ≥ n/3` (exactly, as rationals), with the convention that hearing
/// nothing never meets a quorum.
///
/// # Examples
///
/// ```
/// use uba_core::quorum::meets_third;
/// assert!(meets_third(2, 4));  // 2 ≥ 4/3
/// assert!(!meets_third(1, 4)); // 1 < 4/3
/// assert!(meets_third(1, 3));  // 1 ≥ 1
/// assert!(!meets_third(0, 0)); // vacuous quorums are rejected
/// ```
pub fn meets_third(count: usize, n: usize) -> bool {
    count > 0 && 3 * count >= n
}

/// `count ≥ 2n/3` (exactly, as rationals), with the same non-vacuous
/// convention as [`meets_third`].
///
/// # Examples
///
/// ```
/// use uba_core::quorum::meets_two_thirds;
/// assert!(meets_two_thirds(3, 4));  // 3 ≥ 8/3
/// assert!(!meets_two_thirds(2, 4)); // 2 < 8/3
/// assert!(meets_two_thirds(2, 3));  // 2 ≥ 2
/// ```
pub fn meets_two_thirds(count: usize, n: usize) -> bool {
    count > 0 && 3 * count >= 2 * n
}

/// Tallies occurrences of each value.
///
/// Returns a map from value to count, deterministic by the value ordering.
pub fn tally<V: Ord, I: IntoIterator<Item = V>>(values: I) -> BTreeMap<V, usize> {
    let mut map = BTreeMap::new();
    for v in values {
        *map.entry(v).or_insert(0) += 1;
    }
    map
}

/// The value with the highest count (ties broken toward the smaller value),
/// or `None` for an empty tally.
///
/// When `n > 3f`, the quorum-intersection lemmas of the paper guarantee at
/// most one value can reach a `2n_v/3` quorum; this deterministic selection
/// only matters in deliberately broken (`n ≤ 3f`) configurations, where the
/// algorithms must still behave deterministically rather than panic.
pub fn max_tally<V: Ord + Clone>(tally: &BTreeMap<V, usize>) -> Option<(V, usize)> {
    first_max(tally.iter().map(|(v, &c)| (v, c))).map(|(v, c)| (v.clone(), c))
}

/// [`max_tally`]'s rule over `(value, count)` pairs given in ascending
/// value order: the highest count, the first (smallest) value among equals.
pub(crate) fn first_max<V>(ascending: impl IntoIterator<Item = (V, usize)>) -> Option<(V, usize)> {
    let mut best: Option<(V, usize)> = None;
    for (v, count) in ascending {
        if best.as_ref().is_none_or(|&(_, top)| count > top) {
            best = Some((v, count));
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn third_threshold_boundaries() {
        // n = 6: n/3 = 2.
        assert!(!meets_third(1, 6));
        assert!(meets_third(2, 6));
        // n = 7: n/3 = 2.33…, so 3 is needed.
        assert!(!meets_third(2, 7));
        assert!(meets_third(3, 7));
        // n = 1.
        assert!(meets_third(1, 1));
    }

    #[test]
    fn two_thirds_threshold_boundaries() {
        // n = 6: 2n/3 = 4.
        assert!(!meets_two_thirds(3, 6));
        assert!(meets_two_thirds(4, 6));
        // n = 7: 2n/3 = 4.66…, so 5 is needed.
        assert!(!meets_two_thirds(4, 7));
        assert!(meets_two_thirds(5, 7));
        // n = 1: a single self-echo suffices.
        assert!(meets_two_thirds(1, 1));
    }

    #[test]
    fn zero_count_never_meets() {
        assert!(!meets_third(0, 0));
        assert!(!meets_two_thirds(0, 0));
    }

    #[test]
    fn tally_counts() {
        let t = tally(vec!["a", "b", "a", "a"]);
        assert_eq!(t["a"], 3);
        assert_eq!(t["b"], 1);
    }

    #[test]
    fn max_tally_breaks_ties_low() {
        let t = tally(vec![2, 1, 1, 2]);
        assert_eq!(max_tally(&t), Some((1, 2)));
        let empty: BTreeMap<u8, usize> = BTreeMap::new();
        assert_eq!(max_tally(&empty), None);
    }
}
