//! Convenience runners and property checkers shared by tests, examples and
//! the experiment harness.

use std::collections::BTreeMap;
use std::fmt::Debug;

use uba_sim::{sparse_ids, NodeId};

/// The node population of one experiment: correct and faulty identifiers,
/// all sparse and disjoint.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Setup {
    /// Correct node ids, ascending.
    pub correct: Vec<NodeId>,
    /// Faulty node ids, ascending.
    pub faulty: Vec<NodeId>,
}

impl Setup {
    /// Samples `n_correct + n_faulty` sparse identifiers and splits them
    /// pseudo-randomly (but deterministically per seed) between correct and
    /// faulty nodes, so that faulty ids are interleaved with correct ones in
    /// the identifier order — the adversary should not always own the
    /// largest ids, since the rotor-coordinator selects by id order.
    pub fn new(n_correct: usize, n_faulty: usize, seed: u64) -> Self {
        let all = sparse_ids(n_correct + n_faulty, seed);
        // Deterministic interleaving: spread faulty ids across the order.
        let mut correct = Vec::with_capacity(n_correct);
        let mut faulty = Vec::with_capacity(n_faulty);
        let total = all.len();
        for (i, id) in all.into_iter().enumerate() {
            // Assign every ⌈total/n_faulty⌉-th position to the adversary.
            let is_faulty = n_faulty > 0
                && (i * n_faulty) % total < n_faulty
                && faulty.len() < n_faulty
                && i % 2 == 1;
            if is_faulty {
                faulty.push(id);
            } else {
                correct.push(id);
            }
        }
        // Top up if the stride under-assigned.
        while faulty.len() < n_faulty {
            faulty.push(correct.pop().expect("enough ids"));
        }
        correct.sort_unstable();
        faulty.sort_unstable();
        Setup { correct, faulty }
    }

    /// Total number of nodes.
    pub fn n(&self) -> usize {
        self.correct.len() + self.faulty.len()
    }

    /// Number of faulty nodes.
    pub fn f(&self) -> usize {
        self.faulty.len()
    }

    /// Whether this population satisfies the optimal-resiliency condition.
    pub fn satisfies_resiliency(&self) -> bool {
        self.n() > 3 * self.f()
    }
}

/// The largest `f` with `n > 3f`.
pub fn max_faulty(n: usize) -> usize {
    n.saturating_sub(1) / 3
}

/// Asserts that all outputs are equal and returns the common value.
///
/// # Panics
///
/// Panics if the map is empty or two outputs differ.
pub fn assert_agreement<V: PartialEq + Clone + Debug>(outputs: &BTreeMap<NodeId, V>) -> V {
    let mut iter = outputs.iter();
    let (first_id, first) = iter.next().expect("at least one output");
    for (id, v) in iter {
        assert_eq!(
            v, first,
            "agreement violated: {id} decided {v:?}, {first_id} decided {first:?}"
        );
    }
    first.clone()
}

/// The `(min, max)` of a set of real-valued outputs.
///
/// # Panics
///
/// Panics if the map is empty.
pub fn output_range(outputs: &BTreeMap<NodeId, f64>) -> (f64, f64) {
    assert!(!outputs.is_empty(), "no outputs");
    let lo = outputs.values().cloned().fold(f64::INFINITY, f64::min);
    let hi = outputs.values().cloned().fold(f64::NEG_INFINITY, f64::max);
    (lo, hi)
}

/// Whether `a` is a prefix of `b` or vice versa (the chain-prefix property).
pub fn mutual_prefix<T: PartialEq>(a: &[T], b: &[T]) -> bool {
    let k = a.len().min(b.len());
    a[..k] == b[..k]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_is_disjoint_and_deterministic() {
        let s1 = Setup::new(7, 2, 3);
        let s2 = Setup::new(7, 2, 3);
        assert_eq!(s1, s2);
        assert_eq!(s1.correct.len(), 7);
        assert_eq!(s1.faulty.len(), 2);
        for f in &s1.faulty {
            assert!(!s1.correct.contains(f));
        }
        assert!(s1.satisfies_resiliency());
    }

    #[test]
    fn setup_interleaves_faulty_ids() {
        // At least sometimes a faulty id must be smaller than some correct
        // id, otherwise the rotor never selects a faulty candidate first.
        let s = Setup::new(6, 2, 1);
        let min_correct = s.correct.iter().min().unwrap();
        let max_faulty_id = s.faulty.iter().max().unwrap();
        assert!(max_faulty_id > min_correct || s.faulty.iter().min().unwrap() < min_correct);
    }

    #[test]
    fn max_faulty_boundary() {
        assert_eq!(max_faulty(1), 0);
        assert_eq!(max_faulty(3), 0);
        assert_eq!(max_faulty(4), 1);
        assert_eq!(max_faulty(7), 2);
        assert_eq!(max_faulty(10), 3);
    }

    #[test]
    fn agreement_checks() {
        let mut outputs = BTreeMap::new();
        outputs.insert(NodeId::new(1), 5u8);
        outputs.insert(NodeId::new(2), 5u8);
        assert_eq!(assert_agreement(&outputs), 5);
    }

    #[test]
    #[should_panic(expected = "agreement violated")]
    fn assert_agreement_panics_on_split() {
        let mut outputs = BTreeMap::new();
        outputs.insert(NodeId::new(1), 1u8);
        outputs.insert(NodeId::new(2), 2u8);
        assert_agreement(&outputs);
    }

    #[test]
    fn prefix_check() {
        assert!(mutual_prefix(&[1, 2], &[1, 2, 3]));
        assert!(mutual_prefix(&[1, 2, 3], &[1, 2]));
        assert!(!mutual_prefix(&[1, 9], &[1, 2, 3]));
        assert!(mutual_prefix::<u8>(&[], &[1]));
    }

    #[test]
    fn output_range_works() {
        let mut outputs = BTreeMap::new();
        outputs.insert(NodeId::new(1), 1.5);
        outputs.insert(NodeId::new(2), -0.5);
        assert_eq!(output_range(&outputs), (-0.5, 1.5));
    }
}
