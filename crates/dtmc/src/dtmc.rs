//! The explicit DTMC: matrix + initial distribution + labels + rewards.

use crate::bitvec::BitVec;
use crate::error::DtmcError;
use crate::matrix::{TransitionMatrix, STOCHASTIC_TOL};
use std::collections::BTreeMap;

/// Index of a state in an explicit [`Dtmc`].
pub type StateId = u32;

/// An explicit finite DTMC with atomic-proposition labels and a state reward
/// structure.
///
/// Invariants, enforced at construction:
/// * the matrix is row-stochastic (checked by the matrix constructors),
/// * the initial distribution sums to one,
/// * every label bit vector and the reward vector have length `n`.
#[derive(Debug, Clone)]
pub struct Dtmc {
    matrix: TransitionMatrix,
    initial: Vec<(StateId, f64)>,
    labels: BTreeMap<String, BitVec>,
    rewards: Vec<f64>,
}

impl Dtmc {
    /// Assembles a DTMC, validating the invariants listed on the type.
    ///
    /// # Errors
    ///
    /// * [`DtmcError::BadInitialDistribution`] if the initial masses do not
    ///   sum to one (or reference out-of-range states).
    /// * [`DtmcError::DimensionMismatch`] if a label or reward vector has
    ///   the wrong length.
    pub fn new(
        matrix: TransitionMatrix,
        initial: Vec<(StateId, f64)>,
        labels: BTreeMap<String, BitVec>,
        rewards: Vec<f64>,
    ) -> Result<Self, DtmcError> {
        let n = matrix.n();
        let mut sum = 0.0;
        for &(s, p) in &initial {
            if (s as usize) >= n || p < 0.0 || p.is_nan() {
                return Err(DtmcError::BadInitialDistribution { sum: f64::NAN });
            }
            sum += p;
        }
        if (sum - 1.0).abs() > STOCHASTIC_TOL {
            return Err(DtmcError::BadInitialDistribution { sum });
        }
        for bv in labels.values() {
            if bv.len() != n {
                return Err(DtmcError::DimensionMismatch {
                    expected: n,
                    actual: bv.len(),
                });
            }
        }
        if rewards.len() != n {
            return Err(DtmcError::DimensionMismatch {
                expected: n,
                actual: rewards.len(),
            });
        }
        Ok(Dtmc {
            matrix,
            initial,
            labels,
            rewards,
        })
    }

    /// The number of states.
    pub fn n_states(&self) -> usize {
        self.matrix.n()
    }

    /// The transition matrix.
    pub fn matrix(&self) -> &TransitionMatrix {
        &self.matrix
    }

    /// The initial distribution as `(state, mass)` pairs.
    pub fn initial(&self) -> &[(StateId, f64)] {
        &self.initial
    }

    /// The initial distribution as a dense vector.
    pub fn initial_dense(&self) -> Vec<f64> {
        let mut pi = vec![0.0; self.n_states()];
        for &(s, p) in &self.initial {
            pi[s as usize] += p;
        }
        pi
    }

    /// The states satisfying label `name`.
    ///
    /// # Errors
    ///
    /// Returns [`DtmcError::UnknownLabel`] if no such label exists.
    pub fn label(&self, name: &str) -> Result<&BitVec, DtmcError> {
        self.labels
            .get(name)
            .ok_or_else(|| DtmcError::UnknownLabel {
                name: name.to_string(),
            })
    }

    /// All label names, sorted.
    pub fn label_names(&self) -> Vec<&str> {
        self.labels.keys().map(String::as_str).collect()
    }

    /// Every label's state set, by name.
    pub fn labels(&self) -> &BTreeMap<String, BitVec> {
        &self.labels
    }

    /// The state reward vector.
    pub fn rewards(&self) -> &[f64] {
        &self.rewards
    }

    /// Replaces the reward vector (used by analyses that re-weight states).
    ///
    /// # Errors
    ///
    /// Returns [`DtmcError::DimensionMismatch`] on length mismatch.
    pub fn with_rewards(mut self, rewards: Vec<f64>) -> Result<Self, DtmcError> {
        if rewards.len() != self.n_states() {
            return Err(DtmcError::DimensionMismatch {
                expected: self.n_states(),
                actual: rewards.len(),
            });
        }
        self.rewards = rewards;
        Ok(self)
    }

    /// Adds (or replaces) a label.
    ///
    /// # Errors
    ///
    /// Returns [`DtmcError::DimensionMismatch`] on length mismatch.
    pub fn insert_label(&mut self, name: &str, bits: BitVec) -> Result<(), DtmcError> {
        if bits.len() != self.n_states() {
            return Err(DtmcError::DimensionMismatch {
                expected: self.n_states(),
                actual: bits.len(),
            });
        }
        self.labels.insert(name.to_string(), bits);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::CsrMatrix;

    fn tiny() -> Dtmc {
        let m = TransitionMatrix::Sparse(
            CsrMatrix::from_rows(vec![vec![(0, 0.5), (1, 0.5)], vec![(1, 1.0)]]).unwrap(),
        );
        let mut labels = BTreeMap::new();
        labels.insert("done".to_string(), BitVec::from_fn(2, |i| i == 1));
        Dtmc::new(m, vec![(0, 1.0)], labels, vec![0.0, 1.0]).unwrap()
    }

    #[test]
    fn construction_and_accessors() {
        let d = tiny();
        assert_eq!(d.n_states(), 2);
        assert_eq!(d.initial_dense(), vec![1.0, 0.0]);
        assert!(d.label("done").unwrap().get(1));
        assert_eq!(d.label_names(), vec!["done"]);
        assert_eq!(d.rewards(), &[0.0, 1.0]);
    }

    #[test]
    fn validation_rejects_bad_initial() {
        let m = TransitionMatrix::Sparse(CsrMatrix::from_rows(vec![vec![(0, 1.0)]]).unwrap());
        assert!(Dtmc::new(m.clone(), vec![(0, 0.5)], BTreeMap::new(), vec![0.0]).is_err());
        assert!(Dtmc::new(m.clone(), vec![(5, 1.0)], BTreeMap::new(), vec![0.0]).is_err());
        assert!(Dtmc::new(m, vec![(0, 1.0)], BTreeMap::new(), vec![0.0, 0.0]).is_err());
    }

    #[test]
    fn validation_rejects_bad_labels() {
        let m = TransitionMatrix::Sparse(CsrMatrix::from_rows(vec![vec![(0, 1.0)]]).unwrap());
        let mut labels = BTreeMap::new();
        labels.insert("x".to_string(), BitVec::zeros(3));
        assert!(Dtmc::new(m, vec![(0, 1.0)], labels, vec![0.0]).is_err());
    }

    #[test]
    fn unknown_label_errors() {
        let d = tiny();
        assert!(matches!(
            d.label("nope"),
            Err(DtmcError::UnknownLabel { .. })
        ));
    }

    #[test]
    fn with_rewards_and_insert_label() {
        let d = tiny().with_rewards(vec![2.0, 3.0]).unwrap();
        assert_eq!(d.rewards(), &[2.0, 3.0]);
        assert!(d.clone().with_rewards(vec![1.0]).is_err());
        let mut d = d;
        d.insert_label("new", BitVec::ones(2)).unwrap();
        assert!(d.label("new").unwrap().all());
        assert!(d.insert_label("bad", BitVec::ones(5)).is_err());
    }
}
