//! The explicit MDP: per-state action lists over a shared CSR distribution
//! pool, plus initial distribution, labels and rewards.
//!
//! # Representation
//!
//! Where a [`smg_dtmc::Dtmc`] stores one distribution row per state, an
//! [`Mdp`] stores one *or more*: the flat `cols`/`vals` pool holds every
//! action's distribution back to back (assembled with the same
//! [`smg_dtmc::matrix::merge_row_into`] primitive the DTMC engine uses, so
//! identical inputs produce byte-identical pool data), `act_ptr` delimits
//! the actions, and `state_ptr` delimits each state's slice of actions.
//! A state's action indices are *local* (`0..action_count(s)`), matching
//! how schedulers are stored ([`crate::vi::extremal_scheduler`]) and how
//! PRISM's explicit MDP format numbers choices.

use smg_dtmc::bitvec::BitVec;
use smg_dtmc::matrix::{merge_row_into, CsrBuilder, RowIter, STOCHASTIC_TOL};
use smg_dtmc::{Dtmc, DtmcError, StateId, TransitionMatrix};
use std::collections::BTreeMap;

/// An explicit finite MDP with atomic-proposition labels and a state
/// reward structure.
///
/// Invariants, enforced at construction:
/// * every state has at least one action,
/// * every action's distribution is stochastic (validated row by row by
///   [`MdpBuilder::push_action`]),
/// * the initial distribution sums to one,
/// * every label bit vector and the reward vector have length `n`.
#[derive(Debug, Clone)]
pub struct Mdp {
    /// `state_ptr[s]..state_ptr[s+1]` indexes state `s`'s actions.
    state_ptr: Vec<usize>,
    /// `act_ptr[a]..act_ptr[a+1]` indexes action `a`'s transitions.
    act_ptr: Vec<usize>,
    cols: Vec<u32>,
    vals: Vec<f64>,
    initial: Vec<(StateId, f64)>,
    labels: BTreeMap<String, BitVec>,
    rewards: Vec<f64>,
}

impl Mdp {
    /// Assembles an MDP from a finished [`MdpBuilder`], validating the
    /// invariants listed on the type.
    ///
    /// # Errors
    ///
    /// * [`DtmcError::BadInitialDistribution`] if the initial masses do not
    ///   sum to one (or reference out-of-range states).
    /// * [`DtmcError::DimensionMismatch`] if a label or reward vector has
    ///   the wrong length.
    pub fn new(
        transitions: MdpTransitions,
        initial: Vec<(StateId, f64)>,
        labels: BTreeMap<String, BitVec>,
        rewards: Vec<f64>,
    ) -> Result<Self, DtmcError> {
        let MdpTransitions {
            state_ptr,
            act_ptr,
            cols,
            vals,
        } = transitions;
        let n = state_ptr.len() - 1;
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
        Ok(Mdp {
            state_ptr,
            act_ptr,
            cols,
            vals,
            initial,
            labels,
            rewards,
        })
    }

    /// The number of states.
    pub fn n_states(&self) -> usize {
        self.state_ptr.len() - 1
    }

    /// The total number of choices (actions summed over all states) —
    /// what PRISM's MDP statistics call "choices".
    pub fn n_choices(&self) -> usize {
        self.act_ptr.len() - 1
    }

    /// The total number of stored transitions.
    pub fn n_transitions(&self) -> usize {
        self.cols.len()
    }

    /// The number of actions available in state `s` (always ≥ 1).
    pub fn action_count(&self, s: usize) -> usize {
        self.state_ptr[s + 1] - self.state_ptr[s]
    }

    /// The largest action count over all states (the action fan-out).
    pub fn max_action_count(&self) -> usize {
        (0..self.n_states())
            .map(|s| self.action_count(s))
            .max()
            .unwrap_or(0)
    }

    /// Iterates `(column, probability)` of local action `a` of state `s`,
    /// without allocating.
    ///
    /// # Panics
    ///
    /// Panics if `s` or `a` is out of range.
    pub fn action_row(&self, s: usize, a: usize) -> RowIter<'_> {
        let act = self.state_ptr[s] + a;
        assert!(
            act < self.state_ptr[s + 1],
            "action {a} out of range for state {s}"
        );
        let lo = self.act_ptr[act];
        let hi = self.act_ptr[act + 1];
        RowIter::Sparse {
            cols: self.cols[lo..hi].iter(),
            vals: self.vals[lo..hi].iter(),
        }
    }

    /// The positive-probability successors of state `s` under any of its
    /// actions (in storage order; a state reached by several actions
    /// repeats) — the any-action graph the condensation and the
    /// qualitative passes walk.
    pub(crate) fn successors(&self, s: usize) -> impl Iterator<Item = u32> + '_ {
        let lo = self.act_ptr[self.state_ptr[s]];
        let hi = self.act_ptr[self.state_ptr[s + 1]];
        self.cols[lo..hi]
            .iter()
            .zip(&self.vals[lo..hi])
            .filter(|&(_, &p)| p > 0.0)
            .map(|(&c, _)| c)
    }

    /// The global ids of state `s`'s choices (its actions, numbered across
    /// the whole MDP): choice `state_choices(s).start + a` is local action
    /// `a`.
    pub(crate) fn state_choices(&self, s: usize) -> std::ops::Range<usize> {
        self.state_ptr[s]..self.state_ptr[s + 1]
    }

    /// Iterates `(column, probability)` of the choice with global id
    /// `choice` (see [`Mdp::state_choices`]).
    pub(crate) fn choice_row(&self, choice: usize) -> RowIter<'_> {
        let lo = self.act_ptr[choice];
        let hi = self.act_ptr[choice + 1];
        RowIter::Sparse {
            cols: self.cols[lo..hi].iter(),
            vals: self.vals[lo..hi].iter(),
        }
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

    /// Replaces the reward vector (used by named-reward-structure queries).
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

    /// The DTMC induced by a memoryless deterministic scheduler: state `s`
    /// keeps only its action `scheduler[s]`. Labels, rewards and the
    /// initial distribution carry over unchanged, so every DTMC analysis
    /// (exact checking, simulation, export) applies to the scheduled MDP —
    /// this is also how the test suite pins value iteration against
    /// exhaustive scheduler enumeration.
    ///
    /// # Errors
    ///
    /// [`DtmcError::DimensionMismatch`] if `scheduler.len() != n_states()`
    /// and [`DtmcError::NoActions`] if an entry is out of range for its
    /// state's action count.
    pub fn induced_dtmc(&self, scheduler: &[u32]) -> Result<Dtmc, DtmcError> {
        let n = self.n_states();
        if scheduler.len() != n {
            return Err(DtmcError::DimensionMismatch {
                expected: n,
                actual: scheduler.len(),
            });
        }
        let mut builder = CsrBuilder::with_capacity(n, n * 2);
        let mut row: Vec<(u32, f64)> = Vec::new();
        for (s, &a) in scheduler.iter().enumerate() {
            if a as usize >= self.action_count(s) {
                return Err(DtmcError::NoActions {
                    state: format!("#{s} (scheduler picked action {a})"),
                });
            }
            row.clear();
            row.extend(self.action_row(s, a as usize));
            builder.push_row(&mut row)?;
        }
        Dtmc::new(
            TransitionMatrix::Sparse(builder.finish()),
            self.initial.clone(),
            self.labels.clone(),
            self.rewards.clone(),
        )
    }
}

/// The finished transition structure of an [`MdpBuilder`], consumed by
/// [`Mdp::new`].
#[derive(Debug)]
pub struct MdpTransitions {
    state_ptr: Vec<usize>,
    act_ptr: Vec<usize>,
    cols: Vec<u32>,
    vals: Vec<f64>,
}

/// Incremental [`Mdp`] construction directly into the flat pool arrays —
/// the MDP analogue of [`CsrBuilder`]. Push each state's actions with
/// [`MdpBuilder::push_action`] and close the state with
/// [`MdpBuilder::finish_state`]; exploration appends states in discovery
/// order without materialising per-state `Vec<Vec<_>>` nests.
#[derive(Debug)]
pub struct MdpBuilder {
    state_ptr: Vec<usize>,
    act_ptr: Vec<usize>,
    cols: Vec<u32>,
    vals: Vec<f64>,
}

impl Default for MdpBuilder {
    fn default() -> Self {
        MdpBuilder::with_capacity(0, 0, 0)
    }
}

impl MdpBuilder {
    /// A builder with preallocated capacity for `states` states, `choices`
    /// total actions and `nnz` stored transitions.
    pub fn with_capacity(states: usize, choices: usize, nnz: usize) -> Self {
        let mut state_ptr = Vec::with_capacity(states + 1);
        state_ptr.push(0);
        let mut act_ptr = Vec::with_capacity(choices + 1);
        act_ptr.push(0);
        MdpBuilder {
            state_ptr,
            act_ptr,
            cols: Vec::with_capacity(nnz),
            vals: Vec::with_capacity(nnz),
        }
    }

    /// The number of *closed* states.
    pub fn states(&self) -> usize {
        self.state_ptr.len() - 1
    }

    /// Validates, sorts, merges and appends one action distribution for
    /// the currently open state. The scratch slice is sorted in place
    /// (entries with duplicate columns are summed).
    ///
    /// # Errors
    ///
    /// * [`DtmcError::InvalidProbability`] for negative or NaN entries.
    /// * [`DtmcError::NotStochastic`] if the action does not sum to one.
    pub fn push_action(&mut self, row: &mut [(u32, f64)]) -> Result<(), DtmcError> {
        let s = self.states();
        let mut sum = 0.0;
        for &(_, v) in row.iter() {
            if v < 0.0 || v.is_nan() || v > 1.0 + STOCHASTIC_TOL {
                return Err(DtmcError::InvalidProbability {
                    state: format!("#{s}"),
                    prob: v,
                });
            }
            sum += v;
        }
        if (sum - 1.0).abs() > STOCHASTIC_TOL {
            return Err(DtmcError::NotStochastic {
                state: format!("#{s}"),
                sum,
            });
        }
        merge_row_into(&mut self.cols, &mut self.vals, row);
        self.act_ptr.push(self.cols.len());
        Ok(())
    }

    /// Closes the current state, which must have at least one action.
    ///
    /// # Errors
    ///
    /// [`DtmcError::NoActions`] if no action was pushed since the last
    /// `finish_state` (an MDP deadlock).
    pub fn finish_state(&mut self) -> Result<(), DtmcError> {
        let actions = self.act_ptr.len() - 1;
        if actions == *self.state_ptr.last().expect("state_ptr non-empty") {
            return Err(DtmcError::NoActions {
                state: format!("#{}", self.states()),
            });
        }
        self.state_ptr.push(actions);
        Ok(())
    }

    /// Finishes the transition structure; the state count is the number of
    /// closed states.
    pub fn finish(self) -> MdpTransitions {
        let n = self.states();
        debug_assert!(
            self.cols.iter().all(|&c| (c as usize) < n),
            "column index out of range in MDP builder"
        );
        MdpTransitions {
            state_ptr: self.state_ptr,
            act_ptr: self.act_ptr,
            cols: self.cols,
            vals: self.vals,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 3-state MDP: state 0 chooses between a safe self-loop-ish action
    /// and a risky coin flip; 1 ("goal") and 2 ("bad") absorb.
    pub(crate) fn tiny() -> Mdp {
        let mut b = MdpBuilder::default();
        b.push_action(&mut [(0, 0.5), (1, 0.5)]).unwrap();
        b.push_action(&mut [(1, 0.1), (2, 0.9)]).unwrap();
        b.finish_state().unwrap();
        b.push_action(&mut [(1, 1.0)]).unwrap();
        b.finish_state().unwrap();
        b.push_action(&mut [(2, 1.0)]).unwrap();
        b.finish_state().unwrap();
        let mut labels = BTreeMap::new();
        labels.insert("goal".to_string(), BitVec::from_fn(3, |i| i == 1));
        labels.insert("bad".to_string(), BitVec::from_fn(3, |i| i == 2));
        Mdp::new(b.finish(), vec![(0, 1.0)], labels, vec![0.0, 1.0, 0.0]).unwrap()
    }

    #[test]
    fn construction_and_accessors() {
        let m = tiny();
        assert_eq!(m.n_states(), 3);
        assert_eq!(m.n_choices(), 4);
        assert_eq!(m.n_transitions(), 6);
        assert_eq!(m.action_count(0), 2);
        assert_eq!(m.action_count(1), 1);
        assert_eq!(m.max_action_count(), 2);
        assert_eq!(
            m.action_row(0, 1).collect::<Vec<_>>(),
            vec![(1, 0.1), (2, 0.9)]
        );
        assert_eq!(m.initial_dense(), vec![1.0, 0.0, 0.0]);
        assert!(m.label("goal").unwrap().get(1));
        assert_eq!(m.label_names(), vec!["bad", "goal"]);
        assert_eq!(m.rewards(), &[0.0, 1.0, 0.0]);
    }

    #[test]
    fn builder_validates_actions() {
        let mut b = MdpBuilder::default();
        assert!(b.push_action(&mut [(0, 0.5)]).is_err());
        assert!(b.push_action(&mut [(0, -0.1), (0, 1.1)]).is_err());
        assert!(b.push_action(&mut [(0, f64::NAN), (0, 1.0)]).is_err());
        // A state with no action is a deadlock.
        assert!(matches!(b.finish_state(), Err(DtmcError::NoActions { .. })));
    }

    #[test]
    fn builder_merges_duplicate_columns() {
        let mut b = MdpBuilder::default();
        b.push_action(&mut [(0, 0.25), (0, 0.25), (0, 0.5)])
            .unwrap();
        b.finish_state().unwrap();
        let m = Mdp::new(b.finish(), vec![(0, 1.0)], BTreeMap::new(), vec![0.0]).unwrap();
        let row: Vec<_> = m.action_row(0, 0).collect();
        assert_eq!(row.len(), 1);
        assert!((row[0].1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn validation_rejects_bad_inputs() {
        let mut b = MdpBuilder::default();
        b.push_action(&mut [(0, 1.0)]).unwrap();
        b.finish_state().unwrap();
        let t = b.finish();
        assert!(Mdp::new(t, vec![(0, 0.5)], BTreeMap::new(), vec![0.0]).is_err());

        let mut b = MdpBuilder::default();
        b.push_action(&mut [(0, 1.0)]).unwrap();
        b.finish_state().unwrap();
        assert!(Mdp::new(b.finish(), vec![(5, 1.0)], BTreeMap::new(), vec![0.0]).is_err());

        let mut b = MdpBuilder::default();
        b.push_action(&mut [(0, 1.0)]).unwrap();
        b.finish_state().unwrap();
        assert!(Mdp::new(b.finish(), vec![(0, 1.0)], BTreeMap::new(), vec![0.0, 0.0]).is_err());

        let mut b = MdpBuilder::default();
        b.push_action(&mut [(0, 1.0)]).unwrap();
        b.finish_state().unwrap();
        let mut labels = BTreeMap::new();
        labels.insert("x".to_string(), BitVec::zeros(3));
        assert!(Mdp::new(b.finish(), vec![(0, 1.0)], labels, vec![0.0]).is_err());
    }

    #[test]
    fn induced_dtmc_selects_actions() {
        let m = tiny();
        // Scheduler picking the risky action in state 0.
        let d = m.induced_dtmc(&[1, 0, 0]).unwrap();
        assert_eq!(d.n_states(), 3);
        assert_eq!(d.matrix().successors(0), vec![(1, 0.1), (2, 0.9)]);
        assert!(d.label("goal").unwrap().get(1));
        assert_eq!(d.rewards(), m.rewards());
        // Out-of-range action and wrong length are rejected.
        assert!(matches!(
            m.induced_dtmc(&[2, 0, 0]),
            Err(DtmcError::NoActions { .. })
        ));
        assert!(m.induced_dtmc(&[0, 0]).is_err());
    }

    #[test]
    fn with_rewards_and_insert_label() {
        let m = tiny().with_rewards(vec![1.0, 2.0, 3.0]).unwrap();
        assert_eq!(m.rewards(), &[1.0, 2.0, 3.0]);
        assert!(m.clone().with_rewards(vec![1.0]).is_err());
        let mut m = m;
        m.insert_label("new", BitVec::ones(3)).unwrap();
        assert!(m.label("new").unwrap().all());
        assert!(m.insert_label("bad_len", BitVec::ones(5)).is_err());
        assert!(matches!(
            m.label("nope"),
            Err(DtmcError::UnknownLabel { .. })
        ));
    }
}
