//! Coarsest strong lumping by signature refinement, and quotient
//! construction.
//!
//! The refinement loop implements the classic signature algorithm (a
//! practical variant of Derisavi–Hermanns–Sanders optimal lumping): start
//! from the partition induced by labels and rewards, then repeatedly split
//! blocks by each state's *signature* — its probability of jumping into
//! every current block — until a fixpoint. The fixpoint is the coarsest
//! partition satisfying the Strong Lumping Theorem's condition, and its
//! quotient is a probabilistic bisimulation of the original chain.

use crate::partition::Partition;
use smg_dtmc::matrix::CsrMatrix;
use smg_dtmc::par;
use smg_dtmc::{BitVec, Dtmc, DtmcError, StateId, TransitionMatrix};
use std::collections::BTreeMap;

/// Probabilities within a signature are quantized to this resolution before
/// hashing, so floating-point noise does not split blocks spuriously.
pub const SIGNATURE_RESOLUTION: f64 = 1e-10;

fn quantize(p: f64) -> i64 {
    (p / SIGNATURE_RESOLUTION).round() as i64
}

/// The initial partition for lumping: states are distinguished by their
/// label vector and (quantized) reward — the observable quantities that the
/// paper's pCTL properties can see.
pub fn initial_partition(dtmc: &Dtmc) -> Partition {
    let names = dtmc.label_names();
    let labels: Vec<&BitVec> = names
        .iter()
        .map(|n| dtmc.label(n).expect("label exists by construction"))
        .collect();
    let rewards = dtmc.rewards();
    Partition::from_key_fn(dtmc.n_states(), |i| {
        let bits: Vec<bool> = labels.iter().map(|l| l.get(i)).collect();
        (bits, quantize(rewards[i]))
    })
}

/// One state's signature under a partition: quantized probability mass into
/// each reachable block, sorted by block id.
fn signature(matrix: &TransitionMatrix, partition: &Partition, s: usize) -> Vec<(u32, i64)> {
    let mut acc: BTreeMap<u32, f64> = BTreeMap::new();
    for (c, p) in matrix.row_iter(s) {
        *acc.entry(partition.block_of(c as usize)).or_insert(0.0) += p;
    }
    acc.into_iter().map(|(b, p)| (b, quantize(p))).collect()
}

/// Computes the coarsest lumping partition that respects labels and rewards.
///
/// The quotient of the returned partition (see [`quotient`]) is a
/// probabilistic bisimulation of `dtmc`, so every pCTL formula over the
/// DTMC's labels (and every reward query) has the same value on both — the
/// soundness guarantee of the paper's §IV-A-4 proof, obtained automatically.
///
/// # Parallelism
///
/// The refinement loop itself is inherently sequential (each round reads
/// the previous round's partition), but the per-state signature scan — the
/// dominant cost, one row walk plus a `BTreeMap` fold per state per round
/// — is embarrassingly parallel. Each round is a measured dispatch site
/// ([`smg_dtmc::par::Site`], work: states) that batches the scan over the
/// persistent worker pool ([`smg_dtmc::par::chunked_map`]) where that
/// pays; signatures are pure functions of
/// `(state, partition)` and are consumed in state order, so the resulting
/// partition is identical to the sequential scan's for every thread count.
pub fn coarsest_lumping(dtmc: &Dtmc) -> Partition {
    static ROUND: par::Site = par::Site::new("lump_signatures");
    let n = dtmc.n_states();
    let mut partition = initial_partition(dtmc);
    loop {
        let next = ROUND.run(n, n, |parallel| refine_round(dtmc, &partition, parallel));
        if next.block_count() == partition.block_count() {
            return next;
        }
        partition = next;
    }
}

/// Minimum states per worker chunk of a parallel signature scan: a
/// signature costs a row walk plus map churn (hundreds of nanoseconds), so
/// modest chunks already amortize the pool dispatch.
const SIGNATURE_CHUNK: usize = 1_024;

/// One signature-refinement round. With `parallel`, the signature scan is
/// batched over the worker pool; the refinement itself always consumes
/// signatures in state order, so both paths produce the same partition.
fn refine_round(dtmc: &Dtmc, partition: &Partition, parallel: bool) -> Partition {
    if parallel {
        let n = dtmc.n_states();
        let mut sigs: Vec<Vec<(u32, i64)>> = vec![Vec::new(); n];
        smg_dtmc::par::chunked_map(&mut sigs, SIGNATURE_CHUNK, |offset, chunk| {
            for (j, slot) in chunk.iter_mut().enumerate() {
                *slot = signature(dtmc.matrix(), partition, offset + j);
            }
        });
        partition.refine_by(|s| std::mem::take(&mut sigs[s]))
    } else {
        partition.refine_by(|s| signature(dtmc.matrix(), partition, s))
    }
}

/// Builds the quotient DTMC of a partition.
///
/// Block transition probabilities are taken from each block's first member;
/// callers who need a *soundness certificate* that all members agree should
/// run [`crate::bisim::check_lumping`] first (the partitions returned by
/// [`coarsest_lumping`] always pass).
///
/// The quotient's initial distribution sums the original masses per block;
/// labels and rewards are inherited from block representatives.
///
/// # Transpose sharing
///
/// The parallel forward kernel gathers over a per-matrix cached transpose
/// (see `smg_dtmc::matrix`). When the source chain carries one — its
/// forward products took the parallel gather — and the quotient's own
/// forward products can take it too (a pin's static rule says so, or,
/// unpinned, its stored nonzeros reach the gate's floor), the quotient gets
/// its (much smaller) transpose built eagerly here, instead of lazily on
/// its first parallel forward, so quotient *chains* (repeated
/// lump–quotient rounds) keep transpose availability end to end for as
/// long as they stay in the parallel regime. Other quotients are
/// deliberately not primed: the cached value-transpose costs ~1.5x the
/// matrix's memory and only the parallel gather ever reads it.
///
/// # Errors
///
/// Returns an error if the partition's block transition structure fails
/// DTMC validation (possible only for unsound hand-made partitions).
pub fn quotient(dtmc: &Dtmc, partition: &Partition) -> Result<Dtmc, DtmcError> {
    let blocks = partition.blocks();
    let k = blocks.len();

    // Representative-based block rows.
    let mut rows: Vec<Vec<(u32, f64)>> = Vec::with_capacity(k);
    for members in &blocks {
        let rep = members[0] as usize;
        let mut acc: BTreeMap<u32, f64> = BTreeMap::new();
        for (c, p) in dtmc.matrix().row_iter(rep) {
            *acc.entry(partition.block_of(c as usize)).or_insert(0.0) += p;
        }
        rows.push(acc.into_iter().collect());
    }

    let mut initial: BTreeMap<u32, f64> = BTreeMap::new();
    for &(s, p) in dtmc.initial() {
        *initial.entry(partition.block_of(s as usize)).or_insert(0.0) += p;
    }

    let mut labels = BTreeMap::new();
    for name in dtmc.label_names() {
        let orig = dtmc.label(name)?;
        let bits = BitVec::from_fn(k, |b| orig.get(blocks[b][0] as usize));
        labels.insert(name.to_string(), bits);
    }
    let rewards: Vec<f64> = blocks
        .iter()
        .map(|m| dtmc.rewards()[m[0] as usize])
        .collect();

    let csr = CsrMatrix::from_rows(rows)?;
    let gathers = par::pinned(k).unwrap_or(csr.nnz() >= par::GATE_FLOOR);
    let matrix = TransitionMatrix::Sparse(csr);
    if gathers && dtmc.matrix().has_cached_transpose() {
        matrix.prime_transpose();
    }
    Dtmc::new(
        matrix,
        initial
            .into_iter()
            .map(|(b, p)| (b as StateId, p))
            .collect(),
        labels,
        rewards,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use smg_dtmc::{explore, transient, DtmcModel, ExploreOptions};

    /// Chain with a symmetric diamond: 0 → {1, 2} (identical) → 3 → 0.
    struct Diamond;
    impl DtmcModel for Diamond {
        type State = u8;
        fn initial_states(&self) -> Vec<(u8, f64)> {
            vec![(0, 1.0)]
        }
        fn transitions(&self, s: &u8) -> Vec<(u8, f64)> {
            match s {
                0 => vec![(1, 0.3), (2, 0.7)],
                1 | 2 => vec![(3, 0.5), (0, 0.5)],
                _ => vec![(0, 1.0)],
            }
        }
        fn atomic_propositions(&self) -> Vec<&'static str> {
            vec!["hit"]
        }
        fn holds(&self, ap: &str, s: &u8) -> bool {
            ap == "hit" && *s == 3
        }
    }

    #[test]
    fn diamond_lumps_middle_states() {
        let e = explore(&Diamond, &ExploreOptions::default()).unwrap();
        let p = coarsest_lumping(&e.dtmc);
        assert_eq!(p.block_count(), 3);
        let id1 = e.id_of(&1).unwrap() as usize;
        let id2 = e.id_of(&2).unwrap() as usize;
        assert_eq!(p.block_of(id1), p.block_of(id2));
    }

    #[test]
    fn quotient_preserves_transient_rewards() {
        let e = explore(&Diamond, &ExploreOptions::default()).unwrap();
        let p = coarsest_lumping(&e.dtmc);
        let q = quotient(&e.dtmc, &p).unwrap();
        for t in 0..30 {
            let a = transient::instantaneous_reward(&e.dtmc, t);
            let b = transient::instantaneous_reward(&q, t);
            assert!((a - b).abs() < 1e-10, "t={t}: {a} vs {b}");
        }
    }

    #[test]
    fn quotient_preserves_bounded_reachability() {
        let e = explore(&Diamond, &ExploreOptions::default()).unwrap();
        let p = coarsest_lumping(&e.dtmc);
        let q = quotient(&e.dtmc, &p).unwrap();
        for t in 0..20 {
            let a =
                transient::bounded_reach_prob(&e.dtmc, e.dtmc.label("hit").unwrap(), t).unwrap();
            let b = transient::bounded_reach_prob(&q, q.label("hit").unwrap(), t).unwrap();
            assert!((a - b).abs() < 1e-10, "t={t}");
        }
    }

    /// A chain with *no* lumpable structure: all distinct probabilities.
    struct Rigid;
    impl DtmcModel for Rigid {
        type State = u8;
        fn initial_states(&self) -> Vec<(u8, f64)> {
            vec![(0, 1.0)]
        }
        fn transitions(&self, s: &u8) -> Vec<(u8, f64)> {
            match s {
                0 => vec![(1, 0.1), (2, 0.9)],
                1 => vec![(2, 0.2), (0, 0.8)],
                _ => vec![(0, 1.0)],
            }
        }
        fn atomic_propositions(&self) -> Vec<&'static str> {
            vec!["two"]
        }
        fn holds(&self, ap: &str, s: &u8) -> bool {
            ap == "two" && *s == 2
        }
    }

    /// A line of `n` states, each stepping on or back to the start, with a
    /// reward of its own, so nothing lumps.
    struct Line {
        n: u32,
    }

    impl DtmcModel for Line {
        type State = u32;
        fn initial_states(&self) -> Vec<(u32, f64)> {
            vec![(0, 1.0)]
        }
        fn transitions(&self, &s: &u32) -> Vec<(u32, f64)> {
            if s + 1 == self.n {
                vec![(s, 1.0)]
            } else {
                vec![(s + 1, 0.5), (0, 0.5)]
            }
        }
        fn state_reward(&self, &s: &u32) -> f64 {
            f64::from(s)
        }
    }

    #[test]
    fn quotient_primes_transpose_iff_parallel_regime() {
        let e = explore(&Diamond, &ExploreOptions::default()).unwrap();
        let p = coarsest_lumping(&e.dtmc);
        let q = quotient(&e.dtmc, &p).unwrap();
        // Tiny quotients like this one must NOT pin a dead transpose, not
        // even when the source chain carries one.
        assert!(
            !q.matrix().has_cached_transpose(),
            "3-block quotient is tiny"
        );
        e.dtmc.matrix().prime_transpose();
        assert!(
            !quotient(&e.dtmc, &p)
                .unwrap()
                .matrix()
                .has_cached_transpose(),
            "3-block quotient of a primed source is tiny"
        );
        // A quotient whose forward products can take the gather inherits
        // the source's cache, and only then.
        let line = explore(&Line { n: 4_000 }, &ExploreOptions::default()).unwrap();
        let blocks = coarsest_lumping(&line.dtmc);
        assert_eq!(blocks.block_count(), 4_000);
        let unprimed = quotient(&line.dtmc, &blocks).unwrap();
        assert!(!unprimed.matrix().has_cached_transpose());
        line.dtmc.matrix().prime_transpose();
        let primed = quotient(&line.dtmc, &blocks).unwrap();
        assert_eq!(
            primed.matrix().has_cached_transpose(),
            par::pinned(4_000).unwrap_or(true),
            "7,999 stored nonzeros clear the gate's floor"
        );
        // Priming (when it happens) is invisible to analysis results: the
        // eager build and the demand build share one code path.
        q.matrix().prime_transpose();
        for t in 0..20 {
            let a = transient::instantaneous_reward(&e.dtmc, t);
            let b = transient::instantaneous_reward(&q, t);
            assert!((a - b).abs() < 1e-12, "t={t}");
        }
    }

    /// The batched (pool) signature scan must refine identically to the
    /// sequential scan, round by round, whatever the thread count — the
    /// lumping analogue of the engine's bit-identical-parallelism
    /// discipline.
    #[test]
    fn parallel_signature_scan_matches_sequential() {
        // A ring of diamonds: plenty of states, plenty of lumpable
        // symmetry, several refinement rounds to fixpoint.
        struct Ring;
        impl DtmcModel for Ring {
            type State = u16;
            fn initial_states(&self) -> Vec<(u16, f64)> {
                vec![(0, 1.0)]
            }
            fn transitions(&self, s: &u16) -> Vec<(u16, f64)> {
                let block = s / 4;
                let next_block = (block + 1) % 50;
                match s % 4 {
                    0 => vec![(block * 4 + 1, 0.3), (block * 4 + 2, 0.7)],
                    1 | 2 => vec![(block * 4 + 3, 0.5), (block * 4, 0.5)],
                    _ => vec![(next_block * 4, 1.0)],
                }
            }
            fn atomic_propositions(&self) -> Vec<&'static str> {
                vec!["hub"]
            }
            fn holds(&self, ap: &str, s: &u16) -> bool {
                ap == "hub" && s.is_multiple_of(4)
            }
        }
        let e = explore(&Ring, &ExploreOptions::default()).unwrap();
        let mut seq = initial_partition(&e.dtmc);
        let mut par = initial_partition(&e.dtmc);
        for round in 0..8 {
            let next_seq = super::refine_round(&e.dtmc, &seq, false);
            let next_par = super::refine_round(&e.dtmc, &par, true);
            assert_eq!(
                next_seq.assignment(),
                next_par.assignment(),
                "round {round}"
            );
            let done = next_seq.block_count() == seq.block_count();
            seq = next_seq;
            par = next_par;
            if done {
                break;
            }
        }
        // And the public entry point (whichever path it takes) agrees.
        let public = coarsest_lumping(&e.dtmc);
        assert_eq!(public.assignment(), seq.assignment());
    }

    #[test]
    fn rigid_chain_does_not_lump() {
        let e = explore(&Rigid, &ExploreOptions::default()).unwrap();
        let p = coarsest_lumping(&e.dtmc);
        assert_eq!(p.block_count(), 3);
    }

    #[test]
    fn labels_block_lumping() {
        // 1 and 2 are dynamically identical in Diamond, but if a label
        // separates them the lumping must respect it.
        struct LabeledDiamond;
        impl DtmcModel for LabeledDiamond {
            type State = u8;
            fn initial_states(&self) -> Vec<(u8, f64)> {
                vec![(0, 1.0)]
            }
            fn transitions(&self, s: &u8) -> Vec<(u8, f64)> {
                Diamond.transitions(s)
            }
            fn atomic_propositions(&self) -> Vec<&'static str> {
                vec!["hit", "left"]
            }
            fn holds(&self, ap: &str, s: &u8) -> bool {
                (ap == "hit" && *s == 3) || (ap == "left" && *s == 1)
            }
        }
        let e = explore(&LabeledDiamond, &ExploreOptions::default()).unwrap();
        let p = coarsest_lumping(&e.dtmc);
        assert_eq!(p.block_count(), 4, "label `left` must split the block");
    }

    #[test]
    fn lumping_is_coarser_than_discrete_and_respects_initial() {
        let e = explore(&Diamond, &ExploreOptions::default()).unwrap();
        let p = coarsest_lumping(&e.dtmc);
        let discrete = Partition::discrete(e.dtmc.n_states());
        assert!(p.is_refined_by(&discrete));
        // Certified sound.
        assert!(crate::bisim::check_lumping(&e.dtmc, &p).is_ok());
    }

    #[test]
    fn quotient_initial_mass_sums() {
        // Initial distribution split across a lumped block.
        struct TwoInit;
        impl DtmcModel for TwoInit {
            type State = u8;
            fn initial_states(&self) -> Vec<(u8, f64)> {
                vec![(1, 0.5), (2, 0.5)]
            }
            fn transitions(&self, s: &u8) -> Vec<(u8, f64)> {
                Diamond.transitions(s)
            }
            fn atomic_propositions(&self) -> Vec<&'static str> {
                vec!["hit"]
            }
            fn holds(&self, ap: &str, s: &u8) -> bool {
                ap == "hit" && *s == 3
            }
        }
        let e = explore(&TwoInit, &ExploreOptions::default()).unwrap();
        let p = coarsest_lumping(&e.dtmc);
        let q = quotient(&e.dtmc, &p).unwrap();
        assert_eq!(q.initial().len(), 1, "both initial states lump together");
        assert!((q.initial()[0].1 - 1.0).abs() < 1e-12);
    }
}
