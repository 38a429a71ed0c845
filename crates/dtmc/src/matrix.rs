//! Transition-matrix representations.
//!
//! Two concrete representations sit behind [`TransitionMatrix`]:
//!
//! * [`CsrMatrix`] — compressed sparse rows, the workhorse for chains with
//!   genuine memory (the Viterbi models).
//! * [`RankOneMatrix`] — every row is the same distribution; this captures
//!   memoryless designs like the paper's MIMO detector exactly and in `O(n)`
//!   space instead of `O(n²)`.
//!
//! All analyses are expressed through the *masked* forward/backward products
//! so that time-bounded properties can make target states absorbing without
//! mutating the matrix (see [`crate::transient`]).
//!
//! # Buffer-reuse contract
//!
//! The hot propagation loops run through the `*_into` kernels
//! ([`TransitionMatrix::forward_into`], [`TransitionMatrix::backward_into`]
//! and their masked variants), which write into a caller-owned output buffer
//! of length `n` instead of allocating. Callers ping-pong two buffers across
//! steps (`forward_into(&cur, &mut next); swap(&mut cur, &mut next)`), so a
//! whole transient sweep performs no per-step allocation. The output buffer
//! is fully overwritten — it does not need to be zeroed between calls — and
//! must not alias the input (enforced by borrow rules).
//!
//! # Parallelism
//!
//! With the crate's `parallel` feature (on by default) the sparse kernels
//! can run as fork-join tasks on the persistent worker pool
//! ([`crate::pool`]). Each product is a measured [`par::Site`] keyed by
//! the stored nonzeros it works on (those of the rows that pass the mask
//! and, for the forward product, carry mass): small products, and
//! products whose parallel form loses on the running host, take the tuned
//! sequential loops. The backward product parallelizes row-wise as-is.
//! The forward product is a scatter, so the parallel path instead gathers
//! over a lazily built, cached transpose; entries of each transpose row
//! are stored in ascending source-row order, which makes the parallel
//! gather accumulate the exact summation order of the sequential scatter
//! — results are bit-identical, not merely within tolerance. (The gather
//! tests the mask on every stored entry, where the scatter skips whole
//! zero-mass rows, which is why it often loses on two lanes.)

use crate::bitvec::BitVec;
use crate::error::DtmcError;
use crate::par;
use std::sync::OnceLock;

/// Tolerance for row-stochasticity checks.
pub const STOCHASTIC_TOL: f64 = 1e-9;

/// Minimum rows per worker chunk inside the parallel kernels. Half the
/// [`crate::par::PAR_MIN_ROWS`] threshold, so a chain that clears the
/// static threshold always splits into at least two chunks.
const PAR_MIN_CHUNK: usize = 2_048;

/// The forward product's dispatch site (work: stored nonzeros of the
/// masked rows that carry mass).
static FORWARD: par::Site = par::Site::new("spmv_forward");

/// The backward product's dispatch site (work: stored nonzeros of the
/// masked rows).
static BACKWARD: par::Site = par::Site::new("spmv_backward");

/// The transposed structure of a [`CsrMatrix`], built lazily for the
/// parallel forward gather. Row `c` of the transpose lists the predecessors
/// of state `c` in ascending order.
#[derive(Debug, Clone, PartialEq)]
struct Transposed {
    row_ptr: Vec<usize>,
    rows: Vec<u32>,
    vals: Vec<f64>,
}

/// A square row-stochastic matrix in compressed sparse row form.
#[derive(Debug)]
pub struct CsrMatrix {
    n: usize,
    row_ptr: Vec<usize>,
    cols: Vec<u32>,
    vals: Vec<f64>,
    /// Lazily built transpose (parallel forward gather); not part of the
    /// matrix's logical value, so `Clone`/`PartialEq` ignore it.
    transpose: OnceLock<Transposed>,
}

impl Clone for CsrMatrix {
    fn clone(&self) -> Self {
        CsrMatrix {
            n: self.n,
            row_ptr: self.row_ptr.clone(),
            cols: self.cols.clone(),
            vals: self.vals.clone(),
            transpose: OnceLock::new(),
        }
    }
}

impl PartialEq for CsrMatrix {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n
            && self.row_ptr == other.row_ptr
            && self.cols == other.cols
            && self.vals == other.vals
    }
}

/// Incremental [`CsrMatrix`] construction directly into the flat CSR
/// arrays — exploration appends one row per expanded state without first
/// materialising a `Vec<Vec<(u32, f64)>>` of the whole chain.
#[derive(Debug)]
pub struct CsrBuilder {
    row_ptr: Vec<usize>,
    cols: Vec<u32>,
    vals: Vec<f64>,
}

impl Default for CsrBuilder {
    fn default() -> Self {
        CsrBuilder::with_capacity(0, 0)
    }
}

impl CsrBuilder {
    /// A builder with preallocated capacity for `rows` rows and `nnz`
    /// stored transitions.
    pub fn with_capacity(rows: usize, nnz: usize) -> Self {
        let mut row_ptr = Vec::with_capacity(rows + 1);
        row_ptr.push(0);
        CsrBuilder {
            row_ptr,
            cols: Vec::with_capacity(nnz),
            vals: Vec::with_capacity(nnz),
        }
    }

    /// The number of rows pushed so far.
    pub fn rows(&self) -> usize {
        self.row_ptr.len() - 1
    }

    /// Validates, sorts, merges and appends one row. The scratch slice is
    /// sorted in place (entries with duplicate columns are summed).
    ///
    /// # Errors
    ///
    /// * [`DtmcError::InvalidProbability`] for negative or NaN entries.
    /// * [`DtmcError::NotStochastic`] if the row does not sum to one.
    pub fn push_row(&mut self, row: &mut [(u32, f64)]) -> Result<(), DtmcError> {
        let r = self.rows();
        let mut sum = 0.0;
        for &(_, v) in row.iter() {
            if v < 0.0 || v.is_nan() || v > 1.0 + STOCHASTIC_TOL {
                return Err(DtmcError::InvalidProbability {
                    state: format!("#{r}"),
                    prob: v,
                });
            }
            sum += v;
        }
        if (sum - 1.0).abs() > STOCHASTIC_TOL {
            return Err(DtmcError::NotStochastic {
                state: format!("#{r}"),
                sum,
            });
        }
        merge_row_into(&mut self.cols, &mut self.vals, row);
        self.row_ptr.push(self.cols.len());
        Ok(())
    }

    /// Finishes the square matrix; its dimension is the number of rows.
    pub fn finish(self) -> CsrMatrix {
        let n = self.rows();
        debug_assert!(
            self.cols.iter().all(|&c| (c as usize) < n),
            "column index out of range in CSR builder"
        );
        CsrMatrix {
            n,
            row_ptr: self.row_ptr,
            cols: self.cols,
            vals: self.vals,
            transpose: OnceLock::new(),
        }
    }
}

/// Sorts one row's `(column, value)` scratch in place and appends it to the
/// flat `cols`/`vals` arrays, summing duplicate columns and dropping
/// non-positive entries — the single row-assembly primitive shared by
/// [`CsrBuilder::push_row`] and the MDP builder's shared distribution pool
/// in `smg-mdp`, so both produce byte-identical flat data for the same
/// input.
pub fn merge_row_into(cols: &mut Vec<u32>, vals: &mut Vec<f64>, row: &mut [(u32, f64)]) {
    row.sort_by_key(|&(c, _)| c);
    let row_start = cols.len();
    for &(c, v) in row.iter() {
        if cols.len() > row_start && *cols.last().expect("row tail") == c {
            *vals.last_mut().expect("cols/vals in sync") += v;
        } else if v > 0.0 {
            cols.push(c);
            vals.push(v);
        }
    }
}

impl CsrMatrix {
    /// Builds a CSR matrix from per-row `(column, value)` lists.
    ///
    /// Duplicate columns within a row are merged by summation.
    ///
    /// # Errors
    ///
    /// * [`DtmcError::InvalidProbability`] for negative or NaN entries.
    /// * [`DtmcError::NotStochastic`] if a row does not sum to one.
    pub fn from_rows(rows: Vec<Vec<(u32, f64)>>) -> Result<Self, DtmcError> {
        let nnz = rows.iter().map(Vec::len).sum();
        let mut builder = CsrBuilder::with_capacity(rows.len(), nnz);
        for mut row in rows {
            builder.push_row(&mut row)?;
        }
        Ok(builder.finish())
    }

    /// The dimension (number of states).
    pub fn n(&self) -> usize {
        self.n
    }

    /// The number of stored (non-zero) transitions.
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Iterates over `(column, value)` of row `r`.
    pub fn row(&self, r: usize) -> impl Iterator<Item = (u32, f64)> + '_ {
        let lo = self.row_ptr[r];
        let hi = self.row_ptr[r + 1];
        self.cols[lo..hi]
            .iter()
            .copied()
            .zip(self.vals[lo..hi].iter().copied())
    }

    /// Dot product of row `r` with the dense vector `x`, accumulated in two
    /// independent streams so the gather loads of `x[c]` overlap instead of
    /// serialising on one add chain. On long rows at large `n` (where `x`
    /// no longer fits in L2 and each gather is a cache miss) the extra
    /// in-flight load is worth ~10% on the backward kernel; short rows pay
    /// one extra add. Reassociating the sum changes results by at most one
    /// ulp per term — the backward product makes no bit-identity claims
    /// about *which* sequential order it matches, only that parallel and
    /// sequential dispatch agree, and both route through here.
    #[inline]
    fn dot_row(&self, r: usize, x: &[f64]) -> f64 {
        let lo = self.row_ptr[r];
        let hi = self.row_ptr[r + 1];
        let cols = &self.cols[lo..hi];
        let vals = &self.vals[lo..hi];
        let mut even = 0.0;
        let mut odd = 0.0;
        let mut cc = cols.chunks_exact(2);
        let mut vc = vals.chunks_exact(2);
        for (c2, v2) in (&mut cc).zip(&mut vc) {
            even += v2[0] * x[c2[0] as usize];
            odd += v2[1] * x[c2[1] as usize];
        }
        if let (Some(&c), Some(&v)) = (cc.remainder().first(), vc.remainder().first()) {
            even += v * x[c as usize];
        }
        even + odd
    }

    /// The transpose, built on first use and cached (used by the parallel
    /// forward gather). Entries of each transpose row are in ascending
    /// source-row order.
    fn transposed(&self) -> &Transposed {
        self.transpose.get_or_init(|| {
            let nnz = self.vals.len();
            let mut row_ptr = vec![0usize; self.n + 1];
            for &c in &self.cols {
                row_ptr[c as usize + 1] += 1;
            }
            for i in 0..self.n {
                row_ptr[i + 1] += row_ptr[i];
            }
            let mut next = row_ptr.clone();
            let mut rows = vec![0u32; nnz];
            let mut vals = vec![0.0f64; nnz];
            for r in 0..self.n {
                for (c, v) in self.row(r) {
                    let slot = next[c as usize];
                    next[c as usize] += 1;
                    rows[slot] = r as u32;
                    vals[slot] = v;
                }
            }
            Transposed {
                row_ptr,
                rows,
                vals,
            }
        })
    }

    /// Whether the value-carrying transpose used by the parallel forward
    /// gather has been built for this matrix.
    pub fn has_cached_transpose(&self) -> bool {
        self.transpose.get().is_some()
    }

    /// Builds the cached transpose now instead of lazily on the first
    /// parallel forward product. Reduction pipelines use this to *transfer*
    /// transpose availability along a quotient chain: when a lumped chain
    /// is derived from a matrix whose transpose was already paid for, the
    /// quotient's (much smaller) transpose is rebuilt eagerly while the
    /// quotient map is at hand, so the first parallel forward on the
    /// quotient does not stall on a demand build. No-op if already cached.
    pub fn prime_transpose(&self) {
        let _ = self.transposed();
    }

    /// The transposed matrix in CSR form (rows of the transpose are columns
    /// of `self`). The transpose of a stochastic matrix is generally not
    /// stochastic, so this returns raw triplet structure for graph use.
    ///
    /// Built transiently on purpose: the value-carrying transpose the
    /// parallel gather caches costs ~1.5x the matrix's memory, and a
    /// structure-only graph query must not pin that for the matrix's
    /// lifetime. If the cache already exists it is reused.
    pub fn transpose_structure(&self) -> Vec<Vec<u32>> {
        if let Some(t) = self.transpose.get() {
            return (0..self.n)
                .map(|c| t.rows[t.row_ptr[c]..t.row_ptr[c + 1]].to_vec())
                .collect();
        }
        let mut out: Vec<Vec<u32>> = vec![Vec::new(); self.n];
        for r in 0..self.n {
            for (c, _) in self.row(r) {
                out[c as usize].push(r as u32);
            }
        }
        out
    }

    /// The forward product's work for its dispatch site: the stored
    /// nonzeros of the rows that carry mass and pass the mask
    /// ([`par::live_work`]). The scatter skips every other row and the
    /// gather does not, so a sparse distribution and a dense one must not
    /// share a bucket: the sparse call's cheap scatter would make the
    /// scatter look cheaper than the gather on the dense one too.
    fn forward_work(&self, pi: &[f64], active: Option<&BitVec>) -> usize {
        par::live_work(self.nnz(), self.n, |r| {
            pi[r] != 0.0 && active.is_none_or(|m| m.get(r))
        })
    }

    /// The backward product's work for its dispatch site: the stored
    /// nonzeros of the rows that pass the mask ([`par::live_work`]); both
    /// forms copy the other rows through.
    fn backward_work(&self, active: Option<&BitVec>) -> usize {
        match active {
            None => self.nnz(),
            Some(mask) => par::live_work(self.nnz(), self.n, |r| mask.get(r)),
        }
    }

    /// The sequential forward product: a scatter of every nonzero-mass
    /// active row into `out`, which it fully overwrites. The mask dispatch
    /// is hoisted out of the row loops: the unmasked variant is the one
    /// every transient sweep hits each step, and on ~1k-state chains a
    /// per-row branch is a measurable fraction of the kernel.
    fn forward_scatter(&self, pi: &[f64], active: Option<&BitVec>, out: &mut [f64]) {
        out.fill(0.0);
        match active {
            None => {
                for (r, &p) in pi.iter().enumerate() {
                    if p == 0.0 {
                        continue;
                    }
                    for (c, v) in self.row(r) {
                        out[c as usize] += p * v;
                    }
                }
            }
            Some(mask) => {
                for (r, &p) in pi.iter().enumerate() {
                    if p == 0.0 || !mask.get(r) {
                        continue;
                    }
                    for (c, v) in self.row(r) {
                        out[c as usize] += p * v;
                    }
                }
            }
        }
    }

    /// The forward product as a gather over the cached transpose, writing
    /// the output range `[offset, offset + chunk.len())`. Chunks are
    /// independent, which is what the parallel path exploits; a single full
    /// chunk reproduces the sequential scatter bit-for-bit because each
    /// transpose row stores its terms in the scatter's summation order.
    fn forward_gather_chunk(
        &self,
        pi: &[f64],
        active: Option<&BitVec>,
        offset: usize,
        chunk: &mut [f64],
    ) {
        let t = self.transposed();
        match active {
            None => {
                for (j, slot) in chunk.iter_mut().enumerate() {
                    let c = offset + j;
                    let mut acc = 0.0;
                    for k in t.row_ptr[c]..t.row_ptr[c + 1] {
                        let p = pi[t.rows[k] as usize];
                        // Mirror the sequential scatter exactly: zero-mass
                        // rows contribute no term at all.
                        if p != 0.0 {
                            acc += p * t.vals[k];
                        }
                    }
                    *slot = acc;
                }
            }
            Some(mask) => {
                for (j, slot) in chunk.iter_mut().enumerate() {
                    let c = offset + j;
                    let mut acc = 0.0;
                    for k in t.row_ptr[c]..t.row_ptr[c + 1] {
                        let r = t.rows[k] as usize;
                        let p = pi[r];
                        // Masked and zero-mass rows contribute no term.
                        if p != 0.0 && mask.get(r) {
                            acc += p * t.vals[k];
                        }
                    }
                    *slot = acc;
                }
            }
        }
    }
}

/// A rank-one stochastic matrix: every row equals `dist`.
#[derive(Debug, Clone, PartialEq)]
pub struct RankOneMatrix {
    n: usize,
    dist: Vec<(u32, f64)>,
}

impl RankOneMatrix {
    /// Builds a rank-one matrix of dimension `n` whose every row is `dist`.
    ///
    /// # Errors
    ///
    /// * [`DtmcError::InvalidProbability`] for negative or NaN entries.
    /// * [`DtmcError::NotStochastic`] if the distribution does not sum to 1.
    pub fn new(n: usize, mut dist: Vec<(u32, f64)>) -> Result<Self, DtmcError> {
        let mut sum = 0.0;
        for &(c, v) in &dist {
            if v < 0.0 || v.is_nan() || v > 1.0 + STOCHASTIC_TOL {
                return Err(DtmcError::InvalidProbability {
                    state: "rank-one row".into(),
                    prob: v,
                });
            }
            debug_assert!((c as usize) < n, "column {c} out of range");
            sum += v;
        }
        if (sum - 1.0).abs() > STOCHASTIC_TOL {
            return Err(DtmcError::NotStochastic {
                state: "rank-one row".into(),
                sum,
            });
        }
        dist.sort_by_key(|&(c, _)| c);
        let mut merged: Vec<(u32, f64)> = Vec::with_capacity(dist.len());
        for (c, v) in dist {
            match merged.last_mut() {
                Some((lc, lv)) if *lc == c => *lv += v,
                _ => merged.push((c, v)),
            }
        }
        merged.retain(|&(_, v)| v > 0.0);
        Ok(RankOneMatrix { n, dist: merged })
    }

    /// The dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The shared row distribution.
    pub fn dist(&self) -> &[(u32, f64)] {
        &self.dist
    }
}

/// A borrowed view of one matrix row, iterating `(column, probability)`
/// without allocating (unlike [`TransitionMatrix::successors`]).
#[derive(Debug, Clone)]
pub enum RowIter<'a> {
    /// A CSR row: parallel column/value slices.
    Sparse {
        /// Remaining column indices.
        cols: std::slice::Iter<'a, u32>,
        /// Remaining probabilities.
        vals: std::slice::Iter<'a, f64>,
    },
    /// A rank-one row: the shared distribution.
    Shared(std::slice::Iter<'a, (u32, f64)>),
}

impl Iterator for RowIter<'_> {
    type Item = (u32, f64);

    #[inline]
    fn next(&mut self) -> Option<(u32, f64)> {
        match self {
            RowIter::Sparse { cols, vals } => Some((*cols.next()?, *vals.next()?)),
            RowIter::Shared(pairs) => pairs.next().copied(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            RowIter::Sparse { cols, .. } => cols.size_hint(),
            RowIter::Shared(pairs) => pairs.size_hint(),
        }
    }
}

impl ExactSizeIterator for RowIter<'_> {}

/// A row-stochastic transition matrix in one of the supported
/// representations.
#[derive(Debug, Clone, PartialEq)]
pub enum TransitionMatrix {
    /// General sparse representation.
    Sparse(CsrMatrix),
    /// Memoryless (identical rows) representation.
    RankOne(RankOneMatrix),
}

impl TransitionMatrix {
    /// The dimension (number of states).
    pub fn n(&self) -> usize {
        match self {
            TransitionMatrix::Sparse(m) => m.n(),
            TransitionMatrix::RankOne(m) => m.n(),
        }
    }

    /// The number of distinct stored transitions. For the rank-one form this
    /// is the support size of the shared row (the number of *distinct*
    /// transition distributions' entries, matching how a symbolic engine
    /// would share them), not `n × support`.
    pub fn stored_transitions(&self) -> usize {
        match self {
            TransitionMatrix::Sparse(m) => m.nnz(),
            TransitionMatrix::RankOne(m) => m.dist().len(),
        }
    }

    /// The *logical* number of transitions of the chain (what PRISM would
    /// report): `nnz` for sparse, `n × support` for rank-one.
    pub fn logical_transitions(&self) -> usize {
        match self {
            TransitionMatrix::Sparse(m) => m.nnz(),
            TransitionMatrix::RankOne(m) => m.n() * m.dist().len(),
        }
    }

    /// Forward product `out = π · P` (distribution propagation).
    ///
    /// # Panics
    ///
    /// Panics if `pi.len() != n`.
    pub fn forward(&self, pi: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.n()];
        self.forward_masked_into(pi, None, &mut out);
        out
    }

    /// Forward product into a caller-owned buffer (see the module docs'
    /// buffer-reuse contract).
    pub fn forward_into(&self, pi: &[f64], out: &mut [f64]) {
        self.forward_masked_into(pi, None, out);
    }

    /// Forward product where only rows with `active` bit set propagate;
    /// rows outside the mask contribute nothing (their mass is handled by
    /// the caller, typically accumulated as absorbed). `None` means all
    /// rows are active.
    ///
    /// # Panics
    ///
    /// Panics if `pi.len() != n` or the mask length mismatches.
    pub fn forward_masked(&self, pi: &[f64], active: Option<&BitVec>) -> Vec<f64> {
        let mut out = vec![0.0; self.n()];
        self.forward_masked_into(pi, active, &mut out);
        out
    }

    /// Masked forward product into a caller-owned buffer. The buffer is
    /// fully overwritten. Sparse matrices take the parallel gather when
    /// their dispatch site picks it (bit-identical to the sequential
    /// scatter; see module docs).
    ///
    /// # Panics
    ///
    /// Panics if `pi.len() != n`, `out.len() != n`, or the mask length
    /// mismatches.
    pub fn forward_masked_into(&self, pi: &[f64], active: Option<&BitVec>, out: &mut [f64]) {
        let n = self.n();
        assert_eq!(pi.len(), n, "distribution length mismatch");
        assert_eq!(out.len(), n, "output buffer length mismatch");
        if let Some(m) = active {
            assert_eq!(m.len(), n, "mask length mismatch");
        }
        match self {
            TransitionMatrix::Sparse(m) => FORWARD.run(n, m.forward_work(pi, active), |parallel| {
                if parallel {
                    par::chunked_map(out, par::tune_chunk(PAR_MIN_CHUNK), |offset, chunk| {
                        m.forward_gather_chunk(pi, active, offset, chunk)
                    });
                } else {
                    m.forward_scatter(pi, active, out);
                }
            }),
            TransitionMatrix::RankOne(m) => {
                let mass: f64 = match active {
                    None => pi.iter().sum(),
                    Some(mask) => pi
                        .iter()
                        .enumerate()
                        .filter(|&(i, _)| mask.get(i))
                        .map(|(_, &p)| p)
                        .sum(),
                };
                out.fill(0.0);
                if mass > 0.0 {
                    for &(c, v) in m.dist() {
                        out[c as usize] += mass * v;
                    }
                }
            }
        }
    }

    /// Backward product `out = P · x` (value propagation): `out[s]` is the
    /// expectation of `x` one step after `s`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != n`.
    pub fn backward(&self, x: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.n()];
        self.backward_masked_into(x, None, &mut out);
        out
    }

    /// Backward product into a caller-owned buffer (see the module docs'
    /// buffer-reuse contract).
    pub fn backward_into(&self, x: &[f64], out: &mut [f64]) {
        self.backward_masked_into(x, None, out);
    }

    /// Backward product where rows outside the mask keep their current value
    /// (absorbing semantics: `out[s] = x[s]` for inactive `s`).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != n` or the mask length mismatches.
    pub fn backward_masked(&self, x: &[f64], active: Option<&BitVec>) -> Vec<f64> {
        let mut out = vec![0.0; self.n()];
        self.backward_masked_into(x, active, &mut out);
        out
    }

    /// Masked backward product into a caller-owned buffer. The buffer is
    /// fully overwritten. Sparse rows parallelize as-is when their dispatch
    /// site picks it; a rank-one product is one dot product and a fill.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != n`, `out.len() != n`, or the mask length
    /// mismatches.
    pub fn backward_masked_into(&self, x: &[f64], active: Option<&BitVec>, out: &mut [f64]) {
        let n = self.n();
        assert_eq!(x.len(), n, "value vector length mismatch");
        assert_eq!(out.len(), n, "output buffer length mismatch");
        if let Some(m) = active {
            assert_eq!(m.len(), n, "mask length mismatch");
        }
        match self {
            TransitionMatrix::Sparse(m) => {
                let body = |offset: usize, chunk: &mut [f64]| match active {
                    None => {
                        for (j, slot) in chunk.iter_mut().enumerate() {
                            *slot = m.dot_row(offset + j, x);
                        }
                    }
                    Some(mask) => {
                        for (j, slot) in chunk.iter_mut().enumerate() {
                            let r = offset + j;
                            *slot = if mask.get(r) { m.dot_row(r, x) } else { x[r] };
                        }
                    }
                };
                BACKWARD.run(n, m.backward_work(active), |parallel| {
                    if parallel {
                        par::chunked_map(out, par::tune_chunk(PAR_MIN_CHUNK), |o, c| body(o, c));
                    } else {
                        body(0, out);
                    }
                });
            }
            TransitionMatrix::RankOne(m) => {
                let shared: f64 = m.dist().iter().map(|&(c, v)| v * x[c as usize]).sum();
                match active {
                    None => out.fill(shared),
                    Some(mask) => {
                        for (r, slot) in out.iter_mut().enumerate() {
                            *slot = if mask.get(r) { shared } else { x[r] };
                        }
                    }
                }
            }
        }
    }

    /// Whether the matrix carries a cached transpose for the parallel
    /// forward gather (always `false` for rank-one matrices, which do not
    /// need one).
    pub fn has_cached_transpose(&self) -> bool {
        match self {
            TransitionMatrix::Sparse(m) => m.has_cached_transpose(),
            TransitionMatrix::RankOne(_) => false,
        }
    }

    /// Eagerly builds the sparse transpose cache (see
    /// [`CsrMatrix::prime_transpose`]); no-op for rank-one matrices.
    pub fn prime_transpose(&self) {
        if let TransitionMatrix::Sparse(m) = self {
            m.prime_transpose();
        }
    }

    /// The successors of state `r` as `(column, probability)` pairs.
    ///
    /// Allocates; step-heavy callers (simulation, solvers) should prefer
    /// [`TransitionMatrix::row_iter`].
    pub fn successors(&self, r: usize) -> Vec<(u32, f64)> {
        self.row_iter(r).collect()
    }

    /// Samples a successor of state `r` by inverse transform using the
    /// pre-drawn uniform `u ∈ [0, 1)`; see [`sample_distribution`].
    pub fn sample_row(&self, r: usize, u: f64) -> u32 {
        sample_distribution(self.row_iter(r), u)
    }

    /// Iterates the successors of state `r` without allocating.
    pub fn row_iter(&self, r: usize) -> RowIter<'_> {
        match self {
            TransitionMatrix::Sparse(m) => {
                let lo = m.row_ptr[r];
                let hi = m.row_ptr[r + 1];
                RowIter::Sparse {
                    cols: m.cols[lo..hi].iter(),
                    vals: m.vals[lo..hi].iter(),
                }
            }
            TransitionMatrix::RankOne(m) => {
                debug_assert!(r < m.n(), "row {r} out of range");
                RowIter::Shared(m.dist().iter())
            }
        }
    }
}

/// Samples a state from a discrete distribution by inverse transform, with
/// the uniform variate `u ∈ [0, 1)` drawn by the caller — the engine stays
/// RNG-agnostic. Accumulated floating-point slack falls through to the last
/// entry, so a (sub)stochastic distribution always yields a member.
///
/// Shared by the Monte-Carlo samplers in `smg-sim` and `smg-cli`.
///
/// # Panics
///
/// Panics if the distribution is empty.
pub fn sample_distribution(dist: impl Iterator<Item = (u32, f64)>, mut u: f64) -> u32 {
    let mut last = None;
    for (s, p) in dist {
        if u < p {
            return s;
        }
        u -= p;
        last = Some(s);
    }
    last.expect("non-empty distribution")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_state() -> TransitionMatrix {
        TransitionMatrix::Sparse(
            CsrMatrix::from_rows(vec![vec![(0, 0.6), (1, 0.4)], vec![(0, 0.3), (1, 0.7)]]).unwrap(),
        )
    }

    #[test]
    fn products_report_the_work_they_do() {
        // 4,096 rows of two stored entries each.
        let n = 4_096;
        let rows = (0..n)
            .map(|r| vec![(r as u32, 0.5), (((r + 1) % n) as u32, 0.5)])
            .collect();
        let m = CsrMatrix::from_rows(rows).unwrap();
        let quarter = BitVec::from_fn(n, |r| r < n / 4);
        assert_eq!(m.backward_work(None), 2 * n);
        assert_eq!(m.backward_work(Some(&quarter)), n / 2);
        // The forward product counts only the rows that carry mass.
        let mut pi = vec![0.0; n];
        pi[..n / 2].fill(1.0 / (n / 2) as f64);
        assert_eq!(m.forward_work(&pi, None), n);
        assert_eq!(m.forward_work(&pi, Some(&quarter)), n / 2);
    }

    #[test]
    fn csr_validates_rows() {
        assert!(CsrMatrix::from_rows(vec![vec![(0, 0.5)]]).is_err());
        assert!(CsrMatrix::from_rows(vec![vec![(0, -0.5), (0, 1.5)]]).is_err());
        assert!(CsrMatrix::from_rows(vec![vec![(0, f64::NAN), (0, 1.0)]]).is_err());
    }

    #[test]
    fn csr_merges_duplicates() {
        let m = CsrMatrix::from_rows(vec![vec![(0, 0.25), (0, 0.25), (0, 0.5)]]).unwrap();
        assert_eq!(m.nnz(), 1);
        let row: Vec<_> = m.row(0).collect();
        assert_eq!(row.len(), 1);
        assert!((row[0].1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn builder_matches_from_rows() {
        let rows = vec![
            vec![(1u32, 0.5), (0, 0.25), (1, 0.25)],
            vec![(0, 1.0)],
            vec![(2, 0.0), (0, 0.5), (1, 0.5)],
        ];
        let a = CsrMatrix::from_rows(rows.clone()).unwrap();
        let mut b = CsrBuilder::with_capacity(3, 6);
        for mut row in rows {
            b.push_row(&mut row).unwrap();
        }
        assert_eq!(b.rows(), 3);
        assert_eq!(a, b.finish());
    }

    #[test]
    fn builder_rejects_bad_rows() {
        let mut b = CsrBuilder::default();
        assert!(b.push_row(&mut [(0, 0.5)]).is_err());
        assert!(b.push_row(&mut [(0, -0.1), (0, 1.1)]).is_err());
        assert_eq!(b.rows(), 0, "failed rows leave the builder untouched");
    }

    #[test]
    fn forward_preserves_mass() {
        let m = two_state();
        let pi = vec![0.25, 0.75];
        let out = m.forward(&pi);
        assert!((out.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((out[0] - (0.25 * 0.6 + 0.75 * 0.3)).abs() < 1e-12);
    }

    #[test]
    fn forward_into_matches_forward() {
        let m = two_state();
        let pi = vec![0.25, 0.75];
        // Dirty buffer must be fully overwritten.
        let mut out = vec![42.0; 2];
        m.forward_into(&pi, &mut out);
        assert_eq!(out, m.forward(&pi));
    }

    #[test]
    fn backward_is_expectation() {
        let m = two_state();
        let x = vec![1.0, 0.0];
        let out = m.backward(&x);
        assert!((out[0] - 0.6).abs() < 1e-12);
        assert!((out[1] - 0.3).abs() < 1e-12);
    }

    #[test]
    fn backward_into_matches_backward() {
        let m = two_state();
        let x = vec![1.0, -2.0];
        let mut out = vec![f64::NAN; 2];
        m.backward_into(&x, &mut out);
        assert_eq!(out, m.backward(&x));
    }

    #[test]
    fn masked_forward_absorbs() {
        let m = two_state();
        let mut mask = BitVec::ones(2);
        mask.set(1, false); // state 1 is absorbing
        let pi = vec![1.0, 0.0];
        let out = m.forward_masked(&pi, Some(&mask));
        // Only state 0 propagates.
        assert!((out[0] - 0.6).abs() < 1e-12);
        assert!((out[1] - 0.4).abs() < 1e-12);
        let out2 = m.forward_masked(&out, Some(&mask));
        // Mass already in state 1 (0.4) is dropped by the masked product —
        // the caller accumulates it separately.
        assert!((out2.iter().sum::<f64>() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn masked_backward_holds_values() {
        let m = two_state();
        let mut mask = BitVec::ones(2);
        mask.set(1, false);
        let x = vec![0.0, 1.0];
        let out = m.backward_masked(&x, Some(&mask));
        assert!((out[1] - 1.0).abs() < 1e-12, "absorbing state keeps value");
        assert!((out[0] - 0.4).abs() < 1e-12);
    }

    #[test]
    fn rank_one_matches_equivalent_sparse() {
        let dist = vec![(0u32, 0.2), (1, 0.5), (2, 0.3)];
        let r1 = TransitionMatrix::RankOne(RankOneMatrix::new(3, dist.clone()).unwrap());
        let sp = TransitionMatrix::Sparse(
            CsrMatrix::from_rows(vec![dist.clone(), dist.clone(), dist]).unwrap(),
        );
        let pi = vec![0.5, 0.25, 0.25];
        let f1 = r1.forward(&pi);
        let f2 = sp.forward(&pi);
        for (a, b) in f1.iter().zip(&f2) {
            assert!((a - b).abs() < 1e-12);
        }
        let x = vec![3.0, -1.0, 2.0];
        let b1 = r1.backward(&x);
        let b2 = sp.backward(&x);
        for (a, b) in b1.iter().zip(&b2) {
            assert!((a - b).abs() < 1e-12);
        }
        let mut mask = BitVec::ones(3);
        mask.set(2, false);
        let m1 = r1.forward_masked(&pi, Some(&mask));
        let m2 = sp.forward_masked(&pi, Some(&mask));
        for (a, b) in m1.iter().zip(&m2) {
            assert!((a - b).abs() < 1e-12);
        }
        let v1 = r1.backward_masked(&x, Some(&mask));
        let v2 = sp.backward_masked(&x, Some(&mask));
        for (a, b) in v1.iter().zip(&v2) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn rank_one_transition_counts() {
        let m =
            TransitionMatrix::RankOne(RankOneMatrix::new(100, vec![(0, 0.5), (1, 0.5)]).unwrap());
        assert_eq!(m.stored_transitions(), 2);
        assert_eq!(m.logical_transitions(), 200);
        assert_eq!(m.successors(42), vec![(0, 0.5), (1, 0.5)]);
    }

    #[test]
    fn rank_one_validates() {
        assert!(RankOneMatrix::new(2, vec![(0, 0.4)]).is_err());
        assert!(RankOneMatrix::new(2, vec![(0, -0.1), (1, 1.1)]).is_err());
        // Duplicates merged.
        let m = RankOneMatrix::new(2, vec![(1, 0.5), (1, 0.5)]).unwrap();
        assert_eq!(m.dist(), &[(1u32, 1.0)]);
    }

    #[test]
    fn sample_distribution_inverse_transform() {
        let m = two_state();
        // Row 0 is {0: 0.6, 1: 0.4}: u below 0.6 picks 0, above picks 1.
        assert_eq!(m.sample_row(0, 0.0), 0);
        assert_eq!(m.sample_row(0, 0.59), 0);
        assert_eq!(m.sample_row(0, 0.61), 1);
        // Rounding slack falls through to the last entry.
        assert_eq!(m.sample_row(0, 0.999_999_999_999), 1);
        assert_eq!(sample_distribution([(7u32, 1.0)].into_iter(), 0.5), 7);
    }

    #[test]
    fn default_builder_starts_empty() {
        let mut b = CsrBuilder::default();
        assert_eq!(b.rows(), 0);
        b.push_row(&mut [(0, 1.0)]).unwrap();
        assert_eq!(b.finish().n(), 1);
    }

    #[test]
    fn row_iter_matches_successors() {
        let sp = two_state();
        for r in 0..2 {
            assert_eq!(sp.row_iter(r).collect::<Vec<_>>(), sp.successors(r));
            assert_eq!(sp.row_iter(r).len(), sp.successors(r).len());
        }
        let r1 = TransitionMatrix::RankOne(RankOneMatrix::new(4, vec![(1, 1.0)]).unwrap());
        assert_eq!(r1.row_iter(3).collect::<Vec<_>>(), vec![(1, 1.0)]);
    }

    #[test]
    fn transpose_structure() {
        let m = CsrMatrix::from_rows(vec![vec![(1, 1.0)], vec![(0, 0.5), (1, 0.5)]]).unwrap();
        let t = m.transpose_structure();
        assert_eq!(t[0], vec![1]);
        assert_eq!(t[1], vec![0, 1]);
    }

    #[test]
    fn prime_transpose_populates_cache() {
        let m = CsrMatrix::from_rows(vec![vec![(1, 1.0)], vec![(0, 0.5), (1, 0.5)]]).unwrap();
        assert!(!m.has_cached_transpose());
        m.prime_transpose();
        assert!(m.has_cached_transpose());
        // Primed and demand-built transposes are the same structure.
        assert_eq!(m.transpose_structure(), vec![vec![1], vec![0, 1]]);
        let tm = TransitionMatrix::Sparse(m);
        assert!(tm.has_cached_transpose());
        let r1 = TransitionMatrix::RankOne(RankOneMatrix::new(2, vec![(0, 1.0)]).unwrap());
        r1.prime_transpose(); // no-op
        assert!(!r1.has_cached_transpose());
    }

    #[test]
    fn clone_and_eq_ignore_transpose_cache() {
        let m = CsrMatrix::from_rows(vec![vec![(1, 1.0)], vec![(0, 1.0)]]).unwrap();
        let fresh = m.clone();
        let _ = m.transposed(); // populate the cache on one side only
        assert_eq!(m, fresh);
        assert_eq!(m.clone(), fresh);
    }

    /// Pseudo-random sparse chain for kernel cross-checks.
    fn random_chain(n: usize, seed: u64) -> TransitionMatrix {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut builder = CsrBuilder::with_capacity(n, n * 4);
        let mut row = Vec::new();
        for _ in 0..n {
            row.clear();
            let succ = 1 + (next() % 4) as usize;
            let mut weights = Vec::with_capacity(succ);
            for _ in 0..succ {
                row.push(((next() % n as u64) as u32, 0.0));
                weights.push(1 + next() % 16);
            }
            let total: u64 = weights.iter().sum();
            for (slot, w) in row.iter_mut().zip(&weights) {
                slot.1 = *w as f64 / total as f64;
            }
            builder.push_row(&mut row).unwrap();
        }
        TransitionMatrix::Sparse(builder.finish())
    }

    /// The gather kernel behind the parallel forward path must agree
    /// bit-for-bit with the sequential scatter, chunked or not. Driving the
    /// kernel directly keeps this meaningful on single-core machines where
    /// `should_parallelize` never fires.
    #[test]
    fn forward_gather_matches_scatter_bitwise() {
        let n = 4096;
        let m = random_chain(n, 0xFEED);
        let TransitionMatrix::Sparse(csr) = &m else {
            unreachable!("random_chain builds CSR")
        };
        let mut pi = vec![0.0; n];
        let mut acc = 0.61803398875f64;
        for (i, slot) in pi.iter_mut().enumerate() {
            if i % 7 != 0 {
                acc = (acc * 997.0).fract();
                *slot = acc;
            }
        }
        let mut mask = BitVec::ones(n);
        for i in (0..n).step_by(3) {
            mask.set(i, false);
        }
        for active in [None, Some(&mask)] {
            let seq = m.forward_masked(&pi, active);
            // One full chunk.
            let mut full = vec![f64::NAN; n];
            csr.forward_gather_chunk(&pi, active, 0, &mut full);
            assert_eq!(full, seq);
            // Uneven chunking as the parallel split would produce.
            let mut chunked = vec![f64::NAN; n];
            let (a, rest) = chunked.split_at_mut(1000);
            let (b, c) = rest.split_at_mut(2000);
            csr.forward_gather_chunk(&pi, active, 0, a);
            csr.forward_gather_chunk(&pi, active, 1000, b);
            csr.forward_gather_chunk(&pi, active, 3000, c);
            assert_eq!(chunked, seq);
        }
    }
}
