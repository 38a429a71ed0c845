//! `S=?` on reducible chains against an independent reference.
//!
//! The checker computes long-run probabilities from the bottom SCCs
//! (`Σ_B P(◇B)·π_B(φ)`, damped power iteration only inside mixed-label
//! components, one topological walk over the transient states). The
//! reference here shares none of that: it knows each random chain's bottom
//! components by construction, solves every stationary distribution and
//! the transient absorption system by dense Gaussian elimination, and
//! folds them into the Cesàro limit from the initial state.

use proptest::prelude::*;
use smg_dtmc::matrix::CsrMatrix;
use smg_dtmc::{BitVec, Dtmc, TransitionMatrix};
use smg_pctl::{check_query, parse_property, CheckSession};
use std::collections::BTreeMap;

/// SplitMix64: the chain generator's deterministic source.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % n as u64) as usize
    }

    /// A probability in `{1/8, …, 7/8}`.
    fn eighths(&mut self) -> f64 {
        (1 + self.below(7)) as f64 / 8.0
    }
}

/// A random chain whose transient states `0..transient` (0 is initial)
/// feed bottom SCCs known by construction: singletons, deterministic
/// cycles (periodic) and random irreducible blocks, the last two always
/// mixed-label. Transient states link backward and forward among
/// themselves, so they form trivial and non-trivial SCCs, and each leaks
/// at least 1/8 of its mass into a bottom state.
struct RandomChain {
    rows: Vec<Vec<(u32, f64)>>,
    phi: Vec<bool>,
    bottoms: Vec<Vec<usize>>,
    transient: usize,
}

fn random_chain(seed: u64) -> RandomChain {
    let mut rng = Rng(seed);
    let transient = 2 + rng.below(9);
    let n_bottoms = 1 + rng.below(4);
    let mut rows: Vec<Vec<(u32, f64)>> = vec![Vec::new(); transient];
    let mut phi: Vec<bool> = (0..transient).map(|_| rng.below(2) == 0).collect();
    let mut bottoms = Vec::new();
    for b in 0..n_bottoms {
        let kind = if b < 3 { b } else { rng.below(3) };
        let size = if kind == 0 { 1 } else { 2 + rng.below(3) };
        let first = rows.len();
        let members: Vec<usize> = (first..first + size).collect();
        for j in 0..size {
            let s = members[j];
            let next = members[(j + 1) % size] as u32;
            let row = match kind {
                0 => vec![(s as u32, 1.0)],
                1 => vec![(next, 1.0)],
                _ => {
                    let chord = members[rng.below(size)] as u32;
                    let w = rng.eighths();
                    vec![(next, w), (chord, 1.0 - w)]
                }
            };
            rows.push(row);
            phi.push(if size > 1 && j < 2 {
                j == 0
            } else {
                rng.below(2) == 0
            });
        }
        bottoms.push(members);
    }
    let n = rows.len();
    for (i, row) in rows.iter_mut().enumerate().take(transient) {
        let leak = rng.eighths();
        let back = (1.0 - leak) * rng.eighths();
        *row = vec![
            ((transient + rng.below(n - transient)) as u32, leak),
            (rng.below(i + 1) as u32, back),
            ((i + rng.below(transient - i)) as u32, 1.0 - leak - back),
        ];
    }
    RandomChain {
        rows,
        phi,
        bottoms,
        transient,
    }
}

fn to_dtmc(c: &RandomChain) -> Dtmc {
    let n = c.rows.len();
    let matrix = TransitionMatrix::Sparse(CsrMatrix::from_rows(c.rows.clone()).unwrap());
    let mut labels = BTreeMap::new();
    labels.insert("phi".to_string(), BitVec::from_fn(n, |i| c.phi[i]));
    Dtmc::new(matrix, vec![(0, 1.0)], labels, vec![0.0; n]).unwrap()
}

/// Solves the dense system `a·x = b` by Gaussian elimination with partial
/// pivoting.
fn solve_dense(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Vec<f64> {
    let m = b.len();
    for col in 0..m {
        let pivot = (col..m)
            .max_by(|&x, &y| a[x][col].abs().total_cmp(&a[y][col].abs()))
            .unwrap();
        a.swap(col, pivot);
        b.swap(col, pivot);
        assert!(a[col][col].abs() > 1e-12, "singular system");
        let (top, rest) = a.split_at_mut(col + 1);
        let pivot_row = &top[col];
        for (k, row) in rest.iter_mut().enumerate() {
            let f = row[col] / pivot_row[col];
            if f != 0.0 {
                for (slot, pv) in row[col..].iter_mut().zip(&pivot_row[col..]) {
                    *slot -= f * pv;
                }
                b[col + 1 + k] -= f * b[col];
            }
        }
    }
    let mut x = vec![0.0; m];
    for row in (0..m).rev() {
        let tail: f64 = (row + 1..m).map(|k| a[row][k] * x[k]).sum();
        x[row] = (b[row] - tail) / a[row][row];
    }
    x
}

/// The Cesàro limit of being in `φ` from state 0: each bottom SCC's
/// stationary mass on `φ` (from `π(P − I) = 0, Σπ = 1`), then the
/// transient absorption system `(I − Q)·y = Σ_B P(·, B)·π_B(φ)`.
fn reference(c: &RandomChain) -> f64 {
    let n = c.rows.len();
    let mut mass_at = vec![0.0; n];
    for members in &c.bottoms {
        let m = members.len();
        let local = |s: usize| members.iter().position(|&x| x == s).unwrap();
        let mut a = vec![vec![0.0; m]; m];
        for (i, &s) in members.iter().enumerate() {
            for &(t, p) in &c.rows[s] {
                a[local(t as usize)][i] += p;
            }
            a[i][i] -= 1.0;
        }
        // Replace the last (redundant) balance equation by normalization.
        a[m - 1] = vec![1.0; m];
        let mut b = vec![0.0; m];
        b[m - 1] = 1.0;
        let pi = solve_dense(a, b);
        let mass: f64 = members
            .iter()
            .zip(&pi)
            .filter(|&(&s, _)| c.phi[s])
            .map(|(_, p)| p)
            .sum();
        for &s in members {
            mass_at[s] = mass;
        }
    }
    let t = c.transient;
    let mut a = vec![vec![0.0; t]; t];
    let mut b = vec![0.0; t];
    for i in 0..t {
        a[i][i] += 1.0;
        for &(j, p) in &c.rows[i] {
            let j = j as usize;
            if j < t {
                a[i][j] -= p;
            } else {
                b[i] += p * mass_at[j];
            }
        }
    }
    solve_dense(a, b)[0]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Default `S=?` equals the dense Cesàro reference within 1e-9, through
    /// the uncached free function and a session alike (bit-identical to
    /// each other, and on a warm cache).
    #[test]
    fn steady_state_matches_dense_cesaro_reference(seed in 0u64..u64::MAX) {
        let chain = random_chain(seed);
        let dtmc = to_dtmc(&chain);
        let want = reference(&chain);
        let prop = parse_property("S=? [ phi ]").unwrap();
        let free = check_query(&dtmc, &prop).unwrap().value();
        prop_assert!(
            (free - want).abs() < 1e-9,
            "seed {seed:#x}: S=? {free} vs reference {want}"
        );
        let session = CheckSession::new(dtmc.clone());
        for _ in 0..2 {
            let cached = session.check(&prop).unwrap().value();
            prop_assert_eq!(cached.to_bits(), free.to_bits(), "seed {:#x}", seed);
        }
        let complement = check_query(&dtmc, &parse_property("S=? [ !phi ]").unwrap())
            .unwrap()
            .value();
        prop_assert!((free + complement - 1.0).abs() < 1e-9, "seed {seed:#x}");
    }
}
