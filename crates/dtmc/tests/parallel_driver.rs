//! Drives the *real* pool-dispatched parallel drivers — not just their
//! chunk kernels — by oversubscribing the persistent worker pool via
//! `SMG_THREADS`, so the threaded paths run even on single-core machines.
//! This file is its own process (integration test), so the env vars are
//! set before the engine's `OnceLock`s are first read; keep everything in
//! one `#[test]` to avoid init races between tests.

use smg_dtmc::matrix::sample_distribution;
use smg_dtmc::{solve, transient, BitVec, CsrBuilder, Dtmc, TransitionMatrix};
use std::collections::BTreeMap;

fn random_chain(n: usize, seed: u64) -> Dtmc {
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
        let k = 1 + (next() % 4) as usize;
        let mut weights = Vec::with_capacity(k);
        for _ in 0..k {
            row.push(((next() % n as u64) as u32, 0.0));
            weights.push(1 + next() % 16);
        }
        let total: u64 = weights.iter().sum();
        for (slot, w) in row.iter_mut().zip(&weights) {
            slot.1 = *w as f64 / total as f64;
        }
        builder.push_row(&mut row).unwrap();
    }
    let n_states = n;
    let mut labels = BTreeMap::new();
    labels.insert(
        "goal".to_string(),
        BitVec::from_fn(n_states, |i| i % 251 == 0),
    );
    Dtmc::new(
        TransitionMatrix::Sparse(builder.finish()),
        vec![(0, 1.0)],
        labels,
        vec![0.0; n_states],
    )
    .unwrap()
}

/// Sequential references, written against `row_iter` only.
fn ref_forward_masked(d: &Dtmc, pi: &[f64], active: Option<&BitVec>) -> Vec<f64> {
    let mut out = vec![0.0; d.n_states()];
    for (r, &p) in pi.iter().enumerate() {
        if p == 0.0 || active.is_some_and(|m| !m.get(r)) {
            continue;
        }
        for (c, v) in d.matrix().row_iter(r) {
            out[c as usize] += p * v;
        }
    }
    out
}

fn ref_backward_masked(d: &Dtmc, x: &[f64], active: Option<&BitVec>) -> Vec<f64> {
    (0..d.n_states())
        .map(|r| {
            if active.is_some_and(|m| !m.get(r)) {
                return x[r];
            }
            // The engine reduces each row in two interleaved streams
            // (even/odd positions) that join at the end; mirror that order
            // so the assertion below checks exactly what the kernel
            // promises — threaded dispatch introduces no reassociation
            // beyond the documented per-row reduction order.
            let terms: Vec<f64> = d
                .matrix()
                .row_iter(r)
                .map(|(c, v)| v * x[c as usize])
                .collect();
            let even: f64 = terms.iter().step_by(2).sum();
            let odd: f64 = terms.iter().skip(1).step_by(2).sum();
            even + odd
        })
        .collect()
}

fn ref_serial_gauss_seidel(d: &Dtmc, target: &BitVec, tol: f64) -> Vec<f64> {
    let n = d.n_states();
    let mut x: Vec<f64> = (0..n)
        .map(|i| if target.get(i) { 1.0 } else { 0.0 })
        .collect();
    loop {
        let mut delta: f64 = 0.0;
        for i in 0..n {
            if target.get(i) {
                continue;
            }
            let mut acc = 0.0;
            let mut self_loop = 0.0;
            for (c, p) in d.matrix().row_iter(i) {
                if c as usize == i {
                    self_loop += p;
                } else {
                    acc += p * x[c as usize];
                }
            }
            let new = if self_loop < 1.0 {
                acc / (1.0 - self_loop)
            } else {
                0.0
            };
            delta = delta.max((new - x[i]).abs());
            x[i] = new;
        }
        if delta < tol {
            return x;
        }
    }
}

#[test]
fn threaded_drivers_match_sequential_references() {
    // Must happen before any engine call in this process.
    std::env::set_var("SMG_THREADS", "4");
    std::env::set_var("SMG_PAR_MIN_ROWS", "512");

    let n = 4096;
    let d = random_chain(n, 0xDEC0DE);
    if cfg!(feature = "parallel") {
        assert!(
            smg_dtmc::par::should_parallelize(n),
            "oversubscribed workers + lowered threshold must engage the parallel path"
        );
        assert_eq!(smg_dtmc::par::max_threads(), 4);
    }
    // `SMG_PAR_MIN_ROWS` pins the static rule: every dispatch follows it,
    // whatever the gate would have measured.
    for (rows, parallel) in [(511, false), (n, cfg!(feature = "parallel"))] {
        assert_eq!(smg_dtmc::par::pinned(rows), Some(parallel));
    }

    // Deterministic pseudo-random distribution and mask.
    let mut pi = vec![0.0; n];
    let mut acc = 0.61803398875f64;
    for (i, slot) in pi.iter_mut().enumerate() {
        if i % 5 != 0 {
            acc = (acc * 997.0).fract();
            *slot = acc;
        }
    }
    let mask = BitVec::from_fn(n, |i| i % 3 != 0);

    // Forward: the threaded transpose gather must be bit-identical to the
    // sequential scatter.
    for active in [None, Some(&mask)] {
        let engine = d.matrix().forward_masked(&pi, active);
        assert_eq!(engine, ref_forward_masked(&d, &pi, active));
    }

    // Backward: threaded row-gather, bit-identical.
    let x: Vec<f64> = (0..n).map(|i| (i % 17) as f64 - 8.0).collect();
    for active in [None, Some(&mask)] {
        let engine = d.matrix().backward_masked(&x, active);
        assert_eq!(engine, ref_backward_masked(&d, &x, active));
    }

    // Transient propagation end-to-end through the threaded kernels.
    let far = transient::distribution_at(&d, 50);
    assert!(
        (far.iter().sum::<f64>() - 1.0).abs() < 1e-9,
        "mass conserved"
    );

    // The condensation walk (its trivial-component batches threaded when
    // parallel) against a one-lane run bit for bit, and against a serial
    // Gauss-Seidel reference within tolerance.
    let goal = d.label("goal").unwrap().clone();
    let cond = smg_dtmc::graph::Condensation::new(&d);
    let walk = || solve::topo_reach_values(&d, &cond, &goal, 1e-13, 1_000_000).unwrap();
    let engine = walk();
    assert_eq!(engine, smg_dtmc::par::with_lane_scope(1, walk));
    let reference = ref_serial_gauss_seidel(&d, &goal, 1e-13);
    for (i, (a, b)) in engine.iter().zip(&reference).enumerate() {
        assert!((a - b).abs() < 1e-8, "state {i}: engine {a} vs serial {b}");
    }

    // The shared sampler walks the same rows the kernels used.
    let s = d.matrix().sample_row(0, 0.999_999);
    assert!(d.matrix().row_iter(0).any(|(c, _)| c == s));
    assert_eq!(
        sample_distribution(d.initial().iter().copied(), 0.0),
        d.initial()[0].0
    );
}
