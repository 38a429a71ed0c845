//! Independent references for every answer the benchmark checks: closed
//! forms for the walk, binomial tails for the regime MDPs, a direct dynamic
//! program for the lattice, and the paper's state counts and printed
//! values. None of them runs the model checker.

use crate::gen::{self, Lattice, Regime, WalkConsts};

/// One expected answer: the property as the checker prints it, its value,
/// and the relative tolerance it must meet.
#[derive(Debug, Clone)]
pub struct Expect {
    /// Property text, as rendered in `smg check --format json` records.
    pub property: String,
    /// Reference value.
    pub value: f64,
    /// Allowed error, relative to `max(1, |value|)`.
    pub tol: f64,
}

/// Tolerance of default-mode (residual-test) and exact answers.
pub const DEFAULT_TOL: f64 = 1e-9;

/// Counts the answers that miss their reference: a different property, a
/// value outside tolerance, or a missing or extra record.
pub fn mismatches(expect: &[Expect], got: &[(String, f64)]) -> usize {
    let missing = expect.len().abs_diff(got.len());
    missing
        + expect
            .iter()
            .zip(got)
            .filter(|(e, (prop, v))| {
                // Written so that a NaN answer is never within tolerance.
                let within = (v - e.value).abs() <= e.tol * e.value.abs().max(1.0);
                *prop != e.property || !within
            })
            .count()
}

/// The self-check: the same answers against a deliberately wrong
/// reference (the first value moved far outside its tolerance) must count
/// exactly one more mismatch.
pub fn self_check(expect: &[Expect], got: &[(String, f64)]) -> bool {
    let mut wrong = expect.to_vec();
    let Some(first) = wrong.first_mut() else {
        return false;
    };
    first.value += 1e-3 * first.value.abs().max(1.0);
    mismatches(&wrong, got) == mismatches(expect, got) + 1
}

/// `P(Bin(t, p) ≥ k)`, summed over the upper tail from the pmf recurrence.
pub fn binomial_tail(t: u64, p: f64, k: u64) -> f64 {
    if k > t {
        return 0.0;
    }
    let mut pmf = (1.0 - p).powi(t as i32);
    let mut tail = 0.0;
    for j in 0..=t {
        if j >= k {
            tail += pmf;
        }
        pmf *= (t - j) as f64 / (j + 1) as f64 * p / (1.0 - p);
    }
    tail
}

/// Closed forms for `examples/models/walk.sm`: the error latches with
/// probability `perr` per frame, so it has fired by frame `t` with
/// probability `1 − (1 − perr)^min(t, N)`.
pub fn walk(c: WalkConsts, property: &str) -> Option<f64> {
    let fired = |t: u64| 1.0 - (1.0 - c.perr).powi(t.min(c.frames) as i32);
    let horizon = |prefix: &str, suffix: &str| {
        property
            .strip_prefix(prefix)?
            .strip_suffix(suffix)?
            .parse::<u64>()
            .ok()
    };
    match property {
        "P=? [ F err ]" | "S=? [ err ]" => Some(fired(c.frames)),
        "P=? [ G !err ]" => Some(1.0 - fired(c.frames)),
        _ => horizon("P=? [ F<=", " err ]")
            .or_else(|| horizon("R=? [ I=", " ]"))
            .map(fired),
    }
}

/// The regime MDP's answers: the maximizing adversary always picks the
/// bursty rate and the minimizing one the quiet rate, so every optimum is a
/// binomial tail of the counter. `Rmax`/`Rmin [F done]` sum, over frames
/// before `N`, the probability that the counter has overflowed.
pub fn regime(r: &Regime, property: &str) -> Option<f64> {
    let (quiet, burst) = (gen::value(&r.p_quiet), gen::value(&r.p_burst));
    let reward = |p: f64| (0..r.frames).map(|t| binomial_tail(t, p, r.cmax)).sum();
    match property {
        "Pmax=? [ F overflow ]" => Some(binomial_tail(r.frames, burst, r.cmax)),
        "Pmin=? [ F overflow ]" => Some(binomial_tail(r.frames, quiet, r.cmax)),
        "Rmax=? [ F done ]" => Some(reward(burst)),
        "Rmin=? [ F done ]" => Some(reward(quiet)),
        _ => {
            let t: u64 = property
                .strip_prefix("Pmax=? [ F<=")?
                .strip_suffix(" overflow ]")?
                .parse()
                .ok()?;
            Some(binomial_tail(t.min(r.frames), burst, r.cmax))
        }
    }
}

/// The lattice's bounded reachability by a direct dynamic program over the
/// cells within `horizon` steps of the start (no other cell is reachable in
/// time), with the corner absorbing.
pub fn lattice(l: &Lattice) -> f64 {
    let h = l.horizon as i64;
    let side = (2 * h + 1) as usize;
    let w = l.width as i64;
    let [pe, pw, pn, ps] = l.steps.each_ref().map(|p| gen::value(p));
    let stay = 1.0 - pe - pw - pn - ps;
    let corner = |dx: i64, dy: i64| {
        let x = (l.start.0 as i64 + dx).rem_euclid(w) as u64;
        let y = (l.start.1 as i64 + dy).rem_euclid(w) as u64;
        Lattice::is_corner(x, y)
    };
    let idx = |dx: i64, dy: i64| ((dx + h) as usize) * side + (dy + h) as usize;
    if corner(0, 0) {
        return 1.0;
    }
    let mut mass = vec![0.0; side * side];
    mass[idx(0, 0)] = 1.0;
    let mut hit = 0.0;
    for _ in 0..h {
        let mut next = vec![0.0; side * side];
        for dx in -h..=h {
            for dy in -h..=h {
                let m = mass[idx(dx, dy)];
                if m == 0.0 {
                    continue;
                }
                for (ddx, ddy, p) in [
                    (1, 0, pe),
                    (-1, 0, pw),
                    (0, 1, pn),
                    (0, -1, ps),
                    (0, 0, stay),
                ] {
                    let (nx, ny) = (dx + ddx, dy + ddy);
                    if corner(nx, ny) {
                        hit += m * p;
                    } else {
                        next[idx(nx, ny)] += m * p;
                    }
                }
            }
        }
        mass = next;
    }
    hit
}

/// Table I at the paper configuration (T=300, threshold 1, full models):
/// states of M, M_R, the counter-extended M and the counter-extended M_R.
pub const TABLE1_STATES: [usize; 4] = [39_040, 7_680, 97_600, 19_200];
/// Table I's printed P1, P2 and P3 (`smg_core::report::fmt_prob`).
pub const TABLE1_PRINTED: [&str; 3] = ["1.22e-9", "0.0968", "≈ 1"];
/// Table II: `(system, states of M, states of M_R)`.
pub const TABLE2_STATES: [(&str, usize, usize); 2] =
    [("1x2", 140_067, 9_075), ("1x4", 131_073, 331)];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binomial_tail_matches_direct_sums() {
        // P(Bin(3, 1/2) ≥ 2) = 4/8.
        assert!((binomial_tail(3, 0.5, 2) - 0.5).abs() < 1e-15);
        assert_eq!(binomial_tail(3, 0.5, 4), 0.0);
        assert!((binomial_tail(10, 0.1, 0) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn a_wrong_reference_is_counted() {
        let expect = vec![Expect {
            property: "P=? [ F err ]".into(),
            value: 0.5,
            tol: DEFAULT_TOL,
        }];
        let got = vec![("P=? [ F err ]".to_string(), 0.5)];
        assert_eq!(mismatches(&expect, &got), 0);
        assert!(self_check(&expect, &got));
        assert_eq!(mismatches(&expect, &[]), 1);
    }
}
