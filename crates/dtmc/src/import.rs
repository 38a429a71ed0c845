//! Import from PRISM's explicit-state file formats — the inverse of
//! [`crate::export`], closing the interop loop: chains produced by PRISM
//! (or by this workspace and post-processed elsewhere) can be loaded back
//! for checking, reduction or comparison.
//!
//! Formats accepted (the same dialects [`crate::export`] emits):
//!
//! * `.tra` — header `n m`, then `src dst prob` rows;
//! * `.lab` — declaration line `0="init" 1="name" ...`, then `state: idx...`
//!   rows; the `init` label defines the initial states (mass split
//!   uniformly if several — PRISM DTMCs normally have exactly one);
//! * `.srew` — header `n k`, then `state reward` rows.

use crate::bitvec::BitVec;
use crate::dtmc::{Dtmc, StateId};
use crate::error::DtmcError;
use crate::matrix::{CsrMatrix, TransitionMatrix};
use std::collections::BTreeMap;

fn err(line: usize, message: impl Into<String>) -> DtmcError {
    DtmcError::Import {
        line,
        message: message.into(),
    }
}

/// Lines of `text` that carry content, with their 1-based numbers.
fn content_lines(text: &str) -> impl Iterator<Item = (usize, &str)> {
    text.lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l.trim()))
        .filter(|(_, l)| !l.is_empty())
}

/// Parses a `.tra` transitions file into per-state rows.
///
/// # Errors
///
/// [`DtmcError::Import`] (malformed header/rows, out-of-range states),
/// plus the matrix constructor's stochasticity errors.
pub fn parse_tra(text: &str) -> Result<TransitionMatrix, DtmcError> {
    let mut lines = content_lines(text);
    let (ln, header) = lines.next().ok_or_else(|| err(0, "empty .tra file"))?;
    let mut parts = header.split_whitespace();
    let n: usize = parts
        .next()
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| err(ln, "header must be `n m`"))?;
    let m: usize = parts
        .next()
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| err(ln, "header must be `n m`"))?;
    if parts.next().is_some() {
        return Err(err(ln, "header must be exactly `n m`"));
    }
    let mut rows: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n];
    let mut count = 0usize;
    for (ln, line) in lines {
        let mut f = line.split_whitespace();
        let (Some(src), Some(dst), Some(prob), None) = (f.next(), f.next(), f.next(), f.next())
        else {
            return Err(err(ln, format!("expected `src dst prob`, got {line:?}")));
        };
        let src: usize = src
            .parse()
            .map_err(|_| err(ln, format!("bad source state {src:?}")))?;
        let dst: u32 = dst
            .parse()
            .map_err(|_| err(ln, format!("bad destination state {dst:?}")))?;
        let prob: f64 = prob
            .parse()
            .map_err(|_| err(ln, format!("bad probability {prob:?}")))?;
        if src >= n || (dst as usize) >= n {
            return Err(err(ln, format!("state out of range (n = {n}): {line:?}")));
        }
        rows[src].push((dst, prob));
        count += 1;
    }
    if count != m {
        return Err(err(
            0,
            format!("header declares {m} transitions, file has {count}"),
        ));
    }
    Ok(TransitionMatrix::Sparse(CsrMatrix::from_rows(rows)?))
}

/// Parses a `.lab` labels file. Returns the label bit-vectors (excluding
/// PRISM's built-in `init`) and the initial states carrying `init`.
///
/// # Errors
///
/// [`DtmcError::Import`] for malformed declarations or rows.
pub fn parse_lab(
    text: &str,
    n: usize,
) -> Result<(BTreeMap<String, BitVec>, Vec<StateId>), DtmcError> {
    let mut lines = content_lines(text);
    let (ln, decl) = lines.next().ok_or_else(|| err(0, "empty .lab file"))?;
    let mut names: BTreeMap<u32, String> = BTreeMap::new();
    for tok in decl.split_whitespace() {
        let (idx, name) = tok
            .split_once('=')
            .ok_or_else(|| err(ln, format!("bad declaration {tok:?}")))?;
        let idx: u32 = idx
            .parse()
            .map_err(|_| err(ln, format!("bad label index {idx:?}")))?;
        let name = name.trim_matches('"').to_string();
        if names.insert(idx, name).is_some() {
            return Err(err(ln, format!("duplicate label index {idx}")));
        }
    }
    let mut bits: BTreeMap<u32, BitVec> = names.keys().map(|&i| (i, BitVec::zeros(n))).collect();
    for (ln, line) in lines {
        let (state, idxs) = line
            .split_once(':')
            .ok_or_else(|| err(ln, format!("expected `state: idx...`, got {line:?}")))?;
        let state: usize = state
            .trim()
            .parse()
            .map_err(|_| err(ln, format!("bad state {state:?}")))?;
        if state >= n {
            return Err(err(ln, format!("state {state} out of range (n = {n})")));
        }
        for idx in idxs.split_whitespace() {
            let idx: u32 = idx
                .parse()
                .map_err(|_| err(ln, format!("bad label index {idx:?}")))?;
            bits.get_mut(&idx)
                .ok_or_else(|| err(ln, format!("undeclared label index {idx}")))?
                .set(state, true);
        }
    }
    let mut labels = BTreeMap::new();
    let mut initial = Vec::new();
    for (idx, name) in names {
        let bv = bits.remove(&idx).expect("indices align");
        if name == "init" {
            initial = bv.iter_ones().map(|i| i as StateId).collect();
        } else {
            labels.insert(name, bv);
        }
    }
    Ok((labels, initial))
}

/// Parses a `.srew` state-rewards file into a dense reward vector.
///
/// # Errors
///
/// [`DtmcError::Import`] for malformed rows or a state-count mismatch.
pub fn parse_srew(text: &str, n: usize) -> Result<Vec<f64>, DtmcError> {
    let mut lines = content_lines(text);
    let (ln, header) = lines.next().ok_or_else(|| err(0, "empty .srew file"))?;
    let mut parts = header.split_whitespace();
    let n_decl: usize = parts
        .next()
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| err(ln, "header must be `n k`"))?;
    if n_decl != n {
        return Err(err(
            ln,
            format!("reward file is for {n_decl} states, chain has {n}"),
        ));
    }
    let mut rewards = vec![0.0; n];
    for (ln, line) in lines {
        let mut f = line.split_whitespace();
        let (Some(state), Some(r), None) = (f.next(), f.next(), f.next()) else {
            return Err(err(ln, format!("expected `state reward`, got {line:?}")));
        };
        let state: usize = state
            .parse()
            .map_err(|_| err(ln, format!("bad state {state:?}")))?;
        let r: f64 = r
            .parse()
            .map_err(|_| err(ln, format!("bad reward {r:?}")))?;
        if state >= n {
            return Err(err(ln, format!("state {state} out of range (n = {n})")));
        }
        rewards[state] = r;
    }
    Ok(rewards)
}

/// Assembles a [`Dtmc`] from explicit files: a mandatory `.tra`, an
/// optional `.lab` (without it, state 0 is initial and there are no
/// labels) and an optional `.srew` (without it, rewards are zero).
///
/// If the `init` label marks several states their initial mass is split
/// uniformly (with a PRISM-produced DTMC this does not arise).
///
/// # Errors
///
/// Any parse error from the three formats, or the [`Dtmc`] constructor's
/// validation errors.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), smg_dtmc::DtmcError> {
/// let tra = "2 3\n0 0 0.75\n0 1 0.25\n1 1 1\n";
/// let lab = "0=\"init\" 1=\"done\"\n0: 0\n1: 1\n";
/// let d = smg_dtmc::import::from_explicit(tra, Some(lab), None)?;
/// assert_eq!(d.n_states(), 2);
/// assert_eq!(d.label("done")?.count_ones(), 1);
/// # Ok(())
/// # }
/// ```
pub fn from_explicit(tra: &str, lab: Option<&str>, srew: Option<&str>) -> Result<Dtmc, DtmcError> {
    let matrix = parse_tra(tra)?;
    let n = matrix.n();
    let (labels, init_states) = match lab {
        Some(text) => parse_lab(text, n)?,
        None => (BTreeMap::new(), vec![0]),
    };
    let init_states = if init_states.is_empty() {
        vec![0]
    } else {
        init_states
    };
    let mass = 1.0 / init_states.len() as f64;
    let initial: Vec<(StateId, f64)> = init_states.into_iter().map(|s| (s, mass)).collect();
    let rewards = match srew {
        Some(text) => parse_srew(text, n)?,
        None => vec![0.0; n],
    };
    Dtmc::new(matrix, initial, labels, rewards)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{explore, ExploreOptions};
    use crate::export::{to_lab, to_srew, to_tra};
    use crate::model::DtmcModel;

    struct Chain;
    impl DtmcModel for Chain {
        type State = u8;
        fn initial_states(&self) -> Vec<(u8, f64)> {
            vec![(0, 1.0)]
        }
        fn transitions(&self, s: &u8) -> Vec<(u8, f64)> {
            match s {
                0 => vec![(1, 0.25), (0, 0.5), (2, 0.25)],
                1 => vec![(2, 1.0)],
                _ => vec![(2, 1.0)],
            }
        }
        fn atomic_propositions(&self) -> Vec<&'static str> {
            vec!["done", "mid"]
        }
        fn holds(&self, ap: &str, s: &u8) -> bool {
            (ap == "done" && *s == 2) || (ap == "mid" && *s == 1)
        }
        fn state_reward(&self, s: &u8) -> f64 {
            f64::from(*s)
        }
    }

    #[test]
    fn export_import_round_trip() {
        let original = explore(&Chain, &ExploreOptions::default()).unwrap().dtmc;
        let back = from_explicit(
            &to_tra(&original),
            Some(&to_lab(
                original.n_states(),
                original.initial(),
                original.labels(),
            )),
            Some(&to_srew(original.rewards())),
        )
        .unwrap();
        assert_eq!(back.n_states(), original.n_states());
        for s in 0..original.n_states() {
            assert_eq!(back.matrix().successors(s), original.matrix().successors(s));
        }
        assert_eq!(back.initial(), original.initial());
        assert_eq!(back.rewards(), original.rewards());
        for name in original.label_names() {
            assert_eq!(
                back.label(name).unwrap().iter_ones().collect::<Vec<_>>(),
                original
                    .label(name)
                    .unwrap()
                    .iter_ones()
                    .collect::<Vec<_>>(),
                "{name}"
            );
        }
    }

    #[test]
    fn tra_without_lab_defaults_to_state_zero() {
        let d = from_explicit("1 1\n0 0 1\n", None, None).unwrap();
        assert_eq!(d.initial(), &[(0, 1.0)]);
        assert!(d.label_names().is_empty());
        assert_eq!(d.rewards(), &[0.0]);
    }

    #[test]
    fn multiple_init_states_split_uniformly() {
        let tra = "2 2\n0 0 1\n1 1 1\n";
        let lab = "0=\"init\"\n0: 0\n1: 0\n";
        let d = from_explicit(tra, Some(lab), None).unwrap();
        assert_eq!(d.initial(), &[(0, 0.5), (1, 0.5)]);
    }

    #[test]
    fn malformed_inputs_are_located() {
        // Bad header.
        let e = parse_tra("nope\n").unwrap_err();
        assert!(matches!(e, DtmcError::Import { line: 1, .. }), "{e}");
        // Bad row arity.
        let e = parse_tra("1 1\n0 0\n").unwrap_err();
        assert!(matches!(e, DtmcError::Import { line: 2, .. }), "{e}");
        // Out-of-range state.
        let e = parse_tra("1 1\n0 7 1\n").unwrap_err();
        assert!(e.to_string().contains("out of range"), "{e}");
        // Transition-count mismatch.
        let e = parse_tra("1 5\n0 0 1\n").unwrap_err();
        assert!(e.to_string().contains("declares 5"), "{e}");
        // Non-stochastic rows are caught by the matrix constructor.
        let e = parse_tra("1 1\n0 0 0.5\n").unwrap_err();
        assert!(matches!(e, DtmcError::NotStochastic { .. }), "{e}");
        // Undeclared label index.
        let e = parse_lab("0=\"init\"\n0: 3\n", 1).unwrap_err();
        assert!(e.to_string().contains("undeclared"), "{e}");
        // Reward state-count mismatch.
        let e = parse_srew("3 0\n", 2).unwrap_err();
        assert!(e.to_string().contains("chain has 2"), "{e}");
    }

    #[test]
    fn empty_files_are_rejected() {
        assert!(parse_tra("").is_err());
        assert!(parse_lab("", 1).is_err());
        assert!(parse_srew("", 1).is_err());
    }

    #[test]
    fn whitespace_and_blank_lines_are_tolerated() {
        let d = from_explicit("  2   2 \n\n 0   1   1 \n\n1 1 1\n\n", None, None).unwrap();
        assert_eq!(d.n_states(), 2);
    }
}
