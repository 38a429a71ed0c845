//! Property-based tests for the guarded-command language:
//!
//! * pretty-printing any well-typed expression and reparsing it preserves
//!   its value (parser ↔ printer adjunction);
//! * randomly generated programs compile to row-stochastic chains whose
//!   size respects the declared variable ranges;
//! * the program → chain → program-text → chain loop preserves transient
//!   rewards (the paper's P2 read-out) for arbitrary generated models.

mod programs;

use proptest::prelude::*;
use smg_lang::ast::{BinOp, Expr, Func};
use smg_lang::{check, compile, parse, parse_expr, Value};
use std::collections::HashMap;

fn eval_closed(e: &Expr) -> Result<Value, smg_lang::LangError> {
    let consts: HashMap<String, Value> = HashMap::new();
    let formulas: HashMap<String, Expr> = HashMap::new();
    let env = smg_lang::Env {
        vars: HashMap::new(),
        consts: &consts,
        formulas: &formulas,
    };
    smg_lang::eval(e, &env)
}

/// Closed integer-valued expressions (no division: its result is a double
/// and `mod`/`pow` arguments are kept safe by construction).
fn int_expr(depth: u32) -> BoxedStrategy<Expr> {
    let leaf = (-50i64..50).prop_map(Expr::Int).boxed();
    if depth == 0 {
        return leaf;
    }
    let sub = int_expr(depth - 1);
    prop_oneof![
        leaf,
        (sub.clone(), sub.clone()).prop_map(|(a, b)| Expr::Bin(
            BinOp::Add,
            Box::new(a),
            Box::new(b)
        )),
        (sub.clone(), sub.clone()).prop_map(|(a, b)| Expr::Bin(
            BinOp::Sub,
            Box::new(a),
            Box::new(b)
        )),
        (sub.clone(), sub.clone()).prop_map(|(a, b)| Expr::Bin(
            BinOp::Mul,
            Box::new(a),
            Box::new(b)
        )),
        (sub.clone(), sub.clone()).prop_map(|(a, b)| Expr::Apply(Func::Min, vec![a, b])),
        (sub.clone(), sub.clone()).prop_map(|(a, b)| Expr::Apply(Func::Max, vec![a, b])),
        (sub.clone(), 1i64..20).prop_map(|(a, m)| Expr::Apply(Func::Mod, vec![a, Expr::Int(m)])),
        sub.clone().prop_map(|a| Expr::Neg(Box::new(a))),
        (bool_expr(depth - 1), sub.clone(), sub).prop_map(|(c, a, b)| Expr::Ite(
            Box::new(c),
            Box::new(a),
            Box::new(b)
        )),
    ]
    .boxed()
}

/// Closed boolean-valued expressions.
fn bool_expr(depth: u32) -> BoxedStrategy<Expr> {
    let leaf = any::<bool>().prop_map(Expr::Bool).boxed();
    if depth == 0 {
        return leaf;
    }
    let sub = bool_expr(depth - 1);
    let num = int_expr(depth - 1);
    prop_oneof![
        leaf,
        (sub.clone(), sub.clone()).prop_map(|(a, b)| Expr::Bin(
            BinOp::And,
            Box::new(a),
            Box::new(b)
        )),
        (sub.clone(), sub.clone()).prop_map(|(a, b)| Expr::Bin(
            BinOp::Or,
            Box::new(a),
            Box::new(b)
        )),
        (sub.clone(), sub.clone()).prop_map(|(a, b)| Expr::Bin(
            BinOp::Implies,
            Box::new(a),
            Box::new(b)
        )),
        sub.prop_map(|a| Expr::Not(Box::new(a))),
        (num.clone(), num).prop_map(|(a, b)| Expr::Bin(BinOp::Le, Box::new(a), Box::new(b))),
    ]
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn int_expr_print_parse_eval_round_trip(e in int_expr(4)) {
        let printed = e.to_string();
        let reparsed = parse_expr(&printed).unwrap_or_else(|err| {
            panic!("printed expression failed to reparse: {printed}: {err}")
        });
        let v1 = eval_closed(&e).expect("generated expressions are total");
        let v2 = eval_closed(&reparsed).expect("reparse preserves totality");
        prop_assert_eq!(v1, v2, "{}", printed);
    }

    #[test]
    fn bool_expr_print_parse_eval_round_trip(e in bool_expr(4)) {
        let printed = e.to_string();
        let reparsed = parse_expr(&printed).unwrap();
        prop_assert_eq!(
            eval_closed(&e).unwrap(),
            eval_closed(&reparsed).unwrap(),
            "{}",
            printed
        );
    }

    /// Random single-module programs over one bounded counter with dyadic
    /// branch probabilities: compilation must produce a row-stochastic
    /// chain within the declared range bound, and the program_text round
    /// trip must preserve the paper's P2 read-out exactly.
    #[test]
    fn generated_programs_compile_and_round_trip((hi, src) in programs::counter_programs()) {
        let compiled = compile(check(parse(&src).unwrap()).unwrap()).unwrap();
        let n = compiled.dtmc.n_states();
        prop_assert!(n as i64 <= hi + 1, "n={n} exceeds range bound {}", hi + 1);
        // Row-stochastic (the Dtmc constructor enforces it; assert anyway
        // so a tolerance regression cannot hide behind construction).
        for s in 0..n {
            let sum: f64 = compiled.dtmc.matrix().successors(s).iter().map(|&(_, p)| p).sum();
            prop_assert!((sum - 1.0).abs() < 1e-9, "row {s} sums to {sum}");
        }

        // Round trip through exported text preserves P2 at several horizons.
        let text = smg_lang::program_text(&compiled.dtmc);
        let again = compile(check(parse(&text).unwrap()).unwrap()).unwrap();
        prop_assert_eq!(again.dtmc.n_states(), n);
        for t in [0usize, 1, 3, 10] {
            let a = smg_dtmc::transient::instantaneous_reward(&compiled.dtmc, t);
            let b = smg_dtmc::transient::instantaneous_reward(&again.dtmc, t);
            prop_assert!((a - b).abs() < 1e-12, "t={t}: {a} vs {b}");
        }
    }

    /// Lexer totality: arbitrary input never panics — it lexes or reports
    /// a positioned error.
    #[test]
    fn lexer_never_panics(s in "\\PC*") {
        let _ = smg_lang::token::lex(&s);
    }

    /// Parser totality on arbitrary token-ish strings.
    #[test]
    fn parser_never_panics(s in "[a-z0-9\\[\\]()<>=!&|+*/:;.'\" -]{0,80}") {
        let _ = parse(&s);
    }
}
