//! Expressions lowered once per compile and evaluated over state slots.
//!
//! [`crate::value::eval`] resolves every name through hash maps and walks
//! formula bodies at every reference. State expansion evaluates the same
//! guards, probabilities and updates for every state, so [`Lowered::new`]
//! resolves a [`CheckedProgram`] once: variables become state-vector slot
//! indices, constants and constant subexpressions are folded (only where
//! folding succeeds, so every error is still raised where and when the
//! reference raises it), and each formula body is lowered once into a
//! shared table that references point into. [`Lowered::eval`] then runs
//! directly over a `&[i64]` state.
//!
//! The evaluator calls `value.rs`'s operator helpers, so the two agree on
//! every value and on every error, in the same evaluation order; the
//! differential test at the bottom pins that against `value::eval`.

use crate::ast::{BinOp, Expr, Func};
use crate::check::{formula_order, CheckedProgram};
use crate::error::LangError;
use crate::value::{apply, compare, logic_context, negate, numeric_bin, short_circuit, Value};
use std::collections::HashMap;

/// A lowered expression.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Op {
    /// A literal, a constant, or a folded constant subexpression.
    Const(Value),
    /// The state slot of an `int` variable.
    Int(usize),
    /// The state slot of a `bool` variable.
    Bool(usize),
    /// A formula body, by index into the formula table.
    Formula(usize),
    /// Unary minus.
    Neg(Box<Op>),
    /// Logical negation.
    Not(Box<Op>),
    /// `|`, `&` or `=>`, short-circuiting.
    Logic(BinOp, Box<Op>, Box<Op>),
    /// A comparison.
    Cmp(BinOp, Box<Op>, Box<Op>),
    /// Arithmetic.
    Arith(BinOp, Box<Op>, Box<Op>),
    /// `c ? a : b`.
    Ite(Box<Op>, Box<Op>, Box<Op>),
    /// A built-in function; arguments are evaluated left to right first.
    Apply(Func, Box<[Op]>),
    /// An error raised whenever evaluation reaches it: an unresolved name,
    /// or a formula reference on a cycle (neither survives [`crate::check()`]).
    Fail(Box<LangError>),
}

/// One assignment `(x'=value)`, its target resolved to a slot.
#[derive(Debug, Clone)]
pub(crate) struct Assign {
    pub slot: usize,
    pub value: Op,
}

/// One probabilistic branch of a command.
#[derive(Debug, Clone)]
pub(crate) struct Update {
    pub prob: Op,
    pub assigns: Vec<Assign>,
}

/// A guarded command.
#[derive(Debug, Clone)]
pub(crate) struct Command {
    pub guard: Op,
    pub updates: Vec<Update>,
}

/// One `guard : value;` reward item.
#[derive(Debug, Clone)]
pub(crate) struct RewardItem {
    pub guard: Op,
    pub value: Op,
}

/// A checked program with every expression lowered, in the source's order:
/// the commands of each module, the label bodies and the reward blocks.
#[derive(Debug, Clone)]
pub(crate) struct Lowered {
    /// Lowered formula bodies, by declaration index.
    formulas: Vec<Op>,
    /// Commands, per module.
    pub modules: Vec<Vec<Command>>,
    /// Label bodies.
    pub labels: Vec<Op>,
    /// Reward blocks' items.
    pub rewards: Vec<Vec<RewardItem>>,
    /// The default reward structure: the unnamed block if present, else
    /// the first block, else none.
    pub default_rewards: Option<usize>,
}

/// Name resolution and folding for one program.
struct Lowerer<'a> {
    checked: &'a CheckedProgram,
    formula_index: HashMap<&'a str, usize>,
    /// Lowered formula bodies; `None` until lowered.
    formulas: Vec<Option<Op>>,
}

impl Lowered {
    /// Lowers every expression of `checked` once.
    pub(crate) fn new(checked: &CheckedProgram) -> Lowered {
        let decls = &checked.program.formulas;
        let mut lowerer = Lowerer {
            checked,
            formula_index: decls
                .iter()
                .enumerate()
                .map(|(i, f)| (f.name.as_str(), i))
                .collect(),
            formulas: vec![None; decls.len()],
        };
        // Dependencies first, so every reference finds its formula lowered.
        // A checked program has no cycle; should one be handed in anyway,
        // declaration order turns each reference not yet lowered into an
        // error instead of unbounded recursion.
        let order = formula_order(decls).unwrap_or_else(|_| (0..decls.len()).collect());
        for i in order {
            let body = lowerer.lower(&decls[i].body);
            lowerer.formulas[i] = Some(body);
        }
        let program = &checked.program;
        let modules = program
            .modules
            .iter()
            .map(|m| {
                m.commands
                    .iter()
                    .map(|c| Command {
                        guard: lowerer.lower(&c.guard),
                        updates: c
                            .updates
                            .iter()
                            .map(|u| Update {
                                prob: lowerer.lower(&u.prob),
                                assigns: u
                                    .assigns
                                    .iter()
                                    .map(|a| Assign {
                                        slot: checked.var_index[&a.var],
                                        value: lowerer.lower(&a.value),
                                    })
                                    .collect(),
                            })
                            .collect(),
                    })
                    .collect()
            })
            .collect();
        let labels = program
            .labels
            .iter()
            .map(|l| lowerer.lower(&l.body))
            .collect();
        let rewards = program
            .rewards
            .iter()
            .map(|block| {
                block
                    .items
                    .iter()
                    .map(|item| RewardItem {
                        guard: lowerer.lower(&item.guard),
                        value: lowerer.lower(&item.value),
                    })
                    .collect()
            })
            .collect();
        let default_rewards = program
            .rewards
            .iter()
            .position(|r| r.name.is_none())
            .or_else(|| (!program.rewards.is_empty()).then_some(0));
        Lowered {
            formulas: lowerer
                .formulas
                .into_iter()
                .map(|f| f.expect("every formula is lowered"))
                .collect(),
            modules,
            labels,
            rewards,
            default_rewards,
        }
    }

    /// Evaluates `op` in `state`, exactly as [`crate::value::eval`]
    /// evaluates the expression it was lowered from.
    ///
    /// # Errors
    ///
    /// The reference evaluator's errors, in its evaluation order.
    pub(crate) fn eval(&self, op: &Op, state: &[i64]) -> Result<Value, LangError> {
        eval(op, state, &self.formulas).map_err(|e| *e)
    }
}

impl Lowerer<'_> {
    fn lower(&self, e: &Expr) -> Op {
        let bin = |a: &Expr, b: &Expr| (Box::new(self.lower(a)), Box::new(self.lower(b)));
        let op = match e {
            Expr::Int(v) => return Op::Const(Value::Int(*v)),
            Expr::Double(v) => return Op::Const(Value::Double(*v)),
            Expr::Bool(v) => return Op::Const(Value::Bool(*v)),
            Expr::Name(name, pos) => return self.name(name, *pos),
            Expr::Neg(a) => Op::Neg(Box::new(self.lower(a))),
            Expr::Not(a) => Op::Not(Box::new(self.lower(a))),
            Expr::Bin(op, a, b) => {
                let (a, b) = bin(a, b);
                match op {
                    BinOp::Or | BinOp::And | BinOp::Implies => Op::Logic(*op, a, b),
                    BinOp::Eq | BinOp::Neq | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                        Op::Cmp(*op, a, b)
                    }
                    BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => Op::Arith(*op, a, b),
                }
            }
            Expr::Ite(c, a, b) => {
                let c = self.lower(c);
                if let Op::Const(Value::Bool(c)) = c {
                    // The reference evaluates only the chosen branch.
                    return self.lower(if c { a } else { b });
                }
                let (a, b) = bin(a, b);
                Op::Ite(Box::new(c), a, b)
            }
            Expr::Apply(func, args) => {
                Op::Apply(*func, args.iter().map(|a| self.lower(a)).collect())
            }
        };
        fold(op)
    }

    /// Variables first, then constants, then formulas — the reference's
    /// lookup order.
    fn name(&self, name: &str, pos: crate::error::Pos) -> Op {
        if let Some(&slot) = self.checked.var_index.get(name) {
            return if self.checked.vars[slot].is_bool {
                Op::Bool(slot)
            } else {
                Op::Int(slot)
            };
        }
        if let Some(v) = self.checked.consts.get(name) {
            return Op::Const(*v);
        }
        let Some(&f) = self.formula_index.get(name) else {
            return Op::Fail(Box::new(LangError::UndefinedName {
                name: name.to_string(),
                pos,
            }));
        };
        match &self.formulas[f] {
            // Leaves are copied in; anything larger stays shared.
            Some(op @ (Op::Const(_) | Op::Int(_) | Op::Bool(_))) => op.clone(),
            Some(_) => Op::Formula(f),
            None => {
                let decl = &self.checked.program.formulas[f];
                Op::Fail(Box::new(LangError::CyclicFormula {
                    name: decl.name.clone(),
                    pos: decl.pos,
                }))
            }
        }
    }
}

/// Folds `op` to a constant when its value does not depend on the state
/// and computing it succeeds; an operation that would fail (say `1/0`)
/// stays in place and fails at evaluation time, as in the reference.
fn fold(op: Op) -> Op {
    let constant = |o: &Op| matches!(o, Op::Const(_));
    let state_free = match &op {
        Op::Neg(a) | Op::Not(a) => constant(a),
        Op::Cmp(_, a, b) | Op::Arith(_, a, b) => constant(a) && constant(b),
        Op::Logic(kind, a, b) => match **a {
            Op::Const(Value::Bool(lhs)) => short_circuit(*kind, lhs).is_some() || constant(b),
            _ => false,
        },
        Op::Apply(_, args) => args.iter().all(constant),
        _ => false,
    };
    if state_free {
        if let Ok(v) = eval(&op, &[], &[]) {
            return Op::Const(v);
        }
    }
    op
}

/// [`Value::as_bool`] with a context built only on the error path.
pub(crate) fn want_bool(v: Value, context: impl FnOnce() -> String) -> Result<bool, LangError> {
    match v {
        Value::Bool(b) => Ok(b),
        other => other.as_bool(&context()),
    }
}

/// [`Value::as_int`] with a lazily built context.
pub(crate) fn want_int(v: Value, context: impl FnOnce() -> String) -> Result<i64, LangError> {
    match v {
        Value::Int(i) => Ok(i),
        other => other.as_int(&context()),
    }
}

/// [`Value::as_double`] with a lazily built context.
pub(crate) fn want_double(v: Value, context: impl FnOnce() -> String) -> Result<f64, LangError> {
    match v {
        Value::Int(i) => Ok(i as f64),
        Value::Double(d) => Ok(d),
        other => other.as_double(&context()),
    }
}

/// The evaluator proper. Errors are boxed on the way up so that the
/// success path returns a `Value` in registers; they are rare, and every
/// one is unboxed again by [`Lowered::eval`].
fn eval(op: &Op, state: &[i64], formulas: &[Op]) -> Result<Value, Box<LangError>> {
    let ev = |o: &Op| eval(o, state, formulas);
    Ok(match op {
        Op::Const(v) => *v,
        Op::Int(slot) => Value::Int(state[*slot]),
        Op::Bool(slot) => Value::Bool(state[*slot] != 0),
        Op::Formula(f) => return ev(&formulas[*f]),
        Op::Neg(a) => negate(ev(a)?)?,
        Op::Not(a) => Value::Bool(!ev(a)?.as_bool("operand of !")?),
        Op::Logic(kind, a, b) => {
            let context = logic_context(*kind);
            match short_circuit(*kind, ev(a)?.as_bool(context)?) {
                Some(v) => Value::Bool(v),
                None => Value::Bool(ev(b)?.as_bool(context)?),
            }
        }
        Op::Cmp(kind, a, b) => {
            let va = ev(a)?;
            compare(*kind, va, ev(b)?, "comparison")?
        }
        Op::Arith(kind, a, b) => {
            let va = ev(a)?;
            numeric_bin(*kind, va, ev(b)?, "arithmetic")?
        }
        Op::Ite(c, a, b) => {
            return ev(if ev(c)?.as_bool("condition of ?:")? {
                a
            } else {
                b
            })
        }
        Op::Apply(func, args) => {
            // Every argument first, left to right, then the function — on
            // the stack for the fixed-arity functions and short `min`/`max`.
            let mut buf = [Value::Int(0); 8];
            if args.len() <= buf.len() {
                for (slot, a) in buf.iter_mut().zip(args.iter()) {
                    *slot = ev(a)?;
                }
                apply(*func, &buf[..args.len()], func.name())?
            } else {
                let vals = args.iter().map(ev).collect::<Result<Vec<_>, _>>()?;
                apply(*func, &vals, func.name())?
            }
        }
        Op::Fail(e) => return Err(e.clone()),
    })
}

#[cfg(test)]
mod tests {
    //! Differential test: the lowered evaluator against `value::eval` on
    //! seeded random expressions over int and bool variables, constants
    //! and nested formulas.

    use super::*;
    use crate::check::check;
    use crate::error::Pos;
    use crate::parser::parse;
    use crate::value::{self, Env};

    /// xorshift64*, seeded.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn int(&mut self, lo: i64, hi: i64) -> i64 {
            lo + self.below((hi - lo + 1) as usize) as i64
        }
    }

    #[derive(Clone, Copy, PartialEq)]
    enum Ty {
        Int,
        Num,
        Bool,
    }

    const SKELETON: &str = "
        const int K = 3;
        const double H = 0.5;
        const bool T = true;
        const int Z = 0;
        formula f0 = true;
        formula f1 = true;
        formula f2 = true;
        formula f3 = true;
        module m
          x : [-4..12];
          y : [-4..12];
          b : bool;
          c : bool;
          [] true -> true;
        endmodule
        label \"e\" = true;";

    fn bin(op: BinOp, a: Expr, b: Expr) -> Expr {
        Expr::Bin(op, Box::new(a), Box::new(b))
    }

    /// A random expression of roughly type `ty` (or of any type, which
    /// mostly yields ill-typed operands), referencing formulas below
    /// `formulas`.
    fn gen(rng: &mut Rng, depth: u32, ty: Option<Ty>, formulas: usize) -> Expr {
        let ty = ty
            .filter(|_| rng.below(8) != 0)
            .unwrap_or(match rng.below(3) {
                0 => Ty::Int,
                1 => Ty::Num,
                _ => Ty::Bool,
            });
        if depth == 0 || rng.below(4) == 0 {
            return leaf(rng, ty, formulas);
        }
        let d = depth - 1;
        let sub = |rng: &mut Rng, t: Ty| gen(rng, d, Some(t), formulas);
        match ty {
            Ty::Bool => match rng.below(5) {
                0 => Expr::Not(Box::new(sub(rng, Ty::Bool))),
                1 => {
                    let op = [BinOp::Or, BinOp::And, BinOp::Implies][rng.below(3)];
                    bin(op, sub(rng, Ty::Bool), sub(rng, Ty::Bool))
                }
                2 => {
                    let op = [BinOp::Eq, BinOp::Neq][rng.below(2)];
                    bin(op, sub(rng, Ty::Bool), sub(rng, Ty::Bool))
                }
                3 => {
                    let op = [
                        BinOp::Eq,
                        BinOp::Neq,
                        BinOp::Lt,
                        BinOp::Le,
                        BinOp::Gt,
                        BinOp::Ge,
                    ][rng.below(6)];
                    bin(op, sub(rng, Ty::Num), sub(rng, Ty::Int))
                }
                _ => ite(rng, d, Ty::Bool, formulas),
            },
            Ty::Int | Ty::Num => match rng.below(6) {
                0 => Expr::Neg(Box::new(sub(rng, ty))),
                1 => {
                    let ops = [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div];
                    let op = ops[rng.below(if ty == Ty::Int { 3 } else { 4 })];
                    bin(op, sub(rng, ty), sub(rng, Ty::Int))
                }
                2 => ite(rng, d, ty, formulas),
                3 => {
                    let func = [Func::Min, Func::Max][rng.below(2)];
                    let n = 2 + rng.below(9);
                    Expr::Apply(func, (0..n).map(|_| sub(rng, ty)).collect())
                }
                4 => {
                    let func = [Func::Floor, Func::Ceil][rng.below(2)];
                    Expr::Apply(func, vec![sub(rng, Ty::Num)])
                }
                _ => {
                    let func = [Func::Mod, Func::Pow][rng.below(2)];
                    Expr::Apply(func, vec![sub(rng, ty), sub(rng, Ty::Int)])
                }
            },
        }
    }

    fn ite(rng: &mut Rng, d: u32, ty: Ty, formulas: usize) -> Expr {
        Expr::Ite(
            Box::new(gen(rng, d, Some(Ty::Bool), formulas)),
            Box::new(gen(rng, d, Some(ty), formulas)),
            Box::new(gen(rng, d, Some(ty), formulas)),
        )
    }

    fn leaf(rng: &mut Rng, ty: Ty, formulas: usize) -> Expr {
        if formulas > 0 && rng.below(5) == 0 {
            return Expr::name(&format!("f{}", rng.below(formulas)));
        }
        if rng.below(60) == 0 {
            return Expr::Name("nowhere".into(), Pos { line: 7, col: 3 });
        }
        match (ty, rng.below(3)) {
            (Ty::Bool, 0) => Expr::Bool(rng.below(2) == 0),
            (Ty::Bool, 1) => Expr::name(["b", "c"][rng.below(2)]),
            (Ty::Bool, _) => Expr::name("T"),
            (Ty::Num, 0) => Expr::Double([0.0, 0.5, -1.25, 2.0, -0.0][rng.below(5)]),
            (_, 0) => Expr::Int(rng.int(-3, 4)),
            (_, 1) => Expr::name(["x", "y"][rng.below(2)]),
            (_, _) => Expr::name(["K", "H", "Z"][rng.below(3)]),
        }
    }

    #[test]
    fn lowered_evaluation_matches_the_reference_evaluator() {
        let mut rng = Rng(0x5eed_1e55_ba5e_d0c5);
        let mut seen_ok = 0;
        let mut seen_err = 0;
        for case in 0..400 {
            let mut checked = check(parse(SKELETON).unwrap()).unwrap();
            // Formula i may reference formulas 0..i, so the table is
            // acyclic and nests up to four deep.
            for i in 0..4 {
                let body = gen(&mut rng, 3, None, i);
                checked.program.formulas[i].body = body.clone();
                checked.formulas.insert(format!("f{i}"), body);
            }
            let exprs: Vec<Expr> = (0..8).map(|_| gen(&mut rng, 5, None, 4)).collect();
            for e in &exprs {
                checked.program.labels[0].body = e.clone();
                let lowered = Lowered::new(&checked);
                let op = &lowered.labels[0];
                for _ in 0..6 {
                    let state = [
                        rng.int(-4, 12),
                        rng.int(-4, 12),
                        rng.int(0, 1),
                        rng.int(0, 1),
                    ];
                    let env = Env {
                        vars: [
                            ("x", Value::Int(state[0])),
                            ("y", Value::Int(state[1])),
                            ("b", Value::Bool(state[2] != 0)),
                            ("c", Value::Bool(state[3] != 0)),
                        ]
                        .into_iter()
                        .collect(),
                        consts: &checked.consts,
                        formulas: &checked.formulas,
                    };
                    let expected = value::eval(e, &env);
                    let got = lowered.eval(op, &state);
                    assert_eq!(
                        format!("{got:?}"),
                        format!("{expected:?}"),
                        "case {case}: {e} at {state:?}"
                    );
                    if expected.is_ok() {
                        seen_ok += 1;
                    } else {
                        seen_err += 1;
                    }
                }
            }
        }
        // Both outcomes are well represented.
        assert!(
            seen_ok > 4_000 && seen_err > 4_000,
            "{seen_ok} ok, {seen_err} errors"
        );
    }

    #[test]
    fn constants_fold_and_failing_operations_stay_in_place() {
        let cp = check(
            parse(
                "const int N = 4;
                 formula two = 2;
                 formula top = x = N - 1;
                 module m x : [0..3]; [] true -> true; endmodule
                 label \"a\" = x < N * two;
                 label \"b\" = false & 1/0 > 0;
                 label \"c\" = true | x / 0 > 1;
                 label \"d\" = x > 0 & 1/0 > 0;
                 label \"e\" = top;",
            )
            .unwrap(),
        )
        .unwrap();
        let lowered = Lowered::new(&cp);
        let l = &lowered.labels;
        let int = |v| Box::new(Op::Const(Value::Int(v)));
        assert_eq!(l[0], Op::Cmp(BinOp::Lt, Box::new(Op::Int(0)), int(8)));
        assert_eq!(l[1], Op::Const(Value::Bool(false)));
        assert_eq!(l[2], Op::Const(Value::Bool(true)));
        // `1/0` cannot fold; it fails only where the reference fails.
        assert!(matches!(&l[3], Op::Logic(BinOp::And, _, rhs) if matches!(**rhs, Op::Cmp(..))));
        assert!(lowered.eval(&l[3], &[0]).is_ok());
        assert!(matches!(
            lowered.eval(&l[3], &[1]),
            Err(LangError::DivisionByZero { .. })
        ));
        assert_eq!(l[4], Op::Formula(1));
    }
}
