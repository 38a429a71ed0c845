//! Runtime values and the expression evaluator.
//!
//! Values follow PRISM's three-type system: `int`, `double`, `bool`, with
//! implicit `int → double` promotion in mixed arithmetic and comparisons.
//! State variables are always `int` or `bool`; `double` appears only in
//! constants, probabilities and reward values.

use crate::ast::{BinOp, Expr, Func};
use crate::error::LangError;
use std::collections::HashMap;
use std::fmt;

pub mod interval;

/// A runtime value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// Integer.
    Int(i64),
    /// Double-precision float.
    Double(f64),
    /// Boolean.
    Bool(bool),
}

impl Value {
    /// Type name for error messages.
    pub fn type_name(self) -> &'static str {
        match self {
            Value::Int(_) => "int",
            Value::Double(_) => "double",
            Value::Bool(_) => "bool",
        }
    }

    /// Coerces to a boolean.
    ///
    /// # Errors
    ///
    /// [`LangError::TypeMismatch`] for numeric values.
    pub fn as_bool(self, context: &str) -> Result<bool, LangError> {
        match self {
            Value::Bool(b) => Ok(b),
            other => Err(LangError::TypeMismatch {
                expected: "bool",
                found: other.type_name(),
                context: context.to_string(),
            }),
        }
    }

    /// Coerces to an integer (exact; doubles are rejected so that state
    /// variables cannot silently truncate).
    ///
    /// # Errors
    ///
    /// [`LangError::TypeMismatch`] for `double` and `bool` values.
    pub fn as_int(self, context: &str) -> Result<i64, LangError> {
        match self {
            Value::Int(v) => Ok(v),
            other => Err(LangError::TypeMismatch {
                expected: "int",
                found: other.type_name(),
                context: context.to_string(),
            }),
        }
    }

    /// Coerces to a double (promoting `int`).
    ///
    /// # Errors
    ///
    /// [`LangError::TypeMismatch`] for `bool` values.
    pub fn as_double(self, context: &str) -> Result<f64, LangError> {
        match self {
            Value::Int(v) => Ok(v as f64),
            Value::Double(v) => Ok(v),
            Value::Bool(_) => Err(LangError::TypeMismatch {
                expected: "numeric",
                found: "bool",
                context: context.to_string(),
            }),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Double(v) => write!(f, "{v}"),
            Value::Bool(v) => write!(f, "{v}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Double(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

/// A name-resolution environment for [`eval`].
///
/// Lookup order: local bindings (state variables) first, then global
/// constants, then formulas (whose bodies are evaluated on demand in the
/// same environment — formulas may reference variables).
#[derive(Debug, Clone)]
pub struct Env<'a> {
    /// State-variable bindings.
    pub vars: HashMap<&'a str, Value>,
    /// Folded constants.
    pub consts: &'a HashMap<String, Value>,
    /// Formula bodies, expanded at reference sites.
    pub formulas: &'a HashMap<String, Expr>,
}

/// A borrowed empty map, for environments without constants or formulas.
pub fn no_consts() -> &'static HashMap<String, Value> {
    use std::sync::OnceLock;
    static EMPTY: OnceLock<HashMap<String, Value>> = OnceLock::new();
    EMPTY.get_or_init(HashMap::new)
}

/// A borrowed empty formula map.
pub fn no_formulas() -> &'static HashMap<String, Expr> {
    use std::sync::OnceLock;
    static EMPTY: OnceLock<HashMap<String, Expr>> = OnceLock::new();
    EMPTY.get_or_init(HashMap::new)
}

pub(crate) fn numeric_bin(
    op: BinOp,
    a: Value,
    b: Value,
    context: &str,
) -> Result<Value, LangError> {
    // Integer arithmetic stays integral except for division, which is real
    // (PRISM semantics: `/` always yields a double).
    if let (Value::Int(x), Value::Int(y)) = (a, b) {
        return Ok(match op {
            BinOp::Add => Value::Int(x.wrapping_add(y)),
            BinOp::Sub => Value::Int(x.wrapping_sub(y)),
            BinOp::Mul => Value::Int(x.wrapping_mul(y)),
            BinOp::Div => {
                if y == 0 {
                    return Err(LangError::DivisionByZero {
                        context: context.to_string(),
                    });
                }
                Value::Double(x as f64 / y as f64)
            }
            _ => unreachable!("numeric_bin called with non-arithmetic op"),
        });
    }
    let x = a.as_double(context)?;
    let y = b.as_double(context)?;
    Ok(match op {
        BinOp::Add => Value::Double(x + y),
        BinOp::Sub => Value::Double(x - y),
        BinOp::Mul => Value::Double(x * y),
        BinOp::Div => {
            if y == 0.0 {
                return Err(LangError::DivisionByZero {
                    context: context.to_string(),
                });
            }
            Value::Double(x / y)
        }
        _ => unreachable!("numeric_bin called with non-arithmetic op"),
    })
}

pub(crate) fn compare(op: BinOp, a: Value, b: Value, context: &str) -> Result<Value, LangError> {
    // Equality is defined on booleans too; ordering is numeric only.
    if let (Value::Bool(x), Value::Bool(y)) = (a, b) {
        return match op {
            BinOp::Eq => Ok(Value::Bool(x == y)),
            BinOp::Neq => Ok(Value::Bool(x != y)),
            _ => Err(LangError::TypeMismatch {
                expected: "numeric",
                found: "bool",
                context: context.to_string(),
            }),
        };
    }
    let x = a.as_double(context)?;
    let y = b.as_double(context)?;
    Ok(Value::Bool(match op {
        BinOp::Eq => x == y,
        BinOp::Neq => x != y,
        BinOp::Lt => x < y,
        BinOp::Le => x <= y,
        BinOp::Gt => x > y,
        BinOp::Ge => x >= y,
        _ => unreachable!("compare called with non-relational op"),
    }))
}

pub(crate) fn apply(func: Func, args: &[Value], context: &str) -> Result<Value, LangError> {
    match func {
        Func::Min | Func::Max => {
            let take_max = func == Func::Max;
            // Stay integral if every argument is an int.
            if args.iter().all(|v| matches!(v, Value::Int(_))) {
                let mut best = args[0].as_int(context)?;
                for v in &args[1..] {
                    let v = v.as_int(context)?;
                    best = if take_max { best.max(v) } else { best.min(v) };
                }
                Ok(Value::Int(best))
            } else {
                let mut best = args[0].as_double(context)?;
                for v in &args[1..] {
                    let v = v.as_double(context)?;
                    best = if take_max { best.max(v) } else { best.min(v) };
                }
                Ok(Value::Double(best))
            }
        }
        Func::Floor => Ok(Value::Int(args[0].as_double(context)?.floor() as i64)),
        Func::Ceil => Ok(Value::Int(args[0].as_double(context)?.ceil() as i64)),
        Func::Mod => {
            let a = args[0].as_int(context)?;
            let b = args[1].as_int(context)?;
            if b == 0 {
                return Err(LangError::DivisionByZero {
                    context: format!("mod in {context}"),
                });
            }
            Ok(Value::Int(a.rem_euclid(b)))
        }
        Func::Pow => match (args[0], args[1]) {
            (Value::Int(a), Value::Int(b)) if b >= 0 => {
                let exp = u32::try_from(b).map_err(|_| LangError::BadNumber {
                    text: format!("pow exponent {b}"),
                    pos: crate::error::Pos::start(),
                })?;
                Ok(Value::Int(a.wrapping_pow(exp)))
            }
            _ => {
                let a = args[0].as_double(context)?;
                let b = args[1].as_double(context)?;
                Ok(Value::Double(a.powf(b)))
            }
        },
    }
}

/// Unary minus (wrapping, like the integer arithmetic).
pub(crate) fn negate(v: Value) -> Result<Value, LangError> {
    match v {
        Value::Int(v) => Ok(Value::Int(v.wrapping_neg())),
        Value::Double(v) => Ok(Value::Double(-v)),
        Value::Bool(_) => Err(LangError::TypeMismatch {
            expected: "numeric",
            found: "bool",
            context: "unary minus".to_string(),
        }),
    }
}

/// The context string `|`, `&` and `=>` report their operands under.
pub(crate) fn logic_context(op: BinOp) -> &'static str {
    match op {
        BinOp::Or => "operand of |",
        BinOp::And => "operand of &",
        BinOp::Implies => "operand of =>",
        _ => unreachable!("logic_context called with non-logical op"),
    }
}

/// The value `|`, `&` or `=>` takes without evaluating its right operand
/// when the left one is `lhs`, or `None` when the right operand decides.
pub(crate) fn short_circuit(op: BinOp, lhs: bool) -> Option<bool> {
    match op {
        BinOp::Or => lhs.then_some(true),
        BinOp::And => (!lhs).then_some(false),
        BinOp::Implies => (!lhs).then_some(true),
        _ => unreachable!("short_circuit called with non-logical op"),
    }
}

/// Evaluates `expr` in `env`.
///
/// # Errors
///
/// [`LangError::UndefinedName`] for unresolved names,
/// [`LangError::TypeMismatch`] for ill-typed operations,
/// [`LangError::DivisionByZero`] for `/ 0` and `mod(_, 0)`.
pub fn eval(expr: &Expr, env: &Env<'_>) -> Result<Value, LangError> {
    match expr {
        Expr::Int(v) => Ok(Value::Int(*v)),
        Expr::Double(v) => Ok(Value::Double(*v)),
        Expr::Bool(v) => Ok(Value::Bool(*v)),
        Expr::Name(name, pos) => {
            if let Some(v) = env.vars.get(name.as_str()) {
                return Ok(*v);
            }
            if let Some(v) = env.consts.get(name) {
                return Ok(*v);
            }
            if let Some(body) = env.formulas.get(name) {
                return eval(body, env);
            }
            Err(LangError::UndefinedName {
                name: name.clone(),
                pos: *pos,
            })
        }
        Expr::Neg(e) => negate(eval(e, env)?),
        Expr::Not(e) => Ok(Value::Bool(!eval(e, env)?.as_bool("operand of !")?)),
        Expr::Bin(op, a, b) => match op {
            BinOp::Or | BinOp::And | BinOp::Implies => {
                // Short-circuit, as users expect from guards.
                let context = logic_context(*op);
                match short_circuit(*op, eval(a, env)?.as_bool(context)?) {
                    Some(v) => Ok(Value::Bool(v)),
                    None => Ok(Value::Bool(eval(b, env)?.as_bool(context)?)),
                }
            }
            BinOp::Eq | BinOp::Neq | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                let va = eval(a, env)?;
                let vb = eval(b, env)?;
                compare(*op, va, vb, "comparison")
            }
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => {
                let va = eval(a, env)?;
                let vb = eval(b, env)?;
                numeric_bin(*op, va, vb, "arithmetic")
            }
        },
        Expr::Ite(c, a, b) => {
            if eval(c, env)?.as_bool("condition of ?:")? {
                eval(a, env)
            } else {
                eval(b, env)
            }
        }
        Expr::Apply(func, args) => {
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(eval(a, env)?);
            }
            apply(*func, &vals, func.name())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Pos;

    fn ev(e: &Expr) -> Value {
        let env = Env {
            vars: HashMap::new(),
            consts: no_consts(),
            formulas: no_formulas(),
        };
        eval(e, &env).unwrap()
    }

    fn bin(op: BinOp, a: Expr, b: Expr) -> Expr {
        Expr::Bin(op, Box::new(a), Box::new(b))
    }

    #[test]
    fn integer_arithmetic_stays_integral() {
        assert_eq!(
            ev(&bin(BinOp::Add, Expr::Int(2), Expr::Int(3))),
            Value::Int(5)
        );
        assert_eq!(
            ev(&bin(BinOp::Mul, Expr::Int(2), Expr::Int(3))),
            Value::Int(6)
        );
    }

    #[test]
    fn division_is_always_real() {
        assert_eq!(
            ev(&bin(BinOp::Div, Expr::Int(1), Expr::Int(2))),
            Value::Double(0.5)
        );
    }

    #[test]
    fn division_by_zero_is_an_error() {
        let env = Env {
            vars: HashMap::new(),
            consts: no_consts(),
            formulas: no_formulas(),
        };
        assert!(matches!(
            eval(&bin(BinOp::Div, Expr::Int(1), Expr::Int(0)), &env),
            Err(LangError::DivisionByZero { .. })
        ));
    }

    #[test]
    fn mixed_arithmetic_promotes() {
        assert_eq!(
            ev(&bin(BinOp::Add, Expr::Int(1), Expr::Double(0.5))),
            Value::Double(1.5)
        );
    }

    #[test]
    fn comparisons_and_bool_equality() {
        assert_eq!(
            ev(&bin(BinOp::Le, Expr::Int(2), Expr::Double(2.0))),
            Value::Bool(true)
        );
        assert_eq!(
            ev(&bin(BinOp::Eq, Expr::Bool(true), Expr::Bool(false))),
            Value::Bool(false)
        );
    }

    #[test]
    fn ordering_booleans_is_a_type_error() {
        let env = Env {
            vars: HashMap::new(),
            consts: no_consts(),
            formulas: no_formulas(),
        };
        assert!(matches!(
            eval(&bin(BinOp::Lt, Expr::Bool(true), Expr::Bool(false)), &env),
            Err(LangError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn logical_ops_short_circuit() {
        // `false & (1/0 > 0)` must not evaluate the RHS.
        let rhs = bin(
            BinOp::Gt,
            bin(BinOp::Div, Expr::Int(1), Expr::Int(0)),
            Expr::Int(0),
        );
        assert_eq!(
            ev(&bin(BinOp::And, Expr::Bool(false), rhs.clone())),
            Value::Bool(false)
        );
        assert_eq!(
            ev(&bin(BinOp::Or, Expr::Bool(true), rhs.clone())),
            Value::Bool(true)
        );
        assert_eq!(
            ev(&bin(BinOp::Implies, Expr::Bool(false), rhs)),
            Value::Bool(true)
        );
    }

    #[test]
    fn ite_selects_branch() {
        let e = Expr::Ite(
            Box::new(Expr::Bool(false)),
            Box::new(Expr::Int(1)),
            Box::new(Expr::Int(2)),
        );
        assert_eq!(ev(&e), Value::Int(2));
    }

    #[test]
    fn functions_follow_prism_semantics() {
        assert_eq!(
            ev(&Expr::Apply(
                Func::Min,
                vec![Expr::Int(3), Expr::Int(1), Expr::Int(2)]
            )),
            Value::Int(1)
        );
        assert_eq!(
            ev(&Expr::Apply(
                Func::Max,
                vec![Expr::Int(3), Expr::Double(3.5)]
            )),
            Value::Double(3.5)
        );
        assert_eq!(
            ev(&Expr::Apply(Func::Floor, vec![Expr::Double(-1.5)])),
            Value::Int(-2)
        );
        assert_eq!(
            ev(&Expr::Apply(Func::Ceil, vec![Expr::Double(1.2)])),
            Value::Int(2)
        );
        // Euclidean mod: result is non-negative for positive modulus.
        assert_eq!(
            ev(&Expr::Apply(Func::Mod, vec![Expr::Int(-1), Expr::Int(4)])),
            Value::Int(3)
        );
        assert_eq!(
            ev(&Expr::Apply(Func::Pow, vec![Expr::Int(2), Expr::Int(10)])),
            Value::Int(1024)
        );
        assert_eq!(
            ev(&Expr::Apply(Func::Pow, vec![Expr::Int(2), Expr::Int(-1)])),
            Value::Double(0.5)
        );
    }

    #[test]
    fn names_resolve_vars_then_consts_then_formulas() {
        let mut consts = HashMap::new();
        consts.insert("k".to_string(), Value::Int(10));
        let mut formulas = HashMap::new();
        formulas.insert(
            "twice".to_string(),
            bin(BinOp::Mul, Expr::Int(2), Expr::name("x")),
        );
        let mut vars = HashMap::new();
        vars.insert("x", Value::Int(4));
        let env = Env {
            vars,
            consts: &consts,
            formulas: &formulas,
        };
        assert_eq!(eval(&Expr::name("x"), &env).unwrap(), Value::Int(4));
        assert_eq!(eval(&Expr::name("k"), &env).unwrap(), Value::Int(10));
        // Formula expands in the same environment, seeing `x`.
        assert_eq!(eval(&Expr::name("twice"), &env).unwrap(), Value::Int(8));
        assert!(matches!(
            eval(&Expr::Name("nope".into(), Pos::start()), &env),
            Err(LangError::UndefinedName { .. })
        ));
    }

    #[test]
    fn value_coercions_report_types() {
        assert_eq!(Value::Int(3).as_double("t").unwrap(), 3.0);
        assert!(Value::Double(0.5).as_int("t").is_err());
        assert!(Value::Bool(true).as_double("t").is_err());
        assert_eq!(Value::Bool(true).type_name(), "bool");
        assert_eq!(Value::from(2i64), Value::Int(2));
        assert_eq!(Value::from(0.5f64), Value::Double(0.5));
        assert_eq!(Value::from(true), Value::Bool(true));
    }
}
