//! Semantic analysis: constant folding, name resolution and structural
//! checks, producing a [`CheckedProgram`] ready for state-space expansion.
//!
//! Checks performed here (before any state is enumerated):
//!
//! * constants fold in declaration order, rejecting duplicates, forward
//!   references and unbound names;
//! * variable ranges are constant, non-empty, and initial values lie inside
//!   them; variable, constant, formula and module names do not collide;
//! * every name referenced anywhere resolves to a variable, constant or
//!   formula (typos surface at compile time, not at some unlucky state);
//! * no formula is defined in terms of itself, directly or through other
//!   formulas;
//! * commands only assign to variables owned by their module;
//! * label names are unique.
//!
//! Type errors inside expressions (e.g. a guard evaluating to an integer)
//! are caught dynamically during expansion, where the offending state can
//! be reported.

use crate::ast::{DeclType, Expr, FormulaDecl, Program};
use crate::error::{LangError, Pos};
use crate::value::{eval, Env, Value};
use std::collections::{HashMap, HashSet};

/// A resolved state variable.
#[derive(Debug, Clone, PartialEq)]
pub struct VarInfo {
    /// Variable name.
    pub name: String,
    /// Inclusive lower bound (0 for `bool`).
    pub lo: i64,
    /// Inclusive upper bound (1 for `bool`).
    pub hi: i64,
    /// Initial value.
    pub init: i64,
    /// Whether declared `bool` (affects how values re-enter expressions).
    pub is_bool: bool,
    /// Index of the owning module in [`CheckedProgram::module_names`].
    pub module: usize,
}

/// A program that has passed semantic analysis.
#[derive(Debug, Clone)]
pub struct CheckedProgram {
    /// The source program (commands are interpreted from here during
    /// expansion).
    pub program: Program,
    /// Folded constants.
    pub consts: HashMap<String, Value>,
    /// Formula bodies by name.
    pub formulas: HashMap<String, Expr>,
    /// State variables in declaration order (module order, then source
    /// order within a module) — the state vector layout.
    pub vars: Vec<VarInfo>,
    /// Variable name → index in [`CheckedProgram::vars`].
    pub var_index: HashMap<String, usize>,
    /// Module names, in source order.
    pub module_names: Vec<String>,
}

impl CheckedProgram {
    /// Upper bound on the reachable state count: the product of all
    /// variable range sizes (saturating).
    pub fn state_space_bound(&self) -> u128 {
        self.vars
            .iter()
            .map(|v| (v.hi - v.lo + 1) as u128)
            .fold(1u128, |acc, n| acc.saturating_mul(n))
    }
}

/// Runs semantic analysis on a parsed program.
///
/// # Errors
///
/// See the module docs; every structural defect maps to a specific
/// [`LangError`] variant naming the offender.
pub fn check(program: Program) -> Result<CheckedProgram, LangError> {
    if program.modules.is_empty() {
        return Err(LangError::NoModules);
    }

    // Fold constants in order; each may reference those before it.
    let mut consts: HashMap<String, Value> = HashMap::new();
    let empty_formulas: HashMap<String, Expr> = HashMap::new();
    for c in &program.consts {
        if consts.contains_key(&c.name) {
            return Err(LangError::DuplicateName {
                name: c.name.clone(),
                pos: c.pos,
            });
        }
        let env = Env {
            vars: HashMap::new(),
            consts: &consts,
            formulas: &empty_formulas,
        };
        let v = eval(&c.value, &env)?;
        // Respect the annotated type where present (PRISM coerces
        // int-valued doubles; we require exact typing, but promote
        // int literals annotated as double).
        let v = match (c.ty.as_deref(), v) {
            (Some("double"), Value::Int(i)) => Value::Double(i as f64),
            (Some("int"), Value::Double(_)) | (Some("int"), Value::Bool(_)) => {
                return Err(LangError::TypeMismatch {
                    expected: "int",
                    found: v.type_name(),
                    context: format!("constant {}", c.name),
                })
            }
            (Some("bool"), v @ (Value::Int(_) | Value::Double(_))) => {
                return Err(LangError::TypeMismatch {
                    expected: "bool",
                    found: v.type_name(),
                    context: format!("constant {}", c.name),
                })
            }
            (_, v) => v,
        };
        consts.insert(c.name.clone(), v);
    }

    // Formula table (bodies checked for name resolution below).
    let mut formulas: HashMap<String, Expr> = HashMap::new();
    for f in &program.formulas {
        if formulas.contains_key(&f.name) || consts.contains_key(&f.name) {
            return Err(LangError::DuplicateName {
                name: f.name.clone(),
                pos: f.pos,
            });
        }
        formulas.insert(f.name.clone(), f.body.clone());
    }

    // Variables.
    let mut vars: Vec<VarInfo> = Vec::new();
    let mut var_index: HashMap<String, usize> = HashMap::new();
    let mut module_names: Vec<String> = Vec::new();
    let mut seen_modules: HashSet<&str> = HashSet::new();
    for (mi, m) in program.modules.iter().enumerate() {
        if !seen_modules.insert(&m.name) {
            return Err(LangError::DuplicateName {
                name: m.name.clone(),
                pos: m.pos,
            });
        }
        module_names.push(m.name.clone());
        for v in &m.vars {
            if var_index.contains_key(&v.name)
                || consts.contains_key(&v.name)
                || formulas.contains_key(&v.name)
            {
                return Err(LangError::DuplicateName {
                    name: v.name.clone(),
                    pos: v.pos,
                });
            }
            let const_env = Env {
                vars: HashMap::new(),
                consts: &consts,
                formulas: &empty_formulas,
            };
            let (lo, hi, is_bool) = match &v.ty {
                DeclType::Bool => (0, 1, true),
                DeclType::Range(lo_e, hi_e) => {
                    let lo =
                        eval(lo_e, &const_env)?.as_int(&format!("lower bound of {}", v.name))?;
                    let hi =
                        eval(hi_e, &const_env)?.as_int(&format!("upper bound of {}", v.name))?;
                    (lo, hi, false)
                }
            };
            if lo > hi {
                return Err(LangError::EmptyRange {
                    var: v.name.clone(),
                    lo,
                    hi,
                });
            }
            let init = match &v.init {
                None => {
                    if is_bool {
                        0
                    } else {
                        lo
                    }
                }
                Some(e) => {
                    let val = eval(e, &const_env)?;
                    if is_bool {
                        i64::from(val.as_bool(&format!("init of {}", v.name))?)
                    } else {
                        val.as_int(&format!("init of {}", v.name))?
                    }
                }
            };
            if init < lo || init > hi {
                return Err(LangError::OutOfRange {
                    var: v.name.clone(),
                    value: init,
                    lo,
                    hi,
                });
            }
            var_index.insert(v.name.clone(), vars.len());
            vars.push(VarInfo {
                name: v.name.clone(),
                lo,
                hi,
                init,
                is_bool,
                module: mi,
            });
        }
    }

    // Name resolution over every expression in the program.
    let resolve = |e: &Expr| -> Result<(), LangError> {
        let mut bad: Option<(String, Pos)> = None;
        walk_names(e, &mut |name, pos| {
            if bad.is_none()
                && !var_index.contains_key(name)
                && !consts.contains_key(name)
                && !formulas.contains_key(name)
                && name != "true"
                && name != "false"
            {
                bad = Some((name.to_string(), pos));
            }
        });
        match bad {
            Some((name, pos)) => Err(LangError::UndefinedName { name, pos }),
            None => Ok(()),
        }
    };
    for f in &program.formulas {
        resolve(&f.body)?;
    }
    formula_order(&program.formulas)?;
    for (mi, m) in program.modules.iter().enumerate() {
        for cmd in &m.commands {
            resolve(&cmd.guard)?;
            for u in &cmd.updates {
                resolve(&u.prob)?;
                for a in &u.assigns {
                    resolve(&a.value)?;
                    match var_index.get(&a.var) {
                        None => {
                            return Err(LangError::UndefinedName {
                                name: a.var.clone(),
                                pos: a.pos,
                            })
                        }
                        Some(&vi) if vars[vi].module != mi => {
                            return Err(LangError::ForeignAssignment {
                                var: a.var.clone(),
                                module: m.name.clone(),
                            })
                        }
                        Some(_) => {}
                    }
                }
            }
        }
    }
    let mut seen_labels: HashSet<&str> = HashSet::new();
    for l in &program.labels {
        if !seen_labels.insert(&l.name) {
            return Err(LangError::DuplicateName {
                name: l.name.clone(),
                pos: l.pos,
            });
        }
        resolve(&l.body)?;
    }
    for r in &program.rewards {
        for item in &r.items {
            resolve(&item.guard)?;
            resolve(&item.value)?;
        }
    }

    Ok(CheckedProgram {
        program,
        consts,
        formulas,
        vars,
        var_index,
        module_names,
    })
}

/// The indices of `formulas` in dependency order: each formula comes after
/// every formula its body references, so they can be resolved one at a
/// time.
///
/// # Errors
///
/// [`LangError::CyclicFormula`] if formulas reference each other in a
/// cycle; it names the first formula the depth-first search (run in
/// declaration order) meets twice, which lies on the cycle.
pub(crate) fn formula_order(formulas: &[FormulaDecl]) -> Result<Vec<usize>, LangError> {
    let index: HashMap<&str, usize> = formulas
        .iter()
        .enumerate()
        .map(|(i, f)| (f.name.as_str(), i))
        .collect();
    let deps: Vec<Vec<usize>> = formulas
        .iter()
        .map(|f| {
            let mut deps = Vec::new();
            walk_names(&f.body, &mut |name, _| deps.extend(index.get(name)));
            deps
        })
        .collect();
    // Iterative depth-first search, so a long chain of formulas cannot
    // exhaust the stack: 0 = unvisited, 1 = on the path, 2 = ordered.
    let mut mark = vec![0u8; formulas.len()];
    let mut order = Vec::with_capacity(formulas.len());
    let mut path: Vec<(usize, usize)> = Vec::new();
    for root in 0..formulas.len() {
        if mark[root] != 0 {
            continue;
        }
        mark[root] = 1;
        path.push((root, 0));
        while let Some(&(f, next)) = path.last() {
            let Some(&g) = deps[f].get(next) else {
                mark[f] = 2;
                order.push(f);
                path.pop();
                continue;
            };
            let top = path.len() - 1;
            path[top].1 += 1;
            match mark[g] {
                0 => {
                    mark[g] = 1;
                    path.push((g, 0));
                }
                1 => {
                    return Err(LangError::CyclicFormula {
                        name: formulas[g].name.clone(),
                        pos: formulas[g].pos,
                    })
                }
                _ => {}
            }
        }
    }
    Ok(order)
}

/// Calls `f` for every name reference in `e`.
fn walk_names(e: &Expr, f: &mut impl FnMut(&str, Pos)) {
    match e {
        Expr::Int(_) | Expr::Double(_) | Expr::Bool(_) => {}
        Expr::Name(n, pos) => f(n, *pos),
        Expr::Neg(a) | Expr::Not(a) => walk_names(a, f),
        Expr::Bin(_, a, b) => {
            walk_names(a, f);
            walk_names(b, f);
        }
        Expr::Ite(c, a, b) => {
            walk_names(c, f);
            walk_names(a, f);
            walk_names(b, f);
        }
        Expr::Apply(_, args) => {
            for a in args {
                walk_names(a, f);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn checked(src: &str) -> Result<CheckedProgram, LangError> {
        check(parse(src).unwrap())
    }

    #[test]
    fn constants_fold_in_order() {
        let cp = checked(
            "const int N = 4; const int M = N*2; const double p = 1/4;
             module m x : [0..M] init N; [] true -> true; endmodule",
        )
        .unwrap();
        assert_eq!(cp.consts["M"], Value::Int(8));
        assert_eq!(cp.consts["p"], Value::Double(0.25));
        assert_eq!(cp.vars[0].hi, 8);
        assert_eq!(cp.vars[0].init, 4);
    }

    #[test]
    fn forward_reference_in_const_is_undefined() {
        let err = checked(
            "const int A = B; const int B = 1;
             module m x : bool; [] true -> true; endmodule",
        )
        .unwrap_err();
        assert!(matches!(err, LangError::UndefinedName { ref name, .. } if name == "B"));
    }

    #[test]
    fn annotated_const_types_are_enforced() {
        assert!(matches!(
            checked("const int k = 0.5; module m x:bool; [] true->true; endmodule").unwrap_err(),
            LangError::TypeMismatch {
                expected: "int",
                ..
            }
        ));
        // int literal annotated double is promoted.
        let cp = checked("const double k = 2; module m x:bool; [] true->true; endmodule").unwrap();
        assert_eq!(cp.consts["k"], Value::Double(2.0));
    }

    #[test]
    fn bool_vars_default_to_false_and_ranges_to_lo() {
        let cp = checked("module m b : bool; x : [3..5]; [] true -> true; endmodule").unwrap();
        assert_eq!(cp.vars[0].init, 0);
        assert!(cp.vars[0].is_bool);
        assert_eq!(cp.vars[1].init, 3);
    }

    #[test]
    fn init_out_of_range_is_rejected() {
        assert!(matches!(
            checked("module m x : [0..3] init 7; [] true -> true; endmodule").unwrap_err(),
            LangError::OutOfRange { value: 7, .. }
        ));
    }

    #[test]
    fn empty_range_is_rejected() {
        assert!(matches!(
            checked("module m x : [5..2]; [] true -> true; endmodule").unwrap_err(),
            LangError::EmptyRange { .. }
        ));
    }

    #[test]
    fn duplicate_names_across_kinds_are_rejected() {
        assert!(matches!(
            checked("const int x = 1; module m x : bool; [] true->true; endmodule").unwrap_err(),
            LangError::DuplicateName { ref name, .. } if name == "x"
        ));
        assert!(matches!(
            checked(
                "module a x : bool; [] true->true; endmodule
                 module a y : bool; [] true->true; endmodule"
            )
            .unwrap_err(),
            LangError::DuplicateName { ref name, .. } if name == "a"
        ));
        assert!(matches!(
            checked(
                "module m x:bool; [] true->true; endmodule
                 label \"e\" = x; label \"e\" = !x;"
            )
            .unwrap_err(),
            LangError::DuplicateName { ref name, .. } if name == "e"
        ));
    }

    #[test]
    fn foreign_assignment_is_rejected() {
        let err = checked(
            "module a x : bool; [] true -> (y'=true); endmodule
             module b y : bool; [] true -> true; endmodule",
        )
        .unwrap_err();
        assert!(matches!(err, LangError::ForeignAssignment { ref var, .. } if var == "y"));
    }

    #[test]
    fn reading_foreign_variables_is_allowed() {
        assert!(checked(
            "module a x : bool; [] y -> (x'=true); [] !y -> true; endmodule
             module b y : bool; [] true -> (y'=!y); endmodule",
        )
        .is_ok());
    }

    #[test]
    fn typo_in_guard_is_caught_statically() {
        let err = checked("module m x : bool; [] xx -> (x'=true); endmodule").unwrap_err();
        assert!(matches!(err, LangError::UndefinedName { ref name, .. } if name == "xx"));
    }

    #[test]
    fn no_modules_is_an_error() {
        assert!(matches!(
            check(parse("const int k = 1;").unwrap()).unwrap_err(),
            LangError::NoModules
        ));
    }

    fn cycle_at(src: &str) -> (String, Pos) {
        match checked(src).unwrap_err() {
            LangError::CyclicFormula { name, pos } => (name, pos),
            e => panic!("expected a cyclic formula, got {e}"),
        }
    }

    const BODY: &str = "module m x : [0..2]; [] true -> true; endmodule";

    #[test]
    fn self_referential_formula_is_rejected() {
        let (name, pos) = cycle_at(&format!(
            "formula loop = loop & true;\n{BODY}\nlabel \"l\" = loop;"
        ));
        assert_eq!(name, "loop");
        assert_eq!(pos.line, 1);
    }

    #[test]
    fn mutually_recursive_formulas_are_rejected() {
        let (name, pos) = cycle_at(&format!("formula a = b;\nformula b = a;\n{BODY}"));
        assert_eq!((name.as_str(), pos.line), ("a", 1));
    }

    #[test]
    fn three_cycle_is_rejected_behind_an_acyclic_prefix() {
        let (name, _) = cycle_at(&format!(
            "formula top = a + 1;
             formula a = b * 2;
             formula b = c - x;
             formula c = a > 0 ? 1 : 0;
             {BODY}"
        ));
        assert_eq!(name, "a");
        let err = checked(&format!(
            "formula a = b; formula b = c; formula c = a; {BODY}"
        ))
        .unwrap_err();
        assert!(
            err.to_string()
                .contains("\"a\" is defined in terms of itself"),
            "{err}"
        );
    }

    #[test]
    fn acyclic_formula_chain_is_accepted_in_dependency_order() {
        let src = format!(
            "formula d = c + b;
             formula c = b * a;
             formula b = a + 1;
             formula a = x;
             {BODY}"
        );
        let cp = checked(&src).unwrap();
        let order = formula_order(&cp.program.formulas).unwrap();
        let names: Vec<&str> = order
            .iter()
            .map(|&i| cp.program.formulas[i].name.as_str())
            .collect();
        assert_eq!(names, ["a", "b", "c", "d"]);
    }

    #[test]
    fn state_space_bound_multiplies_ranges() {
        let cp = checked("module m x : [0..9]; b : bool; [] true -> true; endmodule").unwrap();
        assert_eq!(cp.state_space_bound(), 20);
    }
}
