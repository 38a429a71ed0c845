//! # smg-lint — interval-domain static analysis for guarded-command models
//!
//! Every deep model defect — a dead guard, a distribution that cannot sum
//! to 1, an assignment that escapes its variable's range, a guaranteed
//! deadlock — is otherwise caught *dynamically*, at some unlucky state
//! during expansion. This crate catches them *statically*, by running the
//! sound interval evaluator ([`smg_lang::eval_abs`]) over the declared
//! variable box and only reporting what it can prove.
//!
//! The soundness contract is one-sided by design: a diagnostic that
//! claims a guard is *dead* or a model *certainly deadlocks* is never a
//! false positive (reachable states are a subset of the variable box, so
//! a property proved over the box holds over every reachable state).
//! The converse does not hold — a defect the interval domain cannot see
//! is simply not reported. See `docs/LINT.md` for the full argument and
//! the diagnostic code table.
//!
//! ```
//! # fn main() -> Result<(), smg_lang::LangError> {
//! let src = r#"
//!     dtmc
//!     module clock
//!       t : [0..3] init 0;
//!       [] t < 3 -> (t'=t+1);
//!       [] t > 3 -> (t'=0);
//!       [] t = 3 -> true;
//!     endmodule
//! "#;
//! let report = smg_lint::lint(&smg_lang::check(smg_lang::parse(src)?)?);
//! // `t > 3` can never fire: t is declared in [0..3].
//! let codes: Vec<&str> = report.diagnostics().iter().map(|d| d.code.as_str()).collect();
//! assert_eq!(codes, vec!["L001"]);
//! # Ok(())
//! # }
//! ```

use smg_lang::ast::{Expr, ModelType};
use smg_lang::value::interval::{eval_abs, refine_box, AbsEnv, AbsVal};
use smg_lang::{compile_any_with, eval, CheckedProgram, Env, ExpandOptions, Pos, Value};
use smg_obs::json;
use std::collections::{HashMap, HashSet};
use std::fmt;

/// How deep guard-refinement and formula expansion recurse before giving
/// up (everything beyond is treated as unrefinable, which is sound).
const REFINE_DEPTH: u32 = 64;

/// Runtime tolerance for distribution sums, mirrored from the expansion
/// engine: sums within `1e-6` of 1 are accepted there, so the lint only
/// reports constant sums outside that band.
const SUM_TOL: f64 = 1e-6;

/// Runtime tolerance for individual probabilities (`0 ≤ p ≤ 1 + 1e-9`).
const PROB_TOL: f64 = 1e-9;

/// Tunables for a lint run.
#[derive(Debug, Clone)]
pub struct LintOptions {
    /// Treat deadlocks as benign self-loops (mirrors the expansion
    /// option): disables the certain-deadlock diagnostic (L005).
    pub allow_stutter: bool,
    /// Budget for the bounded concrete deadlock probe: models whose
    /// variable box holds at most this many valuations are expanded for
    /// real, so clocked-module deadlocks deeper than the initial state
    /// are still caught with zero false positives. `0` disables.
    pub probe_states: usize,
    /// Boxes with at most this many valuations are checked by exhaustive
    /// concrete evaluation instead of intervals — exact dead/constant
    /// verdicts for small models.
    pub exhaustive_cap: u128,
}

impl Default for LintOptions {
    fn default() -> Self {
        LintOptions {
            allow_stutter: false,
            probe_states: 4096,
            exhaustive_cap: 4096,
        }
    }
}

/// Diagnostic severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but the model still expands (dead guard, unused name…).
    Warning,
    /// The defect is certain to surface as an expansion error if the
    /// offending command ever fires.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// Diagnostic codes, one per defect class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Code {
    /// L001 — guard unsatisfiable over the variable box.
    DeadGuard,
    /// L002 — guard provably true everywhere (but not spelled `true`).
    ConstantGuard,
    /// L003 — assignment provably escapes the target variable's range.
    OutOfRangeAssign,
    /// L004 — update weights provably negative, above 1, or constant and
    /// not summing to 1.
    MalformedDistribution,
    /// L005 — the model provably deadlocks (initial state or bounded
    /// concrete probe).
    CertainDeadlock,
    /// L006 — two `dtmc` commands provably enabled together (hidden
    /// nondeterminism resolved by uniform choice).
    OverlappingGuards,
    /// L007 — constant never used.
    UnusedConst,
    /// L008 — formula never used.
    UnusedFormula,
    /// L009 — variable never read.
    UnusedVariable,
    /// L010 — label body provably constant over the box.
    TrivialLabel,
}

impl Code {
    /// The stable `L0xx` code string.
    pub fn as_str(self) -> &'static str {
        match self {
            Code::DeadGuard => "L001",
            Code::ConstantGuard => "L002",
            Code::OutOfRangeAssign => "L003",
            Code::MalformedDistribution => "L004",
            Code::CertainDeadlock => "L005",
            Code::OverlappingGuards => "L006",
            Code::UnusedConst => "L007",
            Code::UnusedFormula => "L008",
            Code::UnusedVariable => "L009",
            Code::TrivialLabel => "L010",
        }
    }

    /// The fixed severity of this code.
    pub fn severity(self) -> Severity {
        match self {
            Code::OutOfRangeAssign | Code::MalformedDistribution | Code::CertainDeadlock => {
                Severity::Error
            }
            _ => Severity::Warning,
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finding: severity, stable code, source position and explanation.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Defect class.
    pub code: Code,
    /// Severity (always `code.severity()`).
    pub severity: Severity,
    /// Source position of the offending construct.
    pub pos: Pos,
    /// Enclosing module, when the construct lives in one.
    pub module: Option<String>,
    /// Human-readable explanation, including the proved fact.
    pub message: String,
}

/// The outcome of a lint run: diagnostics in (line, col, code) order.
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// The findings, ordered by source position then code.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// Number of error-severity findings.
    pub fn error_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Number of warning-severity findings.
    pub fn warning_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .count()
    }

    /// Whether the model linted clean.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Renders the report as human-readable text, one block per finding.
    pub fn render_text(&self, source: &str) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            let ctx = match &d.module {
                Some(m) => format!(" (module {m})"),
                None => String::new(),
            };
            out.push_str(&format!(
                "{}[{}]: {}\n  --> {}:{}:{}{}\n",
                d.severity, d.code, d.message, source, d.pos.line, d.pos.col, ctx
            ));
        }
        if self.diagnostics.is_empty() {
            out.push_str(&format!("{source}: clean, no lint findings\n"));
        } else {
            out.push_str(&format!(
                "{}: {} finding{}: {} error{}, {} warning{}\n",
                source,
                self.diagnostics.len(),
                plural(self.diagnostics.len()),
                self.error_count(),
                plural(self.error_count()),
                self.warning_count(),
                plural(self.warning_count()),
            ));
        }
        out
    }

    /// Renders the report as JSON (schema `smg-lint/1`). The output is
    /// byte-stable: same model, same bytes, across processes.
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"schema\": \"smg-lint/1\",\n");
        out.push_str(&format!("  \"errors\": {},\n", self.error_count()));
        out.push_str(&format!("  \"warnings\": {},\n", self.warning_count()));
        out.push_str("  \"diagnostics\": [");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\n");
            out.push_str(&format!("      \"code\": \"{}\",\n", d.code));
            out.push_str(&format!("      \"severity\": \"{}\",\n", d.severity));
            out.push_str(&format!("      \"line\": {},\n", d.pos.line));
            out.push_str(&format!("      \"col\": {},\n", d.pos.col));
            match &d.module {
                Some(m) => {
                    out.push_str(&format!("      \"module\": {},\n", json::escape(m)));
                }
                None => out.push_str("      \"module\": null,\n"),
            }
            out.push_str(&format!(
                "      \"message\": {}\n",
                json::escape(&d.message)
            ));
            out.push_str("    }");
        }
        if !self.diagnostics.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }
}

fn plural(n: usize) -> &'static str {
    if n == 1 {
        ""
    } else {
        "s"
    }
}

/// Lints a checked program with default [`LintOptions`].
pub fn lint(checked: &CheckedProgram) -> LintReport {
    lint_with(checked, &LintOptions::default())
}

/// Lints a checked program: runs every analysis pass and returns the
/// ordered report. Increments the `smg_lint_runs_total` and
/// `smg_lint_diagnostics_total{severity}` counters when an `smg-obs`
/// recorder is installed.
pub fn lint_with(checked: &CheckedProgram, options: &LintOptions) -> LintReport {
    let mut diags: Vec<Diagnostic> = Vec::new();
    let cx = Cx::new(checked, options);

    guard_pass(&cx, &mut diags);
    update_pass(&cx, &mut diags);
    deadlock_pass(&cx, options, &mut diags);
    unused_pass(checked, &mut diags);
    label_pass(&cx, &mut diags);

    diags.sort_by(|a, b| {
        (a.pos.line, a.pos.col, a.code, a.message.as_str()).cmp(&(
            b.pos.line,
            b.pos.col,
            b.code,
            b.message.as_str(),
        ))
    });
    let report = LintReport { diagnostics: diags };

    smg_obs::counter_add("smg_lint_runs_total", None, 1);
    let errors = report.error_count() as u64;
    let warnings = report.warning_count() as u64;
    if errors > 0 {
        smg_obs::counter_add(
            "smg_lint_diagnostics_total",
            Some(("severity", "error")),
            errors,
        );
    }
    if warnings > 0 {
        smg_obs::counter_add(
            "smg_lint_diagnostics_total",
            Some(("severity", "warning")),
            warnings,
        );
    }
    report
}

/// Shared per-run analysis context: the variable box and, for small
/// boxes, the exhaustive list of valuations.
struct Cx<'a> {
    checked: &'a CheckedProgram,
    /// Declared-range box, keyed by variable name.
    var_box: HashMap<&'a str, AbsVal>,
    /// Every valuation of the box when it is small enough to enumerate.
    valuations: Option<Vec<Vec<i64>>>,
}

impl<'a> Cx<'a> {
    fn new(checked: &'a CheckedProgram, options: &LintOptions) -> Cx<'a> {
        let mut var_box = HashMap::new();
        for v in &checked.vars {
            let abs = if v.is_bool {
                AbsVal::bool_any()
            } else {
                AbsVal::Int(v.lo, v.hi)
            };
            var_box.insert(v.name.as_str(), abs);
        }
        let valuations = if checked.state_space_bound() <= options.exhaustive_cap {
            Some(enumerate_box(checked))
        } else {
            None
        };
        Cx {
            checked,
            var_box,
            valuations,
        }
    }

    fn abs_env(&self) -> AbsEnv<'a> {
        AbsEnv {
            vars: self.var_box.clone(),
            consts: &self.checked.consts,
            formulas: &self.checked.formulas,
        }
    }

    fn concrete_env(&self, valuation: &[i64]) -> Env<'_> {
        let mut vars = HashMap::with_capacity(self.checked.vars.len());
        for (info, &raw) in self.checked.vars.iter().zip(valuation) {
            let v = if info.is_bool {
                Value::Bool(raw != 0)
            } else {
                Value::Int(raw)
            };
            vars.insert(info.name.as_str(), v);
        }
        Env {
            vars,
            consts: &self.checked.consts,
            formulas: &self.checked.formulas,
        }
    }

    /// The truth profile of a boolean expression over the whole box:
    /// exhaustive when the box is small, interval-based otherwise.
    fn profile(&self, e: &Expr) -> Profile {
        if let Some(vals) = &self.valuations {
            let mut can_true = false;
            let mut can_false = false;
            let mut can_err = false;
            for v in vals {
                match eval(e, &self.concrete_env(v)).map(|r| r.as_bool("lint")) {
                    Ok(Ok(true)) => can_true = true,
                    Ok(Ok(false)) => can_false = true,
                    _ => can_err = true,
                }
            }
            Profile {
                can_true,
                can_false,
                can_err,
                exact: true,
            }
        } else {
            match eval_abs(e, &self.abs_env()) {
                AbsVal::Bool(can_false, can_true) => Profile {
                    can_true,
                    can_false,
                    can_err: false,
                    exact: false,
                },
                _ => Profile {
                    can_true: true,
                    can_false: true,
                    can_err: true,
                    exact: false,
                },
            }
        }
    }
}

/// What a boolean expression can do over the variable box. With `exact`
/// set the flags are precise; otherwise they over-approximate.
#[derive(Debug, Clone, Copy)]
struct Profile {
    can_true: bool,
    can_false: bool,
    can_err: bool,
    exact: bool,
}

impl Profile {
    /// No valuation makes the expression true (errors permitted: a guard
    /// that errors is still never *satisfied*).
    fn never_true(self) -> bool {
        !self.can_true
    }

    /// Every valuation makes it true, without errors.
    fn always_true(self) -> bool {
        self.can_true && !self.can_false && !self.can_err
    }
}

fn enumerate_box(checked: &CheckedProgram) -> Vec<Vec<i64>> {
    let mut out = Vec::new();
    let mut current: Vec<i64> = checked.vars.iter().map(|v| v.lo).collect();
    loop {
        out.push(current.clone());
        // Odometer over the declared ranges.
        let mut i = checked.vars.len();
        loop {
            if i == 0 {
                return out;
            }
            i -= 1;
            if current[i] < checked.vars[i].hi {
                current[i] += 1;
                for (slot, v) in current[i + 1..].iter_mut().zip(&checked.vars[i + 1..]) {
                    *slot = v.lo;
                }
                break;
            }
        }
    }
}

/// L001 (dead), L002 (constant) and L006 (overlapping `dtmc` guards).
fn guard_pass(cx: &Cx<'_>, diags: &mut Vec<Diagnostic>) {
    let is_dtmc = cx.checked.program.model_type == ModelType::Dtmc;
    for m in &cx.checked.program.modules {
        let profiles: Vec<Profile> = m.commands.iter().map(|c| cx.profile(&c.guard)).collect();
        for (ci, cmd) in m.commands.iter().enumerate() {
            let p = profiles[ci];
            if p.never_true() {
                push(
                    diags,
                    Code::DeadGuard,
                    cmd.pos,
                    Some(&m.name),
                    format!(
                        "guard `{}` of command {} is never satisfied over the declared \
                         variable ranges; the command can never fire",
                        cmd.guard,
                        ci + 1
                    ),
                );
            } else if p.always_true() && cmd.guard != Expr::Bool(true) {
                push(
                    diags,
                    Code::ConstantGuard,
                    cmd.pos,
                    Some(&m.name),
                    format!(
                        "guard `{}` of command {} is always true over the declared \
                         variable ranges; spell it `true` or tighten it",
                        cmd.guard,
                        ci + 1
                    ),
                );
            }
        }
        if !is_dtmc {
            continue;
        }
        // Hidden nondeterminism: in a dtmc the expansion engine resolves
        // simultaneously-enabled commands by uniform choice, silently
        // splitting probability mass. Only provable overlaps are
        // reported: a concrete witness valuation for small boxes, or two
        // guards that are each true over the *entire* box.
        for i in 0..m.commands.len() {
            for j in i + 1..m.commands.len() {
                if profiles[i].never_true() || profiles[j].never_true() {
                    continue;
                }
                let overlap = if let Some(vals) = &cx.valuations {
                    vals.iter().any(|v| {
                        let env = cx.concrete_env(v);
                        let both = |e: &Expr| {
                            matches!(eval(e, &env).map(|r| r.as_bool("lint")), Ok(Ok(true)))
                        };
                        both(&m.commands[i].guard) && both(&m.commands[j].guard)
                    })
                } else {
                    profiles[i].always_true() && profiles[j].always_true()
                };
                if overlap {
                    push(
                        diags,
                        Code::OverlappingGuards,
                        m.commands[j].pos,
                        Some(&m.name),
                        format!(
                            "guards of commands {} and {} can hold simultaneously in a \
                             dtmc: the expansion engine resolves the overlap by uniform \
                             choice; make the guards disjoint or declare the model `mdp`",
                            i + 1,
                            j + 1
                        ),
                    );
                }
            }
        }
    }
}

/// L003 (out-of-range assignments) and L004 (malformed distributions),
/// both evaluated over the guard-refined box: states where the command
/// cannot fire do not count against it.
fn update_pass(cx: &Cx<'_>, diags: &mut Vec<Diagnostic>) {
    for m in &cx.checked.program.modules {
        for (ci, cmd) in m.commands.iter().enumerate() {
            let mut refined = cx.var_box.clone();
            if !refine_box(
                &cmd.guard,
                &mut refined,
                &cx.checked.consts,
                &cx.checked.formulas,
                REFINE_DEPTH,
            ) {
                // The guard-constrained box is empty: the command is dead
                // (reported by the guard pass) and nothing it would do
                // can ever happen.
                continue;
            }
            let env = AbsEnv {
                vars: refined,
                consts: &cx.checked.consts,
                formulas: &cx.checked.formulas,
            };

            let mut weights: Vec<Option<f64>> = Vec::with_capacity(cmd.updates.len());
            for u in &cmd.updates {
                let p = eval_abs(&u.prob, &env);
                weights.push(p.singleton());
                if let Some((lo, hi)) = match p {
                    AbsVal::Int(l, h) => Some((l as f64, h as f64)),
                    AbsVal::Double(l, h) => Some((l, h)),
                    _ => None,
                } {
                    if hi < 0.0 {
                        push(
                            diags,
                            Code::MalformedDistribution,
                            cmd.pos,
                            Some(&m.name),
                            format!(
                                "update weight `{}` of command {} is provably negative \
                                 (in [{lo}, {hi}]); expansion rejects it wherever the \
                                 command fires",
                                u.prob,
                                ci + 1
                            ),
                        );
                    } else if lo > 1.0 + PROB_TOL {
                        push(
                            diags,
                            Code::MalformedDistribution,
                            cmd.pos,
                            Some(&m.name),
                            format!(
                                "update weight `{}` of command {} is provably greater \
                                 than 1 (in [{lo}, {hi}])",
                                u.prob,
                                ci + 1
                            ),
                        );
                    }
                }

                // Out-of-range assignments: a provably-zero branch is
                // dropped by the engine and cannot fire.
                if weights.last() == Some(&Some(0.0)) {
                    continue;
                }
                for a in &u.assigns {
                    let Some(&vi) = cx.checked.var_index.get(&a.var) else {
                        continue;
                    };
                    let info = &cx.checked.vars[vi];
                    if info.is_bool {
                        continue;
                    }
                    if let AbsVal::Int(lo, hi) = eval_abs(&a.value, &env) {
                        if hi < info.lo || lo > info.hi {
                            push(
                                diags,
                                Code::OutOfRangeAssign,
                                a.pos,
                                Some(&m.name),
                                format!(
                                    "assignment `{}' = {}` always lands in [{lo}, {hi}], \
                                     outside the declared range [{}..{}]; expansion fails \
                                     wherever command {} fires",
                                    a.var,
                                    a.value,
                                    info.lo,
                                    info.hi,
                                    ci + 1
                                ),
                            );
                        }
                    }
                }
            }

            // Constant-foldable distribution sum, checked against the
            // engine's own tolerance.
            if let Some(sum) = weights.iter().try_fold(0.0f64, |acc, w| w.map(|w| acc + w)) {
                if (sum - 1.0).abs() > SUM_TOL {
                    push(
                        diags,
                        Code::MalformedDistribution,
                        cmd.pos,
                        Some(&m.name),
                        format!(
                            "update weights of command {} are constant and sum to {sum}, \
                             not 1; expansion rejects the command wherever it fires",
                            ci + 1
                        ),
                    );
                }
            }
        }
    }
}

/// L005 — certain deadlock, with zero false positives: either every
/// command of some module is disabled at the (exactly evaluated) initial
/// state, or a bounded concrete expansion of a small model hits a real
/// deadlock.
fn deadlock_pass(cx: &Cx<'_>, options: &LintOptions, diags: &mut Vec<Diagnostic>) {
    if options.allow_stutter {
        return;
    }
    let init: Vec<i64> = cx.checked.vars.iter().map(|v| v.init).collect();
    let env = cx.concrete_env(&init);
    let mut found = false;
    for m in &cx.checked.program.modules {
        let enabled = m.commands.iter().any(|c| {
            matches!(
                eval(&c.guard, &env).map(|v| v.as_bool("lint")),
                Ok(Ok(true))
            )
        });
        let errored = m
            .commands
            .iter()
            .any(|c| eval(&c.guard, &env).map(|v| v.as_bool("lint")).is_err());
        if !enabled && !errored {
            found = true;
            push(
                diags,
                Code::CertainDeadlock,
                m.pos,
                Some(&m.name),
                format!(
                    "module {} has no enabled command in the initial state ({}); \
                     expansion deadlocks immediately",
                    m.name,
                    render_valuation(cx.checked, &init)
                ),
            );
        }
    }
    if found || options.probe_states == 0 {
        return;
    }
    // Bounded concrete probe: only for boxes small enough that full
    // expansion is guaranteed cheap, and only a *real* deadlock counts.
    if cx.checked.state_space_bound() > options.probe_states as u128 {
        return;
    }
    let probe = compile_any_with(
        cx.checked.clone(),
        ExpandOptions {
            max_states: options.probe_states,
            allow_stutter: false,
        },
    );
    if let Err(smg_lang::LangError::Deadlock { module, state }) = probe {
        let pos = cx
            .checked
            .program
            .modules
            .iter()
            .find(|m| m.name == module)
            .map_or_else(Pos::start, |m| m.pos);
        push(
            diags,
            Code::CertainDeadlock,
            pos,
            Some(&module),
            format!(
                "module {module} deadlocks at the reachable state ({state}); \
                 no command is enabled there"
            ),
        );
    }
}

fn render_valuation(checked: &CheckedProgram, valuation: &[i64]) -> String {
    checked
        .vars
        .iter()
        .zip(valuation)
        .map(|(v, &raw)| {
            if v.is_bool {
                format!("{}={}", v.name, raw != 0)
            } else {
                format!("{}={raw}", v.name)
            }
        })
        .collect::<Vec<_>>()
        .join(", ")
}

/// L007/L008/L009 — unused constants, formulas and variables, by
/// transitive reachability from the expressions the engine actually
/// evaluates (guards, weights, assignment values, labels, rewards and
/// variable declarations).
fn unused_pass(checked: &CheckedProgram, diags: &mut Vec<Diagnostic>) {
    let const_defs: HashMap<&str, &Expr> = checked
        .program
        .consts
        .iter()
        .map(|c| (c.name.as_str(), &c.value))
        .collect();

    let mut used: HashSet<&str> = HashSet::new();
    let mut read_vars: HashSet<&str> = HashSet::new();
    let mut work: Vec<&Expr> = Vec::new();

    let mut roots: Vec<&Expr> = Vec::new();
    for m in &checked.program.modules {
        for v in &m.vars {
            if let smg_lang::ast::DeclType::Range(lo, hi) = &v.ty {
                roots.push(lo);
                roots.push(hi);
            }
            if let Some(init) = &v.init {
                roots.push(init);
            }
        }
        for c in &m.commands {
            roots.push(&c.guard);
            for u in &c.updates {
                roots.push(&u.prob);
                for a in &u.assigns {
                    roots.push(&a.value);
                }
            }
        }
    }
    for l in &checked.program.labels {
        roots.push(&l.body);
    }
    for r in &checked.program.rewards {
        for item in &r.items {
            roots.push(&item.guard);
            roots.push(&item.value);
        }
    }
    work.extend(roots);

    while let Some(e) = work.pop() {
        walk_names(e, &mut |name| {
            if checked.var_index.contains_key(name) {
                // Safe: every variable name in `var_index` outlives the
                // pass; re-borrow from `checked` to get the long lifetime.
                if let Some(v) = checked.vars.iter().find(|v| v.name == name) {
                    read_vars.insert(v.name.as_str());
                }
            } else if let Some(body) = checked.formulas.get(name) {
                if let Some((key, _)) = checked.formulas.get_key_value(name) {
                    if used.insert(key.as_str()) {
                        work.push(body);
                    }
                }
            } else if let Some((&def_name, &def)) = const_defs.get_key_value(name) {
                if used.insert(def_name) {
                    work.push(def);
                }
            }
        });
    }

    for c in &checked.program.consts {
        if !used.contains(c.name.as_str()) {
            push(
                diags,
                Code::UnusedConst,
                c.pos,
                None,
                format!("constant `{}` is never used", c.name),
            );
        }
    }
    for f in &checked.program.formulas {
        if !used.contains(f.name.as_str()) {
            push(
                diags,
                Code::UnusedFormula,
                f.pos,
                None,
                format!("formula `{}` is never used", f.name),
            );
        }
    }
    for m in &checked.program.modules {
        for v in &m.vars {
            if !read_vars.contains(v.name.as_str()) {
                push(
                    diags,
                    Code::UnusedVariable,
                    v.pos,
                    Some(&m.name),
                    format!(
                        "variable `{}` is never read by any guard, update, label or \
                         reward; it still multiplies the state space",
                        v.name
                    ),
                );
            }
        }
    }
}

fn walk_names(e: &Expr, f: &mut impl FnMut(&str)) {
    match e {
        Expr::Int(_) | Expr::Double(_) | Expr::Bool(_) => {}
        Expr::Name(name, _) => f(name),
        Expr::Neg(inner) | Expr::Not(inner) => walk_names(inner, f),
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

/// L010 — labels whose body is provably constant over the box: the
/// proposition can never distinguish states, so every property built on
/// it is trivially true or false.
fn label_pass(cx: &Cx<'_>, diags: &mut Vec<Diagnostic>) {
    for l in &cx.checked.program.labels {
        let p = cx.profile(&l.body);
        // Always-false needs `can_false` in exact mode (an all-error body
        // is not a constant label); in interval mode `!can_true` alone is
        // the strongest certainty available.
        let verdict = if p.always_true() {
            Some(true)
        } else if !p.can_true && !p.can_err && (p.can_false || !p.exact) {
            Some(false)
        } else {
            None
        };
        if let Some(v) = verdict {
            push(
                diags,
                Code::TrivialLabel,
                l.pos,
                None,
                format!(
                    "label \"{}\" is constant ({v}) over the declared variable ranges; \
                     it cannot distinguish states",
                    l.name
                ),
            );
        }
    }
}

fn push(diags: &mut Vec<Diagnostic>, code: Code, pos: Pos, module: Option<&str>, message: String) {
    diags.push(Diagnostic {
        code,
        severity: code.severity(),
        pos,
        module: module.map(str::to_string),
        message,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use smg_lang::{check, parse};

    fn lint_src(src: &str) -> LintReport {
        lint(&check(parse(src).expect("parses")).expect("checks"))
    }

    fn codes(report: &LintReport) -> Vec<&'static str> {
        report
            .diagnostics()
            .iter()
            .map(|d| d.code.as_str())
            .collect()
    }

    #[test]
    fn clean_model_has_no_findings() {
        let report = lint_src(
            r#"
            dtmc
            const int N = 3;
            module clock
              t : [0..N] init 0;
              [] t < N -> (t'=t+1);
              [] t = N -> true;
            endmodule
            label "done" = t = N;
            "#,
        );
        assert!(report.is_clean(), "unexpected findings: {:?}", report);
    }

    #[test]
    fn dead_and_constant_guards_are_flagged() {
        let report = lint_src(
            r#"
            dtmc
            module m
              x : [0..4] init 0;
              [] x < 10 -> (x'=0);
              [] x > 4 -> (x'=0);
            endmodule
            "#,
        );
        // `x < 10` is constant-true (L002) and `x > 4` dead (L001); the
        // two also trigger nothing else.
        assert_eq!(codes(&report), vec!["L002", "L001"]);
    }

    #[test]
    fn out_of_range_assignment_uses_guard_refinement() {
        let report = lint_src(
            r#"
            dtmc
            module m
              x : [0..4] init 0;
              [] x < 4 -> (x'=x+1);
              [] x = 4 -> (x'=x+1);
            endmodule
            "#,
        );
        // Only the second command provably escapes: under `x = 4` the
        // update lands at 5.
        let found: Vec<_> = report
            .diagnostics()
            .iter()
            .filter(|d| d.code == Code::OutOfRangeAssign)
            .collect();
        assert_eq!(found.len(), 1, "report: {report:?}");
        assert_eq!(found[0].pos.line, 6);
    }

    #[test]
    fn malformed_distributions_are_flagged() {
        let report = lint_src(
            r#"
            dtmc
            module m
              x : [0..1] init 0;
              [] x = 0 -> 0.25:(x'=1) + 0.25:(x'=0);
              [] x = 1 -> true;
            endmodule
            "#,
        );
        assert!(codes(&report).contains(&"L004"), "report: {report:?}");
    }

    #[test]
    fn certain_deadlock_found_at_init_and_by_probe() {
        // Deadlock at the initial state.
        let at_init = lint_src(
            r#"
            dtmc
            module m
              x : [0..3] init 0;
              [] x > 0 -> (x'=x-1);
            endmodule
            "#,
        );
        assert!(codes(&at_init).contains(&"L005"), "report: {at_init:?}");

        // The classic clocked-module bug: no command at the last tick —
        // only the bounded probe can see it.
        let at_end = lint_src(
            r#"
            dtmc
            module m
              t : [0..3] init 0;
              [] t < 3 -> (t'=t+1);
            endmodule
            "#,
        );
        assert!(codes(&at_end).contains(&"L005"), "report: {at_end:?}");
    }

    #[test]
    fn overlapping_dtmc_guards_are_flagged() {
        let report = lint_src(
            r#"
            dtmc
            module m
              x : [0..3] init 0;
              [] x < 2 -> (x'=x+1);
              [] x < 3 -> (x'=0);
              [] x = 3 -> true;
            endmodule
            "#,
        );
        assert!(codes(&report).contains(&"L006"), "report: {report:?}");
        // The same model declared `mdp` is fine: overlap is the point.
        let mdp = lint_src(
            r#"
            mdp
            module m
              x : [0..3] init 0;
              [] x < 2 -> (x'=x+1);
              [] x < 3 -> (x'=0);
              [] x = 3 -> true;
            endmodule
            "#,
        );
        assert!(!codes(&mdp).contains(&"L006"), "report: {mdp:?}");
    }

    #[test]
    fn unused_entities_are_flagged() {
        let report = lint_src(
            r#"
            dtmc
            const int DEAD = 7;
            const int N = 2;
            formula unused_f = N > 1;
            module m
              x : [0..N] init 0;
              y : [0..1] init 0;
              [] x < N -> (x'=x+1) & (y'=0);
              [] x = N -> true;
            endmodule
            "#,
        );
        let c = codes(&report);
        assert!(c.contains(&"L007"), "report: {report:?}");
        assert!(c.contains(&"L008"), "report: {report:?}");
        assert!(c.contains(&"L009"), "report: {report:?}");
        // N is used (range + guards) and x is read: neither is flagged.
        assert!(!report
            .diagnostics()
            .iter()
            .any(|d| d.message.contains("`N`") || d.message.contains("`x`")));
    }

    #[test]
    fn trivial_labels_are_flagged() {
        let report = lint_src(
            r#"
            dtmc
            module m
              x : [0..3] init 0;
              [] x < 3 -> (x'=x+1);
              [] x = 3 -> true;
            endmodule
            label "always" = x >= 0;
            label "fine" = x = 3;
            "#,
        );
        let trivial: Vec<_> = report
            .diagnostics()
            .iter()
            .filter(|d| d.code == Code::TrivialLabel)
            .collect();
        assert_eq!(trivial.len(), 1, "report: {report:?}");
        assert!(trivial[0].message.contains("always"));
    }

    #[test]
    fn json_rendering_is_stable_and_escaped() {
        let report = lint_src(
            r#"
            dtmc
            module m
              x : [0..4] init 0;
              [] x > 4 -> (x'=0);
              [] true -> true;
            endmodule
            "#,
        );
        let a = report.render_json();
        let b = report.render_json();
        assert_eq!(a, b);
        assert!(a.starts_with("{\n  \"schema\": \"smg-lint/1\",\n"));
        assert!(a.contains("\"code\": \"L001\""));
        assert!(a.ends_with("]\n}\n"));
    }

    #[test]
    fn allow_stutter_suppresses_deadlock() {
        let checked = check(
            parse(
                r#"
                dtmc
                module m
                  t : [0..3] init 0;
                  [] t < 3 -> (t'=t+1);
                endmodule
                "#,
            )
            .expect("parses"),
        )
        .expect("checks");
        let strict = lint(&checked);
        assert!(codes(&strict).contains(&"L005"));
        let relaxed = lint_with(
            &checked,
            &LintOptions {
                allow_stutter: true,
                ..LintOptions::default()
            },
        );
        assert!(!codes(&relaxed).contains(&"L005"));
    }
}
