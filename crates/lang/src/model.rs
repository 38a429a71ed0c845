//! State-space expansion: from a [`CheckedProgram`] to an explicit
//! [`Dtmc`] or [`Mdp`].
//!
//! A [`LangModel`] expands one state at a time, reporting deadlocks, bad
//! distributions and range violations as [`LangError`] values; [`compile`]
//! and [`compile_mdp`] hand that expansion to the engine explorers
//! ([`smg_dtmc::try_explore`], [`smg_mdp::try_explore`]), so `.sm` programs
//! are built by the same breadth-first search and interning as every native
//! model, and number their states the same way whatever the lane count.
//!
//! # Semantics
//!
//! * A state is an assignment to the concatenated variable vector of all
//!   modules (`Vec<i64>`, booleans as 0/1).
//! * **All modules step synchronously on every clock tick** and their
//!   randomness is independent, so the joint transition probability is the
//!   product over modules. This is the clocked-RTL semantics of the paper
//!   (every DTMC transition is one clock cycle), pinned against a native
//!   synchronous product of independent models in the workspace's
//!   `tests/lang_composition.rs`; it coincides with PRISM's DTMC semantics
//!   for single-module programs. Synchronization labels are parsed but do
//!   not restrict stepping.
//! * Within one module, if several commands are enabled in a state the
//!   module makes a **uniform choice** among them (PRISM's DTMC
//!   convention); if none is enabled the module *stutters* (keeps its
//!   variables) when [`ExpandOptions::allow_stutter`] is set, and expansion
//!   fails with [`LangError::Deadlock`] otherwise.
//! * Update right-hand sides read the **pre-state** (primed semantics);
//!   unassigned variables keep their values; a variable assigned outside
//!   its declared range aborts expansion with [`LangError::OutOfRange`]
//!   (PRISM raises the analogous runtime error).

use crate::ast::ModelType;
use crate::check::CheckedProgram;
use crate::error::LangError;
use crate::lower::{want_bool, want_double, want_int, Lowered};
use smg_dtmc::bitvec::BitVec;
use smg_dtmc::{Dtmc, ExploreOptions, Labelling};
use smg_mdp::Mdp;
use smg_pctl::AnyModel;
use std::cell::RefCell;
use std::collections::BTreeMap;

/// Probability mass below which an update branch is treated as absent, and
/// tolerance for "sums to one" checks. Matches the DTMC layer's
/// stochasticity tolerance.
const PROB_TOL: f64 = 1e-9;

/// Knobs for [`compile_with`].
#[derive(Debug, Clone, Copy)]
pub struct ExpandOptions {
    /// Maximum number of states to enumerate before giving up (guards
    /// against typos that blow up the space). Default: 4,000,000.
    pub max_states: usize,
    /// If `true`, a module with no enabled command keeps its variables for
    /// that tick instead of the whole expansion failing. Default: `false`
    /// (a deadlocked module is almost always a modeling bug in clocked
    /// designs).
    pub allow_stutter: bool,
}

impl Default for ExpandOptions {
    fn default() -> Self {
        ExpandOptions {
            max_states: 4_000_000,
            allow_stutter: false,
        }
    }
}

/// The result of compiling a program: the explicit chain plus the
/// name↔state bookkeeping a client needs to interpret it.
#[derive(Debug, Clone)]
pub struct CompiledModel {
    /// The explicit DTMC. Labels carry the program's `label` declarations;
    /// the reward vector is the default reward structure (see
    /// [`CompiledModel::reward_vector`]).
    pub dtmc: Dtmc,
    /// Variable names in state-vector order.
    pub var_names: Vec<String>,
    /// The concrete variable assignment of every explored state, indexed
    /// by [`smg_dtmc::StateId`].
    pub states: Vec<Vec<i64>>,
    /// Named reward structures (`rewards "name" ...`), as dense vectors.
    pub named_rewards: BTreeMap<String, Vec<f64>>,
}

impl CompiledModel {
    /// A reward structure by name; `None` requests the default (unnamed)
    /// structure, which is also baked into [`CompiledModel::dtmc`].
    pub fn reward_vector(&self, name: Option<&str>) -> Option<&[f64]> {
        match name {
            None => Some(self.dtmc.rewards()),
            Some(n) => self.named_rewards.get(n).map(Vec::as_slice),
        }
    }

    /// Renders a state as `{x=1, b=false}` for diagnostics.
    pub fn render_state(&self, id: smg_dtmc::StateId) -> String {
        render_assignment(&self.var_names, &self.states[id as usize])
    }
}

fn render_assignment(names: &[String], vals: &[i64]) -> String {
    let mut s = String::from("{");
    for (i, (n, v)) in names.iter().zip(vals).enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        s.push_str(&format!("{n}={v}"));
    }
    s.push('}');
    s
}

/// A checked program viewed as an implicit model: an initial state, and
/// per state either its successor distribution (DTMC semantics,
/// [`LangModel::transitions_checked`]) or its actions (MDP semantics,
/// [`LangModel::actions_checked`]). Expansion errors are values that name
/// the offending state; [`compile`] and [`compile_mdp`] are these
/// functions run through the engine explorers.
///
/// Every expression is lowered once, when the model is built: variables
/// resolve to state slots, constants fold, and formulas resolve to a
/// shared table. Expanding a state then evaluates over the state vector
/// directly and gathers its branches in per-thread buffers reused from
/// state to state, so the successor vectors handed to the explorer are
/// the only allocations.
#[derive(Debug, Clone)]
pub struct LangModel {
    checked: CheckedProgram,
    options: ExpandOptions,
    lowered: Lowered,
}

/// A state's enabled commands and kept update branches, in evaluation
/// order, reused from state to state on each thread. Ranges are `end`
/// offsets: item `i` spans from the previous item's end (0 for the first)
/// to its own.
#[derive(Debug, Default)]
struct Buffers {
    /// Enabled command indices of the module being expanded.
    enabled: Vec<usize>,
    /// Assignments of every kept branch: `(slot, value)`.
    deltas: Vec<(usize, i64)>,
    /// Kept branches: the end of their assignments in `deltas`, and their
    /// mass.
    branches: Vec<(usize, f64)>,
    /// Choices — one per enabled command under MDP semantics, one per
    /// module (the uniform mix) under DTMC semantics: end in `branches`.
    choices: Vec<usize>,
    /// Modules: end of their choices in `choices`.
    modules: Vec<usize>,
    /// The chosen choice of each module for the action being assembled.
    pick: Vec<usize>,
    /// Product odometer: the current branch of each module, and the
    /// running product of masses up to it.
    cursor: Vec<usize>,
    prefix: Vec<f64>,
    /// Generated successors before merging, flat, with their masses.
    succ: Vec<i64>,
    mass: Vec<f64>,
    order: Vec<usize>,
}

thread_local! {
    static BUFFERS: RefCell<Buffers> = RefCell::new(Buffers::default());
}

/// Start of item `i` in an `end`-offset list.
fn start(ends: &[usize], i: usize) -> usize {
    if i == 0 {
        0
    } else {
        ends[i - 1]
    }
}

impl LangModel {
    /// Wraps a checked program with default options.
    pub fn new(checked: CheckedProgram) -> Self {
        Self::with_options(checked, ExpandOptions::default())
    }

    /// Wraps a checked program, lowering its expressions.
    pub fn with_options(checked: CheckedProgram, options: ExpandOptions) -> Self {
        let lowered = Lowered::new(&checked);
        LangModel {
            checked,
            options,
            lowered,
        }
    }

    /// The checked program.
    pub fn checked(&self) -> &CheckedProgram {
        &self.checked
    }

    /// The initial state vector.
    pub fn initial_state(&self) -> Vec<i64> {
        self.checked.vars.iter().map(|v| v.init).collect()
    }

    /// Variable names in state-vector order.
    fn var_names(&self) -> Vec<String> {
        self.checked.vars.iter().map(|v| v.name.clone()).collect()
    }

    fn module_name(&self, m: usize) -> &str {
        &self.checked.program.modules[m].name
    }

    /// Gathers every module's choices in `state` into `buf`: under MDP
    /// semantics (`per_command`) one choice per enabled command, else one
    /// per module mixing its enabled commands uniformly. A module with no
    /// enabled command contributes one identity branch when stuttering is
    /// allowed and deadlocks otherwise. Modules are expanded in order, each
    /// evaluating all its guards before its updates.
    fn gather(&self, state: &[i64], buf: &mut Buffers, per_command: bool) -> Result<(), LangError> {
        buf.deltas.clear();
        buf.branches.clear();
        buf.choices.clear();
        buf.modules.clear();
        for (m, commands) in self.lowered.modules.iter().enumerate() {
            buf.enabled.clear();
            for (ci, cmd) in commands.iter().enumerate() {
                let g = self.lowered.eval(&cmd.guard, state)?;
                if want_bool(g, || {
                    format!("guard of command {ci} in module {}", self.module_name(m))
                })? {
                    buf.enabled.push(ci);
                }
            }
            if buf.enabled.is_empty() {
                if !self.options.allow_stutter {
                    return Err(LangError::Deadlock {
                        module: self.module_name(m).to_string(),
                        state: render_assignment(&self.var_names(), state),
                    });
                }
                buf.branches.push((buf.deltas.len(), 1.0));
                buf.choices.push(buf.branches.len());
            } else {
                let scale = if per_command {
                    1.0
                } else {
                    1.0 / buf.enabled.len() as f64
                };
                for k in 0..buf.enabled.len() {
                    let ci = buf.enabled[k];
                    self.command_branches(state, m, ci, scale, buf)?;
                    if per_command {
                        buf.choices.push(buf.branches.len());
                    }
                }
                if !per_command {
                    buf.choices.push(buf.branches.len());
                }
            }
            buf.modules.push(buf.choices.len());
        }
        Ok(())
    }

    /// Appends the update branches of command `ci` of module `m` to `buf`,
    /// every probability scaled by `scale` — the DTMC path passes its
    /// uniform choice weight, the MDP path 1 (each command is its own
    /// action).
    fn command_branches(
        &self,
        state: &[i64],
        m: usize,
        ci: usize,
        scale: f64,
        buf: &mut Buffers,
    ) -> Result<(), LangError> {
        let mut sum = 0.0;
        for u in &self.lowered.modules[m][ci].updates {
            let p = want_double(self.lowered.eval(&u.prob, state)?, || {
                format!(
                    "probability in command {ci} of module {}",
                    self.module_name(m)
                )
            })?;
            if !(0.0..=1.0 + PROB_TOL).contains(&p) || p.is_nan() {
                return Err(LangError::BadProbability {
                    context: format!("command {ci} of module {}", self.module_name(m)),
                    value: p,
                });
            }
            sum += p;
            // Only exact zeros are dropped: near-zero branches are
            // real probability mass (the detector chains carry
            // ~1e-11 outcomes), and dropping them would both skew
            // results and break row stochasticity.
            if p <= 0.0 {
                continue;
            }
            for a in &u.assigns {
                let info = &self.checked.vars[a.slot];
                let val = self.lowered.eval(&a.value, state)?;
                let context = || format!("assignment to {}", info.name);
                let new = if info.is_bool {
                    i64::from(want_bool(val, context)?)
                } else {
                    want_int(val, context)?
                };
                if new < info.lo || new > info.hi {
                    return Err(LangError::OutOfRange {
                        var: info.name.clone(),
                        value: new,
                        lo: info.lo,
                        hi: info.hi,
                    });
                }
                buf.deltas.push((a.slot, new));
            }
            buf.branches.push((buf.deltas.len(), scale * p));
        }
        if (sum - 1.0).abs() > 1e-6 {
            return Err(LangError::BadDistribution {
                module: self.module_name(m).to_string(),
                command: ci,
                sum,
            });
        }
        Ok(())
    }

    /// The synchronous product of the choices in `buf.pick`, one per
    /// module, applied to `state`: the cartesian combination of their
    /// branches (the last module varying fastest, each mass the running
    /// product in module order), with duplicate successors merged so
    /// downstream consumers see a distribution, not a multiset.
    /// Successors are returned sorted by state vector, which fixes the BFS
    /// state ids (and every exported artifact) across runs, lane counts,
    /// and the DTMC and MDP compilers on the same program; duplicates are
    /// summed in generation order.
    fn combine(state: &[i64], buf: &mut Buffers) -> Vec<(Vec<i64>, f64)> {
        let Buffers {
            deltas,
            branches,
            choices,
            pick,
            cursor,
            prefix,
            succ,
            mass,
            order,
            ..
        } = buf;
        let first = |m: usize| start(choices, pick[m]);
        let last = |m: usize| choices[pick[m]];
        let n = state.len();
        let k = pick.len();
        succ.clear();
        mass.clear();
        if (0..k).all(|m| first(m) < last(m)) {
            cursor.clear();
            cursor.extend((0..k).map(first));
            // `prefix[m]`: the product of the masses of modules `0..m`.
            prefix.clear();
            prefix.resize(k + 1, 1.0);
            let mut from = 0;
            'product: loop {
                for m in from..k {
                    prefix[m + 1] = prefix[m] * branches[cursor[m]].1;
                }
                let base = succ.len();
                succ.extend_from_slice(state);
                for &b in cursor.iter() {
                    let assigns = if b == 0 { 0 } else { branches[b - 1].0 }..branches[b].0;
                    for &(slot, v) in &deltas[assigns] {
                        succ[base + slot] = v;
                    }
                }
                mass.push(prefix[k]);
                // Advance the odometer, the last module fastest; the
                // products are recomputed from the first module that moved.
                let mut m = k;
                loop {
                    if m == 0 {
                        break 'product;
                    }
                    m -= 1;
                    cursor[m] += 1;
                    if cursor[m] < last(m) {
                        break;
                    }
                    cursor[m] = first(m);
                }
                from = m;
            }
        }
        let row = |i: usize| &succ[i * n..(i + 1) * n];
        order.clear();
        order.extend(0..mass.len());
        order.sort_unstable_by(|&a, &b| row(a).cmp(row(b)).then(a.cmp(&b)));
        let unique = 1 + order.windows(2).filter(|w| row(w[0]) != row(w[1])).count();
        let mut out: Vec<(Vec<i64>, f64)> = Vec::with_capacity(unique.min(order.len()));
        for &i in order.iter() {
            match out.last_mut() {
                Some((last, p)) if last.as_slice() == row(i) => *p += mass[i],
                _ => out.push((row(i).to_vec(), mass[i])),
            }
        }
        out
    }

    /// The successor distribution of `state`, or the expansion error that
    /// makes it undefined.
    ///
    /// # Errors
    ///
    /// [`LangError::Deadlock`] (unless stuttering is allowed),
    /// [`LangError::BadDistribution`], [`LangError::BadProbability`],
    /// [`LangError::OutOfRange`], plus any expression-evaluation error.
    pub fn transitions_checked(&self, state: &[i64]) -> Result<Vec<(Vec<i64>, f64)>, LangError> {
        BUFFERS.with(|buf| {
            let buf = &mut *buf.borrow_mut();
            self.gather(state, buf, false)?;
            // One choice per module: its uniform mix.
            buf.pick.clear();
            buf.pick.extend(0..buf.modules.len());
            Ok(Self::combine(state, buf))
        })
    }

    /// The enabled actions of `state` under **MDP semantics**: every
    /// combination of one enabled command per module is one action (the
    /// nondeterministic synchronous product), and each action's
    /// distribution is the product of its commands' update distributions.
    /// Where the DTMC semantics normalizes overlapping guards into a
    /// uniform choice, here the choice is adversarial — `Pmin`/`Pmax`
    /// quantify over it. A module with no enabled command stutters when
    /// [`ExpandOptions::allow_stutter`] is set (contributing a single
    /// identity command to every action) and deadlocks otherwise.
    ///
    /// For single-module programs this coincides with PRISM's MDP
    /// semantics; actions are ordered lexicographically by the source
    /// order of the chosen commands, so action indices are stable.
    ///
    /// # Errors
    ///
    /// As for [`LangModel::transitions_checked`].
    pub fn actions_checked(&self, state: &[i64]) -> Result<Vec<ActionDist>, LangError> {
        BUFFERS.with(|buf| {
            let buf = &mut *buf.borrow_mut();
            self.gather(state, buf, true)?;
            let k = buf.modules.len();
            let n_actions = (0..k)
                .map(|m| buf.modules[m] - start(&buf.modules, m))
                .product();
            let mut actions = Vec::with_capacity(n_actions);
            // Odometer over the command choice of each module, the last
            // module varying fastest.
            buf.pick.clear();
            buf.pick.extend((0..k).map(|m| start(&buf.modules, m)));
            loop {
                actions.push(Self::combine(state, buf));
                let mut m = k;
                loop {
                    if m == 0 {
                        return Ok(actions);
                    }
                    m -= 1;
                    buf.pick[m] += 1;
                    if buf.pick[m] < buf.modules[m] {
                        break;
                    }
                    buf.pick[m] = start(&buf.modules, m);
                }
            }
        })
    }

    /// The program's labels and default reward structure evaluated in
    /// every one of `states`, with the named reward structures stored into
    /// `named` — one helper for both model families. An evaluation failure
    /// (say, a division by zero in a label) is returned as an error, never
    /// panicked on.
    fn labelling(
        &self,
        states: &[Vec<i64>],
        named: &mut BTreeMap<String, Vec<f64>>,
    ) -> Result<Labelling, LangError> {
        let lowered = &self.lowered;
        let mut labels = BTreeMap::new();
        for (decl, body) in self.checked.program.labels.iter().zip(&lowered.labels) {
            let mut bv = BitVec::zeros(states.len());
            for (i, s) in states.iter().enumerate() {
                bv.set(i, lowered.eval(body, s)?.as_bool("label body")?);
            }
            labels.insert(decl.name.clone(), bv);
        }
        let reward_vector = |block: usize| -> Result<Vec<f64>, LangError> {
            let mut out = Vec::with_capacity(states.len());
            for s in states {
                let mut total = 0.0;
                for item in &lowered.rewards[block] {
                    if lowered.eval(&item.guard, s)?.as_bool("reward guard")? {
                        total += lowered.eval(&item.value, s)?.as_double("reward value")?;
                    }
                }
                out.push(total);
            }
            Ok(out)
        };
        let rewards = match lowered.default_rewards {
            Some(block) => reward_vector(block)?,
            None => vec![0.0; states.len()],
        };
        for (block, decl) in self.checked.program.rewards.iter().enumerate() {
            if let Some(name) = &decl.name {
                let v = if Some(block) == lowered.default_rewards {
                    rewards.clone()
                } else {
                    reward_vector(block)?
                };
                named.insert(name.clone(), v);
            }
        }
        Ok((labels, rewards))
    }
}

/// One MDP action (or DTMC step): a distribution over successor state
/// vectors.
pub type ActionDist = Vec<(Vec<i64>, f64)>;

/// Compiles a checked program into an explicit [`Dtmc`] with default
/// options.
///
/// # Errors
///
/// Any expansion error; see [`LangModel::transitions_checked`]. Also
/// [`LangError::Dtmc`] if the enumerated space exceeds
/// [`ExpandOptions::max_states`].
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), smg_lang::LangError> {
/// let program = smg_lang::parse(
///     "module coin
///        heads : bool;
///        [] true -> 0.5:(heads'=true) + 0.5:(heads'=false);
///      endmodule
///      label \"h\" = heads;",
/// )?;
/// let compiled = smg_lang::compile(smg_lang::check(program)?)?;
/// assert_eq!(compiled.dtmc.n_states(), 2); // heads=false (also init), heads=true
/// # Ok(())
/// # }
/// ```
pub fn compile(checked: CheckedProgram) -> Result<CompiledModel, LangError> {
    compile_with(checked, ExpandOptions::default())
}

/// Compiles with explicit options.
///
/// # Errors
///
/// As for [`compile`].
pub fn compile_with(
    checked: CheckedProgram,
    options: ExpandOptions,
) -> Result<CompiledModel, LangError> {
    if checked.program.model_type == ModelType::Mdp {
        return Err(LangError::WrongModelType {
            declared: "mdp",
            hint: "use compile_mdp (or the CLI, which dispatches on the header)",
        });
    }
    let model = LangModel::with_options(checked, options);
    let mut named_rewards = BTreeMap::new();
    let explored = smg_dtmc::try_explore(
        vec![(model.initial_state(), 1.0)],
        |s: &Vec<i64>| model.transitions_checked(s),
        |states| model.labelling(states, &mut named_rewards),
        &ExploreOptions::default().with_max_states(options.max_states),
    )?;
    Ok(CompiledModel {
        dtmc: explored.dtmc,
        var_names: model.var_names(),
        states: explored.states,
        named_rewards,
    })
}

/// The result of compiling an `mdp` program: the explicit MDP plus the
/// same name↔state bookkeeping as [`CompiledModel`].
#[derive(Debug, Clone)]
pub struct CompiledMdp {
    /// The explicit MDP. Labels carry the program's `label` declarations;
    /// the reward vector is the default reward structure.
    pub mdp: Mdp,
    /// Variable names in state-vector order.
    pub var_names: Vec<String>,
    /// The concrete variable assignment of every explored state, indexed
    /// by [`smg_dtmc::StateId`].
    pub states: Vec<Vec<i64>>,
    /// Named reward structures (`rewards "name" ...`), as dense vectors.
    pub named_rewards: BTreeMap<String, Vec<f64>>,
}

impl CompiledMdp {
    /// A reward structure by name; `None` requests the default (unnamed)
    /// structure, which is also baked into [`CompiledMdp::mdp`].
    pub fn reward_vector(&self, name: Option<&str>) -> Option<&[f64]> {
        match name {
            None => Some(self.mdp.rewards()),
            Some(n) => self.named_rewards.get(n).map(Vec::as_slice),
        }
    }

    /// Renders a state as `{x=1, b=false}` for diagnostics.
    pub fn render_state(&self, id: smg_dtmc::StateId) -> String {
        render_assignment(&self.var_names, &self.states[id as usize])
    }
}

/// Compiles a checked program into an explicit [`Mdp`] with default
/// options, under the MDP semantics of [`LangModel::actions_checked`].
///
/// Accepts programs of either declared model type: compiling a `dtmc`
/// program here reinterprets its overlapping guards as nondeterministic
/// (useful to ask "what if the uniform choice were adversarial?"), while
/// [`compile`] rejects `mdp` programs outright — collapsing declared
/// nondeterminism into coin flips silently is never what the model meant.
///
/// # Errors
///
/// Any expansion error; see [`LangModel::actions_checked`]. Also
/// [`LangError::Dtmc`] if the enumerated space exceeds
/// [`ExpandOptions::max_states`].
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), smg_lang::LangError> {
/// let program = smg_lang::parse(
///     "mdp
///      module chan
///        err : bool init false;
///        [] !err -> 0.01:(err'=true) + 0.99:(err'=false); // quiet regime
///        [] !err -> 0.2:(err'=true) + 0.8:(err'=false);   // bursty regime
///        [] err  -> true;
///      endmodule
///      label \"err\" = err;",
/// )?;
/// let compiled = smg_lang::compile_mdp(smg_lang::check(program)?)?;
/// assert_eq!(compiled.mdp.n_states(), 2);
/// assert_eq!(compiled.mdp.action_count(0), 2); // the adversary's regimes
/// # Ok(())
/// # }
/// ```
pub fn compile_mdp(checked: CheckedProgram) -> Result<CompiledMdp, LangError> {
    compile_mdp_with(checked, ExpandOptions::default())
}

/// Compiles to an explicit [`Mdp`] with explicit options.
///
/// # Errors
///
/// As for [`compile_mdp`].
pub fn compile_mdp_with(
    checked: CheckedProgram,
    options: ExpandOptions,
) -> Result<CompiledMdp, LangError> {
    let model = LangModel::with_options(checked, options);
    let mut named_rewards = BTreeMap::new();
    let explored = smg_mdp::try_explore(
        vec![(model.initial_state(), 1.0)],
        |s: &Vec<i64>| model.actions_checked(s),
        |states| model.labelling(states, &mut named_rewards),
        &ExploreOptions::default().with_max_states(options.max_states),
    )?;
    Ok(CompiledMdp {
        mdp: explored.mdp,
        var_names: model.var_names(),
        states: explored.states,
        named_rewards,
    })
}

/// The result of compiling a program of *either* model type: the explicit
/// model as an [`AnyModel`] plus the shared name↔state bookkeeping.
/// Produced by [`compile_any`], consumed by
/// [`smg_pctl::session::CheckSession`] (which accepts an `AnyModel`
/// directly via the `From` impl below).
#[derive(Debug, Clone)]
pub struct CompiledAny {
    /// The explicit model — a chain for `dtmc` programs, an MDP for `mdp`
    /// programs.
    pub model: AnyModel,
    /// Variable names in state-vector order.
    pub var_names: Vec<String>,
    /// The concrete variable assignment of every explored state, indexed
    /// by [`smg_dtmc::StateId`].
    pub states: Vec<Vec<i64>>,
    /// Named reward structures (`rewards "name" ...`), as dense vectors.
    pub named_rewards: BTreeMap<String, Vec<f64>>,
}

impl CompiledAny {
    /// Renders a state as `{x=1, b=false}` for diagnostics.
    pub fn render_state(&self, id: smg_dtmc::StateId) -> String {
        render_assignment(&self.var_names, &self.states[id as usize])
    }
}

impl From<CompiledAny> for AnyModel {
    fn from(c: CompiledAny) -> AnyModel {
        c.model
    }
}

/// Compiles a checked program into an [`AnyModel`], dispatching on the
/// program's declared model type: `dtmc` programs become explicit chains
/// (exactly as [`compile`]), `mdp` programs explicit MDPs (exactly as
/// [`compile_mdp`]). This is the entry point for callers that don't care
/// which family the model file declares — it replaces the
/// pick-an-entry-point-and-handle-[`LangError::WrongModelType`] dance with
/// a value [`smg_pctl::session::CheckSession`] accepts directly.
///
/// # Errors
///
/// As for [`compile`] / [`compile_mdp`] respectively — but never
/// [`LangError::WrongModelType`].
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use smg_pctl::{parse_property, CheckSession};
///
/// let program = smg_lang::parse(
///     "mdp
///      module chan
///        err : bool init false;
///        [] !err -> 0.01:(err'=true) + 0.99:(err'=false);
///        [] !err -> 0.2:(err'=true) + 0.8:(err'=false);
///        [] err  -> true;
///      endmodule
///      label \"err\" = err;",
/// )?;
/// let compiled = smg_lang::compile_any(smg_lang::check(program)?)?;
/// assert_eq!(compiled.model.kind(), "mdp");
/// let session = CheckSession::new(compiled.model);
/// let worst = session.check(&parse_property("Pmax=? [ F<=10 err ]")?)?;
/// assert!(worst.value() > 0.5);
/// # Ok(())
/// # }
/// ```
pub fn compile_any(checked: CheckedProgram) -> Result<CompiledAny, LangError> {
    compile_any_with(checked, ExpandOptions::default())
}

/// Compiles to an [`AnyModel`] with explicit options.
///
/// # Errors
///
/// As for [`compile_any`].
pub fn compile_any_with(
    checked: CheckedProgram,
    options: ExpandOptions,
) -> Result<CompiledAny, LangError> {
    match checked.program.model_type {
        crate::ast::ModelType::Dtmc => {
            let c = compile_with(checked, options)?;
            Ok(CompiledAny {
                model: AnyModel::Dtmc(c.dtmc),
                var_names: c.var_names,
                states: c.states,
                named_rewards: c.named_rewards,
            })
        }
        crate::ast::ModelType::Mdp => {
            let c = compile_mdp_with(checked, options)?;
            Ok(CompiledAny {
                model: AnyModel::Mdp(c.mdp),
                var_names: c.var_names,
                states: c.states,
                named_rewards: c.named_rewards,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::check;
    use crate::parser::parse;

    fn compiled(src: &str) -> Result<CompiledModel, LangError> {
        compile(check(parse(src).unwrap())?)
    }

    fn compiled_mdp(src: &str) -> Result<CompiledMdp, LangError> {
        compile_mdp(check(parse(src).unwrap())?)
    }

    #[test]
    fn coin_flip_has_three_states() {
        let m = compiled(
            "module coin
               heads : bool;
               [] true -> 0.5:(heads'=true) + 0.5:(heads'=false);
             endmodule
             label \"h\" = heads;",
        )
        .unwrap();
        assert_eq!(m.dtmc.n_states(), 2); // heads=false (init, revisited), heads=true
        assert_eq!(m.dtmc.label("h").unwrap().count_ones(), 1);
    }

    #[test]
    fn knuth_yao_die_is_uniform() {
        // The classic fair-coin-to-die chain: 13 states, each face 1/6.
        let m = compiled(
            "module die
               s : [0..7] init 0;
               d : [0..6] init 0;
               [] s=0 -> 0.5:(s'=1) + 0.5:(s'=2);
               [] s=1 -> 0.5:(s'=3) + 0.5:(s'=4);
               [] s=2 -> 0.5:(s'=5) + 0.5:(s'=6);
               [] s=3 -> 0.5:(s'=1) + 0.5:(s'=7)&(d'=1);
               [] s=4 -> 0.5:(s'=7)&(d'=2) + 0.5:(s'=7)&(d'=3);
               [] s=5 -> 0.5:(s'=7)&(d'=4) + 0.5:(s'=7)&(d'=5);
               [] s=6 -> 0.5:(s'=2) + 0.5:(s'=7)&(d'=6);
               [] s=7 -> (s'=7);
             endmodule
             label \"done\" = s=7;",
        )
        .unwrap();
        assert_eq!(m.dtmc.n_states(), 13);
        // Forward-propagate long enough to absorb: each face gets 1/6.
        let pi = smg_dtmc::transient::distribution_at(&m.dtmc, 100);
        for face in 1..=6i64 {
            let mass: f64 = m
                .states
                .iter()
                .enumerate()
                .filter(|(_, s)| s[0] == 7 && s[1] == face)
                .map(|(i, _)| pi[i])
                .sum();
            assert!((mass - 1.0 / 6.0).abs() < 1e-9, "face {face}: {mass}");
        }
    }

    #[test]
    fn unassigned_variables_keep_their_values() {
        let m = compiled(
            "module m
               x : [0..1] init 1;
               y : [0..1] init 0;
               [] true -> (y'=1-y);
             endmodule",
        )
        .unwrap();
        assert!(m.states.iter().all(|s| s[0] == 1));
    }

    #[test]
    fn two_modules_step_synchronously() {
        // Two independent toggles: the product chain alternates both bits
        // together — 2 reachable states, not 4.
        let m = compiled(
            "module a x : bool init false; [] true -> (x'=!x); endmodule
             module b y : bool init false; [] true -> (y'=!y); endmodule",
        )
        .unwrap();
        assert_eq!(m.dtmc.n_states(), 2);
        assert!(m.states.contains(&vec![0, 0]) && m.states.contains(&vec![1, 1]));
    }

    #[test]
    fn synchronous_probabilities_multiply() {
        let m = compiled(
            "module a x : bool; [] true -> 0.5:(x'=true) + 0.5:(x'=false); endmodule
             module b y : bool; [] true -> 0.5:(y'=true) + 0.5:(y'=false); endmodule",
        )
        .unwrap();
        // From the initial state, four successors each with mass 1/4.
        let row: Vec<(u32, f64)> = m.dtmc.matrix().successors(0);
        assert_eq!(row.len(), 4);
        for (_, p) in row {
            assert!((p - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn overlapping_guards_make_a_uniform_choice() {
        // Both commands enabled: uniform 1/2 over them, times their update
        // distributions.
        let m = compiled(
            "module m
               x : [0..2] init 0;
               [] x=0 -> (x'=1);
               [] x=0 -> (x'=2);
               [] x>0 -> (x'=x);
             endmodule",
        )
        .unwrap();
        let row = m.dtmc.matrix().successors(0);
        assert_eq!(row.len(), 2);
        for (_, p) in row {
            assert!((p - 0.5).abs() < 1e-12);
        }
    }

    #[test]
    fn deadlock_is_reported_with_state() {
        let err = compiled(
            "module m
               x : [0..1] init 0;
               [] x=0 -> (x'=1);
             endmodule",
        )
        .unwrap_err();
        let LangError::Deadlock { module, state } = err else {
            panic!("expected deadlock, got {err}");
        };
        assert_eq!(module, "m");
        assert!(state.contains("x=1"));
    }

    #[test]
    fn stutter_option_turns_deadlock_into_self_loop() {
        let cp = check(
            parse(
                "module m
               x : [0..1] init 0;
               [] x=0 -> (x'=1);
             endmodule",
            )
            .unwrap(),
        )
        .unwrap();
        let m = compile_with(
            cp,
            ExpandOptions {
                allow_stutter: true,
                ..ExpandOptions::default()
            },
        )
        .unwrap();
        assert_eq!(m.dtmc.n_states(), 2);
        assert_eq!(m.dtmc.matrix().successors(1), vec![(1, 1.0)]);
    }

    #[test]
    fn bad_distribution_is_rejected() {
        let err =
            compiled("module m x : bool; [] true -> 0.5:(x'=true) + 0.4:(x'=false); endmodule")
                .unwrap_err();
        assert!(matches!(err, LangError::BadDistribution { sum, .. } if (sum - 0.9).abs() < 1e-12));
    }

    #[test]
    fn negative_probability_is_rejected() {
        let err = compiled(
            "const double p = -0.25;
             module m x : bool; [] true -> p:(x'=true) + (1-p):(x'=false); endmodule",
        )
        .unwrap_err();
        assert!(matches!(err, LangError::BadProbability { .. }));
    }

    #[test]
    fn out_of_range_update_is_rejected_with_details() {
        let err =
            compiled("module m x : [0..3] init 0; [] true -> (x'=x+1); endmodule").unwrap_err();
        assert!(
            matches!(err, LangError::OutOfRange { ref var, value: 4, lo: 0, hi: 3 } if var == "x")
        );
    }

    #[test]
    fn state_cap_is_enforced() {
        let cp = check(
            parse("module m x : [0..1000000] init 0; [] true -> (x'=min(x+1, 1000000)); endmodule")
                .unwrap(),
        )
        .unwrap();
        let err = compile_with(
            cp,
            ExpandOptions {
                max_states: 100,
                ..ExpandOptions::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, LangError::Dtmc(ref m) if m.contains("max_states")));
    }

    #[test]
    fn rewards_default_and_named() {
        let m = compiled(
            "module m
               x : [0..1] init 0;
               [] true -> (x'=1-x);
             endmodule
             rewards x=1 : 1; endrewards
             rewards \"double\" x=1 : 2; true : 0.5; endrewards",
        )
        .unwrap();
        let def = m.reward_vector(None).unwrap();
        let dbl = m.reward_vector(Some("double")).unwrap();
        for (i, s) in m.states.iter().enumerate() {
            if s[0] == 1 {
                assert_eq!(def[i], 1.0);
                assert_eq!(dbl[i], 2.5);
            } else {
                assert_eq!(def[i], 0.0);
                assert_eq!(dbl[i], 0.5);
            }
        }
        assert!(m.reward_vector(Some("missing")).is_none());
    }

    #[test]
    fn langmodel_expands_states_and_reports_errors_as_values() {
        let cp = check(
            parse(
                "module m
               x : [0..1] init 0;
               [] true -> 0.5:(x'=0) + 0.5:(x'=1);
             endmodule
             label \"one\" = x=1;",
            )
            .unwrap(),
        )
        .unwrap();
        let lm = LangModel::new(cp);
        assert_eq!(lm.initial_state(), vec![0]);
        assert_eq!(
            lm.transitions_checked(&[0]).unwrap(),
            vec![(vec![0], 0.5), (vec![1], 0.5)]
        );
        let (labels, _) = lm
            .labelling(&[vec![0], vec![1]], &mut BTreeMap::new())
            .unwrap();
        assert_eq!(labels["one"].iter_ones().collect::<Vec<_>>(), vec![1]);

        // A deadlock is an error naming the state, not a panic.
        let lm = LangModel::new(
            check(parse("module m x : [0..1] init 0; [] x=0 -> (x'=1); endmodule").unwrap())
                .unwrap(),
        );
        let err = lm.transitions_checked(&[1]).unwrap_err();
        assert!(matches!(err, LangError::Deadlock { ref state, .. } if state == "{x=1}"));
    }

    #[test]
    fn label_evaluation_errors_are_values() {
        let err = compiled(
            "module m x : [0..2] init 0; [] true -> (x'=mod(x+1, 3)); endmodule
             label \"bad\" = 1/(x-2) > 0;",
        )
        .unwrap_err();
        assert!(matches!(err, LangError::DivisionByZero { .. }), "{err}");
    }

    #[test]
    fn render_state_names_variables() {
        let m =
            compiled("module m x : [0..2] init 2; b : bool init true; [] true -> true; endmodule")
                .unwrap();
        assert_eq!(m.render_state(0), "{x=2, b=1}");
    }

    const REGIME_MDP: &str = r#"
        mdp
        module chan
          err : bool init false;
          [] !err -> 0.01:(err'=true) + 0.99:(err'=false);
          [] !err -> 0.2:(err'=true) + 0.8:(err'=false);
          [] err  -> true;
        endmodule
        label "err" = err;
        rewards err : 1; endrewards
    "#;

    #[test]
    fn mdp_overlapping_guards_become_actions() {
        let m = compiled_mdp(REGIME_MDP).unwrap();
        assert_eq!(m.mdp.n_states(), 2);
        assert_eq!(m.mdp.action_count(0), 2);
        assert_eq!(m.mdp.action_count(1), 1);
        // Action 0 is the first enabled command in source order.
        let a0: Vec<_> = m.mdp.action_row(0, 0).collect();
        let one = m.states.iter().position(|s| s[0] == 1).unwrap() as u32;
        assert!(a0
            .iter()
            .any(|&(c, p)| c == one && (p - 0.01).abs() < 1e-12));
        let a1: Vec<_> = m.mdp.action_row(0, 1).collect();
        assert!(a1.iter().any(|&(c, p)| c == one && (p - 0.2).abs() < 1e-12));
        assert_eq!(m.mdp.label("err").unwrap().count_ones(), 1);
        assert_eq!(m.mdp.rewards()[one as usize], 1.0);
        assert_eq!(m.render_state(0), "{err=0}");
    }

    #[test]
    fn mdp_multi_module_actions_are_command_combinations() {
        // Module a has 2 enabled commands, module b has 1: 2 actions, each
        // the synchronous product of its command choice.
        let m = compiled_mdp(
            "mdp
             module a x : bool; [] true -> (x'=true); [] true -> (x'=false); endmodule
             module b y : bool; [] true -> 0.5:(y'=true) + 0.5:(y'=false); endmodule",
        )
        .unwrap();
        assert_eq!(m.mdp.action_count(0), 2);
        for a in 0..2 {
            let row: Vec<_> = m.mdp.action_row(0, a).collect();
            assert_eq!(row.len(), 2, "each action splits only on b's coin");
            assert!(row.iter().all(|&(_, p)| (p - 0.5).abs() < 1e-12));
        }
    }

    #[test]
    fn mdp_deadlock_and_stutter() {
        let src = "mdp
             module m x : [0..1] init 0; [] x=0 -> (x'=1); endmodule";
        let err = compiled_mdp(src).unwrap_err();
        assert!(matches!(err, LangError::Deadlock { .. }));
        let m = compile_mdp_with(
            check(parse(src).unwrap()).unwrap(),
            ExpandOptions {
                allow_stutter: true,
                ..ExpandOptions::default()
            },
        )
        .unwrap();
        assert_eq!(m.mdp.n_states(), 2);
        assert_eq!(m.mdp.action_row(1, 0).collect::<Vec<_>>(), vec![(1, 1.0)]);
    }

    #[test]
    fn compile_rejects_mdp_programs_and_vice_versa_works() {
        let err = compiled(REGIME_MDP).unwrap_err();
        assert!(matches!(err, LangError::WrongModelType { .. }));
        // compile_mdp on a dtmc-typed program reinterprets the uniform
        // choice as nondeterministic.
        let m = compiled_mdp(
            "dtmc
             module m
               x : [0..2] init 0;
               [] x=0 -> (x'=1);
               [] x=0 -> (x'=2);
               [] x>0 -> (x'=x);
             endmodule",
        )
        .unwrap();
        assert_eq!(m.mdp.action_count(0), 2);
    }

    #[test]
    fn mdp_single_command_program_matches_dtmc_compile() {
        // With exactly one enabled command everywhere, the MDP is the DTMC
        // with one action per state.
        let src = "module die
               s : [0..3] init 0;
               [] s=0 -> 0.5:(s'=1) + 0.5:(s'=2);
               [] s>0 -> (s'=min(s+1, 3));
             endmodule
             label \"end\" = s=3;";
        let d = compiled(src).unwrap();
        let m = compiled_mdp(src).unwrap();
        assert_eq!(m.mdp.n_states(), d.dtmc.n_states());
        assert_eq!(m.mdp.n_choices(), d.dtmc.n_states());
        assert_eq!(m.states, d.states);
        for s in 0..d.dtmc.n_states() {
            assert_eq!(
                m.mdp.action_row(s, 0).collect::<Vec<_>>(),
                d.dtmc.matrix().successors(s),
                "state {s}"
            );
        }
    }

    #[test]
    fn mdp_named_rewards_and_state_cap() {
        let m = compiled_mdp(
            "mdp
             module m x : [0..1] init 0; [] true -> (x'=1-x); endmodule
             rewards x=1 : 1; endrewards
             rewards \"double\" x=1 : 2; endrewards",
        )
        .unwrap();
        assert_eq!(m.reward_vector(None).unwrap().iter().sum::<f64>(), 1.0);
        assert_eq!(
            m.reward_vector(Some("double")).unwrap().iter().sum::<f64>(),
            2.0
        );
        assert!(m.reward_vector(Some("missing")).is_none());
        let err = compile_mdp_with(
            check(
                parse("mdp module m x : [0..100000] init 0; [] true -> (x'=min(x+1,100000)); endmodule")
                    .unwrap(),
            )
            .unwrap(),
            ExpandOptions {
                max_states: 50,
                ..ExpandOptions::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, LangError::Dtmc(ref s) if s.contains("max_states")));
    }

    #[test]
    fn formulas_are_usable_in_guards_and_labels() {
        let m = compiled(
            "formula at_top = x=2;
             module m
               x : [0..2] init 0;
               [] !at_top -> (x'=x+1);
               [] at_top -> (x'=0);
             endmodule
             label \"top\" = at_top;",
        )
        .unwrap();
        assert_eq!(m.dtmc.n_states(), 3);
        assert_eq!(m.dtmc.label("top").unwrap().count_ones(), 1);
    }

    #[test]
    fn compile_any_dispatches_on_the_header() {
        let dtmc_src = "dtmc
             module m
               x : bool init false;
               [] true -> 0.5:(x'=true) + 0.5:(x'=false);
             endmodule
             label \"x\" = x;";
        let any = compile_any(check(parse(dtmc_src).unwrap()).unwrap()).unwrap();
        assert_eq!(any.model.kind(), "dtmc");
        assert_eq!(any.model.n_states(), 2);
        assert_eq!(any.var_names, vec!["x"]);
        assert_eq!(any.render_state(0), "{x=0}");
        // Same program, mdp header: the model comes out nondeterministic,
        // and the bookkeeping matches the dedicated entry point's.
        let mdp_src = "mdp
             module m
               x : bool init false;
               [] !x -> 0.5:(x'=true) + 0.5:(x'=false);
               [] !x -> (x'=true);
               [] x -> true;
             endmodule
             label \"x\" = x;";
        let any = compile_any(check(parse(mdp_src).unwrap()).unwrap()).unwrap();
        assert_eq!(any.model.kind(), "mdp");
        let dedicated = compiled_mdp(mdp_src).unwrap();
        assert_eq!(any.states, dedicated.states);
        assert_eq!(
            any.model.as_mdp().unwrap().n_choices(),
            dedicated.mdp.n_choices()
        );
        // No WrongModelType dance in either direction.
        let model: AnyModel = any.into();
        assert!(model.is_mdp());
    }
}
