//! # smg-cli — a command-line front end for the workspace's model checker
//!
//! `smg` plays the role PRISM's command line plays in the paper's
//! workflow: it takes a guarded-command model file and pCTL property
//! strings, and prints state counts, timings and results in the shape of
//! the paper's tables.
//!
//! ```text
//! smg check model.sm --prop 'P=? [ G<=300 !err ]' --prop 'R=? [ I=300 ]'
//! smg check worst.sm --prop 'Pmax=? [ F<=300 err ]'   # mdp model
//! smg lint model.sm --format json
//! smg info model.sm
//! smg export model.sm --format tra
//! smg steady model.sm
//! smg sim model.sm --steps 100000 --seed 7
//! ```
//!
//! The crate is a thin library ([`run`]) plus a `main` wrapper so that the
//! command logic is unit-testable without spawning processes.

use smg_dtmc::export::{to_lab, to_srew};
use smg_dtmc::{graph, par, transient, Dtmc};
use smg_lang::{check, compile_any_with, parse};
use smg_obs::{self as obs, json};
use smg_pctl::{parse_property, AnyModel, CacheStats, CheckResult, CheckSession, Property};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

mod args;
mod sim;

pub use args::{parse_args, Cmd, Options, OutputFormat, USAGE};
pub use sim::{simulate_rewards, SimResult};

/// Exit-status-bearing error for the CLI: a message for stderr.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

impl From<smg_lang::LangError> for CliError {
    fn from(e: smg_lang::LangError) -> Self {
        CliError(format!("model error: {e}"))
    }
}

impl From<smg_pctl::PctlError> for CliError {
    fn from(e: smg_pctl::PctlError) -> Self {
        CliError(format!("property error: {e}"))
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError(format!("io error: {e}"))
    }
}

impl From<smg_dtmc::DtmcError> for CliError {
    fn from(e: smg_dtmc::DtmcError) -> Self {
        CliError(format!("model error: {e}"))
    }
}

/// A model loaded by the CLI — either compiled from guarded-command
/// source (`dtmc` or `mdp` header) or imported from PRISM explicit files.
/// The model itself is the checker's [`AnyModel`], so every command
/// dispatches on the family through one type.
#[derive(Debug, Clone)]
pub struct Loaded {
    /// The explicit model.
    pub model: AnyModel,
    /// Variable names (guarded-command models only).
    pub var_names: Vec<String>,
}

/// Executes a parsed command against the filesystem and returns what
/// should be printed to stdout.
///
/// # Errors
///
/// [`CliError`] with a user-facing message (unreadable file, model or
/// property errors, unknown export format).
pub fn run(cmd: &Cmd) -> Result<String, CliError> {
    match cmd {
        Cmd::Help => Ok(USAGE.to_string()),
        Cmd::Check {
            model,
            props,
            prop_files,
            certified,
            format,
            metrics,
            trace_convergence,
            options,
        } => {
            // `--metrics` / `--trace-convergence` install scoped recorders
            // around the whole load + check run, so exploration, solver,
            // pool and session-cache instruments all land in them. All
            // engine work dispatches from this thread, so a thread-local
            // recorder sees the run without touching process-global state.
            let registry = metrics.map(|_| Arc::new(obs::Registry::new()));
            let trace_sink = trace_convergence
                .as_deref()
                .map(|path| {
                    let file = std::fs::File::create(path)
                        .map_err(|e| CliError(format!("cannot write {path}: {e}")))?;
                    Ok::<_, CliError>(Arc::new(obs::JsonLines::new(std::io::BufWriter::new(file))))
                })
                .transpose()?;
            let mut recorders: Vec<Arc<dyn obs::Recorder>> = Vec::new();
            if let Some(r) = &registry {
                recorders.push(r.clone() as Arc<dyn obs::Recorder>);
            }
            if let Some(t) = &trace_sink {
                recorders.push(t.clone() as Arc<dyn obs::Recorder>);
            }
            let body = || run_check(model, props, prop_files, certified, *format, options);
            let out = if recorders.is_empty() {
                body()
            } else {
                obs::with_recorder(Arc::new(obs::Fanout::new(recorders)), body)
            };
            let mut out = out?;
            if let Some(t) = &trace_sink {
                t.flush()?;
            }
            if let (Some(fmt), Some(r)) = (metrics, &registry) {
                out.push('\n');
                out.push_str(&match fmt {
                    OutputFormat::Text => r.render_text(),
                    OutputFormat::Json => r.render_json(),
                });
            }
            Ok(out)
        }
        Cmd::Info { model, options } => {
            let (compiled, build_time) = load(model, options)?;
            let mut out = model_header(&compiled.model, build_time);
            if !compiled.var_names.is_empty() {
                let _ = writeln!(out, "Variables: {}", compiled.var_names.join(", "));
            }
            match &compiled.model {
                AnyModel::Dtmc(d) => {
                    let mut names = d.label_names();
                    names.sort_unstable();
                    for name in names {
                        let _ = writeln!(
                            out,
                            "Label \"{name}\": {} states",
                            d.label(name).expect("listed").count_ones()
                        );
                    }
                    let bsccs = graph::bsccs(d);
                    let _ = writeln!(out, "BSCCs: {}", bsccs.len());
                    let cond = graph::Condensation::new(d);
                    let _ = writeln!(
                        out,
                        "SCCs: {} (largest {} states, condensation depth {})",
                        cond.n_components(),
                        cond.largest(),
                        cond.dag_depth()
                    );
                    let _ = writeln!(out, "Irreducible: {}", graph::is_irreducible(d));
                    match graph::period(d) {
                        Some(p) => {
                            let _ = writeln!(out, "Period: {p}");
                        }
                        None => {
                            let _ = writeln!(out, "Period: undefined (reducible chain)");
                        }
                    }
                    let _ = writeln!(out, "Ergodic: {}", graph::is_ergodic(d));
                }
                AnyModel::Mdp(m) => {
                    let mut names = m.label_names();
                    names.sort_unstable();
                    for name in names {
                        let _ = writeln!(
                            out,
                            "Label \"{name}\": {} states",
                            m.label(name).expect("listed").count_ones()
                        );
                    }
                    let _ = writeln!(out, "Max actions per state: {}", m.max_action_count());
                    let _ = writeln!(
                        out,
                        "Mean actions per state: {:.3}",
                        m.n_choices() as f64 / m.n_states().max(1) as f64
                    );
                    let cond = smg_mdp::qual::condensation(m);
                    let _ = writeln!(
                        out,
                        "SCCs: {} (largest {} states, condensation depth {})",
                        cond.n_components(),
                        cond.largest(),
                        cond.dag_depth()
                    );
                }
            }
            let dispatch = match par::env_min_rows() {
                Some(rows) => format!("parallel above {rows} rows (SMG_PAR_MIN_ROWS)"),
                None => "parallel where measured faster".to_string(),
            };
            let _ = writeln!(
                out,
                "Engine: {} worker lanes, {dispatch}",
                par::max_threads()
            );
            let _ = writeln!(
                out,
                "Solvers: transient (bounded, exact arithmetic); value-iteration \
                 (unbounded, SCC-ordered on the condensation above, residual test per \
                 component; S=? from the BSCCs); interval-iteration (unbounded, certified \
                 on the same condensation — `check --certified EPS`)"
            );
            Ok(out)
        }
        Cmd::Lint {
            model,
            format,
            deny_warnings,
            options,
        } => {
            if model.ends_with(".tra") {
                return Err(CliError(
                    "lint analyses guarded-command source (.sm), not explicit .tra files".into(),
                ));
            }
            let checked = load_checked(model, options)?;
            let report = smg_lint::lint_with(&checked, &lint_options(options));
            let rendered = match format {
                OutputFormat::Text => report.render_text(model),
                OutputFormat::Json => report.render_json(),
            };
            let failing =
                report.error_count() > 0 || (*deny_warnings && report.warning_count() > 0);
            if failing {
                // Findings land on stderr and the exit status is nonzero,
                // so `smg lint` gates CI the way compilers do.
                Err(CliError(rendered))
            } else {
                Ok(rendered)
            }
        }
        Cmd::Export {
            model,
            format,
            out,
            options,
        } => {
            let (compiled, _) = load(model, options)?;
            let text = match (&compiled.model, format.as_str()) {
                (AnyModel::Dtmc(d), "tra") => smg_dtmc::export::to_tra(d),
                (AnyModel::Dtmc(d), "lab") => to_lab(d.n_states(), d.initial(), d.labels()),
                (AnyModel::Dtmc(d), "srew") => to_srew(d.rewards()),
                (AnyModel::Dtmc(d), "pm") => smg_lang::program_text(d),
                (AnyModel::Dtmc(d), "dot") => smg_dtmc::export::to_dot(d),
                (AnyModel::Mdp(m), "tra") => smg_mdp::export::to_tra(m),
                (AnyModel::Mdp(m), "lab") => to_lab(m.n_states(), m.initial(), m.labels()),
                (AnyModel::Mdp(m), "srew") => to_srew(m.rewards()),
                (AnyModel::Mdp(_), other @ ("pm" | "dot")) => {
                    return Err(CliError(format!(
                        "format {other:?} is not supported for mdp models \
                         (expected tra, lab or srew)"
                    )))
                }
                (_, other) => {
                    return Err(CliError(format!(
                        "unknown export format {other:?} (expected tra, lab, srew, pm or dot)"
                    )))
                }
            };
            match out {
                Some(path) => {
                    std::fs::write(path, &text)?;
                    Ok(format!("wrote {} bytes to {path}\n", text.len()))
                }
                None => Ok(text),
            }
        }
        Cmd::Steady {
            model,
            tol,
            max_steps,
            options,
        } => {
            let (compiled, build_time) = load(model, options)?;
            let d = require_dtmc(
                &compiled,
                "steady",
                "long-run behaviour of an mdp is scheduler-dependent",
            )?;
            let mut out = model_header(&compiled.model, build_time);
            let steady = transient::detect_steady_state(d, *tol, *max_steps);
            match steady.converged_at {
                Some(t) => {
                    let _ = writeln!(out, "Steady state detected at step {t}");
                    let _ = writeln!(
                        out,
                        "Long-run expected reward (BER read-out): {}",
                        fmt_value(steady.expected_reward(d))
                    );
                }
                None => {
                    let _ = writeln!(
                        out,
                        "No steady state within {max_steps} steps at tolerance {tol:e}"
                    );
                }
            }
            Ok(out)
        }
        Cmd::Sim {
            model,
            steps,
            seed,
            options,
        } => {
            let (compiled, build_time) = load(model, options)?;
            let d = require_dtmc(
                &compiled,
                "sim",
                "resolve the nondeterminism first: check Pmin/Pmax, or sample under \
                 a scheduler with smg-sim's estimate_mdp",
            )?;
            let mut out = model_header(&compiled.model, build_time);
            let r = simulate_rewards(d, *steps, *seed);
            let _ = writeln!(out, "Simulated steps: {}", r.steps);
            let _ = writeln!(out, "Mean state reward: {}", fmt_value(r.mean));
            let _ = writeln!(
                out,
                "95% CI: [{}, {}] (Wald)",
                fmt_value(r.ci_low),
                fmt_value(r.ci_high)
            );
            let _ = writeln!(out, "Nonzero-reward steps: {}", r.hits);
            Ok(out)
        }
        Cmd::Serve {
            addr,
            capacity,
            ttl,
        } => {
            // The daemon prints its listening line itself (main only
            // prints after run returns, which for serve is shutdown) and
            // installs a process-global recorder so pool-worker events
            // land in /metrics too.
            let config = smg_serve::ServerConfig {
                addr: addr.clone(),
                capacity: *capacity,
                ttl: ttl.map(std::time::Duration::from_secs_f64),
                install_global: true,
                ..smg_serve::ServerConfig::default()
            };
            let mut stdout = std::io::stdout();
            smg_serve::run_blocking(config, &mut stdout)
                .map_err(|e| CliError(format!("serve: {e}")))?;
            Ok(String::new())
        }
    }
}

/// The `check` command proper: load, parse properties, run one shared
/// session, render. Factored out of [`run`] so the observability wrapper
/// can scope recorders around the whole thing.
fn run_check(
    model: &str,
    props: &[String],
    prop_files: &[String],
    certified: &Option<f64>,
    format: OutputFormat,
    options: &Options,
) -> Result<String, CliError> {
    let (compiled, build_time) = load(model, options)?;
    let mut prop_texts = props.to_vec();
    for file in prop_files {
        prop_texts.extend(read_props_file(file)?);
    }
    if prop_texts.is_empty() {
        return Err(CliError(
            "no properties to check (the --props files contain none)".into(),
        ));
    }
    let properties = prop_texts
        .iter()
        .map(|p| parse_property(p).map_err(CliError::from))
        .collect::<Result<Vec<_>, _>>()?;
    // One session for the whole batch: related properties share
    // satisfaction sets, reachability solves and certified
    // brackets. The session takes the model (no copy); the
    // header/JSON stats read it back through `session.model()`.
    let mut session = CheckSession::new(compiled.model);
    if let Some(eps) = certified {
        session = session.certified(*eps);
    }
    let results = session.check_all(&properties)?;
    // Engine-configuration facts every metrics run carries, even when
    // every dispatch stays sequential and the pool never fires.
    obs::gauge_set("smg_pool_lanes", None, par::max_threads() as f64);
    obs::counter_add("smg_check_properties_total", None, properties.len() as u64);
    match format {
        OutputFormat::Json => Ok(render_json(
            session.model(),
            build_time,
            session.cache_stats(),
            &properties,
            &results,
        )),
        OutputFormat::Text => {
            let mut out = model_header(session.model(), build_time);
            for (property, result) in properties.iter().zip(&results) {
                let _ = writeln!(out, "\nProperty: {property}");
                let _ = writeln!(
                    out,
                    "Time for model checking: {:.3} s",
                    result.time.as_secs_f64()
                );
                let _ = writeln!(out, "Solver: {}", result.solver());
                match result.verdict() {
                    Some(v) => {
                        let _ = writeln!(out, "Result: {v}");
                    }
                    None => {
                        let _ = writeln!(out, "Result: {}", fmt_value(result.value()));
                        if certified.is_some() {
                            if let Some((lo, hi)) = result.interval() {
                                let width = if lo == hi { 0.0 } else { hi - lo };
                                let _ = writeln!(
                                    out,
                                    "Certified interval: [{}, {}] (width {width:.3e})",
                                    fmt_value(lo),
                                    fmt_value(hi)
                                );
                            }
                        }
                    }
                }
            }
            if properties.len() > 1 {
                out.push('\n');
                out.push_str(&render_table(&properties, &results, certified.is_some()));
            }
            Ok(out)
        }
    }
}

fn require_dtmc<'a>(loaded: &'a Loaded, cmd: &str, hint: &str) -> Result<&'a Dtmc, CliError> {
    loaded.model.as_dtmc().ok_or_else(|| {
        CliError(format!(
            "`{cmd}` needs a dtmc model, but this program declares `mdp` ({hint})"
        ))
    })
}

/// Reads a property file: one property per line; blank lines and lines
/// starting with `//` or `#` are skipped.
fn read_props_file(path: &str) -> Result<Vec<String>, CliError> {
    let text =
        std::fs::read_to_string(path).map_err(|e| CliError(format!("cannot read {path}: {e}")))?;
    Ok(text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with("//") && !l.starts_with('#'))
        .map(str::to_string)
        .collect())
}

/// The multi-property summary table of `check`'s text mode.
fn render_table(properties: &[Property], results: &[CheckResult], certified: bool) -> String {
    let prop_texts: Vec<String> = properties.iter().map(|p| p.to_string()).collect();
    let value_texts: Vec<String> = results
        .iter()
        .map(|r| match r.verdict() {
            Some(v) => v.to_string(),
            None => fmt_value(r.value()),
        })
        .collect();
    let interval_texts: Vec<String> = results
        .iter()
        .map(|r| match r.interval() {
            Some((lo, hi)) if certified => format!("[{}, {}]", fmt_value(lo), fmt_value(hi)),
            _ => "-".to_string(),
        })
        .collect();
    let solver_texts: Vec<String> = results.iter().map(|r| r.solver().to_string()).collect();
    let widths = |header: &str, col: &[String]| -> usize {
        col.iter()
            .map(String::len)
            .chain(std::iter::once(header.len()))
            .max()
            .unwrap_or(0)
    };
    let wp = widths("Property", &prop_texts);
    let wv = widths("Value", &value_texts);
    let wi = widths("Interval", &interval_texts);
    let ws = widths("Solver", &solver_texts);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:wp$}  {:>wv$}  {:wi$}  {:ws$}  Time (s)",
        "Property", "Value", "Interval", "Solver"
    );
    for (((p, v), i), (s, r)) in prop_texts
        .iter()
        .zip(&value_texts)
        .zip(&interval_texts)
        .zip(solver_texts.iter().zip(results))
    {
        let _ = writeln!(
            out,
            "{p:wp$}  {v:>wv$}  {i:wi$}  {s:ws$}  {:.3}",
            r.time.as_secs_f64()
        );
    }
    out
}

/// The stable-keyed JSON document of `check --format json`: the
/// `smg-check/1` header with the model statistics, then the session's
/// per-kind cache telemetry and one record per property from
/// [`smg_pctl::write_json_records`], the renderer the daemon's `/check`
/// reply shares.
fn render_json(
    model: &AnyModel,
    build_time: f64,
    cache: CacheStats,
    properties: &[Property],
    results: &[CheckResult],
) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"schema\": \"smg-check/1\",");
    out.push_str("  \"model\": {\n");
    let _ = writeln!(out, "    \"type\": {},", json::escape(model.kind()));
    let _ = writeln!(out, "    \"states\": {},", model.n_states());
    match model {
        AnyModel::Dtmc(d) => {
            let _ = writeln!(
                out,
                "    \"transitions\": {},",
                d.matrix().logical_transitions()
            );
        }
        AnyModel::Mdp(m) => {
            let _ = writeln!(out, "    \"choices\": {},", m.n_choices());
            let _ = writeln!(out, "    \"transitions\": {},", m.n_transitions());
        }
    }
    let _ = writeln!(out, "    \"build_s\": {}", json::number(build_time));
    out.push_str("  },\n");
    smg_pctl::write_json_records(&mut out, cache, properties, results);
    out.push_str("}\n");
    out
}

/// The lint configuration a command's exploration options imply:
/// `--allow-stutter` turns deadlocks into self-loops, so the deadlock
/// analysis stands down with it.
fn lint_options(options: &Options) -> smg_lint::LintOptions {
    smg_lint::LintOptions {
        allow_stutter: options.allow_stutter,
        ..smg_lint::LintOptions::default()
    }
}

/// Reads, parses and semantically checks guarded-command source,
/// applying `--const` overrides — the shared front half of [`load`] and
/// the `lint` command.
fn load_checked(path: &str, options: &Options) -> Result<smg_lang::CheckedProgram, CliError> {
    let src =
        std::fs::read_to_string(path).map_err(|e| CliError(format!("cannot read {path}: {e}")))?;
    let mut program = parse(&src)?;
    // `--const name=expr` overrides an existing constant in place (keeping
    // declaration order, so later constants still see it) or prepends a
    // new one.
    for (name, expr_text) in &options.consts {
        let value = smg_lang::parse_expr(expr_text)?;
        match program.consts.iter_mut().find(|c| c.name == *name) {
            Some(c) => c.value = value,
            None => program.consts.insert(
                0,
                smg_lang::ast::ConstDecl {
                    name: name.clone(),
                    ty: None,
                    value,
                    pos: smg_lang::Pos::start(),
                },
            ),
        }
    }
    Ok(check(program)?)
}

fn load(path: &str, options: &Options) -> Result<(Loaded, f64), CliError> {
    let start = Instant::now();
    // PRISM explicit transitions: pick up sibling .lab/.srew files.
    if path.ends_with(".tra") {
        if !options.consts.is_empty() {
            return Err(CliError(
                "--const applies to guarded-command models, not explicit .tra files".into(),
            ));
        }
        let src = std::fs::read_to_string(path)
            .map_err(|e| CliError(format!("cannot read {path}: {e}")))?;
        let stem = path.strip_suffix(".tra").expect("checked");
        let lab = std::fs::read_to_string(format!("{stem}.lab")).ok();
        let srew = std::fs::read_to_string(format!("{stem}.srew")).ok();
        let dtmc = smg_dtmc::import::from_explicit(&src, lab.as_deref(), srew.as_deref())?;
        return Ok((
            Loaded {
                model: AnyModel::Dtmc(dtmc),
                var_names: Vec::new(),
            },
            start.elapsed().as_secs_f64(),
        ));
    }
    let checked = load_checked(path, options)?;
    // Lint on compile: findings go to stderr as warnings and never block
    // the run — the expansion itself rejects the errors that matter, and
    // `smg lint` exists for gating. `--no-lint` silences the pass.
    if !options.no_lint {
        let report = smg_lint::lint_with(&checked, &lint_options(options));
        if !report.is_clean() {
            eprint!("{}", report.render_text(path));
        }
    }
    // The model-type header decides the compilation target: `dtmc`
    // programs become chains, `mdp` programs keep their nondeterminism —
    // `compile_any` dispatches, so the CLI never sees `WrongModelType`.
    let compiled = compile_any_with(checked, options.clone().into())?;
    Ok((
        Loaded {
            model: compiled.model,
            var_names: compiled.var_names,
        },
        start.elapsed().as_secs_f64(),
    ))
}

fn model_header(model: &AnyModel, build_time: f64) -> String {
    let mut out = String::new();
    match model {
        AnyModel::Dtmc(d) => {
            let _ = writeln!(out, "States: {}", d.n_states());
            let _ = writeln!(out, "Transitions: {}", d.matrix().logical_transitions());
        }
        AnyModel::Mdp(m) => {
            let _ = writeln!(out, "Model type: mdp");
            let _ = writeln!(out, "States: {}", m.n_states());
            let _ = writeln!(out, "Choices: {}", m.n_choices());
            let _ = writeln!(out, "Transitions: {}", m.n_transitions());
        }
    }
    let _ = writeln!(out, "Time for model construction: {build_time:.3} s");
    out
}

/// Formats a result the way the paper's tables do: plain decimal for
/// moderate values, scientific for very small ones, `≈ 1` style exactness
/// is left to the reader.
fn fmt_value(v: f64) -> String {
    if v.is_infinite() {
        "Infinity".to_string()
    } else if v != 0.0 && v.abs() < 1e-3 {
        format!("{v:.6e}")
    } else {
        format!("{v:.6}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn write_model(name: &str, text: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("smg-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, text).unwrap();
        path
    }

    const CHANNEL: &str = r#"
        dtmc
        const double p_err = 0.125;
        module channel
          err : bool init false;
          [] true -> p_err:(err'=true) + (1-p_err):(err'=false);
        endmodule
        label "err" = err;
        rewards err : 1; endrewards
    "#;

    fn opts() -> Options {
        Options::default()
    }

    #[test]
    fn check_reports_states_and_result() {
        let path = write_model("channel.sm", CHANNEL);
        let out = run(&Cmd::Check {
            model: path.to_string_lossy().into_owned(),
            props: vec!["R=? [ I=10 ]".into(), "P=? [ G<=3 !err ]".into()],
            certified: None,
            metrics: None,
            trace_convergence: None,
            prop_files: vec![],
            format: OutputFormat::Text,
            options: opts(),
        })
        .unwrap();
        assert!(out.contains("States: 2"), "{out}");
        assert!(out.contains("Result: 0.125"), "{out}");
        // (1 - 1/8)^3 = 0.669921875
        assert!(out.contains("0.669922"), "{out}");
    }

    #[test]
    fn certified_check_prints_interval_and_solver() {
        let path = write_model("channel_cert.sm", CHANNEL);
        let out = run(&Cmd::Check {
            model: path.to_string_lossy().into_owned(),
            props: vec!["P=? [ F err ]".into(), "P=? [ G<=3 !err ]".into()],
            certified: Some(1e-9),
            metrics: None,
            trace_convergence: None,
            prop_files: vec![],
            format: OutputFormat::Text,
            options: opts(),
        })
        .unwrap();
        // The unbounded query runs interval iteration and prints a sound
        // bracket around the exact 1.0 (err is reached almost surely).
        assert!(out.contains("Solver: interval-iteration"), "{out}");
        assert!(out.contains("Certified interval: ["), "{out}");
        assert!(out.contains("Result: 1.000000"), "{out}");
        // The bounded query in the same run stays exact arithmetic.
        assert!(out.contains("Solver: transient"), "{out}");
        // MDP queries certify through the same flag.
        let mpath = write_model("regime_cert.sm", REGIME_MDP);
        let out = run(&Cmd::Check {
            model: mpath.to_string_lossy().into_owned(),
            props: vec!["Pmax=? [ G !err ]".into(), "Pmax=? [ F err ]".into()],
            certified: Some(1e-9),
            metrics: None,
            trace_convergence: None,
            prop_files: vec![],
            format: OutputFormat::Text,
            options: opts(),
        })
        .unwrap();
        assert!(out.contains("Solver: interval-iteration"), "{out}");
        // The exact answer is 0; the certified bracket pins its lower end
        // there and the midpoint lands within ε/2 of it.
        assert!(out.contains("Certified interval: [0.000000,"), "{out}");
        // Without the flag no interval is claimed for unbounded queries.
        let out = run(&Cmd::Check {
            model: path.to_string_lossy().into_owned(),
            props: vec!["P=? [ F err ]".into()],
            certified: None,
            metrics: None,
            trace_convergence: None,
            prop_files: vec![],
            format: OutputFormat::Text,
            options: opts(),
        })
        .unwrap();
        assert!(out.contains("Solver: value-iteration"), "{out}");
        assert!(!out.contains("Certified interval"), "{out}");
    }

    #[test]
    fn info_reports_structure() {
        let path = write_model("channel_info.sm", CHANNEL);
        let out = run(&Cmd::Info {
            model: path.to_string_lossy().into_owned(),
            options: opts(),
        })
        .unwrap();
        assert!(out.contains("Label \"err\": 1 states"), "{out}");
        assert!(out.contains("Irreducible: true"), "{out}");
        assert!(out.contains("Ergodic: true"), "{out}");
        // The 2-state channel is one SCC of 2 states, condensation depth 1.
        assert!(
            out.contains("SCCs: 1 (largest 2 states, condensation depth 1)"),
            "{out}"
        );
    }

    #[test]
    fn export_formats() {
        let path = write_model("channel_export.sm", CHANNEL);
        for (fmt, needle) in [
            ("tra", "2 "),
            ("lab", "err"),
            ("srew", "1"),
            ("pm", "module chain"),
            ("dot", "digraph"),
        ] {
            let out = run(&Cmd::Export {
                model: path.to_string_lossy().into_owned(),
                format: fmt.to_string(),
                out: None,
                options: opts(),
            })
            .unwrap();
            assert!(out.contains(needle), "format {fmt}: {out}");
        }
        let err = run(&Cmd::Export {
            model: path.to_string_lossy().into_owned(),
            format: "xml".into(),
            out: None,
            options: opts(),
        })
        .unwrap_err();
        assert!(err.0.contains("unknown export format"));
    }

    #[test]
    fn export_to_file_writes_bytes() {
        let path = write_model("channel_file.sm", CHANNEL);
        let out_path = std::env::temp_dir().join("smg-cli-tests/out.tra");
        let msg = run(&Cmd::Export {
            model: path.to_string_lossy().into_owned(),
            format: "tra".into(),
            out: Some(out_path.to_string_lossy().into_owned()),
            options: opts(),
        })
        .unwrap();
        assert!(msg.contains("wrote"));
        assert!(std::fs::read_to_string(&out_path).unwrap().contains('2'));
    }

    #[test]
    fn steady_finds_the_ber() {
        let path = write_model("channel_steady.sm", CHANNEL);
        let out = run(&Cmd::Steady {
            model: path.to_string_lossy().into_owned(),
            tol: 1e-12,
            max_steps: 1000,
            options: opts(),
        })
        .unwrap();
        assert!(out.contains("Steady state detected"), "{out}");
        assert!(out.contains("0.125"), "{out}");
    }

    #[test]
    fn sim_estimates_the_ber() {
        let path = write_model("channel_sim.sm", CHANNEL);
        let out = run(&Cmd::Sim {
            model: path.to_string_lossy().into_owned(),
            steps: 40_000,
            seed: 1,
            options: opts(),
        })
        .unwrap();
        // With 40k steps the estimate is well inside ±0.01 of 0.125.
        let mean_line = out
            .lines()
            .find(|l| l.starts_with("Mean state reward:"))
            .unwrap();
        let mean: f64 = mean_line.rsplit(' ').next().unwrap().parse().unwrap();
        assert!((mean - 0.125).abs() < 0.01, "{out}");
    }

    #[test]
    fn const_overrides_change_the_model() {
        let path = write_model("channel_const.sm", CHANNEL);
        // Override p_err = 0.5: BER doubles to 0.5.
        let out = run(&Cmd::Check {
            model: path.to_string_lossy().into_owned(),
            props: vec!["R=? [ I=10 ]".into()],
            certified: None,
            metrics: None,
            trace_convergence: None,
            prop_files: vec![],
            format: OutputFormat::Text,
            options: Options {
                consts: vec![("p_err".into(), "0.5".into())],
                ..Options::default()
            },
        })
        .unwrap();
        assert!(out.contains("Result: 0.5"), "{out}");
        // Define a fresh constant referenced nowhere: harmless.
        let out = run(&Cmd::Check {
            model: path.to_string_lossy().into_owned(),
            props: vec!["R=? [ I=10 ]".into()],
            certified: None,
            metrics: None,
            trace_convergence: None,
            prop_files: vec![],
            format: OutputFormat::Text,
            options: Options {
                consts: vec![("unused".into(), "1".into())],
                ..Options::default()
            },
        })
        .unwrap();
        assert!(out.contains("Result: 0.125"), "{out}");
        // Malformed expression surfaces as a model error.
        let err = run(&Cmd::Check {
            model: path.to_string_lossy().into_owned(),
            props: vec!["R=? [ I=10 ]".into()],
            certified: None,
            metrics: None,
            trace_convergence: None,
            prop_files: vec![],
            format: OutputFormat::Text,
            options: Options {
                consts: vec![("p_err".into(), "0.5 +".into())],
                ..Options::default()
            },
        })
        .unwrap_err();
        assert!(err.0.contains("model error"), "{err}");
    }

    /// A channel whose regime (quiet or bursty) is adversarial each tick.
    const REGIME_MDP: &str = r#"
        mdp
        const double p_quiet = 0.01;
        const double p_burst = 0.25;
        module channel
          err : bool init false;
          [] !err -> p_quiet:(err'=true) + (1-p_quiet):(err'=false);
          [] !err -> p_burst:(err'=true) + (1-p_burst):(err'=false);
          [] err  -> true;
        endmodule
        label "err" = err;
        rewards err : 1; endrewards
    "#;

    #[test]
    fn check_mdp_evaluates_min_max_queries_end_to_end() {
        let path = write_model("regime.sm", REGIME_MDP);
        let out = run(&Cmd::Check {
            model: path.to_string_lossy().into_owned(),
            props: vec![
                "Pmax=? [ F<=2 err ]".into(),
                "Pmin=? [ F<=2 err ]".into(),
                "Pmin=? [ G<=2 !err ]".into(),
            ],
            certified: None,
            metrics: None,
            trace_convergence: None,
            prop_files: vec![],
            format: OutputFormat::Text,
            options: opts(),
        })
        .unwrap();
        assert!(out.contains("Model type: mdp"), "{out}");
        assert!(out.contains("States: 2"), "{out}");
        assert!(out.contains("Choices: 3"), "{out}");
        // Worst case over two steps: 1 - 0.75^2 = 0.4375; best: 1 - 0.99^2.
        assert!(out.contains("Result: 0.4375"), "{out}");
        assert!(out.contains("0.019900"), "{out}");
        // Pmin [G !err] = 1 - Pmax [F err] = 0.5625.
        assert!(out.contains("Result: 0.5625"), "{out}");
    }

    #[test]
    fn check_mdp_rejects_ambiguous_plain_queries() {
        let path = write_model("regime_plain.sm", REGIME_MDP);
        let err = run(&Cmd::Check {
            model: path.to_string_lossy().into_owned(),
            props: vec!["P=? [ F<=2 err ]".into()],
            certified: None,
            metrics: None,
            trace_convergence: None,
            prop_files: vec![],
            format: OutputFormat::Text,
            options: opts(),
        })
        .unwrap_err();
        assert!(err.0.contains("Pmin"), "{err}");
    }

    #[test]
    fn info_and_export_handle_mdp_models() {
        let path = write_model("regime_info.sm", REGIME_MDP);
        let out = run(&Cmd::Info {
            model: path.to_string_lossy().into_owned(),
            options: opts(),
        })
        .unwrap();
        assert!(out.contains("Label \"err\": 1 states"), "{out}");
        assert!(out.contains("Max actions per state: 2"), "{out}");
        // !err can stay put or move to absorbing err: two singleton SCCs.
        assert!(
            out.contains("SCCs: 2 (largest 1 states, condensation depth 2)"),
            "{out}"
        );
        let tra = run(&Cmd::Export {
            model: path.to_string_lossy().into_owned(),
            format: "tra".into(),
            out: None,
            options: opts(),
        })
        .unwrap();
        // Header: 2 states, 3 choices, 5 transitions; rows carry the
        // action column.
        assert!(tra.starts_with("2 3 5"), "{tra}");
        assert!(tra.contains("0 1 1 0.25"), "{tra}");
        for fmt in ["pm", "dot"] {
            let err = run(&Cmd::Export {
                model: path.to_string_lossy().into_owned(),
                format: fmt.into(),
                out: None,
                options: opts(),
            })
            .unwrap_err();
            assert!(err.0.contains("not supported for mdp"), "{fmt}: {err}");
        }
    }

    #[test]
    fn steady_and_sim_reject_mdp_models() {
        let path = write_model("regime_steady.sm", REGIME_MDP);
        let err = run(&Cmd::Steady {
            model: path.to_string_lossy().into_owned(),
            tol: 1e-9,
            max_steps: 10,
            options: opts(),
        })
        .unwrap_err();
        assert!(err.0.contains("needs a dtmc"), "{err}");
        let err = run(&Cmd::Sim {
            model: path.to_string_lossy().into_owned(),
            steps: 10,
            seed: 0,
            options: opts(),
        })
        .unwrap_err();
        assert!(err.0.contains("needs a dtmc"), "{err}");
    }

    #[test]
    fn single_action_mdp_matches_dtmc_results() {
        // The same channel written as dtmc and as a single-command mdp
        // must agree: Pmin = Pmax = P.
        let dpath = write_model("chan_d.sm", CHANNEL);
        let mpath = write_model("chan_m.sm", &CHANNEL.replacen("dtmc", "mdp", 1));
        let d = run(&Cmd::Check {
            model: dpath.to_string_lossy().into_owned(),
            props: vec!["P=? [ G<=3 !err ]".into()],
            certified: None,
            metrics: None,
            trace_convergence: None,
            prop_files: vec![],
            format: OutputFormat::Text,
            options: opts(),
        })
        .unwrap();
        let m = run(&Cmd::Check {
            model: mpath.to_string_lossy().into_owned(),
            props: vec!["Pmin=? [ G<=3 !err ]".into(), "Pmax=? [ G<=3 !err ]".into()],
            certified: None,
            metrics: None,
            trace_convergence: None,
            prop_files: vec![],
            format: OutputFormat::Text,
            options: opts(),
        })
        .unwrap();
        let val = "0.669922"; // (1 - 1/8)^3
        assert!(d.contains(val), "{d}");
        // Two result blocks plus two rows of the multi-property summary
        // table.
        assert_eq!(m.matches(val).count(), 4, "{m}");
    }

    #[test]
    fn props_file_feeds_the_session_and_table() {
        let path = write_model("channel_propsfile.sm", CHANNEL);
        let props_path = write_model(
            "channel.props",
            "// the property family of one table row\n\
             P=? [ F err ]\n\
             \n\
             # shared-target relatives\n\
             P=? [ G !err ]\n\
             R=? [ I=10 ]\n",
        );
        let out = run(&Cmd::Check {
            model: path.to_string_lossy().into_owned(),
            props: vec!["S=? [ err ]".into()],
            prop_files: vec![props_path.to_string_lossy().into_owned()],
            certified: None,
            metrics: None,
            trace_convergence: None,
            format: OutputFormat::Text,
            options: opts(),
        })
        .unwrap();
        // --prop properties come first, then the file's (comments and
        // blank lines skipped); four properties → a summary table.
        assert_eq!(out.matches("\nProperty: ").count(), 4, "{out}");
        assert!(out.contains("Property  "), "table header missing: {out}");
        assert!(out.contains("Time (s)"), "{out}");
        // err is reached almost surely; its complement query shows up as
        // a vanishing probability in the same table.
        assert!(out.contains("Result: 1.000000"), "{out}");
        assert!(out.contains("P=? [ G !err ]"), "{out}");
        // Empty property files are a clean error.
        let empty = write_model("empty.props", "// nothing\n");
        let err = run(&Cmd::Check {
            model: path.to_string_lossy().into_owned(),
            props: vec![],
            prop_files: vec![empty.to_string_lossy().into_owned()],
            certified: None,
            metrics: None,
            trace_convergence: None,
            format: OutputFormat::Text,
            options: opts(),
        })
        .unwrap_err();
        assert!(err.0.contains("no properties"), "{err}");
    }

    #[test]
    fn json_output_round_trips_with_stable_keys() {
        let path = write_model("channel_json.sm", CHANNEL);
        let out = run(&Cmd::Check {
            model: path.to_string_lossy().into_owned(),
            props: vec![
                "P=? [ F err ]".into(),
                "R=? [ I=10 ]".into(),
                "P>=0.9 [ F<=30 err ]".into(),
                // Unreachable target → the value is exactly Infinity,
                // which JSON can only carry as the documented string.
                "R=? [ F (err & !err) ]".into(),
            ],
            prop_files: vec![],
            certified: None,
            metrics: None,
            trace_convergence: None,
            format: OutputFormat::Json,
            options: opts(),
        })
        .unwrap();
        let doc = json::parse(&out).expect("valid JSON");
        assert_eq!(doc.get("schema").unwrap().as_str(), Some("smg-check/1"));
        let model = doc.get("model").unwrap();
        assert_eq!(model.get("type").unwrap().as_str(), Some("dtmc"));
        assert_eq!(model.get("states").unwrap().as_f64(), Some(2.0));
        let results = doc.get("results").unwrap().as_array().unwrap();
        assert_eq!(results.len(), 4);
        for r in results {
            // Stable keys, present on every record.
            for key in [
                "property", "value", "verdict", "interval", "solver", "time_s",
            ] {
                assert!(r.get(key).is_some(), "missing {key}: {out}");
            }
        }
        assert_eq!(
            results[0].get("property").unwrap().as_str(),
            Some("P=? [ F err ]")
        );
        assert!((results[0].get("value").unwrap().as_f64().unwrap() - 1.0).abs() < 1e-9);
        assert!((results[1].get("value").unwrap().as_f64().unwrap() - 0.125).abs() < 1e-12);
        // The threshold query carries a boolean verdict; numeric ones null.
        assert_eq!(results[2].get("verdict"), Some(&json::Value::Bool(true)));
        assert_eq!(results[0].get("verdict"), Some(&json::Value::Null));
        // Non-finite values survive the string encoding.
        assert_eq!(
            results[3].get("value").unwrap().as_f64(),
            Some(f64::INFINITY)
        );
        // Certified runs expose the bracket as a two-element array.
        let out = run(&Cmd::Check {
            model: path.to_string_lossy().into_owned(),
            props: vec!["P=? [ F err ]".into()],
            prop_files: vec![],
            certified: Some(1e-9),
            metrics: None,
            trace_convergence: None,
            format: OutputFormat::Json,
            options: opts(),
        })
        .unwrap();
        let doc = json::parse(&out).expect("valid JSON");
        let r = &doc.get("results").unwrap().as_array().unwrap()[0];
        assert_eq!(
            r.get("solver").unwrap().as_str(),
            Some("interval-iteration")
        );
        let interval = r.get("interval").unwrap().as_array().unwrap();
        let (lo, hi) = (interval[0].as_f64().unwrap(), interval[1].as_f64().unwrap());
        assert!(lo <= 1.0 && 1.0 <= hi && hi - lo < 1e-9, "[{lo}, {hi}]");
        // MDP models report their family and choice counts.
        let mpath = write_model("regime_json.sm", REGIME_MDP);
        let out = run(&Cmd::Check {
            model: mpath.to_string_lossy().into_owned(),
            props: vec!["Pmax=? [ F<=2 err ]".into()],
            prop_files: vec![],
            certified: None,
            metrics: None,
            trace_convergence: None,
            format: OutputFormat::Json,
            options: opts(),
        })
        .unwrap();
        let doc = json::parse(&out).expect("valid JSON");
        assert_eq!(
            doc.get("model").unwrap().get("type").unwrap().as_str(),
            Some("mdp")
        );
        assert_eq!(
            doc.get("model").unwrap().get("choices").unwrap().as_f64(),
            Some(3.0)
        );
    }

    #[test]
    fn metrics_text_is_valid_exposition() {
        let path = write_model("channel_metrics.sm", CHANNEL);
        let out = run(&Cmd::Check {
            model: path.to_string_lossy().into_owned(),
            props: vec![
                "P=? [ F err ]".into(),
                "P=? [ F err ]".into(),
                "R=? [ I=10 ]".into(),
                "S=? [ err ]".into(),
            ],
            certified: Some(1e-9),
            prop_files: vec![],
            format: OutputFormat::Text,
            metrics: Some(OutputFormat::Text),
            trace_convergence: None,
            options: opts(),
        })
        .unwrap();
        // The appended block is well-formed Prometheus text exposition...
        let summary = obs::validate_exposition(&out).expect("valid exposition");
        assert!(summary.families >= 8, "only {:?}", summary.names);
        // ...and spans exploration, solving, engine config and the
        // session caches even on a model too small for pool dispatch.
        for needle in [
            "smg_explore_states_total",
            "smg_explore_transitions_total",
            "smg_explore_levels_total",
            "smg_explore_seconds",
            "smg_solve_sweeps_total",
            "smg_session_cache_hits_total",
            "smg_session_cache_misses_total",
            "smg_pctl_property_seconds",
            "smg_pool_lanes",
            "smg_check_properties_total",
        ] {
            assert!(
                summary.names.iter().any(|n| n == needle),
                "{needle} missing from {:?}",
                summary.names
            );
        }
        // The result blocks still precede the metrics.
        assert!(out.contains("Result: 1.000000"), "{out}");

        // An `mdp` model's build reports the same exploration family.
        let path = write_model("regime_metrics.sm", REGIME_MDP);
        let out = run(&Cmd::Check {
            model: path.to_string_lossy().into_owned(),
            props: vec!["Pmax=? [ F<=2 err ]".into()],
            certified: None,
            prop_files: vec![],
            format: OutputFormat::Text,
            metrics: Some(OutputFormat::Text),
            trace_convergence: None,
            options: opts(),
        })
        .unwrap();
        let summary = obs::validate_exposition(&out).expect("valid exposition");
        for needle in [
            "smg_explore_states_total",
            "smg_explore_transitions_total",
            "smg_explore_levels_total",
            "smg_explore_seconds",
        ] {
            assert!(
                summary.names.iter().any(|n| n == needle),
                "{needle} missing from {:?}",
                summary.names
            );
        }
    }

    #[test]
    fn metrics_json_and_trace_convergence_stream() {
        let path = write_model("channel_trace.sm", CHANNEL);
        let trace_path = std::env::temp_dir().join("smg-cli-tests/trace.jsonl");
        let out = run(&Cmd::Check {
            model: path.to_string_lossy().into_owned(),
            props: vec!["P=? [ F err ]".into()],
            certified: Some(1e-9),
            prop_files: vec![],
            format: OutputFormat::Json,
            metrics: Some(OutputFormat::Json),
            trace_convergence: Some(trace_path.to_string_lossy().into_owned()),
            options: opts(),
        })
        .unwrap();
        // The check document and the appended metrics document are each
        // valid JSON (split at the blank line between them).
        let (check_doc, metrics_doc) = out.split_once("\n\n").expect("two documents");
        let doc = json::parse(check_doc).expect("valid check JSON");
        let cache = doc.get("cache").expect("cache block");
        for kind in ["sat", "values", "certified", "steady"] {
            let k = cache.get(kind).expect(kind);
            assert!(
                k.get("hits").is_some() && k.get("misses").is_some(),
                "{out}"
            );
        }
        let metrics = json::parse(metrics_doc).expect("valid metrics JSON");
        assert!(metrics.get("counters").is_some(), "{metrics_doc}");
        // The trace file carries one record per solver iteration, with
        // stable keys, and the certified run converged below epsilon.
        let trace = std::fs::read_to_string(&trace_path).unwrap();
        let records: Vec<_> = trace
            .lines()
            .map(|l| json::parse(l).expect("valid trace line"))
            .collect();
        assert!(!records.is_empty(), "{trace}");
        for r in &records {
            for key in ["driver", "sweep", "residual", "width", "component"] {
                assert!(r.get(key).is_some(), "missing {key}: {trace}");
            }
        }
        let last = records.last().unwrap();
        assert_eq!(last.get("driver").unwrap().as_str(), Some("topo_interval"));
        assert!(
            last.get("width").unwrap().as_f64().unwrap() < 1e-9,
            "{trace}"
        );
    }

    #[test]
    fn metrics_text_is_deterministic_modulo_timing() {
        let path = write_model("channel_det.sm", CHANNEL);
        let emit = || {
            let out = run(&Cmd::Check {
                model: path.to_string_lossy().into_owned(),
                props: vec!["P=? [ F err ]".into(), "R=? [ I=10 ]".into()],
                certified: Some(1e-9),
                prop_files: vec![],
                format: OutputFormat::Text,
                metrics: Some(OutputFormat::Text),
                trace_convergence: None,
                options: opts(),
            })
            .unwrap();
            // Keep only the exposition block, minus the families that
            // measure wall time (their samples differ run to run).
            let start = out.find("# HELP").expect("exposition present");
            out[start..]
                .lines()
                .filter(|l| !l.contains("_seconds"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        let (first, second) = (emit(), emit());
        assert!(!first.is_empty());
        assert_eq!(first, second, "counts and gauges must be byte-stable");
    }

    #[test]
    fn tra_models_load_with_sibling_lab_and_srew() {
        let path = write_model("channel_tra.sm", CHANNEL);
        let dir = std::env::temp_dir().join("smg-cli-tests");
        for fmt in ["tra", "lab", "srew"] {
            run(&Cmd::Export {
                model: path.to_string_lossy().into_owned(),
                format: fmt.into(),
                out: Some(
                    dir.join(format!("chan.{fmt}"))
                        .to_string_lossy()
                        .into_owned(),
                ),
                options: opts(),
            })
            .unwrap();
        }
        let out = run(&Cmd::Check {
            model: dir.join("chan.tra").to_string_lossy().into_owned(),
            props: vec!["R=? [ I=10 ]".into(), "S=? [ err ]".into()],
            certified: None,
            metrics: None,
            trace_convergence: None,
            prop_files: vec![],
            format: OutputFormat::Text,
            options: opts(),
        })
        .unwrap();
        assert!(out.contains("States: 2"), "{out}");
        // Both queries see the 0.125 BER through labels and rewards that
        // came from the sibling files.
        assert_eq!(out.matches("Result: 0.125").count(), 2, "{out}");
    }

    #[test]
    fn lint_reports_findings_and_gates_on_severity() {
        // The channel model is clean: exit 0, a "clean" line on stdout.
        let path = write_model("channel_lint.sm", CHANNEL);
        let lint = |model: &str, format: OutputFormat, deny: bool| {
            run(&Cmd::Lint {
                model: model.into(),
                format,
                deny_warnings: deny,
                options: opts(),
            })
        };
        let out = lint(&path.to_string_lossy(), OutputFormat::Text, false).unwrap();
        assert!(out.contains("clean, no lint findings"), "{out}");
        // ...even under --deny warnings, and in byte-stable JSON.
        lint(&path.to_string_lossy(), OutputFormat::Text, true).unwrap();
        let json = lint(&path.to_string_lossy(), OutputFormat::Json, false).unwrap();
        assert!(json.contains("\"schema\": \"smg-lint/1\""), "{json}");
        assert_eq!(
            json,
            lint(&path.to_string_lossy(), OutputFormat::Json, false).unwrap()
        );
        // A dead guard is a warning: clean exit by default, fatal under
        // --deny warnings.
        let warn = write_model(
            "lint_warn.sm",
            "dtmc\nmodule m\n  x : [0..3] init 0;\n  [] x < 3 -> (x'=x+1);\n  \
             [] x = 3 -> true;\n  [] x > 3 -> (x'=0);\nendmodule\n",
        );
        let out = lint(&warn.to_string_lossy(), OutputFormat::Text, false).unwrap();
        assert!(out.contains("warning[L001]"), "{out}");
        let err = lint(&warn.to_string_lossy(), OutputFormat::Text, true).unwrap_err();
        assert!(err.0.contains("warning[L001]"), "{err}");
        // An error-severity finding is fatal regardless, in both formats.
        let bad = write_model(
            "lint_err.sm",
            "dtmc\nmodule m\n  x : [0..3] init 0;\n  [] true -> (x'=x+4);\nendmodule\n",
        );
        let err = lint(&bad.to_string_lossy(), OutputFormat::Text, false).unwrap_err();
        assert!(err.0.contains("error[L003]"), "{err}");
        let err = lint(&bad.to_string_lossy(), OutputFormat::Json, false).unwrap_err();
        assert!(err.0.contains("\"errors\": 1"), "{err}");
        // Explicit .tra models have no guarded commands to analyse.
        let err = lint("model.tra", OutputFormat::Text, false).unwrap_err();
        assert!(err.0.contains("not explicit .tra"), "{err}");
        // --const participates before analysis: overriding the probability
        // to an invalid weight turns the clean channel into an L004 error.
        let err = run(&Cmd::Lint {
            model: path.to_string_lossy().into_owned(),
            format: OutputFormat::Text,
            deny_warnings: false,
            options: Options {
                consts: vec![("p_err".into(), "1.5".into())],
                ..Options::default()
            },
        })
        .unwrap_err();
        assert!(err.0.contains("error[L004]"), "{err}");
    }

    #[test]
    fn compile_time_lint_does_not_block_commands() {
        // A model with a dead guard still checks fine (the lint pass only
        // warns on stderr), with or without --no-lint.
        let path = write_model(
            "lint_on_compile.sm",
            "dtmc\nmodule m\n  x : [0..3] init 0;\n  [] x < 3 -> (x'=x+1);\n  \
             [] x = 3 -> true;\n  [] x > 3 -> (x'=0);\nendmodule\nrewards x = 3 : 1; endrewards\n",
        );
        for no_lint in [false, true] {
            let out = run(&Cmd::Check {
                model: path.to_string_lossy().into_owned(),
                props: vec!["R=? [ I=10 ]".into()],
                certified: None,
                metrics: None,
                trace_convergence: None,
                prop_files: vec![],
                format: OutputFormat::Text,
                options: Options {
                    no_lint,
                    ..Options::default()
                },
            })
            .unwrap();
            assert!(out.contains("States: 4"), "{out}");
        }
    }

    #[test]
    fn missing_file_is_a_clean_error() {
        let err = run(&Cmd::Info {
            model: "/nonexistent/nope.sm".into(),
            options: opts(),
        })
        .unwrap_err();
        assert!(err.0.contains("cannot read"));
    }

    #[test]
    fn model_errors_surface_with_context() {
        let path = write_model(
            "bad.sm",
            "module m x : bool; [] true -> 0.7:(x'=true); endmodule",
        );
        let err = run(&Cmd::Info {
            model: path.to_string_lossy().into_owned(),
            options: opts(),
        })
        .unwrap_err();
        assert!(err.0.contains("model error"), "{err}");
        assert!(err.0.contains("sum to 0.7"), "{err}");
    }

    #[test]
    fn property_errors_surface_with_context() {
        let path = write_model("channel_prop.sm", CHANNEL);
        // A property past the depth cap is a positioned parse error too.
        let deep = format!("{}err{}", "(".repeat(5_000), ")".repeat(5_000));
        for (prop, needle) in [
            ("P=? [ H err ]", "expected a path formula"),
            (
                deep.as_str(),
                "at byte 257: formula nested deeper than 256 levels",
            ),
        ] {
            let err = run(&Cmd::Check {
                model: path.to_string_lossy().into_owned(),
                props: vec![prop.into()],
                certified: None,
                metrics: None,
                trace_convergence: None,
                prop_files: vec![],
                format: OutputFormat::Text,
                options: opts(),
            })
            .unwrap_err();
            assert!(err.0.starts_with("property error: parse error"), "{err}");
            assert!(err.0.contains(needle), "{err}");
        }
    }

    #[test]
    fn help_is_usage() {
        assert_eq!(run(&Cmd::Help).unwrap(), USAGE);
    }

    #[test]
    fn fmt_value_switches_notation() {
        assert_eq!(fmt_value(0.2394), "0.239400");
        assert_eq!(fmt_value(1.08e-5), "1.080000e-5");
        assert_eq!(fmt_value(0.0), "0.000000");
        assert_eq!(fmt_value(f64::INFINITY), "Infinity");
    }
}
