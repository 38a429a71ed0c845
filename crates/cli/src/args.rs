//! Hand-rolled argument parsing (the workspace's dependency policy admits
//! no CLI framework; the grammar is small enough that explicit code is
//! clearer anyway).

use crate::CliError;
use smg_lang::ExpandOptions;

/// Usage text printed for `help` and argument errors.
pub const USAGE: &str = "\
smg — probabilistic model checking for clocked RTL-style DTMC/MDP models

USAGE:
  smg check  <model.sm> [--prop <pctl>]... [--props FILE]...
             [--certified EPS] [--format text|json]
             [--metrics text|json] [--trace-convergence FILE]
             [--max-states N] [--allow-stutter]
  smg info   <model.sm> [--max-states N] [--allow-stutter]
  smg lint   <model.sm> [--format text|json] [--deny warnings]
  smg export <model.sm> --format <tra|lab|srew|pm|dot> [--out FILE]
  smg steady <model.sm> [--tol T] [--max-steps N]
  smg sim    <model.sm> --steps N [--seed S]
  smg serve  [--addr HOST:PORT] [--capacity N] [--ttl SECS]
  smg help

Model files may be guarded-command source (.sm) or PRISM explicit
transitions (.tra; sibling .lab/.srew files are picked up automatically).
A model declaring the `mdp` header keeps overlapping guards as
nondeterministic actions; check it with the min/max query forms, e.g.
`Pmax=? [ F<=100 err ]` (worst case) / `Pmin=? [ ... ]` (best case),
`Rmin=?`/`Rmax=?` for rewards.

COMMANDS:
  check   Parse, compile and model-check pCTL properties; all properties
          of one run share a checking session, so related queries reuse
          satisfaction sets, reachability solves and certified brackets.
          Prints one PRISM-style result block per property (each reports
          which solver ran) plus a summary table when several properties
          are checked; --format json emits machine-readable records
          instead. MDP models take the Pmin/Pmax/Rmin/Rmax query forms.
          Unbounded queries are solved on the SCC condensation, one
          component at a time in reverse topological order. With
          --certified EPS they run interval iteration and print a sound
          [lo, hi] interval of width < EPS instead of trusting a residual
          test.
  info    Print model statistics: states, transitions, labels; BSCCs and
          irreducibility/aperiodicity for chains, choice counts for MDPs;
          SCC structure (component count, largest component, condensation-
          DAG depth); plus the numerical-engine configuration (worker
          lanes, parallel dispatch rule, available solvers).
  lint    Static analysis over the declared variable ranges (interval
          abstract interpretation, smg-lint): dead or constant guards,
          out-of-range assignments, malformed distributions, certain
          deadlocks, overlapping dtmc guards, unused declarations and
          trivial labels, each with a stable L0xx code and position.
          Exits nonzero when errors are found (--deny warnings raises
          the bar to any finding). `check`/`info` run the same analysis
          on compile and print findings as warnings; --no-lint turns
          that off. See docs/LINT.md for the code table.
  export  Write the explicit model in PRISM explicit formats (tra/lab/
          srew; the MDP tra carries the action column), as guarded-command
          source (pm, chains only), or as Graphviz (dot, chains only).
  steady  Detect steady state of the default reward (the paper's BER
          read-out). Chains only.
  sim     Monte-Carlo baseline: simulate the chain and estimate the mean
          state reward (compare against `check --prop 'R=? [ I=T ]'`).
          Chains only; for MDPs see smg-sim's scheduler sampling.
  serve   Run the resident model-checking daemon (smg-serve): compiled
          models and their warm check sessions stay in memory across
          requests, so repeated property families answer from memoized
          sat-sets, value vectors and certified brackets — bit-identical
          to `smg check`. Prints the bound address on startup; stops
          gracefully (drains in-flight requests) on SIGTERM/ctrl-c. See
          docs/SERVE.md for the HTTP protocol.

OPTIONS:
  --prop <pctl>     Property to check (repeatable), e.g. 'P=? [ G<=300 !err ]'
  --props FILE      Read properties from FILE, one per line (repeatable;
                    blank lines and lines starting with // or # are
                    skipped); checked after any --prop properties
  --certified EPS   Certify unbounded queries by interval iteration: the
                    printed interval provably brackets the exact value with
                    width below EPS
  --const N=V       Override or define a constant (repeatable), e.g. --const p=0.02
  --max-states N    Exploration cap (default 4000000)
  --allow-stutter   Deadlocked modules self-loop instead of erroring
  --format F        check: output format, text (default) or json (stable
                    keys: property, value, verdict, interval, solver,
                    time_s; non-finite numbers are encoded as strings).
                    export: tra, lab, srew, pm, dot
                    lint: text (default) or json (byte-stable: the same
                    model always renders the same bytes)
  --metrics F       check: after the results, dump the run's internal
                    instruments (states explored, solver sweeps, pool
                    dispatches, session cache hits, per-property wall time)
                    to stderr; F is text (Prometheus exposition format) or
                    json
  --trace-convergence FILE
                    check: stream one JSON line per solver iteration to
                    FILE (keys: driver, sweep, residual, width, component)
                    — plot it to watch interval iteration converge
  --deny warnings   lint: exit nonzero on warnings too, not just errors
  --no-lint         check/info: skip the compile-time lint pass
  --out FILE        Write export to FILE instead of stdout
  --steps N         Simulation length in time steps
  --seed S          Simulation RNG seed (default 0)
  --tol T           Steady-state tolerance (default 1e-9)
  --max-steps N     Steady-state step budget (default 100000)
  --addr HOST:PORT  serve: bind address (default 127.0.0.1:7177; port 0
                    picks a free port, printed on startup)
  --capacity N      serve: max resident models, LRU beyond it (default 8)
  --ttl SECS        serve: evict models unused for SECS seconds (default:
                    never)
";

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Cmd {
    /// `smg check`
    Check {
        /// Model path.
        model: String,
        /// Properties to check, in order (`--prop`).
        props: Vec<String>,
        /// Property files to read (`--props FILE`), appended after
        /// `props` in file order.
        prop_files: Vec<String>,
        /// Certified-interval width for unbounded queries
        /// (`--certified EPS`), off by default.
        certified: Option<f64>,
        /// Output format (`--format`): text (default) or json.
        format: OutputFormat,
        /// Dump run metrics to stderr (`--metrics text|json`), off by
        /// default.
        metrics: Option<OutputFormat>,
        /// Stream per-iteration solver convergence records to this file
        /// as JSON lines (`--trace-convergence FILE`).
        trace_convergence: Option<String>,
        /// Exploration options.
        options: Options,
    },
    /// `smg info`
    Info {
        /// Model path.
        model: String,
        /// Exploration options.
        options: Options,
    },
    /// `smg lint`
    Lint {
        /// Model path (guarded-command source only).
        model: String,
        /// Output format (`--format`): text (default) or json.
        format: OutputFormat,
        /// Treat warnings as fatal (`--deny warnings`).
        deny_warnings: bool,
        /// Exploration options (`--allow-stutter` suppresses the
        /// deadlock analysis; `--const` participates as in `check`).
        options: Options,
    },
    /// `smg export`
    Export {
        /// Model path.
        model: String,
        /// One of `tra`, `lab`, `srew`, `pm`, `dot`.
        format: String,
        /// Output path (stdout if absent).
        out: Option<String>,
        /// Exploration options.
        options: Options,
    },
    /// `smg steady`
    Steady {
        /// Model path.
        model: String,
        /// Convergence tolerance.
        tol: f64,
        /// Step budget.
        max_steps: usize,
        /// Exploration options.
        options: Options,
    },
    /// `smg sim`
    Sim {
        /// Model path.
        model: String,
        /// Number of simulated steps.
        steps: u64,
        /// RNG seed.
        seed: u64,
        /// Exploration options.
        options: Options,
    },
    /// `smg serve`
    Serve {
        /// Bind address (`--addr`); port 0 picks a free port.
        addr: String,
        /// Max resident models (`--capacity`).
        capacity: usize,
        /// Idle eviction TTL in seconds (`--ttl`), off by default.
        ttl: Option<f64>,
    },
    /// `smg help` / `--help` / no arguments.
    Help,
}

/// Output format of `smg check` (`--format`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OutputFormat {
    /// PRISM-style result blocks plus a summary table for multi-property
    /// runs.
    #[default]
    Text,
    /// One stable-keyed JSON document: model statistics plus a
    /// `{property, value, verdict, interval, solver, time_s}` record per
    /// property.
    Json,
}

/// Options shared by all model-loading commands.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// State-space cap.
    pub max_states: usize,
    /// Whether deadlocked modules stutter.
    pub allow_stutter: bool,
    /// Constant overrides (`--const name=expr`), applied before semantic
    /// analysis.
    pub consts: Vec<(String, String)>,
    /// Skip the compile-time lint pass (`--no-lint`).
    pub no_lint: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            max_states: 4_000_000,
            allow_stutter: false,
            consts: Vec::new(),
            no_lint: false,
        }
    }
}

impl From<Options> for ExpandOptions {
    fn from(o: Options) -> ExpandOptions {
        ExpandOptions {
            max_states: o.max_states,
            allow_stutter: o.allow_stutter,
        }
    }
}

/// Parses command-line arguments (excluding `argv[0]`).
///
/// # Errors
///
/// [`CliError`] with a message suitable for stderr; the caller should also
/// print [`USAGE`].
pub fn parse_args(args: &[String]) -> Result<Cmd, CliError> {
    let mut it = args.iter();
    let cmd = match it.next().map(String::as_str) {
        None | Some("help") | Some("--help") | Some("-h") => return Ok(Cmd::Help),
        Some(c) => c.to_string(),
    };

    let mut model: Option<String> = None;
    let mut props: Vec<String> = Vec::new();
    let mut prop_files: Vec<String> = Vec::new();
    let mut certified: Option<f64> = None;
    let mut format: Option<String> = None;
    let mut metrics: Option<String> = None;
    let mut trace_convergence: Option<String> = None;
    let mut out: Option<String> = None;
    let mut steps: Option<u64> = None;
    let mut seed: u64 = 0;
    let mut tol: f64 = 1e-9;
    let mut max_steps: usize = 100_000;
    let mut addr: String = "127.0.0.1:7177".to_string();
    let mut capacity: usize = 8;
    let mut ttl: Option<f64> = None;
    let mut deny_warnings = false;
    let mut options = Options::default();

    fn value<'a>(it: &mut std::slice::Iter<'a, String>, flag: &str) -> Result<&'a str, CliError> {
        it.next()
            .map(String::as_str)
            .ok_or_else(|| CliError(format!("{flag} requires a value")))
    }

    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--prop" => props.push(value(&mut it, "--prop")?.to_string()),
            "--props" => prop_files.push(value(&mut it, "--props")?.to_string()),
            "--certified" => {
                let eps: f64 = value(&mut it, "--certified")?
                    .parse()
                    .map_err(|_| CliError("--certified expects a number".into()))?;
                if !eps.is_finite() || eps <= 0.0 {
                    return Err(CliError("--certified expects a positive width".into()));
                }
                certified = Some(eps);
            }
            "--format" => format = Some(value(&mut it, "--format")?.to_string()),
            "--metrics" => metrics = Some(value(&mut it, "--metrics")?.to_string()),
            "--trace-convergence" => {
                trace_convergence = Some(value(&mut it, "--trace-convergence")?.to_string());
            }
            "--out" => out = Some(value(&mut it, "--out")?.to_string()),
            "--steps" => {
                steps = Some(
                    value(&mut it, "--steps")?
                        .parse()
                        .map_err(|_| CliError("--steps expects an integer".into()))?,
                );
            }
            "--seed" => {
                seed = value(&mut it, "--seed")?
                    .parse()
                    .map_err(|_| CliError("--seed expects an integer".into()))?;
            }
            "--tol" => {
                tol = value(&mut it, "--tol")?
                    .parse()
                    .map_err(|_| CliError("--tol expects a number".into()))?;
            }
            "--max-steps" => {
                max_steps = value(&mut it, "--max-steps")?
                    .parse()
                    .map_err(|_| CliError("--max-steps expects an integer".into()))?;
            }
            "--addr" => addr = value(&mut it, "--addr")?.to_string(),
            "--capacity" => {
                capacity = value(&mut it, "--capacity")?
                    .parse()
                    .map_err(|_| CliError("--capacity expects an integer".into()))?;
                if capacity == 0 {
                    return Err(CliError("--capacity expects a positive integer".into()));
                }
            }
            "--ttl" => {
                let secs: f64 = value(&mut it, "--ttl")?
                    .parse()
                    .map_err(|_| CliError("--ttl expects a number of seconds".into()))?;
                if !secs.is_finite() || secs <= 0.0 {
                    return Err(CliError(
                        "--ttl expects a positive number of seconds".into(),
                    ));
                }
                ttl = Some(secs);
            }
            "--max-states" => {
                options.max_states = value(&mut it, "--max-states")?
                    .parse()
                    .map_err(|_| CliError("--max-states expects an integer".into()))?;
            }
            "--allow-stutter" => options.allow_stutter = true,
            "--no-lint" => options.no_lint = true,
            "--deny" => match value(&mut it, "--deny")? {
                "warnings" => deny_warnings = true,
                other => {
                    return Err(CliError(format!(
                        "--deny expects `warnings`, got {other:?}"
                    )));
                }
            },
            "--const" => {
                let v = value(&mut it, "--const")?;
                let (name, expr) = v
                    .split_once('=')
                    .ok_or_else(|| CliError(format!("--const expects name=value, got {v:?}")))?;
                options
                    .consts
                    .push((name.trim().to_string(), expr.trim().to_string()));
            }
            other if other.starts_with("--") => {
                return Err(CliError(format!("unknown option {other}")));
            }
            other => {
                if model.is_some() {
                    return Err(CliError(format!("unexpected positional argument {other}")));
                }
                model = Some(other.to_string());
            }
        }
    }

    let require_model = |m: Option<String>| m.ok_or_else(|| CliError("missing model path".into()));
    match cmd.as_str() {
        "check" => {
            if props.is_empty() && prop_files.is_empty() {
                return Err(CliError(
                    "check requires at least one --prop or --props".into(),
                ));
            }
            let format = match format.as_deref() {
                None | Some("text") => OutputFormat::Text,
                Some("json") => OutputFormat::Json,
                Some(other) => {
                    return Err(CliError(format!(
                        "unknown check output format {other:?} (expected text or json)"
                    )))
                }
            };
            let metrics = match metrics.as_deref() {
                None => None,
                Some("text") => Some(OutputFormat::Text),
                Some("json") => Some(OutputFormat::Json),
                Some(other) => {
                    return Err(CliError(format!(
                        "unknown metrics format {other:?} (expected text or json)"
                    )))
                }
            };
            Ok(Cmd::Check {
                model: require_model(model)?,
                props,
                prop_files,
                certified,
                format,
                metrics,
                trace_convergence,
                options,
            })
        }
        "info" => Ok(Cmd::Info {
            model: require_model(model)?,
            options,
        }),
        "lint" => {
            let format = match format.as_deref() {
                None | Some("text") => OutputFormat::Text,
                Some("json") => OutputFormat::Json,
                Some(other) => {
                    return Err(CliError(format!(
                        "unknown lint output format {other:?} (expected text or json)"
                    )))
                }
            };
            Ok(Cmd::Lint {
                model: require_model(model)?,
                format,
                deny_warnings,
                options,
            })
        }
        "export" => Ok(Cmd::Export {
            model: require_model(model)?,
            format: format.ok_or_else(|| CliError("export requires --format".into()))?,
            out,
            options,
        }),
        "steady" => Ok(Cmd::Steady {
            model: require_model(model)?,
            tol,
            max_steps,
            options,
        }),
        "sim" => Ok(Cmd::Sim {
            model: require_model(model)?,
            steps: steps.ok_or_else(|| CliError("sim requires --steps".into()))?,
            seed,
            options,
        }),
        "serve" => {
            if let Some(stray) = model {
                return Err(CliError(format!(
                    "serve takes no model argument (got {stray:?}); models are \
                     compiled over HTTP via POST /models"
                )));
            }
            Ok(Cmd::Serve {
                addr,
                capacity,
                ttl,
            })
        }
        other => Err(CliError(format!("unknown command {other:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn check_command_with_two_props() {
        // (property strings with spaces arrive as single argv entries from
        // the shell; emulate that directly)
        let parsed = parse_args(&[
            "check".into(),
            "m.sm".into(),
            "--prop".into(),
            "R=? [ I=10 ]".into(),
            "--prop".into(),
            "S=? [ err ]".into(),
        ])
        .unwrap();
        let Cmd::Check { model, props, .. } = parsed else {
            panic!("wrong cmd");
        };
        assert_eq!(model, "m.sm");
        assert_eq!(props.len(), 2);
    }

    #[test]
    fn certified_flag_parses_and_validates() {
        let parsed = parse_args(&[
            "check".into(),
            "m.sm".into(),
            "--prop".into(),
            "P=? [ F err ]".into(),
            "--certified".into(),
            "1e-6".into(),
        ])
        .unwrap();
        let Cmd::Check { certified, .. } = parsed else {
            panic!("wrong cmd");
        };
        assert_eq!(certified, Some(1e-6));
        // Certified checks always walk the condensation; there is no
        // solver switch to pass.
        let err =
            parse_args(&args("check m.sm --props a.props --certified 1e-6 --topo")).unwrap_err();
        assert!(err.0.contains("unknown option --topo"), "{err}");
        for bad in ["banana", "-1e-6", "0", "inf"] {
            let err = parse_args(&[
                "check".into(),
                "m.sm".into(),
                "--prop".into(),
                "x".into(),
                "--certified".into(),
                bad.into(),
            ])
            .unwrap_err();
            assert!(err.0.contains("--certified"), "{bad}: {err}");
        }
    }

    #[test]
    fn props_files_and_format_parse() {
        let parsed = parse_args(&args(
            "check m.sm --props a.props --props b.props --format json",
        ))
        .unwrap();
        let Cmd::Check {
            props,
            prop_files,
            format,
            ..
        } = parsed
        else {
            panic!("wrong cmd");
        };
        assert!(props.is_empty());
        assert_eq!(prop_files, vec!["a.props", "b.props"]);
        assert_eq!(format, OutputFormat::Json);
        // Default and explicit text.
        for extra in ["", " --format text"] {
            let parsed = parse_args(&args(&format!("check m.sm --props a.props{extra}"))).unwrap();
            let Cmd::Check { format, .. } = parsed else {
                panic!("wrong cmd");
            };
            assert_eq!(format, OutputFormat::Text);
        }
        let err = parse_args(&args("check m.sm --props a.props --format yaml")).unwrap_err();
        assert!(err.0.contains("unknown check output format"), "{err}");
    }

    #[test]
    fn metrics_and_trace_flags_parse() {
        let parsed = parse_args(&args(
            "check m.sm --props a.props --metrics text --trace-convergence trace.jsonl",
        ))
        .unwrap();
        let Cmd::Check {
            metrics,
            trace_convergence,
            ..
        } = parsed
        else {
            panic!("wrong cmd");
        };
        assert_eq!(metrics, Some(OutputFormat::Text));
        assert_eq!(trace_convergence.as_deref(), Some("trace.jsonl"));
        // Off by default; json variant; bad value rejected.
        let Cmd::Check {
            metrics,
            trace_convergence,
            ..
        } = parse_args(&args("check m.sm --props a.props")).unwrap()
        else {
            panic!("wrong cmd");
        };
        assert_eq!(metrics, None);
        assert_eq!(trace_convergence, None);
        let Cmd::Check { metrics, .. } =
            parse_args(&args("check m.sm --props a.props --metrics json")).unwrap()
        else {
            panic!("wrong cmd");
        };
        assert_eq!(metrics, Some(OutputFormat::Json));
        let err = parse_args(&args("check m.sm --props a.props --metrics yaml")).unwrap_err();
        assert!(err.0.contains("unknown metrics format"), "{err}");
    }

    #[test]
    fn check_without_props_is_an_error() {
        assert!(parse_args(&args("check m.sm"))
            .unwrap_err()
            .0
            .contains("--prop"));
    }

    #[test]
    fn options_parse_and_default() {
        let Cmd::Info { options, .. } =
            parse_args(&args("info m.sm --max-states 1000 --allow-stutter")).unwrap()
        else {
            panic!("wrong cmd");
        };
        assert_eq!(options.max_states, 1000);
        assert!(options.allow_stutter);
        let Cmd::Info { options, .. } = parse_args(&args("info m.sm")).unwrap() else {
            panic!("wrong cmd");
        };
        assert_eq!(options, Options::default());
    }

    #[test]
    fn lint_flags_parse() {
        let Cmd::Lint {
            model,
            format,
            deny_warnings,
            ..
        } = parse_args(&args("lint m.sm")).unwrap()
        else {
            panic!("wrong cmd");
        };
        assert_eq!(model, "m.sm");
        assert_eq!(format, OutputFormat::Text);
        assert!(!deny_warnings);
        let Cmd::Lint {
            format,
            deny_warnings,
            options,
            ..
        } = parse_args(&args(
            "lint m.sm --format json --deny warnings --allow-stutter --const N=4",
        ))
        .unwrap()
        else {
            panic!("wrong cmd");
        };
        assert_eq!(format, OutputFormat::Json);
        assert!(deny_warnings);
        assert!(options.allow_stutter);
        assert_eq!(options.consts, vec![("N".to_string(), "4".to_string())]);
        // Bad --deny and --format values are rejected with pointed messages.
        let err = parse_args(&args("lint m.sm --deny errors")).unwrap_err();
        assert!(err.0.contains("--deny expects `warnings`"), "{err}");
        let err = parse_args(&args("lint m.sm --format yaml")).unwrap_err();
        assert!(err.0.contains("unknown lint output format"), "{err}");
        assert!(parse_args(&args("lint")).unwrap_err().0.contains("model"));
    }

    #[test]
    fn no_lint_flag_parses() {
        let Cmd::Info { options, .. } = parse_args(&args("info m.sm --no-lint")).unwrap() else {
            panic!("wrong cmd");
        };
        assert!(options.no_lint);
        let Cmd::Check { options, .. } =
            parse_args(&args("check m.sm --props a.props --no-lint")).unwrap()
        else {
            panic!("wrong cmd");
        };
        assert!(options.no_lint);
        assert!(!Options::default().no_lint);
    }

    #[test]
    fn export_requires_format() {
        assert!(parse_args(&args("export m.sm"))
            .unwrap_err()
            .0
            .contains("--format"));
        let Cmd::Export { format, out, .. } =
            parse_args(&args("export m.sm --format tra --out x.tra")).unwrap()
        else {
            panic!("wrong cmd");
        };
        assert_eq!(format, "tra");
        assert_eq!(out.as_deref(), Some("x.tra"));
    }

    #[test]
    fn sim_requires_steps() {
        assert!(parse_args(&args("sim m.sm"))
            .unwrap_err()
            .0
            .contains("--steps"));
        let Cmd::Sim { steps, seed, .. } =
            parse_args(&args("sim m.sm --steps 100 --seed 9")).unwrap()
        else {
            panic!("wrong cmd");
        };
        assert_eq!((steps, seed), (100, 9));
    }

    #[test]
    fn steady_defaults() {
        let Cmd::Steady { tol, max_steps, .. } = parse_args(&args("steady m.sm")).unwrap() else {
            panic!("wrong cmd");
        };
        assert_eq!(tol, 1e-9);
        assert_eq!(max_steps, 100_000);
    }

    #[test]
    fn const_overrides_parse() {
        let Cmd::Info { options, .. } =
            parse_args(&args("info m.sm --const N=4 --const p=0.25")).unwrap()
        else {
            panic!("wrong cmd");
        };
        assert_eq!(
            options.consts,
            vec![
                ("N".to_string(), "4".to_string()),
                ("p".to_string(), "0.25".to_string())
            ]
        );
        assert!(parse_args(&args("info m.sm --const banana")).is_err());
    }

    #[test]
    fn serve_defaults_and_flags() {
        let Cmd::Serve {
            addr,
            capacity,
            ttl,
        } = parse_args(&args("serve")).unwrap()
        else {
            panic!("wrong cmd");
        };
        assert_eq!(addr, "127.0.0.1:7177");
        assert_eq!(capacity, 8);
        assert_eq!(ttl, None);
        let Cmd::Serve {
            addr,
            capacity,
            ttl,
        } = parse_args(&args("serve --addr 0.0.0.0:9000 --capacity 2 --ttl 30")).unwrap()
        else {
            panic!("wrong cmd");
        };
        assert_eq!(addr, "0.0.0.0:9000");
        assert_eq!(capacity, 2);
        assert_eq!(ttl, Some(30.0));
        // A stray positional, a zero capacity and a non-positive ttl are
        // all rejected with pointed messages.
        let err = parse_args(&args("serve m.sm")).unwrap_err();
        assert!(err.0.contains("no model argument"), "{err}");
        let err = parse_args(&args("serve --capacity 0")).unwrap_err();
        assert!(err.0.contains("--capacity"), "{err}");
        for bad in ["-3", "0", "banana", "inf"] {
            let err = parse_args(&["serve".into(), "--ttl".into(), bad.into()]).unwrap_err();
            assert!(err.0.contains("--ttl"), "{bad}: {err}");
        }
    }

    #[test]
    fn help_paths() {
        assert_eq!(parse_args(&[]).unwrap(), Cmd::Help);
        assert_eq!(parse_args(&args("help")).unwrap(), Cmd::Help);
        assert_eq!(parse_args(&args("--help")).unwrap(), Cmd::Help);
    }

    #[test]
    fn bad_input_is_rejected() {
        assert!(parse_args(&args("frobnicate m.sm")).is_err());
        assert!(parse_args(&args("info m.sm extra.sm")).is_err());
        assert!(parse_args(&args("info m.sm --wat")).is_err());
        assert!(parse_args(&args("sim m.sm --steps banana")).is_err());
        assert!(parse_args(&args("check m.sm --prop")).is_err());
    }
}
