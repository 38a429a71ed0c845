//! # smg-lang — a guarded-command modeling language for DTMCs
//!
//! The paper's workflow hands RTL-derived probabilistic models to PRISM,
//! whose input is a guarded-command language of modules, range-bounded
//! variables and probabilistic updates. This crate provides that front
//! end for the rest of the workspace: a parser and compiler for a
//! PRISM-compatible subset, targeting [`smg_dtmc`]'s explicit chains and
//! [`smg_mdp`]'s explicit MDPs.
//!
//! Pipeline: [`parse`] → [`check()`](check()) → [`compile`]. Compilation
//! runs the program's state expansion ([`LangModel`], whose errors are
//! values) through the engine explorers, so a `.sm` model is built by the
//! same breadth-first search, with the same parallel levels, as a native
//! Rust model. Callers that don't care which model family a file declares
//! use [`compile_any`], which dispatches on the `dtmc`/`mdp` header and
//! returns an [`smg_pctl::AnyModel`] ready for a
//! [`smg_pctl::CheckSession`].
//!
//! ```
//! # fn main() -> Result<(), smg_lang::LangError> {
//! // A two-state "channel": a bit is hit by noise with probability 0.1.
//! let src = r#"
//!     dtmc
//!     const double p_err = 0.1;
//!     module channel
//!       err : bool init false;
//!       [] true -> p_err:(err'=true) + (1-p_err):(err'=false);
//!     endmodule
//!     label "err" = err;
//!     rewards err : 1; endrewards
//! "#;
//! let compiled = smg_lang::compile(smg_lang::check(smg_lang::parse(src)?)?)?;
//! // The expected instantaneous reward at any step t>=1 is the BER, 0.1.
//! let ber = smg_dtmc::transient::instantaneous_reward(&compiled.dtmc, 5);
//! assert!((ber - 0.1).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```
//!
//! ## Deviations from PRISM
//!
//! Documented per item; the load-bearing ones are: `dtmc` and `mdp`
//! models only (an `mdp` header switches overlapping guards from uniform
//! choice to nondeterministic actions — see [`compile_mdp`]); **modules
//! compose synchronously** (every module steps each clock tick, matching
//! the paper's clocked-RTL reading — identical to PRISM for single-module
//! programs; under `mdp` each combination of one enabled command per
//! module is one action); undefined (`-const`-style) constants are not
//! supported; rewards blocks carry state rewards only.

pub mod ast;
pub mod check;
pub mod error;
pub mod export;
mod lower;
pub mod model;
pub mod parser;
pub mod token;
pub mod value;

#[cfg(test)]
mod lane_tests;

pub use ast::{Expr, ModelType, Program};
pub use check::{check, CheckedProgram, VarInfo};
pub use error::{LangError, Pos};
pub use export::program_text;
pub use model::{
    compile, compile_any, compile_any_with, compile_mdp, compile_mdp_with, compile_with,
    CompiledAny, CompiledMdp, CompiledModel, ExpandOptions, LangModel,
};
pub use parser::{parse, parse_expr};
pub use value::interval::{eval_abs, refine_box, AbsEnv, AbsVal};
pub use value::{eval, Env, Value};
