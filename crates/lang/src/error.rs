//! Error types for lexing, parsing, semantic analysis and evaluation.

use std::error::Error;
use std::fmt;

/// A position in the source text (1-based line and column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Pos {
    /// 1-based line number.
    pub line: u32,
    /// 1-based column number.
    pub col: u32,
}

impl Pos {
    /// The start of the text.
    pub fn start() -> Self {
        Pos { line: 1, col: 1 }
    }
}

impl Default for Pos {
    fn default() -> Self {
        Pos::start()
    }
}

impl fmt::Display for Pos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// Any error raised while turning source text into a checked model.
#[derive(Debug, Clone, PartialEq)]
pub enum LangError {
    /// A character that cannot start any token.
    UnexpectedChar {
        /// The offending character.
        ch: char,
        /// Where it was found.
        pos: Pos,
    },
    /// A string or block comment that was never closed.
    UnterminatedToken {
        /// Human description of what was open ("string literal", "comment").
        what: &'static str,
        /// Where the open token started.
        pos: Pos,
    },
    /// A numeric literal that does not parse.
    BadNumber {
        /// The literal text.
        text: String,
        /// Where it was found.
        pos: Pos,
    },
    /// The parser found a token it did not expect.
    UnexpectedToken {
        /// What the parser was looking for.
        expected: String,
        /// What it found instead.
        found: String,
        /// Where.
        pos: Pos,
    },
    /// A name was declared twice (variable, constant, formula, module or
    /// label).
    DuplicateName {
        /// The name.
        name: String,
        /// Where the second declaration appears.
        pos: Pos,
    },
    /// A formula is defined in terms of itself, directly or through other
    /// formulas (PRISM rejects such cycles too).
    CyclicFormula {
        /// A formula on the cycle.
        name: String,
        /// Where that formula is declared.
        pos: Pos,
    },
    /// A name was used but never declared.
    UndefinedName {
        /// The name.
        name: String,
        /// Where it is referenced.
        pos: Pos,
    },
    /// An expression has the wrong type (e.g. a boolean guard that
    /// evaluates to an integer).
    TypeMismatch {
        /// What was expected ("bool", "int", "numeric").
        expected: &'static str,
        /// What the expression produced.
        found: &'static str,
        /// Context for the message (e.g. "guard of command 3").
        context: String,
    },
    /// A command update assigns to a variable owned by another module.
    ForeignAssignment {
        /// The variable.
        var: String,
        /// The module attempting the write.
        module: String,
    },
    /// Division by zero or `mod` by zero during constant folding or state
    /// expansion.
    DivisionByZero {
        /// Context for the message.
        context: String,
    },
    /// A variable was driven outside its declared range.
    OutOfRange {
        /// The variable.
        var: String,
        /// The value that was assigned.
        value: i64,
        /// The declared range.
        lo: i64,
        /// The declared range.
        hi: i64,
    },
    /// The probabilities of a command's updates do not sum to one.
    BadDistribution {
        /// The module owning the command.
        module: String,
        /// Index of the command within the module (0-based).
        command: usize,
        /// The observed sum.
        sum: f64,
    },
    /// A probability expression evaluated to a negative or non-finite
    /// value.
    BadProbability {
        /// Context for the message.
        context: String,
        /// The observed value.
        value: f64,
    },
    /// A state was reached in which some module has no enabled command.
    /// (Modules stutter only if `allow_stutter` is set on the compiler.)
    Deadlock {
        /// The module with no enabled command.
        module: String,
        /// Debug rendering of the state's variable assignment.
        state: String,
    },
    /// A constant was declared without a value (unsupported here — this
    /// implementation has no `-const` command line substitution).
    UnboundConstant {
        /// The constant name.
        name: String,
    },
    /// The program declares no module.
    NoModules,
    /// The variable range is empty (`lo > hi`).
    EmptyRange {
        /// The variable.
        var: String,
        /// Lower bound.
        lo: i64,
        /// Upper bound.
        hi: i64,
    },
    /// A compiler entry point was handed a program of the other model
    /// type (`compile` wants `dtmc`, `compile_mdp` is the MDP path).
    WrongModelType {
        /// The model type the program declares.
        declared: &'static str,
        /// The entry point that should be used instead.
        hint: &'static str,
    },
    /// Error propagated from the DTMC layer while assembling the explicit
    /// chain.
    Dtmc(String),
}

impl fmt::Display for LangError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LangError::UnexpectedChar { ch, pos } => {
                write!(f, "{pos}: unexpected character {ch:?}")
            }
            LangError::UnterminatedToken { what, pos } => {
                write!(f, "{pos}: unterminated {what}")
            }
            LangError::BadNumber { text, pos } => {
                write!(f, "{pos}: malformed numeric literal {text:?}")
            }
            LangError::UnexpectedToken {
                expected,
                found,
                pos,
            } => write!(f, "{pos}: expected {expected}, found {found}"),
            LangError::DuplicateName { name, pos } => {
                write!(f, "{pos}: duplicate declaration of {name:?}")
            }
            LangError::CyclicFormula { name, pos } => {
                write!(f, "{pos}: formula {name:?} is defined in terms of itself")
            }
            LangError::UndefinedName { name, pos } => {
                write!(f, "{pos}: undefined name {name:?}")
            }
            LangError::TypeMismatch {
                expected,
                found,
                context,
            } => write!(
                f,
                "type mismatch in {context}: expected {expected}, found {found}"
            ),
            LangError::ForeignAssignment { var, module } => write!(
                f,
                "module {module:?} assigns to variable {var:?} owned by another module"
            ),
            LangError::DivisionByZero { context } => {
                write!(f, "division by zero in {context}")
            }
            LangError::OutOfRange { var, value, lo, hi } => write!(
                f,
                "variable {var:?} driven to {value}, outside its range [{lo}..{hi}]"
            ),
            LangError::BadDistribution {
                module,
                command,
                sum,
            } => write!(
                f,
                "updates of command {command} in module {module:?} sum to {sum}, not 1"
            ),
            LangError::BadProbability { context, value } => {
                write!(f, "non-probability value {value} in {context}")
            }
            LangError::Deadlock { module, state } => write!(
                f,
                "module {module:?} has no enabled command in state {state}"
            ),
            LangError::UnboundConstant { name } => {
                write!(f, "constant {name:?} has no defining expression")
            }
            LangError::NoModules => write!(f, "program declares no module"),
            LangError::EmptyRange { var, lo, hi } => {
                write!(f, "variable {var:?} has empty range [{lo}..{hi}]")
            }
            LangError::WrongModelType { declared, hint } => {
                write!(f, "program declares model type `{declared}`; {hint}")
            }
            LangError::Dtmc(msg) => write!(f, "dtmc construction failed: {msg}"),
        }
    }
}

impl Error for LangError {}

/// Explorer errors surface as [`LangError::Dtmc`]; an exceeded state cap
/// keeps naming the [`crate::ExpandOptions::max_states`] knob that set it.
impl From<smg_dtmc::DtmcError> for LangError {
    fn from(e: smg_dtmc::DtmcError) -> Self {
        match e {
            smg_dtmc::DtmcError::StateLimitExceeded { limit } => {
                LangError::Dtmc(format!("state space exceeds max_states={limit}"))
            }
            e => LangError::Dtmc(e.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn positions_display_as_line_colon_col() {
        let p = Pos { line: 3, col: 14 };
        assert_eq!(p.to_string(), "3:14");
        assert_eq!(Pos::start(), Pos::default());
    }

    #[test]
    fn error_messages_name_the_offender() {
        let e = LangError::OutOfRange {
            var: "pm0".into(),
            value: 17,
            lo: 0,
            hi: 15,
        };
        let msg = e.to_string();
        assert!(msg.contains("pm0") && msg.contains("17") && msg.contains("[0..15]"));

        let e = LangError::Deadlock {
            module: "trellis".into(),
            state: "{x=1}".into(),
        };
        assert!(e.to_string().contains("trellis"));
    }
}
