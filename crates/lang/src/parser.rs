//! Recursive-descent parser for the guarded-command language.
//!
//! Grammar (PRISM-compatible subset; `?` marks optional, `*` repetition):
//!
//! ```text
//! program   := "dtmc"? item*
//! item      := const | formula | label | module | rewards
//! const     := "const" type? IDENT "=" expr ";"
//! type      := "int" | "double" | "bool"
//! formula   := "formula" IDENT "=" expr ";"
//! label     := "label" STRING "=" expr ";"
//! module    := "module" IDENT vardecl* command* "endmodule"
//! vardecl   := IDENT ":" ( "bool" | "[" expr ".." expr "]" ) ("init" expr)? ";"
//! command   := "[" IDENT? "]" expr "->" update ("+" update)* ";"
//! update    := (expr ":")? ( "true" | assign ("&" assign)* )
//! assign    := "(" IDENT "'" "=" expr ")"
//! rewards   := "rewards" STRING? (expr ":" expr ";")* "endrewards"
//! ```
//!
//! Expression precedence, loosest first: `? :`, `=>`, `|`, `&`, `!`,
//! relational (`= != < <= > >=`, non-associative), `+ -`, `* /`, unary `-`,
//! atoms. This matches PRISM except that PRISM's `<->` is omitted.
//! An expression nested deeper than [`MAX_DEPTH`] levels is rejected.

use crate::ast::*;
use crate::error::{LangError, Pos};
use crate::token::{lex, Spanned, Tok};

/// The deepest expression [`parse`] accepts. An expression is rejected
/// when its syntax tree stands more than `MAX_DEPTH` levels high (a
/// literal or a name is one level, and each operator or function call one
/// above its highest operand, so a chain of n atoms joined by `&` stands n
/// high), or when more than `MAX_DEPTH` parentheses, function calls, `!`,
/// unary `-`, `? :` and `=>` are open at once. [`crate::check()`] applies
/// the same cap to a `formula` with the formulas it names inlined. The
/// parser, the checker, the linter, the evaluators and the tree's own
/// `Display`, `Clone` and `Drop` recurse once per level or group, so the
/// cap keeps a hostile source (thousands of `(`, or thousands of `&`) from
/// overflowing a thread's stack. It is the cap `smg-pctl` puts on
/// properties.
pub const MAX_DEPTH: usize = 256;

/// Parses a program from source text.
///
/// # Errors
///
/// Any lexing error, [`LangError::UnexpectedToken`] with the position of
/// the first token that does not fit the grammar, or [`LangError::TooDeep`]
/// where an expression nests deeper than [`MAX_DEPTH`].
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), smg_lang::LangError> {
/// let program = smg_lang::parse(
///     "dtmc
///      module coin
///        heads : bool init false;
///        [] true -> 0.5:(heads'=true) + 0.5:(heads'=false);
///      endmodule
///      label \"h\" = heads;",
/// )?;
/// assert_eq!(program.modules.len(), 1);
/// # Ok(())
/// # }
/// ```
pub fn parse(src: &str) -> Result<Program, LangError> {
    let toks = lex(src)?;
    let mut p = Parser::new(toks);
    p.program()
}

/// Parses a single expression (used by the CLI for `-const`-style
/// overrides and by tests).
///
/// # Errors
///
/// As for [`parse`]; trailing tokens after the expression are rejected.
pub fn parse_expr(src: &str) -> Result<Expr, LangError> {
    let toks = lex(src)?;
    let mut p = Parser::new(toks);
    let e = p.expr()?;
    p.expect_eof()?;
    Ok(e)
}

/// Binding levels of the binary operators and `!`, loosest first.
const IMPLIES: u8 = 1;
const OR: u8 = 2;
const AND: u8 = 3;
const NOT: u8 = 4;
const REL: u8 = 5;
const ADD: u8 = 6;
const MUL: u8 = 7;

/// The binary operator `t` spells, with its binding level.
fn binary_op(t: &Tok) -> Option<(BinOp, u8)> {
    Some(match t {
        Tok::Implies => (BinOp::Implies, IMPLIES),
        Tok::Pipe => (BinOp::Or, OR),
        Tok::Amp => (BinOp::And, AND),
        Tok::Eq => (BinOp::Eq, REL),
        Tok::Neq => (BinOp::Neq, REL),
        Tok::Lt => (BinOp::Lt, REL),
        Tok::Le => (BinOp::Le, REL),
        Tok::Gt => (BinOp::Gt, REL),
        Tok::Ge => (BinOp::Ge, REL),
        Tok::Plus => (BinOp::Add, ADD),
        Tok::Minus => (BinOp::Sub, ADD),
        Tok::Star => (BinOp::Mul, MUL),
        Tok::Slash => (BinOp::Div, MUL),
        _ => return None,
    })
}

struct Parser {
    toks: Vec<Spanned>,
    i: usize,
    /// Groups open at `i` (see [`MAX_DEPTH`]).
    open: usize,
    /// Height of the expression parsed last (see [`MAX_DEPTH`]).
    height: usize,
}

impl Parser {
    fn new(toks: Vec<Spanned>) -> Self {
        Parser {
            toks,
            i: 0,
            open: 0,
            height: 0,
        }
    }

    /// Rejects a tree `height` levels high, or `height` open groups, past
    /// [`MAX_DEPTH`].
    fn check_depth(&self, height: usize) -> Result<(), LangError> {
        if height > MAX_DEPTH {
            return Err(LangError::TooDeep {
                formula: None,
                pos: self.pos(),
            });
        }
        Ok(())
    }

    /// Records that the expression just built stands one level above
    /// operands of height `below`.
    fn rise(&mut self, below: usize) -> Result<(), LangError> {
        self.height = below + 1;
        self.check_depth(self.height)
    }

    /// Enters a group, before the parser recurses into it.
    fn descend(&mut self) -> Result<(), LangError> {
        self.open += 1;
        self.check_depth(self.open)
    }

    fn peek(&self) -> &Tok {
        &self.toks[self.i].tok
    }

    fn pos(&self) -> Pos {
        self.toks[self.i].pos
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.i].tok.clone();
        if self.i + 1 < self.toks.len() {
            self.i += 1;
        }
        t
    }

    fn err<T>(&self, expected: &str) -> Result<T, LangError> {
        Err(LangError::UnexpectedToken {
            expected: expected.to_string(),
            found: self.peek().describe(),
            pos: self.pos(),
        })
    }

    fn expect(&mut self, t: &Tok, what: &str) -> Result<(), LangError> {
        if self.peek() == t {
            self.bump();
            Ok(())
        } else {
            self.err(what)
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), LangError> {
        if self.peek().is_kw(kw) {
            self.bump();
            Ok(())
        } else {
            self.err(&format!("keyword `{kw}`"))
        }
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek().is_kw(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_eof(&self) -> Result<(), LangError> {
        if matches!(self.peek(), Tok::Eof) {
            Ok(())
        } else {
            self.err("end of input")
        }
    }

    fn ident(&mut self, what: &str) -> Result<(String, Pos), LangError> {
        let pos = self.pos();
        match self.peek() {
            Tok::Ident(s) => {
                let s = s.clone();
                self.bump();
                Ok((s, pos))
            }
            _ => self.err(what),
        }
    }

    fn program(&mut self) -> Result<Program, LangError> {
        let mut prog = Program::default();
        // Optional model-type header.
        if self.peek().is_kw("dtmc") || self.peek().is_kw("probabilistic") {
            self.bump();
        } else if self.peek().is_kw("mdp") || self.peek().is_kw("nondeterministic") {
            prog.model_type = ModelType::Mdp;
            self.bump();
        }
        loop {
            match self.peek() {
                Tok::Eof => return Ok(prog),
                Tok::Ident(kw) if kw == "const" => {
                    let c = self.const_decl()?;
                    prog.consts.push(c);
                }
                Tok::Ident(kw) if kw == "formula" => {
                    self.bump();
                    let (name, pos) = self.ident("formula name")?;
                    self.expect(&Tok::Eq, "`=`")?;
                    let body = self.expr()?;
                    self.expect(&Tok::Semi, "`;`")?;
                    prog.formulas.push(FormulaDecl { name, body, pos });
                }
                Tok::Ident(kw) if kw == "label" => {
                    self.bump();
                    let pos = self.pos();
                    let name = match self.peek() {
                        Tok::Str(s) => {
                            let s = s.clone();
                            self.bump();
                            s
                        }
                        _ => return self.err("label name string"),
                    };
                    self.expect(&Tok::Eq, "`=`")?;
                    let body = self.expr()?;
                    self.expect(&Tok::Semi, "`;`")?;
                    prog.labels.push(LabelDecl { name, body, pos });
                }
                Tok::Ident(kw) if kw == "module" => {
                    let m = self.module()?;
                    prog.modules.push(m);
                }
                Tok::Ident(kw) if kw == "rewards" => {
                    let r = self.rewards()?;
                    prog.rewards.push(r);
                }
                _ => return self.err("`const`, `formula`, `label`, `module` or `rewards`"),
            }
        }
    }

    fn const_decl(&mut self) -> Result<ConstDecl, LangError> {
        let pos = self.pos();
        self.expect_kw("const")?;
        let mut ty = None;
        for t in ["int", "double", "bool"] {
            if self.peek().is_kw(t) {
                ty = Some(t.to_string());
                self.bump();
                break;
            }
        }
        let (name, _) = self.ident("constant name")?;
        if matches!(self.peek(), Tok::Semi) {
            // `const int N;` — undefined constant, which we do not support.
            return Err(LangError::UnboundConstant { name });
        }
        self.expect(&Tok::Eq, "`=`")?;
        let value = self.expr()?;
        self.expect(&Tok::Semi, "`;`")?;
        Ok(ConstDecl {
            name,
            ty,
            value,
            pos,
        })
    }

    fn module(&mut self) -> Result<Module, LangError> {
        let pos = self.pos();
        self.expect_kw("module")?;
        let (name, _) = self.ident("module name")?;
        let mut vars = Vec::new();
        let mut commands = Vec::new();
        loop {
            match self.peek() {
                Tok::Ident(kw) if kw == "endmodule" => {
                    self.bump();
                    return Ok(Module {
                        name,
                        vars,
                        commands,
                        pos,
                    });
                }
                Tok::LBracket => commands.push(self.command()?),
                Tok::Ident(_) => vars.push(self.var_decl()?),
                _ => return self.err("variable declaration, command or `endmodule`"),
            }
        }
    }

    fn var_decl(&mut self) -> Result<VarDecl, LangError> {
        let (name, pos) = self.ident("variable name")?;
        self.expect(&Tok::Colon, "`:`")?;
        let ty = if self.eat_kw("bool") {
            DeclType::Bool
        } else {
            self.expect(&Tok::LBracket, "`bool` or `[lo..hi]` range")?;
            let lo = self.expr()?;
            self.expect(&Tok::DotDot, "`..`")?;
            let hi = self.expr()?;
            self.expect(&Tok::RBracket, "`]`")?;
            DeclType::Range(lo, hi)
        };
        let init = if self.eat_kw("init") {
            Some(self.expr()?)
        } else {
            None
        };
        self.expect(&Tok::Semi, "`;`")?;
        Ok(VarDecl {
            name,
            ty,
            init,
            pos,
        })
    }

    fn command(&mut self) -> Result<Command, LangError> {
        let pos = self.pos();
        self.expect(&Tok::LBracket, "`[`")?;
        let action = match self.peek() {
            Tok::Ident(s) => {
                let s = s.clone();
                self.bump();
                Some(s)
            }
            _ => None,
        };
        self.expect(&Tok::RBracket, "`]`")?;
        let guard = self.expr()?;
        self.expect(&Tok::Arrow, "`->`")?;
        let mut updates = vec![self.update()?];
        while matches!(self.peek(), Tok::Plus) {
            self.bump();
            updates.push(self.update()?);
        }
        self.expect(&Tok::Semi, "`;`")?;
        Ok(Command {
            action,
            guard,
            updates,
            pos,
        })
    }

    /// One probabilistic branch. The `prob :` prefix is optional (defaults
    /// to probability 1). Disambiguation: we parse an expression; if a `:`
    /// follows, it was the probability, otherwise the expression must have
    /// been the literal `true` (PRISM's empty update) — assignments always
    /// start with `(` followed by `IDENT '`, which cannot be confused with
    /// an expression because we look ahead for the prime.
    fn update(&mut self) -> Result<Update, LangError> {
        // Case 1: update starts directly with an assignment list.
        if self.starts_assign() {
            return Ok(Update {
                prob: Expr::Int(1),
                assigns: self.assign_list()?,
            });
        }
        // Case 2: `true` with no probability.
        if self.peek().is_kw("true") && !matches!(self.toks[self.i + 1].tok, Tok::Colon) {
            self.bump();
            return Ok(Update {
                prob: Expr::Int(1),
                assigns: Vec::new(),
            });
        }
        // Case 3: `prob : (...)` or `prob : true`.
        let prob = self.expr()?;
        self.expect(&Tok::Colon, "`:` after update probability")?;
        if self.eat_kw("true") {
            return Ok(Update {
                prob,
                assigns: Vec::new(),
            });
        }
        Ok(Update {
            prob,
            assigns: self.assign_list()?,
        })
    }

    /// Whether the upcoming tokens are `( IDENT '` — the start of an
    /// assignment rather than a parenthesized probability expression.
    fn starts_assign(&self) -> bool {
        matches!(self.toks.get(self.i).map(|s| &s.tok), Some(Tok::LParen))
            && matches!(
                self.toks.get(self.i + 1).map(|s| &s.tok),
                Some(Tok::Ident(_))
            )
            && matches!(self.toks.get(self.i + 2).map(|s| &s.tok), Some(Tok::Prime))
    }

    fn assign_list(&mut self) -> Result<Vec<Assign>, LangError> {
        let mut out = vec![self.assign()?];
        while matches!(self.peek(), Tok::Amp) {
            self.bump();
            out.push(self.assign()?);
        }
        Ok(out)
    }

    fn assign(&mut self) -> Result<Assign, LangError> {
        self.expect(&Tok::LParen, "`(`")?;
        let (var, pos) = self.ident("assignment target")?;
        self.expect(&Tok::Prime, "`'`")?;
        self.expect(&Tok::Eq, "`=`")?;
        let value = self.expr()?;
        self.expect(&Tok::RParen, "`)`")?;
        Ok(Assign { var, value, pos })
    }

    fn rewards(&mut self) -> Result<RewardsDecl, LangError> {
        let pos = self.pos();
        self.expect_kw("rewards")?;
        let name = match self.peek() {
            Tok::Str(s) => {
                let s = s.clone();
                self.bump();
                Some(s)
            }
            _ => None,
        };
        let mut items = Vec::new();
        while !self.peek().is_kw("endrewards") {
            if matches!(self.peek(), Tok::Eof) {
                return self.err("`endrewards`");
            }
            let guard = self.expr()?;
            self.expect(&Tok::Colon, "`:`")?;
            let value = self.expr()?;
            self.expect(&Tok::Semi, "`;`")?;
            items.push(RewardItem { guard, value });
        }
        self.bump(); // endrewards
        Ok(RewardsDecl { name, items, pos })
    }

    // ---- expressions ----

    // Every function that recurses keeps its frame small: a debug build
    // must nest [`MAX_DEPTH`] groups within a 2 MiB thread stack, so the
    // rarer shapes (`? :`, `!`, parentheses, function calls) parse in
    // helpers that are on the stack only while their shape nests.

    fn expr(&mut self) -> Result<Expr, LangError> {
        let cond = self.binary(IMPLIES)?;
        if matches!(self.peek(), Tok::Question) {
            return self.conditional(cond);
        }
        Ok(cond)
    }

    /// `cond ? then : else`, from the `?` on.
    fn conditional(&mut self, cond: Expr) -> Result<Expr, LangError> {
        self.bump();
        let mut below = self.height;
        self.descend()?;
        let then = self.expr()?;
        below = below.max(self.height);
        self.expect(&Tok::Colon, "`:` in conditional")?;
        let els = self.expr()?;
        self.open -= 1;
        self.rise(below.max(self.height))?;
        Ok(Expr::Ite(Box::new(cond), Box::new(then), Box::new(els)))
    }

    /// An expression of the operators that bind at level `min` or tighter
    /// (precedence climbing): `=>` groups to the right, a relational
    /// operator takes no second one, the other binary operators group to
    /// the left, and `!` applies to a relational expression.
    fn binary(&mut self, min: u8) -> Result<Expr, LangError> {
        // Past a relational operator (or `!`, which took one in) no further
        // relational operator binds at this level.
        let negated = min <= NOT && matches!(self.peek(), Tok::Not);
        let mut related = negated;
        let mut lhs = if negated {
            self.negation()?
        } else {
            self.unary()?
        };
        while let Some((op, level)) = binary_op(self.peek()) {
            if level < min || (level == REL && related) {
                break;
            }
            self.bump();
            let below = self.height;
            let rhs = if level == IMPLIES {
                self.descend()?;
                let rhs = self.binary(IMPLIES)?;
                self.open -= 1;
                rhs
            } else {
                self.binary(level + 1)?
            };
            self.rise(below.max(self.height))?;
            related |= level == REL;
            lhs = Expr::Bin(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    /// `!` and the relational expression it applies to.
    fn negation(&mut self) -> Result<Expr, LangError> {
        self.bump();
        self.descend()?;
        let inner = self.binary(NOT)?;
        self.open -= 1;
        self.rise(self.height)?;
        Ok(Expr::Not(Box::new(inner)))
    }

    fn unary(&mut self) -> Result<Expr, LangError> {
        if matches!(self.peek(), Tok::Minus) {
            self.bump();
            self.descend()?;
            let inner = self.unary()?;
            self.open -= 1;
            self.rise(self.height)?;
            return Ok(Expr::Neg(Box::new(inner)));
        }
        self.atom()
    }

    fn atom(&mut self) -> Result<Expr, LangError> {
        let pos = self.pos();
        self.height = 1;
        match self.peek().clone() {
            Tok::Int(v) => {
                self.bump();
                Ok(Expr::Int(v))
            }
            Tok::Double(v) => {
                self.bump();
                Ok(Expr::Double(v))
            }
            Tok::LParen => self.group(),
            Tok::Ident(name) => {
                self.bump();
                if name == "true" {
                    return Ok(Expr::Bool(true));
                }
                if name == "false" {
                    return Ok(Expr::Bool(false));
                }
                match Func::from_name(&name) {
                    Some(func) if matches!(self.peek(), Tok::LParen) => self.call(func, pos),
                    _ => Ok(Expr::Name(name, pos)),
                }
            }
            _ => self.err("expression"),
        }
    }

    /// A parenthesized expression, at the `(`.
    fn group(&mut self) -> Result<Expr, LangError> {
        self.bump();
        self.descend()?;
        let e = self.expr()?;
        self.expect(&Tok::RParen, "`)`")?;
        self.open -= 1;
        Ok(e)
    }

    /// The arguments of a call to `func` (named at `pos`), at the `(`.
    fn call(&mut self, func: Func, pos: Pos) -> Result<Expr, LangError> {
        self.bump();
        self.descend()?;
        let mut args = vec![self.expr()?];
        let mut below = self.height;
        while matches!(self.peek(), Tok::Comma) {
            self.bump();
            args.push(self.expr()?);
            below = below.max(self.height);
        }
        self.expect(&Tok::RParen, "`)`")?;
        self.open -= 1;
        self.rise(below)?;
        check_arity(func, args.len(), pos)?;
        Ok(Expr::Apply(func, args))
    }
}

/// Rejects a call to `func` (named at `pos`) with `n` arguments when its
/// arity does not allow that many.
fn check_arity(func: Func, n: usize, pos: Pos) -> Result<(), LangError> {
    let (lo, hi) = func.arity();
    if n < lo || hi.is_some_and(|h| n > h) {
        return Err(LangError::UnexpectedToken {
            expected: format!(
                "{} arguments to {}",
                match hi {
                    Some(h) if h == lo => format!("{lo}"),
                    Some(h) => format!("{lo}..{h}"),
                    None => format!("at least {lo}"),
                },
                func.name()
            ),
            found: format!("{n}"),
            pos,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_readme_die_fragment() {
        let src = r#"
            dtmc
            // Knuth-Yao style fragment
            module die
              s : [0..3] init 0;
              [] s=0 -> 0.5:(s'=1) + 0.5:(s'=2);
              [] s>0 -> (s'=s);
            endmodule
            label "done" = s>0;
        "#;
        let p = parse(src).unwrap();
        assert_eq!(p.modules.len(), 1);
        assert_eq!(p.modules[0].vars.len(), 1);
        assert_eq!(p.modules[0].commands.len(), 2);
        assert_eq!(p.labels.len(), 1);
        assert_eq!(p.labels[0].name, "done");
    }

    #[test]
    fn update_probability_defaults_to_one() {
        let p = parse("module m x : bool; [] true -> (x'=!x); endmodule").unwrap();
        let u = &p.modules[0].commands[0].updates[0];
        assert_eq!(u.prob, Expr::Int(1));
        assert_eq!(u.assigns.len(), 1);
    }

    #[test]
    fn true_update_is_empty_assign_list() {
        let p = parse("module m x : bool; [] true -> true; endmodule").unwrap();
        assert!(p.modules[0].commands[0].updates[0].assigns.is_empty());
        let p = parse("module m x : bool; [] true -> 0.3:true + 0.7:(x'=true); endmodule").unwrap();
        assert!(p.modules[0].commands[0].updates[0].assigns.is_empty());
        assert_eq!(p.modules[0].commands[0].updates.len(), 2);
    }

    #[test]
    fn parenthesized_probability_is_not_mistaken_for_assignment() {
        // `(p) : (x'=true)` — probability in parens.
        let p = parse(
            "const double p = 0.25; module m x : bool; [] true -> (p):(x'=true) + (1-p):true; endmodule",
        )
        .unwrap();
        assert_eq!(p.modules[0].commands[0].updates.len(), 2);
    }

    #[test]
    fn precedence_binds_arithmetic_tighter_than_comparison() {
        let e = parse_expr("x + 1 < 2 * y").unwrap();
        let Expr::Bin(BinOp::Lt, lhs, rhs) = e else {
            panic!("expected comparison at top");
        };
        assert!(matches!(*lhs, Expr::Bin(BinOp::Add, _, _)));
        assert!(matches!(*rhs, Expr::Bin(BinOp::Mul, _, _)));
    }

    #[test]
    fn implication_is_right_associative() {
        let e = parse_expr("a => b => c").unwrap();
        let Expr::Bin(BinOp::Implies, _, rhs) = e else {
            panic!("expected implies at top");
        };
        assert!(matches!(*rhs, Expr::Bin(BinOp::Implies, _, _)));
    }

    #[test]
    fn conditional_nests() {
        let e = parse_expr("a ? 1 : b ? 2 : 3").unwrap();
        let Expr::Ite(_, _, els) = e else {
            panic!("expected conditional");
        };
        assert!(matches!(*els, Expr::Ite(_, _, _)));
    }

    #[test]
    fn function_arity_is_checked() {
        assert!(parse_expr("floor(1.5)").is_ok());
        assert!(parse_expr("floor(1.5, 2)").is_err());
        assert!(parse_expr("mod(5)").is_err());
        assert!(parse_expr("min(1,2,3,4)").is_ok());
    }

    #[test]
    fn undefined_const_is_rejected() {
        assert!(matches!(
            parse("const int N;").unwrap_err(),
            LangError::UnboundConstant { .. }
        ));
    }

    #[test]
    fn rewards_blocks_parse_named_and_unnamed() {
        let p = parse(
            r#"module m x : bool; [] true -> true; endmodule
               rewards x : 1; endrewards
               rewards "steps" true : 0.5; endrewards"#,
        )
        .unwrap();
        assert_eq!(p.rewards.len(), 2);
        assert_eq!(p.rewards[0].name, None);
        assert_eq!(p.rewards[1].name.as_deref(), Some("steps"));
    }

    #[test]
    fn error_position_points_at_problem() {
        let err = parse("module m x : bool; [] true -> ; endmodule").unwrap_err();
        let LangError::UnexpectedToken { pos, .. } = err else {
            panic!("expected UnexpectedToken");
        };
        assert_eq!(pos.line, 1);
        assert_eq!(pos.col, 31);
    }

    #[test]
    fn synchronization_labels_are_kept() {
        let p = parse("module m x : bool; [tick] true -> (x'=!x); endmodule").unwrap();
        assert_eq!(p.modules[0].commands[0].action.as_deref(), Some("tick"));
    }

    #[test]
    fn display_round_trips_through_parse() {
        let src = r#"
            dtmc
            const double p = 0.3;
            formula stay = x=0 & !done;
            module m
              x : [0..2] init 0;
              done : bool init false;
              [] stay -> p:(x'=1) + (1-p):(x'=0);
              [] x>0 -> (done'=true) & (x'=min(x+1, 2));
              [] done -> true;
            endmodule
            label "fin" = done;
            rewards
              done : 1;
            endrewards
        "#;
        let p1 = parse(src).unwrap();
        let p2 = parse(&p1.to_string()).unwrap();
        // Positions differ between the two parses; the pretty-printed
        // forms (which elide positions) must agree exactly.
        assert_eq!(p1.to_string(), p2.to_string());
    }

    #[test]
    fn trailing_garbage_in_expr_is_rejected() {
        assert!(parse_expr("1 + 2 )").is_err());
    }

    #[test]
    fn depth_is_capped_for_nesting_and_chains_alike() {
        let parens = |n: usize| format!("{}x{}", "(".repeat(n), ")".repeat(n));
        let prefix = |op: &str, n: usize| format!("{}x", op.repeat(n));
        let chain = |op: &str, n: usize| vec!["x"; n].join(op);
        let calls = |n: usize| format!("{}x{}", "floor(".repeat(n), ")".repeat(n));
        let ites = |n: usize| format!("{}0", "b ? 1 : ".repeat(n));
        // Where each shape is rejected: the column just past the token at
        // which the cap is crossed.
        let column = |src: &str| match parse_expr(src) {
            Err(LangError::TooDeep { formula: None, pos }) => {
                assert_eq!(pos.line, 1);
                pos.col as usize
            }
            other => panic!("{other:?}"),
        };
        // At the cap every shape parses; one level more is rejected where
        // it is seen.
        for at_cap in [
            parens(MAX_DEPTH),
            prefix("!", MAX_DEPTH - 1),
            prefix("-", MAX_DEPTH - 1),
            chain(" & ", MAX_DEPTH),
            chain(" | ", MAX_DEPTH),
            chain(" + ", MAX_DEPTH),
            chain(" * ", MAX_DEPTH),
            chain(" => ", MAX_DEPTH),
            calls(MAX_DEPTH - 1),
            ites(MAX_DEPTH - 1),
        ] {
            parse_expr(&at_cap).unwrap_or_else(|e| panic!("{e}"));
        }
        assert_eq!(column(&parens(MAX_DEPTH + 1)), MAX_DEPTH + 2);
        let long = prefix("!", MAX_DEPTH);
        assert_eq!(column(&long), long.len() + 1);
        let long = chain(" & ", MAX_DEPTH + 1);
        assert_eq!(column(&long), long.len() + 1);
        for past in [
            prefix("-", MAX_DEPTH),
            chain(" | ", MAX_DEPTH + 1),
            chain(" * ", MAX_DEPTH + 1),
            chain(" => ", MAX_DEPTH + 1),
            calls(MAX_DEPTH),
            ites(MAX_DEPTH),
        ] {
            column(&past);
        }
        // A chain's first operand sits deepest in its left-leaning tree:
        // 200 negations under 55 `&` reach the cap, under 56 exceed it.
        parse_expr(&format!("{} & {}", prefix("!", 200), chain(" & ", 55))).unwrap();
        column(&format!("{} & {}", prefix("!", 200), chain(" & ", 56)));
        // What a hostile source holds stops at the cap, not the stack.
        column(&parens(100_000));
        column(&chain(" & ", 200_000));
        // Inside a program the error names its line.
        let src = format!(
            "module m\n  x : bool;\n  [] {} -> true;\nendmodule\n",
            parens(MAX_DEPTH + 1)
        );
        let err = parse(&src).unwrap_err();
        assert!(
            matches!(err, LangError::TooDeep { pos, .. } if pos.line == 3),
            "{err:?}"
        );
        assert!(err.to_string().contains("nested deeper than 256 levels"));
    }
}
