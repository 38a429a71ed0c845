//! A PRISM-flavoured concrete syntax for pCTL properties.
//!
//! The grammar (whitespace-insensitive):
//!
//! ```text
//! property := 'P' '=?' '[' path ']'
//!           | ('Pmin' | 'Pmax') '=?' '[' path ']'
//!           | 'R' '=?' '[' reward ']'
//!           | ('Rmin' | 'Rmax') '=?' '[' reward ']'
//!           | 'S' '=?' '[' state ']'
//!           | state                      (boolean query)
//! reward   := 'I' '=' INT | 'C' '<=' INT | 'F' state
//! path     := 'X' state
//!           | ('F' | 'G') bound? state
//!           | state 'U' bound? state
//! bound    := '<=' INT | '[' INT ',' INT ']'
//! state    := or ( '=>' or )?
//! or       := and ( '|' and )*
//! and      := unary ( '&' unary )*
//! unary    := '!' unary | atom
//! atom     := 'true' | 'false' | IDENT | '(' state ')'
//!           | 'P' cmp NUMBER '[' path ']'
//! cmp      := '>=' | '>' | '<=' | '<'
//! ```
//!
//! The paper's properties parse verbatim:
//! `P=? [ G<=300 !flag ]`, `R=? [ I=300 ]`, `P=? [ F<=300 count_exceeds ]`.
//! A formula nested deeper than [`MAX_DEPTH`] levels is rejected.

use crate::ast::{Cmp, Opt, PathFormula, Property, RewardQuery, StateFormula, TimeBound};
use crate::error::PctlError;

/// The deepest formula [`parse_property`] accepts. A property is
/// rejected when its syntax tree stands more than `MAX_DEPTH` levels high
/// (an atom is one level, and each operator, `!`, `&`, `|`, `=>`, `X`,
/// `F`, `G`, `U` or `P⋈p [ … ]`, one above its highest operand, so a chain
/// of n atoms joined by `&` stands n high), or when more than `MAX_DEPTH`
/// parentheses, negations and `P⋈p [ … ]` groups are open at once. The
/// parser, the checker and the formula's own `Display`, `Clone` and
/// `Drop` recurse once per level or group, so the cap keeps a hostile
/// property (thousands of `(`, or thousands of `&`) from overflowing a
/// thread's stack. The printed form of an accepted property is accepted
/// too: it opens at most one group per operator.
pub const MAX_DEPTH: usize = 256;

/// Parses a property string.
///
/// # Errors
///
/// Returns [`PctlError::Parse`] with a byte position and message when the
/// input does not match the grammar or nests deeper than [`MAX_DEPTH`].
///
/// # Example
///
/// ```
/// use smg_pctl::parse_property;
/// let p = parse_property("P=? [ G<=300 !flag ]")?;
/// assert_eq!(p.to_string(), "P=? [ G<=300 !flag ]");
/// # Ok::<(), smg_pctl::PctlError>(())
/// ```
pub fn parse_property(input: &str) -> Result<Property, PctlError> {
    let mut p = Parser::new(input);
    let prop = p.property()?;
    p.skip_ws();
    if !p.at_end() {
        return Err(p.err("unexpected trailing input"));
    }
    Ok(prop)
}

struct Parser<'a> {
    input: &'a str,
    pos: usize,
    /// `(`, `!` and `P⋈p [` groups open at `pos`.
    open: usize,
    /// Height of the formula parsed last (see [`MAX_DEPTH`]).
    height: usize,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        Parser {
            input,
            pos: 0,
            open: 0,
            height: 0,
        }
    }

    /// Rejects a tree `height` levels high, or `height` nested groups,
    /// past [`MAX_DEPTH`].
    fn check_depth(&self, height: usize) -> Result<(), PctlError> {
        if height > MAX_DEPTH {
            return Err(self.err(&format!("formula nested deeper than {MAX_DEPTH} levels")));
        }
        Ok(())
    }

    /// Records that the formula just built stands one level above
    /// operands of height `below`.
    fn rise(&mut self, below: usize) -> Result<(), PctlError> {
        self.height = below + 1;
        self.check_depth(self.height)
    }

    /// Enters a `(`, `!` or `P⋈p [` group, before the parser recurses
    /// into it.
    fn descend(&mut self) -> Result<(), PctlError> {
        self.open += 1;
        self.check_depth(self.open)
    }

    fn err(&self, message: &str) -> PctlError {
        PctlError::Parse {
            position: self.pos,
            message: message.to_string(),
        }
    }

    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    fn at_end(&self) -> bool {
        self.pos >= self.input.len()
    }

    fn skip_ws(&mut self) {
        while let Some(c) = self.rest().chars().next() {
            if c.is_whitespace() {
                self.pos += c.len_utf8();
            } else {
                break;
            }
        }
    }

    fn eat(&mut self, token: &str) -> bool {
        self.skip_ws();
        if self.rest().starts_with(token) {
            self.pos += token.len();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, token: &str) -> Result<(), PctlError> {
        if self.eat(token) {
            Ok(())
        } else {
            Err(self.err(&format!("expected `{token}`")))
        }
    }

    /// Eats a keyword only if it is not a prefix of a longer identifier
    /// (so `F` is a temporal operator but `Flag` is an AP).
    fn eat_keyword(&mut self, kw: &str) -> bool {
        self.skip_ws();
        if self.rest().starts_with(kw) {
            let after = &self.rest()[kw.len()..];
            let next = after.chars().next();
            if next.is_none_or(|c| !c.is_alphanumeric() && c != '_') {
                self.pos += kw.len();
                return true;
            }
        }
        false
    }

    fn peek_keyword(&mut self, kw: &str) -> bool {
        let save = self.pos;
        let hit = self.eat_keyword(kw);
        self.pos = save;
        hit
    }

    fn integer(&mut self) -> Result<u64, PctlError> {
        self.skip_ws();
        let start = self.pos;
        while self
            .rest()
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_digit())
        {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("expected an integer"));
        }
        self.input[start..self.pos]
            .parse()
            .map_err(|_| self.err("integer out of range"))
    }

    fn number(&mut self) -> Result<f64, PctlError> {
        self.skip_ws();
        let start = self.pos;
        while self.rest().chars().next().is_some_and(|c| {
            c.is_ascii_digit() || c == '.' || c == 'e' || c == 'E' || c == '-' || c == '+'
        }) {
            // Only allow sign right after 'e'/'E' or at the start.
            let c = self.rest().chars().next().unwrap();
            if (c == '-' || c == '+') && self.pos != start {
                let prev = self.input[start..self.pos].chars().last().unwrap();
                if prev != 'e' && prev != 'E' {
                    break;
                }
            }
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("expected a number"));
        }
        self.input[start..self.pos]
            .parse()
            .map_err(|_| self.err("malformed number"))
    }

    fn identifier(&mut self) -> Result<String, PctlError> {
        self.skip_ws();
        let start = self.pos;
        let mut first = true;
        while let Some(c) = self.rest().chars().next() {
            // Dots are allowed mid-identifier: a synchronous product of two
            // models namespaces their atomic propositions as `l.<ap>` /
            // `r.<ap>`.
            let ok = if first {
                c.is_alphabetic() || c == '_'
            } else {
                c.is_alphanumeric() || c == '_' || c == '.'
            };
            if !ok {
                break;
            }
            first = false;
            self.pos += c.len_utf8();
        }
        if self.pos == start {
            return Err(self.err("expected an identifier"));
        }
        Ok(self.input[start..self.pos].to_string())
    }

    fn property(&mut self) -> Result<Property, PctlError> {
        self.skip_ws();
        // Min/max query forms first: `Pmin`/`Pmax` would otherwise lex as
        // plain identifiers (the bare `P`/`R` keyword checks stop at the
        // word boundary and cannot eat them).
        for (kw, opt) in [("Pmin", Opt::Min), ("Pmax", Opt::Max)] {
            if self.peek_keyword(kw) {
                let save = self.pos;
                assert!(self.eat_keyword(kw));
                if self.eat("=?") {
                    self.expect("[")?;
                    let path = self.path()?;
                    self.expect("]")?;
                    return Ok(Property::OptProbQuery(opt, path));
                }
                // An AP that happens to be called Pmin/Pmax.
                self.pos = save;
                return Ok(Property::Bool(self.state()?));
            }
        }
        for (kw, opt) in [("Rmin", Opt::Min), ("Rmax", Opt::Max)] {
            if self.peek_keyword(kw) {
                let save = self.pos;
                assert!(self.eat_keyword(kw));
                if self.eat("=?") {
                    let q = self.reward_body()?;
                    return Ok(Property::OptRewardQuery(opt, q));
                }
                // An AP that happens to be called Rmin/Rmax.
                self.pos = save;
                return Ok(Property::Bool(self.state()?));
            }
        }
        if self.peek_keyword("P") {
            let save = self.pos;
            assert!(self.eat_keyword("P"));
            if self.eat("=?") {
                self.expect("[")?;
                let path = self.path()?;
                self.expect("]")?;
                return Ok(Property::ProbQuery(path));
            }
            // Bounded P operator as a boolean query.
            self.pos = save;
            return Ok(Property::Bool(self.state()?));
        }
        if self.eat_keyword("R") {
            self.expect("=?")?;
            let q = self.reward_body()?;
            return Ok(Property::RewardQuery(q));
        }
        if self.eat_keyword("S") {
            self.expect("=?")?;
            self.expect("[")?;
            let f = self.state()?;
            self.expect("]")?;
            return Ok(Property::SteadyQuery(f));
        }
        Ok(Property::Bool(self.state()?))
    }

    /// The `[ I=t | C<=t | F φ ]` tail shared by `R`, `Rmin` and `Rmax`
    /// (the caller has already consumed `=?`).
    fn reward_body(&mut self) -> Result<RewardQuery, PctlError> {
        self.expect("[")?;
        let q = if self.eat_keyword("I") {
            self.expect("=")?;
            RewardQuery::Instantaneous(self.integer()?)
        } else if self.eat_keyword("C") {
            self.expect("<=")?;
            RewardQuery::Cumulative(self.integer()?)
        } else if self.eat_keyword("F") {
            RewardQuery::Reach(self.state()?)
        } else {
            return Err(self.err("expected `I=`, `C<=` or `F` in reward query"));
        };
        self.expect("]")?;
        Ok(q)
    }

    fn bound(&mut self) -> Result<TimeBound, PctlError> {
        if self.eat("<=") {
            return Ok(TimeBound::Upper(self.integer()?));
        }
        if self.eat("[") {
            let a = self.integer()?;
            self.expect(",")?;
            let b = self.integer()?;
            self.expect("]")?;
            if a > b {
                return Err(self.err("empty time interval (lower bound exceeds upper)"));
            }
            return Ok(TimeBound::Interval(a, b));
        }
        Ok(TimeBound::None)
    }

    fn path(&mut self) -> Result<PathFormula, PctlError> {
        if self.eat_keyword("X") {
            let inner = self.state()?;
            self.rise(self.height)?;
            return Ok(PathFormula::Next(inner));
        }
        if self.eat_keyword("F") {
            let bound = self.bound()?;
            let inner = self.state()?;
            self.rise(self.height)?;
            return Ok(PathFormula::Finally { inner, bound });
        }
        if self.eat_keyword("G") {
            let bound = self.bound()?;
            let inner = self.state()?;
            self.rise(self.height)?;
            return Ok(PathFormula::Globally { inner, bound });
        }
        let lhs = self.state()?;
        if self.eat_keyword("U") {
            let below = self.height;
            let bound = self.bound()?;
            let rhs = self.state()?;
            self.rise(below.max(self.height))?;
            return Ok(PathFormula::Until { lhs, rhs, bound });
        }
        Err(self.err("expected a path formula (X, F, G, or U)"))
    }

    fn state(&mut self) -> Result<StateFormula, PctlError> {
        let lhs = self.or()?;
        if self.eat("=>") {
            let below = self.height;
            let rhs = self.or()?;
            self.rise(below.max(self.height))?;
            return Ok(StateFormula::Implies(Box::new(lhs), Box::new(rhs)));
        }
        Ok(lhs)
    }

    fn or(&mut self) -> Result<StateFormula, PctlError> {
        let mut lhs = self.and()?;
        while {
            // `|` but not `||` ambiguity: single | only in this grammar.
            self.skip_ws();
            self.rest().starts_with('|')
        } {
            self.pos += 1;
            let below = self.height;
            let rhs = self.and()?;
            self.rise(below.max(self.height))?;
            lhs = StateFormula::Or(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn and(&mut self) -> Result<StateFormula, PctlError> {
        let mut lhs = self.unary()?;
        while {
            self.skip_ws();
            self.rest().starts_with('&')
        } {
            self.pos += 1;
            let below = self.height;
            let rhs = self.unary()?;
            self.rise(below.max(self.height))?;
            lhs = StateFormula::And(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<StateFormula, PctlError> {
        if self.eat("!") {
            self.descend()?;
            let inner = self.unary()?;
            self.open -= 1;
            self.rise(self.height)?;
            return Ok(StateFormula::Not(Box::new(inner)));
        }
        self.atom()
    }

    fn atom(&mut self) -> Result<StateFormula, PctlError> {
        if self.eat("(") {
            self.descend()?;
            let f = self.state()?;
            self.expect(")")?;
            self.open -= 1;
            return Ok(f);
        }
        self.height = 1;
        if self.eat_keyword("true") {
            return Ok(StateFormula::True);
        }
        if self.eat_keyword("false") {
            return Ok(StateFormula::False);
        }
        // Bounded probability operator `P cmp p [ path ]`.
        if self.peek_keyword("P") {
            let save = self.pos;
            assert!(self.eat_keyword("P"));
            let cmp = if self.eat(">=") {
                Some(Cmp::Geq)
            } else if self.eat("<=") {
                Some(Cmp::Leq)
            } else if self.eat(">") {
                Some(Cmp::Gt)
            } else if self.eat("<") {
                Some(Cmp::Lt)
            } else {
                None
            };
            match cmp {
                Some(cmp) => {
                    self.descend()?;
                    let threshold = self.number()?;
                    self.expect("[")?;
                    let path = self.path()?;
                    self.expect("]")?;
                    self.open -= 1;
                    self.rise(self.height)?;
                    return Ok(StateFormula::Prob {
                        cmp,
                        threshold,
                        path: Box::new(path),
                    });
                }
                None => {
                    // Plain identifier starting with P.
                    self.pos = save;
                }
            }
        }
        let name = self.identifier()?;
        Ok(StateFormula::Ap(name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(s: &str) {
        let p = parse_property(s).unwrap_or_else(|e| panic!("parsing `{s}`: {e}"));
        let printed = p.to_string();
        let p2 = parse_property(&printed).unwrap_or_else(|e| panic!("reparsing `{printed}`: {e}"));
        assert_eq!(p, p2, "round trip of `{s}` via `{printed}`");
    }

    #[test]
    fn paper_properties_parse() {
        // P1, P2, P3, C1 exactly as in the paper (modulo the counter AP).
        round_trip("P=? [ G<=300 !flag ]");
        round_trip("R=? [ I=300 ]");
        round_trip("P=? [ F<=300 count_exceeds ]");
        round_trip("R=? [ I=1000 ]");
    }

    #[test]
    fn structured_forms() {
        round_trip("P=? [ a U<=10 b ]");
        round_trip("P=? [ a U b ]");
        round_trip("P=? [ X done ]");
        round_trip("S=? [ flag ]");
        round_trip("R=? [ C<=50 ]");
        round_trip("R=? [ F done ]");
        round_trip("R=? [ F (converged & !flag) ]");
        // Namespaced APs from composed models (`l.<ap>` / `r.<ap>`).
        round_trip("P=? [ F<=8 (l.err & r.err) ]");
        round_trip("S=? [ l.flag ]");
        // Interval bounds.
        round_trip("P=? [ F[3,7] flag ]");
        round_trip("P=? [ G[0,4] !flag ]");
        round_trip("P=? [ a U[2,2] b ]");
        round_trip("P=? [ F (a & !b | c) ]");
        round_trip("(a => b)");
        round_trip("P>=0.99 [ F<=5 ok ]");
        round_trip("P<0.001 [ G bad ]");
    }

    #[test]
    fn min_max_queries_parse() {
        round_trip("Pmax=? [ F<=300 err ]");
        round_trip("Pmin=? [ G<=300 !flag ]");
        round_trip("Pmin=? [ a U<=10 b ]");
        round_trip("Pmax=? [ X done ]");
        round_trip("Rmax=? [ I=300 ]");
        round_trip("Rmin=? [ C<=50 ]");
        round_trip("Rmin=? [ F done ]");
        let p = parse_property("Pmax=? [ F err ]").unwrap();
        assert!(matches!(p, Property::OptProbQuery(Opt::Max, _)));
        let p = parse_property("Rmin=? [ F done ]").unwrap();
        assert!(matches!(p, Property::OptRewardQuery(Opt::Min, _)));
        // An atomic proposition that merely *starts* like the keywords.
        let p = parse_property("Pminish").unwrap();
        assert_eq!(p, Property::Bool(StateFormula::ap("Pminish")));
        // A bare AP exactly named Pmin/Rmax still works as a boolean query.
        let p = parse_property("Pmin & flag").unwrap();
        assert_eq!(
            p,
            Property::Bool(StateFormula::ap("Pmin").and(StateFormula::ap("flag")))
        );
        let p = parse_property("Rmax | Rmin").unwrap();
        assert_eq!(
            p,
            Property::Bool(StateFormula::ap("Rmax").or(StateFormula::ap("Rmin")))
        );
    }

    #[test]
    fn whitespace_insensitive() {
        let a = parse_property("P=?[G<=300 !flag]").unwrap();
        let b = parse_property("  P=?  [  G<=300   ! flag ]  ").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn keywords_vs_identifiers() {
        // `Flag` starts with F but is an AP, not `F lag`.
        let p = parse_property("P=? [ F<=3 Flag ]").unwrap();
        match p {
            Property::ProbQuery(PathFormula::Finally { inner, .. }) => {
                assert_eq!(inner, StateFormula::ap("Flag"));
            }
            other => panic!("unexpected {other:?}"),
        }
        // An AP named `trueish` is not the literal `true`.
        let p = parse_property("trueish").unwrap();
        assert_eq!(p, Property::Bool(StateFormula::ap("trueish")));
    }

    #[test]
    fn precedence() {
        // & binds tighter than |.
        let p = parse_property("a | b & c").unwrap();
        assert_eq!(p.to_string(), "(a | (b & c))");
        // ! binds tightest.
        let p = parse_property("!a & b").unwrap();
        assert_eq!(p.to_string(), "(!a & b)");
        // Parentheses override.
        let p = parse_property("(a | b) & c").unwrap();
        assert_eq!(p.to_string(), "((a | b) & c)");
    }

    #[test]
    fn nested_prob_operator() {
        let p = parse_property("P=? [ F<=10 P>=0.5 [ X ok ] ]").unwrap();
        match p {
            Property::ProbQuery(PathFormula::Finally { inner, bound }) => {
                assert_eq!(bound, TimeBound::Upper(10));
                assert!(matches!(inner, StateFormula::Prob { .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn errors_are_located() {
        for bad in [
            "P=? [",
            "P=? [ H flag ]",
            "R=? [ I 300 ]",
            "R=? [ Z=3 ]",
            "P=? [ F<=x flag ]",
            "P=? [ G flag ] trailing",
            "",
            "P>= [ F a ]",
            "()",
            "P=? [ F[5,2] flag ]",
            "P=? [ F[3 7] flag ]",
        ] {
            let e = parse_property(bad);
            assert!(e.is_err(), "`{bad}` should not parse");
            let msg = e.unwrap_err().to_string();
            assert!(msg.contains("parse error"), "{msg}");
        }
    }

    #[test]
    fn depth_is_capped_for_nesting_and_chains_alike() {
        let parens = |n: usize| format!("{}a{}", "(".repeat(n), ")".repeat(n));
        let nots = |n: usize| format!("{}a", "!".repeat(n));
        let chain = |op: &str, n: usize| vec!["a"; n].join(op);
        let probs = |n: usize| format!("{}a{}", "P>0.5 [ X ".repeat(n), " ]".repeat(n));
        let position = |src: &str| match parse_property(src) {
            Err(PctlError::Parse { position, message }) => {
                assert_eq!(
                    message,
                    format!("formula nested deeper than {MAX_DEPTH} levels")
                );
                position
            }
            other => panic!("{other:?}"),
        };
        // At the cap these parse, and so do their printed forms; one level
        // more is rejected where it is seen.
        for at_cap in [
            parens(MAX_DEPTH),
            nots(MAX_DEPTH - 1),
            chain(" & ", MAX_DEPTH),
            chain(" | ", MAX_DEPTH),
            probs((MAX_DEPTH - 1) / 2),
        ] {
            round_trip(&at_cap);
        }
        assert_eq!(position(&parens(MAX_DEPTH + 1)), MAX_DEPTH + 1);
        let long = nots(MAX_DEPTH);
        assert_eq!(position(&long), long.len());
        let long = chain(" & ", MAX_DEPTH + 1);
        assert_eq!(position(&long), long.len());
        position(&chain(" | ", MAX_DEPTH + 1));
        position(&probs(MAX_DEPTH / 2));
        // A chain's first operand sits deepest in its left-leaning tree:
        // 200 negations under 55 `&` reach the cap, under 56 exceed it.
        parse_property(&format!("{} & {}", nots(200), chain(" & ", 55))).unwrap();
        position(&format!("{} & {}", nots(200), chain(" & ", 56)));
        // What a hostile client sends stops at the cap, not the stack.
        position(&parens(5_000));
        position(&chain(" & ", 5_000));
    }

    #[test]
    fn scientific_threshold() {
        let p = parse_property("P<1e-6 [ F bad ]").unwrap();
        match p {
            Property::Bool(StateFormula::Prob { threshold, .. }) => {
                assert!((threshold - 1e-6).abs() < 1e-18);
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
