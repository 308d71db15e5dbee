//! A small datalog-style parser for the paper's query notation.
//!
//! The grammar accepted is the notation used throughout the paper:
//!
//! ```text
//! V2(x)      :- Meetings(x, y)
//! Q2(x)      :- Meetings(x, y) ∧ Contacts(y, w, 'Intern')
//! Q2(x)      :- Meetings(x, y), Contacts(y, w, 'Intern')
//! V13()      :- Meetings(9, 'Jim')
//! ```
//!
//! * The head determines which variables are *distinguished*; every other
//!   variable is *existential*.
//! * Body atoms are separated by `,` or `∧` (or `&`).
//! * Constants are single- or double-quoted strings, or integers.  A string
//!   runs to the next occurrence of its opening quote; there are no escapes,
//!   so a text containing `'` is written in double quotes (as a query
//!   displays it) and a text containing both quote characters has no form
//!   in the grammar.
//! * Bare identifiers are variables.
//! * Relation names are resolved against a [`Catalog`]; arities are checked.

use crate::atom::validate_atom;
use crate::catalog::Catalog;
use crate::error::{CqError, Result};
use crate::query::{Body, ConjunctiveQuery, VarTable};
use crate::term::{ConstBytes, VarId, VarKind};

/// Parses a conjunctive query in datalog notation against a catalog.
///
/// See the [module documentation](self) for the accepted grammar.
pub fn parse_query(catalog: &Catalog, input: &str) -> Result<ConjunctiveQuery> {
    Parser::new(input).parse(catalog)
}

/// Parses several `;`- or newline-separated queries.
///
/// Blank lines and lines starting with `#` or `%` are ignored, which makes it
/// convenient to keep a set of security views in a small text block:
///
/// ```
/// use fdc_cq::{Catalog, parser::parse_program};
///
/// let catalog = Catalog::paper_example();
/// let views = parse_program(&catalog, r"
///     % Figure 1 (b)
///     V1(x, y) :- Meetings(x, y)
///     V2(x)    :- Meetings(x, y)
///     V3(x, y, z) :- Contacts(x, y, z)
/// ").unwrap();
/// assert_eq!(views.len(), 3);
/// assert_eq!(views[1].0, "V2");
/// ```
pub fn parse_program(catalog: &Catalog, input: &str) -> Result<Vec<(String, ConjunctiveQuery)>> {
    let mut out = Vec::new();
    for raw_line in input.split(['\n', ';']) {
        let line = raw_line.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with('%') {
            continue;
        }
        let mut parser = Parser::new(line);
        let name = parser.peek_head_name()?;
        let query = parser.parse(catalog)?;
        out.push((name, query));
    }
    Ok(out)
}

/// A token borrows its text from the input, so a string constant is copied
/// once, straight into its term.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Token<'a> {
    Ident(&'a str),
    Str(&'a str),
    Int(i64),
    LParen,
    RParen,
    Comma,
    Turnstile, // ":-"
    And,       // "∧" or "&"
}

struct Parser<'a> {
    input: &'a str,
    tokens: Vec<Token<'a>>,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        Parser {
            input,
            tokens: Vec::new(),
            pos: 0,
        }
    }

    fn err(&self, msg: impl Into<String>) -> CqError {
        CqError::Parse(format!("{} (in `{}`)", msg.into(), self.input.trim()))
    }

    fn tokenize(&mut self) -> Result<()> {
        if !self.tokens.is_empty() {
            return Ok(());
        }
        let mut chars = self.input.char_indices().peekable();
        while let Some((i, c)) = chars.next() {
            match c {
                ' ' | '\t' | '\r' | '\n' => {}
                '(' => self.tokens.push(Token::LParen),
                ')' => self.tokens.push(Token::RParen),
                ',' => self.tokens.push(Token::Comma),
                '∧' => self.tokens.push(Token::And),
                '&' => {
                    // Accept both `&` and `&&`.
                    if matches!(chars.peek(), Some((_, '&'))) {
                        chars.next();
                    }
                    self.tokens.push(Token::And);
                }
                ':' => match chars.next() {
                    Some((_, '-')) => self.tokens.push(Token::Turnstile),
                    _ => return Err(self.err(format!("expected `:-` at byte {i}"))),
                },
                '\'' | '"' => {
                    let start = i + c.len_utf8();
                    let Some((end, _)) = chars.by_ref().find(|&(_, c2)| c2 == c) else {
                        return Err(self.err("unterminated string constant"));
                    };
                    self.tokens.push(Token::Str(&self.input[start..end]));
                }
                c if c.is_ascii_digit() || c == '-' => {
                    let mut s = String::new();
                    s.push(c);
                    while let Some((_, c2)) = chars.peek() {
                        if c2.is_ascii_digit() {
                            s.push(*c2);
                            chars.next();
                        } else {
                            break;
                        }
                    }
                    let value: i64 = s
                        .parse()
                        .map_err(|_| self.err(format!("invalid integer `{s}`")))?;
                    self.tokens.push(Token::Int(value));
                }
                c if c.is_alphabetic() || c == '_' => {
                    let mut end = i + c.len_utf8();
                    while let Some(&(j, c2)) = chars.peek() {
                        if c2.is_alphanumeric() || c2 == '_' {
                            end = j + c2.len_utf8();
                            chars.next();
                        } else {
                            break;
                        }
                    }
                    self.tokens.push(Token::Ident(&self.input[i..end]));
                }
                other => return Err(self.err(format!("unexpected character `{other}`"))),
            }
        }
        Ok(())
    }

    fn peek(&self) -> Option<Token<'a>> {
        self.tokens.get(self.pos).copied()
    }

    fn next_token(&mut self) -> Option<Token<'a>> {
        let t = self.peek();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, expected: Token<'_>, what: &str) -> Result<()> {
        match self.next_token() {
            Some(t) if t == expected => Ok(()),
            Some(t) => Err(self.err(format!("expected {what}, found {t:?}"))),
            None => Err(self.err(format!("expected {what}, found end of input"))),
        }
    }

    fn expect_ident(&mut self, what: &str) -> Result<&'a str> {
        match self.next_token() {
            Some(Token::Ident(s)) => Ok(s),
            Some(t) => Err(self.err(format!("expected {what}, found {t:?}"))),
            None => Err(self.err(format!("expected {what}, found end of input"))),
        }
    }

    /// Returns the head name without consuming tokens (used by
    /// [`parse_program`] to recover view names).
    fn peek_head_name(&mut self) -> Result<String> {
        self.tokenize()?;
        match self.tokens.first() {
            Some(&Token::Ident(s)) => Ok(s.to_owned()),
            _ => Err(self.err("expected a head predicate name")),
        }
    }

    fn parse(mut self, catalog: &Catalog) -> Result<ConjunctiveQuery> {
        self.tokenize()?;

        // ---- head -----------------------------------------------------
        let _head_name = self.expect_ident("a head predicate name")?;
        self.expect(Token::LParen, "`(`")?;
        let mut head_vars: Vec<&str> = Vec::new();
        if self.peek() != Some(Token::RParen) {
            loop {
                match self.next_token() {
                    Some(Token::Ident(v)) => head_vars.push(v),
                    Some(t) => {
                        return Err(
                            self.err(format!("head arguments must be variables, found {t:?}"))
                        )
                    }
                    None => return Err(self.err("unterminated head")),
                }
                match self.peek() {
                    Some(Token::Comma) => {
                        self.next_token();
                    }
                    _ => break,
                }
            }
        }
        self.expect(Token::RParen, "`)` closing the head")?;
        self.expect(Token::Turnstile, "`:-`")?;

        // ---- body -----------------------------------------------------
        let mut vars = VarTable::default();
        let mut occurrence = |name: &str| -> (VarId, VarKind) {
            let id = vars.find(name).unwrap_or_else(|| {
                let kind = if head_vars.contains(&name) {
                    VarKind::Distinguished
                } else {
                    VarKind::Existential
                };
                vars.declare(kind, name)
            });
            (id, vars.kind(id))
        };

        let mut body = Body::default();
        loop {
            let rel_name = self.expect_ident("a relation name")?;
            let relation = catalog
                .resolve(rel_name)
                .ok_or_else(|| CqError::UnknownRelation(rel_name.to_owned()))?;
            self.expect(Token::LParen, "`(`")?;
            if self.peek() != Some(Token::RParen) {
                loop {
                    match self.next_token() {
                        Some(Token::Ident(v)) => {
                            let (id, kind) = occurrence(v);
                            body.push_var(id, kind);
                        }
                        Some(Token::Str(s)) => body.push_const(ConstBytes::Str(s.as_bytes())),
                        Some(Token::Int(i)) => body.push_const(ConstBytes::Int(i)),
                        Some(t) => return Err(self.err(format!("unexpected token {t:?} in atom"))),
                        None => return Err(self.err("unterminated atom")),
                    }
                    match self.peek() {
                        Some(Token::Comma) => {
                            self.next_token();
                        }
                        _ => break,
                    }
                }
            }
            self.expect(Token::RParen, "`)` closing the atom")?;
            validate_atom(catalog, relation, body.end_atom(relation))?;

            match self.peek() {
                Some(Token::Comma) | Some(Token::And) => {
                    self.next_token();
                }
                None => break,
                Some(t) => return Err(self.err(format!("unexpected token {t:?} after atom"))),
            }
        }

        // Every head variable must appear in the body (safety).
        for &h in &head_vars {
            if vars.find(h).is_none() {
                return Err(CqError::UnsafeHeadVariable(h.to_owned()));
            }
        }

        ConjunctiveQuery::from_body(body, vars, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::{ConstRef, VarId, VarKind};

    fn catalog() -> Catalog {
        Catalog::paper_example()
    }

    #[test]
    fn parses_figure_1_views_and_queries() {
        let c = catalog();
        let v1 = parse_query(&c, "V1(x, y) :- Meetings(x, y)").unwrap();
        assert_eq!(v1.num_atoms(), 1);
        assert_eq!(v1.distinguished_vars().count(), 2);

        let v2 = parse_query(&c, "V2(x) :- Meetings(x, y)").unwrap();
        assert_eq!(v2.distinguished_vars().count(), 1);
        assert_eq!(v2.existential_vars().count(), 1);

        let q1 = parse_query(&c, "Q1(x) :- Meetings(x, 'Cathy')").unwrap();
        assert!(q1.atom(0).has_constants());

        let q2 = parse_query(&c, "Q2(x) :- Meetings(x, y) ∧ Contacts(y, w, 'Intern')").unwrap();
        assert_eq!(q2.num_atoms(), 2);
        assert_eq!(q2.existential_vars().count(), 2);

        // Comma-separated body means the same thing.
        let q2b = parse_query(&c, "Q2(x) :- Meetings(x, y), Contacts(y, w, 'Intern')").unwrap();
        assert_eq!(q2, q2b);
        // `&` works too.
        let q2c = parse_query(&c, "Q2(x) :- Meetings(x, y) & Contacts(y, w, 'Intern')").unwrap();
        assert_eq!(q2, q2c);
    }

    #[test]
    fn parses_boolean_and_constant_queries() {
        let c = catalog();
        let v5 = parse_query(&c, "V5() :- Meetings(x, y)").unwrap();
        assert!(v5.is_boolean());

        let v13 = parse_query(&c, "V13() :- Meetings(9, 'Jim')").unwrap();
        assert!(v13.is_boolean());
        assert_eq!(v13.num_vars(), 0);
        assert!(v13.atom(0).has_constants());

        let neg = parse_query(&c, "V() :- Meetings(-3, y)").unwrap();
        assert_eq!(neg.atom(0).term(0), ConstRef::Int(-3).to_term());
    }

    #[test]
    fn double_quotes_and_repeated_vars() {
        let c = catalog();
        let q = parse_query(&c, r#"V(x) :- Contacts(x, x, "Intern")"#).unwrap();
        assert!(q.atom(0).has_repeated_vars());
        assert_eq!(q.var_kind(VarId(0)), VarKind::Distinguished);
    }

    #[test]
    fn head_variable_kinds_follow_the_head() {
        let c = catalog();
        let q = parse_query(&c, "V6(x, y) :- Contacts(x, y, z)").unwrap();
        let kinds: Vec<VarKind> = (0..q.num_vars() as u32)
            .map(|i| q.var_kind(VarId(i)))
            .collect();
        assert_eq!(
            kinds,
            vec![
                VarKind::Distinguished,
                VarKind::Distinguished,
                VarKind::Existential
            ]
        );
    }

    #[test]
    fn round_trips_through_display() {
        let c = catalog();
        let text = "Q(x) :- Meetings(x, y), Contacts(y, w, 'Intern')";
        let q = parse_query(&c, text).unwrap();
        assert_eq!(q.display_with(&c).to_string(), text);
        let reparsed = parse_query(&c, &q.display_with(&c).to_string()).unwrap();
        assert_eq!(q, reparsed);
    }

    #[test]
    fn a_displayed_string_constant_parses_back() {
        let c = catalog();
        let meetings = c.resolve("Meetings").unwrap();
        for text in [
            "O'Brien",
            "'",
            r#"say "hi""#,
            "a, b",
            "f(x)",
            ")",
            "it's (a, b)",
            "",
        ] {
            let mut b = crate::query::QueryBuilder::new();
            let x = b.dvar("x");
            b.atom(meetings, [x.into(), text.into()]);
            let q = b.build().unwrap();
            let shown = q.display_with(&c).to_string();
            assert_eq!(
                parse_query(&c, &shown),
                Ok(q),
                "{text:?} displayed as {shown}"
            );
        }
        // Text with no `'` keeps the single quotes it always had.
        let q = parse_query(&c, r#"Q(x) :- Meetings(x, "O'Brien"), Meetings(x, "Jim")"#).unwrap();
        assert_eq!(
            q.display_with(&c).to_string(),
            r#"Q(x) :- Meetings(x, "O'Brien"), Meetings(x, 'Jim')"#
        );
    }

    #[test]
    fn unknown_relation_is_reported() {
        let c = catalog();
        let err = parse_query(&c, "Q(x) :- Nothing(x)").unwrap_err();
        assert_eq!(err, CqError::UnknownRelation("Nothing".into()));
    }

    #[test]
    fn arity_errors_are_reported() {
        let c = catalog();
        let err = parse_query(&c, "Q(x) :- Meetings(x)").unwrap_err();
        assert!(matches!(err, CqError::ArityMismatch { .. }));
    }

    #[test]
    fn unsafe_head_variable_is_reported() {
        let c = catalog();
        let err = parse_query(&c, "Q(z) :- Meetings(x, y)").unwrap_err();
        assert_eq!(err, CqError::UnsafeHeadVariable("z".into()));
    }

    #[test]
    fn malformed_inputs_are_parse_errors() {
        let c = catalog();
        for bad in [
            "",
            "Q(x)",
            "Q(x) : Meetings(x, y)",
            "Q(x) :- Meetings(x, y",
            "Q(x) :- Meetings(x, 'unclosed)",
            "Q('c') :- Meetings(x, y)",
            "Q(x) :- Meetings(x, y) extra",
            "Q(x) :- Meetings(x, !)",
        ] {
            let err = parse_query(&c, bad).unwrap_err();
            assert!(
                matches!(err, CqError::Parse(_) | CqError::EmptyBody),
                "input `{bad}` should fail with a parse error, got {err:?}"
            );
        }
    }

    #[test]
    fn parse_program_collects_named_views() {
        let c = catalog();
        let views = parse_program(
            &c,
            r"
            # security views from Figure 1 (b)
            V1(x, y) :- Meetings(x, y)
            V2(x)    :- Meetings(x, y)
            % a comment in a different style
            V3(x, y, z) :- Contacts(x, y, z); V5() :- Meetings(x, y)
            ",
        )
        .unwrap();
        let names: Vec<&str> = views.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["V1", "V2", "V3", "V5"]);
        assert!(views[3].1.is_boolean());
    }

    #[test]
    fn parse_program_propagates_errors() {
        let c = catalog();
        assert!(parse_program(&c, "V1(x, y) :- Missing(x, y)").is_err());
        assert!(parse_program(&c, "garbage").is_err());
    }
}
