//! Recursive-descent parser for the extended SQL subset.

use crate::ast::{
    AlterAction, AstExpr, CmpOpAst, ColRef, Lit, MethodCall, SelectList, SelectStmt, Statement,
    ZoomTargetAst,
};
use crate::lexer::{lex, Token};
use crate::{Result, SqlError};

/// The deepest expression tree a statement may hold. Each parenthesis,
/// `NOT`, `AND`, `OR`, comparison and `LIKE` is one level, so a chain of
/// `k` operators is `k` levels deep as surely as `k` nested parentheses
/// are. Parsing, lowering, planning, evaluating and dropping a statement
/// all recurse over its expressions; a plan's depth does not grow with
/// them, as a side's `WHERE` conjuncts share one `Filter`. The deepest
/// recursion is the parser's own descent through nested parentheses, of
/// which about 290 levels fit a 2 MB stack (a wire server's worker thread)
/// in an unoptimized build, planned serially or under an Exchange. A
/// deeper statement is refused with a [`SqlError::Parse`] instead of
/// overflowing the stack, which aborts the process.
pub const MAX_EXPR_DEPTH: usize = 200;

/// Parse one statement (a trailing `;` is optional).
pub fn parse(input: &str) -> Result<Statement> {
    let tokens = lex(input)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        depth: 0,
    };
    let stmt = p.statement()?;
    p.eat_semi();
    if p.pos != p.tokens.len() {
        return Err(SqlError::Parse(format!(
            "trailing tokens after statement: {:?}",
            &p.tokens[p.pos..]
        )));
    }
    Ok(stmt)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Parentheses and `NOT`s open around the expression being parsed.
    depth: usize,
}

/// An expression and the height of its tree (a leaf is 1).
type Tree = (AstExpr, usize);

/// `height`, or the error for a tree deeper than [`MAX_EXPR_DEPTH`].
fn bounded(height: usize) -> Result<usize> {
    if height > MAX_EXPR_DEPTH {
        return Err(SqlError::Parse(format!(
            "expression nested deeper than {MAX_EXPR_DEPTH} levels"
        )));
    }
    Ok(height)
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek().map(|t| t.is_kw(kw)).unwrap_or(false) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(SqlError::Parse(format!(
                "expected keyword {kw}, found {:?}",
                self.peek()
            )))
        }
    }

    fn expect(&mut self, t: &Token) -> Result<()> {
        if self.peek() == Some(t) {
            self.pos += 1;
            Ok(())
        } else {
            Err(SqlError::Parse(format!(
                "expected {t:?}, found {:?}",
                self.peek()
            )))
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.next() {
            Some(Token::Ident(s)) => Ok(s),
            other => Err(SqlError::Parse(format!(
                "expected identifier, found {other:?}"
            ))),
        }
    }

    fn eat_semi(&mut self) {
        while self.peek() == Some(&Token::Semi) {
            self.pos += 1;
        }
    }

    fn statement(&mut self) -> Result<Statement> {
        if self.eat_kw("explain") {
            if self.eat_kw("analyze") {
                self.expect_kw("select")?;
                return Ok(Statement::ExplainAnalyze(self.select()?));
            }
            self.expect_kw("select")?;
            return Ok(Statement::Explain(self.select()?));
        }
        if self.eat_kw("select") {
            return Ok(Statement::Select(self.select()?));
        }
        if self.eat_kw("alter") {
            return self.alter();
        }
        if self.eat_kw("zoom") {
            return self.zoom();
        }
        if self.eat_kw("analyze") {
            return Ok(Statement::Analyze);
        }
        Err(SqlError::Parse(format!(
            "expected SELECT, EXPLAIN, ALTER, or ZOOM, found {:?}",
            self.peek()
        )))
    }

    fn alter(&mut self) -> Result<Statement> {
        self.expect_kw("table")?;
        let table = self.ident()?;
        if self.eat_kw("add") {
            let indexable = self.eat_kw("indexable");
            let instance = self.ident()?;
            return Ok(Statement::AlterTable {
                table,
                action: AlterAction::Add {
                    instance,
                    indexable,
                },
            });
        }
        if self.eat_kw("drop") {
            let instance = self.ident()?;
            return Ok(Statement::AlterTable {
                table,
                action: AlterAction::Drop { instance },
            });
        }
        Err(SqlError::Parse("expected ADD or DROP".into()))
    }

    fn zoom(&mut self) -> Result<Statement> {
        self.expect_kw("in")?;
        self.expect_kw("on")?;
        let instance = self.ident()?;
        self.expect_kw("of")?;
        let table = self.ident()?;
        self.expect_kw("tuple")?;
        let oid = match self.next() {
            Some(Token::Int(n)) if n >= 0 => n as u64,
            other => return Err(SqlError::Parse(format!("expected OID, found {other:?}"))),
        };
        let target = if self.eat_kw("label") {
            match self.next() {
                Some(Token::Str(s)) => ZoomTargetAst::Label(s),
                other => {
                    return Err(SqlError::Parse(format!(
                        "expected label string, found {other:?}"
                    )))
                }
            }
        } else if self.eat_kw("rep") {
            match self.next() {
                Some(Token::Int(n)) if n >= 0 => ZoomTargetAst::Rep(n as usize),
                other => {
                    return Err(SqlError::Parse(format!(
                        "expected rep index, found {other:?}"
                    )))
                }
            }
        } else {
            ZoomTargetAst::All
        };
        Ok(Statement::ZoomIn {
            table,
            instance,
            oid,
            target,
        })
    }

    fn select(&mut self) -> Result<SelectStmt> {
        let distinct = self.eat_kw("distinct");
        let columns = if self.peek() == Some(&Token::Star) {
            self.pos += 1;
            SelectList::Star
        } else {
            let mut cols = vec![self.col_ref()?];
            while self.peek() == Some(&Token::Comma) {
                self.pos += 1;
                cols.push(self.col_ref()?);
            }
            SelectList::Cols(cols)
        };
        self.expect_kw("from")?;
        let mut from = vec![self.table_ref()?];
        while self.peek() == Some(&Token::Comma) {
            self.pos += 1;
            from.push(self.table_ref()?);
        }
        let where_clause = if self.eat_kw("where") {
            Some(self.expr()?)
        } else {
            None
        };
        let group_by = if self.eat_kw("group") {
            self.expect_kw("by")?;
            Some(self.col_ref()?)
        } else {
            None
        };
        let order_by = if self.eat_kw("order") {
            self.expect_kw("by")?;
            let e = self.expr()?;
            let desc = if self.eat_kw("desc") {
                true
            } else {
                self.eat_kw("asc");
                false
            };
            Some((e, desc))
        } else {
            None
        };
        let limit = if self.eat_kw("limit") {
            match self.next() {
                Some(Token::Int(n)) if n >= 0 => Some(n as usize),
                other => {
                    return Err(SqlError::Parse(format!(
                        "expected LIMIT count, found {other:?}"
                    )))
                }
            }
        } else {
            None
        };
        Ok(SelectStmt {
            distinct,
            columns,
            from,
            where_clause,
            group_by,
            order_by,
            limit,
        })
    }

    fn table_ref(&mut self) -> Result<(String, Option<String>)> {
        let table = self.ident()?;
        // Optional alias: an identifier that is not a clause keyword.
        let alias = match self.peek() {
            Some(Token::Ident(s))
                if !["where", "group", "order", "limit", "on"]
                    .iter()
                    .any(|k| s.eq_ignore_ascii_case(k)) =>
            {
                Some(self.ident()?)
            }
            _ => None,
        };
        Ok((table, alias))
    }

    /// `alias.column` or bare `column`.
    fn col_ref(&mut self) -> Result<ColRef> {
        let first = self.ident()?;
        if self.peek() == Some(&Token::Dot)
            && !matches!(self.tokens.get(self.pos + 1), Some(Token::Dollar))
        {
            self.pos += 1;
            let column = self.ident()?;
            Ok(ColRef {
                alias: Some(first),
                column,
            })
        } else {
            Ok(ColRef {
                alias: None,
                column: first,
            })
        }
    }

    // Expression grammar: or_expr.
    fn expr(&mut self) -> Result<AstExpr> {
        Ok(self.or_expr()?.0)
    }

    fn or_expr(&mut self) -> Result<Tree> {
        let (mut left, mut height) = self.and_expr()?;
        while self.eat_kw("or") {
            let (right, h) = self.and_expr()?;
            height = bounded(height.max(h) + 1)?;
            left = AstExpr::Or(Box::new(left), Box::new(right));
        }
        Ok((left, height))
    }

    fn and_expr(&mut self) -> Result<Tree> {
        let (mut left, mut height) = self.not_expr()?;
        while self.eat_kw("and") {
            let (right, h) = self.not_expr()?;
            height = bounded(height.max(h) + 1)?;
            left = AstExpr::And(Box::new(left), Box::new(right));
        }
        Ok((left, height))
    }

    fn not_expr(&mut self) -> Result<Tree> {
        if self.eat_kw("not") {
            let (e, h) = self.nested(Self::not_expr)?;
            return Ok((AstExpr::Not(Box::new(e)), h));
        }
        self.cmp_expr()
    }

    /// Parse one level further in — inside a parenthesis or a `NOT` — with
    /// `inner`, refusing before the recursion outgrows [`MAX_EXPR_DEPTH`].
    /// The tree comes back one level taller than `inner` left it: the
    /// parenthesis or `NOT` counts.
    fn nested(&mut self, inner: fn(&mut Self) -> Result<Tree>) -> Result<Tree> {
        bounded(self.depth + 1)?;
        self.depth += 1;
        let tree = inner(self);
        self.depth -= 1;
        let (e, h) = tree?;
        Ok((e, bounded(h + 1)?))
    }

    fn cmp_expr(&mut self) -> Result<Tree> {
        let (left, lh) = self.primary()?;
        let op = match self.peek() {
            Some(Token::Eq) => Some(CmpOpAst::Eq),
            Some(Token::Ne) => Some(CmpOpAst::Ne),
            Some(Token::Lt) => Some(CmpOpAst::Lt),
            Some(Token::Le) => Some(CmpOpAst::Le),
            Some(Token::Gt) => Some(CmpOpAst::Gt),
            Some(Token::Ge) => Some(CmpOpAst::Ge),
            Some(t) if t.is_kw("like") => {
                self.pos += 1;
                match self.next() {
                    Some(Token::Str(p)) => {
                        return Ok((AstExpr::Like(Box::new(left), p), bounded(lh + 1)?));
                    }
                    other => {
                        return Err(SqlError::Parse(format!(
                            "expected LIKE pattern, found {other:?}"
                        )))
                    }
                }
            }
            _ => None,
        };
        match op {
            Some(op) => {
                self.pos += 1;
                let (right, rh) = self.primary()?;
                let height = bounded(lh.max(rh) + 1)?;
                Ok((AstExpr::Cmp(Box::new(left), op, Box::new(right)), height))
            }
            None => Ok((left, lh)),
        }
    }

    fn primary(&mut self) -> Result<Tree> {
        if self.peek() == Some(&Token::LParen) {
            self.pos += 1;
            let tree = self.nested(Self::or_expr)?;
            self.expect(&Token::RParen)?;
            return Ok(tree);
        }
        Ok((self.operand()?, 1))
    }

    /// A leaf: literal, column or summary chain.
    fn operand(&mut self) -> Result<AstExpr> {
        match self.peek().cloned() {
            Some(Token::Int(n)) => {
                self.pos += 1;
                Ok(AstExpr::Lit(Lit::Int(n)))
            }
            Some(Token::Float(f)) => {
                self.pos += 1;
                Ok(AstExpr::Lit(Lit::Float(f)))
            }
            Some(Token::Str(s)) => {
                self.pos += 1;
                Ok(AstExpr::Lit(Lit::Str(s)))
            }
            Some(Token::Dollar) => {
                self.pos += 1;
                self.summary_chain(None)
            }
            Some(Token::Ident(name)) => {
                self.pos += 1;
                if name.eq_ignore_ascii_case("true") {
                    return Ok(AstExpr::Lit(Lit::Bool(true)));
                }
                if name.eq_ignore_ascii_case("false") {
                    return Ok(AstExpr::Lit(Lit::Bool(false)));
                }
                // `alias.$.…` or `alias.column` or bare `column`.
                if self.peek() == Some(&Token::Dot) {
                    match self.tokens.get(self.pos + 1) {
                        Some(Token::Dollar) => {
                            self.pos += 2; // consume `.` `$`
                            return self.summary_chain(Some(name));
                        }
                        Some(Token::Ident(_)) => {
                            self.pos += 1;
                            let column = self.ident()?;
                            return Ok(AstExpr::Col(ColRef {
                                alias: Some(name),
                                column,
                            }));
                        }
                        _ => {}
                    }
                }
                Ok(AstExpr::Col(ColRef {
                    alias: None,
                    column: name,
                }))
            }
            other => Err(SqlError::Parse(format!("unexpected token {other:?}"))),
        }
    }

    /// After the `$`: `.method(args)` chain.
    fn summary_chain(&mut self, alias: Option<String>) -> Result<AstExpr> {
        let mut calls = Vec::new();
        while self.peek() == Some(&Token::Dot) {
            self.pos += 1;
            let name = self.ident()?;
            self.expect(&Token::LParen)?;
            let mut args = Vec::new();
            if self.peek() != Some(&Token::RParen) {
                loop {
                    match self.next() {
                        Some(Token::Str(s)) => args.push(Lit::Str(s)),
                        Some(Token::Int(n)) => args.push(Lit::Int(n)),
                        Some(Token::Float(f)) => args.push(Lit::Float(f)),
                        other => {
                            return Err(SqlError::Parse(format!(
                                "expected literal argument, found {other:?}"
                            )))
                        }
                    }
                    if self.peek() == Some(&Token::Comma) {
                        self.pos += 1;
                    } else {
                        break;
                    }
                }
            }
            self.expect(&Token::RParen)?;
            calls.push(MethodCall { name, args });
        }
        if calls.is_empty() {
            return Err(SqlError::Parse("expected method call after $".into()));
        }
        Ok(AstExpr::SummaryChain { alias, calls })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_simple_select() {
        let s = parse("SELECT * FROM Birds r WHERE r.id = 5 LIMIT 10;").unwrap();
        let Statement::Select(sel) = s else { panic!() };
        assert_eq!(sel.from, vec![("Birds".to_string(), Some("r".to_string()))]);
        assert_eq!(sel.limit, Some(10));
        assert!(matches!(sel.columns, SelectList::Star));
        assert!(sel.where_clause.is_some());
    }

    #[test]
    fn parse_summary_chain_predicate() {
        let s = parse(
            "SELECT * FROM Birds r WHERE \
             r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') > 5",
        )
        .unwrap();
        let Statement::Select(sel) = s else { panic!() };
        let Some(AstExpr::Cmp(l, CmpOpAst::Gt, r)) = sel.where_clause else {
            panic!()
        };
        let AstExpr::SummaryChain { alias, calls } = *l else {
            panic!()
        };
        assert_eq!(alias, Some("r".to_string()));
        assert_eq!(calls.len(), 2);
        assert_eq!(calls[0].name, "getSummaryObject");
        assert_eq!(calls[0].args, vec![Lit::Str("ClassBird1".into())]);
        assert_eq!(calls[1].name, "getLabelValue");
        assert!(matches!(*r, AstExpr::Lit(Lit::Int(5))));
    }

    #[test]
    fn parse_two_table_join_with_order_by() {
        let s = parse(
            "SELECT r.name, s.synonym FROM Birds r, Synonyms s \
             WHERE r.id = s.bird_id AND \
             r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') > 5 \
             ORDER BY r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') DESC",
        )
        .unwrap();
        let Statement::Select(sel) = s else { panic!() };
        assert_eq!(sel.from.len(), 2);
        let (e, desc) = sel.order_by.unwrap();
        assert!(desc);
        assert!(matches!(e, AstExpr::SummaryChain { .. }));
        let SelectList::Cols(cols) = sel.columns else {
            panic!()
        };
        assert_eq!(cols.len(), 2);
        assert_eq!(cols[0].alias, Some("r".to_string()));
    }

    #[test]
    fn parse_group_by_and_like() {
        let s = parse("SELECT family FROM Birds WHERE common_name LIKE 'Swan%' GROUP BY family")
            .unwrap();
        let Statement::Select(sel) = s else { panic!() };
        assert_eq!(sel.group_by.unwrap().column, "family");
        assert!(matches!(sel.where_clause, Some(AstExpr::Like(..))));
    }

    #[test]
    fn parse_alter_table() {
        let s = parse("ALTER TABLE Birds ADD INDEXABLE ClassBird1;").unwrap();
        assert_eq!(
            s,
            Statement::AlterTable {
                table: "Birds".into(),
                action: AlterAction::Add {
                    instance: "ClassBird1".into(),
                    indexable: true
                }
            }
        );
        let s = parse("ALTER TABLE Birds ADD TextSummary1").unwrap();
        let Statement::AlterTable {
            action: AlterAction::Add { indexable, .. },
            ..
        } = s
        else {
            panic!()
        };
        assert!(!indexable);
        let s = parse("ALTER TABLE Birds DROP ClassBird1").unwrap();
        assert!(matches!(
            s,
            Statement::AlterTable {
                action: AlterAction::Drop { .. },
                ..
            }
        ));
    }

    #[test]
    fn parse_zoom_in() {
        let s = parse("ZOOM IN ON ClassBird1 OF Birds TUPLE 42 LABEL 'Disease'").unwrap();
        assert_eq!(
            s,
            Statement::ZoomIn {
                table: "Birds".into(),
                instance: "ClassBird1".into(),
                oid: 42,
                target: ZoomTargetAst::Label("Disease".into())
            }
        );
        let s = parse("ZOOM IN ON SimCluster OF Birds TUPLE 7 REP 0").unwrap();
        assert!(matches!(
            s,
            Statement::ZoomIn {
                target: ZoomTargetAst::Rep(0),
                ..
            }
        ));
        let s = parse("ZOOM IN ON C OF Birds TUPLE 7").unwrap();
        assert!(matches!(
            s,
            Statement::ZoomIn {
                target: ZoomTargetAst::All,
                ..
            }
        ));
    }

    #[test]
    fn parse_boolean_logic_with_parens() {
        let s = parse("SELECT * FROM T WHERE NOT (a = 1 OR b = 2) AND c = 3").unwrap();
        let Statement::Select(sel) = s else { panic!() };
        assert!(matches!(sel.where_clause, Some(AstExpr::And(..))));
    }

    /// 100 000 levels of parentheses, of `NOT` and of `OR` are refused on a
    /// 2 MB stack, with an error, not an overflow that aborts the process.
    #[test]
    fn expressions_too_deep_are_refused_on_a_2mb_stack() {
        const N: usize = 100_000;
        let cmp = "r.id = 1";
        let statements = [
            format!("{}{cmp}{}", "(".repeat(N), ")".repeat(N)),
            format!("{}{cmp}", "NOT ".repeat(N)),
            format!("{cmp}{}", format!(" OR {cmp}").repeat(N)),
        ]
        .map(|pred| format!("SELECT id FROM Birds r WHERE {pred}"));
        let parsed = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || statements.map(|sql| parse(&sql)))
            .unwrap()
            .join()
            .expect("the parser fits its stack");
        for result in parsed {
            let Err(SqlError::Parse(msg)) = result else {
                panic!("{result:?}")
            };
            assert!(msg.contains("deeper than"), "{msg}");
        }
    }

    #[test]
    fn parse_errors() {
        assert!(parse("SELECT FROM T").is_err());
        assert!(parse("SELECT * T").is_err());
        assert!(parse("ALTER TABLE T NOPE X").is_err());
        assert!(parse("SELECT * FROM T WHERE r.$.").is_err());
        assert!(parse("SELECT * FROM T; extra").is_err());
    }
}
