//! Recursive-descent parser for the SQL subset.

use ghostdb_types::{AggFunc, GhostError, Result, ScalarOp};

use crate::ast::{
    ColumnDecl, CreateTable, DeleteStmt, InsertStmt, Literal, OrderItem, OrderTarget, QualCol,
    SelectItem, SelectStmt, Statement, TypeDecl, UpdateStmt, WhereAtom,
};
use crate::lexer::{tokenize, Token, TokenKind};

struct Parser<'a> {
    toks: Vec<Token>,
    pos: usize,
    text: &'a str,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<&TokenKind> {
        self.toks.get(self.pos).map(|t| &t.kind)
    }

    fn peek2(&self) -> Option<&TokenKind> {
        self.toks.get(self.pos + 1).map(|t| &t.kind)
    }

    fn here(&self) -> usize {
        self.toks
            .get(self.pos)
            .map(|t| t.pos)
            .unwrap_or(self.text.len())
    }

    fn next(&mut self) -> Option<TokenKind> {
        let t = self.toks.get(self.pos).map(|t| t.kind.clone());
        self.pos += 1;
        t
    }

    fn err(&self, msg: impl Into<String>) -> GhostError {
        GhostError::sql_at(msg, self.here())
    }

    fn expect(&mut self, kind: &TokenKind) -> Result<()> {
        match self.next() {
            Some(k) if &k == kind => Ok(()),
            other => Err(self.err(format!("expected {kind:?}, found {other:?}"))),
        }
    }

    /// Consume an identifier (any case) and return it.
    fn ident(&mut self) -> Result<String> {
        match self.next() {
            Some(TokenKind::Ident(s)) => Ok(s),
            other => Err(self.err(format!("expected identifier, found {other:?}"))),
        }
    }

    /// Peek: is the next token the given keyword (case-insensitive)?
    fn at_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(TokenKind::Ident(s)) if s.eq_ignore_ascii_case(kw))
    }

    /// Consume the given keyword or error.
    fn kw(&mut self, kw: &str) -> Result<()> {
        if self.at_kw(kw) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected keyword {kw}")))
        }
    }

    /// Consume the keyword if present.
    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.at_kw(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn statement(&mut self) -> Result<Statement> {
        if self.at_kw("CREATE") {
            self.create_table().map(Statement::CreateTable)
        } else if self.at_kw("SELECT") {
            self.select().map(Statement::Select)
        } else if self.eat_kw("EXPLAIN") {
            self.kw("ANALYZE")?;
            self.select().map(Statement::ExplainAnalyze)
        } else if self.at_kw("INSERT") {
            self.insert().map(Statement::Insert)
        } else if self.at_kw("DELETE") {
            self.delete().map(Statement::Delete)
        } else if self.at_kw("UPDATE") {
            self.update().map(Statement::Update)
        } else {
            Err(self.err("expected CREATE TABLE, SELECT, INSERT, DELETE or UPDATE"))
        }
    }

    fn type_decl(&mut self) -> Result<TypeDecl> {
        let name = self.ident()?;
        match name.to_ascii_uppercase().as_str() {
            "INTEGER" | "INT" => Ok(TypeDecl::Integer),
            "DATE" => Ok(TypeDecl::Date),
            "CHAR" | "VARCHAR" => {
                self.expect(&TokenKind::LParen)?;
                let n = match self.next() {
                    Some(TokenKind::Int(v)) if v > 0 && v <= u16::MAX as i64 => v as u16,
                    other => return Err(self.err(format!("bad CHAR length {other:?}"))),
                };
                self.expect(&TokenKind::RParen)?;
                Ok(TypeDecl::Char(n))
            }
            other => Err(self.err(format!("unknown type {other}"))),
        }
    }

    fn create_table(&mut self) -> Result<CreateTable> {
        self.kw("CREATE")?;
        self.kw("TABLE")?;
        let name = self.ident()?;
        self.expect(&TokenKind::LParen)?;
        let mut columns = Vec::new();
        loop {
            let col_name = self.ident()?;
            // Type is optional when REFERENCES follows directly (the
            // paper writes `DocID REFERENCES Doctor(DocID) HIDDEN`).
            let ty = if self.at_kw("REFERENCES")
                || self.at_kw("HIDDEN")
                || self.at_kw("PRIMARY")
                || matches!(self.peek(), Some(TokenKind::Comma | TokenKind::RParen))
            {
                None
            } else {
                Some(self.type_decl()?)
            };
            let mut decl = ColumnDecl {
                name: col_name,
                ty,
                primary_key: false,
                hidden: false,
                references: None,
            };
            loop {
                if self.eat_kw("PRIMARY") {
                    self.kw("KEY")?;
                    decl.primary_key = true;
                } else if self.eat_kw("HIDDEN") {
                    decl.hidden = true;
                } else if self.eat_kw("REFERENCES") {
                    let t = self.ident()?;
                    self.expect(&TokenKind::LParen)?;
                    let c = self.ident()?;
                    self.expect(&TokenKind::RParen)?;
                    decl.references = Some((t, c));
                } else {
                    break;
                }
            }
            columns.push(decl);
            match self.next() {
                Some(TokenKind::Comma) => continue,
                Some(TokenKind::RParen) => break,
                other => return Err(self.err(format!("expected , or ) found {other:?}"))),
            }
        }
        Ok(CreateTable { name, columns })
    }

    fn eat_semi(&mut self) -> bool {
        if matches!(self.peek(), Some(TokenKind::Semi)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn qual_col(&mut self) -> Result<QualCol> {
        let first = self.ident()?;
        if matches!(self.peek(), Some(TokenKind::Dot)) {
            self.pos += 1;
            let col = self.ident()?;
            Ok(QualCol {
                table: Some(first),
                column: col,
            })
        } else {
            Ok(QualCol {
                table: None,
                column: first,
            })
        }
    }

    fn literal(&mut self) -> Result<Literal> {
        match self.next() {
            Some(TokenKind::Int(v)) => Ok(Literal::Int(v)),
            Some(TokenKind::Str(s)) => Ok(Literal::Str(s)),
            Some(TokenKind::DateLit(s)) => Ok(Literal::DateLit(s)),
            other => Err(self.err(format!("expected literal, found {other:?}"))),
        }
    }

    /// One SELECT-list item: an aggregate call when an aggregate function
    /// name is directly followed by `(`, a plain column otherwise (so a
    /// column legitimately named `count` still parses).
    fn select_item(&mut self) -> Result<SelectItem> {
        if let (Some(TokenKind::Ident(name)), Some(TokenKind::LParen)) = (self.peek(), self.peek2())
        {
            if let Some(func) = AggFunc::parse(name) {
                self.pos += 2; // name + (
                let arg = if matches!(self.peek(), Some(TokenKind::Star)) {
                    if func != AggFunc::Count {
                        return Err(self.err(format!("{func}(*) is not supported — only COUNT(*)")));
                    }
                    self.pos += 1;
                    None
                } else {
                    Some(self.qual_col()?)
                };
                self.expect(&TokenKind::RParen)?;
                return Ok(SelectItem::Agg { func, arg });
            }
        }
        Ok(SelectItem::Column(self.qual_col()?))
    }

    /// A SELECT, whose text is its own token span — never the rest of
    /// the script: that text is what crosses the spied bus, and the
    /// statements around it may be mutations naming hidden values.
    fn select(&mut self) -> Result<SelectStmt> {
        let start = self.here();
        self.kw("SELECT")?;
        let mut items = Vec::new();
        loop {
            items.push(self.select_item()?);
            if matches!(self.peek(), Some(TokenKind::Comma)) {
                self.pos += 1;
            } else {
                break;
            }
        }
        self.kw("FROM")?;
        let mut from = Vec::new();
        // Words that end the FROM list and therefore cannot be aliases.
        const CLAUSE_KWS: &[&str] = &["WHERE", "AND", "GROUP", "ORDER", "LIMIT"];
        loop {
            let table = self.ident()?;
            // Optional alias (not a keyword).
            let alias = match self.peek() {
                Some(TokenKind::Ident(s))
                    if !CLAUSE_KWS.iter().any(|k| s.eq_ignore_ascii_case(k)) =>
                {
                    let a = s.clone();
                    self.pos += 1;
                    Some(a)
                }
                _ => None,
            };
            from.push((table, alias));
            if matches!(self.peek(), Some(TokenKind::Comma)) {
                self.pos += 1;
            } else {
                break;
            }
        }
        let mut where_atoms = Vec::new();
        if self.eat_kw("WHERE") {
            loop {
                where_atoms.push(self.where_atom()?);
                if !self.eat_kw("AND") {
                    break;
                }
            }
        }
        let mut group_by = Vec::new();
        if self.eat_kw("GROUP") {
            self.kw("BY")?;
            loop {
                group_by.push(self.qual_col()?);
                if matches!(self.peek(), Some(TokenKind::Comma)) {
                    self.pos += 1;
                } else {
                    break;
                }
            }
        }
        let mut order_by = Vec::new();
        if self.eat_kw("ORDER") {
            self.kw("BY")?;
            loop {
                let target = match self.peek() {
                    Some(TokenKind::Int(n)) => {
                        let n = *n;
                        self.pos += 1;
                        OrderTarget::Ordinal(n)
                    }
                    _ => OrderTarget::Column(self.qual_col()?),
                };
                let desc = if self.eat_kw("DESC") {
                    true
                } else {
                    let _ = self.eat_kw("ASC");
                    false
                };
                order_by.push(OrderItem { target, desc });
                if matches!(self.peek(), Some(TokenKind::Comma)) {
                    self.pos += 1;
                } else {
                    break;
                }
            }
        }
        let limit = if self.eat_kw("LIMIT") {
            match self.next() {
                Some(TokenKind::Int(n)) if n >= 0 => Some(n as u64),
                other => return Err(self.err(format!("LIMIT needs a row count, found {other:?}"))),
            }
        } else {
            None
        };
        Ok(SelectStmt {
            text: self.text[start..self.here()].trim().to_string(),
            items,
            from,
            where_atoms,
            group_by,
            order_by,
            limit,
        })
    }

    fn where_atom(&mut self) -> Result<WhereAtom> {
        let left = self.qual_col()?;
        if self.eat_kw("BETWEEN") {
            // `col BETWEEN lo AND hi`: the AND belongs to the atom, so it
            // is consumed here and the conjunct loop never sees it.
            let lo = self.literal()?;
            self.kw("AND")?;
            let hi = self.literal()?;
            return Ok(WhereAtom::Between { col: left, lo, hi });
        }
        let op = match self.next() {
            Some(TokenKind::Eq) => ScalarOp::Eq,
            Some(TokenKind::Lt) => ScalarOp::Lt,
            Some(TokenKind::Le) => ScalarOp::Le,
            Some(TokenKind::Gt) => ScalarOp::Gt,
            Some(TokenKind::Ge) => ScalarOp::Ge,
            other => return Err(self.err(format!("expected comparison, found {other:?}"))),
        };
        // Column-vs-column (join) only for equality.
        if matches!(self.peek(), Some(TokenKind::Ident(_))) {
            if op != ScalarOp::Eq {
                return Err(self.err("only equality joins are supported"));
            }
            let right = self.qual_col()?;
            return Ok(WhereAtom::Join { left, right });
        }
        let value = self.literal()?;
        Ok(WhereAtom::Compare {
            col: left,
            op,
            value,
        })
    }

    fn insert(&mut self) -> Result<InsertStmt> {
        self.kw("INSERT")?;
        self.kw("INTO")?;
        let table = self.ident()?;
        self.kw("VALUES")?;
        let mut rows = Vec::new();
        loop {
            self.expect(&TokenKind::LParen)?;
            let mut row = Vec::new();
            loop {
                row.push(self.literal()?);
                match self.next() {
                    Some(TokenKind::Comma) => continue,
                    Some(TokenKind::RParen) => break,
                    other => return Err(self.err(format!("expected , or ) found {other:?}"))),
                }
            }
            rows.push(row);
            if matches!(self.peek(), Some(TokenKind::Comma)) {
                self.pos += 1;
            } else {
                break;
            }
        }
        Ok(InsertStmt { table, rows })
    }

    /// Shared `WHERE` clause of DELETE/UPDATE (optional; conjuncts).
    fn where_clause(&mut self) -> Result<Vec<WhereAtom>> {
        let mut atoms = Vec::new();
        if self.eat_kw("WHERE") {
            loop {
                atoms.push(self.where_atom()?);
                if !self.eat_kw("AND") {
                    break;
                }
            }
        }
        Ok(atoms)
    }

    fn delete(&mut self) -> Result<DeleteStmt> {
        self.kw("DELETE")?;
        self.kw("FROM")?;
        let table = self.ident()?;
        let where_atoms = self.where_clause()?;
        Ok(DeleteStmt { table, where_atoms })
    }

    fn update(&mut self) -> Result<UpdateStmt> {
        self.kw("UPDATE")?;
        let table = self.ident()?;
        self.kw("SET")?;
        let mut assignments = Vec::new();
        loop {
            let col = self.ident()?;
            self.expect(&TokenKind::Eq)?;
            assignments.push((col, self.literal()?));
            if matches!(self.peek(), Some(TokenKind::Comma)) {
                self.pos += 1;
            } else {
                break;
            }
        }
        let where_atoms = self.where_clause()?;
        Ok(UpdateStmt {
            table,
            assignments,
            where_atoms,
        })
    }
}

/// Parse a script of `;`-separated statements.
pub fn parse_statements(input: &str) -> Result<Vec<Statement>> {
    let toks = tokenize(input)?;
    let mut p = Parser {
        toks,
        pos: 0,
        text: input,
    };
    let mut out = Vec::new();
    while p.peek().is_some() {
        out.push(p.statement()?);
        while p.eat_semi() {}
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_paper_create_table() {
        let stmts = parse_statements(
            "CREATE TABLE Visit ( \
               VisID INTEGER PRIMARY KEY, \
               Date DATE, \
               Purpose CHAR(100) HIDDEN, \
               DocID REFERENCES Doctor(DocID) HIDDEN, \
               PatID REFERENCES Patient(PatID) HIDDEN);",
        )
        .unwrap();
        let Statement::CreateTable(ct) = &stmts[0] else {
            panic!("not a create table")
        };
        assert_eq!(ct.name, "Visit");
        assert_eq!(ct.columns.len(), 5);
        assert!(ct.columns[0].primary_key);
        assert!(!ct.columns[0].hidden);
        assert_eq!(ct.columns[2].ty, Some(TypeDecl::Char(100)));
        assert!(ct.columns[2].hidden);
        assert_eq!(
            ct.columns[3].references,
            Some(("Doctor".into(), "DocID".into()))
        );
        assert!(ct.columns[3].ty.is_none());
        assert!(ct.columns[3].hidden);
    }

    #[test]
    fn parses_the_paper_query() {
        let stmts = parse_statements(
            "SELECT Med.Name, Pre.Quantity, Vis.Date \
             FROM Medicine Med, Prescription Pre, Visit Vis \
             WHERE Vis.Date > 05-11-2006 /*VISIBLE*/ \
               AND Vis.Purpose = \u{201C}Sclerosis\u{201D} /*HIDDEN*/ \
               AND Med.Type = \u{201C}Antibiotic\u{201D} /*VISIBLE*/ \
               AND Med.MedID = Pre.MedID \
               AND Vis.VisID = Pre.VisID;",
        )
        .unwrap();
        let Statement::Select(sel) = &stmts[0] else {
            panic!("not a select")
        };
        assert_eq!(sel.items.len(), 3);
        assert_eq!(sel.from.len(), 3);
        assert_eq!(sel.from[0], ("Medicine".into(), Some("Med".into())));
        assert_eq!(sel.where_atoms.len(), 5);
        assert!(matches!(
            &sel.where_atoms[0],
            WhereAtom::Compare {
                op: ScalarOp::Gt,
                value: Literal::DateLit(d),
                ..
            } if d == "05-11-2006"
        ));
        assert!(matches!(&sel.where_atoms[3], WhereAtom::Join { .. }));
    }

    #[test]
    fn parses_explain_analyze() {
        let stmts = parse_statements(
            "EXPLAIN ANALYZE SELECT Vis.Date FROM Visit Vis WHERE Vis.Date > 05-11-2006;",
        )
        .unwrap();
        let Statement::ExplainAnalyze(sel) = &stmts[0] else {
            panic!("not an explain analyze")
        };
        assert_eq!(sel.from, vec![("Visit".into(), Some("Vis".into()))]);
        // The recorded statement text is the bare SELECT — the prefix is
        // a driver directive, not part of the executed query.
        assert!(sel.text.starts_with("SELECT"), "{}", sel.text);

        // ANALYZE is mandatory (plain EXPLAIN is the explain() API).
        assert!(parse_statements("EXPLAIN SELECT Date FROM Visit;").is_err());
    }

    #[test]
    fn select_text_is_its_own_span() {
        let stmts = parse_statements(
            "UPDATE T SET c = 'secret' WHERE k = 1; SELECT T.c FROM T ;\n\
             EXPLAIN ANALYZE SELECT U.d FROM U /*trailing*/;",
        )
        .unwrap();
        let (Statement::Select(a), Statement::ExplainAnalyze(b)) = (&stmts[1], &stmts[2]) else {
            panic!("unexpected statements {stmts:?}")
        };
        assert_eq!(a.text, "SELECT T.c FROM T");
        assert_eq!(b.text, "SELECT U.d FROM U /*trailing*/");
    }

    #[test]
    fn parses_insert() {
        let stmts =
            parse_statements("INSERT INTO Medicine VALUES (0, 'Aspirin'), (1, 'Statin');").unwrap();
        let Statement::Insert(ins) = &stmts[0] else {
            panic!("not an insert")
        };
        assert_eq!(ins.table, "Medicine");
        assert_eq!(ins.rows.len(), 2);
        assert_eq!(ins.rows[1][1], Literal::Str("Statin".into()));
    }

    #[test]
    fn parses_delete_and_update() {
        let stmts = parse_statements(
            "DELETE FROM Visit WHERE Purpose = 'Checkup' AND Severity >= 3; \
             DELETE FROM Visit; \
             UPDATE Visit SET Purpose = 'Recovered', Severity = 0 WHERE VisID = 7;",
        )
        .unwrap();
        let Statement::Delete(del) = &stmts[0] else {
            panic!("not a delete")
        };
        assert_eq!(del.table, "Visit");
        assert_eq!(del.where_atoms.len(), 2);
        let Statement::Delete(all) = &stmts[1] else {
            panic!("not a delete")
        };
        assert!(all.where_atoms.is_empty());
        let Statement::Update(upd) = &stmts[2] else {
            panic!("not an update")
        };
        assert_eq!(upd.table, "Visit");
        assert_eq!(
            upd.assignments,
            vec![
                ("Purpose".into(), Literal::Str("Recovered".into())),
                ("Severity".into(), Literal::Int(0)),
            ]
        );
        assert_eq!(upd.where_atoms.len(), 1);
        // Malformed variants.
        assert!(parse_statements("DELETE Visit").is_err());
        assert!(parse_statements("UPDATE Visit WHERE x = 1").is_err());
        assert!(parse_statements("UPDATE Visit SET").is_err());
    }

    #[test]
    fn multiple_statements() {
        let stmts = parse_statements(
            "CREATE TABLE A (x INTEGER PRIMARY KEY); \
             CREATE TABLE B (y INTEGER PRIMARY KEY);",
        )
        .unwrap();
        assert_eq!(stmts.len(), 2);
    }

    #[test]
    fn error_cases() {
        assert!(parse_statements("DROP TABLE x").is_err());
        assert!(parse_statements("SELECT FROM t").is_err());
        assert!(parse_statements("CREATE TABLE t (a BLOB)").is_err());
        assert!(parse_statements("SELECT a FROM t WHERE a > b").is_err()); // non-eq join
        assert!(parse_statements("SELECT a FROM t WHERE").is_err());
    }

    #[test]
    fn unqualified_columns_and_no_where() {
        let stmts = parse_statements("SELECT Name FROM Medicine").unwrap();
        let Statement::Select(sel) = &stmts[0] else {
            panic!()
        };
        let SelectItem::Column(col) = &sel.items[0] else {
            panic!("not a plain column")
        };
        assert_eq!(col.table, None);
        assert!(sel.where_atoms.is_empty());
        assert!(sel.group_by.is_empty());
        assert!(sel.order_by.is_empty());
        assert_eq!(sel.limit, None);
    }

    #[test]
    fn parses_between() {
        let stmts = parse_statements(
            "SELECT v.a FROM v WHERE v.a BETWEEN 3 AND 9 AND v.b = 1 AND v.c BETWEEN 0 AND 2",
        )
        .unwrap();
        let Statement::Select(sel) = &stmts[0] else {
            panic!()
        };
        assert_eq!(sel.where_atoms.len(), 3);
        assert!(matches!(
            &sel.where_atoms[0],
            WhereAtom::Between {
                lo: Literal::Int(3),
                hi: Literal::Int(9),
                ..
            }
        ));
        assert!(matches!(&sel.where_atoms[1], WhereAtom::Compare { .. }));
        assert!(matches!(&sel.where_atoms[2], WhereAtom::Between { .. }));
        // BETWEEN missing its AND.
        assert!(parse_statements("SELECT a FROM t WHERE a BETWEEN 1 2").is_err());
    }

    #[test]
    fn parses_aggregates_group_order_limit() {
        use ghostdb_types::AggFunc;
        let stmts = parse_statements(
            "SELECT Vis.Purpose, COUNT(*), SUM(Pre.Quantity), avg(Pre.Quantity) \
             FROM Prescription Pre, Visit Vis \
             WHERE Vis.VisID = Pre.VisID \
             GROUP BY Vis.Purpose \
             ORDER BY 3 DESC, Vis.Purpose ASC \
             LIMIT 5;",
        )
        .unwrap();
        let Statement::Select(sel) = &stmts[0] else {
            panic!()
        };
        assert_eq!(sel.items.len(), 4);
        assert!(matches!(
            &sel.items[1],
            SelectItem::Agg {
                func: AggFunc::Count,
                arg: None
            }
        ));
        assert!(matches!(
            &sel.items[2],
            SelectItem::Agg {
                func: AggFunc::Sum,
                arg: Some(q)
            } if q.column == "Quantity"
        ));
        assert!(matches!(
            &sel.items[3],
            SelectItem::Agg {
                func: AggFunc::Avg,
                ..
            }
        ));
        assert_eq!(sel.group_by.len(), 1);
        assert_eq!(sel.group_by[0].column, "Purpose");
        assert_eq!(sel.order_by.len(), 2);
        assert!(matches!(
            &sel.order_by[0],
            OrderItem {
                target: OrderTarget::Ordinal(3),
                desc: true
            }
        ));
        assert!(matches!(
            &sel.order_by[1],
            OrderItem {
                target: OrderTarget::Column(q),
                desc: false
            } if q.column == "Purpose"
        ));
        assert_eq!(sel.limit, Some(5));
        // A column named like a function, not followed by `(`, stays a
        // plain column.
        let stmts = parse_statements("SELECT count FROM t").unwrap();
        let Statement::Select(sel) = &stmts[0] else {
            panic!()
        };
        assert!(matches!(&sel.items[0], SelectItem::Column(_)));
        // MIN/MAX parse; SUM(*) does not; LIMIT needs an integer.
        assert!(parse_statements("SELECT MIN(a), MAX(b) FROM t").is_ok());
        assert!(parse_statements("SELECT SUM(*) FROM t").is_err());
        assert!(parse_statements("SELECT a FROM t LIMIT x").is_err());
        assert!(parse_statements("SELECT a FROM t GROUP a").is_err());
    }
}
