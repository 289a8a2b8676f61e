//! Binding parsed statements against the catalog.

use ghostdb_catalog::{
    Analytics, ColumnRef, ColumnRole, OrderKey, OutputItem, Predicate, Schema, SchemaBuilder,
    TreeSchema, Visibility,
};
use ghostdb_types::{ColumnId, DataType, Date, GhostError, Result, ScalarOp, TableId, Value};

use crate::ast::{
    CreateTable, DeleteStmt, InsertStmt, Literal, OrderTarget, QualCol, SelectItem, SelectStmt,
    Statement, TypeDecl, UpdateStmt, WhereAtom,
};

// Note: the executor's QuerySpec lives in ghostdb-exec; depending on exec
// from sql would invert the layering, so the binder returns the raw bound
// parts ([`BoundSelect`]) and `ghostdb-core` assembles the QuerySpec.

/// The bound pieces of a SELECT, ready for `QuerySpec::bind`.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundSelect {
    /// Original statement text.
    pub sql: String,
    /// Tables in FROM.
    pub tables: Vec<TableId>,
    /// The base columns the query reads, first-use order, deduplicated.
    /// These are what the executor materializes per qualifying row; the
    /// SELECT-list shape (including aggregates) lives in `analytics`.
    pub projections: Vec<ColumnRef>,
    /// Selection predicates.
    pub predicates: Vec<Predicate>,
    /// Join conditions.
    pub joins: Vec<(ColumnRef, ColumnRef)>,
    /// SELECT-list shape, GROUP BY, ORDER BY and LIMIT.
    pub analytics: Analytics,
}

/// Build a [`Schema`] from the `CREATE TABLE` statements of a script.
///
/// Reproduction constraints (documented, checked):
/// * the first column of every table must be its `INTEGER PRIMARY KEY`
///   (dense surrogate, replicated on the device);
/// * `REFERENCES` must target the referenced table's primary key.
pub fn bind_schema(stmts: &[Statement]) -> Result<Schema> {
    let creates: Vec<&CreateTable> = stmts
        .iter()
        .filter_map(|s| match s {
            Statement::CreateTable(ct) => Some(ct),
            _ => None,
        })
        .collect();
    if creates.is_empty() {
        return Err(GhostError::sql("script contains no CREATE TABLE"));
    }
    let mut b = SchemaBuilder::new();
    for ct in &creates {
        let first = ct
            .columns
            .first()
            .ok_or_else(|| GhostError::sql(format!("table {} has no columns", ct.name)))?;
        if !first.primary_key {
            return Err(GhostError::unsupported(format!(
                "table {}: the first column must be the PRIMARY KEY",
                ct.name
            )));
        }
        if !matches!(first.ty, Some(TypeDecl::Integer) | None) {
            return Err(GhostError::unsupported(format!(
                "table {}: primary keys must be INTEGER",
                ct.name
            )));
        }
        if first.hidden {
            return Err(GhostError::unsupported(format!(
                "table {}: primary keys are replicated on the device and \
                 cannot be HIDDEN (paper §2)",
                ct.name
            )));
        }
        let mut slot = b.table(&ct.name, &first.name);
        for col in &ct.columns[1..] {
            if col.primary_key {
                return Err(GhostError::unsupported(format!(
                    "table {}: only the first column may be PRIMARY KEY",
                    ct.name
                )));
            }
            let vis = if col.hidden {
                Visibility::Hidden
            } else {
                Visibility::Visible
            };
            if let Some((target, _target_col)) = &col.references {
                if col.ty.is_some() && col.ty != Some(TypeDecl::Integer) {
                    return Err(GhostError::unsupported(format!(
                        "table {}: foreign key {} must be INTEGER",
                        ct.name, col.name
                    )));
                }
                slot = slot.foreign_key(&col.name, target, vis);
            } else {
                let ty = match col.ty {
                    Some(TypeDecl::Integer) | None => DataType::Integer,
                    Some(TypeDecl::Date) => DataType::Date,
                    Some(TypeDecl::Char(n)) => DataType::Char(n),
                };
                slot = slot.column(&col.name, ty, vis);
            }
        }
        let _ = slot; // slot borrows the builder; end its scope here
    }
    let schema = b.build()?;
    // REFERENCES must point at primary keys.
    for ct in &creates {
        for col in &ct.columns {
            if let Some((target, target_col)) = &col.references {
                let tid = schema.resolve_table(target)?;
                let pk_name = &schema.table(tid).columns[0].name;
                if !pk_name.eq_ignore_ascii_case(target_col) {
                    return Err(GhostError::unsupported(format!(
                        "{}.{} references {}.{}, which is not its primary key",
                        ct.name, col.name, target, target_col
                    )));
                }
            }
        }
    }
    Ok(schema)
}

/// The bound pieces of an INSERT: the resolved target table and every
/// row's literals coerced against the column types (in declaration
/// order, primary key first). Row-level integrity — dense PK, FK range —
/// is the storage layer's `validate_row`, which the engine runs against
/// its *live* cardinalities at apply time.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundInsert {
    /// Target table.
    pub table: TableId,
    /// Coerced rows in statement order.
    pub rows: Vec<Vec<Value>>,
}

/// Bind a parsed INSERT against the schema: resolve the table and
/// type-coerce every literal (arity and type errors surface here, before
/// any state changes).
pub fn bind_insert(schema: &Schema, stmt: &InsertStmt) -> Result<BoundInsert> {
    let tid = schema.resolve_table(&stmt.table)?;
    let tdef = schema.table(tid);
    let mut rows = Vec::with_capacity(stmt.rows.len());
    for (ri, lits) in stmt.rows.iter().enumerate() {
        if lits.len() != tdef.columns.len() {
            return Err(GhostError::sql(format!(
                "INSERT row {ri}: {} value(s) for {} column(s) of {}",
                lits.len(),
                tdef.columns.len(),
                tdef.name
            )));
        }
        let mut row = Vec::with_capacity(lits.len());
        for (cdef, lit) in tdef.columns.iter().zip(lits) {
            row.push(coerce_literal(lit, cdef.ty)?);
        }
        rows.push(row);
    }
    Ok(BoundInsert { table: tid, rows })
}

/// Coerce a literal against a column type.
pub fn coerce_literal(lit: &Literal, ty: DataType) -> Result<Value> {
    match (lit, ty) {
        (Literal::Int(v), DataType::Integer) => Ok(Value::Int(*v)),
        (Literal::Str(s), DataType::Char(cap)) => {
            if s.len() > cap as usize {
                return Err(GhostError::sql(format!(
                    "string literal exceeds CHAR({cap})"
                )));
            }
            Ok(Value::Text(s.clone()))
        }
        (Literal::Str(s), DataType::Date) => Ok(Value::Date(Date::parse(s)?)),
        (Literal::DateLit(s), DataType::Date) => Ok(Value::Date(Date::parse(s)?)),
        (lit, ty) => Err(GhostError::sql(format!(
            "literal {lit:?} incompatible with column type {ty}"
        ))),
    }
}

/// The bound pieces of a `DELETE`: the resolved target table and the
/// `WHERE` conjuncts as ordinary [`Predicate`]s over it. The engine
/// resolves the predicates to row ids through the normal
/// planner/executor — a delete is a query that ends in a mutation.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundDelete {
    /// Target table.
    pub table: TableId,
    /// Conjunctive predicates (empty = every row).
    pub predicates: Vec<Predicate>,
}

/// The bound pieces of an `UPDATE` (same filter shape as
/// [`BoundDelete`], plus the coerced assignments).
#[derive(Debug, Clone, PartialEq)]
pub struct BoundUpdate {
    /// Target table.
    pub table: TableId,
    /// `(column, new value)` assignments, literals coerced.
    pub assignments: Vec<(ColumnId, Value)>,
    /// Conjunctive predicates (empty = every row).
    pub predicates: Vec<Predicate>,
}

/// Bind a mutation's `WHERE` conjuncts against its single target table:
/// only `column OP literal` atoms are legal (a join condition has no
/// meaning when one table is in scope).
fn bind_mutation_filter(
    schema: &Schema,
    table: TableId,
    atoms: &[WhereAtom],
) -> Result<Vec<Predicate>> {
    let scope = FromScope {
        schema,
        entries: vec![(table, vec![schema.table(table).name.clone()])],
    };
    let mut predicates = Vec::new();
    for atom in atoms {
        match atom {
            WhereAtom::Compare { col, op, value } => {
                let cref = scope.resolve(col)?;
                let ty = schema.column_def(cref).ty;
                predicates.push(Predicate {
                    column: cref,
                    op: *op,
                    value: coerce_literal(value, ty)?,
                });
            }
            WhereAtom::Between { col, lo, hi } => {
                let cref = scope.resolve(col)?;
                let ty = schema.column_def(cref).ty;
                predicates.push(Predicate {
                    column: cref,
                    op: ghostdb_types::ScalarOp::Ge,
                    value: coerce_literal(lo, ty)?,
                });
                predicates.push(Predicate {
                    column: cref,
                    op: ghostdb_types::ScalarOp::Le,
                    value: coerce_literal(hi, ty)?,
                });
            }
            WhereAtom::Join { .. } => {
                return Err(GhostError::unsupported(
                    "mutation WHERE clauses cannot contain join conditions".to_string(),
                ))
            }
        }
    }
    Ok(predicates)
}

/// Bind a parsed `DELETE` against the schema.
pub fn bind_delete(schema: &Schema, stmt: &DeleteStmt) -> Result<BoundDelete> {
    let table = schema.resolve_table(&stmt.table)?;
    Ok(BoundDelete {
        table,
        predicates: bind_mutation_filter(schema, table, &stmt.where_atoms)?,
    })
}

/// Bind a parsed `UPDATE` against the schema: resolve and coerce every
/// assignment (duplicate targets rejected), and restrict the targets to
/// **attribute** columns — primary keys are the identity the tombstone
/// layer is built on, and foreign keys are the join skeleton the SKTs
/// and key indexes precompute; rewriting either is not a value update.
pub fn bind_update(schema: &Schema, stmt: &UpdateStmt) -> Result<BoundUpdate> {
    let table = schema.resolve_table(&stmt.table)?;
    let mut assignments: Vec<(ColumnId, Value)> = Vec::with_capacity(stmt.assignments.len());
    for (name, lit) in &stmt.assignments {
        let cref = schema.resolve_column(table, name)?;
        let def = schema.column_def(cref);
        match def.role {
            ColumnRole::Attribute => {}
            ColumnRole::PrimaryKey => {
                return Err(GhostError::unsupported(format!(
                    "UPDATE of primary key {} (row identity is immutable)",
                    schema.column_name(cref)
                )))
            }
            ColumnRole::ForeignKey(_) => {
                return Err(GhostError::unsupported(format!(
                    "UPDATE of foreign key {} (delete and re-insert to re-parent a row)",
                    schema.column_name(cref)
                )))
            }
        }
        if assignments.iter().any(|(c, _)| *c == cref.column) {
            return Err(GhostError::sql(format!(
                "duplicate SET target {}",
                schema.column_name(cref)
            )));
        }
        assignments.push((cref.column, coerce_literal(lit, def.ty)?));
    }
    if assignments.is_empty() {
        return Err(GhostError::sql("UPDATE with no SET assignments"));
    }
    Ok(BoundUpdate {
        table,
        assignments,
        predicates: bind_mutation_filter(schema, table, &stmt.where_atoms)?,
    })
}

struct FromScope<'a> {
    schema: &'a Schema,
    /// (table id, names it answers to).
    entries: Vec<(TableId, Vec<String>)>,
}

impl FromScope<'_> {
    fn resolve(&self, q: &QualCol) -> Result<ColumnRef> {
        match &q.table {
            Some(t) => {
                let tid = self
                    .entries
                    .iter()
                    .find(|(_, names)| names.iter().any(|n| n.eq_ignore_ascii_case(t)))
                    .map(|(id, _)| *id)
                    .ok_or_else(|| GhostError::sql(format!("table or alias {t:?} not in FROM")))?;
                self.schema.resolve_column(tid, &q.column)
            }
            None => {
                let mut hits = Vec::new();
                for (tid, _) in &self.entries {
                    if let Ok(cref) = self.schema.resolve_column(*tid, &q.column) {
                        hits.push(cref);
                    }
                }
                match hits.len() {
                    1 => Ok(hits[0]),
                    0 => Err(GhostError::sql(format!(
                        "column {:?} not found in FROM tables",
                        q.column
                    ))),
                    _ => Err(GhostError::sql(format!(
                        "column {:?} is ambiguous",
                        q.column
                    ))),
                }
            }
        }
    }
}

/// Bind a parsed SELECT against the schema: resolve the FROM scope, the
/// SELECT list (plain columns and aggregates), the WHERE conjuncts
/// (`BETWEEN` desugars into a `>= lo` / `<= hi` pair here), GROUP BY,
/// ORDER BY and LIMIT.
pub fn bind_select(schema: &Schema, _tree: &TreeSchema, stmt: &SelectStmt) -> Result<BoundSelect> {
    let mut entries = Vec::new();
    for (name, alias) in &stmt.from {
        let tid = schema.resolve_table(name)?;
        let mut names = vec![name.clone(), schema.table(tid).name.clone()];
        if let Some(a) = &schema.table(tid).alias {
            names.push(a.clone());
        }
        if let Some(a) = alias {
            names.push(a.clone());
        }
        entries.push((tid, names));
    }
    let scope = FromScope { schema, entries };

    // SELECT list → output items; `projections` accumulates the distinct
    // base columns in first-use order.
    let mut projections: Vec<ColumnRef> = Vec::new();
    let intern = |projections: &mut Vec<ColumnRef>, c: ColumnRef| {
        if !projections.contains(&c) {
            projections.push(c);
        }
    };
    let mut output = Vec::new();
    for item in &stmt.items {
        match item {
            SelectItem::Column(q) => {
                let cref = scope.resolve(q)?;
                intern(&mut projections, cref);
                output.push(OutputItem::Column(cref));
            }
            SelectItem::Agg { func, arg } => {
                let arg = match arg {
                    Some(q) => {
                        let cref = scope.resolve(q)?;
                        if func.needs_arithmetic()
                            && schema.column_def(cref).ty != DataType::Integer
                        {
                            return Err(GhostError::unsupported(format!(
                                "{func}({}) needs an INTEGER operand, not {}",
                                schema.column_name(cref),
                                schema.column_def(cref).ty
                            )));
                        }
                        intern(&mut projections, cref);
                        Some(cref)
                    }
                    None => None,
                };
                output.push(OutputItem::Agg { func: *func, arg });
            }
        }
    }

    let mut group_by = Vec::new();
    for q in &stmt.group_by {
        let cref = scope.resolve(q)?;
        intern(&mut projections, cref);
        group_by.push(cref);
    }
    // Every plain output column must be a grouping key once the query
    // groups (explicitly, or implicitly by aggregating).
    let has_agg = output.iter().any(OutputItem::is_aggregate);
    if has_agg || !group_by.is_empty() {
        for item in &output {
            if let OutputItem::Column(c) = item {
                if !group_by.contains(c) {
                    return Err(GhostError::sql(format!(
                        "column {} must appear in GROUP BY (it is not aggregated)",
                        schema.column_name(*c)
                    )));
                }
            }
        }
    }

    // ORDER BY keys name a SELECT-list item, by column or 1-based
    // ordinal.
    let mut order_by = Vec::new();
    for oi in &stmt.order_by {
        let item = match &oi.target {
            OrderTarget::Ordinal(n) => {
                if *n < 1 || *n as usize > output.len() {
                    return Err(GhostError::sql(format!(
                        "ORDER BY ordinal {n} out of range 1..={}",
                        output.len()
                    )));
                }
                *n as usize - 1
            }
            OrderTarget::Column(q) => {
                let cref = scope.resolve(q)?;
                output
                    .iter()
                    .position(|it| matches!(it, OutputItem::Column(c) if *c == cref))
                    .ok_or_else(|| {
                        GhostError::sql(format!(
                            "ORDER BY column {} is not in the SELECT list",
                            schema.column_name(cref)
                        ))
                    })?
            }
        };
        order_by.push(OrderKey {
            item,
            desc: oi.desc,
        });
    }

    let mut predicates = Vec::new();
    let mut joins = Vec::new();
    for atom in &stmt.where_atoms {
        match atom {
            WhereAtom::Compare { col, op, value } => {
                let cref = scope.resolve(col)?;
                let ty = schema.column_def(cref).ty;
                let v = coerce_literal(value, ty)?;
                predicates.push(Predicate {
                    column: cref,
                    op: *op,
                    value: v,
                });
            }
            WhereAtom::Between { col, lo, hi } => {
                let cref = scope.resolve(col)?;
                let ty = schema.column_def(cref).ty;
                predicates.push(Predicate {
                    column: cref,
                    op: ScalarOp::Ge,
                    value: coerce_literal(lo, ty)?,
                });
                predicates.push(Predicate {
                    column: cref,
                    op: ScalarOp::Le,
                    value: coerce_literal(hi, ty)?,
                });
            }
            WhereAtom::Join { left, right } => {
                joins.push((scope.resolve(left)?, scope.resolve(right)?));
            }
        }
    }
    Ok(BoundSelect {
        sql: stmt.text.clone(),
        tables: scope.entries.iter().map(|(t, _)| *t).collect(),
        projections,
        predicates,
        joins,
        analytics: Analytics {
            output,
            group_by,
            order_by,
            limit: stmt.limit,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_statements;
    use ghostdb_types::ScalarOp;

    const DDL: &str = "\
        CREATE TABLE Doctor ( \
          DocID INTEGER PRIMARY KEY, \
          Name CHAR(40), \
          Country CHAR(20)); \
        CREATE TABLE Medicine ( \
          MedID INTEGER PRIMARY KEY, \
          Name CHAR(40), \
          Type CHAR(20)); \
        CREATE TABLE Visit ( \
          VisID INTEGER PRIMARY KEY, \
          Date DATE, \
          Purpose CHAR(100) HIDDEN, \
          DocID REFERENCES Doctor(DocID) HIDDEN); \
        CREATE TABLE Prescription ( \
          PreID INTEGER PRIMARY KEY, \
          Quantity INTEGER HIDDEN, \
          MedID REFERENCES Medicine(MedID) HIDDEN, \
          VisID REFERENCES Visit(VisID) HIDDEN);";

    fn schema() -> Schema {
        bind_schema(&parse_statements(DDL).unwrap()).unwrap()
    }

    #[test]
    fn schema_binds_with_visibility() {
        let s = schema();
        assert_eq!(s.table_count(), 4);
        let vis = s.resolve_table("Visit").unwrap();
        let purpose = s.resolve_column(vis, "Purpose").unwrap();
        assert!(s.is_hidden(purpose));
        let date = s.resolve_column(vis, "Date").unwrap();
        assert!(!s.is_hidden(date));
        let tree = TreeSchema::analyze(&s).unwrap();
        assert_eq!(tree.root(), s.resolve_table("Prescription").unwrap());
    }

    #[test]
    fn select_binds_paper_query() {
        let s = schema();
        let tree = TreeSchema::analyze(&s).unwrap();
        let stmts = parse_statements(
            "SELECT Med.Name, Pre.Quantity, Vis.Date \
             FROM Medicine Med, Prescription Pre, Visit Vis \
             WHERE Vis.Date > 05-11-2006 \
               AND Vis.Purpose = 'Sclerosis' \
               AND Med.Type = 'Antibiotic' \
               AND Med.MedID = Pre.MedID \
               AND Vis.VisID = Pre.VisID;",
        )
        .unwrap();
        let Statement::Select(sel) = &stmts[0] else {
            panic!()
        };
        let bound = bind_select(&s, &tree, sel).unwrap();
        assert_eq!(bound.tables.len(), 3);
        assert_eq!(bound.projections.len(), 3);
        assert_eq!(bound.predicates.len(), 3);
        assert_eq!(bound.joins.len(), 2);
        assert_eq!(bound.predicates[0].op, ScalarOp::Gt);
        assert_eq!(
            bound.predicates[0].value,
            Value::Date(Date::parse("2006-11-05").unwrap())
        );
    }

    #[test]
    fn between_desugars_to_range_pair() {
        let s = schema();
        let tree = TreeSchema::analyze(&s).unwrap();
        let stmts = parse_statements(
            "SELECT Pre.PreID FROM Prescription Pre WHERE Pre.Quantity BETWEEN 2 AND 8",
        )
        .unwrap();
        let Statement::Select(sel) = &stmts[0] else {
            panic!()
        };
        let bound = bind_select(&s, &tree, sel).unwrap();
        assert_eq!(bound.predicates.len(), 2);
        assert_eq!(bound.predicates[0].op, ScalarOp::Ge);
        assert_eq!(bound.predicates[0].value, Value::Int(2));
        assert_eq!(bound.predicates[1].op, ScalarOp::Le);
        assert_eq!(bound.predicates[1].value, Value::Int(8));
        assert_eq!(bound.predicates[0].column, bound.predicates[1].column);
        assert!(bound.analytics.is_plain());
    }

    #[test]
    fn aggregates_group_and_order_bind() {
        use ghostdb_catalog::OutputItem;
        use ghostdb_types::AggFunc;
        let s = schema();
        let tree = TreeSchema::analyze(&s).unwrap();
        let stmts = parse_statements(
            "SELECT Vis.Purpose, COUNT(*), SUM(Pre.Quantity) \
             FROM Prescription Pre, Visit Vis \
             WHERE Vis.VisID = Pre.VisID \
             GROUP BY Vis.Purpose \
             ORDER BY 3 DESC, Vis.Purpose \
             LIMIT 4",
        )
        .unwrap();
        let Statement::Select(sel) = &stmts[0] else {
            panic!()
        };
        let bound = bind_select(&s, &tree, sel).unwrap();
        // Base columns deduplicated in first-use order: Purpose, Quantity.
        assert_eq!(bound.projections.len(), 2);
        assert_eq!(bound.analytics.output.len(), 3);
        assert!(matches!(
            bound.analytics.output[1],
            OutputItem::Agg {
                func: AggFunc::Count,
                arg: None
            }
        ));
        assert_eq!(bound.analytics.group_by, vec![bound.projections[0]]);
        assert_eq!(bound.analytics.order_by.len(), 2);
        assert_eq!(bound.analytics.order_by[0].item, 2);
        assert!(bound.analytics.order_by[0].desc);
        assert_eq!(bound.analytics.order_by[1].item, 0);
        assert_eq!(bound.analytics.limit, Some(4));
        assert!(bound.analytics.has_aggregates());
    }

    #[test]
    fn analytic_misuse_rejected() {
        let s = schema();
        let tree = TreeSchema::analyze(&s).unwrap();
        let cases = [
            // Plain column outside GROUP BY.
            ("SELECT Vis.Date, COUNT(*) FROM Visit Vis", "GROUP BY"),
            // SUM over a text column.
            ("SELECT SUM(Vis.Purpose) FROM Visit Vis", "INTEGER"),
            // AVG over a date column.
            ("SELECT AVG(Vis.Date) FROM Visit Vis", "INTEGER"),
            // ORDER BY ordinal out of range.
            ("SELECT Vis.Date FROM Visit Vis ORDER BY 2", "out of range"),
            // ORDER BY a column that is not projected.
            (
                "SELECT Vis.Date FROM Visit Vis ORDER BY Vis.VisID",
                "not in the SELECT list",
            ),
        ];
        for (sql, needle) in cases {
            let stmts = parse_statements(sql).unwrap();
            let Statement::Select(sel) = &stmts[0] else {
                panic!()
            };
            let err = bind_select(&s, &tree, sel).unwrap_err().to_string();
            assert!(err.contains(needle), "{sql}: {err}");
        }
        // GROUP BY without aggregates (DISTINCT-like) binds fine.
        let stmts = parse_statements("SELECT Vis.Date FROM Visit Vis GROUP BY Vis.Date").unwrap();
        let Statement::Select(sel) = &stmts[0] else {
            panic!()
        };
        assert!(bind_select(&s, &tree, sel).is_ok());
    }

    #[test]
    fn literal_coercions() {
        assert_eq!(
            coerce_literal(&Literal::Int(5), DataType::Integer).unwrap(),
            Value::Int(5)
        );
        assert_eq!(
            coerce_literal(&Literal::Str("2001-02-03".into()), DataType::Date).unwrap(),
            Value::Date(Date::from_ymd(2001, 2, 3).unwrap())
        );
        assert!(coerce_literal(&Literal::Int(5), DataType::Date).is_err());
        assert!(coerce_literal(&Literal::Str("toolongtext".into()), DataType::Char(3)).is_err());
    }

    #[test]
    fn delete_and_update_bind() {
        let s = schema();
        let stmts = parse_statements(
            "DELETE FROM Visit WHERE Purpose = 'Checkup'; \
             UPDATE Visit SET Purpose = 'Recovered' WHERE VisID >= 3; \
             UPDATE Visit SET VisID = 9; \
             UPDATE Visit SET DocID = 0; \
             UPDATE Visit SET Purpose = 'a', Purpose = 'b'; \
             DELETE FROM Visit WHERE DocID = Doctor.DocID;",
        )
        .unwrap();
        let Statement::Delete(del) = &stmts[0] else {
            panic!()
        };
        let bound = bind_delete(&s, del).unwrap();
        assert_eq!(bound.table, s.resolve_table("Visit").unwrap());
        assert_eq!(bound.predicates.len(), 1);
        assert_eq!(bound.predicates[0].value, Value::Text("Checkup".into()));

        let Statement::Update(upd) = &stmts[1] else {
            panic!()
        };
        let bound = bind_update(&s, upd).unwrap();
        assert_eq!(bound.assignments.len(), 1);
        assert_eq!(bound.predicates.len(), 1);

        // PK / FK / duplicate targets and join filters are rejected.
        let Statement::Update(pk) = &stmts[2] else {
            panic!()
        };
        assert!(bind_update(&s, pk)
            .unwrap_err()
            .to_string()
            .contains("primary key"));
        let Statement::Update(fk) = &stmts[3] else {
            panic!()
        };
        assert!(bind_update(&s, fk)
            .unwrap_err()
            .to_string()
            .contains("foreign key"));
        let Statement::Update(dup) = &stmts[4] else {
            panic!()
        };
        assert!(bind_update(&s, dup)
            .unwrap_err()
            .to_string()
            .contains("duplicate"));
        let Statement::Delete(join) = &stmts[5] else {
            panic!()
        };
        assert!(bind_delete(&s, join)
            .unwrap_err()
            .to_string()
            .contains("join"));
    }

    #[test]
    fn hidden_primary_key_rejected() {
        let err = bind_schema(
            &parse_statements("CREATE TABLE T (id INTEGER PRIMARY KEY HIDDEN);").unwrap(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("cannot be HIDDEN"));
    }

    #[test]
    fn pk_must_be_first() {
        let err = bind_schema(
            &parse_statements("CREATE TABLE T (x INTEGER, id INTEGER PRIMARY KEY);").unwrap(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("first column"));
    }

    #[test]
    fn fk_must_reference_pk() {
        let err = bind_schema(
            &parse_statements(
                "CREATE TABLE A (aid INTEGER PRIMARY KEY, nm CHAR(5)); \
                 CREATE TABLE B (bid INTEGER PRIMARY KEY, a REFERENCES A(nm));",
            )
            .unwrap(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("not its primary key"));
    }

    #[test]
    fn ambiguous_unqualified_column() {
        let s = schema();
        let tree = TreeSchema::analyze(&s).unwrap();
        let stmts =
            parse_statements("SELECT Name FROM Doctor, Medicine WHERE Doctor.DocID = Doctor.DocID")
                .unwrap();
        let Statement::Select(sel) = &stmts[0] else {
            panic!()
        };
        assert!(bind_select(&s, &tree, sel).is_err());
    }
}
