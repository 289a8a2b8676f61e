//! Abstract syntax of the SQL subset.

/// A parsed statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// `CREATE TABLE ...`
    CreateTable(CreateTable),
    /// `SELECT ... FROM ... WHERE ...`
    Select(SelectStmt),
    /// `EXPLAIN ANALYZE SELECT ...` — run the query and render its plan
    /// annotated with estimated vs. actual cardinalities.
    ExplainAnalyze(SelectStmt),
    /// `INSERT INTO t VALUES (...), (...)`
    Insert(InsertStmt),
    /// `DELETE FROM t WHERE ...`
    Delete(DeleteStmt),
    /// `UPDATE t SET c = v, ... WHERE ...`
    Update(UpdateStmt),
}

/// Column type as written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TypeDecl {
    /// `INTEGER` / `INT`.
    Integer,
    /// `DATE`.
    Date,
    /// `CHAR(n)` / `VARCHAR(n)`.
    Char(u16),
}

/// One column in a `CREATE TABLE`.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnDecl {
    /// Column name.
    pub name: String,
    /// Declared type (`None` for bare `REFERENCES` columns, which default
    /// to `INTEGER`).
    pub ty: Option<TypeDecl>,
    /// `PRIMARY KEY` flag.
    pub primary_key: bool,
    /// `HIDDEN` flag — the paper's single schema extension.
    pub hidden: bool,
    /// `REFERENCES table(column)`.
    pub references: Option<(String, String)>,
}

/// A `CREATE TABLE` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct CreateTable {
    /// Table name.
    pub name: String,
    /// Columns in declaration order.
    pub columns: Vec<ColumnDecl>,
}

/// A possibly-qualified column reference (`Vis.Date` or `Date`).
#[derive(Debug, Clone, PartialEq)]
pub struct QualCol {
    /// Table name or alias, if qualified.
    pub table: Option<String>,
    /// Column name.
    pub column: String,
}

/// A literal value as written.
#[derive(Debug, Clone, PartialEq)]
pub enum Literal {
    /// Integer.
    Int(i64),
    /// Quoted string (may coerce to DATE against a date column).
    Str(String),
    /// Unquoted date literal.
    DateLit(String),
}

/// One conjunct of a `WHERE` clause.
#[derive(Debug, Clone, PartialEq)]
pub enum WhereAtom {
    /// `column OP literal`.
    Compare {
        /// Column being selected on.
        col: QualCol,
        /// Operator.
        op: ghostdb_types::ScalarOp,
        /// Right-hand literal.
        value: Literal,
    },
    /// `column BETWEEN lo AND hi` (inclusive; desugars to `>= lo` and
    /// `<= hi` in the binder).
    Between {
        /// Column being ranged over.
        col: QualCol,
        /// Inclusive lower bound.
        lo: Literal,
        /// Inclusive upper bound.
        hi: Literal,
    },
    /// `column = column` (a join condition).
    Join {
        /// Left column.
        left: QualCol,
        /// Right column.
        right: QualCol,
    },
}

/// One item of a `SELECT` list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// A plain column reference.
    Column(QualCol),
    /// An aggregate call `FUNC(col)` or `COUNT(*)`.
    Agg {
        /// The aggregate function.
        func: ghostdb_types::AggFunc,
        /// The operand column; `None` for `COUNT(*)`.
        arg: Option<QualCol>,
    },
}

/// What an `ORDER BY` key names.
#[derive(Debug, Clone, PartialEq)]
pub enum OrderTarget {
    /// A column, matched against the SELECT list.
    Column(QualCol),
    /// A 1-based ordinal into the SELECT list (`ORDER BY 2`).
    Ordinal(i64),
}

/// One `ORDER BY` key with its direction.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderItem {
    /// What to sort by.
    pub target: OrderTarget,
    /// `DESC` if true (`ASC` is the default).
    pub desc: bool,
}

/// A `SELECT` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStmt {
    /// Original statement text.
    pub text: String,
    /// SELECT list in statement order (columns and/or aggregates).
    pub items: Vec<SelectItem>,
    /// `FROM` tables with optional aliases.
    pub from: Vec<(String, Option<String>)>,
    /// Conjuncts of the `WHERE` clause (empty if absent).
    pub where_atoms: Vec<WhereAtom>,
    /// `GROUP BY` columns (empty if absent).
    pub group_by: Vec<QualCol>,
    /// `ORDER BY` keys (empty if absent).
    pub order_by: Vec<OrderItem>,
    /// `LIMIT` row count, if present.
    pub limit: Option<u64>,
}

/// An `INSERT` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct InsertStmt {
    /// Target table.
    pub table: String,
    /// Rows of literals.
    pub rows: Vec<Vec<Literal>>,
}

/// A `DELETE` statement. The `WHERE` clause reuses the `SELECT`
/// machinery — a delete is a query that ends in a mutation — but only
/// `column OP literal` conjuncts over the target table are legal (no
/// joins).
#[derive(Debug, Clone, PartialEq)]
pub struct DeleteStmt {
    /// Target table.
    pub table: String,
    /// Conjuncts of the `WHERE` clause (empty = delete every row).
    pub where_atoms: Vec<WhereAtom>,
}

/// An `UPDATE` statement (same `WHERE` shape as [`DeleteStmt`]).
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateStmt {
    /// Target table.
    pub table: String,
    /// `SET column = literal` assignments, in statement order.
    pub assignments: Vec<(String, Literal)>,
    /// Conjuncts of the `WHERE` clause (empty = update every row).
    pub where_atoms: Vec<WhereAtom>,
}
