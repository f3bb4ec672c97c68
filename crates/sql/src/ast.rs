//! The statement and expression AST.

/// A literal value.
#[derive(Debug, Clone, PartialEq)]
pub enum Lit {
    /// Integer.
    Int(i64),
    /// Float.
    Float(f64),
    /// String.
    Str(String),
    /// Boolean.
    Bool(bool),
}

/// Equal literals hash equal (`f64` has no `Hash`, so a float hashes by its
/// bit pattern with the two zeros, which compare equal, folded together).
impl std::hash::Hash for Lit {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        std::mem::discriminant(self).hash(state);
        match self {
            Lit::Int(i) => i.hash(state),
            Lit::Float(x) => (if *x == 0.0 { 0.0 } else { *x }).to_bits().hash(state),
            Lit::Str(s) => s.hash(state),
            Lit::Bool(b) => b.hash(state),
        }
    }
}

/// A possibly-qualified column reference `alias.column` / `column`.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct ColRef {
    /// Table alias, when qualified.
    pub alias: Option<String>,
    /// Column name.
    pub column: String,
}

/// One call in a `$` method chain, e.g. `getLabelValue('Disease')`.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct MethodCall {
    /// Method name.
    pub name: String,
    /// Literal arguments.
    pub args: Vec<Lit>,
}

/// Expressions.
#[derive(Debug, Clone, PartialEq, Hash)]
pub enum AstExpr {
    /// Literal.
    Lit(Lit),
    /// Column reference.
    Col(ColRef),
    /// `alias.$.m1(..).m2(..)` summary method chain.
    SummaryChain {
        /// Table alias the `$` belongs to (None for single-table queries).
        alias: Option<String>,
        /// The chained calls, in order.
        calls: Vec<MethodCall>,
    },
    /// Comparison.
    Cmp(Box<AstExpr>, CmpOpAst, Box<AstExpr>),
    /// `a AND b`.
    And(Box<AstExpr>, Box<AstExpr>),
    /// `a OR b`.
    Or(Box<AstExpr>, Box<AstExpr>),
    /// `NOT a`.
    Not(Box<AstExpr>),
    /// `a LIKE 'pattern'`.
    Like(Box<AstExpr>, String),
}

/// AST-level comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOpAst {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

/// SELECT output list.
#[derive(Debug, Clone, PartialEq, Hash)]
pub enum SelectList {
    /// `*`
    Star,
    /// Explicit columns.
    Cols(Vec<ColRef>),
}

/// A parsed `SELECT` statement.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct SelectStmt {
    /// `SELECT DISTINCT`: duplicate rows collapse and their summary sets
    /// merge (the summary-aware duplicate elimination of §2.2).
    pub distinct: bool,
    /// Output list.
    pub columns: SelectList,
    /// FROM items: `(table, alias)`.
    pub from: Vec<(String, Option<String>)>,
    /// WHERE predicate.
    pub where_clause: Option<AstExpr>,
    /// GROUP BY column.
    pub group_by: Option<ColRef>,
    /// ORDER BY `(expr, descending)`.
    pub order_by: Option<(AstExpr, bool)>,
    /// LIMIT.
    pub limit: Option<usize>,
}

/// `ALTER TABLE` actions (the paper's extended DDL, §4).
#[derive(Debug, Clone, PartialEq)]
pub enum AlterAction {
    /// `ADD [INDEXABLE] <InstanceName>`.
    Add {
        /// Instance to link.
        instance: String,
        /// Whether to build a Summary-BTree over it.
        indexable: bool,
    },
    /// `DROP <InstanceName>`.
    Drop {
        /// Instance to unlink.
        instance: String,
    },
}

/// Zoom-in targets.
#[derive(Debug, Clone, PartialEq)]
pub enum ZoomTargetAst {
    /// Every raw annotation behind the object.
    All,
    /// `LABEL 'x'`: annotations under a classifier label.
    Label(String),
    /// `REP i`: annotations behind representative `i`.
    Rep(usize),
}

/// A parsed statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// `SELECT …`.
    Select(SelectStmt),
    /// `EXPLAIN SELECT …`: show the logical plan instead of executing.
    Explain(SelectStmt),
    /// `EXPLAIN ANALYZE SELECT …`: execute the query and report the plan
    /// together with the observed I/O counters (physical, logical, cache).
    ExplainAnalyze(SelectStmt),
    /// `ANALYZE;`: collect optimizer statistics over every table.
    Analyze,
    /// `ALTER TABLE …`.
    AlterTable {
        /// The table.
        table: String,
        /// The action.
        action: AlterAction,
    },
    /// `ZOOM IN ON <instance> OF <table> TUPLE <oid> [LABEL 'x' | REP i]`.
    ZoomIn {
        /// The table.
        table: String,
        /// The summary instance.
        instance: String,
        /// The tuple's OID.
        oid: u64,
        /// What to zoom into.
        target: ZoomTargetAst,
    },
}
