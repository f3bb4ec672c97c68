//! # instn-sql
//!
//! The extended SQL front end.
//!
//! InsightNotes exposes its summary-based features through small extensions
//! to SQL: the `$` summary-set variable with method chains
//! (`r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') > 5`), the
//! extended DDL `ALTER TABLE <t> ADD [INDEXABLE] <InstanceName>` /
//! `ALTER TABLE <t> DROP <InstanceName>` (§4), summary-based `ORDER BY`, and
//! the zoom-in command. This crate provides:
//!
//! * [`lexer`] — tokenization,
//! * [`ast`] — the statement / expression AST,
//! * [`parser`] — a recursive-descent parser for the supported subset,
//! * [`lower`] — name resolution and lowering of `SELECT` statements into
//!   [`instn_query::plan::LogicalPlan`]s (splitting data vs summary
//!   predicates into σ vs `S`, recognizing data- and summary-based join
//!   conjuncts), plus the DDL and zoom-in helpers,
//! * [`plan`] — cost-based planning through the session's plan cache,
//! * [`statement`] — [`run_statement`], the one front door every caller
//!   (shell, wire server, examples) hands a parsed [`Statement`] to.
//!
//! Supported grammar (keywords case-insensitive):
//!
//! ```text
//! SELECT <* | col[, col…]> FROM t [alias][, t2 [alias]]
//!   [WHERE pred {AND pred}] [GROUP BY col]
//!   [ORDER BY expr [ASC|DESC]] [LIMIT n];
//! ALTER TABLE t ADD [INDEXABLE] InstanceName;
//! ALTER TABLE t DROP InstanceName;
//! ZOOM IN ON InstanceName OF t TUPLE <oid> [LABEL 'x' | REP <i>];
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod ast;
pub mod lexer;
pub mod lower;
pub mod parser;
pub mod plan;
pub mod statement;

pub use ast::{AstExpr, SelectStmt, Statement};
pub use lower::{execute_statement, lower_select, Altered, LoweredQuery, SqlOutcome};
pub use parser::parse;
pub use plan::{plan_select, statement_key, PlanSource, PlannedStatement};
pub use statement::{
    run_statement, run_statement_into, ExplainAnalysis, SelectSink, StatementError,
    StatementOutcome,
};

/// Errors raised by the SQL front end.
#[derive(Debug, Clone, PartialEq)]
pub enum SqlError {
    /// Lexical error with position.
    Lex(String),
    /// Parse error.
    Parse(String),
    /// Name-resolution / lowering error.
    Bind(String),
}

impl std::fmt::Display for SqlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SqlError::Lex(m) => write!(f, "lex error: {m}"),
            SqlError::Parse(m) => write!(f, "parse error: {m}"),
            SqlError::Bind(m) => write!(f, "bind error: {m}"),
        }
    }
}

impl std::error::Error for SqlError {}

/// Every engine call the front end makes while binding — table and
/// instance lookup, DDL, zoom-in — fails on a name the statement got wrong.
impl From<instn_core::CoreError> for SqlError {
    fn from(e: instn_core::CoreError) -> Self {
        SqlError::Bind(e.to_string())
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, SqlError>;
