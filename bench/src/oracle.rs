//! The correctness oracle: the serial, index-free `lower_naive` answer to a
//! statement on the same database state, and the comparison against it.
//!
//! A result that is byte-identical to the oracle's passes at once. SQL
//! leaves two things open, though, and an indexed plan legitimately differs
//! from a sequential one in both: the row order of a statement without
//! `ORDER BY`, and which of several rows tied on the sort key make a
//! `LIMIT`. So a result that is not byte-identical is compared in canonical
//! form instead — as a multiset of encoded rows, or for `ORDER BY … LIMIT k`
//! as any k rows whose key sequence equals the oracle's and that are all
//! drawn from the rows at or above the k-th key.

use std::collections::HashMap;

use instn_core::AnnotatedTuple;
use instn_query::expr::SummaryExpr;
use instn_query::{Session, SharedDatabase};
use instn_serve::{Response, WireRow};
use instn_sql::{execute_statement, lower_select, SqlOutcome};
use instn_storage::Value;

use crate::statements::Stmt;

enum Canonical {
    /// Text responses (`ZOOM IN`): only the exact bytes are right.
    Exact,
    /// No `ORDER BY`: the sorted row encodings.
    Multiset(Vec<Vec<u8>>),
    /// `ORDER BY key DESC LIMIT k`: the sort keys of the k rows, and every
    /// row that may appear (key ≥ the k-th key) with its key.
    TopK {
        top_keys: Vec<i64>,
        candidates: HashMap<Vec<u8>, i64>,
    },
}

/// What the oracle says a statement returns on the current state.
pub struct Oracle {
    /// Canonical wire encoding of the oracle's own response.
    pub payload: Vec<u8>,
    /// The oracle's rows (empty for `ZOOM IN`).
    pub rows: Vec<AnnotatedTuple>,
    columns: Vec<String>,
    canonical: Canonical,
}

fn encode_row(row: &WireRow) -> Vec<u8> {
    Response::Rows {
        columns: Vec::new(),
        rows: vec![row.clone()],
    }
    .encode()
}

/// The server's rendering of a zoom result (`instn-serve` formats it
/// inline; the oracle has to say the same thing byte for byte).
pub fn render_zoom(annots: &[instn_annot::Annotation]) -> String {
    let mut out = String::new();
    for a in annots.iter().take(50) {
        out.push_str(&format!("[{}] {}\n", a.author, a.text));
    }
    out.push_str(&format!("({} annotations)\n", annots.len()));
    out
}

impl Oracle {
    /// `serial` must be a DOP-1 session with no index registered.
    pub fn compute(shared: &SharedDatabase, serial: &mut Session, stmt: &Stmt) -> Oracle {
        let Some(sel) = &stmt.select else {
            let outcome = execute_statement(&mut shared.write(), &HashMap::new(), &stmt.text)
                .expect("zoom executes");
            let SqlOutcome::Zoom(annots) = outcome else {
                panic!("{} is not a zoom", stmt.text)
            };
            return Oracle {
                payload: Response::Text(render_zoom(&annots)).encode(),
                rows: Vec::new(),
                columns: Vec::new(),
                canonical: Canonical::Exact,
            };
        };
        // For a top-k the oracle sorts everything and cuts here, so that it
        // sees the rows tied with the k-th one.
        let mut unlimited = sel.clone();
        let limit = if stmt.order_key.is_some() {
            unlimited.limit.take()
        } else {
            None
        };
        let (physical, columns) = serial.with_ctx(|ctx| {
            let lowered = lower_select(ctx.db, &unlimited).expect("catalogue statement binds");
            let physical = instn_query::lower::lower_naive(ctx.db, &lowered.plan)
                .expect("catalogue statement lowers");
            (physical, lowered.columns)
        });
        let mut rows = serial.execute(&physical).expect("oracle executes");
        let canonical = match &stmt.order_key {
            None => {
                let mut encoded: Vec<Vec<u8>> = rows
                    .iter()
                    .map(|r| encode_row(&WireRow::from_tuple(r)))
                    .collect();
                encoded.sort_unstable();
                Canonical::Multiset(encoded)
            }
            Some((instance, label)) => {
                let key_expr = SummaryExpr::label_value(instance, label);
                let keys: Vec<i64> = rows
                    .iter()
                    .map(|r| match key_expr.eval(r) {
                        Value::Int(k) => k,
                        other => panic!("sort key of {} is {other:?}", stmt.text),
                    })
                    .collect();
                assert!(keys.windows(2).all(|w| w[0] >= w[1]), "oracle sort order");
                let k = limit.unwrap_or(rows.len()).min(rows.len());
                let cut = keys[..k].last().copied().unwrap_or(i64::MAX);
                let candidates = rows
                    .iter()
                    .zip(&keys)
                    .take_while(|(_, &key)| key >= cut)
                    .map(|(r, &key)| (encode_row(&WireRow::from_tuple(r)), key))
                    .collect();
                rows.truncate(k);
                Canonical::TopK {
                    top_keys: keys[..k].to_vec(),
                    candidates,
                }
            }
        };
        let payload = Response::Rows {
            columns: columns.clone(),
            rows: rows.iter().map(WireRow::from_tuple).collect(),
        }
        .encode();
        Oracle {
            payload,
            rows,
            columns,
            canonical,
        }
    }

    fn accepts_canonically(&self, rows: &[WireRow]) -> bool {
        let mut encoded: Vec<Vec<u8>> = rows.iter().map(encode_row).collect();
        match &self.canonical {
            Canonical::Exact => false,
            Canonical::Multiset(want) => {
                encoded.sort_unstable();
                &encoded == want
            }
            Canonical::TopK {
                top_keys,
                candidates,
            } => {
                let keys: Option<Vec<i64>> =
                    encoded.iter().map(|e| candidates.get(e).copied()).collect();
                encoded.sort_unstable();
                encoded.dedup();
                keys.as_ref() == Some(top_keys) && encoded.len() == top_keys.len()
            }
        }
    }

    /// Whether a raw wire response is a correct answer.
    pub fn accepts_payload(&self, raw: &[u8]) -> bool {
        if raw == self.payload {
            return true;
        }
        match Response::decode(raw) {
            Ok(Response::Rows { columns, rows }) => {
                columns == self.columns && self.accepts_canonically(&rows)
            }
            _ => false,
        }
    }

    /// Whether an in-process result is a correct answer.
    pub fn accepts_rows(&self, rows: &[AnnotatedTuple]) -> bool {
        rows == self.rows
            || self.accepts_canonically(&rows.iter().map(WireRow::from_tuple).collect::<Vec<_>>())
    }
}
