//! Attachment descriptors: what part of a tuple an annotation covers.
//!
//! Per the paper's introduction, annotations attach to "single table cells
//! (attributes), rows, columns, arbitrary sets and combinations of them".
//! Within one tuple that reduces to: the whole row, or a set of its columns.
//! One annotation may carry attachments on *several* tuples (possibly in
//! different tables) — the case the summary-merge procedure must de-duplicate
//! (paper Fig. 3, step 3).

use instn_storage::Oid;

/// The columns of one tuple covered by an attachment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ColumnSet {
    /// Row-level attachment: the annotation describes the tuple as a whole
    /// and survives any projection of its columns.
    Row,
    /// Cell-level attachment over a set of column indexes (bitmask over the
    /// first 64 columns, plenty for the 12-attribute Birds table).
    Cells(u64),
}

impl ColumnSet {
    /// Cell attachment over the given column indexes.
    pub fn cells(cols: &[usize]) -> ColumnSet {
        let mut mask = 0u64;
        for &c in cols {
            assert!(c < 64, "column index {c} out of supported range");
            mask |= 1 << c;
        }
        ColumnSet::Cells(mask)
    }

    /// Whether this attachment covers column `col`.
    pub fn covers(&self, col: usize) -> bool {
        match self {
            ColumnSet::Row => true,
            ColumnSet::Cells(mask) => col < 64 && (mask >> col) & 1 == 1,
        }
    }

    /// Whether the attachment survives a projection keeping `kept` columns.
    ///
    /// Row attachments always survive; cell attachments survive iff at least
    /// one covered column is kept (paper Fig. 3: projecting out `r.c`, `r.d`
    /// "eliminates the effect of their annotations").
    pub fn survives_projection(&self, kept: &[usize]) -> bool {
        match self {
            ColumnSet::Row => true,
            ColumnSet::Cells(mask) => kept.iter().any(|&c| c < 64 && (mask >> c) & 1 == 1),
        }
    }

    /// The columns either set covers: with a row attachment, the row.
    pub(crate) fn union(&self, other: &ColumnSet) -> ColumnSet {
        match (self, other) {
            (ColumnSet::Cells(a), ColumnSet::Cells(b)) => ColumnSet::Cells(a | b),
            _ => ColumnSet::Row,
        }
    }

    /// Columns covered by this set (empty for row-level).
    pub fn columns(&self) -> Vec<usize> {
        match self {
            ColumnSet::Row => Vec::new(),
            ColumnSet::Cells(mask) => (0..64).filter(|c| (mask >> c) & 1 == 1).collect(),
        }
    }
}

/// One attachment of an annotation: a tuple plus the columns covered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attachment {
    /// The annotated tuple.
    pub oid: Oid,
    /// The covered columns.
    pub columns: ColumnSet,
}

impl Attachment {
    /// Row-level attachment.
    pub fn row(oid: Oid) -> Self {
        Self {
            oid,
            columns: ColumnSet::Row,
        }
    }

    /// Cell-level attachment.
    pub fn cells(oid: Oid, cols: &[usize]) -> Self {
        Self {
            oid,
            columns: ColumnSet::cells(cols),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_mask_covers_exactly() {
        let cs = ColumnSet::cells(&[0, 3, 11]);
        assert!(cs.covers(0));
        assert!(cs.covers(3));
        assert!(cs.covers(11));
        assert!(!cs.covers(1));
        assert!(!cs.covers(12));
        assert_eq!(cs.columns(), vec![0, 3, 11]);
    }

    #[test]
    fn row_covers_everything_and_survives() {
        let r = ColumnSet::Row;
        assert!(r.covers(0));
        assert!(r.covers(63));
        assert!(r.survives_projection(&[]));
        assert!(r.survives_projection(&[5]));
    }

    #[test]
    fn projection_survival_matches_fig3() {
        // Annotation on columns {2, 3} (r.c, r.d); projection keeps {0, 1}.
        let cs = ColumnSet::cells(&[2, 3]);
        assert!(!cs.survives_projection(&[0, 1]));
        // Keeping one covered column is enough.
        assert!(cs.survives_projection(&[1, 3]));
    }

    #[test]
    #[should_panic(expected = "out of supported range")]
    fn oversized_column_panics() {
        ColumnSet::cells(&[64]);
    }
}
