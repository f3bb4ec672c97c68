//! # instn-index
//!
//! Summary-based indexing (§4 of the paper).
//!
//! * [`itemize`] — converts a Classifier object's `(classLabel,
//!   annotationCnt)` pairs into order-preserving text keys of the form
//!   `"Label:007"` (the *Itemization* step of §4.1.1), with the automatic
//!   key-width growth footnote 1 describes,
//! * [`summary_btree`] — the **Summary-BTree**: a B-Tree over the itemized
//!   keys whose leaf entries carry *backward pointers* straight to the
//!   annotated data tuples in the user relation (not to the
//!   `R_SummaryStorage` row), maintained incrementally from the
//!   [`instn_core::SummaryDelta`] stream,
//! * [`baseline`] — the **baseline scheme** the paper compares against: the
//!   classifier objects are replicated into a normalized table
//!   `(OID, Label, Count, DerivedCol)` and a standard B-Tree is built on the
//!   derived column; reaching a data tuple then costs extra joins, and
//!   propagating summaries from this normalized form costs a rebuild.

pub mod baseline;
pub mod itemize;
pub mod maintainable;
pub mod summary_btree;

pub use baseline::BaselineIndex;
pub use itemize::{itemize_key, max_key, min_key, ItemizeWidth};
pub use maintainable::{EntryOutcome, MaintainableIndex};
pub use summary_btree::{EntryCursor, IndexEntry, PointerMode, SummaryBTree};
