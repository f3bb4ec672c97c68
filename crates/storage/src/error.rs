//! Error type shared by all storage-layer modules.

use std::fmt;

/// Errors produced by the storage substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// A record was larger than a page can hold.
    RecordTooLarge { size: usize, max: usize },
    /// A page id referenced a page that does not exist (or was freed).
    PageNotFound(u32),
    /// A record id referenced a slot that does not exist or was deleted.
    RecordNotFound { page: u32, slot: u16 },
    /// A table name or id was not present in the catalog.
    TableNotFound(String),
    /// A table with this name already exists.
    TableExists(String),
    /// A tuple did not match the schema it was inserted under.
    SchemaMismatch(String),
    /// An OID lookup failed.
    OidNotFound(u64),
    /// Tuple bytes could not be decoded.
    Corrupt(String),
    /// A B-Tree delete did not find the (key, value) pair.
    KeyNotFound,
    /// The simulated process was killed by the fault injector; every durable
    /// write from this point on is dropped (see [`crate::wal::FaultInjector`]).
    Crashed,
    /// A log force named a position past the last record appended.
    LsnPastTail { lsn: u64, tail: u64 },
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::RecordTooLarge { size, max } => {
                write!(f, "record of {size} bytes exceeds page capacity {max}")
            }
            StorageError::PageNotFound(p) => write!(f, "page {p} not found"),
            StorageError::RecordNotFound { page, slot } => {
                write!(f, "record not found at page {page} slot {slot}")
            }
            StorageError::TableNotFound(n) => write!(f, "table not found: {n}"),
            StorageError::TableExists(n) => write!(f, "table already exists: {n}"),
            StorageError::SchemaMismatch(m) => write!(f, "schema mismatch: {m}"),
            StorageError::OidNotFound(o) => write!(f, "oid {o} not found"),
            StorageError::Corrupt(m) => write!(f, "corrupt record: {m}"),
            StorageError::KeyNotFound => write!(f, "key/value pair not found in index"),
            StorageError::Crashed => write!(f, "simulated crash: durable write dropped"),
            StorageError::LsnPastTail { lsn, tail } => {
                write!(f, "log force to {lsn} past the appended tail {tail}")
            }
        }
    }
}

impl std::error::Error for StorageError {}

impl From<crate::codec::CodecError> for StorageError {
    fn from(e: crate::codec::CodecError) -> Self {
        StorageError::Corrupt(e.to_string())
    }
}
