//! Property test: [`Database::restore`] over corrupted dumps.
//!
//! The dump carries a CRC-32 trailer, so *any* truncation or bit flip must
//! be rejected up front as [`CoreError::Corrupt`] — never a panic, never a
//! silently wrong database. This is the contract crash recovery leans on:
//! a half-written snapshot is detected, not replayed over. The trailer is a
//! checksum, not a MAC, so the parser behind it is held to the same
//! contract on bytes whose checksum was made right again.

use instn_core::db::Database;
use instn_core::CoreError;
use proptest::prelude::*;

#[path = "fixture/dump.rs"]
mod fixture;
use fixture::build_dump;

proptest! {
    #[test]
    fn truncated_dump_is_rejected_not_panicking(cut in 0usize..4096) {
        let dump = build_dump();
        let cut = cut % dump.len(); // strictly shorter: full length is the intact dump
        let err = Database::restore(&dump[..cut]).unwrap_err();
        prop_assert!(
            matches!(err, CoreError::Corrupt(_)),
            "truncation at {cut} must surface as Corrupt, got {err:?}"
        );
    }

    #[test]
    fn bit_flipped_dump_is_rejected_not_panicking(pos in 0usize..4096, bit in 0u8..8) {
        let mut dump = build_dump();
        let len = dump.len();
        dump[pos % len] ^= 1 << bit;
        let err = Database::restore(&dump).unwrap_err();
        prop_assert!(
            matches!(err, CoreError::Corrupt(_)),
            "bit flip at byte {} bit {bit} must surface as Corrupt, got {err:?}",
            pos % len
        );
    }

    /// Past the trailer: a flipped bit with the checksum made right again
    /// reaches the parser, which restores something or names the dump
    /// corrupt — it never panics and never reserves what the bytes do not
    /// hold.
    #[test]
    fn resealed_bit_flips_restore_or_are_corrupt(pos in 0usize..4096, bit in 0u8..8) {
        let mut dump = build_dump();
        let body = dump.len() - 4;
        dump[pos % body] ^= 1 << bit;
        let crc = instn_storage::crc32(&dump[..body]);
        dump[body..].copy_from_slice(&crc.to_le_bytes());
        match Database::restore(&dump) {
            Ok(_) | Err(CoreError::Corrupt(_)) => {}
            Err(other) => prop_assert!(false, "flip at byte {} bit {bit}: {other:?}", pos % body),
        }
    }
}

#[test]
fn intact_dump_still_restores() {
    let dump = build_dump();
    let db = Database::restore(&dump).unwrap();
    assert_eq!(db.dump().unwrap(), dump);
}
