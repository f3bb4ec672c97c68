//! Property test: the table-driven CRC-32 against the bitwise loop it
//! replaced, kept here verbatim as the reference.
//!
//! Snapshot trailers, checkpoint heads and every log record are checked with
//! [`crc32`], so its output may not change by a bit: on any bytes at any
//! start offset (the table loop walks 16-byte blocks, so where a slice starts
//! and ends decides which bytes take the block path and which the byte
//! tail), fed whole or in pieces through [`Crc32`], and inside the log record
//! frame `Wal::append` writes.

use instn_storage::{crc32, Crc32, IoStats, Wal, WalRecordKind};
use proptest::prelude::*;

/// CRC-32 (IEEE 802.3, reflected), bitwise: the implementation every
/// existing snapshot and log was written with.
fn reference_crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// `bytes` placed `offset` bytes into a buffer, so the slice handed to the
/// CRC starts unaligned.
fn at_offset(bytes: &[u8], offset: usize) -> Vec<u8> {
    let mut buf = vec![0xA5; offset];
    buf.extend_from_slice(bytes);
    buf
}

proptest! {
    #[test]
    fn table_crc_matches_the_bitwise_loop(
        bytes in prop::collection::vec(any::<u8>(), 0..4_097),
        offset in 0usize..32,
    ) {
        let buf = at_offset(&bytes, offset);
        let slice = &buf[offset..];
        prop_assert_eq!(crc32(slice), reference_crc32(slice));
    }

    #[test]
    fn streamed_pieces_match_the_one_shot_crc(
        bytes in prop::collection::vec(any::<u8>(), 0..4_097),
        offset in 0usize..32,
        cuts in prop::collection::vec(any::<usize>(), 0..8),
    ) {
        let buf = at_offset(&bytes, offset);
        let slice = &buf[offset..];
        let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (slice.len() + 1)).collect();
        cuts.sort_unstable();
        let mut crc = Crc32::new();
        let mut from = 0;
        for cut in cuts.into_iter().chain([slice.len()]) {
            crc.update(&slice[from..cut]);
            from = cut;
        }
        prop_assert_eq!(crc.finish(), crc32(slice));
        prop_assert_eq!(crc.finish(), reference_crc32(slice));
    }

    /// A forced record is `[len][crc(kind ‖ payload)][kind][payload]`, its
    /// CRC the reference's, whatever the kind and payload.
    #[test]
    fn wal_records_keep_their_bytes(
        payload in prop::collection::vec(any::<u8>(), 0..600),
        kind in 0usize..4,
    ) {
        let (kind, tag) = [
            (WalRecordKind::Op, 1u8),
            (WalRecordKind::Commit, 2),
            (WalRecordKind::Checkpoint, 3),
            (WalRecordKind::Abort, 4),
        ][kind];
        let wal = Wal::new(IoStats::new());
        let lsn = wal.append(kind, &payload);
        wal.force(lsn).unwrap();
        let body = [&[tag][..], &payload].concat();
        let mut want = (payload.len() as u32).to_le_bytes().to_vec();
        want.extend_from_slice(&reference_crc32(&body).to_le_bytes());
        want.extend_from_slice(&body);
        prop_assert_eq!(wal.durable_bytes(), want);
    }
}
