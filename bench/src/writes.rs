//! `embedded_rw`'s write stream: a seeded sequence of mutations and the one
//! function that applies them, shared by the timed and the traced pass.

use std::collections::VecDeque;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use instn_annot::{text, AnnotId, Attachment, Category};
use instn_core::db::Database;
use instn_storage::{Oid, TableId, Value};

use crate::corpus::{bird_row, sample_category};

/// The writer's open-loop rate.
pub const WRITES_PER_S: u64 = 200;
/// A `checkpoint()` follows every this many writes.
pub const CHECKPOINT_EVERY: usize = 2_048;

/// The four kinds of write, in the order per-kind tallies are indexed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteKind {
    AddShort,
    AddLong,
    Delete,
    Update,
}

pub enum WriteOp {
    /// `add_annotation`; a body over 1 000 chars takes the snippet path.
    Add {
        kind: WriteKind,
        bird: usize,
        category: Category,
        body: String,
    },
    /// `delete_annotation` of the oldest annotation this stream added.
    Delete,
    /// `update_tuple` with fresh measurements (the key column is kept).
    Update { bird: usize, row: Vec<Value> },
}

impl WriteOp {
    pub fn kind(&self) -> WriteKind {
        match self {
            WriteOp::Add { kind, .. } => *kind,
            WriteOp::Delete => WriteKind::Delete,
            WriteOp::Update { .. } => WriteKind::Update,
        }
    }

    /// Bytes of user data the operation hands to the engine.
    pub fn user_bytes(&self) -> u64 {
        match self {
            WriteOp::Add { body, .. } => body.len() as u64,
            WriteOp::Delete => 0,
            WriteOp::Update { row, .. } => row
                .iter()
                .map(|v| match v {
                    Value::Text(s) => s.len() as u64,
                    _ => 8,
                })
                .sum(),
        }
    }
}

/// `n` operations: 70 % short annotation, 10 % long, 10 % delete, 10 %
/// tuple update. A delete drawn while nothing of the stream's own is left
/// to delete becomes a short add, so no operation can fail.
pub fn write_stream(seed: u64, n: usize, birds: usize) -> Vec<WriteOp> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x77_1173);
    let mut live = 0usize;
    (0..n)
        .map(|_| {
            let bird = rng.random_range(0..birds);
            let draw = rng.random_range(0..10u32);
            match draw {
                8 if live > 0 => {
                    live -= 1;
                    WriteOp::Delete
                }
                9 => WriteOp::Update {
                    bird,
                    row: bird_row(bird, &mut rng),
                },
                _ => {
                    live += 1;
                    let (kind, len) = if draw == 7 {
                        (WriteKind::AddLong, rng.random_range(1_000..2_400))
                    } else {
                        (WriteKind::AddShort, rng.random_range(80..400))
                    };
                    let category = sample_category(&mut rng);
                    WriteOp::Add {
                        kind,
                        bird,
                        category,
                        body: text::generate(&mut rng, category, len),
                    }
                }
            }
        })
        .collect()
}

/// Apply one operation through the public mutators. `added` is the FIFO of
/// annotations the stream has added and not yet deleted.
pub fn apply(
    db: &mut Database,
    birds: TableId,
    bird_oids: &[Oid],
    added: &mut VecDeque<AnnotId>,
    op: &WriteOp,
) -> instn_core::Result<()> {
    match op {
        WriteOp::Add {
            bird,
            category,
            body,
            ..
        } => {
            let (id, _) = db.add_annotation(
                birds,
                body,
                *category,
                "writer",
                vec![Attachment::row(bird_oids[*bird])],
            )?;
            added.push_back(id);
        }
        WriteOp::Delete => {
            let id = added.pop_front().expect("stream never deletes from empty");
            db.delete_annotation(id)?;
        }
        WriteOp::Update { bird, row } => {
            db.update_tuple(birds, bird_oids[*bird], row.clone())?;
        }
    }
    Ok(())
}
