//! Deterministic crash-recovery sweep.
//!
//! A fixed workload of top-level mutations runs against a WAL-enabled
//! database with a small buffer pool (so dirty evictions interleave with
//! commits). A golden run records the logical dump digest after every step.
//! Then, for every durable-write event between the checkpoint and the end
//! of the workload — WAL forces and page write-backs alike — the workload
//! is re-run with the fault injector armed to kill the "process" at that
//! event (once cleanly, once with a torn half-write of the final WAL
//! chunk). Recovery from the checkpoint snapshot plus the durable log
//! prefix must land exactly on the digest of some step boundary: a
//! consistent pre- or post-commit state, never a torn mix. On top of the
//! structural diff, a Summary-BTree is rebuilt over the recovered database
//! in both pointer modes and cross-checked entry by entry.

use instn_annot::{AnnotId, Attachment, Category};
use instn_core::db::Database;
use instn_core::instance::InstanceKind;
use instn_core::CoreError;
use instn_index::summary_btree::{PointerMode, SummaryBTree};
use instn_mining::nb::NaiveBayes;
use instn_storage::{crc32, ColumnType, FaultInjector, Oid, Schema, TableId, Value};
use std::sync::Arc;

// Small enough that the workload's working set does not fit: dirty
// evictions (page write-backs, each forcing the log first) interleave with
// commit forces, so the sweep covers both kinds of durable-write event.
const CACHE_PAGES: usize = 2;

fn classifier_kind() -> InstanceKind {
    let mut model = NaiveBayes::new(vec!["Disease".into(), "Behavior".into()]);
    model.train("disease outbreak infection virus sick", "Disease");
    model.train("eating foraging migration song nest", "Behavior");
    InstanceKind::Classifier { model }
}

/// Base state built *before* the checkpoint: a table, a dozen tuples, and
/// one indexable classifier instance.
fn build_base() -> (Database, TableId, Vec<Oid>) {
    let mut db = Database::new();
    db.set_cache_capacity(CACHE_PAGES);
    let t = db
        .create_table(
            "Birds",
            Schema::of(&[("name", ColumnType::Text), ("weight", ColumnType::Float)]),
        )
        .unwrap();
    let mut oids = Vec::new();
    for i in 0..12u32 {
        oids.push(
            db.insert_tuple(
                t,
                vec![
                    Value::Text(format!("bird-{i}")),
                    Value::Float(f64::from(i) * 7.5),
                ],
            )
            .unwrap(),
        );
    }
    db.link_instance(t, "Cls", classifier_kind(), true).unwrap();
    (db, t, oids)
}

const N_STEPS: usize = 22;

/// One deterministic top-level mutation per step. Every step is exactly one
/// WAL transaction (op + commit), so the golden digest after step `j`
/// corresponds to `ops_replayed == j` at recovery.
fn apply_step(
    db: &mut Database,
    t: TableId,
    oids: &mut Vec<Oid>,
    aids: &mut Vec<AnnotId>,
    i: usize,
) -> instn_core::Result<()> {
    let disease = "signs of disease outbreak and infection";
    let behavior = "eating steadily and foraging near the nest";
    match i {
        0..=3 => {
            let (id, _) = db.add_annotation(
                t,
                disease,
                Category::Disease,
                "ann",
                vec![Attachment::row(oids[i])],
            )?;
            aids.push(id);
        }
        4..=7 => {
            let (id, _) = db.add_annotation(
                t,
                behavior,
                Category::Behavior,
                "bob",
                vec![
                    Attachment::row(oids[i]),
                    Attachment::cells(oids[i - 4], &[1]),
                ],
            )?;
            aids.push(id);
        }
        8 => {
            db.bump_revision()?;
        }
        9 => {
            let oid = db.insert_tuple(
                t,
                vec![Value::Text("late-arrival".into()), Value::Float(123.0)],
            )?;
            oids.push(oid);
        }
        10 => {
            db.update_tuple(
                t,
                oids[0],
                vec![
                    Value::Text("bird-0 after a much longer rename".into()),
                    Value::Float(1.5),
                ],
            )?;
        }
        11 => {
            let (id, _) = db.add_annotation(
                t,
                disease,
                Category::Disease,
                "ann",
                vec![Attachment::row(oids[12])],
            )?;
            aids.push(id);
        }
        12 => {
            db.attach_annotation(t, aids[0], vec![Attachment::row(oids[5])])?;
        }
        13 => {
            db.delete_annotation(aids[1])?;
        }
        14 => {
            db.delete_tuple(t, oids[3])?;
        }
        15 => {
            db.link_instance(
                t,
                "Snip",
                InstanceKind::Snippet {
                    min_chars: 8,
                    max_chars: 40,
                },
                false,
            )?;
        }
        16 => {
            let (id, _) = db.add_annotation(
                t,
                behavior,
                Category::Behavior,
                "cat",
                vec![Attachment::row(oids[6])],
            )?;
            aids.push(id);
        }
        17 => {
            db.drop_instance(t, "Snip")?;
        }
        18 => {
            db.bump_revision()?;
        }
        19 => {
            db.update_tuple(
                t,
                oids[9],
                vec![Value::Text("renamed".into()), Value::Float(9.0)],
            )?;
        }
        20 => {
            db.delete_annotation(aids[2])?;
        }
        21 => {
            let (id, _) = db.add_annotation(
                t,
                disease,
                Category::Disease,
                "ann",
                vec![Attachment::row(oids[10]), Attachment::row(oids[11])],
            )?;
            aids.push(id);
        }
        _ => unreachable!("step {i} out of range"),
    }
    Ok(())
}

/// Rebuild Summary-BTrees over the recovered database in both pointer modes
/// and cross-check them entry by entry: the backward pointer must land on
/// the same data tuple and summary set the conventional path reaches.
fn check_index_consistency(db: &Database, t: TableId) {
    let back = SummaryBTree::bulk_build(db, t, "Cls", PointerMode::Backward).unwrap();
    let conv = SummaryBTree::bulk_build(db, t, "Cls", PointerMode::Conventional).unwrap();
    for label in ["Disease", "Behavior"] {
        let b = back.scan_label(label);
        let c = conv.scan_label(label);
        assert_eq!(b, c, "pointer modes disagree on label {label}");
        for (be, ce) in b.iter().zip(c.iter()) {
            let direct = db.table(t).unwrap().get(be.oid).unwrap();
            assert_eq!(
                back.fetch_data_tuple(db, be).unwrap(),
                direct,
                "stale backward pointer for {:?}",
                be.oid
            );
            assert_eq!(conv.fetch_data_tuple(db, ce).unwrap(), direct);
            assert_eq!(
                back.fetch_summaries(db, be).unwrap(),
                conv.fetch_summaries(db, ce).unwrap(),
                "summary sets diverge for {:?}",
                be.oid
            );
        }
    }
}

/// Golden digests: dump CRC after the checkpoint and after each step.
fn golden_digests() -> (Vec<u8>, Vec<u32>) {
    let (mut db, t, mut oids) = build_base();
    db.enable_wal();
    let snapshot = db.checkpoint().unwrap();
    let mut digests = vec![crc32(&snapshot)];
    let mut aids = Vec::new();
    for i in 0..N_STEPS {
        apply_step(&mut db, t, &mut oids, &mut aids, i).unwrap();
        digests.push(crc32(&db.dump().unwrap()));
    }
    (snapshot, digests)
}

/// Event budget: run the workload once with an unarmed injector (no
/// mid-workload dumps, which would perturb eviction order) and count the
/// durable-write events between checkpoint and completion.
fn event_budget() -> (u64, u64, u32) {
    let fault = FaultInjector::new();
    let (mut db, t, mut oids) = build_base();
    db.enable_wal_with_faults(Arc::clone(&fault));
    db.checkpoint().unwrap();
    let ckpt_events = fault.events();
    let mut aids = Vec::new();
    for i in 0..N_STEPS {
        apply_step(&mut db, t, &mut oids, &mut aids, i).unwrap();
    }
    (ckpt_events, fault.events(), crc32(&db.dump().unwrap()))
}

fn run_crash_point(snapshot: &[u8], digests: &[u32], crash_at: u64, torn: bool) {
    let fault = FaultInjector::new();
    let (mut db, t, mut oids) = build_base();
    db.enable_wal_with_faults(Arc::clone(&fault));
    db.checkpoint().unwrap();
    fault.arm(crash_at, torn);
    let mut aids = Vec::new();
    let mut failed = false;
    for i in 0..N_STEPS {
        if apply_step(&mut db, t, &mut oids, &mut aids, i).is_err() {
            failed = true;
            break;
        }
    }
    assert!(
        failed,
        "event {crash_at} (torn={torn}) never fired: workload completed"
    );
    assert!(fault.crashed(), "workload failed without a latched crash");

    let wal_bytes = db.wal().unwrap().durable_bytes();
    let (recovered, report) = Database::recover(snapshot, &wal_bytes)
        .unwrap_or_else(|e| panic!("recovery failed at event {crash_at} (torn={torn}): {e}"));
    let replayed = report.ops_replayed as usize;
    assert!(
        replayed <= N_STEPS,
        "replayed {replayed} ops from a {N_STEPS}-step workload"
    );
    let digest = crc32(&recovered.dump().unwrap());
    assert_eq!(
        digest, digests[replayed],
        "crash at event {crash_at} (torn={torn}): recovered state diverges \
         from the step-{replayed} golden state (discarded {}, torn tail {})",
        report.ops_discarded, report.torn_tail_bytes
    );
    check_index_consistency(&recovered, t);
}

#[test]
fn workload_digests_are_deterministic() {
    let (_, digests_a) = golden_digests();
    let (_, digests_b) = golden_digests();
    assert_eq!(digests_a, digests_b);
    let (_, _, final_digest) = event_budget();
    assert_eq!(
        *digests_a.last().unwrap(),
        final_digest,
        "dump digest depends on whether mid-workload dumps were taken"
    );
}

#[test]
fn recovery_without_crash_replays_everything() {
    let (snapshot, digests) = golden_digests();
    let fault = FaultInjector::new();
    let (mut db, t, mut oids) = build_base();
    db.enable_wal_with_faults(Arc::clone(&fault));
    db.checkpoint().unwrap();
    let mut aids = Vec::new();
    for i in 0..N_STEPS {
        apply_step(&mut db, t, &mut oids, &mut aids, i).unwrap();
    }
    let wal_bytes = db.wal().unwrap().durable_bytes();
    let (recovered, report) = Database::recover(&snapshot, &wal_bytes).unwrap();
    assert_eq!(report.ops_replayed as usize, N_STEPS);
    assert_eq!(report.ops_discarded, 0);
    assert_eq!(report.torn_tail_bytes, 0);
    assert_eq!(crc32(&recovered.dump().unwrap()), *digests.last().unwrap());
    check_index_consistency(&recovered, t);
}

#[test]
fn crash_sweep_every_event_clean_and_torn() {
    let (snapshot, digests) = golden_digests();
    let (ckpt_events, total_events, _) = event_budget();
    assert!(
        total_events > ckpt_events + N_STEPS as u64,
        "expected page write-backs beyond the {N_STEPS} commit forces \
         (ckpt {ckpt_events}, total {total_events}): cache too large?"
    );
    for crash_at in (ckpt_events + 1)..=total_events {
        run_crash_point(&snapshot, &digests, crash_at, false);
        run_crash_point(&snapshot, &digests, crash_at, true);
    }
}

#[test]
fn recover_rejects_log_from_other_snapshot() {
    let (snapshot, _) = golden_digests();
    let (mut db, t, mut oids) = build_base();
    db.enable_wal();
    let _ = db.checkpoint().unwrap();
    let mut aids = Vec::new();
    apply_step(&mut db, t, &mut oids, &mut aids, 0).unwrap();
    // This run's checkpoint bound its log to ITS snapshot; pairing the log
    // with the golden snapshot (different pre-WAL history is impossible
    // here, so tamper with the snapshot instead) must be rejected.
    let mut tampered = snapshot.clone();
    let n = tampered.len();
    tampered[n - 1] ^= 0x01; // break the CRC trailer
    let wal_bytes = db.wal().unwrap().durable_bytes();
    assert!(matches!(
        Database::recover(&tampered, &wal_bytes),
        Err(CoreError::Corrupt(_))
    ));
}
