//! Extension — crash-recovery sweep. Not in the paper; it validates the
//! WAL + checkpoint + recovery subsystem end to end: every durable-write
//! event between the checkpoint and the end of a mixed DML/annotation
//! workload becomes a crash point (killed cleanly and with a torn final
//! WAL write), and recovery from {snapshot, durable log prefix} must land
//! bit-exactly on the logical dump of some step boundary.

use std::sync::Arc;
use std::time::Instant;

use instn_annot::{Attachment, Category};
use instn_bench::workloads::{fmt_bytes, fmt_dur};
use instn_index::{PointerMode, SummaryBTree};
use instn_storage::{crc32, FaultInjector};

use crate::{header, write_artifact, Args};

const RECOVERY_STEPS: usize = 40;
const RECOVERY_CACHE_PAGES: usize = 2;

fn recovery_base() -> (
    instn_core::db::Database,
    instn_storage::TableId,
    Vec<instn_storage::Oid>,
) {
    use instn_core::instance::InstanceKind;
    use instn_mining::nb::NaiveBayes;
    let mut db = instn_core::db::Database::new();
    db.set_cache_capacity(RECOVERY_CACHE_PAGES);
    let t = db
        .create_table(
            "Birds",
            instn_storage::Schema::of(&[
                ("name", instn_storage::ColumnType::Text),
                ("weight", instn_storage::ColumnType::Float),
            ]),
        )
        .unwrap();
    let mut base = Vec::new();
    for i in 0..24u32 {
        base.push(
            db.insert_tuple(
                t,
                vec![
                    instn_storage::Value::Text(format!("bird-{i}")),
                    instn_storage::Value::Float(f64::from(i) * 3.25),
                ],
            )
            .unwrap(),
        );
    }
    let mut model = NaiveBayes::new(vec!["Disease".into(), "Behavior".into()]);
    model.train("disease outbreak infection virus sick", "Disease");
    model.train("eating foraging migration song nest", "Behavior");
    db.link_instance(t, "Cls", InstanceKind::Classifier { model }, true)
        .unwrap();
    (db, t, base)
}

/// One deterministic, always-succeeding step (one WAL transaction).
/// Annotations target only the never-deleted base tuples; delete steps only
/// consume tuples inserted by earlier steps, so no step can dangle.
fn recovery_step(
    db: &mut instn_core::db::Database,
    t: instn_storage::TableId,
    base: &[instn_storage::Oid],
    extra: &mut Vec<instn_storage::Oid>,
    aids: &mut Vec<instn_annot::AnnotId>,
    i: usize,
) -> instn_core::Result<()> {
    use instn_storage::Value;
    let disease = "signs of disease outbreak and infection";
    let behavior = "eating steadily and foraging near the nest";
    match i % 8 {
        0 => {
            let oid = db.insert_tuple(
                t,
                vec![Value::Text(format!("extra-{i}")), Value::Float(i as f64)],
            )?;
            extra.push(oid);
        }
        1 => {
            let (id, _) = db.add_annotation(
                t,
                disease,
                Category::Disease,
                "ann",
                vec![Attachment::row(base[i % base.len()])],
            )?;
            aids.push(id);
        }
        2 => {
            let (id, _) = db.add_annotation(
                t,
                behavior,
                Category::Behavior,
                "bob",
                vec![
                    Attachment::row(base[(i * 3) % base.len()]),
                    Attachment::cells(base[(i * 5) % base.len()], &[1]),
                ],
            )?;
            aids.push(id);
        }
        3 => {
            db.update_tuple(
                t,
                base[(i * 7) % base.len()],
                vec![
                    Value::Text(format!("renamed-at-step-{i} with some growth")),
                    Value::Float(i as f64 * 0.5),
                ],
            )?;
        }
        4 => {
            db.bump_revision();
        }
        5 => {
            if aids.is_empty() {
                let (id, _) = db.add_annotation(
                    t,
                    disease,
                    Category::Disease,
                    "cat",
                    vec![Attachment::row(base[0])],
                )?;
                aids.push(id);
            } else {
                db.attach_annotation(
                    t,
                    aids[aids.len() - 1],
                    vec![Attachment::row(base[(i * 11) % base.len()])],
                )?;
            }
        }
        6 => {
            if aids.len() > 2 {
                db.delete_annotation(aids.remove(0))?;
            } else {
                let (id, _) = db.add_annotation(
                    t,
                    behavior,
                    Category::Behavior,
                    "dan",
                    vec![Attachment::row(base[(i * 13) % base.len()])],
                )?;
                aids.push(id);
            }
        }
        _ => {
            if let Some(oid) = extra.pop() {
                db.delete_tuple(t, oid)?;
            } else {
                db.bump_revision();
            }
        }
    }
    Ok(())
}

pub(crate) fn recovery(args: &Args) {
    header("Extension — crash-recovery sweep: WAL + checkpoint + replay");

    // Golden run: digest of the logical dump after the checkpoint and
    // after each step (mid-run dumps perturb eviction order, so events are
    // counted in a separate run below).
    let (mut db, t, base) = recovery_base();
    db.enable_wal();
    let snapshot = db.checkpoint().unwrap();
    let mut digests = vec![crc32(&snapshot)];
    let (mut extra, mut aids) = (Vec::new(), Vec::new());
    for i in 0..RECOVERY_STEPS {
        recovery_step(&mut db, t, &base, &mut extra, &mut aids, i).unwrap();
        digests.push(crc32(&db.dump().unwrap()));
    }

    // Event budget: same workload, unarmed injector, no mid-run dumps.
    let fault = FaultInjector::new();
    let (mut db, t, base) = recovery_base();
    db.enable_wal_with_faults(Arc::clone(&fault));
    db.checkpoint().unwrap();
    let ckpt_events = fault.events();
    let (mut extra, mut aids) = (Vec::new(), Vec::new());
    for i in 0..RECOVERY_STEPS {
        recovery_step(&mut db, t, &base, &mut extra, &mut aids, i).unwrap();
    }
    let total_events = fault.events();
    let wal_high_water = db.wal().unwrap().durable_len();
    assert_eq!(
        crc32(&db.dump().unwrap()),
        *digests.last().unwrap(),
        "workload must be deterministic across runs"
    );
    let span = total_events - ckpt_events;
    let stride = if args.quick {
        span.div_ceil(8).max(1)
    } else {
        1
    };
    println!(
        "{RECOVERY_STEPS} steps, cache {RECOVERY_CACHE_PAGES} pages; events: checkpoint {ckpt_events}, \
         workload +{span}; wal high water {}; stride {stride}",
        fmt_bytes(wal_high_water as usize)
    );
    println!(
        "{:>7} {:>6} {:>9} {:>10} {:>10} {:>10} {:>9}",
        "event", "torn", "replayed", "discarded", "tail B", "wal B", "recover"
    );

    let mut json_rows = Vec::new();
    let mut points = 0usize;
    let mut crash_at = ckpt_events + 1;
    while crash_at <= total_events {
        for torn in [false, true] {
            let fault = FaultInjector::new();
            let (mut db, t, base) = recovery_base();
            db.enable_wal_with_faults(Arc::clone(&fault));
            db.checkpoint().unwrap();
            fault.arm(crash_at, torn);
            let (mut extra, mut aids) = (Vec::new(), Vec::new());
            let mut failed = false;
            for i in 0..RECOVERY_STEPS {
                if recovery_step(&mut db, t, &base, &mut extra, &mut aids, i).is_err() {
                    failed = true;
                    break;
                }
            }
            assert!(failed, "crash at event {crash_at} never fired");
            let wal_bytes = db.wal().unwrap().durable_bytes();
            let start = Instant::now();
            let (recovered, report) = instn_core::db::Database::recover(&snapshot, &wal_bytes)
                .unwrap_or_else(|e| panic!("recovery failed at event {crash_at}: {e}"));
            let wall = start.elapsed();
            let digest = crc32(&recovered.dump().unwrap());
            assert_eq!(
                digest, digests[report.ops_replayed as usize],
                "crash at event {crash_at} (torn={torn}): recovered state is \
                 not the step-{} golden state",
                report.ops_replayed
            );
            println!(
                "{:>7} {:>6} {:>9} {:>10} {:>10} {:>10} {:>9}",
                crash_at,
                torn,
                report.ops_replayed,
                report.ops_discarded,
                report.torn_tail_bytes,
                wal_bytes.len(),
                fmt_dur(wall)
            );
            json_rows.push(format!(
                "  {{\"event\": {}, \"torn\": {}, \"ops_replayed\": {}, \
                 \"ops_discarded\": {}, \"torn_tail_bytes\": {}, \
                 \"wal_bytes\": {}, \"recover_us\": {}}}",
                crash_at,
                torn,
                report.ops_replayed,
                report.ops_discarded,
                report.torn_tail_bytes,
                wal_bytes.len(),
                wall.as_micros()
            ));
            points += 1;
        }
        crash_at += stride;
    }

    // Full-log replay sanity: the index over the recovered database agrees
    // with itself across pointer modes.
    let wal_bytes = db.wal().unwrap().durable_bytes();
    let (recovered, report) = instn_core::db::Database::recover(&snapshot, &wal_bytes).unwrap();
    assert_eq!(report.ops_replayed as usize, RECOVERY_STEPS);
    let back = SummaryBTree::bulk_build(&recovered, t, "Cls", PointerMode::Backward).unwrap();
    let conv = SummaryBTree::bulk_build(&recovered, t, "Cls", PointerMode::Conventional).unwrap();
    for label in ["Disease", "Behavior"] {
        let b = back.scan_label(label);
        assert_eq!(
            b,
            conv.scan_label(label),
            "pointer modes disagree on {label}"
        );
        for e in &b {
            assert_eq!(
                back.fetch_data_tuple(&recovered, e).unwrap(),
                recovered.table(t).unwrap().get(e.oid).unwrap(),
                "stale backward pointer after recovery"
            );
        }
    }
    println!("{points} crash points verified; full-log replay indexes consistently");

    let json = format!(
        "{{\"experiment\": \"recovery\", \"steps\": {RECOVERY_STEPS}, \
         \"cache_pages\": {RECOVERY_CACHE_PAGES}, \"ckpt_events\": {ckpt_events}, \
         \"total_events\": {total_events}, \"stride\": {stride}, \
         \"snapshot_bytes\": {}, \"rows\": [\n{}\n]}}\n",
        snapshot.len(),
        json_rows.join(",\n")
    );
    write_artifact("BENCH_recovery.json", &json);
    println!();
}
