//! Extension — incremental index maintenance. Not in the paper; it
//! validates the delta-journal refresh pipeline end to end. A mixed
//! read/write workload is swept across write fractions, and each point
//! runs twice over identical mutation streams: once with the delta
//! journal retained (stale indexes catch up by replaying their revision
//! gap) and once with retention forced to 0 (the journal truncates
//! immediately, so every stale index falls back to a bulk rebuild — the
//! old rebuild-on-stale behaviour). Both runs must serve bit-identical
//! result sets and end with indexes identical to fresh bulk builds; the
//! replayed run must spend ≥2× less physical refresh I/O at the 10%
//! write fraction.

use std::time::{Duration, Instant};

use instn_annot::{text, Attachment, Category};
use instn_bench::workloads::BenchConfig;
use instn_index::{BaselineIndex, PointerMode, SummaryBTree};
use instn_query::dataindex::ColumnIndex;
use instn_query::exec::{ExecContext, PhysicalPlan};
use instn_storage::Value;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::{build_indexes, header, write_artifact, Args};

/// Refresh-pass counters accumulated over one maintenance workload run.
#[derive(Default)]
struct MaintRun {
    refresh_phys: u64,
    refresh_logical: u64,
    replays: u64,
    rebuilds: u64,
    deltas: u64,
    writes: usize,
    reads: usize,
    wall: Duration,
}

/// Drive `ops` operations at write fraction `wf` against a fresh bench
/// database, refreshing a three-index registry (Summary-BTree + baseline
/// over ClassBird1 + data B-Tree on `id`) before every read. Returns the
/// accumulated refresh counters and a per-read digest stream
/// `(row_count, oid_checksum)` used to prove both modes serve the same
/// result sets.
fn maintenance_run(
    args: &Args,
    cfg: &BenchConfig,
    wf: f64,
    ops: usize,
    keep_journal: bool,
) -> (MaintRun, Vec<(usize, u64)>) {
    let mut b = args.bench_db(cfg);
    if !keep_journal {
        // Rebuild-on-stale baseline: nothing is retained, so any index
        // whose table moved past its built revision must bulk-rebuild.
        b.db.set_journal_retention(0);
    }
    let birds = b.birds;
    let mut registry = {
        let (sb, bl) = build_indexes(&b);
        let ci = ColumnIndex::build(&b.db, birds, 0).expect("table exists");
        let mut ctx = ExecContext::new(&b.db);
        ctx.register_summary_index("sb", sb);
        ctx.register_baseline_index("bl", bl);
        ctx.register_column_index(ci);
        ctx.take_registry()
    };

    let mut live = b.bird_oids.clone();
    let mut next_id = live.len() as i64;
    // Same seed in both modes: the mutation streams are bit-identical, so
    // any divergence in the digests is a maintenance bug, not noise.
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x4d41_494e);
    let mut run = MaintRun::default();
    let mut digests = Vec::new();
    let start = Instant::now();
    for i in 0..ops {
        // Writes land whenever `i * wf` crosses an integer: evenly spread,
        // deterministic, and exact for any fraction.
        let is_write = ((i + 1) as f64 * wf) as usize > (i as f64 * wf) as usize;
        if is_write {
            run.writes += 1;
            let pick = rng.random_range(0..live.len());
            if run.writes % 7 == 3 {
                let oid =
                    b.db.insert_tuple(
                        birds,
                        vec![
                            Value::Int(next_id),
                            Value::Text(format!("Genus nova{next_id}")),
                            Value::Text(format!("Bird {next_id}")),
                            Value::Text("Anser".into()),
                            Value::Text("Anatidae".into()),
                            Value::Text("wetland".into()),
                            Value::Text("d".repeat(120)),
                            Value::Text("nearctic".into()),
                            Value::Float(rng.random_range(20.0..250.0)),
                            Value::Float(rng.random_range(10.0..12_000.0)),
                            Value::Text("LC".into()),
                            Value::Text(format!("EB{next_id:06}")),
                        ],
                    )
                    .expect("schema is static");
                live.push(oid);
                next_id += 1;
            } else if run.writes % 5 == 0 && live.len() > 8 {
                let victim = live.swap_remove(pick);
                b.db.delete_tuple(birds, victim).expect("oid is live");
            } else {
                let cat = if rng.random_bool(0.6) {
                    Category::Disease
                } else {
                    Category::Behavior
                };
                let len = rng.random_range(80..260);
                let body = text::generate(&mut rng, cat, len);
                b.db.add_annotation(
                    birds,
                    &body,
                    cat,
                    "maint",
                    vec![Attachment::row(live[pick])],
                )
                .expect("annotation fits a page");
            }
        } else {
            run.reads += 1;
            let plan = if run.reads % 2 == 1 {
                PhysicalPlan::SummaryIndexScan {
                    index: "sb".into(),
                    label: "Disease".into(),
                    lo: Some(5),
                    hi: None,
                    propagate: false,
                    reverse: false,
                }
            } else {
                PhysicalPlan::DataIndexScan {
                    table: birds,
                    col: 0,
                    lo: Some(Value::Int(3)),
                    hi: None,
                    lo_strict: false,
                    hi_strict: false,
                    with_summaries: false,
                }
            };
            let mut ctx = ExecContext::with_registry(&b.db, registry);
            let rows = ctx.execute(&plan).expect("plan executes");
            let report = ctx.maintenance_report();
            registry = ctx.take_registry();
            run.refresh_phys += report.physical_io;
            run.refresh_logical += report.logical_io;
            run.replays += report.indexes_replayed;
            run.rebuilds += report.indexes_rebuilt + report.forced_rebuilds;
            run.deltas += report.deltas_applied;
            // Order-insensitive checksum: ties on the index key (equal
            // counts) may legally stream in either order, and only the
            // result *set* must agree across the two maintenance modes.
            let mut oids: Vec<u64> = rows
                .iter()
                .filter_map(|r| r.source.map(|(_, oid)| oid.0))
                .collect();
            oids.sort_unstable();
            let checksum = oids
                .iter()
                .fold(0u64, |acc, o| acc.wrapping_mul(31).wrapping_add(*o));
            digests.push((rows.len(), checksum));
        }
    }
    run.wall = start.elapsed();

    // Final oracle: after one last refresh the maintained indexes must be
    // indistinguishable from fresh bulk builds over the end state.
    let mut ctx = ExecContext::with_registry(&b.db, registry);
    ctx.execute(&PhysicalPlan::SummaryIndexScan {
        index: "sb".into(),
        label: "Disease".into(),
        lo: None,
        hi: None,
        propagate: false,
        reverse: false,
    })
    .expect("final probe executes");
    let registry = ctx.take_registry();
    let fresh_sb = SummaryBTree::bulk_build(&b.db, birds, "ClassBird1", PointerMode::Backward)
        .expect("instance linked");
    assert_eq!(
        registry
            .summary_index("sb")
            .expect("registered")
            .dump_entries(),
        fresh_sb.dump_entries(),
        "maintained Summary-BTree must match a fresh bulk build"
    );
    let fresh_bl = BaselineIndex::bulk_build(&b.db, birds, "ClassBird1").expect("instance linked");
    assert_eq!(
        registry
            .baseline_index("bl")
            .expect("registered")
            .dump_rows(),
        fresh_bl.dump_rows(),
        "maintained baseline index must match a fresh bulk build"
    );
    (run, digests)
}

pub(crate) fn maintenance(args: &Args) {
    let (scale, quick) = (args.scale, args.quick);
    header("Extension — maintenance: journal replay vs rebuild-on-stale");
    let cfg = args.config(10);
    let fractions: &[f64] = if quick {
        &[0.10, 0.50]
    } else {
        &[0.01, 0.05, 0.10, 0.25, 0.50]
    };
    let ops = if quick { 120 } else { 400 };
    println!(
        "{} birds, {} ops per run, indexes: Summary-BTree + baseline + data B-Tree",
        45_000 / scale,
        ops
    );
    println!(
        "{:>6} {:>6} {:>6} {:>12} {:>7} {:>13} {:>8} {:>7}",
        "wf", "writes", "reads", "replay phys", "deltas", "rebuild phys", "rebuilds", "ratio"
    );
    let mut json_rows = Vec::new();
    let mut ratio_at_10 = 0.0f64;
    for &wf in fractions {
        let (replay, d_replay) = maintenance_run(args, &cfg, wf, ops, true);
        let (rebuild, d_rebuild) = maintenance_run(args, &cfg, wf, ops, false);
        assert_eq!(
            d_replay, d_rebuild,
            "replayed and rebuilt indexes must serve identical result sets (wf={wf})"
        );
        assert_eq!(replay.writes, rebuild.writes);
        let ratio = rebuild.refresh_phys as f64 / replay.refresh_phys.max(1) as f64;
        if (wf - 0.10).abs() < 1e-9 {
            ratio_at_10 = ratio;
        }
        println!(
            "{:>6.2} {:>6} {:>6} {:>12} {:>7} {:>13} {:>8} {:>6.1}x",
            wf,
            replay.writes,
            replay.reads,
            replay.refresh_phys,
            replay.deltas,
            rebuild.refresh_phys,
            rebuild.rebuilds,
            ratio
        );
        json_rows.push(format!(
            "  {{\"write_fraction\": {wf}, \"ops\": {ops}, \"writes\": {}, \"reads\": {}, \
             \"replay_physical\": {}, \"replay_logical\": {}, \"replays\": {}, \
             \"replay_rebuilds\": {}, \"deltas_applied\": {}, \"rebuild_physical\": {}, \
             \"rebuild_logical\": {}, \"rebuilds\": {}, \"io_ratio\": {ratio:.3}, \
             \"replay_ms\": {:.3}, \"rebuild_ms\": {:.3}}}",
            replay.writes,
            replay.reads,
            replay.refresh_phys,
            replay.refresh_logical,
            replay.replays,
            replay.rebuilds,
            replay.deltas,
            rebuild.refresh_phys,
            rebuild.refresh_logical,
            rebuild.rebuilds,
            replay.wall.as_secs_f64() * 1e3,
            rebuild.wall.as_secs_f64() * 1e3
        ));
    }
    // The pipeline's claim, checked: at a low write fraction the journal
    // replay must beat rebuild-on-stale by at least 2× physical I/O.
    assert!(
        ratio_at_10 >= 2.0,
        "maintenance: expected >=2x refresh-I/O win at 10% writes, got {ratio_at_10:.2}x"
    );
    println!("refresh-I/O win at 10% writes: {ratio_at_10:.1}x");
    let json = format!(
        "{{\"experiment\": \"maintenance\", \"scale\": {scale}, \
         \"annots_per_tuple\": {}, \"ops\": {ops}, \"rows\": [\n{}\n]}}\n",
        cfg.annots_per_tuple,
        json_rows.join(",\n")
    );
    write_artifact("BENCH_maintenance.json", &json);
    println!();
}
