//! Work-counting guards for the executor (not timings): a scan whose
//! predicate rejects a row must not pay for decoding it; an equi-join puts
//! to its predicate the pairs that can match, not outer × inner, and its
//! last block holds the inner rows it can meet, not the whole inner;
//! folding one more member into a group costs that member, not the group so
//! far.
//!
//! And two for the storage layer: a fetched record is a span of its page's
//! one image, shared, so a scanned row costs its handle and nothing per
//! record, and filling a page allocates its image once.
//! And one for the serving layer: a result row costs the server what
//! fetching it costs, not a decoded summary set and a `String` per object.
//! And one for the summary engine: classifying an annotation costs its score
//! vector, not a `String` per token. And one for the log: appending and
//! forcing a record costs nothing once the log's buffers have grown.
//!
//! This binary installs a counting `#[global_allocator]`. Counts are kept
//! per thread, so they see only the query that the measuring test itself
//! runs (the serial pipeline runs on the caller's thread); CI still runs the
//! binary with `--test-threads=1`. The serving test measures another
//! thread's work through a process-wide count, so the tests of this binary
//! take turns ([`alone`]) however the harness schedules them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use insightnotes::annot::{Attachment, Category};
use insightnotes::core::db::Database;
use insightnotes::core::instance::InstanceKind;
use insightnotes::mining::nb::NaiveBayes;
use insightnotes::prelude::{
    Client, CmpOp, ExecContext, Expr, JoinPredicate, PhysicalPlan, ServeConfig, Server,
    SharedDatabase, SortKey, SummaryExpr,
};
use insightnotes::serve::Response;
use insightnotes::storage::page::Page;
use insightnotes::storage::wal::WAL_RECORD_HEADER;
use insightnotes::storage::{
    ColumnType, IoStats, Schema, Table, TableId, Value, ValueRef, Wal, WalRecordKind,
};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    /// Bytes allocated and not yet freed: a block freed on another thread
    /// than its own counts against the freeing one.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    /// The most `LIVE` has been since [`peak_live`] last reset it.
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// Allocations of every thread of the process.
static ALL_THREADS: AtomicU64 = AtomicU64::new(0);

fn note_allocation(bytes: usize) {
    ALL_THREADS.fetch_add(1, Ordering::Relaxed);
    // A thread being torn down has no counter left; nothing measures it.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

fn note_live(delta: i64) {
    let _ = LIVE.try_with(|live| {
        let now = live.get() + delta;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

// SAFETY: every request is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a plain thread-local cell that
// neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation(layout.size());
        note_live(layout.size() as i64);
        // SAFETY: the caller's obligations are `System.alloc`'s own.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note_live(-(layout.size() as i64));
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation(new_size);
        note_live(new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Held by each test for as long as it runs: a test waiting for its turn
/// allocates nothing, so the process-wide count sees one test at a time.
fn alone() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    // A test that failed holding the lock has told its own story.
    TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Heap allocations this thread makes while `f` runs.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// Allocations, and the bytes they asked for, while `f` runs.
fn allocated<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let before = BYTES.with(Cell::get);
    let (out, count) = allocations(f);
    (out, count, BYTES.with(Cell::get) - before)
}

/// The most heap this thread held at once while `f` ran, over what it held
/// when `f` began (what `f` returns still held).
fn peak_live<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let base = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(base));
    let out = f();
    (out, (PEAK.with(Cell::get) - base).max(0) as u64)
}

const TUPLES: usize = 2_000;

/// Birds(id, family, habitat); every tuple carries a classifier object with
/// `i % 7` disease annotations and one behavior annotation.
fn build() -> (Database, TableId) {
    let mut db = Database::new();
    let t = db
        .create_table(
            "Birds",
            Schema::of(&[
                ("id", ColumnType::Int),
                ("family", ColumnType::Text),
                ("habitat", ColumnType::Text),
            ]),
        )
        .unwrap();
    let mut model = NaiveBayes::new(vec!["Disease".into(), "Behavior".into()]);
    model.train("disease outbreak infection virus", "Disease");
    model.train("eating foraging migration song", "Behavior");
    db.link_instance(t, "C", InstanceKind::Classifier { model }, true)
        .unwrap();
    for i in 0..TUPLES {
        let row = vec![
            Value::Int(i as i64),
            Value::Text(format!("family-{}", i % 9)),
            Value::Text("reed beds and shallow freshwater margins".into()),
        ];
        let oid = db.insert_tuple(t, row).unwrap();
        for (text, category, n) in [
            ("disease outbreak infection", Category::Disease, i % 7),
            ("eating foraging song", Category::Behavior, 1),
        ] {
            for _ in 0..n {
                db.add_annotation(t, text, category, "u", vec![Attachment::row(oid)])
                    .unwrap();
            }
        }
    }
    (db, t)
}

#[test]
fn rejected_rows_are_not_decoded() {
    let _turn = alone();
    let (db, t) = build();
    db.metrics().set_enabled(true);
    let materialized = db.metrics().counter("exec_rows_materialized_total", "");
    let fetched = db.metrics().counter("exec_rows_fetched_total", "");
    let scan = PhysicalPlan::SeqScan {
        table: t,
        with_summaries: true,
    };
    let mut ctx = ExecContext::new(&db);

    // Filter(SeqScan(+summaries)) rejecting every row, on a summary
    // predicate and on a data predicate: per row, the row's handle is all
    // that may be allocated — the two fetched records are the pages' own,
    // shared. (Eager materialization spent about 30: every text column,
    // label, element list and object; copying the two records out of their
    // pages, two more.)
    for pred in [
        Expr::label_cmp("C", "Disease", CmpOp::Gt, 100),
        Expr::and(
            Expr::col_cmp(0, CmpOp::Lt, Value::Int(0)),
            Expr::Like(Box::new(Expr::Column(2)), "%tundra%".into()),
        ),
    ] {
        let plan = PhysicalPlan::Filter {
            input: Box::new(scan.clone()),
            pred,
        };
        assert!(
            ctx.execute(&plan).unwrap().is_empty(),
            "warm-up rejects all"
        );
        let decoded_before = materialized.value();
        let (rows, allocated) = allocations(|| ctx.execute(&plan).unwrap());
        assert!(rows.is_empty());
        assert_eq!(materialized.value(), decoded_before, "nothing decoded");
        let per_row = allocated as f64 / TUPLES as f64;
        println!("allocations per rejected row: {per_row:.3}");
        assert!(
            allocated <= 3 * TUPLES as u64 / 2,
            "{allocated} allocations for {TUPLES} rejected rows ({per_row:.2} per row)"
        );
    }

    // Limit(10) over Sort on a summary key reads 2 000 keys off the shared
    // records and decodes exactly the ten rows that leave the pipeline: a
    // handle per row, the sort's buffers, and those ten.
    let top10 = PhysicalPlan::Limit {
        input: Box::new(PhysicalPlan::Sort {
            input: Box::new(scan),
            key: SortKey::Summary(SummaryExpr::label_value("C", "Disease")),
            desc: true,
            disk: false,
        }),
        n: 10,
    };
    let (fetched_before, decoded_before) = (fetched.value(), materialized.value());
    let (rows, allocated) = allocations(|| ctx.execute(&top10).unwrap());
    assert_eq!(rows.len(), 10);
    assert!(rows.iter().all(|r| r.summary_count() == 1));
    assert_eq!(fetched.value() - fetched_before, TUPLES as u64);
    assert_eq!(
        materialized.value() - decoded_before,
        10,
        "ten summary sets decoded"
    );
    println!(
        "allocations per sorted row: {:.3}",
        allocated as f64 / TUPLES as f64
    );
    assert!(
        allocated <= 3 * TUPLES as u64 / 2,
        "{allocated} allocations"
    );
}

const OUTER: usize = 100;
const INNER: usize = 10_000;
/// Live heap the last-block join may hold per outer or matched row: a row
/// costs a few hundred bytes, so the 10 000-row inner alone is megabytes.
const PEAK_BYTES_PER_ROW: u64 = 1024;

/// A 100 × 10 000 Int-keyed equi-join, outer first: every outer key meets
/// four inner rows; most inner rows meet nobody.
fn equi_join() -> (Database, PhysicalPlan) {
    let mut db = Database::new();
    let mut table = |name: &str, rows: usize, key: fn(usize) -> i64| {
        let t = db
            .create_table(name, Schema::of(&[("k", ColumnType::Int)]))
            .unwrap();
        for i in 0..rows {
            db.insert_tuple(t, vec![Value::Int(key(i))]).unwrap();
        }
        t
    };
    let outer = table("Outer", OUTER, |i| i as i64);
    let inner = table("Inner", INNER, |i| (i % (INNER / 4)) as i64);
    let scan = |table| PhysicalPlan::SeqScan {
        table,
        with_summaries: false,
    };
    let plan = PhysicalPlan::NestedLoopJoin {
        left: Box::new(scan(outer)),
        right: Box::new(scan(inner)),
        pred: JoinPredicate::DataEq {
            left_col: 0,
            right_col: 0,
        },
    };
    (db, plan)
}

/// An Int-keyed equi-join buckets its inner: the predicate sees the pairs
/// that share a key, not the 1 000 000 a 100 × 10 000 loop would try.
#[test]
fn equi_join_compares_only_its_buckets() {
    let _turn = alone();
    let (db, plan) = equi_join();
    db.metrics().set_enabled(true);
    let compared = db.metrics().counter("exec_join_pairs_compared_total", "");
    let mut ctx = ExecContext::new(&db);
    let rows = ctx.execute(&plan).unwrap();
    assert_eq!(rows.len(), 4 * OUTER);
    let pairs = compared.value();
    println!("key pairs compared: {pairs} for {} matches", rows.len());
    assert!(
        pairs <= (OUTER + INNER + rows.len()) as u64,
        "{pairs} key pairs compared for {OUTER} x {INNER} rows, {} matches",
        rows.len()
    );
}

/// The same join's outer is one block, its last: the inner read will not
/// be reused, so the join keeps of it only the rows the block can meet.
/// The most heap the join holds at once is bounded by its outer and its
/// matches, not by its inner.
#[test]
fn a_last_block_keeps_only_the_inner_it_can_meet() {
    let _turn = alone();
    let (db, plan) = equi_join();
    let mut ctx = ExecContext::new(&db);
    ctx.execute(&plan).unwrap(); // warm-up
    let (rows, peak) = peak_live(|| ctx.execute(&plan).unwrap());
    assert_eq!(rows.len(), 4 * OUTER);
    let per_row = peak as f64 / (OUTER + rows.len()) as f64;
    println!("peak live bytes: {peak} ({per_row:.0} per outer or matched row)");
    assert!(
        peak <= PEAK_BYTES_PER_ROW * (OUTER + rows.len()) as u64,
        "{peak} bytes live at once for {OUTER} outer rows and {} matches",
        rows.len()
    );
}

/// The group-by fold appends a member to its group in place: a member of a
/// 512-member group costs the allocations, and the bytes, of a member of a
/// 64-member group. (Merging by clone-and-rebuild copied the group gathered
/// so far for every member: bytes per member grew with the group.)
#[test]
fn group_fold_costs_the_member_not_the_group() {
    let _turn = alone();
    let (db, t) = build();
    let mut ctx = ExecContext::new(&db);
    // One group (every habitat is the same text) of the first `members` rows.
    let group_of = |members: usize| PhysicalPlan::GroupBy {
        input: Box::new(PhysicalPlan::Filter {
            input: Box::new(PhysicalPlan::SeqScan {
                table: t,
                with_summaries: true,
            }),
            pred: Expr::col_cmp(0, CmpOp::Lt, Value::Int(members as i64)),
        }),
        cols: vec![2],
    };
    let mut fold = |members: usize| {
        let plan = group_of(members);
        ctx.execute(&plan).unwrap(); // warm-up
        let (rows, count, bytes) = allocated(|| ctx.execute(&plan).unwrap());
        let counted: Vec<Value> = rows.iter().map(|r| r.values[1].clone()).collect();
        let want: Vec<Value> = (members > 0)
            .then_some(Value::Int(members as i64))
            .into_iter()
            .collect();
        assert_eq!(counted, want, "one group of {members}");
        (count as f64, bytes as f64)
    };
    // What the scan spends on the rows the filter rejects is the same
    // whatever the group, so the empty group's cost comes off first.
    let (base_count, base_bytes) = fold(0);
    let mut cost = |members: usize| {
        let (count, bytes) = fold(members);
        (
            (count - base_count) / members as f64,
            (bytes - base_bytes) / members as f64,
        )
    };
    let (small_count, small_bytes) = cost(64);
    let (large_count, large_bytes) = cost(512);
    println!(
        "per member: {small_count:.1} allocations / {small_bytes:.0} B at 64, \
         {large_count:.1} / {large_bytes:.0} B at 512"
    );
    assert!(
        large_count <= 1.5 * small_count,
        "{large_count:.1} allocations per member at 512 against {small_count:.1} at 64"
    );
    assert!(
        large_bytes <= 1.5 * small_bytes,
        "{large_bytes:.0} B per member at 512 against {small_bytes:.0} B at 64"
    );
}

/// Classifying an annotation allocates its score vector and at most one
/// word buffer, whatever its length: tokens are lent, not collected, and
/// each is one lookup in a precomputed table. (Collecting them allocated a
/// `String` per token: about 300 for this annotation.)
#[test]
fn classifying_allocates_per_annotation_not_per_token() {
    let _turn = alone();
    let mut model = NaiveBayes::new(vec!["Disease".into(), "Behavior".into()]);
    model.train("disease outbreak infection virus", "Disease");
    model.train("eating foraging migration song", "Behavior");
    let sentence =
        "Avian Disease outbreak observed near the Lake, infection spreading in a Flock. ";
    let annotation = sentence.repeat(2_400 / sentence.len() + 1)[..2_400].to_string();
    let tokens = insightnotes::mining::tokenize(&annotation).len();
    let warm = model.classify("outbreak"); // fills the table
    let (label, allocated) = allocations(|| model.classify(&annotation));
    assert_eq!((warm, label), (0, 0));
    println!("allocations classifying {tokens} tokens: {allocated}");
    assert!(tokens > 250, "{tokens} tokens");
    assert!(
        allocated <= 2,
        "{allocated} allocations classifying one annotation of {tokens} tokens"
    );
}

/// Logging a write allocates nothing once the log's buffers have grown: the
/// record's CRC is streamed over `kind ‖ payload` in place, and a force moves
/// bytes from the pending tail to the durable buffer directly. (Building the
/// checksummed body, then collecting the forced bytes, cost two a record.)
#[test]
fn a_logged_write_allocates_nothing_on_a_warm_log() {
    let _turn = alone();
    const PAIRS: u64 = 1_000;
    let op = [0x5A; 426];
    let wal = Wal::new(IoStats::new());
    let log = |wal: &Wal| {
        for _ in 0..PAIRS {
            let lsn = wal.append(WalRecordKind::Op, &op);
            wal.force(lsn).unwrap();
        }
    };
    log(&wal);
    wal.reset(); // a new generation keeps the buffers
    let ((), allocated) = allocations(|| log(&wal));
    assert_eq!(
        wal.durable_len(),
        PAIRS * (op.len() + WAL_RECORD_HEADER) as u64
    );
    let per_pair = allocated as f64 / PAIRS as f64;
    println!("allocations per append + force: {per_pair:.3}");
    assert!(
        per_pair < 0.1,
        "{allocated} allocations for {PAIRS} append + force pairs"
    );
}

/// A page holds its records in one image: filling a page record by record
/// allocates that image once and grows the slot directory (amortised
/// doubling), not one allocation per record. And a table scan that keeps
/// no row reads each record where its page holds it: nothing per record.
/// (With one allocation per record, filling the page cost 170 and more.)
#[test]
fn a_page_is_one_allocation_and_a_scan_lends_its_records() {
    let _turn = alone();
    let (records, allocated) = allocations(|| {
        let mut page = Page::new();
        let mut records = 0u64;
        while page.insert(&[7; 40]).is_ok() {
            records += 1;
        }
        records
    });
    // 8 192 bytes at 48 a record (40 + 8 of slot overhead).
    assert_eq!(records, 170);
    // The image, then a directory of 4, 8, … 256 entries.
    println!("allocations to fill a page of {records} records: {allocated}");
    assert!(
        allocated <= 8,
        "{allocated} allocations for {records} records"
    );

    let mut table = Table::new(
        "t",
        Schema::of(&[("id", ColumnType::Int), ("name", ColumnType::Text)]),
        IoStats::new(),
    );
    for i in 0..TUPLES as i64 {
        table
            .insert(vec![Value::Int(i), Value::Text(format!("bird-{i}"))])
            .unwrap();
    }
    let scan = |table: &Table| {
        let mut cursor = table.scan_open();
        let mut sum = 0;
        while let Some((_, tuple)) = table.scan_next_lent(&mut cursor) {
            if let Some(ValueRef::Int(i)) = tuple.view().get(0) {
                sum += i;
            }
        }
        sum
    };
    scan(&table); // checks each record once; the measured scan only lends
    let (sum, allocated) = allocations(|| scan(&table));
    assert_eq!(sum, (0..TUPLES as i64).sum::<i64>());
    println!("allocations to scan {TUPLES} tuples keeping none: {allocated}");
    assert!(
        allocated <= 4,
        "{allocated} allocations for {TUPLES} lent records"
    );
}

/// Serving a result row costs the server what fetching it costs — the row's
/// handle; the record and the summary row are the pages' own, shared — and
/// nothing per summary object: the row is encoded into the connection's
/// frame off the bytes the index scan fetched. (Collecting it first decoded
/// the whole summary set — every label, every element list — cloned the
/// values into a `WireRow` and rendered one `String` per object: 16.6
/// allocations a row here; copying the two records out of their pages cost
/// two more.)
#[test]
fn a_served_row_allocates_what_fetching_it_does() {
    let _turn = alone();
    // Ten tuples in 4 000 carry disease annotations, nine of them one and
    // one five — so `>= 1` answers ten rows and `= 5` one, and through the
    // Summary-BTree each statement fetches exactly the rows it answers.
    let mut db = Database::new();
    let schema = Schema::of(&[("id", ColumnType::Int), ("habitat", ColumnType::Text)]);
    let t = db.create_table("Birds", schema).unwrap();
    for i in 0..4_000usize {
        let habitat = "reed beds and shallow freshwater margins; ".repeat(4);
        let row = vec![Value::Int(i as i64), Value::Text(habitat)];
        let oid = db.insert_tuple(t, row).unwrap();
        let diseases = match i {
            0 => 5,
            1..10 => 1,
            _ => 0,
        };
        for (text, category, n) in [
            ("disease outbreak infection", Category::Disease, diseases),
            ("eating foraging song", Category::Behavior, 1),
        ] {
            for _ in 0..n {
                db.add_annotation(t, text, category, "u", vec![Attachment::row(oid)])
                    .unwrap();
            }
        }
    }
    let mut model = NaiveBayes::new(vec!["Disease".into(), "Behavior".into()]);
    model.train("disease outbreak infection virus", "Disease");
    model.train("eating foraging migration song", "Behavior");
    let instances = HashMap::from([("C".to_string(), InstanceKind::Classifier { model })]);
    let mut config = ServeConfig {
        max_connections: 1,
        ..ServeConfig::default()
    };
    config.exec_config.dop = 1;
    let server = Server::start(SharedDatabase::new(db), instances, "127.0.0.1:0", config).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    match client.query("ALTER TABLE Birds ADD INDEXABLE C").unwrap() {
        Response::Text(t) => assert!(t.contains("summary index registered"), "{t}"),
        other => panic!("{other:?}"),
    }
    let select = |bound: &str| {
        format!(
            "SELECT * FROM Birds r \
             WHERE r.$.getSummaryObject('C').getLabelValue('Disease') {bound}"
        )
    };
    for bound in ["= 5", ">= 1"] {
        match client.query(&format!("EXPLAIN {}", select(bound))).unwrap() {
            Response::Text(plan) => assert!(plan.contains("SummaryIndexScan"), "{plan}"),
            other => panic!("{other:?}"),
        }
    }
    // Allocations of the *other* threads per request: the process-wide count
    // less this thread's own. The harness reporting a finished test can only
    // add to a window, so the least of several is the server's own cost.
    let mut served = |sql: &str, rows: usize| {
        const REQUESTS: u64 = 50;
        let mut run = || match client.query_deadline(sql, Duration::ZERO).unwrap() {
            Response::Rows { rows: got, .. } => assert_eq!(got.len(), rows, "{sql}"),
            other => panic!("{other:?}"),
        };
        run(); // plans, and grows the connection's buffers
        let window = |run: &mut dyn FnMut()| {
            let everyone = ALL_THREADS.load(Ordering::Relaxed);
            let ((), mine) = allocations(|| (0..REQUESTS).for_each(|_| run()));
            (ALL_THREADS.load(Ordering::Relaxed) - everyone - mine) as f64 / REQUESTS as f64
        };
        (0..5).map(|_| window(&mut run)).fold(f64::MAX, f64::min)
    };
    let one = served(&select("= 5"), 1);
    let ten = served(&select(">= 1"), 10);
    let per_row = (ten - one) / 9.0;
    println!(
        "server allocations per request: {one:.1} for 1 row, {ten:.1} for 10: {per_row:.2} a row"
    );
    assert!(
        per_row <= 1.5,
        "{per_row:.2} allocations per served row ({one:.1} for 1 row, {ten:.1} for 10)"
    );
    drop(client);
    server.shutdown().unwrap();
}
