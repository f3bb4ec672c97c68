//! Work-counting guards for the executor (not timings): a scan whose
//! predicate rejects a row must not pay for decoding it; an equi-join puts
//! to its predicate the pairs that can match, not outer × inner; folding one
//! more member into a group costs that member, not the group so far.
//!
//! And one for the serving layer: a result row costs the server the
//! records it fetched, not a decoded summary set and a `String` per object.
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
use insightnotes::storage::{ColumnType, Schema, TableId, Value};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Allocations of every thread of the process.
static ALL_THREADS: AtomicU64 = AtomicU64::new(0);

fn note_allocation(bytes: usize) {
    ALL_THREADS.fetch_add(1, Ordering::Relaxed);
    // A thread being torn down has no counter left; nothing measures it.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

// SAFETY: every request is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a plain thread-local cell that
// neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation(layout.size());
        // SAFETY: the caller's obligations are `System.alloc`'s own.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation(new_size);
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
    // predicate and on a data predicate: per row, the index key and the two
    // fetched records are all that may be allocated. (Eager materialization
    // spent about 30: every text column, label, element list and object.)
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
            allocated <= 4 * TUPLES as u64,
            "{allocated} allocations for {TUPLES} rejected rows ({per_row:.2} per row)"
        );
    }

    // Limit(10) over Sort on a summary key reads 2 000 keys off the bytes
    // and decodes exactly the ten rows that leave the pipeline.
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
    assert!(allocated <= 5 * TUPLES as u64, "{allocated} allocations");
}

/// An Int-keyed equi-join buckets its inner: the predicate sees the pairs
/// that share a key, not the 1 000 000 a 100 × 10 000 loop would try.
#[test]
fn equi_join_compares_only_its_buckets() {
    let _turn = alone();
    const OUTER: usize = 100;
    const INNER: usize = 10_000;
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
    // Every outer key meets four inner rows; most inner rows meet nobody.
    let outer = table("Outer", OUTER, |i| i as i64);
    let inner = table("Inner", INNER, |i| (i % (INNER / 4)) as i64);
    db.metrics().set_enabled(true);
    let compared = db.metrics().counter("exec_join_pairs_compared_total", "");
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

/// Serving a result row costs the server what fetching it costs — the
/// record, the summary row, the handle — and nothing per summary object: the
/// row is encoded into the connection's frame off the bytes the index scan
/// fetched. (Collecting it first decoded the whole summary set — every
/// label, every element list — cloned the values into a `WireRow` and
/// rendered one `String` per object: 16.6 allocations a row here.)
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
        per_row <= 4.0,
        "{per_row:.2} allocations per served row ({one:.1} for 1 row, {ten:.1} for 10)"
    );
    drop(client);
    server.shutdown().unwrap();
}
