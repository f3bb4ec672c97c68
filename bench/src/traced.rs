//! The traced pass (`--trace 1`): one client walks the workload's seeded
//! schedule for a fixed number of operations, so every count it reports
//! repeats exactly for a given seed and `--seconds`.
//!
//! Each operation gets an `op` span around the real round-trip (wire) or
//! call (embedded). A wire operation is then *replayed* in-process, stage by
//! stage around the public function of each layer — `Request::encode` →
//! `Request::decode` → `instn_sql::parse` → `plan_select` →
//! `execute_with_metrics` → `WireRow::from_tuple` + `Response::encode` →
//! `Response::decode` — on a bench-owned session that mirrors the serving
//! one, so the stages' times can be set against the round-trip they explain.
//! An embedded operation is already made of public calls, which are timed
//! in place as children of its `op` span. `IoStats` and the registry's
//! counters are read at the same boundaries. Spans stay in memory until the
//! pass ends and are then written under `bench/out/`.

use std::collections::{HashMap, VecDeque};
use std::io::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use instn_annot::{text, Category};
use instn_core::db::Database;
use instn_core::instance::InstanceKind;
use instn_core::AnnotatedTuple;
use instn_index::{MaintainableIndex, PointerMode};
use instn_obs::{Counter, MetricsRegistry};
use instn_opt::Statistics;
use instn_query::{OpMetrics, Session, SharedDatabase};
use instn_serve::{Request, Response, WireRow};
use instn_sql::{execute_statement, lower_select, plan_select, PlanSource, SqlOutcome, Statement};
use instn_storage::{BufferPool, FileKind, IoSnapshot, IoStats};

use crate::calib::SpeedLog;
use crate::corpus;
use crate::metrics::{Report, CLASSES, PER_LAYER};
use crate::oracle::render_zoom;
use crate::setup::{self, plain_session, Env, Workload};
use crate::statements::{Class, Slot};
use crate::stats::quantile_sorted;
use crate::timed::{embedded_op, final_state_checks, wire_op};
use crate::writes::{self, WriteKind, CHECKPOINT_EVERY};

/// Read operations of the traced pass per second of `--seconds`. Constants,
/// not measurements: the pass is defined by its operation count so that its
/// counters repeat exactly; the rates are what one client sustains on the
/// 2-core reference container, so the pass takes about `--seconds` there.
fn nominal_reads_per_s(workload: Workload) -> u64 {
    match workload {
        Workload::WireScan => 30,
        Workload::WireShort => 3_000,
        Workload::EmbeddedAnalytic => 120,
        Workload::EmbeddedRw => 6_000,
    }
}

/// `embedded_rw`'s traced pass places one write after every this many
/// reads (the timed run's ratio is about five times higher; a denser write
/// stream lets the pass cross a checkpoint within its operation budget).
const READS_PER_WRITE: u64 = 25;

const SPAN_NAMES: [&str; 14] = [
    "op",
    "replay",
    "req_encode",
    "req_decode",
    "parse",
    "plan",
    "execute",
    "resp_encode",
    "resp_decode",
    "write",
    "lock_wait",
    "mutate",
    "checkpoint",
    "probe",
];

#[derive(Clone, Copy, PartialEq, Eq)]
enum Name {
    Op,
    Replay,
    ReqEncode,
    ReqDecode,
    Parse,
    Plan,
    Execute,
    RespEncode,
    RespDecode,
    Write,
    LockWait,
    Mutate,
    Checkpoint,
    Probe,
}

struct Span {
    op: u32,
    parent: u32,
    name: Name,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span recorder. Ids are positions + 1; parent 0 means root.
struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    op: u32,
}

impl Tracer {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn begin(&mut self, name: Name, parent: u32) -> u32 {
        let start_ns = self.now();
        self.spans.push(Span {
            op: self.op,
            parent,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() as u32
    }

    /// Close span `id` and return its duration, ns.
    fn end(&mut self, id: u32) -> u64 {
        let now = self.now();
        let span = &mut self.spans[id as usize - 1];
        span.end_ns = now;
        now - span.start_ns
    }

    /// Time `f` as a child span of `parent`.
    fn stage<T>(&mut self, name: Name, parent: u32, f: impl FnOnce() -> T) -> (T, u64) {
        let id = self.begin(name, parent);
        let out = f();
        (out, self.end(id))
    }

    fn write_to(&self, path: &PathBuf) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "op\tid\tparent\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.op,
                i + 1,
                s.parent,
                SPAN_NAMES[s.name as usize],
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

#[derive(Default, Clone, Copy)]
struct Sum {
    ns: u64,
    n: u64,
}

impl Sum {
    fn add(&mut self, ns: u64) {
        self.ns += ns;
        self.n += 1;
    }

    fn mean_us(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.ns as f64 / self.n as f64 / 1e3
        }
    }
}

/// Registry counters read around every real operation.
struct Counters {
    plan_hits: Counter,
    plan_misses: Counter,
    plan_invalidations: Counter,
    refresh_replays: Counter,
    refresh_rebuilds: Counter,
    refresh_skips: Counter,
    morsels: Counter,
}

impl Counters {
    fn resolve(reg: &MetricsRegistry) -> Self {
        let c = |name: &str| reg.counter(name, "");
        Counters {
            plan_hits: c("plan_cache_hits_total"),
            plan_misses: c("plan_cache_misses_total"),
            plan_invalidations: c("plan_cache_invalidations_total"),
            refresh_replays: c("index_refresh_replays_total"),
            refresh_rebuilds: c("index_refresh_rebuilds_total"),
            refresh_skips: c("index_refresh_skips_total"),
            morsels: c("exchange_morsels_total"),
        }
    }

    fn read(&self) -> [u64; 7] {
        [
            self.plan_hits.value(),
            self.plan_misses.value(),
            self.plan_invalidations.value(),
            self.refresh_replays.value(),
            self.refresh_rebuilds.value(),
            self.refresh_skips.value(),
            self.morsels.value(),
        ]
    }
}

/// Everything the pass accumulates.
#[derive(Default)]
struct Acc {
    reads: u64,
    failed: u64,
    op_ns: Vec<u64>,
    stage: [Sum; SPAN_NAMES.len()],
    /// Σ over wire reads of (round-trip − replayed stages), may be negative.
    residual_ns: i64,
    /// Σ of the stage times that are on the operation's real path.
    covered_ns: u64,
    exec_by_class: [Sum; CLASSES.len()],
    plan_cold: Sum,
    plan_warm: Sum,
    lower: Sum,
    resp_bytes: u64,
    rows_examined: u64,
    rows_returned: u64,
    io: IoSnapshot,
    counters: [u64; 7],
    read_after_write: Sum,
    read_steady: Sum,
    // Write side (`embedded_rw`).
    writes: u64,
    write_by_kind: [Sum; 4],
    lock_wait: Sum,
    catch_up: Sum,
    apply_entry: Sum,
    checkpoint_ms: Vec<f64>,
    stall_max_ns: u64,
    write_user_bytes: u64,
    write_io: IoSnapshot,
}

/// Rows produced by the plan's leaves (what the executor examined).
fn leaf_rows(m: &OpMetrics) -> u64 {
    if m.children.is_empty() {
        m.rows
    } else {
        m.children.iter().map(leaf_rows).sum()
    }
}

/// Book a `plan_select` call as warm (cache hit) or cold. For a cold one,
/// also time name resolution and lowering on their own — the same public
/// call, off the operation's path — to show their share of it.
fn note_plan(
    acc: &mut Acc,
    shared: &SharedDatabase,
    source: PlanSource,
    plan_ns: u64,
    sel: &instn_sql::SelectStmt,
) {
    if source == PlanSource::CacheHit {
        acc.plan_warm.add(plan_ns);
        return;
    }
    acc.plan_cold.add(plan_ns);
    let db = shared.read();
    let t = Instant::now();
    let lowered = lower_select(&db, sel);
    acc.lower.add(t.elapsed().as_nanos() as u64);
    drop(lowered);
}

struct Pass<'a> {
    env: &'a mut Env,
    tracer: Tracer,
    acc: Acc,
    stats: std::sync::Arc<IoStats>,
    counters: Counters,
    /// Mirrors the serving session of a wire workload (same DOP, same
    /// index registered under the same name, own plan cache).
    replay: Session,
    /// Ticked between operations, for `trace.speed_factor`.
    speed: SpeedLog,
    /// Off during the untraced baseline pass.
    tracing: bool,
    wrote_since_read: bool,
}

/// What the real operation returned, to be verified once its span is shut.
enum Answer {
    Wire(Option<Vec<u8>>),
    Embedded {
        rows: Option<Vec<AnnotatedTuple>>,
        /// Σ of the plan and execute stages timed inside the `op` span.
        staged_ns: u64,
        /// Where the plan came from and what `plan_select` took.
        plan: Option<(PlanSource, u64)>,
    },
}

impl Pass<'_> {
    /// One read: the real operation, then (wire) its replay.
    fn read_op(&mut self, slot: Slot) {
        let i = slot.stmt as usize;
        let class = self.env.stmts[i].class;
        self.speed.tick();
        if !self.tracing {
            let t = Instant::now();
            let answer = self.real_read(slot, 0);
            self.acc.op_ns.push(t.elapsed().as_nanos() as u64);
            self.verify(i, &answer);
            return;
        }
        self.tracer.op += 1;
        self.acc.reads += 1;
        let io_before = self.stats.snapshot();
        let counters_before = self.counters.read();
        let op = self.tracer.begin(Name::Op, 0);
        let answer = self.real_read(slot, op);
        let op_ns = self.tracer.end(op);
        self.acc
            .io
            .add_assign(&self.stats.snapshot().since(&io_before));
        for (total, (after, before)) in self
            .acc
            .counters
            .iter_mut()
            .zip(self.counters.read().into_iter().zip(counters_before))
        {
            *total += after - before;
        }
        self.acc.op_ns.push(op_ns);
        self.verify(i, &answer);
        if std::mem::take(&mut self.wrote_since_read) {
            self.acc.read_after_write.add(op_ns);
        } else if self.env.workload == Workload::EmbeddedRw {
            self.acc.read_steady.add(op_ns);
        }
        match answer {
            Answer::Wire(raw) => {
                self.acc.resp_bytes += raw.map_or(0, |r| r.len() as u64);
                let staged = self.replay_wire(slot, class);
                self.acc.residual_ns += op_ns as i64 - staged as i64;
                self.acc.covered_ns += staged;
            }
            Answer::Embedded {
                staged_ns, plan, ..
            } => {
                self.acc.covered_ns += staged_ns;
                if let (Some((source, plan_ns)), Some(sel)) = (plan, &self.env.stmts[i].select) {
                    note_plan(&mut self.acc, &self.env.shared, source, plan_ns, sel);
                }
            }
        }
    }

    fn verify(&mut self, i: usize, answer: &Answer) {
        let ok = match answer {
            Answer::Wire(raw) => raw
                .as_ref()
                .is_some_and(|raw| self.env.oracle[i].accepts_payload(raw)),
            // embedded_rw's state moves under the reader: its results are
            // checked on the final state, as in the timed run.
            Answer::Embedded { rows, .. } if self.env.workload == Workload::EmbeddedRw => {
                rows.is_some()
            }
            Answer::Embedded { rows, .. } => rows
                .as_ref()
                .is_some_and(|rows| self.env.oracle[i].accepts_rows(rows)),
        };
        self.acc.failed += u64::from(!ok);
    }

    /// The operation as the timed run issues it; an embedded one has its
    /// two public calls timed in place as children of `parent`.
    fn real_read(&mut self, slot: Slot, parent: u32) -> Answer {
        let i = slot.stmt as usize;
        if self.env.workload.is_wire() {
            return Answer::Wire(wire_op(
                &mut self.env.clients[0],
                &self.env.handles,
                &self.env.stmts[i].text,
                &slot,
            ));
        }
        let sel = self.env.stmts[i]
            .select
            .as_ref()
            .expect("embedded classes are SELECTs");
        let session = &mut self.env.sessions[0];
        if !self.tracing {
            return Answer::Embedded {
                rows: embedded_op(session, sel),
                staged_ns: 0,
                plan: None,
            };
        }
        let class = self.env.stmts[i].class;
        let (planned, plan_ns) = self
            .tracer
            .stage(Name::Plan, parent, || plan_select(session, sel));
        let Ok(planned) = planned else {
            return Answer::Embedded {
                rows: None,
                staged_ns: plan_ns,
                plan: None,
            };
        };
        let (res, exec_ns) = self.tracer.stage(Name::Execute, parent, || {
            session.execute_with_metrics(&planned.plan.plan)
        });
        self.acc.stage[Name::Plan as usize].add(plan_ns);
        self.acc.stage[Name::Execute as usize].add(exec_ns);
        self.acc.exec_by_class[class.index()].add(exec_ns);
        let rows = res.ok().map(|(rows, metrics)| {
            self.acc.rows_examined += leaf_rows(&metrics);
            self.acc.rows_returned += rows.len() as u64;
            rows
        });
        Answer::Embedded {
            rows,
            staged_ns: plan_ns + exec_ns,
            plan: Some((planned.source, plan_ns)),
        }
    }

    /// Replay a wire read stage by stage; returns Σ stage time.
    fn replay_wire(&mut self, slot: Slot, class: Class) -> u64 {
        let i = slot.stmt as usize;
        let root = self.tracer.begin(Name::Replay, 0);
        let mut staged = 0u64;
        let mut record = |acc: &mut Acc, name: Name, ns: u64| {
            acc.stage[name as usize].add(ns);
            staged += ns;
        };
        let text = self.env.stmts[i].text.clone();
        let request = if slot.prepared {
            Request::ExecutePrepared {
                handle: self.env.handles[i].expect("scheduled prepared ⇒ handle"),
                deadline_ms: 0,
            }
        } else {
            Request::Query {
                deadline_ms: 0,
                statement: text.clone(),
            }
        };
        let (frame, ns) = self
            .tracer
            .stage(Name::ReqEncode, root, || request.encode());
        record(&mut self.acc, Name::ReqEncode, ns);
        let (decoded, ns) = self
            .tracer
            .stage(Name::ReqDecode, root, || Request::decode(&frame));
        record(&mut self.acc, Name::ReqDecode, ns);
        assert_eq!(decoded.ok().as_ref(), Some(&request), "request codec");

        // A prepared execution skips the parser: the server kept the AST.
        let parsed = if slot.prepared {
            None
        } else {
            let (parsed, ns) = self
                .tracer
                .stage(Name::Parse, root, || instn_sql::parse(text.trim()));
            record(&mut self.acc, Name::Parse, ns);
            Some(parsed.expect("catalogue statement parses"))
        };
        let response = match (&self.env.stmts[i].select, parsed) {
            (None, Some(Statement::ZoomIn { .. })) => {
                let shared = self.env.shared.clone();
                let (outcome, ns) = self.tracer.stage(Name::Execute, root, || {
                    let mut db = shared.try_write().expect("engine lock");
                    execute_statement(&mut db, &HashMap::new(), text.trim())
                });
                record(&mut self.acc, Name::Execute, ns);
                self.acc.exec_by_class[class.index()].add(ns);
                let Ok(SqlOutcome::Zoom(annots)) = outcome else {
                    panic!("zoom replay failed: {text}")
                };
                let (bytes, ns) = self.tracer.stage(Name::RespEncode, root, || {
                    Response::Text(render_zoom(&annots)).encode()
                });
                record(&mut self.acc, Name::RespEncode, ns);
                bytes
            }
            (Some(sel), _) => {
                let replay = &mut self.replay;
                let (planned, ns) = self
                    .tracer
                    .stage(Name::Plan, root, || plan_select(replay, sel));
                record(&mut self.acc, Name::Plan, ns);
                let planned = planned.expect("catalogue statement plans");
                note_plan(&mut self.acc, &self.env.shared, planned.source, ns, sel);
                let replay = &mut self.replay;
                let (res, ns) = self.tracer.stage(Name::Execute, root, || {
                    replay.execute_with_metrics(&planned.plan.plan)
                });
                record(&mut self.acc, Name::Execute, ns);
                self.acc.exec_by_class[class.index()].add(ns);
                let (rows, metrics) = res.expect("replay executes");
                self.acc.rows_examined += leaf_rows(&metrics);
                self.acc.rows_returned += rows.len() as u64;
                let (bytes, ns) = self.tracer.stage(Name::RespEncode, root, || {
                    Response::Rows {
                        columns: planned.plan.columns.clone(),
                        rows: rows.iter().map(WireRow::from_tuple).collect(),
                    }
                    .encode()
                });
                record(&mut self.acc, Name::RespEncode, ns);
                bytes
            }
            (None, other) => panic!("zoom statement parsed as {other:?}"),
        };
        let (decoded, ns) = self
            .tracer
            .stage(Name::RespDecode, root, || Response::decode(&response));
        record(&mut self.acc, Name::RespDecode, ns);
        assert!(decoded.is_ok(), "response codec");
        // The replay must answer what the server answered.
        if !self.env.oracle[i].accepts_payload(&response) {
            self.acc.failed += 1;
        }
        self.tracer.end(root);
        staged
    }
}

/// `embedded_rw`'s write side of the traced pass.
struct WriteSide {
    ops: Vec<writes::WriteOp>,
    next: usize,
    added: VecDeque<instn_annot::AnnotId>,
    /// Bench-owned statistics and Summary-BTree, caught up after every
    /// write through the public maintenance calls.
    stats: Statistics,
    last_checkpoint: Vec<u8>,
}

impl Pass<'_> {
    fn write_op(&mut self, side: &mut WriteSide) {
        let op = &side.ops[side.next];
        side.next += 1;
        let io_before = self.stats.snapshot();
        let (res, write_ns, mutate_ns) = if self.tracing {
            self.tracer.op += 1;
            let root = self.tracer.begin(Name::Write, 0);
            let lock = self.tracer.begin(Name::LockWait, root);
            let mut db = self.env.shared.try_write().expect("engine lock");
            self.acc.lock_wait.add(self.tracer.end(lock));
            let (res, mutate_ns) = self.tracer.stage(Name::Mutate, root, || {
                writes::apply(
                    &mut db,
                    self.env.birds,
                    &self.env.bird_oids,
                    &mut side.added,
                    op,
                )
            });
            drop(db);
            (res, self.tracer.end(root), mutate_ns)
        } else {
            let mut db = self.env.shared.try_write().expect("engine lock");
            let res = writes::apply(
                &mut db,
                self.env.birds,
                &self.env.bird_oids,
                &mut side.added,
                op,
            );
            (res, 0, 0)
        };
        self.acc.failed += u64::from(res.is_err());
        self.wrote_since_read = true;
        if self.tracing {
            self.acc.writes += 1;
            self.acc.write_user_bytes += op.user_bytes();
            self.acc
                .write_io
                .add_assign(&self.stats.snapshot().since(&io_before));
            self.acc.write_by_kind[op.kind() as usize].add(mutate_ns);
            self.acc.stall_max_ns = self.acc.stall_max_ns.max(write_ns);
        }

        // Off the write's path: what the maintenance consumers of the
        // journal pay to catch up with it (bench-owned statistics and
        // Summary-BTree, through the public maintenance calls).
        let probe = self.tracing.then(|| self.tracer.begin(Name::Probe, 0));
        {
            let db = self.env.shared.read();
            let t = Instant::now();
            side.stats.catch_up(&db).expect("statistics catch up");
            let catch_up_ns = t.elapsed().as_nanos() as u64;
            let sbt = self
                .env
                .probe_sbt
                .as_mut()
                .expect("embedded_rw probe index");
            let t = Instant::now();
            let entries: Vec<_> = db
                .journal()
                .replay_range(sbt.built_revision())
                .expect("journal retains the last write")
                .collect();
            for entry in entries {
                sbt.apply_entry(&db, entry).expect("journal entry applies");
            }
            if self.tracing {
                self.acc.catch_up.add(catch_up_ns);
                self.acc.apply_entry.add(t.elapsed().as_nanos() as u64);
            }
        }
        if let Some(probe) = probe {
            self.tracer.end(probe);
        }

        if side.next.is_multiple_of(CHECKPOINT_EVERY) {
            self.checkpoint(side);
        }
    }

    fn checkpoint(&mut self, side: &mut WriteSide) {
        let t = Instant::now();
        let span = self.tracing.then(|| {
            self.tracer.op += 1;
            self.tracer.begin(Name::Checkpoint, 0)
        });
        side.last_checkpoint = self.env.shared.write().checkpoint().expect("checkpoint");
        if let Some(span) = span {
            self.tracer.end(span);
            let ns = t.elapsed().as_nanos() as u64;
            self.acc.checkpoint_ms.push(ns as f64 / 1e6);
            self.acc.stall_max_ns = self.acc.stall_max_ns.max(ns);
        }
    }
}

/// Mean ns of a buffer-pool page access on the hit and on the miss path,
/// measured on a pool of the bench's own (no engine above it).
fn page_access_ns() -> (f64, f64) {
    const FRAMES: u64 = 256;
    const ACCESSES: u64 = 200_000;
    let stats = IoStats::new();
    let pool = BufferPool::new(std::sync::Arc::clone(&stats), FRAMES as usize);
    let file = pool.register_file(FileKind::Heap);
    let timed = |pages: u64| {
        for p in 0..pages {
            pool.read(file, p);
        }
        let before = stats.snapshot();
        let t = Instant::now();
        for i in 0..ACCESSES {
            std::hint::black_box(pool.read(file, i % pages));
        }
        let ns = t.elapsed().as_nanos() as f64 / ACCESSES as f64;
        (ns, stats.snapshot().since(&before))
    };
    // A resident set walks the hit path; a cyclic walk over four times the
    // frames defeats CLOCK and misses every time.
    let (hit_ns, hit_io) = timed(FRAMES);
    let (miss_ns, miss_io) = timed(FRAMES * 4);
    assert_eq!(hit_io.cache_misses, 0, "hit probe must not miss");
    assert_eq!(miss_io.cache_hits, 0, "miss probe must not hit");
    (hit_ns, miss_ns)
}

fn out_dir() -> PathBuf {
    // From the checkout root (the driver, `cargo run --manifest-path`) or
    // from inside the package.
    if std::path::Path::new("bench/Cargo.toml").exists() {
        PathBuf::from("bench/out")
    } else {
        PathBuf::from("out")
    }
}

pub fn run(workload: Workload, seed: u64, seconds: f64) -> Report {
    let mut env = setup::set_up(workload, seed, &mut SpeedLog::default());
    if workload.shares_one_cpu() {
        // As in the timed run, so that the two runs' round-trips compare.
        crate::affinity::pin_process_to_one_cpu();
    }
    let registry = env
        .shared
        .with_read(|db| std::sync::Arc::clone(db.metrics()));
    // The wire workloads run with the registry on (as the server binary
    // does); the embedded ones turn it on for this pass only, to read the
    // executor's and the WAL's counters and histograms.
    registry.set_enabled(true);
    let stats = env.shared.with_read(|db| std::sync::Arc::clone(db.stats()));
    let mut replay = plain_session(&env.shared, workload.dop());
    if workload == Workload::WireShort {
        replay
            .register_summary_index("ClassBird2", env.birds, "ClassBird2", PointerMode::Backward)
            .expect("replay index builds");
    }
    let mut side = (workload == Workload::EmbeddedRw).then(|| WriteSide {
        ops: Vec::new(),
        next: 0,
        added: VecDeque::new(),
        stats: env
            .shared
            .with_read(Statistics::analyze)
            .expect("statistics collect"),
        last_checkpoint: std::mem::take(&mut env.last_checkpoint),
    });

    let reads = (nominal_reads_per_s(workload) as f64 * seconds).ceil() as u64;
    let baseline_reads = (reads / 4).max(1);
    if let Some(side) = &mut side {
        let n = ((baseline_reads + reads) / READS_PER_WRITE) as usize;
        side.ops = writes::write_stream(seed, n, env.bird_oids.len());
    }
    let schedule = env.schedule.clone();
    let mut pass = Pass {
        counters: Counters::resolve(&registry),
        env: &mut env,
        tracer: Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            op: 0,
        },
        acc: Acc::default(),
        stats,
        replay,
        speed: SpeedLog::default(),
        tracing: false,
        wrote_since_read: false,
    };

    // Untraced baseline over the head of the schedule: warms every cache
    // the timed run's warm-up warms, and gives the rate tracing is set
    // against.
    let mut slots = schedule.iter().cycle();
    let mut untraced = Vec::new();
    for n in 1..=baseline_reads + reads {
        if n == baseline_reads + 1 {
            untraced = std::mem::take(&mut pass.acc.op_ns);
            pass.tracing = true;
        }
        pass.read_op(*slots.next().expect("cyclic"));
        if let Some(side) = &mut side {
            if n.is_multiple_of(READS_PER_WRITE) && side.next < side.ops.len() {
                pass.write_op(side);
            }
        }
    }
    let Pass {
        tracer, acc, speed, ..
    } = pass;

    // ---- after the pass: checks, direct layer probes, the report ----
    let mut failed = acc.failed;
    let mut check_failures = 0;
    let mut concurrent_attempted = 0;
    let mut recover_ms = 0.0;
    let mut recover_ops = 0.0;
    let (mut write_p50_ms, mut write_p95_ms, mut write_late_p95_ms) = (0.0, 0.0, 0.0);
    // Counts first, while the state is still the pass's own.
    let (journal_len, journal_truncated) = env
        .shared
        .with_read(|db| (db.journal().len(), db.journal().truncated_through()));
    if let Some(side) = &mut side {
        let wal = env.wal.as_ref().expect("embedded_rw enables the WAL");
        let t = Instant::now();
        if let Ok((_, report)) = Database::recover(&side.last_checkpoint, &wal.durable_bytes()) {
            recover_ms = t.elapsed().as_secs_f64() * 1e3;
            recover_ops = report.ops_replayed as f64;
        }
        // Write latency beside a concurrent reader cannot come from a
        // one-client pass: measure it the way the timed run does, for a
        // third of the time, now that the pass's own counters are final.
        env.last_checkpoint = std::mem::take(&mut side.last_checkpoint);
        let window = std::time::Duration::from_secs_f64(seconds / 3.0);
        let concurrent = crate::timed::run(&mut env, window / 10, window, false);
        side.last_checkpoint = std::mem::take(&mut env.last_checkpoint);
        failed += concurrent.failed();
        concurrent_attempted = concurrent.attempted();
        if let Some((writes, late)) = concurrent.writes(&concurrent.timeline()) {
            write_p50_ms = writes.quantile(0.50);
            write_p95_ms = writes.quantile(0.95);
            write_late_p95_ms = late;
        }
        let failures = final_state_checks(&mut env, &side.last_checkpoint);
        for failure in &failures {
            eprintln!("check failed: {failure}");
        }
        check_failures = failures.len() as u64;
        failed += check_failures;
    }

    let (hit_ns, miss_ns) = page_access_ns();
    let annotated_tuple_us = {
        let db = env.shared.read();
        let t = Instant::now();
        for &oid in &env.bird_oids {
            std::hint::black_box(db.annotated_tuple(env.birds, oid).expect("bird exists"));
        }
        t.elapsed().as_secs_f64() * 1e6 / env.bird_oids.len() as f64
    };
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9_0BE5);
    let InstanceKind::Classifier { model } = corpus::classbird1_kind(seed) else {
        unreachable!("ClassBird1 is a classifier")
    };
    let short: Vec<String> = (0..2_000)
        .map(|_| {
            let category = corpus::sample_category(&mut rng);
            text::generate(&mut rng, category, 240)
        })
        .collect();
    let t = Instant::now();
    for body in &short {
        std::hint::black_box(model.classify(body));
    }
    let nb_classify_us = t.elapsed().as_secs_f64() * 1e6 / short.len() as f64;
    let long: Vec<String> = (0..200)
        .map(|_| text::generate(&mut rng, Category::Behavior, 1_700))
        .collect();
    let t = Instant::now();
    for body in &long {
        std::hint::black_box(instn_mining::lsa::snippet(body, 400));
    }
    let snippet_us = t.elapsed().as_secs_f64() * 1e6 / long.len() as f64;

    // Summary-BTree point lookups on the bench-owned index: time and the
    // node reads per lookup (§4.1.3 bounds them by the tree height).
    let (mut sbt_search_us, mut sbt_node_reads) = (0.0, 0.0);
    let sbt_instance = env.sbt_instance();
    if let (Some(sbt), Some(instance)) = (env.probe_sbt.as_mut(), sbt_instance) {
        let labels: &[&str] = if instance == "ClassBird2" {
            &corpus::CLASSBIRD2_LABELS
        } else {
            &corpus::CLASSBIRD1_LABELS
        };
        let io = sbt.stats().clone();
        let before = io.snapshot();
        let t = Instant::now();
        let mut lookups = 0u64;
        for _ in 0..50 {
            for label in labels {
                for count in 0..16 {
                    std::hint::black_box(sbt.search_eq(label, count));
                    lookups += 1;
                }
            }
        }
        sbt_search_us = t.elapsed().as_secs_f64() * 1e6 / lookups as f64;
        sbt_node_reads = io.snapshot().since(&before).logical_index_reads as f64 / lookups as f64;
    }

    let hist_p50 = |name: &str| registry.histogram(name, "").snapshot().quantile(0.5) as f64;
    let serve_failed = registry.counter("serve_requests_failed_total", "").value();
    let serve_rejected = registry.counter("serve_rejected_total", "").value();
    let request_ns_p50 = if workload.is_wire() {
        hist_p50("serve_request_ns")
    } else {
        0.0
    };
    env.shut_down();

    let path = out_dir().join(format!("spans-{}.tsv", workload.name()));
    if let Err(e) = tracer.write_to(&path) {
        eprintln!("could not write {}: {e}", path.display());
    }

    let per_read = |v: u64| v as f64 / acc.reads.max(1) as f64;
    let per_write = |v: u64| v as f64 / acc.writes.max(1) as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let [hits, misses, invalidations, replays, rebuilds, skips, morsels] = acc.counters;
    let mut sorted_ops = acc.op_ns.clone();
    sorted_ops.sort_unstable();
    // Medians: the untraced pass also pays for the cold start, which a mean
    // would book as negative tracing overhead.
    untraced.sort_unstable();
    let traced_op_ns = quantile_sorted(&sorted_ops, 0.5) as f64;
    let untraced_op_ns = quantile_sorted(&untraced, 0.5) as f64;
    let stage = |n: Name| acc.stage[n as usize].mean_us();
    let kind = |k: WriteKind| acc.write_by_kind[k as usize].mean_us();
    let writes_issued = side.as_ref().map_or(0, |s| s.next as u64);
    let attempted =
        baseline_reads + acc.reads + writes_issued + concurrent_attempted + check_failures;
    let f = &env.facts;

    let mut metrics: Vec<(&'static str, f64)> = vec![
        ("serve.req_decode_us", stage(Name::ReqDecode)),
        ("serve.resp_decode_us", stage(Name::RespDecode)),
        (
            "serve.transport_residual_us",
            if workload.is_wire() {
                acc.residual_ns as f64 / acc.reads.max(1) as f64 / 1e3
            } else {
                0.0
            },
        ),
        ("serve.request_ns_p50", request_ns_p50),
        ("serve.resp_encode_us", stage(Name::RespEncode)),
        ("serve.resp_bytes_per_op", per_read(acc.resp_bytes)),
        ("serve.rejected_total", serve_rejected as f64),
        ("serve.requests_failed_total", serve_failed as f64),
        ("sql.parse_us", stage(Name::Parse)),
        ("sql.lower_us", acc.lower.mean_us()),
        ("opt.plan_cold_us", acc.plan_cold.mean_us()),
        ("opt.stats_analyze_ms", f.analyze_ms),
        ("opt.stats_catch_up_us", acc.catch_up.mean_us()),
        ("query.plan_warm_us", acc.plan_warm.mean_us()),
        (
            "query.plan_cache_hit_ratio",
            ratio(hits as f64, (hits + misses + invalidations) as f64),
        ),
        (
            "query.plan_cache_invalidations_per_write",
            per_write(invalidations) * f64::from(acc.writes > 0),
        ),
        (
            "query.refresh_replays_per_write",
            per_write(replays) * f64::from(acc.writes > 0),
        ),
        ("query.refresh_rebuilds_total", rebuilds as f64),
        ("query.refresh_skips_total", skips as f64),
        (
            "query.refresh_us",
            if acc.read_after_write.n > 0 {
                acc.read_after_write.mean_us() - acc.read_steady.mean_us()
            } else {
                0.0
            },
        ),
    ];
    let exec_names = PER_LAYER
        .iter()
        .map(|m| m.0)
        .filter(|name| name.starts_with("query.exec_us."));
    for (name, sum) in exec_names.zip(&acc.exec_by_class) {
        metrics.push((name, sum.mean_us()));
    }
    metrics.extend([
        (
            "query.rows_examined_per_returned",
            ratio(acc.rows_examined as f64, acc.rows_returned as f64),
        ),
        ("query.exchange_morsels_per_op", per_read(morsels)),
        ("query.write_lock_wait_us", acc.lock_wait.mean_us()),
        ("index.sbt_build_ms", f.sbt_build_ms),
        ("index.sbt_search_us", sbt_search_us),
        ("index.sbt_node_reads_per_lookup", sbt_node_reads),
        ("index.sbt_apply_entry_us", acc.apply_entry.mean_us()),
        ("index.sbt_bytes", f.sbt_bytes as f64),
        ("index.baseline_bytes", f.baseline_bytes as f64),
        ("index.column_bytes", f.column_bytes as f64),
        ("core.load_ms", f.load_ms),
        ("core.link_instance_ms", f.link_ms),
        ("core.add_annotation_us", kind(WriteKind::AddShort)),
        ("core.add_long_annotation_us", kind(WriteKind::AddLong)),
        ("core.delete_annotation_us", kind(WriteKind::Delete)),
        ("core.update_tuple_us", kind(WriteKind::Update)),
        (
            "core.checkpoint_ms",
            ratio(
                acc.checkpoint_ms.iter().sum(),
                acc.checkpoint_ms.len() as f64,
            ),
        ),
        ("core.stall_max_ms", acc.stall_max_ns as f64 / 1e6),
        ("core.annotated_tuple_us", annotated_tuple_us),
        ("core.recover_ms", recover_ms),
        ("core.recover_ops_replayed", recover_ops),
        ("core.journal_len", journal_len as f64),
        ("core.journal_truncated_through", journal_truncated as f64),
        ("storage.phys_reads_per_op", per_read(acc.io.reads())),
        (
            "storage.logical_reads_per_op",
            per_read(acc.io.logical_reads()),
        ),
        ("storage.pool_hit_ratio", acc.io.hit_ratio()),
        (
            "storage.pool_evictions_per_op",
            per_read(acc.io.cache_evictions),
        ),
        ("storage.page_access_hit_ns", hit_ns),
        ("storage.page_access_miss_ns", miss_ns),
        (
            "storage.wal_bytes_per_write",
            per_write(acc.write_io.wal_bytes),
        ),
        (
            "storage.wal_forces_per_write",
            per_write(acc.write_io.wal_forces),
        ),
        (
            "storage.wal_append_ns_p50",
            if acc.writes > 0 {
                hist_p50("wal_append_ns")
            } else {
                0.0
            },
        ),
        (
            "storage.wal_fsync_ns_p50",
            if acc.writes > 0 {
                hist_p50("wal_fsync_ns")
            } else {
                0.0
            },
        ),
        (
            "storage.bytes_written_per_user_byte",
            ratio(
                (acc.write_io.wal_bytes
                    + acc.write_io.logical_writes() * instn_storage::PAGE_SIZE as u64)
                    as f64,
                acc.write_user_bytes as f64,
            ),
        ),
        ("storage.heap_pages", f.heap_pages as f64),
        ("storage.summary_pages", f.summary_pages as f64),
        ("mining.nb_classify_us", nb_classify_us),
        ("mining.snippet_us", snippet_us),
        (
            "obs.trace_overhead_share",
            1.0 - ratio(untraced_op_ns, traced_op_ns),
        ),
        (
            "trace.coverage_share",
            ratio(acc.covered_ns as f64, acc.op_ns.iter().sum::<u64>() as f64),
        ),
        ("trace.ops", (acc.reads + acc.writes) as f64),
        (
            "trace.op_p50_us",
            quantile_sorted(&sorted_ops, 0.50) as f64 / 1e3,
        ),
        (
            "trace.op_p99_us",
            quantile_sorted(&sorted_ops, 0.99) as f64 / 1e3,
        ),
        ("trace.speed_factor", speed.factor()),
        ("write_p50_ms", write_p50_ms),
        ("write_p95_ms", write_p95_ms),
        ("write_late_p95_ms", write_late_p95_ms),
        ("failed_share", ratio(failed as f64, attempted as f64)),
    ]);
    Report {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
    }
}
