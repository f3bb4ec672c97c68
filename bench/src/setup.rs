//! Per-workload set-up: corpus, pool size, server or sessions, indexes/DDL,
//! statement catalogue, regime self-check, oracle and space accounting.
//! Everything here is what `setup_s` times.

use std::sync::Arc;
use std::time::Instant;

use instn_core::db::Database;
use instn_core::zoom::{zoom_in, ZoomTarget};
use instn_index::{BaselineIndex, PointerMode, SummaryBTree};
use instn_opt::Statistics;
use instn_query::{ColumnIndex, ExecConfig, Session, SharedDatabase};
use instn_serve::{Client, Response, ServeConfig, Server, ServerHandle};
use instn_sql::plan_select;
use instn_storage::wal::Wal;
use instn_storage::{Oid, TableId, PAGE_SIZE};

use crate::calib::SpeedLog;
use crate::corpus::{self, CLASSBIRD1_LABELS, CLASSBIRD2_LABELS};
use crate::oracle::{render_zoom, Oracle};
use crate::statements::{self, Class, LabelHistogram, Slot, Stmt, ZoomPick};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    WireScan,
    WireShort,
    EmbeddedAnalytic,
    EmbeddedRw,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        Some(match name {
            "wire_scan" => Workload::WireScan,
            "wire_short" => Workload::WireShort,
            "embedded_analytic" => Workload::EmbeddedAnalytic,
            "embedded_rw" => Workload::EmbeddedRw,
            _ => return None,
        })
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::WireScan => "wire_scan",
            Workload::WireShort => "wire_short",
            Workload::EmbeddedAnalytic => "embedded_analytic",
            Workload::EmbeddedRw => "embedded_rw",
        }
    }

    pub fn is_wire(self) -> bool {
        matches!(self, Workload::WireScan | Workload::WireShort)
    }

    /// Whether the run pins the whole process to one CPU (see `affinity`).
    /// `wire_short`'s round-trip is thread hand-offs, and it never has two
    /// threads runnable at once. `embedded_analytic`'s two Exchange workers
    /// get two cores' worth of a 2-vCPU shared VM only when the host places
    /// the vCPUs on separate cores: for minutes at a stretch its scans took
    /// 2.7 ms, then 4.4 ms — their one-core time — on the same binary. On
    /// one CPU it measures what the DOP-2 path costs in all (thread spawn,
    /// morsel queue, gather), steadily; the speed-up itself is the host's.
    pub fn shares_one_cpu(self) -> bool {
        matches!(self, Workload::WireShort | Workload::EmbeddedAnalytic)
    }

    /// Closed-loop read clients (wire connections or in-process sessions).
    pub fn read_clients(self) -> usize {
        match self {
            Workload::WireScan => 2,
            _ => 1,
        }
    }

    /// Executor DOP: the wire workloads pin the server to 1, and
    /// `embedded_analytic` to 2, so the plans do not depend on the host's
    /// core count through `ExecConfig::default()`.
    pub fn dop(self) -> usize {
        match self {
            Workload::EmbeddedAnalytic => 2,
            _ => 1,
        }
    }
}

/// A pool this large holds the whole database: every access after the
/// first is a hit.
pub const POOL_FITS_ALL: usize = 1 << 20;
/// `wire_short` tail: distinct normalized texts beyond the hot set.
pub const TAIL_TEXTS: usize = 512;
/// The server caps a connection at 256 prepared handles; the hot SELECTs
/// and this many tail SELECTs are prepared, the rest of the tail is text.
const PREPARED_TAIL: usize = 240;

/// Set-up measurements the per-layer report repeats.
#[derive(Debug, Clone, Default)]
pub struct Facts {
    pub load_ms: f64,
    pub link_ms: f64,
    pub analyze_ms: f64,
    pub sbt_build_ms: f64,
    pub user_bytes: u64,
    pub stored_bytes: u64,
    pub heap_pages: u64,
    pub summary_pages: u64,
    pub sbt_bytes: u64,
    pub baseline_bytes: u64,
    pub column_bytes: u64,
}

/// One finished set-up.
pub struct Env {
    pub workload: Workload,
    pub seed: u64,
    pub shared: SharedDatabase,
    pub birds: TableId,
    pub bird_oids: Vec<Oid>,
    pub stmts: Vec<Stmt>,
    pub oracle: Vec<Oracle>,
    pub schedule: Vec<Slot>,
    pub server: Option<ServerHandle>,
    pub clients: Vec<Client>,
    /// Prepared handle per statement on `clients[0]` (`wire_short`).
    pub handles: Vec<Option<u64>>,
    /// The read sessions of the embedded workloads.
    pub sessions: Vec<Session>,
    /// A bench-owned Summary-BTree (same build as the one the workload's
    /// session holds) for the index layer's direct probes.
    pub probe_sbt: Option<SummaryBTree>,
    pub wal: Option<Arc<Wal>>,
    /// `embedded_rw`: the snapshot of the last checkpoint.
    pub last_checkpoint: Vec<u8>,
    pub facts: Facts,
}

impl Env {
    /// The instance the `sbt_*` classes probe, if the workload has any.
    pub fn sbt_instance(&self) -> Option<&'static str> {
        match self.workload {
            Workload::WireShort => Some("ClassBird2"),
            Workload::EmbeddedRw => Some("ClassBird1"),
            _ => None,
        }
    }

    /// Stop the server (if any), answering in-flight requests first.
    pub fn shut_down(&mut self) {
        self.clients.clear();
        if let Some(server) = self.server.take() {
            server.shutdown().expect("server drains");
        }
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// A fresh session configured like the workload's own (same DOP, plan cache
/// on, no index yet).
pub fn plain_session(shared: &SharedDatabase, dop: usize) -> Session {
    let mut s = shared.session();
    s.exec_config = ExecConfig {
        dop,
        ..ExecConfig::default()
    };
    s.plan_cache.set_enabled(true);
    s
}

fn label_histograms(
    shared: &SharedDatabase,
    birds: TableId,
    instance: &str,
    labels: &[&'static str],
) -> Vec<LabelHistogram> {
    let rows = shared
        .with_read(|db| db.scan_annotated(birds))
        .expect("Birds scans");
    LabelHistogram::collect(&rows, instance, labels)
}

/// Every `(tuple, label)` a `ZOOM IN … LABEL` can target, with the size of
/// what the server would render for it.
fn zoom_picks(
    shared: &SharedDatabase,
    birds: TableId,
    bird_oids: &[Oid],
    instance: &str,
    labels: &[&'static str],
) -> Vec<ZoomPick> {
    shared.with_read(|db| {
        let mut picks = Vec::with_capacity(bird_oids.len() * labels.len());
        for &oid in bird_oids {
            for &label in labels {
                let target = ZoomTarget::ClassLabel(label.to_string());
                let annots =
                    zoom_in(db, birds, oid, instance, &target).expect("zoom target exists");
                let bytes = render_zoom(&annots).len();
                picks.push(ZoomPick { oid, label, bytes });
            }
        }
        picks
    })
}

/// Entry bytes of a column index (`ColumnIndex` exposes no footprint).
fn column_index_bytes(idx: &ColumnIndex) -> u64 {
    idx.dump_entries()
        .iter()
        .map(|(key, _)| key.len() as u64 + 8)
        .sum()
}

fn stored_pages(db: &Database, birds: TableId, synonyms: TableId) -> (u64, u64) {
    let heap = db.table(birds).expect("Birds").page_count()
        + db.table(synonyms).expect("Synonyms").page_count()
        + db.annotation_store(birds).page_count();
    (heap as u64, db.summary_storage(birds).page_count() as u64)
}

pub fn set_up(workload: Workload, seed: u64, speed: &mut SpeedLog) -> Env {
    let c = corpus::build(seed, corpus::BIRDS, POOL_FITS_ALL, speed);
    let mut facts = Facts {
        load_ms: c.load_ms,
        link_ms: c.link_ms,
        user_bytes: c.user_bytes,
        ..Facts::default()
    };
    let (birds, synonyms, bird_oids) = (c.birds, c.synonyms, c.bird_oids);
    let mut db = c.db;

    // wire_scan: the pool holds a quarter of the Birds heap + summary pages,
    // so a scan's working set never fits and nothing survives from one scan
    // to the next: every page of a scan is a physical read.
    let scan_pages =
        db.table(birds).expect("Birds").page_count() + db.summary_storage(birds).page_count();
    db.set_cache_capacity(match workload {
        Workload::WireScan => (scan_pages / 4).max(1),
        _ => POOL_FITS_ALL,
    });

    let wal = (workload == Workload::EmbeddedRw).then(|| db.enable_wal());
    let shared = SharedDatabase::new(db);
    let dop = workload.dop();

    let mut server = None;
    let mut clients = Vec::new();
    if workload.is_wire() {
        // What `insightnotes-server` does at boot, with the pool of worker
        // threads cut to the client count (at most nproc).
        shared.with_read(|db| db.metrics().set_enabled(true));
        let config = ServeConfig {
            max_connections: workload.read_clients(),
            exec_config: ExecConfig {
                dop,
                ..ExecConfig::default()
            },
            ..ServeConfig::default()
        };
        let handle = Server::start(
            shared.clone(),
            corpus::instance_catalogue(seed),
            "127.0.0.1:0",
            config,
        )
        .expect("bind loopback");
        for _ in 0..workload.read_clients() {
            clients.push(Client::connect(handle.local_addr()).expect("admitted"));
        }
        server = Some(handle);
    }
    if workload == Workload::WireShort {
        // The paper's DDL, on the connection: the only way a wire session
        // gets a Summary-BTree.
        match clients[0].query("ALTER TABLE Birds ADD INDEXABLE ClassBird2") {
            Ok(Response::Text(ack)) if ack.contains("summary index registered") => {}
            other => panic!("ALTER TABLE … ADD INDEXABLE failed: {other:?}"),
        }
    }

    speed.tick();
    let started = Instant::now();
    // The optimizer's ANALYZE pass: part of what a user pays to set up.
    shared
        .with_read(Statistics::analyze)
        .expect("statistics collect");
    facts.analyze_ms = ms_since(started);

    let mut sessions = Vec::new();
    let mut probe_sbt = None;
    let mut handles = Vec::new();
    let (stmts, schedule) = match workload {
        Workload::WireScan | Workload::EmbeddedAnalytic => {
            let hists = label_histograms(&shared, birds, "ClassBird1", &CLASSBIRD1_LABELS);
            let stmts = statements::scan_catalogue(&hists, bird_oids.len());
            let schedule = statements::scan_schedule(&stmts, seed);
            if workload == Workload::EmbeddedAnalytic {
                sessions.push(plain_session(&shared, dop));
            }
            (stmts, schedule)
        }
        Workload::WireShort => {
            let hists = label_histograms(&shared, birds, "ClassBird2", &CLASSBIRD2_LABELS);
            let zooms = zoom_picks(&shared, birds, &bird_oids, "ClassBird2", &CLASSBIRD2_LABELS);
            let cat = statements::sbt_catalogue(&hists, zooms, "ClassBird2", 2, TAIL_TEXTS);
            let started = Instant::now();
            let sbt = shared
                .with_read(|db| {
                    SummaryBTree::bulk_build(db, birds, "ClassBird2", PointerMode::Backward)
                })
                .expect("probe index builds");
            facts.sbt_build_ms = ms_since(started);
            facts.sbt_bytes = sbt.used_bytes() as u64;
            probe_sbt = Some(sbt);
            let mut tail_prepared = 0;
            for (i, stmt) in cat.stmts.iter().enumerate() {
                let wanted =
                    stmt.select.is_some() && (i < cat.hot || tail_prepared < PREPARED_TAIL);
                tail_prepared += usize::from(wanted && i >= cat.hot);
                handles.push(wanted.then(|| clients[0].prepare(&stmt.text).expect("prepares").0));
            }
            let preparable: Vec<bool> = handles.iter().map(Option::is_some).collect();
            let schedule = statements::short_schedule(&cat, &preparable, seed);
            (cat.stmts, schedule)
        }
        Workload::EmbeddedRw => {
            let hists = label_histograms(&shared, birds, "ClassBird1", &CLASSBIRD1_LABELS);
            let cat = statements::sbt_catalogue(&hists, Vec::new(), "ClassBird1", 4, 0);
            let mut reader = plain_session(&shared, dop);
            let started = Instant::now();
            reader
                .register_summary_index("ClassBird1", birds, "ClassBird1", PointerMode::Backward)
                .expect("summary index builds");
            facts.sbt_build_ms = ms_since(started);
            reader
                .register_baseline_index("ClassBird1_baseline", birds, "ClassBird1")
                .expect("baseline index builds");
            reader
                .register_column_index(birds, 0)
                .expect("column index builds");
            sessions.push(reader);
            // Bench-owned twins, for footprints and the index layer's
            // direct probes (a session's registry is not reachable).
            shared.with_read(|db| {
                let sbt = SummaryBTree::bulk_build(db, birds, "ClassBird1", PointerMode::Backward)
                    .expect("probe index builds");
                facts.sbt_bytes = sbt.used_bytes() as u64;
                probe_sbt = Some(sbt);
                let bl = BaselineIndex::bulk_build(db, birds, "ClassBird1").expect("baseline");
                facts.baseline_bytes = (bl.replica_bytes() + bl.index_bytes()) as u64;
                let col = ColumnIndex::build(db, birds, 0).expect("column index");
                facts.column_bytes = column_index_bytes(&col);
            });
            let schedule = statements::rw_schedule(&cat.stmts, seed);
            (cat.stmts, schedule)
        }
    };

    speed.tick();
    // Regime self-check: an optimizer change must not silently move a class
    // to a different layer. The wire workloads ask the serving session
    // itself (EXPLAIN shares the SELECT's plan-cache entry).
    for stmt in stmts.iter().filter(|s| s.select.is_some()) {
        let plan = if workload.is_wire() {
            match clients[0].query(&format!("EXPLAIN {}", stmt.text)) {
                Ok(Response::Text(plan)) => plan,
                other => panic!("EXPLAIN failed for {}: {other:?}", stmt.text),
            }
        } else {
            let sel = stmt.select.as_ref().expect("filtered above");
            let planned = plan_select(&mut sessions[0], sel).expect("catalogue statement plans");
            planned.plan.plan.to_string()
        };
        assert!(
            stmt.class.in_regime(&plan),
            "{} left its regime ({}):\n{plan}",
            stmt.class.name(),
            stmt.text
        );
    }

    speed.tick();
    // One serial oracle session per core: the statements are independent.
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let oracle: Vec<Oracle> = std::thread::scope(|scope| {
        let threads: Vec<_> = stmts
            .chunks(stmts.len().div_ceil(workers))
            .map(|part| {
                let shared = &shared;
                scope.spawn(move || {
                    let mut serial = plain_session(shared, 1);
                    part.iter()
                        .map(|stmt| Oracle::compute(shared, &mut serial, stmt))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        threads
            .into_iter()
            .flat_map(|t| t.join().expect("oracle thread"))
            .collect()
    });
    speed.tick();
    // An empty answer would make the byte comparison vacuous for the class.
    for class in [Class::ScanEq, Class::SbtEq, Class::ScanBig, Class::ScanJoin] {
        let mut of_class = stmts.iter().zip(&oracle).filter(|(s, _)| s.class == class);
        assert!(
            of_class.clone().next().is_none() || of_class.any(|(_, o)| !o.rows.is_empty()),
            "every {} statement returns no row",
            class.name()
        );
    }

    let mut last_checkpoint = Vec::new();
    if workload == Workload::EmbeddedRw {
        last_checkpoint = shared.write().checkpoint().expect("checkpoint");
    }

    shared.with_read(|db| {
        let (heap, summary) = stored_pages(db, birds, synonyms);
        facts.heap_pages = heap;
        facts.summary_pages = summary;
        let wal_bytes = wal.as_ref().map_or(0, |w| w.durable_len());
        facts.stored_bytes = (heap + summary) * PAGE_SIZE as u64
            + facts.sbt_bytes
            + facts.baseline_bytes
            + facts.column_bytes
            + wal_bytes;
    });

    Env {
        workload,
        seed,
        shared,
        birds,
        bird_oids,
        stmts,
        oracle,
        schedule,
        server,
        clients,
        handles,
        sessions,
        probe_sbt,
        wal,
        last_checkpoint,
        facts,
    }
}

/// Run [`set_up`] `reps` times, tearing each one down before the next, and
/// keep the last. Returns it with every repetition's time at reference
/// speed (wall time outside the calibration kernel ÷ the repetition's speed
/// factor), in seconds.
pub fn set_up_repeated(workload: Workload, seed: u64, reps: usize) -> (Env, Vec<f64>) {
    let mut times = Vec::with_capacity(reps);
    let mut kept: Option<Env> = None;
    for _ in 0..reps.max(1) {
        if let Some(mut prev) = kept.take() {
            prev.shut_down();
        }
        let mut speed = SpeedLog::default();
        let started = Instant::now();
        kept = Some(set_up(workload, seed, &mut speed));
        speed.tick();
        let wall = started.elapsed() - speed.spent();
        times.push(wall.as_secs_f64() / speed.factor());
    }
    (kept.expect("at least one repetition"), times)
}
