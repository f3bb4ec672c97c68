//! Integration tests for the network serving layer: wire-level clients
//! against a real `Server` over loopback TCP.
//!
//! Covers the serving contract end-to-end: concurrent clients receive
//! byte-identical result payloads vs an in-process serial oracle,
//! admission control answers `Busy` fast, a deadline-exceeding request
//! times out while a concurrent one proceeds, a panicking statement comes
//! back as a structured error with the server (and the engine's index
//! registry) intact, an index one connection builds serves every
//! connection, and a graceful drain answers in-flight requests.

use std::time::{Duration, Instant};

use insightnotes::demo::demo_db;
use insightnotes::prelude::*;
use insightnotes::query::lower::lower_naive;
use insightnotes::serve::{
    is_error_code, statement_response, ClientError, ErrorCode, HandshakeStatus, Response, WireRow,
};
use insightnotes::sql::Statement;

const SELECT_DISEASE: &str =
    "SELECT * FROM Birds r WHERE r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') > 2";
const SELECT_ALL: &str = "SELECT id, common_name, family FROM Birds";

/// Start a server over a fresh demo database. DOP is pinned to 1 so
/// result order (and therefore the canonical payload bytes) is defined.
fn start_server(mut config: ServeConfig) -> ServerHandle {
    let (db, instances) = demo_db();
    let shared = SharedDatabase::new(db);
    shared.with_read(|db| db.metrics().set_enabled(true));
    config.exec_config.dop = 1;
    Server::start(shared, instances, "127.0.0.1:0", config).expect("bind loopback")
}

/// In-process serial oracle: run `stmt` through the same lowering and a
/// DOP-1 session, then encode the response exactly as the server would.
fn oracle_payload(stmt: &str) -> Vec<u8> {
    oracle_payload_after(&[], stmt)
}

/// Like [`oracle_payload`], but replays `alters` (the DDL the server-side
/// connection ran) against the oracle database first, so summaries and
/// registered indexes line up.
fn oracle_payload_after(alters: &[&str], stmt: &str) -> Vec<u8> {
    let (db, instances) = demo_db();
    let shared = SharedDatabase::new(db);
    let mut session = shared.session();
    session.exec_config.dop = 1;
    for alter in alters {
        let outcome = shared
            .with_write(|db| execute_statement(db, &instances, alter))
            .expect("oracle DDL binds");
        if let SqlOutcome::Altered(a) = outcome {
            if a.instance.is_some() && a.indexable {
                session
                    .register_summary_index(&a.name, a.table, &a.name, PointerMode::Backward)
                    .expect("oracle index builds");
            }
        }
    }
    let Ok(Statement::Select(sel)) = parse(stmt) else {
        panic!("oracle statements are SELECTs")
    };
    let (physical, columns) = session.with_ctx(|ctx| {
        let lowered = lower_select(ctx.db, &sel).expect("binds");
        let physical = lower_naive(ctx.db, &lowered.plan).expect("lowers");
        (physical, lowered.columns)
    });
    let rows = session.execute(&physical).expect("executes");
    Response::Rows {
        columns,
        rows: rows.iter().map(WireRow::from_tuple).collect(),
    }
    .encode()
}

#[test]
fn concurrent_clients_get_oracle_identical_payloads() {
    let server = start_server(ServeConfig {
        max_connections: 4,
        ..ServeConfig::default()
    });
    let addr = server.local_addr();
    let oracles = [oracle_payload(SELECT_DISEASE), oracle_payload(SELECT_ALL)];
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let oracles = oracles.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("admitted");
                for _ in 0..5 {
                    for (stmt, oracle) in [SELECT_DISEASE, SELECT_ALL].iter().zip(&oracles) {
                        let raw = client
                            .query_raw(stmt, Duration::ZERO)
                            .expect("query roundtrip");
                        assert_eq!(&raw, oracle, "payload bytes match the serial oracle");
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }
    server.shutdown().expect("drain");
}

#[test]
fn over_limit_connection_is_rejected_busy() {
    let server = start_server(ServeConfig {
        max_connections: 1,
        accept_backlog: 0,
        ..ServeConfig::default()
    });
    let addr = server.local_addr();
    let mut first = Client::connect(addr).expect("first connection admitted");
    first.ping().expect("served");
    // The single worker is occupied: the next connection must be answered
    // with a fast Busy handshake, not queued.
    match Client::connect(addr) {
        Err(ClientError::Rejected(HandshakeStatus::Busy)) => {}
        other => panic!("expected Busy rejection, got {other:?}"),
    }
    // Freeing the slot re-admits. The worker notices the close within its
    // poll slice; retry briefly rather than racing it.
    drop(first);
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut readmitted = loop {
        match Client::connect(addr) {
            Ok(c) => break c,
            Err(ClientError::Rejected(HandshakeStatus::Busy)) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) => panic!("unexpected error while re-admitting: {e}"),
        }
    };
    readmitted.ping().expect("served after slot freed");
    // The server counts what it did, and says so over the wire: the two
    // pings answered so far, and at least the one Busy handshake.
    let Response::Text(dump) = readmitted.query("\\metrics").expect("metrics roundtrip") else {
        panic!("\\metrics must answer text")
    };
    let samples = parse_prometheus(&dump).expect("wire metrics dump parses");
    let sample = |name: &str| samples.iter().find(|(s, _)| s == name).map(|(_, v)| *v);
    assert!(sample("serve_requests_total") >= Some(2.0), "{dump}");
    assert!(sample("serve_rejected_total") >= Some(1.0), "{dump}");
    drop(readmitted);
    server.shutdown().expect("drain");
}

/// Every serving knob, named: a new `ServeConfig` (or `ExecConfig`) field
/// fails to compile here until someone decides what it is for.
#[test]
fn serve_config_has_exactly_these_knobs() {
    let ServeConfig {
        max_connections: _,
        accept_backlog: _,
        default_deadline: _,
        read_timeout: _,
        write_timeout: _,
        exec_config: ExecConfig {
            dop: _,
            morsel_rows: _,
        },
        debug_statements,
        allow_remote_shutdown,
    } = ServeConfig::default();
    assert!(
        !debug_statements && !allow_remote_shutdown,
        "debug statements and remote shutdown are opt-in"
    );
}

#[test]
fn deadline_exceeded_while_concurrent_request_proceeds() {
    let server = start_server(ServeConfig {
        max_connections: 2,
        debug_statements: true,
        ..ServeConfig::default()
    });
    let addr = server.local_addr();
    let slow = std::thread::spawn(move || {
        let mut client = Client::connect(addr).expect("admitted");
        let started = Instant::now();
        let resp = client
            .query_deadline("\\sleep 2000", Duration::from_millis(100))
            .expect("roundtrip");
        (resp, started.elapsed())
    });
    // While the slow request burns its budget, a second connection is
    // served normally.
    let mut quick = Client::connect(addr).expect("admitted");
    let oracle = oracle_payload(SELECT_ALL);
    let raw = quick
        .query_raw(SELECT_ALL, Duration::ZERO)
        .expect("served concurrently");
    assert_eq!(raw, oracle);
    let (resp, elapsed) = slow.join().expect("slow client thread");
    assert!(
        is_error_code(&resp, ErrorCode::DeadlineExceeded),
        "expected DeadlineExceeded, got {resp:?}"
    );
    assert!(
        elapsed < Duration::from_millis(1500),
        "deadline cut the request short of its 2 s sleep (took {elapsed:?})"
    );
    server.shutdown().expect("drain");
}

#[test]
fn panicking_statement_is_contained_and_registry_survives() {
    let server = start_server(ServeConfig {
        max_connections: 2,
        debug_statements: true,
        ..ServeConfig::default()
    });
    let addr = server.local_addr();
    let mut client = Client::connect(addr).expect("admitted");
    // Register a summary index in the engine's registry, so a lost
    // registry would be observable.
    match client
        .query("ALTER TABLE Birds ADD INDEXABLE TextSummary1")
        .expect("roundtrip")
    {
        Response::Text(t) => assert!(t.contains("summary index registered"), "{t}"),
        other => panic!("ALTER failed: {other:?}"),
    }
    match client.query("\\registry").expect("roundtrip") {
        Response::Text(t) => assert_eq!(t, "1 indexes registered"),
        other => panic!("{other:?}"),
    }
    // The panic unwinds from inside the execution context and must come
    // back as a structured error.
    let resp = client.query("\\panic").expect("connection survives");
    assert!(
        is_error_code(&resp, ErrorCode::Panicked),
        "expected Panicked, got {resp:?}"
    );
    // Same connection, same session: the registry never left the engine.
    match client.query("\\registry").expect("roundtrip") {
        Response::Text(t) => assert_eq!(t, "1 indexes registered"),
        other => panic!("{other:?}"),
    }
    // The server still executes real queries, on this and new connections.
    let oracle = oracle_payload_after(
        &["ALTER TABLE Birds ADD INDEXABLE TextSummary1"],
        SELECT_DISEASE,
    );
    let raw = client
        .query_raw(SELECT_DISEASE, Duration::ZERO)
        .expect("still serving");
    assert_eq!(raw, oracle);
    let mut fresh = Client::connect(addr).expect("new connections admitted");
    fresh.ping().expect("served");
    server.shutdown().expect("drain");
}

#[test]
fn graceful_drain_answers_in_flight_request() {
    let server = start_server(ServeConfig {
        max_connections: 2,
        debug_statements: true,
        ..ServeConfig::default()
    });
    let addr = server.local_addr();
    let inflight = std::thread::spawn(move || {
        let mut client = Client::connect(addr).expect("admitted");
        client.query("\\sleep 300").expect("answered during drain")
    });
    // Let the request land, then drain while it is still sleeping.
    std::thread::sleep(Duration::from_millis(100));
    server.shutdown().expect("drain + checkpoint");
    match inflight.join().expect("client thread") {
        Response::Text(t) => assert_eq!(t, "slept 300 ms"),
        other => panic!("in-flight request dropped: {other:?}"),
    }
    // The listener is gone: new connections fail outright.
    assert!(Client::connect(addr).is_err());
}

/// The drain hands back the checkpoint image instead of claiming it wrote
/// one: DDL accepted over the wire survives a restore from it.
#[test]
fn shutdown_returns_a_restorable_checkpoint_image() {
    let server = start_server(ServeConfig::default());
    let mut client = Client::connect(server.local_addr()).expect("admitted");
    match client
        .query("ALTER TABLE Birds ADD TextSummary1")
        .expect("roundtrip")
    {
        Response::Text(t) => assert!(t.starts_with("ok"), "{t}"),
        other => panic!("ALTER failed: {other:?}"),
    }
    drop(client);
    let image = server.shutdown().expect("drain + checkpoint");
    let db = Database::restore(&image).expect("the image restores");
    let birds = db.table_id("Birds").expect("table survives");
    assert!(
        db.instance_by_name(birds, "TextSummary1").is_ok(),
        "the instance linked over the wire is in the image"
    );
}

#[test]
fn failed_statement_is_a_structured_error_not_a_disconnect() {
    let server = start_server(ServeConfig::default());
    let addr = server.local_addr();
    let mut client = Client::connect(addr).expect("admitted");
    match client.query("SELECT * FROM Nope").expect("roundtrip") {
        Response::Error { code, message } => {
            assert_eq!(code, ErrorCode::Bind);
            assert!(message.contains("Nope"), "{message}");
        }
        other => panic!("{other:?}"),
    }
    match client.query("SELEKT 1").expect("roundtrip") {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::Parse),
        other => panic!("{other:?}"),
    }
    // The connection is still usable afterwards.
    client.ping().expect("served");
    server.shutdown().expect("drain");
}

/// A statement nested past the parser's depth bound — 10 000 parentheses
/// in about 20 KB, or a 100 000-term `OR` chain in about 1.2 MB — is a parse
/// error on the 2 MB stack of the connection's worker, not an overflow that
/// aborts the server, and the connection answers its next query.
#[test]
fn too_deep_a_statement_is_a_parse_error_and_the_connection_serves_on() {
    let server = start_server(ServeConfig::default());
    let mut client = Client::connect(server.local_addr()).expect("admitted");
    let cmp = "r.id = 1";
    let oracle = oracle_payload(SELECT_ALL);
    for pred in [
        format!("{}{cmp}{}", "(".repeat(10_000), ")".repeat(10_000)),
        format!("{cmp}{}", format!(" OR {cmp}").repeat(100_000)),
    ] {
        let sql = format!("SELECT id FROM Birds r WHERE {pred}");
        match client.query(&sql).expect("roundtrip") {
            Response::Error { code, message } => {
                assert_eq!(code, ErrorCode::Parse);
                assert!(message.contains("deeper than"), "{message}");
            }
            other => panic!("{other:?}"),
        }
        let raw = client
            .query_raw(SELECT_ALL, Duration::ZERO)
            .expect("the connection still serves");
        assert_eq!(raw, oracle);
    }
    server.shutdown().expect("drain");
}

#[test]
fn prepared_statements_skip_parse_and_match_text_protocol() {
    let server = start_server(ServeConfig::default());
    let addr = server.local_addr();
    let mut client = Client::connect(addr).expect("admitted");
    let (handle, columns) = client.prepare(SELECT_ALL).expect("prepares");
    assert_eq!(columns, vec!["id", "common_name", "family"]);
    // Every prepared execution is byte-identical to the text protocol
    // (the encoding is canonical, so this is full result equality).
    let text = client.query_raw(SELECT_ALL, Duration::ZERO).expect("text");
    for _ in 0..3 {
        let via_handle = client
            .execute_prepared_raw(handle, Duration::ZERO)
            .expect("executes");
        assert_eq!(via_handle, text);
    }
    // Unknown and closed handles are structured errors, not disconnects.
    let resp = client.execute_prepared(handle + 1).expect("roundtrip");
    assert!(is_error_code(&resp, ErrorCode::UnknownHandle));
    client.close_prepared(handle).expect("closes");
    let resp = client.execute_prepared(handle).expect("roundtrip");
    assert!(is_error_code(&resp, ErrorCode::UnknownHandle));
    // Only SELECTs are preparable.
    let err = client.prepare("ANALYZE").expect_err("refused");
    assert!(matches!(err, ClientError::Protocol(_)));
    // The connection is still usable afterwards.
    client.ping().expect("served");
    server.shutdown().expect("drain");
}

#[test]
fn prepared_statement_replans_after_dml_never_stale_rows() {
    let (db, instances) = demo_db();
    let shared = SharedDatabase::new(db);
    let mut config = ServeConfig::default();
    config.exec_config.dop = 1;
    let server =
        Server::start(shared.clone(), instances, "127.0.0.1:0", config).expect("bind loopback");
    let mut client = Client::connect(server.local_addr()).expect("admitted");
    let (handle, _) = client.prepare(SELECT_ALL).expect("prepares");
    let before = match client.execute_prepared(handle).expect("executes") {
        Response::Rows { rows, .. } => rows.len(),
        other => panic!("expected rows: {other:?}"),
    };
    // DML lands behind the prepared handle's back, through the shared
    // engine the server serves from.
    shared.with_write(|db| {
        let birds = db.table_id("Birds").expect("demo table");
        db.insert_tuple(
            birds,
            vec![
                Value::Int(1_000),
                Value::Text("Late Arrival".into()),
                Value::Text("Anatidae".into()),
            ],
        )
        .expect("inserts");
    });
    // The journal stamp is revalidated on every execute. Whether the
    // insert keeps the cached plan (within the drift bound) or replans, the
    // plan reads the table as it is now.
    let after = match client.execute_prepared(handle).expect("executes") {
        Response::Rows { rows, .. } => rows.len(),
        other => panic!("expected rows: {other:?}"),
    };
    assert_eq!(
        after,
        before + 1,
        "prepared execution never serves stale rows"
    );
    server.shutdown().expect("drain");
}

/// Birds(id, habitat): 600 tuples with one note each, the first ten with a
/// disease annotation too, and the classifier `D` in the instance catalog,
/// not yet linked. Once `ADD INDEXABLE D` builds its Summary-BTree, the
/// tree beats a scan for `Disease >= 1` ([`SELECT_D`]).
fn sparse_db() -> (Database, std::collections::HashMap<String, InstanceKind>) {
    let mut db = Database::new();
    let schema = Schema::of(&[("id", ColumnType::Int), ("habitat", ColumnType::Text)]);
    let t = db.create_table("Birds", schema).expect("fresh database");
    for i in 0..600 {
        let habitat = Value::Text("reed beds and shallow freshwater margins; ".repeat(4));
        let oid = db
            .insert_tuple(t, vec![Value::Int(i), habitat])
            .expect("fits");
        let notes = [
            ("field station note", Category::Other),
            ("disease outbreak", Category::Disease),
        ];
        for (text, category) in &notes[..1 + usize::from(i < 10)] {
            db.add_annotation(t, text, *category, "u", vec![Attachment::row(oid)])
                .expect("fits");
        }
    }
    let mut model = NaiveBayes::new(vec!["Disease".into(), "Other".into()]);
    model.train("disease outbreak infection virus", "Disease");
    model.train("field station weather note", "Other");
    let instances = [("D".to_string(), InstanceKind::Classifier { model })].into();
    (db, instances)
}

const SELECT_D: &str =
    "SELECT * FROM Birds r WHERE r.$.getSummaryObject('D').getLabelValue('Disease') >= 1";

/// Indexes are catalog objects: the Summary-BTree connection one's
/// `ADD INDEXABLE` builds is the one connection two plans and executes
/// with, and connection one's `DROP` takes it away from connection two in
/// its next statement.
#[test]
fn an_index_built_over_one_connection_serves_every_connection() {
    let (db, instances) = sparse_db();
    let mut config = ServeConfig {
        max_connections: 2,
        debug_statements: true,
        ..ServeConfig::default()
    };
    config.exec_config.dop = 1;
    let server = Server::start(
        SharedDatabase::new(db),
        instances.clone(),
        "127.0.0.1:0",
        config,
    )
    .expect("bind loopback");
    let mut one = Client::connect(server.local_addr()).expect("admitted");
    let mut two = Client::connect(server.local_addr()).expect("admitted");
    // The oracle: a twin database driven in-process through
    // `run_statement`, through the same DDL.
    let (db, _) = sparse_db();
    let twin_db = SharedDatabase::new(db);
    let mut twin = twin_db.session();
    twin.exec_config.dop = 1;
    let mut oracle = |sql: &str| {
        let stmt = parse(sql).expect("parses");
        statement_response(run_statement(&mut twin, &instances, sql, &stmt)).encode()
    };
    let text = |client: &mut Client, sql: &str| match client.query(sql).expect("roundtrip") {
        Response::Text(t) => t,
        other => panic!("{sql}: {other:?}"),
    };

    let add = "ALTER TABLE Birds ADD INDEXABLE D";
    assert!(text(&mut one, add).contains("summary index registered"));
    oracle(add);
    let plan = text(&mut two, &format!("EXPLAIN {SELECT_D}"));
    assert!(plan.contains("SummaryIndexScan(D, Disease"), "{plan}");
    let raw = two.query_raw(SELECT_D, Duration::ZERO).expect("served");
    assert_eq!(raw, oracle(SELECT_D), "payload bytes match the oracle");

    let drop_d = "ALTER TABLE Birds DROP D";
    text(&mut one, drop_d);
    assert_eq!(text(&mut two, "\\registry"), "0 indexes registered");
    for sql in [
        "SELECT id FROM Birds WHERE id < 3",
        "EXPLAIN SELECT id FROM Birds WHERE id < 3",
        "EXPLAIN ANALYZE SELECT id FROM Birds WHERE id < 3",
    ] {
        let resp = two.query(sql).expect("roundtrip");
        assert!(!matches!(resp, Response::Error { .. }), "{sql}: {resp:?}");
    }
    // The statement that ran through the index is replanned without it: the
    // instance is gone, so no tuple carries its object.
    let plan = text(&mut two, &format!("EXPLAIN {SELECT_D}"));
    assert!(!plan.contains("SummaryIndexScan"), "{plan}");
    match two.query(SELECT_D).expect("roundtrip") {
        Response::Rows { rows, .. } => assert!(rows.is_empty()),
        other => panic!("{other:?}"),
    }
    server.shutdown().expect("drain");
}

const ZOOM: &str = "ZOOM IN ON ClassBird1 OF Birds TUPLE 8 LABEL 'Disease'";

/// A wire payload with `EXPLAIN ANALYZE`'s wall-clock figure blanked: the
/// one field of any response that differs between two identical runs.
fn without_time(payload: &[u8]) -> Vec<u8> {
    match Response::decode(payload).expect("well-formed payload") {
        Response::Text(text) => text
            .lines()
            .map(|l| l.split("  time: ").next().expect("split yields a head"))
            .collect::<Vec<_>>()
            .join("\n")
            .into_bytes(),
        _ => payload.to_vec(),
    }
}

#[test]
fn every_statement_kind_answers_what_the_front_door_returns() {
    let server = start_server(ServeConfig::default());
    let mut client = Client::connect(server.local_addr()).expect("admitted");
    // The twin: a second demo database driven in-process through
    // `run_statement`, in the same order, so plan-cache verdicts, journal
    // state and registered indexes line up statement for statement.
    let (db, instances) = demo_db();
    let shared = SharedDatabase::new(db);
    shared.with_read(|db| db.metrics().set_enabled(true));
    let mut twin = shared.session();
    twin.exec_config.dop = 1;
    let explain = format!("EXPLAIN {SELECT_DISEASE}");
    let explain_analyze = format!("EXPLAIN ANALYZE {SELECT_DISEASE}");
    let cases = [
        (SELECT_DISEASE, None),
        (explain.as_str(), None),
        (explain_analyze.as_str(), None),
        ("ANALYZE", None),
        (ZOOM, None),
        ("ALTER TABLE Birds ADD INDEXABLE TextSummary1", None),
        // The index the ALTER registered serves this session from now on.
        (explain_analyze.as_str(), None),
        ("ALTER TABLE Birds DROP TextSummary1", None),
        ("SELECT id FROM Birds WHERE id = #", Some(ErrorCode::Parse)),
        ("SELECT * FROM Nope", Some(ErrorCode::Bind)),
    ];
    for (stmt, error) in cases {
        let wire = client
            .query_raw(stmt, Duration::ZERO)
            .expect("query roundtrip");
        let local = match parse(stmt) {
            Ok(parsed) => run_statement(&mut twin, &instances, stmt, &parsed),
            Err(e) => Err(e.into()),
        };
        let local = statement_response(local);
        match error {
            Some(code) => assert!(is_error_code(&local, code), "{stmt}: {local:?}"),
            None => assert!(
                !matches!(local, Response::Error { .. }),
                "{stmt}: {local:?}"
            ),
        }
        assert_eq!(
            String::from_utf8_lossy(&without_time(&wire)),
            String::from_utf8_lossy(&without_time(&local.encode())),
            "{stmt}"
        );
    }
    server.shutdown().expect("drain");
}

#[test]
fn poisoned_engine_is_engine_poisoned_for_every_statement_kind() {
    let (db, instances) = demo_db();
    let shared = SharedDatabase::new(db);
    let server = Server::start(
        shared.clone(),
        instances,
        "127.0.0.1:0",
        ServeConfig::default(),
    )
    .expect("bind loopback");
    let mut client = Client::connect(server.local_addr()).expect("admitted");
    let (handle, _) = client.prepare(SELECT_ALL).expect("prepares");
    // A writer panics while holding the exclusive guard.
    let poisoner = shared.clone();
    std::thread::spawn(move || poisoner.with_write(|_| panic!("writer dies mid-mutation")))
        .join()
        .expect_err("the writer panicked");
    let explain = format!("EXPLAIN {SELECT_ALL}");
    let explain_analyze = format!("EXPLAIN ANALYZE {SELECT_ALL}");
    for stmt in [
        SELECT_ALL,
        explain.as_str(),
        explain_analyze.as_str(),
        "ANALYZE",
        ZOOM,
        "ALTER TABLE Birds ADD TextSummary1",
    ] {
        let resp = client.query(stmt).expect("roundtrip");
        assert!(
            is_error_code(&resp, ErrorCode::EnginePoisoned),
            "{stmt}: {resp:?}"
        );
    }
    let resp = client.execute_prepared(handle).expect("roundtrip");
    assert!(
        is_error_code(&resp, ErrorCode::EnginePoisoned),
        "prepared: {resp:?}"
    );
    // No checkpoint is possible; dropping the handle still joins every thread.
    drop(server);
}

#[test]
fn zoom_is_served_beside_an_open_read_guard() {
    let (db, instances) = demo_db();
    let shared = SharedDatabase::new(db);
    let server = Server::start(
        shared.clone(),
        instances,
        "127.0.0.1:0",
        ServeConfig::default(),
    )
    .expect("bind loopback");
    let mut client = Client::connect(server.local_addr()).expect("admitted");
    // Bound the wait: a ZOOM that asked for the exclusive guard would block
    // behind `held` forever.
    client
        .set_response_timeout(Some(Duration::from_secs(5)))
        .expect("socket option");
    let held = shared.read();
    match client
        .query(ZOOM)
        .expect("ZOOM IN must not wait for readers")
    {
        Response::Text(t) => assert!(t.ends_with("(4 annotations)\n"), "{t}"),
        other => panic!("{other:?}"),
    }
    drop(held);
    server.shutdown().expect("drain");
}
