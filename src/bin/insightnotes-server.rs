//! The network server binary: the demo Birds database (or a `\save`d
//! image) behind the instn-serve wire protocol.
//!
//! ```text
//! cargo run --release --bin insightnotes-server -- --addr 127.0.0.1:7878
//! ```
//!
//! Options:
//!
//! * `--addr <host:port>` — listen address (default `127.0.0.1:7878`;
//!   port `0` picks a free port, printed at startup),
//! * `--load <file>` — serve a database image written by the shell's
//!   `\save` instead of the demo data,
//! * `--max-conns <N>` — worker threads / concurrently served
//!   connections (default 8),
//! * `--backlog <N>` — connections allowed to queue beyond the workers
//!   before admission control answers `Busy` (default 16),
//! * `--deadline-ms <N>` — default per-request wall-clock budget
//!   (default 30000),
//! * `--debug` — enable the `\panic` / `\sleep` / `\registry` debug
//!   statements (tests and demos only),
//! * `--remote-shutdown` — honor the wire-level `Shutdown` request.
//!
//! There is no signal handling in this build (no libc dependency):
//! shutdown is `quit` (or end-of-file) on stdin, or a remote `Shutdown`
//! request when `--remote-shutdown` is set. Either way the server drains
//! gracefully: in-flight requests are answered, then the engine takes a
//! checkpoint image. Nothing is written to disk, so writes accepted over
//! the wire are gone when the process exits.

use std::io::BufRead;
use std::sync::mpsc;
use std::time::Duration;

use insightnotes::demo::demo_db;
use insightnotes::prelude::*;

fn usage() -> ! {
    eprintln!(
        "usage: insightnotes-server [--addr <host:port>] [--load <file>] [--max-conns <N>]\n\
         \x20                          [--backlog <N>] [--deadline-ms <N>] [--debug]\n\
         \x20                          [--remote-shutdown]"
    );
    std::process::exit(2);
}

fn main() {
    let mut addr = "127.0.0.1:7878".to_string();
    let mut load: Option<String> = None;
    let mut config = ServeConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                usage()
            })
        };
        match arg.as_str() {
            "--addr" => addr = value("--addr"),
            "--load" => load = Some(value("--load")),
            "--max-conns" => {
                config.max_connections = value("--max-conns").parse().unwrap_or_else(|_| usage())
            }
            "--backlog" => {
                config.accept_backlog = value("--backlog").parse().unwrap_or_else(|_| usage())
            }
            "--deadline-ms" => {
                config.default_deadline = Duration::from_millis(
                    value("--deadline-ms").parse().unwrap_or_else(|_| usage()),
                )
            }
            "--debug" => config.debug_statements = true,
            "--remote-shutdown" => config.allow_remote_shutdown = true,
            _ => usage(),
        }
    }

    let (db, instances) = match &load {
        None => demo_db(),
        Some(path) => {
            let bytes = std::fs::read(path).unwrap_or_else(|e| {
                eprintln!("cannot read {path}: {e}");
                std::process::exit(1);
            });
            let db = Database::restore(&bytes).unwrap_or_else(|e| {
                eprintln!("cannot restore {path}: {e}");
                std::process::exit(1);
            });
            // Instance definitions (trained models) are not part of the
            // image; serve the demo catalog so ALTER TABLE still works.
            let (_, instances) = demo_db();
            (db, instances)
        }
    };
    let shared = SharedDatabase::new(db);
    shared.with_read(|db| db.metrics().set_enabled(true));
    let handle = Server::start(shared, instances, &addr, config).unwrap_or_else(|e| {
        eprintln!("cannot bind {addr}: {e}");
        std::process::exit(1);
    });
    println!("insightnotes-server listening on {}", handle.local_addr());
    println!("type 'quit' (or close stdin) for a graceful drain");

    // Stdin watcher: lets the main thread poll for a remote-initiated
    // drain while still reacting to `quit`/EOF promptly.
    let (tx, rx) = mpsc::channel::<()>();
    std::thread::spawn(move || {
        let stdin = std::io::stdin();
        for line in stdin.lock().lines() {
            match line {
                Ok(l) if l.trim().eq_ignore_ascii_case("quit") || l.trim() == "\\q" => break,
                Ok(_) => continue,
                Err(_) => break,
            }
        }
        let _ = tx.send(());
    });
    loop {
        match rx.recv_timeout(Duration::from_millis(200)) {
            Ok(()) | Err(mpsc::RecvTimeoutError::Disconnected) => break,
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if handle.is_draining() {
                    break;
                }
            }
        }
    }
    println!("draining…");
    match handle.shutdown() {
        Ok(image) => println!(
            "drained; {} byte checkpoint image not saved (no disk storage); bye",
            image.len()
        ),
        Err(e) => {
            eprintln!("drain failed: {e}");
            std::process::exit(1);
        }
    }
}
