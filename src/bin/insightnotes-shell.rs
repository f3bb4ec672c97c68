//! An interactive shell over the extended SQL front end.
//!
//! ```text
//! cargo run --bin insightnotes-shell            # demo birds database
//! echo "SELECT * FROM Birds LIMIT 3;" | cargo run --bin insightnotes-shell
//! ```
//!
//! The shell boots a small demo database (Birds + synonyms, two summary
//! instances, a Summary-BTree) and reads one statement per line:
//! `SELECT` (with `$` method chains, `DISTINCT`, `ORDER BY`, `LIMIT`),
//! `EXPLAIN [ANALYZE] SELECT`, `ANALYZE`, `ALTER TABLE … ADD [INDEXABLE]
//! <Instance>`,
//! `ALTER TABLE … DROP <Instance>`, and
//! `ZOOM IN ON <Instance> OF <Table> TUPLE <oid> [LABEL 'x' | REP i]`.

use std::io::{BufRead, Write};

use insightnotes::demo::demo_db;
use insightnotes::prelude::*;

/// A recognized `\set` command.
#[derive(Debug, PartialEq, Eq)]
enum SetCmd {
    /// `\set dop <N>` — degree of parallelism (0 = auto).
    Dop(usize),
    /// `\set slowlog <ms>` — slow-query capture threshold.
    Slowlog(u64),
    /// `\set` with an unknown key or a malformed value: print usage.
    Usage,
}

/// Parse a `\set …` line. Returns `None` when `line` is not a `\set`
/// command *at a word boundary* — `\setx …` is some other backslash
/// command, not a setting. Keys are matched as whole words too, so
/// `\set dop5` is an unknown key (usage), not `dop = 5`.
fn parse_set(line: &str) -> Option<SetCmd> {
    let rest = line.strip_prefix("\\set")?;
    if !rest.is_empty() && !rest.starts_with(char::is_whitespace) {
        return None;
    }
    let mut words = rest.split_whitespace();
    let cmd = match (words.next(), words.next(), words.next()) {
        (Some("dop"), Some(n), None) => n.parse().map(SetCmd::Dop).unwrap_or(SetCmd::Usage),
        (Some("slowlog"), Some(ms), None) => {
            ms.parse().map(SetCmd::Slowlog).unwrap_or(SetCmd::Usage)
        }
        _ => SetCmd::Usage,
    };
    Some(cmd)
}

const SET_USAGE: &str = "usage: \\set dop <N>       (0 = available cores)\n       \
                         \\set slowlog <ms>  (capture queries at or above <ms>)";

fn main() {
    let (db, registry) = demo_db();
    // The shell serves through the multi-session layer: every statement
    // runs through a Session (consistent snapshot + owned index registry),
    // and only DDL takes the exclusive guard. A second shell thread could
    // clone `shared` and serve concurrently.
    let mut shared = SharedDatabase::new(db);
    // Observability on for the interactive engine: buffer-pool, WAL,
    // index-maintenance, and per-session counters are live from the first
    // statement (`\metrics` to dump, `\set slowlog <ms>` to arm capture).
    shared.with_read(|db| db.metrics().set_enabled(true));
    let mut session = shared.session();
    let interactive = std::io::IsTerminal::is_terminal(&std::io::stdin());
    if interactive {
        println!("insightnotes-shell — demo Birds database loaded (10 tuples).");
        println!("Statements end at end-of-line. Try:");
        println!("  SELECT * FROM Birds r WHERE r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') > 2;");
        println!("  EXPLAIN SELECT id FROM Birds ORDER BY $.getSummaryObject('ClassBird1').getLabelValue('Disease') DESC;");
        println!("  EXPLAIN ANALYZE SELECT * FROM Birds r WHERE r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') > 2;");
        println!("  ZOOM IN ON ClassBird1 OF Birds TUPLE 8 LABEL 'Disease';");
        println!("  \\set dop <N> to run eligible scans across N workers (0 = auto).");
        println!("  \\metrics to dump engine metrics (Prometheus text format).");
        println!("  \\set slowlog <ms> to capture slow queries, \\slowlog to list them.");
        println!("  \\plancache [on|off|clear] to inspect or toggle the plan cache.");
        println!("  \\save <file> / \\load <file> to persist, \\q to quit.");
    }
    let stdin = std::io::stdin();
    loop {
        if interactive {
            print!("insightnotes> ");
            std::io::stdout().flush().ok();
        }
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) => {
                eprintln!("read error: {e}");
                break;
            }
        }
        let line = line.trim();
        if line.is_empty() || line.starts_with("--") {
            continue;
        }
        if line == "\\q" || line.eq_ignore_ascii_case("quit") || line.eq_ignore_ascii_case("exit") {
            break;
        }
        match parse_set(line) {
            Some(SetCmd::Dop(0)) => {
                session.exec_config.dop = default_dop();
                println!("dop = {} (auto)", session.exec_config.dop);
                continue;
            }
            Some(SetCmd::Dop(n)) => {
                session.exec_config.dop = n;
                println!("dop = {n}");
                continue;
            }
            Some(SetCmd::Slowlog(ms)) => {
                shared.with_read(|db| db.metrics().slow_log().set_threshold_ms(ms));
                println!("slow-query log captures queries ≥ {ms} ms");
                continue;
            }
            Some(SetCmd::Usage) => {
                eprintln!("{SET_USAGE}");
                continue;
            }
            None => {} // not a \set command — fall through
        }
        if line == "\\metrics" {
            print!(
                "{}",
                shared.with_read(|db| db.metrics().render_prometheus())
            );
            continue;
        }
        if line == "\\slowlog" {
            print!(
                "{}",
                shared.with_read(|db| db.metrics().slow_log().render())
            );
            continue;
        }
        if line == "\\slowlog clear" {
            shared.with_read(|db| db.metrics().slow_log().clear());
            println!("slow-query log cleared");
            continue;
        }
        if let Some(path) = line.strip_prefix("\\save ") {
            match shared
                .with_read(|db| db.dump())
                .map(|bytes| std::fs::write(path.trim(), bytes))
            {
                Ok(Ok(())) => println!("saved to {}", path.trim()),
                Ok(Err(e)) => eprintln!("write error: {e}"),
                Err(e) => eprintln!("dump error: {e}"),
            }
            continue;
        }
        if let Some(path) = line.strip_prefix("\\load ") {
            match std::fs::read(path.trim()) {
                Ok(bytes) => match Database::restore(&bytes) {
                    Ok(restored) => {
                        shared = SharedDatabase::new(restored);
                        shared.with_read(|db| db.metrics().set_enabled(true));
                        session = shared.session();
                        println!("loaded {}", path.trim());
                    }
                    Err(e) => eprintln!("restore error: {e}"),
                },
                Err(e) => eprintln!("read error: {e}"),
            }
            continue;
        }
        if let Some(rest) = line.strip_prefix("\\plancache") {
            if rest.is_empty() || rest.starts_with(char::is_whitespace) {
                match rest.trim() {
                    "" => {
                        let s = session.plan_cache.stats();
                        println!(
                            "plan cache: {} ({} entries)\nhits={} (kept={}) misses={} invalidations={} insertions={}",
                            if session.plan_cache.enabled() { "on" } else { "off" },
                            session.plan_cache.len(),
                            s.hits, s.kept, s.misses, s.invalidations, s.insertions
                        );
                    }
                    "on" => {
                        session.plan_cache.set_enabled(true);
                        println!("plan cache on");
                    }
                    "off" => {
                        session.plan_cache.set_enabled(false);
                        println!("plan cache off (entries dropped)");
                    }
                    "clear" => {
                        session.plan_cache.clear();
                        println!("plan cache cleared");
                    }
                    other => eprintln!("usage: \\plancache [on|off|clear]   (got {other:?})"),
                }
                continue;
            }
        }
        if line.starts_with('\\') {
            // Never hand a backslash command to the SQL parser — the lex
            // error it produces reads like the statement was attempted.
            eprintln!("unknown command: {line}");
            eprintln!(
                "commands: \\set, \\metrics, \\slowlog [clear], \\plancache [on|off|clear], \
                 \\save <file>, \\load <file>, \\q"
            );
            continue;
        }
        // One statement lifecycle (DESIGN.md §11): parse once, then the
        // front door picks the lock, plans, executes; the shell only renders.
        let outcome = match parse(line) {
            Ok(stmt) => run_statement(&mut session, &registry, line, &stmt),
            Err(e) => Err(e.into()),
        };
        match outcome {
            Ok(outcome) => render(session.exec_config.dop, outcome),
            Err(e) => eprintln!("error: {e}"),
        }
    }
}

/// Print one statement's outcome. `dop` heads the EXPLAIN views.
fn render(dop: usize, outcome: StatementOutcome) {
    match outcome {
        StatementOutcome::Rows { columns, rows } => {
            println!("{}", columns.join(" | "));
            for r in rows.iter().take(50) {
                let vals: Vec<String> = r.values.iter().map(|v| format!("{v}")).collect();
                let summaries = if r.summaries.is_empty() {
                    String::new()
                } else {
                    format!(
                        "   [{}]",
                        r.summaries
                            .iter()
                            .map(|o| format!("{}:{}", o.summary_name(), o.size()))
                            .collect::<Vec<_>>()
                            .join(", ")
                    )
                };
                println!("{}{summaries}", vals.join(" | "));
            }
            println!("({} rows)", rows.len());
        }
        StatementOutcome::Explain(text) => print!("dop: {dop}\n{text}"),
        StatementOutcome::ExplainAnalyze(analysis) => print!("dop: {dop}\n{analysis}"),
        StatementOutcome::Analyzed { rescanned: true } => {
            println!("statistics collected (full scan)")
        }
        StatementOutcome::Analyzed { rescanned: false } => {
            println!("statistics caught up from the journal")
        }
        StatementOutcome::Zoom(annots) => {
            for a in annots.iter().take(20) {
                println!("[{}] {}", a.author, a.text);
            }
            println!("({} annotations)", annots.len());
        }
        StatementOutcome::Altered(altered) => println!("{altered}"),
    }
}

#[cfg(test)]
mod tests {
    use super::{parse_set, SetCmd};

    #[test]
    fn set_commands_parse_at_word_boundaries() {
        assert_eq!(parse_set("\\set dop 4"), Some(SetCmd::Dop(4)));
        assert_eq!(parse_set("\\set dop 0"), Some(SetCmd::Dop(0)));
        assert_eq!(parse_set("\\set  slowlog   25"), Some(SetCmd::Slowlog(25)));
        // The historical bug: `\set dop5` parsed as `dop = 5`. It is an
        // unknown key now.
        assert_eq!(parse_set("\\set dop5"), Some(SetCmd::Usage));
        assert_eq!(parse_set("\\set slowlog5"), Some(SetCmd::Usage));
        // Malformed values and unknown keys get usage, not silence.
        assert_eq!(parse_set("\\set dop many"), Some(SetCmd::Usage));
        assert_eq!(parse_set("\\set dop -1"), Some(SetCmd::Usage));
        assert_eq!(parse_set("\\set dop 4 5"), Some(SetCmd::Usage));
        assert_eq!(parse_set("\\set"), Some(SetCmd::Usage));
        assert_eq!(parse_set("\\set verbosity 3"), Some(SetCmd::Usage));
        // Not `\set` at all: other commands must fall through untouched.
        assert_eq!(parse_set("\\settings"), None);
        assert_eq!(parse_set("\\metrics"), None);
        assert_eq!(parse_set("SELECT 1"), None);
    }
}
