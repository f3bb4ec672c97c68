//! Regenerate the tables and figures of the paper's evaluation, plus the
//! count-based extensions.
//!
//! ```text
//! figures --exp all                 # every experiment at default scale
//! figures --exp fig10 --scale 50    # one experiment, 45 000/50 = 900 birds
//! figures --exp fig7 --sweep 10,50,200
//! figures --exp fig10 --cache-pages 4096   # run behind a buffer pool
//! figures --exp recovery --quick           # stride the sweep down for CI
//! ```
//!
//! [`EXPERIMENTS`] is the list: `--exp all`, the usage text and the
//! unknown-name error are read off it, and any argument error prints it.
//!
//! Every experiment prints wall time *and* simulated I/O (page/node
//! accesses) — the substitution for the paper's disk-bound testbed; the
//! relative factors are what the reproduction checks, and each experiment
//! asserts its own. Nothing here sleeps or measures overlap: how the engine
//! behaves under concurrent load is `bench/`'s business. `--cache-pages N`
//! runs every experiment behind an N-page buffer pool (0, the default,
//! reproduces the uncached counters bit for bit).

mod maintenance;
mod paper;
mod recovery;
mod sweeps;

use std::time::{Duration, Instant};

use instn_bench::workloads::{build_db, BenchConfig, BenchDb};
use instn_index::{BaselineIndex, PointerMode, SummaryBTree};
use instn_query::expr::{CmpOp, Expr};
use instn_storage::io::IoSnapshot;

/// One experiment: name, one line for the usage text, entry point.
type Experiment = (&'static str, &'static str, fn(&Args));

/// Every experiment `--exp` accepts, in the order `--exp all` runs them.
#[rustfmt::skip]
const EXPERIMENTS: &[Experiment] = &[
    ("fig2", "usability case study: InsightNotes vs raw annotations", paper::fig2),
    ("fig7", "storage overhead of the two indexing schemes", paper::fig7),
    ("fig8", "bulk index creation relative to data loading", paper::fig8),
    ("fig9", "incremental indexing overhead per annotation insert", paper::fig9),
    ("fig10", "SP query: NoIndex vs Baseline vs Summary-BTree", paper::fig10),
    ("fig11", "two conjunctive predicates (classifier range + keyword)", paper::fig11),
    ("fig12", "propagation from normalized vs de-normalized storage", paper::fig12),
    ("fig13", "backward vs conventional pointers x propagation", paper::fig13),
    ("fig14", "rules 2 & 5: push S below the join, eliminate the sort", paper::fig14),
    ("fig15", "rule 11: swap the order of the two joins", paper::fig15),
    ("fig16", "usability: manual post-processing vs InsightNotes+", paper::fig16),
    ("bounds", "section 4.1.3: Summary-BTree I/O vs the O(log) bounds", sweeps::bounds),
    ("rules-ablation", "what each optimizer capability contributes", sweeps::rules_ablation),
    ("cache-sweep", "cold/warm physical I/O vs pool size (BENCH_cache.json)", sweeps::cache_sweep),
    ("limit-sweep", "top-k: streamed index scan vs sort (BENCH_limit.json)", sweeps::limit_sweep),
    ("recovery", "every durable write as a crash point (BENCH_recovery.json)", recovery::recovery),
    ("maintenance", "replay vs rebuild-on-stale (BENCH_maintenance.json)", maintenance::maintenance),
];

/// The parsed command line.
struct Args {
    /// `--exp`: an [`EXPERIMENTS`] name, or `all`.
    exp: String,
    /// `--scale`: the paper's 45 000 birds divided by this.
    scale: usize,
    /// `--sweep`: raw annotations per tuple, one run per value.
    sweep: Vec<usize>,
    /// `--cache-pages`: buffer-pool capacity of every experiment database.
    cache_pages: usize,
    /// `--quick`: the shortened CI variant of recovery and maintenance.
    quick: bool,
}

impl Args {
    /// Parse `argv[1..]`; every malformed flag or value is an error.
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        fn number(flag: &str, value: &str) -> Result<usize, String> {
            value
                .parse()
                .map_err(|_| format!("{flag} wants a number, got `{value}`"))
        }
        let mut args = Args {
            exp: "all".into(),
            scale: 100,
            sweep: vec![10, 25, 50, 100, 200],
            cache_pages: 0,
            quick: false,
        };
        while let Some(flag) = argv.next() {
            let mut value = || argv.next().ok_or(format!("{flag} wants a value"));
            match flag.as_str() {
                "--quick" => args.quick = true,
                "--exp" => args.exp = value()?,
                "--scale" => args.scale = number(&flag, &value()?)?,
                "--cache-pages" => args.cache_pages = number(&flag, &value()?)?,
                "--sweep" => {
                    args.sweep = value()?
                        .split(',')
                        .map(|x| number(&flag, x))
                        .collect::<Result<_, _>>()?
                }
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        if args.scale == 0 {
            return Err("--scale must be at least 1".into());
        }
        if args.sweep.contains(&0) {
            return Err("--sweep values must be at least 1".into());
        }
        if args.exp != "all" && !EXPERIMENTS.iter().any(|(name, ..)| *name == args.exp) {
            return Err(format!("unknown experiment {}", args.exp));
        }
        Ok(args)
    }

    /// The bench workload at this run's `--scale`.
    fn config(&self, annots_per_tuple: usize) -> BenchConfig {
        BenchConfig {
            scale_down: self.scale,
            annots_per_tuple,
            ..Default::default()
        }
    }

    /// [`build_db`] behind this run's `--cache-pages` pool.
    fn bench_db(&self, cfg: &BenchConfig) -> BenchDb {
        let b = build_db(cfg);
        b.db.set_cache_capacity(self.cache_pages);
        b
    }
}

fn usage() -> String {
    let mut text = String::from(
        "usage: figures [--exp NAME|all] [--scale N] [--sweep A,B,..] [--cache-pages N] [--quick]\n\
         experiments:\n",
    );
    for (name, about, _) in EXPERIMENTS {
        text.push_str(&format!("  {name:<15} {about}\n"));
    }
    text
}

fn main() {
    let args = Args::parse(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("{e}\n{}", usage());
        std::process::exit(2);
    });
    println!("== InsightNotes+ figure harness ==");
    println!(
        "scale 1/{} of the paper ({} birds, {} synonyms); sweep {:?} annots/tuple",
        args.scale,
        45_000 / args.scale,
        45_000 / args.scale * 5,
        args.sweep
    );
    if args.cache_pages > 0 {
        println!(
            "buffer pool: {} pages (physical I/O = cache misses + write-back)",
            args.cache_pages
        );
    }
    println!();
    for (name, _, run) in EXPERIMENTS {
        if args.exp == "all" || args.exp == *name {
            run(&args);
        }
    }
}

/// Time a closure, returning `(wall, io_delta, result)`.
fn measure<T>(db: &instn_core::db::Database, f: impl FnOnce() -> T) -> (Duration, IoSnapshot, T) {
    let before = db.stats().snapshot();
    let start = Instant::now();
    let out = f();
    let wall = start.elapsed();
    let io = db.stats().snapshot().since(&before);
    (wall, io, out)
}

fn header(title: &str) {
    println!("--------------------------------------------------------------");
    println!("{title}");
    println!("--------------------------------------------------------------");
}

fn disease_expr(op: CmpOp, n: i64) -> Expr {
    Expr::label_cmp("ClassBird1", "Disease", op, n)
}

/// Standard indexes for query experiments: Summary-BTree + baseline over
/// ClassBird1 on Birds.
fn build_indexes(b: &BenchDb) -> (SummaryBTree, BaselineIndex) {
    let sb = SummaryBTree::bulk_build(&b.db, b.birds, "ClassBird1", PointerMode::Backward)
        .expect("instance linked");
    let bl = BaselineIndex::bulk_build(&b.db, b.birds, "ClassBird1").expect("instance linked");
    (sb, bl)
}

/// Write a `BENCH_*.json` artifact into the working directory. A run whose
/// artifact cannot be written has failed.
fn write_artifact(file: &str, json: &str) {
    if let Err(e) = std::fs::write(file, json) {
        eprintln!("could not write {file}: {e}");
        std::process::exit(1);
    }
    println!("wrote {file}");
}
