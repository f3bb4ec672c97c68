//! `instn-e2e`: run one workload (the driver's contract) or the whole suite.
//!
//! ```text
//! instn-e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! instn-e2e [--seed <n>] [--seconds <s>] [--sets <N>] [--quick]
//! ```
//!
//! The first form prints one JSON object as its last stdout line. The
//! second runs every workload, timed and traced, each in a fresh child
//! process (so memory is per workload), prints every metric by name, and
//! exits non-zero on any failed operation, oracle or durability mismatch —
//! and, with `--sets N`, on any end-to-end metric whose run-to-run spread
//! or drift between sets exceeds its declared bound.

use std::process::{Command, ExitCode};
use std::time::Duration;

use instn_e2e::json::{self, Json};
use instn_e2e::metrics::{Report, END_TO_END, WORKLOADS};
use instn_e2e::setup::{self, Workload};
use instn_e2e::stats::{median_f64, quartiles};
use instn_e2e::{affinity, timed, traced};

const DEFAULT_SEED: u64 = 2015;
/// Timed seconds per run (matches `run_seconds` in `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 15.0;
/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    sets: usize,
    quick: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: instn-e2e --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n\
         \x20      instn-e2e [--seed <n>] [--seconds <s>] [--sets <N>] [--quick]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        sets: 1,
        quick: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => args.workload = Some(value()),
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                args.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--sets" => args.sets = value().parse().unwrap_or_else(|_| usage()),
            "--quick" => args.quick = true,
            _ => usage(),
        }
    }
    if args.quick {
        args.seconds = 2.0;
    }
    if !(args.seconds > 0.0 && args.seconds <= 60.0) || args.sets == 0 {
        usage();
    }
    args
}

fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The timed run: set up (several times), warm up, measure with tracing
/// off, verify.
fn run_timed(workload: Workload, args: &Args) -> Report {
    let reps = if args.quick { 1 } else { SETUP_REPS };
    let (mut env, setup_times) = setup::set_up_repeated(workload, args.seed, reps);
    if workload.shares_one_cpu() {
        match affinity::pin_process_to_one_cpu() {
            Some(cpu) => eprintln!("{}: client and server pinned to cpu {cpu}", workload.name()),
            None => eprintln!("{}: pinning unavailable, running unpinned", workload.name()),
        }
    }
    let timed = Duration::from_secs_f64(args.seconds);
    let res = timed::run(&mut env, timed / 10, timed, true);
    env.shut_down();

    let timeline = res.timeline();
    let reads = res.reads(&timeline, timed);
    if let Some((writes, late_p95_ms)) = res.writes(&timeline) {
        let w = res.writer.as_ref().expect("writes imply a writer");
        eprintln!(
            "writer: {} timed writes, p50 {:.4} ms p95 {:.4} ms, generator lateness p95 \
             {late_p95_ms:.4} ms, checkpoints {:?} ms",
            writes.len(),
            writes.quantile(0.50),
            writes.quantile(0.95),
            w.checkpoint_ms,
        );
    }
    for failure in &res.check_failures {
        eprintln!("check failed: {failure}");
    }
    let (attempted, failed) = (res.attempted(), res.failed());
    eprintln!(
        "{}: {} timed reads in {} windows, {attempted} attempted, {failed} failed \
         (failed_share {}), median speed factor {:.3}",
        workload.name(),
        reads.samples,
        reads.windows,
        failed as f64 / attempted.max(1) as f64,
        timeline.median_factor()
    );
    Report {
        correct: failed == 0,
        attempted,
        failed,
        metrics: vec![
            ("setup_s", median_f64(&setup_times)),
            ("ops_per_s", reads.ops_per_s),
            ("p50_ms", reads.p50_ms),
            ("p95_ms", reads.p95_ms),
            ("rss_peak_mb", rss_peak_mb()),
            (
                "space_amp",
                env.facts.stored_bytes as f64 / env.facts.user_bytes as f64,
            ),
        ],
    }
}

fn run_one(name: &str, args: &Args) -> ExitCode {
    let Some(workload) = Workload::parse(name) else {
        usage()
    };
    let report = if args.trace {
        traced::run(workload, args.seed, args.seconds)
    } else {
        run_timed(workload, args)
    };
    println!("{}", report.to_json(args.trace).render());
    ExitCode::SUCCESS
}

/// Run one workload in a child process and parse its result line.
fn child_run(workload: &str, args: &Args, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.quick {
        cmd.arg("--quick");
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!(
            "{workload} (trace {}) exited with {}:\n{}",
            u8::from(trace),
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().ok_or("no output")?;
    json::parse(last)
}

fn metric_value(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn run_suite(args: &Args) -> ExitCode {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "instn-e2e suite: seed {}, {} s per run, {} set(s), nproc {nproc}",
        args.seed, args.seconds, args.sets
    );
    let mut ok = true;
    // values[set][workload][metric]
    let mut values: Vec<Vec<Vec<f64>>> = Vec::new();
    for set in 0..args.sets {
        let mut per_workload = Vec::new();
        for workload in WORKLOADS {
            println!("\n== {workload} (set {})", set + 1);
            let mut row = Vec::new();
            for trace in [false, true] {
                let result = match child_run(workload, args, trace) {
                    Ok(r) => r,
                    Err(e) => {
                        println!("FAILED: {e}");
                        ok = false;
                        continue;
                    }
                };
                let correct = result.get("correct").and_then(Json::as_bool) == Some(true);
                let attempted = result
                    .get("attempted")
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0);
                let failed = result.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
                println!(
                    "-- trace {}: attempted {attempted}, failed {failed}, failed_share {}, {}",
                    u8::from(trace),
                    failed / attempted.max(1.0),
                    if correct { "correct" } else { "INCORRECT" }
                );
                ok &= correct;
                println!("result {workload} {} {}", u8::from(trace), result.render());
                for (name, m) in result.get("metrics").map_or(&[][..], Json::fields) {
                    let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
                    let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
                    println!("{name:<44} {value:>18.6} {unit}");
                }
                if !trace {
                    row = END_TO_END
                        .iter()
                        .map(|m| metric_value(&result, m.name).unwrap_or(f64::NAN))
                        .collect();
                }
            }
            per_workload.push(row);
        }
        values.push(per_workload);
    }
    if args.sets >= 2 {
        ok &= report_repeatability(&values, args.quick);
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Per end-to-end metric and workload: median, quartiles and relative
/// spread over the sets, against the declared bound. Returns whether every
/// metric stayed within its bound (always true under `--quick`).
fn report_repeatability(values: &[Vec<Vec<f64>>], quick: bool) -> bool {
    println!("\n== repeatability over {} sets", values.len());
    println!(
        "{:<18} {:<14} {:>14} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "q1", "median", "q3", "spread", "bound"
    );
    let mut within = true;
    for (w, workload) in WORKLOADS.iter().enumerate() {
        for (m, metric) in END_TO_END.iter().enumerate() {
            let series: Vec<f64> = values
                .iter()
                .filter_map(|set| set.get(w)?.get(m).copied())
                .filter(|v| v.is_finite())
                .collect();
            if series.len() < 2 {
                continue;
            }
            let (q1, med, q3) = quartiles(&series);
            // With two sets the quartiles extrapolate; the plain range is
            // the honest spread there.
            let spread = if series.len() < 4 {
                let (lo, hi) = series
                    .iter()
                    .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
                (hi - lo) / med
            } else {
                (q3 - q1) / med
            };
            let over = spread > metric.bound && metric.name != "setup_s";
            println!(
                "{workload:<18} {:<14} {q1:>14.6} {med:>14.6} {q3:>14.6} {:>8.2}% {:>6.0}%{}",
                metric.name,
                spread * 100.0,
                metric.bound * 100.0,
                if over { "  OVER" } else { "" }
            );
            within &= !over;
        }
    }
    within || quick
}

fn main() -> ExitCode {
    let args = parse_args();
    match &args.workload {
        Some(name) => run_one(name, &args),
        None => run_suite(&args),
    }
}
