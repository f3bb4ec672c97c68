//! Drives the built `figures` binary: argument errors are loud, and the
//! usage text, `--exp all` and the experiment table agree.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// The experiments `figures` is meant to offer, in table order.
const EXPECTED: &[&str] = &[
    "fig2",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "bounds",
    "rules-ablation",
    "cache-sweep",
    "limit-sweep",
    "recovery",
    "maintenance",
];

/// A fresh working directory for one test (the artifacts land in it).
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn figures(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("figures starts")
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

/// The experiment headers a run printed: every line between two rules.
fn titles(stdout: &str) -> Vec<String> {
    let rule = "-".repeat(62);
    let lines: Vec<&str> = stdout.lines().collect();
    lines
        .windows(3)
        .filter(|w| w[0] == rule && w[2] == rule)
        .map(|w| w[1].to_string())
        .collect()
}

#[test]
fn unknown_experiment_exits_2_naming_the_valid_ones() {
    let dir = scratch("unknown");
    let out = figures(&dir, &["--exp", "nosuch"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "nothing may run");
    let stderr = text(&out.stderr);
    assert!(stderr.contains("unknown experiment nosuch"), "{stderr}");
    let listed: Vec<&str> = stderr
        .lines()
        .filter_map(|l| l.strip_prefix("  "))
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    assert_eq!(listed, EXPECTED);
}

#[test]
fn malformed_arguments_are_errors_not_defaults() {
    let dir = scratch("malformed");
    for args in [
        &["--scale", "abc"][..],
        &["--scale", "0"],
        &["--scale"],
        &["--sweep", "10,x"],
        &["--sweep", ""],
        &["--cache-pages", "-1"],
        &["--exp"],
        &["--bogus"],
    ] {
        let out = figures(&dir, args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} ran something");
    }
}

#[test]
fn bounds_runs_at_scale_500() {
    let dir = scratch("bounds");
    let out = figures(&dir, &["--exp", "bounds", "--scale", "500"]);
    assert_eq!(out.status.code(), Some(0), "{}", text(&out.stderr));
    assert_eq!(titles(&text(&out.stdout)).len(), 1);
}

#[test]
fn every_listed_name_runs_and_all_runs_exactly_the_list() {
    let dir = scratch("all");
    let small = ["--scale", "2000", "--sweep", "10", "--quick"];
    let mut one_by_one = Vec::new();
    for name in EXPECTED {
        let out = figures(&dir, &[&["--exp", name][..], &small].concat());
        assert_eq!(out.status.code(), Some(0), "{name}: {}", text(&out.stderr));
        let ran = titles(&text(&out.stdout));
        assert_eq!(ran.len(), 1, "{name} ran {ran:?}");
        one_by_one.extend(ran);
    }
    let out = figures(&dir, &[&["--exp", "all"][..], &small].concat());
    assert_eq!(out.status.code(), Some(0), "{}", text(&out.stderr));
    assert_eq!(titles(&text(&out.stdout)), one_by_one);
}

#[test]
fn an_artifact_that_cannot_be_written_fails_the_run() {
    let dir = scratch("unwritable");
    std::fs::create_dir(dir.join("BENCH_limit.json")).expect("blocker");
    let out = figures(&dir, &["--exp", "limit-sweep", "--scale", "2000"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = text(&out.stderr);
    assert!(
        stderr.contains("could not write BENCH_limit.json"),
        "{stderr}"
    );
}
