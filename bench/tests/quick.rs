//! Runs the suite in `--quick` mode and checks the benchmark's contract with
//! itself: every declared metric is emitted exactly once per workload,
//! finite and with its declared unit, and `BENCHMARK.json` lists exactly
//! the workloads and metrics the binary prints.

use std::process::Command;

use instn_e2e::json::{self, Json};
use instn_e2e::metrics::{END_TO_END, PER_LAYER, WORKLOADS};

fn manifest() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn str_field<'a>(v: &'a Json, key: &str) -> &'a str {
    v.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("{key} missing in {v:?}"))
}

#[test]
fn manifest_matches_declared_metrics() {
    let m = manifest();
    let keys: Vec<&str> = m.fields().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let names = |key: &str| -> Vec<String> {
        m.get(key)
            .expect(key)
            .as_arr()
            .iter()
            .map(|w| str_field(w, "name").to_string())
            .collect()
    };
    assert_eq!(names("workloads"), WORKLOADS);
    let declared: Vec<_> = END_TO_END
        .iter()
        .map(|e| {
            (
                e.name.to_string(),
                e.unit.to_string(),
                e.better.to_string(),
                e.bound,
            )
        })
        .collect();
    let listed: Vec<_> = m
        .get("end_to_end")
        .expect("end_to_end")
        .as_arr()
        .iter()
        .map(|e| {
            (
                str_field(e, "name").to_string(),
                str_field(e, "unit").to_string(),
                str_field(e, "better").to_string(),
                e.get("bound").and_then(Json::as_f64).expect("bound"),
            )
        })
        .collect();
    assert_eq!(listed, declared);
    assert!(declared.iter().all(|e| e.3 <= 0.25));
    let declared: Vec<_> = PER_LAYER
        .iter()
        .map(|&(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
        .collect();
    let listed: Vec<_> = m
        .get("per_layer")
        .expect("per_layer")
        .as_arr()
        .iter()
        .map(|e| {
            (
                str_field(e, "name").to_string(),
                str_field(e, "unit").to_string(),
                str_field(e, "better").to_string(),
            )
        })
        .collect();
    assert_eq!(listed, declared);
}

#[test]
fn quick_suite_emits_every_declared_metric_once() {
    let out = Command::new(env!("CARGO_BIN_EXE_instn-e2e"))
        .arg("--quick")
        .output()
        .expect("suite runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "quick suite failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    for workload in WORKLOADS {
        for (trace, declared) in [
            (
                0,
                END_TO_END
                    .iter()
                    .map(|e| (e.name, e.unit))
                    .collect::<Vec<_>>(),
            ),
            (1, PER_LAYER.iter().map(|&(n, u, _)| (n, u)).collect()),
        ] {
            let prefix = format!("result {workload} {trace} ");
            let line = stdout
                .lines()
                .find_map(|l| l.strip_prefix(&prefix))
                .unwrap_or_else(|| panic!("no result line for {workload} trace {trace}"));
            let result = json::parse(line).expect("result line parses");
            let keys: Vec<&str> = result.fields().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
            assert!(
                result
                    .get("attempted")
                    .and_then(Json::as_f64)
                    .expect("attempted")
                    >= 1.0
            );
            let emitted = result.get("metrics").expect("metrics").fields();
            // Same names, same order, so each exactly once.
            let emitted_names: Vec<&str> = emitted.iter().map(|(k, _)| k.as_str()).collect();
            let declared_names: Vec<&str> = declared.iter().map(|d| d.0).collect();
            assert_eq!(emitted_names, declared_names, "{workload} trace {trace}");
            for ((name, m), (_, unit)) in emitted.iter().zip(&declared) {
                let value = m.get("value").and_then(Json::as_f64);
                assert!(
                    value.is_some_and(f64::is_finite),
                    "{workload}: {name} is not a finite number"
                );
                assert_eq!(str_field(m, "unit"), *unit, "{workload}: unit of {name}");
                if trace == 0 {
                    assert!(value.expect("checked") > 0.0, "{workload}: {name} is 0");
                }
            }
        }
    }
}
