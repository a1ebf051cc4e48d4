//! Self-test of the benchmark at tiny scale: every workload, traced and
//! untraced, emits exactly the metrics `BENCHMARK.json` names, each with
//! its unit, and passes its output checks; a wrong expected chain head
//! makes the command fail.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_iri-perfbench");

fn manifest() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    serde_json::value_from_str(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` list.
fn listed(key: &str) -> Vec<(String, String)> {
    manifest()
        .get(key)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            (
                m.get("name")
                    .and_then(Value::as_str)
                    .expect("name")
                    .to_owned(),
                m.get("unit")
                    .and_then(Value::as_str)
                    .expect("unit")
                    .to_owned(),
            )
        })
        .collect()
}

fn work_dir(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("selftest-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("work dir");
    dir
}

/// Runs one tiny workload; returns its exit success and last JSON line.
fn run(workload: &str, trace: bool, extra: &[&str]) -> (bool, Value) {
    let tag = format!("{workload}-{}-{}", u8::from(trace), extra.len());
    let out = Command::new(BIN)
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--scale",
            "tiny",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(extra)
        .current_dir(work_dir(&tag))
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let v = serde_json::value_from_str(last).unwrap_or_else(|e| {
        panic!(
            "{workload}: last line is not JSON ({e}): {last}\n{}",
            String::from_utf8_lossy(&out.stderr)
        )
    });
    (out.status.success(), v)
}

fn assert_emits(workload: &str, trace: bool) {
    let (ok, v) = run(workload, trace, &[]);
    let keys: Vec<&str> = v
        .as_map()
        .expect("object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        ["correct", "attempted", "failed", "metrics"],
        "{workload}"
    );
    assert!(ok, "{workload} trace={trace} failed: {v:?}");
    assert_eq!(v.get("correct"), Some(&Value::Bool(true)), "{workload}");
    assert_eq!(v.get("failed"), Some(&Value::U64(0)), "{workload}");
    let metrics = v.get("metrics").and_then(Value::as_map).expect("metrics");
    let want = listed(if trace { "per_layer" } else { "end_to_end" });
    let mut got: Vec<(String, String)> = metrics
        .iter()
        .map(|(k, m)| {
            let unit = m
                .get("unit")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_owned();
            assert!(
                matches!(m.get("value"), Some(Value::F64(_) | Value::U64(_))),
                "{workload}: {k} has no numeric value"
            );
            (k.clone(), unit)
        })
        .collect();
    got.sort();
    let mut want = want;
    want.sort();
    assert_eq!(
        got, want,
        "{workload} trace={trace}: metric names or units differ"
    );
    if !trace {
        for (k, m) in metrics {
            let v = match m.get("value") {
                Some(Value::F64(f)) => *f,
                Some(Value::U64(n)) => *n as f64,
                _ => 0.0,
            };
            assert!(v > 0.0, "{workload}: end-to-end metric {k} is {v}");
        }
    }
}

#[test]
fn scenario_emits_every_metric() {
    assert_emits("scenario-paper1996", false);
    assert_emits("scenario-paper1996", true);
}

#[test]
fn serve_emits_every_metric() {
    assert_emits("serve-mixed", false);
    assert_emits("serve-mixed", true);
}

#[test]
fn mrt_emits_every_metric() {
    assert_emits("mrt-archive", false);
    assert_emits("mrt-archive", true);
}

#[test]
fn wrong_expected_head_fails_the_command() {
    for trace in [false, true] {
        let (ok, v) = run(
            "scenario-paper1996",
            trace,
            &["--expect-head", "0000000000000000"],
        );
        assert!(!ok, "a wrong head must fail the command (trace={trace})");
        assert_eq!(v.get("correct"), Some(&Value::Bool(false)));
        assert_ne!(v.get("failed"), Some(&Value::U64(0)));
    }
}

#[test]
fn workloads_match_the_manifest() {
    let names: Vec<String> = manifest()
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_owned()
        })
        .collect();
    assert_eq!(names, ["scenario-paper1996", "serve-mixed", "mrt-archive"]);
    let out = Command::new(BIN)
        .args(["--workload", "no-such-workload"])
        .output()
        .expect("benchmark runs");
    assert!(!out.status.success());
}
