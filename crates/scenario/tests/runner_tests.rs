//! End-to-end scenario-runner tests: determinism, spill equivalence, and
//! the fail-fast RSS guard.
//!
//! All runs use a tiny topology and truncated days so the suite stays in
//! tier-1 time, but they exercise the full streaming path: pack → world →
//! faults → monitor drain → classifier → bounded channel → store commits →
//! watcher polls.

use iri_scenario::runner::{RunError, RunnerOptions, ScenarioRunner};
use iri_scenario::{FaultKind, FaultSpec, ScenarioPack};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

fn temp_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "iri-scenario-test-{}-{}-{tag}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Asserts two stores hold byte-identical committed files.
fn assert_same_store(a: &Path, b: &Path, what: &str) {
    match iri_store::diff_dirs(a, b).expect("diff stores") {
        iri_store::DirDiff::Identical { files } => assert!(files > 0, "{what}: empty store"),
        d => panic!("{what}: {d}"),
    }
}

fn tiny_pack() -> ScenarioPack {
    let mut pack = ScenarioPack::default_at(0.01);
    pack.meta.seed = 42;
    pack.workload.warmup_minutes = Some(10);
    pack.workload.oscillator_count = Some(2);
    pack.run.chunk_minutes = 15;
    pack.run.batch_events = 64;
    pack.run.segment_rows = 256;
    pack
}

fn run_opts(jobs: usize) -> RunnerOptions {
    RunnerOptions {
        jobs,
        hours: Some(2),
        ..RunnerOptions::default()
    }
}

#[test]
fn streaming_run_commits_events_and_reports() {
    let pack = tiny_pack();
    let dir = temp_dir("smoke");
    let report = ScenarioRunner::new(pack, run_opts(0))
        .run(&dir)
        .expect("run");
    assert!(report.events_written > 0, "no events streamed");
    assert!(report.store_generation > 0, "nothing committed");
    assert!(report.final_census_prefixes > 0, "empty census");
    assert_eq!(report.days, 1);
    assert_eq!(report.hours_per_day, 2);
    // Quiet pack: perfect recall by definition.
    assert_eq!(report.scorecard.recall, 1.0);
    // The store on disk agrees with the report.
    let store = iri_store::LiveStore::open(&dir).expect("reopen");
    assert_eq!(store.manifest().total_events, report.events_written);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn same_pack_and_seed_give_byte_identical_stores_at_any_jobs() {
    let pack = tiny_pack();
    let d1 = temp_dir("det-jobs1");
    let d4 = temp_dir("det-jobs4");
    let r1 = ScenarioRunner::new(pack.clone(), run_opts(1))
        .run(&d1)
        .expect("run jobs=1");
    let r4 = ScenarioRunner::new(pack, run_opts(4))
        .run(&d4)
        .expect("run jobs=4");
    assert_eq!(r1.events_written, r4.events_written);
    assert_eq!(r1.store_generation, r4.store_generation);
    assert_same_store(&d1, &d4, "stores differ across --jobs");
    let _ = std::fs::remove_dir_all(&d1);
    let _ = std::fs::remove_dir_all(&d4);
}

#[test]
fn rib_spill_does_not_change_the_event_stream() {
    // Smaller still than tiny_pack: with a working set below the router
    // count every event pays a table round-trip, so keep tables short.
    let mut base = tiny_pack();
    base.topology.prefixes = Some(30);
    base.workload.warmup_minutes = Some(5);
    base.workload.oscillator_count = Some(1);
    let mut spilling = base.clone();
    spilling.limits.spill_working_set = 2;

    let opts = RunnerOptions {
        hours: Some(1),
        ..RunnerOptions::default()
    };
    let d_plain = temp_dir("spill-off");
    let d_spill = temp_dir("spill-on");
    let plain = ScenarioRunner::new(base, opts.clone())
        .run(&d_plain)
        .expect("run without spill");
    let spilled = ScenarioRunner::new(spilling, opts)
        .run(&d_spill)
        .expect("run with spill");

    assert!(
        spilled.spill.spills > 0,
        "working set 2 on a multi-router world must spill"
    );
    assert_eq!(
        plain.events_written, spilled.events_written,
        "spill changed the event count"
    );
    assert_same_store(&d_plain, &d_spill, "store differs under spill");
    let _ = std::fs::remove_dir_all(&d_plain);
    let _ = std::fs::remove_dir_all(&d_spill);
}

#[test]
fn faulted_pack_changes_the_stream_deterministically() {
    let mut pack = tiny_pack();
    pack.faults.push(FaultSpec {
        kind: FaultKind::CommunityChurn,
        day: 0,
        every_day: false,
        start_minute: 30,
        duration_minutes: 20,
        prefixes: 4,
        period_seconds: 30,
        ramp_minutes: 10,
        peak_per_minute: 60.0,
        alpha: 1.3,
        min_gap_minutes: 2.0,
        provider: 0,
    });
    let d1 = temp_dir("fault-a");
    let d2 = temp_dir("fault-b");
    let r1 = ScenarioRunner::new(pack.clone(), run_opts(0))
        .run(&d1)
        .expect("faulted run");
    let r2 = ScenarioRunner::new(pack, run_opts(0))
        .run(&d2)
        .expect("faulted rerun");
    assert_eq!(r1.events_written, r2.events_written);
    assert_same_store(&d1, &d2, "faulted store not reproducible");
    let _ = std::fs::remove_dir_all(&d1);
    let _ = std::fs::remove_dir_all(&d2);
}

#[test]
fn rss_budget_fails_fast() {
    let pack = tiny_pack();
    let dir = temp_dir("rss");
    let opts = RunnerOptions {
        max_rss_mb: 1, // any real process exceeds 1 MiB immediately
        hours: Some(1),
        ..RunnerOptions::default()
    };
    let err = ScenarioRunner::new(pack, opts).run(&dir).unwrap_err();
    match err {
        RunError::RssBudget { rss_mb, budget_mb } => {
            assert_eq!(budget_mb, 1);
            assert!(rss_mb > 1);
        }
        other => panic!("expected RssBudget, got {other}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}
