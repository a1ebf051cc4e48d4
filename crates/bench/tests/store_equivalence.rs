//! Store-vs-streaming equivalence: the acceptance gate for `iri-store`.
//!
//! One synthetic MRT log is analyzed three ways — sequential batch,
//! streaming pipeline during ingest, and replay from the segment archive —
//! and every way must render the *byte-identical* text report, with ingest
//! at 1 and 4 workers producing byte-identical stores.
//!
//! `IRI_EQUIV_RECORDS` scales the log (default 200 000; CI runs this in
//! release mode at 3 000 000 to match the paper-scale acceptance check).

use iri_bench::{
    genlog::BASE_TIME, report_from_analysis, report_from_events, report_from_store,
    write_synthetic_log, GenLogConfig,
};
use iri_core::input::events_from_mrt;
use iri_mrt::{MrtReader, MrtRecord, MrtWriter};
use iri_store::{diff_dirs, ingest_mrt, DirDiff, IngestConfig, Store};
use std::path::PathBuf;

fn temp_store_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("iri-equiv-{}-{}", tag, std::process::id()))
}

#[test]
fn store_reports_are_byte_identical_to_streaming() {
    let records: u64 = std::env::var("IRI_EQUIV_RECORDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(200_000);
    let mut log = Vec::new();
    let mut writer = MrtWriter::new(&mut log);
    let cfg = GenLogConfig {
        records,
        ..GenLogConfig::default()
    };
    write_synthetic_log(&mut writer, &cfg).expect("generate log");

    // Ground truth: the classic sequential engine.
    let mut reader = MrtReader::new(log.as_slice());
    let mrt: Vec<MrtRecord> = reader.iter().collect::<Result<_, _>>().unwrap();
    let events = events_from_mrt(&mrt, BASE_TIME);
    let sequential = report_from_events(&events).render();
    assert!(sequential.contains("taxonomy breakdown"));

    let mut stores: Vec<PathBuf> = Vec::new();
    for jobs in [1usize, 4] {
        let dir = temp_store_dir(&format!("jobs{jobs}"));
        let mut reader = MrtReader::new(log.as_slice());
        let outcome = ingest_mrt(
            &dir,
            &mut reader,
            BASE_TIME,
            &IngestConfig::default().with_jobs(jobs),
        )
        .expect("ingest");
        assert_eq!(outcome.records_read, records);

        // The streaming report computed during ingest…
        let streaming = report_from_analysis(&outcome.analysis).render();
        assert_eq!(streaming, sequential, "streaming report at jobs={jobs}");

        // …and the report replayed from the archive afterwards.
        let mut store = Store::open(&dir).expect("open store");
        let (replayed, stats) = report_from_store(&mut store).expect("replay");
        assert_eq!(
            replayed.render(),
            sequential,
            "stored report at jobs={jobs}"
        );
        assert_eq!(stats.rows_matched, outcome.manifest.total_events);

        stores.push(dir);
    }
    // Worker count must not leak into the on-disk bytes.
    let diff = diff_dirs(&stores[0], &stores[1]).expect("diff stores");
    assert!(
        matches!(diff, DirDiff::Identical { files } if files > 0),
        "stores written at jobs=1 and jobs=4 must be byte-identical: {diff}"
    );
    for dir in stores {
        std::fs::remove_dir_all(&dir).ok();
    }
}
