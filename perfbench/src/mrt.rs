//! `mrt-archive`: a seeded MRT log, archived by `iri_store::ingest_mrt`
//! at two jobs into a fresh store — decode → classify → bulk segment
//! encode → one commit. Also the seeded-log helper serve-mixed builds its
//! store from.

use crate::probe;
use crate::timing_fs::TimingFs;
use crate::trace::Tracer;
use crate::util::{clear_dir, dir_digest, ms, quantile, store_bytes};
use crate::{Check, Outcome, Scale};
use iri_bench::genlog::{write_synthetic_log, GenLogConfig, BASE_TIME};
use iri_bench::report::report_from_analysis;
use iri_core::input::events_from_mrt;
use iri_core::{Classifier, UpdateClass};
use iri_faults::SharedFs;
use iri_mrt::{MrtReader, MrtWriter};
use iri_pipeline::{analyze_mrt, PipelineConfig};
use iri_store::{ingest_mrt, IngestConfig, IngestOutcome};
use std::fs::File;
use std::hash::Hasher as _;
use std::io::{BufReader, BufWriter, Write as _};
use std::path::Path;
use std::time::{Duration, Instant};

/// Pipeline workers, as `mrtstat --jobs 2`.
pub const JOBS: usize = 2;

/// MRT records in the mrt-archive log.
pub fn records(scale: Scale) -> u64 {
    match scale {
        Scale::Tiny => 20_000,
        Scale::Full => 300_000,
    }
}

/// Writes a seeded synthetic MRT log of `records` records to `path`.
pub fn write_log(path: &Path, records: u64, seed: u64) -> Result<(), String> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).map_err(|e| e.to_string())?;
    }
    let file = File::create(path).map_err(|e| e.to_string())?;
    let mut w = MrtWriter::new(BufWriter::new(file));
    let cfg = GenLogConfig {
        records,
        seed: seed ^ 0x1997,
        ..GenLogConfig::default()
    };
    write_synthetic_log(&mut w, &cfg).map_err(|e| e.to_string())?;
    w.into_inner().flush().map_err(|e| e.to_string())
}

/// Opens a log for streaming decode.
pub fn reader(path: &Path) -> Result<MrtReader<BufReader<File>>, String> {
    Ok(MrtReader::new(BufReader::new(
        File::open(path).map_err(|e| e.to_string())?,
    )))
}

/// Archives `log` into a fresh store at `dir` through `fs`.
pub fn ingest(
    log: &Path,
    dir: &Path,
    fs: Option<SharedFs>,
) -> Result<(IngestOutcome, Duration), String> {
    clear_dir(dir);
    let mut cfg = IngestConfig::default().with_jobs(JOBS);
    if let Some(fs) = fs {
        cfg = cfg.with_fs(fs);
    }
    let mut r = reader(log)?;
    let started = Instant::now();
    let outcome = ingest_mrt(dir, &mut r, BASE_TIME, &cfg).map_err(|e| e.to_string())?;
    Ok((outcome, started.elapsed()))
}

/// What an archive must reproduce: the one-job analysis of the log.
pub struct Reference {
    report_hash: String,
    /// Class counts in reporting order (`UpdateClass::ALL`).
    class_counts: Vec<u64>,
}

/// Set-up: generate the seeded log and analyse it with one job — the
/// reference the archive passes are checked against.
pub fn setup(work: &Path, seed: u64, scale: Scale) -> Result<Reference, String> {
    let log = work.join("log.mrt");
    write_log(&log, records(scale), seed)?;
    let (sequential, _) = analyze_mrt(&mut reader(&log)?, BASE_TIME, &PipelineConfig::with_jobs(1))
        .map_err(|e| e.to_string())?;
    Ok(Reference {
        report_hash: report_hash(&sequential),
        class_counts: UpdateClass::ALL
            .iter()
            .map(|c| sequential.classifier.count(*c))
            .collect(),
    })
}

/// The measured phase, run in its own process: archive passes until
/// `seconds` have elapsed (at least three), then the archive probe. The
/// checks that need an independent analysis run in the parent
/// ([`verify`]).
pub fn measure(seed: u64, seconds: f64, scale: Scale, work: &Path) -> Result<Outcome, String> {
    let log = work.join("log.mrt");
    let mut out = Outcome::default();
    let mut rates = Vec::new();
    let mut digests = Vec::new();
    let mut first: Option<IngestOutcome> = None;
    let started = Instant::now();
    let mut pass = 0usize;
    while pass < 3 || started.elapsed().as_secs_f64() < seconds {
        let dir = work.join(format!("store-{}", pass % 2));
        let (outcome, wall) = ingest(&log, &dir, None)?;
        rates.push(outcome.records_read as f64 / wall.as_secs_f64());
        digests.push(dir_digest(&dir));
        first.get_or_insert(outcome);
        pass += 1;
    }
    out.attempted += pass as u64;
    let first = first.expect("at least one pass ran");
    let same = digests.iter().filter(|d| **d == digests[0]).count();
    out.check(Check::new(
        "every archive pass writes the same store bytes",
        same == digests.len(),
        format!(
            "{same} of {} passes match digest {}",
            digests.len(),
            digests[0]
        ),
    ));
    let store = work.join("store-0");
    out.note("report_hash", &report_hash(&first.analysis));
    out.note("store_digest", &digests[0]);
    out.note("passes", &pass.to_string());
    out.note("records", &first.records_read.to_string());
    out.note("events", &first.manifest.total_events.to_string());

    // The upper quartile of per-pass rates, as in scenario-paper1996.
    out.metrics
        .set("throughput_per_s", quantile(&rates, 0.75), "1/s");
    let shown: Vec<String> = rates.iter().map(|r| format!("{r:.0}")).collect();
    out.note("pass_records_per_s", &shown.join(" "));
    out.metrics.set(
        "store_bytes_per_event",
        store_bytes(&store) as f64 / first.manifest.total_events.max(1) as f64,
        "B/event",
    );
    // Peak RSS of the passes alone, read before the probe runs.
    out.metrics
        .set("peak_rss_mb", crate::util::peak_rss_mb(), "MiB");
    // Passes alternate between two stores, identical by the digest
    // check; the probe appends to the second so the parent can still
    // verify the first.
    probe::run(&work.join("store-1"), seed, scale, &mut out)?;
    Ok(out)
}

/// A digest of the rendered streaming report.
fn report_hash(analysis: &iri_pipeline::AnalysisResult) -> String {
    let mut h = iri_core::fxhash::FxHasher::default();
    h.write(report_from_analysis(analysis).render().as_bytes());
    format!("{:016x}", h.finish())
}

/// The checks of a measured phase against the set-up's reference, run
/// outside the measured process: the streaming report must equal the
/// one-job `analyze_mrt` report, and the archive must hold exactly what
/// that analysis classified.
pub fn verify(reference: &Reference, work: &Path, out: &mut Outcome) -> Result<(), String> {
    let want_hash = &reference.report_hash;
    let got_hash = out
        .notes
        .iter()
        .find(|(k, _)| k == "report_hash")
        .map(|(_, v)| v.clone())
        .unwrap_or_default();
    out.attempted += 1;
    out.check(Check::new(
        "streaming report equals a one-job analyze_mrt report",
        got_hash == *want_hash,
        format!("report hash {got_hash}, one-job {want_hash}"),
    ));
    let stored = crate::lanes::store_class_counts(&work.join("store-0"))?;
    let want = &reference.class_counts;
    let got: Vec<u64> = UpdateClass::ALL.iter().map(|c| stored[c.index()]).collect();
    out.attempted += 1;
    out.check(Check::new(
        "archived class counts equal an offline recompute",
        got == *want,
        format!("store {got:?} offline {want:?}"),
    ));
    Ok(())
}

/// The traced run: an untraced archive pass (the overhead base), the
/// same pass through a timing filesystem, then decode-only, classify-only
/// and analyse-only passes over the same log.
pub fn traced(seed: u64, scale: Scale, work: &Path, spans_out: &Path) -> Result<Outcome, String> {
    let log = work.join("log.mrt");
    let mut out = Outcome::default();
    let (base, base_wall) = ingest(&log, &work.join("store-untraced"), None)?;
    let fs = TimingFs::shared();
    let tr = Tracer::default();
    let mut classify = Duration::ZERO;
    let mut classified = 0u64;
    let traced = tr.thread("main", || -> Result<(IngestOutcome, Duration), String> {
        let dir = work.join("store-traced");
        let fs = fs.as_shared();
        let run = tr.span("store.ingest", || ingest(&log, &dir, Some(fs)))?;
        tr.span("mrt.decode", || -> Result<(), String> {
            let mut r = reader(&log)?;
            while let Some(rec) = r.next_record().map_err(|e| e.to_string())? {
                std::hint::black_box(rec);
            }
            Ok(())
        })?;
        tr.span("core.classify", || -> Result<(), String> {
            let mut r = reader(&log)?;
            let mut c = Classifier::new();
            while let Some(rec) = r.next_record().map_err(|e| e.to_string())? {
                for ev in events_from_mrt([&rec], BASE_TIME) {
                    let t = Instant::now();
                    std::hint::black_box(c.classify(&ev));
                    classify += t.elapsed();
                    classified += 1;
                }
            }
            Ok(())
        })?;
        tr.span("pipeline.analyze", || {
            analyze_mrt(
                &mut reader(&log)?,
                BASE_TIME,
                &PipelineConfig::with_jobs(JOBS),
            )
            .map_err(|e| e.to_string())
        })?;
        Ok(run)
    })?;
    tr.write_jsonl(spans_out).map_err(|e| e.to_string())?;
    let (outcome, wall) = traced;
    out.attempted += 1;
    out.check(Check::new(
        "traced archive pass writes the untraced pass's store",
        dir_digest(&work.join("store-traced")) == dir_digest(&work.join("store-untraced")),
        "store digests compared".to_owned(),
    ));
    let events = outcome.manifest.total_events;
    let pm = &outcome.analysis.metrics;
    let busy: u64 = pm.workers.iter().map(|w| w.busy_ms).sum();
    let m = &mut out.metrics;
    m.set("store.ingest_ms", ms(wall), "ms");
    m.set("mrt.decode_ms", tr.total("mrt.decode").0, "ms");
    m.set("pipeline.analyze_ms", tr.total("pipeline.analyze").0, "ms");
    m.set(
        "pipeline.worker_busy_frac",
        busy as f64 / (pm.wall_ms.max(1) * pm.workers.len().max(1) as u64) as f64,
        "fraction",
    );
    m.set("pipeline.stalled_ms", pm.ingest.stall_ms as f64, "ms");
    m.set("core.classify_ms", ms(classify), "ms");
    m.set("core.classified", classified as f64, "count");
    m.extend(fs.metrics(events));
    m.set(
        "trace.coverage_main",
        tr.coverage(&[]).get("main").copied().unwrap_or(0.0),
        "fraction",
    );
    m.set(
        "trace.overhead_frac",
        wall.as_secs_f64() / base_wall.as_secs_f64() - 1.0,
        "fraction",
    );
    out.note("records", &base.records_read.to_string());
    probe::run(&work.join("store-traced"), seed, scale, &mut out)?;
    Ok(out)
}
