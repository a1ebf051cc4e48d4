//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <scenario-paper1996|serve-mixed|mrt-archive> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload from the root of a checkout, checks every output,
//! prints each metric with its unit and, as the last line, one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. `--trace 0`
//! reports the end-to-end metrics, `--trace 1` the per-layer ones from a
//! separate traced run. See `perfbench/README.md`.

mod lanes;
mod mrt;
mod probe;
mod scenario;
mod serve;
mod timing_fs;
mod trace;
mod util;

use serde::{Deserialize, Serialize, Value};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use util::{median, Metrics};

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["scenario-paper1996", "serve-mixed", "mrt-archive"];

/// End-to-end metrics and units (`--trace 0`).
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("read_p50_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("store_bytes_per_event", "B/event"),
];

/// Per-layer metrics and units (`--trace 1`). A workload that never
/// calls a layer reports it as 0. The read tail and the write
/// latencies ride here, ungated, because on a shared two-core machine
/// their run-to-run spread exceeds any bound `BENCHMARK.json` may set.
pub const PER_LAYER: [(&str, &str); 59] = [
    ("read_p99_ms", "ms"),
    ("write_p50_ms", "ms"),
    ("write_p90_ms", "ms"),
    ("netsim.run_until_ms", "ms"),
    ("netsim.events", "count"),
    ("netsim.us_per_event", "us"),
    ("topology.build_day_world_ms", "ms"),
    ("scenario.apply_faults_ms", "ms"),
    ("scenario.drain_ms", "ms"),
    ("scenario.send_blocked_ms", "ms"),
    ("scenario.recv_idle_ms", "ms"),
    ("core.classify_ms", "ms"),
    ("core.classified", "count"),
    ("core.flatten_ms", "ms"),
    ("chain.cross_ms", "ms"),
    ("chain.flush_ms", "ms"),
    ("chain.flushes", "count"),
    ("store.append_ms", "ms"),
    ("store.appends", "count"),
    ("store.append_us_per_row", "us"),
    ("store.append_p99_ms", "ms"),
    ("store.compact_ms", "ms"),
    ("store.compactions", "count"),
    ("store.watch_poll_ms", "ms"),
    ("store.watch_polls", "count"),
    ("store.plan_execute_ms", "ms"),
    ("store.pages_scanned_per_read", "count"),
    ("store.prune_ratio", "fraction"),
    ("store.ingest_ms", "ms"),
    ("fs.sync", "count"),
    ("fs.sync_ms", "ms"),
    ("fs.sync_dir", "count"),
    ("fs.sync_dir_ms", "ms"),
    ("fs.files_written", "count"),
    ("fs.write_bytes", "B"),
    ("fs.write_ms", "ms"),
    ("fs.append_bytes", "B"),
    ("fs.read_bytes", "B"),
    ("fs.read_ms", "ms"),
    ("fs.bytes_written_per_event", "B/event"),
    ("serve.exec_read_p50_us", "us"),
    ("serve.exec_read_p99_us", "us"),
    ("serve.admission_wait_p99_us", "us"),
    ("serve.cache_hit_ratio", "fraction"),
    ("serve.reads", "count"),
    ("serve.wire_queue_p99_us", "us"),
    ("mrt.decode_ms", "ms"),
    ("pipeline.analyze_ms", "ms"),
    ("pipeline.worker_busy_frac", "fraction"),
    ("pipeline.stalled_ms", "ms"),
    ("loadgen.late_p99_ms", "ms"),
    ("loadgen.backlog_max", "count"),
    ("trace.coverage_driver", "fraction"),
    ("trace.coverage_writer", "fraction"),
    ("trace.coverage_main", "fraction"),
    ("trace.coverage_serve", "fraction"),
    ("trace.coverage_direct", "fraction"),
    ("trace.overhead_frac", "fraction"),
    ("trace.spans", "count"),
];

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Set-ups per scenario-paper1996 run: its set-up takes milliseconds,
/// so more of them are needed for a steady median.
const SCENARIO_SETUP_REPS: usize = 15;

/// Input sizes: the real benchmark, or a seconds-long self-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Tiny,
    Full,
}

/// One output check.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Check {
    pub what: String,
    pub ok: bool,
    pub detail: String,
}

impl Check {
    pub fn new(what: &str, ok: bool, detail: String) -> Self {
        Check {
            what: what.to_owned(),
            ok,
            detail,
        }
    }
}

/// What a measured or traced phase produced.
#[derive(Debug, Default, Serialize, Deserialize)]
pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    pub notes: Vec<(String, String)>,
}

impl Outcome {
    /// Records a check; a failed one counts as a failed operation.
    pub fn check(&mut self, c: Check) {
        if !c.ok {
            self.failed += 1;
        }
        self.checks.push(c);
    }

    /// Records a fact for the run record (heads, digests, counts).
    pub fn note(&mut self, key: &str, value: &str) {
        self.notes.push((key.to_owned(), value.to_owned()));
    }

    fn merge(&mut self, other: Outcome) {
        self.metrics.extend(other.metrics);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.checks.extend(other.checks);
        self.notes.extend(other.notes);
    }
}

/// Command-line arguments.
#[derive(Debug, Clone)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    expect_head: Option<String>,
    work: PathBuf,
    child: Option<String>,
    store: Option<PathBuf>,
}

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--scale full|tiny] \
         [--expect-head HEX] [--work DIR]",
        WORKLOADS.join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
        expect_head: None,
        work: PathBuf::from(".bench_work"),
        child: None,
        store: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))
        };
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace wants 0 or 1, got {other}")),
                }
            }
            "--scale" => {
                a.scale = match value()?.as_str() {
                    "full" => Scale::Full,
                    "tiny" => Scale::Tiny,
                    other => return Err(format!("--scale wants full or tiny, got {other}")),
                }
            }
            "--expect-head" => a.expect_head = Some(value()?),
            "--work" => a.work = PathBuf::from(value()?),
            "--child" => a.child = Some(value()?),
            "--store" => a.store = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
    }
    if a.child.is_none() && !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("unknown workload {:?}\n{}", a.workload, usage()));
    }
    if a.seconds.is_nan() || a.seconds <= 0.0 {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(a)
}

/// The chain head a scenario run must reproduce, if pinned: the
/// paper-1996 head at seed 0 and full scale, or an explicit
/// `--expect-head`.
fn expected_head(a: &Args) -> Option<String> {
    a.expect_head.clone().or_else(|| {
        (a.seed == 0 && a.scale == Scale::Full).then(|| scenario::PAPER_1996_HEAD.to_owned())
    })
}

/// Runs a measured phase in a child process of this binary, so its peak
/// RSS is the workload's alone.
fn in_child(kind: &str, a: &Args) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["--child", kind, "--seed", &a.seed.to_string()])
        .args(["--seconds", &a.seconds.to_string()])
        .args([
            "--scale",
            if a.scale == Scale::Tiny {
                "tiny"
            } else {
                "full"
            },
        ])
        .arg("--work")
        .arg(&a.work);
    if let Some(h) = expected_head(a) {
        cmd.args(["--expect-head", &h]);
    }
    let output = cmd.output().map_err(|e| format!("spawn {kind}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!(
            "{kind} child failed ({}): {}{}",
            output.status,
            stdout,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let line = stdout
        .lines()
        .rev()
        .find_map(|l| l.strip_prefix("OUTCOME "))
        .ok_or_else(|| format!("{kind} child printed no outcome"))?;
    serde_json::from_str(line).map_err(|e| format!("{kind} child outcome: {e}"))
}

/// The child-process entry points.
fn child_main(kind: &str, a: &Args) -> Result<(), String> {
    let head = a.expect_head.as_deref();
    let out = match kind {
        "scenario" => scenario::measure(a.seed, a.seconds, a.scale, &a.work, head)?,
        "mrt-archive" => mrt::measure(a.seed, a.seconds, a.scale, &a.work)?,
        "serve-server" => {
            return serve::server_main(a.store.as_deref().ok_or("--store is required")?);
        }
        other => return Err(format!("unknown child {other}")),
    };
    let line = serde_json::to_string(&out).map_err(|e| e.to_string())?;
    println!("OUTCOME {line}");
    Ok(())
}

/// Times `reps` set-ups; returns their median in seconds and the last
/// one's product.
fn timed_setups<T>(
    reps: usize,
    mut setup: impl FnMut(usize) -> Result<T, String>,
) -> Result<(f64, T), String> {
    let mut times = Vec::new();
    let mut last = None;
    for rep in 0..reps {
        let t = Instant::now();
        let product = setup(rep)?;
        times.push(t.elapsed().as_secs_f64());
        last = Some(product);
    }
    Ok((median(&times), last.expect("at least one set-up")))
}

/// Runs one workload: set-up, then the measured or traced phase.
fn run_workload(a: &Args) -> Result<Outcome, String> {
    let spans = a
        .work
        .join(format!("spans-{}-seed{}.jsonl", a.workload, a.seed));
    let head = expected_head(a);
    let mut out = Outcome::default();
    let setup_s;
    match a.workload.as_str() {
        "scenario-paper1996" => {
            setup_s = timed_setups(SCENARIO_SETUP_REPS, |_| scenario::setup(a.seed, a.scale))?.0;
            out.merge(if a.trace {
                scenario::traced(a.seed, a.scale, &a.work, head.as_deref(), &spans)?
            } else {
                in_child("scenario", a)?
            });
        }
        "mrt-archive" => {
            let (secs, reference) =
                timed_setups(SETUP_REPS, |_| mrt::setup(&a.work, a.seed, a.scale))?;
            setup_s = secs;
            out.merge(if a.trace {
                mrt::traced(a.seed, a.scale, &a.work, &spans)?
            } else {
                let mut measured = in_child("mrt-archive", a)?;
                mrt::verify(&reference, &a.work, &mut measured)?;
                measured
            });
        }
        "serve-mixed" => {
            let (secs, kept) = timed_setups(SETUP_REPS, |rep| {
                let (base, server) = serve::setup(&a.work, a.seed, a.scale)?;
                // Only the last set-up's server is measured; stop the
                // others before the next set-up rewrites their store.
                if rep + 1 < SETUP_REPS {
                    server.stop()?;
                    return Ok(None);
                }
                Ok(Some((base, server)))
            })?;
            setup_s = secs;
            let (base, server) = kept.expect("last set-up keeps its server");
            out.merge(serve::measure(a.seed, a.seconds, &base, server, a.trace)?);
            if a.trace {
                out.merge(serve::traced_passes(
                    a.seed, a.seconds, &base, &a.work, &spans,
                )?);
            }
        }
        other => return Err(format!("unknown workload {other}")),
    }
    out.metrics.set("setup_s", setup_s, "s");
    if a.trace {
        let n = std::fs::read_to_string(&spans)
            .map(|s| s.lines().count())
            .unwrap_or(0);
        out.metrics.set("trace.spans", n as f64, "count");
    }
    Ok(out)
}

/// The commit the checkout was built from, when it is a git checkout.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map(|s| s.trim().to_owned())
            .unwrap_or_else(|_| "unknown".to_owned()),
        None if !head.is_empty() => head.to_owned(),
        None => "unknown".to_owned(),
    }
}

/// A JSON object from `(key, value)` pairs.
fn object(pairs: Vec<(&str, Value)>) -> Value {
    Value::Map(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

/// The workload's sizes and rates, for the run record.
fn sizes(a: &Args) -> Value {
    match a.workload.as_str() {
        "scenario-paper1996" => {
            let (days, pack_seed) = scenario::pack(a.seed, a.scale)
                .map(|p| (p.run.days, p.meta.seed))
                .unwrap_or_default();
            let hours: u64 = if a.scale == Scale::Tiny { 1 } else { 24 };
            object(vec![
                ("pack", "packs/paper_1996.toml".to_value()),
                ("days", days.to_value()),
                ("pack_seed", pack_seed.to_value()),
                ("hours_per_day", hours.to_value()),
                ("jobs", 2u64.to_value()),
                ("chain", "record".to_value()),
            ])
        }
        "serve-mixed" => object(vec![
            ("log_records", serve::records(a.scale).to_value()),
            ("mix", lanes::MIX.to_value()),
            ("connections", 2u64.to_value()),
        ]),
        _ => object(vec![
            ("log_records", mrt::records(a.scale).to_value()),
            ("jobs", mrt::JOBS.to_value()),
        ]),
    }
}

/// What each run leaves in `runs/` beside its result line.
#[derive(Serialize)]
struct RunRecord {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    nproc: usize,
    commit: String,
    sizes: Value,
    failed_frac: f64,
    outcome: Outcome,
}

/// The last line of standard output.
#[derive(Serialize)]
struct ResultLine {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Metrics,
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let a = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(kind) = &a.child {
        return match child_main(kind, &a) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench {kind}: {e}");
                ExitCode::from(1)
            }
        };
    }
    let a = Args {
        work: a.work.join(&a.workload),
        ..a
    };
    util::clear_dir(&a.work);
    if let Err(e) = std::fs::create_dir_all(&a.work) {
        eprintln!("perfbench: cannot create {}: {e}", a.work.display());
        return ExitCode::from(1);
    }
    let out = match run_workload(&a) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench {}: {e}", a.workload);
            return ExitCode::from(1);
        }
    };

    // Exactly the advertised metric set, in the advertised units.
    let wanted: &[(&str, &str)] = if a.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Metrics::default();
    for (name, unit) in wanted {
        metrics.set(name, out.metrics.get(name).unwrap_or(0.0), unit);
    }
    let correct = out.failed == 0 && out.checks.iter().all(|c| c.ok);
    let attempted = out.attempted.max(1);

    for c in &out.checks {
        println!(
            "check: {} {} ({})",
            if c.ok { "ok  " } else { "FAIL" },
            c.what,
            c.detail
        );
    }
    for (name, value, unit) in metrics.iter() {
        println!("{name:<34} {value:>16} {unit}");
    }
    let failed = out.failed;
    let failed_frac = failed as f64 / attempted as f64;
    println!("failed_frac {failed_frac} ({failed} of {attempted})");
    let record = RunRecord {
        workload: a.workload.clone(),
        seed: a.seed,
        seconds: a.seconds,
        trace: a.trace,
        nproc: std::thread::available_parallelism().map_or(1, usize::from),
        commit: commit(),
        sizes: sizes(&a),
        failed_frac,
        outcome: out,
    };
    let record_path = a.work.with_file_name("runs").join(format!(
        "{}-seed{}-trace{}.json",
        a.workload,
        a.seed,
        u8::from(a.trace)
    ));
    let _ = std::fs::create_dir_all(record_path.parent().expect("runs dir has a parent"));
    let text = serde_json::to_string_pretty(&record).unwrap_or_default();
    if let Err(e) = std::fs::write(&record_path, text) {
        eprintln!("perfbench: cannot write {}: {e}", record_path.display());
    }
    println!("record: {}", record_path.display());
    let line = ResultLine {
        correct,
        attempted,
        failed,
        metrics,
    };
    println!("{}", serde_json::to_string(&line).unwrap_or_default());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
