//! `serve-mixed`: `iri-serve` over TCP against a store built in set-up
//! from a seeded MRT log. Two connections — a read stream and a write
//! stream — first run open loop, each request timed from when it was
//! due, which gives the latencies; then closed loop, each request sent
//! as soon as the previous reply is in, which gives the throughput the
//! server sustains. The server runs in its own process so its peak RSS
//! is its own.

use crate::lanes::{
    classify_batch, reply_body, store_class_counts, verify_offline, Answers, DirectLane, Schedule,
    Step, WriteOp, MIX,
};
use crate::mrt::{ingest, write_log};
use crate::scenario::append_metrics;
use crate::timing_fs::TimingFs;
use crate::trace::Tracer;
use crate::util::{median, ms, quantile, quantile_summary, store_bytes, Metrics};
use crate::{Check, Outcome, Scale};
use iri_core::{Classifier, UpdateClass};
use iri_faults::SharedFs;
use iri_obs::span::PlanTrace;
use iri_serve::{Client, Command, Reply, Request, Response, ServeCore, ServeOptions, Server};
use iri_store::{LiveOptions, LiveStore, Store};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write as _};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command as Proc, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Store worker threads inside the server.
const JOBS: usize = 2;

/// MRT records in the base log.
pub fn records(scale: Scale) -> u64 {
    match scale {
        Scale::Tiny => 20_000,
        Scale::Full => 600_000,
    }
}

/// Share of `--seconds` spent in the open-loop phase, which gives the
/// latencies; the closed-loop phase after it gives the throughput.
const OPEN_SHARE: f64 = 0.5;

/// Idle time between the phases, so the open-loop tail drains first.
const PHASE_GAP: Duration = Duration::from_millis(250);

/// Writes per second scheduled for the closed-loop phase, with reads in
/// the mix's ratio: far more than the server answers, so neither stream
/// runs out before the deadline.
const CLOSED_WRITES_PER_S: f64 = 40.0;

/// What set-up leaves behind for the measured phase.
pub struct Base {
    pub store: PathBuf,
    pub log: PathBuf,
    pub generation: u64,
    pub min_ms: u64,
    pub max_ms: u64,
    pub class_counts: [u64; UpdateClass::COUNT],
}

/// The server child process.
pub struct ServerProc {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    pub addr: String,
}

impl ServerProc {
    /// Starts `<this binary> --child serve-server --store DIR` and waits
    /// for its `ready <addr>` line.
    pub fn spawn(store: &Path) -> Result<ServerProc, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut child = Proc::new(exe)
            .args(["--child", "serve-server", "--store"])
            .arg(store)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn server: {e}"))?;
        let stdin = child.stdin.take();
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        stdout.read_line(&mut line).map_err(|e| e.to_string())?;
        let Some(addr) = line.trim().strip_prefix("ready ") else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("server did not start: {line:?}"));
        };
        Ok(ServerProc {
            addr: addr.to_owned(),
            child,
            stdin,
            stdout,
        })
    }

    /// Closes the server's stdin (it drains and exits) and returns its
    /// peak RSS in MiB.
    pub fn stop(mut self) -> Result<f64, String> {
        drop(self.stdin.take());
        let mut line = String::new();
        self.stdout
            .read_line(&mut line)
            .map_err(|e| e.to_string())?;
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if !status.success() {
            return Err(format!("server exited with {status}"));
        }
        line.trim()
            .strip_prefix("peak_rss_mb ")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("server did not report its peak RSS: {line:?}"))
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        // A server still running here was abandoned by an error path.
        if self.stdin.is_some() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// The server process: serve `store` on an ephemeral port until stdin
/// closes, then drain and report peak RSS.
pub fn server_main(store: &Path) -> Result<(), String> {
    let live = LiveStore::open_with(
        store,
        &LiveOptions {
            jobs: JOBS,
            ..LiveOptions::default()
        },
    )
    .map_err(|e| e.to_string())?;
    let core = Arc::new(ServeCore::new(live, &ServeOptions::default()));
    let server = Server::bind(Arc::clone(&core), "127.0.0.1:0").map_err(|e| e.to_string())?;
    let mut stdout = std::io::stdout();
    writeln!(stdout, "ready {}", server.local_addr()).map_err(|e| e.to_string())?;
    stdout.flush().map_err(|e| e.to_string())?;
    let mut sink = String::new();
    let stdin = std::io::stdin();
    while stdin
        .lock()
        .read_line(&mut sink)
        .map_err(|e| e.to_string())?
        > 0
    {
        sink.clear();
    }
    server.shutdown();
    writeln!(stdout, "peak_rss_mb {}", crate::util::peak_rss_mb()).map_err(|e| e.to_string())?;
    stdout.flush().map_err(|e| e.to_string())
}

/// Set-up: the seeded log, its archive, and a server on it.
pub fn setup(work: &Path, seed: u64, scale: Scale) -> Result<(Base, ServerProc), String> {
    let log = work.join("log.mrt");
    let store = work.join("store");
    write_log(&log, records(scale), seed)?;
    let (outcome, _) = ingest(&log, &store, None)?;
    let base = Base {
        class_counts: store_class_counts(&store)?,
        generation: outcome.manifest.generation,
        min_ms: outcome.manifest.min_time_ms,
        max_ms: outcome.manifest.max_time_ms,
        log,
        store: store.clone(),
    };
    let server = ServerProc::spawn(&store)?;
    Ok((base, server))
}

/// The two phases of a run of `seconds`.
#[derive(Debug, Clone, Copy)]
struct Phases {
    open_s: f64,
    closed_s: f64,
}

impl Phases {
    /// Half of `seconds` for each phase.
    fn of(seconds: f64) -> Phases {
        Phases {
            open_s: seconds * OPEN_SHARE,
            closed_s: seconds * (1.0 - OPEN_SHARE),
        }
    }

    /// Reads and writes due in the open-loop phase.
    fn open_counts(&self) -> (usize, usize) {
        (
            (self.open_s * MIX.read_per_s).ceil() as usize,
            (self.open_s * MIX.write_per_s).ceil() as usize,
        )
    }
}

/// The request schedule: the open-loop phase's requests, then the
/// closed-loop phase's. One schedule keeps every append strictly later
/// than the ones before it.
fn schedule(seed: u64, base: &Base, phases: Phases) -> Schedule {
    let (reads, writes) = phases.open_counts();
    let closed_writes = (phases.closed_s * CLOSED_WRITES_PER_S).ceil() as usize;
    let closed_reads = closed_writes * (MIX.read_per_s / MIX.write_per_s).ceil() as usize;
    Schedule::new(
        seed,
        base.min_ms,
        base.max_ms,
        reads + closed_reads,
        writes + closed_writes,
        &MIX,
    )
}

/// One stream's results.
#[derive(Default)]
struct Stream {
    /// Latency from due time, ms, per answered open-loop request.
    due_ms: Vec<f64>,
    /// How late each open-loop request was sent, ms.
    late_ms: Vec<f64>,
    /// Most requests already due while one was being sent.
    backlog_max: usize,
    /// Requests sent, and those refused or failed.
    sent: u64,
    failed: u64,
    /// `(index, reply, send-to-reply ms)` of every answered request.
    replies: Vec<(usize, Reply, f64)>,
    /// Closed-loop replies that arrived before the deadline.
    closed_replies: u64,
}

/// The closed-loop phase as one stream sees it. Each stream sends its
/// next request as soon as its previous reply is in, but only while it
/// is within one cycle of the mix ahead of the other stream, so the
/// phase keeps the mix's ratio of reads to writes: the server, not a
/// race between the streams, sets the pace.
struct Closed<'a> {
    at: Instant,
    deadline: Instant,
    /// Closed-loop replies this stream and the other one have had.
    mine: &'a AtomicUsize,
    other: &'a AtomicUsize,
    /// This stream's requests per request of the other.
    per_other: f64,
}

impl Closed<'_> {
    /// Waits until closed-loop request `k` may go; false once the
    /// phase is over.
    fn wait_turn(&self, k: usize) -> bool {
        while k as f64 >= self.per_other * (self.other.load(Ordering::Acquire) + 1) as f64 {
            if Instant::now() >= self.deadline {
                return false;
            }
            std::thread::sleep(Duration::from_micros(100));
        }
        Instant::now() < self.deadline
    }
}

/// Sends `items` on one connection: the first `open` each at its due
/// time after `t0` (or as soon as the previous reply is in, when late),
/// then the rest closed loop until the phase's deadline.
fn run_stream(
    addr: &str,
    items: &[(f64, Command)],
    open: usize,
    t0: Instant,
    closed: &Closed<'_>,
) -> Result<Stream, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut s = Stream::default();
    for (i, (due_ms, cmd)) in items.iter().enumerate() {
        let due = if i < open {
            t0 + Duration::from_secs_f64(due_ms / 1e3)
        } else {
            closed.at
        };
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        if i >= open && !closed.wait_turn(i - open) {
            break;
        }
        let sent = Instant::now();
        if i < open {
            s.late_ms.push(ms(sent.saturating_duration_since(due)));
            let since = ms(sent.saturating_duration_since(t0));
            let backlog = items[i..open]
                .iter()
                .take_while(|(d, _)| *d <= since)
                .count();
            s.backlog_max = s.backlog_max.max(backlog);
        }
        s.sent += 1;
        let result = client.request(cmd.clone());
        let done = Instant::now();
        if i >= open {
            closed.mine.fetch_add(1, Ordering::Release);
        }
        match result {
            Ok(reply)
                if !matches!(
                    reply.resp,
                    Response::Busy { .. } | Response::ShuttingDown | Response::Error { .. }
                ) =>
            {
                if i < open {
                    s.due_ms.push(ms(done.saturating_duration_since(due)));
                } else if done <= closed.deadline {
                    s.closed_replies += 1;
                }
                s.replies.push((i, reply, ms(done - sent)));
            }
            _ => s.failed += 1,
        }
    }
    Ok(s)
}

/// Plan-trace quantiles of the answered open-loop reads (the trace-only
/// serve metrics).
fn plan_metrics(m: &mut Metrics, reads: &Stream, open: usize) {
    let plans: Vec<(&PlanTrace, f64)> = reads
        .replies
        .iter()
        .filter(|(i, _, _)| *i < open)
        .filter_map(|(_, r, wall)| r.plan.as_ref().map(|p| (p, *wall)))
        .collect();
    let exec: Vec<f64> = plans.iter().map(|(p, _)| p.exec_us as f64).collect();
    let admit: Vec<f64> = plans
        .iter()
        .map(|(p, _)| p.admission_wait_us as f64)
        .collect();
    let wire: Vec<f64> = plans
        .iter()
        .map(|(p, wall)| (wall * 1e3 - p.total_us as f64).max(0.0))
        .collect();
    m.set("serve.exec_read_p50_us", median(&exec), "us");
    m.set("serve.exec_read_p99_us", quantile(&exec, 0.99), "us");
    m.set("serve.admission_wait_p99_us", quantile(&admit, 0.99), "us");
    m.set(
        "serve.cache_hit_ratio",
        cache_hit_ratio(reads, open),
        "fraction",
    );
    m.set("serve.reads", plans.len() as f64, "count");
    m.set("serve.wire_queue_p99_us", quantile(&wire, 0.99), "us");
    m.set("loadgen.late_p99_ms", quantile(&reads.late_ms, 0.99), "ms");
    m.set("loadgen.backlog_max", reads.backlog_max as f64, "count");
}

/// Cache hits ÷ answered reads among the first `open` reads.
fn cache_hit_ratio(reads: &Stream, open: usize) -> f64 {
    let plans: Vec<&PlanTrace> = reads
        .replies
        .iter()
        .filter(|(i, _, _)| *i < open)
        .filter_map(|(_, r, _)| r.plan.as_ref())
        .collect();
    let hits = plans.iter().filter(|p| p.cache_hit).count();
    hits as f64 / plans.len().max(1) as f64
}

/// The measured phase: both streams over TCP against the set-up
/// server, open loop and then closed loop, then the offline checks of
/// every read and of the final store. With `traced`, also returns the
/// plan-trace metrics.
pub fn measure(
    seed: u64,
    seconds: f64,
    base: &Base,
    server: ServerProc,
    traced: bool,
) -> Result<Outcome, String> {
    let phases = Phases::of(seconds);
    let (open_reads, open_writes) = phases.open_counts();
    let sched = schedule(seed, base, phases);
    let reads: Vec<(f64, Command)> = sched
        .reads
        .iter()
        .map(|r| (r.due_ms, sched.queries[r.slot].clone()))
        .collect();
    let writes: Vec<(f64, Command)> = sched
        .writes
        .iter()
        .map(|w| {
            let cmd = match &w.op {
                WriteOp::Append(events) => Command::Append {
                    events: events.clone(),
                },
                WriteOp::Compact => Command::Compact { target_rows: None },
            };
            (w.due_ms, cmd)
        })
        .collect();
    let t0 = Instant::now() + Duration::from_millis(20);
    let closed_at = t0 + Duration::from_secs_f64(phases.open_s) + PHASE_GAP;
    let deadline = closed_at + Duration::from_secs_f64(phases.closed_s);
    let addr = server.addr.clone();
    let (reads_done, writes_done) = (AtomicUsize::new(0), AtomicUsize::new(0));
    let reads_per_write = MIX.read_per_s / MIX.write_per_s;
    let read_side = Closed {
        at: closed_at,
        deadline,
        mine: &reads_done,
        other: &writes_done,
        per_other: reads_per_write,
    };
    let write_side = Closed {
        mine: &writes_done,
        other: &reads_done,
        per_other: 1.0 / reads_per_write,
        ..read_side
    };
    let (r, w) = std::thread::scope(|s| {
        let rh = s.spawn(|| run_stream(&addr, &reads, open_reads, t0, &read_side));
        let wh = s.spawn(|| run_stream(&addr, &writes, open_writes, t0, &write_side));
        (
            rh.join().expect("read stream panicked"),
            wh.join().expect("write stream panicked"),
        )
    });
    let (r, w) = (r?, w?);
    let mut out = Outcome::default();
    out.attempted += r.sent + w.sent;
    out.failed += r.failed + w.failed;

    // Every read against an offline answer at the reply's generation.
    let mut gen_max_time: BTreeMap<u64, u64> = BTreeMap::new();
    gen_max_time.insert(base.generation, base.max_ms);
    let mut append_latency = Vec::new();
    for (i, reply, _) in &w.replies {
        if let Response::Appended { generation, .. } = reply.resp {
            let max = sched.last_append_time(i + 1).unwrap_or(base.max_ms);
            gen_max_time.insert(generation, max);
        }
    }
    for ((i, reply, _), lat) in w.replies.iter().zip(&w.due_ms) {
        if *i < open_writes && matches!(reply.resp, Response::Appended { .. }) {
            append_latency.push(*lat);
        }
    }
    let served: Answers = r
        .replies
        .iter()
        .filter_map(|(i, reply, _)| {
            reply_body(&reply.resp).map(|(g, b)| (g, sched.reads[*i].slot, b))
        })
        .collect();
    let (checked, wrong) = verify_offline(&base.store, &sched, &served, &gen_max_time)?;
    out.failed += wrong + (r.replies.len() as u64 - checked);
    out.checks.push(Check::new(
        "every served read equals the offline answer at its generation",
        wrong == 0 && checked == r.replies.len() as u64,
        format!("{wrong} of {checked} reads wrong"),
    ));

    // The quiesced store against base counts plus an offline
    // classification of every acknowledged append.
    let mut classifier = Classifier::new();
    let mut want = base.class_counts;
    for (i, reply, _) in &w.replies {
        if let (Response::Appended { .. }, WriteOp::Append(events)) =
            (&reply.resp, &sched.writes[*i].op)
        {
            for row in classify_batch(&mut classifier, events)? {
                want[row.class.index()] += 1;
            }
        }
    }
    let got = store_class_counts(&base.store)?;
    out.attempted += 1;
    out.check(Check::new(
        "the quiesced store equals an offline recompute",
        got == want,
        format!("store {got:?} offline {want:?}"),
    ));

    let events = Store::open(&base.store)
        .map_err(|e| e.to_string())?
        .manifest()
        .total_events;
    let peak = server.stop()?;
    let m = &mut out.metrics;
    let closed_replies = r.closed_replies + w.closed_replies;
    m.set(
        "throughput_per_s",
        closed_replies as f64 / phases.closed_s,
        "1/s",
    );
    m.set("read_p50_ms", median(&r.due_ms), "ms");
    m.set("read_p99_ms", quantile(&r.due_ms, 0.99), "ms");
    m.set("write_p50_ms", median(&append_latency), "ms");
    m.set("write_p90_ms", quantile(&append_latency, 0.90), "ms");
    m.set(
        "store_bytes_per_event",
        store_bytes(&base.store) as f64 / events.max(1) as f64,
        "B/event",
    );
    m.set("peak_rss_mb", peak, "MiB");
    if traced {
        plan_metrics(m, &r, open_reads);
    }
    let exec_ms: Vec<f64> = r
        .replies
        .iter()
        .filter(|(i, ..)| *i < open_reads)
        .filter_map(|(_, reply, _)| reply.plan.as_ref().map(|p| p.exec_us as f64 / 1e3))
        .collect();
    out.note("read_ms", &quantile_summary(&r.due_ms));
    out.note("read_exec_ms", &quantile_summary(&exec_ms));
    out.note("write_ms", &quantile_summary(&append_latency));
    let in_open = |s: &Stream, open: usize| s.replies.iter().filter(|(i, ..)| *i < open).count();
    out.note("open_reads", &in_open(&r, open_reads).to_string());
    out.note("open_writes", &in_open(&w, open_writes).to_string());
    out.note(
        "closed_reads",
        &(r.replies.len() - in_open(&r, open_reads)).to_string(),
    );
    out.note(
        "closed_writes",
        &(w.replies.len() - in_open(&w, open_writes)).to_string(),
    );
    out.note(
        "cache_hit_ratio",
        &cache_hit_ratio(&r, open_reads).to_string(),
    );
    out.note("tail_share", &sched.tail_share(open_reads).to_string());
    out.note("final_events", &events.to_string());
    Ok(out)
}

/// Replays the schedule single-threaded through an in-process
/// `ServeCore::handle` on a fresh copy of the base store.
fn inprocess_pass(
    base: &Base,
    dir: &Path,
    sched: &Schedule,
    fs: Option<SharedFs>,
    tr: Option<&Tracer>,
) -> Result<(Answers, Duration), String> {
    ingest(&base.log, dir, None)?;
    let mut opts = LiveOptions {
        jobs: JOBS,
        ..LiveOptions::default()
    };
    if let Some(fs) = fs {
        opts.fs = fs;
    }
    let live = LiveStore::open_with(dir, &opts).map_err(|e| e.to_string())?;
    let core = ServeCore::new(live, &ServeOptions::default());
    let started = Instant::now();
    let mut answers = Vec::new();
    let mut run = || -> Result<(), String> {
        for (id, step) in sched.steps().into_iter().enumerate() {
            let (name, cmd, slot) = match step {
                Step::Read(r) => (
                    "serve.handle_read",
                    sched.queries[r.slot].clone(),
                    Some(r.slot),
                ),
                Step::Write(w) => match &w.op {
                    WriteOp::Append(events) => (
                        "serve.handle_append",
                        Command::Append {
                            events: events.clone(),
                        },
                        None,
                    ),
                    WriteOp::Compact => (
                        "serve.handle_compact",
                        Command::Compact { target_rows: None },
                        None,
                    ),
                },
            };
            let req = Request { id: id as u64, cmd };
            let reply = match tr {
                Some(t) => t.span(name, || core.handle(req)),
                None => core.handle(req),
            };
            if matches!(reply.resp, Response::Error { .. } | Response::Busy { .. }) {
                return Err(format!(
                    "in-process request failed: {}",
                    message_of(&reply.resp)
                ));
            }
            if let (Some(slot), Some((g, body))) = (slot, reply_body(&reply.resp)) {
                answers.push((g, slot, body));
            }
        }
        Ok(())
    };
    match tr {
        Some(t) => t.thread("serve", run)?,
        None => run()?,
    }
    Ok((answers, started.elapsed()))
}

fn message_of(resp: &Response) -> String {
    match resp {
        Response::Error { message, .. } => message.clone(),
        other => format!("{other:?}"),
    }
}

/// The traced run's extra passes: the schedule through an in-process
/// `ServeCore::handle` (untraced, then traced through a timing
/// filesystem) and directly against `LiveStore`/`Store`.
pub fn traced_passes(
    seed: u64,
    seconds: f64,
    base: &Base,
    work: &Path,
    spans_out: &Path,
) -> Result<Outcome, String> {
    // The open-loop phase's requests only.
    let phases = Phases {
        closed_s: 0.0,
        ..Phases::of(seconds)
    };
    let sched = schedule(seed, base, phases);
    let mut out = Outcome::default();
    let (_, plain_wall) = inprocess_pass(base, &work.join("inproc-untraced"), &sched, None, None)?;
    let fs = TimingFs::shared();
    let tr = Tracer::default();
    let (served, wall) = inprocess_pass(
        base,
        &work.join("inproc-traced"),
        &sched,
        Some(fs.as_shared()),
        Some(&tr),
    )?;
    let direct_dir = work.join("direct");
    ingest(&base.log, &direct_dir, None)?;
    let direct_fs = TimingFs::shared();
    let live = LiveStore::open_with(
        &direct_dir,
        &LiveOptions {
            fs: direct_fs.as_shared(),
            jobs: JOBS,
            ..LiveOptions::default()
        },
    )
    .map_err(|e| e.to_string())?;
    let mut lane = DirectLane::default();
    tr.thread("direct", || {
        lane.replay(&live, &sched, &sched.steps(), Some(&tr))
    })?;
    let direct = lane.run;
    tr.write_jsonl(spans_out).map_err(|e| e.to_string())?;
    out.attempted += 1;
    out.check(Check::new(
        "in-process serve answers equal direct store answers",
        served == direct.answers,
        format!("{} served, {} direct", served.len(), direct.answers.len()),
    ));
    let m = &mut out.metrics;
    m.set("core.classify_ms", ms(direct.classify), "ms");
    m.set("core.classified", direct.classified as f64, "count");
    append_metrics(m, &tr, direct.appended);
    let reads = direct.read_ms.len().max(1) as f64;
    m.set("store.plan_execute_ms", ms(direct.plan_execute), "ms");
    m.set(
        "store.pages_scanned_per_read",
        direct.pages_scanned as f64 / reads,
        "count",
    );
    m.set("store.prune_ratio", direct.prune_sum / reads, "fraction");
    m.extend(fs.metrics(direct.appended));
    let cov = tr.coverage(&[("direct", direct.classify)]);
    m.set(
        "trace.coverage_serve",
        cov.get("serve").copied().unwrap_or(0.0),
        "fraction",
    );
    m.set(
        "trace.coverage_direct",
        cov.get("direct").copied().unwrap_or(0.0),
        "fraction",
    );
    m.set(
        "trace.overhead_frac",
        wall.as_secs_f64() / plain_wall.as_secs_f64() - 1.0,
        "fraction",
    );
    Ok(out)
}
