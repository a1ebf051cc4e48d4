//! The read/write request schedule shared by every workload, the direct
//! (in-process `LiveStore`/`Store`) lane that replays it, and the offline
//! answers served reads are checked against.
//!
//! Reads are windowed `CountByClass`, `TopPeers` and `Series` queries;
//! part of them repeat a small hot set ([`MIX`] gives the shares and
//! their basis). Writes are fixed-size `Append`s
//! of raw updates timed after everything already archived, with a
//! `Compact` every Nth write. Because appended events are strictly later
//! than every stored event, the store at generation `g` is exactly the
//! final store clipped to `time <= max_time(g)`, which is how a read
//! served at any generation is recomputed offline.

use crate::trace::Tracer;
use crate::util::ms;
use iri_core::{Classifier, UpdateClass};
use iri_obs::Cause;
use iri_serve::{Command, Filter, Response, WireEvent};
use iri_store::{LiveStore, ScanStats, Store, StoredEvent};
use rand::rngs::StdRng;
use rand::{Rng as _, SeedableRng as _};
use serde::Serialize;
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::time::{Duration, Instant};

/// Shape of a request schedule.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct MixShape {
    /// Reads due per second.
    pub read_per_s: f64,
    /// Writes due per second.
    pub write_per_s: f64,
    /// Raw updates per `Append`.
    pub append_events: usize,
    /// Every Nth write is a `Compact` instead of an `Append`.
    pub compact_every: usize,
    /// Distinct queries in the hot set.
    pub hot_set: usize,
    /// Share of reads drawn from the hot set.
    pub hot_frac: f64,
    /// Read window width, ms.
    pub window_ms: u64,
}

/// The request mix every workload replays. Its basis, from the
/// repository's own serving and store benchmarks:
///
/// - `bench_serve` runs one writer client per eight, each issuing as
///   many requests as a reader, so one request in eight is a write; and
///   every fourth request of a writer is a `Compact`;
/// - `bench_serve` readers rotate through a pool of five queries, as
///   hot reads rotate through the hot set here;
/// - `bench_store` windows its queries to one hour and bins its time
///   series by the minute.
///
/// The rest has no source in the repository and is assumed: half the
/// reads come from the hot set, one distinct query in four reaches the
/// live tail, and an `Append` carries 512 events. The rates keep the
/// ratio and stay well below what the server sustains (about 70
/// requests/s in serve-mixed's closed-loop phase on two cores), so an
/// open-loop run measures latency, not queueing.
pub const MIX: MixShape = MixShape {
    read_per_s: 28.0,
    write_per_s: 4.0,
    append_events: 512,
    compact_every: 4,
    hot_set: 5,
    hot_frac: 0.5,
    window_ms: 3_600_000,
};

/// Time-series bin width, ms (`bench_store`'s one-minute bins).
const BIN_MS: u64 = 60_000;

/// One distinct query in this many reaches the live tail.
const TAIL_EVERY: usize = 4;

/// One scheduled read: `slot` identifies the distinct query.
#[derive(Debug, Clone)]
pub struct ReadReq {
    pub due_ms: f64,
    pub slot: usize,
}

/// One scheduled write.
#[derive(Debug, Clone)]
pub enum WriteOp {
    Append(Vec<WireEvent>),
    Compact,
}

/// A scheduled write.
#[derive(Debug, Clone)]
pub struct WriteReq {
    pub due_ms: f64,
    pub op: WriteOp,
}

/// A seeded request schedule over an archive's time range.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// Distinct read commands; a read's `slot` indexes here.
    pub queries: Vec<Command>,
    /// Whether each distinct query reaches the live tail.
    pub tail: Vec<bool>,
    pub reads: Vec<ReadReq>,
    pub writes: Vec<WriteReq>,
}

/// One request in due order, for single-threaded replays.
pub enum Step<'a> {
    Read(&'a ReadReq),
    Write(&'a WriteReq),
}

/// Distinct query number `n`: a windowed read over an archive spanning
/// `[min_ms, max_ms]`, and whether it reaches the live tail. The kind
/// and the tail flag follow `n`, so every schedule has the mix's shares
/// exactly (one query in four reaches the tail); the seed draws only
/// where each window lies.
fn window_query(
    rng: &mut StdRng,
    n: usize,
    min_ms: u64,
    max_ms: u64,
    shape: &MixShape,
) -> (Command, bool) {
    let span = max_ms.saturating_sub(min_ms);
    let width = shape.window_ms.clamp(1, span.max(1));
    let tail = n % TAIL_EVERY == TAIL_EVERY - 1;
    let filter = if tail {
        Filter {
            from_ms: Some(max_ms.saturating_sub(width / 2).max(min_ms + 1)),
            ..Filter::default()
        }
    } else {
        let from = min_ms + 1 + rng.random_range(0..span.saturating_sub(width).max(1));
        Filter {
            from_ms: Some(from),
            to_ms: Some(from + width),
            ..Filter::default()
        }
    };
    let cmd = match n % 3 {
        0 => Command::CountByClass { filter },
        1 => Command::TopPeers { filter, limit: 10 },
        _ => Command::Series {
            filter,
            bin_ms: BIN_MS,
        },
    };
    (cmd, tail)
}

/// The raw updates of append number `k`, strictly later than
/// `after_ms` and every earlier append.
fn append_batch(rng: &mut StdRng, k: u64, n: usize, after_ms: u64) -> Vec<WireEvent> {
    (0..n as u64)
        .map(|i| {
            let t = after_ms + 1_000 + (k * n as u64 + i) * 20;
            let peer = rng.random_range(0..16) as u32;
            let p = rng.random_range(0..20_000) as u32;
            let addr = format!("192.41.177.{}", peer + 1);
            let prefix = format!("10.{}.{}.0/24", p >> 8, p & 0xff);
            if rng.random_bool(0.4) {
                WireEvent::withdraw(t, 7000 + peer, &addr, &prefix)
            } else {
                WireEvent::announce(t, 7000 + peer, &addr, &prefix)
                    .with_path(&[65_000 + 1 + rng.random_range(0..2) as u32, 7000 + peer])
            }
        })
        .collect()
}

impl Schedule {
    /// `reads` reads and `writes` writes over an archive spanning
    /// `[min_ms, max_ms]`, all derived from `seed`.
    pub fn new(
        seed: u64,
        min_ms: u64,
        max_ms: u64,
        reads: usize,
        writes: usize,
        shape: &MixShape,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5e57_e0ad);
        let (mut queries, mut tail): (Vec<Command>, Vec<bool>) = (0..shape.hot_set)
            .map(|n| window_query(&mut rng, n, min_ms, max_ms, shape))
            .unzip();
        let mut hot_reads = 0;
        let reads = (0..reads)
            .map(|i| {
                // Exactly `hot_frac` of every run of reads is hot, and
                // hot reads rotate through the hot set.
                let hot =
                    ((i + 1) as f64 * shape.hot_frac).floor() > (i as f64 * shape.hot_frac).floor();
                let slot = if shape.hot_set > 0 && hot {
                    hot_reads += 1;
                    (hot_reads - 1) % shape.hot_set
                } else {
                    let (q, t) = window_query(&mut rng, queries.len(), min_ms, max_ms, shape);
                    queries.push(q);
                    tail.push(t);
                    queries.len() - 1
                };
                ReadReq {
                    due_ms: i as f64 * 1e3 / shape.read_per_s,
                    slot,
                }
            })
            .collect();
        let mut appends = 0u64;
        let writes = (0..writes)
            .map(|j| {
                let op = if (j + 1) % shape.compact_every.max(1) == 0 {
                    WriteOp::Compact
                } else {
                    appends += 1;
                    WriteOp::Append(append_batch(
                        &mut rng,
                        appends - 1,
                        shape.append_events,
                        max_ms,
                    ))
                };
                WriteReq {
                    due_ms: j as f64 * 1e3 / shape.write_per_s,
                    op,
                }
            })
            .collect();
        Schedule {
            queries,
            tail,
            reads,
            writes,
        }
    }

    /// Reads and writes merged in due order (writes first on ties).
    pub fn steps(&self) -> Vec<Step<'_>> {
        let mut out = Vec::with_capacity(self.reads.len() + self.writes.len());
        let (mut r, mut w) = (0, 0);
        while r < self.reads.len() || w < self.writes.len() {
            let take_write = w < self.writes.len()
                && (r >= self.reads.len() || self.writes[w].due_ms <= self.reads[r].due_ms);
            if take_write {
                out.push(Step::Write(&self.writes[w]));
                w += 1;
            } else {
                out.push(Step::Read(&self.reads[r]));
                r += 1;
            }
        }
        out
    }

    /// Share of the first `n` reads whose window reaches the live tail.
    pub fn tail_share(&self, n: usize) -> f64 {
        let reads = &self.reads[..n.min(self.reads.len())];
        let tail = reads.iter().filter(|r| self.tail[r.slot]).count();
        tail as f64 / reads.len().max(1) as f64
    }

    /// Latest event time of the appends among the first `writes` writes.
    pub fn last_append_time(&self, writes: usize) -> Option<u64> {
        self.writes[..writes]
            .iter()
            .rev()
            .find_map(|w| match &w.op {
                WriteOp::Append(evs) => evs.last().map(|e| e.time_ms),
                WriteOp::Compact => None,
            })
    }
}

/// `(generation, query slot, answer body)` of each read, in order.
pub type Answers = Vec<(u64, usize, String)>;

/// The comparable body of a read answer: everything but the cache flag
/// and the scan statistics.
pub fn reply_body(resp: &Response) -> Option<(u64, String)> {
    match resp {
        Response::Counts {
            generation, counts, ..
        } => Some((*generation, format!("counts:{counts:?}"))),
        Response::Top {
            generation, rows, ..
        } => Some((
            *generation,
            format!(
                "top:{:?}",
                rows.iter()
                    .map(|r| (r.key.clone(), r.count))
                    .collect::<Vec<_>>()
            ),
        )),
        Response::Series {
            generation, bins, ..
        } => Some((*generation, format!("series:{bins:?}"))),
        _ => None,
    }
}

/// Answers a read command directly against a store, optionally clipped
/// to `time < clip_to`, rendered like [`reply_body`].
pub fn answer(
    store: &mut Store,
    cmd: &Command,
    clip_to: Option<u64>,
) -> Result<(String, ScanStats), String> {
    let filter = match cmd {
        Command::CountByClass { filter }
        | Command::TopPeers { filter, .. }
        | Command::Series { filter, .. } => filter,
        other => return Err(format!("not a read command: {other:?}")),
    };
    let mut q = filter.to_query()?;
    if let Some(c) = clip_to {
        q.to_ms = q.to_ms.min(c);
    }
    let err = |e: iri_store::StoreError| e.to_string();
    Ok(match cmd {
        Command::CountByClass { .. } => {
            let (counts, stats) = store.count_by_class(&q).map_err(err)?;
            let ordered: Vec<u64> = UpdateClass::ALL.iter().map(|c| counts[c.index()]).collect();
            (format!("counts:{ordered:?}"), stats)
        }
        Command::TopPeers { limit, .. } => {
            let (rows, stats) = store.count_by_peer(&q).map_err(err)?;
            let rows: Vec<(String, u64)> = rows
                .into_iter()
                .take(usize::try_from(*limit).unwrap_or(usize::MAX))
                .map(|(asn, n)| (asn.to_string(), n))
                .collect();
            (format!("top:{rows:?}"), stats)
        }
        Command::Series { bin_ms, .. } => {
            let (bins, stats) = store.time_series(&q, *bin_ms).map_err(err)?;
            (format!("series:{bins:?}"), stats)
        }
        _ => unreachable!("matched above"),
    })
}

/// Classifies raw appends the way the server does.
pub fn classify_batch(
    classifier: &mut Classifier,
    events: &[WireEvent],
) -> Result<Vec<StoredEvent>, String> {
    events
        .iter()
        .map(|ev| {
            let update = ev.to_update()?;
            Ok(StoredEvent::from_classified(
                &classifier.classify(&update),
                Cause::Unknown,
            ))
        })
        .collect()
}

/// What a direct replay measured.
#[derive(Debug, Default)]
pub struct DirectRun {
    /// Per-read latency (snapshot + plan + execute), ms.
    pub read_ms: Vec<f64>,
    /// Per-append latency (classify + commit), ms.
    pub write_ms: Vec<f64>,
    /// Per-compaction latency, ms.
    pub compact_ms: Vec<f64>,
    /// Every read's answer.
    pub answers: Answers,
    /// Time in the aggregation entry points, which compile a plan with
    /// `Store::plan` and execute it.
    pub plan_execute: Duration,
    /// Time classifying appended updates, and how many.
    pub classify: Duration,
    pub classified: u64,
    /// Pages scanned, over all reads.
    pub pages_scanned: u64,
    /// Sum of per-read prune ratios (divide by reads).
    pub prune_sum: f64,
    /// Rows appended.
    pub appended: u64,
}

/// Replays a schedule single-threaded in due order straight against a
/// `LiveStore` (no serve layer, no pacing), possibly a slice at a time;
/// `run` accumulates over every slice.
#[derive(Default)]
pub struct DirectLane {
    classifier: Classifier,
    pub run: DirectRun,
}

impl DirectLane {
    /// Replays `steps` of `sched`, wrapping layer calls in spans when a
    /// tracer is given.
    pub fn replay(
        &mut self,
        live: &LiveStore,
        sched: &Schedule,
        steps: &[Step<'_>],
        tracer: Option<&Tracer>,
    ) -> Result<(), String> {
        let span = |name: &'static str, f: &mut dyn FnMut() -> Result<(), String>| match tracer {
            Some(t) => t.span(name, f),
            None => f(),
        };
        let out = &mut self.run;
        let segment_rows = live.manifest().segment_rows;
        for step in steps {
            match step {
                Step::Read(r) => {
                    let cmd = &sched.queries[r.slot];
                    let t0 = Instant::now();
                    let mut snap = live.snapshot();
                    let generation = snap.generation();
                    let mut body = String::new();
                    let mut stats = ScanStats::default();
                    span("store.plan_execute", &mut || {
                        let t = Instant::now();
                        let (b, s) = answer(&mut snap, cmd, None)?;
                        out.plan_execute += t.elapsed();
                        body = b;
                        stats = s;
                        Ok(())
                    })?;
                    drop(snap);
                    out.read_ms.push(ms(t0.elapsed()));
                    out.pages_scanned += stats.pages_scanned;
                    out.prune_sum += stats.prune_ratio();
                    out.answers.push((generation, r.slot, body));
                }
                Step::Write(w) => {
                    let t0 = Instant::now();
                    match &w.op {
                        WriteOp::Append(events) => {
                            let t = Instant::now();
                            let rows = classify_batch(&mut self.classifier, events)?;
                            out.classify += t.elapsed();
                            out.classified += rows.len() as u64;
                            span("store.append", &mut || {
                                live.append_events(&rows)
                                    .map(|_| ())
                                    .map_err(|e| e.to_string())
                            })?;
                            out.appended += rows.len() as u64;
                            out.write_ms.push(ms(t0.elapsed()));
                        }
                        WriteOp::Compact => {
                            span("store.compact", &mut || {
                                live.compact(segment_rows)
                                    .map(|_| ())
                                    .map_err(|e| e.to_string())
                            })?;
                            out.compact_ms.push(ms(t0.elapsed()));
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

/// Checks served reads against offline answers from the quiesced final
/// store at `dir`. `gen_max_time` maps each generation to the latest
/// event time it held. Returns `(checked, wrong)`.
pub fn verify_offline(
    dir: &Path,
    sched: &Schedule,
    served: &[(u64, usize, String)],
    gen_max_time: &BTreeMap<u64, u64>,
) -> Result<(u64, u64), String> {
    let mut store = Store::open(dir).map_err(|e| e.to_string())?;
    let mut cache: HashMap<(usize, u64), String> = HashMap::new();
    let mut wrong = 0u64;
    for (generation, slot, body) in served {
        let Some((_, &max_time)) = gen_max_time.range(..=*generation).next_back() else {
            wrong += 1;
            continue;
        };
        let clip = max_time + 1;
        let want = match cache.get(&(*slot, clip)) {
            Some(w) => w.clone(),
            None => {
                let (w, _) = answer(&mut store, &sched.queries[*slot], Some(clip))?;
                cache.insert((*slot, clip), w.clone());
                w
            }
        };
        if want != *body {
            wrong += 1;
        }
    }
    Ok((served.len() as u64, wrong))
}

/// Class counts (index order) of every row in the store at `dir`.
pub fn store_class_counts(dir: &Path) -> Result<[u64; UpdateClass::COUNT], String> {
    let mut store = Store::open(dir).map_err(|e| e.to_string())?;
    store
        .count_by_class(&iri_store::Query::default())
        .map(|(c, _)| c)
        .map_err(|e| e.to_string())
}
