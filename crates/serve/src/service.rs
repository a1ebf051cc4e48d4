//! The transport-independent service core: admission control, snapshot
//! pinning, cached execution, and metrics.
//!
//! [`ServeCore::handle`] is the whole request pipeline; the TCP server
//! and the in-process client are both thin shells around it:
//!
//! ```text
//! parse → admit (or Busy) → pin snapshot → cache get → scan → cache put
//! ```
//!
//! Every stage is metered through an [`iri_obs::Registry`]: request and
//! busy counters, cache hit/miss counters, gate-wait and pin/exec
//! latency histograms, plus the pooled per-request [`PlanTrace`]
//! aggregates. Each gated request additionally opens strictly nested
//! spans (`request` → `admit` → `pin`/`scan`) in a bounded
//! [`Tracer`] stamped with the request sequence number (the service's
//! virtual clock — never the wall clock), and its flattened
//! [`PlanTrace`] rides back on the reply and feeds a top-K slow-query
//! log. The `metrics` and `health` verbs expose all of it over the
//! wire. Queries run against a [`Snapshot`] pinned at the current
//! generation, so they are never blocked by — and never block —
//! concurrent appends, compactions, or re-ingests on the same
//! [`LiveStore`].

use crate::cache::ResultCache;
use crate::proto::{
    Command, Filter, HealthBody, InfoBody, MetricsBody, Reply, Request, Response, SlowQuery,
    StatsBody, TopRow, CODE_JSON, CODE_USAGE,
};
use iri_core::classifier::Classifier;
use iri_core::taxonomy::UpdateClass;
use iri_obs::{
    Cause, CounterId, HistogramId, PlanMeters, PlanTrace, Registry, SpanId, SpanStack, Tracer,
};
use iri_store::{LiveStore, Snapshot, StoreError, StoredEvent};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Service tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServeOptions {
    /// Requests allowed to execute concurrently.
    pub max_inflight: usize,
    /// Requests allowed to wait for a slot before `Busy` is returned.
    pub max_queue: usize,
    /// Result-cache capacity in responses (0 disables caching).
    pub cache_entries: usize,
    /// Longest a request may wait in the admission queue before it
    /// abandons and is answered `Busy` (`None` waits indefinitely).
    pub max_queue_wait_ms: Option<u64>,
    /// Span/trace ring-buffer capacity in events (0 disables tracing).
    pub trace_capacity: usize,
    /// Slow-query log size: the K worst requests by total latency
    /// retained for the `metrics` verb (0 disables the log).
    pub slow_log_entries: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            max_inflight: 64,
            max_queue: 256,
            cache_entries: 256,
            max_queue_wait_ms: None,
            trace_capacity: 4096,
            slow_log_entries: 16,
        }
    }
}

#[derive(Debug, Default)]
struct GateState {
    active: usize,
    queued: usize,
}

/// Counting semaphore with a bounded wait queue: up to `max_inflight`
/// permits outstanding, up to `max_queue` waiters blocked for one;
/// beyond that [`AdmissionGate::admit`] refuses immediately so a
/// saturated service degrades to fast typed `Busy` replies instead of
/// unbounded queueing.
#[derive(Debug)]
pub struct AdmissionGate {
    state: Mutex<GateState>,
    freed: Condvar,
    max_inflight: usize,
    max_queue: usize,
}

/// Why [`AdmissionGate::admit_timed`] refused a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Refusal {
    /// Requests executing at refusal time.
    pub active: u64,
    /// Requests queued at refusal time.
    pub queued: u64,
    /// `true` when the request waited in the queue and gave up at the
    /// wait limit; `false` when the full queue turned it away at once.
    pub abandoned: bool,
    /// How long the request waited before being refused.
    pub waited: Duration,
}

/// RAII execution slot; dropping it wakes one queued waiter.
#[derive(Debug)]
pub struct Permit<'a> {
    gate: &'a AdmissionGate,
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        if let Ok(mut s) = self.gate.state.lock() {
            s.active -= 1;
        }
        self.gate.freed.notify_one();
    }
}

impl AdmissionGate {
    /// A gate admitting `max_inflight` concurrent holders and queueing
    /// at most `max_queue` more.
    #[must_use]
    pub fn new(max_inflight: usize, max_queue: usize) -> Self {
        AdmissionGate {
            state: Mutex::new(GateState::default()),
            freed: Condvar::new(),
            max_inflight,
            max_queue,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, GateState> {
        self.state
            .lock()
            .unwrap_or_else(|_| panic!("admission gate lock poisoned"))
    }

    /// Takes an execution slot, blocking in the bounded queue when the
    /// service is full. `Err((active, queued))` means the queue is full
    /// too and the caller should answer `Busy`.
    pub fn admit(&self) -> Result<Permit<'_>, (u64, u64)> {
        self.admit_timed(None)
            .map(|(permit, _waited)| permit)
            .map_err(|r| (r.active, r.queued))
    }

    /// [`AdmissionGate::admit`] with wait attribution and an optional
    /// bound on queue time. On success the returned [`Duration`] is how
    /// long the caller waited for its slot; on refusal the [`Refusal`]
    /// says whether the request was turned away at the door
    /// (`abandoned: false`, full queue) or gave up after waiting
    /// `max_wait` in the queue (`abandoned: true`).
    pub fn admit_timed(
        &self,
        max_wait: Option<Duration>,
    ) -> Result<(Permit<'_>, Duration), Refusal> {
        let started = Instant::now();
        let mut s = self.lock();
        if s.active >= self.max_inflight {
            if s.queued >= self.max_queue {
                return Err(Refusal {
                    active: s.active as u64,
                    queued: s.queued as u64,
                    abandoned: false,
                    waited: started.elapsed(),
                });
            }
            s.queued += 1;
            while s.active >= self.max_inflight {
                match max_wait {
                    None => {
                        s = self
                            .freed
                            .wait(s)
                            .unwrap_or_else(|_| panic!("admission gate lock poisoned"));
                    }
                    Some(limit) => {
                        let elapsed = started.elapsed();
                        if elapsed >= limit {
                            s.queued -= 1;
                            let refusal = Refusal {
                                active: s.active as u64,
                                queued: s.queued as u64,
                                abandoned: true,
                                waited: elapsed,
                            };
                            drop(s);
                            // Pass along any wakeup this waiter may have
                            // absorbed, or a sibling could stall.
                            self.freed.notify_one();
                            return Err(refusal);
                        }
                        let (guard, _timed_out) = self
                            .freed
                            .wait_timeout(s, limit - elapsed)
                            .unwrap_or_else(|_| panic!("admission gate lock poisoned"));
                        s = guard;
                    }
                }
            }
            s.queued -= 1;
        }
        s.active += 1;
        Ok((Permit { gate: self }, started.elapsed()))
    }

    /// Current `(active, queued)` occupancy.
    #[must_use]
    pub fn occupancy(&self) -> (u64, u64) {
        let s = self.lock();
        (s.active as u64, s.queued as u64)
    }
}

#[derive(Debug, Clone, Copy)]
struct Meters {
    requests: CounterId,
    busy: CounterId,
    parse_errors: CounterId,
    errors: CounterId,
    accepts: CounterId,
    appends: CounterId,
    append_events: CounterId,
    compactions: CounterId,
    pin_us: HistogramId,
    exec_us: HistogramId,
    gate_wait_us: HistogramId,
    gate_wait_total_us: CounterId,
    gate_abandoned: CounterId,
    gate_abandon_wait_us: CounterId,
}

/// The service: one [`LiveStore`], one stateful classifier for
/// server-side appends, one result cache, one admission gate, one
/// bounded span tracer, one slow-query log.
pub struct ServeCore {
    live: LiveStore,
    classifier: Mutex<Classifier>,
    cache: ResultCache,
    gate: AdmissionGate,
    registry: Mutex<Registry>,
    meters: Meters,
    plan_meters: PlanMeters,
    tracer: Mutex<Tracer>,
    slow_log: Mutex<Vec<SlowQuery>>,
    seq: AtomicU64,
    opts: ServeOptions,
    draining: AtomicBool,
    busy_rejections: Mutex<u64>,
}

impl std::fmt::Debug for ServeCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeCore")
            .field("live", &self.live)
            .field("draining", &self.draining)
            .finish_non_exhaustive()
    }
}

impl ServeCore {
    /// Wraps an open [`LiveStore`] for serving.
    #[must_use]
    pub fn new(live: LiveStore, opts: &ServeOptions) -> Self {
        let mut registry = Registry::new();
        let meters = Meters {
            requests: registry.counter("serve.requests"),
            busy: registry.counter("serve.busy"),
            parse_errors: registry.counter("serve.parse_errors"),
            errors: registry.counter("serve.errors"),
            accepts: registry.counter("serve.accepts"),
            appends: registry.counter("serve.appends"),
            append_events: registry.counter("serve.append_events"),
            compactions: registry.counter("serve.compactions"),
            pin_us: registry.histogram("serve.pin_us"),
            exec_us: registry.histogram("serve.exec_us"),
            gate_wait_us: registry.histogram("serve.gate_wait_us"),
            gate_wait_total_us: registry.counter("serve.gate_wait_total_us"),
            gate_abandoned: registry.counter("serve.gate_abandoned"),
            gate_abandon_wait_us: registry.counter("serve.gate_abandon_wait_us"),
        };
        let plan_meters = PlanMeters::register(&mut registry, "serve.plan");
        ServeCore {
            live,
            classifier: Mutex::new(Classifier::new()),
            cache: ResultCache::new(opts.cache_entries),
            gate: AdmissionGate::new(opts.max_inflight, opts.max_queue),
            registry: Mutex::new(registry),
            meters,
            plan_meters,
            tracer: Mutex::new(if opts.trace_capacity == 0 {
                Tracer::disabled()
            } else {
                Tracer::new(opts.trace_capacity)
            }),
            slow_log: Mutex::new(Vec::new()),
            seq: AtomicU64::new(0),
            opts: *opts,
            draining: AtomicBool::new(false),
            busy_rejections: Mutex::new(0),
        }
    }

    /// The underlying live store (benchmarks mutate through it
    /// directly; tests read its pin accounting).
    #[must_use]
    pub fn live(&self) -> &LiveStore {
        &self.live
    }

    /// Whether graceful drain has begun.
    #[must_use]
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Begins graceful drain: in-flight requests finish, every later
    /// command except `Ping` is answered [`Response::ShuttingDown`].
    pub fn begin_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
    }

    fn lock<'a, T>(m: &'a Mutex<T>, what: &str) -> std::sync::MutexGuard<'a, T> {
        m.lock().unwrap_or_else(|_| panic!("{what} lock poisoned"))
    }

    fn count(&self, id: CounterId) {
        Self::lock(&self.registry, "registry").inc(id);
    }

    fn observe_us(&self, id: HistogramId, us: u64) {
        Self::lock(&self.registry, "registry").observe(id, us);
    }

    fn span_open(&self, spans: &mut SpanStack, seq: u64, name: &'static str) -> SpanId {
        let mut tracer = Self::lock(&self.tracer, "tracer");
        spans.open(&mut tracer, seq, 0, name)
    }

    fn span_close(&self, spans: &mut SpanStack, seq: u64, id: SpanId, elapsed_us: u64) {
        let mut tracer = Self::lock(&self.tracer, "tracer");
        spans.close(&mut tracer, seq, 0, id, elapsed_us);
    }

    /// Counts one accepted transport connection (called by servers).
    pub fn note_accept(&self) {
        self.count(self.meters.accepts);
    }

    /// A snapshot of the service metrics registry.
    #[must_use]
    pub fn metrics(&self) -> iri_obs::RegistrySnapshot {
        Self::lock(&self.registry, "registry").snapshot()
    }

    /// Handles one raw request line and renders one reply line (no
    /// trailing newline). Malformed JSON maps to an `Error` with code
    /// [`CODE_JSON`] and id 0.
    pub fn handle_line(&self, line: &str) -> String {
        match serde_json::from_str::<Request>(line) {
            Ok(req) => render(&self.handle(req)),
            Err(e) => self.refuse_line(format!("bad request line: {e}")),
        }
    }

    /// Renders the reply to a request line that cannot be served at all
    /// (malformed, not UTF-8, over the length cap): an `Error` with code
    /// [`CODE_JSON`] and id 0, counted as a parse error.
    pub(crate) fn refuse_line(&self, message: String) -> String {
        self.count(self.meters.parse_errors);
        render(&Reply {
            id: 0,
            resp: Response::Error {
                code: CODE_JSON,
                message,
            },
            plan: None,
        })
    }

    /// Handles one parsed request.
    pub fn handle(&self, req: Request) -> Reply {
        let (resp, plan) = self.dispatch(req.cmd);
        Reply {
            id: req.id,
            resp,
            plan,
        }
    }

    fn dispatch(&self, cmd: Command) -> (Response, Option<PlanTrace>) {
        self.count(self.meters.requests);
        // Health stays answerable during drain — a drain is exactly when
        // an operator is watching it.
        if self.is_draining() && !matches!(cmd, Command::Ping | Command::Health) {
            return (Response::ShuttingDown, None);
        }
        match cmd {
            Command::Ping => (Response::Pong, None),
            Command::Shutdown => {
                self.begin_drain();
                (Response::ShuttingDown, None)
            }
            Command::Stats => (
                Response::Stats {
                    stats: self.stats(),
                },
                None,
            ),
            Command::Metrics => (
                Response::Metrics {
                    metrics: self.metrics_body(),
                },
                None,
            ),
            Command::Health => (
                Response::Health {
                    health: self.health_body(),
                },
                None,
            ),
            cmd => self.gated(cmd),
        }
    }

    /// The gated pipeline: one request span, a timed admission, then
    /// execution with a threaded [`PlanTrace`]. The trace rides back on
    /// the reply (Busy refusals included — their plan attributes the
    /// wasted gate wait) and is pooled into the registry and the
    /// slow-query log for answered requests.
    fn gated(&self, cmd: Command) -> (Response, Option<PlanTrace>) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed) + 1;
        let started = Instant::now();
        let mut plan = PlanTrace::default();
        let mut spans = SpanStack::new();
        let req_span = self.span_open(&mut spans, seq, "request");
        let admit_span = self.span_open(&mut spans, seq, "admit");
        let max_wait = self.opts.max_queue_wait_ms.map(Duration::from_millis);
        match self.gate.admit_timed(max_wait) {
            Err(refusal) => {
                let waited_us = dur_us(refusal.waited);
                plan.admission_wait_us = waited_us;
                self.span_close(&mut spans, seq, admit_span, waited_us);
                plan.total_us = dur_us(started.elapsed());
                self.span_close(&mut spans, seq, req_span, plan.total_us);
                self.count(self.meters.busy);
                *Self::lock(&self.busy_rejections, "busy counter") += 1;
                {
                    let mut reg = Self::lock(&self.registry, "registry");
                    reg.observe(self.meters.gate_wait_us, waited_us);
                    reg.add(self.meters.gate_wait_total_us, waited_us);
                    if refusal.abandoned {
                        reg.inc(self.meters.gate_abandoned);
                        reg.add(self.meters.gate_abandon_wait_us, waited_us);
                    }
                }
                (
                    Response::Busy {
                        active: refusal.active,
                        queued: refusal.queued,
                    },
                    Some(plan),
                )
            }
            Ok((permit, waited)) => {
                let waited_us = dur_us(waited);
                plan.admission_wait_us = waited_us;
                self.span_close(&mut spans, seq, admit_span, waited_us);
                {
                    let mut reg = Self::lock(&self.registry, "registry");
                    reg.observe(self.meters.gate_wait_us, waited_us);
                    reg.add(self.meters.gate_wait_total_us, waited_us);
                }
                let cmd_desc = cmd_label(&cmd);
                let resp = self.execute(cmd, &mut plan, &mut spans, seq);
                drop(permit);
                if matches!(resp, Response::Error { .. }) {
                    self.count(self.meters.errors);
                }
                plan.total_us = dur_us(started.elapsed());
                self.span_close(&mut spans, seq, req_span, plan.total_us);
                {
                    let mut reg = Self::lock(&self.registry, "registry");
                    self.plan_meters.observe(&mut reg, &plan);
                }
                self.note_slow(cmd_desc, seq, &plan);
                (resp, Some(plan))
            }
        }
    }

    fn note_slow(&self, cmd: String, seq: u64, plan: &PlanTrace) {
        let keep = self.opts.slow_log_entries;
        if keep == 0 {
            return;
        }
        let mut log = Self::lock(&self.slow_log, "slow-query log");
        if log.len() >= keep
            && log
                .last()
                .is_some_and(|worst| plan.total_us <= worst.total_us)
        {
            return;
        }
        log.push(SlowQuery {
            cmd,
            seq,
            total_us: plan.total_us,
            plan: *plan,
        });
        log.sort_by(|a, b| b.total_us.cmp(&a.total_us).then(a.seq.cmp(&b.seq)));
        log.truncate(keep);
    }

    fn metrics_body(&self) -> MetricsBody {
        let registry = self.metrics();
        let slow_queries = Self::lock(&self.slow_log, "slow-query log").clone();
        let tracer = Self::lock(&self.tracer, "tracer");
        MetricsBody {
            registry,
            slow_queries,
            trace_len: tracer.len() as u64,
            trace_dropped: tracer.dropped(),
            trace_capacity: tracer.capacity() as u64,
        }
    }

    fn health_body(&self) -> HealthBody {
        let live = self.live.stats();
        let cache = self.cache.stats();
        let (inflight, queued) = self.gate.occupancy();
        let draining = self.is_draining();
        let saturated = self.opts.max_inflight > 0
            && inflight >= self.opts.max_inflight as u64
            && queued >= self.opts.max_queue as u64;
        let status = if draining {
            "draining"
        } else if saturated {
            "saturated"
        } else {
            "ok"
        };
        HealthBody {
            status: status.to_owned(),
            generation: live.generation,
            active_pins: live.active_pins,
            min_pinned: live.min_pinned,
            inflight,
            queued,
            max_inflight: self.opts.max_inflight as u64,
            max_queue: self.opts.max_queue as u64,
            draining,
            retired_dirs: live.retired_dirs,
            cache_entries: cache.entries,
        }
    }

    fn execute(
        &self,
        cmd: Command,
        plan: &mut PlanTrace,
        spans: &mut SpanStack,
        seq: u64,
    ) -> Response {
        match cmd {
            Command::Info => self.info(plan, spans, seq),
            Command::Append { events } => self.append(&events),
            Command::Compact { target_rows } => self.compact(target_rows),
            cmd => self.query(cmd, plan, spans, seq),
        }
    }

    fn counter_value(&self, name: &str) -> u64 {
        Self::lock(&self.registry, "registry")
            .counter_value(name)
            .unwrap_or(0)
    }

    fn stats(&self) -> StatsBody {
        let live = self.live.stats();
        let cache = self.cache.stats();
        let (inflight, queued) = self.gate.occupancy();
        let requests = self.counter_value("serve.requests");
        StatsBody {
            generation: live.generation,
            active_pins: live.active_pins,
            min_pinned: live.min_pinned,
            total_pins: live.total_pins,
            appends: live.appends,
            appended_events: live.appended_events,
            compactions: live.compactions,
            retired_dirs: live.retired_dirs,
            gc_removed_dirs: live.gc_removed_dirs,
            cache_entries: cache.entries,
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            requests,
            busy_rejections: *Self::lock(&self.busy_rejections, "busy counter"),
            inflight,
            queued,
            gate_wait_total_us: self.counter_value("serve.gate_wait_total_us"),
            gate_abandoned: self.counter_value("serve.gate_abandoned"),
            gate_abandon_wait_us: self.counter_value("serve.gate_abandon_wait_us"),
        }
    }

    fn info(&self, plan: &mut PlanTrace, spans: &mut SpanStack, seq: u64) -> Response {
        let pin_span = self.span_open(spans, seq, "pin");
        let pin = Instant::now();
        let snap = self.live.snapshot();
        plan.pin_us = dur_us(pin.elapsed());
        self.span_close(spans, seq, pin_span, plan.pin_us);
        self.observe_us(self.meters.pin_us, plan.pin_us);
        plan.generation = snap.generation();
        let m = snap.manifest();
        Response::Info {
            info: InfoBody {
                generation: m.generation,
                total_events: m.total_events,
                segments: m.segments.len() as u64,
                segment_rows: m.segment_rows,
                min_time_ms: m.min_time_ms,
                max_time_ms: m.max_time_ms,
                records_read: m.records_read,
                bytes: m.segments.iter().map(|s| s.bytes).sum(),
            },
        }
    }

    fn append(&self, events: &[crate::proto::WireEvent]) -> Response {
        let mut rows: Vec<StoredEvent> = Vec::with_capacity(events.len());
        {
            let mut classifier = Self::lock(&self.classifier, "classifier");
            for ev in events {
                let update = match ev.to_update() {
                    Ok(u) => u,
                    Err(message) => {
                        return Response::Error {
                            code: CODE_USAGE,
                            message,
                        }
                    }
                };
                let classified = classifier.classify(&update);
                rows.push(StoredEvent::from_classified(&classified, Cause::Unknown));
            }
        }
        match self.live.append_events(&rows) {
            Ok(generation) => {
                self.count(self.meters.appends);
                Self::lock(&self.registry, "registry")
                    .add(self.meters.append_events, rows.len() as u64);
                Response::Appended {
                    generation,
                    events: rows.len() as u64,
                }
            }
            Err(e) => store_error(&e),
        }
    }

    fn compact(&self, target_rows: Option<u32>) -> Response {
        let rows = target_rows.unwrap_or_else(|| self.live.manifest().segment_rows);
        match self.live.compact(rows) {
            Ok(report) => {
                self.count(self.meters.compactions);
                Response::Compacted {
                    generation: self.live.generation(),
                    shards_rewritten: report.shards_rewritten as u64,
                    segments_before: report.segments_before as u64,
                    segments_after: report.segments_after as u64,
                }
            }
            Err(e) => store_error(&e),
        }
    }

    fn query(
        &self,
        cmd: Command,
        plan: &mut PlanTrace,
        spans: &mut SpanStack,
        seq: u64,
    ) -> Response {
        let normalized = match serde_json::to_string(&cmd) {
            Ok(s) => s,
            Err(e) => {
                return Response::Error {
                    code: CODE_JSON,
                    message: format!("command not normalizable: {e}"),
                }
            }
        };
        let pin_span = self.span_open(spans, seq, "pin");
        let pin = Instant::now();
        let mut snap = self.live.snapshot();
        plan.pin_us = dur_us(pin.elapsed());
        self.span_close(spans, seq, pin_span, plan.pin_us);
        self.observe_us(self.meters.pin_us, plan.pin_us);
        let generation = snap.generation();
        plan.generation = generation;
        if cmd.cacheable() {
            let lookup = Instant::now();
            if let Some(mut resp) = self.cache.get(generation, &normalized) {
                resp.set_cached(true);
                // A hit replays the populating scan's work accounting;
                // the plan says so via cache_hit, and PlanMeters will
                // not double-count the scan-side facts. exec_us is the
                // cache lookup itself — the hit's whole execution.
                plan.cache_hit = true;
                plan.exec_us = dur_us(lookup.elapsed());
                copy_scan_stats(&resp, plan);
                return resp;
            }
        }
        let scan_span = self.span_open(spans, seq, "scan");
        let exec = Instant::now();
        let resp = run_query(&mut snap, generation, cmd);
        plan.exec_us = dur_us(exec.elapsed());
        self.span_close(spans, seq, scan_span, plan.exec_us);
        self.observe_us(self.meters.exec_us, plan.exec_us);
        copy_scan_stats(&resp, plan);
        if !matches!(resp, Response::Error { .. }) {
            self.cache.insert(generation, &normalized, resp.clone());
        }
        resp
    }
}

/// One reply line (no trailing newline).
fn render(reply: &Reply) -> String {
    serde_json::to_string(reply).unwrap_or_else(|e| {
        format!(
            "{{\"id\":0,\"resp\":{{\"Error\":{{\"code\":6,\"message\":\"render failed: {e}\"}}}}}}"
        )
    })
}

fn dur_us(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// Compact command description for the slow-query log: normalized JSON
/// for everything except appends, whose event payload would bloat it.
fn cmd_label(cmd: &Command) -> String {
    match cmd {
        Command::Append { events } => format!("append[{} events]", events.len()),
        other => serde_json::to_string(other).unwrap_or_else(|_| "?".to_owned()),
    }
}

/// Lifts a query response's scan accounting into the plan trace.
fn copy_scan_stats(resp: &Response, plan: &mut PlanTrace) {
    let stats = match resp {
        Response::Counts { stats, .. }
        | Response::Top { stats, .. }
        | Response::Bytes { stats, .. }
        | Response::Series { stats, .. } => stats,
        _ => return,
    };
    plan.segments_pruned = stats.segments_pruned;
    plan.segments_zone_answered = stats.segments_zone_answered;
    plan.segments_scanned = stats.segments_scanned;
    plan.scan_us = stats.scan_us;
    plan.decode_bytes = stats.bytes_scanned;
    plan.rows_scanned = stats.rows_scanned;
    plan.pages_total = stats.pages_total;
    plan.pages_pruned = stats.pages_pruned + stats.pages_zone_answered;
    plan.pages_scanned = stats.pages_scanned;
}

fn store_error(e: &StoreError) -> Response {
    Response::Error {
        code: e.exit_code(),
        message: e.to_string(),
    }
}

fn usage_error(message: String) -> Response {
    Response::Error {
        code: CODE_USAGE,
        message,
    }
}

/// Executes one cacheable query against a pinned snapshot.
fn run_query(snap: &mut Snapshot, generation: u64, cmd: Command) -> Response {
    let filter = match &cmd {
        Command::CountByClass { filter }
        | Command::CountByCause { filter }
        | Command::TopPeers { filter, .. }
        | Command::TopPrefixes { filter, .. }
        | Command::Bytes { filter }
        | Command::Series { filter, .. } => filter.clone(),
        _ => Filter::default(),
    };
    let q = match filter.to_query() {
        Ok(q) => q,
        Err(message) => return usage_error(message),
    };
    match cmd {
        Command::CountByClass { .. } => match snap.count_by_class(&q) {
            // `ALL` is reporting order, not index order — the reply's
            // counts must follow its labels, so reorder here.
            Ok((counts, stats)) => Response::Counts {
                generation,
                cached: false,
                labels: UpdateClass::ALL
                    .iter()
                    .map(|c| c.label().to_owned())
                    .collect(),
                counts: UpdateClass::ALL.iter().map(|c| counts[c.index()]).collect(),
                stats,
            },
            Err(e) => store_error(&e),
        },
        Command::CountByCause { .. } => match snap.count_by_cause(&q) {
            Ok((counts, stats)) => Response::Counts {
                generation,
                cached: false,
                labels: Cause::ALL.iter().map(|c| c.label().to_owned()).collect(),
                counts: Cause::ALL.iter().map(|c| counts[c.index()]).collect(),
                stats,
            },
            Err(e) => store_error(&e),
        },
        Command::TopPeers { limit, .. } => match snap.count_by_peer(&q) {
            Ok((rows, stats)) => Response::Top {
                generation,
                cached: false,
                rows: rows
                    .into_iter()
                    .take(usize::try_from(limit).unwrap_or(usize::MAX))
                    .map(|(asn, count)| TopRow {
                        key: asn.to_string(),
                        count,
                    })
                    .collect(),
                stats,
            },
            Err(e) => store_error(&e),
        },
        Command::TopPrefixes { limit, .. } => match snap.count_by_prefix(&q) {
            Ok((rows, stats)) => Response::Top {
                generation,
                cached: false,
                rows: rows
                    .into_iter()
                    .take(usize::try_from(limit).unwrap_or(usize::MAX))
                    .map(|(prefix, count)| TopRow {
                        key: prefix.to_string(),
                        count,
                    })
                    .collect(),
                stats,
            },
            Err(e) => store_error(&e),
        },
        Command::Bytes { .. } => match snap.sum_bytes(&q) {
            Ok((total, stats)) => Response::Bytes {
                generation,
                cached: false,
                total,
                stats,
            },
            Err(e) => store_error(&e),
        },
        Command::Series { bin_ms, .. } => match snap.time_series(&q, bin_ms) {
            Ok((bins, stats)) => Response::Series {
                generation,
                cached: false,
                bin_ms,
                bins,
                stats,
            },
            Err(e) => store_error(&e),
        },
        _ => usage_error("not a query command".to_owned()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn gate_admits_up_to_inflight_then_queues_then_refuses() {
        let gate = Arc::new(AdmissionGate::new(1, 1));
        let p1 = gate.admit().expect("first slot");
        assert_eq!(gate.occupancy(), (1, 0));
        let g2 = Arc::clone(&gate);
        let waiter = thread::spawn(move || {
            let _p = g2.admit().expect("queued slot");
        });
        // Wait for the spawned thread to join the queue, then the next
        // admit must refuse with the live occupancy.
        while gate.occupancy().1 == 0 {
            thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(gate.admit().unwrap_err(), (1, 1));
        drop(p1);
        waiter.join().expect("waiter exits");
        assert_eq!(gate.occupancy(), (0, 0));
    }

    #[test]
    fn timed_admit_abandons_after_the_wait_limit() {
        let gate = AdmissionGate::new(1, 4);
        let _held = gate.admit().unwrap();
        let refusal = gate
            .admit_timed(Some(Duration::from_millis(5)))
            .expect_err("slot never frees");
        assert!(
            refusal.abandoned,
            "queued waiter should give up: {refusal:?}"
        );
        assert!(
            refusal.waited >= Duration::from_millis(5),
            "abandon reports the time actually burned: {:?}",
            refusal.waited
        );
        // The abandoned waiter must have left the queue.
        assert_eq!(gate.occupancy(), (1, 0));
    }

    #[test]
    fn timed_admit_attributes_queue_wait_on_success() {
        let gate = Arc::new(AdmissionGate::new(1, 4));
        let p1 = gate.admit().unwrap();
        let g2 = Arc::clone(&gate);
        let waiter = thread::spawn(move || {
            let (permit, waited) = g2.admit_timed(None).expect("eventually admitted");
            drop(permit);
            waited
        });
        while gate.occupancy().1 == 0 {
            thread::sleep(Duration::from_millis(1));
        }
        thread::sleep(Duration::from_millis(5));
        drop(p1);
        let waited = waiter.join().expect("waiter exits");
        assert!(
            waited >= Duration::from_millis(5),
            "success reports queue time: {waited:?}"
        );
        // An immediate refusal (full queue, no waiting allowed) is not
        // an abandon.
        let gate = AdmissionGate::new(0, 0);
        let refusal = gate.admit_timed(Some(Duration::from_secs(1))).unwrap_err();
        assert!(!refusal.abandoned);
    }

    #[test]
    fn permits_release_on_drop() {
        let gate = AdmissionGate::new(2, 0);
        let a = gate.admit().unwrap();
        let b = gate.admit().unwrap();
        assert!(gate.admit().is_err());
        drop(a);
        let c = gate.admit().unwrap();
        drop(b);
        drop(c);
        assert_eq!(gate.occupancy(), (0, 0));
    }
}
