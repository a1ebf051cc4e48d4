//! `tracescope` — observability drill-down on the canonical pathology run.
//!
//! Runs the shared [`iri_bench::obs_scenario`] world (a route server watching
//! a storm-bugged AS, a CSU-afflicted AS, and a well-behaved AS), then prints
//! what the new `iri-obs` layer saw:
//!
//! - the cause × class attribution table (the paper's §4 taxonomy annotated
//!   with root-cause provenance),
//! - per-router top talkers from the monitor log,
//! - world latency and damping metrics from the registry,
//! - a timeline summary of the trace ring buffer.
//!
//! ```sh
//! tracescope [--seed S] [--tail N] [--store <dir>]
//! tracescope --connect HOST:PORT            # live serve health + metrics
//! tracescope watch <dir> [--bin-ms N] [--rounds N] [--poll-ms N] [--state FILE]
//! ```
//!
//! Everything is deterministic for a given `--seed`: trace timestamps are
//! simulated time, never wall clock. With `--store <dir>` the classified,
//! cause-tagged event stream is also archived as an `iri-store` segment
//! store, so `iriq` can slice the attribution offline (e.g.
//! `iriq <dir> count-by-class --cause csu-drift`).
//!
//! `--connect` turns tracescope into the service's operator console: one
//! `health` round trip (drain / saturation / pin state) and one `metrics`
//! round trip (registry snapshot, slow-query log with plan traces, span
//! tracer accounting) against a live `iri-serve` process.
//!
//! `watch` tails a live store directory with the incremental detectors
//! from `iri-obs` (classification-rate change-points, ACF periodicity,
//! per-class novelty) and prints typed incidents with cause attribution.
//! Detection is watermark-deterministic: only completed event-time bins
//! are fed, so the incident stream does not depend on poll cadence.
//! With `--state FILE` the watermark is persisted after every poll, so a
//! restarted watch resumes where the previous process stopped instead of
//! re-raising incidents for bins it already handled.

use iri_bench::cli::QueryFilter;
use iri_bench::{arg_str, arg_u64, exit_store_error, CauseBreakdown};
use iri_core::taxonomy::UpdateClass;
use iri_netsim::{Cause, TraceKind};
use iri_obs::Registry;
use iri_serve::{Client, Command, Response};
use iri_store::{LiveStore, WatchConfig, WatchState, Watcher};
use std::collections::BTreeMap;

/// `tracescope --connect HOST:PORT`: render a live server's health and
/// metrics surfaces.
fn connect_main(addr: &str, args: &[String]) -> ! {
    let slow = arg_u64(args, "--slow", 5) as usize;
    let mut client = Client::connect(addr).unwrap_or_else(|e| {
        eprintln!("tracescope: connect {addr}: {e}");
        std::process::exit(3)
    });
    let health = match client.request(Command::Health) {
        Ok(reply) => match reply.resp {
            Response::Health { health } => health,
            other => {
                eprintln!("tracescope: health answered {other:?}");
                std::process::exit(other.exit_code().max(1))
            }
        },
        Err(e) => {
            eprintln!("tracescope: {addr}: {e}");
            std::process::exit(3)
        }
    };
    println!(
        "{addr}: {} — generation {}, {}/{} in flight, {}/{} queued",
        health.status,
        health.generation,
        health.inflight,
        health.max_inflight,
        health.queued,
        health.max_queue
    );
    println!(
        "pins: {} active (oldest {}), {} retired dir(s), {} cache entries, draining: {}",
        health.active_pins,
        health
            .min_pinned
            .map_or_else(|| "none".to_owned(), |g| g.to_string()),
        health.retired_dirs,
        health.cache_entries,
        health.draining,
    );
    let metrics = match client.request(Command::Metrics) {
        Ok(reply) => match reply.resp {
            Response::Metrics { metrics } => metrics,
            Response::ShuttingDown => {
                println!("(metrics unavailable: server draining)");
                std::process::exit(0)
            }
            other => {
                eprintln!("tracescope: metrics answered {other:?}");
                std::process::exit(other.exit_code().max(1))
            }
        },
        Err(e) => {
            eprintln!("tracescope: {addr}: {e}");
            std::process::exit(3)
        }
    };
    println!("\n-- latency (µs) --");
    for h in &metrics.registry.histograms {
        if h.count > 0 {
            println!(
                "  {:<34} {:>8} obs  p50 {:>8}  p90 {:>8}  p99 {:>8}  max {:>8}",
                h.name, h.count, h.p50, h.p90, h.p99, h.max
            );
        }
    }
    println!("\n-- counters --");
    for c in &metrics.registry.counters {
        if c.value > 0 {
            println!("  {:<34} {:>12}", c.name, c.value);
        }
    }
    println!(
        "\n-- span tracer: {} event(s) buffered of {}, {} dropped --",
        metrics.trace_len, metrics.trace_capacity, metrics.trace_dropped
    );
    if !metrics.slow_queries.is_empty() {
        println!(
            "\n-- slow queries (worst {} of {}) --",
            slow.min(metrics.slow_queries.len()),
            metrics.slow_queries.len()
        );
        for s in metrics.slow_queries.iter().take(slow) {
            println!("  #{:<6} {:>9} µs  {}", s.seq, s.total_us, s.cmd);
            println!("          {}", s.plan);
        }
    }
    std::process::exit(0)
}

/// `tracescope watch <dir>`: tail a live store with the incremental
/// incident detectors.
fn watch_main(args: &[String]) -> ! {
    let Some(dir) = args.get(2).filter(|d| !d.starts_with("--")) else {
        eprintln!(
            "usage: tracescope watch <dir> [--bin-ms N] [--rounds N] [--poll-ms N] [--state FILE]"
        );
        std::process::exit(iri_bench::EXIT_USAGE)
    };
    let cfg = WatchConfig {
        bin_ms: arg_u64(args, "--bin-ms", 1_000),
        ..WatchConfig::default()
    };
    let rounds = arg_u64(args, "--rounds", 1).max(1);
    let poll_ms = arg_u64(args, "--poll-ms", 500);
    let state_path = arg_str(args, "--state").map(std::path::PathBuf::from);
    let fs = iri_faults::real_fs();
    let live = LiveStore::open(std::path::Path::new(dir))
        .unwrap_or_else(|e| exit_store_error("tracescope", &e));
    let mut watcher = match &state_path {
        Some(path) => match WatchState::load(&*fs, path) {
            Ok(Some(state)) => {
                println!(
                    "resuming from {} (watermark {}, {} incident(s) already raised)",
                    path.display(),
                    state
                        .watermark_ms
                        .map_or_else(|| "none".to_owned(), |w| format!("{w} ms")),
                    state.incidents_raised,
                );
                Watcher::with_state(cfg, &state)
            }
            Ok(None) => Watcher::new(cfg),
            Err(e) => exit_store_error("tracescope", &e),
        },
        None => Watcher::new(cfg),
    };
    let mut total_incidents = 0usize;
    for round in 0..rounds {
        let report = watcher
            .poll(&live)
            .unwrap_or_else(|e| exit_store_error("tracescope", &e));
        if let Some(path) = &state_path {
            watcher
                .state()
                .save(&*fs, path)
                .unwrap_or_else(|e| exit_store_error("tracescope", &e));
        }
        println!(
            "poll {}: generation {}, {} completed bin(s), {} event(s), watermark {}",
            round + 1,
            report.generation,
            report.bins_processed,
            report.events_seen,
            watcher
                .watermark_ms()
                .map_or_else(|| "none".to_owned(), |w| format!("{w} ms")),
        );
        for incident in &report.incidents {
            println!("  {incident}");
        }
        total_incidents += report.incidents.len();
        if round + 1 < rounds {
            std::thread::sleep(std::time::Duration::from_millis(poll_ms));
        }
    }
    println!("{total_incidents} incident(s) total");
    let snap = watcher.registry().snapshot();
    for c in &snap.counters {
        if c.value > 0 {
            println!("  {:<34} {:>10}", c.name, c.value);
        }
    }
    println!(
        "  trace: {} event(s) held, {} dropped",
        watcher.tracer().len(),
        watcher.tracer().dropped()
    );
    std::process::exit(0)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    match args.get(1).map(String::as_str) {
        Some("--connect") => {
            let Some(addr) = args.get(2).cloned() else {
                eprintln!("usage: tracescope --connect HOST:PORT [--slow N]");
                std::process::exit(iri_bench::EXIT_USAGE)
            };
            connect_main(&addr, &args);
        }
        Some("watch") => watch_main(&args),
        _ => {}
    }
    let seed = arg_u64(&args, "--seed", 0x1997);
    let tail = arg_u64(&args, "--tail", 8) as usize;

    println!("tracescope: pathology scenario, seed {seed:#x}, 30 simulated minutes");
    let mut scenario = iri_bench::run_pathology(seed);
    // ---- cause × class attribution -----------------------------------
    let (classified, causes) = scenario.classified();
    let monitor = scenario
        .world
        .take_monitor(scenario.route_server)
        .expect("route server is monitored");
    let tally = CauseBreakdown::tally(&classified, &causes);

    if let Some(dir) = arg_str(&args, "--store") {
        use iri_store::{StoreWriter, StoredEvent, DEFAULT_SEGMENT_ROWS};
        fn fail(e: iri_store::StoreError) -> ! {
            exit_store_error("tracescope", &e)
        }
        let dir = std::path::PathBuf::from(dir);
        let mut writer =
            StoreWriter::create(&dir, DEFAULT_SEGMENT_ROWS).unwrap_or_else(|e| fail(e));
        for (c, &cause) in classified.iter().zip(&causes) {
            writer
                .push(&StoredEvent::from_classified(c, cause))
                .unwrap_or_else(|e| fail(e));
        }
        let manifest = writer.commit(0).unwrap_or_else(|e| fail(e));
        println!(
            "archived {} cause-tagged events to {} ({} segments, generation {})",
            manifest.total_events,
            dir.display(),
            manifest.segments.len(),
            manifest.generation
        );
        // Read-back verification through the shared filter grammar: a
        // strict re-open proves the archive is durable and checksum-clean
        // before we report success.
        let verify = QueryFilter::from_args(&args)
            .unwrap_or_else(|msg| {
                eprintln!("tracescope: {msg}");
                std::process::exit(iri_bench::EXIT_USAGE);
            })
            .strict(true);
        let mut store = verify.open(&dir).unwrap_or_else(|e| fail(e));
        let (counts, _) = store
            .count_by_class(verify.query())
            .unwrap_or_else(|e| fail(e));
        let n: u64 = counts.iter().sum();
        println!("verified: strict re-open sees {n} events matching the filter");
    }

    println!(
        "\n{} prefix events from {} logged UPDATEs",
        classified.len(),
        monitor
            .updates
            .iter()
            .filter(|u| matches!(u.message, iri_bgp::message::Message::Update(_)))
            .count()
    );
    println!("\n-- cause x class attribution --");
    print!("  {:<14}", "cause");
    for class in UpdateClass::ALL {
        print!(" {:>9}", class.label());
    }
    println!(" {:>9}", "total");
    for cause in Cause::ALL {
        let total = tally.cause_total(cause);
        if total == 0 {
            continue;
        }
        print!("  {:<14}", cause.label());
        for class in UpdateClass::ALL {
            print!(" {:>9}", tally.get(cause, class));
        }
        println!(" {:>9}", total);
    }

    let wwdup_timer = tally.attribution(UpdateClass::WwDup, Cause::TimerInterval);
    println!(
        "\n  WWDup -> TimerInterval attribution: {:.1}% (storm bug re-blasting on the flush grid)",
        100.0 * wwdup_timer
    );
    let unknown = tally.cause_total(Cause::Unknown);
    println!(
        "  events with unknown cause: {unknown} ({:.1}%)",
        100.0 * unknown as f64 / classified.len().max(1) as f64
    );

    // ---- per-router top talkers --------------------------------------
    println!("\n-- per-router top talkers --");
    let mut talkers: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
    for u in &monitor.updates {
        if matches!(u.message, iri_bgp::message::Message::Update(_)) {
            talkers.entry(u.peer_asn.0).or_default().0 += 1;
        }
    }
    for ev in &classified {
        talkers.entry(ev.peer.asn.0).or_default().1 += 1;
    }
    let mut rows: Vec<_> = talkers.into_iter().collect();
    rows.sort_by_key(|&(asn, (updates, _))| (std::cmp::Reverse(updates), asn));
    println!("  {:<8} {:>10} {:>14}", "peer", "updates", "prefix events");
    for (asn, (updates, events)) in rows {
        println!("  AS{:<6} {updates:>10} {events:>14}", asn);
    }

    // ---- latency + damping metrics -----------------------------------
    println!("\n-- world metrics --");
    let now = scenario.world.now();
    if let Some(h) = scenario.world.registry().histogram_ref("world.tx_delay_ms") {
        println!(
            "  tx delay: {} sends, p50 {} ms, p99 {} ms, max {} ms",
            h.count(),
            h.quantile(0.5),
            h.quantile(0.99),
            h.max()
        );
    }
    for name in [
        "world.delivered",
        "world.timer_fires",
        "world.link_transitions",
    ] {
        if let Some(v) = scenario.world.registry().counter_value(name) {
            println!("  {name}: {v}");
        }
    }
    let mut damping = Registry::new();
    for id in [
        scenario.route_server,
        scenario.storm_router,
        scenario.csu_router,
        scenario.quiet_router,
    ] {
        scenario.world.router(id).export_damping(&mut damping, now);
    }
    let snap = damping.snapshot();
    if snap.counters.is_empty() && snap.gauges.is_empty() {
        println!("  damping: no peers have dampers configured");
    } else {
        for c in &snap.counters {
            println!("  {}: {}", c.name, c.value);
        }
        for g in &snap.gauges {
            println!("  {}: {}", g.name, g.value);
        }
    }

    // ---- trace timeline summary --------------------------------------
    let tracer = scenario.world.tracer();
    println!(
        "\n-- trace ring buffer: {} events held, {} evicted (capacity {}) --",
        tracer.len(),
        tracer.dropped(),
        tracer.capacity()
    );
    let mut by_kind: BTreeMap<&'static str, u64> = BTreeMap::new();
    for ev in tracer.events() {
        *by_kind.entry(kind_name(&ev.kind)).or_default() += 1;
    }
    for (kind, n) in &by_kind {
        println!("  {kind:<18} {n:>8}");
    }
    println!("\n-- last {tail} trace events --");
    for ev in tracer.events().skip(tracer.len().saturating_sub(tail)) {
        println!("  {ev}");
    }
}

/// Stable short name for a trace event kind, for the tally table.
fn kind_name(kind: &TraceKind) -> &'static str {
    match kind {
        TraceKind::Fsm { .. } => "fsm-transition",
        TraceKind::TimerFired { .. } => "timer-fired",
        TraceKind::LinkDown { .. } => "link-down",
        TraceKind::LinkUp { .. } => "link-up",
        TraceKind::CpuOverload { .. } => "cpu-overload",
        TraceKind::RouterRecovered => "router-recovered",
        TraceKind::DampingSuppressed { .. } => "damping-suppressed",
        TraceKind::QueueStall { .. } => "queue-stall",
        TraceKind::SpanOpen { .. } => "span-open",
        TraceKind::SpanClose { .. } => "span-close",
        TraceKind::IncidentRaised { .. } => "incident",
    }
}
