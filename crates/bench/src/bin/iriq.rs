//! `iriq` — query CLI for `iri-store` segment archives.
//!
//! Answers the paper's slices straight from a classified archive (written
//! by `mrtstat --store`, `tracescope --store`, or a figure binary's
//! `--store` day cache) without re-parsing or re-simulating anything:
//!
//! ```sh
//! iriq <dir> info                          # manifest + layout + recovery state
//! iriq <dir> count-by-class [filters]      # §4 taxonomy breakdown
//! iriq <dir> count-by-cause [filters]      # provenance attribution
//! iriq <dir> top-peers   [--limit N]       # Figure 4's by-peer shape
//! iriq <dir> top-prefixes [--limit N]      # Figure 5's by-prefix shape
//! iriq <dir> bytes [filters]               # §3 bandwidth view
//! iriq <dir> series --bin-ms N [--spectrum]  # §5.2 FFT-of-ACF periods
//! iriq diff <dirA> <dirB>                  # first byte that differs
//! ```
//!
//! `diff` compares two stores (or chain directories) file by file,
//! skipping `quarantine/` and `retired/`. It exits 0 when they hold the
//! same files, 1 on a difference or when there is nothing to compare.
//!
//! The same commands run against a live `iri-serve` process instead of a
//! directory — identical filter grammar and rendering, shipped as one
//! JSON-line request over TCP:
//!
//! ```sh
//! iriq --connect HOST:PORT count-by-class [filters]
//! iriq --connect HOST:PORT ping            # liveness probe
//! iriq --connect HOST:PORT stats           # pin / cache / admission counters
//! iriq --connect HOST:PORT health          # drain / saturation / pin summary
//! iriq --connect HOST:PORT metrics         # registry snapshot + slow-query log
//! ```
//!
//! Filters are the shared [`iri_bench::cli`] grammar and compose
//! conjunctively: `--from-ms A --to-ms B` (half-open), `--day D`
//! (shorthand for one cached simulated day), `--peer ASN`,
//! `--prefix a.b.c.d/len`, `--class AADup`, `--cause CsuDrift`. Add
//! `--stats` to print how much of the archive the zone maps pruned —
//! and, in `--connect` mode, the answering generation plus the server's
//! pin/cache statistics — or `--strict` to fail fast on a store that
//! needs crash recovery instead of serving the repaired rest.
//!
//! `--explain` (local mode) compiles the command to its physical plan
//! and prints the per-segment fates — pruned, zone-answered, or scanned,
//! with the prune reason — without executing anything.
//!
//! In `--connect` mode a typed `Busy` refusal is retried with a growing
//! backoff, up to `--retry-max` attempts (default 8, `0` to fail fast);
//! `--stats` then attributes the client-side gate wait — attempts made
//! and milliseconds burned — alongside the server's own gate counters.
//!
//! Exit codes: 0 ok, 2 usage (also busy / shutting-down refusals), then
//! the store taxonomy — 3 I/O, 4 corrupt, 5 quarantined/strict, 6 JSON,
//! 7 ingest. Server-side failures carry their store exit code across the
//! wire so scripted callers see the same taxonomy either way.

use iri_bench::cli::{self, QueryFilter};
use iri_bench::{arg_u64, exit_store_error};
use iri_core::taxonomy::UpdateClass;
use iri_core::timeseries::detrend::log_detrend;
use iri_core::timeseries::spectrum::{acf_spectrum, dominant_periods};
use iri_obs::Cause;
use iri_serve::{Client, Command, Filter, HealthBody, MetricsBody, Response, StatsBody};
use iri_store::{DirDiff, PlanKind, StoreError};
use std::path::Path;

fn usage() -> ! {
    eprintln!(
        "usage: iriq <dir> <info|count-by-class|count-by-cause|top-peers|top-prefixes|bytes|series>\n\
         \x20      iriq diff <dirA> <dirB>\n\
         \x20      iriq --connect HOST:PORT <ping|stats|metrics|health|info|count-by-class|...>\n\
         filters: [--from-ms A] [--to-ms B] [--day D] [--peer ASN] [--prefix P] \
         [--class NAME] [--cause NAME] [--strict] [--stats] [--explain]\n\
         series:  --bin-ms N [--spectrum]   top-*: [--limit N]   \
         connect: [--retry-max N]"
    );
    std::process::exit(cli::EXIT_USAGE);
}

fn fail(e: StoreError) -> ! {
    exit_store_error("iriq", &e)
}

/// Renders labelled counts — the shape both the local scan and the
/// served [`Response::Counts`] reply reduce to.
fn print_counts<'a>(rows: impl Iterator<Item = (&'a str, u64)>) {
    let rows: Vec<(&str, u64)> = rows.collect();
    let total: u64 = rows.iter().map(|&(_, n)| n).sum();
    for (label, n) in rows {
        if n > 0 {
            println!(
                "{label:<14} {n:>10}  ({:>5.1}%)",
                100.0 * n as f64 / total.max(1) as f64
            );
        }
    }
    println!("{:<14} {total:>10}", "total");
}

/// Renders a time series: totals, one-line sparkline, optional §5.2
/// FFT-of-ACF dominant periods.
fn print_series(series: &[u64], bin_ms: u64, want_spectrum: bool) {
    let total: u64 = series.iter().sum();
    let max = series.iter().copied().max().unwrap_or(0);
    println!(
        "{} bins of {bin_ms} ms: {total} events, peak bin {max}",
        series.len()
    );
    // Down-sampled sparkline so long series stay one line.
    let stride = series.len().div_ceil(64).max(1);
    let spark: String = series
        .chunks(stride)
        .map(|c| {
            let v: u64 = c.iter().sum();
            let level = if max == 0 {
                0
            } else {
                v * 9 / (max * c.len() as u64)
            };
            char::from_digit(level.min(9) as u32, 10).unwrap_or('9')
        })
        .collect();
    println!("sparkline: {spark}");
    if want_spectrum && series.len() >= 8 {
        // The §5.2 treatment: log + least-squares detrend, then
        // FFT-of-ACF, reported as dominant periods in bins.
        let samples: Vec<f64> = series.iter().map(|&v| v as f64).collect();
        let detrended = log_detrend(&samples);
        let spectrum = acf_spectrum(&detrended.residuals, samples.len() / 2);
        for p in dominant_periods(&spectrum, 3) {
            println!(
                "dominant period: {:.1} bins ({:.1} h at this bin size), power {:.3}",
                p.period(),
                p.period() * bin_ms as f64 / 3_600_000.0,
                p.power
            );
        }
    }
}

/// Renders the server's pin, cache, and admission accounting.
fn print_serve_stats(stats: &StatsBody) {
    println!(
        "[serve] generation {}: {} pin(s) active ({} ever, oldest pinned {}), {} retired dir(s)",
        stats.generation,
        stats.active_pins,
        stats.total_pins,
        stats
            .min_pinned
            .map_or_else(|| "none".to_owned(), |g| g.to_string()),
        stats.retired_dirs,
    );
    println!(
        "[serve] cache: {} hits / {} misses ({} entries); \
         {} requests, {} busy-rejected, {} in flight, {} queued",
        stats.cache_hits,
        stats.cache_misses,
        stats.cache_entries,
        stats.requests,
        stats.busy_rejections,
        stats.inflight,
        stats.queued,
    );
    println!(
        "[serve] mutations: {} appends ({} events), {} compactions, {} retired dir(s) reclaimed",
        stats.appends, stats.appended_events, stats.compactions, stats.gc_removed_dirs,
    );
    println!(
        "[serve] gate: {} ms waited in total, {} abandoned after waiting ({} ms wasted)",
        stats.gate_wait_total_us / 1_000,
        stats.gate_abandoned,
        stats.gate_abandon_wait_us / 1_000,
    );
}

/// Renders the server's health surface.
fn print_health(health: &HealthBody) {
    println!(
        "status: {} (generation {}, draining: {})",
        health.status, health.generation, health.draining
    );
    println!(
        "admission: {}/{} in flight, {}/{} queued",
        health.inflight, health.max_inflight, health.queued, health.max_queue
    );
    println!(
        "pins: {} active (oldest pinned {}), {} retired dir(s), {} cache entries",
        health.active_pins,
        health
            .min_pinned
            .map_or_else(|| "none".to_owned(), |g| g.to_string()),
        health.retired_dirs,
        health.cache_entries,
    );
}

/// Renders the server's metrics surface: registry, slow-query log,
/// tracer accounting.
fn print_metrics(metrics: &MetricsBody) {
    for c in &metrics.registry.counters {
        if c.value > 0 {
            println!("{:<36} {:>12}", c.name, c.value);
        }
    }
    for g in &metrics.registry.gauges {
        println!("{:<36} {:>12}", g.name, g.value);
    }
    for h in &metrics.registry.histograms {
        if h.count > 0 {
            println!(
                "{:<36} {:>8} obs  p50 {:>8}  p90 {:>8}  p99 {:>8}  max {:>8}",
                h.name, h.count, h.p50, h.p90, h.p99, h.max
            );
        }
    }
    println!(
        "trace: {} event(s) buffered of {} capacity, {} dropped",
        metrics.trace_len, metrics.trace_capacity, metrics.trace_dropped
    );
    if !metrics.slow_queries.is_empty() {
        println!("slow queries (worst first):");
        for s in &metrics.slow_queries {
            println!("  #{:<6} {:>9} us  {}", s.seq, s.total_us, s.cmd);
            println!("          {}", s.plan);
        }
    }
}

/// `--connect` mode: ship the command to a live `iri-serve` process and
/// render the reply exactly the way the local path would.
fn remote_main(addr: &str, args: &[String]) -> ! {
    let Some(cmd) = args.get(3) else { usage() };
    let filter = QueryFilter::from_args(args).unwrap_or_else(|msg| {
        eprintln!("iriq: {msg}");
        usage()
    });
    let wire = Filter::from_query(filter.query());
    let command = match cmd.as_str() {
        "ping" => Command::Ping,
        "info" => Command::Info,
        "stats" => Command::Stats,
        "metrics" => Command::Metrics,
        "health" => Command::Health,
        "count-by-class" => Command::CountByClass { filter: wire },
        "count-by-cause" => Command::CountByCause { filter: wire },
        "top-peers" => Command::TopPeers {
            filter: wire,
            limit: arg_u64(args, "--limit", 10),
        },
        "top-prefixes" => Command::TopPrefixes {
            filter: wire,
            limit: arg_u64(args, "--limit", 10),
        },
        "bytes" => Command::Bytes { filter: wire },
        "series" => Command::Series {
            filter: wire,
            bin_ms: arg_u64(args, "--bin-ms", 3_600_000),
        },
        _ => usage(),
    };
    let mut client = Client::connect(addr).unwrap_or_else(|e| {
        eprintln!("iriq: connect {addr}: {e}");
        std::process::exit(3)
    });
    // A typed `Busy` is the admission gate shedding load, not a failure:
    // retry with the growing backoff the serve benchmark uses, bounded
    // by `--retry-max` attempts so scripts never hang on a saturated
    // server. The time burned here is attributed under `--stats`.
    let retry_max = arg_u64(args, "--retry-max", 8);
    let mut busy_retries = 0u64;
    let mut busy_wait_us = 0u64;
    let reply = loop {
        let attempt_started = std::time::Instant::now();
        let reply = client.request(command.clone()).unwrap_or_else(|e| {
            eprintln!("iriq: {addr}: {e}");
            std::process::exit(3)
        });
        match &reply.resp {
            Response::Busy { .. } if busy_retries < retry_max => {
                busy_wait_us = busy_wait_us.saturating_add(
                    u64::try_from(attempt_started.elapsed().as_micros()).unwrap_or(u64::MAX),
                );
                let backoff_ms = (2 + busy_retries / 4).min(40);
                std::thread::sleep(std::time::Duration::from_millis(backoff_ms));
                busy_wait_us = busy_wait_us.saturating_add(backoff_ms * 1_000);
                busy_retries += 1;
            }
            _ => break reply,
        }
    };
    let code = reply.resp.exit_code();
    // The query replies carry the generation they answered at and the
    // scan stats of the populating scan; remembered here so the
    // `--stats` footer can report them after the payload.
    let plan = reply.plan;
    let mut served_at = None;
    let mut scan_stats = None;
    match reply.resp {
        Response::Pong => println!("pong"),
        Response::Info { info } => {
            println!("store:        {addr} (served)");
            println!("generation:   {}", info.generation);
            println!("events:       {}", info.total_events);
            println!(
                "segments:     {} ({} rows each)",
                info.segments, info.segment_rows
            );
            println!(
                "time span:    {} – {} ms ({:.1} h)",
                info.min_time_ms,
                info.max_time_ms,
                (info.max_time_ms.saturating_sub(info.min_time_ms)) as f64 / 3_600_000.0
            );
            println!("mrt records:  {}", info.records_read);
            println!(
                "on disk:      {} KiB ({:.1} bytes/event)",
                info.bytes / 1024,
                info.bytes as f64 / info.total_events.max(1) as f64
            );
        }
        Response::Stats { stats } => print_serve_stats(&stats),
        Response::Metrics { metrics } => print_metrics(&metrics),
        Response::Health { health } => print_health(&health),
        Response::Counts {
            generation,
            cached,
            labels,
            counts,
            stats,
        } => {
            print_counts(labels.iter().map(String::as_str).zip(counts));
            served_at = Some((generation, cached));
            scan_stats = Some(stats);
        }
        Response::Top {
            generation,
            cached,
            rows,
            stats,
        } => {
            for row in rows {
                println!("{:<20} {:>10}", row.key, row.count);
            }
            served_at = Some((generation, cached));
            scan_stats = Some(stats);
        }
        Response::Bytes {
            generation,
            cached,
            total,
            stats,
        } => {
            println!("{total} NLRI wire bytes match");
            served_at = Some((generation, cached));
            scan_stats = Some(stats);
        }
        Response::Series {
            generation,
            cached,
            bin_ms,
            bins,
            stats,
        } => {
            print_series(&bins, bin_ms, args.iter().any(|a| a == "--spectrum"));
            served_at = Some((generation, cached));
            scan_stats = Some(stats);
        }
        Response::Appended { .. } | Response::Compacted { .. } => {}
        Response::Busy { active, queued } => {
            eprintln!(
                "iriq: server busy ({active} in flight, {queued} queued) after {busy_retries} \
                 retry attempt(s), {} ms waited; raise --retry-max or retry later",
                busy_wait_us / 1_000
            );
        }
        Response::ShuttingDown => eprintln!("iriq: server is shutting down"),
        Response::Error { code, message } => eprintln!("iriq: server: {message} (exit {code})"),
    }
    if filter.wants_stats() && code == 0 {
        if let Some(stats) = &scan_stats {
            println!("\n{}", cli::render_scan_stats(stats));
        }
        if busy_retries > 0 {
            println!(
                "[client] admission gate: {busy_retries} busy retry attempt(s), \
                 {} ms waited before this answer",
                busy_wait_us / 1_000
            );
        }
        if let Some((generation, cached)) = served_at {
            println!(
                "[serve] answered at generation {generation}{}",
                if cached { " (cache hit)" } else { " (scanned)" }
            );
        }
        if let Some(plan) = plan {
            println!("[serve] plan: {plan}");
        }
        // One more round trip for the service-level pin/cache picture.
        if cmd != "stats" {
            if let Ok(reply) = client.request(Command::Stats) {
                if let Response::Stats { stats } = reply.resp {
                    print_serve_stats(&stats);
                }
            }
        }
    }
    std::process::exit(code)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.get(1).map(String::as_str) == Some("--connect") {
        let Some(addr) = args.get(2).cloned() else {
            usage()
        };
        remote_main(&addr, &args);
    }
    if args.get(1).map(String::as_str) == Some("diff") {
        let (Some(a), Some(b)) = (args.get(2), args.get(3)) else {
            usage()
        };
        let diff = iri_store::diff_dirs(Path::new(a), Path::new(b)).unwrap_or_else(|e| fail(e));
        println!("{diff}");
        let same = matches!(diff, DirDiff::Identical { files } if files > 0);
        std::process::exit(i32::from(!same));
    }
    let (Some(dir), Some(cmd)) = (args.get(1), args.get(2)) else {
        usage()
    };
    let filter = QueryFilter::from_args(&args).unwrap_or_else(|msg| {
        eprintln!("iriq: {msg}");
        usage()
    });
    let mut store = filter.open(Path::new(dir)).unwrap_or_else(|e| fail(e));
    if !store.recovery().is_clean() {
        let r = store.recovery();
        eprintln!(
            "iriq: note: recovery repaired this store ({} file(s) quarantined{})",
            r.quarantined.len(),
            if r.repaired_manifest {
                ", manifest rewritten"
            } else {
                ""
            }
        );
        for q in &r.quarantined {
            eprintln!("iriq:   quarantine/{}: {}", q.file, q.reason);
        }
    }
    let q = filter.query().clone();

    // `--explain` compiles the query to its physical plan and prints it
    // without executing — the segment fates show what the zone maps and
    // blooms would prune before a single byte is decoded.
    if cli::arg_flag(&args, "--explain") {
        let kind = match cmd.as_str() {
            "count-by-class" => PlanKind::CountByClass,
            "count-by-cause" => PlanKind::CountByCause,
            "top-peers" => PlanKind::CountByPeer,
            "top-prefixes" => PlanKind::CountByPrefix,
            "bytes" => PlanKind::SumBytes,
            "series" => PlanKind::TimeSeries {
                bin_ms: arg_u64(&args, "--bin-ms", 3_600_000),
            },
            _ => PlanKind::Stream,
        };
        println!("{}", store.plan(&q, kind).explain());
        std::process::exit(0);
    }

    match cmd.as_str() {
        "info" => {
            let m = store.manifest();
            println!("store:        {dir}");
            println!("generation:   {}", m.generation);
            println!("events:       {}", m.total_events);
            println!(
                "segments:     {} ({} rows each)",
                m.segments.len(),
                m.segment_rows
            );
            println!(
                "time span:    {} – {} ms ({:.1} h)",
                m.min_time_ms,
                m.max_time_ms,
                (m.max_time_ms.saturating_sub(m.min_time_ms)) as f64 / 3_600_000.0
            );
            println!("mrt records:  {}", m.records_read);
            let bytes: u64 = m.segments.iter().map(|s| s.bytes).sum();
            println!(
                "on disk:      {} KiB ({:.1} bytes/event)",
                bytes / 1024,
                bytes as f64 / m.total_events.max(1) as f64
            );
            let shards = m
                .segments
                .iter()
                .map(|s| s.shard)
                .collect::<std::collections::BTreeSet<_>>();
            println!("shards used:  {} of {}", shards.len(), m.logical_shards);
            let quarantined = store.recovery().quarantined.len();
            if quarantined > 0 {
                println!("quarantined:  {quarantined} file(s) — see quarantine/");
            }
        }
        "count-by-class" => {
            let (counts, stats) = store.count_by_class(&q).unwrap_or_else(|e| fail(e));
            print_counts(
                UpdateClass::ALL
                    .iter()
                    .map(|c| (c.label(), counts[c.index()])),
            );
            cli::print_scan_stats(&filter, &stats);
        }
        "count-by-cause" => {
            let (counts, stats) = store.count_by_cause(&q).unwrap_or_else(|e| fail(e));
            print_counts(Cause::ALL.iter().map(|c| (c.label(), counts[c.index()])));
            cli::print_scan_stats(&filter, &stats);
        }
        "top-peers" => {
            let limit = arg_u64(&args, "--limit", 10) as usize;
            let (rows, stats) = store.count_by_peer(&q).unwrap_or_else(|e| fail(e));
            for (asn, n) in rows.iter().take(limit) {
                println!("{:<10} {n:>10}", asn.to_string());
            }
            cli::print_scan_stats(&filter, &stats);
        }
        "top-prefixes" => {
            let limit = arg_u64(&args, "--limit", 10) as usize;
            let (rows, stats) = store.count_by_prefix(&q).unwrap_or_else(|e| fail(e));
            for (prefix, n) in rows.iter().take(limit) {
                println!("{prefix:<20} {n:>10}");
            }
            cli::print_scan_stats(&filter, &stats);
        }
        "bytes" => {
            let (total, stats) = store.sum_bytes(&q).unwrap_or_else(|e| fail(e));
            println!("{total} NLRI wire bytes match");
            cli::print_scan_stats(&filter, &stats);
        }
        "series" => {
            let bin_ms = arg_u64(&args, "--bin-ms", 3_600_000);
            let (series, stats) = store.time_series(&q, bin_ms).unwrap_or_else(|e| fail(e));
            print_series(&series, bin_ms, args.iter().any(|a| a == "--spectrum"));
            cli::print_scan_stats(&filter, &stats);
        }
        _ => usage(),
    }
}
