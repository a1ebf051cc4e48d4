//! `scenario-paper1996`: `ScenarioRunner::run` on the paper-1996 pack
//! with the chain recording, and — for the traced run — a
//! benchmark-owned loop that calls the runner's public pieces in the
//! runner's order, on the runner's two threads and bounded channel.

use crate::probe;
use crate::timing_fs::TimingFs;
use crate::trace::Tracer;
use crate::util::{dir_digest, ms, quantile, store_bytes, Metrics};
use crate::{Check, Outcome, Scale};
use crossbeam::channel::TrySendError;
use iri_chain::{encode_event, ChainTape, EntryKind, Genesis, Mark};
use iri_core::fxhash::FxHasher;
use iri_core::input::{events_from_update, PeerKey};
use iri_core::Classifier;
use iri_faults::SharedFs;
use iri_netsim::{SimTime, HOUR, MINUTE};
use iri_scenario::faults::{apply_faults, DayContext};
use iri_scenario::{
    chain_dir_for, ChainMode, RunnerOptions, ScenarioPack, ScenarioRunner, DEFAULT_PACK_SEED,
};
use iri_store::{LiveOptions, LiveStore, StoredEvent, WatchConfig, Watcher};
use iri_topology::asgraph::AsGraph;
use iri_topology::scenario::build_day_world;
use std::hash::Hasher as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// The chain head the paper-1996 pack records at the default seed.
pub const PAPER_1996_HEAD: &str = "d9b10f45d48b1142";

/// Store worker threads, as `run_scenario --jobs 2`.
const JOBS: usize = 2;

/// Writer compaction cadence in commits; mirrors the runner's.
const COMPACT_EVERY_COMMITS: u64 = 16;

/// The pack, with the benchmark seed folded into its seed: seed 0 keeps
/// the pack's anchored seed, so its chain head is pinned.
pub fn pack(seed: u64, scale: Scale) -> Result<ScenarioPack, String> {
    let mut pack = ScenarioPack::parse_str(include_str!("../../packs/paper_1996.toml"))
        .map_err(|e| e.to_string())?;
    pack.meta.seed = DEFAULT_PACK_SEED.wrapping_add(seed);
    if scale == Scale::Tiny {
        pack.run.days = 1;
    }
    Ok(pack)
}

/// Hours per simulated day.
fn hours(scale: Scale) -> Option<u32> {
    (scale == Scale::Tiny).then_some(1)
}

/// Set-up: parse and validate the pack, and build its AS graph and
/// every measured day's world once.
pub fn setup(seed: u64, scale: Scale) -> Result<(), String> {
    let pack = pack(seed, scale)?;
    let cfg = pack.scenario_config().map_err(|e| e.to_string())?;
    let graph = AsGraph::generate(&pack.graph_config());
    for day in 0..pack.run.days {
        std::hint::black_box(build_day_world(&cfg, &graph, pack.run.start_day + day));
    }
    Ok(())
}

/// One untraced `ScenarioRunner` pass into a fresh store.
struct Pass {
    wall: Duration,
    events: u64,
    head: String,
    digest: String,
    store_bytes: u64,
}

fn runner_pass(
    pack: &ScenarioPack,
    dir: &Path,
    scale: Scale,
    fs: Option<SharedFs>,
) -> Result<Pass, String> {
    crate::util::clear_dir(dir);
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let store = dir.join("store");
    let mut opts = RunnerOptions {
        jobs: JOBS,
        chain: ChainMode::Record,
        hours: hours(scale),
        ..RunnerOptions::default()
    };
    if let Some(fs) = fs {
        opts.fs = fs;
    }
    let started = Instant::now();
    let report = ScenarioRunner::new(pack.clone(), opts)
        .run(&store)
        .map_err(|e| e.to_string())?;
    let wall = started.elapsed();
    Ok(Pass {
        wall,
        events: report.events_written,
        head: report.chain_head.unwrap_or_default(),
        digest: dir_digest(&store),
        store_bytes: store_bytes(&store),
    })
}

/// The measured phase, run in its own process: runner passes until
/// `seconds` have elapsed (at least three), then the archive probe.
pub fn measure(
    seed: u64,
    seconds: f64,
    scale: Scale,
    work: &Path,
    expect_head: Option<&str>,
) -> Result<Outcome, String> {
    let pack = pack(seed, scale)?;
    let mut out = Outcome::default();
    let mut passes: Vec<Pass> = Vec::new();
    let started = Instant::now();
    while passes.len() < 3 || started.elapsed().as_secs_f64() < seconds {
        let dir = work.join(format!("pass-{}", passes.len() % 2));
        passes.push(runner_pass(&pack, &dir, scale, None)?);
    }
    let first = &passes[0];
    out.attempted += passes.len() as u64;
    let same = passes
        .iter()
        .filter(|p| p.head == first.head && p.digest == first.digest && p.events == first.events)
        .count();
    out.check(Check::new(
        "every pass records the same chain head and store bytes",
        same == passes.len(),
        format!(
            "{same} of {} passes match head {} digest {}",
            passes.len(),
            first.head,
            first.digest
        ),
    ));
    if let Some(want) = expect_head {
        out.check(Check::new(
            "default seed reproduces the pinned chain head",
            first.head == want,
            format!("head {} want {want}", first.head),
        ));
    }
    out.note("chain_head", &first.head);
    out.note("store_digest", &first.digest);
    out.note("passes", &passes.len().to_string());
    out.note("events_per_pass", &first.events.to_string());

    // The upper quartile of per-pass rates: interference from outside
    // the program only ever slows a pass down, and a quartile is not
    // moved by one lucky pass.
    let rates: Vec<f64> = passes
        .iter()
        .map(|p| p.events as f64 / p.wall.as_secs_f64())
        .collect();
    out.metrics
        .set("throughput_per_s", quantile(&rates, 0.75), "1/s");
    let walls: Vec<String> = passes
        .iter()
        .map(|p| format!("{:.3}", p.wall.as_secs_f64()))
        .collect();
    out.note("pass_wall_s", &walls.join(" "));
    out.metrics.set(
        "store_bytes_per_event",
        first.store_bytes as f64 / first.events.max(1) as f64,
        "B/event",
    );
    // Peak RSS of the passes alone, read before the probe runs.
    out.metrics
        .set("peak_rss_mb", crate::util::peak_rss_mb(), "MiB");
    let last = work.join(format!("pass-{}", (passes.len() - 1) % 2));
    probe::run(&last.join("store"), seed, scale, &mut out)?;
    Ok(out)
}

/// What crosses the traced loop's driver → writer channel.
enum Msg {
    Event(StoredEvent),
    Mark(Mark),
}

/// Writer-side per-call accumulators (outside any span).
#[derive(Default)]
struct WriterAcc {
    recv_idle: Duration,
    cross: Duration,
    written: u64,
}

/// Driver-side per-call accumulators (inside `scenario.drain` spans).
#[derive(Default)]
struct DriverAcc {
    classify: Duration,
    classified: u64,
    flatten: Duration,
    send_blocked: Duration,
    sim_events: u64,
}

struct TracedRun {
    head: String,
    events: u64,
    writer: WriterAcc,
    driver: DriverAcc,
    wall: Duration,
}

fn watch_config(pack: &ScenarioPack) -> WatchConfig {
    let w = &pack.watch;
    WatchConfig {
        bin_ms: w.bin_ms,
        change_window: w.change_window,
        change_ratio: w.change_ratio,
        change_z: w.change_z,
        min_rate: w.min_rate,
        period_window: w.period_window,
        period_min_lag: w.period_min_lag,
        period_max_lag: w.period_max_lag,
        period_threshold: w.period_threshold,
        novelty_warmup: w.novelty_warmup,
        novelty_min_count: w.novelty_min_count,
        ..WatchConfig::default()
    }
}

/// The runner's per-run work, re-driven from outside with a span around
/// every layer call. Produces the same chain and store as
/// `ScenarioRunner::run` with `ChainMode::Record`.
fn traced_loop(
    pack: &ScenarioPack,
    store_dir: &Path,
    fs: SharedFs,
    scale: Scale,
    tr: &Tracer,
) -> Result<TracedRun, String> {
    let started = Instant::now();
    let e = |e: &dyn std::fmt::Display| e.to_string();
    let cfg = pack.scenario_config().map_err(|x| e(&x))?;
    let hours = hours(scale).unwrap_or(24);
    let batch = pack.run.batch_events.max(1);
    let segment_rows = pack.run.segment_rows;
    let days = pack.run.days;
    let warmup_ms = SimTime::from(cfg.warmup_minutes) * MINUTE;
    let lan_base = u32::from(cfg.exchange.lan_base());
    // RIB spill would add spill totals to every checkpoint; the pack
    // keeps the whole RIB resident, and this loop assumes it does.
    if pack.limits.spill_working_set > 0 {
        return Err("the traced loop does not re-drive RIB spill".to_owned());
    }

    let (tx, rx) = crossbeam::channel::bounded::<Msg>(pack.run.channel_capacity);
    let mut driver = DriverAcc::default();
    let result = tr.thread("driver", || -> Result<(String, WriterAcc), String> {
        let graph = tr.span("topology.generate_graph", || {
            AsGraph::generate(&pack.graph_config())
        });
        let store = tr
            .span("store.open", || {
                LiveStore::open_with(
                    store_dir,
                    &LiveOptions {
                        fs: fs.clone(),
                        create_segment_rows: Some(segment_rows),
                        jobs: JOBS,
                        ..LiveOptions::default()
                    },
                )
            })
            .map_err(|x| e(&x))?;
        let mut watcher = Watcher::new(watch_config(pack));
        let genesis = {
            let mut h = FxHasher::default();
            h.write(pack.to_toml_string().as_bytes());
            Genesis {
                fingerprint: h.finish(),
                seed: pack.meta.seed,
                days,
                hours,
                batch_events: batch as u64,
                segment_rows,
                start_day: pack.run.start_day,
                name: pack.meta.name.clone(),
            }
        };
        let tape = tr
            .span("chain.create", || {
                ChainTape::create(fs.clone(), &chain_dir_for(store_dir), &genesis)
            })
            .map_err(|x| e(&x))?;

        let sim = crossbeam::thread::scope(|scope| {
            let store_ref = &store;
            let writer = scope.spawn(move |_| {
                tr.thread("writer", || -> Result<(ChainTape, WriterAcc), String> {
                    let mut tape = tape;
                    let mut acc = WriterAcc::default();
                    let mut buf: Vec<StoredEvent> = Vec::with_capacity(batch);
                    let mut commits = 0u64;
                    let commit =
                        |buf: &mut Vec<StoredEvent>, tape: &mut ChainTape, acc: &mut WriterAcc| {
                            tr.span("chain.flush", || tape.flush()).map_err(|x| e(&x))?;
                            tr.span("store.append", || store_ref.append_events(buf))
                                .map_err(|x| e(&x))?;
                            acc.written += buf.len() as u64;
                            buf.clear();
                            Ok::<(), String>(())
                        };
                    loop {
                        let t = Instant::now();
                        let msg = rx.recv();
                        acc.recv_idle += t.elapsed();
                        let Ok(msg) = msg else { break };
                        let t = Instant::now();
                        let crossed = match &msg {
                            Msg::Event(ev) => tape.cross(EntryKind::Event, encode_event(ev)),
                            Msg::Mark(m) => tape.cross(m.kind(), m.encode()),
                        };
                        acc.cross += t.elapsed();
                        crossed.map_err(|x| e(&x))?;
                        match msg {
                            Msg::Event(ev) => {
                                buf.push(ev);
                                if buf.len() >= batch {
                                    commit(&mut buf, &mut tape, &mut acc)?;
                                    commits += 1;
                                    if commits.is_multiple_of(COMPACT_EVERY_COMMITS) {
                                        tr.span("store.compact", || {
                                            store_ref.compact(segment_rows)
                                        })
                                        .map_err(|x| e(&x))?;
                                    }
                                }
                            }
                            Msg::Mark(m) => {
                                if matches!(m, Mark::Checkpoint { .. }) {
                                    tr.span("chain.flush", || tape.flush()).map_err(|x| e(&x))?;
                                }
                            }
                        }
                    }
                    if !buf.is_empty() {
                        commit(&mut buf, &mut tape, &mut acc)?;
                    }
                    tr.span("chain.flush", || tape.flush()).map_err(|x| e(&x))?;
                    Ok((tape, acc))
                })
            });

            let mut drive = || -> Result<(), String> {
                let hang_up = |_| "writer hung up".to_owned();
                let send = |msg: Msg, driver: &mut DriverAcc| match tx.try_send(msg) {
                    Ok(()) => Ok(()),
                    Err(TrySendError::Full(msg)) => {
                        let t = Instant::now();
                        let sent = tx.send(msg).map_err(hang_up);
                        driver.send_blocked += t.elapsed();
                        sent
                    }
                    Err(TrySendError::Disconnected(_)) => Err("writer hung up".to_owned()),
                };
                let mut events_sent = 0u64;
                for run_day in 0..days {
                    let sim_day = pack.run.start_day + run_day;
                    send(Msg::Mark(Mark::DayStart { run_day, sim_day }), &mut driver)?;
                    let (mut world, rs, providers) = tr.span("topology.build_day_world", || {
                        build_day_world(&cfg, &graph, sim_day)
                    });
                    let draws = tr.span("scenario.apply_faults", || {
                        apply_faults(
                            pack,
                            &mut world,
                            &DayContext {
                                graph: &graph,
                                providers: &providers,
                                lan_base,
                                warmup_ms,
                                run_day,
                            },
                        )
                    });
                    send(
                        Msg::Mark(Mark::Faults {
                            run_day,
                            scheduled: draws.scheduled,
                            digest: draws.digest,
                        }),
                        &mut driver,
                    )?;
                    world.start();
                    let day_offset = u64::from(run_day) * 24 * HOUR;
                    let day_end = warmup_ms + u64::from(hours) * HOUR;
                    let chunk = u64::from(pack.run.chunk_minutes) * MINUTE;
                    let mut classifier = Classifier::new();
                    let mut t = 0u64;
                    while t < day_end {
                        t = (t + chunk).min(day_end);
                        tr.span("netsim.run_until", || world.run_until(t));
                        tr.span("scenario.drain", || -> Result<(), String> {
                            let drained = world
                                .monitor_mut(rs)
                                .map(|m| std::mem::take(&mut m.updates))
                                .unwrap_or_default();
                            for logged in &drained {
                                let iri_bgp::message::Message::Update(up) = &logged.message else {
                                    continue;
                                };
                                let peer = PeerKey {
                                    asn: logged.peer_asn,
                                    addr: logged.peer_addr,
                                };
                                let t0 = Instant::now();
                                let evs = events_from_update(logged.time_ms, peer, up);
                                driver.flatten += t0.elapsed();
                                for ev in evs {
                                    let t0 = Instant::now();
                                    let c = classifier.classify(&ev);
                                    driver.classify += t0.elapsed();
                                    driver.classified += 1;
                                    if c.time_ms < warmup_ms {
                                        continue;
                                    }
                                    let mut row = StoredEvent::from_classified(&c, logged.cause);
                                    row.time_ms = row.time_ms - warmup_ms + day_offset;
                                    send(Msg::Event(row), &mut driver)?;
                                    events_sent += 1;
                                }
                            }
                            Ok(())
                        })?;
                        tr.span("store.watch_poll", || watcher.poll(store_ref))
                            .map_err(|x| e(&x))?;
                    }
                    driver.sim_events += world.events_processed();
                    let census = tr.span("rib.census", || {
                        world.ensure_resident(rs);
                        iri_rib::stats::census(world.router(rs).loc_rib())
                    });
                    send(
                        Msg::Mark(Mark::Checkpoint {
                            run_day,
                            events: events_sent,
                            census_prefixes: census.prefixes as u64,
                            spills: 0,
                            restores: 0,
                            spill_bytes_written: 0,
                            spill_bytes_read: 0,
                        }),
                        &mut driver,
                    )?;
                }
                Ok(())
            };
            let driven = drive();
            drop(tx);
            let written = writer.join().expect("traced writer thread panicked");
            driven.and(written)
        })
        .expect("crossbeam scope");
        let (tape, acc) = sim?;
        tr.span("store.compact", || store.compact(segment_rows))
            .map_err(|x| e(&x))?;
        tr.span("store.watch_poll", || watcher.poll(&store))
            .map_err(|x| e(&x))?;
        Ok((format!("{:016x}", tape.head_hash()), acc))
    })?;
    let (head, writer) = result;
    Ok(TracedRun {
        head,
        events: writer.written,
        writer,
        driver,
        wall: started.elapsed(),
    })
}

/// The traced run: one untraced `ScenarioRunner` pass (the overhead
/// base and the reference head), then the traced loop through a timing
/// filesystem, which must land on the same head and store bytes.
pub fn traced(
    seed: u64,
    scale: Scale,
    work: &Path,
    expect_head: Option<&str>,
    spans_out: &Path,
) -> Result<Outcome, String> {
    let pack = pack(seed, scale)?;
    let mut out = Outcome::default();
    let reference = runner_pass(&pack, &work.join("reference"), scale, None)?;
    let dir = work.join("traced");
    crate::util::clear_dir(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let store = dir.join("store");
    let fs = TimingFs::shared();
    let tr = Tracer::default();
    let run = traced_loop(&pack, &store, fs.as_shared(), scale, &tr)?;
    let digest = dir_digest(&store);
    out.attempted += 2;
    out.check(Check::new(
        "traced loop lands on the runner's chain head and store bytes",
        run.head == reference.head && digest == reference.digest && run.events == reference.events,
        format!(
            "traced head {} digest {digest} events {}; runner head {} digest {} events {}",
            run.head, run.events, reference.head, reference.digest, reference.events
        ),
    ));
    if let Some(want) = expect_head {
        out.check(Check::new(
            "default seed reproduces the pinned chain head",
            reference.head == want,
            format!("head {} want {want}", reference.head),
        ));
    }
    out.note("chain_head", &reference.head);
    out.note("traced_chain_head", &run.head);
    tr.write_jsonl(spans_out).map_err(|e| e.to_string())?;
    probe::run(&store, seed, scale, &mut out)?;

    let m = &mut out.metrics;
    let (run_until_ms, _) = tr.total("netsim.run_until");
    m.set("netsim.run_until_ms", run_until_ms, "ms");
    m.set("netsim.events", run.driver.sim_events as f64, "count");
    m.set(
        "netsim.us_per_event",
        run_until_ms * 1e3 / run.driver.sim_events.max(1) as f64,
        "us",
    );
    m.set(
        "topology.build_day_world_ms",
        tr.total("topology.build_day_world").0,
        "ms",
    );
    m.set(
        "scenario.apply_faults_ms",
        tr.total("scenario.apply_faults").0,
        "ms",
    );
    m.set("core.classify_ms", ms(run.driver.classify), "ms");
    m.set("core.classified", run.driver.classified as f64, "count");
    m.set("core.flatten_ms", ms(run.driver.flatten), "ms");
    m.set("scenario.drain_ms", tr.total("scenario.drain").0, "ms");
    m.set(
        "scenario.send_blocked_ms",
        ms(run.driver.send_blocked),
        "ms",
    );
    m.set("scenario.recv_idle_ms", ms(run.writer.recv_idle), "ms");
    m.set("chain.cross_ms", ms(run.writer.cross), "ms");
    let (flush_ms, flushes) = tr.total("chain.flush");
    m.set("chain.flush_ms", flush_ms, "ms");
    m.set("chain.flushes", flushes as f64, "count");
    append_metrics(m, &tr, run.events);
    let (poll_ms, polls) = tr.total("store.watch_poll");
    m.set("store.watch_poll_ms", poll_ms, "ms");
    m.set("store.watch_polls", polls as f64, "count");
    m.extend(fs.metrics(run.events));
    let cov = tr.coverage(&[("writer", run.writer.recv_idle + run.writer.cross)]);
    m.set(
        "trace.coverage_driver",
        cov.get("driver").copied().unwrap_or(0.0),
        "fraction",
    );
    m.set(
        "trace.coverage_writer",
        cov.get("writer").copied().unwrap_or(0.0),
        "fraction",
    );
    m.set(
        "trace.overhead_frac",
        run.wall.as_secs_f64() / reference.wall.as_secs_f64() - 1.0,
        "fraction",
    );
    Ok(out)
}

/// `store.append_*` and `store.compact*` from the spans of a run that
/// appended `rows` rows.
pub fn append_metrics(m: &mut Metrics, tr: &Tracer, rows: u64) {
    let (append_ms, appends) = tr.total("store.append");
    m.set("store.append_ms", append_ms, "ms");
    m.set("store.appends", appends as f64, "count");
    m.set(
        "store.append_us_per_row",
        append_ms * 1e3 / rows.max(1) as f64,
        "us",
    );
    m.set(
        "store.append_p99_ms",
        tr.quantile_ms("store.append", 0.99),
        "ms",
    );
    let (compact_ms, compactions) = tr.total("store.compact");
    m.set("store.compact_ms", compact_ms, "ms");
    m.set("store.compactions", compactions as f64, "count");
}
