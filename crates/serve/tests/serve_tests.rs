//! End-to-end service tests: protocol round trips over both transports,
//! cache behavior across generations, admission control, graceful
//! drain, the exit-code taxonomy, and a thread-stress run proving
//! concurrent clients always read exactly one consistent generation
//! while mutators commit underneath them.

use iri_core::classifier::Classifier;
use iri_core::taxonomy::UpdateClass;
use iri_faults::{FaultPlan, FaultyFs, RetryPolicy};
use iri_obs::Cause;
use iri_serve::proto::CODE_JSON;
use iri_serve::server::MAX_LINE_BYTES;
use iri_serve::{
    Client, Command, Filter, Reply, Request, Response, ServeCore, ServeOptions, Server, StatsBody,
    WireEvent,
};
use iri_store::{LiveOptions, LiveStore, Query, Store, StoredEvent};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

fn temp_store_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "iri-serve-test-{}-{}-{tag}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn open_core(dir: &Path, opts: &ServeOptions) -> Arc<ServeCore> {
    let live_opts = LiveOptions {
        create_segment_rows: Some(64),
        ..LiveOptions::default()
    };
    let live = LiveStore::open_with(dir, &live_opts).expect("open live store");
    Arc::new(ServeCore::new(live, opts))
}

/// A deterministic batch of raw wire updates: a mix of announcements,
/// re-announcements, and withdrawals over a small (peer, prefix) pool
/// so the server-side classifier produces several taxonomy classes.
fn wire_batch(round: u64, n: u64) -> Vec<WireEvent> {
    (0..n)
        .map(|i| {
            let k = round * 1_000 + i;
            let t = 833_000_000_000 + k * 250;
            let peer = 701 + (k % 3) as u32;
            let addr = format!("192.41.177.{}", 1 + k % 3);
            let prefix = format!("10.{}.0.0/16", k % 8);
            if (round + i).is_multiple_of(3) {
                WireEvent::withdraw(t, peer, &addr, &prefix)
            } else {
                WireEvent::announce(t, peer, &addr, &prefix)
                    .with_path(&[peer, 3561 + (k % 2) as u32])
            }
        })
        .collect()
}

/// Replays what the server's stateful classifier will store for
/// `events`, accumulating per-class counts and NLRI wire bytes.
fn fold_expected(
    classifier: &mut Classifier,
    events: &[WireEvent],
    counts: &mut [u64; UpdateClass::COUNT],
    bytes: &mut u64,
) {
    for ev in events {
        let classified = classifier.classify(&ev.to_update().expect("valid wire event"));
        let row = StoredEvent::from_classified(&classified, Cause::Unknown);
        counts[row.class.index()] += 1;
        *bytes += u64::from(row.size);
    }
}

/// Reorders an index-ordered per-class count array into the reply's
/// label (reporting) order.
fn in_label_order(counts: &[u64; UpdateClass::COUNT]) -> Vec<u64> {
    UpdateClass::ALL.iter().map(|c| counts[c.index()]).collect()
}

fn append(client: &mut Client, events: Vec<WireEvent>) -> u64 {
    match client
        .request(Command::Append { events })
        .expect("append")
        .resp
    {
        Response::Appended { generation, .. } => generation,
        other => panic!("append answered {other:?}"),
    }
}

#[test]
fn round_trip_matches_offline_store() {
    let dir = temp_store_dir("roundtrip");
    let core = open_core(&dir, &ServeOptions::default());
    let mut client = Client::local(Arc::clone(&core));

    let mut classifier = Classifier::new();
    let mut counts = [0u64; UpdateClass::COUNT];
    let mut bytes = 0u64;
    for round in 0..3 {
        let events = wire_batch(round, 50);
        fold_expected(&mut classifier, &events, &mut counts, &mut bytes);
        append(&mut client, events);
    }

    // The server's answers must equal a direct offline scan of the
    // quiesced directory, and the expected fold above.
    let generation = core.live().generation();
    let mut offline = Store::open(&dir).expect("offline open");
    let (offline_counts, _) = offline.count_by_class(&Query::default()).unwrap();
    assert_eq!(offline_counts, counts);

    match client
        .request(Command::CountByClass {
            filter: Filter::default(),
        })
        .unwrap()
        .resp
    {
        Response::Counts {
            generation: g,
            counts: served,
            labels,
            ..
        } => {
            assert_eq!(g, generation);
            assert_eq!(served, in_label_order(&counts));
            assert_eq!(labels.len(), UpdateClass::COUNT);
        }
        other => panic!("count-by-class answered {other:?}"),
    }
    match client
        .request(Command::Bytes {
            filter: Filter::default(),
        })
        .unwrap()
        .resp
    {
        Response::Bytes { total, .. } => assert_eq!(total, bytes),
        other => panic!("bytes answered {other:?}"),
    }
    match client
        .request(Command::TopPeers {
            filter: Filter::default(),
            limit: 2,
        })
        .unwrap()
        .resp
    {
        Response::Top { rows, .. } => {
            assert_eq!(rows.len(), 2);
            assert!(rows[0].count >= rows[1].count);
        }
        other => panic!("top-peers answered {other:?}"),
    }
    match client
        .request(Command::Series {
            filter: Filter::default(),
            bin_ms: 10_000,
        })
        .unwrap()
        .resp
    {
        Response::Series { bins, .. } => {
            assert_eq!(bins.iter().sum::<u64>(), counts.iter().sum::<u64>());
        }
        other => panic!("series answered {other:?}"),
    }
    // A filtered count agrees with the offline store too.
    let filter = Filter {
        peer_asn: Some(701),
        class: Some("AADup".into()),
        ..Filter::default()
    };
    let (offline_filtered, _) = offline.count_by_class(&filter.to_query().unwrap()).unwrap();
    match client
        .request(Command::CountByClass { filter })
        .unwrap()
        .resp
    {
        Response::Counts { counts: served, .. } => {
            assert_eq!(served, in_label_order(&offline_filtered));
        }
        other => panic!("filtered count answered {other:?}"),
    }
    match client.request(Command::Info).unwrap().resp {
        Response::Info { info } => {
            assert_eq!(info.generation, generation);
            assert_eq!(info.total_events, counts.iter().sum::<u64>());
        }
        other => panic!("info answered {other:?}"),
    }
}

#[test]
fn cache_serves_repeats_and_invalidates_on_commit() {
    let dir = temp_store_dir("cache");
    let core = open_core(&dir, &ServeOptions::default());
    let mut client = Client::local(Arc::clone(&core));
    append(&mut client, wire_batch(0, 40));

    let cmd = Command::CountByClass {
        filter: Filter::default(),
    };
    let first = client.request(cmd.clone()).unwrap().resp;
    let second = client.request(cmd.clone()).unwrap().resp;
    let (
        Response::Counts {
            cached: c1,
            counts: n1,
            generation: g1,
            ..
        },
        Response::Counts {
            cached: c2,
            counts: n2,
            generation: g2,
            ..
        },
    ) = (first, second)
    else {
        panic!("counts expected");
    };
    assert!(!c1, "first answer scans");
    assert!(c2, "repeat at the same generation is cache-served");
    assert_eq!((&n1, g1), (&n2, g2), "cache returns the identical answer");

    // A commit advances the generation; the same command misses and
    // re-scans, and the stats reflect one hit and two misses.
    append(&mut client, wire_batch(1, 40));
    match client.request(cmd).unwrap().resp {
        Response::Counts {
            cached, generation, ..
        } => {
            assert!(!cached, "new generation invalidates");
            assert_eq!(generation, g1 + 1);
        }
        other => panic!("counts expected, got {other:?}"),
    }
    match client.request(Command::Stats).unwrap().resp {
        Response::Stats { stats } => {
            assert_eq!(stats.cache_hits, 1);
            assert_eq!(stats.cache_misses, 2);
            assert!(stats.total_pins >= 3);
        }
        other => panic!("stats expected, got {other:?}"),
    }
}

#[test]
fn saturated_service_answers_typed_busy() {
    let dir = temp_store_dir("busy");
    // Zero slots and zero queue: every gated command refuses instantly.
    let core = open_core(
        &dir,
        &ServeOptions {
            max_inflight: 0,
            max_queue: 0,
            ..ServeOptions::default()
        },
    );
    let mut client = Client::local(Arc::clone(&core));
    match client
        .request(Command::Bytes {
            filter: Filter::default(),
        })
        .unwrap()
        .resp
    {
        Response::Busy { active, queued } => assert_eq!((active, queued), (0, 0)),
        other => panic!("expected Busy, got {other:?}"),
    }
    // Service verbs bypass admission: liveness and stats still answer.
    assert_eq!(client.request(Command::Ping).unwrap().resp, Response::Pong);
    match client.request(Command::Stats).unwrap().resp {
        Response::Stats { stats } => assert_eq!(stats.busy_rejections, 1),
        other => panic!("stats expected, got {other:?}"),
    }
}

#[test]
fn plan_traces_ride_on_gated_replies() {
    let dir = temp_store_dir("plan");
    let core = open_core(&dir, &ServeOptions::default());
    let mut client = Client::local(Arc::clone(&core));
    append(&mut client, wire_batch(0, 40));

    // Service verbs carry no plan.
    assert_eq!(client.request(Command::Ping).unwrap().plan, None);
    assert_eq!(client.request(Command::Stats).unwrap().plan, None);

    let cmd = Command::CountByClass {
        filter: Filter::default(),
    };
    let miss = client.request(cmd.clone()).unwrap();
    let plan = miss.plan.expect("gated replies carry a plan");
    assert!(!plan.cache_hit);
    assert_eq!(plan.generation, core.live().generation());
    assert!(
        plan.segments_scanned + plan.segments_zone_answered + plan.segments_pruned > 0,
        "scan accounted for its segments: {plan}"
    );
    assert!(
        plan.total_us >= plan.exec_us,
        "request envelope covers execution: {plan}"
    );

    // A repeat at the same generation is a hit and replays the
    // populating scan's facts.
    let hit = client.request(cmd).unwrap();
    let hit_plan = hit.plan.expect("hit still carries a plan");
    assert!(hit_plan.cache_hit);
    assert_eq!(hit_plan.generation, plan.generation);
    assert_eq!(hit_plan.segments_scanned, plan.segments_scanned);
    assert_eq!(hit_plan.rows_scanned, plan.rows_scanned);
}

#[test]
fn metrics_and_health_expose_the_live_surface() {
    let dir = temp_store_dir("metrics");
    let core = open_core(&dir, &ServeOptions::default());
    let mut client = Client::local(Arc::clone(&core));
    append(&mut client, wire_batch(0, 30));
    for _ in 0..3 {
        client
            .request(Command::CountByClass {
                filter: Filter::default(),
            })
            .unwrap();
    }

    match client.request(Command::Metrics).unwrap().resp {
        Response::Metrics { metrics } => {
            let reg = &metrics.registry;
            let total = reg
                .histograms
                .iter()
                .find(|h| h.name == "serve.plan.total_us")
                .expect("plan latency histogram registered");
            assert_eq!(total.count, 4, "one append + three counts");
            assert!(reg
                .counters
                .iter()
                .any(|c| c.name == "serve.plan.cache_hits" && c.value == 2));
            assert!(!metrics.slow_queries.is_empty(), "slow log populated");
            assert!(
                metrics
                    .slow_queries
                    .windows(2)
                    .all(|w| w[0].total_us >= w[1].total_us),
                "slow log is sorted worst-first"
            );
            assert!(metrics.trace_capacity > 0);
            assert!(
                metrics.trace_len >= 8,
                "spans recorded: {} events",
                metrics.trace_len
            );
        }
        other => panic!("metrics answered {other:?}"),
    }

    match client.request(Command::Health).unwrap().resp {
        Response::Health { health } => {
            assert_eq!(health.status, "ok");
            assert_eq!(health.generation, core.live().generation());
            assert_eq!(health.max_inflight, 64);
            assert_eq!(health.max_queue, 256);
            assert!(!health.draining);
            assert_eq!(health.inflight, 0, "nothing executing between requests");
        }
        other => panic!("health answered {other:?}"),
    }
}

#[test]
fn abandoned_gate_waits_are_attributed() {
    let dir = temp_store_dir("abandon");
    // No execution slots but room to queue, with a 10 ms wait budget:
    // every gated request waits its budget in the queue, gives up, and
    // the burned time is attributed in the plan and the stats.
    let core = open_core(
        &dir,
        &ServeOptions {
            max_inflight: 0,
            max_queue: 4,
            max_queue_wait_ms: Some(10),
            ..ServeOptions::default()
        },
    );
    let mut client = Client::local(Arc::clone(&core));
    let reply = client
        .request(Command::Bytes {
            filter: Filter::default(),
        })
        .unwrap();
    assert!(matches!(reply.resp, Response::Busy { .. }));
    let plan = reply.plan.expect("busy refusals attribute their wait");
    assert!(
        plan.admission_wait_us >= 10_000,
        "the abandoned wait is the plan's admission time: {plan}"
    );
    match client.request(Command::Stats).unwrap().resp {
        Response::Stats { stats } => {
            assert_eq!(stats.busy_rejections, 1);
            assert_eq!(stats.gate_abandoned, 1);
            assert!(stats.gate_abandon_wait_us >= 10_000);
            assert!(stats.gate_wait_total_us >= stats.gate_abandon_wait_us);
        }
        other => panic!("stats answered {other:?}"),
    }
}

#[test]
fn drain_refuses_new_work_but_answers_ping() {
    let dir = temp_store_dir("drain");
    let core = open_core(&dir, &ServeOptions::default());
    let mut client = Client::local(Arc::clone(&core));
    append(&mut client, wire_batch(0, 10));
    assert_eq!(
        client.request(Command::Shutdown).unwrap().resp,
        Response::ShuttingDown
    );
    assert!(core.is_draining());
    assert_eq!(
        client
            .request(Command::Bytes {
                filter: Filter::default()
            })
            .unwrap()
            .resp,
        Response::ShuttingDown
    );
    assert_eq!(client.request(Command::Ping).unwrap().resp, Response::Pong);
    // Health keeps answering during drain — that is when it matters.
    match client.request(Command::Health).unwrap().resp {
        Response::Health { health } => {
            assert_eq!(health.status, "draining");
            assert!(health.draining);
        }
        other => panic!("health answered {other:?}"),
    }
    assert_eq!(
        client.request(Command::Metrics).unwrap().resp,
        Response::ShuttingDown,
        "metrics is not exempt from drain"
    );
}

#[test]
fn errors_carry_the_exit_code_taxonomy() {
    let dir = temp_store_dir("codes");
    let core = open_core(&dir, &ServeOptions::default());
    let mut client = Client::local(Arc::clone(&core));

    // 2 (usage): bad filter label, bad wire event.
    match client
        .request(Command::CountByClass {
            filter: Filter {
                class: Some("nope".into()),
                ..Filter::default()
            },
        })
        .unwrap()
        .resp
    {
        Response::Error { code, message } => {
            assert_eq!(code, 2);
            assert!(message.contains("unknown class"));
        }
        other => panic!("expected usage error, got {other:?}"),
    }
    match client
        .request(Command::Append {
            events: vec![WireEvent::announce(0, 1, "not-an-ip", "10.0.0.0/8")],
        })
        .unwrap()
        .resp
    {
        Response::Error { code, .. } => assert_eq!(code, 2),
        other => panic!("expected usage error, got {other:?}"),
    }

    // 6 (JSON): a malformed request line.
    let line = core.handle_line("this is not json");
    assert!(
        line.contains("\"code\":6") || line.contains("\"code\": 6"),
        "{line}"
    );

    // 3 (I/O): a mutation over a filesystem that dies mid-flight. Two
    // phases: count the operations a successful open+append consumes,
    // then replay with a kill scheduled right after and append again.
    let ops = {
        let dir = temp_store_dir("codes-count");
        let fs = Arc::new(FaultyFs::counting());
        let live = LiveStore::open_with(
            &dir,
            &LiveOptions {
                fs: fs.clone(),
                create_segment_rows: Some(64),
                ..LiveOptions::default()
            },
        )
        .unwrap();
        let core = Arc::new(ServeCore::new(live, &ServeOptions::default()));
        append(&mut Client::local(core), wire_batch(0, 20));
        fs.ops()
    };
    let dir = temp_store_dir("codes-kill");
    let fs = Arc::new(FaultyFs::new(FaultPlan::new().kill_at_op(ops + 1)));
    let live = LiveStore::open_with(
        &dir,
        &LiveOptions {
            fs,
            retry: RetryPolicy::none(),
            create_segment_rows: Some(64),
            ..LiveOptions::default()
        },
    )
    .unwrap();
    let core = Arc::new(ServeCore::new(live, &ServeOptions::default()));
    let mut client = Client::local(core);
    append(&mut client, wire_batch(0, 20));
    match client
        .request(Command::Append {
            events: wire_batch(1, 20),
        })
        .unwrap()
        .resp
    {
        Response::Error { code, .. } => assert_eq!(code, 3, "dead fs maps to I/O"),
        other => panic!("expected I/O error, got {other:?}"),
    }
}

/// The tentpole acceptance shape in miniature: concurrent readers over
/// the in-process transport while one writer appends and compacts.
/// Every reply names its generation; the test pre-computes the exact
/// per-class counts and byte totals each generation must serve and
/// asserts every reply matches its generation's oracle — i.e. zero torn
/// or cross-generation reads.
#[test]
fn concurrent_readers_always_see_one_consistent_generation() {
    const ROUNDS: u64 = 10;
    const READERS: usize = 4;
    let dir = temp_store_dir("stress");
    let core = open_core(&dir, &ServeOptions::default());

    type Oracle = HashMap<u64, ([u64; UpdateClass::COUNT], u64)>;
    let expected: Arc<Mutex<Oracle>> = Arc::new(Mutex::new(HashMap::new()));
    let done = Arc::new(AtomicBool::new(false));

    let mut counts = [0u64; UpdateClass::COUNT];
    let mut bytes = 0u64;
    let mut generation = core.live().generation();
    expected.lock().unwrap().insert(generation, (counts, bytes));

    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let core = Arc::clone(&core);
            let expected = Arc::clone(&expected);
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let mut client = Client::local(core);
                let mut observed = 0u64;
                while !done.load(Ordering::SeqCst) {
                    match client
                        .request(Command::CountByClass {
                            filter: Filter::default(),
                        })
                        .unwrap()
                        .resp
                    {
                        Response::Counts {
                            generation, counts, ..
                        } => {
                            let oracle = expected.lock().unwrap();
                            let (want, _) = oracle
                                .get(&generation)
                                .unwrap_or_else(|| panic!("unknown generation {generation}"));
                            assert_eq!(counts, in_label_order(want), "generation {generation}");
                            observed += 1;
                        }
                        other => panic!("count answered {other:?}"),
                    }
                    match client
                        .request(Command::Bytes {
                            filter: Filter::default(),
                        })
                        .unwrap()
                        .resp
                    {
                        Response::Bytes {
                            generation, total, ..
                        } => {
                            let oracle = expected.lock().unwrap();
                            let (_, want) = oracle
                                .get(&generation)
                                .unwrap_or_else(|| panic!("unknown generation {generation}"));
                            assert_eq!(total, *want, "generation {generation}");
                        }
                        other => panic!("bytes answered {other:?}"),
                    }
                }
                observed
            })
        })
        .collect();

    let mut writer = Client::local(Arc::clone(&core));
    let mut classifier = Classifier::new();
    for round in 0..ROUNDS {
        let events = wire_batch(round, 60);
        fold_expected(&mut classifier, &events, &mut counts, &mut bytes);
        generation += 1;
        expected.lock().unwrap().insert(generation, (counts, bytes));
        assert_eq!(append(&mut writer, events), generation);
        if round % 3 == 2 {
            // Compaction rewrites files but not content: the next
            // generation serves the same answers.
            generation += 1;
            expected.lock().unwrap().insert(generation, (counts, bytes));
            match writer
                .request(Command::Compact { target_rows: None })
                .unwrap()
                .resp
            {
                Response::Compacted { generation: g, .. } => assert_eq!(g, generation),
                other => panic!("compact answered {other:?}"),
            }
        }
    }
    done.store(true, Ordering::SeqCst);
    let mut observed = 0;
    for reader in readers {
        observed += reader.join().expect("reader panicked");
    }
    assert!(observed > 0, "readers actually ran");
    assert_eq!(core.live().generation(), generation);

    // Quiesced cross-check: the final generation equals an offline scan.
    let mut offline = Store::open(&dir).expect("offline open");
    let (offline_counts, _) = offline.count_by_class(&Query::default()).unwrap();
    assert_eq!(offline_counts, counts);
}

#[test]
fn tcp_round_trip_and_graceful_drain() {
    let dir = temp_store_dir("tcp");
    let core = open_core(&dir, &ServeOptions::default());
    let server = Server::bind(Arc::clone(&core), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr().to_string();

    let mut client = Client::connect(&addr).expect("connect");
    assert_eq!(client.request(Command::Ping).unwrap().resp, Response::Pong);
    let generation = append(&mut client, wire_batch(0, 30));
    match client
        .request(Command::CountByClass {
            filter: Filter::default(),
        })
        .unwrap()
        .resp
    {
        Response::Counts {
            generation: g,
            counts,
            ..
        } => {
            assert_eq!(g, generation);
            assert_eq!(counts.iter().sum::<u64>(), 30);
        }
        other => panic!("count answered {other:?}"),
    }
    match client.request(Command::Stats).unwrap().resp {
        Response::Stats {
            stats: StatsBody { total_pins, .. },
        } => assert!(total_pins >= 1),
        other => panic!("stats answered {other:?}"),
    }

    // A second client shares the same store state.
    let mut other = Client::connect(&addr).expect("second connect");
    match other.request(Command::Info).unwrap().resp {
        Response::Info { info } => assert_eq!(info.total_events, 30),
        other => panic!("info answered {other:?}"),
    }

    server.shutdown();
    // The drained server is gone: surviving connections die and new
    // ones are refused.
    assert!(
        client.request(Command::Ping).is_err(),
        "drained server closed the connection"
    );
    assert!(Client::connect(&addr).is_err(), "listener is closed");
}

fn raw_reply(reader: &mut BufReader<TcpStream>) -> Reply {
    let mut line = String::new();
    reader.read_line(&mut line).expect("read reply");
    serde_json::from_str(&line).unwrap_or_else(|e| panic!("reply {line:?}: {e}"))
}

fn ping_line(id: u64) -> Vec<u8> {
    let req = Request {
        id,
        cmd: Command::Ping,
    };
    (serde_json::to_string(&req).expect("render request") + "\n").into_bytes()
}

#[test]
fn request_lines_resume_across_poll_ticks_and_are_capped() {
    let dir = temp_store_dir("lines");
    let server =
        Server::bind(open_core(&dir, &ServeOptions::default()), "127.0.0.1:0").expect("bind");
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));

    // A request split across the server's read-timeout poll tick.
    let line = ping_line(7);
    let (head, tail) = line.split_at(line.len() / 2);
    stream.write_all(head).expect("send head");
    std::thread::sleep(std::time::Duration::from_millis(250));
    stream.write_all(tail).expect("send tail");
    let reply = raw_reply(&mut reader);
    assert_eq!((reply.id, reply.resp), (7, Response::Pong));

    // A line past the cap is refused once it crosses it, and the rest
    // of it is discarded rather than buffered.
    let chunk = vec![b'x'; 1 << 20];
    for _ in 0..=MAX_LINE_BYTES / chunk.len() {
        stream.write_all(&chunk).expect("send overlong line");
    }
    stream.write_all(b"\n").expect("end overlong line");
    let reply = raw_reply(&mut reader);
    match reply.resp {
        Response::Error { code, message } if reply.id == 0 => {
            assert_eq!(code, CODE_JSON);
            assert!(message.contains("exceeds"), "{message}");
        }
        other => panic!("overlong line answered {other:?}"),
    }
    // The connection resynchronises at the newline.
    stream.write_all(&ping_line(8)).expect("send ping");
    let reply = raw_reply(&mut reader);
    assert_eq!((reply.id, reply.resp), (8, Response::Pong));
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
