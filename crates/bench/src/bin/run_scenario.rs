//! `run_scenario` — run a scenario pack.
//!
//! The input is a **scenario pack**: one versioned TOML/JSON
//! file holding topology, workload, fault schedules, detector tuning,
//! memory limits, and expected-incident ground truth (see
//! `iri-scenario` and the seed packs under `packs/`). Packs run through
//! the streaming runner: bounded channel into the live store, optional
//! RIB spill, watcher polling between chunks, and a final
//! precision/recall scorecard against the pack's ground truth.
//!
//! ```sh
//! run_scenario --pack packs/worm_outbreak.toml --store /tmp/worm
//! run_scenario --pack packs/paper_1996.toml --store /tmp/p96 \
//!     --days 7 --jobs 4 --max-rss-mb 2048 --report-json report.json
//! run_scenario --pack p.toml --store /tmp/s --record   # + boundary chain
//! run_scenario --pack p.toml --store /tmp/s --resume   # continue a kill
//! run_scenario --pack p.toml --store /tmp/s2 --replay --chain /tmp/s-chain
//! ```
//!
//! `--record` appends every simulation boundary crossing to a
//! hash-linked chain (default `<store>-chain/CHAIN.log`); `--resume`
//! restarts a killed recorded run from the recovered store and produces
//! the byte-identical final store; `--replay` re-derives a store from a
//! chain alone, failing loudly (exit 10) on the first divergent entry.
//! Exit codes: 0 ok, 2 usage, 3–7 store errors, 8 RSS budget, 9
//! `--kill-after-chunks`, 10 chain.

use iri_bench::cli::run_error_exit_code;
use iri_bench::{arg_str, arg_u64};
use iri_scenario::{ChainMode, RunnerOptions, ScenarioPack, ScenarioRunner};
use std::path::{Path, PathBuf};

/// Parses the pack, applies CLI overrides, streams it through the
/// runner, and prints the report + scorecard.
fn main() {
    let args: &[String] = &std::env::args().collect::<Vec<_>>();
    let Some(pack_path) = arg_str(args, "--pack") else {
        eprintln!(
            "usage: run_scenario --pack <pack.toml> --store <dir> [--days N] [--jobs N] \
             [--hours H] [--max-rss-mb M] [--report-json <path>]\n\
             \x20      [--record | --resume | --replay] [--chain <dir>] \
             [--kill-after-chunks N]\n\
             \x20      run_scenario --pack <pack.toml> --check"
        );
        std::process::exit(2);
    };
    let mut pack = ScenarioPack::load(Path::new(&pack_path)).unwrap_or_else(|e| {
        eprintln!("run_scenario: {pack_path}: {e}");
        std::process::exit(1);
    });
    if args.iter().any(|a| a == "--check") {
        let graph = pack.graph_config();
        // Also validates the exchange name and fault/truth semantics.
        pack.scenario_config().unwrap_or_else(|e| {
            eprintln!("run_scenario: {pack_path}: {e}");
            std::process::exit(1);
        });
        println!(
            "{pack_path}: ok — {} ({} day(s), {} prefixes, {} fault(s), {} truth(s))",
            pack.meta.name,
            pack.run.days,
            graph.prefixes,
            pack.faults.len(),
            pack.ground_truth.len()
        );
        return;
    }
    let Some(store_dir) = arg_str(args, "--store") else {
        eprintln!("run_scenario: --pack requires --store <dir>");
        std::process::exit(2);
    };
    if let Some(days) = arg_str(args, "--days") {
        pack.run.days = days.parse().unwrap_or_else(|e| {
            eprintln!("run_scenario: bad --days: {e}");
            std::process::exit(2);
        });
    }
    let hours = arg_str(args, "--hours").map(|h| {
        h.parse::<u32>().unwrap_or_else(|e| {
            eprintln!("run_scenario: bad --hours: {e}");
            std::process::exit(2);
        })
    });
    let chain = match (
        args.iter().any(|a| a == "--record"),
        args.iter().any(|a| a == "--resume"),
        args.iter().any(|a| a == "--replay"),
    ) {
        (false, false, false) => ChainMode::Off,
        (true, false, false) => ChainMode::Record,
        (false, true, false) => ChainMode::Resume,
        (false, false, true) => ChainMode::Replay,
        _ => {
            eprintln!("run_scenario: --record, --resume, and --replay are mutually exclusive");
            std::process::exit(2);
        }
    };
    let opts = RunnerOptions {
        jobs: arg_u64(args, "--jobs", 0) as usize,
        max_rss_mb: arg_u64(args, "--max-rss-mb", 0),
        hours,
        verbose: true,
        chain,
        chain_dir: arg_str(args, "--chain").map(PathBuf::from),
        stop_after_chunks: arg_str(args, "--kill-after-chunks").map(|n| {
            n.parse().unwrap_or_else(|e| {
                eprintln!("run_scenario: bad --kill-after-chunks: {e}");
                std::process::exit(2);
            })
        }),
        ..RunnerOptions::default()
    };
    println!(
        "pack: {} (\"{}\") — {} day(s), seed {}",
        pack.meta.name, pack.meta.description, pack.run.days, pack.meta.seed
    );
    let report = ScenarioRunner::new(pack, opts)
        .run(Path::new(&store_dir))
        .unwrap_or_else(|e| {
            eprintln!("run_scenario: {e}");
            std::process::exit(run_error_exit_code(&e));
        });
    println!(
        "\n{} events committed over {} day(s) ({} h/day) at {:.0} events/s; \
         store generation {}",
        report.events_written,
        report.days,
        report.hours_per_day,
        report.events_per_sec,
        report.store_generation
    );
    if let Some(head) = &report.chain_head {
        match report.resumed_from {
            Some(at) => println!(
                "chain: {} entries ({} events), head {head}; resumed from event {at}",
                report.chain_entries, report.chain_events
            ),
            None => println!(
                "chain: {} entries ({} events), head {head}",
                report.chain_entries, report.chain_events
            ),
        }
    }
    println!(
        "census: {} prefixes; peak RSS {} MiB; spill: {} out / {} in ({} B written)",
        report.final_census_prefixes,
        report.peak_rss_kb / 1024,
        report.spill.spills,
        report.spill.restores,
        report.spill.bytes_written
    );
    for inc in &report.incidents {
        println!(
            "incident: {:?} onset {} min detected {} min cause {}",
            inc.kind,
            inc.onset_ms / 60_000,
            inc.detected_ms / 60_000,
            inc.cause
        );
    }
    let s = &report.scorecard;
    println!(
        "scorecard: {} truths, {} tp / {} fp / {} fn — precision {:.2} recall {:.2}",
        s.truths, s.true_positives, s.false_positives, s.false_negatives, s.precision, s.recall
    );
    if let Some(path) = arg_str(args, "--report-json") {
        let json = serde_json::to_string_pretty(&report).expect("serialise report");
        std::fs::write(&path, json).unwrap_or_else(|e| {
            eprintln!("run_scenario: cannot write {path}: {e}");
            std::process::exit(1);
        });
        println!("report written to {path}");
    }
}
