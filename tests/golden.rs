//! Golden oracles: committed constants that pin simulator and figure
//! behaviour, so a refactor of the day loop, the classifier or the
//! statistics path cannot move a number without a failing test.
//!
//! - Each seed pack under `packs/`, run for one simulated hour with the
//!   boundary chain recording, must end at its committed chain head. The
//!   head commits to every classified event, fault draw, day boundary
//!   and end-of-day checkpoint, so it pins the whole input stream.
//! - One tiny-scale [`summarize_day`] must reduce to its committed
//!   digest over the class breakdown, the ten-minute bins, the provider
//!   rows, the table census and the peak rate: the figure path.
//!
//! A deliberate behaviour change re-pins these constants in the same
//! change, with the reason.

use iri_bench::{summarize_day, ExperimentConfig};
use iri_core::fxhash::FxHasher;
use iri_scenario::{ChainMode, RunnerOptions, ScenarioPack, ScenarioRunner};
use std::hash::Hasher;
use std::path::{Path, PathBuf};

/// Chain heads after one simulated hour of each seed pack.
const PACK_HEADS: [(&str, &str); 5] = [
    ("community_churn", "da28a5a778c94003"),
    ("link_failures", "7852ff99345ecb2c"),
    ("paper_1996", "766255c8d3274c4d"),
    ("quiet", "240b2c22eec3de30"),
    ("worm_outbreak", "9d3f341c76c47d17"),
];

/// Digest of the tiny-scale day in [`tiny_day_summary_digest_is_pinned`].
const SUMMARY_DIGEST: u64 = 0x71c3_64ce_81d0_c38a;

/// Removes a run's store and its `-chain` / `-ribspill` siblings.
fn remove_run(store: &Path) {
    for suffix in ["", "-chain", "-ribspill"] {
        let mut p = store.as_os_str().to_owned();
        p.push(suffix);
        let _ = std::fs::remove_dir_all(PathBuf::from(p));
    }
}

#[test]
fn seed_pack_chain_heads_are_pinned() {
    let packs = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("packs");
    let mut got = Vec::new();
    for (name, _) in PACK_HEADS {
        let pack = ScenarioPack::load(&packs.join(format!("{name}.toml")))
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let store = std::env::temp_dir().join(format!("iri-golden-{}-{name}", std::process::id()));
        remove_run(&store);
        let report = ScenarioRunner::new(
            pack,
            RunnerOptions {
                jobs: 1,
                hours: Some(1),
                chain: ChainMode::Record,
                ..RunnerOptions::default()
            },
        )
        .run(&store)
        .unwrap_or_else(|e| panic!("{name}: {e}"));
        remove_run(&store);
        got.push((name, report.chain_head.expect("recorded run has a head")));
    }
    assert_eq!(
        got,
        PACK_HEADS.map(|(n, h)| (n, h.to_owned())),
        "a chain head moved"
    );
}

#[test]
fn tiny_day_summary_digest_is_pinned() {
    // One short day at 1 % scale, as the figure binaries compute it.
    let (cfg, graph) = ExperimentConfig::at_scale(0.01);
    let mut scenario = cfg.scenario;
    scenario.warmup_minutes = 10;
    let s = summarize_day(&scenario, &graph, 1);
    assert!(s.total_events > 0, "the tiny day must show updates");
    assert_eq!(s.breakdown.total(), s.total_events);
    assert_eq!((s.cdfs.len(), s.interarrivals.len()), (4, 4));
    assert!((0.0..=1.0).contains(&s.persistence_under_5min));
    let pinned = format!(
        "{} {} {:?} {:?} {:?} {:?} {}",
        s.day,
        s.total_events,
        s.breakdown.counts,
        s.instability_bins,
        s.provider_rows,
        s.census,
        s.peak_events_per_sec
    );
    let mut h = FxHasher::default();
    h.write(pinned.as_bytes());
    let digest = h.finish();
    assert_eq!(
        digest, SUMMARY_DIGEST,
        "the figure path's day summary moved (got {digest:#018x})"
    );
}
