//! The seed packs shipped under `packs/` must always parse strictly and
//! yield usable graph/scenario configs — the same gate `ci.sh` runs via
//! `run_scenario --check`, kept here so `cargo test` catches a schema
//! drift before CI does.

use iri_scenario::ScenarioPack;
use iri_topology::asgraph::GraphConfig;
use iri_topology::scenario::ScenarioConfig;
use std::path::PathBuf;

fn packs_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../packs")
}

#[test]
fn every_seed_pack_parses_and_configures() {
    let dir = packs_dir();
    let mut seen = Vec::new();
    for entry in std::fs::read_dir(&dir).expect("packs/ exists") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_none_or(|e| e != "toml") {
            continue;
        }
        let pack = ScenarioPack::load(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let graph = pack.graph_config();
        assert!(graph.prefixes > 0, "{}: empty topology", path.display());
        pack.scenario_config()
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        for t in &pack.ground_truth {
            assert!(
                t.day < pack.run.days,
                "{}: ground truth on day {} outside the {}-day run",
                path.display(),
                t.day,
                pack.run.days
            );
        }
        seen.push(pack.meta.name.clone());
    }
    seen.sort();
    assert_eq!(
        seen,
        vec![
            "community-churn",
            "link-failures",
            "paper-1996",
            "quiet",
            "worm-outbreak"
        ],
        "seed pack set drifted"
    );
}

#[test]
fn baseline_pack_reproduces_the_legacy_experiment() {
    let pack = ScenarioPack::load(&packs_dir().join("paper_1996.toml")).expect("load");
    // The anchored derivation: the default pack seed reproduces the
    // pre-pack graph seed and scenario defaults exactly, for the seed
    // pack and for the figure harness's `ScenarioPack::default_at`.
    let scaled = GraphConfig::default_scaled(0.05);
    for pack in [pack, ScenarioPack::default_at(0.05)] {
        let graph = pack.graph_config();
        assert_eq!(
            (graph.seed, graph.providers, graph.prefixes),
            (scaled.seed, scaled.providers, scaled.prefixes)
        );
        let cfg = pack.scenario_config().expect("config");
        let legacy = ScenarioConfig::default_for(graph.prefixes);
        assert_eq!(
            (cfg.seed, cfg.oscillator_count),
            (legacy.seed, legacy.oscillator_count)
        );
    }
}
