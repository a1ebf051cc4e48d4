//! Shared figure-binary harness: argument parsing, the banner, the scaled
//! topology, and the `--store` day cache — the boilerplate every
//! `fig*`/`table1` binary used to repeat, factored into one place so the
//! segment-store hook applies to all of them at once.

use crate::store_cache::summarize_days_cached;
use crate::summary::{summarize_day, DaySummary, ExperimentConfig};
use crate::{arg_f64, arg_str, banner};
use iri_topology::asgraph::AsGraph;
use iri_topology::scenario::ScenarioConfig;
use std::path::PathBuf;

/// Everything a figure binary starts from.
pub struct Experiment {
    /// Raw command-line arguments (for figure-specific flags).
    pub args: Vec<String>,
    /// Scale factor relative to the 1996 Internet.
    pub scale: f64,
    /// Experiment configuration at that scale.
    pub cfg: ExperimentConfig,
    /// The generated provider/customer topology.
    pub graph: AsGraph,
    /// Segment-store day cache directory (`--store <dir>`), if any.
    pub store_dir: Option<PathBuf>,
}

/// The lightweight half of [`experiment`] for binaries that build their
/// own world (e.g. `fig1`): parses the arguments and prints the banner.
#[must_use]
pub fn experiment_args(title: &str, paper: &str) -> Vec<String> {
    let args: Vec<String> = std::env::args().collect();
    banner(title, paper);
    args
}

/// Standard figure-binary preamble: banner, `--scale` (defaulting to
/// `default_scale`), `--store <dir>`, and the scaled topology.
#[must_use]
pub fn experiment(title: &str, paper: &str, default_scale: f64) -> Experiment {
    let args = experiment_args(title, paper);
    let scale = arg_f64(&args, "--scale", default_scale);
    let store_dir = arg_str(&args, "--store").map(PathBuf::from);
    let (cfg, graph) = ExperimentConfig::at_scale(scale);
    Experiment {
        args,
        scale,
        cfg,
        graph,
        store_dir,
    }
}

impl Experiment {
    /// Runs `days` of `scenario` on `graph` in parallel — the experiment's
    /// own `cfg.scenario` and `graph`, or a customized pair (for binaries
    /// like `table1` that inject incident providers) — through the store
    /// cache when `--store` was given. The cache fingerprints the scenario
    /// and topology, so customized runs never collide with the default
    /// ones in the same directory.
    #[must_use]
    pub fn run_days_in(
        &self,
        scenario: &ScenarioConfig,
        graph: &AsGraph,
        days: impl Iterator<Item = u32>,
    ) -> Vec<DaySummary> {
        let days: Vec<u32> = days.collect();
        match &self.store_dir {
            Some(dir) => {
                let (summaries, hit) =
                    summarize_days_cached(scenario, graph, self.cfg.threads, &days, dir)
                        .unwrap_or_else(|e| panic!("store cache at {}: {e}", dir.display()));
                println!(
                    "[store] {} at {} ({} days)",
                    if hit {
                        "cache hit — replayed"
                    } else {
                        "cache miss — simulated + archived"
                    },
                    dir.display(),
                    days.len()
                );
                summaries
            }
            None => {
                let scenario = scenario.clone();
                iri_pipeline::par_map(days, self.cfg.threads, |day| {
                    summarize_day(&scenario, graph, day)
                })
                .expect("simulation worker panicked")
                .0
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_days_parallel_matches_serial() {
        let (mut cfg, graph) = ExperimentConfig::at_scale(0.01);
        cfg.scenario.warmup_minutes = 10;
        cfg.threads = 3;
        let ex = Experiment {
            args: Vec::new(),
            scale: cfg.scale,
            cfg,
            graph,
            store_dir: None,
        };
        let par = ex.run_days_in(&ex.cfg.scenario, &ex.graph, 0..4u32);
        let days: Vec<(u32, u64)> = par.iter().map(|s| (s.day, s.total_events)).collect();
        let serial: Vec<(u32, u64)> = (0..4u32)
            .map(|d| {
                (
                    d,
                    summarize_day(&ex.cfg.scenario, &ex.graph, d).total_events,
                )
            })
            .collect();
        assert_eq!(days, serial, "parallel days must match serial ones");
    }
}
