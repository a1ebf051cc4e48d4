//! # iri-bench — experiment harness
//!
//! Regenerates every table and figure of *Internet Routing Instability*.
//! One binary per artefact (`table1`, `fig1` … `fig10`, `headline`,
//! `ablations`), all built on the shared pipeline here:
//!
//! ```text
//! scenario pack → build_day_world → iri_scenario::drive_day
//!        → classified stream → per-day summary
//! ```
//!
//! `drive_day` is the same day loop the streaming `ScenarioRunner`
//! uses; here its classified stream is collected in memory per day.
//! Multi-day experiments run days in parallel through `iri-pipeline`'s
//! ordered parallel map ([`Experiment::run_days_in`]); each simulated
//! day is independent (its own seeded world), so results are
//! deterministic regardless of scheduling.

pub mod cli;
pub mod engine;
pub mod experiment;
pub mod genlog;
pub mod obs_scenario;
pub mod report;
pub mod store_cache;
pub mod summary;

pub use cli::{
    arg_f64, arg_flag, arg_str, arg_u64, banner, exit_store_error, print_scan_stats, QueryFilter,
    EXIT_USAGE,
};
pub use engine::{
    AnalysisEngine, EngineError, EngineInput, EngineOutput, PipelineEngine, SequentialEngine,
    StoreReplayEngine,
};
pub use experiment::{experiment, experiment_args, Experiment};
pub use genlog::{write_synthetic_log, GenLogConfig};
pub use obs_scenario::{run_pathology, CauseBreakdown, ObsScenario};
pub use report::{
    report_from_analysis, report_from_events, report_from_store, report_from_store_query,
    UpdateReport,
};
pub use store_cache::summarize_days_cached;
pub use summary::{summarize_day, DaySummary, ExperimentConfig};

use iri_core::input::UpdateEvent;
use iri_netsim::monitor::LoggedUpdate;

/// Converts monitor log entries into the analysis crate's prefix events.
#[must_use]
pub fn logged_to_events(log: &[LoggedUpdate]) -> Vec<UpdateEvent> {
    log.iter().flat_map(iri_scenario::logged_events).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn logged_to_events_skips_keepalives() {
        use iri_bgp::message::{Message, Update};
        use iri_bgp::types::Asn;
        use iri_obs::Cause;
        use std::net::Ipv4Addr;
        let log = vec![
            LoggedUpdate {
                time_ms: 5,
                peer_asn: Asn(701),
                peer_addr: Ipv4Addr::new(1, 1, 1, 1),
                message: Message::Keepalive,
                cause: Cause::Unknown,
            },
            LoggedUpdate {
                time_ms: 6,
                peer_asn: Asn(701),
                peer_addr: Ipv4Addr::new(1, 1, 1, 1),
                message: Message::Update(Update::withdraw(["10.0.0.0/8".parse().unwrap()])),
                cause: Cause::LinkFlap,
            },
        ];
        let events = logged_to_events(&log);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].time_ms, 6);
    }
}
