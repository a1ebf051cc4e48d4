//! # iri-scenario — data-driven scenario packs and the streaming runner
//!
//! Everything a simulation run needs — topology generator parameters,
//! workload event mix, fault/pathology schedules, monitor placement,
//! duration, detector tuning, memory limits, and expected-incident
//! ground truth — lives in one versioned **scenario pack** file
//! ([`pack`]), parsed strictly (unknown fields are errors naming the
//! field). The [`runner`] executes a pack through `netsim::World` in
//! **streaming mode**: monitor updates are drained every simulated
//! chunk, classified incrementally, and flow through a bounded channel
//! into the live segment store while the incident detectors poll the
//! committed tail — no whole-run buffering, so peak RSS is set by the
//! topology working set, not the simulated duration.
//!
//! Modules:
//! - [`toml`] — minimal offline TOML parser producing `serde::Value`
//! - [`pack`] — the pack schema, strict parse, and TOML emitter
//! - [`faults`] — pack fault schedules → deterministic world injections
//! - [`day`] — `drive_day`, the one loop that runs a scenario day's world
//! - [`runner`] — the streaming `ScenarioRunner` and ground-truth scoring
//! - [`rss`] — `/proc/self/status` memory introspection

pub mod day;
pub mod faults;
pub mod pack;
pub mod rss;
pub mod runner;
pub mod toml;

pub use day::{drive_day, logged_events, DayWindow, DEFAULT_CHUNK_MINUTES};
pub use pack::{
    FaultKind, FaultSpec, LimitsSpec, PackError, PackMeta, RunSpec, ScenarioPack, SyntheticSpec,
    TopologySpec, TruthSpec, WatchSpec, WorkloadSpec, DEFAULT_PACK_SEED, FORMAT_VERSION,
};
pub use runner::{
    chain_dir_for, ChainMode, RunError, RunReport, RunnerOptions, ScenarioRunner, Scorecard,
    SpillSummary,
};
