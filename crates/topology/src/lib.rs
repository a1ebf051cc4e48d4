//! # iri-topology — Internet topology and workload generation
//!
//! Everything exogenous to the routers: who the providers and customers
//! are, how address space was allocated in the CIDR-transition Internet of
//! 1996, when links fail, and how all of that follows the human calendar.
//!
//! - [`asgraph`] — tiered provider/customer graphs with Zipf-ish table
//!   shares (the paper: "the Internet routing tables are dominated by six
//!   to eight ISPs") and growing multihoming.
//! - [`prefixes`] — CIDR blocks per provider plus the unaggregatable
//!   pre-CIDR "swamp".
//! - [`events`] — the usage-correlated failure intensity model behind
//!   Figures 3–5: diurnal bell, weekday/weekend cycle, the 10 am
//!   maintenance line, Saturday spikes, the summer lull, a linear growth
//!   trend, and the end-of-May infrastructure-upgrade incident.
//! - [`growth`] — the linear multihoming growth of Figure 10.
//! - [`scenario`] — `build_day_world`, which turns a graph + calendar day
//!   into an `iri-netsim` world with the day's events scheduled.

#![warn(missing_docs)]

pub mod asgraph;
pub mod events;
pub mod growth;
pub mod prefixes;
pub mod scenario;

pub use asgraph::{AsGraph, CustomerSpec, GraphConfig, ProviderSpec};
pub use events::{Calendar, UsageModel, Weekday};
pub use scenario::ScenarioConfig;
