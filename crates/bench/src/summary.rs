//! Per-day experiment summaries: everything any figure needs, reduced
//! inside the per-day worker so multi-month runs stay small in memory.

use iri_bgp::types::Asn;
use iri_core::classifier::ClassifiedEvent;
use iri_core::stats::affected::{affected_day, affected_tuples, AffectedDay};
use iri_core::stats::bins::{instability_filter, ten_minute_bins, SLOTS_PER_DAY};
use iri_core::stats::breakdown::{breakdown, ClassBreakdown};
use iri_core::stats::cdf::{prefix_as_cdf, PrefixAsCdf};
use iri_core::stats::contribution::{contribution_points, ContributionPoint};
use iri_core::stats::daily::{provider_daily_totals, ProviderDailyRow};
use iri_core::stats::interarrival::{day_interarrival, DayInterarrival};
use iri_core::stats::persistence::{episodes, persistence_below};
use iri_core::taxonomy::UpdateClass;
use iri_netsim::{SimTime, HOUR, MINUTE};
use iri_obs::Cause;
use iri_scenario::{drive_day, DayWindow, ScenarioPack, DEFAULT_CHUNK_MINUTES};
use iri_topology::asgraph::AsGraph;
use iri_topology::scenario::{build_day_world, ScenarioConfig};
use std::collections::BTreeMap;
use std::convert::Infallible;

/// Configuration for a multi-day experiment.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Scale factor relative to the 1996 Internet (1.0 = 42 000 prefixes,
    /// 60 Mae-East providers).
    pub scale: f64,
    /// The scenario (workload) configuration.
    pub scenario: ScenarioConfig,
    /// Worker threads for multi-day runs.
    pub threads: usize,
}

impl ExperimentConfig {
    /// Default laptop-scale experiment at `scale`, derived from
    /// [`ScenarioPack::default_at`] — the same single source of truth
    /// `run_scenario --pack` uses, anchored so these defaults are
    /// bit-for-bit the historical ones.
    #[must_use]
    pub fn at_scale(scale: f64) -> (Self, AsGraph) {
        let pack = ScenarioPack::default_at(scale);
        let graph = AsGraph::generate(&pack.graph_config());
        let scenario = pack
            .scenario_config()
            .expect("default pack has a valid exchange");
        (
            ExperimentConfig {
                scale,
                scenario,
                threads: std::thread::available_parallelism()
                    .map(std::num::NonZeroUsize::get)
                    .unwrap_or(4)
                    .min(16),
            },
            graph,
        )
    }
}

/// Everything the figures need from one simulated day.
pub struct DaySummary {
    /// Day index (0 = Mon 1996-04-01).
    pub day: u32,
    /// Total prefix events seen at the monitor during the measured day.
    pub total_events: u64,
    /// Class breakdown.
    pub breakdown: ClassBreakdown,
    /// Ten-minute instability bins (AADiff+WADiff+WADup).
    pub instability_bins: [u64; SLOTS_PER_DAY],
    /// Table 1 rows.
    pub provider_rows: Vec<ProviderDailyRow>,
    /// Per-class Prefix+AS distributions (four figure categories).
    pub cdfs: Vec<PrefixAsCdf>,
    /// Per-class inter-arrival distributions (four figure categories).
    pub interarrivals: Vec<DayInterarrival>,
    /// Figure 6 points (four figure categories, flattened).
    pub contribution: Vec<ContributionPoint>,
    /// Figure 9 data.
    pub affected: AffectedDay,
    /// Figure 9 upper band (prefix+AS tuples touched).
    pub affected_tuples: f64,
    /// Fraction of multi-event episodes shorter than 5 minutes.
    pub persistence_under_5min: f64,
    /// Routing-table census at the route server.
    pub census: iri_rib::stats::TableCensus,
    /// Peak updates/second observed in any 1-second window.
    pub peak_events_per_sec: u64,
}

/// Per-provider (peer) share of the routing table on `day`, derived from
/// the graph (primary homing decides the best path at the route server).
#[must_use]
pub fn provider_table_shares(graph: &AsGraph, _day: u32) -> BTreeMap<Asn, f64> {
    let mut counts: BTreeMap<Asn, usize> = BTreeMap::new();
    let mut total = 0usize;
    for c in &graph.customers {
        let asn = graph.providers[c.primary].asn;
        *counts.entry(asn).or_default() += c.prefixes.len();
        total += c.prefixes.len();
    }
    for p in &graph.providers {
        counts.entry(p.asn).or_default();
    }
    counts
        .into_iter()
        .map(|(asn, n)| (asn, n as f64 / total.max(1) as f64))
        .collect()
}

/// Runs one day's simulation and classification through
/// [`drive_day`], returning the measured day's classified events (times
/// relative to measurement start), their aligned causal provenance tags,
/// and the route-server table census.
///
/// The classifier is warmed on the settling period too, so per-pair
/// state is correct at measurement start — the 1996 instrumentation
/// observed continuously, so a withdrawal at 00:01 for a route announced
/// the previous evening is a legitimate Withdraw, not a spurious WWDup.
#[must_use]
pub fn classified_day(
    cfg: &ScenarioConfig,
    graph: &AsGraph,
    day: u32,
) -> (
    Vec<ClassifiedEvent>,
    Vec<Cause>,
    iri_rib::stats::TableCensus,
) {
    let (mut world, rs, _) = build_day_world(cfg, graph, day);
    let window = DayWindow {
        warmup_ms: SimTime::from(cfg.warmup_minutes) * MINUTE,
        measured_ms: 24 * HOUR,
        chunk_ms: SimTime::from(DEFAULT_CHUNK_MINUTES) * MINUTE,
    };
    let mut classified = Vec::new();
    let mut causes = Vec::new();
    let Ok(census) = drive_day::<Infallible>(
        &mut world,
        rs,
        window,
        |c, cause| {
            classified.push(c);
            causes.push(cause);
            Ok(())
        },
        || Ok(()),
    );
    (classified, causes, census)
}

/// Runs one day end to end and reduces it to a [`DaySummary`].
#[must_use]
pub fn summarize_day(cfg: &ScenarioConfig, graph: &AsGraph, day: u32) -> DaySummary {
    let (classified, _causes, census) = classified_day(cfg, graph, day);
    reduce_day(day, &classified, census, graph)
}

/// Reduces one measured day's classified events to a [`DaySummary`] —
/// the pure statistics half of [`summarize_day`], shared with the
/// store-backed day cache which replays `classified` from disk.
#[must_use]
pub fn reduce_day(
    day: u32,
    classified: &[ClassifiedEvent],
    census: iri_rib::stats::TableCensus,
    graph: &AsGraph,
) -> DaySummary {
    let shares = provider_table_shares(graph, day);
    let mut contribution = Vec::new();
    let mut cdfs = Vec::new();
    let mut interarrivals = Vec::new();
    for class in UpdateClass::FIGURE_CATEGORIES {
        contribution.extend(contribution_points(classified, class, &shares, day));
        cdfs.push(prefix_as_cdf(classified, class));
        interarrivals.push(day_interarrival(classified, class));
    }

    // Peak 1-second rate (the paper: "bursts of updates at rates exceeding
    // 100 prefix announcements a second").
    let mut per_sec: BTreeMap<u64, u64> = BTreeMap::new();
    for e in classified {
        *per_sec.entry(e.time_ms / 1000).or_default() += 1;
    }
    let peak_events_per_sec = per_sec.values().copied().max().unwrap_or(0);

    let eps = episodes(classified, 5 * 60 * 1000);

    DaySummary {
        day,
        total_events: classified.len() as u64,
        breakdown: breakdown(classified),
        instability_bins: ten_minute_bins(classified, instability_filter),
        provider_rows: provider_daily_totals(classified),
        cdfs,
        interarrivals,
        contribution,
        affected: affected_day(classified, census.prefixes.max(1), day),
        affected_tuples: affected_tuples(
            classified,
            census.prefixes.max(1), // tuples ≈ prefixes at the RS view
        ),
        persistence_under_5min: persistence_below(&eps, 5 * 60 * 1000),
        census,
        peak_events_per_sec,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_shares_sum_to_one() {
        let (_, graph) = ExperimentConfig::at_scale(0.02);
        let shares = provider_table_shares(&graph, 0);
        let total: f64 = shares.values().sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert_eq!(shares.len(), graph.providers.len());
    }
}
