//! The scenario-day loop: the one place a day's world is run.
//!
//! [`drive_day`] steps a world built by
//! [`iri_topology::scenario::build_day_world`] in fixed chunks, drains
//! the route server's monitor after each, and classifies with one
//! classifier kept warm through the warmup. [`crate::ScenarioRunner`]
//! streams its output into a store; the figure harness collects it.
//! Chunking bounds the monitor log held at once and does not change the
//! output: the event queue dispatches in time order whatever the step.

use iri_bgp::message::Message;
use iri_core::classifier::ClassifiedEvent;
use iri_core::input::{events_from_update, PeerKey, UpdateEvent};
use iri_core::Classifier;
use iri_netsim::monitor::LoggedUpdate;
use iri_netsim::router::RouterId;
use iri_netsim::world::World;
use iri_netsim::SimTime;
use iri_obs::Cause;
use iri_rib::stats::TableCensus;

/// Default simulated time per chunk, in minutes.
pub const DEFAULT_CHUNK_MINUTES: u32 = 10;

/// How [`drive_day`] steps a day.
#[derive(Debug, Clone, Copy)]
pub struct DayWindow {
    /// Settling time before measured time 0. Its traffic warms the
    /// classifier and is not emitted.
    pub warmup_ms: SimTime,
    /// Measured span after the warmup.
    pub measured_ms: SimTime,
    /// Simulated time per chunk (at least 1 ms).
    pub chunk_ms: SimTime,
}

/// The prefix events inside one logged message: one per announced or
/// withdrawn prefix of an UPDATE, none for any other message.
#[must_use]
pub fn logged_events(logged: &LoggedUpdate) -> Vec<UpdateEvent> {
    let Message::Update(up) = &logged.message else {
        return Vec::new();
    };
    let peer = PeerKey {
        asn: logged.peer_asn,
        addr: logged.peer_addr,
    };
    events_from_update(logged.time_ms, peer, up)
}

/// Runs `world` through `window`, classifying what the route server `rs`
/// logs.
///
/// Each measured event goes to `emit` with its time rebased so the end
/// of the warmup is 0. `after_chunk` runs after each chunk's events are
/// emitted; an error from either stops the day. On success the route
/// server's table is made resident and its census returned.
///
/// # Errors
/// The first error `emit` or `after_chunk` returns.
pub fn drive_day<E>(
    world: &mut World,
    rs: RouterId,
    window: DayWindow,
    mut emit: impl FnMut(ClassifiedEvent, Cause) -> Result<(), E>,
    mut after_chunk: impl FnMut() -> Result<(), E>,
) -> Result<TableCensus, E> {
    let day_end = window.warmup_ms + window.measured_ms;
    let chunk = window.chunk_ms.max(1);
    let mut classifier = Classifier::new();
    world.start();
    let mut t = 0;
    while t < day_end {
        t = (t + chunk).min(day_end);
        world.run_until(t);
        let drained = world
            .monitor_mut(rs)
            .map(|m| std::mem::take(&mut m.updates))
            .unwrap_or_default();
        for logged in &drained {
            for ev in logged_events(logged) {
                let mut c = classifier.classify(&ev);
                if c.time_ms < window.warmup_ms {
                    continue;
                }
                c.time_ms -= window.warmup_ms;
                emit(c, logged.cause)?;
            }
        }
        after_chunk()?;
    }
    world.ensure_resident(rs);
    Ok(iri_rib::stats::census(world.router(rs).loc_rib()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use iri_netsim::{HOUR, MINUTE};
    use iri_topology::asgraph::{AsGraph, GraphConfig};
    use iri_topology::scenario::{build_day_world, ScenarioConfig};
    use std::convert::Infallible;

    /// A tiny graph at `scale` and a light workload for it.
    fn tiny(scale: f64) -> (ScenarioConfig, AsGraph) {
        let graph = AsGraph::generate(&GraphConfig::default_scaled(scale));
        let mut cfg = ScenarioConfig::default_for(graph.prefix_count());
        cfg.warmup_minutes = 10;
        cfg.oscillator_count = 2;
        (cfg, graph)
    }

    /// One full day in `chunk_minutes` chunks: the measured events and
    /// the census.
    fn day(
        cfg: &ScenarioConfig,
        graph: &AsGraph,
        day: u32,
        chunk_minutes: u64,
    ) -> (Vec<(ClassifiedEvent, Cause)>, TableCensus) {
        let (mut world, rs, _) = build_day_world(cfg, graph, day);
        let window = DayWindow {
            warmup_ms: SimTime::from(cfg.warmup_minutes) * MINUTE,
            measured_ms: 24 * HOUR,
            chunk_ms: chunk_minutes * MINUTE,
        };
        let mut events = Vec::new();
        let Ok(census) = drive_day::<Infallible>(
            &mut world,
            rs,
            window,
            |c, cause| {
                events.push((c, cause));
                Ok(())
            },
            || Ok(()),
        );
        (events, census)
    }

    #[test]
    fn day_is_deterministic_rebased_and_chunk_invariant() {
        let (cfg, graph) = tiny(0.01);
        let (events, census) = day(&cfg, &graph, 2, 10);
        assert!(!events.is_empty(), "day must show updates");
        assert!(events.iter().all(|(c, _)| c.time_ms <= 24 * HOUR));
        // A handful of prefixes may end the day mid-flap (withdrawn with
        // the re-announcement scheduled past midnight).
        assert!(census.prefixes <= graph.prefix_count());
        assert!(census.prefixes as f64 >= graph.prefix_count() as f64 * 0.95);
        assert_eq!((events.clone(), census.clone()), day(&cfg, &graph, 2, 10));
        assert_eq!((events, census), day(&cfg, &graph, 2, 24 * 60 + 10));
    }

    #[test]
    fn weekend_day_is_lighter_than_weekday() {
        let (mut cfg, graph) = tiny(0.01);
        cfg.oscillator_count = 0; // compare exogenous workload only
        let wed = day(&cfg, &graph, 2, 10).0.len();
        let sun = day(&cfg, &graph, 6, 10).0.len();
        assert!(
            (sun as f64) < (wed as f64) * 0.9,
            "weekend {sun} must be lighter than weekday {wed}"
        );
    }

    #[test]
    fn multihomed_census_grows_with_day() {
        let (mut cfg, graph) = tiny(0.02);
        cfg.base_events_per_slot = 0.5;
        cfg.oscillator_count = 0;
        let early = day(&cfg, &graph, 0, 60).1.multihomed;
        let late = day(&cfg, &graph, 200, 60).1.multihomed;
        assert!(late > early, "{late} vs {early}");
    }
}
