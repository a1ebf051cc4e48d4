//! Acceptance tests for the causal-provenance layer: in the canonical
//! pathology scenario every monitored UPDATE must carry a known cause, the
//! withdrawal-storm WWDups must be attributed to the 30 s timer grid, and
//! the whole instrumented run must stay deterministic.

use iri_bench::{run_pathology, CauseBreakdown};
use iri_core::taxonomy::UpdateClass;
use iri_netsim::Cause;

const SEED: u64 = 0x1997;

#[test]
fn every_monitored_update_has_a_known_cause() {
    let mut scenario = run_pathology(SEED);
    let monitor = scenario
        .world
        .take_monitor(scenario.route_server)
        .expect("route server is monitored");
    let mut updates = 0;
    for entry in &monitor.updates {
        if matches!(entry.message, iri_bgp::message::Message::Update(_)) {
            updates += 1;
            assert!(
                entry.cause.is_known(),
                "UPDATE at t={} from {} has default cause",
                entry.time_ms,
                entry.peer_asn
            );
        }
    }
    assert!(updates > 50, "scenario produced only {updates} UPDATEs");
}

#[test]
fn wwdups_attribute_to_the_timer_grid() {
    let (classified, causes) = run_pathology(SEED).classified();
    let tally = CauseBreakdown::tally(&classified, &causes);

    let wwdups: u64 = Cause::ALL
        .iter()
        .map(|&c| tally.get(c, UpdateClass::WwDup))
        .sum();
    assert!(wwdups > 100, "storm produced only {wwdups} WWDups");
    let timer_share = tally.attribution(UpdateClass::WwDup, Cause::TimerInterval);
    assert!(
        timer_share >= 0.9,
        "only {:.1}% of WWDups attributed to TimerInterval",
        100.0 * timer_share
    );
    // The CSU tail circuit shows up as its own cause, not as timer noise.
    assert!(tally.cause_total(Cause::CsuDrift) > 0);
}

#[test]
fn instrumented_run_is_deterministic() {
    let mut a = run_pathology(SEED);
    let mut b = run_pathology(SEED);
    let ma = a.world.take_monitor(a.route_server).unwrap();
    let mb = b.world.take_monitor(b.route_server).unwrap();
    assert_eq!(ma.updates.len(), mb.updates.len());
    for (x, y) in ma.updates.iter().zip(&mb.updates) {
        assert_eq!(x.time_ms, y.time_ms);
        assert_eq!(x.peer_asn, y.peer_asn);
        assert_eq!(x.cause, y.cause);
    }
    // Trace timestamps are simulated time, so the ring buffers agree too.
    assert_eq!(a.world.tracer().len(), b.world.tracer().len());
    for (x, y) in a.world.tracer().events().zip(b.world.tracer().events()) {
        assert_eq!(x.time, y.time);
        assert_eq!(x.router, y.router);
    }
    // And the registries saw the same world.
    assert_eq!(
        a.world.registry().counter_value("world.delivered"),
        b.world.registry().counter_value("world.delivered")
    );
}
