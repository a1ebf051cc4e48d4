//! The canonical observability pathology scenario, shared by the
//! `tracescope` CLI and the causality integration tests.
//!
//! One route-server exchange with three provider profiles, each driving a
//! distinct root cause from the paper's §4 catalogue:
//!
//! - **AS 690** — the pathological vendor profile *with the withdrawal
//!   storm bug*: every second flush window it re-blasts blind withdrawals
//!   for everything it believes withdrawn. After its prefixes are
//!   withdrawn, the storm turns the 30 s timer grid into a WWDup
//!   metronome, all tagged [`Cause::TimerInterval`].
//! - **AS 701** — pathological, fed by a customer tail circuit with a
//!   CSU clock-drift fault: its prefixes flap with the circuit, tagged
//!   [`Cause::CsuDrift`].
//! - **AS 1239** — well-behaved, originating stable prefixes
//!   ([`Cause::Origination`] traffic only).
//!
//! The run is deterministic for a given seed, with observability enabled
//! (trace ring buffer + metrics registry).

use iri_bgp::types::{Asn, Prefix};
use iri_core::classifier::{ClassifiedEvent, Classifier};
use iri_netsim::{CsuFault, RouterConfig, RouterId, World, MINUTE, SECOND};
use iri_obs::Cause;
use iri_scenario::logged_events;
use std::net::Ipv4Addr;

/// Handles into the built scenario.
pub struct ObsScenario {
    /// The world, already run to [`ObsScenario::END`].
    pub world: World,
    /// The monitored route server.
    pub route_server: RouterId,
    /// The storm-bugged router (AS 690).
    pub storm_router: RouterId,
    /// The CSU-afflicted router (AS 701).
    pub csu_router: RouterId,
    /// The well-behaved router (AS 1239).
    pub quiet_router: RouterId,
}

impl ObsScenario {
    /// Simulated duration of the run.
    pub const END: u64 = 30 * MINUTE;

    /// The route server's log, classified, with each event's cause
    /// aligned index for index (every prefix event inside one UPDATE
    /// inherits that UPDATE's cause).
    #[must_use]
    pub fn classified(&self) -> (Vec<ClassifiedEvent>, Vec<Cause>) {
        let monitor = self
            .world
            .monitor(self.route_server)
            .expect("route server is monitored");
        let mut classifier = Classifier::new();
        monitor
            .updates
            .iter()
            .flat_map(|u| logged_events(u).into_iter().map(move |ev| (ev, u.cause)))
            .map(|(ev, cause)| (classifier.classify(&ev), cause))
            .unzip()
    }
}

/// Number of prefixes behind the storm-bugged router.
pub const STORM_PREFIXES: u32 = 40;
/// Number of prefixes behind the CSU tail circuit.
pub const CSU_PREFIXES: u32 = 20;
/// Number of stable prefixes from the well-behaved router.
pub const QUIET_PREFIXES: u32 = 10;

/// Builds and runs the pathology scenario for 30 simulated minutes with
/// observability on.
#[must_use]
pub fn run_pathology(seed: u64) -> ObsScenario {
    let mut world = World::new(seed);
    let rs = world.add_router(RouterConfig::route_server(
        "RS",
        Asn(237),
        Ipv4Addr::new(192, 41, 177, 250),
    ));
    let mut storm_cfg =
        RouterConfig::pathological("Storm", Asn(690), Ipv4Addr::new(192, 41, 177, 1));
    storm_cfg.withdrawal_storm = Some(2);
    let storm = world.add_router(storm_cfg);
    let csu = world.add_router(RouterConfig::pathological(
        "Csu",
        Asn(701),
        Ipv4Addr::new(192, 41, 177, 2),
    ));
    let quiet = world.add_router(RouterConfig::well_behaved(
        "Quiet",
        Asn(1239),
        Ipv4Addr::new(192, 41, 177, 3),
    ));
    world.connect(storm, rs, 5);
    world.connect(csu, rs, 5);
    world.connect(quiet, rs, 5);
    world.attach_monitor(rs);
    world.enable_obs(1 << 16);

    // AS 690: announce a block, then withdraw it all — from then on the
    // storm bug re-withdraws it every second flush window, forever.
    for i in 0..STORM_PREFIXES {
        let pfx = Prefix::from_raw(0xc0a8_0000 | (i << 8), 24);
        world.schedule_originate(SECOND, storm, pfx);
        world.schedule_withdraw(2 * MINUTE, storm, pfx);
    }
    // AS 701: a CSU-afflicted customer tail circuit flaps its block on the
    // 30 s clock-drift beat.
    let csu_prefixes: Vec<Prefix> = (0..CSU_PREFIXES)
        .map(|i| Prefix::from_raw(0xcb00_0000 | (i << 8), 24))
        .collect();
    world.add_access_link(csu, csu_prefixes, Some(CsuFault::beat_30s(40 * SECOND)));
    // AS 1239: stable originations only.
    for i in 0..QUIET_PREFIXES {
        let pfx = Prefix::from_raw(0xac10_0000 | (i << 8), 24);
        world.schedule_originate(SECOND, quiet, pfx);
    }

    world.start();
    world.run_until(ObsScenario::END);
    ObsScenario {
        world,
        route_server: rs,
        storm_router: storm,
        csu_router: csu,
        quiet_router: quiet,
    }
}

/// Per-(cause, class) tally over a classified event stream.
#[derive(Debug, Default, Clone)]
pub struct CauseBreakdown {
    /// `counts[cause.index()][class as usize]`.
    pub counts: Vec<[u64; iri_core::taxonomy::UpdateClass::COUNT]>,
}

impl CauseBreakdown {
    /// Tallies classified events against their aligned cause sidecar.
    #[must_use]
    pub fn tally(classified: &[iri_core::classifier::ClassifiedEvent], causes: &[Cause]) -> Self {
        let mut counts = vec![[0u64; iri_core::taxonomy::UpdateClass::COUNT]; Cause::COUNT];
        for (ev, cause) in classified.iter().zip(causes) {
            counts[cause.index()][ev.class as usize] += 1;
        }
        CauseBreakdown { counts }
    }

    /// Total events tagged with `cause`.
    #[must_use]
    pub fn cause_total(&self, cause: Cause) -> u64 {
        self.counts[cause.index()].iter().sum()
    }

    /// Events of `class` attributed to `cause`.
    #[must_use]
    pub fn get(&self, cause: Cause, class: iri_core::taxonomy::UpdateClass) -> u64 {
        self.counts[cause.index()][class as usize]
    }

    /// Fraction of `class` events attributed to `cause` (0.0 when the
    /// class never occurred).
    #[must_use]
    pub fn attribution(&self, class: iri_core::taxonomy::UpdateClass, cause: Cause) -> f64 {
        let class_total: u64 = self.counts.iter().map(|row| row[class as usize]).sum();
        if class_total == 0 {
            0.0
        } else {
            self.get(cause, class) as f64 / class_total as f64
        }
    }
}
