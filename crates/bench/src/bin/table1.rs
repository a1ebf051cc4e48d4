//! Table 1: per-ISP update totals for one day, including a pathological
//! incident provider.
//!
//! Paper (AADS, Feb 1 1997): most providers withdraw an order of magnitude
//! more than they announce; ISP-I announced 259 prefixes but transmitted
//! 2.4 M withdrawals for 14,112 prefixes. The shape targets: (a) stateless-
//! vendor ISPs show withdrawal:announcement ratios ≫ 1, (b) the incident
//! ISP dominates the day with a ratio in the thousands, (c) well-behaved
//! ISPs sit near parity.

use iri_bench::{arg_u64, experiment};
use iri_core::report::render_table1;
use iri_topology::scenario::IncidentSpec;

fn main() {
    let ex = experiment(
        "Table 1 — per-ISP update totals for one day",
        "ISP-I: announce 259, withdraw 2,479,023, unique 14,112; several \
         ISPs withdraw 10x+ what they announce; quiet ISPs near parity",
        0.05,
    );
    let day = arg_u64(&ex.args, "--day", 306) as u32; // Feb 1 1997 ≈ day 306

    let mut graph = ex.graph.clone();
    let mut scenario = ex.cfg.scenario.clone();
    // The incident provider — the paper's ISP-I: a *small* stateless ISP
    // with almost nothing of its own to announce, whose misconfigured
    // router echoes and re-echoes withdrawals for everyone else's
    // flapping prefixes all day.
    let mut alloc_block = iri_topology::prefixes::PrefixAllocator::new();
    for _ in 0..=graph.providers.len() {
        alloc_block.provider_block();
    }
    let incident_provider = graph.providers.len();
    graph.providers.push(iri_topology::asgraph::ProviderSpec {
        name: "Provider-I".to_owned(),
        asn: iri_bgp::types::Asn(100 + incident_provider as u32),
        pathological: true,
        block: alloc_block.provider_block(),
        weight: 0.01,
        instability_factor: 1.0,
    });
    scenario.incident = Some(IncidentSpec {
        provider: incident_provider,
        prefixes: 0, // no oscillators of its own; the echoes are the storm
    });

    let summary = ex
        .run_days_in(&scenario, &graph, std::iter::once(day))
        .pop()
        .expect("one day in, one summary out");
    let names = |asn: iri_bgp::types::Asn| -> String {
        graph.providers.iter().find(|p| p.asn == asn).map_or_else(
            || asn.to_string(),
            |p| {
                let tag = if p.pathological { " [stateless]" } else { "" };
                format!("{}{}", p.name, tag)
            },
        )
    };
    println!("{}", render_table1(&summary.provider_rows, &names));

    // Shape assertions.
    let incident_asn = graph.providers[incident_provider].asn;
    let incident_row = summary
        .provider_rows
        .iter()
        .find(|r| r.asn == incident_asn)
        .expect("incident provider visible");
    let max_withdraw = summary
        .provider_rows
        .iter()
        .map(|r| r.withdraw)
        .max()
        .unwrap_or(0);
    println!(
        "incident provider {}: W/A ratio {:.0}, unique prefixes {}",
        names(incident_asn),
        incident_row.withdraw_ratio(),
        incident_row.unique_prefixes
    );
    assert_eq!(
        incident_row.withdraw, max_withdraw,
        "the incident ISP must dominate withdrawals"
    );
    assert!(
        incident_row.withdraw_ratio() > 10.0,
        "incident ISP must withdraw an order of magnitude more than it announces"
    );
    let stateless_ratio_high = summary
        .provider_rows
        .iter()
        .filter(|r| {
            graph
                .providers
                .iter()
                .any(|p| p.asn == r.asn && p.pathological)
        })
        .filter(|r| r.withdraw_ratio() > 2.0)
        .count();
    println!(
        "stateless providers with W/A > 2: {stateless_ratio_high} \
         (the paper's vendor correlation)"
    );
    println!("\nOK — shape matches Table 1.");
}
