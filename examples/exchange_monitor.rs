//! Exchange-point monitor: replays a simulated day at Mae-East slot by
//! slot, printing a live-style instability ticker — the operator's view
//! the Routing Arbiter statistics pages gave in 1996.
//!
//! ```sh
//! cargo run --release --example exchange_monitor -- --scale 0.05
//! ```

use iri_bench::summary::classified_day;
use iri_bench::{arg_f64, arg_u64, ExperimentConfig};
use iri_core::stats::bins::{instability_filter, ten_minute_bins};
use iri_core::stats::breakdown::breakdown;
use iri_core::stats::daily::provider_daily_totals;
use iri_core::taxonomy::UpdateClass;
use iri_topology::events::Calendar;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = arg_f64(&args, "--scale", 0.05);
    let day = arg_u64(&args, "--day", 45) as u32;

    let (cfg, graph) = ExperimentConfig::at_scale(scale);
    let (month, dom) = Calendar::month_day(day);
    let weekday = Calendar::weekday(day);
    println!("=== Mae-East monitor — {month} {dom}, 1996 ({weekday:?}), scale {scale} ===\n");

    // The classifier stays warm across the settling period, as for every
    // figure, so a withdrawal early in the day is judged against routes
    // announced before midnight.
    let (classified, _causes, census) = classified_day(&cfg.scenario, &graph, day);
    let bins = ten_minute_bins(&classified, instability_filter);
    let all_bins = ten_minute_bins(&classified, |_| true);

    // Hourly ticker.
    println!("hour  instability  all-updates  bar");
    for h in 0..24 {
        let inst: u64 = bins[h * 6..(h + 1) * 6].iter().sum();
        let all: u64 = all_bins[h * 6..(h + 1) * 6].iter().sum();
        let bar_len = (all / 400).min(48) as usize;
        println!("{h:>4}  {inst:>11}  {all:>11}  {}", "#".repeat(bar_len));
    }

    // Summary like the Merit IPMA pages.
    println!("\n--- daily summary ---");
    println!("prefix events: {}", classified.len());
    let counts = breakdown(&classified);
    let mut per_class: Vec<(UpdateClass, u64)> = UpdateClass::ALL
        .iter()
        .map(|&c| (c, counts.get(c)))
        .collect();
    per_class.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
    for (c, n) in per_class {
        if n > 0 {
            println!("  {:<14} {:>8}", c.label(), n);
        }
    }
    println!("\n--- per-provider totals (Table 1 view) ---");
    for row in provider_daily_totals(&classified) {
        let name = graph
            .providers
            .iter()
            .find(|p| p.asn == row.asn)
            .map_or_else(|| row.asn.to_string(), |p| p.name.clone());
        println!(
            "  {:<16} announce {:>7}  withdraw {:>7}  unique {:>5}",
            name, row.announce, row.withdraw, row.unique_prefixes
        );
    }
    println!(
        "\ntable: {} prefixes, {} multihomed ({:.0}%)",
        census.prefixes,
        census.multihomed,
        100.0 * census.multihomed_fraction()
    );
    assert!(!classified.is_empty());
}
