//! Figure 10: number of multihomed prefixes, April–December 1996.
//!
//! Shape targets: linear growth; a spike at the end-of-May upgrade; more
//! than 25 % of prefixes multihomed by the end of the period. The series
//! comes from the growth model, cross-validated against route-server
//! censuses from sampled simulated days.

use iri_bench::{arg_u64, experiment};
use iri_topology::growth::{linear_fit, multihomed_series};

fn main() {
    let ex = experiment(
        "Figure 10 — multihomed prefixes (Apr–Dec 1996)",
        ">25% of prefixes multihomed; growth at best linear; end-of-May \
         spike from the upgrade incident",
        0.05,
    );
    let days = arg_u64(&ex.args, "--days", 270) as u32; // Apr–Dec
    let graph = &ex.graph;
    let series = multihomed_series(graph, days);
    let total = graph.prefix_count();

    // Print a weekly-sampled series with a sparkline.
    let max = *series.iter().max().unwrap_or(&1);
    print!("series: ");
    for v in series.iter().step_by(7) {
        let level = (v * 9 / max.max(1)) as u32;
        print!("{}", char::from_digit(level, 10).unwrap_or('9'));
    }
    println!();
    println!(
        "start {} → end {} multihomed of {} prefixes ({:.1}% → {:.1}%)",
        series.first().unwrap(),
        series.last().unwrap(),
        total,
        100.0 * *series.first().unwrap() as f64 / total as f64,
        100.0 * *series.last().unwrap() as f64 / total as f64,
    );

    let (slope, r2) = linear_fit(&series);
    println!("linear fit: slope {slope:.3} prefixes/day, R² = {r2:.3}");
    assert!(slope > 0.0, "growth must be positive");
    assert!(r2 > 0.85, "growth must be near-linear (R² {r2:.3})");
    let final_frac = *series.last().unwrap() as f64 / total as f64;
    assert!(
        final_frac > 0.25,
        "more than 25% multihomed by December (got {final_frac:.2})"
    );
    assert!(
        series[58] > series[55] && series[58] > series[66],
        "end-of-May spike must be present"
    );

    // Cross-validate against simulated route-server censuses.
    let check_days = [10u32, 100, 200];
    let summaries = ex.run_days_in(&ex.cfg.scenario, &ex.graph, check_days.iter().copied());
    println!("\ncross-check against simulated RS table censuses:");
    for s in &summaries {
        let model = graph.multihomed_count(s.day);
        println!(
            "  day {:>3}: census {:>5} vs model {:>5}",
            s.day, s.census.multihomed, model
        );
        let err = (s.census.multihomed as f64 - model as f64).abs() / model.max(1) as f64;
        assert!(
            err < 0.15,
            "census and growth model must agree within 15% (day {}: {err:.2})",
            s.day
        );
    }
    println!("\nOK — shape matches Figure 10.");
}
