//! Figure 3: instability density grid (day × 10-minute cells, detrended
//! log threshold).
//!
//! Shape targets: midnight–6 am sparse; noon–midnight dense; weekend
//! vertical stripes light; bold stripes at the end-of-May upgrade incident;
//! a horizontal dense line at the 10 am maintenance window; the threshold
//! rises with the linear growth trend (paper: 345 → 770 updates per
//! 10-minute aggregate from March to September).

use iri_bench::{arg_u64, experiment};
use iri_core::stats::density::density_grid;
use iri_topology::events::Calendar;

fn main() {
    let ex = experiment(
        "Figure 3 — instability density (10-minute aggregates, detrended log)",
        "quiet nights, dense business hours, light weekends, bold incident \
         stripes end of May, 10am maintenance line, linear growth",
        0.03,
    );
    let days = arg_u64(&ex.args, "--days", 161) as u32; // 23 weeks: Apr 1 – mid-Sep
    let start = arg_u64(&ex.args, "--start", 0) as u32; // Apr 1

    // The 1996 collectors lost whole days ("our data collection
    // infrastructure failed for the day…"); model the white columns with a
    // deterministic ~6% day-loss process and skip simulating those days.
    let lost = |d: u32| d.wrapping_mul(2_654_435_761) % 17 == 3;
    let run_list: Vec<u32> = (start..start + days).filter(|&d| !lost(d)).collect();
    let summaries = ex.run_days_in(&ex.cfg.scenario, &ex.graph, run_list.iter().copied());
    let mut day_bins: Vec<Option<[u64; 144]>> = Vec::with_capacity(days as usize);
    let mut si = 0usize;
    for d in start..start + days {
        if lost(d) {
            day_bins.push(None);
        } else {
            day_bins.push(Some(summaries[si].instability_bins));
            si += 1;
        }
    }
    let grid = density_grid(&day_bins, 0.25);

    println!("{}", grid.render_ascii());
    println!(
        "(columns = days starting {:?} {}, rows = time of day, top = midnight→)",
        Calendar::month_day(start),
        start
    );
    println!("log-trend slope per 10-min sample: {:+.2e}", grid.log_slope);
    assert!(
        grid.log_slope > 0.0,
        "instability must grow over the seven months (slope {:+.2e})",
        grid.log_slope
    );
    println!(
        "raw threshold: {:.0} updates/10min (first day) → {:.0} (last day)",
        grid.raw_threshold_per_day.first().copied().unwrap_or(0.0),
        grid.raw_threshold_per_day.last().copied().unwrap_or(0.0),
    );

    // Shape checks.
    let night = grid.dense_fraction_slots(0..36); // 00:00–06:00
    let busy = grid.dense_fraction_slots(72..144); // 12:00–24:00
    println!("dense fraction: night {night:.2} vs noon–midnight {busy:.2}");
    assert!(busy > night, "business hours must be denser than night");

    let mut weekday = (0.0, 0);
    let mut weekend = (0.0, 0);
    for (col, d) in (start..start + days).enumerate() {
        if Calendar::is_upgrade_incident(d) || day_bins[col].is_none() {
            continue;
        }
        let f = grid.dense_fraction(col..col + 1);
        if Calendar::weekday(d).is_weekend() {
            weekend = (weekend.0 + f, weekend.1 + 1);
        } else {
            weekday = (weekday.0 + f, weekday.1 + 1);
        }
    }
    let wd = weekday.0 / weekday.1.max(1) as f64;
    let we = weekend.0 / weekend.1.max(1) as f64;
    println!("dense fraction: weekdays {wd:.2} vs weekends {we:.2}");
    assert!(wd > we, "weekends must be lighter");

    // Incident stripe.
    let incident_days: Vec<usize> = (start..start + days)
        .enumerate()
        .filter(|&(col, d)| Calendar::is_upgrade_incident(d) && day_bins[col].is_some())
        .map(|(col, _)| col)
        .collect();
    if !incident_days.is_empty() {
        let inc: f64 = incident_days
            .iter()
            .map(|&i| grid.dense_fraction(i..i + 1))
            .sum::<f64>()
            / incident_days.len() as f64;
        println!("dense fraction: upgrade-incident days {inc:.2}");
        assert!(
            inc > wd,
            "incident stripe must be bolder than normal weekdays"
        );
    }

    // 10 am maintenance line (slots 60..62) vs its surroundings, weekdays.
    let line = grid.dense_fraction_slots(60..62);
    let before = grid.dense_fraction_slots(54..57);
    println!("dense fraction: 10:00–10:20 line {line:.2} vs 09:00–09:30 {before:.2}");
    assert!(line > before, "maintenance line must be visible");

    println!("\nOK — shape matches Figure 3.");
}
