//! Figure 4: a representative week of raw instability updates at
//! ten-minute aggregates (the paper used August 3–9, 1996 — Saturday
//! through Friday).
//!
//! Shape targets: weekday bell curves peaking in the afternoon; low
//! weekends; Saturdays may carry a temporally localized spike.

use iri_bench::{arg_u64, experiment};
use iri_topology::events::Calendar;

fn main() {
    let ex = experiment(
        "Figure 4 — representative week of instability updates (10-min bins)",
        "bell-shaped weekday curves peaking in the afternoon; quiet \
         weekends; Saturday spike possible (Aug 3–9, 1996)",
        0.05,
    );
    // Day 124 = Saturday August 3 1996, the paper's week.
    let start = arg_u64(&ex.args, "--start", 124) as u32;
    let summaries = ex.run_days_in(&ex.cfg.scenario, &ex.graph, start..start + 7);

    let mut weekday_total = 0u64;
    let mut weekend_total = 0u64;
    for s in &summaries {
        let wd = Calendar::weekday(s.day);
        let total: u64 = s.instability_bins.iter().sum();
        let (m, dom) = Calendar::month_day(s.day);
        // Down-sampled sparkline: hourly sums scaled to 0-9.
        let hourly: Vec<u64> = s
            .instability_bins
            .chunks(6)
            .map(|c| c.iter().sum())
            .collect();
        let max = *hourly.iter().max().unwrap_or(&1);
        let spark: String = hourly
            .iter()
            .map(|&h| {
                let level = (h * 9 / max.max(1)) as u32;
                char::from_digit(level, 10).unwrap_or('9')
            })
            .collect();
        println!("{m} {dom:>2} ({wd:?}) total {total:>7}  |{spark}|");
        if wd.is_weekend() {
            weekend_total += total;
        } else {
            weekday_total += total;
        }

        // Afternoon peak on weekdays: 12:00–21:00 beats 00:00–06:00.
        if !wd.is_weekend() {
            let night: u64 = s.instability_bins[0..36].iter().sum();
            let afternoon: u64 = s.instability_bins[72..126].iter().sum();
            assert!(
                afternoon > night,
                "weekday afternoon ({afternoon}) must exceed night ({night})"
            );
        }
    }
    let wd_avg = weekday_total / 5;
    let we_avg = weekend_total / 2;
    println!("\nweekday average {wd_avg}, weekend average {we_avg}");
    assert!(we_avg < wd_avg, "weekends must be quieter than weekdays");
    // "The exception is Saturday's spike. Saturdays often have high
    // amounts of temporally localized instability." — when the calendar
    // model schedules one for this week's Saturday, it must be visible as
    // a localized early-afternoon burst.
    for s in &summaries {
        if Calendar::weekday(s.day) == iri_topology::events::Weekday::Sat
            && iri_topology::events::UsageModel::saturday_spike(s.day)
        {
            let spike_window: u64 = s.instability_bins[78..84].iter().sum(); // 13:00–14:00
            let morning: u64 = s.instability_bins[48..54].iter().sum(); // 08:00–09:00
            println!(
                "Saturday day {} spike window {} vs morning {}",
                s.day, spike_window, morning
            );
            assert!(
                spike_window > 2 * morning.max(1),
                "the scheduled Saturday spike must be localized and visible"
            );
        }
    }
    println!("\nOK — shape matches Figure 4.");
}
