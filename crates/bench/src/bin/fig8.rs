//! Figure 8: histogram of update inter-arrival times per class (August,
//! Prefix+AS granularity, log bins 1s–24h with quartile boxes).
//!
//! Shape target: the 30-second and 1-minute bins together capture roughly
//! half of the mass in every category — the signature of the unjittered
//! 30-second interval timer (and CSU beats locked to it).

use iri_bench::{arg_u64, experiment};
use iri_core::report::render_figure8;
use iri_core::stats::interarrival::{summarize_interarrival, DayInterarrival};
use iri_core::taxonomy::UpdateClass;

fn main() {
    let ex = experiment(
        "Figure 8 — update inter-arrival histograms (Prefix+AS, log bins)",
        "the 30s and 1m bins dominate every category, together holding \
         about half the mass (30/60-second periodicity)",
        0.05,
    );
    let start = arg_u64(&ex.args, "--start", 122) as u32;
    let days = arg_u64(&ex.args, "--days", 10) as u32;
    let summaries = ex.run_days_in(&ex.cfg.scenario, &ex.graph, start..start + days);

    for (ci, class) in UpdateClass::FIGURE_CATEGORIES.iter().enumerate() {
        let daily: Vec<DayInterarrival> = summaries
            .iter()
            .map(|s| s.interarrivals[ci].clone())
            .collect();
        let summary = summarize_interarrival(&daily, *class);
        println!("{}", render_figure8(&summary));
        if summary.days > 0 && !matches!(class, UpdateClass::AaDiff | UpdateClass::WaDiff) {
            // The duplicate categories are timer-locked; the diff
            // categories also peak there but with fewer samples at small
            // scale, so only the dominant pair is asserted strictly.
            assert!(
                summary.thirty_sixty_mass() > 0.35,
                "{class}: 30s+1m bins must dominate, got {:.3}",
                summary.thirty_sixty_mass()
            );
        }
    }

    println!("OK — shape matches Figure 8 (30/60-second modes).");
}
