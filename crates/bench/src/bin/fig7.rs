//! Figure 7: cumulative distribution of Prefix+AS routing updates (August,
//! per day, four categories).
//!
//! Shape targets: 80–100 % of daily instability comes from Prefix+AS pairs
//! with fewer than fifty events; WADiff plateaus fastest; the duplicate
//! categories (AADup/WADup) carry heavy tails where high-count pairs
//! contribute several percent.

use iri_bench::{arg_u64, experiment};
use iri_core::report::render_figure7;
use iri_core::taxonomy::UpdateClass;

fn main() {
    let ex = experiment(
        "Figure 7 — Prefix+AS cumulative update distributions (August)",
        "80–100% of instability from pairs with <50 daily events; WADiff \
         plateaus fastest; AADup/WADup carry heavy tails",
        0.05,
    );
    let start = arg_u64(&ex.args, "--start", 122) as u32;
    let days = arg_u64(&ex.args, "--days", 10) as u32;
    let summaries = ex.run_days_in(&ex.cfg.scenario, &ex.graph, start..start + days);

    // Aggregate view: median cumulative-at-50 per class across days.
    for (ci, class) in UpdateClass::FIGURE_CATEGORIES.iter().enumerate() {
        let mut at10: Vec<f64> = Vec::new();
        let mut at50: Vec<f64> = Vec::new();
        let mut max_share: Vec<f64> = Vec::new();
        for s in &summaries {
            let cdf = &s.cdfs[ci];
            if cdf.total == 0 {
                continue;
            }
            at10.push(cdf.cumulative_at(10));
            at50.push(cdf.cumulative_at(50));
            max_share.push(cdf.max_pair_share());
        }
        let med = |v: &mut Vec<f64>| -> f64 {
            if v.is_empty() {
                return f64::NAN;
            }
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
            v[v.len() / 2]
        };
        println!(
            "{:<8} median cum@10={:.2} cum@50={:.2} max-pair-share={:.2} ({} days with data)",
            class.label(),
            med(&mut at10),
            med(&mut at50),
            med(&mut max_share),
            at50.len()
        );
    }
    println!();
    println!("{}", render_figure7(&summaries[0].cdfs[2])); // WADup example day

    // Shape assertions.
    let median_at50 = |ci: usize| -> f64 {
        let mut v: Vec<f64> = summaries
            .iter()
            .filter(|s| s.cdfs[ci].total > 0)
            .map(|s| s.cdfs[ci].cumulative_at(50))
            .collect();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        if v.is_empty() {
            f64::NAN
        } else {
            v[v.len() / 2]
        }
    };
    // WADiff (index 1) plateaus fastest: nearly all mass under 50 events.
    let wadiff50 = median_at50(1);
    assert!(
        wadiff50.is_nan() || wadiff50 > 0.9,
        "WADiff must plateau fastest, got {wadiff50}"
    );
    // Duplicate categories keep a tail above 50.
    let wadup50 = median_at50(2);
    assert!(
        wadup50 < 1.0,
        "WADup should retain mass above 50 events, got {wadup50}"
    );
    println!("\nOK — shape matches Figure 7.");
}
