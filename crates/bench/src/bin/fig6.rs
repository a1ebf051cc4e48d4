//! Figure 6: AS contribution to routing updates vs routing-table share
//! (August 1996, daily points, four categories).
//!
//! Shape targets: points do not cluster on the diagonal (weak correlation
//! between table share and update share); no single AS dominates all four
//! categories; the big-ISP cluster is visible at large x.

use iri_bench::{arg_u64, experiment};
use iri_core::stats::contribution::{consistent_dominator, share_correlation, ContributionPoint};
use iri_core::taxonomy::UpdateClass;

fn main() {
    let ex = experiment(
        "Figure 6 — AS table share vs update share (per day, per class)",
        "no correlation between AS size and update share; no single AS \
         dominates all four categories",
        0.12,
    );
    let start = arg_u64(&ex.args, "--start", 122) as u32; // Aug 1
    let days = arg_u64(&ex.args, "--days", 10) as u32;
    let summaries = ex.run_days_in(&ex.cfg.scenario, &ex.graph, start..start + days);
    let graph = &ex.graph;

    // The summary flattens the four categories in FIGURE_CATEGORIES order,
    // one block of |providers| points per class.
    let n = graph.providers.len();
    let mut per_class: Vec<Vec<ContributionPoint>> = vec![Vec::new(); 4];
    for s in &summaries {
        for (ci, block) in s.contribution.chunks(n).enumerate().take(4) {
            per_class[ci].extend_from_slice(block);
        }
    }

    let mut pooled = Vec::new();
    for (i, class) in UpdateClass::FIGURE_CATEGORIES.iter().enumerate() {
        let points = &per_class[i];
        let r = share_correlation(points);
        let max_share = points.iter().map(|p| p.update_share).fold(0.0, f64::max);
        println!(
            "{:<8} points={:<5} corr(table,update)={:>6.3} max update share={:.2}",
            class.label(),
            points.len(),
            r,
            max_share
        );
        pooled.extend_from_slice(points);
    }
    // Pooled across all four categories: the diagonal must not organise
    // the cloud. (Per-class correlations at small provider counts are
    // dominated by which provider drew the largest instability factor, so
    // the pooled statistic is the robust check.)
    let pooled_r = share_correlation(&pooled);
    println!(
        "pooled correlation over {} points: {pooled_r:.3}",
        pooled.len()
    );
    assert!(
        pooled_r.abs() < 0.8,
        "pooled correlation {pooled_r:.3} too strong — paper reports no diagonal clustering"
    );

    // "All pathological routing incidents were caused by small service
    // providers" / instability is well-distributed: the bottom half of
    // providers by table share must carry a real share of the updates.
    let mut shares: Vec<f64> = summaries[0]
        .contribution
        .iter()
        .take(n)
        .map(|p| p.table_share)
        .collect();
    shares.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let median_share = shares[shares.len() / 2];
    let small_share: f64 = pooled
        .iter()
        .filter(|p| p.table_share < median_share)
        .map(|p| p.update_share)
        .sum::<f64>()
        / (4.0 * summaries.len() as f64); // normalise per class-day
    println!(
        "small-provider (below-median table share) combined update share: {:.2}",
        small_share
    );
    assert!(
        small_share > 0.1,
        "small providers must contribute substantially: {small_share:.2}"
    );

    let dominator = consistent_dominator(&per_class, 0.5);
    println!("consistent >50% dominator across all categories: {dominator:?}");
    assert!(
        dominator.is_none(),
        "no single AS may dominate all four categories"
    );

    // The big-ISP cluster: the largest provider holds a visible table share.
    let max_table_share = summaries[0]
        .contribution
        .iter()
        .map(|p| p.table_share)
        .fold(0.0, f64::max);
    println!("largest provider table share: {max_table_share:.2}");
    assert!(
        max_table_share > 0.1,
        "Zipf head must be visible on the x-axis"
    );

    println!("\nOK — shape matches Figure 6.");
}
