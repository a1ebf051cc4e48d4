//! Shared command-line plumbing for every binary in this crate: flag
//! parsing, the typed [`QueryFilter`] builder, scan-stat rendering, and
//! the store error → exit code mapping.
//!
//! Before this module each store-facing binary (`iriq`, `mrtstat`,
//! `tracescope`) parsed its filter flags into strings and re-derived
//! `iri_store::Query` its own way. Now there is exactly one grammar:
//!
//! ```text
//! [--from-ms A] [--to-ms B] [--day D] [--peer ASN] [--prefix a.b.c.d/len]
//! [--class NAME] [--cause NAME] [--strict] [--stats]
//! ```
//!
//! and one builder to hold the result. Parse errors return messages (for
//! the binary to print with its own usage text and exit
//! [`EXIT_USAGE`]); store errors carry their own exit codes via
//! [`StoreError::exit_code`].

use iri_store::{OpenOptions, Query, ScanStats, Store, StoreError};
use std::path::Path;

/// Exit code for malformed command lines.
pub const EXIT_USAGE: i32 = 2;

/// Exit code when a run crossed its `--max-rss-mb` fail-fast budget.
/// The store is left at its last commit, so `--resume` picks it up.
pub const EXIT_RSS_BUDGET: i32 = 8;

/// Exit code for the deliberate `--kill-after-chunks` stop hook — the
/// CI kill-and-resume smoke distinguishes "killed on schedule" (resume
/// next) from a real failure.
pub const EXIT_STOPPED: i32 = 9;

/// Exit code for boundary-chain failures: corrupt chain, mismatched
/// pack, or replay divergence.
pub const EXIT_CHAIN: i32 = 10;

/// Maps a scenario-runner failure onto the process exit taxonomy:
/// store errors keep their own codes (3–7), pack/usage problems exit
/// [`EXIT_USAGE`], and the runner's own outcomes get codes 8–10
/// ([`EXIT_RSS_BUDGET`], [`EXIT_STOPPED`], [`EXIT_CHAIN`]).
#[must_use]
pub fn run_error_exit_code(e: &iri_scenario::RunError) -> i32 {
    use iri_scenario::RunError;
    match e {
        RunError::Store(s) => s.exit_code(),
        RunError::Pack(_) => EXIT_USAGE,
        RunError::RssBudget { .. } => EXIT_RSS_BUDGET,
        RunError::Stopped { .. } => EXIT_STOPPED,
        RunError::Chain(_) => EXIT_CHAIN,
        // A dead writer with no reported store error: generic failure.
        RunError::Channel(_) => 1,
    }
}

/// Parses `--key value` style arguments with defaults, e.g.
/// `arg_f64(&args, "--scale", 0.05)`.
#[must_use]
pub fn arg_f64(args: &[String], key: &str, default: f64) -> f64 {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// String variant of [`arg_f64`]: `None` when the flag is absent.
#[must_use]
pub fn arg_str(args: &[String], key: &str) -> Option<String> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Integer variant of [`arg_f64`].
#[must_use]
pub fn arg_u64(args: &[String], key: &str, default: u64) -> u64 {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Whether a bare flag (no value) is present.
#[must_use]
pub fn arg_flag(args: &[String], key: &str) -> bool {
    args.iter().any(|a| a == key)
}

/// Standard experiment banner: what the paper reported vs what we measured.
pub fn banner(title: &str, paper: &str) {
    println!("================================================================");
    println!("{title}");
    println!("paper: {paper}");
    println!("================================================================");
}

/// The open/report options every store-facing binary shares (`--strict`,
/// `--stats`) wrapped around an [`iri_store::Query`].
///
/// Build the query with the store's own builder and wrap it:
///
/// ```
/// use iri_bench::cli::QueryFilter;
/// use iri_core::taxonomy::UpdateClass;
/// use iri_store::Query;
///
/// let f = QueryFilter::from_query(
///     Query::default()
///         .class(UpdateClass::WwDup)
///         .time_range_ms(0, 86_400_000),
/// )
/// .strict(true);
/// assert!(f.is_strict());
/// ```
///
/// or parse a command line with [`QueryFilter::from_args`].
#[derive(Debug, Clone, Default)]
pub struct QueryFilter {
    query: Query,
    strict: bool,
    stats: bool,
}

impl QueryFilter {
    /// A filter matching everything, tolerant, quiet.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Wraps an already-built store query.
    #[must_use]
    pub fn from_query(query: Query) -> Self {
        QueryFilter {
            query,
            strict: false,
            stats: false,
        }
    }

    /// Sets strict (fail-fast) store opening: corrupt or crash-recovered
    /// stores error out instead of being repaired and served.
    #[must_use]
    pub fn strict(mut self, strict: bool) -> Self {
        self.strict = strict;
        self
    }

    /// Sets whether scan statistics should be printed.
    #[must_use]
    pub fn stats(mut self, stats: bool) -> Self {
        self.stats = stats;
        self
    }

    /// The store query this filter narrows to.
    #[must_use]
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// Whether strict mode was requested.
    #[must_use]
    pub fn is_strict(&self) -> bool {
        self.strict
    }

    /// Whether scan statistics were requested.
    #[must_use]
    pub fn wants_stats(&self) -> bool {
        self.stats
    }

    /// Parses the shared filter grammar from a raw argument vector.
    /// Unknown flags are ignored (binaries layer their own on top);
    /// malformed values for known flags are errors. The grammar is
    /// unchanged from earlier releases; each flag now delegates to the
    /// matching [`iri_store::Query`] builder.
    pub fn from_args(args: &[String]) -> Result<Self, String> {
        let mut q = Query::default();
        if let Some(day) = arg_str(args, "--day") {
            let day: u64 = day
                .parse()
                .map_err(|_| format!("--day wants a number, got {day:?}"))?;
            q = q.day_window(day);
        }
        let from = arg_u64(args, "--from-ms", q.from_ms);
        let to = arg_u64(args, "--to-ms", q.to_ms);
        q = q.time_range_ms(from, to);
        if let Some(asn) = arg_str(args, "--peer") {
            q = q.peer_str(&asn).map_err(|e| format!("--{e}"))?;
        }
        if let Some(p) = arg_str(args, "--prefix") {
            q = q.prefix_str(&p).map_err(|e| format!("--{e}"))?;
        }
        if let Some(c) = arg_str(args, "--class") {
            q = q.class_labelled(&c)?;
        }
        if let Some(c) = arg_str(args, "--cause") {
            q = q.cause_labelled(&c)?;
        }
        Ok(QueryFilter::from_query(q)
            .strict(arg_flag(args, "--strict"))
            .stats(arg_flag(args, "--stats")))
    }

    /// Opens a store honouring this filter's strict flag.
    pub fn open(&self, dir: &Path) -> Result<Store, StoreError> {
        Store::open_with(dir, &OpenOptions::new().strict(self.strict))
    }
}

/// Renders one query's [`ScanStats`] the way every binary reports them
/// (the `--stats` flag), including quarantined-segment accounting.
#[must_use]
pub fn render_scan_stats(stats: &ScanStats) -> String {
    let mut out = format!(
        "[scan] {} segments: {} pruned, {} zone-answered, {} scanned \
         (prune ratio {:.1}%); {} of {} KiB read, {} rows tested, {} matched",
        stats.segments_total,
        stats.segments_pruned,
        stats.segments_zone_answered,
        stats.segments_scanned,
        100.0 * stats.prune_ratio(),
        stats.bytes_scanned / 1024,
        stats.bytes_total / 1024,
        stats.rows_scanned,
        stats.rows_matched
    );
    if stats.pages_total > 0 {
        out.push_str(&format!(
            "\n[scan] {} pages: {} pruned, {} zone-answered, {} scanned",
            stats.pages_total, stats.pages_pruned, stats.pages_zone_answered, stats.pages_scanned
        ));
    }
    if stats.segments_quarantined > 0 {
        out.push_str(&format!(
            "\n[scan] {} segment(s) quarantined — results exclude them; \
             re-run with --strict to fail instead",
            stats.segments_quarantined
        ));
    }
    out
}

/// Prints [`render_scan_stats`] when the filter asked for it.
pub fn print_scan_stats(filter: &QueryFilter, stats: &ScanStats) {
    if filter.wants_stats() {
        println!("\n{}", render_scan_stats(stats));
    }
}

/// Prints a store error the standard way and exits with its
/// variant-specific code (I/O 3, corrupt 4, quarantined 5, JSON 6,
/// ingest 7).
pub fn exit_store_error(prog: &str, e: &StoreError) -> ! {
    eprintln!("{prog}: {e}");
    std::process::exit(e.exit_code())
}

#[cfg(test)]
mod tests {
    use super::*;
    use iri_bgp::types::Asn;
    use iri_core::taxonomy::UpdateClass;
    use iri_obs::Cause;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn arg_parsing() {
        let args = argv(&["--scale", "0.2", "--days", "14"]);
        assert_eq!(arg_f64(&args, "--scale", 0.05), 0.2);
        assert_eq!(arg_u64(&args, "--days", 7), 14);
        assert_eq!(arg_u64(&args, "--missing", 9), 9);
        assert_eq!(arg_f64(&args, "--days", 1.0), 14.0);
    }

    #[test]
    fn filter_from_args_parses_every_flag() {
        let args = argv(&[
            "--from-ms",
            "100",
            "--to-ms",
            "200",
            "--peer",
            "AS701",
            "--prefix",
            "10.0.0.0/8",
            "--class",
            "WWDup",
            "--cause",
            "CsuDrift",
            "--strict",
            "--stats",
        ]);
        let f = QueryFilter::from_args(&args).unwrap();
        assert_eq!(f.query().from_ms, 100);
        assert_eq!(f.query().to_ms, 200);
        assert_eq!(f.query().peer_asn, Some(Asn(701)));
        assert_eq!(f.query().prefix, Some("10.0.0.0/8".parse().unwrap()));
        assert_eq!(f.query().class, Some(UpdateClass::WwDup));
        assert_eq!(f.query().cause, Some(Cause::CsuDrift));
        assert!(f.is_strict());
        assert!(f.wants_stats());
    }

    #[test]
    fn filter_day_shorthand_sets_the_window() {
        let f = QueryFilter::from_args(&argv(&["--day", "2"])).unwrap();
        let day_ms = iri_store::DAY_MS;
        assert_eq!(f.query().from_ms, 2 * day_ms);
        assert_eq!(f.query().to_ms, 3 * day_ms);
    }

    #[test]
    fn filter_rejects_bad_values_with_messages() {
        assert!(QueryFilter::from_args(&argv(&["--peer", "abc"]))
            .unwrap_err()
            .contains("--peer"));
        assert!(QueryFilter::from_args(&argv(&["--class", "nope"]))
            .unwrap_err()
            .contains("unknown class"));
        assert!(QueryFilter::from_args(&argv(&["--prefix", "nope"]))
            .unwrap_err()
            .contains("--prefix"));
    }

    #[test]
    fn scan_stats_render_mentions_quarantine_only_when_present() {
        let clean = ScanStats {
            segments_total: 4,
            segments_scanned: 4,
            ..ScanStats::default()
        };
        assert!(!render_scan_stats(&clean).contains("quarantined"));
        let hurt = ScanStats {
            segments_quarantined: 2,
            ..clean
        };
        let text = render_scan_stats(&hurt);
        assert!(text.contains("2 segment(s) quarantined"));
        assert!(text.contains("--strict"));
    }

    #[test]
    fn run_errors_map_onto_the_documented_exit_taxonomy() {
        use iri_scenario::RunError;
        let io = StoreError::io(Path::new("/x"), std::io::Error::other("boom"));
        assert_eq!(run_error_exit_code(&RunError::Store(io)), 3);
        assert_eq!(
            run_error_exit_code(&RunError::RssBudget {
                rss_mb: 900,
                budget_mb: 512
            }),
            EXIT_RSS_BUDGET
        );
        assert_eq!(
            run_error_exit_code(&RunError::Stopped { chunks: 3 }),
            EXIT_STOPPED
        );
        assert_eq!(
            run_error_exit_code(&RunError::Chain(iri_chain::ChainError::Divergence {
                seq: 7,
                expected: "a".into(),
                got: "b".into(),
            })),
            EXIT_CHAIN
        );
        assert_eq!(run_error_exit_code(&RunError::Channel("gone".into())), 1);
    }
}
