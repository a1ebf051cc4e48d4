//! The archive probe: a read/write mix replayed directly through
//! `LiveStore`/`Store` (no serve layer, no pacing) against an archive a
//! workload produced, so scenario-paper1996 and mrt-archive report read
//! and write latencies too.

use crate::lanes::{DirectLane, MixShape, Schedule, MIX};
use crate::util::{median, quantile, quantile_summary};
use crate::{Outcome, Scale};
use iri_store::LiveStore;
use std::path::Path;

/// The probe's requests over an archive spanning `[min_ms, max_ms]`:
/// the serve-mixed mix ([`MIX`]), replayed unpaced in due order, but
/// with no hot set. The probe goes around the serve layer's result
/// cache, so repeating a few queries would do nothing but give a few
/// windows half the weight of the median.
fn schedule(seed: u64, min_ms: u64, max_ms: u64, scale: Scale) -> Schedule {
    let (reads, writes) = match scale {
        Scale::Tiny => (56, 8),
        Scale::Full => (560, 80),
    };
    let shape = MixShape { hot_set: 0, ..MIX };
    Schedule::new(seed, min_ms, max_ms, reads, writes, &shape)
}

/// Replays the probe on the store at `dir`, which it appends to, and
/// reports its latency metrics. It runs after a workload's timed passes
/// and after their peak RSS is read, so it changes nothing the passes
/// measure.
pub fn run(dir: &Path, seed: u64, scale: Scale, out: &mut Outcome) -> Result<(), String> {
    let live = LiveStore::open(dir).map_err(|e| e.to_string())?;
    let m = live.manifest();
    let sched = schedule(seed, m.min_time_ms, m.max_time_ms, scale);
    let mut lane = DirectLane::default();
    lane.replay(&live, &sched, &sched.steps(), None)?;
    let run = &lane.run;
    out.attempted += (run.read_ms.len() + run.write_ms.len() + run.compact_ms.len()) as u64;
    out.metrics.set("read_p50_ms", median(&run.read_ms), "ms");
    out.metrics
        .set("read_p99_ms", quantile(&run.read_ms, 0.99), "ms");
    out.metrics.set("write_p50_ms", median(&run.write_ms), "ms");
    out.metrics
        .set("write_p90_ms", quantile(&run.write_ms, 0.90), "ms");
    out.note("probe_read_ms", &quantile_summary(&run.read_ms));
    out.note("probe_write_ms", &quantile_summary(&run.write_ms));
    Ok(())
}
