//! Small shared helpers: order statistics, process memory, store
//! directory accounting, and the metric map the benchmark prints.

use serde::{DeError, Deserialize, Serialize, Value};
use std::collections::BTreeMap;
use std::hash::Hasher as _;
use std::path::Path;
use std::time::Duration;

/// Milliseconds in a duration, as a float with all its digits.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Median of a sample (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` (0 when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// `p10=… p25=… p50=… p75=… p90=… p99=…` of a sample, for run records.
pub fn quantile_summary(xs: &[f64]) -> String {
    [0.10f64, 0.25, 0.50, 0.75, 0.90, 0.99]
        .iter()
        .map(|q| format!("p{}={:.4}", (q * 100.0).round(), quantile(xs, *q)))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Peak resident set (`VmHWM`) of this process in MiB, 0 off-Linux.
pub fn peak_rss_mb() -> f64 {
    iri_scenario::rss::peak_rss_kb().unwrap_or(0) as f64 / 1024.0
}

/// Every regular file under `dir` (recursively), keyed by relative path.
fn files(dir: &Path) -> BTreeMap<String, std::path::PathBuf> {
    fn walk(root: &Path, dir: &Path, out: &mut BTreeMap<String, std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(root, &p, out);
            } else {
                let rel = p
                    .strip_prefix(root)
                    .unwrap_or(&p)
                    .to_string_lossy()
                    .into_owned();
                out.insert(rel, p);
            }
        }
    }
    let mut out = BTreeMap::new();
    walk(dir, dir, &mut out);
    out
}

/// Total bytes of every file under a store directory, leaving out
/// replaced segments still waiting in `retired/` for a pinned reader.
pub fn store_bytes(dir: &Path) -> u64 {
    files(dir)
        .iter()
        .filter(|(name, _)| !name.starts_with(iri_store::RETIRED_DIR))
        .map(|(_, p)| p)
        .filter_map(|p| std::fs::metadata(p).ok())
        .map(|m| m.len())
        .sum()
}

/// A digest over every file name and byte under `dir`: two stores with
/// the same digest are byte-identical.
pub fn dir_digest(dir: &Path) -> String {
    let mut h = iri_core::fxhash::FxHasher::default();
    for (name, path) in files(dir) {
        h.write(name.as_bytes());
        h.write(&std::fs::read(&path).unwrap_or_default());
        h.write_u8(0xff);
    }
    format!("{:016x}", h.finish())
}

/// Removes a directory tree, ignoring a missing one.
pub fn clear_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

/// One metric: a value and its unit.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Metric {
    pub value: f64,
    pub unit: String,
}

/// Metrics by name, printed in name order.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<String, Metric>);

impl Metrics {
    /// Sets one metric.
    pub fn set(&mut self, name: &str, value: f64, unit: &str) {
        // JSON has no NaN or infinity.
        let value = if value.is_finite() { value } else { 0.0 };
        let unit = unit.to_owned();
        self.0.insert(name.to_owned(), Metric { value, unit });
    }

    /// Adds every metric of `other`.
    pub fn extend(&mut self, other: Metrics) {
        self.0.extend(other.0);
    }

    /// Looks one metric up.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|m| m.value)
    }

    /// Iterates `(name, value, unit)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64, &str)> {
        self.0
            .iter()
            .map(|(k, m)| (k.as_str(), m.value, m.unit.as_str()))
    }
}

// A JSON object keyed by metric name (the shim writes a `BTreeMap` as
// an array of pairs).
impl Serialize for Metrics {
    fn to_value(&self) -> Value {
        Value::Map(
            self.0
                .iter()
                .map(|(k, m)| (k.clone(), m.to_value()))
                .collect(),
        )
    }
}

impl Deserialize for Metrics {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let map = v
            .as_map()
            .ok_or_else(|| DeError::expected("object", "Metrics", v))?;
        map.iter()
            .map(|(k, m)| Ok((k.clone(), Metric::from_value(m)?)))
            .collect::<Result<_, DeError>>()
            .map(Metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn metrics_render_as_json() {
        let mut m = Metrics::default();
        m.set("b", 1.5, "ms");
        m.set("a", 2.0, "s");
        let text = serde_json::to_string(&m).unwrap();
        assert_eq!(
            text,
            "{\"a\":{\"value\":2.0,\"unit\":\"s\"},\"b\":{\"value\":1.5,\"unit\":\"ms\"}}"
        );
        let back: Metrics = serde_json::from_str(&text).unwrap();
        assert_eq!(back.get("b"), Some(1.5));
    }
}
