//! A timing [`StoreFs`]: counts calls, bytes and busy time per operation
//! and passes every call through to [`RealFs`] unchanged. Traced runs
//! hand it to the program through `RunnerOptions.fs`, `LiveOptions.fs`
//! and `IngestConfig::with_fs`; untraced runs never see it.

use crate::util::Metrics;
use iri_faults::{CommitStep, RealFs, SharedFs, StoreFs};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The operations the store's filesystem trait exposes.
#[derive(Debug, Clone, Copy)]
enum Op {
    Read,
    Write,
    Append,
    Sync,
    SyncDir,
    Rename,
    Remove,
    RemoveDir,
    CreateDir,
    List,
    Exists,
}

const OPS: usize = 11;

/// Calls, bytes and busy nanoseconds for one operation.
#[derive(Debug, Default)]
struct OpStats {
    calls: AtomicU64,
    bytes: AtomicU64,
    busy_ns: AtomicU64,
}

/// The timing wrapper; clone the `Arc` to share it.
#[derive(Debug, Default)]
pub struct TimingFs {
    inner: RealFs,
    ops: [OpStats; OPS],
}

impl TimingFs {
    /// A fresh wrapper with zeroed counters, shareable as a [`SharedFs`].
    pub fn shared() -> Arc<TimingFs> {
        Arc::new(TimingFs::default())
    }

    /// This wrapper as the store's filesystem handle.
    pub fn as_shared(self: &Arc<Self>) -> SharedFs {
        Arc::clone(self) as SharedFs
    }

    fn timed<T>(&self, op: Op, bytes: usize, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = f();
        // Statistics only: each counter publishes no other data.
        let s = &self.ops[op as usize];
        s.busy_ns.fetch_add(
            u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX),
            Ordering::Relaxed,
        );
        s.calls.fetch_add(1, Ordering::Relaxed);
        s.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        out
    }

    fn calls(&self, op: Op) -> u64 {
        self.ops[op as usize].calls.load(Ordering::Relaxed)
    }

    fn bytes(&self, op: Op) -> u64 {
        self.ops[op as usize].bytes.load(Ordering::Relaxed)
    }

    fn busy_ms(&self, op: Op) -> f64 {
        self.ops[op as usize].busy_ns.load(Ordering::Relaxed) as f64 / 1e6
    }

    /// Bytes written or appended so far.
    pub fn bytes_written(&self) -> u64 {
        self.bytes(Op::Write) + self.bytes(Op::Append)
    }

    /// The `fs.*` per-layer metrics; `events` is the base of the
    /// write-amplification ratio (bytes written per stored event).
    pub fn metrics(&self, events: u64) -> Metrics {
        let mut m = Metrics::default();
        m.set("fs.sync", self.calls(Op::Sync) as f64, "count");
        m.set("fs.sync_ms", self.busy_ms(Op::Sync), "ms");
        m.set("fs.sync_dir", self.calls(Op::SyncDir) as f64, "count");
        m.set("fs.sync_dir_ms", self.busy_ms(Op::SyncDir), "ms");
        m.set("fs.files_written", self.calls(Op::Write) as f64, "count");
        m.set("fs.write_bytes", self.bytes(Op::Write) as f64, "B");
        m.set("fs.write_ms", self.busy_ms(Op::Write), "ms");
        m.set("fs.append_bytes", self.bytes(Op::Append) as f64, "B");
        m.set("fs.read_bytes", self.bytes(Op::Read) as f64, "B");
        m.set("fs.read_ms", self.busy_ms(Op::Read), "ms");
        m.set(
            "fs.bytes_written_per_event",
            self.bytes_written() as f64 / events.max(1) as f64,
            "B/event",
        );
        m
    }
}

impl StoreFs for TimingFs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let started = Instant::now();
        let out = self.inner.read(path);
        let s = &self.ops[Op::Read as usize];
        s.busy_ns.fetch_add(
            u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX),
            Ordering::Relaxed,
        );
        s.calls.fetch_add(1, Ordering::Relaxed);
        if let Ok(bytes) = &out {
            s.bytes.fetch_add(bytes.len() as u64, Ordering::Relaxed);
        }
        out
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.timed(Op::Write, bytes.len(), || self.inner.write(path, bytes))
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.timed(Op::Append, bytes.len(), || self.inner.append(path, bytes))
    }

    fn sync(&self, path: &Path) -> io::Result<()> {
        self.timed(Op::Sync, 0, || self.inner.sync(path))
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        self.timed(Op::SyncDir, 0, || self.inner.sync_dir(dir))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.timed(Op::Rename, 0, || self.inner.rename(from, to))
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        self.timed(Op::Remove, 0, || self.inner.remove(path))
    }

    fn remove_dir(&self, dir: &Path) -> io::Result<()> {
        self.timed(Op::RemoveDir, 0, || self.inner.remove_dir(dir))
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.timed(Op::CreateDir, 0, || self.inner.create_dir_all(dir))
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        self.timed(Op::List, 0, || self.inner.list(dir))
    }

    fn exists(&self, path: &Path) -> bool {
        self.timed(Op::Exists, 0, || self.inner.exists(path))
    }

    fn checkpoint(&self, step: CommitStep) -> io::Result<()> {
        self.inner.checkpoint(step)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_passes_through() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.bench_work/unit-timing-fs");
        let fs = TimingFs::shared();
        fs.create_dir_all(&dir).unwrap();
        let f = dir.join("a");
        fs.write(&f, b"hello").unwrap();
        fs.append(&f, b"!!").unwrap();
        fs.sync(&f).unwrap();
        assert_eq!(fs.read(&f).unwrap(), b"hello!!");
        let m = fs.metrics(7);
        assert_eq!(m.get("fs.files_written"), Some(1.0));
        assert_eq!(m.get("fs.write_bytes"), Some(5.0));
        assert_eq!(m.get("fs.append_bytes"), Some(2.0));
        assert_eq!(m.get("fs.read_bytes"), Some(7.0));
        assert_eq!(m.get("fs.sync"), Some(1.0));
        assert_eq!(m.get("fs.bytes_written_per_event"), Some(1.0));
        fs.remove_dir(&dir).unwrap();
    }
}
