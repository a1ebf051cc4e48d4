//! Ingest: routing classified events into per-shard segment writers.
//!
//! [`StoreWriter`] is the one segment writer: deterministic per-shard
//! builders, `*.seg.tmp` → rename → fsync-before-seal file writes, and
//! transient-error retries with bounded backoff ([`RetryPolicy`]). Every
//! mutation writes through it inside one transaction of
//! [`crate::durable`], so each is all-or-previous under a crash:
//!
//! - [`ingest_mrt`] runs the sharded streaming pipeline with a writer in
//!   every worker. The shard function routes each event to worker
//!   `logical_shard % jobs`, so every logical shard's stream — and
//!   therefore every segment file — is identical at any `--jobs`.
//! - [`StoreWriter::create`] + [`StoreWriter::commit`] write a store from
//!   events that already carry causal provenance (simulator traces,
//!   figure caches).
//! - [`compact`] pushes each shard whose segment chain is not canonical
//!   — every segment full at `target_rows` except the shard's last —
//!   back through the writer. Because segment encoding is a pure
//!   function of the row stream, compaction output depends only on the
//!   logical store content.
//!
//! Retries surface in [`IngestOutcome::retries`] and the
//! `store.ingest.retries` counter.

use crate::durable::{self, Transaction};
use crate::query::{Manifest, SegmentMeta};
use crate::segment::{segment_file_name, SegmentBuilder, SegmentData, DEFAULT_PAGE_ROWS};
use crate::{
    logical_shard, shard_of_event, StoreError, StoredEvent, DEFAULT_SEGMENT_ROWS, LOGICAL_SHARDS,
    MANIFEST_FILE,
};
use iri_core::classifier::ClassifiedEvent;
use iri_core::input::UpdateEvent;
use iri_faults::{real_fs, RetryPolicy, SharedFs};
use iri_mrt::MrtReader;
use iri_obs::cause::Cause;
use iri_pipeline::{analyze_mrt_with_sink, AnalysisResult, ClassifiedSink, PipelineConfig};
use std::io;
use std::path::{Path, PathBuf};

/// Ingest tuning: pipeline worker settings, the segment roll size, and
/// the I/O layer.
#[derive(Debug, Clone)]
pub struct IngestConfig {
    /// Worker pool configuration for the streaming pipeline.
    pub pipeline: PipelineConfig,
    /// Rows per segment before the writer rolls to a new file. Part of
    /// the store's identity: two stores are byte-comparable only if they
    /// were written (or compacted) with the same value.
    pub segment_rows: u32,
    /// Rows per zone-map page inside each segment. Like `segment_rows`,
    /// part of the store's identity (rounded up to a multiple of 8 by
    /// the segment builder).
    pub page_rows: u32,
    /// Filesystem the writers go through — swap in
    /// [`iri_faults::FaultyFs`] to inject failures.
    pub fs: SharedFs,
    /// Retry budget for transient I/O errors on the segment-write path.
    pub retry: RetryPolicy,
    /// Defer per-segment fsyncs to one batched pass before the journal
    /// seal (default), instead of fsyncing inline after every segment
    /// write. Durability is identical — every segment is synced before
    /// the commit point — but the page cache absorbs the whole round
    /// first, which removes the fsync-per-segment scaling cliff.
    pub batch_sync: bool,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig {
            pipeline: PipelineConfig::default(),
            segment_rows: DEFAULT_SEGMENT_ROWS,
            page_rows: DEFAULT_PAGE_ROWS,
            fs: real_fs(),
            retry: RetryPolicy::default(),
            batch_sync: true,
        }
    }
}

impl IngestConfig {
    /// Sets the worker count (0 = one per CPU).
    #[must_use]
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.pipeline.jobs = jobs;
        self
    }

    /// Sets the segment roll size.
    #[must_use]
    pub fn with_segment_rows(mut self, rows: u32) -> Self {
        self.segment_rows = rows.max(1);
        self
    }

    /// Sets the zone-map page size.
    #[must_use]
    pub fn with_page_rows(mut self, rows: u32) -> Self {
        self.page_rows = rows.max(1);
        self
    }

    /// Substitutes the filesystem implementation.
    #[must_use]
    pub fn with_fs(mut self, fs: SharedFs) -> Self {
        self.fs = fs;
        self
    }

    /// Sets the transient-error retry policy.
    #[must_use]
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Enables or disables batched segment fsync.
    #[must_use]
    pub fn with_batch_sync(mut self, batch: bool) -> Self {
        self.batch_sync = batch;
        self
    }
}

fn io_at(path: &Path, e: io::Error) -> StoreError {
    StoreError::io(path, e)
}

/// Begins a transaction that replaces whatever store `dir` holds with a
/// new one, one generation past anything the directory names.
fn begin_rewrite(fs: &SharedFs, dir: &Path, segment_rows: u32) -> Result<Transaction, StoreError> {
    fs.create_dir_all(dir).map_err(|e| io_at(dir, e))?;
    // A crash may have sealed a commit MANIFEST.json does not show yet:
    // recover it first, or this begin record would truncate it away.
    if fs.exists(&dir.join(durable::JOURNAL_FILE)) {
        durable::recover(&**fs, dir, false)?;
    }
    let generation = durable::next_generation(&**fs, dir);
    let txn = Transaction::begin(fs.clone(), dir, generation, segment_rows.max(1))?;
    txn.retire_all()?;
    Ok(txn)
}

/// Runs one I/O operation under a retry policy, mapping the final error
/// to [`StoreError::Io`] at `path` and reporting retries used.
fn run_retried<T>(
    retry: &RetryPolicy,
    path: &Path,
    op: impl FnMut() -> io::Result<T>,
) -> (Result<T, StoreError>, u64) {
    let (res, used) = retry.run(op);
    (res.map_err(|e| io_at(path, e)), used)
}

/// Deterministic per-shard segment writer.
///
/// Events are routed by [`logical_shard`]; each shard accumulates rows in
/// a [`SegmentBuilder`] and rolls to a numbered file every `segment_rows`
/// rows, continuing the chain of any segments the transaction keeps. A
/// writer either owns its store transaction or is a parallel ingest
/// worker under a writer that does; workers may own any subset of the
/// shards, since shards never share files or sequence counters.
///
/// Segment files are written to `<name>.tmp`, renamed over the final
/// name, and fsynced before the seal.
#[derive(Debug)]
pub struct StoreWriter {
    dir: PathBuf,
    fs: SharedFs,
    retry: RetryPolicy,
    segment_rows: u32,
    page_rows: u32,
    batch_sync: bool,
    txn: Option<Transaction>,
    builders: Vec<Option<SegmentBuilder>>,
    seqs: Vec<u32>,
    metas: Vec<SegmentMeta>,
    pending_sync: Vec<PathBuf>,
    retries: u64,
}

impl StoreWriter {
    /// Creates a store directory and a writer over all shards. For
    /// single-threaded ingest of pre-classified streams; pair with
    /// [`StoreWriter::commit`].
    ///
    /// Begins a transaction that retires any previous store in `dir`: a
    /// crash before the commit leaves the previous store recoverable.
    pub fn create(dir: &Path, segment_rows: u32) -> Result<Self, StoreError> {
        Self::create_with(dir, segment_rows, real_fs(), RetryPolicy::default())
    }

    /// [`StoreWriter::create`] with an explicit filesystem and retry
    /// policy.
    pub fn create_with(
        dir: &Path,
        segment_rows: u32,
        fs: SharedFs,
        retry: RetryPolicy,
    ) -> Result<Self, StoreError> {
        let txn = begin_rewrite(&fs, dir, segment_rows)?;
        Ok(Self::in_transaction(txn, retry, Vec::new()))
    }

    /// A writer that commits `txn`, keeping the committed segments
    /// `kept` and continuing each shard's chain after them.
    pub(crate) fn in_transaction(
        txn: Transaction,
        retry: RetryPolicy,
        kept: Vec<SegmentMeta>,
    ) -> Self {
        let mut w = Self::blank(txn.dir.clone(), txn.fs.clone(), retry, txn.segment_rows);
        for meta in &kept {
            let shard = meta.shard as usize;
            w.seqs[shard] = w.seqs[shard].max(meta.seq + 1);
        }
        w.metas = kept;
        w.txn = Some(txn);
        w
    }

    /// A writer with this one's settings for one ingest worker; its
    /// segments reach the commit through [`StoreWriter::absorb`].
    pub(crate) fn worker(&self) -> Self {
        Self::blank(
            self.dir.clone(),
            self.fs.clone(),
            self.retry,
            self.segment_rows,
        )
        .with_batch_sync(self.batch_sync)
        .with_page_rows(self.page_rows)
    }

    fn blank(dir: PathBuf, fs: SharedFs, retry: RetryPolicy, segment_rows: u32) -> Self {
        StoreWriter {
            dir,
            fs,
            retry,
            segment_rows: segment_rows.max(1),
            page_rows: DEFAULT_PAGE_ROWS,
            batch_sync: true,
            txn: None,
            builders: (0..LOGICAL_SHARDS).map(|_| None).collect(),
            seqs: vec![0; LOGICAL_SHARDS],
            metas: Vec::new(),
            pending_sync: Vec::new(),
            retries: 0,
        }
    }

    /// Switches between batched (default) and inline per-segment fsync.
    #[must_use]
    pub fn with_batch_sync(mut self, batch: bool) -> Self {
        self.batch_sync = batch;
        self
    }

    /// Sets the zone-map page size for segments this writer encodes.
    #[must_use]
    pub fn with_page_rows(mut self, rows: u32) -> Self {
        self.page_rows = rows.max(1);
        self
    }

    /// Appends one event, rolling its shard's segment if full.
    pub fn push(&mut self, ev: &StoredEvent) -> Result<(), StoreError> {
        let shard = logical_shard(ev.peer.asn, ev.prefix);
        let page_rows = self.page_rows;
        let builder = self.builders[shard]
            .get_or_insert_with(|| SegmentBuilder::new(shard as u16).with_page_rows(page_rows));
        builder.push(ev);
        if builder.rows() >= self.segment_rows {
            self.flush_shard(shard)?;
        }
        Ok(())
    }

    /// Atomic segment write: `<file>.tmp`, fsync, rename. Each step is
    /// retried on transient errors. With batched sync the fsync is
    /// deferred: the file is queued for [`StoreWriter::sync_pending`],
    /// which must run before the commit point.
    fn write_segment(&mut self, file: &str, bytes: &[u8]) -> Result<(), StoreError> {
        let tmp = self.dir.join(format!("{file}.tmp"));
        let dest = self.dir.join(file);
        let (res, n) = run_retried(&self.retry, &tmp, || self.fs.write(&tmp, bytes));
        self.retries += n;
        res?;
        if !self.batch_sync {
            let (res, n) = run_retried(&self.retry, &tmp, || self.fs.sync(&tmp));
            self.retries += n;
            res?;
        }
        let (res, n) = run_retried(&self.retry, &dest, || self.fs.rename(&tmp, &dest));
        self.retries += n;
        res?;
        if self.batch_sync {
            self.pending_sync.push(dest);
        }
        Ok(())
    }

    /// Fsyncs every segment written since the last call — the batched
    /// half of the atomic-write protocol, which must complete before
    /// the seal.
    fn sync_pending(&mut self) -> Result<(), StoreError> {
        for dest in std::mem::take(&mut self.pending_sync) {
            let (res, n) = run_retried(&self.retry, &dest, || self.fs.sync(&dest));
            self.retries += n;
            res?;
        }
        Ok(())
    }

    fn flush_shard(&mut self, shard: usize) -> Result<(), StoreError> {
        let Some(builder) = self.builders[shard].take() else {
            return Ok(());
        };
        if builder.is_empty() {
            return Ok(());
        }
        let seq = self.seqs[shard];
        let file = segment_file_name(shard, seq);
        let (bytes, meta) = builder.encode(file.clone(), seq);
        self.write_segment(&file, &bytes)?;
        self.metas.push(meta);
        self.seqs[shard] = seq + 1;
        Ok(())
    }

    /// Flushes every shard's partial segment and fsyncs what this
    /// writer wrote.
    fn finish(&mut self) -> Result<(), StoreError> {
        for shard in 0..LOGICAL_SHARDS {
            self.flush_shard(shard)?;
        }
        self.sync_pending()
    }

    /// Takes over a finished worker's segments and retry count.
    pub(crate) fn absorb(&mut self, mut worker: StoreWriter) -> Result<(), StoreError> {
        worker.finish()?;
        self.metas.append(&mut worker.metas);
        self.retries += worker.retries;
        Ok(())
    }

    /// Transient-error retries spent so far.
    #[must_use]
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Flushes everything and seals the transaction, leaving what it
    /// retired for the caller to reclaim. `records_read` is carried into
    /// the manifest for provenance (0 if unknown).
    pub(crate) fn seal(mut self, records_read: u64) -> Result<Manifest, StoreError> {
        self.finish()?;
        let txn = self
            .txn
            .take()
            .expect("only a writer that owns its transaction seals");
        txn.seal(self.metas, records_read)
    }

    /// Flushes everything, commits, and reclaims the files the commit
    /// replaced. `records_read` is carried into the manifest for
    /// provenance (0 if unknown).
    pub fn commit(self, records_read: u64) -> Result<Manifest, StoreError> {
        let (fs, dir) = (self.fs.clone(), self.dir.clone());
        let manifest = self.seal(records_read)?;
        durable::reclaim(&*fs, &dir, manifest.generation)?;
        Ok(manifest)
    }
}

/// Per-worker pipeline sink that persists every classified event. MRT
/// ingest has no simulator provenance, so rows carry [`Cause::Unknown`].
#[derive(Debug)]
pub(crate) struct StoreSink {
    writer: StoreWriter,
    error: Option<StoreError>,
}

impl StoreSink {
    fn into_writer(mut self) -> Result<StoreWriter, StoreError> {
        match self.error.take() {
            Some(e) => Err(e),
            None => Ok(self.writer),
        }
    }
}

impl ClassifiedSink for StoreSink {
    fn record(&mut self, _event: &UpdateEvent, classified: &ClassifiedEvent) {
        if self.error.is_some() {
            return;
        }
        let row = StoredEvent::from_classified(classified, Cause::Unknown);
        if let Err(e) = self.writer.push(&row) {
            self.error = Some(e);
        }
    }

    fn finish(&mut self) {
        if self.error.is_some() {
            return;
        }
        // Run this worker's batched fsync pass here, on the worker
        // thread, so the passes overlap across workers. Leaving them
        // all to the post-join absorb in `ingest_mrt` serialized every
        // fsync on the main thread — the regression that made batched
        // sync *slower* than inline at jobs > 1. The post-join pass
        // still runs as a cheap no-op safety net.
        if let Err(e) = self.writer.finish() {
            self.error = Some(e);
        }
    }
}

/// What [`ingest_mrt`] hands back: the manifest just written plus the
/// full streaming-analysis result computed in the same pass.
pub struct IngestOutcome {
    /// Manifest of the store just written.
    pub manifest: Manifest,
    /// The streaming analysis computed alongside ingest — one pass over
    /// the log yields both the archive and the report.
    pub analysis: AnalysisResult,
    /// MRT records read from the input.
    pub records_read: u64,
    /// Transient I/O errors absorbed by retry across all workers (also
    /// in the `store.ingest.retries` counter of `analysis.registry`).
    pub retries: u64,
}

/// Ingests an MRT update log into a store directory using the sharded
/// parallel pipeline, returning the manifest and the streaming analysis.
///
/// Events are routed to workers by `logical_shard % jobs`, so the segment
/// files are byte-identical at any worker count. The whole ingest is one
/// transaction that replaces any previous store in `dir`: a crash at any
/// point leaves a directory `Store::open` recovers to either the
/// committed store or the previous one (empty, for a first ingest) —
/// never a torn mix.
pub fn ingest_mrt<R: std::io::Read>(
    dir: &Path,
    reader: &mut MrtReader<R>,
    base_time: u32,
    cfg: &IngestConfig,
) -> Result<IngestOutcome, StoreError> {
    let outcome = ingest_unreclaimed(dir, reader, base_time, cfg)?;
    durable::reclaim(&*cfg.fs, dir, outcome.manifest.generation)?;
    Ok(outcome)
}

/// [`ingest_mrt`] without the reclaim, for a caller whose pinned readers
/// may still need the segments it retired.
pub(crate) fn ingest_unreclaimed<R: std::io::Read>(
    dir: &Path,
    reader: &mut MrtReader<R>,
    base_time: u32,
    cfg: &IngestConfig,
) -> Result<IngestOutcome, StoreError> {
    let txn = begin_rewrite(&cfg.fs, dir, cfg.segment_rows)?;
    let mut owner = StoreWriter::in_transaction(txn, cfg.retry, Vec::new())
        .with_batch_sync(cfg.batch_sync)
        .with_page_rows(cfg.page_rows);

    let (analysis, sinks, records_read) = analyze_mrt_with_sink(
        reader,
        base_time,
        &cfg.pipeline,
        |event, jobs| shard_of_event(event) % jobs,
        |_worker, _jobs| StoreSink {
            writer: owner.worker(),
            error: None,
        },
    )
    .map_err(|e| StoreError::Ingest(e.to_string()))?;

    for sink in sinks {
        owner.absorb(sink.into_writer()?)?;
    }
    let retries = owner.retries();
    let mut analysis = analysis;
    let retries_id = analysis.registry.counter("store.ingest.retries");
    analysis.registry.add(retries_id, retries);

    Ok(IngestOutcome {
        manifest: owner.seal(records_read)?,
        analysis,
        records_read,
        retries,
    })
}

/// What [`compact`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompactReport {
    /// Shards whose segment chains were rewritten.
    pub shards_rewritten: usize,
    /// Segment files before compaction.
    pub segments_before: usize,
    /// Segment files after compaction.
    pub segments_after: usize,
}

/// Rewrites every shard whose segment chain is not in canonical form —
/// all segments holding exactly `target_rows` rows except the shard's
/// last — by re-encoding its row stream into fresh segments.
///
/// Deterministic: the output bytes are a pure function of the store's
/// logical content and `target_rows`. Compacting two stores that hold the
/// same events (e.g. written with different original segment sizes)
/// yields byte-identical directories; compacting twice is a no-op. The
/// manifest generation is preserved, not bumped, for the same reason.
///
/// Compacts the store as `Store::open` would recover it, in one
/// transaction like every mutation: a crash at any point recovers the
/// uncompacted or the compacted store.
pub fn compact(dir: &Path, target_rows: u32) -> Result<CompactReport, StoreError> {
    compact_with(dir, target_rows, &real_fs(), RetryPolicy::default())
}

/// [`compact`] with an explicit filesystem and retry policy.
pub fn compact_with(
    dir: &Path,
    target_rows: u32,
    fs: &SharedFs,
    retry: RetryPolicy,
) -> Result<CompactReport, StoreError> {
    // Start from the recovered store: a crash may have sealed a commit
    // the published MANIFEST.json does not show yet.
    let (manifest, _) = durable::recover(&**fs, dir, false)?;
    let generation = manifest.generation;
    let (report, _) = compact_unreclaimed(dir, &manifest, generation, target_rows, fs, retry)?;
    durable::reclaim(&**fs, dir, generation)?;
    Ok(report)
}

/// Compacts the store `manifest` describes as a commit of `generation`,
/// leaving what it retired for the caller to reclaim. Returns the
/// manifest it committed.
pub(crate) fn compact_unreclaimed(
    dir: &Path,
    manifest: &Manifest,
    generation: u64,
    target_rows: u32,
    fs: &SharedFs,
    retry: RetryPolicy,
) -> Result<(CompactReport, Manifest), StoreError> {
    let target_rows = target_rows.max(1);
    let mut by_shard: Vec<Vec<&SegmentMeta>> = (0..LOGICAL_SHARDS).map(|_| Vec::new()).collect();
    for meta in &manifest.segments {
        let shard = meta.shard as usize;
        if shard >= LOGICAL_SHARDS {
            return Err(StoreError::corrupt(
                dir.join(MANIFEST_FILE),
                format!("manifest segment shard {shard} out of range"),
            ));
        }
        by_shard[shard].push(meta);
    }
    // Canonical form also pins the page layout: rewriting re-encodes
    // with DEFAULT_PAGE_ROWS, so a pageless (v1) or oddly-paged chain
    // is "not canonical" and gets upgraded here.
    let (canonical, ragged): (Vec<_>, Vec<_>) = by_shard.into_iter().partition(|metas| {
        metas.iter().enumerate().all(|(i, m)| {
            m.seq == i as u32
                && (i + 1 == metas.len() || m.rows == u64::from(target_rows))
                && m.pages == m.rows.div_ceil(u64::from(DEFAULT_PAGE_ROWS))
        }) && metas
            .last()
            .is_none_or(|m| m.rows <= u64::from(target_rows))
    });
    let kept = canonical.into_iter().flatten().cloned().collect();

    let txn = Transaction::begin(fs.clone(), dir, generation, target_rows)?;
    let mut chains = Vec::with_capacity(ragged.len());
    for metas in &ragged {
        let retired: Result<Vec<_>, _> = metas.iter().map(|m| txn.retire(&m.file)).collect();
        chains.push((metas[0].shard as usize, retired?));
    }
    // Re-encode each retired chain's row stream, in segment order, into
    // the shard's fresh chain from sequence 0 — one shard at a time, so
    // only one shard's rows are ever held in memory.
    let mut writer = StoreWriter::in_transaction(txn, retry, kept);
    for (shard, paths) in &chains {
        for path in paths {
            let bytes = fs.read(path).map_err(|e| io_at(path, e))?;
            let seg = SegmentData::decode(&bytes).map_err(|e| e.with_path(path))?;
            for i in 0..seg.len() {
                writer.push(&seg.event(i))?;
            }
        }
        writer.flush_shard(*shard)?;
    }
    let committed = writer.seal(manifest.records_read)?;
    Ok((
        CompactReport {
            shards_rewritten: ragged.len(),
            segments_before: manifest.segments.len(),
            segments_after: committed.segments.len(),
        },
        committed,
    ))
}
