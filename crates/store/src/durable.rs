//! Durability: the one store transaction, the manifest journal, and
//! crash recovery.
//!
//! ## The transaction
//!
//! Every mutation of a store directory — `ingest_mrt`,
//! `StoreWriter::create` + `commit`, `LiveStore::append_events`, and
//! compaction — is one `Transaction` of three steps:
//!
//! 1. **Begin** — the caller names the new generation; a `begin` record
//!    carrying it is written to `MANIFEST.journal` and fsynced *before*
//!    any store file is touched ([`CommitStep::Begin`]).
//! 2. **Replace** — every committed segment the mutation displaces is
//!    *renamed* into `retired/g<gen>/`. Nothing else is deleted or
//!    overwritten before the seal: new segments land at names no
//!    committed file holds any more, `MANIFEST.json` changes only in the
//!    publish step, and only stale `*.tmp` debris may be removed.
//! 3. **Seal** — the commit protocol proper, each step a [`CommitStep`]
//!    checkpoint the fault injector can kill at:
//!    - **SegmentsDurable** — every segment was written to `*.seg.tmp`,
//!      renamed to `*.seg`, and fsynced, and the directory fsynced.
//!    - **JournalSealed** — a `commit` record carrying the full manifest
//!      (plus its checksum) is appended to the journal and fsynced.
//!      *This is the commit point*: recovery from any later crash
//!      reproduces the committed store.
//!    - **ManifestPublished** — `MANIFEST.json` is written to a temp
//!      file, fsynced, and renamed into place.
//!    - **JournalRetired** — the journal is removed.
//!
//! Afterwards the caller reclaims `retired/g<gen>/`: the offline entry
//! points at once (`reclaim`), `LiveStore` once no pinned reader still
//! needs the files.
//!
//! ## Recovery
//!
//! Recovery (run by every `Store::open`) never rescans the directory
//! for truth — truth is the newest of (valid `MANIFEST.json`, valid
//! journal `commit` record), by generation. Every segment the chosen
//! manifest references is checksum-verified and cross-checked against
//! its entry; a mismatching or missing file is first looked for in the
//! retired tree — a crash before the seal leaves every displaced
//! segment there — and otherwise moved to `quarantine/` and dropped
//! from the manifest (default) or returned as an error (strict). Files
//! the chosen manifest does *not* reference — torn `*.tmp` leftovers,
//! segments of a commit that never sealed — are quarantined too. So a
//! `begin` record with no `commit` recovers the previous store (the
//! empty store, for a first ingest): all-or-previous atomicity for
//! every mutation.

use crate::query::{build_manifest, parse_manifest, Manifest, SegmentMeta};
use crate::{StoreError, DEFAULT_SEGMENT_ROWS, MANIFEST_FILE, RETIRED_DIR};
use iri_core::fxhash::FxHasher;
use iri_faults::{SharedFs, StoreFs};
use serde::{Deserialize, Serialize};
use std::hash::Hasher;
use std::io;
use std::path::{Path, PathBuf};

pub use iri_faults::CommitStep;

/// Journal file name inside a store directory.
pub const JOURNAL_FILE: &str = "MANIFEST.journal";

/// Quarantine subdirectory name inside a store directory.
pub const QUARANTINE_DIR: &str = "quarantine";

/// Journal record version this crate writes.
const JOURNAL_VERSION: u32 = 1;

/// One line of `MANIFEST.journal`. `state` is `"begin"` (ingest started,
/// `manifest` absent) or `"commit"` (`manifest` present, `sum` its
/// checksum).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct JournalRecord {
    version: u32,
    generation: u64,
    state: String,
    #[serde(default)]
    segment_rows: u32,
    #[serde(default)]
    sum: u64,
    #[serde(default)]
    manifest: Option<Manifest>,
}

/// One file moved aside by recovery, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedFile {
    /// File name relative to the store directory (its original name).
    pub file: String,
    /// Why recovery refused to serve it.
    pub reason: String,
}

/// What recovery did while opening a store.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Recovery {
    /// Files moved to `quarantine/` (or recorded as missing), in
    /// discovery order.
    pub quarantined: Vec<QuarantinedFile>,
    /// Files brought back from the retired tree: a rolled-back commit
    /// had already displaced them when the crash hit.
    pub restored: Vec<String>,
    /// Whether `MANIFEST.json` was rewritten (journal replay, dropped
    /// segments, or damage repair).
    pub repaired_manifest: bool,
}

impl Recovery {
    /// Whether recovery changed anything at all.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.quarantined.is_empty() && self.restored.is_empty() && !self.repaired_manifest
    }
}

fn io_at(path: &Path, e: io::Error) -> StoreError {
    StoreError::io(path, e)
}

/// Checksum sealed into journal `commit` records: FxHash over the
/// manifest's compact JSON encoding.
fn manifest_sum(manifest: &Manifest) -> Result<u64, StoreError> {
    let text = serde_json::to_string(manifest).map_err(|e| StoreError::Json(e.to_string()))?;
    let mut h = FxHasher::default();
    h.write(text.as_bytes());
    Ok(h.finish())
}

fn encode_record(rec: &JournalRecord) -> Result<Vec<u8>, StoreError> {
    let mut line = serde_json::to_string(rec).map_err(|e| StoreError::Json(e.to_string()))?;
    line.push('\n');
    Ok(line.into_bytes())
}

/// Writes (truncating any stale journal) and fsyncs the `begin` record.
fn journal_begin(
    fs: &dyn StoreFs,
    dir: &Path,
    generation: u64,
    segment_rows: u32,
) -> Result<(), StoreError> {
    let rec = JournalRecord {
        version: JOURNAL_VERSION,
        generation,
        state: "begin".to_string(),
        segment_rows,
        sum: 0,
        manifest: None,
    };
    let path = dir.join(JOURNAL_FILE);
    let bytes = encode_record(&rec)?;
    fs.write(&path, &bytes).map_err(|e| io_at(&path, e))?;
    fs.sync(&path).map_err(|e| io_at(&path, e))?;
    fs.sync_dir(dir).map_err(|e| io_at(dir, e))?;
    Ok(())
}

/// Appends and fsyncs the `commit` record — the commit point.
fn journal_seal(fs: &dyn StoreFs, dir: &Path, manifest: &Manifest) -> Result<(), StoreError> {
    let rec = JournalRecord {
        version: JOURNAL_VERSION,
        generation: manifest.generation,
        state: "commit".to_string(),
        segment_rows: manifest.segment_rows,
        sum: manifest_sum(manifest)?,
        manifest: Some(manifest.clone()),
    };
    let path = dir.join(JOURNAL_FILE);
    let bytes = encode_record(&rec)?;
    fs.append(&path, &bytes).map_err(|e| io_at(&path, e))?;
    fs.sync(&path).map_err(|e| io_at(&path, e))?;
    Ok(())
}

/// Atomically publishes `MANIFEST.json`: temp file, fsync, rename,
/// directory fsync.
fn publish_manifest(fs: &dyn StoreFs, dir: &Path, manifest: &Manifest) -> Result<(), StoreError> {
    let text =
        serde_json::to_string_pretty(manifest).map_err(|e| StoreError::Json(e.to_string()))?;
    let tmp = dir.join(format!("{MANIFEST_FILE}.tmp"));
    let dest = dir.join(MANIFEST_FILE);
    fs.write(&tmp, text.as_bytes())
        .map_err(|e| io_at(&tmp, e))?;
    fs.sync(&tmp).map_err(|e| io_at(&tmp, e))?;
    fs.rename(&tmp, &dest).map_err(|e| io_at(&dest, e))?;
    fs.sync_dir(dir).map_err(|e| io_at(dir, e))?;
    Ok(())
}

/// Removes the journal once the manifest is published.
fn retire_journal(fs: &dyn StoreFs, dir: &Path) -> Result<(), StoreError> {
    let path = dir.join(JOURNAL_FILE);
    if fs.exists(&path) {
        fs.remove(&path).map_err(|e| io_at(&path, e))?;
        fs.sync_dir(dir).map_err(|e| io_at(dir, e))?;
    }
    Ok(())
}

/// The seal, after every segment file is durable under its final name.
/// Returns the manifest it published.
fn commit(fs: &dyn StoreFs, dir: &Path, manifest: Manifest) -> Result<Manifest, StoreError> {
    let step = |s: CommitStep| fs.checkpoint(s).map_err(|e| io_at(dir, e));
    fs.sync_dir(dir).map_err(|e| io_at(dir, e))?;
    step(CommitStep::SegmentsDurable)?;
    journal_seal(fs, dir, &manifest)?;
    step(CommitStep::JournalSealed)?;
    publish_manifest(fs, dir, &manifest)?;
    step(CommitStep::ManifestPublished)?;
    retire_journal(fs, dir)?;
    step(CommitStep::JournalRetired)?;
    Ok(manifest)
}

/// The directory a commit of generation `gen` parks replaced segments
/// in: `retired/g<gen>`, zero-padded so lexicographic order is
/// generation order.
pub(crate) fn retired_dir_for(dir: &Path, gen: u64) -> PathBuf {
    dir.join(RETIRED_DIR).join(format!("g{gen:010}"))
}

/// One mutation of a store directory, from its journaled intent to its
/// seal (see the module docs). Dropping a transaction unsealed leaves
/// the directory for recovery to roll back to the previous store.
#[derive(Debug)]
pub(crate) struct Transaction {
    pub(crate) fs: SharedFs,
    pub(crate) dir: PathBuf,
    /// Named by the journaled `begin` record, so fixed for the seal.
    generation: u64,
    /// Rows per segment in the manifest the seal commits.
    pub(crate) segment_rows: u32,
}

impl Transaction {
    /// Begin: journals the intent to commit `generation`, whose manifest
    /// will carry `segment_rows`, before anything in `dir` is touched.
    pub(crate) fn begin(
        fs: SharedFs,
        dir: &Path,
        generation: u64,
        segment_rows: u32,
    ) -> Result<Self, StoreError> {
        journal_begin(&*fs, dir, generation, segment_rows)?;
        fs.checkpoint(CommitStep::Begin)
            .map_err(|e| io_at(dir, e))?;
        Ok(Transaction {
            fs,
            dir: dir.to_path_buf(),
            generation,
            segment_rows,
        })
    }

    /// Replace: moves the committed segment `file` into
    /// `retired/g<gen>/`, where recovery finds it if the seal never
    /// lands, and returns its new path.
    pub(crate) fn retire(&self, file: &str) -> Result<PathBuf, StoreError> {
        let rdir = retired_dir_for(&self.dir, self.generation);
        self.fs.create_dir_all(&rdir).map_err(|e| io_at(&rdir, e))?;
        let (src, dest) = (self.dir.join(file), rdir.join(file));
        self.fs.rename(&src, &dest).map_err(|e| io_at(&src, e))?;
        Ok(dest)
    }

    /// Replace for a whole-store rewrite: retires every segment and
    /// removes stale `*.tmp` debris of earlier interrupted commits.
    pub(crate) fn retire_all(&self) -> Result<(), StoreError> {
        for name in self.fs.list(&self.dir).map_err(|e| io_at(&self.dir, e))? {
            if name.ends_with(".seg") {
                self.retire(&name)?;
            } else if name.ends_with(".tmp") {
                let path = self.dir.join(&name);
                self.fs.remove(&path).map_err(|e| io_at(&path, e))?;
            }
        }
        Ok(())
    }

    /// Seal: commits `segments` as the store's new manifest.
    pub(crate) fn seal(
        self,
        segments: Vec<SegmentMeta>,
        records_read: u64,
    ) -> Result<Manifest, StoreError> {
        let manifest = build_manifest(segments, self.segment_rows, records_read, self.generation);
        commit(&*self.fs, &self.dir, manifest)
    }
}

/// Deletes what the sealed commit of `generation` retired, and the
/// retired root once it is empty: the offline entry points' last step,
/// since no reader of theirs can still hold the displaced files.
pub(crate) fn reclaim(fs: &dyn StoreFs, dir: &Path, generation: u64) -> Result<(), StoreError> {
    let gen_dir = retired_dir_for(dir, generation);
    fs.remove_dir(&gen_dir).map_err(|e| io_at(&gen_dir, e))?;
    let root = dir.join(RETIRED_DIR);
    if fs.list(&root).is_ok_and(|names| names.is_empty()) {
        fs.remove_dir(&root).map_err(|e| io_at(&root, e))?;
    }
    Ok(())
}

/// What a tolerant journal read finds: the newest `begin` intent and the
/// newest checksum-valid committed manifest. Torn trailing lines and
/// unparseable records are skipped — the journal is written
/// crash-first.
#[derive(Debug, Default)]
struct JournalView {
    begin: Option<(u64, u32)>,
    committed: Option<Manifest>,
}

fn read_journal(fs: &dyn StoreFs, dir: &Path) -> JournalView {
    let mut view = JournalView::default();
    let path = dir.join(JOURNAL_FILE);
    let Ok(bytes) = fs.read(&path) else {
        return view;
    };
    let Ok(text) = std::str::from_utf8(&bytes) else {
        return view;
    };
    for line in text.lines() {
        let Ok(rec) = serde_json::from_str::<JournalRecord>(line) else {
            continue;
        };
        if rec.version != JOURNAL_VERSION {
            continue;
        }
        match rec.state.as_str() {
            "begin" if view.begin.is_none_or(|(g, _)| rec.generation >= g) => {
                view.begin = Some((rec.generation, rec.segment_rows));
            }
            "commit" => {
                let Some(manifest) = rec.manifest else {
                    continue;
                };
                if manifest.generation != rec.generation {
                    continue;
                }
                if manifest_sum(&manifest).ok() != Some(rec.sum) {
                    continue;
                }
                if view
                    .committed
                    .as_ref()
                    .is_none_or(|m| manifest.generation >= m.generation)
                {
                    view.committed = Some(manifest);
                }
            }
            _ => {}
        }
    }
    view
}

/// The generation a new commit into `dir` should carry: one past the
/// newest generation any surviving manifest or journal record names.
/// Best-effort by design — unreadable state counts as generation 0.
pub(crate) fn next_generation(fs: &dyn StoreFs, dir: &Path) -> u64 {
    let mut newest = 0u64;
    if let Ok(bytes) = fs.read(&dir.join(MANIFEST_FILE)) {
        if let Ok(m) = parse_manifest(&bytes) {
            newest = newest.max(m.generation);
        }
    }
    let journal = read_journal(fs, dir);
    if let Some((g, _)) = journal.begin {
        newest = newest.max(g);
    }
    if let Some(m) = &journal.committed {
        newest = newest.max(m.generation);
    }
    newest + 1
}

/// Moves `name` into `quarantine/` (keeping a numbered suffix free) and
/// records why. Missing files are recorded without a move.
fn quarantine_file(
    fs: &dyn StoreFs,
    dir: &Path,
    name: &str,
    reason: &str,
    recovery: &mut Recovery,
) -> Result<(), StoreError> {
    let src = dir.join(name);
    if fs.exists(&src) {
        let qdir = dir.join(QUARANTINE_DIR);
        fs.create_dir_all(&qdir).map_err(|e| io_at(&qdir, e))?;
        let mut dest = qdir.join(name);
        let mut n = 1u32;
        while fs.exists(&dest) {
            dest = qdir.join(format!("{name}.{n}"));
            n += 1;
        }
        fs.rename(&src, &dest).map_err(|e| io_at(&src, e))?;
    }
    recovery.quarantined.push(QuarantinedFile {
        file: name.to_string(),
        reason: reason.to_string(),
    });
    Ok(())
}

/// Checks segment bytes against the manifest entry that references
/// them: internal checksum, then row count, shard, and size agreement.
fn check_segment(bytes: &[u8], meta: &SegmentMeta) -> Result<(), String> {
    let check = crate::segment::validate(bytes).map_err(|e| match e {
        StoreError::Corrupt { what, .. } => what,
        other => other.to_string(),
    })?;
    if u64::from(check.rows) != meta.rows {
        return Err(format!(
            "segment holds {} rows, manifest says {}",
            check.rows, meta.rows
        ));
    }
    if u32::from(check.shard) != meta.shard {
        return Err(format!(
            "segment belongs to shard {}, manifest says {}",
            check.shard, meta.shard
        ));
    }
    if bytes.len() as u64 != meta.bytes {
        return Err(format!(
            "segment is {} bytes, manifest says {}",
            bytes.len(),
            meta.bytes
        ));
    }
    Ok(())
}

/// Looks for a displaced copy of `meta`'s file in the retired tree and
/// moves it back into the store root. A transaction retires the files
/// it replaces *before* its commit point; a crash in that window rolls
/// back to a manifest whose segments now sit under `retired/g<gen>/`.
/// Newest retired generation wins; only a copy that validates against
/// the manifest entry is restored.
fn restore_from_retired(
    fs: &dyn StoreFs,
    dir: &Path,
    meta: &SegmentMeta,
) -> Result<bool, StoreError> {
    let root = dir.join(RETIRED_DIR);
    let Ok(mut gens) = fs.list(&root) else {
        return Ok(false);
    };
    gens.sort();
    for gen_name in gens.iter().rev() {
        let candidate = root.join(gen_name).join(&meta.file);
        if !fs.exists(&candidate) {
            continue;
        }
        let bytes = fs.read(&candidate).map_err(|e| io_at(&candidate, e))?;
        if check_segment(&bytes, meta).is_err() {
            continue;
        }
        let dest = dir.join(&meta.file);
        fs.rename(&candidate, &dest)
            .map_err(|e| io_at(&candidate, e))?;
        fs.sync_dir(dir).map_err(|e| io_at(dir, e))?;
        return Ok(true);
    }
    Ok(false)
}

/// Opens a store directory, recovering from any crash point of the
/// commit protocol. Returns the manifest to serve and what recovery had
/// to do. With `strict`, any condition that would quarantine a file or
/// rewrite the manifest is an error instead.
pub(crate) fn recover(
    fs: &dyn StoreFs,
    dir: &Path,
    strict: bool,
) -> Result<(Manifest, Recovery), StoreError> {
    let manifest_path = dir.join(MANIFEST_FILE);
    let journal_path = dir.join(JOURNAL_FILE);
    let journal_present = fs.exists(&journal_path);
    if strict && journal_present {
        return Err(StoreError::quarantined(
            &journal_path,
            "unretired manifest journal: crash recovery required (open without strict to repair)",
        ));
    }

    // The disk manifest, if it parses; damage is remembered, not fatal,
    // because the journal may hold a newer (or identical) copy.
    let mut manifest_damage: Option<StoreError> = None;
    let disk = if fs.exists(&manifest_path) {
        match fs.read(&manifest_path) {
            Err(e) => return Err(io_at(&manifest_path, e)),
            Ok(bytes) => match parse_manifest(&bytes) {
                Ok(m) => Some(m),
                Err(e) => {
                    if strict {
                        return Err(e.with_path(&manifest_path));
                    }
                    manifest_damage = Some(e);
                    None
                }
            },
        }
    } else {
        None
    };

    let journal = read_journal(fs, dir);
    // Newest generation wins; on a tie the journal does — its commit
    // record is written before (and survives) the manifest publish.
    let (chosen, from_journal) = match (disk, journal.committed) {
        (Some(d), Some(j)) => {
            if j.generation >= d.generation {
                (j, true)
            } else {
                (d, false)
            }
        }
        (Some(d), None) => (d, false),
        (None, Some(j)) => (j, true),
        (None, None) => {
            if let Some((generation, rows)) = journal.begin {
                // Crashed after `begin`, before the commit point: the
                // recovered state is the empty store of that intent.
                let rows = if rows == 0 {
                    DEFAULT_SEGMENT_ROWS
                } else {
                    rows
                };
                (build_manifest(Vec::new(), rows, 0, generation), true)
            } else if let Some(e) = manifest_damage {
                return Err(e.with_path(&manifest_path));
            } else {
                return Err(io_at(
                    &manifest_path,
                    io::Error::new(
                        io::ErrorKind::NotFound,
                        "no manifest or journal in store directory",
                    ),
                ));
            }
        }
    };
    let (generation, segment_rows, records_read) =
        (chosen.generation, chosen.segment_rows, chosen.records_read);

    // Validate every referenced segment before serving queries from it:
    // file present, checksum good, header agreeing with the manifest.
    let mut recovery = Recovery::default();
    let mut kept = Vec::with_capacity(chosen.segments.len());
    let mut dropped = false;
    for meta in chosen.segments {
        let path = dir.join(&meta.file);
        let verdict: Result<(), String> = match fs.read(&path) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => Err("segment file missing".into()),
            Err(e) => return Err(io_at(&path, e)),
            Ok(bytes) => check_segment(&bytes, &meta),
        };
        match verdict {
            Ok(()) => kept.push(meta),
            Err(reason) => {
                if strict {
                    return Err(StoreError::corrupt(&path, reason));
                }
                // A damaged copy at the main path must move aside before
                // a retired copy can be renamed back over it.
                if fs.exists(&path) {
                    quarantine_file(fs, dir, &meta.file, &reason, &mut recovery)?;
                }
                if restore_from_retired(fs, dir, &meta)? {
                    recovery.restored.push(meta.file.clone());
                    kept.push(meta);
                } else {
                    if !fs.exists(&path)
                        && !recovery.quarantined.iter().any(|q| q.file == meta.file)
                    {
                        quarantine_file(fs, dir, &meta.file, &reason, &mut recovery)?;
                    }
                    dropped = true;
                }
            }
        }
    }

    // Quarantine what the chosen manifest does not account for: torn
    // temp files and orphan segments from a commit that never sealed.
    let known: std::collections::BTreeSet<&str> = kept.iter().map(|m| m.file.as_str()).collect();
    for name in fs.list(dir).map_err(|e| io_at(dir, e))? {
        let is_tmp = name.ends_with(".tmp");
        let is_orphan_seg = name.ends_with(".seg") && !known.contains(name.as_str());
        if !(is_tmp || is_orphan_seg) {
            continue;
        }
        let reason = if is_tmp {
            "temporary file from an interrupted commit"
        } else {
            "segment not referenced by the recovered manifest"
        };
        if strict {
            return Err(StoreError::quarantined(dir.join(&name), reason));
        }
        quarantine_file(fs, dir, &name, reason, &mut recovery)?;
    }

    let manifest = build_manifest(kept, segment_rows, records_read, generation);
    let needs_republish = dropped || from_journal || manifest_damage.is_some();
    if needs_republish {
        publish_manifest(fs, dir, &manifest)?;
    }
    if journal_present {
        retire_journal(fs, dir)?;
    }
    recovery.repaired_manifest = needs_republish;
    Ok((manifest, recovery))
}
