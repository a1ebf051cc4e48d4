//! Byte-level comparison of two store (or chain) directories.
//!
//! Determinism checks compare a store with its replay, a resumed run with
//! an unkilled one, or stores written at different `--jobs`. They all ask
//! the same question: do the committed files match byte for byte? Crash
//! debris under `quarantine/` and readers' leftovers under `retired/` are
//! not committed state, so they are skipped.

use crate::{StoreError, QUARANTINE_DIR, RETIRED_DIR};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::{Path, PathBuf};

/// The outcome of [`diff_dirs`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DirDiff {
    /// Same file set, same bytes.
    Identical {
        /// Files compared.
        files: usize,
    },
    /// The first file, in name order, that only one side has.
    OnlyIn {
        /// Path relative to the directory, `/`-separated.
        file: String,
        /// The directory that has it.
        dir: PathBuf,
    },
    /// The first file, in name order, whose bytes differ.
    Differs {
        /// Path relative to the directory, `/`-separated.
        file: String,
        /// Offset of the first differing byte (the shorter length when
        /// one file is a prefix of the other).
        offset: u64,
    },
}

impl fmt::Display for DirDiff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DirDiff::Identical { files } => write!(f, "identical ({files} files)"),
            DirDiff::OnlyIn { file, dir } => write!(f, "{file}: only in {}", dir.display()),
            DirDiff::Differs { file, offset } => write!(f, "{file}: differs at byte {offset}"),
        }
    }
}

/// Adds the files under `dir` to `out`, keyed by `/`-separated path
/// relative to the walk's root, skipping the root's quarantine and
/// retired directories.
fn walk(dir: &Path, prefix: &str, out: &mut BTreeMap<String, PathBuf>) -> Result<(), StoreError> {
    for entry in std::fs::read_dir(dir).map_err(|e| StoreError::io(dir, e))? {
        let path = entry.map_err(|e| StoreError::io(dir, e))?.path();
        let name = format!(
            "{prefix}{}",
            path.file_name().unwrap_or_default().to_string_lossy()
        );
        if !path.is_dir() {
            out.insert(name, path);
        } else if !(prefix.is_empty() && (name == QUARANTINE_DIR || name == RETIRED_DIR)) {
            walk(&path, &format!("{name}/"), out)?;
        }
    }
    Ok(())
}

/// Compares the committed files of directories `a` and `b`, reporting
/// the first difference in file-name order.
///
/// # Errors
/// When either directory or one of its files cannot be read.
pub fn diff_dirs(a: &Path, b: &Path) -> Result<DirDiff, StoreError> {
    let (mut fa, mut fb) = (BTreeMap::new(), BTreeMap::new());
    walk(a, "", &mut fa)?;
    walk(b, "", &mut fb)?;
    let names: BTreeSet<&String> = fa.keys().chain(fb.keys()).collect();
    for name in names {
        let (pa, pb) = match (fa.get(name), fb.get(name)) {
            (Some(pa), Some(pb)) => (pa, pb),
            (side, _) => {
                return Ok(DirDiff::OnlyIn {
                    file: name.clone(),
                    dir: if side.is_some() { a } else { b }.to_path_buf(),
                })
            }
        };
        let ba = std::fs::read(pa).map_err(|e| StoreError::io(pa, e))?;
        let bb = std::fs::read(pb).map_err(|e| StoreError::io(pb, e))?;
        if ba != bb {
            let offset = ba
                .iter()
                .zip(&bb)
                .position(|(x, y)| x != y)
                .unwrap_or(ba.len().min(bb.len()));
            return Ok(DirDiff::Differs {
                file: name.clone(),
                offset: offset as u64,
            });
        }
    }
    Ok(DirDiff::Identical { files: fa.len() })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn put(dir: &Path, rel: &str, bytes: &[u8]) {
        let p = dir.join(rel);
        std::fs::create_dir_all(p.parent().expect("has parent")).expect("mkdir");
        std::fs::write(p, bytes).expect("write");
    }

    #[test]
    fn reports_the_first_difference_and_skips_debris() {
        let root = std::env::temp_dir().join(format!("iri-store-diff-{}", std::process::id()));
        let (a, b) = (root.join("a"), root.join("b"));
        let _ = std::fs::remove_dir_all(&root);
        for d in [&a, &b] {
            put(d, "MANIFEST.json", b"{}");
            put(d, "sub/s00.seg", b"abcdef");
        }
        put(&a, "quarantine/bad.seg", b"x");
        put(&b, "retired/g2/old.seg", b"y");
        assert_eq!(diff_dirs(&a, &b).unwrap(), DirDiff::Identical { files: 2 });
        put(&b, "sub/s00.seg", b"abcXef");
        assert_eq!(
            diff_dirs(&a, &b).unwrap().to_string(),
            "sub/s00.seg: differs at byte 3"
        );
        put(&b, "sub/s00.seg", b"abc");
        assert_eq!(
            diff_dirs(&a, &b).unwrap().to_string(),
            "sub/s00.seg: differs at byte 3"
        );
        put(&b, "sub/s00.seg", b"abcdef");
        put(&b, "extra", b"");
        let only_b = DirDiff::OnlyIn {
            file: "extra".to_owned(),
            dir: b.clone(),
        };
        assert_eq!(diff_dirs(&a, &b).unwrap(), only_b);
        assert!(matches!(
            diff_dirs(&a, &root.join("c")),
            Err(StoreError::Io { .. })
        ));
        let _ = std::fs::remove_dir_all(&root);
    }
}
