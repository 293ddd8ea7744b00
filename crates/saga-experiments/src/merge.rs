//! Checkpoint-union logic behind the `saga-merge` bin.
//!
//! A sharded grid run leaves N checkpoint JSONL files, one per host
//! (`--shard i/N` ⇒ `…cells.shard{i}of{N}.jsonl`). [`merge_files`] unions
//! them back into one checkpoint with the guarantees distribution needs:
//!
//! * **Format-agnostic** — any JSONL whose lines are objects with a string
//!   `"key"` field merges (both record kinds of the checkpoint layer:
//!   [`CellCheckpoint`](crate::engine::CellCheckpoint) cells and
//!   [`RowCheckpoint`](crate::engine::RowCheckpoint) fig2 rows). Records are
//!   *never* decoded or reserialized — which is why this reader stays apart
//!   from the checkpoint's own — so the output carries each input line's
//!   exact bytes and bit-encoded floats survive untouched.
//! * **Collision-verified** — a key appearing in several inputs must carry
//!   byte-identical record lines everywhere (a re-run shard, a doubled
//!   input); identical duplicates are dropped and counted, *conflicting*
//!   duplicates are a hard error naming the key and both files, because two
//!   different results for one deterministic cell mean a corrupted or
//!   mislabeled shard.
//! * **Torn-line-tolerant** — malformed lines (a crash mid-append on some
//!   host) are counted per input and skipped, mirroring the checkpoint's
//!   resume reader.
//! * **Canonical output** — records are written sorted by key. Checkpoint
//!   files append in completion order, which varies with thread count and
//!   scheduling, so byte-identity between a merged N-host run and a 1-host
//!   run is defined over this canonical form: merging the single 1-host
//!   file canonicalizes it, and the two outputs must then be byte-identical
//!   (CI enforces exactly that).

use std::collections::BTreeMap;
use std::fmt;
use std::io::Write;
use std::path::{Path, PathBuf};

/// What [`merge_files`] did: counts for the human-readable summary and for
/// tests asserting torn/duplicate accounting.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MergeSummary {
    /// Input files read.
    pub inputs: usize,
    /// Unique records written (one line per key).
    pub records: usize,
    /// Byte-identical duplicate lines dropped (same key, same bytes).
    pub duplicates: usize,
    /// Malformed/torn lines skipped across all inputs.
    pub torn: usize,
}

impl fmt::Display for MergeSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} record(s) from {} file(s), {} duplicate(s) dropped, {} torn line(s) skipped",
            self.records, self.inputs, self.duplicates, self.torn
        )
    }
}

/// Why a merge refused to produce output.
#[derive(Debug)]
pub enum MergeError {
    /// Reading an input or writing the output failed.
    Io(PathBuf, std::io::Error),
    /// One key carries two different record lines — a corrupted or
    /// mislabeled shard; merging would silently pick a winner, so it's a
    /// hard error instead.
    Conflict {
        /// The colliding checkpoint key.
        key: String,
        /// The file that contributed the first record for the key.
        first: PathBuf,
        /// The file whose record for the key differs.
        second: PathBuf,
    },
}

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MergeError::Io(path, e) => write!(f, "{}: {e}", path.display()),
            MergeError::Conflict { key, first, second } => write!(
                f,
                "conflicting records for key `{key}`: {} and {} disagree \
                 (a deterministic cell cannot have two results — check for a \
                 mislabeled shard or a stale checkpoint)",
                first.display(),
                second.display()
            ),
        }
    }
}

impl std::error::Error for MergeError {}

/// The checkpoint key of one JSONL line, if the line is a well-formed
/// object with a string `"key"` field.
fn line_key(line: &str) -> Option<String> {
    let value: serde_json::Value = serde_json::from_str(line).ok()?;
    Some(value.get("key")?.as_str()?.to_string())
}

/// Unions checkpoint JSONL `inputs` into `out` (canonical key-sorted order,
/// original line bytes). See the [module docs](self) for the contract.
pub fn merge_files(inputs: &[PathBuf], out: &mut dyn Write) -> Result<MergeSummary, MergeError> {
    let mut records: BTreeMap<String, (String, usize)> = BTreeMap::new();
    let mut summary = MergeSummary {
        inputs: inputs.len(),
        ..MergeSummary::default()
    };
    for (file_idx, path) in inputs.iter().enumerate() {
        let text = std::fs::read_to_string(path).map_err(|e| MergeError::Io(path.clone(), e))?;
        for line in text.lines() {
            if line.trim().is_empty() {
                continue;
            }
            let Some(key) = line_key(line) else {
                summary.torn += 1;
                continue;
            };
            match records.get(&key) {
                None => {
                    records.insert(key, (line.to_string(), file_idx));
                }
                Some((existing, first_idx)) if existing == line => {
                    let _ = first_idx;
                    summary.duplicates += 1;
                }
                Some((_, first_idx)) => {
                    return Err(MergeError::Conflict {
                        key,
                        first: inputs[*first_idx].clone(),
                        second: path.clone(),
                    });
                }
            }
        }
    }
    summary.records = records.len();
    for (line, _) in records.values() {
        writeln!(out, "{line}").map_err(|e| MergeError::Io(PathBuf::from("<output>"), e))?;
    }
    Ok(summary)
}

/// [`merge_files`] writing to a path (atomically enough for CI: a temp
/// sibling renamed into place, so a crash never leaves a half-written
/// merge that looks complete).
pub fn merge_to_path(inputs: &[PathBuf], out: &Path) -> Result<MergeSummary, MergeError> {
    let tmp = out.with_extension("jsonl.tmp");
    let mut buf: Vec<u8> = Vec::new();
    let summary = merge_files(inputs, &mut buf)?;
    std::fs::write(&tmp, &buf).map_err(|e| MergeError::Io(tmp.clone(), e))?;
    std::fs::rename(&tmp, out).map_err(|e| MergeError::Io(out.to_path_buf(), e))?;
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str, content: &str) -> PathBuf {
        let path = std::env::temp_dir().join(format!("saga_merge_{}_{name}", std::process::id()));
        std::fs::write(&path, content).unwrap();
        path
    }

    #[test]
    fn merges_disjoint_shards_sorted_by_key() {
        let a = tmp(
            "a.jsonl",
            "{\"key\":\"z\",\"v\":1}\n{\"key\":\"b\",\"v\":2}\n",
        );
        let b = tmp("b.jsonl", "{\"key\":\"a\",\"v\":3}\n");
        let mut out = Vec::new();
        let summary = merge_files(&[a.clone(), b.clone()], &mut out).unwrap();
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "{\"key\":\"a\",\"v\":3}\n{\"key\":\"b\",\"v\":2}\n{\"key\":\"z\",\"v\":1}\n"
        );
        assert_eq!(summary.records, 3);
        assert_eq!(summary.duplicates, 0);
        assert_eq!(summary.torn, 0);
        let _ = std::fs::remove_file(a);
        let _ = std::fs::remove_file(b);
    }

    #[test]
    fn merge_is_idempotent_and_canonicalizing() {
        // merging a single file sorts it by key without touching line bytes
        // — the canonical form CI compares against
        let a = tmp(
            "canon.jsonl",
            "{\"key\":\"c\",\"bits\":\"3ff0000000000000\"}\n{\"key\":\"a\",\"bits\":\"7ff0000000000000\"}\n",
        );
        let mut once = Vec::new();
        merge_files(std::slice::from_ref(&a), &mut once).unwrap();
        let canon = tmp("canon2.jsonl", std::str::from_utf8(&once).unwrap());
        let mut twice = Vec::new();
        merge_files(std::slice::from_ref(&canon), &mut twice).unwrap();
        assert_eq!(once, twice, "canonical form must be a fixed point");
        assert!(String::from_utf8(once)
            .unwrap()
            .starts_with("{\"key\":\"a\""));
        let _ = std::fs::remove_file(a);
        let _ = std::fs::remove_file(canon);
    }

    #[test]
    fn identical_duplicates_dedupe_but_conflicts_are_fatal() {
        let a = tmp("dup_a.jsonl", "{\"key\":\"k\",\"v\":1}\n");
        let b = tmp("dup_b.jsonl", "{\"key\":\"k\",\"v\":1}\n");
        let mut out = Vec::new();
        let summary = merge_files(&[a.clone(), b.clone()], &mut out).unwrap();
        assert_eq!(summary.records, 1);
        assert_eq!(summary.duplicates, 1);

        let c = tmp("dup_c.jsonl", "{\"key\":\"k\",\"v\":2}\n");
        let err = merge_files(&[a.clone(), c.clone()], &mut Vec::new()).unwrap_err();
        match err {
            MergeError::Conflict { key, first, second } => {
                assert_eq!(key, "k");
                assert_eq!(first, a);
                assert_eq!(second, c);
            }
            other => panic!("expected Conflict, got {other}"),
        }
        let _ = std::fs::remove_file(a);
        let _ = std::fs::remove_file(b);
        let _ = std::fs::remove_file(c);
    }

    #[test]
    fn torn_lines_are_counted_and_skipped() {
        let a = tmp(
            "torn.jsonl",
            "{\"key\":\"good\",\"v\":1}\nnot json at all\n{\"nokey\":true}\n{\"key\":\"tr",
        );
        let mut out = Vec::new();
        let summary = merge_files(std::slice::from_ref(&a), &mut out).unwrap();
        assert_eq!(summary.records, 1);
        assert_eq!(
            summary.torn, 3,
            "bad JSON, missing key, and the tear all count"
        );
        let _ = std::fs::remove_file(a);
    }

    #[test]
    fn missing_input_is_an_io_error() {
        let missing = PathBuf::from("/nonexistent/saga_merge_test.jsonl");
        let err = merge_files(std::slice::from_ref(&missing), &mut Vec::new()).unwrap_err();
        assert!(matches!(err, MergeError::Io(p, _) if p == missing));
    }
}
