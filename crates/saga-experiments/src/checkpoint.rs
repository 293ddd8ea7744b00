//! The resumable keyed-JSONL checkpoint behind every grid driver: each
//! finished unit is appended and flushed as one `{"key": …}` line, and a
//! `--resume` run replays stored keys instead of re-running them. The two
//! record kinds ([`CellCheckpoint`] for search cells, [`RowCheckpoint`] for
//! fig2 makespan rows) differ only in their [`Record`] codec.
//!
//! `saga-merge` ([`crate::merge`]) and the witness library keep their own
//! readers on purpose: merge must not decode records and preserves line
//! bytes, and the library is a keyless file read whole.

use saga_core::Instance;
use saga_pisa::PisaResult;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::sync::Mutex;

fn invalid_data(e: impl ToString) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

/// How one kind of unit becomes a checkpoint line and back. Unnameable
/// outside the crate (the module is private): the two implementations
/// below are the whole on-disk contract.
pub trait Record: Serialize + Deserialize {
    /// What a replay hands back.
    type Value: Clone;
    /// What [`Checkpoint::record`] takes (a slice for rows).
    type Input: ?Sized;
    /// The units' plural noun in messages ("cells", "rows").
    const UNITS: &'static str;
    /// The line for `key` holding `value`.
    fn encode(key: &str, value: &Self::Input) -> io::Result<Self>;
    /// The key and stored value, or `None` when the line does not decode.
    fn decode(self) -> Option<(String, Self::Value)>;
}

/// A keyed JSONL checkpoint. Keys encode everything a result depends on
/// (a [`SearchCell::key`](saga_pisa::SearchCell::key) carries the budget,
/// seed and a config digest), so changing `--imax`/`--restarts`/`--seed`
/// makes old lines unmatchable rather than silently wrong. Malformed lines
/// — torn by a crash, a flipped byte — are counted, reported and skipped,
/// so they only cost re-running the affected units.
pub struct Checkpoint<R: Record> {
    done: BTreeMap<String, R::Value>,
    file: Mutex<std::fs::File>,
    skipped: usize,
}

/// The [`Checkpoint`] of adversarial-search cells.
pub type CellCheckpoint = Checkpoint<CellRecord>;

/// The [`Checkpoint`] of keyed fig2 makespan rows (there is no
/// [`SearchCell`](saga_pisa::SearchCell) behind a benchmarking row, so the
/// row's key string is the contract instead).
pub type RowCheckpoint = Checkpoint<RowRecord>;

impl<R: Record> Checkpoint<R> {
    /// Opens `path` for checkpointing. With `resume`, existing well-formed
    /// lines load for replay and new units append after them; malformed
    /// ones (not UTF-8 included) are counted ([`skipped`](Self::skipped)),
    /// warned about per line and summarized on stderr. Without `resume`
    /// the file is truncated.
    pub fn open(path: &Path, resume: bool) -> io::Result<Self> {
        let mut done = BTreeMap::new();
        let mut skipped = 0usize;
        let mut torn_tail = false;
        if resume {
            match std::fs::read(path) {
                Ok(bytes) => {
                    torn_tail = bytes.last().is_some_and(|&b| b != b'\n');
                    for (lineno, line) in bytes.split(|&b| b == b'\n').enumerate() {
                        let text = std::str::from_utf8(line).ok();
                        if text.is_some_and(|t| t.trim().is_empty()) {
                            continue;
                        }
                        let parsed = text
                            .and_then(|t| serde_json::from_str::<R>(t).ok())
                            .and_then(R::decode);
                        match parsed {
                            Some((key, value)) => {
                                done.insert(key, value);
                            }
                            None => {
                                skipped += 1;
                                eprintln!(
                                    "[checkpoint] skipping malformed line {} of {}",
                                    lineno + 1,
                                    path.display()
                                );
                            }
                        }
                    }
                    if skipped > 0 {
                        eprintln!(
                            "[checkpoint] {} corrupted/unparseable line(s) skipped in {} — \
                             the affected {} will re-run",
                            skipped,
                            path.display(),
                            R::UNITS
                        );
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => return Err(e),
            }
        }
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(resume)
            .truncate(!resume)
            .write(true)
            .open(path)?;
        if torn_tail {
            // a crash mid-append left a torn final line (already skipped
            // above); terminate it so the next record starts on its own
            // line instead of merging into — and corrupting — the tear
            writeln!(file)?;
        }
        Ok(Checkpoint {
            done,
            file: Mutex::new(file),
            skipped,
        })
    }

    /// Number of units loaded from the file for replay.
    pub fn loaded(&self) -> usize {
        self.done.len()
    }

    /// Number of malformed lines skipped while loading for resume (0 for a
    /// fresh run).
    pub fn skipped(&self) -> usize {
        self.skipped
    }

    /// The stored value for `key`, if the checkpoint has it.
    pub fn stored(&self, key: &str) -> Option<R::Value> {
        self.done.get(key).cloned()
    }

    /// Appends one finished unit and flushes, so an interruption loses at
    /// most the units in flight. An I/O failure (full disk, closed pipe) is
    /// returned instead of panicking, so the driver can finish the batch
    /// and surface the error with everything already recorded still intact.
    pub fn record(&self, key: &str, value: &R::Input) -> io::Result<()> {
        let line = serde_json::to_string(&R::encode(key, value)?).map_err(invalid_data)?;
        // a poisoned file mutex still wraps a usable handle: the writer that
        // panicked completed or abandoned its line, and ours appends whole
        let mut file = self
            .file
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        writeln!(file, "{line}")?;
        file.flush()
    }
}

/// One completed cell, as persisted in a [`CellCheckpoint`]. The ratio and
/// initial-ratio fields are stored as `f64::to_bits` hex strings — the
/// checkpoint must replay *bit-identical* results, and JSON float printing
/// wouldn't round-trip exactly (nor encode the unbounded cells' infinities).
/// `ratio` repeats the value as a plain float purely for human readers;
/// `None` encodes an unbounded cell, mirroring the witness-library format.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CellRecord {
    key: String,
    ratio_bits: String,
    initial_bits: String,
    evaluations: usize,
    ratio: Option<f64>,
    instance: serde_json::Value,
}

impl Record for CellRecord {
    type Value = PisaResult;
    type Input = PisaResult;
    const UNITS: &'static str = "cells";

    fn encode(key: &str, res: &PisaResult) -> io::Result<Self> {
        Ok(CellRecord {
            key: key.to_string(),
            ratio_bits: format!("{:016x}", res.ratio.to_bits()),
            initial_bits: format!("{:016x}", res.initial_ratio.to_bits()),
            evaluations: res.evaluations,
            ratio: res.ratio.is_finite().then_some(res.ratio),
            instance: serde_json::from_str(&res.instance.to_json()).map_err(invalid_data)?,
        })
    }

    fn decode(self) -> Option<(String, PisaResult)> {
        let bits = |s: &str| u64::from_str_radix(s, 16).ok().map(f64::from_bits);
        let res = PisaResult {
            instance: Instance::from_json(&self.instance.to_string()).ok()?,
            ratio: bits(&self.ratio_bits)?,
            initial_ratio: bits(&self.initial_bits)?,
            evaluations: self.evaluations,
        };
        Some((self.key, res))
    }
}

/// One keyed makespan row, as persisted in a [`RowCheckpoint`]. Makespans
/// are stored as space-joined `f64::to_bits` hex words — replay must be
/// bit-identical and JSON float printing wouldn't round-trip infinities or
/// the last ulp.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RowRecord {
    key: String,
    bits: String,
}

impl Record for RowRecord {
    type Value = Vec<f64>;
    type Input = [f64];
    const UNITS: &'static str = "rows";

    fn encode(key: &str, row: &[f64]) -> io::Result<Self> {
        let bits: Vec<String> = row
            .iter()
            .map(|m| format!("{:016x}", m.to_bits()))
            .collect();
        Ok(RowRecord {
            key: key.to_string(),
            bits: bits.join(" "),
        })
    }

    fn decode(self) -> Option<(String, Vec<f64>)> {
        let row = self
            .bits
            .split_whitespace()
            .map(|w| u64::from_str_radix(w, 16).ok().map(f64::from_bits))
            .collect::<Option<Vec<f64>>>()?;
        Some((self.key, row))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkpoint_lines_keep_their_on_disk_format() {
        // the JSONL bytes are a contract (resume, saga-merge, shard files
        // copied between hosts): pin a finite cell, an unbounded cell, a
        // row holding an infinity and a last-ulp float, and an empty row —
        // and replay them bit for bit
        use saga_core::{Network, TaskGraph};
        let mut g = TaskGraph::new();
        let a = g.add_task("a", 1.5);
        let b = g.add_task("b", 2.0);
        g.add_dependency(a, b, 0.5).unwrap();
        let inst = Instance::new(Network::complete(&[1.0, 2.0], 1.0), g);
        let dir = std::env::temp_dir();
        let cells = dir.join(format!("saga_ckpt_pin_{}_cells.jsonl", std::process::id()));
        let rows = dir.join(format!("saga_ckpt_pin_{}_rows.jsonl", std::process::id()));
        let finite = PisaResult {
            instance: inst.clone(),
            ratio: 1.25,
            initial_ratio: 1.0,
            evaluations: 42,
        };
        let unbounded = PisaResult {
            instance: inst,
            ratio: f64::INFINITY,
            initial_ratio: 1.5,
            evaluations: 7,
        };
        let ck = CellCheckpoint::open(&cells, false).unwrap();
        ck.record("pair/HEFT~CPoP#i1#r1#s0000000000000001", &finite)
            .unwrap();
        ck.record("pair/CPoP~HEFT#i1#r1#s0000000000000002", &unbounded)
            .unwrap();
        drop(ck);
        let ck = RowCheckpoint::open(&rows, false).unwrap();
        let row = vec![1.5, f64::INFINITY, 0.1 + 0.2];
        ck.record("fig2/chains#k0#s000000000000f162", &row).unwrap();
        ck.record("fig2/chains#k1#s000000000000f162", &[]).unwrap();
        drop(ck);
        let cell_lines = [
            r#"{"key":"pair/HEFT~CPoP#i1#r1#s0000000000000001","ratio_bits":"3ff4000000000000","initial_bits":"3ff0000000000000","evaluations":42,"ratio":1.25,"instance":{"speeds":[1,2],"links":[null,1,1,null],"tasks":[["a",1.5],["b",2]],"deps":[[0,1,0.5]]}}"#,
            r#"{"key":"pair/CPoP~HEFT#i1#r1#s0000000000000002","ratio_bits":"7ff0000000000000","initial_bits":"3ff8000000000000","evaluations":7,"ratio":null,"instance":{"speeds":[1,2],"links":[null,1,1,null],"tasks":[["a",1.5],["b",2]],"deps":[[0,1,0.5]]}}"#,
        ];
        let row_lines = [
            r#"{"key":"fig2/chains#k0#s000000000000f162","bits":"3ff8000000000000 7ff0000000000000 3fd3333333333334"}"#,
            r#"{"key":"fig2/chains#k1#s000000000000f162","bits":""}"#,
        ];
        assert_eq!(
            std::fs::read_to_string(&cells).unwrap(),
            format!("{}\n{}\n", cell_lines[0], cell_lines[1])
        );
        assert_eq!(
            std::fs::read_to_string(&rows).unwrap(),
            format!("{}\n{}\n", row_lines[0], row_lines[1])
        );
        let bits = |v: &[f64]| v.iter().map(|m| m.to_bits()).collect::<Vec<_>>();
        let ck = RowCheckpoint::open(&rows, true).unwrap();
        assert_eq!(
            bits(&ck.stored("fig2/chains#k0#s000000000000f162").unwrap()),
            bits(&row)
        );
        assert_eq!(ck.stored("fig2/chains#k1#s000000000000f162"), Some(vec![]));
        let ck = CellCheckpoint::open(&cells, true).unwrap();
        for (key, want) in [
            ("pair/HEFT~CPoP#i1#r1#s0000000000000001", &finite),
            ("pair/CPoP~HEFT#i1#r1#s0000000000000002", &unbounded),
        ] {
            let got = ck.stored(key).unwrap();
            assert_eq!(
                bits(&[got.ratio, got.initial_ratio]),
                bits(&[want.ratio, want.initial_ratio])
            );
            assert_eq!(got.evaluations, want.evaluations);
            assert_eq!(got.instance.to_json(), want.instance.to_json());
        }
        let _ = std::fs::remove_file(&cells);
        let _ = std::fs::remove_file(&rows);
    }
}
