//! The shared batch experiment engine.
//!
//! Every paper experiment is a grid of independent cells — (dataset ×
//! instance × scheduler), (witness × candidate), (workflow × realization) —
//! and before this engine existed each binary walked its grid sequentially,
//! rebuilding cost tables and reallocating contexts per run. The engine
//! factors the common machinery out once:
//!
//! * **Sharding** — cells fan out across rayon workers (the vendored rayon
//!   runs per-worker work-stealing deques, so skewed cells — mixed-size
//!   datasets, pairwise blowup cells — don't straggle on one worker);
//! * **Context reuse** — each worker takes one warm [`SchedContext`] from a
//!   shared [`ContextPool`] via `map_init` and keeps it for its whole run,
//!   so cells allocate nothing after warm-up, and the pool keeps the warmth
//!   across batches;
//! * **Table pinning** — [`BatchEngine::makespans`] evaluates all `k`
//!   schedulers of a cell under [`SchedContext::with_pinned`], building the
//!   exec/link cost tables once per instance instead of once per
//!   (instance, scheduler);
//! * **Determinism** — cells must not share mutable state (per-cell RNG
//!   streams come from [`derive_seed`]), and results are collected in input
//!   order, so every experiment's output is bit-identical for any
//!   `RAYON_NUM_THREADS`;
//! * **Progress** — [`Progress`] emits monotone `done/total` counts from an
//!   atomic counter, coherent under concurrency (the old per-dataset
//!   `eprintln!` assumed sequential execution).

use crate::checkpoint::{Checkpoint, Record};
use crate::cli;
use rayon::prelude::*;
use saga_core::{BatchedSchedContext, ContextPool, Instance, SchedContext};
use saga_pisa::annealer::AnnealScratch;
use saga_pisa::{PisaResult, SearchCell};
use saga_schedulers::Scheduler;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

pub use crate::checkpoint::{CellCheckpoint, RowCheckpoint};
pub use saga_core::derive_seed;

/// A coherent, concurrency-safe progress reporter for batch runs.
///
/// Cells tick an atomic counter; a line is printed every `total/20` cells
/// (and at completion), each as a single `eprintln!` with a monotone count —
/// so interleaved workers can never print out-of-order or garbled progress.
pub struct Progress {
    label: String,
    total: usize,
    every: usize,
    done: AtomicUsize,
    claims: AtomicUsize,
    steals: AtomicUsize,
}

impl Progress {
    /// A reporter for `total` cells under the given label.
    pub fn new(label: impl Into<String>, total: usize) -> Self {
        Progress {
            label: label.into(),
            total,
            every: (total / 20).max(1),
            done: AtomicUsize::new(0),
            claims: AtomicUsize::new(0),
            steals: AtomicUsize::new(0),
        }
    }

    /// Records one completed cell, printing at the configured cadence.
    pub fn tick(&self) {
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        if done.is_multiple_of(self.every) || done == self.total {
            eprintln!("[{}] {done}/{} cells", self.label, self.total);
        }
    }

    /// Number of cells completed so far.
    pub fn completed(&self) -> usize {
        self.done.load(Ordering::Relaxed)
    }

    /// Folds one parallel run's scheduler counters into this reporter's
    /// claim/steal totals, and — under `SAGA_WORKER_STATS=1` — prints the
    /// per-worker imbalance summary.
    pub fn note_worker_stats(&self, stats: &rayon::RunStats) {
        self.claims
            .fetch_add(stats.total_claims(), Ordering::Relaxed);
        self.steals
            .fetch_add(stats.total_steals(), Ordering::Relaxed);
        if worker_stats_enabled() {
            eprintln!(
                "[{}] workers: {} claims: {:?} steals: {:?} items: {:?} imbalance: {:.2}x",
                self.label,
                stats.workers(),
                stats.claims,
                stats.steals,
                stats.items,
                stats.imbalance(),
            );
        }
    }

    /// Total chunk claims observed across the runs folded into this
    /// reporter.
    pub fn claims(&self) -> usize {
        self.claims.load(Ordering::Relaxed)
    }

    /// Total work steals observed across the runs folded into this
    /// reporter (0 under the sequential short-circuit).
    pub fn steals(&self) -> usize {
        self.steals.load(Ordering::Relaxed)
    }
}

/// Whether per-worker scheduler summaries print after each parallel run.
/// Set `SAGA_WORKER_STATS=1` to enable; read once per process.
pub fn worker_stats_enabled() -> bool {
    static FLAG: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *FLAG.get_or_init(|| std::env::var_os("SAGA_WORKER_STATS").is_some_and(|v| v == "1"))
}

/// Hands the just-finished parallel run's scheduler counters to `progress`
/// (claim/steal accumulation + the optional `SAGA_WORKER_STATS` summary).
/// Advisory: the stats slot is global, so a run issued concurrently from
/// another thread may take it first — counters are diagnostics, not truth.
fn observe_workers(progress: Option<&Progress>) {
    if let (Some(p), Some(stats)) = (progress, rayon::take_last_run_stats()) {
        p.note_worker_stats(&stats);
    }
}

/// A parallel run's checkpoint writes and their first error. Once a write
/// has failed, workers start no new units (their results would be
/// discarded with the error anyway) and the run returns that error, with
/// everything recorded before it already flushed — a `--resume` continues
/// from there.
#[derive(Default)]
struct WriteLatch {
    write_error: Mutex<Option<std::io::Error>>,
    failed: AtomicBool,
}

impl WriteLatch {
    fn record<R: Record>(&self, checkpoint: Option<&Checkpoint<R>>, key: &str, value: &R::Input) {
        let Some(Err(e)) = checkpoint.map(|c| c.record(key, value)) else {
            return;
        };
        // a poisoned slot still holds a coherent Option; recover it rather
        // than abort
        let mut slot = self
            .write_error
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if slot.is_none() {
            *slot = Some(e);
        }
        self.failed.store(true, Ordering::Relaxed);
    }

    fn tripped(&self) -> bool {
        self.failed.load(Ordering::Relaxed)
    }

    fn finish<T>(self, done: T) -> std::io::Result<T> {
        let first_error = self
            .write_error
            .into_inner()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        match first_error {
            Some(e) => Err(e),
            None => Ok(done),
        }
    }
}

/// The batch evaluation engine. Owns the context pool; one engine per
/// binary is enough (and keeps contexts warm across datasets).
#[derive(Default)]
pub struct BatchEngine {
    pool: ContextPool,
}

impl BatchEngine {
    /// A fresh engine with an empty context pool.
    pub fn new() -> Self {
        BatchEngine::default()
    }

    /// Shards `cells` across workers. For cell functions that don't need a
    /// scheduling context (dataset sampling, profiling). Results come back
    /// in input order regardless of thread count.
    pub fn map<T, R>(&self, cells: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R>
    where
        T: Send,
        R: Send,
    {
        cells.into_par_iter().map(f).collect()
    }

    /// Shards `cells` across workers, handing each worker one warm
    /// [`SchedContext`] from the pool for its whole run. Results come back
    /// in input order regardless of thread count.
    pub fn map_ctx<T, R>(
        &self,
        cells: Vec<T>,
        f: impl Fn(&mut SchedContext, T) -> R + Sync,
    ) -> Vec<R>
    where
        T: Send,
        R: Send,
    {
        cells
            .into_par_iter()
            .map_init(|| self.pool.take(), |ctx, cell| f(ctx, cell))
            .collect()
    }

    /// [`map_ctx`](Self::map_ctx) on the calling thread: same pooled
    /// warm-context reuse, no fan-out. For timing-sensitive cells —
    /// concurrent workers timing wall-clock on shared cores would inflate
    /// each other's measurements and make them vary with thread count.
    pub fn map_ctx_seq<T, R>(
        &self,
        cells: Vec<T>,
        mut f: impl FnMut(&mut SchedContext, T) -> R,
    ) -> Vec<R> {
        let mut ctx = self.pool.take();
        cells.into_iter().map(|cell| f(&mut ctx, cell)).collect()
    }

    /// Runs a grid of adversarial-search cells — the fig4-class workload.
    /// Cells shard across workers via `map_init`; each worker holds one warm
    /// [`PooledContext`](saga_core::PooledContext) and one
    /// [`AnnealScratch`] for its whole run, so back-to-back cells (and every
    /// restart within a cell) reuse the same buffers. Results come back in
    /// cell order regardless of thread count, and each cell's RNG streams
    /// are baked into the cell itself, so output is bit-identical for any
    /// `RAYON_NUM_THREADS`.
    ///
    /// With a [`CellCheckpoint`], finished cells are appended as they
    /// complete and cells already present (matched by [`SearchCell::key`])
    /// replay instead of re-running. A write failure (full disk, closed
    /// pipe) lets cells in flight finish, skips the rest, and returns the
    /// first I/O error.
    pub fn run_cells(
        &self,
        cells: &[SearchCell],
        progress: Option<&Progress>,
        checkpoint: Option<&CellCheckpoint>,
    ) -> std::io::Result<Vec<PisaResult>> {
        let latch = WriteLatch::default();
        // Eligible pairwise cells run in lockstep lane groups; everything
        // else — other cell kinds, oversized restart counts, cells the
        // checkpoint will replay — takes the scalar path.
        // The plan never changes results (both paths are bit-identical), so
        // resumed runs may group differently than the original run did.
        let units = saga_pisa::plan_units(cells, |_, cell| {
            checkpoint.is_none_or(|c| c.stored(&cell.key()).is_none())
        });
        let finish = |key: &str, res: PisaResult| {
            latch.record(checkpoint, key, &res);
            if let Some(p) = progress {
                p.tick();
            }
            Some(res)
        };
        let mut by_unit: Vec<Vec<(usize, Option<PisaResult>)>> = units
            .par_iter()
            .map_init(
                || {
                    (
                        self.pool.take(),
                        AnnealScratch::default(),
                        BatchedSchedContext::default(),
                    )
                },
                |(ctx, scratch, batch), unit| {
                    // once a write failed, the run's results can never all be
                    // returned — don't burn hours annealing cells that would
                    // be thrown away with the error
                    if latch.tripped() {
                        return unit.indices().iter().map(|&i| (i, None)).collect();
                    }
                    match unit {
                        saga_pisa::ExecUnit::Scalar(i) => {
                            let cell = &cells[*i];
                            let key = cell.key();
                            let res = match checkpoint.and_then(|c| c.stored(&key)) {
                                Some(stored) => {
                                    // replayed, not re-recorded: the file
                                    // already holds this line
                                    if let Some(p) = progress {
                                        p.tick();
                                    }
                                    Some(stored)
                                }
                                None => finish(&key, cell.run(ctx, scratch)),
                            };
                            vec![(*i, res)]
                        }
                        saga_pisa::ExecUnit::Lockstep(idxs) => {
                            let group: Vec<&SearchCell> = idxs.iter().map(|&i| &cells[i]).collect();
                            let results = saga_pisa::run_cells_lockstep(batch, &group);
                            idxs.iter()
                                .zip(results)
                                .map(|(&i, res)| (i, finish(&cells[i].key(), res)))
                                .collect()
                        }
                    }
                },
            )
            .collect();
        observe_workers(progress);
        let mut results: Vec<Option<PisaResult>> = cells.iter().map(|_| None).collect();
        for (i, res) in by_unit.drain(..).flatten() {
            results[i] = res;
        }
        // cells come back None only after a failed write, which the latch
        // returns first
        latch
            .finish(results)?
            .into_iter()
            .collect::<Option<Vec<_>>>()
            .ok_or_else(|| std::io::Error::other("cell skipped without a recorded write error"))
    }

    /// [`run_cells`](Self::run_cells) for experiment binaries: a checkpoint
    /// write failure exits through [`cli::exit_on_write_failure`]
    /// instead of returning.
    pub fn run_cells_or_exit(
        &self,
        cells: &[SearchCell],
        progress: Option<&Progress>,
        checkpoint: Option<&CellCheckpoint>,
    ) -> Vec<PisaResult> {
        cli::exit_on_write_failure(self.run_cells(cells, progress, checkpoint))
    }

    /// The fused fig2-class dataset loop: cell `k` *generates* instance `k`
    /// from its own derived seed (`derive_seed(seed, k)`) and immediately
    /// evaluates every scheduler on it under pinned cost tables, all inside
    /// the worker — so dataset sampling shards across cores along with the
    /// evaluation instead of bottlenecking on one sequential generation
    /// pass (the old layout's limit at 1000-instance budgets). Returns
    /// `out[instance][scheduler]` makespans in instance order; per-cell
    /// seeds and order-preserving collection keep the output bit-identical
    /// for any `RAYON_NUM_THREADS`, and identical to generating the
    /// instances up front with the same per-instance seeds.
    pub fn dataset_makespans(
        &self,
        schedulers: &[Box<dyn Scheduler>],
        gen: &saga_datasets::DatasetGenerator,
        count: usize,
        seed: u64,
        progress: Option<&Progress>,
    ) -> Vec<Vec<f64>> {
        let rows: Vec<Vec<f64>> = (0..count)
            .collect::<Vec<_>>()
            .into_par_iter()
            .map_init(
                || self.pool.take(),
                |ctx, k| {
                    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(
                        derive_seed(seed, k as u64),
                    );
                    let inst = gen.sample(&mut rng);
                    let row = ctx.with_pinned(&inst, |ctx| {
                        schedulers
                            .iter()
                            .map(|s| s.makespan_into(&inst, ctx))
                            .collect::<Vec<f64>>()
                    });
                    if let Some(p) = progress {
                        p.tick();
                    }
                    row
                },
            )
            .collect();
        observe_workers(progress);
        rows
    }

    /// Runs every scheduler on every instance — the fig2-class inner loop.
    /// Returns `out[instance][scheduler]` makespans. Per instance, the cost
    /// tables are built once and shared across all scheduler runs
    /// ([`SchedContext::with_pinned`]); instances shard across workers.
    pub fn makespans(
        &self,
        schedulers: &[Box<dyn Scheduler>],
        instances: &[Instance],
        progress: Option<&Progress>,
    ) -> Vec<Vec<f64>> {
        let rows: Vec<Vec<f64>> = instances
            .par_iter()
            .map_init(
                || self.pool.take(),
                |ctx, inst| {
                    let row = ctx.with_pinned(inst, |ctx| {
                        schedulers
                            .iter()
                            .map(|s| s.makespan_into(inst, ctx))
                            .collect::<Vec<f64>>()
                    });
                    if let Some(p) = progress {
                        p.tick();
                    }
                    row
                },
            )
            .collect();
        observe_workers(progress);
        rows
    }

    /// [`dataset_makespans`](Self::dataset_makespans) for *distributed,
    /// resumable* fig2-class runs: each instance row carries a stable key
    /// (`key_of(k)`), only rows in `shard` are computed (the rest come back
    /// `None`), and rows already stored in the [`RowCheckpoint`] replay
    /// instead of re-running. Computed makespans are bit-identical to the
    /// unsharded [`dataset_makespans`] path — same per-instance seed
    /// streams, same pinned-table evaluation — so the union of all shards'
    /// checkpoints reconstructs the 1-host run exactly.
    /// A checkpoint write failure is handled as in
    /// [`run_cells`](Self::run_cells).
    #[allow(clippy::too_many_arguments)]
    pub fn dataset_makespans_sharded(
        &self,
        schedulers: &[Box<dyn Scheduler>],
        gen: &saga_datasets::DatasetGenerator,
        count: usize,
        seed: u64,
        key_of: &(impl Fn(usize) -> String + Sync),
        shard: saga_pisa::ShardSpec,
        progress: Option<&Progress>,
        checkpoint: Option<&RowCheckpoint>,
    ) -> std::io::Result<Vec<Option<Vec<f64>>>> {
        let latch = WriteLatch::default();
        let rows: Vec<Option<Vec<f64>>> = (0..count)
            .collect::<Vec<_>>()
            .into_par_iter()
            .map_init(
                || self.pool.take(),
                |ctx, k| {
                    let key = key_of(k);
                    if !shard.contains_key(&key) {
                        return None;
                    }
                    if let Some(stored) = checkpoint.and_then(|c| c.stored(&key)) {
                        // replayed, not re-recorded: the file already holds
                        // this line
                        if let Some(p) = progress {
                            p.tick();
                        }
                        return Some(stored);
                    }
                    if latch.tripped() {
                        // a failed checkpoint write means the run can't
                        // complete; don't burn work that would be discarded
                        return None;
                    }
                    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(
                        derive_seed(seed, k as u64),
                    );
                    let inst = gen.sample(&mut rng);
                    let row = ctx.with_pinned(&inst, |ctx| {
                        schedulers
                            .iter()
                            .map(|s| s.makespan_into(&inst, ctx))
                            .collect::<Vec<f64>>()
                    });
                    latch.record(checkpoint, &key, &row);
                    if let Some(p) = progress {
                        p.tick();
                    }
                    Some(row)
                },
            )
            .collect();
        observe_workers(progress);
        latch.finish(rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saga_schedulers::benchmark_schedulers;

    fn instances(n: usize) -> Vec<Instance> {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(3);
        let gen = saga_datasets::by_name("chains").unwrap();
        gen.sample_many(&mut rng, n)
    }

    #[test]
    fn makespans_match_the_sequential_path() {
        let scheds = benchmark_schedulers();
        let insts = instances(4);
        let engine = BatchEngine::new();
        let batched = engine.makespans(&scheds, &insts, None);
        for (inst, row) in insts.iter().zip(&batched) {
            let sequential = crate::makespans(&scheds, inst);
            assert_eq!(
                row.iter().map(|m| m.to_bits()).collect::<Vec<_>>(),
                sequential.iter().map(|m| m.to_bits()).collect::<Vec<_>>(),
                "engine must be bit-identical to the sequential path"
            );
        }
    }

    #[test]
    fn results_are_independent_of_thread_count() {
        // the engine API guarantees input-order collection; exercise the
        // sharded path against the forced-sequential path
        let scheds = benchmark_schedulers();
        let insts = instances(6);
        let engine = BatchEngine::new();
        let a: Vec<Vec<u64>> = engine
            .makespans(&scheds, &insts, None)
            .into_iter()
            .map(|row| row.into_iter().map(f64::to_bits).collect())
            .collect();
        let b: Vec<Vec<u64>> = insts
            .iter()
            .map(|inst| {
                crate::makespans(&scheds, inst)
                    .into_iter()
                    .map(f64::to_bits)
                    .collect()
            })
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn map_ctx_reuses_pooled_contexts_across_batches() {
        let engine = BatchEngine::new();
        let insts = instances(3);
        let _: Vec<f64> = engine.map_ctx(insts.iter().collect(), |ctx, inst| {
            saga_schedulers::Heft.makespan_into(inst, ctx)
        });
        assert!(
            engine.pool.idle() >= 1,
            "workers must return contexts to the pool"
        );
        let before = engine.pool.idle();
        let _: Vec<f64> = engine.map_ctx(insts.iter().collect(), |ctx, inst| {
            saga_schedulers::Heft.makespan_into(inst, ctx)
        });
        let threads = std::env::var("RAYON_NUM_THREADS")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            });
        assert!(
            engine.pool.idle() <= before.max(threads),
            "second batch must reuse pooled contexts, not mint new ones per cell"
        );
    }

    fn quick_cells() -> Vec<SearchCell> {
        use saga_pisa::metric::Objective;
        use saga_pisa::{cell_config, PisaConfig};
        let base = PisaConfig {
            i_max: 60,
            restarts: 2,
            seed: 0xCE11,
            ..PisaConfig::default()
        };
        vec![
            SearchCell::pair("HEFT", "CPoP", cell_config(base, 0)),
            SearchCell::pair("CPoP", "FastestNode", cell_config(base, 1)),
            SearchCell::metric(
                Objective::RentalCost,
                "HEFT",
                "FastestNode",
                cell_config(base, 2),
            ),
            SearchCell::app("blast", 0.5, "CPoP", "FastestNode", cell_config(base, 3)),
        ]
    }

    #[test]
    fn run_cells_matches_the_pooled_runner_bit_for_bit() {
        let cells = quick_cells();
        let engine = BatchEngine::new();
        let a = engine.run_cells(&cells, None, None).unwrap();
        let b = saga_pisa::run_cells_pooled(&cells);
        for ((cell, x), y) in cells.iter().zip(&a).zip(&b) {
            assert_eq!(x.ratio.to_bits(), y.ratio.to_bits(), "{}", cell.label);
            assert_eq!(x.instance.to_json(), y.instance.to_json(), "{}", cell.label);
        }
    }

    #[test]
    fn checkpoint_replays_stored_cells_exactly() {
        let cells = quick_cells();
        let engine = BatchEngine::new();
        let path = std::env::temp_dir().join(format!(
            "saga_ckpt_test_{}_replay.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let ck = CellCheckpoint::open(&path, false).unwrap();
        let fresh = engine.run_cells(&cells, None, Some(&ck)).unwrap();
        drop(ck);
        let ck = CellCheckpoint::open(&path, true).unwrap();
        assert_eq!(ck.loaded(), cells.len());
        let replayed = engine.run_cells(&cells, None, Some(&ck)).unwrap();
        for ((cell, a), b) in cells.iter().zip(&fresh).zip(&replayed) {
            assert_eq!(a.ratio.to_bits(), b.ratio.to_bits(), "{}", cell.label);
            assert_eq!(
                a.initial_ratio.to_bits(),
                b.initial_ratio.to_bits(),
                "{}",
                cell.label
            );
            assert_eq!(a.evaluations, b.evaluations, "{}", cell.label);
            assert_eq!(a.instance.to_json(), b.instance.to_json(), "{}", cell.label);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn checkpoint_skips_torn_lines_and_stale_keys() {
        let cells = quick_cells();
        let engine = BatchEngine::new();
        let path =
            std::env::temp_dir().join(format!("saga_ckpt_test_{}_torn.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let ck = CellCheckpoint::open(&path, false).unwrap();
        engine.run_cells(&cells[..2], None, Some(&ck)).unwrap();
        drop(ck);
        // simulate a crash mid-append
        {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            write!(f, "{{\"key\":\"pair/HEFT~CPoP#trunc").unwrap();
        }
        let ck = CellCheckpoint::open(&path, true).unwrap();
        assert_eq!(ck.loaded(), 2, "torn line must be dropped, good ones kept");
        assert_eq!(
            ck.skipped(),
            1,
            "the torn line must be counted and reported"
        );
        // a different budget produces different keys: nothing replays
        let mut other = quick_cells();
        for c in &mut other {
            c.config.i_max += 1;
        }
        assert!(ck.stored(&other[0].key()).is_none());
        // appending after the tear must start a fresh line — the remaining
        // cells recorded now have to survive another resume intact
        engine.run_cells(&cells, None, Some(&ck)).unwrap();
        drop(ck);
        let ck = CellCheckpoint::open(&path, true).unwrap();
        assert_eq!(
            ck.loaded(),
            cells.len(),
            "records appended after a torn line must not merge into it"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn checkpoint_skips_lines_whose_witness_is_invalid() {
        // a well-formed record whose witness instance fails validation (a
        // links array one entry longer than speeds.len()^2) is a skipped
        // line on resume, not a panic
        let cells = quick_cells();
        let engine = BatchEngine::new();
        let path = std::env::temp_dir().join(format!(
            "saga_ckpt_test_{}_invalid.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let ck = CellCheckpoint::open(&path, false).unwrap();
        engine.run_cells(&cells[..2], None, Some(&ck)).unwrap();
        drop(ck);
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[1].contains("\"links\":["), "{}", lines[1]);
        lines[1] = lines[1].replacen("\"links\":[", "\"links\":[1,", 1);
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();
        let ck = CellCheckpoint::open(&path, true).unwrap();
        assert_eq!(ck.loaded(), 1);
        assert_eq!(ck.skipped(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn progress_counts_monotonically() {
        let p = Progress::new("test", 10);
        for _ in 0..10 {
            p.tick();
        }
        assert_eq!(p.completed(), 10);
    }

    #[test]
    fn progress_accumulates_scheduler_counters() {
        let p = Progress::new("test", 4);
        p.note_worker_stats(&rayon::RunStats {
            claims: vec![2, 1],
            steals: vec![0, 1],
            items: vec![3, 1],
        });
        p.note_worker_stats(&rayon::RunStats {
            claims: vec![1],
            steals: vec![0],
            items: vec![4],
        });
        assert_eq!(p.claims(), 4);
        assert_eq!(p.steals(), 1);
    }

    #[test]
    fn row_checkpoint_round_trips_bits_and_counts_tears() {
        use std::io::Write;
        let path =
            std::env::temp_dir().join(format!("saga_rowckpt_test_{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let ck = RowCheckpoint::open(&path, false).unwrap();
        let row = vec![1.5, f64::INFINITY, 0.1 + 0.2];
        ck.record("fig2/chains#k0#s0000000000000001", &row).unwrap();
        ck.record("fig2/chains#k1#s0000000000000001", &[]).unwrap();
        drop(ck);
        // simulate a crash mid-append
        {
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            write!(f, "{{\"key\":\"fig2/chains#k2").unwrap();
        }
        let ck = RowCheckpoint::open(&path, true).unwrap();
        assert_eq!(ck.loaded(), 2);
        assert_eq!(ck.skipped(), 1);
        let replay = ck.stored("fig2/chains#k0#s0000000000000001").unwrap();
        assert_eq!(
            replay.iter().map(|m| m.to_bits()).collect::<Vec<_>>(),
            row.iter().map(|m| m.to_bits()).collect::<Vec<_>>(),
            "replay must be bit-identical, infinities included"
        );
        assert_eq!(
            ck.stored("fig2/chains#k1#s0000000000000001").unwrap(),
            vec![]
        );
        // appending after the tear starts a fresh line
        ck.record("fig2/chains#k3#s0000000000000001", &[2.0])
            .unwrap();
        drop(ck);
        let ck = RowCheckpoint::open(&path, true).unwrap();
        assert_eq!(ck.loaded(), 3);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn sharded_dataset_rows_cover_exactly_and_match_unsharded() {
        use saga_pisa::ShardSpec;
        let gen = saga_datasets::by_name("chains").unwrap();
        let scheds = benchmark_schedulers();
        let engine = BatchEngine::new();
        let count = 6;
        let seed = 0xF162;
        let key_of = |k: usize| format!("fig2/chains#k{k}#s{seed:016x}");
        let full = engine.dataset_makespans(&scheds, &gen, count, seed, None);
        let mut merged: Vec<Option<Vec<f64>>> = vec![None; count];
        for index in 0..3u64 {
            let shard = ShardSpec { index, count: 3 };
            let rows = engine
                .dataset_makespans_sharded(&scheds, &gen, count, seed, &key_of, shard, None, None)
                .unwrap();
            for (k, row) in rows.into_iter().enumerate() {
                if let Some(row) = row {
                    assert!(merged[k].is_none(), "row {k} computed by two shards");
                    merged[k] = Some(row);
                }
            }
        }
        for (k, row) in merged.into_iter().enumerate() {
            let row = row.unwrap_or_else(|| panic!("row {k} computed by no shard"));
            assert_eq!(
                row.iter().map(|m| m.to_bits()).collect::<Vec<_>>(),
                full[k].iter().map(|m| m.to_bits()).collect::<Vec<_>>(),
                "sharded row {k} must match the unsharded run bit-for-bit"
            );
        }
    }

    #[test]
    fn sharded_dataset_rows_replay_from_checkpoint() {
        use saga_pisa::ShardSpec;
        let gen = saga_datasets::by_name("chains").unwrap();
        let scheds = benchmark_schedulers();
        let engine = BatchEngine::new();
        let seed = 0xF162;
        let key_of = |k: usize| format!("fig2/chains#k{k}#s{seed:016x}");
        let path =
            std::env::temp_dir().join(format!("saga_rowckpt_shard_{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let ck = RowCheckpoint::open(&path, false).unwrap();
        let fresh = engine
            .dataset_makespans_sharded(
                &scheds,
                &gen,
                4,
                seed,
                &key_of,
                ShardSpec::FULL,
                None,
                Some(&ck),
            )
            .unwrap();
        drop(ck);
        let ck = RowCheckpoint::open(&path, true).unwrap();
        assert_eq!(ck.loaded(), 4);
        let replayed = engine
            .dataset_makespans_sharded(
                &scheds,
                &gen,
                4,
                seed,
                &key_of,
                ShardSpec::FULL,
                None,
                Some(&ck),
            )
            .unwrap();
        for (a, b) in fresh.iter().zip(&replayed) {
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            assert_eq!(
                a.iter().map(|m| m.to_bits()).collect::<Vec<_>>(),
                b.iter().map(|m| m.to_bits()).collect::<Vec<_>>(),
            );
        }
        let _ = std::fs::remove_file(&path);
    }
}
