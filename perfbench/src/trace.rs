//! The traced pass: the same grid at one worker, with every layer boundary
//! timed from outside the program.
//!
//! The roster's schedulers and the cell's perturber are wrapped in timing
//! shims, and each PISA cell runs `maximize_in` with an objective closure
//! around `Pisa::ratio_incremental`, the call `SearchCell::run` makes. A
//! layer's self time is its span minus the spans of the layers it calls:
//! the kernel's share of an objective call is the call minus its two
//! scheduler runs, and the annealer's self time is `maximize_in` minus its
//! objective, perturb and initial-instance time. The traced pass replays
//! the engine's 1-worker loop step for step, so its outputs must match the
//! untraced passes bit for bit; the caller checks that.

use crate::stats::{median, percentile};
use crate::workload::{fig2_instance, fig2_key, pair_names, scheduler, Grid, Outputs, Workload};
use crate::Metrics;
use rand::rngs::StdRng;
use saga_core::{DirtyRegion, Instance, RunTrace, SchedContext, Schedule};
use saga_experiments::engine::{CellCheckpoint, RowCheckpoint};
use saga_pisa::annealer::{maximize_in, PairTraces};
use saga_pisa::app_specific::AppSpecific;
use saga_pisa::perturb::{initial_instance, PerturbUndo};
use saga_pisa::{constraints, AnnealScratch, CellKind, GeneralPerturber, Perturber, Pisa};
use saga_pisa::{PisaResult, SearchCell, ShardSpec};
use saga_schedulers::Scheduler;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Networks in this node-count range take the fused EFT-row kernels.
const FUSED_BAND: std::ops::RangeInclusive<usize> = 8..=32;

fn ns(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

/// Adds to a counter that only the tracing thread writes. The traced pass
/// runs on one thread, so a plain load and store never lose an update; the
/// counter publishes no other data.
fn bump(counter: &AtomicU64, by: u64) {
    counter.store(counter.load(Ordering::Relaxed) + by, Ordering::Relaxed);
}

/// A roster scheduler behind a timing shim. Counts calls, busy time, and
/// the shape of each instance it is called on.
struct TimedScheduler {
    inner: Box<dyn Scheduler>,
    ns: AtomicU64,
    calls: AtomicU64,
    band_calls: AtomicU64,
    tasks: AtomicU64,
    nodes: AtomicU64,
}

impl TimedScheduler {
    fn new(inner: Box<dyn Scheduler>) -> Self {
        TimedScheduler {
            inner,
            ns: AtomicU64::new(0),
            calls: AtomicU64::new(0),
            band_calls: AtomicU64::new(0),
            tasks: AtomicU64::new(0),
            nodes: AtomicU64::new(0),
        }
    }

    fn busy(&self) -> u64 {
        self.ns.load(Ordering::Relaxed)
    }

    fn timed<R>(&self, inst: &Instance, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        bump(&self.ns, ns(start));
        let nodes = inst.network.node_count();
        bump(&self.calls, 1);
        bump(&self.band_calls, u64::from(FUSED_BAND.contains(&nodes)));
        bump(&self.tasks, inst.graph.task_count() as u64);
        bump(&self.nodes, nodes as u64);
        out
    }
}

impl Scheduler for TimedScheduler {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn schedule_into(&self, inst: &Instance, ctx: &mut SchedContext) -> Schedule {
        self.timed(inst, || self.inner.schedule_into(inst, ctx))
    }

    fn makespan_into(&self, inst: &Instance, ctx: &mut SchedContext) -> f64 {
        self.timed(inst, || self.inner.makespan_into(inst, ctx))
    }

    fn makespan_incremental(
        &self,
        inst: &Instance,
        ctx: &mut SchedContext,
        trace: &mut RunTrace,
        dirty: &DirtyRegion,
    ) -> f64 {
        self.timed(inst, || {
            self.inner.makespan_incremental(inst, ctx, trace, dirty)
        })
    }

    fn schedule_incremental_into(
        &self,
        inst: &Instance,
        ctx: &mut SchedContext,
        trace: &mut RunTrace,
        dirty: &DirtyRegion,
    ) -> Schedule {
        self.timed(inst, || {
            self.inner
                .schedule_incremental_into(inst, ctx, trace, dirty)
        })
    }
}

/// A perturber behind a timing shim.
struct TimedPerturber<'a> {
    inner: &'a dyn Perturber,
    ns: AtomicU64,
}

impl Perturber for TimedPerturber<'_> {
    fn perturb(&self, inst: &mut Instance, rng: &mut StdRng) {
        let start = Instant::now();
        self.inner.perturb(inst, rng);
        bump(&self.ns, ns(start));
    }

    fn perturb_undoable(&self, inst: &mut Instance, rng: &mut StdRng) -> Option<PerturbUndo> {
        let start = Instant::now();
        let undo = self.inner.perturb_undoable(inst, rng);
        bump(&self.ns, ns(start));
        undo
    }
}

/// Span totals and counts accumulated over every traced pass of a run.
/// Times are nanoseconds summed over all passes.
#[derive(Default)]
pub struct Spans {
    /// Wall time of each traced pass, seconds.
    pub pass_s: Vec<f64>,
    /// Busy time per roster scheduler, by name.
    pub per_scheduler: std::collections::BTreeMap<&'static str, u64>,
    /// Scheduler calls (one call = one evaluation).
    pub calls: u64,
    /// Calls on networks inside [`FUSED_BAND`].
    pub band_calls: u64,
    /// Task count summed over calls.
    pub tasks: u64,
    /// Node count summed over calls.
    pub nodes: u64,
    /// Objective calls (`Pisa::ratio_incremental`).
    pub objective_calls: u64,
    /// Objective calls whose dirty region was full.
    pub full_regions: u64,
    /// Kernel time inside objective calls: table refresh and unpin.
    pub refresh: u64,
    /// Kernel time in `pin_tables` full builds (fig2).
    pub table_build: u64,
    /// `Perturber` time.
    pub perturb: u64,
    /// Annealer time outside its objective, perturb and init calls.
    pub annealer_self: u64,
    /// Instance generation: dataset sampling, PISA initial instances.
    pub datasets: u64,
    /// Checkpoint `record` time.
    pub checkpoint: u64,
    /// Per-cell (fig2: per-row) wall times without the checkpoint record,
    /// milliseconds.
    pub cell_ms: Vec<f64>,
}

impl Spans {
    fn fold_roster(&mut self, roster: &[TimedScheduler]) {
        for s in roster {
            *self.per_scheduler.entry(s.name()).or_default() += s.busy();
            self.calls += s.calls.load(Ordering::Relaxed);
            self.band_calls += s.band_calls.load(Ordering::Relaxed);
            self.tasks += s.tasks.load(Ordering::Relaxed);
            self.nodes += s.nodes.load(Ordering::Relaxed);
        }
    }

    /// The per-layer metrics the spans give, per traced pass. Layer self
    /// times are reported in microseconds and as shares of the traced pass;
    /// `other.share` is the remainder, so the shares sum to 1.
    /// `wall_1w` is the median untraced 1-worker pass, for the tracing
    /// overhead.
    pub fn metrics(&self, wall_1w: f64) -> Metrics {
        let n = self.pass_s.len() as f64;
        let pass_ns = self.pass_s.iter().sum::<f64>() * 1e9;
        let us = |ns: u64| ns as f64 / n / 1e3;
        let share = |ns: u64| ns as f64 / pass_ns;
        let per_call = |sum: u64| sum as f64 / self.calls as f64;
        let sched: u64 = self.per_scheduler.values().sum();
        let kernel = self.refresh + self.table_build;
        let mut m = Metrics::default();
        m.put("schedulers.us", us(sched), "us");
        for s in saga_schedulers::benchmark_schedulers() {
            let busy = self.per_scheduler.get(s.name()).copied().unwrap_or(0);
            m.put(format!("schedulers.{}.us", s.name()), us(busy), "us");
        }
        m.put("schedulers.calls", self.calls as f64 / n, "count");
        m.put("schedulers.share", share(sched), "frac");
        m.put(
            "schedulers.fused_band_frac",
            per_call(self.band_calls),
            "frac",
        );
        m.put("kernel.refresh_us", us(self.refresh), "us");
        m.put("kernel.table_build_us", us(self.table_build), "us");
        m.put("kernel.share", share(kernel), "frac");
        let full = if self.objective_calls == 0 {
            0.0
        } else {
            self.full_regions as f64 / self.objective_calls as f64
        };
        m.put("incremental.full_frac", full, "frac");
        m.put("perturb.us", us(self.perturb), "us");
        m.put("perturb.share", share(self.perturb), "frac");
        m.put("annealer.self_us", us(self.annealer_self), "us");
        m.put("annealer.share", share(self.annealer_self), "frac");
        m.put("datasets.sample_us", us(self.datasets), "us");
        m.put("datasets.share", share(self.datasets), "frac");
        m.put("checkpoint.record_us", us(self.checkpoint), "us");
        m.put("checkpoint.share", share(self.checkpoint), "frac");
        let layers = [
            sched,
            kernel,
            self.perturb,
            self.annealer_self,
            self.datasets,
            self.checkpoint,
        ];
        let other = 1.0 - layers.iter().map(|&l| share(l)).sum::<f64>();
        m.put("other.share", other, "frac");
        m.put("runner.cell_ms.p50", percentile(&self.cell_ms, 50.0), "ms");
        m.put("runner.cell_ms.p95", percentile(&self.cell_ms, 95.0), "ms");
        m.put("input.mean_tasks", per_call(self.tasks), "count");
        m.put("input.mean_nodes", per_call(self.nodes), "count");
        let traced_s = median(&self.pass_s);
        m.put("trace.overhead_frac", traced_s / wall_1w - 1.0, "frac");
        m.put("trace.pass_s", traced_s, "s");
        m.put("trace.evals", self.calls as f64 / n, "count");
        m
    }
}

/// The 15-scheduler roster behind shims, constructed as `SearchCell::run`
/// constructs its schedulers.
fn timed_roster() -> Vec<TimedScheduler> {
    saga_schedulers::benchmark_schedulers()
        .iter()
        .map(|s| TimedScheduler::new(scheduler(s.name())))
        .collect()
}

fn find<'r>(roster: &'r [TimedScheduler], name: &str) -> &'r TimedScheduler {
    roster
        .iter()
        .find(|s| s.name() == name)
        .unwrap_or_else(|| panic!("{name} is not in the roster"))
}

/// A cell's initial-instance generator.
type InitFn<'a> = Box<dyn Fn(&mut StdRng) -> Instance + 'a>;

/// Everything one traced cell borrows from its worker.
struct Worker<'r> {
    roster: &'r [TimedScheduler],
    ctx: SchedContext,
    scratch: AnnealScratch,
    traces: PairTraces,
}

impl Worker<'_> {
    /// `SearchCell::run` for pair and app cells, with every layer call
    /// timed into `spans`.
    fn run(&mut self, cell: &SearchCell, spans: &mut Spans) -> PisaResult {
        let (target, baseline) = pair_names(cell);
        let (perturber, init): (GeneralPerturber, InitFn<'_>) = match &cell.kind {
            CellKind::App { workflow, ccr, .. } => {
                let app = AppSpecific::new(workflow, *ccr)
                    .unwrap_or_else(|| panic!("unknown workflow {workflow}"));
                (
                    app.perturber(),
                    Box::new(move |rng| app.initial_instance(rng)),
                )
            }
            _ => (
                constraints::restrict_for_pair(GeneralPerturber::default(), target, baseline),
                Box::new(move |rng| {
                    let mut inst = initial_instance(rng);
                    constraints::homogenize_for_pair(&mut inst, target, baseline);
                    inst
                }),
            ),
        };
        let (target, baseline) = (find(self.roster, target), find(self.roster, baseline));
        let init_ns = Cell::new(0u64);
        let timed_init = |rng: &mut StdRng| {
            let start = Instant::now();
            let inst = init(rng);
            init_ns.set(init_ns.get() + ns(start));
            inst
        };
        let timed_perturber = TimedPerturber {
            inner: &perturber,
            ns: AtomicU64::new(0),
        };
        let pisa = Pisa {
            target,
            baseline,
            perturber: &timed_perturber,
            config: cell.config,
        };
        let (mut objective_ns, mut refresh_ns, mut calls, mut full) = (0u64, 0u64, 0u64, 0u64);
        let (ctx, traces) = (&mut self.ctx, &mut self.traces);
        let start = Instant::now();
        let result = maximize_in(
            &mut |inst, dirty| {
                let busy = target.busy() + baseline.busy();
                let call = Instant::now();
                let r = pisa.ratio_incremental(inst, ctx, traces, dirty);
                let elapsed = ns(call);
                objective_ns += elapsed;
                refresh_ns += elapsed.saturating_sub(target.busy() + baseline.busy() - busy);
                calls += 1;
                full += u64::from(dirty.is_full());
                r
            },
            &timed_perturber,
            cell.config,
            &timed_init,
            &mut self.scratch,
        );
        let total = ns(start);
        let perturb_ns = timed_perturber.ns.load(Ordering::Relaxed);
        spans.objective_calls += calls;
        spans.full_regions += full;
        spans.refresh += refresh_ns;
        spans.perturb += perturb_ns;
        spans.datasets += init_ns.get();
        spans.annealer_self += total.saturating_sub(objective_ns + perturb_ns + init_ns.get());
        result
    }
}

/// One traced pass over `workload` on the calling thread, writing fresh
/// checkpoints as the engine does. Returns the outputs for comparison with
/// the untraced passes.
pub fn traced_pass(workload: &Workload, spans: &mut Spans) -> std::io::Result<Outputs> {
    let roster = timed_roster();
    let outputs = match &workload.grid {
        Grid::Pisa(groups) => {
            let files = groups
                .iter()
                .map(|g| CellCheckpoint::open(&g.checkpoint, false))
                .collect::<std::io::Result<Vec<_>>>()?;
            let mut worker = Worker {
                roster: &roster,
                ctx: SchedContext::new(),
                scratch: AnnealScratch::default(),
                traces: PairTraces::default(),
            };
            let mut results = Vec::with_capacity(workload.units());
            let pass = Instant::now();
            for (group, file) in groups.iter().zip(&files) {
                for cell in &group.cells {
                    let start = Instant::now();
                    let res = worker.run(cell, spans);
                    spans.cell_ms.push(start.elapsed().as_secs_f64() * 1e3);
                    let record = Instant::now();
                    file.record(&cell.key(), &res)?;
                    spans.checkpoint += ns(record);
                    results.push(res);
                }
            }
            spans.pass_s.push(pass.elapsed().as_secs_f64());
            Outputs::Cells(results)
        }
        Grid::Fig2 {
            schedulers,
            generators,
            instances,
            seed,
            checkpoint,
        } => {
            let file = RowCheckpoint::open(checkpoint, false)?;
            // the engine's roster order, which the rows follow
            let roster: Vec<&TimedScheduler> =
                schedulers.iter().map(|s| find(&roster, s.name())).collect();
            let mut ctx = SchedContext::new();
            let mut rows = Vec::with_capacity(workload.units());
            let pass = Instant::now();
            for gen in generators {
                for k in 0..*instances {
                    let start = Instant::now();
                    let key = fig2_key(gen.name, k, *seed);
                    // the engine hashes every key against the shard
                    assert!(ShardSpec::FULL.contains_key(&key));
                    let sample = Instant::now();
                    let inst = fig2_instance(gen, *seed, k);
                    spans.datasets += ns(sample);
                    let build = Instant::now();
                    ctx.pin_tables(&inst);
                    spans.table_build += ns(build);
                    let row: Vec<f64> = roster
                        .iter()
                        .map(|s| s.makespan_into(&inst, &mut ctx))
                        .collect();
                    ctx.unpin_tables();
                    spans.cell_ms.push(start.elapsed().as_secs_f64() * 1e3);
                    let record = Instant::now();
                    file.record(&key, &row)?;
                    spans.checkpoint += ns(record);
                    rows.push(row);
                }
            }
            spans.pass_s.push(pass.elapsed().as_secs_f64());
            Outputs::Rows(rows)
        }
    };
    spans.fold_roster(&roster);
    Ok(outputs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{app_cells, canonical, CellGroup};
    use saga_experiments::engine::BatchEngine;
    use saga_pisa::{pairwise_cells, PisaConfig};

    fn traced_matches_engine(grid: Grid, tag: &str) {
        let dir =
            std::env::temp_dir().join(format!("perfbench-trace-{tag}-{}", std::process::id()));
        let grid = match grid {
            Grid::Pisa(mut groups) => {
                groups[0].checkpoint = dir.join("cells.jsonl");
                Grid::Pisa(groups)
            }
            Grid::Fig2 {
                schedulers,
                generators,
                instances,
                seed,
                ..
            } => Grid::Fig2 {
                schedulers,
                generators,
                instances,
                seed,
                checkpoint: dir.join("rows.jsonl"),
            },
        };
        let w = Workload {
            grid,
            engine: BatchEngine::new(),
        };
        let files = w.open_checkpoints(false).unwrap();
        let untraced = w.run_pass(&files).unwrap();
        let mut spans = Spans::default();
        let traced = traced_pass(&w, &mut spans).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(canonical(&traced), canonical(&untraced.outputs));
        // the shims count every scheduler call: exactly the plan's count
        assert_eq!(spans.calls, w.evaluations());
        assert_eq!(spans.cell_ms.len(), w.units());
        assert_eq!(spans.pass_s.len(), 1);
    }

    #[test]
    fn traced_pisa_pass_reproduces_the_engine() {
        // two-restart pair cells run in lockstep on the engine and on the
        // scalar path when traced; both must give the same bits
        let config = PisaConfig {
            i_max: 40,
            restarts: 2,
            seed: 3,
            ..PisaConfig::default()
        };
        let mut cells = pairwise_cells(&saga_schedulers::benchmark_schedulers()[..3], config);
        cells.extend(app_cells("blast", &[0.5], config).into_iter().take(4));
        let calls = crate::workload::pisa_evaluations(&cells);
        assert_eq!(calls, 10 * 2 * 41 * 2);
        traced_matches_engine(
            Grid::Pisa(vec![CellGroup {
                label: "test".to_string(),
                cells,
                checkpoint: Default::default(),
            }]),
            "pisa",
        );
    }

    #[test]
    fn traced_fig2_pass_reproduces_the_engine() {
        traced_matches_engine(
            Grid::Fig2 {
                schedulers: saga_schedulers::benchmark_schedulers(),
                generators: saga_datasets::all_generators(),
                instances: 2,
                seed: 5,
                checkpoint: Default::default(),
            },
            "fig2",
        );
    }
}
