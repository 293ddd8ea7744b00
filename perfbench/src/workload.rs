//! The benchmark's three workloads, built from the same public calls the
//! experiment binaries make, plus the exact evaluation counts and the
//! correctness gate that every pass's outputs go through.

use saga_core::{derive_seed, Instance};
use saga_datasets::DatasetGenerator;
use saga_experiments::benchmarking;
use saga_experiments::engine::{BatchEngine, CellCheckpoint, Progress, RowCheckpoint};
use saga_pisa::{
    cell_config, pairwise_cells, CellKind, GeneralPerturber, Pisa, PisaConfig, PisaResult,
    SearchCell, ShardSpec,
};
use saga_schedulers::Scheduler;
use std::path::{Path, PathBuf};

/// Which grid a run measures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Fig. 4 at the paper's budget: 210 ordered pairs, `imax 1000`, 5
    /// restarts, 3–5-task instances. Per-evaluation overhead dominates.
    Fig4Paper,
    /// The `app_pisa all` cell grid: all nine workflows, 30 ordered pairs
    /// of the Section VII subset, `imax 300`, 2 restarts, at [`APP_CCRS`].
    /// 20–40-task instances on 6–10-node networks; scheduler runs dominate.
    AppWorkflows,
    /// Fig. 2: 16 datasets × 100 instances × 15 schedulers, every instance
    /// a full table build. Exercises no annealer layer at all.
    Fig2Bench,
}

impl Kind {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Kind; 3] = [Kind::Fig4Paper, Kind::AppWorkflows, Kind::Fig2Bench];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Fig4Paper => "fig4_paper",
            Kind::AppWorkflows => "app_workflows",
            Kind::Fig2Bench => "fig2_bench",
        }
    }

    /// The workload called `name`, if any.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// The CCRs `app_workflows` searches. `app_pisa all` runs all five of
/// `PAPER_CCRS`; one 1-worker pass over five takes ~8 s on one vCPU of a
/// 2-vCPU x86-64 VM, too long to sample repeatedly within a run, so the
/// benchmark keeps every workflow and pair at the middle CCR only.
pub const APP_CCRS: [f64; 1] = [1.0];
/// `app_pisa`'s default annealing budget.
pub const APP_IMAX: usize = 300;
/// `app_pisa`'s default restart count.
pub const APP_RESTARTS: usize = 2;
/// `fig2`'s default instances per dataset.
pub const FIG2_INSTANCES: usize = 100;

/// Cells that run under one `run_cells` call with one checkpoint file, as
/// one experiment binary invocation does (fig4: one group; `app_pisa all`:
/// one group per workflow).
pub struct CellGroup {
    /// Progress label, as the binary prints it.
    pub label: String,
    /// The group's cells, in the binary's order.
    pub cells: Vec<SearchCell>,
    /// The group's checkpoint file.
    pub checkpoint: PathBuf,
}

/// A workload's inputs, built from its seed.
pub enum Grid {
    /// Adversarial-search cell groups.
    Pisa(Vec<CellGroup>),
    /// The fig2 dataset loop.
    Fig2 {
        /// The 15-scheduler roster.
        schedulers: Vec<Box<dyn Scheduler>>,
        /// The 16 dataset generators.
        generators: Vec<DatasetGenerator>,
        /// Instances per dataset.
        instances: usize,
        /// Base seed; instance `k` draws from `derive_seed(seed, k)`.
        seed: u64,
        /// The row checkpoint file.
        checkpoint: PathBuf,
    },
}

/// Open checkpoints for one pass, truncated so every cell or row runs.
pub enum Checkpoints {
    /// One per cell group.
    Cells(Vec<CellCheckpoint>),
    /// The fig2 row checkpoint.
    Rows(RowCheckpoint),
}

/// What one pass produced.
pub enum Outputs {
    /// One result per cell, in group order.
    Cells(Vec<PisaResult>),
    /// One makespan row per (dataset, instance), datasets in order.
    Rows(Vec<Vec<f64>>),
}

/// One pass's outputs plus the engine's scheduling counters.
pub struct Pass {
    /// The results.
    pub outputs: Outputs,
    /// Chunk claims the engine's workers made.
    pub claims: usize,
    /// Chunks stolen between workers.
    pub steals: usize,
}

/// A built workload: its grid and the engine that runs it.
pub struct Workload {
    /// Its inputs.
    pub grid: Grid,
    /// The engine every untraced pass runs on.
    pub engine: BatchEngine,
}

/// The fig2 row key, exactly as the fig2 binary forms it.
pub fn fig2_key(dataset: &str, k: usize, seed: u64) -> String {
    format!("fig2/{dataset}#k{k}#s{seed:016x}")
}

/// Iterations one annealing run performs under `config`: the loop stops at
/// `i_max` or once the geometric schedule cools to `t_min`, whichever comes
/// first. Mirrors the annealer's loop condition and float operations.
pub fn annealer_iterations(config: &PisaConfig) -> usize {
    let mut t = config.t_max;
    let mut iter = 0;
    while t > config.t_min && iter < config.i_max {
        t *= config.alpha;
        iter += 1;
    }
    iter
}

/// Scheduler evaluations a cell grid performs: per restart, the initial
/// instance plus one candidate per iteration, each scored by two
/// schedulers.
pub fn pisa_evaluations(cells: &[SearchCell]) -> u64 {
    cells
        .iter()
        .map(|c| (c.config.restarts * (annealer_iterations(&c.config) + 1) * 2) as u64)
        .sum()
}

/// The `app_pisa` cell grid for one workflow, built exactly as the binary
/// builds it: every (CCR, ordered pair), seeds derived from the cell index.
pub fn app_cells(workflow: &str, ccrs: &[f64], config: PisaConfig) -> Vec<SearchCell> {
    let names: Vec<&str> = saga_schedulers::app_specific_schedulers()
        .iter()
        .map(|s| s.name())
        .collect();
    let n = names.len();
    let mut cells = Vec::with_capacity(ccrs.len() * (n * n - n));
    for &ccr in ccrs {
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    let cfg = cell_config(config, cells.len() as u64);
                    cells.push(SearchCell::app(workflow, ccr, names[j], names[i], cfg));
                }
            }
        }
    }
    cells
}

/// The target and baseline scheduler names of a PISA cell.
///
/// # Panics
/// Panics on a metric or ablation cell, which the benchmark never builds.
pub fn pair_names(cell: &SearchCell) -> (&str, &str) {
    match &cell.kind {
        CellKind::Pair { target, baseline }
        | CellKind::App {
            target, baseline, ..
        } => (target, baseline),
        _ => unreachable!("the benchmark builds only pair and app cells"),
    }
}

/// A roster scheduler by name.
///
/// # Panics
/// Panics on a name outside the roster; the benchmark's cells only name
/// roster schedulers.
pub fn scheduler(name: &str) -> Box<dyn Scheduler> {
    saga_schedulers::by_name(name).unwrap_or_else(|| panic!("unknown scheduler {name}"))
}

impl Workload {
    /// Builds the workload's roster, cells or generators and engine from
    /// `seed`, with checkpoint files under `dir`.
    pub fn build(kind: Kind, seed: u64, dir: &Path) -> Workload {
        let grid = match kind {
            Kind::Fig4Paper => {
                let schedulers = saga_schedulers::benchmark_schedulers();
                let config = PisaConfig {
                    seed,
                    ..PisaConfig::default()
                };
                Grid::Pisa(vec![CellGroup {
                    label: "fig4".to_string(),
                    cells: pairwise_cells(&schedulers, config),
                    checkpoint: dir.join("fig4_cells.jsonl"),
                }])
            }
            Kind::AppWorkflows => {
                let config = PisaConfig {
                    i_max: APP_IMAX,
                    restarts: APP_RESTARTS,
                    seed,
                    ..PisaConfig::default()
                };
                Grid::Pisa(
                    saga_datasets::workflows::WORKFLOW_NAMES
                        .iter()
                        .map(|wf| CellGroup {
                            label: format!("app_pisa/{wf}"),
                            cells: app_cells(wf, &APP_CCRS, config),
                            checkpoint: dir.join(format!("app_pisa_{wf}_cells.jsonl")),
                        })
                        .collect(),
                )
            }
            Kind::Fig2Bench => Grid::Fig2 {
                schedulers: saga_schedulers::benchmark_schedulers(),
                generators: saga_datasets::all_generators(),
                instances: FIG2_INSTANCES,
                seed,
                checkpoint: dir.join("fig2_rows.jsonl"),
            },
        };
        Workload {
            grid,
            engine: BatchEngine::new(),
        }
    }

    /// Opens every checkpoint file of the workload; `resume = false`
    /// truncates them.
    pub fn open_checkpoints(&self, resume: bool) -> std::io::Result<Checkpoints> {
        Ok(match &self.grid {
            Grid::Pisa(groups) => Checkpoints::Cells(
                groups
                    .iter()
                    .map(|g| CellCheckpoint::open(&g.checkpoint, resume))
                    .collect::<std::io::Result<_>>()?,
            ),
            Grid::Fig2 { checkpoint, .. } => {
                Checkpoints::Rows(RowCheckpoint::open(checkpoint, resume)?)
            }
        })
    }

    /// Every checkpoint file of the workload.
    pub fn checkpoint_files(&self) -> Vec<&Path> {
        match &self.grid {
            Grid::Pisa(groups) => groups.iter().map(|g| g.checkpoint.as_path()).collect(),
            Grid::Fig2 { checkpoint, .. } => vec![checkpoint.as_path()],
        }
    }

    /// Units of work in one pass: cells, or fig2 instance rows.
    pub fn units(&self) -> usize {
        match &self.grid {
            Grid::Pisa(groups) => groups.iter().map(|g| g.cells.len()).sum(),
            Grid::Fig2 {
                generators,
                instances,
                ..
            } => generators.len() * instances,
        }
    }

    /// Scheduler evaluations in one pass, from the plan alone.
    pub fn evaluations(&self) -> u64 {
        match &self.grid {
            Grid::Pisa(groups) => groups.iter().map(|g| pisa_evaluations(&g.cells)).sum(),
            Grid::Fig2 {
                schedulers,
                generators,
                instances,
                ..
            } => (generators.len() * instances * schedulers.len()) as u64,
        }
    }

    /// Every cell of a PISA workload, in group order (empty for fig2).
    pub fn cells(&self) -> Vec<&SearchCell> {
        match &self.grid {
            Grid::Pisa(groups) => groups.iter().flat_map(|g| &g.cells).collect(),
            Grid::Fig2 { .. } => Vec::new(),
        }
    }

    /// One pass over the whole grid on the engine, at whatever worker count
    /// `RAYON_NUM_THREADS` holds. This is the timed region.
    pub fn run_pass(&self, checkpoints: &Checkpoints) -> Result<Pass, String> {
        let (mut claims, mut steals) = (0, 0);
        let outputs = match (&self.grid, checkpoints) {
            (Grid::Pisa(groups), Checkpoints::Cells(files)) => {
                let mut results = Vec::with_capacity(self.units());
                for (g, file) in groups.iter().zip(files) {
                    let progress = Progress::new(g.label.as_str(), g.cells.len());
                    let res = self
                        .engine
                        .run_cells(&g.cells, Some(&progress), Some(file))
                        .map_err(|e| format!("{}: checkpoint write failed: {e}", g.label))?;
                    claims += progress.claims();
                    steals += progress.steals();
                    results.extend(res);
                }
                Outputs::Cells(results)
            }
            (
                Grid::Fig2 {
                    schedulers,
                    generators,
                    instances,
                    seed,
                    ..
                },
                Checkpoints::Rows(file),
            ) => {
                let progress = Progress::new("fig2", self.units());
                let mut rows = Vec::with_capacity(self.units());
                for gen in generators {
                    let key_of = |k: usize| fig2_key(gen.name, k, *seed);
                    let res = self
                        .engine
                        .dataset_makespans_sharded(
                            schedulers,
                            gen,
                            *instances,
                            *seed,
                            &key_of,
                            ShardSpec::FULL,
                            Some(&progress),
                            Some(file),
                        )
                        .map_err(|e| format!("fig2/{}: checkpoint write failed: {e}", gen.name))?;
                    for row in res {
                        rows.push(row.ok_or("a full shard left a row unscheduled")?);
                    }
                }
                claims = progress.claims();
                steals = progress.steals();
                Outputs::Rows(rows)
            }
            _ => unreachable!("checkpoints are opened by the workload they belong to"),
        };
        Ok(Pass {
            outputs,
            claims,
            steals,
        })
    }

    /// Checks a pass's outputs against independent recomputation, outside
    /// any timed region. Returns one description per failed unit:
    ///
    /// * a PISA cell fails when its winning restart's evaluation count is
    ///   not `iterations + 1`, when its witness re-evaluated with
    ///   `Pisa::ratio` on a fresh context does not bit-match the reported
    ///   ratio, or when either scheduler's schedule on the witness fails
    ///   `Schedule::verify`;
    /// * a fig2 row fails when any makespan differs from a fresh
    ///   `schedule(inst).makespan()` of the regenerated instance.
    pub fn check(&self, outputs: &Outputs) -> Vec<String> {
        let mut failures = Vec::new();
        match (&self.grid, outputs) {
            (Grid::Pisa(_), Outputs::Cells(results)) => {
                let perturber = GeneralPerturber::default();
                for (cell, res) in self.cells().into_iter().zip(results) {
                    let (t, b) = pair_names(cell);
                    let (target, baseline) = (scheduler(t), scheduler(b));
                    let expected = annealer_iterations(&cell.config) + 1;
                    if res.evaluations != expected {
                        failures.push(format!(
                            "{}: winning restart made {} evaluations, expected {expected}",
                            cell.label, res.evaluations
                        ));
                    }
                    let pisa = Pisa {
                        target: &*target,
                        baseline: &*baseline,
                        perturber: &perturber,
                        config: cell.config,
                    };
                    let again = pisa.ratio(&res.instance);
                    if again.to_bits() != res.ratio.to_bits() {
                        failures.push(format!(
                            "{}: witness re-evaluates to {again}, reported {}",
                            cell.label, res.ratio
                        ));
                    }
                    for s in [&target, &baseline] {
                        if let Err(e) = s.schedule(&res.instance).verify(&res.instance) {
                            failures.push(format!(
                                "{}: {} schedule invalid: {e}",
                                cell.label,
                                s.name()
                            ));
                        }
                    }
                }
            }
            (
                Grid::Fig2 {
                    schedulers,
                    generators,
                    instances,
                    seed,
                    ..
                },
                Outputs::Rows(rows),
            ) => {
                let mut rows = rows.iter();
                for gen in generators {
                    for k in 0..*instances {
                        let inst = fig2_instance(gen, *seed, k);
                        let row = rows.next().expect("one row per instance");
                        let fresh: Vec<f64> = schedulers
                            .iter()
                            .map(|s| s.schedule(&inst).makespan())
                            .collect();
                        if bits(&fresh) != bits(row) {
                            failures.push(format!(
                                "{}: row differs from fresh schedules",
                                fig2_key(gen.name, k, *seed)
                            ));
                        }
                    }
                }
            }
            _ => unreachable!("outputs come from the workload's own passes"),
        }
        failures
    }
}

/// Instance `k` of a fig2 dataset, drawn as the engine draws it.
pub fn fig2_instance(gen: &DatasetGenerator, seed: u64, k: usize) -> Instance {
    let mut rng =
        <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(derive_seed(seed, k as u64));
    gen.sample(&mut rng)
}

fn bits(row: &[f64]) -> Vec<u64> {
    row.iter().map(|m| m.to_bits()).collect()
}

/// A canonical text form of each output unit, for bit-exact comparison of
/// passes run at different worker counts or with tracing.
pub fn canonical(outputs: &Outputs) -> Vec<String> {
    match outputs {
        Outputs::Cells(results) => results
            .iter()
            .map(|r| {
                format!(
                    "{:016x} {:016x} {} {}",
                    r.ratio.to_bits(),
                    r.initial_ratio.to_bits(),
                    r.evaluations,
                    r.instance.to_json()
                )
            })
            .collect(),
        Outputs::Rows(rows) => rows.iter().map(|r| format!("{:x?}", bits(r))).collect(),
    }
}

/// The share of found ratios of at least 2 (an unbounded ratio counts).
/// A PISA grid finds one ratio per cell: the worst case its search
/// reached. Fig. 2 finds one per evaluation: a scheduler's makespan on an
/// instance over the best makespan any scheduler reached on it.
pub fn adv_ge2x_frac(outputs: &Outputs) -> f64 {
    let (hits, total) = match outputs {
        Outputs::Cells(results) => (
            results.iter().filter(|r| r.ratio >= 2.0).count(),
            results.len(),
        ),
        Outputs::Rows(rows) => {
            rows.iter()
                .map(|r| benchmarking::ratios_of(r))
                .fold((0, 0), |(hits, total), ratios| {
                    (
                        hits + ratios.iter().filter(|&&x| x >= 2.0).count(),
                        total + ratios.len(),
                    )
                })
        }
    };
    hits as f64 / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("perfbench-test-{tag}-{}", std::process::id()))
    }

    #[test]
    fn evaluation_counts_reconcile_at_default_budgets() {
        let dir = scratch_dir("counts");
        // fig4 at the paper's budget: the schedule cools to t_min after
        // 459 iterations, before imax 1000 binds
        let fig4 = Workload::build(Kind::Fig4Paper, 0xF164, &dir);
        assert_eq!(fig4.units(), 210);
        assert_eq!(annealer_iterations(&PisaConfig::default()), 459);
        assert_eq!(fig4.evaluations(), 210 * 5 * 460 * 2);
        assert_eq!(fig4.evaluations(), 966_000);
        // `app_pisa all` at its defaults, all five CCRs
        let config = PisaConfig {
            i_max: APP_IMAX,
            restarts: APP_RESTARTS,
            ..PisaConfig::default()
        };
        let full: u64 = saga_datasets::workflows::WORKFLOW_NAMES
            .iter()
            .map(|wf| pisa_evaluations(&app_cells(wf, &saga_datasets::ccr::PAPER_CCRS, config)))
            .sum();
        assert_eq!(full, 1350 * 2 * 301 * 2);
        assert_eq!(full, 1_625_400);
        // the benchmark's cut keeps every workflow and pair
        let app = Workload::build(Kind::AppWorkflows, 0xA551, &dir);
        assert_eq!(app.units(), 9 * APP_CCRS.len() * 30);
        assert_eq!(app.evaluations(), app.units() as u64 * 2 * 301 * 2);
        let fig2 = Workload::build(Kind::Fig2Bench, 0xF162, &dir);
        assert_eq!(fig2.units(), 16 * 100);
        assert_eq!(fig2.evaluations(), 24_000);
    }

    #[test]
    fn app_cells_match_the_binary_seeds() {
        // cell seeds derive from the index within one workflow's grid
        let config = PisaConfig {
            seed: 7,
            ..PisaConfig::default()
        };
        let cells = app_cells("blast", &[0.2, 1.0], config);
        assert_eq!(cells.len(), 60);
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(c.config.seed, derive_seed(7, i as u64));
        }
        assert_eq!(cells[0].label, "app/blast@0.2/FastestNode~CPoP");
    }
}
