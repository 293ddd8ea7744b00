//! The lockstep batch driver: K pairwise cells annealed in one loop.
//!
//! One worker takes a group of `Pair` [`SearchCell`]s and runs every
//! restart of every cell as an independent *lane* of a
//! [`BatchedSchedContext`]: each step perturbs all live lanes, evaluates
//! them back-to-back (grouped by instance shape, which also keeps a cell's
//! same-scheduler-pair restarts adjacent), applies each lane's
//! accept/reject, then retires lanes through the masked K-wide
//! cooling sweep. Lanes keep their own scheduling context, RNG stream and
//! instance buffers, so a lane is exactly one scalar
//! [`run_annealing`](crate::annealer)-shaped run — same draws, same
//! accept decisions, same restart fold — and the batch produces
//! bit-identical [`PisaResult`]s to the scalar `SearchCell` path (the
//! `batched_eval` suite and the golden fixtures pin this).
//!
//! Lane evaluations drive the same incremental protocol as the scalar
//! loop — [`Scheduler::makespan_incremental`] against the lane's own
//! [`PairTraces`] under [`SchedContext::pin_tables_dirty`] — so the batch
//! keeps the replay-prefix win. The fused EFT row kernels reach the lanes
//! the same way: every lane evaluation runs the schedulers' own loops,
//! which answer node selections through the row kernels.

use crate::annealer::{accept, PairTraces, PisaConfig, PisaResult};
use crate::constraints;
use crate::makespan_ratio;
use crate::perturb::{initial_instance, GeneralPerturber, PerturbUndo, Perturber};
use crate::runner::{CellKind, SearchCell};
use rand::rngs::StdRng;
use rand::SeedableRng;
use saga_core::{BatchedSchedContext, DirtyRegion, Instance, SchedContext};
use saga_schedulers::Scheduler;

/// Lane budget per lockstep group: groups are planned so the sum of member
/// cells' restart counts stays at or under this, bounding a worker's lane
/// contexts. Two lanes measured fastest on the fig4 quick grid (wider
/// groups pay more for alternating lane working sets than they win back in
/// shared sweeps), so a quick cell's two restarts form one group and
/// single-restart cells pair up; higher-restart schedules (the paper's 5)
/// take the scalar fallback.
pub const LANE_BUDGET: usize = 2;

/// Whether `cell` can run on the lockstep path: general pairwise cells
/// whose restart count fits the lane budget. App/metric/ablation cells and
/// oversized cells take the scalar fallback.
pub fn lockstep_supported(cell: &SearchCell) -> bool {
    matches!(cell.kind, CellKind::Pair { .. })
        && cell.config.restarts >= 1
        && cell.config.restarts <= LANE_BUDGET
}

/// One unit of a planned batch execution: a single scalar cell, or a group
/// of cells to run in lockstep. Indices point into the planner's input
/// slice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecUnit {
    /// Run `cells[i]` on the scalar `SearchCell::run` path.
    Scalar(usize),
    /// Run these cells as one lockstep lane group.
    Lockstep(Vec<usize>),
}

impl ExecUnit {
    /// The cell indices this unit covers, in input order.
    pub fn indices(&self) -> &[usize] {
        match self {
            ExecUnit::Scalar(i) => std::slice::from_ref(i),
            ExecUnit::Lockstep(idxs) => idxs,
        }
    }
}

/// Plans a cell grid into execution units: cells for which `eligible`
/// holds are packed, in input order, into lockstep groups of at most
/// [`LANE_BUDGET`] lanes (one lane per restart); everything else becomes a
/// scalar unit. The plan depends only on the cells and `eligible` — never on
/// thread count — and results are bit-identical under any plan, so callers
/// may vary eligibility (e.g. checkpoint-stored cells) freely.
pub fn plan_units(
    cells: &[SearchCell],
    mut eligible: impl FnMut(usize, &SearchCell) -> bool,
) -> Vec<ExecUnit> {
    let mut units = Vec::new();
    let mut group: Vec<usize> = Vec::new();
    let mut group_lanes = 0usize;
    for (i, cell) in cells.iter().enumerate() {
        if !(lockstep_supported(cell) && eligible(i, cell)) {
            units.push(ExecUnit::Scalar(i));
            continue;
        }
        let lanes = cell.config.restarts;
        if group_lanes + lanes > LANE_BUDGET && !group.is_empty() {
            units.push(ExecUnit::Lockstep(std::mem::take(&mut group)));
            group_lanes = 0;
        }
        group.push(i);
        group_lanes += lanes;
    }
    if !group.is_empty() {
        units.push(ExecUnit::Lockstep(group));
    }
    units
}

/// One cell's resolved search ingredients, shared by all its lanes.
struct CellPlan {
    target: Box<dyn Scheduler>,
    baseline: Box<dyn Scheduler>,
    target_name: String,
    baseline_name: String,
    perturber: GeneralPerturber,
    config: PisaConfig,
}

impl CellPlan {
    fn new(cell: &SearchCell) -> Self {
        let CellKind::Pair { target, baseline } = &cell.kind else {
            panic!("lockstep group holds a non-pair cell {}", cell.label);
        };
        let resolve = |name: &str| -> Box<dyn Scheduler> {
            saga_schedulers::by_name(name)
                .unwrap_or_else(|| panic!("cell {}: unknown scheduler {name}", cell.label))
        };
        CellPlan {
            target: resolve(target),
            baseline: resolve(baseline),
            target_name: target.clone(),
            baseline_name: baseline.clone(),
            perturber: constraints::restrict_for_pair(
                GeneralPerturber::default(),
                target,
                baseline,
            ),
            config: cell.config,
        }
    }

    /// The pair's initial-instance draw — identical to the scalar
    /// `SearchCell::run` closure.
    fn draw_start(&self, rng: &mut StdRng) -> Instance {
        let mut inst = initial_instance(rng);
        constraints::homogenize_for_pair(&mut inst, &self.target_name, &self.baseline_name);
        inst
    }
}

/// One lane: a single restart of a single cell, carrying exactly the
/// per-run state the scalar annealing loop keeps on its stack (the f64
/// schedule/objective scalars live in the batch's SoA rows instead).
struct Lane {
    cell: usize,
    rng: StdRng,
    current: Instance,
    candidate: Instance,
    best: Instance,
    /// Accumulated dirt from rejected iterations (the scalar loop's
    /// `pending`).
    pending: DirtyRegion,
    /// This step's dirty region, handed from the perturb phase to the
    /// evaluation phase.
    dirty: DirtyRegion,
    /// This step's undo record (`None` on the clone-based opaque path).
    undo: Option<PerturbUndo>,
    opaque: bool,
    /// The lane's recorded scheduler runs, replayed incrementally exactly
    /// like the scalar loop's `PairTraces`.
    traces: PairTraces,
    initial: f64,
    evaluations: usize,
}

/// The pair objective, driven exactly like `Pisa::ratio_incremental`:
/// refresh the stale cost-table pieces, evaluate both schedulers
/// incrementally against the lane's recorded traces under the shared pin,
/// ratio the makespans.
fn eval_pair(
    ctx: &mut SchedContext,
    plan: &CellPlan,
    inst: &Instance,
    dirty: &DirtyRegion,
    traces: &mut PairTraces,
) -> f64 {
    ctx.pin_tables_dirty(inst, dirty);
    let a = plan
        .target
        .makespan_incremental(inst, ctx, &mut traces.target, dirty);
    let b = plan
        .baseline
        .makespan_incremental(inst, ctx, &mut traces.baseline, dirty);
    ctx.unpin_tables();
    makespan_ratio(a, b)
}

/// Runs a group of `Pair` cells in lockstep on `batch`, returning one
/// [`PisaResult`] per cell in input order — bit-identical to running each
/// cell through the scalar `SearchCell::run` path.
///
/// # Panics
/// Panics if a cell is not a `Pair` cell, names an unknown scheduler, or
/// has zero restarts (the scalar path's `restarts >= 1` contract).
pub fn run_cells_lockstep(
    batch: &mut BatchedSchedContext,
    cells: &[&SearchCell],
) -> Vec<PisaResult> {
    let plans: Vec<CellPlan> = cells.iter().map(|c| CellPlan::new(c)).collect();

    // Lane setup: restart `k` of each cell seeds its own RNG with
    // `seed + k` and draws its start, exactly like `best_over_restarts`.
    let mut lanes: Vec<Lane> = Vec::new();
    for (ci, plan) in plans.iter().enumerate() {
        for k in 0..plan.config.restarts {
            let mut rng = StdRng::seed_from_u64(plan.config.seed.wrapping_add(k as u64));
            let start = plan.draw_start(&mut rng);
            lanes.push(Lane {
                cell: ci,
                rng,
                candidate: start.clone(),
                best: start.clone(),
                current: start,
                pending: DirtyRegion::clean(),
                dirty: DirtyRegion::full(),
                undo: None,
                opaque: false,
                traces: PairTraces::default(),
                initial: 0.0,
                evaluations: 0,
            });
        }
    }

    // Initial evaluations arm the lanes' SoA schedule rows.
    batch.ensure_lanes(lanes.len());
    for (li, lane) in lanes.iter_mut().enumerate() {
        let cfg = &plans[lane.cell].config;
        let r = eval_pair(
            batch.lane(li),
            &plans[lane.cell],
            &lane.current,
            &DirtyRegion::full(),
            &mut lane.traces,
        );
        lane.initial = r;
        lane.evaluations = 1;
        batch.reset_lane(
            li,
            cfg.t_max,
            cfg.t_min,
            cfg.alpha,
            cfg.i_max.try_into().unwrap_or(u64::MAX),
            r,
        );
    }

    // Evaluation order: same-shape lanes run adjacently (the kernels' row
    // widths stay constant across consecutive lanes), and the stable sort
    // keeps a cell's restarts — the same scheduler pair — adjacent within a
    // shape class. Shapes are fixed for a whole run (no perturbation adds
    // or removes tasks/nodes), so the order is computed once.
    let mut order: Vec<usize> = (0..lanes.len()).collect();
    order.sort_by_key(|&li| {
        let inst = &lanes[li].current;
        (inst.graph.task_count(), inst.network.node_count(), li)
    });

    run_steps(batch, &plans, &mut lanes, &order);

    // The scalar restart fold: strictly-better ratios win, ties keep the
    // earlier restart; lanes were pushed in (cell, restart) order.
    let mut results: Vec<Option<PisaResult>> = cells.iter().map(|_| None).collect();
    for (li, lane) in lanes.iter().enumerate() {
        let ratio = batch.best[li];
        let better = match &results[lane.cell] {
            None => true,
            Some(prev) => ratio > prev.ratio,
        };
        if better {
            results[lane.cell] = Some(PisaResult {
                instance: lane.best.clone(),
                ratio,
                initial_ratio: lane.initial,
                evaluations: lane.evaluations,
            });
        }
    }
    results
        .into_iter()
        .map(|r| r.expect("restarts >= 1"))
        .collect()
}

/// The lockstep loop proper: every live lane advances exactly one
/// annealing iteration per step (perturb → evaluate → accept), swept in
/// shape-grouped order, then the masked K-wide cooling sweep retires lanes
/// whose schedule ended. Lanes are fully independent — each owns its RNG,
/// context and instance buffers — so the fused per-lane sweep executes the
/// scalar annealing iteration verbatim (same RNG consumption order:
/// perturbation draws, then at most one acceptance draw) and a lane's hot
/// state stays cache-resident across its whole iteration instead of being
/// revisited once per phase.
fn run_steps(
    batch: &mut BatchedSchedContext,
    plans: &[CellPlan],
    lanes: &mut [Lane],
    order: &[usize],
) {
    while batch.live() > 0 {
        for &li in order {
            if !batch.is_active(li) {
                continue;
            }
            let lane = &mut lanes[li];
            let plan = &plans[lane.cell];
            // Perturb in place (undo on rejection), or clone-based opaque
            // fallback under a full region.
            if let Some(undo) = plan
                .perturber
                .perturb_undoable(&mut lane.current, &mut lane.rng)
            {
                lane.dirty = undo.dirty_region();
                lane.dirty.merge(&lane.pending);
                lane.undo = Some(undo);
                lane.opaque = false;
            } else {
                lane.candidate.clone_from(&lane.current);
                plan.perturber.perturb(&mut lane.candidate, &mut lane.rng);
                lane.dirty = DirtyRegion::full();
                lane.undo = None;
                lane.opaque = true;
            }
            // Evaluate against the lane's own context and traces.
            let inst = if lane.opaque {
                &lane.candidate
            } else {
                &lane.current
            };
            let r = eval_pair(batch.lane(li), plan, inst, &lane.dirty, &mut lane.traces);
            batch.candidate[li] = r;
            // Accept/reject, mirroring the scalar loop's branch structure.
            lane.evaluations += 1;
            if !lane.opaque {
                let undo = lane.undo.take().expect("in-place step stored its undo");
                lane.pending = DirtyRegion::clean();
                if r > batch.best[li] {
                    lane.best.clone_from(&lane.current);
                    batch.best[li] = r;
                    batch.current[li] = r;
                } else if accept(batch.current[li], r, batch.temperature[li], &mut lane.rng) {
                    batch.current[li] = r;
                } else {
                    undo.revert(&mut lane.current);
                    lane.pending = undo.revert_dirty_region();
                }
            } else if r > batch.best[li] {
                lane.best.clone_from(&lane.candidate);
                batch.best[li] = r;
                std::mem::swap(&mut lane.current, &mut lane.candidate);
                batch.current[li] = r;
                lane.pending = DirtyRegion::clean();
            } else if accept(batch.current[li], r, batch.temperature[li], &mut lane.rng) {
                std::mem::swap(&mut lane.current, &mut lane.candidate);
                batch.current[li] = r;
                lane.pending = DirtyRegion::clean();
            } else {
                lane.pending = DirtyRegion::full();
            }
        }
        batch.advance_live();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annealer::AnnealScratch;
    use crate::runner::cell_config;

    fn quick(seed: u64, restarts: usize) -> PisaConfig {
        PisaConfig {
            i_max: 60,
            restarts,
            seed,
            ..PisaConfig::default()
        }
    }

    #[test]
    fn lockstep_matches_scalar_bit_for_bit() {
        // heterogeneous pairs, seeds and restart counts in one group
        let cells = [
            SearchCell::pair("HEFT", "CPoP", cell_config(quick(0xA1, 2), 0)),
            SearchCell::pair("MinMin", "FastestNode", cell_config(quick(0xA1, 3), 1)),
            SearchCell::pair("ETF", "HEFT", cell_config(quick(0xA1, 1), 2)),
        ];
        let refs: Vec<&SearchCell> = cells.iter().collect();
        let mut batch = BatchedSchedContext::default();
        let batched = run_cells_lockstep(&mut batch, &refs);
        let mut ctx = SchedContext::new();
        let mut scratch = AnnealScratch::default();
        for (cell, b) in cells.iter().zip(&batched) {
            let s = cell.run(&mut ctx, &mut scratch);
            assert_eq!(s.ratio.to_bits(), b.ratio.to_bits(), "{}", cell.label);
            assert_eq!(
                s.initial_ratio.to_bits(),
                b.initial_ratio.to_bits(),
                "{}",
                cell.label
            );
            assert_eq!(s.evaluations, b.evaluations, "{}", cell.label);
            assert_eq!(s.instance.to_json(), b.instance.to_json(), "{}", cell.label);
        }
    }

    #[test]
    fn plan_packs_groups_and_falls_back() {
        let pair = |i: u64, restarts| SearchCell::pair("HEFT", "CPoP", quick(i, restarts));
        let cells = vec![
            pair(0, 1),
            pair(1, 1), // 1+1 fills a group at the budget; the next pair spills
            pair(2, LANE_BUDGET),
            SearchCell::metric(
                crate::metric::Objective::RentalCost,
                "HEFT",
                "CPoP",
                quick(3, 2),
            ),
            pair(4, LANE_BUDGET + 1), // oversized: scalar fallback
            pair(5, 1),
        ];
        let units = plan_units(&cells, |_, _| true);
        assert_eq!(
            units,
            vec![
                ExecUnit::Lockstep(vec![0, 1]),
                ExecUnit::Scalar(3),
                ExecUnit::Scalar(4),
                ExecUnit::Lockstep(vec![2]),
                ExecUnit::Lockstep(vec![5]),
            ]
        );
        let mut covered: Vec<usize> = units.iter().flat_map(|u| u.indices().to_vec()).collect();
        covered.sort_unstable();
        assert_eq!(covered, (0..cells.len()).collect::<Vec<_>>());
    }

    #[test]
    fn plan_respects_eligibility() {
        let cells = vec![
            SearchCell::pair("HEFT", "CPoP", quick(0, 2)),
            SearchCell::pair("CPoP", "HEFT", quick(1, 2)),
        ];
        let units = plan_units(&cells, |i, _| i != 0);
        assert!(units.contains(&ExecUnit::Scalar(0)));
    }
}
