//! WBA — Workflow-Based Application scheduling (Blythe et al. 2005).
//!
//! A greedy randomized scheduler from the scientific-workflow world: at each
//! step it evaluates, for every ready task and every node, how much the
//! placement would increase the current schedule makespan, then samples a
//! placement from a distribution favouring the smallest increases (options
//! are weighted by `I_max - I`, so the least-damaging choices are most
//! likely and the worst choice has weight zero). Complexity at most
//! `O(|T| |D| |V|)` per the paper's observation.
//!
//! The RNG is seeded (default 0xB1) so experiments are reproducible; PISA
//! perturbs instances, not scheduler seeds.
//!
//! Placement is append-only, so every candidate finish comes from
//! [`util::FrontierSweep`]'s cached data-ready rows, composed in one scalar
//! pass per ready task over slices hoisted once per task. The current
//! makespan is a running max over placed finish times (same fold, same
//! value as [`SchedContext::current_makespan`]) instead of an O(|T|)
//! rescan per step, and the chosen option's start is recomposed from the
//! sweep rather than buffered.
//!
//! Incremental re-evaluation replays the recorded placement prefix until a
//! dirty task reaches the frontier, like MinMin. Every step draws exactly
//! one `next_u64` (both `gen_range(0..n)` over `usize` and `gen::<f64>()`),
//! so the RNG resumes by skipping one word per replayed placement. Structural
//! regions never replay: the weighted draw reads the *whole* frontier (its
//! total weight and the option index), so a dirty task that an added edge
//! keeps out of the frontier changes the draw without ever being in it.

use crate::{util, KernelRun};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use saga_core::{DirtyRegion, Instance, NodeId, RunTrace, SchedContext};

/// The WBA scheduler.
#[derive(Debug, Clone, Copy)]
pub struct Wba {
    /// Seed for the placement-sampling RNG.
    pub seed: u64,
}

impl Default for Wba {
    fn default() -> Self {
        Wba { seed: 0xB1 }
    }
}

impl Wba {
    /// The sampling loop from whatever partial state `ctx` is in: the RNG
    /// skips the one word each already-placed step drew, and the running
    /// makespan resumes from the placed prefix.
    fn sample_loop(&self, ctx: &mut SchedContext) {
        let mut rng = StdRng::seed_from_u64(self.seed);
        for _ in 0..ctx.placed_count() {
            rng.next_u64();
        }
        let n = ctx.task_count();
        let nv = ctx.node_count();
        let mut sweep = util::FrontierSweep::new(ctx);
        let mut current = ctx.current_makespan();
        // Option `i` is (ready task `i / nv`, node `i % nv`): the ready set
        // is stable while a step's options are built and consumed, so the
        // identity is recovered from the index.
        let mut increases = ctx.take_f64();
        while ctx.placed_count() < n {
            let ready = ctx.ready();
            increases.resize(ready.len() * nv, 0.0);
            let tails = ctx.append_tails();
            let mut i_min = f64::INFINITY;
            let mut i_max = f64::NEG_INFINITY;
            for (&t, out) in ready.iter().zip(increases.chunks_exact_mut(nv)) {
                let drt = sweep.row(nv, t);
                let exec = ctx.exec_row(t);
                for v in 0..nv {
                    let increase = (tails[v].max(drt[v]) + exec[v] - current).max(0.0);
                    i_min = i_min.min(increase);
                    i_max = i_max.max(increase);
                    out[v] = increase;
                }
            }
            let chosen = if !i_min.is_finite() || !i_max.is_finite() || i_max == i_min {
                // uniformly random among options (covers infinite increases
                // on zero-speed networks and the all-equal case)
                rng.gen_range(0..increases.len())
            } else {
                // weight by (I_max - I): zero for the worst, largest for the
                // best; sample proportionally. Both extremes are finite, so
                // every increase is (and none is NaN: `.max(0.0)` maps
                // `inf - inf` to 0)
                let total: f64 = increases.iter().map(|&i| i_max - i).sum();
                if total <= 0.0 {
                    rng.gen_range(0..increases.len())
                } else {
                    let mut x = rng.gen::<f64>() * total;
                    let mut pick = increases.len() - 1;
                    for (idx, &i) in increases.iter().enumerate() {
                        let w = i_max - i;
                        if x < w {
                            pick = idx;
                            break;
                        }
                        x -= w;
                    }
                    pick
                }
            };
            let t = ready[chosen / nv];
            let v = chosen % nv;
            let start = sweep.start(ctx, t, v);
            ctx.place(t, NodeId(v as u32), start);
            sweep.note_placed(ctx, t);
            current = current.max(ctx.finish_time(t));
        }
        ctx.give_f64(increases);
        sweep.release(ctx);
    }
}

impl KernelRun for Wba {
    fn kernel_name(&self) -> &'static str {
        "WBA"
    }

    fn run(&self, inst: &Instance, ctx: &mut SchedContext) {
        ctx.reset(inst);
        self.sample_loop(ctx);
    }

    fn run_recorded(
        &self,
        inst: &Instance,
        ctx: &mut SchedContext,
        trace: &mut RunTrace,
        dirty: &DirtyRegion,
    ) {
        ctx.reset(inst);
        ctx.begin_recording();
        if !dirty.is_structural() {
            util::replay_frontier_prefix(ctx, trace, dirty, true, |_, _| false);
        }
        self.sample_loop(ctx);
        ctx.take_recording(trace);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::fixtures;
    use crate::Scheduler;

    #[test]
    fn schedules_are_valid_on_smoke_instances() {
        for inst in fixtures::smoke_instances() {
            let s = Wba::default().schedule(&inst);
            s.verify(&inst).expect("WBA schedule must be valid");
        }
    }

    #[test]
    fn deterministic_under_a_fixed_seed() {
        let inst = fixtures::random_instance(5, 10, 3, 0.3);
        let a = Wba { seed: 7 }.schedule(&inst);
        let b = Wba { seed: 7 }.schedule(&inst);
        assert_eq!(a.makespan(), b.makespan());
        for t in inst.graph.tasks() {
            assert_eq!(a.assignment(t).node, b.assignment(t).node);
        }
    }

    #[test]
    fn different_seeds_can_differ() {
        let inst = fixtures::random_instance(5, 12, 4, 0.25);
        let makespans: Vec<f64> = (0..8)
            .map(|s| Wba { seed: s }.schedule(&inst).makespan())
            .collect();
        let first = makespans[0];
        assert!(
            makespans.iter().any(|&m| (m - first).abs() > 1e-12),
            "8 seeds all identical is vanishingly unlikely"
        );
    }

    #[test]
    fn favours_low_increase_placements() {
        // a single huge task: placing it on the slow node would blow up the
        // makespan, so the weighting should essentially always avoid it
        let mut g = saga_core::TaskGraph::new();
        let t = g.add_task("t", 100.0);
        let inst = saga_core::Instance::new(saga_core::Network::complete(&[0.01, 1.0], 1.0), g);
        let mut fast = 0;
        for seed in 0..20 {
            let s = Wba { seed }.schedule(&inst);
            if s.assignment(t).node == saga_core::NodeId(1) {
                fast += 1;
            }
        }
        assert!(fast >= 19, "only {fast}/20 runs used the fast node");
    }

    #[test]
    fn handles_zero_speed_networks() {
        let mut g = saga_core::TaskGraph::new();
        g.add_task("a", 1.0);
        g.add_task("b", 1.0);
        let inst = saga_core::Instance::new(saga_core::Network::complete(&[0.0, 0.0], 0.0), g);
        let s = Wba::default().schedule(&inst);
        s.verify(&inst).unwrap();
        assert!(s.makespan().is_infinite());
    }
}
