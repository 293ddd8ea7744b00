//! Property suite for incremental delta-evaluation (PR 5).
//!
//! The annealer's hot path now re-evaluates schedulers through
//! `Scheduler::makespan_incremental`: the kernel refreshes only the cost
//! tables a perturbation's [`DirtyRegion`] names, and supporting schedulers
//! replay the unchanged placement prefix of their recorded previous run.
//! This suite drives the exact protocol the annealing loop uses — perturb →
//! incremental evaluate → undo → incremental evaluate, with the dirty
//! region taken from the perturbation undo records — across *all six*
//! perturbation operators and every benchmark scheduler, asserting each
//! incremental makespan bit-identical to a from-scratch evaluation in a
//! fresh context. Any unsound replay-prefix rule flips bits here long
//! before it could reach the golden fixtures. The roundtrip test also
//! drives the Section VII perturber on workflow instances, whose wide
//! ready frontiers and 8–10-node networks the 3–5-task chains never reach.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use saga::core::{DirtyRegion, Instance, RunTrace, SchedContext};
use saga::pisa::app_specific::AppSpecific;
use saga::pisa::perturb::{initial_instance, GeneralPerturber, Perturber};
use saga::schedulers::Scheduler;

/// Evaluates every scheduler incrementally (shared pinned tables, per-
/// scheduler traces — exactly how `Pisa::ratio_incremental` drives pairs)
/// and asserts each result bit-identical to a full run in a fresh context.
fn check_all(
    scheds: &[Box<dyn Scheduler>],
    inst: &Instance,
    ctx: &mut SchedContext,
    traces: &mut [RunTrace],
    dirty: &DirtyRegion,
    fresh: &mut SchedContext,
    step: &str,
) {
    ctx.pin_tables_dirty(inst, dirty);
    for (s, trace) in scheds.iter().zip(traces.iter_mut()) {
        let incremental = s.makespan_incremental(inst, ctx, trace, dirty);
        let full = s.makespan_into(inst, fresh);
        assert_eq!(
            incremental.to_bits(),
            full.to_bits(),
            "{} diverged at {step}: incremental {incremental} vs full {full}",
            s.name()
        );
    }
    ctx.unpin_tables();
}

#[test]
fn perturb_evaluate_undo_roundtrips_bit_identically() {
    let scheds = saga::schedulers::benchmark_schedulers();
    // general perturbations (structural edits included) on the 3–5-task
    // chains, plus the Section VII perturber (weight-only) on rigid
    // workflows: wide ready frontiers on 4–10-node networks
    let mut inputs: Vec<(String, GeneralPerturber, Instance, StdRng)> = [1u64, 7, 42]
        .into_iter()
        .map(|seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let inst = initial_instance(&mut rng);
            (
                format!("seed {seed}"),
                GeneralPerturber::default(),
                inst,
                rng,
            )
        })
        .collect();
    for (workflow, seed) in [("montage", 3u64), ("epigenomics", 11), ("cycles", 2)] {
        let app = AppSpecific::new(workflow, 1.0).expect("known workflow");
        let mut rng = StdRng::seed_from_u64(seed);
        let inst = app.initial_instance(&mut rng);
        inputs.push((
            format!("{workflow} seed {seed}"),
            app.perturber(),
            inst,
            rng,
        ));
    }
    assert!(
        inputs
            .iter()
            .any(|(_, _, inst, _)| inst.network.node_count() >= 8),
        "the Section VII inputs must reach the 8–32-node fused-row band"
    );
    for (label, perturber, mut inst, mut rng) in inputs {
        let mut ctx = SchedContext::new();
        let mut fresh = SchedContext::new();
        let mut traces: Vec<RunTrace> = scheds.iter().map(|_| RunTrace::new()).collect();
        // seed the traces exactly like a restart's first evaluation
        check_all(
            &scheds,
            &inst,
            &mut ctx,
            &mut traces,
            &DirtyRegion::full(),
            &mut fresh,
            "initial",
        );
        for iter in 0..150 {
            let undo = perturber
                .perturb_undoable(&mut inst, &mut rng)
                .expect("general perturber always supports undo");
            let dirty = undo.dirty_region();
            check_all(
                &scheds,
                &inst,
                &mut ctx,
                &mut traces,
                &dirty,
                &mut fresh,
                &format!("{label} iter {iter} perturb"),
            );
            if rng.gen_bool(0.5) {
                // rejection path: revert, and the next evaluation's dirty
                // region is the revert's own (the annealer's `pending`)
                undo.revert(&mut inst);
                check_all(
                    &scheds,
                    &inst,
                    &mut ctx,
                    &mut traces,
                    &undo.revert_dirty_region(),
                    &mut fresh,
                    &format!("{label} iter {iter} revert"),
                );
            }
        }
    }
}

#[test]
fn rejection_dirt_accumulates_into_next_evaluation() {
    // the annealer skips the evaluation after a revert and instead folds
    // the revert's dirt into the *next* perturbation's region — drive that
    // exact merge protocol
    let scheds = saga::schedulers::benchmark_schedulers();
    let perturber = GeneralPerturber::default();
    let mut rng = StdRng::seed_from_u64(99);
    let mut inst = initial_instance(&mut rng);
    let mut ctx = SchedContext::new();
    let mut fresh = SchedContext::new();
    let mut traces: Vec<RunTrace> = scheds.iter().map(|_| RunTrace::new()).collect();
    check_all(
        &scheds,
        &inst,
        &mut ctx,
        &mut traces,
        &DirtyRegion::full(),
        &mut fresh,
        "initial",
    );
    let mut pending = DirtyRegion::clean();
    for iter in 0..200 {
        let undo = perturber
            .perturb_undoable(&mut inst, &mut rng)
            .expect("undoable");
        let mut dirty = undo.dirty_region();
        dirty.merge(&pending);
        check_all(
            &scheds,
            &inst,
            &mut ctx,
            &mut traces,
            &dirty,
            &mut fresh,
            &format!("iter {iter}"),
        );
        if rng.gen_bool(0.4) {
            undo.revert(&mut inst);
            pending = undo.revert_dirty_region();
        } else {
            pending = DirtyRegion::clean();
        }
    }
}

#[test]
fn incremental_schedules_materialize_identically() {
    // the metric-objective cells need full Schedules, not just makespans:
    // compare every assignment of the incremental materialization against
    // the from-scratch one
    let scheds = saga::schedulers::benchmark_schedulers();
    let perturber = GeneralPerturber::default();
    let mut rng = StdRng::seed_from_u64(5);
    let mut inst = initial_instance(&mut rng);
    let mut ctx = SchedContext::new();
    let mut fresh = SchedContext::new();
    let mut traces: Vec<RunTrace> = scheds.iter().map(|_| RunTrace::new()).collect();
    let mut dirty = DirtyRegion::full();
    for _ in 0..60 {
        ctx.pin_tables_dirty(&inst, &dirty);
        for (s, trace) in scheds.iter().zip(traces.iter_mut()) {
            let a = s.schedule_incremental_into(&inst, &mut ctx, trace, &dirty);
            let b = s.schedule_into(&inst, &mut fresh);
            assert_eq!(
                a.makespan().to_bits(),
                b.makespan().to_bits(),
                "{} makespan",
                s.name()
            );
            for t in inst.graph.tasks() {
                let (x, y) = (a.assignment(t), b.assignment(t));
                assert_eq!(x.node, y.node, "{} node of {t}", s.name());
                assert_eq!(
                    x.start.to_bits(),
                    y.start.to_bits(),
                    "{} start of {t}",
                    s.name()
                );
                assert_eq!(
                    x.finish.to_bits(),
                    y.finish.to_bits(),
                    "{} finish of {t}",
                    s.name()
                );
            }
        }
        ctx.unpin_tables();
        let undo = perturber
            .perturb_undoable(&mut inst, &mut rng)
            .expect("undoable");
        dirty = undo.dirty_region();
    }
}
