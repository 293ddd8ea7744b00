//! BIL — Best Imaginary Level (Oh & Ha 1996).
//!
//! Designed for the unrelated-machines model (strictly more general than the
//! related model used here). The *best imaginary level* of a task on a node
//! is the length of the shortest possible remaining schedule if the task ran
//! on that node and every successor got its ideal choice:
//!
//! ```text
//! BIL(t, v) = exec(t, v) + max_{s in succ(t)} min( BIL(s, v),
//!                min_{v' != v} BIL(s, v') + comm(t, s, v -> v') )
//! ```
//!
//! The scheduling phase then repeatedly takes the ready task whose best
//! imaginary makespan `BIM(t, v) = EST(t, v) + BIL(t, v)` is largest (most
//! urgent) and places it on its arg-min node. We implement the core BIL/BIM
//! machinery; the original's k-th-order-statistic refinement for resolving
//! contention between equally-ready tasks is simplified to the max/min rule
//! above (documented deviation — it affects only dense tie situations).
//! The original analysis gives `O(|T|^2 |V| log |V|)`.
//!
//! The level table as defined costs `O(|E| |V|^2)`: every (edge, node)
//! pair scans every other node. Ours stores each finished row's node order,
//! sorted ascending by level, and a scan stops at the first node whose
//! level is not below the running best. A move to that node or any later
//! one costs at least its level, because messages never take negative
//! time, so none can lower the best, and `f64::min` over the nodes visited
//! gives the same float in any order (ARCHITECTURE.md, "Exact-equivalence
//! optimizations"). The table then costs `O(|T| |V| log |V|)` for sorting
//! plus, per (edge, node), only the nodes whose levels undercut the
//! stay-put level: on the ~110-node IoT networks, the few fog and cloud
//! nodes. The selection loop recomposes every start from
//! [`util::FrontierSweep`]'s cached data-ready rows, so a step costs
//! `O(|ready| |V|)` with no division.

use crate::{util, KernelRun};
use saga_core::{DirtyRegion, Instance, NodeId, RunTrace, SchedContext, TaskId};

/// The BIL scheduler.
#[derive(Debug, Clone, Copy, Default)]
pub struct Bil;

/// Computes the `BIL(t, v)` table, reverse-topologically, into a flat
/// task-major buffer (`out[t * |V| + v]`). `order` receives each row's
/// nodes sorted ascending by level, equal levels in node-id order, which
/// lets a predecessor's scan stop early (see the module docs).
fn bil_table_into(ctx: &SchedContext, out: &mut Vec<f64>, order: &mut Vec<NodeId>) {
    let nv = ctx.node_count();
    out.clear();
    out.resize(ctx.task_count() * nv, 0.0);
    order.clear();
    order.resize(ctx.task_count() * nv, NodeId(0));
    for &t in ctx.topo_order().iter().rev() {
        for v in ctx.nodes() {
            let mut level = 0.0f64;
            for (st, cost) in ctx.succs(t) {
                let row = &out[st.index() * nv..][..nv];
                // successor stays on v...
                let mut best = row[v.index()];
                // ...or moves to a node whose own level undercuts the best
                // so far, paying the message
                for &v2 in &order[st.index() * nv..][..nv] {
                    let on_v2 = row[v2.index()];
                    if on_v2 >= best {
                        break;
                    }
                    best = best.min(on_v2 + ctx.comm_time(cost, v, v2));
                }
                level = level.max(best);
            }
            out[t.index() * nv + v.index()] = ctx.exec_time(t, v) + level;
        }
        let row = &out[t.index() * nv..][..nv];
        let nodes = &mut order[t.index() * nv..][..nv];
        for (i, slot) in nodes.iter_mut().enumerate() {
            *slot = NodeId(i as u32);
        }
        // `total_cmp` keeps the order total even for a NaN level, which
        // never stops a scan (`NaN >= best` is false) and which `f64::min`
        // skips, as in the full scan
        nodes.sort_unstable_by(|a, b| row[a.index()].total_cmp(&row[b.index()]).then(a.cmp(b)));
    }
}

/// [`bil_table_into`] with the node-order buffer borrowed from `ctx`'s pool.
fn bil_table(ctx: &mut SchedContext) -> Vec<f64> {
    let mut bil = ctx.take_f64();
    let mut order = ctx.take_nodes();
    bil_table_into(ctx, &mut bil, &mut order);
    ctx.give_nodes(order);
    bil
}

/// BIL's selection loop from whatever partial state `ctx` is in.
fn bil_loop(ctx: &mut SchedContext, sweep: &mut util::FrontierSweep, bil: &[f64]) {
    let n = ctx.task_count();
    let nv = ctx.node_count();
    while ctx.placed_count() < n {
        // priority of a ready task: its best (minimum over nodes) BIM;
        // the task with the largest best-BIM is the most urgent
        let mut chosen: Option<(TaskId, NodeId, f64, f64)> = None;
        for &t in ctx.ready() {
            // the start on v is `sweep.start(ctx, t, v)`, read as whole rows
            let mut best_node: Option<(usize, f64, f64)> = None; // (v, start, bim)
            let levels = &bil[t.index() * nv..][..nv];
            let rows = ctx.append_tails().iter().zip(sweep.row(nv, t));
            for (v, (&level, (&tail, &ready))) in levels.iter().zip(rows).enumerate() {
                let s = tail.max(ready);
                let bim = s + level;
                let better = match best_node {
                    None => true,
                    Some((_, _, bb)) => bim < bb,
                };
                if better {
                    best_node = Some((v, s, bim));
                }
            }
            let (v, s, bim) = best_node.expect("non-empty network");
            let better = match chosen {
                None => true,
                Some((ct, _, _, cb)) => bim > cb || (bim == cb && t < ct),
            };
            if better {
                chosen = Some((t, NodeId(v as u32), s, bim));
            }
        }
        let (t, v, s, _) = chosen.expect("ready set cannot be empty in a DAG");
        ctx.place(t, v, s);
        sweep.note_placed(ctx, t);
    }
}

impl KernelRun for Bil {
    fn kernel_name(&self) -> &'static str {
        "BIL"
    }

    fn run(&self, inst: &Instance, ctx: &mut SchedContext) {
        ctx.reset(inst);
        let bil = bil_table(ctx);
        let mut sweep = util::FrontierSweep::new(ctx);
        bil_loop(ctx, &mut sweep, &bil);
        sweep.release(ctx);
        ctx.give_f64(bil);
    }

    fn run_recorded(
        &self,
        inst: &Instance,
        ctx: &mut SchedContext,
        trace: &mut RunTrace,
        dirty: &DirtyRegion,
    ) {
        ctx.reset(inst);
        let bil = bil_table(ctx);
        ctx.begin_recording();
        // a ready task's BIM folds its whole BIL row into the selection, so
        // the replay additionally stops once a task whose BIL row bits
        // changed since the recorded run sits in the frontier
        if !dirty.is_full()
            && trace.matches(ctx.task_count(), ctx.node_count())
            && trace.aux().len() == bil.len()
        {
            let nv = ctx.node_count();
            let mut changed = ctx.take_tasks();
            for t in 0..ctx.task_count() {
                if bil[t * nv..(t + 1) * nv]
                    .iter()
                    .zip(&trace.aux()[t * nv..(t + 1) * nv])
                    .any(|(a, b)| a.to_bits() != b.to_bits())
                {
                    changed.push(TaskId(t as u32));
                }
            }
            util::replay_frontier_prefix(ctx, trace, dirty, true, |ctx, _| {
                changed
                    .iter()
                    .any(|&t| !ctx.is_placed(t) && ctx.is_ready(t))
            });
            ctx.give_tasks(changed);
        }
        let mut sweep = util::FrontierSweep::new(ctx);
        bil_loop(ctx, &mut sweep, &bil);
        sweep.release(ctx);
        ctx.take_recording(trace);
        trace.set_aux(&bil);
        ctx.give_f64(bil);
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
            let s = Bil.schedule(&inst);
            s.verify(&inst).expect("BIL schedule must be valid");
        }
    }

    #[test]
    fn bil_table_of_sink_is_exec_time() {
        let inst = fixtures::fig1();
        let mut ctx = SchedContext::new();
        ctx.reset(&inst);
        let mut bil = Vec::new();
        bil_table_into(&ctx, &mut bil, &mut Vec::new());
        let nv = ctx.node_count();
        // t4 (sink, cost 0.8) on v2 (speed 1.5): BIL = 0.8 / 1.5
        assert!((bil[3 * nv + 2] - 0.8 / 1.5).abs() < 1e-12);
        assert!((bil[3 * nv] - 0.8).abs() < 1e-12);
    }

    #[test]
    fn bil_is_optimal_on_linear_graphs() {
        // Oh & Ha prove BIL optimal for chains: compare against brute force
        // on a few random chains.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        for _ in 0..5 {
            let costs: Vec<f64> = (0..4).map(|_| rng.gen_range(0.2..2.0)).collect();
            let deps: Vec<f64> = (0..3).map(|_| rng.gen_range(0.2..2.0)).collect();
            let g = saga_core::TaskGraph::chain(&costs, &deps);
            let speeds: Vec<f64> = (0..3).map(|_| rng.gen_range(0.5..2.0)).collect();
            let inst = saga_core::Instance::new(saga_core::Network::complete(&speeds, 1.0), g);
            let bil = Bil.schedule(&inst).makespan();
            let opt = crate::BruteForce::default().schedule(&inst).makespan();
            assert!(bil <= opt + 1e-9, "BIL {bil} > OPT {opt} on a chain");
        }
    }

    #[test]
    fn chain_bil_equals_min_over_serial_choices() {
        // trivial 1-task sanity
        let mut g = saga_core::TaskGraph::new();
        let t = g.add_task("t", 2.0);
        let inst = saga_core::Instance::new(saga_core::Network::complete(&[1.0, 2.0], 1.0), g);
        let s = Bil.schedule(&inst);
        assert_eq!(s.assignment(t).node, saga_core::NodeId(1));
        assert!((s.makespan() - 1.0).abs() < 1e-12);
    }

    /// The level table as defined, by the full `O(|E| |V|^2)` scan — the
    /// oracle the pruned [`bil_table_into`] must reproduce bit for bit.
    fn full_scan_table(ctx: &SchedContext) -> Vec<f64> {
        let nv = ctx.node_count();
        let mut out = vec![0.0; ctx.task_count() * nv];
        for &t in ctx.topo_order().iter().rev() {
            for v in ctx.nodes() {
                let mut level = 0.0f64;
                for (st, cost) in ctx.succs(t) {
                    let mut best = out[st.index() * nv + v.index()];
                    for v2 in ctx.nodes() {
                        if v2 != v {
                            let candidate =
                                out[st.index() * nv + v2.index()] + ctx.comm_time(cost, v, v2);
                            best = best.min(candidate);
                        }
                    }
                    level = level.max(best);
                }
                out[t.index() * nv + v.index()] = ctx.exec_time(t, v) + level;
            }
        }
        out
    }

    /// BIL by the oracle table and per-(task, node) `eft` queries.
    fn oracle_schedule(inst: &Instance) -> saga_core::Schedule {
        let mut ctx = SchedContext::new();
        ctx.reset(inst);
        let bil = full_scan_table(&ctx);
        let nv = ctx.node_count();
        while ctx.placed_count() < ctx.task_count() {
            let mut chosen: Option<(TaskId, NodeId, f64, f64)> = None;
            for &t in ctx.ready() {
                let mut best_node: Option<(NodeId, f64, f64)> = None;
                for v in ctx.nodes() {
                    let (s, _) = ctx.eft(t, v, false);
                    let bim = s + bil[t.index() * nv + v.index()];
                    if best_node.is_none_or(|(_, _, bb)| bim < bb) {
                        best_node = Some((v, s, bim));
                    }
                }
                let (v, s, bim) = best_node.unwrap();
                if chosen.is_none_or(|(ct, _, _, cb)| bim > cb || (bim == cb && t < ct)) {
                    chosen = Some((t, v, s, bim));
                }
            }
            let (t, v, s, _) = chosen.unwrap();
            ctx.place(t, v, s);
        }
        ctx.snapshot_schedule()
    }

    fn assert_tables_match(inst: &Instance, what: &str) {
        let mut ctx = SchedContext::new();
        ctx.reset(inst);
        let (mut pruned, mut order) = (Vec::new(), Vec::new());
        bil_table_into(&ctx, &mut pruned, &mut order);
        let full = full_scan_table(&ctx);
        for (i, (p, f)) in pruned.iter().zip(&full).enumerate() {
            assert_eq!(
                p.to_bits(),
                f.to_bits(),
                "{what}: entry {i}: pruned {p} vs full {f}"
            );
        }
    }

    fn assert_schedules_match(got: &saga_core::Schedule, inst: &Instance, what: &str) {
        let want = oracle_schedule(inst);
        for (g, w) in got.assignments().iter().zip(want.assignments()) {
            assert_eq!(
                (g.node, g.start.to_bits()),
                (w.node, w.start.to_bits()),
                "{what}: task {} placed differently",
                g.task
            );
        }
    }

    #[test]
    fn pruned_table_matches_full_scan_on_iot_networks() {
        use rand::SeedableRng;
        use saga_datasets::iot;
        let gens: [fn(&mut rand::rngs::StdRng) -> Instance; 4] = [
            iot::sample_etl,
            iot::sample_predict,
            iot::sample_stats,
            iot::sample_train,
        ];
        for (k, gen) in gens.iter().enumerate() {
            for seed in 0..3u64 {
                let inst = gen(&mut rand::rngs::StdRng::seed_from_u64(seed));
                let what = format!("iot generator {k}, seed {seed}");
                assert_tables_match(&inst, &what);
                assert_schedules_match(&Bil.schedule(&inst), &inst, &what);
            }
        }
    }

    /// Weights drawn from a small set, so rows tie, messages are empty,
    /// speeds are zero (0/0 levels) or infinite, and links are zero
    /// (infinite messages) or infinite (free messages).
    const COSTS: [f64; 4] = [0.0, 0.5, 1.0, 2.0];
    const SPEEDS: [f64; 5] = [0.0, 0.5, 1.0, 2.0, f64::INFINITY];
    const LINKS: [f64; 4] = [0.0, 0.5, 1.0, f64::INFINITY];

    /// `((tasks, nodes), task costs, dep costs, edge mask, speeds, links,
    /// edge/fog/cloud tiers, (edited task, its new cost))`; a non-zero tier
    /// total replaces the complete network with `build_edge_fog_cloud`.
    type Spec = (
        (usize, usize),
        Vec<usize>,
        Vec<usize>,
        Vec<bool>,
        Vec<usize>,
        Vec<usize>,
        (usize, usize, usize),
        (usize, usize),
    );

    fn arb_spec() -> impl proptest::Strategy<Value = Spec> {
        use proptest::collection::vec;
        use proptest::prelude::*;
        (
            (1usize..=8, 1usize..=6),
            vec(0usize..4, 8),
            vec(0usize..4, 64),
            vec(any::<bool>(), 64),
            vec(0usize..5, 6),
            vec(0usize..4, 36),
            (0usize..=3, 0usize..=2, 0usize..=2).prop_map(|(e, f, c)| {
                if e % 2 == 0 {
                    (e, f, c)
                } else {
                    (0, 0, 0)
                }
            }),
            (0usize..8, 0usize..4),
        )
    }

    fn build(spec: &Spec) -> Instance {
        let ((nt, nv), costs, deps, mask, speeds, links, (e, f, c), _) = spec;
        let mut g = saga_core::TaskGraph::new();
        let ids: Vec<_> = (0..*nt)
            .map(|i| g.add_task(format!("t{i}"), COSTS[costs[i]]))
            .collect();
        for i in 0..*nt {
            for j in (i + 1)..*nt {
                if mask[i * 8 + j] {
                    g.add_dependency(ids[i], ids[j], COSTS[deps[i * 8 + j]])
                        .unwrap();
                }
            }
        }
        let net = if e + f + c > 0 {
            saga_datasets::iot::build_edge_fog_cloud(*e, *f, *c)
        } else {
            let speeds: Vec<f64> = speeds[..*nv].iter().map(|&k| SPEEDS[k]).collect();
            let mut net = saga_core::Network::complete(&speeds, 1.0);
            for u in 0..*nv {
                for v in (u + 1)..*nv {
                    net.set_link(NodeId(u as u32), NodeId(v as u32), LINKS[links[u * 6 + v]]);
                }
            }
            net
        };
        Instance::new(net, g)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        #[test]
        fn pruned_bil_matches_full_scan(spec in arb_spec()) {
            let inst = build(&spec);
            assert_tables_match(&inst, "table");
            assert_schedules_match(&Bil.schedule(&inst), &inst, "run");

            // seed a trace, edit one task weight, re-run incrementally
            let full = DirtyRegion::full();
            let (mut ctx, mut trace) = (SchedContext::new(), RunTrace::new());
            ctx.pin_tables_dirty(&inst, &full);
            Bil.schedule_incremental_into(&inst, &mut ctx, &mut trace, &full);
            ctx.unpin_tables();
            let mut edited = inst.clone();
            let (edit, weight) = spec.7;
            let t = TaskId((edit % inst.graph.task_count()) as u32);
            edited.graph.set_cost(t, COSTS[weight]).unwrap();
            let dirty = DirtyRegion::task_weight(t);
            ctx.pin_tables_dirty(&edited, &dirty);
            let got = Bil.schedule_incremental_into(&edited, &mut ctx, &mut trace, &dirty);
            ctx.unpin_tables();
            assert_schedules_match(&got, &edited, "run_recorded after a weight edit");
        }
    }
}
