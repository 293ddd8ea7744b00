//! Property suite for the fused EFT row kernels (PR 8).
//!
//! Every scheduler hot loop now answers "what is `t`'s (start, finish) on
//! each node?" through [`SchedContext::eft_row_into`] (or its append-only
//! fast variant) plus the lowest-index argmin helpers, instead of one
//! `ctx.eft` query per node. The contract is bitwise: on any reachable
//! partial state, the fused row must reproduce the per-node queries bit for
//! bit, and the argmin helpers must pick exactly the node the Option-based
//! comparator loops picked — including insertion-policy gap cells, interior
//! idle gaps, and zero-duration boundary tasks whose finish precedes the
//! node's max finish.
//!
//! Half-placed states are generated from the schedulers themselves: each
//! roster scheduler's final schedule is replayed for the first half of the
//! topological order, so the probed timelines carry that scheduler's real
//! placement style (HEFT/CPoP leave insertion gaps, load balancers leave
//! ragged tails, MET leaves pile-ups). Any divergence flips bits here long
//! before it could reach the golden fixtures.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use saga::core::{Instance, Network, NodeId, SchedContext, TaskGraph, TaskId};
use saga::schedulers::Scheduler;

/// A seeded random DAG like the shared fixture, but with a fraction of
/// zero-cost tasks and zero-cost messages — the boundary shapes whose slots
/// can finish before their neighbours and whose messages arrive everywhere
/// at once.
fn random_instance_with_zeros(seed: u64, tasks: usize, nodes: usize, p_edge: f64) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = TaskGraph::with_capacity(tasks);
    let ids: Vec<_> = (0..tasks)
        .map(|i| {
            let cost = if rng.gen_bool(0.2) {
                0.0
            } else {
                rng.gen_range(0.01..=1.0)
            };
            g.add_task(format!("t{i}"), cost)
        })
        .collect();
    for i in 0..tasks {
        for j in (i + 1)..tasks {
            if rng.gen_bool(p_edge) {
                let cost = if rng.gen_bool(0.25) {
                    0.0
                } else {
                    rng.gen_range(0.01..=1.0)
                };
                g.add_dependency(ids[i], ids[j], cost).unwrap();
            }
        }
    }
    let speeds: Vec<f64> = (0..nodes).map(|_| rng.gen_range(0.1..=1.0)).collect();
    let mut n = Network::complete(&speeds, 1.0);
    for u in 0..nodes {
        for v in (u + 1)..nodes {
            n.set_link(NodeId(u as u32), NodeId(v as u32), rng.gen_range(0.1..=1.0));
        }
    }
    Instance::new(n, g)
}

/// Replays the first `frac`-th of `sched`'s placements (in topological
/// order, so predecessors always precede successors) into a fresh context.
fn half_placed(inst: &Instance, sched: &dyn Scheduler, num: usize, den: usize) -> SchedContext {
    let s = sched.schedule(inst);
    let mut ctx = SchedContext::new();
    ctx.reset(inst);
    let order: Vec<TaskId> = ctx.topo_order().to_vec();
    for &t in order.iter().take(order.len() * num / den) {
        let a = s.assignment(t);
        ctx.place(t, a.node, a.start);
    }
    ctx
}

/// Asserts the fused row and argmin helpers bit-identical to the per-node
/// queries and comparator loops for every ready task of `ctx`.
fn check_rows(ctx: &SchedContext, label: &str) {
    let nv = ctx.node_count();
    let mut starts = vec![0.0f64; nv];
    let mut finishes = vec![0.0f64; nv];
    for &t in ctx.ready() {
        for insertion in [false, true] {
            ctx.eft_row_into(t, &mut starts, &mut finishes, insertion);
            // the row vs the per-node queries, element by element
            let mut exp_eft: Option<(NodeId, f64, f64)> = None;
            let mut exp_est: Option<(NodeId, f64, f64)> = None;
            for v in ctx.nodes() {
                let (es, ef) = ctx.eft(t, v, insertion);
                assert_eq!(
                    starts[v.index()].to_bits(),
                    es.to_bits(),
                    "{label}: start({t}, {v}, insertion={insertion}) diverged: \
                     row {} vs query {es}",
                    starts[v.index()],
                );
                assert_eq!(
                    finishes[v.index()].to_bits(),
                    ef.to_bits(),
                    "{label}: finish({t}, {v}, insertion={insertion}) diverged: \
                     row {} vs query {ef}",
                    finishes[v.index()],
                );
                let take_eft = match exp_eft {
                    None => true,
                    Some((_, _, bf)) => ef < bf,
                };
                if take_eft {
                    exp_eft = Some((v, es, ef));
                }
                let take_est = match exp_est {
                    None => true,
                    Some((_, bs, bf)) => es < bs || (es == bs && ef < bf),
                };
                if take_est {
                    exp_est = Some((v, es, ef));
                }
            }
            // the argmin helpers vs the Option-based comparator loops
            let (ev, _, _) = exp_eft.unwrap();
            assert_eq!(
                saga::core::argmin_finish(&finishes),
                ev,
                "{label}: argmin_finish({t}, insertion={insertion}) diverged"
            );
            let (sv, _, _) = exp_est.unwrap();
            assert_eq!(
                saga::core::argmin_start_finish(&starts, &finishes),
                sv,
                "{label}: argmin_start_finish({t}, insertion={insertion}) diverged"
            );
        }
    }
}

#[test]
fn fused_rows_match_per_node_queries_on_scheduler_states() {
    let scheds = saga::schedulers::benchmark_schedulers();
    for seed in [3u64, 17, 88] {
        // 3–6 nodes exercise the narrow regime (scalar comparator loops by
        // default); 10 nodes crosses the `WIDE_NODES` band so the scheduler
        // replays drive the fused dispatch in the selection helpers too
        for (tasks, nodes) in [(12usize, 3usize), (24, 4), (40, 6), (36, 10)] {
            let inst = random_instance_with_zeros(seed, tasks, nodes, 0.2);
            for s in &scheds {
                // quarter-, half- and three-quarter-placed states: early
                // frontiers are wide, late ones probe long timelines
                for (num, den) in [(1usize, 4usize), (1, 2), (3, 4)] {
                    let ctx = half_placed(&inst, s.as_ref(), num, den);
                    check_rows(
                        &ctx,
                        &format!("{} seed {seed} {tasks}t/{nodes}v {num}/{den}", s.name()),
                    );
                }
            }
        }
    }
}

#[test]
fn fused_rows_match_on_boundary_shapes() {
    // a hand-built state with a zero-duration task sitting at the tail of a
    // timeline while finishing before the slot beneath it: the insertion
    // gate must key on the max finish, not the tail finish
    let mut g = TaskGraph::new();
    let a = g.add_task("a", 1.0);
    let z = g.add_task("z", 0.0);
    let _b = g.add_task("b", 2.0);
    let c = g.add_task("c", 0.5);
    g.add_dependency(a, c, 0.2).unwrap();
    g.add_dependency(z, c, 0.0).unwrap();
    let inst = Instance::new(Network::complete(&[1.0, 0.5], 1.0), g);
    let mut ctx = SchedContext::new();
    ctx.reset(&inst);
    ctx.place(a, NodeId(0), 2.0); // occupies [2, 3]
    ctx.place(z, NodeId(0), 2.0); // zero-duration boundary slot at [2, 2],
                                  // sorted after `a`: the tail finish (2.0)
                                  // is *smaller* than the max finish (3.0)
    assert_eq!(ctx.append_tails(), &[2.0, 0.0]);
    // b and c are both ready (c's predecessors are placed); b can slide
    // into node 0's leading idle gap [0, 2), c cannot start before its data
    check_rows(&ctx, "boundary");

    // an empty state: every timeline empty, tails all zero
    let mut fresh = SchedContext::new();
    fresh.reset(&inst);
    check_rows(&fresh, "empty");
}
