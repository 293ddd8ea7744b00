//! Shared helpers for list schedulers, plus reusable test fixtures.
//!
//! All helpers operate on the [`SchedContext`] kernel; builder-based callers
//! reach it through [`ScheduleBuilder::ctx`](saga_core::ScheduleBuilder::ctx).

use saga_core::{DirtyRegion, NodeId, RunTrace, SchedContext, TaskId};

/// Stack-buffer capacity for per-node scratch in the selection helpers;
/// networks wider than this fall back to per-node queries.
pub(crate) const STACK_NODES: usize = 32;

/// Minimum network width for the fused row formulation to pay: below this
/// the compose stays scalar (see the AVX dispatch gate in `saga-core`) and
/// materializing row buffers loses to the register-resident comparator
/// loops, so narrow networks keep the scalar per-node path. Bit-identical
/// either way.
pub(crate) const WIDE_NODES: usize = 8;

/// Whether the selection helpers should take the fused row path for an
/// `nv`-node network: the width is inside the `[WIDE_NODES, STACK_NODES]`
/// band where the vectorized compose beats the scalar comparator loop and
/// the scratch rows fit on the stack.
#[inline]
pub(crate) fn fused_rows_profitable(nv: usize) -> bool {
    (WIDE_NODES..=STACK_NODES).contains(&nv)
}

/// Cached data-ready state for *append-only* frontier sweeps (MinMin/MaxMin,
/// ETF, ERT, GDL, WBA, FLB, BIL): a ready task's data-ready times never change
/// (its predecessors are all placed), so each task's row is computed exactly
/// once — and every `(start, finish)` the sweep compares is recomposed as
/// `tail.max(ready) + duration` from that row, the kernel's maintained
/// append-tail row ([`SchedContext::append_tails`]) and the cached execution
/// row, division-free and bit-identical to the direct queries. Inside the
/// fused-row band the recompose is one branchless fused sweep
/// ([`Self::fused_rows`]); the comparator form ([`Self::best_node`]) is the
/// scalar fallback.
pub(crate) struct FrontierSweep {
    /// `drt[t * |V| + v]`, valid for tasks that have entered the ready set.
    drt: Vec<f64>,
}

impl FrontierSweep {
    /// Builds the cache (buffer from the context pools) and fills the rows
    /// of the currently ready tasks. Node tails live in the kernel's
    /// maintained append-tail row, so a sweep may start mid-run — after an
    /// incremental replay of an append-only placement prefix — as well as
    /// from a clean context.
    pub fn new(ctx: &mut SchedContext) -> Self {
        let nv = ctx.node_count();
        let mut drt = ctx.take_f64();
        drt.resize(ctx.task_count() * nv, 0.0);
        let mut sweep = FrontierSweep { drt };
        for &t in ctx.ready() {
            sweep.fill_row(ctx, t);
        }
        sweep
    }

    fn fill_row(&mut self, ctx: &SchedContext, t: TaskId) {
        let nv = ctx.node_count();
        ctx.data_ready_times_into(t, &mut self.drt[t.index() * nv..][..nv]);
    }

    /// The append-only start of `t` on node `v` — identical to
    /// `ctx.earliest_start_append(v, ctx.data_ready_time(t, v))`.
    #[inline]
    pub fn start(&self, ctx: &SchedContext, t: TaskId, v: usize) -> f64 {
        ctx.append_tails()[v].max(self.drt[t.index() * ctx.node_count() + v])
    }

    /// The cached data-ready row of a ready task — element `v` is identical
    /// to `ctx.data_ready_time(t, NodeId(v))`.
    #[inline]
    pub fn row(&self, nv: usize, t: TaskId) -> &[f64] {
        &self.drt[t.index() * nv..][..nv]
    }

    /// Records a placement made by the owning sweep: fills the rows of
    /// successors that just became ready (the kernel maintains the node
    /// tails itself).
    pub fn note_placed(&mut self, ctx: &SchedContext, t: TaskId) {
        for (s, _) in ctx.succs(t) {
            if !ctx.is_placed(s) && ctx.is_ready(s) {
                self.fill_row(ctx, s);
            }
        }
    }

    /// The fused `(start, finish)` rows of ready task `t` over all nodes,
    /// into caller scratch: the cached data-ready row composed elementwise
    /// with the kernel's append-tail row and the execution row — the same
    /// AVX-dispatched compose [`SchedContext::eft_row_append_into`] uses,
    /// minus the data-ready pass the sweep already cached. Element `v` is
    /// bit-identical to [`Self::start`] / `start + duration`.
    #[inline]
    pub fn fused_rows(
        &self,
        ctx: &SchedContext,
        t: TaskId,
        starts: &mut [f64],
        finishes: &mut [f64],
    ) {
        let nv = ctx.node_count();
        saga_core::compose_append_rows_from(
            &self.drt[t.index() * nv..][..nv],
            ctx.append_tails(),
            ctx.exec_row(t),
            starts,
            finishes,
        );
    }

    /// The best node for `t` under `better((start, finish), (best_start,
    /// best_finish))`, scanning nodes in ascending id order (first win on
    /// ties) over the cached rows. Shared by the MinMin/MaxMin and ETF
    /// sweeps, which differ only in this comparator; the scalar fallback of
    /// [`Self::best_node_eft`] / [`Self::best_node_est`].
    pub fn best_node(
        &self,
        ctx: &SchedContext,
        t: TaskId,
        better: impl Fn((f64, f64), (f64, f64)) -> bool,
    ) -> (NodeId, f64, f64) {
        let mut best: Option<(NodeId, f64, f64)> = None;
        for (v, &duration) in ctx.exec_row(t).iter().enumerate() {
            let s = self.start(ctx, t, v);
            let f = s + duration;
            let take = match best {
                None => true,
                Some((_, bs, bf)) => better((s, f), (bs, bf)),
            };
            if take {
                best = Some((NodeId(v as u32), s, f));
            }
        }
        best.expect("network has at least one node")
    }

    /// [`Self::best_node`] under the earliest-finish comparator
    /// (`f < bf`, lowest node id on ties) as one fused row compose plus the
    /// lowest-index argmin — bit-identical to the comparator form, which
    /// networks outside the fused-row band still take.
    pub fn best_node_eft(&self, ctx: &SchedContext, t: TaskId) -> (NodeId, f64, f64) {
        let nv = ctx.node_count();
        if !fused_rows_profitable(nv) {
            return self.best_node(ctx, t, |(_, f), (_, bf)| f < bf);
        }
        let mut starts = [0.0f64; STACK_NODES];
        let mut finishes = [0.0f64; STACK_NODES];
        self.fused_rows(ctx, t, &mut starts[..nv], &mut finishes[..nv]);
        let v = saga_core::argmin_finish(&finishes[..nv]);
        (v, starts[v.index()], finishes[v.index()])
    }

    /// [`Self::best_node`] under the earliest-start comparator
    /// (`s < bs || (s == bs && f < bf)`) as one fused row compose plus the
    /// lexicographic argmin — bit-identical to the comparator form.
    pub fn best_node_est(&self, ctx: &SchedContext, t: TaskId) -> (NodeId, f64, f64) {
        let nv = ctx.node_count();
        if !fused_rows_profitable(nv) {
            return self.best_node(ctx, t, |(s, f), (bs, bf)| s < bs || (s == bs && f < bf));
        }
        let mut starts = [0.0f64; STACK_NODES];
        let mut finishes = [0.0f64; STACK_NODES];
        self.fused_rows(ctx, t, &mut starts[..nv], &mut finishes[..nv]);
        let v = saga_core::argmin_start_finish(&starts[..nv], &finishes[..nv]);
        (v, starts[v.index()], finishes[v.index()])
    }

    /// Returns the buffer to the context pool.
    pub fn release(self, ctx: &mut SchedContext) {
        ctx.give_f64(self.drt);
    }
}

/// The node minimizing the earliest finish time of `t`, with the
/// corresponding `(start, finish)`. Ties go to the lower node id.
///
/// Inside the fused-row band, append-policy queries are one fused
/// [`SchedContext::eft_row_append_into`] pass plus the lowest-index argmin,
/// and insertion-policy queries run the pruned gap-scan loop over the
/// batched data-ready row; both reproduce the full per-node sweep bit for
/// bit (a node only wins on a strictly smaller finish, and the true finish
/// never beats the `data_ready + duration` skip bound). Networks outside
/// the `[WIDE_NODES, STACK_NODES]` profitability band take the scalar
/// per-node formulation.
pub fn best_eft_node(ctx: &SchedContext, t: TaskId, insertion: bool) -> (NodeId, f64, f64) {
    let nv = ctx.node_count();
    if fused_rows_profitable(nv) {
        let mut starts = [0.0f64; STACK_NODES];
        let mut finishes = [0.0f64; STACK_NODES];
        if !insertion {
            ctx.eft_row_append_into(t, &mut starts[..nv], &mut finishes[..nv]);
            let v = saga_core::argmin_finish(&finishes[..nv]);
            return (v, starts[v.index()], finishes[v.index()]);
        }
        // insertion: the gap scans stay per node (pruned by the incumbent
        // bound), fed from one batched data-ready row pass
        ctx.data_ready_times_into(t, &mut starts[..nv]);
        let exec = ctx.exec_row(t);
        let (mut best, mut bs, mut bf) = (usize::MAX, 0.0f64, f64::INFINITY);
        for (v, (&ready, &duration)) in starts[..nv].iter().zip(exec).enumerate() {
            if best != usize::MAX && ready + duration >= bf {
                continue;
            }
            let s = ctx.earliest_start_insertion(NodeId(v as u32), ready, duration);
            let f = s + duration;
            if best == usize::MAX || f < bf {
                best = v;
                bs = s;
                bf = f;
            }
        }
        assert!(best != usize::MAX, "network has at least one node");
        return (NodeId(best as u32), bs, bf);
    }
    best_eft_node_scalar(ctx, t, insertion)
}

/// The pre-row-kernel formulation of [`best_eft_node`]: per-node queries
/// (batched data-ready row on narrow networks) with the same skip bound.
fn best_eft_node_scalar(ctx: &SchedContext, t: TaskId, insertion: bool) -> (NodeId, f64, f64) {
    let mut ready_buf = [0.0f64; STACK_NODES];
    let nv = ctx.node_count();
    let batched = nv <= STACK_NODES;
    if batched {
        ctx.data_ready_times_into(t, &mut ready_buf[..nv]);
    }
    let mut best: Option<(NodeId, f64, f64)> = None;
    for v in ctx.nodes() {
        let ready = if batched {
            ready_buf[v.index()]
        } else {
            ctx.data_ready_time(t, v)
        };
        let duration = ctx.exec_time(t, v);
        if let Some((_, _, bf)) = best {
            if ready + duration >= bf {
                continue;
            }
        }
        // same composition as `ctx.eft`, reusing the ready time computed
        // for the bound
        let s = if insertion {
            ctx.earliest_start_insertion(v, ready, duration)
        } else {
            ctx.earliest_start_append(v, ready)
        };
        let f = s + duration;
        let better = match best {
            None => true,
            Some((_, _, bf)) => f < bf,
        };
        if better {
            best = Some((v, s, f));
        }
    }
    best.expect("network has at least one node")
}

/// The node minimizing the earliest *start* time of `t` (ETF's criterion),
/// with the corresponding `(start, finish)`. Ties go to the earlier finish.
///
/// Like [`best_eft_node`], nodes are pruned when even their data-ready lower
/// bound starts strictly after the incumbent (a strictly later start can
/// never win, and an equal one only refines the finish tie-break, which the
/// bound does not exclude) — the outcome is bit-identical to the full sweep.
/// Append-policy queries inside the fused-row band take the fused row pass
/// plus the lexicographic argmin.
pub fn best_est_node(ctx: &SchedContext, t: TaskId, insertion: bool) -> (NodeId, f64, f64) {
    let nv = ctx.node_count();
    if !insertion && fused_rows_profitable(nv) {
        let mut starts = [0.0f64; STACK_NODES];
        let mut finishes = [0.0f64; STACK_NODES];
        ctx.eft_row_append_into(t, &mut starts[..nv], &mut finishes[..nv]);
        let v = saga_core::argmin_start_finish(&starts[..nv], &finishes[..nv]);
        return (v, starts[v.index()], finishes[v.index()]);
    }
    let mut ready_buf = [0.0f64; STACK_NODES];
    let batched = nv <= STACK_NODES;
    if batched {
        ctx.data_ready_times_into(t, &mut ready_buf[..nv]);
    }
    let mut best: Option<(NodeId, f64, f64)> = None;
    for v in ctx.nodes() {
        let ready = if batched {
            ready_buf[v.index()]
        } else {
            ctx.data_ready_time(t, v)
        };
        if let Some((_, bs, _)) = best {
            if ready > bs {
                continue;
            }
        }
        let duration = ctx.exec_time(t, v);
        let s = if insertion {
            ctx.earliest_start_insertion(v, ready, duration)
        } else {
            ctx.earliest_start_append(v, ready)
        };
        let f = s + duration;
        let better = match best {
            None => true,
            Some((_, bs, bf)) => s < bs || (s == bs && f < bf),
        };
        if better {
            best = Some((v, s, f));
        }
    }
    best.expect("network has at least one node")
}

/// The node of the predecessor whose message constrains `t`'s start the most
/// if `t` were to run anywhere else — FCP/FLB's "enabling node". Falls back
/// to the fastest node for source tasks.
pub fn enabling_node(ctx: &SchedContext, t: TaskId) -> NodeId {
    let mut best: Option<(f64, NodeId)> = None;
    for (p, _) in ctx.preds(t) {
        let arrival = ctx.finish_time(p); // message is free on the sender's own node
        let candidate = (arrival, ctx.node_of(p));
        let better = match best {
            None => true,
            // the *last* arriving message defines the enabling node
            Some((ba, _)) => arrival > ba,
        };
        if better {
            best = Some(candidate);
        }
    }
    best.map(|(_, v)| v).unwrap_or_else(|| ctx.fastest_node())
}

/// The node whose timeline frees up first (FCP/FLB's "first idle" candidate):
/// an ascending strict-less scan over the kernel's maintained append-tail
/// row — the same selection as folding `earliest_start_append(v, 0.0)` per
/// node (tails are never negative), without the per-node timeline derefs.
///
/// # Panics
/// Panics on an empty network, like its sibling selectors — silently
/// answering `NodeId(0)` would index out of bounds one call later.
pub fn first_idle_node(ctx: &SchedContext) -> NodeId {
    let tails = ctx.append_tails();
    assert!(!tails.is_empty(), "network has at least one node");
    let mut best = 0usize;
    let mut bt = tails[0];
    for (v, &t) in tails.iter().enumerate().skip(1) {
        if t < bt {
            best = v;
            bt = t;
        }
    }
    NodeId(best as u32)
}

/// Replays the longest trustworthy prefix of `trace` into `ctx` for a
/// *frontier-scanning* scheduler (MinMin/MaxMin-class selection over the
/// ready set, or lowest-id-ready topological dispatch): each recorded
/// placement is re-applied verbatim — skipping the scheduler's EFT and
/// data-ready scans — until the dirty region reaches the frontier.
///
/// The replay stops before position `k` when the recorded task is
/// placement-dirty or — for `frontier_sensitive` schedulers, whose per-step
/// selection *compares* values across the ready set (MinMin/MaxMin-class
/// EFT scans) — when any dirty task sits in the ready frontier;
/// `extra_stop` lets rank-tie-breaking schedulers add their own condition
/// (e.g. "a task whose rank bits changed is in the frontier"). Schedulers
/// that dispatch purely by ready order (lowest-id ready = topological
/// order: FastestNode, MCT, MET, OLB) pass `frontier_sensitive = false`: a
/// dirty task's changed *values* cannot influence their selection, only
/// its changed *readiness* can — so the frontier check is still applied
/// whenever the dirty region is structural.
///
/// Until the stop point the previous run's frontier evolution and per-step
/// selections provably coincide with what a full run on the perturbed
/// instance would compute — a dirty task can only influence a selection
/// once it is ready (it is scanned) or placed (its recorded decision used
/// stale inputs), and non-dirty tasks' EFT inputs are bitwise unchanged by
/// induction over the identical prefix. Returns nothing: the caller's
/// normal decision loop continues from whatever `ctx` state is left.
pub(crate) fn replay_frontier_prefix(
    ctx: &mut SchedContext,
    trace: &RunTrace,
    dirty: &DirtyRegion,
    frontier_sensitive: bool,
    mut extra_stop: impl FnMut(&SchedContext, usize) -> bool,
) {
    if dirty.is_full() || !trace.matches(ctx.task_count(), ctx.node_count()) {
        return;
    }
    let check_frontier = frontier_sensitive || dirty.is_structural();
    for k in 0..trace.len() {
        let t = trace.task(k);
        if dirty.contains(t) || (check_frontier && dirty.any_in_frontier(ctx)) || extra_stop(ctx, k)
        {
            break;
        }
        ctx.place(t, trace.node(k), trace.start(k));
    }
}

/// Test fixtures shared by the scheduler unit tests and downstream crates'
/// integration tests.
#[doc(hidden)]
pub mod fixtures {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use saga_core::{Instance, Network, NodeId, TaskGraph};

    /// The paper's Fig. 1 instance (4 tasks, 3 heterogeneous nodes).
    pub fn fig1() -> Instance {
        let mut g = TaskGraph::new();
        let t1 = g.add_task("t1", 1.7);
        let t2 = g.add_task("t2", 1.2);
        let t3 = g.add_task("t3", 2.2);
        let t4 = g.add_task("t4", 0.8);
        g.add_dependency(t1, t2, 0.6).unwrap();
        g.add_dependency(t1, t3, 0.5).unwrap();
        g.add_dependency(t2, t4, 1.3).unwrap();
        g.add_dependency(t3, t4, 1.6).unwrap();
        let mut n = Network::complete(&[1.0, 1.2, 1.5], 1.0);
        n.set_link(NodeId(0), NodeId(1), 0.5);
        n.set_link(NodeId(0), NodeId(2), 1.0);
        n.set_link(NodeId(1), NodeId(2), 1.2);
        Instance::new(n, g)
    }

    /// The paper's Fig. 3 fork-join instance on its *original* network
    /// (homogeneous unit speeds and links).
    pub fn fig3_original() -> Instance {
        Instance::new(Network::complete(&[1.0, 1.0, 1.0], 1.0), fig3_graph())
    }

    /// The paper's Fig. 3 instance on the *modified* network (node 3's links
    /// weakened to 0.5).
    pub fn fig3_modified() -> Instance {
        let mut n = Network::complete(&[1.0, 1.0, 1.0], 1.0);
        n.set_link(NodeId(0), NodeId(2), 0.5);
        n.set_link(NodeId(1), NodeId(2), 0.5);
        Instance::new(n, fig3_graph())
    }

    /// A variant of Fig. 3 with node 3 slightly faster (speed 1.25), on the
    /// original strong links. With deterministic lowest-id tie-breaking our
    /// HEFT never chooses node 3 on the *exact* paper instance (all EFTs tie
    /// and the paper's Python implementation happened to break ties toward
    /// node 3); nudging node 3's speed makes HEFT genuinely prefer it, which
    /// reproduces the paper's phenomenon without relying on tie order.
    pub fn fig3_variant_original() -> Instance {
        Instance::new(Network::complete(&[1.0, 1.0, 1.25], 1.0), fig3_graph())
    }

    /// The [`fig3_variant_original`] network with node 3's links weakened to
    /// 0.5 — the "minor alteration" that flips HEFT vs CPoP.
    pub fn fig3_variant_modified() -> Instance {
        let mut n = Network::complete(&[1.0, 1.0, 1.25], 1.0);
        n.set_link(NodeId(0), NodeId(2), 0.5);
        n.set_link(NodeId(1), NodeId(2), 0.5);
        Instance::new(n, fig3_graph())
    }

    fn fig3_graph() -> TaskGraph {
        let mut g = TaskGraph::new();
        let t1 = g.add_task("1", 3.0);
        let t2 = g.add_task("2", 3.0);
        let t3 = g.add_task("3", 3.0);
        let t4 = g.add_task("4", 3.0);
        let t5 = g.add_task("5", 3.0);
        g.add_dependency(t1, t2, 2.0).unwrap();
        g.add_dependency(t1, t3, 2.0).unwrap();
        g.add_dependency(t1, t4, 2.0).unwrap();
        g.add_dependency(t2, t5, 3.0).unwrap();
        g.add_dependency(t3, t5, 3.0).unwrap();
        g.add_dependency(t4, t5, 3.0).unwrap();
        g
    }

    /// A seeded random DAG instance: `tasks` tasks with edge probability
    /// `p_edge` (forward edges only, so always a DAG), `nodes` nodes,
    /// weights uniform in `(0, 1]`.
    pub fn random_instance(seed: u64, tasks: usize, nodes: usize, p_edge: f64) -> Instance {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = TaskGraph::with_capacity(tasks);
        let ids: Vec<_> = (0..tasks)
            .map(|i| g.add_task(format!("t{i}"), rng.gen_range(0.01..=1.0)))
            .collect();
        for i in 0..tasks {
            for j in (i + 1)..tasks {
                if rng.gen_bool(p_edge) {
                    g.add_dependency(ids[i], ids[j], rng.gen_range(0.01..=1.0))
                        .unwrap();
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

    /// A battery of small instances for smoke tests: the paper figures plus
    /// a spread of random shapes (including a single-node network and an
    /// edgeless graph).
    pub fn smoke_instances() -> Vec<Instance> {
        let mut v = vec![fig1(), fig3_original(), fig3_modified()];
        v.push(random_instance(1, 8, 3, 0.3));
        v.push(random_instance(2, 12, 4, 0.2));
        v.push(random_instance(3, 5, 1, 0.5)); // single node
        v.push(random_instance(4, 1, 3, 0.0)); // single task
        v.push({
            // independent tasks (no edges)
            let mut g = TaskGraph::new();
            for i in 0..6 {
                g.add_task(format!("t{i}"), 0.5 + i as f64 * 0.1);
            }
            Instance::new(Network::complete(&[1.0, 0.5, 2.0], 0.7), g)
        });
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx_for(inst: &saga_core::Instance) -> SchedContext {
        let mut ctx = SchedContext::new();
        ctx.reset(inst);
        ctx
    }

    #[test]
    fn ready_queue_starts_with_sources() {
        let inst = fixtures::fig1();
        let ctx = ctx_for(&inst);
        assert_eq!(ctx.ready(), &[TaskId(0)]);
    }

    #[test]
    fn best_eft_node_prefers_faster_node() {
        let inst = fixtures::fig1();
        let ctx = ctx_for(&inst);
        // t1 alone: fastest node (v2, speed 1.5) gives the earliest finish
        let (v, s, f) = best_eft_node(&ctx, TaskId(0), true);
        assert_eq!(v, NodeId(2));
        assert_eq!(s, 0.0);
        assert!((f - 1.7 / 1.5).abs() < 1e-12);
    }

    #[test]
    fn best_est_node_prefers_earliest_start_then_finish() {
        let inst = fixtures::fig1();
        let mut ctx = ctx_for(&inst);
        ctx.place(TaskId(0), NodeId(0), 0.0); // occupies node 0 until 1.7
                                              // t2's data is ready everywhere at different times; all idle nodes
                                              // can start at data-ready, so the earliest-start winner is the node
                                              // with the cheapest incoming message, ties broken by finish
        let (v, s, f) = best_est_node(&ctx, TaskId(1), false);
        let mut expect: Option<(NodeId, f64, f64)> = None;
        for cand in ctx.nodes() {
            let (cs, cf) = ctx.eft(TaskId(1), cand, false);
            let better = match expect {
                None => true,
                Some((_, bs, bf)) => cs < bs || (cs == bs && cf < bf),
            };
            if better {
                expect = Some((cand, cs, cf));
            }
        }
        assert_eq!(Some((v, s, f)), expect);
    }

    #[test]
    fn first_idle_node_is_empty_node() {
        let inst = fixtures::fig1();
        let mut ctx = ctx_for(&inst);
        ctx.place(TaskId(0), NodeId(0), 0.0);
        let v = first_idle_node(&ctx);
        assert_ne!(v, NodeId(0));
    }

    #[test]
    #[should_panic(expected = "network has at least one node")]
    fn first_idle_node_panics_on_empty_network() {
        let g = saga_core::TaskGraph::new();
        let inst = saga_core::Instance::new(saga_core::Network::complete(&[], 1.0), g);
        let ctx = ctx_for(&inst);
        first_idle_node(&ctx);
    }

    #[test]
    fn enabling_node_is_latest_predecessor() {
        let inst = fixtures::fig1();
        let mut ctx = ctx_for(&inst);
        ctx.place(TaskId(0), NodeId(2), 0.0);
        ctx.place(TaskId(1), NodeId(1), 5.0); // finishes last
        ctx.place(TaskId(2), NodeId(2), 2.0);
        assert_eq!(enabling_node(&ctx, TaskId(3)), NodeId(1));
    }

    #[test]
    fn enabling_node_of_source_is_fastest() {
        let inst = fixtures::fig1();
        let ctx = ctx_for(&inst);
        assert_eq!(enabling_node(&ctx, TaskId(0)), NodeId(2));
    }

    #[test]
    fn random_instance_is_reproducible() {
        let a = fixtures::random_instance(9, 10, 3, 0.3);
        let b = fixtures::random_instance(9, 10, 3, 0.3);
        assert_eq!(a.graph.task_count(), b.graph.task_count());
        assert_eq!(a.graph.dependency_count(), b.graph.dependency_count());
        assert_eq!(a.to_json(), b.to_json());
    }
}
