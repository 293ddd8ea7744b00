//! Schedule-generation time per algorithm, on a small chains instance and a
//! larger montage instance — the measured counterpart of Table I's
//! complexity column — plus BIL's level-table regimes and WBA's full and
//! incremental runs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_schedulers(c: &mut Criterion) {
    let small = saga_bench::chains_instance(12, 1);
    let large = saga_bench::montage_instance(12, 2);
    let mut group = c.benchmark_group("schedulers");
    for s in saga_schedulers::benchmark_schedulers() {
        group.bench_with_input(
            BenchmarkId::new(s.name(), format!("chains_{}", small.graph.task_count())),
            &small,
            |b, inst| b.iter(|| black_box(s.schedule(black_box(inst)).makespan())),
        );
        group.bench_with_input(
            BenchmarkId::new(s.name(), format!("montage_{}", large.graph.task_count())),
            &large,
            |b, inst| b.iter(|| black_box(s.schedule(black_box(inst)).makespan())),
        );
    }
    group.finish();
}

/// BIL on a reused context, as the fig2 engine and the annealer run it:
/// where its pruned level scan wins (the IoT etl graph on a 110-node
/// edge/fog/cloud network) and where it must not lose (a PISA-sized 4-task
/// chain on 4 nodes).
fn bench_bil(c: &mut Criterion) {
    use rand::SeedableRng;
    use saga_datasets::iot;
    use saga_schedulers::Scheduler;
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let etl = saga_core::Instance::new(
        iot::build_edge_fog_cloud(100, 5, 5),
        iot::etl_graph(&mut rng),
    );
    let chain = saga_core::Instance::new(
        saga_core::Network::complete(&[0.3, 0.6, 0.8, 1.0], 0.5),
        saga_core::TaskGraph::chain(&[0.5, 0.7, 0.9, 0.4], &[0.3, 0.2, 0.6]),
    );
    let mut ctx = saga_core::SchedContext::new();
    let mut group = c.benchmark_group("bil");
    for (label, inst) in [("etl_efc110", &etl), ("chain4_n4", &chain)] {
        group.bench_function(label, |b| {
            b.iter(|| black_box(saga_schedulers::Bil.makespan_into(black_box(inst), &mut ctx)))
        });
    }
    group.finish();
}

/// WBA on a reused context, as the `app_pisa` annealer runs it: full runs on
/// a montage workflow below and inside the 8–32-node fused-row band, and an
/// incremental re-evaluation after one task-weight edit (the cost of a
/// middle task toggles between two values, so every call replays the
/// recorded prefix up to that task and samples the rest).
fn bench_wba(c: &mut Criterion) {
    use saga_core::{DirtyRegion, RunTrace, SchedContext, TaskId};
    use saga_schedulers::{Scheduler, Wba};
    // the first montage seeds whose Chameleon networks fall on each side of
    // the band's 8-node floor
    let montage = |wide: bool| {
        (1..)
            .map(|seed| saga_bench::montage_instance(12, seed))
            .find(|inst| (inst.network.node_count() >= 8) == wide)
            .expect("Chameleon networks span 4-10 nodes")
    };
    let (narrow, wide) = (montage(false), montage(true));
    let mut ctx = SchedContext::new();
    let mut group = c.benchmark_group("wba");
    for inst in [&narrow, &wide] {
        let label = format!(
            "montage_{}_n{}",
            inst.graph.task_count(),
            inst.network.node_count()
        );
        group.bench_function(label.as_str(), |b| {
            b.iter(|| black_box(Wba::default().makespan_into(black_box(inst), &mut ctx)))
        });
    }
    let mut inst = wide.clone();
    let t = TaskId((inst.graph.task_count() / 2) as u32);
    let costs = [inst.graph.cost(t), inst.graph.cost(t) * 1.5];
    let mut trace = RunTrace::new();
    ctx.pin_tables_dirty(&inst, &DirtyRegion::full());
    Wba::default().makespan_incremental(&inst, &mut ctx, &mut trace, &DirtyRegion::full());
    ctx.unpin_tables();
    let mut flip = 0;
    let label = format!(
        "montage_{}_n{}_task_edit",
        inst.graph.task_count(),
        inst.network.node_count()
    );
    group.bench_function(label.as_str(), |b| {
        b.iter(|| {
            flip ^= 1;
            inst.graph.set_cost(t, costs[flip]).unwrap();
            let dirty = DirtyRegion::task_weight(t);
            ctx.pin_tables_dirty(&inst, &dirty);
            let m = Wba::default().makespan_incremental(&inst, &mut ctx, &mut trace, &dirty);
            ctx.unpin_tables();
            black_box(m)
        })
    });
    group.finish();
}

fn bench_exact(c: &mut Criterion) {
    // exponential references on a toy instance only
    let mut g = saga_core::TaskGraph::chain(&[0.5, 0.7, 0.9, 0.4], &[0.3, 0.2, 0.6]);
    let extra = g.add_task("x", 0.5);
    g.add_dependency(saga_core::TaskId(0), extra, 0.1).unwrap();
    let inst = saga_core::Instance::new(saga_core::Network::complete(&[1.0, 0.7], 0.8), g);
    let mut group = c.benchmark_group("exact_references");
    for s in saga_schedulers::exact_schedulers() {
        group.bench_function(s.name(), |b| {
            b.iter(|| black_box(s.schedule(black_box(&inst)).makespan()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_schedulers, bench_bil, bench_wba, bench_exact);
criterion_main!(benches);
