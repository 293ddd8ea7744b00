//! Property-based tests over the core invariants:
//!
//! * every scheduler produces a Section-II-valid schedule on arbitrary DAG
//!   instances (including zero weights);
//! * the reported makespan equals the maximum assignment finish time;
//! * task-graph mutations preserve acyclicity and pred/succ symmetry;
//! * JSON round-trips are lossless, including infinite link strengths;
//! * the checkpoint resume reader, for both record kinds, survives a file
//!   truncated at any byte or with any single byte flipped: it never
//!   panics, loads every intact line, counts every other non-blank line as
//!   skipped, and terminates a torn tail so the next append stays whole.

use proptest::prelude::*;
use saga::core::{Instance, Network, NodeId, TaskGraph};
use saga::pisa::PisaResult;
use saga::schedulers::Scheduler;
use saga_experiments::engine::{CellCheckpoint, RowCheckpoint};
use std::path::{Path, PathBuf};

/// Strategy: a random DAG instance with up to 8 tasks and 4 nodes. Forward
/// edges only, so acyclic by construction; weights may be zero (the paper's
/// clipping floor) to exercise infinite-time paths.
fn arb_instance() -> impl Strategy<Value = Instance> {
    (
        2usize..=8,                                      // tasks
        1usize..=4,                                      // nodes
        proptest::collection::vec(0.0f64..=2.0, 8),      // task costs (prefix used)
        proptest::collection::vec(0.0f64..=2.0, 8 * 8),  // dep costs
        proptest::collection::vec(any::<bool>(), 8 * 8), // edge mask
        proptest::collection::vec(0.0f64..=2.0, 4),      // speeds
        proptest::collection::vec(0.0f64..=2.0, 4 * 4),  // links
    )
        .prop_map(|(nt, nv, costs, dep_costs, mask, speeds, links)| {
            let mut g = TaskGraph::new();
            let ids: Vec<_> = (0..nt)
                .map(|i| g.add_task(format!("t{i}"), costs[i]))
                .collect();
            for i in 0..nt {
                for j in (i + 1)..nt {
                    if mask[i * 8 + j] {
                        g.add_dependency(ids[i], ids[j], dep_costs[i * 8 + j])
                            .unwrap();
                    }
                }
            }
            let mut net = Network::complete(&speeds[..nv], 1.0);
            for u in 0..nv {
                for v in (u + 1)..nv {
                    net.set_link(NodeId(u as u32), NodeId(v as u32), links[u * 4 + v]);
                }
            }
            Instance::new(net, g)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn all_schedulers_valid_on_arbitrary_instances(inst in arb_instance()) {
        for s in saga::schedulers::benchmark_schedulers() {
            let sched = s.schedule(&inst);
            prop_assert!(
                sched.verify(&inst).is_ok(),
                "{} invalid: {:?}",
                s.name(),
                sched.verify(&inst)
            );
        }
    }

    #[test]
    fn makespan_equals_max_finish(inst in arb_instance()) {
        let sched = saga::schedulers::Heft.schedule(&inst);
        let max_finish = sched
            .assignments()
            .iter()
            .map(|a| a.finish)
            .fold(0.0f64, f64::max);
        prop_assert_eq!(sched.makespan(), max_finish);
    }

    #[test]
    fn json_round_trip_is_lossless(inst in arb_instance()) {
        let back = Instance::from_json(&inst.to_json()).unwrap();
        prop_assert_eq!(inst.graph.task_count(), back.graph.task_count());
        prop_assert_eq!(inst.graph.dependency_count(), back.graph.dependency_count());
        prop_assert_eq!(inst.network.node_count(), back.network.node_count());
        for t in inst.graph.tasks() {
            prop_assert_eq!(inst.graph.cost(t), back.graph.cost(t));
        }
        for (a, b, c) in inst.graph.dependencies() {
            prop_assert_eq!(back.graph.dependency_cost(a, b), Some(c));
        }
        for u in inst.network.nodes() {
            prop_assert_eq!(inst.network.speed(u), back.network.speed(u));
            for v in inst.network.nodes() {
                let x = inst.network.link(u, v);
                let y = back.network.link(u, v);
                prop_assert!(x == y || (x.is_infinite() && y.is_infinite()));
            }
        }
    }

    #[test]
    fn upward_rank_decreases_along_edges(inst in arb_instance()) {
        // a predecessor's upward rank strictly dominates each successor's
        // (>= plus its own positive avg exec; with zero weights only >=)
        let rank = saga::core::ranking::upward_rank(&inst);
        for (a, b, _) in inst.graph.dependencies() {
            if rank[b.index()].is_finite() {
                prop_assert!(rank[a.index()] >= rank[b.index()] - 1e-12);
            }
        }
    }

    #[test]
    fn duplex_never_worse_than_components(inst in arb_instance()) {
        use saga::schedulers::Scheduler;
        let d = saga::schedulers::Duplex.schedule(&inst).makespan();
        let a = saga::schedulers::MinMin.schedule(&inst).makespan();
        let b = saga::schedulers::MaxMin.schedule(&inst).makespan();
        if d.is_finite() {
            prop_assert!(d <= a + 1e-9 && d <= b + 1e-9);
        } else {
            prop_assert!(!a.is_finite() && !b.is_finite());
        }
    }

    #[test]
    fn graph_mutations_preserve_symmetry(
        nt in 2usize..6,
        edges in proptest::collection::vec((0usize..6, 0usize..6, 0.0f64..1.0), 0..12),
        removals in proptest::collection::vec(0usize..12, 0..6),
    ) {
        let mut g = TaskGraph::new();
        for i in 0..nt {
            g.add_task(format!("t{i}"), 1.0);
        }
        for (a, b, c) in &edges {
            let (a, b) = (*a % nt, *b % nt);
            let _ = g.add_dependency(
                saga::core::TaskId(a as u32),
                saga::core::TaskId(b as u32),
                *c,
            );
        }
        let deps: Vec<_> = g.dependencies().map(|(a, b, _)| (a, b)).collect();
        for r in &removals {
            if !deps.is_empty() {
                let (a, b) = deps[r % deps.len()];
                let _ = g.remove_dependency(a, b);
            }
        }
        // acyclic and symmetric after arbitrary mutation
        prop_assert_eq!(g.topological_order().len(), g.task_count());
        for t in g.tasks() {
            for e in g.successors(t) {
                prop_assert!(g.predecessors(e.task).iter().any(|p| p.task == t));
            }
            for e in g.predecessors(t) {
                prop_assert!(g.successors(e.task).iter().any(|s| s.task == t));
            }
        }
    }
}

/// The two checkpoint record kinds.
#[derive(Debug, Clone, Copy)]
enum Ckpt {
    Cells,
    Rows,
}

/// Keys of the valid checkpoint the resume properties start from. Each
/// pair differs in at least two bytes, so no single-byte flip can make one
/// line's key collide with another's.
const CKPT_KEYS: [&str; 3] = ["unit/alpha", "unit/bravo", "unit/charlie"];

fn ckpt_path(kind: Ckpt, property: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "saga_proptest_ckpt_{}_{kind:?}_{property}.jsonl",
        std::process::id()
    ))
}

/// Resumes `path` as a `kind` checkpoint, appends one record under
/// `append` if given, and returns `(loaded, skipped)`.
fn ckpt_resume(kind: Ckpt, path: &Path, append: Option<&str>) -> (usize, usize) {
    match kind {
        Ckpt::Cells => {
            let ck = CellCheckpoint::open(path, true).unwrap();
            if let Some(key) = append {
                let mut g = TaskGraph::new();
                let a = g.add_task("a", 1.5);
                let b = g.add_task("b", 2.0);
                g.add_dependency(a, b, 0.5).unwrap();
                let res = PisaResult {
                    instance: Instance::new(Network::complete(&[1.0, 2.0], 1.0), g),
                    ratio: f64::INFINITY,
                    initial_ratio: 1.25,
                    evaluations: 42,
                };
                ck.record(key, &res).unwrap();
            }
            (ck.loaded(), ck.skipped())
        }
        Ckpt::Rows => {
            let ck = RowCheckpoint::open(path, true).unwrap();
            if let Some(key) = append {
                ck.record(key, &[1.5, f64::INFINITY, 0.1 + 0.2]).unwrap();
            }
            (ck.loaded(), ck.skipped())
        }
    }
}

/// The bytes of a valid checkpoint holding one `kind` record per
/// [`CKPT_KEYS`] entry.
fn ckpt_bytes(kind: Ckpt, path: &Path) -> Vec<u8> {
    let _ = std::fs::remove_file(path);
    for key in CKPT_KEYS {
        ckpt_resume(kind, path, Some(key));
    }
    std::fs::read(path).unwrap()
}

/// Cuts a valid checkpoint after `cut` bytes (mod its length + 1): resume
/// loads exactly the lines whose content survived whole, counts a partial
/// line as skipped, and one more record reloads as one more unit.
fn check_truncated_resume(kind: Ckpt, cut: usize) {
    let path = ckpt_path(kind, "truncated");
    let bytes = ckpt_bytes(kind, &path);
    let cut = cut % (bytes.len() + 1);
    std::fs::write(&path, &bytes[..cut]).unwrap();
    // (start, end) of each line's content, newline excluded
    let mut spans = Vec::new();
    let mut start = 0;
    for (i, &b) in bytes.iter().enumerate() {
        if b == b'\n' {
            spans.push((start, i));
            start = i + 1;
        }
    }
    let whole = spans.iter().filter(|&&(_, end)| end <= cut).count();
    let partial = spans.iter().filter(|&&(s, e)| s < cut && cut < e).count();
    assert_eq!(
        ckpt_resume(kind, &path, Some("unit/fresh")),
        (whole, partial)
    );
    assert_eq!(
        ckpt_resume(kind, &path, None).0,
        whole + 1,
        "a record appended after a cut must land on its own line"
    );
    let _ = std::fs::remove_file(&path);
}

/// XORs one byte of a valid checkpoint with a nonzero `mask`: resume
/// accounts for every non-blank line as either loaded or skipped.
fn check_flipped_resume(kind: Ckpt, pos: usize, mask: u8) {
    let path = ckpt_path(kind, "flipped");
    let mut bytes = ckpt_bytes(kind, &path);
    let pos = pos % bytes.len();
    bytes[pos] ^= mask;
    std::fs::write(&path, &bytes).unwrap();
    let non_blank = bytes
        .split(|&b| b == b'\n')
        .filter(|line| !String::from_utf8_lossy(line).trim().is_empty())
        .count();
    let (loaded, skipped) = ckpt_resume(kind, &path, None);
    assert_eq!(
        loaded + skipped,
        non_blank,
        "{}",
        String::from_utf8_lossy(&bytes)
    );
    let _ = std::fs::remove_file(&path);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn cell_checkpoint_resumes_any_truncation(cut in 0usize..1 << 16) {
        check_truncated_resume(Ckpt::Cells, cut);
    }

    #[test]
    fn row_checkpoint_resumes_any_truncation(cut in 0usize..1 << 16) {
        check_truncated_resume(Ckpt::Rows, cut);
    }

    #[test]
    fn cell_checkpoint_accounts_for_any_byte_flip(pos in 0usize..1 << 16, mask in 1u8..=255) {
        check_flipped_resume(Ckpt::Cells, pos, mask);
    }

    #[test]
    fn row_checkpoint_accounts_for_any_byte_flip(pos in 0usize..1 << 16, mask in 1u8..=255) {
        check_flipped_resume(Ckpt::Rows, pos, mask);
    }
}
