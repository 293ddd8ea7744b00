//! Golden-determinism suite: the scheduling kernel must be a pure
//! performance refactor.
//!
//! `tests/golden_makespans.csv` records the bit pattern of every scheduler's
//! makespan on a fixed battery of instances — the paper-figure smoke set
//! plus 20 seeded random instances of varied shape — captured on the
//! pre-kernel `ScheduleBuilder` implementation. Any change to scheduler
//! decisions (tie-breaking, float evaluation order, ready-set ordering)
//! flips bits here and fails the suite.
//!
//! Regenerate (only when a behavior change is *intended* and reviewed):
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test --test golden_determinism -- --ignored
//! ```
//!
//! `tests/golden_makespans_large.csv` pins 150–250-task instances and
//! `tests/golden_makespans_wide.csv` pins networks wider than the fused-row
//! band: one seeded instance per IoT generator (~80–140-node edge/fog/cloud
//! networks) and seeded random instances at 16 and 64 nodes.

use saga::core::Instance;
use saga::schedulers::util::fixtures;
use saga::schedulers::{self, Scheduler};

/// The instance battery: `(label, instance, tiny)`; exact solvers run only
/// on `tiny` instances.
fn battery() -> Vec<(String, Instance, bool)> {
    let mut v: Vec<(String, Instance, bool)> = Vec::new();
    for (i, inst) in fixtures::smoke_instances().into_iter().enumerate() {
        v.push((format!("smoke{i}"), inst, false));
    }
    // 20 seeded random instances spanning sizes 10..=50 tasks, 2..=5 nodes
    let tasks = [10, 20, 30, 40, 50];
    let nodes = [2, 3, 4, 5];
    let p_edge = [0.1, 0.2, 0.3];
    for k in 0..20usize {
        let seed = 1000 + k as u64;
        let t = tasks[k % tasks.len()];
        let n = nodes[k % nodes.len()];
        let p = p_edge[k % p_edge.len()];
        v.push((
            format!("rand_s{seed}_t{t}_n{n}"),
            fixtures::random_instance(seed, t, n, p),
            false,
        ));
    }
    // tiny instances for the exponential reference solvers
    for seed in 1..=4u64 {
        v.push((
            format!("tiny_s{seed}"),
            fixtures::random_instance(seed, 5, 2, 0.4),
            true,
        ));
    }
    v
}

fn roster() -> Vec<Box<dyn Scheduler>> {
    let mut all = schedulers::benchmark_schedulers();
    all.extend(schedulers::historical_schedulers());
    all
}

/// Larger instances (150–250 tasks) exercising the frontier-sweep ports of
/// the PR 3 refactor: wide ready sets and deep predecessor fans are where
/// cached data-ready rows could plausibly diverge from the direct queries.
/// Recorded on the pre-port implementations of ERT/GDL/WBA/FLB (and the
/// rest of the roster, for free).
fn large_battery() -> Vec<(String, Instance)> {
    let shapes = [
        (150usize, 4usize, 0.05f64),
        (150, 8, 0.10),
        (200, 5, 0.03),
        (200, 6, 0.08),
        (250, 4, 0.02),
        (250, 8, 0.05),
    ];
    shapes
        .iter()
        .enumerate()
        .map(|(k, &(t, n, p))| {
            let seed = 7000 + k as u64;
            (
                format!("large_s{seed}_t{t}_n{n}"),
                fixtures::random_instance(seed, t, n, p),
            )
        })
        .collect()
}

/// Wide networks: the paths only a >32-node network reaches (every
/// scheduler's scalar fallback above the fused-row band, BIL's pruned level
/// scan on the ~110-node IoT networks) plus a 16-node in-band control.
fn wide_battery() -> Vec<(String, Instance)> {
    use rand::SeedableRng;
    use saga::datasets::iot;
    type Generator = fn(&mut rand::rngs::StdRng) -> Instance;
    let iot_gens: [(&str, Generator); 4] = [
        ("etl", iot::sample_etl),
        ("predict", iot::sample_predict),
        ("stats", iot::sample_stats),
        ("train", iot::sample_train),
    ];
    let mut v = Vec::new();
    for (k, (name, gen)) in iot_gens.iter().enumerate() {
        let seed = 9000 + k as u64;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        v.push((format!("{name}_s{seed}"), gen(&mut rng)));
    }
    let shapes = [
        (30usize, 16usize, 0.15f64),
        (60, 16, 0.08),
        (30, 64, 0.15),
        (60, 64, 0.08),
    ];
    for (k, &(t, n, p)) in shapes.iter().enumerate() {
        let seed = 9100 + k as u64;
        v.push((
            format!("wide_s{seed}_t{t}_n{n}"),
            fixtures::random_instance(seed, t, n, p),
        ));
    }
    v
}

/// One `scheduler,instance,bits` line per (roster scheduler, instance of
/// `battery`), in a fixed order.
fn roster_lines(battery: &[(String, Instance)]) -> Vec<String> {
    let mut lines = Vec::new();
    for s in roster() {
        for (label, inst) in battery {
            let m = s.schedule(inst).makespan();
            lines.push(format!("{},{},{:016x}", s.name(), label, m.to_bits()));
        }
    }
    lines
}

fn current_large_lines() -> Vec<String> {
    roster_lines(&large_battery())
}

fn current_wide_lines() -> Vec<String> {
    roster_lines(&wide_battery())
}

fn golden_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join(name)
}

/// One `scheduler,instance,bits` line per measurement, in a fixed order.
fn current_lines() -> Vec<String> {
    let battery = battery();
    let mut lines = Vec::new();
    for s in roster() {
        for (label, inst, _) in &battery {
            let m = s.schedule(inst).makespan();
            lines.push(format!("{},{},{:016x}", s.name(), label, m.to_bits()));
        }
    }
    for s in schedulers::exact_schedulers() {
        for (label, inst, tiny) in &battery {
            if !tiny {
                continue;
            }
            let m = s.schedule(inst).makespan();
            lines.push(format!("{},{},{:016x}", s.name(), label, m.to_bits()));
        }
    }
    lines
}

/// Asserts `current` equals the fixture `name` line for line.
fn assert_matches_golden(name: &str, current: &[String]) {
    let golden = std::fs::read_to_string(golden_path(name)).unwrap_or_else(|_| {
        panic!("tests/{name} missing — run the regen command in this file's docs")
    });
    let golden: Vec<&str> = golden.lines().collect();
    assert_eq!(
        golden.len(),
        current.len(),
        "{name} has {} entries, battery produces {}",
        golden.len(),
        current.len()
    );
    let mut mismatches = Vec::new();
    for (g, c) in golden.iter().zip(current) {
        if g != c {
            mismatches.push(format!("golden: {g}\n   now: {c}"));
        }
    }
    assert!(
        mismatches.is_empty(),
        "{} of {} makespans in {name} changed bit pattern:\n{}",
        mismatches.len(),
        current.len(),
        mismatches.join("\n")
    );
}

/// Overwrites the fixture `name` with `lines`, after the `GOLDEN_REGEN=1`
/// confirmation.
fn write_golden(name: &str, lines: &[String]) {
    assert_eq!(
        std::env::var("GOLDEN_REGEN").as_deref(),
        Ok("1"),
        "set GOLDEN_REGEN=1 to confirm overwriting tests/{name}"
    );
    std::fs::write(golden_path(name), lines.join("\n") + "\n").expect("write golden fixture");
    println!("wrote {} entries to tests/{name}", lines.len());
}

#[test]
fn makespans_match_golden_bits() {
    assert_matches_golden("golden_makespans.csv", &current_lines());
}

#[test]
fn large_makespans_match_golden_bits() {
    assert_matches_golden("golden_makespans_large.csv", &current_large_lines());
}

#[test]
fn wide_makespans_match_golden_bits() {
    assert_matches_golden("golden_makespans_wide.csv", &current_wide_lines());
}

#[test]
#[ignore = "writes the golden fixture; run with GOLDEN_REGEN=1 when a behavior change is intended"]
fn regenerate_golden_wide() {
    write_golden("golden_makespans_wide.csv", &current_wide_lines());
}

#[test]
#[ignore = "writes the golden fixture; run with GOLDEN_REGEN=1 when a behavior change is intended"]
fn regenerate_golden_large() {
    write_golden("golden_makespans_large.csv", &current_large_lines());
}

#[test]
#[ignore = "writes the golden fixture; run with GOLDEN_REGEN=1 when a behavior change is intended"]
fn regenerate_golden() {
    write_golden("golden_makespans.csv", &current_lines());
}
