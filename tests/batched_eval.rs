//! Property suite for lockstep batch execution (PR 7).
//!
//! The cell planners now pack eligible pairwise cells into lockstep lane
//! groups: every restart of every grouped cell anneals as one lane of a
//! [`BatchedSchedContext`], with per-lane RNG streams, per-lane
//! accept/reject, and masked retirement when a lane's schedule ends early.
//! The whole point of the batch path is that it is *unobservable* — every
//! ratio, witness instance, evaluation count, and checkpoint record must
//! come out bit-identical to the scalar `SearchCell::run` path, for any
//! grouping the planner picks. This suite drives heterogeneous groups
//! (mixed scheduler pairs, seeds, restart counts and budgets — so lanes
//! retire at different steps), ragged planner remainders, and the
//! engine's checkpoint files, asserting bit-identity against per-cell
//! scalar runs throughout.

use proptest::prelude::*;
use saga::core::{BatchedSchedContext, SchedContext};
use saga::pisa::annealer::AnnealScratch;
use saga::pisa::{
    cell_config, lockstep, run_cells_pooled, PisaConfig, PisaResult, SearchCell, LANE_BUDGET,
};

/// A handful of roster schedulers with different replay behaviors (list
/// schedulers, clustering, duplication-free greedy).
const NAMES: &[&str] = &["HEFT", "CPoP", "ETF", "MinMin", "FastestNode", "MCT"];

fn cfg(i_max: usize, restarts: usize, seed: u64) -> PisaConfig {
    PisaConfig {
        i_max,
        restarts,
        seed,
        ..PisaConfig::default()
    }
}

/// Scalar ground truth: each cell run alone through `SearchCell::run`.
fn scalar(cells: &[SearchCell]) -> Vec<PisaResult> {
    let mut ctx = SchedContext::new();
    let mut scratch = AnnealScratch::default();
    cells
        .iter()
        .map(|c| c.run(&mut ctx, &mut scratch))
        .collect()
}

fn assert_identical(cells: &[SearchCell], got: &[PisaResult], want: &[PisaResult]) {
    assert_eq!(got.len(), want.len());
    for ((cell, g), w) in cells.iter().zip(got).zip(want) {
        assert_eq!(g.ratio.to_bits(), w.ratio.to_bits(), "{} ratio", cell.label);
        assert_eq!(
            g.initial_ratio.to_bits(),
            w.initial_ratio.to_bits(),
            "{} initial ratio",
            cell.label
        );
        assert_eq!(g.evaluations, w.evaluations, "{} evaluations", cell.label);
        assert_eq!(
            g.instance.to_json(),
            w.instance.to_json(),
            "{} witness",
            cell.label
        );
    }
}

#[test]
fn heterogeneous_lockstep_group_matches_scalar() {
    // one group, lanes with different pairs, seeds, restart counts AND
    // iteration budgets — lanes retire at different lockstep steps, so the
    // masked sweep must keep retired lanes frozen while others anneal on
    let cells = vec![
        SearchCell::pair("HEFT", "CPoP", cell_config(cfg(120, 2, 0xB0), 0)),
        SearchCell::pair("MinMin", "FastestNode", cell_config(cfg(15, 3, 0xB0), 1)),
        SearchCell::pair("ETF", "HEFT", cell_config(cfg(60, 1, 0xB0), 2)),
        SearchCell::pair("MCT", "ETF", cell_config(cfg(250, 2, 0xB0), 3)),
    ];
    let refs: Vec<&SearchCell> = cells.iter().collect();
    let mut batch = BatchedSchedContext::default();
    let got = lockstep::run_cells_lockstep(&mut batch, &refs);
    assert_identical(&cells, &got, &scalar(&cells));
}

#[test]
fn early_lane_retirement_by_temperature_floor() {
    // a lane whose cooling schedule (not iteration cap) ends first: t_max
    // close to t_min retires after a few coolings while its groupmates run
    // the full 250 iterations
    let mut hot = cfg(250, 2, 0xC0);
    let mut cold = cfg(250, 2, 0xC1);
    cold.t_max = cold.t_min * 1.05; // retires after ~5 coolings at alpha 0.99
    hot.t_max = 10.0;
    let cells = vec![
        SearchCell::pair("HEFT", "CPoP", cold),
        SearchCell::pair("CPoP", "HEFT", hot),
    ];
    let refs: Vec<&SearchCell> = cells.iter().collect();
    let mut batch = BatchedSchedContext::default();
    let got = lockstep::run_cells_lockstep(&mut batch, &refs);
    assert_identical(&cells, &got, &scalar(&cells));
}

#[test]
fn ragged_remainder_and_fallback_cells_cover_exactly() {
    // a grid that cannot pack evenly: single-restart cells against the lane
    // budget leave a ragged remainder group, a metric cell forces a scalar
    // fallback mid-grid, and an oversized cell exceeds the budget entirely
    let mut cells: Vec<SearchCell> = (0..5)
        .map(|i| {
            SearchCell::pair(
                NAMES[i % NAMES.len()],
                NAMES[(i + 1) % NAMES.len()],
                cell_config(cfg(40, 1, 0xD0), i as u64),
            )
        })
        .collect();
    cells.insert(
        2,
        SearchCell::metric(
            saga::pisa::metric::Objective::RentalCost,
            "HEFT",
            "CPoP",
            cell_config(cfg(40, 2, 0xD0), 7),
        ),
    );
    cells.push(SearchCell::pair(
        "HEFT",
        "MCT",
        cell_config(cfg(40, LANE_BUDGET + 1, 0xD0), 8),
    ));
    let units = lockstep::plan_units(&cells, |_, _| true);
    let mut covered: Vec<usize> = units.iter().flat_map(|u| u.indices().to_vec()).collect();
    covered.sort_unstable();
    assert_eq!(
        covered,
        (0..cells.len()).collect::<Vec<_>>(),
        "every cell exactly once"
    );
    for u in &units {
        if let lockstep::ExecUnit::Lockstep(idxs) = u {
            let lanes: usize = idxs.iter().map(|&i| cells[i].config.restarts).sum();
            assert!(lanes <= LANE_BUDGET, "group exceeds the lane budget");
        }
    }
    // and the planned execution is bit-identical to all-scalar
    assert_identical(&cells, &run_cells_pooled(&cells), &scalar(&cells));
}

#[test]
fn checkpoint_bytes_are_path_independent() {
    use saga_experiments::engine::{BatchEngine, CellCheckpoint};
    let cells = vec![
        SearchCell::pair("HEFT", "CPoP", cell_config(cfg(60, 2, 0xE0), 0)),
        SearchCell::pair("ETF", "MinMin", cell_config(cfg(60, 2, 0xE0), 1)),
        SearchCell::app(
            "blast",
            0.5,
            "CPoP",
            "FastestNode",
            cell_config(cfg(60, 2, 0xE0), 2),
        ),
        SearchCell::pair("MCT", "HEFT", cell_config(cfg(60, 2, 0xE0), 3)),
    ];
    let engine = BatchEngine::new();
    let dir = std::env::temp_dir();
    let path_a = dir.join(format!("saga_batched_eval_{}_a.jsonl", std::process::id()));
    let path_b = dir.join(format!("saga_batched_eval_{}_b.jsonl", std::process::id()));
    let ck = CellCheckpoint::open(&path_a, false).unwrap();
    let batched = engine.run_cells(&cells, None, Some(&ck)).unwrap();
    drop(ck);
    let ck = CellCheckpoint::open(&path_b, false).unwrap();
    let again = engine.run_cells(&cells, None, Some(&ck)).unwrap();
    drop(ck);
    assert_identical(&cells, &batched, &again);
    assert_identical(&cells, &batched, &scalar(&cells));

    // records land in completion order (thread-dependent), but the *set* of
    // checkpoint lines must be byte-identical run to run — and each line's
    // bits must encode exactly the scalar result
    let lines = |p: &std::path::Path| -> Vec<String> {
        let mut v: Vec<String> = std::fs::read_to_string(p)
            .unwrap()
            .lines()
            .map(str::to_string)
            .collect();
        v.sort();
        v
    };
    assert_eq!(lines(&path_a), lines(&path_b), "checkpoint bytes diverged");
    let want = scalar(&cells);
    for line in lines(&path_a) {
        let rec: serde_json::Value = serde_json::from_str(&line).unwrap();
        let field = |name: &str| rec.get(name).and_then(|v| v.as_str()).unwrap().to_string();
        let key = field("key");
        let (cell, res) = cells
            .iter()
            .zip(&want)
            .find(|(c, _)| c.key() == key)
            .expect("checkpoint key matches a cell");
        assert_eq!(
            field("ratio_bits"),
            format!("{:016x}", res.ratio.to_bits()),
            "{}",
            cell.label
        );
        assert_eq!(
            field("initial_bits"),
            format!("{:016x}", res.initial_ratio.to_bits()),
            "{}",
            cell.label
        );
        assert_eq!(
            rec.get("evaluations").and_then(|v| v.as_f64()).unwrap() as usize,
            res.evaluations,
            "{}",
            cell.label
        );
    }
    let _ = std::fs::remove_file(&path_a);
    let _ = std::fs::remove_file(&path_b);
}

#[test]
fn resume_replays_batched_records_without_rerunning() {
    use saga_experiments::engine::{BatchEngine, CellCheckpoint};
    let cells: Vec<SearchCell> = (0..4)
        .map(|i| {
            SearchCell::pair(
                NAMES[i % 3],
                NAMES[3 + (i % 3)],
                cell_config(cfg(50, 2, 0xF0), i as u64),
            )
        })
        .collect();
    let engine = BatchEngine::new();
    let path = std::env::temp_dir().join(format!(
        "saga_batched_eval_{}_resume.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let ck = CellCheckpoint::open(&path, false).unwrap();
    // first run records only half the grid
    let first = engine.run_cells(&cells[..2], None, Some(&ck)).unwrap();
    drop(ck);
    let ck = CellCheckpoint::open(&path, true).unwrap();
    assert_eq!(ck.loaded(), 2);
    // the resumed run replays the stored cells (now planner-ineligible) and
    // batches the remainder; everything must still match scalar
    let resumed = engine.run_cells(&cells, None, Some(&ck)).unwrap();
    drop(ck);
    assert_identical(&cells[..2], &resumed[..2], &first);
    assert_identical(&cells, &resumed, &scalar(&cells));
    let _ = std::fs::remove_file(&path);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Arbitrary small grids — random pairs, seeds, restart counts and
    /// budgets — agree bit-for-bit between one lockstep group and the
    /// scalar path.
    #[test]
    fn arbitrary_groups_match_scalar(
        specs in proptest::collection::vec(
            (0usize..NAMES.len(), 0usize..NAMES.len(), 1usize..=3, 10usize..=60, 0u64..1000),
            1..=4,
        )
    ) {
        let cells: Vec<SearchCell> = specs
            .iter()
            .enumerate()
            .map(|(i, &(t, b, restarts, i_max, seed))| {
                SearchCell::pair(
                    NAMES[t],
                    NAMES[(t + 1 + b % (NAMES.len() - 1)) % NAMES.len()], // distinct from target
                    cell_config(cfg(i_max, restarts, seed), i as u64),
                )
            })
            .collect();
        let refs: Vec<&SearchCell> = cells.iter().collect();
        let mut batch = BatchedSchedContext::default();
        let got = lockstep::run_cells_lockstep(&mut batch, &refs);
        assert_identical(&cells, &got, &scalar(&cells));
    }
}
