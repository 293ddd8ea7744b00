//! Ablation: does PISA need simulated annealing? Compares annealing,
//! hill-climbing, and a random walk at identical budgets over a panel of
//! scheduler pairs (a design-choice ablation flagged in DESIGN.md; the
//! paper proposes exploring other meta-heuristics as future work).
//!
//! Runs on the batch engine's `SearchCell` runtime: one `Ablation` cell per
//! (pair, strategy, trial), sharded across workers with pooled contexts and
//! per-cell derived seeds — bit-identical at any `RAYON_NUM_THREADS` —
//! with a JSONL checkpoint (`--resume`).
//!
//! Usage: `ablation_search [--imax N] [--restarts R] [--seed S] [--trials K]
//! [--resume] [--shard i/N] [--checkpoint PATH]`. With `--shard i/N` only
//! that slice of the cells runs, against a per-shard checkpoint, and the
//! summary is skipped; `saga-merge` the shards and re-run with `--resume`.

use saga_experiments::engine::{BatchEngine, Progress};
use saga_experiments::{cli, render, write_results_file};
use saga_pisa::ablation::Strategy;
use saga_pisa::{shard_cells, PisaConfig, SearchCell};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let resume = args.iter().any(|a| a == "--resume");
    let shard = cli::shard_arg(&args);
    let ckpt_path = cli::checkpoint_path(&args, shard, "results/ablation_search_cells.jsonl");
    let config = PisaConfig {
        i_max: cli::arg_or(&args, "imax", 1000),
        restarts: cli::arg_or(&args, "restarts", 5),
        seed: cli::arg_or(&args, "seed", 0xAB1A),
        ..PisaConfig::default()
    };
    let trials: usize = cli::arg_or(&args, "trials", 5);

    let pairs = [
        ("HEFT", "CPoP"),
        ("CPoP", "HEFT"),
        ("HEFT", "FastestNode"),
        ("MinMin", "MaxMin"),
        ("WBA", "HEFT"),
        ("MCT", "HEFT"),
    ];
    println!(
        "Ablation: best adversarial ratio by search strategy \
         ({} restarts x {} iters, mean over {trials} seeds)\n",
        config.restarts, config.i_max
    );

    // Cells in (pair, strategy, trial) nesting. Trials within one
    // (pair, strategy) must compare across strategies at matched seeds, so
    // the trial's config seed is shared per (pair, trial) and only the
    // strategy varies — exactly the old driver's seed pairing, expressed as
    // cells. The cell label carries the trial index (via the seed in the
    // key), keeping checkpoint keys unique.
    let mut cells = Vec::with_capacity(pairs.len() * Strategy::ALL.len() * trials);
    for (pi, (a, b)) in pairs.iter().enumerate() {
        for strategy in Strategy::ALL {
            for k in 0..trials {
                let cfg = PisaConfig {
                    seed: saga_core::derive_seed(config.seed, (pi * trials + k) as u64),
                    ..config
                };
                cells.push(SearchCell::ablation(strategy, a, b, cfg));
            }
        }
    }
    let total = cells.len();
    let cells = shard_cells(cells, shard);
    let checkpoint = cli::open_checkpoint(&ckpt_path, resume);
    let engine = BatchEngine::new();
    let progress = Progress::new("ablation_search", cells.len());
    let results = engine.run_cells_or_exit(&cells, Some(&progress), Some(&checkpoint));
    if !shard.is_full() {
        // a partial shard can't compute the cross-strategy summary; its
        // output is the checkpoint itself
        eprintln!(
            "shard {shard} complete: {} of {total} cells in {} — merge all shards with \
             saga-merge, then summarize with `ablation_search --resume`",
            results.len(),
            ckpt_path.display()
        );
        return;
    }
    let mut results = results.into_iter();

    let col_names: Vec<String> = Strategy::ALL.iter().map(|s| s.name().to_string()).collect();
    let mut row_names = Vec::new();
    let mut rows = Vec::new();
    let mut wins = vec![0usize; Strategy::ALL.len()];
    for (a, b) in pairs {
        let mut means = Vec::new();
        let mut trial_best: Vec<Vec<f64>> = vec![Vec::new(); Strategy::ALL.len()];
        for strategy_trials in trial_best.iter_mut() {
            let mut total = 0.0;
            for _ in 0..trials {
                let res = results.next().expect("one result per cell");
                let r = if res.ratio.is_finite() {
                    res.ratio
                } else {
                    1000.0
                };
                total += r;
                strategy_trials.push(r);
            }
            means.push(total / trials as f64);
        }
        // count per-trial wins (ties split to the earlier strategy)
        #[allow(clippy::needless_range_loop)] // k indexes parallel per-strategy vectors
        for k in 0..trial_best[0].len() {
            let mut best = 0;
            for si in 1..Strategy::ALL.len() {
                if trial_best[si][k] > trial_best[best][k] {
                    best = si;
                }
            }
            wins[best] += 1;
        }
        row_names.push(format!("{a} vs {b}"));
        rows.push(means);
    }
    println!(
        "{}",
        render::matrix(
            "mean best ratio (1000 = unbounded)",
            &row_names,
            &col_names,
            &rows
        )
    );
    println!("per-trial wins across all pairs:");
    for (s, w) in Strategy::ALL.iter().zip(&wins) {
        println!("  {:<12} {w}", s.name());
    }
    let path = write_results_file(
        "ablation_search.csv",
        &render::matrix_csv(&row_names, &col_names, &rows),
    );
    eprintln!("wrote {}", path.display());
}
