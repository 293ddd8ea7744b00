//! # saga-experiments
//!
//! Regeneration harnesses for every table and figure of the PISA paper.
//! Each binary prints the same rows/series the paper reports (text heatmaps
//! instead of matplotlib) and writes CSVs under `results/`:
//!
//! | binary     | reproduces                                               |
//! |------------|----------------------------------------------------------|
//! | `table1`   | Table I — scheduler inventory                            |
//! | `table2`   | Table II — dataset inventory (with sampled statistics)   |
//! | `fig2`     | Fig. 2 — benchmarking 15 schedulers on 16 datasets       |
//! | `fig3`     | Fig. 3 — the HEFT/CPoP network-alteration example        |
//! | `fig4`     | Fig. 4 — PISA pairwise heatmap                           |
//! | `fig5_6`   | Figs. 5–6 — HEFT vs CPoP adversarial case studies        |
//! | `fig7`     | Fig. 7 — family where HEFT performs poorly               |
//! | `fig8`     | Fig. 8 — family where CPoP performs poorly               |
//! | `app_pisa` | Figs. 10–19 — application-specific PISA per workflow     |
//!
//! Budgets are CLI-tunable (`--instances`, `--imax`, `--restarts`) because
//! the paper's full budgets take CPU-hours; defaults are sized to finish in
//! minutes while preserving every qualitative claim. The figure binaries
//! (`fig2`–`fig4`, `fig7`, `fig8`, `app_pisa`) print their paper checks
//! beside the measured values; all but `fig3` also write CSVs under
//! `results/`.

use saga_core::Instance;
use saga_schedulers::Scheduler;

pub mod benchmarking;
mod checkpoint;
pub mod cli;
pub mod engine;
pub mod merge;
pub mod render;

/// Evaluates every scheduler on one instance and returns the makespans in
/// scheduler order. One scheduling context is reused across the sweep.
pub fn makespans(schedulers: &[Box<dyn Scheduler>], inst: &Instance) -> Vec<f64> {
    let mut ctx = saga_core::SchedContext::new();
    schedulers
        .iter()
        .map(|s| s.makespan_into(inst, &mut ctx))
        .collect()
}

/// Writes `content` to `results/<name>` (creating the directory), returning
/// the path. The fallible variant for callers that can report the error in
/// their own way; the binaries use [`write_results_file`].
pub fn try_write_results_file(name: &str, content: &str) -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::Path::new("results");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(name);
    std::fs::write(&path, content)?;
    Ok(path)
}

/// Writes `content` to `results/<name>` (creating the directory), returning
/// the path. Failures are fatal — experiments must not silently drop data —
/// but exit cleanly with the path and cause instead of a panic backtrace.
pub fn write_results_file(name: &str, content: &str) -> std::path::PathBuf {
    try_write_results_file(name, content).unwrap_or_else(|e| {
        eprintln!("fatal: cannot write results/{name}: {e}");
        std::process::exit(1);
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use saga_schedulers::benchmark_schedulers;

    #[test]
    fn makespans_align_with_scheduler_order() {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(1);
        let inst = saga_datasets::random_graphs::sample_chains(&mut rng);
        let scheds = benchmark_schedulers();
        let ms = makespans(&scheds, &inst);
        assert_eq!(ms.len(), scheds.len());
        assert!(ms.iter().all(|&m| m > 0.0));
    }
}
