//! Regenerates Fig. 2: benchmarking the 15 polynomial schedulers on all 16
//! datasets. Each cell reports the *maximum* makespan ratio a scheduler hit
//! on the dataset (the paper's color scale tops out the same way); median
//! and unbounded counts land in the CSV.
//!
//! Runs on the batch engine: instances shard across rayon workers with one
//! warm context per worker and cost tables pinned per instance, so the
//! default budget now matches the paper's low end (100 instances/dataset;
//! the paper uses 100–1000). Output is bit-identical for any
//! `RAYON_NUM_THREADS`.
//!
//! Every instance row is a keyed unit of work
//! (`fig2/{dataset}#k{k}#s{seed}`) appended to a `RowCheckpoint` JSONL as
//! it completes, so paper-scale 1000-instance budgets are resumable
//! (`--resume`) and distributable: `--shard i/N` runs only this host's
//! deterministic 1/N of the rows against a per-shard checkpoint
//! (`results/fig2_rows.shard{i}of{N}.jsonl`) and skips rendering —
//! `saga-merge` the shards into `results/fig2_rows.jsonl`, then render with
//! `fig2 --resume` (every row replays from the merged file bit-exactly).
//!
//! Usage: `fig2 [--instances N] [--seed S] [--resume] [--shard i/N]
//! [--checkpoint PATH]`.

use saga_experiments::engine::{BatchEngine, Progress};
use saga_experiments::{benchmarking, cli, render, write_results_file};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let instances: usize = cli::arg_or(&args, "instances", 100);
    let seed: u64 = cli::arg_or(&args, "seed", 0xF162);
    let resume = args.iter().any(|a| a == "--resume");
    let shard = cli::shard_arg(&args);
    let ckpt_path = cli::checkpoint_path(&args, shard, "results/fig2_rows.jsonl");

    let schedulers = saga_schedulers::benchmark_schedulers();
    let sched_names: Vec<String> = schedulers.iter().map(|s| s.name().to_string()).collect();
    let generators = saga_datasets::all_generators();
    let dataset_names: Vec<String> = generators.iter().map(|g| g.name.to_string()).collect();

    let checkpoint = cli::open_checkpoint(&ckpt_path, resume);
    let key_of = |dataset: &str, k: usize| format!("fig2/{dataset}#k{k}#s{seed:016x}");
    // progress totals count only this shard's rows
    let total: usize = generators
        .iter()
        .map(|g| {
            (0..instances)
                .filter(|&k| shard.contains_key(&key_of(g.name, k)))
                .count()
        })
        .sum();

    let engine = BatchEngine::new();
    let progress = Progress::new("fig2", total);
    let mut max_rows: Vec<Vec<f64>> = Vec::with_capacity(generators.len());
    let mut med_rows: Vec<Vec<f64>> = Vec::with_capacity(generators.len());
    let mut done = 0usize;
    for gen in &generators {
        let key_of_k = |k: usize| key_of(gen.name, k);
        let rows = engine.dataset_makespans_sharded(
            &schedulers,
            gen,
            instances,
            seed,
            &key_of_k,
            shard,
            Some(&progress),
            Some(&checkpoint),
        );
        let rows = cli::exit_on_write_failure(rows);
        done += rows.iter().flatten().count();
        if !shard.is_full() {
            continue;
        }
        // a full run computes every row; reduce to the paper's statistics
        let mut per_sched: Vec<Vec<f64>> = vec![Vec::with_capacity(instances); schedulers.len()];
        for row in rows.iter().flatten() {
            for (k, r) in benchmarking::ratios_of(row).into_iter().enumerate() {
                per_sched[k].push(r);
            }
        }
        let stats: Vec<benchmarking::RatioStats> = per_sched
            .iter()
            .map(|rs| benchmarking::summarize(rs))
            .collect();
        max_rows.push(stats.iter().map(|s| s.max).collect());
        med_rows.push(stats.iter().map(|s| s.median).collect());
    }
    if !shard.is_full() {
        // a partial shard can't render the matrices; its output is the
        // checkpoint itself
        eprintln!(
            "shard {shard} complete: {done} rows in {} — merge all shards with \
             `saga-merge --out results/fig2_rows.jsonl results/fig2_rows.shard*.jsonl`, \
             then render with `fig2 --resume`",
            ckpt_path.display()
        );
        return;
    }

    println!(
        "{}",
        render::matrix(
            &format!("Fig. 2: max makespan ratio per (dataset, scheduler), {instances} instances"),
            &dataset_names,
            &sched_names,
            &max_rows,
        )
    );
    println!(
        "{}",
        render::matrix(
            "Fig. 2 (median makespan ratio)",
            &dataset_names,
            &sched_names,
            &med_rows,
        )
    );

    let csv = render::matrix_csv(&dataset_names, &sched_names, &max_rows);
    let path = write_results_file("fig2_max_ratios.csv", &csv);
    let csv = render::matrix_csv(&dataset_names, &sched_names, &med_rows);
    let path2 = write_results_file("fig2_median_ratios.csv", &csv);
    eprintln!("wrote {} and {}", path.display(), path2.display());

    // The qualitative Fig. 2 takeaways, checked live:
    let fastest_idx = sched_names.iter().position(|n| n == "FastestNode").unwrap();
    let heft_idx = sched_names.iter().position(|n| n == "HEFT").unwrap();
    let fastest_bad_somewhere = max_rows.iter().any(|row| row[fastest_idx] > 2.0);
    let heft_med: Vec<f64> = med_rows.iter().map(|r| r[heft_idx]).collect();
    println!("check: FastestNode max ratio > 2 on some dataset: {fastest_bad_somewhere}");
    println!(
        "check: HEFT median ratio stays below 1.35 on every dataset: {}",
        heft_med.iter().all(|&r| r < 1.35)
    );
}
