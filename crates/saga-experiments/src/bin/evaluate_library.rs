//! Scores a scheduler against a published library of adversarial witnesses
//! (e.g. `results/fig4_witnesses.jsonl` produced by the `fig4` binary) —
//! the paper's proposed workflow for evaluating *new* algorithms against
//! instances PISA already found, without re-running the search.
//!
//! The witness cells run on the batch engine: each record revalidates its
//! stored ratio *and* scores the candidate in one pinned-tables scope (the
//! exec/link tables are built once per witness for all three scheduler
//! runs), sharded across workers, with results in record order at any
//! thread count.
//!
//! Usage: `evaluate_library [scheduler] [--library PATH]`
//! (default scheduler: `Ensemble` = HEFT+CPoP+MaxMin portfolio).

use saga_experiments::cli;
use saga_experiments::engine::{BatchEngine, Progress};
use saga_pisa::library::WitnessLibrary;
use saga_pisa::makespan_ratio;
use saga_schedulers::Scheduler;

/// One scored witness record.
struct Row {
    target: String,
    baseline: String,
    stored: f64,
    candidate: f64,
    revalidated: bool,
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let name = cli::positional(&args).unwrap_or("Ensemble").to_string();
    let default_path = "results/fig4_witnesses.jsonl".to_string();
    let path: String = cli::arg_or(&args, "library", default_path);

    let candidate: Box<dyn Scheduler> = if name.eq_ignore_ascii_case("ensemble") {
        Box::new(saga_schedulers::Ensemble::default_portfolio())
    } else {
        saga_schedulers::by_name(&name).unwrap_or_else(|| {
            eprintln!("fatal: unknown scheduler {name:?}");
            std::process::exit(2);
        })
    };
    let lib = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read witness library {path}: {e} (run `fig4` first)"))
        .and_then(|text| {
            WitnessLibrary::from_jsonl(&text)
                .map_err(|e| format!("malformed witness library {path}: {e}"))
        })
        .unwrap_or_else(|e| {
            eprintln!("fatal: {e}");
            std::process::exit(1);
        });
    println!("loaded {} witnesses from {path}", lib.records.len());

    let engine = BatchEngine::new();
    let progress = Progress::new("evaluate_library", lib.records.len());
    let rows: Vec<Option<Row>> = engine.map_ctx(lib.records.iter().collect(), |ctx, r| {
        // candidate scoring needs only the baseline to resolve and the
        // witness to decode (a record whose target scheduler was renamed is
        // still a scorable trap); revalidation additionally needs the
        // target, and a record failing any of the three counts as a mismatch
        let scorable = saga_schedulers::by_name(&r.baseline).zip(r.instance().ok());
        let row = scorable.map(|(baseline, inst)| {
            ctx.with_pinned(&inst, |ctx| {
                let b = baseline.makespan_into(&inst, ctx);
                let c = candidate.makespan_into(&inst, ctx);
                let stored = r.ratio_value();
                let revalidated = saga_schedulers::by_name(&r.target).is_some_and(|target| {
                    let live = makespan_ratio(target.makespan_into(&inst, ctx), b);
                    (live.is_infinite() && stored.is_infinite())
                        || (live - stored).abs() <= 1e-6 * stored.abs().max(1.0)
                });
                Row {
                    target: r.target.clone(),
                    baseline: r.baseline.clone(),
                    stored,
                    candidate: makespan_ratio(c, b),
                    revalidated,
                }
            })
        });
        progress.tick();
        row
    });
    let rows: Vec<Row> = rows.into_iter().flatten().collect();
    let bad = lib.records.len() - rows.iter().filter(|r| r.revalidated).count();
    println!("library revalidation mismatches: {bad}");

    let mut worse_than_2 = 0;
    let mut own_traps = 0;
    let mut own_total = 0;
    println!(
        "\n{:<12} {:<12} {:>10} {:>12}",
        "trap for",
        "baseline",
        "stored",
        candidate.name()
    );
    for row in &rows {
        if row.candidate >= 2.0 {
            worse_than_2 += 1;
        }
        if row.target.eq_ignore_ascii_case(candidate.name()) {
            own_total += 1;
            if row.candidate >= 2.0 {
                own_traps += 1;
            }
        }
        // print only the interesting rows: candidate clearly caught
        if row.candidate >= 2.0 {
            println!(
                "{:<12} {:<12} {:>10} {:>12}",
                row.target,
                row.baseline,
                saga_pisa::PairwiseMatrix::format_cell(row.stored),
                saga_pisa::PairwiseMatrix::format_cell(row.candidate),
            );
        }
    }
    println!(
        "\n{} falls >=2x behind the baseline on {worse_than_2}/{} stored witnesses",
        candidate.name(),
        rows.len()
    );
    if own_total > 0 {
        println!(
            "(on witnesses originally targeting {}: {own_traps}/{own_total})",
            candidate.name()
        );
    }
}
