//! Regenerates Fig. 3: the illustrative parallel-chains instance where a
//! minor network alteration (weakening node 3's links) flips the HEFT/CPoP
//! comparison.
//!
//! Prints Gantt charts for HEFT and CPoP on (a) the paper's exact instance
//! and (b) the tie-break-robust variant (node 3 slightly faster). On the
//! exact instance every HEFT EFT ties, so the outcome depends on tie order;
//! see `fixtures::fig3_variant_original` for why the variant is needed.
//!
//! The (variant × scheduler) cells run on the batch engine — tiny here, but
//! every experiment bin goes through the same sharded, context-pooled path,
//! and the collected results print in input order so the report is
//! identical at any thread count.

use saga_core::gantt;
use saga_experiments::engine::BatchEngine;
use saga_schedulers::util::fixtures;
use saga_schedulers::{Cpop, Heft, Scheduler};

fn main() {
    println!("Fig. 3: HEFT vs CPoP under a minor network alteration\n");
    let variants: Vec<(&str, saga_core::Instance)> = vec![
        (
            "paper instance, original network",
            fixtures::fig3_original(),
        ),
        (
            "paper instance, node-3 links weakened",
            fixtures::fig3_modified(),
        ),
        (
            "variant (node 3 speed 1.25), original links",
            fixtures::fig3_variant_original(),
        ),
        (
            "variant (node 3 speed 1.25), weakened links",
            fixtures::fig3_variant_modified(),
        ),
    ];

    let engine = BatchEngine::new();
    let schedulers: [&dyn Scheduler; 2] = [&Heft, &Cpop];
    let cells: Vec<(usize, usize)> = (0..variants.len())
        .flat_map(|i| (0..schedulers.len()).map(move |k| (i, k)))
        .collect();
    let reports: Vec<String> = engine.map_ctx(cells, |ctx, (i, k)| {
        let (_, inst) = &variants[i];
        let sched = schedulers[k];
        let s = sched.schedule_into(inst, ctx);
        s.verify(inst).expect("valid schedule");
        format!(
            "{} makespan {:.3}\n{}",
            sched.name(),
            s.makespan(),
            gantt::render(inst, &s, 60)
        )
    });
    for (chunk, (label, _)) in reports.chunks(schedulers.len()).zip(&variants) {
        println!("== {label} ==");
        for r in chunk {
            println!("{r}");
        }
    }

    let orig = fixtures::fig3_variant_original();
    let modif = fixtures::fig3_variant_modified();
    let r_orig = Heft.schedule(&orig).makespan() / Cpop.schedule(&orig).makespan();
    let r_mod = Heft.schedule(&modif).makespan() / Cpop.schedule(&modif).makespan();
    println!("HEFT/CPoP ratio: original {r_orig:.3} -> weakened {r_mod:.3}");
    println!(
        "check: weakening node 3's links makes HEFT lose to CPoP: {}",
        r_mod > 1.0 && r_mod > r_orig
    );
}
