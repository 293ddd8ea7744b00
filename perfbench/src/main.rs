//! The repository benchmark.
//!
//! ```text
//! cargo run --offline --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig4_paper|app_workflows|fig2_bench --seed N --seconds S --trace 0|1
//! ```
//!
//! One run builds one workload from its seed, runs it in this process on
//! the engine the experiment binaries use, and prints a run record and a
//! summary on stderr and, as the last line of stdout, one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.
//!
//! * `--trace 0` times whole passes with no instrumentation and reports
//!   the end-to-end metrics: `setup_s`, `wall_s`, `evals_per_s`,
//!   `evals_per_s_1w`, `peak_rss_mb`, `adv_ge2x_frac`.
//! * `--trace 1` adds a traced 1-worker pass to every round and reports the
//!   per-layer metrics (see [`trace`]), the engine's scaling counters, the
//!   input properties the fast paths depend on, and the tracing overhead.
//!
//! Every pass writes its checkpoints under `perfbench/.scratch/`, which the
//! run deletes before it exits. Every output unit of every pass is checked
//! outside the timed region (see [`workload::Workload::check`]); a mismatch
//! counts as a failed operation. A disagreeing evaluation count aborts the
//! run.

mod stats;
mod trace;
mod workload;

use stats::median;
use std::path::{Path, PathBuf};
use std::time::Instant;
use workload::{adv_ge2x_frac, canonical, Checkpoints, Kind, Outputs, Workload};

/// Settings that switch the program off its default configuration. The
/// benchmark always measures the default, so it refuses to run under any.
const TOGGLES: [&str; 4] = [
    "SAGA_NO_BATCH",
    "SAGA_NO_EFT_ROW",
    "SAGA_NO_INCREMENTAL",
    "RAYON_QUEUE",
];

/// Set-ups timed at the start of every round; `setup_s` is the median of
/// all of them, so it samples the machine over the whole run as the
/// passes do.
const SETUP_REPS: usize = 10;
/// Rounds every run makes, however long they take.
const MIN_ROUNDS: usize = 3;

const USAGE: &str = "usage: perfbench --workload fig4_paper|app_workflows|fig2_bench \
                     --seed N --seconds S --trace 0|1";

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let value = |flag: &str| -> Result<&str, String> {
            let at = argv
                .iter()
                .position(|a| a == flag)
                .ok_or_else(|| format!("missing {flag}"))?;
            argv.get(at + 1)
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let kind = value("--workload")?;
        let kind = Kind::parse(kind).ok_or_else(|| format!("unknown workload {kind}"))?;
        let seed = value("--seed")?;
        let seed = seed.parse().map_err(|_| format!("bad --seed {seed}"))?;
        let seconds = value("--seconds")?;
        let seconds = seconds
            .parse::<u32>()
            .ok()
            .filter(|&s| s >= 1)
            .ok_or_else(|| format!("bad --seconds {seconds}"))?;
        let trace = match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("bad --trace {other}")),
        };
        Ok(Args {
            kind,
            seed,
            seconds: f64::from(seconds),
            trace,
        })
    }
}

/// Metrics by name, with their units, in print order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Adds one metric.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// The checked-out commit, read from `.git` when the run directory is a
/// git checkout.
fn commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map(|c| c.trim().to_string())
            .unwrap_or_else(|_| format!("unknown ({r})")),
    }
}

/// Sets the engine's worker count for the next pass. Rayon's own thread
/// count variable is the only in-process way to change it; it is read per
/// parallel call and set only between passes, with no other thread alive.
fn set_workers(n: usize) {
    std::env::set_var("RAYON_NUM_THREADS", n.to_string());
}

/// Removes the run's scratch directory when the run ends, however it ends.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // drop the parent too once no other run is using it
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// What one timed, untraced pass measured. Its outputs are checked and
/// dropped, so memory stays flat however many passes a run makes.
struct Timed {
    wall_s: f64,
    cpu_s: f64,
    claims: usize,
    steals: usize,
}

fn timed_pass(w: &Workload, workers: usize) -> Result<(Timed, Outputs), String> {
    let files = w
        .open_checkpoints(false)
        .map_err(|e| format!("cannot open checkpoints: {e}"))?;
    set_workers(workers);
    let cpu = stats::cpu_seconds()?;
    let start = Instant::now();
    let pass = w.run_pass(&files)?;
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = stats::cpu_seconds()? - cpu;
    let timed = Timed {
        wall_s,
        cpu_s,
        claims: pass.claims,
        steals: pass.steals,
    };
    Ok((timed, pass.outputs))
}

/// Aborts the run when an exact count disagrees with the plan.
fn reconcile(what: &str, got: u64, expected: u64) -> Result<(), String> {
    if got == expected {
        Ok(())
    } else {
        Err(format!(
            "{what}: counted {got} evaluations, the plan has {expected}"
        ))
    }
}

/// Scheduler evaluations a pass's outputs account for.
fn evaluations_in(outputs: &Outputs, w: &Workload) -> u64 {
    match outputs {
        // every restart of a cell runs the same number of iterations, so
        // the winning restart's count times the restarts is the cell's
        // total; each evaluation runs two schedulers
        Outputs::Cells(results) => w
            .cells()
            .iter()
            .zip(results)
            .map(|(c, r)| (c.config.restarts * r.evaluations * 2) as u64)
            .sum(),
        Outputs::Rows(rows) => rows.iter().map(|r| r.len() as u64).sum(),
    }
}

/// The correctness gate: the reference pass's checked outputs, and the
/// tally of units attempted and failed across every pass compared to them.
struct Gate {
    expected: Vec<String>,
    evals: u64,
    units: u64,
    attempted: u64,
    failed: u64,
}

impl Gate {
    /// Checks the reference pass against independent recomputation.
    fn new(w: &Workload, reference: &Outputs) -> Result<Gate, String> {
        let evals = w.evaluations();
        reconcile("reference", evaluations_in(reference, w), evals)?;
        let failures = w.check(reference);
        for f in failures.iter().take(10) {
            eprintln!("FAILED: {f}");
        }
        Ok(Gate {
            expected: canonical(reference),
            evals,
            units: w.units() as u64,
            attempted: w.units() as u64,
            failed: failures.len() as u64,
        })
    }

    /// Counts every unit of `outputs` that is not bit-identical to the
    /// reference.
    fn compare(&mut self, w: &Workload, outputs: &Outputs, what: &str) -> Result<(), String> {
        reconcile(what, evaluations_in(outputs, w), self.evals)?;
        let got = canonical(outputs);
        let bad = got
            .iter()
            .zip(&self.expected)
            .filter(|(a, b)| a != b)
            .count()
            + got.len().abs_diff(self.expected.len());
        if bad > 0 {
            eprintln!("FAILED: {bad} {what} outputs differ from the 1-worker reference");
        }
        self.attempted += self.units;
        self.failed += bad as u64;
        Ok(())
    }

    /// Counts one checkpoint replay, failed unless it loaded every unit.
    fn replayed(&mut self, loaded: usize) {
        self.attempted += 1;
        if loaded as u64 != self.units {
            eprintln!("FAILED: replay loaded {loaded} of {} units", self.units);
            self.failed += 1;
        }
    }
}

/// What a run measured, before it becomes metrics.
struct Samples {
    nproc: usize,
    setup_s: Vec<f64>,
    nw: Vec<Timed>,
    one_s: Vec<f64>,
    spans: trace::Spans,
}

/// Builds the workload [`SETUP_REPS`] times, timing each build, and
/// returns the last.
fn set_up(kind: Kind, seed: u64, dir: &Path, times: &mut Vec<f64>) -> Result<Workload, String> {
    let mut built = None;
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        let w = Workload::build(kind, seed, dir);
        let files = w
            .open_checkpoints(false)
            .map_err(|e| format!("cannot open checkpoints: {e}"))?;
        times.push(start.elapsed().as_secs_f64());
        drop(files);
        built = Some(w);
    }
    Ok(built.expect("SETUP_REPS >= 1"))
}

/// `wall_s` is the median pass; the two throughputs are every evaluation
/// the run's timed passes made over their summed time, so a pass slowed by
/// other load on the machine weighs in by its length, not by its rank.
fn end_to_end(w: &Workload, reference: &Outputs, s: &Samples) -> Result<Metrics, String> {
    let nw_s: Vec<f64> = s.nw.iter().map(|p| p.wall_s).collect();
    let rate =
        |passes: &[f64]| w.evaluations() as f64 * passes.len() as f64 / passes.iter().sum::<f64>();
    let mut m = Metrics::default();
    m.put("setup_s", median(&s.setup_s), "s");
    m.put("wall_s", median(&nw_s), "s");
    m.put("evals_per_s", rate(&nw_s), "1/s");
    m.put("evals_per_s_1w", rate(&s.one_s), "1/s");
    m.put("peak_rss_mb", stats::peak_rss_mb()?, "MB");
    m.put("adv_ge2x_frac", adv_ge2x_frac(reference), "frac");
    Ok(m)
}

fn per_layer(w: &Workload, gate: &mut Gate, s: &Samples) -> Result<Metrics, String> {
    reconcile(
        "traced scheduler calls",
        s.spans.calls,
        w.evaluations() * s.spans.pass_s.len() as u64,
    )?;
    let wall_1w = median(&s.one_s);
    let mut m = s.spans.metrics(wall_1w);

    // checkpoint size and replay, from the files the last pass wrote
    let bytes: u64 = w
        .checkpoint_files()
        .iter()
        .map(|p| std::fs::metadata(p).map(|md| md.len()))
        .sum::<std::io::Result<u64>>()
        .map_err(|e| format!("cannot stat checkpoints: {e}"))?;
    let mut replay_ms = Vec::new();
    for _ in 0..5 {
        let start = Instant::now();
        let files = w
            .open_checkpoints(true)
            .map_err(|e| format!("cannot replay checkpoints: {e}"))?;
        replay_ms.push(start.elapsed().as_secs_f64() * 1e3);
        gate.replayed(match &files {
            Checkpoints::Cells(cs) => cs.iter().map(|c| c.loaded()).sum(),
            Checkpoints::Rows(r) => r.loaded(),
        });
    }
    m.put("checkpoint.bytes", bytes as f64, "bytes");
    m.put("checkpoint.replay_ms", median(&replay_ms), "ms");

    let cells: Vec<_> = w.cells().into_iter().cloned().collect();
    let lockstep: usize = saga_pisa::plan_units(&cells, |_, _| true)
        .iter()
        .filter(|u| matches!(u, saga_pisa::ExecUnit::Lockstep(_)))
        .map(|u| u.indices().len())
        .sum();
    let frac = if cells.is_empty() {
        0.0
    } else {
        lockstep as f64 / cells.len() as f64
    };
    m.put("lockstep.cells_frac", frac, "frac");

    let nw_wall: Vec<f64> = s.nw.iter().map(|p| p.wall_s).collect();
    let workers = s.nproc as f64;
    let cpu: f64 = s.nw.iter().map(|p| p.cpu_s).sum();
    let eff = wall_1w / (workers * median(&nw_wall));
    m.put("engine.parallel_eff", eff, "frac");
    let util = cpu / (nw_wall.iter().sum::<f64>() * workers);
    m.put("engine.cpu_util", util, "frac");
    let claims: Vec<f64> = s.nw.iter().map(|p| p.claims as f64).collect();
    let steals: Vec<f64> = s.nw.iter().map(|p| p.steals as f64).collect();
    m.put("engine.claims", median(&claims), "count");
    m.put("engine.steals", median(&steals), "count");
    Ok(m)
}

fn run(args: &Args) -> Result<(Gate, Metrics), String> {
    for t in TOGGLES {
        if std::env::var_os(t).is_some() {
            return Err(format!(
                "{t} is set; the benchmark measures the default configuration only"
            ));
        }
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let kind = args.kind;
    let scratch = ScratchDir(Path::new("perfbench/.scratch").join(format!(
        "{}-{}",
        kind.name(),
        std::process::id()
    )));
    eprintln!(
        "{{\"run_record\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \
         \"trace\": {}, \"nproc\": {nproc}, \"workers\": [1, {nproc}], \"commit\": \"{}\", \
         \"profile\": \"{}\"}}}}",
        kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        commit(),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    );

    let mut samples = Samples {
        nproc,
        setup_s: Vec::new(),
        nw: Vec::new(),
        one_s: Vec::new(),
        spans: trace::Spans::default(),
    };
    let w = set_up(kind, args.seed, &scratch.0, &mut samples.setup_s)?;

    // the reference pass at one worker doubles as the warm-up
    let reference = timed_pass(&w, 1)?.1;
    let mut gate = Gate::new(&w, &reference)?;
    gate.compare(&w, &timed_pass(&w, nproc)?.1, "warm-up")?;

    // timed rounds: an untraced pass at nproc and at one worker, in
    // alternating order, plus a traced pass when tracing
    let began = Instant::now();
    let mut round = 0usize;
    loop {
        let elapsed = began.elapsed().as_secs_f64();
        if round >= MIN_ROUNDS && elapsed + elapsed / round as f64 > args.seconds {
            break;
        }
        set_up(kind, args.seed, &scratch.0, &mut samples.setup_s)?;
        let order = if round.is_multiple_of(2) {
            [nproc, 1]
        } else {
            [1, nproc]
        };
        for workers in order {
            let (p, outputs) = timed_pass(&w, workers)?;
            gate.compare(&w, &outputs, &format!("{workers}-worker"))?;
            if workers == 1 {
                samples.one_s.push(p.wall_s);
            }
            if workers == nproc {
                samples.nw.push(p);
            }
        }
        if args.trace {
            set_workers(1);
            let out = trace::traced_pass(&w, &mut samples.spans)
                .map_err(|e| format!("traced pass: checkpoint write failed: {e}"))?;
            gate.compare(&w, &out, "traced")?;
        }
        round += 1;
    }
    let metrics = if args.trace {
        per_layer(&w, &mut gate, &samples)?
    } else {
        end_to_end(&w, &reference, &samples)?
    };

    let list = |v: &mut dyn Iterator<Item = f64>| {
        v.map(|s| format!("{s:.4}")).collect::<Vec<_>>().join(" ")
    };
    eprintln!(
        "{}: {round} rounds in {:.1}s, {} evaluations per pass; \
         pass seconds at {nproc} workers: {}; at 1 worker: {}",
        kind.name(),
        began.elapsed().as_secs_f64(),
        gate.evals,
        list(&mut samples.nw.iter().map(|p| p.wall_s)),
        list(&mut samples.one_s.iter().copied()),
    );
    Ok((gate, metrics))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok((gate, metrics)) => println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            gate.failed == 0,
            gate.attempted,
            gate.failed,
            metrics.to_json()
        ),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
