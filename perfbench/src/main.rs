//! `perfbench` — the end-to-end exploration benchmark.
//!
//! ```text
//! perfbench --workload <name|all> [--seed <n>] [--seconds <n>] [--trace <0|1>]
//! ```
//!
//! With `--trace 0` it times untraced `Cocco::explore` calls and prints
//! the end-to-end metrics; with `--trace 1` it runs the traced replica
//! next to the facade and prints the per-layer metrics. Human-readable
//! lines come first; the last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. `--workload all`
//! runs every workload in both modes, one child process each (so peak
//! memory stays per workload), and forwards their output. See README.md.

mod host;
mod replica;
mod workload;

use cocco::graph::{models, Graph};
use cocco::search::{BufferSpace, Objective, SearchContext};
use cocco::sim::{AcceleratorConfig, EvalOptions, Evaluator};
use cocco::telemetry::Stopwatch;
use replica::Layers;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workload::{check, Case, Signature, Workload};

/// The documented default workload seed.
const DEFAULT_SEED: u64 = 1;

/// Set-up repetitions per sampling block; `setup_s` is the median over
/// all blocks of a run.
const SETUP_REPS: usize = 9;

/// Minimum time between set-up sampling blocks. Blocks run after an
/// exploration and spread over the whole run: figures taken only right
/// after process start were bimodal across otherwise identical runs.
const SETUP_INTERVAL: std::time::Duration = std::time::Duration::from_millis(500);

/// Minimum share of traced wall time the layer rows must account for.
const MIN_COVERAGE: f64 = 0.95;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: perfbench --workload <{}|all> [--seed <n>] [--seconds <n>] [--trace <0|1>]",
        names.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds: f64 = 30.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = match name.as_str() {
                    "all" => None,
                    _ => Some(Workload::parse(&name).ok_or(format!("unknown workload `{name}`"))?),
                };
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("perfbench: {msg}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let Some(workload) = args.workload else {
        return run_all(&args);
    };
    let result = work_dir().and_then(|dir| {
        if args.trace {
            run_traced(workload, args.seed, args.seconds, &dir)
        } else {
            run_untraced(workload, args.seed, args.seconds, &dir)
        }
    });
    match result {
        Ok(report) => {
            report.print();
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Where the warm workload keeps its cache files: inside the build
/// directory (`CARGO_TARGET_DIR`, else `perfbench/target`).
fn work_dir() -> Result<PathBuf, String> {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from);
    let dir = target.join("perfbench-work");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Runs every workload untraced and traced, each in a child process.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: locating the executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut all_ok = true;
    for workload in Workload::ALL {
        for trace in ["0", "1"] {
            let output = std::process::Command::new(&exe)
                .args(["--workload", workload.name(), "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .output();
            match output {
                Ok(output) => {
                    print!("{}", String::from_utf8_lossy(&output.stdout));
                    eprint!("{}", String::from_utf8_lossy(&output.stderr));
                    all_ok &= output.status.success();
                }
                Err(e) => {
                    eprintln!("perfbench: running {}: {e}", workload.name());
                    all_ok = false;
                }
            }
        }
    }
    println!(
        "all workloads: {}",
        if all_ok {
            "every output checked"
        } else {
            "FAILED"
        }
    );
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// What one run prints: human lines, then the JSON result line.
struct Report {
    header: String,
    lines: Vec<String>,
    errors: Vec<String>,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn new(header: String) -> Self {
        Self {
            header,
            lines: Vec::new(),
            errors: Vec::new(),
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
        }
    }

    /// Counts one exploration, failed when `outcome` carries an error or
    /// differs from the case's reference signature (which the first
    /// successful outcome sets).
    fn tally_against(
        &mut self,
        label: &str,
        reference: &mut Option<Signature>,
        outcome: Result<Signature, String>,
    ) {
        self.attempted += 1;
        let outcome = outcome.and_then(|sig| match reference {
            Some(expected) if *expected != sig => Err(format!(
                "output differs from the reference run: {sig:?} vs {expected:?}"
            )),
            _ => Ok(sig),
        });
        match outcome {
            Ok(sig) => {
                reference.get_or_insert(sig);
            }
            Err(e) => {
                self.failed += 1;
                self.errors.push(format!("{label}: {e}"));
            }
        }
    }

    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        if !value.is_finite() {
            self.errors.push(format!("{name} is not finite"));
        }
        self.metrics.push((name, value, unit));
    }

    fn correct(&self) -> bool {
        self.errors.is_empty() && self.failed == 0
    }

    fn print(&self) {
        println!("{}", self.header);
        for line in &self.lines {
            println!("  {line}");
        }
        for error in &self.errors {
            println!("  ERROR {error}");
        }
        println!(
            "  failed_ratio = {} ({} failed of {} explorations attempted)",
            host::ratio(self.failed, self.attempted),
            self.failed,
            self.attempted
        );
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

/// Builds each distinct model of `cases` once.
fn build_graphs(cases: &[Case]) -> Result<Vec<(&'static str, Graph)>, String> {
    let mut graphs: Vec<(&'static str, Graph)> = Vec::new();
    for case in cases {
        if !graphs.iter().any(|(model, _)| *model == case.model) {
            let graph = models::by_name(case.model).ok_or("unknown model")?;
            graphs.push((case.model, graph));
        }
    }
    Ok(graphs)
}

fn graph_of<'g>(graphs: &'g [(&'static str, Graph)], case: &Case) -> Result<&'g Graph, String> {
    graphs
        .iter()
        .find(|(model, _)| *model == case.model)
        .map(|(_, graph)| graph)
        .ok_or_else(|| format!("no graph built for {}", case.model))
}

/// `setup_s` samples: seconds to build the workload's graphs plus one
/// evaluator and one search session per case, [`SETUP_REPS`] times.
fn measure_setup(cases: &[Case], times: &mut Vec<f64>) -> Result<(), String> {
    for _ in 0..SETUP_REPS {
        let sw = Stopwatch::start();
        let graphs = build_graphs(cases)?;
        for case in cases {
            let graph = graph_of(&graphs, case)?;
            let evaluator = Evaluator::new(graph, AcceleratorConfig::default());
            let ctx = SearchContext::new(
                graph,
                &evaluator,
                BufferSpace::paper_shared(),
                Objective::paper_energy_capacity(),
                case.budget,
            )
            .with_options(EvalOptions::default())
            .with_engine(case.engine_config());
            std::hint::black_box(&ctx);
        }
        times.push(sw.elapsed().as_secs_f64());
    }
    Ok(())
}

/// Fills every warm case's cache file with an untimed, identical run and
/// returns the reference signatures (all `None` for cold workloads).
fn fill_caches(
    workload: Workload,
    cases: &[Case],
    graphs: &[(&'static str, Graph)],
    report: &mut Report,
) -> Result<Vec<Option<Signature>>, String> {
    let mut references = vec![None; cases.len()];
    if workload.is_warm() {
        for (case, reference) in cases.iter().zip(&mut references) {
            case.remove_cache_file()?;
            let graph = graph_of(graphs, case)?;
            let outcome = case
                .session()
                .explore(graph)
                .map_err(|e| e.to_string())
                .and_then(|result| check(false, graph, &result));
            report.tally_against(&format!("fill {}", case.label()), reference, outcome);
        }
    }
    Ok(references)
}

fn remove_caches(cases: &[Case]) -> Result<(), String> {
    cases.iter().try_for_each(Case::remove_cache_file)
}

/// End-to-end metrics from untraced facade explorations, measured in
/// whole rounds (every case once) for about `seconds`.
fn run_untraced(workload: Workload, seed: u64, seconds: f64, dir: &Path) -> Result<Report, String> {
    let cases = workload.cases(seed, dir);
    let mut report = Report::new(format!(
        "perfbench {} seed={seed} trace=0: {} explorations per round, untraced",
        workload.name(),
        cases.len()
    ));
    let graphs = build_graphs(&cases)?;
    let mut references = fill_caches(workload, &cases, &graphs, &mut report)?;

    let clock = Stopwatch::start();
    let mut setup_times = Vec::new();
    let mut last_setup: Option<Stopwatch> = None;
    let mut round_means = Vec::new();
    let mut explore_times = Vec::new();
    loop {
        let round = Stopwatch::start();
        let mut round_total = 0.0;
        for (case, reference) in cases.iter().zip(&mut references) {
            let graph = graph_of(&graphs, case)?;
            let session = case.session();
            let sw = Stopwatch::start();
            let result = session.explore(graph);
            let seconds = sw.elapsed().as_secs_f64();
            round_total += seconds;
            explore_times.push(seconds);
            let outcome = result
                .map_err(|e| e.to_string())
                .and_then(|result| check(workload.is_warm(), graph, &result));
            report.tally_against(&case.label(), reference, outcome);
            if last_setup.is_none_or(|sw| sw.elapsed() >= SETUP_INTERVAL) {
                measure_setup(&cases, &mut setup_times)?;
                last_setup = Some(Stopwatch::start());
            }
        }
        round_means.push(round_total / cases.len() as f64);
        let elapsed = clock.elapsed().as_secs_f64();
        if round_means.len() >= 2 && elapsed + round.elapsed().as_secs_f64() > seconds {
            break;
        }
    }
    remove_caches(&cases)?;

    let explore_s = host::median(&round_means);
    let setup_s = host::median(&setup_times);
    let best: Vec<f64> = references.iter().flatten().map(Signature::cost).collect();
    let best_cost = if best.len() == cases.len() {
        host::geomean(&best)
    } else {
        f64::NAN
    };
    let peak_rss_mb = host::peak_rss_mb()?;
    report.metric("explore_s", explore_s, "s");
    report.metric("setup_s", setup_s, "s");
    report.metric("peak_rss_mb", peak_rss_mb, "MB");
    report.metric("best_cost", best_cost, "cost");

    let n = explore_times.len();
    report.lines.push(format!(
        "explore_s   = {explore_s:.6} s  host, median over {} rounds of the mean seconds per exploration",
        round_means.len()
    ));
    let tail = match host::supported_percentile(n) {
        Some(p) => format!("p{p} {:.6} s", host::percentile(&explore_times, p)),
        None => format!(
            "too few for a tail percentile (max {:.6} s)",
            host::percentile(&explore_times, 100.0)
        ),
    };
    report.lines.push(format!(
        "              single explorations: n={n}, p50 {:.6} s, {tail}",
        host::median(&explore_times)
    ));
    report.lines.push(format!(
        "setup_s     = {setup_s:.6} s  host, median of {} builds of graphs + evaluators + sessions",
        setup_times.len()
    ));
    report
        .lines
        .push(format!("peak_rss_mb = {peak_rss_mb:.3} MB  host, VmHWM"));
    report.lines.push(format!(
        "best_cost   = {best_cost:.6e}  simulated Formula-2 cost (unvalidated model), geometric mean over {} cases",
        cases.len()
    ));
    Ok(report)
}

/// One traced pass over every case: summed layer accounting plus the
/// untraced wall time of the same explorations.
struct Pass {
    layers: Layers,
    untraced_ns: u64,
}

/// Per-layer metrics from the traced replica, run next to the facade on
/// every case in whole passes for about `seconds` (at least one pass).
fn run_traced(workload: Workload, seed: u64, seconds: f64, dir: &Path) -> Result<Report, String> {
    let cases = workload.cases(seed, dir);
    let mut report = Report::new(format!(
        "perfbench {} seed={seed} trace=1: traced replica next to the facade, {} cases per pass",
        workload.name(),
        cases.len()
    ));
    let cpus = host::available_parallelism();
    let capacity = host::parallel_capacity(cpus);
    let graphs = build_graphs(&cases)?;
    let mut references = fill_caches(workload, &cases, &graphs, &mut report)?;

    let clock = Stopwatch::start();
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        let pass_clock = Stopwatch::start();
        let mut pass = Pass {
            layers: Layers::default(),
            untraced_ns: 0,
        };
        for (case, reference) in cases.iter().zip(&mut references) {
            let sw = Stopwatch::start();
            let graph = models::by_name(case.model).ok_or("unknown model")?;
            let result = case.session().explore(&graph);
            pass.untraced_ns += sw.elapsed_nanos();
            let outcome = result
                .map_err(|e| e.to_string())
                .and_then(|result| check(workload.is_warm(), &graph, &result));
            report.tally_against(&case.label(), reference, outcome);

            let traced = replica::traced_explore(case).map(|(sig, layers)| {
                pass.layers.add(&layers);
                sig
            });
            report.tally_against(&format!("replica {}", case.label()), reference, traced);
        }
        passes.push(pass);
        let elapsed = clock.elapsed().as_secs_f64();
        if elapsed + pass_clock.elapsed().as_secs_f64() > seconds {
            break;
        }
    }
    remove_caches(&cases)?;

    let median_of = |f: &dyn Fn(&Pass) -> f64| -> f64 {
        host::median(&passes.iter().map(f).collect::<Vec<_>>())
    };
    let wall_ns = median_of(&|p| p.layers.wall_ns as f64);
    let coverage = median_of(&|p| 1.0 - host::ratio(p.layers.unattributed_ns(), p.layers.wall_ns));
    let overhead = median_of(&|p| host::ratio(p.layers.wall_ns, p.untraced_ns) - 1.0);
    let first = passes.first().ok_or("no traced pass ran")?.layers;

    report.lines.push(format!(
        "{} passes; layer self time, median over passes of the per-pass sum, share of traced wall:",
        passes.len()
    ));
    for (k, (name, _)) in first.rows().iter().enumerate() {
        let ns = median_of(&|p| p.layers.rows()[k].1 as f64);
        report.lines.push(format!(
            "  {name:<22} {:>14.0} ns  {:>6.2}%",
            ns,
            100.0 * ns / wall_ns.max(1.0)
        ));
        report.metric(name, ns, "ns");
    }
    report.metric("trace.wall_ns", wall_ns, "ns");
    report.metric("trace.coverage_ratio", coverage, "ratio");
    report.metric("trace.overhead_ratio", overhead, "ratio");
    report.metric("partition.repair_calls", first.repair_calls as f64, "count");
    report.metric(
        "partition.repair_changed_ratio",
        host::ratio(first.repair_changed, first.repair_calls),
        "ratio",
    );
    report.metric("sim.fits_calls", first.fits_calls as f64, "count");
    report.metric(
        "sim.fits_reject_ratio",
        host::ratio(first.fits_rejects, first.fits_calls),
        "ratio",
    );
    report.metric(
        "sim.stats_hit_ratio",
        host::ratio(first.stats_hits, first.stats_hits + first.stats_misses),
        "ratio",
    );
    report.metric("sim.stats_derivations", first.stats_misses as f64, "count");
    report.metric(
        "engine.subgraph_scorings",
        first.subgraph_scorings as f64,
        "count",
    );
    report.metric(
        "engine.hit_ratio",
        host::ratio(first.engine_hits, first.engine_evals),
        "ratio",
    );
    report.metric(
        "engine.subgraph_hit_ratio",
        host::ratio(first.subgraph_avoided, first.subgraph_requests),
        "ratio",
    );
    report.metric(
        "engine.dispatched_jobs",
        first.dispatched_jobs as f64,
        "count",
    );
    report.metric("core.snapshot_bytes", first.snapshot_bytes as f64, "bytes");
    report.metric("host.available_parallelism", cpus as f64, "count");
    report.metric("host.parallel_capacity", capacity, "ratio");

    report.lines.push(format!(
        "coverage {:.2}% of traced wall; tracing overhead {:+.2}% over untraced; \
         repairs {} ({} changed), fits {} ({} rejected), engine probes {} ({} hits)",
        100.0 * coverage,
        100.0 * overhead,
        first.repair_calls,
        first.repair_changed,
        first.fits_calls,
        first.fits_rejects,
        first.engine_evals,
        first.engine_hits,
    ));
    report.lines.push(format!(
        "host: available_parallelism {cpus}, measured parallel capacity {capacity:.2} \
         (spins on {cpus} engine workers vs 1)"
    ));
    if coverage < MIN_COVERAGE {
        report.errors.push(format!(
            "layer rows cover {:.2}% of traced wall time, below {:.0}%",
            100.0 * coverage,
            100.0 * MIN_COVERAGE
        ));
    }
    Ok(report)
}
