//! Command-line co-exploration driver.
//!
//! ```console
//! $ cocco-explore resnet50 --budget 20000 --space shared --alpha 0.002
//! $ cocco-explore googlenet --method sa --space separate --metric ema --cores 2 --batch 8
//! $ cocco-explore resnet50 --method greedy --json
//! $ cocco-explore --list
//! ```

use cocco::prelude::*;
use std::process::ExitCode;
use std::str::FromStr;

/// The search itself failed: no feasible solution, the method gave up,
/// an internal evaluation error, or a worker panic with nothing salvaged.
const EXIT_SEARCH_FAILED: u8 = 1;
/// Bad invocation: unknown flags/values or an unknown model.
const EXIT_USAGE: u8 = 2;
/// An existing cache or checkpoint file was unusable (I/O or parse), or
/// stdout could not be written.
const EXIT_IO: u8 = 3;
/// Degraded outcome: the run produced a usable result but carries scar
/// tissue — a worker panic with salvaged best-so-far or a failed
/// cache/checkpoint save.
const EXIT_DEGRADED: u8 = 4;

struct Args {
    model: Option<String>,
    budget: u64,
    space: BufferSpace,
    metric: CostMetric,
    alpha: f64,
    seed: u64,
    options: EvalOptions,
    threads: EngineConfig,
    method: SearchMethod,
    cache_file: Option<String>,
    checkpoint_file: Option<String>,
    checkpoint_every: Option<u64>,
    stats_json: Option<String>,
    telemetry_jsonl: Option<String>,
    telemetry_report: bool,
    json: bool,
    list: bool,
    dot: bool,
}

/// The `--help` text after the model list. One literal per line, so each
/// wrapped description keeps its column (a `\` line continuation would
/// strip the next line's leading spaces).
const OPTIONS_AND_EXIT_CODES: &str = concat!(
    "options:\n",
    "  --method <m>       ga | sa | greedy | dp | exhaustive | twostep\n",
    "                     (default ga)\n",
    "  --budget <n>       evaluation samples (default 20000)\n",
    "  --space <s>        shared | separate (default shared)\n",
    "  --metric <m>       energy | ema (default energy)\n",
    "  --alpha <a>        Formula-2 preference factor (default 0.002)\n",
    "  --seed <n>         RNG seed (default 0xC0CC0)\n",
    "  --cores <n>        NPU cores (default 1)\n",
    "  --batch <n>        batch size (default 1)\n",
    "  --threads <n>      threads that run evaluation jobs, this one included,\n",
    "                     or `auto` (default auto); results are identical at\n",
    "                     any thread count\n",
    "  --chunk <n|auto>   jobs handed to a worker per pool dispatch (default\n",
    "                     auto: batch size / (threads * 4)); results are\n",
    "                     identical at any chunk size\n",
    "  --cache-capacity <n>  bound the evaluation cache to <n> partition\n",
    "                     roll-ups (default 16384; generation-sweep\n",
    "                     eviction; results unchanged)\n",
    "  --cache-file <p>   persist the evaluation cache at <p>: repeated\n",
    "                     explorations warm-start from it (results are\n",
    "                     unchanged; entries of other models/accelerator\n",
    "                     configs are kept but never reused); the file is\n",
    "                     rewritten only when a run adds an entry or had to\n",
    "                     salvage or upgrade it\n",
    "  --checkpoint-file <p>  run step-driven and checkpoint the search to <p>;\n",
    "                     an existing snapshot resumes the interrupted run\n",
    "                     bit-identically (removed on completion)\n",
    "  --checkpoint-every <n>  driver steps between checkpoint saves\n",
    "                     (default 16; a GA step is one generation)\n",
    "  --stats-json <p>   write engine stats + metrics + phase profile to <p>\n",
    "                     as JSON (enables telemetry; results unchanged)\n",
    "  --telemetry-jsonl <p>  write every telemetry event to <p>, one JSON\n",
    "                     object per line (enables telemetry)\n",
    "  --telemetry-report print a summary table of counters, latency\n",
    "                     histograms (mean/p50/p90/p99) and per-phase\n",
    "                     wall time (enables telemetry)\n",
    "  --json             print the full exploration result as JSON\n",
    "  --dot              print the partitioned graph in Graphviz DOT\n",
    "  --list             list available models and exit\n",
    "\n",
    "exit codes:\n",
    "  0  success\n",
    "  1  search failed (no feasible solution, method gave up, or a\n",
    "     worker panic with nothing to salvage)\n",
    "  2  usage error (bad flags or unknown model)\n",
    "  3  cache/checkpoint file unusable (I/O or parse failure), or\n",
    "     stdout not writable\n",
    "  4  degraded: a usable result with recovery scars (worker panic\n",
    "     with salvaged best-so-far or a failed cache/checkpoint save)",
);

fn usage() -> String {
    let models: Vec<&str> = cocco::graph::models::registry()
        .iter()
        .map(|(name, _)| *name)
        .collect();
    format!(
        "usage: cocco-explore <model> [options]\n\nmodels: {}\n\n{OPTIONS_AND_EXIT_CODES}",
        models.join(" ")
    )
}

fn parse(mut argv: std::env::Args) -> Result<Args, String> {
    argv.next(); // program name
    let mut args = Args {
        model: None,
        budget: 20_000,
        space: BufferSpace::paper_shared(),
        metric: CostMetric::Energy,
        alpha: 0.002,
        seed: 0xC0CC0,
        options: EvalOptions::default(),
        threads: EngineConfig::auto(),
        method: SearchMethod::default(),
        cache_file: None,
        checkpoint_file: None,
        checkpoint_every: None,
        stats_json: None,
        telemetry_jsonl: None,
        telemetry_report: false,
        json: false,
        list: false,
        dot: false,
    };
    let mut cores: u32 = 1;
    let mut batch: u32 = 1;
    let mut chunk: Option<ChunkSize> = None;
    let mut cache_capacity: Option<usize> = None;
    let next_value =
        |argv: &mut std::env::Args, flag: &str| argv.next().ok_or(format!("{flag} needs a value"));
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--budget" => args.budget = parse_num(&next_value(&mut argv, "--budget")?)?,
            "--seed" => args.seed = parse_num(&next_value(&mut argv, "--seed")?)?,
            "--cores" => cores = parse_num(&next_value(&mut argv, "--cores")?)?,
            "--batch" => batch = parse_num(&next_value(&mut argv, "--batch")?)?,
            "--threads" => {
                let value = next_value(&mut argv, "--threads")?;
                args.threads = match value.as_str() {
                    "auto" => EngineConfig::auto(),
                    n => {
                        let n: u32 = parse_num(n)?;
                        if n == 0 {
                            return Err("--threads must be >= 1 (or `auto`)".to_string());
                        }
                        EngineConfig::with_threads(n)
                    }
                };
            }
            "--alpha" => {
                args.alpha = next_value(&mut argv, "--alpha")?
                    .parse()
                    .map_err(|e| format!("bad --alpha: {e}"))?;
            }
            "--method" => {
                let key = next_value(&mut argv, "--method")?;
                args.method = SearchMethod::parse(&key).ok_or(format!(
                    "unknown method `{key}` \
                     (ga | sa | greedy | dp | exhaustive | twostep)"
                ))?;
            }
            "--checkpoint-file" => {
                args.checkpoint_file = Some(next_value(&mut argv, "--checkpoint-file")?);
            }
            "--checkpoint-every" => {
                args.checkpoint_every =
                    Some(parse_num(&next_value(&mut argv, "--checkpoint-every")?)?);
            }
            "--space" => {
                args.space = match next_value(&mut argv, "--space")?.as_str() {
                    "shared" => BufferSpace::paper_shared(),
                    "separate" => BufferSpace::paper_separate(),
                    other => return Err(format!("unknown space `{other}`")),
                };
            }
            "--metric" => {
                args.metric = match next_value(&mut argv, "--metric")?.as_str() {
                    "energy" => CostMetric::Energy,
                    "ema" => CostMetric::Ema,
                    other => return Err(format!("unknown metric `{other}`")),
                };
            }
            "--chunk" => {
                chunk = Some(match next_value(&mut argv, "--chunk")?.as_str() {
                    "auto" => ChunkSize::Auto,
                    n => {
                        let n: u32 = parse_num(n)?;
                        if n == 0 {
                            return Err("--chunk must be >= 1 (or `auto`)".to_string());
                        }
                        ChunkSize::Fixed(n)
                    }
                });
            }
            "--cache-capacity" => {
                cache_capacity = Some(parse_num(&next_value(&mut argv, "--cache-capacity")?)?);
            }
            "--cache-file" => {
                args.cache_file = Some(next_value(&mut argv, "--cache-file")?);
            }
            "--stats-json" => {
                args.stats_json = Some(next_value(&mut argv, "--stats-json")?);
            }
            "--telemetry-jsonl" => {
                args.telemetry_jsonl = Some(next_value(&mut argv, "--telemetry-jsonl")?);
            }
            "--telemetry-report" => args.telemetry_report = true,
            "--json" => args.json = true,
            "--list" => args.list = true,
            "--dot" => args.dot = true,
            "--help" | "-h" => return Err(String::new()),
            other if args.model.is_none() && !other.starts_with('-') => {
                args.model = Some(other.to_string());
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.json && args.dot {
        return Err("--json and --dot are mutually exclusive (the DOT text would corrupt the JSON document)".to_string());
    }
    args.options =
        EvalOptions::new(cores, batch).map_err(|e| format!("bad --cores/--batch: {e}"))?;
    if let Some(size) = chunk {
        args.threads = args.threads.with_chunk(size);
    }
    if let Some(capacity) = cache_capacity {
        args.threads = args.threads.with_cache_capacity(capacity);
    }
    Ok(args)
}

/// Parses into the flag's exact integer type, so out-of-range values (e.g.
/// `--cores 5000000000`) are rejected instead of silently truncated.
fn parse_num<T: FromStr<Err = std::num::ParseIntError>>(s: &str) -> Result<T, String> {
    s.parse().map_err(|e| format!("bad number `{s}`: {e}"))
}

/// What `--json` prints: the request coordinates plus the full result,
/// round-trippable through `serde_json`.
#[derive(serde::Serialize, serde::Deserialize)]
struct JsonReport {
    model: String,
    method: SearchMethod,
    exploration: Exploration,
}

/// What `--stats-json` writes: the compatibility [`EngineStats`] next to
/// the full metrics registry and per-phase wall-time profile.
#[derive(serde::Serialize, serde::Deserialize)]
struct StatsDump {
    stats: EngineStats,
    metrics: MetricsSnapshot,
    phases: PhaseSnapshot,
    events_dropped: u64,
}

/// Nanoseconds, human-scaled.
fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.2}s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2}ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.1}us", ns / 1e3)
    } else {
        format!("{ns:.0}ns")
    }
}

/// Bytes, human-scaled (binary units).
fn fmt_bytes(bytes: f64) -> String {
    const KIB: f64 = 1024.0;
    if bytes >= KIB * KIB * KIB {
        format!("{:.2}GiB", bytes / (KIB * KIB * KIB))
    } else if bytes >= KIB * KIB {
        format!("{:.2}MiB", bytes / (KIB * KIB))
    } else if bytes >= KIB {
        format!("{:.1}KiB", bytes / KIB)
    } else {
        format!("{bytes:.0}B")
    }
}

/// A histogram value in the unit its metric name ends with: `_ns` as a
/// time, `_bytes` as a size, anything else as a plain number.
fn fmt_metric(name: &str, value: f64) -> String {
    if name.ends_with("_ns") {
        fmt_ns(value)
    } else if name.ends_with("_bytes") {
        fmt_bytes(value)
    } else {
        format!("{value:.0}")
    }
}

/// The `--telemetry-report` summary table.
fn telemetry_report(telemetry: &Telemetry) -> String {
    use std::fmt::Write as _;
    let snap = telemetry.snapshot();
    let phases = telemetry.phases();
    let mut out = String::new();
    let _ = writeln!(out, "telemetry:");
    if !snap.counters.is_empty() {
        let _ = writeln!(out, "  counters:");
        for c in &snap.counters {
            let _ = writeln!(out, "    {:<34} {:>12}", c.name, c.value);
        }
    }
    if !snap.gauges.is_empty() {
        let _ = writeln!(out, "  gauges:");
        for g in &snap.gauges {
            let _ = writeln!(out, "    {:<34} {:>12}", g.name, g.value);
        }
    }
    if !snap.histograms.is_empty() {
        let _ = writeln!(
            out,
            "  histograms:{:>30} {:>9} {:>9} {:>9} {:>9}",
            "count", "mean", "p50", "p90", "p99"
        );
        for h in &snap.histograms {
            let _ = writeln!(
                out,
                "    {:<34} {:>6} {:>9} {:>9} {:>9} {:>9}",
                h.name,
                h.count,
                fmt_metric(&h.name, h.mean()),
                fmt_metric(&h.name, h.p50() as f64),
                fmt_metric(&h.name, h.p90() as f64),
                fmt_metric(&h.name, h.p99() as f64),
            );
        }
    }
    let rows: Vec<String> = phases
        .rows()
        .iter()
        .map(|(name, ms)| format!("{name} {ms:.1}"))
        .collect();
    let _ = writeln!(out, "  phases (ms): {}", rows.join(" | "));
    // Repair runs inside the pool jobs: its time, summed over workers, is
    // a share of the `eval` phase's wall time times the worker count.
    let repair_ns = snap.counter("search.repair_ns") as f64;
    let workers = snap.gauge("engine.threads").max(1);
    let eval_ns = phases.eval_ms * 1e6 * workers as f64;
    let share = if eval_ns > 0.0 {
        100.0 * repair_ns / eval_ns
    } else {
        0.0
    };
    let _ = writeln!(
        out,
        "  repair: {} on {workers} workers, {share:.1}% of the eval phase, {} fits calls",
        fmt_ns(repair_ns),
        snap.counter("sim.fits_calls")
    );
    let _ = writeln!(
        out,
        "  events: {} recorded, {} dropped",
        telemetry.events().len(),
        telemetry.events_dropped(),
    );
    out
}

/// Writes `text` to stdout and returns `code`. A reader that went away
/// (`cocco-explore --help | head`, a closed pipe) is a quiet exit: there
/// is nobody left to tell. Any other write failure is an I/O error.
fn print_stdout(text: &str, code: ExitCode) -> ExitCode {
    use std::io::Write as _;
    let mut stdout = std::io::stdout().lock();
    match stdout
        .write_all(text.as_bytes())
        .and_then(|()| stdout.flush())
    {
        Ok(()) => code,
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => code,
        Err(e) => {
            print_stderr(&format!("error: could not write stdout: {e}\n"));
            ExitCode::from(EXIT_IO)
        }
    }
}

/// Writes `text` to stderr under [`print_stdout`]'s rule: a reader that
/// went away is a quiet exit, never a panic. A write to stderr that fails
/// has no channel left to report on, whatever the failure.
fn print_stderr(text: &str) {
    use std::io::Write as _;
    let mut stderr = std::io::stderr().lock();
    // cocco-audit: allow(R2) stderr is the last channel; a failure to write it cannot be reported
    let _ = stderr
        .write_all(text.as_bytes())
        .and_then(|()| stderr.flush());
}

fn main() -> ExitCode {
    use std::fmt::Write as _;
    let args = match parse(std::env::args()) {
        Ok(a) => a,
        Err(msg) => {
            // An empty message is `--help`: the usage text is the
            // requested output, not an error.
            if msg.is_empty() {
                return print_stdout(&format!("{}\n", usage()), ExitCode::SUCCESS);
            }
            print_stderr(&format!("error: {msg}\n\n{}\n", usage()));
            return ExitCode::from(EXIT_USAGE);
        }
    };
    if args.list {
        let mut names = String::new();
        for (name, _) in cocco::graph::models::registry() {
            let _ = writeln!(names, "{name}");
        }
        return print_stdout(&names, ExitCode::SUCCESS);
    }
    let Some(name) = args.model else {
        print_stderr(&format!("{}\n", usage()));
        return ExitCode::from(EXIT_USAGE);
    };
    let Some(model) = cocco::graph::models::by_name(&name) else {
        print_stderr(&format!("error: {}\n", cocco::Error::UnknownModel { name }));
        return ExitCode::from(EXIT_USAGE);
    };
    let method = args.method.with_seed(args.seed);
    // Telemetry is observation-only: enabling it never changes results.
    let wants_telemetry =
        args.stats_json.is_some() || args.telemetry_jsonl.is_some() || args.telemetry_report;
    let telemetry = if wants_telemetry {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };
    let mut session = Cocco::new()
        .with_space(args.space)
        .with_objective(Objective::co_exploration(args.metric, args.alpha))
        .with_options(args.options)
        .with_engine(args.threads)
        .with_budget(args.budget)
        .with_method(method.clone())
        .with_telemetry(telemetry.clone());
    if let Some(path) = &args.cache_file {
        session = session.with_cache_file(path);
    }
    if let Some(path) = &args.checkpoint_file {
        session = session.with_checkpoint_file(path);
    }
    if let Some(every) = args.checkpoint_every {
        session = session.with_checkpoint_every(every);
    }
    let result = match session.explore(&model) {
        Ok(r) => r,
        Err(e) => {
            print_stderr(&format!("error: {e}\n"));
            let code = match &e {
                cocco::Error::WorkerPanic {
                    salvage: Some(salvage),
                    ..
                } => {
                    print_stderr(&format!(
                        "salvaged best-so-far: cost {:.4e} after {} samples \
                         ({} subgraphs, {} KB buffer)\n",
                        salvage.cost,
                        salvage.samples,
                        salvage.genome.partition.num_subgraphs(),
                        salvage.genome.buffer.total_bytes() >> 10,
                    ));
                    EXIT_DEGRADED
                }
                cocco::Error::CacheFile { .. } | cocco::Error::Checkpoint { .. } => EXIT_IO,
                _ => EXIT_SEARCH_FAILED,
            };
            return ExitCode::from(code);
        }
    };
    // A run that completed with recovery scars (failed saves,
    // quarantine) still prints its result, but exits 4 so
    // harnesses can tell "clean" from "degraded but usable".
    let exit = if result.is_degraded() {
        ExitCode::from(EXIT_DEGRADED)
    } else {
        ExitCode::SUCCESS
    };
    // Telemetry side outputs are best effort: a failed write warns, it
    // never discards a completed exploration.
    if let Some(path) = &args.stats_json {
        let dump = StatsDump {
            stats: result.stats,
            metrics: telemetry.snapshot(),
            phases: telemetry.phases(),
            events_dropped: telemetry.events_dropped(),
        };
        let outcome = serde_json::to_string_pretty(&dump)
            .map_err(|e| e.to_string())
            .and_then(|text| std::fs::write(path, text).map_err(|e| e.to_string()));
        if let Err(e) = outcome {
            print_stderr(&format!(
                "warning: could not write --stats-json {path}: {e}\n"
            ));
        }
    }
    if let Some(path) = &args.telemetry_jsonl {
        let outcome =
            std::fs::File::create(path).and_then(|mut file| telemetry.export_jsonl(&mut file));
        if let Err(e) = outcome {
            print_stderr(&format!(
                "warning: could not write --telemetry-jsonl {path}: {e}\n"
            ));
        }
    }
    if args.telemetry_report && args.json {
        // The JSON document owns stdout; the table goes to stderr.
        print_stderr(&telemetry_report(&telemetry));
    }
    if args.json {
        let report = JsonReport {
            model: model.name().to_string(),
            method,
            exploration: result,
        };
        return match serde_json::to_string_pretty(&report) {
            Ok(text) => print_stdout(&format!("{text}\n"), exit),
            Err(e) => {
                print_stderr(&format!("error: {}\n", cocco::Error::Serde(e)));
                ExitCode::from(EXIT_SEARCH_FAILED)
            }
        };
    }
    let mut out = String::new();
    let _ = writeln!(out, "model: {model}");
    let _ = writeln!(out, "method             : {}", method.name());
    let buffer = match result.genome.buffer {
        BufferConfig::Separate { glb, wgt } => {
            format!("GLB {} KB + WGT {} KB", glb >> 10, wgt >> 10)
        }
        BufferConfig::Shared { total } => format!("{} KB shared", total >> 10),
    };
    let _ = writeln!(out, "recommended buffer : {buffer}");
    let _ = writeln!(
        out,
        "subgraphs          : {}",
        result.genome.partition.num_subgraphs()
    );
    let _ = writeln!(out, "cost (Formula 2)   : {:.4e}", result.cost);
    let _ = writeln!(
        out,
        "EMA                : {:.2} MB",
        result.report.ema_bytes as f64 / (1 << 20) as f64
    );
    let _ = writeln!(
        out,
        "energy             : {:.3} mJ",
        result.report.energy_mj()
    );
    let _ = writeln!(
        out,
        "latency            : {:.3} ms",
        result.report.latency_ms(1.0)
    );
    let _ = writeln!(
        out,
        "avg bandwidth      : {:.2} GB/s",
        result.report.avg_bw_gbps
    );
    let _ = writeln!(out, "samples used       : {}", result.samples);
    let _ = writeln!(
        out,
        "engine             : {} threads, {} evals, {} cache hits ({:.0}%), {:.1} ms",
        result.stats.threads,
        result.stats.evals,
        result.stats.cache_hits,
        result.stats.hit_rate() * 100.0,
        result.stats.wall_ms,
    );
    let _ = writeln!(
        out,
        "subgraph terms     : {} scored",
        result.stats.subgraph_scorings,
    );
    if result.stats.cache_evictions > 0 {
        let _ = writeln!(
            out,
            "cache evictions    : {} roll-ups (bounded cache)",
            result.stats.cache_evictions,
        );
    }
    if let Some(save_error) = &result.cache_save_error {
        print_stderr(&format!(
            "warning            : could not save cache file ({save_error})\n"
        ));
    }
    if let Some(save_error) = &result.checkpoint_save_error {
        print_stderr(&format!(
            "warning            : could not save checkpoint ({save_error})\n"
        ));
    }
    if result.health.faults_seen() > 0 || result.health.recoveries() > 0 {
        let _ = writeln!(
            out,
            "fault recovery     : {} faults seen, {} recoveries ({} refunded samples, \
             {} save retries, {} salvaged entries)",
            result.health.faults_seen(),
            result.health.recoveries(),
            result.health.refunded_samples,
            result.health.save_retries,
            result.health.salvaged_entries,
        );
    }
    if result.infeasible_errors > 0 {
        let _ = writeln!(
            out,
            "warning            : {} evaluator errors were folded into infeasibility",
            result.infeasible_errors
        );
    }
    if !result.completed {
        let _ = writeln!(
            out,
            "note               : method did not complete (limits hit)"
        );
    }
    if args.telemetry_report {
        out.push_str(&telemetry_report(&telemetry));
    }
    if args.dot {
        let partition = &result.genome.partition;
        let _ = writeln!(
            out,
            "{}",
            model.to_dot(|id| Some(partition.subgraph_of(id) as usize))
        );
    }
    print_stdout(&out, exit)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_continuation_lines_keep_their_column() {
        let text = usage();
        let lines: Vec<&str> = text.lines().collect();
        // Each entry's description starts at the column of `first_word`;
        // the entry's wrapped lines must start there too.
        for (entry, first_word) in [
            ("  --cache-file <p>", "persist"),
            ("  1  search failed", "search"),
            ("  3  cache/checkpoint", "cache/checkpoint"),
            ("  4  degraded", "degraded"),
        ] {
            let at = lines
                .iter()
                .position(|line| line.starts_with(entry))
                .unwrap_or_else(|| panic!("no `{entry}` entry in:\n{text}"));
            let column = lines[at].find(first_word).unwrap();
            let next = lines[at + 1];
            let indent = next.len() - next.trim_start().len();
            assert!(indent > 0, "`{entry}` continues flush left: {next:?}");
            assert_eq!(
                indent, column,
                "`{entry}` continues out of column: {next:?}"
            );
        }
    }
}
