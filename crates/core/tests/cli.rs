//! End-to-end tests of the `cocco-explore` binary: registry-driven
//! `--list`, `--method`/`--json` flags, strict numeric parsing and error
//! reporting.

use std::process::Command;

fn explore(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_cocco-explore"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn list_enumerates_the_model_registry() {
    let out = explore(&["--list"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    let listed: Vec<&str> = stdout.lines().collect();
    let registry: Vec<&str> = cocco::graph::models::registry()
        .iter()
        .map(|(name, _)| *name)
        .collect();
    assert_eq!(listed, registry, "--list must mirror models::registry()");
}

#[test]
fn help_and_list_exit_quietly_into_a_closed_pipe() {
    for flag in ["--help", "--list"] {
        // The read end is gone before the binary starts, so its first
        // write to stdout fails with a broken pipe.
        let (reader, writer) = std::io::pipe().unwrap();
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_cocco-explore"))
            .arg(flag)
            .stdout(writer)
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{flag}: {:?}\n{stderr}", out.status);
        assert!(!stderr.contains("panicked"), "{flag}:\n{stderr}");
    }
}

#[test]
fn usage_errors_exit_2_into_a_closed_stderr() {
    for args in [&["bogus-model"][..], &["vgg16", "--method", "bogus"]] {
        // Usage errors are reported on stderr alone; its read end is gone,
        // so that write fails with a broken pipe. A panic would exit 101.
        let (reader, writer) = std::io::pipe().unwrap();
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_cocco-explore"))
            .args(args)
            .stderr(writer)
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
    }
}

#[test]
fn json_output_round_trips_into_result_types() {
    let out = explore(&["vgg16", "--method", "greedy", "--budget", "50", "--json"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();

    // The result types themselves deserialize from the emitted JSON.
    let value: serde_json::Value = serde_json::from_str(&stdout).unwrap();
    let model: String = serde_json::from_value(value.get("model").unwrap()).unwrap();
    assert_eq!(model, "vgg16");
    let method: cocco::search::SearchMethod =
        serde_json::from_value(value.get("method").unwrap()).unwrap();
    assert_eq!(method.key(), "greedy");
    let exploration: cocco::Exploration =
        serde_json::from_value(value.get("exploration").unwrap()).unwrap();
    assert!(exploration.report.fits);
    assert!(exploration.cost.is_finite());
    assert!(exploration
        .genome
        .partition
        .validate(&cocco::graph::models::vgg16())
        .is_ok());
}

#[test]
fn method_flag_selects_the_searcher() {
    let out = explore(&["vgg16", "--method", "dp", "--budget", "50"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("Irregular-NN (DP)"), "{stdout}");

    let bad = explore(&["vgg16", "--method", "bogus"]);
    assert!(!bad.status.success());
    let stderr = String::from_utf8(bad.stderr).unwrap();
    assert!(stderr.contains("unknown method"), "{stderr}");
}

#[test]
fn json_and_dot_are_mutually_exclusive() {
    let out = explore(&["vgg16", "--json", "--dot", "--budget", "10"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("mutually exclusive"), "{stderr}");
}

#[test]
fn out_of_range_cores_are_rejected_not_truncated() {
    // 2^32 + 2 would truncate to 2 under a silent `as u32` cast.
    let out = explore(&["vgg16", "--cores", "4294967298", "--budget", "10"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("bad number"), "{stderr}");
}

#[test]
fn zero_cores_are_rejected_at_parse_time() {
    let out = explore(&["vgg16", "--cores", "0", "--budget", "10"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("cores and batch must be nonzero"),
        "{stderr}"
    );
}

#[test]
fn threads_flag_is_validated_and_reported() {
    let out = explore(&["googlenet", "--budget", "60", "--threads", "2"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("2 threads"), "{stdout}");

    let auto = explore(&["googlenet", "--budget", "60", "--threads", "auto"]);
    assert!(auto.status.success());

    let bad = explore(&["googlenet", "--budget", "10", "--threads", "0"]);
    assert!(!bad.status.success());
    let stderr = String::from_utf8(bad.stderr).unwrap();
    assert!(stderr.contains("--threads"), "{stderr}");
}

#[test]
fn thread_count_does_not_change_results() {
    let run = |threads: &str| {
        let out = explore(&[
            "googlenet",
            "--budget",
            "300",
            "--seed",
            "5",
            "--threads",
            threads,
            "--json",
        ]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8(out.stdout).unwrap();
        let value: serde_json::Value = serde_json::from_str(&stdout).unwrap();
        serde_json::from_value::<cocco::Exploration>(value.get("exploration").unwrap()).unwrap()
    };
    let serial = run("1");
    let parallel = run("4");
    assert_eq!(serial.cost, parallel.cost);
    assert_eq!(serial.genome, parallel.genome);
    assert_eq!(serial.samples, parallel.samples);
}

#[test]
fn unknown_model_reports_the_unified_error() {
    let out = explore(&["alexnet", "--budget", "10"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("unknown model `alexnet`"), "{stderr}");
}

#[test]
fn telemetry_report_prints_byte_histograms_in_bytes() {
    let out = explore(&[
        "googlenet",
        "--budget",
        "60",
        "--threads",
        "2",
        "--telemetry-report",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    let header = stdout
        .lines()
        .find(|line| line.trim_start().starts_with("histograms:"))
        .unwrap_or_else(|| panic!("no histogram header in:\n{stdout}"));
    let columns: Vec<&str> = header.split_whitespace().skip(1).collect();
    assert_eq!(columns, ["count", "mean", "p50", "p90", "p99"], "{header}");
    let row = stdout
        .lines()
        .find(|line| line.trim_start().starts_with("engine.batch.alloc_bytes"))
        .unwrap_or_else(|| panic!("no alloc_bytes row in:\n{stdout}"));
    // name, count, then mean and p50/p90/p99 — each with a byte unit.
    let values: Vec<&str> = row.split_whitespace().skip(2).collect();
    assert_eq!(values.len(), 4, "{row}");
    for value in values {
        assert!(value.ends_with('B'), "`{value}` lacks a byte unit: {row}");
    }
}

#[test]
fn telemetry_report_shows_repair_as_a_share_of_eval() {
    let out = explore(&["googlenet", "--budget", "60", "--telemetry-report"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    let row = stdout
        .lines()
        .find(|line| line.trim_start().starts_with("repair:"))
        .unwrap_or_else(|| panic!("no repair row in:\n{stdout}"));
    assert!(row.contains("% of the eval phase"), "{row}");
    let fits_calls: u64 = row
        .strip_suffix(" fits calls")
        .and_then(|rest| rest.rsplit(' ').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no fits call count in {row}"));
    assert!(fits_calls > 0, "{row}");
    // The driver's own time sits next to repair's in the counters (rows
    // of a name and a value), which print in name order.
    let counters: Vec<(&str, u64)> = stdout
        .lines()
        .filter_map(
            |line| match line.split_whitespace().collect::<Vec<_>>()[..] {
                [name, value] if name.starts_with("search.") && name.ends_with("_ns") => {
                    Some((name, value.parse().ok()?))
                }
                _ => None,
            },
        )
        .collect();
    let names: Vec<&str> = counters.iter().map(|&(name, _)| name).collect();
    assert_eq!(
        names,
        [
            "search.absorb_ns",
            "search.next_batch_ns",
            "search.repair_ns"
        ],
        "{stdout}"
    );
    for (name, value) in counters {
        assert!(value > 0, "{name} is 0 in:\n{stdout}");
    }
}

/// The checkpoint `cocco-explore <model> --method <method>` writes
/// (default accelerator, buffer space, objective, budget and seed) after
/// `steps` driver steps, or once the driver is done, as a JSON tree.
fn checkpoint(
    model: &str,
    method: cocco::prelude::SearchMethod,
    steps: usize,
) -> serde_json::Value {
    use cocco::prelude::*;
    let g = cocco::graph::models::by_name(model).unwrap();
    let eval = Evaluator::new(&g, AcceleratorConfig::default());
    let ctx = SearchContext::new(
        &g,
        &eval,
        BufferSpace::paper_shared(),
        Objective::co_exploration(CostMetric::Energy, 0.002),
        20_000,
    );
    let mut driver = method.driver();
    for _ in 0..steps {
        if !cocco::search::drive_step(&mut *driver, &ctx) {
            break;
        }
    }
    serde_json::to_value(&SearchSnapshot::capture(&method, &*driver, &ctx))
}

/// The depth-DP checkpoint of nasnet after `steps` steps.
fn nasnet_dp_checkpoint(steps: usize) -> serde_json::Value {
    checkpoint("nasnet", cocco::prelude::SearchMethod::depth_dp(), steps)
}

/// The greedy-fusion checkpoint of nasnet after `steps` steps.
fn nasnet_greedy_checkpoint(steps: usize) -> serde_json::Value {
    checkpoint("nasnet", cocco::prelude::SearchMethod::greedy(), steps)
}

/// Field `key` of the JSON object `value`.
fn field_mut<'v>(value: &'v mut serde_json::Value, key: &str) -> &'v mut serde_json::Value {
    let serde_json::Value::Object(fields) = value else {
        panic!("not an object");
    };
    &mut fields.iter_mut().find(|(name, _)| name == key).unwrap().1
}

/// Element `i` of the JSON array `value`.
fn item_mut(value: &mut serde_json::Value, i: usize) -> &mut serde_json::Value {
    let serde_json::Value::Array(items) = value else {
        panic!("not an array");
    };
    &mut items[i]
}

/// The `DepthDp` state inside a checkpoint tree.
fn dp_state(checkpoint: &mut serde_json::Value) -> &mut serde_json::Value {
    field_mut(field_mut(checkpoint, "driver"), "DepthDp")
}

/// The `Greedy` state inside a checkpoint tree.
fn greedy_state(checkpoint: &mut serde_json::Value) -> &mut serde_json::Value {
    field_mut(field_mut(checkpoint, "driver"), "Greedy")
}

/// The `Ga` state inside a checkpoint tree.
fn ga_state(checkpoint: &mut serde_json::Value) -> &mut serde_json::Value {
    field_mut(field_mut(checkpoint, "driver"), "Ga")
}

/// The `Sa` state inside a checkpoint tree.
fn sa_state(checkpoint: &mut serde_json::Value) -> &mut serde_json::Value {
    field_mut(field_mut(checkpoint, "driver"), "Sa")
}

/// The `TwoStep` state inside a checkpoint tree.
fn twostep_state(checkpoint: &mut serde_json::Value) -> &mut serde_json::Value {
    field_mut(field_mut(checkpoint, "driver"), "TwoStep")
}

/// Resumes `checkpoint` with `cocco-explore nasnet --method <method>
/// --json` and asserts the result equals the uninterrupted run's, and
/// that the finished run removed the checkpoint file.
fn assert_resumes_to_the_uninterrupted_result(method: &str, checkpoint: &serde_json::Value) {
    let dir =
        std::env::temp_dir().join(format!("cocco-cli-{method}-resume-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{method}.ckpt"));
    std::fs::write(&path, serde_json::to_string(checkpoint).unwrap()).unwrap();
    let path_arg = path.to_str().unwrap();
    let resumed = explore(&[
        "nasnet",
        "--method",
        method,
        "--json",
        "--checkpoint-file",
        path_arg,
    ]);
    assert!(
        resumed.status.success(),
        "{}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    assert!(!path.exists(), "a finished run removes its checkpoint");
    let plain = explore(&["nasnet", "--method", method, "--json"]);
    assert!(plain.status.success());
    let exploration = |out: &std::process::Output| {
        let value: serde_json::Value =
            serde_json::from_str(&String::from_utf8_lossy(&out.stdout)).unwrap();
        value.get("exploration").unwrap().clone()
    };
    let (resumed, plain) = (exploration(&resumed), exploration(&plain));
    for key in ["cost", "genome", "report", "samples", "trace"] {
        assert_eq!(resumed.get(key), plain.get(key), "{key}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// An edit of a driver state inside a checkpoint tree.
type Mutation = Box<dyn Fn(&mut serde_json::Value)>;

/// Writes each mutated checkpoint, runs `cocco-explore <model> --method
/// <method>` against it and asserts it exits 3, reporting the driver
/// state unusable. `state` picks the driver state out of a checkpoint.
fn assert_unusable_driver_states_exit_3(
    model: &str,
    method: &str,
    state: fn(&mut serde_json::Value) -> &mut serde_json::Value,
    cases: &[(&str, &serde_json::Value, Mutation)],
) {
    let dir = std::env::temp_dir().join(format!("cocco-cli-{method}-bad-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (k, (case, checkpoint, mutate)) in cases.iter().enumerate() {
        let mut checkpoint = (*checkpoint).clone();
        mutate(state(&mut checkpoint));
        let path = dir.join(format!("bad-{k}.ckpt"));
        std::fs::write(&path, serde_json::to_string(&checkpoint).unwrap()).unwrap();
        let out = explore(&[
            model,
            "--method",
            method,
            "--checkpoint-file",
            path.to_str().unwrap(),
        ]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(3), "{case}: {stderr}");
        assert!(stderr.contains("driver state unusable"), "{case}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Cuts the best design's assignment of a finished state to 10 entries.
fn cut_best_design(state: &mut serde_json::Value) {
    let best = field_mut(field_mut(state, "outcome"), "best");
    let serde_json::Value::Array(assignment) =
        field_mut(field_mut(best, "partition"), "assignment")
    else {
        panic!("assignment");
    };
    assignment.truncate(10);
}

#[test]
fn a_mid_run_dp_checkpoint_resumes_to_the_uninterrupted_result() {
    assert_resumes_to_the_uninterrupted_result("dp", &nasnet_dp_checkpoint(240));
}

#[test]
fn a_mid_run_greedy_checkpoint_resumes_to_the_uninterrupted_result() {
    assert_resumes_to_the_uninterrupted_result("greedy", &nasnet_greedy_checkpoint(200));
}

#[test]
fn dp_checkpoints_the_driver_cannot_run_exit_3() {
    use serde_json::Value;
    let valid = nasnet_dp_checkpoint(240);
    let n = cocco::graph::models::nasnet().len();
    // A row the valid table has filled with a finite cost.
    let finite_row = {
        let mut checkpoint = valid.clone();
        let dp = field_mut(dp_state(&mut checkpoint), "dp");
        (1..240)
            .rev()
            .find(|&i| matches!(item_mut(dp, i), Value::F64(_)))
            .unwrap()
    };
    let cases: Vec<(&str, Mutation)> = vec![
        (
            "a table cut to 10 entries",
            Box::new(|state| {
                for key in ["dp", "back"] {
                    let Value::Array(items) = field_mut(state, key) else {
                        panic!("{key}");
                    };
                    items.truncate(10);
                }
            }),
        ),
        (
            "a finished table whose last back-pointer points past its row",
            Box::new(move |state| {
                *field_mut(state, "row") = Value::U64(n as u64 + 1);
                *item_mut(field_mut(state, "dp"), n) = Value::F64(1.0);
                *item_mut(field_mut(state, "back"), n) = Value::U64(n as u64 + 1);
            }),
        ),
        (
            "a row past the table",
            Box::new(|state| *field_mut(state, "row") = Value::U64(1_000_000)),
        ),
        (
            "a finite cost pointing back to its own row",
            Box::new(move |state| {
                *item_mut(field_mut(state, "back"), finite_row) = Value::U64(finite_row as u64);
            }),
        ),
        (
            "a nonzero cost for the empty prefix",
            Box::new(|state| *item_mut(field_mut(state, "dp"), 0) = Value::F64(1.0)),
        ),
    ];
    let finished = nasnet_dp_checkpoint(usize::MAX);
    let cases: Vec<(&str, &Value, Mutation)> = cases
        .into_iter()
        .map(|(case, mutate)| (case, &valid, mutate))
        .chain([(
            "a finished run whose best design covers 10 nodes",
            &finished,
            Box::new(cut_best_design) as Mutation,
        )])
        .collect();
    assert_unusable_driver_states_exit_3("nasnet", "dp", dp_state, &cases);
}

#[test]
fn greedy_checkpoints_the_driver_cannot_run_exit_3() {
    use serde_json::Value;
    let valid = nasnet_greedy_checkpoint(200);
    let finished = nasnet_greedy_checkpoint(usize::MAX);
    let n = cocco::graph::models::nasnet().len();
    let cases: Vec<(&str, &Value, Mutation)> = vec![
        (
            "an assignment cut to 10 entries",
            &valid,
            Box::new(|state| {
                let Value::Array(assignment) = field_mut(state, "assignment") else {
                    panic!("assignment");
                };
                assignment.truncate(10);
            }),
        ),
        (
            "the output layer relabelled into the input layer's subgraph",
            &valid,
            Box::new(move |state| {
                let assignment = field_mut(state, "assignment");
                let input = item_mut(assignment, 0).clone();
                *item_mut(assignment, n - 1) = input;
            }),
        ),
        (
            "a finished run whose best design covers 10 nodes",
            &finished,
            Box::new(cut_best_design),
        ),
    ];
    assert_unusable_driver_states_exit_3("nasnet", "greedy", greedy_state, &cases);
}

#[test]
fn ga_checkpoints_the_driver_cannot_run_exit_3() {
    use serde_json::Value;
    // The seed generation and one evolved generation.
    let valid = checkpoint("googlenet", cocco::prelude::SearchMethod::ga(), 2);
    /// The assignment of the first population member's genome.
    fn first_assignment(state: &mut Value) -> &mut Value {
        let member = item_mut(field_mut(state, "population"), 0);
        field_mut(
            field_mut(field_mut(member, "genome"), "partition"),
            "assignment",
        )
    }
    let cases: Vec<(&str, &Value, Mutation)> = vec![
        (
            "a genome cut one entry short",
            &valid,
            Box::new(|state| {
                let Value::Array(assignment) = first_assignment(state) else {
                    panic!("assignment");
                };
                assignment.pop();
            }),
        ),
        (
            "a genome with a label of 10^9",
            &valid,
            Box::new(|state| *item_mut(first_assignment(state), 1) = Value::U64(1_000_000_000)),
        ),
        (
            "an empty population mid-run",
            &valid,
            Box::new(|state| *field_mut(state, "population") = Value::Array(Vec::new())),
        ),
    ];
    assert_unusable_driver_states_exit_3("googlenet", "ga", ga_state, &cases);
}

#[test]
fn sa_checkpoints_the_driver_cannot_run_exit_3() {
    use serde_json::Value;
    // The random seed state and one annealing step.
    let valid = checkpoint("googlenet", cocco::prelude::SearchMethod::sa(), 2);
    /// The assignment of the current state.
    fn current_assignment(state: &mut Value) -> &mut Value {
        field_mut(
            field_mut(field_mut(state, "current"), "partition"),
            "assignment",
        )
    }
    let cases: Vec<(&str, &Value, Mutation)> = vec![
        (
            "a current state cut one entry short",
            &valid,
            Box::new(|state| {
                let Value::Array(assignment) = current_assignment(state) else {
                    panic!("assignment");
                };
                assignment.pop();
            }),
        ),
        (
            "a current state with a label of 10^9",
            &valid,
            Box::new(|state| *item_mut(current_assignment(state), 1) = Value::U64(1_000_000_000)),
        ),
        (
            "a negative current cost",
            &valid,
            Box::new(|state| *field_mut(state, "current_cost") = Value::F64(-1.0)),
        ),
        (
            "a best design covering 10 nodes",
            &valid,
            Box::new(cut_best_design),
        ),
    ];
    assert_unusable_driver_states_exit_3("googlenet", "sa", sa_state, &cases);
}

#[test]
fn twostep_checkpoints_the_driver_cannot_run_exit_3() {
    use serde_json::Value;
    // Candidate sampling, then the live candidate's seed generation and
    // one evolved generation.
    let valid = checkpoint("googlenet", cocco::prelude::SearchMethod::two_step(), 3);
    /// The assignment of the live inner GA's first population member.
    fn live_assignment(state: &mut Value) -> &mut Value {
        let ga = field_mut(field_mut(state, "live"), "ga");
        let member = item_mut(field_mut(ga, "population"), 0);
        field_mut(
            field_mut(field_mut(member, "genome"), "partition"),
            "assignment",
        )
    }
    let cases: Vec<(&str, &Value, Mutation)> = vec![
        (
            "a live-slot genome cut one entry short",
            &valid,
            Box::new(|state| {
                let Value::Array(assignment) = live_assignment(state) else {
                    panic!("assignment");
                };
                assignment.pop();
            }),
        ),
        (
            "a live-slot genome with a label of 10^9",
            &valid,
            Box::new(|state| *item_mut(live_assignment(state), 1) = Value::U64(1_000_000_000)),
        ),
        (
            "a next candidate past the candidate list",
            &valid,
            Box::new(|state| *field_mut(state, "next_candidate") = Value::U64(1_000_000)),
        ),
    ];
    assert_unusable_driver_states_exit_3("googlenet", "twostep", twostep_state, &cases);
}
