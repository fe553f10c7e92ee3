//! Golden corpus: pins seeded search results across commits.
//!
//! Every registry model runs under GA, SA, two-step, greedy and DP with two
//! seeds at a small budget. Each run is reduced to one line: the best
//! cost's bits plus FNV-1a hashes of the best genome, the trace and the
//! sorted cache snapshot (all as JSON). The lines must equal
//! `tests/golden/corpus.txt`.
//!
//! On a mismatch the observed corpus is written to
//! `target/golden/corpus.txt` and the test fails. Blessing a deliberate
//! change means copying that file over the checked-in one and saying why
//! in `CHANGES.md`.

use cocco::prelude::*;
use std::path::PathBuf;

/// Samples per run: small enough that the whole corpus stays well under a
/// minute in a debug build, large enough for several GA generations.
const BUDGET: u64 = 80;

/// Two seeds per method (the deterministic baselines ignore them).
const SEEDS: [u64; 2] = [1, 2];

const HEADER: &str = "# model method seed cost_bits genome_hash trace_hash snapshot_hash\n";

fn methods() -> [(&'static str, SearchMethod); 5] {
    // A small population, so the budget covers several generations and
    // offspring carry parent hints.
    let ga = GaConfig {
        population: 20,
        ..GaConfig::default()
    };
    [
        ("ga", SearchMethod::Ga(ga.clone())),
        ("sa", SearchMethod::sa()),
        // Small per-candidate slices, so the budget covers several
        // capacity candidates.
        (
            "twostep",
            SearchMethod::TwoStep(TwoStep {
                per_candidate: BUDGET / 3,
                ga,
                ..TwoStep::random()
            }),
        ),
        ("greedy", SearchMethod::greedy()),
        ("dp", SearchMethod::depth_dp()),
    ]
}

/// FNV-1a over `bytes`: stable across platforms and toolchains.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn hash_json<T: serde::Serialize>(value: &T) -> u64 {
    fnv1a(
        serde_json::to_string(value)
            .expect("serializable")
            .as_bytes(),
    )
}

/// One corpus line for `model` × `method` × `seed`.
fn run(model: &Graph, key: &str, method: &SearchMethod, seed: u64) -> String {
    let evaluator = Evaluator::new(model, AcceleratorConfig::default());
    let ctx = SearchContext::new(
        model,
        &evaluator,
        BufferSpace::paper_shared(),
        Objective::paper_energy_capacity(),
        BUDGET,
    )
    .with_engine(EngineConfig::with_threads(2));
    let outcome = method.clone().with_seed(seed).run(&ctx);
    format!(
        "{} {key} {seed} {:016x} {:016x} {:016x} {:016x}\n",
        model.name(),
        outcome.best_cost.to_bits(),
        hash_json(&outcome.best),
        hash_json(&ctx.trace().points()),
        hash_json(&ctx.engine().cache().snapshot()),
    )
}

#[test]
fn seeded_runs_match_the_golden_corpus() {
    let mut observed = String::from(HEADER);
    for &(_, build) in cocco::graph::models::registry() {
        let model = build();
        for (key, method) in methods() {
            for seed in SEEDS {
                observed.push_str(&run(&model, key, &method, seed));
            }
        }
    }
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let golden = root.join("golden/corpus.txt");
    let expected = std::fs::read_to_string(&golden).unwrap_or_default();
    if observed == expected {
        return;
    }
    let out_dir = root.join("../target/golden");
    std::fs::create_dir_all(&out_dir).expect("create target/golden");
    let out = out_dir.join("corpus.txt");
    std::fs::write(&out, &observed).expect("write the observed corpus");
    let expected_lines: Vec<&str> = expected.lines().collect();
    let diverged: Vec<&str> = observed
        .lines()
        .filter(|line| !expected_lines.contains(line))
        .collect();
    panic!(
        "{} corpus line(s) differ from {}; observed corpus written to {}:\n{}",
        diverged.len(),
        golden.display(),
        out.display(),
        diverged.join("\n")
    );
}
