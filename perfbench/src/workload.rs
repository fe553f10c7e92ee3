//! The workloads: which explorations each one runs, the inputs a
//! workload seed generates, and the checks every returned design passes.

use crate::host::Fnv;
use cocco::engine::EngineConfig;
use cocco::graph::{models, Graph};
use cocco::search::{GaConfig, Objective, SearchMethod};
use cocco::sim::{AcceleratorConfig, EvalOptions, Evaluator};
use cocco::{Cocco, Exploration};
use std::path::{Path, PathBuf};

/// A named workload of the benchmark.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The default GA on the irregular randwire-a graph, no cache file.
    GaRandwireCold,
    /// A small GA on resnet50 against a cache file an identical run filled.
    GaResnet50Warm,
    /// Greedy fusion and depth-DP on every registry model.
    BaselinesZoo,
}

/// `count` GA seeds derived from one workload seed. Each round explores
/// all of them, so a run's figures do not hang on one search trajectory.
fn ga_seeds(seed: u64, count: u64) -> impl Iterator<Item = u64> {
    (0..count).map(move |k| splitmix64(seed ^ splitmix64(k)))
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::GaRandwireCold,
        Workload::GaResnet50Warm,
        Workload::BaselinesZoo,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::GaRandwireCold => "ga-randwire-cold",
            Workload::GaResnet50Warm => "ga-resnet50-warm",
            Workload::BaselinesZoo => "baselines-zoo",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// `true` when every exploration runs against a pre-filled cache file.
    pub fn is_warm(self) -> bool {
        self == Workload::GaResnet50Warm
    }

    /// The explorations one round of this workload runs, generated from
    /// `seed`. Cache files of the warm workload live in `work_dir`.
    pub fn cases(self, seed: u64, work_dir: &Path) -> Vec<Case> {
        match self {
            Workload::GaRandwireCold => ga_seeds(seed, 3)
                .map(|ga_seed| Case {
                    model: "randwire-a",
                    method: SearchMethod::ga().with_seed(ga_seed),
                    budget: 20_000,
                    threads: 2,
                    cache_file: None,
                })
                .collect(),
            // Small snapshots, many seeds: the snapshot parse is quadratic
            // in file size today, so per-seed size differences are
            // amplified; six small searches average them out.
            Workload::GaResnet50Warm => ga_seeds(seed, 6)
                .enumerate()
                .map(|(k, ga_seed)| Case {
                    model: "resnet50",
                    method: SearchMethod::Ga(GaConfig {
                        population: 10,
                        seed: ga_seed,
                        ..GaConfig::default()
                    }),
                    budget: 50,
                    threads: 2,
                    cache_file: Some(work_dir.join(format!("warm-{k}.json"))),
                })
                .collect(),
            // Deterministic methods on fixed inputs: the seed changes nothing.
            Workload::BaselinesZoo => models::registry()
                .iter()
                .flat_map(|&(model, _)| {
                    [SearchMethod::greedy(), SearchMethod::depth_dp()].map(|method| Case {
                        model,
                        method,
                        budget: 50_000,
                        threads: 1,
                        cache_file: None,
                    })
                })
                .collect(),
        }
    }
}

/// SplitMix64 finalizer: spreads consecutive workload seeds apart.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One exploration of a workload: the facade settings that differ from
/// `Cocco::new()`'s defaults. Everything else (accelerator, shared buffer
/// space, Formula-2 objective with α = 0.002, options) is the default.
#[derive(Clone, Debug)]
pub struct Case {
    /// Registry model name.
    pub model: &'static str,
    /// The search method, already seeded.
    pub method: SearchMethod,
    /// Sample budget.
    pub budget: u64,
    /// Engine worker threads.
    pub threads: u32,
    /// Warm-start cache file, if any.
    pub cache_file: Option<PathBuf>,
}

impl Case {
    pub fn label(&self) -> String {
        format!("{}/{}", self.model, self.method.key())
    }

    pub fn engine_config(&self) -> EngineConfig {
        EngineConfig::with_threads(self.threads)
    }

    /// The configured facade session, exactly what `cocco-explore` builds.
    pub fn session(&self) -> Cocco {
        let session = Cocco::new()
            .with_method(self.method.clone())
            .with_budget(self.budget)
            .with_engine(self.engine_config());
        match &self.cache_file {
            Some(path) => session.with_cache_file(path),
            None => session,
        }
    }

    /// Removes this case's cache file, if it has one and it exists.
    pub fn remove_cache_file(&self) -> Result<(), String> {
        match &self.cache_file {
            Some(path) => match std::fs::remove_file(path) {
                Ok(()) => Ok(()),
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
                Err(e) => Err(format!("removing {}: {e}", path.display())),
            },
            None => Ok(()),
        }
    }
}

/// The bit-level identity of an exploration's output.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Signature {
    pub cost_bits: u64,
    pub genome_hash: u64,
    pub trace_hash: u64,
    pub trace_len: usize,
}

impl Signature {
    pub fn cost(&self) -> f64 {
        f64::from_bits(self.cost_bits)
    }
}

/// Hashes a best cost, genome and trace into a [`Signature`].
pub fn signature(
    cost: f64,
    genome: &cocco::search::Genome,
    trace: &[cocco::engine::TracePoint],
) -> Signature {
    let mut g = Fnv::new();
    for &a in genome.partition.assignment() {
        g.word(u64::from(a));
    }
    g.bytes(format!("{:?}", genome.buffer).as_bytes());
    let mut t = Fnv::new();
    for p in trace {
        t.word(p.sample);
        t.word(p.cost.to_bits());
        t.word(p.buffer_bytes);
        t.word(p.metric_value.to_bits());
    }
    Signature {
        cost_bits: cost.to_bits(),
        genome_hash: g.finish(),
        trace_hash: t.finish(),
        trace_len: trace.len(),
    }
}

/// Checks one returned design and returns its signature:
///
/// * the partition passes `Partition::validate`;
/// * the reported cost equals, bit for bit, the Formula-2 cost of an
///   independent `Evaluator::eval_partition` of the returned genome;
/// * the run is not degraded and folded no evaluator errors;
/// * when `warm`, every probe hit and nothing was scored.
pub fn check(warm: bool, graph: &Graph, result: &Exploration) -> Result<Signature, String> {
    result
        .genome
        .partition
        .validate(graph)
        .map_err(|e| format!("invalid partition: {e}"))?;
    let objective = Objective::paper_energy_capacity();
    let alpha = objective
        .alpha
        .ok_or("the default objective lost its alpha")?;
    let report = Evaluator::new(graph, AcceleratorConfig::default())
        .eval_partition(
            &result.genome.partition.subgraphs(),
            &result.genome.buffer,
            EvalOptions::default(),
        )
        .map_err(|e| format!("independent evaluation failed: {e}"))?;
    let recomputed = report.cost_formula2(objective.metric, alpha);
    if recomputed.to_bits() != result.cost.to_bits() || !result.cost.is_finite() {
        return Err(format!(
            "reported cost {:e} differs from the recomputed {:e}",
            result.cost, recomputed
        ));
    }
    if result.is_degraded() || result.infeasible_errors != 0 {
        return Err("degraded run or folded evaluator errors".into());
    }
    if warm
        && (result.stats.cache_hits != result.stats.evals || result.stats.subgraph_scorings != 0)
    {
        return Err(format!(
            "warm run missed the cache: {} hits of {} probes, {} subgraph scorings",
            result.stats.cache_hits, result.stats.evals, result.stats.subgraph_scorings
        ));
    }
    Ok(signature(
        result.cost,
        &result.genome,
        &result.trace.points(),
    ))
}
