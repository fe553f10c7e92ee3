//! Shared method drivers for the co-exploration experiments (Tables 1-3,
//! Figures 12-14): fixed-HW, two-step and co-optimization schemes, all
//! following the paper's procedure — explore first, then run a
//! partition-only refinement at the chosen configuration to obtain the
//! final cost (§5.3.1).

use cocco::prelude::*;

/// One experiment setting shared by every method of a table row.
#[derive(Clone, Copy)]
pub struct ExperimentCfg<'a> {
    /// The workload.
    pub model: &'a Graph,
    /// Shared evaluator for the workload.
    pub evaluator: &'a Evaluator<'a>,
    /// Cost metric `M` (energy for Tables 1-3).
    pub metric: CostMetric,
    /// Formula-2 preference factor α.
    pub alpha: f64,
    /// Exploration sample budget per method.
    pub budget: u64,
    /// Refinement sample budget (partition-only, at the chosen config).
    pub refine_budget: u64,
    /// GA population.
    pub population: usize,
    /// Core/batch options.
    pub options: EvalOptions,
    /// Base RNG seed.
    pub seed: u64,
}

/// Result of one method on one workload.
#[derive(Clone, Debug)]
pub struct MethodResult {
    /// The chosen buffer configuration.
    pub buffer: BufferConfig,
    /// Final Formula-2 cost after refinement.
    pub cost: f64,
    /// The refined partition.
    pub partition: Option<Partition>,
    /// Exploration samples consumed.
    pub samples: u64,
}

/// Which co-optimization engine to use.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum CoOptEngine {
    /// Simulated annealing (baseline).
    Sa,
    /// Cocco's genetic algorithm.
    Cocco,
}

impl ExperimentCfg<'_> {
    fn objective(&self) -> Objective {
        Objective::co_exploration(self.metric, self.alpha)
    }

    /// The GA at the experiment's population and base seed.
    fn ga(&self) -> SearchMethod {
        SearchMethod::Ga(GaConfig {
            population: self.population,
            ..GaConfig::default()
        })
        .with_seed(self.seed)
    }

    /// Runs the partition-only refinement at `buffer` (optionally warm-
    /// started) and returns the Formula-2 cost.
    fn refine(&self, buffer: BufferConfig, warm: Option<Partition>) -> MethodResult {
        let ctx = SearchContext::new(
            self.model,
            self.evaluator,
            BufferSpace::fixed(buffer),
            Objective::partition_only(self.metric),
            self.refine_budget,
        )
        .with_options(self.options);
        let outcome = SearchMethod::Ga(GaConfig {
            population: self.population,
            initial: warm.into_iter().collect(),
            ..GaConfig::default()
        })
        .with_seed(self.seed ^ 0x5eed)
        .run(&ctx);
        MethodResult {
            buffer,
            cost: buffer.total_bytes() as f64 + self.alpha * outcome.best_cost,
            partition: outcome.best.map(|g| g.partition),
            samples: outcome.samples,
        }
    }

    /// The fixed-HW scheme: partition-only search at a fixed buffer.
    pub fn fixed_hw(&self, buffer: BufferConfig) -> MethodResult {
        let ctx = SearchContext::new(
            self.model,
            self.evaluator,
            BufferSpace::fixed(buffer),
            Objective::partition_only(self.metric),
            self.budget,
        )
        .with_options(self.options);
        let outcome = self.ga().run(&ctx);
        let mut refined = self.refine(buffer, outcome.best.map(|g| g.partition));
        refined.samples += outcome.samples;
        refined
    }

    /// A co-optimization scheme (SA or Cocco) over `space`.
    pub fn co_opt(&self, engine: CoOptEngine, space: BufferSpace) -> MethodResult {
        let ctx = SearchContext::new(
            self.model,
            self.evaluator,
            space,
            self.objective(),
            self.budget,
        )
        .with_options(self.options);
        let outcome = match engine {
            CoOptEngine::Sa => SearchMethod::sa().with_seed(self.seed).run(&ctx),
            CoOptEngine::Cocco => self.ga().run(&ctx),
        };
        match outcome.best {
            Some(genome) => {
                let mut refined = self.refine(genome.buffer, Some(genome.partition));
                refined.samples += outcome.samples;
                refined
            }
            None => MethodResult {
                buffer: space.grid()[0],
                cost: f64::INFINITY,
                partition: None,
                samples: outcome.samples,
            },
        }
    }

    /// A two-step scheme (RS+GA or GS+GA) over `space`.
    pub fn two_step(&self, sampling: CapacitySampling, space: BufferSpace) -> MethodResult {
        let ctx = SearchContext::new(
            self.model,
            self.evaluator,
            space,
            self.objective(),
            self.budget,
        )
        .with_options(self.options);
        let config = match sampling {
            CapacitySampling::Random => TwoStep::random(),
            CapacitySampling::Grid => TwoStep::grid(),
        }
        .with_per_candidate((self.budget / 10).max(1));
        let outcome = SearchMethod::TwoStep(config).with_seed(self.seed).run(&ctx);
        match outcome.best {
            Some(genome) => {
                let mut refined = self.refine(genome.buffer, Some(genome.partition));
                refined.samples += outcome.samples;
                refined
            }
            None => MethodResult {
                buffer: space.grid()[0],
                cost: f64::INFINITY,
                partition: None,
                samples: outcome.samples,
            },
        }
    }
}

/// Formats a buffer configuration like the paper's tables.
pub fn buffer_label(buffer: BufferConfig) -> (String, String) {
    match buffer {
        BufferConfig::Separate { glb, wgt } => {
            (format!("{}KB", glb >> 10), format!("{}KB", wgt >> 10))
        }
        BufferConfig::Shared { total } => (format!("{}KB", total >> 10), "-".to_string()),
    }
}

/// The paper's fixed configurations for Table 1 (separate) — S, M, L.
pub fn fixed_separate() -> [(&'static str, BufferConfig); 3] {
    [
        ("Buf(S)", BufferConfig::separate(512 << 10, 576 << 10)),
        ("Buf(M)", BufferConfig::separate(1024 << 10, 1152 << 10)),
        ("Buf(L)", BufferConfig::separate(2048 << 10, 2304 << 10)),
    ]
}

/// The paper's fixed configurations for Table 2 (shared) — S, M, L.
pub fn fixed_shared() -> [(&'static str, BufferConfig); 3] {
    [
        ("Buf(S)", BufferConfig::shared(576 << 10)),
        ("Buf(M)", BufferConfig::shared(1152 << 10)),
        ("Buf(L)", BufferConfig::shared(2304 << 10)),
    ]
}

/// The four workloads of Tables 1-3 and Figures 13-14.
pub const TABLE_MODELS: [&str; 4] = ["resnet50", "googlenet", "randwire-a", "nasnet"];
