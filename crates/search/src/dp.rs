//! Depth-ordered dynamic-programming baseline (Irregular-NN, paper §4.2.3).

use crate::context::SearchContext;
use crate::driver::{DriverState, EvalBatch, SearchDriver, Step};
use crate::genome::Genome;
use crate::outcome::SearchOutcome;
use cocco_graph::{Graph, NodeId};
use cocco_partition::Partition;
use serde::{Deserialize, Serialize};

/// The DP baseline of Zheng et al.: layers are arranged by depth and a
/// classic chain DP assigns *contiguous runs of that order* to subgraphs.
///
/// The contiguity restriction is what the paper criticizes: the search space
/// is constrained, so non-plain structures rarely reach the global optimum,
/// and the state transition depends on a fixed buffer size, so the method
/// cannot co-explore hardware.
///
/// # Examples
///
/// ```
/// use cocco_search::{BufferSpace, Objective, SearchContext, SearchMethod};
/// use cocco_sim::{AcceleratorConfig, BufferConfig, CostMetric, Evaluator};
///
/// let g = cocco_graph::models::chain(5);
/// let eval = Evaluator::new(&g, AcceleratorConfig::default());
/// let ctx = SearchContext::new(
///     &g,
///     &eval,
///     BufferSpace::fixed(BufferConfig::shared(8 << 20)),
///     Objective::partition_only(CostMetric::Ema),
///     0,
/// );
/// let outcome = SearchMethod::depth_dp().run(&ctx);
/// // On a plain chain with a large buffer the DP is optimal: one subgraph.
/// assert_eq!(outcome.best.unwrap().partition.num_subgraphs(), 1);
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct DepthDp {
    /// Longest run of the depth order considered as one subgraph (bounds
    /// the O(N·K) transition count; the region manager caps useful sizes
    /// anyway).
    pub max_run: usize,
}

impl Default for DepthDp {
    fn default() -> Self {
        Self { max_run: 128 }
    }
}

/// The depth order (ties by id) — the "arrange the layers based on their
/// depth" step. Recomputed deterministically from the graph, so it never
/// travels in a snapshot.
fn depth_order(graph: &Graph) -> Vec<usize> {
    let depths = graph.depths();
    let mut order: Vec<usize> = (0..graph.len()).collect();
    order.sort_by_key(|&i| (depths[i], i));
    order
}

/// Serializable state of a [`DpDriver`]: the DP table so far (infinite
/// costs round-trip exactly), back-pointers, and the next row to fill.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DpState {
    dp: Vec<f64>,
    back: Vec<u64>,
    row: u64,
    done: bool,
    outcome: SearchOutcome,
}

impl DpState {
    /// Checks the state against a graph of `graph.len()` = n nodes:
    ///
    /// * a best design found so far is a valid partition of the graph;
    /// * `dp` and `back` both have n + 1 entries, or are both empty at
    ///   row 0 (a table not yet initialized);
    /// * the next row to fill is at most n + 1;
    /// * `dp[0]` is 0;
    /// * every finite `dp[i]` with i ≥ 1 points back to a j = `back[i]`
    ///   below i with a finite `dp[j]`, so reconstruction walks finite
    ///   entries down to 0.
    pub(crate) fn check(&self, graph: &Graph) -> Result<(), String> {
        if let Some(best) = &self.outcome.best {
            best.partition.validate(graph).map_err(|e| {
                format!("depth-DP best design is not a partition of the graph: {e}")
            })?;
        }
        let n = graph.len();
        let (dp, back) = (&self.dp, &self.back);
        if dp.len() != back.len() {
            return Err(format!(
                "depth-DP table has {} costs but {} back-pointers",
                dp.len(),
                back.len()
            ));
        }
        if dp.is_empty() && self.row == 0 {
            return Ok(());
        }
        if dp.len() != n + 1 {
            return Err(format!(
                "depth-DP table has {} rows at row {}; the graph needs {}",
                dp.len(),
                self.row,
                n + 1
            ));
        }
        if self.row > n as u64 + 1 {
            return Err(format!(
                "depth-DP row {} is past the last row {}",
                self.row,
                n + 1
            ));
        }
        if dp[0] != 0.0 {
            return Err(format!("depth-DP cost dp[0] is {}, not 0", dp[0]));
        }
        for i in 1..=n {
            if !dp[i].is_finite() {
                continue;
            }
            let j = back[i];
            if j >= i as u64 || !dp[j as usize].is_finite() {
                return Err(format!(
                    "depth-DP row {i} has a finite cost but points back to {j}, \
                     not to an earlier row with a finite cost"
                ));
            }
        }
        Ok(())
    }
}

/// The depth-ordered chain DP as a step-driven state machine: each step
/// fills one row of the table (`dp[i]` = best cost covering the first `i`
/// nodes of the depth order); the final step reconstructs and scores the
/// run boundaries. Analytic: no step consumes budget.
///
/// Row `i` grows one candidate run `order[j..i]` node by node as `j`
/// walks down. No run member produces the node added next, which is no
/// deeper than any of them, so the run's statistics grow producer-side
/// ([`StatsGrowth`](cocco_sim::StatsGrowth)): each run extends the last
/// by one layer instead of being re-derived. Connectivity is the
/// component count of a union-find over the run instead of a search over
/// it.
#[derive(Debug)]
pub struct DpDriver {
    config: DepthDp,
    dp: Vec<f64>,
    back: Vec<usize>,
    /// Next row to fill (`0` = table not yet initialized).
    row: usize,
    /// The depth order, derived once per driver (deterministic from the
    /// graph, so it never travels in a snapshot; rebuilt lazily on
    /// resume).
    order: Vec<usize>,
    /// The run the current row grows (scratch, never serialized).
    run: Run,
    done: bool,
    outcome: SearchOutcome,
}

impl DpDriver {
    /// A fresh driver under `config`.
    pub fn new(config: DepthDp) -> Self {
        Self {
            config,
            dp: Vec::new(),
            back: Vec::new(),
            row: 0,
            order: Vec::new(),
            run: Run::default(),
            done: false,
            outcome: SearchOutcome::empty(),
        }
    }

    /// Resumes a driver from a serialized state.
    pub fn from_state(config: DepthDp, state: DpState) -> Self {
        Self {
            config,
            dp: state.dp,
            back: state
                .back
                .into_iter()
                .map(|b| usize::try_from(b).unwrap_or(usize::MAX))
                .collect(),
            row: state.row as usize,
            order: Vec::new(),
            run: Run::default(),
            done: state.done,
            outcome: state.outcome,
        }
    }
}

impl SearchDriver for DpDriver {
    fn name(&self) -> &'static str {
        "Irregular-NN (DP)"
    }

    fn next_batch(&mut self, ctx: &SearchContext<'_>) -> Step {
        if self.done {
            return Step::Done;
        }
        let graph = ctx.graph();
        let buffer = ctx.space.baseline_buffer();
        let n = graph.len();
        if self.row == 0 {
            // dp[i]: best cost covering the first i nodes of the order.
            self.dp = vec![f64::INFINITY; n + 1];
            self.back = vec![usize::MAX; n + 1];
            self.dp[0] = 0.0;
            self.row = 1;
            return Step::Continue;
        }
        if self.order.is_empty() {
            self.order = depth_order(graph);
        }
        let order = &self.order;
        if self.row <= n {
            let i = self.row;
            let lo = i.saturating_sub(self.config.max_run);
            // Each run adds a shallower node, which no run member
            // produces, so the statistics grow producer-side.
            let mut grown = ctx.evaluator().grow();
            self.run.clear(n);
            for j in (lo..i).rev() {
                let node = NodeId::from_index(order[j]);
                self.run.push(graph, node);
                grown.push(node);
                if !self.dp[j].is_finite() {
                    continue;
                }
                if !self.run.is_connected() {
                    continue;
                }
                let Some(cost) = ctx.stats_cost(grown.stats(), &buffer) else {
                    // Weights grow monotonically with the run: once a run
                    // stops fitting, longer runs cannot fit either.
                    break;
                };
                if self.dp[j] + cost < self.dp[i] {
                    self.dp[i] = self.dp[j] + cost;
                    self.back[i] = j;
                }
            }
            self.row += 1;
            return Step::Continue;
        }
        // Table complete: reconstruct the run boundaries and score.
        self.done = true;
        if !self.dp[n].is_finite() {
            return Step::Done;
        }
        let mut assignment = vec![0u32; n];
        let mut i = n;
        let mut sg = 0u32;
        let mut cuts = Vec::new();
        while i > 0 {
            let j = self.back[i];
            cuts.push((j, i));
            i = j;
        }
        cuts.reverse();
        for (j, i) in cuts {
            for &k in &order[j..i] {
                assignment[k] = sg;
            }
            sg += 1;
        }
        let mut partition = Partition::from_assignment(assignment);
        partition.canonicalize(graph);
        let cost = ctx.partition_cost(&partition, &buffer);
        self.outcome.consider(&Genome::new(partition, buffer), cost);
        Step::Done
    }

    fn absorb(&mut self, _ctx: &SearchContext<'_>, _batch: EvalBatch) {}

    fn outcome(&self) -> SearchOutcome {
        self.outcome.clone()
    }

    fn state(&self) -> DriverState {
        DriverState::DepthDp(DpState {
            dp: self.dp.clone(),
            back: self.back.iter().map(|&b| b as u64).collect(),
            row: self.row as u64,
            done: self.done,
            outcome: self.outcome.clone(),
        })
    }
}

/// The connectivity of a run of the depth order grown one node at a
/// time: a per-node stamp marking membership in the current run, and a
/// union-find over the members with a component count. The buffers are
/// graph-sized and reused across rows; [`clear`](Run::clear) starts a new
/// run by moving to a fresh stamp.
#[derive(Debug, Default)]
struct Run {
    /// `stamp[v] == epoch` iff node `v` is in the current run.
    stamp: Vec<usize>,
    epoch: usize,
    /// Union-find parents, meaningful for current members only.
    parent: Vec<u32>,
    components: usize,
}

impl Run {
    /// Starts an empty run over a graph of `n` nodes.
    fn clear(&mut self, n: usize) {
        if self.stamp.len() != n {
            self.stamp = vec![0; n];
            self.parent = vec![0; n];
            self.epoch = 0;
        }
        self.epoch += 1;
        self.components = 0;
    }

    /// Adds `node` (not yet a member), joining it to every neighbour
    /// already in the run.
    fn push(&mut self, graph: &Graph, node: NodeId) {
        let v = node.index();
        self.stamp[v] = self.epoch;
        self.parent[v] = v as u32;
        self.components += 1;
        for &u in graph.producers(node).iter().chain(graph.consumers(node)) {
            if self.stamp[u.index()] == self.epoch {
                let (ru, rv) = (self.root(u.index()), self.root(v));
                if ru != rv {
                    self.parent[ru] = rv as u32;
                    self.components -= 1;
                }
            }
        }
    }

    /// The union-find root of member `v` (path halving).
    fn root(&mut self, mut v: usize) -> usize {
        while self.parent[v] as usize != v {
            let grand = self.parent[self.parent[v] as usize];
            self.parent[v] = grand;
            v = grand as usize;
        }
        v
    }

    /// Whether the run is one weakly connected subgraph.
    fn is_connected(&self) -> bool {
        self.components == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::{BufferSpace, Objective};
    use crate::SearchMethod;
    use cocco_sim::{AcceleratorConfig, BufferConfig, CostMetric, Evaluator};

    fn run_on(graph: &cocco_graph::Graph, buffer: BufferConfig) -> SearchOutcome {
        let eval = Evaluator::new(graph, AcceleratorConfig::default());
        let ctx = SearchContext::new(
            graph,
            &eval,
            BufferSpace::fixed(buffer),
            Objective::partition_only(CostMetric::Ema),
            0,
        );
        SearchMethod::depth_dp().run(&ctx)
    }

    #[test]
    fn optimal_on_chains() {
        // For plain chains the contiguity restriction is harmless: DP
        // should find the unfused-weights floor with a big buffer.
        let g = cocco_graph::models::chain(8);
        let out = run_on(&g, BufferConfig::shared(8 << 20));
        let floor = g.total_weight_elements()
            + g.out_elements(g.input_ids()[0])
            + g.out_elements(g.output_ids()[0]);
        assert_eq!(out.best_cost, floor as f64);
    }

    #[test]
    fn result_is_valid_on_branchy_models() {
        for model in ["resnet50", "googlenet", "randwire-a"] {
            let g = cocco_graph::models::by_name(model).unwrap();
            let out = run_on(&g, BufferConfig::separate(1 << 20, 1152 << 10));
            let best = out.best.expect(model);
            assert!(best.partition.validate(&g).is_ok(), "{model}");
        }
    }

    #[test]
    fn subgraphs_are_contiguous_depth_runs() {
        let g = cocco_graph::models::resnet50();
        let out = run_on(&g, BufferConfig::separate(1 << 20, 1152 << 10));
        let best = out.best.unwrap();
        // Depth rank per node.
        let depths = g.depths();
        let mut order: Vec<usize> = (0..g.len()).collect();
        order.sort_by_key(|&i| (depths[i], i));
        let mut rank = vec![0usize; g.len()];
        for (r, &i) in order.iter().enumerate() {
            rank[i] = r;
        }
        for members in best.partition.subgraphs() {
            let mut ranks: Vec<usize> = members.iter().map(|m| rank[m.index()]).collect();
            ranks.sort_unstable();
            assert!(
                ranks.windows(2).all(|w| w[1] == w[0] + 1),
                "non-contiguous run {ranks:?}"
            );
        }
    }

    #[test]
    fn grown_runs_match_the_connectivity_and_statistics_oracles() {
        // Every run the DP can visit under the paper's shared buffer:
        // order[j..i] for each row i, j walking down the max-run window
        // until the first connected run that does not fit. Connected or
        // not, each run's grown statistics (or error) equal a
        // from-scratch derivation of its members, bit for bit.
        let max_run = DepthDp::default().max_run;
        let mut run = Run::default();
        let mut compared = 0usize;
        for &(name, build) in cocco_graph::models::registry() {
            let g = build();
            let eval = Evaluator::new(&g, AcceleratorConfig::default());
            let ctx = SearchContext::new(
                &g,
                &eval,
                BufferSpace::paper_shared(),
                Objective::paper_energy_capacity(),
                0,
            );
            let buffer = ctx.space.baseline_buffer();
            let order = depth_order(&g);
            for i in 1..=g.len() {
                run.clear(g.len());
                let mut grown = eval.grow();
                for j in (i.saturating_sub(max_run)..i).rev() {
                    let node = NodeId::from_index(order[j]);
                    run.push(&g, node);
                    grown.push(node);
                    let mut expected: Vec<NodeId> =
                        order[j..i].iter().map(|&k| NodeId::from_index(k)).collect();
                    expected.sort_unstable();
                    let mut members = grown.members().to_vec();
                    members.reverse();
                    assert_eq!(members, expected, "{name} run {j}..{i}");
                    assert_eq!(
                        run.is_connected(),
                        g.is_connected_subset(&expected),
                        "{name} run {j}..{i}"
                    );
                    let got = grown.stats();
                    let want = eval.subgraph_stats(&expected);
                    assert_eq!(got, want, "{name} run {j}..{i}");
                    if let (Ok(got), Ok(want)) = (&got, &want) {
                        assert_eq!(
                            got.compute_cycles.to_bits(),
                            want.compute_cycles.to_bits(),
                            "{name} run {j}..{i}"
                        );
                    }
                    compared += 1;
                    if run.is_connected() && !ctx.fits(&expected, &buffer) {
                        break;
                    }
                }
            }
        }
        assert!(compared > 10_000, "only {compared} runs compared");
    }

    #[test]
    fn infeasible_when_nothing_fits() {
        let g = cocco_graph::models::chain(3);
        let out = run_on(&g, BufferConfig::shared(16));
        assert!(out.best.is_none());
        assert!(out.best_cost.is_infinite());
    }
}
