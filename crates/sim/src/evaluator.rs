//! The partition evaluator: cached per-subgraph statistics plus the
//! energy/latency/bandwidth roll-up.

use crate::config::{AcceleratorConfig, BufferConfig, EvalOptions};
use crate::cost::SubgraphStats;
use crate::error::SimError;
use crate::report::{PartitionReport, SubgraphReport};
use cocco_graph::{EdgeReq, FpCache, Graph, LayerOp, NodeId, NodeSetFp};
use cocco_mem::footprint::node_footprint;
use cocco_telemetry::{Histogram, Stopwatch, Telemetry};
use cocco_tiling::{NodeTiling, RateProof, TilingError, TilingGrowth};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Evaluates partitions of one computation graph on one accelerator
/// configuration, caching the buffer-independent per-subgraph statistics.
///
/// The evaluator is `Sync`: a genetic population can be scored from several
/// threads against one shared instance.
///
/// # Examples
///
/// ```
/// use cocco_sim::{AcceleratorConfig, BufferConfig, CostMetric, Evaluator};
///
/// let g = cocco_graph::models::chain(4);
/// let eval = Evaluator::new(&g, AcceleratorConfig::default());
/// // Layer-by-layer execution: one subgraph per node.
/// let per_layer: Vec<Vec<_>> = g.node_ids().map(|id| vec![id]).collect();
/// let report = eval
///     .eval_partition(&per_layer, &BufferConfig::shared(1 << 20), Default::default())
///     .unwrap();
/// assert!(report.cost_formula1(CostMetric::Ema) > 0.0);
/// ```
#[derive(Debug)]
pub struct Evaluator<'g> {
    graph: &'g Graph,
    config: AcceleratorConfig,
    // Per-node precomputation (indexed by NodeId).
    weight_bytes: Vec<u64>,
    out_bytes: Vec<u64>,
    macs: Vec<u64>,
    cycles: Vec<f64>,
    is_input: Vec<bool>,
    fingerprint: u64,
    /// Member-set fingerprint → statistics. Keyed by the same 128-bit
    /// [`NodeSetFp`] the engine caches key on, so a probe neither
    /// allocates a key vector nor re-hashes the member list. Bounded to
    /// [`DEFAULT_STATS_CAPACITY`](Self::DEFAULT_STATS_CAPACITY) entries by
    /// the cache's generation sweeps, so a long exploration keeps its
    /// working set while stale subgraphs are shed. Workers that miss the
    /// same entry together derive it once.
    cache: FpCache<NodeSetFp, SubgraphStats>,
    /// The graph's stage-3 rate proof, made by the first statistics
    /// derived or grown (a run that only hits never pays for it).
    rate_proof: OnceLock<RateProof>,
    /// Fresh statistics derivations.
    stats_derivations: AtomicU64,
    /// Statistics read from a [`StatsGrowth`].
    stats_grown: AtomicU64,
    /// Derivations and grown statistics that could not prove stage 3
    /// consistent and ran its rate propagation. 0 on every registry model
    /// in production; `tests/tests/work_pins.rs` asserts it.
    stats_rate_fallbacks: AtomicU64,
    /// Misses whose member list arrived out of ascending order and had to
    /// be sorted into a temporary before derivation. Every production
    /// path (arena layouts, `Partition::subgraphs`) produces ascending
    /// members by construction, so this counts a slow path the tests
    /// assert never fires; debug builds additionally assert.
    stats_canon_fallbacks: AtomicU64,
    /// Fresh-derivation latency (`sim.subgraph_stats_ns`), recorded only
    /// on the miss path — the cached hit path (the engine's 47 ns leaf)
    /// never touches telemetry. `None` when telemetry is disabled.
    stats_latency: Option<Histogram>,
}

impl<'g> Evaluator<'g> {
    /// Creates an evaluator for `graph` under `config`.
    pub fn new(graph: &'g Graph, config: AcceleratorConfig) -> Self {
        let n = graph.len();
        let mut weight_bytes = Vec::with_capacity(n);
        let mut out_bytes = Vec::with_capacity(n);
        let mut macs = Vec::with_capacity(n);
        let mut cycles = Vec::with_capacity(n);
        let mut is_input = Vec::with_capacity(n);
        let peak = config.peak_macs_per_cycle() as f64;
        for (id, node) in graph.iter() {
            weight_bytes.push(graph.weight_elements(id) * config.elem_bytes);
            out_bytes.push(graph.out_elements(id) * config.elem_bytes);
            macs.push(graph.macs(id));
            let util = utilization(graph, id, &config).max(1e-6);
            cycles.push(graph.macs(id) as f64 / (peak * util));
            is_input.push(node.op().is_input());
        }
        // Identity of (graph, accelerator) for external memoization keys:
        // the serialized configuration plus the graph's name and
        // per-node precomputation totals.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |w: u64| {
            h ^= w;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        for b in graph.name().bytes() {
            mix(u64::from(b));
        }
        for b in format!("{config:?}").bytes() {
            mix(u64::from(b));
        }
        mix(n as u64);
        mix(weight_bytes.iter().sum());
        mix(out_bytes.iter().sum());
        mix(macs.iter().sum());
        Self {
            graph,
            config,
            weight_bytes,
            out_bytes,
            macs,
            cycles,
            is_input,
            fingerprint: h,
            cache: FpCache::with_capacity(Self::DEFAULT_STATS_CAPACITY),
            rate_proof: OnceLock::new(),
            stats_derivations: AtomicU64::new(0),
            stats_grown: AtomicU64::new(0),
            stats_rate_fallbacks: AtomicU64::new(0),
            stats_canon_fallbacks: AtomicU64::new(0),
            stats_latency: None,
        }
    }

    /// Records the latency of every fresh subgraph-statistics derivation
    /// (the stats-cache miss path) into `telemetry`'s
    /// `sim.subgraph_stats_ns` histogram. Observation-only: derived
    /// statistics, caching and eviction are bit-identical with or
    /// without it, and the cached hit path is untouched.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: &Telemetry) -> Self {
        self.stats_latency = telemetry.latency_histogram("sim.subgraph_stats_ns");
        self
    }

    /// Default bound on cached per-subgraph statistics entries: ~100 B per
    /// entry, so the default caps the cache's residency at tens of
    /// megabytes while staying far above what a 50k-sample exploration of
    /// one model touches.
    pub const DEFAULT_STATS_CAPACITY: usize = 1 << 18;

    /// A stable identity of this evaluator's `(graph, accelerator config)`
    /// pair, for callers that memoize evaluations across evaluators (two
    /// different models or platforms virtually never collide).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The evaluated graph.
    pub fn graph(&self) -> &'g Graph {
        self.graph
    }

    /// The accelerator configuration.
    pub fn config(&self) -> &AcceleratorConfig {
        &self.config
    }

    /// Statistics-cache lookups answered from the cache.
    pub fn stats_cache_hits(&self) -> u64 {
        self.cache.hits()
    }

    /// Statistics-cache lookups that found no entry. A lookup that waits
    /// for another worker's derivation of the same entry counts here too.
    pub fn stats_cache_misses(&self) -> u64 {
        self.cache.misses()
    }

    /// Fresh statistics derivations: one per missed entry, however many
    /// workers missed it together.
    pub fn stats_derivations(&self) -> u64 {
        self.stats_derivations.load(Ordering::Relaxed)
    }

    /// Statistics read from grown subgraphs ([`StatsGrowth::stats`]).
    pub fn stats_grown(&self) -> u64 {
        self.stats_grown.load(Ordering::Relaxed)
    }

    /// Derivations and grown statistics that ran stage 3's rate
    /// propagation because they could not prove it consistent (see
    /// [`TilingGrowth::check_rates`]).
    pub fn stats_rate_fallbacks(&self) -> u64 {
        self.stats_rate_fallbacks.load(Ordering::Relaxed)
    }

    /// Statistics-cache entries dropped by generation sweeps (0 while the
    /// cache stays under its capacity).
    pub fn stats_cache_evictions(&self) -> u64 {
        self.cache.evictions()
    }

    /// Statistics misses that had to canonicalize (sort a copy of) an
    /// out-of-order member list before derivation. 0 on every production
    /// path — `tests/tests/determinism.rs` asserts it via
    /// `EngineStats::stats_canonicalize_fallbacks`, and
    /// `tests/tests/work_pins.rs` on greedy fusion and depth-DP.
    pub fn stats_canonicalize_fallbacks(&self) -> u64 {
        self.stats_canon_fallbacks.load(Ordering::Relaxed)
    }

    /// Buffer-independent statistics of the subgraph `members` (sorted or
    /// unsorted; the result is cached under the order-independent member
    /// fingerprint).
    ///
    /// # Errors
    ///
    /// Returns an error if `members` is empty, has duplicates or references
    /// nodes outside the graph.
    pub fn subgraph_stats(&self, members: &[NodeId]) -> Result<SubgraphStats, SimError> {
        self.subgraph_stats_keyed(NodeSetFp::of_members(members), members)
    }

    /// [`subgraph_stats`](Self::subgraph_stats) with the member-set
    /// fingerprint already in hand (the engine precomputes it per
    /// subgraph), so a cache hit costs one map probe — no key allocation,
    /// no member sort, no re-hash.
    pub fn subgraph_stats_keyed(
        &self,
        fp: NodeSetFp,
        members: &[NodeId],
    ) -> Result<SubgraphStats, SimError> {
        debug_assert_eq!(fp, NodeSetFp::of_members(members), "stale fingerprint");
        self.cache
            .get_or_try_insert_with(fp, || self.derive_stats(members))
    }

    /// One fresh derivation of a missed entry, timed when telemetry is on.
    fn derive_stats(&self, members: &[NodeId]) -> Result<SubgraphStats, SimError> {
        self.stats_derivations.fetch_add(1, Ordering::Relaxed);
        let derivation = self.stats_latency.as_ref().map(|_| Stopwatch::start());
        // The derivation expects members in ascending (topological)
        // order. Every production caller guarantees it by construction —
        // `Partition::subgraphs` and arena layouts both emit ascending
        // members — so the sort below is a counted slow path kept only for
        // order-agnostic external callers. Debug builds assert it never
        // fires; the tests assert the counter stays 0.
        let stats = if members.windows(2).all(|w| w[0] < w[1]) {
            self.compute_stats(members)?
        } else {
            debug_assert!(
                members.windows(2).all(|w| w[0] != w[1]),
                "duplicate members reach the canonicalize fallback"
            );
            self.stats_canon_fallbacks.fetch_add(1, Ordering::Relaxed);
            let mut sorted = members.to_vec();
            sorted.sort_unstable();
            self.compute_stats(&sorted)?
        };
        if let (Some(hist), Some(sw)) = (&self.stats_latency, derivation) {
            hist.record(sw.elapsed_nanos());
        }
        Ok(stats)
    }

    /// Derives the statistics of the ascending member list `members` from
    /// scratch: one [`grow`](Self::grow) over the set in descending id
    /// order.
    fn compute_stats(&self, members: &[NodeId]) -> Result<SubgraphStats, SimError> {
        let mut growth = self.grow();
        growth.tiling.validate(members)?;
        for &m in members.iter().rev() {
            growth.push(m);
        }
        growth.derive()
    }

    /// An empty subgraph whose statistics grow producer-side, one node at
    /// a time: see [`StatsGrowth`]. Grown statistics bypass the statistics
    /// cache and count in [`stats_grown`](Self::stats_grown), not in
    /// [`stats_derivations`](Self::stats_derivations).
    ///
    /// # Examples
    ///
    /// ```
    /// use cocco_sim::{AcceleratorConfig, Evaluator};
    ///
    /// let g = cocco_graph::models::chain(4);
    /// let eval = Evaluator::new(&g, AcceleratorConfig::default());
    /// let ids: Vec<_> = g.node_ids().collect();
    /// let mut growth = eval.grow();
    /// // Consumers first: the last layer, then the last two, ...
    /// for k in (1..ids.len()).rev() {
    ///     growth.push(ids[k]);
    ///     let grown = growth.stats().unwrap();
    ///     assert_eq!(grown, eval.subgraph_stats(&ids[k..]).unwrap());
    /// }
    /// assert_eq!(eval.stats_grown(), 4);
    /// ```
    pub fn grow(&self) -> StatsGrowth<'_, 'g> {
        StatsGrowth {
            eval: self,
            tiling: TilingGrowth::new(self.graph, self.config.mapper),
            boundary: Vec::new(),
            sum: Terms::default(),
        }
    }

    /// The terms a covered node (member or boundary producer) with tiling
    /// `s` adds: its buffer regions, its boundary-input load, its pass
    /// through the global buffer, its multi-core halo and its
    /// weight-stationary weight re-reads.
    fn covered_terms(&self, id: NodeId, s: &NodeTiling) -> Terms {
        let graph = self.graph;
        let elem = self.config.elem_bytes;
        let i = id.index();
        let footprint = node_footprint(graph, id, s, elem);
        let mut t = Terms {
            act_footprint: footprint.total(),
            regions: footprint.regions(),
            // Every covered tensor streams through the global buffer once.
            glb: self.out_bytes[i],
            ..Terms::default()
        };
        // Boundary inputs are exactly the distinct outside producers.
        if s.boundary_input {
            t.ema_in = self.out_bytes[i];
        }
        if s.interior_consumed {
            let shape = graph.node(id).out_shape();
            t.halo = u64::from(s.overlap_rows()) * u64::from(shape.w) * u64::from(shape.c) * elem;
        }
        // Weight-stationary tiling re-reads a layer's weights once per
        // tile of its own output.
        if !s.boundary_input && self.weight_bytes[i] > 0 {
            let shape = graph.node(id).out_shape();
            let tiles = u64::from(shape.h.div_ceil(s.delta.h.max(1)))
                * u64::from(shape.w.div_ceil(s.delta.w.max(1)));
            t.wgt_access = self.weight_bytes[i].saturating_mul(tiles.max(1));
        }
        t
    }

    /// Minimal weight residency of the lone layer `m`: it streams its
    /// weights one output-channel slice (mac_cols wide) at a time.
    fn single_layer_residency(&self, m: NodeId) -> u64 {
        let graph = self.graph;
        let slice = match graph.node(m).op() {
            LayerOp::Conv { kernel, c_out } => {
                let c_in = graph.in_shapes(m).first().map_or(0, |s| u64::from(s.c));
                let per_out = kernel.size.area() * c_in * self.config.elem_bytes;
                per_out * u64::from((*c_out).min(self.config.mac_cols))
            }
            _ => self.weight_bytes[m.index()],
        };
        slice.min(self.weight_bytes[m.index()])
    }

    /// Scores one subgraph under a buffer configuration — the pure
    /// per-subgraph term of the cost model.
    ///
    /// `next_wgt` is the weight footprint (in DRAM bytes) of the subgraph
    /// that executes next, prefetched during this subgraph's execution; it
    /// is the **only** cross-subgraph coupling of the model, made an
    /// explicit input so the term is a pure function of
    /// `(stats, next_wgt, buffer, options)` and can be memoized at subgraph
    /// granularity. Pass `0` for the last subgraph of a partition (or a
    /// standalone subgraph).
    pub fn eval_subgraph(
        &self,
        stats: &SubgraphStats,
        next_wgt: u64,
        buffer: &BufferConfig,
        options: EvalOptions,
    ) -> SubgraphReport {
        let cores = u64::from(options.cores());
        let batch = u64::from(options.batch());
        let energy = &self.config.energy;
        let (glb_cap, wgt_cap) = match buffer {
            BufferConfig::Separate { glb, wgt } => (*glb, *wgt),
            BufferConfig::Shared { total } => (*total, *total),
        };
        let e_glb = energy.sram_pj_per_byte(glb_cap);
        let e_wgt = energy.sram_pj_per_byte(wgt_cap);

        // Per-core weight shard (multi-core weight sharing); single
        // layers fall back to streamed weights.
        let wgt_per_core = stats.wgt_resident_bytes.div_ceil(cores);
        let fits = buffer.fits(stats.act_footprint_bytes, wgt_per_core)
            && stats.regions <= self.config.max_regions;

        // DRAM traffic: weights once per subgraph (batch reuse);
        // activations per sample; halo re-fetch per extra core.
        let halo = stats.halo_bytes_per_cut * (cores - 1) * batch;
        let ema = stats.ema_wgt_bytes + stats.ema_act_bytes() * batch + halo;

        // Energy. With weights sharded 1/n per core and rotated
        // (Tangram-BSD style), (n−1)/n of every weight-buffer read
        // crosses the interconnect.
        let crossbar_bytes = if cores > 1 {
            stats.wgt_access_bytes * batch * (cores - 1) / cores
        } else {
            0
        };
        let energy_pj = ema as f64 * energy.dram_pj_per_byte
            + (stats.glb_access_bytes * batch) as f64 * e_glb
            + (stats.wgt_access_bytes * batch) as f64 * e_wgt
            + (stats.macs * batch) as f64 * energy.mac_pj
            + crossbar_bytes as f64 * energy.crossbar_pj_per_byte;

        // Latency: compute parallelized over cores; DRAM over the
        // aggregate per-core links.
        let compute = stats.compute_cycles * batch as f64 / cores as f64;
        let dram = ema as f64 / (self.config.dram_bytes_per_cycle() * cores as f64);
        let latency = compute.max(dram).max(1.0);

        // Bandwidth requirement: prefetch of the next subgraph's
        // weights plus this subgraph's boundary activations.
        let bw_bytes_per_cycle = (next_wgt + stats.ema_act_bytes() * batch + halo) as f64 / latency;

        SubgraphReport {
            index: 0,
            stats: *stats,
            ema_bytes: ema,
            energy_pj,
            latency_cycles: latency,
            bw_bytes_per_cycle,
            fits,
        }
    }

    /// Evaluates an ordered partition under a buffer configuration.
    ///
    /// Each subgraph is scored by [`eval_subgraph`](Self::eval_subgraph)
    /// (its `next_wgt` input taken from the successor's statistics) and the
    /// terms are rolled up with [`PartitionReport::from_parts`] — the same
    /// in-order fold the engine performs from cached statistics, so both
    /// paths are bit-identical by construction.
    ///
    /// Subgraphs whose footprints exceed the buffers (or whose region count
    /// exceeds the region manager) are flagged in
    /// [`PartitionReport::oversized`]; the report's cost functions then
    /// return infinity so optimizers reject or repair the genome.
    ///
    /// # Errors
    ///
    /// Returns an error for structurally invalid inputs (empty subgraphs,
    /// duplicate nodes, unknown ids) — conditions a well-formed search
    /// never produces. Zero cores/batch cannot reach this function:
    /// [`EvalOptions`] validates them at construction.
    pub fn eval_partition(
        &self,
        subgraphs: &[Vec<NodeId>],
        buffer: &BufferConfig,
        options: EvalOptions,
    ) -> Result<PartitionReport, SimError> {
        if subgraphs.is_empty() {
            return Err(SimError::EmptySubgraph { index: 0 });
        }
        let mut all_stats = Vec::with_capacity(subgraphs.len());
        for (index, members) in subgraphs.iter().enumerate() {
            if members.is_empty() {
                return Err(SimError::EmptySubgraph { index });
            }
            all_stats.push(self.subgraph_stats(members)?);
        }
        let parts: Vec<SubgraphReport> = all_stats
            .iter()
            .enumerate()
            .map(|(index, stats)| {
                let next_wgt = all_stats.get(index + 1).map_or(0, |s| s.ema_wgt_bytes);
                self.eval_subgraph(stats, next_wgt, buffer, options)
            })
            .collect();
        Ok(PartitionReport::from_parts(
            parts,
            *buffer,
            self.config.freq_ghz,
        ))
    }
}

/// The statistics of one subgraph grown producer-side: created by
/// [`Evaluator::grow`], extended by [`push`](Self::push) and read by
/// [`stats`](Self::stats) at any point.
///
/// **Contract:** a node is pushed only after every member that consumes
/// it (descending id or depth order; see [`TilingGrowth`]). A pushed
/// member's tiling and terms are then final, so each push adds that
/// member's terms once, and only boundary producers a new consumer joined
/// are re-tiled, their terms replaced by difference. The `u64` sums are
/// exact in any order, so grown statistics equal a from-scratch
/// [`Evaluator::subgraph_stats`] of the same members bit for bit; the one
/// `f64` sum, `compute_cycles`, is re-summed in ascending member order.
#[derive(Debug)]
pub struct StatsGrowth<'e, 'g> {
    eval: &'e Evaluator<'g>,
    tiling: TilingGrowth<'g>,
    /// The terms each boundary entry contributes to `sum`, by entry index
    /// (zero for members and for entries not yet tiled).
    boundary: Vec<Terms>,
    /// Every member's and boundary entry's terms.
    sum: Terms,
}

impl StatsGrowth<'_, '_> {
    /// Adds `node`: in the graph, not yet a member, and consumed by no
    /// member pushed later.
    pub fn push(&mut self, node: NodeId) {
        let eval = self.eval;
        let graph = eval.graph;
        let at = self.tiling.push(node);
        if let Some(old) = self.boundary.get_mut(at) {
            // It was a boundary producer: its boundary terms go.
            self.sum.sub(old);
            *old = Terms::default();
        }
        let i = node.index();
        let mut t = eval.covered_terms(node, self.tiling.entry(at).1);
        t.ema_wgt = eval.weight_bytes[i];
        t.macs = eval.macs[i];
        // Model-input loads.
        if eval.is_input[i] {
            t.ema_in += eval.out_bytes[i];
        }
        // Boundary outputs: every member consumer is already in.
        let consumers = graph.consumers(node);
        if consumers.is_empty() || consumers.iter().any(|&c| !self.tiling.is_member(c)) {
            t.ema_out = eval.out_bytes[i];
        }
        // The window reads of each distinct producer's tensor.
        let producers = graph.producers(node);
        for (k, &p) in producers.iter().enumerate() {
            if producers[..k].contains(&p) {
                continue;
            }
            let reuse = match graph.edge_req(p, node) {
                EdgeReq::Sliding(k) => {
                    let rh = f64::from(k.size.h) / f64::from(k.stride.h.max(1));
                    let rw = f64::from(k.size.w) / f64::from(k.stride.w.max(1));
                    (rh * rw).max(1.0)
                }
                EdgeReq::Full => f64::from(graph.node(node).out_shape().h).max(1.0),
            };
            t.glb += (eval.out_bytes[p.index()] as f64 * reuse) as u64;
        }
        self.sum.add(&t);
    }

    /// The members, in descending id order.
    pub fn members(&self) -> &[NodeId] {
        self.tiling.members()
    }

    /// The statistics of the current member set, counted in
    /// [`Evaluator::stats_grown`].
    ///
    /// # Errors
    ///
    /// The errors [`Evaluator::subgraph_stats`] returns for the same
    /// members: an empty set, or stage 3's inconsistent rates.
    pub fn stats(&mut self) -> Result<SubgraphStats, SimError> {
        self.eval.stats_grown.fetch_add(1, Ordering::Relaxed);
        self.derive()
    }

    /// Re-tiles the stale boundary producers, decides stage 3 and sums up.
    fn derive(&mut self) -> Result<SubgraphStats, SimError> {
        let eval = self.eval;
        let Self {
            tiling,
            boundary,
            sum,
            ..
        } = self;
        if tiling.is_empty() {
            return Err(TilingError::EmptySubgraph.into());
        }
        boundary.resize(tiling.len(), Terms::default());
        tiling.settle(|b, id, s| {
            let new = eval.covered_terms(id, s);
            sum.sub(&boundary[b]);
            sum.add(&new);
            boundary[b] = new;
        });
        let proof = eval.rate_proof.get_or_init(|| RateProof::of(eval.graph));
        let rates = tiling.check_rates(proof);
        // Only stage 3's propagation reports inconsistent rates.
        let propagated = match &rates {
            Ok(propagated) => *propagated,
            Err(e) => matches!(e, TilingError::InconsistentRates { .. }),
        };
        if propagated {
            eval.stats_rate_fallbacks.fetch_add(1, Ordering::Relaxed);
        }
        rates?;
        let members = tiling.members();
        // The f64 sum in ascending member order.
        let compute_cycles = members
            .iter()
            .rev()
            .fold(0.0, |acc, m| acc + eval.cycles[m.index()]);
        // The weight footprint is exactly the members' weights; a lone
        // layer needs only one slice of them resident.
        let wgt_resident_bytes = match members {
            [m] => eval.single_layer_residency(*m),
            _ => sum.ema_wgt,
        };
        Ok(SubgraphStats {
            ema_wgt_bytes: sum.ema_wgt,
            ema_in_bytes: sum.ema_in,
            ema_out_bytes: sum.ema_out,
            macs: sum.macs,
            glb_access_bytes: sum.glb,
            wgt_access_bytes: sum.wgt_access,
            act_footprint_bytes: sum.act_footprint,
            wgt_footprint_bytes: sum.ema_wgt,
            wgt_resident_bytes,
            regions: sum.regions,
            compute_cycles,
            halo_bytes_per_cut: sum.halo,
        })
    }
}

/// The integer terms of [`SubgraphStats`] that covered nodes add up.
/// Sums wrap like release-build `+=`, so adding and removing terms by
/// difference is exact in any order.
#[derive(Copy, Clone, Debug, Default)]
struct Terms {
    ema_wgt: u64,
    ema_in: u64,
    ema_out: u64,
    macs: u64,
    glb: u64,
    wgt_access: u64,
    act_footprint: u64,
    regions: usize,
    halo: u64,
}

impl Terms {
    fn add(&mut self, t: &Terms) {
        self.ema_wgt = self.ema_wgt.wrapping_add(t.ema_wgt);
        self.ema_in = self.ema_in.wrapping_add(t.ema_in);
        self.ema_out = self.ema_out.wrapping_add(t.ema_out);
        self.macs = self.macs.wrapping_add(t.macs);
        self.glb = self.glb.wrapping_add(t.glb);
        self.wgt_access = self.wgt_access.wrapping_add(t.wgt_access);
        self.act_footprint = self.act_footprint.wrapping_add(t.act_footprint);
        self.regions = self.regions.wrapping_add(t.regions);
        self.halo = self.halo.wrapping_add(t.halo);
    }

    fn sub(&mut self, t: &Terms) {
        self.ema_wgt = self.ema_wgt.wrapping_sub(t.ema_wgt);
        self.ema_in = self.ema_in.wrapping_sub(t.ema_in);
        self.ema_out = self.ema_out.wrapping_sub(t.ema_out);
        self.macs = self.macs.wrapping_sub(t.macs);
        self.glb = self.glb.wrapping_sub(t.glb);
        self.wgt_access = self.wgt_access.wrapping_sub(t.wgt_access);
        self.act_footprint = self.act_footprint.wrapping_sub(t.act_footprint);
        self.regions = self.regions.wrapping_sub(t.regions);
        self.halo = self.halo.wrapping_sub(t.halo);
    }
}

/// PE-array utilization of one layer on the configured core.
///
/// Input channels map to the per-PE MAC rows, output channels to the MAC
/// columns and spatial positions to the PE array; depth-wise layers cannot
/// exploit the input-channel lanes (the classic reason separable
/// convolutions run at low utilization on dense arrays).
fn utilization(graph: &Graph, id: NodeId, config: &AcceleratorConfig) -> f64 {
    let node = graph.node(id);
    let out = node.out_shape();
    let lanes_in = u64::from(config.mac_rows);
    let lanes_out = u64::from(config.mac_cols);
    let pes = u64::from(config.pe_rows) * u64::from(config.pe_cols);
    let eff = |n: u64, k: u64| -> f64 {
        if n == 0 {
            1.0
        } else {
            n as f64 / (n.div_ceil(k) * k) as f64
        }
    };
    let spatial = u64::from(out.h) * u64::from(out.w);
    match node.op() {
        LayerOp::Input | LayerOp::Concat => 1.0,
        LayerOp::Conv { c_out, .. } => {
            let c_in = graph.in_shapes(id).first().map_or(1, |s| u64::from(s.c));
            eff(c_in, lanes_in) * eff(u64::from(*c_out), lanes_out) * eff(spatial, pes)
        }
        LayerOp::DepthwiseConv { .. }
        | LayerOp::Pool { .. }
        | LayerOp::GlobalPool
        | LayerOp::Eltwise => {
            // One input channel per output: the input-channel lanes idle.
            (1.0 / lanes_in as f64) * eff(u64::from(out.c), lanes_out) * eff(spatial, pes)
        }
        LayerOp::MatMul { rhs_transposed } => {
            let shapes = graph.in_shapes(id);
            let k = shapes.first().map_or(1, |s| u64::from(s.c));
            let n = shapes.get(1).map_or(1, |s| {
                if *rhs_transposed {
                    u64::from(s.h)
                } else {
                    u64::from(s.c)
                }
            });
            let m = u64::from(out.h);
            eff(k, lanes_in) * eff(n, lanes_out) * eff(m, pes)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostMetric;
    use cocco_mem::footprint::subgraph_footprint;
    use cocco_tiling::derive_scheme;

    fn per_layer(g: &Graph) -> Vec<Vec<NodeId>> {
        g.node_ids().map(|id| vec![id]).collect()
    }

    fn whole(g: &Graph) -> Vec<Vec<NodeId>> {
        vec![g.node_ids().collect()]
    }

    /// The statistics pass the scheme-driven `compute_stats` replaced, kept
    /// verbatim (graph-sized membership vectors, a `Vec` per member) as the
    /// oracle the property test compares against.
    fn reference_stats(
        eval: &Evaluator<'_>,
        members: &[NodeId],
    ) -> Result<SubgraphStats, SimError> {
        let graph = eval.graph;
        let elem = eval.config.elem_bytes;
        let scheme = derive_scheme(graph, members, &eval.config.mapper)?;
        let fp = subgraph_footprint(graph, members, &scheme, elem);

        let mut member = vec![false; graph.len()];
        for &m in members {
            member[m.index()] = true;
        }

        let mut stats = SubgraphStats {
            act_footprint_bytes: fp.activation_bytes,
            wgt_footprint_bytes: fp.weight_bytes,
            regions: fp.regions,
            ..Default::default()
        };
        // Minimal weight residency: a lone layer streams weights one
        // output-channel slice (mac_cols wide) at a time.
        stats.wgt_resident_bytes = if members.len() == 1 {
            let m = members[0];
            let slice = match graph.node(m).op() {
                LayerOp::Conv { kernel, c_out } => {
                    let c_in = graph.in_shapes(m).first().map_or(0, |s| u64::from(s.c));
                    let per_out = kernel.size.area() * c_in * elem;
                    per_out * u64::from((*c_out).min(eval.config.mac_cols))
                }
                _ => eval.weight_bytes[m.index()],
            };
            slice.min(eval.weight_bytes[m.index()])
        } else {
            fp.weight_bytes
        };

        // Members: weights, compute, model-input loads, boundary outputs.
        for &m in members {
            let i = m.index();
            stats.ema_wgt_bytes += eval.weight_bytes[i];
            stats.macs += eval.macs[i];
            stats.compute_cycles += eval.cycles[i];
            if eval.is_input[i] {
                stats.ema_in_bytes += eval.out_bytes[i];
            }
            let consumers = graph.consumers(m);
            if consumers.is_empty() || consumers.iter().any(|c| !member[c.index()]) {
                stats.ema_out_bytes += eval.out_bytes[i];
            }
        }

        // Boundary inputs: distinct producers outside the member set.
        let mut counted = vec![false; graph.len()];
        for &m in members {
            for &p in graph.producers(m) {
                if !member[p.index()] && !counted[p.index()] {
                    counted[p.index()] = true;
                    stats.ema_in_bytes += eval.out_bytes[p.index()];
                }
            }
        }

        // On-chip traffic and multi-core halo, from the execution scheme.
        for (id, s) in scheme.iter() {
            let s = &s.tiling;
            // Every covered tensor streams through the global buffer once.
            stats.glb_access_bytes += eval.out_bytes[id.index()];
            if s.interior_consumed {
                let shape = graph.node(id).out_shape();
                stats.halo_bytes_per_cut +=
                    u64::from(s.overlap_rows()) * u64::from(shape.w) * u64::from(shape.c) * elem;
            }
            // Weight-stationary tiling re-reads a layer's weights once per
            // tile of its own output.
            if member[id.index()] && eval.weight_bytes[id.index()] > 0 {
                let shape = graph.node(id).out_shape();
                let tiles = u64::from(shape.h.div_ceil(s.delta.h.max(1)))
                    * u64::from(shape.w.div_ceil(s.delta.w.max(1)));
                stats.wgt_access_bytes +=
                    eval.weight_bytes[id.index()].saturating_mul(tiles.max(1));
            }
        }
        for &v in members {
            let mut producers: Vec<NodeId> = graph.producers(v).to_vec();
            producers.sort_unstable();
            producers.dedup();
            for p in producers {
                let reuse = match graph.edge_req(p, v) {
                    EdgeReq::Sliding(k) => {
                        let rh = f64::from(k.size.h) / f64::from(k.stride.h.max(1));
                        let rw = f64::from(k.size.w) / f64::from(k.stride.w.max(1));
                        (rh * rw).max(1.0)
                    }
                    EdgeReq::Full => f64::from(graph.node(v).out_shape().h).max(1.0),
                };
                stats.glb_access_bytes += (eval.out_bytes[p.index()] as f64 * reuse) as u64;
            }
        }
        Ok(stats)
    }

    /// Member lists on `g`: connected and depth groups at several `L`,
    /// seeded random subsets (sorted and shuffled), each with a duplicate
    /// and with an out-of-range id, plus the empty list.
    fn member_families(g: &Graph, seed: u64) -> Vec<Vec<NodeId>> {
        use cocco_partition::Partition;
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let z = (state ^ (state >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let n = g.len();
        let mut sets: Vec<Vec<NodeId>> = vec![Vec::new(), g.node_ids().collect()];
        for l in [1, 2, 3, 5, 8, 13, 21, 1000] {
            sets.extend(Partition::connected_groups(g, l).subgraphs());
            sets.extend(Partition::depth_groups(g, l).subgraphs());
        }
        for round in 0..40 {
            let size = 1 + (next() % (n as u64).min(40)) as usize;
            let mut set: Vec<NodeId> = (0..size)
                .map(|_| NodeId::from_index((next() % n as u64) as usize))
                .collect();
            set.sort_unstable();
            set.dedup();
            sets.push(set.clone());
            for i in (1..set.len()).rev() {
                set.swap(i, (next() % (i as u64 + 1)) as usize);
            }
            sets.push(set.clone());
            let at = (next() % (set.len() as u64 + 1)) as usize;
            let mut dup = set.clone();
            dup.insert(at, set[round % set.len()]);
            sets.push(dup);
            set.insert(at, NodeId::from_index(n + round));
            sets.push(set);
        }
        sets
    }

    #[test]
    fn scheme_driven_stats_match_the_reference() {
        let mut checked = 0usize;
        for (name, build) in cocco_graph::models::registry() {
            let g = build();
            let eval = Evaluator::new(&g, AcceleratorConfig::default());
            for members in member_families(&g, name.len() as u64) {
                let mut sorted = members.clone();
                sorted.sort_unstable();
                let want = reference_stats(&eval, &sorted);
                // Duplicates never reach `subgraph_stats` (debug builds
                // assert it), so they go straight to the pass.
                let distinct = sorted.windows(2).all(|w| w[0] < w[1]);
                let got = if distinct {
                    eval.subgraph_stats(&members)
                } else {
                    eval.compute_stats(&sorted)
                };
                assert_eq!(got, want, "{name}: members {members:?}");
                if let (Ok(got), Ok(want)) = (got, want) {
                    assert_eq!(
                        got.compute_cycles.to_bits(),
                        want.compute_cycles.to_bits(),
                        "{name}: members {members:?}"
                    );
                }
                checked += 1;
            }
        }
        assert!(checked > 5_000, "only {checked} member sets checked");
    }

    /// Two paths from one input into an eltwise whose stride products
    /// differ (1 vs 2) while their output extents agree: no consistent
    /// update rate exists.
    fn skew() -> Graph {
        use cocco_graph::{Dims2, GraphBuilder, Kernel, TensorShape};
        let mut b = GraphBuilder::new("skew");
        let i = b.input(TensorShape::new(32, 32, 4));
        let wide = LayerOp::Conv {
            kernel: Kernel::new(Dims2::square(17), Dims2::square(1), Dims2::square(0)),
            c_out: 4,
        };
        let a = b.add("a", wide, &[i]).unwrap();
        let s2 = b.conv("s2", i, 4, Kernel::square_same(3, 2)).unwrap();
        b.eltwise("e", &[a, s2]).unwrap();
        b.finish().unwrap()
    }

    /// A chain of 63 layers of height stride 2: consistent, but past the
    /// rate proof's bound. The input is tall enough, and the width stride
    /// 1, that sets of the first layers stay exact, so stage 3 must run.
    fn deep_stride() -> Graph {
        use cocco_graph::{Dims2, GraphBuilder, Kernel, TensorShape};
        let mut b = GraphBuilder::new("deep-stride");
        let mut x = b.input(TensorShape::new(1 << 31, 1, 1));
        let halve = LayerOp::Conv {
            kernel: Kernel::new(Dims2::new(3, 1), Dims2::new(2, 1), Dims2::new(1, 0)),
            c_out: 1,
        };
        for i in 0..63 {
            x = b.add(format!("s{i}"), halve.clone(), &[x]).unwrap();
        }
        b.finish().unwrap()
    }

    /// Seeded random connected member sets of `g`, ascending: each grown
    /// from a random node by random neighbours.
    fn connected_sets(g: &Graph, seed: u64, count: usize) -> Vec<Vec<NodeId>> {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let z = (state ^ (state >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let n = g.len();
        (0..count)
            .map(|_| {
                let size = 1 + (next() % (n as u64).min(48)) as usize;
                let mut set = vec![NodeId::from_index((next() % n as u64) as usize)];
                for _ in 0..4 * size {
                    if set.len() == size {
                        break;
                    }
                    let at = set[(next() % set.len() as u64) as usize];
                    let neighbours: Vec<NodeId> = g
                        .producers(at)
                        .iter()
                        .chain(g.consumers(at))
                        .copied()
                        .filter(|v| !set.contains(v))
                        .collect();
                    if !neighbours.is_empty() {
                        set.push(neighbours[(next() % neighbours.len() as u64) as usize]);
                    }
                }
                set.sort_unstable();
                set
            })
            .collect()
    }

    #[test]
    fn grown_statistics_match_from_scratch_derivations() {
        // Each set is pushed in descending id order; after every push the
        // grown statistics (or error) equal a from-scratch derivation of
        // the members so far, bit for bit, and both ran stage 3's
        // propagation on the same sets.
        let tile_1x1 = AcceleratorConfig {
            mapper: cocco_tiling::Mapper::new(cocco_tiling::MapperPolicy::Tile {
                rows: 1,
                cols: 1,
            }),
            ..AcceleratorConfig::default()
        };
        let mut cases: Vec<(String, Graph, AcceleratorConfig)> = cocco_graph::models::registry()
            .iter()
            .map(|(name, build)| (name.to_string(), build(), AcceleratorConfig::default()))
            .collect();
        cases.push(("skew".into(), skew(), tile_1x1.clone()));
        cases.push(("deep-stride".into(), deep_stride(), tile_1x1));
        let (mut compared, mut errors) = (0u64, 0usize);
        for (k, (name, g, config)) in cases.iter().enumerate() {
            let compared_before = compared;
            let grown_eval = Evaluator::new(g, config.clone());
            let scratch_eval = Evaluator::new(g, config.clone());
            let mut sets = connected_sets(g, 0x6e0e ^ k as u64, 40);
            sets.push(g.node_ids().collect());
            for set in sets {
                let mut growth = grown_eval.grow();
                for (pushed, &m) in set.iter().rev().enumerate() {
                    growth.push(m);
                    let members = &set[set.len() - 1 - pushed..];
                    let got = growth.stats();
                    let want = scratch_eval.compute_stats(members);
                    assert_eq!(got, want, "{name}: members {members:?}");
                    if let (Ok(got), Ok(want)) = (&got, &want) {
                        assert_eq!(
                            got.compute_cycles.to_bits(),
                            want.compute_cycles.to_bits(),
                            "{name}: members {members:?}"
                        );
                    }
                    compared += 1;
                    errors += usize::from(want.is_err());
                }
            }
            assert_eq!(
                grown_eval.stats_rate_fallbacks(),
                scratch_eval.stats_rate_fallbacks(),
                "{name}"
            );
            assert_eq!(
                grown_eval.stats_grown(),
                compared - compared_before,
                "{name}"
            );
            assert_eq!(grown_eval.stats_derivations(), 0, "{name}");
            if name == "skew" || name == "deep-stride" {
                // Stage 3 must run on these graphs: the proof declines.
                assert!(grown_eval.stats_rate_fallbacks() > 0, "{name}");
            }
        }
        assert!(compared > 5_000, "only {compared} sets compared");
        assert!(errors > 0, "no set reached an inconsistent rate system");
    }

    #[test]
    fn subgraph_footprint_totals_equal_the_stats_footprint() {
        // One footprint formula: the per-node breakdown and the
        // evaluator's sum agree on every valid member set.
        for (name, build) in cocco_graph::models::registry() {
            let g = build();
            let config = AcceleratorConfig::default();
            let eval = Evaluator::new(&g, config.clone());
            for members in member_families(&g, 7) {
                let Ok(scheme) = derive_scheme(&g, &members, &config.mapper) else {
                    continue;
                };
                let stats = eval.subgraph_stats(&members).unwrap();
                let fp = subgraph_footprint(&g, &members, &scheme, config.elem_bytes);
                assert_eq!(fp.activation_bytes, stats.act_footprint_bytes, "{name}");
                assert_eq!(fp.weight_bytes, stats.wgt_footprint_bytes, "{name}");
                assert_eq!(fp.regions, stats.regions, "{name}");
            }
        }
    }

    #[test]
    fn fusion_reduces_ema() {
        let g = cocco_graph::models::chain(6);
        let eval = Evaluator::new(&g, AcceleratorConfig::default());
        let buf = BufferConfig::shared(4 << 20);
        let split = eval
            .eval_partition(&per_layer(&g), &buf, EvalOptions::default())
            .unwrap();
        let fused = eval
            .eval_partition(&whole(&g), &buf, EvalOptions::default())
            .unwrap();
        assert!(fused.ema_bytes < split.ema_bytes);
        // Both must still move at least weights + model input + output.
        let floor = g.total_weight_elements()
            + g.out_elements(g.input_ids()[0])
            + g.out_elements(g.output_ids()[0]);
        assert!(fused.ema_bytes >= floor);
        assert_eq!(fused.ema_bytes, floor);
    }

    #[test]
    fn ema_floor_for_single_subgraph() {
        // EMA of the whole-graph subgraph = weights + inputs + outputs.
        let g = cocco_graph::models::diamond();
        let eval = Evaluator::new(&g, AcceleratorConfig::default());
        let stats = eval
            .subgraph_stats(&g.node_ids().collect::<Vec<_>>())
            .unwrap();
        assert_eq!(stats.ema_wgt_bytes, g.total_weight_elements());
        assert_eq!(stats.ema_in_bytes, g.out_elements(g.input_ids()[0]));
        assert_eq!(stats.ema_out_bytes, g.out_elements(g.output_ids()[0]));
    }

    #[test]
    fn multi_consumer_tensor_counted_once() {
        // diamond: node a feeds both branches; splitting after a must load
        // a's tensor once per consuming subgraph, not per consumer edge.
        let g = cocco_graph::models::diamond();
        let ids: Vec<NodeId> = g.node_ids().collect();
        let eval = Evaluator::new(&g, AcceleratorConfig::default());
        // Subgraph {l, r, add}: a is a single boundary input.
        let stats = eval.subgraph_stats(&ids[2..=4]).unwrap();
        assert_eq!(stats.ema_in_bytes, g.out_elements(ids[1]));
    }

    #[test]
    fn cache_hits_are_stable() {
        let g = cocco_graph::models::diamond();
        let eval = Evaluator::new(&g, AcceleratorConfig::default());
        let members: Vec<NodeId> = g.node_ids().collect();
        let a = eval.subgraph_stats(&members).unwrap();
        let b = eval.subgraph_stats(&members).unwrap();
        assert_eq!(a, b);
        assert_eq!(eval.cache.len(), 1);
        // Different order, same set: still one cache entry.
        let mut rev = members.clone();
        rev.reverse();
        let c = eval.subgraph_stats(&rev).unwrap();
        assert_eq!(a, c);
        assert_eq!(eval.cache.len(), 1);
    }

    #[test]
    fn stats_cache_is_bounded_and_exact() {
        let g = cocco_graph::models::googlenet();
        let mut bounded = Evaluator::new(&g, AcceleratorConfig::default());
        bounded.cache = FpCache::with_capacity(64);
        let unbounded = Evaluator::new(&g, AcceleratorConfig::default());
        let ids: Vec<NodeId> = g.node_ids().collect();
        // Flood with many distinct member sets (singletons, pairs,
        // triples), then re-probe: entries stay bounded, sweeps are
        // counted, and every answer matches the unbounded evaluator's.
        for pass in 0..2 {
            for window in [1usize, 2, 3] {
                for chunk in ids.chunks(window) {
                    if !g.is_connected_subset(chunk) {
                        continue;
                    }
                    let a = bounded.subgraph_stats(chunk).unwrap();
                    let b = unbounded.subgraph_stats(chunk).unwrap();
                    assert_eq!(a, b, "pass {pass}: eviction changed statistics");
                }
            }
        }
        assert!(
            bounded.cache.len() <= 64,
            "stats cache exceeded its budget: {}",
            bounded.cache.len()
        );
        assert!(
            bounded.cache.evictions() > 0,
            "the tiny budget must have swept"
        );
        assert!(bounded.stats_cache_hits() > 0 || bounded.stats_cache_misses() > 0);
        // A hot entry touched between sweeps survives them.
        let hot: Vec<NodeId> = ids[..2].to_vec();
        bounded.subgraph_stats(&hot).unwrap();
        let miss_before = bounded.stats_cache_misses();
        for chunk in ids.chunks(1) {
            bounded.subgraph_stats(&hot).unwrap();
            bounded.subgraph_stats(chunk).unwrap();
        }
        let hot_probe_misses = bounded.stats_cache_misses() - miss_before;
        // The hot set itself never misses again (all new misses come from
        // the singleton flood).
        assert!(
            hot_probe_misses <= ids.len() as u64,
            "hot entry was evicted between touches"
        );
    }

    #[test]
    fn oversized_subgraphs_flagged() {
        let g = cocco_graph::models::chain(5);
        let eval = Evaluator::new(&g, AcceleratorConfig::default());
        let tiny = BufferConfig::shared(256); // far too small
        let report = eval
            .eval_partition(&whole(&g), &tiny, EvalOptions::default())
            .unwrap();
        assert!(!report.fits);
        assert_eq!(report.oversized, vec![0]);
        assert!(report.cost_formula1(CostMetric::Ema).is_infinite());
    }

    #[test]
    fn batch_amortizes_weight_loads() {
        let g = cocco_graph::models::chain(4);
        let eval = Evaluator::new(&g, AcceleratorConfig::default());
        let buf = BufferConfig::shared(4 << 20);
        let b1 = eval
            .eval_partition(&whole(&g), &buf, EvalOptions::with_batch(1))
            .unwrap();
        let b8 = eval
            .eval_partition(&whole(&g), &buf, EvalOptions::with_batch(8))
            .unwrap();
        // Weights load once: EMA grows sub-linearly with batch.
        assert!(b8.ema_bytes < 8 * b1.ema_bytes);
        assert!(b8.ema_bytes > b1.ema_bytes);
        // Latency also sub-linear (weight transfer amortized).
        assert!(b8.latency_cycles <= 8.0 * b1.latency_cycles);
    }

    #[test]
    fn multicore_speeds_up_but_costs_energy() {
        let g = cocco_graph::models::resnet50();
        let eval = Evaluator::new(&g, AcceleratorConfig::default());
        let buf = BufferConfig::shared(4 << 20);
        let parts = depth_pairs(&g);
        let c1 = eval
            .eval_partition(&parts, &buf, EvalOptions::with_cores(1))
            .unwrap();
        let c2 = eval
            .eval_partition(&parts, &buf, EvalOptions::with_cores(2))
            .unwrap();
        assert!(c2.latency_cycles < c1.latency_cycles);
        assert!(
            c2.energy_pj > c1.energy_pj,
            "crossbar rotation costs energy"
        );
    }

    /// Groups consecutive node pairs — a quick valid-ish partition helper
    /// for tests (chains of the topo order).
    fn depth_pairs(g: &Graph) -> Vec<Vec<NodeId>> {
        let ids: Vec<NodeId> = g.node_ids().collect();
        ids.chunks(2).map(|c| c.to_vec()).collect()
    }

    #[test]
    fn depthwise_utilization_is_low() {
        let g = cocco_graph::models::nasnet();
        let config = AcceleratorConfig::default();
        let dw = g
            .iter()
            .find(|(_, n)| matches!(n.op(), LayerOp::DepthwiseConv { .. }))
            .unwrap()
            .0;
        let conv = g
            .iter()
            .find(|(id, n)| {
                matches!(n.op(), LayerOp::Conv { c_out, .. } if *c_out >= 64)
                    && g.in_shapes(*id).first().is_some_and(|s| s.c >= 64)
            })
            .unwrap()
            .0;
        assert!(utilization(&g, dw, &config) < 0.2);
        assert!(utilization(&g, conv, &config) > 0.5);
    }

    #[test]
    fn invalid_inputs_rejected() {
        let g = cocco_graph::models::chain(2);
        let eval = Evaluator::new(&g, AcceleratorConfig::default());
        let buf = BufferConfig::shared(1 << 20);
        // Zero cores/batch are unrepresentable: construction rejects them.
        assert_eq!(EvalOptions::new(0, 1), Err(SimError::InvalidOptions));
        let err = eval
            .eval_partition(&[], &buf, EvalOptions::default())
            .unwrap_err();
        assert!(matches!(err, SimError::EmptySubgraph { .. }));
    }

    #[test]
    fn stats_derivation_latency_records_misses_only() {
        let g = cocco_graph::models::chain(4);
        let telemetry = Telemetry::enabled();
        let eval = Evaluator::new(&g, AcceleratorConfig::default()).with_telemetry(&telemetry);
        let members: Vec<NodeId> = g.node_ids().collect();
        let stats = eval.subgraph_stats(&members).unwrap();
        let snap = telemetry.snapshot();
        let hist = snap.histogram("sim.subgraph_stats_ns").expect("registered");
        assert_eq!(hist.count, 1, "one derivation, one sample");
        // Cached probes add no samples — and derive identical statistics
        // to an uninstrumented evaluator.
        for _ in 0..10 {
            assert_eq!(eval.subgraph_stats(&members).unwrap(), stats);
        }
        let snap = telemetry.snapshot();
        assert_eq!(snap.histogram("sim.subgraph_stats_ns").unwrap().count, 1);
        let plain = Evaluator::new(&g, AcceleratorConfig::default());
        assert_eq!(plain.subgraph_stats(&members).unwrap(), stats);
    }

    #[test]
    fn bandwidth_is_positive_and_peak_bounds_avg() {
        let g = cocco_graph::models::googlenet();
        let eval = Evaluator::new(&g, AcceleratorConfig::default());
        let buf = BufferConfig::shared(8 << 20);
        let parts = depth_pairs(&g);
        let r = eval
            .eval_partition(&parts, &buf, EvalOptions::default())
            .unwrap();
        assert!(r.avg_bw_gbps > 0.0);
        assert!(r.peak_bw_gbps >= r.avg_bw_gbps * 0.99);
    }

    #[test]
    fn canonicalize_fallback_is_counted_and_avoided_when_sorted() {
        let g = cocco_graph::models::diamond();
        let eval = Evaluator::new(&g, AcceleratorConfig::default());
        let members: Vec<NodeId> = g.node_ids().collect();
        // Sorted misses never take the fallback.
        eval.subgraph_stats(&members).unwrap();
        assert_eq!(eval.stats_canonicalize_fallbacks(), 0);
        // An out-of-order *miss* takes the counted slow path and derives
        // the same statistics.
        let sub: Vec<NodeId> = members[2..=4].to_vec();
        let mut rev = sub.clone();
        rev.reverse();
        let a = eval.subgraph_stats(&rev).unwrap();
        assert_eq!(eval.stats_canonicalize_fallbacks(), 1);
        assert_eq!(a, eval.subgraph_stats(&sub).unwrap());
        // The re-probe above was a hit: no second fallback.
        assert_eq!(eval.stats_canonicalize_fallbacks(), 1);
    }
}
