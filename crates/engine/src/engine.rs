//! The engine core: memoized scoring plus run statistics.
//!
//! Scoring is **subgraph-granular**: a partition's objective terms are
//! composed from per-subgraph scores, each computed from the subgraph's
//! statistics (memoized by the evaluator's stats cache) and its
//! successor's weight footprint. Whole-partition roll-ups are memoized in
//! the [`EvalCache`], and a caller that knows *which* subgraphs a mutation
//! touched ([`Engine::score_delta`]) re-derives only those terms — plus the
//! `next_wgt` predecessors whose prefetch input changed — while every
//! untouched term is copied from the previous evaluation's [`EvalMemo`].
//! Every path (fresh composition, memo reuse) is bit-identical to
//! `Evaluator::eval_partition` by construction: `Evaluator::eval_subgraph`
//! is a pure function and the roll-up is an in-order fold.
//!
//! Cache identity is carried by precomputed 128-bit subgraph fingerprints
//! ([`PartitionFingerprints`]): a memo stores the fingerprints of the
//! partition it scored, and scoring a mutated offspring re-fingerprints
//! only the dirty subgraphs — clean ones copy their fingerprint through a
//! stable member node in O(1). No evaluation path allocates a key or walks
//! a member vector to probe the cache.

use crate::arena::{ComposeScratch, EvalArena, ScratchPool, Staged};
use crate::cache::{EvalCache, EvalKey};
use crate::config::EngineConfig;
use crate::pool::EnginePool;
use cocco_graph::{BuildFpHasher, NodeId, NodeSetFp};
use cocco_partition::{Partition, PartitionDelta, PartitionFingerprints, SubgraphsView};
use cocco_sim::{BufferConfig, CostMetric, EvalOptions, Evaluator, SubgraphStats};
use cocco_telemetry::{Histogram, MetricsSnapshot, Stopwatch, Telemetry};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One memoized partition evaluation: everything needed to reproduce the
/// objective cost under *any* objective (metric × Formula 1/2), so one
/// cache entry serves partition-only and co-exploration searches alike.
#[derive(Copy, Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ScoredEval {
    /// Total DRAM traffic in bytes.
    pub ema_bytes: u64,
    /// Total energy in picojoules.
    pub energy_pj: f64,
    /// Total bytes of the evaluated buffer configuration (Formula 2's
    /// `BUF_SIZE`).
    pub buffer_bytes: u64,
    /// Whether every subgraph fits the buffer configuration.
    pub fits: bool,
    /// `true` when the evaluator failed outright (a config bug, not a
    /// genuine misfit); such evaluations score infinite.
    pub error: bool,
}

impl ScoredEval {
    /// The raw metric value (infinite on evaluator errors).
    pub fn metric(&self, metric: CostMetric) -> f64 {
        if self.error {
            return f64::INFINITY;
        }
        match metric {
            CostMetric::Ema => self.ema_bytes as f64,
            CostMetric::Energy => self.energy_pj,
        }
    }

    /// The objective cost: Formula 1 (`alpha = None`) or Formula 2
    /// (`alpha = Some(α)`); infinite when the partition does not fit or the
    /// evaluator errored.
    pub fn cost(&self, metric: CostMetric, alpha: Option<f64>) -> f64 {
        if self.error || !self.fits {
            return f64::INFINITY;
        }
        match alpha {
            None => self.metric(metric),
            Some(alpha) => self.buffer_bytes as f64 + alpha * self.metric(metric),
        }
    }

    /// The evaluator-error sentinel under `buffer`.
    fn errored(buffer: &BufferConfig) -> Self {
        Self {
            ema_bytes: 0,
            energy_pj: 0.0,
            buffer_bytes: buffer.total_bytes(),
            fits: false,
            error: true,
        }
    }
}

/// A caught worker-job panic from [`Engine::try_dispatch`]: the panic
/// payload rendered as text. The engine itself remains fully usable — the
/// caller decides how to degrade (quarantine the batch, refund its
/// funding, surface a structured error).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DispatchPanic {
    /// The panic payload (`&str`/`String` payloads verbatim; anything else
    /// as an opaque marker).
    pub message: String,
}

impl std::fmt::Display for DispatchPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "worker panic: {}", self.message)
    }
}

impl std::error::Error for DispatchPanic {}

/// Where a freshly computed cache entry goes.
enum Publish<'s> {
    /// Straight into the shared [`EvalCache`] — the policy of every direct
    /// scoring entry point, so callers outside a batch observe their
    /// entries immediately.
    Immediate,
    /// Into the claimed slot's staged entries, tagged with the
    /// funding-order sequence number of the batch job that computed it;
    /// [`Engine::dispatch`] publishes them in sequence order once the
    /// batch is done.
    Deferred(u64, &'s mut Vec<Staged>),
}

/// The outcome of [`Engine::prepare_partition`]: the probe half of scoring
/// a batch candidate.
#[derive(Debug)]
pub enum PartitionProbe {
    /// The roll-up was already cached: the finished score.
    Hit(ScoredEval, Option<Arc<EvalMemo>>),
    /// A genuine miss; hand the carried state to
    /// [`Engine::score_prepared`].
    Miss(PreparedEval),
}

/// Key material carried from a [`Engine::prepare_partition`] miss to the
/// [`Engine::score_prepared`] call that computes it: the cache key and
/// fingerprints are derived exactly once, and the shared-cache miss was
/// counted exactly once (`score_prepared` recomputes without re-probing).
#[derive(Debug)]
pub struct PreparedEval {
    key: EvalKey,
    fps: PartitionFingerprints,
    /// Per-position dirty flags of a usable incremental hint (`None` when
    /// the hint was absent or unusable — `score_prepared` then composes
    /// from the caches without memo reuse).
    dirty: Option<Vec<bool>>,
}

/// Renders a panic payload as text (the same downcasts the std hook uses).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The additive objective terms of one subgraph — the unit an [`EvalMemo`]
/// records. A partition's [`ScoredEval`] is the in-order sum (`ema_bytes`,
/// `energy_pj`) and conjunction (`fits`) of its subgraphs' scores.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct SubgraphScore {
    /// DRAM traffic of this subgraph in bytes.
    pub ema_bytes: u64,
    /// Energy of this subgraph in picojoules.
    pub energy_pj: f64,
    /// Whether this subgraph fits the buffer configuration.
    pub fits: bool,
}

/// One position of an [`EvalMemo`]: the subgraph's weight footprint (the
/// `next_wgt` its *predecessor* sees), the `next_wgt` this term was scored
/// under, and the term itself.
#[derive(Copy, Clone, Debug)]
pub(crate) struct MemoEntry {
    wgt_bytes: u64,
    next_wgt: u64,
    score: SubgraphScore,
}

/// The per-subgraph breakdown of one scored partition, kept by searchers
/// (and stored with partition-level cache entries) so that scoring a
/// *mutated* copy of the genome re-derives only the subgraphs the mutation
/// (and its repair) touched.
///
/// A memo is pinned to its `(evaluator fingerprint, buffer, options)`
/// coordinates; [`Engine::score_delta`] silently falls back to the full
/// composition path when they do not match (e.g. after a DSE mutation
/// changed the buffer), so a memo recorded under *different coordinates*
/// can cost time but never correctness. Reuse of an individual term
/// additionally requires the term's recorded `next_wgt` to equal the new
/// successor's weight footprint — the one cross-subgraph coupling of the
/// cost model. The memo also carries the scored partition's
/// [`PartitionFingerprints`], the incremental state offspring
/// fingerprints are refreshed from.
///
/// The `dirty` flags handed to [`Engine::score_delta`], by contrast, are
/// a **trusted input**: a subgraph wrongly marked clean would copy a
/// stale fingerprint and thereby a stale cached score. Every in-tree
/// delta producer upholds the member-set invariant documented on
/// [`PartitionDelta`](cocco_partition::PartitionDelta) (mutation
/// operators and repair mark whole changed subgraphs; crossover diffs
/// fingerprints via `PartitionFingerprints::delta_against`), debug builds
/// assert each copied fingerprint against a from-scratch recomputation,
/// and the property suite walks random mutation/repair sequences — but a
/// new operator that under-reports dirt would be a correctness bug in
/// release builds, not a slowdown.
#[derive(Debug)]
pub struct EvalMemo {
    fingerprint: u64,
    buffer: BufferConfig,
    options: EvalOptions,
    /// Subgraph fingerprints of the scored partition (by position and by
    /// anchor node — the latter is what offspring copy clean fingerprints
    /// from).
    fps: PartitionFingerprints,
    entries: Vec<MemoEntry>,
    /// Subgraph fingerprint → position in `entries`; built lazily on the
    /// first lookup, because most scored genomes never become parents and
    /// their memos are never consulted.
    index: std::sync::OnceLock<HashMap<NodeSetFp, u32, BuildFpHasher>>,
}

impl EvalMemo {
    fn new(
        fingerprint: u64,
        buffer: BufferConfig,
        options: EvalOptions,
        fps: PartitionFingerprints,
        entries: Vec<MemoEntry>,
    ) -> Self {
        Self {
            fingerprint,
            buffer,
            options,
            fps,
            entries,
            index: std::sync::OnceLock::new(),
        }
    }

    fn matches(&self, fingerprint: u64, buffer: &BufferConfig, options: EvalOptions) -> bool {
        self.fingerprint == fingerprint && self.buffer == *buffer && self.options == options
    }

    fn lookup(&self, fp: NodeSetFp) -> Option<&MemoEntry> {
        let index = self.index.get_or_init(|| {
            self.fps
                .positions()
                .iter()
                .enumerate()
                .map(|(i, &fp)| (fp, i as u32))
                .collect()
        });
        index.get(&fp).map(|&i| &self.entries[i as usize])
    }

    /// The coordinates the memo was scored under: evaluator fingerprint,
    /// buffer and options.
    pub fn coordinates(&self) -> (u64, BufferConfig, EvalOptions) {
        (self.fingerprint, self.buffer, self.options)
    }

    /// The scored partition's subgraph fingerprints.
    pub fn fingerprints(&self) -> &PartitionFingerprints {
        &self.fps
    }

    /// Number of memoized subgraph terms.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when the memo holds no terms.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Aggregate engine statistics of one exploration run.
///
/// Since the telemetry substrate landed, this type is a **compatibility
/// snapshot**: the authoritative collection point is
/// [`Engine::metrics`], which returns every counter under its
/// dot-separated metric name (plus whatever live telemetry recorded),
/// and [`Engine::stats`] is a fixed-field projection of that snapshot
/// via [`EngineStats::from_metrics`]. Existing callers — reports,
/// serialized `Exploration`s, tests — keep their stable shape.
#[derive(Copy, Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct EngineStats {
    /// Worker threads the engine resolved to.
    pub threads: u32,
    /// Partition-scoring requests served (cache hits + fresh evaluations).
    pub evals: u64,
    /// Requests answered from the partition roll-up cache.
    pub cache_hits: u64,
    /// Distinct cached partition roll-ups at snapshot time.
    pub cache_entries: u64,
    /// Partition roll-up entries evicted by generation sweeps.
    pub cache_evictions: u64,
    /// Full per-subgraph scorings: `eval_subgraph` terms computed fresh.
    pub subgraph_scorings: u64,
    /// Always 0: the engine no longer caches subgraph terms (their
    /// statistics are cached by the evaluator). Kept so existing readers
    /// of this snapshot keep compiling.
    pub subgraph_hits: u64,
    /// Subgraph terms copied straight from a caller's [`EvalMemo`] on the
    /// delta path (no term computed).
    pub subgraph_reused: u64,
    /// Statistics misses that had to sort a copy of an out-of-order
    /// member list (see `Evaluator::stats_canonicalize_fallbacks`) — the
    /// hot-path allocation tripwire: 0 on every production path, asserted
    /// by the CI smoke benchmark. (Values that *escape* the dispatch —
    /// memo entries, fingerprints, cache inserts — are inherent and not
    /// counted.)
    pub stats_canonicalize_fallbacks: u64,
    /// Wall-clock milliseconds spent inside batch evaluation.
    pub wall_ms: f64,
}

impl EngineStats {
    /// Projects the fixed legacy fields out of a metrics snapshot (see
    /// the type docs; inverse of [`Engine::metrics`]' absorption).
    pub fn from_metrics(m: &MetricsSnapshot) -> Self {
        Self {
            threads: m.gauge("engine.threads") as u32,
            evals: m.counter("engine.evals"),
            cache_hits: m.counter("engine.cache.partition.hits"),
            cache_entries: m.gauge("engine.cache.partition.entries"),
            cache_evictions: m.counter("engine.cache.partition.evictions"),
            subgraph_scorings: m.counter("engine.subgraph.scorings"),
            subgraph_hits: 0,
            subgraph_reused: m.counter("engine.subgraph.reused"),
            stats_canonicalize_fallbacks: m.counter("engine.stats_canonicalize_fallbacks"),
            wall_ms: m.gauge("engine.batch.wall_ns") as f64 / 1e6,
        }
    }

    /// Fraction of partition-scoring requests served from the roll-up
    /// cache.
    pub fn hit_rate(&self) -> f64 {
        if self.evals == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.evals as f64
        }
    }

    /// Total subgraph-term requests (scorings + memo reuses).
    pub fn subgraph_requests(&self) -> u64 {
        self.subgraph_scorings + self.subgraph_reused
    }

    /// Fraction of subgraph-term requests answered by memo reuse instead
    /// of a fresh scoring.
    pub fn subgraph_hit_rate(&self) -> f64 {
        let requests = self.subgraph_requests();
        if requests == 0 {
            0.0
        } else {
            self.subgraph_reused as f64 / requests as f64
        }
    }
}

/// The parallel, memoized evaluation engine.
///
/// One engine is shared (via `Arc`) by every context derived from a search:
/// the worker pool parallelizes batch evaluation, the cache memoizes
/// whole-partition roll-ups across searchers, generations and two-step
/// inner runs, and the statistics feed the exploration report.
///
/// # Examples
///
/// ```
/// use cocco_engine::{Engine, EngineConfig};
/// use cocco_sim::{AcceleratorConfig, BufferConfig, CostMetric, EvalOptions, Evaluator};
///
/// let g = cocco_graph::models::chain(4);
/// let eval = Evaluator::new(&g, AcceleratorConfig::default());
/// let engine = Engine::new(EngineConfig::serial());
/// let subgraphs = vec![g.node_ids().collect::<Vec<_>>()];
/// let buffer = BufferConfig::shared(1 << 20);
/// let a = engine.score(&eval, &subgraphs, &buffer, EvalOptions::default());
/// let b = engine.score(&eval, &subgraphs, &buffer, EvalOptions::default());
/// assert_eq!(a, b);
/// assert_eq!(engine.stats().cache_hits, 1);
/// ```
#[derive(Debug)]
pub struct Engine {
    config: EngineConfig,
    pool: EnginePool,
    cache: EvalCache,
    /// Per-worker scoring scratch (layout arenas, composition buffers and
    /// staged cache entries); one more slot than worker threads, claimed
    /// per scoring call.
    scratch: ScratchPool,
    wall_nanos: AtomicU64,
    /// Subgraph terms computed fresh (`engine.subgraph.scorings`).
    scorings: AtomicU64,
    /// Memo reuses on the delta path.
    reused: AtomicU64,
    /// High-water mark of any evaluator's canonicalize-fallback count
    /// observed by this engine (see
    /// `Evaluator::stats_canonicalize_fallbacks`); 0 in production.
    stats_fallbacks: AtomicU64,
    /// Jobs handed to [`dispatch`](Self::dispatch)
    /// (`engine.pool.dispatched`) — one per funded candidate on the batch
    /// path.
    dispatched: AtomicU64,
    /// Chunked pool hand-offs (`engine.pool.chunks`): index claims the
    /// workers performed instead of one per job.
    chunks: AtomicU64,
    /// Batches the adaptive scheduler ran inline on the caller because
    /// the job count fell under [`EngineConfig::parallel_threshold`]
    /// (`engine.pool.inline_batches`).
    inline_batches: AtomicU64,
    /// Observation sink shared with the pool and cache; disabled by
    /// default ([`Engine::new`]), so nothing below ever pays more than a
    /// branch for it.
    telemetry: Telemetry,
    /// Per-batch dispatch latency (`engine.batch.latency_ns`); `None`
    /// when telemetry is disabled.
    batch_latency: Option<Histogram>,
    /// Per-batch scratch growth (`engine.batch.alloc_bytes`); `None`
    /// when telemetry is disabled.
    alloc_bytes: Option<Histogram>,
}

/// Bucket bounds of the `engine.batch.alloc_bytes` histogram: powers of
/// two from 64 B to 64 MiB (plus the automatic overflow bucket). Warmed
/// dispatches record 0 — growth only appears while arenas warm up.
const ALLOC_BOUNDS_BYTES: [u64; 21] = [
    1 << 6,
    1 << 7,
    1 << 8,
    1 << 9,
    1 << 10,
    1 << 11,
    1 << 12,
    1 << 13,
    1 << 14,
    1 << 15,
    1 << 16,
    1 << 17,
    1 << 18,
    1 << 19,
    1 << 20,
    1 << 21,
    1 << 22,
    1 << 23,
    1 << 24,
    1 << 25,
    1 << 26,
];

impl Engine {
    /// Creates an engine with the given thread/pool/cache policy and an
    /// empty cache. Telemetry is disabled — the zero-overhead default.
    pub fn new(config: EngineConfig) -> Self {
        Self::with_telemetry(config, Telemetry::disabled())
    }

    /// Like [`new`](Self::new), but instrumented: batch dispatches feed
    /// the `engine.batch.latency_ns` histogram and an `engine.batch`
    /// event, the pool records queue waits, and cache sweeps emit
    /// events. All of it is observation-only — scores, cache contents
    /// and scheduling are bit-identical to an uninstrumented engine.
    pub fn with_telemetry(config: EngineConfig, telemetry: Telemetry) -> Self {
        Self {
            config,
            pool: EnginePool::with_telemetry(&config, &telemetry),
            cache: EvalCache::with_capacity_telemetry(config.cache_capacity, telemetry.clone()),
            scratch: ScratchPool::new(config.resolved_threads() + 1),
            wall_nanos: AtomicU64::new(0),
            scorings: AtomicU64::new(0),
            reused: AtomicU64::new(0),
            stats_fallbacks: AtomicU64::new(0),
            dispatched: AtomicU64::new(0),
            chunks: AtomicU64::new(0),
            inline_batches: AtomicU64::new(0),
            batch_latency: telemetry.latency_histogram("engine.batch.latency_ns"),
            alloc_bytes: telemetry
                .registry()
                .map(|r| r.histogram("engine.batch.alloc_bytes", &ALLOC_BOUNDS_BYTES)),
            telemetry,
        }
    }

    /// The telemetry handle this engine records through (disabled unless
    /// constructed via [`with_telemetry`](Self::with_telemetry)).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The memoization cache.
    pub fn cache(&self) -> &EvalCache {
        &self.cache
    }

    /// Scores an ordered partition under `buffer`/`options`, memoized.
    ///
    /// Evaluator errors are folded into the result (`error = true`, so
    /// [`ScoredEval::cost`] is infinite) and memoized like any other
    /// evaluation — re-scoring a broken configuration is as cheap and as
    /// deterministic as re-scoring a good one.
    pub fn score(
        &self,
        evaluator: &Evaluator<'_>,
        subgraphs: &[Vec<NodeId>],
        buffer: &BufferConfig,
        options: EvalOptions,
    ) -> ScoredEval {
        self.score_composed(evaluator, subgraphs, buffer, options).0
    }

    /// Like [`score`](Self::score), but also returns the per-subgraph
    /// [`EvalMemo`]. Roll-up cache hits hand back the memo stored with the
    /// entry, so even a genome whose score came straight from the cache
    /// seeds its offspring's incremental hints (`None` only for entries
    /// restored from a snapshot).
    pub fn score_composed(
        &self,
        evaluator: &Evaluator<'_>,
        subgraphs: &[Vec<NodeId>],
        buffer: &BufferConfig,
        options: EvalOptions,
    ) -> (ScoredEval, Option<Arc<EvalMemo>>) {
        self.scratch.with_slot(|arena| {
            self.score_inner(
                evaluator,
                subgraphs,
                buffer,
                options,
                None,
                &mut arena.compose,
            )
        })
    }

    /// Scores a partition that differs from a previously scored one (whose
    /// breakdown is `memo`) only in the subgraphs flagged by `dirty`
    /// (aligned with `subgraphs`; a flag per execution position).
    ///
    /// Clean subgraphs reuse their memoized term directly — provided the
    /// recorded `next_wgt` still matches the new successor, which the
    /// engine verifies itself — so the evaluator-facing work is
    /// `O(|dirty|)` instead of `O(|partition|)`, and only dirty subgraphs
    /// are re-fingerprinted for the cache keys. Falls back to the full
    /// composition path (bit-identical results) when the memo's
    /// coordinates do not match or `dirty` is misaligned.
    ///
    /// `dirty` must satisfy the member-set invariant documented on
    /// [`PartitionDelta`](cocco_partition::PartitionDelta): a subgraph
    /// containing no dirty node must have exactly the member set it had in
    /// the memo's partition (debug builds assert this).
    pub fn score_delta(
        &self,
        evaluator: &Evaluator<'_>,
        subgraphs: &[Vec<NodeId>],
        buffer: &BufferConfig,
        options: EvalOptions,
        memo: &EvalMemo,
        dirty: &[bool],
    ) -> (ScoredEval, Option<Arc<EvalMemo>>) {
        let reuse = (dirty.len() == subgraphs.len()
            && memo.matches(evaluator.fingerprint(), buffer, options))
        .then_some((memo, dirty));
        self.scratch.with_slot(|arena| {
            self.score_inner(
                evaluator,
                subgraphs,
                buffer,
                options,
                reuse,
                &mut arena.compose,
            )
        })
    }

    /// Scores a [`Partition`] directly, materializing its member lists
    /// into this call's scratch slot as a flat
    /// [`PartitionLayout`](cocco_partition::PartitionLayout) built without
    /// per-candidate allocations. Fingerprinting, cache probing and the
    /// composition fold run over it through [`SubgraphsView`], exactly as
    /// they run over the nested lists [`score`](Self::score) takes.
    ///
    /// `hint` carries the parent's memo plus the [`PartitionDelta`]
    /// recorded by mutation/repair; when it is usable (delta not
    /// all-dirty, matching memo coordinates and node count) the call takes
    /// the delta path — clean subgraphs reuse their memoized terms —
    /// otherwise it composes from the caches like
    /// [`score_composed`](Self::score_composed).
    pub fn score_partition(
        &self,
        evaluator: &Evaluator<'_>,
        partition: &Partition,
        buffer: &BufferConfig,
        options: EvalOptions,
        hint: Option<(&EvalMemo, &PartitionDelta)>,
    ) -> (ScoredEval, Option<Arc<EvalMemo>>) {
        let hint = Self::usable_hint(evaluator, partition, buffer, options, hint);
        self.scratch.with_slot(|arena| {
            let EvalArena {
                layout,
                dirty,
                compose,
                ..
            } = arena;
            let view = layout.build_from_partition(partition);
            let reuse = Self::project_dirty(&view, hint, dirty);
            self.score_inner(evaluator, &view, buffer, options, reuse, compose)
        })
    }

    /// `hint` if the delta path can use it: a delta that is not all-dirty,
    /// sized for `partition`, under the memo's own coordinates.
    fn usable_hint<'h>(
        evaluator: &Evaluator<'_>,
        partition: &Partition,
        buffer: &BufferConfig,
        options: EvalOptions,
        hint: Option<(&'h EvalMemo, &'h PartitionDelta)>,
    ) -> Option<(&'h EvalMemo, &'h PartitionDelta)> {
        hint.filter(|(memo, delta)| {
            !delta.is_all()
                && delta.len() == partition.len()
                && memo.matches(evaluator.fingerprint(), buffer, options)
        })
    }

    /// The probe half of scoring a batch candidate: derives the
    /// partition's fingerprints and cache key (through the claimed slot's
    /// scratch, exactly as [`score_partition`](Self::score_partition)
    /// would) and probes the shared cache. A [`PartitionProbe::Hit`] is
    /// the finished score. A [`PartitionProbe::Miss`] carries the derived
    /// key material to [`score_prepared`](Self::score_prepared), which
    /// computes without re-probing (the miss was counted here, once).
    ///
    /// `hint` follows the same usability rules as `score_partition`; a
    /// usable hint's per-position dirty flags travel inside the returned
    /// [`PreparedEval`].
    pub fn prepare_partition(
        &self,
        evaluator: &Evaluator<'_>,
        partition: &Partition,
        buffer: &BufferConfig,
        options: EvalOptions,
        hint: Option<(&EvalMemo, &PartitionDelta)>,
    ) -> PartitionProbe {
        let hint = Self::usable_hint(evaluator, partition, buffer, options, hint);
        self.scratch.with_slot(|arena| {
            let EvalArena { layout, dirty, .. } = arena;
            let view = layout.build_from_partition(partition);
            let reuse = Self::project_dirty(&view, hint, dirty);
            let (fps, key) = Self::fingerprint(evaluator, &view, buffer, options, reuse);
            if let Some((cached, memo)) = self.cache.get_memoized(&key) {
                self.note_stats_fallbacks(evaluator);
                return PartitionProbe::Hit(cached, memo);
            }
            PartitionProbe::Miss(PreparedEval {
                key,
                fps,
                dirty: reuse.map(|(_, flags)| flags.to_vec()),
            })
        })
    }

    /// The compute half of scoring a batch candidate: finishes a
    /// [`PartitionProbe::Miss`] from
    /// [`prepare_partition`](Self::prepare_partition), reusing its key and
    /// fingerprints, and stages every entry it computes under `seq` — the
    /// candidate's funding-order sequence number — for publication at the
    /// end of the enclosing [`dispatch`](Self::dispatch). Call it only from
    /// jobs running under `dispatch`/[`try_dispatch`](Self::try_dispatch).
    ///
    /// `partition` and `hint` must be the values the probe was prepared
    /// from (`hint` may only have been dropped, not substituted); the
    /// layout is rebuilt into this call's slot.
    #[allow(clippy::too_many_arguments)]
    pub fn score_prepared(
        &self,
        seq: u64,
        evaluator: &Evaluator<'_>,
        partition: &Partition,
        buffer: &BufferConfig,
        options: EvalOptions,
        hint: Option<&EvalMemo>,
        prepared: PreparedEval,
    ) -> (ScoredEval, Option<Arc<EvalMemo>>) {
        let PreparedEval { key, fps, dirty } = prepared;
        self.scratch.with_slot(|arena| {
            let EvalArena {
                layout,
                compose,
                staged,
                ..
            } = arena;
            let view = layout.build_from_partition(partition);
            let reuse = match (&dirty, hint) {
                (Some(flags), Some(memo)) => Some((memo, flags.as_slice())),
                _ => None,
            };
            self.score_missed(
                evaluator,
                &view,
                buffer,
                options,
                reuse,
                compose,
                key,
                fps,
                Publish::Deferred(seq, staged),
            )
        })
    }

    /// Pairs a usable hint's memo with per-subgraph dirty flags in view
    /// order, projected from the node-level delta — the same flags
    /// `PartitionDelta::dirty_subgraphs` produces, written into reusable
    /// scratch instead of a fresh vector.
    fn project_dirty<'m, 'd, S: SubgraphsView + ?Sized>(
        view: &S,
        hint: Option<(&'m EvalMemo, &PartitionDelta)>,
        out: &'d mut Vec<bool>,
    ) -> Option<(&'m EvalMemo, &'d [bool])> {
        let (memo, delta) = hint?;
        out.clear();
        out.extend(
            (0..view.num_subgraphs())
                .map(|i| view.members_of(i).iter().any(|&m| delta.is_dirty(m))),
        );
        Some((memo, out))
    }

    /// The partition's subgraph fingerprints and roll-up cache key. Clean
    /// positions of `reuse` copy the memo's incrementally maintained
    /// fingerprint in O(1); dirty (or memo-less) positions re-fingerprint
    /// from their members. This is the only place key material is derived
    /// — everything downstream folds these fixed-size values.
    fn fingerprint<S: SubgraphsView + ?Sized>(
        evaluator: &Evaluator<'_>,
        subgraphs: &S,
        buffer: &BufferConfig,
        options: EvalOptions,
        reuse: Option<(&EvalMemo, &[bool])>,
    ) -> (PartitionFingerprints, EvalKey) {
        let fps = match reuse {
            Some((memo, dirty)) => memo.fps.refresh_positions(subgraphs, dirty),
            None => PartitionFingerprints::from_subgraphs(subgraphs),
        };
        let key = EvalKey::partition(
            evaluator.fingerprint(),
            fps.positions().iter().copied(),
            buffer,
            options,
        );
        (fps, key)
    }

    /// Scores one subgraph as a standalone single-subgraph partition
    /// (`next_wgt = 0`) from its evaluator-cached statistics, without
    /// allocating an owned partition — the additive Formula-1 term used by
    /// the greedy/DP/enumeration hot loops.
    pub fn score_single(
        &self,
        evaluator: &Evaluator<'_>,
        members: &[NodeId],
        buffer: &BufferConfig,
        options: EvalOptions,
    ) -> ScoredEval {
        let Ok(stats) = evaluator.subgraph_stats(members) else {
            return ScoredEval::errored(buffer);
        };
        let term = self.compute_term(evaluator, &stats, 0, buffer, options);
        ScoredEval {
            ema_bytes: term.ema_bytes,
            energy_pj: term.energy_pj,
            buffer_bytes: buffer.total_bytes(),
            fits: term.fits,
            error: false,
        }
    }

    /// Fingerprints, keys and probes a partition, composing it on a miss —
    /// the shared body of the direct scoring entry points, which publish
    /// immediately.
    fn score_inner<S: SubgraphsView + ?Sized>(
        &self,
        evaluator: &Evaluator<'_>,
        subgraphs: &S,
        buffer: &BufferConfig,
        options: EvalOptions,
        reuse: Option<(&EvalMemo, &[bool])>,
        scratch: &mut ComposeScratch,
    ) -> (ScoredEval, Option<Arc<EvalMemo>>) {
        let (fps, key) = Self::fingerprint(evaluator, subgraphs, buffer, options, reuse);
        if let Some((cached, memo)) = self.cache.get_memoized(&key) {
            self.note_stats_fallbacks(evaluator);
            return (cached, memo);
        }
        self.score_missed(
            evaluator,
            subgraphs,
            buffer,
            options,
            reuse,
            scratch,
            key,
            fps,
            Publish::Immediate,
        )
    }

    /// The compute tail of a partition-cache miss: compose, then publish
    /// under `key` per the `publish` policy. Shared by [`score_inner`](Self::score_inner) and
    /// [`score_prepared`](Self::score_prepared) — the miss itself was
    /// already counted by whoever probed.
    #[allow(clippy::too_many_arguments)]
    fn score_missed<S: SubgraphsView + ?Sized>(
        &self,
        evaluator: &Evaluator<'_>,
        subgraphs: &S,
        buffer: &BufferConfig,
        options: EvalOptions,
        reuse: Option<(&EvalMemo, &[bool])>,
        scratch: &mut ComposeScratch,
        key: EvalKey,
        fps: PartitionFingerprints,
        publish: Publish<'_>,
    ) -> (ScoredEval, Option<Arc<EvalMemo>>) {
        let (scored, memo) =
            self.compose(evaluator, subgraphs, fps, buffer, options, reuse, scratch);
        match publish {
            Publish::Immediate => self.cache.insert_memoized(key, scored, memo.clone()),
            Publish::Deferred(seq, staged) => staged.push((seq, key, scored, memo.clone())),
        }
        self.note_stats_fallbacks(evaluator);
        (scored, memo)
    }

    /// Folds the evaluator's canonicalize-fallback count into the
    /// engine's tripwire (high-water mark across the evaluators this
    /// engine has scored with; free while the count stays 0, the
    /// production invariant).
    fn note_stats_fallbacks(&self, evaluator: &Evaluator<'_>) {
        let fallbacks = evaluator.stats_canonicalize_fallbacks();
        if fallbacks != 0 {
            self.stats_fallbacks.fetch_max(fallbacks, Ordering::Relaxed);
        }
    }

    /// Computes one fresh `eval_subgraph` term, counted as a full scoring.
    fn compute_term(
        &self,
        evaluator: &Evaluator<'_>,
        stats: &SubgraphStats,
        next_wgt: u64,
        buffer: &BufferConfig,
        options: EvalOptions,
    ) -> SubgraphScore {
        self.scorings.fetch_add(1, Ordering::Relaxed);
        let part = evaluator.eval_subgraph(stats, next_wgt, buffer, options);
        SubgraphScore {
            ema_bytes: part.ema_bytes,
            energy_pj: part.energy_pj,
            fits: part.fits,
        }
    }

    /// Composes a partition score from per-subgraph terms, reusing the
    /// caller's memo for clean positions and computing every other term
    /// from the evaluator-cached statistics. The fold runs in execution
    /// order, so the sums are bit-identical to `Evaluator::eval_partition`.
    #[allow(clippy::too_many_arguments)]
    fn compose<S: SubgraphsView + ?Sized>(
        &self,
        evaluator: &Evaluator<'_>,
        subgraphs: &S,
        fps: PartitionFingerprints,
        buffer: &BufferConfig,
        options: EvalOptions,
        reuse: Option<(&EvalMemo, &[bool])>,
        scratch: &mut ComposeScratch,
    ) -> (ScoredEval, Option<Arc<EvalMemo>>) {
        if subgraphs.no_subgraphs() || subgraphs.any_empty() {
            return (ScoredEval::errored(buffer), None);
        }
        let n = subgraphs.num_subgraphs();
        // Memoized entry per clean position (fingerprint present in the
        // memo); `MemoEntry` is `Copy`, so the scratch holds copies and
        // the memo borrow ends here.
        scratch.entries.clear();
        scratch.entries.extend((0..n).map(|i| match reuse {
            Some((memo, dirty)) if !dirty[i] => memo.lookup(fps.positions()[i]).copied(),
            _ => None,
        }));
        // Weight footprints drive the next_wgt chain; dirty positions need
        // their (evaluator-cached) statistics, clean ones read the memo.
        scratch.stats_of.clear();
        scratch.stats_of.resize(n, None);
        scratch.wgts.clear();
        for i in 0..n {
            match scratch.entries[i] {
                Some(entry) => scratch.wgts.push(entry.wgt_bytes),
                None => {
                    match evaluator
                        .subgraph_stats_keyed(fps.positions()[i], subgraphs.members_of(i))
                    {
                        Ok(stats) => {
                            scratch.wgts.push(stats.ema_wgt_bytes);
                            scratch.stats_of[i] = Some(stats);
                        }
                        Err(_) => return (ScoredEval::errored(buffer), None),
                    }
                }
            }
        }
        let mut ema_bytes: u64 = 0;
        let mut energy_pj: f64 = 0.0;
        let mut fits = true;
        // The one hot-path vector that escapes: it becomes the memo's
        // entry list inside the returned `Arc<EvalMemo>`.
        let mut memo_entries = Vec::with_capacity(n);
        for i in 0..n {
            let next_wgt = if i + 1 < n { scratch.wgts[i + 1] } else { 0 };
            let score = match scratch.entries[i] {
                Some(entry) if entry.next_wgt == next_wgt => {
                    self.reused.fetch_add(1, Ordering::Relaxed);
                    entry.score
                }
                _ => {
                    let stats = match scratch.stats_of[i] {
                        Some(stats) => stats,
                        // A clean entry whose next_wgt changed: its
                        // statistics were computed before, so this is an
                        // evaluator-cache hit.
                        None => match evaluator
                            .subgraph_stats_keyed(fps.positions()[i], subgraphs.members_of(i))
                        {
                            Ok(stats) => stats,
                            Err(_) => return (ScoredEval::errored(buffer), None),
                        },
                    };
                    self.compute_term(evaluator, &stats, next_wgt, buffer, options)
                }
            };
            ema_bytes += score.ema_bytes;
            energy_pj += score.energy_pj;
            fits &= score.fits;
            memo_entries.push(MemoEntry {
                wgt_bytes: scratch.wgts[i],
                next_wgt,
                score,
            });
        }
        let scored = ScoredEval {
            ema_bytes,
            energy_pj,
            buffer_bytes: buffer.total_bytes(),
            fits,
            error: false,
        };
        let memo = EvalMemo::new(evaluator.fingerprint(), *buffer, options, fps, memo_entries);
        (scored, Some(Arc::new(memo)))
    }

    /// Runs `job(i)` for every `i` in `0..jobs` on the worker pool, then
    /// publishes the cache entries the jobs staged (see
    /// [`score_prepared`](Self::score_prepared)) in funding order. The
    /// batch is timed: the elapsed wall time accumulates into
    /// [`EngineStats::wall_ms`], and — when telemetry is enabled — also
    /// lands in the `engine.batch.latency_ns` histogram plus an
    /// `engine.batch` event. This is the one timed dispatch path; search
    /// code calls this instead of timing `pool().run` itself, which is
    /// what lets the audit confine wall-clock reads to `cocco-telemetry`.
    pub fn dispatch(&self, jobs: usize, job: impl Fn(usize) + Sync) {
        // Scratch growth across the batch (dispatch boundaries are
        // quiescent, so the slot sum is exact); warmed batches record 0.
        let bytes_before = self.alloc_bytes.as_ref().map(|_| self.scratch.bytes());
        let sw = Stopwatch::start();
        self.dispatched.fetch_add(jobs as u64, Ordering::Relaxed);
        if jobs > 1 && self.pool.threads() > 1 && jobs < self.config.parallel_threshold {
            // Adaptive serial fallback: under the measured threshold, pool
            // hand-off costs more than it buys — run inline on the caller,
            // in index order (exactly the serial pool's schedule).
            self.inline_batches.fetch_add(1, Ordering::Relaxed);
            for i in 0..jobs {
                job(i);
            }
        } else {
            let chunk = self.config.resolved_chunk(jobs);
            if chunk <= 1 {
                self.pool.run(jobs, job);
            } else {
                // Chunked hand-off: one index claim covers `chunk`
                // consecutive jobs. Within a chunk jobs run in index
                // order, so the serial pool's overall order is unchanged.
                let chunk_count = jobs.div_ceil(chunk);
                self.chunks.fetch_add(chunk_count as u64, Ordering::Relaxed);
                self.pool.run(chunk_count, |c| {
                    let start = c * chunk;
                    for i in start..(start + chunk).min(jobs) {
                        job(i);
                    }
                });
            }
        }
        // Batch-end quiescent point: publish every staged entry in
        // funding order.
        self.publish_staged();
        let nanos = sw.elapsed_nanos();
        self.wall_nanos.fetch_add(nanos, Ordering::Relaxed);
        if let Some(hist) = &self.batch_latency {
            hist.record(nanos);
            self.telemetry.emit("engine.batch", || {
                vec![("jobs", jobs.into()), ("nanos", nanos.into())]
            });
        }
        if let (Some(hist), Some(before)) = (&self.alloc_bytes, bytes_before) {
            hist.record(self.scratch.bytes().saturating_sub(before));
        }
    }

    /// Like [`dispatch`](Self::dispatch), but a panic from any job — a
    /// worker dying on a poisoned invariant, an injected fault — is caught
    /// and returned as a structured [`DispatchPanic`] instead of unwinding
    /// through the caller. The pool delivers worker panics to the
    /// dispatching thread (inline batches panic in place; persistent
    /// workers forward the payload and stay alive), and the engine stays
    /// fully usable afterwards: the pool keeps its threads, the cache
    /// tolerates poisoned shards, and the failed batch's staged entries
    /// are discarded, so the cache holds exactly what it held before the
    /// batch, at any thread count.
    pub fn try_dispatch(
        &self,
        jobs: usize,
        job: impl Fn(usize) + Sync,
    ) -> Result<(), DispatchPanic> {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.dispatch(jobs, job))).map_err(
            |payload| {
                self.scratch.take_staged();
                DispatchPanic {
                    message: panic_message(payload.as_ref()),
                }
            },
        )
    }

    /// Publishes every staged entry to the shared cache, ordered by
    /// funding-order sequence number and then key — an order of the
    /// entries themselves, so neither slot assignment nor compute order
    /// reaches the cache. A job that evaluated its candidate twice (an
    /// injected evaluator-error retry) staged identical entries twice; the
    /// repeats are dropped. Entries left staged by a batch that panicked
    /// under a plain [`dispatch`](Self::dispatch) are pure values and are
    /// published by the next batch.
    fn publish_staged(&self) {
        let mut staged = self.scratch.take_staged();
        staged.sort_unstable_by_key(|entry| (entry.0, entry.1));
        staged.dedup_by_key(|entry| (entry.0, entry.1));
        for (_, key, scored, memo) in staged {
            self.cache.insert_memoized(key, scored, memo);
        }
    }

    /// The authoritative metrics snapshot: everything live telemetry
    /// recorded (batch/queue histograms, sweep events' counters) plus
    /// the engine's own counters absorbed under their metric names —
    /// `engine.evals`, `engine.cache.partition.*`, `engine.subgraph.*`,
    /// `engine.stats_canonicalize_fallbacks`,
    /// `engine.arena.{bytes,reuses,grows}`, `engine.pool.*`,
    /// `engine.threads`, `engine.batch.wall_ns`. Works with telemetry
    /// disabled (the absorbed names are always present).
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut m = self.telemetry.snapshot();
        let hits = self.cache.hits();
        let misses = self.cache.misses();
        m.set_gauge("engine.threads", self.pool.threads() as u64);
        m.set_counter("engine.evals", hits + misses);
        m.set_counter("engine.cache.partition.hits", hits);
        m.set_counter("engine.cache.partition.misses", misses);
        m.set_gauge("engine.cache.partition.entries", self.cache.len() as u64);
        m.set_counter("engine.cache.partition.evictions", self.cache.evictions());
        m.set_counter(
            "engine.subgraph.scorings",
            self.scorings.load(Ordering::Relaxed),
        );
        m.set_counter(
            "engine.subgraph.reused",
            self.reused.load(Ordering::Relaxed),
        );
        m.set_counter(
            "engine.stats_canonicalize_fallbacks",
            self.stats_fallbacks.load(Ordering::Relaxed),
        );
        m.set_gauge("engine.arena.bytes", self.scratch.bytes());
        m.set_counter("engine.arena.reuses", self.scratch.reuses());
        m.set_counter("engine.arena.grows", self.scratch.grows());
        m.set_counter(
            "engine.pool.dispatched",
            self.dispatched.load(Ordering::Relaxed),
        );
        m.set_counter("engine.pool.chunks", self.chunks.load(Ordering::Relaxed));
        m.set_counter(
            "engine.pool.inline_batches",
            self.inline_batches.load(Ordering::Relaxed),
        );
        m.set_gauge(
            "engine.batch.wall_ns",
            self.wall_nanos.load(Ordering::Relaxed),
        );
        m
    }

    /// A snapshot of the engine statistics — the legacy fixed-field view
    /// of [`metrics`](Self::metrics).
    pub fn stats(&self) -> EngineStats {
        EngineStats::from_metrics(&self.metrics())
    }
}

// The whole point of the engine is cross-thread sharing; fail the build if
// a field ever regresses that.
const _: () = {
    const fn assert_sync_send<T: Sync + Send>() {}
    assert_sync_send::<Engine>();
    assert_sync_send::<EvalMemo>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use cocco_sim::AcceleratorConfig;

    #[test]
    fn try_dispatch_catches_panics_and_leaves_the_engine_usable() {
        let g = cocco_graph::models::diamond();
        let eval = Evaluator::new(&g, AcceleratorConfig::default());
        let buffer = BufferConfig::shared(1 << 20);
        let options = EvalOptions::default();
        let subgraphs: Vec<Vec<NodeId>> = g.node_ids().map(|id| vec![id]).collect();
        let partition = Partition::from_assignment(vec![0, 0, 1, 1, 2]);
        for config in [EngineConfig::serial(), EngineConfig::with_threads(2)] {
            let engine = Engine::new(config);
            let baseline = engine.score(&eval, &subgraphs, &buffer, options);
            let before = engine.cache().snapshot();
            let err = engine
                .try_dispatch(4, |i| {
                    if i == 2 {
                        panic!("injected worker panic");
                    }
                    if let PartitionProbe::Miss(prepared) =
                        engine.prepare_partition(&eval, &partition, &buffer, options, None)
                    {
                        engine.score_prepared(
                            i as u64, &eval, &partition, &buffer, options, None, prepared,
                        );
                    }
                })
                .expect_err("job 2 panics");
            assert!(err.message.contains("injected worker panic"), "{err}");
            // The failed batch's staged entries were discarded, not
            // published by this or a later batch.
            assert_eq!(engine.cache().snapshot(), before);
            engine.try_dispatch(4, |_| {}).expect("pool stays usable");
            assert_eq!(engine.cache().snapshot(), before);
            // The engine survives: same pool, same cache, same results.
            let again = engine.score(&eval, &subgraphs, &buffer, options);
            assert_eq!(again, baseline);
        }
    }

    #[test]
    fn score_matches_direct_evaluation() {
        let g = cocco_graph::models::diamond();
        let eval = Evaluator::new(&g, AcceleratorConfig::default());
        let engine = Engine::new(EngineConfig::serial());
        let subgraphs: Vec<Vec<NodeId>> = g.node_ids().map(|id| vec![id]).collect();
        let buffer = BufferConfig::shared(1 << 20);
        let scored = engine.score(&eval, &subgraphs, &buffer, EvalOptions::default());
        let report = eval
            .eval_partition(&subgraphs, &buffer, EvalOptions::default())
            .unwrap();
        assert_eq!(scored.ema_bytes, report.ema_bytes);
        assert_eq!(scored.energy_pj, report.energy_pj);
        assert_eq!(scored.fits, report.fits);
        assert_eq!(
            scored.cost(CostMetric::Ema, None),
            report.cost_formula1(CostMetric::Ema)
        );
        assert_eq!(
            scored.cost(CostMetric::Energy, Some(0.002)),
            report.cost_formula2(CostMetric::Energy, 0.002)
        );
    }

    #[test]
    fn score_delta_reuses_untouched_terms() {
        let g = cocco_graph::models::chain(7); // 8 nodes, one path
        let eval = Evaluator::new(&g, AcceleratorConfig::default());
        let engine = Engine::new(EngineConfig::serial());
        let buffer = BufferConfig::shared(1 << 20);
        let options = EvalOptions::default();
        // Pairs: {0,1} {2,3} {4,5} {6,7}.
        let ids: Vec<NodeId> = g.node_ids().collect();
        let base: Vec<Vec<NodeId>> = ids.chunks(2).map(|c| c.to_vec()).collect();
        let (scored, memo) = engine.score_composed(&eval, &base, &buffer, options);
        let memo = memo.expect("composed this call");
        assert_eq!(memo.len(), 4);
        assert!(!scored.error);

        // Mutate the last subgraph only: split {6,7} into {6} {7}.
        let mut mutated = base[..3].to_vec();
        mutated.push(vec![ids[6]]);
        mutated.push(vec![ids[7]]);
        let dirty = [false, false, false, true, true];
        let before = engine.stats();
        let (inc, new_memo) = engine.score_delta(&eval, &mutated, &buffer, options, &memo, &dirty);
        let after = engine.stats();
        assert!(new_memo.is_some());
        // Subgraphs 0 and 1 reuse their terms; subgraph 2's next_wgt
        // changed ({6,7} -> {6}), so it re-scores along with the two dirty
        // ones.
        assert_eq!(after.subgraph_reused - before.subgraph_reused, 2);
        let direct = eval.eval_partition(&mutated, &buffer, options).unwrap();
        assert_eq!(inc.ema_bytes, direct.ema_bytes);
        assert_eq!(inc.energy_pj, direct.energy_pj);
        assert_eq!(inc.fits, direct.fits);
        // Three terms computed fresh: the two dirty ones and subgraph 2.
        assert_eq!(after.subgraph_scorings - before.subgraph_scorings, 3);
    }

    #[test]
    fn score_delta_with_stale_memo_falls_back() {
        let g = cocco_graph::models::chain(3);
        let eval = Evaluator::new(&g, AcceleratorConfig::default());
        let engine = Engine::new(EngineConfig::serial());
        let subgraphs: Vec<Vec<NodeId>> = g.node_ids().map(|id| vec![id]).collect();
        let small = BufferConfig::shared(1 << 20);
        let big = BufferConfig::shared(2 << 20);
        let options = EvalOptions::default();
        let (_, memo) = engine.score_composed(&eval, &subgraphs, &small, options);
        let memo = memo.unwrap();
        let dirty = vec![false; subgraphs.len()];
        // Different buffer: the memo must not be trusted.
        let (scored, _) = engine.score_delta(&eval, &subgraphs, &big, options, &memo, &dirty);
        let direct = eval.eval_partition(&subgraphs, &big, options).unwrap();
        assert_eq!(scored.energy_pj, direct.energy_pj);
        assert_eq!(engine.stats().subgraph_reused, 0);
    }

    #[test]
    fn roll_up_hits_hand_back_memos() {
        // The memo-on-hit path: a genome whose score comes from the
        // partition cache still receives the breakdown recorded with the
        // entry, so its offspring can take the delta path.
        let g = cocco_graph::models::chain(5);
        let eval = Evaluator::new(&g, AcceleratorConfig::default());
        let engine = Engine::new(EngineConfig::serial());
        let buffer = BufferConfig::shared(1 << 20);
        let options = EvalOptions::default();
        let ids: Vec<NodeId> = g.node_ids().collect();
        let parts: Vec<Vec<NodeId>> = ids.chunks(2).map(|c| c.to_vec()).collect();
        let (first, first_memo) = engine.score_composed(&eval, &parts, &buffer, options);
        assert!(first_memo.is_some());
        let (second, second_memo) = engine.score_composed(&eval, &parts, &buffer, options);
        assert_eq!(first, second);
        assert_eq!(engine.stats().cache_hits, 1);
        let memo = second_memo.expect("roll-up hit must hand back the stored memo");
        assert_eq!(memo.len(), parts.len());
        // And the handed-back memo drives a working delta path.
        let dirty = vec![false; parts.len()];
        let (third, _) = engine.score_delta(&eval, &parts, &buffer, options, &memo, &dirty);
        assert_eq!(third, first);
    }

    #[test]
    fn score_single_matches_single_subgraph_partition() {
        let g = cocco_graph::models::chain(3);
        let eval = Evaluator::new(&g, AcceleratorConfig::default());
        let engine = Engine::new(EngineConfig::serial());
        let members: Vec<NodeId> = g.node_ids().collect();
        let buffer = BufferConfig::shared(1 << 20);
        let single = engine.score_single(&eval, &members, &buffer, EvalOptions::default());
        let via_partition = engine.score(
            &eval,
            std::slice::from_ref(&members),
            &buffer,
            EvalOptions::default(),
        );
        assert_eq!(single, via_partition);
        // Each route computed its term fresh from the cached statistics.
        assert_eq!(engine.stats().subgraph_scorings, 2);
        assert_eq!(eval.stats_cache_misses(), 1);
        assert!(
            engine
                .score_single(&eval, &[], &buffer, EvalOptions::default())
                .error
        );
    }

    #[test]
    fn errors_are_memoized_and_infinite() {
        let g = cocco_graph::models::chain(2);
        let eval = Evaluator::new(&g, AcceleratorConfig::default());
        let engine = Engine::new(EngineConfig::serial());
        // Empty subgraph: a structural evaluator error.
        let broken: Vec<Vec<NodeId>> = vec![Vec::new()];
        let buffer = BufferConfig::shared(1 << 20);
        let scored = engine.score(&eval, &broken, &buffer, EvalOptions::default());
        assert!(scored.error);
        assert!(scored.cost(CostMetric::Ema, None).is_infinite());
        assert!(scored.metric(CostMetric::Ema).is_infinite());
        let again = engine.score(&eval, &broken, &buffer, EvalOptions::default());
        assert_eq!(scored, again);
        assert_eq!(engine.stats().cache_hits, 1);
    }

    #[test]
    fn stats_snapshot_counts() {
        let g = cocco_graph::models::chain(3);
        let eval = Evaluator::new(&g, AcceleratorConfig::default());
        let engine = Engine::new(EngineConfig::with_threads(2));
        let subgraphs = vec![g.node_ids().collect::<Vec<_>>()];
        let buffer = BufferConfig::shared(1 << 20);
        engine.dispatch(1, |_| {
            for _ in 0..3 {
                engine.score(&eval, &subgraphs, &buffer, EvalOptions::default());
            }
        });
        let stats = engine.stats();
        assert_eq!(stats.threads, 2);
        assert_eq!(stats.evals, 3);
        assert_eq!(stats.cache_hits, 2);
        assert_eq!(stats.cache_entries, 1);
        assert_eq!(stats.subgraph_scorings, 1);
        assert_eq!(stats.subgraph_hits, 0);
        assert_eq!(stats.cache_evictions, 0);
        assert_eq!(stats.stats_canonicalize_fallbacks, 0);
        assert!(stats.wall_ms > 0.0);
        assert!((stats.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn bounded_cache_evicts_but_stays_exact() {
        let g = cocco_graph::models::googlenet();
        let eval = Evaluator::new(&g, AcceleratorConfig::default());
        // A tiny budget forces sweeps while scoring many distinct
        // partitions; every re-score after an eviction must still be
        // bit-identical to an unbounded engine's answer.
        let bounded = Engine::new(EngineConfig::serial().with_cache_capacity(16));
        let unbounded = Engine::new(EngineConfig::serial());
        let buffer = BufferConfig::shared(1 << 20);
        for l in 1..=12usize {
            let p = cocco_partition::repair(
                &g,
                cocco_partition::Partition::depth_groups(&g, l),
                &|_| true,
            );
            let subgraphs = p.subgraphs();
            let a = bounded.score(&eval, &subgraphs, &buffer, EvalOptions::default());
            let b = unbounded.score(&eval, &subgraphs, &buffer, EvalOptions::default());
            assert_eq!(a, b, "L={l}");
        }
        let stats = bounded.stats();
        assert!(
            stats.cache_entries <= 16,
            "entry budget exceeded: {} roll-ups",
            stats.cache_entries
        );
        assert!(
            stats.cache_evictions > 0,
            "the tiny budget must have evicted"
        );
    }

    #[test]
    fn one_engine_shared_across_evaluators_never_cross_contaminates() {
        // chain(4) and diamond both index nodes 0..n, so without the
        // evaluator fingerprint in the key their whole-graph partitions
        // would collide in the cache.
        let chain = cocco_graph::models::chain(4);
        let diamond = cocco_graph::models::diamond();
        let chain_eval = Evaluator::new(&chain, AcceleratorConfig::default());
        let diamond_eval = Evaluator::new(&diamond, AcceleratorConfig::default());
        let engine = Engine::new(EngineConfig::serial());
        let buffer = BufferConfig::shared(1 << 20);
        let options = EvalOptions::default();
        let chain_parts = vec![chain.node_ids().collect::<Vec<_>>()];
        // diamond has 5 nodes; take its first 5-node whole partition too.
        let diamond_parts = vec![diamond.node_ids().collect::<Vec<_>>()];
        let via_engine_chain = engine.score(&chain_eval, &chain_parts, &buffer, options);
        let via_engine_diamond = engine.score(&diamond_eval, &diamond_parts, &buffer, options);
        let direct_chain = chain_eval
            .eval_partition(&chain_parts, &buffer, options)
            .unwrap();
        let direct_diamond = diamond_eval
            .eval_partition(&diamond_parts, &buffer, options)
            .unwrap();
        assert_eq!(via_engine_chain.ema_bytes, direct_chain.ema_bytes);
        assert_eq!(via_engine_diamond.ema_bytes, direct_diamond.ema_bytes);
        assert_ne!(chain_eval.fingerprint(), diamond_eval.fingerprint());
        assert_eq!(engine.stats().cache_hits, 0, "distinct keys, no false hits");
        assert_eq!(engine.cache().len(), 2);
    }

    #[test]
    fn metrics_absorb_stats_and_time_batches() {
        let g = cocco_graph::models::chain(4);
        let eval = Evaluator::new(&g, AcceleratorConfig::default());
        let telemetry = Telemetry::enabled();
        let engine = Engine::with_telemetry(EngineConfig::serial(), telemetry.clone());
        let subgraphs = vec![g.node_ids().collect::<Vec<_>>()];
        let buffer = BufferConfig::shared(1 << 20);
        engine.dispatch(2, |_| {
            engine.score(&eval, &subgraphs, &buffer, EvalOptions::default());
        });
        let m = engine.metrics();
        // The compatibility snapshot and the absorbed names agree.
        let stats = engine.stats();
        assert_eq!(stats, EngineStats::from_metrics(&m));
        assert_eq!(m.counter("engine.evals"), stats.evals);
        assert_eq!(m.counter("engine.cache.partition.hits"), stats.cache_hits);
        assert_eq!(
            m.counter("engine.subgraph.scorings"),
            stats.subgraph_scorings
        );
        // The dispatch was timed into both wall_ms and the histogram.
        assert!(stats.wall_ms > 0.0);
        let hist = m.histogram("engine.batch.latency_ns").expect("registered");
        assert_eq!(hist.count, 1);
        // And the batch event fired.
        let events = telemetry.events();
        assert!(events.iter().any(|e| e.name == "engine.batch"));
    }

    #[test]
    fn disabled_telemetry_still_feeds_stats() {
        let g = cocco_graph::models::chain(3);
        let eval = Evaluator::new(&g, AcceleratorConfig::default());
        let engine = Engine::new(EngineConfig::serial());
        assert!(!engine.telemetry().is_enabled());
        let subgraphs = vec![g.node_ids().collect::<Vec<_>>()];
        let buffer = BufferConfig::shared(1 << 20);
        engine.dispatch(1, |_| {
            engine.score(&eval, &subgraphs, &buffer, EvalOptions::default());
        });
        let stats = engine.stats();
        assert_eq!(stats.evals, 1);
        assert!(
            stats.wall_ms > 0.0,
            "dispatch timing works without telemetry"
        );
        assert!(engine
            .metrics()
            .histogram("engine.batch.latency_ns")
            .is_none());
    }

    #[test]
    fn cached_leaf_probes_record_no_telemetry() {
        // The zero-perturbation contract on the hot leaf: `score_single`
        // on cached statistics must not emit events, bump histograms, or
        // touch the registry even with telemetry ENABLED — so the
        // disabled path is trivially free too.
        let g = cocco_graph::models::chain(3);
        let eval = Evaluator::new(&g, AcceleratorConfig::default());
        let telemetry = Telemetry::enabled();
        let engine = Engine::with_telemetry(EngineConfig::serial(), telemetry.clone());
        let members: Vec<NodeId> = g.node_ids().collect();
        let buffer = BufferConfig::shared(1 << 20);
        engine.score_single(&eval, &members, &buffer, EvalOptions::default());
        let events_before = telemetry.events().len();
        let snap_before = telemetry.snapshot();
        for _ in 0..100 {
            engine.score_single(&eval, &members, &buffer, EvalOptions::default());
        }
        assert_eq!(telemetry.events().len(), events_before);
        assert_eq!(telemetry.snapshot(), snap_before);
    }

    #[test]
    fn score_partition_arms_are_bit_identical() {
        // The flat-layout entry point, the nested-slice entry point and
        // the whole-partition evaluator agree on every path: cold
        // compose, cache hit and delta hint.
        let g = cocco_graph::models::googlenet();
        let eval = Evaluator::new(&g, AcceleratorConfig::default());
        let engine = Engine::new(EngineConfig::serial());
        let buffer = BufferConfig::shared(1 << 20);
        let options = EvalOptions::default();
        for l in [1usize, 3, 7] {
            let p = cocco_partition::repair(
                &g,
                cocco_partition::Partition::depth_groups(&g, l),
                &|_| true,
            );
            let full = eval
                .eval_partition(&p.subgraphs(), &buffer, options)
                .unwrap();
            let (cold, memo) = engine.score_partition(&eval, &p, &buffer, options, None);
            assert_eq!(cold.ema_bytes, full.ema_bytes, "L={l}");
            assert_eq!(cold.energy_pj, full.energy_pj, "L={l}");
            assert_eq!(cold.fits, full.fits, "L={l}");
            let memo = memo.expect("composed this call");
            let (hit, _) = engine.score_partition(&eval, &p, &buffer, options, None);
            assert_eq!(hit, cold, "L={l}");
            let clean = PartitionDelta::clean(g.len());
            let (hinted, _) =
                engine.score_partition(&eval, &p, &buffer, options, Some((&memo, &clean)));
            assert_eq!(hinted, cold, "L={l}");
            let via_slices = engine.score(&eval, &p.subgraphs(), &buffer, options);
            assert_eq!(via_slices, cold, "cache-keyed identity across entry points");
        }
    }

    #[test]
    fn score_partition_delta_hint_reuses_terms() {
        let g = cocco_graph::models::chain(7);
        let eval = Evaluator::new(&g, AcceleratorConfig::default());
        let engine = Engine::new(EngineConfig::serial());
        let buffer = BufferConfig::shared(1 << 20);
        let options = EvalOptions::default();
        let ids: Vec<NodeId> = g.node_ids().collect();
        // Pairs {0,1} {2,3} {4,5} {6,7} as a partition assignment.
        let p = cocco_partition::Partition::from_assignment(vec![0, 0, 1, 1, 2, 2, 3, 3]);
        let (scored, memo) = engine.score_partition(&eval, &p, &buffer, options, None);
        let memo = memo.expect("composed this call");
        assert!(!scored.error);
        // Split the last pair; mark exactly its members dirty.
        let mutated = cocco_partition::Partition::from_assignment(vec![0, 0, 1, 1, 2, 2, 3, 4]);
        let mut delta = PartitionDelta::clean(8);
        delta.touch_members(&[ids[6], ids[7]]);
        let before = engine.stats();
        let (inc, _) =
            engine.score_partition(&eval, &mutated, &buffer, options, Some((&memo, &delta)));
        let after = engine.stats();
        assert_eq!(after.subgraph_reused - before.subgraph_reused, 2);
        let direct = eval
            .eval_partition(&mutated.subgraphs(), &buffer, options)
            .unwrap();
        assert_eq!(inc.ema_bytes, direct.ema_bytes);
        assert_eq!(inc.energy_pj, direct.energy_pj);
        assert_eq!(
            after.stats_canonicalize_fallbacks, 0,
            "arena delta path must stay clean"
        );
    }

    #[test]
    fn arena_metrics_report_reuse_after_warmup() {
        let g = cocco_graph::models::googlenet();
        let eval = Evaluator::new(&g, AcceleratorConfig::default());
        let engine = Engine::new(EngineConfig::serial());
        let buffer = BufferConfig::shared(1 << 20);
        let p =
            cocco_partition::repair(&g, cocco_partition::Partition::depth_groups(&g, 3), &|_| {
                true
            });
        // Distinct options defeat the partition cache so every call
        // rebuilds the layout into the warmed arena.
        for batch in 1..=8u32 {
            engine.score_partition(&eval, &p, &buffer, EvalOptions::with_batch(batch), None);
        }
        let m = engine.metrics();
        assert!(m.gauge("engine.arena.bytes") > 0);
        assert!(
            m.counter("engine.arena.reuses") >= 6,
            "warmed builds must reuse capacity: {} reuses, {} grows",
            m.counter("engine.arena.reuses"),
            m.counter("engine.arena.grows")
        );
        assert_eq!(m.counter("engine.stats_canonicalize_fallbacks"), 0);
        assert_eq!(engine.stats().stats_canonicalize_fallbacks, 0);
    }

    #[test]
    fn batch_alloc_bytes_histogram_records_warmed_zero() {
        let g = cocco_graph::models::chain(6);
        let eval = Evaluator::new(&g, AcceleratorConfig::default());
        let telemetry = Telemetry::enabled();
        let engine = Engine::with_telemetry(EngineConfig::serial(), telemetry);
        let buffer = BufferConfig::shared(1 << 20);
        let p = cocco_partition::Partition::from_assignment(vec![0, 0, 1, 1, 2, 2, 3]);
        for _ in 0..3 {
            engine.dispatch(1, |_| {
                engine.score_partition(&eval, &p, &buffer, EvalOptions::default(), None);
            });
        }
        let m = engine.metrics();
        let hist = m.histogram("engine.batch.alloc_bytes").expect("registered");
        assert_eq!(hist.count, 3);
        // The first dispatch grows the arenas; the warmed repeats record
        // exactly zero growth (the cached probes allocate nothing).
        assert!(hist.counts[0] >= 2, "warmed dispatches must record 0 bytes");
    }

    #[test]
    fn prepare_then_score_prepared_matches_one_shot_scoring() {
        let g = cocco_graph::models::googlenet();
        let eval = Evaluator::new(&g, AcceleratorConfig::default());
        let buffer = BufferConfig::shared(1 << 20);
        let options = EvalOptions::default();
        let two_phase = Engine::new(EngineConfig::with_threads(2));
        let one_shot = Engine::new(EngineConfig::with_threads(2));
        let p =
            cocco_partition::repair(&g, cocco_partition::Partition::depth_groups(&g, 4), &|_| {
                true
            });
        let prepared = match two_phase.prepare_partition(&eval, &p, &buffer, options, None) {
            PartitionProbe::Miss(prepared) => prepared,
            PartitionProbe::Hit(..) => panic!("cold cache cannot hit"),
        };
        let slot = std::sync::Mutex::new(Some(prepared));
        let result = std::sync::Mutex::new(None);
        two_phase.dispatch(1, |_| {
            let prepared = slot.lock().unwrap().take().unwrap();
            *result.lock().unwrap() =
                Some(two_phase.score_prepared(0, &eval, &p, &buffer, options, None, prepared));
        });
        let (scored, memo) = result.into_inner().unwrap().unwrap();
        let (direct, direct_memo) = one_shot.score_partition(&eval, &p, &buffer, options, None);
        assert_eq!(scored, direct);
        assert_eq!(memo.is_some(), direct_memo.is_some());
        // The dispatch-end publish made the staged entries visible: the
        // next prepare is a pure cache hit handing back the memo.
        assert_eq!(two_phase.cache().snapshot(), one_shot.cache().snapshot());
        match two_phase.prepare_partition(&eval, &p, &buffer, options, None) {
            PartitionProbe::Hit(cached, hit_memo) => {
                assert_eq!(cached, scored);
                assert_eq!(hit_memo.is_some(), memo.is_some());
            }
            PartitionProbe::Miss(_) => panic!("published entry must hit"),
        }
        // Exactly one partition-level probe missed (the first prepare);
        // score_prepared never re-probed.
        assert_eq!(two_phase.stats().evals, 2);
        assert_eq!(two_phase.stats().cache_hits, 1);
    }

    #[test]
    fn adaptive_scheduling_and_chunking_are_observable() {
        let engine = Engine::new(
            EngineConfig::with_threads(2)
                .with_chunk(crate::config::ChunkSize::Auto)
                .with_parallel_threshold(8),
        );
        let hits = AtomicU64::new(0);
        // Under the threshold: runs inline, all jobs still execute.
        engine.dispatch(4, |_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        // Over the threshold: chunked pool dispatch (64 jobs / (2*4) = 8
        // jobs per chunk → 8 chunks).
        engine.dispatch(64, |_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 68);
        let m = engine.metrics();
        assert_eq!(m.counter("engine.pool.dispatched"), 68);
        assert_eq!(m.counter("engine.pool.inline_batches"), 1);
        assert_eq!(m.counter("engine.pool.chunks"), 8);
        // Per-candidate reference arm: no chunking, no inline batches.
        let reference = Engine::new(
            EngineConfig::with_threads(2)
                .with_chunk(crate::config::ChunkSize::Fixed(1))
                .with_parallel_threshold(0),
        );
        reference.dispatch(4, |_| {});
        let m = reference.metrics();
        assert_eq!(m.counter("engine.pool.dispatched"), 4);
        assert_eq!(m.counter("engine.pool.inline_batches"), 0);
        assert_eq!(m.counter("engine.pool.chunks"), 0);
    }

    #[test]
    fn deferred_publication_is_thread_count_invariant() {
        // Score distinct partitions as one batch at 1 and 4 threads
        // (chunked and not): every job sees only the cache state from
        // before its batch, so the published cache and the engine's
        // counters are identical everywhere.
        use crate::config::ChunkSize;
        let g = cocco_graph::models::googlenet();
        let eval = Evaluator::new(&g, AcceleratorConfig::default());
        let buffer = BufferConfig::shared(1 << 20);
        let options = EvalOptions::default();
        let partitions: Vec<Partition> = (1..=6usize)
            .map(|l| {
                cocco_partition::repair(
                    &g,
                    cocco_partition::Partition::depth_groups(&g, l),
                    &|_| true,
                )
            })
            .collect();
        let run = |threads: u32, chunk: ChunkSize| {
            let engine = Engine::new(
                EngineConfig::with_threads(threads)
                    .with_chunk(chunk)
                    .with_parallel_threshold(0),
            );
            engine.dispatch(partitions.len(), |i| {
                let p = &partitions[i];
                match engine.prepare_partition(&eval, p, &buffer, options, None) {
                    PartitionProbe::Miss(prepared) => {
                        engine.score_prepared(i as u64, &eval, p, &buffer, options, None, prepared);
                    }
                    PartitionProbe::Hit(..) => panic!("a job saw an entry staged in its batch"),
                }
            });
            let s = engine.stats();
            (
                engine.cache().snapshot(),
                (
                    s.evals,
                    s.cache_hits,
                    s.subgraph_scorings,
                    s.subgraph_reused,
                ),
            )
        };
        let reference = run(1, ChunkSize::Fixed(1));
        assert_eq!(reference, run(4, ChunkSize::Fixed(1)));
        assert_eq!(reference, run(4, ChunkSize::Auto));
        assert_eq!(reference, run(1, ChunkSize::Auto));
    }

    #[test]
    fn unfit_partitions_cost_infinity_but_keep_metrics() {
        let g = cocco_graph::models::chain(5);
        let eval = Evaluator::new(&g, AcceleratorConfig::default());
        let engine = Engine::new(EngineConfig::serial());
        let subgraphs = vec![g.node_ids().collect::<Vec<_>>()];
        let tiny = BufferConfig::shared(256);
        let scored = engine.score(&eval, &subgraphs, &tiny, EvalOptions::default());
        assert!(!scored.fits);
        assert!(!scored.error);
        assert!(scored.cost(CostMetric::Ema, None).is_infinite());
        assert!(scored.metric(CostMetric::Ema).is_finite());
    }
}
