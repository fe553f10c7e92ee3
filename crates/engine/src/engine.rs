//! The engine core: memoized scoring plus run statistics.
//!
//! A partition is scored by one fold over its flat layout: each
//! subgraph's statistics come from the evaluator's stats cache, its
//! successor's weight footprint is its `next_wgt`, and
//! `Evaluator::eval_subgraph` gives its term. The fold runs in execution
//! order, so every score is bit-identical to `Evaluator::eval_partition`.
//! Whole-partition roll-ups are memoized in the [`EvalCache`] under a key
//! folded from each subgraph's 128-bit [`NodeSetFp`].
//!
//! Every scoring path reads the layout and the fingerprints from a slot's
//! [`RepairScratch`](cocco_partition::RepairScratch): a batch candidate's
//! repair leaves them there ([`Engine::with_slot`], then
//! [`Engine::score_slot`]), and the entry points that take a partition lay
//! it out into the scratch first. Nothing is laid out or fingerprinted
//! twice, and nothing is copied out of the slot.

use crate::arena::{EvalArena, ScratchPool};
use crate::cache::{EvalCache, EvalKey};
use crate::config::EngineConfig;
use crate::pool::EnginePool;
use cocco_graph::NodeSetFp;
use cocco_partition::{Partition, PartitionDelta, PartitionLayout, RepairScratch};
use cocco_sim::{BufferConfig, CostMetric, EvalOptions, Evaluator, SubgraphStats};
use cocco_telemetry::{Histogram, MetricsSnapshot, Stopwatch, Telemetry};
use serde::{Deserialize, Serialize};
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

/// The cache key carried from a [`Engine::prepare_partition`] miss to the
/// [`Engine::score_prepared`] call that computes it: the shared-cache miss
/// was counted exactly once (`score_prepared` computes without
/// re-probing).
#[derive(Debug)]
pub struct PreparedEval {
    key: EvalKey,
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

/// The coordinates a partition was scored under — evaluator fingerprint,
/// buffer and options — handed to searchers with every successful score
/// (cache hit or fresh composition) and carried into its offspring's
/// `EvalHint`.
///
/// Repair reads them to seed an offspring from its parent: when the
/// parent was scored under this evaluator and these options and no buffer
/// component shrank, the parent's multi-node subgraphs are known to fit.
/// An errored score hands out no memo, so such a parent never seeds a
/// repair that skips `fits` calls.
#[derive(Debug)]
pub struct EvalMemo {
    fingerprint: u64,
    buffer: BufferConfig,
    options: EvalOptions,
}

impl EvalMemo {
    /// The memo of a score under these coordinates; `None` for an errored
    /// score.
    fn of(
        evaluator: &Evaluator<'_>,
        buffer: &BufferConfig,
        options: EvalOptions,
        scored: &ScoredEval,
    ) -> Option<Arc<Self>> {
        (!scored.error).then(|| {
            Arc::new(Self {
                fingerprint: evaluator.fingerprint(),
                buffer: *buffer,
                options,
            })
        })
    }

    /// The coordinates the memo was scored under: evaluator fingerprint,
    /// buffer and options.
    pub fn coordinates(&self) -> (u64, BufferConfig, EvalOptions) {
        (self.fingerprint, self.buffer, self.options)
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
    /// Always 0; read by perfbench's replica.
    pub subgraph_reused: u64,
    /// Statistics misses that had to sort a copy of an out-of-order
    /// member list (see `Evaluator::stats_canonicalize_fallbacks`) — the
    /// hot-path allocation tripwire: 0 on every production path, asserted
    /// by the CI smoke benchmark. (Values that *escape* the dispatch —
    /// memos, repaired partitions, cache inserts — are inherent and not
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
            subgraph_reused: 0,
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

    /// Total subgraph-term requests: `subgraph_scorings`, since
    /// `subgraph_reused` is always 0.
    pub fn subgraph_requests(&self) -> u64 {
        self.subgraph_scorings + self.subgraph_reused
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
/// use cocco_partition::Partition;
/// use cocco_sim::{AcceleratorConfig, BufferConfig, EvalOptions, Evaluator};
///
/// let g = cocco_graph::models::chain(4);
/// let eval = Evaluator::new(&g, AcceleratorConfig::default());
/// let engine = Engine::new(EngineConfig::serial());
/// let whole = Partition::from_assignment(vec![0; g.len()]);
/// let buffer = BufferConfig::shared(1 << 20);
/// let (a, _) = engine.score_partition(&eval, &whole, &buffer, EvalOptions::default());
/// let (b, _) = engine.score_partition(&eval, &whole, &buffer, EvalOptions::default());
/// assert_eq!(a, b);
/// assert_eq!(engine.stats().cache_hits, 1);
/// ```
#[derive(Debug)]
pub struct Engine {
    config: EngineConfig,
    pool: EnginePool,
    cache: EvalCache,
    /// Per-worker scratch (repair buffers with the layout and
    /// fingerprints scoring reads, and staged cache entries); one more
    /// slot than worker threads, claimed per candidate job or scoring
    /// call.
    scratch: ScratchPool,
    wall_nanos: AtomicU64,
    /// Subgraph terms computed fresh (`engine.subgraph.scorings`).
    scorings: AtomicU64,
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

    /// Scores a [`Partition`] under `buffer`/`options`, memoized, and
    /// publishes a fresh result to the cache at once. The partition is laid
    /// out into this call's scratch slot (as a flat [`PartitionLayout`]
    /// plus fingerprints) without per-candidate allocations.
    ///
    /// Evaluator errors are folded into the result (`error = true`, so
    /// [`ScoredEval::cost`] is infinite) and memoized like any other
    /// evaluation — re-scoring a broken configuration is as cheap and as
    /// deterministic as re-scoring a good one. The returned [`EvalMemo`]
    /// is `None` exactly for errored scores.
    pub fn score_partition(
        &self,
        evaluator: &Evaluator<'_>,
        partition: &Partition,
        buffer: &BufferConfig,
        options: EvalOptions,
    ) -> (ScoredEval, Option<Arc<EvalMemo>>) {
        self.scratch.with_slot(|arena| {
            arena.repair.describe(partition);
            self.score_laid_out(arena, None, evaluator, buffer, options)
        })
    }

    /// Runs `f` with an exclusive scratch slot: the home of one batch
    /// candidate's whole job. Repair the candidate in the slot's
    /// [`EvalArena::repair_scratch`], then score it with
    /// [`score_slot`](Self::score_slot) — the probe and a miss's fold read
    /// the layout and fingerprints repair left there. Do not claim another
    /// slot inside `f`.
    pub fn with_slot<R>(&self, f: impl FnOnce(&mut EvalArena) -> R) -> R {
        self.scratch.with_slot(f)
    }

    /// Scores the partition whose layout and fingerprints `slot`'s repair
    /// scratch holds (left by `RepairScratch::repair` or
    /// `RepairScratch::describe`) as batch job `seq`: probes the shared
    /// cache and, on a miss, folds the score from the slot and stages the
    /// entry under `seq` — the candidate's funding-order sequence number —
    /// for publication at the end of the enclosing
    /// [`dispatch`](Self::dispatch). Call it only from jobs running under
    /// `dispatch`/[`try_dispatch`](Self::try_dispatch).
    pub fn score_slot(
        &self,
        slot: &mut EvalArena,
        seq: u64,
        evaluator: &Evaluator<'_>,
        buffer: &BufferConfig,
        options: EvalOptions,
    ) -> (ScoredEval, Option<Arc<EvalMemo>>) {
        self.score_laid_out(slot, Some(seq), evaluator, buffer, options)
    }

    /// The scoring core: probes for the partition laid out in `slot` and,
    /// on a miss, composes it and publishes the entry — staged under the
    /// given sequence number, or at once without one.
    fn score_laid_out(
        &self,
        slot: &mut EvalArena,
        staged_as: Option<u64>,
        evaluator: &Evaluator<'_>,
        buffer: &BufferConfig,
        options: EvalOptions,
    ) -> (ScoredEval, Option<Arc<EvalMemo>>) {
        let EvalArena { repair, staged } = slot;
        let scored = match self.probe(repair, evaluator, buffer, options) {
            Ok(cached) => cached,
            Err(key) => {
                let scored = self.compose(evaluator, repair, buffer, options);
                match staged_as {
                    Some(seq) => staged.push((seq, key, scored)),
                    None => {
                        self.cache.insert(key, scored);
                    }
                }
                scored
            }
        };
        self.note_stats_fallbacks(evaluator);
        (scored, EvalMemo::of(evaluator, buffer, options, &scored))
    }

    /// The probe half of scoring a batch candidate, for callers that hold
    /// a [`Partition`] rather than a slot: lays the partition out and
    /// probes the shared cache. A [`PartitionProbe::Hit`] is the finished
    /// score. A [`PartitionProbe::Miss`] carries the key to
    /// [`score_prepared`](Self::score_prepared), which computes without
    /// re-probing (the miss was counted here, once). Production jobs use
    /// [`with_slot`](Self::with_slot) and [`score_slot`](Self::score_slot)
    /// instead, which lay a candidate out once.
    ///
    /// `hint` is ignored; the parameter stays for existing callers.
    pub fn prepare_partition(
        &self,
        evaluator: &Evaluator<'_>,
        partition: &Partition,
        buffer: &BufferConfig,
        options: EvalOptions,
        _hint: Option<(&EvalMemo, &PartitionDelta)>,
    ) -> PartitionProbe {
        self.scratch.with_slot(|arena| {
            arena.repair.describe(partition);
            match self.probe(&arena.repair, evaluator, buffer, options) {
                Ok(cached) => {
                    self.note_stats_fallbacks(evaluator);
                    PartitionProbe::Hit(cached, EvalMemo::of(evaluator, buffer, options, &cached))
                }
                Err(key) => PartitionProbe::Miss(PreparedEval { key }),
            }
        })
    }

    /// The compute half of scoring a batch candidate: finishes a
    /// [`PartitionProbe::Miss`] from
    /// [`prepare_partition`](Self::prepare_partition) under its key, and
    /// stages the entry it computes under `seq`, as
    /// [`score_slot`](Self::score_slot) does. Call it only from jobs
    /// running under `dispatch`/[`try_dispatch`](Self::try_dispatch).
    ///
    /// `partition` must be the value the probe was prepared from; it is
    /// laid out again into this call's slot. `hint` is ignored, like
    /// `prepare_partition`'s.
    #[allow(clippy::too_many_arguments)]
    pub fn score_prepared(
        &self,
        seq: u64,
        evaluator: &Evaluator<'_>,
        partition: &Partition,
        buffer: &BufferConfig,
        options: EvalOptions,
        _hint: Option<&EvalMemo>,
        prepared: PreparedEval,
    ) -> (ScoredEval, Option<Arc<EvalMemo>>) {
        self.scratch.with_slot(|arena| {
            arena.repair.describe(partition);
            let scored = self.compose(evaluator, &arena.repair, buffer, options);
            arena.staged.push((seq, prepared.key, scored));
            self.note_stats_fallbacks(evaluator);
            (scored, EvalMemo::of(evaluator, buffer, options, &scored))
        })
    }

    /// Folds the roll-up key from the fingerprints in `repair` and probes
    /// the shared cache: the cached score, or the key a miss computes
    /// under. This is the only place a roll-up key is derived.
    fn probe(
        &self,
        repair: &RepairScratch,
        evaluator: &Evaluator<'_>,
        buffer: &BufferConfig,
        options: EvalOptions,
    ) -> Result<ScoredEval, EvalKey> {
        let key = EvalKey::partition(
            evaluator.fingerprint(),
            repair.fingerprints().iter().copied(),
            buffer,
            options,
        );
        self.cache.get(&key).ok_or(key)
    }

    /// Scores one subgraph as a standalone single-subgraph partition
    /// (`next_wgt = 0`) from statistics the caller already holds (from
    /// `Evaluator::subgraph_stats`), without allocating an owned partition
    /// — the additive Formula-1 term used by the greedy/DP/enumeration hot
    /// loops, which read the statistics once for the fit check and the
    /// term alike.
    pub fn score_single(
        &self,
        evaluator: &Evaluator<'_>,
        stats: &SubgraphStats,
        buffer: &BufferConfig,
        options: EvalOptions,
    ) -> ScoredEval {
        self.scorings.fetch_add(1, Ordering::Relaxed);
        let part = evaluator.eval_subgraph(stats, 0, buffer, options);
        ScoredEval {
            ema_bytes: part.ema_bytes,
            energy_pj: part.energy_pj,
            buffer_bytes: buffer.total_bytes(),
            fits: part.fits,
            error: false,
        }
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

    /// Composes the score of the partition laid out in `repair`, counting
    /// its `eval_subgraph` terms as subgraph scorings once.
    fn compose(
        &self,
        evaluator: &Evaluator<'_>,
        repair: &RepairScratch,
        buffer: &BufferConfig,
        options: EvalOptions,
    ) -> ScoredEval {
        let mut terms = 0;
        let scored = fold(
            evaluator,
            &repair.layout(),
            repair.fingerprints(),
            buffer,
            options,
            &mut terms,
        );
        self.scorings.fetch_add(terms, Ordering::Relaxed);
        scored
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
    /// dispatching thread (inline batches panic in place; a parallel batch
    /// re-raises the first payload once every worker, the caller and the
    /// persistent helpers, has finished, and the helpers stay alive), and
    /// the engine stays fully usable afterwards: the pool keeps its
    /// threads, the cache tolerates poisoned shards, and the failed
    /// batch's staged entries are discarded, so the cache holds exactly
    /// what it held before the batch, at any thread count.
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
        for (_, key, scored) in staged {
            self.cache.insert(key, scored);
        }
    }

    /// The authoritative metrics snapshot: everything live telemetry
    /// recorded (batch/queue histograms, sweep events' counters) plus
    /// the engine's own counters absorbed under their metric names —
    /// `engine.evals`, `engine.cache.partition.*`, `engine.subgraph.scorings`,
    /// `engine.stats_canonicalize_fallbacks`,
    /// `engine.arena.{bytes,reuses,grows,repair_skips}`, `engine.pool.*`,
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
            "engine.stats_canonicalize_fallbacks",
            self.stats_fallbacks.load(Ordering::Relaxed),
        );
        m.set_gauge("engine.arena.bytes", self.scratch.bytes());
        m.set_counter("engine.arena.reuses", self.scratch.reuses());
        m.set_counter("engine.arena.grows", self.scratch.grows());
        m.set_counter("engine.arena.repair_skips", self.scratch.repair_skips());
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

/// Composes a partition score in one walk over `layout`: each position's
/// statistics come from the evaluator's stats cache (keyed by its
/// fingerprint in `fps`), its `next_wgt` is the next position's weight
/// footprint, and its term comes from `eval_subgraph`, counted in `terms`.
/// The fold runs in execution order, so the sums are bit-identical to
/// `Evaluator::eval_partition`.
fn fold(
    evaluator: &Evaluator<'_>,
    layout: &PartitionLayout<'_>,
    fps: &[NodeSetFp],
    buffer: &BufferConfig,
    options: EvalOptions,
    terms: &mut u64,
) -> ScoredEval {
    let n = layout.num_subgraphs();
    let stats_at = |i: usize| evaluator.subgraph_stats_keyed(fps[i], layout.subgraph(i));
    if n == 0 {
        return ScoredEval::errored(buffer);
    }
    let Ok(mut stats) = stats_at(0) else {
        return ScoredEval::errored(buffer);
    };
    let mut ema_bytes: u64 = 0;
    let mut energy_pj: f64 = 0.0;
    let mut fits = true;
    for i in 0..n {
        let next = match (i + 1 < n).then(|| stats_at(i + 1)) {
            Some(Ok(next)) => Some(next),
            Some(Err(_)) => return ScoredEval::errored(buffer),
            None => None,
        };
        let next_wgt = next.map_or(0, |s| s.ema_wgt_bytes);
        *terms += 1;
        let part = evaluator.eval_subgraph(&stats, next_wgt, buffer, options);
        ema_bytes += part.ema_bytes;
        energy_pj += part.energy_pj;
        fits &= part.fits;
        if let Some(next) = next {
            stats = next;
        }
    }
    ScoredEval {
        ema_bytes,
        energy_pj,
        buffer_bytes: buffer.total_bytes(),
        fits,
        error: false,
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
    use cocco_graph::NodeId;
    use cocco_sim::AcceleratorConfig;

    #[test]
    fn try_dispatch_catches_panics_and_leaves_the_engine_usable() {
        let g = cocco_graph::models::diamond();
        let eval = Evaluator::new(&g, AcceleratorConfig::default());
        let buffer = BufferConfig::shared(1 << 20);
        let options = EvalOptions::default();
        let singletons = Partition::singletons(g.len());
        let partition = Partition::from_assignment(vec![0, 0, 1, 1, 2]);
        for config in [EngineConfig::serial(), EngineConfig::with_threads(2)] {
            let engine = Engine::new(config);
            let baseline = engine.score_partition(&eval, &singletons, &buffer, options);
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
            let again = engine.score_partition(&eval, &singletons, &buffer, options);
            assert_eq!(again.0, baseline.0);
        }
    }

    #[test]
    fn score_matches_direct_evaluation() {
        let g = cocco_graph::models::diamond();
        let eval = Evaluator::new(&g, AcceleratorConfig::default());
        let engine = Engine::new(EngineConfig::serial());
        let singletons = Partition::singletons(g.len());
        let buffer = BufferConfig::shared(1 << 20);
        let (scored, _) =
            engine.score_partition(&eval, &singletons, &buffer, EvalOptions::default());
        let report = eval
            .eval_partition(&singletons.subgraphs(), &buffer, EvalOptions::default())
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
    fn roll_up_hits_hand_back_memos() {
        // A genome whose score comes from the partition cache still
        // receives a memo, so its offspring's repair can be seeded.
        let g = cocco_graph::models::chain(5);
        let eval = Evaluator::new(&g, AcceleratorConfig::default());
        let engine = Engine::new(EngineConfig::serial());
        let buffer = BufferConfig::shared(1 << 20);
        let options = EvalOptions::default();
        let pairs = Partition::from_assignment(vec![0, 0, 1, 1, 2, 2]);
        let (first, first_memo) = engine.score_partition(&eval, &pairs, &buffer, options);
        let coordinates = (eval.fingerprint(), buffer, options);
        assert_eq!(first_memo.expect("composed").coordinates(), coordinates);
        let (second, second_memo) = engine.score_partition(&eval, &pairs, &buffer, options);
        assert_eq!(first, second);
        assert_eq!(engine.stats().cache_hits, 1);
        let memo = second_memo.expect("roll-up hit must hand back a memo");
        assert_eq!(memo.coordinates(), coordinates);
    }

    #[test]
    fn restored_hits_hand_out_memos_with_the_probe_coordinates() {
        // Entries restored from a snapshot carry no memo of their own, so
        // a hit builds one from the probe's coordinates. An errored entry
        // hands out none, hit or miss.
        let g = cocco_graph::models::chain(5);
        let eval = Evaluator::new(&g, AcceleratorConfig::default());
        let buffer = BufferConfig::shared(1 << 20);
        let options = EvalOptions::with_batch(2);
        let pairs = Partition::from_assignment(vec![0, 0, 1, 1, 2, 2]);
        let empty = Partition::singletons(0);
        let filled = Engine::new(EngineConfig::serial());
        let (scored, _) = filled.score_partition(&eval, &pairs, &buffer, options);
        let (errored, none) = filled.score_partition(&eval, &empty, &buffer, options);
        assert!(errored.error && none.is_none());
        let warm = Engine::new(EngineConfig::serial());
        warm.cache().restore(&filled.cache().snapshot());
        match warm.prepare_partition(&eval, &pairs, &buffer, options, None) {
            PartitionProbe::Hit(cached, memo) => {
                assert_eq!(cached, scored);
                let memo = memo.expect("a restored hit hands out a memo");
                assert_eq!(memo.coordinates(), (eval.fingerprint(), buffer, options));
            }
            PartitionProbe::Miss(_) => panic!("the restored entry must hit"),
        }
        match warm.prepare_partition(&eval, &empty, &buffer, options, None) {
            PartitionProbe::Hit(cached, memo) => {
                assert!(cached.error);
                assert!(memo.is_none(), "an errored hit hands out no memo");
            }
            PartitionProbe::Miss(_) => panic!("the restored errored entry must hit"),
        }
        assert_eq!(warm.stats().cache_hits, 2);
    }

    #[test]
    fn score_single_matches_single_subgraph_partition() {
        let g = cocco_graph::models::chain(3);
        let eval = Evaluator::new(&g, AcceleratorConfig::default());
        let engine = Engine::new(EngineConfig::serial());
        let members: Vec<NodeId> = g.node_ids().collect();
        let buffer = BufferConfig::shared(1 << 20);
        let stats = eval.subgraph_stats(&members).unwrap();
        let single = engine.score_single(&eval, &stats, &buffer, EvalOptions::default());
        let whole = Partition::from_assignment(vec![0; g.len()]);
        let (via_partition, _) =
            engine.score_partition(&eval, &whole, &buffer, EvalOptions::default());
        assert_eq!(single, via_partition);
        // Each route computed its term fresh from the cached statistics.
        assert_eq!(engine.stats().subgraph_scorings, 2);
        assert_eq!(eval.stats_cache_misses(), 1);
    }

    #[test]
    fn errors_are_memoized_and_infinite() {
        let g = cocco_graph::models::chain(2);
        let eval = Evaluator::new(&g, AcceleratorConfig::default());
        let engine = Engine::new(EngineConfig::serial());
        // No subgraph at all: a structural evaluator error.
        let broken = Partition::singletons(0);
        let buffer = BufferConfig::shared(1 << 20);
        let (scored, memo) =
            engine.score_partition(&eval, &broken, &buffer, EvalOptions::default());
        assert!(scored.error);
        assert!(memo.is_none(), "an errored score hands out no memo");
        assert!(scored.cost(CostMetric::Ema, None).is_infinite());
        assert!(scored.metric(CostMetric::Ema).is_infinite());
        let (again, _) = engine.score_partition(&eval, &broken, &buffer, EvalOptions::default());
        assert_eq!(scored, again);
        assert_eq!(engine.stats().cache_hits, 1);
    }

    #[test]
    fn stats_snapshot_counts() {
        let g = cocco_graph::models::chain(3);
        let eval = Evaluator::new(&g, AcceleratorConfig::default());
        let engine = Engine::new(EngineConfig::with_threads(2));
        let whole = Partition::from_assignment(vec![0; g.len()]);
        let buffer = BufferConfig::shared(1 << 20);
        engine.dispatch(1, |_| {
            for _ in 0..3 {
                engine.score_partition(&eval, &whole, &buffer, EvalOptions::default());
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
            let (a, _) = bounded.score_partition(&eval, &p, &buffer, EvalOptions::default());
            let (b, _) = unbounded.score_partition(&eval, &p, &buffer, EvalOptions::default());
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
        // Both graphs have 5 nodes; score each as one whole subgraph.
        let whole = Partition::from_assignment(vec![0; 5]);
        let (via_engine_chain, _) = engine.score_partition(&chain_eval, &whole, &buffer, options);
        let (via_engine_diamond, _) =
            engine.score_partition(&diamond_eval, &whole, &buffer, options);
        let direct_chain = chain_eval
            .eval_partition(&whole.subgraphs(), &buffer, options)
            .unwrap();
        let direct_diamond = diamond_eval
            .eval_partition(&whole.subgraphs(), &buffer, options)
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
        let whole = Partition::from_assignment(vec![0; g.len()]);
        let buffer = BufferConfig::shared(1 << 20);
        engine.dispatch(2, |_| {
            engine.score_partition(&eval, &whole, &buffer, EvalOptions::default());
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
        let whole = Partition::from_assignment(vec![0; g.len()]);
        let buffer = BufferConfig::shared(1 << 20);
        engine.dispatch(1, |_| {
            engine.score_partition(&eval, &whole, &buffer, EvalOptions::default());
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
        let probe = || {
            let stats = eval.subgraph_stats(&members).unwrap();
            engine.score_single(&eval, &stats, &buffer, EvalOptions::default());
        };
        probe();
        let events_before = telemetry.events().len();
        let snap_before = telemetry.snapshot();
        for _ in 0..100 {
            probe();
        }
        assert_eq!(telemetry.events().len(), events_before);
        assert_eq!(telemetry.snapshot(), snap_before);
    }

    #[test]
    fn score_partition_arms_are_bit_identical() {
        // The direct entry point, the two-phase batch entry points and the
        // whole-partition evaluator agree on every path: cold compose,
        // cache hit, and a probe whose (ignored) hint names a parent.
        let g = cocco_graph::models::googlenet();
        let eval = Evaluator::new(&g, AcceleratorConfig::default());
        let engine = Engine::new(EngineConfig::serial());
        let two_phase = Engine::new(EngineConfig::serial());
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
            let (cold, memo) = engine.score_partition(&eval, &p, &buffer, options);
            assert_eq!(cold.ema_bytes, full.ema_bytes, "L={l}");
            assert_eq!(cold.energy_pj, full.energy_pj, "L={l}");
            assert_eq!(cold.fits, full.fits, "L={l}");
            let (hit, _) = engine.score_partition(&eval, &p, &buffer, options);
            assert_eq!(hit, cold, "L={l}");
            let memo = memo.expect("composed this call");
            let clean = PartitionDelta::clean(g.len());
            let PartitionProbe::Miss(prepared) =
                two_phase.prepare_partition(&eval, &p, &buffer, options, Some((&memo, &clean)))
            else {
                panic!("L={l}: the second engine's cache is cold");
            };
            let staged = std::sync::Mutex::new(Some(prepared));
            two_phase.dispatch(1, |_| {
                let prepared = staged.lock().unwrap().take().unwrap();
                let (scored, _) =
                    two_phase.score_prepared(0, &eval, &p, &buffer, options, Some(&memo), prepared);
                assert_eq!(scored, cold, "L={l}: two-phase scoring diverged");
            });
        }
        assert_eq!(engine.cache().snapshot(), two_phase.cache().snapshot());
    }

    #[test]
    fn score_slot_scores_what_repair_left_in_the_slot() {
        // A candidate job: repair a broken partition in the slot, then
        // score it from the slot. The score, the published entry and the
        // counters equal scoring the repaired partition directly.
        let g = cocco_graph::models::googlenet();
        let eval = Evaluator::new(&g, AcceleratorConfig::default());
        let buffer = BufferConfig::shared(1 << 20);
        let options = EvalOptions::default();
        let jobs = Engine::new(EngineConfig::with_threads(2));
        let direct = Engine::new(EngineConfig::serial());
        let broken: Vec<u32> = (0..g.len() as u32).map(|i| i % 7).collect();
        let repaired = std::sync::Mutex::new(None);
        jobs.dispatch(1, |_| {
            jobs.with_slot(|slot| {
                let mut delta = PartitionDelta::all(g.len());
                let p = slot.repair_scratch().repair(
                    &g,
                    Partition::from_assignment(broken.clone()),
                    &|_| true,
                    &mut delta,
                    None,
                );
                let scored = jobs.score_slot(slot, 0, &eval, &buffer, options);
                *repaired.lock().unwrap() = Some((p, scored));
            });
        });
        let (p, (scored, memo)) = repaired.into_inner().unwrap().unwrap();
        let (want, want_memo) = direct.score_partition(&eval, &p, &buffer, options);
        assert_eq!(scored, want);
        assert_eq!(memo.is_some(), want_memo.is_some());
        assert_eq!(jobs.cache().snapshot(), direct.cache().snapshot());
        let (a, b) = (jobs.stats(), direct.stats());
        assert_eq!(
            (a.evals, a.cache_hits, a.subgraph_scorings),
            (b.evals, b.cache_hits, b.subgraph_scorings)
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
            engine.score_partition(&eval, &p, &buffer, EvalOptions::with_batch(batch));
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
                engine.score_partition(&eval, &p, &buffer, EvalOptions::default());
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
        let (direct, direct_memo) = one_shot.score_partition(&eval, &p, &buffer, options);
        assert_eq!(scored, direct);
        assert_eq!(memo.is_some(), direct_memo.is_some());
        // The dispatch-end publish made the staged entry visible: the next
        // prepare is a pure cache hit handing back a memo.
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
                (s.evals, s.cache_hits, s.subgraph_scorings),
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
        let whole = Partition::from_assignment(vec![0; g.len()]);
        let tiny = BufferConfig::shared(256);
        let (scored, _) = engine.score_partition(&eval, &whole, &tiny, EvalOptions::default());
        assert!(!scored.fits);
        assert!(!scored.error);
        assert!(scored.cost(CostMetric::Ema, None).is_infinite());
        assert!(scored.metric(CostMetric::Ema).is_finite());
    }
}
