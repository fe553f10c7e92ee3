//! Engine configuration: worker-thread policy, cache bounding and pool
//! dispatch granularity.

use serde::{Deserialize, Serialize};

/// How many worker threads the engine uses for batch evaluation: the
/// dispatching thread plus `threads − 1` pool helpers.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ThreadCount {
    /// Use the machine's available parallelism (capped at
    /// [`EngineConfig::AUTO_CAP`]).
    Auto,
    /// Exactly this many workers (`1` = serial evaluation).
    Fixed(u32),
}

/// How many batch indices one pool claim covers. Results are bit-identical
/// at any chunk size — workers still execute every job exactly once and
/// the caller stores results per index — so chunking is purely a
/// dispatch-overhead knob (one channel send + one counter claim per chunk
/// instead of per candidate).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ChunkSize {
    /// Derive the chunk size from the batch size and worker count
    /// (`ceil(jobs / (threads * 4))` — four claims per worker keep the
    /// tail balanced while collapsing per-candidate claims). The default.
    Auto,
    /// Exactly this many jobs per chunk (`1` = one claim per candidate).
    Fixed(u32),
}

/// Configuration of the evaluation engine.
///
/// Results are **identical at any thread count, chunk size, inline
/// threshold and cache capacity** — the engine assigns budget samples and
/// records trace points in input order regardless of which worker scores
/// which genome, publishes a batch's new cache entries in funding order,
/// and recomputes evicted entries to bit-identical values — so every knob
/// here is purely about wall-clock and memory.
///
/// # Examples
///
/// ```
/// use cocco_engine::{ChunkSize, EngineConfig};
///
/// assert_eq!(EngineConfig::serial().resolved_threads(), 1);
/// assert_eq!(EngineConfig::with_threads(4).resolved_threads(), 4);
/// assert!(EngineConfig::auto().resolved_threads() >= 1);
/// let chunked = EngineConfig::with_threads(4).with_chunk(ChunkSize::Fixed(8));
/// assert_eq!(chunked.resolved_chunk(100), 8);
/// let bounded = EngineConfig::auto().with_cache_capacity(10_000);
/// assert_eq!(bounded.cache_capacity, 10_000);
/// ```
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineConfig {
    /// Worker-thread policy.
    pub threads: ThreadCount,
    /// Upper bound on cached partition roll-ups. When the cache fills up,
    /// a generation sweep evicts the entries not touched since the
    /// previous sweep (evictions are counted in `EngineStats`). Defaults
    /// to [`DEFAULT_CACHE_CAPACITY`](Self::DEFAULT_CACHE_CAPACITY).
    pub cache_capacity: usize,
    /// Batches with fewer jobs than this threshold execute inline on the
    /// dispatching thread instead of paying pool hand-off (default
    /// [`DEFAULT_PARALLEL_THRESHOLD`](Self::DEFAULT_PARALLEL_THRESHOLD)).
    /// Inline execution runs jobs in index (= funding) order, so results
    /// are **bit-identical** at any threshold.
    pub parallel_threshold: usize,
    /// Pool dispatch granularity ([`ChunkSize::Auto`] by default).
    pub chunk: ChunkSize,
}

impl EngineConfig {
    /// Upper bound on `Auto` threads: evaluation batches are population-
    /// sized (~100 genomes), where more workers than this only add
    /// scheduling overhead.
    pub const AUTO_CAP: usize = 8;

    /// Default [`cache_capacity`](Self::cache_capacity): 16,384 roll-ups.
    /// An entry is a fixed-size key and score (under a hundred bytes), so
    /// the budget costs about a megabyte at most; roll-ups pay off only for
    /// recently re-proposed genomes, and this budget keeps their hit rate.
    pub const DEFAULT_CACHE_CAPACITY: usize = 1 << 14;

    /// Default [`parallel_threshold`](Self::parallel_threshold). A pool
    /// hand-off was measured at ~12 µs per batch against ~7.6 µs per
    /// warmed cached probe, so batches under about eight jobs lose more to
    /// dispatch than parallelism returns.
    pub const DEFAULT_PARALLEL_THRESHOLD: usize = 8;

    /// Auto-detected thread count.
    pub fn auto() -> Self {
        Self {
            threads: ThreadCount::Auto,
            cache_capacity: Self::DEFAULT_CACHE_CAPACITY,
            parallel_threshold: Self::DEFAULT_PARALLEL_THRESHOLD,
            chunk: ChunkSize::Auto,
        }
    }

    /// Serial evaluation (one worker, no spawned threads).
    pub fn serial() -> Self {
        Self::with_threads(1)
    }

    /// A fixed worker count; `0` is treated as `1`.
    pub fn with_threads(threads: u32) -> Self {
        Self {
            threads: ThreadCount::Fixed(threads.max(1)),
            ..Self::auto()
        }
    }

    /// Bounds the evaluation cache to `capacity` entries (clamped to a
    /// small minimum so every shard stays functional). Evictions never
    /// change results — evicted entries are recomputed bit-identical.
    pub fn with_cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Sets the inline-execution threshold: batches with fewer jobs than
    /// `threshold` run serially on the dispatching thread (`0` disables
    /// adaptive scheduling — every batch goes to the pool). Wall-clock
    /// only; results are bit-identical at any threshold.
    pub fn with_parallel_threshold(mut self, threshold: usize) -> Self {
        self.parallel_threshold = threshold;
        self
    }

    /// Selects the pool dispatch granularity (wall-clock only; results
    /// are bit-identical at any chunk size).
    pub fn with_chunk(mut self, chunk: ChunkSize) -> Self {
        self.chunk = chunk;
        self
    }

    /// The concrete worker count this configuration resolves to on the
    /// current machine.
    pub fn resolved_threads(&self) -> usize {
        match self.threads {
            ThreadCount::Fixed(n) => (n as usize).max(1),
            ThreadCount::Auto => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(Self::AUTO_CAP),
        }
    }

    /// The concrete jobs-per-chunk this configuration resolves to for a
    /// batch of `jobs` (at least 1).
    pub fn resolved_chunk(&self, jobs: usize) -> usize {
        match self.chunk {
            ChunkSize::Fixed(n) => (n as usize).max(1),
            ChunkSize::Auto => jobs.div_ceil(self.resolved_threads() * 4).max(1),
        }
    }
}

impl Default for EngineConfig {
    /// Auto-detected parallelism (determinism makes this safe everywhere).
    fn default() -> Self {
        Self::auto()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_counts_resolve_exactly() {
        assert_eq!(EngineConfig::with_threads(3).resolved_threads(), 3);
        assert_eq!(EngineConfig::with_threads(0).resolved_threads(), 1);
        assert_eq!(EngineConfig::serial().resolved_threads(), 1);
    }

    #[test]
    fn cache_capacity_defaults_generous() {
        assert_eq!(
            EngineConfig::auto().cache_capacity,
            EngineConfig::DEFAULT_CACHE_CAPACITY
        );
        assert_eq!(
            EngineConfig::auto().with_cache_capacity(64).cache_capacity,
            64
        );
    }

    #[test]
    fn auto_is_positive_and_capped() {
        let n = EngineConfig::auto().resolved_threads();
        assert!(n >= 1);
        assert!(n <= EngineConfig::AUTO_CAP);
    }

    #[test]
    fn scaleout_knobs_default_on_and_toggle() {
        let config = EngineConfig::auto();
        assert_eq!(
            config.parallel_threshold,
            EngineConfig::DEFAULT_PARALLEL_THRESHOLD
        );
        assert_eq!(config.chunk, ChunkSize::Auto);
        let off = config
            .with_parallel_threshold(0)
            .with_chunk(ChunkSize::Fixed(1));
        assert_eq!(off.parallel_threshold, 0);
        assert_eq!(off.chunk, ChunkSize::Fixed(1));
    }

    #[test]
    fn chunk_sizes_resolve_sanely() {
        let fixed = EngineConfig::with_threads(4).with_chunk(ChunkSize::Fixed(7));
        assert_eq!(fixed.resolved_chunk(100), 7);
        assert_eq!(
            EngineConfig::with_threads(4)
                .with_chunk(ChunkSize::Fixed(0))
                .resolved_chunk(100),
            1
        );
        // Auto: four claims per worker, never zero.
        let auto = EngineConfig::with_threads(4);
        assert_eq!(auto.resolved_chunk(64), 4);
        assert_eq!(auto.resolved_chunk(16), 1);
        assert_eq!(auto.resolved_chunk(0), 1);
        assert_eq!(EngineConfig::serial().resolved_chunk(7), 2);
    }

    #[test]
    fn serde_round_trip() {
        use serde::{Deserialize, Serialize};
        for config in [
            EngineConfig::auto(),
            EngineConfig::serial(),
            EngineConfig::with_threads(6),
            EngineConfig::auto().with_cache_capacity(12_345),
            EngineConfig::auto().with_parallel_threshold(32),
            EngineConfig::with_threads(2).with_chunk(ChunkSize::Fixed(8)),
            EngineConfig::auto()
                .with_parallel_threshold(0)
                .with_chunk(ChunkSize::Fixed(1)),
        ] {
            let back = EngineConfig::from_value(&config.to_value()).unwrap();
            assert_eq!(back, config);
        }
    }
}
