//! # cocco-telemetry — observation-only instrumentation substrate
//!
//! Structured tracing (spans + events), a metrics registry (counters,
//! gauges, fixed-bucket histograms with p50/p90/p99 extraction), and a
//! coarse per-phase wall-time profile — shared by the engine, the
//! searchers, the cost model, the facade, and the CLI.
//!
//! Three design rules, all load-bearing:
//!
//! 1. **Handle-passed, no globals.** [`Telemetry`] is an
//!    `Option<Arc<Sink>>` clone handed down at construction time
//!    (`Engine::with_telemetry`, `Cocco::with_telemetry`, …). Disabled
//!    is the default, and a disabled handle costs one branch per
//!    operation — no clock read, no lock, no allocation — so the 47 ns
//!    cached-score leaf is unaffected.
//! 2. **Observation-only.** Nothing read from a metric, span, or event
//!    ever feeds back into a search decision; seeded runs are
//!    bit-identical with telemetry enabled, disabled, or at different
//!    thread counts (asserted by `tests/tests/telemetry.rs`).
//! 3. **Sole timing authority.** Every wall-clock read in the
//!    workspace lives here ([`Stopwatch`]); the `cocco-audit` D3 rule
//!    plus `audit.toml` enforce that machine-checkably. Other crates
//!    measure by holding a `Stopwatch`, never by calling
//!    `Instant::now` themselves.
//!
//! ## Naming scheme
//!
//! Metric and event names are dot-separated `subsystem.object.metric`
//! paths, lower-case, with histograms suffixed by their unit:
//!
//! - `engine.batch.latency_ns` (one batch dispatch: every candidate's
//!   repair, cache probe and scoring plus the funding-order publish of
//!   the entries it computed), `engine.pool.queue_wait_ns` (submit to
//!   the first helper's claim: a helper's wake latency, one sample per
//!   parallel batch — the caller works its batch and claims at once)
//! - `engine.batch.wall_ns` (gauge: summed batch wall time, repair
//!   included — the facade's `eval` phase) and `engine.batch.alloc_bytes`
//!   (scratch growth per batch)
//! - `engine.pool.dispatched` / `.chunks` / `.inline_batches` (jobs
//!   handed to the pool — one per funded candidate — chunked hand-off
//!   units, and batches run inline on the caller)
//! - `engine.cache.partition.hits` / `.misses` / `.evictions`, and
//!   `engine.subgraph.scorings` (subgraph terms computed)
//! - `search.step_ns` (span), `search.improvement` (event),
//!   `search.budget.used` (gauge)
//! - `sim.subgraph_stats_ns` (latency of each fresh statistics derivation)

mod clock;
mod metrics;
mod phase;
mod sink;

pub use clock::Stopwatch;
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricEntry, MetricsRegistry, MetricsSnapshot,
    LATENCY_BOUNDS_NS,
};
pub use phase::{Phase, PhaseGuard, PhaseProfile, PhaseSnapshot};
pub use sink::{Event, EventValue, SpanGuard, Telemetry, DEFAULT_EVENT_CAPACITY};
