//! # cocco-faults — seeded fault injection + recovery bookkeeping
//!
//! Long co-exploration runs meet real faults: panicking workers, full
//! disks, torn or corrupted snapshot writes. Every injection site guards a
//! recovery path that production runs on such a real failure. This crate
//! provides the two halves of surviving them reproducibly:
//!
//! 1. **A seeded injector.** A [`FaultPlan`] is a cheap cloneable handle
//!    (the same shape as `cocco_telemetry::Telemetry`: `Option<Arc<…>>`,
//!    disabled by default, one branch when off) wrapping a seeded `StdRng`
//!    and per-site probabilities ([`FaultRates`]). Instrumented seams ask
//!    [`FaultPlan::should_inject`] whether to fail *this* time; because the
//!    generator is seeded and every draw happens in serial code,
//!    [`FaultPlan::seeded`] with the same seed and rates reproduces the
//!    exact same fault sequence at any thread count — faults are part of
//!    the experiment, not noise.
//! 2. **A recovery log.** Every graceful-degradation path (batch
//!    quarantine, sample refund, bounded save retry, snapshot salvage)
//!    notes what it did on the [`FaultLog`], whether or not the fault was
//!    injected — real faults count too. [`HealthReport`] snapshots both
//!    halves for the `Exploration` result and the `engine.faults.*`
//!    telemetry counters.
//!
//! Determinism rules, both load-bearing:
//!
//! * **Draws are serial.** `should_inject` is only called from serial
//!   sections (funding loops, save paths) — never from pool workers — so
//!   the injection sequence is independent of thread interleaving.
//! * **Zero-rate sites don't draw.** A site with rate `0.0` returns
//!   `false` without touching the generator, so disabled sites cost one
//!   branch and consume nothing from the stream.
//!
//! No wall clocks anywhere: retry loops are attempt-count bounded
//! ([`MAX_SAVE_ATTEMPTS`]), keeping the `cocco-audit` D3 rule green.
//!
//! # Example
//!
//! ```
//! use cocco_faults::{FaultPlan, FaultRates, FaultSite};
//!
//! // One in five saves fails transiently; nothing else is injected.
//! let rates = FaultRates::none().with(FaultSite::SaveWrite, 0.2);
//! let plan = FaultPlan::seeded(7, rates);
//!
//! // A plan seeded alike injects the identical sequence.
//! let replica = FaultPlan::seeded(7, rates);
//! for _ in 0..100 {
//!     assert_eq!(
//!         plan.should_inject(FaultSite::SaveWrite),
//!         replica.should_inject(FaultSite::SaveWrite),
//!     );
//! }
//! assert_eq!(plan.health(), replica.health());
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

mod save;

pub use save::{atomic_save, MAX_SAVE_ATTEMPTS};

/// The instrumented seams where a fault can be injected.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultSite {
    /// A panic inside one pool worker job (recovered by quarantining the
    /// whole batch and refunding its samples).
    WorkerPanic,
    /// A snapshot/checkpoint write error before the atomic rename
    /// (recovered by bounded retry; the temp file is always cleaned up).
    SaveWrite,
    /// A torn write: the rename lands but the destination is truncated
    /// (recovered at the next load by salvaging entries that still parse).
    SaveTorn,
    /// A corrupted write: the rename lands but a region of the JSON is
    /// garbage (recovered at the next load by salvage).
    SaveCorrupt,
}

impl FaultSite {
    /// Every site, in declaration order (the order of [`FaultRates`]
    /// fields and the injected-counter array).
    pub const ALL: [FaultSite; 4] = [
        FaultSite::WorkerPanic,
        FaultSite::SaveWrite,
        FaultSite::SaveTorn,
        FaultSite::SaveCorrupt,
    ];

    /// Stable index into per-site counter arrays.
    fn index(self) -> usize {
        match self {
            FaultSite::WorkerPanic => 0,
            FaultSite::SaveWrite => 1,
            FaultSite::SaveTorn => 2,
            FaultSite::SaveCorrupt => 3,
        }
    }

    /// The site's `snake_case` name, used in telemetry counter paths.
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::WorkerPanic => "worker_panic",
            FaultSite::SaveWrite => "save_write",
            FaultSite::SaveTorn => "save_torn",
            FaultSite::SaveCorrupt => "save_corrupt",
        }
    }
}

/// Per-site injection probabilities in `[0, 1]`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultRates {
    /// Probability of [`FaultSite::WorkerPanic`] per funded candidate.
    pub worker_panic: f64,
    /// Probability of [`FaultSite::SaveWrite`] per save attempt.
    pub save_write: f64,
    /// Probability of [`FaultSite::SaveTorn`] per save attempt.
    pub save_torn: f64,
    /// Probability of [`FaultSite::SaveCorrupt`] per save attempt.
    pub save_corrupt: f64,
}

impl FaultRates {
    /// All-zero rates: an enabled plan that never injects.
    pub fn none() -> Self {
        Self::default()
    }

    /// Builder: sets one site's rate.
    pub fn with(mut self, site: FaultSite, rate: f64) -> Self {
        match site {
            FaultSite::WorkerPanic => self.worker_panic = rate,
            FaultSite::SaveWrite => self.save_write = rate,
            FaultSite::SaveTorn => self.save_torn = rate,
            FaultSite::SaveCorrupt => self.save_corrupt = rate,
        }
        self
    }

    /// The rate configured for `site`.
    pub fn rate(&self, site: FaultSite) -> f64 {
        match site {
            FaultSite::WorkerPanic => self.worker_panic,
            FaultSite::SaveWrite => self.save_write,
            FaultSite::SaveTorn => self.save_torn,
            FaultSite::SaveCorrupt => self.save_corrupt,
        }
    }
}

/// Thread-safe counters for every recovery path. Always present on a
/// [`FaultPlan`] — even a disabled plan records *real* recoveries (a
/// genuinely corrupt snapshot salvages the same way an injected one does).
#[derive(Debug, Default)]
pub struct FaultLog {
    quarantined_batches: AtomicU64,
    refunded_samples: AtomicU64,
    save_retries: AtomicU64,
    save_failures: AtomicU64,
    salvaged_entries: AtomicU64,
    dropped_entries: AtomicU64,
}

impl FaultLog {
    /// A dispatch panicked; the whole batch was discarded.
    pub fn note_quarantined_batch(&self) {
        self.quarantined_batches.fetch_add(1, Ordering::Relaxed);
    }

    /// `n` funded samples were refunded to their budget source.
    pub fn note_refunded_samples(&self, n: u64) {
        self.refunded_samples.fetch_add(n, Ordering::Relaxed);
    }

    /// A failed save attempt was retried.
    pub fn note_save_retry(&self) {
        self.save_retries.fetch_add(1, Ordering::Relaxed);
    }

    /// A save failed after every bounded attempt.
    pub fn note_save_failure(&self) {
        self.save_failures.fetch_add(1, Ordering::Relaxed);
    }

    /// `n` entries were salvaged out of a corrupt snapshot.
    pub fn note_salvaged_entries(&self, n: u64) {
        self.salvaged_entries.fetch_add(n, Ordering::Relaxed);
    }

    /// `n` unparseable entries were dropped during salvage.
    pub fn note_dropped_entries(&self, n: u64) {
        self.dropped_entries.fetch_add(n, Ordering::Relaxed);
    }

    /// Batches discarded after a worker panic.
    pub fn quarantined_batches(&self) -> u64 {
        self.quarantined_batches.load(Ordering::Relaxed)
    }

    /// Samples refunded from quarantined batches.
    pub fn refunded_samples(&self) -> u64 {
        self.refunded_samples.load(Ordering::Relaxed)
    }

    /// Save attempts that failed and were retried.
    pub fn save_retries(&self) -> u64 {
        self.save_retries.load(Ordering::Relaxed)
    }

    /// Saves that failed after every attempt.
    pub fn save_failures(&self) -> u64 {
        self.save_failures.load(Ordering::Relaxed)
    }

    /// Entries recovered from corrupt snapshots.
    pub fn salvaged_entries(&self) -> u64 {
        self.salvaged_entries.load(Ordering::Relaxed)
    }

    /// Entries lost to corruption during salvage.
    pub fn dropped_entries(&self) -> u64 {
        self.dropped_entries.load(Ordering::Relaxed)
    }
}

/// A point-in-time snapshot of injected faults and recovery actions,
/// attached to `Exploration::health` and exported as `engine.faults.*`
/// counters.
///
/// **Degraded vs. transparent.** Recoveries that provably cannot change
/// the result — a successful save retry, a salvage that only *warms* a
/// cache — are informational. The run is *degraded* only when the output
/// envelope actually shrank: a batch was quarantined (its evaluations were
/// discarded), or a save never landed (state on disk is stale). [`HealthReport::is_degraded`] draws exactly that line.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct HealthReport {
    /// Faults injected at [`FaultSite::WorkerPanic`].
    pub injected_worker_panics: u64,
    /// Faults injected at [`FaultSite::SaveWrite`].
    pub injected_save_writes: u64,
    /// Faults injected at [`FaultSite::SaveTorn`].
    pub injected_save_torn: u64,
    /// Faults injected at [`FaultSite::SaveCorrupt`].
    pub injected_save_corrupt: u64,
    /// Batches discarded after a worker panic.
    pub quarantined_batches: u64,
    /// Samples refunded from quarantined batches.
    pub refunded_samples: u64,
    /// Save attempts that failed and were retried.
    pub save_retries: u64,
    /// Saves that failed after every bounded attempt.
    pub save_failures: u64,
    /// Entries recovered from corrupt snapshots.
    pub salvaged_entries: u64,
    /// Entries lost to corruption during salvage.
    pub dropped_entries: u64,
}

impl HealthReport {
    /// Total faults injected across every site.
    pub fn faults_seen(&self) -> u64 {
        self.injected_worker_panics
            + self.injected_save_writes
            + self.injected_save_torn
            + self.injected_save_corrupt
    }

    /// Total recovery actions taken (transparent and degrading alike).
    pub fn recoveries(&self) -> u64 {
        self.quarantined_batches + self.save_retries + self.salvaged_entries
    }

    /// True when a recovery shrank the output envelope (a quarantined
    /// batch or a save that never landed) — as opposed to transparent
    /// recoveries that provably leave results bit-identical.
    pub fn is_degraded(&self) -> bool {
        self.quarantined_batches > 0 || self.save_failures > 0
    }

    /// The injected count for `site`.
    pub fn injected(&self, site: FaultSite) -> u64 {
        match site {
            FaultSite::WorkerPanic => self.injected_worker_panics,
            FaultSite::SaveWrite => self.injected_save_writes,
            FaultSite::SaveTorn => self.injected_save_torn,
            FaultSite::SaveCorrupt => self.injected_save_corrupt,
        }
    }
}

/// The seeded half of a plan: generator + rates + injected counters.
#[derive(Debug)]
struct Injector {
    rng: Mutex<StdRng>,
    rates: FaultRates,
    injected: [AtomicU64; 4],
}

/// A cheap cloneable fault-injection handle, threaded through the stack
/// like `Telemetry`. Disabled (the default) costs one branch per seam and
/// never injects; clones share the generator, counters, and log.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    injector: Option<Arc<Injector>>,
    log: Arc<FaultLog>,
}

impl FaultPlan {
    /// A plan that never injects. Its [`FaultLog`] still records real
    /// recoveries, so production runs get health reporting for free.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// An enabled plan drawing from `seed` with the given rates.
    pub fn seeded(seed: u64, rates: FaultRates) -> Self {
        Self {
            injector: Some(Arc::new(Injector {
                rng: Mutex::new(StdRng::seed_from_u64(seed)),
                rates,
                injected: Default::default(),
            })),
            log: Arc::new(FaultLog::default()),
        }
    }

    /// True when this plan can inject faults.
    pub fn is_enabled(&self) -> bool {
        self.injector.is_some()
    }

    /// Decides whether to inject a fault at `site` *this* time.
    ///
    /// Must only be called from serial sections — the draw order defines
    /// the injection sequence, and calling from pool workers would make it depend
    /// on thread interleaving. Sites with rate `0.0` return `false`
    /// without consuming anything from the generator.
    pub fn should_inject(&self, site: FaultSite) -> bool {
        let Some(injector) = self.injector.as_ref() else {
            return false;
        };
        let rate = injector.rates.rate(site);
        if rate <= 0.0 {
            return false;
        }
        let hit = injector.rng.lock().unwrap().gen_bool(rate);
        if hit {
            injector.injected[site.index()].fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// How many faults have been injected at `site` so far.
    pub fn injected(&self, site: FaultSite) -> u64 {
        self.injector
            .as_ref()
            .map(|i| i.injected[site.index()].load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// The recovery log (always present, even when disabled).
    pub fn log(&self) -> &FaultLog {
        &self.log
    }

    /// Snapshots injected counts and recovery counters.
    pub fn health(&self) -> HealthReport {
        HealthReport {
            injected_worker_panics: self.injected(FaultSite::WorkerPanic),
            injected_save_writes: self.injected(FaultSite::SaveWrite),
            injected_save_torn: self.injected(FaultSite::SaveTorn),
            injected_save_corrupt: self.injected(FaultSite::SaveCorrupt),
            quarantined_batches: self.log.quarantined_batches(),
            refunded_samples: self.log.refunded_samples(),
            save_retries: self.log.save_retries(),
            save_failures: self.log.save_failures(),
            salvaged_entries: self.log.salvaged_entries(),
            dropped_entries: self.log.dropped_entries(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_plan_never_injects_and_still_logs() {
        let plan = FaultPlan::disabled();
        assert!(!plan.is_enabled());
        for site in FaultSite::ALL {
            assert!(!plan.should_inject(site));
            assert_eq!(plan.injected(site), 0);
        }
        plan.log().note_salvaged_entries(3);
        let health = plan.health();
        assert_eq!(health.salvaged_entries, 3);
        assert_eq!(health.faults_seen(), 0);
        assert!(!health.is_degraded());
    }

    #[test]
    fn seeded_plans_inject_the_same_sequence() {
        let rates = FaultRates::none()
            .with(FaultSite::WorkerPanic, 0.3)
            .with(FaultSite::SaveWrite, 0.5);
        let a = FaultPlan::seeded(11, rates);
        let b = FaultPlan::seeded(11, rates);
        for _ in 0..200 {
            assert_eq!(
                a.should_inject(FaultSite::WorkerPanic),
                b.should_inject(FaultSite::WorkerPanic)
            );
            assert_eq!(
                a.should_inject(FaultSite::SaveWrite),
                b.should_inject(FaultSite::SaveWrite)
            );
        }
        assert_eq!(a.health(), b.health());
        assert!(a.health().faults_seen() > 0, "0.3/0.5 over 200 draws");
    }

    #[test]
    fn zero_rate_sites_do_not_consume_the_stream() {
        let rates = FaultRates::none().with(FaultSite::WorkerPanic, 0.5);
        let a = FaultPlan::seeded(5, rates);
        let b = FaultPlan::seeded(5, rates);
        for _ in 0..100 {
            // Interleave zero-rate queries on `a` only; the sequences on
            // the enabled site must stay aligned.
            assert!(!a.should_inject(FaultSite::SaveCorrupt));
            assert!(!a.should_inject(FaultSite::SaveTorn));
            assert_eq!(
                a.should_inject(FaultSite::WorkerPanic),
                b.should_inject(FaultSite::WorkerPanic)
            );
        }
    }

    #[test]
    fn rate_one_always_injects() {
        let plan = FaultPlan::seeded(1, FaultRates::none().with(FaultSite::SaveCorrupt, 1.0));
        for _ in 0..50 {
            assert!(plan.should_inject(FaultSite::SaveCorrupt));
        }
        assert_eq!(plan.injected(FaultSite::SaveCorrupt), 50);
        assert_eq!(plan.health().injected_save_corrupt, 50);
    }

    #[test]
    fn clones_share_generator_counters_and_log() {
        let plan = FaultPlan::seeded(3, FaultRates::none().with(FaultSite::WorkerPanic, 1.0));
        let clone = plan.clone();
        assert!(clone.should_inject(FaultSite::WorkerPanic));
        clone.log().note_quarantined_batch();
        assert_eq!(plan.injected(FaultSite::WorkerPanic), 1);
        assert_eq!(plan.log().quarantined_batches(), 1);
    }

    #[test]
    fn degraded_line_matches_the_documented_envelope() {
        let transparent = HealthReport {
            save_retries: 2,
            salvaged_entries: 9,
            dropped_entries: 1,
            injected_save_writes: 2,
            ..HealthReport::default()
        };
        assert!(!transparent.is_degraded());
        assert_eq!(transparent.recoveries(), 11);
        for degraded in [
            HealthReport {
                quarantined_batches: 1,
                ..HealthReport::default()
            },
            HealthReport {
                save_failures: 1,
                ..HealthReport::default()
            },
        ] {
            assert!(degraded.is_degraded());
        }
    }

    #[test]
    fn health_report_serde_round_trips() {
        let report = HealthReport {
            injected_save_writes: 2,
            save_retries: 2,
            refunded_samples: 12,
            ..HealthReport::default()
        };
        let json = serde_json::to_string(&report).expect("serialize");
        let parsed: HealthReport = serde_json::from_str(&json).expect("parse");
        assert_eq!(parsed, report);
    }
}
