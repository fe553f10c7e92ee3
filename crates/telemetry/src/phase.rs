//! Coarse per-phase wall-time profile of an exploration run.
//!
//! Five fixed phases cover the whole `explore()` lifecycle. They are
//! recorded independently — **`Eval` time is contained in `Search`
//! time** (engine dispatches happen inside the search loop), so
//! `search − eval` is the driver's own thinking time.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::clock::Stopwatch;

/// A lifecycle phase of one exploration run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Evaluator / context / driver construction.
    Setup,
    /// The search loop (includes `Eval`; the difference is driver time).
    Search,
    /// Engine batch dispatches (parallel scoring).
    Eval,
    /// Persistent cache-file load and save.
    Cache,
    /// Checkpoint capture/save and result serialization.
    Serialize,
}

impl Phase {
    /// All phases, in report order.
    pub const ALL: [Phase; 5] = [
        Phase::Setup,
        Phase::Search,
        Phase::Eval,
        Phase::Cache,
        Phase::Serialize,
    ];

    /// Stable lower-case name (metric/report key).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Setup => "setup",
            Phase::Search => "search",
            Phase::Eval => "eval",
            Phase::Cache => "cache",
            Phase::Serialize => "serialize",
        }
    }

    fn index(self) -> usize {
        match self {
            Phase::Setup => 0,
            Phase::Search => 1,
            Phase::Eval => 2,
            Phase::Cache => 3,
            Phase::Serialize => 4,
        }
    }
}

#[derive(Debug, Default)]
struct PhaseNanos {
    nanos: [AtomicU64; 5],
}

/// Accumulated per-phase wall time. Cloning shares the accumulator
/// (handle semantics, like the metric types).
#[derive(Clone, Debug, Default)]
pub struct PhaseProfile {
    inner: Arc<PhaseNanos>,
}

impl PhaseProfile {
    /// Adds `nanos` to `phase`.
    pub fn add(&self, phase: Phase, nanos: u64) {
        self.inner.nanos[phase.index()].fetch_add(nanos, Ordering::Relaxed);
    }

    /// Starts timing `phase`; the returned guard records on drop.
    pub fn time(&self, phase: Phase) -> PhaseGuard {
        PhaseGuard {
            active: Some((self.clone(), phase, Stopwatch::start())),
        }
    }

    /// A point-in-time copy in milliseconds.
    pub fn snapshot(&self) -> PhaseSnapshot {
        let ms = |p: Phase| self.inner.nanos[p.index()].load(Ordering::Relaxed) as f64 / 1e6;
        PhaseSnapshot {
            setup_ms: ms(Phase::Setup),
            search_ms: ms(Phase::Search),
            eval_ms: ms(Phase::Eval),
            cache_ms: ms(Phase::Cache),
            serialize_ms: ms(Phase::Serialize),
        }
    }
}

/// RAII guard: adds the elapsed time to its phase when dropped.
/// A no-op guard (from a disabled [`Telemetry`](crate::Telemetry))
/// records nothing and never reads the clock.
#[derive(Debug, Default)]
pub struct PhaseGuard {
    active: Option<(PhaseProfile, Phase, Stopwatch)>,
}

impl PhaseGuard {
    /// A guard that records nothing.
    pub fn noop() -> Self {
        Self::default()
    }
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        if let Some((profile, phase, sw)) = self.active.take() {
            profile.add(phase, sw.elapsed_nanos());
        }
    }
}

/// Per-phase wall time in milliseconds.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct PhaseSnapshot {
    pub setup_ms: f64,
    pub search_ms: f64,
    pub eval_ms: f64,
    pub cache_ms: f64,
    pub serialize_ms: f64,
}

impl PhaseSnapshot {
    /// `(phase name, milliseconds)` rows in report order.
    pub fn rows(&self) -> [(&'static str, f64); 5] {
        [
            ("setup", self.setup_ms),
            ("search", self.search_ms),
            ("eval", self.eval_ms),
            ("cache", self.cache_ms),
            ("serialize", self.serialize_ms),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guard_records_into_its_phase() {
        let profile = PhaseProfile::default();
        {
            let _g = profile.time(Phase::Search);
        }
        profile.add(Phase::Eval, 2_000_000);
        let snap = profile.snapshot();
        assert!(snap.search_ms >= 0.0);
        assert!((snap.eval_ms - 2.0).abs() < 1e-9);
        assert_eq!(snap.setup_ms, 0.0);
    }

    #[test]
    fn noop_guard_records_nothing() {
        let _g = PhaseGuard::noop();
    }

    #[test]
    fn clones_share_the_accumulator() {
        let a = PhaseProfile::default();
        let b = a.clone();
        b.add(Phase::Cache, 1_000_000);
        assert!((a.snapshot().cache_ms - 1.0).abs() < 1e-9);
    }

    #[test]
    fn snapshot_serde_round_trips() {
        let profile = PhaseProfile::default();
        profile.add(Phase::Setup, 5_000_000);
        let snap = profile.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let back: PhaseSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(snap, back);
        assert_eq!(snap.rows()[0], ("setup", 5.0));
    }
}
