//! Search traces for the convergence and distribution studies.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// One recorded evaluation.
#[derive(Copy, Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TracePoint {
    /// 0-based global sample index at which the point was evaluated.
    pub sample: u64,
    /// Objective cost of the evaluated genome (may be infinite).
    pub cost: f64,
    /// The genome's total buffer bytes (Figure 13's x-axis).
    pub buffer_bytes: u64,
    /// The raw metric value (EMA bytes or energy pJ; Figure 13's y-axis).
    pub metric_value: f64,
}

/// Thread-safe recording of every evaluation during a search.
///
/// [`best_curve`](Trace::best_curve) yields the monotone best-so-far cost
/// over samples (paper Figure 12); [`points`](Trace::points) yields the raw
/// scatter (paper Figure 13).
///
/// Besides the evaluation points, the trace counts *infeasible errors*
/// ([`infeasible_errors`](Trace::infeasible_errors)): evaluator failures the
/// search pipeline folds into "does not fit"/"infinite cost". A non-zero
/// count on a well-formed run points at a configuration bug rather than a
/// genuinely infeasible design point.
///
/// Cloning snapshots the recorded points (sorted by sample index) and the
/// error counter; the clone records independently from the original.
/// Equality, cloning and serialization all agree on what a trace *is*:
/// the point snapshot **plus** the error counter. (Equality used to
/// ignore the counter while `clone` copied it, so `a == a.clone()` held
/// but two traces could compare equal yet disagree on their error
/// count — a silent way to lose the "configuration bug" signal across a
/// checkpoint round-trip.) Serialization renders an object with `points`
/// and `infeasible_errors` fields; deserialization also accepts the
/// legacy bare point array (counter zero) so pre-existing files load.
#[derive(Debug, Default)]
pub struct Trace {
    points: Mutex<Vec<TracePoint>>,
    infeasible_errors: AtomicU64,
}

impl Clone for Trace {
    fn clone(&self) -> Self {
        Self {
            points: Mutex::new(self.points()),
            infeasible_errors: AtomicU64::new(self.infeasible_errors()),
        }
    }
}

impl PartialEq for Trace {
    fn eq(&self, other: &Self) -> bool {
        self.points() == other.points() && self.infeasible_errors() == other.infeasible_errors()
    }
}

impl serde::Serialize for Trace {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("points".to_string(), self.points().to_value()),
            (
                "infeasible_errors".to_string(),
                serde::Value::U64(self.infeasible_errors()),
            ),
        ])
    }
}

impl serde::Deserialize for Trace {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        // Legacy form: a bare point array with no counter.
        if let serde::Value::Array(_) = value {
            return Ok(Self {
                points: Mutex::new(Vec::<TracePoint>::from_value(value)?),
                infeasible_errors: AtomicU64::new(0),
            });
        }
        let fields = value
            .as_object()
            .ok_or_else(|| serde::Error::mismatch("object or array", "Trace", value))?;
        let points = Vec::<TracePoint>::from_value(serde::field(fields, "points", "Trace")?)?;
        let infeasible_errors =
            u64::from_value(serde::field(fields, "infeasible_errors", "Trace")?)?;
        Ok(Self {
            points: Mutex::new(points),
            infeasible_errors: AtomicU64::new(infeasible_errors),
        })
    }
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one evaluation.
    pub fn record(&self, point: TracePoint) {
        self.points.lock().unwrap().push(point);
    }

    /// Counts one evaluator error that the search pipeline silently mapped
    /// to "does not fit" or an infinite cost.
    pub fn record_infeasible_error(&self) {
        self.infeasible_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts `n` evaluator errors at once — checkpoint replay restoring
    /// a snapshot's accumulated count, or a searcher that keeps count of
    /// the rejected sets it looks up again.
    pub fn add_infeasible_errors(&self, n: u64) {
        self.infeasible_errors.fetch_add(n, Ordering::Relaxed);
    }

    /// Evaluator errors folded into infeasibility so far.
    pub fn infeasible_errors(&self) -> u64 {
        self.infeasible_errors.load(Ordering::Relaxed)
    }

    /// Number of recorded points.
    pub fn len(&self) -> usize {
        self.points.lock().unwrap().len()
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.points.lock().unwrap().is_empty()
    }

    /// A snapshot of all recorded points, sorted by sample index.
    pub fn points(&self) -> Vec<TracePoint> {
        let mut pts = self.points.lock().unwrap().clone();
        pts.sort_by_key(|p| p.sample);
        pts
    }

    /// The monotone best-so-far cost curve: `(sample, best_cost)` at every
    /// improvement.
    pub fn best_curve(&self) -> Vec<(u64, f64)> {
        let mut curve = Vec::new();
        let mut best = f64::INFINITY;
        for p in self.points() {
            if p.cost < best {
                best = p.cost;
                curve.push((p.sample, best));
            }
        }
        curve
    }

    /// The first sample index at which cost dropped to or below
    /// `threshold`, if it ever did (paper Figure 12(d)).
    pub fn samples_to_reach(&self, threshold: f64) -> Option<u64> {
        self.best_curve()
            .into_iter()
            .find(|(_, c)| *c <= threshold)
            .map(|(s, _)| s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(sample: u64, cost: f64) -> TracePoint {
        TracePoint {
            sample,
            cost,
            buffer_bytes: 0,
            metric_value: cost,
        }
    }

    #[test]
    fn best_curve_is_monotone() {
        let t = Trace::new();
        for (s, c) in [(0, 5.0), (1, 7.0), (2, 3.0), (3, 4.0), (4, 1.0)] {
            t.record(pt(s, c));
        }
        assert_eq!(t.best_curve(), vec![(0, 5.0), (2, 3.0), (4, 1.0)]);
    }

    #[test]
    fn samples_to_reach_threshold() {
        let t = Trace::new();
        for (s, c) in [(0, 5.0), (10, 2.0), (20, 1.0)] {
            t.record(pt(s, c));
        }
        assert_eq!(t.samples_to_reach(2.5), Some(10));
        assert_eq!(t.samples_to_reach(0.5), None);
    }

    #[test]
    fn points_sorted_by_sample() {
        let t = Trace::new();
        t.record(pt(5, 1.0));
        t.record(pt(1, 2.0));
        let pts = t.points();
        assert_eq!(pts[0].sample, 1);
        assert_eq!(pts[1].sample, 5);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn equality_clone_and_serde_agree_on_the_error_counter() {
        // Pinned semantics: the infeasible-error counter is part of a
        // trace's identity. Two traces with identical points but
        // different counters are NOT equal, and both clone and serde
        // round-trips preserve the counter.
        let a = Trace::new();
        let b = Trace::new();
        a.record(pt(0, 1.0));
        b.record(pt(0, 1.0));
        assert_eq!(a, b);
        a.record_infeasible_error();
        assert_ne!(a, b, "counter mismatch must break equality");
        assert_eq!(a, a.clone(), "clone preserves points and counter");
        let json = serde_json::to_string(&a).unwrap();
        let back: Trace = serde_json::from_str(&json).unwrap();
        assert_eq!(a, back, "serde round-trip preserves the counter");
        assert_eq!(back.infeasible_errors(), 1);
        // Legacy bare-array form still loads, with a zero counter.
        let legacy: Trace = serde_json::from_str("[]").unwrap();
        assert_eq!(legacy.infeasible_errors(), 0);
        assert!(legacy.is_empty());
        let replayed = Trace::new();
        replayed.add_infeasible_errors(3);
        assert_eq!(replayed.infeasible_errors(), 3);
    }

    #[test]
    fn infeasible_errors_are_counted_and_cloned() {
        let t = Trace::new();
        assert_eq!(t.infeasible_errors(), 0);
        t.record_infeasible_error();
        t.record_infeasible_error();
        assert_eq!(t.infeasible_errors(), 2);
        let clone = t.clone();
        assert_eq!(clone.infeasible_errors(), 2);
        clone.record_infeasible_error();
        assert_eq!(t.infeasible_errors(), 2, "clones record independently");
    }
}
