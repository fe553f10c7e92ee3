//! Shared sample-budget accounting.
//!
//! Remaining capacity shrinks as evaluations are funded and grows back
//! only through refunds. Refunds have two callers: a [`SampleReservation`] dropped with
//! samples un-taken, and a batch quarantined after a worker panic, whose
//! funded samples go back to their slice, reservation and the root pool.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A thread-safe evaluation budget shared by (sub-)searches, so "samples"
/// are comparable across methods and a two-step scheme's inner GAs draw
/// from the same pool as a co-optimization run.
///
/// Budgets can be *sliced* ([`SampleBudget::slice`]): the slice caps its own
/// consumption while forwarding every sample to the parent pool, which is
/// how a two-step scheme grants each capacity candidate 5 000 samples out
/// of the global 50 000.
///
/// Consumption can also be *reserved up front*
/// ([`SampleBudget::reserve`]): a caller draws a batch's funding before
/// dispatch, and if the batch is abandoned — dropped before its
/// evaluation took every sample — the unused
/// [`SampleReservation`] returns every unspent sample to the slice **and**
/// the shared pool on drop, so no samples are silently stranded.
///
/// # Accounting
///
/// Two counters per budget: `spent` (charged against the limit; exact via
/// compare-and-swap, decremented by refunds) and `issued` (the sample-index
/// source; strictly monotone, never decremented). Refunds therefore free
/// capacity without ever re-issuing an index — trace sample indices stay
/// globally unique, at the cost of index gaps equal to the refund count.
///
/// # Examples
///
/// ```
/// use cocco_engine::SampleBudget;
///
/// let b = SampleBudget::new(2);
/// assert_eq!(b.try_consume(), Some(0));
/// assert_eq!(b.try_consume(), Some(1));
/// assert_eq!(b.try_consume(), None);
/// assert!(b.is_exhausted());
/// ```
#[derive(Debug)]
pub struct SampleBudget {
    /// Samples currently charged against the limit (consumed − refunded).
    spent: AtomicU64,
    /// Sample indices handed out; monotone, so indices stay unique across
    /// refunds.
    issued: AtomicU64,
    limit: u64,
    parent: Option<Arc<SampleBudget>>,
}

impl SampleBudget {
    /// Creates a budget of `limit` evaluations.
    pub fn new(limit: u64) -> Self {
        Self {
            spent: AtomicU64::new(0),
            issued: AtomicU64::new(0),
            limit,
            parent: None,
        }
    }

    /// Creates a sub-budget capped at `cap` that forwards consumption to
    /// `parent`; sample indices come from the parent, so traces stay
    /// globally ordered.
    pub fn slice(parent: Arc<SampleBudget>, cap: u64) -> Self {
        Self {
            spent: AtomicU64::new(0),
            issued: AtomicU64::new(0),
            limit: cap,
            parent: Some(parent),
        }
    }

    /// The configured limit.
    pub fn limit(&self) -> u64 {
        self.limit
    }

    /// Evaluations charged so far (never exceeds the limit; refunds give
    /// capacity back).
    pub fn used(&self) -> u64 {
        self.spent.load(Ordering::Relaxed).min(self.limit)
    }

    /// Charges one local sample against the limit, exactly (CAS loop: a
    /// concurrent failure never overshoots and a refund is never
    /// double-spent).
    fn charge(&self) -> bool {
        let mut spent = self.spent.load(Ordering::Relaxed);
        loop {
            if spent >= self.limit {
                return false;
            }
            match self.spent.compare_exchange_weak(
                spent,
                spent + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(current) => spent = current,
            }
        }
    }

    /// Returns up to `n` charged samples to this budget only (not the
    /// ancestors).
    fn refund_local(&self, n: u64) {
        let mut spent = self.spent.load(Ordering::Relaxed);
        loop {
            let next = spent.saturating_sub(n);
            match self.spent.compare_exchange_weak(
                spent,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(current) => spent = current,
            }
        }
    }

    /// Returns `n` unconsumed samples to this budget **and** every
    /// ancestor pool, so reserved-but-never-evaluated capacity becomes
    /// available again. The original sample indices are not re-issued
    /// (indices stay unique); refunding more than was consumed saturates
    /// at zero.
    pub fn refund(&self, n: u64) {
        if n == 0 {
            return;
        }
        self.refund_local(n);
        if let Some(parent) = &self.parent {
            parent.refund(n);
        }
    }

    /// Consumes one evaluation, returning its 0-based index (from the
    /// outermost pool when sliced), or `None` when the budget — or any
    /// ancestor pool — is exhausted.
    pub fn try_consume(&self) -> Option<u64> {
        if !self.charge() {
            return None;
        }
        match &self.parent {
            None => Some(self.issued.fetch_add(1, Ordering::Relaxed)),
            Some(parent) => match parent.try_consume() {
                Some(global) => Some(global),
                None => {
                    self.refund_local(1);
                    None
                }
            },
        }
    }

    /// Pre-draws up to `n` samples as a [`SampleReservation`]. Taken
    /// samples are spent; whatever remains un-taken when the reservation
    /// drops is refunded to this budget and every ancestor.
    pub fn reserve(self: &Arc<Self>, n: u64) -> SampleReservation {
        let mut samples = Vec::with_capacity(usize::try_from(n).unwrap_or(0));
        for _ in 0..n {
            match self.try_consume() {
                Some(sample) => samples.push(sample),
                None => break,
            }
        }
        SampleReservation {
            budget: Arc::clone(self),
            samples,
            next: 0,
        }
    }

    /// `true` once the limit — or any ancestor pool — has been reached.
    pub fn is_exhausted(&self) -> bool {
        self.spent.load(Ordering::Relaxed) >= self.limit
            || self.parent.as_ref().is_some_and(|p| p.is_exhausted())
    }

    /// Remaining evaluations.
    pub fn remaining(&self) -> u64 {
        self.limit - self.used()
    }
}

/// Funding drawn from a [`SampleBudget`] ahead of evaluation: a batch of
/// pre-consumed sample indices. Taking hands them out in draw order;
/// dropping the reservation refunds every un-taken sample to the budget
/// chain (slice and shared pool alike), so a driver abandoned mid-step
/// strands nothing.
#[derive(Debug)]
pub struct SampleReservation {
    budget: Arc<SampleBudget>,
    samples: Vec<u64>,
    next: usize,
}

impl SampleReservation {
    /// Takes the next reserved sample index, if any remain.
    pub fn take(&mut self) -> Option<u64> {
        let sample = self.samples.get(self.next).copied();
        if sample.is_some() {
            self.next += 1;
        }
        sample
    }

    /// Samples still available to take.
    pub fn remaining(&self) -> u64 {
        (self.samples.len() - self.next) as u64
    }

    /// Samples originally secured by the reservation.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` when the reservation secured no samples at all.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Refunds `n` samples that were *taken* from this reservation but
    /// whose evaluations were discarded (a quarantined batch). Goes to the
    /// reservation's budget and every ancestor — the Drop refund only
    /// covers un-taken samples, so discarded work must be returned
    /// explicitly to keep the zero-stranded-samples invariant.
    pub fn refund(&self, n: u64) {
        self.budget.refund(n);
    }
}

impl Drop for SampleReservation {
    fn drop(&mut self) {
        let unused = self.remaining();
        if unused > 0 {
            self.budget.refund(unused);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consumes_up_to_limit() {
        let b = SampleBudget::new(3);
        assert_eq!(b.try_consume(), Some(0));
        assert_eq!(b.try_consume(), Some(1));
        assert_eq!(b.try_consume(), Some(2));
        assert_eq!(b.try_consume(), None);
        assert_eq!(b.used(), 3);
        assert_eq!(b.remaining(), 0);
    }

    #[test]
    fn concurrent_consumption_never_exceeds() {
        let b = std::sync::Arc::new(SampleBudget::new(1000));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let b = b.clone();
            handles.push(std::thread::spawn(move || {
                let mut got = 0u64;
                while b.try_consume().is_some() {
                    got += 1;
                }
                got
            }));
        }
        let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, 1000);
        assert_eq!(b.used(), 1000);
    }

    #[test]
    fn zero_budget_is_immediately_exhausted() {
        let b = SampleBudget::new(0);
        assert!(b.is_exhausted());
        assert_eq!(b.try_consume(), None);
    }

    #[test]
    fn slices_cap_and_forward() {
        let parent = std::sync::Arc::new(SampleBudget::new(5));
        let a = SampleBudget::slice(parent.clone(), 3);
        assert_eq!(a.try_consume(), Some(0));
        assert_eq!(a.try_consume(), Some(1));
        assert_eq!(a.try_consume(), Some(2));
        assert_eq!(a.try_consume(), None, "slice cap reached");
        assert_eq!(parent.used(), 3);
        let b = SampleBudget::slice(parent.clone(), 10);
        assert_eq!(b.try_consume(), Some(3));
        assert_eq!(b.try_consume(), Some(4));
        assert_eq!(b.try_consume(), None, "parent pool drained");
        assert!(b.is_exhausted());
        assert!(parent.is_exhausted());
    }

    #[test]
    fn concurrent_shared_budget_yields_unique_indices() {
        // N threads on one budget: every granted index is unique and the
        // total never exceeds the limit, even when threads keep hammering
        // after exhaustion.
        let b = std::sync::Arc::new(SampleBudget::new(777));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let b = b.clone();
            handles.push(std::thread::spawn(move || {
                let mut got = Vec::new();
                for _ in 0..400 {
                    if let Some(i) = b.try_consume() {
                        got.push(i);
                    }
                }
                got
            }));
        }
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        assert_eq!(all.len(), 777, "over- or under-consumed");
        all.dedup();
        assert_eq!(all.len(), 777, "duplicate sample indices granted");
        assert!(b.is_exhausted());
    }

    #[test]
    fn concurrent_slices_never_exceed_caps() {
        // Four slices of one parent, each hammered by two threads: no slice
        // exceeds its cap, the parent never exceeds its limit, and every
        // granted global index is unique.
        let parent = std::sync::Arc::new(SampleBudget::new(1_000));
        let slices: Vec<_> = (0..4)
            .map(|_| std::sync::Arc::new(SampleBudget::slice(parent.clone(), 300)))
            .collect();
        let mut handles = Vec::new();
        for slice in &slices {
            for _ in 0..2 {
                let slice = slice.clone();
                handles.push(std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(i) = slice.try_consume() {
                        got.push(i);
                    }
                    got
                }));
            }
        }
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        for slice in &slices {
            assert!(slice.used() <= 300, "slice exceeded its cap");
        }
        // 4 slices × 300 > 1000: the parent pool is the binding constraint.
        assert_eq!(parent.used(), 1_000);
        assert_eq!(all.len(), 1_000);
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 1_000, "duplicate global indices");
    }

    #[test]
    fn concurrent_slice_cap_binds_when_parent_is_larger() {
        // One small slice of a big parent, hammered concurrently: the slice
        // cap binds exactly.
        let parent = std::sync::Arc::new(SampleBudget::new(1 << 20));
        let slice = std::sync::Arc::new(SampleBudget::slice(parent.clone(), 123));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let slice = slice.clone();
            handles.push(std::thread::spawn(move || {
                let mut got = 0u64;
                while slice.try_consume().is_some() {
                    got += 1;
                }
                got
            }));
        }
        let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, 123);
        assert_eq!(slice.used(), 123);
        assert_eq!(parent.used(), 123);
    }

    #[test]
    fn refund_restores_capacity_without_reissuing_indices() {
        let b = std::sync::Arc::new(SampleBudget::new(4));
        assert_eq!(b.try_consume(), Some(0));
        assert_eq!(b.try_consume(), Some(1));
        b.refund(1);
        assert_eq!(b.used(), 1);
        // New consumption gets fresh indices — never a duplicate.
        assert_eq!(b.try_consume(), Some(2));
        assert_eq!(b.try_consume(), Some(3));
        assert_eq!(b.try_consume(), Some(4));
        assert_eq!(b.try_consume(), None, "limit still binds after refund");
        assert_eq!(b.used(), 4);
        // Over-refunding saturates instead of underflowing.
        b.refund(100);
        assert_eq!(b.used(), 0);
    }

    #[test]
    fn dropped_reservation_refunds_slice_and_pool() {
        let parent = std::sync::Arc::new(SampleBudget::new(10));
        let slice = std::sync::Arc::new(SampleBudget::slice(parent.clone(), 6));
        {
            let mut reservation = slice.reserve(4);
            assert_eq!(reservation.len(), 4);
            assert_eq!(parent.used(), 4);
            assert_eq!(slice.used(), 4);
            // Spend two of the four; the rest dies with the reservation.
            assert_eq!(reservation.take(), Some(0));
            assert_eq!(reservation.take(), Some(1));
            assert_eq!(reservation.remaining(), 2);
        }
        // Conservation: only the two taken samples stay charged, at both
        // the slice and the shared pool.
        assert_eq!(slice.used(), 2, "slice kept stranded samples");
        assert_eq!(parent.used(), 2, "pool kept stranded samples");
        // The refunded capacity is immediately reusable by another slice.
        let other = std::sync::Arc::new(SampleBudget::slice(parent.clone(), 10));
        let mut got = 0;
        while other.try_consume().is_some() {
            got += 1;
        }
        assert_eq!(got, 8, "refunded samples must be reusable");
        assert_eq!(parent.used(), 10);
    }

    #[test]
    fn reservation_conserves_total_budget() {
        // Reserve/take/drop cycles across several slices never create or
        // destroy budget: at the end, pool used == samples actually taken,
        // and the pool can still hand out exactly the remainder.
        let parent = std::sync::Arc::new(SampleBudget::new(100));
        let mut taken = 0u64;
        for round in 0..7u64 {
            let slice = std::sync::Arc::new(SampleBudget::slice(parent.clone(), 11));
            let mut reservation = slice.reserve(11);
            // Take a varying prefix, abandon the rest.
            for _ in 0..(round % 5) {
                if reservation.take().is_some() {
                    taken += 1;
                }
            }
        }
        assert_eq!(parent.used(), taken);
        let mut rest = 0u64;
        while parent.try_consume().is_some() {
            rest += 1;
        }
        assert_eq!(taken + rest, 100, "budget not conserved");
    }

    #[test]
    fn reservation_refund_returns_taken_samples_to_the_chain() {
        let parent = std::sync::Arc::new(SampleBudget::new(10));
        let slice = std::sync::Arc::new(SampleBudget::slice(parent.clone(), 6));
        let mut reservation = slice.reserve(4);
        assert_eq!(reservation.take(), Some(0));
        assert_eq!(reservation.take(), Some(1));
        // The two taken evaluations are discarded (quarantined batch):
        // refund them explicitly, then let Drop refund the other two.
        reservation.refund(2);
        drop(reservation);
        assert_eq!(slice.used(), 0, "slice kept quarantined samples");
        assert_eq!(parent.used(), 0, "pool kept quarantined samples");
    }

    #[test]
    fn reservation_on_exhausted_pool_is_empty() {
        let parent = std::sync::Arc::new(SampleBudget::new(2));
        parent.try_consume();
        parent.try_consume();
        let slice = std::sync::Arc::new(SampleBudget::slice(parent.clone(), 5));
        let reservation = slice.reserve(3);
        assert!(reservation.is_empty());
        assert_eq!(reservation.remaining(), 0);
    }
}
