//! Step-driven, resumable search: every method of the crate is a
//! [`SearchDriver`] state machine.
//!
//! A driver replaces the monolithic run-to-completion loop with an
//! explicit protocol:
//!
//! 1. [`next_batch`](SearchDriver::next_batch) advances the method's
//!    internal state machine and yields a [`Step`] — either a batch of
//!    [`EvalCandidate`]s to evaluate (with per-chunk objective/budget
//!    overrides, so a sub-search such as the two-step's inner GA runs on
//!    the outer engine under its own objective and budget slice), an
//!    internal-work notification, or completion;
//! 2. the harness evaluates the batch as **one** engine dispatch
//!    ([`SearchContext::evaluate_chunks`]);
//! 3. [`absorb`](SearchDriver::absorb) feeds the evaluated candidates back,
//!    advancing selection/acceptance/fold state.
//!
//! Between any two steps, [`state`](SearchDriver::state) produces a
//! serde-serializable [`DriverState`] snapshot: round-tripping it through
//! JSON and resuming with `SearchMethod::driver_from_state` continues the
//! run **bit-identically** (best cost, genome and trace equal to the
//! uninterrupted seeded run, at any thread count). Snapshots deliberately
//! drop in-memory [`EvalMemo`](cocco_engine::EvalMemo)s — memos only seed
//! repair, so a resumed run asks `fits` a little more but never scores
//! differently.
//!
//! [`run_driver`] is the loop `SearchMethod::run` steps a driver with, and
//! the facade's checkpointed loop steps the same [`drive_step`].

use crate::context::{EvalCandidate, SearchContext};
use crate::dp::DpState;
use crate::exhaustive::ExhaustiveState;
use crate::ga::GaState;
use crate::greedy::GreedyState;
use crate::objective::Objective;
use crate::outcome::SearchOutcome;
use crate::sa::SaState;
use crate::twostep::TwoStepState;
use cocco_engine::{SampleBudget, SampleReservation, TracePoint};
use cocco_graph::Graph;
use cocco_telemetry::{Stopwatch, Telemetry};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// One contiguous group of candidates inside an [`EvalBatch`], carrying
/// its own evaluation coordinates:
///
/// * `objective` — `None` evaluates under the context's objective; a
///   two-step inner GA overrides it with the partition-only objective;
/// * `budget` — `None` draws funding from the context budget; a sliced
///   sub-search points at its slice;
/// * `reservation` — funding drawn **ahead of dispatch**; takes
///   precedence over `budget`. An abandoned batch refunds the unconsumed
///   reservation to the shared pool on drop. No driver of this crate sets
///   it; a chunk built by hand may.
#[derive(Debug)]
pub struct EvalChunk {
    /// The candidates; repaired and scored in place by evaluation.
    pub candidates: Vec<EvalCandidate>,
    /// Objective override (`None` → the context's objective).
    pub objective: Option<Objective>,
    /// Funding source override (`None` → the context's budget).
    pub budget: Option<Arc<SampleBudget>>,
    /// Pre-drawn funding; supersedes `budget` when present.
    pub reservation: Option<SampleReservation>,
}

impl EvalChunk {
    /// A chunk evaluated under the context's own objective and budget.
    pub fn new(candidates: Vec<EvalCandidate>) -> Self {
        Self {
            candidates,
            objective: None,
            budget: None,
            reservation: None,
        }
    }
}

/// One driver step's worth of evaluation work: chunks dispatched to the
/// engine pool **together**, funded and traced in chunk order.
#[derive(Debug, Default)]
pub struct EvalBatch {
    /// The chunks, in funding/trace order.
    pub chunks: Vec<EvalChunk>,
}

impl EvalBatch {
    /// A batch of one plain chunk (the common single-method case).
    pub fn single(candidates: Vec<EvalCandidate>) -> Self {
        Self {
            chunks: vec![EvalChunk::new(candidates)],
        }
    }

    /// Total candidates across all chunks.
    pub fn len(&self) -> usize {
        self.chunks.iter().map(|c| c.candidates.len()).sum()
    }

    /// `true` when no chunk carries any candidate.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// What a driver wants next.
#[derive(Debug)]
pub enum Step {
    /// Evaluate this batch (one engine dispatch), then call
    /// [`absorb`](SearchDriver::absorb) with it.
    Evaluate(EvalBatch),
    /// Internal (analytic) work was done; call
    /// [`next_batch`](SearchDriver::next_batch) again.
    Continue,
    /// The search is finished; read [`outcome`](SearchDriver::outcome).
    Done,
}

/// A search method as a resumable state machine. See the module docs for
/// the protocol; every method of the registry implements it, and
/// `SearchMethod::run` is a thin [`run_driver`] loop.
pub trait SearchDriver: Send {
    /// The method's display name.
    fn name(&self) -> &'static str;

    /// Advances the state machine and yields the next step.
    fn next_batch(&mut self, ctx: &SearchContext<'_>) -> Step;

    /// Feeds an evaluated batch back (costs/memos filled in; a candidate
    /// with `cost == None` was not funded — the budget ran out).
    fn absorb(&mut self, ctx: &SearchContext<'_>, batch: EvalBatch);

    /// The best-so-far outcome (final once [`Step::Done`] was returned).
    fn outcome(&self) -> SearchOutcome;

    /// A serializable snapshot of the driver's state, valid between any
    /// two steps. In-memory evaluation memos are dropped (performance
    /// only, never results).
    fn state(&self) -> DriverState;
}

/// The serializable state of any driver in the registry — what a
/// checkpoint stores and `SearchMethod::driver_from_state` resumes from.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum DriverState {
    /// Genetic co-exploration.
    Ga(GaState),
    /// Simulated annealing.
    Sa(SaState),
    /// Greedy fusion.
    Greedy(GreedyState),
    /// Depth-ordered DP.
    DepthDp(DpState),
    /// Downset enumeration.
    Exhaustive(ExhaustiveState),
    /// Two-step capacity-then-partition scheme.
    TwoStep(TwoStepState),
}

impl DriverState {
    /// Checks a state read from a checkpoint against the graph it will
    /// resume on, before a driver is built from it, so a state the driver
    /// cannot run is reported instead of panicking or looping: the
    /// depth-ordered DP checks its table, greedy fusion its assignment,
    /// the GA its population and best design, annealing its current state
    /// and best design, and the two-step its live inner GA and candidate
    /// cursor. Only the enumeration's state passes unchecked.
    ///
    /// # Errors
    ///
    /// A description of the first rule the state breaks.
    pub fn check(&self, graph: &Graph) -> Result<(), String> {
        match self {
            DriverState::DepthDp(state) => state.check(graph),
            DriverState::Greedy(state) => state.check(graph),
            DriverState::Ga(state) => state.check(graph),
            DriverState::Sa(state) => state.check(graph),
            DriverState::TwoStep(state) => state.check(graph),
            DriverState::Exhaustive(_) => Ok(()),
        }
    }
}

/// Advances `driver` by exactly one step — `next_batch`, evaluate (one
/// engine dispatch), `absorb` — under a `search.step_ns` telemetry span,
/// adding the driver's own time to the `search.next_batch_ns` and
/// `search.absorb_ns` counters. Returns `false` once the driver reported
/// [`Step::Done`]. Both [`run_driver`] and the facade's checkpointed loop
/// are loops over this function, so stepping and instrumentation stay one
/// code path.
pub fn drive_step(driver: &mut dyn SearchDriver, ctx: &SearchContext<'_>) -> bool {
    let telemetry = ctx.telemetry();
    let span = telemetry.span("search.step_ns");
    match timed(telemetry, "search.next_batch_ns", || driver.next_batch(ctx)) {
        Step::Evaluate(mut batch) => {
            let candidates = batch.len();
            ctx.evaluate_chunks(&mut batch);
            if ctx.fault_abort().is_some() {
                // A worker panic quarantined this batch: the candidates
                // carry no costs and their samples were refunded. Stop
                // stepping without absorbing, so the driver's outcome is
                // the best seen before the fault. Dropping the batch
                // refunds any un-taken reservation capacity.
                return false;
            }
            timed(telemetry, "search.absorb_ns", || driver.absorb(ctx, batch));
            let name = driver.name();
            drop(span);
            telemetry.emit("search.step", || {
                vec![("driver", name.into()), ("candidates", candidates.into())]
            });
            true
        }
        Step::Continue => true,
        Step::Done => false,
    }
}

/// Runs `work`, adding its wall time to `counter` when `telemetry` is on;
/// when it is off, no clock is read.
fn timed<T>(telemetry: &Telemetry, counter: &str, work: impl FnOnce() -> T) -> T {
    let Some(counter) = telemetry.counter(counter) else {
        return work();
    };
    let clock = Stopwatch::start();
    let out = work();
    counter.add(clock.elapsed_nanos());
    out
}

/// The default run loop: [`drive_step`] until done. `SearchMethod::run` is
/// this loop over the method's driver, so the stepped and run-to-completion
/// paths are one code path and bit-identical by construction.
pub fn run_driver(driver: &mut dyn SearchDriver, ctx: &SearchContext<'_>) -> SearchOutcome {
    while drive_step(driver, ctx) {}
    driver.outcome()
}

/// Current [`SearchSnapshot::version`]. Version 2 added
/// [`SearchSnapshot::infeasible_errors`], so a resumed run's final
/// error count matches the uninterrupted run's. Version 3 dropped the
/// portfolio state, the GA's queued injections and the two-step's
/// finished slots: a two-step state holds only its live inner GA.
pub const CHECKPOINT_VERSION: u32 = 3;

/// A whole-run checkpoint: the driver state plus everything the harness
/// must restore around it (trace so far, budget consumption, and the
/// coordinates the snapshot is only valid under).
///
/// `fingerprint` is the evaluator's `(model, accelerator config)`
/// fingerprint — the same identity the engine's cache keys embed — so a
/// resume against a different model or platform is rejected instead of
/// continuing a nonsensical search.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SearchSnapshot {
    /// Snapshot format version.
    pub version: u32,
    /// The evaluator fingerprint the run was recorded under.
    pub fingerprint: u64,
    /// The method (with its full configuration) that produced the state.
    pub method: crate::SearchMethod,
    /// The driver's serialized state machine.
    pub driver: DriverState,
    /// The budget limit of the interrupted run.
    pub budget_limit: u64,
    /// Samples consumed when the snapshot was taken.
    pub budget_used: u64,
    /// Evaluator errors folded into "does not fit"/infinite cost so far.
    pub infeasible_errors: u64,
    /// Every trace point recorded up to the snapshot.
    pub trace: Vec<TracePoint>,
}

impl SearchSnapshot {
    /// Captures a snapshot of `driver` between steps, under `ctx`.
    pub fn capture(
        method: &crate::SearchMethod,
        driver: &dyn SearchDriver,
        ctx: &SearchContext<'_>,
    ) -> Self {
        Self {
            version: CHECKPOINT_VERSION,
            fingerprint: ctx.evaluator().fingerprint(),
            method: method.clone(),
            driver: driver.state(),
            budget_limit: ctx.budget().limit(),
            budget_used: ctx.budget().used(),
            infeasible_errors: ctx.trace().infeasible_errors(),
            trace: ctx.trace().points(),
        }
    }

    /// Replays the snapshot's consumed budget, recorded trace and error
    /// counter into a fresh context, so the resumed run continues with the
    /// exact sample indices, trace and diagnostics the uninterrupted run
    /// would have.
    pub fn replay_into(&self, ctx: &SearchContext<'_>) {
        for _ in 0..self.budget_used {
            ctx.budget().try_consume();
        }
        ctx.trace().add_infeasible_errors(self.infeasible_errors);
        for point in &self.trace {
            ctx.trace().record(*point);
        }
    }
}

/// Serializes an RNG for a [`DriverState`] (the xoshiro256** state words).
pub(crate) fn rng_state(rng: &StdRng) -> Vec<u64> {
    rng.state().to_vec()
}

/// Restores an RNG from [`rng_state`] words (a short vector — from a
/// hand-edited snapshot — falls back to reseeding from the first word).
pub(crate) fn rng_from_state(words: &[u64]) -> StdRng {
    match <[u64; 4]>::try_from(words) {
        Ok(state) => StdRng::from_state(state),
        Err(_) => StdRng::seed_from_u64(words.first().copied().unwrap_or(0)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, RngCore};

    #[test]
    fn rng_state_round_trips_mid_stream() {
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..13 {
            rng.next_u64();
        }
        let mut restored = rng_from_state(&rng_state(&rng));
        for _ in 0..50 {
            assert_eq!(rng.gen::<u64>(), restored.gen::<u64>());
        }
    }

    #[test]
    fn malformed_rng_state_falls_back_to_seed() {
        let rng = rng_from_state(&[42]);
        let seeded = StdRng::seed_from_u64(42);
        assert_eq!(rng.state(), seeded.state());
    }

    #[test]
    fn batch_len_counts_across_chunks() {
        let batch = EvalBatch::default();
        assert!(batch.is_empty());
    }
}
