//! The worker pool: a deterministic order-preserving parallel map over a
//! persistent thread set, in which the caller works its own batch.
//!
//! Workers take job indices from a shared atomic counter and the caller
//! stores results per index, so the set of executed jobs, and anything the
//! caller records per index, is identical regardless of thread count or
//! scheduling. A pool of `threads` workers is the submitting thread plus
//! `threads − 1` helpers: the caller hands the batch to the helpers, claims
//! indices itself, and waits only for helpers still finishing their last
//! job. The helpers live as long as the pool, which keeps thread
//! spawn/join syscalls off the per-batch hot path: a GA evaluates one batch
//! per generation, and re-spawning workers hundreds of times per
//! exploration is measurable overhead.

use crate::config::EngineConfig;
use cocco_telemetry::{Histogram, Stopwatch, Telemetry};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// One submitted batch, shared between the caller and the helpers that
/// picked it up.
struct Batch {
    /// Type-erased pointer to the caller's job closure. The caller blocks
    /// inside [`EnginePool::run`] until every worker that received this
    /// batch has signalled completion, so the pointee outlives every
    /// dereference (see the safety comment in `run_persistent`).
    job: *const (dyn Fn(usize) + Sync),
    /// Number of job indices.
    jobs: usize,
    /// Next index to claim.
    next: AtomicUsize,
    /// Workers (the caller included) that finished their copy of this
    /// batch.
    done: Mutex<usize>,
    done_cv: Condvar,
    /// Set when any job panicked; the first payload is kept for re-raise.
    panicked: AtomicBool,
    payload: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    /// Submit time and the `engine.pool.queue_wait_ns` histogram, when
    /// telemetry is on; the first helper to reach the batch records the
    /// wait.
    queue_wait: Option<(Stopwatch, Histogram)>,
    /// Set once a helper has recorded the queue wait.
    waited: AtomicBool,
}

// SAFETY: `job` points at a `Sync` closure that the submitting thread
// keeps alive (and blocked on) until all workers are done with the batch.
unsafe impl Send for Batch {}
unsafe impl Sync for Batch {}

impl Batch {
    /// Claims and runs indices until the batch is drained, then signals
    /// completion. Panics inside jobs are captured (first payload wins)
    /// and re-raised by the submitting caller once every worker is done.
    /// The first `helper` to arrive records the batch's queue wait before
    /// it claims (whether or not an index is left), so a parallel batch
    /// yields one sample however fast the caller drains it.
    fn work(&self, helper: bool) {
        if helper {
            if let Some((submitted, hist)) = &self.queue_wait {
                if !self.waited.swap(true, Ordering::Relaxed) {
                    hist.record(submitted.elapsed_nanos());
                }
            }
        }
        // SAFETY: see the field invariant — the caller is still inside
        // `run`, keeping the closure alive, until we signal `done` below.
        let job = unsafe { &*self.job };
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.jobs {
                break;
            }
            job(i);
        }));
        if let Err(payload) = result {
            self.panicked.store(true, Ordering::Relaxed);
            let mut slot = self.payload.lock().unwrap();
            if slot.is_none() {
                *slot = Some(payload);
            }
        }
        let mut done = self.done.lock().unwrap();
        *done += 1;
        self.done_cv.notify_all();
    }
}

/// The long-lived helper set of a persistent pool.
#[derive(Debug)]
struct Helpers {
    /// Submission side; dropping it shuts the helpers down.
    tx: Sender<Arc<Batch>>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

/// The engine's worker pool; the caller works its batch.
///
/// [`run`](EnginePool::run) executes `jobs` closures indexed `0..jobs`;
/// workers claim indices from a shared atomic counter, so the set of
/// executed jobs — and anything the caller stores per index — is
/// independent of scheduling. The workers of a parallel batch are the
/// calling thread plus up to `threads − 1` helpers, so at most `threads`
/// jobs run at once. With one worker (or one job) everything runs inline
/// on the caller's thread: the serial fallback is the same code path minus
/// the hand-off.
///
/// Helper threads are spawned lazily on the first parallel batch, fed
/// through a channel, kept alive across batches, and joined when the pool
/// drops. Jobs must not re-enter the pool.
///
/// # Examples
///
/// ```
/// use cocco_engine::{EngineConfig, EnginePool};
/// use std::sync::atomic::{AtomicU64, Ordering};
///
/// let pool = EnginePool::new(&EngineConfig::with_threads(4));
/// let results: Vec<AtomicU64> = (0..100).map(|_| AtomicU64::new(0)).collect();
/// pool.run(100, |i| {
///     results[i].store(i as u64 * 2, Ordering::Relaxed);
/// });
/// assert!(results.iter().enumerate().all(|(i, r)| r.load(Ordering::Relaxed) == i as u64 * 2));
/// ```
#[derive(Debug)]
pub struct EnginePool {
    threads: usize,
    helpers: OnceLock<Helpers>,
    /// Submit-to-first-helper-claim latency histogram
    /// (`engine.pool.queue_wait_ns`): a helper's wake latency, one sample
    /// per parallel batch. `None` when telemetry is disabled, in which
    /// case batches run with zero added work.
    queue_wait: Option<Histogram>,
}

impl EnginePool {
    /// Creates a pool with the configuration's resolved worker count. No
    /// threads are spawned until the first parallel batch.
    pub fn new(config: &EngineConfig) -> Self {
        Self::with_telemetry(config, &Telemetry::disabled())
    }

    /// Like [`new`](Self::new), but an enabled `telemetry` handle records
    /// every parallel batch's wait from submission to the first helper's
    /// claim into the `engine.pool.queue_wait_ns` histogram. The caller
    /// claims at once, so its claims are not recorded. Observation-only:
    /// job claiming and results are unaffected.
    pub fn with_telemetry(config: &EngineConfig, telemetry: &Telemetry) -> Self {
        Self {
            threads: config.resolved_threads(),
            helpers: OnceLock::new(),
            queue_wait: telemetry.latency_histogram("engine.pool.queue_wait_ns"),
        }
    }

    /// The worker count used for sufficiently large batches, the calling
    /// thread included.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// `true` once persistent helpers have been spawned.
    pub fn is_spawned(&self) -> bool {
        self.helpers.get().is_some()
    }

    /// Runs `job(i)` for every `i` in `0..jobs`, spreading indices over the
    /// calling thread and the pool's helpers. Blocks until every job
    /// finished. Panics in jobs propagate to the caller.
    pub fn run(&self, jobs: usize, job: impl Fn(usize) + Sync) {
        let workers = self.threads.min(jobs);
        if workers <= 1 {
            for i in 0..jobs {
                job(i);
            }
            return;
        }
        self.run_persistent(jobs, workers, &job);
    }

    /// Hands the batch to `workers − 1` helpers, works it on the calling
    /// thread, and blocks until every worker that got a copy, the caller
    /// included, signalled completion.
    fn run_persistent(&self, jobs: usize, workers: usize, job: &(dyn Fn(usize) + Sync)) {
        let pool = self.helpers.get_or_init(|| Self::spawn(self.threads - 1));
        // SAFETY: we erase the closure's lifetime to store it in the
        // shared `Batch`. The loop below does not return until `done`
        // equals the number of workers the batch was handed to (the
        // caller's own `work` among them), and every worker signals `done`
        // only after its last dereference of `job` (see `Batch::work`) —
        // so the pointer never outlives the borrow it was created from.
        let job: *const (dyn Fn(usize) + Sync) =
            unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), _>(job) };
        let batch = Arc::new(Batch {
            job,
            jobs,
            next: AtomicUsize::new(0),
            done: Mutex::new(0),
            done_cv: Condvar::new(),
            panicked: AtomicBool::new(false),
            payload: Mutex::new(None),
            queue_wait: self
                .queue_wait
                .as_ref()
                .map(|hist| (Stopwatch::start(), hist.clone())),
            waited: AtomicBool::new(false),
        });
        for _ in 1..workers {
            pool.tx
                .send(Arc::clone(&batch))
                // cocco-audit: allow(R1) send fails only if every helper hung up, which Helpers::drop makes impossible while the pool lives
                .expect("persistent helpers outlive the pool");
        }
        batch.work(false);
        let mut done = batch.done.lock().unwrap();
        while *done < workers {
            // cocco-audit: allow(R1) condvar poisoning means a worker panicked; that panic is re-raised via the payload below
            done = batch.done_cv.wait(done).unwrap();
        }
        drop(done);
        if batch.panicked.load(Ordering::Relaxed) {
            match batch.payload.lock().unwrap().take() {
                Some(payload) => std::panic::resume_unwind(payload),
                None => panic!("a pool job panicked"),
            }
        }
    }

    fn spawn(helpers: usize) -> Helpers {
        let (tx, rx) = channel::<Arc<Batch>>();
        let rx = Arc::new(Mutex::new(rx));
        let handles = (0..helpers)
            .map(|i| {
                let rx = Arc::clone(&rx);
                std::thread::Builder::new()
                    .name(format!("cocco-engine-{i}"))
                    .spawn(move || Self::helper(&rx))
                    // cocco-audit: allow(R1) failing to spawn OS threads at pool construction is unrecoverable — no engine can exist
                    .expect("spawn engine helper")
            })
            .collect();
        Helpers { tx, handles }
    }

    /// Helper main loop: block for the next batch, drain it, repeat until
    /// the submission channel closes (pool drop).
    fn helper(rx: &Mutex<Receiver<Arc<Batch>>>) {
        loop {
            // Holding the lock while blocked on `recv` is fine: batches
            // are sent in bursts of `workers − 1` copies, and each copy is
            // claimed by whichever helper gets the lock next — any subset
            // of helpers draining the copies completes the batch.
            let batch = match rx.lock().unwrap().recv() {
                Ok(batch) => batch,
                Err(_) => break,
            };
            batch.work(true);
        }
    }
}

impl Drop for EnginePool {
    fn drop(&mut self) {
        if let Some(helpers) = self.helpers.take() {
            drop(helpers.tx); // closes the channel; helpers exit their loop
            for handle in helpers.handles {
                let _ = handle.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn covers_every_index_exactly_once() {
        for threads in [1, 2, 4, 7] {
            let pool = EnginePool::new(&EngineConfig::with_threads(threads));
            let hits: Vec<AtomicU64> = (0..257).map(|_| AtomicU64::new(0)).collect();
            pool.run(hits.len(), |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn persistent_workers_survive_across_batches() {
        let pool = EnginePool::new(&EngineConfig::with_threads(4));
        assert!(!pool.is_spawned(), "workers spawn lazily");
        let count = AtomicU64::new(0);
        for round in 1..=20u64 {
            pool.run(64, |_| {
                count.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(count.load(Ordering::Relaxed), round * 64);
        }
        assert!(pool.is_spawned());
    }

    #[test]
    fn zero_jobs_is_a_no_op() {
        let pool = EnginePool::new(&EngineConfig::with_threads(4));
        pool.run(0, |_| panic!("no job should run"));
    }

    #[test]
    fn serial_pool_runs_in_order() {
        let pool = EnginePool::new(&EngineConfig::serial());
        let order = std::sync::Mutex::new(Vec::new());
        pool.run(10, |i| order.lock().unwrap().push(i));
        assert_eq!(*order.lock().unwrap(), (0..10).collect::<Vec<_>>());
        assert!(!pool.is_spawned(), "serial runs never spawn workers");
    }

    #[test]
    fn panics_propagate_and_the_pool_stays_usable() {
        let pool = EnginePool::new(&EngineConfig::with_threads(2));
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(8, |i| {
                if i == 3 {
                    panic!("job 3 exploded");
                }
            });
        }));
        let payload = result.expect_err("the job panic must reach the caller");
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("<non-str payload>");
        assert!(message.contains("job 3 exploded"), "got: {message}");
        // The workers caught the panic and are still alive.
        let count = AtomicU64::new(0);
        pool.run(16, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn queue_wait_is_recorded_only_when_enabled_and_parallel() {
        // Empty jobs let the caller drain most batches before a helper
        // wakes; the helper still records its arrival, so every parallel
        // batch yields exactly one sample and inline batches none.
        for threads in [2, 3, 8] {
            let telemetry = cocco_telemetry::Telemetry::enabled();
            let pool = EnginePool::with_telemetry(&EngineConfig::with_threads(threads), &telemetry);
            for jobs in [2, 3, 8, 64] {
                pool.run(jobs, |_| {});
            }
            pool.run(1, |_| {}); // serial fallback: no queue, no sample
            let snap = telemetry.snapshot();
            let hist = snap
                .histogram("engine.pool.queue_wait_ns")
                .expect("histogram registered at construction");
            assert_eq!(
                hist.count, 4,
                "threads={threads}: one sample per parallel batch"
            );
            // Results are unaffected: every index still runs exactly once.
            let hits: Vec<AtomicU64> = (0..64).map(|_| AtomicU64::new(0)).collect();
            pool.run(hits.len(), |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        }
    }

    #[test]
    fn batches_run_on_the_caller_and_at_most_threads_minus_one_helpers() {
        for threads in [2, 3, 8] {
            let pool = EnginePool::new(&EngineConfig::with_threads(threads));
            let caller = std::thread::current().id();
            let seen = Mutex::new(std::collections::HashSet::new());
            for _ in 0..20 {
                let hits: Vec<AtomicU64> = (0..64).map(|_| AtomicU64::new(0)).collect();
                pool.run(hits.len(), |i| {
                    seen.lock().unwrap().insert(std::thread::current().id());
                    hits[i].fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(std::time::Duration::from_micros(50));
                });
                assert!(
                    hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                    "threads={threads}: every index runs exactly once"
                );
            }
            let seen = seen.into_inner().unwrap();
            let helpers = seen.iter().filter(|&&id| id != caller).count();
            assert!(
                helpers < threads as usize,
                "threads={threads}: {helpers} non-caller threads ran jobs"
            );
        }
    }

    #[test]
    fn a_panic_is_re_raised_after_the_helpers_finish_on_any_thread() {
        let pool = EnginePool::new(&EngineConfig::with_threads(2));
        let caller = std::thread::current().id();
        for jobs in 1..=4usize {
            // One job runs inline on the caller, so only the caller can
            // panic there.
            let sites: &[bool] = if jobs == 1 { &[true] } else { &[true, false] };
            for &on_caller in sites {
                let started = AtomicUsize::new(0);
                let finished = AtomicUsize::new(0);
                let fired = AtomicBool::new(false);
                let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    pool.run(jobs, |i| {
                        // Hold each job until both workers have one, so
                        // the caller and the helper each run a job.
                        started.fetch_add(1, Ordering::SeqCst);
                        let wait = Stopwatch::start();
                        while started.load(Ordering::SeqCst) < jobs.min(2) {
                            assert!(wait.elapsed_nanos() < 10_000_000_000, "no helper came");
                            std::thread::yield_now();
                        }
                        let here = std::thread::current().id() == caller;
                        if here == on_caller && !fired.swap(true, Ordering::SeqCst) {
                            panic!("job {i} exploded");
                        }
                        std::thread::sleep(std::time::Duration::from_millis(5));
                        finished.fetch_add(1, Ordering::SeqCst);
                    });
                }));
                let payload = result.expect_err("the job panic must reach the caller");
                let message = payload
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .unwrap_or("<non-string payload>");
                assert!(
                    message.contains("exploded"),
                    "jobs={jobs} on_caller={on_caller}: got {message}"
                );
                assert_eq!(
                    finished.load(Ordering::SeqCst),
                    jobs - 1,
                    "jobs={jobs} on_caller={on_caller}: re-raised before every other job finished"
                );
                let hits: Vec<AtomicU64> = (0..16).map(|_| AtomicU64::new(0)).collect();
                pool.run(hits.len(), |i| {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                });
                assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
            }
        }
    }

    #[test]
    fn drop_joins_workers_cleanly() {
        let pool = EnginePool::new(&EngineConfig::with_threads(3));
        pool.run(9, |_| {});
        assert!(pool.is_spawned());
        drop(pool); // must not hang or leak
    }
}
