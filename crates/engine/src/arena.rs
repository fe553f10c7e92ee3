//! Per-worker evaluation scratch: the reusable buffers that make a warmed
//! candidate job allocation-free, plus the cache entries a batch job
//! computed and has not published yet.
//!
//! A candidate job runs inside one [`EvalArena`] slot claimed from the
//! engine's [`ScratchPool`]: repair works in the slot's
//! [`RepairScratch`] and leaves the result's flat layout and subgraph
//! fingerprints there, the probe folds its key from those fingerprints,
//! and a miss is scored from that layout and staged in the slot for the
//! batch-end publication. Entry points that score a given partition lay it
//! out into the same scratch first. Every buffer is cleared (capacity
//! kept) between uses and grown monotonically, so the steady state touches
//! the allocator only for values that escape into long-lived structures
//! (memos, repaired partitions, cache inserts).
//!
//! Slots never affect results: scratch contents are fully overwritten
//! before each read, staged entries are published in funding order no
//! matter which slot holds them, and which slot a call claims is invisible
//! to the score. For the same reasons a slot stays claimable after a
//! panic poisoned its lock. Claiming spins over `try_lock` — with one more
//! slot than worker threads and the single-claim discipline (only public
//! entry points claim; internal helpers receive the scratch by reference),
//! a free slot always exists, so the spin terminates immediately in
//! practice.

use crate::cache::EvalKey;
use crate::engine::ScoredEval;
use cocco_partition::RepairScratch;
use std::mem::size_of;
use std::sync::{Mutex, MutexGuard, PoisonError, TryLockError};

/// A partition roll-up computed inside a batch job and not yet published:
/// the funding-order sequence number of the job that computed it, plus the
/// shared-cache payload.
///
/// Batch jobs never write the shared cache: each stages its new entries
/// in its slot, and the engine publishes every slot's entries in sequence
/// order once the batch has finished. Every job therefore sees exactly the
/// cache state from before its batch, so the shared cache's contents, its
/// counters and its insertion history are independent of thread count,
/// chunking and slot assignment.
pub(crate) type Staged = (u64, EvalKey, ScoredEval);

/// One reusable scratch slot: the repair scratch a candidate is repaired
/// (or laid out) in, and the staged cache entries.
#[derive(Debug, Default)]
pub struct EvalArena {
    /// Repair buffers; after a repair or a `describe`, the layout and
    /// subgraph fingerprints scoring reads.
    pub(crate) repair: RepairScratch,
    /// Entries the slot's batch jobs computed, awaiting publication.
    pub(crate) staged: Vec<Staged>,
}

impl EvalArena {
    /// The slot's repair scratch: repair a candidate here, then score it
    /// with [`Engine::score_slot`](crate::Engine::score_slot).
    pub fn repair_scratch(&mut self) -> &mut RepairScratch {
        &mut self.repair
    }

    /// Bytes of heap capacity currently owned by this slot.
    pub fn bytes(&self) -> u64 {
        self.repair.bytes() + (self.staged.capacity() * size_of::<Staged>()) as u64
    }

    /// Layout builds served entirely from existing capacity.
    pub fn reuses(&self) -> u64 {
        self.repair.reuses()
    }

    /// Layout builds that had to grow a buffer.
    pub fn grows(&self) -> u64 {
        self.repair.grows()
    }

    /// Repairs that returned a fitted, clean candidate untouched.
    pub fn repair_skips(&self) -> u64 {
        self.repair.skips()
    }
}

/// The engine's slot set: `resolved_threads + 1` independent
/// [`EvalArena`]s, claimed per scoring call via `try_lock`.
#[derive(Debug)]
pub(crate) struct ScratchPool {
    slots: Vec<Mutex<EvalArena>>,
}

/// Locks a slot, tolerating poisoning (see the module docs).
fn lock(slot: &Mutex<EvalArena>) -> MutexGuard<'_, EvalArena> {
    slot.lock().unwrap_or_else(PoisonError::into_inner)
}

impl ScratchPool {
    /// A pool of `slots` empty arenas (`slots >= 1`).
    pub fn new(slots: usize) -> Self {
        Self {
            slots: (0..slots.max(1)).map(|_| Mutex::default()).collect(),
        }
    }

    /// Runs `f` with an exclusive scratch slot. Spins over the slots
    /// until one is free — callers never nest claims and the pool holds
    /// one more slot than there are worker threads, so the first pass
    /// succeeds in the steady state. A slot whose last claimant panicked
    /// is claimed like any other.
    pub fn with_slot<R>(&self, f: impl FnOnce(&mut EvalArena) -> R) -> R {
        loop {
            for slot in &self.slots {
                match slot.try_lock() {
                    Ok(mut arena) => return f(&mut arena),
                    Err(TryLockError::Poisoned(poisoned)) => return f(&mut poisoned.into_inner()),
                    Err(TryLockError::WouldBlock) => {}
                }
            }
            std::thread::yield_now();
        }
    }

    /// Moves every slot's staged entries out (blocking lock; called only
    /// at the batch-end quiescent point, after the pool has joined). The
    /// staging queues keep their capacity. Slots are visited in index
    /// order, but the caller sorts the entries anyway, so slot assignment
    /// never reaches the cache.
    pub fn take_staged(&self) -> Vec<Staged> {
        let mut all = Vec::new();
        for slot in &self.slots {
            all.append(&mut lock(slot).staged);
        }
        all
    }

    /// Sums `per_slot` over every slot (blocking; used at quiescent
    /// points — metrics collection and dispatch boundaries).
    fn sum(&self, per_slot: impl Fn(&EvalArena) -> u64) -> u64 {
        self.slots.iter().map(|slot| per_slot(&lock(slot))).sum()
    }

    /// Total bytes of heap capacity owned by all slots.
    pub fn bytes(&self) -> u64 {
        self.sum(EvalArena::bytes)
    }

    /// Total layout builds served from existing capacity.
    pub fn reuses(&self) -> u64 {
        self.sum(EvalArena::reuses)
    }

    /// Total layout builds that grew a buffer.
    pub fn grows(&self) -> u64 {
        self.sum(EvalArena::grows)
    }

    /// Total repairs that returned a fitted, clean candidate untouched.
    pub fn repair_skips(&self) -> u64 {
        self.sum(EvalArena::repair_skips)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A staged entry carrying `token` (its contents never matter here).
    fn staged(token: u64) -> Staged {
        let key = EvalKey {
            fingerprint: token,
            lo: !token,
            hi: token,
        };
        let scored = ScoredEval {
            ema_bytes: token,
            energy_pj: 0.0,
            buffer_bytes: 0,
            fits: true,
            error: false,
        };
        (token, key, scored)
    }

    #[test]
    fn slots_are_exclusive_and_reusable() {
        let pool = ScratchPool::new(2);
        pool.with_slot(|a| {
            a.staged.push(staged(1));
            // A nested claim from another logical task still succeeds:
            // the second slot is free.
            pool.with_slot(|b| b.staged.push(staged(2)));
        });
        // Scratch persists across claims (capacity reuse is the point).
        let total: u64 = pool.bytes();
        assert!(total > 0);
        assert_eq!(pool.reuses() + pool.grows(), 0, "no layout builds yet");
    }

    #[test]
    fn empty_pool_clamps_to_one_slot() {
        let pool = ScratchPool::new(0);
        let inside = pool.with_slot(|arena| {
            arena.staged.reserve(8);
            arena.bytes()
        });
        assert_eq!(pool.bytes(), inside);
    }

    #[test]
    fn a_panicked_claim_leaves_its_slot_claimable_and_countable() {
        let pool = ScratchPool::new(2);
        // The first claim takes slot 0; its panic poisons that slot.
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.with_slot(|_| panic!("a job died holding its slot"))
        }));
        assert!(caught.is_err());
        // Slot 0 is free again, so the next claim takes it.
        pool.with_slot(|arena| arena.staged.push(staged(3)));
        assert_eq!(lock(&pool.slots[0]).staged, [staged(3)]);
        // The quiescent sums behind the engine metrics still work.
        assert!(pool.bytes() > 0);
        assert_eq!(pool.reuses() + pool.grows(), 0);
    }

    #[test]
    fn claims_never_alias_under_contention() {
        use cocco_partition::Partition;
        use std::sync::atomic::{AtomicU64, Ordering};

        // `threads + 1` concurrent batches hammer claim/release — one
        // more claimant than the pool was sized for, so at least two
        // claimants always compete for the same slots. Each claim writes
        // a unique token into its slot, yields to invite interleaving,
        // and asserts the token survived: any aliasing (two claimants in
        // one slot) or lost exclusivity would corrupt the token.
        const THREADS: usize = 4;
        const CLAIMS_PER_BATCH: u64 = 300;
        let pool = ScratchPool::new(THREADS + 1);
        let next_token = AtomicU64::new(1);
        std::thread::scope(|scope| {
            for _ in 0..THREADS + 2 {
                scope.spawn(|| {
                    let partition = Partition::from_assignment(vec![0, 0, 1, 2]);
                    for _ in 0..CLAIMS_PER_BATCH {
                        let token = next_token.fetch_add(1, Ordering::Relaxed);
                        pool.with_slot(|arena| {
                            arena.staged.clear();
                            arena.staged.push(staged(token));
                            arena.repair.describe(&partition);
                            std::thread::yield_now();
                            assert_eq!(arena.staged, [staged(token)], "slot aliased across claims");
                        });
                    }
                });
            }
        });
        // Accounting stays exact under contention: every claim built one
        // layout, and each build was either a reuse or a grow.
        let builds = (THREADS as u64 + 2) * CLAIMS_PER_BATCH;
        assert_eq!(pool.reuses() + pool.grows(), builds);
        // Growth is bounded by warmup: after a slot has seen the shape
        // once, every later build in that slot must reuse capacity.
        assert!(
            pool.grows() <= (THREADS as u64 + 1) * 4,
            "grows kept climbing after warmup: {}",
            pool.grows()
        );
        assert!(pool.reuses() >= builds - (THREADS as u64 + 1) * 4);
    }
}
