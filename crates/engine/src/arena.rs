//! Per-worker evaluation scratch: the reusable buffers that make a warmed
//! scoring dispatch allocation-free, plus the cache entries a batch job
//! computed and has not published yet.
//!
//! Every scoring entry point that materializes a partition claims one
//! [`EvalArena`] slot from the engine's [`ScratchPool`] for the duration of
//! the call. A slot bundles the flat [`LayoutArena`] a candidate partition
//! is materialized into, the per-position subgraph fingerprints of the
//! probe and the [`Staged`] entries awaiting the batch-end publication —
//! all cleared (capacity kept) between uses and grown monotonically, so
//! the steady state touches the allocator only for values that escape
//! into long-lived structures (memos, a miss's fingerprints, cache
//! inserts).
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
use cocco_graph::NodeSetFp;
use cocco_partition::LayoutArena;
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

/// One reusable scratch slot: a layout arena, the probe's subgraph
/// fingerprints and the staged cache entries.
#[derive(Debug, Default)]
pub struct EvalArena {
    /// Flat-layout storage the candidate partition is built into.
    pub(crate) layout: LayoutArena,
    /// Subgraph fingerprint per layout position (the cache key material).
    pub(crate) fps: Vec<NodeSetFp>,
    /// Entries the slot's batch jobs computed, awaiting publication.
    pub(crate) staged: Vec<Staged>,
}

impl EvalArena {
    /// Bytes of heap capacity currently owned by this slot.
    pub fn bytes(&self) -> u64 {
        self.layout.bytes()
            + (self.fps.capacity() * size_of::<NodeSetFp>()) as u64
            + (self.staged.capacity() * size_of::<Staged>()) as u64
    }

    /// Layout builds served entirely from existing capacity.
    pub fn reuses(&self) -> u64 {
        self.layout.reuses()
    }

    /// Layout builds that had to grow a buffer.
    pub fn grows(&self) -> u64 {
        self.layout.grows()
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_are_exclusive_and_reusable() {
        let pool = ScratchPool::new(2);
        pool.with_slot(|a| {
            a.fps.push(NodeSetFp::EMPTY);
            // A nested claim from another logical task still succeeds:
            // the second slot is free.
            pool.with_slot(|b| b.fps.push(NodeSetFp::EMPTY));
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
            arena.fps.reserve(8);
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
        pool.with_slot(|arena| arena.fps.push(NodeSetFp::EMPTY));
        assert_eq!(lock(&pool.slots[0]).fps, [NodeSetFp::EMPTY]);
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
                            arena.fps.clear();
                            arena.fps.push(NodeSetFp {
                                lo: token,
                                hi: !token,
                            });
                            arena.layout.build_from_partition(&partition);
                            std::thread::yield_now();
                            assert_eq!(
                                arena.fps,
                                [NodeSetFp {
                                    lo: token,
                                    hi: !token
                                }],
                                "slot aliased across claims"
                            );
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
