//! [`FpCache`]: the bounded, sharded memo table behind the evaluator's
//! per-subgraph statistics and the engine's partition roll-ups.
//!
//! Keys are already uniform hashes, so one word picks one of 16 shards and
//! the maps use a pass-through hasher. Each shard keeps its own hit and
//! miss counters on its own cache line, so workers probing different
//! shards never write to a shared line. A shard over its budget runs a
//! **generation sweep**: it evicts every entry not touched since the
//! previous sweep and, if the live entries still overflow, sheds the
//! smallest keys down to half the budget, so sweeps stay rare. Victims
//! depend on the keys alone, never on map order, so identical runs keep
//! identical contents.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::fingerprint::{BuildFpHasher, NodeSetFp};

/// Number of independent shards, so concurrent workers rarely contend on
/// one lock.
const SHARDS: usize = 16;

/// A key of an [`FpCache`]: a value that already is a uniform hash.
pub trait FpKey: Copy + Eq + Hash + Ord {
    /// A uniformly distributed word of the key; it selects the shard.
    fn shard_word(&self) -> u64;
}

impl FpKey for NodeSetFp {
    fn shard_word(&self) -> u64 {
        self.lo
    }
}

/// One value plus its last-touched generation (updated on hits under the
/// shard's read lock, hence atomic).
#[derive(Debug)]
struct Slot<V> {
    value: V,
    gen: AtomicU64,
}

/// One shard: the map plus the shard's sweep generation.
#[derive(Debug)]
struct Shard<K, V> {
    map: HashMap<K, Slot<V>, BuildFpHasher>,
    gen: u64,
}

/// A shard's lock and its lookup counters, alone on their cache line(s).
#[derive(Debug)]
#[repr(align(64))]
struct Lane<K, V> {
    shard: RwLock<Shard<K, V>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// A bounded, sharded map from fingerprint keys to values, with hit, miss
/// and eviction counters.
///
/// Lookups take a shard read lock, inserts a shard write lock. Two workers
/// racing on the same missing key may both compute it; callers store
/// deterministic values, so the duplicate insert is idempotent.
#[derive(Debug)]
pub struct FpCache<K, V> {
    lanes: [Lane<K, V>; SHARDS],
    /// Entry budget per shard.
    shard_capacity: usize,
    evictions: AtomicU64,
}

impl<K: FpKey, V: Clone> FpCache<K, V> {
    /// An empty cache bounded to `capacity` entries. Tiny capacities are
    /// clamped so every shard holds at least one entry.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            lanes: std::array::from_fn(|_| Lane {
                shard: RwLock::new(Shard {
                    map: HashMap::default(),
                    gen: 0,
                }),
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
            }),
            shard_capacity: (capacity / SHARDS).max(1),
            evictions: AtomicU64::new(0),
        }
    }

    fn lane(&self, key: &K) -> &Lane<K, V> {
        &self.lanes[(key.shard_word() % SHARDS as u64) as usize]
    }

    fn shard(&self, key: &K) -> &RwLock<Shard<K, V>> {
        &self.lane(key).shard
    }

    /// Looks `key` up, counting a hit or a miss. A hit marks the entry live
    /// in the current generation, so the next sweep keeps it; an entry
    /// already marked is not written again.
    pub fn get(&self, key: &K) -> Option<V> {
        let lane = self.lane(key);
        let found = {
            let shard = read(&lane.shard);
            shard.map.get(key).map(|slot| {
                if slot.gen.load(Ordering::Relaxed) != shard.gen {
                    slot.gen.store(shard.gen, Ordering::Relaxed);
                }
                slot.value.clone()
            })
        };
        let counter = if found.is_some() {
            &lane.hits
        } else {
            &lane.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// Inserts `value` under `key`. When the insert ran a sweep, returns
    /// `(evicted, remaining)`: the entries it evicted and those left in
    /// the swept shard.
    pub fn insert(&self, key: K, value: V) -> Option<(u64, usize)> {
        let mut shard = write(self.shard(&key));
        let gen = shard.gen;
        shard.map.insert(
            key,
            Slot {
                value,
                gen: AtomicU64::new(gen),
            },
        );
        if shard.map.len() <= self.shard_capacity {
            return None;
        }
        let before = shard.map.len();
        shard
            .map
            .retain(|_, slot| slot.gen.load(Ordering::Relaxed) >= gen);
        if shard.map.len() > self.shard_capacity {
            let surplus = shard.map.len() - (self.shard_capacity / 2).max(1);
            // cocco-audit: allow(D1) victims are sorted before use, so map order never escapes
            let mut victims: Vec<K> = shard.map.keys().copied().collect();
            victims.sort_unstable();
            for victim in &victims[..surplus] {
                shard.map.remove(victim);
            }
        }
        shard.gen += 1;
        let evicted = (before - shard.map.len()) as u64;
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
        Some((evicted, shard.map.len()))
    }

    /// Every entry, sorted by key.
    pub fn entries(&self) -> Vec<(K, V)> {
        let mut entries = Vec::new();
        for lane in &self.lanes {
            // cocco-audit: allow(D1) the entries are sorted by key below, so map order never escapes
            for (key, slot) in read(&lane.shard).map.iter() {
                entries.push((*key, slot.value.clone()));
            }
        }
        entries.sort_unstable_by_key(|entry| entry.0);
        entries
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.lanes.iter().map(|l| read(&l.shard).map.len()).sum()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups answered from the cache.
    pub fn hits(&self) -> u64 {
        self.lanes
            .iter()
            .map(|l| l.hits.load(Ordering::Relaxed))
            .sum()
    }

    /// Lookups that found nothing.
    pub fn misses(&self) -> u64 {
        self.lanes
            .iter()
            .map(|l| l.misses.load(Ordering::Relaxed))
            .sum()
    }

    /// Entries evicted by generation sweeps.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }
}

/// Takes a shard's read lock, tolerating poisoning: every value was
/// inserted whole under the write lock, so a panic elsewhere (a worker job
/// dying mid-batch) never leaves a torn entry, and the cache must stay
/// usable after the panic is caught.
fn read<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Takes a shard's write lock, tolerating poisoning (see [`read`]).
fn write<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::NodeId;

    fn key(i: usize) -> NodeSetFp {
        NodeSetFp::of_members(&[NodeId::from_index(i)])
    }

    /// `n` distinct keys that all land in shard 0, whose budget is eight
    /// in a cache of `8 * SHARDS` entries.
    fn shard0_keys(n: usize) -> Vec<NodeSetFp> {
        let keys = (0..).map(key);
        keys.filter(|k| k.lo % SHARDS as u64 == 0).take(n).collect()
    }

    #[test]
    fn capacity_bounds_entries_with_generation_sweeps() {
        // 32 entries -> 2 per shard; flooding far past the budget must
        // stay bounded and count evictions.
        let cache = FpCache::with_capacity(32);
        for i in 0..4096usize {
            cache.insert(key(i), i);
        }
        assert!(cache.len() <= 32, "budget exceeded: {}", cache.len());
        assert!(cache.evictions() > 0);
        // The ninth insert sheds shard 0 to its four largest keys. The one
        // touched before five more inserts survives the next sweep; the
        // three untouched ones go.
        let cache = FpCache::with_capacity(8 * SHARDS);
        let mut keys = shard0_keys(14);
        keys[..9].sort_unstable();
        for (i, &k) in keys.iter().enumerate() {
            if i == 9 {
                assert_eq!(cache.get(&keys[5]), Some(5));
            }
            cache.insert(k, i);
        }
        assert_eq!(cache.evictions(), 5 + 3);
        assert_eq!(cache.get(&keys[5]), Some(5), "the hot entry was evicted");
        assert!(keys[6..9].iter().all(|k| cache.get(k).is_none()));
    }

    #[test]
    fn victims_depend_on_keys_alone() {
        // Every entry is live when the ninth insert sweeps, so the same
        // smallest keys must go whatever order the shard was filled in.
        let keys = shard0_keys(9);
        let fill = |order: &mut dyn Iterator<Item = &NodeSetFp>| {
            let cache = FpCache::with_capacity(8 * SHARDS);
            for &k in order {
                assert_eq!(cache.insert(k, k.hi), None);
            }
            (cache.insert(keys[8], keys[8].hi), cache.entries())
        };
        let forward = fill(&mut keys[..8].iter());
        assert_eq!(forward, fill(&mut keys[..8].iter().rev()));
        assert_eq!(forward.0, Some((5, 4)));
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        let kept: Vec<NodeSetFp> = forward.1.iter().map(|e| e.0).collect();
        assert_eq!(kept, sorted[5..]);
    }

    #[test]
    fn per_shard_counters_sum_to_every_lookup() {
        let cache = FpCache::with_capacity(1 << 12);
        for i in 0..64 {
            cache.insert(key(i), i);
        }
        // 64 keys spread over the shards: each is hit twice, and as many
        // absent keys miss once.
        for i in 0..128 {
            assert_eq!(cache.get(&key(i % 64)), Some(i % 64));
            assert_eq!(cache.get(&key(1000 + i)), None);
        }
        assert_eq!((cache.hits(), cache.misses()), (128, 128));
        assert!(std::mem::align_of::<Lane<NodeSetFp, usize>>() >= 64);
    }

    #[test]
    fn a_poisoned_shard_stays_usable() {
        let cache = FpCache::with_capacity(64);
        cache.insert(key(1), 1);
        let shard = cache.shard(&key(1));
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = shard.write().unwrap();
            panic!("a worker dies holding the write lock");
        }));
        assert!(panicked.is_err() && shard.is_poisoned());
        assert_eq!(cache.get(&key(1)), Some(1));
        cache.insert(key(2), 2);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.entries().len(), 2);
    }
}
