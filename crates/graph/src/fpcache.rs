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
//!
//! [`FpCache::get_or_try_insert_with`] computes each missing value once
//! however many workers miss it together (single flight).

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, RwLock, RwLockReadGuard, RwLockWriteGuard};

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

/// The value one [`FpCache::get_or_try_insert_with`] leader publishes to
/// the callers waiting on its key: `None` when its computation failed.
type Flight<V> = Arc<OnceLock<Option<V>>>;

/// A bounded, sharded map from fingerprint keys to values, with hit, miss
/// and eviction counters.
///
/// Lookups take a shard read lock, inserts a shard write lock. Workers
/// that miss the same key through
/// [`get_or_try_insert_with`](Self::get_or_try_insert_with) compute it
/// once; callers that [`insert`](Self::insert) directly store
/// deterministic values, so a duplicate insert is idempotent.
#[derive(Debug)]
pub struct FpCache<K, V> {
    lanes: [Lane<K, V>; SHARDS],
    /// Entry budget per shard.
    shard_capacity: usize,
    evictions: AtomicU64,
    /// Keys some caller is computing, each with the cell its waiters
    /// block on.
    flights: Mutex<HashMap<K, Flight<V>, BuildFpHasher>>,
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
            flights: Mutex::new(HashMap::default()),
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
        let found = self.peek(key);
        let counter = if found.is_some() {
            &lane.hits
        } else {
            &lane.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// [`get`](Self::get) without counting the lookup.
    fn peek(&self, key: &K) -> Option<V> {
        let shard = read(self.shard(key));
        shard.map.get(key).map(|slot| {
            if slot.gen.load(Ordering::Relaxed) != shard.gen {
                slot.gen.store(shard.gen, Ordering::Relaxed);
            }
            slot.value.clone()
        })
    }

    /// The value under `key`, or the one `compute` returns, which is then
    /// inserted. Callers that miss the same key together compute it once:
    /// the first runs `compute` and the rest wait for its value. A hit
    /// takes only the shard read lock [`get`](Self::get) takes, and no
    /// shard lock is held while `compute` runs.
    ///
    /// An error is returned to the caller whose `compute` failed and is
    /// not cached; a caller that waited on that computation runs its own
    /// `compute`. If `compute` panics, the next caller of the key computes
    /// it.
    ///
    /// # Errors
    ///
    /// Whatever `compute` returns.
    pub fn get_or_try_insert_with<E>(
        &self,
        key: K,
        mut compute: impl FnMut() -> Result<V, E>,
    ) -> Result<V, E> {
        if let Some(value) = self.get(&key) {
            return Ok(value);
        }
        let flight = {
            let mut flights = lock(&self.flights);
            // A leader inserts before it leaves the flights, so a value
            // published since the miss above is in its shard now.
            if let Some(value) = self.peek(&key) {
                return Ok(value);
            }
            Arc::clone(flights.entry(key).or_default())
        };
        let mut led = None;
        let published = flight
            .get_or_init(|| {
                let result = compute();
                let value = result.as_ref().ok().cloned();
                if let Some(value) = &value {
                    self.insert(key, value.clone());
                }
                led = Some(result);
                value
            })
            .clone();
        if let Some(result) = led {
            lock(&self.flights).remove(&key);
            return result;
        }
        match published {
            Some(value) => Ok(value),
            None => compute(),
        }
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

/// Takes the flights lock, tolerating poisoning: every update inserts or
/// removes one whole entry, and a flight left behind by a panic is taken
/// over by the next caller of its key.
fn lock<T>(lock: &Mutex<T>) -> MutexGuard<'_, T> {
    lock.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
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
    fn callers_that_miss_together_compute_once() {
        use std::sync::mpsc::channel;
        let cache: FpCache<NodeSetFp, usize> = FpCache::with_capacity(64);
        let computed = AtomicU64::new(0);
        let (started, leader_started) = channel();
        let (release, leader_released) = channel::<()>();
        let (cache_ref, computed_ref) = (&cache, &computed);
        std::thread::scope(|scope| {
            let leader = scope.spawn(move || {
                cache_ref.get_or_try_insert_with(key(7), || {
                    computed_ref.fetch_add(1, Ordering::Relaxed);
                    started.send(()).map_err(|_| "no test thread")?;
                    leader_released.recv().map_err(|_| "no test thread")?;
                    Ok::<_, &str>(7)
                })
            });
            leader_started.recv().expect("the leader computes");
            let waiter = scope.spawn(|| {
                cache.get_or_try_insert_with(key(7), || {
                    computed.fetch_add(1, Ordering::Relaxed);
                    Ok::<_, &str>(0)
                })
            });
            // The waiter has missed once the miss counter reads 2; the
            // leader is still computing, so the waiter finds its flight.
            while cache.misses() < 2 {
                std::thread::yield_now();
            }
            release.send(()).expect("the leader waits");
            assert_eq!(leader.join().expect("leader"), Ok(7));
            assert_eq!(waiter.join().expect("waiter"), Ok(7));
        });
        assert_eq!(computed.load(Ordering::Relaxed), 1);
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (0, 2, 1));
        // A hit computes nothing; an error is returned and not cached.
        assert_eq!(
            cache.get_or_try_insert_with(key(7), || Err("computed")),
            Ok(7)
        );
        assert_eq!(
            cache.get_or_try_insert_with(key(8), || Err("failed")),
            Err::<usize, _>("failed")
        );
        assert_eq!(
            cache.get_or_try_insert_with(key(8), || Ok::<_, &str>(8)),
            Ok(8)
        );
        assert!(lock(&cache.flights).is_empty());
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
