//! The sharded, bounded memoization cache of partition evaluations.
//!
//! Each entry is a plain whole-partition [`ScoredEval`] roll-up.
//! Per-subgraph terms are not cached here: their expensive input, the
//! subgraph's statistics, lives in the evaluator's own stats cache, and the
//! rest of a term (`Evaluator::eval_subgraph`) costs less than building a
//! key for it.
//!
//! # Fixed-size keys
//!
//! Every key is a fixed-size [`EvalKey`] — the evaluator fingerprint plus a
//! 128-bit content hash folded from per-subgraph [`NodeSetFp`]
//! fingerprints and the `(buffer, options)` coordinates. Folding a key
//! allocates nothing, and the key's `lo` lane selects the shard. Key
//! equality is fingerprint equality; see [`NodeSetFp`] for the
//! (negligible) collision model.
//!
//! # Bounded growth
//!
//! The entries live in an [`FpCache`], bounded by a configurable entry
//! budget (`EngineConfig::cache_capacity`) through its generation sweeps
//! (evictions counted in [`FpCache::evictions`]), so a long exploration
//! keeps its working set and sheds stale genomes. Eviction never changes
//! results — a re-miss recomputes the bit-identical value.
//!
//! The cache also persists: [`EvalCache::snapshot`]/[`EvalCache::restore`]
//! move its entries through a serde-serializable [`CacheSnapshot`], which
//! [`CacheSnapshot::save`]/[`CacheSnapshot::load`] write/read as JSON so
//! repeated explorations of the same model warm-start. Keys embed the
//! evaluator fingerprint, so entries recorded under a different
//! accelerator configuration (or model) can never produce a false hit;
//! [`CacheSnapshot::split_fingerprint`] additionally lets callers restore
//! only the entries of the evaluator at hand. Files of the first
//! (v1, member-vector-keyed) format hold no entry of the current key shape,
//! so loading one fails as malformed. Older v2 files may also carry a
//! `subgraph` array of per-subgraph terms; loading ignores it.

use crate::engine::ScoredEval;
use cocco_faults::{atomic_save, FaultPlan};
use cocco_graph::{mix64, FpCache, FpKey, NodeId, NodeSetFp};
use cocco_sim::{BufferConfig, EvalOptions};
use cocco_telemetry::Telemetry;
use serde::{Deserialize, Serialize};
use std::path::Path;

/// Folds one word into a 128-bit chain state (order-sensitive; the two
/// lanes stay independent through different salts).
#[inline]
fn fold(lo: &mut u64, hi: &mut u64, word: u64) {
    *lo = mix64(*lo ^ word);
    *hi = mix64(*hi ^ word ^ 0x9E37_79B9_7F4A_7C15);
}

/// A fixed-size cache key: the evaluator fingerprint (kept verbatim so
/// snapshots can be split per `(model, accelerator)` pair) plus a 128-bit
/// content hash of the evaluation coordinates. Copyable, allocation-free,
/// and pre-hashed — a probe neither builds a key vector nor re-hashes one.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct EvalKey {
    /// The evaluator's `(graph, accelerator config)` fingerprint.
    pub fingerprint: u64,
    /// First lane of the content hash (also the shard/bucket selector).
    pub lo: u64,
    /// Second, independently salted lane of the content hash.
    pub hi: u64,
}

impl EvalKey {
    /// The key of a whole-partition roll-up: the `(fingerprint, buffer,
    /// options)` coordinates with the ordered subgraph fingerprints folded
    /// into the chain. Subgraph *order* is part of the key (the fold is a
    /// chain) — partition evaluation is order-sensitive because the
    /// bandwidth model prefetches the *next* subgraph's weights.
    /// O(#subgraphs), no allocation.
    pub fn partition<I>(
        fingerprint: u64,
        subgraphs: I,
        buffer: &BufferConfig,
        options: EvalOptions,
    ) -> Self
    where
        I: IntoIterator<Item = NodeSetFp>,
    {
        let mut lo = mix64(fingerprint ^ 0x243F_6A88_85A3_08D3);
        let mut hi = mix64(fingerprint ^ 0x1319_8A2E_0370_7344);
        let (tag, a, b) = match buffer {
            BufferConfig::Shared { total } => (0u64, *total, 0u64),
            BufferConfig::Separate { glb, wgt } => (1u64, *glb, *wgt),
        };
        for word in [
            tag,
            a,
            b,
            u64::from(options.cores()),
            u64::from(options.batch()),
        ] {
            fold(&mut lo, &mut hi, word);
        }
        let mut count = 0u64;
        for fp in subgraphs {
            fold(&mut lo, &mut hi, fp.lo);
            fold(&mut lo, &mut hi, fp.hi);
            count += 1;
        }
        fold(&mut lo, &mut hi, count);
        Self {
            fingerprint,
            lo,
            hi,
        }
    }
}

impl FpKey for EvalKey {
    fn shard_word(&self) -> u64 {
        self.lo
    }
}

/// Encodes `(evaluator fingerprint, subgraphs, buffer, options)` into a
/// partition-level [`EvalKey`], fingerprinting each member list on the fly
/// (hot paths precompute the fingerprints instead and call
/// [`EvalKey::partition`]).
pub fn eval_key(
    fingerprint: u64,
    subgraphs: &[Vec<NodeId>],
    buffer: &BufferConfig,
    options: EvalOptions,
) -> EvalKey {
    EvalKey::partition(
        fingerprint,
        subgraphs.iter().map(|m| NodeSetFp::of_members(m)),
        buffer,
        options,
    )
}

/// A serializable image of the cache, for cross-run persistence.
///
/// Entries are plain `(key, value)` pairs sorted by key; the `f64` fields
/// inside the values survive the JSON round-trip exactly, so a
/// warm-started exploration is bit-identical to a cold one — the snapshot
/// only changes which lookups hit.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct CacheSnapshot {
    /// Snapshot format version (bumped on incompatible key changes).
    pub version: u32,
    /// Partition roll-up entries.
    pub partition: Vec<(EvalKey, ScoredEval)>,
}

/// Current [`CacheSnapshot::version`]. A well-formed document of another
/// version loads as empty; a version-1 document (member-vector keys) does
/// not parse under the current key shape and fails to load.
pub const SNAPSHOT_VERSION: u32 = 2;

/// How [`CacheSnapshot::load_with`] read a snapshot out of its document.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum SnapshotOrigin {
    /// A well-formed document of the current version: the snapshot holds
    /// exactly the file's entries.
    Current,
    /// A corrupt document whose parsable entries were recovered.
    Salvaged,
    /// A document of an unknown version, loaded as empty.
    UnknownVersion,
}

impl CacheSnapshot {
    /// Number of entries.
    pub fn len(&self) -> usize {
        self.partition.len()
    }

    /// `true` when the snapshot holds no entries.
    pub fn is_empty(&self) -> bool {
        self.partition.is_empty()
    }

    /// Splits into the entries recorded under `fingerprint` (first) and
    /// everything else (second). Every key carries the evaluator
    /// fingerprint, so this cleanly separates one `(model, accelerator)`
    /// pair's entries from a multi-model cache file — changing the
    /// accelerator configuration changes the fingerprint and thereby
    /// invalidates (filters out) all previous entries.
    pub fn split_fingerprint(self, fingerprint: u64) -> (CacheSnapshot, CacheSnapshot) {
        let (mine, rest) = self
            .partition
            .into_iter()
            .partition(|entry| entry.0.fingerprint == fingerprint);
        (
            CacheSnapshot {
                version: self.version,
                partition: mine,
            },
            CacheSnapshot {
                version: self.version,
                partition: rest,
            },
        )
    }

    /// Appends another snapshot's entries (deduplication happens on
    /// restore — later inserts of an identical key overwrite with an
    /// identical, deterministically computed value).
    pub fn merge(&mut self, other: CacheSnapshot) {
        self.partition.extend(other.partition);
        self.partition.sort_by_key(|entry| entry.0);
        self.partition.dedup_by(|a, b| a.0 == b.0);
    }

    /// Writes the snapshot to `path` as JSON, atomically: the document is
    /// written to a unique sibling temp file and renamed into place (so a
    /// reader — or a concurrent saver sharing one sweep-wide cache file —
    /// never observes a half-written snapshot), with bounded attempt-count
    /// retry and guaranteed temp-file cleanup on every error path (see
    /// [`cocco_faults::atomic_save`]).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors after the final attempt.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        self.save_with(path, &FaultPlan::disabled())
    }

    /// Like [`save`](Self::save), with a [`FaultPlan`] that can inject
    /// write errors / torn writes and that records save retries and
    /// failures on its log.
    pub fn save_with(&self, path: &Path, faults: &FaultPlan) -> std::io::Result<()> {
        let text = serde_json::to_string(self)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        atomic_save(path, &text, faults)
    }

    /// Reads a snapshot from `path`. A well-formed document of a foreign
    /// version loads as empty (its keys must not be trusted).
    ///
    /// # Errors
    ///
    /// Returns filesystem errors as-is and malformed JSON as
    /// [`std::io::ErrorKind::InvalidData`].
    pub fn load(path: &Path) -> std::io::Result<CacheSnapshot> {
        Self::load_with(path, &FaultPlan::disabled()).map(|(snapshot, _)| snapshot)
    }

    /// Like [`load`](Self::load), but a corrupt document — truncated by a
    /// torn write, or with a garbage region — is **salvaged** instead of
    /// rejected: every entry that still parses under the current key shape
    /// is recovered, and only a document yielding zero entries (a
    /// version-1 document among them) is reported as `InvalidData`.
    /// Salvaged and dropped entry counts land on the
    /// [`FaultPlan`]'s log — including for disabled plans, so real
    /// corruption is always visible in health reports. The returned
    /// [`SnapshotOrigin`] says whether the snapshot is the file as-is or
    /// had to be salvaged or dropped.
    pub fn load_with(
        path: &Path,
        faults: &FaultPlan,
    ) -> std::io::Result<(CacheSnapshot, SnapshotOrigin)> {
        let text = std::fs::read_to_string(path)?;
        let empty = CacheSnapshot {
            version: SNAPSHOT_VERSION,
            partition: Vec::new(),
        };
        match serde_json::from_str::<CacheSnapshot>(&text) {
            Ok(snap) if snap.version == SNAPSHOT_VERSION => Ok((snap, SnapshotOrigin::Current)),
            Ok(_) => Ok((empty, SnapshotOrigin::UnknownVersion)),
            // Not the current shape: a corrupt document (salvage what
            // parses) or one with nothing to salvage (report it).
            Err(e) => salvage(&text, faults)
                .map(|snap| (snap, SnapshotOrigin::Salvaged))
                .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())),
        }
    }
}

/// Best-effort recovery of a corrupt snapshot document: extracts the
/// top-level elements of the `"partition"` array textually (string- and
/// nesting-aware, tolerant of truncation) and keeps every element that
/// parses under the current key shape.
/// Returns `None` when nothing is recoverable. Entries are worth salvaging
/// because cached values are *exact*: a warm start from a salvaged subset
/// is bit-identical to one from the full file — the subset only changes
/// which lookups hit.
fn salvage(text: &str, faults: &FaultPlan) -> Option<CacheSnapshot> {
    let mut out = CacheSnapshot {
        version: SNAPSHOT_VERSION,
        partition: Vec::new(),
    };
    let mut dropped = 0u64;
    for element in extract_array_elements(text, "partition") {
        match serde_json::from_str::<(EvalKey, ScoredEval)>(element) {
            Ok(entry) => out.partition.push(entry),
            Err(_) => dropped += 1,
        }
    }
    if out.is_empty() {
        return None;
    }
    out.partition.sort_by_key(|entry| entry.0);
    out.partition.dedup_by(|a, b| a.0 == b.0);
    faults.log().note_salvaged_entries(out.len() as u64);
    faults.log().note_dropped_entries(dropped);
    Some(out)
}

/// Returns the top-level element substrings of the JSON array stored under
/// `"field"` in `text`, without requiring the document to be well-formed:
/// elements are split on depth-0 commas with full string/escape awareness,
/// extraction stops at the array's closing bracket (or any depth-0
/// close — corruption may unbalance the document), and a trailing partial
/// element from a torn write is dropped rather than returned.
fn extract_array_elements<'a>(text: &'a str, field: &str) -> Vec<&'a str> {
    let marker = format!("\"{field}\"");
    let Some(pos) = text.find(&marker) else {
        return Vec::new();
    };
    let after = &text[pos + marker.len()..];
    let Some(stripped) = after.trim_start().strip_prefix(':') else {
        return Vec::new();
    };
    let Some(body) = stripped.trim_start().strip_prefix('[') else {
        return Vec::new();
    };
    let mut elements = Vec::new();
    let mut depth = 0i64;
    let mut in_str = false;
    let mut escaped = false;
    let mut start = 0usize;
    let push = |elements: &mut Vec<&'a str>, start: usize, end: usize| {
        let element = body[start..end].trim();
        if !element.is_empty() {
            elements.push(element);
        }
    };
    for (i, c) in body.char_indices() {
        if in_str {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_str = false;
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            '[' | '{' => depth += 1,
            ']' | '}' => {
                if depth == 0 {
                    // The array's own close (or an unbalanced one from a
                    // corrupt region): the last complete element ends here.
                    push(&mut elements, start, i);
                    return elements;
                }
                depth -= 1;
            }
            ',' if depth == 0 => {
                push(&mut elements, start, i);
                start = i + 1;
            }
            _ => {}
        }
    }
    // Truncated document: whatever trails the last depth-0 comma is a
    // partial element — drop it.
    elements
}

/// The bounded cache of partition roll-ups: an [`FpCache`] (its lookups and
/// counters are reached through `Deref`) whose sweeps report to telemetry
/// and whose entries persist through [`CacheSnapshot`]s.
#[derive(Debug)]
pub struct EvalCache {
    entries: FpCache<EvalKey, ScoredEval>,
    /// Sweep events land here; disabled handles cost one branch per
    /// sweep (sweeps are rare — at most one per `capacity/2` inserts).
    telemetry: Telemetry,
}

impl std::ops::Deref for EvalCache {
    type Target = FpCache<EvalKey, ScoredEval>;

    fn deref(&self) -> &Self::Target {
        &self.entries
    }
}

impl EvalCache {
    /// Creates an empty cache bounded to `capacity` entries; an enabled
    /// `telemetry` handle receives an `engine.cache.sweep` event (evicted,
    /// remaining) whenever a generation sweep fires. Observation-only: the
    /// sweep policy and its victims are unchanged.
    pub fn with_capacity_telemetry(capacity: usize, telemetry: Telemetry) -> Self {
        Self {
            entries: FpCache::with_capacity(capacity),
            telemetry,
        }
    }

    /// Inserts a computed partition evaluation, reporting any sweep it ran
    /// to telemetry (this shadows [`FpCache::insert`]).
    pub fn insert(&self, key: EvalKey, value: ScoredEval) {
        if let Some((evicted, remaining)) = self.entries.insert(key, value) {
            self.telemetry.emit("engine.cache.sweep", || {
                vec![("evicted", evicted.into()), ("remaining", remaining.into())]
            });
        }
    }

    /// A serializable image of the cache (entries sorted by key, so
    /// snapshots are stable and diffable).
    pub fn snapshot(&self) -> CacheSnapshot {
        CacheSnapshot {
            version: SNAPSHOT_VERSION,
            partition: self.entries.entries(),
        }
    }

    /// Inserts every entry of `snapshot` (counters are unaffected —
    /// restored entries only show up as later hits).
    pub fn restore(&self, snapshot: &CacheSnapshot) {
        if snapshot.version != SNAPSHOT_VERSION {
            return;
        }
        for (key, value) in &snapshot.partition {
            self.insert(*key, *value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empty() -> EvalCache {
        let capacity = crate::config::EngineConfig::DEFAULT_CACHE_CAPACITY;
        EvalCache::with_capacity_telemetry(capacity, Telemetry::disabled())
    }

    fn sg(groups: &[&[usize]]) -> Vec<Vec<NodeId>> {
        groups
            .iter()
            .map(|g| g.iter().map(|&i| NodeId::from_index(i)).collect())
            .collect()
    }

    fn scored(ema: u64) -> ScoredEval {
        ScoredEval {
            ema_bytes: ema,
            energy_pj: ema as f64,
            buffer_bytes: 1,
            fits: true,
            error: false,
        }
    }

    #[test]
    fn keys_distinguish_subgraph_boundaries_and_order() {
        let buf = BufferConfig::shared(1 << 20);
        let opt = EvalOptions::default();
        let a = eval_key(7, &sg(&[&[0, 1], &[2]]), &buf, opt);
        let b = eval_key(7, &sg(&[&[0], &[1, 2]]), &buf, opt);
        let c = eval_key(7, &sg(&[&[2], &[0, 1]]), &buf, opt);
        assert_ne!(a, b, "boundary placement must matter");
        assert_ne!(a, c, "subgraph order must matter");
        // Member order inside one subgraph is canonical by construction:
        // the fingerprint is order-independent, so permuted listings of
        // the same set share a key.
        assert_eq!(
            eval_key(7, &sg(&[&[0, 1], &[2]]), &buf, opt),
            eval_key(7, &sg(&[&[1, 0], &[2]]), &buf, opt)
        );
    }

    #[test]
    fn keys_distinguish_evaluators() {
        // Same subgraphs, buffer and options under two evaluator
        // fingerprints (two models/platforms) must never collide.
        let buf = BufferConfig::shared(1 << 20);
        let opt = EvalOptions::default();
        let a = eval_key(1, &sg(&[&[0, 1]]), &buf, opt);
        let b = eval_key(2, &sg(&[&[0, 1]]), &buf, opt);
        assert_ne!(a, b, "evaluator identity must be part of the key");
        assert_eq!(a.fingerprint, 1, "the raw fingerprint rides along");
        assert_eq!(b.fingerprint, 2);
    }

    #[test]
    fn keys_distinguish_buffer_and_options() {
        let parts = sg(&[&[0, 1]]);
        let base = eval_key(
            7,
            &parts,
            &BufferConfig::shared(1 << 20),
            EvalOptions::default(),
        );
        assert_ne!(
            base,
            eval_key(
                7,
                &parts,
                &BufferConfig::shared(2 << 20),
                EvalOptions::default()
            )
        );
        assert_ne!(
            base,
            eval_key(
                7,
                &parts,
                &BufferConfig::separate(1 << 19, 1 << 19),
                EvalOptions::default()
            )
        );
        assert_ne!(
            base,
            eval_key(
                7,
                &parts,
                &BufferConfig::shared(1 << 20),
                EvalOptions::with_cores(2)
            )
        );
        assert_ne!(
            base,
            eval_key(
                7,
                &parts,
                &BufferConfig::shared(1 << 20),
                EvalOptions::with_batch(4)
            )
        );
    }

    #[test]
    fn hit_and_miss_counters_per_level() {
        let cache = empty();
        let key = eval_key(
            7,
            &sg(&[&[0]]),
            &BufferConfig::shared(64),
            EvalOptions::default(),
        );
        assert!(cache.get(&key).is_none());
        cache.insert(key, scored(7));
        assert_eq!(cache.get(&key).unwrap().ema_bytes, 7);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn snapshot_round_trips() {
        let cache = empty();
        let key = |i: usize| {
            eval_key(
                7,
                &sg(&[&[0, 1], &[i]]),
                &BufferConfig::shared(64),
                EvalOptions::default(),
            )
        };
        for i in 2..5usize {
            cache.insert(key(i), scored(i as u64 + 10));
        }
        let snap = cache.snapshot();
        assert_eq!(snap.len(), 3);
        let other = empty();
        other.restore(&snap);
        for i in 2..5usize {
            assert_eq!(other.get(&key(i)).unwrap(), scored(i as u64 + 10));
        }
        assert_eq!(other.snapshot(), snap, "snapshot ordering is stable");
    }

    #[test]
    fn snapshot_split_by_fingerprint() {
        let cache = empty();
        for fp in [1u64, 2] {
            cache.insert(
                eval_key(
                    fp,
                    &sg(&[&[0]]),
                    &BufferConfig::shared(64),
                    EvalOptions::default(),
                ),
                scored(fp),
            );
        }
        let (mine, rest) = cache.snapshot().split_fingerprint(1);
        assert_eq!(mine.len(), 1);
        assert_eq!(rest.len(), 1);
        assert!(mine.partition.iter().all(|(k, _)| k.fingerprint == 1));
        assert!(rest.partition.iter().all(|(k, _)| k.fingerprint == 2));
        let mut merged = mine.clone();
        merged.merge(rest);
        assert_eq!(merged.len(), 2);
        // Merging a duplicate is idempotent.
        merged.merge(mine);
        assert_eq!(merged.len(), 2);
    }

    #[test]
    fn save_and_load_files() {
        let dir = std::env::temp_dir().join(format!("cocco-cache-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.json");
        let cache = empty();
        cache.insert(
            eval_key(
                9,
                &sg(&[&[0, 1], &[2]]),
                &BufferConfig::separate(1 << 19, 1 << 19),
                EvalOptions::default(),
            ),
            ScoredEval {
                ema_bytes: 21,
                energy_pj: 1.0 / 3.0, // exercises exact f64 round-trip
                buffer_bytes: 1 << 20,
                fits: false,
                error: false,
            },
        );
        cache.snapshot().save(&path).unwrap();
        let plan = FaultPlan::disabled();
        let (snap, origin) = CacheSnapshot::load_with(&path, &plan).unwrap();
        assert_eq!(origin, SnapshotOrigin::Current);
        assert_eq!(snap.len(), 1);
        let restored = empty();
        restored.restore(&snap);
        assert_eq!(restored.snapshot(), cache.snapshot());

        // Malformed files surface as InvalidData, not a panic.
        std::fs::write(&path, "{not json").unwrap();
        let err = CacheSnapshot::load(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);

        // Unknown versions load as empty.
        let stale = CacheSnapshot {
            version: SNAPSHOT_VERSION + 1,
            partition: vec![(
                EvalKey {
                    fingerprint: 1,
                    lo: 2,
                    hi: 3,
                },
                scored(1),
            )],
        };
        stale.save(&path).unwrap();
        let (snap, origin) = CacheSnapshot::load_with(&path, &plan).unwrap();
        assert!(snap.is_empty());
        assert_eq!(origin, SnapshotOrigin::UnknownVersion);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn v1_snapshots_are_refused_as_malformed() {
        // A hand-written v1 document (flattened u64 keys, exactly the v1
        // writer's layout, with its per-subgraph term array) holds no entry
        // of the current key shape, so it fails to load as malformed
        // instead of loading or panicking — and records nothing as
        // salvaged.
        let dir = std::env::temp_dir().join(format!("cocco-cache-v1-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("v1.json");
        let text = format!(
            concat!(
                "{{\"version\":1,",
                "\"partition\":[[[9,0,{total},0,1,1,0,1,{max},2,{max}],",
                "{{\"ema_bytes\":21,\"energy_pj\":21.0,\"buffer_bytes\":1,",
                "\"fits\":true,\"error\":false}}]],",
                "\"subgraph\":[[[9,0,{total},0,1,1,77,2],",
                "{{\"ema_bytes\":5,\"energy_pj\":2.5,\"fits\":true}}]]}}"
            ),
            total = 1u64 << 20,
            max = u64::MAX,
        );
        std::fs::write(&path, text).unwrap();
        let plan = FaultPlan::disabled();
        let err = CacheSnapshot::load_with(&path, &plan).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert_eq!(plan.log().salvaged_entries(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Builds a twelve-entry cache and returns it with its snapshot text.
    fn populated_snapshot_text() -> (EvalCache, String) {
        let cache = empty();
        let buf = BufferConfig::shared(1 << 20);
        for i in 0..12usize {
            cache.insert(
                eval_key(9, &sg(&[&[i], &[i + 20]]), &buf, EvalOptions::default()),
                scored(i as u64),
            );
        }
        let text = serde_json::to_string(&cache.snapshot()).unwrap();
        (cache, text)
    }

    fn stale_temps(dir: &Path) -> usize {
        std::fs::read_dir(dir)
            .into_iter()
            .flatten()
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .count()
    }

    #[test]
    fn injected_write_error_cleans_temp_and_reports() {
        use cocco_faults::{FaultRates, FaultSite};
        let dir = std::env::temp_dir().join(format!("cocco-cache-werr-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (cache, _) = populated_snapshot_text();
        let plan =
            cocco_faults::FaultPlan::seeded(1, FaultRates::none().with(FaultSite::SaveWrite, 1.0));
        let path = dir.join("cache.json");
        let err = cache.snapshot().save_with(&path, &plan).unwrap_err();
        assert!(err.to_string().contains("injected write error"));
        assert!(!path.exists());
        assert_eq!(stale_temps(&dir), 0, "satellite: no stale .tmp.* files");
        assert!(plan.log().save_failures() > 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_save_salvages_on_load() {
        use cocco_faults::{FaultRates, FaultSite};
        let dir = std::env::temp_dir().join(format!("cocco-cache-torn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (cache, _) = populated_snapshot_text();
        let full = cache.snapshot();
        let path = dir.join("cache.json");
        let plan =
            cocco_faults::FaultPlan::seeded(2, FaultRates::none().with(FaultSite::SaveTorn, 1.0));
        full.save_with(&path, &plan).expect("torn saves still land");
        let load_plan = cocco_faults::FaultPlan::disabled();
        let (salvaged, origin) = CacheSnapshot::load_with(&path, &load_plan).expect("salvage");
        assert_eq!(origin, SnapshotOrigin::Salvaged);
        assert!(!salvaged.is_empty(), "torn snapshot must salvage entries");
        assert!(salvaged.len() < full.len(), "the tail was lost");
        assert_eq!(load_plan.log().salvaged_entries(), salvaged.len() as u64);
        // Every salvaged entry is exact — byte-identical to the original.
        for (key, value) in &salvaged.partition {
            assert_eq!(
                full.partition.iter().find(|(k, _)| k == key).unwrap().1,
                *value
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_truncation_point_salvages_or_errors_never_panics() {
        let dir = std::env::temp_dir().join(format!("cocco-cache-trunc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (_, text) = populated_snapshot_text();
        let path = dir.join("cache.json");
        let mut salvages = 0usize;
        for cut in (0..text.len()).step_by(17) {
            let mut end = cut;
            while end < text.len() && !text.is_char_boundary(end) {
                end += 1;
            }
            std::fs::write(&path, &text[..end]).unwrap();
            match CacheSnapshot::load(&path) {
                Ok(snap) => {
                    assert_eq!(snap.version, SNAPSHOT_VERSION);
                    salvages += 1;
                }
                Err(err) => assert_eq!(err.kind(), std::io::ErrorKind::InvalidData),
            }
        }
        assert!(salvages > 0, "later truncation points must salvage");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_region_salvages_surviving_entries() {
        let dir = std::env::temp_dir().join(format!("cocco-cache-corr-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (_, text) = populated_snapshot_text();
        let path = dir.join("cache.json");
        // Splice garbage into the middle of the document, as the
        // SaveCorrupt fault does.
        let cut = text.len() / 2;
        std::fs::write(
            &path,
            format!("{}!corrupt!{}", &text[..cut], &text[cut + 20..]),
        )
        .unwrap();
        let plan = cocco_faults::FaultPlan::disabled();
        match CacheSnapshot::load_with(&path, &plan) {
            Ok((snap, _)) => {
                assert!(!snap.is_empty());
                assert!(plan.log().salvaged_entries() > 0);
            }
            Err(err) => assert_eq!(err.kind(), std::io::ErrorKind::InvalidData),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The key's JSON object, as the snapshot writer renders it.
    fn key_json(key: EvalKey) -> String {
        format!(
            "{{\"fingerprint\":{},\"lo\":{},\"hi\":{}}}",
            key.fingerprint, key.lo, key.hi
        )
    }

    #[test]
    fn v2_documents_with_subgraph_terms_still_warm_start() {
        // Before the term level was removed, v2 files also carried a
        // `subgraph` array of per-subgraph terms. Such a file must still
        // load its partition entries (the array is ignored), restore them
        // as hits, and salvage them when a torn write cut the file inside
        // the term array.
        let dir = std::env::temp_dir().join(format!("cocco-cache-v2t-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("v2.json");
        let buffer = BufferConfig::shared(1 << 20);
        let options = EvalOptions::default();
        // Sorted, as the writer sorted them.
        let mut keys = [
            eval_key(9, &sg(&[&[0, 1], &[2]]), &buffer, options),
            eval_key(9, &sg(&[&[0], &[1, 2]]), &buffer, options),
        ];
        keys.sort_unstable();
        let entry = |key: EvalKey, ema: u64| {
            format!(
                concat!(
                    "[{},{{\"ema_bytes\":{},\"energy_pj\":{}.0,",
                    "\"buffer_bytes\":1,\"fits\":true,\"error\":false}}]"
                ),
                key_json(key),
                ema,
                ema
            )
        };
        let term = |lo: u64| {
            format!(
                "[{},{{\"ema_bytes\":5,\"energy_pj\":2.5,\"fits\":true}}]",
                key_json(EvalKey {
                    fingerprint: 9,
                    lo,
                    hi: lo + 1,
                })
            )
        };
        let text = format!(
            "{{\"version\":2,\"partition\":[{},{}],\"subgraph\":[{},{}]}}",
            entry(keys[0], 21),
            entry(keys[1], 22),
            term(3),
            term(4)
        );
        std::fs::write(&path, &text).unwrap();
        let snap = CacheSnapshot::load(&path).expect("an intact v2 document loads");
        assert_eq!(snap.version, SNAPSHOT_VERSION);
        assert_eq!(snap.len(), 2);
        let cache = empty();
        cache.restore(&snap);
        assert_eq!(cache.get(&keys[0]).unwrap(), scored(21));
        assert_eq!(cache.get(&keys[1]).unwrap().ema_bytes, 22);
        assert_eq!(cache.hits(), 2);

        // Cut inside the second term: both partition entries survive.
        let cut = text.rfind("\"energy_pj\":2.5").unwrap();
        std::fs::write(&path, &text[..cut]).unwrap();
        let plan = cocco_faults::FaultPlan::disabled();
        let (salvaged, origin) = CacheSnapshot::load_with(&path, &plan).expect("salvage");
        assert_eq!(origin, SnapshotOrigin::Salvaged);
        assert_eq!(salvaged, snap);
        assert_eq!(plan.log().salvaged_entries(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_v1_documents_are_refused_as_malformed() {
        let dir = std::env::temp_dir().join(format!("cocco-cache-v1t-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("v1.json");
        // Two v1 partition entries, the document cut inside the second: the
        // intact first entry has a v1 key, which the salvage pass does not
        // read, so nothing is recovered and the load fails as malformed.
        let text = format!(
            concat!(
                "{{\"version\":1,\"partition\":[",
                "[[9,0,{total},0,1,1,0,1,{max},2,{max}],",
                "{{\"ema_bytes\":21,\"energy_pj\":21.0,\"buffer_bytes\":1,",
                "\"fits\":true,\"error\":false}}],",
                "[[9,0,{total},0,1,1,3,{max},4,{max}],",
                "{{\"ema_bytes\":22,\"energy"
            ),
            total = 1u64 << 20,
            max = u64::MAX,
        );
        std::fs::write(&path, text).unwrap();
        let plan = FaultPlan::disabled();
        let err = CacheSnapshot::load_with(&path, &plan).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert_eq!(plan.log().salvaged_entries(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_use_is_consistent() {
        let cache = std::sync::Arc::new(empty());
        let keys: Vec<EvalKey> = (0..64)
            .map(|i| {
                eval_key(
                    7,
                    &sg(&[&[i]]),
                    &BufferConfig::shared(64),
                    EvalOptions::default(),
                )
            })
            .collect();
        let mut handles = Vec::new();
        for t in 0..4 {
            let cache = cache.clone();
            let keys = keys.clone();
            handles.push(std::thread::spawn(move || {
                for (i, key) in keys.iter().enumerate() {
                    if let Some(v) = cache.get(key) {
                        assert_eq!(v.ema_bytes, i as u64, "thread {t}");
                    } else {
                        cache.insert(*key, scored(i as u64));
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(cache.len(), 64);
        for (i, key) in keys.iter().enumerate() {
            assert_eq!(cache.get(key).unwrap().ema_bytes, i as u64);
        }
    }
}
