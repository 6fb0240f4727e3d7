//! The plan registry: parse/plan once, evaluate forever.
//!
//! Plans are keyed by a 64-bit FNV-1a hash of the sentence's *canonical
//! text* — the formula is parsed and re-printed before hashing, so every
//! spelling of the same formula (whitespace, redundant parentheses,
//! multi-variable binders) lands on the same plan id. PR 8's printer
//! round-trip fix is what makes this trustworthy: `parse(format(f)) == f`
//! holds exactly, so the canonical text is a faithful key and the JSONL
//! registry log can replay it.
//!
//! Concurrency follows the PR-4 bounded-cache pattern (the ground-plan LRU
//! in `wfomc-core`), adapted for a read-mostly service: the map is split
//! over [`SHARDS`] `RwLock` shards, lookups take only a shard *read* lock
//! (recency stamps are atomics bumped through the shared reference), and
//! inserts take the write lock and evict the least-recently-stamped entry
//! once the shard is full. Evicted plans stay alive for requests already
//! holding their `Arc`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use wfomc_core::{Plan, Problem};
use wfomc_logic::parser::parse;
use wfomc_logic::weights::Weights;
use wfomc_obs::metrics as obs;

use crate::wire::ApiError;

/// Number of independent `RwLock` shards.
pub const SHARDS: usize = 8;

/// One registered sentence: its canonical text, default weights, and the
/// analyzed [`Plan`] every request reuses.
#[derive(Debug)]
pub struct RegisteredPlan {
    /// The plan id: the sentence hash in fixed-width hex.
    pub id: String,
    /// The 64-bit key behind the id.
    pub key: u64,
    /// The canonical sentence text (printed form; parses back exactly).
    pub sentence: String,
    /// Default weights, used when a request carries none and persisted in
    /// the registry log.
    pub weights: Weights,
    /// The prepared plan (`Sync`; shared by every concurrent request).
    pub plan: Plan,
    /// Whether a valid on-disk snapshot of this plan exists.
    snapshotted: AtomicBool,
    /// `Plan::snap_stamp` at the time of the last snapshot write; compared
    /// against the live stamp to decide whether a shutdown rewrite is due.
    snap_stamp: AtomicU64,
}

impl RegisteredPlan {
    /// True once an on-disk snapshot has been written (or loaded) for this
    /// plan. Surfaced as the `snapshotted` stats field.
    pub fn snapshotted(&self) -> bool {
        self.snapshotted.load(Ordering::Relaxed)
    }

    /// Records that a snapshot capturing the given [`Plan::snap_stamp`] is
    /// now on disk.
    pub fn mark_snapshotted(&self, stamp: u64) {
        self.snap_stamp.store(stamp, Ordering::Relaxed);
        self.snapshotted.store(true, Ordering::Relaxed);
    }

    /// True when the on-disk snapshot (if any) no longer matches the plan's
    /// live state — caches or compiled circuits grew since the last write —
    /// so a graceful shutdown should rewrite it.
    pub fn snapshot_dirty(&self) -> bool {
        !self.snapshotted() || self.snap_stamp.load(Ordering::Relaxed) != self.plan.snap_stamp()
    }
}

struct Entry {
    plan: Arc<RegisteredPlan>,
    /// Recency stamp for LRU eviction; an atomic so lookups can bump it
    /// under the shard *read* lock.
    stamp: AtomicU64,
}

#[derive(Default)]
struct Shard {
    map: HashMap<u64, Entry>,
}

/// Aggregate registry accounting (always on, like [`wfomc_core::PlanCacheStats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RegistryStats {
    /// Plans currently registered.
    pub len: usize,
    /// Total capacity across shards.
    pub capacity: usize,
    /// Lookups that found their plan.
    pub hits: u64,
    /// Lookups that missed (unknown or evicted id).
    pub misses: u64,
    /// Plans evicted by the LRU bound.
    pub evictions: u64,
}

/// A sharded, LRU-bounded map from sentence hash to [`RegisteredPlan`].
pub struct PlanRegistry {
    shards: Vec<RwLock<Shard>>,
    shard_capacity: usize,
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl PlanRegistry {
    /// A registry holding at most (approximately) `capacity` plans: the
    /// bound is enforced per shard at `ceil(capacity / SHARDS)`, so the
    /// total is rounded up to a multiple of the shard count.
    pub fn new(capacity: usize) -> PlanRegistry {
        let shard_capacity = capacity.max(1).div_ceil(SHARDS);
        PlanRegistry {
            shards: (0..SHARDS).map(|_| RwLock::new(Shard::default())).collect(),
            shard_capacity,
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// FNV-1a over the canonical sentence text.
    pub fn hash_sentence(canonical: &str) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in canonical.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// The fixed-width hex id for a key.
    pub fn format_id(key: u64) -> String {
        format!("{key:016x}")
    }

    /// Parses a sentence and returns its canonical (printed) text.
    pub fn canonicalize(text: &str) -> Result<String, ApiError> {
        let formula = parse(text)
            .map_err(|e| ApiError::bad_request(format!("sentence does not parse: {e}")))?;
        Ok(formula.to_string())
    }

    fn shard_of(&self, key: u64) -> &RwLock<Shard> {
        &self.shards[(key % SHARDS as u64) as usize]
    }

    fn next_stamp(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// Registers a sentence: parses, canonicalizes, and — unless an
    /// identical registration (same canonical text *and* default weights)
    /// already exists — plans it and stores the plan under its hash.
    /// Returns the entry plus whether a new plan was actually created
    /// (`false` means the existing plan was reused and nothing needs to be
    /// appended to the registry log).
    pub fn register(
        &self,
        text: &str,
        weights: Weights,
    ) -> Result<(Arc<RegisteredPlan>, bool), ApiError> {
        let canonical = Self::canonicalize(text)?;
        let key = Self::hash_sentence(&canonical);

        // Fast path: an identical registration already exists.
        {
            let shard = self.shard_of(key).read().expect("registry shard poisoned");
            if let Some(entry) = shard.map.get(&key) {
                if entry.plan.sentence == canonical && entry.plan.weights == weights {
                    entry.stamp.store(self.next_stamp(), Ordering::Relaxed);
                    return Ok((Arc::clone(&entry.plan), false));
                }
            }
        }

        // Plan outside any lock: analysis can be expensive and must not
        // block lookups on the same shard.
        let formula = parse(&canonical).map_err(|e| {
            ApiError::bad_request(format!("canonical sentence failed to re-parse: {e}"))
        })?;
        let plan = Problem::new(formula)
            .with_weights(weights.clone())
            .plan()
            .map_err(|e| ApiError::plan_failed(&e))?;
        let registered = Arc::new(RegisteredPlan {
            id: Self::format_id(key),
            key,
            sentence: canonical.clone(),
            weights,
            plan,
            snapshotted: AtomicBool::new(false),
            snap_stamp: AtomicU64::new(0),
        });

        let mut shard = self.shard_of(key).write().expect("registry shard poisoned");
        // A racing identical registration wins; drop our duplicate work.
        if let Some(entry) = shard.map.get(&key) {
            if entry.plan.sentence == registered.sentence
                && entry.plan.weights == registered.weights
            {
                entry.stamp.store(self.next_stamp(), Ordering::Relaxed);
                return Ok((Arc::clone(&entry.plan), false));
            }
        }
        self.insert_locked(&mut shard, key, Arc::clone(&registered));
        obs::SERVE_PLANS_REGISTERED.inc();
        Ok((registered, true))
    }

    /// Registers an already-prepared plan under its canonical sentence —
    /// the snapshot-warm boot path, where the plan was decoded from disk
    /// instead of analyzed. The entry starts marked as snapshotted at the
    /// plan's current stamp (the snapshot on disk *is* its current state).
    pub fn register_preplanned(
        &self,
        canonical: String,
        weights: Weights,
        plan: Plan,
    ) -> Arc<RegisteredPlan> {
        let key = Self::hash_sentence(&canonical);
        let stamp = plan.snap_stamp();
        let registered = Arc::new(RegisteredPlan {
            id: Self::format_id(key),
            key,
            sentence: canonical,
            weights,
            plan,
            snapshotted: AtomicBool::new(true),
            snap_stamp: AtomicU64::new(stamp),
        });
        let mut shard = self.shard_of(key).write().expect("registry shard poisoned");
        self.insert_locked(&mut shard, key, Arc::clone(&registered));
        obs::SERVE_PLANS_REGISTERED.inc();
        registered
    }

    /// Inserts under an already-held shard write lock, evicting the
    /// least-recently-stamped entry if the shard is full.
    fn insert_locked(&self, shard: &mut Shard, key: u64, registered: Arc<RegisteredPlan>) {
        if !shard.map.contains_key(&key) && shard.map.len() >= self.shard_capacity {
            // Evict the least-recently-stamped entry of this shard.
            if let Some(&victim) = shard
                .map
                .iter()
                .min_by_key(|(_, e)| e.stamp.load(Ordering::Relaxed))
                .map(|(k, _)| k)
            {
                shard.map.remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        let stamp = self.next_stamp();
        shard.map.insert(
            key,
            Entry {
                plan: registered,
                stamp: AtomicU64::new(stamp),
            },
        );
    }

    /// Looks a plan up by its hex id, bumping its LRU recency.
    pub fn get(&self, id: &str) -> Option<Arc<RegisteredPlan>> {
        let key = u64::from_str_radix(id, 16).ok().filter(|_| id.len() == 16);
        let found = key.and_then(|key| {
            let shard = self.shard_of(key).read().expect("registry shard poisoned");
            shard.map.get(&key).map(|entry| {
                entry.stamp.store(self.next_stamp(), Ordering::Relaxed);
                Arc::clone(&entry.plan)
            })
        });
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Number of registered plans.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().expect("registry shard poisoned").map.len())
            .sum()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every registered `(id, canonical sentence)`, sorted by id.
    pub fn entries(&self) -> Vec<(String, String)> {
        let mut out: Vec<(String, String)> = self
            .shards
            .iter()
            .flat_map(|s| {
                s.read()
                    .expect("registry shard poisoned")
                    .map
                    .values()
                    .map(|e| (e.plan.id.clone(), e.plan.sentence.clone()))
                    .collect::<Vec<_>>()
            })
            .collect();
        out.sort();
        out
    }

    /// Every live registered plan, sorted by id — the graceful-shutdown
    /// snapshot sweep walks this to find dirty plans.
    pub fn plans(&self) -> Vec<Arc<RegisteredPlan>> {
        let mut out: Vec<Arc<RegisteredPlan>> = self
            .shards
            .iter()
            .flat_map(|s| {
                s.read()
                    .expect("registry shard poisoned")
                    .map
                    .values()
                    .map(|e| Arc::clone(&e.plan))
                    .collect::<Vec<_>>()
            })
            .collect();
        out.sort_by(|a, b| a.id.cmp(&b.id));
        out
    }

    /// Aggregate accounting.
    pub fn stats(&self) -> RegistryStats {
        RegistryStats {
            len: self.len(),
            capacity: self.shard_capacity * SHARDS,
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfomc_logic::weights::weight_int;

    #[test]
    fn register_is_idempotent_across_spellings() {
        let registry = PlanRegistry::new(16);
        let (a, created_a) = registry
            .register("forall x. forall y. R(x) | S(x,y) | T(y)", Weights::ones())
            .unwrap();
        assert!(created_a);
        // Different whitespace, same canonical text — reuses the plan.
        let (b, created_b) = registry
            .register("forall x,y. (R(x) | S(x,y) | T(y))", Weights::ones())
            .unwrap();
        assert!(!created_b);
        assert_eq!(a.id, b.id);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(registry.len(), 1);
        // Same sentence under different default weights re-plans.
        let mut w = Weights::ones();
        w.set("R", weight_int(2), weight_int(1));
        let (c, created_c) = registry
            .register("forall x. forall y. R(x) | S(x,y) | T(y)", w)
            .unwrap();
        assert!(created_c);
        assert_eq!(c.id, a.id);
        assert_eq!(registry.len(), 1);
    }

    #[test]
    fn get_finds_by_id_and_counts_hits() {
        let registry = PlanRegistry::new(16);
        let (entry, _) = registry
            .register("forall x. exists y. R(x,y)", Weights::ones())
            .unwrap();
        let found = registry.get(&entry.id).expect("registered plan resolves");
        assert_eq!(found.sentence, "forall x. exists y. R(x,y)");
        assert!(registry.get("0000000000000000").is_none());
        assert!(registry.get("not-hex").is_none());
        assert!(registry.get("1234").is_none(), "short ids never resolve");
        let stats = registry.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 3);
        assert_eq!(stats.len, 1);
    }

    #[test]
    fn rejects_unparsable_and_unplannable_sentences() {
        let registry = PlanRegistry::new(16);
        let err = registry
            .register("forall . R(x)", Weights::ones())
            .unwrap_err();
        assert_eq!(err.status, 400);
        // An open formula parses but cannot be planned.
        let err = registry
            .register("R(x) & S(x,y)", Weights::ones())
            .unwrap_err();
        assert_eq!(err.status, 422);
        assert_eq!(err.kind, "plan_failed");
        assert!(registry.is_empty());
    }

    #[test]
    fn lru_evicts_the_least_recently_used_plan() {
        // Capacity 8 over 8 shards = 1 entry per shard: two sentences
        // hashing to the same shard must evict each other.
        let registry = PlanRegistry::new(8);
        let sentences: Vec<String> = (1..=40)
            .map(|k| format!("forall x. exists y. R(x,y) & S{k}(x)"))
            .collect();
        let mut ids = Vec::new();
        for s in &sentences {
            let (entry, created) = registry.register(s, Weights::ones()).unwrap();
            assert!(created);
            ids.push(entry.id.clone());
        }
        let stats = registry.stats();
        assert!(stats.len <= stats.capacity, "{stats:?}");
        assert!(stats.evictions > 0, "{stats:?}");
        // The most recent registration of each shard is still resolvable.
        let (last, created) = registry
            .register(sentences.last().unwrap(), Weights::ones())
            .unwrap();
        assert!(!created, "most recent registration must have survived");
        assert_eq!(&last.id, ids.last().unwrap());
    }

    #[test]
    fn canonical_text_is_a_fixpoint() {
        let canonical = PlanRegistry::canonicalize("forall x,y. (R(x)|S(x,y))").unwrap();
        assert_eq!(
            PlanRegistry::canonicalize(&canonical).unwrap(),
            canonical,
            "canonicalization must be idempotent for the hash key to be stable"
        );
    }
}
