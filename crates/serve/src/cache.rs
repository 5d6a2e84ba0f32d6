//! The content-addressed result cache.
//!
//! Keys are human-readable strings built from the model's stable content
//! hash plus everything else that determines the answer:
//! `check/<hash>/<scope>/<encoding>/<solver-config>` (or `lint/…`) → the
//! finished response payload bytes. A hit skips translation *and*
//! solving; a miss builds, translates and solves.
//!
//! Entries share one LRU clock and one byte budget: inserting past the
//! budget evicts least-recently-used entries until the cache fits. The
//! entry just inserted is never evicted by its own insertion, so a
//! budget smaller than a single entry still serves that entry (and
//! simply thrashes, correctly). All counters are plain `u64`s behind the
//! same mutex as the map, so a [`CacheStats`] snapshot is internally
//! consistent.
//!
//! Forming a key needs the model's content hash, and hashing means
//! building the model and rendering its Alloy source. A second map, the
//! **model-hash memo**, remembers that hash per resolved request spec —
//! the scenario label plus the wire encoding, which together fix the
//! model — so a warm hit never builds a model. The memo is bounded by
//! construction (the server accepts 5 named scenarios and 9 scopes in 2
//! encodings: at most 28 entries), so it sits outside the byte budget,
//! is never evicted, and has no [`CacheStats`] counter.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use crate::wire::WireEncoding;

/// One observable cache operation, returned to the caller so the server
/// can emit `serve-cache` trace events without the cache knowing about
/// observers (the cache is shared across connection threads; observers
/// are single-threaded).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CacheOp {
    /// `"hit"`, `"miss"`, `"insert"`, or `"evict"`.
    pub op: &'static str,
    /// The content-addressed key.
    pub key: String,
}

/// Monotonic counters over the cache's lifetime, plus current/high-water
/// byte occupancy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that hit.
    pub verdict_hits: u64,
    /// Lookups that missed.
    pub verdict_misses: u64,
    /// Entries evicted to stay under the byte budget.
    pub evictions: u64,
    /// Estimated bytes currently held.
    pub bytes: u64,
    /// High-water mark of [`CacheStats::bytes`].
    pub bytes_hwm: u64,
}

struct Entry {
    value: Arc<Vec<u8>>,
    bytes: usize,
    last_used: u64,
}

#[derive(Default)]
struct Inner {
    verdicts: HashMap<String, Entry>,
    /// `<encoding>/<scenario label>` → the model's content hash.
    model_hashes: HashMap<String, u64>,
    clock: u64,
    bytes: usize,
    stats: CacheStats,
}

fn memo_key(label: &str, encoding: WireEncoding) -> String {
    format!("{}/{label}", encoding.slug())
}

/// The shared content-addressed cache. All methods take `&self`; one
/// internal mutex serializes the short map/LRU bookkeeping while the
/// (long) build/translate/solve work happens outside the lock.
pub struct ResultCache {
    inner: Mutex<Inner>,
    budget: usize,
}

impl ResultCache {
    /// An empty cache holding at most ~`budget_bytes` of payloads
    /// (estimated sizes).
    pub fn new(budget_bytes: usize) -> ResultCache {
        ResultCache {
            inner: Mutex::new(Inner::default()),
            budget: budget_bytes,
        }
    }

    /// The configured byte budget.
    pub fn budget_bytes(&self) -> usize {
        self.budget
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("cache mutex poisoned")
    }

    /// Looks up a finished payload. Records a hit or miss.
    pub fn get_verdict(&self, key: &str, ops: &mut Vec<CacheOp>) -> Option<Arc<Vec<u8>>> {
        let mut inner = self.lock();
        inner.clock += 1;
        let clock = inner.clock;
        match inner.verdicts.get_mut(key) {
            Some(entry) => {
                entry.last_used = clock;
                let value = entry.value.clone();
                inner.stats.verdict_hits += 1;
                ops.push(CacheOp {
                    op: "hit",
                    key: key.to_string(),
                });
                Some(value)
            }
            None => {
                inner.stats.verdict_misses += 1;
                ops.push(CacheOp {
                    op: "miss",
                    key: key.to_string(),
                });
                None
            }
        }
    }

    /// The memoized content hash of the model a resolved spec denotes,
    /// if a request for it has built that model before. Touches no
    /// counter and no LRU clock.
    pub fn model_hash(&self, label: &str, encoding: WireEncoding) -> Option<u64> {
        self.lock()
            .model_hashes
            .get(&memo_key(label, encoding))
            .copied()
    }

    /// Memoizes a spec's model hash. `label` must come from a successful
    /// [`resolve_scenario`](crate::request::resolve_scenario), which is
    /// what bounds the memo, and `hash` must be that model's
    /// `content_hash()`, which is what keeps keys content-addressed. Only
    /// the request path calls this, so both hold by construction.
    /// Re-inserting stores the same value: model build and hashing are
    /// deterministic in (scenario, encoding).
    pub(crate) fn remember_model_hash(&self, label: &str, encoding: WireEncoding, hash: u64) {
        self.lock()
            .model_hashes
            .insert(memo_key(label, encoding), hash);
    }

    /// How many specs have a memoized model hash.
    pub fn model_hash_count(&self) -> usize {
        self.lock().model_hashes.len()
    }

    /// Inserts a finished payload, evicting LRU entries past the budget.
    pub fn put_verdict(&self, key: &str, payload: Arc<Vec<u8>>, ops: &mut Vec<CacheOp>) {
        let bytes = payload.len() + key.len() + 64;
        let mut inner = self.lock();
        inner.clock += 1;
        let clock = inner.clock;
        if let Some(old) = inner.verdicts.insert(
            key.to_string(),
            Entry {
                value: payload,
                bytes,
                last_used: clock,
            },
        ) {
            inner.bytes -= old.bytes;
        }
        inner.bytes += bytes;
        ops.push(CacheOp {
            op: "insert",
            key: key.to_string(),
        });
        Self::settle(&mut inner, self.budget, clock, ops);
    }

    /// Evicts least-recently-used entries until the cache fits the
    /// budget, then refreshes the byte counters. Entries touched at the
    /// current clock (i.e. inserted by the in-flight operation) are
    /// exempt, so an oversized single entry survives its own insertion.
    fn settle(inner: &mut Inner, budget: usize, current_clock: u64, ops: &mut Vec<CacheOp>) {
        while inner.bytes > budget {
            let victim = inner
                .verdicts
                .iter()
                .filter(|(_, e)| e.last_used != current_clock)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, e)| (k.clone(), e.bytes));
            let Some((key, bytes)) = victim else {
                break; // only current-clock entries remain
            };
            inner.verdicts.remove(&key);
            inner.bytes -= bytes;
            inner.stats.evictions += 1;
            ops.push(CacheOp { op: "evict", key });
        }
        inner.stats.bytes = inner.bytes as u64;
        inner.stats.bytes_hwm = inner.stats.bytes_hwm.max(inner.bytes as u64);
    }

    /// A consistent snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        let mut inner = self.lock();
        inner.stats.bytes = inner.bytes as u64;
        inner.stats.bytes_hwm = inner.stats.bytes_hwm.max(inner.bytes as u64);
        inner.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arc(bytes: &[u8]) -> Arc<Vec<u8>> {
        Arc::new(bytes.to_vec())
    }

    #[test]
    fn verdict_hits_after_insert() {
        let cache = ResultCache::new(1 << 20);
        let mut ops = Vec::new();
        assert!(cache.get_verdict("check/a", &mut ops).is_none());
        cache.put_verdict("check/a", arc(b"payload"), &mut ops);
        let hit = cache.get_verdict("check/a", &mut ops).expect("hit");
        assert_eq!(&**hit, b"payload");
        let stats = cache.stats();
        assert_eq!(stats.verdict_hits, 1);
        assert_eq!(stats.verdict_misses, 1);
        assert_eq!(
            ops.iter().map(|o| o.op).collect::<Vec<_>>(),
            vec!["miss", "insert", "hit"]
        );
    }

    #[test]
    fn lru_evicts_oldest_first_and_respects_recency() {
        // Budget fits roughly two entries of ~564 bytes each.
        let cache = ResultCache::new(1200);
        let mut ops = Vec::new();
        let big = vec![0u8; 500];
        cache.put_verdict("a", arc(&big), &mut ops);
        cache.put_verdict("b", arc(&big), &mut ops);
        // Touch `a` so `b` becomes the LRU victim.
        assert!(cache.get_verdict("a", &mut ops).is_some());
        cache.put_verdict("c", arc(&big), &mut ops);
        let mut post = Vec::new();
        assert!(cache.get_verdict("a", &mut post).is_some(), "a survived");
        assert!(cache.get_verdict("b", &mut post).is_none(), "b evicted");
        assert!(cache.get_verdict("c", &mut post).is_some(), "c survived");
        assert_eq!(cache.stats().evictions, 1);
        assert!(ops.iter().any(|o| o.op == "evict" && o.key == "b"));
    }

    #[test]
    fn oversized_entry_survives_its_own_insert() {
        let cache = ResultCache::new(10);
        let mut ops = Vec::new();
        cache.put_verdict("huge", arc(&vec![0u8; 4096]), &mut ops);
        assert!(cache.get_verdict("huge", &mut ops).is_some());
        // The next insert evicts it (it is now the LRU non-current entry).
        cache.put_verdict("next", arc(b"x"), &mut ops);
        assert!(cache.get_verdict("huge", &mut ops).is_none());
    }

    #[test]
    fn byte_accounting_tracks_inserts_and_evictions() {
        let cache = ResultCache::new(1 << 20);
        let mut ops = Vec::new();
        assert_eq!(cache.stats().bytes, 0);
        cache.put_verdict("k", arc(&[0u8; 100]), &mut ops);
        let after_one = cache.stats().bytes;
        assert!(after_one > 100);
        // Re-inserting the same key replaces, not accumulates.
        cache.put_verdict("k", arc(&[0u8; 100]), &mut ops);
        assert_eq!(cache.stats().bytes, after_one);
        assert_eq!(cache.stats().bytes_hwm, after_one);
    }

    #[test]
    fn model_hash_memo_separates_encodings_and_counts_nothing() {
        let cache = ResultCache::new(1 << 20);
        assert_eq!(
            cache.model_hash("paper_scope", WireEncoding::Optimized),
            None
        );
        cache.remember_model_hash("paper_scope", WireEncoding::Optimized, 7);
        cache.remember_model_hash("paper_scope", WireEncoding::Optimized, 7);
        assert_eq!(
            cache.model_hash("paper_scope", WireEncoding::Optimized),
            Some(7)
        );
        assert_eq!(cache.model_hash("paper_scope", WireEncoding::Naive), None);
        assert_eq!(cache.model_hash_count(), 1);
        assert_eq!(cache.stats(), CacheStats::default());
    }
}
