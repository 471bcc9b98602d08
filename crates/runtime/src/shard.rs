//! A sharded, concurrently-accessible memo cache.
//!
//! The [`ExperimentSession`](crate::ExperimentSession) used to keep its memo map behind
//! one global `Mutex<HashMap>`, which serialised every submitter — fine for one driver
//! thread, pathological for the measurement *service*, where many client connections
//! submit batches against the same session concurrently.  [`ShardedCache`] splits the
//! map into `next_pow2(4 × cores)` independently-locked shards selected by the top bits
//! of the 128-bit job key, so concurrent submitters only contend when they touch the
//! same shard.  The top bits, because the key is an FNV-1a hash: its low bit `k`
//! depends only on the low `k + 1` bits of every input byte, so the low bits spread
//! structured inputs unevenly, while the top bits mix every input bit.  (The store
//! picks its directory from the top byte for the same reason.)
//!
//! The entry count is tracked in a relaxed atomic beside the shards, so size queries
//! (the `session.memo_entries` telemetry gauge, stats summaries) never take a shard
//! lock.  Every lock acquisition goes through [`poison`](crate::poison) recovery: the
//! shards only ever see plain map operations, never caller code, so a panicking
//! measurement job elsewhere can never wedge the cache.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::poison;

/// The sharding factor: shards = `next_pow2(FACTOR × available cores)`.  Over-sharding
/// relative to the core count keeps the probability of two concurrent submitters
/// hashing into the same shard low without measurable memory cost.
const SHARD_FACTOR: usize = 4;

/// The default shard count for this host.
fn default_shards() -> usize {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    (SHARD_FACTOR * cores).next_power_of_two()
}

/// A concurrent `u128 → V` map sharded over independently-locked `HashMap`s.
///
/// All methods take `&self`; the cache is internally synchronised and safe to share
/// across threads.  Values are handed out by clone ([`get`](Self::get)), never by
/// reference, so no caller ever holds a shard lock across its own code.
pub struct ShardedCache<V> {
    shards: Box<[Mutex<HashMap<u128, V>>]>,
    /// `128 - log2(shards.len())`; the shard count is a power of two, so the key's top
    /// `log2(shards.len())` bits are the full selection function.
    shift: u32,
    /// Total entries across all shards, maintained on insert so size queries are
    /// lock-free.
    entries: AtomicUsize,
}

impl<V> Default for ShardedCache<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> ShardedCache<V> {
    /// A cache with the default shard count for this host
    /// (`next_pow2(4 × available cores)`).
    pub fn new() -> Self {
        Self::with_shards(default_shards())
    }

    /// A cache with at least `shards` shards (rounded up to a power of two, minimum 1).
    pub fn with_shards(shards: usize) -> Self {
        let count = shards.max(1).next_power_of_two();
        let shards: Box<[Mutex<HashMap<u128, V>>]> =
            (0..count).map(|_| Mutex::new(HashMap::new())).collect();
        Self { shards, shift: 128 - count.trailing_zeros(), entries: AtomicUsize::new(0) }
    }

    /// The number of shards (always a power of two).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The index of the shard a key lives in: the key's top bits.
    pub(crate) fn shard_index(&self, key: u128) -> usize {
        key.checked_shr(self.shift).unwrap_or(0) as usize
    }

    fn shard(&self, key: u128) -> &Mutex<HashMap<u128, V>> {
        &self.shards[self.shard_index(key)]
    }

    /// Whether `key` has an entry.
    pub fn contains(&self, key: u128) -> bool {
        poison::lock(self.shard(key)).contains_key(&key)
    }

    /// Inserts (or replaces) the entry for `key`.  Returns `true` when the key was new.
    pub fn insert(&self, key: u128, value: V) -> bool {
        let fresh = poison::lock(self.shard(key)).insert(key, value).is_none();
        if fresh {
            self.entries.fetch_add(1, Ordering::Relaxed);
        }
        fresh
    }

    /// Total entries across all shards.  Lock-free: reads the maintained atomic.
    pub fn len(&self) -> usize {
        self.entries.load(Ordering::Relaxed)
    }

    /// Returns `true` when no shard has any entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<V: Clone> ShardedCache<V> {
    /// The value for `key`, cloned out from under its shard lock.
    pub fn get(&self, key: u128) -> Option<V> {
        poison::lock(self.shard(key)).get(&key).cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_counts_round_up_to_powers_of_two() {
        assert_eq!(ShardedCache::<u32>::with_shards(0).shard_count(), 1);
        assert_eq!(ShardedCache::<u32>::with_shards(1).shard_count(), 1);
        assert_eq!(ShardedCache::<u32>::with_shards(3).shard_count(), 4);
        assert_eq!(ShardedCache::<u32>::with_shards(4).shard_count(), 4);
        assert_eq!(ShardedCache::<u32>::with_shards(33).shard_count(), 64);
        let host_default = ShardedCache::<u32>::new().shard_count();
        assert!(host_default.is_power_of_two() && host_default >= 4);
    }

    #[test]
    fn insert_get_and_len_agree() {
        let cache = ShardedCache::with_shards(8);
        assert!(cache.is_empty());
        assert!(cache.insert(7, "seven"));
        assert!(cache.insert(8, "eight"));
        assert!(!cache.insert(7, "seven again"), "overwrite is not a new entry");
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(7), Some("seven again"));
        assert_eq!(cache.get(8), Some("eight"));
        assert_eq!(cache.get(9), None);
        assert!(cache.contains(8));
        assert!(!cache.contains(9));
    }

    #[test]
    fn keys_spread_over_shards_by_their_top_bits() {
        let cache = ShardedCache::<u32>::with_shards(8);
        // Keys differing only below the top three bits land in the same shard; the top
        // three bits sweep all shards.
        assert_eq!(cache.shard_index(0x10), cache.shard_index(0x1F00_0000_0000_0010));
        let distinct: std::collections::HashSet<usize> =
            (0u128..8).map(|k| cache.shard_index(k << 125)).collect();
        assert_eq!(distinct.len(), 8, "the 8 top-bit patterns hit 8 distinct shards");
        assert_eq!(ShardedCache::<u32>::with_shards(1).shard_index(u128::MAX), 0);
    }

    #[test]
    fn concurrent_mixed_access_is_consistent() {
        let cache = ShardedCache::with_shards(16);
        let threads = 8u32;
        let per_thread = 512u128;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let cache = &cache;
                scope.spawn(move || {
                    for i in 0..per_thread {
                        let key = u128::from(t) * per_thread + i;
                        cache.insert(key, key * 3);
                        assert_eq!(cache.get(key), Some(key * 3));
                    }
                });
            }
        });
        assert_eq!(cache.len(), threads as usize * per_thread as usize);
        for key in 0..u128::from(threads) * per_thread {
            assert_eq!(cache.get(key), Some(key * 3));
        }
    }

    #[test]
    fn a_panicked_holder_does_not_wedge_the_shard() {
        let cache = std::sync::Arc::new(ShardedCache::with_shards(2));
        cache.insert(0, 1u64);
        let poisoner = std::sync::Arc::clone(&cache);
        std::thread::spawn(move || {
            let _guard = poisoner.shard(0).lock().expect("first lock is clean");
            panic!("poison shard 0");
        })
        .join()
        .expect_err("the poisoning thread panicked");
        assert_eq!(cache.get(0), Some(1), "poisoned shard recovers with its data intact");
        assert!(!cache.insert(0, 2));
        assert_eq!(cache.get(0), Some(2));
    }
}
