//! The rank-checkpoint cache (DESIGN.md §16).
//!
//! The [`KernelCache`] memoizes `(sub-array, bucket, base) →
//! (post-sentinel match mask, marker word)` — both pure functions of the
//! immutable mapped index — so repeated `LFM` steps over hot buckets of
//! a repeat-dense reference skip the compare recount and the 32-row
//! marker gather on the host. Hits still charge the exact `XNOR_Match` +
//! marker-read cycles a recompute would (the caller's responsibility;
//! see `LfmBatch::run_compare`), keeping the simulated platform
//! oblivious to the cache: it is **host wall-clock only**.

/// Slots in the rank-checkpoint cache: one full sub-array's
/// `(bucket, base)` space (256 buckets × 4 bases), direct-mapped.
const CACHE_SLOTS: usize = 1024;

/// Tag value marking an unoccupied slot (no real platform maps
/// `u32::MAX` sub-arrays).
const EMPTY_TAG: u32 = u32::MAX;

/// Direct-mapped memoization of the `LFM` compare stage:
/// `(sub-array, bucket, base) → (post-sentinel match words, marker)`.
///
/// Both cached values are pure functions of the immutable mapped index
/// — the BWT/CRef/MT zones are written once at mapping time and the
/// sentinel column is fixed per reference — so an entry can never go
/// stale. The cache is **per-session** state (the shared `MappedIndex`
/// stays `&self`-only), deterministic (slot = `bucket * 4 + base`,
/// tag = sub-array index, an insert over a live foreign tag is an
/// eviction), and invisible to the simulated platform: callers charge
/// the same logical ops on a hit that the recompute would have charged,
/// and seeded fault draws keep operating on private per-request mask
/// copies downstream.
#[derive(Debug, Clone)]
pub struct KernelCache {
    tags: Vec<u32>,
    masks: Vec<[u64; 2]>,
    markers: Vec<u32>,
}

impl KernelCache {
    /// An empty cache (every slot unoccupied).
    pub fn new() -> KernelCache {
        KernelCache {
            tags: vec![EMPTY_TAG; CACHE_SLOTS],
            masks: vec![[0u64; 2]; CACHE_SLOTS],
            markers: vec![0u32; CACHE_SLOTS],
        }
    }

    #[inline]
    fn slot(bucket: usize, rank: usize) -> usize {
        (bucket * 4 + rank) & (CACHE_SLOTS - 1)
    }

    /// The cached `(mask words, marker)` for `(subarray, bucket, rank)`,
    /// if the slot holds exactly that key. The caller notes the
    /// hit/miss on its ledger.
    #[inline]
    pub fn lookup(&self, subarray: u32, bucket: usize, rank: usize) -> Option<([u64; 2], u32)> {
        let s = Self::slot(bucket, rank);
        (self.tags[s] == subarray).then(|| (self.masks[s], self.markers[s]))
    }

    /// Installs an entry; returns `true` when a live entry of a
    /// *different* sub-array was displaced (an eviction — same-tag
    /// overwrites are refreshes of identical data and slots start
    /// empty).
    #[inline]
    pub fn insert(
        &mut self,
        subarray: u32,
        bucket: usize,
        rank: usize,
        mask: [u64; 2],
        marker: u32,
    ) -> bool {
        let s = Self::slot(bucket, rank);
        let evicted = self.tags[s] != EMPTY_TAG && self.tags[s] != subarray;
        self.tags[s] = subarray;
        self.masks[s] = mask;
        self.markers[s] = marker;
        evicted
    }
}

impl Default for KernelCache {
    fn default() -> Self {
        KernelCache::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_is_direct_mapped_with_tag_evictions() {
        let mut cache = KernelCache::new();
        assert_eq!(cache.lookup(0, 5, 2), None);
        // First insert occupies an empty slot: not an eviction.
        assert!(!cache.insert(0, 5, 2, [0xAB, 0xCD], 42));
        assert_eq!(cache.lookup(0, 5, 2), Some(([0xAB, 0xCD], 42)));
        // Same key refresh: still not an eviction.
        assert!(!cache.insert(0, 5, 2, [0xAB, 0xCD], 42));
        // A different sub-array misses the slot, and installing it
        // displaces the live entry: one eviction.
        assert_eq!(cache.lookup(7, 5, 2), None);
        assert!(cache.insert(7, 5, 2, [0x11, 0x22], 9));
        assert_eq!(cache.lookup(0, 5, 2), None);
        assert_eq!(cache.lookup(7, 5, 2), Some(([0x11, 0x22], 9)));
        // Distinct (bucket, rank) keys within one sub-array never
        // collide: the slot space covers all 256 × 4 of them.
        let mut cache = KernelCache::new();
        for bucket in 0..256 {
            for rank in 0..4 {
                assert!(!cache.insert(3, bucket, rank, [bucket as u64, rank as u64], 1));
            }
        }
        for bucket in 0..256 {
            for rank in 0..4 {
                assert_eq!(
                    cache.lookup(3, bucket, rank),
                    Some(([bucket as u64, rank as u64], 1))
                );
            }
        }
    }
}
