//! A shared, content-addressed cache of golden executions.
//!
//! The golden run is the most expensive phase of a campaign — a full
//! fault-free execution of the kernel on the simulated device — and it
//! is pure: its output and [`ExecutionProfile`] depend only on the
//! kernel spec, the device configuration (including its scale divisor)
//! and the input seed. Sweeps and the campaign service therefore share
//! one [`GoldenCache`]: sweep points or submitted jobs that agree on
//! `(kernel, input, device, scale, seed)` reuse a single golden
//! execution instead of recomputing it per campaign.
//!
//! The cache is byte-size bounded with least-recently-used eviction
//! (entries are dominated by the golden output buffer), safe to share
//! across threads, and keeps hit/miss/eviction counters that the runner
//! mirrors into its [`radcrit_obs::MetricsRegistry`] as
//! `radcrit_golden_cache_{hits,misses}_total`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use radcrit_accel::profile::ExecutionProfile;
use radcrit_accel::snapshot::SnapshotSet;

use crate::config::Campaign;

/// The content address of one golden execution.
///
/// Built from the *rendered* kernel spec, device configuration and seed,
/// so any parameter that changes the golden output (input size, device
/// geometry, scale divisor, input seed) changes the key. Analysis knobs
/// (tolerance, classifier, worker count, watchdog deadline) are
/// deliberately excluded — they do not affect the golden run.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct GoldenKey(String);

impl GoldenKey {
    /// The key of `campaign`'s golden execution.
    pub fn for_campaign(campaign: &Campaign) -> Self {
        GoldenKey(format!(
            "kernel={:?}|device={:?}|seed={}",
            campaign.kernel, campaign.device, campaign.seed
        ))
    }

    /// The rendered key material (diagnostics only).
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

/// One cached golden execution: the fault-free output, the dynamic
/// profile the fault sampler derives its cross sections from, and the
/// golden-prefix snapshot set injections fork from.
#[derive(Debug)]
pub struct GoldenEntry {
    /// The golden output buffer.
    pub output: Vec<f64>,
    /// The golden execution profile.
    pub profile: ExecutionProfile,
    /// Golden-prefix machine snapshots injections fork from (empty for
    /// non-resumable kernels).
    pub snapshots: Arc<SnapshotSet>,
}

impl GoldenEntry {
    /// Approximate heap footprint of the entry, used for the cache's
    /// byte budget. The output buffer and the snapshot set dominate; the
    /// profile and key are covered by a fixed overhead allowance.
    fn cost_bytes(&self) -> usize {
        self.output.len() * std::mem::size_of::<f64>()
            + self.snapshots.cost_bytes()
            + ENTRY_OVERHEAD_BYTES
    }
}

/// Fixed per-entry overhead charged on top of the output buffer (key
/// string, profile, map bookkeeping).
const ENTRY_OVERHEAD_BYTES: usize = 1024;

/// Point-in-time counters of a [`GoldenCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GoldenCacheStats {
    /// Lookups that found a cached golden execution.
    pub hits: u64,
    /// Lookups that missed (the caller computed and inserted).
    pub misses: u64,
    /// Entries evicted to stay inside the byte budget.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Bytes currently charged against the budget.
    pub bytes: usize,
}

impl GoldenCacheStats {
    /// The counter deltas `self - earlier` (entries/bytes are taken from
    /// `self`): how a sweep or job batch used a shared cache.
    pub fn since(&self, earlier: &GoldenCacheStats) -> GoldenCacheStats {
        GoldenCacheStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            evictions: self.evictions - earlier.evictions,
            entries: self.entries,
            bytes: self.bytes,
        }
    }
}

struct Resident {
    entry: Arc<GoldenEntry>,
    cost: usize,
    /// Monotonic last-use tick for LRU ordering.
    last_used: u64,
}

#[derive(Default)]
struct Inner {
    map: HashMap<GoldenKey, Resident>,
    bytes: usize,
    tick: u64,
}

/// A thread-safe, byte-size-bounded LRU cache of golden executions.
///
/// # Examples
///
/// ```
/// use radcrit_campaign::golden::GoldenCache;
///
/// let cache = GoldenCache::new(64 * 1024 * 1024);
/// assert_eq!(cache.stats().hits, 0);
/// ```
pub struct GoldenCache {
    inner: Mutex<Inner>,
    max_bytes: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl std::fmt::Debug for GoldenCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("GoldenCache")
            .field("max_bytes", &self.max_bytes)
            .field("stats", &s)
            .finish()
    }
}

impl GoldenCache {
    /// The default byte budget (64 MiB — roughly 8 golden outputs of a
    /// 1024×1024 DGEMM).
    pub const DEFAULT_BYTES: usize = 64 * 1024 * 1024;

    /// Creates a cache bounded to `max_bytes` of golden-output storage.
    pub fn new(max_bytes: usize) -> Self {
        GoldenCache {
            inner: Mutex::new(Inner::default()),
            max_bytes,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// A cache with the [`GoldenCache::DEFAULT_BYTES`] budget, already
    /// wrapped for sharing.
    pub fn shared_default() -> Arc<Self> {
        Arc::new(Self::new(Self::DEFAULT_BYTES))
    }

    /// The configured byte budget.
    pub fn max_bytes(&self) -> usize {
        self.max_bytes
    }

    /// Looks up `key`, counting a hit or miss and refreshing LRU order.
    pub fn get(&self, key: &GoldenKey) -> Option<Arc<GoldenEntry>> {
        let mut inner = self.inner.lock().expect("golden cache lock");
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.get_mut(key) {
            Some(r) => {
                r.last_used = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(&r.entry))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts a computed golden execution under `key`, evicting
    /// least-recently-used entries until the byte budget holds. An entry
    /// larger than the whole budget is not cached at all. Re-inserting
    /// an existing key replaces the entry.
    pub fn insert(&self, key: GoldenKey, entry: GoldenEntry) -> Arc<GoldenEntry> {
        let cost = entry.cost_bytes();
        let entry = Arc::new(entry);
        let mut inner = self.inner.lock().expect("golden cache lock");
        inner.tick += 1;
        let tick = inner.tick;
        // Any previous entry under the key is stale the moment its
        // replacement was computed, so it goes away even when the new
        // entry itself turns out to be uncacheable.
        if let Some(old) = inner.map.remove(&key) {
            inner.bytes -= old.cost;
        }
        if cost > self.max_bytes {
            return entry; // would evict everything and still not fit
        }
        while inner.bytes + cost > self.max_bytes {
            let Some(lru_key) = inner
                .map
                .iter()
                .min_by_key(|(_, r)| r.last_used)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            if let Some(victim) = inner.map.remove(&lru_key) {
                inner.bytes -= victim.cost;
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        inner.bytes += cost;
        inner.map.insert(
            key,
            Resident {
                entry: Arc::clone(&entry),
                cost,
                last_used: tick,
            },
        );
        entry
    }

    /// Current counters and residency.
    pub fn stats(&self) -> GoldenCacheStats {
        let inner = self.inner.lock().expect("golden cache lock");
        GoldenCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: inner.map.len(),
            bytes: inner.bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::KernelSpec;
    use radcrit_accel::config::DeviceConfig;

    fn entry(len: usize) -> GoldenEntry {
        GoldenEntry {
            output: vec![1.0; len],
            snapshots: Arc::default(),
            profile: ExecutionProfile {
                tiles: 1,
                threads_per_tile: 1,
                instantiated_threads: 1,
                resident_threads: 1,
                wave_size: 1,
                total_ops: 1,
                transcendental_ops: 0,
                loads: 0,
                stores: 0,
                cache: Default::default(),
                l2_avg_resident_bytes: 0.0,
                l1_avg_resident_bytes: 0.0,
            },
        }
    }

    fn key(tag: u64) -> GoldenKey {
        GoldenKey::for_campaign(&Campaign::new(
            DeviceConfig::kepler_k40(),
            KernelSpec::Dgemm { n: 32 },
            1,
            tag,
        ))
    }

    #[test]
    fn keys_address_content_not_analysis_knobs() {
        let base = Campaign::new(
            DeviceConfig::kepler_k40(),
            KernelSpec::Dgemm { n: 32 },
            10,
            7,
        );
        let k = GoldenKey::for_campaign(&base);
        // Worker count and injection budget do not change the golden run.
        assert_eq!(
            k,
            GoldenKey::for_campaign(&{
                let mut c = base.clone().with_workers(4);
                c.injections = 99;
                c
            })
        );
        // Seed, kernel size and device scale all do.
        let mut other_seed = base.clone();
        other_seed.seed = 8;
        assert_ne!(k, GoldenKey::for_campaign(&other_seed));
        let mut other_kernel = base.clone();
        other_kernel.kernel = KernelSpec::Dgemm { n: 64 };
        assert_ne!(k, GoldenKey::for_campaign(&other_kernel));
        let mut other_device = base.clone();
        other_device.device = DeviceConfig::kepler_k40().scaled(8).unwrap();
        assert_ne!(k, GoldenKey::for_campaign(&other_device));
    }

    #[test]
    fn hits_and_misses_are_counted() {
        let cache = GoldenCache::new(1 << 20);
        assert!(cache.get(&key(1)).is_none());
        cache.insert(key(1), entry(8));
        let hit = cache.get(&key(1)).expect("inserted entry");
        assert_eq!(hit.output.len(), 8);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn lru_eviction_respects_the_byte_budget() {
        // Budget fits two entries (each 1000*8 + overhead bytes).
        let per = 1000 * 8 + ENTRY_OVERHEAD_BYTES;
        let cache = GoldenCache::new(2 * per);
        cache.insert(key(1), entry(1000));
        cache.insert(key(2), entry(1000));
        // Touch key 1 so key 2 is the LRU victim.
        assert!(cache.get(&key(1)).is_some());
        cache.insert(key(3), entry(1000));
        let s = cache.stats();
        assert_eq!(s.entries, 2);
        assert_eq!(s.evictions, 1);
        assert!(s.bytes <= cache.max_bytes());
        assert!(cache.get(&key(1)).is_some(), "recently used survives");
        assert!(cache.get(&key(2)).is_none(), "LRU entry evicted");
        assert!(cache.get(&key(3)).is_some());
    }

    #[test]
    fn oversized_entries_are_not_cached() {
        let cache = GoldenCache::new(64);
        cache.insert(key(1), entry(1000));
        assert_eq!(cache.stats().entries, 0);
        assert!(cache.get(&key(1)).is_none());
    }

    #[test]
    fn oversized_replacement_still_removes_the_stale_entry() {
        // A replacement too large to cache must still invalidate the
        // entry it replaces — the old entry is stale, not a fallback.
        let per = 8 * 8 + ENTRY_OVERHEAD_BYTES;
        let cache = GoldenCache::new(per);
        cache.insert(key(1), entry(8));
        assert!(cache.get(&key(1)).is_some());
        cache.insert(key(1), entry(100_000));
        assert!(cache.get(&key(1)).is_none(), "stale entry must be gone");
        let s = cache.stats();
        assert_eq!((s.entries, s.bytes), (0, 0));
    }

    #[test]
    fn snapshot_sets_are_charged_against_the_budget() {
        use radcrit_accel::engine::Engine;
        use radcrit_accel::snapshot::SnapshotPolicy;

        let c = Campaign::new(
            DeviceConfig::kepler_k40(),
            KernelSpec::Dgemm { n: 32 },
            1,
            7,
        );
        let mut k = c.kernel.build(c.seed).unwrap();
        let engine = Engine::new(c.device.clone());
        let (out, set) = engine
            .golden_snapshotted(k.as_mut(), &SnapshotPolicy::default())
            .unwrap();
        assert!(!set.is_empty());

        let cache = GoldenCache::new(1 << 30);
        cache.insert(
            key(1),
            GoldenEntry {
                output: out.output.clone(),
                profile: out.profile.clone(),
                snapshots: Arc::default(),
            },
        );
        let plain = cache.stats().bytes;
        cache.insert(
            key(2),
            GoldenEntry {
                output: out.output,
                profile: out.profile,
                snapshots: Arc::new(set),
            },
        );
        let with_snaps = cache.stats().bytes - plain;
        assert!(
            with_snaps > plain,
            "snapshot-carrying entry ({with_snaps} B) must cost more than the plain one ({plain} B)"
        );
    }

    #[test]
    fn stats_since_subtracts_counters() {
        let cache = GoldenCache::new(1 << 20);
        cache.insert(key(1), entry(8));
        cache.get(&key(1));
        let before = cache.stats();
        cache.get(&key(1));
        cache.get(&key(2));
        let delta = cache.stats().since(&before);
        assert_eq!((delta.hits, delta.misses), (1, 1));
    }
}
