//! The content-addressed result cache.
//!
//! Every matrix cell is keyed by everything that determines its result:
//! benchmark name, protocol configuration, scale, the workload
//! parameters, the crate version, a cache schema version, and a hash of
//! the simulator's sources ([`SOURCE_HASH`]). The
//! key's canonical string is hashed (FNV-1a 64) into the file name under
//! the cache directory, and each file stores the canonical key alongside
//! the serialized [`SimStats`] so a fingerprint collision is detected
//! rather than silently served.
//!
//! The simulator is deterministic, which is what makes caching sound:
//! a cell's stats are a pure function of its key. Repeated sweeps and
//! A/B comparisons then only re-run cells whose key changed — any edit
//! to the simulator's sources or a version bump invalidates everything,
//! a new benchmark or config only adds cells.
//!
//! Writes are atomic (`tmp` + rename), so concurrent workers — or
//! concurrent *processes* — racing on the same cell at worst both
//! compute it; neither can observe a torn file.

use gsim_types::{JsonValue, ProtocolConfig, SimStats};
use gsim_workloads::Scale;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Bumped whenever the serialized schema or the meaning of a key
/// changes; every bump invalidates the whole cache.
///
/// v2: cells can carry an optional profile report alongside the stats,
/// and profiled keys embed the profiling parameters.
///
/// v3: cells can additionally carry an optional flow report, and flowed
/// keys embed the flow parameters (interval and journey period).
///
/// v4: cells can additionally carry an optional lens report, and lensed
/// keys embed the lens parameters (level and top-k).
///
/// v5: entries hold stats only (observer reports are no longer cached),
/// and keys carry the source hash as `src=`.
pub const SCHEMA_VERSION: u32 = 5;

/// FNV-1a 64 over the sources a cached result depends on: the `.rs`
/// files under `src/`, any `build.rs`, and the `Cargo.toml` of this
/// crate and of every workspace crate it depends on, directly or not,
/// in sorted path order (computed by `build.rs`). Any edit to simulator
/// code or to a configuration default changes it, so entries written
/// by an older build are misses, never hits.
pub const SOURCE_HASH: &str = env!("GSIM_SOURCE_HASH");

/// FNV-1a 64-bit: tiny, dependency-free, stable across platforms and
/// releases (unlike `DefaultHasher`, whose output is explicitly not
/// stable — unusable for on-disk content addressing).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Everything that determines one cell's result.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CacheKey {
    /// Benchmark name (Table 4 abbreviation).
    pub bench: String,
    /// Protocol/consistency configuration.
    pub config: ProtocolConfig,
    /// Workload scale.
    pub scale: Scale,
    /// Workload parameters beyond the scale (the registry's Table 4
    /// input string, plus the system-configuration note — anything that
    /// would change the numbers must appear here).
    pub params: String,
}

impl CacheKey {
    /// The canonical key string: human-readable, stable, and the input
    /// to the fingerprint.
    pub fn canonical(&self) -> String {
        format!(
            "schema={};crate={};src={};bench={};config={};scale={:?};params={}",
            SCHEMA_VERSION,
            env!("CARGO_PKG_VERSION"),
            SOURCE_HASH,
            self.bench,
            self.config.abbrev(),
            self.scale,
            self.params,
        )
    }

    /// The content address (file stem) of this key.
    pub fn fingerprint(&self) -> u64 {
        fnv1a(self.canonical().as_bytes())
    }
}

/// A directory of cached `SimStats`, one JSON file per cell.
#[derive(Debug)]
pub struct ResultCache {
    dir: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
    stores: AtomicU64,
    tmp_seq: AtomicU64,
}

impl ResultCache {
    /// The default cache location: `$GSIM_CACHE_DIR` if set, otherwise
    /// `target/gsim-cache/` in this workspace.
    pub fn default_dir() -> PathBuf {
        if let Ok(dir) = std::env::var("GSIM_CACHE_DIR") {
            return PathBuf::from(dir);
        }
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/gsim-cache")
    }

    /// Opens (creating if needed) the cache at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<ResultCache> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(ResultCache {
            dir,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            stores: AtomicU64::new(0),
            tmp_seq: AtomicU64::new(0),
        })
    }

    /// Opens the cache at [`ResultCache::default_dir`].
    pub fn open_default() -> std::io::Result<ResultCache> {
        Self::open(Self::default_dir())
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path_of(&self, key: &CacheKey) -> PathBuf {
        self.dir.join(format!("{:016x}.json", key.fingerprint()))
    }

    /// Looks a cell up. A malformed file, a schema mismatch, or a
    /// stored canonical key that differs from `key`'s (a fingerprint
    /// collision, or an entry from other sources) all count as misses —
    /// the caller recomputes and overwrites.
    pub fn get(&self, key: &CacheKey) -> Option<SimStats> {
        let found = self.lookup(key);
        match found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    fn lookup(&self, key: &CacheKey) -> Option<SimStats> {
        let text = std::fs::read_to_string(self.path_of(key)).ok()?;
        let doc = JsonValue::parse(&text).ok()?;
        if doc.get("key")?.as_str()? != key.canonical() {
            return None;
        }
        SimStats::from_json_value(doc.get("stats")?).ok()
    }

    /// Stores a cell's result. Errors are deliberately swallowed — a
    /// read-only or full disk degrades to "no cache", never to a failed
    /// sweep.
    pub fn put(&self, key: &CacheKey, stats: &SimStats) {
        let doc = JsonValue::Obj(vec![
            ("key".into(), JsonValue::Str(key.canonical())),
            ("stats".into(), stats.to_json_value()),
        ]);
        let tmp = self.dir.join(format!(
            "{:016x}.tmp.{}.{}",
            key.fingerprint(),
            std::process::id(),
            self.tmp_seq.fetch_add(1, Ordering::Relaxed),
        ));
        if std::fs::write(&tmp, doc.to_string()).is_ok()
            && std::fs::rename(&tmp, self.path_of(key)).is_ok()
        {
            self.stores.fetch_add(1, Ordering::Relaxed);
        } else {
            let _ = std::fs::remove_file(&tmp);
        }
    }

    /// Lookups served from disk since open.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that missed (and were presumably recomputed).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Results written since open.
    pub fn stores(&self) -> u64 {
        self.stores.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("gsim-cache-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn key(bench: &str, config: ProtocolConfig) -> CacheKey {
        CacheKey {
            bench: bench.into(),
            config,
            scale: Scale::Tiny,
            params: "micro15;unit-test".into(),
        }
    }

    #[test]
    fn fnv_reference_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn distinct_keys_have_distinct_fingerprints() {
        let a = key("UTS", ProtocolConfig::Dd);
        let b = key("UTS", ProtocolConfig::Gd);
        let c = key("SPM_G", ProtocolConfig::Dd);
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), c.fingerprint());
        let mut paper = a.clone();
        paper.scale = Scale::Paper;
        assert_ne!(a.fingerprint(), paper.fingerprint());
    }

    #[test]
    fn round_trip_hit_and_miss_accounting() {
        let cache = ResultCache::open(tmp_dir("roundtrip")).unwrap();
        let k = key("UTS", ProtocolConfig::Dd);
        assert_eq!(cache.get(&k), None);
        assert_eq!((cache.hits(), cache.misses()), (0, 1));

        let mut stats = SimStats {
            cycles: 777,
            ..Default::default()
        };
        stats.counts.instructions = 9;
        stats.latency.load_to_use.record(12);
        cache.put(&k, &stats);
        assert_eq!(cache.stores(), 1);

        assert_eq!(cache.get(&k), Some(stats));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn corrupt_file_is_a_miss_not_an_error() {
        let cache = ResultCache::open(tmp_dir("corrupt")).unwrap();
        let k = key("SPM_G", ProtocolConfig::Gh);
        cache.put(&k, &SimStats::default());
        let path = cache.dir().join(format!("{:016x}.json", k.fingerprint()));
        std::fs::write(&path, "{definitely not json").unwrap();
        assert_eq!(cache.get(&k), None);
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn collision_detected_by_canonical_key() {
        let cache = ResultCache::open(tmp_dir("collision")).unwrap();
        let k = key("NN", ProtocolConfig::Dd);
        cache.put(&k, &SimStats::default());
        // Simulate a colliding key by rewriting the stored canonical key.
        let path = cache.dir().join(format!("{:016x}.json", k.fingerprint()));
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.replace("bench=NN", "bench=XX")).unwrap();
        assert_eq!(cache.get(&k), None, "mismatched key must not be served");
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn entry_from_other_sources_is_a_miss() {
        let cache = ResultCache::open(tmp_dir("stale-src")).unwrap();
        let k = key("FAM_G", ProtocolConfig::Gd);
        assert!(k.canonical().contains(&format!(";src={SOURCE_HASH};")));
        cache.put(&k, &SimStats::default());
        // The same entry as an older build would have written it.
        let path = cache.dir().join(format!("{:016x}.json", k.fingerprint()));
        let text = std::fs::read_to_string(&path).unwrap();
        let stale = text.replace(&format!("src={SOURCE_HASH}"), "src=0000000000000000");
        assert_ne!(stale, text);
        std::fs::write(&path, stale).unwrap();
        assert_eq!(
            cache.get(&k),
            None,
            "an entry from other sources must not be served"
        );
        let _ = std::fs::remove_dir_all(cache.dir());
    }
}
