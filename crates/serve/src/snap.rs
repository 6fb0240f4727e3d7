//! The `wfomc-snap/v1` on-disk snapshot store for prepared plan state.
//!
//! Replay from the JSONL registry log is correct but not cheap: every
//! logged sentence is re-planned from scratch (normal form, cell tables,
//! circuit compilation). The snapshot store persists each plan's prepared
//! state — the payload produced by `Plan::snap_encode` — under
//! `<dir>/<canonical-fnv-hash>.snap`, so a warm boot costs one read and one
//! validated decode per plan instead of a replan.
//!
//! # File format
//!
//! Every snapshot is a header followed by the raw payload, all integers
//! little-endian:
//!
//! | field          | type     | meaning                                   |
//! |----------------|----------|-------------------------------------------|
//! | magic          | 4 bytes  | `"WSNP"`                                  |
//! | format version | u16      | [`FORMAT_VERSION`]                        |
//! | crate version  | string   | `CARGO_PKG_VERSION` of the writer         |
//! | sentence key   | u64      | the registry's canonical-sentence FNV-1a  |
//! | payload length | u64      | byte length of the payload                |
//! | checksum       | u64      | FNV-1a over the payload bytes             |
//! | payload        | bytes    | `Plan::snap_encode` output                |
//!
//! # Invalidation
//!
//! [`SnapshotStore::load`] returns the payload only when *every* header
//! field checks out against this build and the expected key. Version skew
//! (format or crate), a key mismatch, truncation, a checksum failure, or
//! any read error short of "file not found" all count as *invalid*: the
//! snapshot is ignored and the caller replans. A stale or corrupt snapshot
//! therefore can never change an answer — it only costs the replan it was
//! supposed to save.
//!
//! Writes go through a temp file in the same directory followed by an
//! atomic rename, so a crash mid-write leaves either the old snapshot or a
//! `.tmp` orphan, never a torn `.snap`.

use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use wfomc_logic::snap::{fnv1a, Dec};

/// Version of the snapshot container format. Bump on any layout change;
/// older files then fall back to replan silently.
pub const FORMAT_VERSION: u16 = 1;

/// The four magic bytes opening every snapshot file.
pub const MAGIC: [u8; 4] = *b"WSNP";

/// The writer's crate version, embedded in every header. Prepared-state
/// payloads are not guaranteed stable across releases, so any crate-version
/// difference invalidates a snapshot wholesale — replanning is always safe.
const CRATE_VERSION: &str = env!("CARGO_PKG_VERSION");

/// Always-on counters describing a store's lifetime (reported as the
/// `snap.*` counters of the server's `/v1/metrics`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SnapStats {
    /// Snapshots loaded and validated successfully.
    pub hits: u64,
    /// Load attempts where no snapshot file existed.
    pub misses: u64,
    /// Load attempts rejected by validation (version skew, key mismatch,
    /// truncation, checksum failure, unreadable file).
    pub invalid: u64,
    /// Snapshots written.
    pub writes: u64,
}

/// A directory of versioned plan-state snapshots, one file per registered
/// plan, keyed by the registry's canonical-sentence hash.
#[derive(Debug)]
pub struct SnapshotStore {
    dir: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
    invalid: AtomicU64,
    writes: AtomicU64,
}

impl SnapshotStore {
    /// A store rooted at `dir` (created lazily on the first write).
    pub fn new(dir: impl Into<PathBuf>) -> SnapshotStore {
        SnapshotStore {
            dir: dir.into(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            invalid: AtomicU64::new(0),
            writes: AtomicU64::new(0),
        }
    }

    /// The conventional store for a registry log: a `snapshots/` directory
    /// next to the log file (`.wfomc/registry.jsonl` → `.wfomc/snapshots`).
    pub fn for_registry(registry_path: &Path) -> SnapshotStore {
        let parent = registry_path.parent().unwrap_or_else(|| Path::new("."));
        SnapshotStore::new(parent.join("snapshots"))
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The snapshot path for a plan id (the registry's 16-hex-digit key).
    pub fn path_for(&self, id: &str) -> PathBuf {
        self.dir.join(format!("{id}.snap"))
    }

    /// Lifetime hit/miss/invalid/write counts.
    pub fn stats(&self) -> SnapStats {
        SnapStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            invalid: self.invalid.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
        }
    }

    /// Atomically writes the snapshot for `id`: temp file in the store
    /// directory, then rename over the final path.
    pub fn write(&self, id: &str, key: u64, payload: &[u8]) -> io::Result<PathBuf> {
        fs::create_dir_all(&self.dir)?;
        let final_path = self.path_for(id);
        let tmp_path = self.dir.join(format!("{id}.snap.tmp"));
        let mut bytes = Vec::with_capacity(40 + CRATE_VERSION.len() + payload.len());
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&(CRATE_VERSION.len() as u64).to_le_bytes());
        bytes.extend_from_slice(CRATE_VERSION.as_bytes());
        bytes.extend_from_slice(&key.to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&fnv1a(payload).to_le_bytes());
        bytes.extend_from_slice(payload);
        {
            let mut file = fs::File::create(&tmp_path)?;
            file.write_all(&bytes)?;
            file.flush()?;
        }
        fs::rename(&tmp_path, &final_path)?;
        self.writes.fetch_add(1, Ordering::Relaxed);
        Ok(final_path)
    }

    /// Loads and validates the snapshot for `id`, returning the payload
    /// only when every header field matches this build and `key`. A missing
    /// file counts as a miss; anything else that fails counts as invalid.
    /// Both return `None` — the caller replans.
    pub fn load(&self, id: &str, key: u64) -> Option<Vec<u8>> {
        let bytes = match fs::read(self.path_for(id)) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
            Err(_) => {
                self.invalid.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        match validate(&bytes, key) {
            Ok(payload) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(payload)
            }
            Err(_) => {
                self.invalid.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Records an invalidation detected *after* a successful header-level
    /// [`load`](SnapshotStore::load) — e.g. the payload failed to decode or
    /// described a different registration than the log expects.
    pub fn note_invalid(&self) {
        self.invalid.fetch_add(1, Ordering::Relaxed);
    }

    /// Removes the snapshot for `id` if present (used when an invalid file
    /// would otherwise be revalidated on every boot).
    pub fn remove(&self, id: &str) -> io::Result<()> {
        match fs::remove_file(self.path_for(id)) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
            _ => Ok(()),
        }
    }

    /// Lists every `*.snap` file in the store with its validation status,
    /// sorted by id — the `wfomc-serve snapshots` subcommand. The expected
    /// key of each file is its own filename (ids *are* sentence keys), so
    /// inspection needs no registry.
    pub fn inspect(&self) -> io::Result<Vec<SnapshotInfo>> {
        let mut out = Vec::new();
        let entries = match fs::read_dir(&self.dir) {
            Ok(entries) => entries,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(out),
            Err(e) => return Err(e),
        };
        for entry in entries {
            let entry = entry?;
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) != Some("snap") {
                continue;
            }
            let id = match path.file_stem().and_then(|s| s.to_str()) {
                Some(stem) => stem.to_string(),
                None => continue,
            };
            let bytes = fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
            let status = match u64::from_str_radix(&id, 16) {
                Err(_) => "invalid: filename is not a sentence key".to_string(),
                Ok(_) if id.len() != 16 => "invalid: filename is not a 16-digit key".to_string(),
                Ok(key) => match fs::read(&path) {
                    Err(e) => format!("invalid: unreadable ({e})"),
                    Ok(raw) => match validate(&raw, key) {
                        Ok(_) => "ok".to_string(),
                        Err(reason) => format!("invalid: {reason}"),
                    },
                },
            };
            out.push(SnapshotInfo { id, bytes, status });
        }
        out.sort_by(|a, b| a.id.cmp(&b.id));
        Ok(out)
    }
}

/// One row of [`SnapshotStore::inspect`].
#[derive(Clone, Debug)]
pub struct SnapshotInfo {
    /// The plan id (canonical-sentence key, 16 hex digits).
    pub id: String,
    /// File size in bytes.
    pub bytes: u64,
    /// `"ok"` or `"invalid: <reason>"`.
    pub status: String,
}

/// Checks every header field against this build and the expected key and
/// returns the payload, or the first reason the file must be rejected.
fn validate(bytes: &[u8], key: u64) -> Result<Vec<u8>, String> {
    let mut dec = Dec::new(bytes);
    let mut magic = [0u8; 4];
    for slot in &mut magic {
        *slot = dec.u8().map_err(|e| e.to_string())?;
    }
    if magic != MAGIC {
        return Err("bad magic".to_string());
    }
    let format_version = dec.u16().map_err(|e| e.to_string())?;
    if format_version != FORMAT_VERSION {
        return Err(format!(
            "format version skew (file {format_version}, build {FORMAT_VERSION})"
        ));
    }
    let crate_version = dec.str().map_err(|e| e.to_string())?;
    if crate_version != CRATE_VERSION {
        return Err(format!(
            "crate version skew (file {crate_version}, build {CRATE_VERSION})"
        ));
    }
    let file_key = dec.u64().map_err(|e| e.to_string())?;
    if file_key != key {
        return Err("sentence key mismatch".to_string());
    }
    let payload_len = dec.usize().map_err(|e| e.to_string())?;
    let checksum = dec.u64().map_err(|e| e.to_string())?;
    if dec.remaining() != payload_len {
        return Err(format!(
            "payload length mismatch (header {payload_len}, file {})",
            dec.remaining()
        ));
    }
    let payload = dec.rest();
    if fnv1a(payload) != checksum {
        return Err("checksum failure".to_string());
    }
    Ok(payload.to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64 as TestCounter;

    static TEMP_SEQ: TestCounter = TestCounter::new(0);

    fn temp_dir(tag: &str) -> PathBuf {
        let seq = TEMP_SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("wfomc-snap-{tag}-{}-{seq}", std::process::id()))
    }

    const ID: &str = "00000000deadbeef";
    const KEY: u64 = 0xdead_beef;

    #[test]
    fn write_then_load_round_trips() {
        let store = SnapshotStore::new(temp_dir("roundtrip"));
        let payload = b"prepared plan state".to_vec();
        store.write(ID, KEY, &payload).unwrap();
        assert_eq!(store.load(ID, KEY), Some(payload));
        let stats = store.stats();
        assert_eq!((stats.writes, stats.hits, stats.invalid), (1, 1, 0));
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn missing_snapshot_is_a_miss_not_invalid() {
        let store = SnapshotStore::new(temp_dir("miss"));
        assert_eq!(store.load(ID, KEY), None);
        let stats = store.stats();
        assert_eq!((stats.misses, stats.invalid), (1, 0));
    }

    #[test]
    fn version_skew_truncation_and_corruption_invalidate() {
        let store = SnapshotStore::new(temp_dir("invalid"));
        let payload = b"payload".to_vec();
        let path = store.write(ID, KEY, &payload).unwrap();
        let pristine = std::fs::read(&path).unwrap();

        // Bump the format version byte (offset 4, little-endian u16).
        let mut skewed = pristine.clone();
        skewed[4] = skewed[4].wrapping_add(1);
        std::fs::write(&path, &skewed).unwrap();
        assert_eq!(store.load(ID, KEY), None, "version skew");

        // Truncate mid-payload.
        std::fs::write(&path, &pristine[..pristine.len() - 3]).unwrap();
        assert_eq!(store.load(ID, KEY), None, "truncation");

        // Flip a payload byte: checksum failure.
        let mut corrupt = pristine.clone();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0xff;
        std::fs::write(&path, &corrupt).unwrap();
        assert_eq!(store.load(ID, KEY), None, "checksum");

        // Wrong key: same bytes, different expectation.
        std::fs::write(&path, &pristine).unwrap();
        assert_eq!(store.load(ID, KEY + 1), None, "key mismatch");

        assert_eq!(store.stats().invalid, 4);
        // The pristine file still loads.
        assert_eq!(store.load(ID, KEY), Some(payload));
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn inspect_reports_status_per_file() {
        let store = SnapshotStore::new(temp_dir("inspect"));
        assert!(store.inspect().unwrap().is_empty(), "no dir yet");
        let path = store.write(ID, KEY, b"payload").unwrap();
        std::fs::write(store.dir().join("0000000000000001.snap"), b"garbage").unwrap();
        let rows = store.inspect().unwrap();
        assert_eq!(rows.len(), 2);
        assert!(rows[0].status.starts_with("invalid:"), "{}", rows[0].status);
        assert_eq!(rows[1].id, ID);
        assert_eq!(rows[1].status, "ok");
        assert_eq!(rows[1].bytes, std::fs::metadata(&path).unwrap().len());
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn remove_is_idempotent() {
        let store = SnapshotStore::new(temp_dir("remove"));
        store.write(ID, KEY, b"payload").unwrap();
        store.remove(ID).unwrap();
        store.remove(ID).unwrap();
        assert_eq!(store.load(ID, KEY), None);
        std::fs::remove_dir_all(store.dir()).ok();
    }
}
