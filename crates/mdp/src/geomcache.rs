//! Content-addressed, disk-backed geometry cache: the persistent tier
//! below the layout driver's per-run dedup.
//!
//! A layout run keyed on [canonical geometry](maskfrac_geom::canonicalize)
//! fractures each D4-and-translation orbit once per *process*. This tier
//! makes that once per *artifact directory*: every freshly computed
//! canonical geometry is stored as one content-addressed file, and any
//! later run over a revised chip re-fractures only the cells whose
//! canonical geometry (or result-affecting config) actually changed.
//!
//! # Artifact format
//!
//! One file per (config, canonical geometry) pair at
//! `DIR/<config_fp:016x>/<geometry_fp:016x>.mfg`, where both
//! fingerprints are the journal's stable FNV-1a
//! ([`journal::config_fingerprint`] / [`journal::geometry_fingerprint`]
//! — never `DefaultHasher`, which is not stable across Rust releases).
//! The file body reuses the journal's torn-write-safe framing
//! (`[len: u32 LE][crc: u64 LE][payload]`):
//!
//! 1. a header frame: magic `MFGEOM\0\0`, format version (u32 LE),
//!    config fingerprint (u64 LE), geometry fingerprint (u64 LE);
//! 2. a record frame: one encoded [`JournalRecord`] — the full
//!    fracturing outcome including the shot list in canonical frame.
//!
//! Writes go to a temp file and land by atomic rename, so readers never
//! observe a partial artifact; any file that fails length, checksum,
//! magic, version, or fingerprint validation is treated as a miss and
//! recomputed over.
//!
//! Counters: `mdp.geomcache.hits` (artifact served), `mdp.geomcache.misses`
//! (lookup on an absent or invalid artifact), `mdp.geomcache.writes`
//! (artifact persisted), `mdp.geomcache.write_failures` (persist failed;
//! the run continues uncached).

use crate::journal::{self, JournalRecord};
use maskfrac_fracture::FractureConfig;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Magic prefix of a geometry-cache artifact's header frame.
pub(crate) const GEOMCACHE_MAGIC: [u8; 8] = *b"MFGEOM\0\0";

/// Artifact format version this build reads and writes.
pub(crate) const GEOMCACHE_VERSION: u32 = 1;

/// Handle on one config's namespace inside a persistent geometry-cache
/// directory. See the [module docs](self) for the artifact format.
#[derive(Debug)]
pub(crate) struct GeomCache {
    dir: PathBuf,
    config_fingerprint: u64,
}

impl GeomCache {
    /// Opens (creating if needed) the cache namespace for `config`
    /// under `root`. Artifacts of other configs live in sibling
    /// directories and are never touched.
    ///
    /// # Errors
    ///
    /// Returns the underlying error when the namespace directory cannot
    /// be created.
    pub(crate) fn open(root: &Path, config: &FractureConfig) -> std::io::Result<GeomCache> {
        let config_fingerprint = journal::config_fingerprint(config);
        let dir = root.join(format!("{config_fingerprint:016x}"));
        std::fs::create_dir_all(&dir)?;
        Ok(GeomCache {
            dir,
            config_fingerprint,
        })
    }

    /// The namespace directory artifacts of this config land in.
    #[cfg(test)]
    pub(crate) fn dir(&self) -> &Path {
        &self.dir
    }

    fn artifact_path(&self, geometry: u64) -> PathBuf {
        self.dir.join(format!("{geometry:016x}.mfg"))
    }

    /// Loads the cached outcome for one canonical geometry fingerprint.
    ///
    /// Any validation failure — missing file, torn frame, wrong magic or
    /// version, foreign fingerprint — reads as `None` (a miss), so a
    /// corrupt artifact costs one recompute, never a wrong result.
    pub(crate) fn load(&self, geometry: u64) -> Option<JournalRecord> {
        let record = self.load_validated(geometry);
        match record {
            Some(_) => maskfrac_obs::counter!("mdp.geomcache.hits").incr(),
            None => maskfrac_obs::counter!("mdp.geomcache.misses").incr(),
        }
        record
    }

    fn load_validated(&self, geometry: u64) -> Option<JournalRecord> {
        let bytes = std::fs::read(self.artifact_path(geometry)).ok()?;
        let (header, consumed) = journal::next_frame(&bytes)?;
        if header.len() != 28
            || header[..8] != GEOMCACHE_MAGIC
            || u32::from_le_bytes(header[8..12].try_into().ok()?) != GEOMCACHE_VERSION
            || u64::from_le_bytes(header[12..20].try_into().ok()?) != self.config_fingerprint
            || u64::from_le_bytes(header[20..28].try_into().ok()?) != geometry
        {
            return None;
        }
        let (payload, _) = journal::next_frame(&bytes[consumed..])?;
        let record = JournalRecord::decode(payload)?;
        (record.geometry == geometry).then_some(record)
    }

    /// Persists one freshly computed outcome. A failure is reported to
    /// the caller (and counted as `mdp.geomcache.write_failures`) but is
    /// never fatal to the run — the result simply stays uncached.
    pub(crate) fn store(&self, record: &JournalRecord) -> std::io::Result<()> {
        let result = self.store_atomic(record);
        match &result {
            Ok(()) => maskfrac_obs::counter!("mdp.geomcache.writes").incr(),
            Err(_) => maskfrac_obs::counter!("mdp.geomcache.write_failures").incr(),
        }
        result
    }

    fn store_atomic(&self, record: &JournalRecord) -> std::io::Result<()> {
        let mut header = Vec::with_capacity(28);
        header.extend_from_slice(&GEOMCACHE_MAGIC);
        header.extend_from_slice(&GEOMCACHE_VERSION.to_le_bytes());
        header.extend_from_slice(&self.config_fingerprint.to_le_bytes());
        header.extend_from_slice(&record.geometry.to_le_bytes());
        let mut bytes = journal::frame(&header);
        bytes.extend_from_slice(&journal::frame(&record.encode()));

        // Temp-write plus atomic rename: a crash mid-store leaves either
        // no artifact or a stale temp file, never a half-written
        // artifact under the content address.
        let path = self.artifact_path(record.geometry);
        let tmp = self.dir.join(format!(
            "{:016x}.mfg.tmp.{}",
            record.geometry,
            std::process::id()
        ));
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(&bytes)?;
        file.flush()?;
        drop(file);
        std::fs::rename(&tmp, &path).inspect_err(|_| {
            let _ = std::fs::remove_file(&tmp);
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maskfrac_fracture::FractureStatus;
    use maskfrac_geom::Rect;

    fn record(geometry: u64) -> JournalRecord {
        JournalRecord {
            geometry,
            status: FractureStatus::Ok,
            method: "ours".into(),
            error: None,
            attempts: 1,
            iterations: 12,
            on_fail_pixels: 0,
            off_fail_pixels: 0,
            fail_pixels: 0,
            deadline_hit: false,
            shots: vec![
                Rect::new(0, 0, 40, 40).unwrap(),
                Rect::new(40, 0, 80, 25).unwrap(),
            ],
        }
    }

    fn tmp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("maskfrac-geomcache-tests")
            .join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn store_then_load_round_trips() {
        let root = tmp_root("round-trip");
        let cache = GeomCache::open(&root, &FractureConfig::default()).unwrap();
        let rec = record(0xABCD_EF01_2345_6789);
        assert!(cache.load(rec.geometry).is_none(), "cold cache misses");
        cache.store(&rec).unwrap();
        assert_eq!(cache.load(rec.geometry), Some(rec));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn torn_artifact_reads_as_a_miss() {
        let root = tmp_root("torn");
        let cache = GeomCache::open(&root, &FractureConfig::default()).unwrap();
        let rec = record(77);
        cache.store(&rec).unwrap();
        let path = cache.dir().join(format!("{:016x}.mfg", rec.geometry));
        let bytes = std::fs::read(&path).unwrap();
        // Chop mid-record-frame: the checksum no longer covers a full
        // payload, so validation must fail closed.
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        assert!(cache.load(rec.geometry).is_none());
        // A bit flip inside the payload must also read as a miss.
        let mut flipped = bytes.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x40;
        std::fs::write(&path, &flipped).unwrap();
        assert!(cache.load(rec.geometry).is_none());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn config_namespaces_do_not_alias() {
        let root = tmp_root("namespaces");
        let a = GeomCache::open(&root, &FractureConfig::default()).unwrap();
        let other = FractureConfig {
            gamma: FractureConfig::default().gamma * 2.0,
            ..FractureConfig::default()
        };
        let b = GeomCache::open(&root, &other).unwrap();
        assert_ne!(a.dir(), b.dir());
        let rec = record(5);
        a.store(&rec).unwrap();
        assert!(b.load(rec.geometry).is_none(), "foreign config never hits");
        assert_eq!(a.load(rec.geometry), Some(rec));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn artifact_of_a_foreign_config_fingerprint_is_rejected() {
        let root = tmp_root("foreign");
        let a = GeomCache::open(&root, &FractureConfig::default()).unwrap();
        let rec = record(9);
        a.store(&rec).unwrap();
        // Copy the artifact into another config's namespace under the
        // same geometry address; its embedded config fingerprint no
        // longer matches and must be rejected.
        let other = FractureConfig {
            sigma: FractureConfig::default().sigma + 1.0,
            ..FractureConfig::default()
        };
        let b = GeomCache::open(&root, &other).unwrap();
        std::fs::copy(
            a.dir().join(format!("{:016x}.mfg", rec.geometry)),
            b.dir().join(format!("{:016x}.mfg", rec.geometry)),
        )
        .unwrap();
        assert!(b.load(rec.geometry).is_none());
        let _ = std::fs::remove_dir_all(&root);
    }
}
