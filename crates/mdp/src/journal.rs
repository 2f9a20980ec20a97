//! Durable run journal: torn-write-safe checkpoint/resume for layout runs.
//!
//! A full-chip layout run fractures 10⁵–10⁶ instances over hours; a
//! process death at 95% must not restart from zero (ROADMAP:
//! "a killed job resumes instead of restarting"). This module is the
//! durability layer under `--checkpoint`/`--resume`: as the layout
//! driver completes each *distinct geometry*, it appends one framed,
//! checksummed [`JournalRecord`]; a resumed run replays the valid
//! prefix instead of re-fracturing, and fractures only the remainder.
//!
//! # On-disk format
//!
//! The journal is a sequence of *frames*, each
//! `[len: u32 LE][crc: u64 LE][payload: len bytes]` where `crc` is the
//! FNV-1a hash ([`maskfrac_fracture::faults::fingerprint`]) of the
//! payload. Frame 0 is the header: magic `MFJRNL\0\0`, format version,
//! and the `run_fingerprint` of the (layout, config) pair — resuming
//! under a different layout or a result-affecting config change is
//! refused ([`CheckpointIoError::FingerprintMismatch`]). Every further
//! frame is one geometry record.
//!
//! Appends go through a single `write_all` of the complete frame
//! followed by `flush`, so a crash tears at most the *last* frame. The
//! reader stops at the first short or checksum-failing frame and keeps
//! the valid prefix — a torn tail is expected crash aftermath, not an
//! error. Records are keyed by geometry fingerprint, so a record
//! serves every library entry sharing that geometry, exactly like the
//! in-memory dedup cache.
//!
//! # Crash injection
//!
//! The append path carries a [`Fault::CrashPoint`] probe at stage
//! `"journal.append"`: when an armed [`FaultPlan`] with a non-zero
//! `crash_rate` selects a record, the writer deliberately writes a
//! *torn prefix* of the frame and aborts the process — the worst-case
//! torn write, at the worst moment. The crash-injection harness
//! (`tests/crash_resume.rs`) drives `maskfrac fracture-layout` through
//! repeated injected crashes and asserts the resumed run is
//! bit-identical to an uninterrupted one.
//!
//! [`Fault::CrashPoint`]: maskfrac_fracture::Fault
//! [`FaultPlan`]: maskfrac_fracture::FaultPlan

use crate::io::CheckpointIoError;
use crate::layout::Layout;
use maskfrac_fracture::faults;
use maskfrac_fracture::{Fault, FractureConfig, FractureStatus};
use maskfrac_geom::Rect;
use std::fs::File;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Journal file magic (first 8 payload bytes of the header frame).
pub(crate) const JOURNAL_MAGIC: [u8; 8] = *b"MFJRNL\0\0";

/// On-disk format version this build reads and writes.
pub(crate) const JOURNAL_VERSION: u32 = 1;

/// One durable per-geometry record: everything the layout driver needs
/// to reconstruct a [`crate::ShapeFractureStats`] row (and its shot
/// list) without re-running the pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalRecord {
    /// Fingerprint of the geometry key (exact vertex list), the same
    /// identity the dedup cache shards on.
    pub geometry: u64,
    /// Delivered status of the fallback ladder.
    pub status: FractureStatus,
    /// Delivering rung (`"ours"`, `"ours-retry"`, `"ours-degraded"`,
    /// `"proto-eda"`, `"conventional"`, or `"none"`).
    pub method: String,
    /// Failure causes of rungs that did not deliver, if any.
    pub error: Option<String>,
    /// Ladder rungs attempted.
    pub attempts: u32,
    /// Refinement iterations spent by the delivering rung.
    pub iterations: u64,
    /// Residual Pon violations of one instance.
    pub on_fail_pixels: u64,
    /// Residual Poff violations of one instance.
    pub off_fail_pixels: u64,
    /// Total failing pixels of one instance.
    pub fail_pixels: u64,
    /// Whether the per-shape deadline cut refinement short.
    pub deadline_hit: bool,
    /// The delivered shot list for one instance.
    pub shots: Vec<Rect>,
}

fn status_to_byte(status: FractureStatus) -> u8 {
    match status {
        FractureStatus::Ok => 0,
        FractureStatus::Degraded => 1,
        FractureStatus::Fallback => 2,
        FractureStatus::Failed => 3,
    }
}

fn status_from_byte(byte: u8) -> Option<FractureStatus> {
    Some(match byte {
        0 => FractureStatus::Ok,
        1 => FractureStatus::Degraded,
        2 => FractureStatus::Fallback,
        3 => FractureStatus::Failed,
        _ => return None,
    })
}

impl JournalRecord {
    /// Serializes the record payload (frame body, without len/crc).
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.shots.len() * 32);
        out.extend_from_slice(&self.geometry.to_le_bytes());
        out.push(status_to_byte(self.status));
        out.push(u8::from(self.deadline_hit));
        out.extend_from_slice(&self.attempts.to_le_bytes());
        out.extend_from_slice(&self.iterations.to_le_bytes());
        out.extend_from_slice(&self.on_fail_pixels.to_le_bytes());
        out.extend_from_slice(&self.off_fail_pixels.to_le_bytes());
        out.extend_from_slice(&self.fail_pixels.to_le_bytes());
        put_str(&mut out, &self.method);
        match &self.error {
            Some(e) => {
                out.push(1);
                put_str(&mut out, e);
            }
            None => out.push(0),
        }
        out.extend_from_slice(&(self.shots.len() as u32).to_le_bytes());
        for shot in &self.shots {
            for v in [shot.x0(), shot.y0(), shot.x1(), shot.y1()] {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        out
    }

    /// Parses a record payload produced by [`encode`](Self::encode).
    /// `None` on any structural violation (the reader treats that frame
    /// — and everything after it — as the torn tail).
    pub(crate) fn decode(payload: &[u8]) -> Option<Self> {
        let mut cur = Cursor { buf: payload, pos: 0 };
        let geometry = cur.u64()?;
        let status = status_from_byte(cur.u8()?)?;
        let deadline_hit = cur.u8()? != 0;
        let attempts = cur.u32()?;
        let iterations = cur.u64()?;
        let on_fail_pixels = cur.u64()?;
        let off_fail_pixels = cur.u64()?;
        let fail_pixels = cur.u64()?;
        let method = cur.string()?;
        let error = match cur.u8()? {
            0 => None,
            1 => Some(cur.string()?),
            _ => return None,
        };
        let shot_count = cur.u32()? as usize;
        // A frame cannot hold more shots than its payload has bytes for.
        if shot_count > cur.remaining() / 32 {
            return None;
        }
        let mut shots = Vec::with_capacity(shot_count);
        for _ in 0..shot_count {
            let (x0, y0, x1, y1) = (cur.i64()?, cur.i64()?, cur.i64()?, cur.i64()?);
            shots.push(Rect::new(x0, y0, x1, y1)?);
        }
        if cur.remaining() != 0 {
            return None;
        }
        Some(JournalRecord {
            geometry,
            status,
            method,
            error,
            attempts,
            iterations,
            on_fail_pixels,
            off_fail_pixels,
            fail_pixels,
            deadline_hit,
            shots,
        })
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
    fn take(&mut self, n: usize) -> Option<&[u8]> {
        if self.remaining() < n {
            return None;
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Some(s)
    }
    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }
    fn u32(&mut self) -> Option<u32> {
        self.take(4).map(|b| u32::from_le_bytes(b.try_into().unwrap_or_default()))
    }
    fn u64(&mut self) -> Option<u64> {
        self.take(8).map(|b| u64::from_le_bytes(b.try_into().unwrap_or_default()))
    }
    fn i64(&mut self) -> Option<i64> {
        self.take(8).map(|b| i64::from_le_bytes(b.try_into().unwrap_or_default()))
    }
    fn string(&mut self) -> Option<String> {
        let len = self.u32()? as usize;
        if len > self.remaining() {
            return None;
        }
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).ok()
    }
}

/// Fingerprint of one geometry key (the dedup cache's exact-vertex-list
/// identity) for journal records.
pub(crate) fn geometry_fingerprint(key: &[u8]) -> u64 {
    faults::fingerprint(key)
}

/// Fingerprint identifying a (layout, config) run for the journal
/// header. Covers the layout content (shape names, vertices,
/// placements) and every *result-affecting* configuration field.
pub(crate) fn run_fingerprint(layout: &Layout, config: &FractureConfig) -> u64 {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(layout.name.as_bytes());
    bytes.push(0);
    for (name, polygon) in layout.shapes() {
        bytes.extend_from_slice(name.as_bytes());
        bytes.push(0);
        for p in polygon.vertices() {
            bytes.extend_from_slice(&p.x.to_le_bytes());
            bytes.extend_from_slice(&p.y.to_le_bytes());
        }
        bytes.push(1);
    }
    for (name, placement) in layout.placements() {
        bytes.extend_from_slice(name.as_bytes());
        bytes.push(0);
        bytes.extend_from_slice(&placement.offset.x.to_le_bytes());
        bytes.extend_from_slice(&placement.offset.y.to_le_bytes());
        // Transformed placements are tagged; identity placements keep
        // the pre-hierarchy byte stream, so journals written for
        // translation-only layouts stay resumable.
        if !placement.transform.is_identity() {
            bytes.push(3);
            bytes.push(placement.transform.index());
        }
    }
    bytes.push(2);
    push_config_bytes(&mut bytes, config);
    faults::fingerprint(&bytes)
}

/// Fingerprint of every result-affecting configuration field alone —
/// the identity under which the persistent geometry cache
/// ([`crate::geomcache`]) namespaces its artifacts: a cached shot list
/// is valid for exactly one (canonical geometry, config) pair.
///
/// Hashes the same config byte stream as [`run_fingerprint`].
pub(crate) fn config_fingerprint(config: &FractureConfig) -> u64 {
    let mut bytes = Vec::new();
    push_config_bytes(&mut bytes, config);
    faults::fingerprint(&bytes)
}

/// The result-affecting config fields, byte-encoded for fingerprinting.
///
/// The `0.9` and `4096` slots held the former config fields
/// `merge_overlap_fraction` and `max_extent`, now fixed constants of the
/// fracturer (like the rest of its code, not fingerprinted). Their bytes
/// stay so journals and geometry caches written before keep their
/// fingerprints.
fn push_config_bytes(bytes: &mut Vec<u8>, config: &FractureConfig) {
    for f in [
        config.gamma,
        config.sigma,
        config.rho,
        config.shot_overlap_fraction,
        0.9,
        config.lth_override.unwrap_or(f64::NEG_INFINITY),
    ] {
        bytes.extend_from_slice(&f.to_bits().to_le_bytes());
    }
    for v in [
        config.min_shot_size,
        config.max_iterations as i64,
        config.stall_window as i64,
        config.max_plateau_restarts as i64,
        4096,
        i64::from(config.reduction_sweep),
        config
            .deadline
            .map_or(-1, |d| i64::try_from(d.as_nanos()).unwrap_or(i64::MAX)),
    ] {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    bytes.extend_from_slice(format!("{:?}", config.coloring).as_bytes());
}

pub(crate) fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(12 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&faults::fingerprint(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

fn header_payload(fingerprint: u64) -> Vec<u8> {
    let mut payload = Vec::with_capacity(20);
    payload.extend_from_slice(&JOURNAL_MAGIC);
    payload.extend_from_slice(&JOURNAL_VERSION.to_le_bytes());
    payload.extend_from_slice(&fingerprint.to_le_bytes());
    payload
}

/// Append-only journal writer, shared across layout worker threads.
///
/// Appends are serialized under an internal lock; each record goes to
/// the OS in a single `write_all` + `flush`, so an abort (including an
/// injected [`Fault::CrashPoint`]) tears at most the frame in flight.
#[derive(Debug)]
pub struct JournalWriter {
    path: PathBuf,
    file: Mutex<File>,
}

impl JournalWriter {
    /// Creates (truncating) a fresh journal with a header naming
    /// `fingerprint`, durably synced before any record is accepted.
    pub fn create(path: &Path, fingerprint: u64) -> Result<Self, CheckpointIoError> {
        let mut file = File::create(path).map_err(|source| CheckpointIoError::Write {
            path: path.to_owned(),
            source,
        })?;
        let write = (|| {
            file.write_all(&frame(&header_payload(fingerprint)))?;
            file.sync_all()
        })();
        write.map_err(|source| CheckpointIoError::Write {
            path: path.to_owned(),
            source,
        })?;
        Ok(JournalWriter {
            path: path.to_owned(),
            file: Mutex::new(file),
        })
    }

    /// Reopens an existing journal for appending, discarding a torn
    /// tail of `torn_tail_bytes` (from [`read_journal`]) by truncating
    /// to the valid prefix first.
    pub fn resume(path: &Path, valid_len: u64) -> Result<Self, CheckpointIoError> {
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(|source| CheckpointIoError::Write {
                path: path.to_owned(),
                source,
            })?;
        let prep = (|| {
            file.set_len(valid_len)?;
            let mut file = &file;
            use std::io::Seek as _;
            file.seek(std::io::SeekFrom::End(0)).map(|_| ())
        })();
        prep.map_err(|source| CheckpointIoError::Write {
            path: path.to_owned(),
            source,
        })?;
        Ok(JournalWriter {
            path: path.to_owned(),
            file: Mutex::new(file),
        })
    }

    /// Appends one record frame.
    ///
    /// Carries the `"journal.append"` [`Fault::CrashPoint`] probe: an
    /// armed crash decision writes a deliberately torn prefix of the
    /// frame and aborts the process.
    pub fn append(&self, record: &JournalRecord) -> Result<(), CheckpointIoError> {
        let framed = frame(&record.encode());
        let mut file = self.file.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(Fault::CrashPoint) = faults::fire("journal.append", record.geometry) {
            // Worst-case torn write: half the frame reaches the kernel,
            // then the process dies without unwinding.
            let torn = &framed[..framed.len() / 2];
            let _ = file.write_all(torn);
            let _ = file.flush();
            eprintln!(
                "maskfrac: injected CrashPoint at journal.append (geometry {:#018x})",
                record.geometry
            );
            std::process::abort();
        }
        let write = (|| {
            file.write_all(&framed)?;
            file.flush()
        })();
        write.map_err(|source| CheckpointIoError::Write {
            path: self.path.clone(),
            source,
        })
    }
}

/// What [`read_journal`] recovered from a journal file.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalReplay {
    /// Run fingerprint recorded in the header.
    pub fingerprint: u64,
    /// Valid records, in append order (duplicates possible when two
    /// runs raced; the replayer keeps the first per geometry).
    pub records: Vec<JournalRecord>,
    /// Byte length of the valid prefix (header + intact record frames);
    /// [`JournalWriter::resume`] truncates to this.
    pub valid_len: u64,
    /// Bytes discarded after the valid prefix (the torn tail); 0 for a
    /// cleanly-closed journal.
    pub torn_tail_bytes: u64,
}

/// Reads a journal, recovering the valid record prefix and measuring
/// the torn tail.
///
/// # Errors
///
/// [`CheckpointIoError::Read`] when the file cannot be read and
/// [`CheckpointIoError::Header`] when it does not begin with an intact
/// journal header — a header torn mid-frame means the run never
/// completed a single record, and the caller should start fresh.
pub fn read_journal(path: &Path) -> Result<JournalReplay, CheckpointIoError> {
    let bytes = std::fs::read(path).map_err(|source| CheckpointIoError::Read {
        path: path.to_owned(),
        source,
    })?;
    let header_err = |message: &str| CheckpointIoError::Header {
        path: path.to_owned(),
        message: message.to_owned(),
    };
    let (header, header_len) =
        next_frame(&bytes).ok_or_else(|| header_err("missing or torn header frame"))?;
    if header.len() != 20 || header[..8] != JOURNAL_MAGIC {
        return Err(header_err("bad magic"));
    }
    let version = u32::from_le_bytes(header[8..12].try_into().unwrap_or_default());
    if version != JOURNAL_VERSION {
        return Err(header_err(&format!(
            "unsupported journal version {version} (this build reads {JOURNAL_VERSION})"
        )));
    }
    let fingerprint = u64::from_le_bytes(header[12..20].try_into().unwrap_or_default());

    let mut records = Vec::new();
    let mut offset = header_len;
    while let Some((payload, consumed)) = next_frame(&bytes[offset..]) {
        let Some(record) = JournalRecord::decode(payload) else {
            break;
        };
        records.push(record);
        offset += consumed;
    }
    Ok(JournalReplay {
        fingerprint,
        records,
        valid_len: offset as u64,
        torn_tail_bytes: (bytes.len() - offset) as u64,
    })
}

/// Extracts the next intact frame: `Some((payload, frame_len))` only if
/// the length, checksum, and payload are all fully present and
/// consistent.
pub(crate) fn next_frame(bytes: &[u8]) -> Option<(&[u8], usize)> {
    if bytes.len() < 12 {
        return None;
    }
    let len = u32::from_le_bytes(bytes[..4].try_into().unwrap_or_default()) as usize;
    let crc = u64::from_le_bytes(bytes[4..12].try_into().unwrap_or_default());
    let end = 12usize.checked_add(len)?;
    if bytes.len() < end {
        return None;
    }
    let payload = &bytes[12..end];
    if faults::fingerprint(payload) != crc {
        return None;
    }
    Some((payload, end))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::Placement;
    use maskfrac_geom::Polygon;

    fn record(geometry: u64, shots: usize) -> JournalRecord {
        JournalRecord {
            geometry,
            status: FractureStatus::Ok,
            method: "ours".into(),
            error: None,
            attempts: 1,
            iterations: 17,
            on_fail_pixels: 0,
            off_fail_pixels: 0,
            fail_pixels: 0,
            deadline_hit: false,
            shots: (0..shots)
                .map(|i| Rect::new(i as i64 * 10, 0, i as i64 * 10 + 9, 9).unwrap())
                .collect(),
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("maskfrac-journal-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}", std::process::id()))
    }

    #[test]
    fn record_payload_round_trips() {
        let mut r = record(0xdead_beef, 3);
        r.status = FractureStatus::Fallback;
        r.method = "proto-eda".into();
        r.error = Some("ours: injected".into());
        r.deadline_hit = true;
        let back = JournalRecord::decode(&r.encode()).expect("decodes");
        assert_eq!(back, r);
    }

    #[test]
    fn journal_round_trips_through_a_file() {
        let path = tmp("round-trip");
        let writer = JournalWriter::create(&path, 42).unwrap();
        for i in 0..5 {
            writer.append(&record(i, i as usize)).unwrap();
        }
        let replay = read_journal(&path).unwrap();
        assert_eq!(replay.fingerprint, 42);
        assert_eq!(replay.records.len(), 5);
        assert_eq!(replay.torn_tail_bytes, 0);
        assert_eq!(replay.records[3], record(3, 3));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_skipped_and_truncated_on_resume() {
        let path = tmp("torn-tail");
        let writer = JournalWriter::create(&path, 7).unwrap();
        writer.append(&record(1, 2)).unwrap();
        writer.append(&record(2, 2)).unwrap();
        drop(writer);
        // Tear the file mid-way through a third frame.
        let full = std::fs::read(&path).unwrap();
        let torn = frame(&record(3, 2).encode());
        let mut bytes = full.clone();
        bytes.extend_from_slice(&torn[..torn.len() - 5]);
        std::fs::write(&path, &bytes).unwrap();

        let replay = read_journal(&path).unwrap();
        assert_eq!(replay.records.len(), 2, "torn frame dropped");
        assert_eq!(replay.valid_len, full.len() as u64);
        assert_eq!(replay.torn_tail_bytes, (torn.len() - 5) as u64);

        // Resuming truncates the tail and appends cleanly after it.
        let writer = JournalWriter::resume(&path, replay.valid_len).unwrap();
        writer.append(&record(3, 2)).unwrap();
        drop(writer);
        let replay = read_journal(&path).unwrap();
        assert_eq!(replay.records.len(), 3);
        assert_eq!(replay.torn_tail_bytes, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bit_flip_in_a_record_stops_the_replay_there() {
        let path = tmp("bit-flip");
        let writer = JournalWriter::create(&path, 7).unwrap();
        for i in 0..4 {
            writer.append(&record(i, 1)).unwrap();
        }
        drop(writer);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip one bit two frames from the end: records 2 and 3 are lost
        // (3's frame start can no longer be trusted), 0 and 1 survive.
        let header = frame(&header_payload(7)).len();
        let rec = frame(&record(0, 1).encode()).len();
        bytes[header + 2 * rec + 13] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let replay = read_journal(&path).unwrap();
        assert_eq!(replay.records.len(), 2);
        assert!(replay.torn_tail_bytes > 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_or_foreign_headers_are_refused() {
        let path = tmp("foreign");
        std::fs::write(&path, b"not a journal at all").unwrap();
        assert!(matches!(
            read_journal(&path),
            Err(CheckpointIoError::Header { .. })
        ));
        std::fs::write(&path, frame(b"short")).unwrap();
        assert!(matches!(
            read_journal(&path),
            Err(CheckpointIoError::Header { .. })
        ));
        std::fs::remove_file(&path).ok();
        assert!(matches!(
            read_journal(&path),
            Err(CheckpointIoError::Read { .. })
        ));
    }

    #[test]
    fn run_fingerprint_tracks_result_affecting_changes_only() {
        let mut layout = Layout::new("fp");
        layout.add_shape(
            "sq",
            Polygon::from_rect(Rect::new(0, 0, 40, 40).unwrap()),
        );
        layout.place("sq", Placement::at(0, 0));
        let config = FractureConfig::default();
        let base = run_fingerprint(&layout, &config);
        assert_eq!(base, run_fingerprint(&layout, &config), "deterministic");
        // Pinned literals: a config field added, removed or re-encoded
        // must not silently orphan journals and `.mfg` geometry caches
        // written by earlier releases.
        assert_eq!(base, 0xa31f_bb79_4804_5e72);
        assert_eq!(config_fingerprint(&config), 0x7029_a04d_27f6_be23);

        // Result-affecting knobs and layout edits move the fingerprint.
        let mut gamma = config.clone();
        gamma.gamma = 3.0;
        assert_ne!(base, run_fingerprint(&layout, &gamma));
        let mut deadline = config.clone();
        deadline.deadline = Some(std::time::Duration::from_millis(50));
        assert_ne!(base, run_fingerprint(&layout, &deadline));
        let mut moved = layout.clone();
        moved.place("sq", Placement::at(100, 0));
        assert_ne!(base, run_fingerprint(&moved, &config));
    }
}
