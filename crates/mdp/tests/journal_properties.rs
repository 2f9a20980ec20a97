//! Property tests for the checkpoint journal: whatever happens to the
//! tail of the file — truncation at an arbitrary byte, a bit flip in an
//! arbitrary record byte — the reader recovers exactly the valid prefix
//! of records, never garbage and never an error.

use maskfrac_fracture::FractureStatus;
use maskfrac_geom::rng::{for_cases, StdRng};
use maskfrac_geom::Rect;
use maskfrac_mdp::{read_journal, JournalRecord, JournalWriter};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

const FINGERPRINT: u64 = 0xfeed_beef_cafe_0001;

static CASE: AtomicUsize = AtomicUsize::new(0);

fn tmp_path(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("maskfrac-journal-props");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!(
        "{tag}-{}-{}.mfj",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ))
}

fn status_from(byte: u8) -> FractureStatus {
    match byte % 4 {
        0 => FractureStatus::Ok,
        1 => FractureStatus::Degraded,
        2 => FractureStatus::Fallback,
        _ => FractureStatus::Failed,
    }
}

/// Builds one synthetic record from sampled scalars.
fn record(seed: u64, status_byte: u8, shot_spans: &[(i64, i64)]) -> JournalRecord {
    JournalRecord {
        geometry: seed,
        status: status_from(status_byte),
        method: format!("method-{}", seed % 7),
        error: seed
            .is_multiple_of(3)
            .then(|| format!("cause-{}", seed % 11)),
        attempts: (seed % 5) as u32 + 1,
        iterations: seed % 97,
        on_fail_pixels: seed % 13,
        off_fail_pixels: seed % 17,
        fail_pixels: (seed % 13) + (seed % 17),
        deadline_hit: seed % 2 == 1,
        shots: shot_spans
            .iter()
            .map(|&(x, y)| Rect::new(x, y, x + (seed % 40) as i64, y + (seed % 30) as i64).unwrap())
            .collect(),
    }
}

/// Writes `records` to a fresh journal and returns, per record, the file
/// offset at which its frame *ends* (header frame included in offsets).
fn write_journal(path: &PathBuf, records: &[JournalRecord]) -> Vec<u64> {
    let _ = std::fs::remove_file(path);
    let writer = JournalWriter::create(path, FINGERPRINT).unwrap();
    let mut ends = Vec::new();
    for r in records {
        writer.append(r).unwrap();
        ends.push(std::fs::metadata(path).unwrap().len());
    }
    ends
}

/// Records whose frame ends at or before `cut` bytes — the prefix any
/// damage at `cut` must preserve.
fn surviving(ends: &[u64], cut: u64) -> usize {
    ends.iter().take_while(|&&e| e <= cut).count()
}

/// 1..8 synthetic records sharing 0..6 sampled shot spans.
fn records(rng: &mut StdRng) -> Vec<JournalRecord> {
    let seeds: Vec<u64> = (0..rng.gen_range(1..=7)).map(|_| rng.next_u64()).collect();
    let spans: Vec<(i64, i64)> = (0..rng.gen_range(0..=5))
        .map(|_| (rng.gen_range(0..=499), rng.gen_range(0..=499)))
        .collect();
    seeds
        .iter()
        .enumerate()
        .map(|(i, &s)| record(s, i as u8, &spans))
        .collect()
}

#[test]
fn truncation_at_any_byte_recovers_the_valid_prefix() {
    for_cases(48, |rng| {
        let records = records(rng);
        let cut_sel = rng.gen_range(0..=9_999) as u64;
        let path = tmp_path("truncate");
        let ends = write_journal(&path, &records);
        let total = *ends.last().unwrap();

        // Any cut from "header only" (32 bytes: 12-byte frame headers
        // plus the 20-byte header payload) to "full file".
        assert!(ends[0] > 32);
        let cut = 32 + cut_sel % (total - 32 + 1);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..cut as usize]).unwrap();

        let replay = read_journal(&path).unwrap();
        let keep = surviving(&ends, cut);
        assert_eq!(replay.fingerprint, FINGERPRINT);
        assert_eq!(replay.records.len(), keep);
        assert_eq!(&replay.records[..], &records[..keep]);
        let expected_valid = if keep == 0 { 32 } else { ends[keep - 1] };
        assert_eq!(replay.valid_len, expected_valid);
        assert_eq!(replay.torn_tail_bytes, cut - expected_valid);

        // Resume truncates the torn tail; a re-read sees a clean file.
        drop(JournalWriter::resume(&path, replay.valid_len).unwrap());
        let clean = read_journal(&path).unwrap();
        assert_eq!(clean.torn_tail_bytes, 0);
        assert_eq!(&clean.records[..], &records[..keep]);
        let _ = std::fs::remove_file(&path);
    });
}

#[test]
fn bit_flip_in_the_tail_recovers_the_prefix_before_it() {
    for_cases(48, |rng| {
        let records = records(rng);
        let flip_sel = rng.gen_range(0..=9_999) as u64;
        let bit = rng.gen_range(0..=7);
        let path = tmp_path("bitflip");
        let ends = write_journal(&path, &records);
        let total = *ends.last().unwrap();

        // Flip one bit anywhere past the header.
        let at = 32 + flip_sel % (total - 32);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[at as usize] ^= 1 << bit;
        std::fs::write(&path, &bytes).unwrap();

        let replay = read_journal(&path).unwrap();
        // Frames wholly before the flipped byte survive; the damaged
        // frame and everything after it are dropped (the reader never
        // resyncs onto garbage).
        let keep = surviving(&ends, at);
        assert_eq!(replay.records.len(), keep);
        assert_eq!(&replay.records[..], &records[..keep]);
        assert!(replay.valid_len <= at);
        let _ = std::fs::remove_file(&path);
    });
}
