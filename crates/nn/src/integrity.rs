//! Shared integrity helpers: a stable 64-bit content checksum, a
//! checksummed record framing for append-only journals, and an atomic
//! whole-file write.
//!
//! The framing follows the same hardening idioms as [`crate::checkpoint`]:
//! every length field is bounds-checked *before* it sizes an allocation, and
//! a corrupt or truncated tail yields a typed outcome instead of a panic or
//! an OOM. The `m3-serve` write-ahead job journal is the primary consumer;
//! the helpers live here so every crate that persists state shares one
//! checksum and one framing discipline.
//!
//! Record layout (little-endian):
//!
//! ```text
//! [len: u32] [checksum: u64 = fnv1a64(payload)] [payload: len bytes]
//! ```
//!
//! A scan of a journal tail distinguishes three outcomes per record
//! boundary: a complete, checksum-valid record; a clean end of input; or a
//! *torn tail* (truncated or corrupt trailing bytes, the expected residue of
//! a crash mid-append). Everything before a torn tail remains usable.

use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Ceiling on a single framed record. Real journal records are well under a
/// kilobyte; anything larger is a corrupt or hostile length field (the same
/// rationale as the checkpoint header cap).
pub const MAX_RECORD_BYTES: usize = 16 << 20;

/// FNV-1a 64-bit over a byte slice: tiny, dependency-free, and stable
/// across platforms and runs, so checksums written by one process validate
/// in another.
pub fn checksum64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Replace the file at `path` with `bytes` atomically: write a temp
/// sibling, fsync it, then rename it over `path`. A reader sees the old
/// file or the new one, never a truncated or half-written one, and a crash
/// mid-write can leave a stray `<name>.tmp.<pid>.<n>` but never a torn
/// `path`. Each call has its own temp name, so concurrent writers in one
/// process do not share one.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let file_name = path.file_name().ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("{} has no file name", path.display()),
        )
    })?;
    let mut tmp_name = file_name.to_os_string();
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    tmp_name.push(format!(".tmp.{}.{n}", std::process::id()));
    let tmp = path.with_file_name(tmp_name);
    let result = (|| {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        std::fs::rename(&tmp, path)
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// Frame one payload as a checksummed record.
pub fn encode_record(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(12 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&checksum64(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Write one framed record to `w` (no flushing/syncing — callers own
/// durability).
pub fn write_record<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    w.write_all(&encode_record(payload))
}

/// Result of scanning a buffer of framed records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanResult {
    /// Payloads of every complete, checksum-valid record, in order.
    pub records: Vec<Vec<u8>>,
    /// Byte offset just past the last valid record. Appending must resume
    /// here (truncating any torn tail first).
    pub valid_len: usize,
    /// Why the scan stopped early, if it did: a truncated or corrupt tail.
    /// `None` means the buffer ended exactly on a record boundary.
    pub torn: Option<String>,
}

/// Scan `buf` from `start` for framed records, stopping at the first
/// truncated or corrupt one. Never panics and never allocates more than the
/// buffer already holds (lengths are validated against the remaining bytes
/// and [`MAX_RECORD_BYTES`] before use).
pub fn scan_records(buf: &[u8], start: usize) -> ScanResult {
    let mut records = Vec::new();
    let mut off = start.min(buf.len());
    loop {
        let rest = &buf[off..];
        if rest.is_empty() {
            return ScanResult {
                records,
                valid_len: off,
                torn: None,
            };
        }
        if rest.len() < 12 {
            return ScanResult {
                records,
                valid_len: off,
                torn: Some(format!("truncated header ({} bytes)", rest.len())),
            };
        }
        let len = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize;
        if len > MAX_RECORD_BYTES {
            return ScanResult {
                records,
                valid_len: off,
                torn: Some(format!(
                    "record length {len} exceeds the {MAX_RECORD_BYTES}-byte cap"
                )),
            };
        }
        let want = u64::from_le_bytes([
            rest[4], rest[5], rest[6], rest[7], rest[8], rest[9], rest[10], rest[11],
        ]);
        if rest.len() < 12 + len {
            return ScanResult {
                records,
                valid_len: off,
                torn: Some(format!(
                    "truncated payload ({} of {len} bytes)",
                    rest.len() - 12
                )),
            };
        }
        let payload = &rest[12..12 + len];
        if checksum64(payload) != want {
            return ScanResult {
                records,
                valid_len: off,
                torn: Some("checksum mismatch".into()),
            };
        }
        records.push(payload.to_vec());
        off += 12 + len;
    }
}

/// One frame skipped by the lenient scan: its framing was intact (sane
/// length, full payload present) but the payload failed its checksum.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorruptFrame {
    /// Byte offset of the frame's length field within the scanned buffer.
    pub offset: usize,
    /// The whole frame as found on disk (12-byte header + payload), so a
    /// quarantine sidecar preserves the evidence byte for byte.
    pub bytes: Vec<u8>,
    /// Why the frame was rejected.
    pub reason: String,
}

/// Result of a lenient scan: valid records, quarantined corrupt frames,
/// and the torn-tail outcome for whatever ended the scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LenientScanResult {
    /// Payloads of every complete, checksum-valid record, in order.
    pub records: Vec<Vec<u8>>,
    /// Frames whose framing was intact but whose checksum failed, in
    /// order. The scan resumed at the frame boundary after each.
    pub corrupt: Vec<CorruptFrame>,
    /// Byte offset just past the last complete frame (valid or
    /// quarantined). A torn tail begins here.
    pub valid_len: usize,
    /// Why the scan stopped early, if it did: a *truncated* or
    /// hostile-length tail (a checksum mismatch alone no longer stops a
    /// lenient scan).
    pub torn: Option<String>,
}

/// Scan `buf` from `start` like [`scan_records`], but *skip over* a
/// checksum-mismatched record whose framing is otherwise intact instead of
/// stopping: its length field is sane (≤ [`MAX_RECORD_BYTES`]) and its
/// payload lies fully inside the buffer, so the next frame boundary is
/// known and scanning resumes there. Such frames are returned for
/// quarantine rather than silently dropped. Truncation and hostile length
/// fields still end the scan — with no trustworthy length there is no next
/// boundary to resume at.
pub fn scan_records_lenient(buf: &[u8], start: usize) -> LenientScanResult {
    let mut records = Vec::new();
    let mut corrupt = Vec::new();
    let mut off = start.min(buf.len());
    loop {
        let rest = &buf[off..];
        if rest.is_empty() {
            return LenientScanResult {
                records,
                corrupt,
                valid_len: off,
                torn: None,
            };
        }
        if rest.len() < 12 {
            return LenientScanResult {
                records,
                corrupt,
                valid_len: off,
                torn: Some(format!("truncated header ({} bytes)", rest.len())),
            };
        }
        let len = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize;
        if len > MAX_RECORD_BYTES {
            return LenientScanResult {
                records,
                corrupt,
                valid_len: off,
                torn: Some(format!(
                    "record length {len} exceeds the {MAX_RECORD_BYTES}-byte cap"
                )),
            };
        }
        let want = u64::from_le_bytes([
            rest[4], rest[5], rest[6], rest[7], rest[8], rest[9], rest[10], rest[11],
        ]);
        if rest.len() < 12 + len {
            return LenientScanResult {
                records,
                corrupt,
                valid_len: off,
                torn: Some(format!(
                    "truncated payload ({} of {len} bytes)",
                    rest.len() - 12
                )),
            };
        }
        let payload = &rest[12..12 + len];
        if checksum64(payload) != want {
            corrupt.push(CorruptFrame {
                offset: off,
                bytes: rest[..12 + len].to_vec(),
                reason: format!(
                    "checksum mismatch (stored {want:#018x}, computed {:#018x})",
                    checksum64(payload)
                ),
            });
        } else {
            records.push(payload.to_vec());
        }
        off += 12 + len;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_is_stable_and_content_sensitive() {
        assert_eq!(checksum64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(checksum64(b"m3"), checksum64(b"m3"));
        assert_ne!(checksum64(b"m3"), checksum64(b"m4"));
    }

    #[test]
    fn roundtrip_multiple_records() {
        let mut buf = Vec::new();
        for p in [b"alpha".as_slice(), b"".as_slice(), b"gamma!".as_slice()] {
            write_record(&mut buf, p).unwrap();
        }
        let scan = scan_records(&buf, 0);
        assert_eq!(
            scan.records,
            vec![b"alpha".to_vec(), vec![], b"gamma!".to_vec()]
        );
        assert_eq!(scan.valid_len, buf.len());
        assert!(scan.torn.is_none());
    }

    #[test]
    fn torn_tail_preserves_prefix() {
        let mut buf = Vec::new();
        write_record(&mut buf, b"kept").unwrap();
        let keep = buf.len();
        write_record(&mut buf, b"torn-away").unwrap();
        // Simulate a crash mid-append: drop the last few bytes.
        buf.truncate(buf.len() - 3);
        let scan = scan_records(&buf, 0);
        assert_eq!(scan.records, vec![b"kept".to_vec()]);
        assert_eq!(scan.valid_len, keep);
        assert!(scan.torn.unwrap().contains("truncated"));
    }

    #[test]
    fn corrupt_payload_stops_scan() {
        let mut buf = Vec::new();
        write_record(&mut buf, b"first").unwrap();
        let keep = buf.len();
        write_record(&mut buf, b"second").unwrap();
        let flip = keep + 12; // first payload byte of the second record
        buf[flip] ^= 0xff;
        let scan = scan_records(&buf, 0);
        assert_eq!(scan.records, vec![b"first".to_vec()]);
        assert_eq!(scan.valid_len, keep);
        assert_eq!(scan.torn.as_deref(), Some("checksum mismatch"));
    }

    #[test]
    fn hostile_length_is_rejected_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes());
        let scan = scan_records(&buf, 0);
        assert!(scan.records.is_empty());
        assert_eq!(scan.valid_len, 0);
        assert!(scan.torn.unwrap().contains("cap"));
    }

    #[test]
    fn scan_respects_start_offset() {
        let mut buf = b"MAGICHDR".to_vec();
        let start = buf.len();
        write_record(&mut buf, b"payload").unwrap();
        let scan = scan_records(&buf, start);
        assert_eq!(scan.records, vec![b"payload".to_vec()]);
        assert_eq!(scan.valid_len, buf.len());
    }

    #[test]
    fn lenient_scan_skips_corrupt_record_and_continues() {
        let mut buf = Vec::new();
        write_record(&mut buf, b"first").unwrap();
        let second_at = buf.len();
        write_record(&mut buf, b"second").unwrap();
        let third_at = buf.len();
        write_record(&mut buf, b"third").unwrap();
        buf[second_at + 12] ^= 0xff; // flip a payload bit mid-file
        let scan = scan_records_lenient(&buf, 0);
        assert_eq!(scan.records, vec![b"first".to_vec(), b"third".to_vec()]);
        assert_eq!(scan.corrupt.len(), 1);
        assert_eq!(scan.corrupt[0].offset, second_at);
        assert_eq!(scan.corrupt[0].bytes.len(), third_at - second_at);
        assert!(scan.corrupt[0].reason.contains("checksum mismatch"));
        assert_eq!(scan.valid_len, buf.len());
        assert!(scan.torn.is_none());
    }

    #[test]
    fn lenient_scan_still_stops_at_torn_tail() {
        let mut buf = Vec::new();
        write_record(&mut buf, b"kept").unwrap();
        let keep = buf.len();
        write_record(&mut buf, b"torn-away").unwrap();
        buf.truncate(buf.len() - 3);
        let scan = scan_records_lenient(&buf, 0);
        assert_eq!(scan.records, vec![b"kept".to_vec()]);
        assert!(scan.corrupt.is_empty());
        assert_eq!(scan.valid_len, keep);
        assert!(scan.torn.unwrap().contains("truncated"));
    }

    #[test]
    fn lenient_scan_rejects_hostile_length_without_resync() {
        let mut buf = Vec::new();
        write_record(&mut buf, b"good").unwrap();
        let keep = buf.len();
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes());
        let scan = scan_records_lenient(&buf, 0);
        assert_eq!(scan.records, vec![b"good".to_vec()]);
        assert_eq!(scan.valid_len, keep);
        assert!(scan.torn.unwrap().contains("cap"));
    }

    #[test]
    fn lenient_scan_matches_strict_scan_on_clean_input() {
        let mut buf = Vec::new();
        for p in [b"one".as_slice(), b"two".as_slice(), b"three".as_slice()] {
            write_record(&mut buf, p).unwrap();
        }
        let strict = scan_records(&buf, 0);
        let lenient = scan_records_lenient(&buf, 0);
        assert_eq!(strict.records, lenient.records);
        assert_eq!(strict.valid_len, lenient.valid_len);
        assert!(lenient.corrupt.is_empty());
        assert!(lenient.torn.is_none());
    }
}
