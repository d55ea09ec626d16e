//! Write-ahead log for the live index.
//!
//! Every mutation is framed and appended *before* it touches the
//! memtable, so replaying the log through the normal apply path
//! reconstructs the exact index state — memtable, segments, compaction
//! history and all, because flushing and compaction are deterministic
//! functions of the applied sequence.
//!
//! Frame layout (all little-endian):
//!
//! ```text
//! [u32 payload_len][u64 fnv1a64(payload)][payload]
//! ```
//!
//! Payloads are self-delimiting records: an `Upsert` carries the raw
//! document fields (term streams are *not* serialized — analysis is
//! deterministic and re-runs on replay), a `Delete` carries the page
//! id. Replay is crash-tolerant: it stops cleanly at the first
//! truncated frame, checksum mismatch, or undecodable payload, and
//! returns every record before the cut — the recovery semantics the
//! crash-cut suite (`tests/live_wal.rs`) exercises at every byte
//! boundary.

use shift_corpus::{PageId, SourceType};

use super::memtable::LiveDoc;

/// One logged mutation.
#[derive(Debug, Clone)]
pub enum WalRecord {
    /// Insert or replace a page's version.
    Upsert(LiveDoc),
    /// Delete a page.
    Delete(PageId),
}

/// Record tags.
const TAG_UPSERT: u8 = 0;
const TAG_DELETE: u8 = 1;

/// The in-memory write-ahead log: an append-only byte buffer. (The
/// simulation has no real disk; the byte layout, checksums and
/// crash-cut recovery are what the subsystem models.)
#[derive(Debug, Default)]
pub struct WriteAheadLog {
    bytes: Vec<u8>,
}

impl WriteAheadLog {
    /// An empty log.
    pub fn new() -> WriteAheadLog {
        WriteAheadLog::default()
    }

    /// Appends one framed record.
    pub fn append(&mut self, record: &WalRecord) {
        let payload = encode_payload(record);
        self.bytes
            .extend_from_slice(&(payload.len() as u32).to_le_bytes());
        self.bytes
            .extend_from_slice(&fnv1a64(&payload).to_le_bytes());
        self.bytes.extend_from_slice(&payload);
    }

    /// The raw log bytes (what a crash would leave behind, possibly
    /// cut mid-frame).
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Log length in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// True when nothing has been logged.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Decodes every intact record from a (possibly crash-cut) byte
    /// stream, stopping at the first truncated, corrupt, or
    /// undecodable frame.
    pub fn replay(bytes: &[u8]) -> Vec<WalRecord> {
        let mut records = Vec::new();
        let mut at = 0usize;
        while let Some(len_bytes) = bytes.get(at..at + 4) {
            let len = u32::from_le_bytes(len_bytes.try_into().expect("4 bytes")) as usize;
            let Some(hash_bytes) = bytes.get(at + 4..at + 12) else {
                break;
            };
            let hash = u64::from_le_bytes(hash_bytes.try_into().expect("8 bytes"));
            let Some(payload) = bytes.get(at + 12..at + 12 + len) else {
                break;
            };
            if fnv1a64(payload) != hash {
                break;
            }
            let Some(record) = decode_payload(payload) else {
                break;
            };
            records.push(record);
            at += 12 + len;
        }
        records
    }
}

/// 64-bit FNV-1a over a byte slice.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Cursor-style reader over a payload; every getter returns `None` on
/// underrun, which replay treats as a corrupt frame.
struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn get_u8(&mut self) -> Option<u8> {
        let v = *self.bytes.get(self.at)?;
        self.at += 1;
        Some(v)
    }

    fn get_u32(&mut self) -> Option<u32> {
        let s = self.bytes.get(self.at..self.at + 4)?;
        self.at += 4;
        Some(u32::from_le_bytes(s.try_into().expect("4 bytes")))
    }

    fn get_u64(&mut self) -> Option<u64> {
        let s = self.bytes.get(self.at..self.at + 8)?;
        self.at += 8;
        Some(u64::from_le_bytes(s.try_into().expect("8 bytes")))
    }

    fn get_str(&mut self) -> Option<String> {
        let len = self.get_u32()? as usize;
        let s = self.bytes.get(self.at..self.at + len)?;
        self.at += len;
        String::from_utf8(s.to_vec()).ok()
    }

    fn done(&self) -> bool {
        self.at == self.bytes.len()
    }
}

fn encode_payload(record: &WalRecord) -> Vec<u8> {
    let mut out = Vec::new();
    match record {
        WalRecord::Upsert(doc) => {
            out.push(TAG_UPSERT);
            put_u32(&mut out, doc.page.0);
            put_str(&mut out, &doc.url);
            put_str(&mut out, &doc.host);
            put_u64(&mut out, doc.authority.to_bits());
            put_u64(&mut out, doc.age_days.to_bits());
            out.push(doc.source_type.index() as u8);
            put_str(&mut out, &doc.title);
            put_str(&mut out, &doc.body);
        }
        WalRecord::Delete(page) => {
            out.push(TAG_DELETE);
            put_u32(&mut out, page.0);
        }
    }
    out
}

fn decode_payload(payload: &[u8]) -> Option<WalRecord> {
    let mut r = Reader {
        bytes: payload,
        at: 0,
    };
    let record = match r.get_u8()? {
        TAG_UPSERT => {
            let page = PageId(r.get_u32()?);
            let url = r.get_str()?;
            let host = r.get_str()?;
            let authority = f64::from_bits(r.get_u64()?);
            let age_days = f64::from_bits(r.get_u64()?);
            let source_type = *SourceType::ALL.get(r.get_u8()? as usize)?;
            let title = r.get_str()?;
            let body = r.get_str()?;
            WalRecord::Upsert(LiveDoc::new(
                page,
                url,
                host,
                authority,
                age_days,
                source_type,
                title,
                body,
            ))
        }
        TAG_DELETE => WalRecord::Delete(PageId(r.get_u32()?)),
        _ => return None,
    };
    r.done().then_some(record)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn upsert(id: u32, body: &str) -> WalRecord {
        WalRecord::Upsert(LiveDoc::new(
            PageId(id),
            format!("https://example.test/{id}"),
            "example.test".to_string(),
            0.7,
            3.0,
            SourceType::Social,
            format!("Title {id}"),
            body.to_string(),
        ))
    }

    fn log_with(records: &[WalRecord]) -> WriteAheadLog {
        let mut wal = WriteAheadLog::new();
        for r in records {
            wal.append(r);
        }
        wal
    }

    #[test]
    fn roundtrip_preserves_every_field() {
        let wal = log_with(&[
            upsert(3, "battery life review"),
            WalRecord::Delete(PageId(9)),
            upsert(3, "battery life review, updated"),
        ]);
        let got = WriteAheadLog::replay(wal.bytes());
        assert_eq!(got.len(), 3);
        match (&got[0], &got[2]) {
            (WalRecord::Upsert(a), WalRecord::Upsert(b)) => {
                assert_eq!(a.page, PageId(3));
                assert_eq!(a.url, "https://example.test/3");
                assert_eq!(a.authority.to_bits(), 0.7_f64.to_bits());
                assert_eq!(a.age_days.to_bits(), 3.0_f64.to_bits());
                assert_eq!(a.source_type, SourceType::Social);
                assert_eq!(&*a.body, "battery life review");
                assert!(!a.title_terms.is_empty(), "replay re-analyzes");
                assert_eq!(&*b.body, "battery life review, updated");
            }
            other => panic!("wrong kinds: {other:?}"),
        }
        assert!(matches!(got[1], WalRecord::Delete(PageId(9))));
    }

    #[test]
    fn replay_stops_at_any_truncation() {
        let wal = log_with(&[
            upsert(1, "aaa"),
            WalRecord::Delete(PageId(2)),
            upsert(3, "ccc"),
        ]);
        let full = WriteAheadLog::replay(wal.bytes()).len();
        assert_eq!(full, 3);
        let mut last = 0;
        for cut in 0..wal.len() {
            let n = WriteAheadLog::replay(&wal.bytes()[..cut]).len();
            assert!(n <= full);
            assert!(n >= last, "prefix grows monotonically");
            last = last.max(n);
        }
    }

    #[test]
    fn replay_stops_at_corruption() {
        let wal = log_with(&[upsert(1, "aaa"), upsert(2, "bbb")]);
        let mut bytes = wal.bytes().to_vec();
        // Flip a byte inside the second frame's payload.
        let cut = bytes.len() - 3;
        bytes[cut] ^= 0xff;
        let got = WriteAheadLog::replay(&bytes);
        assert_eq!(got.len(), 1, "checksum must reject the corrupt frame");
    }
}
