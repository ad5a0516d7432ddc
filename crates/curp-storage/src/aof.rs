//! Redis-style append-only file (AOF).
//!
//! §5.4 of the paper: *"the only way to achieve durability and consistency
//! after crashes is to log client requests to an append-only file and invoke
//! fsync before responding to clients."* The backup's AOF is exactly that
//! log: a [`FramedLog`] of encoded [`LogEntry`]s, one `write` + one fsync
//! per sync round ([`FramedLog::append_batch`] then [`FramedLog::sync`]),
//! compacted by [`FramedLog::rewrite`]. Loading tolerates a torn tail (a
//! crash mid-append, mirroring Redis' `aof-load-truncated`) but refuses real
//! mid-log corruption — the shared [`frames`](crate::frames) discipline.

use curp_proto::message::LogEntry;

use crate::frames::{FramedLog, FramedRecord};

/// The backup's append-only log of executed operations.
pub type Aof = FramedLog<LogEntry>;

impl FramedRecord for LogEntry {
    const WHAT: &'static str = "";
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use curp_proto::op::{Op, OpResult};
    use curp_proto::types::{ClientId, RpcId};
    use curp_proto::wire::Encode;
    use std::fs::OpenOptions;

    fn entry(seq: u64) -> LogEntry {
        LogEntry {
            seq,
            rpc_id: Some(RpcId::new(ClientId(1), seq)),
            op: Op::Put { key: Bytes::from(format!("k{seq}")), value: Bytes::from(vec![0u8; 100]) },
            result: OpResult::Written { version: seq + 1 },
        }
    }

    /// A log path inside a fresh scratch directory, removed when the
    /// returned guard drops.
    fn tmpfile(name: &str) -> (crate::TempDir, std::path::PathBuf) {
        let dir = crate::TempDir::new("curp-aof-test").unwrap();
        let path = dir.path().join(name);
        (dir, path)
    }

    #[test]
    fn append_and_load() {
        let (_dir, path) = tmpfile("roundtrip");
        {
            let (mut aof, _) = Aof::open(&path).unwrap();
            for i in 0..10 {
                aof.append_batch(&[entry(i)]).unwrap();
                aof.sync().unwrap();
            }
        }
        let loaded = Aof::load(&path).unwrap();
        assert_eq!(loaded.records.len(), 10);
        assert_eq!(loaded.records[3], entry(3));
        assert!(!loaded.truncated, "clean file must not report a torn tail");
    }

    #[test]
    fn batch_append_counts() {
        let (_dir, path) = tmpfile("batch");
        let (mut aof, _) = Aof::open(&path).unwrap();
        let batch: Vec<_> = (0..5).map(entry).collect();
        aof.append_batch(&batch).unwrap();
        aof.sync().unwrap();
        let loaded = Aof::load(&path).unwrap();
        assert_eq!(loaded.records, batch);
        let framed: u64 = batch.iter().map(|e| 4 + e.encoded_len() as u64).sum();
        assert_eq!(loaded.clean_len, framed, "one frame per entry, nothing else");
        assert_eq!(std::fs::metadata(&path).unwrap().len(), framed);
    }

    #[test]
    fn missing_file_loads_empty() {
        let (_dir, path) = tmpfile("missing");
        let loaded = Aof::load(&path).unwrap();
        assert!(loaded.records.is_empty());
        assert!(!loaded.truncated);
    }

    #[test]
    fn torn_tail_is_discarded() {
        let (_dir, path) = tmpfile("torn");
        {
            let (mut aof, _) = Aof::open(&path).unwrap();
            aof.append_batch(&[entry(0), entry(1), entry(2)]).unwrap();
        }
        // Simulate a crash mid-append: truncate the last record in half.
        let len = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 20).unwrap();
        drop(f);
        let loaded = Aof::load(&path).unwrap();
        assert_eq!(loaded.records.len(), 2, "torn third record dropped");
        assert!(loaded.truncated, "the tear must be reported");
    }

    #[test]
    fn mid_log_corruption_is_an_error_not_a_truncation() {
        let (_dir, path) = tmpfile("midlog");
        {
            let (mut aof, _) = Aof::open(&path).unwrap();
            aof.append_batch(&[entry(0), entry(1), entry(2)]).unwrap();
        }
        // Corrupt the *second* record's rpc_id Option tag (payload offset 8,
        // after the 8-byte seq): complete frames follow it, so this cannot
        // be a torn append.
        let first_len = 4 + entry(0).to_bytes().len();
        let mut raw = std::fs::read(&path).unwrap();
        raw[first_len + 4 + 8] ^= 0xFF;
        std::fs::write(&path, &raw).unwrap();
        let err = Aof::load(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    }

    #[test]
    fn corrupt_length_prefix_is_an_error() {
        let (_dir, path) = tmpfile("badlen");
        {
            let (mut aof, _) = Aof::open(&path).unwrap();
            aof.append_batch(&[entry(0)]).unwrap();
        }
        // Overwrite the length prefix with an absurd declared size. All four
        // header bytes are present, so a torn append cannot explain it.
        let mut raw = std::fs::read(&path).unwrap();
        raw[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        std::fs::write(&path, &raw).unwrap();
        let err = Aof::load(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    }

    #[test]
    fn reopen_appends_after_existing_entries() {
        let (_dir, path) = tmpfile("reopen");
        {
            let (mut aof, _) = Aof::open(&path).unwrap();
            aof.append_batch(&[entry(0)]).unwrap();
        }
        {
            let (mut aof, loaded) = Aof::open(&path).unwrap();
            assert_eq!(loaded.records, vec![entry(0)]);
            aof.append_batch(&[entry(1)]).unwrap();
        }
        let loaded = Aof::load(&path).unwrap();
        assert_eq!(loaded.records.len(), 2);
        assert_eq!(loaded.records[1].seq, 1);
    }
}
