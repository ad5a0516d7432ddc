//! Crash-mid-append property: truncating an AOF at **every** byte offset
//! yields a clean prefix load — no panic, no phantom entry, no reordering —
//! with the torn tail reported exactly when the cut falls inside a record.
//!
//! This is the property `BackupService::restore_from_aof` (and with it the
//! whole power-loss recovery path) leans on: an append interrupted by power
//! failure leaves a *prefix* of the bytes that were written, and every such
//! prefix must load to a prefix of the entries.

use bytes::Bytes;
use curp_proto::frame::FrameDecoder;
use curp_proto::message::LogEntry;
use curp_proto::op::{Op, OpResult};
use curp_proto::types::{ClientId, RpcId};
use curp_storage::frames::tmp_path;
use curp_storage::{Aof, TempDir};
use proptest::prelude::*;

fn arb_entries() -> impl Strategy<Value = Vec<LogEntry>> {
    prop::collection::vec(
        (prop::collection::vec(any::<u8>(), 0..40), prop::collection::vec(any::<u8>(), 0..60)),
        1..6,
    )
    .prop_map(|kvs| {
        kvs.into_iter()
            .enumerate()
            .map(|(i, (key, value))| {
                let seq = i as u64;
                LogEntry {
                    seq,
                    rpc_id: Some(RpcId::new(ClientId(seq % 3 + 1), seq + 1)),
                    op: Op::Put { key: Bytes::from(key), value: Bytes::from(value) },
                    result: OpResult::Written { version: seq + 1 },
                }
            })
            .collect()
    })
}

/// Number of complete frames within the first `cut` bytes of `raw`.
fn complete_frames(raw: &[u8], cut: usize) -> (usize, usize) {
    let mut decoder = FrameDecoder::new();
    decoder.push(&raw[..cut]);
    let mut frames = 0;
    while let Ok(Some(_)) = decoder.next_frame() {
        frames += 1;
    }
    (frames, decoder.buffered())
}

/// A fresh scratch directory per case: parallel cases never share a path.
fn scratch() -> TempDir {
    TempDir::new("curp-proptest-aof").unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every byte-offset truncation of a well-formed AOF loads the exact
    /// entry prefix covered by complete frames, flags `truncated` iff the
    /// cut fell mid-record, and never errors (a tear is not corruption).
    #[test]
    fn every_truncation_offset_loads_a_clean_prefix(entries in arb_entries()) {
        let dir = scratch();
        let path = dir.path().join("log.aof");
        {
            let (mut aof, _) = Aof::open(&path).unwrap();
            aof.append_batch(&entries).unwrap();
            aof.sync().unwrap();
        }
        let raw = std::fs::read(&path).unwrap();
        for cut in 0..=raw.len() {
            std::fs::write(&path, &raw[..cut]).unwrap();
            let outcome = Aof::load(&path).unwrap_or_else(|e| {
                panic!("cut at {cut}/{} must not be corruption: {e}", raw.len())
            });
            let (frames, leftover) = complete_frames(&raw, cut);
            prop_assert_eq!(
                outcome.records.len(), frames,
                "cut {} of {}", cut, raw.len()
            );
            prop_assert_eq!(&outcome.records[..], &entries[..frames]);
            prop_assert_eq!(outcome.truncated, leftover > 0);
            // clean_len marks exactly the loadable prefix: cutting the tear
            // there is what keeps the file appendable after recovery.
            prop_assert_eq!(outcome.clean_len, (cut - leftover) as u64);
        }
    }

    /// Crash-mid-rewrite at **every** byte offset of the tmp file: the
    /// live AOF still loads exactly the old entries (the rename is the
    /// commit point; an un-renamed tmp is dead bytes, whatever prefix of
    /// it reached disk). Once the rename lands, the file loads exactly
    /// the new entries. At no offset does a load observe a splice of the
    /// two logs — the invariant that lets `BackupService` rewrite a
    /// backup's log underneath a live replica without a recovery mode.
    #[test]
    fn rewrite_crash_at_every_offset_yields_old_or_new_never_a_splice(
        old in arb_entries(),
        new in arb_entries(),
    ) {
        let dir = scratch();
        let path = dir.path().join("log.aof");
        let tmp = tmp_path(&path);
        {
            let (mut aof, _) = Aof::open(&path).unwrap();
            aof.append_batch(&old).unwrap();
            aof.sync().unwrap();
        }
        let old_raw = std::fs::read(&path).unwrap();
        // The exact bytes `Aof::rewrite` streams into the tmp file: a
        // completed rewrite at a scratch path yields them verbatim.
        let reference = dir.path().join("reference.aof");
        let new_raw = {
            drop(Aof::rewrite(&reference, &new).unwrap());
            std::fs::read(&reference).unwrap()
        };

        // Phase 1 — power fails while the tmp file is being written (or
        // fsynced, or before the rename commits): any byte prefix of the
        // tmp may survive next to the untouched live AOF.
        for cut in 0..=new_raw.len() {
            std::fs::write(&path, &old_raw).unwrap();
            std::fs::write(&tmp, &new_raw[..cut]).unwrap();
            let outcome = Aof::load(&path).unwrap_or_else(|e| {
                panic!("tmp cut at {cut}/{} corrupted the live AOF: {e}", new_raw.len())
            });
            prop_assert_eq!(
                &outcome.records[..], &old[..],
                "tmp cut at {} leaked into the live log", cut
            );
            prop_assert!(!outcome.truncated, "the live AOF was never touched");
        }
        std::fs::remove_file(&tmp).unwrap();

        // Phase 2 — the rename landed (tmp was complete and fsynced
        // first): the path now loads exactly the new entries.
        std::fs::write(&path, &old_raw).unwrap();
        drop(Aof::rewrite(&path, &new).unwrap());
        let outcome = Aof::load(&path).unwrap();
        prop_assert_eq!(&outcome.records[..], &new[..]);
        prop_assert!(!outcome.truncated);
        prop_assert!(!tmp.exists(), "a completed rewrite must consume its tmp file");
    }
}
