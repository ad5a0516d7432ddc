//! Write-ahead intent log for multi-step orchestration plans.
//!
//! The coordinator's reconfigurations (`recover_master`, `migrate`) are
//! sequences of remote effects — fence epochs, install backups, start
//! witnesses, publish a map. A coordinator that dies between two of those
//! effects leaves the cluster mid-plan, and nothing in the data path can
//! finish the job for it. This journal is the fix: every step is recorded
//! *before* it executes, so a restarted coordinator can read back the open
//! plans and resume-or-abort each one to a consistent state.
//!
//! The on-disk format is a [`FramedLog`] of intent records: one frame per
//! record, fsync-per-record, a torn final record tolerated on load,
//! mid-log corruption refused. Each record is `Begin` (opens a plan,
//! carries an opaque payload describing it), `Step` (one orchestration
//! step's payload), or `Close` (the plan is done or deliberately aborted).
//! On open, fully closed plans are compacted away by
//! [`FramedLog::rewrite`] — the same atomic replace the snapshot files use.
//!
//! The journal stores opaque byte payloads: the *meaning* of a plan lives
//! with its owner (the coordinator), which keeps this layer reusable and
//! trivially testable.

use std::path::{Path, PathBuf};

use bytes::{Buf, BufMut};
use curp_proto::wire::{need, Decode, DecodeError, Encode};

use crate::frames::{FramedLog, FramedRecord};

const TAG_BEGIN: u8 = 1;
const TAG_STEP: u8 = 2;
const TAG_CLOSE: u8 = 3;

/// One journal record: `[tag u8][plan id u64 LE][payload…]`.
#[derive(Debug)]
struct Record {
    tag: u8,
    id: u64,
    payload: Vec<u8>,
}

impl Encode for Record {
    fn encode(&self, buf: &mut impl BufMut) {
        buf.put_u8(self.tag);
        buf.put_u64_le(self.id);
        buf.put_slice(&self.payload);
    }
    fn encoded_len(&self) -> usize {
        9 + self.payload.len()
    }
}

impl Decode for Record {
    fn decode(buf: &mut impl Buf) -> Result<Self, DecodeError> {
        need(buf, 9)?;
        let tag = buf.get_u8();
        if !matches!(tag, TAG_BEGIN | TAG_STEP | TAG_CLOSE) {
            return Err(DecodeError::InvalidTag { ty: "intent record", tag });
        }
        let id = buf.get_u64_le();
        let payload = buf.copy_to_bytes(buf.remaining()).to_vec();
        Ok(Record { tag, id, payload })
    }
}

impl FramedRecord for Record {
    const WHAT: &'static str = "intent";
}

/// A plan found open (begun, never closed) when the log was loaded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpenPlan {
    /// The plan's journal-assigned id (monotonic per log).
    pub id: u64,
    /// The opaque payload recorded by [`IntentLog::begin`].
    pub begin: Vec<u8>,
    /// Every step payload recorded so far, in order.
    pub steps: Vec<Vec<u8>>,
}

/// Append-only journal of orchestration intents.
///
/// Every mutation appends one frame and fsyncs before returning — a record
/// that `begin`/`step`/`close` acknowledged is durable, which is exactly the
/// property the resume protocol needs: a step that *executed* is always
/// preceded on disk by its record.
#[derive(Debug)]
pub struct IntentLog {
    path: PathBuf,
    log: FramedLog<Record>,
    next_plan: u64,
    recorded: u64,
    fail_after: Option<u64>,
}

impl IntentLog {
    /// Opens (creating if missing) the intent log at `path`, returning the
    /// journal and every plan left open by a previous incarnation.
    ///
    /// A torn final record (crash mid-append) is dropped; closed plans are
    /// compacted away by an atomic rewrite (which also heals the tear), so
    /// the log stays bounded by the in-flight plan count, not cluster
    /// lifetime.
    pub fn open(path: &Path) -> std::io::Result<(IntentLog, Vec<OpenPlan>)> {
        let mut records = FramedLog::<Record>::load(path)?.records;
        let mut open: Vec<OpenPlan> = Vec::new();
        let mut max_id = 0u64;
        for r in &records {
            max_id = max_id.max(r.id);
            match r.tag {
                TAG_BEGIN => {
                    open.push(OpenPlan { id: r.id, begin: r.payload.clone(), steps: Vec::new() })
                }
                TAG_STEP => {
                    if let Some(p) = open.iter_mut().find(|p| p.id == r.id) {
                        p.steps.push(r.payload.clone());
                    }
                }
                TAG_CLOSE => open.retain(|p| p.id != r.id),
                _ => {}
            }
        }
        records.retain(|r| open.iter().any(|p| p.id == r.id));
        let log = FramedLog::rewrite(path, &records)?;
        Ok((
            IntentLog {
                path: path.to_path_buf(),
                log,
                next_plan: max_id + 1,
                recorded: 0,
                fail_after: None,
            },
            open,
        ))
    }

    /// Opens a plan: records `payload` durably and returns the plan id.
    pub fn begin(&mut self, payload: &[u8]) -> std::io::Result<u64> {
        let id = self.next_plan;
        self.append(TAG_BEGIN, id, payload)?;
        self.next_plan += 1;
        Ok(id)
    }

    /// Records one step of plan `id` durably. Call *before* executing the
    /// step's effects; a step whose record never made it to disk must not
    /// have run.
    pub fn step(&mut self, id: u64, payload: &[u8]) -> std::io::Result<()> {
        self.append(TAG_STEP, id, payload)
    }

    /// Closes plan `id` (completed or aborted); a closed plan is compacted
    /// away on the next open.
    pub fn close(&mut self, id: u64) -> std::io::Result<()> {
        self.append(TAG_CLOSE, id, &[])
    }

    /// Records appended (durably) in this session.
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Path this journal appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Fault injection for crash-at-step-boundary tests: after `n` more
    /// successful records, every append fails *without writing* — exactly
    /// what a coordinator crash at that step boundary looks like (the step
    /// was never recorded, so it never executed). `None` disarms.
    pub fn set_fail_after(&mut self, n: Option<u64>) {
        self.fail_after = n;
    }

    fn append(&mut self, tag: u8, id: u64, payload: &[u8]) -> std::io::Result<()> {
        if let Some(budget) = self.fail_after {
            if budget == 0 {
                return Err(std::io::Error::other("injected intent-log crash"));
            }
            self.fail_after = Some(budget - 1);
        }
        self.log.append_batch(&[Record { tag, id, payload: payload.to_vec() }])?;
        self.log.sync()?;
        self.recorded += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs::OpenOptions;

    /// A log path inside a fresh scratch directory, removed when the
    /// returned guard drops.
    fn tmplog(name: &str) -> (crate::TempDir, PathBuf) {
        let dir = crate::TempDir::new("curp-intent-test").unwrap();
        let path = dir.path().join(name);
        (dir, path)
    }

    #[test]
    fn begin_step_close_roundtrip() {
        let (_dir, path) = tmplog("roundtrip");
        {
            let (mut log, open) = IntentLog::open(&path).unwrap();
            assert!(open.is_empty());
            let a = log.begin(b"plan-a").unwrap();
            log.step(a, b"fence").unwrap();
            log.step(a, b"publish").unwrap();
            let b = log.begin(b"plan-b").unwrap();
            log.close(a).unwrap();
            assert_ne!(a, b);
        }
        let (_, open) = IntentLog::open(&path).unwrap();
        assert_eq!(open.len(), 1, "closed plan compacted away");
        assert_eq!(open[0].begin, b"plan-b");
        assert!(open[0].steps.is_empty());
    }

    #[test]
    fn open_plan_keeps_step_order() {
        let (_dir, path) = tmplog("steps");
        {
            let (mut log, _) = IntentLog::open(&path).unwrap();
            let id = log.begin(b"recover").unwrap();
            for s in ["fence", "witness", "install"] {
                log.step(id, s.as_bytes()).unwrap();
            }
        }
        let (_, open) = IntentLog::open(&path).unwrap();
        assert_eq!(open.len(), 1);
        assert_eq!(
            open[0].steps,
            vec![b"fence".to_vec(), b"witness".to_vec(), b"install".to_vec()]
        );
    }

    #[test]
    fn plan_ids_stay_monotonic_across_reopen() {
        let (_dir, path) = tmplog("monotonic");
        let first = {
            let (mut log, _) = IntentLog::open(&path).unwrap();
            log.begin(b"p").unwrap()
        };
        let second = {
            let (mut log, _) = IntentLog::open(&path).unwrap();
            log.begin(b"q").unwrap()
        };
        assert!(second > first, "{second} must exceed {first}");
    }

    #[test]
    fn torn_tail_is_dropped_and_healed() {
        let (_dir, path) = tmplog("torn");
        {
            let (mut log, _) = IntentLog::open(&path).unwrap();
            let id = log.begin(b"plan").unwrap();
            log.step(id, b"step-1").unwrap();
            log.step(id, b"step-2").unwrap();
        }
        let len = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 3).unwrap();
        drop(f);
        let (_, open) = IntentLog::open(&path).unwrap();
        assert_eq!(open.len(), 1);
        assert_eq!(open[0].steps, vec![b"step-1".to_vec()], "torn step-2 dropped");
        // The compaction rewrite healed the tear: a re-open sees clean state.
        let (_, open2) = IntentLog::open(&path).unwrap();
        assert_eq!(open2, open);
    }

    #[test]
    fn mid_log_corruption_is_refused() {
        let (_dir, path) = tmplog("midlog");
        {
            let (mut log, _) = IntentLog::open(&path).unwrap();
            let id = log.begin(b"plan-one").unwrap();
            log.step(id, b"step-payload").unwrap();
            log.step(id, b"another-step").unwrap();
        }
        let mut raw = std::fs::read(&path).unwrap();
        // Flip the first record's tag byte (frame payload offset 4): complete
        // frames follow, so this cannot be a torn append.
        raw[4] = 0xEE;
        std::fs::write(&path, &raw).unwrap();
        let err = IntentLog::open(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    }

    #[test]
    fn injected_fault_fails_without_writing() {
        let (_dir, path) = tmplog("fault");
        {
            let (mut log, _) = IntentLog::open(&path).unwrap();
            log.set_fail_after(Some(2));
            let id = log.begin(b"plan").unwrap();
            log.step(id, b"ok-step").unwrap();
            let err = log.step(id, b"never-lands").unwrap_err();
            assert!(err.to_string().contains("injected"), "{err}");
            assert_eq!(log.recorded(), 2);
        }
        let (_, open) = IntentLog::open(&path).unwrap();
        assert_eq!(open[0].steps, vec![b"ok-step".to_vec()], "failed record never hit disk");
    }

    #[test]
    fn missing_file_is_an_empty_log() {
        let (_dir, path) = tmplog("missing");
        let (log, open) = IntentLog::open(&path).unwrap();
        assert!(open.is_empty());
        assert_eq!(log.recorded(), 0);
    }
}
