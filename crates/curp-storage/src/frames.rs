//! The one durable-write discipline: every length-prefixed log in the
//! system (the backup AOF, the coordinator's intent log, the witness
//! journal) and every atomically installed file (the backup's snapshot,
//! fence and checkpoint files) reads and writes through this module, so
//! fsync ordering has exactly one owner. The tiered store's run files keep
//! their own streaming writer but share the frame format.
//!
//! ## Write side
//!
//! * [`FramedLog`] — an append-only log of [`FramedRecord`]s.
//!   [`FramedLog::open`] loads the clean prefix, cuts a torn tail, and
//!   fsyncs the directory when it created the file;
//!   [`FramedLog::append_batch`] is one `write`; [`FramedLog::sync`] is one
//!   `sync_data`. Nothing may be acknowledged between the two: the fsync
//!   precedes the ack (DESIGN.md invariant 7).
//! * [`atomic_replace`] — tmp file (suffix `.curp-tmp`) + `sync_data` +
//!   rename + directory fsync, so a crash at any byte offset leaves either
//!   the old file or the new one, never a splice. The rename is the commit
//!   point: a stranded tmp is dead bytes, and [`sweep_tmps`] removes it.
//!
//! ## Read side
//!
//! Every log is an append-only stream of [`write_frame`]-encoded records
//! whose fsync precedes the ack, so a crash can only leave a *prefix* of
//! the bytes that were written. Loading therefore distinguishes exactly
//! three shapes:
//!
//! * clean EOF — every frame decodes; `truncated == false`;
//! * torn tail — leftover bytes after the last complete frame, or a
//!   *final* complete-but-undecodable frame (a tear can land inside the
//!   payload after the length prefix): the tail is dropped and reported
//!   via `truncated`, never an error, because the record it described was
//!   never acknowledged;
//! * mid-log corruption — an undecodable record with complete frames
//!   *after* it, or an out-of-bounds length prefix (a torn append writes
//!   the 4 header bytes before any payload, so a tear leaves a *short*
//!   header, not a wrong one): `InvalidData`, because silently skipping
//!   it would drop acknowledged state.
//!
//! Known limit (shared by all call sites): an in-place bit flip that turns
//! a length prefix into a different *in-bounds* value makes the rest of
//! the file parse as one incomplete frame, indistinguishable from a tear
//! without per-record checksums — this loader detects torn writes and
//! payload corruption, not adversarial in-place media corruption.
//!
//! [`write_frame`]: curp_proto::frame::write_frame

use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::marker::PhantomData;
use std::path::{Path, PathBuf};

use bytes::{Bytes, BytesMut};
use curp_proto::frame::{write_frame_encoded, FrameDecoder};
use curp_proto::wire::{Decode, Encode};

/// Suffix of every [`atomic_replace`] tmp file: `<path>` is staged as
/// `<path>.curp-tmp`. Distinctive on purpose — a scan for stranded tmps
/// (the cold-restart sweep, CI's hygiene check) must not match anything
/// else.
const TMP_SUFFIX: &str = ".curp-tmp";

/// A record type a [`FramedLog`] stores: its wire codec, plus the noun
/// corruption errors name the log by (`"intent"`, `"journal"`, …; empty
/// for the plain AOF).
pub trait FramedRecord: Encode + Decode {
    /// Names the log in error messages.
    const WHAT: &'static str;
}

/// What a load found in a framed log.
#[must_use = "recovery must inspect how much of the log survived"]
#[derive(Debug, Default)]
pub struct FramesOutcome<T> {
    /// Every record of the clean prefix, in append order.
    pub records: Vec<T>,
    /// Whether a torn tail (incomplete or undecodable final record) was
    /// dropped. [`FramedLog::open`] cuts the file back to `clean_len`
    /// before appending again: a new record written after leftover torn
    /// bytes hides behind their stale length prefix and poisons the next
    /// load.
    pub truncated: bool,
    /// Byte length of the clean prefix (`records` re-encoded).
    pub clean_len: u64,
}

/// An append-only log of `T` records, one length-prefixed frame each.
#[derive(Debug)]
pub struct FramedLog<T> {
    file: File,
    codec: PhantomData<fn(&T)>,
}

impl<T: FramedRecord> FramedLog<T> {
    /// Reads and decodes the log at `path` without opening it for append;
    /// a missing file is an empty log. See the module docs for the
    /// torn-tail-vs-corruption semantics.
    pub fn load(path: &Path) -> std::io::Result<FramesOutcome<T>> {
        let raw = match std::fs::read(path) {
            Ok(raw) => raw,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        decode_frames(&raw, T::WHAT, decode_record::<T>)
    }

    /// Opens (creating if missing) the log at `path` for appending, and
    /// returns what it held.
    ///
    /// A torn tail is cut off (one `set_len` + `sync_data`) before the
    /// first append can land behind it. A newly created file's directory
    /// entry is made durable ([`fsync_dir`]): an fsynced log that can
    /// disappear with its directory entry is not a log.
    pub fn open(path: &Path) -> std::io::Result<(FramedLog<T>, FramesOutcome<T>)> {
        let created = !path.exists();
        let mut file = OpenOptions::new().read(true).append(true).create(true).open(path)?;
        let mut raw = Vec::new();
        file.read_to_end(&mut raw)?;
        let outcome = decode_frames(&raw, T::WHAT, decode_record::<T>)?;
        if outcome.truncated {
            file.set_len(outcome.clean_len)?;
            file.sync_data()?;
        }
        if created {
            fsync_dir(parent_dir(path))?;
        }
        Ok((FramedLog { file, codec: PhantomData }, outcome))
    }

    /// Empties the log at `path` (creating it if missing) with one
    /// `sync_data`, and opens it for appending.
    ///
    /// It does **not** fsync the directory: call it from the `then` step of
    /// [`atomic_replace_then`], whose one directory fsync also covers the
    /// entry this may create — the backup's snapshot install, which empties
    /// the AOF only after the snapshot that supersedes it is renamed in.
    pub fn reset(path: &Path) -> std::io::Result<FramedLog<T>> {
        let file = OpenOptions::new().append(true).create(true).open(path)?;
        file.set_len(0)?;
        file.sync_data()?;
        Ok(FramedLog { file, codec: PhantomData })
    }

    /// Atomically replaces the log at `path` with exactly `records`
    /// ([`atomic_replace`]) and opens it for appending — without reading
    /// back the file it just wrote. The returned handle replaces any prior
    /// one for `path`: the old descriptor points at the unlinked file and
    /// must not be appended to again.
    pub fn rewrite(path: &Path, records: &[T]) -> std::io::Result<FramedLog<T>> {
        atomic_replace(path, &[&encode_frames(records)])?;
        let file = OpenOptions::new().append(true).open(path)?;
        Ok(FramedLog { file, codec: PhantomData })
    }

    /// Appends `records` with a single `write` (no fsync: call
    /// [`sync`](Self::sync) before acknowledging any of them).
    pub fn append_batch(&mut self, records: &[T]) -> std::io::Result<()> {
        self.file.write_all(&encode_frames(records))
    }

    /// Forces every appended record to stable storage (`sync_data`).
    pub fn sync(&mut self) -> std::io::Result<()> {
        self.file.sync_data()
    }
}

fn encode_frames<T: Encode>(records: &[T]) -> BytesMut {
    let mut buf =
        BytesMut::with_capacity(records.iter().map(|r| 4 + r.encoded_len()).sum::<usize>());
    for r in records {
        write_frame_encoded(r, &mut buf);
    }
    buf
}

fn decode_record<T: Decode>(frame: Bytes) -> Result<T, String> {
    T::from_bytes_shared(frame).map_err(|e| e.to_string())
}

/// The tmp path [`atomic_replace`] stages `path` under.
pub fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(TMP_SUFFIX);
    PathBuf::from(name)
}

fn parent_dir(path: &Path) -> &Path {
    match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    }
}

/// Fsyncs `dir` itself, making directory-entry mutations (file creation,
/// rename) durable. On ext4/xfs a file whose *contents* were fsynced can
/// still vanish in a power loss if the directory entry pointing at it was
/// never flushed — every durable-creation path must call this.
pub fn fsync_dir(dir: &Path) -> std::io::Result<()> {
    File::open(dir)?.sync_all()
}

/// Atomically replaces the file at `path` with the concatenation of
/// `parts`: writes them to [`tmp_path`]`(path)`, `sync_data`s it, renames
/// it over `path`, and fsyncs the directory — one tmp fsync, one rename,
/// one directory fsync.
pub fn atomic_replace(path: &Path, parts: &[&[u8]]) -> std::io::Result<()> {
    atomic_replace_then(path, parts, || Ok(()))
}

/// [`atomic_replace`] with `then` run between the rename and the
/// directory fsync, so the one directory fsync also makes every entry
/// `then` creates or removes durable. Returns what `then` returned.
pub fn atomic_replace_then<R>(
    path: &Path,
    parts: &[&[u8]],
    then: impl FnOnce() -> std::io::Result<R>,
) -> std::io::Result<R> {
    let tmp = tmp_path(path);
    {
        let mut f = File::create(&tmp)?;
        for part in parts {
            f.write_all(part)?;
        }
        f.sync_data()?;
    }
    std::fs::rename(&tmp, path)?;
    let out = then()?;
    fsync_dir(parent_dir(path))?;
    Ok(out)
}

/// Removes every stranded [`atomic_replace`] tmp file directly inside
/// `dir` — a crash between the tmp's creation and its rename leaves one,
/// and nothing ever reads it.
pub fn sweep_tmps(dir: &Path) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if entry.file_name().to_string_lossy().ends_with(TMP_SUFFIX) {
            std::fs::remove_file(entry.path())?;
        }
    }
    Ok(())
}

/// Decodes a raw framed byte stream under the module's discipline.
///
/// `what` names the log in error messages. `decode` turns one complete
/// frame into a record; its `Err` string is appended to the corruption
/// message when non-empty. A decode failure on the *final* frame is
/// treated as a torn tail; anywhere else it is `InvalidData`.
fn decode_frames<T>(
    raw: &[u8],
    what: &str,
    mut decode: impl FnMut(Bytes) -> Result<T, String>,
) -> std::io::Result<FramesOutcome<T>> {
    let corrupt = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
    let noun = |base: &str| {
        if what.is_empty() {
            base.to_string()
        } else {
            format!("{what} {base}")
        }
    };
    let mut decoder = FrameDecoder::new();
    decoder.push(raw);
    let mut frames = Vec::new();
    loop {
        match decoder.next_frame() {
            Ok(Some(frame)) => frames.push(frame),
            // Leftover bytes are a torn (incomplete) final record.
            Ok(None) => break,
            Err(e) => return Err(corrupt(format!("corrupt {} header: {e}", noun("frame")))),
        }
    }
    let mut outcome =
        FramesOutcome { records: Vec::new(), truncated: decoder.buffered() > 0, clean_len: 0 };
    let last = frames.len();
    for (i, frame) in frames.into_iter().enumerate() {
        let frame_len = 4 + frame.len() as u64;
        match decode(frame) {
            Ok(r) => {
                outcome.records.push(r);
                outcome.clean_len += frame_len;
            }
            // A final undecodable frame is indistinguishable from a torn
            // write; one followed by complete frames is not.
            Err(_) if i + 1 == last => {
                outcome.truncated = true;
                break;
            }
            Err(e) => {
                let detail = if e.is_empty() { String::new() } else { format!(": {e}") };
                return Err(corrupt(format!(
                    "corrupt {} {i} with {} complete frames after it{detail}",
                    noun("record"),
                    last - i - 1
                )));
            }
        }
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;
    use curp_proto::frame::write_frame;

    fn framed(payloads: &[&[u8]]) -> Vec<u8> {
        let mut buf = BytesMut::new();
        for p in payloads {
            write_frame(p, &mut buf);
        }
        buf.to_vec()
    }

    fn utf8(frame: Bytes) -> Result<String, String> {
        String::from_utf8(frame.to_vec()).map_err(|e| e.to_string())
    }

    #[test]
    fn clean_stream_decodes_every_record() {
        let raw = framed(&[b"a", b"bc"]);
        let out = decode_frames(&raw, "", utf8).unwrap();
        assert_eq!(out.records, vec!["a".to_string(), "bc".to_string()]);
        assert!(!out.truncated);
        assert_eq!(out.clean_len, raw.len() as u64);
    }

    #[test]
    fn leftover_bytes_are_a_tear_not_an_error() {
        let mut raw = framed(&[b"a"]);
        let clean = raw.len() as u64;
        raw.extend_from_slice(&[9, 0, 0]); // short header
        let out = decode_frames(&raw, "", utf8).unwrap();
        assert_eq!(out.records.len(), 1);
        assert!(out.truncated);
        assert_eq!(out.clean_len, clean);
    }

    #[test]
    fn final_undecodable_frame_is_a_tear() {
        let raw = framed(&[b"a", &[0xFF, 0xFE]]);
        let out = decode_frames(&raw, "", utf8).unwrap();
        assert_eq!(out.records.len(), 1);
        assert!(out.truncated);
        assert_eq!(out.clean_len, framed(&[b"a"]).len() as u64);
    }

    #[test]
    fn mid_log_bad_record_is_invalid_data() {
        let raw = framed(&[&[0xFF, 0xFE], b"a"]);
        let err = decode_frames(&raw, "journal", utf8).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains("journal record 0"), "{err}");
    }

    #[test]
    fn out_of_bounds_length_prefix_is_invalid_data() {
        let mut raw = framed(&[b"a"]);
        raw.extend_from_slice(&u32::MAX.to_le_bytes());
        raw.extend_from_slice(b"junk");
        let err = decode_frames(&raw, "", utf8).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    }

    impl FramedRecord for u64 {
        const WHAT: &'static str = "test";
    }

    #[test]
    fn missing_file_loads_empty() {
        let out = FramedLog::<u64>::load(Path::new("/nonexistent/curp-frames-test")).unwrap();
        assert!(out.records.is_empty() && !out.truncated && out.clean_len == 0);
    }

    fn scratch() -> crate::TempDir {
        crate::TempDir::new("curp-frames-test").unwrap()
    }

    #[test]
    fn open_cuts_a_torn_tail_before_the_next_append() {
        let dir = scratch();
        let path = dir.path().join("log");
        {
            let (mut log, out) = FramedLog::<u64>::open(&path).unwrap();
            assert!(out.records.is_empty());
            log.append_batch(&[1, 2]).unwrap();
            log.sync().unwrap();
        }
        let len = std::fs::metadata(&path).unwrap().len();
        OpenOptions::new().write(true).open(&path).unwrap().set_len(len - 3).unwrap();
        let (mut log, out) = FramedLog::<u64>::open(&path).unwrap();
        assert_eq!(out.records, vec![1]);
        assert!(out.truncated);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), out.clean_len, "tear cut");
        log.append_batch(&[3]).unwrap();
        log.sync().unwrap();
        assert_eq!(FramedLog::<u64>::load(&path).unwrap().records, vec![1, 3]);
    }

    #[test]
    fn rewrite_replaces_atomically_and_keeps_appending() {
        let dir = scratch();
        let path = dir.path().join("log");
        let (mut log, _) = FramedLog::<u64>::open(&path).unwrap();
        log.append_batch(&[1, 2, 3]).unwrap();
        let mut log = FramedLog::rewrite(&path, &[3u64]).unwrap();
        assert!(!tmp_path(&path).exists(), "the rename consumes the tmp");
        log.append_batch(&[4]).unwrap();
        assert_eq!(FramedLog::<u64>::load(&path).unwrap().records, vec![3, 4]);
    }

    #[test]
    fn reset_empties_the_log_inside_an_install() {
        let dir = scratch();
        let (snap, path) = (dir.path().join("snap"), dir.path().join("log"));
        let (mut log, _) = FramedLog::<u64>::open(&path).unwrap();
        log.append_batch(&[1]).unwrap();
        let mut log = atomic_replace_then(&snap, &[b"ab", b"c"], || {
            assert_eq!(std::fs::read(&snap).unwrap(), b"abc", "renamed in before `then`");
            FramedLog::<u64>::reset(&path)
        })
        .unwrap();
        log.append_batch(&[2]).unwrap();
        assert_eq!(FramedLog::<u64>::load(&path).unwrap().records, vec![2]);
    }

    #[test]
    fn sweep_removes_only_stranded_tmps() {
        let dir = scratch();
        let keep = dir.path().join("master-1.snap");
        atomic_replace(&keep, &[b"x"]).unwrap();
        std::fs::write(tmp_path(&keep), b"torn").unwrap();
        std::fs::write(tmp_path(&dir.path().join("master-1.ckpt0")), b"").unwrap();
        sweep_tmps(dir.path()).unwrap();
        let left: Vec<_> =
            std::fs::read_dir(dir.path()).unwrap().map(|e| e.unwrap().path()).collect();
        assert_eq!(left, vec![keep]);
    }
}
