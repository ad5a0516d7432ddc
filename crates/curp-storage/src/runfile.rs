//! Sorted-run files: the on-disk half of [`TieredStore`](crate::TieredStore).
//!
//! A run is an immutable, key-sorted batch of records flushed from the
//! memtable, written with the same frame discipline as the AOF and read
//! through a sparse in-memory index — a lookup seeks to the block whose
//! first key covers the target and scans at most
//! [`INDEX_EVERY`] records.
//!
//! ## Format
//!
//! Every piece is a [`write_frame`]-encoded frame except the fixed
//! trailer:
//!
//! ```text
//! [header frame: version u32, record count u64]
//! [record frame]*  — key-ascending; see `RunRecord`
//! [index frame: n u32, then n * (key Bytes, record frame offset u64)]
//! [trailer, 16 raw bytes: index frame offset u64 LE, magic u64 LE]
//! ```
//!
//! The trailer lets [`RunFile::open`] find the index without scanning;
//! writers emit to a `.tmp` sibling, fsync, and rename into place, so a
//! run path never names a partial file.
//!
//! ## Record semantics
//!
//! [`RunRecord::Dead`] carries the version memory of a deleted key
//! (RAMCloud semantics: versions survive deletion, so a `ConditionalPut`
//! cannot be fooled by a delete/re-create cycle). Dead records are never
//! discarded by merges — dropping one would forget the deletion — they
//! are only superseded by a newer record for the same key, or folded
//! back into the memtable by
//! [`absorb_runs`](crate::StateStore::absorb_runs).
//!
//! Runs are a **rebuildable cache**: crash recovery never reads them
//! (masters recover from backups, backup replicas from snapshot +
//! checkpoints + AOF), so each [`TieredStore`](crate::TieredStore)
//! instance starts from an empty run directory and deletes its files on
//! drop.
//!
//! [`write_frame`]: curp_proto::frame::write_frame

use std::fs::File;
use std::io::{Read, Write};
use std::path::PathBuf;

use bytes::{Bytes, BytesMut};
use curp_proto::frame::{write_frame, FrameDecoder};
use curp_proto::wire::{Decode, Encode};

use crate::frames::fsync_dir;
use crate::store::Object;

/// One sparse-index entry per this many records.
pub const INDEX_EVERY: usize = 16;

const RUN_VERSION: u32 = 1;
const RUN_MAGIC: u64 = 0x4355_5250_5255_4e31; // "CURPRUN1"
const TAG_LIVE: u8 = 0;
const TAG_DEAD: u8 = 1;

/// One record of a sorted run.
#[derive(Debug, Clone, PartialEq)]
pub enum RunRecord {
    /// A live object (its `write_pos` is meaningless once flushed — only
    /// synced state is ever spilled — and reads back as `0`).
    Live(Object),
    /// Version memory of a deleted key (see the module docs).
    Dead(u64),
}

fn encode_record(key: &Bytes, rec: &RunRecord, buf: &mut BytesMut) {
    let mut payload = BytesMut::new();
    key.encode(&mut payload);
    match rec {
        RunRecord::Live(obj) => {
            TAG_LIVE.encode(&mut payload);
            obj.encode(&mut payload);
        }
        RunRecord::Dead(version) => {
            TAG_DEAD.encode(&mut payload);
            version.encode(&mut payload);
        }
    }
    write_frame(&payload, buf);
}

fn decode_record(frame: Bytes) -> Result<(Bytes, RunRecord), String> {
    let mut buf = frame;
    let key = Bytes::decode(&mut buf).map_err(|e| e.to_string())?;
    let tag = u8::decode(&mut buf).map_err(|e| e.to_string())?;
    let rec = match tag {
        TAG_LIVE => RunRecord::Live(Object::decode(&mut buf).map_err(|e| e.to_string())?),
        TAG_DEAD => RunRecord::Dead(u64::decode(&mut buf).map_err(|e| e.to_string())?),
        t => return Err(format!("unknown run record tag {t}")),
    };
    if !buf.is_empty() {
        return Err(format!("{} trailing bytes after run record", buf.len()));
    }
    Ok((key, rec))
}

/// Streams key-ascending records into a new run file. Used by both the
/// memtable flush (records already collected) and the k-way run merge
/// (records produced incrementally, never all in memory at once).
pub struct RunWriter {
    path: PathBuf,
    tmp: PathBuf,
    file: File,
    fsync: bool,
    /// Bytes written so far == offset of the next frame.
    offset: u64,
    count: u64,
    index: Vec<(Bytes, u64)>,
    last_key: Option<Bytes>,
    buf: BytesMut,
    /// Set once the tmp file has been renamed into place; an abandoned
    /// writer (merge error, caller drop) removes its tmp on drop so no
    /// partial file is ever stranded.
    finished: bool,
}

impl Drop for RunWriter {
    fn drop(&mut self) {
        if !self.finished {
            let _ = std::fs::remove_file(&self.tmp);
        }
    }
}

impl RunWriter {
    /// Opens a writer that will atomically create `path` on
    /// [`finish`](Self::finish).
    pub fn create(path: impl Into<PathBuf>, fsync: bool) -> std::io::Result<RunWriter> {
        let path = path.into();
        let tmp = path.with_extension("tmp");
        let file = File::create(&tmp)?;
        let mut w = RunWriter {
            path,
            tmp,
            file,
            fsync,
            offset: 0,
            count: 0,
            index: Vec::new(),
            last_key: None,
            buf: BytesMut::new(),
            finished: false,
        };
        // Placeholder header; rewritten with the real count in finish().
        // Writing it now keeps every record offset final as it is emitted.
        w.write_header(0)?;
        Ok(w)
    }

    fn write_header(&mut self, count: u64) -> std::io::Result<()> {
        let mut payload = BytesMut::new();
        RUN_VERSION.encode(&mut payload);
        count.encode(&mut payload);
        self.buf.clear();
        write_frame(&payload, &mut self.buf);
        self.file.write_all(&self.buf)?;
        if self.offset == 0 {
            self.offset = self.buf.len() as u64;
        }
        Ok(())
    }

    /// Appends one record; keys must arrive in strictly ascending order.
    ///
    /// # Panics
    /// Panics on an out-of-order or duplicate key — the caller (flush or
    /// merge) owns the sort, and a mis-sorted run would silently break
    /// every binary search against it.
    pub fn add(&mut self, key: Bytes, rec: &RunRecord) -> std::io::Result<()> {
        assert!(
            self.last_key.as_ref().is_none_or(|p| *p < key),
            "run records must be strictly key-ascending"
        );
        if (self.count as usize).is_multiple_of(INDEX_EVERY) {
            self.index.push((key.clone(), self.offset));
        }
        self.buf.clear();
        encode_record(&key, rec, &mut self.buf);
        self.file.write_all(&self.buf)?;
        self.offset += self.buf.len() as u64;
        self.count += 1;
        self.last_key = Some(key);
        Ok(())
    }

    /// Writes the index and trailer, fixes up the header, fsyncs (per
    /// config), renames the file into place, and returns the readable run.
    pub fn finish(mut self) -> std::io::Result<RunFile> {
        let index_offset = self.offset;
        let mut payload = BytesMut::new();
        (self.index.len() as u32).encode(&mut payload);
        for (key, off) in &self.index {
            key.encode(&mut payload);
            off.encode(&mut payload);
        }
        self.buf.clear();
        write_frame(&payload, &mut self.buf);
        self.file.write_all(&self.buf)?;
        let mut trailer = [0u8; 16];
        trailer[..8].copy_from_slice(&index_offset.to_le_bytes());
        trailer[8..].copy_from_slice(&RUN_MAGIC.to_le_bytes());
        self.file.write_all(&trailer)?;
        // Fix the record count in the header (same frame size: the count
        // field is fixed-width, so the placeholder and the real header
        // occupy identical bytes 0..offset_of_first_record).
        use std::io::Seek;
        self.file.seek(std::io::SeekFrom::Start(0))?;
        let first_record_offset = {
            let mut payload = BytesMut::new();
            RUN_VERSION.encode(&mut payload);
            self.count.encode(&mut payload);
            let mut hdr = BytesMut::new();
            write_frame(&payload, &mut hdr);
            self.file.write_all(&hdr)?;
            hdr.len() as u64
        };
        if self.fsync {
            self.file.sync_data()?;
        }
        std::fs::rename(&self.tmp, &self.path)?;
        self.finished = true;
        if self.fsync {
            if let Some(dir) = self.path.parent().filter(|d| !d.as_os_str().is_empty()) {
                fsync_dir(dir)?;
            }
        }
        let file = File::open(&self.path)?;
        let end = self.offset + self.buf.len() as u64 + 16;
        Ok(RunFile {
            path: std::mem::take(&mut self.path),
            file,
            index: std::mem::take(&mut self.index),
            count: self.count,
            data_start: first_record_offset,
            index_offset,
            file_len: end,
            last_key: self.last_key.take(),
        })
    }
}

/// An immutable, readable sorted run. Deletes its file on drop (runs are
/// a rebuildable cache; see the module docs).
pub struct RunFile {
    path: PathBuf,
    file: File,
    /// First key of each [`INDEX_EVERY`]-record block → frame offset.
    index: Vec<(Bytes, u64)>,
    count: u64,
    data_start: u64,
    index_offset: u64,
    file_len: u64,
    last_key: Option<Bytes>,
}

impl std::fmt::Debug for RunFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunFile")
            .field("path", &self.path)
            .field("records", &self.count)
            .finish_non_exhaustive()
    }
}

impl RunFile {
    /// Builds a run from already-sorted records (the flush path).
    pub fn write(
        path: impl Into<PathBuf>,
        records: &[(Bytes, RunRecord)],
        fsync: bool,
    ) -> std::io::Result<RunFile> {
        let mut w = RunWriter::create(path, fsync)?;
        for (key, rec) in records {
            w.add(key.clone(), rec)?;
        }
        w.finish()
    }

    /// Opens an existing run, validating the trailer and loading the
    /// sparse index. Not used by recovery (runs are a cache) — this is
    /// the format's self-check, exercised by tests.
    pub fn open(path: impl Into<PathBuf>) -> std::io::Result<RunFile> {
        let corrupt = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
        let path = path.into();
        let mut file = File::open(&path)?;
        let file_len = file.metadata()?.len();
        if file_len < 16 {
            return Err(corrupt("run file shorter than its trailer".into()));
        }
        let mut raw = Vec::new();
        file.read_to_end(&mut raw)?;
        let trailer = &raw[raw.len() - 16..];
        // lint: audited-unwrap — trailer is a 16-byte slice by construction
        let index_offset = u64::from_le_bytes(trailer[..8].try_into().unwrap());
        // lint: audited-unwrap — remaining 8 bytes of the same 16-byte slice
        let magic = u64::from_le_bytes(trailer[8..].try_into().unwrap());
        if magic != RUN_MAGIC {
            return Err(corrupt(format!("bad run magic {magic:#x}")));
        }
        if index_offset >= raw.len() as u64 - 16 {
            return Err(corrupt("run index offset out of bounds".into()));
        }
        // Header.
        let mut decoder = FrameDecoder::new();
        decoder.push(&raw[..raw.len() - 16]);
        let header = decoder
            .next_frame()
            .map_err(|e| corrupt(format!("run header: {e}")))?
            .ok_or_else(|| corrupt("run missing header frame".into()))?;
        let data_start = 4 + header.len() as u64;
        let mut hdr = header;
        let version = u32::decode(&mut hdr).map_err(|e| corrupt(e.to_string()))?;
        if version != RUN_VERSION {
            return Err(corrupt(format!("unsupported run version {version}")));
        }
        let count = u64::decode(&mut hdr).map_err(|e| corrupt(e.to_string()))?;
        // Index frame.
        let mut idx_decoder = FrameDecoder::new();
        idx_decoder.push(&raw[index_offset as usize..raw.len() - 16]);
        let idx_frame = idx_decoder
            .next_frame()
            .map_err(|e| corrupt(format!("run index: {e}")))?
            .ok_or_else(|| corrupt("run missing index frame".into()))?;
        let mut idx = idx_frame;
        let n = u32::decode(&mut idx).map_err(|e| corrupt(e.to_string()))?;
        let mut index = Vec::with_capacity(n as usize);
        for _ in 0..n {
            let key = Bytes::decode(&mut idx).map_err(|e| corrupt(e.to_string()))?;
            let off = u64::decode(&mut idx).map_err(|e| corrupt(e.to_string()))?;
            index.push((key, off));
        }
        let last_key = {
            let mut last = None;
            let it = RunIter {
                file: &file,
                pos: data_start,
                end: index_offset,
                decoder: FrameDecoder::new(),
            };
            for r in it {
                last = Some(r?.0);
            }
            last
        };
        Ok(RunFile { path, file, index, count, data_start, index_offset, file_len, last_key })
    }

    /// Number of records.
    pub fn len(&self) -> u64 {
        self.count
    }

    /// Whether the run holds no records.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Total file size in bytes.
    pub fn file_len(&self) -> u64 {
        self.file_len
    }

    /// Looks `key` up via the sparse index: seek to the covering block,
    /// scan at most `INDEX_EVERY` records.
    pub fn get(&self, key: &[u8]) -> std::io::Result<Option<RunRecord>> {
        if self.count == 0 {
            return Ok(None);
        }
        if self.index.first().is_some_and(|(k, _)| key < k.as_ref()) {
            return Ok(None);
        }
        if self.last_key.as_ref().is_some_and(|k| key > k.as_ref()) {
            return Ok(None);
        }
        // Last index entry with first-key <= key.
        let block = match self.index.binary_search_by(|(k, _)| k[..].cmp(key)) {
            Ok(i) => i,
            Err(0) => return Ok(None),
            Err(i) => i - 1,
        };
        let start = self.index[block].1;
        let end = self.index.get(block + 1).map_or(self.index_offset, |(_, off)| *off);
        let it = RunIter { file: &self.file, pos: start, end, decoder: FrameDecoder::new() };
        for r in it {
            let (k, rec) = r?;
            match k[..].cmp(key) {
                std::cmp::Ordering::Less => continue,
                std::cmp::Ordering::Equal => return Ok(Some(rec)),
                std::cmp::Ordering::Greater => return Ok(None),
            }
        }
        Ok(None)
    }

    /// Streams every record in key order without loading the run into
    /// memory (the merge path).
    pub fn iter(&self) -> impl Iterator<Item = std::io::Result<(Bytes, RunRecord)>> + '_ {
        RunIter {
            file: &self.file,
            pos: self.data_start,
            end: self.index_offset,
            decoder: FrameDecoder::new(),
        }
    }

    /// Consumes the handle *without* deleting the file (tests that reopen
    /// the file via [`open`](Self::open)).
    #[cfg(test)]
    pub(crate) fn into_path(self) -> PathBuf {
        let path = self.path.clone();
        std::mem::forget(self);
        path
    }
}

impl Drop for RunFile {
    fn drop(&mut self) {
        // Best-effort: the run is a cache owned by this handle.
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Chunked streaming reader over a byte range of record frames.
struct RunIter<'a> {
    file: &'a File,
    pos: u64,
    end: u64,
    decoder: FrameDecoder,
}

const READ_CHUNK: usize = 64 * 1024;

impl RunIter<'_> {
    fn next_record(&mut self) -> Option<std::io::Result<(Bytes, RunRecord)>> {
        loop {
            match self.decoder.next_frame() {
                Ok(Some(frame)) => {
                    return Some(
                        decode_record(frame)
                            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e)),
                    )
                }
                Ok(None) => {}
                Err(e) => {
                    return Some(Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        e.to_string(),
                    )))
                }
            }
            if self.pos >= self.end {
                return None;
            }
            let want = ((self.end - self.pos) as usize).min(READ_CHUNK);
            let mut chunk = vec![0u8; want];
            use std::os::unix::fs::FileExt;
            if let Err(e) = self.file.read_exact_at(&mut chunk, self.pos) {
                return Some(Err(e));
            }
            self.pos += want as u64;
            self.decoder.push(&chunk);
        }
    }
}

impl Iterator for RunIter<'_> {
    type Item = std::io::Result<(Bytes, RunRecord)>;
    fn next(&mut self) -> Option<Self::Item> {
        self.next_record()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::Value;
    use crate::TempDir;

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    fn live(v: &str, version: u64) -> RunRecord {
        RunRecord::Live(Object { value: Value::Str(b(v)), version, write_pos: 0 })
    }

    fn sample(n: usize) -> Vec<(Bytes, RunRecord)> {
        (0..n)
            .map(|i| {
                let key = Bytes::from(format!("key-{i:05}"));
                if i % 7 == 3 {
                    (key, RunRecord::Dead(i as u64 + 1))
                } else {
                    (key, live(&format!("value-{i}"), i as u64 + 1))
                }
            })
            .collect()
    }

    #[test]
    fn write_then_get_every_key_and_misses() {
        let dir = TempDir::new("curp-runfile").unwrap();
        let records = sample(100);
        let run = RunFile::write(dir.path().join("0.run"), &records, true).unwrap();
        assert_eq!(run.len(), 100);
        for (key, rec) in &records {
            assert_eq!(run.get(key).unwrap().as_ref(), Some(rec), "key {key:?}");
        }
        assert_eq!(run.get(b"key-00000a").unwrap(), None, "between-keys miss");
        assert_eq!(run.get(b"aaa").unwrap(), None, "below-range miss");
        assert_eq!(run.get(b"zzz").unwrap(), None, "above-range miss");
    }

    #[test]
    fn iter_streams_in_key_order() {
        let dir = TempDir::new("curp-runfile").unwrap();
        let records = sample(50);
        let run = RunFile::write(dir.path().join("0.run"), &records, false).unwrap();
        let streamed: Vec<_> = run.iter().map(|r| r.unwrap()).collect();
        assert_eq!(streamed, records);
    }

    #[test]
    fn open_round_trips_the_format() {
        let dir = TempDir::new("curp-runfile").unwrap();
        let records = sample(40);
        let path = RunFile::write(dir.path().join("0.run"), &records, true).unwrap().into_path();
        let run = RunFile::open(&path).unwrap();
        assert_eq!(run.len(), 40);
        let streamed: Vec<_> = run.iter().map(|r| r.unwrap()).collect();
        assert_eq!(streamed, records);
        for (key, rec) in &records {
            assert_eq!(run.get(key).unwrap().as_ref(), Some(rec));
        }
    }

    #[test]
    fn drop_deletes_the_file() {
        let dir = TempDir::new("curp-runfile").unwrap();
        let path = dir.path().join("0.run");
        let run = RunFile::write(&path, &sample(3), false).unwrap();
        assert!(path.exists());
        drop(run);
        assert!(!path.exists(), "dropping a run must delete its cache file");
    }

    #[test]
    #[should_panic(expected = "strictly key-ascending")]
    fn out_of_order_write_panics() {
        let dir = TempDir::new("curp-runfile").unwrap();
        let mut w = RunWriter::create(dir.path().join("0.run"), false).unwrap();
        w.add(b("b"), &live("x", 1)).unwrap();
        w.add(b("a"), &live("y", 1)).unwrap();
    }

    #[test]
    fn empty_run_is_valid() {
        let dir = TempDir::new("curp-runfile").unwrap();
        let run = RunFile::write(dir.path().join("0.run"), &[], true).unwrap();
        assert!(run.is_empty());
        assert_eq!(run.get(b"anything").unwrap(), None);
    }
}
