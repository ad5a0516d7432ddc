//! The backup role: ordered, durable replicas of a master's log.
//!
//! Backups hold "data that includes ordering information" (Figure 1). A
//! backup applies each master sync — a batch of contiguous, ordered
//! [`LogEntry`]s — to a materialized [`StateStore`] plus [`RiflTable`],
//! verifying determinism as it goes, and fences stale master epochs to
//! neutralize zombies (§4.7). During recovery it serves its materialized
//! state as a [`Snapshot`] (the "restoration from backups" step, §3.3).
//! Which engine backs a replica — purely in-memory or the tiered
//! larger-than-memory engine — is a [`StoreConfig`] choice; the backup
//! logic never names one.
//!
//! ## Durability (§5.4)
//!
//! A backup built with [`BackupService::durable`] keeps one append-only
//! file per master under its data directory and follows the write-ahead
//! discipline: every sync round's applicable entries are appended and
//! fsynced **before** they are applied or acknowledged — "log client
//! requests to an append-only file and invoke fsync before responding"
//! (§5.4), with one `write + fsync` per round, the §C.2 batching. A master
//! recovery install persists the snapshot (plus its fencing epoch) next to
//! the AOF. After a whole-cluster power loss,
//! [`BackupService::restore_from_aof`] rebuilds each replica from
//! the snapshot + AOF suffix, so everything a backup ever acknowledged
//! survives the restart — the invariant `Coordinator::restart_cluster`
//! builds on.
//!
//! ## Bounded log: incremental checkpoints + AOF rewrite
//!
//! Left alone, the AOF grows with the op count, not the live-data size.
//! Every `MAINT_EVERY` applied entries the replica takes a maintenance
//! tick: it checkpoints **one** shard of its store (round-robin) to a
//! sidecar file `master-N.ckptS`, then — once every shard's checkpoint
//! has advanced past the log's oldest entry — rewrites the AOF keeping
//! only the uncovered suffix ([`FramedLog::rewrite`](curp_storage::FramedLog::rewrite),
//! crash-safe tmp + rename).
//! A checkpoint's coverage only advances after its file is durable, and
//! the rewrite never drops an entry some shard still needs (DESIGN.md
//! invariant 12), so at every instant
//! `base snapshot + valid checkpoints + AOF suffix` reconstructs all
//! acknowledged state. [`BackupService::compact`] is the explicit form —
//! a full checkpoint round plus a rewrite — and
//! [`BackupService::footprint`] reports the resulting file sizes.
//!
//! Restore overlays each surviving checkpoint over the base snapshot (a
//! checkpoint from a different install, shard layout, or an unreadable
//! file is ignored) and replays the AOF suffix, skipping the slice of
//! each entry already folded into a shard's checkpoint. One operational
//! constraint follows: the shard count of a durable backup must not
//! change across restarts once the AOF has been rewritten, because the
//! checkpoints are keyed to the layout that produced them.

use std::collections::HashMap;
use std::path::{Path, PathBuf};

use bytes::{Buf, Bytes};
use curp_proto::lockrank;
use curp_proto::message::{LogEntry, Request, Response};
use curp_proto::op::{Op, OpResult};
use curp_proto::types::{Epoch, KeyHash, MasterId};
use curp_rifl::RiflTable;
use curp_storage::frames::{atomic_replace, atomic_replace_then, sweep_tmps};
use curp_storage::{fsync_dir, Aof, StateStore, StoreConfig};
use parking_lot::Mutex;

use crate::snapshot::Snapshot;

/// Applied entries between background maintenance ticks (one shard
/// checkpoint + store maintenance + rewrite check per tick).
const MAINT_EVERY: u64 = 512;

fn aof_path(dir: &Path, master: MasterId) -> PathBuf {
    dir.join(format!("master-{}.aof", master.0))
}

fn snap_path(dir: &Path, master: MasterId) -> PathBuf {
    dir.join(format!("master-{}.snap", master.0))
}

fn fence_path(dir: &Path, master: MasterId) -> PathBuf {
    dir.join(format!("master-{}.fence", master.0))
}

fn ckpt_path(dir: &Path, master: MasterId, shard: usize) -> PathBuf {
    dir.join(format!("master-{}.ckpt{}", master.0, shard))
}

/// Persists the fencing epoch for `master` as a sidecar file (8-byte LE
/// epoch, installed by [`atomic_replace`]). The fence must survive this
/// backup's own crash: the coordinator fences *before* recovery reads any
/// backup (§4.7), and a zombie master can outlive a backup reboot — a fence
/// that only lives in memory would re-admit its stale syncs after a cold
/// restart.
fn persist_fence(dir: &Path, master: MasterId, epoch: Epoch) -> std::io::Result<()> {
    atomic_replace(&fence_path(dir, master), &[&epoch.0.to_le_bytes()])
}

/// Reads the persisted fence, if any ([`Epoch(0)`](Epoch) when absent).
fn load_fence(dir: &Path, master: MasterId) -> std::io::Result<Epoch> {
    match std::fs::read(fence_path(dir, master)) {
        Ok(raw) => {
            let bytes: [u8; 8] =
                raw.try_into().map_err(|_| corrupt(format!("bad fence file for {master:?}")))?;
            Ok(Epoch(u64::from_le_bytes(bytes)))
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Epoch(0)),
        Err(e) => Err(e),
    }
}

fn corrupt(what: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, what)
}

/// The shared empty snapshot handed out for masters with no replica —
/// recovery retries hit [`BackupService::fetch`] repeatedly, and building
/// a fresh store + RIFL table per miss is pure waste.
fn empty_snapshot() -> &'static Snapshot {
    static EMPTY: std::sync::OnceLock<Snapshot> = std::sync::OnceLock::new();
    EMPTY.get_or_init(|| {
        Snapshot::from_parts((Vec::new(), Vec::new()), RiflTable::new().export(), 0)
    })
}

/// Executes `op` against a replica store and marks it synced at once:
/// everything a backup holds is by definition durable *on this backup*,
/// so the synced frontier tracks the log head — which also keeps the
/// tiered engine free to spill any of it.
fn exec_synced(store: &dyn StateStore, op: &Op) -> OpResult {
    let mut guards = store.lock_all_for(Some(op));
    let result = guards.execute(op);
    guards.mark_synced(store.log_head());
    result
}

struct Replica {
    store: Box<dyn StateStore>,
    rifl: RiflTable,
    next_seq: u64,
    epoch: Epoch,
    /// Out-of-order arrivals waiting for their predecessors (masters may
    /// replicate entries from several worker threads concurrently, so a
    /// later entry can arrive first; it is buffered, not rejected).
    reorder: std::collections::BTreeMap<u64, LogEntry>,
    /// Write-ahead log handle (`None` on a memory-only service).
    aof: Option<Aof>,
    /// Set after a persistence failure: the on-disk suffix is unknown, so
    /// the replica refuses every further sync (fail-stop) rather than ack
    /// entries whose durability it cannot vouch for. Cleared only by a cold
    /// restart, which re-reads the disk.
    wedged: bool,
    /// Identity of the base `.snap` file the shard checkpoints overlay:
    /// the `(epoch, next_seq)` persisted in its header, `(Epoch(0), 0)`
    /// when none exists. A checkpoint recorded over a different base
    /// describes another install's timeline and is ignored on restore.
    base: (Epoch, u64),
    /// Per-shard checkpoint coverage: checkpoint file `i` durably holds
    /// shard `i`'s state with every entry below `coverage[i]` folded in.
    /// Starts at the base snapshot's `next_seq`; advances only after the
    /// checkpoint file is fsynced and renamed into place.
    coverage: Vec<u64>,
    /// Next shard to checkpoint (round-robin, one per maintenance tick).
    next_ckpt: usize,
    /// Entries applied since the last maintenance tick.
    since_maint: u64,
    /// `min(coverage)` at the last AOF rewrite — the oldest entry the log
    /// still carries.
    rewritten: u64,
}

impl Replica {
    fn new(cfg: &StoreConfig, epoch: Epoch, aof: Option<Aof>) -> Self {
        Self::from_parts(cfg.build(), RiflTable::new(), 0, epoch, aof, (Epoch(0), 0))
    }

    fn from_parts(
        store: Box<dyn StateStore>,
        rifl: RiflTable,
        next_seq: u64,
        epoch: Epoch,
        aof: Option<Aof>,
        base: (Epoch, u64),
    ) -> Self {
        let coverage = vec![base.1; store.num_shards()];
        Replica {
            store,
            rifl,
            next_seq,
            epoch,
            reorder: std::collections::BTreeMap::new(),
            aof,
            wedged: false,
            base,
            coverage,
            next_ckpt: 0,
            since_maint: 0,
            rewritten: base.1,
        }
    }

    fn apply(&mut self, e: &LogEntry) {
        let result = exec_synced(self.store.as_ref(), &e.op);
        debug_assert_eq!(result, e.result, "nondeterministic replay of entry {}", e.seq);
        if let Some(id) = e.rpc_id {
            self.rifl.record(id, e.result.clone());
        }
        self.next_seq += 1;
        self.since_maint += 1;
    }

    fn snapshot(&self) -> Snapshot {
        Snapshot::from_parts(self.store.export(), self.rifl.export(), self.next_seq)
    }
}

/// A parsed `master-N.ckptS` sidecar file.
struct CkptFile {
    base: (Epoch, u64),
    shard_count: usize,
    shard: usize,
    /// Shard payload; `snap.next_seq` is the coverage, `snap.rifl` the
    /// full completion-record table as of that entry.
    snap: Snapshot,
}

/// How much of a logged op still needs re-execution on restore, given
/// per-shard checkpoint coverage.
enum Replay {
    /// Every key is below its shard's coverage — already folded in.
    Covered,
    /// No key is covered: re-execute verbatim (and verify determinism).
    Full,
    /// Some keys are covered (a `MultiPut` spanning shards whose
    /// checkpoints diverged): re-execute only the uncovered pairs. The
    /// logged result stands in — a slice of an op cannot reproduce it.
    Partial(Op),
}

fn replay_plan(op: &Op, covered: impl Fn(&Bytes) -> bool) -> Replay {
    if let Op::MultiPut { kvs } = op {
        let kept: Vec<(Bytes, Bytes)> = kvs.iter().filter(|(k, _)| !covered(k)).cloned().collect();
        if kept.is_empty() {
            Replay::Covered
        } else if kept.len() == kvs.len() {
            Replay::Full
        } else {
            Replay::Partial(Op::MultiPut { kvs: kept })
        }
    } else if op.keys().any(covered) {
        Replay::Covered
    } else {
        Replay::Full
    }
}

/// Outcome of one [`BackupService::sync`] round.
#[must_use = "a sync round's outcome decides whether witnesses may be reset"]
#[derive(Debug, PartialEq, Eq)]
pub enum SyncOutcome {
    /// Entries staged/applied; everything at `seq < next_seq` is durable
    /// (fsynced, on a durable service) on this backup.
    Applied {
        /// Next expected sequence number.
        next_seq: u64,
    },
    /// The sender's epoch is stale — it is a fenced zombie (§4.7).
    Fenced {
        /// Next expected sequence number (for the sender's diagnostics).
        next_seq: u64,
    },
    /// The write-ahead append or fsync failed; nothing was acknowledged and
    /// the replica is wedged until a cold restart.
    PersistFailed {
        /// The underlying I/O error.
        error: String,
    },
}

/// On-disk and in-memory size accounting for one replica — diagnostics,
/// and the acceptance check that compaction keeps the log bounded by the
/// live state rather than the op count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackupFootprint {
    /// Bytes in the write-ahead log file (0 on a memory-only service).
    pub aof_bytes: u64,
    /// Bytes across the base snapshot and per-shard checkpoint files.
    pub checkpoint_bytes: u64,
    /// Payload bytes of the live replica state: keys + encoded objects +
    /// dead-version memory, wherever the engine keeps them.
    pub state_bytes: u64,
}

/// A backup server hosting one replica per master.
pub struct BackupService {
    replicas: Mutex<HashMap<MasterId, Replica>>,
    /// Data directory for the per-master AOFs + snapshots (`None` =
    /// memory-only, the pre-§5.4 configuration).
    dir: Option<PathBuf>,
    /// Engine choice for every replica this service hosts. Backups apply
    /// serially under the service lock, so the default is a single shard.
    store_cfg: StoreConfig,
}

impl Default for BackupService {
    fn default() -> Self {
        BackupService {
            replicas: Mutex::ranked(
                lockrank::BACKUP_REPLICAS,
                "core.backup.replicas",
                HashMap::new(),
            ),
            dir: None,
            store_cfg: StoreConfig::memory(1),
        }
    }
}

impl BackupService {
    /// Creates an empty, memory-only backup service.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a memory-only service with a custom store engine — e.g. a
    /// tiered memtable for replicas larger than memory.
    pub fn with_store(store_cfg: StoreConfig) -> Self {
        BackupService { store_cfg, ..Self::default() }
    }

    /// Creates (or reopens) a durable backup service rooted at `dir`,
    /// restoring every replica that survives on disk — the cold-restart
    /// entry point. See the module docs for the write-ahead discipline.
    pub fn durable(dir: impl Into<PathBuf>) -> std::io::Result<BackupService> {
        Self::durable_with(dir, StoreConfig::memory(1))
    }

    /// [`durable`](Self::durable) with an explicit engine choice. The
    /// shard count also sets the checkpoint granularity; it must stay
    /// stable across restarts of the same data directory (module docs).
    pub fn durable_with(
        dir: impl Into<PathBuf>,
        store_cfg: StoreConfig,
    ) -> std::io::Result<BackupService> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let svc = BackupService {
            replicas: Mutex::ranked(
                lockrank::BACKUP_REPLICAS,
                "core.backup.replicas",
                HashMap::new(),
            ),
            dir: Some(dir),
            store_cfg,
        };
        svc.restore_all_from_disk()?;
        Ok(svc)
    }

    /// Whether this service persists its replicas.
    pub fn is_durable(&self) -> bool {
        self.dir.is_some()
    }

    /// Looks up (creating if absent) the replica for `master`. Creation
    /// opens the write-ahead AOF on a durable service, which can fail.
    fn replica_entry<'a>(
        dir: Option<&Path>,
        cfg: &StoreConfig,
        replicas: &'a mut HashMap<MasterId, Replica>,
        master: MasterId,
        epoch: Epoch,
    ) -> std::io::Result<&'a mut Replica> {
        use std::collections::hash_map::Entry;
        match replicas.entry(master) {
            Entry::Occupied(e) => Ok(e.into_mut()),
            Entry::Vacant(v) => {
                let aof = dir.map(|d| Aof::open(&aof_path(d, master))).transpose()?.map(|(a, _)| a);
                Ok(v.insert(Replica::new(cfg, epoch, aof)))
            }
        }
    }

    /// Applies a sync batch.
    ///
    /// * A stale epoch is [`SyncOutcome::Fenced`]: the sender is a zombie
    ///   (§4.7).
    /// * Entries below `next_seq` are duplicates from a retried sync and are
    ///   skipped idempotently.
    /// * Entries above `next_seq` are buffered and applied once their
    ///   predecessors arrive (concurrent replication from multiple master
    ///   workers may reorder batches in flight).
    /// * On a durable service the round's applicable entries are appended
    ///   and fsynced **before** being applied: an `Applied` ack implies the
    ///   covering fsync happened (DESIGN.md invariant 7). A failed append
    ///   wedges the replica — fail-stop, never an unbacked ack.
    pub fn sync(&self, master: MasterId, epoch: Epoch, entries: &[LogEntry]) -> SyncOutcome {
        let mut replicas = self.replicas.lock();
        let replica = match Self::replica_entry(
            self.dir.as_deref(),
            &self.store_cfg,
            &mut replicas,
            master,
            epoch,
        ) {
            Ok(r) => r,
            Err(e) => return SyncOutcome::PersistFailed { error: format!("open aof: {e}") },
        };
        // Fencing is answered before the wedge: a deposed zombie must learn
        // it was fenced (and seal itself) even from a backup that can no
        // longer persist — Retry would have it retry forever, unsealed.
        if epoch < replica.epoch {
            return SyncOutcome::Fenced { next_seq: replica.next_seq };
        }
        replica.epoch = epoch;
        if replica.wedged {
            return SyncOutcome::PersistFailed { error: "replica wedged (fail-stop)".into() };
        }
        // Common case first: the batch is exactly the next contiguous run
        // (masters send seq-sorted batches) and nothing is buffered — apply
        // straight from the slice, no staging clones, no map churn. The
        // general path (gaps, interleaved duplicates, buffered entries)
        // stages through the reorder map.
        let dup_prefix = entries.iter().take_while(|e| e.seq < replica.next_seq).count();
        let fresh = &entries[dup_prefix..];
        let contiguous = replica.reorder.is_empty()
            && fresh.iter().enumerate().all(|(i, e)| e.seq == replica.next_seq + i as u64);
        let staged: Vec<LogEntry>;
        let ready: &[LogEntry] = if contiguous {
            fresh
        } else {
            for e in fresh {
                if e.seq >= replica.next_seq {
                    replica.reorder.insert(e.seq, e.clone());
                }
            }
            let mut run = Vec::new();
            let mut n = replica.next_seq;
            while let Some(e) = replica.reorder.remove(&n) {
                run.push(e);
                n += 1;
            }
            staged = run;
            &staged
        };
        // Write-ahead: one append + one fsync per sync round, before apply.
        if let Some(aof) = replica.aof.as_mut() {
            if !ready.is_empty() {
                if let Err(e) = aof.append_batch(ready).and_then(|()| aof.sync()) {
                    replica.wedged = true;
                    return SyncOutcome::PersistFailed { error: format!("aof append: {e}") };
                }
            }
        }
        for e in ready {
            replica.apply(e);
        }
        if replica.since_maint >= MAINT_EVERY {
            replica.since_maint = 0;
            Self::maintain_replica(self.dir.as_deref(), replica, master);
        }
        if replica.wedged {
            return SyncOutcome::PersistFailed { error: "replica wedged (fail-stop)".into() };
        }
        SyncOutcome::Applied { next_seq: replica.next_seq }
    }

    /// One background maintenance tick: tick the store engine (tier
    /// flush/merge), checkpoint the next shard round-robin, and rewrite
    /// the AOF once every shard's coverage has passed its oldest entry.
    ///
    /// A failed checkpoint is merely skipped — coverage does not advance
    /// and the AOF still holds everything. A failed **rewrite** wedges
    /// the replica: the swap may have half-happened, so the on-disk
    /// suffix is no longer known-good — same fail-stop as a failed
    /// append.
    fn maintain_replica(dir: Option<&Path>, replica: &mut Replica, master: MasterId) {
        let _ = replica.store.maintain();
        let Some(dir) = dir else { return };
        let shard = replica.next_ckpt % replica.coverage.len();
        replica.next_ckpt = (shard + 1) % replica.coverage.len();
        if Self::checkpoint_shard(dir, replica, master, shard).is_ok() {
            replica.coverage[shard] = replica.next_seq;
        }
        let min_cov = replica.coverage.iter().copied().min().unwrap_or(replica.next_seq);
        if min_cov > replica.rewritten && Self::rewrite_aof(dir, replica, master, min_cov).is_err()
        {
            replica.wedged = true;
        }
    }

    /// Writes shard `shard`'s state (plus the full RIFL table) to its
    /// checkpoint file: header `[base epoch][base next_seq][shard count]
    /// [shard idx]` + snapshot blob whose `next_seq` is the coverage.
    /// Installed by [`atomic_replace`], like every other file here.
    fn checkpoint_shard(
        dir: &Path,
        replica: &Replica,
        master: MasterId,
        shard: usize,
    ) -> std::io::Result<()> {
        let (objects, dead_versions) = replica.store.export_shard(shard);
        let snap = Snapshot {
            objects,
            dead_versions,
            rifl: replica.rifl.export(),
            next_seq: replica.next_seq,
        };
        atomic_replace(
            &ckpt_path(dir, master, shard),
            &[
                &replica.base.0 .0.to_le_bytes(),
                &replica.base.1.to_le_bytes(),
                &(replica.coverage.len() as u32).to_le_bytes(),
                &(shard as u32).to_le_bytes(),
                &snap.to_blob(),
            ],
        )
    }

    fn parse_ckpt(raw: &[u8]) -> std::io::Result<CkptFile> {
        let mut buf = raw;
        if buf.remaining() < 24 {
            return Err(corrupt("ckpt file shorter than its header".into()));
        }
        let base = (Epoch(buf.get_u64_le()), buf.get_u64_le());
        let shard_count = buf.get_u32_le() as usize;
        let shard = buf.get_u32_le() as usize;
        let snap = Snapshot::from_blob(buf).map_err(|e| corrupt(format!("ckpt blob: {e}")))?;
        Ok(CkptFile { base, shard_count, shard, snap })
    }

    /// Replaces the AOF with only the entries at-or-above `min_cov` — the
    /// suffix not yet folded into every shard checkpoint. Never discards
    /// an entry some shard's restore would still replay (DESIGN.md
    /// invariant 12: coverage is the durable frontier here, and it only
    /// advances behind fsynced checkpoint files).
    fn rewrite_aof(
        dir: &Path,
        replica: &mut Replica,
        master: MasterId,
        min_cov: u64,
    ) -> std::io::Result<()> {
        let path = aof_path(dir, master);
        let mut kept = Aof::load(&path)?.records;
        kept.retain(|e| e.seq >= min_cov);
        replica.aof = Some(Aof::rewrite(&path, &kept)?);
        replica.rewritten = min_cov;
        Ok(())
    }

    /// Forces a full checkpoint round plus an AOF rewrite — the explicit
    /// form of the background maintenance tick, shrinking the on-disk log
    /// to nothing on a quiescent replica *now*. No-op for an absent
    /// replica; only the store's own maintenance applies on a memory-only
    /// service.
    pub fn compact(&self, master: MasterId) -> std::io::Result<()> {
        let mut replicas = self.replicas.lock();
        let Some(replica) = replicas.get_mut(&master) else { return Ok(()) };
        replica.store.maintain()?;
        let Some(dir) = self.dir.as_deref() else { return Ok(()) };
        for shard in 0..replica.coverage.len() {
            Self::checkpoint_shard(dir, replica, master, shard)?;
            replica.coverage[shard] = replica.next_seq;
        }
        let min_cov = replica.next_seq;
        if let Err(e) = Self::rewrite_aof(dir, replica, master, min_cov) {
            replica.wedged = true;
            return Err(e);
        }
        Ok(())
    }

    /// Size accounting for `master`'s replica (see [`BackupFootprint`]).
    pub fn footprint(&self, master: MasterId) -> Option<BackupFootprint> {
        let replicas = self.replicas.lock();
        let replica = replicas.get(&master)?;
        let (objects, dead) = replica.store.export();
        let state_bytes = objects
            .iter()
            .map(|(k, o)| (k.len() + curp_proto::wire::Encode::encoded_len(o)) as u64)
            .sum::<u64>()
            + dead.iter().map(|(k, _)| (k.len() + 8) as u64).sum::<u64>();
        let (mut aof_bytes, mut checkpoint_bytes) = (0, 0);
        if let Some(dir) = &self.dir {
            let len = |p: PathBuf| std::fs::metadata(p).map(|m| m.len()).unwrap_or(0);
            aof_bytes = len(aof_path(dir, master));
            checkpoint_bytes = len(snap_path(dir, master));
            for shard in 0..replica.coverage.len() {
                checkpoint_bytes += len(ckpt_path(dir, master, shard));
            }
        }
        Some(BackupFootprint { aof_bytes, checkpoint_bytes, state_bytes })
    }

    /// Raises the fencing epoch for `master` (coordinator, pre-recovery §4.7).
    ///
    /// On a durable service the fence is persisted before returning: it must
    /// keep rejecting the zombie across this backup's own restart, or a
    /// crash between the coordinator's fence and the recovery install
    /// re-admits the deposed master's syncs. If the fence cannot be
    /// persisted the replica wedges (fail-stop), same as a failed append —
    /// it may not acknowledge anything whose rejection it cannot guarantee.
    pub fn set_epoch(&self, master: MasterId, epoch: Epoch) {
        let mut replicas = self.replicas.lock();
        let Ok(replica) =
            Self::replica_entry(self.dir.as_deref(), &self.store_cfg, &mut replicas, master, epoch)
        else {
            // The AOF could not even be opened: syncs will fail the same
            // way, so the fence is moot — there is nothing to protect.
            return;
        };
        if epoch >= replica.epoch {
            replica.epoch = epoch;
            if let Some(dir) = &self.dir {
                if persist_fence(dir, master, epoch).is_err() {
                    replica.wedged = true;
                }
            }
        }
    }

    /// Serves the materialized replica as a snapshot (recovery restore).
    ///
    /// A master that crashed before its first sync has no replica yet; the
    /// restore then starts from an empty state (everything it executed lives
    /// only on witnesses), so an absent replica yields the shared empty
    /// snapshot.
    pub fn fetch(&self, master: MasterId) -> (u64, Snapshot) {
        let replicas = self.replicas.lock();
        match replicas.get(&master) {
            Some(r) => (r.next_seq, r.snapshot()),
            None => (0, empty_snapshot().clone()),
        }
    }

    /// Replaces (or creates) the replica for `master` from a snapshot.
    /// Returns `Ok(false)` for a stale epoch, like [`sync`](Self::sync);
    /// `Err` when a durable service cannot persist the install.
    pub fn install(
        &self,
        master: MasterId,
        epoch: Epoch,
        next_seq: u64,
        snap: &Snapshot,
    ) -> std::io::Result<bool> {
        let mut replicas = self.replicas.lock();
        if let Some(existing) = replicas.get(&master) {
            if epoch < existing.epoch {
                return Ok(false);
            }
        }
        let aof = match &self.dir {
            Some(dir) => Some(Self::persist_install(dir, master, epoch, next_seq, snap)?),
            None => None,
        };
        let store = self.store_cfg.build_import(snap.objects.clone(), snap.dead_versions.clone());
        let rifl = RiflTable::import(snap.rifl.clone());
        replicas.insert(
            master,
            Replica::from_parts(store, rifl, next_seq, epoch, aof, (epoch, next_seq)),
        );
        Ok(true)
    }

    /// Persists an installed snapshot: header (epoch, next_seq) + blob,
    /// atomically replacing the `.snap` file — then any shard checkpoints
    /// (stale: they overlaid the previous base) are deleted and the AOF is
    /// emptied (subsequent syncs continue from `next_seq`), before the one
    /// directory fsync that makes the rename and the AOF's entry durable.
    /// Returns the emptied AOF, open for appending. Crash between the
    /// rename and the cleanup leaves stale AOF entries below `next_seq`,
    /// which [`BackupService::restore_from_aof`] skips, and stale
    /// checkpoints, which it ignores by their base mismatch.
    fn persist_install(
        dir: &Path,
        master: MasterId,
        epoch: Epoch,
        next_seq: u64,
        snap: &Snapshot,
    ) -> std::io::Result<Aof> {
        atomic_replace_then(
            &snap_path(dir, master),
            &[&epoch.0.to_le_bytes(), &next_seq.to_le_bytes(), &snap.to_blob()],
            || {
                Self::remove_ckpts(dir, master)?;
                Aof::reset(&aof_path(dir, master))
            },
        )
    }

    /// Deletes every `master-N.ckpt*` file — whatever shard layout wrote
    /// them (the count on disk may predate this service's config).
    fn remove_ckpts(dir: &Path, master: MasterId) -> std::io::Result<()> {
        let prefix = format!("master-{}.ckpt", master.0);
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            if entry.file_name().to_string_lossy().starts_with(&prefix) {
                std::fs::remove_file(entry.path())?;
            }
        }
        Ok(())
    }

    /// Rebuilds the replica for `master` from its on-disk state — the
    /// persisted snapshot (if any), the surviving shard checkpoints, and
    /// the AOF suffix — replaying uncovered entries in order and verifying
    /// deterministic results where the whole op is replayed. Returns the
    /// restored `next_seq`. A torn AOF tail is discarded (it was never
    /// acknowledged: the fsync precedes every ack); a seq gap or mid-log
    /// corruption is an error — including the gap left when a checkpoint
    /// the rewrite trusted has since been lost or corrupted.
    pub fn restore_from_aof(&self, master: MasterId) -> std::io::Result<u64> {
        let dir = self
            .dir
            .clone()
            .ok_or_else(|| corrupt("restore_from_aof on a memory-only service".into()))?;
        let (base_snap, snap_epoch) = match std::fs::read(snap_path(&dir, master)) {
            Ok(raw) => Self::parse_snap(&raw)?,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                (empty_snapshot().clone(), Epoch(0))
            }
            Err(e) => return Err(e),
        };
        let base = (snap_epoch, base_snap.next_seq);
        // The sidecar fence may be ahead of the snapshot epoch (set_epoch
        // between installs); the replica restores at the higher of the two.
        let epoch = snap_epoch.max(load_fence(&dir, master)?);

        // Overlay each surviving shard checkpoint: it replaces that
        // shard's slice of the base state wholesale and raises the
        // shard's coverage. Unreadable files, other bases, and other
        // shard layouts are skipped — if the AOF was rewritten past a
        // checkpoint that is now unusable, the gap check below fails
        // loudly rather than silently resurrecting older state.
        let shards = self.store_cfg.shards;
        let mut coverage = vec![base.1; shards];
        let (mut objects, mut dead_versions) = (base_snap.objects, base_snap.dead_versions);
        let mut rifl_export = base_snap.rifl;
        let mut rifl_cov = base.1;
        let mut ckpts = Vec::new();
        for shard in 0..shards {
            let raw = match std::fs::read(ckpt_path(&dir, master, shard)) {
                Ok(raw) => raw,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
                Err(e) => return Err(e),
            };
            let Ok(ckpt) = Self::parse_ckpt(&raw) else { continue };
            if ckpt.base != base
                || ckpt.shard_count != shards
                || ckpt.shard != shard
                || ckpt.snap.next_seq < base.1
            {
                continue;
            }
            ckpts.push(ckpt);
        }
        if !ckpts.is_empty() {
            let mut replaced = vec![false; shards];
            for c in &ckpts {
                replaced[c.shard] = true;
            }
            objects.retain(|(k, _)| !replaced[KeyHash::of(k).shard(shards)]);
            dead_versions.retain(|(k, _)| !replaced[KeyHash::of(k).shard(shards)]);
            for mut c in ckpts {
                coverage[c.shard] = c.snap.next_seq;
                if c.snap.next_seq >= rifl_cov {
                    rifl_cov = c.snap.next_seq;
                    rifl_export = c.snap.rifl.clone();
                }
                objects.append(&mut c.snap.objects);
                dead_versions.append(&mut c.snap.dead_versions);
            }
        }

        let store = self.store_cfg.build_import(objects, dead_versions);
        let mut rifl = RiflTable::import(rifl_export);
        // lint: audited-unwrap — num_shards is asserted positive at construction
        let min_cov = *coverage.iter().min().expect("at least one shard");
        // lint: audited-unwrap — same non-empty shard vector as above
        let max_cov = *coverage.iter().max().expect("at least one shard");
        // Opening cuts any torn tail off the file before appending again:
        // new entries written after the leftover bytes would hide behind
        // the tear's stale length prefix and poison the next restart's load.
        let (aof, outcome) = Aof::open(&aof_path(&dir, master))?;
        let mut next_seq = min_cov;
        for e in &outcome.records {
            if e.seq < next_seq {
                continue; // covered by a checkpoint, or pre-install remnant
            }
            if e.seq > next_seq {
                return Err(corrupt(format!(
                    "gap in AOF for {master:?}: expected seq {next_seq}, found {}",
                    e.seq
                )));
            }
            match replay_plan(&e.op, |k| coverage[KeyHash::of(k).shard(shards)] > e.seq) {
                Replay::Covered => {}
                Replay::Full => {
                    let result = exec_synced(store.as_ref(), &e.op);
                    if result != e.result {
                        // A hard error, not an assert: a replica whose
                        // replay diverges from what was acknowledged would
                        // hand clients exactly-once answers that no longer
                        // match its state.
                        return Err(corrupt(format!(
                            "nondeterministic replay of entry {}: got {result:?}, logged {:?}",
                            e.seq, e.result
                        )));
                    }
                }
                Replay::Partial(sub) => {
                    let _ = exec_synced(store.as_ref(), &sub);
                }
            }
            if let Some(id) = e.rpc_id {
                // Always the logged result — it is the authoritative one,
                // and a covered or partial replay cannot reproduce it.
                rifl.record(id, e.result.clone());
            }
            next_seq += 1;
        }
        let next_seq = next_seq.max(max_cov);
        let mut replica = Replica::from_parts(store, rifl, next_seq, epoch, Some(aof), base);
        replica.coverage = coverage;
        replica.rewritten = min_cov;
        self.replicas.lock().insert(master, replica);
        Ok(next_seq)
    }

    fn parse_snap(raw: &[u8]) -> std::io::Result<(Snapshot, Epoch)> {
        let mut buf = raw;
        if buf.remaining() < 16 {
            return Err(corrupt("snap file shorter than its header".into()));
        }
        let epoch = Epoch(buf.get_u64_le());
        let next_seq = buf.get_u64_le();
        let mut snap = Snapshot::from_blob(buf).map_err(|e| corrupt(format!("snap blob: {e}")))?;
        // The header's next_seq is what install persisted; it is
        // authoritative over the blob's copy.
        snap.next_seq = next_seq;
        Ok((snap, epoch))
    }

    /// Restores every master whose files survive in the data directory.
    /// Returns the restored ids (sorted). No-op on a memory-only service.
    ///
    /// First sweeps every stranded install tmp (`.snap`, `.fence`,
    /// `.ckptN` or AOF rewrite) a crash between its creation and its
    /// rename left behind: the rename is the commit point, so a tmp is
    /// dead bytes.
    pub fn restore_all_from_disk(&self) -> std::io::Result<Vec<MasterId>> {
        let Some(dir) = self.dir.clone() else { return Ok(Vec::new()) };
        sweep_tmps(&dir)?;
        let mut ids = std::collections::BTreeSet::new();
        for entry in std::fs::read_dir(&dir)? {
            let name = entry?.file_name();
            let name = name.to_string_lossy();
            let Some(rest) = name.strip_prefix("master-") else { continue };
            if let Some(id) = rest
                .strip_suffix(".aof")
                .or_else(|| rest.strip_suffix(".snap"))
                .or_else(|| rest.strip_suffix(".fence"))
                .or_else(|| rest.split_once(".ckpt").map(|(id, _)| id))
            {
                if let Ok(n) = id.parse::<u64>() {
                    ids.insert(MasterId(n));
                }
            }
        }
        for &m in &ids {
            self.restore_from_aof(m)?;
        }
        Ok(ids.into_iter().collect())
    }

    /// Executes a read-only op against the replica (possibly stale — callers
    /// must have passed the §A.1 witness probe first).
    pub fn read(&self, master: MasterId, op: &Op) -> Option<OpResult> {
        if !op.is_read_only() {
            return None;
        }
        let replicas = self.replicas.lock();
        let replica = replicas.get(&master)?;
        Some(exec_synced(replica.store.as_ref(), op))
    }

    /// Drops the replica state for `master` (post-recovery cleanup),
    /// shrinking its on-disk footprint to a tombstone on a durable service.
    /// Only safe once the successor master's install is durable everywhere
    /// — the coordinator calls this after every backup acknowledged the
    /// `BackupInstall`.
    ///
    /// The map entry survives as a *fencing tombstone*: the epoch keeps
    /// rejecting the dead incarnation's zombie syncs (§4.7), which must
    /// outlive the data — including across this backup's own restart, so on
    /// a durable service the tombstone is persisted as an empty snapshot
    /// carrying the epoch (the AOF and checkpoints are deleted). Master
    /// ids are never reissued, so no legitimate sync ever targets the
    /// tombstone.
    pub fn drop_replica(&self, master: MasterId) {
        let mut replicas = self.replicas.lock();
        let Some(r) = replicas.get_mut(&master) else { return };
        let epoch = r.epoch;
        *r = Replica::new(&self.store_cfg, epoch, None); // closes the AOF handle
        if let Some(dir) = &self.dir {
            // Persist the fence (empty snapshot + epoch; persist_install
            // also truncates the AOF and deletes the checkpoints), then
            // delete the AOF file. Best effort beyond the fence: if the
            // tombstone cannot be written, keep the old files — stale data
            // is recoverable garbage, a lost fence is a zombie hole.
            if Self::persist_install(dir, master, epoch, 0, empty_snapshot()).is_ok() {
                let _ = std::fs::remove_file(aof_path(dir, master));
                // The tombstone snapshot now carries the epoch; the sidecar
                // fence (always <= the in-memory epoch) is redundant.
                let _ = std::fs::remove_file(fence_path(dir, master));
                let _ = fsync_dir(dir);
            }
        }
    }

    /// Next expected sequence number, if the replica exists (diagnostics).
    pub fn next_seq(&self, master: MasterId) -> Option<u64> {
        self.replicas.lock().get(&master).map(|r| r.next_seq)
    }

    /// Dispatches a backup-directed [`Request`].
    pub fn handle_request(&self, req: &Request) -> Response {
        match req {
            Request::BackupSync { master_id, epoch, entries } => {
                match self.sync(*master_id, *epoch, entries) {
                    SyncOutcome::Applied { next_seq } => {
                        Response::BackupSynced { accepted: true, next_seq }
                    }
                    SyncOutcome::Fenced { next_seq } => {
                        Response::BackupSynced { accepted: false, next_seq }
                    }
                    // Not a fencing verdict: the master retries, and a
                    // wedged backup stays unavailable until cold restart.
                    SyncOutcome::PersistFailed { error } => {
                        Response::Retry { reason: format!("backup persist failed: {error}") }
                    }
                }
            }
            Request::BackupFetch { master_id } => {
                let (next_seq, snap) = self.fetch(*master_id);
                Response::BackupData { next_seq, snapshot: snap.to_blob() }
            }
            Request::BackupInstall { master_id, epoch, next_seq, snapshot } => {
                match Snapshot::from_blob(snapshot) {
                    Ok(snap) => match self.install(*master_id, *epoch, *next_seq, &snap) {
                        Ok(true) => Response::BackupInstalled,
                        Ok(false) => Response::Retry { reason: "stale install epoch".into() },
                        Err(e) => {
                            Response::Retry { reason: format!("install persist failed: {e}") }
                        }
                    },
                    Err(e) => Response::Retry { reason: format!("bad snapshot: {e}") },
                }
            }
            Request::BackupRead { master_id, op } => match self.read(*master_id, op) {
                Some(result) => Response::BackupValue { result },
                None => Response::Retry { reason: "no replica or not a read".into() },
            },
            Request::BackupSetEpoch { master_id, epoch } => {
                self.set_epoch(*master_id, *epoch);
                Response::EpochSet
            }
            _ => Response::Retry { reason: "not a backup request".into() },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use curp_proto::types::{ClientId, RpcId};
    use curp_storage::TempDir;

    const M: MasterId = MasterId(1);

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    fn entry(seq: u64, key: &str, val: &str, version: u64) -> LogEntry {
        LogEntry {
            seq,
            rpc_id: Some(RpcId::new(ClientId(1), seq + 1)),
            op: Op::Put { key: b(key), value: b(val) },
            result: OpResult::Written { version },
        }
    }

    /// Legacy-shaped wrapper so the pre-`SyncOutcome` assertions read
    /// unchanged: `(accepted, next_seq)`.
    fn sync2(bs: &BackupService, m: MasterId, e: Epoch, entries: &[LogEntry]) -> (bool, u64) {
        match bs.sync(m, e, entries) {
            SyncOutcome::Applied { next_seq } => (true, next_seq),
            SyncOutcome::Fenced { next_seq } => (false, next_seq),
            SyncOutcome::PersistFailed { error } => panic!("unexpected persist failure: {error}"),
        }
    }

    #[test]
    fn applies_ordered_entries() {
        let bs = BackupService::new();
        let (ok, next) = sync2(&bs, M, Epoch(0), &[entry(0, "a", "1", 1), entry(1, "b", "2", 1)]);
        assert!(ok);
        assert_eq!(next, 2);
        assert_eq!(bs.read(M, &Op::Get { key: b("a") }), Some(OpResult::Value(Some(b("1")))));
    }

    #[test]
    fn duplicate_entries_are_idempotent() {
        let bs = BackupService::new();
        sync2(&bs, M, Epoch(0), &[entry(0, "a", "1", 1)]);
        // Re-send of the same batch plus one new entry.
        let (ok, next) = sync2(&bs, M, Epoch(0), &[entry(0, "a", "1", 1), entry(1, "a", "2", 2)]);
        assert!(ok);
        assert_eq!(next, 2);
        assert_eq!(bs.read(M, &Op::Get { key: b("a") }), Some(OpResult::Value(Some(b("2")))));
    }

    #[test]
    fn out_of_order_entries_are_buffered_until_contiguous() {
        let bs = BackupService::new();
        let (ok, next) = sync2(&bs, M, Epoch(0), &[entry(1, "a", "2", 2)]);
        assert!(ok, "future entry is buffered, not refused");
        assert_eq!(next, 0, "nothing applied yet");
        // Reads do not see buffered entries.
        assert_eq!(bs.read(M, &Op::Get { key: b("a") }), Some(OpResult::Value(None)));
        let (ok, next) = sync2(&bs, M, Epoch(0), &[entry(0, "a", "1", 1)]);
        assert!(ok);
        assert_eq!(next, 2, "gap filled; both applied in order");
        assert_eq!(bs.read(M, &Op::Get { key: b("a") }), Some(OpResult::Value(Some(b("2")))));
    }

    #[test]
    fn zombie_epoch_fenced() {
        let bs = BackupService::new();
        sync2(&bs, M, Epoch(1), &[entry(0, "a", "1", 1)]);
        bs.set_epoch(M, Epoch(2));
        let (ok, _) = sync2(&bs, M, Epoch(1), &[entry(1, "a", "2", 2)]);
        assert!(!ok, "stale-epoch sync must be rejected");
        // The new epoch's syncs are fine.
        let (ok, _) = sync2(&bs, M, Epoch(2), &[entry(1, "a", "2", 2)]);
        assert!(ok);
    }

    #[test]
    fn epoch_never_lowers() {
        let bs = BackupService::new();
        bs.set_epoch(M, Epoch(5));
        bs.set_epoch(M, Epoch(3));
        let (ok, _) = sync2(&bs, M, Epoch(4), &[]);
        assert!(!ok);
    }

    #[test]
    fn fetch_of_unknown_master_is_empty() {
        let bs = BackupService::new();
        let (next, snap) = bs.fetch(MasterId(42));
        assert_eq!(next, 0);
        assert!(snap.objects.is_empty());
    }

    #[test]
    fn fetch_install_roundtrip() {
        let bs = BackupService::new();
        sync2(&bs, M, Epoch(0), &[entry(0, "a", "1", 1), entry(1, "b", "2", 1)]);
        let (next, snap) = bs.fetch(M);
        assert_eq!(next, 2);

        let target = BackupService::new();
        assert!(target.install(MasterId(2), Epoch(1), next, &snap).unwrap());
        assert_eq!(
            target.read(MasterId(2), &Op::Get { key: b("b") }),
            Some(OpResult::Value(Some(b("2"))))
        );
        // RIFL records travel with the snapshot.
        let replicas = target.replicas.lock();
        assert_eq!(replicas.get(&MasterId(2)).unwrap().rifl.record_count(), 2);
    }

    #[test]
    fn install_rejects_stale_epoch() {
        let bs = BackupService::new();
        bs.set_epoch(M, Epoch(5));
        let snap = Snapshot::from_parts(Default::default(), RiflTable::new().export(), 0);
        assert!(!bs.install(M, Epoch(4), 0, &snap).unwrap());
        assert!(bs.install(M, Epoch(5), 0, &snap).unwrap());
    }

    #[test]
    fn read_rejects_mutations() {
        let bs = BackupService::new();
        sync2(&bs, M, Epoch(0), &[entry(0, "a", "1", 1)]);
        assert_eq!(bs.read(M, &Op::Put { key: b("a"), value: b("2") }), None);
    }

    #[test]
    fn rifl_records_accumulate() {
        let bs = BackupService::new();
        sync2(&bs, M, Epoch(0), &[entry(0, "a", "1", 1), entry(1, "b", "1", 1)]);
        let replicas = bs.replicas.lock();
        assert_eq!(replicas.get(&M).unwrap().rifl.record_count(), 2);
    }

    #[test]
    fn rpc_dispatch() {
        let bs = BackupService::new();
        let rsp = bs.handle_request(&Request::BackupSync {
            master_id: M,
            epoch: Epoch(0),
            entries: vec![entry(0, "a", "1", 1)],
        });
        assert_eq!(rsp, Response::BackupSynced { accepted: true, next_seq: 1 });
        match bs.handle_request(&Request::BackupFetch { master_id: M }) {
            Response::BackupData { next_seq, snapshot } => {
                assert_eq!(next_seq, 1);
                assert!(Snapshot::from_blob(&snapshot).is_ok());
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(
            bs.handle_request(&Request::BackupRead { master_id: M, op: Op::Get { key: b("a") } }),
            Response::BackupValue { result: OpResult::Value(Some(b("1"))) }
        );
        assert_eq!(
            bs.handle_request(&Request::BackupSetEpoch { master_id: M, epoch: Epoch(9) }),
            Response::EpochSet
        );
        assert!(matches!(bs.handle_request(&Request::GetConfig), Response::Retry { .. }));
    }

    #[test]
    fn compact_bounds_the_aof_and_survives_restart() {
        let tmp = TempDir::new("backup-compact").unwrap();
        let val = "v".repeat(64);
        let entries: Vec<LogEntry> =
            (0..200).map(|i| entry(i, &format!("k{}", i % 10), &val, i / 10 + 1)).collect();
        {
            let bs = BackupService::durable_with(tmp.path(), StoreConfig::memory(4)).unwrap();
            sync2(&bs, M, Epoch(0), &entries);
            let before = bs.footprint(M).unwrap();
            bs.compact(M).unwrap();
            let after = bs.footprint(M).unwrap();
            assert!(
                after.aof_bytes < before.aof_bytes,
                "compaction must shrink the log ({} -> {})",
                before.aof_bytes,
                after.aof_bytes
            );
            // 200 overwrites of 10 keys: the log is bounded by live state,
            // not op count.
            assert!(after.aof_bytes <= 2 * after.state_bytes.max(1));
        }
        let bs = BackupService::durable_with(tmp.path(), StoreConfig::memory(4)).unwrap();
        assert_eq!(bs.next_seq(M), Some(200));
        assert_eq!(bs.read(M, &Op::Get { key: b("k9") }), Some(OpResult::Value(Some(b(&val)))));
    }

    #[test]
    fn restart_replays_checkpoints_plus_aof_suffix() {
        let tmp = TempDir::new("backup-ckpt-suffix").unwrap();
        {
            let bs = BackupService::durable_with(tmp.path(), StoreConfig::memory(4)).unwrap();
            let old: Vec<LogEntry> =
                (0..50).map(|i| entry(i, &format!("k{i}"), "old", 1)).collect();
            sync2(&bs, M, Epoch(0), &old);
            bs.compact(M).unwrap();
            // Entries after the compaction live only in the AOF suffix.
            let new: Vec<LogEntry> =
                (50..60).map(|i| entry(i, &format!("k{}", i - 50), "new", 2)).collect();
            sync2(&bs, M, Epoch(0), &new);
        }
        let bs = BackupService::durable_with(tmp.path(), StoreConfig::memory(4)).unwrap();
        assert_eq!(bs.next_seq(M), Some(60));
        assert_eq!(bs.read(M, &Op::Get { key: b("k3") }), Some(OpResult::Value(Some(b("new")))));
        assert_eq!(bs.read(M, &Op::Get { key: b("k30") }), Some(OpResult::Value(Some(b("old")))));
        // Exactly-once records survive the checkpointed restart too.
        assert_eq!(bs.replicas.lock().get(&M).unwrap().rifl.record_count(), 60);
    }

    #[test]
    fn corrupt_checkpoint_falls_back_to_the_log_when_it_still_covers() {
        let tmp = TempDir::new("backup-ckpt-corrupt").unwrap();
        {
            let bs = BackupService::durable_with(tmp.path(), StoreConfig::memory(2)).unwrap();
            let ops: Vec<LogEntry> = (0..20).map(|i| entry(i, &format!("k{i}"), "v", 1)).collect();
            sync2(&bs, M, Epoch(0), &ops);
            // Checkpoints exist but the AOF has NOT been rewritten (no
            // maintenance tick ran): scribble over one checkpoint.
            let replicas = bs.replicas.lock();
            let replica = replicas.get(&M).unwrap();
            for shard in 0..2 {
                BackupService::checkpoint_shard(tmp.path(), replica, M, shard).unwrap();
            }
            drop(replicas);
            std::fs::write(ckpt_path(tmp.path(), M, 0), b"garbage").unwrap();
        }
        let bs = BackupService::durable_with(tmp.path(), StoreConfig::memory(2)).unwrap();
        assert_eq!(bs.next_seq(M), Some(20), "full log replay covers the lost checkpoint");
        assert_eq!(bs.read(M, &Op::Get { key: b("k7") }), Some(OpResult::Value(Some(b("v")))));
    }

    #[test]
    fn install_invalidates_prior_checkpoints() {
        let tmp = TempDir::new("backup-install-ckpt").unwrap();
        let bs = BackupService::durable_with(tmp.path(), StoreConfig::memory(2)).unwrap();
        let ops: Vec<LogEntry> = (0..10).map(|i| entry(i, &format!("k{i}"), "v", 1)).collect();
        sync2(&bs, M, Epoch(0), &ops);
        bs.compact(M).unwrap();
        assert!(ckpt_path(tmp.path(), M, 0).exists());
        let snap = Snapshot::from_parts((Vec::new(), Vec::new()), RiflTable::new().export(), 0);
        assert!(bs.install(M, Epoch(1), 0, &snap).unwrap());
        assert!(!ckpt_path(tmp.path(), M, 0).exists(), "install deletes stale checkpoints");
        assert_eq!(bs.read(M, &Op::Get { key: b("k3") }), Some(OpResult::Value(None)));
    }
}
