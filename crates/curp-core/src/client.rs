//! The CURP client (§3.2.1).
//!
//! The 1-RTT fast path: for each update, the client sends the update RPC to
//! the master *and* record RPCs to all `f` witnesses in parallel. It
//! completes the operation when
//!
//! * the master responded `synced` (the master already replicated — 2 RTT
//!   total, no client sync needed, §3.2.3), or
//! * the master responded speculatively *and* every witness accepted (1 RTT).
//!
//! Otherwise it falls back to an explicit `sync` RPC (2–3 RTT), and if that
//! fails it restarts the whole operation — re-fetching the configuration in
//! case the master crashed and was recovered elsewhere. Retries reuse the
//! same RIFL id so re-executions are filtered.
//!
//! [`PipelinedClient`] layers a windowed, batching mode on top: up to a
//! configured number of operations stay in flight per partition, flushed as
//! `Batch` frames and resolved through [`Completion`] futures keyed by RIFL
//! id, with routing by [`ClusterConfig::partition_for`] so one handle drives
//! every master of a partitioned cluster concurrently.

use std::collections::HashMap;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::task::{Context, Poll};
use std::time::Duration;

use curp_proto::cluster::{ClusterConfig, PartitionConfig};
use curp_proto::footprint::Footprint;
use curp_proto::lockrank;
use curp_proto::message::{RecordedRequest, Request, Response};
use curp_proto::op::{Op, OpResult};
use curp_proto::types::{MasterId, RpcId, ServerId};
use curp_rifl::RiflSequencer;
use curp_transport::rpc::RpcClient;
use parking_lot::Mutex;
use tokio::sync::{mpsc, oneshot, OwnedSemaphorePermit, Semaphore};

use crate::master::futures_join_all;

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    /// Retries exhausted; carries the last failure description.
    Exhausted(String),
    /// A multi-key operation spanned more than one partition (not routable).
    MultiPartition,
    /// No partition owns the key (mis-configured cluster).
    NoPartition,
    /// The coordinator could not be reached.
    Coordinator(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Exhausted(s) => write!(f, "retries exhausted: {s}"),
            ClientError::MultiPartition => write!(f, "operation spans partitions"),
            ClientError::NoPartition => write!(f, "no partition owns the key"),
            ClientError::Coordinator(s) => write!(f, "coordinator error: {s}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// Client tuning.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Whether to record updates on witnesses (`false` reproduces the
    /// paper's *Async* baseline: masters respond before replication and the
    /// client completes without any durability — Figure 6's "Async (f=3)").
    pub record_witnesses: bool,
    /// Attempts before giving up on an operation.
    pub max_retries: u32,
    /// Base backoff between retries; attempt `n` waits roughly
    /// `retry_backoff * 2^(n-1)`, jittered, capped at `retry_backoff_max`.
    pub retry_backoff: Duration,
    /// Ceiling on the exponential backoff. A draining or recovering master
    /// can be unavailable for many base intervals; without the exponential
    /// ramp every parked client re-sends in lockstep and hammers it the
    /// moment it returns.
    pub retry_backoff_max: Duration,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            record_witnesses: true,
            max_retries: 25,
            retry_backoff: Duration::from_millis(10),
            retry_backoff_max: Duration::from_millis(160),
        }
    }
}

/// Bounded exponential backoff for retry `attempt` (1-based), with
/// deterministic jitter in `[b/2, b]` derived from `salt` — callers pass a
/// per-operation value (e.g. the RIFL id) so concurrent clients de-sync
/// without OS randomness, which would break simulator determinism.
fn retry_delay(base: Duration, max: Duration, attempt: u32, salt: u64) -> Duration {
    let b = base.saturating_mul(1u32 << (attempt - 1).min(16)).min(max).max(base);
    // splitmix64 finalizer over (salt, attempt): cheap, well-mixed bits.
    let mut z = salt ^ (u64::from(attempt)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    let half = b / 2;
    half + Duration::from_nanos(z % (half.as_nanos().max(1) as u64))
}

/// Path counters (tests, figures).
#[derive(Debug, Default)]
pub struct ClientStats {
    /// Operations completed on the 1-RTT fast path.
    pub fast_path: AtomicU64,
    /// Operations completed because the master synced (2 RTT, no client sync).
    pub synced_by_master: AtomicU64,
    /// Operations completed by a successful explicit sync RPC (2–3 RTT).
    pub explicit_sync: AtomicU64,
    /// Full operation restarts.
    pub restarts: AtomicU64,
}

struct ClientState {
    config: ClusterConfig,
    rifl: RiflSequencer,
}

/// A CURP client handle. Cheap to share via `Arc`; all methods take `&self`.
pub struct CurpClient {
    rpc: Arc<dyn RpcClient>,
    coordinator: ServerId,
    cfg: ClientConfig,
    state: Mutex<ClientState>,
    /// Path statistics.
    pub stats: ClientStats,
}

impl CurpClient {
    /// Connects: acquires a RIFL lease and fetches the cluster configuration.
    pub async fn connect(
        rpc: Arc<dyn RpcClient>,
        coordinator: ServerId,
        cfg: ClientConfig,
    ) -> Result<CurpClient, ClientError> {
        let lease = match rpc.call(coordinator, Request::AcquireLease).await {
            Ok(Response::Lease { client, .. }) => client,
            other => return Err(ClientError::Coordinator(format!("{other:?}"))),
        };
        let config = match rpc.call(coordinator, Request::GetConfig).await {
            Ok(Response::Config { config }) => config,
            other => return Err(ClientError::Coordinator(format!("{other:?}"))),
        };
        Ok(CurpClient {
            rpc,
            coordinator,
            cfg,
            state: Mutex::ranked(
                lockrank::CLIENT_STATE,
                "core.client.state",
                ClientState { config, rifl: RiflSequencer::new(lease) },
            ),
            stats: ClientStats::default(),
        })
    }

    /// Re-fetches the cluster configuration from the coordinator.
    pub async fn refresh_config(&self) -> Result<(), ClientError> {
        match self.rpc.call(self.coordinator, Request::GetConfig).await {
            Ok(Response::Config { config }) => {
                let mut st = self.state.lock();
                if config.version >= st.config.version {
                    st.config = config;
                }
                Ok(())
            }
            other => Err(ClientError::Coordinator(format!("{other:?}"))),
        }
    }

    /// Renews the client's RIFL lease.
    pub async fn renew_lease(&self) -> Result<(), ClientError> {
        let client = self.state.lock().rifl.client_id();
        match self.rpc.call(self.coordinator, Request::RenewLease { client }).await {
            Ok(Response::Lease { .. }) => Ok(()),
            other => Err(ClientError::Coordinator(format!("{other:?}"))),
        }
    }

    /// Routes an operation by its (precomputed) footprint — the same
    /// hashes later recorded on witnesses, computed once per RPC.
    fn route(&self, footprint: &Footprint) -> Result<PartitionConfig, ClientError> {
        let st = self.state.lock();
        let first = *footprint.first().ok_or(ClientError::NoPartition)?;
        let part = st.config.partition_for(first).ok_or(ClientError::NoPartition)?.clone();
        if !footprint.iter().all(|&h| part.range.contains(h)) {
            return Err(ClientError::MultiPartition);
        }
        Ok(part)
    }

    /// Executes a mutation with CURP's fast path. Linearizable: the result
    /// is durable (f-fault-tolerant) when this returns.
    pub async fn update(&self, op: Op) -> Result<OpResult, ClientError> {
        let rpc_id = self.state.lock().rifl.next_rpc_id();
        self.update_with_id(rpc_id, op).await
    }

    /// The full retry loop for one mutation under an already-assigned RIFL
    /// id (re-used by [`PipelinedClient`] when a batched attempt needs a
    /// per-op restart; re-executions are filtered by the id).
    async fn update_with_id(&self, rpc_id: RpcId, op: Op) -> Result<OpResult, ClientError> {
        let footprint = op.key_hashes();
        let mut last_err = String::new();
        for attempt in 0..self.cfg.max_retries {
            if attempt > 0 {
                self.stats.restarts.fetch_add(1, Ordering::Relaxed);
                tokio::time::sleep(retry_delay(
                    self.cfg.retry_backoff,
                    self.cfg.retry_backoff_max,
                    attempt,
                    rpc_id.client.0.rotate_left(32) ^ rpc_id.seq,
                ))
                .await;
            }
            let part = match self.route(&footprint) {
                Ok(p) => p,
                Err(ClientError::NoPartition) => {
                    self.refresh_config().await.ok();
                    last_err = "no partition".into();
                    continue;
                }
                Err(e) => return Err(e),
            };
            match self.try_once(&part, rpc_id, &op, &footprint).await {
                TryOutcome::Done(result) => {
                    self.state.lock().rifl.complete(rpc_id);
                    return Ok(result);
                }
                TryOutcome::RefreshAndRetry(err) => {
                    last_err = err;
                    self.refresh_config().await.ok();
                }
            }
        }
        Err(ClientError::Exhausted(last_err))
    }

    async fn try_once(
        &self,
        part: &PartitionConfig,
        rpc_id: RpcId,
        op: &Op,
        footprint: &Footprint,
    ) -> TryOutcome {
        let first_incomplete = self.state.lock().rifl.first_incomplete();
        let update_fut = self.rpc.call(
            part.master,
            Request::ClientUpdate {
                rpc_id,
                first_incomplete,
                witness_list_version: part.witness_list_version,
                op: op.clone(),
            },
        );
        // Record RPCs go out in parallel with the update (§3.2.1). The
        // record carries the footprint computed once in `update`.
        let witnesses: Vec<ServerId> =
            if self.cfg.record_witnesses { part.witnesses.clone() } else { Vec::new() };
        let record = RecordedRequest {
            master_id: part.master_id,
            rpc_id,
            key_hashes: footprint.clone(),
            op: op.clone(),
        };
        let record_futs: Vec<_> = witnesses
            .iter()
            .map(|&w| self.rpc.call(w, Request::WitnessRecord { request: record.clone() }))
            .collect();

        let (master_rsp, witness_rsps) = tokio::join!(update_fut, futures_join_all(record_futs));

        let (result, synced) = match master_rsp {
            Ok(Response::Update { result, synced }) => (result, synced),
            Ok(Response::StaleWitnessList { .. }) => {
                return TryOutcome::RefreshAndRetry("stale witness list".into())
            }
            Ok(Response::NotOwner) => return TryOutcome::RefreshAndRetry("not owner".into()),
            Ok(Response::Retry { reason }) => return TryOutcome::RefreshAndRetry(reason),
            Ok(other) => return TryOutcome::RefreshAndRetry(format!("unexpected: {other:?}")),
            Err(e) => return TryOutcome::RefreshAndRetry(format!("master rpc: {e}")),
        };

        let all_accepted = !witnesses.is_empty()
            && witness_rsps.iter().all(|r| matches!(r, Ok(Response::RecordAccepted)));
        if self.resolve(part, synced, all_accepted) == Resolution::Done {
            return TryOutcome::Done(result);
        }
        match self.explicit_sync(part, 1).await {
            Ok(()) => TryOutcome::Done(result),
            // "If there is no response to the sync RPC ... the client
            // restarts the entire process" (§3.2.1).
            Err(reason) => TryOutcome::RefreshAndRetry(reason),
        }
    }

    /// The completion rule (§3.2.1) for the serial and pipelined paths: an
    /// executed update is done if the master synced it (§3.2.3), if the
    /// client runs the *Async* baseline, or if all `f` witnesses accepted
    /// it (trivially when `f = 0`); otherwise it needs an
    /// [`explicit_sync`](Self::explicit_sync). `Done` bumps its path counter.
    fn resolve(&self, part: &PartitionConfig, synced: bool, all_accepted: bool) -> Resolution {
        let counter = if synced {
            &self.stats.synced_by_master
        } else if !self.cfg.record_witnesses || all_accepted || part.fault_tolerance() == 0 {
            &self.stats.fast_path
        } else {
            return Resolution::NeedsSync;
        };
        counter.fetch_add(1, Ordering::Relaxed);
        Resolution::Done
    }

    /// The slow path: makes the master's unsynced prefix durable, completing
    /// (and counting) `ops` updates, or says why it failed. The sync names
    /// the incarnation that executed them, so a recovered successor on the
    /// same server refuses rather than vouch for entries it never held
    /// (DESIGN.md invariant 8).
    async fn explicit_sync(&self, part: &PartitionConfig, ops: u64) -> Result<(), String> {
        match self.rpc.call(part.master, Request::Sync { master_id: part.master_id }).await {
            Ok(Response::SyncDone) => {
                self.stats.explicit_sync.fetch_add(ops, Ordering::Relaxed);
                Ok(())
            }
            Ok(other) => Err(format!("sync refused: {other:?}")),
            Err(e) => Err(format!("sync rpc: {e}")),
        }
    }

    /// Executes a read-only operation at the partition master (1 RTT).
    pub async fn read(&self, op: Op) -> Result<OpResult, ClientError> {
        assert!(op.is_read_only(), "use update() for mutations");
        let footprint = op.key_hashes();
        let mut last_err = String::new();
        let salt = self.state.lock().rifl.client_id().0.rotate_left(32)
            ^ footprint.first().map_or(0, |h| h.0);
        for attempt in 0..self.cfg.max_retries {
            if attempt > 0 {
                tokio::time::sleep(retry_delay(
                    self.cfg.retry_backoff,
                    self.cfg.retry_backoff_max,
                    attempt,
                    salt,
                ))
                .await;
            }
            let part = match self.route(&footprint) {
                Ok(p) => p,
                Err(e) => return Err(e),
            };
            match self.rpc.call(part.master, Request::ClientRead { op: op.clone() }).await {
                Ok(Response::Read { result }) => return Ok(result),
                Ok(Response::NotOwner) => {
                    last_err = "not owner".into();
                    self.refresh_config().await.ok();
                }
                Ok(other) => {
                    last_err = format!("unexpected: {other:?}");
                    self.refresh_config().await.ok();
                }
                Err(e) => {
                    last_err = format!("rpc: {e}");
                    self.refresh_config().await.ok();
                }
            }
        }
        Err(ClientError::Exhausted(last_err))
    }

    /// Consistent read from a backup (§A.1, 0 wide-area RTTs in
    /// geo-replication): probe a witness for commutativity; if the key has
    /// no pending update, read the backup; otherwise fall back to the master.
    ///
    /// `replica` selects which of the partition's backups/witnesses to use
    /// (e.g. the one in the local region).
    pub async fn read_nearby(&self, op: Op, replica: usize) -> Result<OpResult, ClientError> {
        assert!(op.is_read_only(), "use update() for mutations");
        let footprint = op.key_hashes();
        let part = self.route(&footprint)?;
        if part.witnesses.is_empty() || part.backups.is_empty() {
            return self.read(op).await;
        }
        let witness = part.witnesses[replica % part.witnesses.len()];
        let backup = part.backups[replica % part.backups.len()];
        let probe = self
            .rpc
            .call(
                witness,
                Request::WitnessCommuteCheck { master_id: part.master_id, key_hashes: footprint },
            )
            .await;
        match probe {
            Ok(Response::CommuteOk { commutative: true }) => {
                match self
                    .rpc
                    .call(backup, Request::BackupRead { master_id: part.master_id, op: op.clone() })
                    .await
                {
                    Ok(Response::BackupValue { result }) => Ok(result),
                    // Backup unavailable: the master always works.
                    _ => self.read(op).await,
                }
            }
            // A pending update on this key (or a frozen witness): the backup
            // may be stale, read at the master (§A.1).
            _ => self.read(op).await,
        }
    }
}

enum TryOutcome {
    Done(OpResult),
    RefreshAndRetry(String),
}

/// [`CurpClient::resolve`]'s verdict on one update the master executed.
#[derive(PartialEq, Eq)]
enum Resolution {
    Done,
    NeedsSync,
}

// ---- pipelined mode ---------------------------------------------------------

/// Tuning for [`PipelinedClient`].
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Maximum operations in flight per partition. [`PipelinedClient::submit`]
    /// suspends (backpressure) while a partition's window is full.
    pub window: usize,
    /// Maximum operations flushed in one [`Request::Batch`] frame.
    pub max_batch: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig { window: 16, max_batch: 16 }
    }
}

/// A windowed, batching front end over [`CurpClient`].
///
/// The plain client issues one operation per in-flight RPC, so end-to-end
/// throughput is bounded by round trips. `PipelinedClient` keeps up to
/// [`PipelineConfig::window`] operations outstanding *per partition*:
/// [`submit`](Self::submit) routes the operation by its footprint
/// ([`ClusterConfig::partition_for`], so one client instance drives many
/// masters concurrently), waits for a window slot, and returns a
/// [`Completion`] future keyed by the operation's RIFL id. Queued operations
/// bound for the same partition are flushed together as one `Batch` frame —
/// the master update batch and one record batch per witness go out in
/// parallel, each record keeping its own per-op footprint so witness
/// commutativity stays per-op (§3.2.2).
///
/// Per-op outcomes follow the same state machine as [`CurpClient::update`]:
/// master-synced and fast-path completions resolve immediately; ops whose
/// records were rejected share a single explicit sync RPC per flush.
/// Refused ops (`NotOwner` after a partition split, stale witness list,
/// sealed master) refresh the map once and re-enter the pipeline on their
/// new owner's pipe — up to `MAX_REDIRECTS` times, after which (or on
/// transport errors) they fall back to the one-op retry loop under their
/// original RIFL id. The redirect keeps a live split invisible to the
/// caller: throughput for the moved range recovers to pipelined rates as
/// soon as the refreshed map lands, instead of degrading to serial retries
/// for the rest of the client's lifetime.
///
/// Operations inside the window are **concurrent**: CURP's guarantees apply
/// per operation, and two pipelined ops may execute in either order. A
/// caller that needs happens-before between two updates must await the first
/// [`Completion`] before submitting the second.
pub struct PipelinedClient {
    inner: Arc<CurpClient>,
    cfg: PipelineConfig,
    pipes: Mutex<HashMap<MasterId, Pipe>>,
    /// Handed to flushers so refused ops can re-enter the pipeline on
    /// another master's pipe; weak, so dropping the client still shuts the
    /// flushers down.
    self_weak: Weak<PipelinedClient>,
}

/// Times a refused op may hop between pipes before degrading to the serial
/// retry loop (guards against a stale map ping-ponging an op forever).
const MAX_REDIRECTS: u32 = 3;

struct Pipe {
    queue: mpsc::UnboundedSender<PendingOp>,
    window: Arc<Semaphore>,
}

/// One submitted-but-unresolved operation, owned by its partition's flusher.
struct PendingOp {
    rpc_id: RpcId,
    op: Op,
    footprint: Footprint,
    /// Window slot; dropping it (on completion) re-opens the window.
    /// A redirected op keeps the permit of the pipe it was submitted on, so
    /// total in-flight operations stay bounded across a migration.
    permit: OwnedSemaphorePermit,
    done: oneshot::Sender<Result<OpResult, ClientError>>,
    /// How many times this op has been re-routed to a different pipe.
    redirects: u32,
}

/// Completion future for a pipelined operation, keyed by its RIFL id.
pub struct Completion {
    rpc_id: RpcId,
    rx: oneshot::Receiver<Result<OpResult, ClientError>>,
}

impl Completion {
    /// The RIFL id assigned to this operation at submission.
    pub fn rpc_id(&self) -> RpcId {
        self.rpc_id
    }
}

impl Future for Completion {
    type Output = Result<OpResult, ClientError>;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        Pin::new(&mut self.rx).poll(cx).map(|r| match r {
            Ok(result) => result,
            Err(_) => Err(ClientError::Exhausted("pipeline dropped before completion".into())),
        })
    }
}

impl PipelinedClient {
    /// Wraps a connected client in a pipelined front end.
    pub fn new(inner: Arc<CurpClient>, cfg: PipelineConfig) -> Arc<PipelinedClient> {
        assert!(cfg.window > 0 && cfg.max_batch > 0);
        Arc::new_cyclic(|self_weak| PipelinedClient {
            inner,
            cfg,
            pipes: Mutex::ranked(lockrank::CLIENT_PIPES, "core.client.pipes", HashMap::new()),
            self_weak: self_weak.clone(),
        })
    }

    /// The wrapped client (shared configuration, stats and RIFL lease).
    pub fn inner(&self) -> &Arc<CurpClient> {
        &self.inner
    }

    /// Enqueues an operation (mutation or read) on its partition's pipeline.
    ///
    /// Suspends while the partition's window is full — this is the
    /// backpressure that keeps an open-loop generator from queueing without
    /// bound — and resolves to a [`Completion`] future once a slot is held.
    pub async fn submit(&self, op: Op) -> Result<Completion, ClientError> {
        let footprint = op.key_hashes();
        let part = match self.inner.route(&footprint) {
            Ok(p) => p,
            Err(ClientError::NoPartition) => {
                self.inner.refresh_config().await?;
                self.inner.route(&footprint)?
            }
            Err(e) => return Err(e),
        };
        let (window, queue) = self.pipe_for(&part);
        let permit = window
            .acquire_owned()
            .await
            .map_err(|_| ClientError::Exhausted("pipeline window closed".into()))?;
        let rpc_id = self.inner.state.lock().rifl.next_rpc_id();
        let (done, rx) = oneshot::channel();
        if queue.send(PendingOp { rpc_id, op, footprint, permit, done, redirects: 0 }).is_err() {
            return Err(ClientError::Exhausted("pipeline flusher gone".into()));
        }
        Ok(Completion { rpc_id, rx })
    }

    /// Submits and awaits one operation (convenience; no pipelining benefit
    /// unless other submissions are in flight).
    pub async fn update(&self, op: Op) -> Result<OpResult, ClientError> {
        self.submit(op).await?.await
    }

    /// Returns (creating on first use) the pipe for `part`'s master.
    ///
    /// A partition that moves to a new master incarnation simply gets a new
    /// pipe; the old flusher drains its queue and then idles harmlessly
    /// until the client is dropped.
    fn pipe_for(
        &self,
        part: &PartitionConfig,
    ) -> (Arc<Semaphore>, mpsc::UnboundedSender<PendingOp>) {
        let mut pipes = self.pipes.lock();
        let pipe = pipes.entry(part.master_id).or_insert_with(|| {
            let window = Arc::new(Semaphore::new(self.cfg.window));
            let (tx, rx) = mpsc::unbounded_channel();
            tokio::spawn(run_pipe(
                Arc::clone(&self.inner),
                self.self_weak.clone(),
                part.master_id,
                self.cfg.max_batch,
                rx,
            ));
            Pipe { queue: tx, window }
        });
        (Arc::clone(&pipe.window), pipe.queue.clone())
    }
}

/// Per-partition flusher: drains the queue into batches of at most
/// `max_batch` ops and spawns one flush per batch. Flushes overlap — the
/// pipe keeps draining while earlier batches' RPCs are in flight; the
/// window semaphore is what bounds total outstanding operations. Exits when
/// the owning [`PipelinedClient`] is dropped.
async fn run_pipe(
    inner: Arc<CurpClient>,
    pipeline: Weak<PipelinedClient>,
    master_id: MasterId,
    max_batch: usize,
    mut rx: mpsc::UnboundedReceiver<PendingOp>,
) {
    while let Some(first) = rx.recv().await {
        let mut batch = vec![first];
        while batch.len() < max_batch {
            match rx.try_recv() {
                Ok(p) => batch.push(p),
                Err(_) => break,
            }
        }
        tokio::spawn(flush_batch(Arc::clone(&inner), pipeline.clone(), master_id, batch));
    }
}

/// Sends one flushed batch: the master update/read batch in parallel with
/// one record batch per witness, then resolves every op per the fast-path
/// rules (or coalesces one sync RPC / falls back per op).
async fn flush_batch(
    inner: Arc<CurpClient>,
    pipeline: Weak<PipelinedClient>,
    master_id: MasterId,
    batch: Vec<PendingOp>,
) {
    let (part, first_incomplete) = {
        let st = inner.state.lock();
        (st.config.partition_by_master(master_id).cloned(), st.rifl.first_incomplete())
    };
    let Some(part) = part else {
        // The partition vanished from the map while queued (split, churn):
        // refresh once and re-route the whole batch to the new owners.
        redirect_moved(&inner, &pipeline, batch);
        return;
    };
    let record_witnesses = inner.cfg.record_witnesses;

    let mut master_reqs = Vec::with_capacity(batch.len());
    let mut record_reqs = Vec::new();
    // batch index of the op behind each record request (reads record nothing).
    let mut record_slots = Vec::new();
    for (i, p) in batch.iter().enumerate() {
        if p.op.is_read_only() {
            master_reqs.push(Request::ClientRead { op: p.op.clone() });
            continue;
        }
        master_reqs.push(Request::ClientUpdate {
            rpc_id: p.rpc_id,
            first_incomplete,
            witness_list_version: part.witness_list_version,
            op: p.op.clone(),
        });
        if record_witnesses && !part.witnesses.is_empty() {
            // Each record keeps its own footprint: the witness checks
            // commutativity per op, exactly as in the unbatched path.
            record_reqs.push(Request::WitnessRecord {
                request: RecordedRequest {
                    master_id: part.master_id,
                    rpc_id: p.rpc_id,
                    key_hashes: p.footprint.clone(),
                    op: p.op.clone(),
                },
            });
            record_slots.push(i);
        }
    }

    let record_futs: Vec<_> = if record_reqs.is_empty() {
        Vec::new()
    } else {
        part.witnesses.iter().map(|&w| inner.rpc.call_batch(w, record_reqs.clone())).collect()
    };
    let master_fut = inner.rpc.call_batch(part.master, master_reqs);
    let (master_rsp, witness_rsps) = tokio::join!(master_fut, futures_join_all(record_futs));

    let master_rsps = match master_rsp {
        Ok(r) if r.len() == batch.len() => r,
        _ => {
            for p in batch {
                fallback(&inner, p);
            }
            return;
        }
    };

    // accepted[j]: every witness accepted record_reqs[j]. An unreachable or
    // short-replying witness fails the whole flush's records (the op is not
    // durable on all f witnesses), same as the unbatched all-accepted rule.
    let mut accepted = vec![!witness_rsps.is_empty(); record_slots.len()];
    for w in &witness_rsps {
        match w {
            Ok(rsps) if rsps.len() == accepted.len() => {
                for (j, r) in rsps.iter().enumerate() {
                    if !matches!(r, Response::RecordAccepted) {
                        accepted[j] = false;
                    }
                }
            }
            _ => accepted.iter_mut().for_each(|a| *a = false),
        }
    }
    let mut accepted_at: HashMap<usize, bool> = record_slots.into_iter().zip(accepted).collect();

    let mut need_sync: Vec<(PendingOp, OpResult)> = Vec::new();
    let mut moved: Vec<PendingOp> = Vec::new();
    for (i, (p, rsp)) in batch.into_iter().zip(master_rsps).enumerate() {
        match rsp {
            // Reads hold no completion record at the master, but their RIFL
            // id must still be acknowledged or the piggybacked watermark
            // (and with it completion-record GC) would stall behind them.
            Response::Read { result } => complete(&inner, p, result),
            Response::Update { result, synced } => {
                let all_accepted = accepted_at.remove(&i).unwrap_or(false);
                match inner.resolve(&part, synced, all_accepted) {
                    Resolution::Done => complete(&inner, p, result),
                    Resolution::NeedsSync => need_sync.push((p, result)),
                }
            }
            // NotOwner (the range split away) / StaleWitnessList / Retry
            // (sealed mid-migration): refresh the map once for the whole
            // flush and put the op back on its (possibly new) owner's pipe.
            _ => moved.push(p),
        }
    }
    redirect_moved(&inner, &pipeline, moved);

    if !need_sync.is_empty() {
        // One explicit sync covers every op in the flush: a successful sync
        // makes the master's whole unsynced prefix durable (§3.2.3).
        if inner.explicit_sync(&part, need_sync.len() as u64).await.is_ok() {
            for (p, result) in need_sync {
                complete(&inner, p, result);
            }
        } else {
            for (p, _) in need_sync {
                fallback(&inner, p);
            }
        }
    }
}

/// Resolves a pipelined mutation: records RIFL completion, delivers the
/// result, and (by dropping the op) releases its window slot.
fn complete(inner: &Arc<CurpClient>, p: PendingOp, result: OpResult) {
    inner.state.lock().rifl.complete(p.rpc_id);
    let _ = p.done.send(Ok(result));
}

/// Restarts one op through the one-op retry path (same RIFL id, so a
/// re-execution is filtered) without stalling the flusher.
fn fallback(inner: &Arc<CurpClient>, p: PendingOp) {
    let inner = Arc::clone(inner);
    tokio::spawn(async move {
        let PendingOp { rpc_id, op, permit, done, .. } = p;
        let res = if op.is_read_only() {
            let res = inner.read(op).await;
            // No completion record exists for a read; acknowledge its id
            // unconditionally so the RIFL watermark keeps advancing.
            inner.state.lock().rifl.complete(rpc_id);
            res
        } else {
            // update_with_id records the RIFL completion itself on success.
            inner.update_with_id(rpc_id, op).await
        };
        let _ = done.send(res);
        drop(permit);
    });
}

/// Re-routes ops refused by a master whose range moved: refreshes the map
/// once, then re-enqueues each op on the pipe of whichever partition owns
/// it under the refreshed map. This is what keeps a partition split
/// invisible to throughput — the moved range's traffic hops to the new
/// master's pipe and stays batched, rather than degrading permanently to
/// the serial retry loop. Ops that exhaust [`MAX_REDIRECTS`], ops the
/// refreshed map cannot route, and everything after the owning
/// [`PipelinedClient`] is dropped fall back to [`fallback`].
fn redirect_moved(
    inner: &Arc<CurpClient>,
    pipeline: &Weak<PipelinedClient>,
    moved: Vec<PendingOp>,
) {
    if moved.is_empty() {
        return;
    }
    let inner = Arc::clone(inner);
    let pipeline = pipeline.clone();
    tokio::spawn(async move {
        inner.refresh_config().await.ok();
        for mut p in moved {
            let routed = pipeline.upgrade().and_then(|pl| {
                let part = inner.route(&p.footprint).ok()?;
                Some((pl, part))
            });
            match routed {
                Some((pl, part)) if p.redirects < MAX_REDIRECTS => {
                    p.redirects += 1;
                    let (_, queue) = pl.pipe_for(&part);
                    if let Err(back) = queue.send(p) {
                        fallback(&inner, back.0);
                    }
                }
                _ => fallback(&inner, p),
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_delay_ramps_and_caps() {
        let base = Duration::from_millis(10);
        let max = Duration::from_millis(160);
        let mut prev_ceiling = Duration::ZERO;
        for attempt in 1..=10u32 {
            let d = retry_delay(base, max, attempt, 0xBEEF);
            let ceiling = base.saturating_mul(1 << (attempt - 1)).min(max);
            assert!(d >= ceiling / 2, "attempt {attempt}: {d:?} below half-ceiling");
            assert!(d <= ceiling, "attempt {attempt}: {d:?} above ceiling {ceiling:?}");
            assert!(ceiling >= prev_ceiling, "backoff envelope must be monotone");
            prev_ceiling = ceiling;
        }
        // Past the cap every attempt draws from the same [max/2, max] band.
        let d = retry_delay(base, max, 40, 7);
        assert!(d >= max / 2 && d <= max);
    }

    #[test]
    fn retry_delay_is_deterministic_and_salted() {
        let base = Duration::from_millis(10);
        let max = Duration::from_millis(160);
        assert_eq!(retry_delay(base, max, 3, 42), retry_delay(base, max, 3, 42));
        // Different salts must de-sync (not a hard guarantee per pair, but
        // these particular values differ — determinism makes this stable).
        assert_ne!(retry_delay(base, max, 3, 1), retry_delay(base, max, 3, 2));
    }
}
