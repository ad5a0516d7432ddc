//! The four workloads, their set-up, the output check and the metrics.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bytes::Bytes;
use curp_core::client::{ClientConfig, CurpClient, PipelineConfig, PipelinedClient};
use curp_core::master::Master;
use curp_proto::message::{Request, Response};
use curp_proto::op::{Op, OpResult};
use curp_proto::types::{MasterId, ServerId};
use curp_workload::ycsb::WorkloadOp;

use crate::cluster::{self, Cluster, Net};
use crate::gen::{self, Mix, OpStream, VALUE_SIZE};
use crate::stats::{self, Checker, Latencies};
use crate::trace::{self, Layer, Span};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Fastpath,
    YcsbAPipelined,
    YcsbATcp,
    DurableRecovery,
}

/// How load is offered.
#[derive(Clone, Copy, Debug)]
enum Load {
    /// One op in flight through `CurpClient` (the serial `try_once` path).
    Serial,
    /// `window` ops in flight through a `PipelinedClient` (`flush_batch`).
    Pipelined { window: usize },
    /// Ops sent on a fixed schedule through a `PipelinedClient`, with
    /// `crashes` master crashes and recoveries at fixed points.
    Open { rate: f64, window: usize, crashes: u64 },
}

struct Params {
    net: Net,
    durable: bool,
    mix: Mix,
    keys: u64,
    load: Load,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Workload> {
        [
            Workload::Fastpath,
            Workload::YcsbAPipelined,
            Workload::YcsbATcp,
            Workload::DurableRecovery,
        ]
        .into_iter()
        .find(|w| w.name() == s)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fastpath => "fastpath",
            Workload::YcsbAPipelined => "ycsb_a_pipelined",
            Workload::YcsbATcp => "ycsb_a_tcp",
            Workload::DurableRecovery => "durable_recovery",
        }
    }

    fn params(self) -> Params {
        match self {
            Workload::Fastpath => Params {
                net: Net::Mem,
                durable: false,
                mix: Mix::UniformPut,
                keys: 100_000,
                load: Load::Serial,
            },
            Workload::YcsbAPipelined => Params {
                net: Net::Mem,
                durable: false,
                mix: Mix::YcsbA,
                keys: 100_000,
                load: Load::Pipelined { window: 16 },
            },
            Workload::YcsbATcp => Params {
                net: Net::Tcp,
                durable: false,
                mix: Mix::YcsbA,
                keys: 100_000,
                load: Load::Serial,
            },
            // 200 ops/s keeps the durable cluster below saturation between
            // crashes on a 2-vCPU box (every write costs about eight fsyncs
            // on the one runtime thread; 500/s saturated it). The window
            // holds every op that falls due while no master exists
            // (200/s x a few hundred ms), so the generator never waits on it.
            Workload::DurableRecovery => Params {
                net: Net::Mem,
                durable: true,
                mix: Mix::UniformPut,
                keys: 20_000,
                load: Load::Open { rate: 200.0, window: 1024, crashes: 4 },
            },
        }
    }
}

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub samples: u64,
}

pub struct Report {
    pub workload: Workload,
    pub attempted: u64,
    pub failed: u64,
    /// Output-check violations; any makes the run incorrect.
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
    /// The measured phase's spans (traced runs).
    pub spans: Option<Vec<Span>>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }
}

/// What the measured phase produced, shared with completion tasks.
#[derive(Default)]
struct Outcome {
    writes: Latencies,
    reads: Latencies,
    attempted: u64,
    completed: u64,
    failed: u64,
    checker: Checker,
    problems: Vec<String>,
    /// Completion instants (open loop), to find the first write after a crash.
    completions: Vec<Instant>,
    late: Latencies,
    /// When each crash was injected (open loop).
    crashes: Vec<Instant>,
}

type Shared = Arc<Mutex<Outcome>>;

fn lock(s: &Shared) -> std::sync::MutexGuard<'_, Outcome> {
    s.lock().expect("outcome lock poisoned by a panicking completion task")
}

impl Outcome {
    /// Records one finished op (latency from `start`).
    fn finish(&mut self, op: &WorkloadOp, start: Instant, result: Result<OpResult, String>) {
        let ns = start.elapsed().as_nanos() as u64;
        let lat = if op.is_read() { &mut self.reads } else { &mut self.writes };
        match (op, result) {
            (WorkloadOp::Update { key, value }, Ok(OpResult::Written { version })) => {
                lat.record(ns);
                self.completed += 1;
                self.checker.ack(key, value, version);
            }
            // Every key is preloaded, so a read finds some 100 B value; which
            // one is checked at the end, against the final state.
            (WorkloadOp::Read { .. }, Ok(OpResult::Value(Some(v)))) if v.len() == VALUE_SIZE => {
                lat.record(ns);
                self.completed += 1;
            }
            (op, Ok(other)) => {
                lat.record_failure();
                self.failed += 1;
                self.problems.push(format!("{:?}: unexpected result {other:?}", op.key()));
            }
            (op, Err(e)) => {
                lat.record_failure();
                self.failed += 1;
                if let WorkloadOp::Update { key, value } = op {
                    self.checker.unknown(key, value);
                }
                if self.failed <= 5 {
                    eprintln!("op on {:?} failed: {e}", op.key());
                }
            }
        }
    }
}

fn to_op(op: &WorkloadOp) -> Op {
    match op {
        WorkloadOp::Read { key } => Op::Get { key: key.clone() },
        WorkloadOp::Update { key, value } => Op::Put { key: key.clone(), value: value.clone() },
    }
}

/// Runs `f` over `items` on `workers` concurrent tasks; returns the results
/// in item order.
async fn concurrently<T, R, F, Fut>(items: Vec<T>, workers: usize, f: F) -> Vec<R>
where
    T: Clone + Send + Sync + 'static,
    R: Send + 'static,
    F: Fn(T) -> Fut + Clone + Send + Sync + 'static,
    Fut: std::future::Future<Output = R> + Send + 'static,
{
    let items = Arc::new(items);
    let next = Arc::new(AtomicUsize::new(0));
    let handles: Vec<_> = (0..workers)
        .map(|_| {
            let (items, next, f) = (Arc::clone(&items), Arc::clone(&next), f.clone());
            tokio::spawn(async move {
                let mut done = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(item) = items.get(i) else { break };
                    done.push((i, f(item.clone()).await));
                }
                done
            })
        })
        .collect();
    let mut all = Vec::with_capacity(items.len());
    for h in handles {
        all.extend(h.await.expect("worker task panicked"));
    }
    all.sort_unstable_by_key(|&(i, _)| i);
    all.into_iter().map(|(_, r)| r).collect()
}

/// Ops in flight while preloading and reading back (outside the measured
/// phase).
const CONCURRENCY: usize = 256;

/// Keys written between two explicit syncs in the preload: the master
/// otherwise leaves the whole preload pending and ships it to the backups in
/// one round, which on durable backups stalls the runtime for seconds.
const PRELOAD_CHUNK: usize = 1000;

/// Writes every key once through an unrecorded client (the paper's Async
/// path: no witness records), syncing the master after every chunk, so the
/// whole preload is on the backups before timing starts.
async fn preload(c: &Cluster, keys: u64, seed: u64, checker: &mut Checker) -> Result<(), String> {
    let cfg = ClientConfig { record_witnesses: false, ..ClientConfig::default() };
    let client = c.client(cfg).await;
    let rpc = c.rpc(cluster::CLIENT);
    let all: Vec<(Bytes, Bytes)> = gen::preload(keys, seed).collect();
    for chunk in all.chunks(PRELOAD_CHUNK) {
        let client = Arc::clone(&client);
        let results =
            concurrently(chunk.to_vec(), CONCURRENCY, move |(key, value): (Bytes, Bytes)| {
                let client = Arc::clone(&client);
                async move { client.update(Op::Put { key, value }).await }
            })
            .await;
        for ((key, value), r) in chunk.iter().zip(results) {
            match r {
                Ok(OpResult::Written { version }) => checker.ack(key, value, version),
                other => return Err(format!("preload write of {key:?}: {other:?}")),
            }
        }
        sync(&rpc, c.master_id).await?;
    }
    Ok(())
}

/// Asks the master to sync everything it has executed. A call times out
/// (the transport's RPC timeout) while the round outlasts it; the round
/// itself goes on, so the call is repeated until it answers.
async fn sync(
    rpc: &Arc<dyn curp_transport::rpc::RpcClient>,
    master_id: MasterId,
) -> Result<(), String> {
    let mut last = None;
    for _ in 0..100 {
        match rpc.call(ServerId(1), Request::Sync { master_id }).await {
            Ok(Response::SyncDone) => return Ok(()),
            other => last = Some(other),
        }
    }
    Err(format!("preload sync: {last:?}"))
}

/// Counters read from the program's public stats structs.
#[derive(Default, Clone, Copy)]
struct Counters {
    fast_path: u64,
    explicit_sync: u64,
    restarts: u64,
    client_ops: u64,
    updates: u64,
    conflicts: u64,
    syncs: u64,
    entries_synced: u64,
    duplicates: u64,
    accepted: u64,
    rejected: u64,
    witness_gcs: u64,
}

fn counters(c: &Cluster, client: &CurpClient) -> Counters {
    let ld = |a: &AtomicU64| a.load(Ordering::Relaxed);
    let cs = &client.stats;
    let mut k = Counters {
        fast_path: ld(&cs.fast_path),
        explicit_sync: ld(&cs.explicit_sync),
        restarts: ld(&cs.restarts),
        client_ops: ld(&cs.fast_path) + ld(&cs.synced_by_master) + ld(&cs.explicit_sync),
        ..Counters::default()
    };
    let masters: Vec<Arc<Master>> = c.servers.iter().filter_map(|s| s.master()).collect();
    for m in masters {
        k.updates += ld(&m.stats.updates);
        k.conflicts += ld(&m.stats.conflicts);
        k.syncs += ld(&m.stats.syncs);
        k.entries_synced += ld(&m.stats.entries_synced);
        k.duplicates += ld(&m.stats.duplicates);
    }
    for s in &c.servers {
        let w = s.witness().counters();
        k.accepted += w.accepted;
        k.rejected += w.rejected;
        k.witness_gcs += w.gcs;
    }
    k
}

impl std::ops::Sub for Counters {
    type Output = Counters;
    fn sub(self, o: Counters) -> Counters {
        Counters {
            fast_path: self.fast_path - o.fast_path,
            explicit_sync: self.explicit_sync - o.explicit_sync,
            restarts: self.restarts - o.restarts,
            client_ops: self.client_ops - o.client_ops,
            updates: self.updates - o.updates,
            conflicts: self.conflicts - o.conflicts,
            syncs: self.syncs - o.syncs,
            entries_synced: self.entries_synced - o.entries_synced,
            duplicates: self.duplicates - o.duplicates,
            accepted: self.accepted - o.accepted,
            rejected: self.rejected - o.rejected,
            witness_gcs: self.witness_gcs - o.witness_gcs,
        }
    }
}

/// Runs `fut` inside a span of `layer` when tracing.
async fn timed<T>(
    trace: bool,
    layer: Layer,
    kind: &'static str,
    rpc: Option<curp_proto::types::RpcId>,
    fut: impl std::future::Future<Output = T> + Send,
) -> T {
    if trace {
        trace::in_span(layer, kind, rpc, fut).await
    } else {
        fut.await
    }
}

async fn run_serial(
    client: &Arc<CurpClient>,
    stream: &mut OpStream,
    dur: Duration,
    trace: bool,
    out: &Shared,
) {
    let start = Instant::now();
    while start.elapsed() < dur {
        let op = stream.next_op();
        let t0 = Instant::now();
        let r = if op.is_read() {
            timed(trace, Layer::Client, "read", None, client.read(to_op(&op))).await
        } else {
            timed(trace, Layer::Client, "update", None, client.update(to_op(&op))).await
        };
        let mut o = lock(out);
        o.attempted += 1;
        o.finish(&op, t0, r.map_err(|e| e.to_string()));
    }
}

/// Submits `op` and spawns a task that records its completion, timed from
/// `start` (the call, or the scheduled send in an open loop).
async fn submit(
    pipe: &Arc<PipelinedClient>,
    op: WorkloadOp,
    start: Option<Instant>,
    trace: bool,
    out: &Shared,
    inflight: &Arc<AtomicUsize>,
) {
    let open_loop = start.is_some();
    let submitted = pipe.submit(to_op(&op)).await;
    // A closed loop times from here: the window slot is held and the op is
    // queued, so the wait for a free slot (the previous op) is not counted.
    let start = start.unwrap_or_else(Instant::now);
    lock(out).attempted += 1;
    let completion = match submitted {
        Ok(c) => c,
        Err(e) => {
            lock(out).finish(&op, start, Err(e.to_string()));
            return;
        }
    };
    inflight.fetch_add(1, Ordering::Relaxed);
    let (out, inflight) = (Arc::clone(out), Arc::clone(inflight));
    let rpc = completion.rpc_id();
    tokio::spawn(async move {
        let kind = if op.is_read() { "read" } else { "update" };
        let r = timed(trace, Layer::Client, kind, Some(rpc), completion).await;
        let mut o = lock(&out);
        o.finish(&op, start, r.map_err(|e| e.to_string()));
        if open_loop {
            o.completions.push(Instant::now());
        }
        drop(o);
        inflight.fetch_sub(1, Ordering::Relaxed);
    });
}

async fn drain(inflight: &AtomicUsize) {
    while inflight.load(Ordering::Relaxed) > 0 {
        tokio::time::sleep(Duration::from_micros(200)).await;
    }
}

async fn run_pipelined(
    pipe: &Arc<PipelinedClient>,
    stream: &mut OpStream,
    dur: Duration,
    trace: bool,
    out: &Shared,
) {
    let inflight = Arc::new(AtomicUsize::new(0));
    let start = Instant::now();
    while start.elapsed() < dur {
        submit(pipe, stream.next_op(), None, trace, out, &inflight).await;
    }
    drain(&inflight).await;
}

/// The open loop with crashes: op `i` falls due at `i / rate`; before the
/// `k`-th crash point the current master's server crashes and the coordinator
/// recovers the partition onto spare `k`, concurrently with the load.
#[allow(clippy::too_many_arguments)]
async fn run_open(
    c: &Cluster,
    pipe: &Arc<PipelinedClient>,
    stream: &mut OpStream,
    dur: Duration,
    rate: f64,
    crashes: u64,
    trace: bool,
    out: &Shared,
) {
    let net = c.mem().expect("crash injection needs the in-process network").clone();
    let total = (dur.as_secs_f64() * rate).round() as u64;
    let schedule = gen::crash_schedule(total, crashes);
    let interval = Duration::from_secs_f64(1.0 / rate);
    let inflight = Arc::new(AtomicUsize::new(0));
    let mut master: (ServerId, MasterId) = (ServerId(1), c.master_id);
    let spares: Vec<ServerId> = (2 + cluster::F..).take(crashes as usize).map(ServerId).collect();
    let mut recovery: Option<tokio::task::JoinHandle<Result<MasterId, String>>> = None;
    let start = Instant::now();
    for i in 0..total {
        let due = start + interval * i as u32;
        tokio::time::sleep(due.saturating_duration_since(Instant::now())).await;
        lock(out).late.record(due.elapsed().as_nanos() as u64);
        if let Some(k) = schedule.iter().position(|&s| s == i) {
            if let Some(h) = recovery.take() {
                master = (spares[k - 1], finish_recovery(h, out).await);
            }
            net.crash(master.0);
            c.servers[master.0 .0 as usize - 1].seal_master();
            let crashed_at = Instant::now();
            let (coord, crashed, spare) = (Arc::clone(&c.coord), master.1, spares[k]);
            lock(out).crashes.push(crashed_at);
            recovery = Some(tokio::spawn(async move {
                let recover = coord.recover_master(crashed, spare);
                timed(trace, Layer::Coord, "recover_master", None, recover).await
            }));
        }
        submit(pipe, stream.next_op(), Some(due), trace, out, &inflight).await;
    }
    if let Some(h) = recovery.take() {
        finish_recovery(h, out).await;
    }
    drain(&inflight).await;
}

async fn finish_recovery(
    h: tokio::task::JoinHandle<Result<MasterId, String>>,
    out: &Shared,
) -> MasterId {
    match h.await.expect("recovery task panicked") {
        Ok(id) => id,
        Err(e) => {
            lock(out).problems.push(format!("recover_master failed: {e}"));
            MasterId(0)
        }
    }
}

/// Reads back every written key and checks it against the acknowledged
/// history.
async fn read_back(client: &Arc<CurpClient>, out: &Shared) {
    let keys = lock(out).checker.keys();
    let client = Arc::clone(client);
    let reads = concurrently(keys.clone(), CONCURRENCY, move |key: Bytes| {
        let client = Arc::clone(&client);
        async move { client.read(Op::Get { key }).await }
    })
    .await;
    let mut o = lock(out);
    let mut bad = 0;
    for (key, r) in keys.iter().zip(reads) {
        let ok = matches!(&r, Ok(OpResult::Value(v)) if o.checker.allows(key, v.as_deref()));
        if !ok {
            bad += 1;
            if bad <= 5 {
                o.problems.push(format!("read-back of {key:?} gave {r:?}"));
            }
        }
    }
    if bad > 5 {
        o.problems.push(format!("{bad} keys failed the read-back in total"));
    }
}

fn metric(name: &'static str, value: f64, unit: &'static str, samples: u64) -> Metric {
    Metric { name, value, unit, samples }
}

fn per(num: u64, den: u64, scale: f64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 * scale / den as f64
    }
}

pub async fn run(w: Workload, seed: u64, seconds: f64, trace: bool, setup_only: bool) -> Report {
    let p = w.params();
    let spares = match p.load {
        Load::Open { crashes, .. } => crashes,
        _ => 0,
    };
    let mut report = Report {
        workload: w,
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
        metrics: Vec::new(),
        spans: None,
    };

    // ---- set-up: cluster, preload, measuring client ----
    let t0 = Instant::now();
    let spec = cluster::Spec { net: p.net, durable: p.durable, spares, trace };
    let c = match Cluster::build(spec).await {
        Ok(c) => c,
        Err(e) => {
            report.problems.push(format!("cluster set-up failed: {e}"));
            return report;
        }
    };
    let mut checker = Checker::default();
    if let Err(e) = preload(&c, p.keys, seed, &mut checker).await {
        report.problems.push(e);
        return report;
    }
    let client = c.client(ClientConfig::default()).await;
    let pipe = match p.load {
        Load::Pipelined { window } | Load::Open { window, .. } => Some(PipelinedClient::new(
            Arc::clone(&client),
            PipelineConfig { window, ..PipelineConfig::default() },
        )),
        Load::Serial => None,
    };
    let setup_s = t0.elapsed().as_secs_f64();
    report.metrics.push(metric("setup_s", setup_s, "s", 1));
    if setup_only {
        c.shutdown();
        return report;
    }

    // ---- measured phase ----
    let out: Shared = Arc::new(Mutex::new(Outcome { checker, ..Outcome::default() }));
    let mut stream = OpStream::new(p.mix, p.keys, seed);
    let dur = Duration::from_secs_f64(seconds);
    trace::take();
    trace::FRAMES.store(0, Ordering::Relaxed);
    trace::FRAME_BYTES.store(0, Ordering::Relaxed);
    let k0 = counters(&c, &client);
    let (cpu0, wall0) = (stats::cpu_seconds(), Instant::now());
    match (p.load, &pipe) {
        (Load::Serial, _) => run_serial(&client, &mut stream, dur, trace, &out).await,
        (Load::Pipelined { .. }, Some(pipe)) => {
            run_pipelined(pipe, &mut stream, dur, trace, &out).await
        }
        (Load::Open { rate, crashes, .. }, Some(pipe)) => {
            run_open(&c, pipe, &mut stream, dur, rate, crashes, trace, &out).await
        }
        _ => unreachable!("pipelined loads build a pipelined client"),
    }
    let (cpu, wall) = (stats::cpu_seconds() - cpu0, wall0.elapsed().as_secs_f64());
    let k = counters(&c, &client) - k0;
    let frames = trace::FRAMES.load(Ordering::Relaxed);
    let frame_bytes = trace::FRAME_BYTES.load(Ordering::Relaxed);
    let spans = if trace { Some(trace::take()) } else { None };

    // ---- output check ----
    read_back(&client, &out).await;
    trace::take();
    let disk = c.data.as_ref().map_or(0, |d| stats::dir_bytes(d.path()));
    let peak_rss = stats::peak_rss_mb();
    c.shutdown();

    let mut o = std::mem::take(&mut *lock(&out));
    let m = &mut report.metrics;
    let done = o.completed;
    m.push(metric("ops_per_s", done as f64 / wall, "1/s", done));
    let n = o.writes.len() as u64;
    m.push(metric("write_p50_us", o.writes.quantile_us(0.5).unwrap_or(0.0), "us", n));
    m.push(metric("write_p99_us", o.writes.quantile_us(0.99).unwrap_or(0.0), "us", n));
    let n = o.reads.len() as u64;
    m.push(metric("read_p50_us", o.reads.quantile_us(0.5).unwrap_or(0.0), "us", n));
    m.push(metric("read_p99_us", o.reads.quantile_us(0.99).unwrap_or(0.0), "us", n));
    m.push(metric("cpu_us_per_op", per((cpu * 1e6) as u64, done, 1.0), "us", done));
    m.push(metric("peak_rss_mb", peak_rss, "MB", 1));
    m.push(metric("error_rate", per(o.failed, o.attempted, 1.0), "ratio", o.attempted));
    let mut gaps: Vec<u64> = o
        .crashes
        .iter()
        .filter_map(|&crash| {
            let first = o.completions.iter().filter(|&&t| t > crash).min()?;
            Some(first.duration_since(crash).as_micros() as u64)
        })
        .collect();
    gaps.sort_unstable();
    let recovery_ms = stats::quantile(&gaps, 0.5).map_or(0.0, |us| us as f64 / 1e3);
    m.push(metric("recovery_ms", recovery_ms, "ms", gaps.len() as u64));
    if o.crashes.len() < spares as usize {
        o.problems.push(format!("{} of {spares} crashes ran", o.crashes.len()));
    }

    // Counters of the program's own stats structs.
    let ops = done;
    m.push(metric(
        "client.fast_path_frac",
        per(k.fast_path, k.client_ops, 1.0),
        "ratio",
        k.client_ops,
    ));
    m.push(metric("client.explicit_sync_per_kop", per(k.explicit_sync, ops, 1e3), "1/kop", ops));
    m.push(metric("client.restarts_per_kop", per(k.restarts, ops, 1e3), "1/kop", ops));
    m.push(metric("master.conflict_frac", per(k.conflicts, k.updates, 1.0), "ratio", k.updates));
    m.push(metric("master.syncs_per_kop", per(k.syncs, ops, 1e3), "1/kop", ops));
    m.push(metric(
        "master.entries_per_sync",
        per(k.entries_synced, k.syncs, 1.0),
        "1/sync",
        k.syncs,
    ));
    m.push(metric("master.duplicates_per_kop", per(k.duplicates, ops, 1e3), "1/kop", ops));
    let records = k.accepted + k.rejected;
    m.push(metric("witness.accept_frac", per(k.accepted, records, 1.0), "ratio", records));
    m.push(metric("witness.gcs_per_kop", per(k.witness_gcs, ops, 1e3), "1/kop", ops));
    let acked = o.checker.acked_bytes;
    m.push(metric("backup.disk_bytes_per_user_byte", per(disk, acked, 1.0), "B/B", acked));
    let n = o.late.len() as u64;
    m.push(metric("driver.late_us_p99", o.late.quantile_us(0.99).unwrap_or(0.0), "us", n));
    m.push(metric("process.cpu_util", cpu / wall, "ratio", 1));
    if let Some(spans) = spans {
        m.push(metric("transport.msgs_per_op", per(frames, done, 1.0), "msg/op", done));
        m.push(metric("transport.bytes_per_op", per(frame_bytes, done, 1.0), "B/op", done));
        let mut spans = spans;
        span_metrics(&mut spans, recovery_ms, m);
        report.spans = Some(spans);
    }
    report.attempted = o.attempted;
    report.failed = o.failed;
    report.problems = o.problems;
    report
}

/// Per-layer metrics from the measured phase's spans.
fn span_metrics(spans: &mut [Span], recovery_ms: f64, m: &mut Vec<Metric>) {
    trace::link_orphans(spans);
    // Ops the spans cover (all of them unless the span cap was reached).
    let ops = spans.iter().filter(|s| s.layer == Layer::Client && s.end_ns.is_some()).count();
    let ops = ops as u64;
    let kids = trace::children(spans);
    let durs = |layer: Layer, kind: &str| -> Vec<u64> {
        let mut v: Vec<u64> = spans
            .iter()
            .filter(|s| s.layer == layer && s.kind == kind)
            .filter_map(Span::dur_ns)
            .collect();
        v.sort_unstable();
        v
    };
    let us = |v: &[u64], q: f64| stats::quantile(v, q).map_or(0.0, |ns| ns as f64 / 1e3);
    let timings: [(&'static str, Layer, &str, f64); 15] = [
        ("client.update_us_p50", Layer::Client, "update", 0.5),
        ("client.update_us_p99", Layer::Client, "update", 0.99),
        ("client.read_us_p50", Layer::Client, "read", 0.5),
        ("client.read_us_p99", Layer::Client, "read", 0.99),
        ("master.update_us_p50", Layer::Master, "ClientUpdate", 0.5),
        ("master.update_us_p99", Layer::Master, "ClientUpdate", 0.99),
        ("master.read_us_p50", Layer::Master, "ClientRead", 0.5),
        ("master.sync_rpc_us_p50", Layer::Transport, "BackupSync", 0.5),
        ("master.sync_rpc_us_p99", Layer::Transport, "BackupSync", 0.99),
        ("witness.record_us_p50", Layer::Witness, "WitnessRecord", 0.5),
        ("witness.record_us_p99", Layer::Witness, "WitnessRecord", 0.99),
        ("witness.gc_us_p50", Layer::Witness, "WitnessGc", 0.5),
        ("backup.sync_us_p50", Layer::Backup, "BackupSync", 0.5),
        ("backup.sync_us_p99", Layer::Backup, "BackupSync", 0.99),
        ("transport.sync_wait_us_p50", Layer::Transport, "-", 0.5),
    ];
    for (name, layer, kind, q) in &timings[..14] {
        let v = durs(*layer, kind);
        m.push(metric(name, us(&v, *q), "us", v.len() as u64));
    }

    // Transport wait: a call's duration minus the part its server-side
    // handler spans cover.
    let mut waits: [Vec<u64>; 3] = Default::default();
    for (i, s) in spans.iter().enumerate() {
        if s.layer != Layer::Transport || kids[i].is_empty() {
            continue;
        }
        let Some(selft) = trace::self_ns(spans, &kids, i) else { continue };
        let kinds: Vec<&str> = if s.batch.is_empty() {
            vec![s.kind]
        } else {
            s.batch.iter().map(|&(_, k)| k).collect()
        };
        for (slot, kind) in ["ClientUpdate", "WitnessRecord", "ClientRead"].iter().enumerate() {
            if kinds.contains(kind) {
                waits[slot].push(selft);
            }
        }
    }
    let names = [
        "transport.update_wait_us_p50",
        "transport.record_wait_us_p50",
        "transport.read_wait_us_p50",
    ];
    for (name, mut v) in names.into_iter().zip(waits) {
        v.sort_unstable();
        m.push(metric(name, us(&v, 0.5), "us", v.len() as u64));
    }

    // Self time per layer, per completed op.
    let self_names = [
        "client.self_us_per_op",
        "transport.self_us_per_op",
        "master.self_us_per_op",
        "witness.self_us_per_op",
        "backup.self_us_per_op",
        "coord.self_us_per_op",
    ];
    for (layer, name) in Layer::ALL.into_iter().zip(self_names) {
        let total: u64 = (0..spans.len())
            .filter(|&i| spans[i].layer == layer)
            .filter_map(|i| trace::self_ns(spans, &kids, i))
            .sum();
        m.push(metric(name, per(total, ops, 1e-3), "us", ops));
    }

    // Recovery: the coordinator call and, within each, the handler time of
    // the fetch, witness-data and install requests.
    let recs: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.layer == Layer::Coord && s.kind == "recover_master")
        .filter_map(|s| Some((s.start_ns, s.end_ns?)))
        .collect();
    let median_ms = |mut v: Vec<u64>| -> f64 {
        v.sort_unstable();
        stats::quantile(&v, 0.5).map_or(0.0, |ns| ns as f64 / 1e6)
    };
    let n = recs.len() as u64;
    let coord_ms = median_ms(recs.iter().map(|(s, e)| e - s).collect());
    m.push(metric("coord.recover_master_ms", coord_ms, "ms", n));
    for (name, kind) in [
        ("recovery.fetch_ms", "BackupFetch"),
        ("recovery.witness_data_ms", "WitnessGetRecoveryData"),
        ("recovery.install_ms", "BackupInstall"),
    ] {
        let per_recovery = recs
            .iter()
            .map(|&(rs, re)| {
                spans
                    .iter()
                    .filter(|s| s.kind == kind && s.layer != Layer::Transport)
                    .filter(|s| s.start_ns >= rs && s.start_ns < re)
                    .filter_map(Span::dur_ns)
                    .sum()
            })
            .collect();
        m.push(metric(name, median_ms(per_recovery), "ms", n));
    }
    let gap = if n > 0 { recovery_ms - coord_ms } else { 0.0 };
    m.push(metric("recovery.client_gap_ms", gap, "ms", n));
    m.push(metric("trace.spans_per_op", per(spans.len() as u64, ops, 1.0), "1/op", ops));
}
