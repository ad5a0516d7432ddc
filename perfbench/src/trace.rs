//! Outside-in tracing: spans recorded around calls into each layer's public
//! functions, from this package only.
//!
//! * [`TracedClient`] wraps every `RpcClient` handed to a `CurpClient` or to
//!   the coordinator's per-server factory (so the master's sync and gc calls
//!   are covered too): one `Transport` span per call.
//! * [`TracedHandler`] wraps each `ServerHandler` / `CoordinatorHandler`:
//!   one span per handled request, named by its `Request` variant and
//!   attributed to the layer that serves it.
//! * [`in_span`] times a client operation or a `recover_master` call.
//!
//! The tokio shim has no task-locals, so a span's parent is taken from a
//! thread-local that [`InSpan`] sets for the duration of each poll of the
//! span's future. The in-process transport invokes the server handler while
//! the caller's future is being polled, so handler spans get their call span
//! as parent directly. Over TCP the handler runs in the server's own task;
//! [`link_orphans`] pairs those spans with their call span afterwards
//! by the hash of the request's wire encoding (identical on both sides).
//!
//! Spans live in a thread-local vector (the shim runs every task on the one
//! runtime thread) and are written out when the run ends.

use std::cell::{Cell, RefCell};
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::task::{Context, Poll};
use std::time::Instant;

use curp_proto::message::{Request, Response};
use curp_proto::types::{RpcId, ServerId};
use curp_proto::wire::Encode;
use curp_transport::rpc::{BoxFuture, RpcClient, RpcHandler, SharedHandler};
use curp_transport::RpcError;

/// The layer a span belongs to (module names of the program).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Layer {
    /// `curp-core::client`: one span per operation.
    Client,
    /// `curp-transport`: one span per call, caller side.
    Transport,
    /// `curp-core::master` request handlers.
    Master,
    /// `curp-witness` request handlers.
    Witness,
    /// `curp-core::backup` request handlers.
    Backup,
    /// `curp-core::coordinator`: its handler and `recover_master`.
    Coord,
}

impl Layer {
    pub const ALL: [Layer; 6] = [
        Layer::Client,
        Layer::Transport,
        Layer::Master,
        Layer::Witness,
        Layer::Backup,
        Layer::Coord,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Client => "client",
            Layer::Transport => "transport",
            Layer::Master => "master",
            Layer::Witness => "witness",
            Layer::Backup => "backup",
            Layer::Coord => "coord",
        }
    }
}

/// One recorded interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub layer: Layer,
    /// `Request` variant (handler and call spans), or the timed function.
    pub kind: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    /// `None` while open, and forever for a future dropped before it ended.
    pub end_ns: Option<u64>,
    /// Hash of the request's wire encoding (0 when not a request span).
    pub key: u64,
    /// The operation's RIFL id, where the request or operation carries one.
    pub rpc: Option<RpcId>,
    /// For a batch call: the keys of its inner requests (matched one each).
    pub batch: Vec<(u64, &'static str)>,
}

impl Span {
    pub fn dur_ns(&self) -> Option<u64> {
        self.end_ns.map(|e| e.saturating_sub(self.start_ns))
    }
}

/// Names a recorded span: its index among the spans of generation `gen`.
/// [`take`] starts a new generation, so a span still open across it (a
/// background task's call, say) is neither closed in nor parent to the new
/// vector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId {
    gen: u64,
    idx: usize,
}

struct Recorder {
    gen: u64,
    spans: Vec<Span>,
}

thread_local! {
    static REC: RefCell<Recorder> = const { RefCell::new(Recorder { gen: 0, spans: Vec::new() }) };
    static CURRENT: Cell<Option<SpanId>> = const { Cell::new(None) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Message counters kept by [`TracedClient`]: every call is one request
/// frame and one response frame (a batch is one frame each way).
pub static FRAMES: AtomicU64 = AtomicU64::new(0);
/// Encoded bytes of those frames (`Encode::encoded_len`).
pub static FRAME_BYTES: AtomicU64 = AtomicU64::new(0);

/// Spans kept per generation (about 100 MB); later ones are not recorded,
/// so a long traced run describes its first part.
pub const MAX_SPANS: usize = 1_000_000;

/// Opens a span whose parent is the span whose future is being polled;
/// `None` once `MAX_SPANS` are recorded.
pub fn open(layer: Layer, kind: &'static str, key: u64, rpc: Option<RpcId>) -> Option<SpanId> {
    let current = CURRENT.with(Cell::get);
    let start_ns = now_ns();
    REC.with(|r| {
        let mut r = r.borrow_mut();
        if r.spans.len() >= MAX_SPANS {
            return None;
        }
        let gen = r.gen;
        let parent = current.filter(|p| p.gen == gen).map(|p| p.idx);
        r.spans.push(Span {
            layer,
            kind,
            parent,
            start_ns,
            end_ns: None,
            key,
            rpc,
            batch: Vec::new(),
        });
        Some(SpanId { gen, idx: r.spans.len() - 1 })
    })
}

/// Applies `f` to the span, if it is recorded in the current generation.
fn with_span(id: Option<SpanId>, f: impl FnOnce(&mut Span)) {
    let Some(id) = id else { return };
    REC.with(|r| {
        let mut r = r.borrow_mut();
        if r.gen == id.gen {
            f(&mut r.spans[id.idx]);
        }
    });
}

fn close(id: Option<SpanId>) {
    let end = now_ns();
    with_span(id, |s| s.end_ns = Some(end));
}

/// Drives `fut` inside `span`: the span is the current parent during every
/// poll, and it closes when the future completes.
pub struct InSpan<'a, T> {
    span: Option<SpanId>,
    fut: BoxFuture<'a, T>,
}

impl<T> Future for InSpan<'_, T> {
    type Output = T;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
        let prev = CURRENT.with(|c| c.replace(self.span));
        let r = self.fut.as_mut().poll(cx);
        CURRENT.with(|c| c.set(prev));
        if r.is_ready() {
            close(self.span);
        }
        r
    }
}

/// Times `fut` as a span of `layer`.
pub fn in_span<'a, T>(
    layer: Layer,
    kind: &'static str,
    rpc: Option<RpcId>,
    fut: impl Future<Output = T> + Send + 'a,
) -> InSpan<'a, T> {
    let span = open(layer, kind, 0, rpc);
    InSpan { span, fut: Box::pin(fut) }
}

/// Removes and returns every span of the current generation, and starts
/// the next one.
pub fn take() -> Vec<Span> {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.gen += 1;
        std::mem::take(&mut r.spans)
    })
}

/// The `Request` variant's name.
pub fn kind_of(req: &Request) -> &'static str {
    match req {
        Request::ClientUpdate { .. } => "ClientUpdate",
        Request::ClientRead { .. } => "ClientRead",
        Request::Sync { .. } => "Sync",
        Request::WitnessRecord { .. } => "WitnessRecord",
        Request::WitnessCommuteCheck { .. } => "WitnessCommuteCheck",
        Request::WitnessGc { .. } => "WitnessGc",
        Request::WitnessGetRecoveryData { .. } => "WitnessGetRecoveryData",
        Request::WitnessStart { .. } => "WitnessStart",
        Request::WitnessEnd { .. } => "WitnessEnd",
        Request::BackupSync { .. } => "BackupSync",
        Request::BackupFetch { .. } => "BackupFetch",
        Request::BackupRead { .. } => "BackupRead",
        Request::BackupInstall { .. } => "BackupInstall",
        Request::BackupSetEpoch { .. } => "BackupSetEpoch",
        Request::MasterWitnessList { .. } => "MasterWitnessList",
        Request::MasterClientExpired { .. } => "MasterClientExpired",
        Request::MasterLoadStats { .. } => "MasterLoadStats",
        Request::Consensus { .. } => "Consensus",
        Request::Batch { .. } => "Batch",
        Request::GetConfig => "GetConfig",
        Request::AcquireLease => "AcquireLease",
        Request::RenewLease { .. } => "RenewLease",
    }
}

/// The layer whose handler serves `req` (the `CurpServer` dispatch table).
pub fn layer_of(req: &Request) -> Layer {
    match req {
        Request::ClientUpdate { .. }
        | Request::ClientRead { .. }
        | Request::Sync { .. }
        | Request::MasterWitnessList { .. }
        | Request::MasterClientExpired { .. }
        | Request::MasterLoadStats { .. } => Layer::Master,
        Request::WitnessRecord { .. }
        | Request::WitnessCommuteCheck { .. }
        | Request::WitnessGc { .. }
        | Request::WitnessGetRecoveryData { .. }
        | Request::WitnessStart { .. }
        | Request::WitnessEnd { .. } => Layer::Witness,
        Request::BackupSync { .. }
        | Request::BackupFetch { .. }
        | Request::BackupRead { .. }
        | Request::BackupInstall { .. }
        | Request::BackupSetEpoch { .. } => Layer::Backup,
        Request::GetConfig
        | Request::AcquireLease
        | Request::RenewLease { .. }
        | Request::Consensus { .. }
        | Request::Batch { .. } => Layer::Coord,
    }
}

fn rpc_of(req: &Request) -> Option<RpcId> {
    match req {
        Request::ClientUpdate { rpc_id, .. } => Some(*rpc_id),
        Request::WitnessRecord { request } => Some(request.rpc_id),
        _ => None,
    }
}

/// FNV-1a over the request's wire encoding: equal on both sides of a
/// socket. Computed only where handlers run outside their caller's poll
/// (`keyed`), since encoding every request is most of the tracing cost.
fn match_key(keyed: bool, req: &Request) -> u64 {
    if keyed {
        crate::stats::digest(&req.to_bytes())
    } else {
        0
    }
}

/// Caller-side wrapper: one `Transport` span per call, plus frame counts.
pub struct TracedClient {
    pub inner: Arc<dyn RpcClient>,
    /// Whether spans carry request keys for [`link_orphans`] (TCP).
    pub keyed: bool,
}

impl RpcClient for TracedClient {
    fn call(&self, to: ServerId, req: Request) -> BoxFuture<'static, Result<Response, RpcError>> {
        FRAME_BYTES.fetch_add(req.encoded_len() as u64, Ordering::Relaxed);
        let span = open(Layer::Transport, kind_of(&req), match_key(self.keyed, &req), rpc_of(&req));
        let fut = self.inner.call(to, req);
        Box::pin(async move {
            let rsp = InSpan { span, fut }.await;
            count_reply(rsp.as_ref().ok());
            rsp
        })
    }

    fn call_batch(
        &self,
        to: ServerId,
        reqs: Vec<Request>,
    ) -> BoxFuture<'static, Result<Vec<Response>, RpcError>> {
        // The batch's frame size, as the transport would encode it.
        let frame = Request::Batch { requests: reqs };
        FRAME_BYTES.fetch_add(frame.encoded_len() as u64, Ordering::Relaxed);
        let Request::Batch { requests: reqs } = frame else { unreachable!() };
        let span = open(Layer::Transport, "Batch", 0, None);
        if span.is_some() {
            let batch = reqs.iter().map(|r| (match_key(self.keyed, r), kind_of(r))).collect();
            with_span(span, |s| s.batch = batch);
        }
        let fut = self.inner.call_batch(to, reqs);
        Box::pin(async move {
            let rsps = InSpan { span, fut }.await;
            let reply = rsps.as_ref().ok().map(|r| Response::Batch { responses: r.clone() });
            count_reply(reply.as_ref());
            rsps
        })
    }
}

fn count_reply(rsp: Option<&Response>) {
    FRAMES.fetch_add(2, Ordering::Relaxed);
    if let Some(r) = rsp {
        FRAME_BYTES.fetch_add(r.encoded_len() as u64, Ordering::Relaxed);
    }
}

/// Server-side wrapper: one span per handled request, in the serving layer.
pub struct TracedHandler {
    pub inner: SharedHandler,
    /// Whether spans carry request keys for [`link_orphans`] (TCP).
    pub keyed: bool,
}

impl RpcHandler for TracedHandler {
    fn handle(&self, from: ServerId, req: Request) -> BoxFuture<'static, Response> {
        let span = open(layer_of(&req), kind_of(&req), match_key(self.keyed, &req), rpc_of(&req));
        let fut = self.inner.handle(from, req);
        Box::pin(InSpan { span, fut })
    }
}

// ---- analysis ----------------------------------------------------------------

/// Links parentless handler spans (TCP) to the call span that sent the same
/// request bytes and whose interval contains them, earliest call first.
pub fn link_orphans(spans: &mut [Span]) {
    use std::collections::HashMap;
    // key -> call spans (index) carrying a request with that key, by start.
    let mut calls: HashMap<u64, Vec<usize>> = HashMap::new();
    for (i, s) in spans.iter().enumerate() {
        if s.layer != Layer::Transport || s.end_ns.is_none() {
            continue;
        }
        if s.batch.is_empty() {
            calls.entry(s.key).or_default().push(i);
        } else {
            for &(k, _) in &s.batch {
                calls.entry(k).or_default().push(i);
            }
        }
    }
    for i in 0..spans.len() {
        let s = &spans[i];
        let handler = !matches!(s.layer, Layer::Client | Layer::Transport);
        if !handler || s.parent.is_some() || s.key == 0 {
            continue;
        }
        let (start, end) = (s.start_ns, s.end_ns.unwrap_or(u64::MAX));
        let Some(cands) = calls.get_mut(&s.key) else { continue };
        if let Some(pos) = cands
            .iter()
            .position(|&c| spans[c].start_ns <= start && spans[c].end_ns.is_some_and(|e| end <= e))
        {
            spans[i].parent = Some(cands.remove(pos));
        }
    }
}

/// Per-span child lists.
pub fn children(spans: &[Span]) -> Vec<Vec<usize>> {
    let mut kids = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            kids[p].push(i);
        }
    }
    kids
}

/// Length of the part of `[start, end)` covered by the union of `intervals`.
pub fn covered_ns(start: u64, end: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut cur) = (0u64, start);
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cur), e.min(end));
        if e > s {
            total += e - s;
            cur = e;
        }
    }
    total
}

/// A span's self time: its duration minus the part its children cover.
pub fn self_ns(spans: &[Span], kids: &[Vec<usize>], i: usize) -> Option<u64> {
    let s = &spans[i];
    let end = s.end_ns?;
    let mut iv: Vec<(u64, u64)> =
        kids[i].iter().filter_map(|&c| spans[c].end_ns.map(|e| (spans[c].start_ns, e))).collect();
    Some(end.saturating_sub(s.start_ns) - covered_ns(s.start_ns, end, &mut iv))
}

/// Writes spans as tab-separated lines (index, parent, layer, kind, start,
/// end, rpc id) — the run's trace file.
pub fn write_tsv(spans: &[Span], out: &mut impl std::io::Write) -> std::io::Result<()> {
    writeln!(out, "id\tparent\tlayer\tkind\tstart_ns\tend_ns\trpc")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or(String::from("-"), |p| p.to_string());
        let end = s.end_ns.map_or(String::from("-"), |e| e.to_string());
        let rpc = s.rpc.map_or(String::from("-"), |r| format!("{}.{}", r.client.0, r.seq));
        writeln!(
            out,
            "{i}\t{parent}\t{}\t{}\t{}\t{end}\t{rpc}",
            s.layer.name(),
            s.kind,
            s.start_ns
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, kind: &'static str, parent: Option<usize>, s: u64, e: u64) -> Span {
        Span {
            layer,
            kind,
            parent,
            start_ns: s,
            end_ns: Some(e),
            key: 0,
            rpc: None,
            batch: Vec::new(),
        }
    }

    #[test]
    fn covered_merges_overlaps_and_clips() {
        let mut iv = vec![(5, 15), (0, 3), (12, 20), (30, 40)];
        // Within [2, 35): [2,3) + [5,20) + [30,35) = 1 + 15 + 5.
        assert_eq!(covered_ns(2, 35, &mut iv), 21);
        assert_eq!(covered_ns(0, 10, &mut []), 0);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // op [0,100) -> two parallel calls [10,60) and [20,70) -> a handler
        // [30,50) under the first call.
        let spans = vec![
            span(Layer::Client, "update", None, 0, 100),
            span(Layer::Transport, "ClientUpdate", Some(0), 10, 60),
            span(Layer::Transport, "WitnessRecord", Some(0), 20, 70),
            span(Layer::Master, "ClientUpdate", Some(1), 30, 50),
        ];
        let kids = children(&spans);
        assert_eq!(self_ns(&spans, &kids, 0), Some(40)); // 100 - |[10,70)|
        assert_eq!(self_ns(&spans, &kids, 1), Some(30)); // 50 - 20
        assert_eq!(self_ns(&spans, &kids, 2), Some(50));
        assert_eq!(self_ns(&spans, &kids, 3), Some(20));
    }

    #[test]
    fn orphans_link_to_the_containing_call_with_the_same_request() {
        let mut spans = vec![
            span(Layer::Transport, "ClientRead", None, 0, 100),
            span(Layer::Transport, "ClientRead", None, 200, 300),
            span(Layer::Master, "ClientRead", None, 210, 250),
            span(Layer::Master, "ClientRead", None, 10, 90),
            span(Layer::Master, "ClientRead", None, 400, 450),
        ];
        for s in &mut spans {
            s.key = 7;
        }
        link_orphans(&mut spans);
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[3].parent, Some(0));
        assert_eq!(spans[4].parent, None, "no call contains it");
    }

    #[test]
    fn spans_open_across_take_stay_out_of_the_next_generation() {
        take();
        let outer = open(Layer::Client, "update", 0, None);
        let before = take();
        assert_eq!(before.len(), 1);
        let prev = CURRENT.with(|c| c.replace(outer));
        let child = open(Layer::Transport, "ClientUpdate", 0, None);
        CURRENT.with(|c| c.set(prev));
        close(outer); // an id of the old generation: ignored
        close(child);
        let after = take();
        assert_eq!(after.len(), 1);
        assert_eq!(after[0].parent, None, "no parent across generations");
        assert!(after[0].end_ns.is_some());
    }

    #[test]
    fn in_span_sets_the_parent_of_nested_spans() {
        take();
        let rt = tokio::runtime::Builder::new_current_thread().build().expect("runtime");
        rt.block_on(in_span(Layer::Client, "update", None, async {
            in_span(Layer::Transport, "ClientUpdate", None, async {}).await;
        }));
        let spans = take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.end_ns.is_some()));
    }
}
