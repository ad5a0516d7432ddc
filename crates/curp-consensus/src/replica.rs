//! A consensus replica: Raft-style strong-leader RSM with an embedded CURP
//! witness (Appendix A.2).
//!
//! Standard Raft machinery: randomized election timeouts, log matching,
//! current-term commit rule (with a leadership no-op entry), majority
//! commit. The CURP extension changes three things:
//!
//! 1. the leader *executes speculatively*: a commutative command is executed
//!    and answered before it is replicated (non-commutative commands wait
//!    for commit, mirroring §3.2.3);
//! 2. every replica embeds a witness component that accepts term-tagged
//!    records of client commands, enforcing commutativity independently;
//! 3. a newly elected leader completes recovery before serving: it collects
//!    the witness contents of `f + 1` replicas (its own plus `f` peers) and
//!    replays every request found in at least `⌈f/2⌉ + 1` of them — by the
//!    superquorum argument of §A.2 this replays exactly the
//!    completed-but-uncommitted commands.
//!
//! On losing leadership a replica discards its speculative state and
//! rebuilds from the committed log prefix (the paper's "reload from a
//! checkpoint").

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use curp_proto::lockrank;
use curp_proto::message::{RecordedRequest, Request, Response};
use curp_proto::op::{Op, OpResult};
use curp_proto::types::{RpcId, ServerId};
use curp_proto::wire::Decode;
use curp_rifl::{CheckResult, RiflTable};
use curp_storage::ShardedStore;
use curp_transport::rpc::{BoxFuture, RpcClient, RpcHandler};
use curp_witness::cache::{CacheConfig, RecordOutcome, WitnessCache};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tokio::sync::watch;

use crate::msg::{unwrap_reply, wrap_reply, wrap_rpc, ConsensusReply, ConsensusRpc, RaftEntry};

/// Timing and sizing of a replica.
#[derive(Debug, Clone)]
pub struct ReplicaConfig {
    /// Minimum election timeout.
    pub election_timeout_min: Duration,
    /// Maximum election timeout.
    pub election_timeout_max: Duration,
    /// Heartbeat / replication interval (must be << election timeout).
    pub heartbeat_interval: Duration,
    /// Witness cache sizing.
    pub witness: CacheConfig,
    /// RNG seed for this replica's election jitter.
    pub seed: u64,
}

impl Default for ReplicaConfig {
    fn default() -> Self {
        ReplicaConfig {
            election_timeout_min: Duration::from_millis(150),
            election_timeout_max: Duration::from_millis(300),
            heartbeat_interval: Duration::from_millis(40),
            witness: CacheConfig::default(),
            seed: 7,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    Follower,
    Candidate,
    Leader,
}

struct St {
    term: u64,
    voted_for: Option<ServerId>,
    role: Role,
    leader_hint: Option<ServerId>,
    /// `log[i]` has index `i + 1`.
    log: Vec<RaftEntry>,
    commit: u64,
    /// Entries applied to `store` (leader: == log.len(); follower: == commit).
    applied: u64,
    /// Single-shard store: the state lock already serializes execution.
    store: ShardedStore,
    /// Store log-head after applying entry `i+1` (leader only; tracks the
    /// synced frontier for the commutativity check).
    exec_heads: Vec<u64>,
    rifl: RiflTable,
    witness: WitnessCache,
    next_index: HashMap<ServerId, u64>,
    match_index: HashMap<ServerId, u64>,
    votes: usize,
    election_deadline: tokio::time::Instant,
    rng: StdRng,
    /// Leaders only: witness recovery finished; safe to serve clients
    /// ("the new leader must recover from witnesses before accepting new
    /// operations", §A.2).
    recovered: bool,
}

/// One consensus replica.
pub struct Replica {
    id: ServerId,
    peers: Vec<ServerId>,
    cfg: ReplicaConfig,
    rpc: Arc<dyn RpcClient>,
    st: Mutex<St>,
    commit_tx: watch::Sender<u64>,
}

impl Replica {
    /// Creates and starts a replica. `peers` excludes `id`.
    pub fn spawn(
        id: ServerId,
        peers: Vec<ServerId>,
        cfg: ReplicaConfig,
        rpc: Arc<dyn RpcClient>,
    ) -> Arc<Replica> {
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ id.0);
        let timeout = Self::rand_timeout(&cfg, &mut rng);
        let replica = Arc::new(Replica {
            id,
            peers,
            cfg: cfg.clone(),
            rpc,
            st: Mutex::ranked(
                lockrank::CONSENSUS_REPLICA,
                "consensus.replica.st",
                St {
                    term: 0,
                    voted_for: None,
                    role: Role::Follower,
                    leader_hint: None,
                    log: Vec::new(),
                    commit: 0,
                    applied: 0,
                    store: ShardedStore::new(1),
                    exec_heads: Vec::new(),
                    rifl: RiflTable::new(),
                    witness: WitnessCache::new(cfg.witness),
                    next_index: HashMap::new(),
                    match_index: HashMap::new(),
                    votes: 0,
                    election_deadline: tokio::time::Instant::now() + timeout,
                    rng,
                    recovered: true,
                },
            ),
            commit_tx: watch::channel(0).0,
        });
        let ticker = Arc::clone(&replica);
        tokio::spawn(async move {
            ticker.run_ticker().await;
        });
        replica
    }

    fn rand_timeout(cfg: &ReplicaConfig, rng: &mut StdRng) -> Duration {
        let min = cfg.election_timeout_min.as_millis() as u64;
        let max = cfg.election_timeout_max.as_millis() as u64;
        Duration::from_millis(rng.gen_range(min..=max.max(min + 1)))
    }

    /// This replica's id.
    pub fn id(&self) -> ServerId {
        self.id
    }

    /// Current role/term/leader snapshot (tests).
    pub fn status(&self) -> (u64, bool, Option<ServerId>) {
        let st = self.st.lock();
        (st.term, st.role == Role::Leader, st.leader_hint)
    }

    /// Committed log length (tests).
    pub fn commit_index(&self) -> u64 {
        self.st.lock().commit
    }

    async fn run_ticker(self: Arc<Self>) {
        let tick = self.cfg.heartbeat_interval / 4;
        loop {
            tokio::time::sleep(tick).await;
            let (start_election, is_leader) = {
                let mut st = self.st.lock();
                match st.role {
                    Role::Leader => (false, true),
                    _ => {
                        if tokio::time::Instant::now() >= st.election_deadline {
                            // Become candidate for a new term.
                            st.term += 1;
                            st.role = Role::Candidate;
                            st.voted_for = Some(self.id);
                            st.votes = 1;
                            let t = Self::rand_timeout(&self.cfg, &mut st.rng);
                            st.election_deadline = tokio::time::Instant::now() + t;
                            (true, false)
                        } else {
                            (false, false)
                        }
                    }
                }
            };
            if start_election {
                self.broadcast_votes();
            }
            if is_leader {
                self.replicate_all();
            }
        }
    }

    fn broadcast_votes(self: &Arc<Self>) {
        let (term, lli, llt) = {
            let st = self.st.lock();
            let lli = st.log.len() as u64;
            let llt = st.log.last().map(|e| e.term).unwrap_or(0);
            (st.term, lli, llt)
        };
        for &peer in &self.peers {
            let me = Arc::clone(self);
            tokio::spawn(async move {
                let rpc = ConsensusRpc::RequestVote {
                    term,
                    candidate: me.id,
                    last_log_index: lli,
                    last_log_term: llt,
                };
                let Ok(rsp) = me.rpc.call(peer, wrap_rpc(&rpc)).await else { return };
                let Some(ConsensusReply::Vote { term: vote_term, granted }) = unwrap_reply(&rsp)
                else {
                    return;
                };
                let won = {
                    let mut st = me.st.lock();
                    if vote_term > st.term {
                        Self::step_down(&mut st, vote_term);
                        return;
                    }
                    if st.role != Role::Candidate || st.term != term || !granted {
                        return;
                    }
                    st.votes += 1;
                    let majority = me.peers.len().div_ceil(2) + 1;
                    if st.votes >= majority {
                        st.role = Role::Leader;
                        st.leader_hint = Some(me.id);
                        st.recovered = false;
                        let next = st.log.len() as u64 + 1;
                        for &p in &me.peers {
                            st.next_index.insert(p, next);
                            st.match_index.insert(p, 0);
                        }
                        // The leader's log is authoritative: speculatively
                        // apply any not-yet-applied suffix so the RIFL table
                        // covers *every* log entry before witness replay —
                        // otherwise a replicated-but-uncommitted entry would
                        // be replayed twice.
                        while st.applied < st.log.len() as u64 {
                            let e = st.log[st.applied as usize].clone();
                            let result = st.store.execute(&e.op);
                            if let Some(id) = e.rpc_id {
                                st.rifl.record(id, result);
                            }
                            let head = st.store.log_head();
                            st.exec_heads.push(head);
                            st.applied += 1;
                        }
                        true
                    } else {
                        false
                    }
                };
                if won {
                    me.clone().finish_leadership_transition(term).await;
                }
            });
        }
    }

    /// §A.2 leader recovery: collect `f + 1` witness sets (own + `f` peers),
    /// replay every request present in `≥ ⌈f/2⌉ + 1` of them, then append
    /// the leadership no-op that lets older entries commit.
    async fn finish_leadership_transition(self: Arc<Self>, term: u64) {
        let f = self.peers.len() / 2; // 2f+1 replicas total
        let own = {
            let st = self.st.lock();
            st.witness.all_requests()
        };
        let mut sets: Vec<Vec<RecordedRequest>> = vec![own];
        for &peer in &self.peers {
            if sets.len() > f {
                break;
            }
            let Ok(rsp) = self.rpc.call(peer, wrap_rpc(&ConsensusRpc::WitnessCollect)).await else {
                continue;
            };
            if let Some(ConsensusReply::WitnessData { requests }) = unwrap_reply(&rsp) {
                sets.push(requests);
            }
        }
        if sets.len() < f + 1 {
            // Not enough witness data reachable; step down and let another
            // election happen ("the new master must wait", §3.3).
            let mut st = self.st.lock();
            if st.term == term {
                Self::step_down(&mut st, term);
            }
            return;
        }
        let need = f.div_ceil(2) + 1; // ⌈f/2⌉ + 1
        let mut counts: HashMap<RpcId, (usize, RecordedRequest)> = HashMap::new();
        for set in &sets {
            for req in set {
                let e = counts.entry(req.rpc_id).or_insert_with(|| (0, req.clone()));
                e.0 += 1;
            }
        }
        let mut st = self.st.lock();
        if st.role != Role::Leader || st.term != term {
            return;
        }
        let mut replay: Vec<RecordedRequest> =
            counts.into_values().filter(|(n, _)| *n >= need).map(|(_, r)| r).collect();
        replay.sort_by_key(|r| r.rpc_id); // deterministic order (commutative anyway)
        for req in replay {
            if !matches!(st.rifl.check(req.rpc_id), CheckResult::New) {
                continue; // already in the log
            }
            // Replay trust boundary (DESIGN.md invariant 1): drop requests
            // whose cached footprint lies about the op, as the curp-core
            // master does.
            if !req.footprint_matches_op() {
                continue;
            }
            Self::append_and_apply(&mut st, term, Some(req.rpc_id), req.op.clone());
        }
        // Leadership no-op: commits everything above under the current-term
        // commit rule.
        Self::append_and_apply(&mut st, term, None, Op::Get { key: NOOP_KEY });
        st.recovered = true;
        drop(st);
        self.replicate_all();
    }

    /// Appends an entry, executes it speculatively and records RIFL.
    fn append_and_apply(st: &mut St, term: u64, rpc_id: Option<RpcId>, op: Op) -> OpResult {
        let index = st.log.len() as u64 + 1;
        let result = st.store.execute(&op);
        st.log.push(RaftEntry { term, index, rpc_id, op });
        st.exec_heads.push(st.store.log_head());
        st.applied = index;
        if let Some(id) = rpc_id {
            st.rifl.record(id, result.clone());
        }
        result
    }

    fn step_down(st: &mut St, term: u64) {
        let was_leader = st.role == Role::Leader;
        st.term = term;
        st.role = Role::Follower;
        st.voted_for = None;
        st.votes = 0;
        if was_leader {
            // Discard speculative execution: rebuild from the committed
            // prefix (the §A.2 "reload from a checkpoint").
            Self::rebuild_committed(st);
        }
    }

    /// Resets store/rifl to exactly the committed prefix of the log.
    fn rebuild_committed(st: &mut St) {
        let store = ShardedStore::new(1);
        let mut rifl = RiflTable::new();
        let mut exec_heads = Vec::with_capacity(st.commit as usize);
        for e in st.log.iter().take(st.commit as usize) {
            let result = store.execute(&e.op);
            if let Some(id) = e.rpc_id {
                rifl.record(id, result);
            }
            exec_heads.push(store.log_head());
        }
        store.mark_synced(store.log_head());
        st.store = store;
        st.rifl = rifl;
        st.exec_heads = exec_heads;
        st.applied = st.commit;
    }

    fn replicate_all(self: &Arc<Self>) {
        for &peer in &self.peers {
            let me = Arc::clone(self);
            tokio::spawn(async move {
                me.replicate_to(peer).await;
            });
        }
    }

    async fn replicate_to(self: &Arc<Self>, peer: ServerId) {
        let (term, prev_index, prev_term, entries, commit) = {
            let st = self.st.lock();
            if st.role != Role::Leader {
                return;
            }
            let next = st.next_index.get(&peer).copied().unwrap_or(1);
            let prev_index = next - 1;
            let prev_term = if prev_index == 0 { 0 } else { st.log[prev_index as usize - 1].term };
            let entries: Vec<RaftEntry> = st.log[prev_index as usize..].to_vec();
            (st.term, prev_index, prev_term, entries, st.commit)
        };
        let sent = entries.len() as u64;
        let rpc = ConsensusRpc::AppendEntries {
            term,
            leader: self.id,
            prev_index,
            prev_term,
            entries,
            commit,
        };
        let Ok(rsp) = self.rpc.call(peer, wrap_rpc(&rpc)).await else { return };
        let Some(ConsensusReply::Appended { term: rterm, ok, match_index }) = unwrap_reply(&rsp)
        else {
            return;
        };
        let mut st = self.st.lock();
        if rterm > st.term {
            Self::step_down(&mut st, rterm);
            return;
        }
        if st.role != Role::Leader || st.term != term {
            return;
        }
        if ok {
            let matched = prev_index + sent;
            st.match_index.insert(peer, matched);
            st.next_index.insert(peer, matched + 1);
            self.advance_commit(&mut st);
        } else {
            // Log repair: fall back to the follower's hint.
            st.next_index.insert(peer, match_index + 1);
        }
    }

    fn advance_commit(&self, st: &mut St) {
        let majority = self.peers.len().div_ceil(2) + 1;
        let mut n = st.log.len() as u64;
        while n > st.commit {
            // Current-term commit rule.
            if st.log[n as usize - 1].term == st.term {
                let count = 1 + self
                    .peers
                    .iter()
                    .filter(|p| st.match_index.get(p).copied().unwrap_or(0) >= n)
                    .count();
                if count >= majority {
                    break;
                }
            }
            n -= 1;
        }
        if n > st.commit {
            st.commit = n;
            self.on_commit_advanced(st);
        }
    }

    /// Shared commit handling: mark the synced frontier, gc the witness, and
    /// (followers) apply newly committed entries.
    fn on_commit_advanced(&self, st: &mut St) {
        // Followers apply lazily at commit time; the leader already executed.
        while st.applied < st.commit {
            let e = st.log[st.applied as usize].clone();
            let result = st.store.execute(&e.op);
            if let Some(id) = e.rpc_id {
                st.rifl.record(id, result);
            }
            st.exec_heads.push(st.store.log_head());
            st.applied += 1;
        }
        // Synced frontier = store position of the last committed entry.
        if st.commit > 0 {
            if let Some(&pos) = st.exec_heads.get(st.commit as usize - 1) {
                if pos > st.store.synced_pos() {
                    st.store.mark_synced(pos);
                }
            }
        }
        // Witness gc: committed requests no longer need witness slots.
        let mut pairs = Vec::new();
        for e in st.log.iter().take(st.commit as usize) {
            if let Some(id) = e.rpc_id {
                for h in e.op.key_hashes_iter() {
                    pairs.push((h, id));
                }
            }
        }
        if !pairs.is_empty() {
            st.witness.gc(&pairs);
        }
        self.commit_tx.send_modify(|c| *c = (*c).max(st.commit));
    }

    /// Waits until `index` is committed, nudging replication.
    async fn wait_commit(self: &Arc<Self>, index: u64) -> bool {
        let mut rx = self.commit_tx.subscribe();
        self.replicate_all();
        for _ in 0..10_000 {
            if *rx.borrow_and_update() >= index {
                return true;
            }
            if rx.changed().await.is_err() {
                return false;
            }
        }
        false
    }

    /// Handles one consensus RPC.
    pub async fn handle(self: &Arc<Self>, rpc: ConsensusRpc) -> ConsensusReply {
        match rpc {
            ConsensusRpc::RequestVote { term, candidate, last_log_index, last_log_term } => {
                let mut st = self.st.lock();
                if term > st.term {
                    Self::step_down(&mut st, term);
                }
                let (my_lli, my_llt) = {
                    let lli = st.log.len() as u64;
                    let llt = st.log.last().map(|e| e.term).unwrap_or(0);
                    (lli, llt)
                };
                let up_to_date =
                    last_log_term > my_llt || (last_log_term == my_llt && last_log_index >= my_lli);
                let granted = term == st.term
                    && up_to_date
                    && (st.voted_for.is_none() || st.voted_for == Some(candidate));
                if granted {
                    st.voted_for = Some(candidate);
                    let t = Self::rand_timeout(&self.cfg, &mut st.rng);
                    st.election_deadline = tokio::time::Instant::now() + t;
                }
                ConsensusReply::Vote { term: st.term, granted }
            }
            ConsensusRpc::AppendEntries {
                term,
                leader,
                prev_index,
                prev_term,
                entries,
                commit,
            } => {
                let mut st = self.st.lock();
                if term < st.term {
                    return ConsensusReply::Appended {
                        term: st.term,
                        ok: false,
                        match_index: st.commit,
                    };
                }
                if term > st.term || st.role != Role::Follower {
                    Self::step_down(&mut st, term);
                }
                st.leader_hint = Some(leader);
                let t = Self::rand_timeout(&self.cfg, &mut st.rng);
                st.election_deadline = tokio::time::Instant::now() + t;

                // Log matching.
                if prev_index > st.log.len() as u64
                    || (prev_index > 0 && st.log[prev_index as usize - 1].term != prev_term)
                {
                    return ConsensusReply::Appended {
                        term: st.term,
                        ok: false,
                        match_index: st.commit,
                    };
                }
                // Append, truncating conflicts.
                for e in entries {
                    let idx = e.index as usize;
                    if st.log.len() >= idx {
                        if st.log[idx - 1].term == e.term {
                            continue; // already have it
                        }
                        assert!(st.commit < e.index, "attempt to truncate a committed entry");
                        st.log.truncate(idx - 1);
                        // Discard any speculative execution beyond the log.
                        if st.applied > st.log.len() as u64 {
                            Self::rebuild_committed(&mut st);
                        }
                        st.exec_heads.truncate(idx - 1);
                    }
                    st.log.push(e);
                }
                let new_commit = commit.min(st.log.len() as u64);
                if new_commit > st.commit {
                    st.commit = new_commit;
                    self.on_commit_advanced(&mut st);
                }
                ConsensusReply::Appended {
                    term: st.term,
                    ok: true,
                    match_index: st.log.len() as u64,
                }
            }
            ConsensusRpc::Command { rpc_id, op } => {
                let (reply_now, wait_index) = {
                    let mut st = self.st.lock();
                    if st.role != Role::Leader {
                        return ConsensusReply::NotLeader { hint: st.leader_hint };
                    }
                    if !st.recovered {
                        return ConsensusReply::Busy { reason: "leader recovering".into() };
                    }
                    match st.rifl.check(rpc_id) {
                        CheckResult::Duplicate(result) => {
                            // Committed iff its entry is within the commit prefix.
                            let committed = st
                                .log
                                .iter()
                                .take(st.commit as usize)
                                .any(|e| e.rpc_id == Some(rpc_id));
                            let reply = if committed {
                                ConsensusReply::Committed { result }
                            } else {
                                ConsensusReply::Speculative { result }
                            };
                            return reply;
                        }
                        CheckResult::Stale => {
                            return ConsensusReply::Busy { reason: "stale rpc".into() }
                        }
                        CheckResult::New => {}
                    }
                    let term = st.term;
                    let conflict = st.store.touches_unsynced(&op);
                    let result = Self::append_and_apply(&mut st, term, Some(rpc_id), op);
                    let index = st.log.len() as u64;
                    if conflict {
                        (ConsensusReply::Committed { result }, Some(index))
                    } else {
                        (ConsensusReply::Speculative { result }, None)
                    }
                };
                if let Some(index) = wait_index {
                    if !self.wait_commit(index).await {
                        return ConsensusReply::Busy { reason: "commit stalled".into() };
                    }
                } else {
                    // Nudge background replication without blocking.
                    self.replicate_all();
                }
                reply_now
            }
            ConsensusRpc::Read { op } => loop {
                let wait_index = {
                    let st = self.st.lock();
                    if st.role != Role::Leader {
                        return ConsensusReply::NotLeader { hint: st.leader_hint };
                    }
                    if !st.recovered {
                        return ConsensusReply::Busy { reason: "leader recovering".into() };
                    }
                    if st.store.touches_unsynced(&op) {
                        Some(st.log.len() as u64)
                    } else {
                        let result = st.store.execute(&op);
                        return ConsensusReply::ReadResult { result };
                    }
                };
                if let Some(index) = wait_index {
                    if !self.wait_commit(index).await {
                        return ConsensusReply::Busy { reason: "commit stalled".into() };
                    }
                }
            },
            ConsensusRpc::Sync => {
                let index = {
                    let st = self.st.lock();
                    if st.role != Role::Leader {
                        return ConsensusReply::NotLeader { hint: st.leader_hint };
                    }
                    if !st.recovered {
                        return ConsensusReply::Busy { reason: "leader recovering".into() };
                    }
                    st.log.len() as u64
                };
                if self.wait_commit(index).await {
                    ConsensusReply::SyncDone
                } else {
                    ConsensusReply::Busy { reason: "commit stalled".into() }
                }
            }
            ConsensusRpc::WitnessRecord { term, request } => {
                let mut st = self.st.lock();
                // §A.2: reject records whose term does not match the
                // replica's — this fences clients of deposed leaders.
                if term != st.term {
                    return ConsensusReply::RecordRejected;
                }
                match st.witness.record(request) {
                    RecordOutcome::Accepted => ConsensusReply::RecordAccepted,
                    _ => ConsensusReply::RecordRejected,
                }
            }
            ConsensusRpc::WitnessCollect => {
                let st = self.st.lock();
                ConsensusReply::WitnessData { requests: st.witness.all_requests() }
            }
            ConsensusRpc::WhoLeads => {
                let st = self.st.lock();
                ConsensusReply::Leader { term: st.term, leader: st.leader_hint }
            }
        }
    }
}

const NOOP_KEY: Bytes = Bytes::from_static(b"__raft_noop__");

/// Transport adapter: decodes tunneled consensus messages.
pub struct ReplicaHandler(pub Arc<Replica>);

impl RpcHandler for ReplicaHandler {
    fn handle(&self, _from: ServerId, req: Request) -> BoxFuture<'static, Response> {
        let replica = Arc::clone(&self.0);
        Box::pin(async move {
            let Request::Consensus { payload } = req else {
                return Response::Retry { reason: "not a consensus message".into() };
            };
            let Ok(rpc) = ConsensusRpc::from_bytes_shared(payload) else {
                return Response::Retry { reason: "bad consensus payload".into() };
            };
            wrap_reply(&replica.handle(rpc).await)
        })
    }
}
