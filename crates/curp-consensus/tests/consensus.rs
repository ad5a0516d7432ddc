//! End-to-end tests of the §A.2 consensus extension on the simulated
//! network: elections, speculative fast path, superquorum recovery across
//! leader crashes, and zombie-leader fencing.

use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use curp_consensus::client::ConsensusClient;
use curp_consensus::msg::{unwrap_reply, wrap_rpc, ConsensusReply, ConsensusRpc};
use curp_consensus::replica::{Replica, ReplicaConfig, ReplicaHandler};
use curp_proto::op::{Op, OpResult};
use curp_proto::types::{ClientId, ServerId};
use curp_transport::MemNetwork;

struct Group {
    net: MemNetwork,
    replicas: Vec<Arc<Replica>>,
    ids: Vec<ServerId>,
}

impl Group {
    fn new(n: usize, seed: u64) -> Group {
        let net = MemNetwork::new(seed);
        net.set_rpc_timeout(Duration::from_millis(50));
        let ids: Vec<ServerId> = (1..=n as u64).map(ServerId).collect();
        let mut replicas = Vec::new();
        for &id in &ids {
            let peers: Vec<ServerId> = ids.iter().copied().filter(|&p| p != id).collect();
            let cfg = ReplicaConfig { seed, ..ReplicaConfig::default() };
            let replica = Replica::spawn(id, peers, cfg, net.client(id));
            net.add_simple_server(id, Arc::new(ReplicaHandler(Arc::clone(&replica))));
            replicas.push(replica);
        }
        Group { net, replicas, ids }
    }

    async fn await_leader(&self) -> (usize, ServerId) {
        for _ in 0..200 {
            tokio::time::sleep(Duration::from_millis(50)).await;
            let leaders: Vec<usize> = self
                .replicas
                .iter()
                .enumerate()
                .filter(|(_, r)| r.status().1 && !self.net.is_crashed(r.id()))
                .map(|(i, _)| i)
                .collect();
            if leaders.len() == 1 {
                return (leaders[0], self.replicas[leaders[0]].id());
            }
        }
        panic!("no stable leader elected");
    }

    fn client(&self, id: u64) -> ConsensusClient {
        ConsensusClient::new(self.net.client(ServerId(900 + id)), self.ids.clone(), ClientId(id))
    }

    /// Cuts a replica off in both directions (crash-equivalent for tests:
    /// the local task keeps running but cannot talk to anyone).
    fn isolate(&self, id: ServerId) {
        self.net.crash(id); // inbound
        for &other in &self.ids {
            if other != id {
                self.net.partition(id, other); // outbound
            }
        }
        self.net.partition(id, ServerId(901)); // clients
        self.net.partition(id, ServerId(902));
    }
}

fn b(s: &str) -> Bytes {
    Bytes::copy_from_slice(s.as_bytes())
}

#[tokio::test(start_paused = true)]
async fn three_replicas_elect_one_leader() {
    let group = Group::new(3, 1);
    let (_, leader) = group.await_leader().await;
    // Every replica agrees on the leader.
    tokio::time::sleep(Duration::from_millis(200)).await;
    for r in &group.replicas {
        let (_, _, hint) = r.status();
        assert_eq!(hint, Some(leader));
    }
}

#[tokio::test(start_paused = true)]
async fn commands_execute_and_read_back() {
    let group = Group::new(3, 2);
    group.await_leader().await;
    let client = group.client(1);
    let r = client.update(Op::Put { key: b("k"), value: b("v") }).await.unwrap();
    assert_eq!(r, OpResult::Written { version: 1 });
    let r = client.read(Op::Get { key: b("k") }).await.unwrap();
    assert_eq!(r, OpResult::Value(Some(b("v"))));
}

#[tokio::test(start_paused = true)]
async fn empty_multi_put_is_a_no_op_write() {
    let group = Group::new(3, 2);
    group.await_leader().await;
    let client = group.client(1);
    let r = client.update(Op::MultiPut { kvs: vec![] }).await.unwrap();
    assert_eq!(r, OpResult::Written { version: 0 });
    // The leader is still serving.
    let r = client.update(Op::Put { key: b("k"), value: b("v") }).await.unwrap();
    assert_eq!(r, OpResult::Written { version: 1 });
}

#[tokio::test(start_paused = true)]
async fn commutative_commands_take_the_fast_path() {
    let group = Group::new(5, 3);
    group.await_leader().await;
    let client = group.client(1);
    for i in 0..10 {
        client.update(Op::Put { key: b(&format!("k{i}")), value: b("v") }).await.unwrap();
    }
    let fast = client.stats.fast_path.load(std::sync::atomic::Ordering::Relaxed);
    assert!(fast >= 8, "expected mostly 1-RTT completions, got {fast}/10");
}

#[tokio::test(start_paused = true)]
async fn conflicting_commands_commit_before_responding() {
    let group = Group::new(3, 4);
    group.await_leader().await;
    let client = group.client(1);
    client.update(Op::Put { key: b("x"), value: b("1") }).await.unwrap();
    // Immediate second write to x conflicts with the (possibly uncommitted)
    // first; the leader must commit before answering.
    client.update(Op::Put { key: b("x"), value: b("2") }).await.unwrap();
    assert_eq!(client.read(Op::Get { key: b("x") }).await.unwrap(), OpResult::Value(Some(b("2"))));
}

#[tokio::test(start_paused = true)]
async fn fast_path_write_survives_leader_crash() {
    // The headline §A.2 property: a 1-RTT completed update outlives the
    // leader because a superquorum of witnesses holds it.
    let group = Group::new(5, 5);
    let (leader_idx, leader_id) = group.await_leader().await;
    let client = group.client(1);
    let r = client.update(Op::Incr { key: b("ctr"), delta: 7 }).await.unwrap();
    assert_eq!(r, OpResult::Counter(7));
    assert_eq!(
        client.stats.fast_path.load(std::sync::atomic::Ordering::Relaxed),
        1,
        "precondition: the write completed on the fast path"
    );
    // Kill the leader immediately — before its heartbeat interval can
    // replicate the entry.
    group.isolate(leader_id);
    let _ = leader_idx;

    // A new leader emerges and must recover the write from witnesses.
    group.await_leader().await;
    let client2 = group.client(2);
    let r = client2.read(Op::Get { key: b("ctr") }).await.unwrap();
    assert_eq!(r, OpResult::Value(Some(b("7"))), "completed write lost by recovery");
    // Exactly-once: retrying the same increment (same client, same rpc) must
    // not double-apply. The original client retries transparently.
    let r = client.update(Op::Incr { key: b("ctr"), delta: 7 }).await.unwrap();
    assert_eq!(r, OpResult::Counter(14), "new increment applies once on top of 7");
}

#[tokio::test(start_paused = true)]
async fn stale_term_records_are_rejected() {
    let group = Group::new(3, 6);
    let (_, leader) = group.await_leader().await;
    let (term, _, _) = group.replicas[0].status();
    let raw = group.net.client(ServerId(950));
    let request = curp_proto::message::RecordedRequest {
        master_id: curp_proto::types::MasterId(0),
        rpc_id: curp_proto::types::RpcId::new(ClientId(9), 1),
        key_hashes: Op::Put { key: b("z"), value: b("1") }.key_hashes(),
        op: Op::Put { key: b("z"), value: b("1") },
    };
    // A record tagged with an old term must be rejected (§A.2 zombies).
    let rsp = raw
        .call(
            leader,
            wrap_rpc(&ConsensusRpc::WitnessRecord {
                term: term.saturating_sub(1),
                request: request.clone(),
            }),
        )
        .await
        .unwrap();
    assert_eq!(unwrap_reply(&rsp), Some(ConsensusReply::RecordRejected));
    // The current term is accepted.
    let rsp =
        raw.call(leader, wrap_rpc(&ConsensusRpc::WitnessRecord { term, request })).await.unwrap();
    assert_eq!(unwrap_reply(&rsp), Some(ConsensusReply::RecordAccepted));
}

#[tokio::test(start_paused = true)]
async fn deposed_leader_discards_speculative_state() {
    let group = Group::new(3, 7);
    let (_, leader_id) = group.await_leader().await;
    let client = group.client(1);
    client.update(Op::Put { key: b("a"), value: b("1") }).await.unwrap();

    println!("phase-1: first write done");
    // Partition the leader away; a new leader takes over and accepts writes.
    group.isolate(leader_id);
    group.await_leader().await;
    println!("phase-2: new leader elected");
    let client2 = group.client(2);
    client2.update(Op::Put { key: b("a"), value: b("2") }).await.unwrap();
    println!("phase-3: second write done");

    // Heal the old leader; it must step down and converge on the new value.
    group.net.restart(leader_id);
    for &other in &group.ids {
        if other != leader_id {
            group.net.heal(leader_id, other);
        }
    }
    group.net.heal(leader_id, ServerId(901));
    group.net.heal(leader_id, ServerId(902));
    println!("phase-4: healed");
    tokio::time::sleep(Duration::from_millis(2_000)).await;
    println!("phase-5: settled");
    let old = group.replicas.iter().find(|r| r.id() == leader_id).unwrap();
    let (_, is_leader, _) = old.status();
    assert!(!is_leader, "deposed leader must have stepped down");
    assert_eq!(client2.read(Op::Get { key: b("a") }).await.unwrap(), OpResult::Value(Some(b("2"))));
}

#[tokio::test(start_paused = true)]
async fn group_makes_progress_with_f_failures() {
    let group = Group::new(5, 8);
    let (_, leader) = group.await_leader().await;
    // Kill two non-leader replicas (f = 2).
    let mut killed = 0;
    for r in &group.replicas {
        if r.id() != leader && killed < 2 {
            group.isolate(r.id());
            killed += 1;
        }
    }
    let client = group.client(1);
    // 1-RTT is impossible (superquorum = 4 > 3 live), but updates still
    // complete via the commit path.
    let r = client.update(Op::Put { key: b("k"), value: b("v") }).await.unwrap();
    assert_eq!(r, OpResult::Written { version: 1 });
    assert_eq!(client.stats.fast_path.load(std::sync::atomic::Ordering::Relaxed), 0);
    assert_eq!(client.read(Op::Get { key: b("k") }).await.unwrap(), OpResult::Value(Some(b("v"))));
}

/// A follower that missed several appends is repaired by the leader's
/// nextIndex backoff; its log converges and commits apply in order.
#[tokio::test(start_paused = true)]
async fn lagging_follower_log_is_repaired() {
    let group = Group::new(3, 9);
    let (_, leader) = group.await_leader().await;
    let laggard = group.ids.iter().copied().find(|&id| id != leader).unwrap();
    // Cut the laggard off and commit a batch of entries without it.
    group.net.crash(laggard);
    for &other in &group.ids {
        if other != laggard {
            group.net.partition(laggard, other);
        }
    }
    let client = group.client(1);
    for i in 0..8 {
        client.update(Op::Put { key: b(&format!("rep-{i}")), value: b("v") }).await.unwrap();
    }
    client.update(Op::Put { key: b("rep-0"), value: b("v2") }).await.unwrap(); // forces commit
                                                                               // Heal: heartbeats discover the gap and walk nextIndex back.
    group.net.restart(laggard);
    for &other in &group.ids {
        if other != laggard {
            group.net.heal(laggard, other);
        }
    }
    tokio::time::sleep(Duration::from_millis(2_000)).await;
    let lag_replica = group.replicas.iter().find(|r| r.id() == laggard).unwrap();
    let leader_replica = group.replicas.iter().find(|r| r.id() == leader).unwrap();
    assert!(
        lag_replica.commit_index() >= leader_replica.commit_index().saturating_sub(1),
        "laggard commit {} never caught up to leader {}",
        lag_replica.commit_index(),
        leader_replica.commit_index()
    );
}

/// Witness slots on every replica are garbage-collected as entries commit,
/// so the embedded caches do not fill up under sustained load.
#[tokio::test(start_paused = true)]
async fn witness_slots_are_gced_on_commit() {
    let group = Group::new(3, 10);
    group.await_leader().await;
    let client = group.client(1);
    for i in 0..200 {
        client.update(Op::Put { key: b(&format!("gc-{i}")), value: b("v") }).await.unwrap();
    }
    // Force everything to commit, then give heartbeats a moment to spread
    // the commit index.
    client.update(Op::Put { key: b("gc-0"), value: b("v2") }).await.unwrap();
    tokio::time::sleep(Duration::from_millis(1_000)).await;
    // If gc were broken, 200 distinct keys would occupy 200 slots; after
    // commit-driven gc only the uncommitted tail may remain.
    // (We can't reach into the witness cache from here; instead assert the
    // cluster still accepts 200 MORE distinct fast-path writes, which would
    // exhaust a 4096-slot/4-way cache eventually if nothing were freed —
    // and, more directly, that commit indexes advanced past all entries.)
    for r in &group.replicas {
        assert!(r.commit_index() >= 200, "commit stalled at {}", r.commit_index());
    }
    for i in 200..400 {
        client.update(Op::Put { key: b(&format!("gc-{i}")), value: b("v") }).await.unwrap();
    }
}
