//! Making a Redis-style cache durable with CURP (§5.4) — on the **real
//! wired path**: a live cluster whose backups write-ahead-log every sync
//! round to on-disk append-only files and whose witnesses journal every
//! record before acknowledging.
//!
//! Plain Redis is either fast (no fsync — data lost on crash) or durable
//! (fsync per write — 10-100× slower). CURP gets both: the client completes
//! each update in 1 RTT once the witnesses have *journaled* it, while the
//! AOF fsync happens in the background, batched per sync round (§C.2).
//!
//! The demo runs a durable cluster, completes a workload, then cuts power
//! to **every** server at once and cold-restarts the cluster from nothing
//! but the on-disk AOFs and witness journals — no acknowledged write is
//! lost, and exactly-once semantics survive the outage. A short
//! fsync-per-write versus batched-fsync comparison on the raw
//! [`Aof`](curp::storage::Aof) substrate shows why the batching matters.
//!
//! ```sh
//! cargo run --example redis_durable
//! ```

use std::time::Instant;

use bytes::Bytes;
use curp::proto::message::LogEntry;
use curp::proto::op::{Op, OpResult};
use curp::proto::types::{ClientId, RpcId};
use curp::sim::tempdir::TempDir;
use curp::sim::{run_sim, Mode, RamcloudParams, SimCluster};
use curp::storage::{Aof, ShardedStore};

fn b(s: &str) -> Bytes {
    Bytes::from(s.to_owned())
}

/// The §C.2 comparison on the raw substrate: per-write fsync (durable
/// Redis) vs one fsync per 50-op batch (what the cluster's backups do).
fn fsync_batching_comparison(dir: &std::path::Path) -> std::io::Result<()> {
    let entry = |seq: u64, op: Op, result: OpResult| LogEntry {
        seq,
        rpc_id: Some(RpcId::new(ClientId(1), seq + 1)),
        op,
        result,
    };
    let n = 2_000u64;
    for (sync_every, label) in
        [(1, "fsync always  (durable Redis)"), (50, "batched fsync (CURP backups) ")]
    {
        let p = dir.join(format!("bench-{label:.5}.aof"));
        let store: ShardedStore = ShardedStore::new(1);
        let (mut aof, _) = Aof::open(&p)?;
        let t0 = Instant::now();
        for i in 0..n {
            let op = Op::Put {
                key: Bytes::from(format!("key-{i}")),
                value: Bytes::from(vec![b'x'; 100]),
            };
            let result = store.execute(&op);
            aof.append_batch(&[entry(i, op, result)])?;
            if i % sync_every == sync_every - 1 {
                aof.sync()?; // after every write, or once per 50-op round like the backups
            }
        }
        aof.sync()?;
        println!("  {label}: {:?} per write ({n} writes)", t0.elapsed() / n as u32);
        std::fs::remove_file(&p)?;
    }
    Ok(())
}

fn main() -> std::io::Result<()> {
    let dir = TempDir::new("curp-redis-durable-example")?;

    println!("fsync per write vs per 50-write batch on the raw AOF substrate:");
    fsync_batching_comparison(dir.path())?;

    run_sim(async move {
        // The wired path: every server persists — backups keep per-master
        // AOFs (one write + one fsync per sync round),
        // witnesses journal each record before the ack.
        let mut cluster =
            SimCluster::build_durable(Mode::Curp, RamcloudParams::new(3), 1, dir.path()).await;
        let client = cluster.client(0).await;

        println!("\nrunning a workload against the durable cluster...");
        for i in 0..60 {
            let r = client
                .update(Op::Incr { key: b("balance"), delta: 1 })
                .await
                .expect("update failed");
            if i == 59 {
                println!("60 deposits acknowledged; last result = {r:?}");
            }
        }
        client.update(Op::Put { key: b("owner"), value: b("ada") }).await.expect("put failed");
        let stats = &client.stats;
        println!(
            "client paths: {} fast (1 RTT, witness-journaled), {} master-synced (AOF-fsynced)",
            stats.fast_path.load(std::sync::atomic::Ordering::Relaxed),
            stats.synced_by_master.load(std::sync::atomic::Ordering::Relaxed),
        );

        println!("\n*** power loss: every server dies at once ***");
        let new_masters = cluster.power_loss_restart().await.expect("cold restart failed");
        println!(
            "cold-restarted from on-disk AOFs + witness journals; new master: {:?}",
            new_masters[0]
        );

        let balance = client.read(Op::Get { key: b("balance") }).await.expect("read failed");
        let owner = client.read(Op::Get { key: b("owner") }).await.expect("read failed");
        println!("after restart: balance = {balance:?}, owner = {owner:?}");
        assert_eq!(balance, OpResult::Value(Some(b("60"))));
        assert_eq!(owner, OpResult::Value(Some(b("ada"))));

        // Exactly-once survived the outage: the next deposit lands on 61,
        // it does not replay or double-apply anything.
        let r = client
            .update(Op::Incr { key: b("balance"), delta: 1 })
            .await
            .expect("post-restart update failed");
        assert_eq!(r, OpResult::Counter(61));
        println!("post-restart deposit: balance = {r:?}");
        println!("\nno acknowledged write was lost; no operation ran twice.");
    });
    Ok(())
}
