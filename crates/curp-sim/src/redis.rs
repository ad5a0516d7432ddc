//! The Redis-class calibration of [`SimCluster`] (Figures 8, 9, 10 and 13).
//!
//! §5.4 of the paper: Redis achieves durability by logging client requests
//! to an append-only file and fsyncing before responding; CURP hides that
//! fsync by recording on witnesses and writing the log in the background.
//! The model prices:
//!
//! * kernel TCP one-way latency with a heavy tail (latency "degrades
//!   rapidly above the 80th percentile", §5.4),
//! * ~2.5 µs of syscall cost per message at the client (the measured cost
//!   of the extra witness send/recv),
//! * an fsync of 50–100 µs on the NVMe append-only file, charged once per
//!   sync *batch* — Redis batches fsyncs across its event loop (§C.2),
//!   which the master's single-outstanding-sync machinery reproduces.
//!
//! The append-only file is modeled as a *local* backup (zero network
//! latency) whose sync handler sleeps for the fsync duration. "Original
//! Redis (durable)" is the master in [`SyncMode::GroupCommit`] against
//! that backup; "CURP (k witnesses)" keeps the backup asynchronous and
//! adds witness servers.
//!
//! Every command costs the same execution time (`EXEC_NS`), so Figure
//! 10's SET, HMSET and INCR medians come out identical: the figure checks
//! protocol latency, not per-command execution cost.

use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use curp_core::client::ClientConfig;
use curp_core::master::{MasterConfig, SyncMode};
use curp_proto::op::Op;
use curp_proto::types::ServerId;
use curp_storage::StoreConfig;
use curp_transport::latency::NetProfile;
use rand::rngs::StdRng;
use rand::Rng;

use crate::cluster::{Calibration, OpSource, SimCluster, Topology};
use crate::time::{vns, vus, MODEL_SCALE};

/// Which Redis configuration of Figure 8 to simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RedisMode {
    /// Plain cache: no fsync, no witnesses — fast and volatile.
    NonDurable,
    /// `appendfsync always`: fsync before every response (batched across
    /// the event loop under load, §C.2).
    Durable,
    /// CURP with `witnesses` witness servers hiding the fsync.
    Curp {
        /// Number of witnesses (1 or 2 in the paper).
        witnesses: usize,
    },
}

// The §5.4 model constants, in virtual nanoseconds.

/// Client syscall cost per message (~2.5 µs, §5.4).
const CLIENT_SYSCALL_NS: u64 = 2_500;
/// Redis event-loop cost per message on the server.
const SERVER_DISPATCH_NS: u64 = 1_200;
/// Event-loop cost per message on a witness server (a separate Redis
/// server, §5.4).
const WITNESS_DISPATCH_NS: u64 = 1_200;
/// Command execution cost, one price for every command.
const EXEC_NS: u64 = 1_500;
/// fsync on the NVMe append-only file (50–100 µs, §5.4).
const FSYNC_NS: u64 = 60_000;
/// Background AOF flush interval of the CURP modes.
const SYNC_INTERVAL_NS: u64 = 200_000;
/// Seed of the network model and the client loops.
const SEED: u64 = 0x5EED_CAFE;

/// The Redis layout: the server on s1, the append-only file on s2 (every
/// durable mode), witness servers from s10. Clients take s100 onwards as
/// in every [`SimCluster`]. The ids are part of the calibration: the
/// network seeds each link's RNG from its two endpoints.
fn redis_topology(mode: RedisMode) -> Topology {
    let witnesses = match mode {
        RedisMode::Curp { witnesses } => witnesses,
        _ => 0,
    };
    Topology {
        masters: vec![ServerId(1)],
        backups: if mode == RedisMode::NonDurable { Vec::new() } else { vec![ServerId(2)] },
        witnesses: (10..10 + witnesses as u64).map(ServerId).collect(),
        spares: Vec::new(),
    }
}

impl SimCluster {
    /// Builds the single-node Redis deployment of Figures 8–10 and 13
    /// (plus witnesses under CURP).
    pub async fn build_redis(mode: RedisMode) -> SimCluster {
        let durable = mode == RedisMode::Durable;
        let cal = Calibration {
            latency: Arc::new(NetProfile::TcpDatacenter.model().scaled(MODEL_SCALE)),
            rpc_timeout: vus(50_000),
            seed: SEED,
            master_dispatch: vns(SERVER_DISPATCH_NS),
            // The append-only file is a local disk, not a server.
            backup_dispatch: Duration::ZERO,
            witness_dispatch: vns(WITNESS_DISPATCH_NS),
            client_dispatch: vns(CLIENT_SYSCALL_NS),
            local_aof_fsync: Some(vns(FSYNC_NS)),
            master: MasterConfig {
                batch_size: 64,
                sync_interval: vns(SYNC_INTERVAL_NS),
                exec_cost: vns(EXEC_NS),
                hotkey_sync: false,
                hotkey_window: 64,
                sync_retry_limit: 10,
                sync_retry_backoff: vus(100),
                // One event-loop iteration's worth of request gathering
                // before the shared fsync (§C.2), amortizing it across
                // ready clients.
                sync_mode: if durable {
                    SyncMode::GroupCommit { coalesce: vus(25) }
                } else {
                    SyncMode::Speculative
                },
                // Redis is single-threaded: one shard reproduces its
                // serialized command loop faithfully in the model.
                store: StoreConfig::memory(1),
            },
            client: ClientConfig {
                record_witnesses: matches!(mode, RedisMode::Curp { .. }),
                max_retries: 50,
                retry_backoff: vus(500),
                retry_backoff_max: vus(8_000),
            },
            tiered: None,
        };
        SimCluster::assemble(cal, redis_topology(mode), None).await
    }
}

/// The Redis commands of Figure 10.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RedisCommand {
    /// `SET key value` — 100 B string values in the paper.
    Set,
    /// `HMSET key field value` — one 100 B member, 1 B field key.
    Hmset,
    /// `INCR key`.
    Incr,
}

/// Key width: "a random 30B key" (Figure 10), the index zero-padded.
const KEY_LEN: usize = 30;
/// SET and HMSET value size: 100 B (Figures 8–10).
const VALUE_SIZE: usize = 100;

/// A stream of one Redis command on random 30 B keys drawn from `keys`
/// distinct ones (Figure 10: "a random 30B key over 2M unique keys").
#[derive(Debug, Clone)]
pub struct RedisOps {
    /// The command every operation issues.
    pub command: RedisCommand,
    /// Number of distinct keys drawn from.
    pub keys: u64,
}

impl OpSource for RedisOps {
    fn draw(&mut self, rng: &mut StdRng) -> Op {
        let idx = rng.gen_range(0..self.keys);
        let key = Bytes::from(format!("{idx:0KEY_LEN$}"));
        let mut random_value = || {
            let mut value = vec![0u8; VALUE_SIZE];
            rng.fill(&mut value[..]);
            Bytes::from(value)
        };
        match self.command {
            RedisCommand::Set => Op::Put { key, value: random_value() },
            RedisCommand::Hmset => {
                Op::HSet { key, field: Bytes::from_static(b"f"), value: random_value() }
            }
            RedisCommand::Incr => Op::Incr { key, delta: 1 },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::run_sim;
    use std::sync::atomic::Ordering;

    fn sets(keys: u64) -> RedisOps {
        RedisOps { command: RedisCommand::Set, keys }
    }

    fn median_set_us(mode: RedisMode) -> f64 {
        run_sim(async move {
            let cluster = SimCluster::build_redis(mode).await;
            let (mut rec, _) = cluster.run_serial(200, 0xABCD, sets(100_000)).await;
            rec.median_us()
        })
    }

    #[test]
    fn durable_redis_pays_the_fsync() {
        let nd = median_set_us(RedisMode::NonDurable);
        let d = median_set_us(RedisMode::Durable);
        // Figure 8: non-durable ~25 µs; durable dominated by the ~85 µs fsync.
        assert!((15.0..40.0).contains(&nd), "non-durable median {nd:.1}");
        assert!(d > nd + 60.0, "durable {d:.1} vs non-durable {nd:.1}");
    }

    #[test]
    fn curp_hides_the_fsync() {
        let nd = median_set_us(RedisMode::NonDurable);
        let c1 = median_set_us(RedisMode::Curp { witnesses: 1 });
        // Figure 8: +~3 µs (12%) median for one witness — durability for ~free.
        let overhead = c1 - nd;
        assert!((0.0..12.0).contains(&overhead), "curp-1w {c1:.1} vs non-durable {nd:.1}");
    }

    #[test]
    fn second_witness_costs_more_via_tails() {
        let c1 = median_set_us(RedisMode::Curp { witnesses: 1 });
        let c2 = median_set_us(RedisMode::Curp { witnesses: 2 });
        // Figure 8/10: waiting on three heavy-tailed RPCs raises the median.
        assert!(c2 > c1, "2 witnesses {c2:.1} vs 1 witness {c1:.1}");
    }

    #[test]
    fn durable_throughput_approaches_nondurable_under_load() {
        // Figure 9: the event loop amortizes one fsync across all ready
        // clients, so with enough clients the durable server becomes
        // dispatch-bound like the non-durable one ("the original synchronous
        // form of Redis can offer throughput approaching non-durable Redis").
        let tp = |mode, clients| {
            run_sim(async move {
                let cluster = SimCluster::build_redis(mode).await;
                let r = cluster.run_closed_loop(clients, vus(40_000), |_| sets(2_000_000)).await;
                r.throughput_ops_per_sec
            })
        };
        let nd = tp(RedisMode::NonDurable, 50);
        let d_few = tp(RedisMode::Durable, 4);
        let d_many = tp(RedisMode::Durable, 50);
        assert!(d_many > nd * 0.5, "durable@50 {d_many:.0} should approach non-durable {nd:.0}");
        // And the gap must be wide at low client counts (the fsync shows).
        assert!(
            d_few < nd * 0.35,
            "durable@4 {d_few:.0} should lag far behind non-durable {nd:.0}"
        );
    }

    #[test]
    fn witness_crash_moves_sets_onto_the_aof() {
        // §4.4 on the Redis deployment: with a witness down, a SET cannot
        // complete on the 1-RTT fast path; the client falls back to asking
        // the server to sync, which appends it to the AOF.
        run_sim(async {
            let cluster = SimCluster::build_redis(RedisMode::Curp { witnesses: 2 }).await;
            assert_eq!(cluster.backup_servers(), vec![ServerId(2)]);
            assert_eq!(cluster.witness_servers(), vec![ServerId(10), ServerId(11)]);
            let aof = cluster.backup_servers()[0];
            let aof_next = || cluster.server(aof).unwrap().backup().next_seq(cluster.master_id);
            let client = cluster.client(0).await;
            let fast = || client.stats.fast_path.load(Ordering::Relaxed);
            let set = |k: &'static str| Op::Put { key: Bytes::from(k), value: Bytes::from("v") };

            client.update(set("a")).await.unwrap();
            assert_eq!(fast(), 1, "a healthy deployment takes the fast path");
            // The 200 µs background flush has not run: "a" is witness-only.
            assert_eq!(aof_next().unwrap_or(0), 0, "the AOF already holds the first SET");

            cluster.crash_server(cluster.witness_servers()[1]);
            client.update(set("b")).await.unwrap();
            assert_eq!(fast(), 1, "with a witness down the fast path must not be taken");
            let explicit = client.stats.explicit_sync.load(Ordering::Relaxed);
            assert_eq!(explicit, 1, "the fallback must complete through an explicit sync");
            assert!(
                aof_next().unwrap_or(0) >= 2,
                "the fallback SET must reach the AOF through a sync, next seq {:?}",
                aof_next()
            );
        });
    }
}

#[cfg(test)]
mod batching {
    use super::*;
    use crate::time::run_sim;

    #[test]
    fn event_loop_amortizes_fsyncs_across_clients() {
        // §C.2: "for each event-loop cycle, Redis ... executes all requests
        // ... after the iteration, Redis fsyncs once". Under 20 concurrent
        // clients the average ops-per-fsync must be well above 1.
        run_sim(async move {
            let cluster = SimCluster::build_redis(RedisMode::Durable).await;
            let sets = |_| RedisOps { command: RedisCommand::Set, keys: 2_000_000 };
            let r = cluster.run_closed_loop(20, vus(40_000), sets).await;
            let aof = cluster.net.stats(cluster.backup_servers()[0]).unwrap();
            let syncs = aof.requests_in.load(std::sync::atomic::Ordering::Relaxed);
            let per = r.ops as f64 / syncs as f64;
            assert!(per > 5.0, "only {per:.1} ops per fsync ({} ops, {syncs} fsyncs)", r.ops);
        });
    }
}
