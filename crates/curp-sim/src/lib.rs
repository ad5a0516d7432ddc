//! Simulation harness for reproducing the paper's evaluation.
//!
//! Everything here runs on [`curp_transport::MemNetwork`] under tokio's
//! *paused* clock, which turns the cluster into a deterministic
//! discrete-event simulation. Because tokio's timer rounds sleeps up to
//! 1 ms, simulations use **scaled virtual time**: 1 virtual nanosecond is
//! represented as 1 tokio millisecond ([`time`]). All latency models,
//! dispatch costs and measurements in this crate follow that convention, so
//! a measured "7.3 µs" is 7.3 million tokio-milliseconds of paused time —
//! which costs nothing in wall-clock terms.
//!
//! * [`time`] — the virtual-time helpers and the simulation runtime;
//! * [`cluster`] — [`SimCluster`], the one simulated deployment: its
//!   server layout ([`Topology`]), the shared build, client and measurement
//!   loops, and the RAMCloud-class calibration (Figures 5–7, 12) with the
//!   four systems compared in the paper: Original (synchronous
//!   replication), Async (unsafe asynchronous replication), CURP, and
//!   Unreplicated;
//! * [`redis`] — the Redis-class calibration of the same [`SimCluster`]
//!   ([`SimCluster::build_redis`], Figures 8–10, 13): TCP-grade latency
//!   with syscall costs, an fsync-priced local append-only "backup", and
//!   event-loop fsync batching;
//! * [`lincheck`] — a Wing–Gong linearizability checker used by the
//!   property tests to validate histories with injected crashes;
//! * [`nemesis`] / [`fleet`] — the chaos fleet: composable seed-driven
//!   fault-injection episodes and the per-seed runner that composes them
//!   against open-loop load, heals, and checks the full history (a failing
//!   seed is a one-line `CHAOS_SEED=<n>` repro — see `tests/chaos.rs`);
//! * [`tempdir`] — self-cleaning scratch directories for the durability
//!   scenarios (the power-loss nemesis restarts a [`SimCluster`] built with
//!   [`SimCluster::build_durable`] from real on-disk AOFs and journals).

pub mod cluster;
pub mod fleet;
pub mod lincheck;
pub mod nemesis;
pub mod redis;
pub mod time;

// The scratch-directory guard lives in `curp-storage` (shared with its own
// AOF tests); re-exported here because the durability *scenarios* — the
// power-loss nemesis, its tests and examples — are driven from this crate.
pub use curp_storage::tempdir;

pub use cluster::{Mode, OpSource, RamcloudParams, RunResult, SimCluster, Topology};
pub use curp_storage::TempDir;
pub use fleet::{
    drawn_episode_count, repro_line, repro_line_episodes, run_chaos, run_chaos_seed, shrink,
    shrink_chaos_seed, ChaosConfig, ChaosReport,
};
pub use lincheck::{
    check_linearizable, failing_keys_detailed, Counterexample, HistOp, HistoryEvent,
};
pub use nemesis::{
    draw_nemesis, draw_overlay, draw_schedule, Episode, Nemesis, ScheduleEvent, ScheduleLog,
};
pub use redis::{RedisCommand, RedisMode, RedisOps};
pub use time::{run_sim, to_virtual_ns, to_virtual_us, vns, vus};
