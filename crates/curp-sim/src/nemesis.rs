//! Composable, seed-driven nemeses for the chaos fleet.
//!
//! A [`Nemesis`] is one fault-injection episode — inject, hold, heal —
//! whose every parameter (victim, rates, durations) was drawn up front
//! from a seeded RNG by [`draw_nemesis`]. Running one against a
//! [`SimCluster`] under the paused clock is therefore a pure function of
//! (seed, cluster state): the same seed replays the identical episode,
//! byte for byte, which is what makes a failing chaos seed a one-line
//! repro instead of a flake.
//!
//! Every state change a nemesis makes is recorded in a [`ScheduleLog`]
//! with its virtual-time offset. The log's FNV-1a [`hash`](ScheduleLog::hash)
//! is the replay oracle: two runs of the same seed must produce equal
//! hashes, and `tests/chaos.rs` asserts exactly that.
//!
//! The combinators cover the paper's failure model:
//!
//! * [`SymmetricPartition`] / [`AsymmetricPartition`] — §3.1's arbitrary
//!   loss, including the nastier one-way variant (requests arrive,
//!   responses vanish);
//! * [`PacketDrop`] / [`PacketDelay`] / [`PacketDup`] — per-link loss,
//!   added delay, and duplicate delivery (RIFL's exactly-once must absorb
//!   the dup, §4.5);
//! * [`CrashRestart`] — a backup or witness host dies mid-sync and
//!   cold-boots from its own disk alone;
//! * [`WitnessLoss`] — a witness goes dark, forcing the client's §4.4
//!   record-failure → explicit-sync fallback until it returns;
//! * [`MasterChurn`] — §4.6 master recovery onto the spare, under load;
//! * [`SplitMigration`] — §3.6 online split: half of a live partition's
//!   range drains onto a spare master while load keeps arriving;
//! * [`PowerLoss`] — the §5.4 whole-cluster outage and cold restart;
//! * [`CoordinatorCrash`] — the coordinator dies *mid-plan* (inside a
//!   recovery or a migration), cold-boots from its write-ahead intent
//!   log, and must resume or cleanly abort the interrupted plan.
//!
//! The five network combinators are also *overlays*
//! ([`Nemesis::is_overlay`]): the fleet can run them concurrently with a
//! structural episode through cloned network handles
//! ([`Nemesis::run_overlay`]), so e.g. a master recovery proceeds while a
//! one-way partition is still in force. [`draw_schedule`] draws such
//! mixed schedules as a vector of indexed [`Episode`]s — all parameters
//! up front, which is what lets the shrinker re-run an arbitrary episode
//! subset without disturbing the survivors' draws.

use std::cell::RefCell;
use std::fmt;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;

use curp_proto::types::ServerId;
use curp_transport::latency::Fixed;
use curp_transport::mem::{FaultSpec, MemNetwork};
use rand::rngs::StdRng;
use rand::Rng;
use std::sync::Arc;

use crate::cluster::{SimCluster, Topology};
use crate::time::{to_virtual_ns, vns};

/// The future a nemesis episode runs as. Local (non-`Send`): the whole
/// simulation lives on one paused current-thread runtime.
pub type NemesisFuture<'a> = Pin<Box<dyn Future<Output = Result<(), String>> + 'a>>;

/// One composable fault-injection episode.
pub trait Nemesis {
    /// Stable name, used in schedule logs and repro output.
    fn name(&self) -> &'static str;

    /// Whether this nemesis only makes sense on a durable cluster (it
    /// cold-restarts servers from disk). The fleet builds the cluster
    /// durable iff any drawn nemesis needs it.
    fn needs_disk(&self) -> bool {
        false
    }

    /// Runs the episode to completion: inject, hold, heal. Implementations
    /// must leave the cluster in a servable state (all faults cleared, all
    /// crashed servers restarted) unless they return `Err`.
    ///
    /// The default serves overlays: it snapshots the live masters and the
    /// cluster's replica pool and runs [`run_overlay`](Self::run_overlay).
    /// Structural nemeses override it.
    fn run<'a>(
        &'a self,
        cluster: &'a mut SimCluster,
        log: &'a mut ScheduleLog,
    ) -> NemesisFuture<'a> {
        let masters = cluster.master_servers();
        let pool = cluster.topology().replica_pool();
        self.run_overlay(&cluster.net, masters, pool, log)
    }

    /// Whether this episode touches only network links — never server
    /// processes, disks, or the partition map. Overlay episodes may run
    /// *concurrently* with one structural episode: the fleet launches them
    /// against cloned network handles while the structural stream holds
    /// the exclusive cluster borrow.
    fn is_overlay(&self) -> bool {
        false
    }

    /// Runs an overlay episode against the network alone. `masters` is a
    /// snapshot of the master hosts at launch time (an overlay cuts and
    /// heals exactly those links, even if a concurrent churn moves the
    /// partition meanwhile) and `pool` the replica servers a victim may be
    /// drawn from. Structural nemeses return `Err` without injecting.
    fn run_overlay<'a>(
        &'a self,
        _net: &'a MemNetwork,
        _masters: Vec<ServerId>,
        _pool: Vec<ServerId>,
        _log: &'a ScheduleLog,
    ) -> NemesisFuture<'a> {
        let name = self.name();
        Box::pin(async move { Err(format!("{name} is structural; it cannot run as an overlay")) })
    }
}

// ---------------------------------------------------------------------------
// Schedule log
// ---------------------------------------------------------------------------

/// One recorded state change, stamped with its virtual-time offset from
/// the log's creation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleEvent {
    /// Virtual nanoseconds since [`ScheduleLog::start`].
    pub at_vns: u64,
    /// The nemesis that made the change.
    pub nemesis: &'static str,
    /// What changed (server ids, rates, directions — never host paths).
    pub action: String,
}

impl fmt::Display for ScheduleEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:>10} vns] {:<20} {}", self.at_vns, self.nemesis, self.action)
    }
}

/// The deterministic record of everything the nemeses did to a cluster.
///
/// Timestamps come from the paused virtual clock, and actions mention only
/// protocol-level identifiers (server ids, rates), so the log — and its
/// [`hash`](Self::hash) — is identical across runs of the same seed, even
/// across processes.
///
/// Cloning shares the underlying event list: the fleet hands clones to
/// overlay episodes running concurrently with the structural stream, and
/// every recorder appends to the one log. The whole simulation runs on a
/// single paused-clock thread, so the interleaving — and therefore the
/// recorded order — is itself a pure function of the seed.
#[derive(Clone)]
pub struct ScheduleLog {
    epoch: tokio::time::Instant,
    events: Rc<RefCell<Vec<ScheduleEvent>>>,
}

impl ScheduleLog {
    /// Opens a log whose timestamps count from *now* (virtual time).
    pub fn start() -> ScheduleLog {
        ScheduleLog {
            epoch: tokio::time::Instant::now(),
            events: Rc::new(RefCell::new(Vec::new())),
        }
    }

    /// Records one state change at the current virtual time.
    pub fn record(&self, nemesis: &'static str, action: impl Into<String>) {
        self.events.borrow_mut().push(ScheduleEvent {
            at_vns: to_virtual_ns(self.epoch.elapsed()),
            nemesis,
            action: action.into(),
        });
    }

    /// The recorded events, in injection order.
    pub fn events(&self) -> Vec<ScheduleEvent> {
        self.events.borrow().clone()
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.borrow().len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.borrow().is_empty()
    }

    /// FNV-1a 64 over every event (timestamp, nemesis, action). Two runs
    /// of the same chaos seed must produce the same hash — this is the
    /// replay oracle `tests/chaos.rs` pins.
    pub fn hash(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(PRIME);
            }
        };
        for ev in self.events.borrow().iter() {
            eat(&ev.at_vns.to_le_bytes());
            eat(ev.nemesis.as_bytes());
            eat(ev.action.as_bytes());
            eat(b"\n");
        }
        h
    }
}

impl fmt::Display for ScheduleLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for ev in self.events.borrow().iter() {
            writeln!(f, "{ev}")?;
        }
        Ok(())
    }
}

fn pick(pool: &[ServerId], index: usize) -> Result<ServerId, String> {
    if pool.is_empty() {
        return Err("no servers to pick a victim from".into());
    }
    Ok(pool[index % pool.len()])
}

// ---------------------------------------------------------------------------
// Combinators
// ---------------------------------------------------------------------------

/// Cuts one replica server off from every live master, both directions,
/// for `hold_ns` of virtual time — then heals.
#[derive(Debug, Clone)]
pub struct SymmetricPartition {
    /// Victim index into the replica pool (modded at run time).
    pub victim: usize,
    /// How long the partition holds, in virtual nanoseconds.
    pub hold_ns: u64,
}

impl Nemesis for SymmetricPartition {
    fn name(&self) -> &'static str {
        "symmetric-partition"
    }

    fn is_overlay(&self) -> bool {
        true
    }

    fn run_overlay<'a>(
        &'a self,
        net: &'a MemNetwork,
        masters: Vec<ServerId>,
        pool: Vec<ServerId>,
        log: &'a ScheduleLog,
    ) -> NemesisFuture<'a> {
        Box::pin(async move {
            let victim = pick(&pool, self.victim)?;
            for m in &masters {
                net.partition(victim, *m);
                log.record(self.name(), format!("cut s{} <-> s{}", victim.0, m.0));
            }
            tokio::time::sleep(vns(self.hold_ns)).await;
            for m in &masters {
                net.heal(victim, *m);
            }
            log.record(self.name(), format!("heal s{}", victim.0));
            Ok(())
        })
    }
}

/// One-way partition: messages from the masters to one replica server (or
/// the reverse, per `inbound`) are blackholed while the opposite direction
/// still delivers — the asymmetric failure that loses only the *responses*.
#[derive(Debug, Clone)]
pub struct AsymmetricPartition {
    /// Victim index into the replica pool (modded at run time).
    pub victim: usize,
    /// `true`: master → victim direction is cut; `false`: victim → master.
    pub inbound: bool,
    /// How long the partition holds, in virtual nanoseconds.
    pub hold_ns: u64,
}

impl Nemesis for AsymmetricPartition {
    fn name(&self) -> &'static str {
        "asymmetric-partition"
    }

    fn is_overlay(&self) -> bool {
        true
    }

    fn run_overlay<'a>(
        &'a self,
        net: &'a MemNetwork,
        masters: Vec<ServerId>,
        pool: Vec<ServerId>,
        log: &'a ScheduleLog,
    ) -> NemesisFuture<'a> {
        Box::pin(async move {
            let victim = pick(&pool, self.victim)?;
            for m in &masters {
                let (from, to) = if self.inbound { (*m, victim) } else { (victim, *m) };
                net.partition_oneway(from, to);
                log.record(self.name(), format!("cut s{} -> s{}", from.0, to.0));
            }
            tokio::time::sleep(vns(self.hold_ns)).await;
            for m in &masters {
                let (from, to) = if self.inbound { (*m, victim) } else { (victim, *m) };
                net.heal_oneway(from, to);
            }
            log.record(self.name(), format!("heal s{}", victim.0));
            Ok(())
        })
    }
}

/// Seeded random loss on both directions of every master ↔ victim link.
#[derive(Debug, Clone)]
pub struct PacketDrop {
    /// Victim index into the replica pool (modded at run time).
    pub victim: usize,
    /// Per-message loss probability on the faulted links.
    pub drop_rate: f64,
    /// Seed for the links' fault RNGs (drawn from the fleet RNG).
    pub seed: u64,
    /// How long the loss holds, in virtual nanoseconds.
    pub hold_ns: u64,
}

impl Nemesis for PacketDrop {
    fn name(&self) -> &'static str {
        "packet-drop"
    }

    fn is_overlay(&self) -> bool {
        true
    }

    fn run_overlay<'a>(
        &'a self,
        net: &'a MemNetwork,
        masters: Vec<ServerId>,
        pool: Vec<ServerId>,
        log: &'a ScheduleLog,
    ) -> NemesisFuture<'a> {
        Box::pin(async move {
            let victim = pick(&pool, self.victim)?;
            let spec = FaultSpec { drop_rate: self.drop_rate, dup_rate: 0.0, seed: self.seed };
            for m in &masters {
                net.set_link_fault(*m, victim, spec);
                net.set_link_fault(victim, *m, spec);
                log.record(
                    self.name(),
                    format!("drop {:.2} on s{} <-> s{}", self.drop_rate, m.0, victim.0),
                );
            }
            tokio::time::sleep(vns(self.hold_ns)).await;
            for m in &masters {
                net.clear_link_fault(*m, victim);
                net.clear_link_fault(victim, *m);
            }
            log.record(self.name(), format!("heal s{}", victim.0));
            Ok(())
        })
    }
}

/// Replaces the latency model on every master ↔ victim link with a fixed,
/// much larger delay — reordering those links' messages far behind the
/// rest of the cluster's traffic.
#[derive(Debug, Clone)]
pub struct PacketDelay {
    /// Victim index into the replica pool (modded at run time).
    pub victim: usize,
    /// The substitute one-way delay, in virtual nanoseconds.
    pub delay_ns: u64,
    /// How long the slow links hold, in virtual nanoseconds.
    pub hold_ns: u64,
}

impl Nemesis for PacketDelay {
    fn name(&self) -> &'static str {
        "packet-delay"
    }

    fn is_overlay(&self) -> bool {
        true
    }

    fn run_overlay<'a>(
        &'a self,
        net: &'a MemNetwork,
        masters: Vec<ServerId>,
        pool: Vec<ServerId>,
        log: &'a ScheduleLog,
    ) -> NemesisFuture<'a> {
        Box::pin(async move {
            let victim = pick(&pool, self.victim)?;
            let model = Arc::new(Fixed(vns(self.delay_ns)));
            for m in &masters {
                net.set_link_latency(*m, victim, model.clone());
                net.set_link_latency(victim, *m, model.clone());
                log.record(
                    self.name(),
                    format!("delay {} vns on s{} <-> s{}", self.delay_ns, m.0, victim.0),
                );
            }
            tokio::time::sleep(vns(self.hold_ns)).await;
            for m in &masters {
                net.clear_link_latency(*m, victim);
                net.clear_link_latency(victim, *m);
            }
            log.record(self.name(), format!("heal s{}", victim.0));
            Ok(())
        })
    }
}

/// Duplicates requests on *every* link (cluster-wide default fault) — the
/// network retransmission storm RIFL's exactly-once table must absorb.
#[derive(Debug, Clone)]
pub struct PacketDup {
    /// Per-request duplication probability.
    pub dup_rate: f64,
    /// Seed for the links' fault RNGs (drawn from the fleet RNG).
    pub seed: u64,
    /// How long duplication holds, in virtual nanoseconds.
    pub hold_ns: u64,
}

impl Nemesis for PacketDup {
    fn name(&self) -> &'static str {
        "packet-dup"
    }

    fn is_overlay(&self) -> bool {
        true
    }

    fn run_overlay<'a>(
        &'a self,
        net: &'a MemNetwork,
        _masters: Vec<ServerId>,
        _pool: Vec<ServerId>,
        log: &'a ScheduleLog,
    ) -> NemesisFuture<'a> {
        Box::pin(async move {
            net.set_default_fault(Some(FaultSpec {
                drop_rate: 0.0,
                dup_rate: self.dup_rate,
                seed: self.seed,
            }));
            log.record(self.name(), format!("dup {:.2} on all links", self.dup_rate));
            tokio::time::sleep(vns(self.hold_ns)).await;
            net.set_default_fault(None);
            log.record(self.name(), "heal all links");
            Ok(())
        })
    }
}

/// Crashes one replica server mid-run and cold-restarts it from its own
/// disk alone (AOF + witness-journal replay) — the single-machine §4.6
/// failure. Requires a durable cluster.
#[derive(Debug, Clone)]
pub struct CrashRestart {
    /// Victim index into the replica pool (modded at run time).
    pub victim: usize,
    /// How long the server stays down, in virtual nanoseconds.
    pub hold_ns: u64,
}

impl Nemesis for CrashRestart {
    fn name(&self) -> &'static str {
        "crash-restart"
    }

    fn needs_disk(&self) -> bool {
        true
    }

    fn run<'a>(
        &'a self,
        cluster: &'a mut SimCluster,
        log: &'a mut ScheduleLog,
    ) -> NemesisFuture<'a> {
        Box::pin(async move {
            let victim = pick(&cluster.topology().replica_pool(), self.victim)?;
            cluster.crash_server(victim);
            log.record(self.name(), format!("crash s{}", victim.0));
            tokio::time::sleep(vns(self.hold_ns)).await;
            cluster.restart_server(victim)?;
            log.record(self.name(), format!("restart s{}", victim.0));
            Ok(())
        })
    }
}

/// Takes one *witness* host dark for `hold_ns`, then brings it back. While
/// it is down every record to it fails, so clients fall back to the
/// explicit-sync path (§4.4); on a co-hosted layout the collocated backup
/// goes down too and sync rounds stall until the restart.
#[derive(Debug, Clone)]
pub struct WitnessLoss {
    /// Victim index into the witness list (modded at run time).
    pub victim: usize,
    /// How long the witness stays down, in virtual nanoseconds.
    pub hold_ns: u64,
}

impl Nemesis for WitnessLoss {
    fn name(&self) -> &'static str {
        "witness-loss"
    }

    fn run<'a>(
        &'a self,
        cluster: &'a mut SimCluster,
        log: &'a mut ScheduleLog,
    ) -> NemesisFuture<'a> {
        Box::pin(async move {
            let victim = pick(&cluster.witness_servers(), self.victim)?;
            cluster.crash_server(victim);
            log.record(self.name(), format!("crash witness s{}", victim.0));
            tokio::time::sleep(vns(self.hold_ns)).await;
            cluster.restart_server(victim)?;
            log.record(self.name(), format!("restart witness s{}", victim.0));
            Ok(())
        })
    }
}

/// Kills one partition's master and recovers the partition onto the spare
/// server (§3.3/§4.6) — witness replay, backup restore, epoch bump — while
/// load keeps arriving. The deposed host rejoins as the next spare.
#[derive(Debug, Clone)]
pub struct MasterChurn {
    /// Partition index (modded by the partition count at run time).
    pub partition: usize,
}

impl Nemesis for MasterChurn {
    fn name(&self) -> &'static str {
        "master-churn"
    }

    fn run<'a>(
        &'a self,
        cluster: &'a mut SimCluster,
        log: &'a mut ScheduleLog,
    ) -> NemesisFuture<'a> {
        Box::pin(async move {
            let partition = self.partition % cluster.master_ids.len();
            let old = cluster.master_ids[partition];
            log.record(self.name(), format!("kill master m{} (partition {partition})", old.0));
            let new = cluster.churn_master(partition).await?;
            log.record(self.name(), format!("recovered as m{}", new.0));
            Ok(())
        })
    }
}

/// The §3.6 nemesis: an *online split*. One live partition drains, cuts
/// its range at a drawn point, and migrates the upper half onto a spare
/// master — drain, install, map publish — while the fleet's open-loop load
/// keeps arriving and re-routes through NotOwner redirects.
///
/// A live cluster may legitimately refuse a split (no spare server left, a
/// migration already draining, writes racing the cut); those refusals
/// change nothing and are recorded in the schedule as skips rather than
/// failing the episode — the linearizability check still judges whatever
/// the cluster actually did.
#[derive(Debug, Clone)]
pub struct SplitMigration {
    /// Partition index (modded by the live partition count at run time).
    pub partition: usize,
    /// Split point as a position inside the partition's range, in
    /// 1/1024ths (clamped so both halves stay non-empty).
    pub frac_1024: u64,
}

impl Nemesis for SplitMigration {
    fn name(&self) -> &'static str {
        "split-migration"
    }

    fn run<'a>(
        &'a self,
        cluster: &'a mut SimCluster,
        log: &'a mut ScheduleLog,
    ) -> NemesisFuture<'a> {
        Box::pin(async move {
            let cfg = cluster.coord.config();
            let idx = self.partition % cfg.partitions.len();
            let part = cfg.partitions[idx].clone();
            let width = part.range.end - part.range.start;
            if width < 2 {
                log.record(self.name(), format!("skip: partition {idx} too narrow to split"));
                return Ok(());
            }
            let split_at = (part.range.start
                + (width / 1024).max(1).saturating_mul(self.frac_1024.clamp(1, 1023)))
            .clamp(part.range.start + 1, part.range.end - 1);
            let Some(spare) = cluster.coord.spare_servers().first().copied() else {
                log.record(self.name(), "skip: no spare server");
                return Ok(());
            };
            log.record(
                self.name(),
                format!("split m{} at {:#018x} onto s{}", part.master_id.0, split_at, spare.0),
            );
            // Under continuous load the drain can lose the race with the
            // write stream a few times before a sync round converges.
            let mut last = String::new();
            for _ in 0..20 {
                match cluster
                    .coord
                    .migrate(
                        part.master_id,
                        split_at,
                        spare,
                        part.backups.clone(),
                        part.witnesses.clone(),
                    )
                    .await
                {
                    Ok(new_id) => {
                        // The coordinator appends the new partition last;
                        // mirror that so MasterChurn's index mapping holds.
                        cluster.master_ids.push(new_id);
                        log.record(
                            self.name(),
                            format!(
                                "installed m{} (map v{})",
                                new_id.0,
                                cluster.coord.config().version
                            ),
                        );
                        return Ok(());
                    }
                    Err(e) => {
                        last = e;
                        tokio::time::sleep(vns(250_000)).await;
                    }
                }
            }
            log.record(self.name(), format!("skip: {last}"));
            Ok(())
        })
    }
}

/// The §5.4 nemesis: every server loses power at once and the whole
/// cluster cold-boots from disk. Requires a durable cluster.
#[derive(Debug, Clone)]
pub struct PowerLoss;

impl Nemesis for PowerLoss {
    fn name(&self) -> &'static str {
        "power-loss"
    }

    fn needs_disk(&self) -> bool {
        true
    }

    fn run<'a>(
        &'a self,
        cluster: &'a mut SimCluster,
        log: &'a mut ScheduleLog,
    ) -> NemesisFuture<'a> {
        Box::pin(async move {
            log.record(self.name(), "whole-cluster power out");
            // A concurrent overlay fault (drop, delay, one-way cut) can make
            // one restart attempt fail; since recovery became re-entrant the
            // restart is safe to re-issue until the links let it through.
            let mut last = String::new();
            for _ in 0..20 {
                match cluster.power_loss_restart().await {
                    Ok(new_ids) => {
                        let ids: Vec<String> =
                            new_ids.iter().map(|m| format!("m{}", m.0)).collect();
                        log.record(
                            self.name(),
                            format!("cold restart, masters [{}]", ids.join(", ")),
                        );
                        return Ok(());
                    }
                    Err(e) => {
                        last = e;
                        tokio::time::sleep(vns(250_000)).await;
                    }
                }
            }
            Err(format!("power-loss restart never converged: {last}"))
        })
    }
}

/// The orchestrator-failure nemesis: the coordinator is killed *mid-plan*
/// — partway through a `recover_master` or a `migrate` — then cold-boots
/// from its write-ahead intent log and must resume (or cleanly abort) the
/// interrupted plan. This is the episode the intent log exists for.
///
/// The kill is a real cancellation: the orchestration future is raced
/// against a timer and dropped when the timer wins, exactly like a
/// coordinator process dying between two intent-log appends.
#[derive(Debug, Clone)]
pub struct CoordinatorCrash {
    /// Partition index (modded by the live partition count at run time).
    pub partition: usize,
    /// `true` → interrupt a master recovery; `false` → interrupt a split
    /// migration.
    pub recover: bool,
    /// How long the orchestration runs before the coordinator dies, in
    /// virtual nanoseconds.
    pub kill_after_ns: u64,
    /// `true` → finish via a whole-cluster power loss (the interrupted
    /// plan resolves inside `restart_cluster`); `false` → re-issue the
    /// same orchestration call against the rebooted coordinator.
    pub then_power_loss: bool,
    /// Split point for the migrate variant, in 1/1024ths.
    pub frac_1024: u64,
}

impl Nemesis for CoordinatorCrash {
    fn name(&self) -> &'static str {
        "coordinator-crash"
    }

    fn needs_disk(&self) -> bool {
        true
    }

    fn run<'a>(
        &'a self,
        cluster: &'a mut SimCluster,
        log: &'a mut ScheduleLog,
    ) -> NemesisFuture<'a> {
        Box::pin(async move {
            if self.recover {
                self.run_recover(cluster, log).await
            } else {
                self.run_migrate(cluster, log).await
            }
        })
    }
}

impl CoordinatorCrash {
    /// Crash a master, kill the coordinator mid-`recover_master`, cold-boot
    /// it from the intent log, and finish the recovery.
    async fn run_recover(
        &self,
        cluster: &mut SimCluster,
        log: &mut ScheduleLog,
    ) -> Result<(), String> {
        let partition = self.partition % cluster.master_ids.len();
        let old = cluster.master_ids[partition];
        let old_host = cluster.coord.config().partitions[partition].master;
        let Some(spare) = cluster.spare_server() else {
            log.record(self.name(), "skip: no spare server");
            return Ok(());
        };
        cluster.crash_server(old_host);
        log.record(
            self.name(),
            format!("kill master m{} then coordinator after {} vns", old.0, self.kill_after_ns),
        );
        let outcome = tokio::select! {
            res = cluster.coord.recover_master(old, spare) => Some(res),
            _ = tokio::time::sleep(vns(self.kill_after_ns)) => None,
        };
        let mut recovered = matches!(outcome, Some(Ok(_)));
        if outcome.is_none() {
            let resumed = cluster.coordinator_cold_boot()?;
            log.record(self.name(), format!("coordinator cold boot, {resumed} open plan(s)"));
        } else if recovered {
            log.record(self.name(), "recovery outran the kill timer");
        }
        if self.then_power_loss {
            // Finish through a whole-cluster outage: `restart_cluster`
            // re-anchors every partition and the interrupted plan resolves
            // (resumes or cleanly aborts) inside `resume_plans`.
            let mut last = String::new();
            let mut booted = false;
            for _ in 0..20 {
                match cluster.power_loss_restart().await {
                    Ok(_) => {
                        booted = true;
                        break;
                    }
                    Err(e) => {
                        last = e;
                        tokio::time::sleep(vns(250_000)).await;
                    }
                }
            }
            if !booted {
                return Err(format!("power-loss finish never converged: {last}"));
            }
        } else if !recovered {
            // Re-issue the same call: the coordinator finds the open plan
            // in its intent log and resumes it instead of starting over.
            let mut last = String::new();
            for _ in 0..40 {
                match cluster.coord.recover_master(old, spare).await {
                    Ok(_) => {
                        recovered = true;
                        break;
                    }
                    Err(e) => {
                        last = e;
                        tokio::time::sleep(vns(250_000)).await;
                    }
                }
            }
            if !recovered {
                return Err(format!("resumed recovery never converged: {last}"));
            }
        }
        // Mirror whatever masters the recovery (or restart) actually chose.
        let cfg = cluster.coord.config();
        cluster.master_ids = cfg.partitions.iter().map(|p| p.master_id).collect();
        cluster.master_id = cluster.master_ids[0];
        // The deposed host rejoins as the next spare — unless the restart
        // path already recovered a partition back onto it.
        if !cfg.partitions.iter().any(|p| p.master == old_host) {
            cluster.restart_server(old_host)?;
        }
        let new = cfg
            .partitions
            .get(partition)
            .map(|p| p.master_id)
            .ok_or_else(|| format!("partition {partition} vanished after recovery"))?;
        log.record(self.name(), format!("recovered as m{}", new.0));
        Ok(())
    }

    /// Kill the coordinator mid-`migrate`, cold-boot it, and let the resume
    /// path finish (or cleanly abort) the split.
    async fn run_migrate(
        &self,
        cluster: &mut SimCluster,
        log: &mut ScheduleLog,
    ) -> Result<(), String> {
        let cfg = cluster.coord.config();
        let idx = self.partition % cfg.partitions.len();
        let part = cfg.partitions[idx].clone();
        let width = part.range.end - part.range.start;
        if width < 2 {
            log.record(self.name(), format!("skip: partition {idx} too narrow to split"));
            return Ok(());
        }
        let split_at = (part.range.start
            + (width / 1024).max(1).saturating_mul(self.frac_1024.clamp(1, 1023)))
        .clamp(part.range.start + 1, part.range.end - 1);
        let Some(spare) = cluster.coord.spare_servers().first().copied() else {
            log.record(self.name(), "skip: no spare server");
            return Ok(());
        };
        log.record(
            self.name(),
            format!(
                "split m{} at {:#018x} onto s{}, coordinator dies after {} vns",
                part.master_id.0, split_at, spare.0, self.kill_after_ns
            ),
        );
        let migrate = cluster.coord.migrate(
            part.master_id,
            split_at,
            spare,
            part.backups.clone(),
            part.witnesses.clone(),
        );
        let outcome = tokio::select! {
            res = migrate => Some(res),
            _ = tokio::time::sleep(vns(self.kill_after_ns)) => None,
        };
        match outcome {
            Some(Ok(new_id)) => {
                cluster.master_ids.push(new_id);
                log.record(self.name(), format!("migration outran the kill timer (m{})", new_id.0));
                return Ok(());
            }
            Some(Err(e)) => {
                // A live refusal (drain race, no progress) before the kill
                // fired — same benign skip as SplitMigration.
                log.record(self.name(), format!("skip: {e}"));
                return Ok(());
            }
            None => {
                let resumed = cluster.coordinator_cold_boot()?;
                log.record(self.name(), format!("coordinator cold boot, {resumed} open plan(s)"));
            }
        }
        if self.then_power_loss {
            let mut last = String::new();
            for _ in 0..20 {
                match cluster.power_loss_restart().await {
                    Ok(_) => {
                        last.clear();
                        break;
                    }
                    Err(e) => {
                        last = e;
                        tokio::time::sleep(vns(250_000)).await;
                    }
                }
            }
            if !last.is_empty() {
                return Err(format!("power-loss finish never converged: {last}"));
            }
        } else {
            let mut last = String::new();
            let mut settled = false;
            for _ in 0..20 {
                match cluster
                    .coord
                    .migrate(
                        part.master_id,
                        split_at,
                        spare,
                        part.backups.clone(),
                        part.witnesses.clone(),
                    )
                    .await
                {
                    Ok(new_id) => {
                        cluster.master_ids.push(new_id);
                        log.record(
                            self.name(),
                            format!(
                                "resumed split installed m{} (map v{})",
                                new_id.0,
                                cluster.coord.config().version
                            ),
                        );
                        settled = true;
                        break;
                    }
                    Err(e) => {
                        last = e;
                        if last.contains("aborted") {
                            // The resume path judged the interrupted plan
                            // unsalvageable and rolled it back; that is a
                            // legal outcome, not a failure.
                            log.record(self.name(), format!("skip: {last}"));
                            settled = true;
                            break;
                        }
                        tokio::time::sleep(vns(250_000)).await;
                    }
                }
            }
            if !settled {
                log.record(self.name(), format!("skip: {last}"));
            }
        }
        // The restart/resume may have installed the new partition; keep the
        // id mirror in sync either way.
        let cfg = cluster.coord.config();
        cluster.master_ids = cfg.partitions.iter().map(|p| p.master_id).collect();
        cluster.master_id = cluster.master_ids[0];
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Drawing
// ---------------------------------------------------------------------------

/// Draws one fully-parameterised nemesis from the seeded RNG. Victim
/// indices are drawn against `topo`'s pool sizes (and re-modded at run
/// time), hold times span 200 µs – 2 ms of virtual time so an episode
/// overlaps tens of open-loop arrivals.
pub fn draw_nemesis(rng: &mut StdRng, topo: &Topology) -> Box<dyn Nemesis> {
    let hold_ns = rng.gen_range(200_000..=2_000_000u64);
    let pool = topo.replica_pool().len().max(1);
    match rng.gen_range(0..10u32) {
        0 => Box::new(SymmetricPartition { victim: rng.gen_range(0..pool), hold_ns }),
        1 => Box::new(AsymmetricPartition {
            victim: rng.gen_range(0..pool),
            inbound: rng.gen_bool(0.5),
            hold_ns,
        }),
        2 => Box::new(PacketDrop {
            victim: rng.gen_range(0..pool),
            drop_rate: rng.gen_range(0.05..0.35),
            seed: rng.gen(),
            hold_ns,
        }),
        3 => Box::new(PacketDelay {
            victim: rng.gen_range(0..pool),
            delay_ns: rng.gen_range(5_000..50_000u64),
            hold_ns,
        }),
        4 => Box::new(PacketDup { dup_rate: rng.gen_range(0.5..1.0), seed: rng.gen(), hold_ns }),
        5 => Box::new(CrashRestart { victim: rng.gen_range(0..pool), hold_ns }),
        6 => {
            Box::new(WitnessLoss { victim: rng.gen_range(0..topo.witnesses.len().max(1)), hold_ns })
        }
        7 => Box::new(MasterChurn { partition: rng.gen_range(0..topo.masters.len().max(1)) }),
        8 => Box::new(SplitMigration {
            partition: rng.gen_range(0..topo.masters.len().max(1)),
            frac_1024: rng.gen_range(64..=960),
        }),
        _ => Box::new(CoordinatorCrash {
            partition: rng.gen_range(0..topo.masters.len().max(1)),
            recover: rng.gen_bool(0.6),
            kill_after_ns: rng.gen_range(10_000..=300_000),
            then_power_loss: rng.gen_bool(0.25),
            frac_1024: rng.gen_range(64..=960),
        }),
    }
}

/// Draws one network-only nemesis — the five combinators that can run as a
/// concurrent overlay against cloned network handles while a structural
/// episode reshapes the cluster underneath them.
pub fn draw_overlay(rng: &mut StdRng, topo: &Topology) -> Box<dyn Nemesis> {
    let hold_ns = rng.gen_range(200_000..=2_000_000u64);
    let pool = topo.replica_pool().len().max(1);
    match rng.gen_range(0..5u32) {
        0 => Box::new(SymmetricPartition { victim: rng.gen_range(0..pool), hold_ns }),
        1 => Box::new(AsymmetricPartition {
            victim: rng.gen_range(0..pool),
            inbound: rng.gen_bool(0.5),
            hold_ns,
        }),
        2 => Box::new(PacketDrop {
            victim: rng.gen_range(0..pool),
            drop_rate: rng.gen_range(0.05..0.35),
            seed: rng.gen(),
            hold_ns,
        }),
        3 => Box::new(PacketDelay {
            victim: rng.gen_range(0..pool),
            delay_ns: rng.gen_range(5_000..50_000u64),
            hold_ns,
        }),
        _ => Box::new(PacketDup { dup_rate: rng.gen_range(0.5..1.0), seed: rng.gen(), hold_ns }),
    }
}

/// One drawn slot in a chaos schedule. Every draw happens up front in
/// [`draw_schedule`], so a subset of episodes (selected by `index`) can be
/// re-run without disturbing the other episodes' parameters — the property
/// the shrinker depends on.
pub struct Episode {
    /// Position in the drawn schedule; stable under masking.
    pub index: usize,
    pub nemesis: Box<dyn Nemesis>,
    /// `true` → runs concurrently (against cloned network handles) while
    /// the structural stream reshapes the cluster underneath it.
    pub overlay: bool,
    /// Overlay: launch delay from schedule start. Structural: gap slept
    /// before the episode fires.
    pub at_ns: u64,
}

/// Draws a whole schedule: 1–3 structural episodes run strictly in
/// sequence (with [`PowerLoss`] mixed in at low probability — it is the
/// heaviest episode by far), plus 0–2 network overlays that run
/// *concurrently* with the structural stream. The heal barrier moves to
/// the end of the schedule: while any episode is live, another's faults
/// may still be in force.
pub fn draw_schedule(rng: &mut StdRng, topo: &Topology) -> Vec<Episode> {
    let mut episodes = Vec::new();
    let structural = rng.gen_range(1..=3);
    for _ in 0..structural {
        let nemesis = if rng.gen_bool(0.15) {
            Box::new(PowerLoss) as Box<dyn Nemesis>
        } else {
            draw_nemesis(rng, topo)
        };
        let at_ns = rng.gen_range(30_000..=300_000u64);
        episodes.push(Episode { index: episodes.len(), nemesis, overlay: false, at_ns });
    }
    let overlays = rng.gen_range(0..=2);
    for _ in 0..overlays {
        let nemesis = draw_overlay(rng, topo);
        let at_ns = rng.gen_range(0..=600_000u64);
        episodes.push(Episode { index: episodes.len(), nemesis, overlay: true, at_ns });
    }
    episodes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{Mode, RamcloudParams, SimCluster};
    use crate::time::run_sim;
    use crate::TempDir;
    use bytes::Bytes;
    use curp_proto::op::{Op, OpResult};
    use rand::SeedableRng;

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    async fn put(cluster: &SimCluster, key: &str, val: &str) {
        let client = cluster.client(7).await;
        client.update(Op::Put { key: b(key), value: b(val) }).await.expect("put");
    }

    async fn get(cluster: &SimCluster, key: &str) -> Option<Bytes> {
        let client = cluster.client(8).await;
        match client.read(Op::Get { key: b(key) }).await.expect("get") {
            OpResult::Value(v) => v,
            other => panic!("unexpected read result {other:?}"),
        }
    }

    /// Runs one nemesis against a fresh memory cluster and asserts the
    /// cluster still serves reads and writes afterwards.
    fn survives(nemesis: impl Nemesis, expect_events: usize) {
        run_sim(async move {
            let mut cluster = SimCluster::build(Mode::Curp, RamcloudParams::new(3)).await;
            put(&cluster, "k", "before").await;
            let mut log = ScheduleLog::start();
            nemesis.run(&mut cluster, &mut log).await.expect("nemesis failed");
            assert_eq!(log.len(), expect_events, "schedule:\n{log}");
            assert_ne!(log.hash(), 0);
            put(&cluster, "k", "after").await;
            assert_eq!(get(&cluster, "k").await, Some(b("after")));
        });
    }

    #[test]
    fn symmetric_partition_holds_then_heals() {
        // 1 master → one cut event + one heal event.
        survives(SymmetricPartition { victim: 0, hold_ns: 50_000 }, 2);
    }

    #[test]
    fn asymmetric_partition_cuts_one_direction_then_heals() {
        survives(AsymmetricPartition { victim: 1, inbound: true, hold_ns: 50_000 }, 2);
        survives(AsymmetricPartition { victim: 1, inbound: false, hold_ns: 50_000 }, 2);
    }

    #[test]
    fn packet_drop_is_cleared_after_hold() {
        survives(PacketDrop { victim: 2, drop_rate: 0.3, seed: 42, hold_ns: 50_000 }, 2);
    }

    #[test]
    fn packet_delay_slows_then_restores_the_link() {
        survives(PacketDelay { victim: 0, delay_ns: 20_000, hold_ns: 50_000 }, 2);
    }

    #[test]
    fn packet_dup_preserves_exactly_once() {
        run_sim(async {
            let mut cluster = SimCluster::build(Mode::Curp, RamcloudParams::new(3)).await;
            let client = cluster.client(7).await;
            // Duplicate every request while a counter climbs: RIFL must
            // absorb every duplicate or the count overshoots.
            let nemesis = PacketDup { dup_rate: 1.0, seed: 7, hold_ns: 1 };
            let mut log = ScheduleLog::start();
            // Inject by hand (hold window is irrelevant here — the fault
            // stays on while we drive load, then we heal explicitly).
            cluster.net.set_default_fault(Some(FaultSpec {
                drop_rate: 0.0,
                dup_rate: 1.0,
                seed: 7,
            }));
            for _ in 0..10 {
                client.update(Op::Incr { key: b("c"), delta: 1 }).await.expect("incr");
            }
            cluster.net.set_default_fault(None);
            let r = client.read(Op::Get { key: b("c") }).await.expect("read");
            assert_eq!(r, OpResult::Value(Some(b("10"))), "duplicates double-applied");
            // And the combinator itself heals cleanly.
            nemesis.run(&mut cluster, &mut log).await.expect("nemesis failed");
            assert_eq!(log.len(), 2);
        });
    }

    #[test]
    fn crash_restart_mid_sync_cold_boots_the_backup() {
        run_sim(async {
            let dir = TempDir::new("curp-nemesis-crashrestart").unwrap();
            let mut params = RamcloudParams::new(3);
            params.batch_size = 2; // frequent syncs: the AOF carries state
            let mut cluster = SimCluster::build_durable(Mode::Curp, params, 1, dir.path()).await;
            for i in 0..6 {
                put(&cluster, "k", &format!("v{i}")).await;
            }
            let mut log = ScheduleLog::start();
            let nemesis = CrashRestart { victim: 0, hold_ns: 100_000 };
            assert!(nemesis.needs_disk());
            nemesis.run(&mut cluster, &mut log).await.expect("nemesis failed");
            assert_eq!(log.len(), 2, "schedule:\n{log}");
            // The restarted backup was rebuilt from disk and keeps serving:
            // new writes sync to it and reads see them.
            put(&cluster, "k", "post").await;
            assert_eq!(get(&cluster, "k").await, Some(b("post")));
        });
    }

    #[test]
    fn witness_loss_forces_sync_fallback_then_recovers() {
        run_sim(async {
            let mut params = RamcloudParams::new(3);
            params.separate_witnesses = true;
            // No background syncing: only the §4.4 fallback syncs. Writes
            // use distinct keys — with syncs off, witness records linger,
            // and a same-key record would be rejected as non-commuting
            // (masking the fast-path recovery this test pins).
            params.batch_size = 10_000;
            params.sync_interval_ns = u64::MAX / 2048;
            let mut cluster = SimCluster::build(Mode::Curp, params).await;
            let client = cluster.client(7).await;
            client.update(Op::Put { key: b("a"), value: b("v1") }).await.expect("put");
            assert_eq!(client.stats.fast_path.load(std::sync::atomic::Ordering::Relaxed), 1);

            let mut log = ScheduleLog::start();
            let nemesis = WitnessLoss { victim: 0, hold_ns: 200_000 };
            let run = nemesis.run(&mut cluster, &mut log);
            // Race a write against the outage window: it must complete (via
            // the sync fallback — the witness is down) without fast-pathing.
            let fut = async {
                tokio::time::sleep(vns(50_000)).await;
                client.update(Op::Put { key: b("b"), value: b("v2") }).await.expect("put");
            };
            let (ran, ()) = tokio::join!(run, fut);
            ran.expect("nemesis failed");
            assert_eq!(
                client.stats.fast_path.load(std::sync::atomic::Ordering::Relaxed),
                1,
                "a write during witness loss cannot take the fast path"
            );
            // Witness back: the fast path returns.
            client.update(Op::Put { key: b("c"), value: b("v3") }).await.expect("put");
            assert_eq!(client.stats.fast_path.load(std::sync::atomic::Ordering::Relaxed), 2);
        });
    }

    #[test]
    fn master_churn_moves_the_partition_to_the_spare() {
        run_sim(async {
            let mut cluster = SimCluster::build(Mode::Curp, RamcloudParams::new(3)).await;
            put(&cluster, "k", "v").await;
            let old = cluster.master_id;
            let mut log = ScheduleLog::start();
            MasterChurn { partition: 0 }.run(&mut cluster, &mut log).await.expect("churn failed");
            assert_ne!(cluster.master_id, old);
            assert_eq!(log.len(), 2, "schedule:\n{log}");
            assert_eq!(get(&cluster, "k").await, Some(b("v")));
        });
    }

    #[test]
    fn split_migration_splits_a_live_partition_then_skips_without_a_spare() {
        run_sim(async {
            let mut cluster = SimCluster::build(Mode::Curp, RamcloudParams::new(3)).await;
            put(&cluster, "k", "v").await;
            let before = cluster.coord.config();
            let mut log = ScheduleLog::start();
            SplitMigration { partition: 0, frac_1024: 512 }
                .run(&mut cluster, &mut log)
                .await
                .expect("split failed");
            let after = cluster.coord.config();
            assert_eq!(after.partitions.len(), before.partitions.len() + 1);
            assert!(after.version > before.version, "a split must publish a newer map");
            assert_eq!(cluster.master_ids.len(), 2, "new master mirrored into the sim");
            assert_eq!(log.len(), 2, "schedule:\n{log}");
            // Both halves keep serving through the published map.
            put(&cluster, "k", "after").await;
            assert_eq!(get(&cluster, "k").await, Some(b("after")));
            // The default topology had exactly one spare — a second split
            // finds none and records a benign skip instead of failing.
            let mut log2 = ScheduleLog::start();
            SplitMigration { partition: 1, frac_1024: 200 }
                .run(&mut cluster, &mut log2)
                .await
                .expect("no-spare split must not error");
            assert_eq!(log2.len(), 1, "schedule:\n{log2}");
            assert!(log2.events()[0].action.contains("no spare"), "{log2}");
            assert_eq!(cluster.coord.config().partitions.len(), after.partitions.len());
        });
    }

    #[test]
    fn power_loss_nemesis_cold_restarts_the_cluster() {
        run_sim(async {
            let dir = TempDir::new("curp-nemesis-powerloss").unwrap();
            let mut params = RamcloudParams::new(3);
            params.batch_size = 5;
            let mut cluster = SimCluster::build_durable(Mode::Curp, params, 1, dir.path()).await;
            put(&cluster, "k", "v").await;
            let old = cluster.master_id;
            let mut log = ScheduleLog::start();
            PowerLoss.run(&mut cluster, &mut log).await.expect("power loss failed");
            assert_ne!(cluster.master_id, old, "the partition must be re-incarnated");
            assert_eq!(get(&cluster, "k").await, Some(b("v")));
            assert_eq!(log.len(), 2);
        });
    }

    #[test]
    fn coordinator_crash_mid_recovery_resumes_from_the_intent_log() {
        run_sim(async {
            let dir = TempDir::new("curp-nemesis-coordcrash-recover").unwrap();
            let mut params = RamcloudParams::new(3);
            params.batch_size = 5;
            let mut cluster = SimCluster::build_durable(Mode::Curp, params, 1, dir.path()).await;
            put(&cluster, "k", "v").await;
            let old = cluster.master_id;
            let v_before = cluster.coord.config().version;
            let mut log = ScheduleLog::start();
            let nemesis = CoordinatorCrash {
                partition: 0,
                recover: true,
                // 1 vns: the kill always beats the first recovery RPC, so
                // the plan is interrupted with certainty.
                kill_after_ns: 1,
                then_power_loss: false,
                frac_1024: 512,
            };
            assert!(nemesis.needs_disk());
            nemesis.run(&mut cluster, &mut log).await.expect("coordinator-crash failed");
            assert_ne!(cluster.master_id, old, "the partition must be re-incarnated");
            assert!(cluster.coord.config().version > v_before, "recovery must publish a newer map");
            assert_eq!(cluster.coord.open_plan_count(), 0, "no plan may stay open");
            let rendered = format!("{log}");
            assert!(rendered.contains("cold boot"), "schedule:\n{log}");
            put(&cluster, "k", "after").await;
            assert_eq!(get(&cluster, "k").await, Some(b("after")));
        });
    }

    #[test]
    fn coordinator_crash_mid_recovery_survives_a_power_loss_finish() {
        run_sim(async {
            let dir = TempDir::new("curp-nemesis-coordcrash-power").unwrap();
            let mut params = RamcloudParams::new(3);
            params.batch_size = 5;
            let mut cluster = SimCluster::build_durable(Mode::Curp, params, 1, dir.path()).await;
            put(&cluster, "k", "v").await;
            let v_before = cluster.coord.config().version;
            let mut log = ScheduleLog::start();
            CoordinatorCrash {
                partition: 0,
                recover: true,
                kill_after_ns: 1,
                then_power_loss: true,
                frac_1024: 512,
            }
            .run(&mut cluster, &mut log)
            .await
            .expect("coordinator-crash + power-loss failed");
            assert!(cluster.coord.config().version > v_before);
            assert_eq!(cluster.coord.open_plan_count(), 0, "restart must resolve the open plan");
            assert_eq!(get(&cluster, "k").await, Some(b("v")));
            put(&cluster, "k", "after").await;
            assert_eq!(get(&cluster, "k").await, Some(b("after")));
        });
    }

    #[test]
    fn coordinator_crash_mid_migrate_resumes_or_aborts_cleanly() {
        run_sim(async {
            let dir = TempDir::new("curp-nemesis-coordcrash-migrate").unwrap();
            let mut params = RamcloudParams::new(3);
            params.batch_size = 5;
            let mut cluster = SimCluster::build_durable(Mode::Curp, params, 1, dir.path()).await;
            put(&cluster, "k", "v").await;
            let before = cluster.coord.config();
            let mut log = ScheduleLog::start();
            CoordinatorCrash {
                partition: 0,
                recover: false,
                kill_after_ns: 1,
                then_power_loss: false,
                frac_1024: 512,
            }
            .run(&mut cluster, &mut log)
            .await
            .expect("coordinator-crash migrate failed");
            let after = cluster.coord.config();
            assert_eq!(cluster.coord.open_plan_count(), 0, "no plan may stay open");
            // The resumed split either installed (one more partition, newer
            // map) or aborted back to the pre-split map; both are legal, and
            // the keyspace must stay fully covered either way.
            assert!(after.partitions.len() >= before.partitions.len());
            if after.partitions.len() > before.partitions.len() {
                assert!(after.version > before.version);
            }
            let mut ranges: Vec<_> = after.partitions.iter().map(|p| p.range).collect();
            ranges.sort_by_key(|r| r.start);
            assert_eq!(ranges.first().map(|r| r.start), Some(0));
            assert_eq!(ranges.last().map(|r| r.end), Some(u64::MAX));
            for w in ranges.windows(2) {
                assert_eq!(w[0].end, w[1].start, "keyspace gap or overlap after resume");
            }
            put(&cluster, "k", "after").await;
            assert_eq!(get(&cluster, "k").await, Some(b("after")));
        });
    }

    #[test]
    fn overlay_runs_concurrently_with_a_structural_episode() {
        run_sim(async {
            let mut cluster = SimCluster::build(Mode::Curp, RamcloudParams::new(3)).await;
            put(&cluster, "k", "v").await;
            let mut log = ScheduleLog::start();
            let overlay_log = log.clone();
            let overlay = PacketDrop { victim: 1, drop_rate: 0.2, seed: 9, hold_ns: 400_000 };
            let net = cluster.net.clone();
            let masters = cluster.master_servers();
            let pool = cluster.topology().replica_pool();
            // The overlay holds its faults across the whole churn: the heal
            // barrier only exists at the end of the schedule.
            let overlay_fut = overlay.run_overlay(&net, masters, pool, &overlay_log);
            let structural_fut = async {
                tokio::time::sleep(vns(30_000)).await;
                MasterChurn { partition: 0 }.run(&mut cluster, &mut log).await
            };
            let (o, s) = tokio::join!(overlay_fut, structural_fut);
            o.expect("overlay failed");
            s.expect("structural failed");
            assert!(cluster.net.residual_faults().is_empty(), "faults must be healed");
            // Both streams recorded into the same shared log.
            let names: std::collections::BTreeSet<_> =
                log.events().iter().map(|e| e.nemesis.to_string()).collect();
            assert!(names.contains("packet-drop") && names.contains("master-churn"), "{log}");
            put(&cluster, "k", "after").await;
            assert_eq!(get(&cluster, "k").await, Some(b("after")));
        });
    }

    #[test]
    fn drawn_schedule_is_a_pure_function_of_the_seed() {
        let mut params = RamcloudParams::new(3);
        params.separate_witnesses = true;
        let topo = Topology::ramcloud(Mode::Curp, &params, 2);
        let draw_names = |seed: u64| -> Vec<&'static str> {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..32).map(|_| draw_nemesis(&mut rng, &topo).name()).collect()
        };
        // Same seed → identical sequence; different seed → different.
        assert_eq!(draw_names(0xC0FFEE), draw_names(0xC0FFEE));
        assert_ne!(draw_names(0xC0FFEE), draw_names(0xC0FFEF));
        // All ten combinators are reachable from draw_nemesis.
        let mut rng = StdRng::seed_from_u64(1);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..512 {
            seen.insert(draw_nemesis(&mut rng, &topo).name());
        }
        assert_eq!(seen.len(), 10, "combinators drawn: {seen:?}");
        // Overlays draw only the five network combinators.
        let mut rng = StdRng::seed_from_u64(2);
        let mut overlays = std::collections::BTreeSet::new();
        for _ in 0..256 {
            let n = draw_overlay(&mut rng, &topo);
            assert!(n.is_overlay(), "{} drawn as overlay", n.name());
            overlays.insert(n.name());
        }
        assert_eq!(overlays.len(), 5, "overlay combinators drawn: {overlays:?}");
        // And whole schedules replay identically from the same seed.
        let shape = |seed: u64| -> Vec<(usize, &'static str, bool, u64)> {
            let mut rng = StdRng::seed_from_u64(seed);
            draw_schedule(&mut rng, &topo)
                .iter()
                .map(|e| (e.index, e.nemesis.name(), e.overlay, e.at_ns))
                .collect()
        };
        assert_eq!(shape(0xFEED), shape(0xFEED));
        let structural = shape(0xFEED).iter().filter(|(_, _, overlay, _)| !overlay).count();
        assert!((1..=3).contains(&structural));
    }

    #[test]
    fn schedule_hash_is_order_and_content_sensitive() {
        run_sim(async {
            let a = ScheduleLog::start();
            a.record("x", "one");
            a.record("y", "two");
            let b_log = ScheduleLog::start();
            b_log.record("y", "two");
            b_log.record("x", "one");
            assert_ne!(a.hash(), b_log.hash(), "hash must be order-sensitive");
            let c = ScheduleLog::start();
            c.record("x", "one");
            c.record("y", "two");
            assert_eq!(a.hash(), c.hash(), "identical logs must hash equal");
            assert!(!a.is_empty());
            assert_eq!(a.events().len(), 2);
        });
    }

    #[test]
    fn topology_mirrors_the_cluster_layout() {
        let ids = |r: std::ops::RangeInclusive<u64>| r.map(ServerId).collect::<Vec<_>>();
        run_sim(async move {
            // Co-hosted: witnesses are the backups, one spare after them.
            let params = RamcloudParams::new(3);
            let topo = Topology::ramcloud(Mode::Curp, &params, 1);
            let cluster = SimCluster::build(Mode::Curp, params).await;
            assert_eq!(*cluster.topology(), topo);
            assert_eq!(cluster.backup_servers(), ids(2..=4));
            assert_eq!(cluster.witness_servers(), ids(2..=4));
            assert_eq!(topo.replica_pool().len(), 3);
            assert_eq!(cluster.spare_server(), Some(ServerId(5)));
        });
        run_sim(async move {
            // Separate: a second block of f witness hosts.
            let mut params = RamcloudParams::new(3);
            params.separate_witnesses = true;
            let topo = Topology::ramcloud(Mode::Curp, &params, 2);
            let cluster = SimCluster::build_partitioned(Mode::Curp, params, 2).await;
            assert_eq!(*cluster.topology(), topo);
            assert_eq!(cluster.master_servers(), ids(1..=2));
            assert_eq!(cluster.backup_servers(), ids(3..=5));
            assert_eq!(cluster.witness_servers(), ids(6..=8));
            assert_eq!(topo.replica_pool().len(), 6);
            let servers: Vec<ServerId> = cluster.servers.iter().map(|s| s.id()).collect();
            assert_eq!(servers, ids(1..=9));
        });
    }
}
