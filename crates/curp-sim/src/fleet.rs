//! The chaos fleet: seed-driven end-to-end fault runs with per-run
//! linearizability checking.
//!
//! One fleet run ([`run_chaos_seed`]) is a pure function of its seed:
//!
//! 1. draw a topology (1–2 partitions, f = 3, witnesses co-hosted or
//!    separate) and a whole [`Episode`] schedule from a seeded RNG:
//!    1–3 *structural* episodes that run strictly in sequence, plus 0–2
//!    network *overlays* that run concurrently with them — two nemeses
//!    live at once, and the heal barrier only exists at schedule end;
//! 2. build the cluster — durable (real on-disk AOFs, journals, fences)
//!    iff any drawn nemesis cold-restarts servers;
//! 3. run open-loop pipelined load *concurrently* with the schedule,
//!    recording every operation's invoke/response window and observed
//!    result in a history (failed mutations become *pending* — their
//!    outcome is unknown and the checker may keep or drop them);
//! 4. audit heal discipline (no residual fault, no crashed host may
//!    survive a schedule whose episodes all completed), heal everything,
//!    anchor the final state with a completed read per key and one more
//!    increment per counter (exactly-once made visible);
//! 5. run the Wing–Gong checker; any violation is reported as a minimal
//!    per-key counterexample window plus a one-line repro
//!    (`CHAOS_SEED=<n> cargo test -q --test chaos`).
//!
//! Because every schedule parameter is drawn *up front* (see
//! [`draw_schedule`]), a failing seed can be re-run with only a subset of
//! its episodes enabled ([`ChaosConfig::episodes`]) without disturbing the
//! other episodes' draws. [`shrink_chaos_seed`] exploits that to greedily
//! remove episodes until no single removal still fails — turning a
//! five-episode pileup into the two-episode interaction that actually
//! broke, with the repro line narrowed to `CHAOS_EPISODES=i,j`.
//!
//! Determinism: the cluster's latency draws, the transport's fault rolls,
//! the load arrivals and the episode schedule all derive from the seed
//! through the paused virtual clock, so the run — and the
//! [`ScheduleLog::hash`] fingerprint of everything the nemeses did —
//! replays identically from the same seed.

use std::future::Future;
use std::pin::Pin;
use std::sync::Arc;

use parking_lot::Mutex;
use std::task::{Context, Poll};

use bytes::Bytes;
use curp_core::client::{PipelineConfig, PipelinedClient};
use curp_proto::op::{Op, OpResult};
use curp_proto::types::ServerId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::cluster::{Mode, RamcloudParams, SimCluster, Topology};
use crate::lincheck::{failing_keys_detailed, HistOp, HistoryEvent};
use crate::nemesis::{draw_schedule, Episode, ScheduleLog};
use crate::time::{run_sim, vns};
use crate::TempDir;

/// Keys carrying opaque values (Put/Get traffic).
const VALUE_KEYS: &[&str] = &["alpha", "beta", "gamma"];
/// Keys carrying counters (Incr traffic) — kept disjoint from
/// [`VALUE_KEYS`] so the workload never trips `WrongType`.
const COUNTER_KEYS: &[&str] = &["c0", "c1"];

/// Parameters of one chaos run. [`ChaosConfig::new`] gives the fleet
/// defaults; only tests that need a different load shape override fields.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// The seed everything derives from.
    pub seed: u64,
    /// Open-loop arrivals to drive while the nemeses run.
    pub ops: u64,
    /// Virtual nanoseconds between arrivals.
    pub arrival_ns: u64,
    /// If set, only episodes with these indices actually run; everything
    /// is still *drawn* identically, so the survivors keep their exact
    /// parameters. This is the shrinker's knob (`CHAOS_EPISODES=i,j`).
    pub episodes: Option<Vec<usize>>,
    /// Run every backup role on the larger-than-memory
    /// [`curp_storage::TieredStore`] (aggressively tuned so chaos-scale
    /// workloads spill to sorted runs) instead of the in-memory engine.
    pub tiered: bool,
}

impl ChaosConfig {
    /// Fleet defaults: 48 arrivals, one every 40 µs — a ~2 ms load span
    /// that overlaps a multi-episode nemesis sequence.
    pub fn new(seed: u64) -> ChaosConfig {
        ChaosConfig { seed, ops: 48, arrival_ns: 40_000, episodes: None, tiered: false }
    }
}

/// What one chaos run did and found.
#[must_use = "a chaos run's invariant violations must be checked, not dropped"]
#[derive(Debug)]
pub struct ChaosReport {
    /// The seed this run derived from.
    pub seed: u64,
    /// Names of the episodes that actually ran, structural stream first.
    pub nemeses: Vec<&'static str>,
    /// How many episodes the seed drew (before any mask).
    pub n_episodes: usize,
    /// The indices of the episodes that actually ran.
    pub episodes: Vec<usize>,
    /// Whether the cluster was built durable (some nemesis needed disk).
    pub durable: bool,
    /// Drawn partition count.
    pub partitions: usize,
    /// Drawn witness placement.
    pub separate_witnesses: bool,
    /// FNV-1a fingerprint of the nemesis schedule — the replay oracle.
    pub schedule_hash: u64,
    /// The schedule, one formatted line per recorded state change.
    pub schedule: Vec<String>,
    /// History events with a known outcome.
    pub completed_ops: usize,
    /// History events whose outcome is unknown (the checker may drop them).
    pub pending_ops: usize,
    /// Linearizability violations: one formatted minimal counterexample
    /// window per failing key. Empty on a clean run.
    pub violations: Vec<String>,
    /// The full recorded history (completed and pending events), for
    /// deeper triage than the minimal windows in `violations`.
    pub history: Vec<HistoryEvent>,
    /// Harness-level failures (a nemesis that could not complete, a heal
    /// audit miss, an anchor read that kept failing after healing). Empty
    /// on a clean run.
    pub errors: Vec<String>,
}

impl ChaosReport {
    /// Whether the run was clean: no violations, no harness errors.
    pub fn is_ok(&self) -> bool {
        self.violations.is_empty() && self.errors.is_empty()
    }

    /// The one-line repro for this run: just the seed for a full run, the
    /// seed plus its episode mask for a shrunk one.
    pub fn repro_line(&self) -> String {
        if self.episodes.len() < self.n_episodes {
            repro_line_episodes(self.seed, &self.episodes)
        } else {
            repro_line(self.seed)
        }
    }

    /// Everything a failing seed's triage needs, as one block of text.
    pub fn render_failure(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("chaos seed {} failed — repro: {}\n", self.seed, self.repro_line()));
        out.push_str(&format!(
            "topology: {} partition(s), f=3, witnesses {}; cluster {}\n",
            self.partitions,
            if self.separate_witnesses { "separate" } else { "co-hosted" },
            if self.durable { "durable" } else { "in-memory" },
        ));
        out.push_str(&format!(
            "episodes {:?} of {} drawn — nemeses: [{}], schedule hash {:#018x}\n",
            self.episodes,
            self.n_episodes,
            self.nemeses.join(", "),
            self.schedule_hash
        ));
        for line in &self.schedule {
            out.push_str("  ");
            out.push_str(line);
            out.push('\n');
        }
        for err in &self.errors {
            out.push_str(&format!("harness error: {err}\n"));
        }
        for v in &self.violations {
            out.push_str(v);
            out.push('\n');
        }
        out
    }
}

/// The one-line repro for a chaos seed.
pub fn repro_line(seed: u64) -> String {
    format!("CHAOS_SEED={seed} cargo test -q --test chaos")
}

/// The one-line repro for a shrunk subset of a chaos seed's episodes.
pub fn repro_line_episodes(seed: u64, mask: &[usize]) -> String {
    let list: Vec<String> = mask.iter().map(|i| i.to_string()).collect();
    format!("CHAOS_SEED={seed} CHAOS_EPISODES={} cargo test -q --test chaos", list.join(","))
}

/// Runs one chaos seed with the fleet defaults.
pub fn run_chaos_seed(seed: u64) -> ChaosReport {
    run_chaos(ChaosConfig::new(seed))
}

/// Runs one configured chaos run inside its own paused-clock simulation.
pub fn run_chaos(cfg: ChaosConfig) -> ChaosReport {
    run_sim(async move { chaos_run(cfg).await })
}

/// The world a seed draws before any episode runs: cluster shape and
/// calibration plus the full episode schedule. Splitting this out keeps
/// [`drawn_episode_count`] and [`chaos_run`] byte-identical.
fn draw_world(seed: u64) -> (usize, RamcloudParams, Vec<Episode>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let partitions = rng.gen_range(1..=2usize);
    let mut params = RamcloudParams::new(3);
    params.seed = seed;
    params.batch_size = 5; // frequent syncs: AOFs and journals both carry state
    params.sync_interval_ns = 30_000;
    params.separate_witnesses = rng.gen_bool(0.5);
    // Two spares: a successful SplitMigration consumes one permanently
    // (the spare becomes a master), and a later MasterChurn still needs a
    // recovery target. Churn itself is spare-neutral — the deposed host
    // rejoins the pool.
    params.spares = 2;
    let topo = Topology::ramcloud(Mode::Curp, &params, partitions);
    let episodes = draw_schedule(&mut rng, &topo);
    (partitions, params, episodes)
}

/// How many episodes a seed draws — the starting mask for the shrinker.
pub fn drawn_episode_count(seed: u64) -> usize {
    draw_world(seed).2.len()
}

/// Polls a set of non-`Send` futures to completion on the current task.
/// The shim runtime's `spawn` requires `Send` futures, but overlay
/// episodes borrow the fleet's stack — so they are joined by hand.
struct JoinLocal<'a, T> {
    slots: Vec<Option<Pin<Box<dyn Future<Output = T> + 'a>>>>,
    done: Vec<Option<T>>,
}

impl<'a, T> JoinLocal<'a, T> {
    fn new(futs: Vec<Pin<Box<dyn Future<Output = T> + 'a>>>) -> Self {
        let done = futs.iter().map(|_| None).collect();
        JoinLocal { slots: futs.into_iter().map(Some).collect(), done }
    }
}

impl<'a, T: Unpin> Future for JoinLocal<'a, T> {
    type Output = Vec<T>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Vec<T>> {
        let this = self.get_mut();
        let mut all_done = true;
        for (slot, out) in this.slots.iter_mut().zip(this.done.iter_mut()) {
            if let Some(fut) = slot {
                match fut.as_mut().poll(cx) {
                    Poll::Ready(v) => {
                        *out = Some(v);
                        *slot = None;
                    }
                    Poll::Pending => all_done = false,
                }
            }
        }
        if all_done {
            Poll::Ready(this.done.iter_mut().map(|d| d.take().expect("joined twice")).collect())
        } else {
            Poll::Pending
        }
    }
}

async fn chaos_run(cfg: ChaosConfig) -> ChaosReport {
    let (partitions, mut params, all_episodes) = draw_world(cfg.seed);
    let n_episodes = all_episodes.len();
    // Durability and topology come from the *full* drawn schedule, never
    // the mask: a shrunk subset must run on the identical cluster.
    let durable = all_episodes.iter().any(|e| e.nemesis.needs_disk());
    let enabled: Vec<Episode> = all_episodes
        .into_iter()
        .filter(|e| cfg.episodes.as_ref().is_none_or(|mask| mask.contains(&e.index)))
        .collect();
    let enabled_indices: Vec<usize> = enabled.iter().map(|e| e.index).collect();
    let (structural_eps, overlay_eps): (Vec<Episode>, Vec<Episode>) =
        enabled.into_iter().partition(|e| !e.overlay);
    let names: Vec<&'static str> =
        structural_eps.iter().chain(overlay_eps.iter()).map(|e| e.nemesis.name()).collect();

    let separate_witnesses = params.separate_witnesses;
    // The scratch directory exists only for durable or tiered runs and its
    // path never enters the schedule log (it would break cross-process
    // replay hashes).
    let dir = if durable || cfg.tiered {
        Some(TempDir::new("curp-chaos").expect("tempdir"))
    } else {
        None
    };
    if cfg.tiered {
        let d = dir.as_ref().expect("tiered runs always get a scratch dir");
        let tier_root = d.path().join("tier");
        std::fs::create_dir_all(&tier_root).expect("tier root");
        params.tiered = Some(tier_root);
    }
    let mut cluster = match (&dir, durable) {
        (Some(d), true) => {
            SimCluster::build_durable(Mode::Curp, params, partitions, d.path()).await
        }
        _ => SimCluster::build_partitioned(Mode::Curp, params, partitions).await,
    };

    let pipe = cluster.pipelined_client(0, PipelineConfig::default()).await;
    let history: Arc<Mutex<Vec<HistoryEvent>>> = Arc::new(Mutex::ranked(
        curp_proto::lockrank::FLEET_HISTORY,
        "sim.fleet.history",
        Vec::new(),
    ));
    let epoch = tokio::time::Instant::now();
    let mut log = ScheduleLog::start();
    let mut errors = Vec::new();

    // Open-loop load, concurrent with the episodes: arrivals keep coming
    // whether or not earlier operations completed.
    let load = {
        let pipe = Arc::clone(&pipe);
        let history = Arc::clone(&history);
        let mut load_rng = StdRng::seed_from_u64(cfg.seed ^ 0xD00D);
        let (ops, arrival_ns) = (cfg.ops, cfg.arrival_ns);
        tokio::spawn(async move {
            let mut tasks = Vec::new();
            for _ in 0..ops {
                tokio::time::sleep(vns(arrival_ns)).await;
                let (key, kind) = match load_rng.gen_range(0..3u32) {
                    0 => (VALUE_KEYS[load_rng.gen_range(0..VALUE_KEYS.len())], 0),
                    1 => (COUNTER_KEYS[load_rng.gen_range(0..COUNTER_KEYS.len())], 1),
                    _ => {
                        let all: Vec<&str> =
                            VALUE_KEYS.iter().chain(COUNTER_KEYS).copied().collect();
                        (all[load_rng.gen_range(0..all.len())], 2)
                    }
                };
                let payload = load_rng.gen::<u64>();
                tasks.push(tokio::spawn(one_op(
                    Arc::clone(&pipe),
                    Arc::clone(&history),
                    Bytes::from(key.to_owned()),
                    kind,
                    payload,
                    epoch,
                )));
            }
            for t in tasks {
                t.await.expect("op task panicked");
            }
        })
    };

    // Handles the overlay stream works through while the structural stream
    // holds the `&mut SimCluster`: a cloned network, the shared coordinator,
    // the (layout-constant) replica pool and a shared schedule log.
    let net_handle = cluster.net.clone();
    let coord_handle = Arc::clone(&cluster.coord);
    let pool = cluster.topology().replica_pool();
    let overlay_log = log.clone();

    // The structural stream: strictly sequential, with the drawn gap slept
    // before each episode (overlapping *structural* episodes could
    // deadlock — e.g. a churn retrying into a partition nothing will heal).
    let structural = async {
        let mut failed = Vec::new();
        for ep in &structural_eps {
            tokio::time::sleep(vns(ep.at_ns)).await;
            if let Err(e) = ep.nemesis.run(&mut cluster, &mut log).await {
                failed.push(format!(
                    "nemesis {} (episode {}) failed: {e}",
                    ep.nemesis.name(),
                    ep.index
                ));
                break;
            }
        }
        failed
    };

    // The overlay stream: every overlay launches after its own drawn delay
    // and runs *concurrently* — with the other overlays and with whatever
    // structural episode is live. Its master snapshot is taken at launch
    // time from the shared coordinator, so it cuts the links that matter
    // right then and heals exactly those.
    let overlays = async {
        let futs: Vec<Pin<Box<dyn Future<Output = Option<String>> + '_>>> = overlay_eps
            .iter()
            .map(|ep| {
                let net = &net_handle;
                let coord = &coord_handle;
                let pool = &pool;
                let olog = &overlay_log;
                Box::pin(async move {
                    tokio::time::sleep(vns(ep.at_ns)).await;
                    let masters: Vec<ServerId> =
                        coord.config().partitions.iter().map(|p| p.master).collect();
                    match ep.nemesis.run_overlay(net, masters, pool.clone(), olog).await {
                        Ok(()) => None,
                        Err(e) => Some(format!(
                            "overlay {} (episode {}) failed: {e}",
                            ep.nemesis.name(),
                            ep.index
                        )),
                    }
                }) as Pin<Box<dyn Future<Output = Option<String>> + '_>>
            })
            .collect();
        JoinLocal::new(futs).await
    };

    let (structural_errors, overlay_errors) = tokio::join!(structural, overlays);
    errors.extend(structural_errors);
    errors.extend(overlay_errors.into_iter().flatten());

    // Heal-discipline audit: a schedule whose episodes all completed must
    // already be fully healed — every fault cleared by the nemesis that
    // injected it, every crashed host restarted. (After an episode *error*
    // residue is expected; the error itself already fails the run.)
    if errors.is_empty() {
        for fault in cluster.net.residual_faults() {
            errors.push(format!("heal discipline: residual {fault} after schedule end"));
        }
        let cfg_now = cluster.coord.config();
        let mut hosts: Vec<ServerId> = Vec::new();
        for p in &cfg_now.partitions {
            hosts.push(p.master);
            hosts.extend(p.backups.iter().copied());
            hosts.extend(p.witnesses.iter().copied());
        }
        hosts.extend(cluster.coord.spare_servers());
        hosts.sort();
        hosts.dedup();
        for h in hosts {
            if cluster.net.is_crashed(h) {
                errors.push(format!("heal discipline: s{} left crashed after schedule end", h.0));
            }
        }
    }

    // Heal whatever a failed episode may have left behind, then let the
    // load drain (every retry/timeout is virtual time — wall-clock free).
    cluster.net.heal_all();
    cluster.net.set_default_fault(None);
    load.await.expect("load driver panicked");

    // Anchor the final state: one more increment per counter (a RIFL
    // double-apply shifts it) and a completed read per key (a lost
    // acknowledged write breaks linearization against it).
    let client = pipe.inner();
    for key in COUNTER_KEYS {
        let key = Bytes::from((*key).to_owned());
        let invoke = epoch.elapsed().as_millis() as u64;
        match client.update(Op::Incr { key: key.clone(), delta: 1 }).await {
            Ok(OpResult::Counter(v)) => {
                let ret = epoch.elapsed().as_millis() as u64;
                history.lock().push(HistoryEvent { key, op: HistOp::Incr(1, v), invoke, ret });
            }
            Ok(other) => errors.push(format!("anchor incr on {key:?} returned {other:?}")),
            Err(e) => errors.push(format!("anchor incr on {key:?} failed after heal: {e}")),
        }
    }
    for key in VALUE_KEYS.iter().chain(COUNTER_KEYS) {
        let key = Bytes::from((*key).to_owned());
        let invoke = epoch.elapsed().as_millis() as u64;
        match client.read(Op::Get { key: key.clone() }).await {
            Ok(OpResult::Value(v)) => {
                let ret = epoch.elapsed().as_millis() as u64;
                history.lock().push(HistoryEvent { key, op: HistOp::Get(v), invoke, ret });
            }
            Ok(other) => errors.push(format!("anchor read on {key:?} returned {other:?}")),
            Err(e) => errors.push(format!("anchor read on {key:?} failed after heal: {e}")),
        }
    }

    let history = std::mem::take(&mut *history.lock());
    let completed_ops = history.iter().filter(|e| !e.is_pending()).count();
    let pending_ops = history.len() - completed_ops;
    let violations: Vec<String> =
        failing_keys_detailed(&history).iter().map(|cx| cx.to_string()).collect();

    ChaosReport {
        seed: cfg.seed,
        nemeses: names,
        n_episodes,
        episodes: enabled_indices,
        durable,
        partitions,
        separate_witnesses,
        schedule_hash: log.hash(),
        schedule: log.events().iter().map(|ev| ev.to_string()).collect(),
        completed_ops,
        pending_ops,
        violations,
        history,
        errors,
    }
}

/// Greedy delta-debugging over an episode mask: starting from all of
/// `0..n_episodes`, repeatedly drop any single episode whose removal still
/// makes `fails` return true, to a fixed point. The result is 1-minimal —
/// removing any one surviving episode makes the failure disappear.
pub fn shrink(n_episodes: usize, fails: impl Fn(&[usize]) -> bool) -> Vec<usize> {
    let mut mask: Vec<usize> = (0..n_episodes).collect();
    loop {
        let mut shrunk = false;
        for i in 0..mask.len() {
            let mut candidate = mask.clone();
            candidate.remove(i);
            if fails(&candidate) {
                mask = candidate;
                shrunk = true;
                break;
            }
        }
        if !shrunk {
            return mask;
        }
    }
}

/// Shrinks a failing chaos seed to a 1-minimal episode subset by re-running
/// the seed with candidate masks. Each candidate run re-draws the full
/// schedule and instantiates only the masked episodes, so the survivors
/// replay with their exact original parameters. Returns the final mask;
/// [`repro_line_episodes`] turns it into the one-line repro.
pub fn shrink_chaos_seed(seed: u64) -> Vec<usize> {
    let n = drawn_episode_count(seed);
    shrink(n, |mask| {
        let mut cfg = ChaosConfig::new(seed);
        cfg.episodes = Some(mask.to_vec());
        !run_chaos(cfg).is_ok()
    })
}

/// Submits one operation through the pipelined client and records its
/// history event — or a *pending* marker for a mutation whose outcome is
/// unknown (the fault may have eaten the ack). Failed reads observed
/// nothing and are skipped entirely.
async fn one_op(
    pipe: Arc<PipelinedClient>,
    history: Arc<Mutex<Vec<HistoryEvent>>>,
    key: Bytes,
    kind: u32,
    payload: u64,
    epoch: tokio::time::Instant,
) {
    // Under the sim's scaled clock (1 virtual ns = 1 tokio ms, see
    // crate::time) `as_millis` yields virtual *nanoseconds*.
    let invoke = epoch.elapsed().as_millis() as u64;
    let (op_for_history, outcome) = match kind {
        0 => {
            let value = Bytes::from(format!("v{payload}"));
            let done = match pipe.submit(Op::Put { key: key.clone(), value: value.clone() }).await {
                Ok(completion) => completion.await.map(|_| ()),
                Err(e) => Err(e),
            };
            (HistOp::Put(value), done)
        }
        1 => {
            let delta = (payload % 4) as i64 + 1;
            let done = match pipe.submit(Op::Incr { key: key.clone(), delta }).await {
                Ok(completion) => completion.await,
                Err(e) => Err(e),
            };
            match done {
                Ok(OpResult::Counter(v)) => (HistOp::Incr(delta, v), Ok(())),
                Ok(other) => panic!("unexpected incr result {other:?}"),
                Err(e) => (HistOp::Incr(delta, 0), Err(e)),
            }
        }
        _ => {
            let done = match pipe.submit(Op::Get { key: key.clone() }).await {
                Ok(completion) => completion.await,
                Err(e) => Err(e),
            };
            match done {
                Ok(OpResult::Value(v)) => (HistOp::Get(v), Ok(())),
                Ok(other) => panic!("unexpected get result {other:?}"),
                // A failed read observed nothing; it constrains no state.
                Err(_) => return,
            }
        }
    };
    let ret = epoch.elapsed().as_millis() as u64;
    let event = match outcome {
        Ok(()) => HistoryEvent { key, op: op_for_history, invoke, ret },
        // Unknown outcome: the op may or may not have taken effect.
        Err(_) => HistoryEvent { key, op: op_for_history, invoke, ret: u64::MAX },
    };
    history.lock().push(event);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_runs_clean_and_reports() {
        let report = run_chaos_seed(0xFEED_FACE);
        assert!(report.is_ok(), "{}", report.render_failure());
        assert!(!report.nemeses.is_empty());
        assert!(!report.schedule.is_empty(), "nemeses must have recorded a schedule");
        assert_ne!(report.schedule_hash, 0);
        assert!(report.completed_ops > 0);
        assert_eq!(report.episodes.len(), report.n_episodes, "unmasked run enables everything");
        assert_eq!(
            report.repro_line(),
            format!("CHAOS_SEED={} cargo test -q --test chaos", 0xFEED_FACEu64)
        );
    }

    #[test]
    fn same_seed_replays_the_identical_schedule() {
        let a = run_chaos_seed(0xBEEF);
        let b = run_chaos_seed(0xBEEF);
        assert_eq!(a.schedule, b.schedule, "schedules diverged across replays");
        assert_eq!(a.schedule_hash, b.schedule_hash);
        assert_eq!(a.nemeses, b.nemeses);
        assert_eq!(a.completed_ops, b.completed_ops);
        assert_eq!(a.pending_ops, b.pending_ops);
    }

    #[test]
    fn masked_run_keeps_the_surviving_episodes_draws() {
        // A seed that draws at least two episodes, masked down to one: the
        // run still finishes clean and the repro line carries the mask.
        let seed = (0..1024u64)
            .find(|s| drawn_episode_count(*s) >= 2)
            .expect("some seed draws >= 2 episodes");
        let full = run_chaos_seed(seed);
        assert!(full.is_ok(), "{}", full.render_failure());
        let mut cfg = ChaosConfig::new(seed);
        cfg.episodes = Some(vec![0]);
        let masked = run_chaos(cfg);
        assert!(masked.is_ok(), "{}", masked.render_failure());
        assert_eq!(masked.episodes, vec![0]);
        assert_eq!(masked.n_episodes, full.n_episodes);
        assert_eq!(masked.nemeses.first(), full.nemeses.first(), "episode 0 must redraw equal");
        assert_eq!(
            masked.repro_line(),
            format!("CHAOS_SEED={seed} CHAOS_EPISODES=0 cargo test -q --test chaos")
        );
    }

    #[test]
    fn shrinker_reduces_a_failing_schedule_to_the_minimal_subset() {
        // Synthetic failure: the run "fails" iff episodes 1 AND 4 are both
        // enabled (a two-episode interaction buried in a six-episode
        // schedule). Greedy removal must land on exactly that pair.
        let shrunk = shrink(6, |mask| mask.contains(&1) && mask.contains(&4));
        assert_eq!(shrunk, vec![1, 4]);
        assert!(shrunk.len() <= 3, "shrunk repro must be tiny");
        // And a failure nothing in the mask causes shrinks to empty — the
        // harness itself is broken, with no episode to blame.
        assert!(shrink(4, |_| true).is_empty());
    }
}
