//! Property tests for the nemesis heal discipline: every combinator must
//! leave the cluster exactly as servable as it found it — all injected
//! faults cleared, all crashed hosts restarted — for *arbitrary* drawn
//! parameters, not just the hand-picked ones in the unit tests. The fleet
//! relies on this: with overlapping episodes the heal barrier only exists
//! at schedule end, so a single combinator that forgets one link poisons
//! every later episode of every schedule it appears in.
//!
//! Reproduction: the shim's cases derive from a per-test deterministic
//! seed; `PROPTEST_SEED=<n>` re-runs a failing sequence, and the failing
//! *drawn* seed is printed in the assertion message.

use bytes::Bytes;
use curp::proto::op::{Op, OpResult};
use curp::sim::fleet::run_chaos_seed;
use curp::sim::tempdir::TempDir;
use curp::sim::{
    draw_nemesis, draw_overlay, run_sim, Mode, RamcloudParams, ScheduleLog, SimCluster, Topology,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn b(s: &str) -> Bytes {
    Bytes::copy_from_slice(s.as_bytes())
}

/// Audits the post-episode cluster: no residual network fault, no crashed
/// host anywhere in the map or the spare pool, and the cluster still
/// completes a write and a read.
async fn audit_healed(cluster: &SimCluster) -> Result<(), String> {
    let residual = cluster.net.residual_faults();
    if !residual.is_empty() {
        return Err(format!("residual faults after heal: {residual:?}"));
    }
    let cfg = cluster.coord.config();
    let mut hosts = Vec::new();
    for p in &cfg.partitions {
        hosts.push(p.master);
        hosts.extend(p.backups.iter().copied());
        hosts.extend(p.witnesses.iter().copied());
    }
    hosts.extend(cluster.coord.spare_servers());
    hosts.sort();
    hosts.dedup();
    for h in hosts {
        if cluster.net.is_crashed(h) {
            return Err(format!("s{} left crashed after heal", h.0));
        }
    }
    let client = cluster.client(7).await;
    client
        .update(Op::Put { key: b("probe"), value: b("alive") })
        .await
        .map_err(|e| format!("post-heal write failed: {e}"))?;
    match client.read(Op::Get { key: b("probe") }).await {
        Ok(OpResult::Value(Some(v))) if v == b("alive") => Ok(()),
        other => Err(format!("post-heal read returned {other:?}")),
    }
}

/// Runs one drawn nemesis (structural path) against a fresh cluster and
/// audits the heal discipline.
fn one_nemesis_heals(seed: u64, overlay_only: bool) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let topo = Topology::ramcloud(Mode::Curp, &RamcloudParams::new(3), 1);
    let nemesis =
        if overlay_only { draw_overlay(&mut rng, &topo) } else { draw_nemesis(&mut rng, &topo) };
    run_sim(async move {
        let mut params = RamcloudParams::new(3);
        params.batch_size = 5;
        params.spares = 2;
        let dir = if nemesis.needs_disk() {
            Some(TempDir::new("curp-prop-nemesis").map_err(|e| format!("tempdir: {e}"))?)
        } else {
            None
        };
        let mut cluster = match &dir {
            Some(d) => SimCluster::build_durable(Mode::Curp, params, 1, d.path()).await,
            None => SimCluster::build(Mode::Curp, params).await,
        };
        let client = cluster.client(9).await;
        client
            .update(Op::Put { key: b("k"), value: b("v") })
            .await
            .map_err(|e| format!("seed write failed: {e}"))?;
        let mut log = ScheduleLog::start();
        nemesis
            .run(&mut cluster, &mut log)
            .await
            .map_err(|e| format!("{} failed: {e}", nemesis.name()))?;
        audit_healed(&cluster).await.map_err(|e| format!("{}: {e}", nemesis.name()))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Any structural combinator, any drawn parameters: after `run()`
    /// returns Ok the cluster is fully healed and still serving.
    #[test]
    fn any_drawn_nemesis_heals_what_it_injected(seed in any::<u64>()) {
        if let Err(why) = one_nemesis_heals(seed, false) {
            prop_assert!(false, "heal discipline violated (drawn seed {seed}): {why}");
        }
    }

    /// Same property through the overlay draw — the five network
    /// combinators the fleet runs concurrently with structural episodes.
    #[test]
    fn any_drawn_overlay_heals_what_it_injected(seed in any::<u64>()) {
        if let Err(why) = one_nemesis_heals(seed, true) {
            prop_assert!(false, "heal discipline violated (drawn seed {seed}): {why}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Whole schedules, arbitrary seeds: overlapping episodes, coordinator
    /// kills, power losses and all — every schedule must end fully healed
    /// (the fleet's own audit feeds `report.errors`) and linearizable.
    #[test]
    fn any_chaos_schedule_ends_fully_healed(seed in any::<u64>()) {
        let report = run_chaos_seed(seed);
        prop_assert!(report.is_ok(), "drawn seed {seed}:\n{}", report.render_failure());
    }
}
