//! Figure 9: Redis SET throughput vs client count.
//!
//! Paper shape: CURP costs ~18 % of non-durable throughput; durable Redis
//! starts far behind (per-op fsync) but approaches non-durable as its event
//! loop amortizes one fsync across all ready clients.

use curp_bench::{figure_header, print_series};
use curp_sim::{run_sim, vus, RedisCommand, RedisMode, RedisOps, SimCluster};

const CLIENT_COUNTS: &[usize] = &[1, 2, 5, 10, 20, 40, 60];
const DURATION_US: u64 = 30_000;

fn throughput(mode: RedisMode, clients: usize) -> f64 {
    run_sim(async move {
        let cluster = SimCluster::build_redis(mode).await;
        let sets = |_| RedisOps { command: RedisCommand::Set, keys: 2_000_000 };
        let r = cluster.run_closed_loop(clients, vus(DURATION_US), sets).await;
        r.throughput_ops_per_sec / 1_000.0
    })
}

fn main() {
    curp_bench::ignore_bench_args();
    figure_header(
        "Figure 9",
        "Redis SET throughput (k ops/s) vs client count",
        &[
            "CURP ~18% below non-durable Redis",
            "durable Redis approaches non-durable at high client counts (fsync batching)",
        ],
    );
    let configs: Vec<(&str, RedisMode)> = vec![
        ("nondurable", RedisMode::NonDurable),
        ("curp_1w", RedisMode::Curp { witnesses: 1 }),
        ("curp_2w", RedisMode::Curp { witnesses: 2 }),
        ("durable", RedisMode::Durable),
    ];
    for (name, mode) in configs {
        let points: Vec<(f64, f64)> =
            CLIENT_COUNTS.iter().map(|&c| (c as f64, throughput(mode, c))).collect();
        print_series(name, &points);
    }
}
