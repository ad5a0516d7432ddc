//! Figure 13 (§C.2): observed Redis SET latency at each achieved throughput
//! level (client-count sweep).
//!
//! Paper shape: CURP and non-durable Redis hold their latency until ~80 % of
//! max throughput; durable Redis' latency climbs ~linearly with load because
//! the event loop batches fsyncs — amortization buys throughput by spending
//! client latency.

use curp_bench::{figure_header, print_series};
use curp_sim::{run_sim, vus, RedisCommand, RedisMode, RedisOps, SimCluster};

const CLIENT_COUNTS: &[usize] = &[1, 2, 4, 8, 16, 24, 32, 48, 64];
const DURATION_US: u64 = 30_000;

fn point(mode: RedisMode, clients: usize) -> (f64, f64) {
    run_sim(async move {
        let cluster = SimCluster::build_redis(mode).await;
        let sets = |_| RedisOps { command: RedisCommand::Set, keys: 2_000_000 };
        let r = cluster.run_closed_loop(clients, vus(DURATION_US), sets).await;
        (r.throughput_ops_per_sec / 1_000.0, r.writes.mean_us())
    })
}

fn main() {
    curp_bench::ignore_bench_args();
    figure_header(
        "Figure 13",
        "average SET latency (us) vs achieved throughput (k ops/s)",
        &[
            "CURP & non-durable: flat latency until ~80% of max throughput",
            "durable Redis: latency grows ~linearly with load (fsync batching)",
        ],
    );
    let configs: Vec<(&str, RedisMode)> = vec![
        ("nondurable", RedisMode::NonDurable),
        ("curp_1w", RedisMode::Curp { witnesses: 1 }),
        ("curp_2w", RedisMode::Curp { witnesses: 2 }),
        ("durable", RedisMode::Durable),
    ];
    for (name, mode) in configs {
        let points: Vec<(f64, f64)> = CLIENT_COUNTS.iter().map(|&c| point(mode, c)).collect();
        print_series(name, &points);
    }
}
