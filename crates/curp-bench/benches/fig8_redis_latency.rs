//! Figure 8: CDF of 100 B Redis SET latency.
//!
//! Paper setup: one client, sequential SETs, NVMe fsync ≈ 50–100 µs, kernel
//! TCP. Reported shape: CURP with 1 witness costs ~3 µs (12 %) over the
//! non-durable cache; 2 witnesses hurt the tail (waiting on three
//! heavy-tailed TCP RPCs); fsync-always durable Redis is ~100 µs slower.

use curp_bench::{figure_header, print_scalar, print_series};
use curp_sim::{run_sim, RedisCommand, RedisMode, RedisOps, SimCluster};

const SAMPLES: usize = 6_000;
const KEYS: u64 = 1_000_000;

fn measure(mode: RedisMode) -> curp_workload::LatencyRecorder {
    run_sim(async move {
        let cluster = SimCluster::build_redis(mode).await;
        let sets = RedisOps { command: RedisCommand::Set, keys: KEYS };
        // Salt 0xABCD: this figure's own SET stream (Figure 10 uses another).
        cluster.run_serial(SAMPLES, 0xABCD, sets).await.0
    })
}

fn main() {
    curp_bench::ignore_bench_args();
    figure_header(
        "Figure 8",
        "CDF of 100B Redis SET latency (single client)",
        &[
            "CURP 1-witness median ~+3us (~12%) over non-durable Redis",
            "2 witnesses raise latency further via TCP tail effects",
            "durable (fsync-always) Redis pays the full fsync on every SET",
        ],
    );
    let configs: Vec<(&str, RedisMode)> = vec![
        ("nondurable", RedisMode::NonDurable),
        ("curp_1w", RedisMode::Curp { witnesses: 1 }),
        ("curp_2w", RedisMode::Curp { witnesses: 2 }),
        ("durable", RedisMode::Durable),
    ];
    for (name, mode) in configs {
        let mut rec = measure(mode);
        print_scalar(&format!("{name}_median_us"), rec.median_us(), "us");
        print_series(name, &rec.cdf_us(40));
    }
}
