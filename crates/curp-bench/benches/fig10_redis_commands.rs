//! Figure 10: median latency of SET / HMSET / INCR, with and without CURP.
//!
//! Paper setup: random 30 B keys over 2 M unique keys; SET writes 100 B
//! values; HMSET sets one member with a 100 B value; INCR bumps a counter.
//! Reported shape: small overhead with 1 witness for all three commands;
//! ~+10 µs with 2 witnesses (tail effects).

use curp_bench::{figure_header, print_scalar};
use curp_sim::{run_sim, RedisCommand, RedisMode, RedisOps, SimCluster};

const SAMPLES: usize = 3_000;
const KEYS: u64 = 2_000_000;

fn median(mode: RedisMode, cmd: RedisCommand) -> f64 {
    run_sim(async move {
        let cluster = SimCluster::build_redis(mode).await;
        let ops = RedisOps { command: cmd, keys: KEYS };
        let (mut rec, _) = cluster.run_serial(SAMPLES, 0x1234, ops).await;
        rec.median_us()
    })
}

fn main() {
    curp_bench::ignore_bench_args();
    figure_header(
        "Figure 10",
        "median latency (us) of Redis commands x {non-durable, CURP 1w, CURP 2w}",
        &[
            "all commands: small overhead with 1 witness",
            "~+10us with 2 witnesses due to TCP tail latency",
        ],
    );
    let modes: Vec<(&str, RedisMode)> = vec![
        ("nondurable", RedisMode::NonDurable),
        ("curp_1w", RedisMode::Curp { witnesses: 1 }),
        ("curp_2w", RedisMode::Curp { witnesses: 2 }),
    ];
    for (cmd_name, cmd) in
        [("SET", RedisCommand::Set), ("HMSET", RedisCommand::Hmset), ("INCR", RedisCommand::Incr)]
    {
        for (mode_name, mode) in &modes {
            print_scalar(&format!("{cmd_name}_{mode_name}"), median(*mode, cmd), "us");
        }
    }
}
