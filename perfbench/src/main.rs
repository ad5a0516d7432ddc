//! Wall-clock benchmark of a real CURP cluster: one workload per process.
//!
//! ```text
//! curp-perfbench --workload <name> --seed <n> --seconds <s> [--trace 0|1]
//!                [--setup-only] [--trace-out <file>]
//! ```
//!
//! Builds the cluster, preloads it, runs the workload for `--seconds`, reads
//! back every written key, and prints one JSON line: `correct`, `attempted`,
//! `failed` and every metric it measured as `{value, unit, samples}`.
//! `--setup-only` stops after set-up and reports `setup_s` alone; `--trace 1`
//! wraps every layer boundary in spans and adds the span-derived metrics.
//! `perfbench/run.py` drives this binary; see `perfbench/README.md`.

mod cluster;
mod gen;
mod stats;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::path::PathBuf;

use workloads::{Report, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_only: bool,
    trace_out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds) = (None, 1, 10.0);
    let (mut trace, mut setup_only, mut trace_out) = (false, false, None);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace must be 0 or 1, not {v:?}")),
                }
            }
            "--setup-only" => setup_only = true,
            "--trace-out" => trace_out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace, setup_only, trace_out })
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn to_json(r: &Report) -> String {
    let mut s = format!(
        "{{\"workload\": \"{}\", \"correct\": {}, \"attempted\": {}, \"failed\": {}, \
         \"problems\": [",
        r.workload.name(),
        r.correct(),
        r.attempted,
        r.failed
    );
    for (i, p) in r.problems.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(s, "{sep}\"{}\"", p.replace(['"', '\\'], "'"));
    }
    s.push_str("], \"metrics\": {");
    for (i, m) in r.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\", \"samples\": {}}}",
            m.name,
            json_number(m.value),
            m.unit,
            m.samples
        );
    }
    s.push_str("}}");
    s
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("curp-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let rt = tokio::runtime::Builder::new_current_thread().enable_all().build();
    let rt = rt.expect("build the runtime");
    let report = rt.block_on(workloads::run(
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        args.setup_only,
    ));
    if let (Some(path), Some(spans)) = (&args.trace_out, &report.spans) {
        let written = std::fs::File::create(path).and_then(|f| {
            let mut w = std::io::BufWriter::new(f);
            trace::write_tsv(spans, &mut w)?;
            std::io::Write::flush(&mut w)
        });
        if let Err(e) = written {
            eprintln!("curp-perfbench: writing {}: {e}", path.display());
        }
    }
    println!("{}", to_json(&report));
    if !report.correct() {
        std::process::exit(1);
    }
}
