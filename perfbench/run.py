#!/usr/bin/env python3
"""Runs the CURP wall-clock benchmark (see perfbench/README.md).

One workload, as BENCHMARK.json's `command` runs it:

    python3 perfbench/run.py --workload fastpath --seed 1 --seconds 10 --trace 0

prints, as its last line, one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the `end_to_end` metrics of BENCHMARK.json with
`--trace 0`, its `per_layer` metrics with `--trace 1`.

Every workload, for people:

    python3 perfbench/run.py --all [--seed 1] [--seconds 10] [--trace 0|1]

prints every metric of every workload with its unit and sample count, and
exits non-zero if any output check failed.

The program is built from source with cargo into $CARGO_TARGET_DIR
(default `.bench_build`). Each workload runs in its own process, so its peak
RSS is its own; durable data lives under a per-run directory inside the
checkout, removed afterwards.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["fastpath", "ycsb_a_pipelined", "ycsb_a_tcp", "durable_recovery"]
# Set-up runs per measurement; setup_s is their median.
SETUPS = 3
# Wall-clock budget of one measurement after the build (a run must end
# within 180 s); a child that outlives it is killed and the run fails.
BUDGET_S = 170
BUILD_BUDGET_S = 850


class RunFailed(Exception):
    pass


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                           timeout=BUILD_BUDGET_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise RunFailed(f"build failed: {e}")
    if r.returncode != 0:
        raise RunFailed(f"build failed with exit code {r.returncode}")
    return os.path.join(target, "release", "curp-perfbench")


def run_child(binary, args, deadline, tmp):
    """Runs the benchmark binary once; returns its JSON report."""
    left = deadline - time.monotonic()
    if left <= 1:
        raise RunFailed("out of time before " + " ".join(args))
    env = dict(os.environ, TMPDIR=tmp)
    proc = subprocess.Popen([binary] + args, cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, stderr=sys.stderr,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=left)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RunFailed("hang: killed after the time budget: " + " ".join(args))
    lines = [l for l in out.splitlines() if l.startswith("{")]
    if not lines:
        raise RunFailed(f"no report (exit {proc.returncode}): " + " ".join(args))
    report = json.loads(lines[-1])
    if proc.returncode not in (0, 1) or (proc.returncode == 1) == report["correct"]:
        raise RunFailed(f"exit {proc.returncode}: " + " ".join(args))
    return report


def measure(binary, workload, seed, seconds, trace, deadline):
    """One measurement: returns (correct, attempted, failed, problems,
    metrics as {name: {value, unit, samples}})."""
    tmp = os.path.join(ROOT, ".perfbench_tmp", f"run-{os.getpid()}-{workload}")
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    base = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    try:
        if trace:
            plain = run_child(binary, base, deadline, tmp)
            out_dir = os.path.join(ROOT, ".perfbench_out")
            os.makedirs(out_dir, exist_ok=True)
            out = os.path.join(out_dir, f"trace-{workload}.tsv")
            traced = run_child(binary, base + ["--trace", "1", "--trace-out", out],
                               deadline, tmp)
            reports = [plain, traced]
            # Layer metrics (dotted names) from the traced run; the
            # end-to-end ones it also reports from the untraced run.
            metrics = {k: v for k, v in traced["metrics"].items() if "." in k}
            metrics.update({k: v for k, v in plain["metrics"].items() if "." not in k})
            a = plain["metrics"]["cpu_us_per_op"]["value"]
            b = traced["metrics"]["cpu_us_per_op"]["value"]
            metrics["trace.overhead_pct"] = {
                "value": (b / a - 1.0) * 100.0 if a > 0 else 0.0,
                "unit": "%", "samples": 2}
        else:
            setups = [run_child(binary, base + ["--setup-only"], deadline, tmp)
                      for _ in range(SETUPS - 1)]
            full = run_child(binary, base, deadline, tmp)
            reports = setups + [full]
            metrics = dict(full["metrics"])
            values = [r["metrics"]["setup_s"]["value"] for r in reports
                      if "setup_s" in r["metrics"]]
            if len(values) != SETUPS:
                raise RunFailed("a set-up failed")
            metrics["setup_s"] = {"value": statistics.median(values), "unit": "s",
                                  "samples": len(values)}
        main = reports[-1]
        problems = [p for r in reports for p in r["problems"]]
        return (all(r["correct"] for r in reports), main["attempted"],
                main["failed"], problems, metrics)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def select(metrics, wanted):
    out = {}
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None:
            raise RunFailed(f"metric {m['name']} was not measured")
        if got["unit"] != m["unit"]:
            raise RunFailed(f"metric {m['name']} in {got['unit']}, expected {m['unit']}")
        out[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    return out


def one_workload(args):
    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        raise RunFailed(f"unknown workload {args.workload}")
    binary = build()
    deadline = time.monotonic() + BUDGET_S
    correct, attempted, failed, problems, metrics = measure(
        binary, args.workload, args.seed, args.seconds, args.trace, deadline)
    for p in problems:
        print(f"output check: {p}", file=sys.stderr)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": select(metrics, wanted)}
    print(json.dumps(result))
    return 0 if correct else 1


def everything(args):
    spec = load_spec()
    binary = build()
    ok = True
    for w in WORKLOADS:
        deadline = time.monotonic() + BUDGET_S
        correct, attempted, failed, problems, metrics = measure(
            binary, w, args.seed, args.seconds, args.trace, deadline)
        ok &= correct
        print(f"== {w}: correct={correct} attempted={attempted} failed={failed}")
        for p in problems:
            print(f"   output check: {p}")
        for name in sorted(metrics):
            m = metrics[name]
            print(f"   {name:36s} {m['value']:14.3f} {m['unit']:7s} n={m['samples']}")
    print("gated end-to-end metrics:", ", ".join(m["name"] for m in spec["end_to_end"]))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--all", action="store_true")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=15)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    if bool(args.all) == bool(args.workload):
        p.error("give exactly one of --workload and --all")
    try:
        return everything(args) if args.all else one_workload(args)
    except (RunFailed, OSError, ValueError, KeyError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
