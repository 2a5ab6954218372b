"""relaycap benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src`` directory. The run writes its inputs under ``perfbench/out``,
measures set-up time by spawning fresh interpreters, then drives the
``relaycap`` CLI in one worker process (see ``worker.py``) and checks every
output. It prints a readable report and, as the last line of stdout, one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones from a traced run.

Exit codes: 0 run completed (``correct`` tells whether every op passed),
1 the worker failed, 2 no program source to benchmark.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import netgen
from speed import speed_sample

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Upper limit on the rate the configs written per run can feed; a faster
#: program ends its timed phase early, with ops_per_s still exact.
MAX_OPS_PER_S = 100

#: Fresh interpreters timed per run for setup_s (after one warm-up spawn
#: that writes the bytecode cache).
SETUP_SPAWNS = 11

#: setup_s is stated at a fixed machine speed: the one at which a speed
#: sample (see speed.py) reads NOMINAL_KERNEL_S. On the two-vCPU machine of
#: BASELINE.md samples read 0.4-0.8 ms.
NOMINAL_KERNEL_S = 0.6e-3

#: The worker must end well inside the 180 s a run may take.
WORKER_TIMEOUT_S = 150

#: Percentiles tried for op_s_tail, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

#: The gated end-to-end metrics. Op times are in "ref" units: multiples of
#: the worker's reference kernel, timed just before and just after each op
#: (see speed.speed_sample). The host this runs on is shared and its speed
#: drifts by tens of percent; the kernel drifts with it, so the ratio holds
#: still while a change to the program moves it. The report also prints
#: the same figures in seconds.
END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_kref": "1/kref",
    "op_ref_p50": "ref",
    "op_ref_tail": "ref",
    "cpu_ref_per_op": "ref",
    "peak_rss_mb": "MiB",
    "ok_ratio": "ratio",
}

#: (metric, unit): per op unless the unit says otherwise. Only times that
#: are non-zero on every workload are here; the report and the layer file
#: carry every span.
PER_LAYER_UNITS = {
    "enumeration.partitions.yielded": "count",
    "enumeration.partitions.calls": "count",
    "enumeration.partitions.s": "s",
    "enumeration.subsets.yielded": "count",
    "enumeration.subsets.s": "s",
    "bounds.table_side.s": "s",
    "bounds.table_side.share": "ratio",
    "bounds.optimize_quantization.calls": "count",
    "bounds.optimize_quantization.s": "s",
    "bounds.optimize_quantization.self_s": "s",
    "bounds.search_est_s": "s",
    "bounds.cf_rate.calls": "count",
    "bounds.cf_rate.s": "s",
    "bounds.cf_feasible.calls": "count",
    "bounds.cut_rate.calls": "count",
    "bounds.source_cut_bound.s": "s",
    "bounds.quantized_covariance_det.calls": "count",
    "topology.scaled.calls": "count",
    "topology.validate.calls": "count",
    "gaussian.log2_det.calls": "count",
    "gaussian.log2_det.s": "s",
    "gaussian.conditional_mi_bits.calls": "count",
    "gaussian.conditional_mi_bits.s": "s",
    "gaussian.joint_covariance.calls": "count",
    "gaussian.conditional_covariance.calls": "count",
    "selftest.run_all.calls": "count",
    "cli.load_config.calls": "count",
    "cli.cmd.s": "s",
    "cli.cmd.self_s": "s",
    "trace.op_s": "s",
    "trace.ops": "count",
    "trace.overhead": "ratio",
    "trace.missing_targets": "count",
}


def worker_env() -> dict[str, str]:
    """Environment of every process the benchmark starts: the checkout's
    ``src`` first on the path, BLAS and OpenMP pinned to one thread."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def measure_setup(env: dict[str, str]) -> tuple[list[float], list[float]]:
    """Seconds from spawning a fresh interpreter until ``relaycap.cli`` is
    imported, once per spawn (both sides read CLOCK_MONOTONIC), and the
    speed samples taken before the first spawn and after each one."""
    code = "import time, relaycap.cli; print(repr(time.monotonic()))"
    times, speed = [], []
    for k in range(SETUP_SPAWNS + 1):
        if k > 0:
            speed.append(speed_sample())
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up spawn failed: {proc.stderr.strip()}")
        if k > 0:
            times.append(float(proc.stdout) - t0)
    speed.append(speed_sample())
    return times, speed


def setup_seconds(times: list[float], speed: list[float]) -> float:
    """setup_s: the median spawn time at the nominal machine speed. Each
    spawn's seconds are divided by the mean of the speed samples on either
    side of it and multiplied by NOMINAL_KERNEL_S, so that the host's drift
    cancels out and a change to the program's import does not."""
    return statistics.median(
        t / ((a + b) / 2.0) * NOMINAL_KERNEL_S for t, a, b in zip(times, speed, speed[1:]))


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """op_s_tail: the highest TAIL_LADDER percentile with at least ten
    samples beyond it (nearest rank), else the median. Returns (value,
    percentile, samples beyond)."""
    ordered = sorted(latencies)
    n = len(ordered)
    for p in TAIL_LADDER:
        rank = max(1, math.ceil(p / 100.0 * n))
        if n - rank >= 10 or p == TAIL_LADDER[-1]:
            return ordered[rank - 1], p, n - rank
    raise AssertionError("unreachable")


def op_times(result: dict) -> tuple[list[float], list[float], list[float]]:
    """Per op: wall and CPU seconds, and the reference-kernel seconds around
    it: the mean of the speed samples taken just before and just after."""
    speed = result["speed"]
    wall = [t1 - t0 for t0, t1 in result["windows"]]
    ref = [(a + b) / 2.0 for a, b in zip(speed, speed[1:])]
    return wall, result["cpu_s"], ref


def end_to_end(result: dict, setup: tuple[list[float], list[float]]
               ) -> tuple[dict[str, float], list[str]]:
    wall, cpu, ref = op_times(result)
    n = len(wall)
    wall_ref = [w / r for w, r in zip(wall, ref)]
    tail_ref, tail_p, beyond = tail(wall_ref)
    failed = len(result["problems"])
    metrics = {
        "setup_s": setup_seconds(*setup),
        "ops_per_kref": 1000.0 * n / sum(wall_ref),
        "op_ref_p50": statistics.median(wall_ref),
        "op_ref_tail": tail_ref,
        "cpu_ref_per_op": sum(c / r for c, r in zip(cpu, ref)) / n,
        "peak_rss_mb": result["peak_rss_mb"],
        "ok_ratio": 1.0 - failed / n,
    }
    kernel = result["speed"]
    notes = [
        f"setup_s: median of {len(setup[0])} spawns at the nominal speed; in seconds "
        f"median {statistics.median(setup[0]):.4f} min {min(setup[0]):.4f} "
        f"max {max(setup[0]):.4f}",
        f"reference kernel: {len(kernel)} samples between ops, median {statistics.median(kernel) * 1e3:.4f} ms,"
        f" min {min(kernel) * 1e3:.4f} max {max(kernel) * 1e3:.4f}",
        f"tail: p{tail_p:g} of n={n} ops, {beyond} samples beyond",
        "in seconds:",
        f"  {'ops_per_s':<40} {n / sum(wall):>14.6g} 1/s  ({n} ops in {sum(wall):.3f} s)",
        f"  {'op_s_p50':<40} {statistics.median(wall):>14.6g} s",
        f"  {'op_s_tail':<40} {tail(wall)[0]:>14.6g} s",
        f"  {'cpu_s_per_op':<40} {sum(cpu) / n:>14.6g} s",
        f"  {'failed_ratio':<40} {failed / n:>14.6g} ratio  ({failed}/{n})",
    ]
    return metrics, notes


def per_layer(result: dict) -> tuple[dict[str, float], list[str]]:
    layers = result["layers"]["layers"]
    derived = result["layers"]["derived"]
    ops = layers.get("op", {}).get("calls", 0)
    if ops == 0:
        raise RuntimeError("traced run recorded no op spans")

    def get(name: str, field: str) -> float:
        return layers.get(name, {}).get(field, 0) / ops

    metrics: dict[str, float] = {}
    for key in PER_LAYER_UNITS:
        name, _, field = key.rpartition(".")
        if name and field in ("calls", "s", "self_s", "yielded"):
            metrics[key] = get(name, field)
    op_s = get("op", "s")
    feasible_calls = get("bounds.cf_feasible", "calls")
    # One cf_feasible call is one table build plus one margin pass, which
    # stands in for the table build inside each optimize_quantization call.
    # In sweep ops cf_feasible never runs; the generators' time inside
    # optimize_quantization stands in there.
    if feasible_calls:
        table_est = (get("bounds.optimize_quantization", "calls")
                     * get("bounds.cf_feasible", "s") / feasible_calls)
    else:
        table_est = derived["enumeration_in_optimize_s"] / ops
    metrics.update({
        "bounds.table_side.s": derived["table_side_s"] / ops,
        "bounds.table_side.share": derived["table_side_s"] / ops / op_s,
        "bounds.search_est_s": (get("bounds.optimize_quantization", "s") - table_est
                                - derived["cf_rate_in_optimize_s"] / ops),
        "trace.op_s": op_s,
        "trace.ops": ops,
        "trace.overhead": (sum(t1 - t0 for t0, t1 in result["windows"])
                           / sum(t1 - t0 for t0, t1 in result["untraced_windows"])),
        "trace.missing_targets": len(result["missing_targets"]),
    })
    notes = [f"per op, over {ops} traced ops; spans by inclusive time:"]
    width = max(len(k) for k in layers)
    for name, agg in sorted(layers.items(), key=lambda kv: -kv[1]["s"]):
        notes.append(
            f"  {name.ljust(width)}  calls {agg['calls'] / ops:>11.6g}  s {agg['s'] / ops:>10.6f}"
            f"  self_s {agg['self_s'] / ops:>10.6f}  yielded {agg['yielded'] / ops:g}")
    notes += [f"  bounds.table_est_s (cf_feasible.s) {get('bounds.cf_feasible', 's'):.6f}"]
    for target in result["missing_targets"]:
        notes.append(f"MISSING wrap target {target}: its spans read as absent, not zero")
    return metrics, notes


def machine_line(result: dict) -> str:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return (f"machine: nproc {os.cpu_count()}, cpu {model}, python {result['python']}, "
            f"numpy {result['numpy']}, threads pinned to 1 via {', '.join(THREAD_VARS)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="relaycap benchmark: one workload, one run")
    parser.add_argument("--workload", required=True, choices=sorted(netgen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "relaycap" / "cli.py").is_file():
        print(f"no relaycap source under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    workload = netgen.WORKLOADS[args.workload]
    os.chdir(ROOT)  # config paths handed to the program are relative to the checkout
    out = Path(HERE.name) / "out"
    work = out / f"{workload.name}-seed{args.seed}-pid{os.getpid()}"
    spans_path = out / f"spans-{workload.name}-seed{args.seed}.csv.gz"
    env = worker_env()
    try:
        ops = netgen.write_ops(workload, args.seed, math.ceil(args.seconds * MAX_OPS_PER_S),
                               work / "configs")
        manifest = work / "manifest.json"
        manifest.write_text(json.dumps({"ops": ops}), encoding="utf-8")
        setup = measure_setup(env) if args.trace == 0 else ([], [])
        result_path = work / "result.json"
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--manifest", str(manifest),
             "--result", str(result_path), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--spans", str(spans_path)],
            env=env, cwd=ROOT, timeout=WORKER_TIMEOUT_S)
        if proc.returncode != 0:
            print(f"worker exited with code {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(result_path.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace == 0:
        metrics, notes = end_to_end(result, setup)
        units = END_TO_END_UNITS
    else:
        metrics, notes = per_layer(result)
        units = PER_LAYER_UNITS
    failed = len(result["problems"])
    print(f"workload {workload.name} ({workload.why}); seed {args.seed}; "
          f"{args.seconds:g} s; trace {args.trace}")
    print(machine_line(result))
    for name, unit in units.items():
        print(f"  {name:<40} {metrics[name]:>14.6g} {unit}")
    for line in notes:
        print(line)
    for index, problems in sorted(result["problems"].items(), key=lambda kv: int(kv[0])):
        for problem in problems:
            print(f"FAILED op {index}: {problem}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
