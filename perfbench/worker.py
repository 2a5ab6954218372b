"""Benchmark worker: one process, one client, closed loop.

Runs the ops of one workload through ``relaycap.cli.main(argv)`` in this
process: the next op starts only when the previous one has returned. The
interpreter and numpy import are paid once, before timing. After the timed
phase, and outside it, every op's output is checked; see ``oracle``.

Untraced mode times each op's wall and CPU time, samples the machine's
speed between ops (see ``speed.speed_sample``) and reads the peak memory
of this process. Traced mode runs the ops with the layer wrappers
installed for half the time, then runs the same ops again untraced: the
two outputs of each op must be byte-identical, and the ratio of their
times is the tracing overhead.

Usage: worker.py --manifest FILE --result FILE --seconds S --trace 0|1
The manifest and the result are JSON files written by ``run.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import oracle
from speed import speed_sample
from spans import Tracer, summarize

ROOT = Path(__file__).resolve().parent.parent

#: The first FRONTIER_PER_VARIANT ops of each command line (the argv less
#: its config path: a quantifier, say) also get the frontier check, which
#: costs two constraint-table builds.
FRONTIER_PER_VARIANT = 2


def run_op(main, argv: list[str]) -> tuple[object, str, str]:
    """Exit code, stdout and stderr of one CLI invocation in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # an op that crashes is a failed op, not a failed run
            code = "exception"
            err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue()


def closed_loop(main, ops: list[dict], seconds: float, tracer=None, speed=None):
    """Run ops in order until ``seconds`` have passed (at least one op).

    Returns per-op (start, end) perf_counter windows, per-op CPU seconds
    and per-op results. If ``speed`` is a list, a speed sample is appended
    to it before the first op and after every op, outside the op's window.
    """
    windows, cpu, results = [], [], []
    start = time.perf_counter()
    if speed is not None:
        speed.append(speed_sample())
    for op in ops:
        c0 = cpu_seconds()
        t0 = time.perf_counter()
        if tracer is None:
            results.append(run_op(main, op["argv"]))
        else:
            results.append(tracer.op(op["index"], run_op, main, op["argv"]))
        t1 = time.perf_counter()
        cpu.append(cpu_seconds() - c0)
        windows.append((t0, t1))
        if speed is not None:
            speed.append(speed_sample())
        if t1 - start >= seconds:
            break
    return windows, cpu, results


def cpu_seconds() -> float:
    """User plus system CPU of this process and its children so far."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Peak resident set of this process or any child, in MiB (Linux
    reports both in KiB).

    This process's own peak is VmHWM, the high-water mark of its address
    space: its ru_maxrss would also hold the resident set of the parent
    when it forked this process, which is not the program's memory.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            own = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    except (OSError, StopIteration):
        pass
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def same_output(op: dict, first: tuple, second: tuple) -> bool:
    """Whether two runs of ``op`` gave the same exit code and output."""
    command = op["argv"][0]
    return first[0] == second[0] and (
        oracle.comparable(command, first[1]) == oracle.comparable(command, second[1]))


def frontier_sample(ops: list[dict]) -> set[int]:
    """Indices of the ops that get the frontier check: the first
    FRONTIER_PER_VARIANT ops of each command line, so every quantifier of a
    workload is covered. Verify ops have no frontier."""
    picked: set[int] = set()
    seen: dict[tuple[str, ...], int] = {}
    for op in ops:
        variant = tuple(a for a in op["argv"] if a != op["config"])
        if variant[0] != "verify" and seen.get(variant, 0) < FRONTIER_PER_VARIANT:
            seen[variant] = seen.get(variant, 0) + 1
            picked.add(op["index"])
    return picked


def check_ops(ops: list[dict], results: list[tuple]) -> dict[int, list[str]]:
    """Oracle problems per op index, for the ops that have any."""
    problems: dict[int, list[str]] = {}
    frontier = frontier_sample(ops)
    for op, (code, out, err) in zip(ops, results):
        doc = json.loads(Path(op["config"]).read_text(encoding="utf-8"))
        command = op["argv"][0]
        found = oracle.check_output(command, op["argv"], doc, code, out)
        if code != 0 and err:
            found.append("stderr: " + err.strip().splitlines()[-1])
        if not found and op["index"] in frontier:
            try:
                # For a sweep op, rows 0, 6, 12, ... : low, middle, high gamma.
                found += oracle.frontier_problems(command, op["argv"], doc, out,
                                                  row=6 * op["index"])
            except Exception as exc:  # the check must report, not abort the run
                found.append(f"frontier check raised {exc!r}")
        if found:
            problems[op["index"]] = found
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--manifest", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spans", default=None, help="gzipped CSV of spans (traced mode)")
    args = parser.parse_args(argv)

    import relaycap
    from relaycap import cli

    src = (ROOT / "src").resolve()
    if src not in Path(relaycap.__file__).resolve().parents:
        print(f"relaycap imported from {relaycap.__file__}, not from {src}", file=sys.stderr)
        return 2

    manifest = json.loads(Path(args.manifest).read_text(encoding="utf-8"))
    warmup, ops = manifest["ops"][0], manifest["ops"][1:]
    code, _, err = run_op(cli.main, warmup["argv"])
    if code != 0:
        print(f"warm-up op failed with exit code {code!r}:\n{err}", file=sys.stderr)
        return 1

    result: dict = {"numpy": np.__version__, "python": sys.version.split()[0]}
    if args.trace == 0:
        speed: list[float] = []
        windows, cpu, results = closed_loop(cli.main, ops, args.seconds, speed=speed)
        result.update(windows=windows, cpu_s=cpu, speed=speed, peak_rss_mb=peak_rss_mb())
        ops = ops[: len(results)]
        problems = check_ops(ops, results)
        rerun = run_op(cli.main, ops[0]["argv"])
        if not same_output(ops[0], results[0], rerun):
            problems.setdefault(ops[0]["index"], []).append(
                "re-run output differs from the first run")
    else:
        tracer = Tracer()
        result["missing_targets"] = tracer.install()
        try:
            windows, _, results = closed_loop(cli.main, ops, args.seconds / 2.0, tracer)
        finally:
            tracer.uninstall()
        ops = ops[: len(results)]
        plain_windows, _, plain_results = closed_loop(cli.main, ops, math.inf)
        problems = check_ops(ops, results)
        for op, traced, plain in zip(ops, results, plain_results):
            if not same_output(op, traced, plain):
                problems.setdefault(op["index"], []).append(
                    "traced and untraced outputs differ")
        result["untraced_windows"] = plain_windows
        result["layers"] = summarize(tracer.spans)
        if args.spans:
            tracer.write(Path(args.spans))

    result.update(
        windows=windows,
        attempted=len(results),
        problems={str(i): p for i, p in problems.items()},
    )
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
