"""Tests of the benchmark itself: inputs, oracle, tracer and the run contract.

Run from the checkout root with ``python3 -m pytest perfbench/tests -q``.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import netgen
import oracle
import run
import worker
from relaycap import bounds, cli
from spans import Tracer, summarize

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent


def bell(n: int) -> int:
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


def small_ops(tmp_path, command: str, nodes: int, flags=(), count: int = 2) -> list[dict]:
    workload = netgen.Workload("small", "test", command, nodes, tuple(flags))
    return netgen.write_ops(workload, 7, count, tmp_path)[1:]


def run_one(op: dict) -> tuple[dict, tuple]:
    doc = json.loads(Path(op["config"]).read_text(encoding="utf-8"))
    return doc, worker.run_op(cli.main, op["argv"])


# -- inputs ----------------------------------------------------------------


def test_generator_is_a_function_of_the_seed(tmp_path):
    files = {}
    for seed, sub in ((5, "a"), (5, "b"), (6, "c")):
        for name in ("wide-t11", "verify-default"):
            netgen.write_ops(netgen.WORKLOADS[name], seed, 4, tmp_path / sub / name)
        files[sub] = {p.relative_to(tmp_path / sub): p.read_bytes()
                      for p in (tmp_path / sub).rglob("*.json")}
    assert files["a"] == files["b"]
    assert set(files["a"]) == set(files["c"])
    assert all(files["a"][k] != files["c"][k] for k in files["a"])


def test_no_input_repeats_within_a_run(tmp_path):
    ops = netgen.write_ops(netgen.WORKLOADS["descent-t8"], 1, 50, tmp_path)
    texts = [Path(op["config"]).read_text() for op in ops]
    assert len(set(texts)) == len(texts)


def test_verify_suite_seeds_never_overlap():
    w = netgen.WORKLOADS["verify-default"]
    seeds = [netgen.op_config(w, 3, i)[0]["verify"]["seed"] for i in range(100)]
    suite_seeds = [s + k for s in seeds for k in range(3)]
    assert len(set(suite_seeds)) == len(suite_seeds)


# -- oracle ----------------------------------------------------------------


def test_oracle_accepts_correct_outputs(tmp_path):
    for command, flags in (("cfrate", ("--mode", "coordinate")), ("sweep", ())):
        for op in small_ops(tmp_path / command, command, 5, flags):
            doc, (code, out, _) = run_one(op)
            assert oracle.check_output(command, op["argv"], doc, code, out) == []
            assert oracle.frontier_problems(command, op["argv"], doc, out, row=3) == []


def test_oracle_rejects_a_flipped_rate_digit(tmp_path):
    op = small_ops(tmp_path, "cfrate", 5)[0]
    doc, (code, out, _) = run_one(op)
    line = next(l for l in out.splitlines() if l.startswith("cf rate:"))
    digits = [i for i, c in enumerate(line) if c.isdigit()]
    i = digits[4]
    bad = line[:i] + str((int(line[i]) + 1) % 10) + line[i + 1:]
    problems = oracle.check_output("cfrate", op["argv"], doc, code, out.replace(line, bad))
    assert any("rate" in p for p in problems)


def test_oracle_rejects_a_wrong_exit_code(tmp_path):
    op = small_ops(tmp_path, "cfrate", 5)[0]
    doc, (_, out, _) = run_one(op)
    assert oracle.check_output("cfrate", op["argv"], doc, 2, out) == [
        "exit code 2, expected 0"]


def test_oracle_rejects_a_non_monotone_sweep(tmp_path):
    op = small_ops(tmp_path, "sweep", 5)[0]
    doc, (code, out, _) = run_one(op)
    lines = out.splitlines()
    # Swap everything but gamma between two rows: each row stays
    # self-consistent (rate, gap and Q agree), only the order is wrong.
    a, b = lines[3].split(","), lines[4].split(",")
    lines[3] = ",".join(a[:1] + b[1:])
    lines[4] = ",".join(b[:1] + a[1:])
    problems = oracle.check_output("sweep", op["argv"], doc, code, "\n".join(lines) + "\n")
    assert problems and all("falls" in p for p in problems)


def test_oracle_rejects_a_failed_verify():
    out = "FAIL  x  detail  (0.01s)\n4/5 suites passed\n"
    assert oracle.check_output("verify", ["verify"], {}, 0, out)


def test_rerun_comparison_masks_only_verify_timings():
    a = "PASS  alpha  256 sets  (0.71s)\n5/5 suites passed\n"
    b = "PASS  alpha  256 sets  (0.93s)\n5/5 suites passed\n"
    assert oracle.comparable("verify", a) == oracle.comparable("verify", b)
    assert oracle.comparable("verify", a) != oracle.comparable("verify", a.replace("256", "255"))
    assert oracle.comparable("cfrate", a) != oracle.comparable("cfrate", b)


@pytest.mark.parametrize("quantifier", ["forall", "exists"])
def test_frontier_check_rejects_a_point_off_the_frontier(tmp_path, quantifier):
    flags = ("--mode", "uniform", "--quantifier", quantifier)
    op = small_ops(tmp_path, "cfrate", 6, flags)[0]
    doc, (_, out, _) = run_one(op)
    assert oracle.parse_cfrate(out)["quantifier"] == quantifier
    assert oracle.frontier_problems("cfrate", op["argv"], doc, out) == []
    q = oracle.parse_cfrate(out)["q"]
    for rid, val in q.items():
        out = out.replace(f"relay {rid}: Q = {cli._fmt(val)}",
                          f"relay {rid}: Q = {cli._fmt(val * 1.01)}")
    problems = oracle.frontier_problems("cfrate", op["argv"], doc, out)
    assert any("still feasible" in p for p in problems)


def test_frontier_sample_covers_every_quantifier(tmp_path):
    ops = netgen.write_ops(netgen.WORKLOADS["wide-t11"], 1, 12, tmp_path)[1:]
    picked = [op for op in ops if op["index"] in worker.frontier_sample(ops)]
    assert [op["argv"][-1] for op in picked] == ["forall", "exists", "forall", "exists"]
    verify = netgen.write_ops(netgen.WORKLOADS["verify-default"], 1, 4, tmp_path / "v")
    assert worker.frontier_sample(verify[1:]) == set()


# -- tracer ----------------------------------------------------------------


@pytest.mark.parametrize("nodes", [5, 6, 7])
def test_partition_count_per_cfrate_op(tmp_path, nodes):
    ops = small_ops(tmp_path, "cfrate", nodes, ("--mode", "coordinate"), count=2)
    tracer = Tracer()
    assert tracer.install() == []
    try:
        for op in ops:
            tracer.op(op["index"], worker.run_op, cli.main, op["argv"])
    finally:
        tracer.uninstall()
    layers = summarize(tracer.spans)["layers"]
    relays = nodes - 2
    assert layers["enumeration.partitions"]["yielded"] == len(ops) * 2 * (bell(relays + 1) - 1)
    assert layers["op"]["calls"] == len(ops)


def test_traced_and_untraced_outputs_are_identical(tmp_path):
    ops = small_ops(tmp_path / "c", "cfrate", 6, ("--mode", "coordinate"))
    ops += small_ops(tmp_path / "s", "sweep", 5)
    plain = [worker.run_op(cli.main, op["argv"]) for op in ops]
    tracer = Tracer()
    tracer.install()
    try:
        traced = [tracer.op(op["index"], worker.run_op, cli.main, op["argv"]) for op in ops]
    finally:
        tracer.uninstall()
    assert traced == plain
    assert cli.build_rate_report is bounds.build_rate_report  # unwrapped again


def test_missing_wrap_target_is_reported_by_name():
    tracer = Tracer(targets=(("relaycap.bounds", "no_such_function", "bounds.gone"),))
    assert tracer.install() == ["relaycap.bounds.no_such_function"]
    tracer.uninstall()


def test_self_time_subtracts_children():
    spans = [["op", 0, -1, 0.0, 10.0, 0], ["a", 0, 0, 1.0, 4.0, 0],
             ["enumeration.partitions", 0, 1, 2.0, 1.5, 7]]
    layers = summarize(spans)["layers"]
    assert layers["op"]["self_s"] == 6.0
    assert layers["a"]["self_s"] == 2.5
    assert layers["enumeration.partitions"]["yielded"] == 7


def test_op_times_use_the_samples_on_both_sides_of_each_op():
    result = {"windows": [(0.0, 1.0), (1.0, 1.01)], "cpu_s": [0.9, 0.01],
              "speed": [0.1, 0.3, 0.5]}
    wall, cpu, ref = run.op_times(result)
    assert wall == pytest.approx([1.0, 0.01])
    assert cpu == [0.9, 0.01]
    assert ref == pytest.approx([0.2, 0.4])


def test_setup_seconds_divide_each_spawn_by_the_speed_around_it():
    # The machine slows to half speed across the run; each spawn slows with
    # it, and the set-up time stays the same.
    nominal = run.NOMINAL_KERNEL_S
    times = [0.2, 0.3, 0.4]
    speed = [nominal, nominal, 2 * nominal, 2 * nominal]
    assert run.setup_seconds(times, speed) == pytest.approx(0.2)


def test_closed_loop_samples_speed_outside_the_ops():
    calls = []
    ops = [{"index": i, "argv": ["x"]} for i in range(3)]
    speed = []
    windows, _, results = worker.closed_loop(lambda argv: calls.append(argv) or 0, ops,
                                             math.inf, speed=speed)
    assert len(results) == len(windows) == 3
    assert len(speed) == 4 and all(s > 0 for s in speed)


def test_peak_rss_is_not_the_parents():
    # A parent holding 64 MiB forks and execs a fresh interpreter; the
    # child's peak must not include the parent's memory.
    code = ("import subprocess, sys; big = bytearray(64 << 20); "
            "sys.exit(subprocess.run([sys.executable, '-c', "
            "'import worker; print(worker.peak_rss_mb())']).returncode)")
    proc = subprocess.run([sys.executable, "-c", code], cwd=BENCH, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 60.0


def test_tail_percentile_keeps_ten_samples_beyond():
    lat = [float(i) for i in range(1, 101)]
    assert run.tail(lat) == (90.0, 90.0, 10)
    assert run.tail(lat[:15])[1] == 50.0


# -- the run contract ------------------------------------------------------


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_the_declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "descent-t8", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    got = last_json(proc.stdout)
    assert set(got) == {"correct", "attempted", "failed", "metrics"}
    assert got["correct"] and got["failed"] == 0 and got["attempted"] >= 1
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in got["metrics"].items()}


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "descent-t8", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
