"""One test per release criterion at its stated tolerance.

Each test is the exit gate for one numbered requirement; none may be
weakened or skipped. Thresholds are written out literally so a diff of
this file shows any change to the contract.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

import relaycap as rc
from oracles import (
    assignments,
    bell_numbers,
    count_assignments_brute,
    det_cofactor,
    partitions,
    random_network,
    sample_feasible_q,
)
from relaycap import cli
from relaycap.enumeration import subsets

OFFSETS = tuple((i - 10) / 10.0 for i in range(21))


def test_criterion_01_alpha_grid_closed_form_and_argmax():
    # >= 200 (P1, P2, N2, N3) combinations x >= 21 alphas: dual-route MI
    # within 1e-9 bits of 1/2 log2(1 + pw/N2 + pw/N3), argmax alpha = 0,
    # all in under 5 seconds.
    combos = list(
        itertools.product((0.5, 1.0, 2.0, 5.0), (0.25, 1.0, 4.0, 10.0),
                          (0.5, 1.0, 2.0, 4.0), (0.25, 1.0, 3.0, 8.0))
    )
    assert len(combos) >= 200
    assert len(OFFSETS) >= 21
    t0 = time.perf_counter()
    for p1, p2, n2, n3 in combos:
        limit = math.sqrt(p1 / p2)
        alphas = tuple(0.9 * limit * o for o in OFFSETS)
        rep = rc.verify_single_relay_independence(p1, p2, n2, n3, alphas)
        for alpha, got in zip(alphas, rep.covariance_bits):
            pw = max(p1 - alpha * alpha * p2, 0.0)
            want = 0.5 * math.log2(1.0 + pw / n2 + pw / n3)
            assert abs(got - want) < 1e-9
        assert rep.argmax_alpha == 0.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"alpha grid took {elapsed:.2f}s, budget is 5s"


def test_criterion_02_beta_grid_invariance():
    # >= 100 (P1, N2, N3, N4) combinations x >= 21 betas: MI constant
    # within 1e-9 bits and equal to 1/2 log2(1 + P1(1/N2 + 1/N3 + 1/N4)).
    combos = list(
        itertools.product((0.5, 1.0, 2.0, 5.0, 10.0), (0.5, 1.0, 2.0),
                          (0.5, 1.0, 3.0), (1.0, 2.0, 4.0))
    )
    assert len(combos) >= 100
    for p1, n2, n3, n4 in combos:
        rep = rc.verify_relay_correlation_invariance(p1, n2, n3, n4, OFFSETS)
        want = 0.5 * math.log2(1.0 + p1 * (1.0 / n2 + 1.0 / n3 + 1.0 / n4))
        for got in rep.mi_bits:
            assert abs(got - want) < 1e-9


def test_criterion_03_quantized_determinant_oracle():
    # 500 random instances with D <= 6: the factorization determinant
    # matches cofactor expansion and the rank-one-update closed form to
    # relative error < 1e-10.
    rng = np.random.default_rng(20260815)
    for _ in range(500):
        d = int(rng.integers(1, 7))
        lam = 10.0 ** rng.uniform(-1.0, 1.0, size=d)
        noise = 10.0 ** rng.uniform(-0.5, 0.5, size=d)
        qv = 10.0 ** rng.uniform(-3.0, 3.0, size=d)
        p1 = float(10.0 ** rng.uniform(-0.5, 0.5))
        nodes = [rc.source(1, p1)]
        nodes += [rc.relay(2 + k, 1.0, float(noise[k])) for k in range(d)]
        nodes.append(rc.destination(d + 2, 1.0))
        g = np.ones((d + 2, d + 2))
        np.fill_diagonal(g, 0.0)
        g[0, 1 : d + 1] = lam
        g[1 : d + 1, 0] = lam
        net = rc.from_gains(nodes, g)
        s = tuple(range(2, d + 2))
        q = rc.QuantizationVector(entries=tuple(zip(s, qv.tolist())))
        got = rc.quantized_covariance_det(net, s, q)
        u = np.sqrt(lam)
        oracle = det_cofactor(np.diag(noise + qv) + p1 * np.outer(u, u))
        closed = float(np.prod(noise + qv) * (1.0 + p1 * np.sum(lam / (noise + qv))))
        assert abs(got - oracle) <= 1e-10 * max(abs(got), abs(oracle))
        assert abs(got - closed) <= 1e-10 * max(abs(got), abs(closed))


def test_criterion_04_achievability_below_converse():
    # 100 random valid networks (T <= 6), random feasible Q:
    # cf_rate <= source_cut_bound + 1e-9 every time.
    rng = np.random.default_rng(20260816)
    for _ in range(100):
        net = random_network(rng, int(rng.integers(3, 7)))
        q = sample_feasible_q(rng, net)
        assert rc.cf_rate(net, q) <= rc.source_cut_bound(net) + 1e-9


def test_criterion_05_feasibility_monotone_under_scaling():
    # 100 random (network, feasible Q) pairs stay feasible at c*Q for
    # c in {1.5, 10, 1e3}.
    rng = np.random.default_rng(20260817)
    for _ in range(100):
        net = random_network(rng, int(rng.integers(3, 7)))
        q = sample_feasible_q(rng, net)
        ok, _ = rc.cf_feasible(net, q)
        assert ok
        for c in (1.5, 10.0, 1e3):
            ok, _ = rc.cf_feasible(net, q.scaled_by(c))
            assert ok, f"scale {c} broke feasibility"


def test_criterion_06_reference_network_gap_convergence(reference_network):
    # Decade sweep gamma = 1..1e6 on the 4-node reference network: gaps
    # nonincreasing, gap(1e6) < 1e-2 bits and < gap(1)/100, within 30 s.
    # With uniform Q the frontier is q*(g) = (2 + sqrt(4 + 3g))/g, giving
    # gap(1e6) ~ 6.25e-4 bits and gap(1) ~ 0.382, so both thresholds hold
    # with an order of magnitude to spare.
    gammas = [10.0**k for k in range(7)]
    t0 = time.perf_counter()
    rows = rc.convergence_sweep(reference_network, gammas)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"sweep took {elapsed:.2f}s, budget is 30s"
    assert all(r.feasible for r in rows)
    gaps = [r.gap_bits for r in rows]
    for a, b in zip(gaps, gaps[1:]):
        assert b <= a + 1e-12, f"gap increased along the sweep: {gaps}"
    assert gaps[-1] < 1e-2
    assert gaps[-1] < gaps[0] / 100.0


def test_criterion_07_min_cut_is_source_cut_at_high_relay_power(reference_network):
    _, argmin = rc.min_cut_bound(rc.scaled(reference_network, 1e4))
    assert argmin.sorted_ids() == (1,)


def test_criterion_08_enumeration_counts():
    # Partition counts follow the Bell numbers 2, 5, 15, 52 for set sizes
    # 2..5; assignment counts match both the product formula and a
    # brute-force counter for every subset and partition with T <= 6.
    bell = bell_numbers(5)
    for k, want in zip(range(2, 6), (2, 5, 15, 52)):
        s = tuple(range(2, 2 + k))
        got = sum(1 for _ in partitions(s))
        assert got == want == bell[k]
    for t in range(3, 7):
        relays = tuple(range(2, t))
        candidates = tuple(range(2, t + 1))
        for s in subsets(relays):
            if not s:
                continue
            for part in partitions(s):
                got = sum(1 for _ in assignments(part, candidates))
                formula = 1
                for block in part:
                    formula *= len(candidates) - len(block)
                assert got == formula
                assert got == count_assignments_brute(part, candidates)


def _reference_doc(gammas):
    full = [[0.0 if i == j else 1.0 for j in range(4)] for i in range(4)]
    return {
        "nodes": [
            {"id": 1, "role": "source", "power": 1.0},
            {"id": 2, "role": "relay", "power": 1.0, "noise": 1.0},
            {"id": 3, "role": "relay", "power": 1.0, "noise": 1.0},
            {"id": 4, "role": "destination", "noise": 1.0},
        ],
        "gains": full,
        "sweep": {"gammas": gammas},
    }


def test_criterion_09_sweep_csv_is_deterministic(tmp_path):
    cfg = tmp_path / "ref.json"
    cfg.write_text(json.dumps(_reference_doc([1, 10, 100, 1000])), encoding="utf-8")
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(first)]) == 0
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_criterion_10_exit_codes(tmp_path, capsys, injected_fault):
    # 0: a well-formed run; 1: verification failure; 2: config error;
    # 3: size guard; 4: no feasible quantization.
    ref = tmp_path / "ref.json"
    ref.write_text(json.dumps(_reference_doc([1, 10])), encoding="utf-8")
    assert cli.main(["cfrate", "--config", str(ref)]) == 0

    small_verify = tmp_path / "verify.json"
    small_verify.write_text(
        json.dumps(
            {
                "verify": {
                    "alpha_offsets": [-1.0, 0.0, 1.0],
                    "beta_grid": [-0.5, 0.0, 0.5],
                    "det_samples": 20,
                    "network_samples": 5,
                }
            }
        ),
        encoding="utf-8",
    )
    assert cli.main(["verify", "--config", str(small_verify)]) == 1

    broken = tmp_path / "broken.json"
    broken.write_text("{", encoding="utf-8")
    assert cli.main(["bound", "--config", str(broken)]) == 2

    doc = _reference_doc([1])
    doc["nodes"] = (
        [{"id": 1, "role": "source", "power": 1.0}]
        + [{"id": j, "role": "relay", "power": 1.0, "noise": 1.0} for j in range(2, 12)]
        + [{"id": 12, "role": "destination", "noise": 1.0}]
    )
    doc["gains"] = [[0.0 if i == j else 1.0 for j in range(12)] for i in range(12)]
    del doc["sweep"]
    big = tmp_path / "big.json"
    big.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["cfrate", "--config", str(big)]) == 3

    doc = _reference_doc([1])
    del doc["sweep"]
    doc["nodes"] = [
        {"id": 1, "role": "source", "power": 1.0},
        {"id": 2, "role": "relay", "power": 0.0, "noise": 1.0},
        {"id": 3, "role": "destination", "noise": 1.0},
    ]
    doc["gains"] = [[0.0 if i == j else 1.0 for j in range(3)] for i in range(3)]
    dead = tmp_path / "dead.json"
    dead.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["cfrate", "--config", str(dead)]) == 4

    capsys.readouterr()  # drain
