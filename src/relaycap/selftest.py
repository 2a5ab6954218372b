"""Built-in verification suites behind the `verify` CLI command.

Five suites, each summarized as one CheckResult: the two dual-route
correlation sweeps on small networks, the determinant-lemma cross-check of
the quantized-observation covariance determinant, feasibility monotonicity
under scaling, and achievable-rate-below-bound sampling. Grids and seeds
are fixed so a run is deterministic; the random samplers use an explicit
Generator seeded per suite.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .bounds import (
    QuantizationVector,
    cf_feasible,
    cf_rate,
    optimize_quantization,
    quantized_covariance_det,
    source_cut_bound,
    verify_relay_correlation_invariance,
    verify_single_relay_independence,
)
from .errors import RelaycapError
from .topology import NetworkSpec, destination, from_gains, relay, source

#: 21 symmetric grid offsets in [-1, 1] with an exact 0.0 at the center.
DEFAULT_OFFSETS = tuple((i - 10) / 10.0 for i in range(21))

_ALPHA_P1 = (0.5, 1.0, 2.0, 5.0)
_ALPHA_P2 = (0.25, 1.0, 4.0, 10.0)
_ALPHA_N2 = (0.5, 1.0, 2.0, 4.0)
_ALPHA_N3 = (0.25, 1.0, 3.0, 8.0)

_BETA_P1 = (0.5, 1.0, 2.0, 5.0, 10.0)
_BETA_N2 = (0.5, 1.0, 2.0)
_BETA_N3 = (0.5, 1.0, 3.0)
_BETA_N4 = (1.0, 2.0, 4.0)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    elapsed_s: float


def alpha_suite(offsets: tuple[float, ...] | None = None) -> CheckResult:
    """Dual-route single-relay sweep over 256 parameter sets.

    The verification op itself asserts route agreement and the argmax
    location; on top of that the suite recomputes every closed-form value
    here and compares it with the reported one.
    """
    t0 = time.perf_counter()
    name = "single-relay-correlation"
    offsets = DEFAULT_OFFSETS if offsets is None else tuple(float(o) for o in offsets)
    sets = 0
    worst_route = 0.0
    worst_expect = 0.0
    for p1 in _ALPHA_P1:
        for p2 in _ALPHA_P2:
            for n2 in _ALPHA_N2:
                for n3 in _ALPHA_N3:
                    limit = math.sqrt(p1 / p2)
                    alphas = tuple(0.9 * limit * o for o in offsets)
                    try:
                        rep = verify_single_relay_independence(p1, p2, n2, n3, alphas)
                    except RelaycapError as exc:
                        return CheckResult(
                            name,
                            False,
                            f"p1={p1} p2={p2} n2={n2} n3={n3}: {exc}",
                            time.perf_counter() - t0,
                        )
                    worst_route = max(worst_route, rep.max_abs_diff_bits)
                    for a, got in zip(rep.alphas, rep.closed_form_bits):
                        pw = max(p1 - a * a * p2, 0.0)
                        want = 0.5 * math.log2(1.0 + pw / n2 + pw / n3)
                        worst_expect = max(worst_expect, abs(got - want))
                    if worst_expect > 1e-9:
                        return CheckResult(
                            name,
                            False,
                            f"closed form off by {worst_expect:.3e} bits at "
                            f"p1={p1} p2={p2} n2={n2} n3={n3}",
                            time.perf_counter() - t0,
                        )
                    sets += 1
    detail = (
        f"{sets} parameter sets x {len(offsets)} alphas; "
        f"max dual-route gap {worst_route:.3e} bits"
    )
    return CheckResult(name, True, detail, time.perf_counter() - t0)


def beta_suite(betas: tuple[float, ...] | None = None) -> CheckResult:
    """Relay-correlation invariance sweep over 135 parameter sets."""
    t0 = time.perf_counter()
    name = "relay-correlation-invariance"
    betas = DEFAULT_OFFSETS if betas is None else tuple(float(b) for b in betas)
    sets = 0
    worst = 0.0
    for p1 in _BETA_P1:
        for n2 in _BETA_N2:
            for n3 in _BETA_N3:
                for n4 in _BETA_N4:
                    try:
                        rep = verify_relay_correlation_invariance(p1, n2, n3, n4, betas)
                    except RelaycapError as exc:
                        return CheckResult(
                            name,
                            False,
                            f"p1={p1} n2={n2} n3={n3} n4={n4}: {exc}",
                            time.perf_counter() - t0,
                        )
                    worst = max(worst, rep.max_abs_dev_bits)
                    sets += 1
    detail = f"{sets} parameter sets x {len(betas)} betas; max deviation {worst:.3e} bits"
    return CheckResult(name, True, detail, time.perf_counter() - t0)


def _flat_network(source_gains: np.ndarray, relay_noises: np.ndarray, p1: float) -> NetworkSpec:
    """Source + D relays + destination with prescribed source gains; all
    other gains and powers are unit (irrelevant to the determinant)."""
    d = len(source_gains)
    nodes = [source(1, power=p1)]
    for k in range(d):
        nodes.append(relay(2 + k, power=1.0, noise=float(relay_noises[k])))
    nodes.append(destination(d + 2, noise=1.0))
    t = d + 2
    g = np.ones((t, t))
    np.fill_diagonal(g, 0.0)
    g[0, 1 : d + 1] = source_gains
    g[1 : d + 1, 0] = source_gains
    return from_gains(nodes, g)


def determinant_lemma_suite(samples: int = 500, seed: int = 20250811) -> CheckResult:
    """Factorized determinant vs the rank-one-update closed form
    prod(N+Q) * (1 + P1 * sum lambda/(N+Q)) on random instances."""
    t0 = time.perf_counter()
    name = "determinant-lemma"
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        d = int(rng.integers(1, 7))
        lam = 10.0 ** rng.uniform(-1.0, 1.0, size=d)
        noise = 10.0 ** rng.uniform(-0.5, 0.5, size=d)
        qv = 10.0 ** rng.uniform(-3.0, 3.0, size=d)
        p1 = 10.0 ** rng.uniform(-0.5, 0.5)
        net = _flat_network(lam, noise, p1)
        s = tuple(range(2, 2 + d))
        q = QuantizationVector(entries=tuple(zip(s, qv.tolist())))
        got = quantized_covariance_det(net, s, q)
        closed = float(np.prod(noise + qv) * (1.0 + p1 * np.sum(lam / (noise + qv))))
        worst = max(worst, abs(got - closed) / closed)
    passed = worst < 1e-10
    detail = f"{samples} random instances (size <= 6); worst relative error {worst:.3e}"
    return CheckResult(name, passed, detail, time.perf_counter() - t0)


def random_network(rng: np.random.Generator, num_nodes: int) -> NetworkSpec:
    """Random valid network: log-uniform gains in [0.1, 10], relay powers
    in [10, 10^4], source power and noises near unity."""
    t = num_nodes
    nodes = [source(1, power=float(10.0 ** rng.uniform(-0.5, 0.5)))]
    for j in range(2, t):
        nodes.append(
            relay(
                j,
                power=float(10.0 ** rng.uniform(1.0, 4.0)),
                noise=float(10.0 ** rng.uniform(-0.5, 0.5)),
            )
        )
    nodes.append(destination(t, noise=float(10.0 ** rng.uniform(-0.5, 0.5))))
    g = 10.0 ** rng.uniform(-1.0, 1.0, size=(t, t))
    g = 0.5 * (g + g.T)
    np.fill_diagonal(g, 0.0)
    return from_gains(nodes, g)


def sample_feasible_q(
    rng: np.random.Generator, net: NetworkSpec, quantifier: str = "forall"
) -> QuantizationVector:
    """A random point strictly inside the feasible region: the optimized
    uniform solution pushed up by per-relay factors in [1, 100]. Margins
    grow with every coordinate, so the scaled point stays feasible."""
    q_star, _ = optimize_quantization(net, "uniform_bisection", quantifier)
    factors = 10.0 ** rng.uniform(0.0, 2.0, size=len(q_star.ids))
    return QuantizationVector(
        entries=tuple((i, v * float(f)) for (i, v), f in zip(q_star.entries, factors))
    )


def monotonicity_suite(samples: int = 100, seed: int = 20250812) -> CheckResult:
    """Feasible Q stays feasible under uniform up-scaling by 1.5, 10, 10^3."""
    t0 = time.perf_counter()
    name = "feasibility-monotonicity"
    rng = np.random.default_rng(seed)
    for i in range(samples):
        net = random_network(rng, int(rng.integers(3, 7)))
        try:
            q = sample_feasible_q(rng, net, "forall")
        except RelaycapError as exc:
            return CheckResult(
                name, False, f"sample {i}: feasible point search failed: {exc}",
                time.perf_counter() - t0,
            )
        ok, _ = cf_feasible(net, q, "forall")
        if not ok:
            return CheckResult(
                name, False, f"sample {i}: sampled Q not feasible at scale 1",
                time.perf_counter() - t0,
            )
        for c in (1.5, 10.0, 1e3):
            ok, margins = cf_feasible(net, q.scaled_by(c), "forall")
            if not ok:
                worst = min(margins, key=lambda m: m.margin_log2)
                return CheckResult(
                    name,
                    False,
                    f"sample {i}: scale {c} broke feasibility "
                    f"(S={worst.instance.s}, margin {worst.margin_log2:.3e})",
                    time.perf_counter() - t0,
                )
    detail = f"{samples} random (network, Q) pairs x scales (1.5, 10, 1e3)"
    return CheckResult(name, True, detail, time.perf_counter() - t0)


def achievability_suite(samples: int = 100, seed: int = 20250813) -> CheckResult:
    """Compress-forward rate never exceeds the broadcast-cut bound."""
    t0 = time.perf_counter()
    name = "achievability-vs-bound"
    rng = np.random.default_rng(seed)
    worst_slack = math.inf
    for i in range(samples):
        net = random_network(rng, int(rng.integers(3, 7)))
        try:
            q = sample_feasible_q(rng, net, "forall")
        except RelaycapError as exc:
            return CheckResult(
                name, False, f"sample {i}: feasible point search failed: {exc}",
                time.perf_counter() - t0,
            )
        rate = cf_rate(net, q)
        bound = source_cut_bound(net)
        worst_slack = min(worst_slack, bound - rate)
        if rate > bound + 1e-9:
            return CheckResult(
                name,
                False,
                f"sample {i}: rate {rate!r} exceeds bound {bound!r}",
                time.perf_counter() - t0,
            )
    detail = f"{samples} random networks; smallest bound-rate slack {worst_slack:.3e} bits"
    return CheckResult(name, True, detail, time.perf_counter() - t0)


def run_all(
    alpha_offsets: tuple[float, ...] | None = None,
    beta_grid: tuple[float, ...] | None = None,
    det_samples: int = 500,
    net_samples: int = 100,
    seed: int | None = None,
) -> tuple[CheckResult, ...]:
    """All five suites in a fixed order. ``seed`` offsets every suite's
    default seed, letting a caller rerun the random parts elsewhere."""
    bump = 0 if seed is None else int(seed)
    return (
        alpha_suite(alpha_offsets),
        beta_suite(beta_grid),
        determinant_lemma_suite(det_samples, 20250811 + bump),
        monotonicity_suite(net_samples, 20250812 + bump),
        achievability_suite(net_samples, 20250813 + bump),
    )
