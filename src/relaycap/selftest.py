"""Built-in verification suites behind the `verify` CLI command.

Five suites, each summarized as one CheckResult: the two dual-route
correlation sweeps on small networks, the determinant-lemma cross-check of
the factorized quantized-observation covariance determinant against its
closed form, feasibility monotonicity under scaling, and
achievable-rate-below-bound sampling. Grids and seeds
are fixed so a run is deterministic; the random samplers use an explicit
Generator seeded per suite. The random suites draw every sample first and
then batch the work, bit for bit the serial results: the network suites
build every network's table in one ``bounds._constraint_tables`` call and
pass them to one ``bounds._uniform_optima`` call, and
the determinant lemma calls the kernel behind ``quantized_covariance_det``,
``gaussian._rank_one_log2_dets``, once per matrix size.

The two dual-route routines live here too, and the package re-exports
them and their report classes. They cross-check the independent-input
claim behind the broadcast-cut bound on small networks through two
unrelated routes: a closed form, one scalar ``math.log2`` per grid point,
and joint-covariance Schur complements, factored as one stack. Each has
one batch function over parameter sets that share a grid; the routine
calls it with one set, and its suite once per shared grid.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .bounds import (
    RATE_TOL_BITS,
    QuantizationVector,
    _constraint_tables,
    _uniform_optima,
    cf_rate,
    source_cut_bound,
)
# No suite calls these; they stay bound here because perfbench/spans.py wraps them.
from .bounds import cf_feasible, optimize_quantization, quantized_covariance_det
from .errors import (
    InvalidAlpha,
    NegativePower,
    NonPositiveNoise,
    RelaycapError,
    VerificationFailure,
)
from .gaussian import (
    _rank_one_log2_dets,
    _stacked_cholesky_log2_det,
    conditional_covariance,
    joint_covariance,
)
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


@dataclass(frozen=True)
class SingleRelayIndependenceReport:
    """Dual-route check that source-relay input correlation only hurts.

    For each correlation coefficient alpha, the closed form
    1/2 log2(1 + (P1 - a^2 P2)/N2 + (P1 - a^2 P2)/N3) is compared against
    the same mutual information computed from the joint covariance of the
    received signals by Schur-complement conditioning. The best grid point
    must be alpha = 0.
    """

    p1: float
    p2: float
    n2: float
    n3: float
    alphas: tuple[float, ...]
    closed_form_bits: tuple[float, ...]
    covariance_bits: tuple[float, ...]
    max_abs_diff_bits: float
    argmax_alpha: float


@dataclass(frozen=True)
class RelayCorrelationInvarianceReport:
    """Check that relay-relay input correlation leaves the source-cut MI
    unchanged: the covariance-route value must match
    1/2 log2(1 + P1 (1/N2 + 1/N3 + 1/N4)) for every coefficient beta."""

    p1: float
    n2: float
    n3: float
    n4: float
    betas: tuple[float, ...]
    mi_bits: tuple[float, ...]
    expected_bits: float
    max_abs_dev_bits: float


def verify_single_relay_independence(
    p1: float,
    p2: float,
    n2: float,
    n3: float,
    alpha_grid: tuple[float, ...],
) -> SingleRelayIndependenceReport:
    """Dual-route sweep of source-relay correlation on the 3-node network.

    The source input is written X1 = alpha * X2 + W with fresh power
    P_W = P1 - alpha^2 P2 >= 0, so the grid must stay inside
    |alpha| <= sqrt(P1/P2). For each grid point the broadcast-cut MI is
    computed both from the closed form and from the joint covariance of
    (Y2, Y3, X2), the grid's covariances conditioned and factored as one
    stack; the two routes must agree to RATE_TOL_BITS and the maximum must
    sit at alpha = 0 (the grid should contain 0).

    Raises VerificationFailure if the routes disagree or the argmax moves.
    """
    return _single_relay_reports([(p1, p2, n2, n3)], alpha_grid)[0]


def _single_relay_reports(sets: list[tuple], alpha_grid: tuple[float, ...]) -> list:
    """``verify_single_relay_independence`` for each (p1, p2, n2, n3) of
    ``sets`` on one alpha grid, every covariance of every set in one stack.
    Raises the first failure it meets."""
    for p1, p2, n2, n3 in sets:
        if not (n2 > 0.0 and n3 > 0.0):
            raise NonPositiveNoise(f"noise variances must be > 0, got n2={n2!r}, n3={n3!r}")
        if not (p1 > 0.0 and p2 > 0.0):
            raise NegativePower(f"powers must be > 0 here, got p1={p1!r}, p2={p2!r}")
    alphas = tuple(float(a) for a in alpha_grid)
    if not alphas:
        raise ValueError("alpha grid is empty")
    for p1, p2, *_ in sets:
        limit = math.sqrt(p1 / p2)
        for a in alphas:
            if abs(a) > limit * (1.0 + 1e-12):
                raise InvalidAlpha(
                    f"alpha={a!r} outside the power-feasible interval [-{limit:g}, {limit:g}]"
                )

    # P_W per set and alpha; the max guards exact-extreme rounding.
    pws = [[max(p1 - a * a * p2, 0.0) for a in alphas] for p1, p2, *_ in sets]
    # Joint covariance of (Y2, Y3, X2) over independent factors (X2, W, Z2,
    # Z3): the relay transmission enters Y3 and is conditioned back out.
    rows = [
        [
            [a, 1.0, 1.0, 0.0],  # Y2 = X1 + Z2
            [a + 1.0, 1.0, 0.0, 1.0],  # Y3 = X1 + X2 + Z3
            [1.0, 0.0, 0.0, 0.0],  # X2
        ]
        for a in alphas
    ]
    variances = [[[p2, w, n2, n3] for w in pw] for (_, p2, n2, n3), pw in zip(sets, pws)]
    # Given X1 and X2 the residual is exactly the thermal pair (Z2, Z3).
    covs = _covariance_route(rows, variances, [0, 1], [2], [s[2:] for s in sets])
    reports = []
    for (p1, p2, n2, n3), pw, cov in zip(sets, pws, covs):
        closed = tuple(0.5 * math.log2(1.0 + w / n2 + w / n3) for w in pw)
        diffs = [abs(c - v) for c, v in zip(closed, cov)]
        gap = max(diffs)
        if gap > RATE_TOL_BITS:
            raise VerificationFailure(
                f"covariance route disagrees with closed form by {gap:.3e} bits at "
                f"alpha={alphas[diffs.index(gap)]!r} (p1={p1}, p2={p2}, n2={n2}, n3={n3})"
            )
        argmax = max(range(len(alphas)), key=lambda i: cov[i])
        if abs(alphas[argmax]) > 1e-12:
            raise VerificationFailure(
                f"MI maximum sits at alpha={alphas[argmax]!r}, expected 0 "
                f"(p1={p1}, p2={p2}, n2={n2}, n3={n3})"
            )
        reports.append(
            SingleRelayIndependenceReport(p1, p2, n2, n3, alphas, closed, cov, gap, alphas[argmax])
        )
    return reports


def _covariance_route(rows, variances, keep, given, noises) -> list[tuple[float, ...]]:
    """1/2 (log2 det Cov(keep | given) - sum of log2 ``noises``) of each set
    and grid point: the ``rows`` (one per point) over factors with each
    set's ``variances``, every covariance conditioned and factored at once."""
    cond = conditional_covariance(joint_covariance(rows, variances), keep, given)
    log2_dets = _stacked_cholesky_log2_det(cond.reshape(-1, len(keep), len(keep)))
    log2_thermal = [[sum(map(math.log2, n))] for n in noises]
    bits = 0.5 * (log2_dets.reshape(len(noises), -1) - log2_thermal)
    return list(map(tuple, bits.tolist()))


def verify_relay_correlation_invariance(
    p1: float,
    n2: float,
    n3: float,
    n4: float,
    beta_grid: tuple[float, ...],
) -> RelayCorrelationInvarianceReport:
    """Sweep relay-relay correlation on the 4-node network and check the
    broadcast-cut MI never moves.

    Relay inputs are coupled as X2 = beta * X3 + W' (unit X3 and W'
    variances; the MI conditions both out, so their scale is irrelevant).
    The grid's joint covariances are conditioned and factored as one stack,
    and every grid point must match 1/2 log2(1 + P1 (1/N2 + 1/N3 + 1/N4)) to
    RATE_TOL_BITS. Raises VerificationFailure otherwise.
    """
    return _relay_correlation_reports([(p1, n2, n3, n4)], beta_grid)[0]


def _relay_correlation_reports(sets: list[tuple], beta_grid: tuple[float, ...]) -> list:
    """``verify_relay_correlation_invariance`` for each (p1, n2, n3, n4) of
    ``sets`` on one beta grid, every covariance of every set in one stack.
    Raises the first failure it meets."""
    for p1, n2, n3, n4 in sets:
        if not (n2 > 0.0 and n3 > 0.0 and n4 > 0.0):
            raise NonPositiveNoise(
                f"noise variances must be > 0, got n2={n2!r}, n3={n3!r}, n4={n4!r}"
            )
        if not p1 > 0.0:
            raise NegativePower(f"source power must be > 0 here, got {p1!r}")
    betas = tuple(float(b) for b in beta_grid)
    if not betas:
        raise ValueError("beta grid is empty")

    # Factors (X1, X3, W', Z2, Z3, Z4); unit-gain channel rows for
    # (Y2, Y3, Y4, X2, X3) with X2 = b*X3 + W', one set per grid point.
    rows = [
        [
            [1.0, 1.0, 0.0, 1.0, 0.0, 0.0],  # Y2 = X1 + X3 + Z2
            [1.0, b, 1.0, 0.0, 1.0, 0.0],  # Y3 = X1 + X2 + Z3
            [1.0, 1.0 + b, 1.0, 0.0, 0.0, 1.0],  # Y4 = X1 + X2 + X3 + Z4
            [0.0, b, 1.0, 0.0, 0.0, 0.0],  # X2
            [0.0, 1.0, 0.0, 0.0, 0.0, 0.0],  # X3
        ]
        for b in betas
    ]
    variances = [[[p1, 1.0, 1.0, n2, n3, n4]] for p1, n2, n3, n4 in sets]
    mis_by_set = _covariance_route(rows, variances, [0, 1, 2], [3, 4], [s[1:] for s in sets])
    reports = []
    for (p1, n2, n3, n4), mis in zip(sets, mis_by_set):
        expected = 0.5 * math.log2(1.0 + p1 * (1.0 / n2 + 1.0 / n3 + 1.0 / n4))
        devs = [abs(v - expected) for v in mis]
        max_dev = max(devs)
        if max_dev > RATE_TOL_BITS:
            raise VerificationFailure(
                f"MI moved by {max_dev:.3e} bits at beta={betas[devs.index(max_dev)]!r} "
                f"(p1={p1}, n2={n2}, n3={n3}, n4={n4}): relay correlation must not matter"
            )
        reports.append(
            RelayCorrelationInvarianceReport(p1, n2, n3, n4, betas, mis, expected, max_dev)
        )
    return reports


def alpha_suite(offsets: tuple[float, ...] | None = None) -> CheckResult:
    """Dual-route single-relay sweep over 256 parameter sets, one batch
    per (p1, p2): its 16 noise pairs share one alpha grid. The check itself
    asserts route agreement and the argmax location."""
    name = "single-relay-correlation"
    offsets = DEFAULT_OFFSETS if offsets is None else tuple(float(o) for o in offsets)
    gaps = []
    for p1, p2 in itertools.product(_ALPHA_P1, _ALPHA_P2):
        alphas = tuple(0.9 * math.sqrt(p1 / p2) * o for o in offsets)
        sets = list(itertools.product([p1], [p2], _ALPHA_N2, _ALPHA_N3))
        try:
            gaps += [r.max_abs_diff_bits for r in _single_relay_reports(sets, alphas)]
        except RelaycapError:  # a stacked failure names no set: find the first alone
            for _, _, n2, n3 in sets:
                try:
                    verify_single_relay_independence(p1, p2, n2, n3, alphas)
                except RelaycapError as exc:
                    return CheckResult(name, False, f"p1={p1} p2={p2} n2={n2} n3={n3}: {exc}")
            raise  # unreachable: a stacked failure is some set's own
    sweep = f"{len(gaps)} parameter sets x {len(offsets)} alphas"
    return CheckResult(name, True, f"{sweep}; max dual-route gap {max([0.0] + gaps):.3e} bits")


def beta_suite(betas: tuple[float, ...] | None = None) -> CheckResult:
    """Relay-correlation invariance sweep over 135 parameter sets, one
    batch per p1: its 27 noise triples share the beta grid."""
    name = "relay-correlation-invariance"
    betas = DEFAULT_OFFSETS if betas is None else tuple(float(b) for b in betas)
    max_devs = []
    for p1 in _BETA_P1:
        sets = list(itertools.product([p1], _BETA_N2, _BETA_N3, _BETA_N4))
        try:
            max_devs += [r.max_abs_dev_bits for r in _relay_correlation_reports(sets, betas)]
        except RelaycapError:  # a stacked failure names no set: find the first alone
            for _, n2, n3, n4 in sets:
                try:
                    verify_relay_correlation_invariance(p1, n2, n3, n4, betas)
                except RelaycapError as exc:
                    return CheckResult(name, False, f"p1={p1} n2={n2} n3={n3} n4={n4}: {exc}")
            raise  # unreachable: a stacked failure is some set's own
    worst = max([0.0] + max_devs)
    detail = f"{len(max_devs)} parameter sets x {len(betas)} betas; max deviation {worst:.3e} bits"
    return CheckResult(name, True, detail)


def _determinants(draws: list[tuple]) -> list[float]:
    """Each (lambda, N, Q, P1) instance's determinant, bit for bit what
    ``quantized_covariance_det`` gives: the kernel it calls on a stack of
    one, called here once per size d on that size's stack."""
    dets, sizes = [0.0] * len(draws), {}
    for i, (lam, *_) in enumerate(draws):
        sizes.setdefault(len(lam), []).append(i)
    for rows in sizes.values():
        lam, noise, qv, p1 = map(np.array, zip(*(draws[i] for i in rows)))
        # Python's 2.0 ** x, as the public function takes it.
        for i, x in zip(rows, _rank_one_log2_dets(lam, noise + qv, p1).tolist()):
            dets[i] = 2.0 ** x
    return dets


def determinant_lemma_suite(samples: int = 500, seed: int = 20250811) -> CheckResult:
    """Factorized determinant vs the rank-one-update closed form
    prod(N+Q) * (1 + P1 * sum lambda/(N+Q)) on random instances."""
    name = "determinant-lemma"
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(samples):
        d = int(rng.integers(1, 7))
        lam = 10.0 ** rng.uniform(-1.0, 1.0, size=d)
        noise = 10.0 ** rng.uniform(-0.5, 0.5, size=d)
        qv = 10.0 ** rng.uniform(-3.0, 3.0, size=d)
        draws.append((lam, noise, qv, 10.0 ** rng.uniform(-0.5, 0.5)))
    worst = 0.0
    for (lam, noise, qv, p1), got in zip(draws, _determinants(draws)):
        closed = float(np.prod(noise + qv) * (1.0 + p1 * np.sum(lam / (noise + qv))))
        worst = max(worst, abs(got - closed) / closed)
    passed = worst < 1e-10
    detail = f"{samples} random instances (size <= 6); worst relative error {worst:.3e}"
    return CheckResult(name, passed, detail)


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


def _push_factors(rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` log-uniform factors in [1, 100], one per relay."""
    return 10.0 ** rng.uniform(0.0, 2.0, size=count)


def _pushed_inside(q_star: QuantizationVector, factors: np.ndarray) -> QuantizationVector:
    """Q* pushed up by its per-relay factors. Margins grow with every
    coordinate, so a feasible Q* stays feasible."""
    return QuantizationVector(
        entries=tuple((i, v * float(f)) for (i, v), f in zip(q_star.entries, factors))
    )


def _feasible_points(rng: np.random.Generator, samples: int) -> list[tuple]:
    """Each random network's forall table with a point strictly inside
    its feasible region, the uniform optimum pushed up by per-relay
    factors in [1, 100], or the Infeasible its search meets.
    Each network is drawn, then its factors: they need only its relay
    count, so the stream is the serial one. One ``_constraint_tables``
    call builds every table, one stacked pass per relay count, and one
    ``_uniform_optima`` call decides them."""
    nets, factors = [], []
    for _ in range(samples):
        nets.append(random_network(rng, int(rng.integers(3, 7))))
        factors.append(_push_factors(rng, len(nets[-1].relay_ids)))
    tables = _constraint_tables(nets, "forall")
    return [
        (table, q if isinstance(q, RelaycapError) else _pushed_inside(q, push))
        for table, push, q in zip(tables, factors, _uniform_optima(tables))
    ]


def monotonicity_suite(samples: int = 100, seed: int = 20250812) -> CheckResult:
    """Feasible Q stays feasible under uniform up-scaling by 1.5, 10, 10^3.

    One constraint table per network serves the feasible-point search
    (``_feasible_points``) and every scale check."""
    name = "feasibility-monotonicity"
    for i, (table, q) in enumerate(_feasible_points(np.random.default_rng(seed), samples)):
        if isinstance(q, RelaycapError):
            return CheckResult(name, False, f"sample {i}: feasible point search failed: {q}")
        if not table.feasible(np.array(q.values)):
            return CheckResult(name, False, f"sample {i}: sampled Q not feasible at scale 1")
        for c in (1.5, 10.0, 1e3):
            q_c = q.scaled_by(c)
            if not table.feasible(np.array(q_c.values)):
                worst = min(table.constraint_margins(q_c), key=lambda m: m.margin_log2)
                return CheckResult(
                    name,
                    False,
                    f"sample {i}: scale {c} broke feasibility "
                    f"(S={worst.instance.s}, margin {worst.margin_log2:.3e})",
                )
    detail = f"{samples} random (network, Q) pairs x scales (1.5, 10, 1e3)"
    return CheckResult(name, True, detail)


def achievability_suite(samples: int = 100, seed: int = 20250813) -> CheckResult:
    """Compress-forward rate never exceeds the broadcast-cut bound, at the
    points ``_feasible_points`` samples."""
    name = "achievability-vs-bound"
    worst_slack = math.inf
    for i, (table, q) in enumerate(_feasible_points(np.random.default_rng(seed), samples)):
        if isinstance(q, RelaycapError):
            return CheckResult(name, False, f"sample {i}: feasible point search failed: {q}")
        rate = cf_rate(table.net, q)
        bound = source_cut_bound(table.net)
        worst_slack = min(worst_slack, bound - rate)
        if rate > bound + RATE_TOL_BITS:
            return CheckResult(name, False, f"sample {i}: rate {rate!r} exceeds bound {bound!r}")
    detail = f"{samples} random networks; smallest bound-rate slack {worst_slack:.3e} bits"
    return CheckResult(name, True, detail)


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
