"""Built-in verification suites behind the `verify` CLI command.

Five suites, each summarized as one CheckResult: the two dual-route
correlation sweeps on small networks, the determinant-lemma cross-check of
the quantized-observation covariance determinant, feasibility monotonicity
under scaling, and achievable-rate-below-bound sampling. Grids and seeds
are fixed so a run is deterministic; the random samplers use an explicit
Generator seeded per suite. The random suites draw every sample first and
then batch the work, bit for bit the serial results: the network suites
pass every network's table to one ``bounds._uniform_optima`` call, and
the determinant lemma factors one stack per matrix size.

The two dual-route routines live here too. They cross-check the
independent-input claim behind the broadcast-cut bound on small networks
by computing the same mutual information through two unrelated routes:
closed form, one scalar ``math.log2`` per grid point, and joint-covariance
Schur complements, built for the whole grid as one stack and factored by
one stacked Cholesky call. The package re-exports them and their report
classes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import (
    BISECT_REL_TOL,
    RATE_TOL_BITS,
    QuantizationVector,
    _ConstraintTable,
    _uniform_optima,
    cf_feasible,  # no suite calls it; kept as a name perfbench/spans.py wraps
    cf_rate,
    optimize_quantization,
    quantized_covariance_det,
    source_cut_bound,
)
from .errors import (
    InvalidAlpha,
    NegativePower,
    NonPositiveNoise,
    RelaycapError,
    VerificationFailure,
)
from .gaussian import _stacked_cholesky_log2_det, conditional_covariance, joint_covariance
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
    if not (n2 > 0.0 and n3 > 0.0):
        raise NonPositiveNoise(f"noise variances must be > 0, got n2={n2!r}, n3={n3!r}")
    if not (p1 > 0.0 and p2 > 0.0):
        raise NegativePower(f"powers must be > 0 here, got p1={p1!r}, p2={p2!r}")
    alphas = tuple(float(a) for a in alpha_grid)
    if not alphas:
        raise ValueError("alpha grid is empty")
    limit = math.sqrt(p1 / p2)
    for a in alphas:
        if abs(a) > limit * (1.0 + 1e-12):
            raise InvalidAlpha(
                f"alpha={a!r} outside the power-feasible interval [-{limit:g}, {limit:g}]"
            )

    closed: list[float] = []
    rows, variances = [], []
    log2_thermal = math.log2(n2) + math.log2(n3)
    for a in alphas:
        pw = max(p1 - a * a * p2, 0.0)  # exact-extreme rounding guard
        closed.append(0.5 * math.log2(1.0 + pw / n2 + pw / n3))
        # Joint covariance of (Y2, Y3, X2) over independent factors
        # (X2, W, Z2, Z3); the relay transmission enters Y3 and is then
        # conditioned back out, exercising the full Schur-complement path.
        rows.append(
            [
                [a, 1.0, 1.0, 0.0],  # Y2 = X1 + Z2
                [a + 1.0, 1.0, 0.0, 1.0],  # Y3 = X1 + X2 + Z3
                [1.0, 0.0, 0.0, 0.0],  # X2
            ]
        )
        variances.append([p2, pw, n2, n3])
    sigma = joint_covariance(np.array(rows), np.array(variances))
    given_x2 = conditional_covariance(sigma, keep=[0, 1], given=[2])
    # Given X1 and X2 the residual is exactly the thermal pair (Z2, Z3).
    cov = (0.5 * (_stacked_cholesky_log2_det(given_x2) - log2_thermal)).tolist()

    diffs = [abs(c - v) for c, v in zip(closed, cov)]
    max_diff = max(diffs)
    if max_diff > RATE_TOL_BITS:
        worst = diffs.index(max_diff)
        raise VerificationFailure(
            f"covariance route disagrees with closed form by {max_diff:.3e} bits "
            f"at alpha={alphas[worst]!r} (p1={p1}, p2={p2}, n2={n2}, n3={n3})"
        )
    argmax = max(range(len(alphas)), key=lambda i: cov[i])
    if abs(alphas[argmax]) > 1e-12:
        raise VerificationFailure(
            f"MI maximum sits at alpha={alphas[argmax]!r}, expected 0 "
            f"(p1={p1}, p2={p2}, n2={n2}, n3={n3})"
        )
    return SingleRelayIndependenceReport(
        p1=p1,
        p2=p2,
        n2=n2,
        n3=n3,
        alphas=alphas,
        closed_form_bits=tuple(closed),
        covariance_bits=tuple(cov),
        max_abs_diff_bits=max_diff,
        argmax_alpha=alphas[argmax],
    )


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
    if not (n2 > 0.0 and n3 > 0.0 and n4 > 0.0):
        raise NonPositiveNoise(
            f"noise variances must be > 0, got n2={n2!r}, n3={n3!r}, n4={n4!r}"
        )
    if not p1 > 0.0:
        raise NegativePower(f"source power must be > 0 here, got {p1!r}")
    betas = tuple(float(b) for b in beta_grid)
    if not betas:
        raise ValueError("beta grid is empty")
    expected = 0.5 * math.log2(1.0 + p1 * (1.0 / n2 + 1.0 / n3 + 1.0 / n4))
    log2_thermal = math.log2(n2) + math.log2(n3) + math.log2(n4)

    # Factors (X1, X3, W', Z2, Z3, Z4); unit-gain channel rows for
    # (Y2, Y3, Y4, X2, X3) with X2 = b*X3 + W', one set per grid point.
    rows = np.array(
        [
            [
                [1.0, 1.0, 0.0, 1.0, 0.0, 0.0],  # Y2 = X1 + X3 + Z2
                [1.0, b, 1.0, 0.0, 1.0, 0.0],  # Y3 = X1 + X2 + Z3
                [1.0, 1.0 + b, 1.0, 0.0, 0.0, 1.0],  # Y4 = X1 + X2 + X3 + Z4
                [0.0, b, 1.0, 0.0, 0.0, 0.0],  # X2
                [0.0, 1.0, 0.0, 0.0, 0.0, 0.0],  # X3
            ]
            for b in betas
        ]
    )
    sigma = joint_covariance(rows, np.array([p1, 1.0, 1.0, n2, n3, n4]))
    given_inputs = conditional_covariance(sigma, keep=[0, 1, 2], given=[3, 4])
    mis = (0.5 * (_stacked_cholesky_log2_det(given_inputs) - log2_thermal)).tolist()

    devs = [abs(v - expected) for v in mis]
    max_dev = max(devs)
    if max_dev > RATE_TOL_BITS:
        worst = devs.index(max_dev)
        raise VerificationFailure(
            f"MI moved by {max_dev:.3e} bits at beta={betas[worst]!r} "
            f"(p1={p1}, n2={n2}, n3={n3}, n4={n4}): relay correlation must not matter"
        )
    return RelayCorrelationInvarianceReport(
        p1=p1,
        n2=n2,
        n3=n3,
        n4=n4,
        betas=betas,
        mi_bits=tuple(mis),
        expected_bits=expected,
        max_abs_dev_bits=max_dev,
    )


def alpha_suite(offsets: tuple[float, ...] | None = None) -> CheckResult:
    """Dual-route single-relay sweep over 256 parameter sets.

    The verification op itself asserts route agreement and the argmax
    location; on top of that the suite recomputes every closed-form value
    here and compares it with the reported one.
    """
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
                        return CheckResult(name, False, f"p1={p1} p2={p2} n2={n2} n3={n3}: {exc}")
                    worst_route = max(worst_route, rep.max_abs_diff_bits)
                    for a, got in zip(rep.alphas, rep.closed_form_bits):
                        pw = max(p1 - a * a * p2, 0.0)
                        want = 0.5 * math.log2(1.0 + pw / n2 + pw / n3)
                        worst_expect = max(worst_expect, abs(got - want))
                    if worst_expect > RATE_TOL_BITS:
                        return CheckResult(
                            name,
                            False,
                            f"closed form off by {worst_expect:.3e} bits at "
                            f"p1={p1} p2={p2} n2={n2} n3={n3}",
                        )
                    sets += 1
    detail = (
        f"{sets} parameter sets x {len(offsets)} alphas; "
        f"max dual-route gap {worst_route:.3e} bits"
    )
    return CheckResult(name, True, detail)


def beta_suite(betas: tuple[float, ...] | None = None) -> CheckResult:
    """Relay-correlation invariance sweep over 135 parameter sets."""
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
                        return CheckResult(name, False, f"p1={p1} n2={n2} n3={n3} n4={n4}: {exc}")
                    worst = max(worst, rep.max_abs_dev_bits)
                    sets += 1
    detail = f"{sets} parameter sets x {len(betas)} betas; max deviation {worst:.3e} bits"
    return CheckResult(name, True, detail)


def _flat_network(source_gains: np.ndarray, relay_noises: np.ndarray, p1: float) -> NetworkSpec:
    """Source + D relays + destination with prescribed source gains; all
    other gains and powers are unit (irrelevant to the determinant)."""
    t = len(source_gains) + 2
    relays = [relay(j, power=1.0, noise=n) for j, n in enumerate(relay_noises.tolist(), 2)]
    g = np.ones((t, t))
    np.fill_diagonal(g, 0.0)
    g[0, 1:-1] = g[1:-1, 0] = source_gains
    return from_gains([source(1, power=p1), *relays, destination(t, noise=1.0)], g)


def _determinants(draws: list[tuple]) -> list[float]:
    """Each (lambda, N, Q, P1) instance's determinant, bit for bit what
    ``quantized_covariance_det`` gives. The first instance of each size d
    takes that route; the others are built in its arithmetic,
    diag(N + Q) + P1 u u^T with u = sqrt(lambda), as one stack per size."""
    dets, sizes = [0.0] * len(draws), {}
    for i, (lam, *_) in enumerate(draws):
        sizes.setdefault(len(lam), []).append(i)
    for d, (head, *rest) in sizes.items():
        lam, noise, qv, p1 = draws[head]
        s = tuple(range(2, 2 + d))
        q = QuantizationVector(entries=tuple(zip(s, qv.tolist())))
        dets[head] = quantized_covariance_det(_flat_network(lam, noise, p1), s, q)
        if rest:
            lam, noise, qv, p1 = map(np.array, zip(*(draws[i] for i in rest)))
            u = np.sqrt(lam)
            m = p1[:, None, None] * (u[:, :, None] * u[:, None, :])
            m[:, range(d), range(d)] += noise + qv
            # Python's 2.0 ** x: numpy's last bit can differ.
            for i, x in zip(rest, _stacked_cholesky_log2_det(m).tolist()):
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


def sample_feasible_q(
    rng: np.random.Generator, net: NetworkSpec, quantifier: str = "forall"
) -> QuantizationVector:
    """A random point strictly inside the feasible region: the optimized
    uniform solution pushed up by per-relay factors in [1, 100]."""
    q_star, _ = optimize_quantization(net, "uniform_bisection", quantifier)
    return _pushed_inside(q_star, _push_factors(rng, len(q_star.ids)))


def _feasible_points(rng: np.random.Generator, samples: int) -> list[tuple]:
    """Each random network's forall table with the point
    ``sample_feasible_q`` gives it, or the Infeasible its search meets.
    Each network is drawn, then its factors: they need only its relay
    count, so the stream is the serial one. One ``_uniform_optima`` call
    decides every table."""
    drawn = []
    for _ in range(samples):
        table = _ConstraintTable(random_network(rng, int(rng.integers(3, 7))), "forall")
        drawn.append((table, _push_factors(rng, len(table.relays))))
    optima = _uniform_optima([table for table, _ in drawn], BISECT_REL_TOL)
    return [
        (table, q if isinstance(q, RelaycapError) else _pushed_inside(q, factors))
        for (table, factors), q in zip(drawn, optima)
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
