"""Built-in verification suites behind the `verify` CLI command.

Five suites, each summarized as one CheckResult: the two dual-route
correlation sweeps on small networks, the determinant-lemma cross-check of
the factorized quantized-observation covariance determinant against its
closed form, feasibility monotonicity under scaling, and
achievable-rate-below-bound sampling. Grids and seeds
are fixed so a run is deterministic; the random samplers use an explicit
Generator seeded per suite. The random suites draw every sample as arrays
first and then batch the work, bit for bit the serial results, with no
call per sample. Per sample, one ``integers`` call draws its size and one
``random`` call every value it needs; the values are taken once per size,
on that size's stack (``_network_draws``, ``_determinant_draws``): a
network is its read-only (gains, powers, noises) arrays, valid by
construction, never a NetworkSpec, and a uniform optimum and a pushed
point are value arrays, never QuantizationVectors. The network suites
build every network's table in one ``bounds._constraint_tables`` call
and pass them to one ``bounds._uniform_optima`` call; the monotonicity
suite checks every point at every scale in one ``bounds._feasible``
call, and the achievability suite takes every rate, and at Q = 0 every
bound, in one ``bounds._cf_rates`` call each. A failure is named by
scanning the samples in order afterwards. The determinant lemma calls
the kernel behind ``quantized_covariance_det``,
``gaussian._rank_one_log2_dets``, and takes the closed form, once per
matrix size. Every check fails on a NaN, at the first sample that holds
one.

The two dual-route routines live here too, and the package re-exports
them and their report classes. They cross-check the independent-input
claim behind the broadcast-cut bound on small networks through two
unrelated routes: a closed form, one scalar ``math.log2`` per grid point,
and joint-covariance Schur complements, factored as one stack. Each has
one batch function over parameter sets; the routine calls it with one
set, and its suite once per P1: the single-relay suite's 64 sets, each on
its P2's alpha grid, and the relay-correlation suite's 27 on the beta grid.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .bounds import (
    RATE_TOL_BITS,
    QuantizationVector,
    _cf_rates,
    _constraint_tables,
    _feasible,
    _runs,
    _uniform_optima,
)
# No suite calls these; they stay bound here because perfbench/spans.py wraps them.
from .bounds import (
    cf_feasible,
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
from .gaussian import (
    _rank_one_log2_dets,
    _stacked_cholesky_log2_det,
    conditional_covariance,
    joint_covariance,
)

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
    return _single_relay_reports([(p1, p2, n2, n3)], [alpha_grid])[0]


def _single_relay_reports(sets: list[tuple], alpha_grids: list[tuple[float, ...]]) -> list:
    """``verify_single_relay_independence`` for each (p1, p2, n2, n3) of
    ``sets`` on its own alpha grid, the grids of one length, every
    covariance of every set in one stack. Raises the first failure it
    meets."""
    for p1, p2, n2, n3 in sets:
        if not (n2 > 0.0 and n3 > 0.0):
            raise NonPositiveNoise(f"noise variances must be > 0, got n2={n2!r}, n3={n3!r}")
        if not (p1 > 0.0 and p2 > 0.0):
            raise NegativePower(f"powers must be > 0 here, got p1={p1!r}, p2={p2!r}")
    grids = [tuple(map(float, grid)) for grid in alpha_grids]
    if not all(grids):
        raise ValueError("alpha grid is empty")
    a = np.array(grids)
    p1, p2, n2, n3 = (np.broadcast_to(c[:, None], a.shape) for c in np.array(sets, float).T)
    limits = np.sqrt(p1 / p2)
    for k, i in np.argwhere(np.abs(a) > limits * (1.0 + 1e-12))[:1].tolist():
        limit = float(limits[k, i])
        raise InvalidAlpha(
            f"alpha={grids[k][i]!r} outside the power-feasible interval [-{limit:g}, {limit:g}]"
        )
    # P_W per set and alpha; the max guards exact-extreme rounding.
    pws = np.maximum(p1 - a * a * p2, 0.0)
    # Joint covariance of (Y2, Y3, X2) over independent factors (X2, W, Z2,
    # Z3): the relay transmission enters Y3 and is conditioned back out.
    rows = np.zeros(a.shape + (3, 4))
    rows[..., 0, :] = 0.0, 1.0, 1.0, 0.0  # Y2 = X1 + Z2
    rows[..., 1, :] = 0.0, 1.0, 0.0, 1.0  # Y3 = X1 + X2 + Z3
    rows[..., 2, :] = 1.0, 0.0, 0.0, 0.0  # X2
    rows[..., 0, 0], rows[..., 1, 0] = a, a + 1.0  # X2's part, X1 = alpha X2 + W
    variances = np.stack([p2, pws, n2, n3], axis=-1)
    # Given X1 and X2 the residual is exactly the thermal pair (Z2, Z3).
    covs = _covariance_route(rows, variances, [0, 1], [2], [s[2:] for s in sets])
    closed_by_set = [
        tuple(0.5 * math.log2(1.0 + w / n2 + w / n3) for w in pw)
        for (_, _, n2, n3), pw in zip(sets, pws.tolist())
    ]
    worst = _worst(np.abs(np.subtract(closed_by_set, covs)))
    argmaxes = np.argmax(covs, axis=1).tolist()  # each first largest
    reports = []
    for (p1, p2, n2, n3), alphas, closed, cov, (i, gap), argmax in zip(
        sets, grids, closed_by_set, covs, worst, argmaxes
    ):
        if not gap <= RATE_TOL_BITS:
            raise VerificationFailure(
                f"covariance route disagrees with closed form by {gap:.3e} bits at "
                f"alpha={alphas[i]!r} (p1={p1}, p2={p2}, n2={n2}, n3={n3})"
            )
        if abs(alphas[argmax]) > 1e-12:
            raise VerificationFailure(
                f"MI maximum sits at alpha={alphas[argmax]!r}, expected 0 "
                f"(p1={p1}, p2={p2}, n2={n2}, n3={n3})"
            )
        reports.append(
            SingleRelayIndependenceReport(p1, p2, n2, n3, alphas, closed, cov, gap, alphas[argmax])
        )
    return reports


def _worst(deviations: np.ndarray) -> list[tuple[int, float]]:
    """Each row's first NaN, or else its first largest value, with its
    index: a check ``not worst <= tol`` then fails on a NaN, which ``max``
    would drop unless it came first."""
    worst = np.argmax(deviations, axis=1)
    return list(zip(worst.tolist(), deviations[np.arange(len(worst)), worst].tolist()))


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
    expected_by_set = [
        0.5 * math.log2(1.0 + p1 * (1.0 / n2 + 1.0 / n3 + 1.0 / n4)) for p1, n2, n3, n4 in sets
    ]
    worst = _worst(np.abs(np.subtract(mis_by_set, np.array(expected_by_set)[:, None])))
    reports = []
    for (p1, n2, n3, n4), mis, expected, (i, max_dev) in zip(
        sets, mis_by_set, expected_by_set, worst
    ):
        if not max_dev <= RATE_TOL_BITS:
            raise VerificationFailure(
                f"MI moved by {max_dev:.3e} bits at beta={betas[i]!r} "
                f"(p1={p1}, n2={n2}, n3={n3}, n4={n4}): relay correlation must not matter"
            )
        reports.append(
            RelayCorrelationInvarianceReport(p1, n2, n3, n4, betas, mis, expected, max_dev)
        )
    return reports


def alpha_suite(offsets: tuple[float, ...] | None = None) -> CheckResult:
    """Dual-route single-relay sweep over 256 parameter sets, one batch
    per p1: its 64 (p2, noise pair) sets, each on its p2's alpha grid. The
    check itself asserts route agreement and the argmax location."""
    name = "single-relay-correlation"
    offsets = DEFAULT_OFFSETS if offsets is None else tuple(float(o) for o in offsets)
    gaps = []
    for p1 in _ALPHA_P1:
        grids = {p2: tuple(0.9 * math.sqrt(p1 / p2) * o for o in offsets) for p2 in _ALPHA_P2}
        sets = list(itertools.product([p1], _ALPHA_P2, _ALPHA_N2, _ALPHA_N3))
        alphas = [grids[p2] for _, p2, _, _ in sets]
        try:
            gaps += [r.max_abs_diff_bits for r in _single_relay_reports(sets, alphas)]
        except RelaycapError:  # a stacked failure names no set: find the first alone
            for (_, p2, n2, n3), grid in zip(sets, alphas):
                try:
                    verify_single_relay_independence(p1, p2, n2, n3, grid)
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


def _uniform(u: np.ndarray, low, high) -> np.ndarray:
    """``rng.uniform(low, high)`` from the stream's own doubles ``u``, which
    ``rng.random`` gives: low + (high - low) * u, as the generator takes it."""
    return low + (high - low) * u


def _determinant_draws(rng: np.random.Generator, samples: int) -> list[tuple]:
    """The determinant lemma's random instances, each of size d in [1, 6]
    drawn, then its lambda in [0.1, 10], N near unity, Q in [10^-3, 10^3]
    and P1 near unity, log-uniform, each drawn as one ``random(3d + 1)``
    call. Stacked by size, one (draws, lambda, N, Q, P1) per size, in order
    of first appearance: ``draws`` the instances' positions, the others
    arrays with one row each. lambda, N and Q are ``np.power`` of the
    size's stack, P1 Python's ``10.0 ** x``, as a draw one at a time takes
    them."""
    sizes, uniforms = [], []
    for _ in range(samples):
        sizes.append(int(rng.integers(1, 7)))
        uniforms.append(rng.random(3 * sizes[-1] + 1))
    stacks = []
    for draws in _runs(sizes):
        d = sizes[draws[0]]
        u = np.array([uniforms[k] for k in draws])
        low, high = np.repeat([[-1.0, -0.5, -3.0], [1.0, 0.5, 3.0]], d, axis=1)
        values = (10.0 ** _uniform(u[:, :-1], low, high)).reshape(-1, 3, d)
        lam, noise, qv = values.transpose(1, 0, 2)
        p1 = np.array([10.0 ** x for x in _uniform(u[:, -1], -0.5, 0.5).tolist()])
        stacks.append((draws, lam, noise, qv, p1))
    return stacks


def _determinants(stacks: list[tuple]) -> tuple[np.ndarray, np.ndarray]:
    """Each instance's determinant, in draw order, bit for bit what
    ``quantized_covariance_det`` gives (the kernel it calls on a stack of
    one), and its rank-one closed form prod(N+Q) * (1 + P1 * sum
    lambda/(N+Q)): both taken once per size on that size's stack."""
    count = sum(len(draws) for draws, *_ in stacks)
    dets, closed = np.empty(count), np.empty(count)
    for draws, lam, noise, qv, p1 in stacks:
        total = noise + qv
        closed[draws] = np.prod(total, axis=1) * (1.0 + p1 * np.sum(lam / total, axis=1))
        # Python's 2.0 ** x, as the public function takes it.
        dets[draws] = [2.0 ** x for x in _rank_one_log2_dets(lam, total, p1).tolist()]
    return dets, closed


def determinant_lemma_suite(samples: int = 500, seed: int = 20250811) -> CheckResult:
    """Factorized determinant vs the rank-one-update closed form
    prod(N+Q) * (1 + P1 * sum lambda/(N+Q)) on random instances, both
    taken once per size on that size's stack. A NaN error is the worst."""
    name = "determinant-lemma"
    dets, closed = _determinants(_determinant_draws(np.random.default_rng(seed), samples))
    worst = float(np.max(np.abs(dets - closed) / closed, initial=0.0))
    passed = worst < 1e-10
    detail = f"{samples} random instances (size <= 6); worst relative error {worst:.3e}"
    return CheckResult(name, passed, detail)


def _network_draws(rng: np.random.Generator, samples: int) -> tuple[list[tuple], list]:
    """Each sample's network, T in [3, 6] drawn and then a random valid
    network of T nodes: log-uniform gains in [0.1, 10], relay powers in
    [10, 10^4], source power and noises near unity, given as its
    ``_arrays`` (read-only views), bit for bit the NetworkSpec that
    ``random_network`` in ``tests/oracles.py`` draws from the same
    generator; and its push factors, one per relay, log-uniform in
    [1, 100].
    Per sample, one ``random`` call draws the 2T - 2 powers and noises, the
    T x T gains and the factors, in that order. The scalars are Python's
    ``10.0 ** x``, the gains and factors ``np.power`` of each T's stack, as
    one network at a time takes them.

    No draw can be invalid, so none is validated: every power and noise is
    ``10.0 ** x`` with x in a bounded interval, and every gain ``10 ** u``
    with u in [-1, 1), averaged with its transpose, with the diagonal set to
    0. Every value that ``topology.validate`` checks is finite and positive,
    and that function stays the one statement of its rules."""
    sizes, uniforms = [], []
    for _ in range(samples):
        t = int(rng.integers(3, 7))
        sizes.append(t)
        uniforms.append(rng.random(2 * t - 2 + t * t + (t - 2)))
    networks, factors = [None] * samples, [None] * samples
    for members in _runs(sizes):
        t = sizes[members[0]]
        r = t - 2
        u = np.array([uniforms[k] for k in members])
        # The source's power, each relay's power and noise, the destination's noise.
        low = np.array([-0.5, *[1.0, -0.5] * r, -0.5])
        high = np.array([0.5, *[4.0, 0.5] * r, 0.5])
        scalars = _uniform(u[:, : 2 * t - 2], low, high)
        scalars = np.reshape([10.0 ** x for x in scalars.ravel().tolist()], scalars.shape)
        values = np.full((len(members), 2, t), math.nan)  # powers, noises
        values[:, 0, :-1] = scalars[:, [0, *range(1, 2 * t - 3, 2)]]
        values[:, 1, 1:] = scalars[:, [*range(2, 2 * t - 3, 2), 2 * t - 3]]
        gains = (10.0 ** _uniform(u[:, 2 * t - 2 : -r], -1.0, 1.0)).reshape(-1, t, t)
        gains = 0.5 * (gains + gains.transpose(0, 2, 1))
        gains[:, range(t), range(t)] = 0.0
        gains.setflags(write=False)
        values.setflags(write=False)
        push = 10.0 ** _uniform(u[:, -r:], 0.0, 2.0)
        for k, g, (powers, noise), f in zip(members, gains, values, push):
            networks[k], factors[k] = (g, powers, noise), f
    return networks, factors


def _pushed(optima: list, factors: list) -> list:
    """Each uniform optimum Q* pushed up by its per-relay factors, as
    values aligned with the relays, or the Infeasible its search met.
    Margins grow with every coordinate, so a feasible Q* stays feasible.
    Every point is checked as a QuantizationVector's entries are, all at
    once: the first value that is not finite and positive raises its
    NonPositiveQ."""
    with np.errstate(over="ignore"):  # Q * f -> inf, as Python floats give
        points = [q if isinstance(q, RelaycapError) else q * f for q, f in zip(optima, factors)]
    found = [p for p in points if not isinstance(p, RelaycapError)]
    flat = np.concatenate([np.empty(0), *found])
    if not ((flat > 0.0) & (flat < math.inf)).all():
        for p in found:
            QuantizationVector(entries=tuple(enumerate(p.tolist(), 2)))
    return points


def _feasible_points(rng: np.random.Generator, samples: int) -> list[tuple]:
    """Each random network's forall table with a point strictly inside
    its feasible region, the uniform optimum pushed up by per-relay
    factors in [1, 100], or the Infeasible its search meets.
    ``_network_draws`` draws every network and its factors. One
    ``_constraint_tables`` call builds every table, one stacked pass per
    relay count, and one ``_uniform_optima`` call decides them."""
    networks, factors = _network_draws(rng, samples)
    tables = _constraint_tables(networks, "forall")
    return list(zip(tables, _pushed(_uniform_optima(tables), factors)))


def monotonicity_suite(samples: int = 100, seed: int = 20250812) -> CheckResult:
    """Feasible Q stays feasible under uniform up-scaling by 1.5, 10, 10^3.

    One constraint table per network serves the feasible-point search
    (``_feasible_points``) and every scale check: one ``_feasible`` call
    checks every point at every scale. Scanning in sample order then
    names the first failing (sample, scale), and at that scale the row
    with the first NaN margin, or else the first smallest margin: a row
    that fails whenever the scale fails."""
    name = "feasibility-monotonicity"
    scales = (1.0, 1.5, 10.0, 1e3)
    points = _feasible_points(np.random.default_rng(seed), samples)
    found = [(table, q) for table, q in points if not isinstance(q, RelaycapError)]
    with np.errstate(over="ignore"):  # Q * c -> inf, as Python floats give
        scaled = [q_c for _, q in found for q_c in np.multiply.outer(scales, q)]
    verdicts = _feasible([table for table, _ in found for _ in scales], scaled)
    checked = iter(zip(verdicts, scaled))
    for i, (table, q) in enumerate(points):
        if isinstance(q, RelaycapError):
            return CheckResult(name, False, f"sample {i}: feasible point search failed: {q}")
        held = [next(checked) for _ in scales]
        if not held[0][0]:
            return CheckResult(name, False, f"sample {i}: sampled Q not feasible at scale 1")
        for c, (ok, q_c) in zip(scales[1:], held[1:]):
            if not ok:
                margins = table.margins_log2(q_c)
                row = int(np.argmin(margins))  # the first NaN, else the first smallest
                return CheckResult(
                    name,
                    False,
                    f"sample {i}: scale {c} broke feasibility "
                    f"(S={table.instance(row).s}, margin {margins[row]:.3e})",
                )
    detail = f"{samples} random (network, Q) pairs x scales (1.5, 10, 1e3)"
    return CheckResult(name, True, detail)


def achievability_suite(samples: int = 100, seed: int = 20250813) -> CheckResult:
    """Compress-forward rate never exceeds the broadcast-cut bound, at the
    points ``_feasible_points`` samples. One ``_cf_rates`` call takes every
    rate, and one more at Q = 0 every bound: there it is
    ``source_cut_bound`` bit for bit. A NaN rate or bound fails."""
    name = "achievability-vs-bound"
    points = _feasible_points(np.random.default_rng(seed), samples)
    found = [(table.arrays, q) for table, q in points if not isinstance(q, RelaycapError)]
    networks = [arrays for arrays, _ in found]
    rates = _cf_rates(networks, [q for _, q in found]).tolist()
    bounds = _cf_rates(networks, [(0.0,) * len(q) for _, q in found]).tolist()
    checked = iter(zip(rates, bounds))
    worst_slack = math.inf
    for i, (_, q) in enumerate(points):
        if isinstance(q, RelaycapError):
            return CheckResult(name, False, f"sample {i}: feasible point search failed: {q}")
        rate, bound = next(checked)
        worst_slack = min(worst_slack, bound - rate)
        if not rate <= bound + RATE_TOL_BITS:
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
