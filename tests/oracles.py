"""Deliberately naive reference implementations used only by the tests.

These exist to cross-check the library's production paths through
completely different algorithms: a Laplace-expansion determinant against
the Cholesky log-det, the binomial Bell recurrence against the
restricted-growth-string partition generator, a scan of every
partition against the constraint table's subset DP, a column-by-column
sum over a 0/1 membership matrix against the table's doubling subset sums,
the receiver-side covariance formula for a cut rate against the
whitened-channel form, the cut table evaluated one cut at a time
against its grouped, stacked evaluation, the scalar Cholesky kernel
against the stacked one, the dual-route covariance routes computed one
grid point at a time against their stacked evaluation, and coordinate
descent by per-coordinate bisection against its closed-form frontier.
Nothing here is performance sensitive; clarity wins.
"""

import math

import numpy as np

from relaycap.bounds import (
    _LN2,
    DESCENT_MAX_CYCLES,
    CutSpec,
    QuantizationVector,
    _block_snr_sum,
    _check_guard,
    _frontier,
    cf_rate,
    cut_rate,
)
from relaycap.enumeration import ConstraintInstance, partitions, subsets
from relaycap.gaussian import (
    PD_EPSILON,
    _pivot_failure,
    conditional_covariance,
    joint_covariance,
    log2_det,
)


def _cholesky_log2_det(a: np.ndarray) -> float:
    """Sum of the base-2 logs of the Cholesky pivots of ``a``, which must
    be exactly symmetric; the internal builders construct it so.

    Pivot k is a[k,k] minus the accumulated squared row of the factor; a
    pivot <= PD_EPSILON (or NaN) raises NotPositiveDefinite.
    """
    n = a.shape[0]
    lower = np.zeros((n, n))
    log2_sum = 0.0
    for k in range(n):
        pivot = a[k, k] - lower[k, :k] @ lower[k, :k]
        if not pivot > PD_EPSILON:
            raise _pivot_failure(pivot, k)
        log2_sum += math.log2(pivot)
        root = math.sqrt(pivot)
        lower[k, k] = root
        if k + 1 < n:
            lower[k + 1 :, k] = (a[k + 1 :, k] - lower[k + 1 :, :k] @ lower[k, :k]) / root
    return log2_sum


def single_relay_covariance_bits_by_points(p1, p2, n2, n3, alphas) -> list[float]:
    """``verify_single_relay_independence``'s covariance route one alpha at
    a time: per grid point, one joint covariance of (Y2, Y3, X2), one Schur
    complement given X2 and one scalar log-det."""
    log2_thermal = math.log2(n2) + math.log2(n3)
    bits = []
    for a in alphas:
        pw = max(p1 - a * a * p2, 0.0)
        rows = np.array(
            [
                [a, 1.0, 1.0, 0.0],  # Y2 = X1 + Z2
                [a + 1.0, 1.0, 0.0, 1.0],  # Y3 = X1 + X2 + Z3
                [1.0, 0.0, 0.0, 0.0],  # X2
            ]
        )
        sigma = joint_covariance(rows, np.array([p2, pw, n2, n3]))
        given_x2 = conditional_covariance(sigma, keep=[0, 1], given=[2])
        bits.append(0.5 * (_cholesky_log2_det(given_x2) - log2_thermal))
    return bits


def relay_correlation_mi_bits_by_points(p1, n2, n3, n4, betas) -> list[float]:
    """``verify_relay_correlation_invariance``'s covariance route one beta
    at a time: per grid point, one joint covariance of (Y2, Y3, Y4, X2,
    X3), one Schur complement given (X2, X3) and one scalar log-det."""
    log2_thermal = math.log2(n2) + math.log2(n3) + math.log2(n4)
    bits = []
    for b in betas:
        rows = np.array(
            [
                [1.0, 1.0, 0.0, 1.0, 0.0, 0.0],  # Y2 = X1 + X3 + Z2
                [1.0, b, 1.0, 0.0, 1.0, 0.0],  # Y3 = X1 + X2 + Z3
                [1.0, 1.0 + b, 1.0, 0.0, 0.0, 1.0],  # Y4 = X1 + X2 + X3 + Z4
                [0.0, b, 1.0, 0.0, 0.0, 0.0],  # X2
                [0.0, 1.0, 0.0, 0.0, 0.0, 0.0],  # X3
            ]
        )
        sigma = joint_covariance(rows, np.array([p1, 1.0, 1.0, n2, n3, n4]))
        given_inputs = conditional_covariance(sigma, keep=[0, 1, 2], given=[3, 4])
        bits.append(0.5 * (_cholesky_log2_det(given_inputs) - log2_thermal))
    return bits


def det_cofactor(matrix) -> float:
    """Determinant by cofactor (Laplace) expansion along the first row.

    O(n!) and numerically naive on purpose; keep n <= 6.
    """
    m = [[float(x) for x in row] for row in matrix]
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix must be square")
    if n == 1:
        return m[0][0]
    total = 0.0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += (-1.0) ** j * m[0][j] * det_cofactor(minor)
    return total


def bell_numbers(upto: int) -> list[int]:
    """Bell numbers B(0)..B(upto) via B(n+1) = sum_k C(n, k) B(k)."""
    bell = [1]
    for n in range(upto):
        bell.append(sum(math.comb(n, k) * bell[k] for k in range(n + 1)))
    return bell


def count_assignments_brute(partition, candidates) -> int:
    """Count valid receiver vectors by materializing every one of them."""
    vectors = [()]
    for block in partition:
        eligible = [c for c in sorted(set(candidates)) if c not in block]
        vectors = [v + (r,) for v in vectors for r in eligible]
    return len(vectors)


def table_by_partition_scan(net, quantifier):
    """Constraint-table rows by scanning every partition of every nonempty
    relay subset, Bell(R+1) - 1 of them: ``(denom_log2, instances)``.

    Each block takes its extreme receiver (the first one on ties); each
    partition's total is the left-to-right sum of its block values; each
    subset keeps the first partition in restricted-growth order that
    attains the extreme total. forall minimizes, exists maximizes.
    """
    relays = net.relay_ids
    candidates = relays + (net.destination_id,)
    better = (lambda a, b: a < b) if quantifier == "forall" else (lambda a, b: a > b)
    block_best = {}

    def best_for_block(block):
        if block not in block_best:
            val_r = None
            for r in candidates:
                if r in block:
                    continue
                v = math.log1p(_block_snr_sum(net, block, r)) / _LN2
                if val_r is None or better(v, val_r[0]):
                    val_r = (v, r)
            block_best[block] = val_r
        return block_best[block]

    denoms, instances = [], []
    for s in subsets(relays):
        if not s:
            continue
        best = None
        for part in partitions(s):
            total = 0.0
            recv = []
            for block in part:
                v, r = best_for_block(block)
                total += v
                recv.append(r)
            if best is None or better(total, best[0]):
                best = (total, ConstraintInstance(s=s, partition=part, assignment=tuple(recv)))
        denoms.append(best[0])
        instances.append(best[1])
    return np.array(denoms), tuple(instances)


def subset_sums_by_columns(per_relay) -> np.ndarray:
    """Per nonempty relay subset in canonical order (mask k + 1, bit i
    selecting relay i), the sum of its relays' terms: a 0/1 membership
    matrix times the term vector, accumulated one relay column at a time
    so every row is the left-to-right sum over its subset."""
    n = len(per_relay)
    membership = (np.arange(1, 1 << n)[:, None] >> np.arange(n) & 1).astype(float)
    total = np.zeros(len(membership))
    for column, value in zip(membership.T, per_relay):
        total += column * value
    return total


def cut_rate_by_covariance(net, cut) -> float:
    """Rate across one cut as 1/2 log2 det(Sigma_N + H P H^T) minus
    1/2 log2 det(Sigma_N): the receivers' covariance built from per-entry
    amplitude gains and factored by the checked ``log2_det``."""
    tx = cut.sorted_ids()
    rx = [j for j in range(1, net.num_nodes + 1) if j not in cut.tx_side]
    gains = np.array([[math.sqrt(net.gain(i, j)) for i in tx] for j in rx])
    powers = np.array([net.transmit_power(i) for i in tx])
    noises = np.array([net.noise_variance(j) for j in rx])
    signal = (gains * powers) @ gains.T
    sigma = np.diag(noises) + 0.5 * (signal + signal.T)
    return 0.5 * (log2_det(sigma) - float(np.sum(np.log2(noises))))


def cut_table_by_cuts(net, override_guard=False):
    """Cut-table rows one cut at a time: every cut of ``subsets`` order,
    each rate from its own ``cut_rate`` call (one ``conditional_mi_bits``
    log-det per cut)."""
    _check_guard(net, override_guard)
    rows = []
    for extra in subsets(net.relay_ids):
        cut = CutSpec(tx_side=frozenset({1}) | set(extra))
        rows.append((cut, cut_rate(net, cut)))
    return tuple(rows)


def coordinate_descent_by_bisection(table, start, rel_tol):
    """Coordinate descent with each coordinate found by the ``_frontier``
    bisection (to rel_tol) instead of its closed form: cyclically shrink
    each Q_j to its per-coordinate frontier.

    Each move keeps every margin nonnegative and never raises any Q, so
    the rate is nondecreasing; stop when a full cycle improves it by no
    more than rel_tol bits, or after DESCENT_MAX_CYCLES cycles.
    """

    def as_vector(values: np.ndarray) -> QuantizationVector:
        return QuantizationVector(entries=tuple(zip(table.relays, values)))

    q_values = np.array(start.values)
    rate = cf_rate(table.net, as_vector(q_values))
    for _ in range(DESCENT_MAX_CYCLES):
        for k in range(len(table.relays)):
            def feasible_at(x: float) -> bool:
                trial = q_values.copy()
                trial[k] = x
                return table.feasible(trial)

            # Starts on the frontier; doubling only undoes numerical slack.
            q_values[k] = _frontier(feasible_at, q_values[k], rel_tol)
        new_rate = cf_rate(table.net, as_vector(q_values))
        improved = new_rate - rate
        rate = new_rate
        if improved <= rel_tol:
            break
    return as_vector(q_values)
