"""Deliberately naive reference implementations used only by the tests.

The exhaustive generators of the constraint family (``partitions``,
``assignments``, ``constraint_instances``) and the serial network draw
(``random_network``) live here: the library reaches every extreme
without walking the family, and draws its verify networks as arrays.

These exist to cross-check the library's production paths through
completely different algorithms: a Laplace-expansion determinant against
the Cholesky log-det, the binomial Bell recurrence against the
restricted-growth-string partition generator, a scan of every
partition against the constraint table's subset DP, the table's former
loop build (Python lists, every instance built up front) against its
array build, the scalar subset DP (one mask and one candidate block at a
time, a strict-< scan) against the DP by popcount layer over stacked
tables, a column-by-column
sum over a 0/1 membership matrix against the table's doubling subset sums,
the receiver-side covariance formula for a cut rate against the
whitened-channel form, the cut table's rows one Gram-and-Cholesky cut at
a time against its Schur-complement tree, the compress-forward rate of
one network (Python-float sums, one ``conditional_mi_bits`` call)
against the stacked rates, the scalar Cholesky kernel
against the stacked one, the dual-route covariance routes computed one
grid point at a time against their stacked evaluation, the two dual-route
suites run one parameter set at a time (one public call per set) against
their batches, coordinate
descent by per-coordinate bisection against its closed-form frontier,
the uniform search as a bisection over a scalar predicate (at rel_tol
1e-300 it stops at the table's transition or a few ulps above) against
the exact Newton-and-ulp search, the convergence sweep one row at a time
against its lockstep searches, and the three random verify suites run
one sample at a time (one ``random_network``, one table and one
uniform search per sample, the feasible point from ``sample_feasible_q``
with its factors drawn by ``push_factors`` and applied by
``pushed_inside``, one ``table.feasible`` call per scale, one rate and
one bound call per network; one public determinant call per instance, on
its own flat network, each instance drawn by ``determinant_lemma_draws``)
against their batched forms, which draw their samples as arrays. Like
the suites, they fail at the first NaN error or rate.
Nothing here is performance sensitive; clarity wins.
"""

import math
import sys
from collections.abc import Callable, Iterable, Iterator
from itertools import product

import numpy as np

from relaycap import selftest
from relaycap.bounds import (
    _LN2,
    DESCENT_MAX_CYCLES,
    RATE_TOL_BITS,
    CutSpec,
    QuantizationVector,
    SweepRow,
    _ConstraintTable,
    _block_snr_sum,
    _check_guard,
    _channel,
    _optimize,
    _require_cover,
    optimize_quantization,
    quantized_covariance_det,
    source_cut_bound,
)
from relaycap.enumeration import Block, ConstraintInstance, subsets
from relaycap.errors import Infeasible, InvalidScale, RelaycapError, VerificationFailure
from relaycap.gaussian import (
    PD_EPSILON,
    _pivot_failure,
    conditional_covariance,
    conditional_mi_bits,
    joint_covariance,
    log2_det,
)
from relaycap.topology import destination, from_gains, relay, scaled, source


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


def alpha_suite_by_sets(offsets=None):
    """The single-relay suite one parameter set at a time: one public
    ``verify_single_relay_independence`` call per set, in (p1, p2, n2, n3)
    order, the first failing set named."""
    name = "single-relay-correlation"
    offsets = selftest.DEFAULT_OFFSETS if offsets is None else tuple(float(o) for o in offsets)
    sets = 0
    worst_route = 0.0
    for p1 in selftest._ALPHA_P1:
        for p2 in selftest._ALPHA_P2:
            for n2 in selftest._ALPHA_N2:
                for n3 in selftest._ALPHA_N3:
                    limit = math.sqrt(p1 / p2)
                    alphas = tuple(0.9 * limit * o for o in offsets)
                    try:
                        rep = selftest.verify_single_relay_independence(p1, p2, n2, n3, alphas)
                    except RelaycapError as exc:
                        detail = f"p1={p1} p2={p2} n2={n2} n3={n3}: {exc}"
                        return selftest.CheckResult(name, False, detail)
                    worst_route = max(worst_route, rep.max_abs_diff_bits)
                    sets += 1
    detail = (
        f"{sets} parameter sets x {len(offsets)} alphas; "
        f"max dual-route gap {worst_route:.3e} bits"
    )
    return selftest.CheckResult(name, True, detail)


def beta_suite_by_sets(betas=None):
    """The relay-correlation suite one parameter set at a time: one public
    ``verify_relay_correlation_invariance`` call per set, in (p1, n2, n3,
    n4) order, the first failing set named."""
    name = "relay-correlation-invariance"
    betas = selftest.DEFAULT_OFFSETS if betas is None else tuple(float(b) for b in betas)
    sets = 0
    worst = 0.0
    for p1 in selftest._BETA_P1:
        for n2 in selftest._BETA_N2:
            for n3 in selftest._BETA_N3:
                for n4 in selftest._BETA_N4:
                    try:
                        rep = selftest.verify_relay_correlation_invariance(p1, n2, n3, n4, betas)
                    except RelaycapError as exc:
                        detail = f"p1={p1} n2={n2} n3={n3} n4={n4}: {exc}"
                        return selftest.CheckResult(name, False, detail)
                    worst = max(worst, rep.max_abs_dev_bits)
                    sets += 1
    detail = f"{sets} parameter sets x {len(betas)} betas; max deviation {worst:.3e} bits"
    return selftest.CheckResult(name, True, detail)


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


class EmptyChoice(RelaycapError):
    """A partition block excludes every candidate receiver."""


def partitions(s: Iterable[int]) -> Iterator[tuple[Block, ...]]:
    """All set partitions of a nonempty set, Bell(|s|) of them.

    Enumerated by restricted growth strings in lexicographic order: element
    i (in sorted order) gets block label a[i] with a[0] = 0 and
    a[i] <= max(a[:i]) + 1. Blocks are emitted ordered by smallest element,
    each sorted: the one-block partition first, the all-singletons one last.
    """
    ids = sorted(set(s))
    if not ids:
        raise ValueError("partitions of the empty set are not defined here; "
                         "an empty subset imposes no constraint")
    n = len(ids)
    labels = [0] * n

    def grow(i: int, num_blocks: int) -> Iterator[tuple[Block, ...]]:
        if i == n:
            blocks: list[list[int]] = [[] for _ in range(num_blocks)]
            for elem, lab in zip(ids, labels):
                blocks[lab].append(elem)
            yield tuple(tuple(b) for b in blocks)
            return
        for lab in range(num_blocks + 1):
            labels[i] = lab
            yield from grow(i + 1, max(num_blocks, lab + 1))

    yield from grow(1, 1)


def assignments(
    partition: Iterable[Block], candidates: Iterable[int]
) -> Iterator[tuple[int, ...]]:
    """All receiver vectors: one r(m) per block, drawn from the candidates
    minus the block itself, rightmost block varying fastest. Count is the
    product of (|candidates| - |B_m|).
    """
    blocks = [tuple(b) for b in partition]
    cand = sorted(set(candidates))
    choices: list[list[int]] = []
    for block in blocks:
        eligible = [c for c in cand if c not in block]
        if not eligible:
            raise EmptyChoice(
                f"block {block} excludes every candidate receiver {cand}"
            )
        choices.append(eligible)
    yield from product(*choices)


def constraint_instances(
    relays: Iterable[int], candidates: Iterable[int]
) -> Iterator[ConstraintInstance]:
    """Stream the full constraint family over all nonempty relay subsets.

    ``candidates`` is the receiver pool {2..T} (relays plus destination).
    Order: subsets outermost, then partitions, then assignments, each in
    its canonical order.
    """
    cand = sorted(set(candidates))
    for sub in subsets(relays):
        if not sub:
            continue
        for part in partitions(sub):
            for recv in assignments(part, cand):
                yield ConstraintInstance(s=sub, partition=part, assignment=recv)


def random_network(rng: np.random.Generator, num_nodes: int):
    """Random valid network: log-uniform gains in [0.1, 10], relay powers
    in [10, 10^4], source power and noises near unity, drawn one value at
    a time. ``selftest._network_draws`` draws its networks as arrays, bit
    for bit these."""
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


def constraint_table_by_loops(net, quantifier):
    """Constraint-table rows by the subset DP over Python lists, building
    every row's instance: ``(denom_log2, instances)``.

    Block sums grow relay by relay in DP-mask order (the smallest relay
    has the highest bit), each block value is the extreme over the
    eligible receivers (the first on ties), and each row follows the DP's
    first blocks in canonical order, summing their values left to right.
    forall minimizes, exists maximizes.
    """
    relays = net.relay_ids
    n = len(relays)
    full = (1 << n) - 1
    # exists maximizes; negating its scores (exact) lets both minimize.
    sign = 1.0 if quantifier == "forall" else -1.0
    # DP masks give the smallest relay the highest bit, so a descending
    # submask walk meets candidate blocks in restricted-growth order.
    bit = [1 << (n - 1 - i) for i in range(n)]
    members = [tuple(r for r, b in zip(relays, bit) if m & b) for m in range(full + 1)]

    # v(B) and its receiver, in _block_snr_sum's arithmetic: a block's
    # sum extends the sum without its largest relay (the lowest bit).
    candidates = relays + (net.destination_id,)
    gains = _channel(net, (1,) + relays, candidates)[0]
    noise = np.array([net.nodes[r - 1].noise for r in candidates])
    p1 = net.nodes[0].power
    floors = (gains[:, 0] * p1 + noise).tolist()
    terms = (gains[:, 1:] * [net.nodes[i - 1].power for i in relays]).T.tolist()
    sums = [[0.0] * len(candidates)]
    value, receiver = [0.0], [0]
    for m in range(1, full + 1):
        low = m & -m
        sums.append([a + t for a, t in zip(sums[m ^ low], terms[n - low.bit_length()])])
        best_v = None
        for j, r in enumerate(candidates):
            if j < n and m & bit[j]:
                continue
            v = math.log1p(sums[m][j] / floors[j]) / _LN2
            if best_v is None or sign * v < sign * best_v:
                best_v, best_r = v, r
        assert best_v is not None  # the destination is always eligible
        value.append(best_v)
        receiver.append(best_r)
    score = [sign * v for v in value]

    f = [0.0] * (full + 1)  # signed extreme totals
    first_block = [0] * (full + 1)
    for s in range(1, full + 1):
        top = 1 << (s.bit_length() - 1)  # the smallest relay of S
        rest = s ^ top
        best, pick = score[s], s  # B = S comes first
        sub = rest
        while sub:
            sub = (sub - 1) & rest
            total = score[top | sub] + f[rest ^ sub]
            if total < best:
                best, pick = total, top | sub
        f[s], first_block[s] = best, pick

    denoms = []
    instances = []
    for c in range(1, full + 1):  # canonical order: bit i of c selects relays[i]
        s = m = sum(b for i, b in enumerate(bit) if c >> i & 1)
        blocks, recv, total = [], [], 0.0
        while m:
            b = first_block[m]
            blocks.append(members[b])
            recv.append(receiver[b])
            total += value[b]
            m ^= b
        denoms.append(total)
        instances.append(
            ConstraintInstance(s=members[s], partition=tuple(blocks), assignment=tuple(recv))
        )
    return np.array(denoms), tuple(instances)


def partition_dp_by_masks(
    value: list[float], forall: bool, masks: tuple[int, ...]
) -> tuple[list[float], list[int]]:
    """The subset DP over block values indexed by DP mask: every canonical
    row's extreme total, summed left to right over its blocks, and each DP
    mask's first block (``_ConstraintTable`` states the recurrence).
    ``masks`` is the DP mask of each canonical row, its bits reversed."""
    full = len(value) - 1
    # exists maximizes; negating its scores (exact) lets both minimize.
    score = value if forall else [-v for v in value]
    f = [0.0] * (full + 1)  # signed extreme totals
    first_block = [0] * (full + 1)
    for s in range(1, full + 1):
        top = 1 << (s.bit_length() - 1)  # the smallest relay of S
        rest = s ^ top
        best, pick = score[s], s  # B = S comes first
        sub = rest
        while sub:
            sub = (sub - 1) & rest
            total = score[top | sub] + f[rest ^ sub]
            if total < best:
                best, pick = total, top | sub
        f[s], first_block[s] = best, pick

    denoms = []
    for m in masks[1:]:
        total = 0.0
        while m:
            b = first_block[m]
            total += value[b]
            m ^= b
        denoms.append(total)
    return denoms, first_block


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
    gains = np.array([[math.sqrt(net.gains[i - 1, j - 1]) for i in tx] for j in rx])
    powers = np.array([net.nodes[i - 1].power for i in tx])
    noises = np.array([net.nodes[j - 1].noise for j in rx])
    signal = (gains * powers) @ gains.T
    sigma = np.diag(noises) + 0.5 * (signal + signal.T)
    return 0.5 * (log2_det(sigma) - float(np.sum(np.log2(noises))))


def cf_rate_by_network(net, q) -> float:
    """The compress-forward rate of one network at Q, as ``cf_rate``
    computed it before its stacked form: Python-float sums N + Q, an
    overflowed receiver dropped from the list, and one
    ``conditional_mi_bits`` call."""
    relays = net.relay_ids
    _require_cover(q, relays)
    gains, powers, noises = _channel(net, (1,), relays + (net.destination_id,))
    # Python floats: an N + Q that overflows is inf, without a warning; that
    # relay hears nothing of the source, so dropping it is the exact limit.
    total = [n + x for n, x in zip(noises.tolist(), (*q.values, 0.0))]
    if math.inf in total:
        gains, total = gains[np.isfinite(total)], [x for x in total if x < math.inf]
    return conditional_mi_bits(np.sqrt(gains), powers, total)


def cut_table_by_cuts(net, override_guard=False):
    """Cut-table rows one cut at a time: every cut of ``subsets`` order,
    each rate from its own Gram-and-Cholesky ``conditional_mi_bits`` call
    on the cut's channel, not from the library's cut kernel."""
    _check_guard(net.num_nodes, override_guard)
    rows = []
    for extra in subsets(net.relay_ids):
        cut = CutSpec(tx_side=frozenset({1}) | set(extra))
        rx = tuple(j for j in range(2, net.num_nodes + 1) if j not in cut.tx_side)
        gains, powers, noises = _channel(net, cut.sorted_ids(), rx)
        rows.append((cut, conditional_mi_bits(np.sqrt(gains), powers, noises)))
    return tuple(rows)


def _frontier(feasible_at: Callable[[float], bool], start: float, rel_tol: float) -> float:
    """Smallest x (to rel_tol) with feasible_at(x), for a predicate that is
    monotone in x.

    Double up from ``start`` until feasible, halve down from there until
    infeasible, then bisect geometrically between the two. Doubling stops
    at the largest double; raises Infeasible if that is infeasible too: no
    finite x is feasible. Returns the doubling end when halving underflows
    to 0 (the frontier lies below the representable range).
    """
    hi = start
    while not feasible_at(hi):
        if hi == sys.float_info.max:
            raise Infeasible("no finite quantization noise satisfies every constraint")
        hi = min(2.0 * hi, sys.float_info.max)
    lo = hi
    while feasible_at(lo):
        lo *= 0.5
        if lo == 0.0:
            return hi
    while hi - lo > rel_tol * hi:
        mid = math.sqrt(lo) * math.sqrt(hi)  # geometric, overflow-safe
        if mid <= lo or mid >= hi:  # no representable point left between
            break
        if feasible_at(mid):
            hi = mid
        else:
            lo = mid
    return hi


def convergence_sweep_by_rows(net, gammas, quantifier="forall", *, override_guard=False):
    """The convergence sweep one gamma row at a time: per row, one scaled
    network, one ``optimize_quantization`` (its own table and uniform
    search), and an infeasible row where that raises Infeasible."""
    gammas = [float(g) for g in gammas]
    if not gammas:
        raise InvalidScale("gamma list is empty")
    if any(b < a for a, b in zip(gammas, gammas[1:])):
        raise InvalidScale(f"gammas must be sorted ascending, got {gammas}")
    if any(not g >= 1.0 for g in gammas):
        raise InvalidScale(f"every gamma must be >= 1, got {gammas}")

    bound = source_cut_bound(net)
    rows: list[SweepRow] = []
    for g in gammas:
        try:
            q_star, rate = optimize_quantization(
                scaled(net, g), "uniform", quantifier, override_guard=override_guard
            )
        except Infeasible:
            feasible, rate, q_uni = False, math.nan, math.nan
        else:
            feasible, q_uni = True, max(q_star.values, default=math.nan)
        gap = bound - rate
        if feasible and not gap >= -RATE_TOL_BITS:
            raise VerificationFailure(
                f"rate {rate!r} exceeds bound {bound!r} at gamma={g!r}"
            )
        rows.append(SweepRow(g, bound, rate, gap, q_uni, feasible))
    return tuple(rows)


def coordinate_descent_by_bisection(table, start, rel_tol=1e-9):
    """Coordinate descent with each coordinate found by the ``_frontier``
    bisection (to rel_tol) instead of its closed form: from ``start``, Q as
    values aligned with the sorted relays, cyclically shrink each Q_j to
    its per-coordinate frontier. Returns the final values, a new array.

    Each move keeps every margin nonnegative and never raises any Q, so
    the rate is nondecreasing; stop when a full cycle improves it by no
    more than rel_tol bits, or after DESCENT_MAX_CYCLES cycles.
    """
    q_values = start.copy()
    rate = table.cf_rate(q_values)
    for _ in range(DESCENT_MAX_CYCLES):
        for k in range(len(table.relays)):
            def feasible_at(x: float) -> bool:
                trial = q_values.copy()
                trial[k] = x
                return table.feasible(trial)

            # Starts on the frontier; doubling only undoes numerical slack.
            q_values[k] = _frontier(feasible_at, q_values[k], rel_tol)
        new_rate = table.cf_rate(q_values)
        improved = new_rate - rate
        rate = new_rate
        if improved <= rel_tol:
            break
    return q_values


def determinant_lemma_draws(samples, seed):
    """The determinant-lemma suite's random instances (lam, noise, Q, P1),
    drawn one at a time in its order."""
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(samples):
        d = int(rng.integers(1, 7))
        lam = 10.0 ** rng.uniform(-1.0, 1.0, size=d)
        noise = 10.0 ** rng.uniform(-0.5, 0.5, size=d)
        qv = 10.0 ** rng.uniform(-3.0, 3.0, size=d)
        p1 = 10.0 ** rng.uniform(-0.5, 0.5)
        draws.append((lam, noise, qv, p1))
    return draws


def _flat_network(source_gains, relay_noises, p1):
    """Source + D relays + destination with prescribed source gains; all
    other gains and powers are unit (irrelevant to the determinant)."""
    t = len(source_gains) + 2
    relays = [relay(j, power=1.0, noise=n) for j, n in enumerate(relay_noises.tolist(), 2)]
    g = np.ones((t, t))
    np.fill_diagonal(g, 0.0)
    g[0, 1:-1] = g[1:-1, 0] = source_gains
    return from_gains([source(1, power=p1), *relays, destination(t, noise=1.0)], g)


def determinant_by_network(lam, noise, qv, p1):
    """One instance's determinant through the public
    ``quantized_covariance_det`` on its own flat network."""
    d = len(lam)
    net = _flat_network(lam, noise, p1)
    s = tuple(range(2, 2 + d))
    q = QuantizationVector(entries=tuple(zip(s, qv.tolist())))
    return quantized_covariance_det(net, s, q)


def determinant_lemma_suite_by_samples(samples=500, seed=20250811):
    """``selftest.determinant_lemma_suite`` one instance at a time: each
    instance builds its network and makes its own public determinant call."""
    name = "determinant-lemma"
    worst = 0.0
    for lam, noise, qv, p1 in determinant_lemma_draws(samples, seed):
        got = determinant_by_network(lam, noise, qv, p1)
        closed = float(np.prod(noise + qv) * (1.0 + p1 * np.sum(lam / (noise + qv))))
        error = abs(got - closed) / closed
        if math.isnan(error):  # max would drop it
            worst = error
            break
        worst = max(worst, error)
    passed = worst < 1e-10
    detail = f"{samples} random instances (size <= 6); worst relative error {worst:.3e}"
    return selftest.CheckResult(name, passed, detail)


def push_factors(rng, count):
    """``count`` log-uniform factors in [1, 100], one per relay."""
    return 10.0 ** rng.uniform(0.0, 2.0, size=count)


def pushed_inside(q_star, factors):
    """Q* pushed up by its per-relay factors, one Python multiply and one
    QuantizationVector check per entry."""
    return QuantizationVector(
        entries=tuple((i, v * float(f)) for (i, v), f in zip(q_star.entries, factors))
    )


def sample_feasible_q(rng, net, quantifier="forall"):
    """A random point strictly inside the feasible region, found serially:
    the network's own uniform optimum pushed up by per-relay factors in
    [1, 100], drawn from ``rng`` after the search."""
    q_star, _ = optimize_quantization(net, "uniform", quantifier)
    return pushed_inside(q_star, push_factors(rng, len(q_star.ids)))


def monotonicity_suite_by_samples(samples=100, seed=20250812):
    """``selftest.monotonicity_suite`` one sample at a time: each network
    gets its table and its own uniform search before the next is drawn.
    Networks come from ``random_network``, looked up per call."""
    name = "feasibility-monotonicity"
    rng = np.random.default_rng(seed)
    for i in range(samples):
        net = random_network(rng, int(rng.integers(3, 7)))
        try:
            table = _ConstraintTable(net, "forall")
            q_star, _, _ = _optimize(table, "uniform")
        except RelaycapError as exc:
            return selftest.CheckResult(
                name, False, f"sample {i}: feasible point search failed: {exc}"
            )
        q = pushed_inside(q_star, push_factors(rng, len(q_star.ids)))
        if not table.feasible(np.array(q.values)):
            detail = f"sample {i}: sampled Q not feasible at scale 1"
            return selftest.CheckResult(name, False, detail)
        for c in (1.5, 10.0, 1e3):
            q_c = q.scaled_by(c)
            if not table.feasible(np.array(q_c.values)):
                # The first NaN margin, or else the first smallest: Python's
                # min would drop a NaN that does not come first.
                margins = table.constraint_margins(q_c)
                worst = margins[int(np.argmin([m.margin_log2 for m in margins]))]
                return selftest.CheckResult(
                    name,
                    False,
                    f"sample {i}: scale {c} broke feasibility "
                    f"(S={worst.instance.s}, margin {worst.margin_log2:.3e})",
                )
    detail = f"{samples} random (network, Q) pairs x scales (1.5, 10, 1e3)"
    return selftest.CheckResult(name, True, detail)


def achievability_suite_by_samples(samples=100, seed=20250813):
    """``selftest.achievability_suite`` one sample at a time, each feasible
    point from its own ``sample_feasible_q`` search, each rate from
    ``cf_rate_by_network`` and each bound from ``source_cut_bound``."""
    name = "achievability-vs-bound"
    rng = np.random.default_rng(seed)
    worst_slack = math.inf
    for i in range(samples):
        net = random_network(rng, int(rng.integers(3, 7)))
        try:
            q = sample_feasible_q(rng, net, "forall")
        except RelaycapError as exc:
            return selftest.CheckResult(
                name, False, f"sample {i}: feasible point search failed: {exc}"
            )
        rate = cf_rate_by_network(net, q)
        bound = source_cut_bound(net)
        worst_slack = min(worst_slack, bound - rate)
        if not rate <= bound + RATE_TOL_BITS:  # a NaN fails
            return selftest.CheckResult(
                name, False, f"sample {i}: rate {rate!r} exceeds bound {bound!r}"
            )
    detail = f"{samples} random networks; smallest bound-rate slack {worst_slack:.3e} bits"
    return selftest.CheckResult(name, True, detail)
