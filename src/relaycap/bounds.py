"""Cut-set bounds, compress-forward rates, and quantization optimization.

Upper bounds come from cut rates evaluated under independent Gaussian
inputs; the source (broadcast) cut is the capacity upper bound for this
network class, and non-source cuts are reported as estimates under that
particular input law. The cut table evaluates all 2^(T-2) cuts together:
grouped by how many relays sit on the transmitter side, each group's
channel blocks are stacked and get one stacked Cholesky factorization.

The achievable side is compress-forward: each relay forwards a quantized
observation with additive quantization noise Q_j. A quantization vector is
admissible when, for every nonempty relay subset S, the product of its Q
entries is at least the quantized-observation covariance determinant
divided by a product of per-block decoding factors, taken over partitions
of S and receiver assignments. The `forall` quantifier requires the
inequality against every (partition, assignment); `exists` requires one
witness per subset. The decoding factors do not depend on Q, so one
analysis builds one constraint table: per subset, the extreme
denominator. A block's factor does not depend on the other blocks, so
each extreme comes from an O(3^R) subset DP over the R relays
(``_ConstraintTable`` states the recurrence and its tie-break); every
block's factor comes from one array of block sums. The table keeps the
DP's choices, not the attaining (partition, assignment) instances: it
builds a subset's instance only when a caller reads it (a rate report's
binding rows, an infeasibility message, ``cf_feasible``'s diagnostics).
Every feasibility query is one vectorized margin evaluation on the
denominators.

Rate is strictly decreasing in every Q_j and feasibility margins are
strictly increasing, so the best admissible Q sits on the feasibility
frontier. With all Q_j equal, one monotone search (double up, halve
down, bisect) finds it. Coordinate descent then cycles from that uniform
solution and moves each Q_j straight to its own frontier: with the other
entries fixed, each subset's margin is nonnegative exactly above a
closed-form threshold, so no search is needed. Margins rise toward the
subset's denominator as Q grows, so a network is infeasible exactly when
some denominator is not positive. A rate report evaluates every cut
once: the bound is the source cut, the first row of that table. A sweep
over the relay power multiplier shows the gap between the two sides
collapsing as relay power grows.

All rates are bits per channel use. Every analysis first checks its
network with ``topology.validate`` and raises one ValueError listing the
problems of a network that fails it. Everything here is pure given an
immutable NetworkSpec, and diagnostics are emitted in canonical
enumeration order so output is deterministic.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .enumeration import Block, ConstraintInstance, subsets
from .errors import (
    GuardExceeded,
    Infeasible,
    InvalidReceiver,
    InvalidScale,
    NonPositiveQ,
    NotPositiveDefinite,
    VerificationFailure,
)
from .gaussian import _stacked_cholesky_log2_det, _whitened, conditional_mi_bits
from .topology import NetworkSpec, scaled, validate

_LN2 = math.log(2.0)

#: Networks with more nodes than this are refused (GuardExceeded, CLI exit
#: code 3) unless the caller overrides. The limit is part of the CLI
#: contract, not a cost ceiling: the O(3^R) constraint table and the
#: 2^(T-2)-row cut table both stay cheap past it.
GUARD_MAX_NODES = 10

#: Default relative tolerance for bisection on the feasibility frontier.
BISECT_REL_TOL = 1e-9

#: Bit-domain tolerance for rate comparisons (achievability vs bound).
RATE_TOL_BITS = 1e-9

#: Coordinate descent stops after this many full cycles even if the rate
#: still improves by more than the tolerance.
DESCENT_MAX_CYCLES = 64

_QUANTIFIERS = ("forall", "exists")
_OPT_MODES = ("uniform_bisection", "coordinate_descent")


def _require_quantifier(quantifier: str) -> None:
    if quantifier not in _QUANTIFIERS:
        raise ValueError(f"quantifier must be one of {_QUANTIFIERS}, got {quantifier!r}")


def _require_cover(q: QuantizationVector, relays: tuple[int, ...]) -> None:
    if q.ids != relays:
        raise ValueError(f"quantization vector covers relays {q.ids}, network has {relays}")


def _check_guard(net: NetworkSpec, override_guard: bool) -> None:
    if net.num_nodes > GUARD_MAX_NODES and not override_guard:
        raise GuardExceeded(
            f"network has {net.num_nodes} nodes, above the size guard of "
            f"{GUARD_MAX_NODES}; set override_guard (--override-guard on the "
            "command line) to run it anyway"
        )


@dataclass(frozen=True)
class CutSpec:
    """Transmitter side of a cut: a node-id set containing the source."""

    tx_side: frozenset[int]

    def __post_init__(self) -> None:
        side = frozenset(map(int, self.tx_side))
        if 1 not in side:
            raise ValueError(f"cut transmitter side must contain the source (1), got {sorted(side)}")
        object.__setattr__(self, "tx_side", side)

    def sorted_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self.tx_side))


@dataclass(frozen=True)
class QuantizationVector:
    """Per-relay quantization noise variances, strictly positive.

    Entries are (relay id, variance) pairs kept sorted by id. Zero is the
    unattainable limit and is rejected; drive values small instead.
    """

    entries: tuple[tuple[int, float], ...]

    def __post_init__(self) -> None:
        cleaned = tuple(sorted((int(i), float(v)) for i, v in self.entries))
        ids = [i for i, _ in cleaned]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate relay ids in quantization vector: {ids}")
        for i, v in cleaned:
            if not (v > 0.0 and math.isfinite(v)):
                raise NonPositiveQ(f"Q_{i} must be a finite positive variance, got {v!r}")
        object.__setattr__(self, "entries", cleaned)

    @classmethod
    def uniform(cls, q: float, relay_ids: tuple[int, ...]) -> "QuantizationVector":
        return cls(entries=tuple((i, float(q)) for i in relay_ids))

    @classmethod
    def per_relay(cls, mapping: dict[int, float]) -> "QuantizationVector":
        return cls(entries=tuple(mapping.items()))

    @property
    def ids(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.entries)

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(v for _, v in self.entries)

    def get(self, relay_id: int) -> float:
        for i, v in self.entries:
            if i == relay_id:
                return v
        raise KeyError(f"no quantization entry for relay {relay_id}")

    def scaled_by(self, c: float) -> "QuantizationVector":
        if not c > 0.0:
            raise ValueError(f"scale must be > 0, got {c!r}")
        return QuantizationVector(entries=tuple((i, v * c) for i, v in self.entries))


@dataclass(frozen=True)
class ConstraintMargin:
    """Tightest constraint for one relay subset with its log2-domain margin.

    margin_log2 = log2(prod Q_i over S) - log2(required floor); >= 0 means
    the subset's constraint is satisfied.
    """

    instance: ConstraintInstance
    margin_log2: float


@dataclass(frozen=True)
class RateReport:
    """Bound, achievable rate, optimal quantization, and diagnostics."""

    upper_bound_bits: float
    cf_rate_bits: float
    q_star: QuantizationVector
    gap_bits: float
    binding_constraints: tuple[ConstraintMargin, ...]
    min_cut: CutSpec
    min_cut_bits: float
    quantifier: str

    def __post_init__(self) -> None:
        if not self.gap_bits >= -RATE_TOL_BITS:
            raise ValueError(
                f"achievable rate exceeds the bound: gap {self.gap_bits:.3e} bits"
            )
        expected = self.upper_bound_bits - self.cf_rate_bits
        if abs(self.gap_bits - expected) > RATE_TOL_BITS:
            raise ValueError(
                f"inconsistent gap: {self.gap_bits!r} vs bound-rate {expected!r}"
            )


@dataclass(frozen=True)
class SweepRow:
    """One relay-power-scale row of a convergence sweep. On an infeasible
    row the rate, gap, and q columns are NaN and feasible is False."""

    gamma: float
    upper_bound_bits: float
    cf_rate_bits: float
    gap_bits: float
    q_uniform: float
    feasible: bool


def _gains(net: NetworkSpec, tx: tuple[int, ...], rx: tuple[int, ...]) -> np.ndarray:
    """Power gains lambda_ij with receivers j by rows and transmitters i by
    columns. Every analysis reads its network here first, so this is where
    a network that ``validate`` rejects raises one ValueError listing every
    problem. An entry with i == j (a relay on both lists) is no channel: it
    is set to 0 and never read."""
    problems = validate(net)
    if problems:
        raise ValueError("invalid network: " + "; ".join(problems))
    t, r = np.array(tx), np.array(rx)
    # net.gains[i-1, j-1] runs from i to j.
    return np.where(t[:, None] != r, net.gains[(t - 1)[:, None], r - 1], 0.0).T


def cut_rate(net: NetworkSpec, cut: CutSpec) -> float:
    """Information rate across one cut under independent Gaussian inputs.

    Transmitters are the cut's source side (source plus any relays);
    receivers are everything else at their thermal noise. Receiver-side
    transmitters are conditioned out, which for independent inputs means
    their columns simply do not appear.
    """
    all_ids = set(range(1, net.num_nodes + 1))
    if not cut.tx_side <= all_ids:
        raise ValueError(
            f"cut names nodes {sorted(cut.tx_side - all_ids)} outside the network"
        )
    if net.destination_id in cut.tx_side:
        raise ValueError("cut transmitter side must exclude the destination")
    tx = cut.sorted_ids()
    rx = tuple(sorted(all_ids - cut.tx_side))
    gains = np.sqrt(_gains(net, tx, rx))
    powers = np.array([net.transmit_power(i) for i in tx])
    noises = np.array([net.noise_variance(j) for j in rx])
    return conditional_mi_bits(gains, powers, noises)


def source_cut_bound(net: NetworkSpec) -> float:
    """The capacity upper bound: the rate across the broadcast cut {source}.

    Independent Gaussian inputs attain the true maximum for this cut, so
    unlike other cuts this value needs no input-law caveat.
    """
    return cut_rate(net, CutSpec(tx_side=frozenset({1})))


def _cut_rates(net: NetworkSpec, override_guard: bool) -> np.ndarray:
    """Every cut's rate in canonical order: bit i of a cut's index puts
    the i-th sorted relay on its transmitter side.

    A cut's rate comes from its block of one whitened matrix, receivers
    (nodes 2..T) by transmitters (the source and the relays). The blocks of
    the cuts with s relays on the transmitter side share one shape, so each
    such group is gathered into one stack, turned into Gram matrices on the
    smaller side by one matmul, and factored by one stacked Cholesky: per
    cut, the arithmetic of ``cut_rate``. If cuts are not positive definite,
    the error is ``cut_rate``'s on the first of them in canonical order.
    """
    _check_guard(net, override_guard)
    relays = net.relay_ids
    tx = (1,) + relays
    rx = tuple(range(2, net.num_nodes + 1))
    a = _whitened(
        np.sqrt(_gains(net, tx, rx)),
        np.array([net.transmit_power(i) for i in tx]),
        np.array([net.noise_variance(j) for j in rx]),
    )
    count = 1 << len(relays)
    inside = (np.arange(count)[:, None] >> np.arange(len(relays)) & 1).astype(bool)
    tx_keep = np.ones((count, len(tx)), dtype=bool)
    tx_keep[:, 1:] = inside
    rx_keep = np.ones((count, len(rx)), dtype=bool)
    rx_keep[:, np.array(relays, dtype=int) - 2] = ~inside

    rates = np.empty(count)
    failures = []
    sizes = inside.sum(axis=1)
    for s in range(len(relays) + 1):
        cuts = np.flatnonzero(sizes == s)
        tx_idx = np.nonzero(tx_keep[cuts])[1].reshape(len(cuts), 1 + s)
        rx_idx = np.nonzero(rx_keep[cuts])[1].reshape(len(cuts), len(rx) - s)
        w = a[rx_idx[:, :, None], tx_idx[:, None, :]]
        wt = w.transpose(0, 2, 1)
        gram = np.matmul(wt, w) if 1 + s <= len(rx) - s else np.matmul(w, wt)
        try:
            rates[cuts] = 0.5 * _stacked_cholesky_log2_det(np.eye(gram.shape[1]) + gram)
        except NotPositiveDefinite as err:
            failures.append((cuts[err.index], err))
    if failures:
        raise min(failures, key=lambda f: f[0])[1]
    return rates


def cut_rate_table(
    net: NetworkSpec, override_guard: bool = False
) -> tuple[tuple[CutSpec, float], ...]:
    """Rates for every valid cut, in canonical subset order of the relay
    side (source-only cut first).

    The cuts are grouped by the number of relays on their transmitter
    side, and each group's rates come from one stacked factorization
    (``_cut_rates``), with the arithmetic ``cut_rate`` applies to each cut.
    """
    rates = _cut_rates(net, override_guard)
    return tuple(
        (CutSpec(tx_side=(1,) + extra), float(rate))
        for extra, rate in zip(subsets(net.relay_ids), rates)
    )


def _min_cut(net: NetworkSpec, rates: np.ndarray) -> tuple[float, CutSpec]:
    """The smallest of the canonical-order cut rates with its cut; ties go
    to the earliest cut."""
    best = int(np.argmin(rates))
    extra = tuple(r for i, r in enumerate(net.relay_ids) if best >> i & 1)
    return float(rates[best]), CutSpec(tx_side=(1,) + extra)


def min_cut_bound(
    net: NetworkSpec, override_guard: bool = False
) -> tuple[float, CutSpec]:
    """Minimum cut rate over all 2^(T-2) cuts with its argmin cut.

    Under independent Gaussian inputs this is exact for the source cut and
    an estimate for the others; ties resolve to the earliest cut in
    canonical order.
    """
    return _min_cut(net, _cut_rates(net, override_guard))


def _block_snr_sum(net: NetworkSpec, block: Block, r: int) -> float:
    """Sum over block members of lambda_ir P_i, divided by the receiver's
    source-interference-plus-noise floor lambda_1r P1 + N_r. The sum runs
    left to right (builtin sum compensates from Python 3.12 on), as the
    constraint table's block sums do. Gains are read through ``_gains``."""
    source_gain, *gains = _gains(net, (1,) + tuple(block), (r,))[0].tolist()
    floor = source_gain * net.transmit_power(1) + net.noise_variance(r)
    total = 0.0
    for i, gain in zip(block, gains):
        if i != r:
            total += gain * net.transmit_power(i)
    return total / floor


def block_decode_rate(net: NetworkSpec, block: Block | tuple[int, ...], r: int) -> float:
    """Rate at which receiver r can absorb the forwarded indices of one
    block, treating the source signal as interference:
    1/2 log2(1 + sum_{i in block} lambda_ir P_i / (lambda_1r P1 + N_r)).

    An empty block carries nothing and yields 0 bits.
    """
    block = tuple(block)
    if not 2 <= r <= net.num_nodes:
        raise InvalidReceiver(f"receiver {r} must be a relay or the destination")
    if r in block:
        raise InvalidReceiver(f"receiver {r} lies inside its own block {block}")
    if not block:
        return 0.0
    return 0.5 * math.log1p(_block_snr_sum(net, block, r)) / _LN2


def quantized_covariance_det(
    net: NetworkSpec, s: tuple[int, ...], q: QuantizationVector
) -> float:
    """Determinant of the quantized-observation covariance for relay subset s.

    The matrix has diagonal lambda_1i P1 + N_i + Q_i and off-diagonal
    sqrt(lambda_1i lambda_1k) P1: a positive diagonal plus a rank-one
    source term, always positive definite for Q > 0.
    """
    s = tuple(s)
    if not s:
        raise ValueError("subset must be nonempty")
    return 2.0 ** _log2_quantized_covariance_det(net, s, np.array([q.get(i) for i in s]))


def _log2_quantized_covariance_det(
    net: NetworkSpec, s: tuple[int, ...], q_values: np.ndarray
) -> float:
    u = np.sqrt(_gains(net, (1,), s)[:, 0])
    noise = np.array([net.noise_variance(i) for i in s])
    # exactly symmetric
    m = np.diag(noise + q_values) + net.transmit_power(1) * np.outer(u, u)
    return float(_stacked_cholesky_log2_det(m[None])[0])


@cache
def _dp_layout(n: int) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """The constraint table's mask bookkeeping for n relays. It depends on
    n alone, so it is built once per relay count: each relay's DP bit,
    each DP mask's eligible receivers as columns in id order (the relays
    outside it, then the destination, column n), and the DP mask of each
    canonical row (by doubling: row 2^i + k is row k plus relay i)."""
    # DP masks give the smallest relay the highest bit, so a descending
    # submask walk meets candidate blocks in restricted-growth order.
    bit = tuple(1 << (n - 1 - i) for i in range(n))
    columns = [(n,)]
    for i in reversed(range(n)):
        columns = [(i,) + c for c in columns] + columns
    masks = [0]
    for b in bit:
        masks += [m | b for m in masks]
    return bit, tuple(columns), tuple(masks)


class _ConstraintTable:
    """The whole constraint family of one analysis, reduced to arrays.

    Row k stands for the k-th nonempty relay subset S in canonical order
    (relay mask k + 1, bit i selecting the i-th sorted relay).
    ``denom_log2[k]`` is the extreme over the family of
    sum log2(1 + block snr). The per-block factors do not involve Q, so
    they are computed once; a feasibility query for a concrete Q then sums
    two per-relay terms over every subset (``margins_log2``).

    In forall mode the binding family member minimizes the denominator
    product (hardest constraint); in exists mode it maximizes it (easiest
    witness). A block's value v(B), the extreme over the receivers outside
    it, does not depend on the other blocks, so the extreme over partitions
    is an exact subset DP in O(3^R) steps for R relays:

        f(S) = ext over B subset of S holding the smallest relay of S
               of v(B) + f(S minus B),    f(empty) = 0.

    Every block's sums at every receiver form one (2^R, R + 1) array;
    v(B) is the extreme of log2(1 + sum / floor) over B's eligible
    receivers. Equal totals go to the first block in restricted-growth
    order: at the smallest relay where two candidate blocks differ, the
    block containing it wins. Equal receivers go to the smallest id.
    ``denom_log2`` is the left-to-right sum of the chosen blocks' values.

    The table stores ``denom_log2``, each DP mask's first block and each
    block's receiver, nothing per row beyond that. ``instance(k)`` follows
    row k's blocks and builds its (partition, assignment) on demand;
    ``instances`` builds every row's, once, for the callers that report
    every subset.
    """

    def __init__(self, net: NetworkSpec, quantifier: str, override_guard: bool = False):
        _require_quantifier(quantifier)
        _check_guard(net, override_guard)
        self.net = net
        relays = net.relay_ids
        self.relays = relays
        n = len(relays)
        full = (1 << n) - 1
        bit, columns, masks = _dp_layout(n)

        # v(B) and its receiver for every DP mask B, in _block_snr_sum's
        # arithmetic. The masks holding only relays before relay i are the
        # multiples of 2^(n-i); adding relay i to each extends its sums by
        # the largest relay last, so every row is the left-to-right sum
        # over its block.
        candidates = relays + (net.destination_id,)
        gains = _gains(net, (1,) + relays, candidates)
        noise = np.array([net.noise_variance(r) for r in candidates])
        self.p1 = net.transmit_power(1)
        # lambda_ir P_i for the source (column 0) and every relay.
        signal = gains * [net.transmit_power(i) for i in (1,) + relays]
        floors = (signal[:, 0] + noise).tolist()
        sums = np.zeros((full + 1, n + 1))
        with np.errstate(over="ignore"):  # inf, silently, as Python floats give
            for b, term in zip(bit, signal[:, 1:].T):
                np.add(sums[:: 2 * b], term, out=sums[b :: 2 * b])
        # math.log1p, not np.log1p, whose last bit differs on some inputs.
        values = [
            [math.log1p(x / f) / _LN2 for x, f in zip(row, floors)] for row in sums.tolist()
        ]
        # min and max keep the first of equal values: the smallest id.
        extreme = min if quantifier == "forall" else max
        self._receiver_column = [
            extreme(c, key=row.__getitem__) for c, row in zip(columns, values)
        ]
        value = [row[j] for row, j in zip(values, self._receiver_column)]
        # exists maximizes; negating its scores (exact) lets both minimize.
        score = value if quantifier == "forall" else [-v for v in value]

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
        self.denom_log2 = np.array(denoms)
        self._first_block = first_block
        self.lam = gains[:n, 0]
        self.noise = noise[:n]

    def instance(self, k: int) -> ConstraintInstance:
        """Row k's binding (partition, assignment): the DP's first blocks
        followed from the row's mask, each with its receiver."""
        relays = self.relays
        bit, _, masks = _dp_layout(len(relays))
        receivers = relays + (self.net.destination_id,)

        def members(mask: int) -> tuple[int, ...]:
            return tuple(r for r, b in zip(relays, bit) if mask & b)

        m = masks[int(k) + 1]
        s = members(m)
        blocks, recv = [], []
        while m:
            b = self._first_block[m]
            blocks.append(members(b))
            recv.append(receivers[self._receiver_column[b]])
            m ^= b
        return ConstraintInstance(s=s, partition=tuple(blocks), assignment=tuple(recv))

    @cached_property
    def instances(self) -> tuple[ConstraintInstance, ...]:
        """Every row's binding instance, in canonical subset order."""
        return tuple(map(self.instance, range(len(self.denom_log2))))

    def margins_log2(self, q_values: np.ndarray) -> np.ndarray:
        """Per-subset tightest margins for Q given as values aligned with
        the sorted relay list."""
        # log2(prod Q) - log2(det) + denom, rewritten through the rank-one
        # determinant identity as -sum log1p(N/Q) - log1p(P1 sum lam/(N+Q))
        # + denom. Differencing the raw log-dets loses the N/Q term once Q
        # is ~1e16 N (it falls under the ulp), which would misread the
        # powerless-relay constraint Q >= Q + c as satisfiable; the log1p
        # form is exact there. The factorized determinant itself is checked
        # against this identity by the determinant-lemma suite.
        shrink = self._subset_sums(np.log1p(self.noise / q_values))
        source_term = np.log1p(self.p1 * self._subset_sums(self.lam / (self.noise + q_values)))
        return self.denom_log2 - (shrink + source_term) / _LN2

    @staticmethod
    def _subset_sums(per_relay: np.ndarray) -> np.ndarray:
        """Per nonempty subset in canonical order, the sum of its relays'
        terms. Built by doubling: the subsets holding relay i are those
        without it, each plus relay i's term, so row 2^i + k is row k plus
        that term. Every row is the left-to-right sum over its subset, so
        subsets with tied terms get bit-identical sums and the
        binding-constraint order keeps its canonical tie-break."""
        sums = np.zeros(1 << len(per_relay))
        for i, value in enumerate(per_relay):
            half = 1 << i
            sums[half : 2 * half] = sums[:half] + value
        return sums[1:]

    def feasible(self, q_values: np.ndarray) -> bool:
        return bool(np.all(self.margins_log2(q_values) >= 0.0))

    def constraint_margins(self, q: QuantizationVector) -> tuple[ConstraintMargin, ...]:
        """Every subset's binding instance with its margin at Q, in
        canonical subset order."""
        _require_cover(q, self.relays)
        margins = self.margins_log2(np.array(q.values))
        return tuple(
            ConstraintMargin(instance=inst, margin_log2=float(m))
            for inst, m in zip(self.instances, margins)
        )


def cf_feasible(
    net: NetworkSpec,
    q: QuantizationVector,
    quantifier: str = "forall",
    override_guard: bool = False,
) -> tuple[bool, tuple[ConstraintMargin, ...]]:
    """Whether Q satisfies the whole constraint family, with diagnostics.

    Diagnostics carry, per nonempty relay subset in canonical order, the
    binding (partition, assignment) and its log2 margin; feasibility is
    all margins >= 0. A network with no relays is trivially feasible.
    """
    margins = _ConstraintTable(net, quantifier, override_guard).constraint_margins(q)
    return all(m.margin_log2 >= 0.0 for m in margins), margins


def cf_rate(net: NetworkSpec, q: QuantizationVector) -> float:
    """Compress-forward end-to-end rate for quantization vector Q.

    The destination sees the source at thermal noise; each relay
    observation arrives with noise N_j + Q_j. Feasibility of Q is a
    separate question (cf_feasible); this is the rate the destination
    decodes at once the forwarded indices are absorbed.
    """
    relays = net.relay_ids
    _require_cover(q, relays)
    gains = np.sqrt(_gains(net, (1,), relays + (net.destination_id,)))
    noises = np.array(
        [net.noise_variance(j) + q.get(j) for j in relays]
        + [net.noise_variance(net.destination_id)]
    )
    return conditional_mi_bits(gains, np.array([net.transmit_power(1)]), noises)


def _frontier(feasible_at: Callable[[float], bool], start: float, rel_tol: float) -> float:
    """Smallest x (to rel_tol) with feasible_at(x), for a predicate that is
    monotone in x.

    Double up from ``start`` until feasible, halve down from there until
    infeasible, then bisect geometrically between the two. Raises
    Infeasible if doubling overflows: no finite x is feasible. Returns the
    doubling end when halving underflows to 0 (the frontier lies below
    the representable range).
    """
    hi = start
    while not feasible_at(hi):
        hi *= 2.0
        if math.isinf(hi):
            raise Infeasible("no finite quantization noise satisfies every constraint")
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


def _coordinate_step(
    table: _ConstraintTable, q_values: np.ndarray, k: int, rows: np.ndarray
) -> float:
    """Smallest feasible Q_k with every other Q fixed, or the current Q_k
    when that is no smaller.

    ``rows`` are the table rows of the subsets {k} + T, T running over the
    subsets of the other relays in canonical order. Row S's margin, with
    B_S = 1 + P1 sum_{i in S-k} lam_i/(N_i+Q_i) and
    m_S = ln2 denom_S - sum_{i in S-k} log1p(N_i/Q_i) - ln B_S, is
    nonnegative exactly when Q_k >= (N_k + P1 lam_k / B_S) / expm1(m_S),
    so the frontier is the largest of these bounds. At a feasible Q every
    exact m_S is positive; a row whose m_S rounds to <= 0 cannot resolve
    Q_k and gives no bound, and one whose expm1 overflows gives 0. The
    table has the last word: rounding can leave the bound a few ulps
    infeasible, so it is stepped up geometrically, never past the current
    Q_k, until ``table.feasible`` accepts it.
    """
    others = np.arange(len(q_values)) != k
    noise, q = table.noise[others], q_values[others]
    shrink = np.append(0.0, table._subset_sums(np.log1p(noise / q)))
    source = table.p1 * np.append(0.0, table._subset_sums(table.lam[others] / (noise + q)))
    m = _LN2 * table.denom_log2[rows] - shrink - np.log1p(source)
    with np.errstate(over="ignore"):  # m > ~709.78: the bound is 0
        grow = np.expm1(m)
    need = table.noise[k] + table.p1 * table.lam[k] / (1.0 + source)
    bound = np.divide(need, grow, out=np.zeros(len(m)), where=grow > 0.0).max()
    current = q_values[k]
    if not 0.0 < bound < current:
        return current
    trial = q_values.copy()
    candidate, step = bound, np.finfo(float).eps
    while candidate < current:
        trial[k] = candidate
        if table.feasible(trial):
            return candidate
        candidate, step = bound * (1.0 + step), 2.0 * step
    return current


def _coordinate_descent(
    table: _ConstraintTable, start: QuantizationVector, rel_tol: float
) -> QuantizationVector:
    """Cyclically move each Q_j to its exact per-coordinate frontier
    (``_coordinate_step``: a closed form, no search).

    Each move keeps every margin nonnegative and never raises any Q, so
    the rate is nondecreasing; stop when a full cycle improves it by no
    more than rel_tol bits, or after DESCENT_MAX_CYCLES cycles.
    """
    n = len(table.relays)
    # Row of {k} + T, for T given by its mask over the other relays: bits
    # below k stay, the rest move up one to make room for k.
    rest = np.arange(1 << (n - 1))
    rows = []
    for k in range(n):
        low = rest & ((1 << k) - 1)
        rows.append((low | ((rest ^ low) << 1) | (1 << k)) - 1)

    q_star = start
    q_values = np.array(start.values)
    rate = cf_rate(table.net, q_star)
    for _ in range(DESCENT_MAX_CYCLES):
        for k in range(n):
            q_values[k] = _coordinate_step(table, q_values, k, rows[k])
        q_star = QuantizationVector(entries=tuple(zip(table.relays, q_values)))
        new_rate = cf_rate(table.net, q_star)
        improved = new_rate - rate
        rate = new_rate
        if improved <= rel_tol:
            break
    return q_star


def _require_mode(mode: str) -> None:
    if mode not in _OPT_MODES:
        raise ValueError(f"mode must be one of {_OPT_MODES}, got {mode!r}")


def _optimize(table: _ConstraintTable, mode: str, tol: float) -> tuple[QuantizationVector, float]:
    """Best feasible quantization vector on one constraint table.

    Every margin rises strictly toward its denominator as Q grows, so a
    feasible Q exists exactly when every denom_log2 is positive. The
    uniform search starts at the largest receiver noise.
    """
    net, relays = table.net, table.relays
    if not relays:
        empty = QuantizationVector(entries=())
        return empty, cf_rate(net, empty)
    blocked = np.flatnonzero(~(table.denom_log2 > 0.0))
    if blocked.size:
        raise Infeasible(
            f"relay subset {table.instance(blocked[0]).s} cannot forward at any finite "
            "quantization noise: its relays deliver no power to the receivers that must "
            "decode them"
        )
    start = max(net.noise_variance(j) for j in relays + (net.destination_id,))
    q_uni = _frontier(lambda x: table.feasible(np.full(len(relays), x)), start, tol)
    q_star = QuantizationVector.uniform(q_uni, relays)
    if mode == "coordinate_descent":
        q_star = _coordinate_descent(table, q_star, tol)
    return q_star, cf_rate(net, q_star)


def optimize_quantization(
    net: NetworkSpec,
    mode: str = "uniform_bisection",
    quantifier: str = "forall",
    tol: float = BISECT_REL_TOL,
    override_guard: bool = False,
) -> tuple[QuantizationVector, float]:
    """Best feasible quantization vector and its rate.

    Rate falls as any Q_j grows, so the optimum sits on the feasibility
    frontier. ``uniform_bisection`` ties all Q_j to one scalar and bisects
    it to relative tolerance ``tol``; ``coordinate_descent`` then moves
    each coordinate in turn to its exact frontier (a closed form, no
    bisection), which helps asymmetric networks and provably never hurts,
    and stops once a cycle gains no more than ``tol`` bits. Raises
    Infeasible when no quantization works (e.g. powerless relays).
    """
    _require_mode(mode)
    return _optimize(_ConstraintTable(net, quantifier, override_guard), mode, tol)


def build_rate_report(
    net: NetworkSpec,
    mode: str = "uniform_bisection",
    quantifier: str = "forall",
    tol: float = BISECT_REL_TOL,
    top_k: int = 5,
    override_guard: bool = False,
) -> RateReport:
    """Full analysis: bound, optimized rate, and the tightest constraints,
    from one constraint table and one cut table."""
    _require_mode(mode)
    table = _ConstraintTable(net, quantifier, override_guard)
    q_star, rate = _optimize(table, mode, tol)
    rates = _cut_rates(net, override_guard)
    bound = float(rates[0])  # the source cut
    mc_bits, mc = _min_cut(net, rates)
    margins = table.margins_log2(np.array(q_star.values))
    tightest = np.argsort(margins, kind="stable")[: max(top_k, 0)]
    binding = tuple(ConstraintMargin(table.instance(k), float(margins[k])) for k in tightest)
    return RateReport(
        upper_bound_bits=bound,
        cf_rate_bits=rate,
        q_star=q_star,
        gap_bits=bound - rate,
        binding_constraints=binding,
        min_cut=mc,
        min_cut_bits=mc_bits,
        quantifier=quantifier,
    )


def convergence_sweep(
    net: NetworkSpec,
    gammas: list[float] | tuple[float, ...],
    quantifier: str = "forall",
    tol: float = BISECT_REL_TOL,
    override_guard: bool = False,
) -> tuple[SweepRow, ...]:
    """Bound-vs-rate table as relay power is scaled by each gamma.

    The upper bound never involves relay power, so the column is constant;
    the optimized rate climbs toward it. Quantization is optimized in
    uniform mode so the q column is a single scalar per row. Infeasible
    rows are reported, not fatal.
    """
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
                scaled(net, g), "uniform_bisection", quantifier, tol, override_guard
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
