"""Cut-set bounds, compress-forward rates, and quantization optimization.

Upper bounds come from cut rates evaluated under independent Gaussian
inputs; the source (broadcast) cut is the capacity upper bound for this
network class, and non-source cuts are reported as estimates under that
particular input law. The cut table evaluates all 2^(T-2) cuts together:
it whitens the network once and, grouped by how many relays sit on the
transmitter side, passes each group's channel blocks as one stack to
``gaussian``'s rate function, the one that ``cut_rate`` calls.

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
denominators, with the determinant in its rank-one closed form; the
determinant-lemma suite checks that form against ``gaussian``'s
factorized one, which ``quantized_covariance_det`` calls too.

Rate is strictly decreasing in every Q_j and feasibility margins are
strictly increasing, so the best admissible Q sits on the feasibility
frontier. With all Q_j equal, one monotone search (double up, halve
down, bisect) finds it. The search is a generator that yields each point
to test and receives the answer. One function, ``_uniform_optima``,
decides every uniform optimum: given any list of tables it returns each
one's Q or the Infeasible that explains why there is none. Margins rise
toward the subset's denominator as Q grows, so a table is infeasible
exactly when some denominator is not positive; a relay-free table gets
the empty Q; every other table is searched, all those of one relay
count in lockstep. A single analysis passes one table, a sweep one per
gamma row, and ``verify`` one per random network. Each pass is one margin
evaluation that answers every search: on a single table's own arrays, or
on all the tables, stacked in columns once per run, bit for bit the
per-table answers. Coordinate descent then cycles from that uniform
solution and moves each Q_j straight to its own frontier: with the other
entries fixed, each subset's margin is nonnegative exactly above a
closed-form threshold, so no search is needed. A rate report evaluates every cut
once: the bound is the source cut, the first row of that table. A sweep
over the relay power multiplier shows the gap between the two sides
collapsing as relay power grows.

All rates are bits per channel use. Every analysis reads its network
through ``_channel``, from a view that ``topology.validate`` checks once
per network; a network that fails raises one ValueError listing its
problems. Everything here is pure given an immutable NetworkSpec, and
diagnostics come in canonical enumeration order, so output is deterministic.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Generator
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
    VerificationFailure,
)
from .gaussian import _rank_one_log2_dets, _whitened, _whitened_mi_bits, conditional_mi_bits
from .topology import NetworkSpec, _node_id, scaled

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
        side = frozenset(map(_node_id, self.tx_side))
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
        cleaned = tuple(sorted((_node_id(i), float(v)) for i, v in self.entries))
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


def _channel(net: NetworkSpec, tx: tuple[int, ...], rx: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """Power gains lambda_ij (receivers j by rows, transmitters i by
    columns), the tx powers and the rx noises, sliced from the network's
    validated ``_arrays``. An entry with i == j is no channel: it is 0."""
    gains, powers, noises = net._arrays
    t, r = np.array(tx, dtype=int) - 1, np.array(rx, dtype=int) - 1
    return gains[t[:, None], r].T, powers[t], noises[r]


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
    gains, powers, noises = _channel(net, cut.sorted_ids(), tuple(sorted(all_ids - cut.tx_side)))
    return conditional_mi_bits(np.sqrt(gains), powers, noises)


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
    such group is one stack for ``gaussian._whitened_mi_bits``, the
    function ``cut_rate`` applies to its one channel. The groups run by
    relay count, and the first group holding a cut that is not positive
    definite raises the kernel's error.
    """
    _check_guard(net, override_guard)
    relays = net.relay_ids
    tx = (1,) + relays
    rx = tuple(range(2, net.num_nodes + 1))
    gains, powers, noises = _channel(net, tx, rx)
    a = _whitened(np.sqrt(gains), powers, noises)
    count = 1 << len(relays)
    inside = (np.arange(count)[:, None] >> np.arange(len(relays)) & 1).astype(bool)
    tx_keep = np.ones((count, len(tx)), dtype=bool)
    tx_keep[:, 1:] = inside
    rx_keep = np.ones((count, len(rx)), dtype=bool)
    rx_keep[:, np.array(relays, dtype=int) - 2] = ~inside

    rates = np.empty(count)
    sizes = inside.sum(axis=1)
    for s in range(len(relays) + 1):
        cuts = np.flatnonzero(sizes == s)
        tx_idx = np.nonzero(tx_keep[cuts])[1].reshape(len(cuts), 1 + s)
        rx_idx = np.nonzero(rx_keep[cuts])[1].reshape(len(cuts), len(rx) - s)
        rates[cuts] = _whitened_mi_bits(a[rx_idx[:, :, None], tx_idx[:, None, :]])
    return rates


def cut_rate_table(
    net: NetworkSpec, override_guard: bool = False
) -> tuple[tuple[CutSpec, float], ...]:
    """Rates for every valid cut, in canonical subset order of the relay
    side (source-only cut first).

    The cuts are grouped by the number of relays on their transmitter
    side, and each group's rates come from one stacked call of the rate
    function ``cut_rate`` applies to each cut (``_cut_rates``), so every
    row equals ``cut_rate`` of its cut exactly.
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
    constraint table's block sums do."""
    gains, powers, (noise,) = _channel(net, (1,) + tuple(block), (r,))
    (source_gain, *gains), (p1, *powers) = gains[0].tolist(), powers.tolist()
    total = 0.0
    for gain, power in zip(gains, powers):
        total += gain * power
    return total / (source_gain * p1 + float(noise))


def block_decode_rate(net: NetworkSpec, block: Block | tuple[int, ...], r: int) -> float:
    """Rate at which receiver r can absorb the forwarded indices of one
    block, treating the source signal as interference:
    1/2 log2(1 + sum_{i in block} lambda_ir P_i / (lambda_1r P1 + N_r)).

    An empty block carries nothing and yields 0 bits.
    """
    block = tuple(map(_node_id, block))
    if not 2 <= _node_id(r) <= net.num_nodes:
        raise InvalidReceiver(f"receiver {r} must be a relay or the destination")
    if r in block:
        raise InvalidReceiver(f"receiver {r} lies inside its own block {block}")
    if len(set(block)) != len(block) or not set(block) <= set(net.relay_ids):
        raise ValueError(f"block {block} must hold relays only, each once")
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
    s = tuple(map(_node_id, s))
    if not s:
        raise ValueError("subset must be nonempty")
    if len(set(s)) != len(s) or not set(s) <= set(net.relay_ids):
        raise ValueError(f"subset {s} must hold relays only, each once")
    q_values = np.array([q.get(i) for i in s])
    gains, p1, noise = _channel(net, (1,), s)
    return 2.0 ** float(_rank_one_log2_dets(gains.T, (noise + q_values)[None], p1)[0])


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
        gains, powers, noise = _channel(net, (1,) + relays, relays + (net.destination_id,))
        self.p1 = float(powers[0])
        sums = np.zeros((full + 1, n + 1))
        with np.errstate(over="ignore"):  # inf, silently, as Python floats give
            # lambda_ir P_i for the source (column 0) and every relay.
            signal = gains * powers
            for b, term in zip(bit, signal[:, 1:].T):
                np.add(sums[:: 2 * b], term, out=sums[b :: 2 * b])
        floors = (signal[:, 0] + noise).tolist()
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
        return _margins_log2(self.denom_log2, self.noise, self.lam, self.p1, q_values)

    @staticmethod
    def _subset_sums(per_relay: np.ndarray) -> np.ndarray:
        """Per nonempty subset in canonical order, the sum of its relays'
        terms, along axis 0: entry i (a number, or a row with one term per
        column) is relay i's. Built by doubling: the subsets holding relay
        i are those without it, each plus relay i's term, so row 2^i + k is
        row k plus that term. Every row is the left-to-right sum over its
        subset, so subsets with tied terms get bit-identical sums and the
        binding-constraint order keeps its canonical tie-break; each column
        of a stacked input gets the sums of that column alone."""
        sums = np.zeros((1 << len(per_relay),) + per_relay.shape[1:])
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
        with np.errstate(over="ignore"):  # N + Q -> inf, as in _uniform_optima
            margins = self.margins_log2(np.array(q.values))
        return tuple(
            ConstraintMargin(instance=inst, margin_log2=float(m))
            for inst, m in zip(self.instances, margins)
        )


def _margins_log2(
    denom_log2: np.ndarray,
    noise: np.ndarray,
    lam: np.ndarray,
    p1: float | np.ndarray,
    q_values: np.ndarray,
) -> np.ndarray:
    """Every subset's margin, along axis 0, for one table or for K tables
    stacked in columns.

    One table: ``denom_log2`` per subset, ``noise``, ``lam`` and
    ``q_values`` per relay, ``p1`` a number. K tables: ``denom_log2`` is
    (2^R - 1, K), ``noise`` and ``lam`` are (R, K), and ``p1`` and
    ``q_values`` are (K,), table k's source power and uniform Q. Every
    operation is elementwise, so column k is bit for bit table k's own
    margins at its Q.
    """
    # log2(prod Q) - log2(det) + denom, rewritten through the rank-one
    # determinant identity as -sum log1p(N/Q) - log1p(P1 sum lam/(N+Q))
    # + denom. Differencing the raw log-dets loses the N/Q term once Q
    # is ~1e16 N (it falls under the ulp), which would misread the
    # powerless-relay constraint Q >= Q + c as satisfiable; the log1p
    # form is exact there. The factorized determinant itself is checked
    # against this identity by the determinant-lemma suite.
    subset_sums = _ConstraintTable._subset_sums
    shrink = subset_sums(np.log1p(noise / q_values))
    source_term = np.log1p(p1 * subset_sums(lam / (noise + q_values)))
    return denom_log2 - (shrink + source_term) / _LN2


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
    gains, powers, noises = _channel(net, (1,), relays + (net.destination_id,))
    # Python floats: an N + Q that overflows is inf, without a warning; that
    # relay hears nothing of the source, so dropping it is the exact limit.
    total = [n + x for n, x in zip(noises.tolist(), (*q.values, 0.0))]
    if math.inf in total:
        gains, total = gains[np.isfinite(total)], [x for x in total if x < math.inf]
    return conditional_mi_bits(np.sqrt(gains), powers, total)


def _frontier(start: float, rel_tol: float) -> Generator[float, bool, float | None]:
    """The uniform search: the smallest x (to rel_tol) at which a monotone
    feasibility predicate holds, as a generator that yields each point to
    test and is sent whether the predicate holds there.

    Double up from ``start`` until feasible, halve down from there until
    infeasible, then bisect geometrically between the two. Doubling stops
    at the largest double; returns None if that is infeasible too: no
    finite x is feasible. Returns the doubling end when halving underflows
    to 0 (the frontier lies below the representable range).
    ``_uniform_optima`` is its one driver.
    """
    if not 0.0 < rel_tol < math.inf:
        raise ValueError(f"tol must be finite and > 0, got {rel_tol!r}")
    hi = start
    while not (yield hi):
        if hi == sys.float_info.max:
            return None
        hi = min(2.0 * hi, sys.float_info.max)
    lo = hi
    while (yield lo):
        lo *= 0.5
        if lo == 0.0:
            return hi
    while hi - lo > rel_tol * hi:
        mid = math.sqrt(lo) * math.sqrt(hi)  # geometric, overflow-safe
        if mid <= lo or mid >= hi:  # no representable point left between
            break
        if (yield mid):
            hi = mid
        else:
            lo = mid
    return hi


def _search_start(table: _ConstraintTable) -> float:
    """Where the uniform search starts: the largest receiver noise."""
    return max(_channel(table.net, (), table.relays + (table.net.destination_id,))[2].tolist())


def _uniform_optima(
    tables: list[_ConstraintTable], rel_tol: float
) -> list[QuantizationVector | Infeasible]:
    """Each table's best uniform Q, or the Infeasible that says why it has
    none, for any tables: mixed relay counts, blocked and relay-free ones.

    Every margin rises strictly toward its denominator as Q grows, so a
    table with some denom_log2 <= 0 is infeasible without a search, and a
    relay-free table gets the empty Q. The others search by relay count,
    one lockstep run each, and each pass is one ``_margins_log2`` call that
    answers every search's current query. The arrays are set up once per
    run: a single table passes its own 1-D arrays, and K tables are stacked
    in K columns, bit for bit the answers of each table alone. A search
    that ends keeps its column and its last point; its answer is ignored
    from then on.
    """
    optima: list[QuantizationVector | Infeasible] = [QuantizationVector(entries=())] * len(tables)
    runs: dict[int, list[int]] = {}
    for k, table in enumerate(tables):
        blocked = np.flatnonzero(~(table.denom_log2 > 0.0))
        if blocked.size:
            optima[k] = Infeasible(
                f"relay subset {table.instance(blocked[0]).s} cannot forward at any finite "
                "quantization noise: its relays deliver no power to the receivers that must "
                "decode them"
            )
        elif table.relays:
            runs.setdefault(len(table.relays), []).append(k)
    # N + Q -> inf near the largest double: a relay that hears nothing of
    # the source, the exact limit. Silenced once per run, not per pass.
    with np.errstate(over="ignore"):
        for members in runs.values():
            run = [tables[k] for k in members]
            if len(run) == 1:
                arrays = run[0].denom_log2, run[0].noise, run[0].lam, run[0].p1
            else:
                arrays = tuple(
                    np.stack([getattr(t, name) for t in run], axis=-1)
                    for name in ("denom_log2", "noise", "lam", "p1")
                )
            searches = [_frontier(_search_start(t), rel_tol) for t in run]
            points = [next(search) for search in searches]
            active = range(len(run))
            while active:
                margins = _margins_log2(*arrays, np.array(points))
                answers = np.all(margins >= 0.0, axis=0).reshape(-1).tolist()
                running = []
                for i in active:
                    try:
                        points[i] = searches[i].send(answers[i])
                    except StopIteration as stop:  # the search's end: its result
                        optima[members[i]] = (
                            Infeasible("no finite quantization noise satisfies every constraint")
                            if stop.value is None
                            else QuantizationVector.uniform(stop.value, run[i].relays)
                        )
                    else:
                        running.append(i)
                active = running
    return optima


def _coordinate_step(
    table: _ConstraintTable, q_values: np.ndarray, k: int, rows: np.ndarray
) -> float:
    """Smallest feasible Q_k with every other Q fixed, or the current Q_k
    when that is no smaller.

    ``rows`` is a boolean mask of the table rows of the subsets {k} + T;
    in row order T runs over the subsets of the other relays in canonical
    order, as the subset sums below do. Row S's margin, with
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
    # Relay k's rows, the subsets holding it: row i is canonical mask i + 1.
    masks = np.arange(1, 1 << n)
    rows = [(masks >> k & 1).astype(bool) for k in range(n)]

    q_star = start
    q_values = np.array(start.values)
    rate = cf_rate(table.net, q_star)
    for _ in range(DESCENT_MAX_CYCLES):
        with np.errstate(over="ignore"):  # N + Q -> inf, as in _uniform_optima
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
    """Best feasible quantization vector on one constraint table: its
    ``_uniform_optima`` entry, raised if it is an Infeasible, then the
    descent from it when asked for and there is a Q to descend."""
    (q_star,) = _uniform_optima([table], tol)
    if isinstance(q_star, Infeasible):
        raise q_star
    if mode == "coordinate_descent" and q_star.entries:
        q_star = _coordinate_descent(table, q_star, tol)
    return q_star, cf_rate(table.net, q_star)


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
    Infeasible when no quantization works (e.g. powerless relays), and
    ValueError once a search starts with a tol that is not finite and > 0.
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
    if top_k < 0:
        raise ValueError(f"top_k must be >= 0, got {top_k}")
    table = _ConstraintTable(net, quantifier, override_guard)
    q_star, rate = _optimize(table, mode, tol)
    rates = _cut_rates(net, override_guard)
    bound = float(rates[0])  # the source cut
    mc_bits, mc = _min_cut(net, rates)
    with np.errstate(over="ignore"):  # N + Q -> inf, as in _uniform_optima
        margins = table.margins_log2(np.array(q_star.values))
    tightest = np.argsort(margins, kind="stable")[:top_k]
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
    uniform mode so the q column is a single scalar per row.

    Every row's constraint table is built first. Then one
    ``_uniform_optima`` call searches every row at once, with one stacked
    margin pass per step; each row gets the q and rate that
    ``optimize_quantization`` gives on its own. A row is infeasible
    exactly when its entry is an Infeasible; it is reported, not fatal,
    and never stops the other rows. An error from building any row's
    table is raised before any row is searched.
    """
    gammas = [float(g) for g in gammas]
    if not gammas:
        raise InvalidScale("gamma list is empty")
    if any(b < a for a, b in zip(gammas, gammas[1:])):
        raise InvalidScale(f"gammas must be sorted ascending, got {gammas}")
    if any(not g >= 1.0 for g in gammas):
        raise InvalidScale(f"every gamma must be >= 1, got {gammas}")

    bound = source_cut_bound(net)
    tables = [_ConstraintTable(scaled(net, g), quantifier, override_guard) for g in gammas]
    rows: list[SweepRow] = []
    for g, table, q_star in zip(gammas, tables, _uniform_optima(tables, tol)):
        if isinstance(q_star, Infeasible):
            feasible, rate, q_uni = False, math.nan, math.nan
        else:
            rate = cf_rate(table.net, q_star)
            feasible, q_uni = True, max(q_star.values, default=math.nan)
        gap = bound - rate
        if feasible and not gap >= -RATE_TOL_BITS:
            raise VerificationFailure(
                f"rate {rate!r} exceeds bound {bound!r} at gamma={g!r}"
            )
        rows.append(SweepRow(g, bound, rate, gap, q_uni, feasible))
    return tuple(rows)
