"""Cut-set bounds, compress-forward rates, and quantization optimization.

Upper bounds come from cut rates evaluated under independent Gaussian
inputs; the source (broadcast) cut is the capacity upper bound for this
network class, and non-source cuts are reported as estimates under that
particular input law. The cut table evaluates all 2^(T-2) cuts together:
it whitens the network once, and every cut is a leaf of one binary tree
of stacked Schur complements (``gaussian._cut_tree_log2_dets``), one
level per relay; ``cut_rate`` follows that tree's one branch to its cut.
The source cut and the all-relay cut keep their one-column closed form.
A cut whose pivot rounds away raises NotPositiveDefinite, naming it.

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
(``_ConstraintTable`` states the recurrence and its tie-break), run in
numpy one popcount layer at a time; every block's factor comes from one
array of block sums, with one log per block. ``_constraint_tables``
builds any number of tables, one stacked pass per relay count (a
sweep's rows, ``verify``'s networks; a lone table is a stack of one).
Under `exists`, a network whose relays each reach some receiver
at an snr of at least 2^-10, with no block sum overflowing, needs no DP:
there, splitting a block raises the total by a proven margin, so each
subset's extreme is the sum of its relays' own best factors. The table
keeps the DP's choices, not the attaining (partition, assignment)
instances: it builds a subset's instance only when a caller reads it (a
rate report's binding rows, an infeasibility message, ``cf_feasible``'s
diagnostics).
Every feasibility query is one vectorized margin evaluation on the
denominators, with the determinant in its rank-one closed form; the
determinant-lemma suite checks that form against ``gaussian``'s
factorized one, which ``quantized_covariance_det`` calls too.

Rate is strictly decreasing in every Q_j and feasibility margins are
strictly increasing, so the best admissible Q sits on the feasibility
frontier. With every Q_j = x, each subset's margin is concave and
increasing in u = ln x (a constant minus sum_k ln(1 + a_k e^-u), the a_k
the eigenvalues of the quantized covariance at Q = 0), and so is their
minimum: Newton steps in u never pass the frontier from the left, and a
walk over the last ulps ends where the table turns from rejecting to
accepting. The answer is exact, with no tolerance. ``_uniform_optima``
decides every uniform optimum, for one table or many (a sweep's rows,
``verify``'s networks), with one stacked margin pass per step.
Coordinate descent then cycles from that uniform solution and moves each
Q_j straight to its own frontier: with the other entries fixed, each
subset's margin is nonnegative exactly above a closed-form threshold, so
no search is needed. A rate report evaluates every cut once: the bound
is the source cut, the first row of that table. A sweep over the relay
power multiplier shows the gap between the two sides collapsing as relay
power grows.

All rates are bits per channel use. A NetworkSpec is the public input
only: each entry point reads its validated (gains, powers, noises)
arrays, ``NetworkSpec._arrays``, which ``topology.validate`` checks once
per network (a network that fails raises one ValueError listing its
problems), and everything past that read, the sweep's rows included,
takes the arrays. Everything here is pure given an immutable
NetworkSpec, and diagnostics come in canonical enumeration order, so
output is deterministic.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property

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
from .gaussian import (
    PD_EPSILON,
    _cut_tree_log2_dets,
    _rank_one_log2_dets,
    _whitened,
    _whitened_mi_bits,
    conditional_mi_bits,  # perfbench/spans.py traces bounds.conditional_mi_bits
)
from .partition_dp import _Layout, _dp_layout, _partition_dp, _subset_sums
from .topology import NetworkSpec, _node_id, _scaled_power

_LN2 = math.log(2.0)

#: Networks with more nodes than this are refused (GuardExceeded, CLI exit
#: code 3) unless the caller overrides. The limit is part of the CLI
#: contract, not a cost ceiling: the O(3^R) constraint table and the
#: 2^(T-2)-row cut table both stay cheap past it.
GUARD_MAX_NODES = 10

#: Bit-domain tolerance for rate comparisons (achievability vs bound).
RATE_TOL_BITS = 1e-9

#: Coordinate descent stops after this many full cycles even if the last
#: one still moved a coordinate. It stops at its fixed point long before.
DESCENT_MAX_CYCLES = 64

_QUANTIFIERS = ("forall", "exists")
_OPT_MODES = ("uniform", "coordinate")


def _require_quantifier(quantifier: str) -> None:
    if quantifier not in _QUANTIFIERS:
        raise ValueError(f"quantifier must be one of {_QUANTIFIERS}, got {quantifier!r}")


def _require_cover(q: QuantizationVector, relays: tuple[int, ...]) -> None:
    if q.ids != relays:
        raise ValueError(f"quantization vector covers relays {q.ids}, network has {relays}")


def _check_guard(num_nodes: int, override_guard: bool) -> None:
    if num_nodes > GUARD_MAX_NODES and not override_guard:
        raise GuardExceeded(
            f"network has {num_nodes} nodes, above the size guard of "
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
    their columns simply do not appear. The rate is the cut table's row
    for this cut, bit for bit: ``_cut_rates`` runs the same tree on the
    one branch to this cut (or the same closed form on the source and
    all-relay cuts).
    """
    all_ids = set(range(1, net.num_nodes + 1))
    if not cut.tx_side <= all_ids:
        raise ValueError(
            f"cut names nodes {sorted(cut.tx_side - all_ids)} outside the network"
        )
    if net.destination_id in cut.tx_side:
        raise ValueError("cut transmitter side must exclude the destination")
    sides = tuple(r in cut.tx_side for r in net.relay_ids)
    return float(_cut_rates(net, override_guard=True, sides=sides)[0])


def source_cut_bound(net: NetworkSpec) -> float:
    """The capacity upper bound: the rate across the broadcast cut {source}.

    Independent Gaussian inputs attain the true maximum for this cut, so
    unlike other cuts this value needs no input-law caveat.
    """
    return cut_rate(net, CutSpec(tx_side=frozenset({1})))


def _cut_rates(
    net: NetworkSpec, override_guard: bool, sides: tuple[bool, ...] | None = None
) -> np.ndarray:
    """Every cut's rate in canonical order: bit i of a cut's index puts
    the i-th sorted relay on its transmitter side. ``sides`` (one bool per
    sorted relay, True on the transmitter side) asks for that one cut
    only, as a one-row array.

    The network is whitened once, receivers (nodes 2..T) by transmitters
    (the source and the relays), and every cut comes from
    ``gaussian._cut_tree_log2_dets``: one binary tree of stacked rank-one
    Schur updates, whose leaves are the cuts. The two rank-one cuts, the
    source cut and the all-relay cut, keep their one-column closed form
    through ``gaussian._whitened_mi_bits`` instead (the source cut is then
    ``_cf_rates`` at Q = 0 bit for bit). Every exact pivot of the tree is
    at least 1, so a computed pivot that is NaN or at most ``PD_EPSILON``
    is rounding past double precision: the first such cut in canonical
    order raises NotPositiveDefinite, naming that cut, and ``cut_rate`` of
    that cut raises the same error.
    """
    _check_guard(net.num_nodes, override_guard)
    relays = net.relay_ids
    gains, powers, noises = _channel(net, (1,) + relays, tuple(range(2, net.num_nodes + 1)))
    a = _whitened(np.sqrt(gains), powers, noises)
    if sides is not None and (all(sides) or not any(sides)):
        return _rank_one_rate(a, any(sides))
    log2_dets, worst = _cut_tree_log2_dets(a, sides)
    rates = 0.5 * log2_dets
    if sides is None:
        rates[-1], rates[0] = _rank_one_rate(a, True)[0], _rank_one_rate(a, False)[0]
        worst[[0, -1]] = math.inf
    failed = ~(worst > PD_EPSILON)
    if failed.any():
        index = int(np.argmax(failed))  # the first True
        if sides is None:
            sides = tuple(bool(index >> i & 1) for i in range(len(relays)))
        ids = (1,) + tuple(r for r, tx in zip(relays, sides) if tx)
        raise NotPositiveDefinite(
            f"cut {{{','.join(map(str, ids))}}}: pivot {worst[index]:.6e} "
            f"is <= epsilon {PD_EPSILON:g}"
        )
    return rates


def _rank_one_rate(a: np.ndarray, all_relays: bool) -> np.ndarray:
    """The source cut's rate (the whitened matrix's first column) or the
    all-relay cut's (its last row, the destination), as a one-row array:
    the closed form of ``gaussian._whitened_mi_bits`` on a C-ordered
    copy, as the cut table has always given it."""
    end = a[-1:] if all_relays else a[:, :1]
    return _whitened_mi_bits(np.ascontiguousarray(end)[None])


def cut_rate_table(
    net: NetworkSpec, override_guard: bool = False
) -> tuple[tuple[CutSpec, float], ...]:
    """Rates for every valid cut, in canonical subset order of the relay
    side (source-only cut first).

    The rates come from one Schur-complement tree over the relays
    (``_cut_rates``), and ``cut_rate`` follows the same tree's one branch
    to its cut, so every row equals ``cut_rate`` of its cut exactly.
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


#: Relative width of the window of ratios around a block's extreme whose
#: receivers can tie with it once the log is taken (``_extreme_blocks``).
_TIE_WINDOW = 2.0**-30

#: The window's edge moves out by this too, so that it holds every ratio
#: below 2^-1000, where a block value may be subnormal, with an absolute
#: error.
_TINY_RATIO = 2.0**-1000

#: The exists table is a sum of singletons, with no DP, only when every
#: relay's best ratio is at least this (``_ConstraintTable``).
_SINGLETON_MIN_RATIO = 2.0**-10


def _extreme_blocks(
    ratios: np.ndarray, ineligible: np.ndarray, forall: bool
) -> tuple[list[int], np.ndarray, np.ndarray]:
    """Each block's receiver column and value log2(1 + ratio): the extreme
    over its eligible receivers, the smallest column on equal values.
    ``ratios`` holds K tables' blocks, (K, blocks, receivers), with the
    blocks in the rows of ``ineligible``; it is overwritten. Also returns
    each block's extreme ratio. Each result runs over every table's
    blocks, table by table.

    The pick is made on the ratios, and only then the log is taken, once
    per block: log2(1 + x) rises with x, and two ratios that lie far
    apart keep their order once the logs are rounded (see
    ``_ConstraintTable``). Only a row with another ratio inside the window
    around its extreme, an exact tie included, takes each of those
    receivers' logs and picks among them as a scan of every receiver
    would; a row with a NaN ratio takes every receiver's.
    """
    np.copyto(ratios, np.inf if forall else -np.inf, where=ineligible)
    width = ratios.shape[-1]
    ratios = ratios.reshape(-1, width)
    pick = ratios.argmin(axis=1) if forall else ratios.argmax(axis=1)
    ext = ratios.ravel().take(pick + np.arange(0, ratios.size, width))
    # Outside the window: a ratio past its edge. A NaN compares false, so
    # a row with a NaN ratio (an inf sum over an inf floor) counts none.
    if forall:
        edge = ext * (1.0 + _TIE_WINDOW)
        edge += _TINY_RATIO
        far = ratios > edge[:, None]
    else:
        edge = ext * (1.0 - _TIE_WINDOW)
        edge -= _TINY_RATIO
        far = ratios < edge[:, None]
    cols = pick.tolist()
    # math.log1p, not np.log1p, whose last bit differs on some inputs.
    values = np.fromiter(map(math.log1p, ext.tolist()), float, len(ext)) / _LN2
    # A row needs its receivers' own logs unless every ratio but its
    # extreme lies outside the window.
    if np.count_nonzero(far) == (width - 1) * len(cols):
        return cols, values, ext
    extreme = min if forall else max
    for k in (far.sum(axis=1) != width - 1).nonzero()[0].tolist():
        row, outside = ratios[k].tolist(), far[k].tolist()
        eligible = np.flatnonzero(~ineligible[k % len(ineligible)]).tolist()
        logs = {j: math.log1p(row[j]) / _LN2 for j in eligible if not outside[j]}
        # min and max keep the first of equal values: the smallest id.
        cols[k] = extreme(logs, key=logs.__getitem__)
        values[k] = logs[cols[k]]
    return cols, values, ext


class _ConstraintTable:
    """The whole constraint family of one analysis, reduced to arrays.

    Row k stands for the k-th nonempty relay subset S in canonical order
    (relay mask k + 1, bit i selecting the i-th sorted relay); every
    array of the table and of its DP (``partition_dp``) indexes relay
    subsets by this mask.
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

    Every block's sums at every receiver form one (2^R, R + 1) array, and
    dividing it by the receivers' floors gives every block snr (IEEE
    division, the same bits as a Python float's). v(B) is the extreme of
    log2(1 + snr) over B's eligible receivers. Equal totals go to the
    first block in restricted-growth order: at the smallest relay where
    two candidate blocks differ, the block containing it wins. Equal
    receivers go to the smallest id. ``denom_log2`` is the left-to-right
    sum of the chosen blocks' values.

    The DP runs by popcount layer (``partition_dp``): every S of k relays
    depends only on smaller sets, so a layer is one gather of
    v(B) + f(S minus B) over each S's 2^(k-1) candidates, laid out as a
    scan of S would meet them, in restricted-growth order: S itself first,
    then S's smallest relay with each submask of the rest, of any two the
    one holding the smallest relay at which they differ first. A strict-<
    scan keeps the first of equal totals, and so does ``argmin``, which
    returns the first minimum. A NaN candidate fails every < comparison,
    so the scan skips it, unless it comes first, where it sticks: it stays
    the best, and its total is f(S). So the layer reads every NaN after
    the first candidate as +inf (never a strict improvement) and leaves
    the first alone, which ``argmin``, returning the first NaN, then
    picks; a NaN total can only come from a NaN value or from inf - inf.
    Each row's ``denom_log2`` then follows its first blocks, adding their
    values left to right, in at most R vectorized steps. Tables of one
    relay count stack in rows and every operation acts on each row alone:
    a table's arrays are bit for bit the same whatever it is built with
    (``_constraint_tables``, which a lone table calls as a stack of one).

    One log per block. The receiver is picked on the snr, and log2(1 + x)
    = math.log1p(x) / ln 2 is taken once, for the picked one. The log
    rises with x, so only rounding can make another receiver tie with the
    picked one, or beat it. Rounded log1p and the division each err by an
    ulp or so, a relative 2^-50 of the value at most, so two computed
    values keep their order when the exact ones differ by more than 2^-49
    of the larger. Two ratios x < y with y > x (1 + w) have exact values
    apart by more than log2(1 + w x / (1 + x)), which exceeds
    2^-49 log2(1 + y) for every double once w > 2^-39.5 (ln(1 + x)
    (1 + x) / x stays below 710). The window w = 2^-30 leaves a factor of
    700 to spare. Every ratio
    within the window of the extreme, or below 2^-1000 (where a value can
    be subnormal, with an absolute error), takes its own log, and the
    first of the extreme values wins, as a scan of every receiver's value
    would choose.

    exists needs no DP wherever every relay is strong. Write a_i for relay
    i's largest snr alone. The snr of a block at receiver r is at most the
    sum of its members' a_i, and log2(1 + x) is subadditive, so splitting
    any block into singletons, each at its own best receiver, never
    lowers a total: prod (1 + a_i) >= 1 + sum a_i. It raises it by at least
    log2(1 + a_i a_j / (1 + a_i + a_j)) for any two members i, j. With
    every a_i >= 2^-10 (``_SINGLETON_MIN_RATIO``, checked on the rounded
    ratios) that gap exceeds 1.3e-6 bits, while each DP total is within
    R^2 2^-42 bits of its exact value (every value is below 1024 bits, a
    sum or a log adds an ulp or so), far less for any R the DP can run.
    So the DP keeps every relay as its own block: each mask's first block
    is its lowest bit (its smallest relay), and each row is the left-to-right
    sum of its relays' values, which ``_subset_sums`` gives bit for bit.
    The proof needs every block value finite: an overflowed sum reads inf,
    and the DP then picks the merged block. Float sums of nonnegative terms
    rise with every term, so one left-to-right sum per receiver over every
    relay it may decode bounds each of its block sums; the singleton path
    is taken only where each of those, over its floor, is finite. A
    powerless relay or one too weak (a_i below the threshold) makes
    merged blocks tie or nearly tie with split ones, and there the DP
    runs, with its tie-break. So does every forall table.

    The table stores ``denom_log2``, each mask's first block and each
    block's receiver, nothing per row beyond that. ``instance(k)`` follows
    row k's blocks and builds its (partition, assignment) on demand;
    ``instances`` builds every row's, once, for the callers that report
    every subset.
    """

    def __init__(self, net: NetworkSpec, quantifier: str, override_guard: bool = False):
        # The quantifier, then the size guard, then the network's read (its
        # validation): a network past the guard is refused unread.
        _require_quantifier(quantifier)
        _check_guard(net.num_nodes, override_guard)
        (table,) = _constraint_tables([net._arrays], quantifier, override_guard)
        self.__dict__ = table.__dict__

    def instance(self, k: int) -> ConstraintInstance:
        """Row k's binding (partition, assignment): the DP's first blocks
        followed from the row's mask, each with its receiver."""
        relays = self.relays
        receivers = relays + (len(self.arrays[1]),)

        def members(mask: int) -> tuple[int, ...]:
            return tuple(r for i, r in enumerate(relays) if mask >> i & 1)

        m = int(k) + 1
        s = members(m)
        blocks, recv = [], []
        while m:
            b = int(self._first_block[m])
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

    def feasible(self, q_values: np.ndarray) -> bool:
        return bool(np.all(self.margins_log2(q_values) >= 0.0))

    def cf_rate(self, q_values) -> float:
        """The network's compress-forward rate at Q, given as values
        aligned with the sorted relays: ``cf_rate`` on the table's arrays."""
        return float(_cf_rates([self.arrays], [q_values])[0])

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


def _constraint_tables(
    networks: Iterable[tuple[np.ndarray, np.ndarray, np.ndarray]],
    quantifier: str,
    override_guard: bool = False,
) -> list[_ConstraintTable]:
    """Each network's constraint table, for any networks: mixed relay
    counts, relay-free ones. A network is its validated (gains, powers,
    noises) arrays, as ``NetworkSpec._arrays`` gives them, and its table
    keeps them. Each is taken from ``networks`` in turn and checked
    against the size guard, so the first past it raises before any table
    is built, and before a lazy ``networks`` makes the next one. Then the
    tables of each relay count are built in one stacked pass
    (``_fill_tables``), each bit for bit as it is alone: a lone table is a
    stack of one."""
    _require_quantifier(quantifier)
    tables: list[_ConstraintTable] = []
    for arrays in networks:
        gains, powers, noise = arrays
        _check_guard(len(powers), override_guard)
        table = object.__new__(_ConstraintTable)
        # The ids of a validated network run 1..T, so the relays are nodes
        # 2..T-1.
        table.arrays, table.relays = arrays, tuple(range(2, len(powers)))
        n = len(table.relays)
        table.p1, table.lam, table.noise = float(powers[0]), gains[0, 1 : n + 1], noise[1 : n + 1]
        tables.append(table)
    for members in _runs([len(table.relays) for table in tables]):
        run = [tables[k] for k in members]
        _fill_tables(run, len(run[0].relays), quantifier == "forall")
    return tables


def _runs(counts: list[int | None]) -> list[list[int]]:
    """The indices of equal counts, one run per count in order of first
    appearance, the items counted None left out: the stacks of equal
    relay (or receiver) count that the batched routines pass as one."""
    runs: dict[int, list[int]] = {}
    for k, n in enumerate(counts):
        if n is not None:
            runs.setdefault(n, []).append(k)
    return list(runs.values())


def _fill_tables(run: list[_ConstraintTable], n: int, forall: bool) -> None:
    """Give each table of ``run``, every one of n relays, its denominators,
    first blocks and receivers, from stacked arrays: the block sums of
    every table at once, one ``_extreme_blocks`` call over all their
    blocks, and one ``_partition_dp``. Under exists, the tables that the
    class docstring's guard admits are sums of singletons
    (``_sum_singletons``), and only the others run the DP."""
    layout = _dp_layout(n)
    arrays = [table.arrays for table in run]
    # Each network's _channel(net, (1,) + relays, relays + (T,)), stacked:
    # transmitters 1..T-1 by column, receivers 2..T by row.
    gains = np.array([g for g, _, _ in arrays])[:, :-1, 1:].transpose(0, 2, 1)
    powers = np.array([p for _, p, _ in arrays])[:, None, :-1]
    noise = np.array([x for _, _, x in arrays])[:, 1:]
    # inf and NaN, silently, as Python floats give.
    with np.errstate(over="ignore", invalid="ignore"):
        # lambda_ir P_i for the source (column 0) and every relay.
        signal = gains * powers
        floors = signal[..., 0] + noise
        if not forall:
            weak = _sum_singletons(run, layout, signal, floors)
            if not weak:
                return
            run, signal, floors = [run[k] for k in weak], signal[weak], floors[weak]
        # v(B) and its receiver for every block B, in _block_snr_sum's
        # arithmetic: every row of the subset sums, (2^n, tables,
        # receivers), is the left-to-right sum over its block. Row 0, the
        # empty block, sums to 0, and the layout leaves it the destination
        # alone: its value is log2(1) = 0.
        sums = _subset_sums(signal[..., 1:].transpose(2, 0, 1))
        np.divide(sums, floors, out=sums)
        cols, value, _ = _extreme_blocks(sums.transpose(1, 0, 2), layout.ineligible, forall)
        size = 1 << n
        denoms, first = _partition_dp(value.reshape(len(run), size), forall)
    for k, table in enumerate(run):
        table._receiver_column = cols[k * size : (k + 1) * size]
        table._first_block = first[k]
        table.denom_log2 = denoms[k]


def _sum_singletons(
    run: list[_ConstraintTable], layout: _Layout, signal: np.ndarray, floors: np.ndarray
) -> list[int]:
    """Build each exists table of ``run`` that the class docstring's guard
    proves is the DP's as a sum of singletons, from ``_fill_tables``'s
    stacked arrays; return the indices of the others."""
    k_tables, n = len(run), layout.member.shape[1]
    # Every relay's singleton block, relay i's in layout row 2^i: its
    # value, receiver and snr.
    singles = [1 << i for i in range(n)]
    relay_snr = signal[..., 1:].transpose(0, 2, 1) / floors[:, None]
    cols, value, best = _extreme_blocks(relay_snr, layout.ineligible[singles], False)
    # Each receiver's left-to-right sum over every relay, its own term
    # being 0: the sum over every relay it may decode.
    totals = np.add.accumulate(signal[..., 1:], axis=2)[..., -1:]
    strong = np.isfinite(totals / floors[..., None]).all(axis=(1, 2))
    strong &= (best.reshape(k_tables, n) >= _SINGLETON_MIN_RATIO).all(axis=1)  # NaN fails too
    denoms = _subset_sums(value.reshape(k_tables, n).T)[1:].T
    weak = []
    for k, (table, single) in enumerate(zip(run, strong.tolist())):
        if not single:
            weak.append(k)
            continue
        table._receiver_column = dict(zip(singles, cols[k * n : (k + 1) * n]))
        table._first_block = layout.tops
        table.denom_log2 = np.ascontiguousarray(denoms[k])
    return weak


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
    ``q_values`` are (K,), table k's source power and uniform Q (or Q
    per relay, (R, K), as ``_feasible`` gives it). Every
    operation is elementwise, so column k is bit for bit table k's own
    margins at its Q. A row whose denominator is inf (an overflowed block
    sum) holds at every Q, and reads inf at every Q, even where N/Q
    overflows too; a NaN denominator reads NaN. A cost that overflows (or
    reads NaN) counts as the largest double, so any other row reads far
    below 0 there, rejected.
    """
    # log2(prod Q) - log2(det) + denom, rewritten through the rank-one
    # determinant identity as -sum log1p(N/Q) - log1p(P1 sum lam/(N+Q))
    # + denom. Differencing the raw log-dets loses the N/Q term once Q
    # is ~1e16 N (it falls under the ulp), which would misread the
    # powerless-relay constraint Q >= Q + c as satisfiable; the log1p
    # form is exact there. The factorized determinant itself is checked
    # against this identity by the determinant-lemma suite.
    shrink = _subset_sums(np.log1p(noise / q_values))[1:]
    source_term = np.log1p(p1 * _subset_sums(lam / (noise + q_values))[1:])
    cost = (shrink + source_term) / _LN2
    # A cost past the largest double reads as that double, so an inf
    # denominator keeps its inf where inf - inf would read NaN.
    return denom_log2 - np.fmin(cost, sys.float_info.max, out=cost)


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
    _require_cover(q, net.relay_ids)
    return float(_cf_rates([net._arrays], [q.values])[0])


def _cf_rates(networks: list[tuple[np.ndarray, np.ndarray, np.ndarray]], qs: list) -> np.ndarray:
    """The compress-forward rate of each network, its validated (gains,
    powers, noises) arrays, at its Q, given as values aligned with its
    sorted relays; ``cf_rate`` is a stack of one. At Q = 0 a row is
    ``source_cut_bound`` bit for bit: N + 0.0 = N, with the receivers in
    the same order.

    The destination hears the source over one whitened column, receivers
    2..T: each relay at N + Q, the destination at its N. An N + Q that
    overflows is inf, silently, as Python floats give: that relay hears
    nothing of the source, so dropping it is the exact limit. The columns
    with the same number of receivers left are one stack for
    ``gaussian._whitened_mi_bits``, the closed form of the source cut.
    """
    rates = np.empty(len(networks))
    for members in _runs([len(powers) for _, powers, _ in networks]):
        arrays = [networks[k] for k in members]
        gains = np.array([g[0, 1:] for g, _, _ in arrays])
        q = np.array([(*qs[k], 0.0) for k in members])
        with np.errstate(over="ignore"):
            total = np.array([x[1:] for _, _, x in arrays]) + q
        # conditional_mi_bits's whitening, one column per network.
        w = np.sqrt(gains) * np.sqrt([p[:1] for _, p, _ in arrays]) / np.sqrt(total)
        heard = total < math.inf
        for rows in _runs(heard.sum(axis=1).tolist()):
            column = w[rows][heard[rows]].reshape(len(rows), -1, 1)
            rates[np.array(members)[rows]] = _whitened_mi_bits(column)
    return rates


def _columns(tables: list[_ConstraintTable]) -> list[np.ndarray]:
    """The arrays of tables that share a relay count, stacked in columns
    as ``_margins_log2`` takes them: denom_log2, noise, lam and p1."""
    names = ("denom_log2", "noise", "lam", "p1")
    return [np.stack([getattr(t, name) for t in tables], axis=-1) for name in names]


def _feasible(tables: list[_ConstraintTable], qs: list) -> list[bool]:
    """Whether each table accepts its Q, given as values aligned with its
    sorted relays: ``table.feasible`` of every (table, Q) pair, bit for
    bit, from one ``_margins_log2`` pass per relay count, with Q per relay
    in columns (R, K). A relay-free table has no constraint to break."""
    feasible = [True] * len(tables)
    for members in _runs([len(table.relays) or None for table in tables]):
        q = np.array([qs[k] for k in members]).T
        margins = _margins_log2(*_columns([tables[k] for k in members]), q)
        for k, ok in zip(members, (margins >= 0.0).all(axis=0).tolist()):
            feasible[k] = ok
    return feasible


def _search_start(table: _ConstraintTable) -> float:
    """Where the uniform search starts: the largest receiver noise."""
    return max(table.arrays[2][1:].tolist())


#: Newton steps a search takes at most before it walks the ulps.
_NEWTON_PASSES = 64


def _lockstep_search(
    denom_log2: np.ndarray, noise: np.ndarray, lam: np.ndarray, p1: np.ndarray, x: np.ndarray
) -> np.ndarray:
    """For K tables stacked in columns (as ``_margins_log2`` takes them),
    searched from the points ``x``: each column's smallest Q that its
    table accepts and whose predecessor it rejects, or inf where the
    largest double is rejected.

    Each column brackets its answer in the doubles' order, between the
    largest point seen rejected (0.0 at first) and the smallest accepted
    (inf). Each pass evaluates the margins once, inside every open
    bracket, and moves one end; a closed bracket's point stays on its ends.
    The point is a Newton step in u = ln x on the smallest margin until a
    step leaves the bracket or ``_NEWTON_PASSES`` are made, then a gallop
    from the last point, 1, 2, 4, ... ulps, then halving (63 + 62 passes
    at most: the bracket is under 2^63 ulps). Each operation acts on each
    column alone (sums over relays run left to right): a column's answer
    is its table's searched alone.
    """
    k = len(x)
    member = _dp_layout(len(noise)).member[1:]
    lo, hi = np.zeros(k, dtype=np.int64), np.full(k, math.inf).view(np.int64)
    step, newton = np.ones(k, dtype=np.int64), np.ones(k, dtype=bool)
    for passes in range(1, _NEWTON_PASSES + 126):
        margins = _margins_log2(denom_log2, noise, lam, p1, x)
        row, low = margins.argmin(axis=0), margins.min(axis=0)
        ok, bits = low >= 0.0, x.view(np.int64)
        hi, lo = np.where(ok, bits, hi), np.where(ok, lo, bits)
        width = hi - lo
        if width.max() == 1:
            return hi.view(np.float64)
        # The u-slope of row S's ln2 * margin, c - sum_S ln(1 + N_i/x) -
        # ln(1 + P1 sum_S lam_i/(N_i+x)). The step only proposes a point,
        # clamped to the doubles.
        with np.errstate(all="ignore"):
            total = noise + x
            share = lam / total
            terms = np.stack([noise / total, share * (x / total), share]) * member[row].T
            near, source, reach = np.cumsum(terms, axis=1)[:, -1]
            slope = near + source / (1.0 / p1 + reach)
            guess = np.clip(x * np.exp(low * -_LN2 / slope), 5e-324, sys.float_info.max)
        guess = guess.view(np.int64)
        newton &= (lo < guess) & (guess < hi) & (passes < _NEWTON_PASSES)
        # The point just seen is an end of its bracket: gallop from it, or
        # halve the bracket once the gallop step would leave it.
        ulps = np.where(step < width, step, width >> 1)
        walk = np.where(ok, hi - ulps, lo + ulps)
        step = np.where(newton, step, 2 * np.minimum(step, 1 << 61))
        x = np.where(newton, guess, walk).view(np.float64)
    raise AssertionError("a uniform search overran its pass bound")


def _uniform_optima(tables: list[_ConstraintTable]) -> list[np.ndarray | Infeasible]:
    """Each table's best uniform Q, as values aligned with its relays, or
    the Infeasible that says why it has none, for any tables: mixed relay
    counts, blocked and relay-free ones.

    Every margin rises strictly toward its denominator as Q grows, so a
    table with some denom_log2 <= 0 is infeasible without a search, and a
    relay-free table gets the empty Q. The others search by relay count,
    one ``_lockstep_search`` from ``_search_start`` each, their arrays
    stacked in columns once (a lone table is a stack of one). Each Q is
    exact: the smallest double that its table accepts.
    """
    optima: list[np.ndarray | Infeasible] = [np.empty(0)] * len(tables)
    counts: list[int | None] = []
    for k, table in enumerate(tables):
        blocked = np.flatnonzero(~(table.denom_log2 > 0.0))
        counts.append(None if blocked.size else len(table.relays) or None)
        if blocked.size:
            optima[k] = Infeasible(
                f"relay subset {table.instance(blocked[0]).s} cannot forward at any finite "
                "quantization noise: its relays deliver no power to the receivers that must "
                "decode them"
            )
    for members in _runs(counts):
        run = [tables[k] for k in members]
        # N + Q -> inf near the largest double: a relay that hears nothing
        # of the source, the exact limit. Near the smallest, N/Q -> inf, and
        # with P1 = 0 the source term can read 0 * inf = NaN: a cost that
        # _margins_log2 reads as the largest double.
        with np.errstate(over="ignore", invalid="ignore"):
            found = _lockstep_search(*_columns(run), np.array([_search_start(t) for t in run]))
        for k, table, q in zip(members, run, found.tolist()):
            optima[k] = (
                np.full(len(table.relays), q)
                if q < math.inf
                else Infeasible("no finite quantization noise satisfies every constraint")
            )
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
    shrink = _subset_sums(np.log1p(noise / q))
    source = table.p1 * _subset_sums(table.lam[others] / (noise + q))
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


def _coordinate_descent(table: _ConstraintTable, start: np.ndarray) -> np.ndarray:
    """From ``start``'s values, cyclically move each Q_j to its exact
    per-coordinate frontier (``_coordinate_step``: a closed form, no
    search), until a full cycle moves no coordinate, or after
    DESCENT_MAX_CYCLES cycles, in a new array.

    Each move keeps every margin nonnegative and never raises any Q, so
    the rate is nondecreasing. A Q_j only ever falls, and lowering the
    other Qs only raises Q_j's frontier, so a Q_j on its frontier stays
    there: in exact arithmetic the descent is at its fixed point after its
    first cycle. Rounding in the closed form, and the repair's geometric
    steps, can leave a Q_j an ulp or so above a frontier that a later
    cycle then reaches, so the stop compares Q before and after each cycle
    rather than counting on one cycle.
    """
    n = len(table.relays)
    # Relay k's rows, the subsets holding it: row i is canonical mask i + 1.
    rows = _dp_layout(n).member[1:].T

    q_values = start.copy()
    for _ in range(DESCENT_MAX_CYCLES):
        before = q_values.copy()
        with np.errstate(over="ignore"):  # N + Q -> inf, as in _uniform_optima
            for k in range(n):
                q_values[k] = _coordinate_step(table, q_values, k, rows[k])
        if np.array_equal(q_values, before):
            break
    return q_values


def _require_mode(mode: str) -> None:
    if mode not in _OPT_MODES:
        raise ValueError(f"mode must be one of {_OPT_MODES}, got {mode!r}")


def _optimize(table: _ConstraintTable, mode: str) -> tuple[QuantizationVector, np.ndarray, float]:
    """Best feasible quantization vector on one constraint table, as the
    one QuantizationVector that a public function returns and as values,
    and its rate: its ``_uniform_optima`` entry, raised if it is an
    Infeasible, then, if asked for and there is a Q, the descent from it."""
    (q,) = _uniform_optima([table])
    if isinstance(q, Infeasible):
        raise q
    if mode == "coordinate" and len(q):
        q = _coordinate_descent(table, q)
    return QuantizationVector(entries=tuple(zip(table.relays, q.tolist()))), q, table.cf_rate(q)


def optimize_quantization(
    net: NetworkSpec,
    mode: str = "uniform",
    quantifier: str = "forall",
    override_guard: bool = False,
) -> tuple[QuantizationVector, float]:
    """Best feasible quantization vector and its rate.

    Rate falls as any Q_j grows, so the optimum sits on the feasibility
    frontier. ``uniform`` ties all Q_j to one scalar and finds its
    frontier exactly: the smallest double the constraint table accepts
    (``_uniform_optima``). ``coordinate`` then moves each coordinate in
    turn to its exact frontier (a closed form, no search), which helps
    asymmetric networks and provably never hurts, and stops at
    its fixed point: a cycle that moves no Q. A Q_j only falls, and
    lowering the others only raises its frontier, so one cycle reaches
    that point in exact arithmetic; rounding can add ulp-sized moves after
    it. Raises Infeasible when no quantization works (e.g. powerless
    relays).
    """
    _require_mode(mode)
    q_star, _, rate = _optimize(_ConstraintTable(net, quantifier, override_guard), mode)
    return q_star, rate


def build_rate_report(
    net: NetworkSpec,
    mode: str = "uniform",
    quantifier: str = "forall",
    top_k: int = 5,
    override_guard: bool = False,
) -> RateReport:
    """Full analysis: bound, optimized rate, and the tightest constraints,
    from one constraint table and one cut table."""
    _require_mode(mode)
    if top_k < 0:
        raise ValueError(f"top_k must be >= 0, got {top_k}")
    table = _ConstraintTable(net, quantifier, override_guard)
    q_star, q, rate = _optimize(table, mode)
    rates = _cut_rates(net, override_guard)
    bound = float(rates[0])  # the source cut
    mc_bits, mc = _min_cut(net, rates)
    with np.errstate(over="ignore"):  # N + Q -> inf, as in _uniform_optima
        margins = table.margins_log2(q)
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
    *,
    override_guard: bool = False,
) -> tuple[SweepRow, ...]:
    """Bound-vs-rate table as relay power is scaled by each gamma.

    The upper bound never involves relay power, so the column is constant;
    the optimized rate climbs toward it. Quantization is optimized in
    uniform mode so the q column is a single scalar per row.

    The network is validated once; a row is its arrays with every relay
    power scaled by gamma (``topology._scaled_power``), and a finite
    scaled power keeps a valid network valid. Every row's constraint
    table is built first, in one ``_constraint_tables`` call: the rows
    share a relay count, so their tables come from one stacked pass. Then
    one ``_uniform_optima`` call searches every row at once, with one
    stacked margin pass per step, and one ``_cf_rates`` call rates the
    feasible rows; each row gets the q and rate that
    ``optimize_quantization`` gives on its ``scaled`` network. A row is
    infeasible exactly when its entry is an Infeasible; it is reported,
    not fatal, and never stops the other rows. Each row is scaled and
    then checked against the size guard before the next is scaled, all
    before any table is built.
    """
    gammas = [float(g) for g in gammas]
    if not gammas:
        raise InvalidScale("gamma list is empty")
    if any(b < a for a, b in zip(gammas, gammas[1:])):
        raise InvalidScale(f"gammas must be sorted ascending, got {gammas}")
    if any(not g >= 1.0 for g in gammas):
        raise InvalidScale(f"every gamma must be >= 1, got {gammas}")

    gains, powers, noises = net._arrays
    bound = source_cut_bound(net)
    relays = list(zip(range(2, net.num_nodes), powers[1:-1].tolist()))

    def row(gamma: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        scaled_powers = powers.copy()
        scaled_powers[1:-1] = [_scaled_power(j, p, gamma) for j, p in relays]
        return gains, scaled_powers, noises

    tables = _constraint_tables(map(row, gammas), quantifier, override_guard)
    optima = _uniform_optima(tables)
    found = [(t.arrays, q) for t, q in zip(tables, optima) if not isinstance(q, Infeasible)]
    rates = iter(_cf_rates([arrays for arrays, _ in found], [q for _, q in found]).tolist())
    rows: list[SweepRow] = []
    for g, q_star in zip(gammas, optima):
        if isinstance(q_star, Infeasible):
            feasible, rate, q_uni = False, math.nan, math.nan
        else:
            rate = next(rates)
            feasible, q_uni = True, max(q_star.tolist(), default=math.nan)
        gap = bound - rate
        if feasible and not gap >= -RATE_TOL_BITS:
            raise VerificationFailure(
                f"rate {rate!r} exceeds bound {bound!r} at gamma={g!r}"
            )
        rows.append(SweepRow(g, bound, rate, gap, q_uni, feasible))
    return tuple(rows)
