"""The constraint table's subset DP over relay masks, for stacks of tables.

``bounds._ConstraintTable`` states the recurrence and its tie-break. Every
array here indexes relays by canonical mask, the order of
``enumeration.subsets``: bit i selects the i-th sorted relay. This module
holds the mask bookkeeping that depends on the relay count alone
(``_dp_layout``; ``_dp_plan``, the DP's gathers), each built once per
relay count, the subset sums (``_subset_sums``), and the DP itself
(``_partition_dp``), which runs one popcount layer at a time over any
number of tables stacked in rows.
"""

from __future__ import annotations

from functools import cache
from typing import NamedTuple

import numpy as np


class _Layout(NamedTuple):
    """The constraint table's mask bookkeeping for n relays (``_dp_layout``)."""

    member: np.ndarray
    columns: tuple[tuple[int, ...], ...]
    ineligible: np.ndarray
    tops: tuple[int, ...]


@cache
def _dp_layout(n: int) -> _Layout:
    """The constraint table's mask bookkeeping for n relays, row m for
    mask m. It depends on n alone, so it is built once per relay count:
    read-only, each mask's relays as a (2^n, n) boolean ``member``; each
    mask's eligible receivers, as columns in id order (the relays outside
    it, then the destination, column n) and, read-only, as a (2^n, n + 1)
    mask of the ineligible ones, where the empty mask, no block, has the
    destination alone, so that its value is 0 and ties with no other
    receiver; and each mask's lowest bit m & -m, its smallest relay, which
    is its first block when every block is one relay. A relay's singleton
    block is row 2^i."""
    every = np.arange(1 << n)
    member = every[:, None] >> np.arange(n) & 1 == 1
    ineligible = np.zeros((1 << n, n + 1), dtype=bool)
    ineligible[:, :n] = member
    ineligible[0, :n] = True
    # By doubling, from the largest relay down: with relays i.. placed,
    # mask 2j + 1 holds relay i and 2j does not.
    columns = [(n,)]
    for i in reversed(range(n)):
        columns = [c for tail in columns for c in ((i,) + tail, tail)]
    for frozen in (member, ineligible):
        frozen.flags.writeable = False
    return _Layout(
        member, ((n,),) + tuple(columns[1:]), ineligible, tuple((every & -every).tolist())
    )


def _subset_sums(per_relay: np.ndarray) -> np.ndarray:
    """Per subset in canonical order, the empty one first (0), the sum of
    its relays' terms, along axis 0: entry i (a number, or an array of
    terms) is relay i's. Built by doubling: the subsets holding relay i
    are those without it, each plus relay i's term, so row 2^i + k is row
    k plus that term. Every row is the left-to-right sum over its subset,
    so subsets with tied terms get bit-identical sums and the
    binding-constraint order keeps its canonical tie-break; each entry of
    a stacked input gets the sums of that entry alone."""
    sums = np.zeros((1 << len(per_relay),) + per_relay.shape[1:])
    for i, value in enumerate(per_relay):
        half = 1 << i
        np.add(sums[:half], value, out=sums[half : 2 * half])
    return sums


class _Plan(NamedTuple):
    """The subset DP's gathers for n relays (``_dp_plan``)."""

    order: np.ndarray
    position: np.ndarray
    layers: tuple[tuple[int, np.ndarray, np.ndarray], ...]
    blocks: np.ndarray
    start: np.ndarray


@cache
def _dp_plan(n: int) -> _Plan:
    """The subset DP's gathers for n relays, int32 arrays and read-only.
    It depends on n alone, so it is built once per relay count, in numpy.

    The DP keeps its totals by position: the masks in popcount layers,
    ascending within each (``order``; ``position`` is its inverse). Layer
    k = 2..n is ``(lo, block, rest)``: its masks S sit at positions lo
    onward, and row i of ``block`` holds the i-th S's 2^(k-1) candidate
    blocks B in the scalar scan's order, restricted-growth order: S's
    smallest relay t with each submask D of r = S - t, where at the
    smallest relay at which two D differ the one holding it comes first,
    so S itself comes first; ``rest`` holds the position of each
    S - B = r - D. ``blocks`` holds every mask's candidates in turn (the
    empty mask and each singleton have one, themselves), each layer's
    ``block`` a view of it, and ``start`` the index of each mask's first.
    A row is filled from its right end (D empty), doubling once per relay
    of r from the largest to the smallest: each doubling puts the D
    holding the next relay before those without it."""
    every = np.arange(1 << n, dtype=np.int32)
    member = _dp_layout(n).member
    count = member.sum(axis=1)
    order = np.argsort(count, kind="stable").astype(np.int32)
    position = np.empty_like(order)
    position[order] = every
    width = np.left_shift(1, count - 1, where=count > 0, out=np.ones_like(count))
    start = (np.cumsum(width[order]) - width[order])[position]
    blocks = np.empty(int(width.sum()), dtype=np.int32)
    blocks[: n + 1] = order[: n + 1]
    layers, lo = [], n + 1
    for k, size in enumerate(np.bincount(count, minlength=n + 1)[2:].tolist(), start=2):
        s = order[lo : lo + size]
        # Each S's bits in ascending order, one row per S; the first is t.
        low = np.left_shift(1, np.nonzero(member[s])[1], dtype=np.int32).reshape(size, k)
        w, first = 1 << (k - 1), start[s[0]]
        block = blocks[first : first + size * w].reshape(size, w)
        block[:, -1] = 0
        for j in range(k - 1):
            half = w - (1 << j)
            np.add(block[:, half:], low[:, -1 - j, None], out=block[:, half - (1 << j) : half])
        top = low[:, :1]
        rest = position[(s[:, None] ^ top) - block]
        block |= top
        layers.append((lo, block, rest))
        lo += size
    for frozen in (order, position, blocks, start, *(rest for _, _, rest in layers)):
        frozen.flags.writeable = False
    return _Plan(order, position, tuple(layers), blocks, start)


#: A DP layer gathers at most about this many candidate totals at once;
#: larger layers run in chunks of masks (``_partition_dp``), which keeps
#: each gather's arrays near the cache and bounds the memory a wide table
#: (2.4M candidates at 14 relays) adds.
_DP_CHUNK = 1 << 16


def _partition_dp(value: np.ndarray, forall: bool) -> tuple[np.ndarray, np.ndarray]:
    """The subset DP for K tables stacked in rows: ``value`` is (K, 2^n),
    each table's block values indexed by mask, entry 0 (the empty block)
    0. Returns each table's rows' extreme totals, summed left to right
    over their blocks, (K, 2^n - 1), row k for mask k + 1, and each mask's
    first block, (K, 2^n) (``bounds._ConstraintTable`` states the
    recurrence).
    Every operation acts on each table alone, so a table's rows are its
    own DP's, whatever it is stacked with."""
    k_tables, size = value.shape
    plan = _dp_plan(size.bit_length() - 1)
    # exists maximizes; negating its scores (exact) lets both minimize.
    score = value if forall else -value
    # Signed extreme totals and picked candidates, by position: a
    # singleton is its own block, and so is the empty mask.
    f = score.take(plan.order, axis=1)
    picks = np.zeros(value.shape, dtype=np.intp)
    for lo, block, rest in plan.layers:
        step = max(1, _DP_CHUNK // (k_tables * block.shape[1]))
        for i in range(0, len(block), step):
            total = score.take(block[i : i + step], axis=1)
            total += f.take(rest[i : i + step], axis=1)
            # The first minimum, as a strict-< scan keeps it; the scan skips
            # a NaN candidate, unless it comes first, where it sticks.
            later = total[..., 1:]
            np.fmin(later, np.inf, out=later)
            at = slice(lo + i, lo + i + total.shape[1])
            total.argmin(axis=2, out=picks[:, at])
            total.min(axis=2, out=f[:, at])
    first = plan.blocks.take(picks.take(plan.position, axis=1) + plan.start)

    # Each row follows its first blocks, adding their values left to right.
    # In flat (table, mask) indices, a row that has run out of blocks sits
    # at 0, which adds the empty block's 0 and leads to itself.
    tables = np.arange(0, k_tables * size, size)[:, None]
    left = np.arange(size) ^ first
    ahead = np.where(left, left | tables, 0)
    gained = value.take(first | tables)
    at = np.arange(1, size) | tables
    denoms = np.zeros(at.shape)
    while at.any():
        denoms += gained.take(at)
        at = ahead.take(at)
    return denoms, first
