"""The constraint table's subset DP over relay masks, for stacks of tables.

``bounds._ConstraintTable`` states the recurrence and its tie-break. This
module holds the mask bookkeeping that depends on the relay count alone
(``_dp_layout``; ``_dp_plan``, the DP's gathers), each built once per
relay count, and the DP itself (``_partition_dp``), which runs one
popcount layer at a time over any number of tables stacked in rows.
"""

from __future__ import annotations

from functools import cache
from typing import NamedTuple

import numpy as np


class _Layout(NamedTuple):
    """The constraint table's mask bookkeeping for n relays (``_dp_layout``)."""

    bit: tuple[int, ...]
    columns: tuple[tuple[int, ...], ...]
    masks: np.ndarray
    ineligible: np.ndarray
    tops: tuple[int, ...]
    single_columns: tuple[tuple[int, ...], ...]
    single_ineligible: np.ndarray


@cache
def _dp_layout(n: int) -> _Layout:
    """The constraint table's mask bookkeeping for n relays. It depends on
    n alone, so it is built once per relay count: each relay's DP bit;
    each DP mask m's eligible receivers, in row m, as columns in id order
    (the relays outside it, then the destination, column n) and,
    read-only, as a (2^n, n + 1) mask of the ineligible ones, where the
    empty mask, no block, has the destination alone, so that its value is
    0 and ties with no other receiver; the DP mask of each canonical row,
    read-only (by doubling: row 2^i + k is row k plus relay i); each DP
    mask's top bit, its first block when every block is one relay; and
    the eligible columns and ineligible mask of each relay's singleton
    block, relay i in row i."""
    # DP masks give the smallest relay the highest bit, so a descending
    # submask walk meets candidate blocks in restricted-growth order.
    bit = tuple(1 << (n - 1 - i) for i in range(n))
    columns = [(n,)]
    for i in reversed(range(n)):
        columns = [(i,) + c for c in columns] + columns
    masks = [0]
    for b in bit:
        masks += [m | b for m in masks]
    masks = np.array(masks)
    ineligible = np.zeros((1 << n, n + 1), dtype=bool)
    ineligible[:, :n] = np.arange(1 << n)[:, None] & np.array(bit, dtype=int) != 0
    single_ineligible = ineligible[list(bit)]
    ineligible[0, :n] = True
    for frozen in (masks, ineligible, single_ineligible):
        frozen.flags.writeable = False
    tops = (0,) + tuple(1 << (m.bit_length() - 1) for m in range(1, 1 << n))
    return _Layout(
        bit,
        ((n,),) + tuple(columns[1:]),
        masks,
        ineligible,
        tops,
        tuple(columns[b] for b in bit),
        single_ineligible,
    )


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

    The DP keeps its totals by position: the DP masks in popcount layers,
    ascending within each (``order``; ``position`` is its inverse). Layer
    k = 2..n is ``(lo, block, rest)``: its masks S sit at positions lo
    onward, and row i of ``block`` holds the i-th S's 2^(k-1) candidate
    blocks B in the scalar scan's order, S's top bit t (its smallest
    relay) with each submask D of r = S - t in descending order, so S
    itself comes first; ``rest`` holds the position of each S - B = r - D.
    ``blocks`` holds every mask's candidates in turn (the empty mask and
    each singleton have one, themselves), each layer's ``block`` a view of
    it, and ``start`` the index of each mask's first. The descending
    submasks of r, taken over its bits from low to high, are each submask
    of the lower bits plus the next bit, then each without it: a row is
    filled from its right end, doubling once per bit of r."""
    every = np.arange(1 << n, dtype=np.int32)
    member = every[:, None] >> np.arange(n, dtype=np.int32) & 1
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
        # Each S's bits in ascending order, one row per S; the last is t.
        low = np.left_shift(1, np.nonzero(member[s])[1], dtype=np.int32).reshape(size, k)
        w, first = 1 << (k - 1), start[s[0]]
        block = blocks[first : first + size * w].reshape(size, w)
        block[:, -1] = 0
        for j in range(k - 1):
            half = w - (1 << j)
            np.add(block[:, half:], low[:, j, None], out=block[:, half - (1 << j) : half])
        top = low[:, -1:]
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
    each table's block values indexed by DP mask, entry 0 (the empty
    block) 0. Returns each table's canonical rows' extreme totals, summed
    left to right over their blocks, (K, 2^n - 1), and each DP mask's
    first block, (K, 2^n) (``bounds._ConstraintTable`` states the
    recurrence).
    Every operation acts on each table alone, so a table's rows are its
    own DP's, whatever it is stacked with."""
    k_tables, size = value.shape
    n = size.bit_length() - 1
    plan = _dp_plan(n)
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
    at = _dp_layout(n).masks[1:] | tables
    denoms = np.zeros(at.shape)
    while at.any():
        denoms += gained.take(at)
        at = ahead.take(at)
    return denoms, first
