"""The forall constraint table's subset DP over relay masks, for stacks of
tables, and the mask bookkeeping that both quantifiers' tables share.

``bounds._ConstraintTable`` states the recurrence and its tie-break; an
exists table needs no DP, only ``_dp_layout`` and ``_subset_sums``. Every
array here indexes relays by canonical mask, the order of
``enumeration.subsets``: bit i selects the i-th sorted relay. This module
holds the mask bookkeeping that depends on the relay count alone
(``_dp_layout``; ``_dp_layers``, each popcount layer's masks and
candidate blocks), each built once per relay count, the subset sums
(``_subset_sums``), and the DP itself (``_partition_dp``), which runs one
popcount layer at a time over any number of tables stacked in rows and
keeps its totals by mask, so that a candidate's rest is one XOR.
"""

from __future__ import annotations

from functools import cache
from typing import NamedTuple

import numpy as np


class _Layout(NamedTuple):
    """The constraint table's mask bookkeeping for n relays (``_dp_layout``)."""

    member: np.ndarray
    ineligible: np.ndarray
    tops: tuple[int, ...]


@cache
def _dp_layout(n: int) -> _Layout:
    """The constraint table's mask bookkeeping for n relays, row m for
    mask m. It depends on n alone, so it is built once per relay count:
    read-only, each mask's relays as a (2^n, n) boolean ``member``; each
    mask's ineligible receivers, read-only, as a (2^n, n + 1) mask over
    the receiver columns in id order (relay i column i, the destination
    column n), where the empty mask, no block, has the destination alone,
    so that its value is 0 and ties with no other receiver; and each
    mask's lowest bit m & -m, its smallest relay, which is its first block
    when every block is one relay. A relay's singleton block is row 2^i."""
    every = np.arange(1 << n)
    member = every[:, None] >> np.arange(n) & 1 == 1
    ineligible = np.zeros((1 << n, n + 1), dtype=bool)
    ineligible[:, :n] = member
    ineligible[0, :n] = True
    for frozen in (member, ineligible):
        frozen.flags.writeable = False
    return _Layout(member, ineligible, tuple((every & -every).tolist()))


def _subset_sums(per_relay: np.ndarray) -> np.ndarray:
    """Per subset in canonical order, the empty one first (0), the sum of
    its relays' terms, along axis 0: entry i (a number, or an array of
    terms) is relay i's. Built by doubling: the subsets holding relay i
    are those without it, each plus relay i's term, so row 2^i + k is row
    k plus that term. Every row is the left-to-right sum over its subset,
    so subsets with tied terms get bit-identical sums and the
    binding-constraint order keeps its canonical tie-break; each entry of
    a stacked input gets the sums of that entry alone. The sums take
    ``per_relay``'s memory layout, the subset axis where its relay axis
    lies, so the caller's layout decides how long each doubling's inner
    loop runs (``bounds._margins_log2`` keeps each term's sums one block)."""
    sums = np.empty_like(per_relay, float, shape=(1 << len(per_relay),) + per_relay.shape[1:])
    sums[0] = 0.0  # each later row is written by one doubling
    for i, value in enumerate(per_relay):
        half = 1 << i
        np.add(sums[:half], value, out=sums[half : 2 * half])
    return sums


@cache
def _dp_layers(n: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The subset DP's candidate blocks for n relays, int32 arrays and
    read-only. They depend on n alone, so they are built once per relay
    count, in numpy.

    Entry k - 2, for k = 2..n, is ``(masks, blocks)``: the masks S of k
    relays, ascending, and row i of ``blocks`` holds the i-th S's 2^(k-1)
    candidate blocks B in the scalar scan's order, restricted-growth
    order: S's smallest relay t with each submask D of r = S - t, where at
    the smallest relay at which two D differ the one holding it comes
    first, so S itself comes first. A row is filled from its right end
    (D empty), doubling once per relay of r from the largest to the
    smallest: each doubling puts the D holding the next relay before
    those without it. A candidate's rest is S - B = S ^ B."""
    member = _dp_layout(n).member
    count = member.sum(axis=1)
    layers = []
    for k in range(2, n + 1):
        masks = np.flatnonzero(count == k).astype(np.int32)
        # Each S's bits in ascending order, one row per S; the first is t.
        low = np.left_shift(1, np.nonzero(member[masks])[1], dtype=np.int32).reshape(-1, k)
        w = 1 << (k - 1)
        blocks = np.empty((len(masks), w), dtype=np.int32)
        blocks[:, -1] = 0
        for j in range(k - 1):
            half = w - (1 << j)
            np.add(blocks[:, half:], low[:, -1 - j, None], out=blocks[:, half - (1 << j) : half])
        blocks |= low[:, :1]
        for frozen in (masks, blocks):
            frozen.flags.writeable = False
        layers.append((masks, blocks))
    return tuple(layers)


#: A DP layer gathers at most about this many candidate totals at once;
#: larger layers run in chunks of masks (``_partition_dp``), which keeps
#: each gather's arrays near the cache and bounds the memory a wide table
#: (2.4M candidates at 14 relays) adds beyond ``_dp_layers``'s.
_DP_CHUNK = 1 << 16


def _partition_dp(value: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The forall table's subset DP for K tables stacked in rows: ``value``
    is (K, 2^n), each table's block values indexed by mask, entry 0 (the
    empty block) 0. Returns each table's rows' smallest totals, summed
    left to right over their blocks, (K, 2^n - 1), row k for mask k + 1,
    and each mask's first block, (K, 2^n) (``bounds._ConstraintTable``
    states the recurrence).
    Every operation acts on each table alone, so a table's rows are its
    own DP's, whatever it is stacked with."""
    k_tables, size = value.shape
    # Smallest totals and first blocks, by mask: the empty mask and each
    # singleton are their own block, and every mask of two or more relays
    # is overwritten by its layer.
    f = value.copy()
    first = np.tile(np.arange(size, dtype=np.int32), (k_tables, 1))
    rows = np.arange(k_tables)[:, None]
    for masks, blocks in _dp_layers(size.bit_length() - 1):
        step = max(1, _DP_CHUNK // (k_tables * blocks.shape[1]))
        for i in range(0, len(masks), step):
            s, block = masks[i : i + step], blocks[i : i + step]
            # A candidate B of S leaves the rest S ^ B.
            total = value.take(block, axis=1)
            total += f.take(s[:, None] ^ block, axis=1)
            # The first minimum, as a strict-< scan keeps it; the scan skips
            # a NaN candidate, unless it comes first, where it sticks. Each
            # pick becomes a flat index into the chunk's candidates.
            later = total[..., 1:]
            np.fmin(later, np.inf, out=later)
            pick = total.argmin(axis=2)
            pick += np.arange(0, block.size, block.shape[1])
            f[:, s] = total.reshape(k_tables, -1)[rows, pick]
            first[:, s] = block.take(pick)

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
