"""Exhaustive generators for the quantization-feasibility constraint family.

Each constraint is a triple: a nonempty relay subset S, a set partition
{B_1..B_M} of S, and a receiver assignment r(1)..r(M) with every r(m) a
relay or the destination outside its own block. The family is finite but
grows fast (Bell numbers times assignment products). These generators
list it member by member and are the tests' oracle: the library's
constraint table reaches the same extremes by a subset DP without walking
the family, and uses ``subsets`` only for its canonical order.

Canonical orders, fixed so diagnostics are reproducible run to run:

- ``subsets``: binary counting on the sorted ids. Bit i of the counter
  selects the i-th smallest id, so for {2, 3} the order is
  (), (2,), (3,), (2, 3).
- ``partitions``: restricted growth strings in lexicographic order over
  the sorted elements; block lists come out ordered by smallest element.
  The one-block partition is first, the all-singletons partition last.
- ``assignments``: Cartesian product over blocks of the sorted eligible
  receivers, rightmost block varying fastest.

All generators are pure and referentially transparent: two calls with the
same arguments yield identical sequences.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Iterator

from .errors import EmptyChoice

Block = tuple[int, ...]


@dataclass(frozen=True)
class ConstraintInstance:
    """One (S, partition, assignment) triple.

    ``s`` is the sorted relay subset, ``partition`` its blocks sorted by
    smallest element (each block internally sorted), and ``assignment``
    the receiver r(m) for each block, index-aligned with ``partition``.
    """

    s: tuple[int, ...]
    partition: tuple[Block, ...]
    assignment: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.partition) != len(self.assignment):
            raise ValueError(
                f"{len(self.partition)} blocks but {len(self.assignment)} receivers"
            )
        seen: set[int] = set()
        for block in self.partition:
            if not block:
                raise ValueError("empty block in partition")
            repeated = sorted(i for i in set(block) if i in seen or block.count(i) > 1)
            if repeated:
                raise ValueError(f"blocks overlap or repeat a relay at {repeated}")
            seen.update(block)
        if sorted(seen) != sorted(self.s):
            raise ValueError(f"partition covers {sorted(seen)}, expected {list(self.s)}")
        for block, r in zip(self.partition, self.assignment):
            if r in block:
                raise ValueError(f"receiver {r} lies inside its own block {block}")


def subsets(relays: Iterable[int]) -> Iterator[tuple[int, ...]]:
    """All 2^|R| subsets of the relay set, empty and full included.

    Binary counting on the sorted ids: subset k contains the i-th smallest
    id iff bit i of k is set. Built by doubling: subset 2^i + k is subset k
    plus the i-th id, which is larger than every id in subset k.
    """
    out: list[tuple[int, ...]] = [()]
    for x in sorted(set(relays)):
        out += [s + (x,) for s in out]
    yield from out


def partitions(s: Iterable[int]) -> Iterator[tuple[Block, ...]]:
    """All set partitions of a nonempty set, Bell(|s|) of them.

    Enumerated by restricted growth strings in lexicographic order: element
    i (in sorted order) gets block label a[i] with a[0] = 0 and
    a[i] <= max(a[:i]) + 1. Blocks are emitted ordered by smallest element.
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
    minus the block itself. Count is the product of (|candidates| - |B_m|).
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
