"""The quantization-feasibility constraint family's members and subsets.

Each constraint is a triple: a nonempty relay subset S, a set partition
{B_1..B_M} of S, and a receiver assignment r(1)..r(M) with every r(m) a
relay or the destination outside its own block. The family is finite but
grows fast (Bell numbers times assignment products). The library never
walks it: its constraint table reaches each subset's extreme member by a
subset DP, and builds a ``ConstraintInstance`` only for the members a
caller reads. The exhaustive generators of the family are the tests'
oracle and live with the tests.

``subsets`` gives the table its canonical order, fixed so diagnostics are
reproducible run to run: binary counting on the sorted ids. Bit i of the
counter selects the i-th smallest id, so for {2, 3} the order is
(), (2,), (3,), (2, 3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

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
