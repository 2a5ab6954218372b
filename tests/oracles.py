"""Deliberately naive reference implementations used only by the tests.

These exist to cross-check the library's production paths through
completely different algorithms: a Laplace-expansion determinant against
the Cholesky log-det, the binomial Bell recurrence against the
restricted-growth-string partition generator, a scan of every
partition against the constraint table's subset DP, and a column-by-column
sum over a 0/1 membership matrix against the table's doubling subset sums.
Nothing here is performance sensitive; clarity wins.
"""

import math

import numpy as np

from relaycap.bounds import _LN2, _block_snr_sum
from relaycap.enumeration import ConstraintInstance, partitions, subsets


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
