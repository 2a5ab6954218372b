"""Exact rational references, from the standard library only.

Every float is a rational, so a cut's determinant is exact in
``fractions.Fraction`` once its amplitudes (square roots of the power
gains) are rational: det(I + W^T W) = det(N + H P H^T) / det(N), with H
the amplitudes, P the transmit powers and N the receiver noises, needs no
square root. ``log2`` then rounds that exact value to a float once.
"""

import math
from fractions import Fraction

_LN2 = math.log(2.0)


def det(rows: list[list[Fraction]]) -> Fraction:
    """Determinant of a square matrix of Fractions, by exact Gaussian
    elimination (a zero pivot swaps in a lower row)."""
    m = [list(row) for row in rows]
    n = len(m)
    sign, total = 1, Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if m[i][k] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        total *= m[k][k]
        for i in range(k + 1, n):
            factor = m[i][k] / m[k][k]
            if factor:
                m[i] = [a - factor * b for a, b in zip(m[i], m[k])]
    return sign * total


def cut_det(amplitudes, powers, noises, tx, rx) -> Fraction:
    """Exact det(I + W^T W) of the cut with transmitters ``tx`` and
    receivers ``rx`` (node ids from 1): ``amplitudes[i][j]`` is the
    amplitude from node i + 1 to node j + 1, and ``powers`` and ``noises``
    are per node; every entry is a float or a Fraction, taken exactly."""
    h = [[Fraction(amplitudes[i - 1][j - 1]) for i in tx] for j in rx]
    p = [Fraction(powers[i - 1]) for i in tx]
    n = [Fraction(noises[j - 1]) for j in rx]
    cov = [
        [(n[a] if a == b else 0) + sum(x * y * w for x, y, w in zip(h[a], h[b], p)) for b in range(len(rx))]
        for a in range(len(rx))
    ]
    return det(cov) / math.prod(n)


def log2(x: Fraction) -> float:
    """log2 of a positive Fraction to about an ulp: x = 2^e m with e from
    the integer bit lengths and m in (1/2, 2), so log2 x = e + log1p(m - 1)
    / ln 2, with m - 1 exact and rounded to a float once."""
    if x <= 0:
        raise ValueError(f"log2 of a non-positive value: {x}")
    e = x.numerator.bit_length() - x.denominator.bit_length()
    m = x * Fraction(2) ** -e
    return e + math.log1p(float(m - 1)) / _LN2
