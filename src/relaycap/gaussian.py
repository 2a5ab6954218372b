"""Covariance algebra for jointly Gaussian variables.

Everything here reduces to log-determinants, each the sum of the base-2
logs of its pivots, under one pivot rule: a pivot at or below
``PD_EPSILON`` (or NaN) rejects the matrix as not positive definite. Two
kernels compute pivots, each vectorized over a stack:

- ``_stacked_cholesky_pivots`` factors a stack of equal-sized symmetric
  positive-definite matrices by Cholesky, with each step vectorized over
  the stack; a single matrix is a stack of one, and it raises at the
  first failing pivot. ``_stacked_cholesky_log2_det`` sums each matrix's
  pivot logs; ``conditional_covariance``'s gate needs only the verdict,
  and takes no log. ``log2_det`` is the one checked entry point: it
  also rejects a matrix that is not square, is empty, or is asymmetric
  beyond ``SYMMETRY_ATOL``. The library's own callers construct their
  matrices exactly symmetric and call the kernel directly.
- ``_cut_tree_log2_dets`` takes every cut of one whitened network (or one
  cut) from one binary tree of Schur complements, whose exact pivots are
  all at least 1. It returns each cut's smallest pivot, and its caller,
  ``bounds._cut_rates``, applies the rule and names the failing cut.

The covariance helpers take one matrix or a stack. The scalar kernel and
cofactor expansion exist only inside the test suite, as independent
oracles.

The library's Gaussian formulas: ``_whitened_mi_bits`` (a Gram matrix and
Cholesky) for the rate below on one-column channels, the compress-forward
rate and the two rank-one cuts, and behind the public
``conditional_mi_bits``, which the tests use as the cut tree's oracle;
the cut tree for every other cut; and ``_rank_one_log2_dets`` for
compress-forward's quantized-observation determinant.

Mutual information for independent Gaussian inputs over a linear channel
Y = H x + Z, with P = diag(tx powers) and Sigma_N = diag(rx noises), is
computed from the whitened channel W = Sigma_N^(-1/2) H P^(1/2):

    I(X; Y) = 1/2 log2 det(I + W W^T) = 1/2 log2 det(I + W^T W),

the second form by Sylvester's identity. Every pivot of I + W W^T is at
least 1 in exact arithmetic, so the result does not depend on the absolute
scale of powers and noises, only on their ratios. Conditioning on other
independent transmitters subtracts their known signals exactly, which is
why only the transmitter set of interest enters.

All public rates are bits per channel use (log base 2). Every function is
pure; nothing here holds mutable state, so concurrent callers are safe.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    DimensionMismatch,
    NegativePower,
    NonPositiveNoise,
    NotPositiveDefinite,
)

#: Absolute tolerance for the symmetry check in ``log2_det``.
SYMMETRY_ATOL = 1e-12

#: Pivot threshold for positive-definiteness rejection.
PD_EPSILON = 1e-12


def _pivot_failure(pivot: float, k: int) -> NotPositiveDefinite:
    return NotPositiveDefinite(f"pivot {pivot:.6e} at index {k} is <= epsilon {PD_EPSILON:g}")


def _stacked_cholesky_pivots(stack: np.ndarray) -> np.ndarray:
    """The Cholesky pivots of every matrix in a (count, n, n) stack, as
    (n, count): row k holds every matrix's pivot k. Each matrix must be
    exactly symmetric, as the library's callers construct it.

    Step k runs once for the whole stack. Pivot k is a[k,k] minus the
    accumulated squared row of the factor.

    Raises NotPositiveDefinite at the first step where a pivot is
    <= PD_EPSILON (or NaN), naming the lowest-index matrix that fails
    there; the error's ``index`` is that matrix's position in the stack.
    ``conditional_covariance``'s positive-definiteness gate calls this
    alone: it needs the verdict, not the logs.
    """
    count, n, _ = stack.shape
    a = np.array(stack, dtype=float)
    lower = np.zeros(a.shape)
    pivots = np.empty((n, count))
    for k in range(n):
        row = lower[:, k, None, :k]
        pivot = a[:, k, k] - np.matmul(row, row.transpose(0, 2, 1))[:, 0, 0]
        passed = pivot > PD_EPSILON
        if not passed.all():
            index = int(np.argmin(passed))  # the first False
            error = _pivot_failure(pivot[index], k)
            error.index = index
            raise error
        pivots[k] = pivot
        root = np.sqrt(pivot)
        lower[:, k, k] = root
        if k + 1 < n:
            column = np.matmul(lower[:, k + 1 :, :k], row.transpose(0, 2, 1))[:, :, 0]
            lower[:, k + 1 :, k] = (a[:, k + 1 :, k] - column) / root[:, None]
    return pivots


def _stacked_cholesky_log2_det(stack: np.ndarray) -> np.ndarray:
    """Sum of the base-2 logs of the Cholesky pivots of every matrix in a
    (count, n, n) stack (``_stacked_cholesky_pivots``, which raises
    NotPositiveDefinite as it states). Each log is taken with
    ``math.log2`` rather than ``np.log2``, whose last bit can differ, and
    each matrix's logs are added in pivot order."""
    pivots = _stacked_cholesky_pivots(stack)
    logs = np.fromiter(map(math.log2, pivots.ravel().tolist()), float, pivots.size)
    log2_sums = np.zeros(pivots.shape[1])
    for row in logs.reshape(pivots.shape):
        log2_sums += row
    return log2_sums


def log2_det(m: np.ndarray) -> float:
    """log2 of the determinant of a symmetric positive definite matrix.

    Computed as the sum of base-2 logs of the Cholesky pivots, which is
    numerically stable and O(n^3). A 3x3 identity gives exactly 0.0.

    Raises DimensionMismatch for a matrix that is not square or is empty,
    ValueError for asymmetry beyond ``SYMMETRY_ATOL`` (absolute), and
    NotPositiveDefinite if any pivot is <= ``PD_EPSILON``.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] == 0:
        raise DimensionMismatch("matrix dimension must be positive")
    # equal_nan so that NaN entries fall through to the positive-
    # definiteness check, which names the actual problem.
    if not np.allclose(a, a.T, rtol=0.0, atol=SYMMETRY_ATOL, equal_nan=True):
        worst = float(np.max(np.abs(a - a.T)))
        raise ValueError(
            f"matrix is not symmetric within atol={SYMMETRY_ATOL:g} "
            f"(max |a - a.T| = {worst:.3e})"
        )
    return float(_stacked_cholesky_log2_det(a[None])[0])


def conditional_mi_bits(
    gains_tx_to_rx: np.ndarray,
    tx_powers: np.ndarray,
    rx_total_noise: np.ndarray,
) -> float:
    """I(X_tx ; Y_rx | X_others) in bits for independent Gaussian inputs.

    ``gains_tx_to_rx`` holds amplitude gains (square roots of power gains)
    with shape (num_rx, num_tx); entry (j, i) couples transmitter i into
    receiver j. ``rx_total_noise`` is the per-receiver total noise variance
    (thermal plus any quantization noise folded in by the caller).

    Returns 1/2 log2 det(I + W W^T) with W = Sigma_N^(-1/2) H P^(1/2),
    factored on the smaller side: W^T W when there are no more transmitters
    than receivers, W W^T otherwise. Both have the same determinant, and the
    smaller one needs fewer pivots; on a rank-one cut it is the 1 x 1 matrix
    1 + sum of SNRs. With all powers zero the result is exactly 0.0.

    Raises NonPositiveNoise for a noise that is not finite and > 0, and
    NegativePower for a power that is not finite and >= 0.
    """
    gains = np.atleast_2d(np.asarray(gains_tx_to_rx, dtype=float))
    powers = np.atleast_1d(np.asarray(tx_powers, dtype=float))
    noise = np.atleast_1d(np.asarray(rx_total_noise, dtype=float))
    if powers.ndim != 1 or noise.ndim != 1:
        raise DimensionMismatch("tx_powers and rx_total_noise must be vectors")
    if gains.shape != (noise.size, powers.size):
        raise DimensionMismatch(
            f"gains shape {gains.shape} does not match "
            f"({noise.size} receivers, {powers.size} transmitters)"
        )
    return float(_whitened_mi_bits(_whitened(gains, powers, noise)[None])[0])


def _whitened_mi_bits(w: np.ndarray) -> np.ndarray:
    """1/2 log2 det(I + W^T W) of every whitened channel W in a (count,
    rx, tx) stack, factored on the smaller side as ``conditional_mi_bits``
    says: one matmul, one stacked factorization. A product past the
    double range reads inf, silently: ``bounds._cut_rates`` rejects the
    rate that it gives."""
    wt = w.transpose(0, 2, 1)
    with np.errstate(over="ignore"):
        gram = np.matmul(wt, w) if w.shape[2] <= w.shape[1] else np.matmul(w, wt)
    return 0.5 * _stacked_cholesky_log2_det(np.eye(gram.shape[1]) + gram)


def _cut_tree_log2_dets(
    a: np.ndarray, sides: tuple[bool, ...] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """log2 det(I + W^T W) of the cuts of one whitened network, with each
    cut's smallest pivot, from one binary tree of Schur complements.

    ``a`` holds the whitened channel of a network with R relays:
    receivers (the relays, then the destination) by rows, transmitters
    (the source, then the relays) by columns. A cut's W keeps the rows of
    its receiver side and the columns of its transmitter side, and
    det(I + W^T W) = det [[I, -W^T], [W, I]]: the cut's determinant is the
    principal minor of K = [[I, -a^T], [a, I]] that keeps the source's
    column, the destination's row and, for each relay, exactly one of its
    two indices (its column on the transmitter side, its row if not). K
    is ordered in pairs, each relay's column then its row, the source and
    the destination last, so relay i's pair sits at positions 0 and 1 of
    level i. A level eliminates one index of every matrix in its stack,
    the column on the transmitter branch and the row on the other, and
    drops the other index: det(M_{0 u J}) = M_00 det(M_J - M_J0 M_0J /
    M_00). A final 2 x 2 step eliminates the source's column, then the
    destination's row. Each leaf's determinant is the product of its
    pivots, kept as a mantissa and a binary exponent (``np.frexp`` is
    exact), so it never overflows, and its log2 is taken once, with
    ``np.log2``, which takes each element through the same code whatever
    the stack's length. The receiver branch is stacked before the transmitter
    branch, so leaf c puts relay i on the transmitter side exactly when
    bit i of c is set: the canonical cut order. ``sides`` (one bool per
    relay, True for the transmitter side) follows one branch, a stack of
    one; every operation is elementwise, so its leaf is bit for bit the
    same leaf of the whole tree.

    Every exact pivot is at least 1. K = I + S with S skew-symmetric,
    and so is every principal submatrix of K. A pivot is the Schur
    complement of the eliminated set E in the principal submatrix on
    E u {e}: with c = S_Ee, and so S_eE = -c^T, it is
    p = 1 + c^T (I + S_E)^-1 c. (I + S_E)^-1 = (I - S_E)(I + S_E^T S_E)^-1,
    all three factors commuting, so the symmetric part of (I + S_E)^-1
    is (I + S_E^T S_E)^-1, which is positive definite, and
    p = 1 + c^T (I + S_E^T S_E)^-1 c >= 1. A computed pivot that is NaN or
    at most ``PD_EPSILON`` is rounding past double precision; the caller
    rejects its cut from the returned smallest pivot (NaN if any pivot
    was NaN).

    Accuracy, against exact rationals (``tests/exact.py``): on the
    unit-gain T = 4 cut {1,2} with unit powers and every noise N, whose
    determinant is 1 + 4/N, the rate errs by at most 3.6e-9 bits (near
    N = 1e-8), and by about N / 2.8 bits below that (3.6e-10 at 1e-9,
    3.6e-14 at 1e-13), from N = 1 down to 1e-15. The Gram-and-Cholesky
    route, which squares the condition number when it forms W^T W, errs
    there by 8.6e-8 bits at 1e-9, 1.4e-3 at 1e-13 and 0.16 at 1e-15. At
    N = 1e-16 a pivot of the tree rounds to 0 and the cut is rejected. On
    random, asymmetric, tied-power and unit-gain networks at T = 3..12,
    the two routes agree within (T - 1) eps (1 + ||W||_F^2) bits per cut.
    The tree runs under ``np.errstate``: an overflow or a NaN shows in
    the returned pivot, not as a warning.
    """
    relays = a.shape[0] - 1
    pairs = relays + 1
    at = a[:, list(range(1, pairs)) + [0]]  # transmitters: relays, then the source
    k = np.zeros((2 * pairs, 2 * pairs))
    k[0::2, 0::2] = k[1::2, 1::2] = np.eye(pairs)
    k[1::2, 0::2] = at
    k[0::2, 1::2] = -at.T
    m = k[None]
    worst = np.full(1, np.inf)
    mantissa, exponent = np.ones(1), np.zeros(1, dtype=int)
    with np.errstate(all="ignore"):
        for level in range(relays):
            # index 1 (the relay's row) on the receiver branch, 0 (its
            # column) on the transmitter branch; receiver branch first
            picks = [1, 0] if sides is None else [0 if sides[level] else 1]
            size = m.shape[1] - 2
            pivot = m[:, picks, picks].T  # (branches, stack)
            column = m[:, 2:, picks].transpose(2, 0, 1)
            row = m[:, picks, 2:].transpose(1, 0, 2) / pivot[:, :, None]
            m = m[None, :, 2:, 2:] - column[..., None] * row[..., None, :]
            m = m.reshape(-1, size, size)
            worst = np.minimum(worst, pivot).ravel()
            mantissa, e = np.frexp(mantissa * pivot)
            mantissa, exponent = mantissa.ravel(), (exponent + e).ravel()
        # the source's column, then the destination's row
        first = m[:, 0, 0]
        second = m[:, 1, 1] - m[:, 1, 0] * (m[:, 0, 1] / first)
        for pivot in (first, second):
            worst = np.minimum(worst, pivot)
            mantissa, e = np.frexp(mantissa * pivot)
            exponent = exponent + e
        # a mantissa <= 0 or NaN comes from a rejected pivot
        return exponent + np.log2(mantissa), worst


def _whitened(gains: np.ndarray, powers: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """W = Sigma_N^(-1/2) H P^(1/2) for amplitude gains H (receivers by
    rows), after the noise and power checks of ``conditional_mi_bits``."""
    if np.any(noise <= 0.0) or not np.all(np.isfinite(noise)):
        raise NonPositiveNoise(f"receiver noise variances must be > 0, got {noise}")
    if np.any(powers < 0.0) or not np.all(np.isfinite(powers)):
        raise NegativePower(f"transmit powers must be finite and >= 0, got {powers}")
    return gains * np.sqrt(powers) / np.sqrt(noise)[:, None]


def _rank_one_log2_dets(lam: np.ndarray, noise: np.ndarray, p1: np.ndarray) -> np.ndarray:
    """log2 det(diag(N + Q) + P1 u u^T), u = sqrt(lambda), for each row of
    (count, d) stacks ``lam`` and ``noise`` (N + Q) and each of the (count,)
    powers ``p1``; the matrices are built exactly symmetric."""
    u = np.sqrt(lam)
    m = p1[:, None, None] * (u[:, :, None] * u[:, None, :])
    d = lam.shape[1]
    m[:, range(d), range(d)] += noise
    return _stacked_cholesky_log2_det(m)


def joint_covariance(coefficients: np.ndarray, factor_variances: np.ndarray) -> np.ndarray:
    """Covariance A diag(v) A^T of variables that are rows of A over
    independent zero-mean Gaussian factors with variances v. Leading axes
    of A (..., rows, factors) and v (..., factors) give a stack of
    covariances."""
    a = np.atleast_2d(np.asarray(coefficients, dtype=float))
    v = np.atleast_1d(np.asarray(factor_variances, dtype=float))
    if a.shape[-1] != v.shape[-1]:
        raise DimensionMismatch(
            f"{a.shape[-1]} coefficient columns vs {v.shape[-1]} factor variances"
        )
    if np.any(v < 0.0):
        raise ValueError(f"factor variances must be >= 0, got {v}")
    sigma = (a * v[..., None, :]) @ a.swapaxes(-1, -2)
    return 0.5 * (sigma + sigma.swapaxes(-1, -2))


def conditional_covariance(
    sigma: np.ndarray,
    keep: list[int],
    given: list[int],
) -> np.ndarray:
    """Schur complement: covariance of the ``keep`` block given the ``given``
    block, Sigma_kk - Sigma_kg Sigma_gg^{-1} Sigma_gk, of one covariance or
    of each in a stack (leading axes)."""
    s = np.asarray(sigma, dtype=float)

    def block(rows: list[int], cols: list[int]) -> np.ndarray:
        return s[..., rows, :][..., cols]

    if not given:
        return block(keep, keep)
    s_gg = block(given, given)
    s_gg = 0.5 * (s_gg + s_gg.swapaxes(-1, -2))
    _stacked_cholesky_pivots(s_gg.reshape(-1, len(given), len(given)))  # PD gate
    solved = np.linalg.solve(s_gg, block(given, keep))
    cond = block(keep, keep) - block(keep, given) @ solved
    return 0.5 * (cond + cond.swapaxes(-1, -2))
