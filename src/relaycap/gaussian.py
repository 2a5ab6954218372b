"""Covariance algebra for jointly Gaussian variables.

Everything here reduces to log-determinants of small symmetric
positive-definite matrices, computed by Cholesky factorization under one
pivot rule: det(M) equals the product of the pivots, so log2 det(M) is the
sum of their base-2 logs, and a pivot at or below ``PD_EPSILON`` (or NaN)
rejects the matrix as not positive definite. One kernel applies that
rule, ``_stacked_cholesky_log2_det``: it factors a stack of equal-sized
matrices with each step vectorized over the stack, and a single matrix is
a stack of one. ``log2_det`` is the one checked entry point: it also
rejects a matrix that is not square, is empty, or is asymmetric beyond
``SYMMETRY_ATOL``. The library's own callers construct their matrices
exactly symmetric and call the kernel directly. The covariance helpers
take one matrix or a stack. The scalar kernel and cofactor expansion
exist only inside the test suite, as independent oracles.

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


def _stacked_cholesky_log2_det(stack: np.ndarray) -> np.ndarray:
    """Sum of the base-2 logs of the Cholesky pivots of every matrix in a
    (count, n, n) stack; each matrix must be exactly symmetric, as the
    library's callers construct it.

    Step k runs once for the whole stack. Pivot k is a[k,k] minus the
    accumulated squared row of the factor, and its log is taken with
    ``math.log2`` rather than ``np.log2``, whose last bit can differ.

    Raises NotPositiveDefinite at the first step where a pivot is
    <= PD_EPSILON (or NaN), naming the lowest-index matrix that fails
    there; the error's ``index`` is that matrix's position in the stack.
    """
    count, n, _ = stack.shape
    a = np.array(stack, dtype=float)
    lower = np.zeros(a.shape)
    log2_sums = np.zeros(count)
    for k in range(n):
        row = lower[:, k, None, :k]
        pivot = a[:, k, k] - np.matmul(row, row.transpose(0, 2, 1))[:, 0, 0]
        passed = pivot > PD_EPSILON
        if not passed.all():
            index = int(np.argmin(passed))  # the first False
            error = _pivot_failure(pivot[index], k)
            error.index = index
            raise error
        log2_sums += np.fromiter(map(math.log2, pivot.tolist()), float, count)
        root = np.sqrt(pivot)
        lower[:, k, k] = root
        if k + 1 < n:
            column = np.matmul(lower[:, k + 1 :, :k], row.transpose(0, 2, 1))[:, :, 0]
            lower[:, k + 1 :, k] = (a[:, k + 1 :, k] - column) / root[:, None]
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
    w = _whitened(gains, powers, noise)
    gram = w.T @ w if powers.size <= noise.size else w @ w.T
    return 0.5 * float(_stacked_cholesky_log2_det((np.eye(len(gram)) + gram)[None])[0])


def _whitened(gains: np.ndarray, powers: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """W = Sigma_N^(-1/2) H P^(1/2) for amplitude gains H (receivers by
    rows), after the noise and power checks of ``conditional_mi_bits``."""
    if np.any(noise <= 0.0) or not np.all(np.isfinite(noise)):
        raise NonPositiveNoise(f"receiver noise variances must be > 0, got {noise}")
    if np.any(powers < 0.0) or not np.all(np.isfinite(powers)):
        raise NegativePower(f"transmit powers must be finite and >= 0, got {powers}")
    return gains * np.sqrt(powers) / np.sqrt(noise)[:, None]


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
    _stacked_cholesky_log2_det(s_gg.reshape(-1, len(given), len(given)))  # PD gate
    solved = np.linalg.solve(s_gg, block(given, keep))
    cond = block(keep, keep) - block(keep, given) @ solved
    return 0.5 * (cond + cond.swapaxes(-1, -2))
