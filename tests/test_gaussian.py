import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import _cholesky_log2_det, det_cofactor
from relaycap.errors import (
    DimensionMismatch,
    NegativePower,
    NonPositiveNoise,
    NotPositiveDefinite,
)
from relaycap.gaussian import (
    PD_EPSILON,
    _stacked_cholesky_log2_det,
    conditional_covariance,
    conditional_mi_bits,
    joint_covariance,
    log2_det,
)


def random_spd(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.normal(size=(n, n))
    return a @ a.T + n * np.eye(n)


class TestSymMatrix:
    """The symmetric-matrix input checks of the public ``log2_det``."""

    def test_rejects_nonsquare(self):
        with pytest.raises(DimensionMismatch):
            log2_det(np.ones((2, 3)))

    def test_rejects_empty(self):
        with pytest.raises(DimensionMismatch):
            log2_det(np.zeros((0, 0)))

    def test_rejects_asymmetry_beyond_tolerance(self):
        m = np.eye(2)
        m[0, 1] = 1e-9
        with pytest.raises(ValueError, match="not symmetric"):
            log2_det(m)

    def test_accepts_asymmetry_within_tolerance(self):
        m = np.eye(2)
        m[0, 1] = 5e-13
        assert log2_det(m) == pytest.approx(0.0, abs=1e-12)


class TestLog2Det:
    def test_identity_is_exactly_zero(self):
        assert log2_det(np.eye(3)) == 0.0

    def test_diag_2_2(self):
        assert log2_det(np.diag([2.0, 2.0])) == pytest.approx(2.0, abs=1e-15)

    def test_matches_cofactor_oracle_on_random_spd(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            m = random_spd(rng, 5)
            want = math.log2(det_cofactor(m))
            assert log2_det(m) == pytest.approx(want, rel=1e-10)

    def test_rejects_indefinite(self):
        # eigenvalues 3 and -1
        with pytest.raises(NotPositiveDefinite):
            log2_det(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_rejects_singular(self):
        with pytest.raises(NotPositiveDefinite):
            log2_det(np.array([[1.0, 1.0], [1.0, 1.0]]))

    def test_pivot_threshold_is_pd_epsilon(self):
        assert log2_det(np.diag([1.0, 10.0 * PD_EPSILON])) == pytest.approx(
            math.log2(10.0 * PD_EPSILON), rel=1e-12
        )
        with pytest.raises(NotPositiveDefinite):
            log2_det(np.diag([1.0, PD_EPSILON]))

    def test_nan_rejected_not_propagated(self):
        m = np.full((2, 2), math.nan)
        with pytest.raises(NotPositiveDefinite):
            log2_det(m)

    @given(c=st.floats(min_value=1e-3, max_value=1e3), seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_scaling_identity(self, c, seed):
        m = random_spd(np.random.default_rng(seed), 4)
        got = log2_det(c * m)
        assert got == pytest.approx(4 * math.log2(c) + log2_det(m), abs=1e-9)


class TestStackedCholesky:
    """The stacked kernel against the scalar one, matrix by matrix."""

    @given(seed=st.integers(0, 10_000), n=st.integers(1, 7), count=st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_matches_scalar_kernel_matrix_by_matrix(self, seed, n, count):
        rng = np.random.default_rng(seed)
        stack = []
        for _ in range(count):
            d = 10.0 ** rng.uniform(-2.0, 2.0, size=n)  # D M D: SPD, unevenly scaled
            stack.append(random_spd(rng, n) * np.outer(d, d))
        got = _stacked_cholesky_log2_det(np.array(stack))
        want = [_cholesky_log2_det(m) for m in stack]
        assert got.tolist() == pytest.approx(want, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize(
        "m",
        [
            np.diag([1.0, PD_EPSILON]),
            np.diag([1.0, 10.0 * PD_EPSILON]),
            np.array([[1.0, 2.0], [2.0, 1.0]]),
            np.full((2, 2), math.nan),
        ],
        ids=["at-epsilon", "above-epsilon", "indefinite", "nan"],
    )
    def test_same_pivot_rule_and_message(self, m):
        try:
            want = _cholesky_log2_det(m)
        except NotPositiveDefinite as err:
            with pytest.raises(NotPositiveDefinite, match=re.escape(str(err))):
                _stacked_cholesky_log2_det(m[None])
        else:
            assert _stacked_cholesky_log2_det(m[None]).tolist() == pytest.approx([want])

    def test_raises_at_the_first_failing_pivot_step(self):
        # Matrix 1 fails at its last pivot, matrices 2 and 3 already at their
        # second: that step raises, naming the lower of the two.
        late, early = np.diag([1.0, 1.0, -1.0]), np.diag([1.0, -2.0, 1.0])
        with pytest.raises(NotPositiveDefinite) as want:
            _cholesky_log2_det(early)
        with pytest.raises(NotPositiveDefinite) as got:
            _stacked_cholesky_log2_det(np.array([np.eye(3), late, early, early]))
        assert str(got.value) == str(want.value)
        assert got.value.index == 2

    @pytest.mark.parametrize(
        "bad",
        [
            np.array([[1.0, math.nan, 0.0], [math.nan, 1.0, 0.0], [0.0, 0.0, 1.0]]),
            np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
        ],
        ids=["nan", "indefinite"],
    )
    def test_earlier_failure_is_reported_without_warnings(self, bad):
        # ``bad`` fails at pivot 1, the next matrix already at pivot 0 and the
        # one after only at pivot 2: step 0 raises, for the next matrix,
        # without a warning from ``bad``.
        spd = random_spd(np.random.default_rng(3), 3)
        late, early = np.diag([1.0, 1.0, -1.0]), np.diag([-1.0, 1.0, 1.0])
        stack = np.array([np.eye(3), spd, bad, early, late, spd])
        with pytest.raises(NotPositiveDefinite) as want:
            _cholesky_log2_det(early)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotPositiveDefinite) as got:
                _stacked_cholesky_log2_det(stack)
        assert str(got.value) == str(want.value)
        assert got.value.index == 3


class TestConditionalMiBits:
    def test_zero_power_is_exactly_zero(self):
        assert conditional_mi_bits([[1.0]], [0.0], [1.0]) == 0.0

    def test_single_tx_two_rx(self):
        got = conditional_mi_bits([[1.0], [1.0]], [1.0], [1.0, 1.0])
        assert got == pytest.approx(0.5 * math.log2(3.0), abs=1e-12)

    def test_single_tx_three_rx_closed_form(self):
        n = (0.5, 1.0, 2.0)
        p1 = 3.0
        got = conditional_mi_bits([[1.0], [1.0], [1.0]], [p1], list(n))
        want = 0.5 * math.log2(1.0 + p1 * sum(1.0 / x for x in n))
        assert got == pytest.approx(want, abs=1e-12)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_rank_one_identity(self, seed):
        # Matrix determinant lemma: one transmitter reduces to a scalar log.
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 6))
        lam = rng.uniform(0.1, 10.0, size=k)
        noise = rng.uniform(0.1, 10.0, size=k)
        p = float(rng.uniform(0.0, 10.0))
        got = conditional_mi_bits(np.sqrt(lam)[:, None], [p], noise)
        want = 0.5 * math.log2(1.0 + p * float(np.sum(lam / noise)))
        assert got == pytest.approx(want, abs=1e-10)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_power(self, seed):
        rng = np.random.default_rng(seed)
        n_rx, n_tx = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        gains = rng.uniform(0.1, 3.0, size=(n_rx, n_tx))
        noise = rng.uniform(0.5, 2.0, size=n_rx)
        p = rng.uniform(0.0, 5.0, size=n_tx)
        base = conditional_mi_bits(gains, p, noise)
        for i in range(n_tx):
            bumped = p.copy()
            bumped[i] += 0.5
            assert conditional_mi_bits(gains, bumped, noise) >= base - 1e-12

    @given(
        seed=st.integers(0, 10_000),
        log10_c=st.floats(min_value=-200.0, max_value=200.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_scaling_powers_and_noises_changes_nothing(self, seed, log10_c):
        # Only the ratios P/N enter, at any absolute scale of the inputs.
        rng = np.random.default_rng(seed)
        n_rx, n_tx = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        gains = rng.uniform(0.1, 3.0, size=(n_rx, n_tx))
        noise = 10.0 ** rng.uniform(-1.0, 1.0, size=n_rx)
        p = 10.0 ** rng.uniform(-1.0, 1.0, size=n_tx)
        c = 10.0**log10_c
        want = conditional_mi_bits(gains, p, noise)
        got = conditional_mi_bits(gains, c * p, c * noise)
        assert got == pytest.approx(want, rel=0.0, abs=1e-12)

    def test_rejects_nonpositive_noise(self):
        with pytest.raises(NonPositiveNoise):
            conditional_mi_bits([[1.0]], [1.0], [0.0])

    def test_rejects_negative_power(self):
        with pytest.raises(NegativePower):
            conditional_mi_bits([[1.0]], [-1.0], [1.0])

    @pytest.mark.parametrize(
        "gain, power", [(1.0, math.inf), (0.0, math.inf), (1.0, math.nan)]
    )
    def test_rejects_nonfinite_power(self, gain, power):
        with pytest.raises(NegativePower):
            conditional_mi_bits([[gain]], [power], [1.0])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            conditional_mi_bits([[1.0, 1.0]], [1.0], [1.0])
        with pytest.raises(DimensionMismatch, match="must be vectors"):
            conditional_mi_bits([[1.0]], [[1.0]], [1.0])


class TestCovarianceHelpers:
    def test_joint_covariance_shape_check(self):
        with pytest.raises(DimensionMismatch):
            joint_covariance(np.ones((2, 3)), np.ones(2))

    def test_joint_covariance_rejects_negative_variance(self):
        with pytest.raises(ValueError, match="factor variances must be >= 0"):
            joint_covariance(np.eye(2), [1.0, -1.0])

    def test_joint_covariance_of_independent_factors(self):
        sigma = joint_covariance(np.eye(3), [1.0, 2.0, 3.0])
        assert np.allclose(sigma, np.diag([1.0, 2.0, 3.0]))

    def test_conditioning_on_nothing_returns_marginal(self):
        sigma = np.diag([1.0, 2.0])
        out = conditional_covariance(sigma, keep=[1], given=[])
        assert out == pytest.approx(np.array([[2.0]]))

    def test_schur_complement_known_case(self):
        # X = Z1, Y = Z1 + Z2 with unit variances: var(X | Y) = 1/2.
        sigma = np.array([[1.0, 1.0], [1.0, 2.0]])
        out = conditional_covariance(sigma, keep=[0], given=[1])
        assert out[0, 0] == pytest.approx(0.5, abs=1e-12)

    def test_singular_given_block_rejected(self):
        sigma = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 1.0, 1.0]])
        with pytest.raises(NotPositiveDefinite):
            conditional_covariance(sigma, keep=[0], given=[1, 2])

    def test_stacks_match_one_matrix_at_a_time(self):
        rng = np.random.default_rng(11)
        coefficients = rng.normal(size=(4, 5, 6))
        variances = rng.uniform(0.1, 2.0, size=(4, 6))
        sigma = joint_covariance(coefficients, variances)
        cond = conditional_covariance(sigma, keep=[0, 2, 4], given=[1, 3])
        assert sigma.shape == (4, 5, 5) and cond.shape == (4, 3, 3)
        for k in range(4):
            one = joint_covariance(coefficients[k], variances[k])
            np.testing.assert_allclose(sigma[k], one, rtol=1e-12, atol=1e-12)
            want = conditional_covariance(one, keep=[0, 2, 4], given=[1, 3])
            np.testing.assert_allclose(cond[k], want, rtol=1e-12, atol=1e-12)

    def test_singular_given_block_rejected_in_a_stack(self):
        singular = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 1.0, 1.0]])
        with pytest.raises(NotPositiveDefinite) as err:
            conditional_covariance(np.array([np.eye(3), singular]), keep=[0], given=[1, 2])
        assert err.value.index == 1
