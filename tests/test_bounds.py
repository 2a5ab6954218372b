import dataclasses
import itertools
import json
import math
import re
import statistics
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import exact
import oracles
import relaycap as rc
from oracles import _frontier as scalar_frontier
from oracles import (
    achievability_suite_by_samples,
    alpha_suite_by_sets,
    beta_suite_by_sets,
    cf_rate_by_network,
    constraint_instances,
    constraint_table_by_loops,
    convergence_sweep_by_rows,
    coordinate_descent_by_bisection,
    cut_rate_by_covariance,
    cut_table_by_cuts,
    det_cofactor,
    determinant_by_network,
    determinant_lemma_draws,
    determinant_lemma_suite_by_samples,
    monotonicity_suite_by_samples,
    partition_dp_by_masks,
    partitions,
    push_factors,
    random_network,
    relay_correlation_mi_bits_by_points,
    sample_feasible_q,
    single_relay_covariance_bits_by_points,
    subset_sums_by_columns,
    table_by_partition_scan,
)
from relaycap import bounds, cli, enumeration, gaussian, partition_dp, selftest, topology
from relaycap.bounds import DESCENT_MAX_CYCLES, _ConstraintTable
from relaycap.errors import (
    GuardExceeded,
    Infeasible,
    InvalidAlpha,
    InvalidReceiver,
    NegativePower,
    NonPositiveNoise,
    NonPositiveQ,
    NotPositiveDefinite,
    VerificationFailure,
)


def _full_gains(t):
    g = np.ones((t, t))
    np.fill_diagonal(g, 0.0)
    return g


def _net(nodes, gains=None):
    return rc.from_gains(nodes, _full_gains(len(nodes)) if gains is None else gains)


OFFSETS = tuple((i - 10) / 10.0 for i in range(21))


class TestCutRate:
    def test_point_to_point(self):
        net = _net([rc.source(1, 1.0), rc.destination(2, 1.0)])
        got = rc.cut_rate(net, rc.CutSpec(tx_side=frozenset({1})))
        assert got == pytest.approx(0.5, abs=1e-12)

    def test_three_node_source_cut(self):
        net = _net([rc.source(1, 1.0), rc.relay(2, 1.0, 1.0), rc.destination(3, 1.0)])
        got = rc.cut_rate(net, rc.CutSpec(tx_side=frozenset({1})))
        assert got == pytest.approx(0.5 * math.log2(3.0), abs=1e-12)

    def test_four_node_source_cut_closed_form(self):
        nodes = [
            rc.source(1, 2.0),
            rc.relay(2, 1.0, 0.5),
            rc.relay(3, 1.0, 2.0),
            rc.destination(4, 4.0),
        ]
        net = _net(nodes)
        want = 0.5 * math.log2(1.0 + 2.0 * (1 / 0.5 + 1 / 2.0 + 1 / 4.0))
        got = rc.cut_rate(net, rc.CutSpec(tx_side=frozenset({1})))
        assert got == pytest.approx(want, abs=1e-12)

    def test_cut_must_contain_source(self):
        with pytest.raises(ValueError, match="source"):
            rc.CutSpec(tx_side=frozenset({2}))

    def test_cut_must_exclude_destination(self, reference_network):
        with pytest.raises(ValueError, match="destination"):
            rc.cut_rate(reference_network, rc.CutSpec(tx_side=frozenset({1, 4})))

    def test_cut_rejects_unknown_nodes(self, reference_network):
        with pytest.raises(ValueError, match="outside"):
            rc.cut_rate(reference_network, rc.CutSpec(tx_side=frozenset({1, 9})))


class TestSourceCutBound:
    def test_reference_is_one_bit(self, reference_network):
        assert rc.source_cut_bound(reference_network) == pytest.approx(1.0, abs=1e-12)

    def test_zero_source_power(self):
        net = _net([rc.source(1, 0.0), rc.relay(2, 1.0, 1.0), rc.destination(3, 1.0)])
        assert rc.source_cut_bound(net) == 0.0

    def test_doubling_source_gains_increases_bound(self, reference_network):
        g = np.array(reference_network.gains)
        g[0, 1:] *= 2.0
        g[1:, 0] *= 2.0
        louder = rc.from_gains(list(reference_network.nodes), g)
        assert rc.source_cut_bound(louder) > rc.source_cut_bound(reference_network)

    def test_independent_of_relay_power_scale(self, reference_network):
        base = rc.source_cut_bound(reference_network)
        for gamma in (1.0, 10.0, 1e4):
            assert rc.source_cut_bound(rc.scaled(reference_network, gamma)) == base


class TestMinCutBound:
    def test_three_node_enumerates_two_cuts(self):
        net = _net([rc.source(1, 1.0), rc.relay(2, 1.0, 1.0), rc.destination(3, 1.0)])
        table = rc.cut_rate_table(net)
        assert [c.sorted_ids() for c, _ in table] == [(1,), (1, 2)]

    def test_strong_relays_make_source_cut_binding(self, reference_network):
        _, argmin = rc.min_cut_bound(rc.scaled(reference_network, 1e4))
        assert argmin.sorted_ids() == (1,)

    def test_deaf_destination_collapses_receiver_cut(self):
        nodes = [
            rc.source(1, 1.0),
            rc.relay(2, 1.0, 1.0),
            rc.relay(3, 1.0, 1.0),
            rc.destination(4, 1.0),
        ]
        g = _full_gains(4)
        g[:, 3] = 1e-9  # destination barely hears anyone
        g[3, :] = 1e-9
        np.fill_diagonal(g, 0.0)
        _, argmin = rc.min_cut_bound(rc.from_gains(nodes, g))
        assert argmin.sorted_ids() == (1, 2, 3)

    def test_guard_refuses_large_networks(self):
        t = 12
        nodes = [rc.source(1, 1.0)]
        nodes += [rc.relay(j, 1.0, 1.0) for j in range(2, t)]
        nodes.append(rc.destination(t, 1.0))
        net = _net(nodes)
        with pytest.raises(GuardExceeded):
            rc.min_cut_bound(net)
        val, argmin = rc.min_cut_bound(net, override_guard=True)
        assert argmin.sorted_ids() == (1,)
        assert val == pytest.approx(0.5 * math.log2(12.0), abs=1e-9)


class TestSingleRelayIndependence:
    def test_closed_form_at_zero(self):
        rep = rc.verify_single_relay_independence(1.0, 1.0, 1.0, 1.0, (0.0,))
        assert rep.covariance_bits[0] == pytest.approx(0.5 * math.log2(3.0), abs=1e-12)

    def test_extreme_alpha_gives_zero_bits(self):
        rep = rc.verify_single_relay_independence(1.0, 4.0, 1.0, 2.0, (-0.5, 0.0, 0.5))
        assert rep.closed_form_bits[0] == pytest.approx(0.0, abs=1e-15)
        assert rep.covariance_bits[0] == pytest.approx(0.0, abs=1e-12)
        assert rep.argmax_alpha == 0.0

    def test_argmax_on_coarse_grid(self):
        rep = rc.verify_single_relay_independence(2.0, 2.0, 1.0, 1.0, (-0.5, 0.0, 0.5))
        assert rep.argmax_alpha == 0.0

    def test_invalid_alpha_rejected(self):
        with pytest.raises(InvalidAlpha):
            rc.verify_single_relay_independence(1.0, 4.0, 1.0, 1.0, (0.6,))

    @pytest.mark.parametrize(
        "args, error, message",
        [
            ((1.0, 1.0, 0.0, 1.0, (0.0,)), NonPositiveNoise, "noise variances must be > 0"),
            ((1.0, 1.0, 1.0, -1.0, (0.0,)), NonPositiveNoise, "noise variances must be > 0"),
            ((0.0, 1.0, 1.0, 1.0, (0.0,)), NegativePower, "powers must be > 0 here"),
            ((1.0, -1.0, 1.0, 1.0, (0.0,)), NegativePower, "powers must be > 0 here"),
            ((1.0, 1.0, 1.0, 1.0, ()), ValueError, "^alpha grid is empty$"),
            # Without 0 on the grid the maximum sits elsewhere.
            ((1.0, 1.0, 1.0, 1.0, (0.5,)), VerificationFailure, "MI maximum sits at alpha=0.5"),
        ],
    )
    def test_bad_inputs_rejected(self, args, error, message):
        with pytest.raises(error, match=message):
            rc.verify_single_relay_independence(*args)

    def test_route_agreement_over_grid(self):
        rep = rc.verify_single_relay_independence(
            3.0, 0.5, 0.7, 2.0, tuple(0.9 * math.sqrt(6.0) * o for o in OFFSETS)
        )
        assert rep.max_abs_diff_bits < 1e-9

    def test_covariance_route_matches_per_point_oracle_on_default_grid(self):
        grid = (selftest._ALPHA_P1, selftest._ALPHA_P2, selftest._ALPHA_N2, selftest._ALPHA_N3)
        for p1, p2, n2, n3 in itertools.product(*grid):
            alphas = tuple(0.9 * math.sqrt(p1 / p2) * o for o in selftest.DEFAULT_OFFSETS)
            got = rc.verify_single_relay_independence(p1, p2, n2, n3, alphas).covariance_bits
            want = single_relay_covariance_bits_by_points(p1, p2, n2, n3, alphas)
            assert len(got) == len(want) == 21
            assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-15


def test_dual_route_checks_are_reexported_from_selftest():
    for name in (
        "verify_single_relay_independence",
        "verify_relay_correlation_invariance",
        "SingleRelayIndependenceReport",
        "RelayCorrelationInvarianceReport",
    ):
        assert getattr(rc, name) is getattr(selftest, name)
        assert not hasattr(bounds, name)


class TestRelayCorrelationInvariance:
    def test_equal_noises_closed_form(self):
        rep = rc.verify_relay_correlation_invariance(1.0, 1.0, 1.0, 1.0, OFFSETS)
        assert rep.expected_bits == pytest.approx(1.0, abs=1e-12)
        assert rep.max_abs_dev_bits < 1e-9

    @pytest.mark.parametrize(
        "args, error, message",
        [
            ((1.0, 1.0, 1.0, 0.0, (0.0,)), NonPositiveNoise, "noise variances must be > 0"),
            ((0.0, 1.0, 1.0, 1.0, (0.0,)), NegativePower, "source power must be > 0 here"),
            ((1.0, 1.0, 1.0, 1.0, ()), ValueError, "^beta grid is empty$"),
        ],
    )
    def test_bad_inputs_rejected(self, args, error, message):
        with pytest.raises(error, match=message):
            rc.verify_relay_correlation_invariance(*args)

    def test_single_point_beta(self):
        rep = rc.verify_relay_correlation_invariance(2.0, 0.5, 1.0, 4.0, (0.7,))
        want = 0.5 * math.log2(1.0 + 2.0 * (2.0 + 1.0 + 0.25))
        assert rep.mi_bits[0] == pytest.approx(want, abs=1e-9)

    def test_covariance_route_matches_per_point_oracle_on_default_grid(self):
        grid = (selftest._BETA_P1, selftest._BETA_N2, selftest._BETA_N3, selftest._BETA_N4)
        betas = selftest.DEFAULT_OFFSETS
        for p1, n2, n3, n4 in itertools.product(*grid):
            got = rc.verify_relay_correlation_invariance(p1, n2, n3, n4, betas).mi_bits
            want = relay_correlation_mi_bits_by_points(p1, n2, n3, n4, betas)
            assert len(got) == len(want) == 21
            assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-15


def test_dual_route_covariance_routes_factor_each_grid_in_one_call(monkeypatch):
    # One stacked log-det per routine, and one stacked positive-definiteness
    # gate inside conditional_covariance: no kernel call per grid point.
    kernel = gaussian._stacked_cholesky_log2_det
    log_dets, gates = [], []

    def counting(calls):
        def count(stack):
            calls.append(len(stack))
            return kernel(stack)

        return count

    monkeypatch.setattr(selftest, "_stacked_cholesky_log2_det", counting(log_dets))
    monkeypatch.setattr(gaussian, "_stacked_cholesky_log2_det", counting(gates))
    rc.verify_single_relay_independence(1.0, 1.0, 1.0, 1.0, OFFSETS)
    rc.verify_relay_correlation_invariance(1.0, 1.0, 1.0, 1.0, OFFSETS)
    assert log_dets == gates == [21, 21]


#: Grids for the two dual-route suites: the defaults (None), the CLI's
#: custom ones, offsets only a library caller can pass (InvalidAlpha), and
#: beta grids on which the invariance check fails.
ALPHA_GRIDS = [None, (-1.0, 0.0, 1.0), (0.0,), (0.0, 1.2), (-1.2, 0.0, 0.5)]
BETA_GRIDS = [None, (-0.5, 0.0, 0.5), (0.0,), (-1e6, 0.0), (0.0, 1e8), (0.0, 1e200)]


def _alpha_batches():
    """The alpha suite's batches on the default offsets, one per p1:
    (sets, each set's alpha grid)."""
    for p1 in selftest._ALPHA_P1:
        grid = (selftest._ALPHA_P2, selftest._ALPHA_N2, selftest._ALPHA_N3)
        sets = list(itertools.product([p1], *grid))
        offsets = selftest.DEFAULT_OFFSETS
        yield sets, [tuple(0.9 * math.sqrt(p1 / p2) * o for o in offsets) for _, p2, *_ in sets]


def _beta_batches(betas=selftest.DEFAULT_OFFSETS):
    """The beta suite's batches: (sets, betas)."""
    for p1 in selftest._BETA_P1:
        grid = (selftest._BETA_N2, selftest._BETA_N3, selftest._BETA_N4)
        yield list(itertools.product([p1], *grid)), betas


class TestBatchedDualRouteSuites:
    """The two dual-route suites, one batch per p1, against their serial
    oracles (one public call per parameter set)."""

    @pytest.mark.parametrize("offsets", ALPHA_GRIDS)
    def test_alpha_suite_matches_serial_suite(self, offsets):
        assert selftest.alpha_suite(offsets) == alpha_suite_by_sets(offsets)

    @pytest.mark.parametrize("betas", BETA_GRIDS)
    def test_beta_suite_matches_serial_suite(self, betas):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the 1e200 grid overflows
            assert selftest.beta_suite(betas) == beta_suite_by_sets(betas)

    def test_offsets_past_the_power_limit_fail_with_invalid_alpha(self):
        got = selftest.alpha_suite((0.0, 1.2))
        assert not got.passed
        assert got.detail == (
            "p1=0.5 p2=0.25 n2=0.5 n3=0.25: alpha=1.5273506473629428 outside the "
            "power-feasible interval [-1.41421, 1.41421]"
        )

    def test_failing_grid_names_the_first_set(self):
        got = selftest.beta_suite((0.0, 1e8))
        assert got == selftest.CheckResult(
            "relay-correlation-invariance",
            False,
            "p1=0.5 n2=0.5 n3=0.5 n4=1.0: pivot 0.000000e+00 at index 1 is <= epsilon 1e-12",
        )

    @pytest.mark.parametrize(
        "suite, serial, noises, want",
        [
            (
                "alpha_suite",
                alpha_suite_by_sets,
                (0.5, 1.0),
                "p1=0.5 p2=0.25 n2=0.5 n3=1.0: covariance route disagrees with closed form "
                "by nan bits at alpha={!r} (p1=0.5, p2=0.25, n2=0.5, n3=1.0)",
            ),
            (
                "beta_suite",
                beta_suite_by_sets,
                (0.5, 0.5, 2.0),
                "p1=0.5 n2=0.5 n3=0.5 n4=2.0: MI moved by nan bits at beta={!r} "
                "(p1=0.5, n2=0.5, n3=0.5, n4=2.0): relay correlation must not matter",
            ),
        ],
    )
    def test_nan_route_value_fails_at_its_point(self, monkeypatch, suite, serial, noises, want):
        # The covariance route reads NaN at grid point 3 of every set with
        # these noises. Python's max would drop it: it is not the first.
        real = selftest._covariance_route

        def nan_at_point_3(rows, variances, keep, given, set_noises):
            bits = real(rows, variances, keep, given, set_noises)
            return [
                row[:3] + (math.nan,) + row[4:] if tuple(n) == noises else row
                for row, n in zip(bits, set_noises)
            ]

        monkeypatch.setattr(selftest, "_covariance_route", nan_at_point_3)
        got = getattr(selftest, suite)()
        point = (0.9 * math.sqrt(0.5 / 0.25) if suite == "alpha_suite" else 1.0) * OFFSETS[3]
        assert got == serial() == selftest.CheckResult(got.name, False, want.format(point))

    def test_stacked_failure_of_a_later_set_is_not_reported(self, monkeypatch):
        # Tiny n3 and n4 make a later set's conditioned covariance singular,
        # so its factorization fails inside the batch, while a set-by-set
        # run first meets the first set's failed invariance check.
        monkeypatch.setattr(selftest, "_BETA_N3", (0.5, 1e-20))
        monkeypatch.setattr(selftest, "_BETA_N4", (1.0, 1e-20))
        betas = (-1e6, 0.0)
        sets, _ = next(_beta_batches(betas))
        with pytest.raises(NotPositiveDefinite):
            selftest._relay_correlation_reports(sets, betas)
        got = selftest.beta_suite(betas)
        assert got == beta_suite_by_sets(betas)
        assert got.detail.startswith("p1=0.5 n2=0.5 n3=0.5 n4=1.0: MI moved by 1.761e-04 bits")

    def test_batch_reports_equal_public_calls(self):
        for sets, grids in _alpha_batches():
            assert selftest._single_relay_reports(sets, grids) == [
                rc.verify_single_relay_independence(*one, alphas)
                for one, alphas in zip(sets, grids)
            ]
        for sets, betas in _beta_batches():
            assert selftest._relay_correlation_reports(sets, betas) == [
                rc.verify_relay_correlation_invariance(*one, betas) for one in sets
            ]

    @pytest.mark.parametrize(
        "suite, batch, want",
        [
            ("alpha_suite", "_single_relay_reports", [64] * 4),
            ("beta_suite", "_relay_correlation_reports", [27] * 5),
        ],
    )
    def test_one_batch_call_per_p1(self, monkeypatch, suite, batch, want):
        real, sizes = getattr(selftest, batch), []

        def counting(sets, grid):
            sizes.append(len(sets))
            return real(sets, grid)

        monkeypatch.setattr(selftest, batch, counting)
        assert getattr(selftest, suite)().passed
        assert sizes == want


class TestBlockDecodeRate:
    def test_single_relay_block(self, reference_network):
        got = rc.block_decode_rate(reference_network, (2,), 3)
        assert got == pytest.approx(0.5 * math.log2(1.5), abs=1e-12)

    def test_empty_block_is_zero(self, reference_network):
        assert rc.block_decode_rate(reference_network, (), 3) == 0.0

    def test_receiver_in_block_rejected(self, reference_network):
        with pytest.raises(InvalidReceiver):
            rc.block_decode_rate(reference_network, (2, 3), 2)

    def test_source_cannot_receive(self, reference_network):
        with pytest.raises(InvalidReceiver):
            rc.block_decode_rate(reference_network, (2,), 1)

    @pytest.mark.parametrize("block", [(1,), (4,), (2, 4), (2, 2)])
    def test_block_holds_relays_only(self, reference_network, block):
        with pytest.raises(ValueError, match=re.escape(f"block {block} must hold relays only")):
            rc.block_decode_rate(reference_network, block, 3)

    def test_monotone_in_relay_power(self, reference_network):
        vals = [
            rc.block_decode_rate(rc.scaled(reference_network, g), (2,), 4)
            for g in (1.0, 10.0, 100.0)
        ]
        assert vals == sorted(vals)
        assert vals[0] < vals[-1]


class TestQuantizedCovarianceDet:
    def test_scalar_case(self, single_relay_network):
        q = rc.QuantizationVector.uniform(0.5, (2,))
        got = rc.quantized_covariance_det(single_relay_network, (2,), q)
        assert got == pytest.approx(1.0 + 1.0 + 0.5, abs=1e-12)

    def test_zero_source_power_gives_diagonal_product(self):
        net = _net([rc.source(1, 0.0), rc.relay(2, 1.0, 2.0), rc.relay(3, 1.0, 3.0), rc.destination(4, 1.0)])
        q = rc.QuantizationVector.per_relay({2: 0.5, 3: 0.25})
        got = rc.quantized_covariance_det(net, (2, 3), q)
        assert got == pytest.approx(2.5 * 3.25, rel=1e-12)

    def test_empty_subset_rejected(self, reference_network):
        q = rc.QuantizationVector.uniform(1.0, (2, 3))
        with pytest.raises(ValueError, match="^subset must be nonempty$"):
            rc.quantized_covariance_det(reference_network, (), q)

    @pytest.mark.parametrize("s", [(1,), (4,), (2, 1), (2, 2)])
    def test_subset_holds_relays_only(self, reference_network, s):
        q = rc.QuantizationVector.per_relay({i: 1.0 for i in s})
        with pytest.raises(ValueError, match=re.escape(f"subset {s} must hold relays only")):
            rc.quantized_covariance_det(reference_network, s, q)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_matches_cofactor_and_closed_form(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 7))
        lam = rng.uniform(0.1, 10.0, size=d)
        noise = rng.uniform(0.5, 2.0, size=d)
        qv = rng.uniform(0.01, 100.0, size=d)
        p1 = float(rng.uniform(0.1, 5.0))
        nodes = [rc.source(1, p1)]
        nodes += [rc.relay(2 + k, 1.0, float(noise[k])) for k in range(d)]
        nodes.append(rc.destination(d + 2, 1.0))
        g = _full_gains(d + 2)
        g[0, 1 : d + 1] = lam
        g[1 : d + 1, 0] = lam
        net = rc.from_gains(nodes, g)
        s = tuple(range(2, d + 2))
        q = rc.QuantizationVector(entries=tuple(zip(s, qv.tolist())))
        got = rc.quantized_covariance_det(net, s, q)
        u = np.sqrt(lam)
        oracle = det_cofactor(np.diag(noise + qv) + p1 * np.outer(u, u))
        closed = float(np.prod(noise + qv) * (1.0 + p1 * np.sum(lam / (noise + qv))))
        assert got == pytest.approx(oracle, rel=1e-10)
        assert got == pytest.approx(closed, rel=1e-10)


class TestQuantizationVector:
    def test_rejects_nonpositive(self):
        with pytest.raises(NonPositiveQ):
            rc.QuantizationVector.uniform(0.0, (2, 3))
        with pytest.raises(NonPositiveQ):
            rc.QuantizationVector.per_relay({2: -1.0})

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            rc.QuantizationVector(entries=((2, 1.0), (2, 2.0)))

    def test_sorted_and_uniform(self):
        q = rc.QuantizationVector(entries=((3, 1.0), (2, 1.0)))
        assert q.ids == (2, 3)

    def test_scaled_by(self):
        q = rc.QuantizationVector.per_relay({2: 1.0, 3: 2.0}).scaled_by(10.0)
        assert q.values == (10.0, 20.0)
        with pytest.raises(ValueError, match="^scale must be > 0, got 0.0$"):
            q.scaled_by(0.0)

    def test_get(self):
        q = rc.QuantizationVector.per_relay({2: 1.0, 3: 2.0})
        assert (q.get(2), q.get(3)) == (1.0, 2.0)
        with pytest.raises(KeyError, match="no quantization entry for relay 4"):
            q.get(4)


@pytest.mark.parametrize("bad", [2.7, 2.0, True, "2", np.int64(2), 0])
def test_ids_are_never_truncated(reference_network, bad):
    # What NodeSpec refuses as an id is refused wherever an id is taken;
    # CutSpec({1, 2.7}) used to evaluate cut {1,2}.
    q = rc.QuantizationVector.uniform(1.0, (2, 3))
    message = f"^node id must be a positive integer, got {re.escape(repr(bad))}$"
    for call in (
        lambda: rc.NodeSpec(id=bad, role="relay"),
        lambda: rc.CutSpec(tx_side=(1, bad)),
        lambda: rc.QuantizationVector(entries=((bad, 1.0), (3, 1.0))),
        lambda: rc.block_decode_rate(reference_network, (bad,), 4),
        lambda: rc.block_decode_rate(reference_network, (3,), bad),
        lambda: rc.quantized_covariance_det(reference_network, (bad, 3), q),
    ):
        with pytest.raises(ValueError, match=message):
            call()


class TestCfFeasible:
    def test_single_relay_example(self, single_relay_network):
        ok, _ = rc.cf_feasible(
            single_relay_network, rc.QuantizationVector.uniform(0.01, (2,))
        )
        assert ok

    def test_frontier_at_0004(self, single_relay_network):
        ok_low, _ = rc.cf_feasible(
            single_relay_network, rc.QuantizationVector.uniform(0.0039, (2,))
        )
        ok_high, _ = rc.cf_feasible(
            single_relay_network, rc.QuantizationVector.uniform(0.0041, (2,))
        )
        assert not ok_low
        assert ok_high

    def test_huge_q_feasible_both_modes(self, reference_network):
        q = rc.QuantizationVector.uniform(1e9, (2, 3))
        for quantifier in ("forall", "exists"):
            ok, _ = rc.cf_feasible(reference_network, q, quantifier)
            assert ok

    def test_powerless_relays_never_feasible(self, powerless_relay_network):
        for qval in (1e-3, 1.0, 1e6, 1e15):
            ok, margins = rc.cf_feasible(
                powerless_relay_network, rc.QuantizationVector.uniform(qval, (2,))
            )
            assert not ok
            assert margins[0].margin_log2 < 0.0

    def test_diagnostics_cover_each_subset_in_order(self, reference_network):
        q = rc.QuantizationVector.uniform(5.0, (2, 3))
        ok, margins = rc.cf_feasible(reference_network, q)
        assert [m.instance.s for m in margins] == [(2,), (3,), (2, 3)]

    def test_quantifier_validated(self, reference_network):
        q = rc.QuantizationVector.uniform(1.0, (2, 3))
        with pytest.raises(ValueError, match="quantifier"):
            rc.cf_feasible(reference_network, q, "some")

    def test_vector_must_cover_relays(self, reference_network):
        with pytest.raises(ValueError, match="covers"):
            rc.cf_feasible(reference_network, rc.QuantizationVector.uniform(1.0, (2,)))

    def test_guard(self):
        t = 12
        nodes = [rc.source(1, 1.0)]
        nodes += [rc.relay(j, 1.0, 1.0) for j in range(2, t)]
        nodes.append(rc.destination(t, 1.0))
        net = _net(nodes)
        q = rc.QuantizationVector.uniform(1.0, net.relay_ids)
        with pytest.raises(GuardExceeded):
            rc.cf_feasible(net, q)

    @given(seed=st.integers(0, 2_000))
    @settings(max_examples=25, deadline=None)
    def test_exists_region_contains_forall_region(self, seed):
        rng = np.random.default_rng(seed)
        net = random_network(rng, int(rng.integers(3, 6)))
        q = sample_feasible_q(rng, net, "forall")
        ok_forall, _ = rc.cf_feasible(net, q, "forall")
        ok_exists, _ = rc.cf_feasible(net, q, "exists")
        assert ok_forall
        assert ok_exists

    def test_forall_margin_never_above_exists_margin(self, reference_network):
        q = rc.QuantizationVector.uniform(3.0, (2, 3))
        _, m_forall = rc.cf_feasible(reference_network, q, "forall")
        _, m_exists = rc.cf_feasible(reference_network, q, "exists")
        for a, b in zip(m_forall, m_exists):
            assert a.margin_log2 <= b.margin_log2 + 1e-12


class TestCfRate:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_matches_parallel_awgn_closed_form(self, seed):
        rng = np.random.default_rng(seed)
        net = random_network(rng, int(rng.integers(3, 7)))
        qvals = 10.0 ** rng.uniform(-2, 2, size=len(net.relay_ids))
        q = rc.QuantizationVector(entries=tuple(zip(net.relay_ids, qvals.tolist())))
        p1 = net.nodes[0].power
        t = net.destination_id
        acc = net.gains[0, t - 1] / net.nodes[t - 1].noise
        for j, qj in zip(net.relay_ids, qvals):
            acc += net.gains[0, j - 1] / (net.nodes[j - 1].noise + qj)
        want = 0.5 * math.log2(1.0 + p1 * acc)
        assert rc.cf_rate(net, q) == pytest.approx(want, rel=1e-10)

    def test_infinite_quantization_leaves_destination_only(self, reference_network):
        q = rc.QuantizationVector.uniform(1e15, (2, 3))
        want = 0.5 * math.log2(2.0)  # direct link only
        assert rc.cf_rate(reference_network, q) == pytest.approx(want, abs=1e-9)

    def test_zero_source_power(self):
        net = _net([rc.source(1, 0.0), rc.relay(2, 1.0, 1.0), rc.destination(3, 1.0)])
        assert rc.cf_rate(net, rc.QuantizationVector.uniform(1.0, (2,))) == 0.0

    def test_strictly_decreasing_in_each_q(self, reference_network):
        q = rc.QuantizationVector.per_relay({2: 1.0, 3: 2.0})
        base = rc.cf_rate(reference_network, q)
        for rid in (2, 3):
            bumped = rc.QuantizationVector.per_relay({**dict(q.entries), rid: q.get(rid) * 1.01})
            assert rc.cf_rate(reference_network, bumped) < base

    def test_ids_must_match(self, reference_network):
        with pytest.raises(ValueError, match="covers"):
            rc.cf_rate(reference_network, rc.QuantizationVector.uniform(1.0, (2,)))

    def test_limit_consistency_small_q(self, reference_network):
        # Q -> 0 restores the full observations: rate approaches the bound.
        rate = rc.cf_rate(reference_network, rc.QuantizationVector.uniform(1e-8, (2, 3)))
        assert abs(rc.source_cut_bound(reference_network) - rate) < 1e-6


class TestOptimizeQuantization:
    def test_single_relay_exact_frontier(self, single_relay_network):
        q, rate = rc.optimize_quantization(single_relay_network)
        assert q.values[0] == pytest.approx(0.004, rel=1e-6)
        assert rate == pytest.approx(0.5 * math.log2(1 + 1 + 1 / 1.004), rel=1e-9)

    def test_stronger_relays_shrink_q_and_raise_rate(self, single_relay_network):
        q1, r1 = rc.optimize_quantization(single_relay_network)
        q2, r2 = rc.optimize_quantization(rc.scaled(single_relay_network, 100.0))
        assert q2.values[0] < q1.values[0]
        assert r2 > r1

    def test_returned_q_is_feasible(self, reference_network):
        q, _ = rc.optimize_quantization(reference_network)
        ok, _ = rc.cf_feasible(reference_network, q)
        assert ok

    def test_uniform_frontier_closed_form(self, reference_network):
        for gamma in (1.0, 100.0, 1e6):
            q, _ = rc.optimize_quantization(rc.scaled(reference_network, gamma))
            want = (2.0 + math.sqrt(4.0 + 3.0 * gamma)) / gamma
            assert q.values[0] == pytest.approx(want, rel=1e-8)

    def test_coordinate_descent_keeps_symmetry(self, reference_network):
        q, rate = rc.optimize_quantization(reference_network, "coordinate")
        assert q.values[0] == pytest.approx(q.values[1], rel=1e-8)
        q_u, rate_u = rc.optimize_quantization(reference_network, "uniform")
        assert rate >= rate_u - 1e-12

    def test_coordinate_descent_beats_uniform_when_asymmetric(self):
        nodes = [
            rc.source(1, 1.0),
            rc.relay(2, 1e4, 1.0),
            rc.relay(3, 2.0, 1.0),
            rc.destination(4, 1.0),
        ]
        net = _net(nodes)
        _, rate_u = rc.optimize_quantization(net, "uniform")
        q_c, rate_c = rc.optimize_quantization(net, "coordinate")
        assert rate_c >= rate_u - 1e-12
        ok, _ = rc.cf_feasible(net, q_c)
        assert ok

    def test_infeasible_raises(self, powerless_relay_network):
        for quantifier in ("forall", "exists"):
            with pytest.raises(Infeasible):
                rc.optimize_quantization(powerless_relay_network, quantifier=quantifier)

    @pytest.mark.parametrize("t", [3, 4])
    def test_tiny_noise_is_feasible(self, t):
        # Received source power, not noise, sets the frontier here: Q* is
        # near 1 while every noise is 1e-300.
        nodes = [rc.source(1, 1.0)] + [rc.relay(j, 1.0, 1e-300) for j in range(2, t)]
        net = _net(nodes + [rc.destination(t, 1e-300)])
        for quantifier in ("forall", "exists"):
            for mode in ("uniform", "coordinate"):
                q, _ = rc.optimize_quantization(net, mode, quantifier)
                ok, _ = rc.cf_feasible(net, q, quantifier)
                assert ok

    def test_mode_validated(self, reference_network):
        with pytest.raises(ValueError, match="mode"):
            rc.optimize_quantization(reference_network, mode="newton")

    @pytest.mark.parametrize("mode, method", [("uniform", "bisection"), ("coordinate", "descent")])
    def test_former_mode_names_rejected(self, reference_network, mode, method):
        # Each mode once had its method in its name; no alias keeps it.
        former = f"{mode}_{method}"
        with pytest.raises(ValueError, match="mode must be one of"):
            rc.optimize_quantization(reference_network, mode=former)
        with pytest.raises(ValueError, match="mode must be one of"):
            rc.build_rate_report(reference_network, mode=former)

    def test_no_relays_degenerate(self):
        net = _net([rc.source(1, 1.0), rc.destination(2, 1.0)])
        q, rate = rc.optimize_quantization(net)
        assert q.entries == ()
        assert rate == pytest.approx(0.5, abs=1e-12)


def _asymmetric_network(rng, t):
    """Random valid network with an asymmetric gain matrix and relay
    powers spread over three decades."""
    nodes = [rc.source(1, float(10.0 ** rng.uniform(-0.5, 0.5)))]
    nodes += [
        rc.relay(j, float(10.0 ** rng.uniform(0.0, 3.0)), float(10.0 ** rng.uniform(-0.5, 0.5)))
        for j in range(2, t)
    ]
    nodes.append(rc.destination(t, float(10.0 ** rng.uniform(-0.5, 0.5))))
    gains = 10.0 ** rng.uniform(-1.0, 1.0, size=(t, t))
    np.fill_diagonal(gains, 0.0)
    return rc.from_gains(nodes, gains)


def _cut_cases():
    rng = np.random.default_rng(20261018)
    for t in range(3, 10):
        yield pytest.param(_asymmetric_network(rng, t), id=f"asymmetric-T{t}")
    net = _asymmetric_network(rng, 6)
    nodes = list(net.nodes)
    nodes[2] = rc.relay(3, 0.0, nodes[2].noise)
    yield pytest.param(rc.from_gains(nodes, net.gains), id="powerless-relay-T6")


class TestWhitenedCutRates:
    @pytest.mark.parametrize("net", _cut_cases())
    def test_cut_table_matches_covariance_formula(self, net):
        table = rc.cut_rate_table(net)
        want = [cut_rate_by_covariance(net, cut) for cut, _ in table]
        assert [rate for _, rate in table] == pytest.approx(want, rel=0.0, abs=1e-9)
        want_cut = table[min(range(len(want)), key=want.__getitem__)][0]
        assert rc.min_cut_bound(net)[1] == want_cut

    @pytest.mark.parametrize("t", range(3, 13))
    def test_rank_one_cuts_are_exact(self, t):
        # The source cut and the all-relay cut each have one node on one
        # side; factored on that side, each is log2 of 1 + (sum of SNRs)
        # with no pivot rounding, so on unit gains they tie exactly and the
        # first (source) cut is the min cut.
        nodes = [rc.source(1, 1.0)] + [rc.relay(j, 1.0, 1.0) for j in range(2, t)]
        net = _net(nodes + [rc.destination(t, 1.0)])
        table = rc.cut_rate_table(net, override_guard=True)
        assert table[0][1] == table[-1][1] == 0.5 * math.log2(t)
        assert rc.min_cut_bound(net, override_guard=True)[1].sorted_ids() == (1,)


def _refuse_per_cut(*args, **kwargs):
    raise AssertionError("the cut table must not evaluate cuts one at a time")


def _tiny_noise_network(t, gains, noises):
    nodes = [rc.source(1, 1.0)] + [rc.relay(j, 1.0, noises[j - 2]) for j in range(2, t)]
    return rc.from_gains(nodes + [rc.destination(t, noises[-1])], np.array(gains, dtype=float))


def _many_failures_network():
    """Eight of its 16 cuts lose a Schur pivot to rounding; the first in
    canonical order is {1,2}, and later ones such as {1,5} fail with other
    pivots."""
    return _tiny_noise_network(
        6,
        [
            [0, 1, 1, 1, 4, 1],
            [1, 0, 4, 0, 4, 4],
            [1, 1, 0, 0, 4, 4],
            [4, 0, 0, 0, 0, 1],
            [1, 4, 4, 4, 0, 4],
            [1, 4, 0, 4, 0, 0],
        ],
        [1e-16, 1e-16, 1e-15, 1e-17, 1e-16],
    )


def _assert_same_table(net, override_guard=False):
    table = rc.cut_rate_table(net, override_guard)
    want = cut_table_by_cuts(net, override_guard)
    want_rates = [rate for _, rate in want]
    assert [cut for cut, _ in table] == [cut for cut, _ in want]
    assert [rate for _, rate in table] == pytest.approx(want_rates, rel=0.0, abs=1e-10)
    want_cut = want[want_rates.index(min(want_rates))][0]
    assert rc.min_cut_bound(net, override_guard)[1] == want_cut


class TestBatchedCutTable:
    """The stacked cut table against the per-cut oracle."""

    @pytest.mark.parametrize("net", _cut_cases())
    def test_matches_per_cut_oracle(self, net):
        _assert_same_table(net)

    @pytest.mark.parametrize("t", range(11, 15))
    def test_matches_per_cut_oracle_past_the_guard(self, t):
        _assert_same_table(random_network(np.random.default_rng(100 + t), t), True)

    def test_no_per_cut_evaluation_past_the_guard(self, monkeypatch):
        monkeypatch.setattr(bounds, "cut_rate", _refuse_per_cut)
        monkeypatch.setattr(bounds, "conditional_mi_bits", _refuse_per_cut)
        net = random_network(np.random.default_rng(14), 14)
        table = rc.cut_rate_table(net, override_guard=True)
        assert [cut.tx_side - {1} for cut, _ in table] == [
            set(s) for s in rc.subsets(net.relay_ids)
        ]
        assert all(rate > 0.0 for _, rate in table)

    @pytest.mark.parametrize(
        "net, cut",
        [
            # Unit gains, unit powers, every noise 1e-17: the rank-deficient
            # cuts {1,2} and {1,3} lose a pivot to rounding; the first, {1,2},
            # is named.
            pytest.param(
                _tiny_noise_network(4, 1.0 - np.eye(4), [1e-17] * 3), {1, 2}, id="unit-gain-T4"
            ),
            # The first failing cut in canonical order is named.
            pytest.param(
                _many_failures_network(), {1, 2}, id="first-failure-in-canonical-order-T6"
            ),
        ],
    )
    def test_not_positive_definite_matches_per_cut_oracle(self, net, cut):
        with pytest.raises(NotPositiveDefinite) as want:
            rc.cut_rate(net, rc.CutSpec(tx_side=frozenset(cut)))
        with pytest.raises(NotPositiveDefinite) as got:
            rc.cut_rate_table(net)
        assert str(got.value) == str(want.value)
        with pytest.raises(NotPositiveDefinite, match=re.escape(str(want.value))):
            rc.min_cut_bound(net)


def _family_network(kind, rng, t):
    """One network of a family: ``random`` (the library's law),
    ``asymmetric`` (``_asymmetric_network``), ``tied-power`` (relay powers
    1, 10, 100 in turn, unit noises, symmetric gains in 10^[-1, 1]) or
    ``unit-gain`` (relay powers in 10^[0, 3], unit noises)."""
    if kind == "random":
        return random_network(rng, t)
    if kind == "asymmetric":
        return _asymmetric_network(rng, t)
    if kind == "tied-power":
        gains = 10.0 ** rng.uniform(-1.0, 1.0, size=(t, t))
        gains = 0.5 * (gains + gains.T)
        relays = [rc.relay(j, 10.0 ** (j % 3), 1.0) for j in range(2, t)]
    else:
        gains = np.ones((t, t))
        powers = 10.0 ** rng.uniform(0.0, 3.0, t)
        relays = [rc.relay(j, float(powers[j]), 1.0) for j in range(2, t)]
    np.fill_diagonal(gains, 0.0)
    return rc.from_gains([rc.source(1, 1.0)] + relays + [rc.destination(t, 1.0)], gains)


def _cut_bound_bits(net, cut):
    """The bound on |tree - Gram route| for one cut, in bits:
    (T - 1) eps (1 + ||W||_F^2), W the cut's whitened channel.

    I + W^T W has every eigenvalue >= 1, so a perturbation E of it moves
    ln det by at most about tr|E| <= sqrt(n) ||E||_F. The Gram route's
    rounding is such a perturbation: forming W^T W and factoring it are
    backward stable to a small multiple of n eps ||I + W^T W|| <= n eps
    (1 + ||W||_F^2). The tree has no such a-priori bound (elimination
    without pivoting on a non-symmetric K), but its pivots are all >= 1,
    and measured it stays inside the same scale: on 240 networks of this
    family (60 per kind, T = 3..12) the largest |difference| was 0.70 eps
    (1 + ||W||_F^2), so the bound holds with a margin of at least 2.8,
    which grows with T."""
    tx = cut.sorted_ids()
    rx = tuple(j for j in range(2, net.num_nodes + 1) if j not in cut.tx_side)
    gains, powers, noises = bounds._channel(net, tx, rx)
    power_gains = float(np.sum(gains * powers / noises[:, None]))
    return (net.num_nodes - 1) * np.finfo(float).eps * (1.0 + power_gains)


class TestCutTreeAccuracy:
    """The Schur-complement tree against the Gram-and-Cholesky route and
    against exact rationals."""

    @given(
        kind=st.sampled_from(["random", "asymmetric", "tied-power", "unit-gain"]),
        t=st.integers(3, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_rows_within_the_bound_of_the_per_cut_oracle(self, kind, t, seed):
        net = _family_network(kind, np.random.default_rng(seed), t)
        table = rc.cut_rate_table(net, override_guard=True)
        want = cut_table_by_cuts(net, override_guard=True)
        bounds_bits = [_cut_bound_bits(net, cut) for cut, _ in want]
        for (cut, got), (_, rate), bound in zip(table, want, bounds_bits):
            assert abs(got - rate) <= bound, (cut, got, rate, bound)
        rates = [rate for _, rate in want]
        first, second = sorted(rates)[:2]
        if second - first > 2.0 * max(bounds_bits):
            want_cut = want[rates.index(first)][0]
            assert rc.min_cut_bound(net, override_guard=True)[1] == want_cut

    @pytest.mark.parametrize("k", range(16))
    def test_unit_gain_cut_against_exact_rationals(self, k):
        # Unit gains, unit powers, every noise N = 10^-k: cut {1,2} has
        # det(I + W^T W) = 1 + 4/N exactly (N the float's rational value).
        # The tree's error peaks at 3.6e-9 bits near N = 1e-8 and falls as
        # N / 2.8 below it; the Gram route errs by 1.4e-3 bits at 1e-13 and
        # 0.16 bits at 1e-15.
        noise = 10.0**-k
        net = _tiny_noise_network(4, 1.0 - np.eye(4), [noise] * 3)
        cut = rc.CutSpec(tx_side=frozenset({1, 2}))
        det = exact.cut_det(net.gains**0.5, [1.0] * 4, [1.0] + [noise] * 3, (1, 2), (3, 4))
        want = 0.5 * exact.log2(det)
        assert want == 0.5 * exact.log2(1 + 4 / Fraction(noise))
        got = rc.cut_rate(net, cut)
        assert abs(got - want) <= min(4e-9, noise / 2.0) + 1e-14
        assert dict(rc.cut_rate_table(net))[cut] == got

    def test_huge_power_cuts_are_exact_or_rejected(self):
        # Relay powers 1e100..1e300 over noises 1e-300..1e300: every cut the
        # tree does not reject is the exact rational's value to 1e-12 bits
        # (the Gram route raises on this network).
        nodes = [rc.source(1, 1.0), rc.relay(2, 1e100, 1e-300), rc.relay(3, 1e250, 1.0)]
        nodes += [rc.relay(4, 1e300, 1e300), rc.destination(5, 1.0)]
        net = rc.from_gains(nodes, 1.0 - np.eye(5))
        powers, noises = [1.0, 1e100, 1e250, 1e300, 0.0], [1.0, 1e-300, 1.0, 1e300, 1.0]
        rated = 0
        for extra in rc.subsets(net.relay_ids):
            cut = rc.CutSpec(tx_side=frozenset({1, *extra}))
            rx = tuple(j for j in range(2, 6) if j not in cut.tx_side)
            try:
                got = rc.cut_rate(net, cut)
            except NotPositiveDefinite as err:
                assert str(err).startswith(f"cut {{{','.join(map(str, cut.sorted_ids()))}}}: ")
                continue
            want = 0.5 * exact.log2(exact.cut_det(net.gains, powers, noises, cut.sorted_ids(), rx))
            assert got == pytest.approx(want, rel=0.0, abs=1e-12)
            rated += 1
        assert rated == 3


class TestUnvalidatedGains:
    """Cut rates on networks built without ``validate``."""

    @pytest.mark.parametrize("bad", [-1.0, math.nan])
    def test_bad_off_diagonal_gain_names_the_pair(self, bad):
        gains = _full_gains(3)
        gains[0, 2] = bad
        net = _net([rc.source(1, 1.0), rc.relay(2, 1.0, 1.0), rc.destination(3, 1.0)], gains)
        pair = "gain from node 1 to node 3 must be finite and >= 0"
        message = re.escape(f"{pair}, got {bad!r}")
        with pytest.raises(ValueError, match=message):
            rc.source_cut_bound(net)
        with pytest.raises(ValueError, match=message):
            rc.cut_rate(net, rc.CutSpec(tx_side=frozenset({1, 2})))
        with pytest.raises(ValueError, match=message):
            rc.cut_rate_table(net)
        assert any(p.startswith(pair) for p in rc.validate(net))

    @pytest.mark.parametrize("bad", [-1.0, math.nan])
    def test_achievable_side_names_the_pair(self, bad):
        gains = _full_gains(3)
        gains[0, 2] = bad
        net = _net([rc.source(1, 1.0), rc.relay(2, 1.0, 1.0), rc.destination(3, 1.0)], gains)
        q = rc.QuantizationVector.uniform(1.0, (2,))
        message = re.escape(f"gain from node 1 to node 3 must be finite and >= 0, got {bad!r}")
        with pytest.raises(ValueError, match=message):
            rc.cf_rate(net, q)
        with pytest.raises(ValueError, match=message):
            rc.cf_feasible(net, q)
        with pytest.raises(ValueError, match=message):
            rc.optimize_quantization(net)
        with pytest.raises(ValueError, match=message):
            rc.build_rate_report(net)

    @pytest.mark.parametrize("bad", [-1.0, math.nan])
    def test_quantized_covariance_det_names_the_pair(self, bad):
        gains = _full_gains(3)
        gains[0, 1] = bad
        net = _net([rc.source(1, 1.0), rc.relay(2, 1.0, 1.0), rc.destination(3, 1.0)], gains)
        message = re.escape(f"gain from node 1 to node 2 must be finite and >= 0, got {bad!r}")
        with pytest.raises(ValueError, match=message):
            rc.quantized_covariance_det(net, (2,), rc.QuantizationVector.uniform(1.0, (2,)))

    @pytest.mark.parametrize("bad", [-1.0, math.nan])
    @pytest.mark.parametrize("tx", [1, 2])
    def test_block_decode_rate_names_the_pair(self, tx, bad):
        # tx = 1 puts the bad gain in the receiver's floor, tx = 2 in the
        # block's sum.
        gains = _full_gains(3)
        gains[tx - 1, 2] = bad
        net = _net([rc.source(1, 1.0), rc.relay(2, 1.0, 1.0), rc.destination(3, 1.0)], gains)
        message = re.escape(f"gain from node {tx} to node 3 must be finite and >= 0, got {bad!r}")
        with pytest.raises(ValueError, match=message):
            rc.block_decode_rate(net, (2,), 3)

    @pytest.mark.parametrize("bad", [-1.0, math.nan])
    def test_diagonal_is_never_read(self, bad):
        nodes = [rc.source(1, 2.0), rc.relay(2, 3.0, 0.5), rc.relay(3, 1.5, 2.0)]
        nodes.append(rc.destination(4, 1.0))
        gains = 1.0 + np.arange(16.0).reshape(4, 4)
        net = _net(nodes, gains)
        np.fill_diagonal(gains, bad)
        noisy = _net(nodes, gains)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert rc.cut_rate_table(noisy) == rc.cut_rate_table(net)
            assert rc.source_cut_bound(noisy) == rc.source_cut_bound(net)
            assert rc.min_cut_bound(noisy) == rc.min_cut_bound(net)
            for cut, rate in rc.cut_rate_table(net):
                assert rc.cut_rate(noisy, cut) == rate


def _invalid_network(case):
    """The 4-node network (unit gains; P1 = 1; relays 2 and 3 with P = 10,
    N = 1; destination noise 1) with one field made invalid."""
    nodes = [rc.source(1, 1.0), rc.relay(2, 10.0, 1.0), rc.relay(3, 10.0, 1.0)]
    nodes.append(rc.destination(4, 1.0))
    gains = _full_gains(4)
    kind, value = case
    if kind == "zero source gain":
        gains[0, 2] = 0.0
    elif kind == "roles swapped":
        nodes[2:] = [rc.destination(3, 1.0), rc.relay(4, 10.0, 1.0)]
    else:
        node, field = {
            "relay noise": (2, "noise"),
            "destination noise": (4, "noise"),
            "relay power": (2, "power"),
            "source power": (1, "power"),
        }[kind]
        nodes[node - 1] = dataclasses.replace(nodes[node - 1], **{field: value})
    return _net(nodes, gains)


_INVALID_CASES = [
    *(("relay noise", v) for v in (0.0, -1.0, math.nan, math.inf)),
    ("destination noise", 0.0),
    *(("relay power", v) for v in (-1.0, math.nan, math.inf)),
    *(("source power", v) for v in (-1.0, math.nan, math.inf)),
    ("zero source gain", None),
    ("roles swapped", None),
]

_ANALYSES = {
    "source_cut_bound": lambda net, q: rc.source_cut_bound(net),
    "cut_rate": lambda net, q: rc.cut_rate(net, rc.CutSpec(tx_side=frozenset({1, 2}))),
    "cut_rate_table": lambda net, q: rc.cut_rate_table(net),
    "min_cut_bound": lambda net, q: rc.min_cut_bound(net),
    "cf_rate": lambda net, q: rc.cf_rate(net, q),
    "cf_feasible": lambda net, q: rc.cf_feasible(net, q),
    **{
        f"optimize_quantization-{mode}-{quantifier}": (
            lambda net, q, mode=mode, quantifier=quantifier: rc.optimize_quantization(
                net, mode, quantifier
            )
        )
        for mode in ("uniform", "coordinate")
        for quantifier in ("forall", "exists")
    },
    "build_rate_report": lambda net, q: rc.build_rate_report(net),
    "convergence_sweep": lambda net, q: rc.convergence_sweep(net, [1.0, 10.0]),
    "block_decode_rate": lambda net, q: rc.block_decode_rate(net, (2,), net.num_nodes),
    "quantized_covariance_det": lambda net, q: rc.quantized_covariance_det(
        net, net.relay_ids, q
    ),
}


class TestInvalidNetworks:
    """Every analysis refuses a network that ``validate`` rejects, with one
    ValueError listing every problem: no Infeasible, no arithmetic error,
    no warning and no number."""

    @pytest.mark.parametrize("analysis", sorted(_ANALYSES))
    @pytest.mark.parametrize(
        "case", _INVALID_CASES, ids=[k if v is None else f"{k}={v}" for k, v in _INVALID_CASES]
    )
    def test_one_error_for_every_invalid_network(self, case, analysis):
        net = _invalid_network(case)
        problems = rc.validate(net)
        assert problems
        q = rc.QuantizationVector.uniform(1.0, net.relay_ids)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as err:
                _ANALYSES[analysis](net, q)
        assert problems[0] in str(err.value)
        assert str(err.value) == "invalid network: " + "; ".join(problems)

    def test_library_message_is_the_cli_message(self, tmp_path, capsys):
        net = _invalid_network(("relay noise", 0.0))
        doc = {
            "nodes": [
                {"id": 1, "role": "source", "power": 1.0},
                {"id": 2, "role": "relay", "power": 10.0, "noise": 0.0},
                {"id": 3, "role": "relay", "power": 10.0, "noise": 1.0},
                {"id": 4, "role": "destination", "noise": 1.0},
            ],
            "gains": net.gains.tolist(),
        }
        path = tmp_path / "net.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert cli.main(["bound", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        with pytest.raises(ValueError) as lib:
            rc.source_cut_bound(net)
        assert err == f"config error: {lib.value}\n"

    def test_guard_comes_before_validation_except_in_a_sweep(self):
        # An invalid T = 12 network, relay 2 at noise 0: a constraint table
        # and the cut table check the size guard before they read the
        # network; a sweep reads it first, for its bound.
        t = 12
        nodes = [rc.source(1, 1.0), rc.relay(2, 1.0, 0.0)]
        nodes += [rc.relay(j, 1.0, 1.0) for j in range(3, t)] + [rc.destination(t, 1.0)]
        net = _net(nodes)
        message = "^invalid network: node 2 \\(relay\\) needs a finite noise > 0, got 0.0$"
        with pytest.raises(GuardExceeded):
            _ConstraintTable(net, "forall")
        with pytest.raises(GuardExceeded):
            rc.cut_rate_table(net)
        with pytest.raises(ValueError, match=message):
            _ConstraintTable(net, "forall", override_guard=True)
        with pytest.raises(ValueError, match=message):
            rc.convergence_sweep(net, [1.0])


def _count_validations(monkeypatch):
    """A list that grows by one per ``validate`` call, from the library's
    network read (``topology.validate``) or from the CLI's own check."""
    calls = []
    real = topology.validate

    def counting(net):
        calls.append(net)
        return real(net)

    monkeypatch.setattr(topology, "validate", counting)
    monkeypatch.setattr(cli, "validate", counting)
    return calls


def _count_networks(monkeypatch):
    """Lists that grow by one per NetworkSpec constructed (a
    ``dataclasses.replace`` copy included) and per ``topology.scaled``
    call."""
    built, copies = [], []
    real_init, real_scaled = topology.NetworkSpec.__post_init__, topology.scaled

    def counting_init(self):
        built.append(self)
        real_init(self)

    def counting_scaled(net, gamma):
        copies.append(gamma)
        return real_scaled(net, gamma)

    monkeypatch.setattr(topology.NetworkSpec, "__post_init__", counting_init)
    monkeypatch.setattr(topology, "scaled", counting_scaled)
    return built, copies


class TestOneValidationPerNetwork:
    """A network is validated once, on its first analysis; every later
    analysis of it reads the cached arrays."""

    @pytest.mark.parametrize("analysis", sorted(_ANALYSES))
    def test_each_analysis_validates_a_fresh_network_once(
        self, monkeypatch, reference_network, analysis
    ):
        q = rc.QuantizationVector.uniform(1.0, reference_network.relay_ids)
        calls = _count_validations(monkeypatch)
        _ANALYSES[analysis](reference_network, q)
        assert len(calls) == 1
        assert calls[0] is reference_network
        calls.clear()
        _ANALYSES[analysis](reference_network, q)
        assert calls == []

    @pytest.mark.parametrize("k", [1, 4, 13])
    def test_sweep_validates_once_and_scales_no_network(self, monkeypatch, reference_network, k):
        # Rows are the network's arrays with scaled relay powers: no row
        # is a NetworkSpec, a scaled copy or a second validation.
        calls = _count_validations(monkeypatch)
        built, copies = _count_networks(monkeypatch)
        rc.convergence_sweep(reference_network, [10.0**i for i in range(k)])
        assert len(calls) == 1 and calls[0] is reference_network
        assert built == [] and copies == []
        assert not hasattr(bounds, "scaled")

    def test_cli_sweep_builds_and_validates_one_network(self, monkeypatch, tmp_path):
        # A T = 9 sweep over 13 gammas, the shape of the benchmark's sweep
        # op: one NetworkSpec, checked by the CLI and read once by the
        # library, and no scaled copy.
        net = random_network(np.random.default_rng(9), 9)
        path = tmp_path / "net.json"
        path.write_text(json.dumps(dict(_config_doc(net), sweep={"gammas": _SWEEP_GAMMAS})))
        calls = _count_validations(monkeypatch)
        built, copies = _count_networks(monkeypatch)
        assert cli.main(["sweep", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
        assert len(built) == 1 and copies == []
        assert len(calls) == 2 and calls[0] is calls[1] is built[0]

    def test_cli_cfrate_validates_twice(self, monkeypatch, tmp_path, reference_network):
        path = tmp_path / "ref.json"
        path.write_text(json.dumps(_config_doc(reference_network)), encoding="utf-8")
        calls = _count_validations(monkeypatch)
        assert cli.main(["cfrate", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
        assert len(calls) == 2  # once in the CLI, once in the library

    def test_cached_arrays_are_read_only(self, reference_network):
        gains, powers, noises = reference_network._arrays
        assert reference_network._arrays is reference_network._arrays
        assert np.all(np.diag(gains) == 0.0)
        assert np.isnan(powers[-1]) and np.isnan(noises[0])
        for a in (gains, powers, noises):
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1.0

    def test_invalid_network_raises_on_every_read(self, monkeypatch):
        net = _invalid_network(("relay noise", 0.0))
        calls = _count_validations(monkeypatch)
        for _ in range(3):
            with pytest.raises(ValueError, match="^invalid network: "):
                net._arrays
        assert len(calls) == 3
        assert "_arrays" not in vars(net)


def _table_cases():
    rng = np.random.default_rng(20250901)
    for t in range(3, 8):
        for _ in range(2):
            net = _asymmetric_network(rng, t)
            for quantifier in ("forall", "exists"):
                yield net, quantifier, _ConstraintTable(net, quantifier)


class TestConstraintTableInternals:
    def test_blockwise_extreme_matches_bruteforce(self):
        # Each cached denominator must equal an explicit scan of the whole
        # family for its subset, and its reported instance must attain it.
        for net, quantifier, table in _table_cases():
            relays = net.relay_ids
            rates: dict = {}

            def value(inst):
                total = 0.0
                for b, r in zip(inst.partition, inst.assignment):
                    if (b, r) not in rates:
                        rates[b, r] = 2.0 * rc.block_decode_rate(net, b, r)
                    total += rates[b, r]
                return total

            by_subset: dict = {}
            for inst in constraint_instances(relays, relays + (net.destination_id,)):
                by_subset.setdefault(inst.s, []).append(value(inst))
            pick = min if quantifier == "forall" else max
            assert [inst.s for inst in table.instances] == list(by_subset)
            for denom, inst in zip(table.denom_log2, table.instances):
                assert denom == pytest.approx(pick(by_subset[inst.s]), abs=1e-12)
                assert value(inst) == pytest.approx(denom, abs=1e-12)

    @pytest.mark.parametrize("r", range(1, 11))
    def test_subset_sums_match_the_column_loop_bitwise(self, r):
        rng = np.random.default_rng(r)
        vectors = [10.0 ** rng.uniform(-12.0, 12.0, size=r) for _ in range(120)]
        vectors += [np.full(r, 0.1), np.full(r, 1.0 / 3.0), np.ones(r)]
        vectors += [rng.choice([0.1, 0.7, 3.0], size=r) for _ in range(7)]
        for v in vectors:
            got = partition_dp._subset_sums(v)[1:]
            assert got.tobytes() == subset_sums_by_columns(v).tobytes()

    def test_infinite_term_reaches_only_its_own_subsets(self):
        sums = partition_dp._subset_sums(np.array([1.0, math.inf, 2.0]))[1:]
        masks = np.arange(1, 8)
        assert np.all(np.isinf(sums[masks & 2 != 0]))
        assert np.array_equal(sums[masks & 2 == 0], [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("r", range(1, 11))
    def test_stacked_subset_sums_are_the_column_sums_bitwise(self, r):
        # An (R, K) input sums along axis 0: column k is bitwise the 1-D
        # sums of column k, with tied and infinite terms too.
        rng = np.random.default_rng(200 + r)
        stack = 10.0 ** rng.uniform(-12.0, 12.0, size=(r, 9))
        stack[:, 1] = 1.0 / 3.0
        stack[:, 2] = rng.choice([0.1, 0.7, 3.0], size=r)
        stack[rng.integers(r), 3] = math.inf
        stack[:, 4] = math.inf
        got = partition_dp._subset_sums(stack)[1:]
        assert got.shape == (2**r - 1, 9)
        for k in range(9):
            column = np.ascontiguousarray(stack[:, k])
            assert got[:, k].tobytes() == partition_dp._subset_sums(column)[1:].tobytes()

    @pytest.mark.parametrize("chunk", [partition_dp._DP_CHUNK, 40])
    @pytest.mark.parametrize("n", range(1, 11))
    def test_stacked_dp_matches_the_scalar_scan_bitwise(self, monkeypatch, n, chunk):
        # Every table of a stack gets the scalar strict-< scan's totals and
        # first blocks, on tied values and with inf, -inf and NaN mixed in;
        # a small chunk splits every layer into many gathers. The scan
        # gives the smallest relay the highest bit: it reads each mask
        # bit-reversed.
        monkeypatch.setattr(partition_dp, "_DP_CHUNK", chunk)
        rng = np.random.default_rng(400 + n)
        masks = tuple(int(f"{m:0{n}b}"[::-1], 2) for m in range(2**n))
        for k_tables in (1, 3, 13):
            for value in _dp_value_stacks(rng, n, k_tables):
                for forall in (True, False):
                    with np.errstate(invalid="ignore"):  # inf - inf, as the table build runs it
                        denoms, first = partition_dp._partition_dp(value, forall)
                    assert denoms.shape == (k_tables, 2**n - 1)
                    assert first.shape == (k_tables, 2**n)
                    for row, got_denoms, got_first in zip(value, denoms, first):
                        reversed_row = row[list(masks)].tolist()
                        want_denoms, want_first = partition_dp_by_masks(reversed_row, forall, masks)
                        assert got_denoms.tobytes() == np.array(want_denoms).tobytes()
                        assert got_first.tolist() == [masks[want_first[m]] for m in masks]

    @pytest.mark.parametrize("n", range(1, 8))
    def test_layer_rows_list_candidates_as_partitions_meets_them(self, n):
        # Each layer row holds S's candidate blocks in the order in which
        # the oracle's generator first meets them as first blocks: the
        # restricted-growth order that the tie-break keeps. Every mask of
        # two or more relays sits in exactly one layer.
        seen = []
        for masks, blocks in partition_dp._dp_layers(n):
            for s, row in zip(masks.tolist(), blocks.tolist(), strict=True):
                relays = [i for i in range(n) if s >> i & 1]
                firsts = dict.fromkeys(p[0] for p in partitions(relays))
                assert row == [sum(1 << i for i in b) for b in firsts]
                seen.append(s)
        assert sorted(seen) == [s for s in range(1 << n) if s.bit_count() > 1]
        assert len(seen) == len(set(seen))

    @pytest.mark.parametrize("n", range(1, 13))
    def test_layer_cache_holds_only_masks_and_blocks(self, n):
        # The cache keeps (3^n - 1)/2 - n int32 candidate blocks and the
        # 2^n - n - 1 masks of two or more relays, each array its own
        # read-only buffer, and nothing per candidate besides the blocks.
        layers = partition_dp._dp_layers(n)
        assert len(layers) == max(0, n - 1)
        for k, layer in enumerate(layers, start=2):
            masks, blocks = layer
            assert masks.shape == (math.comb(n, k),)
            assert blocks.shape == (math.comb(n, k), 2 ** (k - 1))
            for array in layer:
                assert array.dtype == np.int32
                assert array.base is None
                assert not array.flags.writeable
        assert sum(blocks.size for _, blocks in layers) == (3**n - 1) // 2 - n
        assert sum(masks.size for masks, _ in layers) == 2**n - n - 1

    def test_stacked_dp_is_each_table_alone_across_many_chunks(self, monkeypatch):
        # At 12 relays and a 40-candidate chunk, a stack of six tables runs
        # its layers in about 4,000 chunks, each writing its masks' totals
        # and first blocks by mask: each table's rows are bit for bit those
        # it gets alone.
        monkeypatch.setattr(partition_dp, "_DP_CHUNK", 40)
        value = np.concatenate(list(_dp_value_stacks(np.random.default_rng(412), 12, 2)))
        for forall in (True, False):
            with np.errstate(invalid="ignore"):  # inf - inf, as the table build runs it
                denoms, first = partition_dp._partition_dp(value, forall)
                alone = [partition_dp._partition_dp(row[None], forall) for row in value]
            for k, (want_denoms, want_first) in enumerate(alone):
                assert denoms[k].tobytes() == want_denoms[0].tobytes()
                assert first[k].tobytes() == want_first[0].tobytes()

    @pytest.mark.parametrize("n", range(11))
    def test_layout_member_is_the_canonical_subset_order(self, n):
        member = partition_dp._dp_layout(n).member
        assert member.shape == (2**n, n)
        assert not member.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            member[0] = True
        for row, subset in zip(member, enumeration.subsets(range(n)), strict=True):
            assert tuple(np.flatnonzero(row).tolist()) == subset

    @pytest.mark.parametrize("t", range(3, 11))
    def test_rows_and_cuts_hold_the_relays_member_names(self, t):
        # Table row k is mask k + 1, cut k is mask k: each holds the
        # relays that the layout's member row names.
        net = random_network(np.random.default_rng(600 + t), t)
        relays = np.array(net.relay_ids)
        member = partition_dp._dp_layout(t - 2).member
        table = _ConstraintTable(net, "forall")
        for k in range(2 ** (t - 2) - 1):
            assert table.instance(k).s == tuple(relays[member[k + 1]].tolist())
        for (cut, _), inside in zip(rc.cut_rate_table(net), member, strict=True):
            assert cut.tx_side == {1, *relays[inside].tolist()}

    @pytest.mark.parametrize("quantifier", ["forall", "exists"])
    @pytest.mark.parametrize("t", [3, 5, 8, 10])
    def test_stacked_margins_are_each_tables_margins_bitwise(self, t, quantifier):
        # The lockstep search's margin pass: tables stacked in columns, each
        # at its own uniform Q, give column by column the table's margins.
        rng = np.random.default_rng(300 + t)
        net = random_network(rng, t)
        tables = [
            _ConstraintTable(rc.scaled(net, g), quantifier) for g in (1.0, 10.0, 1e3, 1e8, 1e50)
        ]
        denom, noise, lam, p1 = (
            np.stack([getattr(table, a) for table in tables], axis=-1)
            for a in ("denom_log2", "noise", "lam", "p1")
        )
        n = len(net.relay_ids)
        for i in range(20):
            q = 10.0 ** rng.uniform(-30.0, 30.0, size=len(tables))
            q[0] = 1e-300 if i % 2 else 1e300
            stacked = bounds._margins_log2(denom, noise, lam, p1, q)
            for k, table in enumerate(tables):
                want = table.margins_log2(np.full(n, q[k]))
                assert stacked[:, k].tobytes() == want.tobytes()

    def test_margin_matches_direct_log_det_evaluation(self):
        rng = np.random.default_rng(20250902)
        for net, _, table in _table_cases():
            qvals = 10.0 ** rng.uniform(-1.0, 1.0, size=len(table.relays))
            q = rc.QuantizationVector(entries=tuple(zip(table.relays, qvals.tolist())))
            margins = table.margins_log2(qvals)
            assert margins.shape == (len(table.instances),)
            for inst, denom, margin in zip(table.instances, table.denom_log2, margins):
                qs = np.array([q.get(i) for i in inst.s])
                lam_det = rc.quantized_covariance_det(net, inst.s, q)
                direct = float(np.sum(np.log2(qs))) - math.log2(lam_det) + denom
                assert margin == pytest.approx(direct, abs=1e-9)


def _dp_value_stacks(rng, n, k_tables):
    """(k_tables, 2^n) block-value stacks indexed by mask, entry 0 (the
    empty block) 0: spread values, values from a few levels (ties), and
    tied values with inf, -inf and NaN in about one entry in six."""
    size = 1 << n
    spread = 10.0 ** rng.uniform(-3.0, 3.0, size=(k_tables, size))
    tied = rng.choice([0.0, 0.5, 1.0, 1.5, 3.0], size=(k_tables, size))
    special = tied.copy()
    hit = rng.random(size=special.shape) < 1.0 / 6.0
    special[hit] = rng.choice([math.inf, -math.inf, math.nan], size=int(hit.sum()))
    for value in (spread, tied, special):
        value[:, 0] = 0.0
        yield value


def _equal_gain_network(t, relay_power):
    """Unit gains and unit noises; relay j transmits relay_power(j)."""
    nodes = [rc.source(1, 1.0)]
    nodes += [rc.relay(j, relay_power(j), 1.0) for j in range(2, t)]
    return _net(nodes + [rc.destination(t, 1.0)])


def _dp_cases():
    rng = np.random.default_rng(20261017)
    for t in range(3, 10):
        yield pytest.param(_asymmetric_network(rng, t), id=f"asymmetric-T{t}")
        yield pytest.param(_equal_gain_network(t, lambda j: 10.0), id=f"equal-power-T{t}")
        yield pytest.param(
            _equal_gain_network(t, lambda j: 10.0 ** (j % 3)), id=f"tied-powers-T{t}"
        )
        # A powerless relay adds exactly 0 bits to any block it joins, so
        # many partitions tie exactly and only the tie-break separates them.
        yield pytest.param(
            _equal_gain_network(t, lambda j: float(j % 2)), id=f"powerless-relays-T{t}"
        )


def _relabel(net, new_id):
    """The same network with relay j renamed new_id[j]; its gains, power
    and noise travel with it."""
    t = net.num_nodes
    old_of = {1: 1, t: t, **{new: old for old, new in new_id.items()}}
    old = {j: net.nodes[old_of[j] - 1] for j in range(1, t + 1)}
    nodes = [rc.source(1, old[1].power)]
    nodes += [rc.relay(j, old[j].power, old[j].noise) for j in range(2, t)]
    nodes.append(rc.destination(t, old[t].noise))
    order = [old_of[j] - 1 for j in range(1, t + 1)]
    return rc.from_gains(nodes, net.gains[np.ix_(order, order)])


def _scale_powers_and_noises(net, c):
    t = net.num_nodes
    source, *relays, dest = net.nodes
    nodes = [rc.source(1, c * source.power)]
    nodes += [rc.relay(n.id, c * n.power, c * n.noise) for n in relays]
    nodes.append(rc.destination(t, c * dest.noise))
    return rc.from_gains(nodes, net.gains)


class TestConstraintTableDP:
    @pytest.mark.parametrize("net", _dp_cases())
    def test_matches_partition_scan_exactly(self, net):
        for quantifier in ("forall", "exists"):
            table = _ConstraintTable(net, quantifier)
            denoms, instances = table_by_partition_scan(net, quantifier)
            assert np.array_equal(table.denom_log2, denoms)
            assert table.instances == instances

    def test_no_partition_scan_past_the_guard(self):
        # The library has no partition generator to scan with: it lives
        # with the tests' oracles.
        assert not hasattr(enumeration, "partitions")
        assert "partitions" not in vars(bounds)
        net = random_network(np.random.default_rng(12), 12)
        for quantifier in ("forall", "exists"):
            table = _ConstraintTable(net, quantifier, override_guard=True)
            assert [inst.s for inst in table.instances] == list(rc.subsets(net.relay_ids))[1:]
            assert table.denom_log2.shape == (2**10 - 1,)
            assert np.all(table.denom_log2 > 0.0)

    @given(seed=st.integers(0, 10_000), data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_relabelling_relays_changes_nothing(self, seed, data):
        net = _asymmetric_network(np.random.default_rng(seed), data.draw(st.integers(3, 7)))
        perm = data.draw(st.permutations(net.relay_ids))
        other = _relabel(net, dict(zip(net.relay_ids, perm)))
        assert rc.source_cut_bound(other) == pytest.approx(rc.source_cut_bound(net), abs=1e-9)
        assert rc.min_cut_bound(other)[0] == pytest.approx(rc.min_cut_bound(net)[0], abs=1e-9)
        for quantifier in ("forall", "exists"):
            _, rate = rc.optimize_quantization(net, quantifier=quantifier)
            _, other_rate = rc.optimize_quantization(other, quantifier=quantifier)
            assert other_rate == pytest.approx(rate, abs=1e-9)
            np.testing.assert_allclose(
                np.sort(_ConstraintTable(other, quantifier).denom_log2),
                np.sort(_ConstraintTable(net, quantifier).denom_log2),
                rtol=0.0,
                atol=1e-12,
            )

    @given(seed=st.integers(0, 10_000), t=st.integers(3, 8))
    @settings(max_examples=25, deadline=None)
    def test_binding_forall_blocks_have_distinct_receivers(self, seed, t):
        # Merging two blocks that share a receiver never raises the total
        # (log1p is subadditive), so the minimizing partition never needs
        # two blocks decoded at one receiver.
        net = _asymmetric_network(np.random.default_rng(seed), t)
        table = _ConstraintTable(net, "forall")
        denoms, instances = table_by_partition_scan(net, "forall")
        assert np.array_equal(table.denom_log2, denoms)
        assert table.instances == instances
        for inst in table.instances:
            assert len(set(inst.assignment)) == len(inst.assignment), inst

    @given(
        seed=st.integers(0, 10_000),
        t=st.integers(3, 7),
        c=st.floats(1e-3, 1e3),
    )
    @settings(max_examples=25, deadline=None)
    def test_scaling_powers_and_noises_scales_q_only(self, seed, t, c):
        net = _asymmetric_network(np.random.default_rng(seed), t)
        scaled_net = _scale_powers_and_noises(net, c)
        for quantifier in ("forall", "exists"):
            q, rate = rc.optimize_quantization(net, quantifier=quantifier)
            q_c, rate_c = rc.optimize_quantization(scaled_net, quantifier=quantifier)
            assert rate_c == pytest.approx(rate, abs=1e-9)
            np.testing.assert_allclose(q_c.values, np.multiply(c, q.values), rtol=1e-8)


def _huge_relay_power_network():
    """T = 4, unit gains and noises, P1 = 1, relay powers 1e308: each
    singleton block's sum is finite, the merged block's overflows to inf."""
    return _equal_gain_network(4, lambda j: 1e308)


def _array_build_cases():
    for t in range(3, 13):
        for s in range(3):
            yield pytest.param(random_network(np.random.default_rng(s), t), id=f"random-s{s}-T{t}")
    # Powerless relays add exactly 0 bits to a block, so merged and split
    # witnesses tie exactly; equal gains tie receivers and blocks.
    yield pytest.param(_equal_gain_network(7, lambda j: float(j % 2)), id="powerless-relays-T7")
    yield pytest.param(
        _equal_gain_network(6, lambda j: 0.0 if j == 3 else 10.0), id="one-powerless-relay-T6"
    )
    yield pytest.param(_equal_gain_network(8, lambda j: 10.0), id="all-equal-T8")
    yield pytest.param(_huge_relay_power_network(), id="huge-relay-power-T4")


def _config_doc(net):
    nodes = []
    for node in net.nodes:
        entry = {"id": node.id, "role": node.role}
        if node.power is not None:
            entry["power"] = node.power
        if node.noise is not None:
            entry["noise"] = node.noise
        nodes.append(entry)
    return {"nodes": nodes, "gains": net.gains.tolist()}


def _count_instances(monkeypatch):
    """A list that grows by one per ConstraintInstance constructed."""
    built = []
    real = enumeration.ConstraintInstance.__post_init__

    def counting(self):
        built.append(self)
        real(self)

    monkeypatch.setattr(enumeration.ConstraintInstance, "__post_init__", counting)
    return built


def _repowered(net, power):
    """The same network with relay j transmitting power(j)."""
    source, *relays, dest = net.nodes
    nodes = [rc.source(1, source.power)]
    nodes += [rc.relay(n.id, power(n.id), n.noise) for n in relays]
    nodes.append(rc.destination(dest.id, dest.noise))
    return rc.from_gains(nodes, net.gains)


def _near_tie_forall_network():
    """T = 4, unit gains and noises, relay powers 1e13, with gain 2 -> 3
    raised by 4 ulps: relay 2's snr at receiver 3 is 4 ulps above its snr
    at the destination (both 5e12), and both give one log2."""
    gains = np.ones((4, 4))
    gains[1, 2] += 4 * 2.0**-52
    nodes = [rc.source(1, 1.0), rc.relay(2, 1e13, 1.0), rc.relay(3, 1e13, 1.0)]
    return _net(nodes + [rc.destination(4, 1.0)], gains)


def _guard_cases():
    """Networks whose exists table the singleton guard must send to the
    DP: one weak relay, every relay weak, block sums that overflow."""
    net = random_network(np.random.default_rng(0), 6)
    for p in (1e-300, 1e-17, 1e-12, 1e-8):
        weak = _repowered(net, lambda j, p=p: p if j == 3 else net.nodes[j - 1].power)
        yield pytest.param(weak, id=f"relay-3-at-{p:g}-T6")
    yield pytest.param(_repowered(net, lambda j: 1e-20), id="all-weak-T6")
    yield pytest.param(_repowered(net, lambda j: 1e308), id="relay-powers-1e308-T6")


def _count_dp_runs(monkeypatch):
    """A list that grows by one per subset DP the table builds run."""
    runs = []
    real = bounds._partition_dp

    def counting(*args):
        runs.append(args)
        return real(*args)

    monkeypatch.setattr(bounds, "_partition_dp", counting)
    return runs


class TestConstraintTableArrays:
    """The array build against the loop build it replaced
    (``constraint_table_by_loops``), and the rows that build instances."""

    @pytest.mark.parametrize("net", _array_build_cases())
    def test_matches_loop_build_bitwise(self, net):
        for quantifier in ("forall", "exists"):
            table = _ConstraintTable(net, quantifier, override_guard=True)
            denoms, instances = constraint_table_by_loops(net, quantifier)
            assert table.denom_log2.tobytes() == denoms.tobytes()
            assert table.instances == instances
            assert tuple(map(table.instance, range(len(denoms)))) == instances

    def test_overflowing_block_sum_keeps_singletons_without_warnings(self):
        net = _huge_relay_power_network()
        single = math.log1p(1e308 / 2.0) / bounds._LN2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            forall = _ConstraintTable(net, "forall")
            exists = _ConstraintTable(net, "exists")
            for quantifier in ("forall", "exists"):
                q, _ = rc.optimize_quantization(net, quantifier=quantifier)
                assert _ConstraintTable(net, quantifier).feasible(np.array(q.values))
        assert forall.denom_log2.tolist() == [single, single, single + single]
        assert forall.instance(2).partition == ((2,), (3,))
        assert exists.denom_log2.tolist() == [single, single, math.inf]
        assert exists.instance(2).partition == ((2, 3),)

    def test_overflowed_denominator_holds_at_every_q(self):
        # Its row reads inf even where N/Q overflows too, which inf - inf
        # read as NaN; a NaN denominator still reads NaN, and a finite one
        # whose cost overflowed reads far below 0.
        table = _ConstraintTable(_huge_relay_power_network(), "exists")
        far_below = table.denom_log2[0] - sys.float_info.max
        with np.errstate(over="ignore"):
            margins = table.margins_log2(np.full(2, 5e-324))
            assert margins.tolist() == [far_below, far_below, math.inf]
            for q in (1e-320, 1e-300, 1.0, 1e300, sys.float_info.max):
                assert table.margins_log2(np.full(2, q))[2] == math.inf
            denoms = np.array([math.nan, math.inf, 1.0])
            got = bounds._margins_log2(denoms, table.noise, table.lam, table.p1, np.full(2, 5e-324))
        assert math.isnan(got[0]) and got[1:].tolist() == [math.inf, 1.0 - sys.float_info.max]

    def test_mixed_batch_builds_each_table_as_alone(self, monkeypatch):
        # Relay counts 0..10 in one call, with the guarded networks, the
        # overflowing one and tied ones among generic networks: under
        # exists, the generic T = 6 tables are singleton sums next to the
        # guarded T = 6 tables' DP columns.
        nets = [param.values[0] for param in _guard_cases()]
        nets += [_huge_relay_power_network(), _equal_gain_network(6, lambda j: 10.0)]
        for t in (2, 3, 4, 6, 9, 12):
            nets += [random_network(np.random.default_rng(s), t) for s in (0, 1)]
        nets.append(_equal_gain_network(7, lambda j: float(j % 2)))
        nets = [nets[i] for i in np.random.default_rng(5).permutation(len(nets))]
        runs = _count_dp_runs(monkeypatch)
        for quantifier in ("forall", "exists"):
            runs.clear()
            batch = bounds._constraint_tables(
                [net._arrays for net in nets], quantifier, override_guard=True
            )
            stacks = sorted(value.shape for value, _ in runs)
            if quantifier == "forall":
                assert stacks == [(1, 32), (2, 1), (2, 2), (2, 128), (2, 1024), (3, 4), (9, 16)]
            else:
                assert stacks == [(1, 4), (1, 32), (6, 16)]
            for net, table in zip(nets, batch):
                alone = _ConstraintTable(net, quantifier, override_guard=True)
                assert table.denom_log2.tobytes() == alone.denom_log2.tobytes()
                assert table.instances == alone.instances
                with np.errstate(over="ignore"):  # lambda_ir P_i -> inf, as in the table
                    denoms, instances = constraint_table_by_loops(net, quantifier)
                assert table.denom_log2.tobytes() == denoms.tobytes()
                assert table.instances == instances

    @given(t=st.integers(3, 8), unit=st.booleans(), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_tied_gain_family_matches_loop_build_bitwise(self, t, unit, data):
        # Unit gains tie every receiver of a block; symmetric gains and
        # relay powers from a few levels (0 among them) tie blocks and
        # partitions. One to three such networks are built in one stack.
        def levels(values, count):
            return data.draw(st.lists(st.sampled_from(values), min_size=count, max_size=count))

        def draw_network():
            powers = levels([0.0, 1.0, 10.0, 100.0], t - 2)
            gains = np.ones((t, t))
            if not unit:
                gains = np.triu(np.reshape(levels([0.5, 1.0, 2.0], t * t), (t, t)))
                gains += np.triu(gains, 1).T
            nodes = [rc.source(1, 1.0)] + [rc.relay(j, p, 1.0) for j, p in zip(range(2, t), powers)]
            return _net(nodes + [rc.destination(t, 1.0)], gains)

        nets = [draw_network() for _ in range(data.draw(st.integers(1, 3)))]
        for quantifier in ("forall", "exists"):
            tables = bounds._constraint_tables([net._arrays for net in nets], quantifier)
            for net, table in zip(nets, tables):
                denoms, instances = constraint_table_by_loops(net, quantifier)
                assert table.denom_log2.tobytes() == denoms.tobytes()
                assert table.instances == instances

    @pytest.mark.parametrize("mode", ["uniform", "coordinate"])
    def test_huge_power_config_optimizes_without_warnings(self, mode):
        # T = 5, unit gains, P1 = 1, relay powers 1e100, 1e250, 1e300,
        # relay noises 1e-300, 1, 1e300, destination noise 1.
        net = next(_extreme_networks())
        for quantifier in ("forall", "exists"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                q, rate = rc.optimize_quantization(net, mode, quantifier)
            assert _ConstraintTable(net, quantifier).feasible(np.array(q.values))
            assert math.isfinite(rate)

    def test_sweep_builds_no_instance(self, monkeypatch, tmp_path, capsys):
        net = random_network(np.random.default_rng(5), 8)
        doc = dict(_config_doc(net), sweep={"gammas": [1, 10, 100]})
        path = tmp_path / "net.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        built = _count_instances(monkeypatch)
        for quantifier in ("forall", "exists"):
            assert cli.main(["sweep", "--config", str(path), "--quantifier", quantifier]) == 0
        out = capsys.readouterr().out.splitlines()
        rows = [row for row in out if not row.startswith("gamma,")]
        assert len(rows) == 6 and all(row.endswith(",true") for row in rows)
        assert built == []

    @pytest.mark.parametrize("top_k", [-1, 0, 1, 5, 64])
    def test_report_builds_only_the_printed_instances(self, monkeypatch, top_k):
        net = random_network(np.random.default_rng(6), 8)
        built = _count_instances(monkeypatch)
        if top_k < 0:
            # Refused before any work: no table is built.
            monkeypatch.setattr(bounds, "_ConstraintTable", None)
            with pytest.raises(ValueError, match="^top_k must be >= 0, got -1$"):
                rc.build_rate_report(net, top_k=top_k)
            return
        for quantifier in ("forall", "exists"):
            for mode in ("uniform", "coordinate"):
                built.clear()
                rep = rc.build_rate_report(net, mode, quantifier, top_k=top_k)
                assert len(built) == len(rep.binding_constraints) == min(top_k, 63)

    @pytest.mark.parametrize(
        "net",
        [
            pytest.param(random_network(np.random.default_rng(7), 7), id="random-T7"),
            pytest.param(_equal_gain_network(6, lambda j: 10.0), id="tied-T6"),
            pytest.param(_equal_gain_network(7, lambda j: 10.0 ** (j % 3)), id="tied-powers-T7"),
        ],
    )
    @pytest.mark.parametrize("top_k", [0, 1, 5, 100])
    def test_binding_rows_are_the_sorted_margins(self, net, top_k):
        for quantifier in ("forall", "exists"):
            rep = rc.build_rate_report(net, quantifier=quantifier, top_k=top_k)
            margins = _ConstraintTable(net, quantifier).constraint_margins(rep.q_star)
            want = sorted(margins, key=lambda m: m.margin_log2)[:top_k]
            assert rep.binding_constraints == tuple(want)

    def test_tied_network_has_tied_margins(self):
        net = _equal_gain_network(6, lambda j: 10.0)
        for quantifier in ("forall", "exists"):
            rep = rc.build_rate_report(net, quantifier=quantifier, top_k=100)
            values = [m.margin_log2 for m in rep.binding_constraints]
            assert len(set(values)) < len(values) == 15

    @pytest.mark.parametrize(
        "net",
        [
            pytest.param(_equal_gain_network(3, lambda j: 0.0), id="powerless-T3"),
            pytest.param(_equal_gain_network(7, lambda j: float(j % 2)), id="powerless-relays-T7"),
            pytest.param(
                _equal_gain_network(6, lambda j: 0.0 if j == 3 else 10.0),
                id="one-powerless-relay-T6",
            ),
        ],
    )
    def test_infeasible_names_the_first_blocked_subset(self, monkeypatch, net):
        for quantifier in ("forall", "exists"):
            denoms, instances = constraint_table_by_loops(net, quantifier)
            first = next(inst.s for inst, d in zip(instances, denoms) if not d > 0.0)
            built = _count_instances(monkeypatch)
            with pytest.raises(Infeasible) as err:
                rc.optimize_quantization(net, quantifier=quantifier)
            monkeypatch.undo()
            assert str(err.value).startswith(f"relay subset {first} cannot forward")
            assert len(built) == 1

    def test_monotonicity_suite_builds_one_table_per_network(self, monkeypatch):
        calls = []
        real = selftest._constraint_tables

        def counting(nets, *args, **kwargs):
            calls.append(list(nets))
            return real(calls[-1], *args, **kwargs)

        monkeypatch.setattr(selftest, "_constraint_tables", counting)
        monkeypatch.setattr(selftest, "cf_feasible", None)
        result = selftest.monotonicity_suite(samples=20)
        assert result.passed, result.detail
        (builds,) = calls
        assert len(builds) == len({id(net) for net in builds}) == 20

    @pytest.mark.parametrize("net", list(_guard_cases()))
    def test_guarded_networks_run_the_dp_and_match_loop_build_bitwise(self, monkeypatch, net):
        runs = _count_dp_runs(monkeypatch)
        for quantifier in ("forall", "exists"):
            runs.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                table = _ConstraintTable(net, quantifier)
            assert len(runs) == 1
            with np.errstate(over="ignore"):  # lambda_ir P_i -> inf, as in the table
                denoms, instances = constraint_table_by_loops(net, quantifier)
            assert table.denom_log2.tobytes() == denoms.tobytes()
            assert table.instances == instances

    def test_forall_ratios_ulps_apart_keep_the_first_receiver(self):
        net = _near_tie_forall_network()
        # The snrs differ, yet their values tie, so the first receiver wins
        # although the destination's snr is the smaller.
        above, at = (1.0 + 4 * 2.0**-52) * 1e13 / 2.0, 1e13 / 2.0
        assert above > at > 1e12
        assert math.log1p(above) == math.log1p(at)
        for quantifier in ("forall", "exists"):
            table = _ConstraintTable(net, quantifier)
            denoms, instances = constraint_table_by_loops(net, quantifier)
            assert table.denom_log2.tobytes() == denoms.tobytes()
            assert table.instances == instances
            assert table.instance(0).assignment == (3,)

    def test_generic_exists_tables_need_no_dp(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the exists table must not run the subset DP")

        monkeypatch.setattr(bounds, "_partition_dp", refuse)
        for t in range(2, 13):
            for s in range(3):
                net = random_network(np.random.default_rng(s), t)
                table = _ConstraintTable(net, "exists", override_guard=True)
                denoms, instances = constraint_table_by_loops(net, "exists")
                assert table.denom_log2.tobytes() == denoms.tobytes()
                assert table.instances == instances
                if t > 2:
                    with pytest.raises(AssertionError, match="must not run"):
                        _ConstraintTable(net, "forall", override_guard=True)


#: The suites' default seeds, and two large seed bumps like the benchmark's.
SUITE_SEEDS = {
    "determinant_lemma_suite": 20250811,
    "monotonicity_suite": 20250812,
    "achievability_suite": 20250813,
}
SEED_BUMPS = (0, 1, 2, 3 * 1234567, 3 * 1234568)

SERIAL_SUITES = {
    "determinant_lemma_suite": determinant_lemma_suite_by_samples,
    "monotonicity_suite": monotonicity_suite_by_samples,
    "achievability_suite": achievability_suite_by_samples,
}


class TestBatchedSuites:
    """The random verify suites, batched, against their serial oracles."""

    @pytest.mark.parametrize("bump", SEED_BUMPS)
    @pytest.mark.parametrize("samples", [1, 2, 7, 100])
    @pytest.mark.parametrize("name", list(SERIAL_SUITES))
    def test_check_result_matches_serial_suite(self, name, samples, bump):
        seed = SUITE_SEEDS[name] + bump
        got = getattr(selftest, name)(samples, seed)
        assert got == SERIAL_SUITES[name](samples, seed)

    @pytest.mark.parametrize("bump", SEED_BUMPS)
    @pytest.mark.parametrize("name", ["monotonicity_suite", "achievability_suite"])
    def test_uniform_optima_match_serial_searches_bitwise(self, monkeypatch, name, bump):
        # Every Q* and push factor reaches the push, on both paths.
        batched, serial_pushes = [], []
        real_batch, real_one = selftest._pushed, oracles.pushed_inside

        def recording_batch(optima, factors):
            batched.extend((q.tolist(), f.tolist()) for q, f in zip(optima, factors))
            return real_batch(optima, factors)

        def recording_one(q_star, factors):
            serial_pushes.append((list(q_star.values), factors.tolist()))
            return real_one(q_star, factors)

        monkeypatch.setattr(selftest, "_pushed", recording_batch)
        monkeypatch.setattr(oracles, "pushed_inside", recording_one)
        seed = SUITE_SEEDS[name] + bump
        points = selftest._feasible_points(np.random.default_rng(seed), 100)
        rng = np.random.default_rng(seed)
        serial = []
        for _ in range(100):
            net = random_network(rng, int(rng.integers(3, 7)))
            serial.append(sample_feasible_q(rng, net))
        # Q values are positive and finite: == is bit equality.
        assert batched == serial_pushes
        assert [q.tolist() for _, q in points] == [list(q.values) for q in serial]

    @pytest.mark.parametrize("bump", SEED_BUMPS)
    @pytest.mark.parametrize("samples", [1, 7, 100])
    @pytest.mark.parametrize("name", ["monotonicity_suite", "achievability_suite"])
    def test_network_draws_match_random_network_bitwise(self, name, samples, bump):
        # The scalars are Python's 10.0 ** x and the gains and factors
        # np.power, whose last bit can differ from Python's pow: every
        # array, its NaNs and its read-only flag, as one network at a time.
        seed = SUITE_SEEDS[name] + bump
        rng = np.random.default_rng(seed)
        networks, factors = selftest._network_draws(rng, samples)
        serial_rng = np.random.default_rng(seed)
        assert len(networks) == len(factors) == samples
        for arrays, push in zip(networks, factors):
            net = random_network(serial_rng, int(serial_rng.integers(3, 7)))
            for got, want in zip(arrays, net._arrays, strict=True):
                assert got.shape == want.shape and got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()
                assert not got.flags.writeable and not want.flags.writeable
            want = push_factors(serial_rng, len(net.relay_ids))
            assert push.shape == want.shape and push.tobytes() == want.tobytes()
        assert rng.bit_generator.state == serial_rng.bit_generator.state

    @pytest.mark.parametrize("bump", SEED_BUMPS)
    @pytest.mark.parametrize("samples", [1, 7, 100, 500])
    def test_determinant_draws_match_serial_draws_bitwise(self, samples, bump):
        seed = SUITE_SEEDS["determinant_lemma_suite"] + bump
        rng = np.random.default_rng(seed)
        stacks = selftest._determinant_draws(rng, samples)
        got = [None] * samples
        for draws, *arrays in stacks:
            for row, k in enumerate(draws):
                got[k] = [a[row] for a in arrays]
        for (lam, noise, qv, p1), want in zip(got, determinant_lemma_draws(samples, seed)):
            for a, b in zip((lam, noise, qv), want[:3], strict=True):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()
            assert float(p1) == want[3]

    @pytest.mark.parametrize("bump", SEED_BUMPS)
    def test_determinants_match_public_route_bitwise(self, bump):
        seed = SUITE_SEEDS["determinant_lemma_suite"] + bump
        dets, _ = selftest._determinants(
            selftest._determinant_draws(np.random.default_rng(seed), 500)
        )
        draws = determinant_lemma_draws(500, seed)
        assert dets.tolist() == [determinant_by_network(*d) for d in draws]

    def test_determinant_lemma_factors_one_stack_per_size(self, monkeypatch):
        # Every instance goes through the kernel behind the public
        # determinant, one call per size; none through the public function.
        stacks = []
        real_kernel = selftest._rank_one_log2_dets

        def kernel(lam, noise, p1):
            stacks.append(lam.shape)
            assert noise.shape == lam.shape and p1.shape == lam.shape[:1]
            return real_kernel(lam, noise, p1)

        def public(*args):
            raise AssertionError("the suite must not call the public determinant")

        monkeypatch.setattr(selftest, "quantized_covariance_det", public)
        monkeypatch.setattr(selftest, "_rank_one_log2_dets", kernel)
        assert selftest.determinant_lemma_suite().passed
        assert sorted(d for _, d in stacks) == [1, 2, 3, 4, 5, 6]
        assert sum(count for count, _ in stacks) == 500

    @pytest.mark.parametrize("name", ["monotonicity_suite", "achievability_suite"])
    def test_one_lockstep_run_per_relay_count(self, monkeypatch, name):
        # One call decides every network; inside it, each relay count's
        # run stacks its denominators once.
        calls, stacks = [], {}
        real, real_margins = selftest._uniform_optima, bounds._margins_log2

        def counting(tables):
            calls.append(len(tables))
            monkeypatch.setattr(bounds, "_margins_log2", margins)
            try:
                return real(tables)
            finally:
                monkeypatch.setattr(bounds, "_margins_log2", real_margins)

        def margins(denom, *args):
            stacks[id(denom)] = denom
            return real_margins(denom, *args)

        monkeypatch.setattr(selftest, "_uniform_optima", counting)
        assert getattr(selftest, name)().passed
        assert calls == [100]
        assert sorted(len(denom) for denom in stacks.values()) == [1, 3, 7, 15]

    @pytest.mark.parametrize(
        "relay_power, error",
        [
            pytest.param(0.0, "relay subset (2,) cannot forward", id="blocked"),
            pytest.param(1e-310, "no finite quantization noise", id="no-frontier"),
        ],
    )
    @pytest.mark.parametrize("name", ["monotonicity_suite", "achievability_suite"])
    def test_first_failing_sample_is_named(self, monkeypatch, name, relay_power, error):
        # Sample 5's network is swapped, after the real draws, for an
        # equal-gain one of its size: in the serial suite's random_network
        # calls, and in the batched suite's stacked draws.
        real, real_draws = oracles.random_network, selftest._network_draws

        def draw(rng, num_nodes, drawn=itertools.count()):
            net = real(rng, num_nodes)
            return swapped(num_nodes) if next(drawn) == 5 else net

        def draws(rng, samples):
            networks, factors = real_draws(rng, samples)
            networks[5] = swapped(len(networks[5][1]))._arrays
            return networks, factors

        def swapped(num_nodes):
            return _equal_gain_network(num_nodes, lambda j: relay_power)

        monkeypatch.setattr(oracles, "random_network", draw)
        want = SERIAL_SUITES[name](20, SUITE_SEEDS[name])
        monkeypatch.setattr(selftest, "_network_draws", draws)
        got = getattr(selftest, name)(20, SUITE_SEEDS[name])
        assert got == want
        assert not got.passed
        assert got.detail.startswith(f"sample 5: feasible point search failed: {error}")


def test_selftest_keeps_every_name_the_benchmark_tracer_wraps():
    for name in (
        "optimize_quantization",
        "cf_feasible",
        "cf_rate",
        "source_cut_bound",
        "quantized_covariance_det",
        "alpha_suite",
        "beta_suite",
        "determinant_lemma_suite",
        "monotonicity_suite",
        "achievability_suite",
        "verify_single_relay_independence",
        "verify_relay_correlation_invariance",
    ):
        assert callable(getattr(selftest, name))


def _rate_cases():
    """(network, Q) pairs of mixed relay counts: random T = 3..7 networks
    at random Q, a relay-free T = 2 network, a T = 3 network with relay
    noise 1e308 whose N + Q overflows, and two T = 5 networks where it
    overflows for one relay and for two, beside the random T = 5 ones."""
    rng = np.random.default_rng(20261025)
    cases = []
    for t in (3, 4, 5, 6, 7) * 4:
        net = random_network(rng, t)
        values = (10.0 ** rng.uniform(-3.0, 3.0, size=t - 2)).tolist()
        cases.append((net, rc.QuantizationVector(entries=tuple(zip(net.relay_ids, values)))))
    cases.append((_net([rc.source(1, 2.0), rc.destination(2, 0.5)]), rc.QuantizationVector(())))
    huge = _net([rc.source(1, 1.0), rc.relay(2, 2.2, 1e308), rc.destination(3, 1.0)])
    cases.append((huge, rc.QuantizationVector.uniform(1e308, (2,))))
    relays = [rc.relay(j, 10.0, noise) for j, noise in zip((2, 3, 4), (1e308, 1.0, 1e308))]
    huge = _net([rc.source(1, 1.5), *relays, rc.destination(5, 0.5)])
    cases.append((huge, rc.QuantizationVector.per_relay({2: 1e308, 3: 2.0, 4: 1.0})))
    cases.append((huge, rc.QuantizationVector.uniform(1e308, (2, 3, 4))))
    return cases


class TestStackedChecks:
    """The per-sample checks of the random verify suites and the sweep's
    rates, stacked, against their one-at-a-time forms."""

    def test_stacked_rates_match_the_network_oracle_bitwise(self):
        cases = _rate_cases()
        want = [cf_rate_by_network(net, q) for net, q in cases]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = bounds._cf_rates([net._arrays for net, _ in cases], [q.values for _, q in cases])
            assert got.tolist() == want
            assert [rc.cf_rate(net, q) for net, q in cases] == want
        # An overflowed relay is dropped: the T = 3 network's destination
        # hears the source alone, 1/2 log2(1 + 1/1).
        assert want[-3] == 0.5

    def test_rates_at_zero_q_are_the_source_cut_bound_bitwise(self):
        nets = [net for net, _ in _rate_cases()]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = bounds._cf_rates(
                [net._arrays for net in nets], [(0.0,) * len(net.relay_ids) for net in nets]
            )
            assert got.tolist() == [rc.source_cut_bound(net) for net in nets]

    def test_one_rate_stack_per_count_of_receivers_heard(self, monkeypatch):
        shapes, real = [], bounds._whitened_mi_bits

        def recording(w):
            shapes.append(w.shape)
            return real(w)

        monkeypatch.setattr(bounds, "_whitened_mi_bits", recording)
        cases = _rate_cases()
        bounds._cf_rates([net._arrays for net, _ in cases], [q.values for _, q in cases])
        # One stack per relay count, where the overflowed relays split a
        # run: at T = 3 into 2 and 1 receivers heard, at T = 5 into 4, 3
        # and 2.
        assert sorted(shapes) == [
            (1, 1, 1), (1, 1, 1), (1, 2, 1), (1, 3, 1),
            (4, 2, 1), (4, 3, 1), (4, 4, 1), (4, 5, 1), (4, 6, 1),
        ]

    def test_stacked_feasibility_matches_each_table(self):
        rng = np.random.default_rng(20261026)
        nets = [random_network(rng, t) for t in (2, 3, 4, 5, 6, 3, 5) for _ in range(2)]
        tables = bounds._constraint_tables([net._arrays for net in nets], "forall")
        pairs = []
        for table, q_star in zip(tables, bounds._uniform_optima(tables)):
            for c in (0.5, 1.0, 1.5):
                values = [v * c for v in q_star.tolist()]
                pairs.append((table, values))
        got = bounds._feasible([t for t, _ in pairs], [q for _, q in pairs])
        assert got == [t.feasible(np.array(q)) for t, q in pairs]
        assert True in got and False in got

    def test_sweep_rates_its_rows_in_one_call(self, monkeypatch, reference_network):
        calls, real = [], bounds._cf_rates

        def counting(nets, qs):
            calls.append(len(nets))
            return real(nets, qs)

        def refuse(*args):
            raise AssertionError("the sweep must not rate a row alone")

        monkeypatch.setattr(bounds, "_cf_rates", counting)
        monkeypatch.setattr(bounds, "cf_rate", refuse)
        rows = rc.convergence_sweep(reference_network, _SWEEP_GAMMAS)
        monkeypatch.undo()
        assert calls == [len(_SWEEP_GAMMAS)]
        assert _row_keys(rows) == _row_keys(
            convergence_sweep_by_rows(reference_network, _SWEEP_GAMMAS)
        )

    def test_suites_make_no_per_sample_rate_or_feasibility_call(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("no suite may check one sample alone")

        for name in ("cf_rate", "source_cut_bound"):
            monkeypatch.setattr(selftest, name, refuse)
            monkeypatch.setattr(bounds, name, refuse)
        monkeypatch.setattr(bounds._ConstraintTable, "feasible", refuse)
        assert selftest.achievability_suite().passed
        assert selftest.monotonicity_suite().passed

    @staticmethod
    def _pushing(index, push):
        """Faults that replace sample ``index``'s pushed point by
        ``push(q_star, point)``, both given as value arrays: one in the
        serial suite's ``pushed_inside`` calls, one in the batched suite's
        ``_pushed`` call."""
        real_one, real_batch = oracles.pushed_inside, selftest._pushed

        def one_at_a_time():
            calls = itertools.count()

            def pushed(q_star, factors):
                point = real_one(q_star, factors)
                if next(calls) != index:
                    return point
                values = push(np.array(q_star.values), np.array(point.values))
                return rc.QuantizationVector(entries=tuple(zip(point.ids, values.tolist())))

            return pushed

        def batched(optima, factors):
            points = real_batch(optima, factors)
            points[index] = push(optima[index], points[index])
            return points

        return (oracles, "pushed_inside", one_at_a_time), (selftest, "_pushed", lambda: batched)

    def _both_paths(self, monkeypatch, name, samples, *faults):
        """The serial suite's and the batched suite's CheckResult, each run
        with the ``faults``, (module, attribute, factory) triples, fresh."""
        results = []
        for suite in (SERIAL_SUITES[name], getattr(selftest, name)):
            for module, attribute, factory in faults:
                monkeypatch.setattr(module, attribute, factory())
            results.append(suite(samples, SUITE_SEEDS[name]))
        return results

    def test_infeasible_sample_is_named_as_the_serial_suite_names_it(self, monkeypatch):
        # Sample 5's point is Q*/2, below the uniform frontier.
        halve = self._pushing(5, lambda q_star, _: q_star * 0.5)
        want, got = self._both_paths(monkeypatch, "monotonicity_suite", 20, *halve)
        assert got == want
        assert got.detail == "sample 5: sampled Q not feasible at scale 1"

    def test_broken_scale_is_named_as_the_serial_suite_names_it(self, monkeypatch):
        # Sample 5's point is lifted until its smallest Q is 2e9, and every
        # per-relay margin evaluation reads -1 where the smallest Q passes
        # 1e10 (the uniform search, with one Q per column, is left alone):
        # scale 10 breaks sample 5.
        real = bounds._margins_log2

        def faulty(denom_log2, noise, lam, p1, q_values):
            margins = real(denom_log2, noise, lam, p1, q_values)
            if q_values.ndim != denom_log2.ndim:
                return margins
            return np.where(q_values.min(axis=0) > 1e10, -1.0, margins)

        lift = self._pushing(5, lambda _, point: point * (2e9 / point.min()))
        margins = (bounds, "_margins_log2", lambda: faulty)
        want, got = self._both_paths(monkeypatch, "monotonicity_suite", 20, *lift, margins)
        assert got == want
        assert got.detail.startswith("sample 5: scale 10.0 broke feasibility (S=(")
        assert got.detail.endswith(", margin -1.000e+00)")

    def test_nan_margin_is_named_at_its_broken_scale(self, monkeypatch):
        # As above, but where the smallest Q passes 1e10 every margin reads
        # 0.5 except row 1's, which reads NaN: scale 10 breaks sample 5 at
        # row 1, which min() would skip to name row 0, a row that holds.
        real = bounds._margins_log2

        def faulty(denom_log2, noise, lam, p1, q_values):
            margins = real(denom_log2, noise, lam, p1, q_values)
            if q_values.ndim != denom_log2.ndim:
                return margins
            nan_later = np.full_like(margins, 0.5)
            nan_later[1:2] = math.nan  # a one-relay table has no row 1
            return np.where(q_values.min(axis=0) > 1e10, nan_later, margins)

        lift = self._pushing(5, lambda _, point: point * (2e9 / point.min()))
        margins = (bounds, "_margins_log2", lambda: faulty)
        want, got = self._both_paths(monkeypatch, "monotonicity_suite", 20, *lift, margins)
        monkeypatch.undo()
        rng = np.random.default_rng(SUITE_SEEDS["monotonicity_suite"])
        table, _ = selftest._feasible_points(rng, 20)[5]
        s = table.instance(1).s
        assert s != table.instance(0).s
        assert got == want
        assert got.detail == f"sample 5: scale 10.0 broke feasibility (S={s}, margin nan)"

    def test_rate_above_bound_is_named_as_the_serial_suite_names_it(self, monkeypatch):
        # Every rate and bound, stacked or alone, goes through the Cholesky
        # kernel; a 1 x 1 matrix above 40 gets its log-det negated. Only
        # sample 9's bound lies there, so its rate reads above its bound.
        real = gaussian._stacked_cholesky_log2_det

        def flipped(stack):
            log2_dets = real(stack)
            return np.where(stack[:, 0, 0] > 40.0, -log2_dets, log2_dets)

        kernel = (gaussian, "_stacked_cholesky_log2_det", lambda: flipped)
        want, got = self._both_paths(monkeypatch, "achievability_suite", 20, kernel)
        assert got == want
        assert re.fullmatch(r"sample 9: rate \S+ exceeds bound -\S+", got.detail)

    def test_nan_rate_fails_at_its_sample(self, monkeypatch):
        # Sample 3's rate reads NaN, which compares False with any bound.
        real_batch, real_one = selftest._cf_rates, oracles.cf_rate_by_network

        def batch():
            calls = itertools.count()

            def rates(networks, qs):
                got = real_batch(networks, qs)
                if next(calls) == 0:  # the rates; the bounds come next
                    got[3] = math.nan
                return got

            return rates

        def one_at_a_time():
            calls = itertools.count()
            return lambda net, q: math.nan if next(calls) == 3 else real_one(net, q)

        faults = (selftest, "_cf_rates", batch), (oracles, "cf_rate_by_network", one_at_a_time)
        want, got = self._both_paths(monkeypatch, "achievability_suite", 20, *faults)
        assert got == want
        assert re.fullmatch(r"sample 3: rate nan exceeds bound \S+", got.detail)

    def test_nan_determinant_fails_the_suite(self, monkeypatch):
        # Instance 7 reads a NaN log-det. Python's max, starting from 0.0,
        # would drop it.
        target = determinant_lemma_draws(500, SUITE_SEEDS["determinant_lemma_suite"])[7][0]

        def nan_at_target(real):
            def kernel(lam, noise, p1):
                log2_dets = real(lam, noise, p1)
                if lam.shape[1] != len(target):
                    return log2_dets
                return np.where((lam == target).all(axis=1), math.nan, log2_dets)

            return lambda: kernel

        faults = (
            (selftest, "_rank_one_log2_dets", nan_at_target(selftest._rank_one_log2_dets)),
            (bounds, "_rank_one_log2_dets", nan_at_target(bounds._rank_one_log2_dets)),
        )
        want, got = self._both_paths(monkeypatch, "determinant_lemma_suite", 500, *faults)
        assert got == want == selftest.CheckResult(
            "determinant-lemma",
            False,
            "500 random instances (size <= 6); worst relative error nan",
        )

    def test_every_drawn_network_is_valid(self):
        # The draws are valid by construction, and no check of their own
        # says so: wrapped as a NetworkSpec, each one passes validate.
        sizes = set()
        for seed in range(5):
            networks, _ = selftest._network_draws(np.random.default_rng(seed), 500)
            for gains, powers, noise in networks:
                t = len(powers)
                sizes.add(t)
                relays = [rc.relay(j, powers[j - 1], noise[j - 1]) for j in range(2, t)]
                nodes = [rc.source(1, powers[0]), *relays, rc.destination(t, noise[-1])]
                assert topology.validate(topology.from_gains(nodes, gains)) == []
        assert sizes == {3, 4, 5, 6}

    def test_overflowing_push_raises_non_positive_q(self):
        # Q* = 1e307 pushed by 100 overflows, silently, as Python floats
        # do, and the first value that is not finite and positive raises
        # the error that the serial push raises.
        optima = [Infeasible("none"), np.full(1, 1.0), np.full(2, 1e307)]
        factors = [np.ones(1), np.array([2.0]), np.array([1.0, 100.0])]
        with pytest.raises(NonPositiveQ) as want:
            oracles.pushed_inside(rc.QuantizationVector.uniform(1e307, (2, 3)), factors[2])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonPositiveQ) as got:
                selftest._pushed(optima, factors)
            points = selftest._pushed(optima[:2], factors[:2])
        assert str(got.value) == str(want.value)
        assert str(got.value) == "Q_3 must be a finite positive variance, got inf"
        assert points[0] is optima[0] and points[1].tolist() == [2.0]


def _descent_cases():
    rng = np.random.default_rng(20261019)
    for t in range(3, 11):
        yield pytest.param(random_network(rng, t), id=f"random-T{t}")
        yield pytest.param(_asymmetric_network(rng, t), id=f"asymmetric-T{t}")
        yield pytest.param(
            _equal_gain_network(t, lambda j: 10.0 ** (j % 3)), id=f"tied-powers-T{t}"
        )
        powers = 10.0 ** rng.uniform(0.0, 3.0, size=t)
        yield pytest.param(
            _equal_gain_network(t, lambda j: float(powers[j])), id=f"unit-gain-T{t}"
        )


@pytest.mark.parametrize("net", _descent_cases())
def test_cut_table_rows_equal_cut_rate_exactly(net):
    # cut_rate runs the table's kernel on its cut's branch of the tree (or
    # the same closed form on a rank-one cut), so every row is cut_rate's
    # value for its cut, bit for bit.
    table = rc.cut_rate_table(net)
    assert [rate for _, rate in table] == [rc.cut_rate(net, cut) for cut, _ in table]


def _uniform_start(table):
    """The table's uniform optimum as values; raises its Infeasible."""
    _, start, _ = bounds._optimize(table, "uniform")
    return start


def _extreme_networks():
    """T = 5, unit gains, relay powers 1e100, 1e250 and 1e300, and the
    relay noises 1e-300, 1 and 1e300 in every order."""
    for noises in itertools.permutations((1e-300, 1.0, 1e300)):
        nodes = [rc.source(1, 1.0)]
        nodes += [rc.relay(j, p, n) for j, p, n in zip((2, 3, 4), (1e100, 1e250, 1e300), noises)]
        yield _net(nodes + [rc.destination(5, 1.0)])


def _fixed_point_cases():
    yield from _descent_cases()
    # A T = 10 network whose first cycles leave one Q an ulp above its
    # frontier: a stop after one cycle, or on a rate gain, ends short.
    rng = np.random.default_rng(461)
    yield pytest.param(random_network(rng, int(rng.integers(3, 11))), id="seed-461-T10")


class TestCoordinateDescent:
    """The closed-form per-coordinate frontier against the bisection
    descent it replaced (``coordinate_descent_by_bisection``)."""

    @pytest.mark.parametrize("net", _fixed_point_cases())
    def test_stops_at_its_fixed_point(self, net, monkeypatch):
        steps, rates = [], []
        step, cf_rates = bounds._coordinate_step, bounds._cf_rates
        monkeypatch.setattr(bounds, "_coordinate_step", lambda *a: steps.append(a) or step(*a))
        monkeypatch.setattr(bounds, "_cf_rates", lambda *a: rates.append(a) or cf_rates(*a))
        n = len(net.relay_ids)
        rows = partition_dp._dp_layout(n).member[1:].T
        for quantifier in ("forall", "exists"):
            steps.clear()
            rates.clear()
            report = rc.build_rate_report(net, "coordinate", quantifier)
            assert len(rates) == 1  # the report's rate, of the final Q only
            assert len(steps) < DESCENT_MAX_CYCLES * n
            # One more cycle moves no coordinate.
            table = _ConstraintTable(net, quantifier)
            q_values = np.array(report.q_star.values)
            with np.errstate(over="ignore"):
                moved = [k for k in range(n) if step(table, q_values, k, rows[k]) != q_values[k]]
            assert moved == []

    @pytest.mark.parametrize("net", _descent_cases())
    def test_matches_bisection_oracle(self, net):
        for quantifier in ("forall", "exists"):
            table = _ConstraintTable(net, quantifier)
            start = _uniform_start(table)
            q = bounds._coordinate_descent(table, start)
            want = coordinate_descent_by_bisection(table, start)
            assert table.cf_rate(q) == pytest.approx(table.cf_rate(want), rel=0.0, abs=1e-9)
            assert table.feasible(q)
            assert not table.feasible(q * (1.0 - 1e-6))
            # Bisection stops up to rel_tol above each coordinate's frontier,
            # and that slack moves where its descent stalls, either way. At a
            # tight tolerance it comes no closer than the fixed point.
            want = coordinate_descent_by_bisection(table, start, 1e-15)
            assert table.cf_rate(q) >= table.cf_rate(want) - 1e-12

    def test_search_runs_only_for_the_uniform_start(self, monkeypatch):
        calls = []
        real = bounds._lockstep_search

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(bounds, "_lockstep_search", counting)
        net = random_network(np.random.default_rng(8), 8)
        for quantifier in ("forall", "exists"):
            for optimize in (rc.optimize_quantization, rc.build_rate_report):
                calls.clear()
                optimize(net, "coordinate", quantifier)
                assert len(calls) == 1
            for extreme in _extreme_networks():
                calls.clear()
                rc.optimize_quantization(extreme, "coordinate", quantifier)
                assert len(calls) == 1

    @pytest.mark.parametrize("net", _extreme_networks())
    def test_extreme_magnitudes(self, net):
        for quantifier in ("forall", "exists"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    q, _ = rc.optimize_quantization(net, "coordinate", quantifier)
                except Infeasible:
                    table = _ConstraintTable(net, quantifier)
                    with pytest.raises(Infeasible):
                        coordinate_descent_by_bisection(table, _uniform_start(table))
                    continue
                table = _ConstraintTable(net, quantifier)
                start = _uniform_start(table)
            q_values = np.array(q.values)
            assert table.feasible(q_values)
            assert np.all(q_values > 0.0)
            assert np.all(q_values <= start)

    def test_coordinate_is_kept_when_every_bound_overflows(self, reference_network):
        # With 2000-bit denominators every m_S is near 1386 nats, past
        # expm1's overflow at ~709.78, so every bound is 0: no help.
        table = _ConstraintTable(reference_network, "forall")
        table.denom_log2 = np.full_like(table.denom_log2, 2000.0)
        start = np.full(len(table.relays), 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert bounds._coordinate_descent(table, start).tolist() == start.tolist()


class TestRateReport:
    def test_gap_invariant_enforced(self, reference_network):
        q = rc.QuantizationVector.uniform(1.0, (2, 3))
        with pytest.raises(ValueError, match="exceeds"):
            rc.RateReport(
                upper_bound_bits=0.5,
                cf_rate_bits=1.0,
                q_star=q,
                gap_bits=-0.5,
                binding_constraints=(),
                min_cut=rc.CutSpec(tx_side=frozenset({1})),
                min_cut_bits=0.5,
                quantifier="forall",
            )
        with pytest.raises(ValueError, match="^inconsistent gap: 0.25 vs bound-rate 0.5$"):
            rc.RateReport(
                upper_bound_bits=1.0,
                cf_rate_bits=0.5,
                q_star=q,
                gap_bits=0.25,
                binding_constraints=(),
                min_cut=rc.CutSpec(tx_side=frozenset({1})),
                min_cut_bits=1.0,
                quantifier="forall",
            )

    def test_build_rate_report_reference(self, reference_network):
        rep = rc.build_rate_report(reference_network, top_k=2)
        assert rep.upper_bound_bits == pytest.approx(1.0, abs=1e-12)
        assert rep.gap_bits == pytest.approx(
            rep.upper_bound_bits - rep.cf_rate_bits, abs=1e-12
        )
        assert len(rep.binding_constraints) == 2
        # tightest first
        assert (
            rep.binding_constraints[0].margin_log2
            <= rep.binding_constraints[1].margin_log2
        )
        assert rep.min_cut.sorted_ids() == (1,)

    @pytest.mark.parametrize("t", [3, 5, 8])
    def test_report_evaluates_each_cut_once(self, monkeypatch, t):
        # One cut-table evaluation per report, rating each of the 2^(T-2)
        # cuts once: one Schur-complement tree with 2^(T-2) leaves, and
        # three one-channel calls of the Gram route, the source cut's and
        # the all-relay cut's closed forms and the compress-forward rate's
        # column (cf_rate is a stack of one); the table's rates are the
        # per-cut oracle's, cut by cut.
        net = random_network(np.random.default_rng(t), t)
        tables, leaves, rated = [], [], []
        real_rates, real_tree = bounds._cut_rates, bounds._cut_tree_log2_dets
        real_mi = bounds._whitened_mi_bits

        def counting_rates(*args):
            tables.append(real_rates(*args))
            return tables[-1]

        def counting_tree(*args):
            result = real_tree(*args)
            leaves.append(len(result[0]))
            return result

        def counting_mi(w):
            rated.append(len(w))
            return real_mi(w)

        monkeypatch.setattr(bounds, "_cut_rates", counting_rates)
        monkeypatch.setattr(bounds, "_cut_tree_log2_dets", counting_tree)
        monkeypatch.setattr(bounds, "_whitened_mi_bits", counting_mi)
        monkeypatch.setattr(bounds, "cut_rate", _refuse_per_cut)
        rep = rc.build_rate_report(net)
        monkeypatch.undo()
        assert len(tables) == 1
        assert leaves == [2 ** (t - 2)]
        assert rated == [1, 1, 1]
        want = [rate for _, rate in cut_table_by_cuts(net)]
        assert tables[0].tolist() == pytest.approx(want, rel=0.0, abs=1e-10)
        assert rep.upper_bound_bits == rc.source_cut_bound(net)
        assert (rep.min_cut_bits, rep.min_cut) == rc.min_cut_bound(net)


class TestConvergenceSweep:
    def test_gamma_one_matches_direct_optimization(self, reference_network):
        row = rc.convergence_sweep(reference_network, [1.0])[0]
        q, rate = rc.optimize_quantization(reference_network)
        assert row.cf_rate_bits == pytest.approx(rate, rel=1e-12)
        assert row.q_uniform == pytest.approx(q.values[0], rel=1e-12)
        assert row.feasible

    def test_gap_nonincreasing_on_reference(self, reference_network):
        rows = rc.convergence_sweep(reference_network, [10.0**k for k in range(7)])
        gaps = [r.gap_bits for r in rows]
        assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))
        assert all(r.gap_bits >= -1e-9 for r in rows)

    def test_infeasible_rows_reported_not_fatal(self, powerless_relay_network):
        rows = rc.convergence_sweep(powerless_relay_network, [1.0, 10.0])
        assert [r.feasible for r in rows] == [False, False]
        assert all(math.isnan(r.cf_rate_bits) for r in rows)
        assert rows[0].upper_bound_bits == pytest.approx(
            rc.source_cut_bound(powerless_relay_network)
        )

    def test_input_validation(self, reference_network):
        with pytest.raises(ValueError, match="empty"):
            rc.convergence_sweep(reference_network, [])
        with pytest.raises(ValueError, match="ascending"):
            rc.convergence_sweep(reference_network, [10.0, 1.0])
        with pytest.raises(ValueError, match=">= 1"):
            rc.convergence_sweep(reference_network, [0.5, 1.0])

    @given(seed=st.integers(0, 10_000), quantifier=st.sampled_from(["forall", "exists"]))
    @settings(max_examples=30, deadline=None)
    def test_rate_never_falls_as_gamma_grows(self, seed, quantifier):
        # Scaling relay powers raises every block value, so the feasible
        # region only grows.
        rng = np.random.default_rng(seed)
        net = random_network(rng, int(rng.integers(3, 7)))
        rows = rc.convergence_sweep(net, [10.0**k for k in range(7)], quantifier)
        feasible = [r.feasible for r in rows]
        assert feasible == sorted(feasible)
        rates = [r.cf_rate_bits for r in rows if r.feasible]
        assert all(b >= a - 1e-9 for a, b in zip(rates, rates[1:]))

    @pytest.mark.parametrize("gammas", [[], [10.0, 1.0], [0.5, 1.0]])
    def test_gamma_errors_are_invalid_scale(self, reference_network, gammas):
        with pytest.raises(rc.InvalidScale):
            rc.convergence_sweep(reference_network, gammas)

    @pytest.mark.parametrize(
        "quantifier, q_uniform",
        [("forall", 1.140865188254393e-102), ("exists", 9.061560193763305e-307)],
    )
    def test_overflowing_relay_signal_is_silent(self, quantifier, q_uniform):
        # At gamma = 1e305 every relay power is finite, but some
        # lambda_ir P_i exceeds the largest double: the table reads it as
        # inf without a warning, as Python floats would.
        net = random_network(np.random.default_rng(2), 6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = rc.convergence_sweep(net, [1, 1e305], quantifier)
        top = rows[1]
        assert top.feasible
        assert top.cf_rate_bits == top.upper_bound_bits == 1.5052059207175237
        assert top.gap_bits == 0.0
        assert top.q_uniform == q_uniform

    def test_overflowing_relay_signal_sweeps_cleanly_in_the_cli(self, tmp_path, capsys):
        doc = _config_doc(random_network(np.random.default_rng(2), 6))
        doc["sweep"] = {"gammas": [1, 1e305]}
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        for quantifier in ("forall", "exists"):
            assert cli.main(["sweep", "--config", str(path), "--quantifier", quantifier]) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            assert captured.out.count("\n") == 3  # the CSV header and two rows


def _huge_relay_noise_network(relay_power):
    """T=3 with unit gains, unit source power and relay noise 1e308: the
    frontier Q* lies where N + Q overflows a double."""
    return _net([rc.source(1, 1.0), rc.relay(2, relay_power, 1e308), rc.destination(3, 1.0)])


class TestHugeRelayNoise:
    """A relay whose N + Q overflows hears nothing of the source, the exact
    limit: rate and bound are both 0.5 bits. At relay power 2.2, Q* is
    about 9.1e307; at 1.5 it is about 1.3e308, past the search's first
    doubling from 1e308."""

    @pytest.mark.parametrize("relay_power", [2.2, 1.5])
    def test_rate_meets_the_bound_without_warnings(self, relay_power):
        net = _huge_relay_noise_network(relay_power)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for mode in ("uniform", "coordinate"):
                for quantifier in ("forall", "exists"):
                    report = rc.build_rate_report(net, mode, quantifier)
                    assert report.cf_rate_bits == report.upper_bound_bits == 0.5
                    assert rc.cf_feasible(net, report.q_star, quantifier)[0]
            rows = rc.convergence_sweep(net, [1.0, 10.0])
        assert [(row.feasible, row.cf_rate_bits) for row in rows] == [(True, 0.5)] * 2

    def test_cf_rate_drops_a_relay_whose_noise_overflows(self):
        net = _huge_relay_noise_network(2.2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert rc.cf_rate(net, rc.QuantizationVector.uniform(1e308, (2,))) == 0.5

    @pytest.mark.parametrize("relay_power", [2.2, 1.5])
    def test_cli_exits_zero(self, relay_power, tmp_path, capsys):
        doc = _config_doc(_huge_relay_noise_network(relay_power))
        doc["sweep"] = {"gammas": [1, 10]}
        path = tmp_path / "huge-noise.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        for command in (["cfrate"], ["cfrate", "--mode", "coordinate"], ["sweep"]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert cli.main(command + ["--config", str(path)]) == 0
            assert capsys.readouterr().err == ""


#: The relay power multipliers of perfbench's sweep workload: 10^(k/2), k = 0..12.
_SWEEP_GAMMAS = [10.0 ** (k / 2) for k in range(13)]

#: Rows whose frontiers lie hundreds of binades apart.
_HUGE_GAMMAS = [10.0**k for k in range(0, 201, 20)]


def _row_keys(rows):
    """Sweep rows with every float as its hex text: equal keys are bitwise
    equal rows, and NaN equals NaN."""
    return [
        tuple(v.hex() if isinstance(v, float) else v for v in dataclasses.astuple(row))
        for row in rows
    ]


def _sweep_outcome(sweep, *args, **kwargs):
    """A sweep's row keys, or the type and text of what it raised."""
    try:
        return _row_keys(sweep(*args, **kwargs))
    except Exception as err:
        return type(err), str(err)


def _sweep_cases():
    for t in range(3, 12):
        for s in range(5):
            yield pytest.param(random_network(np.random.default_rng(s), t), id=f"random-s{s}-T{t}")


class TestLockstepSweep:
    """``convergence_sweep`` (tables first, then every row's search in
    lockstep) against the row-by-row loop it replaced
    (``convergence_sweep_by_rows``): bitwise equal rows, and the same
    error where one row's table cannot be built."""

    @pytest.mark.parametrize("net", _sweep_cases())
    def test_matches_row_loop_bitwise(self, net):
        big = net.num_nodes > 10
        for quantifier in ("forall", "exists"):
            args = (net, _SWEEP_GAMMAS, quantifier)
            got = _row_keys(rc.convergence_sweep(*args, override_guard=big))
            assert got == _row_keys(convergence_sweep_by_rows(*args, override_guard=big))

    @pytest.mark.parametrize(
        "net",
        [pytest.param("powerless", id="powerless-relay")]
        + [pytest.param(_net([rc.source(1, 1.0), rc.destination(2, 1.0)]), id="no-relays")]
        + [pytest.param(n, id=f"extreme-{i}") for i, n in enumerate(_extreme_networks())],
    )
    def test_infeasible_and_extreme_networks_match_row_loop(self, net, powerless_relay_network):
        net = powerless_relay_network if net == "powerless" else net
        for quantifier in ("forall", "exists"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = _row_keys(rc.convergence_sweep(net, _SWEEP_GAMMAS, quantifier))
            assert got == _row_keys(convergence_sweep_by_rows(net, _SWEEP_GAMMAS, quantifier))

    @pytest.mark.parametrize("t", [4, 6, 9])
    def test_huge_gammas_match_row_loop(self, t, reference_network):
        nets = [random_network(np.random.default_rng(40 + t), t), reference_network]
        for net in nets:
            for quantifier in ("forall", "exists"):
                got = _row_keys(rc.convergence_sweep(net, _HUGE_GAMMAS, quantifier))
                assert got == _row_keys(convergence_sweep_by_rows(net, _HUGE_GAMMAS, quantifier))
                assert all(row[-1] for row in got)  # every row searched, none blocked

    def test_guard_error_matches_row_loop(self):
        net = random_network(np.random.default_rng(0), 11)
        got = _sweep_outcome(rc.convergence_sweep, net, _SWEEP_GAMMAS)
        assert got == _sweep_outcome(convergence_sweep_by_rows, net, _SWEEP_GAMMAS)
        assert got[0] is GuardExceeded

    @pytest.mark.parametrize(
        "gammas, error", [([1e308], rc.InvalidScale), ([1.0, 1e308], GuardExceeded)]
    )
    def test_each_row_is_scaled_then_guarded(self, gammas, error):
        # Past the guard, a first row that overflows raises InvalidScale;
        # a first row that scales raises GuardExceeded before the second
        # row is scaled.
        net = random_network(np.random.default_rng(0), 11)
        got = _sweep_outcome(rc.convergence_sweep, net, gammas)
        assert got == _sweep_outcome(convergence_sweep_by_rows, net, gammas)
        assert got[0] is error

    def test_overflowing_gamma_error_matches_row_loop(self):
        # Relay powers are at least 10, so gamma 1e308 overflows every one:
        # InvalidScale on the last row, after two searchable rows.
        net = random_network(np.random.default_rng(2), 6)
        gammas = [1.0, 1e3, 1e308]
        for quantifier in ("forall", "exists"):
            got = _sweep_outcome(rc.convergence_sweep, net, gammas, quantifier)
            assert got == _sweep_outcome(convergence_sweep_by_rows, net, gammas, quantifier)
            assert got[0] is rc.InvalidScale

    @pytest.mark.parametrize(
        "case", _INVALID_CASES, ids=[k if v is None else f"{k}={v}" for k, v in _INVALID_CASES]
    )
    def test_invalid_network_error_matches_row_loop(self, case):
        net = _invalid_network(case)
        got = _sweep_outcome(rc.convergence_sweep, net, _SWEEP_GAMMAS)
        assert got == _sweep_outcome(convergence_sweep_by_rows, net, _SWEEP_GAMMAS)
        assert got[0] is ValueError and got[1].startswith("invalid network: ")

    def test_bad_quantifier_error_matches_row_loop(self, reference_network):
        got = _sweep_outcome(rc.convergence_sweep, reference_network, [1.0], "sometimes")
        assert got == _sweep_outcome(convergence_sweep_by_rows, reference_network, [1.0], "sometimes")
        assert got[0] is ValueError

    def test_build_errors_come_before_any_search(self, monkeypatch):
        # Every row's table is built first, so the 1e308 row's InvalidScale
        # is raised before the first row is searched or rated.
        def refuse(*args):
            raise AssertionError("no row may be searched or rated")

        monkeypatch.setattr(bounds, "_uniform_optima", refuse)
        monkeypatch.setattr(bounds, "cf_rate", refuse)
        net = random_network(np.random.default_rng(2), 6)
        with pytest.raises(rc.InvalidScale):
            rc.convergence_sweep(net, [1.0, 1e308])

    def test_sweep_runs_no_single_analysis(self, monkeypatch, reference_network):
        # Every row's search runs in the lockstep; none goes through
        # optimize_quantization or _optimize.
        monkeypatch.setattr(bounds, "optimize_quantization", None)
        monkeypatch.setattr(bounds, "_optimize", None)
        rows = rc.convergence_sweep(reference_network, _SWEEP_GAMMAS)
        monkeypatch.undo()
        assert _row_keys(rows) == _row_keys(
            convergence_sweep_by_rows(reference_network, _SWEEP_GAMMAS)
        )


def _oracle_frontier(table):
    """The uniform frontier by the scalar bisection oracle at rel_tol
    1e-300, or None where it raises Infeasible. It stops where no double
    lies strictly between its ends, or where a geometric midpoint rounds
    onto one: at the table's transition or a few ulps above it."""
    n = len(table.relays)
    try:
        return scalar_frontier(
            lambda x: table.feasible(np.full(n, x)), bounds._search_start(table), 1e-300
        )
    except Infeasible:
        return None


def _ulps(x):
    return int(np.float64(x).view(np.int64))


#: The error of a search that finds no finite frontier, as an optimum's key.
_NO_FRONTIER = (Infeasible, "no finite quantization noise satisfies every constraint")


def _optimum_key(optimum):
    """A ``_uniform_optima`` entry as a comparable value: a Q's values (Q
    values are positive and finite, so == is bit equality), or an error's
    type and text."""
    if isinstance(optimum, Exception):
        return type(optimum), str(optimum)
    return tuple(optimum.tolist())


def _uniform_optima_keys(tables):
    return [_optimum_key(q) for q in bounds._uniform_optima(tables)]


def _stub_tables(net):
    """Two tables of ``net`` whose searches reach the rare exits: every
    denominator 1e-310, so no finite Q is feasible; and 5000-bit
    denominators with relay noises 1e-300, so every Q down to the smallest
    double is feasible."""
    overflow = _ConstraintTable(net, "forall")
    overflow.denom_log2 = np.full_like(overflow.denom_log2, 1e-310)
    underflow = _ConstraintTable(net, "forall")
    underflow.denom_log2 = np.full_like(underflow.denom_log2, 5000.0)
    underflow.noise = np.full_like(underflow.noise, 1e-300)
    return overflow, underflow


def _weakened(net, c):
    """``net`` with every relay power multiplied by c < 1, which ``scaled``
    refuses."""
    nodes = tuple(
        dataclasses.replace(n, power=n.power * c) if n.role == "relay" else n for n in net.nodes
    )
    return dataclasses.replace(net, nodes=nodes)


def _transition_cases():
    yield from _descent_cases()
    rng = np.random.default_rng(20261022)
    for t in range(3, 11):
        yield pytest.param(_weakened(random_network(rng, t), 1e-8), id=f"weak-relays-T{t}")


#: The most margin passes a uniform search takes.
_PASS_CAP = bounds._NEWTON_PASSES + 125


@pytest.mark.parametrize("net", _transition_cases())
def test_each_uniform_optimum_is_a_table_transition(net):
    # Accepted, its predecessor rejected, at most 2 ulps below the
    # bisection oracle, and the same bits stacked or alone.
    tables = [_ConstraintTable(net, quantifier) for quantifier in ("forall", "exists")]
    tables.append(_ConstraintTable(rc.scaled(net, 1e3), "forall"))
    stacked = bounds._uniform_optima(tables)
    n = len(net.relay_ids)
    for table, q in zip(tables, stacked):
        assert [_optimum_key(q)] == _uniform_optima_keys([table])
        x = float(q[0])
        assert q.tolist() == [x] * n
        assert table.feasible(np.full(n, x))
        assert not table.feasible(np.full(n, np.nextafter(x, 0.0)))
        assert 0 <= _ulps(_oracle_frontier(table)) - _ulps(x) <= 2


class TestLockstepFrontiers:
    """``_uniform_optima``: searches that end at different passes, at a
    transition, at the smallest double or with no finite frontier, all in
    one lockstep run; and the tables it decides without a search."""

    def _ordinary(self, quantifier="forall"):
        net = random_network(np.random.default_rng(3), 6)
        return net, [
            _ConstraintTable(rc.scaled(net, g), quantifier) for g in (1.0, 1e10, 1e100)
        ]

    @staticmethod
    def _counting_margins(monkeypatch):
        """Patch ``bounds._margins_log2`` to record each call's arguments."""
        calls = []
        real = bounds._margins_log2

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(bounds, "_margins_log2", counting)
        return calls

    def _passes(self, monkeypatch, tables):
        """The margin passes of one ``_uniform_optima`` call."""
        with monkeypatch.context() as patch:
            calls = self._counting_margins(patch)
            bounds._uniform_optima(tables)
        return len(calls)

    def test_every_exit_in_one_run(self, monkeypatch):
        net, ordinary = self._ordinary()
        overflow, underflow = _stub_tables(net)
        tables = [overflow, ordinary[0], underflow, ordinary[1], ordinary[2]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _uniform_optima_keys(tables)
        assert got == [_uniform_optima_keys([table])[0] for table in tables]
        # Overflow finds no frontier; underflow ends at the smallest double,
        # which its table accepts.
        assert got[0] == _NO_FRONTIER
        assert got[2] == (5e-324,) * len(net.relay_ids)
        assert underflow.feasible(np.full(len(net.relay_ids), 5e-324))
        n = len(net.relay_ids)
        for table, key in zip(ordinary, got[1::2] + got[4:]):
            x = key[0]
            assert table.feasible(np.full(n, x))
            assert not table.feasible(np.full(n, np.nextafter(x, 0.0)))
        # Searches of different lengths; the run lasts as long as the
        # longest, the overflow stub's.
        passes = [self._passes(monkeypatch, [table]) for table in tables]
        assert len(set(passes)) == len(tables)
        assert self._passes(monkeypatch, tables) == max(passes) == passes[0] <= _PASS_CAP

    def test_underflow_stub_ends_at_the_smallest_double(self):
        # The frontier lies below the doubles: every Q is accepted, and the
        # answer is the smallest double, not the search's start.
        _, underflow = _stub_tables(random_network(np.random.default_rng(3), 6))
        (q,) = bounds._uniform_optima([underflow])
        assert q.tolist() == [5e-324] * 4
        assert bounds._search_start(underflow) > 5e-324

    @pytest.mark.parametrize("quantifier", ["forall", "exists"])
    def test_ending_searches_leave_the_others_unchanged(self, quantifier):
        net, ordinary = self._ordinary(quantifier)
        overflow, underflow = _stub_tables(net)
        alone = [_uniform_optima_keys([table])[0] for table in ordinary]
        assert alone == _uniform_optima_keys(ordinary)
        for mixed in (
            [overflow] + ordinary,
            ordinary + [underflow],
            [ordinary[0], underflow, ordinary[1], overflow, ordinary[2]],
        ):
            got = _uniform_optima_keys(mixed)
            assert [x for x, t in zip(got, mixed) if t in ordinary] == alone

    def test_median_search_takes_at_most_twelve_passes(self, monkeypatch):
        passes = []
        for s in range(40):
            for t in range(3, 11):
                net = random_network(np.random.default_rng(s), t)
                for quantifier in ("forall", "exists"):
                    table = _ConstraintTable(net, quantifier)
                    passes.append(self._passes(monkeypatch, [table]))
        assert statistics.median(passes) <= 12
        assert max(passes) <= _PASS_CAP

    @pytest.mark.parametrize("quantifier", ["forall", "exists"])
    def test_single_analysis_is_a_stack_of_one(self, monkeypatch, quantifier):
        # One search: every pass gets the same one-column arrays.
        for t in range(4, 12):
            net = random_network(np.random.default_rng(t), t)
            table = _ConstraintTable(net, quantifier, override_guard=True)
            with monkeypatch.context() as patch:
                calls = self._counting_margins(patch)
                _, q, _ = bounds._optimize(table, "uniform")
            assert q.tolist() == bounds._uniform_optima([table])[0].tolist()
            first = calls[0][:4]
            r = t - 2
            assert [a.shape for a in first] == [((1 << r) - 1, 1), (r, 1), (r, 1), (1,)]
            for args in calls:
                assert all(a is b for a, b in zip(args[:4], first))
                assert args[4].shape == (1,)

    def test_stacked_run_sets_up_its_arrays_once(self, monkeypatch):
        # K tables: every pass gets the same stacked arrays, K columns wide,
        # and the run lasts as long as its longest search.
        net, ordinary = self._ordinary()
        overflow, underflow = _stub_tables(net)
        tables = [overflow, *ordinary, underflow]
        want = [_uniform_optima_keys([table])[0] for table in tables]
        passes = [self._passes(monkeypatch, [table]) for table in tables]
        calls = self._counting_margins(monkeypatch)
        got = _uniform_optima_keys(tables)
        assert got == want
        assert len(calls) == max(passes)
        first = calls[0][:4]
        k, r = len(tables), len(net.relay_ids)
        assert [a.shape for a in first] == [((1 << r) - 1, k), (r, k), (r, k), (k,)]
        for args in calls:
            assert all(a is b for a, b in zip(args[:4], first))
            assert args[4].shape == (k,)

    def test_optimize_raises_where_doubling_overflows(self, reference_network):
        overflow, _ = _stub_tables(reference_network)
        message = "^no finite quantization noise satisfies every constraint$"
        for mode in ("uniform", "coordinate"):
            with pytest.raises(Infeasible, match=message):
                bounds._optimize(overflow, mode)

    def test_no_tables_no_searches(self):
        assert bounds._uniform_optima([]) == []

    def test_any_tables_match_optimize_alone(self, monkeypatch):
        # Relay-free, blocked and no-frontier tables among searchable ones
        # of two relay counts: each entry is what _optimize gives its table
        # alone, and each relay count's run stacks its arrays once.
        def table(net):
            return _ConstraintTable(net, "forall")

        r3, r4 = (random_network(np.random.default_rng(3 + t), t) for t in (5, 6))
        tables = [
            table(_net([rc.source(1, 1.0), rc.destination(2, 1.0)])),
            table(r3),
            table(_equal_gain_network(4, lambda j: 0.0)),
            table(rc.scaled(r4, 1e10)),
            table(_equal_gain_network(5, lambda j: 1e-310)),
            table(rc.scaled(r3, 1e10)),
            table(r4),
        ]
        want = []
        for t in tables:
            try:
                want.append(_optimum_key(bounds._optimize(t, "uniform")[1]))
            except Infeasible as exc:
                want.append((type(exc), str(exc)))
        calls = self._counting_margins(monkeypatch)
        assert _uniform_optima_keys(tables) == want
        assert want[0] == () and want[4] == _NO_FRONTIER
        assert want[2][1].startswith("relay subset (2,) cannot forward")
        stacks = {id(args[0]): args[0].shape for args in calls}
        assert sorted(stacks.values()) == [(7, 3), (15, 2)]


class TestValueArraysInside:
    """Q is a value array from the uniform search to its last consumer: a
    QuantizationVector is built only where a public function returns one."""

    @staticmethod
    def _counting_vectors(monkeypatch):
        """A list that grows by each QuantizationVector built."""
        built, real = [], rc.QuantizationVector.__post_init__

        def counting(self):
            built.append(self)
            real(self)

        monkeypatch.setattr(rc.QuantizationVector, "__post_init__", counting)
        return built

    def test_verify_builds_none(self, monkeypatch):
        built = self._counting_vectors(monkeypatch)
        assert all(result.passed for result in selftest.run_all())
        assert built == []

    def test_sweep_builds_none(self, monkeypatch):
        net = random_network(np.random.default_rng(9), 9)
        built = self._counting_vectors(monkeypatch)
        rows = rc.convergence_sweep(net, _SWEEP_GAMMAS)
        assert len(rows) == 13 and all(row.feasible for row in rows)
        assert built == []

    @pytest.mark.parametrize("quantifier", ["forall", "exists"])
    @pytest.mark.parametrize("mode", ["uniform", "coordinate"])
    def test_each_analysis_builds_only_its_answer(self, monkeypatch, mode, quantifier):
        net = random_network(np.random.default_rng(8), 8)
        built = self._counting_vectors(monkeypatch)
        q, _ = rc.optimize_quantization(net, mode, quantifier)
        assert len(built) == 1 and built[0] is q
        built.clear()
        report = rc.build_rate_report(net, mode, quantifier)
        assert len(built) == 1 and built[0] is report.q_star


class TestAchievabilityNeverExceedsBound:
    @given(seed=st.integers(0, 5_000))
    @settings(max_examples=30, deadline=None)
    def test_random_networks(self, seed):
        rng = np.random.default_rng(seed)
        net = random_network(rng, int(rng.integers(3, 7)))
        q = sample_feasible_q(rng, net)
        assert rc.cf_rate(net, q) <= rc.source_cut_bound(net) + 1e-9

    @given(seed=st.integers(0, 5_000))
    @settings(max_examples=20, deadline=None)
    def test_feasibility_survives_upscaling(self, seed):
        rng = np.random.default_rng(seed)
        net = random_network(rng, int(rng.integers(3, 6)))
        q = sample_feasible_q(rng, net)
        for c in (1.5, 10.0, 1e3):
            ok, _ = rc.cf_feasible(net, q.scaled_by(c))
            assert ok
