import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import relaycap as rc
from oracles import det_cofactor, subset_sums_by_columns, table_by_partition_scan
from relaycap import bounds, enumeration, selftest
from relaycap.bounds import _ConstraintTable
from relaycap.errors import (
    GuardExceeded,
    Infeasible,
    InvalidAlpha,
    InvalidReceiver,
    NonPositiveQ,
    VerificationFailure,
)
from relaycap.selftest import random_network, sample_feasible_q


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

    def test_route_agreement_over_grid(self):
        rep = rc.verify_single_relay_independence(
            3.0, 0.5, 0.7, 2.0, tuple(0.9 * math.sqrt(6.0) * o for o in OFFSETS)
        )
        assert rep.max_abs_diff_bits < 1e-9


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

    def test_single_point_beta(self):
        rep = rc.verify_relay_correlation_invariance(2.0, 0.5, 1.0, 4.0, (0.7,))
        want = 0.5 * math.log2(1.0 + 2.0 * (2.0 + 1.0 + 0.25))
        assert rep.mi_bits[0] == pytest.approx(want, abs=1e-9)


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
        p1 = net.transmit_power(1)
        t = net.destination_id
        acc = net.gain(1, t) / net.noise_variance(t)
        for j, qj in zip(net.relay_ids, qvals):
            acc += net.gain(1, j) / (net.noise_variance(j) + qj)
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
        q, rate = rc.optimize_quantization(reference_network, "coordinate_descent")
        assert q.values[0] == pytest.approx(q.values[1], rel=1e-8)
        q_u, rate_u = rc.optimize_quantization(reference_network, "uniform_bisection")
        assert rate >= rate_u - 1e-12

    def test_coordinate_descent_beats_uniform_when_asymmetric(self):
        nodes = [
            rc.source(1, 1.0),
            rc.relay(2, 1e4, 1.0),
            rc.relay(3, 2.0, 1.0),
            rc.destination(4, 1.0),
        ]
        net = _net(nodes)
        _, rate_u = rc.optimize_quantization(net, "uniform_bisection")
        q_c, rate_c = rc.optimize_quantization(net, "coordinate_descent")
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
            for mode in ("uniform_bisection", "coordinate_descent"):
                q, _ = rc.optimize_quantization(net, mode, quantifier)
                ok, _ = rc.cf_feasible(net, q, quantifier)
                assert ok

    def test_mode_validated(self, reference_network):
        with pytest.raises(ValueError, match="mode"):
            rc.optimize_quantization(reference_network, mode="newton")

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
        from relaycap.enumeration import constraint_instances

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
            got = _ConstraintTable._subset_sums(v)
            assert got.tobytes() == subset_sums_by_columns(v).tobytes()

    def test_infinite_term_reaches_only_its_own_subsets(self):
        sums = _ConstraintTable._subset_sums(np.array([1.0, math.inf, 2.0]))
        masks = np.arange(1, 8)
        assert np.all(np.isinf(sums[masks & 2 != 0]))
        assert np.array_equal(sums[masks & 2 == 0], [1.0, 2.0, 3.0])

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
    nodes = [rc.source(1, net.node(1).power)]
    nodes += [
        rc.relay(j, net.node(old_of[j]).power, net.node(old_of[j]).noise) for j in range(2, t)
    ]
    nodes.append(rc.destination(t, net.node(t).noise))
    order = [old_of[j] - 1 for j in range(1, t + 1)]
    return rc.from_gains(nodes, net.gains[np.ix_(order, order)])


def _scale_powers_and_noises(net, c):
    t = net.num_nodes
    nodes = [rc.source(1, c * net.node(1).power)]
    nodes += [rc.relay(j, c * net.node(j).power, c * net.node(j).noise) for j in range(2, t)]
    nodes.append(rc.destination(t, c * net.node(t).noise))
    return rc.from_gains(nodes, net.gains)


class TestConstraintTableDP:
    @pytest.mark.parametrize("net", _dp_cases())
    def test_matches_partition_scan_exactly(self, net):
        for quantifier in ("forall", "exists"):
            table = _ConstraintTable(net, quantifier)
            denoms, instances = table_by_partition_scan(net, quantifier)
            assert np.array_equal(table.denom_log2, denoms)
            assert table.instances == instances

    def test_no_partition_scan_past_the_guard(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the constraint table must not enumerate partitions")

        monkeypatch.setattr(enumeration, "partitions", refuse)
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
        net = random_network(np.random.default_rng(t), t)
        calls = []
        real = bounds.cut_rate

        def counting(net, cut):
            calls.append(cut.sorted_ids())
            return real(net, cut)

        monkeypatch.setattr(bounds, "cut_rate", counting)
        rep = rc.build_rate_report(net)
        assert len(calls) == 2 ** (t - 2)
        assert len(set(calls)) == len(calls)
        monkeypatch.undo()
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

    @pytest.mark.parametrize("gammas", [[], [10.0, 1.0], [0.5, 1.0]])
    def test_gamma_errors_are_invalid_scale(self, reference_network, gammas):
        with pytest.raises(rc.InvalidScale):
            rc.convergence_sweep(reference_network, gammas)


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
