import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import relaycap as rc
from relaycap.errors import CoincidentNodes, DimensionMismatch, InvalidScale


class TestGainFromGeometry:
    def test_unit_distance(self):
        p = rc.PathLossParams(kappa=1.0, eta=2.0)
        assert rc.gain_from_geometry((0, 0), (1, 0), p) == pytest.approx(1.0)

    def test_inverse_square(self):
        p = rc.PathLossParams(kappa=1.0, eta=2.0)
        assert rc.gain_from_geometry((0, 0), (2, 0), p) == pytest.approx(0.25)

    def test_kappa_and_eta(self):
        p = rc.PathLossParams(kappa=3.0, eta=4.0)
        assert rc.gain_from_geometry((0, 0), (10, 0), p) == pytest.approx(3e-4, rel=1e-12)

    def test_coincident_positions_raise(self):
        p = rc.PathLossParams(kappa=1.0, eta=2.0)
        with pytest.raises(CoincidentNodes):
            rc.gain_from_geometry((1, 1), (1, 1), p)

    @given(
        d=st.floats(min_value=0.01, max_value=100.0),
        c=st.floats(min_value=1.1, max_value=10.0),
        eta=st.floats(min_value=2.0, max_value=6.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_decreasing_and_homogeneous(self, d, c, eta):
        p = rc.PathLossParams(kappa=2.0, eta=eta)
        near = rc.gain_from_geometry((0, 0), (d, 0), p)
        far = rc.gain_from_geometry((0, 0), (c * d, 0), p)
        assert far < near
        assert far == pytest.approx(c ** (-eta) * near, rel=1e-9)

    def test_path_loss_params_validation(self):
        with pytest.raises(ValueError):
            rc.PathLossParams(kappa=0.0, eta=2.0)
        with pytest.raises(ValueError):
            rc.PathLossParams(kappa=1.0, eta=1.5)


def _unit_net(t: int) -> rc.NetworkSpec:
    nodes = [rc.source(1, 1.0)]
    nodes += [rc.relay(j, 2.0 if j == 2 else 3.0, 1.0) for j in range(2, t)]
    nodes.append(rc.destination(t, 1.0))
    g = np.ones((t, t))
    np.fill_diagonal(g, 0.0)
    return rc.from_gains(nodes, g)


class TestValidate:
    def test_valid_three_node(self):
        assert rc.validate(_unit_net(3)) == []

    def test_two_sources_named(self):
        nodes = [rc.source(1, 1.0), rc.source(2, 1.0), rc.destination(3, 1.0)]
        g = np.ones((3, 3))
        np.fill_diagonal(g, 0.0)
        problems = rc.validate(rc.from_gains(nodes, g))
        assert any("1, 2" in p or "[1, 2]" in p for p in problems)

    def test_coincident_relays_reported(self):
        nodes = [
            rc.source(1, 1.0, position=(0.0, 0.0)),
            rc.relay(2, 1.0, 1.0, position=(1.0, 1.0)),
            rc.relay(3, 1.0, 1.0, position=(1.0, 1.0)),
            rc.destination(4, 1.0, position=(2.0, 0.0)),
        ]
        net = rc.from_geometry(nodes, rc.PathLossParams(kappa=1.0, eta=2.0))
        problems = rc.validate(net)
        assert any("CoincidentNodes" in p and "2" in p and "3" in p for p in problems)

    def test_source_must_be_heard(self):
        nodes = [rc.source(1, 1.0), rc.relay(2, 1.0, 1.0), rc.destination(3, 1.0)]
        g = np.ones((3, 3))
        np.fill_diagonal(g, 0.0)
        g[0, 2] = 0.0  # kill source -> destination
        problems = rc.validate(rc.from_gains(nodes, g))
        assert any("node 3" in p and "positive" in p for p in problems)

    def test_negative_power_reported(self):
        nodes = [rc.source(1, -1.0), rc.relay(2, 1.0, 1.0), rc.destination(3, 1.0)]
        g = np.ones((3, 3))
        np.fill_diagonal(g, 0.0)
        problems = rc.validate(rc.from_gains(nodes, g))
        assert any("power" in p for p in problems)

    def test_geometry_mode_requires_positions(self):
        nodes = [rc.source(1, 1.0, position=(0, 0)), rc.destination(2, 1.0)]
        with pytest.raises(ValueError, match="position"):
            rc.from_geometry(nodes, rc.PathLossParams(kappa=1.0, eta=2.0))


class TestNetworkSpec:
    def test_gain_matrix_shape_checked(self):
        nodes = [rc.source(1, 1.0), rc.destination(2, 1.0)]
        with pytest.raises(DimensionMismatch):
            rc.from_gains(nodes, np.ones((3, 3)))

    def test_gains_are_read_only(self, reference_network):
        with pytest.raises(ValueError):
            reference_network.gains[0, 1] = 9.0

    def test_asymmetric_gains_allowed_when_explicit(self):
        nodes = [rc.source(1, 1.0), rc.relay(2, 1.0, 1.0), rc.destination(3, 1.0)]
        g = np.array([[0.0, 1.0, 2.0], [0.5, 0.0, 1.0], [1.0, 1.0, 0.0]])
        net = rc.from_gains(nodes, g)
        assert not net.geometry_derived
        assert rc.validate(net) == []
        assert net.gains[0, 2] == 2.0
        assert net.gains[2, 0] == 1.0

    def test_geometry_gains_symmetric(self):
        nodes = [
            rc.source(1, 1.0, position=(0.0, 0.0)),
            rc.relay(2, 1.0, 1.0, position=(3.0, 0.0)),
            rc.destination(3, 1.0, position=(0.0, 4.0)),
        ]
        net = rc.from_geometry(nodes, rc.PathLossParams(kappa=2.0, eta=3.0))
        assert net.geometry_derived
        assert np.allclose(net.gains, net.gains.T)
        assert net.gains[1, 2] == pytest.approx(2.0 * 5.0 ** (-3.0))


class TestScaled:
    def test_identity_scale(self, reference_network):
        same = rc.scaled(reference_network, 1.0)
        assert same.nodes[1].power == reference_network.nodes[1].power
        assert same.nodes[0].power == reference_network.nodes[0].power

    def test_relay_powers_multiplied(self):
        net = _unit_net(4)  # relay powers 2 and 3
        big = rc.scaled(net, 10.0)
        assert big.nodes[1].power == pytest.approx(20.0)
        assert big.nodes[2].power == pytest.approx(30.0)

    def test_source_power_noises_gains_untouched(self, reference_network):
        big = rc.scaled(reference_network, 123.0)
        assert big.nodes[0].power == reference_network.nodes[0].power
        assert big.nodes[1].noise == reference_network.nodes[1].noise
        assert np.array_equal(big.gains, reference_network.gains)

    def test_scaling_composes(self, reference_network):
        twice = rc.scaled(rc.scaled(reference_network, 10.0), 10.0)
        assert twice.nodes[1].power == pytest.approx(100.0)

    def test_rejects_gamma_below_one(self, reference_network):
        with pytest.raises(InvalidScale):
            rc.scaled(reference_network, 0.5)

    @pytest.mark.parametrize("gamma", [math.inf, 1e308])
    def test_rejects_gamma_that_overflows_a_relay_power(self, gamma):
        with pytest.raises(InvalidScale, match="relay 2"):
            rc.scaled(_unit_net(4), gamma)  # relay powers 2 and 3

    def test_relay_without_power_keeps_none(self):
        net = rc.NetworkSpec(
            nodes=(rc.source(1, 1.0), rc.NodeSpec(id=2, role="relay", noise=1.0),
                   rc.destination(3, 1.0)),
            gains=np.ones((3, 3)),
        )
        assert rc.scaled(net, 10.0).nodes[1].power is None

    @given(gamma=st.floats(min_value=1.0, max_value=1e6))
    @settings(max_examples=40, deadline=None)
    def test_validation_invariant_under_scaling(self, gamma):
        net = _unit_net(4)
        assert rc.validate(rc.scaled(net, gamma)) == rc.validate(net)

    def test_networkspec_is_frozen(self, reference_network):
        with pytest.raises(dataclasses.FrozenInstanceError):
            reference_network.geometry_derived = True


class TestNodeSpec:
    def test_role_checked(self):
        with pytest.raises(ValueError):
            rc.NodeSpec(id=1, role="router")

    def test_position_coerced_to_floats(self):
        n = rc.source(1, 1.0, position=(1, 2))
        assert n.position == (1.0, 2.0)
        assert all(isinstance(c, float) for c in n.position)

    def test_3d_position_rejected(self):
        with pytest.raises(ValueError):
            rc.relay(2, 1.0, 1.0, position=(1.0, 2.0, 3.0))
