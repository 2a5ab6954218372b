"""Network description: node roles, powers, noises, and channel gains.

The model is a single-source, multiple-relay, single-destination network.
Node 1 is the source (transmit only), node T is the destination (receive
only), and nodes 2..T-1 are relays that both transmit and receive. Channel
power gains lambda_ij come either from planar geometry through a path-loss
law kappa * d^(-eta) or from an explicitly supplied matrix; geometry-derived
matrices are symmetric by construction, explicit ones may be asymmetric and
carry a flag saying so.

All powers, noises, and gains are linear-scale. Each node carries its own
power; ``scaled`` returns a copy with every relay power multiplied by a
factor gamma >= 1, and sweeping gamma large realizes the regime where relay
power grows without bound while the source stays fixed.

NetworkSpec is immutable after construction and safe to share across
concurrent computations. Analyses read it through one cached view, built
and checked with ``validate`` on its first read (``NetworkSpec._arrays``).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CoincidentNodes, DimensionMismatch, InvalidScale

ROLE_SOURCE = "source"
ROLE_RELAY = "relay"
ROLE_DESTINATION = "destination"
_ROLES = (ROLE_SOURCE, ROLE_RELAY, ROLE_DESTINATION)


def _node_id(value: int) -> int:
    """``value`` if it is a node id, a positive int; 2.7 is refused, never truncated."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValueError(f"node id must be a positive integer, got {value!r}")
    return value


@dataclass(frozen=True)
class NodeSpec:
    """One node: id (1-based), role, optional planar position, power/noise.

    The destination carries no power (it only receives) and the source no
    noise (it only transmits); those fields are None for the roles that
    lack them. Value-range problems (negative power, nonpositive noise) are
    reported by ``validate`` rather than raised here, so that malformed
    networks can be constructed and then diagnosed.
    """

    id: int
    role: str
    position: tuple[float, float] | None = None
    power: float | None = None
    noise: float | None = None

    def __post_init__(self) -> None:
        if self.role not in _ROLES:
            raise ValueError(f"unknown role {self.role!r}; expected one of {_ROLES}")
        _node_id(self.id)
        if self.position is not None:
            pos = tuple(float(c) for c in self.position)
            if len(pos) != 2:
                raise ValueError(f"position must be 2-D, got {self.position!r}")
            object.__setattr__(self, "position", pos)


def source(node_id: int, power: float, position: tuple[float, float] | None = None) -> NodeSpec:
    return NodeSpec(id=node_id, role=ROLE_SOURCE, position=position, power=float(power))


def relay(
    node_id: int,
    power: float,
    noise: float,
    position: tuple[float, float] | None = None,
) -> NodeSpec:
    return NodeSpec(
        id=node_id, role=ROLE_RELAY, position=position, power=float(power), noise=float(noise)
    )


def destination(
    node_id: int, noise: float, position: tuple[float, float] | None = None
) -> NodeSpec:
    return NodeSpec(id=node_id, role=ROLE_DESTINATION, position=position, noise=float(noise))


@dataclass(frozen=True)
class PathLossParams:
    """Path-loss law lambda = kappa * d^(-eta), eta >= 2 (free space at 2)."""

    kappa: float
    eta: float

    def __post_init__(self) -> None:
        if not self.kappa > 0.0:
            raise ValueError(f"kappa must be > 0, got {self.kappa!r}")
        if not self.eta >= 2.0:
            raise ValueError(f"eta must be >= 2, got {self.eta!r}")


def gain_from_geometry(
    pos_i: tuple[float, float], pos_j: tuple[float, float], p: PathLossParams
) -> float:
    """Power gain kappa * d^(-eta) for the Euclidean distance d between the
    two positions. Coincident positions are a singularity of the model."""
    d = math.dist(pos_i, pos_j)
    if d == 0.0:
        raise CoincidentNodes(f"positions {pos_i} and {pos_j} coincide")
    return p.kappa * d ** (-p.eta)


@dataclass(frozen=True)
class NetworkSpec:
    """Immutable network: ordered nodes and a T x T gain matrix.

    ``gains[i-1, j-1]`` is the power gain from node i to node j; the
    diagonal is unused. ``geometry_derived`` records whether the matrix came
    from positions (symmetric by construction) or was supplied directly
    (asymmetry permitted).
    """

    nodes: tuple[NodeSpec, ...]
    gains: np.ndarray
    geometry_derived: bool = False

    def __post_init__(self) -> None:
        nodes = tuple(self.nodes)
        if len(nodes) < 2:
            raise DimensionMismatch("a network needs at least a source and a destination")
        g = np.array(self.gains, dtype=float, copy=True)
        if g.ndim != 2 or g.shape != (len(nodes), len(nodes)):
            raise DimensionMismatch(
                f"gain matrix shape {g.shape} does not match {len(nodes)} nodes"
            )
        g.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "gains", g)

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def destination_id(self) -> int:
        return self.num_nodes

    @property
    def relay_ids(self) -> tuple[int, ...]:
        return tuple(n.id for n in self.nodes if n.role == ROLE_RELAY)

    @cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only arrays indexed by node id - 1: the gains with the
        diagonal zeroed, then each node's power and noise (NaN for None).
        A network that ``validate`` rejects caches nothing: every read
        raises one ValueError listing every problem."""
        problems = validate(self)
        if problems:
            raise ValueError("invalid network: " + "; ".join(problems))
        gains = np.where(np.eye(self.num_nodes, dtype=bool), 0.0, self.gains)
        values = np.array([(n.power, n.noise) for n in self.nodes], dtype=float).T
        gains.setflags(write=False)
        values.setflags(write=False)
        return gains, *values


def from_gains(nodes: list[NodeSpec] | tuple[NodeSpec, ...], gains: np.ndarray) -> NetworkSpec:
    """Network from an explicit gain matrix (asymmetry permitted)."""
    return NetworkSpec(nodes=tuple(nodes), gains=np.asarray(gains, dtype=float))


def from_geometry(
    nodes: list[NodeSpec] | tuple[NodeSpec, ...], path_loss: PathLossParams
) -> NetworkSpec:
    """Network with gains computed from node positions via the path-loss law.

    Every node must carry a position. A coincident pair yields an infinite
    gain entry, which ``validate`` reports as a violation; this keeps
    construction total so malformed inputs can be diagnosed as data.
    """
    nodes = tuple(nodes)
    missing = [n.id for n in nodes if n.position is None]
    if missing:
        raise ValueError(f"nodes {missing} have no position; geometry mode needs all positions")
    t = len(nodes)
    g = np.zeros((t, t))
    for a in range(t):
        for b in range(a + 1, t):
            try:
                val = gain_from_geometry(nodes[a].position, nodes[b].position, path_loss)
            except CoincidentNodes:
                val = math.inf
            g[a, b] = g[b, a] = val
    return NetworkSpec(nodes=nodes, gains=g, geometry_derived=True)


def validate(net: NetworkSpec) -> list[str]:
    """All invariant violations as human-readable strings; empty means valid.

    This is the one definition of a network the library will analyse: the
    CLI refuses a config whose network fails it, and every analysis in
    ``bounds`` raises ValueError("invalid network: ...") on one. Violations
    are data, not faults: malformed networks construct fine and are
    diagnosed here, so a front end can print every problem at once.
    """
    problems: list[str] = []
    t = net.num_nodes
    ids = [n.id for n in net.nodes]
    if ids != list(range(1, t + 1)):
        problems.append(f"node ids must be exactly 1..{t} in order, got {ids}")

    sources = [n.id for n in net.nodes if n.role == ROLE_SOURCE]
    dests = [n.id for n in net.nodes if n.role == ROLE_DESTINATION]
    if len(sources) != 1:
        problems.append(f"expected exactly one source, found nodes {sources}")
    if len(dests) != 1:
        problems.append(f"expected exactly one destination, found nodes {dests}")
    if sources and sources != [1]:
        problems.append(f"the source must be node 1, found source at {sources}")
    if dests and dests != [t]:
        problems.append(f"the destination must be node {t}, found destination at {dests}")
    for n in net.nodes:
        if 2 <= n.id <= t - 1 and n.role != ROLE_RELAY:
            problems.append(f"node {n.id} must be a relay, found role {n.role!r}")

    for n in net.nodes:
        if n.role in (ROLE_SOURCE, ROLE_RELAY):
            if n.power is None or not 0.0 <= n.power < math.inf:
                problems.append(
                    f"node {n.id} ({n.role}) needs a finite power >= 0, got {n.power!r}"
                )
        else:
            if n.power is not None:
                problems.append(f"node {n.id} (destination) must not have a power, got {n.power!r}")
        if n.role in (ROLE_RELAY, ROLE_DESTINATION):
            if n.noise is None or not 0.0 < n.noise < math.inf:
                problems.append(
                    f"node {n.id} ({n.role}) needs a finite noise > 0, got {n.noise!r}"
                )
        else:
            if n.noise is not None:
                problems.append(f"node {n.id} (source) must not have a noise, got {n.noise!r}")

    if net.geometry_derived:
        for a in range(t):
            for b in range(a + 1, t):
                pa, pb = net.nodes[a].position, net.nodes[b].position
                if pa is not None and pa == pb:
                    problems.append(
                        f"CoincidentNodes: nodes {a + 1} and {b + 1} share position {pa}"
                    )
        if not np.allclose(net.gains, net.gains.T, rtol=0.0, atol=0.0, equal_nan=True):
            problems.append("geometry-derived gain matrix must be symmetric")

    off_diag = ~np.eye(t, dtype=bool)
    bad = off_diag & ~((net.gains >= 0.0) & np.isfinite(net.gains))
    for a, b in zip(*np.nonzero(bad)):
        problems.append(
            f"gain from node {a + 1} to node {b + 1} must be finite and >= 0, "
            f"got {float(net.gains[a, b])!r}"
        )

    for j in range(2, t + 1):
        lam = float(net.gains[0, j - 1])
        if not lam > 0.0:
            problems.append(f"source gain to node {j} must be strictly positive, got {lam!r}")
    return problems


def scaled(net: NetworkSpec, gamma: float) -> NetworkSpec:
    """Copy of the network with every relay power multiplied by gamma.

    Source power, noises, and gains are untouched; a relay with no power
    keeps none. Like ``validate``, this refuses a relay power that is not
    finite, so a gamma that overflows one raises InvalidScale.
    """
    if not gamma >= 1.0:
        raise InvalidScale(f"gamma must be >= 1, got {gamma!r}")
    nodes = []
    for n in net.nodes:
        if n.role == ROLE_RELAY and n.power is not None:
            n = dataclasses.replace(n, power=n.power * float(gamma))
            if not math.isfinite(n.power):
                raise InvalidScale(
                    f"gamma={gamma!r} gives relay {n.id} a power that is not finite"
                )
        nodes.append(n)
    return dataclasses.replace(net, nodes=tuple(nodes))
