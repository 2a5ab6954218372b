"""Capacity bounds and compress-forward rates for Gaussian relay networks.

A single source talks to a single destination through relays. The library
computes cut-set upper bounds under independent Gaussian inputs, evaluates
the compress-forward achievable rate with per-relay quantization noise,
optimizes that noise on the feasibility frontier, and sweeps relay power
to show the two sides meeting. The ``relaycap`` command wraps it all.
"""

from .bounds import (
    GUARD_MAX_NODES,
    RATE_TOL_BITS,
    ConstraintMargin,
    CutSpec,
    QuantizationVector,
    RateReport,
    SweepRow,
    block_decode_rate,
    build_rate_report,
    cf_feasible,
    cf_rate,
    convergence_sweep,
    cut_rate,
    cut_rate_table,
    min_cut_bound,
    optimize_quantization,
    quantized_covariance_det,
    source_cut_bound,
)
from .enumeration import (
    ConstraintInstance,
    assignments,
    constraint_instances,
    partitions,
    subsets,
)
from .errors import (
    CoincidentNodes,
    ConfigError,
    DimensionMismatch,
    EmptyChoice,
    GuardExceeded,
    Infeasible,
    InvalidAlpha,
    InvalidReceiver,
    InvalidScale,
    NegativePower,
    NonPositiveNoise,
    NonPositiveQ,
    NotPositiveDefinite,
    RelaycapError,
    VerificationFailure,
)
from .gaussian import (
    conditional_covariance,
    conditional_mi_bits,
    joint_covariance,
    log2_det,
)
from .topology import (
    NetworkSpec,
    NodeSpec,
    PathLossParams,
    destination,
    from_gains,
    from_geometry,
    gain_from_geometry,
    relay,
    scaled,
    source,
    validate,
)

__version__ = "0.1.0"

#: Names re-exported from ``selftest``, which is imported on first use
#: (PEP 562), so that importing the package or its CLI leaves it out.
_SELFTEST_NAMES = (
    "RelayCorrelationInvarianceReport",
    "SingleRelayIndependenceReport",
    "verify_relay_correlation_invariance",
    "verify_single_relay_independence",
)


def __getattr__(name: str):
    if name in _SELFTEST_NAMES:
        from . import selftest

        return getattr(selftest, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
