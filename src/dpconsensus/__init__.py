"""Differentially private bipartite consensus over signed networks.

Simulates and analyzes a consensus protocol where agents on a structurally
balanced signed graph exchange Laplace-perturbed states with decaying
step-sizes, providing convergence diagnostics, closed-form differential
privacy accounting, and joint accuracy/privacy parameter design.
"""

from .engine import (
    BACKEND_NAME,
    DivergenceError,
    LimitStatistics,
    limit_statistics,
    run_many,
)
from .graphs import (
    DisconnectedGraphError,
    GraphSpectrum,
    SignedGraph,
    StructurallyUnbalancedError,
    check_structural_balance,
    fixture_graph,
    spectrum,
)
from .schedules import (
    AssumptionVerdict,
    ConstantNoise,
    DivergentSeriesError,
    GeometricNoise,
    GeometricStep,
    PowerNoise,
    PowerStep,
    validate_assumptions,
)

__version__ = "0.1.0"
