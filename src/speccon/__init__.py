"""Periodic spectrum-filter consensus protocols: design, rates, simulation."""

from .errors import (
    ConnectivityError,
    GenerationError,
    NumericalError,
    ParameterError,
    SpecconError,
)
from .filters import (
    ControlSequence,
    cheby_on_band_at_zero,
    closed_rate_chebyshev,
    closed_rate_constant,
    closed_rate_lagrange,
    design_chebyshev,
    design_constant,
    design_finite_time,
    design_lagrange,
    design_uniform_unknown,
    eval_filter,
    sequence_from_dict,
    sequence_to_dict,
)
from .graphs import (
    Graph,
    LaplacianSpectrum,
    SpectralBand,
    analytic_spectrum,
    band_contains,
    build_graph,
    distinct_nonzero_eigenvalues,
    graph_from_dict,
    graph_to_dict,
    laplacian,
    spectrum,
)
from .rates import (
    RateReport,
    decaying_gain_residuals,
    exact_rate,
    rate_on_eigenvalues,
    spectral_state,
    worst_case_rate,
)
from .sim import (
    PeriodRatios,
    SimulationTrace,
    check_initial_states,
    consensus_time,
    measured_period_ratios,
    simulate,
    trace_csv_lines,
    uniform_initial_states,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
