"""Self-similar measures on [0,1] and their decay diagnostics.

The package models iterated function systems of similitudes with
probability weights, solves for similarity dimensions and natural
weights, evaluates Fourier transforms with certified error bounds, scans
diophantine behaviour of the log-contraction spectrum, builds
restricted-digit Luroth systems exactly, and verifies renewal-theoretic
overshoot limits by simulation.
"""

from .dimension import MoranSolution, moran_value, natural_weights, solve_moran
from .diophantine import (
    AuxiliaryMeasure,
    DiophantineReport,
    auxiliary_measure,
    classify_lattice,
    laplace_transform,
    lattice_test,
    matveev_degree,
    matveev_log_constant,
    perfect_power_free,
    weakly_diophantine_scan,
)
from .errors import (
    InputError,
    InternalInvariantError,
    PreconditionError,
    ResourceCapError,
    SelfsimError,
)
from .fourier import (
    DecayFit,
    EnvelopePoint,
    SpectralSample,
    decay_fit,
    dyadic_scan,
    mu_hat_cylinder,
    self_similarity_residual,
    solve_t_of_xi,
    theoretical_beta,
)
from .ifs import (
    DEFAULT_WORD_CAP,
    DisjointnessReport,
    Similitude,
    StoppingFamily,
    WeightedIFS,
    Word,
    stopping_words,
    validate_disjointness,
)
from .luroth import (
    LurothDigits,
    beta_prop10,
    beta_theorem4,
    figure_intervals,
    luroth_decode,
    luroth_encode,
    luroth_ifs,
    luroth_natural_ifs,
)
from .measure import (
    RegularityReport,
    diagonal_mass,
    interval_mass_bounds,
    regularity_scan,
)
from .renewal import (
    PhaseTestFunction,
    RenewalResult,
    phase_test_function,
    renewal_expectation_mc,
    renewal_limit,
    sample_overshoot,
)

__version__ = "0.1.0"

__all__ = [
    "AuxiliaryMeasure",
    "DEFAULT_WORD_CAP",
    "DecayFit",
    "DiophantineReport",
    "DisjointnessReport",
    "EnvelopePoint",
    "InputError",
    "InternalInvariantError",
    "LurothDigits",
    "MoranSolution",
    "PhaseTestFunction",
    "PreconditionError",
    "RegularityReport",
    "RenewalResult",
    "ResourceCapError",
    "SelfsimError",
    "Similitude",
    "SpectralSample",
    "StoppingFamily",
    "WeightedIFS",
    "Word",
    "auxiliary_measure",
    "beta_prop10",
    "beta_theorem4",
    "classify_lattice",
    "decay_fit",
    "diagonal_mass",
    "dyadic_scan",
    "figure_intervals",
    "interval_mass_bounds",
    "laplace_transform",
    "lattice_test",
    "luroth_decode",
    "luroth_encode",
    "luroth_ifs",
    "luroth_natural_ifs",
    "matveev_degree",
    "matveev_log_constant",
    "moran_value",
    "mu_hat_cylinder",
    "natural_weights",
    "perfect_power_free",
    "phase_test_function",
    "regularity_scan",
    "renewal_expectation_mc",
    "renewal_limit",
    "sample_overshoot",
    "self_similarity_residual",
    "solve_moran",
    "solve_t_of_xi",
    "stopping_words",
    "theoretical_beta",
    "validate_disjointness",
    "weakly_diophantine_scan",
]
