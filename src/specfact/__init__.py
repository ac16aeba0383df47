"""Outer spectral factorization on the circle with a checked bound harness."""

from .bounds import (
    IdentityTerms,
    PairMetrics,
    check_identity,
    check_theorem_2,
    check_theorem_main,
    constant_c_inf,
    constant_c_p,
    h2_identity_terms,
    h2_squared_direct,
    pair_metrics,
    random_density,
    random_phase,
)
from .circle_fn import (
    FourierSeries,
    GridFunction,
    SpectralFactor,
    fourier_synthesize,
    grid_theta,
    h2_distance,
    harmonic_conjugate,
    lp_norm,
)
from .counterexample import (
    CounterexampleFamily,
    FamilyMetrics,
    build_family,
    cross_validate_pipeline,
    family_metrics,
    family_row,
    grid_realization,
    verify_theorem_1,
)
from .errors import (
    AliasingError,
    DomainError,
    NumericalConditioningError,
    ParameterError,
    SpecfactError,
)
from .factorization import (
    factorize_boundary,
    factorize_herglotz,
    fejer_riesz,
    outer_check,
)
from .orlicz import (
    NFunction,
    davis_constant,
    k0_constant,
    lambda_phi,
    lemma_G_report,
    luxemburg_norm,
    orlicz_norm,
)
from .report import BoundReport, bound_report

__version__ = "0.1.0"
