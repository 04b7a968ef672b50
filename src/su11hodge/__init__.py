"""Exact invariant-form and Hodge-filtration computations for SU(1,1).

Harish-Chandra modules on explicit weight bases, the sl(2) action, Hodge
and weight filtrations, invariant hermitian forms by exact meromorphic
continuation, and unitarity classification, all with rational sign
tracking (floats carry magnitudes only).
"""

from .exact import (
    HalfInt,
    Sign,
    beta_value,
    parse_rational,
    quadrature_integral,
)
from .modules import (
    BasisVector,
    CheckResult,
    Generator,
    ModuleSpec,
    Orbit,
    Parity,
    PointModule,
    PrincipalSeries,
    W1Sub,
    act,
    basis_window,
    belongs,
    bracket_check,
    constituents,
    h_weight,
    is_reduction_point,
    reference_index,
    theta_check,
    theta_sign,
)
from .filtrations import (
    FiltrationReport,
    WeightMatchReport,
    filtration_table,
    grw2_weights,
    hodge_dim,
    hodge_level,
    w1_member,
)
from .forms import (
    FormValue,
    continuation_ratio,
    convergence_range,
    diagonal_sign,
    form_diagonal,
    form_pairing,
    gR_form_diagonal,
    invariance_check,
    point_diagonal_value,
    reference_magnitude,
)
from .analysis import (
    ClassificationEntry,
    ClassificationReport,
    ConjectureRecord,
    ConjectureReport,
    Definiteness,
    JantzenRecord,
    JantzenReport,
    classify,
    definiteness,
    jantzen_crossing,
    verify_conjecture,
)

__version__ = "0.1.0"
