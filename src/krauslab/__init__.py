"""Numerical laboratory for fixed points of Kraus-form completely positive maps.

The package studies maps psi(x) = sum_j a_j* x a_j on matrix algebras: their
fixed-point spaces, the commutation inequalities that control how close an
almost-fixed element is to the commutant, trace-like functionals recovered
from the fixed space, truncated-isometry experiments, product maps built from
commuting normal coefficient families, and Schur multipliers of Toeplitz form.

Conventions used throughout:

* matrices are numpy ``complex128`` arrays, vectorized by column stacking, so
  ``vec(a x b) = kron(b.T, a) vec(x)``;
* ``psi`` acts as ``sum a_j* x a_j`` and its predual as ``sum a_j t a_j*``;
* randomized routines take explicit ``numpy.random.Generator`` streams, and
  the trial streams come from ``ensembles.trial_rng(seed, trial)``.
"""

import importlib

from . import (
    channel,
    commuting,
    cuntz,
    ensembles,
    inequalities,
    opcore,
    schur,
    tracelab,
)
from .channel import (
    GapReport,
    KrausFamily,
    PerturbationResult,
    SpectralCore,
    SquareClosureReport,
    SubspaceBasis,
    apply,
    apply_predual,
    commutant,
    fix_closed_under_square,
    fix_tol,
    fixed_space,
    gap_report,
    solve_perturbation,
    spectral_core,
    subspace_distance,
    superoperator,
    unital_tol,
)
from .commuting import (
    CommutingFamily,
    intertwiner_space,
    joint_spectrum,
    positive_eigenvalue_check,
    product_map_check,
    simultaneous_diagonalize,
    theta_superoperator,
)
from .inequalities import (
    GAMMA,
    InequalityReport,
    defect_bounds,
    gamma_curve,
    generalized_powers_stormer,
    powers_stormer,
)
from .tracelab import ApproxTrace, NearFixedReport, extract_trace, near_fixed_from_trace

__version__ = "0.1.0"


def __getattr__(name):
    # ``cli`` loads on first use: importing it here would put it in
    # sys.modules before ``python -m krauslab.cli`` runs it as __main__.
    if name == "cli":
        return importlib.import_module(f"{__name__}.cli")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "__version__",
    "opcore",
    "channel",
    "ensembles",
    "inequalities",
    "tracelab",
    "cuntz",
    "commuting",
    "schur",
    "cli",
    "KrausFamily",
    "SpectralCore",
    "SubspaceBasis",
    "GapReport",
    "PerturbationResult",
    "SquareClosureReport",
    "apply",
    "apply_predual",
    "superoperator",
    "spectral_core",
    "fixed_space",
    "commutant",
    "subspace_distance",
    "gap_report",
    "solve_perturbation",
    "fix_closed_under_square",
    "fix_tol",
    "unital_tol",
    "GAMMA",
    "InequalityReport",
    "defect_bounds",
    "powers_stormer",
    "generalized_powers_stormer",
    "gamma_curve",
    "ApproxTrace",
    "NearFixedReport",
    "extract_trace",
    "near_fixed_from_trace",
    "CommutingFamily",
    "simultaneous_diagonalize",
    "joint_spectrum",
    "theta_superoperator",
    "intertwiner_space",
    "product_map_check",
    "positive_eigenvalue_check",
]
