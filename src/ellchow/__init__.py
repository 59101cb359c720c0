"""Exact integral intersection rings of modular compactifications of
genus-one curves, computed by stratum patching.

The package provides:

* :mod:`ellchow.exactring` — exact integer polynomial and lattice algebra;
* :mod:`ellchow.partitions` — marking partitions and singularity
  specifications;
* :mod:`ellchow.keel` — genus-zero boundary rings and point counts;
* :mod:`ellchow.corering` — core rings and the singular-locus class table;
* :mod:`ellchow.strata` — per-stratum models with restriction and lifting;
* :mod:`ellchow.patch` — the level-descending patching driver, ambient
  presentations, and fundamental classes;
* :mod:`ellchow.modular` — compactification presentations, torsion, and
  cycle-identity checks;
* :mod:`ellchow.cli` — the ``ellchow`` command.
"""

from .corering import ClassTableError, MinRing, min_class, min_presentation, schubert_to_ln
from .exactring import (
    GradedPresentation,
    IntPolynomial,
    InvariantFactors,
    NotDivisibleError,
    PresentationError,
)
from .keel import KeelRing, keel_presentation, mzero_point_count, mzero_point_poly, psi_star
from .modular import (
    GetzlerCycles,
    GetzlerReport,
    QPresentation,
    getzler_check,
    hilbert_poincare,
    qstable_presentation,
    torsion_report,
)
from .partitions import (
    QSpec,
    SetPartition,
    compose,
    disc_completion,
    dm_space,
    enumerate_partitions,
    incomparable,
    lp_minimal,
    refines,
    s_max,
    s_min,
    smyth,
    validate_qspec,
)
from .patch import (
    RestrictionData,
    classes_equal,
    ell_class,
    fundamental_class,
    gorenstein_presentation,
    lift_relation,
    nod_class,
    restriction_offenders,
    restricts_to_zero_everywhere,
    tau,
    tau_monomial,
)
from .strata import (
    EllModel,
    NuRestrictionError,
    TailModel,
    ctop_tail,
    ell_model,
    lift_from_tail,
    restrict_to_ell,
    restrict_to_tail,
    tail_model,
)

__version__ = "0.1.0"

__all__ = [
    "ClassTableError",
    "MinRing",
    "min_class",
    "min_presentation",
    "schubert_to_ln",
    "GradedPresentation",
    "IntPolynomial",
    "InvariantFactors",
    "NotDivisibleError",
    "PresentationError",
    "KeelRing",
    "keel_presentation",
    "mzero_point_count",
    "mzero_point_poly",
    "psi_star",
    "GetzlerCycles",
    "GetzlerReport",
    "QPresentation",
    "getzler_check",
    "hilbert_poincare",
    "qstable_presentation",
    "torsion_report",
    "QSpec",
    "SetPartition",
    "compose",
    "disc_completion",
    "dm_space",
    "enumerate_partitions",
    "incomparable",
    "lp_minimal",
    "refines",
    "s_max",
    "s_min",
    "smyth",
    "validate_qspec",
    "RestrictionData",
    "classes_equal",
    "ell_class",
    "fundamental_class",
    "gorenstein_presentation",
    "lift_relation",
    "nod_class",
    "restriction_offenders",
    "restricts_to_zero_everywhere",
    "tau",
    "tau_monomial",
    "EllModel",
    "NuRestrictionError",
    "TailModel",
    "ctop_tail",
    "ell_model",
    "lift_from_tail",
    "restrict_to_ell",
    "restrict_to_tail",
    "tail_model",
    "__version__",
]
