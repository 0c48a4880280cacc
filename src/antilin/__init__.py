"""Finite-dimensional calculus of antilinear operators on complex space.

The package represents an antilinear operator by its canonical matrix A
(action ``x -> A conj(x)``), closes compositions and resolvents in the
real-linear (P, Q) algebra, and provides adjoints, normality tests, polar
and Moore-Penrose decompositions, spectra (unions of origin-centered
circles), the numerical-range disk with constructive witnesses, block
operator matrices with Schur and quadratic complements, and the span
criterion for minimal antilinear normal extensions.  The ``antilin`` CLI
verifies all of it on concrete operator files.
"""

from .antiop import (
    AntilinearOperator,
    RealLinearOperator,
    compose,
    from_factored,
    make_conjugation,
    op_norm,
    realify,
    standard_conjugation,
    to_factored,
    unrealify,
)
from .blockops import (
    BlockAntilinearMatrix,
    ComplementResult,
    complement,
    correspondence_scan,
    rank_link,
)
from .errors import AntilinError
from .extensions import (
    ExtensionProblem,
    check_extension,
    minimal_span,
    word_span_oracle,
)
from .matkernel import (
    TakagiFactorization,
    is_singular,
    pinv,
    psd_sqrt,
    singularity,
    takagi,
)
from .numrange import (
    NumericalRangeDisk,
    nr_disk,
    nr_value,
    witness_disk,
    witness_segment,
)
from .spectra import (
    SpectrumDescription,
    antilinear_spectrum,
    is_in_spectrum,
    spectrum_crosscheck,
)
from .structure import (
    MpResult,
    PolarDecomposition,
    c_normal_criterion,
    check_polar_commutation,
    gram,
    identity_suite,
    is_normal,
    is_selfadjoint,
    modulus,
    moore_penrose,
    polar,
    power_commute,
)

__version__ = "0.1.0"

__all__ = [
    "AntilinError",
    "AntilinearOperator",
    "BlockAntilinearMatrix",
    "ComplementResult",
    "ExtensionProblem",
    "MpResult",
    "NumericalRangeDisk",
    "PolarDecomposition",
    "RealLinearOperator",
    "SpectrumDescription",
    "TakagiFactorization",
    "antilinear_spectrum",
    "c_normal_criterion",
    "check_extension",
    "check_polar_commutation",
    "complement",
    "compose",
    "correspondence_scan",
    "from_factored",
    "gram",
    "identity_suite",
    "is_in_spectrum",
    "is_normal",
    "is_selfadjoint",
    "is_singular",
    "make_conjugation",
    "minimal_span",
    "modulus",
    "moore_penrose",
    "nr_disk",
    "nr_value",
    "op_norm",
    "pinv",
    "polar",
    "power_commute",
    "psd_sqrt",
    "rank_link",
    "realify",
    "singularity",
    "spectrum_crosscheck",
    "standard_conjugation",
    "takagi",
    "to_factored",
    "unrealify",
    "witness_disk",
    "witness_segment",
    "word_span_oracle",
]
