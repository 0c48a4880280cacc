"""Finite-dimensional calculus of antilinear operators on complex space.

The package represents an antilinear operator by its canonical matrix A
(action ``x -> A conj(x)``), closes compositions in the real-linear (P, Q)
algebra, inverts resolvents as realified matrices, and provides adjoints,
normality tests, polar and Moore-Penrose decompositions, spectra (unions
of origin-centered circles), the numerical-range disk with constructive
witnesses, block operator matrices with Schur and quadratic complements,
and the span criterion for minimal antilinear normal extensions.  The ``antilin`` CLI
verifies all of it on concrete operator files.

The public names below are resolved on first access (PEP 562), each from
the module that :data:`_EXPORTS` names, so ``import antilin`` loads no
submodule, and a CLI handler imports only the modules its checks run.
Where bytecode is not cached, every module a process loads is compiled
at start-up; a cold ``antilin`` process thus pays only for what its
subcommand executes.  The record types are ``typing.NamedTuple`` classes
and the other value types plain classes, so no import runs the
``dataclasses`` code generator.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> the module of the package that defines it
_EXPORTS = {
    "AntilinError": "errors",
    "AntilinearOperator": "antiop",
    "BlockAntilinearMatrix": "blockops",
    "ComplementResult": "blockops",
    "ExtensionProblem": "extensions",
    "MpResult": "structure",
    "NumericalRangeDisk": "numrange",
    "PolarDecomposition": "structure",
    "RealLinearOperator": "antiop",
    "SpectrumDescription": "spectra",
    "TakagiFactorization": "matkernel",
    "antilinear_spectrum": "spectra",
    "c_normal_criterion": "structure",
    "check_extension": "extensions",
    "check_polar_commutation": "structure",
    "complement": "blockops",
    "compose": "antiop",
    "correspondence_scan": "blockops",
    "gram": "structure",
    "identity_suite": "structure",
    "is_in_spectrum": "spectra",
    "is_normal": "structure",
    "is_selfadjoint": "structure",
    "is_singular": "matkernel",
    "make_conjugation": "antiop",
    "minimal_span": "extensions",
    "modulus": "structure",
    "moore_penrose": "structure",
    "nr_disk": "numrange",
    "nr_value": "numrange",
    "op_norm": "antiop",
    "pinv": "matkernel",
    "polar": "structure",
    "power_commute": "structure",
    "psd_sqrt": "matkernel",
    "rank_link": "blockops",
    "realify": "antiop",
    "singularity": "matkernel",
    "spectrum_crosscheck": "spectra",
    "takagi": "matkernel",
    "unrealify": "antiop",
    "witness_disk": "numrange",
    "witness_segment": "numrange",
    "word_span_oracle": "extensions",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(_EXPORTS))
