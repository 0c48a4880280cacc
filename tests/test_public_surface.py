"""The parameters of the public functions.

Each fixed numerical policy (normality tolerance, rank cutoff, kernel
guards, sampling grids) is a module constant, not a keyword argument, so
the only parameters are the inputs and the knobs some caller varies.  This
pins the parameter names, so a removed knob cannot come back unnoticed and
a new one is a deliberate change to this table.
"""

import inspect

import pytest

import antilin
from antilin import blockops, numrange, structure

EXPORTED = {
    "antilinear_spectrum": ("t", "tol"),
    "c_normal_criterion": ("t",),
    "check_extension": ("p",),
    "check_polar_commutation": ("t",),
    "complement": ("blk", "selector", "mu", "tol"),
    "correspondence_scan": ("blk", "samples", "tol"),
    "gram": ("t",),
    "identity_suite": ("t", "tol"),
    "is_in_spectrum": ("t", "lam", "tol"),
    "is_normal": ("t",),
    "is_selfadjoint": ("t",),
    "is_singular": ("m", "tol"),
    "make_conjugation": ("k",),
    "minimal_span": ("p", "cap"),
    "modulus": ("t",),
    "moore_penrose": ("t",),
    "nr_disk": ("t",),
    "nr_value": ("t", "x"),
    "pinv": ("a",),
    "polar": ("t",),
    "power_commute": ("t", "n"),
    "psd_sqrt": ("h",),
    "rank_link": ("blk", "tol"),
    "realify": ("t",),
    "singularity": ("m", "tol"),
    "spectrum_crosscheck": ("t", "phases", "tol"),
    "takagi": ("b",),
    "witness_disk": ("t", "target"),
    "witness_segment": ("t", "x1", "x2", "lam"),
    "word_span_oracle": ("p", "max_len"),
}

MODULE_LEVEL = {
    structure.normality_residual: ("a",),
    structure.factored: ("t",),
    numrange.sample_sup: ("t", "n_samples", "rng", "refine"),
    blockops.samples_for_radii: ("radii", "rng", "random_count"),
}


def _params(fn) -> tuple:
    return tuple(inspect.signature(fn).parameters)


def test_every_exported_function_is_pinned():
    exported = {n for n in antilin.__all__ if inspect.isfunction(getattr(antilin, n))}
    assert exported == set(EXPORTED)


@pytest.mark.parametrize("name", sorted(EXPORTED))
def test_exported_parameters(name):
    assert _params(getattr(antilin, name)) == EXPORTED[name]


@pytest.mark.parametrize("fn", MODULE_LEVEL, ids=lambda fn: fn.__qualname__)
def test_module_level_parameters(fn):
    assert _params(fn) == MODULE_LEVEL[fn]
