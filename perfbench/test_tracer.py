"""Tests of the outside-in tracer.  Not part of the tier-1 suite; run with

    PYTHONPATH=src python3 -m pytest -q perfbench/test_tracer.py
"""

import contextlib
import io
import os
import sys
from collections import Counter

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

import antilin  # noqa: E402
import antilin.cli  # noqa: E402
import tracer as tr  # noqa: E402
from run import parse_importtime  # noqa: E402

# Modules that bind matkernel functions by name with ``from .matkernel import``.
BY_NAME = {
    "antilin.cli": ("spectral_norm", "range_projector"),
    "antilin.blockops": ("spectral_norm", "min_singular_real", "singularity_threshold"),
    "antilin.structure": ("spectral_norm", "pinv", "psd_sqrt"),
    "antilin.spectra": ("min_singular_real", "singularity_threshold"),
    "antilin.generators": ("spectral_norm",),
    "antilin.extensions": ("spectral_norm",),
    "antilin.numrange": ("takagi",),
    "antilin.antiop": ("spectral_norm",),
}


@pytest.fixture
def tracer():
    t = tr.Tracer()
    tr.install(t)
    try:
        yield t
    finally:
        tr.uninstall(t)


def _traced(fn) -> bool:
    return getattr(fn, "__wrapped_by_tracer__", False)


def test_install_leaves_no_original_bound(tracer):
    assert tracer.patched
    assert tr.unpatched_bindings(tracer) == []


def test_every_by_name_binding_is_wrapped(tracer):
    for module, names in BY_NAME.items():
        for name in names:
            assert _traced(getattr(sys.modules[module], name)), f"{module}.{name}"
    assert all(_traced(fn) for fn in antilin.cli._HANDLERS.values())
    assert _traced(antilin.compose)


def test_numpy_svd_global_is_wrapped(tracer):
    import numpy.linalg._linalg as npl

    assert _traced(npl.svd) and _traced(np.linalg.svd)
    np.linalg.norm(np.eye(3), 2)
    assert [s[0] for s in tracer.spans] == ["linalg.svd"]


def test_uninstall_restores_originals():
    t = tr.Tracer()
    tr.install(t)
    tr.uninstall(t)
    assert not _traced(antilin.cli.spectral_norm)
    assert not _traced(np.linalg.svd)
    assert not any(_traced(fn) for fn in antilin.cli._HANDLERS.values())


def _spectrum_counts(t, path) -> dict:
    t.reset()
    t.invocation = 0
    with contextlib.redirect_stdout(io.StringIO()):
        assert antilin.cli.main(["spectrum", "--input", path]) == 0
    return tr.summarize(t.spans, t.counters)


def test_spectrum_probe_counts_repeat(tracer, tmp_path):
    path = str(tmp_path / "tw.json")
    with contextlib.redirect_stdout(io.StringIO()):
        assert antilin.cli.main(
            ["gen", "--kind", "twisted_normal", "--dim", "8", "--output", path]) == 0
    first = _spectrum_counts(tracer, path)
    second = _spectrum_counts(tracer, path)
    # 8 distinct circles: 8 member radii, 7 gaps, one below, one beyond,
    # each probed at 8 phases; min_singular_real plus the norm threshold
    assert first["spectra.probes"] == 17 * 8
    assert first["spectra.svd_per_probe"] == 2.0
    assert first["calls_by_invocation"] == second["calls_by_invocation"]


def test_self_time_excludes_children():
    spans = [
        ["cli.main", -1, 0, 0.0, 10.0],
        ["spectra.is_in_spectrum", 0, 0, 1.0, 5.0],
        ["linalg.svd", 1, 0, 2.0, 4.0],
    ]
    summary = tr.summarize(spans, Counter())
    assert summary["self_s"] == {"cli": 6.0, "spectra": 2.0, "matkernel": 2.0}
    assert summary["by_caller_s"] == {"matkernel<spectra": 2.0}
    assert summary["spectra.svd_per_probe"] == 1.0


def test_parse_importtime_counts_outermost_imports():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 |     numpy._core",
        "import time:        20 |         30 |   numpy",
        "import time:        50 |         50 |     numpy.linalg",
        "import time:         5 |         55 |   scipy",
        "import time:         1 |         90 | antilin.matkernel",
        "import time:       100 |        100 | numpy.fft",
    ])
    parts = parse_importtime(text)
    assert parts["numpy"] == pytest.approx((30 + 100) / 1e6)
    assert parts["scipy"] == pytest.approx(55 / 1e6)
