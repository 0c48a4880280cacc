"""Working-set pins: what the d = 128 subcommands hold at once.

``sample_sup`` keeps its output and one block of columns, and
``identity_suite`` drops each short-lived operator (T#, (T#)+, T++) with the
factors ``antiop.derived`` keeps on it after its last read.
"""

import tracemalloc

import numpy as np

from antilin import antiop, structure
from antilin.numrange import sample_sup

from conftest import random_antilinear

MIB = 2**20


def test_sampler_peak_at_128_is_one_block():
    # a block of 256 columns draws, normalizes and multiplies a few
    # 128 x 256 complex arrays (0.5 MiB each); two whole 128 x 2000 draws
    # alone took 3.9 MiB
    t = random_antilinear(np.random.default_rng(0), 128)
    tracemalloc.start()
    try:
        for refine in (False, True):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            sample_sup(t, n_samples=2000, rng=np.random.default_rng(0), refine=refine)
            assert tracemalloc.get_traced_memory()[1] - base <= 3 * MIB, refine
    finally:
        tracemalloc.stop()


def _cached_matrices(exclude) -> int:
    """Matrices that ``antiop.derived`` keeps on operators not in ``exclude``."""
    count = 0
    for op, memo in list(antiop._DERIVED.items()):
        if any(op is e for e in exclude):
            continue
        for value in memo.values():
            # a record (a factorization) holds its matrices as tuple fields
            if hasattr(value, "_fields"):
                parts = value
            else:
                parts = vars(value).values() if hasattr(value, "__dict__") else (value,)
            count += sum(isinstance(p, np.ndarray) and p.ndim == 2 for p in parts)
    return count


def test_identity_suite_frees_the_factors_of_its_temporaries(monkeypatch):
    # every residual is one spectral norm; at none of them do the cached
    # factors of T#, T+ and (T#)+ exceed T#'s SVD and modulus plus the
    # modulus of T+ (the whole-suite lifetimes held seven matrices)
    t = random_antilinear(np.random.default_rng(1), 8)
    before = list(antiop._DERIVED.keys())   # operators other tests left alive
    held = []
    norm = structure.spectral_norm

    def recording(a):
        held.append(_cached_matrices(before + [t]))
        return norm(a)

    monkeypatch.setattr(structure, "spectral_norm", recording)
    structure.identity_suite(t)
    assert len(held) == 9 and max(held) <= 4
    added = [op for op in antiop._DERIVED.keys() if not any(op is b for b in before)]
    assert added == [t]
    assert set(antiop._DERIVED[t]) == {"factored", "modulus"}
