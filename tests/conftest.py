"""Shared random instance builders for the test suite."""

import numpy as np
import pytest

from antilin.antiop import AntilinearOperator
from antilin.blockops import BlockAntilinearMatrix
from antilin.generators import crandn, haar_unitary, symmetric_unitary

NORMAL_FAMILIES = ("symmetric", "scaled_antiunitary", "twisted")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_antilinear(rng, m, n=None, scale=None):
    n = m if n is None else n
    scale = 1.0 / np.sqrt(max(m, n)) if scale is None else scale
    return AntilinearOperator(crandn(rng, m, n) * scale)


def random_unit(rng, n):
    x = crandn(rng, n)
    return x / np.linalg.norm(x)


def random_rank_deficient(rng, m, n, r):
    """m x n canonical matrix with exact rank r and singular values in
    [0.5, 2], so rank decisions are never borderline."""
    w = haar_unitary(rng, m)[:, :r]
    v = haar_unitary(rng, n)[:, :r]
    s = rng.uniform(0.5, 2.0, size=r)
    return AntilinearOperator((w * s) @ v.conj().T)


def with_singular_values(rng, s):
    """Real square ``U diag(s) V^T`` with Haar-random orthogonal U and V."""
    n = len(s)
    u, _ = np.linalg.qr(rng.standard_normal((n, n)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (u * np.asarray(s, dtype=float)) @ v.T


def normal_instance(rng, n, family):
    """Constructive antilinear normal instances (see generators)."""
    if family == "symmetric":
        g = crandn(rng, n, n) / np.sqrt(n)
        return AntilinearOperator(0.5 * (g + g.T))
    if family == "scaled_antiunitary":
        r = float(rng.uniform(0.5, 2.0))
        return AntilinearOperator(r * symmetric_unitary(rng, n))
    if family == "twisted":
        d = crandn(rng, n)
        v = haar_unitary(rng, n)
        return AntilinearOperator(v @ np.diag(d) @ v.T)
    raise ValueError(family)


def nonnormal_instance(rng, n):
    from antilin.generators import NONNORMAL_MARGIN
    from antilin.matkernel import spectral_norm
    from antilin.structure import normality_residual

    assert n >= 2
    while True:
        a = crandn(rng, n, n) / np.sqrt(n)
        if normality_residual(a) > NONNORMAL_MARGIN * (1.0 + spectral_norm(a) ** 2):
            return AntilinearOperator(a)


def shift_operator(n):
    """Superdiagonal shift; the canonical curated non-normal instance."""
    a = np.zeros((n, n), dtype=complex)
    for k in range(n - 1):
        a[k, k + 1] = 1.0
    return AntilinearOperator(a)


def random_block(rng, n, m):
    scale = 1.0 / np.sqrt(max(n, m))
    return BlockAntilinearMatrix(
        a=AntilinearOperator(crandn(rng, n, n) * scale),
        b=AntilinearOperator(crandn(rng, n, m) * scale),
        f=AntilinearOperator(crandn(rng, m, n) * scale),
        e=AntilinearOperator(crandn(rng, m, m) * scale),
    )


def write_block_file(path, x, name="f") -> str:
    """A 3x3 block file with block ``name`` set to ``x`` and the other three
    Gaussian (seed 0, drawn in the order a, b, f, e), in the canonical
    layout ``antilin gen`` writes."""
    from antilin.io import SCHEMA, dump_payload, entries_from_matrix

    rng = np.random.default_rng(0)
    blocks = {k: x if k == name else crandn(rng, 3, 3) / np.sqrt(3.0) for k in "abfe"}
    payload = {
        "schema": SCHEMA,
        "kind": "block",
        "dims": [3, 3],
        "blocks": {k: entries_from_matrix(v) for k, v in blocks.items()},
        "meta": {"seed": 0, "generator": "manual",
                 "description": f"block with a given {name.upper()}"},
    }
    dump_payload(payload, str(path))
    return str(path)
