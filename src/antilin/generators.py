"""Seeded instance generators for operators and blocks.

Every generator is deterministic: the same (kind, dims, seed) produces the
same canonical matrix, and through the canonical file writer the same bytes.
The normal kinds realize the commutation ``T T# = T# T`` constructively:

* ``selfadjoint``:        symmetric canonical matrix (T = T#),
* ``scaled_antiunitary``: r K with K symmetric unitary (both Gram
                          compositions equal r^2 I; spectrum one circle),
* ``twisted_normal``:     V A0 V.T for unitary V and diagonal A0 (unitary
                          congruence preserves antilinear normality),
* ``multiplication``:     diag(conj(phi)), the coordinate multiplication
                          operator after entrywise conjugation.

``nonnormal`` rejection-samples until the normality residual clearly exceeds
1e-3, ``nilpotent`` is strictly upper triangular (spectrum {0}), and
``block`` emits four independent antilinear blocks.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from .antiop import AntilinearOperator
from .errors import UnknownKind
from .matkernel import spectral_norm

if TYPE_CHECKING:
    from .blockops import BlockAntilinearMatrix

KINDS = (
    "selfadjoint",
    "scaled_antiunitary",
    "twisted_normal",
    "nonnormal",
    "nilpotent",
    "block",
    "multiplication",
)

NONNORMAL_MARGIN = 1e-3


def crandn(rng: np.random.Generator, *shape) -> np.ndarray:
    """Standard complex Gaussian array (unit variance per entry)."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-distributed unitary via phase-fixed QR."""
    q, r = np.linalg.qr(crandn(rng, n, n))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def symmetric_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random symmetric unitary K (equivalently, a conjugation matrix)."""
    u = haar_unitary(rng, n)
    return u @ u.T


def _canon(kind: str, dim: int, rng: np.random.Generator) -> tuple[np.ndarray, str]:
    scale = 1.0 / np.sqrt(dim)
    if kind == "selfadjoint":
        g = crandn(rng, dim, dim) * scale
        return 0.5 * (g + g.T), "symmetric canonical matrix"
    if kind == "scaled_antiunitary":
        r = float(rng.uniform(0.5, 2.0))
        k = symmetric_unitary(rng, dim)
        return r * k, f"radius={r!r}"
    if kind == "twisted_normal":
        # the result is allocated before the draws, so a dim numpy cannot
        # hold fails before it draws gigabytes of vectors; likewise below
        a = np.empty((dim, dim), dtype=complex)
        d = crandn(rng, dim)
        v = haar_unitary(rng, dim)
        return np.matmul(v @ np.diag(d), v.T, out=a), "unitary congruence twist of a diagonal"
    if kind == "nonnormal":
        from .structure import normality_residual

        if dim < 2:
            raise UnknownKind("nonnormal requires dim >= 2 (every 1x1 is normal)")
        for _ in range(256):
            a = crandn(rng, dim, dim) * scale
            if normality_residual(a) > NONNORMAL_MARGIN * (1.0 + spectral_norm(a) ** 2):
                return a, "rejection-sampled non-normal"
        raise UnknownKind("failed to sample a non-normal instance")  # pragma: no cover
    if kind == "nilpotent":
        a = np.triu(crandn(rng, dim, dim) * scale, k=1)
        return a, "strictly upper triangular"
    if kind == "multiplication":
        a = np.zeros((dim, dim), dtype=complex)
        np.fill_diagonal(a, np.conj(crandn(rng, dim)))
        return a, "diag(conj(phi)) multiplication operator"
    raise UnknownKind(f"unknown generator kind {kind!r}")


def gen_payload(kind: str, dim: int, seed: int, dim2: Optional[int] = None) -> dict:
    """Generator output in the operator-file layout (see the io module)."""
    from .io import SCHEMA, entries_from_matrix

    if dim < 1:
        raise UnknownKind("dim must be at least 1")
    if kind == "block":
        m = dim2 if dim2 is not None else dim
        if m < 1:
            raise UnknownKind("dim2 must be at least 1")
        blk = gen_block(dim, m, seed)
        return {
            "schema": SCHEMA,
            "kind": "block",
            "dims": [dim, m],
            "blocks": {k: entries_from_matrix(getattr(blk, k).canon) for k in "abfe"},
            "meta": {
                "seed": int(seed),
                "generator": "block",
                "description": "four independent antilinear blocks",
            },
        }
    a, note = _canon(kind, dim, np.random.default_rng(seed))
    return {
        "schema": SCHEMA,
        "kind": "antilinear",
        "dims": [dim, dim],
        "entries": entries_from_matrix(a),
        "meta": {"seed": int(seed), "generator": kind, "description": note},
    }


def gen_operator(kind: str, dim: int, seed: int) -> AntilinearOperator:
    """Generated canonical matrix as an operator (non-block kinds)."""
    rng = np.random.default_rng(seed)
    a, _ = _canon(kind, dim, rng)
    return AntilinearOperator(a)


def gen_block(n: int, m: int, seed: int) -> BlockAntilinearMatrix:
    """Generated random block matrix."""
    from .blockops import BlockAntilinearMatrix

    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(max(n, m))
    return BlockAntilinearMatrix(
        a=AntilinearOperator(crandn(rng, n, n) * scale),
        b=AntilinearOperator(crandn(rng, n, m) * scale),
        f=AntilinearOperator(crandn(rng, m, n) * scale),
        e=AntilinearOperator(crandn(rng, m, m) * scale),
    )
