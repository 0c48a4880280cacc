"""Antilinear normal extensions and the minimality span criterion.

An antilinear operator N on the ambient space extends T on the subspace
``H = range(V)`` (V with orthonormal columns) when ``N (V c) = V (T c)`` for
all coordinates c, i.e. ``A_N conj(V) = V A_T`` in canonical matrices.  A
normal extension N is minimal exactly when the span

    ``G = span{ (N#)^j N^i x : i, j >= 0, x in H }``

is the whole ambient space.  :func:`minimal_span` grows G degree by degree,
keeping each word ``x -> M conj^p(x)`` as its matrix M and parity p; for
normal N the single commutation relation ``N N# = N# N`` collapses
arbitrary words in {N, N#} to the ``(N#)^j N^i`` form, so the span
stabilizes as soon as one full degree adds nothing new.
:func:`word_span_oracle` checks that independently by spanning over ALL
words up to a given length.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from .antiop import AntilinearOperator, _Frozen, _parity_product
from .errors import DimensionMismatch, NotNormal
from .matkernel import spectral_norm
from .structure import is_normal

SPAN_TOL = 1e-10


class ExtensionProblem(_Frozen):
    """Ambient operator N, subspace embedding V, optional restriction T."""

    ambient: AntilinearOperator
    embed: np.ndarray
    restricted: Optional[AntilinearOperator]

    def __init__(
        self,
        ambient: AntilinearOperator,
        embed,
        restricted: Optional[AntilinearOperator] = None,
    ):
        v = np.asarray(embed, dtype=complex)
        if v.ndim != 2:
            raise DimensionMismatch("embed must be a 2-d array of column vectors")
        big = ambient.dim_in
        if ambient.dim_out != big:
            raise DimensionMismatch("ambient operator must be square")
        if v.shape[0] != big or v.shape[1] > big:
            raise DimensionMismatch(
                f"embed must be {big} x h with h <= {big}, got {v.shape}"
            )
        gram_res = spectral_norm(v.conj().T @ v - np.eye(v.shape[1]))
        if gram_res > 1e-8:
            raise DimensionMismatch(
                f"embed columns are not orthonormal (residual {gram_res:.3e})"
            )
        if restricted is not None:
            h = v.shape[1]
            if restricted.canon.shape != (h, h):
                raise DimensionMismatch("restricted operator must be h x h")
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "embed", v)
        object.__setattr__(self, "restricted", restricted)

    @property
    def ambient_dim(self) -> int:
        return self.ambient.dim_in

    @property
    def subspace_dim(self) -> int:
        return self.embed.shape[1]


class ExtensionResidual(NamedTuple):
    """match: ||A_N conj(V) - V A_T||; range_leak: ||(I - V V*) A_N conj(V)||.

    ``range_leak`` measures whether T maps the subspace into itself at all,
    which the match residual presupposes.
    """

    match: float
    range_leak: float


def check_extension(p: ExtensionProblem) -> ExtensionResidual:
    """Residuals of the extension property ``N h = T h`` on the subspace."""
    if p.restricted is None:
        raise ValueError("check_extension requires the restricted operator")
    v = p.embed
    nv = p.ambient.canon @ np.conj(v)
    match = spectral_norm(nv - v @ p.restricted.canon)
    big = p.ambient_dim
    leak = spectral_norm((np.eye(big) - v @ v.conj().T) @ nv)
    return ExtensionResidual(match=match, range_leak=leak)


class _Basis:
    """Orthonormal basis grown by classical Gram-Schmidt, run twice (CGS2).

    The basis vectors are the first ``len(self)`` rows of a preallocated
    ``(dim, dim)`` array, so :meth:`add` projects a candidate out of all of
    them with two matrix-vector products per pass instead of one ``vdot``
    per basis vector.  One classical pass can lose orthogonality in
    proportion to the condition of the candidates; a second pass restores
    it to working precision ("twice is enough": Giraud, Langou and
    Rozloznik, "The loss of orthogonality in the Gram-Schmidt process",
    Comput. Math. Appl. 50 (2005)).  Only the resulting dimension leaves
    this module, and a candidate joins the basis when its residual norm
    exceeds ``SPAN_TOL * max(1, ||v||)``.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self._rows = np.zeros((dim, dim), dtype=complex)
        self._size = 0

    def add(self, v: np.ndarray) -> bool:
        if self._size == self.dim:
            return False  # a full basis spans the space; there is no row left
        scale = max(1.0, float(np.linalg.norm(v)))
        w = v.astype(complex)
        q = self._rows[: self._size]
        for _ in range(2):
            # coefficients <w, q_k> = conj(q_k . conj(w)), then w -= sum_k c_k q_k
            w -= np.dot(np.dot(q, w.conj()).conj(), q)
        nrm = float(np.linalg.norm(w))
        if nrm <= SPAN_TOL * scale:
            return False
        self._rows[self._size] = w / nrm
        self._size += 1
        return True

    def __len__(self) -> int:
        return self._size


class SpanResult(NamedTuple):
    g_dim: int
    is_minimal: bool
    stabilized_degree: int
    hit_cap: bool


def minimal_span(p: ExtensionProblem, cap: Optional[int] = None) -> SpanResult:
    """Dimension of ``span{(N#)^j N^i x}`` and the minimality verdict.

    Words are organized by total degree i + j; the loop stops when a whole
    degree contributes no new direction (sufficient for normal N) or when
    ``i + j`` reaches the cap (2 * ambient dimension by default, never the
    binding constraint in practice; ``hit_cap`` flags if it ever is).  The
    powers of N and N# are built one degree at a time inside the loop, so
    a run that stabilizes at degree k composes 2 (k + 1) powers at most,
    and the cap only bounds the loop: it allocates nothing.

    Raises:
        NotNormal: when the ambient operator is not antilinear normal.
    """
    if not is_normal(p.ambient):
        raise NotNormal("minimal_span requires a normal ambient operator")
    big = p.ambient_dim
    if cap is None:
        cap = 2 * big
    letters = (p.ambient.canon, 1), (p.ambient.adjoint().canon, 1)

    # powers of N and N# as (canonical matrix, parity), indexed by exponent
    # and extended by one per degree, so only the degrees the loop reaches exist
    n_pows = [(np.eye(big), 0)]
    ns_pows = [(np.eye(big), 0)]

    basis = _Basis(big)
    cols = [p.embed[:, k] for k in range(p.subspace_dim)]
    stabilized = 0
    hit_cap = True
    for degree in range(cap + 1):
        if degree > 0:
            n_pows.append(_parity_product(letters[0], n_pows[-1]))
            ns_pows.append(_parity_product(letters[1], ns_pows[-1]))
        grew = False
        for j in range(degree + 1):
            i = degree - j
            m, parity = _parity_product(ns_pows[j], n_pows[i])
            for x in cols:
                if basis.add(m @ (np.conj(x) if parity else x)):
                    grew = True
        if degree > 0 and not grew:
            stabilized = degree - 1
            hit_cap = False
            break
        if len(basis) == big:
            stabilized = degree
            hit_cap = False
            break
    g_dim = len(basis)
    return SpanResult(
        g_dim=g_dim,
        is_minimal=(g_dim == big),
        stabilized_degree=stabilized,
        hit_cap=hit_cap,
    )


def word_span_oracle(p: ExtensionProblem, max_len: int) -> int:
    """Span dimension over ALL words in {N, N#} up to ``max_len`` letters.

    Independent referee for :func:`minimal_span`: normality lets arbitrary
    words reorder into the ``(N#)^j N^i`` form, so both spans agree once
    both have stabilized.

    Raises:
        NotNormal: when the ambient operator is not antilinear normal.
    """
    if not is_normal(p.ambient):
        raise NotNormal("word_span_oracle requires a normal ambient operator")
    big = p.ambient_dim
    letters = (p.ambient.canon, 1), (p.ambient.adjoint().canon, 1)
    basis = _Basis(big)
    cols = [p.embed[:, k] for k in range(p.subspace_dim)]
    level = [(np.eye(big), 0)]
    for x in cols:
        basis.add(x)
    for _ in range(max_len):
        nxt = []
        grew = False
        for op in level:
            for letter in letters:
                w = _parity_product(letter, op)
                nxt.append(w)
                for x in cols:
                    if basis.add(w[0] @ (np.conj(x) if w[1] else x)):
                        grew = True
        level = nxt
        if len(basis) == big or not grew:
            # for normal N a whole stagnant level implies global stagnation
            break
    return len(basis)
