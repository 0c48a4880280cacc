"""Dense complex matrix kernel: Takagi, psd square root, pseudoinverse,
and the package's singularity and rank decisions.

SVD and Hermitian eigendecompositions are delegated to LAPACK through
numpy.  The routines here add the policy layers on top of them: symmetry
and positivity guards, the zero cluster of the Takagi factorization, and
deterministic rank/singularity cutoffs.  Each cutoff is applied here and
nowhere else, and each decision reads one factorization.

Default cutoffs (all overridable per call):

* ``RANK_RTOL``:  singular values at or below ``RANK_RTOL * max(rows, cols)
  * sigma_max`` are treated as zero.
* ``SING_TOL``:   a square real matrix counts as singular when its smallest
  singular value is at most ``SING_TOL * (1 + sigma_max)``.
* ``GROUP_RTOL``: Takagi values at or below ``GROUP_RTOL * max(1, sigma_max)``
  form the zero cluster inside :func:`takagi`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotHermitian, NotPsd, NotSymmetric

RANK_RTOL = 1e-12
SING_TOL = 1e-8
GROUP_RTOL = 1e-7


def spectral_norm(a: np.ndarray) -> float:
    """Largest singular value of ``a`` (0.0 for an empty matrix)."""
    a = np.asarray(a)
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


def _require_square(a: np.ndarray, what: str = "matrix") -> None:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"{what} must be square, got shape {a.shape}")


def _as_complex(a) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise DimensionMismatch(f"expected a 2-d array, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    return m


@dataclass(frozen=True)
class TakagiFactorization:
    """Factorization B = u @ diag(sigma) @ u.T with u unitary, sigma >= 0."""

    u: np.ndarray
    sigma: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return self.u @ np.diag(self.sigma) @ self.u.T


def takagi(b, sym_rtol: float = 1e-10) -> TakagiFactorization:
    """Takagi factorization of a complex symmetric matrix.

    Computes unitary ``u`` and nonnegative descending ``sigma`` with
    ``b = u @ diag(sigma) @ u.T``.  ``sigma`` equals the singular values
    of ``b``.  Built from one ``eigh`` of the real symmetric realification
    ``H = [[Re b, Im b], [Im b, -Re b]]`` (Horn & Johnson, *Matrix
    Analysis*, 4.4): ``b conj(u) = s u`` with ``u = x + i y`` reads
    ``H (x; y) = s (x; y)``, and ``(x; y) -> (-y; x)`` maps the
    ``s``-eigenspace onto the ``-s`` one.  So the ``n`` largest eigenvalues
    of ``H`` are ``sigma``, and for ``s > 0`` their eigenvectors give
    orthonormal Takagi vectors, repeated values included.  Values in the
    zero cluster ``s <= GROUP_RTOL * max(1, sigma_max)`` contribute nothing
    to the reconstruction; their columns complete ``u`` to a unitary with
    the QR of ``[u_+ | I]``.

    Raises:
        NotSymmetric: if ``||b - b.T|| > sym_rtol * (1 + ||b||)``.
    """
    b = _as_complex(b)
    _require_square(b, "takagi input")
    scale = spectral_norm(b)
    if spectral_norm(b - b.T) > sym_rtol * (1.0 + scale):
        raise NotSymmetric("input is not complex symmetric within tolerance")
    bs = 0.5 * (b + b.T)
    n = bs.shape[0]

    vals, vecs = np.linalg.eigh(np.block([[bs.real, bs.imag], [bs.imag, -bs.real]]))
    sigma = np.clip(vals[n:][::-1], 0.0, None)
    top = vecs[:, n:][:, ::-1]
    tau = GROUP_RTOL * max(1.0, float(sigma[0]) if n else 0.0)
    k = int(np.count_nonzero(sigma > tau))
    u = top[:n, :k] + 1j * top[n:, :k]
    if k < n:
        q, _ = np.linalg.qr(np.hstack([u, np.eye(n)]), mode="complete")
        u = np.hstack([u, q[:, k:]])
    return TakagiFactorization(u=u, sigma=sigma)


def psd_sqrt(h, rtol: float = 1e-10) -> np.ndarray:
    """Positive semidefinite square root of a Hermitian psd matrix.

    Eigenvalues with ``|lam| <= rtol * (1 + ||h||)`` are flushed to zero
    (this keeps ``||R^2 - h|| <= rtol * (1 + ||h||)`` while preventing
    floating-point noise at zero from turning into spurious ``sqrt(eps)``
    eigenvalues of the root, which matters to anything that later inverts
    the result).

    Raises:
        NotHermitian: if ``h`` is not Hermitian within ``rtol``.
        NotPsd: if an eigenvalue falls below ``-rtol * (1 + ||h||)``.
    """
    h = _as_complex(h)
    _require_square(h, "psd_sqrt input")
    scale = spectral_norm(h)
    if spectral_norm(h - h.conj().T) > rtol * (1.0 + scale):
        raise NotHermitian("input is not Hermitian within tolerance")
    hs = 0.5 * (h + h.conj().T)
    vals, vecs = np.linalg.eigh(hs)
    if vals.size and vals[0] < -rtol * (1.0 + scale):
        raise NotPsd(f"minimum eigenvalue {vals[0]:.3e} below tolerance")
    vals[np.abs(vals) <= rtol * (1.0 + scale)] = 0.0
    vals = np.clip(vals, 0.0, None)
    r = (vecs * np.sqrt(vals)) @ vecs.conj().T
    return 0.5 * (r + r.conj().T)


def pinv(a, rank_rtol: float = RANK_RTOL) -> np.ndarray:
    """Moore-Penrose pseudoinverse with the package rank cutoff.

    Singular values at or below ``rank_rtol * max(rows, cols) * sigma_max``
    are treated as zero.
    """
    a = _as_complex(a)
    return np.linalg.pinv(a, rcond=rank_rtol * max(a.shape))


def singularity(m, tol: float = SING_TOL) -> tuple[float, float]:
    """Smallest singular value of a square real matrix and the cutoff
    ``tol * (1 + sigma_max)`` at or below which it counts as singular.

    Both come from one SVD; an empty matrix gives ``(0.0, tol)``.
    """
    m = np.asarray(m, dtype=float)
    _require_square(m, "singularity input")
    if m.size == 0:
        return 0.0, tol
    s = np.linalg.svd(m, compute_uv=False)
    return float(s[-1]), tol * (1.0 + float(s[0]))


def _rank_cutoff(s: np.ndarray, shape, rank_rtol: float, floor: float = 0.0) -> tuple[float, int]:
    """Cutoff ``max(rank_rtol * max(shape) * sigma_max, floor)`` and the
    number of the descending singular values ``s`` above it."""
    tau = max(rank_rtol * max(shape) * (float(s[0]) if s.size else 0.0), floor)
    return tau, int(np.count_nonzero(s > tau))


def ranked_svd(a, rank_rtol: float = RANK_RTOL) -> tuple:
    """Full SVD ``a = w @ diag(s) @ vh`` with the package rank decision
    applied to it: returns ``(w, s, vh, cutoff, rank)``."""
    a = np.asarray(a)
    w, s, vh = np.linalg.svd(a)
    return (w, s, vh) + _rank_cutoff(s, a.shape, rank_rtol)


def numerical_rank(a, rank_rtol: float = RANK_RTOL, floor: float = 0.0) -> int:
    """Rank of ``a`` counting singular values above the package cutoff.

    ``floor`` adds an absolute lower bound on the cutoff, for matrices whose
    natural scale is inherited from a larger computation.
    """
    a = np.asarray(a)
    if a.size == 0:
        return 0
    return _rank_cutoff(np.linalg.svd(a, compute_uv=False), a.shape, rank_rtol, floor)[1]


def scaled_rank(a, floor_rtol: float) -> tuple[float, int]:
    """Cutoff ``floor_rtol * (1 + sigma_max)`` and the rank of ``a`` above
    it, both from one SVD.

    The cutoff is absolute, so it can rank smaller matrices derived from
    ``a`` on ``a``'s scale (pass it to :func:`numerical_rank` as ``floor``
    with ``rank_rtol=0``).
    """
    a = np.asarray(a)
    if a.size == 0:
        return floor_rtol, 0
    s = np.linalg.svd(a, compute_uv=False)
    return _rank_cutoff(s, a.shape, 0.0, floor_rtol * (1.0 + float(s[0])))


def range_projector(a, rank_rtol: float = RANK_RTOL) -> np.ndarray:
    """Orthogonal projector onto the column space of ``a``."""
    a = np.asarray(a, dtype=complex)
    if a.size == 0:
        return np.zeros((a.shape[0], a.shape[0]), dtype=complex)
    w, _, _, _, r = ranked_svd(a, rank_rtol)
    wr = w[:, :r]
    return wr @ wr.conj().T
