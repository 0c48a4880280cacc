"""Dense complex matrix kernel: Takagi, psd square root, pseudoinverse,
and the package's singularity and rank decisions.

SVD and Hermitian eigendecompositions are delegated to LAPACK through
numpy.  The routines here add the policy layers on top of them: symmetry
and positivity guards, the zero cluster of the Takagi factorization, and
deterministic rank/singularity cutoffs.  Each cutoff is applied here and
nowhere else, and each decision reads one factorization.

Cutoffs:

* ``RANK_RTOL``:  singular values at or below ``RANK_RTOL * max(rows, cols)
  * sigma_max`` are treated as zero (:func:`pinv` always uses it;
  :func:`ranked_svd` and :func:`range_projector` default to it and take
  another per call).  :func:`rank_above` counts instead against an
  absolute cutoff its caller derives from a larger matrix.
* ``SING_TOL``:   a square real matrix counts as singular when its smallest
  singular value is at most ``tol * (1 + sigma_max)``, ``tol = SING_TOL``
  unless the call passes another.
* ``GROUP_RTOL``: Takagi values at or below ``GROUP_RTOL * max(1, sigma_max)``
  form the zero cluster inside :func:`takagi`.
* ``GUARD_RTOL``: :func:`takagi` and :func:`psd_sqrt` reject an input that
  is not symmetric (Hermitian, psd) within ``GUARD_RTOL * (1 + ||input||)``.

The singularity verdict is defined by one SVD (:func:`singularity`).
:func:`is_singular` returns that same verdict more cheaply: a Cholesky
factorization of the shifted Gram matrix proves "not singular", one linear
solve proves "singular", and the SVD runs only when neither bound decides.
Each certificate alone proves the SVD verdict, so the order in which they
run is a cost choice and never changes a verdict: Cholesky first by
default, the solve first for a caller that expects a singular matrix
(the spectrum crosscheck on the circles it predicts).
The bounds (Weyl's inequality for the SVD's own error; Higham, *Accuracy and
Stability of Numerical Algorithms*, 2nd ed., 3.5 for the products and
Ch. 10 for Cholesky) are derived in its docstring.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotHermitian, NotPsd, NotSymmetric

RANK_RTOL = 1e-12
SING_TOL = 1e-8
GROUP_RTOL = 1e-7
GUARD_RTOL = 1e-10


def spectral_norm(a: np.ndarray) -> float:
    """Largest singular value of ``a`` (0.0 for an empty matrix)."""
    a = np.asarray(a)
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


def _exceeds(d: np.ndarray, bound: float) -> bool:
    """``spectral_norm(d) > bound``; an exactly zero ``d`` (the defect of an
    exactly symmetric or Hermitian guard input) needs no SVD."""
    return bool(d.any()) and spectral_norm(d) > bound


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


def takagi(b) -> TakagiFactorization:
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
        NotSymmetric: if ``||b - b.T|| > GUARD_RTOL * (1 + ||b||)``.
    """
    b = _as_complex(b)
    _require_square(b, "takagi input")
    scale = spectral_norm(b)
    if _exceeds(b - b.T, GUARD_RTOL * (1.0 + scale)):
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


def psd_sqrt(h) -> np.ndarray:
    """Positive semidefinite square root of a Hermitian psd matrix.

    Eigenvalues with ``|lam| <= GUARD_RTOL * (1 + ||h||)`` are flushed to
    zero (this keeps ``||R^2 - h||`` within that bound while preventing
    floating-point noise at zero from turning into spurious ``sqrt(eps)``
    eigenvalues of the root, which matters to anything that later inverts
    the result).

    Raises:
        NotHermitian: if ``h`` is not Hermitian within that bound.
        NotPsd: if an eigenvalue falls below ``-GUARD_RTOL * (1 + ||h||)``.
    """
    h = _as_complex(h)
    _require_square(h, "psd_sqrt input")
    bound = GUARD_RTOL * (1.0 + spectral_norm(h))
    if _exceeds(h - h.conj().T, bound):
        raise NotHermitian("input is not Hermitian within tolerance")
    hs = 0.5 * (h + h.conj().T)
    vals, vecs = np.linalg.eigh(hs)
    if vals.size and vals[0] < -bound:
        raise NotPsd(f"minimum eigenvalue {vals[0]:.3e} below tolerance")
    vals[np.abs(vals) <= bound] = 0.0
    vals = np.clip(vals, 0.0, None)
    r = (vecs * np.sqrt(vals)) @ vecs.conj().T
    return 0.5 * (r + r.conj().T)


def pinv(a) -> np.ndarray:
    """Moore-Penrose pseudoinverse with the package rank cutoff.

    Singular values at or below ``RANK_RTOL * max(rows, cols) * sigma_max``
    are treated as zero.
    """
    a = _as_complex(a)
    return np.linalg.pinv(a, rcond=RANK_RTOL * max(a.shape))


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


def is_singular(m, tol: float = SING_TOL) -> bool:
    """The verdict ``smin <= threshold`` of :func:`singularity`, proved
    without an SVD whenever a two-sided bracket decides it.

    Notation: ``m`` is n x n, ``F = ||m||_F``, ``eps`` is float64's
    ``np.finfo(float).eps``, ``s_i`` are the exact singular values of ``m``
    and ``s^_i`` the ones LAPACK returns.  The SVD is backward stable:
    ``s^`` are the exact singular values of ``m + E``, so by Weyl
    ``|s^_i - s_i| <= ||E||_2 <= delta`` with::

        delta = p(n) eps F,   p(n) = 8 n (n + 1).

    Householder bidiagonalization (2n reflectors) has ``||E||_F <= 2 c n^2
    eps F`` to first order (Higham, Lemma 19.3, its small constant c taken
    as 2), and the bidiagonal values are then found to relative accuracy
    ``O(n eps)`` (dqds); p(n) is twice that sum.

    *Not singular.*  Let ``target = tol (1 + F + delta) + delta``.  If
    ``s_min > target``, then ``s^_min >= s_min - delta > tol (1 + F +
    delta) >= tol (1 + s^_max)``, as ``s^_max <= s_max + delta <= F +
    delta``.  To show ``s_min^2 > target^2``, Cholesky-factor ``G =
    fl(m^T m) - theta I``.  If that succeeds, ``R^T R = G + dG`` is
    positive definite with ``||dG||_2 <= gamma_{n+1} ||R||_F^2`` (Higham,
    Thm 10.3) and ``||R||_F^2 <= (1 + O(n eps)) F^2``; forming the product
    loses ``gamma_n F^2`` (Higham, 3.5) and the shift ``eps (F^2 + theta)``.
    So ``s_min^2 >= theta - (2n + 2)(1 + O(n eps)) eps (F^2 + theta)``, and::

        theta = target^2 + c1 n eps (F^2 + target^2),   c1 = 16,

    at least twice that loss for every n >= 1, proves it.

    *Singular.*  ``s_min <= ||m x|| / ||x||`` for every ``x != 0``.  For
    ``x = solve(m, 1)`` (all-ones right-hand side; any x is valid, so the
    solve's own accuracy does not matter) the computed product is within
    ``gamma_n F ||x||`` of ``m x``, and the two norms and their ratio add a
    relative ``(n + 3) eps``, at most ``(n + 3) eps F``.  So ``s^_min <= rho
    + c2 n eps F + delta`` with ``rho = ||fl(m x)|| / ||x||`` and ``c2 =
    16``, twice the loss for n >= 1.  And ``s^_max >= s_max - delta >=
    colmax - delta``, where ``colmax <= s_max`` is the largest column norm.
    So::

        rho + c2 n eps F + delta < tol (1 + colmax - delta)

    proves ``s^_min <= tol (1 + s^_max)``.

    F and colmax are computed norms; their relative rounding (below
    ``n^2 eps``) sits inside the factor-two slack of delta and c2 when
    ``tol < 1``.  The rounding in evaluating the bounds themselves and the
    cutoff inside :func:`singularity` is covered by a factor ``1 + 32 eps``
    on theta and ``1 - 16 eps`` on the right-hand side.  The bracket is
    skipped unless ``0 < tol < 1`` and ``1e-100 < F < 1e100`` (clear of
    overflow and underflow); a Cholesky that fails and a solve that fails or
    overflows leave the point undecided.  An undecided point runs
    :func:`singularity` itself, so the verdict always equals its
    ``smin <= threshold``.

    Either certificate alone proves that verdict, so the order in which
    they are tried is a cost choice, never a verdict: the Cholesky runs
    first here, and a caller that expects a singular matrix can ask the
    private path for the solve first and skip a Cholesky bound to fail.
    """
    return _is_singular(m, tol)


def _is_singular(m, tol: float, singular_first: bool = False) -> bool:
    """:func:`is_singular`, trying the solve ("singular") before the
    Cholesky ("not singular") when ``singular_first``."""
    m = np.asarray(m, dtype=float)
    _require_square(m, "singularity input")
    verdict = _singularity_bracket(m, tol, singular_first)
    if verdict is None:
        smin, threshold = singularity(m, tol)
        return smin <= threshold
    return verdict


def _singularity_bracket(m: np.ndarray, tol: float, singular_first: bool) -> bool | None:
    """True or False when the bounds of :func:`is_singular` prove the SVD
    verdict, None when they cannot; the first certificate that succeeds
    decides."""
    n = m.shape[0]
    fro = float(np.linalg.norm(m))
    if not (0.0 < tol < 1.0 and 1e-100 < fro < 1e100):
        return None
    eps = float(np.finfo(float).eps)
    delta = 8.0 * n * (n + 1) * eps * fro
    certificates = (_proves_singular, _proves_nonsingular)
    for certificate in certificates if singular_first else certificates[::-1]:
        verdict = certificate(m, tol, fro, eps, delta)
        if verdict is not None:
            return verdict
    return None


def _proves_nonsingular(m: np.ndarray, tol: float, fro: float, eps: float,
                        delta: float) -> bool | None:
    """False when the Cholesky of the shifted Gram matrix succeeds."""
    n = m.shape[0]
    target = tol * (1.0 + fro + delta) + delta
    theta = (target**2 + 16.0 * n * eps * (fro**2 + target**2)) * (1.0 + 32.0 * eps)
    gram = m.T @ m
    gram.flat[:: n + 1] -= theta
    try:
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        return None
    return False


def _proves_singular(m: np.ndarray, tol: float, fro: float, eps: float,
                     delta: float) -> bool | None:
    """True when the residual of one solve is small enough."""
    n = m.shape[0]
    try:
        x = np.linalg.solve(m, np.ones(n))
    except np.linalg.LinAlgError:
        return None
    # a nearly singular m makes x huge; overflow only leaves the point undecided
    with np.errstate(over="ignore", invalid="ignore"):
        xnorm = float(np.linalg.norm(x))
        if not 0.0 < xnorm < np.inf:
            return None
        rho = float(np.linalg.norm(m @ x)) / xnorm
    colmax = float(np.linalg.norm(m, axis=0).max())
    bound = rho + 16.0 * n * eps * fro + delta
    if bound < tol * (1.0 + colmax - delta) * (1.0 - 16.0 * eps):
        return True
    return None


@dataclass(frozen=True, eq=False)
class Factored:
    """Full SVD ``a = w @ diag(s) @ vh`` with the package rank decision
    applied: singular values above ``cutoff`` count, and there are ``rank``
    of them.  The arrays are read-only, so one factorization can be shared."""

    w: np.ndarray
    s: np.ndarray
    vh: np.ndarray
    cutoff: float
    rank: int

    def range_projector(self) -> np.ndarray:
        """Orthogonal projector onto the column space of ``a``."""
        wr = self.w[:, : self.rank]
        return wr @ wr.conj().T


def ranked_svd(a, rank_rtol: float = RANK_RTOL) -> Factored:
    """Full SVD of ``a`` with the package rank decision applied to it: the
    cutoff is ``rank_rtol * max(a.shape) * sigma_max``."""
    a = np.asarray(a)
    w, s, vh = np.linalg.svd(a)
    for m in (w, s, vh):
        m.setflags(write=False)
    tau = rank_rtol * max(a.shape) * (float(s[0]) if s.size else 0.0)
    return Factored(w, s, vh, tau, int(np.count_nonzero(s > tau)))


def singular_values(a) -> np.ndarray:
    """Descending singular values of ``a`` from one ``svd(compute_uv=False)``
    (empty for an empty matrix).  ``s[0]`` is bitwise
    :func:`spectral_norm`."""
    a = np.asarray(a)
    if a.size == 0:
        return np.zeros(0)
    return np.linalg.svd(a, compute_uv=False)


def rank_above(a, floor: float) -> int:
    """Number of singular values of ``a`` above the absolute cutoff
    ``floor``, for a matrix whose scale is inherited from a larger
    computation."""
    return int(np.count_nonzero(singular_values(a) > floor))


def range_projector(a, rank_rtol: float = RANK_RTOL) -> np.ndarray:
    """Orthogonal projector onto the column space of ``a``."""
    a = np.asarray(a, dtype=complex)
    if a.size == 0:
        return np.zeros((a.shape[0], a.shape[0]), dtype=complex)
    return ranked_svd(a, rank_rtol).range_projector()
