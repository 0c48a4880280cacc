"""Dense complex matrix kernel: Takagi, psd square root, pseudoinverse,
and the package's singularity and rank decisions.

SVD and Hermitian eigendecompositions are delegated to LAPACK through
numpy.  The routines here add the policy layers on top of them: symmetry
and positivity guards, the zero cluster of the Takagi factorization, and
deterministic rank/singularity cutoffs.  Each cutoff is applied here and
nowhere else, and each decision reads one factorization.

Cutoffs:

* ``RANK_RTOL``:  singular values at or below ``RANK_RTOL * max(rows, cols)
  * sigma_max`` are treated as zero (:func:`pinv` and :func:`ranked_svd`).
* ``SING_TOL``:   a square real matrix counts as singular when its smallest
  singular value is at most ``tol * (1 + sigma_max)``, ``tol = SING_TOL``
  unless the call passes another.
* ``GROUP_RTOL``: Takagi values at or below ``GROUP_RTOL * max(1, sigma_max)``
  form the zero cluster inside :func:`takagi`.
* ``GUARD_RTOL``: :func:`takagi` and :func:`psd_sqrt` reject an input that
  is not symmetric (Hermitian, psd) within ``GUARD_RTOL * (1 + ||input||)``.

The singularity verdict is defined by one SVD (:func:`singularity`).
One decider returns that same verdict more cheaply, for the phases of a
spectrum circle, whose realified matrices are rotations of each other up
to rounding; a single matrix (:func:`is_singular`) is its one-phase circle.
On the first phase a Cholesky factorization of the shifted Gram matrix
proves "not singular", one linear solve proves "singular", and the SVD runs
only when neither bound decides.  Each certificate alone proves the SVD
verdict, so the order in which they run is a cost choice and never changes
a verdict: Cholesky first by default, the solve first for a circle expected
to be singular (the spectrum crosscheck on the circles it predicts).  Only
the first phase is built as a matrix.  The phases differ only on the
diagonals of their four blocks, so each other phase is proved from that one
factorization in O(n) work of its own (beyond one product per circle): by
the rotated solve vector, or by a Weyl bound through a bound on its
distance from the rotated first matrix.  A phase that neither proves is
built and decided as a one-phase circle.  The bounds (Weyl's inequality for
the SVD's own error; Higham, *Accuracy and Stability of Numerical
Algorithms*, 2nd ed., 3.5 for the products and Ch. 10 for Cholesky) are
derived in the docstring of :func:`is_singular`.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, NotHermitian, NotPsd, NotSymmetric

RANK_RTOL = 1e-12
SING_TOL = 1e-8
GROUP_RTOL = 1e-7
GUARD_RTOL = 1e-10


def spectral_norm(a: np.ndarray) -> float:
    """Largest singular value of the matrix ``a``, ``s[0]`` of
    :func:`singular_values` (0.0 for an empty matrix)."""
    s = singular_values(a)
    return float(s[0]) if s.size else 0.0


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


class TakagiFactorization(NamedTuple):
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
    defect = b - b.T
    # an exactly zero defect needs no SVD, neither of itself nor of b
    if defect.any() and spectral_norm(defect) > GUARD_RTOL * (1.0 + spectral_norm(b)):
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
    defect = h - h.conj().T
    if defect.any() and spectral_norm(defect) > bound:   # zero needs no SVD
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
    s = singular_values(m)
    return float(s[-1]), tol * (1.0 + float(s[0]))


def is_singular(m, tol: float = SING_TOL) -> bool:
    """The verdict ``smin <= threshold`` of :func:`singularity`, proved
    without an SVD whenever a two-sided bracket decides it.

    A single matrix is the one-phase case (``_first_phase``) of the
    module's one decider, the circle decider ``_phase_verdicts``: the
    bracket below, then the SVD.

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
    first for a single matrix, and a circle expected to be singular tries
    the solve first and skips a Cholesky bound to fail.

    *The phases of a circle.*  A circle is a list of 2h x 2h matrices
    ``m_k = z + D_k`` (:class:`_Circle`): ``z`` is a matrix whose four h x h
    blocks have zero diagonals, shared by every phase, and ``D_k`` puts the
    phase's own 4h entries on those diagonals.  They are expected to equal
    ``R_k m_0 R_k`` up to rounding, with ``R_k = c I + s J``, ``J = [[0,
    -I], [I, 0]]``, ``c = cos(theta_k / 2)`` and ``s = sin(theta_k / 2)``:
    the realified phase law ``T - r e^(i theta) = e^(i theta/2) (T - r)
    e^(i theta/2)`` of an antilinear T.  Whatever floats c and s are,
    ``R^T R = q I`` with ``q = c^2 + s^2``, so ``s_min(R m_0 R) = q
    s_min(m_0)`` exactly.  Phase 0 alone is built as a matrix and runs the
    bracket above; every other phase is proved from phase 0's work and
    O(h) quantities of its own, or else is built and decided as a
    one-phase circle:

    - Its norms.  ``F_k^2 = ||z||_F^2 + ||D_k||_F^2``, and each squared
      column norm is that of z plus two entries of D_k; the norms of z are
      measured once per family (:class:`_ShiftFamily`).  Their rounding is
      that of F and colmax above.
    - A witness.  The "singular" bound holds for every x, so ``x_k = R_k^T
      x_0`` (the vector ``e^(-i theta_k/2) x_0``) for phase 0's solve vector
      ``x_0`` proves ``m_k`` singular when its residual, F_k, colmax_k and
      delta_k pass that bound.  The residuals of all phases come from one
      product of z with the block of every x_k, plus the diagonal terms
      ``D_k x_k``.  z has its zeros where D_k sits, so each entry still sums
      the 2h products of one row of m_k with x_k, and the computed residual
      is within ``gamma_{2h+1} |m_k| |x_k|`` of the exact one: inside c2.
    - A distance.  ``m_k - R m_0 R = (z - R z R) + (D_k - R D_0 R)``.  The
      family is the realification of an antilinear operator, whose blocks
      ``[[a, b], [b, -a]]`` hold equal floats in both copies of ``b`` and
      exactly negated ones in ``a`` and ``-a``.  So z anticommutes with J
      exactly, ``R z R = q z``, and the first term is ``(1 - q) z``, of
      norm at most ``|1 - q| ||z||_F``.  The second term is block diagonal
      on the coordinate pairs ``(i, h + i)``, so its norm is the largest of
      its h 2 x 2 blocks ``B_k,i - rho B_0,i rho`` (``rho`` the 2 x 2
      rotation).  ``P = fl(rho B rho)`` is ``c^2 B + cs (J B + B J) + s^2
      J B J``, formed as one product of the flattened B with a 4 x 4 map
      whose entries are single coefficients ``c^2``, ``+-cs`` and
      ``+-s^2``, each rounded once.  So each entry carries at most five
      roundings on terms bounded by the entries of ``|rho| |B| |rho|``,
      ``||P - rho B rho||_2 <= gamma_5 (|c| + |s|)^2 F_0``, and ``gamma_5
      < 2.6 eps``.  So::

          dist_k = 2 (|1 - q^| + 4 eps) ||z||_F
                   + 2 max_i ||fl(B_k,i - P_i)||_F + 8 eps (|c| + |s|)^2 F_0

      bounds ``||m_k - R m_0 R||_2``: the factors 2 cover the rounding of
      the measured norms and differences, and ``4 eps`` that of ``q^ =
      fl(q)``.  By Weyl, ``s_min(m_k) >= q s_min(m_0) - dist_k``.  The
      Cholesky of phase k would prove ``s_min(m_k) > target_k`` with the
      ``1 + 16 eps`` its theta keeps for evaluating the bounds, so a proof
      of ``s_min(m_0) > need_k`` decides phase k, where::

          need_k = (target_k + dist_k) (1 + 32 eps) / q.

      The second ``16 eps`` covers the rounding of q and of need_k itself.
      One Cholesky of ``m_0`` whose target is the largest need_k proves
      every phase at once; it proves phase 0 too, as that target is at
      least ``target_0``.  A phase whose need_k exceeds twice ``target_0``
      is left out of the maximum and runs its own bracket, so a distance
      too large to transfer cannot push phase 0's Cholesky far past its own
      target.  When the SVD decided phase 0 "not singular", ``s_min(m_0) >
      (s^_min - delta_0)(1 - eps)`` (the factor covers the rounding of the
      difference) is the bound compared with need_k.

    No phase is decided by the phase law alone: the witness residual and
    the distance are computed from phase k's own entries, so a phase whose
    diagonals break the law fails them and runs its own bracket.  The transfer
    applies where the bracket does, for phase 0 and for phase k.
    """
    m = np.asarray(m, dtype=float)
    _require_square(m, "singularity input")
    return _first_phase(m, tol, False)[0]


_EPS = float(np.finfo(float).eps)


def _applies(fro, tol: float):
    """Where the bracket of :func:`is_singular` applies, for a Frobenius
    norm or an array of them."""
    return (0.0 < tol < 1.0) & (1e-100 < fro) & (fro < 1e100)


def _delta(n: int, fro):
    """delta ``= 8 n (n + 1) eps F`` of :func:`is_singular`."""
    return 8.0 * n * (n + 1) * _EPS * fro


def _target(n: int, fro, tol: float):
    """``tol (1 + F + delta) + delta``: a proof of ``s_min`` above it
    proves "not singular"."""
    delta = _delta(n, fro)
    return tol * (1.0 + fro + delta) + delta


def _witnessed(rho, n: int, fro, colmax, tol: float):
    """True where the residual ``rho = ||fl(m x)|| / ||x||`` proves ``m``
    singular (:func:`is_singular`); a non-finite rho proves nothing."""
    delta = _delta(n, fro)
    return rho + 16.0 * n * _EPS * fro + delta < tol * (1.0 + colmax - delta) * (1.0 - 16.0 * _EPS)


class _Bracket:
    """The bounds of :func:`is_singular` for one square real matrix ``m``,
    whose Frobenius norm and largest column norm are measured on ``m``
    unless given; ``applies`` is false where the bounds are skipped."""

    def __init__(self, m: np.ndarray, tol: float, fro=None, colmax=None):
        self.m, self.tol, self.colmax = m, tol, colmax
        with np.errstate(over="ignore", invalid="ignore"):  # an overflowing norm is inf
            self.fro = fro = float(np.linalg.norm(m)) if fro is None else fro
        self.applies = _applies(fro, tol)
        self.delta = _delta(m.shape[0], fro)
        self.target = _target(m.shape[0], fro, tol)

    def above(self, floor: float) -> bool:
        """True when the Cholesky of the shifted Gram matrix proves
        ``s_min(m) > floor``."""
        m, n, fro = self.m, self.m.shape[0], self.fro
        theta = (floor**2 + 16.0 * n * _EPS * (fro**2 + floor**2)) * (1.0 + 32.0 * _EPS)
        gram = m.T @ m
        gram.flat[:: n + 1] -= theta
        try:
            np.linalg.cholesky(gram)
        except np.linalg.LinAlgError:
            return False
        return True

    def solve(self) -> np.ndarray | None:
        """``solve(m, 1)``, None when the solve fails."""
        try:
            return np.linalg.solve(self.m, np.ones(self.m.shape[0]))
        except np.linalg.LinAlgError:
            return None

    def witnessed(self, x: np.ndarray) -> bool:
        """True when the residual of ``x`` proves ``m`` singular."""
        m = self.m
        # a nearly singular m makes x huge; overflow only leaves the point undecided
        with np.errstate(over="ignore", invalid="ignore"):
            xnorm = float(np.linalg.norm(x))
            if not 0.0 < xnorm < np.inf:
                return False
            rho = float(np.linalg.norm(m @ x)) / xnorm
        if self.colmax is None:
            self.colmax = float(np.linalg.norm(m, axis=0).max())
        return bool(_witnessed(rho, m.shape[0], self.fro, self.colmax, self.tol))


class _ShiftFamily:
    """The realified scalar shifts ``realify(T - lam)`` of one square
    antilinear operator T, from ``r0 = realify(T)`` (2h x 2h) and the
    diagonal ``q`` of T's canonical matrix A
    (:func:`~antilin.antiop.realify_shifted`).

    ``T - lam`` is the real-linear map ``x -> A conj(x) - lam x``.  Its
    linear part ``-lam I`` is diagonal, so a shift differs from ``r0`` only
    on the diagonals of its four h x h blocks ``[[a, b], [f, e]]``: a
    member is given by those 4h entries, the rows ``(a, b, f, e)`` of its
    ``diag``.  With ``d = 0.0 - lam * 1.0``, the linear part's diagonal (a
    zero diagonal minus the scalar times the identity's), they are ``Re d +
    Re q``, ``Im q - Im d``, ``Im d + Im q`` and ``Re d - Re q``, signed
    zeros included: the IEEE sums that realify ``-lam I`` and A together.

    ``z`` is ``r0`` with those diagonals zeroed; it and its norms are made
    on first use and kept, read-only, for the family's lifetime.

    Raises:
        DimensionMismatch: if ``r0`` is not square.
    """

    def __init__(self, r0: np.ndarray, q: np.ndarray):
        if r0.shape[0] != r0.shape[1]:
            raise DimensionMismatch("scalar shift requires a square operator")
        h = r0.shape[0] // 2
        step, half = 2 * h + 1, 2 * h * h
        self.r0, self.q = r0, q
        # the block diagonals as strided views of the flat matrix
        self.slices = (slice(0, half, step), slice(h, half, step),
                       slice(half, None, step), slice(half + h, None, step))

    def diagonals(self, lams) -> np.ndarray:
        """The ``diag`` of each member ``lam`` in ``lams``, shape
        ``(len(lams), 4, h)``."""
        qr, qi = self.q.real, self.q.imag
        d = 0.0 - np.asarray(lams)[:, None] * np.ones(qr.shape[0])
        diags = np.empty((len(d), 4, qr.shape[0]))
        np.add(d.real, qr, out=diags[:, 0])
        np.subtract(qi, d.imag, out=diags[:, 1])
        np.add(d.imag, qi, out=diags[:, 2])
        np.subtract(d.real, qr, out=diags[:, 3])
        return diags

    def member(self, lam) -> np.ndarray:
        """``realify(T - lam)``, a new array."""
        return self.fill(np.empty_like(self.r0), self.diagonals([lam])[0])

    def circle(self, lams, angles, out: np.ndarray) -> "_Circle":
        """The members ``lams`` as the phases ``angles`` of a
        :class:`_Circle` built in ``out``."""
        return _Circle(self, self.diagonals(lams), angles, out)

    def fill(self, out: np.ndarray, diag) -> np.ndarray:
        """Member ``diag`` written into the C-ordered ``out``."""
        np.copyto(out, self.r0)
        flat = out.reshape(-1)
        for where, entries in zip(self.slices, diag):
            flat[where] = entries
        return out

    @cached_property
    def z(self) -> np.ndarray:
        z = self.fill(np.empty_like(self.r0), np.zeros((4, self.r0.shape[0] // 2)))
        z.setflags(write=False)
        return z

    @cached_property
    def z_norms(self) -> tuple:
        """``||z||_F`` and the squared column norms of ``z``."""
        colsq = np.einsum("ij,ij->j", self.z, self.z)
        colsq.setflags(write=False)
        return math.sqrt(float(colsq.sum())), colsq


# rows (c^2, cs, s^2) -> the 4 x 4 map of a 2 x 2 block B = [[a, b], [f, e]],
# flattened as (a, b, f, e), to c^2 B + cs (J B + B J) + s^2 J B J
_ROTATION_BASIS = np.array([
    np.eye(4).ravel(),
    [0, 1, -1, 0, -1, 0, 0, -1, 1, 0, 0, 1, 0, 1, -1, 0],
    [0, 0, 0, -1, 0, 0, 1, 0, 0, 1, 0, 0, -1, 0, 0, 0],
], dtype=float)


class _Circle:
    """The phases of one circle of a :class:`_ShiftFamily`, decided by
    ``_phase_verdicts``: phase k has the diagonal entries ``diags[k]`` and
    is expected to equal ``R_k m_0 R_k`` up to rounding, ``R_k`` the
    rotation by ``angles[k] / 2`` on the (Re, Im) halves (``angles[0] =
    0``).  A phase is built as a matrix, in ``out``, only to be decided
    on its own; every bound of :func:`is_singular` for it comes from
    O(h) work on its diagonal entries and the family's norms."""

    def __init__(self, family: _ShiftFamily, diags: np.ndarray, angles, out: np.ndarray):
        self.family, self.diags, self.out = family, diags, out
        half = 0.5 * np.asarray(angles[1:], dtype=float)
        self.c, self.s = np.cos(half), np.sin(half)
        self._needs: dict = {}
        # squared column norms: column i < h holds a_i and f_i on the
        # diagonals, column h + i holds b_i and e_i
        sq = diags * diags
        cols = sq[:, :2] + sq[:, 2:]
        cols += family.z_norms[1].reshape(2, -1)
        self.fro = np.sqrt(cols.sum(axis=(1, 2)))
        self.colmax = np.sqrt(cols.max(axis=(1, 2), initial=0.0))

    @property
    def size(self) -> int:
        return len(self.diags)

    def applies(self, tol: float) -> np.ndarray:
        """Where the bracket applies, phase by phase."""
        return _applies(self.fro, tol)

    def matrix(self, k: int) -> np.ndarray:
        """Phase k, built in ``out``."""
        return self.family.fill(self.out, self.diags[k])

    def witnessed(self, x: np.ndarray, tol: float) -> np.ndarray:
        """Which phases after the first the rotated vectors ``R_k^T x``
        prove singular."""
        z = self.family.z
        h = z.shape[0] // 2
        # row k: R_k^T x = c x - s J x, with -J x = (v, -u) for x = (u, v)
        pair = np.empty((2, 2 * h))
        pair[0], pair[1, :h] = x, x[h:]
        np.negative(x[:h], out=pair[1, h:])
        xs = np.stack([self.c, self.s], axis=1) @ pair
        k = len(xs)
        # a nearly singular m_0 makes x huge; overflow only leaves a phase undecided
        with np.errstate(over="ignore", invalid="ignore"):
            mx = xs @ z.T
            mx += np.einsum("kijh,kjh->kih", self.diags[1:].reshape(k, 2, 2, h),
                            xs.reshape(k, 2, h)).reshape(k, 2 * h)
            xx = np.einsum("kj,kj->k", xs, xs)
            rho = np.sqrt(np.einsum("kj,kj->k", mx, mx) / xx)
            finite = (0.0 < xx) & (xx < np.inf)
            return finite & _witnessed(rho, 2 * h, self.fro[1:], self.colmax[1:], tol)

    def distances(self) -> np.ndarray:
        """dist_k of every phase after the first: a bound on ``||m_k - R_k
        m_0 R_k||_2``."""
        c, s = self.c, self.s
        w = np.abs(c) + np.abs(s)
        # fl(rho B_0 rho) of every block and phase, from one product with
        # each phase's 4 x 4 map of single coefficients
        rotate = (np.stack([c * c, c * s, s * s], axis=1) @ _ROTATION_BASIS).reshape(-1, 4, 4)
        diff = self.diags[1:] - rotate @ self.diags[0]
        blocks = np.sqrt(np.einsum("kjh,kjh->kh", diff, diff).max(axis=1, initial=0.0))
        return (2.0 * (np.abs(1.0 - (c * c + s * s)) + 4.0 * _EPS) * self.family.z_norms[0]
                + 2.0 * blocks + 8.0 * _EPS * w * w * self.fro[0])

    def needs(self, tol: float) -> np.ndarray:
        """need_k of every phase after the first, computed once per tol: a
        proof of ``s_min(m_0) > need_k`` proves phase k not singular."""
        if tol not in self._needs:
            target = _target(self.out.shape[0], self.fro[1:], tol)
            q = self.c * self.c + self.s * self.s
            self._needs[tol] = (target + self.distances()) * (1.0 + 32.0 * _EPS) / q
        return self._needs[tol]


def _first_phase(m: np.ndarray, tol: float, singular_first: bool, circle=None) -> tuple:
    """Phase 0 of ``_phase_verdicts``, and the whole decision for one
    matrix: ``(verdict, witness, lower, smin)``.

    The certificates of the bracket run in the order ``singular_first``
    asks for, and the first that succeeds decides: ``witness`` is the solve
    vector that proved ``m`` singular, ``lower`` a proved bound ``s_min(m)
    > lower`` (0.0 when there is none).  When neither succeeds the SVD
    decides, and ``smin`` is its smallest singular value (None otherwise),
    so a caller that names it needs no second SVD.  For a circle, the norms
    come from ``circle`` and the Cholesky aims at every phase it can prove.
    """
    if circle is None:
        b = _Bracket(m, tol)
    else:
        b = _Bracket(m, tol, float(circle.fro[0]), float(circle.colmax[0]))
    for singular in ((True, False) if singular_first else (False, True)) if b.applies else ():
        if singular:
            x = b.solve()
            if x is not None and b.witnessed(x):
                return True, x, 0.0, None
        else:
            floor = b.target
            if circle is not None:
                needs = circle.needs(tol)
                usable = needs[circle.applies(tol)[1:] & (needs <= 2.0 * floor)]
                floor = max(floor, float(usable.max(initial=floor)))
            if b.above(floor):
                return False, None, floor, None
    smin, threshold = singularity(m, tol)
    if smin <= threshold:
        return True, None, 0.0, smin
    return False, None, (smin - b.delta) * (1.0 - _EPS), smin


def _phase_verdicts(circle: _Circle, tol: float, singular_first: bool) -> list:
    """``[smin <= threshold of singularity(m, tol) for each phase m]`` of
    a :class:`_Circle`.

    The module's one singularity decider, with :func:`_first_phase` (and
    :func:`is_singular`) as its one-phase case.  Phase 0 is decided by
    :func:`_first_phase`.  Each other phase is proved by the rotated solve
    vector or the Weyl distance derived in :func:`is_singular`, from O(h)
    quantities of its own, and is built and decided as a one-phase circle
    when neither proves it.  A circle whose phase-0 bracket does not apply
    decides every phase on its own.  Each verdict is that of
    :func:`singularity`.
    """
    verdict, witness, lower, _ = _first_phase(circle.matrix(0), tol, singular_first, circle)
    applies = circle.applies(tol)
    proved = np.zeros(circle.size - 1, dtype=bool)
    if applies[0] and witness is not None:
        proved = circle.witnessed(witness, tol)
    elif applies[0] and lower > 0.0:
        proved = circle.needs(tol) <= lower
    proved &= applies[1:]
    return [verdict] + [
        verdict if done else _first_phase(circle.matrix(k), tol, singular_first)[0]
        for k, done in enumerate(proved, start=1)
    ]


class Factored(NamedTuple):
    """Full SVD ``a = w @ diag(s) @ vh`` with the package rank decision
    applied: singular values above ``cutoff`` count, and there are ``rank``
    of them.  The arrays are read-only, so one factorization can be shared."""

    w: np.ndarray
    s: np.ndarray
    vh: np.ndarray
    cutoff: float
    rank: int

    # compared by identity: tuple equality would compare the arrays
    __eq__ = object.__eq__
    __ne__ = object.__ne__
    __hash__ = object.__hash__

    def range_projector(self) -> np.ndarray:
        """Orthogonal projector onto the column space of ``a``."""
        wr = self.w[:, : self.rank]
        return wr @ wr.conj().T


def ranked_svd(a) -> Factored:
    """Full SVD of ``a`` with the package rank decision applied to it: the
    cutoff is ``RANK_RTOL * max(a.shape) * sigma_max``."""
    a = np.asarray(a)
    w, s, vh = np.linalg.svd(a)
    for m in (w, s, vh):
        m.setflags(write=False)
    tau = RANK_RTOL * max(a.shape) * (float(s[0]) if s.size else 0.0)
    return Factored(w, s, vh, tau, int(np.count_nonzero(s > tau)))


def singular_values(a) -> np.ndarray:
    """Descending singular values of ``a`` from one ``svd(compute_uv=False)``
    (empty for an empty matrix): the package's one call of that kernel,
    which :func:`spectral_norm` and :func:`singularity` read."""
    a = np.asarray(a)
    if a.size == 0:
        return np.zeros(0)
    return np.linalg.svd(a, compute_uv=False)
