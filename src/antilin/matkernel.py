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
to be singular (the spectrum crosscheck on the circles it predicts).  Each
other phase is proved on its own matrix from that one factorization, by
the rotated solve vector or by a Weyl bound through its measured distance
from the rotated first matrix, and is decided as a one-phase circle when
neither proves it.  The bounds (Weyl's inequality for the SVD's own error;
Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed., 3.5 for
the products and Ch. 10 for Cholesky) are derived in the docstring of
:func:`is_singular`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    s = singular_values(m)
    return float(s[-1]), tol * (1.0 + float(s[0]))


def is_singular(m, tol: float = SING_TOL) -> bool:
    """The verdict ``smin <= threshold`` of :func:`singularity`, proved
    without an SVD whenever a two-sided bracket decides it.

    A single matrix is the one-phase case of the module's one decider,
    the circle decider ``_phase_verdicts``: the bracket below, then the SVD.

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

    *The phases of a circle.*  The decider takes matrices ``m_k`` that
    are, up to rounding, ``R_k m_0 R_k`` with ``R_k = [[c I, -s I], [s I,
    c I]]``, ``c = cos(theta_k / 2)`` and ``s = sin(theta_k / 2)``: the
    realified phase law ``T - r e^(i theta) = e^(i theta/2) (T - r)
    e^(i theta/2)`` of an antilinear T.  Whatever
    floats c and s are, ``R^T R = q I`` with ``q = c^2 + s^2``, so
    ``s_min(R m_0 R) = q s_min(m_0)`` exactly.  Phase 0 runs the bracket
    above; every other phase is proved from phase 0's work and a quantity
    measured on its own matrix, or else is decided as a one-phase circle:

    - A witness.  The "singular" bound holds for every x, so ``x_k = R_k^T
      x_0`` (the vector ``e^(-i theta_k/2) x_0``) for phase 0's solve vector
      ``x_0`` proves ``m_k`` singular when the residual, F, colmax and delta
      of ``m_k`` pass that bound.
    - A distance.  ``P = fl(R m_0 R)`` is formed as ``c^2 m_0 + cs (J m_0 +
      m_0 J) + s^2 J m_0 J`` with ``J = [[0, -I], [I, 0]]`` (J m and m J
      only move and negate blocks; their sum is rounded once).  Each entry
      of P then carries at most five roundings on terms bounded by the
      entries of ``|R| |m_0| |R|``, so ``|P - R m_0 R| <= gamma_5 |R| |m_0|
      |R|`` entrywise and ``||P - R m_0 R||_F <= gamma_5 (|c| + |s|)^2 F_0``,
      as ``|| |R| ||_2 = |c| + |s|``.  With ``gamma_5 < 2.6 eps`` and room
      for the rounding of ``F_0``, that is below::

          e_k = 8 eps (|c| + |s|)^2 F_0.

      The measured ``d_k = ||fl(m_k - P)||_F`` is within a relative ``(n^2 +
      1) eps`` of ``||m_k - P||_F``, so ``||m_k - P||_F <= 2 d_k`` while
      ``n^2 eps < 1``.  By Weyl, ``s_min(m_k) >= q s_min(m_0) - 2 d_k -
      e_k``.  The Cholesky of phase k would prove ``s_min(m_k) > target_k``
      with the ``1 + 16 eps`` its theta keeps for evaluating the bounds, so
      a proof of ``s_min(m_0) > need_k`` decides phase k, where::

          need_k = (target_k + 2 d_k + e_k) (1 + 32 eps) / q.

      The second ``16 eps`` covers the rounding of q (one eps) and of need_k
      itself (two).  One Cholesky of ``m_0`` whose target is the largest
      need_k proves every phase at once; it proves phase 0 too, as that
      target is at least ``target_0``.  A phase whose need_k exceeds twice
      ``target_0`` is left out of the maximum and runs its own bracket, so a
      distance too large to transfer cannot push phase 0's Cholesky far
      past its own target.  When the SVD decided phase 0 "not singular",
      ``s_min(m_0) > (s^_min - delta_0)(1 - eps)`` (the factor covers the
      rounding of the difference) is the bound compared with need_k.

    No phase is decided by the phase law alone: the witness residual and
    the distance ``d_k`` are measured on ``m_k`` itself, so a matrix that
    breaks the law fails them and runs its own bracket.  The transfer
    applies where the bracket does, for each phase.
    """
    m = np.asarray(m, dtype=float)
    _require_square(m, "singularity input")
    return _phase_verdicts([m], (0.0,), tol, False)[0]


_EPS = float(np.finfo(float).eps)


class _Bracket:
    """The bounds of :func:`is_singular` for one square real matrix ``m``;
    ``applies`` is false where they are skipped."""

    def __init__(self, m: np.ndarray, tol: float):
        n = m.shape[0]
        self.m, self.tol = m, tol
        self.fro = fro = float(np.linalg.norm(m))
        self.applies = 0.0 < tol < 1.0 and 1e-100 < fro < 1e100
        self.delta = delta = 8.0 * n * (n + 1) * _EPS * fro
        self.target = tol * (1.0 + fro + delta) + delta

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
        m, n = self.m, self.m.shape[0]
        # a nearly singular m makes x huge; overflow only leaves the point undecided
        with np.errstate(over="ignore", invalid="ignore"):
            xnorm = float(np.linalg.norm(x))
            if not 0.0 < xnorm < np.inf:
                return False
            rho = float(np.linalg.norm(m @ x)) / xnorm
        colmax = float(np.linalg.norm(m, axis=0).max())
        bound = rho + 16.0 * n * _EPS * self.fro + self.delta
        return bound < self.tol * (1.0 + colmax - self.delta) * (1.0 - 16.0 * _EPS)


def _phase_terms(m: np.ndarray) -> tuple:
    """``(J m + m J, J m J)`` for ``J = [[0, -I], [I, 0]]``: blocks of ``m``
    moved and negated, one rounding in each entry of the sum."""
    h = m.shape[0] // 2
    a, b, f, e = m[:h, :h], m[:h, h:], m[h:, :h], m[h:, h:]
    jsum, jmj = np.empty_like(m), np.empty_like(m)
    np.subtract(b, f, out=jsum[:h, :h])
    jsum[h:, h:] = jsum[:h, :h]
    np.add(a, e, out=jsum[h:, :h])
    np.negative(jsum[h:, :h], out=jsum[:h, h:])
    np.negative(e, out=jmj[:h, :h])
    jmj[:h, h:] = f
    jmj[h:, :h] = b
    np.negative(a, out=jmj[h:, h:])
    return jsum, jmj


def _rotated(m: np.ndarray, c: float, s: float, terms: tuple) -> np.ndarray:
    """``fl(R m R)`` for ``R = [[c I, -s I], [s I, c I]]``, as ``c^2 m + cs
    (J m + m J) + s^2 J m J`` from ``terms = _phase_terms(m)``."""
    p = (c * c) * m
    p += (c * s) * terms[0]
    p += (s * s) * terms[1]
    return p


def _phase_verdicts(mats, angles, tol: float, singular_first: bool) -> list:
    """``[smin <= threshold of singularity(m, tol) for m in mats]`` for
    the phases of one circle: ``mats[k]`` is expected to equal ``R_k
    mats[0] R_k`` up to rounding, ``R_k`` the rotation by ``angles[k] / 2``
    on the (Re, Im) halves (``angles[0] = 0``).

    The module's one singularity decider; :func:`is_singular` is its
    one-phase circle.  Phase 0 tries the certificates of the bracket in the
    order ``singular_first`` asks for, its Cholesky aimed at every phase,
    and runs the SVD when neither succeeds.  Each other phase is proved on
    its own matrix by the rotated solve vector or the Weyl distance derived
    in :func:`is_singular`, and is decided as a one-phase circle when
    neither proves it.  A circle whose bracket does not apply, or whose
    matrices have odd size, decides each matrix as a one-phase circle.
    Each verdict is that of :func:`singularity`.
    """
    b0 = _Bracket(mats[0], tol)
    if len(mats) > 1 and (not b0.applies or b0.m.shape[0] % 2):
        return [_phase_verdicts([m], (0.0,), tol, singular_first)[0] for m in mats]
    # (bracket, c, s) of every other phase, and its need_k once measured
    others = [(_Bracket(m, tol), math.cos(0.5 * angle), math.sin(0.5 * angle))
              for m, angle in zip(mats[1:], angles[1:])]
    needs: dict = {}
    terms: list = []   # J m_0 + m_0 J and J m_0 J, made for the first distance

    def need(k: int) -> float:
        if k not in needs:
            b, c, s = others[k]
            if not terms:
                terms.extend(_phase_terms(b0.m))
            diff = _rotated(b0.m, c, s, terms)
            np.subtract(b.m, diff, out=diff)
            d = float(np.linalg.norm(diff))
            e = 8.0 * _EPS * (abs(c) + abs(s)) ** 2 * b0.fro
            needs[k] = (b.target + 2.0 * d + e) * (1.0 + 32.0 * _EPS) / (c * c + s * s)
        return needs[k]

    # phase 0's certificate, the first that succeeds: a solve vector that
    # proves it singular, or a proved s_min(m_0) > lower; else its SVD
    verdict, witness, lower = None, None, 0.0
    for singular in ((True, False) if singular_first else (False, True)) if b0.applies else ():
        if singular:
            x = b0.solve()
            if x is not None and b0.witnessed(x):
                verdict, witness = True, x
                break
        else:
            floor = max([b0.target] + [
                need(k) for k, (b, _, _) in enumerate(others)
                if b.applies and need(k) <= 2.0 * b0.target
            ])
            if b0.above(floor):
                verdict, lower = False, floor
                break
    if verdict is None:
        smin, threshold = singularity(b0.m, tol)
        verdict = smin <= threshold
        if not verdict:
            lower = (smin - b0.delta) * (1.0 - _EPS)

    verdicts = [verdict]
    if witness is not None:
        h = b0.m.shape[0] // 2
        u, v = witness[:h], witness[h:]
    for k, (b, c, s) in enumerate(others):
        if b.applies and witness is not None and b.witnessed(
                np.concatenate([c * u + s * v, c * v - s * u])):
            verdicts.append(True)
        elif b.applies and lower > 0.0 and need(k) <= lower:
            verdicts.append(False)
        else:
            verdicts.append(_phase_verdicts([b.m], (0.0,), tol, singular_first)[0])
    return verdicts


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
