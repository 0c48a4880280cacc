"""Structural predicates and decompositions for antilinear operators.

Covers Gram operators, normality and self-adjointness tests, the modulus
``|T| = (T# T)^(1/2)``, the polar decomposition ``T = U_T |T|``, the
Moore-Penrose inverse (definitional and pseudoinverse constructions), and
the identity suite tying daggers, adjoints, moduli and partial isometries
together.

Canonical-matrix dictionary used throughout (A = canon of T, m x n):

* ``T# T``  is linear with matrix ``conj(A* A) = A.T conj(A)``  (n x n),
* ``T T#``  is linear with matrix ``A A*``                      (m x m),
* ``|T|``   is ``psd_sqrt(conj(A* A))``,
* ``T = U_T |T|`` becomes ``A = U_c conj(M)`` for the canonical matrix
  ``U_c`` of the partial antilinear isometry and ``M`` of ``|T|``.

Projector conventions: the initial-space projector of ``U_T`` is the linear
composition ``U_T# U_T`` with matrix ``U_c.T conj(U_c)``, and the final-space
projector is ``U_T U_T#`` with matrix ``U_c U_c*``.

Each operator is factored once per object (:func:`antiop.derived`): the
ranked SVD that :func:`polar`, :func:`moore_penrose` and the range projector
share (:func:`factored`), the modulus and its pseudoinverse, the
Moore-Penrose dagger, the spectral norm of the canonical matrix
(:func:`canon_norm`) and the normality verdict (:func:`is_normal`).
The pseudoinverse and psd square-root oracles keep their own factorizations.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, NamedTuple, Optional

import numpy as np

from .antiop import AntilinearOperator, _Frozen, _parity_product, _realify_pair, derived
from .errors import DimensionMismatch, NotNormal
from .matkernel import Factored, pinv, psd_sqrt, ranked_svd, spectral_norm
from .reporting import BASE_TOLERANCES, scaled_bound

# the antilinear-normal criteria (T T# = T# T, the modulus swap, and the
# checks that require a normal operator) all decide with this tolerance,
# scaled by reporting.scaled_bound
NORMAL_TOL = 1e-8
_NORM_SAMPLING_SEED = 0x5EED


def _square(t: AntilinearOperator) -> np.ndarray:
    if t.dim_in != t.dim_out:
        raise DimensionMismatch(f"square operator required, got {t.canon.shape}")
    return t.canon


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def factored(t: AntilinearOperator) -> Factored:
    """The ranked SVD of ``t.canon``, computed once per operator object."""
    return derived(t, "factored", lambda: ranked_svd(t.canon))


def canon_norm(t: AntilinearOperator) -> float:
    """Spectral norm of the canonical matrix, computed once per operator
    object (bitwise ``spectral_norm(t.canon)``)."""
    return derived(t, "canon_norm", lambda: spectral_norm(t.canon))


def gram(t: AntilinearOperator) -> tuple[np.ndarray, np.ndarray]:
    """Matrices of the Gram compositions (left = T T#, right = T# T).

    Both are Hermitian positive semidefinite.
    """
    a = t.canon
    left = a @ a.conj().T
    right = a.T @ a.conj()
    return left, right


class NormalityCheck(NamedTuple):
    """Outcome of the normality test; truthy when normal."""

    value: bool
    residual: float
    sampled_value: bool

    def __bool__(self) -> bool:
        return self.value


def normality_residual(a: np.ndarray) -> float:
    """``||A A* - A.T conj(A)||``: the spectral norm of ``T T# - T# T`` for
    the canonical matrix ``a``, from the two products :func:`gram` forms."""
    return spectral_norm(a @ a.conj().T - a.T @ a.conj())


def is_normal(t: AntilinearOperator) -> NormalityCheck:
    """Decide ``T T# = T# T``, once per operator object (:func:`derived`),
    so the checks that require a normal operator pay nothing more.

    Primary criterion: ``normality_residual(A) <= NORMAL_TOL * (1 + ||A||^2)``.
    Cross-validated by the norm criterion ``||T x|| = ||T# x||`` on 50 random
    unit vectors (deviation threshold ``NORMAL_TOL * (1 + ||A||)``) drawn
    from a fixed seed, so results are deterministic.
    """
    a = _square(t)

    def decide() -> NormalityCheck:
        residual = normality_residual(a)
        scale = canon_norm(t)
        value = residual <= scaled_bound(NORMAL_TOL, 2, scale)

        # 50 unit draws as columns; each draw takes its Re part, then its Im
        # part from the stream
        rng = np.random.default_rng(_NORM_SAMPLING_SEED)
        g = rng.standard_normal((50, 2, t.dim_in))
        x = g[:, 0] + 1j * g[:, 1]
        xc = np.conj(x / np.linalg.norm(x, axis=1, keepdims=True)).T
        dev = np.abs(np.linalg.norm(a @ xc, axis=0) - np.linalg.norm(a.T @ xc, axis=0))
        sampled_value = bool(dev.max() <= scaled_bound(NORMAL_TOL, 1, scale))
        return NormalityCheck(value, residual, sampled_value)

    return derived(t, "normality", decide)


def is_selfadjoint(t: AntilinearOperator) -> bool:
    """True when ``T = T#``, i.e. the canonical matrix is symmetric within
    ``NORMAL_TOL * (1 + ||A||)``."""
    a = _square(t)
    return spectral_norm(a - a.T) <= scaled_bound(NORMAL_TOL, 1, canon_norm(t))


def modulus(t: AntilinearOperator) -> np.ndarray:
    """Matrix of ``|T| = (T# T)^(1/2)`` (Hermitian psd), computed once per
    operator object (read-only)."""
    a = t.canon
    return derived(t, "modulus", lambda: _read_only(psd_sqrt(a.T @ a.conj())))


class PolarDecomposition(NamedTuple):
    """``T = U_T |T|`` with U_T a partial antilinear isometry.

    ``u`` holds the canonical matrix of U_T and ``modulus`` the Hermitian
    psd matrix of |T|; the reconstruction reads ``A = u.canon @ conj(modulus)``.
    """

    u: AntilinearOperator
    modulus: np.ndarray

    def initial_projector(self) -> np.ndarray:
        """Matrix of the linear composition ``U_T# U_T`` (projects onto R(|T|))."""
        uc = self.u.canon
        return uc.T @ np.conj(uc)

    def final_projector(self) -> np.ndarray:
        """Matrix of ``U_T U_T#`` (projects onto R(T))."""
        uc = self.u.canon
        return uc @ uc.conj().T


def polar(t: AntilinearOperator) -> PolarDecomposition:
    """Polar decomposition via the compact SVD ``A = W_r S_r V_r*``.

    ``U_c = W_r V_r*`` and ``|T| = conj(V) S V.T`` (full), so that
    ``A = U_c conj(|T|)`` with initial space R(|T|) and final space R(T).
    For T = 0 both factors are zero (empty initial space).
    """
    n = t.dim_in
    f = factored(t)
    w, s, vh, tau, r = f.w, f.s, f.vh, f.cutoff, f.rank

    uc = w[:, :r] @ vh[:r, :]
    v = vh.conj().T
    s_full = np.zeros(n)
    s_full[: s.size] = s
    s_full[s_full <= tau] = 0.0
    mod = (v.conj() * s_full) @ v.T
    mod = 0.5 * (mod + mod.conj().T)
    return PolarDecomposition(u=AntilinearOperator(uc), modulus=mod)


def check_polar_commutation(t: AntilinearOperator) -> float:
    """Residual of ``U_T |T| = |T| U_T`` for a normal operator.

    The two sides are antilinear with canonical matrices ``U_c conj(M)`` and
    ``M U_c``; the residual is the spectral norm of their difference.

    Raises:
        NotNormal: when the operator fails :func:`is_normal`.
    """
    _square(t)
    if not is_normal(t):
        raise NotNormal("polar commutation requires an antilinear normal operator")
    p = polar(t)
    uc, m = p.u.canon, p.modulus
    return spectral_norm(uc @ np.conj(m) - m @ uc)


def c_normal_criterion(t: AntilinearOperator) -> tuple[bool, float]:
    """Modulus-swap normality criterion under the standard conjugation.

    Compares ``L = conj(|T|)`` against ``R = psd_sqrt(conj(A) A.T)``, the
    modulus of the linear map with matrix ``A.T``.  Equality within
    ``NORMAL_TOL * (1 + ||A||)`` holds exactly when T is antilinear normal, so the
    returned flag must agree with :func:`is_normal`.
    """
    a = _square(t)
    left = np.conj(modulus(t))
    right = psd_sqrt(a.conj() @ a.T)
    residual = spectral_norm(left - right)
    return residual <= scaled_bound(NORMAL_TOL, 1, canon_norm(t)), residual


def power_commute(t: AntilinearOperator, n: int) -> float:
    """Residual of ``T^n (T#)^n = (T#)^n T^n`` for a normal operator.

    ``T^n`` and ``(T#)^n`` are canonical matrices of parity ``n mod 2``,
    so both compositions are linear; the residual is the operator norm of
    their difference, read as the largest singular value of its
    realification.

    Raises:
        NotNormal: when the operator fails :func:`is_normal`.
        ValueError: when ``n < 1``.
    """
    _square(t)
    if n < 1:
        raise ValueError("power must be at least 1")
    if not is_normal(t):
        raise NotNormal("power commutation requires an antilinear normal operator")
    letters = (t.canon, 1), (t.adjoint().canon, 1)
    tn = sn = (np.eye(t.dim_in), 0)
    for _ in range(n):
        tn = _parity_product(letters[0], tn)
        sn = _parity_product(letters[1], sn)
    lhs, _ = _parity_product(tn, sn)
    rhs, _ = _parity_product(sn, tn)
    return spectral_norm(_realify_pair(lhs - rhs, 0))


class MpResult(_Frozen):
    """Moore-Penrose inverse of an antilinear operator ``source``.

    ``residuals`` checks ``dagger`` against the independent oracle
    ``canon(T+) = conj(pinv(A))`` and the projector identities ``T T+ =
    P_R(T)``, ``T+ T = P_N(T)perp``.  It is computed on first read (one
    pseudoinverse and three norms), so a caller that needs only the
    inverse does not pay for the check.
    """

    dagger: AntilinearOperator
    source: AntilinearOperator

    def __init__(self, dagger: AntilinearOperator, source: AntilinearOperator):
        object.__setattr__(self, "dagger", dagger)
        object.__setattr__(self, "source", source)

    @cached_property
    def residuals(self) -> Dict[str, float]:
        a, dag = self.source.canon, self.dagger.canon
        f = factored(self.source)
        qn = f.vh[: f.rank].T         # orthonormal basis of N(T)^perp
        oracle = np.conj(pinv(a))
        p_nperp = qn @ qn.conj().T
        return {
            "left_projector": spectral_norm(a @ np.conj(dag) - f.range_projector()),
            "oracle_agreement": spectral_norm(dag - oracle),
            "right_projector": spectral_norm(dag @ np.conj(a) - p_nperp),
        }


def moore_penrose(t: AntilinearOperator) -> MpResult:
    """Moore-Penrose inverse built from the definitional construction.

    Orthonormal bases of ``N(T)^perp = conj(row(A))`` and ``R(T) = col(A)``
    are taken from the SVD, the antilinear restriction of T between them is
    inverted in coordinates, and the inverse is extended by zero on
    ``R(T)^perp``.  The dagger is built once per operator object
    (:func:`antiop.derived`).  The checks against the ``conj(pinv(A))``
    oracle and the projector identities are :attr:`MpResult.residuals`,
    computed on first read.
    """
    def compute() -> AntilinearOperator:
        a = t.canon
        m, n = a.shape
        f = factored(t)
        w, vh, r = f.w, f.vh, f.rank

        v = vh.conj().T
        qn = v[:, :r].conj()          # orthonormal basis of N(T)^perp
        wr = w[:, :r]                 # orthonormal basis of R(T)
        if r > 0:
            # antilinear restriction in coordinates: b = rmat conj(a)
            rmat = wr.conj().T @ a @ v[:, :r]
            dag = qn @ np.linalg.inv(rmat).conj() @ wr.T
        else:
            dag = np.zeros((n, m), dtype=complex)
        return AntilinearOperator(dag)

    # the dagger, not the result, is kept: a result refers back to t
    return MpResult(dagger=derived(t, "dagger", compute), source=t)


def _modulus_dagger(t: AntilinearOperator) -> np.ndarray:
    """``pinv(|T|)``, computed once per operator object (read-only)."""
    return derived(t, "modulus_dagger", lambda: _read_only(pinv(modulus(t))))


class IdentitySuiteResult(NamedTuple):
    """Residuals of the dagger/adjoint/modulus identity suite.

    ``projector_gap`` and ``range_gap`` feed the projector-equality test:
    ``T T+ = T+ T`` holds exactly when ``R(T) = R(T#)``; both gaps are None
    for rectangular operators, where the comparison is not defined.
    """

    residuals: Dict[str, float]
    projector_gap: Optional[float]
    range_gap: Optional[float]
    classification_consistent: Optional[bool]


def identity_suite(
    t: AntilinearOperator, tol: float = BASE_TOLERANCES["identity"]
) -> IdentitySuiteResult:
    """Evaluate the full dagger identity suite for ``t``.

    Residual keys (D = canon(T+), A = canon(T)):

    * ``dagger_adjoint_swap``:   (T#)+  vs  (T+)#
    * ``double_dagger``:         (T+)+  vs  T
    * ``gram_right_dagger``:     (T# T)+  vs  T+ (T#)+
    * ``gram_left_dagger``:      (T T#)+  vs  (T#)+ T+
    * ``modulus_dagger_left``:   |T|+  vs  |(T#)+|
    * ``modulus_dagger_right``:  |T+|  vs  |T#|+
    * ``dagger_polar_form``:     T+  vs  |T|+ U_{T#} with U_{T#} = (U_T)#
    """
    a = t.canon
    square = t.dim_in == t.dim_out
    d = moore_penrose(t).dagger
    modulus_dagger = _modulus_dagger(t)
    res: Dict[str, float] = {}

    # each short-lived operand is dropped after its last read, and with it
    # the factors antiop.derived keeps on it (keyed weakly): T# and (T#)+
    # below, unless T is symmetric, so that T# is T and shares T+ and
    # pinv(|T|); T+ is kept on T
    ts = t.adjoint()
    ds = moore_penrose(ts).dagger
    res["modulus_dagger_right"] = spectral_norm(modulus(d) - _modulus_dagger(ts))
    if square:
        range_gap = spectral_norm(
            factored(t).range_projector() - factored(ts).range_projector()
        )
    del ts

    res["dagger_adjoint_swap"] = spectral_norm(ds.canon - d.adjoint().canon)
    left_gram, right_gram = gram(t)
    # T+ (T#)+ and (T#)+ T+ are linear, with matrices D conj(D#) and D# conj(D)
    res["gram_right_dagger"] = spectral_norm(pinv(right_gram) - d.canon @ np.conj(ds.canon))
    res["gram_left_dagger"] = spectral_norm(pinv(left_gram) - ds.canon @ np.conj(d.canon))
    res["modulus_dagger_left"] = spectral_norm(modulus_dagger - modulus(ds))
    del ds, left_gram, right_gram

    uc = polar(t).u.canon
    res["dagger_polar_form"] = spectral_norm(d.canon - modulus_dagger @ uc.T)

    if square:
        p_left = a @ np.conj(d.canon)      # T T+  -> projector onto R(T)
        p_right = d.canon @ np.conj(a)     # T+ T  -> projector onto N(T)^perp
        projector_gap = spectral_norm(p_left - p_right)
        consistent = (projector_gap <= tol) == (range_gap <= tol)
    else:
        projector_gap = range_gap = None
        consistent = None

    res["double_dagger"] = spectral_norm(moore_penrose(d).dagger.canon - a)

    return IdentitySuiteResult(
        residuals=res,
        projector_gap=projector_gap,
        range_gap=range_gap,
        classification_consistent=consistent,
    )
