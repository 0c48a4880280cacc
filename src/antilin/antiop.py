"""Conjugations, antilinear operators, and the real-linear (P, Q) algebra.

Inner product convention
------------------------
The inner product is linear in the FIRST slot and conjugate-linear in the
second: ``<a, b> = sum_i a_i * conj(b_i)``.  With this convention the adjoint
of the antilinear map ``x -> A conj(x)`` is the antilinear map with canonical
matrix ``A.T``, defined by ``conj(<T x, y>) = <x, adjoint(T) y>``.

Representations
---------------
* ``AntilinearOperator`` stores the canonical matrix ``A`` of the action
  ``x -> A conj(x)``.  This is the single source of truth.
* A conjugation is an ``AntilinearOperator`` whose canonical matrix
  :func:`make_conjugation` has validated as an isometric involution
  (``K conj(K) = I`` and ``K* K = I``); it has no type of its own.
* ``RealLinearOperator`` stores the pair ``(P, Q)`` of the action
  ``x -> P x + Q conj(x)``.  This algebra closes compositions and
  differences of linear and antilinear maps.  Composition follows

  ``(P1, Q1) o (P2, Q2) = (P1 P2 + Q1 conj(Q2), P1 Q2 + Q1 conj(P2))``.

  A composition of maps of one parity each (linear or antilinear) has one
  nonzero part, ``M1 conj^p1(M2)``; the package forms such products on the
  canonical matrices alone (:func:`_parity_product`), and keeps
  :func:`compose` as the general algebra.

* ``realify`` represents a real-linear map as the real ``2m x 2n`` matrix
  acting on stacked ``(Re x; Im x)`` coordinates:

  ``[[Re P + Re Q, -Im P + Im Q], [Im P + Im Q, Re P - Re Q]]``.

  It is an algebra homomorphism, ``realify(f o g) = realify(f)
  realify(g)``, so a resolvent, which is real-linear but not complex-linear,
  is the inverse of a realified matrix, and the block complements of
  :mod:`antilin.blockops` are computed on realified matrices throughout.

  A scalar shift ``op - lam`` is defined to move only the diagonal of the
  linear part (:meth:`RealLinearOperator.shifted`), so it moves only the
  diagonals of the four blocks: :func:`realify_shifted` realifies an
  operator once and patches those 4n entries per shift, bitwise equal to
  realifying ``op - lam``.

All value types are immutable and every operation is a pure function, so
everything here is safe to share across threads.  Because an operator never
changes, whatever is computed from it can be kept for its lifetime:
:func:`derived` keeps such values on an operator (its realification, its
shift base and its factorizations).
Composite results that are not operators, such as a block matrix or a
Moore-Penrose result, keep their own derived fields with
``functools.cached_property``.
"""

from __future__ import annotations

import weakref
from typing import Callable, Hashable, TypeVar, Union

import numpy as np

from .errors import DimensionMismatch, NotInvolution, NotIsometric
from .matkernel import _as_complex, _ShiftFamily, spectral_norm

# a conjugation matrix K must satisfy K conj(K) = I and K* K = I to this
# absolute spectral-norm tolerance
CONJUGATION_TOL = 1e-10


def _own_matrix(a) -> np.ndarray:
    """A read-only C-order copy of the finite 2-d complex matrix ``a``."""
    m = _as_complex(a).copy(order="C")
    m.setflags(write=False)
    return m


class _Frozen:
    """Base of the package's immutable classes that are not tuples (they
    are weakly referenced, or cache with ``cached_property``): ``__init__``
    sets the fields with ``object.__setattr__``, and any later assignment
    or deletion raises ``AttributeError``.  Equality is identity."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class AntilinearOperator(_Frozen):
    """Antilinear map ``x -> canon @ conj(x)`` between C^n and C^m."""

    canon: np.ndarray

    def __init__(self, canon):
        object.__setattr__(self, "canon", _own_matrix(canon))

    @property
    def dim_in(self) -> int:
        return self.canon.shape[1]

    @property
    def dim_out(self) -> int:
        return self.canon.shape[0]

    def apply(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=complex)
        if x.shape != (self.dim_in,):
            raise DimensionMismatch(
                f"vector of length {self.dim_in} expected, got shape {x.shape}"
            )
        return self.canon @ np.conj(x)

    def adjoint(self) -> "AntilinearOperator":
        """Adjoint under the pairing conj(<T x, y>) = <x, T# y>."""
        return AntilinearOperator(self.canon.T)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AntilinearOperator({self.dim_out}x{self.dim_in})"


_V = TypeVar("_V")

_DERIVED: "weakref.WeakKeyDictionary[object, dict]" = weakref.WeakKeyDictionary()


def derived(
    t: Union[AntilinearOperator, "RealLinearOperator"], key: Hashable, compute: Callable[[], _V]
) -> _V:
    """``compute()``, evaluated once per operator object and ``key``.

    The cache is keyed weakly on the (immutable) operator object, never on
    its matrix content: an entry lives exactly as long as the operator it
    describes, so nothing carries over from one operator, or one CLI
    invocation, to the next.  ``key`` names the quantity.  A cached value
    must not refer back to ``t`` (that would keep the operator alive), and a
    cached array should be read-only, since every caller receives the same
    object.
    """
    memo = _DERIVED.get(t)
    if memo is None:
        memo = _DERIVED[t] = {}
    if key not in memo:
        memo[key] = compute()
    return memo[key]


def make_conjugation(k) -> AntilinearOperator:
    """The conjugation ``x -> k conj(x)``, after validating ``k``.

    Raises:
        NotInvolution: if ``||k conj(k) - I|| > CONJUGATION_TOL``.
        NotIsometric: if ``||k* k - I|| > CONJUGATION_TOL``.
    """
    k = np.asarray(k, dtype=complex)
    if k.ndim != 2 or k.shape[0] != k.shape[1]:
        raise DimensionMismatch(f"conjugation matrix must be square, got {k.shape}")
    eye = np.eye(k.shape[0])
    if spectral_norm(k @ np.conj(k) - eye) > CONJUGATION_TOL:
        raise NotInvolution("K conj(K) differs from the identity")
    if spectral_norm(k.conj().T @ k - eye) > CONJUGATION_TOL:
        raise NotIsometric("K is not unitary")
    return AntilinearOperator(k)


class RealLinearOperator(_Frozen):
    """Real-linear map ``x -> lin @ x + anti @ conj(x)``."""

    lin: np.ndarray
    anti: np.ndarray

    def __init__(self, lin, anti):
        lin = _own_matrix(lin)
        anti = _own_matrix(anti)
        if lin.shape != anti.shape:
            raise DimensionMismatch(
                f"linear part {lin.shape} and antilinear part {anti.shape} differ"
            )
        object.__setattr__(self, "lin", lin)
        object.__setattr__(self, "anti", anti)

    @classmethod
    def from_linear(cls, mat) -> "RealLinearOperator":
        mat = np.asarray(mat, dtype=complex)
        return cls(mat, np.zeros_like(mat))

    @classmethod
    def from_antilinear(cls, t: AntilinearOperator) -> "RealLinearOperator":
        return cls(np.zeros_like(t.canon), t.canon)

    @property
    def dim_in(self) -> int:
        return self.lin.shape[1]

    @property
    def dim_out(self) -> int:
        return self.lin.shape[0]

    def apply(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=complex)
        if x.shape != (self.dim_in,):
            raise DimensionMismatch(
                f"vector of length {self.dim_in} expected, got shape {x.shape}"
            )
        return self.lin @ x + self.anti @ np.conj(x)

    def __sub__(self, other: "RealLinearOperator") -> "RealLinearOperator":
        other = coerce(other)
        return RealLinearOperator(self.lin - other.lin, self.anti - other.anti)

    def shifted(self, mu: complex) -> "RealLinearOperator":
        """The operator ``self - mu``: the diagonal of the linear part becomes
        ``diag(lin) - mu`` and every other entry is kept bitwise, a ``-0.0``
        included.  The new diagonal is not checked for finiteness, so a
        non-finite ``mu`` gives a non-finite diagonal, as in
        :func:`realify_shifted`."""
        if self.dim_in != self.dim_out:
            raise DimensionMismatch("scalar shift requires a square operator")
        lin = self.lin.copy()
        np.fill_diagonal(lin, lin.diagonal() - mu * np.ones(self.dim_in))
        lin.setflags(write=False)
        out = object.__new__(RealLinearOperator)
        object.__setattr__(out, "lin", lin)
        object.__setattr__(out, "anti", self.anti)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RealLinearOperator({self.dim_out}x{self.dim_in})"


Composable = Union[AntilinearOperator, RealLinearOperator, np.ndarray]


def coerce(op: Composable) -> RealLinearOperator:
    """View any supported operator as a RealLinearOperator."""
    if isinstance(op, RealLinearOperator):
        return op
    if isinstance(op, AntilinearOperator):
        return RealLinearOperator.from_antilinear(op)
    return RealLinearOperator.from_linear(op)


def compose(f: Composable, g: Composable) -> RealLinearOperator:
    """Composition ``f o g`` (g applied first) in the (P, Q) algebra.

    antilinear o antilinear is purely linear, antilinear o linear and
    linear o antilinear are purely antilinear; the zero parts are exact.
    """
    f = coerce(f)
    g = coerce(g)
    if f.dim_in != g.dim_out:
        raise DimensionMismatch(
            f"inner dimensions differ: {f.dim_in} vs {g.dim_out}"
        )
    lin = f.lin @ g.lin + f.anti @ np.conj(g.anti)
    anti = f.lin @ g.anti + f.anti @ np.conj(g.lin)
    return RealLinearOperator(lin, anti)


def _parity_product(f: tuple, g: tuple) -> tuple:
    """``f o g`` (g applied first) for two maps of one parity each, given
    as ``(M, p)`` for ``x -> M conj^p(x)`` (p = 1 antilinear, 0 linear):
    ``(M_f conj^{p_f}(M_g), p_f xor p_g)``, the one product of the four
    that :func:`compose` forms which is not exactly zero."""
    (mf, pf), (mg, pg) = f, g
    return mf @ (np.conj(mg) if pf else mg), pf ^ pg


def realify(op: Composable) -> np.ndarray:
    """Real 2m x 2n matrix of ``op`` on stacked (Re x; Im x) coordinates.

    The four blocks are written straight into one array.  ``qi - pi`` is the
    IEEE sum ``-pi + qi`` of the module formula, signed zeros included.
    """
    op = coerce(op)
    pr, pi = op.lin.real, op.lin.imag
    qr, qi = op.anti.real, op.anti.imag
    m, n = op.lin.shape
    r = np.empty((2 * m, 2 * n))
    np.add(pr, qr, out=r[:m, :n])
    np.subtract(qi, pi, out=r[:m, n:])
    np.add(pi, qi, out=r[m:, :n])
    np.subtract(pr, qr, out=r[m:, n:])
    return r


def _shift_base(op: Union[AntilinearOperator, RealLinearOperator]):
    """``(family, diag(lin), Re diag(anti), Im diag(anti))`` for a square
    ``op``, the arrays read-only: a shift moves only the diagonal of the
    linear part, so only the diagonals of the four blocks of ``realify(op)``
    move with it, and the shifts form one
    :class:`~antilin.matkernel._ShiftFamily` around ``realify(op)``.

    Raises:
        DimensionMismatch: if ``op`` is not square.
    """
    if op.dim_in != op.dim_out:
        raise DimensionMismatch("scalar shift requires a square operator")
    rop = coerce(op)
    diagonals = (rop.lin.diagonal().copy(), rop.anti.real.diagonal().copy(),
                 rop.anti.imag.diagonal().copy())
    for a in diagonals:
        a.setflags(write=False)
    return (_ShiftFamily(_realified(op)),) + diagonals


def _realified(op: Union[AntilinearOperator, RealLinearOperator]) -> np.ndarray:
    """``realify(op)``, made once per operator (:func:`derived`) and
    read-only, so every reader of one operator shares one matrix."""

    def compute():
        r = realify(op)
        r.setflags(write=False)
        return r

    return derived(op, "realified", compute)


def _shifted_diagonals(op: Composable, lams) -> tuple:
    """``(family, diags)``: the family of realified shifts of ``op`` and,
    for each ``lam`` in ``lams``, the 4n entries ``diags[k]`` (shape ``(4,
    n)``) on the diagonals of the four blocks of ``realify(op - lam)``.

    They are the expressions :func:`realify` evaluates on the shifted
    diagonal ``d = diag(lin) - lam``, so ``family.fill(out, diags[k])`` is
    ``realify(coerce(op).shifted(lams[k]))`` bitwise.  An operator keeps its
    family (:func:`derived`); an ndarray is coerced to a new operator on
    every call, so nothing is kept for it.

    Raises:
        DimensionMismatch: if ``op`` is not square.
    """
    if not isinstance(op, (AntilinearOperator, RealLinearOperator)):
        op = coerce(op)
    family, lin_diag, qr, qi = derived(op, "shift_base", lambda: _shift_base(op))
    n = lin_diag.shape[0]
    # the diagonal of op.shifted(lam).lin for each lam, from the same expression
    d = lin_diag - np.asarray(lams)[:, None] * np.ones(n)
    diags = np.empty((len(d), 4, n))
    np.add(d.real, qr, out=diags[:, 0])
    np.subtract(qi, d.imag, out=diags[:, 1])
    np.add(d.imag, qi, out=diags[:, 2])
    np.subtract(d.real, qr, out=diags[:, 3])
    return family, diags


def realify_shifted(op: Composable, lam: complex) -> np.ndarray:
    """``realify(coerce(op).shifted(lam))``, bitwise.

    An operator is realified once (:func:`derived`); each shift copies that
    matrix and rewrites only the 4n entries on the diagonals of its four
    blocks (:func:`_shifted_diagonals`).

    Raises:
        DimensionMismatch: if ``op`` is not square.
    """
    family, diags = _shifted_diagonals(op, [lam])
    return family.fill(np.empty_like(family.r0), diags[0])


def unrealify(r) -> RealLinearOperator:
    """Inverse of :func:`realify`; every real matrix of even dims is valid."""
    r = np.asarray(r, dtype=float)
    if r.ndim != 2 or r.shape[0] % 2 or r.shape[1] % 2:
        raise DimensionMismatch(f"realified matrix must have even dims, got {r.shape}")
    m, n = r.shape[0] // 2, r.shape[1] // 2
    r11, r12 = r[:m, :n], r[:m, n:]
    r21, r22 = r[m:, :n], r[m:, n:]
    lin = 0.5 * (r11 + r22) + 0.5j * (r21 - r12)
    anti = 0.5 * (r11 - r22) + 0.5j * (r21 + r12)
    return RealLinearOperator(lin, anti)


def op_norm(op: Composable) -> float:
    """Operator norm of a real-linear map (largest singular value of its
    realification)."""
    return spectral_norm(realify(op))

