"""The real-linear (P, Q) algebra: an independent oracle for the tests.

A real-linear map ``x -> P x + Q conj(x)`` is the pair ``(P, Q)``; a linear
map is ``(M, 0)`` and an antilinear operator with canonical matrix ``A`` is
``(0, A)``.  The pairs close compositions and differences of linear and
antilinear maps:

  ``(P1, Q1) o (P2, Q2) = (P1 P2 + Q1 conj(Q2), P1 Q2 + Q1 conj(P2))``,

and a pair acts on stacked ``(Re x; Im x)`` coordinates as

  ``[[Re P + Re Q, -Im P + Im Q], [Im P + Im Q, Re P - Re Q]]``.

The package itself composes maps of one parity on their canonical matrices
and realifies antilinear operators directly.  These formulas state the
general algebra once, apart from the code it checks: the realified block
complements, the bitwise realification and shift of an operator, and the
parity products are each compared with them.
"""

import numpy as np

from antilin.antiop import AntilinearOperator
from antilin.errors import DimensionMismatch
from antilin.matkernel import spectral_norm


class RealLinearOperator:
    """Real-linear map ``x -> lin @ x + anti @ conj(x)``."""

    def __init__(self, lin, anti):
        self.lin = np.array(lin, dtype=complex)
        self.anti = np.array(anti, dtype=complex)
        if self.lin.ndim != 2 or self.lin.shape != self.anti.shape:
            raise DimensionMismatch(
                f"linear part {self.lin.shape} and antilinear part {self.anti.shape} differ"
            )

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
        return self.lin @ x + self.anti @ np.conj(x)

    def __sub__(self, other) -> "RealLinearOperator":
        other = coerce(other)
        return RealLinearOperator(self.lin - other.lin, self.anti - other.anti)

    def shifted(self, mu: complex) -> "RealLinearOperator":
        """``self - mu``: the diagonal of the linear part becomes ``diag(lin)
        - mu`` and every other entry is kept bitwise, a ``-0.0`` included."""
        if self.dim_in != self.dim_out:
            raise DimensionMismatch("scalar shift requires a square operator")
        lin = self.lin.copy()
        np.fill_diagonal(lin, lin.diagonal() - mu * np.ones(self.dim_in))
        return RealLinearOperator(lin, self.anti)


def coerce(op) -> RealLinearOperator:
    """The pair of a pair, an antilinear operator or a linear matrix."""
    if isinstance(op, RealLinearOperator):
        return op
    if isinstance(op, AntilinearOperator):
        return RealLinearOperator.from_antilinear(op)
    return RealLinearOperator.from_linear(op)


def compose(f, g) -> RealLinearOperator:
    """``f o g`` (g applied first)."""
    f, g = coerce(f), coerce(g)
    if f.dim_in != g.dim_out:
        raise DimensionMismatch(f"inner dimensions differ: {f.dim_in} vs {g.dim_out}")
    return RealLinearOperator(f.lin @ g.lin + f.anti @ np.conj(g.anti),
                              f.lin @ g.anti + f.anti @ np.conj(g.lin))


def realify(op) -> np.ndarray:
    """The real 2m x 2n matrix of ``op``, the block formula verbatim."""
    op = coerce(op)
    pr, pi = op.lin.real, op.lin.imag
    qr, qi = op.anti.real, op.anti.imag
    return np.block([[pr + qr, -pi + qi], [pi + qi, pr - qr]])


def unrealify(r) -> RealLinearOperator:
    """The pair of a real matrix of even dims: the inverse of :func:`realify`."""
    r = np.asarray(r, dtype=float)
    m, n = r.shape[0] // 2, r.shape[1] // 2
    r11, r12, r21, r22 = r[:m, :n], r[:m, n:], r[m:, :n], r[m:, n:]
    return RealLinearOperator(0.5 * (r11 + r22) + 0.5j * (r21 - r12),
                              0.5 * (r11 - r22) + 0.5j * (r21 + r12))


def op_norm(op) -> float:
    """Operator norm: the largest singular value of the realification."""
    return spectral_norm(realify(op))
