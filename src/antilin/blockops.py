"""Antilinear 2x2 block operator matrices and their complements.

A block matrix ``[[A, B], [F, E]]`` with purely antilinear entries acts on
``C^n (+) C^m``.  Resolvents such as ``(A - mu)^{-1}`` are real-linear, not
complex-linear, so they are computed by inverting the realification and
reinterpreting the result as a (P, Q) pair; the complement formulas then
live entirely in the real-linear algebra:

* Schur complements
  ``S2(mu) = E - mu - F (A - mu)^{-1} B``      (pivot A - mu),
  ``S1(mu) = A - mu - B (E - mu)^{-1} F``      (pivot E - mu),
* quadratic complements
  ``T2(mu) = B - (A - mu) F^{-1} (E - mu)``    (pivot F),
  ``T1(mu) = F - (E - mu) B^{-1} (A - mu)``    (pivot B).

S1 and T1 of ``[[A, B], [F, E]]`` are S2 and T2 of the swapped matrix
``[[E, F], [B, A]]``, so the code states each formula once, in its S2 or T2
form, and evaluates S1 and T1 on the blocks read in the order E, F, B, A.

Each complement comes with a factorization of the full block matrix into
unitriangular outer factors and a diagonal or antidiagonal middle factor;
in finite dimension these are exact operator identities, verified by
:func:`factorization_residual`.  The spectral correspondences (the spectrum
of the block matrix away from the pivot spectrum equals the zero set of the
complement family) are exercised pointwise by :func:`correspondence_scan`,
and the rank bookkeeping of the factorization at ``mu = 0`` by
:func:`rank_link`.  The scan, :func:`rank_link` and the CLI evaluate every
complement through :func:`complement`, the module's one evaluator.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .antiop import (
    AntilinearOperator,
    RealLinearOperator,
    _realified,
    compose,
    derived,
    realify,
    unrealify,
)
from .errors import DimensionMismatch, PivotSingular
from .matkernel import (
    SING_TOL,
    is_singular,
    singular_values,
    singularity,
    spectral_norm,
)
from .spectra import is_in_spectrum

SELECTORS = ("S1", "S2", "T1", "T2")
# rank_link ranks every matrix against RANK_FLOOR_RTOL * (1 + ||realify(blk)||)
RANK_FLOOR_RTOL = 1e-10


@dataclass(frozen=True, eq=False)
class BlockAntilinearMatrix:
    """Blocks a (n x n), b (n x m), f (m x n), e (m x m), all antilinear."""

    a: AntilinearOperator
    b: AntilinearOperator
    f: AntilinearOperator
    e: AntilinearOperator

    def __post_init__(self):
        n, m = self.a.dim_in, self.e.dim_in
        if self.a.dim_out != n:
            raise DimensionMismatch("block a must be square")
        if self.e.dim_out != m:
            raise DimensionMismatch("block e must be square")
        if self.b.canon.shape != (n, m):
            raise DimensionMismatch(f"block b must be {n}x{m}")
        if self.f.canon.shape != (m, n):
            raise DimensionMismatch(f"block f must be {m}x{n}")

    @property
    def n(self) -> int:
        return self.a.dim_in

    @property
    def m(self) -> int:
        return self.e.dim_in

    def flatten(self) -> AntilinearOperator:
        """The (n+m) x (n+m) antilinear operator with the block canonical
        matrix; entrywise conjugation is block compatible, so the block
        assembly of the four canonical matrices is the canonical matrix of
        the assembled operator.  Made once per block: every caller gets the
        same operator, and so the same realification."""
        return self._flat

    @cached_property
    def _flat(self) -> AntilinearOperator:
        top = np.hstack([self.a.canon, self.b.canon])
        bot = np.hstack([self.f.canon, self.e.canon])
        return AntilinearOperator(np.vstack([top, bot]))

    @property
    def flat_realified(self) -> np.ndarray:
        """``realify(self.flatten())``, made on first use and read-only:
        :attr:`flat_singular_values`, every :func:`factorization_residual`
        of this block and the shift base of the flat membership probes of
        :func:`correspondence_scan` read the same matrix."""
        return _realified(self.flatten())

    @cached_property
    def _real(self) -> tuple:
        """The four blocks as real-linear operators ``(a, b, f, e)``,
        converted once per block."""
        return tuple(
            RealLinearOperator.from_antilinear(x) for x in (self.a, self.b, self.f, self.e)
        )

    @cached_property
    def flat_singular_values(self) -> np.ndarray:
        """Singular values of :attr:`flat_realified`, descending, from one
        SVD made on first use: :func:`rank_link` ranks the flat matrix with
        them and the CLI reads the flat norm from ``[0]``."""
        s = singular_values(self.flat_realified)
        s.setflags(write=False)  # shared by every reader of this block
        return s


def _min_singular(op: RealLinearOperator) -> float:
    """Smallest singular value of ``realify(op)``, from one SVD per operator
    (:func:`~antilin.antiop.derived`): the value a :class:`PivotSingular`
    names and :attr:`ComplementResult.pivot_condition` reports."""
    return derived(op, "min_singular", lambda: singularity(_realified(op))[0])


def _inverse(op: RealLinearOperator, tol: float) -> Optional[RealLinearOperator]:
    """The inverse of a square ``op``, or None for "singular"."""
    r = _realified(op)
    if not is_singular(r, tol):
        try:
            return unrealify(np.linalg.inv(r))
        except np.linalg.LinAlgError:
            pass
    return None


def invert_real_linear(
    op: RealLinearOperator, pivot_name: str = "operator", tol: float = SING_TOL
) -> RealLinearOperator:
    """Inverse of a bijective real-linear operator via its realification.

    The pivot test is :func:`~antilin.matkernel.is_singular` on
    ``realify(op)``, then LU, which can still find the matrix singular when
    ``tol`` is 0 or tiny (a smallest singular value far below ``eps *
    ||realify(op)||`` passes the test); that counts as singular too.  The
    outcome is kept on ``op`` per ``tol`` (:func:`~antilin.antiop.derived`),
    so an operator is tested and inverted once, and a singular one is named
    with its smallest singular value from one SVD.

    Raises:
        PivotSingular: when the smallest singular value of the
            realification is at or below ``tol * (1 + ||realify(op)||)``,
            or LU finds the realification singular.
    """
    if op.dim_in != op.dim_out:
        raise DimensionMismatch(f"{pivot_name} must be square to invert")
    inv = derived(op, ("inverse", tol), lambda: _inverse(op, tol))
    if inv is None:
        raise PivotSingular(pivot_name, _min_singular(op))
    return inv


@dataclass(frozen=True, eq=False)
class ComplementResult:
    """A Schur or quadratic complement evaluated at ``mu``, with its pivot
    and the pivot's inverse."""

    op: RealLinearOperator
    selector: str
    mu: complex
    pivot: RealLinearOperator
    pivot_inverse: RealLinearOperator

    @property
    def pivot_condition(self) -> float:
        """Smallest singular value of ``realify(pivot)``, from one SVD made
        on first access per pivot: the complements of one block at every
        mu share its F and B pivots, and with them this value."""
        return _min_singular(self.pivot)


def _oriented(blocks: tuple, selector: str) -> tuple:
    """``(schur, swapped, (a, b, f, e))`` for a selector.

    ``schur`` tells a Schur complement (S2, S1) from a quadratic one (T2,
    T1).  S1 and T1 of ``[[A, B], [F, E]]`` are S2 and T2 of ``[[E, F],
    [B, A]]``, so for them ``swapped`` is true and the blocks come back in
    the order ``(e, f, b, a)``; the complement formulas are then written
    once, in their S2 and T2 form.
    """
    if selector not in SELECTORS:
        raise ValueError(f"unknown selector {selector!r}; expected one of {SELECTORS}")
    swapped = selector in ("S1", "T1")
    a, b, f, e = blocks
    return selector[0] == "S", swapped, ((e, f, b, a) if swapped else blocks)


def complement(
    blk: BlockAntilinearMatrix,
    selector: str,
    mu: complex,
    tol: float = SING_TOL,
) -> ComplementResult:
    """Evaluate the selected complement of ``blk`` at ``mu``.

    The pivot is ``A - mu``, ``E - mu``, ``F`` or ``B``.  F and B do not
    depend on mu, and a block hands out one operator object for each, so
    :func:`invert_real_linear` tests and inverts each once per block and
    ``tol``; a singular one raises at every mu, naming the same smallest
    singular value.

    Raises:
        PivotSingular: when the pivot that must be inverted is singular
            (names the pivot and its smallest singular value).
        DimensionMismatch: as :func:`invert_real_linear`.
        ValueError: when ``selector`` is not one of :data:`SELECTORS`.
    """
    mu = complex(mu)
    schur, swapped, (a, b, f, e) = _oriented(blk._real, selector)
    if schur:
        pivot = a.shifted(mu)
        inv = invert_real_linear(pivot, "E - mu" if swapped else "A - mu", tol)
        op = e.shifted(mu) - compose(f, compose(inv, b))
    else:
        pivot = f
        inv = invert_real_linear(pivot, "B" if swapped else "F", tol)
        op = b - compose(a.shifted(mu), compose(inv, e.shifted(mu)))
    return ComplementResult(
        op=op, selector=selector, mu=mu, pivot=pivot, pivot_inverse=inv
    )


def _block2(op11, op12, op21, op22) -> RealLinearOperator:
    lin = np.block([[op11.lin, op12.lin], [op21.lin, op22.lin]])
    anti = np.block([[op11.anti, op12.anti], [op21.anti, op22.anti]])
    return RealLinearOperator(lin, anti)


def factorization_residual(blk: BlockAntilinearMatrix, comp: ComplementResult) -> float:
    """Residual ``||realify(blk) - realify(mu + L . mid . R)||`` of the
    factorization associated with a complement of ``blk`` (its selector,
    ``mu`` and pivot inverse).

    The Schur complements S2/S1 sit in a diagonal middle factor, the
    quadratic complements T2/T1 in an antidiagonal one; the outer factors
    are unitriangular with real-linear off-diagonal entries.  In finite
    dimension the identity is exact, so the residual is pure floating-point
    noise.
    """
    schur, swapped, (a, b, f, e) = _oriented(blk._real, comp.selector)
    mu, inv = comp.mu, comp.pivot_inverse
    n, m = a.dim_in, e.dim_in
    i_n = RealLinearOperator.identity(n)
    i_m = RealLinearOperator.identity(m)
    z_nm = RealLinearOperator.zero(n, m)
    z_mn = RealLinearOperator.zero(m, n)
    # (x11, x12, x21, x22) of the left, middle and right factors of S2 or T2
    if schur:
        factors = (
            (i_n, z_nm, compose(f, inv), i_m),
            (a.shifted(mu), z_nm, z_mn, comp.op),
            (i_n, compose(inv, b), z_mn, i_m),
        )
    else:
        factors = (
            (i_n, compose(a.shifted(mu), inv), z_mn, i_m),
            (RealLinearOperator.zero(n, n), comp.op, f, RealLinearOperator.zero(m, m)),
            (i_n, compose(inv, e.shifted(mu)), z_mn, i_m),
        )
    # swapped blocks: [[x11, x12], [x21, x22]] of [[E, F], [B, A]] sits in
    # [[A, B], [F, E]] as [[x22, x21], [x12, x11]]
    left, mid, right = (_block2(*(x[::-1] if swapped else x)) for x in factors)

    rhs = compose(left, compose(mid, right)).shifted(-mu)
    return spectral_norm(blk.flat_realified - realify(rhs))


@dataclass(frozen=True)
class ScanEntry:
    mu: complex
    selector: str
    member_block: Optional[bool]
    member_complement: Optional[bool]
    skipped_reason: Optional[str] = None

    @property
    def skipped(self) -> bool:
        return self.skipped_reason is not None

    @property
    def agrees(self) -> bool:
        return self.skipped or self.member_block == self.member_complement


@dataclass(frozen=True)
class ScanReport:
    entries: tuple

    @property
    def disagreements(self) -> tuple:
        return tuple(e for e in self.entries if not e.agrees)

    @property
    def agreements(self) -> int:
        return sum(1 for e in self.entries if not e.skipped and e.agrees)

    @property
    def skipped(self) -> int:
        return sum(1 for e in self.entries if e.skipped)

    @property
    def ok(self) -> bool:
        return not self.disagreements


def correspondence_scan(
    blk: BlockAntilinearMatrix, samples: Sequence[complex], tol: float = SING_TOL
) -> ScanReport:
    """Pointwise spectral correspondence between the block matrix and its
    complements.

    For each sample ``mu`` and each selector whose pivot is invertible at
    ``mu``: membership of ``mu`` in the spectrum of the flattened block
    matrix must coincide with membership of 0 in the spectrum of the
    complement.  In finite dimension that is also the point-spectrum
    (nontrivial kernel) correspondence, see
    :data:`~antilin.spectra.CLASSIFICATION_NOTE`.  Samples whose pivot is
    singular are skipped with the reason kept in the entry.

    Both memberships are the verdict of comparing a smallest singular value
    with ``tol * (1 + norm)``, decided by
    :func:`~antilin.matkernel.is_singular` (an SVD only where its bracket
    cannot decide).  The flat membership probes share the block's one
    realification of the flattened matrix
    (:func:`~antilin.antiop.realify_shifted`).  Each complement is evaluated
    by :func:`complement`, as in every other caller, so each pivot is
    tested, inverted and conditioned once per operator object: the
    mu-independent pivots F (T2) and B (T1) once per block and ``tol``, and
    a singular one is skipped at every mu with the same reason.
    """
    flat = blk.flatten()
    entries = []
    for mu in samples:
        mu = complex(mu)
        in_flat = is_in_spectrum(flat, mu, tol)
        for sel in SELECTORS:
            try:
                comp = complement(blk, sel, mu, tol)
            except (PivotSingular, DimensionMismatch) as exc:
                entries.append(
                    ScanEntry(
                        mu=mu, selector=sel,
                        member_block=None, member_complement=None,
                        skipped_reason=str(exc),
                    )
                )
                continue
            entries.append(
                ScanEntry(
                    mu=mu, selector=sel,
                    member_block=in_flat,
                    member_complement=is_singular(realify(comp.op), tol),
                )
            )
    return ScanReport(entries=tuple(entries))


def samples_for_radii(
    radii: Sequence[float], rng: np.random.Generator, random_count: int = 50
) -> list:
    """Deterministic scan grid derived from the circle radii of a flattened
    spectrum (ascending, as :func:`~antilin.spectra.antilinear_spectrum`
    gives them): 8 points on each circle, 4 on each between-circle midpoint
    circle, and ``random_count`` uniform random points in a bounding disk.
    Uniform sampling alone almost never lands on the measure-zero spectrum,
    so the on-circle points are what exercises the member branch.
    """
    radii = list(radii)
    samples: list[complex] = []
    for r in radii:
        if r <= 1e-9:
            samples.append(0j)
            continue
        for k in range(8):
            samples.append(r * np.exp(2j * np.pi * k / 8))
    gap_radii = [0.5 * (lo + hi) for lo, hi in zip(radii, radii[1:])]
    if radii:
        if radii[0] > 1e-7:
            gap_radii.append(0.5 * radii[0])
        gap_radii.append(1.5 * radii[-1] + 0.5)
    else:
        gap_radii.append(0.5)
    for r in gap_radii:
        for k in range(4):
            samples.append(r * np.exp(2j * np.pi * (k + 0.5) / 4))
    rmax = (radii[-1] if radii else 1.0) * 1.5 + 1.0
    for _ in range(random_count):
        z = rng.uniform(-rmax, rmax) + 1j * rng.uniform(-rmax, rmax)
        samples.append(complex(z))
    return samples


@dataclass(frozen=True)
class RankLinkReport:
    """Rank bookkeeping from the factorizations at mu = 0.

    With 0 in the resolvent set of the pivot, the outer factors are
    invertible, so ``rank(realify(blk)) = 2n + rank(realify(S2(0)))`` (and
    dually ``2m + rank(realify(S1(0)))`` when E is invertible).
    ``f_rel_bound`` records ``||F A^{-1}||``, the constant that makes the
    relative bound of F by A automatic in finite dimension.
    """

    rank_flat: int
    rank_s2: Optional[int]
    primal_holds: Optional[bool]
    rank_s1: Optional[int]
    dual_holds: Optional[bool]
    f_rel_bound: Optional[float]


def rank_link(blk: BlockAntilinearMatrix, tol: float = SING_TOL) -> RankLinkReport:
    """Check the rank identities extracted from the mu = 0 factorizations.

    Rank decisions for both sides use one scale-aware cutoff
    ``RANK_FLOOR_RTOL * (1 + ||realify(blk)||)`` so that engineered zero
    complements are counted correctly.

    Raises:
        PivotSingular: when ``realify(A)`` is singular (the primal identity
            is the required one; the dual is reported when E is invertible).
    """
    s = blk.flat_singular_values
    floor = RANK_FLOOR_RTOL * (1.0 + float(s[0]))
    rank_flat = int(np.count_nonzero(s > floor))

    try:
        s2 = complement(blk, "S2", 0.0, tol)  # its pivot A - 0 is A itself
    except PivotSingular as exc:
        raise PivotSingular("A", exc.min_singular) from None
    rank_s2 = int(np.count_nonzero(singular_values(realify(s2.op)) > floor))
    primal = rank_flat == 2 * blk.n + rank_s2
    f_rel = spectral_norm(realify(compose(blk._real[2], s2.pivot_inverse)))

    rank_s1: Optional[int] = None
    dual: Optional[bool] = None
    try:
        s1 = complement(blk, "S1", 0.0, tol)
    except PivotSingular:
        pass
    else:
        rank_s1 = int(np.count_nonzero(singular_values(realify(s1.op)) > floor))
        dual = rank_flat == 2 * blk.m + rank_s1

    return RankLinkReport(
        rank_flat=rank_flat,
        rank_s2=rank_s2,
        primal_holds=primal,
        rank_s1=rank_s1,
        dual_holds=dual,
        f_rel_bound=f_rel,
    )
