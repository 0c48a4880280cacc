"""Spectra of antilinear operators.

For a square antilinear operator the spectrum is a union of circles centered
at the origin: if ``A conj(x) = lambda x`` has a nonzero solution then the
whole circle ``|mu| = |lambda|`` consists of such values (replace ``x`` by
``exp(i theta) x``).  The circle radii are recovered from the eigenvalues of
the linear square ``T^2`` (matrix ``A conj(A)``): ``r`` is a radius exactly
when ``r^2`` is a real nonnegative eigenvalue of ``A conj(A)``.

The definitional membership test stays available as an independent oracle:
``lambda`` belongs to the spectrum iff the real-linear operator
``T - lambda`` fails to be bijective, i.e. iff the smallest singular value
of its realification is (numerically) zero.  In finite dimension a
real-linear map is bijective iff injective, so the spectrum is pure point
spectrum and the continuous and residual parts are empty; see
:data:`CLASSIFICATION_NOTE`.

A probe does only the work that decides its verdict: the operator is
realified once and each ``lambda`` patches the diagonals
(:func:`~antilin.antiop.realify_shifted`), and :func:`spectrum_crosscheck`
lets its prediction pick which certificate of the singularity bracket runs
first and builds and factors one matrix per circle.  The phase law makes
``realify(T - r e^(i theta))`` the rotation ``R realify(T - r) R`` with
``R = realify(e^(i theta/2))``, so the first phase's solve vector or
Cholesky carries over to the others.  Each phase is still proved from its
own entries, which differ from the first phase's only on the diagonals of
the four blocks: a residual or a distance bound for it costs O(d) work
beyond one product per circle.  None of this changes a verdict or a report
byte.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .antiop import AntilinearOperator, _shift_family, realify_shifted
from .errors import DimensionMismatch
from .matkernel import SING_TOL, _phase_verdicts, is_singular

DEDUP_ATOL = 1e-7

CLASSIFICATION_NOTE = (
    "finite dimension: a real-linear map is bijective iff injective, so the "
    "spectrum equals the point spectrum ('is not injective as a real linear' "
    "is the only failure mode) and the continuous and residual spectra are "
    "empty"
)


class SpectrumDescription(NamedTuple):
    """Spectrum of a square antilinear operator.

    Each entry of ``radii`` denotes the full circle ``{lambda : |lambda| =
    r}``; the list is ascending and deduplicated within ``DEDUP_ATOL``.
    ``clamped`` records eigenvalues of ``A conj(A)`` whose slightly negative
    real part was clamped to zero.  ``eigenvalues`` holds every eigenvalue
    of ``A conj(A)`` the radii were read from, in LAPACK order.  The
    spectrum is pure point spectrum (:data:`CLASSIFICATION_NOTE`).
    """

    radii: tuple
    clamped: tuple = ()
    eigenvalues: tuple = ()


def _dedup(values: Sequence[float]) -> tuple:
    out: list[list[float]] = []
    for v in sorted(values):
        if out and v - out[-1][-1] <= DEDUP_ATOL:
            out[-1].append(v)
        else:
            out.append([v])
    return tuple(float(np.mean(c)) for c in out)


def antilinear_spectrum(t: AntilinearOperator, tol: float = SING_TOL) -> SpectrumDescription:
    """Circle radii of the spectrum of a square antilinear operator.

    ``radii = { sqrt(mu) : mu in eig(A conj(A)), |Im mu| <= tol*(1+|mu|),
    Re mu >= -tol }``; eigenvalues with ``-tol < Re mu < 0`` are clamped to
    zero and reported in ``clamped``.
    """
    if t.dim_in != t.dim_out:
        raise DimensionMismatch("spectrum requires a square operator")
    a = t.canon
    eigvals = np.linalg.eigvals(a @ np.conj(a))
    radii = []
    clamped = []
    for mu in eigvals:
        if abs(mu.imag) > tol * (1.0 + abs(mu)):
            continue
        re = mu.real
        if re < -tol:
            continue
        if re < 0.0:
            clamped.append(complex(mu))
            re = 0.0
        radii.append(float(np.sqrt(re)))
    return SpectrumDescription(
        radii=_dedup(radii), clamped=tuple(clamped), eigenvalues=tuple(eigvals),
    )


def is_in_spectrum(t: AntilinearOperator, lam: complex, tol: float = SING_TOL) -> bool:
    """Definitional membership: the real-linear map ``t - lam`` is not
    bijective.

    The verdict is that of comparing the smallest singular value of
    ``realify(t - lam)`` against ``tol * (1 + ||realify(t - lam)||)``;
    :func:`~antilin.matkernel.is_singular` proves it from a Cholesky/solve
    bracket and runs that SVD only when the bracket cannot decide.  The
    matrix comes from :func:`~antilin.antiop.realify_shifted`: an immutable
    operator is realified once, and each probe patches only the shifted
    diagonals.
    """
    return is_singular(realify_shifted(t, lam), tol)


class CrosscheckPoint(NamedTuple):
    """One probed point: a radius, a phase, the circle-algorithm prediction
    and the realification-oracle verdict."""

    radius: float
    phase: float
    predicted_member: bool
    oracle_member: bool

    @property
    def agrees(self) -> bool:
        return self.predicted_member == self.oracle_member


class CrosscheckReport(NamedTuple):
    """Probed points of :func:`spectrum_crosscheck`, with the
    :func:`antilinear_spectrum` they test."""

    spectrum: SpectrumDescription
    points: tuple

    @property
    def disagreements(self) -> tuple:
        return tuple(p for p in self.points if not p.agrees)

    @property
    def members_tested(self) -> int:
        return sum(1 for p in self.points if p.predicted_member)

    @property
    def nonmembers_tested(self) -> int:
        return sum(1 for p in self.points if not p.predicted_member)


def spectrum_crosscheck(
    t: AntilinearOperator, phases: int = 8, tol: float = SING_TOL
) -> CrosscheckReport:
    """Validate the circle algorithm against the membership oracle.

    Probes every reported circle at ``phases`` sampled angles (expected
    member at each angle, which is the phase-invariance content), and the
    midpoint of every gap between consecutive circles plus one radius below
    the smallest positive circle and one beyond the largest (expected
    non-member at each angle).

    Each circle asks the bracket of :func:`~antilin.matkernel.is_singular`
    for the certificate its prediction calls for first: the solve that
    proves "singular" on a circle, the Cholesky that proves "not singular"
    in a gap.  Either certificate proves the SVD verdict, so the prediction
    decides only what a probe costs, never its verdict.  Only phase 0 is
    built as a matrix, in one buffer that every circle reuses, and its one
    factorization serves the whole circle.  Each other phase ``realify(t -
    r e^(i theta))`` is proved from its own 4d diagonal entries and norms
    the operator keeps once: on a circle by the residual of the phase-0
    solve vector rotated by ``e^(-i theta/2)``, in a gap by a Weyl bound
    through a bound on its distance from the rotated phase-0 matrix (both
    derived in :func:`~antilin.matkernel.is_singular`).  A phase that
    neither proves is built in the same buffer and runs its own bracket
    and, where that cannot decide, its own SVD.
    """
    desc = antilinear_spectrum(t, tol=max(tol, SING_TOL))
    radii = list(desc.radii)

    member_radii = list(radii)
    gap_radii = [lo + 0.5 * (hi - lo) for lo, hi in zip(radii, radii[1:])]
    if radii:
        if radii[0] > DEDUP_ATOL:
            gap_radii.append(0.5 * radii[0])
        gap_radii.append(1.5 * radii[-1] + 0.5)
    else:
        gap_radii.extend([0.0, 0.5])

    points = []
    family = _shift_family(t)
    buffer = np.empty_like(family.r0)   # every circle builds its phases here
    for r, expected in [(r, True) for r in member_radii] + [
        (r, False) for r in gap_radii
    ]:
        angles = [0.0] if r <= DEDUP_ATOL else [
            2.0 * np.pi * k / phases for k in range(phases)
        ]
        circle = family.circle([r * np.exp(1j * theta) for theta in angles], angles, buffer)
        verdicts = _phase_verdicts(circle, tol, expected)
        for theta, member in zip(angles, verdicts):
            points.append(
                CrosscheckPoint(
                    radius=float(r),
                    phase=float(theta),
                    predicted_member=expected,
                    oracle_member=member,
                )
            )
    return CrosscheckReport(spectrum=desc, points=tuple(points))
