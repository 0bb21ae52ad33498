"""The paper's formulas that only the tests read.

The library computes what its campaigns and its command line report.  The
oracles the tests check it against live here: the modulus identity behind
the sector-disc containment and its sign-carrying bracket, the rotation
blend whose half a cosine image is, the strip bounds of principal
logarithms, sector and disc membership, and the split p = z^k q.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from sectorlab import (DomainError, NotInRightHalfPlaneError, RealPolynomial,
                       SectorDisc, SectorLabError, SolverConfig, find_roots,
                       predicted_sector_after_gauss, principal_arg)
from sectorlab.errors import check_number
from sectorlab.operators import _TRIG_SNAP


# --- the sector-disc identity ------------------------------------------------

def jsd_modulus_identity_check(a: float, b: float, alpha: float,
                               z: complex) -> float:
    """Residual of the modulus identity behind the sector-disc containment.

    With z = x + iy the difference of squared moduli

        |(e^{i alpha} z - a)^2 + b^2|^2 - |(e^{-i alpha} z - a)^2 + b^2|^2

    equals 8 y sin(alpha) [a (a^2+b^2+x^2+y^2) - 2 x (a^2+b^2) cos(alpha)],
    and the sign of the bracket decides disc membership.  Both sides are
    evaluated in extended precision; the return value is
    |lhs - rhs| / max(1, |lhs|, |rhs|).
    """
    for value, name in ((a, "a"), (b, "b"), (alpha, "alpha")):
        check_number(value, name)
    ld = np.longdouble
    aL, bL, alL = ld(a), ld(b), ld(alpha)
    x, y = ld(complex(z).real), ld(complex(z).imag)
    zc = np.clongdouble(complex(z))
    rot = np.clongdouble(np.cos(alL)) + np.clongdouble(1j) * np.clongdouble(np.sin(alL))
    w1 = (rot * zc - aL) ** 2 + bL * bL
    w2 = (np.conj(rot) * zc - aL) ** 2 + bL * bL
    lhs = (w1 * np.conj(w1)).real - (w2 * np.conj(w2)).real
    mod2 = aL * aL + bL * bL
    rhs = (8.0 * y * np.sin(alL)
           * (aL * (mod2 + x * x + y * y) - 2.0 * x * mod2 * np.cos(alL)))
    return float(abs(lhs - rhs) / max(ld(1.0), abs(lhs), abs(rhs)))


def jsd_bracket(a: float, b: float, alpha: float, z: complex) -> float:
    """The sign-carrying factor 8 y sin(alpha) [...] from the identity above."""
    for value, name in ((a, "a"), (b, "b"), (alpha, "alpha")):
        check_number(value, name)
    x, y = complex(z).real, complex(z).imag
    mod2 = a * a + b * b
    return (8.0 * y * math.sin(alpha)
            * (a * (mod2 + x * x + y * y) - 2.0 * x * mod2 * math.cos(alpha)))


# --- the rotation blend ------------------------------------------------------

class ZeroPolynomialResultError(SectorLabError):
    """Every blend coefficient vanished (e.g. beta = lambda + pi, alpha = 0)."""


@dataclass(frozen=True)
class BlendParams:
    alpha: float
    lam: float
    beta: float


def rotation_blend(p: RealPolynomial, bp: BlendParams) -> np.ndarray:
    """The complex128 coefficients, ascending, of
    e^{i lam} p(e^{i alpha} z) + e^{i beta} p(e^{-i alpha} z).

    Blend factors of modulus <= 1e-13 are taken as exact zeros, and trailing
    zero coefficients are stripped, so the degree drops when the leading
    factor vanishes; an all-zero result raises.
    """
    k = np.arange(p.coeffs.size)
    w = np.exp(1j * (bp.lam + k * bp.alpha)) + np.exp(1j * (bp.beta - k * bp.alpha))
    w[np.abs(w) <= 2.0 * _TRIG_SNAP] = 0.0
    out = p.coeffs * w
    nonzero = np.flatnonzero(out)
    if not nonzero.size:
        raise ZeroPolynomialResultError(
            "every blend coefficient vanished (beta - lambda = pi mod 2 pi "
            "combined with the rotation angle)")
    return out[: nonzero[-1] + 1]


# --- strips of principal logarithms ------------------------------------------

def exp_poly_principal_zeros(p: RealPolynomial,
                             config: SolverConfig | None = None) -> list:
    """Principal logarithms of the zeros of p.

    The exponential sum ``sum c_k e^{kz}`` vanishes exactly at the logarithms
    of the zeros of ``sum c_k w^k``; restricting to zeros strictly inside the
    right half-plane keeps every principal logarithm in |Im| < pi/2.
    """
    if p.coeffs[0] == 0.0:
        raise NotInRightHalfPlaneError(
            "p(0) = 0 puts a zero at the origin, which has no logarithm",
            offender=0.0 + 0.0j)
    logs = []
    for e in find_roots(p, config).zeros:
        z = e.location
        if z.real <= 0.0:
            raise NotInRightHalfPlaneError(
                f"zero {z} is not strictly inside the right half-plane",
                offender=z)
        logs.append(cmath.log(z))
    return logs


def predicted_strip_after_gauss(half_width: float, alpha: float) -> float:
    """arccos(min(1, e^{alpha^2/2} cos A)) for principal-zero strips: the
    Gauss sector bound, since Im log z = arg z."""
    if not (0.0 <= check_number(half_width, "strip half-width", DomainError)
            < math.pi / 2.0):
        raise DomainError(f"strip half-width must lie in [0, pi/2), got {half_width!r}")
    return predicted_sector_after_gauss(half_width, alpha)


def bc_strip_bound(half_width: float, alpha: float) -> float:
    """Comparison strip width sqrt(max(A^2 - alpha^2, 0))."""
    check_number(alpha, "alpha", DomainError)
    if check_number(half_width, "strip half-width", DomainError) < 0.0:
        raise DomainError(f"strip half-width must be >= 0, got {half_width!r}")
    return math.sqrt(max(half_width * half_width - alpha * alpha, 0.0))


def min_enclosing_strip(points) -> float:
    """Smallest half-width |Im| strip containing the given points."""
    pts = list(points)
    if not pts:
        raise SectorLabError("cannot measure a strip from no points")
    return max(abs(complex(p).imag) for p in pts)


# --- sector and disc membership ----------------------------------------------

@dataclass(frozen=True)
class Sector:
    """Closed sector |arg z| <= half_angle, 0 <= half_angle < pi/2."""

    half_angle: float

    def __post_init__(self):
        if not (0.0 <= self.half_angle < math.pi / 2.0):
            raise SectorLabError(
                f"sector half-angle {self.half_angle!r} outside [0, pi/2)")


def in_sector(z: complex, sector: Sector, tol: float = 1e-9) -> bool:
    """Membership with tolerance measured in angle space; 0 is in every sector."""
    if z == 0:
        return True
    return abs(principal_arg(z)) <= sector.half_angle + tol


def in_double_sector(z: complex, sector: Sector, tol: float = 1e-9) -> bool:
    return in_sector(z, sector, tol) or in_sector(-z, sector, tol)


def in_disc(z: complex, disc: SectorDisc, tol: float = 1e-9) -> bool:
    """Disc membership with tolerance tol * max(1, |z|); empty contains nothing."""
    if disc.empty:
        return False
    return abs(z - disc.center) <= disc.radius + tol * max(1.0, abs(z))


# --- origin zeros ------------------------------------------------------------

def deflate_origin(p: RealPolynomial):
    """Split p(z) = z^k q(z) with q(0) != 0; returns (q, k)."""
    k = int(np.flatnonzero(p.coeffs)[0])
    return RealPolynomial(p.coeffs[k:]), k
