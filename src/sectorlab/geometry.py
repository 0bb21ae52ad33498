"""Sectors and sector-discs in the complex plane.

A sector ``S(theta)`` is the set ``{z : |arg z| <= theta}`` together with the
origin; a double sector additionally folds through the origin.

The sector-disc ``Delta(a, b; alpha)`` attached to a conjugate root pair
``a +/- ib`` (a, b > 0) and a rotation angle alpha is the closed disc with

    center  c = cos(alpha) (a^2 + b^2) / a        (on the real axis)
    radius  r = sqrt(c^2 - a^2 - b^2)

which is declared empty when |sec alpha| >= sec theta, theta = arg(a + ib).
Only cos(alpha) enters, so alpha is first reduced to [0, pi] by taking it
mod 2 pi and reflecting angles above pi.  For reduced angles beyond pi/2 the
center sits on the negative real axis; the disc is still the correct trap
for rotation-blend zeros there, so no positivity of c is imposed.  A pair
whose a^2 + b^2 is not a normal float, or whose disc's center or radius is
not finite, has no disc in floats: DomainError.

A nonempty disc is tangent to the two rays arg z = +/- gamma where
cos(gamma) = cos(theta) sec(alpha), and the tangency points lie on the
circle |z| = sqrt(a^2 + b^2).
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

from .errors import (DomainError, EmptyDiscError, NonpositiveRootPartError,
                     NotInRightHalfPlaneError, OffAxisError, check_number)
from .roots import ZeroSet

__all__ = [
    "SectorDisc",
    "TangencyData",
    "reference_angle",
    "jensen_sector_disc",
    "disc_tangency_data",
    "principal_arg",
    "min_enclosing_sector",
    "min_enclosing_double_sector",
]

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class SectorDisc:
    """Closed disc on the real axis, or an explicit empty state."""

    center: float
    radius: float
    empty: bool = False

    @classmethod
    def empty_disc(cls) -> "SectorDisc":
        return cls(0.0, 0.0, True)


@dataclass(frozen=True)
class TangencyData:
    ray_angle: float
    tangency_modulus: float
    points: tuple


def reference_angle(alpha: float) -> float:
    """Reduce any finite angle to [0, pi]: take mod 2 pi, reflect above pi."""
    a = math.fmod(check_number(alpha, "angle", DomainError), _TWO_PI)
    if a < 0.0:
        a += _TWO_PI
    if a > math.pi:
        a = _TWO_PI - a
    return a


def principal_arg(z: complex) -> float:
    """Argument in (-pi, pi]; the negative real axis maps to +pi."""
    a = cmath.phase(z)
    if a == -math.pi:
        a = math.pi
    return a


def _check_pair(a: float, b: float) -> None:
    if not (check_number(a, "a", NonpositiveRootPartError) > 0.0
            and check_number(b, "b", NonpositiveRootPartError) > 0.0):
        raise NonpositiveRootPartError(
            f"disc requires a > 0 and b > 0, got ({a!r}, {b!r})")


def jensen_sector_disc(a: float, b: float, alpha: float) -> SectorDisc:
    """Sector-disc for the pair a +/- ib at rotation angle alpha."""
    _check_pair(a, b)
    ar = reference_angle(alpha)
    cos_alpha = math.cos(ar)
    mod2 = a * a + b * b
    if sys.float_info.min <= mod2 <= sys.float_info.max:
        cos_theta = a / math.sqrt(mod2)
        # empty exactly when |sec alpha| >= sec theta, i.e. |cos alpha| <= cos theta
        ratio = cos_alpha / cos_theta
        if abs(ratio) <= 1.0:
            return SectorDisc.empty_disc()
        center = cos_alpha * mod2 / a
        radius = math.sqrt(mod2 * (ratio * ratio - 1.0))
        if math.isfinite(center) and math.isfinite(radius):
            return SectorDisc(center, radius, False)
    raise DomainError(f"the disc of a = {a!r}, b = {b!r} leaves the float "
                      f"range (a^2 + b^2 = {mod2!r})")


def disc_tangency_data(disc: SectorDisc, a: float, b: float,
                       alpha: float) -> TangencyData:
    """Tangent-ray angle and tangency points of a nonempty disc."""
    if disc.empty:
        raise EmptyDiscError("an empty disc has no tangency data")
    _check_pair(a, b)
    ar = reference_angle(alpha)
    mod = math.hypot(a, b)
    cos_theta = a / mod
    # near tangency this ratio may round past 1 where the disc's did not
    gamma = math.acos(max(-1.0, min(1.0, cos_theta / math.cos(ar))))
    points = (cmath.rect(mod, gamma), cmath.rect(mod, -gamma))
    return TangencyData(gamma, mod, points)


def _widest_zero(zs: ZeroSet):
    """The largest |arg z| over the nonzero zeros and the first zero that
    attains it; (0.0, None) when every zero is at the origin."""
    theta, widest = 0.0, None
    for z in zs.locations():
        ang = abs(principal_arg(z))
        if z != 0 and (widest is None or ang > theta):
            theta, widest = ang, z
    return theta, widest


def min_enclosing_sector(zs: ZeroSet) -> float:
    """Smallest half-angle whose sector holds every zero; origin zeros ignored."""
    theta, z = _widest_zero(zs)
    if theta >= math.pi / 2.0:
        raise NotInRightHalfPlaneError(
            f"zero {z} lies outside the open right half-plane", offender=z)
    return theta


def min_enclosing_double_sector(zs: ZeroSet) -> float:
    """Smallest folded half-angle; each zero contributes min(|arg z|, pi - |arg z|)."""
    if all(z == 0 for z in zs.locations()):
        raise OffAxisError("no zeros away from the origin to measure")
    theta = 0.0
    for z in zs.locations():
        ang = abs(principal_arg(z))
        theta = max(theta, min(ang, math.pi - ang))
    return theta
