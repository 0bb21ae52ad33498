"""Sector-disc geometry: construction, tangency, membership, enclosures."""

import cmath
import math
import re

import numpy as np
import pytest

from sectorlab import (
    DomainError,
    EmptyDiscError,
    NonpositiveRootPartError,
    NotInRightHalfPlaneError,
    OffAxisError,
    RealPolynomial,
    SectorDisc,
    SectorLabError,
    disc_tangency_data,
    find_roots,
    jensen_sector_disc,
    min_enclosing_double_sector,
    min_enclosing_sector,
    principal_arg,
    reference_angle,
)

from paper import (Sector, in_disc, in_double_sector, in_sector,
                   min_enclosing_strip)

# Delta(1, 1; pi/8), computed from the closed forms
_DISC_CENTER = 1.8477590650225735
_DISC_RADIUS = 1.1892071150027212
_TANGENT_ANGLE = 0.6991851645410239
_TANGENT_POINT = 1.082392200292394 + 0.9101797211244549j


def test_reference_angle_reduction():
    assert reference_angle(0.3) == 0.3
    assert math.isclose(reference_angle(0.3 + 2 * math.pi), 0.3, abs_tol=1e-15)
    assert math.isclose(reference_angle(-0.3), 0.3, abs_tol=1e-15)
    assert math.isclose(reference_angle(math.pi + 0.5), math.pi - 0.5, abs_tol=1e-15)
    assert 0.0 <= reference_angle(123.456) <= math.pi


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
def test_non_finite_angles_raise_domain_error(alpha):
    with pytest.raises(DomainError):
        reference_angle(alpha)
    with pytest.raises(DomainError):
        jensen_sector_disc(1.0, 1.0, alpha)


def test_an_angle_that_is_not_a_number_raises_domain_error():
    with pytest.raises(DomainError, match="angle must be a number"):
        jensen_sector_disc(1.0, 1.0, "x")


def test_principal_arg_negative_axis_maps_up():
    assert principal_arg(-1.0 + 0j) == math.pi
    assert principal_arg(complex(-1.0, -0.0)) == math.pi
    assert principal_arg(1j) == math.pi / 2.0


def test_sector_and_strip_validation():
    with pytest.raises(SectorLabError):
        Sector(-0.1)
    with pytest.raises(SectorLabError):
        Sector(math.pi / 2.0)


def test_disc_oracle_values():
    d = jensen_sector_disc(1.0, 1.0, math.pi / 8.0)
    assert not d.empty
    assert math.isclose(d.center, _DISC_CENTER, rel_tol=1e-14)
    assert math.isclose(d.radius, _DISC_RADIUS, rel_tol=1e-14)
    # r^2 = c^2 - (a^2 + b^2)
    assert math.isclose(d.radius**2, d.center**2 - 2.0, rel_tol=1e-12)


def test_disc_angle_only_matters_mod_reduction():
    base = jensen_sector_disc(1.0, 1.0, math.pi / 8.0)
    for alpha in (-math.pi / 8.0, math.pi / 8.0 + 2 * math.pi, -math.pi / 8.0 - 4 * math.pi):
        d = jensen_sector_disc(1.0, 1.0, alpha)
        assert math.isclose(d.center, base.center, rel_tol=1e-12)
        assert math.isclose(d.radius, base.radius, rel_tol=1e-12)


def test_disc_empty_iff_secant_condition():
    # theta = pi/4; |cos alpha| <= cos theta means empty
    assert jensen_sector_disc(1.0, 1.0, math.pi / 3.0).empty
    assert jensen_sector_disc(1.0, 1.0, math.pi / 4.0 + 0.01).empty
    assert jensen_sector_disc(1.0, 1.0, math.pi / 2.0).empty
    assert not jensen_sector_disc(1.0, 1.0, 0.1).empty
    # the exact boundary alpha = theta collapses the radius
    d = jensen_sector_disc(1.0, 1.0, math.pi / 4.0)
    assert d.empty or d.radius <= 1e-7


def test_disc_center_can_be_negative():
    # theta = pi/3, alpha = 3pi/4: center cos(alpha) * 4 = -2 sqrt(2)
    d = jensen_sector_disc(1.0, math.sqrt(3.0), 3.0 * math.pi / 4.0)
    assert not d.empty
    assert math.isclose(d.center, -2.0 * math.sqrt(2.0), rel_tol=1e-12)
    assert math.isclose(d.radius, 2.0, rel_tol=1e-12)
    assert math.isclose(d.radius**2, d.center**2 - 4.0, rel_tol=1e-12)


def test_disc_rejects_nonpositive_pair_parts():
    for a, b in ((0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -1.0)):
        with pytest.raises(NonpositiveRootPartError):
            jensen_sector_disc(a, b, 0.3)


@pytest.mark.parametrize("a,b,alpha", [
    (1e160, 1e160, 0.1),    # a^2 + b^2 overflows
    (1e300, 1.0, 0.0),
    (1e-162, 1e-162, 0.0),  # a^2 + b^2 underflows to 0
    (1e-160, 1e-160, 0.0),  # a^2 + b^2 is subnormal
    (1e-10, 1e150, 0.0),    # the center and radius overflow
])
def test_a_disc_past_the_float_range_raises_domain_error(a, b, alpha):
    with pytest.raises(DomainError, match=re.escape(f"a = {a!r}, b = {b!r}")):
        jensen_sector_disc(a, b, alpha)


def test_tangency_oracle():
    d = jensen_sector_disc(1.0, 1.0, math.pi / 8.0)
    t = disc_tangency_data(d, 1.0, 1.0, math.pi / 8.0)
    assert math.isclose(t.ray_angle, _TANGENT_ANGLE, rel_tol=1e-14)
    assert math.isclose(t.tangency_modulus, math.sqrt(2.0), rel_tol=1e-15)
    assert abs(t.points[0] - _TANGENT_POINT) <= 1e-14
    assert abs(t.points[1] - _TANGENT_POINT.conjugate()) <= 1e-14
    # tangency points sit on the disc boundary and on the rays
    for pt in t.points:
        assert abs(abs(pt - d.center) - d.radius) <= 1e-12
        assert math.isclose(abs(principal_arg(pt)), t.ray_angle, rel_tol=1e-12)


def test_tangency_identity_random_pairs():
    rng = np.random.default_rng(20260814)
    checked = 0
    while checked < 200:
        a = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
        b = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
        alpha = float(rng.uniform(0.0, math.pi))
        d = jensen_sector_disc(a, b, alpha)
        if d.empty:
            continue
        t = disc_tangency_data(d, a, b, alpha)
        assert abs(abs(d.center * math.sin(t.ray_angle)) - d.radius) <= 1e-12 * d.radius
        assert math.isclose(t.tangency_modulus, math.hypot(a, b), rel_tol=1e-15)
        checked += 1


def test_tangency_data_near_tangency():
    # alpha just inside theta = arg(a + ib): the radius tends to 0, below
    # the agreement of |c sin gamma| with it to 1e-12, and the ratio
    # cos theta / cos alpha may round to just above 1
    rng = np.random.default_rng(20261019)
    checked = 0
    while checked < 400:
        a = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
        b = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
        theta = math.atan2(b, a)
        alpha = theta * (1.0 - 10.0 ** rng.uniform(-16.0, -6.0))
        d = jensen_sector_disc(a, b, alpha)
        if d.empty:
            continue
        t = disc_tangency_data(d, a, b, alpha)
        assert 0.0 <= t.ray_angle <= theta
        for pt in t.points:
            assert math.isclose(abs(pt), math.hypot(a, b), rel_tol=1e-15)
        checked += 1


def test_tangency_requires_nonempty_disc():
    with pytest.raises(EmptyDiscError):
        disc_tangency_data(SectorDisc.empty_disc(), 1.0, 1.0, 0.1)


def test_sector_membership():
    s = Sector(math.pi / 4.0)
    assert in_sector(1 + 1j, s, tol=1e-12)
    assert in_sector(0j, s)
    assert not in_sector(1j, s)
    assert not in_sector(-1 + 0j, s)
    assert in_double_sector(-1 - 1j, s, tol=1e-12)
    assert not in_double_sector(1j, s)


def test_disc_membership_tolerance_scales_with_magnitude():
    d = SectorDisc(10.0, 1.0)
    assert in_disc(10.5 + 0j, d, tol=0.0)
    assert not in_disc(11.0 + 1e-6j, d, tol=0.0)
    assert in_disc(11.0000001 + 0j, d, tol=1e-7)
    assert not in_disc(0j, SectorDisc.empty_disc(), tol=100.0)


def test_min_enclosing_sector():
    zs = find_roots(RealPolynomial([2.0, -2.0, 1.0]))
    assert math.isclose(min_enclosing_sector(zs), math.pi / 4.0, rel_tol=1e-12)
    zs = find_roots(RealPolynomial([2.0, -3.0, 1.0]))
    assert min_enclosing_sector(zs) == 0.0


def test_min_enclosing_sector_ignores_origin():
    zs = find_roots(RealPolynomial([0.0, 2.0, -2.0, 1.0]))
    assert math.isclose(min_enclosing_sector(zs), math.pi / 4.0, rel_tol=1e-12)


def test_min_enclosing_sector_rejects_left_half_plane():
    zs = find_roots(RealPolynomial([1.0, 0.0, 1.0]))  # z = +/- i
    with pytest.raises(NotInRightHalfPlaneError):
        min_enclosing_sector(zs)
    zs = find_roots(RealPolynomial([1.0, 1.0]))  # z = -1
    with pytest.raises(NotInRightHalfPlaneError):
        min_enclosing_sector(zs)


def test_min_enclosing_double_sector_folds():
    zs = find_roots(RealPolynomial([1.0, 1.0]))  # z = -1
    assert min_enclosing_double_sector(zs) == 0.0
    zs = find_roots(RealPolynomial([1.0, 0.0, 1.0]))  # z = +/- i
    assert math.isclose(min_enclosing_double_sector(zs), math.pi / 2.0, rel_tol=1e-12)
    zs = find_roots(RealPolynomial([4.0, 0.0, 0.0, 0.0, 1.0]))  # z^4 = -4
    assert math.isclose(min_enclosing_double_sector(zs), math.pi / 4.0, rel_tol=1e-12)


def test_min_enclosing_double_sector_needs_offaxis_zero():
    zs = find_roots(RealPolynomial([0.0, 0.0, 1.0]))  # z^2, only the origin
    with pytest.raises(OffAxisError):
        min_enclosing_double_sector(zs)


def test_min_enclosing_strip():
    assert min_enclosing_strip([1 + 2j, 3 - 0.5j, 4.0]) == 2.0
    assert min_enclosing_strip([1.0, -7.0]) == 0.0
    with pytest.raises(SectorLabError):
        min_enclosing_strip([])


def test_disc_traps_nonreal_blend_zeros_of_its_pair():
    # non-real zeros of e^{i lam} p(e^{i alpha} z) + e^{-i lam} p(e^{-i alpha} z)
    # for p with the single pair a +/- ib land inside Delta(a, b; alpha);
    # real blend zeros may fall anywhere on the axis
    rng = np.random.default_rng(5150)
    from paper import BlendParams, rotation_blend

    checked = 0
    while checked < 100:
        a = float(rng.uniform(0.2, 3.0))
        b = float(rng.uniform(0.2, 3.0))
        alpha = float(rng.uniform(0.0, 1.5))
        lam = float(rng.uniform(-math.pi, math.pi))
        d = jensen_sector_disc(a, b, alpha)
        if d.empty:
            continue
        p = RealPolynomial([a * a + b * b, -2.0 * a, 1.0])
        f = rotation_blend(p, BlendParams(alpha=alpha, lam=lam, beta=-lam))
        for z in np.roots(f[::-1]):
            if abs(z.imag) <= 1e-10 * max(1.0, abs(z)):
                continue
            assert in_disc(complex(z), d, tol=1e-9)
            checked += 1
