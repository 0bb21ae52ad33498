"""Root solver: exactness on small cases, multiplicities, and random round trips."""

import math

import numpy as np
import pytest

from sectorlab import (
    DegreeZeroError,
    NonConvergenceError,
    RealPolynomial,
    SectorRootSpec,
    SolverConfig,
    ZeroPolynomialError,
    deflate_origin,
    find_roots,
    from_sector_roots,
)


def expand(zero_set):
    """Zero locations repeated by multiplicity."""
    out = []
    for e in zero_set.zeros:
        out.extend([e.location] * e.multiplicity)
    return out


def greedy_match_error(found, expected):
    """Max distance under greedy nearest pairing; robust to ordering ties."""
    found = list(found)
    worst = 0.0
    for w in expected:
        i = min(range(len(found)), key=lambda j: abs(found[j] - w))
        worst = max(worst, abs(found.pop(i) - w))
    assert not found
    return worst


def test_conjugate_quadratic_is_exact():
    zs = find_roots(RealPolynomial([2.0, -2.0, 1.0]))
    assert [(e.location, e.multiplicity) for e in zs.zeros] == [(1 - 1j, 1), (1 + 1j, 1)]
    assert max(e.residual for e in zs.zeros) == 0.0


def test_origin_zeros_come_from_deflation():
    q, k = deflate_origin(RealPolynomial([0.0, 0.0, 1.0, 1.0]))
    assert k == 2 and q.coeffs.tolist() == [1.0, 1.0]
    zs = find_roots(RealPolynomial([0.0, 0.0, 1.0]))
    assert [(e.location, e.multiplicity) for e in zs.zeros] == [(0j, 2)]
    zs = find_roots(RealPolynomial([0.0, -1.0, 0.0, 1.0]))
    assert [(e.location, e.multiplicity) for e in zs.zeros] == [
        (-1 + 0j, 1), (0j, 1), (1 + 0j, 1)]


def test_triple_root_certified():
    zs = find_roots(RealPolynomial([-1.0, 3.0, -3.0, 1.0]))
    assert len(zs.zeros) == 1
    e = zs.zeros[0]
    assert e.multiplicity == 3
    assert abs(e.location - 1.0) <= 1e-9


def test_conjugate_pair_with_multiplicity_two():
    # (z^2 - 2z + 2)^2
    zs = find_roots(RealPolynomial([4.0, -8.0, 8.0, -4.0, 1.0]))
    assert sorted(e.multiplicity for e in zs.zeros) == [2, 2]
    assert greedy_match_error([e.location for e in zs.zeros], [1 + 1j, 1 - 1j]) <= 1e-9


def test_gauss_image_has_double_root_two_root_two():
    # 0.25 z^2 - sqrt(2) z + 2 = 0.25 (z - 2 sqrt(2))^2
    zs = find_roots(RealPolynomial([2.0, -math.sqrt(2.0), 0.25]))
    assert len(zs.zeros) == 1
    e = zs.zeros[0]
    assert e.multiplicity == 2
    assert e.location.imag == 0.0
    assert abs(e.location.real - 2.0 * math.sqrt(2.0)) <= 1e-9


def test_degree_zero_and_zero_polynomial_rejected():
    with pytest.raises(DegreeZeroError):
        find_roots(RealPolynomial([3.0]))
    with pytest.raises(ZeroPolynomialError):
        find_roots(RealPolynomial([0.0]))


def test_starved_iteration_budget_raises():
    p = RealPolynomial([5040.0, -13068.0, 13132.0, -6769.0, 1960.0, -322.0, 28.0, -1.0])
    with pytest.raises(NonConvergenceError):
        find_roots(p, SolverConfig(max_iterations=1))


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(max_iterations=0)
    with pytest.raises(ValueError):
        SolverConfig(convergence_tol=-1.0)


def test_wilkinson_ten_recovered():
    c = [1.0]
    for k in range(1, 11):
        c = np.convolve(c, [-float(k), 1.0])
    zs = find_roots(RealPolynomial(c.tolist()))
    found = expand(zs)
    assert len(found) == 10
    expected = [complex(k, 0.0) for k in range(1, 11)]
    assert greedy_match_error(found, expected) <= 1e-8
    assert all(e.location.imag == 0.0 for e in zs.zeros)


def test_random_round_trip_recovery():
    rng = np.random.default_rng(20260814)
    for _ in range(120):
        nreal = int(rng.integers(0, 4))
        npair = int(rng.integers(0, 5))
        if nreal + npair == 0:
            npair = 1
        reals = tuple(float(v) for v in np.exp(rng.uniform(np.log(0.1), np.log(10.0), nreal)))
        mags = np.exp(rng.uniform(np.log(0.1), np.log(10.0), npair))
        angs = rng.uniform(0.05, 1.4, npair)
        pairs = tuple((float(m * np.cos(t)), float(m * np.sin(t)))
                      for m, t in zip(mags, angs))
        spec = SectorRootSpec(real_roots=reals, pairs=pairs)
        p = from_sector_roots(spec, lead=float(rng.uniform(0.5, 2.0)))
        zs = find_roots(p)
        found = expand(zs)
        expected = spec.all_roots()
        assert len(found) == len(expected)
        err = greedy_match_error(found, expected)
        scale = max(1.0, max(abs(w) for w in expected))
        # clustered construction roots can be genuinely ill conditioned
        assert err <= 1e-6 * scale


def test_residuals_are_normalized_and_small():
    rng = np.random.default_rng(99)
    for _ in range(40):
        deg = int(rng.integers(1, 13))
        c = rng.normal(size=deg + 1) * 10.0 ** rng.integers(-2, 3)
        if c[-1] == 0.0:
            c[-1] = 1.0
        p = RealPolynomial(c)
        zs = find_roots(p)
        for e in zs.zeros:
            direct = abs(p.eval(e.location))
            bound = p.scale() * max(1.0, abs(e.location)) ** p.degree
            assert direct <= 1e-9 * bound
            assert e.residual <= 1e-9


def test_conjugate_closure_of_reported_zeros():
    rng = np.random.default_rng(4242)
    for _ in range(60):
        deg = int(rng.integers(2, 14))
        c = rng.normal(size=deg + 1)
        if c[-1] == 0.0:
            c[-1] = 1.0
        zs = find_roots(RealPolynomial(c))
        bag = {}
        for e in zs.zeros:
            bag[e.location] = bag.get(e.location, 0) + e.multiplicity
        for z, m in bag.items():
            assert bag.get(z.conjugate(), 0) == m


def test_vieta_sums_hold():
    rng = np.random.default_rng(314)
    for _ in range(40):
        deg = int(rng.integers(2, 11))
        c = rng.normal(size=deg + 1)
        c[-1] = c[-1] if abs(c[-1]) > 0.1 else 1.0
        c[0] = c[0] if abs(c[0]) > 0.1 else 1.0
        p = RealPolynomial(c)
        roots = expand(find_roots(p))
        s = sum(roots)
        prod = 1.0 + 0j
        for z in roots:
            prod *= z
        mag = max(1.0, max(abs(z) for z in roots)) ** deg
        assert abs(s - (-c[-2] / c[-1])) <= 1e-7 * max(1.0, abs(s))
        assert abs(prod - (-1) ** deg * (c[0] / c[-1])) <= 1e-7 * mag


def test_find_roots_is_deterministic():
    p = RealPolynomial([5.0, -3.0, 2.0, -1.0, 1.0, 0.3])
    a = find_roots(p)
    b = find_roots(p)
    assert [(e.location, e.multiplicity, e.residual) for e in a.zeros] == \
           [(e.location, e.multiplicity, e.residual) for e in b.zeros]


def test_zeros_sorted_by_real_then_imaginary():
    zs = find_roots(RealPolynomial([4.0, 0.0, 0.0, 0.0, 1.0]))  # z^4 = -4
    locs = [e.location for e in zs.zeros]
    assert locs == sorted(locs, key=lambda z: (z.real, z.imag))


def test_locations_with_multiplicity_expands():
    zs = find_roots(RealPolynomial([-1.0, 3.0, -3.0, 1.0]))
    assert zs.locations(with_multiplicity=True) == [1 + 0j, 1 + 0j, 1 + 0j]
    assert zs.locations() == [1 + 0j]
