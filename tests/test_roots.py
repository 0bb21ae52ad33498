"""Root solver: exactness on small cases, multiplicities, and random round trips."""

import math

import numpy as np
import pytest

from sectorlab import (
    ComplexPolynomial,
    DegreeZeroError,
    NonConvergenceError,
    RealPolynomial,
    SectorRootSpec,
    SolverConfig,
    ZeroPolynomialError,
    deflate_origin,
    find_roots,
    find_roots_many,
    from_sector_roots,
)
from sectorlab import roots


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


def _aberth_loop(q, cfg):
    """Reference: the Aberth stage one polynomial at a time, as it ran
    before the stacked kernel; every row of the stack must match it."""
    d = q.size - 1
    radius = float(abs(q[0] / q[-1])) ** (1.0 / d) * cfg.seed_radius_factor
    if not math.isfinite(radius) or radius == 0.0:
        radius = 1.0
    ang = 2.0 * math.pi * np.arange(d) / d + roots._START_OFFSET
    ramp = 0.9 + 0.2 * np.arange(d) / max(1, d - 1)
    z = radius * ramp * np.exp(1j * ang)
    fallback_phase = np.exp(1j * (0.7 + np.arange(d)))
    for _ in range(cfg.max_iterations):
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, np.inf)
        if np.any(diff == 0):
            z = z + radius * 1e-9 * (np.arange(d) + 1.0)
            continue
        pv = np.full_like(z, q[-1])
        dv = np.zeros_like(z)
        for k in range(q.size - 2, -1, -1):
            dv = dv * z + pv
            pv = pv * z + q[k]
        with np.errstate(all="ignore"):
            repulse = (1.0 / diff).sum(axis=1)
            newton = pv / dv
            w = newton / (1.0 - newton * repulse)
            fallback = 0.01 * (np.abs(z) + radius) * fallback_phase
            w = np.where(np.isfinite(w), w,
                         np.where(np.isfinite(newton), newton, fallback))
        z = z - w
        if float((np.abs(w) / np.maximum(1.0, np.abs(z))).max()) \
                <= cfg.convergence_tol:
            break
    return z


def _batch_corpus():
    """Degrees 1-24, real and complex coefficients, origin zeros, repeats."""
    rng = np.random.default_rng(7)
    polys = []
    for deg in range(1, 25):
        reals = tuple(float(v) for v in rng.uniform(0.1, 10.0, deg % 3))
        pairs = tuple((float(a), float(b)) for a, b in
                      rng.uniform(0.1, 3.0, ((deg - deg % 3) // 2, 2)))
        if deg % 3 + 2 * len(pairs) == deg:
            polys.append(from_sector_roots(SectorRootSpec(reals, pairs)))
        polys.append(RealPolynomial(rng.normal(size=deg + 1)))
        polys.append(ComplexPolynomial(rng.normal(size=deg + 1)
                                       + 1j * rng.normal(size=deg + 1)))
        polys.append(RealPolynomial([0.0] * int(rng.integers(1, 4))
                                    + rng.normal(size=deg + 1).tolist()))
    # linear ones share one stacked run here but run on one-element arrays
    # alone, the case where numpy's loops part ways
    polys += [RealPolynomial(c) for c in rng.normal(size=(30, 2))]
    polys += polys[::5]
    polys.append(RealPolynomial([0.0, 0.0, 2.0]))
    polys.append(RealPolynomial([-1.0, 3.0, -3.0, 1.0]))
    return polys


def _bits(result):
    """A solve result with every float as its bit pattern."""
    if isinstance(result, Exception):
        return type(result), str(result)
    locs = np.array([e.location for e in result.zeros], dtype=complex)
    res = np.array([e.residual for e in result.zeros], dtype=float)
    return (result.source_degree, [e.multiplicity for e in result.zeros],
            locs.view(np.float64).tolist(), res.view(np.int64).tolist())


def _solve_alone(p, cfg=None):
    try:
        return find_roots(p, cfg)
    except Exception as exc:
        return exc


def test_find_roots_many_bitwise_equals_lone_solves():
    polys = _batch_corpus()
    batch = find_roots_many(polys)
    assert len(batch) == len(polys)
    assert [_bits(r) for r in batch] == \
        [_bits(_solve_alone(p)) for p in polys]


def test_stacked_aberth_rows_match_the_per_polynomial_loop():
    cfg = SolverConfig()
    by_degree = {}
    for p in _batch_corpus():
        q, _ = deflate_origin(p)
        if q.degree:
            by_degree.setdefault(q.degree, []).append(
                q.coeffs.astype(np.complex128))
    # degree-1 batches of one work on one-element arrays, where numpy can
    # take a loop of its own
    rng = np.random.default_rng(11)
    lone = [[q] for q in rng.normal(size=(40, 2)) + 1j * rng.normal(size=(40, 2))]
    for qs in list(by_degree.values()) + lone:
        stacked = roots._aberth(np.stack(qs), cfg)
        for row, q in zip(stacked, qs):
            assert row.view(np.float64).tolist() == \
                _aberth_loop(q, cfg).view(np.float64).tolist()


def test_stacked_aberth_fallback_and_budget_rows_match_the_loop():
    # a start radius near the underflow threshold sends every row down the
    # fallback branch; a one-sweep budget stops every row unconverged
    qs = [np.array([1.0, 0.0, 0.0, 1.0], dtype=complex),
          np.array([2.0, -3.0, 0.5, 1.0], dtype=complex)]
    for cfg in (SolverConfig(seed_radius_factor=1e-320),
                SolverConfig(max_iterations=1)):
        stacked = roots._aberth(np.stack(qs), cfg)
        for row, q in zip(stacked, qs):
            assert row.view(np.float64).tolist() == \
                _aberth_loop(q, cfg).view(np.float64).tolist()


def test_find_roots_many_returns_failures_in_place():
    good = [RealPolynomial([2.0, -2.0, 1.0]), RealPolynomial([-3.0, 1.0]),
            RealPolynomial([1.0, 0.5])]
    out = find_roots_many([good[0], RealPolynomial([3.0]), good[1]])
    assert isinstance(out[1], DegreeZeroError)
    assert [_bits(out[0]), _bits(out[2])] == \
        [_bits(find_roots(good[0])), _bits(find_roots(good[1]))]

    starved = SolverConfig(max_iterations=1)
    hard = RealPolynomial([5040.0, -13068.0, 13132.0, -6769.0, 1960.0,
                           -322.0, 28.0, -1.0])
    out = find_roots_many([good[1], hard, good[2]], starved)
    assert isinstance(out[1], NonConvergenceError)
    assert [_bits(out[0]), _bits(out[2])] == \
        [_bits(find_roots(good[1], starved)), _bits(find_roots(good[2], starved))]
    assert find_roots_many([]) == []
