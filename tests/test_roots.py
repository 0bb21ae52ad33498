"""Root solver: exactness on small cases, multiplicities, and random round trips."""

import cmath
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
from sectorlab.poly import _horner


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
    with pytest.raises(ValueError):
        SolverConfig(residual_accept=math.nan)


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
            locs.view(np.int64).tolist(), res.view(np.int64).tolist())


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


def _polish_loop(q, z):
    """Reference: Newton polish as it ran before the stacked finish."""
    c = q.tolist()
    for _ in range(8):
        pv, dv = _horner(c, z)
        apv = abs(pv)
        if apv == 0.0 or dv == 0:
            break
        step = pv / dv
        cand = z - step
        if abs(_horner(c, cand)[0]) >= apv:
            break
        z = cand
        if abs(step) <= 1e-16 * max(1.0, abs(z)):
            break
    return z


def _inclusion_loop(q, zs):
    """Reference: one polynomial's sorted iterates and inclusion radii."""
    order = np.lexsort((zs.imag, zs.real))
    z = zs[order]
    pv, _ = roots._eval_many(q, z)
    diff = z[:, None] - z[None, :]
    np.fill_diagonal(diff, 1.0)
    prods = np.abs(diff).prod(axis=1)
    with np.errstate(all="ignore"):
        incl = z.size * np.abs(pv / q[-1]) / prods
    incl = np.where(np.isfinite(incl), incl, np.inf)
    return z, np.minimum(incl, 0.05 * np.maximum(1.0, np.abs(z)))


def _cluster_loop(q, zs, cfg):
    """Reference: cluster merging one polynomial at a time, with a pair
    loop over numpy scalars and numpy means."""
    z, incl = _inclusion_loop(q, zs)
    n = z.size
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            dist = abs(z[i] - z[j])
            lim = max(cfg.cluster_tol * max(1.0, abs(z[i]), abs(z[j])),
                      incl[i] + incl[j])
            if dist <= lim:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    clusters = []
    for key in sorted(groups):
        members = z[groups[key]]
        span = 0.0
        for i in range(members.size):
            for j in range(i + 1, members.size):
                span = max(span, abs(members[i] - members[j]))
        clusters.append((complex(members.mean()), members.size, span))
    clusters.sort(key=lambda t: (t[0].real, t[0].imag))
    return clusters


def _finish_loop(c, q, k0, iterates, cfg):
    """Reference: polish, cluster, refine, snap, pair and certify one
    polynomial's iterates, as the finish stage ran before it was stacked."""
    degree = c.size - 1
    entries = []
    if iterates is not None:
        iterates = np.array([_polish_loop(q, complex(v)) for v in iterates])
        raw = [(roots._refine_cluster(q, ctr, m, span, cfg), m)
               for ctr, m, span in _cluster_loop(q, iterates, cfg)]
        raw = [(roots._snapped(z, cfg.real_snap_tol), m) for z, m in raw]
        if bool(np.all(c.imag == 0.0)):
            raw = roots._pair_conjugates(raw, cfg)
            roots._assert_conjugate_closed(raw)
        entries.extend(raw)
    if k0 > 0:
        entries.append((0.0 + 0.0j, k0))
    cl = c.tolist()
    scale = float(np.max(np.abs(c)))
    finished = []
    worst = (-1.0, 0.0 + 0.0j)
    for z, m in entries:
        res = abs(_horner(cl, z)[0]) / (scale * max(1.0, abs(z)) ** degree)
        finished.append(roots.ZeroEntry(z, m, res))
        if res > worst[0]:
            worst = (res, z)
    if worst[0] > cfg.residual_accept:
        raise NonConvergenceError("residual above the acceptance threshold",
                                  location=worst[1], residual=worst[0])
    finished.sort(key=lambda e: (e.location.real, e.location.imag))
    return roots.ZeroSet(tuple(finished), degree)


def _solve_loop(p, cfg):
    """Reference solve: the lone Aberth row, then ``_finish_loop``."""
    c = p.coeffs.astype(complex)
    k0 = int(np.flatnonzero(c)[0])
    q = c[k0:]
    try:
        iterates = roots._aberth(q[None, :], cfg)[0] if q.size > 1 else None
        return _finish_loop(c, q, k0, iterates, cfg)
    except Exception as exc:
        return exc


def _finish_corpus():
    """Multiple roots, close simple roots around cluster_tol, and linear
    polynomials, beside the batch corpus."""
    polys = [RealPolynomial(np.poly(zs)[::-1]) for zs in
             ([1.0, 1.0, 1.0], [2.0, 2.0, -1.0], [0.5, 0.5, 0.5, 3.0, 3.0],
              [1 + 1j, 1 - 1j, 1 + 1j, 1 - 1j], [-1.0, -1.0, 0.25, 0.25, 4.0])]
    polys.append(RealPolynomial([2.0, -math.sqrt(2.0), 0.25]))
    tol = SolverConfig().cluster_tol
    for x in (1.0, 3.0, 0.2):
        for f in (0.5, 0.9, 0.99, 1.0, 1.01, 1.1, 2.0, 10.0):
            delta = f * tol * max(1.0, x)
            polys.append(RealPolynomial(np.poly([x, x + delta, -2.0])[::-1]))
            polys.append(ComplexPolynomial(
                np.poly([x + 1j, x + 1j + delta * 1j])[::-1]))
    rng = np.random.default_rng(5)
    polys += [RealPolynomial(c) for c in rng.normal(size=(10, 2))]
    polys += [ComplexPolynomial(c) for c in
              rng.normal(size=(10, 2)) + 1j * rng.normal(size=(10, 2))]
    return polys


def test_stacked_finish_matches_the_per_polynomial_loop():
    cfg = SolverConfig()
    polys = _batch_corpus() + _finish_corpus()
    expected = [_bits(_solve_loop(p, cfg)) for p in polys]
    assert [_bits(r) for r in find_roots_many(polys, cfg)] == expected
    # degree-1 batches of one
    linear = [i for i, p in enumerate(polys) if deflate_origin(p)[0].degree == 1]
    assert len(linear) > 40
    assert [_bits(find_roots_many([polys[i]], cfg)[0]) for i in linear] == \
        [expected[i] for i in linear]


def test_stacked_inclusion_radii_match_the_per_polynomial_loop():
    cfg = SolverConfig()
    by_degree = {}
    for p in _batch_corpus() + _finish_corpus():
        q = deflate_origin(p)[0].coeffs.astype(complex)
        if q.size > 1:
            by_degree.setdefault(q.size - 1, []).append(q)
    for qs in list(by_degree.values()) + [[q] for q in by_degree[1]]:
        Q = np.stack(qs)
        Z = np.array([[_polish_loop(q, complex(v)) for v in row]
                      for q, row in zip(qs, roots._aberth(Q, cfg))])
        z, incl = roots._inclusion_radii(Q, Z)
        for q, zs, zr, ir in zip(qs, Z, z, incl):
            want_z, want_incl = _inclusion_loop(q, zs)
            assert zr.view(np.int64).tolist() == want_z.view(np.int64).tolist()
            assert ir.view(np.int64).tolist() == \
                want_incl.view(np.int64).tolist()


def test_stacked_finish_keeps_signed_zeros_of_singletons():
    # iterates on exact roots survive polishing unchanged, so the centres of
    # these singleton clusters are the means of signed zeros
    cfg = SolverConfig()
    cases = [
        (RealPolynomial([1.0, 0.0, 1.0]), [complex(-0.0, 1.0), complex(-0.0, -1.0)]),
        (RealPolynomial([-2.0, 1.0]), [complex(2.0, -0.0)]),
        (ComplexPolynomial([-1j, 1.0]), [complex(-0.0, 1.0)]),
        (ComplexPolynomial([1.0, 1j]), [complex(-0.0, 1.0)]),
        (ComplexPolynomial([1j, 1.0]), [complex(-0.0, -1.0)]),
        (ComplexPolynomial([0.0, -1j, 1.0]), [complex(-0.0, 1.0)]),
        (RealPolynomial([-1.0, 0.0, 0.0, 0.0, 1.0]),
         [complex(-1.0, -0.0), complex(-0.0, -1.0), complex(-0.0, 1.0),
          complex(1.0, -0.0)]),
    ]
    for p, zs in cases:
        c = p.coeffs.astype(complex)
        k0 = int(np.flatnonzero(c)[0])
        q = c[k0:]
        iterates = np.array([zs])
        got = roots._finish_many(q[None, :], [(c, k0)], iterates, cfg)[0]
        assert _bits(got) == _bits(_finish_loop(c, q, k0, iterates[0], cfg))


def test_singleton_mean_is_numpys_mean_bitwise():
    parts = [0.0, -0.0, 1.5, -2.25, 5e-324, -1e-310, 1e308, -1e308,
             math.inf, -math.inf, math.nan]
    for re in parts:
        for im in parts:
            z = complex(re, im)
            with np.errstate(all="ignore"):
                want = complex(np.array([z]).mean())
            with np.errstate(all="ignore"):
                got = np.array([roots._mean([z])])
            assert got.view(np.int64).tolist() == \
                np.array([want]).view(np.int64).tolist()


def test_near_pairs_hold_every_pair_the_exact_test_merges():
    # pairs a few ulps either side of the merge limit, once with the
    # inclusion radii setting the limit and once with cluster_tol setting it
    rng = np.random.default_rng(3)
    eps = np.finfo(float).eps
    tol = SolverConfig().cluster_tol
    rows, radii = [], []
    for k in range(-4, 5):
        for phi in rng.uniform(0.0, 2.0 * math.pi, 40):
            zi = complex(*rng.uniform(-2.0, 2.0, 2))
            zj = zi + 0.01 * cmath.exp(1j * phi)
            half = abs(zi - zj) * (1.0 + k * eps) / 2.0
            rows.append([zi, zj])
            radii.append([half, half])
            # |z| < 1, so the limit is cluster_tol itself
            zi = complex(*rng.uniform(-1e-8, 1e-8, 2))
            rows.append([zi, zi + tol * (1.0 + k * eps) * cmath.exp(1j * phi)])
            radii.append([0.0, 0.0])
    near = roots._near_pairs(np.array(rows), np.array(radii), tol)
    merged = [roots._close(zi, zj, ri, rj, tol)
              for (zi, zj), (ri, rj) in zip(rows, radii)]
    assert 0 < sum(merged) < len(merged)
    assert all(near[r, 0, 1] for r, m in enumerate(merged) if m)
    assert not near[:, 1, 0].any() and not near[:, 0, 0].any()


def test_a_failing_finish_is_its_own_entry(monkeypatch):
    # residual: |z|^40 overflows a float for the root 1e10 of z^39 (z - 1e10)
    huge = RealPolynomial([0.0] * 39 + [-1e10, 1.0])
    with pytest.raises(OverflowError):
        find_roots(huge)
    good = [RealPolynomial([-3.0, 1.0]), RealPolynomial([2.0, 0.5])]
    out = find_roots_many([good[0], huge, good[1]])
    assert isinstance(out[1], OverflowError)
    assert [_bits(out[0]), _bits(out[2])] == [_bits(find_roots(p)) for p in good]

    # polish: a stand-in that overflows near the root 7 of one polynomial
    polish = roots._polish

    def overflowing(q, z):
        if abs(z - 7.0) < 1e-6:
            raise OverflowError("absolute value too large")
        return polish(q, z)

    lone = [_bits(find_roots(p)) for p in good]
    monkeypatch.setattr(roots, "_polish", overflowing)
    bad = RealPolynomial([-7.0, 1.0])
    out = find_roots_many([good[0], bad, good[1]])
    assert isinstance(out[1], OverflowError)
    assert [_bits(out[0]), _bits(out[2])] == lone
