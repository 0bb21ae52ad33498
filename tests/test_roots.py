"""Root solver: exactness on small cases, multiplicities, and random round trips."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from sectorlab import (
    DegreeZeroError,
    NonConvergenceError,
    PolyGenSpec,
    RealPolynomial,
    SectorLabError,
    SectorRootSpec,
    SolverConfig,
    ZeroPolynomialError,
    draw_sector_spec,
    find_roots,
    find_roots_many,
    from_sector_roots,
    verify_theorem,
)
from sectorlab import roots
from sectorlab.poly import _horner

from paper import deflate_origin

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


def test_starved_iteration_budget_raises(monkeypatch):
    p = RealPolynomial([5040.0, -13068.0, 13132.0, -6769.0, 1960.0, -322.0, 28.0, -1.0])
    monkeypatch.setattr(roots, "_MAX_ITERATIONS", 1)
    with pytest.raises(NonConvergenceError):
        find_roots(p)


def test_solver_config_validation():
    for bad in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError):
            SolverConfig(residual_accept=bad)
    # not a number: a SectorLabError, not the bare TypeError of comparing it
    for bad in ("1e-9", None):
        with pytest.raises(SectorLabError, match="must be a number"):
            SolverConfig(residual_accept=bad)
    assert SolverConfig(residual_accept=math.inf).residual_accept == math.inf


def test_unpaired_nonreal_entry_fails_the_solve_there():
    # 1+1j has no conjugate mate within reach, and is too far from the axis
    # to snap: the finish fails at that entry, before any residual
    q = np.array([2.0, -2.0, 1.0])
    clusters = [(1 + 1j, 1, 0.0, 0.0), (2 - 1j, 1, 0.0, 0.0)]
    with pytest.raises(NonConvergenceError,
                       match="conjugate symmetry") as info:
        roots._finish(q, 0, clusters, SolverConfig())
    assert info.value.location == 1 + 1j
    # the stacked finish leaves such a row to the scalar finish
    w = np.array([[1 + 1j, 2 - 1j]])
    left = roots._pair_stacked(w, np.abs(w), np.zeros(w.shape))
    assert left.tolist() == [True]
    # an entry within _ORPHAN_SNAP of the axis is snapped instead
    entries = roots._pair_conjugates([(2 + 1e-7j, 1), (1 + 1j, 1),
                                      (1 - 1j, 1)], [0.0, 0.0, 0.0])
    assert entries == [(2 + 0j, 1), (1 + 1j, 1), (1 - 1j, 1)]


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


def _is_backward_error(c, z, r):
    """Whether r is |p(z)| / sum_k |c_k| |z|^k for the real coefficients c,
    up to the rounding of a float evaluation: |r - r*| <= 8 (d + 1) u (1 + r),
    where r* takes p(z) and the sum exactly in rationals at the float z,
    with |z| the float abs(z).  Comparing squares keeps it rational."""
    x, y, a = Fraction(z.real), Fraction(z.imag), Fraction(abs(z))
    pre = pim = s = Fraction(0)
    for ck in reversed([Fraction(v) for v in c]):
        pre, pim = pre * x - pim * y + ck, pre * y + pim * x
        s = s * a + abs(ck)
    r = Fraction(r)
    tol = 8 * len(c) * Fraction(2) ** -53 * (1 + r)
    lo = max(r - tol, Fraction(0)) * s
    return lo * lo <= pre * pre + pim * pim <= ((r + tol) * s) ** 2


def test_lone_and_stacked_residuals_are_the_backward_error():
    # solved zeros, lone and batched, of polynomials with and without
    # origin zeros: the residual of a zero of z^k q(z) is taken on q, which
    # is the backward error of p, since |z|^k cancels
    rng = np.random.default_rng(17)
    polys = []
    for _ in range(30):
        deg = int(rng.integers(1, 11))
        c = rng.normal(size=deg + 1) * 10.0 ** rng.integers(-2, 3)
        polys.append(RealPolynomial([0.0] * int(rng.integers(0, 4)) + list(c)))
    checked = 0
    for p, alone, batched in zip(polys, map(find_roots, polys),
                                 find_roots_many(polys)):
        c = p.coeffs.tolist()
        for e in alone.zeros + batched.zeros:
            if e.location == 0:
                assert e.residual == 0.0
            else:
                assert _is_backward_error(c, e.location, e.residual)
                checked += 1
    assert checked > 200
    # crafted points off the zeros, where |p(z)| is near the sum and the old
    # max_k |c_k| max(1, |z|)^d normalization differs from it: the stacked
    # finish of a group and the scalar finish of each row alone
    cfg = SolverConfig(residual_accept=math.inf)
    Q = rng.normal(size=(6, 5)) * 10.0 ** rng.integers(-2, 3, size=(6, 1))
    pts = [-3.0, 0.5, 2 + 1.5j, 2 - 1.5j]
    iterates = np.array([[v * (1 + 0.5 * r) for v in pts] for r in range(6)])
    group = roots._finish_many(Q, [0] * 6, iterates, cfg)
    for r, result in enumerate(group):
        lone = roots._finish_many(Q[r:r + 1], [0], iterates[r:r + 1], cfg)[0]
        assert _bits(lone) == _bits(result)
        for e in result.zeros:
            assert e.residual > 1e-6
            assert _is_backward_error(Q[r].tolist(), e.location, e.residual)


@pytest.mark.parametrize("accept", [1e-9, math.inf])
def test_a_stacked_row_whose_sum_overflows_fails_the_gate(monkeypatch,
                                                          accept):
    # sum |c_k| |z|^k overflows at every crafted iterate of 1 + 1e300 z^4:
    # the residual is NaN, which no threshold passes.  The stacked finish
    # leaves the row, and the scalar finish fails it
    cfg = SolverConfig(residual_accept=accept)
    quartic = np.poly([0.5, 3.0, 1 + 2j, 1 - 2j])[::-1].real
    Q = np.array([[1.0, 0.0, 0.0, 0.0, 1e300], quartic])
    iterates = np.concatenate((
        [[1e5 + 1e5j, 1e5 - 1e5j, -1e5 + 1e5j, -1e5 - 1e5j]],
        roots._aberth(Q[1:])[0]))
    stacked = []
    finish = roots._finish_stacked

    def spied(*args):
        out = finish(*args)
        stacked.extend(out)
        return out

    monkeypatch.setattr(roots, "_finish_stacked", spied)
    group = roots._finish_many(Q, [0, 0], iterates, cfg)
    assert stacked[0] is None and isinstance(stacked[1], roots.ZeroSet)
    assert isinstance(group[0], NonConvergenceError)
    assert "carries residual nan above" in str(group[0])
    assert math.isnan(group[0].residual)
    assert _bits(group[1]) == _bits(stacked[1])


def test_zeros_a_float_apart_by_600_orders_are_found():
    # the old normalization's max(1, |z|)^2 overflowed at 1e300
    zs = find_roots(RealPolynomial([1.0, -1e300, 1.0]))
    assert [(e.location, e.multiplicity, e.residual) for e in zs.zeros] == \
        [(1e-300 + 0j, 1, 0.0), (1e300 + 0j, 1, 0.0)]


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


@np.errstate(all="ignore")
def _aberth_loop(q):
    """Reference: the Aberth stage one polynomial at a time, as it ran
    before the stacked kernel; every row of the stack must match it.
    Returns the iterates and the number of sweeps run."""
    d = q.size - 1
    radius = float(abs(q[0] / q[-1])) ** (1.0 / d)
    if not math.isfinite(radius) or radius == 0.0:
        radius = 1.0
    ang = 2.0 * math.pi * np.arange(d) / d + roots._START_OFFSET
    ramp = 0.9 + 0.2 * np.arange(d) / max(1, d - 1)
    z = radius * ramp * np.exp(1j * ang)
    fallback_phase = np.exp(1j * (0.7 + np.arange(d)))
    quiet_for = 0
    for sweep in range(roots._MAX_ITERATIONS):
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, np.inf)
        if np.any(diff == 0):
            z = z + radius * 1e-9 * (np.arange(d) + 1.0)
            quiet_for = 0
            continue
        pv = np.full_like(z, q[-1])
        dv = np.zeros_like(z)
        for k in range(q.size - 2, -1, -1):
            dv = dv * z + pv
            pv = pv * z + q[k]
        repulse = (1.0 / diff).sum(axis=1)
        newton = pv / dv
        w = newton / (1.0 - newton * repulse)
        fallback = 0.01 * (np.abs(z) + radius) * fallback_phase
        w = np.where(np.isfinite(w), w,
                     np.where(np.isfinite(newton), newton, fallback))
        rel = float((np.abs(w) / np.maximum(1.0, np.abs(z - w))).max())
        # the backward-error bound 4 d u sum |c_k| |z|^k, at z before the step
        mag = np.full(d, abs(q[-1]))
        for k in range(q.size - 2, -1, -1):
            mag = mag * np.abs(z) + abs(q[k])
        floor = bool((np.isfinite(mag)
                      & (np.abs(pv) <= 4.0 * d * 2.0 ** -53 * mag)).all())
        quiet = floor and rel <= roots._STALL_TOL
        if floor and not quiet and sweep >= roots._ISOLATION_SWEEP:
            # pairwise disjoint inclusion discs stand in for the step guard;
            # |p(z)| is taken as at least u sum |c_k| |z|^k
            gap = np.abs(diff)
            near = gap.copy()
            np.fill_diagonal(near, 1.0)
            disc = d * np.maximum(np.abs(pv), 2.0 ** -53 * mag) / \
                abs(q[-1]) / near.prod(axis=1)
            quiet = bool((gap > disc[:, None] + disc[None, :]).all())
        quiet_for = quiet_for + 1 if quiet else 0
        z = z - w
        if rel <= roots._CONVERGENCE_TOL or quiet_for >= roots._STALL_SWEEPS:
            return z, sweep + 1
    return z, roots._MAX_ITERATIONS


# two polynomials of the benchmark's solve pool (published generator, seed 42)
# #316: simple zeros 3.48+-5.64i, 8.36, 8.40 and 8.91, too ill-conditioned
# for the Aberth step to reach _CONVERGENCE_TOL
_POOL_316 = [-27502.5527305989, 14000.812274977567, -3280.6818050395773,
             442.022846588222, -32.62474523313958, 1.0]
# #132: 12 simple zeros, 2.12+-0.33i to 7.06; its iterates stall on the
# noise floor with relative steps above _STALL_TOL
_POOL_132 = [11932243.706975004, -38636853.33611559, 56795794.41221308,
             -50128820.514329225, 29595828.656724546, -12317368.943053385,
             3706570.0600216603, -812809.215255907, 128937.34024552106,
             -14431.614757315137, 1081.9129717441213, -48.77702078108254,
             1.0]
# #360: 16 simple zeros, four of them within 0.01 of 1.152
_POOL_360 = [31677.170318196942, -329505.32222228387, 1572883.855339971,
             -4570059.566068915, 9037946.362300403, -12885564.681466438,
             13681284.806547271, -11016363.983018946, 6784768.668138929,
             -3198736.0875064693, 1147147.5433519783, -308543.54781501193,
             60763.16367059848, -8431.3972096827, 773.8330245879635,
             -41.81410658775698, 1.0]


def _sweeps(coeffs):
    """The Aberth sweeps of one lone solve of ``coeffs``."""
    _, sweeps = roots._aberth(np.array([coeffs]))
    return int(sweeps[0])


def test_a_stalled_row_leaves_at_its_noise_floor():
    # its relative step settles between 1e-12 and 1e-9; on the step test
    # alone it ran all _MAX_ITERATIONS sweeps
    assert 0 < _sweeps(_POOL_316) <= 30
    zs = find_roots(RealPolynomial(_POOL_316))
    assert [e.multiplicity for e in zs.zeros] == [1] * 5
    assert max(e.residual for e in zs.zeros) <= 1e-12


def test_isolated_zeros_leave_at_their_noise_floor(monkeypatch):
    # the step guard alone holds this row for the whole budget; its
    # inclusion discs come apart as soon as the isolation test may run
    assert 0 < _sweeps(_POOL_132) <= \
        roots._ISOLATION_SWEEP + roots._STALL_SWEEPS
    zs = find_roots(RealPolynomial(_POOL_132))
    assert [e.multiplicity for e in zs.zeros] == [1] * 12
    monkeypatch.setattr(roots, "_ISOLATION_SWEEP", roots._MAX_ITERATIONS)
    assert _sweeps(_POOL_132) == roots._MAX_ITERATIONS


def test_multiple_zeros_never_pass_the_isolation_test(monkeypatch):
    # even with the test open from the first sweep, the discs of a triple
    # zero and of a double conjugate pair never come apart; a |p(z)| that
    # rounds to 0 must not shrink a disc to a point
    passed = []
    real = roots._isolated

    def recorded(*args):
        out = real(*args)
        passed.extend(out.tolist())
        return out

    monkeypatch.setattr(roots, "_isolated", recorded)
    monkeypatch.setattr(roots, "_ISOLATION_SWEEP", 0)
    for coeffs, mults in (([-1.0, 3.0, -3.0, 1.0], [3]),
                          ([4.0, -8.0, 8.0, -4.0, 1.0], [2, 2])):
        passed.clear()
        zs = find_roots(RealPolynomial(coeffs))
        assert len(passed) > 100 and not any(passed)
        assert [e.multiplicity for e in zs.zeros] == mults


def test_close_simple_zeros_are_not_merged_by_the_stall_exit():
    # their iterates meet the backward-error bound well before the steps
    # settle; were that enough to stop, the cluster stage would merge the
    # four zeros near 1.152 into one of multiplicity 4.  Their inclusion
    # discs overlap at the noise floor, so the isolation exit holds them too
    zs = find_roots(RealPolynomial(_POOL_360))
    assert [e.multiplicity for e in zs.zeros] == [1] * 16
    near = [e.location for e in zs.zeros if abs(e.location - 1.152) < 0.02]
    assert len(near) == 4


# the benchmark's solve pool at seed 13, #273: 14 simple zeros, with close
# pairs near 7.56 and 7.72 whose conjugate mates land 0.017 apart
_POOL13_273 = [51467034690.06947, -131759441681.6749, 154899333748.29935,
               -110871058982.10817, 53994974114.23815, -18933457212.42188,
               4931382651.736729, -969546279.6476618, 144645147.2931967,
               -16301045.621424282, 1366518.8189697037, -82658.296484452,
               3411.482303527202, -86.01865462607809, 1.0]


def test_conjugate_mates_pair_within_their_inclusion_discs():
    # the mates are farther apart than _PAIR_RADIUS * max(1, |z|), ~0.0077,
    # but closer than the sum of their inclusion radii
    zs = find_roots(RealPolynomial(_POOL13_273))
    assert [e.multiplicity for e in zs.zeros] == [1] * 14
    bag = {e.location for e in zs.zeros}
    assert {z.conjugate() for z in bag} == bag
    # every residual is on Aberth's noise floor, the backward error 4 d u
    assert max(e.residual for e in zs.zeros) <= 4 * 14 * 2.0 ** -53


# the benchmark's solve pool at seed 4, #129: 14 simple zeros, two of them
# real and 0.027 apart near 4.5, which unpolished iterates would merge
_POOL4_129 = [397173.051924186, -6013806.587524837, 27024556.667115305,
              -59301698.15581249, 76194670.08275896, -63337199.922410235,
              36151796.12947847, -14678942.934083814, 4319751.759680142,
              -926078.0835563181, 143435.12035124964, -15652.600805188666,
              1142.7213551472994, -50.132574837506375, 1.0]


def test_close_real_zeros_whose_discs_may_merge_are_polished_apart():
    zs = find_roots(RealPolynomial(_POOL4_129))
    assert [e.multiplicity for e in zs.zeros] == [1] * 14
    real = [e.location.real for e in zs.zeros if e.location.imag == 0.0]
    assert [x for x in real if abs(x - 4.5) < 0.05] == \
        [pytest.approx(4.4885, abs=1e-4), pytest.approx(4.5151, abs=1e-4)]


def _pool(seed):
    """The 400 polynomials of the benchmark's solve workload."""
    gen = PolyGenSpec(seed=seed, deg_hi=16, theta=1.4)
    return [from_sector_roots(draw_sector_spec(
        gen, np.random.default_rng([seed, i]))) for i in range(400)]


# without polishing, seed 13's #273 loses conjugate symmetry and seed 4's
# #129 merges two simple zeros (which keeps the count; see above)
@pytest.mark.parametrize("seed", [42, 7, 4, 13])
def test_every_solve_of_the_benchmark_pool_counts_its_degree(seed):
    # with the benchmark's check
    for p in _pool(seed):
        zs = find_roots(p)
        assert sum(e.multiplicity for e in zs.zeros) == p.degree
        assert zs.source_degree == p.degree


def test_only_rows_whose_discs_may_merge_are_polished(monkeypatch):
    calls = []
    polish = roots._polish

    def counted(q, z):
        calls.append(z)
        return polish(q, z)

    monkeypatch.setattr(roots, "_polish", counted)
    find_roots_many(_pool(42))
    verify_theorem("zsro", PolyGenSpec(seed=42, deg_hi=16, theta=1.4),
                   trials=100)
    assert calls == []
    find_roots(RealPolynomial(_POOL4_129))
    assert len(calls) == 14


def test_batched_rows_without_merge_pairs_skip_the_scalar_finish(monkeypatch):
    calls = []
    finish = roots._finish

    def counted(*args):
        calls.append(args)
        return finish(*args)

    monkeypatch.setattr(roots, "_finish", counted)
    pool = _pool(42)
    find_roots_many(pool)
    verify_theorem("zsro", PolyGenSpec(seed=42, deg_hi=16, theta=1.4),
                   trials=100)
    assert calls == []
    # a lone solve takes the scalar finish
    for p in pool[:3]:
        find_roots(p)
    assert len(calls) == 3


def _batch_corpus():
    """Degrees 1-24, coefficients spread over many orders of magnitude,
    origin zeros, repeats."""
    rng = np.random.default_rng(7)
    polys = []
    for deg in range(1, 25):
        reals = tuple(float(v) for v in rng.uniform(0.1, 10.0, deg % 3))
        pairs = tuple((float(a), float(b)) for a, b in
                      rng.uniform(0.1, 3.0, ((deg - deg % 3) // 2, 2)))
        if deg % 3 + 2 * len(pairs) == deg:
            polys.append(from_sector_roots(SectorRootSpec(reals, pairs)))
        polys.append(RealPolynomial(rng.normal(size=deg + 1)))
        c, e = rng.normal(size=(2, deg + 1))
        polys.append(RealPolynomial(c * np.exp2(20.0 * e)))
        polys.append(RealPolynomial([0.0] * int(rng.integers(1, 4))
                                    + rng.normal(size=deg + 1).tolist()))
    # linear ones share one stacked run here but run on one-element arrays
    # alone, the case where numpy's loops part ways
    polys += [RealPolynomial(c) for c in rng.normal(size=(30, 2))]
    polys += polys[::5]
    # monomials: a batch of them has no zero left to solve
    polys += [RealPolynomial([0.0, 0.0, 2.0]),
              RealPolynomial([0.0] * 4 + [-1.5])]
    polys.append(RealPolynomial([-1.0, 3.0, -3.0, 1.0]))
    # rows that stop on their noise floor, on the step guard or on disjoint
    # inclusion discs, and one that runs the budget
    polys += [RealPolynomial(c) for c in (_POOL_316, _POOL_132, _POOL_360)]
    return polys


def _bits(result):
    """A solve result with every float as its bit pattern."""
    if isinstance(result, Exception):
        return type(result), str(result)
    locs = np.array([e.location for e in result.zeros], dtype=complex)
    res = np.array([e.residual for e in result.zeros], dtype=float)
    return (result.source_degree, [e.multiplicity for e in result.zeros],
            locs.view(np.int64).tolist(), res.view(np.int64).tolist())


def _solve_alone(p):
    try:
        return find_roots(p)
    except Exception as exc:
        return exc


def test_find_roots_many_bitwise_equals_lone_solves():
    polys = _batch_corpus()
    batch = find_roots_many(polys)
    assert len(batch) == len(polys)
    assert [_bits(r) for r in batch] == \
        [_bits(_solve_alone(p)) for p in polys]


def test_repeated_polynomials_are_solved_once(monkeypatch):
    # its residuals are NaN, as in test_a_failing_finish_is_its_own_entry
    hard = _NAN_RESIDUAL
    polys = [RealPolynomial(_POOL_316), RealPolynomial([2.0, -2.0, 1.0]),
             RealPolynomial(_POOL_316), RealPolynomial(hard),
             RealPolynomial([0.0, 2.0, -2.0, 1.0]), RealPolynomial(hard),
             RealPolynomial([3.0]), RealPolynomial([3.0]),
             RealPolynomial([2.0, -2.0, 1.0])]
    rows = []
    aberth = roots._aberth

    def counted(Q):
        rows.append(Q.shape[0])
        return aberth(Q)

    lone = [_bits(_solve_alone(p)) for p in polys]
    monkeypatch.setattr(roots, "_aberth", counted)
    batch = find_roots_many(polys)
    assert [_bits(r) for r in batch] == lone
    assert isinstance(batch[3], NonConvergenceError) and batch[5] is batch[3]
    # four distinct coefficient sets reach Aberth: z (2 - 2z + z^2) is no
    # copy of 2 - 2z + z^2
    assert sum(rows) == 4


def test_residual_accept_moves_no_zero():
    # the config reaches only the acceptance check: another threshold may
    # fail a solve or pass it, but moves no bit of a result
    polys = _batch_corpus()
    base = find_roots_many(polys)
    for accept in (1e-30, 1.0):
        other = find_roots_many(polys, SolverConfig(residual_accept=accept))
        both = [i for i, (a, b) in enumerate(zip(base, other))
                if not isinstance(a, Exception)
                and not isinstance(b, Exception)]
        assert len(both) >= 40
        assert [_bits(other[i]) for i in both] == \
            [_bits(base[i]) for i in both]


def _check_stacked_and_lone_rows(qs):
    """Each row of the stack qs through ``roots._aberth`` in the stack and
    alone, where it takes the one-row loop, and through ``_aberth_loop``:
    the same bits and the same number of sweeps."""
    stacked, sweeps = roots._aberth(np.stack(qs))
    for row, n, q in zip(stacked, sweeps.tolist(), qs):
        lone, [m] = roots._aberth(q[None, :])
        ref, k = _aberth_loop(q.astype(complex))
        assert row.view(np.float64).tolist() == \
            lone[0].view(np.float64).tolist() == \
            ref.view(np.float64).tolist()
        assert n == m == k


def test_stacked_aberth_rows_match_the_per_polynomial_loop():
    by_degree = {}
    for p in _batch_corpus():
        q, _ = deflate_origin(p)
        if q.degree:
            by_degree.setdefault(q.degree, []).append(q.coeffs)
    # degree-1 batches of one work on one-element arrays, where numpy can
    # take a loop of its own
    rng = np.random.default_rng(11)
    lone = [[q] for q in rng.normal(size=(40, 2))]
    # the solve workload's pool, scaled as a solve hands it to _aberth; #360
    # runs the whole sweep budget
    pool = {}
    for p in _pool(42):
        q = roots._scaled(deflate_origin(p)[0].coeffs[None, :])[0]
        pool.setdefault(q.size, []).append(q)
    for qs in list(by_degree.values()) + lone + list(pool.values()):
        _check_stacked_and_lone_rows(qs)


def test_stacked_aberth_fallback_and_budget_rows_match_the_loop(monkeypatch):
    # Horner overflows at the iterates of the huge middle coefficients, so
    # the first row takes the fallback branch; a one-sweep budget stops
    # every row unconverged
    qs = [np.array([1.0, 1e150, 1e150, 1.0]), np.array([1.0, 0.0, 0.0, 1.0]),
          np.array([2.0, -3.0, 0.5, 1.0])]
    for budget in (roots._MAX_ITERATIONS, 1):
        monkeypatch.setattr(roots, "_MAX_ITERATIONS", budget)
        _check_stacked_and_lone_rows(qs)


def _slab_cases():
    """(Q, z) pairs for the Horner slab: random stacks over many orders of
    magnitude, degree 1 on one-element arrays, signed zeros, and points where
    Horner overflows on the fallback row of the test above."""
    rng = np.random.default_rng(3)
    cases = []
    for B, d in [(1, 1), (1, 5), (4, 12), (9, 16), (3, 24)]:
        Q = rng.normal(size=(B, d + 1)) * 10.0 ** rng.integers(-4, 5, (B, d + 1))
        z = (rng.normal(size=(B, d)) + 1j * rng.normal(size=(B, d))) \
            * 10.0 ** rng.integers(-3, 4, (B, d))
        cases.append((Q, z))
    cases += [(np.array([q]), np.array([[v]]))
              for q, v in zip(rng.normal(size=(40, 2)),
                              rng.normal(size=40) + 1j * rng.normal(size=40))]
    zeros = [complex(x, y) for x in (0.0, -0.0) for y in (0.0, -0.0)]
    for c0, c1 in [(1.0, -0.0), (-0.0, 1.0), (-1.0, -0.0), (0.0, -2.0)]:
        for v in zeros:
            cases.append((np.array([[c0, c1]]), np.array([[v]])))
    cases.append((np.array([[1.0, -0.0, 0.0, -1.0]] * 2),
                  np.array([zeros[:3], zeros[1:]])))
    huge = 10.0 ** np.array([0, 50, 100, 150, 160, 250, 308])
    z = np.concatenate([huge * cmath.exp(0.3j), -huge, [np.inf, np.nan]])
    qs = [[1.0, 1e150, 1e150, 1.0], [1.0, 0.0, 0.0, 1.0], [2.0, -3.0, 0.5, 1.0]]
    cases.append((np.array(qs), np.tile(z, (3, 1))))
    return cases


@np.errstate(all="ignore")
def test_the_horner_slab_keeps_the_bits_of_horner_on_column_stacks():
    for Q, z in _slab_cases():
        cols = list(np.repeat(Q.T[:, :, None], z.shape[1], axis=2)
                    .astype(np.complex128))
        pv, dv = _horner(cols, z)
        p, bound, dp = roots._slab(Q, z.shape[1])(z)
        assert p.view(np.uint64).tolist() == pv.view(np.uint64).tolist()
        assert dp.view(np.uint64).tolist() == dv.view(np.uint64).tolist()
        assert roots._slab(Q, z.shape[1], full=False)(z) \
            .view(np.uint64).tolist() == pv.view(np.uint64).tolist()
        # the bound against the float Horner of |c_k| at |z|
        az, mag = np.abs(z), np.abs(Q[:, -1:])
        for ck in np.abs(Q.T[-2::-1]):
            mag = mag * az + ck[:, None]
        finite = np.isfinite(mag)
        assert (np.isfinite(bound) == finite).all()
        assert bound[finite].tolist() == mag[finite].tolist()


def test_find_roots_many_returns_failures_in_place(monkeypatch):
    good = [RealPolynomial([2.0, -2.0, 1.0]), RealPolynomial([-3.0, 1.0]),
            RealPolynomial([1.0, 0.5])]
    out = find_roots_many([good[0], RealPolynomial([3.0]), good[1]])
    assert isinstance(out[1], DegreeZeroError)
    assert [_bits(out[0]), _bits(out[2])] == \
        [_bits(find_roots(good[0])), _bits(find_roots(good[1]))]

    assert find_roots_many([]) == []

    monkeypatch.setattr(roots, "_MAX_ITERATIONS", 1)
    hard = RealPolynomial([5040.0, -13068.0, 13132.0, -6769.0, 1960.0,
                           -322.0, 28.0, -1.0])
    out = find_roots_many([good[1], hard, good[2]])
    assert isinstance(out[1], NonConvergenceError)
    assert [_bits(out[0]), _bits(out[2])] == \
        [_bits(find_roots(good[1])), _bits(find_roots(good[2]))]


def test_only_real_polynomials_are_solved():
    good = [RealPolynomial([2.0, -2.0, 1.0]), RealPolynomial([-3.0, 1.0])]
    # coefficients as a complex array and as a plain list
    bad = [np.array([2.0, -2.0, 1.0], dtype=complex), [2.0, -2.0, 1.0]]
    for p in bad:
        with pytest.raises(TypeError, match="expected RealPolynomial"):
            find_roots(p)
    out = find_roots_many([good[0], bad[0], good[1], bad[1]])
    assert [(type(r), str(r)) for r in out[1::2]] == \
        [(TypeError, "expected RealPolynomial")] * 2
    assert [_bits(out[0]), _bits(out[2])] == \
        [_bits(find_roots(p)) for p in good]


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
    pv, _ = roots._horner(q, z)
    diff = z[:, None] - z[None, :]
    np.fill_diagonal(diff, 1.0)
    prods = np.abs(diff).prod(axis=1)
    with np.errstate(all="ignore"):
        incl = z.size * np.abs(pv / q[-1]) / prods
    incl = np.where(np.isfinite(incl), incl, np.inf)
    return z, np.minimum(incl, 0.05 * np.maximum(1.0, np.abs(z)))


def _cluster_loop(q, zs):
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
            lim = max(roots._CLUSTER_TOL * max(1.0, abs(z[i]), abs(z[j])),
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
        clusters.append((complex(members.mean()), members.size, span,
                         float(incl[groups[key]].max())))
    clusters.sort(key=lambda t: (t[0].real, t[0].imag))
    return clusters


def _merges(zi, zj, ri, rj):
    """Reference merge test: z_i and z_j lie within cluster_tol * max(1,
    |z_i|, |z_j|), or their inclusion discs of radii r_i, r_j overlap."""
    lim = max(roots._CLUSTER_TOL * max(1.0, abs(zi), abs(zj)), ri + rj)
    return abs(zi - zj) <= lim


def _may_merge(q, zs):
    """Reference: whether any pair of the iterates zs merges."""
    z, incl = _inclusion_loop(q, zs)
    return any(_merges(z[i], z[j], incl[i], incl[j])
               for i in range(z.size) for j in range(i + 1, z.size))


def _finish_loop(c, q, k0, iterates, cfg):
    """Reference: polish the iterates of a polynomial with a candidate merge
    pair, then cluster, refine, snap, pair and certify them, one polynomial
    at a time."""
    degree = c.size - 1
    entries = []
    if iterates is not None:
        if _may_merge(q, iterates):
            iterates = np.array([_polish_loop(q, complex(v)) for v in iterates])
        clusters = _cluster_loop(q, iterates)
        raw = [(roots._refine_cluster(q, ctr, m, span), m)
               for ctr, m, span, _ in clusters]
        raw = [(roots._snapped(z, roots._REAL_SNAP_TOL), m) for z, m in raw]
        entries.extend(roots._pair_conjugates(raw, [r for *_, r in clusters]))
    ql = q.tolist()
    finished = []
    for z, m in entries:
        # the backward error |q(z)| / sum_k |q_k| |z|^k, NaN where the sum
        # is not finite
        s = 0.0
        for qk in reversed(ql):
            s = s * abs(z) + abs(qk)
        res = abs(_horner(ql, z)[0]) / s if math.isfinite(s) else math.nan
        finished.append(roots.ZeroEntry(z, m, res))
    if k0 > 0:
        finished.append(roots.ZeroEntry(0.0 + 0.0j, k0, 0.0))
    # a failure names the first largest residual, or the first NaN when
    # every number passes
    worst = max((e for e in finished if e.residual == e.residual),
                key=lambda e: e.residual, default=None)
    if worst is None or worst.residual <= cfg.residual_accept:
        worst = next((e for e in finished if e.residual != e.residual), None)
    if worst is not None and not worst.residual <= cfg.residual_accept:
        raise NonConvergenceError(
            f"zero at {worst.location} carries residual {worst.residual:.3e} "
            f"above the acceptance threshold {cfg.residual_accept:.3e}")
    finished.sort(key=lambda e: (e.location.real, e.location.imag))
    return roots.ZeroSet(tuple(finished), degree)


def _solve_loop(p, cfg):
    """Reference solve: ``_aberth_loop``, then ``_finish_loop``, both in
    complex arithmetic on the coefficients."""
    c = p.coeffs.astype(complex)
    k0 = int(np.flatnonzero(c)[0])
    q = c[k0:]
    try:
        iterates = _aberth_loop(q)[0] if q.size > 1 else None
        return _finish_loop(c, q, k0, iterates, cfg)
    except Exception as exc:
        return exc


def _finish_corpus():
    """Multiple roots, close simple real roots and close conjugate pairs
    around cluster_tol, and linear polynomials, beside the batch corpus."""
    polys = [RealPolynomial(np.poly(zs)[::-1]) for zs in
             ([1.0, 1.0, 1.0], [2.0, 2.0, -1.0], [0.5, 0.5, 0.5, 3.0, 3.0],
              [1 + 1j, 1 - 1j, 1 + 1j, 1 - 1j], [-1.0, -1.0, 0.25, 0.25, 4.0])]
    polys.append(RealPolynomial([2.0, -math.sqrt(2.0), 0.25]))
    tol = roots._CLUSTER_TOL
    for x in (1.0, 3.0, 0.2):
        for f in (0.5, 0.9, 0.99, 1.0, 1.01, 1.1, 2.0, 10.0):
            delta = f * tol * max(1.0, x)
            polys.append(RealPolynomial(np.poly([x, x + delta, -2.0])[::-1]))
            close = [x + 1j, x + 1j + delta * 1j]
            polys.append(RealPolynomial(
                np.poly(close + np.conj(close).tolist())[::-1]))
    rng = np.random.default_rng(5)
    polys += [RealPolynomial(c) for c in rng.normal(size=(10, 2))]
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
    by_degree = {}
    for p in _batch_corpus() + _finish_corpus():
        q = deflate_origin(p)[0].coeffs.astype(complex)
        if q.size > 1:
            by_degree.setdefault(q.size - 1, []).append(q)
    for qs in list(by_degree.values()) + [[q] for q in by_degree[1]]:
        Q = np.stack(qs).real
        Z = np.array([[_polish_loop(q, complex(v)) for v in row]
                      for q, row in zip(qs, roots._aberth(Q)[0])])
        z, incl = roots._inclusion_radii(Q, Z)
        for q, zs, zr, ir in zip(qs, Z, z, incl):
            want_z, want_incl = _inclusion_loop(q, zs)
            assert zr.view(np.int64).tolist() == want_z.view(np.int64).tolist()
            assert ir.view(np.int64).tolist() == \
                want_incl.view(np.int64).tolist()


def test_stacked_finish_keeps_signed_zeros_of_singletons():
    # iterates on exact roots have discs of radius 0, so these rows have no
    # candidate pair, and their clusters' centres are means of signed zeros
    cfg = SolverConfig()
    cases = [
        (RealPolynomial([1.0, 0.0, 1.0]), [complex(-0.0, 1.0), complex(-0.0, -1.0)]),
        (RealPolynomial([-2.0, 1.0]), [complex(2.0, -0.0)]),
        (RealPolynomial([-1.0, 0.0, 0.0, 0.0, 1.0]),
         [complex(-1.0, -0.0), complex(-0.0, -1.0), complex(-0.0, 1.0),
          complex(1.0, -0.0)]),
    ]
    for p, zs in cases:
        c = p.coeffs.astype(complex)
        k0 = int(np.flatnonzero(c)[0])
        q = c[k0:]
        iterates = np.array([zs])
        got = roots._finish_many(q[None, :].real, [k0], iterates, cfg)[0]
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
    tol = roots._CLUSTER_TOL
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
    assert 0 < sum(_merges(*z, *r) for z, r in zip(rows, radii)) < len(rows)
    # non-finite iterates and radii
    parts = [0.0, -0.0, 1.5, -1e308, math.inf, -math.inf, math.nan]
    special = [complex(re, im) for re in parts for im in parts]
    for zi in special:
        for zj in special:
            for r in ([0.0, 0.0], [1.0, math.nan], [math.inf, 0.0],
                      [math.nan, math.nan]):
                rows.append([zi, zj])
                radii.append(r)
    with np.errstate(all="ignore"):
        near = roots._near_pairs(np.array(rows), np.array(radii))
    assert near[:, 0, 1].tolist() == [_merges(*z, *r)
                                      for z, r in zip(rows, radii)]
    assert not near[:, 1, 0].any() and not near[:, 0, 0].any()


def test_a_failing_finish_is_its_own_entry(monkeypatch):
    # residual: sum |c_k| |z|^k overflows at the zeros, so residuals are NaN
    huge = RealPolynomial(_NAN_RESIDUAL)
    with pytest.raises(NonConvergenceError):
        find_roots(huge)
    good = [RealPolynomial([-3.0, 1.0]), RealPolynomial([2.0, 0.5])]
    out = find_roots_many([good[0], huge, good[1]])
    assert isinstance(out[1], NonConvergenceError)
    assert [_bits(out[0]), _bits(out[2])] == [_bits(find_roots(p)) for p in good]

    # polish: a stand-in that overflows near the double root 7 of
    # (z - 7)^2, the one row of the batch whose iterates may merge
    polish = roots._polish
    hits = []

    def overflowing(q, z):
        if abs(z - 7.0) < 1e-6:
            hits.append(z)
            raise OverflowError("absolute value too large")
        return polish(q, z)

    good = [RealPolynomial([-3.0, 2.0, 1.0]), RealPolynomial([1.0, 0.5, 2.0])]
    lone = [_bits(find_roots(p)) for p in good]
    monkeypatch.setattr(roots, "_polish", overflowing)
    bad = RealPolynomial([49.0, -14.0, 1.0])
    out = find_roots_many([good[0], bad, good[1]])
    assert isinstance(out[1], OverflowError) and len(hits) == 1
    assert [_bits(out[0]), _bits(out[2])] == lone


@pytest.mark.parametrize("k", [100, -100, 1000, -1000])
def test_scaling_by_a_power_of_two_moves_no_bit(k):
    # the solver brings the largest coefficient magnitude into [1/2, 1), so
    # c and c 2^k are the same input to it
    for p in (RealPolynomial([2.0, -2.0, 1.0]),
              RealPolynomial([-1.0, 3.0, -3.0, 1.0]),
              RealPolynomial(_POOL_316),
              RealPolynomial([0.0, 0.0, 1.5, -0.25, 3.0])):
        assert _bits(_solve_alone(RealPolynomial(p.coeffs * 2.0 ** k))) == \
            _bits(_solve_alone(p))


def _stacked_group():
    """One degree-4 group for the stacked finish, as (Q, k0, iterates).

    Crafted iterates, far enough apart that no pair may merge, and Aberth
    iterates of quartics, with origin zeros of several orders."""
    q = np.poly([1j, -1j, 2j, -2j])[::-1]
    crafted = [
        # 0.18 - 3i is the nearest lower mate of both upper entries: the
        # first takes it, and the second takes 0.6 - 3i
        (q, [3j, 0.315 + 3j, 0.18 - 3j, 0.6 - 3j]),
        # ... and here the second has no mate left: not conjugate closed
        (q, [3j, 0.315 + 3j, 0.18 - 3j, -2.0]),
        # a lone entry 5e-7 off the real axis snaps at _ORPHAN_SNAP
        (q, [2 + 5e-7j, -2.0, 5j, -5j]),
        # 1 + i has no lower mate in reach: not conjugate closed
        (q, [1 + 1j, -1 - 3j, 3.0, -3.0]),
        # p(-i) = 1.3e308 (1 - i) + 1 has finite parts, and |p(-i)| = 1.8e308:
        # sum |c_k| |z|^k overflows first, so the residual is NaN
        ([1.3e308, 1.3e308, 0, 0, 1], [-0.5, -0.25, 1j, -1j]),
        # Horner's scheme meets inf - inf: NaN residuals, which fail
        ([1, 0, 0, 0, 1e300], [1e5 + 1e5j, 1e5 - 1e5j, -1e5 + 1e5j,
                               -1e5 - 1e5j]),
    ]
    real = np.poly([0.5, 3.0, 1 + 2j, 1 - 2j])[::-1].real
    natural = [real, real, real,
               # |z|^40 overflowed the old normalization at the zero 1e10
               np.poly([1e10, 1j, -1j, 2.0])[::-1].real]
    Q = np.array([c for c, _ in crafted] + natural)
    k0 = [0] * len(crafted) + [0, 2, 5, 36]
    iterates = np.concatenate((np.array([z for _, z in crafted]),
                               roots._aberth(Q[len(crafted):])[0]))
    return Q, k0, iterates


@pytest.mark.parametrize("accept", [1e-9, 1e300])
def test_stacked_finish_branches_match_lone_rows(monkeypatch, accept):
    cfg = SolverConfig(residual_accept=accept)
    Q, k0, iterates = _stacked_group()
    lone = [_bits(roots._finish_many(Q[r:r + 1], k0[r:r + 1],
                                     iterates[r:r + 1], cfg)[0])
            for r in range(len(k0))]
    # the stacked finish certifies only row 6, the quartic with no origin
    # zero, and leaves every other row to the scalar finish
    calls = []
    finish = roots._finish
    monkeypatch.setattr(roots, "_finish", lambda q, k, *a: calls.append(
        (q.tobytes(), k)) or finish(q, k, *a))
    group = roots._finish_many(Q, k0, iterates, cfg)
    assert sorted(calls) == sorted((Q[r].tobytes(), k0[r])
                                   for r in range(len(k0)) if r != 6)
    assert [_bits(r) for r in group] == lone
    assert "could not be restored" in str(group[1])
    assert "could not be restored" in str(group[3])
    assert isinstance(group[4], NonConvergenceError)
    assert isinstance(group[5], NonConvergenceError)
    assert "carries residual nan above" in str(group[5])
    assert isinstance(group[9], roots.ZeroSet)
    if accept == 1e300:
        # sum |c_k| |z|^k overflows at -0.5 and +-i
        assert "carries residual nan above" in str(group[4])
        assert [e.location for e in group[0].zeros] == \
            [0.09 - 3j, 0.09 + 3j, 0.4575 - 3j, 0.4575 + 3j]
        assert group[2].zeros[-1].location == 2 + 0j
    else:
        # the crafted rows sit off the zeros
        assert "above the acceptance threshold" in str(group[0])
        assert "above the acceptance threshold" in str(group[2])
        assert all(isinstance(r, roots.ZeroSet) for r in group[6:9])


# sum |c_k| |z|^k overflows at the zeros of this polynomial: NaN residuals
_NAN_RESIDUAL = [3.484956985489555e-36, -8.555198771167007e-291,
                 -3.688332268644477e+122, 1.3893518646189592e+30,
                 -4.10662246874106e+292, -6.611093837414355e-36,
                 -2.920670313815601e-166]


def test_a_nan_residual_fails_the_gate_stacked_and_alone(monkeypatch):
    p = RealPolynomial(_NAN_RESIDUAL)
    with pytest.raises(NonConvergenceError, match="carries residual nan"):
        find_roots(p)
    lone = _bits(_solve_alone(p))
    other = RealPolynomial([1.0, -2.0, 3.0, -1.0, 2.0, 5.0, 1.0])
    stacked = []
    finish = roots._finish_stacked
    monkeypatch.setattr(roots, "_finish_stacked", lambda *a: stacked.append(
        a[0].shape[0]) or finish(*a))
    batch = find_roots_many([other, p])
    # both rows of the degree-6 group reach the stacked finish, which leaves
    # the NaN row to the scalar one
    assert stacked == [2]
    assert _bits(batch[1]) == lone
    assert _bits(batch[0]) == _bits(find_roots(other))
