"""Multiplier families, rotation blends, and the sector/strip predictions."""

import cmath
import math

import numpy as np
import pytest

from sectorlab import (
    BlendParams,
    CosineAffineSequence,
    CosineStepSequence,
    DegenerateSequenceError,
    DomainError,
    ExplicitSequence,
    ExpPowerSequence,
    GaussSequence,
    HypothesisViolationError,
    InputError,
    LaguerreQSequence,
    MultiplierSequence,
    NotInRightHalfPlaneError,
    RealPolynomial,
    SectorLabError,
    ZeroPolynomialResultError,
    apply_sequence,
    apply_sequence_many,
    bc_strip_bound,
    cosine_affine_transform,
    cosine_power_limit,
    exp_poly_principal_zeros,
    find_roots,
    parse_sequence_spec,
    predicted_sector_after_cosine_step,
    predicted_sector_after_gauss,
    predicted_strip_after_gauss,
    rotation_blend,
)

# frozen from the closed forms
_BLEND_ZERO = 1.3065629648763764 + 1.058924144384121j
_EXP_ZERO = 0.34657359027997264 + 0.7853981633974483j
_SQRT_LN2 = math.sqrt(math.log(2.0))


def test_gauss_terms():
    g = GaussSequence(alpha=1.0)
    assert g.term(0) == 1.0
    assert math.isclose(g.term(1), math.exp(-0.5), rel_tol=1e-15)
    assert math.isclose(g.term(3), math.exp(-4.5), rel_tol=1e-15)
    assert g.terms(2).tolist() == [g.term(0), g.term(1), g.term(2)]


def test_gauss_validation():
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(SectorLabError):
            GaussSequence(alpha=bad)


def test_gauss_tiny_terms_never_snapped():
    g = GaussSequence(alpha=20.0)
    assert g.term(1) == math.exp(-200.0)
    assert g.term(1) > 0.0
    p = apply_sequence(RealPolynomial([1.0, 1.0]), g)
    assert p.degree == 1 and p.coeffs[1] > 0.0


def test_cosine_step_terms_and_degree_guard():
    s = CosineStepSequence(alpha=0.3, N=2)
    assert math.isclose(s.term(4), math.cos(0.6), rel_tol=1e-15)
    s.check_degree(10)  # 0.3 * 10 / 2 = 1.5 < pi/2
    with pytest.raises(HypothesisViolationError):
        s.check_degree(11)
    with pytest.raises(HypothesisViolationError):
        apply_sequence(RealPolynomial([1.0] * 12), s)


def test_cosine_step_validation():
    with pytest.raises(SectorLabError):
        CosineStepSequence(alpha=-0.1, N=2)
    with pytest.raises(SectorLabError):
        CosineStepSequence(alpha=0.1, N=0)
    # N is an integer, not a bool or a float: "N=True" would not parse back
    for N in (True, 2.0, 1.5, "2", None):
        with pytest.raises(SectorLabError):
            CosineStepSequence(alpha=0.5, N=N)
    s = CosineStepSequence(alpha=0.5, N=np.int64(3))
    assert type(s.N) is int and s == CosineStepSequence(0.5, 3)
    assert parse_sequence_spec(s.spec_string()) == s


def test_trigonometric_zeros_snapped_exact():
    # cos(pi/2) evaluates to ~6e-17; the multiplier must become an exact zero
    seq = CosineAffineSequence(lam=math.pi / 2.0, theta=math.pi / 3.0)
    q = apply_sequence(RealPolynomial([1.0, 1.0]), seq)
    assert q.coeffs[0] == 0.0
    assert math.isclose(q.coeffs[1], math.cos(math.pi / 2.0 + math.pi / 3.0),
                        rel_tol=1e-15)
    # the snap over the whole multiplier array equals the per-term one
    for lam, theta in ((0.0, math.pi / 2.0), (math.pi / 4.0, math.pi / 4.0),
                       (math.pi / 3.0, math.pi / 6.0)):
        seq = CosineAffineSequence(lam=lam, theta=theta)
        terms = [seq.term(k) for k in range(13)]
        ref = [0.0 if abs(t) <= 5e-14 else t for t in terms]
        q = apply_sequence(RealPolynomial([1.0] * 13), seq)
        assert q.coeffs.tolist() == ref and ref.count(0.0) >= 2


def test_laguerre_terms_and_validation():
    s = LaguerreQSequence(q=0.5)
    assert s.term(0) == 1.0
    assert s.term(2) == 0.5**4
    with pytest.raises(SectorLabError):
        LaguerreQSequence(q=1.0)
    with pytest.raises(SectorLabError):
        LaguerreQSequence(q=-1.5)


def test_exppower_terms_and_validation():
    s = ExpPowerSequence(alpha=0.3, p=1.5)
    assert s.term(0) == 1.0
    assert math.isclose(s.term(4), math.exp(-0.3 * 8.0), rel_tol=1e-15)
    with pytest.raises(SectorLabError):
        ExpPowerSequence(alpha=0.0, p=1.5)
    with pytest.raises(SectorLabError):
        ExpPowerSequence(alpha=0.3, p=0.0)


def test_explicit_sequence_is_finite():
    s = ExplicitSequence([1.0, 0.5, 0.25])
    assert s.term(2) == 0.25
    with pytest.raises(HypothesisViolationError):
        s.term(3)
    with pytest.raises(HypothesisViolationError):
        apply_sequence(RealPolynomial([1.0, 1.0, 1.0, 1.0]), s)
    with pytest.raises(SectorLabError):
        ExplicitSequence([])
    assert s == ExplicitSequence([1.0, 0.5, 0.25])
    assert s != ExplicitSequence([1.0, 0.5])


@pytest.mark.parametrize("make", [
    lambda: ExpPowerSequence(math.inf, 1.0),
    lambda: ExpPowerSequence(0.3, math.inf),
    lambda: CosineAffineSequence(math.nan, 0.5),
    lambda: CosineAffineSequence(0.5, -math.inf),
    lambda: ExplicitSequence([1.0, math.nan]),
    lambda: ExplicitSequence([math.inf]),
], ids=["exppower-alpha", "exppower-p", "cosaffine-lambda", "cosaffine-theta",
        "explicit-nan", "explicit-inf"])
def test_multiplier_constructors_reject_non_finite_numbers(make):
    # a SectorLabError, not the polynomial's bare ValueError once applied
    with pytest.raises(SectorLabError, match="finite"):
        make()


@pytest.mark.parametrize("make", [
    lambda: GaussSequence("0.5"),
    lambda: CosineStepSequence("0.5", 2),
    lambda: CosineAffineSequence("0", 0.1),
    lambda: LaguerreQSequence(None),
    lambda: ExpPowerSequence("1", 1.0),
    lambda: ExplicitSequence(["a"]),
    lambda: ExplicitSequence([1.0, True]),
], ids=["gauss", "cosstep", "cosaffine", "laguerre", "exppower", "explicit",
        "explicit-bool"])
def test_multiplier_constructors_reject_values_that_are_not_numbers(make):
    # a SectorLabError, not the bare TypeError or ValueError of using them
    with pytest.raises(SectorLabError, match="must be a number"):
        make()


def test_spec_string_comes_from_the_declared_keys():
    for ms, text in ((GaussSequence(0.25), "gauss:alpha=0.25"),
                     (CosineStepSequence(0.3, 4), "cosstep:alpha=0.3,N=4"),
                     (CosineAffineSequence(-0.1, 0.7),
                      "cosaffine:lambda=-0.1,theta=0.7"),
                     (LaguerreQSequence(0.9), "laguerre:q=0.9"),
                     (ExpPowerSequence(1.5, 2), "exppower:alpha=1.5,p=2")):
        assert ms.spec_string() == text
        assert parse_sequence_spec(text) == ms
    # valid input is stored as given: the int 2 is written as 2
    assert ExpPowerSequence(1.5, 2).p == 2
    # a sequence of no family has no spec, and may act on any degree
    with pytest.raises(NotImplementedError):
        MultiplierSequence().spec_string()
    MultiplierSequence().check_degree(10**6)


def test_apply_sequence_gauss_oracle():
    # alpha^2 = ln 2 turns [2, -2, 1] into 0.25 (z - 2 sqrt(2))^2
    q = apply_sequence(RealPolynomial([2.0, -2.0, 1.0]), GaussSequence(_SQRT_LN2))
    assert np.allclose(q.coeffs, [2.0, -math.sqrt(2.0), 0.25], rtol=1e-15, atol=0)
    zs = find_roots(q)
    assert len(zs.zeros) == 1 and zs.zeros[0].multiplicity == 2
    assert abs(zs.zeros[0].location - 2.0 * math.sqrt(2.0)) <= 1e-9


def test_apply_sequence_annihilation_raises():
    with pytest.raises(DegenerateSequenceError):
        apply_sequence(RealPolynomial([1.0]), ExplicitSequence([0.0]))


def test_explicit_degree_drop():
    q = apply_sequence(RealPolynomial([1.0, 1.0]), ExplicitSequence([1.0, 0.0]))
    assert q.degree == 0 and q.coeffs.tolist() == [1.0]


def test_rotation_blend_oracle_on_disc_boundary():
    # lam = beta = 0, alpha = pi/8 on [2, -2, 1]:
    # coefficients [4, -4 cos(pi/8), sqrt(2)], zeros on the disc boundary
    p = RealPolynomial([2.0, -2.0, 1.0])
    f = rotation_blend(p, BlendParams(alpha=math.pi / 8.0, lam=0.0, beta=0.0))
    assert np.abs(f.imag).max() <= 1e-15 * np.abs(f).max()
    want = [4.0, -4.0 * math.cos(math.pi / 8.0), math.sqrt(2.0)]
    assert np.allclose(f.real, want, rtol=1e-15, atol=0)
    zs = find_roots(RealPolynomial(f.real))
    locs = sorted((e.location for e in zs.zeros), key=lambda z: z.imag)
    assert abs(locs[1] - _BLEND_ZERO) <= 1e-13
    assert abs(locs[0] - _BLEND_ZERO.conjugate()) <= 1e-13
    # boundary contact with Delta(1, 1; pi/8)
    center, radius = 1.8477590650225735, 1.1892071150027212
    for z in locs:
        assert abs(abs(z - center) - radius) <= 1e-12


def test_rotation_blend_coefficient_moduli():
    rng = np.random.default_rng(20260814)
    for _ in range(30):
        deg = int(rng.integers(1, 9))
        c = rng.normal(size=deg + 1)
        if c[-1] == 0.0:
            c[-1] = 1.0
        p = RealPolynomial(c)
        alpha, lam, beta = rng.uniform(-math.pi, math.pi, size=3)
        f = rotation_blend(p, BlendParams(alpha=float(alpha), lam=float(lam),
                                          beta=float(beta)))
        for k in range(f.size):
            want = 2.0 * abs(math.cos((lam - beta) / 2.0 + k * alpha)) * abs(p.coeffs[k])
            assert abs(abs(f[k]) - want) <= 1e-12 * max(1.0, want)


def test_rotation_blend_degree_drop_and_annihilation():
    p = RealPolynomial([2.0, -2.0, 1.0])
    # (lam - beta)/2 + 2 alpha = pi/2 kills the leading coefficient
    f = rotation_blend(p, BlendParams(alpha=math.pi / 8.0,
                                      lam=math.pi / 4.0, beta=-math.pi / 4.0))
    assert f.size == 2
    with pytest.raises(ZeroPolynomialResultError):
        rotation_blend(RealPolynomial([1.0]),
                       BlendParams(alpha=0.3, lam=0.0, beta=math.pi))


def test_cosine_affine_transform_oracle():
    # lam = 0, theta = pi/3 on [1, -2, 1]: multipliers [1, 1/2, -1/2]
    q = cosine_affine_transform(RealPolynomial([1.0, -2.0, 1.0]), 0.0, math.pi / 3.0)
    assert np.allclose(q.coeffs, [1.0, -1.0, -0.5], rtol=1e-15, atol=1e-16)
    zs = find_roots(q)
    locs = sorted(e.location.real for e in zs.zeros)
    assert abs(locs[0] - (-1.0 - math.sqrt(3.0))) <= 1e-12
    assert abs(locs[1] - (-1.0 + math.sqrt(3.0))) <= 1e-12


def test_cosine_step_image_oracle():
    # alpha = pi/6, N = 1 on [1, -2, 1]: [1, -sqrt(3), 1/2], zeros sqrt(3) -/+ 1
    q = apply_sequence(RealPolynomial([1.0, -2.0, 1.0]),
                       CosineStepSequence(alpha=math.pi / 6.0, N=1))
    assert np.allclose(q.coeffs, [1.0, -math.sqrt(3.0), 0.5], rtol=1e-15, atol=0)
    locs = sorted(e.location.real for e in find_roots(q).zeros)
    assert abs(locs[0] - (math.sqrt(3.0) - 1.0)) <= 1e-12
    assert abs(locs[1] - (math.sqrt(3.0) + 1.0)) <= 1e-12


def _apply_alone(p, ms):
    """Reference: the diagonal action as one polynomial at a time."""
    if isinstance(ms, CosineStepSequence):
        ms.check_degree(p.degree)
    gamma = ms.terms(p.degree)
    if ms.trig:
        gamma[np.abs(gamma) <= 5e-14] = 0.0
    out = p.coeffs * gamma
    if not np.any(out):
        raise DegenerateSequenceError(
            f"{ms.spec_string()} annihilated every coefficient")
    q = RealPolynomial(out)
    if isinstance(ms, CosineAffineSequence):
        # the coefficientwise assertion against the defining blend
        half = 0.5 * rotation_blend(p, BlendParams(alpha=ms.theta, lam=ms.lam,
                                                   beta=-ms.lam))
        tol = 1e-12 * max(1.0, p.scale())
        n = min(q.coeffs.size, half.size)
        diff = np.abs(q.coeffs[:n] - half[:n])
        extra = max(np.max(np.abs(q.coeffs[n:])) if q.coeffs.size > n else 0.0,
                    np.max(np.abs(half[n:])) if half.size > n else 0.0)
        if np.max(diff) > tol or extra > tol:
            raise SectorLabError(
                "cosine transform disagrees with its defining rotation blend")
    return q


def _bits(result):
    if isinstance(result, Exception):
        return type(result), str(result)
    return result.coeffs.view(np.int64).tolist()


def _outcome(f, *args):
    try:
        return _bits(f(*args))
    except Exception as exc:
        return _bits(exc)


def _application_corpus():
    """Pairs (p, ms) of mixed degrees and families: cosstep past its degree,
    explicit too short, annihilated rows and cosaffine rows whose leading
    multiplier vanishes."""
    rng = np.random.default_rng(11)
    polys = [RealPolynomial(rng.normal(size=d + 1)) for d in
             (0, 1, 1, 2, 3, 3, 3, 5, 8, 8, 12, 12, 12, 16)]
    seqs = [GaussSequence(0.7), CosineStepSequence(1.2, 2),
            CosineAffineSequence(0.3, -2.1), ExplicitSequence([1.0, 0.5, 0.25]),
            LaguerreQSequence(0.5), ExpPowerSequence(0.3, 1.5),
            CosineAffineSequence(math.pi / 2.0, 0.0),
            CosineAffineSequence(0.0, math.pi / 4.0)]
    pairs = [(p, ms) for p in polys for ms in seqs]
    # annihilated: gamma_0 = 0 on a constant, and cos(pi/2) snapped
    pairs += [(RealPolynomial([2.0]), ExplicitSequence([0.0, 1.0])),
              (RealPolynomial([2.0]), CosineAffineSequence(math.pi / 2.0, 0.3))]
    return [p for p, _ in pairs], [ms for _, ms in pairs]


def test_apply_sequence_many_matches_lone_applications():
    polys, seqs = _application_corpus()
    want = [_outcome(_apply_alone, p, ms) for p, ms in zip(polys, seqs)]
    assert [_bits(q) for q in apply_sequence_many(polys, seqs)] == want
    assert [_outcome(apply_sequence, p, ms)
            for p, ms in zip(polys, seqs)] == want
    kinds = {w[0] for w in want if isinstance(w, tuple)}
    assert kinds == {HypothesisViolationError, DegenerateSequenceError}
    affine = [i for i, ms in enumerate(seqs)
              if isinstance(ms, CosineAffineSequence)]
    assert [_outcome(cosine_affine_transform, polys[i], seqs[i].lam,
                     seqs[i].theta) for i in affine] == [want[i] for i in affine]


def test_predicted_sector_after_gauss():
    assert math.isclose(predicted_sector_after_gauss(math.pi / 4.0, 0.5),
                        0.6414032478174578, rel_tol=1e-14)
    # alpha^2 = ln 2 collapses theta = pi/4 to the positive axis
    assert predicted_sector_after_gauss(math.pi / 4.0, _SQRT_LN2) == 0.0
    assert predicted_sector_after_gauss(math.pi / 4.0, 1.0) == 0.0
    with pytest.raises(DomainError):
        predicted_sector_after_gauss(math.pi / 2.0, 0.5)
    with pytest.raises(DomainError):
        predicted_sector_after_gauss(0.3, 0.0)
    with pytest.raises(DomainError, match="alpha must be finite"):
        predicted_sector_after_gauss(0.5, math.inf)


def test_predicted_sector_shrinks_monotonically_in_alpha():
    theta = 1.1
    vals = [predicted_sector_after_gauss(theta, a) for a in (0.1, 0.3, 0.6, 1.0)]
    assert vals[0] < theta
    assert all(x >= y for x, y in zip(vals, vals[1:]))


def test_predicted_sector_after_cosine_step():
    assert math.isclose(predicted_sector_after_cosine_step(math.pi / 4.0, 0.3, 2),
                        0.7739762429500784, rel_tol=1e-14)
    with pytest.raises(DomainError):
        predicted_sector_after_cosine_step(0.3, 2.0, 1)
    with pytest.raises(DomainError):
        predicted_sector_after_cosine_step(0.3, 0.3, 0)


@pytest.mark.parametrize("N", [2.5, True])
def test_cosine_step_bounds_need_an_integer_step_count(N):
    with pytest.raises(DomainError):
        cosine_power_limit(0.5, N)
    with pytest.raises(DomainError):
        predicted_sector_after_cosine_step(0.5, 0.3, N)


def test_cosine_power_limit_rejects_a_nan_alpha():
    with pytest.raises(DomainError):
        cosine_power_limit(math.nan, 2)


def test_cosine_power_limit_approaches_gauss_factor():
    target = math.exp(-0.5)
    assert abs(cosine_power_limit(1.0, 100) - target) <= 1e-4
    assert abs(cosine_power_limit(1.0, 1000) - target) <= 1e-6
    # frozen values
    assert math.isclose(abs(cosine_power_limit(1.0, 100) - target),
                        5.054535979320818e-06, rel_tol=1e-9)
    with pytest.raises(DomainError):
        cosine_power_limit(2.0, 1)


def test_exp_poly_principal_zeros_oracle():
    logs = exp_poly_principal_zeros(RealPolynomial([2.0, -2.0, 1.0]))
    logs = sorted(logs, key=lambda z: z.imag)
    assert abs(logs[1] - _EXP_ZERO) <= 1e-12
    assert abs(logs[0] - _EXP_ZERO.conjugate()) <= 1e-12
    assert all(abs(l.imag) < math.pi / 2.0 for l in logs)


def test_exp_poly_principal_zeros_requires_right_half_plane():
    with pytest.raises(NotInRightHalfPlaneError):
        exp_poly_principal_zeros(RealPolynomial([0.0, 1.0]))
    with pytest.raises(NotInRightHalfPlaneError):
        exp_poly_principal_zeros(RealPolynomial([1.0, 1.0]))


def test_strip_predictions():
    assert math.isclose(predicted_strip_after_gauss(1.0, 0.5),
                        math.acos(min(1.0, math.exp(0.125) * math.cos(1.0))),
                        rel_tol=1e-14)
    assert predicted_strip_after_gauss(0.5, 2.0) == 0.0
    assert math.isclose(bc_strip_bound(1.0, 0.6), math.sqrt(0.64), rel_tol=1e-14)
    assert bc_strip_bound(0.5, 0.8) == 0.0
    with pytest.raises(DomainError):
        predicted_strip_after_gauss(-0.1, 0.5)
    with pytest.raises(DomainError):
        bc_strip_bound(-1.0, 0.5)
    with pytest.raises(DomainError, match="strip half-width must be finite"):
        bc_strip_bound(math.nan, 0.1)


def test_parse_sequence_spec_families():
    assert parse_sequence_spec("gauss:alpha=0.5") == GaussSequence(0.5)
    assert parse_sequence_spec("cosstep:alpha=0.3,N=4") == CosineStepSequence(0.3, 4)
    assert parse_sequence_spec("cosaffine:lambda=0.1,theta=0.2") == \
        CosineAffineSequence(0.1, 0.2)
    assert parse_sequence_spec("laguerre:q=0.5") == LaguerreQSequence(0.5)
    assert parse_sequence_spec("exppower:alpha=0.3,p=1.5") == ExpPowerSequence(0.3, 1.5)
    assert parse_sequence_spec("explicit:1,0.5,0.25") == \
        ExplicitSequence([1.0, 0.5, 0.25])


def test_parse_sequence_spec_round_trips_spec_string():
    for s in ("gauss:alpha=0.25", "cosstep:alpha=0.3,N=4",
              "cosaffine:lambda=-0.1,theta=0.7", "laguerre:q=0.9",
              "exppower:alpha=1.5,p=2.0", "explicit:1,-2,0.5"):
        ms = parse_sequence_spec(s)
        again = parse_sequence_spec(ms.spec_string())
        assert [again.term(k) for k in range(2)] == [ms.term(k) for k in range(2)]


def test_parse_sequence_spec_rejects_malformed():
    for bad in ("gauss", "gauss:alpha", "gauss:beta=1", "gauss:alpha=1,N=2",
                "gauss:alpha=abc", "gauss:alpha=-1", "mystery:x=1",
                "explicit:", "explicit:a,b", "cosstep:alpha=0.3",
                "laguerre:q=2"):
        with pytest.raises(InputError):
            parse_sequence_spec(bad)
