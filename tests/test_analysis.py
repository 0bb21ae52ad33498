"""Ratio profiles, three-term probes, identity checks, and campaigns."""

import dataclasses
import hashlib
import json
import math
import warnings

import numpy as np
import pytest

from sectorlab import analysis
from sectorlab import (
    CosineStepSequence,
    DegenerateLeadingError,
    DomainError,
    ExplicitSequence,
    ExpPowerSequence,
    GaussSequence,
    InputError,
    InvalidRootSpecError,
    LaguerreQSequence,
    NonConvergenceError,
    PolyGenSpec,
    RealPolynomial,
    SectorLabError,
    SectorRootSpec,
    SolverConfig,
    SignFlipError,
    ZeroInteriorTermError,
    double_sector_demo,
    draw_sector_spec,
    find_roots,
    from_sector_roots,
    in_disc,
    jensen_sector_disc,
    jsd_bracket,
    jsd_modulus_identity_check,
    parse_sequence_spec,
    predicted_sector_after_cosine_step,
    rn_profile,
    search_counterexample,
    three_term_transformed_roots,
    verify_theorem,
)
from test_golden import SEARCH_CASES, VERIFY_CASES

_SQRT_LN2 = math.sqrt(math.log(2.0))


def test_rn_profile_gauss_is_constant_below_one():
    prof = rn_profile(GaussSequence(0.7), window=10)
    want = math.exp(-0.49)
    assert all(math.isclose(v, want, rel_tol=1e-12) for v in prof.values)
    assert prof.tail_trend == "bounded-away"
    assert prof.necessary_condition() == "inconclusive"
    assert math.isclose(rn_profile(GaussSequence(_SQRT_LN2), 8).values[0],
                        0.5, rel_tol=1e-12)


def test_rn_profile_laguerre_is_q_squared():
    prof = rn_profile(LaguerreQSequence(0.5), window=8)
    assert all(math.isclose(v, 0.25, rel_tol=1e-12) for v in prof.values)
    assert prof.tail_trend == "bounded-away"
    assert prof.necessary_condition() == "inconclusive"


def test_rn_profile_exppower_p1_sits_exactly_at_one():
    prof = rn_profile(ExpPowerSequence(alpha=0.7, p=1.0), window=10)
    assert all(abs(v - 1.0) <= 1e-12 for v in prof.values)
    assert prof.tail_trend == "constant"
    assert prof.necessary_condition() == "fails-necessary-condition"


def test_rn_profile_exppower_p_between_one_and_two_climbs():
    prof = rn_profile(ExpPowerSequence(alpha=0.3, p=1.5), window=14)
    assert prof.tail_trend == "increasing-toward-1"
    assert prof.max_value < 1.0
    assert prof.necessary_condition() == "fails-necessary-condition"


def test_rn_profile_exppower_p2_matches_gauss():
    prof = rn_profile(ExpPowerSequence(alpha=0.3, p=2.0), window=10)
    assert all(math.isclose(v, math.exp(-0.6), rel_tol=1e-12) for v in prof.values)
    assert prof.necessary_condition() == "inconclusive"


def test_rn_profile_reciprocal_factorials():
    gamma = [1.0 / math.factorial(k) for k in range(16)]
    prof = rn_profile(ExplicitSequence(gamma), window=14)
    for n in range(14):
        assert math.isclose(prof.values[n], (n + 1) / (n + 2), rel_tol=1e-12)
    assert prof.tail_trend == "increasing-toward-1"
    assert prof.necessary_condition() == "fails-necessary-condition"


def test_rn_profile_factorials_exceed_one():
    gamma = [float(math.factorial(k)) for k in range(10)]
    prof = rn_profile(ExplicitSequence(gamma), window=8)
    assert math.isclose(prof.values[0], 2.0, rel_tol=1e-12)
    assert prof.max_value >= 1.0
    assert prof.necessary_condition() == "fails-necessary-condition"


def test_rn_profile_guards():
    with pytest.raises(SectorLabError):
        rn_profile(GaussSequence(0.5), window=2)
    with pytest.raises(ZeroInteriorTermError):
        rn_profile(ExplicitSequence([1.0, 0.0, 1.0, 1.0, 1.0]), window=3)


def test_three_term_oracle_gauss_sqrt_ln2():
    (z1, z2), rn = three_term_transformed_roots(0, 3.0, 2.0,
                                                GaussSequence(_SQRT_LN2))
    assert z1.imag == 0.0 and z2.imag == 0.0
    assert math.isclose(z1.real, math.sqrt(2.0) * (3.0 - math.sqrt(5.0)),
                        rel_tol=1e-12)
    assert math.isclose(z2.real, math.sqrt(2.0) * (3.0 + math.sqrt(5.0)),
                        rel_tol=1e-12)
    assert math.isclose(rn, 0.5, rel_tol=1e-12)


def test_three_term_identity_sequence():
    (z1, z2), rn = three_term_transformed_roots(0, 3.0, 1.0,
                                                ExplicitSequence([1.0] * 4))
    assert math.isclose(z1.real, (3.0 - math.sqrt(5.0)) / 2.0, rel_tol=1e-14)
    assert math.isclose(z2.real, (3.0 + math.sqrt(5.0)) / 2.0, rel_tol=1e-14)
    assert rn == 1.0


def test_three_term_matches_full_solver():
    rng = np.random.default_rng(20260814)
    for _ in range(50):
        n = int(rng.integers(0, 9))
        b = float(rng.uniform(0.2, 4.0))
        c = float(rng.uniform(0.05, 4.0))
        ms = GaussSequence(float(rng.uniform(0.2, 1.2)))
        (z1, z2), _ = three_term_transformed_roots(n, b, c, ms)
        g = [ms.term(n), ms.term(n + 1), ms.term(n + 2)]
        quad = RealPolynomial([g[0] * c, -g[1] * b, g[2]])
        found = []
        for e in find_roots(quad).zeros:
            found.extend([e.location] * e.multiplicity)
        for w in (z1, z2):
            err = min(abs(f - w) for f in found)
            assert err <= 1e-9 * max(1.0, abs(w))


def test_three_term_guards():
    with pytest.raises(SectorLabError):
        three_term_transformed_roots(-1, 3.0, 2.0, GaussSequence(0.5))
    with pytest.raises(SectorLabError):
        three_term_transformed_roots(0, 0.0, 2.0, GaussSequence(0.5))
    with pytest.raises(DegenerateLeadingError):
        three_term_transformed_roots(0, 3.0, 2.0, ExplicitSequence([1.0, 1.0, 0.0]))
    with pytest.raises(ZeroInteriorTermError):
        three_term_transformed_roots(0, 3.0, 2.0, ExplicitSequence([1.0, 0.0, 1.0]))


@pytest.mark.parametrize("call, message", [
    (lambda ms: rn_profile(ms, 3.5), "window must be an integer"),
    (lambda ms: rn_profile(ms, "5"), "window must be an integer"),
    (lambda ms: three_term_transformed_roots(2.5, 1.0, 1.0, ms),
     "n must be an integer"),
    (lambda ms: three_term_transformed_roots(True, 1.0, 1.0, ms),
     "n must be an integer"),
    (lambda ms: three_term_transformed_roots(2, 1.0, math.nan, ms),
     "c must be finite"),
    (lambda ms: three_term_transformed_roots(2, math.inf, 1.0, ms),
     "b must be finite"),
], ids=["float-window", "str-window", "float-n", "bool-n", "nan-c", "inf-b"])
def test_diagnostics_reject_numbers_they_cannot_use(call, message):
    with pytest.raises(SectorLabError, match=message):
        call(GaussSequence(0.5))


def test_modulus_identity_residual_small():
    rng = np.random.default_rng(777)
    for _ in range(200):
        a = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
        b = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
        alpha = float(rng.uniform(0.0, math.pi))
        z = complex(float(rng.normal()) * 5.0, float(rng.normal()) * 5.0)
        assert jsd_modulus_identity_check(a, b, alpha, z) <= 1e-11


def test_bracket_sign_decides_strict_membership():
    # for y > 0 and sin(alpha) > 0 the bracket is negative exactly on the
    # open disc; compare on draws where the bracket is comfortably nonzero
    rng = np.random.default_rng(888)
    checked = 0
    while checked < 200:
        a = float(rng.uniform(0.2, 3.0))
        b = float(rng.uniform(0.2, 3.0))
        alpha = float(rng.uniform(0.05, math.pi - 0.05))
        d = jensen_sector_disc(a, b, alpha)
        if d.empty:
            continue
        z = complex(d.center + float(rng.normal()) * d.radius,
                    abs(float(rng.normal())) * d.radius + 1e-6)
        val = jsd_bracket(a, b, alpha, z)
        if abs(val) <= 1e-6:
            continue
        inside = abs(z - d.center) < d.radius
        assert (val < 0.0) == inside
        assert in_disc(z, d, tol=0.0) == (abs(z - d.center) <= d.radius)
        checked += 1


def test_double_sector_demo_stays_at_quarter_turn():
    for ms in (ExplicitSequence([1.0] * 5), GaussSequence(0.5),
               LaguerreQSequence(0.5)):
        before, after = double_sector_demo(ms)
        assert abs(before - math.pi / 4.0) <= 1e-12
        assert abs(after - math.pi / 4.0) <= 1e-12


def test_double_sector_demo_rejects_sign_flips():
    with pytest.raises(SignFlipError):
        double_sector_demo(ExplicitSequence([1.0, 1.0, 1.0, 1.0, -1.0]))
    with pytest.raises(SignFlipError):
        double_sector_demo(ExplicitSequence([0.0, 1.0, 1.0, 1.0, 1.0]))


def test_poly_gen_spec_validation():
    with pytest.raises(SectorLabError):
        PolyGenSpec(deg_lo=0)
    with pytest.raises(SectorLabError):
        PolyGenSpec(deg_lo=5, deg_hi=2)
    with pytest.raises(SectorLabError):
        PolyGenSpec(theta=math.pi / 2.0)
    with pytest.raises(SectorLabError):
        PolyGenSpec(mag_lo=0.0)
    with pytest.raises(SectorLabError):
        PolyGenSpec(real_fraction=1.5)
    # a draw scales raw doubles by mag_hi - mag_lo: it must be finite
    for lo, hi in ((0.1, math.inf), (math.inf, math.inf), (0.1, math.nan),
                   (math.nan, 10.0), (0.1, 10**400), (0.1, "10"),
                   ("0.1", 10.0), (None, 10.0)):
        with pytest.raises(SectorLabError):
            PolyGenSpec(mag_lo=lo, mag_hi=hi)
    # a float field that is not a number is a SectorLabError, not the bare
    # TypeError of comparing it
    for field in ("theta", "mag_lo", "mag_hi", "real_fraction"):
        for bad in ("0.5", None, True, 0.5j):
            with pytest.raises(SectorLabError, match=field):
                PolyGenSpec(**{field: bad})
    # degrees and the seed are integers, and not bools
    for field in ("deg_lo", "deg_hi", "seed"):
        for bad in (2.5, 2.0, True, "2", None, np.float64(2.0)):
            with pytest.raises(SectorLabError):
                PolyGenSpec(**{field: bad})
    # a numpy integer is stored as an int, and valid Python input as given,
    # so the report is that of the Python ints
    gen = PolyGenSpec(deg_lo=np.int32(2), deg_hi=np.int64(9),
                      seed=np.uint64(2**64 - 1), mag_hi=10)
    assert [type(v) for v in (gen.deg_lo, gen.deg_hi, gen.seed)] == [int] * 3
    assert type(gen.mag_hi) is int
    plain = PolyGenSpec(deg_lo=2, deg_hi=9, seed=2**64 - 1, mag_hi=10)
    assert verify_theorem("zsro", gen, trials=3).to_json() == \
        verify_theorem("zsro", plain, trials=3).to_json()


def test_draw_sector_spec_respects_recipe():
    gen = PolyGenSpec(deg_lo=2, deg_hi=9, theta=0.9, seed=3)
    rng = np.random.default_rng(123)
    for _ in range(100):
        spec = draw_sector_spec(gen, rng)
        assert 2 <= spec.degree <= 9
        assert spec.max_angle() <= 0.9 + 1e-12
        assert all(gen.mag_lo <= x <= gen.mag_hi for x in spec.real_roots)
        for a, b in spec.pairs:
            assert a > 0.0 and b > 0.0
            assert gen.mag_lo * 0.999 <= math.hypot(a, b) <= gen.mag_hi * 1.001


def test_draw_sector_spec_all_real_when_theta_zero():
    gen = PolyGenSpec(theta=0.0, seed=1)
    rng = np.random.default_rng(9)
    for _ in range(20):
        assert draw_sector_spec(gen, rng).pairs == ()


def _scalar_draw_sector_spec(gen, rng):
    """draw_sector_spec as it was written with one rng.uniform call per
    draw; the block draw must match it bit for bit."""
    degree = int(rng.integers(gen.deg_lo, gen.deg_hi + 1))
    theta_t = rng.uniform(0.0, gen.theta) if gen.theta > 0.0 else 0.0
    n_real = int(round(gen.real_fraction * degree))
    if theta_t == 0.0:
        n_real = degree
    n_pairs = (degree - n_real) // 2
    n_real = degree - 2 * n_pairs
    reals = [float(rng.uniform(gen.mag_lo, gen.mag_hi)) for _ in range(n_real)]
    pairs = []
    for _ in range(n_pairs):
        phi = float(rng.uniform(0.0, theta_t))
        if phi == 0.0:
            phi = 0.5 * theta_t
        mag = math.exp(float(rng.uniform(math.log(gen.mag_lo),
                                         math.log(gen.mag_hi))))
        pairs.append((mag * math.cos(phi), mag * math.sin(phi)))
    return analysis.SectorRootSpec(tuple(reals), tuple(pairs))


def _spec_bits(spec):
    return (np.array(spec.real_roots).view(np.int64).tolist(),
            np.array(spec.pairs).view(np.int64).tolist())


# the campaigns' generator settings, then the edges of the recipe
_DRAW_SETTINGS = (
    dict(deg_hi=16, theta=1.4), dict(), dict(deg_hi=16, theta=0.785398),
    dict(deg_hi=12, theta=0.0, real_fraction=1.0), dict(deg_hi=12, theta=0.6),
    dict(deg_hi=12, theta=0.6, real_fraction=1.0),
    dict(theta=0.0), dict(real_fraction=0.0, theta=1.4),
    dict(deg_lo=7, deg_hi=7, theta=0.3), dict(deg_lo=64, deg_hi=64, theta=1.5),
    dict(deg_hi=64, theta=1.2, mag_lo=1e-3, mag_hi=1e3, real_fraction=0.1),
)


@pytest.mark.parametrize("seed", [0, 7, 42, 2**64 + 5])
def test_block_draws_equal_one_uniform_call_per_draw_bitwise(seed):
    for kw in _DRAW_SETTINGS:
        gen = PolyGenSpec(seed=seed, **kw)
        for t in range(40):
            rng, ref = analysis._trial_rng(seed, t), analysis._trial_rng(seed, t)
            assert _spec_bits(draw_sector_spec(gen, rng)) == \
                _spec_bits(_scalar_draw_sector_spec(gen, ref)), (kw, t)
            # the same number of doubles consumed
            assert rng.random() == ref.random()
    # the trials' parameter draws share the block draw's formula
    rng, ref = analysis._trial_rng(seed, 0), analysis._trial_rng(seed, 0)
    for lo, hi in ((0.0, math.pi), (-math.pi, math.pi), (0.1, 1.0),
                   (0.05, math.pi / 2.0 - 0.05), (math.log(0.3), math.log(3.0))):
        assert analysis._uniform(rng, lo, hi, None) == float(ref.uniform(lo, hi))
    assert analysis._uniform(rng, 0.0, 1.0, 0.25) == 0.25


class _PresetRng:
    """A generator stand-in that hands out preset raw doubles: exact zeros
    reach the phi == 0 branch, which a real stream almost never does."""

    def __init__(self, degree, doubles):
        self.degree, self.doubles = degree, list(doubles)

    def integers(self, lo, hi):
        return self.degree

    def random(self, size=None):
        if size is None:
            return self.doubles.pop(0)
        out, self.doubles = self.doubles[:size], self.doubles[size:]
        return np.array(out)

    def uniform(self, lo, hi):
        return lo + (hi - lo) * self.random()


def test_a_zero_argument_draw_takes_half_the_sector_angle():
    gen = PolyGenSpec(deg_lo=4, deg_hi=4, theta=1.0, real_fraction=0.0)
    doubles = [0.5, 0.0, 0.25, 0.0, 0.75]
    spec = draw_sector_spec(gen, _PresetRng(4, doubles))
    assert _spec_bits(spec) == \
        _spec_bits(_scalar_draw_sector_spec(gen, _PresetRng(4, doubles)))
    mag = math.exp(math.log(0.1) + (math.log(10.0) - math.log(0.1)) * 0.25)
    assert spec.pairs[0] == (mag * math.cos(0.25), mag * math.sin(0.25))


def test_verify_theorem_rejects_unknown_id():
    with pytest.raises(SectorLabError):
        verify_theorem("nope", PolyGenSpec(seed=1), trials=1)


def test_verify_zsro_small_campaign_clean():
    report = verify_theorem("zsro", PolyGenSpec(seed=42, deg_hi=10), trials=60)
    assert report.theorem_id == "zsro"
    assert report.trials == 60
    assert report.counterexample is None
    assert report.worst_margin is not None and report.worst_margin >= -1e-7
    assert report.params["tolerance"] == 1e-7
    assert report.params["generator"]["deg_hi"] == 10


def test_verify_is_deterministic_and_elapsed_free():
    gen = PolyGenSpec(seed=7, deg_hi=8)
    a = verify_theorem("zsro", gen, trials=25).to_json()
    b = verify_theorem("zsro", gen, trials=25).to_json()
    assert a == b
    doc = json.loads(a)
    assert sorted(doc) == ["counterexample", "params", "seed", "skipped",
                           "theorem_id", "trials", "worst_margin"]
    assert "elapsed" not in a


def test_verify_jsd_quadratic_sharpness():
    report = verify_theorem("jsd", PolyGenSpec(seed=11),
                            params={"quadratic": True}, trials=50)
    assert report.counterexample is None
    assert report.worst_margin >= -1e-8
    assert report.params.get("quadratic") is True


def test_jsd_quadratic_keeps_a_pinned_alpha():
    # a pinned alpha whose disc is empty skips its trial, which returns
    # before its request, instead of drawing another alpha
    gen = PolyGenSpec(seed=1)
    report = verify_theorem("jsd", gen, {"quadratic": True, "alpha": 0.4},
                            trials=20, tolerance=-1.0)
    assert report.skipped == 14
    assert report.counterexample.operator.startswith("blend alpha=0.4 ")
    report = verify_theorem("jsd", gen, {"quadratic": True, "alpha": 1.5},
                            trials=20)
    assert report.skipped == 20 and report.worst_margin is None


def test_verify_jsd_containment_small():
    report = verify_theorem("jsd", PolyGenSpec(seed=5, deg_hi=12, theta=1.3),
                            trials=60)
    assert report.counterexample is None
    assert report.worst_margin >= -1e-8


def test_verify_lms2_keeps_zeros_real():
    report = verify_theorem("lms2", PolyGenSpec(seed=2, deg_hi=10, theta=0.0,
                                                real_fraction=1.0), trials=40)
    assert report.counterexample is None
    assert report.worst_margin == 0.0


def test_verify_cosak_small():
    report = verify_theorem("cosak", PolyGenSpec(seed=13, deg_hi=10), trials=40)
    assert report.counterexample is None
    assert report.worst_margin >= -1e-7


def test_verify_period_strip_small():
    report = verify_theorem("period-strip", PolyGenSpec(seed=17, deg_hi=8),
                            trials=30)
    assert report.counterexample is None
    assert report.worst_margin >= -1e-7


def test_verify_roms_zeros_stay_real_positive():
    report = verify_theorem("roms", PolyGenSpec(seed=19, deg_hi=10), trials=30)
    assert report.counterexample is None
    # real positive zeros give margin -0.0 through the -|Im z| term
    assert report.worst_margin >= 0.0
    assert report.params["sequence"] == GaussSequence(0.5).spec_string()


def test_verify_tolerance_override_lands_in_report():
    report = verify_theorem("zsro", PolyGenSpec(seed=3, deg_hi=6),
                            trials=10, tolerance=0.5)
    assert report.params["tolerance"] == 0.5


def test_search_requires_open_family():
    with pytest.raises(SectorLabError):
        search_counterexample(GaussSequence(0.5), PolyGenSpec(seed=1), trials=1)


@pytest.mark.parametrize("trials", [True, 2.5, "5"])
def test_a_trial_count_that_is_not_an_integer_is_an_input_error(trials):
    with pytest.raises(InputError, match="trials must be an integer"):
        verify_theorem("zsro", PolyGenSpec(seed=1), trials=trials)
    with pytest.raises(InputError, match="trials must be an integer"):
        search_counterexample(ExpPowerSequence(alpha=0.4, p=2.0),
                              PolyGenSpec(seed=1), trials=trials)


def test_a_numpy_trial_count_gives_the_bytes_of_its_int():
    gen = PolyGenSpec(seed=1)
    for run in (lambda n: verify_theorem("zsro", gen, trials=n),
                lambda n: search_counterexample(
                    ExpPowerSequence(alpha=0.3, p=1.5), gen, trials=n)):
        report = run(np.int64(3))
        assert type(report.trials) is int
        assert report.to_json() == run(3).to_json()


@pytest.mark.parametrize("make,error", [
    (lambda: from_sector_roots(SectorRootSpec((1.0,)), lead=10**5000),
     InvalidRootSpecError),
    (lambda: PolyGenSpec(theta=10**5000), SectorLabError),
    (lambda: GaussSequence(10**5000), SectorLabError),
    (lambda: SectorRootSpec((10**5000,)), InvalidRootSpecError),
    (lambda: SectorRootSpec((), ((10**5000, 1.0),)), InvalidRootSpecError),
    (lambda: SectorRootSpec((), (10**5000,)), InvalidRootSpecError),
    (lambda: SectorRootSpec((), (((10**5000, 1.0), 1.0),)),
     InvalidRootSpecError),
    (lambda: verify_theorem("zsro", PolyGenSpec(seed=1), trials=-10**5000),
     InputError),
    (lambda: CosineStepSequence(0.3, -10**5000), SectorLabError),
    (lambda: predicted_sector_after_cosine_step(0.5, 0.3, -10**5000),
     DomainError),
], ids=["lead", "theta", "gauss-alpha", "real-root", "pair-part",
        "bare-pair", "nested-pair", "trials", "cosstep-N", "bound-N"])
def test_an_int_past_the_digit_limit_is_named_in_its_error(make, error):
    # repr raises a plain ValueError for an int of more than 4,300 digits
    with pytest.raises(error, match="int (of 16610 bits|too long to show)"):
        make()


def test_search_exppower_p2_reports_safe_diagnostics():
    report = search_counterexample(ExpPowerSequence(alpha=0.4, p=2.0),
                                   PolyGenSpec(seed=23, deg_hi=8, theta=0.6),
                                   trials=30)
    assert report.theorem_id == "search"
    assert report.counterexample is None
    assert report.params["rn_tail_trend"] == "bounded-away"
    assert report.params["rn_necessary_condition"] == "inconclusive"


def test_search_exppower_p_three_halves_flags_climb():
    report = search_counterexample(ExpPowerSequence(alpha=0.3, p=1.5),
                                   PolyGenSpec(seed=29, deg_hi=8, theta=0.6),
                                   trials=20)
    assert report.params["rn_tail_trend"] == "increasing-toward-1"
    assert report.params["rn_necessary_condition"] == "fails-necessary-condition"
    ladder = report.params["three_term_probe"]["ladder"]
    assert len(ladder) == 13
    angles = [row["angle_after"] for row in ladder]
    assert angles[-1] > angles[0]
    assert report.params["three_term_probe"]["max_angle_after"] == max(angles)


def _chunked_report(monkeypatch, chunk, run):
    monkeypatch.setattr(analysis, "_CHUNK", chunk)
    return run().to_json()


# the digests of tests/test_golden.py's tables, by case and by search seed
_VERIFY_DIGESTS = {case[0]: case[-1] for case in VERIFY_CASES}
_SEARCH_DIGESTS = {seed: digest for seed, digest, _ in SEARCH_CASES}


@pytest.mark.parametrize("run,digest", [
    (lambda: verify_theorem("zsro", PolyGenSpec(seed=42, deg_hi=16, theta=1.4),
                            trials=20, tolerance=-1.0),
     _VERIFY_DIGESTS["zsro-forced"]),
    (lambda: search_counterexample(ExpPowerSequence(alpha=0.3, p=1.5),
                                   PolyGenSpec(seed=1, deg_hi=12, theta=0.6),
                                   trials=200),
     _SEARCH_DIGESTS[1]),
], ids=["zsro-forced", "search-seed1"])
def test_report_bytes_do_not_depend_on_the_chunk(monkeypatch, run, digest):
    small = _chunked_report(monkeypatch, 7, run)
    assert small == _chunked_report(monkeypatch, 1000, run)
    # the digests were recorded with an 80-bit long double
    if np.finfo(np.longdouble).nmant == 63:
        assert hashlib.sha256(small.encode("utf-8")).hexdigest() == digest


def test_trials_expand_and_apply_on_stacks(monkeypatch):
    # the 100-trial golden zsro campaign: no spec takes the lone expansion,
    # whatever the size of its degree group, and no trial applies its
    # sequence alone
    from sectorlab import operators, poly
    lone, applied = [], []
    expand, apply_one = poly._expand, operators.apply_sequence
    monkeypatch.setattr(poly, "_expand", lambda spec, lead: (
        lone.append(spec.degree) or expand(spec, lead)))
    monkeypatch.setattr(operators, "apply_sequence", lambda p, ms: (
        applied.append(ms) or apply_one(p, ms)))
    report = verify_theorem("zsro", PolyGenSpec(seed=42, deg_hi=16, theta=1.4),
                            trials=100)
    assert report.trials == 100 and report.skipped == 0
    assert lone == [] and applied == []


@pytest.mark.parametrize("theorem,generator", [
    ("jsd", dict(deg_hi=16, theta=1.4)),
    ("lms2", dict(deg_hi=12, theta=0.0, real_fraction=1.0)),
], ids=["jsd", "lms2"])
def test_cosine_images_are_half_their_rotation_blends(monkeypatch, theorem,
                                                      generator):
    # the 100-trial golden campaigns: every cosaffine image is, within
    # 1e-12 max(1, max |c_k|), (1/2) [e^{i lam} p(e^{i theta} z)
    # + e^{-i lam} p(e^{-i theta} z)], both padded to the degree of p
    from sectorlab import BlendParams, CosineAffineSequence, rotation_blend
    seen, many = [], analysis.apply_sequence_many

    def spied(polys, seqs):
        out = many(polys, seqs)
        seen.extend(zip(polys, seqs, out))
        return out

    monkeypatch.setattr(analysis, "apply_sequence_many", spied)
    verify_theorem(theorem, PolyGenSpec(seed=42, **generator), trials=100)
    affine = [(p, ms, q) for p, ms, q in seen
              if isinstance(ms, CosineAffineSequence)]
    assert len(affine) >= 100
    for p, ms, q in affine:
        half = 0.5 * rotation_blend(p, BlendParams(ms.theta, ms.lam, -ms.lam))
        diff = np.zeros(p.coeffs.size, dtype=complex)
        diff[:q.coeffs.size] += q.coeffs
        diff[:half.size] -= half
        assert np.abs(diff).max() <= 1e-12 * max(1.0, p.scale())


def test_unhandled_trial_error_comes_from_the_earliest_trial():
    # a degree-40 Gauss image overflows the residual of one trial; the
    # trials batched after it run too, and add no warning.  Roms trial 3 at
    # degree 64 overflows numpy's products before its residual overflows,
    # and the solver reports none of that either
    for theorem, deg_hi, trials in (("zsro", 40, 200), ("roms", 64, 4)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(OverflowError):
                verify_theorem(theorem, PolyGenSpec(seed=42, deg_hi=deg_hi),
                               trials=trials)
        assert [w for w in caught
                if issubclass(w.category, RuntimeWarning)] == []


@pytest.mark.parametrize("theta", [1.4, 0.785398])
@pytest.mark.parametrize("seed", [42, 1, 2])
@pytest.mark.parametrize("tolerance", [None, -1.0], ids=["plain", "forced"])
def test_period_strip_is_zsro_in_log_coordinates(theta, seed, tolerance):
    # Im log z = arg z: the strip of the principal logs is the zeros' sector
    gen = PolyGenSpec(seed=seed, theta=theta)
    strip = verify_theorem("period-strip", gen, trials=60,
                           tolerance=tolerance).to_json_dict()
    sector = verify_theorem("zsro", gen, trials=60,
                            tolerance=tolerance).to_json_dict()
    assert strip.pop("theorem_id") == "period-strip"
    assert sector.pop("theorem_id") == "zsro"
    assert strip == sector


def _trial_probe(gen, params, rng):
    """Solves z^2 - 2 (inexact zeros) or z^2 - 2z + 2 (exact zeros)."""
    inexact = rng.uniform() < 0.5
    p = RealPolynomial([-2.0, 0.0, 1.0] if inexact else [2.0, -2.0, 1.0])
    _, _, zeros = yield p, ExplicitSequence([1.0, 1.0, 1.0])
    return min(e.location.real for e in zeros.zeros), (p, "probe", None, None)


def test_nonconvergence_skips_only_its_own_trial(monkeypatch):
    monkeypatch.setitem(analysis.CAMPAIGNS, "probe",
                        analysis.Campaign(_trial_probe, 1e-7))
    monkeypatch.setattr(analysis, "_CHUNK", 7)
    gen = PolyGenSpec(seed=5)
    strict = SolverConfig(residual_accept=1e-30)
    report = verify_theorem("probe", gen, trials=30, config=strict)
    inexact = sum(analysis._trial_rng(5, t).uniform() < 0.5 for t in range(30))
    assert 0 < inexact < 30
    assert report.skipped == inexact
    assert report.worst_margin == 1.0
    lenient = verify_theorem("probe", gen, trials=30)
    assert lenient.skipped == 0
    assert math.isclose(lenient.worst_margin, -math.sqrt(2.0), rel_tol=1e-12)


def _answered(trial, zeros_of):
    """``trial`` answered with the zeros ``zeros_of(p, q)`` in place of those
    of its image q."""
    def answered(gen, params, rng):
        inner = trial(gen, params, rng)
        p, q, _ = yield next(inner)
        try:
            inner.send((p, q, zeros_of(p, q)))
        except StopIteration as stop:
            return stop.value
    return answered


def test_jsd_without_a_live_disc_measures_the_distance_to_the_axis(
        monkeypatch):
    # alpha = 1.5 empties the disc of every pair within 1.4 of the axis, and
    # the blend's zeros are then real: answered with 1 +/- i, a trial's
    # margin is -|Im z| / max(1, |z|)
    pair = find_roots(RealPolynomial([2.0, -2.0, 1.0]))
    monkeypatch.setitem(analysis.CAMPAIGNS, "answered", analysis.Campaign(
        _answered(analysis._trial_jsd, lambda p, q: pair), 1e-8, ("alpha",)))
    report = verify_theorem("answered", PolyGenSpec(seed=42, theta=1.4),
                            {"alpha": 1.5}, trials=10)
    assert report.skipped == 0 and report.worst_margin == -1.0 / abs(1 + 1j)


def test_a_zero_outside_the_right_half_plane_certifies_minus_pi(monkeypatch):
    # zsro's trial answered with the zeros of p(-z), which all lie outside
    # the right half-plane
    monkeypatch.setitem(analysis.CAMPAIGNS, "answered", analysis.Campaign(
        _answered(analysis._trial_zsro, lambda p, q: find_roots(RealPolynomial(
            p.coeffs * (-1.0) ** np.arange(p.coeffs.size)))), 1e-7))
    report = verify_theorem("answered", PolyGenSpec(seed=42), trials=10)
    assert report.skipped == 0 and report.worst_margin == -math.pi
    cex = report.counterexample
    assert cex.margin == -math.pi and cex.offending_zero.real < 0.0
    assert parse_sequence_spec(cex.operator).family == "gauss"


def _refusing(error):
    """A trial that raises ``error`` before its request on about half its
    draws."""
    def trial(gen, params, rng):
        if rng.uniform() < 0.5:
            raise error("refused before the request")
        p = RealPolynomial([2.0, -2.0, 1.0])
        yield p, ExplicitSequence([1.0, 1.0, 1.0])
        return 0.0, (p, "probe", None, None)
    return trial


def test_a_trial_that_raises_before_its_request(monkeypatch):
    gen = PolyGenSpec(seed=5)
    early = sum(analysis._trial_rng(5, t).uniform() < 0.5 for t in range(30))
    assert 0 < early < 30
    monkeypatch.setitem(analysis.CAMPAIGNS, "refuses", analysis.Campaign(
        _refusing(NonConvergenceError), 1e-7))
    report = verify_theorem("refuses", gen, trials=30)
    assert report.skipped == early and report.worst_margin == 0.0
    monkeypatch.setitem(analysis.CAMPAIGNS, "refuses", analysis.Campaign(
        _refusing(ValueError), 1e-7))
    with pytest.raises(ValueError, match="refused before the request"):
        verify_theorem("refuses", gen, trials=30)


def _trial_asks_twice(gen, params, rng):
    p = RealPolynomial([2.0, -2.0, 1.0])
    _, q, _ = yield p, ExplicitSequence([1.0, 1.0, 1.0])
    yield q, ExplicitSequence([1.0, 1.0, 1.0])
    return 0.0, (p, "probe", None, None)


def test_a_trial_that_yields_twice_breaks_the_protocol(monkeypatch):
    monkeypatch.setitem(analysis.CAMPAIGNS, "twice",
                        analysis.Campaign(_trial_asks_twice, 1e-7))
    with pytest.raises(RuntimeError, match="yields once: p, q, zeros = yield"):
        verify_theorem("twice", PolyGenSpec(seed=5), trials=3)


@pytest.mark.parametrize("theorem", ["jsd", "roms"])
def test_a_chunk_expands_applies_and_solves_in_one_call_each(monkeypatch,
                                                             theorem):
    # 100 trials in chunks of 40: three chunks.  jsd's trials catch a
    # failed application or solve, and roms requests polynomials, not specs
    monkeypatch.setattr(analysis, "_CHUNK", 40)
    calls = []
    stages = ("from_sector_roots_many", "apply_sequence_many",
              "find_roots_many")

    def spy(name):
        real = getattr(analysis, name)
        return lambda *args: calls.append(name) or real(*args)

    for name in stages:
        monkeypatch.setattr(analysis, name, spy(name))
    campaign = analysis.CAMPAIGNS[theorem]
    report = verify_theorem(theorem, PolyGenSpec(
        seed=42, theta=campaign.theta, deg_hi=campaign.deg_hi), trials=100)
    assert report.trials == 100
    assert calls == list(stages) * 3


def test_verify_rejects_params_the_campaign_never_reads():
    gen = PolyGenSpec(seed=1)
    for theorem, params in (("zsro", {"sequence": LaguerreQSequence(0.5)}),
                            ("zsro", {"N": 3}), ("lms2", {"alpha": 0.3}),
                            ("cosak", {"quadratic": True})):
        with pytest.raises(InputError):
            verify_theorem(theorem, gen, params, trials=1)
    report = verify_theorem("jsd", gen, {"quadratic": True, "alpha": 0.4},
                            trials=2, tolerance=0.1)
    assert report.params["quadratic"] is True
    # the violation tolerance is an argument, read by the loop, not a param
    with pytest.raises(InputError, match="zsro reads no param "
                                         "tolerance_override; it reads alpha"):
        verify_theorem("zsro", gen, {"tolerance_override": 0.5}, trials=1)


def test_verify_rejects_non_finite_params():
    gen = PolyGenSpec(seed=1)
    for theorem, params in (("lms2", {"lam": math.nan}),
                            ("lms2", {"mult_theta": math.inf}),
                            ("jsd", {"beta": -math.inf}),
                            ("cosak", {"alpha": np.float64(math.nan)}),
                            ("roms", {"alpha": math.inf})):
        with pytest.raises(InputError, match="must be finite"):
            verify_theorem(theorem, gen, params, trials=1)
    with pytest.raises(InputError, match="must be finite"):
        verify_theorem("zsro", gen, trials=1, tolerance=math.nan)
    # a value that is not a number once ran: "0.5" went into the report
    for theorem, params in (("zsro", {"alpha": "0.5"}),
                            ("cosak", {"N": "3"}),
                            ("jsd", {"lam": None, "beta": [0.1]})):
        with pytest.raises(InputError, match="must be a number"):
            verify_theorem(theorem, gen, params, trials=1)
    with pytest.raises(InputError, match="must be a number"):
        verify_theorem("zsro", gen, trials=1, tolerance="0.1")


def test_cosak_certifies_the_step_count_it_reports():
    # every trial violates tolerance -1, so each run certifies one
    gen = PolyGenSpec(seed=42, deg_hi=4)
    for n in (2.5, 2.0, 0):
        with pytest.raises(InputError, match="cosstep needs integer N >= 1"):
            verify_theorem("cosak", gen, {"alpha": 0.3, "N": n}, trials=3,
                           tolerance=-1.0)
    for n in (3, np.int64(3)):
        report = verify_theorem("cosak", gen, {"alpha": 0.3, "N": n},
                                trials=3, tolerance=-1.0)
        op = parse_sequence_spec(report.counterexample.operator)
        assert op.N == report.params["N"] == 3
        assert type(report.params["N"]) is int


@pytest.mark.parametrize("gen, params", [
    # lambda - beta = pi: every multiplier cos(pi/2 + k pi) is snapped to 0
    (PolyGenSpec(seed=42, theta=1.4),
     {"alpha": math.pi, "lam": math.pi / 2.0, "beta": -math.pi / 2.0}),
    # cos(k pi/2) on a real linear polynomial leaves its constant term only
    (PolyGenSpec(seed=42, deg_hi=1, theta=0.0),
     {"alpha": math.pi / 2.0, "lam": 0.0, "beta": 0.0}),
], ids=["degenerate-blend", "constant-image"])
def test_jsd_skips_a_blend_with_nothing_to_solve(gen, params):
    report = verify_theorem("jsd", gen, params, trials=5)
    assert report.skipped == 5
    assert report.worst_margin is None and report.counterexample is None


@pytest.mark.parametrize("theorem, params", [
    ("zsro", {}), ("cosak", {}), ("lms2", {}), ("roms", {}),
    ("roms", {"sequence": LaguerreQSequence(0.5)}), ("search", {})])
def test_forced_certificates_name_an_operator_that_parses_back(
        monkeypatch, theorem, params):
    # every tested trial violates tolerance -1, so each run certifies one
    if theorem == "search":
        monkeypatch.setattr(analysis, "SEARCH_CAMPAIGN", dataclasses.replace(
            analysis.SEARCH_CAMPAIGN, tolerance=-1.0))
        report = search_counterexample(
            ExpPowerSequence(0.3, 1.5), PolyGenSpec(seed=42, theta=0.6,
                                                    deg_hi=12), trials=20)
    else:
        campaign = analysis.CAMPAIGNS[theorem]
        gen = PolyGenSpec(seed=42, theta=campaign.theta,
                          deg_hi=campaign.deg_hi)
        report = verify_theorem(theorem, gen, params, trials=20,
                                tolerance=-1.0)
    op = report.counterexample.operator
    assert parse_sequence_spec(op).spec_string() == op
