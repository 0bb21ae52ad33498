"""Ratio profiles, three-term probes, identity checks, and campaigns."""

import hashlib
import json
import math
import warnings

import numpy as np
import pytest

from sectorlab import analysis
from sectorlab import (
    DegenerateLeadingError,
    ExplicitSequence,
    ExpPowerSequence,
    GaussSequence,
    InputError,
    LaguerreQSequence,
    PolyGenSpec,
    RealPolynomial,
    SectorLabError,
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
    rn_profile,
    search_counterexample,
    three_term_transformed_roots,
    verify_theorem,
)

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
                            params={"tolerance_override": 0.5}, trials=10)
    assert report.params["tolerance"] == 0.5


def test_search_requires_open_family():
    with pytest.raises(SectorLabError):
        search_counterexample(GaussSequence(0.5), PolyGenSpec(seed=1), trials=1)


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


@pytest.mark.parametrize("run,digest", [
    (lambda: verify_theorem("zsro", PolyGenSpec(seed=42, deg_hi=16, theta=1.4),
                            {"tolerance_override": -1.0}, trials=20),
     "dbfe42bf08b08c51429db93969eabc8009b2467a22ad6c8971fc047bec427034"),
    (lambda: search_counterexample(ExpPowerSequence(alpha=0.3, p=1.5),
                                   PolyGenSpec(seed=1, deg_hi=12, theta=0.6),
                                   trials=200),
     "a144a56e517022e173df34dbf5d6ac25956462459433269313eeebb475a4ddf5"),
], ids=["zsro-forced", "search-seed1"])
def test_report_bytes_do_not_depend_on_the_chunk(monkeypatch, run, digest):
    small = _chunked_report(monkeypatch, 7, run)
    assert small == _chunked_report(monkeypatch, 1000, run)
    # the digests of tests/test_golden.py, recorded with an 80-bit long double
    if np.finfo(np.longdouble).nmant == 63:
        assert hashlib.sha256(small.encode("utf-8")).hexdigest() == digest


def test_trials_expand_and_apply_on_stacks(monkeypatch):
    # the 100-trial golden zsro campaign: a spec reaches the lone expansion
    # only as the one spec of its degree in a from_sector_roots_many call,
    # and no trial applies its sequence alone
    from sectorlab import operators, poly
    lone, singles, applied = [], [], []
    expand, many = poly._expand, poly.from_sector_roots_many
    apply_one = operators.apply_sequence

    def counted_many(specs, lead=1.0):
        degrees = [s.degree for s in specs]
        singles.extend(d for d in degrees if degrees.count(d) == 1)
        return many(specs, lead)

    monkeypatch.setattr(poly, "_expand", lambda spec, lead: (
        lone.append(spec.degree) or expand(spec, lead)))
    monkeypatch.setattr(analysis, "from_sector_roots_many", counted_many)
    monkeypatch.setattr(operators, "apply_sequence", lambda p, ms: (
        applied.append(ms) or apply_one(p, ms)))
    report = verify_theorem("zsro", PolyGenSpec(seed=42, deg_hi=16, theta=1.4),
                            trials=100)
    assert report.trials == 100 and report.skipped == 0
    assert sorted(lone) == sorted(singles)
    assert applied == []


def test_the_blend_check_fires_on_the_stacked_path(monkeypatch):
    # multipliers off by 1e-9 relative disagree with the defining blend
    from sectorlab import CosineAffineSequence
    cos_term = CosineAffineSequence.term
    monkeypatch.setattr(CosineAffineSequence, "term",
                        lambda self, k: cos_term(self, k) * (1.0 + 1e-9))
    with pytest.raises(SectorLabError, match="disagrees with its defining"):
        verify_theorem("lms2", PolyGenSpec(seed=42, deg_hi=12, theta=0.0),
                       trials=20)


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
@pytest.mark.parametrize("params", [None, {"tolerance_override": -1.0}],
                         ids=["plain", "forced"])
def test_period_strip_is_zsro_in_log_coordinates(theta, seed, params):
    # Im log z = arg z: the strip of the principal logs is the zeros' sector
    gen = PolyGenSpec(seed=seed, theta=theta)
    strip = verify_theorem("period-strip", gen, params, trials=60).to_json_dict()
    sector = verify_theorem("zsro", gen, params, trials=60).to_json_dict()
    assert strip.pop("theorem_id") == "period-strip"
    assert sector.pop("theorem_id") == "zsro"
    assert strip == sector


def _trial_probe(gen, params, rng):
    """Solves z^2 - 2 (inexact zeros) or z^2 - 2z + 2 (exact zeros)."""
    inexact = rng.uniform() < 0.5
    p = RealPolynomial([-2.0, 0.0, 1.0] if inexact else [2.0, -2.0, 1.0])
    zeros = yield p
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


def test_verify_rejects_params_the_campaign_never_reads():
    gen = PolyGenSpec(seed=1)
    for theorem, params in (("zsro", {"sequence": LaguerreQSequence(0.5)}),
                            ("zsro", {"N": 3}), ("lms2", {"alpha": 0.3}),
                            ("cosak", {"quadratic": True})):
        with pytest.raises(InputError):
            verify_theorem(theorem, gen, params, trials=1)
    report = verify_theorem("jsd", gen, {"quadratic": True, "alpha": 0.4,
                                         "tolerance_override": 0.1}, trials=2)
    assert report.params["quadratic"] is True


def test_verify_rejects_non_finite_params():
    gen = PolyGenSpec(seed=1)
    for theorem, params in (("lms2", {"lam": math.nan}),
                            ("lms2", {"mult_theta": math.inf}),
                            ("jsd", {"beta": -math.inf}),
                            ("cosak", {"alpha": np.float64(math.nan)}),
                            ("roms", {"alpha": math.inf}),
                            ("zsro", {"tolerance_override": math.nan})):
        with pytest.raises(InputError, match="must be finite"):
            verify_theorem(theorem, gen, params, trials=1)
