"""End-to-end guarantees: each advertised bound at its stated tolerance.

One test per guarantee, in the order a release gate checks them; a -v run
shows one pass/fail line each.  Campaign seeds and trial counts are fixed so
every number here is reproducible byte-for-byte.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from sectorlab import (
    ExplicitSequence,
    ExpPowerSequence,
    GaussSequence,
    LaguerreQSequence,
    PolyGenSpec,
    RealPolynomial,
    apply_sequence,
    cosine_power_limit,
    double_sector_demo,
    find_roots,
    jensen_sector_disc,
    rn_profile,
    three_term_transformed_roots,
    verify_theorem,
)

from paper import (bc_strip_bound, jsd_bracket, jsd_modulus_identity_check,
                   predicted_strip_after_gauss)

_CLI = [sys.executable, "-m", "sectorlab.cli"]


def run(*args):
    env = dict(os.environ)
    env.pop("SECTORLAB_SEED", None)
    return subprocess.run(_CLI + list(args), capture_output=True, env=env)


def test_blend_zeros_land_in_sector_discs_at_scale():
    rep = verify_theorem("jsd", PolyGenSpec(seed=42, deg_hi=16, theta=1.4),
                         trials=1000)
    print(f"jsd: worst margin {rep.worst_margin!r}, "
          f"{rep.skipped} all-real trials, {rep.elapsed:.2f} s")
    assert rep.trials == 1000
    assert not rep.found_counterexample()
    assert rep.worst_margin is not None
    assert rep.worst_margin >= -1e-8
    assert rep.elapsed < 15.0


def test_quadratic_blend_zeros_sit_on_disc_boundary():
    rep = verify_theorem("jsd", PolyGenSpec(seed=42),
                         params={"quadratic": True}, trials=200)
    print(f"jsd-sharpness: worst margin {rep.worst_margin!r}")
    assert rep.trials == 200
    assert not rep.found_counterexample()
    assert rep.worst_margin is not None
    assert rep.worst_margin >= -1e-8


def test_gauss_sector_bound_holds_at_scale():
    rep = verify_theorem("zsro", PolyGenSpec(seed=42, deg_hi=16, theta=1.4),
                         trials=1000)
    print(f"zsro: worst margin {rep.worst_margin!r}")
    assert rep.trials == 1000 and rep.skipped == 0
    assert not rep.found_counterexample()
    assert rep.worst_margin >= -1e-7


def test_gauss_critical_alpha_gives_double_root_and_exact_angle_law():
    p = RealPolynomial([2.0, -2.0, 1.0])
    target = 2.0 * math.sqrt(2.0)

    q = apply_sequence(p, GaussSequence(math.sqrt(math.log(2.0))))
    zs = find_roots(q).zeros
    assert sum(e.multiplicity for e in zs) == 2
    for e in zs:
        assert abs(e.location.imag) <= 1e-9
        assert abs(e.location - target) <= 1e-9

    for alpha in (0.3, 0.5, 0.7):
        q = apply_sequence(p, GaussSequence(alpha))
        z = max((e.location for e in find_roots(q).zeros),
                key=lambda w: w.imag)
        want = math.exp(0.5 * alpha * alpha) * math.cos(math.pi / 4.0)
        got = math.cos(math.atan2(z.imag, z.real))
        assert abs(got - want) <= 1e-10 * want


def test_cosine_step_bound_holds_and_hypothesis_violation_exits_3():
    # a counterexample would also fire on a negative real zero, since the
    # measured sector rejects anything outside the open right half-plane
    rep = verify_theorem("cosak", PolyGenSpec(seed=42, deg_hi=16, theta=1.4),
                         trials=500)
    print(f"cosak: worst margin {rep.worst_margin!r}")
    assert rep.trials == 500
    assert not rep.found_counterexample()
    assert rep.worst_margin >= -1e-7

    r = run("apply", "--op", "cosstep:alpha=1.5,N=1",
            "--coeffs", "1,-6,15,-20,15,-6,1")
    assert r.returncode == 3
    assert b"hypothesis violation" in r.stderr


def test_positive_zeros_stay_real_under_cosine_multipliers():
    gen = PolyGenSpec(seed=42, deg_hi=12, theta=0.0, real_fraction=1.0)
    rep = verify_theorem("lms2", gen, trials=500)
    print(f"lms2: worst margin {rep.worst_margin!r}, {rep.skipped} skipped")
    assert rep.trials == 500
    assert not rep.found_counterexample()
    assert rep.worst_margin >= -1e-9

    # cos(pi/2 + k pi) annihilates every coefficient: such draws are counted
    # as skipped, never as failures
    degenerate = verify_theorem(
        "lms2", gen, params={"lam": math.pi / 2.0, "mult_theta": math.pi},
        trials=3)
    assert degenerate.skipped == 3
    assert not degenerate.found_counterexample()
    assert degenerate.worst_margin is None


def test_strip_bound_holds_and_dominates_comparison_width():
    rep = verify_theorem("period-strip",
                         PolyGenSpec(seed=42, deg_hi=16, theta=1.4),
                         trials=200)
    print(f"period-strip: worst margin {rep.worst_margin!r}")
    assert rep.trials == 200
    assert not rep.found_counterexample()
    assert rep.worst_margin >= -1e-7

    for k in range(1, 31):
        half_width = 0.05 * k
        for j in range(1, 11):
            alpha = 0.1 * j
            assert (predicted_strip_after_gauss(half_width, alpha)
                    >= bc_strip_bound(half_width, alpha))


def test_term_ratio_profiles_and_trinomial_shortcut_agree():
    for i in range(1, 11):
        alpha = 0.1 * i
        target = math.exp(-alpha * alpha)
        prof = rn_profile(GaussSequence(alpha), window=10)
        for v in prof.values:
            assert abs(v - target) <= 1e-14 * target

    for r in (2.0, 0.5, 1.7, 0.3, 3.7):
        prof = rn_profile(ExplicitSequence([r ** k for k in range(14)]),
                          window=12)
        for v in prof.values:
            assert abs(v - 1.0) <= 1e-14
        assert prof.necessary_condition() == "fails-necessary-condition"

    prof = rn_profile(ExplicitSequence([1.0 / math.factorial(k)
                                        for k in range(14)]), window=12)
    for n, v in enumerate(prof.values):
        want = (n + 1.0) / (n + 2.0)
        assert abs(v - want) <= 1e-14 * want

    prof = rn_profile(ExpPowerSequence(alpha=0.3, p=1.5), window=14)
    assert prof.tail_trend == "increasing-toward-1"
    assert prof.max_value < 1.0

    rng = np.random.default_rng(42)
    for _ in range(200):
        n = int(rng.integers(0, 9))
        b = float(rng.uniform(0.2, 4.0))
        c = float(rng.uniform(0.05, 4.0))
        ms = GaussSequence(float(rng.uniform(0.2, 1.2)))
        (z1, z2), _ = three_term_transformed_roots(n, b, c, ms)
        expanded = RealPolynomial(
            [0.0] * n + [ms.term(n) * c, -ms.term(n + 1) * b, ms.term(n + 2)])
        found = []
        for e in find_roots(expanded).zeros:
            if e.location == 0.0:
                assert e.multiplicity == n
            else:
                found.extend([e.location] * e.multiplicity)
        for w in (z1, z2):
            assert min(abs(f - w) for f in found) <= 1e-9 * max(1.0, abs(w))


def test_double_sector_fold_angle_never_shrinks():
    quarter = math.pi / 4.0
    for ms in (ExplicitSequence([1.0] * 5), GaussSequence(0.5),
               LaguerreQSequence(0.5)):
        before, after = double_sector_demo(ms)
        assert abs(before - quarter) <= 1e-12
        assert abs(after - quarter) <= 1e-12

    rng = np.random.default_rng(20260814)
    for _ in range(50):
        size = int(rng.integers(5, 11))
        terms = np.exp(rng.uniform(np.log(0.05), np.log(20.0), size=size))
        _, after = double_sector_demo(ExplicitSequence([float(t)
                                                        for t in terms]))
        assert abs(after - quarter) <= 1e-12


def test_modulus_identity_and_disc_sign_rule():
    # residual must stay tiny on every draw; on draws clear of the disc
    # boundary (|bracket| > 1e-10) its sign must match strict membership,
    # adjudicated against an extended-precision disc
    rng = np.random.default_rng(31415)
    ld = np.longdouble
    inside_hits = outside_hits = 0
    for _ in range(10000):
        a = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
        b = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
        alpha = float(rng.uniform(0.0, math.pi))
        d = jensen_sector_disc(a, b, alpha)
        if not d.empty and rng.uniform() < 0.7:
            z = complex(d.center + float(rng.normal()) * d.radius,
                        abs(float(rng.normal())) * d.radius)
        else:
            z = complex(float(rng.normal()) * 5.0, float(rng.normal()) * 5.0)
        assert jsd_modulus_identity_check(a, b, alpha, z) <= 1e-11
        val = jsd_bracket(a, b, alpha, z)
        if z.imag <= 0.0 or abs(val) <= 1e-10:
            continue
        mod2 = ld(a) * ld(a) + ld(b) * ld(b)
        center = np.cos(ld(alpha)) * mod2 / ld(a)
        rad2 = center * center - mod2
        slack = (ld(z.real) - center) ** 2 + ld(z.imag) ** 2 - rad2
        inside = bool(rad2 > 0.0) and bool(slack < 0.0)
        assert (val < 0.0) == inside
        if inside:
            inside_hits += 1
        else:
            outside_hits += 1
    print(f"sign rule exercised inside={inside_hits} outside={outside_hits}")
    assert inside_hits >= 500 and outside_hits >= 500


def test_cosine_power_limit_converges():
    target = math.exp(-0.5)
    assert abs(cosine_power_limit(1.0, 100) - target) <= 1e-4
    assert abs(cosine_power_limit(1.0, 1000) - target) <= 1e-6


def test_cli_report_and_svg_are_byte_identical(tmp_path):
    first = run("verify", "zsro", "--trials", "1000", "--seed", "42")
    second = run("verify", "zsro", "--trials", "1000", "--seed", "42")
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout

    paths = [tmp_path / "a.svg", tmp_path / "b.svg"]
    for path in paths:
        r = run("plot", "--coeffs", "2,-2,1", "--alpha", "0.392699",
                "--show-discs", "-o", str(path))
        assert r.returncode == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_readme_python_api_example_runs():
    # README's `## Python API` block, executed as written; its results are
    # the ones its comments state
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("## Python API", 1)[1].split("```python\n", 1)[1]
    names = {}
    exec(block.split("```", 1)[0], names)
    assert math.isclose(names["theta"], math.pi / 4.0, rel_tol=1e-12)
    assert not names["report"].found_counterexample()
    assert names["forced"].found_counterexample()
