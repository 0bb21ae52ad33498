"""Command line surface: formats, exit codes, determinism, file output."""

import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from sectorlab import PolyGenSpec, verify_theorem
from sectorlab.analysis import CAMPAIGNS

_CLI = [sys.executable, "-m", "sectorlab.cli"]


def run(*args, env_extra=None, **kwargs):
    env = dict(os.environ)
    env.pop("SECTORLAB_SEED", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(_CLI + list(args), capture_output=True, text=True,
                          env=env, **kwargs)


def test_readme_command_line_examples_print_what_they_show():
    # each `$ sectorlab ...` line of README's first command-line block,
    # followed by the stdout lines shown under it
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1]
    examples = block.split("```", 1)[0].strip().split("\n\n")
    assert len(examples) == 3
    for example in examples:
        command, *shown = example.splitlines()
        assert command.startswith("$ sectorlab ")
        r = run(*shlex.split(command)[2:])
        assert r.returncode == 0
        assert r.stdout.splitlines() == shown


def test_roots_text_output():
    r = run("roots", "--coeffs", "2,-2,1")
    assert r.returncode == 0
    assert r.stdout == "1+1i (×1), 1-1i (×1)\n"
    assert "max normalized residual" in r.stderr


def test_roots_of_huge_coefficients():
    r = run("roots", "--coeffs", "1e308,-1e308,1e308")
    assert r.returncode == 0
    assert r.stdout == "0.5+0.866025403784i (×1), 0.5-0.866025403784i (×1)\n"


def test_a_nan_residual_is_a_solver_failure():
    # sum |c_k| |z|^k overflows at the zeros, so each residual is NaN
    r = run("roots", "--coeffs=3.484956985489555e-36,-8.555198771167007e-291,"
            "-3.688332268644477e+122,1.3893518646189592e+30,"
            "-4.10662246874106e+292,-6.611093837414355e-36,"
            "-2.920670313815601e-166")
    assert r.returncode == 2
    assert "carries residual nan" in r.stderr


def test_roots_csv_output():
    r = run("roots", "--coeffs", "2,-2,1", "--format", "csv")
    assert r.returncode == 0
    assert r.stdout.splitlines() == [
        "re,im,multiplicity,residual", "1,1,1,0", "1,-1,1,0"]


def test_roots_json_output():
    r = run("roots", "--coeffs", "2,-2,1", "--format", "json")
    doc = json.loads(r.stdout)
    assert doc["degree"] == 2
    assert [(z["re"], z["im"], z["multiplicity"]) for z in doc["zeros"]] == [
        (1.0, 1.0, 1), (1.0, -1.0, 1)]


def test_roots_quartet_display_order():
    # conjugates print upper-half member first, reals ascending
    r = run("roots", "--coeffs", "4,0,0,0,1")
    assert r.returncode == 0
    assert r.stdout == ("-1+1i (×1), -1-1i (×1), "
                        "1+1i (×1), 1-1i (×1)\n")


def test_roots_from_document(tmp_path):
    doc = tmp_path / "p.json"
    doc.write_text('{"roots": {"pairs": [[1.0, 1.0]]}}')
    r = run("roots", "--input", str(doc))
    assert r.returncode == 0
    assert r.stdout.startswith("1+1i")


@pytest.mark.parametrize("doc", [
    '{"coeffs": [1, 1%s]}' % ("0" * 400),
    '{"roots": {"real": [2.0], "lead": 1%s}}' % ("0" * 400)],
    ids=["coefficient", "lead"])
def test_a_document_number_past_the_float_range_is_an_input_error(tmp_path,
                                                                  doc):
    # float() of such an integer raises OverflowError, not an input error
    path = tmp_path / "p.json"
    path.write_text(doc)
    r = run("roots", "--input", str(path))
    assert r.returncode == 1
    assert r.stderr.startswith("input error: ")
    assert "must be finite" in r.stderr and "Traceback" not in r.stderr


def test_a_document_integer_past_the_digit_limit_is_an_input_error(tmp_path):
    # json reads an integer of more than 4,300 digits as a plain ValueError
    path = tmp_path / "p.json"
    path.write_text('{"coeffs": [1, 1%s]}' % ("0" * 5000))
    r = run("roots", "--input", str(path))
    assert r.returncode == 1
    assert r.stderr.startswith("input error: ")
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("values", [[0, 0], [1, math.nan]],
                         ids=["zero", "nan"])
def test_coeffs_and_a_coefficient_document_fail_alike(tmp_path, values):
    # --coeffs goes through the document's coefficient rule
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"coeffs": values}))
    flag = run("roots", "--coeffs", ",".join(map(str, values)))
    doc = run("roots", "--input", str(path))
    assert flag.returncode == doc.returncode == 1
    assert flag.stderr == doc.stderr
    assert flag.stderr.startswith("input error: ")


def test_output_file_written(tmp_path):
    out = tmp_path / "zeros.csv"
    r = run("roots", "--coeffs", "2,-2,1", "--format", "csv", "-o", str(out))
    assert r.returncode == 0
    assert out.read_text().startswith("re,im,multiplicity,residual\n")


def test_input_error_exit_code():
    assert run("roots", "--coeffs", "1,,2").returncode == 1
    assert run("roots", "--coeffs", "0,0").returncode == 1
    assert run("roots").returncode == 1
    assert run("frobnicate").returncode == 1
    assert run("roots", "--coeffs", "1,1", "--format", "svg").returncode == 1


def test_hypothesis_violation_exit_code():
    r = run("apply", "--op", "cosstep:alpha=1.5,N=1",
            "--coeffs", "1,1,1,1,1,1,1")
    assert r.returncode == 3
    assert "alpha*n/N < pi/2" in r.stderr
    r = run("apply", "--op", "explicit:1,1", "--coeffs", "1,1,1")
    assert r.returncode == 3


def test_apply_gauss_collapse():
    r = run("apply", "--op", "gauss:alpha=0.832555", "--coeffs", "2,-2,1")
    assert r.returncode == 0
    lines = dict(l.split(" ", 1) for l in r.stdout.strip().splitlines())
    assert lines["operator"] == "gauss:alpha=0.832555"
    assert lines["coeffs_before"] == "2,-2,1"
    assert lines["degree_drop"] == "0"
    assert lines["theta_before"] == "0.785398163397"
    assert lines["theta_after"] == "0"
    assert lines["predicted"] == "0"
    # alpha is slightly above sqrt(ln 2), so the pair lands as two reals
    assert lines["roots_after"] == "2.82615396995 (×1), 2.83070577347 (×1)"


def test_apply_gauss_past_the_exponential_range():
    # e^{alpha^2/2} overflows at alpha = 40: the predicted sector is 0
    r = run("apply", "--op", "gauss:alpha=40", "--coeffs", "2,-2,1")
    assert r.returncode == 0
    assert "predicted 0\n" in r.stdout
    assert "Traceback" not in r.stderr


def test_apply_explicit_degree_drop():
    r = run("apply", "--op", "explicit:1,0", "--coeffs", "1,1")
    lines = dict(l.split(" ", 1) for l in r.stdout.strip().splitlines())
    assert lines["coeffs_after"] == "1"
    assert lines["degree_drop"] == "1"
    assert lines["theta_before"] == "n/a"


def test_apply_json_format():
    r = run("apply", "--op", "gauss:alpha=0.5", "--coeffs", "2,-2,1",
            "--format", "json")
    doc = json.loads(r.stdout)
    assert doc["operator"] == "gauss:alpha=0.5"
    assert doc["degree_drop"] == 0
    assert math.isclose(doc["theta_before"], math.pi / 4.0, rel_tol=1e-12)
    assert math.isclose(doc["predicted"], 0.6414032478174578, rel_tol=1e-12)


def test_sector_command():
    r = run("sector", "--coeffs", "2,-2,1")
    assert r.returncode == 0
    assert r.stdout == "0.785398163397\n"
    r = run("sector", "--coeffs", "4,0,0,0,1", "--double")
    assert r.stdout == "0.785398163397\n"
    # +/- i sits outside the open right half-plane
    r = run("sector", "--coeffs", "1,0,1")
    assert r.returncode == 1
    assert "right half-plane" in r.stderr


def test_verify_report_runs_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        r = run("verify", "zsro", "--trials", "40", "--seed", "42",
                "-o", str(path))
        assert r.returncode == 0
        assert "worst margin" in r.stderr
    assert a.read_bytes() == b.read_bytes()
    doc = json.loads(a.read_text())
    assert doc["theorem_id"] == "zsro"
    assert doc["seed"] == 42
    assert doc["counterexample"] is None


def test_verify_jsd_quadratic_sharpness():
    r = run("verify", "jsd", "--quadratic", "--trials", "30", "--seed", "42")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["params"]["quadratic"] is True
    assert doc["worst_margin"] >= -1e-8


@pytest.mark.parametrize("theorem,theta,deg_hi", [
    ("jsd", 1.4, 16), ("lms2", 0.0, 12), ("zsro", 0.785398, 16)])
def test_verify_generator_defaults(theorem, theta, deg_hi):
    r = run("verify", theorem, "--trials", "1", "--seed", "3")
    assert r.returncode == 0
    generator = json.loads(r.stdout)["params"]["generator"]
    assert (generator["theta"], generator["deg_hi"]) == (theta, deg_hi)


def test_verify_tol_residual_reaches_campaign_solves():
    strict = run("verify", "zsro", "--trials", "20", "--seed", "42",
                 "--tol-residual", "1e-30")
    assert strict.returncode == 0
    assert json.loads(strict.stdout)["skipped"] == 20
    plain = run("verify", "zsro", "--trials", "20", "--seed", "42")
    assert plain.stdout == verify_theorem(
        "zsro", PolyGenSpec(seed=42), trials=20).to_json()


def test_verify_tol_angle_reaches_the_campaign():
    # every tested trial violates tolerance -1, so the run certifies one
    r = run("verify", "zsro", "--trials", "5", "--seed", "42",
            "--tol-angle", "-1")
    assert r.returncode == 4
    assert '"tolerance": -1.0' in r.stdout
    assert json.loads(r.stdout)["counterexample"] is not None


@pytest.mark.parametrize("flags", [["--op", "laguerre:q=0.5"], ["--N", "3"]])
def test_verify_rejects_flags_the_campaign_never_reads(flags):
    r = run("verify", "zsro", "--trials", "20", "--seed", "42", *flags)
    assert r.returncode == 1
    assert r.stdout == ""
    assert r.stderr.startswith("usage: sectorlab")
    assert f"unrecognized arguments: {flags[0]}" in r.stderr


@pytest.mark.parametrize("argv", [
    ["roots", "--coeffs", "1,0,1", "--tol-residual", "0"],
    ["roots", "--coeffs", "1,0,1", "--tol-residual", "-1"],
    ["roots", "--coeffs", "1,0,1", "--tol-residual", "nan"],
    ["verify", "zsro", "--trials", "5", "--tol-residual", "nan"],
    ["verify", "zsro", "--trials", "0"],
    ["verify", "zsro", "--trials", "-5"],
    ["search", "--op", "exppower:alpha=0.3,p=1.5", "--trials", "0"],
    ["verify", "zsro", "--trials", "20", "--seed", "42", "--tol-angle", "nan"],
    ["verify", "zsro", "--trials", "20", "--seed", "42", "--tol-angle", "inf"]],
    ids=["tol0", "tol-1", "tolnan", "verify-tolnan", "trials0", "trials-5",
         "search-trials0", "tol-angle-nan", "tol-angle-inf"])
def test_bad_tolerances_and_trial_counts_are_input_errors(argv):
    r = run(*argv)
    assert r.returncode == 1
    assert r.stdout == ""
    assert r.stderr.startswith("input error:")


@pytest.mark.parametrize("argv", [
    ["lms2", "--lam", "nan"], ["lms2", "--lam", "inf"],
    ["jsd", "--lam", "nan"], ["jsd", "--alpha", "inf"],
    ["cosak", "--alpha", "nan"], ["zsro", "--alpha", "inf"]],
    ids=["lms2-lam-nan", "lms2-lam-inf", "jsd-lam-nan", "jsd-alpha-inf",
         "cosak-alpha-nan", "zsro-alpha-inf"])
def test_non_finite_campaign_params_are_input_errors(argv):
    r = run("verify", *argv, "--trials", "5", "--seed", "42")
    assert r.returncode == 1
    assert r.stdout == ""
    assert r.stderr.startswith("input error:")
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("argv", [
    ["apply", "--coeffs", "2,-2,1", "--op", "exppower:alpha=inf,p=1"],
    ["apply", "--coeffs", "2,-2,1", "--op", "exppower:alpha=1,p=inf"],
    ["apply", "--coeffs", "2,-2,1", "--op", "explicit:nan,1,1"],
    ["apply", "--coeffs", "2,-2,1", "--op", "cosaffine:lambda=nan,theta=1"],
    ["search", "--op", "exppower:alpha=inf,p=1.5", "--trials", "5"],
    ["verify", "roms", "--op", "cosaffine:lambda=0,theta=nan", "--trials",
     "5"],
    ["plot", "--coeffs", "2,-2,1", "--op", "explicit:1,nan,1"],
    ["verify", "double-sector", "--op", "explicit:1,1,1,1,nan"]],
    ids=["apply-alpha-inf", "apply-p-inf", "apply-explicit-nan",
         "apply-lambda-nan", "search-alpha-inf", "roms-theta-nan",
         "plot-explicit-nan", "double-sector-nan"])
def test_non_finite_operator_params_are_input_errors(argv):
    r = run(*argv)
    assert r.returncode == 1
    assert r.stdout == ""
    assert r.stderr.startswith("input error:")
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("argv", [
    ["roots", "--coeffs", "2,-2,1", "--tol-angle", "0.1"],
    ["apply", "--coeffs", "2,-2,1", "--op", "gauss:alpha=0.5",
     "--tol-angle", "0.1"],
    ["sector", "--coeffs", "2,-2,1", "--tol-angle", "0.1"],
    ["search", "--op", "exppower:alpha=0.3,p=1.5", "--trials", "1",
     "--tol-angle", "0.1"],
    ["plot", "--coeffs", "2,-2,1", "--tol-angle", "0.1"],
    ["apply", "--coeffs", "2,-2,1", "--op", "gauss:alpha=0.5",
     "--format", "csv"],
    ["verify", "zsro", "--trials", "1", "--format", "text"],
    ["plot", "--coeffs", "2,-2,1", "--format", "json"]],
    ids=["roots-tol-angle", "apply-tol-angle", "sector-tol-angle",
         "search-tol-angle", "plot-tol-angle", "apply-csv", "verify-text",
         "plot-json"])
def test_flags_a_subcommand_does_not_read_are_usage_errors(argv):
    r = run(*argv)
    assert r.returncode == 1
    assert r.stdout == ""
    assert r.stderr.startswith("usage: sectorlab")
    assert "error: " in r.stderr and argv[-2] in r.stderr


@pytest.mark.parametrize("argv", [
    ["verify", "zsro", "--trials", "1"],
    ["search", "--op", "exppower:alpha=0.3,p=1.5", "--trials", "1"]],
    ids=["verify", "search"])
def test_degree_max_zero_is_rejected(argv):
    r = run(*argv, "--degree-max", "0")
    assert r.returncode == 1
    assert r.stdout == ""
    assert r.stderr == "error: need 1 <= deg_lo <= deg_hi\n"


def test_verify_double_sector_verdict():
    r = run("verify", "double-sector")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["verdict"] == "no reduction (as proven)"
    assert abs(doc["before"] - math.pi / 4.0) <= 1e-12
    assert abs(doc["after"] - math.pi / 4.0) <= 1e-12


@pytest.mark.parametrize("flags", [
    ["--seed", "1"], ["--trials", "5"], ["--theta", "0.5"],
    ["--degree-max", "8"], ["--alpha", "0.3"], ["--lam", "0.5"],
    ["--N", "0"], ["--quadratic"], ["--tol-angle", "0"]])
def test_verify_double_sector_rejects_campaign_flags(flags):
    r = run("verify", "double-sector", *flags)
    assert r.returncode == 1
    assert r.stdout == ""
    assert r.stderr.startswith("usage: sectorlab")
    assert f"unrecognized arguments: {flags[0]}" in r.stderr


def test_verify_double_sector_tol_residual_reaches_its_solves():
    # the zeros of 4 + 3 z^4 carry a residual of about 1e-16
    op = ["--op", "explicit:1,1,1,1,3"]
    assert run("verify", "double-sector", *op).returncode == 0
    r = run("verify", "double-sector", *op, "--tol-residual", "1e-30")
    assert r.returncode == 2
    assert r.stdout == ""
    assert "acceptance threshold 1.000e-30" in r.stderr


def test_verify_double_sector_sign_flip_is_a_hypothesis_violation():
    r = run("verify", "double-sector", "--op", "explicit:1,1,1,1,-3")
    assert r.returncode == 3
    assert r.stdout == ""
    assert r.stderr == ("hypothesis violation: endpoint terms differ in sign: "
                        "gamma_0=1.0, gamma_4=-3.0\n")


def test_verify_unknown_theorem():
    assert run("verify", "nonsense", "--trials", "1").returncode == 1
    assert run("verify", "periodstrip", "--trials", "1").returncode == 1


# the flags of each verify parser beyond --help, --format, -o/--output and
# --tol-residual: the seeded campaigns' generator flags, then one per param
_SEEDED_FLAGS = {"--tol-angle", "--trials", "--seed", "--theta",
                 "--degree-max"}
_VERIFY_FLAGS = {
    "jsd": _SEEDED_FLAGS | {"--quadratic", "--alpha", "--lam"},
    "zsro": _SEEDED_FLAGS | {"--alpha"},
    "cosak": _SEEDED_FLAGS | {"--alpha", "--N"},
    "lms2": _SEEDED_FLAGS | {"--lam"},
    "period-strip": _SEEDED_FLAGS | {"--alpha"},
    "roms": _SEEDED_FLAGS | {"--op", "--alpha"},
    "double-sector": {"--op"},
}


@pytest.mark.parametrize("theorem", [*CAMPAIGNS, "double-sector"])
def test_verify_parser_has_exactly_its_campaign_flags(theorem):
    r = run("verify", theorem, "--help")
    assert r.returncode == 0
    flags = set(re.findall(r"(?<![\w-])--[A-Za-z][\w-]*", r.stdout))
    assert flags == _VERIFY_FLAGS[theorem] | {
        "--help", "--format", "--output", "--tol-residual"}


def test_search_reports_diagnostics():
    r = run("search", "--op", "exppower:alpha=0.3,p=1.5", "--trials", "10",
            "--seed", "7")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["theorem_id"] == "search"
    assert doc["params"]["rn_tail_trend"] == "increasing-toward-1"
    assert doc["params"]["rn_necessary_condition"] == "fails-necessary-condition"
    assert len(doc["params"]["three_term_probe"]["ladder"]) == 13
    assert run("search", "--op", "gauss:alpha=0.5",
               "--trials", "1").returncode == 1


def test_search_raises_hypothesis_violations():
    # three terms cannot act on the drawn degrees above 2
    r = run("search", "--op", "explicit:1,0.5,0.25", "--trials", "20",
            "--seed", "1")
    assert r.returncode == 3
    assert r.stdout == ""
    assert r.stderr.startswith("hypothesis violation: explicit sequence")


def test_plot_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    for path in (a, b):
        r = run("plot", "--coeffs", "2,-2,1", "--alpha", "0.392699",
                "--show-discs", "-o", str(path))
        assert r.returncode == 0
    assert a.read_bytes() == b.read_bytes()
    svg = a.read_text()
    assert svg.startswith("<svg ")
    assert 'width="800" height="800"' in svg
    assert svg.count("<circle") >= 3  # disc + two zeros at least


def test_plot_draws_a_disc_near_tangency():
    # alpha 0.78539 is 4e-6 inside theta = pi/4 of the zeros 1 +/- i
    r = run("plot", "--coeffs", "2,-2,1", "--alpha", "0.78539", "--show-discs")
    assert r.returncode == 0
    assert r.stdout.startswith("<svg ")


def test_plot_requires_alpha_for_discs():
    assert run("plot", "--coeffs", "2,-2,1", "--show-discs").returncode == 1


def test_plot_alpha_requires_show_discs():
    r = run("plot", "--coeffs", "2,-2,1", "--alpha", "0.3")
    assert r.returncode == 1
    assert r.stdout == ""
    assert r.stderr.startswith("input error: --alpha")


@pytest.mark.parametrize("alpha", ["nan", "inf", "-inf"])
def test_plot_non_finite_disc_angle_is_an_error(tmp_path, alpha):
    out = tmp_path / "p.svg"
    r = run("plot", "--coeffs", "2,-2,1", f"--alpha={alpha}", "--show-discs",
            "-o", str(out))
    assert r.returncode == 1
    assert r.stderr.startswith("error: angle must be finite")
    assert "Traceback" not in r.stderr
    assert not out.exists()


@pytest.mark.parametrize("alpha", ["nan", "inf", "-inf"])
def test_plot_checks_the_disc_angle_without_a_conjugate_pair(tmp_path, alpha):
    # 2 - 3z + z^2 has the real zeros 1 and 2, so no disc is ever drawn
    out = tmp_path / "p.svg"
    r = run("plot", "--coeffs", "2,-3,1", f"--alpha={alpha}", "--show-discs",
            "--output", str(out))
    assert r.returncode == 1
    assert r.stderr.startswith("error: angle must be finite")
    assert not out.exists()


def test_plot_left_half_plane_annotates_instead_of_failing():
    r = run("plot", "--coeffs", "1,0,1")
    assert r.returncode == 0
    assert "<svg" in r.stdout
