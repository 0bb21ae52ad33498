"""Golden report bytes: sha256 of ``report.to_json()`` for seeded campaigns.

A refactor of the campaign code must leave every report byte as it was.
The ``-forced`` cases set ``tolerance=-1.0`` so that every tested
trial crosses the tolerance and the report carries a certificate; the
search at seed 1 finds one on its own.  Generated polynomials are expanded
in ``long double`` (``from_sector_roots``), so the digests hold only where
it is the 80-bit x87 format.  The chunk test of ``tests/test_analysis.py``
reads its digests from the tables below, so a re-pin is one edit here.
"""

import hashlib

import numpy as np
import pytest

from sectorlab import (PolyGenSpec, draw_sector_spec, from_sector_roots,
                       parse_sequence_spec, roots, search_counterexample,
                       verify_theorem)

from paper import deflate_origin

pytestmark = pytest.mark.skipif(
    np.finfo(np.longdouble).nmant != 63,
    reason="digests were recorded with an 80-bit long double")

_WIDE = dict(deg_hi=16, theta=1.4)

# (case, theorem id, generator settings, params, trials, sha256)
VERIFY_CASES = [
    ("jsd", "jsd", _WIDE, None, 100,
     "100c04fc9cf41d8dc598589fc957969806dd56ab8793c983ebbfe3e7a4231faa"),
    ("jsd-quadratic", "jsd", {}, {"quadratic": True}, 50,
     "0517e205ecd8c05956144ec2b9ffdc1c51efad9f4ed9bf1377f643fb0609e49c"),
    ("zsro", "zsro", _WIDE, None, 100,
     "46926d72e691c96d3c7a1898dc92f2aa712bf2a8c508909314a33b1d48f6161b"),
    ("cosak", "cosak", _WIDE, None, 50,
     "39c1919423bf5d4f0b2cc73d6c2339f68c54c6d93a990d88dbaecd02204c012c"),
    ("lms2", "lms2", dict(deg_hi=12, theta=0.0, real_fraction=1.0), None, 100,
     "0b38e6d464e47aebe25cf40de6dbb02db30ad4b99ff560c190d650d50ceecac5"),
    ("period-strip", "period-strip", _WIDE, None, 50,
     "39416fef81f843476f63c985fd368f02328d8b945c637b51209d7f8fd4a95c99"),
    ("roms", "roms", dict(deg_hi=16, theta=0.785398), None, 50,
     "454d910e40601a5551a3fc685df3d3066795d52ddb82ce990676ecbda07e5b0b"),
    ("zsro-forced", "zsro", _WIDE, None, 20,
     "0ce5c724d324268e2944df692e1d7c74c6e983c98451c63442ada7a2b206cd69"),
    ("jsd-forced", "jsd", _WIDE, None, 20,
     "f762579099c904dd076e5665061b275ff49addc7400b1c9dbd71f7edfe021116"),
    ("roms-forced", "roms", dict(deg_hi=16, theta=0.785398), None, 10,
     "c6085e3a5bf63639f10e657922bcc494ccf3ab8531f63e08e33ab3333dafb267"),
    ("cosak-forced", "cosak", _WIDE, None, 20,
     "68796552ed165715718241fb6c554c9545f505dbb28644cc24908bb46834d09d"),
    ("lms2-forced", "lms2", dict(deg_hi=12, theta=0.0, real_fraction=1.0),
     None, 20,
     "a924fe2ee43d077617ed25421209e927a973c047b55d8be131b494743a31f9eb"),
    ("jsd-quadratic-forced", "jsd", {}, {"quadratic": True}, 20,
     "94a975221228fa566c9fcd0e6130cb663e928a1438ed030bfe90bab129eb1aea"),
]

# (seed, sha256, trial index of the certificate or None)
SEARCH_CASES = [
    (42, "5e0a15d15894282ce70dadbc64051c284726e20aa0bc4778649f8409d2e33eec",
     None),
    (1, "ef65a39b8813be391a5e98ad98fe26a3db56a3cc7089d7a30b8f5e08a373e48d",
     181),
]


def _digest(report) -> str:
    return hashlib.sha256(report.to_json().encode("utf-8")).hexdigest()


@pytest.mark.parametrize("case,theorem,generator,params,trials,digest",
                         VERIFY_CASES, ids=[c[0] for c in VERIFY_CASES])
def test_verify_report_bytes(case, theorem, generator, params, trials, digest):
    forced = case.endswith("-forced")
    report = verify_theorem(theorem, PolyGenSpec(seed=42, **generator),
                            dict(params) if params else None, trials=trials,
                            tolerance=-1.0 if forced else None)
    if forced:
        assert report.found_counterexample()
    assert _digest(report) == digest


@pytest.mark.parametrize("seed,digest,cex_trial", SEARCH_CASES,
                         ids=[f"seed{c[0]}" for c in SEARCH_CASES])
def test_search_report_bytes(seed, digest, cex_trial):
    report = search_counterexample(
        parse_sequence_spec("exppower:alpha=0.3,p=1.5"),
        PolyGenSpec(seed=seed, deg_hi=12, theta=0.6), trials=200)
    cex = report.counterexample
    assert (None if cex is None else cex.trial_index) == cex_trial
    assert _digest(report) == digest


def test_few_solves_of_the_benchmark_pool_use_the_whole_budget():
    # the 400 polynomials of the benchmark's solve workload; on the step
    # test alone 167 of them ran all _MAX_ITERATIONS Aberth sweeps, and 10
    # with the step-guarded stall exit.  Only #360 is left, whose inclusion
    # discs never come apart
    sweeps = []
    gen = PolyGenSpec(seed=42, deg_hi=16, theta=1.4)
    for i in range(400):
        p = from_sector_roots(draw_sector_spec(
            gen, np.random.default_rng([42, i])))
        q, _ = deflate_origin(p)
        sweeps.append(int(roots._aberth(q.coeffs[None, :])[1][0]))
    assert min(sweeps) > 0
    assert sum(n == roots._MAX_ITERATIONS for n in sweeps) <= 1


def test_the_stacked_finish_certifies_every_golden_campaign_row(monkeypatch):
    # the 100-trial golden jsd, zsro and lms2 campaigns: all 300 of their
    # solves reach the stacked finish, which certifies every one of them and
    # leaves none to the scalar finish
    finish = roots._finish_stacked
    sent, left = [], []

    def counted(*args):
        out = finish(*args)
        sent.append(len(out))
        left.append(sum(r is None for r in out))
        return out

    monkeypatch.setattr(roots, "_finish_stacked", counted)
    for case, theorem, generator, params, trials, _ in VERIFY_CASES:
        if case in ("jsd", "zsro", "lms2"):
            verify_theorem(theorem, PolyGenSpec(seed=42, **generator),
                           params, trials=trials)
    assert sum(sent) == 300 and sum(left) == 0
