"""Polynomial value types, sector-root construction, and documents."""

import math

import numpy as np
import pytest

from sectorlab import (
    ComplexPolynomial,
    InputError,
    InvalidRootSpecError,
    RealPolynomial,
    SectorRootSpec,
    ZeroPolynomialError,
    from_document,
    from_sector_roots,
    from_sector_roots_many,
    to_document,
)
from sectorlab.analysis import PolyGenSpec, draw_sector_spec


def test_trailing_zeros_stripped_and_degree():
    p = RealPolynomial([2.0, -2.0, 1.0, 0.0, 0.0])
    assert p.degree == 2
    assert p.coeffs.tolist() == [2.0, -2.0, 1.0]


def test_zero_polynomial_rejected():
    with pytest.raises(ZeroPolynomialError):
        RealPolynomial([0.0, 0.0])
    with pytest.raises(ZeroPolynomialError):
        ComplexPolynomial([0.0])


def test_nonfinite_and_bad_shape_rejected():
    with pytest.raises(ValueError):
        RealPolynomial([1.0, math.inf])
    with pytest.raises(ValueError):
        RealPolynomial([[1.0, 2.0]])


def test_coefficients_are_read_only():
    p = RealPolynomial([1.0, 1.0])
    with pytest.raises(ValueError):
        p.coeffs[0] = 5.0


def test_eval_matches_direct_power_sum():
    rng = np.random.default_rng(20260814)
    for _ in range(50):
        deg = int(rng.integers(0, 9))
        c = rng.normal(size=deg + 1)
        c[-1] = c[-1] if c[-1] != 0.0 else 1.0
        p = RealPolynomial(c)
        z = complex(rng.normal(), rng.normal())
        direct = sum(ck * z**k for k, ck in enumerate(p.coeffs))
        assert abs(p.eval(z) - direct) <= 1e-12 * max(1.0, abs(direct))


def test_eval_is_scalar_python_type():
    assert isinstance(RealPolynomial([1.0, 2.0]).eval(0.5), float)
    assert isinstance(RealPolynomial([1.0, 2.0]).eval(1j), complex)


def test_scale_is_max_abs_coefficient():
    assert RealPolynomial([2.0, -7.0, 1.0]).scale() == 7.0


def test_equality_by_exact_coefficients():
    assert RealPolynomial([1.0, 2.0]) == RealPolynomial([1, 2])
    assert RealPolynomial([1.0, 2.0]) != RealPolynomial([1.0, 2.0, 3.0])
    assert ComplexPolynomial([1j]) == ComplexPolynomial([1j])


def test_sector_root_spec_validation():
    with pytest.raises(InvalidRootSpecError):
        SectorRootSpec(real_roots=(-1.0,))
    with pytest.raises(InvalidRootSpecError):
        SectorRootSpec(pairs=((0.0, 1.0),))
    with pytest.raises(InvalidRootSpecError):
        SectorRootSpec(pairs=((1.0, -2.0),))


def test_sector_root_spec_angle_and_roots():
    spec = SectorRootSpec(real_roots=(2.0,), pairs=((1.0, 1.0),))
    assert spec.degree == 3
    assert math.isclose(spec.max_angle(), math.pi / 4.0, rel_tol=1e-15)
    assert spec.all_roots() == [(2 + 0j), (1 + 1j), (1 - 1j)]
    assert SectorRootSpec(real_roots=(1.0, 3.0)).max_angle() == 0.0


def test_from_sector_roots_small_cases():
    # (z - 1)(z - 2) and (z - 1)^2 + 1
    p = from_sector_roots(SectorRootSpec(real_roots=(1.0, 2.0)))
    assert np.allclose(p.coeffs, [2.0, -3.0, 1.0], rtol=0, atol=1e-15)
    q = from_sector_roots(SectorRootSpec(pairs=((1.0, 1.0),)))
    assert np.allclose(q.coeffs, [2.0, -2.0, 1.0], rtol=0, atol=1e-15)
    scaled = from_sector_roots(SectorRootSpec(real_roots=(1.0,)), lead=-3.0)
    assert scaled.coeffs.tolist() == [3.0, -3.0]


def test_from_sector_roots_rejects_zero_lead():
    with pytest.raises(InvalidRootSpecError):
        from_sector_roots(SectorRootSpec(real_roots=(1.0,)), lead=0.0)


def test_from_sector_roots_vanishes_at_described_roots():
    rng = np.random.default_rng(7)
    for _ in range(40):
        nreal = int(rng.integers(0, 4))
        npair = int(rng.integers(0, 4))
        if nreal + npair == 0:
            nreal = 1
        reals = tuple(float(v) for v in rng.uniform(0.1, 10.0, size=nreal))
        pairs = tuple(
            (float(a), float(b))
            for a, b in zip(rng.uniform(0.1, 10.0, size=npair),
                            rng.uniform(0.1, 10.0, size=npair))
        )
        spec = SectorRootSpec(real_roots=reals, pairs=pairs)
        p = from_sector_roots(spec, lead=float(rng.uniform(0.5, 2.0)))
        for z in spec.all_roots():
            # relative to the local derivative scale of the product
            assert abs(p.eval(z)) <= 1e-9 * p.scale() * max(1.0, abs(z)) ** p.degree


def test_from_sector_roots_mixed_magnitudes_stay_accurate():
    spec = SectorRootSpec(real_roots=(1e-3, 9.0), pairs=((5.0, 5.0), (0.2, 0.1)))
    p = from_sector_roots(spec)
    for z in spec.all_roots():
        assert abs(p.eval(z)) <= 1e-10 * p.scale() * max(1.0, abs(z)) ** p.degree


def test_document_round_trip():
    p = RealPolynomial([2.0, -2.0, 1.0])
    assert to_document(p) == {"coeffs": [2.0, -2.0, 1.0]}
    assert from_document(to_document(p)) == p


def _expansion_corpus():
    """Generated specs of mixed degrees, with edge specs: empty, roots at 0
    (also -0.0), repeated roots, 1e-3/1e3 mixes, and ones whose expansion
    overflows a float or a long double."""
    specs = []
    for seed in (42, 7):
        for kw in (dict(deg_hi=16, theta=1.4),
                   dict(deg_hi=12, theta=0.0, real_fraction=1.0),
                   dict(deg_lo=20, deg_hi=64, theta=1.2),
                   dict(deg_hi=24, theta=1.2, mag_lo=1e-3, mag_hi=1e3,
                        real_fraction=0.1)):
            gen = PolyGenSpec(seed=seed, **kw)
            specs += [draw_sector_spec(gen, np.random.default_rng([seed, t]))
                      for t in range(60)]
    edge = [SectorRootSpec(), SectorRootSpec((0.0,)), SectorRootSpec((-0.0, 2.0)),
            SectorRootSpec((0.0, 0.0, 1.0)), SectorRootSpec((1.0, 1.0, 1.0)),
            SectorRootSpec((), ((1.0, 1.0), (1.0, 1.0))),
            SectorRootSpec((1e-3, 1e3, 1e-3), ((1e-3, 1e3),)),
            SectorRootSpec((1e3,), ((1e-3, 1e-3), (1e3, 1e-3))),
            SectorRootSpec((5.0, 0.0), ((2.0, 1.0),)),
            SectorRootSpec((1e300,) * 3), SectorRootSpec((), ((1e300, 1e300),) * 2),
            # overflows long double too, on the way
            SectorRootSpec((), ((1e300, 1e300),) * 20)]
    # twice, so that each edge spec also shares a stack with its copy
    return specs + edge + edge


def _expand_alone(spec, lead):
    try:
        return from_sector_roots(spec, lead)
    except Exception as exc:
        return exc


def _coeff_bits(result):
    if isinstance(result, Exception):
        return type(result), str(result)
    return result.coeffs.view(np.int64).tolist()


@pytest.mark.filterwarnings("ignore:overflow encountered in cast")
@pytest.mark.parametrize("lead", [1.0, -3.0, 1e-5])
def test_from_sector_roots_many_bitwise_equals_lone_expansions(lead):
    specs = _expansion_corpus()
    batch = from_sector_roots_many(specs, lead)
    assert len(batch) == len(specs)
    assert [_coeff_bits(r) for r in batch] == \
        [_coeff_bits(_expand_alone(s, lead)) for s in specs]
    # the 1e300 edge specs overflow a float: their rows fail in place
    assert sum(isinstance(r, ValueError) for r in batch) == 6


def test_from_sector_roots_many_groups_of_one_take_the_lone_expansion(monkeypatch):
    from sectorlab import poly
    calls = []
    expand = poly._expand
    monkeypatch.setattr(poly, "_expand",
                        lambda spec, lead: calls.append(spec) or expand(spec, lead))
    specs = [SectorRootSpec((1.0, 2.0)), SectorRootSpec((), ((1.0, 1.0),)),
             SectorRootSpec((3.0,))]
    out = from_sector_roots_many(specs)
    assert calls == [specs[2]]
    assert [_coeff_bits(p) for p in out] == \
        [_coeff_bits(from_sector_roots(s)) for s in specs]
    with pytest.raises(InvalidRootSpecError):
        from_sector_roots_many(specs, lead=0.0)
    assert from_sector_roots_many([]) == []


def test_document_accepts_root_form():
    p = from_document({"roots": {"real": [1.0, 2.0], "pairs": [], "lead": 2.0}})
    assert np.allclose(p.coeffs, [4.0, -6.0, 2.0], rtol=0, atol=1e-15)
    q = from_document({"roots": {"pairs": [[1.0, 1.0]]}})
    assert np.allclose(q.coeffs, [2.0, -2.0, 1.0], rtol=0, atol=1e-15)


def test_document_rejects_malformed_input():
    for doc in (
        [],
        {},
        {"coeffs": []},
        {"coeffs": [0.0, 0.0]},
        {"coeffs": [1.0, True]},
        {"coeffs": "1,2"},
        {"roots": {"real": [-1.0]}},
        {"roots": 5},
    ):
        with pytest.raises(InputError):
            from_document(doc)


def test_complex_document_requires_real_coefficients():
    q = ComplexPolynomial([1.0, 1j])
    with pytest.raises(InputError):
        to_document(q)
    r = ComplexPolynomial([1.0 + 0j, 2.0 + 0j])
    assert to_document(r) == {"coeffs": [1.0, 2.0]}
