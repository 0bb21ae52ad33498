"""Dense polynomials with real or complex coefficients.

Coefficients are stored in ascending degree order, so ``coeffs[k]`` multiplies
``z**k``.  Trailing zero coefficients are stripped on construction and the
zero polynomial is rejected everywhere.  Values are immutable: the backing
arrays are marked read-only.

Besides the two value types the module provides construction from
sector-constrained root data (nonnegative real roots plus conjugate pairs
``a +/- ib`` with ``a, b > 0``) and a small JSON document format used by the
command line tools.

``from_sector_roots`` expands one spec in ``long double``, one
``np.convolve`` per factor.  ``from_sector_roots_many`` expands a batch:
the specs of each degree on one stacked ``long double`` array, in
``np.convolve``'s summation order, so every polynomial is bitwise the lone
one.  A degree with a single spec takes the lone expansion, whose short
loop is cheaper than setting up a stack (33 against 95 microseconds).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, InvalidRootSpecError, ZeroPolynomialError

__all__ = [
    "RealPolynomial",
    "ComplexPolynomial",
    "SectorRootSpec",
    "from_sector_roots",
    "from_sector_roots_many",
    "to_document",
    "from_document",
]


def _normalized(arr: np.ndarray) -> np.ndarray:
    if arr.ndim != 1:
        raise ValueError("coefficients must form a one-dimensional sequence")
    if not np.isfinite(arr).all():
        raise ValueError("non-finite coefficient")
    nonzero = arr.nonzero()[0]
    if nonzero.size == 0:
        raise ZeroPolynomialError("the zero polynomial has no zeros and no degree")
    out = arr[: nonzero[-1] + 1].copy()
    out.flags.writeable = False
    return out


def _horner(c: list, z):
    """(p(z), p'(z)) by Horner's scheme over the ascending coefficients ``c``.

    ``c`` is a list of Python scalars (``coeffs.tolist()``, made once by the
    caller), so real coefficients at a real ``z`` give a float p(z); the
    derivative is always complex.
    """
    pv, dv = c[-1], 0j
    for ck in reversed(c[:-1]):
        dv = dv * z + pv
        pv = pv * z + ck
    return pv, dv


class _Polynomial:
    """Shared body of the two value types; ``_dtype`` fixes the coefficients'."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = _normalized(np.array(coeffs, dtype=self._dtype))

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1

    def eval(self, z):
        """Evaluate by Horner's scheme; exact for degree 0."""
        return _horner(self.coeffs.tolist(), z)[0]

    def scale(self) -> float:
        """Coefficient magnitude scale: max_k |c_k|."""
        return float(np.max(np.abs(self.coeffs)))

    def __eq__(self, other):
        return (isinstance(other, type(self))
                and self.coeffs.shape == other.coeffs.shape
                and bool(np.all(self.coeffs == other.coeffs)))

    __hash__ = None

    def __repr__(self):
        return f"{type(self).__name__}({self.coeffs.tolist()!r})"


class RealPolynomial(_Polynomial):
    """Real-coefficient polynomial, ascending order, trailing zeros stripped."""

    __slots__ = ()
    _dtype = np.float64


class ComplexPolynomial(_Polynomial):
    """Complex-coefficient polynomial, ascending order, trailing zeros stripped."""

    __slots__ = ()
    _dtype = np.complex128

    def is_real_within(self, tol: float = 0.0) -> bool:
        """True when every imaginary part is at most tol * coefficient scale."""
        return bool(np.max(np.abs(self.coeffs.imag)) <= tol * self.scale())


@dataclass(frozen=True)
class SectorRootSpec:
    """Roots given as nonnegative reals plus conjugate pairs a +/- ib.

    ``real_roots`` holds the x_k >= 0; ``pairs`` holds (a_k, b_k) with
    a_k > 0, b_k > 0 describing a_k + i b_k and its conjugate.
    """

    real_roots: tuple = ()
    pairs: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "real_roots",
                           tuple(float(x) for x in self.real_roots))
        object.__setattr__(self, "pairs",
                           tuple((float(a), float(b)) for a, b in self.pairs))
        for x in self.real_roots:
            if not math.isfinite(x) or x < 0.0:
                raise InvalidRootSpecError(f"real root {x!r} must be finite and >= 0")
        for a, b in self.pairs:
            if not (math.isfinite(a) and math.isfinite(b)) or a <= 0.0 or b <= 0.0:
                raise InvalidRootSpecError(
                    f"pair ({a!r}, {b!r}) must have a > 0 and b > 0")

    @property
    def degree(self) -> int:
        return len(self.real_roots) + 2 * len(self.pairs)

    def max_angle(self) -> float:
        """Largest |arg| over the described roots (0 when all roots are real)."""
        ang = 0.0
        for a, b in self.pairs:
            ang = max(ang, math.atan2(b, a))
        return ang

    def all_roots(self) -> list:
        """Every described root as a complex number, conjugates included."""
        out = [complex(x, 0.0) for x in self.real_roots]
        for a, b in self.pairs:
            out.append(complex(a, b))
            out.append(complex(a, -b))
        return out


def _checked_lead(lead) -> float:
    lead = float(lead)
    if lead == 0.0 or not math.isfinite(lead):
        raise InvalidRootSpecError("lead coefficient must be nonzero and finite")
    return lead


def _expand(spec: SectorRootSpec, lead: float) -> RealPolynomial:
    """The lone expansion: one ``np.convolve`` per factor."""
    ld = np.longdouble
    factors = []
    for x in spec.real_roots:
        factors.append((abs(x), np.array([-x, 1.0], dtype=ld)))
    for a, b in spec.pairs:
        aa, bb = ld(a), ld(b)
        factors.append((math.hypot(a, b),
                        np.array([aa * aa + bb * bb, -2.0 * aa, ld(1.0)], dtype=ld)))
    factors.sort(key=lambda t: t[0])
    acc = np.array([ld(1.0)], dtype=ld)
    for _, f in factors:
        acc = np.convolve(acc, f)
    return RealPolynomial((acc * ld(lead)).astype(np.float64))


def _expand_stacked(specs: list, lead: float) -> list:
    """``_expand`` for specs of one degree d on one (B, d+3) long double
    stack: two zero columns, then the coefficients, ascending.  Row r's
    factors (c0, c1, c2) are a real root's (-x, 1, 0) and a pair's
    (a^2+b^2, -2a, 1), in the order of _expand's sort, then (1, 0, 0) up to
    the longest row.  A step sets acc[j] = ((0 + acc[j-2] c2) + acc[j-1] c1)
    + acc[j] c0, which is np.convolve's sum: long double dot products start
    at 0 and add in increasing index of the longer operand, and where
    np.convolve swaps its operands (acc shorter than the factor) no output
    has two nonzero terms.  Returns each row's polynomial or the exception
    _expand raises for it."""
    ld = np.longdouble
    B, d = len(specs), specs[0].degree
    n_real = np.array([len(s.real_roots) for s in specs])
    n_pair = np.array([len(s.pairs) for s in specs])
    # factor slots in _expand's list order: row r's reals, then its pairs
    row_r = np.repeat(np.arange(B), n_real)
    col_r = np.arange(row_r.size) - np.repeat(np.cumsum(n_real) - n_real, n_real)
    row_p = np.repeat(np.arange(B), n_pair)
    col_p = (np.arange(row_p.size) - np.repeat(np.cumsum(n_pair) - n_pair, n_pair)
             + n_real[row_p])
    x = np.array([v for s in specs for v in s.real_roots])
    pairs = [ab for s in specs for ab in s.pairs]
    a = np.array([ab[0] for ab in pairs], dtype=ld)
    b = np.array([ab[1] for ab in pairs], dtype=ld)
    F = int((n_real + n_pair).max())
    keys = np.full((B, F), np.inf)
    keys[row_r, col_r] = np.abs(x)
    keys[row_p, col_p] = [math.hypot(*ab) for ab in pairs]
    c0, c1, c2 = np.ones((B, F), ld), np.zeros((B, F), ld), np.zeros((B, F), ld)
    c0[row_r, col_r], c1[row_r, col_r] = -x, 1.0
    c0[row_p, col_p], c1[row_p, col_p], c2[row_p, col_p] = a * a + b * b, -2.0 * a, 1.0
    # _expand's stable sort; the (1, 0, 0) slots keep their places at the end
    order = np.argsort(keys, axis=1, kind="stable")
    c0, c1, c2 = (np.take_along_axis(c, order, axis=1).T[:, :, None]
                  for c in (c0, c1, c2))
    acc = np.zeros((B, d + 3), dtype=ld)
    acc[:, 2] = 1.0
    # np.convolve's dot products raise no floating-point warnings
    with np.errstate(all="ignore"):
        for f0, f1, f2 in zip(c0, c1, c2):
            acc[:, 2:] = (((0.0 + acc[:, :-2] * f2) + acc[:, 1:-1] * f1)
                          + acc[:, 2:] * f0)
    out = []
    for row in (acc[:, 2:] * ld(lead)).astype(np.float64):
        try:
            out.append(RealPolynomial(row))
        except ValueError as exc:
            out.append(exc)
    return out


def from_sector_roots(spec: SectorRootSpec, lead: float = 1.0) -> RealPolynomial:
    """Expand lead * prod (z - x_k) * prod ((z - a_k)^2 + b_k^2).

    Factors are accumulated smallest root magnitude first, in extended
    precision, which keeps coefficients accurate for mixed-magnitude specs.
    """
    return _expand(spec, _checked_lead(lead))


def from_sector_roots_many(specs, lead: float = 1.0) -> list:
    """``from_sector_roots`` of every spec of ``specs`` with one ``lead``.

    Returns one entry per spec, in order: its polynomial, or the exception
    expanding it alone would have raised; each polynomial is bitwise the
    one ``from_sector_roots`` returns.  Specs of one degree are expanded on
    one stacked array; a degree with a single spec takes the lone
    expansion, whose short loop costs less than setting up a stack.
    """
    lead = _checked_lead(lead)
    out = [None] * len(specs)
    groups = {}
    for i, spec in enumerate(specs):
        groups.setdefault(spec.degree, []).append(i)
    for rows in groups.values():
        if len(rows) == 1:
            try:
                out[rows[0]] = _expand(specs[rows[0]], lead)
            except ValueError as exc:
                out[rows[0]] = exc
            continue
        for i, result in zip(rows, _expand_stacked([specs[i] for i in rows],
                                                   lead)):
            out[i] = result
    return out


def to_document(p) -> dict:
    """JSON-serializable document {"coeffs": [...]} for a real polynomial."""
    if isinstance(p, ComplexPolynomial):
        if not p.is_real_within(0.0):
            raise InputError("cannot serialize complex coefficients to a document")
        return {"coeffs": [float(v.real) for v in p.coeffs]}
    return {"coeffs": [float(v) for v in p.coeffs]}


def from_document(doc: dict) -> RealPolynomial:
    """Read {"coeffs": [...]} or {"roots": {"real": [...], "pairs": [[a,b],...],
    "lead": L}}."""
    if not isinstance(doc, dict):
        raise InputError("polynomial document must be a JSON object")
    if "coeffs" in doc:
        coeffs = doc["coeffs"]
        if (not isinstance(coeffs, list) or not coeffs
                or not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                           for v in coeffs)):
            raise InputError('"coeffs" must be a nonempty list of numbers')
        try:
            return RealPolynomial(coeffs)
        except (ZeroPolynomialError, ValueError) as exc:
            raise InputError(str(exc)) from exc
    if "roots" in doc:
        roots = doc["roots"]
        if not isinstance(roots, dict):
            raise InputError('"roots" must be a JSON object')
        try:
            spec = SectorRootSpec(tuple(roots.get("real", ())),
                                  tuple(tuple(p) for p in roots.get("pairs", ())))
            return from_sector_roots(spec, float(roots.get("lead", 1.0)))
        except (InvalidRootSpecError, TypeError, ValueError) as exc:
            raise InputError(f"bad root document: {exc}") from exc
    raise InputError('polynomial document needs a "coeffs" or "roots" key')
