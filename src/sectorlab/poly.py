"""Dense polynomials with real or complex coefficients.

Coefficients are stored in ascending degree order, so ``coeffs[k]`` multiplies
``z**k``.  Trailing zero coefficients are stripped on construction and the
zero polynomial is rejected everywhere.  Values are immutable: the backing
arrays are marked read-only.

Besides the two value types the module provides construction from
sector-constrained root data (nonnegative real roots plus conjugate pairs
``a +/- ib`` with ``a, b > 0``), argument rotation ``p(z) -> p(e^{i phi} z)``,
coefficient sign classification, and a small JSON document format used by the
command line tools.
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
    "rotate_argument",
    "coefficient_sign_pattern",
    "to_document",
    "from_document",
]


def _normalized(arr: np.ndarray) -> np.ndarray:
    if arr.ndim != 1:
        raise ValueError("coefficients must form a one-dimensional sequence")
    if not np.all(np.isfinite(arr)):
        raise ValueError("non-finite coefficient")
    nonzero = np.nonzero(arr)[0]
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

    def to_complex(self) -> "ComplexPolynomial":
        return ComplexPolynomial(self.coeffs.astype(np.complex128))


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


def from_sector_roots(spec: SectorRootSpec, lead: float = 1.0) -> RealPolynomial:
    """Expand lead * prod (z - x_k) * prod ((z - a_k)^2 + b_k^2).

    Factors are accumulated smallest root magnitude first, in extended
    precision, which keeps coefficients accurate for mixed-magnitude specs.
    """
    lead = float(lead)
    if lead == 0.0 or not math.isfinite(lead):
        raise InvalidRootSpecError("lead coefficient must be nonzero and finite")
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


def rotate_argument(p, phi: float) -> ComplexPolynomial:
    """Return q with q(z) = p(e^{i phi} z), i.e. c_k -> c_k e^{i k phi}."""
    k = np.arange(p.coeffs.size)
    return ComplexPolynomial(p.coeffs.astype(np.complex128) * np.exp(1j * phi * k))


def coefficient_sign_pattern(p: RealPolynomial) -> str:
    """Classify signs as 'alternating', 'constant-sign' or 'other'.

    A strict alternation requires every coefficient nonzero.  With interior
    zero coefficients present the pattern is 'other' unless all remaining
    coefficients share one sign.
    """
    c = p.coeffs
    signs = np.sign(c[c != 0.0])
    if np.any(c == 0.0):
        return "constant-sign" if np.all(signs == signs[0]) else "other"
    if np.all(signs[1:] * signs[:-1] < 0):
        return "alternating"
    if np.all(signs == signs[0]):
        return "constant-sign"
    return "other"


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
