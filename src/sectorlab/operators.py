"""Multiplier sequences, rotation blends, and the sector bounds they obey.

A multiplier sequence acts diagonally on coefficients:
``T[sum c_k z^k] = sum gamma_k c_k z^k``.  The families provided:

    gauss     gamma_k = exp(-alpha^2 k^2 / 2)
    cosstep   gamma_k = cos(alpha k / N), valid while alpha n / N < pi/2
    cosaffine gamma_k = cos(lambda + k theta)
    laguerre  gamma_k = q^(k^2), -1 < q < 1
    exppower  gamma_k = exp(-alpha k^p), alpha > 0, p > 0
    explicit  gamma_k given as a finite list

Each family but ``explicit`` declares its spec name and its (spec key,
field) pairs, each field a finite number.  From them ``spec_string`` writes
the text that names an operator in a certificate, such as
``cosaffine:lambda=0.1,theta=0.2``, and ``parse_sequence_spec`` reads it.

The rotation blend of a real polynomial p is

    f(z) = e^{i lambda} p(e^{i alpha} z) + e^{i beta} p(e^{-i alpha} z),

whose k-th coefficient is c_k (e^{i(lambda + k alpha)} + e^{i(beta - k alpha)}),
a factor of modulus 2 |cos((lambda - beta)/2 + k alpha)|.  Cosine-multiplied
polynomials are blends in disguise:

    sum cos(lambda + k theta) c_k z^k
        = (1/2) [e^{i lambda} p(e^{i theta} z) + e^{-i lambda} p(e^{-i theta} z)],

an identity the test suite checks coefficientwise.
``apply_sequence_many`` applies a batch of sequences: per degree group,
each row's terms come from its own sequence and one multiply makes the
images.  ``apply_sequence`` and ``cosine_affine_transform`` are its batch
of one.

Trigonometric factors that vanish mathematically come out of the arithmetic
as values around 1e-16, so blend factors and cosine multipliers below a tiny
absolute threshold are snapped to exact zero; degree drop is then visible as
an honest shorter coefficient vector.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateSequenceError, DomainError,
                     HypothesisViolationError, InputError, SectorLabError,
                     check_number, shown)
from .poly import RealPolynomial, _real_polynomials

__all__ = [
    "MultiplierSequence",
    "GaussSequence",
    "CosineStepSequence",
    "CosineAffineSequence",
    "LaguerreQSequence",
    "ExpPowerSequence",
    "ExplicitSequence",
    "apply_sequence",
    "apply_sequence_many",
    "cosine_affine_transform",
    "predicted_sector_after_gauss",
    "predicted_sector_after_cosine_step",
    "predicted_sector",
    "cosine_power_limit",
    "parse_sequence_spec",
]

# |cos| below this is treated as an exact zero of the multiplier
_TRIG_SNAP = 5e-14


class MultiplierSequence:
    """Base for diagonal coefficient multipliers; subclasses define term(k)."""

    #: True for families whose terms are cosines and may be snapped to zero
    trig = False
    #: the spec name and its (spec key, field) pairs; None for no spec format
    family = None
    spec_keys = ()

    def __post_init__(self):
        for key, field in self.spec_keys:
            check_number(getattr(self, field), f"{self.family} {key}")

    def term(self, k: int) -> float:
        raise NotImplementedError

    def terms(self, n: int) -> np.ndarray:
        """gamma_0 .. gamma_n as a float array."""
        return np.array([self.term(k) for k in range(n + 1)], dtype=np.float64)

    def check_degree(self, degree: int) -> None:
        """Raise when the family may not act on degree ``degree``; most may."""

    def spec_string(self) -> str:
        if self.family is None:
            raise NotImplementedError
        return self.family + ":" + ",".join(
            f"{key}={getattr(self, field)!r}" for key, field in self.spec_keys)


@dataclass(frozen=True)
class GaussSequence(MultiplierSequence):
    alpha: float
    family = "gauss"
    spec_keys = (("alpha", "alpha"),)

    def __post_init__(self):
        super().__post_init__()
        if not self.alpha > 0.0:
            raise SectorLabError(f"gauss needs alpha > 0, got {self.alpha!r}")

    def term(self, k: int) -> float:
        return math.exp(-0.5 * self.alpha * self.alpha * k * k)


def _step_count(N, error=SectorLabError) -> int:
    """The cosine step's N as an int: an integer >= 1 (a bool is not, nor
    is a float, even an integral one); otherwise raise ``error``."""
    try:
        n = None if isinstance(N, bool) else operator.index(N)
    except TypeError:
        n = None
    if n is None or n < 1:
        raise error(f"cosstep needs integer N >= 1, got {shown(N)}")
    return n


@dataclass(frozen=True)
class CosineStepSequence(MultiplierSequence):
    """gamma_k = cos(alpha k / N); usable on degree n only while alpha n / N < pi/2."""

    alpha: float
    N: int
    trig = True
    family = "cosstep"
    spec_keys = (("alpha", "alpha"), ("N", "N"))

    def __post_init__(self):
        super().__post_init__()
        if not self.alpha > 0.0:
            raise SectorLabError(f"cosstep needs alpha > 0, got {self.alpha!r}")
        object.__setattr__(self, "N", _step_count(self.N))

    def term(self, k: int) -> float:
        return math.cos(self.alpha * k / self.N)

    def check_degree(self, degree: int) -> None:
        if self.alpha * degree / self.N >= math.pi / 2.0:
            raise HypothesisViolationError(
                f"cosstep requires alpha*n/N < pi/2; "
                f"{self.alpha!r}*{degree}/{self.N} = "
                f"{self.alpha * degree / self.N!r} is not")


@dataclass(frozen=True)
class CosineAffineSequence(MultiplierSequence):
    lam: float
    theta: float
    trig = True
    family = "cosaffine"
    spec_keys = (("lambda", "lam"), ("theta", "theta"))

    def term(self, k: int) -> float:
        return math.cos(self.lam + k * self.theta)


@dataclass(frozen=True)
class LaguerreQSequence(MultiplierSequence):
    q: float
    family = "laguerre"
    spec_keys = (("q", "q"),)

    def __post_init__(self):
        super().__post_init__()
        if not (-1.0 < self.q < 1.0):
            raise SectorLabError(f"laguerre needs -1 < q < 1, got {self.q!r}")

    def term(self, k: int) -> float:
        return float(self.q ** (k * k))


@dataclass(frozen=True)
class ExpPowerSequence(MultiplierSequence):
    alpha: float
    p: float
    family = "exppower"
    spec_keys = (("alpha", "alpha"), ("p", "p"))

    def __post_init__(self):
        super().__post_init__()
        if not (self.alpha > 0.0 and self.p > 0.0):
            raise SectorLabError(
                f"exppower needs alpha > 0 and p > 0, got "
                f"({self.alpha!r}, {self.p!r})")

    def term(self, k: int) -> float:
        return math.exp(-self.alpha * float(k) ** self.p)


class ExplicitSequence(MultiplierSequence):
    """Finite list of multipliers; using terms beyond the list is an error."""

    def __init__(self, values):
        self.values = tuple(float(check_number(v, "explicit value"))
                            for v in values)
        if not self.values:
            raise SectorLabError("explicit sequence needs at least one value")

    def term(self, k: int) -> float:
        if k >= len(self.values):
            raise HypothesisViolationError(
                f"explicit sequence of length {len(self.values)} has no term {k}")
        return self.values[k]

    def spec_string(self) -> str:
        return "explicit:" + ",".join(f"{v!r}" for v in self.values)

    def __repr__(self):
        return f"ExplicitSequence({list(self.values)!r})"

    def __eq__(self, other):
        return isinstance(other, ExplicitSequence) and self.values == other.values


def _apply_many(polys, seqs) -> list:
    """apply_sequence_many, which apply_sequence and cosine_affine_transform
    call under this private name: a traced run wraps every public
    function, and a nested public call would count each application
    twice."""
    out = [None] * len(polys)
    groups = {}
    for i, p in enumerate(polys):
        groups.setdefault(p.degree, []).append(i)
    for d, rows in groups.items():
        live, gamma = [], []
        for i in rows:
            ms = seqs[i]
            try:
                ms.check_degree(d)
                g = ms.terms(d)
            except Exception as exc:
                out[i] = exc
                continue
            live.append(i)
            gamma.append(g)
        if not live:
            continue
        G = np.stack(gamma)
        trig = np.array([seqs[i].trig for i in live])[:, None]
        G[trig & (np.abs(G) <= _TRIG_SNAP)] = 0.0
        Q = np.stack([polys[i].coeffs for i in live]) * G
        for i, q, nonzero in zip(live, _real_polynomials(Q),
                                 Q.any(axis=1).tolist()):
            out[i] = q if nonzero else DegenerateSequenceError(
                f"{seqs[i].spec_string()} annihilated every coefficient")
    return out


def _one(results: list):
    if isinstance(results[0], Exception):
        raise results[0]
    return results[0]


def apply_sequence_many(polys, seqs) -> list:
    """``apply_sequence(p, ms)`` for each pair of ``polys`` and ``seqs``.

    Returns one entry per pair, in order: the image, or the exception the
    lone call would have raised.  Per degree group, each row's terms come
    from its own ``ms.terms`` (libm, term by term) and one multiply makes
    the images.  Lists of different lengths raise InputError.
    """
    if len(polys) != len(seqs):
        raise InputError(f"apply_sequence_many needs one sequence per "
                         f"polynomial, got {len(polys)} polynomials and "
                         f"{len(seqs)} sequences")
    return _apply_many(polys, seqs)


def apply_sequence(p: RealPolynomial, ms: MultiplierSequence) -> RealPolynomial:
    """Diagonal action c_k -> gamma_k c_k; checks family hypotheses first."""
    return _one(_apply_many([p], [ms]))


def cosine_affine_transform(p: RealPolynomial, lam: float,
                            theta: float) -> RealPolynomial:
    """c_k -> cos(lam + k theta) c_k: half the rotation blend at alpha =
    theta, lambda = lam and beta = -lam, in real arithmetic."""
    return _one(_apply_many([p], [CosineAffineSequence(lam, theta)]))


def predicted_sector_after_gauss(theta: float, alpha: float) -> float:
    """arccos(min(1, e^{alpha^2/2} cos theta)); shrinks S(theta), sharp on quadratics."""
    if not (0.0 <= check_number(theta, "theta", DomainError) < math.pi / 2.0):
        raise DomainError(f"theta must lie in [0, pi/2), got {theta!r}")
    if not (check_number(alpha, "alpha", DomainError) > 0.0):
        raise DomainError(f"alpha must be positive, got {alpha!r}")
    try:
        scale = math.exp(0.5 * alpha * alpha)
    except OverflowError:
        # e^{alpha^2/2} past the float range: times any cos theta in range
        # (>= 6e-17 on [0, pi/2)) it is >= 1
        return 0.0
    return math.acos(min(1.0, scale * math.cos(theta)))


def predicted_sector_after_cosine_step(theta: float, alpha: float,
                                       N: int) -> float:
    """arccos(min(1, cos theta sec(alpha/N))) for a single cosstep application."""
    if not (0.0 <= check_number(theta, "theta", DomainError) < math.pi / 2.0):
        raise DomainError(f"theta must lie in [0, pi/2), got {theta!r}")
    if not (0.0 < check_number(alpha, "alpha", DomainError) < math.pi / 2.0):
        raise DomainError(f"alpha must lie in (0, pi/2), got {alpha!r}")
    N = _step_count(N, DomainError)
    return math.acos(min(1.0, math.cos(theta) / math.cos(alpha / N)))


def predicted_sector(ms: MultiplierSequence, theta: float) -> float | None:
    """Proven sector half-angle after ``ms`` acts on S(theta); None for
    families with no proven bound."""
    if isinstance(ms, GaussSequence):
        return predicted_sector_after_gauss(theta, ms.alpha)
    if isinstance(ms, CosineStepSequence):
        return predicted_sector_after_cosine_step(theta, ms.alpha, ms.N)
    return None


def cosine_power_limit(alpha: float, N: int) -> float:
    """[cos(alpha/N)]^(N^2), which approaches e^{-alpha^2/2} as N grows."""
    check_number(alpha, "alpha", DomainError)
    N = _step_count(N, DomainError)
    if abs(alpha) / N >= math.pi / 2.0:
        raise DomainError(f"|alpha|/N must be below pi/2, got {abs(alpha) / N!r}")
    return math.cos(alpha / N) ** (N * N)


# the families parse_sequence_spec reads by key=value, keyed by spec name
_FAMILIES = {cls.family: cls for cls in MultiplierSequence.__subclasses__()
             if cls.family is not None}


def parse_sequence_spec(spec: str) -> MultiplierSequence:
    """Parse operator strings like ``gauss:alpha=0.5`` or ``explicit:1,0.5``.
    The constructors check the numbers; ``N`` must be an integer."""
    if ":" not in spec:
        raise InputError(f"operator spec {spec!r} needs the form family:args")
    family, _, body = spec.partition(":")
    family = family.strip().lower()
    parts = [part for part in body.split(",") if part.strip() != ""]
    if family == "explicit":
        try:
            return ExplicitSequence(float(v) for v in parts)
        except (ValueError, SectorLabError) as exc:
            raise InputError(f"bad explicit values in {spec!r}: {exc}") from exc
    cls = _FAMILIES.get(family)
    if cls is None:
        raise InputError(f"unknown operator family {family!r}")
    kv = {}
    for part in parts:
        key, eq, val = part.partition("=")
        if not eq:
            raise InputError(f"expected key=value, got {part!r} in {spec!r}")
        kv[key.strip()] = val.strip()
    expected = [key for key, _ in cls.spec_keys]
    if set(kv) != set(expected):
        raise InputError(
            f"{family} takes exactly {', '.join(expected)}; got {sorted(kv)}")
    try:
        return cls(**{field: (int if key == "N" else float)(kv[key])
                      for key, field in cls.spec_keys})
    except (ValueError, SectorLabError) as exc:
        raise InputError(f"bad parameters in {spec!r}: {exc}") from exc
