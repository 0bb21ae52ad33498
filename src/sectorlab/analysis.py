"""Necessary-condition diagnostics and randomized verification campaigns.

The ratio profile r_n = gamma_n gamma_{n+2} / gamma_{n+1}^2 governs whether a
diagonal multiplier sequence can shrink zero sectors uniformly: applying the
sequence to x^n (x^2 - b x + c) turns the nonzero quadratic factor into
gamma_{n+2} x^2 - gamma_{n+1} b x + gamma_n c, whose roots depend on the
original ones only through r_n.  Keeping the transformed pair no wider than
the original forces r_n < 1 with limsup r_n < 1; profiles whose tail climbs
to 1 therefore rule a family out.

Campaigns draw seeded random polynomials with zeros in a sector, push them
through an operator, re-measure with the root solver, and report the worst
margin observed together with a replayable counterexample certificate when a
margin crosses the violation tolerance.  Each theorem campaign is one entry
of the ``CAMPAIGNS`` registry: its trial function, its violation tolerance
and the generator defaults of ``sectorlab verify``; ``SEARCH_CAMPAIGN`` is
the same for ``search_counterexample``.  One trial loop runs them all and
returns their report.  Each trial draws from its own RNG stream, bitwise
``np.random.default_rng([seed, trial index])`` with the seed masked to 64
bits, so reports are byte-identical across reruns; the streams of a chunk
are seeded together, in one array pass of numpy's SeedSequence hash.  A spec
takes one block of raw doubles u from its stream, each uniform numpy's
lo + (hi - lo) * u: the bits of one call per draw.

A trial is a plain function.  It draws from its own stream and returns its
request, the spec (for ``roms`` a polynomial) p and the multiplier sequence
T, and its claim on the zeros of T[p]: ``_sector``, ``_real``,
``_real_positive`` or ``_in_discs``, its arguments bound.  The loop runs a
chunk of trials in two passes: it draws every trial, answers all requests
with one ``from_sector_roots_many``, one ``apply_sequence_many`` and one
``find_roots_many`` call, then applies each claim to its zeros for the
margin and a zero attaining it; a violation's certificate is p's
coefficients, T's spec and that zero.  Each batched call returns bitwise
what the lone call returns, so a report does not depend on how trials are
batched.  An exception of a draw or a claim is raised after its chunk, from
the earliest such trial: trials share no state and the solver emits no
warnings, so the later trials of that chunk leave no trace.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from functools import cache, partial
from typing import Callable

import numpy as np

from .errors import (DegenerateLeadingError, DegenerateSequenceError,
                     DegreeZeroError, InputError, NonConvergenceError,
                     SectorLabError, SignFlipError, ZeroInteriorTermError,
                     check_integer, check_number, shown)
from .geometry import (_widest_zero, jensen_sector_disc,
                       min_enclosing_double_sector)
from .operators import (CosineAffineSequence, CosineStepSequence,
                        ExplicitSequence, ExpPowerSequence, GaussSequence,
                        MultiplierSequence, apply_sequence_many,
                        predicted_sector, _step_count)
from .poly import RealPolynomial, SectorRootSpec, from_sector_roots_many
from .roots import SolverConfig, find_roots, find_roots_many

__all__ = [
    "RnProfile",
    "rn_profile",
    "three_term_transformed_roots",
    "double_sector_demo",
    "PolyGenSpec",
    "draw_sector_spec",
    "Counterexample",
    "VerificationReport",
    "Campaign",
    "CAMPAIGNS",
    "SEARCH_CAMPAIGN",
    "verify_theorem",
    "search_counterexample",
    "THEOREM_IDS",
]


@dataclass(frozen=True)
class RnProfile:
    """Window of r_n values with a coarse tail classification."""

    values: tuple
    window: int
    min_value: float
    max_value: float
    tail_trend: str

    def necessary_condition(self) -> str:
        """'fails-necessary-condition' when some r_n reaches 1 or the tail
        climbs toward it; 'inconclusive' otherwise."""
        if self.max_value >= 1.0 - 1e-12:
            return "fails-necessary-condition"
        if self.tail_trend == "increasing-toward-1":
            return "fails-necessary-condition"
        return "inconclusive"


def _classify_tail(values) -> str:
    spread = max(values) - min(values)
    vscale = max(1.0, max(abs(v) for v in values))
    if spread <= 1e-10 * vscale:
        mean = sum(values) / len(values)
        return "constant" if mean > 1.0 - 1e-6 else "bounded-away"
    tail = values[len(values) - len(values) // 2:]
    diffs = [tail[i + 1] - tail[i] for i in range(len(tail) - 1)]
    nondecreasing = all(d >= -1e-14 * vscale for d in diffs)
    below_one = tail[-1] < 1.0 + 1e-12 and tail[0] < 1.0
    gap_shrinks = below_one and (1.0 - tail[-1]) < 0.95 * (1.0 - tail[0])
    if nondecreasing and gap_shrinks:
        return "increasing-toward-1"
    if max(tail) <= 1.0 - 1e-3:
        return "bounded-away"
    return "other"


def rn_profile(ms: MultiplierSequence, window: int) -> RnProfile:
    """r_n = gamma_n gamma_{n+2} / gamma_{n+1}^2 for n = 0 .. window-1."""
    if check_integer(window, "window") < 3:
        raise SectorLabError(f"window must be >= 3, got {window!r}")
    gamma = ms.terms(window + 1)
    # gamma_{n+1}^2 underflows to 0 before gamma_{n+1} does
    if np.any(gamma[1:window + 1] ** 2 == 0.0):
        raise ZeroInteriorTermError(
            "an interior gamma^2 vanishes; r_n is undefined there")
    values = tuple(float(gamma[n] * gamma[n + 2] / gamma[n + 1] ** 2)
                   for n in range(window))
    return RnProfile(values, window, min(values), max(values),
                     _classify_tail(values))


def three_term_transformed_roots(n: int, b: float, c: float,
                                 ms: MultiplierSequence):
    """Nonzero roots of T[x^{n+2} - b x^{n+1} + c x^n] plus the ratio r_n.

    The transformed trinomial divided by x^n is the quadratic
    gamma_{n+2} x^2 - gamma_{n+1} b x + gamma_n c, solved here by the
    quadratic formula (note the leading 1/gamma_{n+2}).
    """
    n = check_integer(n, "n")
    if n < 0:
        raise SectorLabError(f"n must be >= 0, got {n!r}")
    if not (check_number(b, "b") > 0.0):
        raise SectorLabError(f"b must be positive, got {b!r}")
    check_number(c, "c")
    g0, g1, g2 = ms.term(n), ms.term(n + 1), ms.term(n + 2)
    if g2 == 0.0:
        raise DegenerateLeadingError(
            f"gamma_{n + 2} = 0 leaves no quadratic factor")
    if g1 * g1 == 0.0:  # as in rn_profile
        raise ZeroInteriorTermError(
            f"gamma_{n + 1}^2 = 0 makes r_n undefined")
    rn = g0 * g2 / (g1 * g1)
    A, B, C = g2, -g1 * b, g0 * c
    disc = B * B - 4.0 * A * C
    if disc >= 0.0:
        s = math.sqrt(disc)
        t = -0.5 * (B + math.copysign(s, B)) if B != 0.0 else 0.5 * s
        if t == 0.0:
            r1 = r2 = 0j
        else:
            r1, r2 = complex(t / A), complex(C / t)
    else:
        s = math.sqrt(-disc)
        r1 = complex(-B / (2.0 * A), s / (2.0 * A))
        r2 = r1.conjugate()
    pair = sorted((r1, r2), key=lambda z: (z.real, z.imag))
    return (pair[0], pair[1]), float(rn)


def double_sector_demo(ms: MultiplierSequence,
                       config: SolverConfig | None = None):
    """Fold angle of 4 + z^4 before and after the diagonal action.

    Only gamma_0 and gamma_4 survive, so the transformed zeros are the fourth
    roots of -4 gamma_0 / gamma_4: the fold angle stays exactly pi/4 for any
    admissible sequence.  Returns (before, after) as measured by the solver,
    whose configuration is ``config``.
    """
    g0, g4 = ms.term(0), ms.term(4)
    if g0 == 0.0 or g4 == 0.0:
        raise SignFlipError(f"endpoint terms must be nonzero, got "
                            f"gamma_0={g0!r}, gamma_4={g4!r}")
    if (g0 > 0.0) != (g4 > 0.0):
        raise SignFlipError(f"endpoint terms differ in sign: "
                            f"gamma_0={g0!r}, gamma_4={g4!r}")
    base = RealPolynomial([4.0, 0.0, 0.0, 0.0, 1.0])
    before = min_enclosing_double_sector(find_roots(base, config))
    image = RealPolynomial([4.0 * g0, 0.0, 0.0, 0.0, g4])
    after = min_enclosing_double_sector(find_roots(image, config))
    return before, after


@dataclass(frozen=True)
class PolyGenSpec:
    """Recipe for seeded random polynomials with zeros in a sector.

    Per trial: degree uniform in [deg_lo, deg_hi]; a fresh sector angle
    uniform in [0, theta]; real roots uniform in [mag_lo, mag_hi]; conjugate
    pairs with argument uniform in (0, theta_trial] and log-uniform modulus.
    ``real_fraction`` sets the share of the degree spent on real roots.
    """

    deg_lo: int = 1
    deg_hi: int = 16
    theta: float = 0.785398
    mag_lo: float = 0.1
    mag_hi: float = 10.0
    real_fraction: float = 0.35
    seed: int = 0

    def __post_init__(self):
        # numpy integers are stored as int: the seed is masked to 64 bits
        for name in ("deg_lo", "deg_hi", "seed"):
            object.__setattr__(self, name,
                               check_integer(getattr(self, name), name))
        if not (1 <= self.deg_lo <= self.deg_hi):
            raise SectorLabError("need 1 <= deg_lo <= deg_hi")
        for name in ("theta", "mag_lo", "mag_hi", "real_fraction"):
            check_number(getattr(self, name), name)
        if not (0.0 <= self.theta < math.pi / 2.0):
            raise SectorLabError("theta must lie in [0, pi/2)")
        if not 0.0 < self.mag_lo <= self.mag_hi:
            raise SectorLabError("need 0 < mag_lo <= mag_hi < inf")
        if not (0.0 <= self.real_fraction <= 1.0):
            raise SectorLabError("real_fraction must lie in [0, 1]")


@cache
def _preset_state() -> type:
    """A seed sequence type whose state is already computed: PCG64 asks it
    for its four 64-bit words and seeds itself from them with numpy's code.
    It is built on first use, so importing sectorlab loads no numpy.random."""

    class PresetState(np.random.bit_generator.ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return PresetState


# the constants of numpy's SeedSequence (numpy/random/bit_generator.pyx)
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _trial_rngs(seed: int, trials: range) -> list:
    """Per trial t of ``trials``, bitwise ``np.random.default_rng([seed &
    (2**64 - 1), t])``, every stream seeded in one array pass.

    This is numpy's SeedSequence (numpy/random/bit_generator.pyx) run on
    uint32 arrays with one entry per trial, for trials below 2**64: the
    entropy words of [seed, t] fill a pool of four, padded with the zeros
    SeedSequence hashes in their place; hashmix and mix stir the pool, and
    generate_state(4, uint64) draws PCG64's seed words from it."""
    seed &= 0xFFFFFFFFFFFFFFFF
    t = np.arange(trials.start, trials.stop, trials.step, dtype=np.uint64)
    t_lo = (t & np.uint64(_M32)).astype(np.uint32)
    t_hi = (t >> np.uint64(32)).astype(np.uint32)
    s_lo, s_hi, zero = (np.full_like(t_lo, w)
                        for w in (seed & _M32, seed >> 32, 0))
    pool = [s_lo, s_hi, t_lo, t_hi] if seed >> 32 else [s_lo, t_lo, t_hi, zero]
    h = _INIT_A

    def hashmix(v):
        nonlocal h
        v = v ^ np.uint32(h)
        h = h * _MULT_A & _M32
        v = v * np.uint32(h)
        return v ^ (v >> np.uint32(16))

    pool = [hashmix(w) for w in pool]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                x = (np.uint32(_MIX_MULT_L) * pool[dst]
                     - np.uint32(_MIX_MULT_R) * hashmix(pool[src]))
                pool[dst] = x ^ (x >> np.uint32(16))
    h, state = _INIT_B, []
    for i in range(8):
        v = pool[i % 4] ^ np.uint32(h)
        h = h * _MULT_B & _M32
        v = v * np.uint32(h)
        state.append(v ^ (v >> np.uint32(16)))
    # two little-endian 32-bit words make each 64-bit word
    words = np.stack(state, axis=1).astype("<u4").view("<u8").astype(np.uint64)
    preset = _preset_state()
    return [np.random.Generator(np.random.PCG64(preset(w))) for w in words]


def _uniform_at(lo: float, hi: float, u: float) -> float:
    """``Generator.uniform(lo, hi)`` from its raw double u, as numpy computes it."""
    return lo + (hi - lo) * u


def draw_sector_spec(gen: PolyGenSpec, rng: np.random.Generator) -> SectorRootSpec:
    """One random root specification under ``gen``.  After the degree, one
    block of raw doubles gives the sector angle (when theta > 0), the real
    roots and the pairs, each bitwise its own ``rng.uniform`` call."""
    degree = int(rng.integers(gen.deg_lo, gen.deg_hi + 1))
    u = iter(rng.random(degree + (gen.theta > 0.0)).tolist())
    theta_t = (_uniform_at(0.0, float(gen.theta), next(u)) if gen.theta > 0.0
               else 0.0)
    n_real = int(round(gen.real_fraction * degree))
    if theta_t == 0.0:
        n_real = degree
    n_pairs = (degree - n_real) // 2
    n_real = degree - 2 * n_pairs
    lo, hi = float(gen.mag_lo), float(gen.mag_hi)
    reals = [_uniform_at(lo, hi, next(u)) for _ in range(n_real)]
    log_lo, log_hi = math.log(gen.mag_lo), math.log(gen.mag_hi)
    pairs = []
    for _ in range(n_pairs):
        phi = _uniform_at(0.0, theta_t, next(u))
        if phi == 0.0:
            phi = 0.5 * theta_t
        mag = math.exp(_uniform_at(log_lo, log_hi, next(u)))
        pairs.append((mag * math.cos(phi), mag * math.sin(phi)))
    return SectorRootSpec(tuple(reals), tuple(pairs))


@dataclass(frozen=True)
class Counterexample:
    trial_index: int
    coeffs: tuple
    operator: str
    offending_zero: complex
    margin: float
    detail: str

    def to_json_dict(self) -> dict:
        return {**asdict(self), "coeffs": list(self.coeffs),
                "offending_zero": [self.offending_zero.real,
                                   self.offending_zero.imag]}


@dataclass(frozen=True)
class VerificationReport:
    theorem_id: str
    trials: int
    seed: int
    worst_margin: float | None
    counterexample: Counterexample | None
    params: dict
    skipped: int = 0

    def found_counterexample(self) -> bool:
        return self.counterexample is not None

    def to_json_dict(self) -> dict:
        cex = self.counterexample
        return {**asdict(self),
                "counterexample": None if cex is None else cex.to_json_dict()}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"


def _uniform(rng, lo: float, hi: float, fixed) -> float:
    return float(fixed) if fixed is not None else _uniform_at(lo, hi, rng.random())


def _sector(bound, proven, zeros):
    """bound - the measured sector angle, at the widest zero; -pi there when
    ``proven`` and that zero lies outside the open right half-plane."""
    measured, zero = _widest_zero(zeros)
    if proven and measured >= math.pi / 2.0:
        return -math.pi, zero
    return bound - measured, zero


def _real(zeros):
    """-|Im z|/max(1,|z|) at the worst zero; 0.0 at the first if all real."""
    worst, worst_zero = 0.0, zeros.zeros[0].location
    for e in zeros.zeros:
        margin = -abs(e.location.imag) / max(1.0, abs(e.location))
        if margin < worst:
            worst, worst_zero = margin, e.location
    return worst, worst_zero


def _real_positive(zeros):
    """As _real, and for a real zero also min with Re z/max(1,|Re z|)."""
    worst, worst_zero = math.inf, None
    for e in zeros.zeros:
        z = e.location
        margin = -abs(z.imag) / max(1.0, abs(z))
        if z.imag == 0.0:
            margin = min(margin, z.real / max(1.0, abs(z.real)))
        if margin < worst:
            worst, worst_zero = margin, z
    return worst, worst_zero


def _in_discs(discs, circle, zeros):
    """Signed disc slack (r - |z - c|) / max(1, |z|) of the disc holding a
    nonreal zero z best; with no disc, -|Im z| / max(1, |z|); with
    ``circle``, -| |z-c| - r | / r at the one disc.  None if all are real."""
    worst = worst_zero = None
    for z in zeros.locations():
        if z.imag == 0.0:
            continue
        if circle:
            d = discs[0]
            margin = -abs(abs(z - d.center) - d.radius) / d.radius
        elif discs:
            margin = max((d.radius - abs(z - d.center)) / max(1.0, abs(z))
                         for d in discs)
        else:
            margin = -abs(z.imag) / max(1.0, abs(z))
        if worst is None or margin < worst:
            worst, worst_zero = margin, z
    return worst, worst_zero


def _trial_jsd(gen, params, rng):
    """Containment (or boundary sharpness) of blend zeros in sector discs.

    The blend is e^{i (lam + beta) / 2} times twice the real polynomial
    ``cosine_affine_transform(p, (lam - beta) / 2, alpha)``, solved here:
    the solver returns its zeros exactly real or in exact conjugate pairs.
    """
    quadratic = params.get("quadratic", False)
    if quadratic:
        theta_t = _uniform_at(0.05, 1.4, rng.random())
        mag = math.exp(_uniform_at(math.log(0.3), math.log(3.0), rng.random()))
        phi = (_uniform_at(0.05, theta_t, rng.random()) if theta_t > 0.05
               else theta_t)
        spec = SectorRootSpec((), ((mag * math.cos(phi), mag * math.sin(phi)),))
    else:
        spec = draw_sector_spec(gen, rng)
    alpha = _uniform(rng, 0.0, math.pi, params.get("alpha"))
    if quadratic:
        # sharpness needs a nonempty single disc: a drawn alpha is drawn
        # again until the disc is one, and a pinned alpha skips the trial
        a, b = spec.pairs[0]
        for _ in range(256):
            if not jensen_sector_disc(a, b, alpha).empty:
                break
            if params.get("alpha") is not None:
                return None
            alpha = _uniform_at(0.0, math.pi, rng.random())
        else:
            return None
    lam = _uniform(rng, -math.pi, math.pi, params.get("lam"))
    beta = _uniform(rng, -math.pi, math.pi, params.get("beta"))
    discs = [jensen_sector_disc(a, b, alpha) for a, b in spec.pairs]
    return ((spec, CosineAffineSequence(0.5 * (lam - beta), alpha)),
            partial(_in_discs, [d for d in discs if not d.empty], quadratic))


def _gauss_draw(spec, params, rng):
    """zsro's sequence: gauss at alpha uniform in [0.1, 1]."""
    return GaussSequence(_uniform(rng, 0.1, 1.0, params.get("alpha")))


def _cosine_step_draw(spec, params, rng):
    """cosak's sequence: a single cosine step, by default with the least N
    that gives alpha deg / N < 0.98 pi/2."""
    alpha = _uniform(rng, 0.05, math.pi / 2.0 - 0.05, params.get("alpha"))
    big_n = params.get("N")
    if big_n is None:
        big_n = int(math.floor(alpha * max(spec.degree, 1)
                               / (0.98 * math.pi / 2.0))) + 1
    return CosineStepSequence(alpha, big_n)


def _sector_trial(draw_sequence):
    """The trial of the sector angle under the sequence ``draw_sequence(spec,
    params, rng)`` draws after the spec: its claim bounds the angle by the
    proven one (``operators.predicted_sector``), or else by the spec's own."""
    def trial(gen, params, rng):
        spec = draw_sector_spec(gen, rng)
        ms = draw_sequence(spec, params, rng)
        theta = spec.max_angle()
        bound = predicted_sector(ms, theta)
        proven = bound is not None
        return (spec, ms), partial(_sector, bound if proven else theta, proven)
    return trial


_trial_zsro = _sector_trial(_gauss_draw)
_trial_cosak = _sector_trial(_cosine_step_draw)


def _trial_lms2(gen, params, rng):
    """All-real preservation by cos(lambda + k theta)."""
    spec = draw_sector_spec(gen, rng)
    lam = _uniform(rng, -math.pi, math.pi, params.get("lam"))
    theta = _uniform(rng, -math.pi, math.pi, params.get("mult_theta"))
    return (spec, CosineAffineSequence(lam, theta)), _real


def _trial_roms(gen, params, rng):
    """T[(1-z)^n] keeps every zero real and positive for admissible T."""
    n = int(rng.integers(max(gen.deg_lo, 2), gen.deg_hi + 1))
    coeffs = [math.comb(n, k) * (-1.0) ** k for k in range(n + 1)]
    return (RealPolynomial(coeffs), params["sequence"]), _real_positive


@dataclass(frozen=True)
class Campaign:
    """``trial(gen, params, rng)`` returns (request, claim), or None when it
    tests nothing.  The request is a ``SectorRootSpec`` or ``RealPolynomial``
    p and the ``MultiplierSequence`` T; the claim, a margin function with its
    arguments bound, maps the ``ZeroSet`` of T[p] to (margin, zero), margin
    None when nothing was tested and zero a zero attaining it.  A margin
    below -``tolerance`` is a violation, certified by p, T and the zero.  A
    NonConvergenceError leaves the trial untested, as do the failures of
    expansion, application or solve that ``vacuous`` names.  ``params`` names
    the params the trial reads, and so the flags of ``sectorlab verify``;
    ``theta`` and ``deg_hi`` are the command line's generator defaults."""

    trial: Callable
    tolerance: float
    params: tuple = ()
    theta: float = 0.785398
    deg_hi: int = 16
    vacuous: tuple = ()


# a cosaffine image that is identically zero, or a nonzero constant
_BLEND_VACUOUS = (DegenerateSequenceError, DegreeZeroError)

# the theorem campaigns of verify_theorem, keyed by theorem id
CAMPAIGNS = {
    "jsd": Campaign(_trial_jsd, 1e-8, ("quadratic", "alpha", "lam", "beta"),
                    theta=1.4, vacuous=_BLEND_VACUOUS),
    "zsro": Campaign(_trial_zsro, 1e-7, ("alpha",)),
    "cosak": Campaign(_trial_cosak, 1e-7, ("alpha", "N")),
    "lms2": Campaign(_trial_lms2, 0.0, ("lam", "mult_theta"), theta=0.0,
                     deg_hi=12, vacuous=_BLEND_VACUOUS),
    # the strip of the principal logs is the sector: Im log z = arg z
    "period-strip": Campaign(_trial_zsro, 1e-7, ("alpha",)),
    "roms": Campaign(_trial_roms, 1e-7, ("sequence", "alpha")),
}
THEOREM_IDS = tuple(CAMPAIGNS)
# the hunt of search_counterexample; its params carry the "sequence"
SEARCH_CAMPAIGN = Campaign(
    _sector_trial(lambda spec, params, rng: params["sequence"]), 1e-7,
    ("sequence",), theta=0.6, deg_hi=12)

# trials run together, whose requests are answered as one batch
_CHUNK = 1000


def _answer_many(requests: list, config: SolverConfig | None) -> list:
    """Per trial request (spec or polynomial p, sequence T): (p, T[p], the
    zeros of T[p]), or the exception of expanding p, applying T or solving
    T[p].  One from_sector_roots_many call expands the specs, one
    apply_sequence_many call applies the sequences and one find_roots_many
    call solves the images."""
    out = [p for p, _ in requests]
    specs = [i for i, p in enumerate(out) if isinstance(p, SectorRootSpec)]
    for i, p in zip(specs, from_sector_roots_many([out[i] for i in specs])):
        out[i] = p
    live = [i for i, p in enumerate(out) if not isinstance(p, Exception)]
    for i, q in zip(live, apply_sequence_many([out[i] for i in live],
                                              [requests[i][1] for i in live])):
        out[i] = q if isinstance(q, Exception) else (out[i], q)
    live = [i for i, pq in enumerate(out) if not isinstance(pq, Exception)]
    for i, zeros in zip(live, find_roots_many([out[i][1] for i in live],
                                              config)):
        out[i] = zeros if isinstance(zeros, Exception) else (*out[i], zeros)
    return out


def _run_chunk(campaign: Campaign, gen: PolyGenSpec, params: dict,
               trials: range, config: SolverConfig | None) -> list:
    """Per trial of ``trials``: (margin, zero) or the exception of its draw,
    answer or claim, and the (p, T) it was judged on, None when it was not.
    One _trial_rngs call seeds every trial's stream, the draw pass takes
    each trial's request and claim, one _answer_many call answers them all,
    and each claim judges its trial's zeros."""
    outcomes, asked = {}, {}
    for t, rng in zip(trials, _trial_rngs(gen.seed, trials)):
        try:
            drawn = campaign.trial(gen, params, rng)
        except Exception as exc:  # the trial's own outcome
            outcomes[t] = exc, None
            continue
        if drawn is None:
            outcomes[t] = (None, None), None
        else:
            asked[t] = drawn
    answers = _answer_many([request for request, _ in asked.values()], config)
    for (t, ((_, ms), claim)), answer in zip(asked.items(), answers):
        if isinstance(answer, Exception):
            outcomes[t] = answer, None
            continue
        try:
            outcomes[t] = claim(answer[2]), (answer[0], ms)
        except Exception as exc:  # the trial's own outcome
            outcomes[t] = exc, None
    return [outcomes[t] for t in trials]


def _run_trials(theorem_id: str, campaign: Campaign, gen: PolyGenSpec,
                params: dict, report_params: dict, trials: int,
                config: SolverConfig | None) -> VerificationReport:
    """The trial loop of every campaign, which returns its report.  A margin
    below -report_params["tolerance"] is a violation, and the worst one is
    the report's certificate.  A margin None, a NonConvergenceError or an
    exception of ``campaign.vacuous`` skips the trial; any other is raised
    once its chunk has run, from the earliest such trial.  A trial count
    that is not an integer, or below one, raises InputError."""
    trials = check_integer(trials, "trials", InputError)
    if trials < 1:
        raise InputError(f"trials must be at least 1, got {shown(trials)}")
    tol = report_params["tolerance"]
    untested = (NonConvergenceError, *campaign.vacuous)
    worst = cex = None
    skipped = 0
    for lo in range(0, trials, _CHUNK):
        chunk = range(lo, min(lo + _CHUNK, trials))
        for t, (outcome, answered) in zip(
                chunk, _run_chunk(campaign, gen, params, chunk, config)):
            if isinstance(outcome, untested):
                outcome = None, None
            elif isinstance(outcome, Exception):
                raise outcome
            margin, zero = outcome
            if margin is None:
                skipped += 1
                continue
            if worst is None or margin < worst:
                worst = margin
            if margin < -tol and (cex is None or margin < cex.margin):
                p, ms = answered
                cex = Counterexample(t, tuple(p.coeffs.tolist()),
                                     ms.spec_string(), zero, margin,
                                     f"margin {margin!r} below {-tol!r}")
    return VerificationReport(theorem_id, trials, gen.seed, worst, cex,
                              report_params, skipped)


def verify_theorem(theorem_id: str, gen: PolyGenSpec, params: dict | None = None,
                   trials: int = 200, config: SolverConfig | None = None,
                   tolerance: float | None = None) -> VerificationReport:
    """Run a seeded campaign; a margin below -``tolerance`` (by default the
    campaign's) yields a counterexample certificate.  ``config`` is the
    solver configuration of every trial's solves.  A param the campaign's
    trial does not read, or a number param or tolerance that is not a finite
    number, raises InputError."""
    if theorem_id not in CAMPAIGNS:
        raise SectorLabError(f"unknown theorem id {theorem_id!r}; "
                             f"expected one of {THEOREM_IDS}")
    campaign = CAMPAIGNS[theorem_id]
    params = dict(params or {})
    unread = sorted(set(params) - set(campaign.params))
    if unread:
        raise InputError(f"{theorem_id} reads no param {', '.join(unread)}; "
                         f"it reads {', '.join(campaign.params)}")
    for name, value in params.items():
        if name not in ("quadratic", "sequence") and value is not None:
            check_number(value, name, InputError)
    if params.get("N") is not None:
        # the operator certified is the one the report names
        params["N"] = _step_count(params["N"], InputError)
    if params.pop("quadratic", False):
        params["quadratic"] = True
    if "sequence" in campaign.params and params.get("sequence") is None:
        params["sequence"] = GaussSequence(params.get("alpha", 0.5))
    report_params = {k: v.spec_string() if k == "sequence" else v
                     for k, v in params.items()}
    report_params["tolerance"] = (campaign.tolerance if tolerance is None else
                                  check_number(tolerance, "tolerance", InputError))
    report_params["generator"] = {k: v for k, v in asdict(gen).items()
                                  if k != "seed"}
    return _run_trials(theorem_id, campaign, gen, params, report_params,
                       trials, config)


def search_counterexample(ms: MultiplierSequence, gen: PolyGenSpec,
                          trials: int = 200,
                          config: SolverConfig | None = None
                          ) -> VerificationReport:
    """Hunt for sector growth under a diagonal family with no proven bound.

    Margin per random trial = theta_before - theta_after; a negative value
    means the enclosing sector strictly grew.  A solve that does not
    converge skips its trial; any other SectorLabError, such as a sequence
    too short for a drawn degree, is raised.  For exp-power families with
    p < 2 the report also carries the r_n tail trend and a ladder of
    three-term probes showing the transformed pair angle climbing back
    toward the original as n grows.
    """
    if not isinstance(ms, (ExpPowerSequence, ExplicitSequence)):
        raise InputError("search expects an exppower or explicit sequence")
    params: dict = {"sequence": ms.spec_string(),
                    "tolerance": SEARCH_CAMPAIGN.tolerance}
    theta_probe = gen.theta if gen.theta > 0.0 else 0.6
    ladder = []
    b = 2.0 * math.cos(theta_probe)
    for n in range(0, 13):
        try:
            (z1, _), rn = three_term_transformed_roots(n, b, 1.0, ms)
        except SectorLabError:
            continue
        angle_after = abs(math.atan2(z1.imag, z1.real))
        ladder.append({"n": n, "r_n": rn, "angle_after": angle_after})
    params["three_term_probe"] = {
        "theta_before": theta_probe,
        "ladder": ladder,
        "max_angle_after": max((row["angle_after"] for row in ladder),
                               default=None),
    }
    try:
        profile = rn_profile(ms, 12)
        params["rn_tail_trend"] = profile.tail_trend
        params["rn_necessary_condition"] = profile.necessary_condition()
    except SectorLabError:
        pass
    return _run_trials("search", SEARCH_CAMPAIGN, gen, {"sequence": ms},
                       params, trials, config)
