"""Simultaneous polynomial root finding with residual certificates.

The solve pipeline:

1. deflate exact zeros at the origin,
2. Aberth-Ehrlich simultaneous iteration from equispaced angles at radii
   ramped around ``|c_0 / c_d|^(1/d)`` (geometric mean of the root moduli),
   with a fixed irrational angular offset so the start never aligns with an
   axis and no two starts are antipodal,
3. guarded Newton polishing of each iterate,
4. cluster merging: iterates are merged when they sit within
   ``cluster_tol * max(1, |z|)`` of each other or when their Gerschgorin-style
   inclusion discs of radius ``d |p(z)/c_d| / prod |z - z_j|`` overlap, which
   is what certifies a multiple root whose iterates stall on the evaluation
   noise floor,
5. clusters of multiplicity m are re-centered on the nearby simple root of
   the (m-1)-th derivative, recovering full accuracy for multiple roots,
6. near-real locations are snapped: |Im z| <= real_snap_tol * max(1, |z|)
   becomes exactly real,
7. for real coefficient input, remaining conjugate iterates are averaged in
   pairs and the returned multiset is exactly conjugation invariant,
8. every entry gets the normalized residual |p(z)| / (scale * max(1,|z|)^d)
   with scale = max_k |c_k|; if any entry exceeds ``residual_accept`` the
   solve raises instead of returning a bad certificate.

The iteration order, the start configuration and the merge order are all
fixed, so identical input and configuration produce bitwise identical output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegreeZeroError, NonConvergenceError
from .poly import _horner, _Polynomial

__all__ = [
    "SolverConfig",
    "ZeroEntry",
    "ZeroSet",
    "find_roots",
    "deflate_origin",
    "residual_report",
]

# fixed start rotation, 1/sqrt(2) radians
_START_OFFSET = 0.7071067811865476


@dataclass(frozen=True)
class SolverConfig:
    """Tunable solve parameters; the defaults satisfy the test suite."""

    max_iterations: int = 200
    convergence_tol: float = 1e-13
    residual_accept: float = 1e-9
    cluster_tol: float = 1e-6
    real_snap_tol: float = 1e-9
    seed_radius_factor: float = 1.0

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        for name in ("convergence_tol", "residual_accept", "cluster_tol",
                     "real_snap_tol", "seed_radius_factor"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class ZeroEntry:
    location: complex
    multiplicity: int
    residual: float


@dataclass(frozen=True)
class ZeroSet:
    """Distinct zeros with multiplicities; multiplicities sum to the degree."""

    zeros: tuple
    source_degree: int

    def locations(self, with_multiplicity: bool = False) -> list:
        if with_multiplicity:
            return [e.location for e in self.zeros for _ in range(e.multiplicity)]
        return [e.location for e in self.zeros]


def _coeff_array(p) -> np.ndarray:
    if not isinstance(p, _Polynomial):
        raise TypeError("expected RealPolynomial or ComplexPolynomial")
    return p.coeffs.astype(np.complex128)


def _derivative(c: np.ndarray) -> np.ndarray:
    return c[1:] * np.arange(1, c.size)


def _eval_many(c: np.ndarray, z: np.ndarray):
    """Vectorized Horner returning (p(z), p'(z))."""
    pv = np.full_like(z, c[-1])
    dv = np.zeros_like(z)
    for k in range(c.size - 2, -1, -1):
        dv = dv * z + pv
        pv = pv * z + c[k]
    return pv, dv


def _aberth(q: np.ndarray, cfg: SolverConfig) -> np.ndarray:
    d = q.size - 1
    radius = float(abs(q[0] / q[-1])) ** (1.0 / d) * cfg.seed_radius_factor
    if not math.isfinite(radius) or radius == 0.0:
        radius = 1.0
    ang = 2.0 * math.pi * np.arange(d) / d + _START_OFFSET
    # ramped radii: no two starts are antipodal, which would otherwise trap
    # even-degree real input in near-cyclic dynamics for many iterations
    ramp = 0.9 + 0.2 * np.arange(d) / max(1, d - 1)
    z = radius * ramp * np.exp(1j * ang)
    fallback_phase = np.exp(1j * (0.7 + np.arange(d)))
    # run to convergence or budget; early "stagnation" exits leave iterates
    # whose Weierstrass inclusion disks still straddle distinct nearby roots,
    # which the cluster stage would then wrongly merge
    for _ in range(cfg.max_iterations):
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, np.inf)
        if np.any(diff == 0):
            # coincident iterates break the repulsion term; separate them
            z = z + radius * 1e-9 * (np.arange(d) + 1.0)
            continue
        pv, dv = _eval_many(q, z)
        with np.errstate(all="ignore"):
            repulse = (1.0 / diff).sum(axis=1)
            newton = pv / dv
            w = newton / (1.0 - newton * repulse)
            fallback = 0.01 * (np.abs(z) + radius) * fallback_phase
            w = np.where(np.isfinite(w), w,
                         np.where(np.isfinite(newton), newton, fallback))
        z = z - w
        m = float((np.abs(w) / np.maximum(1.0, np.abs(z))).max())
        if m <= cfg.convergence_tol:
            break
    return z


def _polish(q: np.ndarray, z: complex) -> complex:
    for _ in range(8):
        pv, dv = _horner(q, z)
        apv = abs(pv)
        if apv == 0.0 or dv == 0:
            break
        step = pv / dv
        cand = z - step
        if abs(_horner(q, cand)[0]) >= apv:
            break
        z = cand
        if abs(step) <= 1e-16 * max(1.0, abs(z)):
            break
    return z


def _cluster(q: np.ndarray, zs: np.ndarray, cfg: SolverConfig) -> list:
    """Merge iterates into (center, multiplicity, span) clusters."""
    order = np.lexsort((zs.imag, zs.real))
    z = zs[order]
    n = z.size
    pv, _ = _eval_many(q, z)
    diff = z[:, None] - z[None, :]
    np.fill_diagonal(diff, 1.0)
    prods = np.abs(diff).prod(axis=1)
    with np.errstate(all="ignore"):
        incl = n * np.abs(pv / q[-1]) / prods
    incl = np.where(np.isfinite(incl), incl, np.inf)
    incl = np.minimum(incl, 0.05 * np.maximum(1.0, np.abs(z)))

    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            dist = abs(z[i] - z[j])
            lim = max(cfg.cluster_tol * max(1.0, abs(z[i]), abs(z[j])),
                      incl[i] + incl[j])
            if dist <= lim:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)

    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    clusters = []
    for key in sorted(groups):
        members = z[groups[key]]
        center = complex(members.mean())
        span = 0.0
        for i in range(members.size):
            for j in range(i + 1, members.size):
                span = max(span, abs(members[i] - members[j]))
        clusters.append((center, members.size, span))
    clusters.sort(key=lambda t: (t[0].real, t[0].imag))
    return clusters


def _refine_cluster(q: np.ndarray, center: complex, mult: int, span: float,
                    cfg: SolverConfig) -> complex:
    """Re-center a multiplicity-m cluster on the simple root of p^(m-1)."""
    if mult == 1:
        return center
    dq = q
    for _ in range(mult - 1):
        dq = _derivative(dq)
    if dq.size < 2:
        return center
    w = center
    for _ in range(60):
        pv, dv = _horner(dq, w)
        if dv == 0:
            break
        step = pv / dv
        w = w - step
        if abs(step) <= 1e-16 * max(1.0, abs(w)):
            break
    limit = max(4.0 * span, 8.0 * cfg.cluster_tol * max(1.0, abs(center)))
    return w if abs(w - center) <= limit else center


# conjugate mates of ill-conditioned roots can disagree by far more than the
# convergence tolerance; the pairing radius must cover that noise while
# staying well below legitimate root separations, which snapping real roots
# first already keeps out of the candidate pools
_PAIR_RADIUS = 1e-3
# an unpaired nonreal entry this close to the axis is a real root whose mate
# landed under the strict snap threshold while its own noise did not
_ORPHAN_SNAP = 1e-6


def _snapped(z: complex, tol: float) -> complex:
    """z made exactly real when |Im z| <= tol * max(1, |z|)."""
    if z.imag != 0.0 and abs(z.imag) <= tol * max(1.0, abs(z)):
        return complex(z.real, 0.0)
    return z


def _pair_conjugates(entries: list, cfg: SolverConfig) -> list:
    """Average nearby conjugate partners so the multiset conjugates exactly.

    Runs after real snapping, so real roots carrying opposite-signed noise
    never enter the candidate pools and cannot be married across a genuine
    root gap.
    """
    out = list(entries)
    pos = [i for i, (z, _) in enumerate(out) if z.imag > 0.0]
    neg = [i for i, (z, _) in enumerate(out) if z.imag < 0.0]
    used = set()
    paired = set()
    for i in pos:
        zi, mi = out[i]
        bestj, bestdist = -1, math.inf
        for j in neg:
            if j in used or out[j][1] != mi:
                continue
            dist = abs(zi - out[j][0].conjugate())
            if dist < bestdist:
                bestdist, bestj = dist, j
        if bestj >= 0 and bestdist <= _PAIR_RADIUS * max(1.0, abs(zi)):
            used.add(bestj)
            paired.update((i, bestj))
            mu = 0.5 * (zi + out[bestj][0].conjugate())
            out[i] = (mu, mi)
            out[bestj] = (mu.conjugate(), out[bestj][1])
    for i, (z, m) in enumerate(out):
        if i not in paired:
            out[i] = (_snapped(z, _ORPHAN_SNAP), m)
    return out


def _assert_conjugate_closed(entries: list) -> None:
    counts = {}
    for z, m in entries:
        counts[(z.real, z.imag, m)] = counts.get((z.real, z.imag, m), 0) + 1
    for (re, im, m), c in counts.items():
        if counts.get((re, -im, m), 0) != c:
            raise NonConvergenceError(
                "conjugate symmetry of the zero multiset could not be restored",
                location=complex(re, im))


def deflate_origin(p):
    """Split p(z) = z^k q(z) with q(0) != 0; returns (q, k)."""
    k = int(np.flatnonzero(p.coeffs)[0])
    return type(p)(p.coeffs[k:]), k


def find_roots(p, config: SolverConfig | None = None) -> ZeroSet:
    """Solve for all zeros of p; see the module docstring for the pipeline."""
    cfg = config or SolverConfig()
    c = _coeff_array(p)
    degree = c.size - 1
    if degree == 0:
        raise DegreeZeroError("a nonzero constant has no zeros")
    is_real = bool(np.all(c.imag == 0.0))

    # deflate_origin without building a polynomial
    k0 = int(np.flatnonzero(c)[0])
    q = c[k0:]

    entries = []
    if q.size >= 2:
        iterates = _aberth(q, cfg)
        iterates = np.array([_polish(q, complex(v)) for v in iterates])
        clusters = _cluster(q, iterates, cfg)
        raw = [(_refine_cluster(q, ctr, m, span, cfg), m)
               for ctr, m, span in clusters]
        # snap before pairing: real roots carrying opposite-signed imaginary
        # noise must not be mistaken for a wide conjugate pair
        raw = [(_snapped(z, cfg.real_snap_tol), m) for z, m in raw]
        if is_real:
            raw = _pair_conjugates(raw, cfg)
            _assert_conjugate_closed(raw)
        entries.extend(raw)
    if k0 > 0:
        entries.append((0.0 + 0.0j, k0))

    scale = float(np.max(np.abs(c)))
    finished = []
    worst = (-1.0, 0.0 + 0.0j)
    for z, m in entries:
        res = abs(_horner(c, z)[0]) / (scale * max(1.0, abs(z)) ** degree)
        finished.append(ZeroEntry(z, m, res))
        if res > worst[0]:
            worst = (res, z)
    if worst[0] > cfg.residual_accept:
        raise NonConvergenceError(
            f"zero at {worst[1]} carries residual {worst[0]:.3e} above the "
            f"acceptance threshold {cfg.residual_accept:.3e}",
            location=worst[1], residual=worst[0])

    finished.sort(key=lambda e: (e.location.real, e.location.imag))
    return ZeroSet(tuple(finished), degree)


def residual_report(p, zs: ZeroSet) -> float:
    """Worst normalized residual |p(z)| / (scale * max(1,|z|)^degree)."""
    c = _coeff_array(p)
    degree = c.size - 1
    scale = float(np.max(np.abs(c)))
    worst = 0.0
    for e in zs.zeros:
        worst = max(worst, abs(_horner(c, e.location)[0])
                    / (scale * max(1.0, abs(e.location)) ** degree))
    return worst
