"""Simultaneous polynomial root finding with residual certificates.

``find_roots_many`` solves a batch of polynomials; ``find_roots`` is the
batch of one.  The solve pipeline:

1. deflate exact zeros at the origin, and group the batch by the degree
   left over,
2. Aberth-Ehrlich simultaneous iteration from equispaced angles at radii
   ramped around ``|c_0 / c_d|^(1/d)``, turned by a fixed irrational offset
   so that no start lies on an axis and no two starts are antipodal,
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
   polynomial's solve fails instead of returning a bad certificate.

Stacked on (B, d) arrays, once per degree group: Aberth (a row leaves the
stack after the sweep in which its own stopping test passes), and stage 4's
sort, inclusion radii and mask of candidate pairs.  Scalar, per polynomial,
on Python lists made once: polishing, each candidate pair's merge test,
refinement, snapping, pairing and the residual.  The merge test decides, so
it runs on Python complex numbers, whose |.| is libm's hypot, as on numpy
scalars; numpy's SIMD abs may differ in the last bit: the mask has a margin.

Iteration order, start configuration and merge order are fixed, so the
same input and configuration give bitwise identical output, whatever else
shares the batch: each row does exactly the floating-point operations of a
lone solve, while every complex product runs through the same numpy loop.
numpy's SIMD complex multiply fuses multiplies and adds (FMA; numpy 2.4 on
an AVX-512 x86-64 CPU) where its scalar loop does not, and an in-place
``pv *= z`` on a one-element array takes the scalar loop.  So complex
arrays are multiplied out of place, on contiguous operands of one shape,
and per-row constants are broadcast only into additions and real factors,
which round the same in either loop.

The solver emits no floating-point warnings: ``_aberth`` and
``_finish_many`` (polishing, clustering and finishing) run under
``np.errstate(all="ignore")``.  The iterates of a hard solve can overflow,
and the stages handle each non-finite value where it arises (the Aberth
fallback step, an infinite inclusion radius), so a warning would only
report what is already handled.  errstate changes only what numpy reports,
never a bit of the result.
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
    "find_roots_many",
    "deflate_origin",
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
            if not getattr(self, name) > 0.0:
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
    """Vectorized Horner returning (p(z), p'(z)); each c[k] broadcasts
    against z."""
    pv = np.full_like(z, c[-1])
    dv = np.zeros_like(z)
    for k in range(len(c) - 2, -1, -1):
        dv = dv * z + pv
        pv = pv * z + c[k]
    return pv, dv


@np.errstate(all="ignore")
def _aberth(Q: np.ndarray, cfg: SolverConfig) -> np.ndarray:
    """Iterates for a (B, d+1) stack of degree-d polynomials, shape (B, d).

    Each row runs the sweeps it would run alone and leaves the active set
    after the sweep in which its own stopping test passes.
    """
    B, d = Q.shape[0], Q.shape[1] - 1
    radius = np.empty(B)
    for i, q in enumerate(Q):
        r = float(abs(q[0] / q[-1])) ** (1.0 / d) * cfg.seed_radius_factor
        radius[i] = r if math.isfinite(r) and r != 0.0 else 1.0
    ang = 2.0 * math.pi * np.arange(d) / d + _START_OFFSET
    # ramped radii: no two starts are antipodal, which would otherwise trap
    # even-degree real input in near-cyclic dynamics for many iterations
    ramp = 0.9 + 0.2 * np.arange(d) / max(1, d - 1)
    z = radius[:, None] * ramp * np.exp(1j * ang)
    fallback_phase = np.exp(1j * (0.7 + np.arange(d)))
    nudge = np.arange(d) + 1.0
    out = np.empty_like(z)
    rows = np.arange(B)
    cols = _columns(Q, d)
    rad = np.repeat(radius[:, None], d, axis=1)
    # run to convergence or budget; early "stagnation" exits leave iterates
    # whose Weierstrass inclusion disks still straddle distinct nearby roots,
    # which the cluster stage would then wrongly merge
    for _ in range(cfg.max_iterations):
        diff = z[:, :, None] - z[:, None, :]
        diff.reshape(rows.size, -1)[:, ::d + 1] = np.inf
        stuck = (diff == 0).any(axis=(1, 2)) if (diff == 0).any() else None
        pv, dv = _eval_many(cols, z)
        repulse = (1.0 / diff).sum(axis=2)
        newton = pv / dv
        w = newton / (1.0 - newton * repulse)
        finite = np.isfinite(w)
        if not finite.all():
            fallback = 0.01 * (np.abs(z) + rad) * fallback_phase
            w = np.where(finite, w,
                         np.where(np.isfinite(newton), newton, fallback))
        step = z - w
        done = (np.abs(w) / np.maximum(1.0, np.abs(step))).max(axis=1) \
            <= cfg.convergence_tol
        if stuck is not None:
            # coincident iterates break the repulsion term; such a row is
            # separated instead, and skips this sweep's stopping test
            step[stuck] = z[stuck] + rad[stuck] * 1e-9 * nudge
            done &= ~stuck
        z = step
        if done.any():
            out[rows[done]] = z[done]
            keep = ~done
            rows, z, rad = rows[keep], z[keep], rad[keep]
            if not rows.size:
                return out
            cols = [ck[keep] for ck in cols]
    out[rows] = z
    return out


def _columns(Q: np.ndarray, n: int) -> list:
    """Column k of Q broadcast to shape (B, n), for every k: numpy adds
    same-shape operands fastest, and addition rounds the same either way."""
    return list(np.repeat(Q.T[:, :, None], n, axis=2))


def _polish(q: list, z: complex) -> complex:
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


def _mean(members: list) -> complex:
    """complex(np.mean(members)), bitwise.  numpy's sum of one z is 0 + z,
    which turns -0.0 parts into +0.0, so the mean of one finite z is
    (0 + z) / 1 in Python's complex arithmetic too."""
    z = members[0]
    if len(members) == 1 and math.isfinite(z.real) and math.isfinite(z.imag):
        return (0j + z) / 1
    return complex(np.array(members).mean())


def _cluster_many(Q: np.ndarray, Z: np.ndarray, cfg: SolverConfig) -> list:
    """Merge each row of Z, the polished iterates (B, d) of the rows of Q,
    into (center, multiplicity, span) clusters; one list per row."""
    z, incl = _inclusion_radii(Q, Z)
    pairs = {}
    for r, i, j in zip(*(ix.tolist() for ix in
                         np.nonzero(_near_pairs(z, incl, cfg.cluster_tol)))):
        pairs.setdefault(r, []).append((i, j))
    return [_merge(zl, il, pairs.get(r, ()), cfg.cluster_tol)
            for r, (zl, il) in enumerate(zip(z.tolist(), incl.tolist()))]


def _inclusion_radii(Q: np.ndarray, Z: np.ndarray):
    """Each row of Z sorted by real then imaginary part, and the radii
    d |p(z)/c_d| / prod |z - z_j| of its inclusion discs, at most
    0.05 * max(1, |z|)."""
    B, n = Z.shape
    order = np.lexsort((Z.imag, Z.real), axis=-1)
    z = np.take_along_axis(Z, order, axis=-1)
    pv, _ = _eval_many(_columns(Q, n), z)
    diff = z[:, :, None] - z[:, None, :]
    diff.reshape(B, -1)[:, ::n + 1] = 1.0
    prods = np.abs(diff).prod(axis=2)
    incl = n * np.abs(pv / Q[:, -1:]) / prods
    incl = np.where(np.isfinite(incl), incl, np.inf)
    incl = np.minimum(incl, 0.05 * np.maximum(1.0, np.abs(z)))
    return z, incl


def _near_pairs(z: np.ndarray, incl: np.ndarray, tol: float) -> np.ndarray:
    """(B, n, n) mask of the pairs i < j of each row that ``_close`` might
    merge.  numpy's SIMD complex abs is not libm's hypot, so the limit gets
    a margin, and a NaN comparison counts as near: the mask holds every pair
    that ``_close`` merges, and ``_close`` decides."""
    absz = np.abs(z)
    lim = np.maximum(
        tol * np.maximum(1.0, np.maximum(absz[:, :, None], absz[:, None, :])),
        incl[:, :, None] + incl[:, None, :])
    far = np.abs(z[:, :, None] - z[:, None, :]) > lim * (1.0 + 1e-9)
    return ~far & np.triu(np.ones(far.shape[1:], bool), 1)


def _close(zi: complex, zj: complex, ri: float, rj: float, tol: float) -> bool:
    """The merge test: z_i and z_j lie within tol * max(1, |z_i|, |z_j|), or
    their inclusion discs of radii r_i, r_j overlap.  It runs on Python
    complex numbers, so every |.| is libm's hypot."""
    return abs(zi - zj) <= max(tol * max(1.0, abs(zi), abs(zj)), ri + rj)


def _merge(z: list, incl: list, pairs, tol: float) -> list:
    """Clusters of the sorted iterates z, merging the pairs (i, j) of
    ``pairs`` that pass ``_close``."""
    parent = list(range(len(z)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in pairs:
        if _close(z[i], z[j], incl[i], incl[j], tol):
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[max(ri, rj)] = min(ri, rj)

    groups = {}
    for i, zi in enumerate(z):
        groups.setdefault(find(i), []).append(zi)
    clusters = []
    for key in sorted(groups):
        members = groups[key]
        span = 0.0
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                span = max(span, abs(members[i] - members[j]))
        clusters.append((_mean(members), len(members), span))
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
    dq = dq.tolist()
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


def _finish(c: np.ndarray, q: np.ndarray, k0: int, clusters: list,
            cfg: SolverConfig) -> ZeroSet:
    """Refine, snap and pair one polynomial's clusters, then certify every
    entry against the full coefficients ``c``."""
    degree = c.size - 1
    raw = [(_refine_cluster(q, ctr, m, span, cfg), m)
           for ctr, m, span in clusters]
    # snap before pairing: real roots carrying opposite-signed imaginary
    # noise must not be mistaken for a wide conjugate pair
    entries = [(_snapped(z, cfg.real_snap_tol), m) for z, m in raw]
    if bool(np.all(c.imag == 0.0)):
        entries = _pair_conjugates(entries, cfg)
        _assert_conjugate_closed(entries)
    if k0 > 0:
        entries.append((0.0 + 0.0j, k0))

    cl = c.tolist()
    scale = float(np.max(np.abs(c)))
    finished = []
    worst = (-1.0, 0.0 + 0.0j)
    for z, m in entries:
        res = abs(_horner(cl, z)[0]) / (scale * max(1.0, abs(z)) ** degree)
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


@np.errstate(all="ignore")
def _finish_many(Q: np.ndarray, members: list, iterates, cfg: SolverConfig
                 ) -> list:
    """Polish, cluster and finish one group: ``members`` holds the (c, k0)
    whose deflated coefficients are the rows of Q, and ``iterates`` their
    (B, d) Aberth iterates, None for d = 0.  Returns each member's ZeroSet
    or the exception it raised; one member's failure fails no other."""
    out = [[] for _ in members]
    if iterates is not None:
        polished, ok = [], []
        for r, (q, zs) in enumerate(zip(Q.tolist(), iterates.tolist())):
            try:
                polished.append([_polish(q, v) for v in zs])
                ok.append(r)
            except Exception as exc:
                out[r] = exc
        if ok:
            for r, clusters in zip(ok, _cluster_many(Q[ok], np.array(polished),
                                                     cfg)):
                out[r] = clusters
    for r, ((c, k0), q) in enumerate(zip(members, Q)):
        if not isinstance(out[r], Exception):
            try:
                out[r] = _finish(c, q, k0, out[r], cfg)
            except Exception as exc:
                out[r] = exc
    return out


def _solve_many(polys, config: SolverConfig | None) -> list:
    """find_roots_many, which find_roots calls under this private name: a
    traced run wraps every public function, and a nested public call would
    count each solve twice."""
    cfg = config or SolverConfig()
    out = [None] * len(polys)
    groups = {}
    for i, p in enumerate(polys):
        try:
            c = _coeff_array(p)
            if c.size == 1:
                raise DegreeZeroError("a nonzero constant has no zeros")
        except (TypeError, DegreeZeroError) as exc:
            out[i] = exc
            continue
        # deflate_origin without building a polynomial
        k0 = int(np.flatnonzero(c)[0])
        groups.setdefault(c.size - 1 - k0, []).append((i, c, k0))
    for d, members in groups.items():
        Q = np.stack([c[k0:] for _, c, k0 in members])
        results = _finish_many(Q, [(c, k0) for _, c, k0 in members],
                               _aberth(Q, cfg) if d else None, cfg)
        for (i, _, _), result in zip(members, results):
            out[i] = result
    return out


def find_roots_many(polys, config: SolverConfig | None = None) -> list:
    """Solve every polynomial of ``polys``; see the module docstring.

    Returns one entry per input, in order: its ``ZeroSet``, or the exception
    solving it alone would have raised.  Each entry is bitwise equal to what
    ``find_roots`` returns for that polynomial.
    """
    return _solve_many(polys, config)


def find_roots(p, config: SolverConfig | None = None) -> ZeroSet:
    """Solve for all zeros of p; see the module docstring for the pipeline."""
    result = _solve_many([p], config)[0]
    if isinstance(result, Exception):
        raise result
    return result
