"""Simultaneous polynomial root finding with residual certificates.

``find_roots_many`` solves a batch of real polynomials; ``find_roots`` is
the batch of one.  The solve pipeline:

1. deflate exact zeros at the origin, group the batch by the degree left
   over, and scale each polynomial by the power of two that brings its
   largest coefficient magnitude into [1/2, 1).  Scaling by a power of two
   is exact, so no zero moves, and Horner's scheme no longer overflows on
   coefficients near 1e308; a polynomial whose scaled coefficients would
   lose bits to underflow is left as it is,
2. Aberth-Ehrlich simultaneous iteration from equispaced angles at radii
   ramped around ``|c_0 / c_d|^(1/d)``, turned by a fixed irrational offset
   so that no start lies on an axis and no two starts are antipodal.  A
   polynomial stops when every relative step is at most _CONVERGENCE_TOL,
   or after _STALL_SWEEPS sweeps in a row on its noise floor: every |p(z)|
   within the backward-error bound 4 d u sum |c_k| |z|^k, u = 2^-53
   (Higham, Accuracy and Stability of Numerical Algorithms, 5.1), and every
   relative step at most _STALL_TOL.  The bound alone is not enough:
   iterates of close simple zeros meet it while they still straddle them,
   and stage 3 would merge them into one multiple zero.  From sweep
   _ISOLATION_SWEEP on, pairwise disjoint inclusion discs of radius
   ``d |p(z)/c_d| / prod |z - z_j|``, with |p(z)| at least u sum |c_k| |z|^k,
   may stand in for the step test: they hold d simple zeros (Braess &
   Hadeler 1973; Carstensen 1991).  A sweep evaluates p, p' and the bound's
   sum |c_k| |z|^k of every active row by Horner's scheme on one complex
   slab, two numpy calls per coefficient (``_slab``).  A group of one row
   sweeps on a loop of its own that keeps its stopping state in Python
   scalars (``_aberth_lone``).  Both loops run each sweep through
   ``_sweep``, ``_floor`` and ``_isolated`` on (B, d) arrays, so a lone
   row has the bits and the sweep count of the same row in a stack; the
   lone loop only drops the active set's gathers, masks and compaction,
   whose numpy calls cost as much for one row as for sixty,
3. cluster merging: iterates z_i, z_j are merged when they sit within
   _CLUSTER_TOL * max(1, |z_i|, |z_j|) of each other or when their
   Gerschgorin-style inclusion discs of radius ``d |p(z)/c_d| /
   prod |z - z_j|`` overlap, which is what certifies a multiple root whose
   iterates stall on the evaluation noise floor.  One array test decides
   every merge.  A polynomial with a pair to merge is polished and tested
   again: guarded Newton steps on each iterate shrink |p(z)| and so the
   discs, which keeps close simple zeros apart.  In one with no pair to
   merge among its Aberth iterates, each iterate is its own cluster,
4. clusters of multiplicity m are re-centered on the nearby simple root of
   the (m-1)-th derivative, recovering full accuracy for multiple roots,
5. near-real locations are snapped: |Im z| <= _REAL_SNAP_TOL * max(1, |z|)
   becomes exactly real,
6. remaining conjugate iterates are averaged in pairs; a nonreal entry left
   unpaired is snapped to the axis or fails the solve, so the returned
   multiset is exactly conjugation invariant,
7. every entry gets the residual |q(z)| / sum_k |q_k| |z|^k, the backward
   error whose floor step 2 stops on, on the polynomial q left after
   deflation (the |z|^k of k origin zeros cancels; an origin zero gets 0).
   The sum comes first: where it is not finite the residual is NaN, and
   |q(z)| is not evaluated.  Unless every entry is at most
   ``residual_accept`` (a NaN is not) the polynomial's solve fails instead
   of returning a bad certificate.

Stacked on (B, d) arrays, once per degree group: Aberth (a row leaves the
stack after the sweep in which its own stopping test passes; a group of one
takes the one-row loop, with the bits of its stacked row), and stage 3's
sort, inclusion radii and merge test, on the Aberth iterates and again on
the polished ones.  In a group of two or more rows, a row with no zero at
the origin, no pair to merge and finite iterates is finished stacked: its
singleton clusters are snapped, paired and certified by the residual on
(B, d) arrays, in the order of the scalar finish and with its bits.  The
stacked finish keeps only the rows it can certify so: every nonreal entry
pairs with its own nearest mate, and every residual passes the gate.  It
leaves every other row to the scalar finish, which decides it, exceptions
included.  Scalar, per polynomial, on Python lists made once: a group of
one row, which is every ``find_roots`` call and where numpy's per-call
cost outweighs a short loop, a row the stacked finish leaves, and a row
with a pair to merge or a non-finite iterate: polishing and the union of
the merged pairs, then refinement, snapping, pairing and the residual.
The merge test and the stacked finish take every |.| as np.hypot, which is
libm's hypot bitwise, as Python's abs(complex) is; numpy's SIMD complex
abs is not.

Iteration order, start configuration and merge order are fixed, so the
same input and configuration give bitwise identical output, whatever else
shares the batch: each row's result is bitwise that of a lone solve.  Its
Aberth sweeps do exactly the floating-point operations of a lone solve,
while every complex product runs through the same numpy loop, and the
stacked finish writes the residual's complex products out in real
arithmetic, as Python's complex multiply computes them, and takes its sum
as one float multiply and one float add per coefficient, as Python does.
numpy's SIMD complex multiply fuses multiplies and adds (FMA; numpy 2.4 on
an AVX-512 x86-64 CPU) where its scalar loop does not, and an in-place
``pv *= z`` on a one-element array takes the scalar loop.  So complex
arrays are multiplied out of place, on contiguous operands of one shape,
and per-row constants are broadcast only into additions and real factors,
which round the same in either loop.  A complex add rounds the same in
every loop, so the Horner slab adds each product in place into its
coefficient blocks.  The slab carries the bound as complex rows too,
|c_k| + 0i at |z| + 0i: their product (m + 0i)(a + 0i) rounds to m a,
fused or not, so a finite bound has the bits of the float Horner.  Where
m a overflows, the bound goes non-finite with the float Horner's (NaN one
product after its inf), and only a test of finiteness, and the comparisons
that pass it, read it.

Real coefficients round as complex ones with zero imaginary parts: Aberth's
slab holds them as complex128 blocks (complex plus float arrays round the
same, but slower), and the scalar Horner paths run on Python complex
numbers, so no signed zero depends on how the interpreter mixes float and
complex.  The start radius |c_0 (1 / c_d)| is real float64 arithmetic on
the rows of Q.

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
from typing import NamedTuple

import numpy as np

from .errors import DegreeZeroError, NonConvergenceError, check_number
from .poly import RealPolynomial, _horner

__all__ = [
    "SolverConfig",
    "ZeroEntry",
    "ZeroSet",
    "find_roots",
    "find_roots_many",
]

# fixed start rotation, 1/sqrt(2) radians
_START_OFFSET = 0.7071067811865476
# Aberth sweep budget, and its stopping test on the relative step
_MAX_ITERATIONS = 200
_CONVERGENCE_TOL = 1e-13
# the stall exit of step 2: sweeps in a row on the noise floor, step guard
_STALL_SWEEPS = 3
_STALL_TOL = 1e-8
# the isolation exit of step 2: from this sweep on, pairwise disjoint
# inclusion discs stand in for the step guard.  Over 99% of converging
# solves stop earlier (mean 11.7 sweeps), so they keep their bits
_ISOLATION_SWEEP = 30
# merge distance of iterates, relative to max(1, |z|)
_CLUSTER_TOL = 1e-6
# |Im z| below this, relative to max(1, |z|), is snapped to the real axis
_REAL_SNAP_TOL = 1e-9


@dataclass(frozen=True)
class SolverConfig:
    """The solve's acceptance threshold: the largest residual a returned
    zero may carry, the backward error |p(z)| / sum_k |c_k| |z|^k that the
    Aberth iteration's noise floor also reads.  It decides only whether a
    solve succeeds, never where its zeros land."""

    residual_accept: float = 1e-9

    def __post_init__(self):
        if not check_number(self.residual_accept, "residual_accept",
                            finite=False) > 0.0:
            raise ValueError("residual_accept must be positive")


# a NamedTuple has a frozen dataclass's fields, repr, equality and
# immutability, and builds in half the time: a solve makes one per zero
class ZeroEntry(NamedTuple):
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


def _derivative(c: np.ndarray) -> np.ndarray:
    return c[1:] * np.arange(1, c.size)


@np.errstate(all="ignore")
def _aberth(Q: np.ndarray):
    """Iterates for a (B, d+1) stack of degree-d polynomials, shape (B, d),
    and the number of sweeps each row ran, shape (B,).

    Each row runs the sweeps it would run alone and leaves the active set
    after the sweep in which its own stopping test passes.  A stack of one
    row runs ``_aberth_lone``: the same sweeps, without the bookkeeping of
    the active set.
    """
    B, d = Q.shape[0], Q.shape[1] - 1
    radius = np.empty(B)
    for i, q in enumerate(Q):
        r = float(abs(q[0] * (1.0 / q[-1]))) ** (1.0 / d)
        radius[i] = r if math.isfinite(r) and r != 0.0 else 1.0
    ang = 2.0 * math.pi * np.arange(d) / d + _START_OFFSET
    # ramped radii: no two starts are antipodal, which would otherwise trap
    # even-degree real input in near-cyclic dynamics for many iterations
    ramp = 0.9 + 0.2 * np.arange(d) / max(1, d - 1)
    z = radius[:, None] * ramp * np.exp(1j * ang)
    rad = np.repeat(radius[:, None], d, axis=1)
    horner = _slab(Q, d)
    lead = np.abs(Q[:, -1:])
    if B == 1:
        return _aberth_lone(z, rad, horner, lead)
    out = np.empty_like(z)
    sweeps = np.full(B, _MAX_ITERATIONS)
    rows = np.arange(B)
    quiet_for = np.zeros(B, dtype=int)
    # a row stops on its relative step, or on its noise floor (step 2 of the
    # module docstring), where ill-conditioned simple roots stall with steps
    # of 1e-12 to 1e-9.  The step guard keeps out early "stagnation" exits:
    # iterates of four simple roots within 0.01 of 1.152 meet the bound by
    # sweep 19, while their Weierstrass inclusion disks still straddle the
    # distinct roots, which the cluster stage would then wrongly merge
    for sweep in range(_MAX_ITERATIONS):
        step, rel, stuck, diff, pv, bound = _sweep(z, rad, horner)
        done = rel <= _CONVERGENCE_TOL
        quiet = rel <= _STALL_TOL
        # the rows whose noise floor is tested: the quiet ones, and from
        # sweep _ISOLATION_SWEEP on every row
        tested = quiet | (sweep >= _ISOLATION_SWEEP)
        if stuck is not None:
            # a row with coincident iterates skips this sweep's stopping
            # tests and starts its count of quiet sweeps again
            done &= ~stuck
            quiet &= ~stuck
            tested &= ~stuck
        if tested.any():
            at = np.flatnonzero(tested)
            mag = bound[at]
            apv, met = _floor(pv[at], mag)
            loud = met & ~quiet[at]
            if loud.any():
                met[loud] = _isolated(diff[at[loud]], apv[loud], mag[loud],
                                      lead[at[loud]])
            quiet[at] = met
        quiet_for = np.where(quiet, quiet_for + 1, 0)
        done |= quiet_for >= _STALL_SWEEPS
        z = step
        if done.any():
            out[rows[done]] = z[done]
            sweeps[rows[done]] = sweep + 1
            keep = ~done
            rows, z, rad = rows[keep], z[keep], rad[keep]
            if not rows.size:
                return out, sweeps
            horner = _slab(Q[rows], d)
            lead = lead[keep]
            quiet_for = quiet_for[keep]
    out[rows] = z
    return out, sweeps


def _aberth_lone(z: np.ndarray, rad: np.ndarray, horner, lead: np.ndarray):
    """``_aberth``'s loop for a stack of one row, with its stopping state in
    Python scalars: the sweeps and tests of the stacked loop on the same
    (1, d) arrays, so the same bits and sweep count, without the gathers,
    masks and compaction of the active set."""
    quiet_for = 0
    for sweep in range(_MAX_ITERATIONS):
        step, rel, stuck, diff, pv, bound = _sweep(z, rad, horner)
        rel, stuck = rel.item(), stuck is not None
        quiet = rel <= _STALL_TOL and not stuck
        if not stuck and (quiet or sweep >= _ISOLATION_SWEEP):
            apv, met = _floor(pv, bound)
            if met.item() and not quiet:
                met = _isolated(diff, apv, bound, lead)
            quiet = met.item()
        quiet_for = quiet_for + 1 if quiet else 0
        z = step
        if (rel <= _CONVERGENCE_TOL and not stuck) or \
                quiet_for >= _STALL_SWEEPS:
            return z, np.array([sweep + 1])
    return z, np.array([_MAX_ITERATIONS])


def _sweep(z: np.ndarray, rad: np.ndarray, horner):
    """One Aberth sweep of the (B, d) iterates z, which start at radii
    ``rad``, on the Horner slab of their rows.  Returns the next iterates,
    each row's largest relative step, the mask of the rows with coincident
    iterates (None when there is none), and what the noise-floor test reads:
    the differences z_i - z_j with inf on the diagonal, p(z) and
    sum_k |c_k| |z|^k."""
    B, d = z.shape
    diff = z[:, :, None] - z[:, None, :]
    diff.reshape(B, -1)[:, ::d + 1] = np.inf
    stuck = (diff == 0).any(axis=(1, 2)) if (diff == 0).any() else None
    pv, bound, dv = horner(z)
    repulse = (1.0 / diff).sum(axis=2)
    newton = pv / dv
    w = newton / (1.0 - newton * repulse)
    finite = np.isfinite(w)
    if not finite.all():
        fallback = 0.01 * (np.abs(z) + rad) * np.exp(1j * (0.7 + np.arange(d)))
        w = np.where(finite, w,
                     np.where(np.isfinite(newton), newton, fallback))
    step = z - w
    rel = (np.abs(w) / np.maximum(1.0, np.abs(step))).max(axis=1)
    if stuck is not None:
        # coincident iterates break the repulsion term; such a row is
        # separated instead
        step[stuck] = z[stuck] + rad[stuck] * 1e-9 * (np.arange(d) + 1.0)
    return step, rel, stuck, diff, pv, bound


def _floor(pv: np.ndarray, mag: np.ndarray):
    """|p(z)| of the (n, d) values pv, and per row whether every one is
    within the backward-error bound 4 d u ``mag``, mag = sum_k |c_k| |z|^k."""
    apv = np.abs(pv)
    noise = 4.0 * pv.shape[1] * 2.0 ** -53
    return apv, (np.isfinite(mag) & (apv <= noise * mag)).all(axis=1)


def _slab(Q: np.ndarray, n: int, full: bool = True):
    """Horner's scheme on the (B, d+1) stack Q at (B, n) points, as one
    function of the points z that returns p(z), sum_k |c_k| |z|^k and p'(z),
    each of shape (B, n); p(z) alone when ``full`` is false.

    The values run on one complex slab H of blocks of shape (B, n).  In
    full, block 2k holds c_k, block 2k+1 holds |c_k| + 0i and block 2d+2
    holds p' = 0, and Z holds the blocks z, |z| + 0i and z.  Each
    k = d-1..0 takes one product of the running (p, bound, p'), blocks
    2k+2..2k+4, with Z, and one in-place add of it into blocks 2k..2k+2,
    which then hold

        (c_k + p z,  |c_k| + bound |z|,  p + p' z),

    the next running triple; afterwards blocks 0, 1 and 2 hold p, the bound
    and p'.  Without ``full``, block k holds c_k and the same two calls
    take block k+1 into block k.  Every evaluation overwrites the arrays the
    previous one returned."""
    B, d = Q.shape[0], Q.shape[1] - 1
    # blocks per coefficient, and blocks of the running values
    m, w = (2, 3) if full else (1, 1)
    start = np.zeros((m * d + w, B, n), np.complex128)
    start[:m * (d + 1):m] = Q.T[:, :, None]
    if full:
        start[1::2] = np.abs(Q.T)[:, :, None]
    H = np.empty_like(start)
    T = np.empty((w, B, n), np.complex128)
    Z = np.empty_like(T)
    steps = [(H[m * k + m:m * k + m + w], H[m * k:m * k + w])
             for k in range(d - 1, -1, -1)]
    values = (H[0], H[1].real, H[2]) if full else H[0]

    def horner(z):
        np.copyto(H, start)
        Z[0] = z
        if full:
            Z[1], Z[2] = np.abs(z), z
        for run, acc in steps:
            np.multiply(run, Z, out=T)
            np.add(T, acc, out=acc)
        return values

    return horner


def _isolated(diff: np.ndarray, apv: np.ndarray, mag: np.ndarray,
              lead: np.ndarray) -> np.ndarray:
    """Per row, whether the inclusion discs of radius
    d |p(z_i)| / |c_d| / prod |z_i - z_j| are pairwise disjoint; ``diff``
    holds z_i - z_j with inf on the diagonal, ``apv`` |p(z_i)|, ``mag``
    sum_k |c_k| |z_i|^k and ``lead`` |c_d|.  A |p(z)| below one rounding,
    u mag, is noise, and one that rounds to 0 would shrink its disc to a
    point, so |p(z)| is taken as at least u mag.  The discs hold every
    zero, and a connected group of m of them holds m (Braess & Hadeler
    1973; Carstensen 1991), so disjoint discs hold d simple zeros."""
    n, d = apv.shape
    gap = np.abs(diff)
    prods = gap.copy()
    prods.reshape(n, -1)[:, ::d + 1] = 1.0
    radius = d * np.maximum(apv, 2.0 ** -53 * mag) / lead / prods.prod(axis=2)
    return (gap > radius[:, :, None] + radius[:, None, :]).all(axis=(1, 2))


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


def _cluster_many(Q: np.ndarray, Z: np.ndarray) -> list:
    """Merge each row of Z, the polished iterates (B, d) of the rows of Q,
    into (center, multiplicity, span, radius) clusters; one list per row."""
    z, incl = _inclusion_radii(Q, Z)
    pairs = {}
    for r, i, j in zip(*(ix.tolist() for ix in
                         np.nonzero(_near_pairs(z, incl)))):
        pairs.setdefault(r, []).append((i, j))
    return [_merge(zl, il, pairs.get(r, ()))
            for r, (zl, il) in enumerate(zip(z.tolist(), incl.tolist()))]


def _inclusion_radii(Q: np.ndarray, Z: np.ndarray):
    """Each row of Z sorted by real then imaginary part, and the radii
    d |p(z)/c_d| / prod |z - z_j| of its inclusion discs, at most
    0.05 * max(1, |z|)."""
    B, n = Z.shape
    order = np.lexsort((Z.imag, Z.real), axis=-1)
    z = np.take_along_axis(Z, order, axis=-1)
    pv = _slab(Q, n, full=False)(z)
    diff = z[:, :, None] - z[:, None, :]
    diff.reshape(B, -1)[:, ::n + 1] = 1.0
    prods = np.abs(diff).prod(axis=2)
    incl = n * np.abs(pv / Q[:, -1:]) / prods
    incl = np.where(np.isfinite(incl), incl, np.inf)
    incl = np.minimum(incl, 0.05 * np.maximum(1.0, np.abs(z)))
    return z, incl


def _near_pairs(z: np.ndarray, incl: np.ndarray) -> np.ndarray:
    """The merge test: the (B, n, n) mask of the pairs i < j of each row
    with |z_i - z_j| <= max(_CLUSTER_TOL * max(1, |z_i|, |z_j|), r_i + r_j),
    r the inclusion radii ``incl``; every |.| is np.hypot.  np.fmax skips a
    NaN |z| or radius, as Python's max does after its first argument."""
    absz = np.fmax(1.0, np.hypot(z.real, z.imag))
    lim = np.fmax(
        _CLUSTER_TOL * np.maximum(absz[:, :, None], absz[:, None, :]),
        incl[:, :, None] + incl[:, None, :])
    diff = z[:, :, None] - z[:, None, :]
    near = np.hypot(diff.real, diff.imag) <= lim
    return near & np.triu(np.ones(near.shape[1:], bool), 1)


def _merge(z: list, incl: list, pairs) -> list:
    """Clusters of the sorted iterates z: the union of the pairs (i, j) of
    ``pairs``, which the merge test ``_near_pairs`` keeps.  A cluster's
    radius is the largest inclusion radius of its members."""
    parent = list(range(len(z)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in pairs:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)

    groups = {}
    for i in range(len(z)):
        groups.setdefault(find(i), []).append(i)
    clusters = []
    for key in sorted(groups):
        members = [z[i] for i in groups[key]]
        span = 0.0
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                span = max(span, abs(members[i] - members[j]))
        clusters.append((_mean(members), len(members), span,
                         max(incl[i] for i in groups[key])))
    clusters.sort(key=lambda t: (t[0].real, t[0].imag))
    return clusters


def _refine_cluster(q: np.ndarray, center: complex, mult: int,
                    span: float) -> complex:
    """Re-center a multiplicity-m cluster on the simple root of p^(m-1)."""
    if mult == 1:
        return center
    dq = q
    for _ in range(mult - 1):
        dq = _derivative(dq)
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
    limit = max(4.0 * span, 8.0 * _CLUSTER_TOL * max(1.0, abs(center)))
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


def _pair_conjugates(entries: list, radii: list) -> list:
    """Average nearby conjugate partners so the multiset conjugates exactly.

    A mate is accepted within _PAIR_RADIUS * max(1, |z|), or within the sum
    of the two entries' inclusion radii ``radii``, where the mates of close
    zeros can sit.  Runs after real snapping, so real roots carrying
    opposite-signed noise never enter the candidate pools and cannot be
    married across a genuine root gap.  Mates become exact conjugates, so
    the multiset is closed exactly when no nonreal entry is left unpaired:
    one is snapped to the axis within _ORPHAN_SNAP, and any other raises.
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
        if bestj >= 0 and bestdist <= max(_PAIR_RADIUS * max(1.0, abs(zi)),
                                          radii[i] + radii[bestj]):
            used.add(bestj)
            paired.update((i, bestj))
            mu = 0.5 * (zi + out[bestj][0].conjugate())
            out[i] = (mu, mi)
            out[bestj] = (mu.conjugate(), out[bestj][1])
    for i, (z, m) in enumerate(out):
        if i not in paired:
            z = _snapped(z, _ORPHAN_SNAP)
            if z.imag != 0.0:
                raise NonConvergenceError(
                    "conjugate symmetry of the zero multiset could not be "
                    "restored", location=z)
            out[i] = (z, m)
    return out


def _finish(q: np.ndarray, k0: int, clusters: list,
            cfg: SolverConfig) -> ZeroSet:
    """Refine, snap and pair the clusters of the real polynomial q(z) z^k0,
    then certify every entry by its backward error on q."""
    degree = q.size - 1 + k0
    c = q.astype(np.complex128)
    # snap before pairing: real roots carrying opposite-signed imaginary
    # noise must not be mistaken for a wide conjugate pair
    entries = [(_snapped(_refine_cluster(c, ctr, m, span), _REAL_SNAP_TOL), m)
               for ctr, m, span, _ in clusters]
    entries = _pair_conjugates(entries, [r for *_, r in clusters])

    cl, mags = c.tolist(), np.abs(q).tolist()
    rest = mags[-2::-1]
    finished = []
    worst, nan = (-1.0, 0j), None
    for z, m in entries:
        # the sum first: where it is not finite the residual is NaN, so an
        # overflowing denominator never rounds a residual down to 0
        a, s = abs(z), mags[-1]
        for mk in rest:
            s = s * a + mk
        res = abs(_horner(cl, z)[0]) / s if math.isfinite(s) else math.nan
        finished.append(ZeroEntry(z, m, res))
        if res > worst[0]:
            worst = (res, z)
        elif nan is None and res != res:
            nan = (res, z)
    # only res <= residual_accept passes; a failure names the first
    # largest residual, or the first NaN when every number passes
    if nan is not None and worst[0] <= cfg.residual_accept:
        worst = nan
    if not worst[0] <= cfg.residual_accept:
        res, z = worst
        raise NonConvergenceError(
            f"zero at {z} carries residual {res:.3e} above the acceptance "
            f"threshold {cfg.residual_accept:.3e}", location=z, residual=res)
    if k0 > 0:
        finished.append(ZeroEntry(0j, k0, 0.0))

    finished.sort(key=lambda e: (e.location.real, e.location.imag))
    return ZeroSet(tuple(finished), degree)


def _pair_stacked(w: np.ndarray, absz: np.ndarray, radii: np.ndarray
                  ) -> np.ndarray:
    """``_pair_conjugates`` on rows of singletons, in place on w (B, n), with
    ``absz`` holding |w| and ``radii`` the inclusion radii.  Each upper-half
    entry takes its nearest lower-half mate, the first on a tie.  Returns
    the mask of the rows where that may not be _pair_conjugates' result,
    which it leaves: a mate nearest to two upper-half entries, where the
    greedy order decides; a distance where Python's abs raises (hypot
    overflows; finite entries give no NaN); and a nonreal entry left
    unpaired, which _pair_conjugates snaps to the axis or fails on."""
    B, n = w.shape
    x, y = w.real, w.imag
    upper, lower = y > 0.0, y < 0.0
    # |z_i - conj z_j|
    dist = np.hypot(x[:, :, None] - x[:, None, :],
                    y[:, :, None] + y[:, None, :])
    mates = upper[:, :, None] & lower[:, None, :]
    left = (np.isinf(dist) & mates).any(axis=(1, 2))
    dist[~mates] = np.inf
    j = dist.argmin(axis=2)
    best = np.take_along_axis(dist, j[:, :, None], axis=2)[:, :, 0]
    some = np.isfinite(best)
    key = np.sort(np.where(some, j, -1 - np.arange(n)), axis=1)
    left |= (key[:, 1:] == key[:, :-1]).any(axis=1)
    r, i = np.nonzero(some & (best <= np.maximum(
        _PAIR_RADIUS * np.maximum(1.0, absz),
        radii + np.take_along_axis(radii, j, axis=1))))
    j = j[r, i]
    # 0.5 * (z_i + conj z_j) in Python's complex arithmetic
    sx, sy = x[r, i] + x[r, j], y[r, i] - y[r, j]
    x[r, i] = x[r, j] = 0.5 * sx - 0.0 * sy
    y[r, i] = 0.5 * sy + 0.0 * sx
    y[r, j] = -y[r, i]
    unpaired = y != 0.0
    unpaired[r, i] = unpaired[r, j] = False
    return left | unpaired.any(axis=1)


def _finish_stacked(Q: np.ndarray, z: np.ndarray, incl: np.ndarray,
                    cfg: SolverConfig) -> list:
    """``_finish`` for rows whose clusters are singletons: the sorted finite
    iterates z (B, n) of the rows of Q, with inclusion radii ``incl``.
    Every step of _finish runs on (B, n) arrays in its order and with its
    bits: |z| is np.hypot, which is Python's abs(complex) bitwise on finite
    parts (numpy's complex abs is not), the sum of the backward error is a
    float Horner, one multiply and one add per coefficient as in Python, and
    the products of p's Horner are Python's complex products written out in
    real arithmetic, which numpy's complex multiply is not (it fuses
    multiplies and adds in its SIMD loop).  Returns each row's ZeroSet, or
    None for a row left to _finish: one whose pairing _pair_stacked leaves,
    or with a residual that fails the gate."""
    n = z.shape[1]
    w = z + 0.0
    x, y = w.real, w.imag
    absz = np.hypot(x, y)
    y[(y != 0.0) & (np.abs(y) <= _REAL_SNAP_TOL * np.maximum(1.0, absz))] = 0.0
    left = _pair_stacked(w, absz, incl)

    # the backward error |p(z)| / sum_k |c_k| |z|^k, both by Horner on the
    # row of Q.  _finish's complex Horner also adds each coefficient's +0.0
    # imaginary part: that moves only the sign of a zero, which |p(z)| does
    # not read
    A, absz = np.abs(Q), np.hypot(x, y)
    pre, pim = np.repeat(Q[:, -1:], n, axis=1), 0.0
    s = np.repeat(A[:, -1:], n, axis=1)
    for ck, ak in zip(Q.T[-2::-1], A.T[-2::-1]):
        pre, pim = pre * x - pim * y + ck[:, None], pre * y + pim * x
        s = s * absz + ak[:, None]
    res = np.where(np.isfinite(s), np.hypot(pre, pim) / s, np.nan)
    left |= ~(res <= cfg.residual_accept).all(axis=1)

    order = np.lexsort((y, x), axis=-1)
    ones = [1] * n
    return [None if lost else ZeroSet(tuple(map(ZeroEntry, zs, ones, rs)), n)
            for lost, zs, rs in zip(left.tolist(),
                                    np.take_along_axis(w, order, -1).tolist(),
                                    np.take_along_axis(res, order, -1).tolist())]


@np.errstate(all="ignore")
def _finish_many(Q: np.ndarray, k0: list, iterates: np.ndarray,
                 cfg: SolverConfig) -> list:
    """Cluster and finish one group, the polynomials Q[r](z) z^k0[r], from
    the (B, d) Aberth iterates of the rows of Q.  Only a row with a pair to
    merge is polished and merged (stage 3).  In a group of two or more
    rows, a row with no origin zero, no pair to merge and finite iterates
    goes to the stacked finish, and each row it leaves joins the other rows
    without a pair to merge.  Returns each row's
    ZeroSet or the exception it raised; one row's failure fails no other."""
    B = len(k0)
    out = [None] * B
    z, incl = _inclusion_radii(Q, iterates)
    near = _near_pairs(z, incl).any(axis=(1, 2))
    single = ~near
    if B > 1:
        rows = np.flatnonzero(
            single & (np.array(k0) == 0)
            & np.isfinite(np.hypot(z.real, z.imag)).all(axis=1)).tolist()
        if rows:
            for r, result in zip(rows, _finish_stacked(
                    Q[rows], z[rows], incl[rows], cfg)):
                if result is not None:
                    out[r], single[r] = result, False
    clusters = {}
    # a row with no pair to merge: its clusters are its sorted iterates,
    # each alone, as _merge would return them
    for r, zs, radii in zip(np.flatnonzero(single).tolist(),
                            z[single].tolist(), incl[single].tolist()):
        clusters[r] = [(_mean([v]), 1, 0.0, i) for v, i in zip(zs, radii)]
    polished, ok = [], []
    for r in np.flatnonzero(near).tolist():
        q = Q[r].astype(np.complex128).tolist()
        try:
            polished.append([_polish(q, v) for v in iterates[r].tolist()])
            ok.append(r)
        except Exception as exc:
            out[r] = exc
    if ok:
        clusters.update(zip(ok, _cluster_many(Q[ok], np.array(polished))))
    for r, rc in clusters.items():
        try:
            out[r] = _finish(Q[r], k0[r], rc, cfg)
        except Exception as exc:
            out[r] = exc
    return out


def _scaled(Q: np.ndarray) -> np.ndarray:
    """Each row of Q times the power of two that brings its largest
    magnitude into [1/2, 1).  That moves no zero, and Horner's scheme cannot
    overflow on huge coefficients.  A row that would lose bits to underflow
    is left as it is."""
    e = np.frexp(np.abs(Q).max(axis=1))[1][:, None]
    scaled = np.ldexp(Q, -e)
    exact = (np.ldexp(scaled, e) == Q).all(axis=1)[:, None]
    return np.where(exact, scaled, Q)


def _solve_many(polys, config: SolverConfig | None) -> list:
    """find_roots_many, which find_roots calls under this private name: a
    traced run wraps every public function, and a nested public call would
    count each solve twice."""
    cfg = config or SolverConfig()
    out = [None] * len(polys)
    groups = {}
    # a solve reads only its coefficients, so each distinct set of them is
    # solved once and its result handed to every copy
    first, copies = {}, []
    for i, p in enumerate(polys):
        if not isinstance(p, RealPolynomial):
            out[i] = TypeError("expected RealPolynomial")
            continue
        c = p.coeffs
        if c.size == 1:
            out[i] = DegreeZeroError("a nonzero constant has no zeros")
            continue
        j = first.setdefault(c.tobytes(), i)
        if j != i:
            copies.append((i, j))
            continue
        # the index of the lowest nonzero coefficient: p = z^k0 q
        k0 = 0 if c[0] != 0.0 else int(np.flatnonzero(c)[0])
        groups.setdefault(c.size - 1 - k0, []).append((i, c, k0))
    for d, members in groups.items():
        Q = _scaled(np.stack([c[k0:] for _, c, k0 in members]))
        iterates = (_aberth(Q)[0] if d
                    else np.empty((len(members), 0), complex))
        results = _finish_many(Q, [k0 for *_, k0 in members], iterates, cfg)
        for (i, _, _), result in zip(members, results):
            out[i] = result
    for i, j in copies:
        out[i] = out[j]
    return out


def find_roots_many(polys, config: SolverConfig | None = None) -> list:
    """Solve every ``RealPolynomial`` of ``polys``; see the module docstring.

    Returns one entry per input, in order: its ``ZeroSet``, or the exception
    solving it alone would have raised.  Each entry is bitwise equal to what
    ``find_roots`` returns for that polynomial, so polynomials with equal
    coefficients share one entry.
    """
    return _solve_many(polys, config)


def find_roots(p, config: SolverConfig | None = None) -> ZeroSet:
    """Find every zero of the RealPolynomial p; see the module docstring."""
    result = _solve_many([p], config)[0]
    if isinstance(result, Exception):
        raise result
    return result
