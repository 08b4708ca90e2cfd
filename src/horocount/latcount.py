"""Exact and floating-point counting of lattice points in ellipsoids.

Counts integer vectors v with Q(v) <= R^2 for a determinant-one positive
definite form Q, together with the primitive (coprime-coordinate) variant
and the error terms against the volume main terms.

Two modes:

  * exact  -- the form's integer gram QuadForm.mint, which quadform sets
    once when the stored gram is integral with determinant one (nothing
    here rounds grams); thresholds are floored to integers and every
    point is decided in exact integer arithmetic (isqrt at the innermost
    level).  boundary_ambiguous is always 0.  auto counts exactly iff
    mint is set.
  * float  -- general real gram; a point with |Q(v) - R^2| <= 8*ulp(R^2)*d
    is counted as inside and flagged as boundary-ambiguous.

Counts do not change under GL_d(Z), so every count and enumeration first
LLL-reduces the gram (quadform.lll_reduce, in Python ints from mint when
the form has one, in either mode) and walks (Fincke-Pohst) in the reduced
coordinates w, v = u w, which keeps the tree small and the float Cholesky
well conditioned for very eccentric forms.  The Cholesky factor R of the
reduced gram writes Q(u w) as a sum of q_i (w_i + c_i)^2, where the
centre c_i depends only on the coordinates above i.  _walk recurses over levels
d-1 ... 2 and, for each admissible suffix (v_2, ..., v_{d-1}), yields the
range of v_1, widened by _PAD on both sides, with the level-1 and level-0
centres and the partial sum.  Two leaves finish the last two levels, each
for a nonincreasing list of thresholds at once, walking only at the first:

  * the float leaf gathers the level-1 nodes of many suffixes into numpy
    arrays, in blocks of at most BLOCK nodes, pairs each node with the
    thresholds it can meet (a ragged expansion, in slices of at most BLOCK
    pairs), and reads each pair's level-0 interval off floor/ceil of
    centre +- radius;
  * the exact leaf computes each node's level-0 interval from the integer
    gram with math.isqrt, threshold by threshold until one is empty, so
    floats only ever guide the outer ranges.

A count sums the interval lengths; an enumeration expands the intervals.
Each leaf decides every point against its own bound, so the widened
entries add nothing.

The primitive count is the Moebius sum N1(R) = sum_k mu(k) (N0(R/k) - 1).
Every nonzero v has Q(v) >= min_i q_i, so its terms vanish before
K = floor(R / sqrt(min_i q_i)) + 2, and one walk at R counts N0(R/k) for
every squarefree k <= K.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .quadform import QuadForm, constants, lll_reduce

__all__ = [
    "CountingError",
    "EnumerationBudgetError",
    "EllipsoidSpec",
    "CountResult",
    "count_full",
    "count_primitive_direct",
    "count_primitive_moebius",
    "shell_counts",
    "error_terms",
    "reference_exponent",
    "enumerate_points",
]

COUNT_LIMIT = 2 ** 62  # refuse counts that could overflow 64-bit consumers
ENUM_BUDGET = 1e8  # refuse enumerations whose predicted tree is larger
_PAD = 1  # integer widening of float-guided ranges; exactness is restored
# at the innermost level, so the padding only costs a few empty probes.
BLOCK = 1 << 12  # level-1 nodes per float-leaf block and (node, threshold) pairs per
# slice of its expansion: caps the leaf's scratch memory


class CountingError(ValueError):
    """Invalid counting input (radius, mode, gram)."""


class EnumerationBudgetError(CountingError):
    """Predicted traversal size exceeds ENUM_BUDGET."""


@dataclass(frozen=True, eq=False)
class EllipsoidSpec:
    """Ellipsoid Q(x) <= radius^2 for a determinant-one form Q."""

    form: QuadForm
    radius: float

    def __post_init__(self):
        if not self.radius > 0.0:
            raise CountingError(f"radius must be positive, got {self.radius}")


@dataclass
class CountResult:
    n0: int | None = None
    n1: int | None = None
    e0: float | None = None
    e1: float | None = None
    boundary_ambiguous: int = 0
    mode: str = "float"


def _resolve_mode(form: QuadForm, mode: str) -> str:
    """The mode used: exact iff the form carries its integer gram
    (QuadForm.mint) and float mode was not asked for."""
    if mode not in ("auto", "exact", "float"):
        raise CountingError(f"unknown mode {mode!r}")
    if mode == "exact" and form.mint is None:
        raise CountingError("exact mode requires an integer gram matrix of determinant one")
    return "float" if mode == "float" or form.mint is None else "exact"


@dataclass(frozen=True, eq=False)
class _Factor:
    """What the walk needs of a form, in LLL-reduced coordinates.

    u is the reduction (v = u w for the walk's coordinates w); q[i] =
    R[i, i]^2 and m[i][k] = R[k, i] / R[k, k] (the shift of the level-k
    centre per unit of w_i) for the Cholesky factor R of the reduced gram;
    mint is the reduced integer gram in exact mode and None in float mode.
    """

    dim: int
    u: list[list[int]]
    q: list[float]
    m: list[list[float]]
    mint: list[list[int]] | None

    @property
    def mode(self) -> str:
        return "float" if self.mint is None else "exact"


def _factor(form: QuadForm, mode: str) -> _Factor:
    used = _resolve_mode(form, mode)
    u, reduced = lll_reduce(form.gram if form.mint is None else form.mint)
    try:
        r = np.linalg.cholesky(np.array(reduced, dtype=float)).T
    except np.linalg.LinAlgError as exc:
        raise CountingError(
            "reduced gram matrix is not numerically positive definite in float") from exc
    d = form.dim
    m = [[float(r[k, i] / r[k, k]) for k in range(i)] for i in range(d)]
    return _Factor(d, u, (np.diagonal(r) ** 2).tolist(), m,
                   reduced if used == "exact" else None)


def _budget_estimate(f: _Factor, bound: float) -> float:
    """Upper-bound-flavored estimate of the traversal size."""
    width = 2.0 * math.sqrt(max(bound, 0.0))
    return math.prod(width / math.sqrt(f.q[i]) + 1.0 for i in range(1, f.dim))


# ---------------------------------------------------------------------------
# the walk and its two leaves

def _walk(f: _Factor, top: float):
    """Admissible suffixes of the walk over Q(v) <= top.

    Yields (suffix, lo, hi, c1, c0, t) per suffix (v_2, ..., v_{d-1}): the
    range lo..hi of v_1 widened by _PAD, the level-1 and level-0 centres
    and the partial sum t of the levels above 1.  In d = 2 the one suffix
    is ().
    """
    q, m = f.q, f.m

    def rec(i, suffix, cent, t):
        rem = (top - t) / q[i]
        if rem < 0.0:
            return
        rad = math.sqrt(rem)
        c = cent[i]
        lo, hi = math.ceil(-c - rad) - _PAD, math.floor(-c + rad) + _PAD
        if i == 1:
            yield suffix, lo, hi, c, cent[0], t
            return
        mi = m[i]
        for v in range(lo, hi + 1):
            yield from rec(i - 1, (v,) + suffix, [cent[k] + mi[k] * v for k in range(i)],
                           t + q[i] * (v + c) ** 2)

    return rec(f.dim - 1, (), [0.0] * f.dim, 0.0)


def _float_blocks(f: _Factor, top: float):
    """The walk's level-1 nodes as arrays, in blocks of at most BLOCK nodes
    (a longer suffix is a block of its own).

    Yields (rows, n, v1, t1, c0): the block's walk rows, the node count of
    each row, and per node v_1, the partial sum through level 1 and the
    level-0 centre.
    """
    q1, m10 = f.q[1], f.m[1][0]
    rows, size = [], 0

    def gather():
        if len(rows) == 1:  # one suffix, always so in d = 2: nothing to gather
            _, lo, hi, c1, c0, t = rows[0]
            n = np.array([hi - lo + 1])
            v1 = np.arange(lo, hi + 1, dtype=float)
        else:
            lo, hi, c1, c0, t = (np.array(col) for col in list(zip(*rows))[1:])
            n = hi - lo + 1
            v1 = (np.arange(n.sum()) - np.repeat(np.cumsum(n) - n - lo, n)).astype(float)
            c1, c0, t = (np.repeat(col, n) for col in (c1, c0, t))
        # float_power calls C pow, as ** on the walk's Python floats does;
        # numpy's ** 2 multiplies, which can round the last bit differently
        return rows, n, v1, t + q1 * np.float_power(v1 + c1, 2), c0 + m10 * v1

    for row in _walk(f, top):
        width = row[2] - row[1] + 1
        if rows and size + width > BLOCK:
            yield gather()
            rows, size = [], 0
        rows.append(row)
        size += width
    if rows:
        yield gather()


def _level0(f: _Factor, bounds: np.ndarray, t1, c0):
    """Level-0 intervals lo .. lo + n - 1 of each node, one row per bound
    (bounds is a column)."""
    rem = (bounds - t1) / f.q[0]
    rad = np.sqrt(np.maximum(rem, 0.0))
    lo = np.ceil(-c0 - rad)
    return lo, np.where(rem >= 0.0, np.floor(rad - c0) - lo + 1.0, 0.0)


def _count_float(f: _Factor, upper, lower) -> tuple[list[int], list[int]]:
    """Number of points with Q(v) <= upper[k] and with Q(v) <= lower[k], for
    each k; upper is nonincreasing and lower[k] <= upper[k].

    One walk at upper[0], so every level-1 node is a candidate for that
    bound and is evaluated at it in the block.  For k >= 1 a node is
    paired only with the k where upper[k] reaches its partial sum t1; the
    other pairs would have rem < 0 at both bounds, so they count nothing.
    These pairs are expanded in slices of at most BLOCK.
    """
    bounds = np.array([upper, lower], dtype=float)
    m = bounds.shape[1]
    totals = np.zeros((2, m), dtype=np.int64)
    for _, _, _, t1, c0 in _float_blocks(f, bounds[0, 0]):
        totals[:, 0] += _level0(f, bounds[:, :1], t1, c0)[1].sum(axis=1).astype(np.int64)
        if m == 1:
            continue
        reach = np.searchsorted(-bounds[0, 1:], -t1, side="right")  # k = 1 .. reach
        ends = np.cumsum(reach)  # pairs of node i: ends[i] - reach[i] .. ends[i] - 1
        total = int(ends[-1])
        for lo in range(0, total, BLOCK):
            hi = min(lo + BLOCK, total)
            a, b = np.searchsorted(ends, (lo, hi - 1), side="right")
            nodes = slice(a, b + 1)  # the nodes with pairs in lo .. hi - 1
            start = ends[nodes] - reach[nodes]
            r = np.minimum(ends[nodes], hi) - np.maximum(start, lo)
            k = np.arange(lo + 1, hi + 1) - np.repeat(start, r)
            # take returns a C-ordered array, bounds[:, k] does not; the
            # leaf's ufuncs run markedly faster on the former
            n = _level0(f, bounds.take(k, axis=1), np.repeat(t1[nodes], r),
                        np.repeat(c0[nodes], r))[1]
            for row in range(2):
                totals[row] += np.bincount(k, weights=n[row], minlength=m).astype(np.int64)
    return totals[0].tolist(), totals[1].tolist()


def _enumerate_float(f: _Factor, bound: float):
    """Points (reduced coordinates, int64) with Q(v) <= bound and their values."""
    pts, vals = [], []
    for rows, n1, v1, t1, c0 in _float_blocks(f, bound):
        lo, n = (x[0] for x in _level0(f, np.array([[bound]]), t1, c0))
        n = n.astype(np.int64)
        v0 = np.repeat(lo - (np.cumsum(n) - n), n) + np.arange(n.sum())
        value = np.repeat(t1, n) + f.q[0] * (v0 + np.repeat(c0, n)) ** 2
        keep = value <= bound
        suffixes = np.array([row[0] for row in rows], dtype=np.int64).reshape(len(rows), f.dim - 2)
        nodes = np.column_stack([v1, np.repeat(suffixes, n1, axis=0)]).astype(np.int64)
        pts.append(np.column_stack([v0.astype(np.int64), np.repeat(nodes, n, axis=0)])[keep])
        vals.append(value[keep])
    if not pts:
        return np.empty((0, f.dim), dtype=np.int64), np.empty(0)
    return np.concatenate(pts), np.concatenate(vals)


def _exact_rows(f: _Factor, nint: int):
    """The walk over Q(v) <= nint on the integer gram, row by row.

    Yields (suffix, v1s, bs, cs) per walk row: for each v1 in the range
    v1s, Q(v) = a0 v0^2 + 2 b v0 + c with b, c the matching entries of bs
    and cs.  Q(v) <= n iff (a0 v0 + b)^2 <= b^2 - a0 (c - n), where both
    sides are integers, so floor square roots give exact endpoints.
    """
    g = f.mint
    a01, a1 = g[0][1], g[1][1]
    top = float(nint)
    top += 1e-12 * top + 1e-9  # slack covers float drift of the partial sums
    for suffix, lo, hi, *_ in _walk(f, top):
        coords = list(enumerate(suffix, 2))
        lin0 = sum(g[0][j] * v for j, v in coords)
        lin1 = sum(g[1][j] * v for j, v in coords)
        qs = sum(g[i][j] * vi * vj for i, vi in coords for j, vj in coords)
        v1s = range(lo, hi + 1)
        yield (suffix, v1s, [lin0 + a01 * v1 for v1 in v1s],
               [qs + (a1 * v1 + 2 * lin1) * v1 for v1 in v1s])


def _count_exact(f: _Factor, nints) -> list[int]:
    """Exact number of points with Q(v) <= n for each n of the
    nonincreasing thresholds nints, from one walk at nints[0].

    A node's intervals are nested in n, so its first empty one ends it.
    """
    a0 = f.mint[0][0]
    a0n = [a0 * n for n in nints]
    counts = [0] * len(nints)
    for _, _, bs, cs in _exact_rows(f, nints[0]):
        for b, c in zip(bs, cs):
            base = b * b - a0 * c
            j = 0
            for an in a0n:
                disc = base + an
                if disc < 0:
                    break
                s = math.isqrt(disc)
                width = (s - b) // a0 + (s + b) // a0 + 1
                if width <= 0:
                    break
                counts[j] += width
                j += 1
    return counts


def _enumerate_exact(f: _Factor, nint: int):
    """Points (reduced coordinates) with Q(v) <= nint and exact integer values."""
    pts, vals = [], []
    a0 = f.mint[0][0]
    for suffix, v1s, bs, cs in _exact_rows(f, nint):
        for v1, b, c in zip(v1s, bs, cs):
            disc = b * b - a0 * (c - nint)
            if disc < 0:
                continue
            s = math.isqrt(disc)
            for v0 in range(-((s + b) // a0), (s - b) // a0 + 1):
                pts.append((v0, v1) + suffix)
                vals.append(c + (a0 * v0 + 2 * b) * v0)
    if not pts:
        return np.empty((0, f.dim), dtype=np.int64), np.empty(0, dtype=np.int64)
    return np.array(pts, dtype=np.int64), np.array(vals, dtype=np.int64)


def enumerate_points(form: QuadForm, bound: float, mode: str = "auto"):
    """Integer points v with Q(v) <= bound, in original coordinates.

    Returns (points (m, d) int64, values (m,)); values are exact integers
    in exact mode, floats otherwise.
    """
    if bound < 0:
        d = form.dim
        return np.empty((0, d), dtype=np.int64), np.empty(0)
    f = _factor(form, mode)
    if _budget_estimate(f, float(bound)) > ENUM_BUDGET:
        raise EnumerationBudgetError("enumeration tree exceeds the node budget")
    if f.mint is not None:
        pts, vals = _enumerate_exact(f, math.floor(bound))
    else:
        pts, vals = _enumerate_float(f, float(bound))
    return pts @ np.array(f.u, dtype=np.int64).T, vals


# ---------------------------------------------------------------------------
# public counting operations

def _float_tolerance(rsq: float, d: int) -> float:
    return 8.0 * math.ulp(rsq) * d


def _check_overflow(spec: EllipsoidSpec):
    d = spec.form.dim
    approx = constants(d).omega * spec.radius ** d
    if approx > COUNT_LIMIT:
        raise CountingError(
            "count would exceed 2^62; reduce the radius or aggregate shellwise"
        )


def _exact_threshold(radius) -> int:
    """floor(radius^2) with radius read exactly as a (dyadic) rational."""
    rsq = Fraction(radius) ** 2
    return math.floor(rsq)


def _n0_bands(f: _Factor, radius: float, ks) -> tuple[list[int], list[int]]:
    """N0(radius / k) for each k of the increasing ks, counted to the upper
    and to the lower edge of the float boundary band; both are the exact
    count in exact mode."""
    if f.mint is not None:
        top = _exact_threshold(radius)
        n = _count_exact(f, [top // (k * k) for k in ks])
        return n, n
    rsq = [(radius / k) ** 2 for k in ks]
    tol = [_float_tolerance(x, f.dim) for x in rsq]
    return _count_float(f, [x + t for x, t in zip(rsq, tol)], [x - t for x, t in zip(rsq, tol)])


def count_full(spec: EllipsoidSpec, mode: str = "auto") -> CountResult:
    """Number of integer points with Q(v) <= R^2, origin included."""
    _check_overflow(spec)
    f = _factor(spec.form, mode)
    (n_hi,), (n_lo,) = _n0_bands(f, spec.radius, [1])
    return CountResult(n0=n_hi, boundary_ambiguous=n_hi - n_lo, mode=f.mode)


def count_primitive_direct(spec: EllipsoidSpec, mode: str = "auto") -> CountResult:
    """Primitive points by full enumeration plus a gcd filter (oracle role)."""
    _check_overflow(spec)
    used_mode = _resolve_mode(spec.form, mode)
    rsq = spec.radius ** 2
    if used_mode == "exact":
        thr = _exact_threshold(spec.radius)
        pts, vals = enumerate_points(spec.form, thr, mode="exact")
        prim = np.gcd.reduce(np.abs(pts), axis=1) == 1
        return CountResult(n1=int(prim.sum()), boundary_ambiguous=0, mode="exact")
    tol = _float_tolerance(rsq, spec.form.dim)
    pts, vals = enumerate_points(spec.form, rsq + tol, mode="float")
    prim = np.gcd.reduce(np.abs(pts), axis=1) == 1
    n1 = int(prim.sum())
    amb = int((prim & (vals > rsq - tol)).sum())
    return CountResult(n1=n1, boundary_ambiguous=amb, mode="float")


def count_primitive_moebius(spec: EllipsoidSpec, mode: str = "auto") -> CountResult:
    """Primitive count via the sieve: N1(R) = sum_k mu(k) (N0(R/k) - 1).

    Subtracting the origin from each full count makes the identity exact at
    every radius.  In the reduced coordinates every nonzero v has
    Q(v) >= min_i q_i, the least squared Gram-Schmidt norm, so N0(R/k) = 1
    once R/k < sqrt(min_i q_i): those terms are mu(k) (1 - 1) = 0, and in
    float mode their boundary band is 0 as well.  The sum runs to
    K = floor(R / sqrt(min_i q_i)) + 2, one past the first such k, so that
    N0(R/K) = 1 also where a rounded R / sqrt(min_i q_i) falls just below
    an integer k and the float band at R/k holds a shortest vector.  One
    Moebius table of size K and one walk at R give N0(R/k) for every
    squarefree k <= K; the float leaf pairs each level-1 node only with
    the k it can reach, in slices of at most BLOCK pairs.
    """
    from .moebius import sieve  # call-time import: moebius imports this module

    _check_overflow(spec)
    f = _factor(spec.form, mode)
    kmax = math.floor(spec.radius / math.sqrt(min(f.q))) + 2
    mu = sieve(kmax).mu
    ks = np.flatnonzero(mu).tolist()
    n_hi, n_lo = _n0_bands(f, spec.radius, ks)
    n1 = sum(int(mu[k]) * (n - 1) for k, n in zip(ks, n_hi))
    return CountResult(n0=n_hi[0], n1=n1, boundary_ambiguous=sum(n_hi) - sum(n_lo), mode=f.mode)


def shell_counts(spec: EllipsoidSpec, xs, mode: str = "auto"):
    """Counts on the level sets Q(v) = x for each x in xs.

    xs must be nondecreasing.  In exact mode the levels are matched
    exactly (non-represented levels give 0); in float mode the level set
    is read off within a small relative window.
    Returns (r0, r1): full and primitive shell counts.
    """
    xs = list(xs)
    if any(b < a for a, b in zip(xs, xs[1:])):
        raise CountingError("shell levels must be nondecreasing")
    if not xs:
        return [], []
    used_mode = _resolve_mode(spec.form, mode)
    top = max(xs)
    pts, vals = enumerate_points(spec.form, top if used_mode == "exact" else top * (1 + 1e-12) + 1e-12,
                                 mode=used_mode)
    prim = np.gcd.reduce(np.abs(pts), axis=1) == 1
    r0, r1 = [], []
    for x in xs:
        if used_mode == "exact":
            if float(x).is_integer():
                sel = vals == int(x)
            else:
                sel = np.zeros(len(vals), dtype=bool)
        else:
            eps = 8.0 * math.ulp(max(float(x), 1.0)) * spec.form.dim + 1e-12
            sel = np.abs(vals - float(x)) <= eps
        r0.append(int(sel.sum()))
        r1.append(int((sel & prim).sum()))
    return r0, r1


def error_terms(spec: EllipsoidSpec, mode: str = "auto") -> CountResult:
    """Full and primitive counts with e0 = n0 - omega R^d and
    e1 = n1 - omega R^d / zeta(d)."""
    cst = constants(spec.form.dim)
    res = count_primitive_moebius(spec, mode=mode)
    main = cst.omega * spec.radius ** spec.form.dim
    res.e0 = res.n0 - main
    res.e1 = res.n1 - main / cst.zeta
    return res


def reference_exponent(d: int) -> float:
    """Best published error exponent for the full-count error term E_0."""
    if d < 2:
        raise CountingError("dimension must be >= 2")
    if d == 2:
        return 131.0 / 208.0
    if d == 3:
        return 231.0 / 158.0
    if d == 4:
        return 61.0 / 26.0
    return float(d - 2)
