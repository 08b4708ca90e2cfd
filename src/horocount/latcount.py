"""Exact and floating-point counting of lattice points in ellipsoids.

Counts integer vectors v with Q(v) <= R^2 for a determinant-one positive
definite form Q, together with the primitive (coprime-coordinate) variant
and the error terms against the volume main terms.

Two modes:

  * exact  -- integer gram matrix; thresholds are floored to integers and
    every point is decided in exact integer arithmetic (isqrt at the
    innermost level).  boundary_ambiguous is always 0.
  * float  -- general real gram; a point with |Q(v) - R^2| <= 8*ulp(R^2)*d
    is counted as inside and flagged as boundary-ambiguous.

Counts do not change under GL_d(Z), so every count and enumeration first
LLL-reduces the gram (quadform.lll_reduce, in Python ints when the gram is
integral) and walks (Fincke-Pohst) in the reduced coordinates w, v = u w,
which keeps the tree small and the float Cholesky well conditioned for
very eccentric forms.  The Cholesky factor R of the reduced gram writes
Q(u w) as a sum of q_i (w_i + c_i)^2, where the centre c_i depends only on
the coordinates above i.  _walk recurses over levels
d-1 ... 2 and, for each admissible suffix (v_2, ..., v_{d-1}), yields the
range of v_1, widened by _PAD on both sides, with the level-1 and level-0
centres and the partial sum.  Two leaves finish the last two levels:

  * the float leaf gathers the level-1 nodes of many suffixes into numpy
    arrays, in blocks of at most BLOCK nodes, and reads each node's level-0
    interval off floor/ceil of centre +- radius, for all thresholds in one
    broadcast;
  * the exact leaf computes each node's level-0 interval from the integer
    gram with math.isqrt, so floats only ever guide the outer ranges.

A count sums the interval lengths; an enumeration expands the intervals.
Each leaf decides every point against its own bound, so the widened
entries add nothing.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .quadform import QuadForm, constants, integer_gram_or_none, lll_reduce

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
    "integer_gram_or_none",
]

COUNT_LIMIT = 2 ** 62  # refuse counts that could overflow 64-bit consumers
_PAD = 1  # integer widening of float-guided ranges; exactness is restored
# at the innermost level, so the padding only costs a few empty probes.
BLOCK = 1 << 12  # level-1 nodes per float-leaf block: caps the leaf's scratch memory


class CountingError(ValueError):
    """Invalid counting input (radius, mode, gram)."""


class EnumerationBudgetError(CountingError):
    """Predicted traversal size exceeds the configured budget."""


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


def _resolve_mode(form: QuadForm, mode: str):
    """(mode used, the gram as nested ints if it is integral, else None)."""
    if mode not in ("auto", "exact", "float"):
        raise CountingError(f"unknown mode {mode!r}")
    mint = integer_gram_or_none(form.gram)
    if mode == "exact" and mint is None:
        raise CountingError("exact mode requires an integer gram matrix")
    return ("float" if mode == "float" or mint is None else "exact"), mint


@dataclass(frozen=True, eq=False)
class _Factor:
    """What the walk needs of a form, in LLL-reduced coordinates.

    u is the reduction (v = u w for the walk's coordinates w); q[i] =
    R[i, i]^2 and m[i][k] = R[k, i] / R[k, k] (the shift of the level-k
    centre per unit of w_i) for the Cholesky factor R of the reduced gram;
    mint is the reduced integer gram in exact mode and None in float mode;
    shortest is the least diagonal entry of the reduced gram.
    """

    dim: int
    u: list[list[int]]
    q: list[float]
    m: list[list[float]]
    mint: list[list[int]] | None
    shortest: float

    @property
    def mode(self) -> str:
        return "float" if self.mint is None else "exact"


def _factor(form: QuadForm, mode: str) -> _Factor:
    used, mint = _resolve_mode(form, mode)
    u, reduced = lll_reduce(form.gram if mint is None else mint)
    try:
        r = np.linalg.cholesky(np.array(reduced, dtype=float)).T
    except np.linalg.LinAlgError as exc:
        raise CountingError(
            "reduced gram matrix is not numerically positive definite in float") from exc
    d = form.dim
    m = [[float(r[k, i] / r[k, k]) for k in range(i)] for i in range(d)]
    return _Factor(d, u, (np.diagonal(r) ** 2).tolist(), m,
                   reduced if used == "exact" else None,
                   float(min(reduced[i][i] for i in range(d))))


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


def _count_float(f: _Factor, bounds) -> list[int]:
    """Number of points with Q(v) <= b for each float bound b."""
    column = np.array(bounds)[:, None]
    totals = np.zeros(len(bounds), dtype=np.int64)
    for _, _, _, t1, c0 in _float_blocks(f, max(bounds)):
        totals += _level0(f, column, t1, c0)[1].sum(axis=1).astype(np.int64)
    return totals.tolist()


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


def _exact_intervals(f: _Factor, nint: int):
    """Exact level-0 intervals of Q(v) <= nint for the integer gram.

    Yields (suffix, v1, lo, hi, c, b) for every level-1 node with points:
    there Q(v) = a0 v0^2 + 2 b v0 + c, and a0 v0^2 + 2 b v0 + c - nint <= 0
    iff (a0 v0 + b)^2 <= b^2 - a0 (c - nint), where both sides are
    integers, so floor square roots give exact endpoints.
    """
    g = f.mint
    a0, a01, a1 = g[0][0], g[0][1], g[1][1]
    top = float(nint)
    top += 1e-12 * top + 1e-9  # slack covers float drift of the partial sums
    for suffix, lo, hi, *_ in _walk(f, top):
        coords = list(enumerate(suffix, 2))
        lin0 = sum(g[0][j] * v for j, v in coords)
        lin1 = sum(g[1][j] * v for j, v in coords)
        qs = sum(g[i][j] * vi * vj for i, vi in coords for j, vj in coords)
        for v1 in range(lo, hi + 1):
            b = lin0 + a01 * v1
            c = qs + (a1 * v1 + 2 * lin1) * v1
            disc = b * b - a0 * (c - nint)
            if disc < 0:
                continue
            s = math.isqrt(disc)
            lo0, hi0 = -((s + b) // a0), (s - b) // a0
            if lo0 <= hi0:
                yield suffix, v1, lo0, hi0, c, b


def _count_exact(f: _Factor, nint: int) -> int:
    """Exact number of points with Q(v) <= nint."""
    return sum(hi - lo + 1 for _, _, lo, hi, _, _ in _exact_intervals(f, nint))


def _enumerate_exact(f: _Factor, nint: int):
    """Points (reduced coordinates) with Q(v) <= nint and exact integer values."""
    pts, vals = [], []
    a0 = f.mint[0][0]
    for suffix, v1, lo, hi, c, b in _exact_intervals(f, nint):
        for v0 in range(lo, hi + 1):
            pts.append((v0, v1) + suffix)
            vals.append(c + (a0 * v0 + 2 * b) * v0)
    if not pts:
        return np.empty((0, f.dim), dtype=np.int64), np.empty(0, dtype=np.int64)
    return np.array(pts, dtype=np.int64), np.array(vals, dtype=np.int64)


def enumerate_points(form: QuadForm, bound: float, mode: str = "auto", budget: float = 1e8):
    """Integer points v with Q(v) <= bound, in original coordinates.

    Returns (points (m, d) int64, values (m,)); values are exact integers
    in exact mode, floats otherwise.
    """
    if bound < 0:
        d = form.dim
        return np.empty((0, d), dtype=np.int64), np.empty(0)
    f = _factor(form, mode)
    if _budget_estimate(f, float(bound)) > budget:
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


def _n0_band(f: _Factor, radius: float, k: int = 1) -> list[int]:
    """N0(radius / k) counted to the upper and to the lower edge of the
    float boundary band; both are the exact count in exact mode."""
    if f.mint is not None:
        return [_count_exact(f, _exact_threshold(radius) // (k * k))] * 2
    rsq = (radius / k) ** 2
    tol = _float_tolerance(rsq, f.dim)
    return _count_float(f, (rsq + tol, rsq - tol))


def count_full(spec: EllipsoidSpec, mode: str = "auto") -> CountResult:
    """Number of integer points with Q(v) <= R^2, origin included."""
    _check_overflow(spec)
    f = _factor(spec.form, mode)
    n_hi, n_lo = _n0_band(f, spec.radius)
    return CountResult(n0=n_hi, boundary_ambiguous=n_hi - n_lo, mode=f.mode)


def count_primitive_direct(spec: EllipsoidSpec, mode: str = "auto") -> CountResult:
    """Primitive points by full enumeration plus a gcd filter (oracle role)."""
    _check_overflow(spec)
    used_mode, _ = _resolve_mode(spec.form, mode)
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
    every radius.  The k-sum stops at the first squarefree k with
    N0(R/k) = 1, which every positive definite form reaches: N0 is monotone in the radius, so every later term is
    mu(k) (1 - 1) = 0, and in float mode its boundary band n_hi - n_lo is
    0 as well.
    """
    _check_overflow(spec)
    f = _factor(spec.form, mode)
    # N0(R/k) >= 3 while a reduced basis vector b has Q(b) <= (R/k)^2, so
    # the sum runs at least to k = R / sqrt(min Q(b)): size the table there
    first = math.floor(spec.radius / math.sqrt(f.shortest)) + 1
    n1 = 0
    n0_full = None
    boundary = 0
    for k, mu_k in _squarefree_terms(first):
        n_hi, n_lo = _n0_band(f, spec.radius, k)
        if k == 1:
            n0_full = n_hi
        boundary += n_hi - n_lo
        n1 += mu_k * (n_hi - 1)
        if n_hi == 1:
            break
    return CountResult(n0=n0_full, n1=n1, boundary_ambiguous=boundary, mode=f.mode)


def _squarefree_terms(first: int):
    """(k, mu(k)) for the squarefree k = 1, 2, ... in increasing order,
    without end.

    The Moebius table starts at first entries and grows by doubling as k
    advances, so a caller that stops at some k >= first / 2 never has a
    table longer than 2k.
    """
    from .moebius import sieve  # local import to avoid a module cycle

    table = sieve(first)
    for k in itertools.count(1):
        if k > table.limit:
            table = sieve(2 * table.limit)
        mu_k = int(table.mu[k])
        if mu_k:
            yield k, mu_k


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
    used_mode, _ = _resolve_mode(spec.form, mode)
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
