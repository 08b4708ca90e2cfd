"""Exact and floating-point counting of lattice points in ellipsoids.

Counts integer vectors v with Q(v) <= R^2 for a determinant-one positive
definite form Q, together with the primitive (coprime-coordinate) variant
and the error terms against the volume main terms.

Two modes:

  * exact  -- the form's integer gram QuadForm.mint, which quadform sets
    once when the stored gram is integral with determinant one (nothing
    here rounds grams); thresholds are floored to integers and every
    point is decided in exact integer arithmetic.  boundary_ambiguous is
    always 0.  auto counts exactly iff mint is set.
  * float  -- general real gram; a point with |Q(v) - R^2| <= 8*ulp(R^2)*d
    is counted as inside and flagged as boundary-ambiguous.

Counts do not change under GL_d(Z), so every count and enumeration first
LLL-reduces the gram (quadform.lll_reduce, in Python ints from mint when
the form has one, in either mode) and walks (Fincke-Pohst) in the reduced
coordinates w, v = u w, which keeps the tree small and the float Cholesky
well conditioned for very eccentric forms.  The Cholesky factor R of the
reduced gram writes Q(u w) as a sum of q_i (w_i + c_i)^2, where the
centre c_i depends only on the coordinates above i.  _walk expands levels
d-1 ... 2 as numpy arrays, a level's nodes as columns, only as many at a
time as have BLOCK children between them, and yields the level-1 rows
(suffix, range of v_1 widened by _PAD, centres, partial sum) in the
recursion's depth-first order, with the float operations of a scalar walk.
One leaf finishes the last two levels for a nonincreasing list of
thresholds at once, walking only at the first: it pairs each level-1
node of a block with the thresholds it can meet (a ragged expansion, in
slices of at most BLOCK pairs), and reads each pair's level-0 interval by
the mode's rule: floor/ceil of centre +- radius in float mode; in exact
mode, floor square roots of integers computed in int64 from the reduced
integer gram, so floats only ever guide the outer ranges.  The exact rule
checks before each block that every int64 intermediate stays below
INT64_LIMIT = 2^62, else it raises CountingError.

A count sums the interval lengths; an enumeration expands the intervals.
Each rule decides every point against its own bound, so the widened
entries add nothing.

The primitive count is the Moebius sum N1(R) = sum_k mu(k) (N0(R/k) - 1),
with mu the read-only int8 array of this module's sieve.  Every nonzero
v has Q(v) >= min_i q_i, so its terms vanish before
K = floor(R / sqrt(min_i q_i)) + 2, and one walk at R counts N0(R/k) for
every squarefree k <= K.  n0_series gives N0(R/n) for every n up to
max(floor(R), K) from one such walk, and shell_table the full and
primitive counts per integer level of an exact form; moebius checks its
identities on them.  Every count and enumeration first sizes its work:
at radius R level i of a form's walk takes at most w_i = 2R / sqrt(q_i) + 1
values, so the walk needs at most prod_{i >= 1} w_i nodes and the ellipsoid
holds at most prod_i w_i points, its box.  A box above COUNT_LIMIT (a
count) or POINT_CAP (an enumeration), then a walk or a Moebius table of K
entries above ENUM_BUDGET, is refused before any table or walk.

count_primitive_many counts many forms of one dimension at one radius or
at a list of radii from one walk per form at the largest radius; its
float forms share one walk and one pass of the leaf, every node carrying
its owner, the index of its form.
"""

from __future__ import annotations

import bisect
import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .quadform import HorocountError, QuadForm, constants, lll_reduce

__all__ = [
    "CountingError",
    "EnumerationBudgetError",
    "EllipsoidSpec",
    "CountResult",
    "count_full",
    "count_primitive_direct",
    "count_primitive_moebius",
    "count_primitive_many",
    "check_radius_budget",
    "sieve",
    "n0_series",
    "shell_table",
    "error_terms",
    "enumerate_points",
]

COUNT_LIMIT = 2 ** 62  # refuse counts that could overflow 64-bit consumers
ENUM_BUDGET = 1e8  # refuse enumerations whose predicted tree is larger
POINT_CAP = 1e7  # refuse enumerations predicted to hold more points: at about 100 bytes per
# point (shell_table holds 65-69), an admitted enumeration stays under 1 GB
_PAD = 1  # integer widening of float-guided ranges; exactness is restored
# at the innermost level, so the padding only costs a few empty probes.
BLOCK = 1 << 12  # level-1 nodes per leaf block and (node, threshold) pairs per slice
# of its expansion: caps the leaf's scratch memory
INT64_LIMIT = 2 ** 62  # bound on every int64 intermediate of the exact rule


class CountingError(HorocountError):
    """Invalid counting input (radius, mode, gram)."""


class EnumerationBudgetError(CountingError):
    """Predicted traversal, table, pair or point count exceeds its budget."""


def _check_radius(radius) -> None:
    """Refuse a radius that is not positive or whose square, as a float, is
    not finite (a huge int radius included, which float() cannot hold)."""
    try:
        ok = radius > 0.0 and float(radius) ** 2 < math.inf
    except OverflowError:
        ok = False
    if not ok:
        raise CountingError(f"radius must be positive with a finite square, got {radius!r}")


@dataclass(frozen=True, eq=False)
class EllipsoidSpec:
    """Ellipsoid Q(x) <= radius^2 for a determinant-one form Q."""

    form: QuadForm
    radius: float

    def __post_init__(self):
        _check_radius(self.radius)


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
    R[i, i]^2 and m[i][k] = R[k, i] / R[k, k] (for k < i, the shift of
    the level-k centre per unit of w_i; the row is d long, 1 at k = i and
    0 after) for the Cholesky factor R of the reduced gram;
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


def _factors(forms, mode: str) -> list[_Factor]:
    """The _Factor of each of the forms, all of one dimension: each is
    LLL-reduced in turn, and their reduced grams are factored by one
    stacked Cholesky.  Each reduced gram goes into the float stack at
    once, so a batch keeps no Python lists of its float reduced grams."""
    d = forms[0].dim
    grams = np.empty((len(forms), d, d))
    us, mints = [], []
    for i, form in enumerate(forms):
        used = _resolve_mode(form, mode)
        u, reduced = lll_reduce(form.gram if form.mint is None else form.mint)
        grams[i] = reduced
        us.append(u)
        mints.append(reduced if used == "exact" else None)
    try:
        low = np.linalg.cholesky(grams)
    except np.linalg.LinAlgError as exc:
        raise CountingError(
            "reduced gram matrix is not numerically positive definite in float") from exc
    diag = np.diagonal(low, axis1=1, axis2=2)
    shifts = low / diag[:, None, :]  # [f, i, k] = R[k, i] / R[k, k]
    return [_Factor(d, u, q, shift, mint)
            for u, q, shift, mint in zip(us, (diag ** 2).tolist(), shifts.tolist(), mints)]


def _factor(form: QuadForm, mode: str) -> _Factor:
    return _factors([form], mode)[0]


def _check_budget(fs, radius: float, cap: float = COUNT_LIMIT, table: bool = False) -> None:
    """Refuse, before any table or walk, forms fs whose box of prod_i w_i
    points (w_i = 2 radius / sqrt(q_i) + 1; infinite for a huge radius)
    exceeds cap, or whose walk of prod_{i >= 1} w_i nodes or, with table,
    Moebius table of K entries exceeds ENUM_BUDGET."""
    q = np.array([f.q for f in fs])
    with np.errstate(over="ignore"):
        widths = 2.0 * radius / np.sqrt(q) + 1.0
        sizes = np.prod(widths[:, 1:], axis=1)
        box = (sizes * widths[:, 0]).max()
    if not box <= cap:
        limit = "2^62" if cap == COUNT_LIMIT else f"{cap:.0e}"
        raise EnumerationBudgetError(f"the ellipsoid holds up to {box:.3g} points, above the cap {limit}")
    if table:
        sizes = np.maximum(sizes, radius / np.sqrt(q.min(axis=1)) + 2.0)
    if sizes.max() > ENUM_BUDGET:
        raise EnumerationBudgetError(f"the walk needs {sizes.max():.3g} nodes or table "
                                     f"entries, above the budget {ENUM_BUDGET:.0e}")


# ---------------------------------------------------------------------------
# the walk, its leaf and the leaf's two level-0 rules

def ragged(lo: np.ndarray, hi: np.ndarray):
    """The integers of the intervals [lo_i, hi_i] (empty when hi_i < lo_i),
    as (interval index, value) arrays."""
    counts = np.maximum(hi - lo + 1, 0)
    owner = np.repeat(np.arange(len(lo)), counts)
    start = np.cumsum(counts) - counts
    return owner, lo[owner] + (np.arange(int(counts.sum())) - start[owner])


def runs(sizes, limit):
    """Slices of consecutive items, in order and covering them all, each
    with sizes adding up to at most limit (an item above limit alone)."""
    ends = np.cumsum(sizes)
    start = 0
    while start < len(ends):
        first = ends[start - 1] if start else 0  # sizes before this run
        stop = max(start + 1, int(np.searchsorted(ends, first + limit, side="right")))
        yield slice(start, stop)
        start = stop


def _walk(fs, top: float):
    """The level-1 rows of the walks over Q(v) <= top of the forms fs, all
    of one dimension d, in the order of a depth-first walk of each form in
    turn, in blocks of at most BLOCK level-1 nodes (a row with more alone).

    Yields (owner, suffix, lo, hi, c1, c0, t) per block, an entry per row:
    its form's index in fs, its suffix (v_2, ..., v_{d-1}) as a (rows,
    d - 2) int64 array, the range lo..hi of v_1 widened by _PAD, the
    level-1 and level-0 centres and the partial sum of the levels above 1.
    A level expands the children of only as many of its nodes at a time as
    have BLOCK children between them (a node with more alone) and walks
    them to the end first, so it holds about BLOCK rows.
    """
    d = fs[0].dim
    q, m = np.array([f.q for f in fs]), np.array([f.m for f in fs])

    def level(i, owner, suffix, cent, t):
        # the nodes of level i that the bound admits, with their v_i ranges
        rem = (top - t) / q[owner, i]
        keep = rem >= 0.0
        if not keep.all():
            owner, suffix, cent, t, rem = owner[keep], suffix[keep], cent[keep], t[keep], rem[keep]
        rad = np.sqrt(rem)
        c = cent[:, i]
        lo = np.ceil(-c - rad).astype(np.int64) - _PAD
        hi = np.floor(-c + rad).astype(np.int64) + _PAD
        return i, owner, suffix, cent, t, lo, hi, runs(hi - lo + 1, BLOCK)

    n = len(fs)
    stack = [level(d - 1, np.arange(n), np.empty((n, 0), dtype=np.int64), np.zeros((n, d)), np.zeros(n))]
    while stack:
        i, owner, suffix, cent, t, lo, hi, slices = stack[-1]
        now = next(slices, None)
        if now is None:
            stack.pop()
            continue
        if i == 1:
            yield owner[now], suffix[now], lo[now], hi[now], cent[now, 1], cent[now, 0], t[now]
            continue
        par, v = ragged(lo[now], hi[now])
        par += now.start
        own = owner[par]
        # float_power calls C pow, as ** on a scalar walk's Python floats does
        stack.append(level(i - 1, own, np.column_stack([v, suffix[par]]),
                           cent[par, :i] + m[own, i, :i] * v[:, None],
                           t[par] + q[own, i] * np.float_power(v + cent[par, i], 2)))


def _blocks(rule):
    """Per block of _walk over the rule's forms: (suffix, n, v1, owner,
    key, aux), the block's suffixes, the node count of each row, v_1 per
    node (in the dtype of the rule's bounds), the index of each node's form
    (None for a one-form rule) and the rule's two arrays per node."""
    for rows in _walk(rule.fs, rule.top):
        owner, suffix, lo, hi = rows[:4]
        at, v1 = ragged(lo, hi)
        owner = None if len(rule.fs) == 1 else owner[at]
        v1 = v1.astype(rule.bounds.dtype)
        yield (suffix, hi - lo + 1, v1, owner, *rule.nodes(rows, at, v1, owner))


class _FloatRule:
    """Level 0 in floats, for bounds on Q (one row per band edge), over the
    nodes of one or more forms fs of one dimension.

    A node is (t1, c0): its partial sum through level 1, which is also its
    pairing key, and its level-0 centre.  Its interval is floor/ceil of
    centre +- radius.  The form's q0, q1 and m10 are scalars for one form
    and are gathered per node by owner for many, with the same arithmetic.
    """

    def __init__(self, fs, *edges):
        self.fs = fs
        params = [(f.q[0], f.q[1], f.m[1][0]) for f in fs]
        self.q0, self.q1, self.m10 = params[0] if len(fs) == 1 else np.array(params).T
        self.bounds = np.array(edges, dtype=float)
        self.top = edges[0][0]

    def nodes(self, rows, at, v1, owner):
        c1, c0, t = (col[at] for col in rows[4:])
        q1, m10 = (self.q1, self.m10) if owner is None else (self.q1[owner], self.m10[owner])
        # float_power calls C pow, as ** on the walk's Python floats does;
        # numpy's ** 2 multiplies, which can round the last bit differently
        return t + q1 * np.float_power(v1 + c1, 2), c0 + m10 * v1

    def level0(self, bounds, t1, c0, owner=None):
        rem = (bounds - t1) / (self.q0 if owner is None else self.q0[owner])
        rad = np.sqrt(np.maximum(rem, 0.0))
        lo = np.ceil(-c0 - rad)
        return lo, np.where(rem >= 0.0, np.floor(rad - c0) - lo + 1.0, 0.0)

    def values(self, v0, t1, c0):
        return t1 + self.q0 * (v0 + c0) ** 2


class _ExactRule:
    """Level 0 in int64 on the reduced integer gram, for thresholds n.

    On a node's line Q(v) = a0 v0^2 + 2 b v0 + c, and Q(v) <= n iff
    (a0 v0 + b)^2 <= a0 n - (a0 c - b^2), so the bounds are a0 n and a
    node is (a0 c - b^2, b), keyed by its first entry (never negative).
    """

    def __init__(self, f: _Factor, ns):
        g = f.mint
        self.f, self.fs, self.a0 = f, (f,), g[0][0]
        if self.a0 * ns[0] >= INT64_LIMIT:
            raise CountingError(f"exact threshold {ns[0]} is beyond the int64 range of the exact rule")
        self.g = np.array(g, dtype=np.int64)
        self.bounds = np.array([[self.a0 * n for n in ns]], dtype=np.int64)
        self.top = float(ns[0])
        self.top += 1e-12 * self.top + 1e-9  # slack covers float drift of the partial sums
        # for coordinates up to V, each partial sum of b is at most b_abs V
        # in size, and each of c at most c_abs V^2
        self.b_abs = sum(abs(x) for x in g[0][1:])
        self.c_abs = sum(abs(x) for row in g[1:] for x in row[1:])

    def nodes(self, rows, at, v1, owner):
        s = rows[1]
        v = max(int(np.abs(v1).max()), int(np.abs(s).max(initial=0)))
        if (self.b_abs * v) ** 2 >= INT64_LIMIT or self.a0 * self.c_abs * v * v >= INT64_LIMIT:
            raise CountingError(f"walk coordinates up to {v} are beyond the int64 range of the exact rule")
        lin0, lin1 = ((s @ self.g[i, 2:])[at] for i in (0, 1))
        b = lin0 + self.g[0, 1] * v1
        c = ((s @ self.g[2:, 2:]) * s).sum(axis=1)[at] + (self.g[1, 1] * v1 + 2 * lin1) * v1
        return self.a0 * c - b * b, b

    def level0(self, bounds, key, b, owner=None):
        disc = bounds - key
        # below 2^62 the float root is within one of floor(sqrt(disc))
        s = np.sqrt(np.maximum(disc, 0)).astype(np.int64)
        s -= s * s > disc
        s += (s + 1) * (s + 1) <= disc
        lo = -((s + b) // self.a0)
        return lo, np.where(disc >= 0, (s - b) // self.a0 - lo + 1, 0)

    def values(self, v0, key, b):
        u = self.a0 * v0 + b  # u^2 + key <= a0 n on the interval
        return (u * u + key) // self.a0


def _count(rule, sizes=None) -> np.ndarray:
    """Number of points within the rule's bounds[j, k], for each band edge
    j, form of the rule and threshold k < sizes[form] (a one-form rule
    reads all of them).  Returns the int64 totals, one row per edge and
    the forms' columns side by side, form i's from sizes[0] + ... +
    sizes[i - 1] on; each form's row is nonincreasing in k and rows after
    the first lie below the first.

    One walk per form at bounds[0, 0], so every level-1 node is a
    candidate for that bound and is evaluated at it in the block.  For
    k >= 1 a node is paired only with the k < sizes[owner] where
    bounds[0, k] reaches its key; the other pairs count nothing at any
    edge, or are not asked for.  These pairs are expanded in slices of at
    most BLOCK and binned by (owner, k).
    """
    bounds = rule.bounds
    m = bounds.shape[1]
    if len(rule.fs) > 1:
        sizes = np.array(sizes)
        starts = np.cumsum(sizes) - sizes
    totals = np.zeros((len(bounds), m if len(rule.fs) == 1 else int(sizes.sum())), dtype=np.int64)
    for _, _, _, owner, key, aux in _blocks(rule):
        n = rule.level0(bounds[:, :1], key, aux, owner)[1]
        if owner is None:
            totals[:, 0] += n.sum(axis=1).astype(np.int64)
        else:  # the owners of a block are consecutive
            cols = starts[owner[0]:owner[-1] + 1]
            for row in range(len(n)):
                totals[row, cols] += np.bincount(owner - owner[0], weights=n[row]).astype(np.int64)
        if m == 1:
            continue
        reach = np.searchsorted(-bounds[0, 1:], -key, side="right")  # k = 1 .. reach
        if owner is not None:
            reach = np.minimum(reach, sizes[owner] - 1)
        ends = np.cumsum(reach)  # pairs of node i: ends[i] - reach[i] .. ends[i] - 1
        total = int(ends[-1])
        for lo in range(0, total, BLOCK):
            hi = min(lo + BLOCK, total)
            a, b = np.searchsorted(ends, (lo, hi - 1), side="right")
            nodes = slice(a, b + 1)  # the nodes with pairs in lo .. hi - 1
            start = ends[nodes] - reach[nodes]
            r = np.minimum(ends[nodes], hi) - np.maximum(start, lo)
            k = np.arange(lo + 1, hi + 1) - start.repeat(r)
            own = None if owner is None else owner[nodes].repeat(r)
            # take returns a C-ordered array, bounds[:, k] does not; the
            # leaf's ufuncs run markedly faster on the former
            n = rule.level0(bounds.take(k, axis=1), key[nodes].repeat(r), aux[nodes].repeat(r), own)[1]
            if own is None:
                for row in range(len(n)):
                    totals[row] += np.bincount(k, weights=n[row], minlength=m).astype(np.int64)
                continue
            first = starts[own[0]]  # pairs bin into first + 1 ..
            at = starts[own] - first + k
            for row in range(len(n)):
                binned = np.bincount(at, weights=n[row]).astype(np.int64)
                totals[row, first:first + len(binned)] += binned
    return totals


def _enumerate(rule, bound):
    """Points (reduced coordinates, int64) with Q(v) <= bound, the rule's
    one threshold, and their values."""
    pts, vals = [], []
    for suffix, n1, v1, _, key, aux in _blocks(rule):
        lo, n = (x[0] for x in rule.level0(rule.bounds, key, aux))
        n = n.astype(np.int64)
        v0 = (lo - (np.cumsum(n) - n)).repeat(n) + np.arange(n.sum())
        value = rule.values(v0, key.repeat(n), aux.repeat(n))
        keep = value <= bound
        nodes = np.column_stack([v1, suffix.repeat(n1, axis=0)]).astype(np.int64)
        pts.append(np.column_stack([v0.astype(np.int64), nodes.repeat(n, axis=0)])[keep])
        vals.append(value[keep])
    return np.concatenate(pts), np.concatenate(vals)


def enumerate_points(form: QuadForm, bound: float, mode: str = "auto"):
    """Integer points v with Q(v) <= bound, in original coordinates.

    Returns (points (m, d) int64, values (m,)); values are exact integers
    in exact mode, floats otherwise.
    """
    if bound < 0:
        return np.empty((0, form.dim), dtype=np.int64), np.empty(0)
    f = _factor(form, mode)
    _check_budget([f], math.sqrt(bound), POINT_CAP)
    bound = float(bound) if f.mint is None else math.floor(bound)
    rule = _FloatRule([f], [bound]) if f.mint is None else _ExactRule(f, [bound])
    pts, vals = _enumerate(rule, bound)
    return pts @ np.array(f.u, dtype=np.int64).T, vals


# ---------------------------------------------------------------------------
# public counting operations

def _float_tolerance(rsq: float, d: int) -> float:
    return 8.0 * math.ulp(rsq) * d


def _exact_threshold(radius) -> int:
    """floor(radius^2) with radius read exactly as a (dyadic) rational."""
    rsq = Fraction(radius) ** 2
    return math.floor(rsq)


def _thresholds(f: _Factor, radius: float, ks) -> list:
    """The thresholds of N0(radius / k) for each k of ks in the mode of f:
    (radius / k)^2 in float mode, floor(radius^2) // k^2 in exact mode."""
    if f.mint is None:
        return [(radius / k) ** 2 for k in ks]
    top = _exact_threshold(radius)
    return [top // (k * k) for k in ks]


def _n0_bands(fs, xs, sizes=None) -> np.ndarray:
    """N0 at each threshold of the nonincreasing xs (from _thresholds) for
    the forms fs (one exact form, or float forms of one dimension), form i
    reading only the first sizes[i] of them (default: all), counted to the
    upper and to the lower edge of the float boundary band; both are the
    exact count in exact mode.  Returns _count's totals: rows n_hi and n_lo."""
    if fs[0].mint is not None:
        n = _count(_ExactRule(fs[0], xs))
        return np.concatenate([n, n])
    tol = [_float_tolerance(x, fs[0].dim) for x in xs]
    return _count(_FloatRule(fs, [x + t for x, t in zip(xs, tol)],
                             [x - t for x, t in zip(xs, tol)]), sizes)


def count_full(spec: EllipsoidSpec, mode: str = "auto") -> CountResult:
    """Number of integer points with Q(v) <= R^2, origin included."""
    f = _factor(spec.form, mode)
    _check_budget([f], spec.radius)
    n_hi, n_lo = _n0_bands([f], _thresholds(f, spec.radius, [1]))[:, 0].tolist()
    return CountResult(n0=n_hi, boundary_ambiguous=n_hi - n_lo, mode=f.mode)


def count_primitive_direct(spec: EllipsoidSpec, mode: str = "auto") -> CountResult:
    """Primitive points by full enumeration plus a gcd filter (oracle role),
    flagging those between the band edges lo and hi (both floor(R^2) in
    exact mode, so none is flagged).  enumerate_points refuses its box at
    POINT_CAP, below COUNT_LIMIT."""
    used = _resolve_mode(spec.form, mode)
    if used == "exact":
        hi = lo = _exact_threshold(spec.radius)
    else:
        rsq = spec.radius ** 2
        tol = _float_tolerance(rsq, spec.form.dim)
        hi, lo = rsq + tol, rsq - tol
    pts, vals = enumerate_points(spec.form, hi, mode=used)
    prim = np.gcd.reduce(np.abs(pts), axis=1) == 1
    return CountResult(n1=int(prim.sum()), boundary_ambiguous=int((prim & (vals > lo)).sum()), mode=used)


@lru_cache(maxsize=8)
def sieve(limit: int) -> np.ndarray:
    """Moebius function on 0..limit (mu[0] = 0) by a vectorized factor
    sieve, as a read-only int8 array: the cache hands one array to every
    caller, so a write into it would change later counts.  It is built in
    int8, with each entry's product of tracked primes, a divisor of the
    entry, in int32: about 10 bytes per entry at the peak."""
    if not 1 <= limit < 2 ** 31:
        raise CountingError(f"sieve limit must lie in [1, 2^31), got {limit}")
    mu = np.ones(limit + 1, dtype=np.int8)
    mu[0] = 0
    tracked = np.ones(limit + 1, dtype=np.int32)
    root = math.isqrt(limit)
    is_prime = np.ones(root + 1, dtype=bool)
    for p in range(2, root + 1):
        if not is_prime[p]:
            continue
        is_prime[p * p :: p] = False
        mu[p::p] *= -1
        tracked[p::p] *= p
        mu[p * p :: p * p] = 0
    # entries whose tracked product falls short have exactly one prime
    # factor above sqrt(limit): flip the sign once more
    leftover = tracked < np.arange(limit + 1, dtype=np.int32)
    mu[leftover] *= -1
    mu.flags.writeable = False
    return mu


def _moebius_limit(f: _Factor, radius: float) -> int:
    """K = floor(R / sqrt(min_i q_i)) + 2: N0(R/k) = 1 for every k >= K."""
    return math.floor(radius / math.sqrt(min(f.q))) + 2


def check_radius_budget(d: int, radius: float) -> None:
    """Refuse, before any form exists, a primitive count at radius R that
    count_primitive_many refuses for every det-1 form of dimension d: its walk
    estimate is at least (2R)^(d-1) sqrt(q_0) and its table R / sqrt(q_0), as
    the q_i multiply to 1, so the larger is at least sqrt(2^(d-1) R^d).  The
    test allows 1e-6 of det rounding."""
    log_need = 0.5 * ((d - 1) * math.log(2.0) + d * math.log(radius))
    if log_need > math.log(ENUM_BUDGET) + 1e-6:
        raise EnumerationBudgetError(
            f"a count at radius {radius!r} needs at least 10^{log_need / math.log(10.0):.1f} walk "
            f"nodes or table entries, above the budget {ENUM_BUDGET:.0e}")


def count_primitive_many(forms, radius: float | Sequence[float],
                         mode: str = "auto") -> list[CountResult] | list[list[CountResult]]:
    """Primitive counts of many forms of one dimension at one radius or at
    each of a list of radii, by the sieve: N1(R) = sum_k mu(k) (N0(R/k) - 1)
    per form.  One radius gives one CountResult per form; a list of radii
    gives one such list per radius, in order.

    Subtracting the origin from each full count makes the identity exact at
    every radius.  In the reduced coordinates every nonzero v has
    Q(v) >= min_i q_i, the least squared Gram-Schmidt norm, so N0(R/k) = 1
    once R/k < sqrt(min_i q_i): those terms are mu(k) (1 - 1) = 0, and in
    float mode their boundary band is 0 as well.  Each form's sum at R runs
    to its own K = floor(R / sqrt(min_i q_i)) + 2, one past the first such
    k, so that N0(R/K) = 1 also where a rounded R / sqrt(min_i q_i) falls
    just below an integer k and the float band at R/k holds a shortest
    vector.

    Each form is LLL-reduced once, and the reduced grams are factored by
    one stacked Cholesky (_factors).  The float forms share one walk at
    the largest R, which yields their rows in turn, and one pass of the
    leaf; each node is paired only with the thresholds it can reach among
    those its own form reads, so one deep-cusp form does not widen the
    pairing of the others.  Each exact form takes a pass of its own.  The thresholds
    of a pass are those of every radius R_j and every squarefree k up to
    R_j's K, merged, de-duplicated and in descending order; a node's key
    does not depend on the walk's top, so every N0 is the one a count at
    R_j alone gives.
    """
    scalar = np.ndim(radius) == 0
    radii = [radius] if scalar else list(radius)
    forms = list(forms)
    if not forms or not radii:
        return [] if scalar else [[] for _ in radii]
    d = forms[0].dim
    if any(form.dim != d for form in forms):
        raise CountingError("the forms of one count must share a dimension")
    for r in radii:
        _check_radius(r)
    fs = _factors(forms, mode)
    _check_budget(fs, max(radii), table=True)
    kmax = [[_moebius_limit(f, r) for f in fs] for r in radii]
    mu = sieve(max(map(max, kmax)))
    ks = np.flatnonzero(mu).tolist()
    sizes = [[bisect.bisect_right(ks, k) for k in row] for row in kmax]  # per radius, per form
    mu_ks = mu[ks]
    # the float forms share one pass; each exact form takes its own
    floats = [i for i, f in enumerate(fs) if f.mint is None]
    groups = ([floats] if floats else []) + [[i] for i, f in enumerate(fs) if f.mint is not None]
    out = [[None] * len(fs) for _ in radii]
    for group in groups:
        need = np.array([[size[i] for i in group] for size in sizes])  # per radius, per form
        rows = [_thresholds(fs[group[0]], r, ks[:w.max()]) for r, w in zip(radii, need)]
        xs = sorted({x for row in rows for x in row}, reverse=True)
        at = {x: p for p, x in enumerate(xs)}
        pos = [np.array([at[x] for x in row]) for row in rows]  # the column of each threshold
        # each form reads the thresholds down to the last one it needs
        width = (np.max([p[w - 1] for p, w in zip(pos, need)], axis=0) + 1).tolist()
        n = _n0_bands([fs[i] for i in group], xs, width)
        starts = list(itertools.accumulate(width[:-1], initial=0))
        for res, p, w in zip(out, pos, need):
            seg = np.cumsum(w) - w
            kcol = np.arange(seg[-1] + w[-1]) - np.repeat(seg, w)  # the index into ks of each entry
            cols = np.repeat(starts, w) + p[kcol]
            hi, lo = n[0, cols], n[1, cols]
            # int64 sums are exact: an intermediate could only wrap modulo 2^64,
            # and every result lies between 0 and the count N0 < COUNT_LIMIT
            n1 = np.add.reduceat(mu_ks[kcol] * (hi - 1), seg).tolist()
            band = np.add.reduceat(hi - lo, seg).tolist()
            for i, n0, a, b in zip(group, hi[seg].tolist(), n1, band):
                res[i] = CountResult(n0=n0, n1=a, boundary_ambiguous=b, mode=fs[i].mode)
    return out[0] if scalar else out


def count_primitive_moebius(spec: EllipsoidSpec, mode: str = "auto") -> CountResult:
    """Primitive count via the sieve: count_primitive_many for one form."""
    return count_primitive_many([spec.form], spec.radius, mode)[0]


def n0_series(spec: EllipsoidSpec) -> np.ndarray:
    """N0(R/n) for n = 1 .. max(floor(R), K) as int64, entry n - 1, from
    one walk at R with the thresholds (R/n)^2 (floor(R^2) // n^2 in exact
    mode), counted to the upper edge of the float boundary band.  Past the
    last entry N0(R/n) = 1, and the list is nonincreasing."""
    f = _factor(spec.form, "auto")
    _check_budget([f], spec.radius, table=True)
    plan = max(math.floor(spec.radius), _moebius_limit(f, spec.radius))
    return _n0_bands([f], _thresholds(f, spec.radius, range(1, plan + 1)))[0]


def shell_table(form: QuadForm, top: float):
    """(r0, r1): full and primitive counts at the integer levels 0 .. top
    (top >= 0) as int64 arrays, binned from one exact enumeration."""
    pts, vals = enumerate_points(form, top, mode="exact")
    prim = np.gcd.reduce(np.abs(pts), axis=1) == 1
    n = math.floor(top) + 1
    return np.bincount(vals, minlength=n), np.bincount(vals[prim], minlength=n)


def error_terms(spec: EllipsoidSpec, mode: str = "auto") -> CountResult:
    """Full and primitive counts with e0 = n0 - omega R^d and
    e1 = n1 - omega R^d / zeta(d)."""
    cst = constants(spec.form.dim)
    res = count_primitive_moebius(spec, mode=mode)
    main = cst.omega * spec.radius ** spec.form.dim
    res.e0 = res.n0 - main
    res.e1 = res.n1 - main / cst.zeta
    return res

