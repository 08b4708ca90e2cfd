"""Exact and floating-point counting of lattice points in ellipsoids.

Counts integer vectors v with Q(v) <= R^2 for a determinant-one positive
definite form Q, together with the primitive (coprime-coordinate) variant
and the error terms against the volume main terms.

Two modes:

  * exact  -- integer gram matrix; thresholds are floored to integers and
    all comparisons are done in exact integer arithmetic (isqrt at the
    innermost level).  boundary_ambiguous is always 0.
  * float  -- general real gram; a point with |Q(v) - R^2| <= 8*ulp(R^2)*d
    is counted as inside and flagged as boundary-ambiguous.

The traversal is the classical recursive interval walk over coordinates
driven by the Cholesky factor: for each fixed suffix the admissible range
of the next coordinate is an interval, and the innermost coordinate is
counted by floor/ceil arithmetic rather than per-point iteration.
Coordinates are pivoted so the most constrained direction is outermost,
which keeps the tree small for very eccentric forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .quadform import QuadForm, constants

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


def integer_gram_or_none(gram: np.ndarray, tol: float = 1e-9):
    """The gram matrix as nested python ints if it is integral within a
    relative tolerance (large-entry unimodular grams carry float noise
    proportional to their scale)."""
    r = np.rint(gram)
    scale = max(1.0, float(np.max(np.abs(gram))))
    if float(np.max(np.abs(gram - r))) <= tol * scale:
        return [[int(x) for x in row] for row in r]
    return None


def _resolve_mode(form: QuadForm, mode: str):
    if mode not in ("auto", "exact", "float"):
        raise CountingError(f"unknown mode {mode!r}")
    mint = integer_gram_or_none(form.gram)
    if mode == "exact" and mint is None:
        raise CountingError("exact mode requires an integer gram matrix")
    if mode == "float":
        return "float", None
    if mint is not None:
        return "exact", mint
    return "float", None


def _pivot_order(gram: np.ndarray) -> list[int]:
    """Coordinate permutation, innermost first.

    The most constrained coordinate (smallest diagonal of the inverse
    gram) goes outermost so that the top-level loop is short.
    """
    inv_diag = np.diagonal(np.linalg.inv(gram))
    order = list(np.argsort(inv_diag))
    return order[::-1]  # position 0 = innermost = least constrained


def _permuted(gram: np.ndarray, perm: list[int]) -> np.ndarray:
    idx = np.ix_(perm, perm)
    return gram[idx]


def _rfactor(gram_p: np.ndarray) -> np.ndarray:
    """Upper triangular R with gram = R^T R."""
    return np.linalg.cholesky(gram_p).T


def _budget_estimate(gram_p: np.ndarray, bound: float) -> float:
    """Upper-bound-flavored estimate of the traversal size."""
    r = _rfactor(gram_p)
    diag = np.diagonal(r)
    est = 1.0
    for i in range(len(diag) - 1, 0, -1):
        est *= 2.0 * math.sqrt(max(bound, 0.0)) / diag[i] + 1.0
    return est


# ---------------------------------------------------------------------------
# float-mode counting

def _count_float_d2(gram_p, bound_hi, bound_lo, v_range=None):
    r = _rfactor(gram_p)
    q0, q1 = r[0, 0] ** 2, r[1, 1] ** 2
    m01 = r[0, 1] / r[0, 0]
    vmax = math.floor(math.sqrt(max(bound_hi, 0.0) / q1))
    lo, hi = (-vmax, vmax) if v_range is None else v_range
    if hi < lo:
        return 0, 0
    v1 = np.arange(lo, hi + 1, dtype=float)
    t = q1 * v1 * v1
    c = m01 * v1
    totals = []
    for bound in (bound_hi, bound_lo):
        rem = (bound - t) / q0
        ok = rem >= 0.0
        rad = np.sqrt(np.where(ok, rem, 0.0))
        cnt = np.floor(-c + rad) - np.ceil(-c - rad) + 1.0
        cnt = np.where(ok, np.maximum(cnt, 0.0), 0.0)
        totals.append(int(cnt.sum()))
    return totals[0], totals[1]


def _count_float_rec(gram_p, bound_hi, bound_lo, v_range=None):
    d = gram_p.shape[0]
    r = _rfactor(gram_p)
    q = np.diagonal(r) ** 2
    # m[i][k] = R[k, i] / R[k, k]: contribution of v_i to the center at level k < i
    m = [[r[k, i] / r[k, k] for k in range(i)] for i in range(d)]
    totals = [0, 0]

    def level_count(c, t):
        for idx, bound in enumerate((bound_hi, bound_lo)):
            rem = (bound - t) / q[0]
            if rem >= 0.0:
                rad = math.sqrt(rem)
                n = math.floor(-c + rad) - math.ceil(-c - rad) + 1
                if n > 0:
                    totals[idx] += n

    def rec(i, cent, t, rng=None):
        rem = (bound_hi - t) / q[i]
        if rem < 0.0:
            return
        rad = math.sqrt(rem)
        c = cent[i]
        lo = math.ceil(-c - rad)
        hi = math.floor(-c + rad)
        if rng is not None:
            lo, hi = max(lo, rng[0]), min(hi, rng[1])
        mi = m[i]
        for v in range(lo, hi + 1):
            t2 = t + q[i] * (v + c) ** 2
            cent2 = [cent[k] + mi[k] * v for k in range(i)]
            if i == 1:
                level_count(cent2[0], t2)
            else:
                rec(i - 1, cent2, t2)

    rec(d - 1, [0.0] * d, 0.0, v_range)
    return totals[0], totals[1]


def _outer_range_float(gram_p, bound):
    r = _rfactor(gram_p)
    qd = r[-1, -1] ** 2
    vmax = math.floor(math.sqrt(max(bound, 0.0) / qd))
    return -vmax, vmax


def _count_float(gram_p, bound_hi, bound_lo, threads=1):
    d = gram_p.shape[0]
    fn = _count_float_d2 if d == 2 else _count_float_rec
    if threads <= 1:
        return fn(gram_p, bound_hi, bound_lo)
    lo, hi = _outer_range_float(gram_p, bound_hi)
    edges = np.linspace(lo, hi + 1, threads + 1).astype(int)
    chunks = [(int(edges[i]), int(edges[i + 1]) - 1) for i in range(threads)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        parts = list(pool.map(lambda c: fn(gram_p, bound_hi, bound_lo, c), chunks))
    return sum(p[0] for p in parts), sum(p[1] for p in parts)


# ---------------------------------------------------------------------------
# exact-mode counting

def _exact_inner_count(a, b, c):
    """#{x in Z : a x^2 + 2 b x + c <= 0}, a > 0, in exact arithmetic.

    a x^2 + 2bx + c <= 0 iff (a x + b)^2 <= b^2 - a c, and both sides are
    integers, so floor square roots give exact endpoints.
    """
    disc = b * b - a * c
    if disc < 0:
        return 0
    s = math.isqrt(disc)
    hi = (s - b) // a
    lo = -((s + b) // a)
    return hi - lo + 1 if hi >= lo else 0


def _count_exact(mint_p, nint, threads=1, v_range=None):
    """Exact count of v with v^T M v <= nint for integer M (permuted)."""
    d = len(mint_p)
    gram_f = np.array(mint_p, dtype=float)
    r = _rfactor(gram_f)
    q = np.diagonal(r) ** 2
    m = [[r[k, i] / r[k, k] for k in range(i)] for i in range(d)]
    nf = float(nint)
    slack = 1e-12 * nf + 1e-9  # covers float drift of the partial sums
    a0 = mint_p[0][0]

    def rec(i, cent, tf, lin, qval, rng=None):
        total = 0
        rem = (nf + slack - tf) / q[i]
        if rem < 0.0:
            return 0
        rad = math.sqrt(max(rem, 0.0))
        c = cent[i]
        lo = math.ceil(-c - rad) - _PAD
        hi = math.floor(-c + rad) + _PAD
        if rng is not None:
            lo, hi = max(lo, rng[0]), min(hi, rng[1])
        col = [row[i] for row in mint_p]
        mi = m[i]
        if i == 1:
            for v in range(lo, hi + 1):
                qv = qval + col[1] * v * v + 2 * v * lin[1]
                b0 = lin[0] + col[0] * v
                total += _exact_inner_count(a0, b0, qv - nint)
        else:
            for v in range(lo, hi + 1):
                lin2 = [lin[k] + col[k] * v for k in range(i)]
                qv = qval + col[i] * v * v + 2 * v * lin[i]
                tf2 = tf + q[i] * (v + c) ** 2
                cent2 = [cent[k] + mi[k] * v for k in range(i)]
                total += rec(i - 1, cent2, tf2, lin2, qv)
        return total

    if d == 2:
        run = lambda rng: rec(1, [0.0, 0.0], 0.0, [0, 0], 0, rng)
    else:
        run = lambda rng: rec(d - 1, [0.0] * d, 0.0, [0] * d, 0, rng)
    if threads <= 1:
        return run(v_range)
    lo, hi = _outer_range_float(gram_f, nf)
    lo, hi = lo - _PAD, hi + _PAD
    edges = np.linspace(lo, hi + 1, threads + 1).astype(int)
    chunks = [(int(edges[i]), int(edges[i + 1]) - 1) for i in range(threads)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        parts = list(pool.map(run, chunks))
    return sum(parts)


# ---------------------------------------------------------------------------
# enumeration (points with values)

def _enumerate_float(gram_p, bound):
    """All integer points (in permuted coordinates) with Q <= bound.

    Returns (points int64 array (m, d), values float array (m,)).
    """
    d = gram_p.shape[0]
    r = _rfactor(gram_p)
    q = np.diagonal(r) ** 2
    m = [[r[k, i] / r[k, k] for k in range(i)] for i in range(d)]
    pts, vals = [], []

    def inner(prefix, c, t):
        rem = (bound - t) / q[0]
        if rem < 0.0:
            return
        rad = math.sqrt(rem)
        lo = math.ceil(-c - rad)
        hi = math.floor(-c + rad)
        if hi < lo:
            return
        v0 = np.arange(lo, hi + 1, dtype=np.int64)
        value = t + q[0] * (v0 + c) ** 2
        keep = value <= bound
        if not keep.any():
            return
        v0 = v0[keep]
        block = np.empty((v0.size, d), dtype=np.int64)
        block[:, 0] = v0
        block[:, 1:] = np.asarray(prefix[::-1], dtype=np.int64)
        pts.append(block)
        vals.append(value[keep])

    def rec(i, prefix, cent, t):
        if i == 0:
            inner(prefix, cent[0], t)
            return
        rem = (bound - t) / q[i]
        if rem < 0.0:
            return
        rad = math.sqrt(rem)
        c = cent[i]
        mi = m[i]
        for v in range(math.ceil(-c - rad), math.floor(-c + rad) + 1):
            rec(i - 1, prefix + [v], [cent[k] + mi[k] * v for k in range(i)], t + q[i] * (v + c) ** 2)

    rec(d - 1, [], [0.0] * d, 0.0)
    if not pts:
        return np.empty((0, d), dtype=np.int64), np.empty(0)
    return np.concatenate(pts), np.concatenate(vals)


def _enumerate_exact(mint_p, nint):
    """Exact enumeration: integer points and exact integer values."""
    d = len(mint_p)
    gram_f = np.array(mint_p, dtype=float)
    r = _rfactor(gram_f)
    q = np.diagonal(r) ** 2
    m = [[r[k, i] / r[k, k] for k in range(i)] for i in range(d)]
    nf = float(nint)
    slack = 1e-12 * nf + 1e-9
    a0 = mint_p[0][0]
    pts, vals = [], []

    def rec(i, prefix, cent, tf, lin, qval):
        rem = (nf + slack - tf) / q[i]
        if rem < 0.0:
            return
        rad = math.sqrt(max(rem, 0.0))
        c = cent[i]
        lo = math.ceil(-c - rad) - _PAD
        hi = math.floor(-c + rad) + _PAD
        col = [row[i] for row in mint_p]
        mi = m[i]
        if i == 0:
            for v in range(lo, hi + 1):
                value = qval + a0 * v * v + 2 * v * lin[0]
                if value <= nint:
                    pts.append([v] + prefix[::-1])
                    vals.append(value)
            return
        for v in range(lo, hi + 1):
            lin2 = [lin[k] + col[k] * v for k in range(i)]
            qv = qval + col[i] * v * v + 2 * v * lin[i]
            tf2 = tf + q[i] * (v + c) ** 2
            rec(i - 1, prefix + [v], [cent[k] + mi[k] * v for k in range(i)], tf2, lin2, qv)

    rec(d - 1, [], [0.0] * d, 0.0, [0] * d, 0)
    if not pts:
        return np.empty((0, d), dtype=np.int64), np.empty(0, dtype=np.int64)
    return np.array(pts, dtype=np.int64), np.array(vals, dtype=np.int64)


def enumerate_points(form: QuadForm, bound: float, mode: str = "auto", budget: float = 1e8):
    """Integer points v with Q(v) <= bound, in original coordinates.

    Returns (points (m, d) int64, values (m,)); values are exact integers
    in exact mode, floats otherwise.
    """
    if bound < 0:
        d = form.dim
        return np.empty((0, d), dtype=np.int64), np.empty(0)
    used_mode, mint = _resolve_mode(form, mode)
    perm = _pivot_order(form.gram)
    if _budget_estimate(_permuted(form.gram, perm), float(bound)) > budget:
        raise EnumerationBudgetError("enumeration tree exceeds the node budget")
    if used_mode == "exact":
        mint_p = [[mint[i][j] for j in perm] for i in perm]
        pts_p, vals = _enumerate_exact(mint_p, math.floor(bound))
    else:
        gram_p = _permuted(form.gram, perm)
        pts_p, vals = _enumerate_float(gram_p, float(bound))
    pts = np.empty_like(pts_p)
    for new_pos, orig in enumerate(perm):
        pts[:, orig] = pts_p[:, new_pos]
    return pts, vals


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


def count_full(spec: EllipsoidSpec, mode: str = "auto", threads: int = 1) -> CountResult:
    """Number of integer points with Q(v) <= R^2, origin included."""
    _check_overflow(spec)
    used_mode, mint = _resolve_mode(spec.form, mode)
    perm = _pivot_order(spec.form.gram)
    if used_mode == "exact":
        mint_p = [[mint[i][j] for j in perm] for i in perm]
        n0 = _count_exact(mint_p, _exact_threshold(spec.radius), threads=threads)
        return CountResult(n0=n0, boundary_ambiguous=0, mode="exact")
    gram_p = _permuted(spec.form.gram, perm)
    rsq = spec.radius ** 2
    tol = _float_tolerance(rsq, spec.form.dim)
    n_hi, n_lo = _count_float(gram_p, rsq + tol, rsq - tol, threads=threads)
    return CountResult(n0=n_hi, boundary_ambiguous=n_hi - n_lo, mode="float")


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


def count_primitive_moebius(spec: EllipsoidSpec, mode: str = "auto", threads: int = 1) -> CountResult:
    """Primitive count via the sieve: N1(R) = sum_k mu(k) (N0(R/k) - 1).

    Subtracting the origin from each full count makes the identity exact at
    every radius.  The k-sum stops at the first squarefree k with
    N0(R/k) = 1: N0 is monotone in the radius, so every later term is
    mu(k) (1 - 1) = 0, and in float mode its boundary band n_hi - n_lo is
    0 as well.
    """
    _check_overflow(spec)
    used_mode, mint = _resolve_mode(spec.form, mode)
    perm = _pivot_order(spec.form.gram)
    kmax = max(math.floor(spec.radius / _shortest_radius_lower_bound(spec.form)), 1)
    # N0(R/k) >= 3 while a basis vector e_i has Q(e_i) <= (R/k)^2, so the
    # sum runs at least to k = R / sqrt(min_i Q(e_i)): size the table there
    shortest_basis = math.sqrt(float(np.min(np.diagonal(spec.form.gram))))
    first = min(kmax, math.floor(spec.radius / shortest_basis) + 1)
    n1 = 0
    n0_full = None
    boundary = 0
    if used_mode == "exact":
        mint_p = [[mint[i][j] for j in perm] for i in perm]
        rsq = Fraction(spec.radius) ** 2
        for k, mu_k in _squarefree_terms(first, kmax):
            n0 = _count_exact(mint_p, math.floor(rsq / (k * k)), threads=threads)
            if k == 1:
                n0_full = n0
            n1 += mu_k * (n0 - 1)
            if n0 == 1:
                break
        return CountResult(n0=n0_full, n1=n1, boundary_ambiguous=0, mode="exact")
    gram_p = _permuted(spec.form.gram, perm)
    d = spec.form.dim
    for k, mu_k in _squarefree_terms(first, kmax):
        rsq = (spec.radius / k) ** 2
        tol = _float_tolerance(rsq, d)
        n_hi, n_lo = _count_float(gram_p, rsq + tol, rsq - tol, threads=threads)
        if k == 1:
            n0_full = n_hi
        boundary += n_hi - n_lo
        n1 += mu_k * (n_hi - 1)
        if n_hi == 1:
            break
    return CountResult(n0=n0_full, n1=n1, boundary_ambiguous=boundary, mode="float")


def _squarefree_terms(first: int, kmax: int):
    """(k, mu(k)) for the squarefree k <= kmax in increasing order.

    The Moebius table starts at first entries and grows by doubling as k
    advances, so a caller that stops at some k >= first / 2 never has a
    table longer than 2k (nor than kmax).
    """
    from .moebius import sieve  # local import to avoid a module cycle

    table = sieve(first)
    for k in range(1, kmax + 1):
        if k > table.limit:
            table = sieve(min(2 * table.limit, kmax))
        mu_k = int(table.mu[k])
        if mu_k:
            yield k, mu_k


def _shortest_radius_lower_bound(form: QuadForm) -> float:
    """A positive lower bound for |v|_Q over nonzero integer v.

    Q(v) >= |v|^2 / lambda_max(gram^{-1})^{-1}... we use the smallest
    eigenvalue of the gram matrix, which is cheap and safe.
    """
    w = np.linalg.eigvalsh(form.gram)
    return math.sqrt(max(float(w[0]), 1e-300))


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


def error_terms(spec: EllipsoidSpec, mode: str = "auto", threads: int = 1) -> CountResult:
    """Full and primitive counts with e0 = n0 - omega R^d and
    e1 = n1 - omega R^d / zeta(d)."""
    cst = constants(spec.form.dim)
    res = count_primitive_moebius(spec, mode=mode, threads=threads)
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
