"""Reference computations the benchmark checks horocount against.

Nothing here imports horocount: every count, table and integral is
computed by a different method than the program uses.

  * ball_count        -- integer points of the unit-form ball |v|^2 <= n,
                         by nested integer square roots;
  * mobius            -- the Moebius function by a linear sieve;
  * primitive_from_full -- N1 = sum_k mu(k) (N0(R/k) - 1), stopped when
                         only the origin is left;
  * row_count         -- points of a real form's ellipsoid, one quadratic
                         solve per row of the outer coordinates, with a
                         boundary band that holds every point whose value
                         is within REL_BAND of the threshold;
  * box_scan          -- brute force over the bounding box, full and
                         primitive, with the same band;
  * horo_average_d2   -- the exact level-t horospherical average in
                         d = 2 (the torus integral is done in closed form);
  * profile_integral  -- I_h(d) for the indicator and bump profiles;
  * shortest_vector   -- |v|_Q of a shortest nonzero integer vector.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

# Points with |Q(v) - R^2| <= REL_BAND * R^2 are boundary points whose side
# float arithmetic may not settle.  The band is wide against float64 error
# (about 1e-15 relative) and narrow enough that random forms put no point in it.
REL_BAND = 1e-12


def _nested_isqrt_count(d: int, n: int) -> int:
    if n < 0:
        return 0
    if d == 1:
        return 2 * math.isqrt(n) + 1
    r = math.isqrt(n)
    return _ball_cached(d - 1, n) + 2 * sum(_ball_cached(d - 1, n - x * x) for x in range(1, r + 1))


@lru_cache(maxsize=None)
def _ball_cached(d: int, n: int) -> int:
    return _nested_isqrt_count(d, n)


def ball_count(d: int, radius) -> int:
    """#{v in Z^d : |v|^2 <= radius^2}, radius read exactly."""
    return _nested_isqrt_count(d, math.floor(Fraction(radius) ** 2))


def mobius(n: int) -> list[int]:
    """mu(0..n) by a linear sieve (mu[0] = 0)."""
    mu = [0] * (n + 1)
    if n >= 1:
        mu[1] = 1
    is_comp = [False] * (n + 1)
    primes: list[int] = []
    for i in range(2, n + 1):
        if not is_comp[i]:
            primes.append(i)
            mu[i] = -1
        for p in primes:
            if i * p > n:
                break
            is_comp[i * p] = True
            if i % p == 0:
                mu[i * p] = 0
                break
            mu[i * p] = -mu[i]
    return mu


def primitive_from_full(full_k) -> int:
    """N1(R) from full_k(k) = N0(R/k), summed until only the origin is left."""
    terms = []
    k = 1
    while True:
        n0 = full_k(k)
        if n0 <= 1:
            break
        terms.append(n0 - 1)
        k += 1
    mu = mobius(len(terms))
    return sum(mu[k] * t for k, t in enumerate(terms, start=1))


def ball_primitive(d: int, radius) -> int:
    rsq = Fraction(radius) ** 2
    return primitive_from_full(lambda k: _nested_isqrt_count(d, math.floor(rsq / (k * k))))


def _int_range_size(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    return np.maximum(np.floor(hi) - np.ceil(lo) + 1.0, 0.0)


def row_count(gram: np.ndarray, radius: float) -> tuple[int, int]:
    """(sure, band) for the ellipsoid v^T gram v <= radius^2.

    sure counts points with Q(v) < R^2 (1 - REL_BAND), band the points
    with |Q(v) - R^2| <= REL_BAND R^2.  The innermost coordinate is
    solved for per row of the outer box: Q = g00 (v0 + c)^2 + v'^T S v'
    with S the Schur complement of g00.
    """
    g = np.asarray(gram, dtype=float)
    b = float(radius) ** 2
    g00, g0r, grr = g[0, 0], g[0, 1:], g[1:, 1:]
    schur = grr - np.outer(g0r, g0r) / g00
    inv_diag = np.diagonal(np.linalg.inv(g))[1:]
    half = [int(math.floor(math.sqrt(b * (1 + REL_BAND) * x))) for x in inv_diag]
    axes = [np.arange(-h, h + 1, dtype=float) for h in half]
    rows = np.stack([a.ravel() for a in np.meshgrid(*axes, indexing="ij")], axis=1)
    c = rows @ g0r / g00
    rest = np.einsum("ij,jk,ik->i", rows, schur, rows)
    counts = []
    for bound in (b * (1 - REL_BAND), b * (1 + REL_BAND)):
        rem = (bound - rest) / g00
        ok = rem >= 0.0
        r = np.sqrt(np.where(ok, rem, 0.0))
        counts.append(int(np.where(ok, _int_range_size(-c - r, -c + r), 0.0).sum()))
    return counts[0], counts[1] - counts[0]


def row_primitive(gram: np.ndarray, radius: float) -> tuple[int, int]:
    """(sure, band) for the primitive count, through the Moebius sum.

    A primitive point's multiple kv lies in the band at R exactly when v
    lies in the band at R/k, so bands add up with absolute values.
    """
    sure_terms, band_terms = [], []
    k = 1
    while True:
        sure, band = row_count(gram, radius / k)
        if sure + band <= 1:
            break
        sure_terms.append(sure - 1)
        band_terms.append(band)
        k += 1
    mu = mobius(len(sure_terms))
    sure = sum(mu[k] * s for k, s in enumerate(sure_terms, start=1))
    band = sum(abs(mu[k]) * s for k, s in enumerate(band_terms, start=1))
    return sure, band


def box_scan(gram: np.ndarray, radius: float, extra_band: float = 0.0):
    """Brute force over the bounding box of the ellipsoid.

    Returns (n0_sure, n0_band, n1_sure, n1_band): full and primitive
    counts of points inside by more than the band, and of points within
    it.  The band is REL_BAND R^2 + extra_band.
    """
    g = np.asarray(gram, dtype=float)
    b = float(radius) ** 2
    tol = REL_BAND * b + extra_band
    inv_diag = np.diagonal(np.linalg.inv(g))
    half = [int(math.floor(math.sqrt((b + tol) * x))) for x in inv_diag]
    axes = [np.arange(-h, h + 1, dtype=np.int64) for h in half]
    pts = np.stack([a.ravel() for a in np.meshgrid(*axes, indexing="ij")], axis=1)
    fp = pts.astype(float)
    vals = np.einsum("ij,jk,ik->i", fp, g, fp)
    sure = vals < b - tol
    band = np.abs(vals - b) <= tol
    prim = np.gcd.reduce(np.abs(pts), axis=1) == 1
    return (int(sure.sum()), int(band.sum()),
            int((sure & prim).sum()), int((band & prim).sum()))


def shortest_vector(gram: np.ndarray) -> float:
    """Length of a shortest nonzero integer vector under the form.

    LLL-reduces a basis (delta 0.99), then scans the box that holds every
    vector no longer than the first reduced basis vector.
    """
    g = np.asarray(gram, dtype=float)
    d = g.shape[0]
    basis = np.linalg.cholesky(g).T  # columns b_j with b_i . b_j = g_ij
    k = 1
    while k < d:
        for j in range(k - 1, -1, -1):
            _, r = np.linalg.qr(basis)
            q = round(r[j, k] / r[j, j])
            if q:
                basis[:, k] -= q * basis[:, j]
        _, r = np.linalg.qr(basis)
        if r[k, k] ** 2 >= (0.99 - (r[k - 1, k] / r[k - 1, k - 1]) ** 2) * r[k - 1, k - 1] ** 2:
            k += 1
        else:
            basis[:, [k - 1, k]] = basis[:, [k, k - 1]]
            k = max(k - 1, 1)
    red = basis.T @ basis
    bound = float(np.min(np.diagonal(red))) * (1 + 1e-9)
    inv_diag = np.diagonal(np.linalg.inv(red))
    axes = [np.arange(-int(math.sqrt(bound * x)), int(math.sqrt(bound * x)) + 1) for x in inv_diag]
    pts = np.stack([a.ravel() for a in np.meshgrid(*axes, indexing="ij")], axis=1).astype(float)
    vals = np.einsum("ij,jk,ik->i", pts, red, pts)
    return math.sqrt(float(np.min(vals[np.any(pts != 0, axis=1)])))


def unit_ball_volume(d: int) -> float:
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


def profile_value(kind: str, support: float, plateau: float, u):
    """h(u): 1 up to the plateau, then 1 - 3w^2 + 2w^3 down to 0 at support
    (bump), or the indicator of [0, support]."""
    u = np.asarray(u, dtype=float)
    if kind == "indicator":
        return np.where(u <= support, 1.0, 0.0)
    w = np.clip((u - plateau) / (support - plateau), 0.0, 1.0)
    return 1.0 - 3.0 * w ** 2 + 2.0 * w ** 3


def profile_integral(kind: str, support: float, plateau: float, d: int) -> float:
    """I_h(d) = integral of h(|x|^2) over R^d = (d omega_d / 2) int h(u) u^(d/2-1) du."""
    from scipy import integrate  # imported here to keep it out of the timed set-up

    f = lambda u: float(profile_value(kind, support, plateau, u)) * u ** (d / 2.0 - 1.0)
    pts = [plateau] if kind == "bump" and plateau > 0 else None
    val, _ = integrate.quad(f, 0.0, support, points=pts, epsabs=1e-14, epsrel=1e-13, limit=200)
    return 0.5 * d * unit_ball_volume(d) * val


def _totients(n: int) -> np.ndarray:
    phi = np.arange(n + 1, dtype=float)
    for p in range(2, n + 1):
        if phi[p] == p:  # p is prime
            phi[p::p] -= phi[p::p] / p
    return phi


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)


def _segment_integral(kind, support, plateau, a, lo, hi):
    """int_lo^hi h(a + s^2) ds, exact: the integrand is a polynomial of
    degree 6 in s on each segment and the rule has 8 nodes."""
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    s = mid[:, None] + half[:, None] * _GL_NODES[None, :]
    vals = profile_value(kind, support, plateau, a[:, None] + s * s)
    return half * (vals @ _GL_WEIGHTS)


def horo_average_d2(t: float, kind: str, support: float, plateau: float) -> float:
    """Exact level-t average of the primitive Siegel transform in d = 2.

    The form at torus point x is Q(w, k) = e^{-t/sqrt2} w^2 + e^{t/sqrt2} (xw + k)^2.
    For w >= 1 the integers k prime to w shift xw over phi(w) whole periods,
    so the x-average of the k-sum is (phi(w)/w) int_R h(a_w + b u^2) du.
    The w = 0 row has k = +-1 only.
    """
    lam = mu = 1.0 / math.sqrt(2.0)
    el, b = math.exp(-lam * t), math.exp(mu * t)
    total = 2.0 * float(profile_value(kind, support, plateau, b))
    wmax = math.isqrt(int(math.floor(support / el))) + 1
    ws = np.arange(1, wmax + 1, dtype=float)
    a = el * ws * ws
    keep = a < support
    ws, a = ws[keep], a[keep]
    if ws.size == 0:
        return total
    s_top = np.sqrt(support - a)
    if kind == "indicator":
        line = 2.0 * s_top
    else:
        s_plateau = np.sqrt(np.maximum(plateau - a, 0.0))
        line = 2.0 * (s_plateau + _segment_integral(kind, support, plateau, a, s_plateau, s_top))
    phi = _totients(int(ws[-1]))[ws.astype(int)]
    return total + 2.0 * float(np.sum(phi / ws * line)) / math.sqrt(b)
