"""Numerical horospherical averages and their decay against space averages.

Test functions are primitive Siegel transforms of compactly supported
radial profiles h: the value at a form Q is sum over primitive integer v
of h(Q(v)).  These are integer-group invariant by construction and their
space average has the closed form I_h(d)/zeta(d), with I_h(d) the
Euclidean integral of h(|x|^2).

The level-t average F(t) is computed in fiber-bundle coordinates: the
form at torus point x over a base point b of the (d-1)-dimensional
locally symmetric space is

    Q_{t,b,x}(w, k) = e^{-lambda t} Q_b(w) + e^{mu t} (<x, w> + k)^2,

integrated by a midpoint rule over x in [-1/2, 1/2)^{d-1} and, for d = 3,
by a hyperbolic-measure quadrature over the modular fundamental domain
(grid in (x, log y), density 1/y^2, cusp cut at height Y).

For d = 3 the n x n torus mean is evaluated exactly as an n-point sum.
Write w = g0 w' with gcd(w') = 1.  On the midpoint grid
x = ((i + 1/2)/n - 1/2, (j + 1/2)/n - 1/2) one has
n <x, w> = g0 (w1' i + w2' j) + C with C = (w1 + w2)(1 - n)/2, and
(i, j) -> w1' i + w2' j mod n takes every residue exactly n times, for
every n (w' is primitive, so the map onto Z/n is onto).  The sum over k
is g0-periodic in <x, w>: all k count when g0 = 1, and the k prime to
g0 (the primitivity rule) are invariant under k -> k + g0.  Hence the
mean over the n^2 grid equals (1/n) sum_{r < n} F_w((g0 r + C)/n), with
no approximation.  The modular base needs no form object either: for
z = x + iy, Q_z(w) = |w1 z + w2|^2 / y = w1^2 y + (w1 x + w2)^2 / y, so
the w under a bound have closed-form ranges, and all (base point, w)
pairs of a level go through one blocked array kernel.

Supported dimensions for averages: d = 2 (base is a point) and d = 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .latcount import enumerate_points
from .orbits import DecayFit, fit_error_exponent
from .quadform import (
    GeometryError,
    GroupElement,
    QuadForm,
    chi_d,
    constants,
    geodesic_r,
    iwasawa_compose,
    iwasawa_decompose,
    IwasawaCoord,
    rate_lambda,
    rate_mu,
)
from .randlat import Y_MIN

__all__ = [
    "EquidistError",
    "RadialProfile",
    "indicator_profile",
    "bump_profile",
    "HoroAverage",
    "QuadratureSpec",
    "eval_test_function",
    "space_average",
    "fiber_integral",
    "horosphere_average",
    "decay_series",
    "good_t_locator",
    "check_thm12_bound",
    "truncated_average",
    "truncation_decay_check",
    "shortest_primitive_value",
    "cusp_orbit_check",
    "estimate_f_norm",
    "estimate_lipschitz",
    "integrated_error_bound",
    "transported_quadrature_ratio",
    "default_cutoff_height",
    "default_quadrature",
    "modular_base_gram",
]

ENUM_BUDGET = 1e8
_trapz = getattr(np, "trapezoid", None) or np.trapz
CUTOFF_ALPHA = max(1.0, 0.5 * math.sqrt(3.0))
CUTOFF_FLOOR = 8.0
TORUS_BLOCK = 1 << 14  # (pair, residue, k-offset) elements per kernel block


class EquidistError(ValueError):
    """Invalid equidistribution input (dimension, grids, parameters)."""


# ---------------------------------------------------------------------------
# radial profiles

def _support_tol(s: float) -> float:
    # closed-support comparisons tolerate the float noise injected by
    # determinant renormalization of grams (relative 1e-12)
    return 1e-12 * max(1.0, s)


@dataclass(frozen=True)
class RadialProfile:
    """Compactly supported radial profile h(u) on u = |x|^2 >= 0.

    kind "indicator": h = 1 on [0, s].  kind "bump": h = 1 on [0, p],
    C^1 cubic taper on [p, s], 0 beyond.
    """

    kind: str
    support_end: float
    plateau: float = 0.0

    def value(self, u):
        u = np.asarray(u, dtype=float)
        s = self.support_end
        if self.kind == "indicator":
            return np.where(u <= s + _support_tol(s), 1.0, 0.0)
        p, q = self.plateau, s - self.plateau
        w = np.clip((u - p) / q, 0.0, 1.0)
        return 1.0 - w * w * (3.0 - 2.0 * w)

    def value_scalar(self, u: float) -> float:
        return float(self.value(np.float64(u)))

    def integral(self, d: int) -> float:
        """I_h(d) = integral of h(|x|^2) over R^d (closed form / exact
        Gauss-Legendre for the polynomial taper)."""
        omega = constants(d).omega
        s = self.support_end
        if self.kind == "indicator":
            return omega * s ** (d / 2.0)
        p, q = self.plateau, s - self.plateau
        nu = d / 2.0 - 1.0
        if p == 0.0:
            # closed form: int_0^1 w^nu (1 - 3w^2 + 2w^3) dw, scaled
            tail = q ** (nu + 1.0) * (1.0 / (nu + 1.0) - 3.0 / (nu + 3.0) + 2.0 / (nu + 4.0))
        else:
            nodes, weights = np.polynomial.legendre.leggauss(64)
            w = 0.5 * (nodes + 1.0)
            taper = 1.0 - w * w * (3.0 - 2.0 * w)
            integrand = taper * (p + q * w) ** nu
            tail = 0.5 * q * float(np.sum(weights * integrand))
        return omega * p ** (d / 2.0) + 0.5 * d * omega * tail


def indicator_profile(support_end: float) -> RadialProfile:
    if support_end <= 0:
        raise EquidistError("support_end must be positive")
    return RadialProfile(kind="indicator", support_end=support_end)


def bump_profile(support_end: float, plateau: float | None = None) -> RadialProfile:
    if support_end <= 0:
        raise EquidistError("support_end must be positive")
    if plateau is None:
        plateau = 0.5 * support_end
    if not 0.0 <= plateau < support_end:
        raise EquidistError("plateau must satisfy 0 <= p < support_end")
    return RadialProfile(kind="bump", support_end=support_end, plateau=plateau)


# ---------------------------------------------------------------------------
# averages

@dataclass
class HoroAverage:
    t: float
    value: float
    target: float
    err: float
    quad_error_estimate: float


@dataclass
class QuadratureSpec:
    """Grids for the fiber/base quadrature.

    torus_grid is a baseline: the effective per-axis size grows like
    e^{mu t / 2} (the width scale of the fiber strips) and is rounded up
    to an odd prime, which breaks resonances between the midpoint grid and
    the rational strip centers.  The error estimate compares with grids
    REFINEMENT_FACTOR times finer.
    """

    torus_grid: int = 101
    base_grid: tuple = (16, 24)
    base_cutoff_height: float | None = None

    def __post_init__(self):
        if self.torus_grid < 8:
            raise EquidistError("torus grid must be >= 8")
        nx, ny = self.base_grid
        if nx < 8 or ny < 8:
            raise EquidistError("base grids must be >= 8")
        if self.base_cutoff_height is not None and self.base_cutoff_height < 1.0:
            raise EquidistError("base cutoff height must be >= 1")


def default_quadrature(d: int) -> QuadratureSpec:
    return QuadratureSpec() if d == 2 else QuadratureSpec(torus_grid=25)


TORUS_SCALE = {2: 24.0, 3: 8.0}
TORUS_CAP = {2: 100_003, 3: 83}
REFINEMENT_FACTOR = 2  # grid refinement of the quadrature error estimate


def _next_odd_prime(n: int) -> int:
    n = max(n, 3)
    if n % 2 == 0:
        n += 1
    while True:
        for p in range(3, math.isqrt(n) + 1, 2):
            if n % p == 0:
                break
        else:
            return n
        n += 2


def _effective_torus(n0: int, d: int, t: float) -> int:
    scaled = int(math.ceil(TORUS_SCALE[d] * math.exp(0.5 * rate_mu(d) * max(t, 0.0))))
    return _next_odd_prime(min(max(n0, scaled), TORUS_CAP[d]))


def default_cutoff_height(t: float, alpha: float = CUTOFF_ALPHA,
                          floor: float = CUTOFF_FLOOR) -> float:
    """Cusp cutoff height Y(t) = max(floor, e^{alpha t / sqrt(2)}).

    The exponential growth keeps the discarded cusp mass decaying in t;
    the floor keeps small-t averages from living on a sliver of the
    fundamental domain.
    """
    return max(floor, math.exp(alpha * t / math.sqrt(2.0)))


def eval_test_function(q: QuadForm, h: RadialProfile, budget: float = ENUM_BUDGET) -> float:
    """Sum of h(Q(v)) over primitive integer v (exact for integer grams)."""
    bound = h.support_end + 2.0 * _support_tol(h.support_end)
    pts, vals = enumerate_points(q, bound, mode="auto", budget=budget)
    if pts.shape[0] == 0:
        return 0.0
    prim = np.gcd.reduce(np.abs(pts), axis=1) == 1
    if not prim.any():
        return 0.0
    return float(np.sum(h.value(np.asarray(vals, dtype=float)[prim])))


def space_average(h: RadialProfile, d: int) -> float:
    """Mean of the test function over the space of lattices: I_h(d)/zeta(d)."""
    return h.integral(d) / constants(d).zeta


def _check_torus_grid(n: int):
    if n < 8:
        raise EquidistError("torus grid must be >= 8")


def _torus_points(n: int, k: int) -> np.ndarray:
    _check_torus_grid(n)
    xs = (np.arange(n) + 0.5) / n - 0.5
    if k == 1:
        return xs[:, None]
    grids = np.meshgrid(*([xs] * k), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def _half_lattice(pts: np.ndarray, vals: np.ndarray):
    """One representative of each +-w pair, origin dropped."""
    nz = np.any(pts != 0, axis=1)
    pts, vals = pts[nz], vals[nz]
    lead = np.zeros(len(pts), dtype=bool)
    undecided = np.ones(len(pts), dtype=bool)
    for j in range(pts.shape[1]):
        col = pts[:, j]
        lead |= undecided & (col > 0)
        undecided &= col == 0
    return pts[lead], vals[lead]


def _fiber_values(d: int, t: float, base_form: QuadForm | None,
                  h: RadialProfile, xpts: np.ndarray) -> np.ndarray:
    """Test-function values at the torus family over one base point.

    xpts: (m, d-1) torus samples; returns (m,) values.
    """
    lam, mu = rate_lambda(d), rate_mu(d)
    s_eff = h.support_end + _support_tol(h.support_end)
    el, em = math.exp(-lam * t), math.exp(mu * t)
    m = xpts.shape[0]
    out = np.zeros(m)
    if em <= s_eff:
        out += 2.0 * h.value_scalar(em)
    wbound = s_eff / el
    if d == 2:
        wmax = math.floor(math.sqrt(wbound))
        if wmax < 1:
            return out
        ws = np.arange(1, wmax + 1, dtype=np.int64)[:, None]
        qbs = (ws[:, 0].astype(float)) ** 2
    else:
        if base_form is None:
            raise EquidistError("base form required for d >= 3")
        pts, vals = enumerate_points(base_form, wbound, mode="float", budget=ENUM_BUDGET)
        ws, qbs = _half_lattice(pts, np.asarray(vals, dtype=float))
        if ws.shape[0] == 0:
            return out
    for w, qb in zip(ws, qbs):
        base_val = el * float(qb)
        margin = s_eff - base_val
        if margin < 0.0:
            continue
        beta = math.sqrt(margin / em)
        dots = xpts @ w.astype(float)
        k0 = np.rint(-dots)
        g0 = int(np.gcd.reduce(np.abs(w)))
        koff = int(math.floor(beta + 0.5 + 1e-12))
        for off in range(-koff, koff + 1):
            k = k0 + off
            arg = base_val + em * (dots + k) ** 2
            mask = arg <= s_eff
            if g0 != 1:
                mask &= np.gcd(g0, np.abs(k.astype(np.int64))) == 1
            if mask.any():
                out[mask] += 2.0 * h.value(arg[mask])
    return out


def _w_bound_d3(t: float, h: RadialProfile) -> float:
    """Largest base value Q_b(w) whose fiber strips meet the support at level t."""
    return (h.support_end + _support_tol(h.support_end)) / math.exp(-rate_lambda(3) * t)


def _torus_means_d3(t: float, h: RadialProfile, n: int, owner: np.ndarray,
                    ws: np.ndarray, qbs: np.ndarray, n_bases: int) -> np.ndarray:
    """Means of the d = 3 fiber values over the n x n midpoint torus grid,
    one per base point.

    Each (base point, w) pair is given by its base index in owner, its
    half-lattice w (rows of ws) and Q_b(w) in qbs.  The mean over the grid
    is the exact n-point residue sum of the module docstring, evaluated
    for residues x k-offsets in blocks of TORUS_BLOCK elements.
    """
    _check_torus_grid(n)
    s_eff = h.support_end + _support_tol(h.support_end)
    el, em = math.exp(-rate_lambda(3) * t), math.exp(rate_mu(3) * t)
    base_val = el * np.asarray(qbs, dtype=float)
    keep = base_val <= s_eff
    owner, ws, base_val = owner[keep], ws[keep], base_val[keep]
    sums = np.zeros(len(base_val))
    if len(base_val):
        beta = np.sqrt((s_eff - base_val) / em)
        koff = math.floor(float(beta.max()) + 0.5 + 1e-12)
        offs = np.arange(-koff, koff + 1, dtype=float)
        g0 = np.gcd(ws[:, 0], ws[:, 1])
        shift = (ws[:, 0] + ws[:, 1]) * (1 - n) / 2.0
        residues = np.arange(n, dtype=float)
        step = max(1, TORUS_BLOCK // (n * offs.size))
        for lo in range(0, len(base_val), step):
            blk = slice(lo, lo + step)
            dots = (g0[blk, None] * residues + shift[blk, None]) / n
            k = np.rint(-dots)[:, :, None] + offs
            arg = base_val[blk, None, None] + em * (dots[:, :, None] + k) ** 2
            inside = arg <= s_eff
            if np.any(g0[blk] > 1):
                inside &= np.gcd(g0[blk, None, None], np.abs(k).astype(np.int64)) == 1
            sums[blk] = np.where(inside, h.value(arg), 0.0).sum(axis=(1, 2))
    const = 2.0 * h.value_scalar(em) if em <= s_eff else 0.0
    return const + (2.0 / n) * np.bincount(owner, weights=sums, minlength=n_bases)


def fiber_integral(t: float, base, h: RadialProfile, grid: int) -> float:
    """Midpoint-rule average of the test function over the torus fiber.

    base: None (d = 2), a GroupElement of the base group, or a base
    QuadForm of dimension d - 1.
    """
    base_form = _as_base_form(base)
    if base_form is not None and base_form.dim == 2:
        pts, vals = enumerate_points(base_form, _w_bound_d3(t, h), mode="float",
                                     budget=ENUM_BUDGET)
        ws, qbs = _half_lattice(pts, np.asarray(vals, dtype=float))
        owner = np.zeros(len(ws), dtype=np.intp)
        return float(_torus_means_d3(t, h, grid, owner, ws, qbs, 1)[0])
    d = 2 if base_form is None else base_form.dim + 1
    xpts = _torus_points(grid, d - 1)
    return float(_fiber_values(d, t, base_form, h, xpts).mean())


def _as_base_form(base) -> QuadForm | None:
    if base is None:
        return None
    if isinstance(base, QuadForm):
        return base
    if isinstance(base, GroupElement):
        return QuadForm.from_gram(base.mat.T @ base.mat)
    raise EquidistError(f"unsupported base point type {type(base)!r}")


def modular_base_gram(x: float, y: float) -> np.ndarray:
    """Gram of the determinant-one binary form attached to z = x + iy:
    Q_z(w) = |w_1 z + w_2|^2 / y."""
    return np.array([[y + x * x / y, x / y], [x / y, 1.0 / y]])


def _modular_grid(nx: int, ny: int, y_max: float):
    """Midpoint grid on the modular fundamental domain in (x, log y)
    coordinates with the hyperbolic weight, cut at height y_max."""
    if y_max <= Y_MIN:
        raise EquidistError("cutoff height below the bottom of the domain")
    u_lo, u_hi = math.log(Y_MIN), math.log(y_max)
    us = u_lo + (np.arange(ny) + 0.5) / ny * (u_hi - u_lo)
    xs = (np.arange(nx) + 0.5) / nx - 0.5
    xg, ug = np.meshgrid(xs, us, indexing="ij")
    yg = np.exp(ug)
    mask = xg ** 2 + yg ** 2 >= 1.0
    wts = np.exp(-ug) * ((u_hi - u_lo) / ny) * (1.0 / nx)
    return xg[mask], yg[mask], wts[mask]


def _ragged(lo: np.ndarray, hi: np.ndarray):
    """The integers of the intervals [lo_i, hi_i] (empty when hi_i < lo_i),
    as (interval index, value) arrays."""
    counts = np.maximum(hi - lo + 1, 0)
    owner = np.repeat(np.arange(len(lo)), counts)
    start = np.cumsum(counts) - counts
    return owner, lo[owner] + (np.arange(int(counts.sum())) - start[owner])


def _modular_pairs(xs: np.ndarray, ys: np.ndarray, bound: float):
    """Every (base point, half-lattice w) with Q_z(w) <= bound, from the
    closed form Q_z(w) = w1^2 y + (w1 x + w2)^2 / y.

    Half lattice: w1 > 0, or w1 = 0 and w2 > 0.  Returns the base index,
    w (m, 2) int64 and Q_z(w) per pair; pairs within rounding of the bound
    may be included and are cut by the kernel's support test.
    """
    owner, w1 = _ragged(np.zeros(len(ys), dtype=np.int64),
                        np.floor(np.sqrt(bound / ys)).astype(np.int64))
    x, y = xs[owner], ys[owner]
    half = np.sqrt(np.maximum(bound - w1 * w1 * y, 0.0) * y)
    lo = np.ceil(-w1 * x - half).astype(np.int64)
    lo = np.where(w1 == 0, np.maximum(lo, 1), lo)
    pair, w2 = _ragged(lo, np.floor(-w1 * x + half).astype(np.int64))
    owner, w1, x, y = owner[pair], w1[pair], x[pair], y[pair]
    qbs = w1 * w1 * y + (w1 * x + w2) ** 2 / y
    return owner, np.stack([w1, w2], axis=1), qbs


def _average_once(d: int, t: float, h: RadialProfile, torus_n: int,
                  base_dims, y_max: float | None) -> float:
    if d == 2:
        xpts = _torus_points(torus_n, 1)
        return float(_fiber_values(2, t, None, h, xpts).mean())
    if d != 3:
        raise EquidistError("averages are implemented for d in {2, 3}")
    y_top = default_cutoff_height(t) if y_max is None else y_max
    xs, ys, wts = _modular_grid(base_dims[0], base_dims[1], y_top)
    owner, ws, qbs = _modular_pairs(xs, ys, _w_bound_d3(t, h))
    means = _torus_means_d3(t, h, torus_n, owner, ws, qbs, len(xs))
    return float(wts @ means) / float(wts.sum())


def _value_with_estimate(d, t, h, q: QuadratureSpec):
    n = _effective_torus(q.torus_grid, d, t)
    coarse = _average_once(d, t, h, n, q.base_grid, q.base_cutoff_height)
    rf = REFINEMENT_FACTOR
    fine = _average_once(d, t, h, _next_odd_prime(n * rf),
                         (q.base_grid[0] * rf, q.base_grid[1] * rf),
                         q.base_cutoff_height)
    est = 1.5 * abs(fine - coarse) + 1e-9 * (1.0 + abs(fine))
    if not math.isfinite(fine):
        raise EquidistError("quadrature did not produce a finite value")
    return fine, est


def horosphere_average(t: float, h: RadialProfile,
                       q: QuadratureSpec | None = None, d: int = 2) -> HoroAverage:
    """Level-t horospherical average of the test function, with target and
    refinement-based quadrature error estimate."""
    if d not in (2, 3):
        raise EquidistError("averages are implemented for d in {2, 3}")
    q = q or default_quadrature(d)
    value, est = _value_with_estimate(d, t, h, q)
    target = space_average(h, d)
    return HoroAverage(t=t, value=value, target=target, err=value - target,
                       quad_error_estimate=est)


def decay_series(h: RadialProfile, t_grid, q: QuadratureSpec | None = None,
                 d: int = 2, envelope: bool = True):
    """Averages over a t-grid plus an envelope fit of log|err| against t.

    Returns (list of HoroAverage, DecayFit, reference slopes dict).
    """
    q = q or default_quadrature(d)
    averages = [horosphere_average(t, h, q, d) for t in t_grid]
    series = [(a.t, a.err) for a in averages]
    fit = fit_error_exponent(series, envelope=envelope)
    cst = constants(d)
    refs = {
        "theory_slope_pointwise": -cst.exponent_pointwise,
        "theory_slope_interval": -cst.exponent_interval,
        "edwards_slope": -cst.exponent_edwards,
        "rh_slope": -cst.exponent_rh if cst.exponent_rh is not None else None,
    }
    return averages, fit, refs


# ---------------------------------------------------------------------------
# decay locator and bound checks

def good_t_locator(t_samples, g_samples, alpha: float, beta: float,
                   eps: float, kappa: float, ctilde: float):
    """Sampled t with |g(t)| <= kappa e^{-(alpha-beta) t + eps t}.

    Preconditions: 0 < beta < alpha, positive eps/kappa/ctilde, and the
    sampling step at most phi(S)/4 where phi(t) = (4 ctilde / kappa)
    e^{-eps t} and S is the right end of the sample window.
    """
    ts = np.asarray(t_samples, dtype=float)
    gs = np.asarray(g_samples, dtype=float)
    if ts.ndim != 1 or ts.shape != gs.shape or len(ts) < 2:
        raise EquidistError("need matching 1-d sample arrays with >= 2 points")
    if not 0.0 < beta < alpha:
        raise EquidistError("need 0 < beta < alpha")
    if min(eps, kappa, ctilde) <= 0.0:
        raise EquidistError("eps, kappa, ctilde must be positive")
    steps = np.diff(ts)
    if np.any(steps <= 0):
        raise EquidistError("sample times must be strictly increasing")
    phi_end = (4.0 * ctilde / kappa) * math.exp(-eps * float(ts[-1]))
    if float(np.max(steps)) > phi_end / 4.0 + 1e-12:
        raise EquidistError("sampling step exceeds phi(S)/4; refine the grid")
    threshold = kappa * np.exp((-(alpha - beta) + eps) * ts)
    return [float(t) for t in ts[np.abs(gs) <= threshold]]


def locator_threshold_t0(alpha: float, beta: float, eps: float,
                         kappa: float, ctilde: float) -> float:
    """Smallest window start covered by the gap guarantee."""
    return math.log(2.0 * ctilde * (beta + eps) / kappa) / eps


def check_thm12_bound(series, f_norm: float, grad_bound: float, d: int) -> dict:
    """Pointwise decay check for t above the dimensional threshold.

    For every sample with t >= T_d the inequality
    |err| <= (C_d f_norm + 4 grad_bound) e^{-sqrt((d-1)d) t / 8}
    must hold.
    """
    if f_norm is None or grad_bound is None:
        raise EquidistError("norm estimates are required")
    cst = constants(d)
    amp = cst.c_d * f_norm + 4.0 * grad_bound
    rate = cst.exponent_pointwise
    checked, violations = 0, []
    worst = 0.0
    for a in series:
        if a.t < cst.t_d:
            continue
        checked += 1
        bound = amp * math.exp(-rate * a.t)
        ratio = abs(a.err) / bound
        worst = max(worst, ratio)
        if abs(a.err) > bound:
            violations.append({"t": a.t, "err": a.err, "bound": bound})
    return {
        "threshold_t": cst.t_d,
        "amplitude": amp,
        "checked": checked,
        "worst_ratio": worst,
        "violations": violations,
        "passed": checked > 0 and not violations,
    }


# ---------------------------------------------------------------------------
# truncation (d = 3)

def truncated_average(t: float, alpha: float, h: RadialProfile,
                      q: QuadratureSpec | None = None):
    """Average over the cusp-truncated base (height e^{alpha t / sqrt 2})
    against a far-cutoff surrogate of the full average.

    Returns (truncated HoroAverage, full HoroAverage, difference).  The
    surrogate cutoff sits a fixed factor above the truncation height
    (smaller factor once the height is already large, where the base
    enumeration cost grows like sqrt(y)).
    """
    if alpha < 0.5 * math.sqrt(3.0) - 1e-12:
        raise EquidistError("alpha must be >= sqrt(3)/2 for the truncated average")
    q = q or default_quadrature(3)
    y_alpha = max(1.0 + 1e-9, math.exp(alpha * t / math.sqrt(2.0)))
    q_trunc = QuadratureSpec(q.torus_grid, q.base_grid, y_alpha)
    factor = 32.0 if y_alpha <= 1e4 else 4.0
    y_full = max(default_cutoff_height(t), factor * y_alpha)
    q_full = QuadratureSpec(q.torus_grid, q.base_grid, y_full)
    truncated = horosphere_average(t, h, q_trunc, d=3)
    full = horosphere_average(t, h, q_full, d=3)
    return truncated, full, truncated.value - full.value


def truncation_decay_check(t_grid, alpha: float, h: RadialProfile,
                           q: QuadratureSpec | None = None, slack: float = 0.2) -> dict:
    """Fit the decay of the truncation difference against theta * alpha,
    theta = sqrt((d-2)(d-1))/2, d = 3.

    The theta*alpha rate is proved for compactly supported functions.
    Siegel transforms of compact radial profiles are not compactly
    supported (they grow like sqrt(y) up the base cusp), which slows the
    attainable rate to about 1/(2 sqrt 6) + alpha/(2 sqrt 2); the slack
    absorbs the difference for admissible alpha near sqrt(3)/2.
    """
    theta = 0.5 * math.sqrt(2.0)
    diffs = []
    for t in t_grid:
        _, _, diff = truncated_average(t, alpha, h, q)
        diffs.append((t, diff))
    usable = [(t, x) for t, x in diffs if x != 0.0]
    fit = fit_error_exponent(usable, envelope=False) if len(usable) >= 4 else None
    rate = theta * alpha
    ok = fit is not None and fit.slope <= -rate + slack
    c_fit = math.exp(fit.intercept) if fit is not None else None
    return {"diffs": diffs, "fit": fit, "theory_rate": rate, "c_fit": c_fit, "passed": ok}


def shortest_primitive_value(q: QuadForm) -> float:
    """min Q(v) over primitive integer v, by enumeration with an initial
    radius from the gram diagonal (e_i is primitive, so never empty)."""
    bound = float(np.min(np.diagonal(q.gram)))
    for _ in range(64):
        pts, vals = enumerate_points(q, bound, mode="auto")
        if pts.shape[0]:
            prim = np.gcd.reduce(np.abs(pts), axis=1) == 1
            if prim.any():
                return float(np.min(np.asarray(vals, dtype=float)[prim]))
        bound *= 2.0
    raise EquidistError("no primitive vector found; form is degenerate")


def cusp_orbit_check(base, t: float, a: float, grid: int = 17) -> bool:
    """Whether the whole expanded torus orbit over the base point projects
    into the depth-a horoball, i.e. every sampled form has a primitive
    vector of value at most e^{a sqrt((d-1)/d)} (d = 3)."""
    base_form = _as_base_form(base)
    if base_form is None or base_form.dim != 2:
        raise EquidistError("cusp orbit check needs a 2-dimensional base point")
    d = 3
    lam, mu = rate_lambda(d), rate_mu(d)
    el, em = math.exp(-lam * t), math.exp(mu * t)
    threshold = math.exp(a * math.sqrt((d - 1) / d))
    hgram = base_form.gram
    for xvec in _torus_points(grid, 2):
        x = xvec.reshape(2, 1)
        g = np.zeros((3, 3))
        g[:2, :2] = el * hgram + em * (x @ x.T)
        g[:2, 2:] = em * x
        g[2:, :2] = em * x.T
        g[2, 2] = em
        form = QuadForm.from_gram(g)
        if shortest_primitive_value(form) > threshold:
            return False
    return True


# ---------------------------------------------------------------------------
# norm estimation and integrated bound

def estimate_f_norm(h: RadialProfile, d: int = 2, n: int = 4000, seed: int = 7):
    """Monte Carlo estimate of sqrt of the space average of f^2 using the
    exact d = 2 sampler.  Returns (norm, standard error of the squared mean)."""
    if d != 2:
        raise EquidistError("norm estimation uses the exact sampler (d = 2)")
    from .randlat import sample_exact_d2

    rng = np.random.default_rng(seed)
    samples = sample_exact_d2(rng, n)
    sq = np.empty(n)
    for i, smp in enumerate(samples):
        g = smp.basis.mat
        form = QuadForm.from_gram(g.T @ g)
        sq[i] = eval_test_function(form, h) ** 2
    mean = float(np.mean(sq))
    se = float(np.std(sq, ddof=1) / math.sqrt(n))
    return math.sqrt(mean), se


def estimate_lipschitz(h: RadialProfile, d: int, t_probes,
                       q: QuadratureSpec | None = None,
                       delta: float = 1e-3, inflate: float = 10.0) -> float:
    """Empirical Lipschitz bound of t -> F(t): max finite difference over
    the probe set, inflated by the documented safety factor."""
    q = q or default_quadrature(d)
    worst = 0.0
    for t in t_probes:
        n = _effective_torus(q.torus_grid, d, t)
        f0 = _average_once(d, t, h, n, q.base_grid, q.base_cutoff_height)
        f1 = _average_once(d, t + delta, h, n, q.base_grid, q.base_cutoff_height)
        worst = max(worst, abs(f1 - f0) / delta)
    return inflate * worst


def integrated_error_bound(h: RadialProfile, d: int, big_t_values,
                           q: QuadratureSpec | None = None,
                           f_norm: float | None = None, f_norm_se: float = 0.0,
                           t_lo: float | None = None, step: float = 0.1) -> list[dict]:
    """Trapezoid evaluation of |int_{-inf}^T e^{t sqrt((d-1)d)/2} err(t) dt|
    against C_d * ||f|| * e^{T sqrt((d-1)d)/4} plus a quadrature budget.

    The budget collects: per-point quadrature estimates, the trapezoid
    refinement difference, the truncated lower tail, and the Monte Carlo
    uncertainty of ||f||.
    """
    if d != 2:
        raise EquidistError("the integrated bound driver is implemented for d = 2")
    q = q or default_quadrature(2)
    cst = constants(d)
    alpha = 0.5 * math.sqrt((d - 1) * d)
    beta = 0.5 * alpha
    if f_norm is None:
        f_norm, f_norm_se = estimate_f_norm(h, d)
    target = space_average(h, d)
    top = max(big_t_values)
    if t_lo is None:
        # below t_lo the integrand is bounded by (2 + target) e^{alpha t}
        t_lo = math.log(1e-6 / (2.0 + target)) / alpha
    ts = np.arange(t_lo, top + step / 2.0, step)
    errs = np.empty(len(ts))
    ests = np.empty(len(ts))
    for i, t in enumerate(ts):
        value, est = _value_with_estimate(d, float(t), h, q)
        errs[i] = value - target
        ests[i] = est
    weight = np.exp(alpha * ts)
    tail_budget = (2.0 + target) * math.exp(alpha * t_lo) / alpha
    out = []
    for big_t in big_t_values:
        sel = ts <= big_t + 1e-12
        lhs_fine = float(_trapz(weight[sel] * errs[sel], ts[sel]))
        lhs_coarse = float(_trapz(weight[sel][::2] * errs[sel][::2], ts[sel][::2]))
        trap_budget = abs(lhs_fine - lhs_coarse)
        quad_budget = float(_trapz(weight[sel] * ests[sel], ts[sel]))
        rhs = cst.c_d * f_norm * math.exp(beta * big_t)
        budget = quad_budget + trap_budget + tail_budget + cst.c_d * 2.0 * f_norm_se * math.exp(beta * big_t)
        out.append({
            "T": float(big_t),
            "lhs": abs(lhs_fine),
            "rhs": rhs,
            "budget": budget,
            "passed": abs(lhs_fine) <= rhs + budget,
        })
    return out


# ---------------------------------------------------------------------------
# unnormalized volume-scaling cross-check

def transported_quadrature_ratio(d: int, t: float, grid: int = 9) -> float:
    """Ratio of the unnormalized level-t quadrature of a transported smooth
    integrand to its level-0 value.

    The density at each node is the diagonal character chi_d of the
    A-part recovered by an Iwasawa decomposition of the shifted solvable
    representative, so the expected ratio e^{t sqrt((d-1)d)/2} is
    reproduced through the compose/decompose/shift code path rather than
    by the closed form.
    """
    if d < 2:
        raise GeometryError("dimension must be >= 2")

    def integrand(form: QuadForm) -> float:
        diff = form.gram - np.eye(d)
        return math.exp(-float(np.sum(diff * diff)))

    n_dim = d * (d - 1) // 2
    a_dim = d - 2  # free coordinates of the traceless diagonal block
    axes = [np.linspace(-0.25, 0.25, grid)] * a_dim + [np.linspace(0.05, 0.3, grid)] * n_dim
    mesh = np.meshgrid(*axes, indexing="ij") if axes else []
    coords = np.stack([m.ravel() for m in mesh], axis=1) if axes else np.zeros((1, 0))

    def one_level(level: float) -> float:
        # integrate the FIXED coordinate integrand (the value at the level-0
        # point) against the level-dependent density; the density at each
        # node is recovered by decomposing the shifted representative.
        shift = geodesic_r(d, -level).mat
        total = 0.0
        for row in coords:
            afree = row[:a_dim]
            aprime = np.concatenate([afree, [-float(np.sum(afree))]])
            nmat = np.zeros((d, d))
            nmat[np.tril_indices(d, -1)] = row[a_dim:]
            base = iwasawa_compose(IwasawaCoord(t=0.0, aprime=aprime, n=nmat))
            moved = shift @ base.mat
            coord = iwasawa_decompose(GroupElement(d, moved))
            diag = np.empty(d)
            diag[:-1] = np.exp(coord.aprime - 0.5 * rate_lambda(d) * coord.t)
            diag[-1] = math.exp(0.5 * rate_mu(d) * coord.t)
            dens = chi_d(GroupElement(d, np.diag(diag / diag.prod() ** (1.0 / d))))
            base_form = QuadForm.from_gram(base.mat.T @ base.mat)
            total += integrand(base_form) * dens
        return total

    return one_level(t) / one_level(0.0)
