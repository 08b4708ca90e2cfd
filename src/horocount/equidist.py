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

averaged exactly over x in the torus [-1/2, 1/2)^{d-1} and, for d = 3,
by a hyperbolic-measure quadrature over the modular fundamental domain
(grid in (x, log y), density 1/y^2, cusp cut at height Y).

The torus mean is a closed-form sum over w, by unfolding.  The w = 0 row
has k = +-1 only and gives 2 h(e^{mu t}).  For w != 0 write w = g0 w'
with gcd(w') = 1: x -> <x, w'> mod 1 pushes Haar measure on the torus to
Haar measure on the circle, and the k prime to g0 fill phi(g0) residue
classes mod g0, so the k-sum averages to a line integral.  The fiber mean
is therefore exactly

    2 h(e^{mu t}) + e^{-mu t/2} sum_{w != 0} (phi(g0)/g0) L(e^{-lambda t} Q_b(w)),

with L(a) the integral of h(a + v^2) over the real line (RadialProfile.
line).  For d = 2 the base is a point and Q_b(w) = w^2 (the horocycle).
The modular base (d = 3) needs no form object: for z = x + iy,
Q_z(w) = |w1 z + w2|^2 / y = w1^2 y + (w1 x + w2)^2 / y, so the w under
a bound have closed-form ranges.  One driver, _level_means, takes a list
of levels (t, base grid), refuses a level whose w-bound is not finite or
whose bounded (base point, w) pairs exceed latcount.ENUM_BUDGET before
any pair is built, and sends the base points of all its levels through
one kernel, _fiber_means, in passes of at most PASS_PAIRS bounded pairs,
all reading one phi table.

Supported dimensions for averages: d = 2 (base is a point) and d = 3.
The norm estimate (estimate_f_norm, over the exact d = 2 sampler), the
Lipschitz estimate (estimate_lipschitz, one pass over its probes) and
the integrated bound (integrated_error_bound) are d = 2 drivers, where
each average is one exact sum, and take no dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .latcount import (BLOCK, ENUM_BUDGET, POINT_CAP, EnumerationBudgetError, enumerate_points, ragged,
                       runs, sieve)
from .orbits import fit_error_exponent
from .quadform import HorocountError, QuadForm, constants, rate_lambda, rate_mu
from .randlat import Y_MIN, sample_exact_d2

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
    "horosphere_averages",
    "decay_series",
    "reference_slopes",
    "good_t_locator",
    "check_thm12_bound",
    "estimate_f_norm",
    "estimate_lipschitz",
    "integrated_error_bound",
    "modular_base_gram",
]

_trapz = getattr(np, "trapezoid", None) or np.trapz
CUTOFF_FLOOR = 8.0
LIPSCHITZ_STEP, LIPSCHITZ_INFLATE = 1e-3, 10.0  # estimate_lipschitz's difference step and safety factor
INTEGRATED_STEP = 0.1  # integrated_error_bound's trapezoid step in t
MAX_LEVELS = 10_000  # levels of one t-grid: a level costs at least its record and its CSV
# row, about 1 KB, so a grid's own memory stays near 10 MB
_GAUSS64 = np.polynomial.legendre.leggauss(64)
PASS_PAIRS = 4 * BLOCK  # bounded (base point, w) pairs per pass of any level: its float64
# temporaries take 128 KiB each, and it peaks at about 128 bytes of scratch per pair, 2 MiB


class EquidistError(HorocountError):
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
    C^1 cubic taper on [p, s], 0 beyond.  Any other kind is refused.
    """

    kind: str
    support_end: float
    plateau: float = 0.0

    def __post_init__(self):
        if self.kind not in ("indicator", "bump"):
            raise EquidistError(f"profile kind must be 'indicator' or 'bump', got {self.kind!r}")
        if not 0.0 < self.support_end < math.inf:
            raise EquidistError(f"support_end must be positive and finite, got {self.support_end}")
        if not 0.0 <= self.plateau < self.support_end:
            raise EquidistError("plateau must satisfy 0 <= p < support_end")

    def value(self, u):
        u = np.asarray(u, dtype=float)
        s = self.support_end
        if self.kind == "indicator":
            return np.where(u <= s + _support_tol(s), 1.0, 0.0)
        p, q = self.plateau, s - self.plateau
        w = np.clip((u - p) / q, 0.0, 1.0)
        return 1.0 - w * w * (3.0 - 2.0 * w)

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
            nodes, weights = _GAUSS64
            w = 0.5 * (nodes + 1.0)
            taper = 1.0 - w * w * (3.0 - 2.0 * w)
            integrand = taper * (p + q * w) ** nu
            tail = 0.5 * q * float(np.sum(weights * integrand))
        return omega * p ** (d / 2.0) + 0.5 * d * omega * tail

    def line(self, a):
        """L(a) = integral of h(a + v^2) over v in R, per entry of a.

        The indicator gives the chord 2 sqrt(s - a)_+.  The bump gives its plateau
        chord plus its taper in closed form.  With top = sqrt(s - a)_+, flat =
        sqrt(p - a)_+, q = s - p and D = top - flat, h = z^2 (3 - 2z) for z = (top^2 - v^2)/q
        on flat < v < top, where (put u = top - v) int z^2 dv = D^3 (4 top^2/3 - top D +
        D^2/5)/q^2 and int z^3 dv = D^4 (2 top^3 - 12 top^2 D/5 + top D^2 - D^3/7)/q^3, so
        L = 2 (flat + 3 int z^2 - 2 int z^3).
        """
        a = np.asarray(a, dtype=float)
        top = np.sqrt(np.maximum(self.support_end - a, 0.0))
        if self.kind == "indicator":
            return 2.0 * top
        s, p, q = self.support_end, self.plateau, self.support_end - self.plateau
        flat = np.sqrt(np.maximum(p - a, 0.0))
        # D = (top^2 - flat^2)/(top + flat); top + flat = 0 only where D = 0, else it is above 1e-162
        dd = np.maximum(s - np.maximum(a, p), 0.0) / np.maximum(top + flat, np.finfo(float).tiny)
        d2 = dd * dd
        taper = 3.0 * (top * ((4.0 / 3.0) * top - dd) + 0.2 * d2)  # 3 q^2/D^3 int z^2
        taper -= (2.0 / q) * dd * (top * (top * (2.0 * top - 2.4 * dd) + d2) - d2 * dd / 7.0)
        taper *= d2 * dd / (q * q)
        return 2.0 * (flat + taper)


def indicator_profile(support_end: float) -> RadialProfile:
    return RadialProfile(kind="indicator", support_end=support_end)


def bump_profile(support_end: float, plateau: float | None = None) -> RadialProfile:
    return RadialProfile(kind="bump", support_end=support_end,
                         plateau=0.5 * support_end if plateau is None else plateau)


# ---------------------------------------------------------------------------
# averages

@dataclass
class HoroAverage:
    t: float
    value: float
    target: float
    err: float
    quad_error_estimate: float


REFINEMENT_FACTOR = 2  # base-grid refinement of the quadrature error estimate


@dataclass
class QuadratureSpec:
    """Grid of the d = 3 base quadrature (the torus fiber is averaged
    exactly; the cusp cut follows from t).  The error estimate compares
    with a base grid REFINEMENT_FACTOR times finer.  Grids whose two sizes
    hold over POINT_CAP base points (about 100 bytes each) are refused.
    """

    torus_grid: int = 101  # unread (the fiber mean is exact); kept so existing callers still work
    base_grid: tuple = (16, 24)

    def __post_init__(self):
        nx, ny = self.base_grid
        if nx < 8 or ny < 8:
            raise EquidistError("base grids must be >= 8")
        if (REFINEMENT_FACTOR ** 2 + 1) * nx * ny > POINT_CAP:
            raise EnumerationBudgetError(f"base grid {nx},{ny} and its refinement exceed "
                                         f"{POINT_CAP:.0e} base points")


def _cutoff_height(t: float) -> float:
    """Cusp cutoff height Y(t) = max(CUTOFF_FLOOR, e^{t / sqrt(2)}).

    The exponential growth keeps the discarded cusp mass decaying in t;
    the floor keeps small-t averages from living on a sliver of the
    fundamental domain.
    """
    return max(CUTOFF_FLOOR, math.exp(t / math.sqrt(2.0)))


def eval_test_function(q: QuadForm, h: RadialProfile) -> float:
    """Sum of h(Q(v)) over primitive integer v (exact for integer grams)."""
    bound = h.support_end + 2.0 * _support_tol(h.support_end)
    pts, vals = enumerate_points(q, bound)
    prim = np.gcd.reduce(np.abs(pts), axis=1) == 1
    return float(np.sum(h.value(np.asarray(vals, dtype=float)[prim])))


def space_average(h: RadialProfile, d: int) -> float:
    """Mean of the test function over the space of lattices: I_h(d)/zeta(d)."""
    return h.integral(d) / constants(d).zeta


def _w_bound(d: int, t: float, h: RadialProfile, grid=None):
    """(bound, cut) of level t: the largest base value Q_b(w) whose line
    integral can be nonzero, and with a d = 3 grid the cusp cut
    _cutoff_height(t) (else None).  A t whose bound is not finite is
    refused."""
    try:  # at d = 3 the cusp cut overflows first, from t = 1004
        bound = (h.support_end + _support_tol(h.support_end)) * math.exp(rate_lambda(d) * t)
        cut = grid and _cutoff_height(t)
    except OverflowError:
        bound = math.inf
    if not math.isfinite(bound):
        raise EquidistError(f"t = {t!r} is out of range of the d = {d} average")
    return bound, cut


def _phi_table(top: int) -> np.ndarray:
    """phi(g)/g = sum over m | g of mu(m)/m, for g = 1..top (entry 0 unused).
    Each entry adds its terms in increasing m, so it does not depend on top:
    the m = 1 term starts every entry at 1.0 (0.0 + 1.0), then one unbuffered
    add per run of squarefree m >= 2 with at most PASS_PAIRS multiples."""
    top = max(top, 1)
    mu = sieve(top)
    ratio, ms = np.ones(top + 1), np.flatnonzero(mu)[1:]
    ratio[0] = 0.0
    for run in runs(top // ms, PASS_PAIRS):
        m, k = ms[run], top // ms[run]
        j = np.arange(1, int(k.sum()) + 1) - np.repeat(np.cumsum(k) - k, k)  # 1..k per m
        np.add.at(ratio, np.repeat(m, k) * j, np.repeat(mu[m] / m, k))
    return ratio


def _fiber_means(d: int, ts, level: np.ndarray, h: RadialProfile, owner: np.ndarray,
                 g0: np.ndarray, qbs: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Exact torus-fiber means of the test function, one per owner.

    Owner o lies at level ts[level[o]]; each pair is given by its owner, the
    gcd g0 of its half-lattice w and Q_b(w) in qbs, and phi is a _phi_table
    reaching every g0.  A level that owns no pair gets exactly 2 h(e^{mu t}),
    without its e^{-lambda t} and e^{-mu t/2}, which overflow at large -t.
    """
    lam, mu = rate_lambda(d), rate_mu(d)
    at = level[owner]
    live = (np.bincount(at, minlength=len(ts)) > 0).tolist()
    scale, decay = (np.array([math.exp(c * t) if b else 0.0 for t, b in zip(ts, live)])
                    for c in (-lam, -0.5 * mu))
    top = h.value(np.array([math.exp(mu * t) for t in ts]))
    terms = phi[g0] * h.line(scale[at] * qbs)
    sums = np.bincount(owner, weights=terms, minlength=len(level))
    return 2.0 * top[level] + 2.0 * decay[level] * sums


def fiber_integral(t: float, base: QuadForm, h: RadialProfile) -> float:
    """Exact average of the test function over the torus fiber over a base
    QuadForm of dimension d - 1 (at d = 2: horosphere_average)."""
    if not isinstance(base, QuadForm):
        raise EquidistError(f"unsupported base point type {type(base)!r}")
    d = base.dim + 1
    pts, vals = enumerate_points(base, _w_bound(d, t, h)[0], mode="float")
    # the order is symmetric about the origin: one of each +-w follows it
    ws, qbs = pts[len(pts) // 2 + 1:], vals[len(vals) // 2 + 1:]
    g0 = np.gcd.reduce(np.abs(ws), axis=1)
    phi = _phi_table(int(g0.max()) if g0.size else 1)
    zero = np.zeros(1, dtype=np.intp)
    return float(_fiber_means(d, [t], zero, h, zero.repeat(len(ws)), g0, qbs, phi)[0])


def modular_base_gram(x: float, y: float) -> np.ndarray:
    """Gram of the determinant-one binary form attached to z = x + iy:
    Q_z(w) = |w_1 z + w_2|^2 / y."""
    return np.array([[y + x * x / y, x / y], [x / y, 1.0 / y]])


def _modular_grid(nx: int, ny: int, y_max: float):
    """Midpoint grid on the modular fundamental domain in (x, log y)
    coordinates with the hyperbolic weight, cut at height y_max."""
    u_lo, u_hi = math.log(Y_MIN), math.log(y_max)
    us = u_lo + (np.arange(ny) + 0.5) / ny * (u_hi - u_lo)
    xs = (np.arange(nx) + 0.5) / nx - 0.5
    xg, ug = np.meshgrid(xs, us, indexing="ij")
    yg = np.exp(ug)
    mask = xg ** 2 + yg ** 2 >= 1.0
    wts = np.exp(-ug) * ((u_hi - u_lo) / ny) * (1.0 / nx)
    return xg[mask], yg[mask], wts[mask]


def _pairs(bounds: np.ndarray, xs=None, ys=None):
    """Every (base point, half-lattice w) with Q_b(w) <= bounds[base point]:
    w >= 1 with Q = w^2 on the d = 2 base (no xs, ys), and on modular base
    points z = x + iy the closed form, half lattice w1 > 0 or w1 = 0 < w2.
    Returns the base index, gcd(w) and Q_b(w) per pair; pairs within rounding
    of the bound may be included and are cut by the kernel's support test."""
    if ys is None:
        owner, w = ragged(np.ones(len(bounds), dtype=np.int64), np.floor(np.sqrt(bounds)).astype(np.int64))
        return owner, w, w.astype(float) ** 2
    owner, w1 = ragged(np.zeros(len(ys), dtype=np.int64),
                       np.floor(np.sqrt(bounds / ys)).astype(np.int64))
    x, y, bound = xs[owner], ys[owner], bounds[owner]
    half = np.sqrt(np.maximum(bound - w1 * w1 * y, 0.0) * y)
    lo = np.ceil(-w1 * x - half).astype(np.int64)
    lo = np.where(w1 == 0, np.maximum(lo, 1), lo)
    pair, w2 = ragged(lo, np.floor(-w1 * x + half).astype(np.int64))
    owner, w1, x, y = owner[pair], w1[pair], x[pair], y[pair]
    qbs = w1 * w1 * y + (w1 * x + w2) ** 2 / y
    return owner, np.gcd(w1, w2), qbs


def _level_means(d: int, levels, h: RadialProfile) -> list[float]:
    """Each level's weighted mean of the exact fiber means over its base
    points.  levels: (t, base grid) pairs, the grid None at d = 2 (one base
    point of weight 1) and (nx, ny) at d = 3 (_modular_grid cut at
    _cutoff_height(t)).  A base point with more than PASS_PAIRS pairs is a
    pass alone."""
    ts = [float(t) for t, _ in levels]
    edges = [_w_bound(d, t, h, grid) for t, grid in levels]
    bounds = np.array([bound for bound, _ in edges])
    if d == 2:
        xs = ys = None
        counts, wts = [1] * len(ts), np.ones(len(ts))
        top = sizes = np.floor(np.sqrt(bounds))  # w <= floor(sqrt(bound))
    else:
        grids = [_modular_grid(nx, ny, y_top) for (_, (nx, ny)), (_, y_top) in zip(levels, edges)]
        xs, ys, wts = (np.concatenate(a) for a in zip(*grids))
        counts = [len(y) for _, y, _ in grids]
        bounds = np.repeat(bounds, counts)
        # per base point: w1 <= floor(sqrt(bound / y)), each with at most
        # 2 sqrt(bound y) + 1 w2's; gcd(w1, w2) <= w1, or w2 <= sqrt(bound y) at w1 = 0
        w1_top, root = np.floor(np.sqrt(bounds / ys)), np.sqrt(bounds * ys)
        sizes = (w1_top + 1.0) * (2.0 * root + 1.0)
        top = np.maximum(w1_top, np.floor(root))
    at = np.repeat(np.arange(len(ts)), counts)
    for t, size in zip(ts, np.bincount(at, weights=sizes, minlength=len(ts)).tolist()):
        if size > ENUM_BUDGET:
            raise EnumerationBudgetError(f"t = {t!r} needs {size:.3g} (base point, w) pairs, "
                                         f"above the budget {ENUM_BUDGET:.0e}")
    phi = _phi_table(int(top.max(initial=0)))
    means = np.empty(len(at))
    for run in runs(sizes, PASS_PAIRS):
        first, last = at[run.start], at[run.stop - 1]
        base = () if ys is None else (xs[run], ys[run])
        owner, g0, qbs = _pairs(bounds[run], *base)
        means[run] = _fiber_means(d, ts[first:last + 1], at[run] - first, h, owner, g0, qbs, phi)
    ends = np.cumsum(counts).tolist()
    return [float(wts[a:b] @ means[a:b]) / float(wts[a:b].sum()) for a, b in zip([0] + ends, ends)]


def horosphere_averages(t_grid, h: RadialProfile, q: QuadratureSpec | None = None,
                        d: int = 2) -> list[HoroAverage]:
    """Level-t horospherical averages over a t-grid, with target and
    quadrature error estimate: the average on the refined base grid, with
    1.5 times the refinement difference (d = 3 only; d = 2 is one exact
    sum) plus a rounding floor.  Each t is a level on every base grid, and
    the levels go to _level_means in runs of at most PASS_PAIRS base points
    (a level with more alone): every base point has a bounded pair, so a
    call holds no more base points than one pass holds pairs.  The runs go
    from the largest t down, as a level's pairs grow with t, so a grid with
    a level over budget is refused before any level is computed."""
    q = q or QuadratureSpec()
    if d == 2:
        grids = [None]
    elif d == 3:
        grids = [tuple(n * REFINEMENT_FACTOR for n in q.base_grid), q.base_grid]
    else:
        raise EquidistError("averages are implemented for d in {2, 3}")
    ts = [float(t) for t in t_grid]
    order = sorted(range(len(ts)), key=ts.__getitem__, reverse=True)
    levels = [(ts[i], grid) for i in order for grid in grids]
    values = []
    for run in runs([1 if grid is None else grid[0] * grid[1] for _, grid in levels], PASS_PAIRS):
        values += _level_means(d, levels[run], h)
    target = space_average(h, d)
    out = [None] * len(ts)
    for j, i in enumerate(order):
        value, *coarse = values[j * len(grids):(j + 1) * len(grids)]
        if not math.isfinite(value):
            raise EquidistError("quadrature did not produce a finite value")
        est = 1e-9 * (1.0 + abs(value)) + sum(1.5 * abs(value - c) for c in coarse)
        out[i] = HoroAverage(t=ts[i], value=value, target=target, err=value - target,
                             quad_error_estimate=est)
    return out


def horosphere_average(t: float, h: RadialProfile,
                       q: QuadratureSpec | None = None, d: int = 2) -> HoroAverage:
    """Level-t horospherical average of the test function, with target and
    quadrature error estimate."""
    return horosphere_averages([t], h, q, d)[0]


def reference_slopes(d: int) -> dict:
    """The decay slopes, per unit t, that a fit of log|err| against t is
    read against, each the negated exponent of constants(d):
    theory_slope_pointwise (all t), theory_slope_interval (on shrinking
    intervals), and the reference-only edwards_slope and rh_slope (None
    but at d = 2).  decay_series and the equidist command both return it."""
    cst = constants(d)
    return {
        "theory_slope_pointwise": -cst.exponent_pointwise,
        "theory_slope_interval": -cst.exponent_interval,
        "edwards_slope": -cst.exponent_edwards,
        "rh_slope": -cst.exponent_rh if cst.exponent_rh is not None else None,
    }


def decay_series(h: RadialProfile, t_grid, d: int = 2):
    """Averages over a t-grid plus an envelope fit of log|err| against t.

    Returns (list of HoroAverage, DecayFit, reference_slopes(d)).
    """
    averages = horosphere_averages(t_grid, h, d=d)
    fit = fit_error_exponent([(a.t, a.err) for a in averages], envelope=True)
    return averages, fit, reference_slopes(d)


# ---------------------------------------------------------------------------
# decay locator and bound checks

def good_t_locator(t_samples, g_samples, alpha: float, beta: float,
                   eps: float, kappa: float, ctilde: float):
    """Sampled t with |g(t)| <= kappa e^{-(alpha-beta) t + eps t}.

    Preconditions: finite samples and parameters, 0 < beta < alpha,
    positive eps/kappa/ctilde, finite phi(S) and thresholds, and the
    sampling step at most phi(S)/4 where phi(t) = (4 ctilde / kappa)
    e^{-eps t} and S is the right end of the sample window.
    """
    ts = np.asarray(t_samples, dtype=float)
    gs = np.asarray(g_samples, dtype=float)
    if ts.ndim != 1 or ts.shape != gs.shape or len(ts) < 2:
        raise EquidistError("need matching 1-d sample arrays with >= 2 points")
    if not (np.isfinite(ts).all() and np.isfinite(gs).all()
            and all(math.isfinite(x) for x in (alpha, beta, eps, kappa, ctilde))):
        raise EquidistError("t and g samples and alpha, beta, eps, kappa, ctilde must be finite")
    if not 0.0 < beta < alpha:
        raise EquidistError("need 0 < beta < alpha")
    if min(eps, kappa, ctilde) <= 0.0:
        raise EquidistError("eps, kappa, ctilde must be positive")
    steps = np.diff(ts)
    if np.any(steps <= 0):
        raise EquidistError("sample times must be strictly increasing")
    with np.errstate(over="ignore", invalid="ignore"):
        phi_end = float((4.0 * ctilde / kappa) * np.exp(-eps * ts[-1]))
        threshold = kappa * np.exp((-(alpha - beta) + eps) * ts)
    if not (math.isfinite(phi_end) and np.isfinite(threshold).all()):
        raise EquidistError("phi(S) or a threshold kappa e^{-(alpha-beta) t + eps t} "
                            "is not a finite float")
    if float(np.max(steps)) > phi_end / 4.0 + 1e-12:
        raise EquidistError("sampling step exceeds phi(S)/4; refine the grid")
    return [float(t) for t in ts[np.abs(gs) <= threshold]]


def locator_threshold_t0(alpha: float, beta: float, eps: float,
                         kappa: float, ctilde: float) -> float:
    """Smallest window start covered by the gap guarantee."""
    return math.log(2.0 * ctilde * (beta + eps) / kappa) / eps


def check_thm12_bound(series, f_norm: float, grad_bound: float) -> dict:
    """Pointwise decay check of a d = 2 series for t above the threshold T_2.

    For every sample with t >= T_2 the inequality
    |err| <= (C_2 f_norm + 4 grad_bound) e^{-sqrt(2) t / 8}
    must hold.
    """
    if f_norm is None or grad_bound is None:
        raise EquidistError("norm estimates are required")
    cst = constants(2)
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
# norm estimation and integrated bound

def estimate_f_norm(h: RadialProfile, n: int, seed: int):
    """Monte Carlo estimate of sqrt of the space average of f^2 over n
    samples of the exact d = 2 sampler.  Returns (norm, standard error of
    the squared mean).  An n that is not an integer >= 2, or a negative
    seed, is refused before any sample is drawn."""
    if not (isinstance(n, (int, np.integer)) and n >= 2 and seed >= 0):
        raise EquidistError(f"need an integer n >= 2 and a seed >= 0, got {n!r} and {seed!r}")
    b = np.array([s.basis.mat for s in sample_exact_d2(np.random.default_rng(seed), n)])
    # the stacked product equals each basis's own b.T @ b bit for bit
    forms = QuadForm.from_grams(b.transpose(0, 2, 1) @ b)
    sq = np.array([eval_test_function(form, h) ** 2 for form in forms])
    mean = float(np.mean(sq))
    se = float(np.std(sq, ddof=1) / math.sqrt(n))
    return math.sqrt(mean), se


def estimate_lipschitz(h: RadialProfile, t_probes) -> float:
    """Empirical Lipschitz bound of the d = 2 average t -> F(t): LIPSCHITZ_INFLATE
    times the largest finite difference, step LIPSCHITZ_STEP, over the probes."""
    probes = [float(t) for t in t_probes]
    values = _level_means(2, [(t, None) for t in probes + [t + LIPSCHITZ_STEP for t in probes]], h)
    n = len(probes)
    return LIPSCHITZ_INFLATE * max((abs(f1 - f0) / LIPSCHITZ_STEP
                                    for f0, f1 in zip(values[:n], values[n:])), default=0.0)


def integrated_error_bound(h: RadialProfile, big_t_values, f_norm: float,
                           f_norm_se: float) -> list[dict]:
    """Trapezoid evaluation (step INTEGRATED_STEP) of
    |int_{-inf}^T e^{t sqrt((d-1)d)/2} err(t) dt| against
    C_d * ||f|| * e^{T sqrt((d-1)d)/4} plus a quadrature budget, for d = 2,
    where each value is one exact sum.

    The budget collects: per-point quadrature estimates, the trapezoid
    refinement difference, the truncated lower tail, and the Monte Carlo
    uncertainty f_norm_se of ||f||.  No T, a T that is not finite, or a
    grid from t_lo to the largest T of over MAX_LEVELS levels is refused
    before the grid is made.
    """
    d = 2
    cst = constants(d)
    alpha = 0.5 * math.sqrt((d - 1) * d)
    beta = 0.5 * alpha
    target = space_average(h, d)
    if len(big_t_values) == 0 or not all(math.isfinite(t) for t in big_t_values):
        raise EquidistError(f"need one or more finite T, got {list(big_t_values)}")
    top = max(big_t_values)
    # below t_lo the integrand is bounded by (2 + target) e^{alpha t}
    t_lo = math.log(1e-6 / (2.0 + target)) / alpha
    if (top - t_lo) / INTEGRATED_STEP >= MAX_LEVELS:
        raise EquidistError(f"T = {top!r} needs over {MAX_LEVELS} levels from t = {t_lo:.3g}")
    ts = np.arange(t_lo, top + INTEGRATED_STEP / 2.0, INTEGRATED_STEP)
    averages = horosphere_averages(ts, h, d=d)
    errs = np.array([a.err for a in averages])
    ests = np.array([a.quad_error_estimate for a in averages])
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
