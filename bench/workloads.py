"""The three workloads: their inputs, job lists, warm-ups and checks.

A round is one workload's fixed job list on inputs drawn from
(seed, round index), so no round reuses another round's inputs and no
per-input cache of the program carries over between rounds.  Program
functions are looked up on their modules at call time, so that the traced
run's wrappers see every call.

Each job's check compares the program's output with oracles.py, never
with a stored copy of an earlier output.  A check returns an error string,
or None when the output is right.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import horocount as hc
import oracles

MAX_ROUNDS = 40

# count_full at R = 40 on this gram raises LinAlgError from the Cholesky
# factorisation, although the gram is integral with determinant 1 and
# GL_3(Z)-equivalent to the identity (entries below 2^53).
LARGE_ENTRY_GRAM = [[38957694870466, -810730334757, -4737644889],
                    [-810730334757, 16871729138, 98592908],
                    [-4737644889, 98592908, 576145]]
LARGE_ENTRY_RADIUS = 40.0

D2_VALUE_TOL = 0.01  # exact d = 2 average against the program's quadrature
D2_QUAD_EST_TOL = 0.02
D3_QUAD_EST_TOL = 0.05  # the bound of acceptance criterion 5


@dataclass
class Job:
    name: str
    call: Callable[[], object]
    check: Callable[[object, dict], str | None]


def _rng(seed: int, rnd: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([seed, rnd, tag])


def _alpha(d: int) -> int:
    return 1 if d % 2 else 2


def zeta(d: int) -> float:
    from scipy.special import zeta as scipy_zeta  # imported here to keep it out of the timed set-up
    return float(scipy_zeta(d))


def _rel_close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b), 1e-300)


# ---------------------------------------------------------------------------
# count

def random_form(rng: np.random.Generator, d: int):
    """Well-conditioned form O diag(e^l) O^T, sum(l) = 0, O Haar-orthogonal."""
    lam = 0.3 * rng.standard_normal(d)
    lam -= lam.mean()
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    q *= np.sign(np.diagonal(r))
    return hc.QuadForm.from_gram(q @ np.diag(np.exp(lam)) @ q.T)


def skew_unimodular(rng: np.random.Generator, d: int) -> np.ndarray:
    """An integer matrix of determinant +-1 with entries of a few tens.

    d = 3: superdiagonal (a, b), 20 <= |a|, |b| <= 50 with |ab| near 1000,
    so the inverse, and the program's planned k-range, stay the same size
    from seed to seed.  d = 2: one entry of 150..250.  A random signed
    permutation conjugates the result.
    """
    u = np.eye(d, dtype=np.int64)
    if d == 2:
        u[0, 1] = rng.integers(150, 251) * rng.choice([-1, 1])
    else:
        a = int(rng.integers(20, 51))
        u[0, 1] = a * rng.choice([-1, 1])
        u[1, 2] = round(1000 / a) * rng.choice([-1, 1])
    p = np.eye(d, dtype=np.int64)[rng.permutation(d)] * rng.choice([-1, 1], size=d)[:, None]
    return p @ u @ p.T


def _full(form, radius, mode):
    return lambda: hc.latcount.count_full(hc.EllipsoidSpec(form, radius), mode=mode)


def _errors(form, radius):
    return lambda: hc.latcount.error_terms(hc.EllipsoidSpec(form, radius))


def _check_ball_full(d, radius, exact):
    """n0 of the unit form's ball (or of a GL_d(Z) image of it)."""
    def check(res, _):
        truth = oracles.ball_count(d, radius)
        if exact and (res.n0 != truth or res.boundary_ambiguous != 0):
            return f"n0 {res.n0} (ambiguous {res.boundary_ambiguous}), expected {truth}"
        if not exact and not res.n0 - res.boundary_ambiguous <= truth <= res.n0:
            return f"n0 {res.n0} with {res.boundary_ambiguous} ambiguous misses {truth}"
        return None
    return check


def _check_row_full(form, radius):
    def check(res, _):
        sure, band = oracles.row_count(form.gram, radius)
        if not sure <= res.n0 <= sure + band:
            return f"n0 {res.n0} outside oracle [{sure}, {sure + band}]"
        return None
    return check


def _check_error_terms(d, radius, n1_range, n0_range):
    """n0 and n1 within their oracle ranges; e0, e1 against omega R^d and zeta(d)."""
    def check(res, _):
        n0_lo, n0_hi = n0_range()
        n1_lo, n1_hi = n1_range()
        if not (n0_lo <= res.n0 <= n0_hi and n1_lo <= res.n1 <= n1_hi):
            return f"(n0, n1) = ({res.n0}, {res.n1}), oracle n0 in [{n0_lo}, {n0_hi}], n1 in [{n1_lo}, {n1_hi}]"
        main = oracles.unit_ball_volume(d) * radius ** d
        if not (abs(res.e0 - (res.n0 - main)) <= 1e-9 * main
                and abs(res.e1 - (res.n1 - main / zeta(d))) <= 1e-9 * main):
            return f"e0 {res.e0} / e1 {res.e1} disagree with the main terms"
        return None
    return check


def _ball_range(d, radius):
    return lambda: (oracles.ball_count(d, radius),) * 2


def _ball_prim_range(d, radius):
    return lambda: (oracles.ball_primitive(d, radius),) * 2


def _row_range(form, radius):
    def rng():
        sure, band = oracles.row_count(form.gram, radius)
        return sure, sure + band
    return rng


def _row_prim_range(form, radius):
    def rng():
        sure, band = oracles.row_primitive(form.gram, radius)
        return sure - band, sure + band
    return rng


def _same_as(source_job):
    """GL_d(Z) invariance: the image's output matches its source's."""
    def check(res, outputs):
        src = outputs.get(source_job)
        if src is None:
            return f"source job {source_job} has no output"
        if (res.n0, res.n1) != (src.n0, src.n1):
            return f"(n0, n1) = ({res.n0}, {res.n1}) but source {source_job} has ({src.n0}, {src.n1})"
        return None
    return check


def _both(*checks):
    def check(res, outputs):
        for c in checks:
            err = c(res, outputs)
            if err:
                return err
        return None
    return check


def _check_sweep(d, kind, sigma, n1_range_of):
    def check(rows, _):
        for row in rows:
            radius = math.exp(0.5 * row.T * math.sqrt((d - 1) / d))
            if not _rel_close(row.R, radius, 1e-12):
                return f"T = {row.T}: radius {row.R}, expected {radius}"
            weight = 2 if kind == "horoball" else _alpha(d) * sigma
            if kind == "chimney" and row.sigma_q != sigma:
                return f"T = {row.T}: stabilizer order {row.sigma_q}, expected {sigma}"
            lo, hi = n1_range_of(radius)
            if not lo <= row.count * weight <= hi:
                return f"T = {row.T}: {kind} count {row.count} x {weight} outside N1 [{lo}, {hi}]"
        if [r.T for r in rows] != sorted(r.T for r in rows):
            return "sweep rows are not sorted by T"
        return None
    return check


def _sweep(form, ts, kind):
    return lambda: hc.orbits.sweep(form, ts, kind=kind)


def _check_equal(expected):
    def check(value, _):
        return None if value == expected else f"got {value}, expected {expected}"
    return check


def _large_entry_count():
    form = hc.QuadForm.from_gram(LARGE_ENTRY_GRAM)
    return hc.latcount.count_full(hc.EllipsoidSpec(form, LARGE_ENTRY_RADIUS))


def count_plan(seed: int, rnd: int) -> list[Job]:
    """Big single traversals, Moebius sums and sweeps, skewed images."""
    rng = _rng(seed, rnd, 0)
    ident = {d: hc.QuadForm.identity(d) for d in (2, 3, 4)}
    jobs = []
    # big single traversals: identity in both modes, random forms in float
    for d, lo, hi in ((2, 1800.0, 2200.0), (3, 170.0, 200.0), (4, 28.0, 32.0)):
        radius = float(rng.uniform(lo, hi))
        for mode in ("exact", "float"):
            jobs.append(Job(f"full_I{d}_{mode}", _full(ident[d], radius, mode),
                            _check_ball_full(d, radius, mode == "exact")))
    rforms = {d: random_form(rng, d) for d in (2, 3, 4)}
    for d, lo, hi in ((2, 1800.0, 2200.0), (3, 130.0, 160.0), (4, 27.0, 31.0)):
        radius = float(rng.uniform(lo, hi))
        jobs.append(Job(f"full_F{d}", _full(rforms[d], radius, "auto"),
                        _check_row_full(rforms[d], radius)))
    # primitive counts through the Moebius sum
    for d, lo, hi in ((2, 250.0, 350.0), (3, 50.0, 70.0)):
        radius = float(rng.uniform(lo, hi))
        jobs.append(Job(f"errors_I{d}", _errors(ident[d], radius),
                        _check_error_terms(d, radius, _ball_prim_range(d, radius),
                                           _ball_range(d, radius))))
    radius = float(rng.uniform(45.0, 55.0))
    jobs.append(Job("errors_F3", _errors(rforms[3], radius),
                    _check_error_terms(3, radius, _row_prim_range(rforms[3], radius),
                                       _row_range(rforms[3], radius))))
    # sweeps: every T repeats a Moebius sum on the same form
    shift = float(rng.uniform(0.0, 0.5))
    ball_prim = lambda d: (lambda r: (oracles.ball_primitive(d, r),) * 2)
    row_prim = lambda form: (lambda r: _row_prim_range(form, r)())
    sweeps = (
        ("horoball_I2", ident[2], np.linspace(8.0, 16.0, 9), "horoball", 1, ball_prim(2), 2),
        ("horoball_I3", ident[3], np.linspace(5.0, 12.0, 8), "horoball", 1, ball_prim(3), 3),
        ("chimney_I2", ident[2], np.linspace(8.0, 16.0, 9), "chimney", 2, ball_prim(2), 2),
        ("chimney_F3", rforms[3], np.linspace(4.0, 10.0, 7), "chimney", 1, row_prim(rforms[3]), 3),
    )
    for name, form, ts, kind, sigma, n1_of, d in sweeps:
        jobs.append(Job(name, _sweep(form, [float(t) for t in ts + shift], kind),
                        _check_sweep(d, kind, sigma, n1_of)))
    jobs.append(Job("stabilizer_I4", lambda: hc.orbits.stabilizer_order(ident[4]),
                    _check_equal(2 ** 3 * math.factorial(4) // 2)))
    jobs.append(Job("stabilizer_F4", lambda: hc.orbits.stabilizer_order(rforms[4]),
                    _check_equal(1)))
    # GL_d(Z) images of the identity: same counts, far larger planned k-range
    for d, full_lo, full_hi, prim_lo, prim_hi in ((3, 55.0, 65.0, 18.0, 22.0),
                                                  (2, 800.0, 1000.0, 80.0, 100.0)):
        u = skew_unimodular(rng, d)
        image = hc.QuadForm.from_gram((u.T @ u).tolist())
        radius = float(rng.uniform(full_lo, full_hi))
        for mode in ("exact", "float"):
            src = f"full_src_I{d}_{mode}"
            checks = [_check_ball_full(d, radius, mode == "exact")]
            jobs.append(Job(src, _full(ident[d], radius, mode), checks[0]))
            if mode == "exact":  # float counts may differ by their flagged boundary points
                checks.append(_same_as(src))
            jobs.append(Job(f"full_skew{d}_{mode}", _full(image, radius, mode), _both(*checks)))
        radius = float(rng.uniform(prim_lo, prim_hi))
        src = f"errors_src_I{d}"
        jobs.append(Job(src, _errors(ident[d], radius),
                        _check_error_terms(d, radius, _ball_prim_range(d, radius),
                                           _ball_range(d, radius))))
        jobs.append(Job(f"errors_skew{d}", _errors(image, radius),
                        _both(_check_error_terms(d, radius, _ball_prim_range(d, radius),
                                                 _ball_range(d, radius)), _same_as(src))))
    jobs.append(Job("full_large_entry", _large_entry_count,
                    _check_ball_full(3, LARGE_ENTRY_RADIUS, False)))
    return jobs


def count_warm_up():
    ident = {d: hc.QuadForm.identity(d) for d in (2, 3, 4)}
    rng = np.random.default_rng(12345)
    for d, radius in ((2, 7.3), (3, 5.3), (4, 3.3)):
        for mode in ("exact", "float"):
            hc.latcount.count_full(hc.EllipsoidSpec(ident[d], radius), mode=mode)
        hc.latcount.count_full(hc.EllipsoidSpec(random_form(rng, d), radius))
    hc.latcount.error_terms(hc.EllipsoidSpec(ident[3], 4.1))
    hc.orbits.sweep(ident[2], [2.0, 3.0], kind="horoball")
    hc.orbits.sweep(random_form(rng, 3), [2.0], kind="chimney")
    hc.orbits.stabilizer_order(ident[2])


# ---------------------------------------------------------------------------
# meansq

D2_SAMPLES, D2_RADII = 600, (5.0, 10.0, 20.0)
D3_SAMPLES, D3_RADII = 150, (3.0, 5.0)


def _ms_seed(seed: int, rnd: int, tag: int) -> int:
    return int(_rng(seed, rnd, tag).integers(2 ** 31))


def _samples(d: int, n: int, sample_seed: int):
    """The samples mean_square_check draws from its seed."""
    rng = np.random.default_rng(sample_seed)
    if d == 2:
        return hc.randlat.sample_exact_d2(rng, n)
    return hc.randlat.sample_walk(rng, d, n=n)


def _check_sample(d, basis) -> str | None:
    if abs(abs(float(np.linalg.det(basis))) - 1.0) > 1e-9:
        return f"sample basis has determinant {np.linalg.det(basis)}"
    if d == 2:  # (1/sqrt y) [[1, x], [0, y]] with z = x + iy in the fundamental domain
        y = 1.0 / basis[0, 0] ** 2
        x = basis[0, 1] / basis[0, 0]
        if abs(x) > 0.5 + 1e-12 or x * x + y * y < 1.0 - 1e-12 or basis[1, 0] != 0.0:
            return f"exact sample z = {x} + {y}i is outside the fundamental domain"
    return None


def _check_mean_square(d, radius, n, sample_seed, cache):
    """Recount every sample by a box scan and rebuild the report from the counts.

    The program counts a point within its float band 8 ulp(R^2) d as inside;
    the oracle allows such points either way, plus 1e-12 R^2 for the
    determinant renormalisation of the sample's gram.
    """
    def check(rep, _):
        key = (d, n, sample_seed)
        if key not in cache:
            cache.clear()
            cache[key] = _samples(d, n, sample_seed)
        samples = cache[key]
        vol = oracles.unit_ball_volume(d) * radius ** d
        z = zeta(d)
        band = 8.0 * math.ulp(radius ** 2) * d
        lo_terms, hi_terms, terms = [], [], []
        for s in samples:
            g = s.basis.mat
            err = _check_sample(d, g)
            if err:
                return err
            _, _, n1, n1_band = oracles.box_scan(g.T @ g, radius, extra_band=band)
            vals = [(z * m / vol - 1.0) ** 2 for m in (n1, n1 + n1_band)]
            centre = min(max(round(vol / z), n1), n1 + n1_band)
            lo_terms.append(min(vals + [(z * centre / vol - 1.0) ** 2]))
            hi_terms.append(max(vals))
            terms.append(vals[0])
        lo, hi = sum(lo_terms) / n, sum(hi_terms) / n
        if rep.n_samples != n or not lo * (1 - 1e-9) - 1e-15 <= rep.mean_d2 <= hi * (1 + 1e-9) + 1e-15:
            return f"mean_d2 {rep.mean_d2} over {rep.n_samples} samples, oracle [{lo}, {hi}] over {n}"
        bound = (4.0 if d == 2 else 2.0) * z / vol
        if not _rel_close(rep.bound, bound, 1e-12):
            return f"bound {rep.bound}, expected {bound}"
        if lo == hi and not _rel_close(rep.std_error, float(np.std(terms, ddof=1)) / math.sqrt(n), 1e-6):
            return f"std_error {rep.std_error} disagrees with the recounted samples"
        if not rep.mean_d2 - 2.0 * rep.std_error <= bound or not rep.passed:
            return f"second-moment inequality fails: {rep.mean_d2} - 2 x {rep.std_error} > {bound}"
        if not _rel_close(rep.mean_e1sq, rep.mean_d2 * (vol / z) ** 2, 1e-9):
            return f"mean_e1sq {rep.mean_e1sq} disagrees with mean_d2"
        return None
    return check


def meansq_plan(seed: int, rnd: int) -> list[Job]:
    """Criterion 8's shape: one seed's samples counted at several radii."""
    jobs = []
    cache: dict = {}
    for d, n, radii, sampler, tag in ((2, D2_SAMPLES, D2_RADII, "exact", 1),
                                      (3, D3_SAMPLES, D3_RADII, "walk", 2)):
        sample_seed = _ms_seed(seed, rnd, tag)
        for radius in radii:
            call = (lambda d=d, radius=radius, n=n, sampler=sampler, s=sample_seed:
                    hc.randlat.mean_square_check(d, radius, n, sampler=sampler, seed=s))
            jobs.append(Job(f"meansq_d{d}_R{radius:g}", call,
                            _check_mean_square(d, radius, n, sample_seed, cache)))
    return jobs


def meansq_warm_up():
    hc.randlat.mean_square_check(2, 2.5, 16, sampler="exact", seed=777)
    hc.randlat.mean_square_check(3, 2.0, 8, sampler="walk", seed=777, burn_in=100, thin=1)


# ---------------------------------------------------------------------------
# horosphere

SUPPORT, PLATEAU = 1.0, 0.5
D3_LEVELS = (0.6, 1.2, 1.8)
D2_GRID = np.linspace(1.0, 14.0, 40)


def _target_check(avg, d):
    target = oracles.profile_integral("bump", SUPPORT, PLATEAU, d) / zeta(d)
    if not _rel_close(avg.target, target, 1e-9):
        return f"t = {avg.t}: target {avg.target}, expected I_h/zeta = {target}"
    if not (math.isfinite(avg.value) and _rel_close(avg.err, avg.value - avg.target, 1e-9)):
        return f"t = {avg.t}: value {avg.value}, err {avg.err} inconsistent"
    return None


def _check_d3(t):
    def check(avg, _):
        err = _target_check(avg, 3)
        if err:
            return err
        if avg.t != t or not 0.0 <= avg.quad_error_estimate <= D3_QUAD_EST_TOL:
            return f"t = {avg.t}: quadrature estimate {avg.quad_error_estimate} above {D3_QUAD_EST_TOL}"
        return None
    return check


def _envelope_slope(ts, errs):
    a = np.abs(np.asarray(errs))
    idx = [i for i in range(1, len(a) - 1) if a[i] > a[i - 1] and a[i] > a[i + 1]]
    return float(np.polyfit(np.asarray(ts)[idx], np.log(a[idx]), 1)[0])


def _check_decay(grid):
    def check(out, _):
        averages, fit, refs = out
        if [a.t for a in averages] != list(grid):
            return "decay series t-grid differs from the requested grid"
        for a in averages:
            err = _target_check(a, 2)
            if err:
                return err
            exact = oracles.horo_average_d2(a.t, "bump", SUPPORT, PLATEAU)
            if abs(a.value - exact) > D2_VALUE_TOL:
                return f"t = {a.t}: value {a.value}, exact average {exact}"
            if not 0.0 <= a.quad_error_estimate <= D2_QUAD_EST_TOL:
                return f"t = {a.t}: quadrature estimate {a.quad_error_estimate} above {D2_QUAD_EST_TOL}"
        slope = _envelope_slope([a.t for a in averages], [a.err for a in averages])
        if not _rel_close(fit.slope, slope, 1e-6):
            return f"fitted slope {fit.slope}, envelope least squares gives {slope}"
        if not _rel_close(refs["theory_slope_pointwise"], -math.sqrt(2.0) / 8.0, 1e-12):
            return f"pointwise slope {refs['theory_slope_pointwise']}, expected -sqrt(2)/8"
        return None
    return check


def horosphere_plan(seed: int, rnd: int) -> list[Job]:
    """d = 3 averages at a few t, and a d = 2 decay series on a long t-grid."""
    rng = _rng(seed, rnd, 3)
    bump = hc.equidist.bump_profile(SUPPORT, PLATEAU)
    jobs = []
    for t in D3_LEVELS:
        t = float(t + rng.uniform(0.0, 0.3))
        jobs.append(Job(f"average_d3_t{t:.2f}",
                        lambda t=t: hc.equidist.horosphere_average(t, bump, d=3), _check_d3(t)))
    grid = [float(t) for t in D2_GRID + rng.uniform(0.0, 0.3)]
    jobs.append(Job("decay_d2", lambda: hc.equidist.decay_series(bump, grid, d=2),
                    _check_decay(grid)))
    return jobs


def horosphere_warm_up():
    bump = hc.equidist.bump_profile(0.7)
    small = hc.equidist.QuadratureSpec(torus_grid=9, base_grid=(8, 8))
    hc.equidist.horosphere_average(0.2, bump, small, d=3)
    hc.equidist.horosphere_average(0.2, bump, d=2)


WORKLOADS = {
    "count": (count_plan, count_warm_up, (2, 3, 4)),
    "meansq": (meansq_plan, meansq_warm_up, (2, 3)),
    "horosphere": (horosphere_plan, horosphere_warm_up, (2, 3)),
}
