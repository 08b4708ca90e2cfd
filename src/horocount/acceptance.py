"""Acceptance criteria as callable checks.

Each criterion is a body returning (passed, details), registered under its
number in CRITERIA by the _criterion decorator, which times it into a
CheckResult.  run() executes a tier (FAST_TIER, or every registered
criterion in order) and is shared by ``horocount verify`` and the pytest
acceptance module.  All tolerances are fixed here, not configurable.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import equidist, moebius, orbits, randlat
from .latcount import (
    EllipsoidSpec,
    count_full,
    count_primitive_direct,
    count_primitive_moebius,
)
from .quadform import (
    GroupElement,
    IwasawaCoord,
    QuadForm,
    act,
    busemann_r,
    busemann_rho,
    chi_d,
    constants,
    geodesic_r,
    geodesic_rho,
    iwasawa_compose,
    iwasawa_decompose,
)

__all__ = ["CheckResult", "run", "FAST_TIER", "CRITERIA"]

SEED = 20260810


@dataclass
class CheckResult:
    criterion: int
    name: str
    passed: bool
    elapsed_s: float
    details: dict = field(default_factory=dict)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} criterion {self.criterion}: {self.name} ({self.elapsed_s:.1f}s)"


def random_form(rng: np.random.Generator, d: int) -> QuadForm:
    """Well-conditioned random determinant-one form (exp of a traceless
    Gaussian keeps the condition number bounded)."""
    from scipy.linalg import expm  # about 0.37 s to import, and only these forms need it
    s = 0.2 / math.sqrt(d) * rng.standard_normal((d, d))
    s -= np.trace(s) / d * np.eye(d)
    a = expm(s)
    return QuadForm.from_gram(a.T @ a)


def box_scan_counts(form: QuadForm, radius: float) -> tuple[int, int]:
    """Independent counting oracle: scan the axis-aligned bounding box.

    Uses the same closed relaxed threshold as the float kernel so that
    the two agree exactly point-by-point.
    """
    d = form.dim
    gram = form.gram
    rsq = radius ** 2
    tol = 8.0 * math.ulp(rsq) * d
    inv_diag = np.diagonal(np.linalg.inv(gram))
    half = [int(math.floor(radius * math.sqrt(v))) + 1 for v in inv_diag]
    axes = [np.arange(-h, h + 1, dtype=np.int64) for h in half[1:]]
    n0 = 0
    n1 = 0
    first = np.arange(-half[0], half[0] + 1, dtype=np.int64)
    grids = np.meshgrid(*axes, indexing="ij") if axes else []
    rest = np.stack([g.ravel() for g in grids], axis=1) if axes else np.zeros((1, 0), dtype=np.int64)
    for v0 in first:
        pts = np.empty((rest.shape[0], d), dtype=np.int64)
        pts[:, 0] = v0
        pts[:, 1:] = rest
        vals = np.einsum("ij,jk,ik->i", pts.astype(float), gram, pts.astype(float))
        inside = vals <= rsq + tol
        n0 += int(inside.sum())
        if inside.any():
            prim = np.gcd.reduce(np.abs(pts[inside]), axis=1) == 1
            n1 += int(prim.sum())
    return n0, n1


CRITERIA = {}  # criterion number -> check, filled by @_criterion
FAST_TIER = (1, 2, 9, 10)


def _criterion(number: int, name: str):
    """Register a body that returns (passed, details) as CRITERIA[number],
    which runs it timed into a CheckResult."""
    def register(body):
        def check() -> CheckResult:
            start = time.perf_counter()
            passed, details = body()
            return CheckResult(number, name, bool(passed), time.perf_counter() - start, details)
        CRITERIA[number] = check
        return check
    return register


# ---------------------------------------------------------------------------

@_criterion(1, "counting kernels match the box-scan oracle exactly")
def criterion_1_counting_oracle():
    rng = np.random.default_rng(SEED)
    mismatches = []
    total = 0
    for d in (2, 3, 4):
        for _ in range(50):
            form = random_form(rng, d)
            radius = float(rng.uniform(0.5, 20.0))
            spec = EllipsoidSpec(form, radius)
            n0_oracle, n1_oracle = box_scan_counts(form, radius)
            n0 = count_full(spec, mode="float").n0
            n1 = count_primitive_direct(spec, mode="float").n1
            total += 1
            if n0 != n0_oracle or n1 != n1_oracle:
                mismatches.append({"d": d, "radius": radius,
                                   "n0": (n0, n0_oracle), "n1": (n1, n1_oracle)})
    return not mismatches, {"forms": total, "mismatches": mismatches}


@_criterion(2, "sieve-based primitive counts and shell identities are exact")
def criterion_2_moebius_exactness():
    rng = np.random.default_rng(SEED + 1)
    bad = []
    for d in (2, 3, 4):
        for _ in range(50):
            form = random_form(rng, d)
            radius = float(rng.uniform(0.5, 20.0))
            spec = EllipsoidSpec(form, radius)
            direct = count_primitive_direct(spec, mode="float")
            via_mu = count_primitive_moebius(spec, mode="float")
            if direct.n1 != via_mu.n1 and direct.boundary_ambiguous == 0:
                bad.append({"d": d, "radius": radius,
                            "direct": direct.n1, "moebius": via_mu.n1})
    gamma2 = GroupElement.from_matrix([[2, 1], [1, 1]])
    gamma3 = GroupElement.from_matrix([[1, 1, 0], [0, 1, 1], [0, 0, 1]])
    shells_ok = True
    reports = {}
    for tag, form, rsq in (
        ("d2-identity", QuadForm.identity(2), 400),
        ("d3-identity", QuadForm.identity(3), 400),
        ("d2-skew", act(QuadForm.identity(2), gamma2), 400),
        ("d3-skew", act(QuadForm.identity(3), gamma3), 225),
    ):
        rep = moebius.verify_inversion(EllipsoidSpec(form, math.sqrt(rsq)))
        reports[tag] = rep.ok
        shells_ok &= rep.ok
    return (not bad) and shells_ok, {"mismatches": bad, "shells": reports}


@_criterion(3, "primitive counts reproduce the volume main term")
def criterion_3_main_term():
    out = {}
    ok = True
    for d, radius, tol in ((2, 2000.0, 5e-3), (3, 200.0, 1e-2)):
        cst = constants(d)
        res = count_primitive_moebius(EllipsoidSpec(QuadForm.identity(d), radius), mode="exact")
        ratio = res.n1 * cst.zeta / (cst.omega * radius ** d)
        out[f"d{d}"] = {"n1": res.n1, "ratio": ratio, "tol": tol}
        ok &= abs(ratio - 1.0) <= tol
    return ok, out


@_criterion(4, "counting error decays at the published rate (envelope fit)")
def criterion_4_counting_decay():
    out = {}
    ok = True
    for d, r_lo, r_hi, n_pts, slope_max in ((2, 16.0, 2048.0, 33, -0.40),
                                            (3, 8.0, 128.0, 21, -0.45)):
        radii = np.exp(np.linspace(math.log(r_lo), math.log(r_hi), n_pts))
        ts = [orbits.t_of_radius(d, float(radius)) for radius in radii]
        rows = orbits.sweep(QuadForm.identity(d), ts, kind="horoball")
        fit = orbits.fit_error_exponent([(r.T, r.rel_error) for r in rows], envelope=True)
        out[f"d{d}"] = {"slope": fit.slope, "required": slope_max,
                        "theory": orbits.theory_slope(d), "n_envelope": fit.n_points}
        ok &= fit.slope <= slope_max
    return ok, out


@_criterion(5, "horospherical averages hit their targets")
def criterion_5_equidistribution_targets():
    ind = equidist.indicator_profile(1.0)
    a0 = equidist.horosphere_average(0.0, ind, d=2)
    ok0 = abs(a0.value - 2.0) <= a0.quad_error_estimate
    a12 = equidist.horosphere_average(12.0, ind, d=2)
    ok12 = abs(a12.value - 6.0 / math.pi) <= 0.05
    bump = equidist.bump_profile(1.0)
    a3 = equidist.horosphere_average(1.0, bump, d=3)
    ok3 = math.isfinite(a3.value) and a3.quad_error_estimate < 0.05
    return ok0 and ok12 and ok3, {
        "d2_t0": {"value": a0.value, "quad_est": a0.quad_error_estimate},
        "d2_t12": {"value": a12.value, "target": a12.target, "err": a12.err},
        "d3_t1": {"value": a3.value, "quad_est": a3.quad_error_estimate},
    }


@_criterion(6, "pointwise equidistribution rate and bound hold")
def criterion_6_pointwise_rate():
    bump = equidist.bump_profile(1.0)
    t_grid = np.linspace(1.0, 14.0, 40)
    averages, fit, refs = equidist.decay_series(bump, t_grid, d=2)
    slope_req = refs["theory_slope_pointwise"] + 0.03
    f_norm, f_norm_se = equidist.estimate_f_norm(bump, n=4000, seed=SEED)
    grad_bound = equidist.estimate_lipschitz(bump, t_probes=[1.0, 3.0, 6.0, 10.0, 13.0])
    report = equidist.check_thm12_bound(averages, f_norm, grad_bound)
    ok = fit.slope <= slope_req and report["passed"]
    return ok, {"slope": fit.slope, "required": slope_req,
                "f_norm": f_norm, "grad_bound": grad_bound,
                "pointwise": {k: report[k] for k in ("checked", "worst_ratio", "passed")}}


@_criterion(7, "integrated error bound holds at all checkpoints")
def criterion_7_integrated_bound():
    ind = equidist.indicator_profile(1.0)
    f_norm, f_norm_se = equidist.estimate_f_norm(ind, n=6000, seed=SEED + 2)
    rows = equidist.integrated_error_bound(ind, [4.0, 6.0, 8.0, 10.0], f_norm, f_norm_se)
    return all(r["passed"] for r in rows), {"rows": rows}


@_criterion(8, "mean-square discrepancy bound holds")
def criterion_8_mean_square():
    out = {}
    ok = True
    for d, radii, n, sampler, seed in ((2, [5.0, 10.0, 20.0], 10_000, "exact", SEED),
                                       (3, [3.0, 5.0], 2_000, "walk", SEED + 3)):
        for rep in randlat.mean_square_check(d, radii, n, sampler=sampler, seed=seed):
            out[f"d{d}_R{rep.radius:g}"] = {"mean_e1sq": rep.mean_e1sq,
                                            "bound_e1sq": rep.bound_e1sq, "passed": rep.passed}
            ok &= rep.passed
    return ok, out


@_criterion(9, "good-t locator finds hits in every guaranteed window")
def criterion_9_locator():
    alpha, beta, ctilde, eps = 1.0, 0.5, 1.0, 0.1
    t0 = equidist.locator_threshold_t0(alpha, beta, eps, 1.0, ctilde)
    windows = np.linspace(t0, t0 + 20.0, 100)
    s_end = windows[-1] + 4.0 * math.exp(-eps * windows[-1]) + 0.5
    phi_end = 4.0 * ctilde / 1.0 * math.exp(-eps * s_end)
    step = phi_end / 4.0 * 0.9
    ts = np.arange(t0 - 0.2, s_end, step)
    gs = 0.5 * np.exp(-0.5 * ts) * np.cos(np.exp(0.5 * ts))
    hits = np.asarray(equidist.good_t_locator(ts, gs, alpha, beta, eps, 1.0, ctilde))
    missing = []
    for w in windows:
        w_end = w + 4.0 * math.exp(-eps * w)
        if not np.any((hits >= w) & (hits <= w_end)):
            missing.append(float(w))
    # negative control: a tiny kappa must leave some window empty
    thr = 1e-6 * np.exp((-(alpha - beta) + eps) * ts)
    sparse = ts[np.abs(gs) <= thr]
    gaps = 0
    for w in windows:
        w_end = w + 4.0 * math.exp(-eps * w)
        if not np.any((sparse >= w) & (sparse <= w_end)):
            gaps += 1
    return (not missing) and gaps > 0, {
        "t0": t0, "windows": len(windows), "missing": missing,
        "negative_control_gaps": gaps, "hits": int(hits.size),
    }


def _a_part_chi(mat: np.ndarray) -> float:
    """chi_d of the A-part of mat's Iwasawa decomposition, renormalised to
    determinant one."""
    d = mat.shape[0]
    coord = iwasawa_decompose(GroupElement(d, mat))
    a_part = iwasawa_compose(IwasawaCoord(coord.t, coord.aprime, np.zeros((d, d)))).mat
    return chi_d(GroupElement(d, a_part / a_part.diagonal().prod() ** (1.0 / d)))


@_criterion(10, "geodesic, Busemann, character, and volume-scaling identities")
def criterion_10_geometry_identities():
    bad = []
    for d in (2, 3, 4, 5, 6):
        sq = math.sqrt((d - 1) * d)
        for t in np.linspace(-10.0, 10.0, 21):
            q_r = act(QuadForm.identity(d), geodesic_r(d, float(t)))
            if abs(busemann_r(q_r) + t) > 1e-12 * max(1.0, abs(t)):
                bad.append(("busemann_r", d, float(t)))
            q_rho = act(QuadForm.identity(d), geodesic_rho(d, float(t)))
            if abs(busemann_rho(q_rho) + t) > 1e-12 * max(1.0, abs(t)):
                bad.append(("busemann_rho", d, float(t)))
            chi = chi_d(geodesic_r(d, -float(t)))
            if abs(chi / math.exp(0.5 * t * sq) - 1.0) > 1e-12:
                bad.append(("chi", d, float(t)))
    scaling = {}
    for d, t, grid in ((2, 3.0, 9), (3, 2.0, 5)):
        # a_{-t} is diagonal, so it scales the A-part of every node B = (a', n) by
        # one factor, and chi_d of it by the horosphere's volume growth
        expected = math.exp(0.5 * t * math.sqrt((d - 1) * d))
        shift = geodesic_r(d, -t).mat
        axes = [np.linspace(-0.25, 0.25, grid)] * (d - 2) + [np.linspace(0.05, 0.3, grid)] * (d * (d - 1) // 2)
        worst = 0.0
        for index, row in enumerate(itertools.product(*axes)):
            n = np.zeros((d, d))
            n[np.tril_indices(d, -1)] = row[d - 2:]
            base = iwasawa_compose(IwasawaCoord(0.0, np.append(row[:d - 2], -sum(row[:d - 2])), n)).mat
            deviation = abs(_a_part_chi(shift @ base) / (expected * _a_part_chi(base)) - 1.0)
            worst = max(worst, deviation)
            if deviation > 1e-9:
                bad.append(("volume_scaling", d, index))
        scaling[f"d{d}"] = {"nodes": index + 1, "worst_rel_deviation": worst}
    return not bad, {"failures": bad, "volume_scaling": scaling}


def run(tier: str = "full") -> list[CheckResult]:
    """Run a tier of the acceptance suite, printing one line per criterion."""
    results = []
    for n in FAST_TIER if tier == "fast" else sorted(CRITERIA):
        results.append(CRITERIA[n]())
        print(results[-1].line())
    return results
