"""Orbit counting in truncated chimneys and horosphere counting in balls.

The dictionary: for a form Q and truncation level T with matching radius
R = e^{T sqrt((d-1)/d)/2}, the primitive count N1(Q, R) equals
alpha(d) * sigma(Q) * (number of orbit points of Q in the truncated
chimney), and also twice the number of horosphere lifts meeting the ball
B(Q, T).  The volume main terms give the predictions

  chimney:   sigma(Q) * count ~ (omega_d / (alpha(d) zeta(d))) e^{T sqrt((d-1)d)/2}
  horoball:            count ~ (omega_d / (2 zeta(d)))        e^{T sqrt((d-1)d)/2}

and the relative errors are fitted against the published decay exponents.
A sweep takes every N1 of its T-grid from one latcount.count_primitive_many
call on the form at the grid's radii, in its default mode: exact for a
form with an integer gram (QuadForm.mint), float otherwise.  One walk at
the largest radius gives them all; a single T is a sweep of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .latcount import (
    CountingError,
    count_primitive_many,
    enumerate_points,
)
from .quadform import QuadForm, constants

__all__ = [
    "ChimneyCount",
    "DecayFit",
    "t_of_radius",
    "radius_of_t",
    "stabilizer_order",
    "fit_error_exponent",
    "theory_slope",
    "sweep",
]

STABILIZER_CANDIDATE_CAP = 4096
STABILIZER_TOL = 1e-7  # relative to the largest gram entry
STABILIZER_LEVEL_CAP = STABILIZER_CANDIDATE_CAP ** 2  # a search level's mask: one pair table at the cap
TABLE_ROWS = 256  # rows per block of a pair table: a block's float64 products take 8 * 256 bytes per
# column, no more than the table's own bools once it has 2,048 rows


@dataclass
class ChimneyCount:
    T: float
    R: float
    count: int
    sigma_q: int
    predicted: float
    rel_error: float


@dataclass
class DecayFit:
    slope: float
    intercept: float
    r2: float
    n_points: int
    envelope: bool


def t_of_radius(d: int, radius: float) -> float:
    """T(R) = 2 sqrt(d/(d-1)) log R, for a positive finite R."""
    if not 0 < radius < math.inf:
        raise CountingError(f"radius must be positive and finite, got {radius}")
    return 2.0 * math.sqrt(d / (d - 1)) * math.log(radius)


def radius_of_t(d: int, t: float) -> float:
    """Inverse map: R = e^{T sqrt((d-1)/d)/2}, for a finite T."""
    if not math.isfinite(t):
        raise CountingError(f"T must be finite, got {t}")
    try:
        return math.exp(0.5 * t * math.sqrt((d - 1) / d))
    except OverflowError:
        raise CountingError(f"T = {t!r} gives a radius beyond the float range") from None


def stabilizer_order(q: QuadForm) -> int:
    """Order of the stabilizer of Q in the projectivized integer group.

    Counts integer matrices g of determinant one with g^T M g = M.  Column
    j of g is a lattice vector v with Q(v) = M_jj, picked from one
    enumeration up to max_j M_jj; one table per column pair i < j, built
    TABLE_ROWS rows at a time, marks the candidate pairs with inner product
    M_ij.  The search extends every partial g by one column at a time,
    keeping the candidates in the AND of the table rows picked for the
    columns before it; a level of more than
    STABILIZER_LEVEL_CAP (partial g, candidate) pairs raises CountingError
    before its mask is built.  The count of complete g of det 1 is divided
    by the center (+-identity for even d).
    """
    d = q.dim
    if d not in (2, 3, 4):
        raise CountingError("stabilizer enumeration supports d in {2, 3, 4}; "
                            f"pass the stabilizer order sigma for d = {d}")
    m = q.gram
    tol = STABILIZER_TOL * float(np.max(np.abs(m)))
    pts, vals = enumerate_points(q, float(np.max(np.diag(m))) + tol, mode="float")
    cols = [pts[np.abs(vals - float(m[j, j])) <= tol].astype(float) for j in range(d)]
    if max(map(len, cols)) > STABILIZER_CANDIDATE_CAP:
        raise CountingError("stabilizer candidate set too large for this form")
    table = {}
    for j in range(d):
        for i in range(j):
            left, table[i, j] = cols[i] @ m, np.empty((len(cols[i]), len(cols[j])), dtype=bool)
            for r in range(0, len(left), TABLE_ROWS):
                block = left[r:r + TABLE_ROWS] @ cols[j].T
                block -= m[i, j]
                np.less_equal(np.abs(block, out=block), tol, out=table[i, j][r:r + TABLE_ROWS])
    idx = np.zeros((1, 0), dtype=np.intp)  # row r: candidate index of each column of g_r
    for j in range(d):
        if len(idx) * len(cols[j]) > STABILIZER_LEVEL_CAP:
            raise CountingError(f"stabilizer search for column {j + 1} would pair {len(idx)} partial "
                                f"matrices with {len(cols[j])} candidates, above {STABILIZER_LEVEL_CAP}")
        mask = np.ones((len(idx), len(cols[j])), dtype=bool)
        for i in range(j):
            mask &= table[i, j][idx[:, i]]
        rows, new = np.nonzero(mask)
        idx = np.column_stack([idx[rows], new])
    g = np.stack([cols[j][idx[:, j]] for j in range(d)], axis=-1)
    count = int(np.count_nonzero(np.round(np.linalg.det(g)) == 1))
    alpha = constants(d).alpha
    if count % alpha != 0:
        raise CountingError("stabilizer enumeration inconsistent with the center")
    order = count // alpha
    if order < 1:
        raise CountingError("stabilizer enumeration failed to find the identity")
    return order


def _sigma_for(q: QuadForm, sigma: int | None) -> int:
    """The given sigma, else stabilizer_order, which refuses d >= 5."""
    if sigma is not None:
        if sigma < 1:
            raise CountingError("stabilizer order must be >= 1")
        return sigma
    return stabilizer_order(q)


def theory_slope(d: int) -> float:
    """Published decay exponent (per unit T) for the counting error.

    An error O(R^theta) against the main term omega R^d decays like
    R^(theta - d) = e^{T (theta - d) sqrt((d-1)/d) / 2}, with theta the
    published exponent constants(d).exponent_counting.
    """
    return (constants(d).exponent_counting - d) * math.sqrt((d - 1) / d) / 2.0


def _envelope_indices(absvals: np.ndarray) -> np.ndarray:
    """Strict local maxima over a 3-point window (interior points only)."""
    n = len(absvals)
    idx = [i for i in range(1, n - 1)
           if absvals[i] > absvals[i - 1] and absvals[i] > absvals[i + 1]]
    return np.asarray(idx, dtype=int)


def fit_error_exponent(series, envelope: bool = False) -> DecayFit:
    """Least squares of log|rel_error| against T.

    With envelope=True only local maxima of |rel_error| enter the fit,
    which avoids the log spikes at sign changes of an oscillating error.
    """
    ts = np.asarray([p[0] for p in series], dtype=float)
    errs = np.asarray([p[1] for p in series], dtype=float)
    keep = errs != 0.0
    ts, errs = ts[keep], errs[keep]
    absvals = np.abs(errs)
    if envelope:
        idx = _envelope_indices(absvals)
        ts, absvals = ts[idx], absvals[idx]
    if len(ts) < 4:
        raise CountingError("fewer than 4 usable points; degenerate series")
    y = np.log(absvals)
    slope, intercept = np.polyfit(ts, y, 1)
    fitted = slope * ts + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else max(0.0, min(1.0, 1.0 - ss_res / ss_tot))
    return DecayFit(slope=float(slope), intercept=float(intercept), r2=r2,
                    n_points=len(ts), envelope=envelope)


def sweep(q: QuadForm, t_values, kind: str = "chimney", sigma: int | None = None) -> list[ChimneyCount]:
    """Counts over a T-grid, sorted by T; only chimney reads sigma.

    Each row's count is N1(Q, R(T)) / weight against the main term
    omega_d e^{T sqrt((d-1)d)/2} / (denom zeta(d)), with weight alpha sigma
    and denom alpha for chimney, 2 and 2 for horoball; rel_error is
    (N1 / denom) / predicted - 1 = N1 zeta(d) / (omega_d R^d) - 1.  Every N1
    comes from one count_primitive_many call over the grid's radii, which
    walks Q once at the largest R.  A radius below 1e-12 holds no nonzero
    point and gives an empty row; a T that is not finite raises
    CountingError before any count.  A count that the weight does not divide
    raises CountingError for the first such T of t_values.
    """
    d = q.dim
    cst = constants(d)
    if kind == "chimney":
        sigma_q = _sigma_for(q, sigma)
        weight, denom = cst.alpha * sigma_q, cst.alpha
        why = ("the form is on the symmetric locus (its automorphisms fix some "
               "primitive vectors), or sigma or the boundary band is wrong")
    elif kind == "horoball":
        sigma_q, weight, denom, why = 1, 2, 2, "+-v symmetry violated"
    else:
        raise CountingError(f"unknown sweep kind {kind!r}")
    ts = list(t_values)
    radii = [radius_of_t(d, t) for t in ts]
    counts = iter(count_primitive_many([q], [r for r in radii if r >= 1e-12]))
    rows = []
    for t, radius in zip(ts, radii):
        predicted = (cst.omega / (denom * cst.zeta)) * math.exp(0.5 * t * math.sqrt((d - 1) * d))
        if radius < 1e-12:
            rows.append(ChimneyCount(T=t, R=radius, count=0, sigma_q=sigma_q,
                                     predicted=predicted, rel_error=-1.0))
            continue
        n1 = next(counts)[0].n1
        if n1 % weight != 0:
            raise CountingError(f"primitive count {n1} not divisible by {weight}; {why}")
        rows.append(ChimneyCount(T=t, R=radius, count=n1 // weight, sigma_q=sigma_q,
                                 predicted=predicted, rel_error=(n1 / denom) / predicted - 1.0))
    return sorted(rows, key=lambda c: c.T)
