"""Geometry of determinant-one positive definite quadratic forms.

The space P_d of such forms on R^d models the symmetric space
SO(d)\\SL_d(R).  This module provides the form and group element types,
the right action (Q.g)(v) = Q(gv), the two distinguished singular
geodesic rays and their Busemann functions, solvable (Iwasawa)
coordinates adapted to the first ray, and the named constants used by
the counting and equidistribution drivers.

Conventions:
  * lambda = 1/sqrt((d-1)d) and mu = (d-1)*lambda are the rates of the
    diagonal geodesic flows.
  * Every QuadForm is normalized to determinant one at construction, and
    decides there, once, whether its gram is integral: QuadForm.mint holds
    the integer gram (Python ints) or None.  Nothing else rounds grams.
  * Iwasawa coordinates use G = K*A*N with N unit lower triangular; the
    solvable representative of a form is the unique lower triangular
    matrix L with positive diagonal and L^T L = gram.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "HorocountError",
    "GeometryError",
    "QuadForm",
    "GroupElement",
    "IwasawaCoord",
    "Constants",
    "rate_lambda",
    "rate_mu",
    "act",
    "geodesic_r",
    "geodesic_rho",
    "busemann_r",
    "busemann_rho",
    "iwasawa_decompose",
    "iwasawa_compose",
    "chi_d",
    "constants",
    "zeta",
    "lll_reduce",
]

DET_TOL = 1e-9
PIVOT_TOL = 1e-12
LLL_DELTA = 0.75
# |mu| up to 1/2 + LLL_SIZE_SLACK counts as size reduced, so float noise
# around |mu| = 1/2 cannot flip b_k back and forth between b_k +- b_j
LLL_SIZE_SLACK = 1e-9
# exact LLL makes at most about (d^2 / 2) log_{4/3}(max entry) swaps: under
# 5,000 for d <= 8 and entries below 2^64
LLL_STEP_LIMIT = 100_000
ZETA_TERMS = 16
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730)  # B_2 ... B_12

# vol(M_2) = 2*pi/3 in the rescaled-hyperbolic-plane normalization used
# throughout; for d >= 3 the analogous volume depends on a measure
# normalization that is never needed (all predictions are ratios).
VOL_M2 = 2.0 * math.pi / 3.0


class HorocountError(ValueError):
    """Base of every refusal of an input; the CLI reports these as usage errors."""


class GeometryError(HorocountError):
    """Invalid geometric input: dimension, symmetry or definiteness."""


def rate_lambda(d: int) -> float:
    """Contraction rate 1/sqrt((d-1)d) of the singular diagonal flow."""
    _check_dim(d)
    return 1.0 / math.sqrt((d - 1) * d)


def rate_mu(d: int) -> float:
    """Expansion rate (d-1)/sqrt((d-1)d) = sqrt((d-1)/d)."""
    return (d - 1) * rate_lambda(d)


def _check_dim(d: int) -> None:
    if not isinstance(d, (int, np.integer)) or d < 2:
        raise GeometryError(f"dimension must be an integer >= 2, got {d!r}")


def _cholesky_lower(m: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of m, or of each matrix of a stack m."""
    try:
        chol = np.linalg.cholesky(m)
    except np.linalg.LinAlgError as exc:
        raise GeometryError("matrix is not positive definite") from exc
    if chol.diagonal(0, -2, -1).min() ** 2 <= PIVOT_TOL:
        raise GeometryError("Cholesky pivot below tolerance; matrix too close to singular")
    return chol


def _reverse_cholesky(m: np.ndarray) -> np.ndarray:
    """Lower triangular L with positive diagonal and L^T L = m."""
    flipped = m[::-1, ::-1]
    c = _cholesky_lower(flipped)
    return c.T[::-1, ::-1]


def _int_det(mat) -> int:
    """Exact integer determinant (Bareiss elimination)."""
    a = [list(row) for row in mat]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def lll_reduce(gram):
    """LLL reduction (Lenstra-Lenstra-Lovasz 1982) of a positive definite
    gram matrix, with delta = 3/4.

    Returns (u, reduced) as nested lists, with reduced = u^T gram u and
    det u = +1 (each swap also negates one vector): the columns of u are a
    basis with |mu_kj| <= 1/2 + LLL_SIZE_SLACK and |b*_k|^2 >=
    (3/4 - mu_{k,k-1}^2) |b*_{k-1}|^2.  An integer gram (Python ints or an
    integer array) is updated in Python ints, so reduced == u^T gram u
    exactly; floats only choose each step, from a Gram-Schmidt of the
    current gram, so in an ill-conditioned gram a poor choice costs steps,
    never exactness.  A float gram is reduced in floats.  The order of the
    float operations is part of this contract (each sum starts from the int
    0 and adds left to right): near a tie their last bits choose u, and
    sample_walk multiplies its basis by u at every step.
    """
    # an array is read as Python scalars at once: per-element numpy
    # scalars cost more than the reduction of a small gram
    g = gram.tolist() if isinstance(gram, np.ndarray) else [list(row) for row in gram]
    if not (isinstance(gram, np.ndarray) and gram.dtype.kind == "f"):  # else g holds Python floats
        exact = all(isinstance(x, (int, np.integer)) for row in g for x in row)
        g = [[int(x) if exact else float(x) for x in row] for row in g]
    d = len(g)
    u = [[int(i == j) for j in range(d)] for i in range(d)]
    mu = [[0.0] * d for _ in range(d)]
    r = [0.0] * d  # squared Gram-Schmidt norms
    k, half = 1, 0.5 + LLL_SIZE_SLACK
    for _ in range(LLL_STEP_LIMIT):
        if k == d:
            return u, g
        r[0] = float(g[0][0])
        if not r[0] > 0.0:
            raise GeometryError("gram matrix is not positive definite")
        # Gram-Schmidt row k from the current gram; rows < k are still valid
        gk, muk, a, t = g[k], mu[k], [0.0] * k, 0
        for j in range(k):
            s, muj = 0, mu[j]
            for i in range(j):
                s += muj[i] * a[i]
            a[j] = float(gk[j]) - s
            muk[j] = a[j] / r[j]
            t += muk[j] * a[j]
        r[k] = float(gk[k]) - t
        reduced = False
        for j in range(k - 1, -1, -1):
            if abs(muk[j]) > half:  # b_k <- b_k - c b_j
                c = round(muk[j])
                for row in g:
                    row[k] -= c * row[j]
                for row in u:
                    row[k] -= c * row[j]
                g[k] = [x - c * y for x, y in zip(g[k], g[j])]
                for i in range(j):
                    muk[i] -= c * mu[j][i]
                muk[j] -= c
                reduced = True
        if reduced:
            continue  # Gram-Schmidt row k again, now from the updated gram
        if r[k] >= (LLL_DELTA - muk[k - 1] ** 2) * r[k - 1]:
            k += 1
            continue
        for row in g + u:  # (b_{k-1}, b_k) <- (b_k, -b_{k-1}), det +1
            row[k - 1], row[k] = row[k], -row[k - 1]
        g[k - 1], g[k] = g[k], [-x for x in g[k - 1]]
        k = max(k - 1, 1)
    raise GeometryError(f"LLL reduction did not finish in {LLL_STEP_LIMIT} steps; "
                        "the gram matrix is not numerically positive definite")


def _unimodular_integer_roundings(m: np.ndarray) -> list:
    """For each matrix of the stack m, the matrix rounded to a nested tuple
    of Python ints if it is integral within a relative tolerance of 1e-9
    and the rounded matrix has exact determinant one, else None.

    The tolerance is relative because large-entry unimodular grams carry
    float noise proportional to their scale; the exact determinant matters
    because for very eccentric integer grams the float determinant is too
    noisy to renormalize by.
    """
    r = np.rint(m)
    close = np.abs(m - r).max(axis=(1, 2)) <= 1e-9 * np.maximum(1.0, np.abs(m).max(axis=(1, 2)))
    out = [None] * len(m)
    for i, integral in enumerate(close.tolist()):
        if integral:
            mint = tuple(tuple(int(x) for x in row) for row in r[i].tolist())
            out[i] = mint if _int_det(mint) == 1 else None
    return out


@dataclass(frozen=True, eq=False)
class QuadForm:
    """Positive definite quadratic form of determinant one.

    gram is the symmetric matrix of the form.  mint is the same gram as a
    nested tuple of Python ints when the stored gram rounds to an integer
    matrix of determinant one (_unimodular_integer_roundings), else None;
    it is decided once, here, and the counting drivers count exactly iff
    it is set.  Definiteness is checked by a float Cholesky of gram, or,
    when mint is set, exactly by the leading principal minors of mint.
    """

    dim: int
    gram: np.ndarray
    mint: tuple[tuple[int, ...], ...] | None

    @staticmethod
    def from_gram(mat) -> "QuadForm":
        """The form of one gram matrix: from_grams of a one-matrix stack."""
        m = np.array(mat, dtype=float)
        if m.ndim != 2:
            raise GeometryError(f"gram matrix must be square, got shape {m.shape}")
        return QuadForm.from_grams(m[None])[0]

    @staticmethod
    def from_grams(stack) -> "list[QuadForm]":
        """The forms of a stack of gram matrices of one dimension, in order.

        Each gram is symmetrized and normalized to determinant one, and its
        integer gram mint decided, as array operations on the whole stack;
        only the exact integer work of integral grams runs per form.  An
        invalid gram raises the GeometryError that it raises alone.
        """
        if len(stack) == 0:
            return []
        m = np.array(stack, dtype=float)
        if m.ndim != 3 or m.shape[1] != m.shape[2]:
            raise GeometryError(f"gram matrix must be square, got shape {m.shape[1:]}")
        d = m.shape[1]
        _check_dim(d)
        scale = np.maximum(1.0, np.abs(m).max(axis=(1, 2)))
        mt = m.transpose(0, 2, 1)
        if (np.abs(m - mt).max(axis=(1, 2)) > 1e-9 * scale).any():
            raise GeometryError("gram matrix is not symmetric")
        m = 0.5 * (m + mt)
        mints = _unimodular_integer_roundings(m)
        for i, mint in enumerate(mints):
            if mint is not None:
                m[i] = mint
        rest = [i for i, mint in enumerate(mints) if mint is None]
        if rest:
            dets = np.linalg.det(m[rest]).tolist()
            if not all(det > 0.0 for det in dets):
                raise GeometryError("gram matrix is not positive definite")
            # each det's 1/d power by C pow (Python's **); numpy's ** 0.5 takes
            # a sqrt, which may round the last bit differently
            m[rest] /= np.array([det ** (1.0 / d) for det in dets])[:, None, None]
            # the rescaled gram may round to a unimodular one: 4 I becomes
            # (1 + 2^-52) I, which is counted as I
            for i, mint in zip(rest, _unimodular_integer_roundings(m[rest])):
                mints[i] = mint
            floats = [i for i in rest if mints[i] is None]
            if floats:
                _cholesky_lower(m[floats])  # definiteness check
        for mint in mints:
            if mint is not None and any(_int_det([row[:k] for row in mint[:k]]) <= 0 for k in range(1, d)):
                raise GeometryError("gram matrix is not positive definite")
        return [QuadForm(d, g, mint) for g, mint in zip(m, mints)]

    @staticmethod
    def identity(d: int) -> "QuadForm":
        _check_dim(d)
        return QuadForm(d, np.eye(d), tuple(tuple(int(i == j) for j in range(d)) for i in range(d)))

    def evaluate(self, v) -> float:
        v = np.asarray(v, dtype=float)
        return float(v @ self.gram @ v)

    def solvable_rep(self) -> np.ndarray:
        """Lower triangular L, positive diagonal, with L^T L = gram."""
        return _reverse_cholesky(self.gram)


@dataclass(frozen=True, eq=False)
class GroupElement:
    """A d x d real matrix of determinant one."""

    dim: int
    mat: np.ndarray

    @staticmethod
    def from_matrix(mat) -> "GroupElement":
        m = np.array(mat, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise GeometryError(f"matrix must be square, got shape {m.shape}")
        d = m.shape[0]
        _check_dim(d)
        det = float(np.linalg.det(m))
        if abs(det - 1.0) > DET_TOL:
            raise GeometryError(f"matrix determinant {det} is not 1 within {DET_TOL}")
        return GroupElement(d, m)


@dataclass(frozen=True, eq=False)
class IwasawaCoord:
    """Solvable coordinates (t, a', n) of a form.

    t is the Busemann level along the first singular ray, aprime the
    log-diagonal of the A' block (length d-1, sums to zero; stored
    undoubled), n the strictly lower triangular part of the unit lower
    triangular factor.
    """

    t: float
    aprime: np.ndarray
    n: np.ndarray

    @property
    def dim(self) -> int:
        return self.n.shape[0]


def act(q: QuadForm, g: GroupElement) -> QuadForm:
    """Right action (Q.g)(v) = Q(gv); result renormalized to det 1."""
    if q.dim != g.dim:
        raise GeometryError(f"dimension mismatch: form {q.dim}, element {g.dim}")
    return QuadForm.from_gram(g.mat.T @ q.gram @ g.mat)


def geodesic_r(d: int, t: float) -> GroupElement:
    """diag(e^{lt/2}, ..., e^{lt/2}, e^{-mt/2}) with l,m the rates above."""
    _check_dim(d)
    lam, mu = rate_lambda(d), rate_mu(d)
    diag = [math.exp(0.5 * lam * t)] * (d - 1) + [math.exp(-0.5 * mu * t)]
    return GroupElement(d, np.diag(diag))


def geodesic_rho(d: int, t: float) -> GroupElement:
    """diag(e^{mt/2}, e^{-lt/2}, ..., e^{-lt/2})."""
    _check_dim(d)
    lam, mu = rate_lambda(d), rate_mu(d)
    diag = [math.exp(0.5 * mu * t)] + [math.exp(-0.5 * lam * t)] * (d - 1)
    return GroupElement(d, np.diag(diag))


def busemann_r(q: QuadForm) -> float:
    """Busemann function of the first ray: sqrt(d/(d-1)) * log Q(e_d)."""
    d = q.dim
    return math.sqrt(d / (d - 1)) * math.log(q.gram[d - 1, d - 1])


def busemann_rho(q: QuadForm) -> float:
    """Busemann function of the second ray: sqrt(d/(d-1)) * log det of the
    trailing (d-1) x (d-1) principal minor of the gram matrix."""
    d = q.dim
    minor = q.gram[1:, 1:]
    det = float(np.linalg.det(minor))
    if not det > 0.0:
        raise GeometryError("trailing principal minor is not positive definite")
    return math.sqrt(d / (d - 1)) * math.log(det)


def iwasawa_decompose(g: GroupElement) -> IwasawaCoord:
    """Solvable coordinates of SO(d).g.

    The unique lower triangular representative L with L^T L = gram
    factors as a_{-t} * diag(e^{a'}, 1) * n with n unit lower triangular.
    """
    if not isinstance(g, GroupElement):
        raise GeometryError(f"cannot decompose object of type {type(g)!r}")
    q = act(QuadForm.identity(g.dim), g)
    d = q.dim
    lam, mu = rate_lambda(d), rate_mu(d)
    lower = q.solvable_rep()
    diag = np.diagonal(lower).copy()
    t = 2.0 * math.log(diag[-1]) / mu
    aprime = np.log(diag[:-1]) + 0.5 * lam * t
    n = lower / diag[:, None]
    n = np.tril(n, k=-1)
    return IwasawaCoord(t=t, aprime=aprime, n=n)


def iwasawa_compose(coord: IwasawaCoord) -> GroupElement:
    """Inverse of iwasawa_decompose up to the SO(d) fiber."""
    d = coord.dim
    if coord.aprime.shape != (d - 1,):
        raise GeometryError("aprime length must be dim - 1")
    lam, mu = rate_lambda(d), rate_mu(d)
    diag = np.empty(d)
    diag[:-1] = np.exp(coord.aprime - 0.5 * lam * coord.t)
    diag[-1] = math.exp(0.5 * mu * coord.t)
    mat = diag[:, None] * (np.eye(d) + np.tril(coord.n, k=-1))
    return GroupElement(d, mat)


def chi_d(a: GroupElement) -> float:
    """Product of a_i/a_j over all ordered pairs j < i of diagonal entries.

    This is the Jacobian character of conjugation by a on the unit lower
    triangular group; the input must be diagonal.
    """
    m = a.mat
    d = a.dim
    off = m - np.diag(np.diagonal(m))
    if float(np.max(np.abs(off))) > 1e-12 * max(1.0, float(np.max(np.abs(m)))):
        raise GeometryError("chi_d requires a diagonal element")
    diag = np.diagonal(m)
    result = 1.0
    for i in range(d):
        for j in range(i):
            result *= diag[i] / diag[j]
    return float(result)


def zeta(d: int) -> float:
    """Riemann zeta at an integer d >= 2 by Euler-Maclaurin summation.

    The first ZETA_TERMS - 1 terms, then the integral, half the boundary
    term and the Bernoulli corrections B_2j / (2j)! d (d+1) ... (d+2j-2)
    N^{1-d-2j} at N = ZETA_TERMS; for N = 16 and j <= 6 the omitted
    remainder is below 1e-20 relative.
    """
    _check_dim(d)
    n = ZETA_TERMS
    terms = [k ** -float(d) for k in range(1, n)]
    terms += [n ** (1.0 - d) / (d - 1), 0.5 * n ** -float(d)]
    rising, factorial = float(d), 2.0  # d (d+1) ... (d+2j-2) and (2j)!
    for j, b in enumerate(_BERNOULLI, 1):
        terms.append(b / factorial * rising * n ** (1.0 - d - 2 * j))
        rising *= (d + 2 * j - 1) * (d + 2 * j)
        factorial *= (2 * j + 1) * (2 * j + 2)
    return math.fsum(terms)


@dataclass(frozen=True)
class Constants:
    """Dimension-dependent constants of the counting/equidistribution story.

    kappa_d (the horosphere-counting constant) is an absolute number only
    for d = 2 where vol(M_2) = 2*pi/3 is pinned; for d >= 3 only the ratio
    kappa_per_volume = kappa_d / vol(M_d) = omega_d / (2 zeta(d)) is
    well-defined and kappa_d is None.
    """

    d: int
    lam: float
    mu: float
    alpha: int
    omega: float
    zeta: float
    second_moment_factor: float  # 4 at d = 2, else 2: E D_R^2 <= this zeta(d) / vol(B_R)
    c_d: float
    kappa_d: float | None
    kappa_per_volume: float
    t_d: float
    exponent_interval: float  # L2-route rate sqrt((d-1)d)/4, holds on shrinking intervals
    exponent_pointwise: float  # all-t rate sqrt((d-1)d)/8
    exponent_edwards: float  # reference only: (1/4) sqrt(d/(d-1))
    exponent_rh: float | None  # reference only: 3 sqrt(2)/8, d = 2
    exponent_counting: float  # theta of the published full-count error O(R^theta)


@lru_cache(maxsize=None)
def constants(d: int) -> Constants:
    """All named constants for dimension d."""
    _check_dim(d)
    lam, mu = rate_lambda(d), rate_mu(d)
    alpha = 1 if d % 2 == 1 else 2
    try:
        omega = math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)
    except OverflowError as exc:
        raise GeometryError(f"dimension {d} is too large: pi^(d/2) / Gamma(d/2 + 1) "
                            "overflows a float") from exc
    z = zeta(d)
    zeta_factor = 4.0 if d == 2 else 2.0
    c_d = 2.0 * math.sqrt(zeta_factor * z / (d * (d - 1) * omega))
    kappa_per_volume = omega / (2.0 * z)
    kappa_d = kappa_per_volume * VOL_M2 if d == 2 else None
    sq = math.sqrt((d - 1) * d)
    t_d = (8.0 / sq) * math.log(0.75 * sq)
    return Constants(
        d=d,
        lam=lam,
        mu=mu,
        alpha=alpha,
        omega=omega,
        zeta=z,
        second_moment_factor=zeta_factor,
        c_d=c_d,
        kappa_d=kappa_d,
        kappa_per_volume=kappa_per_volume,
        t_d=t_d,
        exponent_interval=sq / 4.0,
        exponent_pointwise=sq / 8.0,
        exponent_edwards=0.25 * math.sqrt(d / (d - 1)),
        exponent_rh=3.0 * math.sqrt(2.0) / 8.0 if d == 2 else None,
        exponent_counting={2: 131.0 / 208.0, 3: 231.0 / 158.0, 4: 61.0 / 26.0}.get(d, float(d - 2)),
    )
