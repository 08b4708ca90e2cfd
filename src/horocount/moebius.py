"""Moebius sieve and the shell/error inversion identities.

The sieve table backs primitive counting; the two report functions check
the identities that transport counting results between the full lattice
and its primitive vectors, the shell form in exact integer arithmetic
(forms with an integer gram, QuadForm.mint) and the error form against a
float rounding budget:

  * shell form:  r0(x) = sum_{k^2 | x} r1(x/k^2)  and its inverse
    r1(x) = sum_{k^2 <= x} mu(k) r0(x/k^2);
  * error form:  E1(R) = sum_{k<=R} mu(k) (E0(R/k) - 1)
                   - omega R^d sum_{k>R} mu(k)/k^d
    (and the non-inverted partner).  The "- 1" removes the origin, which
    the volume-normalized error term E0 = N0 - omega R^d retains.  The
    tails over k > R are taken in closed form, zeta(d) and 1/zeta(d)
    minus the finite heads, so they carry rounding error only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .latcount import CountingError, EllipsoidSpec, count_primitive_moebius, enumerate_points
from .quadform import constants, zeta

__all__ = [
    "MoebiusTable",
    "sieve",
    "InversionReport",
    "verify_inversion",
    "ErrorRelationReport",
    "error_relation_check",
    "mu_tail",
    "zeta_tail",
]


@dataclass(frozen=True, eq=False)
class MoebiusTable:
    limit: int
    mu: np.ndarray  # int8, index 0..limit, mu[0] = 0

    def mertens(self, n: int) -> int:
        return int(self.mu[1 : n + 1].sum())


@lru_cache(maxsize=8)
def sieve(limit: int) -> MoebiusTable:
    """Moebius function on 1..limit by a vectorized factor sieve."""
    if limit < 1:
        raise CountingError("sieve limit must be >= 1")
    mu = np.ones(limit + 1, dtype=np.int64)
    mu[0] = 0
    tracked = np.ones(limit + 1, dtype=np.int64)
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
    leftover = tracked < np.arange(limit + 1)
    mu[leftover] *= -1
    return MoebiusTable(limit=limit, mu=mu.astype(np.int8))


@dataclass
class InversionReport:
    ok: bool
    levels_checked: int
    first_violation: dict | None = None


def verify_inversion(spec: EllipsoidSpec) -> InversionReport:
    """Check both shell identities exactly at all integer levels <= R^2.

    Requires a form with an integer gram of determinant one
    (QuadForm.mint), so that the value set is integral.
    """
    if spec.form.mint is None:
        raise CountingError("shell inversion requires an integer gram matrix of determinant one")
    top = math.floor(spec.radius ** 2)
    pts, vals = enumerate_points(spec.form, top, mode="exact")
    vals = vals.astype(np.int64)
    prim = np.gcd.reduce(np.abs(pts), axis=1) == 1
    r0 = np.bincount(vals, minlength=top + 1)
    r1 = np.bincount(vals[prim], minlength=top + 1)
    table = sieve(max(math.isqrt(top), 1))
    for x in range(1, top + 1):
        lhs0 = int(r0[x])
        rhs0 = 0
        rhs1 = 0
        k = 1
        while k * k <= x:
            if x % (k * k) == 0:
                rhs0 += int(r1[x // (k * k)])
                rhs1 += int(table.mu[k]) * int(r0[x // (k * k)])
            k += 1
        if lhs0 != rhs0:
            return InversionReport(False, x, {"level": x, "identity": "r0_from_r1",
                                              "lhs": lhs0, "rhs": rhs0})
        if int(r1[x]) != rhs1:
            return InversionReport(False, x, {"level": x, "identity": "r1_from_r0",
                                              "lhs": int(r1[x]), "rhs": rhs1})
    return InversionReport(True, top)


def zeta_tail(d: int, r: float):
    """sum_{k > r} k^{-d} = zeta(d) - sum_{k <= r} k^{-d}, as (value,
    half-width).

    The half-width is a rounding allowance of one ulp of 1 per term of the
    head (each a power within one ulp of itself) and two for zeta(d) and
    the final roundings; the head is summed with math.fsum.
    """
    k0 = math.floor(r)
    head = math.fsum(k ** -float(d) for k in range(1, k0 + 1))
    return zeta(d) - head, (k0 + 2) * math.ulp(1.0)


def mu_tail(d: int, r: float):
    """sum_{k > r} mu(k) k^{-d} = 1/zeta(d) - sum_{k <= r} mu(k) k^{-d}, as
    (value, half-width), with the half-width of zeta_tail."""
    k0 = math.floor(r)
    mu = sieve(max(k0, 1)).mu
    head = math.fsum(int(mu[k]) * k ** -float(d) for k in range(1, k0 + 1))
    return 1.0 / zeta(d) - head, (k0 + 2) * math.ulp(1.0)


@dataclass
class ErrorRelationReport:
    d: int
    radius: float
    residual_full_from_primitive: float
    residual_primitive_from_full: float
    budget: float
    ok: bool
    details: dict = field(default_factory=dict)


def error_relation_check(spec: EllipsoidSpec, mode: str = "auto") -> ErrorRelationReport:
    """Evaluate both error-transport identities and report the residuals.

    The residual budget combines the tails' rounding allowances, scaled by
    their coefficients, with a d * 1000 * ulp float allowance on the
    dominant scale.
    """
    d = spec.form.dim
    r = spec.radius
    cst = constants(d)
    main = cst.omega * r ** d

    kmax = math.floor(r)
    e0 = {}
    e1 = {}
    for k in range(1, kmax + 1):
        sub = EllipsoidSpec(spec.form, r / k)
        res = count_primitive_moebius(sub, mode=mode)
        e0[k] = res.n0 - cst.omega * (r / k) ** d
        e1[k] = res.n1 - cst.omega * (r / k) ** d / cst.zeta
    if kmax >= 1:
        e0_r, e1_r = e0[1], e1[1]
    else:
        e0_r, e1_r = 1.0 - main, -main / cst.zeta

    z_tail, z_w = zeta_tail(d, r)
    m_tail, m_w = mu_tail(d, r)
    table = sieve(max(kmax, 1))

    rhs_e0 = sum(e1[k] for k in e1) - (cst.omega / cst.zeta) * r ** d * z_tail
    residual_e0 = abs((e0_r - 1.0) - rhs_e0)

    rhs_e1 = sum(int(table.mu[k]) * (e0[k] - 1.0) for k in e0) - main * m_tail
    residual_e1 = abs(e1_r - rhs_e1)

    scale = max(main, 1.0)
    budget = main * m_w + (cst.omega / cst.zeta) * r ** d * z_w + d * 1e3 * math.ulp(scale)
    ok = residual_e0 <= budget and residual_e1 <= budget
    return ErrorRelationReport(
        d=d,
        radius=r,
        residual_full_from_primitive=residual_e0,
        residual_primitive_from_full=residual_e1,
        budget=budget,
        ok=ok,
        details={"e0": e0_r, "e1": e1_r},
    )
