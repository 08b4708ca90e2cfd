"""The shell/error inversion identities between full and primitive counts.

The two report functions check the identities that transport counting
results between the full lattice and its primitive vectors, the shell
form in exact integer arithmetic (forms with an integer gram,
QuadForm.mint) and the error form against a float rounding budget.  The
counts and the Moebius table (sieve, re-exported here) come from
latcount:

  * shell form:  r0(x) = sum_{k^2 | x} r1(x/k^2)  and its inverse
    r1(x) = sum_{k^2 | x} mu(k) r0(x/k^2).  latcount bins one exact
    enumeration into the arrays r0, r1 over the levels 0..R^2; adding
    r1 (and mu(k) r0) into every k^2-th entry for each k <= R gives both
    right-hand sides at every level in O(R^2) array work;
  * error form:  E1(R) = sum_{k<=K} mu(k) (E0(R/k) - 1)
                   - omega R^d sum_{k>K} mu(k)/k^d
    (and the non-inverted partner), over latcount.n0_series, exact iff
    the form has an integer gram.  The "- 1" removes the origin, which the
    volume-normalized error term E0 = N0 - omega R^d retains.  Any K past
    the last k with N0(R/k) > 1 makes it exact; the check takes that last
    k, but at least floor(R), so a form with vectors shorter than 1 sums
    further than R.  The tails over k > K are taken in closed form,
    zeta(d) and 1/zeta(d) minus the finite heads, so they carry rounding
    error only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .latcount import CountingError, EllipsoidSpec, n0_series, shell_table, sieve
from .quadform import constants, zeta

__all__ = [
    "sieve",
    "InversionReport",
    "verify_inversion",
    "ErrorRelationReport",
    "error_relation_check",
    "mu_tail",
    "zeta_tail",
]


@dataclass
class InversionReport:
    ok: bool
    levels_checked: int
    first_violation: dict | None = None


def verify_inversion(spec: EllipsoidSpec) -> InversionReport:
    """Check both shell identities exactly at all integer levels <= R^2.

    Requires a form with an integer gram of determinant one
    (QuadForm.mint), so that the value set is integral.  Both right-hand
    sides are built from latcount's shell table by adding r1 and
    mu(k) r0 into every k^2-th entry, for k <= sqrt(R^2).
    """
    if spec.form.mint is None:
        raise CountingError("shell inversion requires an integer gram matrix of determinant one")
    top = math.floor(spec.radius ** 2)
    r0, r1 = shell_table(spec.form, top)
    mu = sieve(max(math.isqrt(top), 1))
    rhs0, rhs1 = np.zeros_like(r0), np.zeros_like(r1)
    for k in range(1, math.isqrt(top) + 1):
        n = top // (k * k) + 1
        rhs0[:: k * k] += r1[:n]
        rhs1[:: k * k] += int(mu[k]) * r0[:n]
    bad0, bad1 = r0 != rhs0, r1 != rhs1
    bad = np.flatnonzero((bad0 | bad1)[1:])
    if len(bad) == 0:
        return InversionReport(True, top)
    x = int(bad[0]) + 1
    name, lhs, rhs = ("r0_from_r1", r0, rhs0) if bad0[x] else ("r1_from_r0", r1, rhs1)
    return InversionReport(False, x, {"level": x, "identity": name,
                                      "lhs": int(lhs[x]), "rhs": int(rhs[x])})


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
    mu = sieve(max(k0, 1))
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


def error_relation_check(spec: EllipsoidSpec) -> ErrorRelationReport:
    """Evaluate both error-transport identities and report the residuals.

    The sums run to K, the last k with N0(R/k) > 1 but at least floor(R),
    and both closed-form tails start after K.  latcount.n0_series gives
    N0(R/n) for every n up to max(floor(R), the primitive count's K) from
    one walk, past which N0(R/n) = 1, and
    N1(R/k) = sum_j mu(j) (N0(R/(kj)) - 1) is read off that one list.

    The residual budget combines the tails' rounding allowances, scaled by
    their coefficients, with a d * 1000 * ulp float allowance on the
    dominant scale.
    """
    d = spec.form.dim
    r = spec.radius
    cst = constants(d)
    main = cst.omega * r ** d

    n0 = n0_series(spec)  # N0(R/n), n = 1 .. plan; N0(R/n) = 1 past plan
    plan = len(n0)
    kmax = max(math.floor(r), int(np.count_nonzero(n0 > 1)))  # N0(R/n) is nonincreasing in n
    mu = sieve(plan)
    # N1(R/k) = sum_j mu(j) (N0(R/(kj)) - 1), whose terms vanish past kj = plan
    n1 = [int(mu[1 : plan // k + 1] @ (n0[k - 1 :: k] - 1)) for k in range(1, max(kmax, 1) + 1)]
    e0_r, e1_r = int(n0[0]) - main, n1[0] - main / cst.zeta
    # E0(R/k) and E1(R/k) for k = 1 .. K
    e0 = [int(n0[k - 1]) - cst.omega * (r / k) ** d for k in range(1, kmax + 1)]
    e1 = [n1[k - 1] - cst.omega * (r / k) ** d / cst.zeta for k in range(1, kmax + 1)]
    z_tail, z_w = zeta_tail(d, kmax)
    m_tail, m_w = mu_tail(d, kmax)

    rhs_e0 = sum(e1) - (cst.omega / cst.zeta) * r ** d * z_tail
    residual_e0 = abs((e0_r - 1.0) - rhs_e0)

    rhs_e1 = sum(int(mu[k]) * (x - 1.0) for k, x in enumerate(e0, 1)) - main * m_tail
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
