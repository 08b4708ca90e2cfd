"""Random unimodular lattices and the mean-square discrepancy check.

Two samplers:

  * sample_exact_d2 draws z = x + iy from the standard fundamental domain
    {|x| <= 1/2, |z| >= 1} with density proportional to 1/y^2 (exact, via
    inverse-CDF in y on the enclosing strip plus rejection on |z| >= 1)
    and returns the unimodular basis (1/sqrt(y)) * ((1, x), (0, y)).  The
    bases are made as one (n, 2, 2) array, batch of draws by batch, and
    sample_exact_d2 wraps each in a LatticeSample.
  * sample_walk runs a left random walk g <- exp(xi) g with Gaussian
    trace-zero increments of scale WALK_SIGMA.  Its stationary law on the
    quotient by the integer group is the invariant probability measure, so
    only integer-group-invariant observables may be consumed.  Basis matrices
    are coset representatives, not canonical forms: after every step
    g <- g u, with u (det u = +1) from the LLL reduction of the gram g^T g
    (quadform.lll_reduce), which keeps the representative well
    conditioned and leaves the coset g SL_d(Z) unchanged.  The increments
    are made WALK_CHUNK steps at a time, by one Gaussian draw, one trace
    removal and one scipy expm on the stack; they do not depend on g, and
    the draw reads the generator's stream in the order a step-by-step walk
    does, so the samples are those of one draw and one expm per step.  Only
    the product, the reduction and the renormalization to det 1 run step
    by step.  expm is imported when sample_walk has checked its arguments,
    not with the module, so a process that never walks never loads scipy.

The discrepancy observable counts primitive lattice points in a ball and
compares with the volume main term; mean_square_check Monte Carlos its
second moment against the inequality bound factor zeta(d)/vol(B), the
factor Constants.second_moment_factor (4 for d = 2, 2 for d >= 3).  It
works on stacks: it draws its samples once for all the radii it is
given, as one array of bases, forms every gram with one stacked product
b^T b, builds the forms with one QuadForm.from_grams call, counts every
sample at every radius in one latcount.count_primitive_many call, and
takes the squared discrepancies of each radius as one array.  The count
factors the samples' grams by one stacked Cholesky and keeps each gram
whose factor passes LLL's tests as it is, without an LLL call: every
exact d = 2 sample, which is Gauss-reduced, and in every run measured
every walk sample too, as the walk reduces its basis at each step.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .latcount import (CountingError, EllipsoidSpec, check_radius_budget, count_primitive_many,
                       count_primitive_moebius)
from .quadform import GroupElement, QuadForm, constants, lll_reduce

__all__ = [
    "LatticeSample",
    "MeanSquareReport",
    "sample_exact_d2",
    "sample_walk",
    "discrepancy",
    "mean_square_check",
]

Y_MIN = math.sqrt(3.0) / 2.0
FUNDAMENTAL_AREA = math.pi / 3.0  # hyperbolic area of {|x|<=1/2, |z|>=1}
WALK_CHUNK = 64  # walk steps whose increments are drawn and exponentiated in one call
WALK_SIGMA = 0.5  # scale of the walk's Gaussian trace-zero increments
MAX_SAMPLES = 400_000  # mean_square_check at R = 5 holds about 1.8 KB per d = 2 sample and
# 2.1 KB per d = 3 walk sample, 2.7 KB per d = 2 sample at R = 20 (tracemalloc), so an
# admitted check stays near 1 GB


@dataclass(frozen=True, eq=False)
class LatticeSample:
    basis: GroupElement  # columns span the lattice


@dataclass
class MeanSquareReport:
    d: int
    radius: float
    n_samples: int
    mean_d2: float
    std_error: float
    bound: float
    passed: bool
    degenerate: bool = False
    mean_e1sq: float = 0.0
    bound_e1sq: float = 0.0


def _exact_bases(rng: np.random.Generator, n: int) -> np.ndarray:
    """The bases of n exact d = 2 samples as one (n, 2, 2) array: each
    batch of draws is made, kept and turned into bases as arrays."""
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise CountingError(f"need an integer number of samples >= 1, got {n!r}")
    out = np.zeros((n, 2, 2))
    have = 0
    while have < n:
        m = max(n - have, 16)
        x = rng.uniform(-0.5, 0.5, size=m)
        y = Y_MIN / (1.0 - rng.random(size=m))
        keep = x * x + y * y >= 1.0
        x, y = x[keep][:n - have], y[keep][:n - have]
        s = 1.0 / np.sqrt(y)
        batch = out[have:have + len(s)]
        batch[:, 0, 0], batch[:, 0, 1], batch[:, 1, 1] = s, s * x, s * y
        have += len(s)
    return out


def sample_exact_d2(rng: np.random.Generator, n: int) -> list[LatticeSample]:
    """n exact samples from the normalized hyperbolic measure on the
    modular fundamental domain, returned as unimodular bases."""
    return [LatticeSample(basis=GroupElement(2, b)) for b in _exact_bases(rng, n)]


def sample_walk(rng: np.random.Generator, d: int, burn_in: int = 200, thin: int = 10,
                n: int = 100) -> list[LatticeSample]:
    """Random-walk samples of unimodular lattices in dimension d."""
    if d < 2:
        raise CountingError("dimension must be >= 2")
    if burn_in < 100:
        raise CountingError("burn_in must be >= 100")
    if thin < 1 or n < 1:
        raise CountingError("thin and n must be >= 1")
    # about 0.37 s to import, and only a valid walk needs it
    from scipy.linalg import expm
    eye = np.eye(d)
    g = eye
    out = []
    total = burn_in + thin * n
    for start in range(0, total, WALK_CHUNK):
        # the last chunk draws only the steps left, so rng ends where a
        # step-by-step walk would leave it
        xi = WALK_SIGMA * rng.standard_normal((min(WALK_CHUNK, total - start), d, d))
        xi -= (np.trace(xi, axis1=1, axis2=2) / d)[:, None, None] * eye
        for step, e in enumerate(expm(xi), start):
            g = e @ g
            u, _ = lll_reduce(g.T @ g)
            g = g @ np.array(u, dtype=float)
            det = float(np.linalg.det(g))
            g = g / abs(det) ** (1.0 / d)
            if step >= burn_in and (step - burn_in) % thin == thin - 1:
                out.append(LatticeSample(basis=GroupElement(d, g.copy())))
    return out


def _discrepancy(n1, d: int, radius: float):
    """|zeta(d) n1 / vol(B_R) - 1| of one count or of an array of counts."""
    cst = constants(d)
    vol = cst.omega * radius ** d
    return np.abs(cst.zeta * n1 / vol - 1.0)


def discrepancy(sample: LatticeSample, radius: float) -> float:
    """|zeta(d) * #(primitive lattice points in B_R) / vol(B_R) - 1|."""
    g = sample.basis.mat
    form = QuadForm.from_gram(g.T @ g)
    res = count_primitive_moebius(EllipsoidSpec(form, radius))
    return float(_discrepancy(res.n1, sample.basis.dim, radius))


def _report(d: int, radius: float, counts) -> MeanSquareReport:
    n1 = np.array([res.n1 for res in counts], dtype=float)
    # float_power is C pow, as Python's ** 2 on each discrepancy
    dsq = np.float_power(_discrepancy(n1, d, radius), 2)
    mean = float(np.mean(dsq))
    cst = constants(d)
    vol = cst.omega * radius ** d
    bound = cst.second_moment_factor * cst.zeta / vol
    degenerate = len(dsq) < 2
    se = 0.0 if degenerate else float(np.std(dsq, ddof=1) / math.sqrt(len(dsq)))
    passed = bool(mean - 2.0 * se <= bound) and not degenerate
    e1_factor = (vol / cst.zeta) ** 2
    return MeanSquareReport(
        d=d, radius=radius, n_samples=len(dsq), mean_d2=mean, std_error=se,
        bound=bound, passed=passed, degenerate=degenerate,
        mean_e1sq=mean * e1_factor, bound_e1sq=bound * e1_factor,
    )


def mean_square_check(d: int, radius: float | Sequence[float], n_samples: int,
                      sampler: str = "exact", seed: int = 0, burn_in: int = 200,
                      thin: int = 10) -> MeanSquareReport | list[MeanSquareReport]:
    """Monte Carlo of the mean squared discrepancy against the bound.

    passed means mean - 2 * standard_error <= bound; with a single sample
    the standard error is undefined and the report is flagged degenerate.
    A radius every form would refuse, over MAX_SAMPLES samples or a
    negative seed is refused before any sample is drawn.
    A float radius gives one report.  A sequence of radii gives one report
    per radius, in order, all from the same samples, which one
    count_primitive_many call counts at every radius.
    """
    radii = [radius] if np.ndim(radius) == 0 else list(radius)
    if not all(r > 0 for r in radii):
        raise CountingError("radius must be positive")
    check_radius_budget(d, max(radii))
    if not (n_samples <= MAX_SAMPLES and seed >= 0):
        raise CountingError(f"need at most {MAX_SAMPLES} samples and a seed >= 0, "
                            f"got {n_samples} and {seed}")
    rng = np.random.default_rng(seed)
    if sampler == "exact":
        if d != 2:
            raise CountingError("the exact sampler is only available for d = 2")
        bases = _exact_bases(rng, n_samples)
    elif sampler == "walk":
        bases = np.array([s.basis.mat for s in sample_walk(rng, d, burn_in=burn_in, thin=thin,
                                                           n=n_samples)])
    else:
        raise CountingError(f"unknown sampler {sampler!r}")
    # the stacked product equals each basis's own b.T @ b bit for bit
    forms = QuadForm.from_grams(bases.transpose(0, 2, 1) @ bases)
    counts = count_primitive_many(forms, radii)
    reports = [_report(d, r, res) for r, res in zip(radii, counts)]
    return reports[0] if np.ndim(radius) == 0 else reports
