"""Lattice point counting in ellipsoids and the horospherical dictionary.

Library layout:

  quadform  -- forms, group elements, geodesics, Busemann functions,
               Iwasawa coordinates, named constants
  latcount  -- exact/float counting of (primitive) lattice points and
               the Moebius table
  moebius   -- the full/primitive inversion identities
  orbits    -- chimney and horosphere counting with decay-exponent fits
  equidist  -- horospherical averages, decay checks, locator
  randlat   -- random unimodular lattices and the mean-square bound
  cli       -- the ``horocount`` command line front end
"""

from .quadform import (
    Constants,
    GeometryError,
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
    phi_t,
    zeta,
)
from .latcount import (
    CountResult,
    CountingError,
    EllipsoidSpec,
    count_full,
    count_primitive_direct,
    count_primitive_many,
    count_primitive_moebius,
    error_terms,
    sieve,
)
from .moebius import error_relation_check, verify_inversion
from .orbits import (
    ChimneyCount,
    DecayFit,
    fit_error_exponent,
    radius_of_t,
    stabilizer_order,
    t_of_radius,
)
from .equidist import (
    HoroAverage,
    QuadratureSpec,
    RadialProfile,
    bump_profile,
    check_thm12_bound,
    decay_series,
    eval_test_function,
    fiber_integral,
    good_t_locator,
    horosphere_average,
    horosphere_averages,
    indicator_profile,
    space_average,
)
from .randlat import (
    LatticeSample,
    MeanSquareReport,
    discrepancy,
    mean_square_check,
    sample_exact_d2,
    sample_walk,
)

__version__ = "0.1.0"
