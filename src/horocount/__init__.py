"""Lattice point counting in ellipsoids and the horospherical dictionary.

Library layout:

  quadform  -- forms, group elements, the geodesic ray and its Busemann
               function, named constants
  latcount  -- exact/float counting of (primitive) lattice points and
               the Moebius table
  moebius   -- the full/primitive inversion identities
  orbits    -- chimney and horosphere counting with decay-exponent fits
  equidist  -- horospherical averages, decay checks, locator
  randlat   -- random unimodular lattices and the mean-square bound
  cli       -- the ``horocount`` command line front end

The package re-exports the ``__all__`` of each library module above, so
each module alone decides its public names.
"""

from .quadform import *
from .latcount import *
from .moebius import *
from .orbits import *
from .equidist import *
from .randlat import *

__version__ = "0.1.0"
