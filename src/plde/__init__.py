"""Denominator bounds for rational solutions of multivariate linear
difference equations with polynomial coefficients."""

from .bounds import (BoundReport, StripResult, combined_bound, dispersion_bound, module_bound,
                     strip_rewrite)
from .equation import PLDE, load_equation
from .factored import FactoredPoly
from .geometry import SupportGeometry
from .lattice import (IntLattice, ShiftCoset, UnimodularMatrix, orthogonal_complement_lattice,
                      saturation)
from .polyring import (InvariantError, Poly, RationalFunction, divide_exact, format_poly,
                       normalize_primitive, parse_poly, parse_rational)
from .spread import NEG_INFINITY, ShiftOrbits, invariance_lattice, shift_equiv, shift_orbit
from .transform import transform_equation
from .verify import check_bound_covers, check_solution

__version__ = "0.1.0"
