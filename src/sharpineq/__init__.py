"""Numerical verification of sharp uncertainty-type inequalities.

Minkowski norm duality on flat n-space, radial quadrature with Monte Carlo
cross-checks, sharp-constant and extremal-family certificates for the
interpolation, Heisenberg-Pauli-Weyl and Hardy inequalities, and their
curvature-improved counterparts on the Poincare ball.
"""

from .norms import *
from .quadrature import *
from .flat import *
from .hyperbolic import *

__version__ = "0.1.0"
