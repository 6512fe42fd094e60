"""Exact intersection calculus on the product of a curve with its Jacobian.

Rank-3 Neron-Severi coordinates, the top intersection form, positivity-cone
classification, height functionals, and closed-form successive minima with
an exact audit of the two successive-minima inequalities.
"""

# Each submodule's __all__ is the one list of its public names.
from .cones import *
from .heights import *
from .lattice import *
from .minima import *

__version__ = "0.1.0"

__all__ = cones.__all__ + heights.__all__ + lattice.__all__ + minima.__all__
