"""Exact-arithmetic toolkit for lonely runner instances.

Decides whether integer speed vectors admit a time at which every
runner keeps distance 1/(k+1) from the start, using exact rational
arithmetic throughout: an interval-sweep oracle, the runner polyhedron
and its planar integer-point cell, integer sufficient-condition rules, a dyadic
grid search, and a census sweep over all speed subsets of {1..N}.

Each library module declares its public names in its own ``__all__``;
the package re-exports exactly their union.
"""

from . import classify, dyadic, enumeration, model, oracle, polyhedron

__all__ = classify.__all__ + dyadic.__all__ + enumeration.__all__ + model.__all__ + oracle.__all__ + polyhedron.__all__

# The star imports come after __all__ is built, because the classify
# function they bind shadows the classify submodule.
from .classify import *  # noqa: E402
from .dyadic import *  # noqa: E402
from .enumeration import *  # noqa: E402
from .model import *  # noqa: E402
from .oracle import *  # noqa: E402
from .polyhedron import *  # noqa: E402

__version__ = "0.1.0"
