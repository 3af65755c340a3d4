"""Calculus of positive complex symplectic matrices and their operators.

The package is organized in layers: validated matrix structure and token
words (:mod:`~metaplectic.sympcore`), the exact action on Gaussian states
(:mod:`~metaplectic.gausscalc`), sampled cross-validation on centered grids
(:mod:`~metaplectic.gridlab`), covariant time-frequency representations
(:mod:`~metaplectic.tfrzoo`), flows of complex quadratic Hamiltonians with
norm bounds (:mod:`~metaplectic.evoprop`), serialization
(:mod:`~metaplectic.formats`) and the command line driver
(:mod:`~metaplectic.cli`).  The package namespace is the exception classes
and the ``__all__`` of the five layers; ``formats`` and ``cli`` are imported
by name.
"""

__version__ = "0.1.0"

from .errors import *
from .sympcore import *
from .gausscalc import *
from .gridlab import *
from .tfrzoo import *
from .evoprop import *
