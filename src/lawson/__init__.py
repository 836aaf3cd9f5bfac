"""Minimal tori and Klein bottles in the 5-sphere.

Constructs the three-parameter family of minimally immersed tori and
Klein bottles, classifies each surface (topology, covering degree,
extremal eigenvalue index, functional value), and verifies every closed
form numerically: elliptic-integral areas, the Lame-equation residuals,
the Laplace-eigenfunction property of the immersion, and an independent
Sturm-Liouville recount of the eigenvalue index.
"""

from .elliptic import *
from .errors import *
from .spectral import *
from .surface import *
from .verify import *

__version__ = "0.1.0"

__all__ = (elliptic.__all__ + errors.__all__ + spectral.__all__
           + surface.__all__ + verify.__all__)
