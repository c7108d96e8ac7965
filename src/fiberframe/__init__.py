"""Finite complex frames as points on momentum-map fibers.

A frame is a spanning k x N complex matrix. Fixing the frame operator F F*
and the squared column norms pins a fiber inside frame space; this package
verifies the underlying symplectic/momentum identities, decides when a fiber
is non-empty, constructs frames on it, repairs nearby frames onto it, and
traces explicit on-fiber paths between two frames sharing a fiber.
"""

import sys as _sys

from .core import *
from .errors import *
from .fiber import *
from .fileio import *
from .flows import *
from .equivalence import *
from .homotopy import *
from .momentum import *
from .design import *

__version__ = "0.1.0"

# Each public name is declared once, in its module's __all__. The function
# momentum takes its submodule's name here, so the submodules are read from
# sys.modules.
__all__ = ["__version__"] + [
    name
    for module in ("core", "errors", "fiber", "fileio", "flows", "equivalence", "homotopy", "momentum", "design")
    for name in _sys.modules[f"{__name__}.{module}"].__all__
]
