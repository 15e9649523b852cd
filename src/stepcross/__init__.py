"""Step hyperbolic cross approximation for periodic functions whose mixed
smoothness is measured by a power-log majorant.

The package republishes the ``__all__`` of each of its modules."""

from .errors import *
from .majorant import *
from .indexsets import *
from .trigpoly import *
from .kernels import *
from .besov import *
from .extremal import *
from .approx import *
from .polyio import *
from .verify import *

__version__ = "0.1.0"
