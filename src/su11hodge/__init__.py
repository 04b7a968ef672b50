"""Exact invariant-form and Hodge-filtration computations for SU(1,1).

Harish-Chandra modules on explicit weight bases, the sl(2) action, Hodge
and weight filtrations, invariant hermitian forms by exact meromorphic
continuation, and unitarity classification, all with rational sign
tracking (floats carry magnitudes only).
"""

from .exact import *
from .modules import *
from .filtrations import *
from .forms import *
from .analysis import *

__all__ = (exact.__all__ + modules.__all__ + filtrations.__all__ + forms.__all__
           + analysis.__all__)

__version__ = "0.1.0"
