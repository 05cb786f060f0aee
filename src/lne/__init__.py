"""Scale-invariant logarithmic norm entropy and friends.

A numerics library for generalized entropy on finite state spaces: the
two-parameter logarithmic norm entropy and its cross-entropy, the
classical families they generalize (Shannon, Renyi, Tsallis, Kapur,
norm, Aczel-Daroczy), q-deformed calculus, and constrained MaxEnt /
minimum-cross-entropy solvers under normalized q-expectation
constraints.
"""

from . import crossent, entropy, numkit, optimize, qdeform
from .numkit import *
from .qdeform import *
from .entropy import *
from .crossent import *
from .optimize import *

__version__ = "0.1.0"

__all__ = [*numkit.__all__, *qdeform.__all__, *entropy.__all__, *crossent.__all__, *optimize.__all__]
