"""Determinantal point processes: reduced Palm distributions, couplings of
a DPP with its Palm process, and the repulsiveness measures they induce.

The public names are those in the `__all__` of each library module; the
command-line module `palmdpp.cli` is imported on its own."""

from .analysis import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .finite_dpp import *  # noqa: F401,F403
from .kernel_core import *  # noqa: F401,F403
from .model_zoo import *  # noqa: F401,F403
from .numerics import *  # noqa: F401,F403

__version__ = "0.1.0"
