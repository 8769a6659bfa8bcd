"""Determinantal point processes: reduced Palm distributions, couplings of
a DPP with its Palm process, and the repulsiveness measures they induce.

The public names are those in the `__all__` of each library module; the
command-line module `palmdpp.cli` is imported on its own.

scipy serves only special functions and max-flow; every eigendecomposition
is numpy's `eigh`, and no `scipy.integrate` is imported.  Importing palmdpp
loads no scipy: each scipy submodule is imported inside the code that calls
it, on first use.  `scipy.sparse` comes with the max-flow of
`finite_dpp.couple`.  `scipy.special` comes with the Gaussian tail of
radial quadrature (Ginibre `repulsiveness_p` and moments), with the jinc
kernel's J1, with the Ginibre grid factor, and with the chi-square p-value
of `analysis.mc_validate_coupling`.  So `validate` on every family, and
finite, sphere and sinc `repulsiveness` and `sample`, load no scipy."""

from .analysis import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .finite_dpp import *  # noqa: F401,F403
from .kernel_core import *  # noqa: F401,F403
from .model_zoo import *  # noqa: F401,F403
from .numerics import *  # noqa: F401,F403

__version__ = "0.1.0"
