"""Exception types shared across the library and mapped to CLI exit codes,
and the input gates of every module: sites, counts, seeds, resolutions and
dimensions are integers (Python or numpy; 2.0, "2" and True are refused
with param-bound), a Palm anchor needs K(u, u) > 1e-12, check_finite refuses inf and nan, and
named_overflow names the quantity where Python's float arithmetic overflows."""
from __future__ import annotations

import numpy as np

__all__ = [
    "TOKENS",
    "QuadratureError",
    "ValidationError",
    "ParseError",
    "SizeGuardError",
    "TheoremViolationError",
    "check_anchor",
    "check_count",
    "check_finite",
    "check_site",
    "named_overflow",
]

# the token of every exit-2 line; overflow marks an OverflowError (check_finite)
TOKENS = ("non-hermitian", "spectrum", "existence-bound", "param-bound", "anchor",
          "quadrature", "overflow")


class ValidationError(ValueError):
    """A kernel or model violates one of its defining conditions.

    token names the violated condition for diagnostics, one of TOKENS;
    any other is refused.
    """

    def __init__(self, token: str, message: str):
        if token not in TOKENS:
            raise ValueError(f"unknown validation token {token!r}")
        super().__init__(message)
        self.token = token


class QuadratureError(ValidationError):
    """Radial quadrature cannot give a result: the integral diverges, or
    the declared tail is not asymptotic at the truncation radius.  It is
    the ValidationError whose token is quadrature."""

    def __init__(self, message: str):
        super().__init__("quadrature", message)


class ParseError(ValueError):
    """A kernel specification file could not be parsed."""


class SizeGuardError(ValueError):
    """An exact-law or coupling operation was requested beyond its size bound."""


class TheoremViolationError(RuntimeError):
    """A coupling that must exist was found infeasible.

    This cannot happen for a valid kernel; seeing it means a bug or a
    numerically broken input, so the full context is carried along.
    """

    def __init__(self, message: str, dump: dict | None = None):
        super().__init__(message)
        self.dump = dump or {}


def _is_integer(value) -> bool:
    """An int or numpy integer, but not a bool, which Python counts as an int."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_count(what: str, value, minimum: int) -> int:
    """value as an int: a count, resolution or dimension, an integer >= minimum."""
    if not (_is_integer(value) and value >= minimum):
        raise ValidationError("param-bound",
                              f"{what} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def check_site(u, n: int) -> int:
    """u as an int: a site, an integer in 1..n."""
    if not (_is_integer(u) and 1 <= u <= n):
        raise ValidationError("param-bound", f"site {u!r} is not one of the integers 1..{n}")
    return int(u)


def check_anchor(kuu: float, u) -> float:
    """kuu = K(u, u), unless it vanishes (X^u needs K(u, u) > 0) or is nan,
    which is an overflow on the way to it; an infinite K(u, u) passes."""
    if not kuu > 1e-12:
        check_finite(kuu, f"K(u, u) at the anchor {u}")
        raise ValidationError("anchor", f"kernel intensity vanishes at the anchor {u} "
                              f"(K(u,u) = {kuu:.3e})")
    return kuu


def check_finite(value, what: str):
    """value, unless some entry is inf or nan: the library's one OverflowError,
    which the command line prints as validation-error[overflow]."""
    if not np.isfinite(value).all():
        raise OverflowError(f"{what} is not finite")
    return value


def named_overflow(compute, what: str):
    """compute(), a value in Python's float arithmetic, bit for bit; where that
    raises OverflowError or ZeroDivisionError (numpy would give inf or nan),
    check_finite's naming what.

    Every float power and Gamma value that can leave double precision goes
    through it: the quadrature's scale factors, the Ginibre and thinning
    amplitudes, the closed-form Ginibre moment and the sphere's surface
    measure."""
    try:
        return compute()
    except (OverflowError, ZeroDivisionError):
        return check_finite(np.inf, what)
