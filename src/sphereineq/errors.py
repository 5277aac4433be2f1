"""Exception types shared across the package, and the scalar argument check.

The command line front end maps these onto process exit codes, so library
code should raise the most specific type that applies rather than a bare
ValueError or RuntimeError.
"""

import math


class ValidationError(ValueError):
    """Inputs outside the admissible parameter ranges."""


class InvariantViolation(RuntimeError):
    """A mathematical invariant that should hold numerically failed."""


class ConvergenceError(RuntimeError):
    """An iterative solver did not reach its target tolerance."""


def check_real(name: str, x, low: float = -math.inf, strict: bool = False) -> float:
    """float(x), rejected unless finite and >= low (> low when strict)."""
    x = float(x)
    if math.isfinite(x) and (x > low if strict else x >= low):
        return x
    if low == -math.inf:
        bound = ""
    elif low == 0.0:
        bound = " and positive" if strict else " and nonnegative"
    else:
        bound = f" and {'>' if strict else '>='} {low:g}"
    raise ValidationError(f"{name} must be finite{bound}, got {x}")
