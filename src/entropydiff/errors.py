"""Shared exception vocabulary.

Every numeric failure mode in the library raises one of these, so callers
(and the CLI) can map failures to machine-readable error codes instead of
pattern-matching message strings.
"""


class EntropyDiffError(Exception):
    """Base class for all library errors."""

    code = "error"


class ExpressionParseError(EntropyDiffError, ValueError):
    """Input text does not conform to the expression grammar."""

    code = "parse"


class PoleAtPoint(EntropyDiffError, ArithmeticError):
    """Expression evaluation hit a genuine pole at the requested point."""

    code = "pole-at-point"


class OrderOverflow(EntropyDiffError, ValueError):
    """Requested jet order above the supported maximum."""

    code = "order-overflow"


class DegeneratePoint(EntropyDiffError, ArithmeticError):
    """Conformal factor underflows or overflows: the immersion degenerates."""

    code = "degenerate-point"


class UmbilicPoint(EntropyDiffError, ArithmeticError):
    """Entropy coefficient requested at an umbilic point (double pole)."""

    code = "umbilic-point"


class CriticalPoint(EntropyDiffError, ArithmeticError):
    """Schwarzian derivative requested where the map is critical (G' = 0)."""

    code = "critical-point"


class NotUnimodular(EntropyDiffError, ValueError):
    """Matrix argument is not in SL(2, C)."""

    code = "not-unimodular"


class StepFailure(EntropyDiffError, ArithmeticError):
    """Adaptive ODE stepper could not meet its tolerance."""

    code = "step-failure"


class PoleOnPath(EntropyDiffError, ArithmeticError):
    """Integrand or coefficient has a pole on the integration path."""

    code = "pole-on-path"


class PoleOnCircle(EntropyDiffError, ArithmeticError):
    """Pole-probe circle passes through a singularity."""

    code = "pole-on-circle"


class GridTooCoarse(EntropyDiffError, ValueError):
    """Fewer grid nodes than the stencil needs."""

    code = "grid-too-coarse"


class GridMismatch(EntropyDiffError, ValueError):
    """Fields defined on different grids were combined."""

    code = "grid-mismatch"


class NoConvergence(EntropyDiffError, ArithmeticError):
    """Adaptive quadrature exhausted its panel budget."""

    code = "no-convergence"


class NonpositiveCurvature(EntropyDiffError, ValueError):
    """Entropy functional requires K > 0 on the domain."""

    code = "nonpositive-curvature"


class ZeroCurvature(EntropyDiffError, ValueError):
    """Conformal-power map requires K != 0 on the grid."""

    code = "zero-curvature"


class UmbilicOnGrid(EntropyDiffError, ArithmeticError):
    """A residual check found umbilic points where none are allowed."""

    code = "umbilic-on-grid"
