"""Exception and warning types, the fidelity-warning emitter, the integer-argument check and named powers of two."""

import math
import os
import sys
import warnings

#: directory of this package; a fidelity warning names the first frame outside it
_PACKAGE = os.path.dirname(__file__) + os.sep


class ParameterError(ValueError):
    """An exponent or parameter set is outside its admissible range."""


class BandError(ValueError):
    """A frequency band, dilation or shift is not representable on the grid."""


class ExperimentAbort(RuntimeError):
    """A divergence experiment failed partway through a size sweep.

    Carries the records computed before the failure so callers can keep
    partial results.
    """

    def __init__(self, reason: str, records: list):
        super().__init__(reason)
        self.reason = reason
        self.records = records


class ModelFidelityWarning(UserWarning):
    """A sampled field strains the periodic grid model.

    Raised (as a warning, never an error) when spectral mass leaks outside
    the feasible dyadic band, or when a field is not numerically negligible
    near the box boundary, so the continuum interpretation of grid sums
    carries extra error.
    """


def _warn_fidelity(message: str) -> None:
    """Issue a ModelFidelityWarning that names the first calling line outside this package."""
    frame, level = sys._getframe(1), 2
    while frame is not None and frame.f_code.co_filename.startswith(_PACKAGE):
        frame, level = frame.f_back, level + 1
    warnings.warn(message, ModelFidelityWarning, stacklevel=level)


def _integer(value, name: str, least: int | None = 0) -> int:
    """``value`` (2.0 too) as an int; ParameterError unless an integer >= ``least`` (None: any)."""
    try:
        if (number := int(value)) == value and (least is None or number >= least):
            return number
    except (TypeError, ValueError, OverflowError):
        pass
    bound = "" if least is None else f" >= {least}"
    raise ParameterError(f"invalid params: {name} must be an integer{bound}, got {_shown(value)}")


def _power_of_two(k: int, x: float, what: str) -> float:
    """2.0 ** (k * x); OverflowError naming ``what`` and its power when that exceeds the float range."""
    try:
        return 2.0 ** (k * x)
    except OverflowError:
        raise OverflowError(f"{what} 2^({k} * {x!r})") from None


def _shown(value) -> str:
    """``repr(value)``, or the digit count of an integer too long for the interpreter to convert to a string."""
    try:
        return repr(value)
    except ValueError:
        digits = math.floor(math.log10(abs(value))) + 1
        return f"an integer of {digits - (10 ** (digits - 1) > abs(value))} digits"
