"""Exception types shared across the package, and its one rule for the
numbers that public functions take.

The public functions that take numbers convert and check them through the
private helpers here, at their boundary:

* counts (``_require_integer``): ``operator.index``, so an integer, never a
  float or a string, and at least a lower bound where the caller asks;
* sequences (``_require_sequence``): a tuple of any iterable but a
  string, which would be read a character at a time;
* scalars (``_require_real``): one real number (``numbers.Real``), not an
  array, a complex or a string, finite and at least a lower bound where
  the caller asks, returned as a Python float, so that a numpy scalar such
  as ``np.float32`` does not carry its own arithmetic into the caller;
* arrays (``_real_array``): ``np.asarray(x, dtype=np.float64)`` of booleans,
  integers or floats, never of complex numbers, text or ragged nests of
  sequences, optionally bounded in magnitude (``_require_in_range``).

Anything else raises ``InvalidValue``, and a NaN, an inf or a value beyond a
bound raises ``NonFiniteInput``, before any arithmetic runs on it.
"""

import math
import numbers
import operator
import sys

import numpy as np


class BstoaError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(BstoaError, ValueError):
    """Input array shapes are inconsistent with the declared topology."""


class ConfigInvalid(BstoaError, ValueError):
    """A sweep configuration or scene record failed validation."""


class UnderDetermined(BstoaError, ValueError):
    """Too few measurements for a 3D position fix."""


class SingularGeometry(BstoaError, ArithmeticError):
    """Anchor placement is degenerate; the fix is not unique."""


class NonFiniteInput(BstoaError, ValueError):
    """A number is NaN or infinite, or beyond the magnitude that the sums
    its function forms can take without overflow."""


class InvalidValue(BstoaError, ValueError):
    """An argument is not a number of the kind its function takes (a string,
    a complex, a ragged list, or an array where one number belongs), or a
    number outside its valid range."""


def _require_integer(
    value, what: str, error: type[Exception] = InvalidValue, low: int | None = None
) -> int:
    """``value`` as an int through ``operator.index``, the package's rule for
    counts; ``error`` names ``what`` if it is not an integer or is below
    ``low``."""
    try:
        value = operator.index(value)
    except TypeError:
        raise error(f"{what} must be an integer, got {value!r}") from None
    if low is not None and value < low:
        raise error(f"{what} must be >= {low}, got {value}")
    return value


def _require_sequence(value, what: str) -> tuple:
    """``value`` as a tuple, from any iterable but a string; otherwise
    ``InvalidValue`` names ``what``."""
    if not isinstance(value, str):
        try:
            return tuple(value)
        except TypeError:
            pass
    raise InvalidValue(f"{what} must be a sequence, got {value!r}")


def _require_in_range(x: np.ndarray, limit: float, what: str) -> None:
    """Reject an array holding NaN, inf or a magnitude above ``limit``, the
    largest its caller's sums can take without overflow."""
    if not np.abs(x).max(initial=0.0) <= limit:
        raise NonFiniteInput(f"{what} must be finite and at most {limit:.4g} in magnitude")


def _require_real(value, what: str, low: float | None = None, finite: bool = True) -> float:
    """``value`` as a float, accepted only as one real number, finite unless
    ``finite`` is false, and at least ``low`` if given.  A float64 keeps its
    bits, and a narrower float (``np.float32``) converts exactly; an integer
    beyond the float range converts to an infinity of its sign.

    Raises:
        InvalidValue: for anything but a ``numbers.Real`` (an array, a
            complex, a string), or a number below ``low``.
        NonFiniteInput: for NaN, inf or an integer beyond the float range.
    """
    if not isinstance(value, numbers.Real):
        raise InvalidValue(f"{what} must be a real number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf if value > 0 else -math.inf
    if finite and not abs(number) <= sys.float_info.max:
        raise NonFiniteInput(f"{what} must be finite, got {value}")
    if low is not None and number < low:
        raise InvalidValue(f"{what} must be >= {low:g}, got {value}")
    return number


def _real_array(x, what: str, limit: float | None = sys.float_info.max) -> np.ndarray:
    """``x`` as a float64 array, as ``np.asarray`` converts it, so a float64
    array is neither copied nor relaid, checked by ``_require_in_range``
    against ``limit``: by default only NaN and inf fail, and with None
    nothing does.

    Raises:
        InvalidValue: if ``x`` is a ragged nest of sequences or holds
            anything but booleans, integers or floats (complex numbers,
            text, objects).
        NonFiniteInput: for a NaN, an inf or a magnitude above ``limit``.
    """
    try:
        array = np.asarray(x)
    except ValueError:  # a ragged nest of sequences
        array = None
    if array is None or array.dtype.kind not in "biuf":
        raise InvalidValue(f"{what} must be a rectangular array of real numbers")
    array = np.asarray(array, dtype=np.float64)
    if limit is not None:
        _require_in_range(array, limit, what)
    return array
