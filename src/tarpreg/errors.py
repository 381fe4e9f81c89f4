"""Exception types shared across the package, the three rules every setting is checked by,
and the two every array argument is checked by."""
import sys
from numbers import Integral, Real

import numpy as np


class TarpError(Exception):
    """Base class for all package errors."""


class IngestionError(TarpError):
    """Raised when input data cannot be accepted (non-finite, non-numeric, ragged)."""


class DimensionError(TarpError):
    """Raised on shape/length mismatches or insufficient sample size."""


class ParameterError(TarpError):
    """Raised when a tuning parameter is outside its valid range."""


def checked_int(name, value, lo, hi=float("inf"), error=ParameterError) -> int:
    """The integer rule: an int or numpy integer in [lo, hi); a bool, float or str never passes."""
    if isinstance(value, Integral) and not isinstance(value, bool) and lo <= value < hi:
        return int(value)
    end = "2**64" if hi == 1 << 64 else hi  # a seed's end, as written
    raise error(f"{name} must be an integer in [{lo}, {end}), got {value!r}")


def checked_number(name, value, lo=-float("inf"), hi=float("inf"), ends="()") -> float:
    """The finite-number rule: an int, float or numpy real within double range, in the interval
    from lo to hi, open or closed at each end as ``ends`` writes it.  Each comparison is a
    passing condition, so NaN and +-inf fail; a bool or str never passes."""
    if (isinstance(value, Real) and not isinstance(value, bool)
            and -sys.float_info.max <= value <= sys.float_info.max
            and (lo < value if ends[0] == "(" else lo <= value)
            and (value < hi if ends[1] == ")" else value <= hi)):
        return float(value)
    raise ParameterError(f"{name} must be a finite number in {ends[0]}{lo}, {hi}{ends[1]}, "
                         f"got {value!r}")


def checked_pair(name, value, rule, *args) -> tuple:
    """The pair rule: a (lo, hi) tuple or list whose ends each pass ``rule(name, end, *args)``."""
    ends = tuple(rule(name, v, *args) for v in value) if isinstance(value, (tuple, list)) else ()
    if len(ends) == 2 and ends[0] <= ends[1]:
        return ends
    raise ParameterError(f"{name} must be a (lo, hi) pair with lo <= hi, got {value!r}")


def all_finite(a: np.ndarray) -> bool:
    """Every entry finite, by min and max (which propagate NaN): no bool mask."""
    return not a.size or bool(np.isfinite(a.min()) and np.isfinite(a.max()))


def checked_array(name, value, shape, finite=True, nonempty=False) -> np.ndarray:
    """The array rule: ``value`` as a float64 array with len(shape) axes, each of the length
    ``shape`` gives (None: any length) and, if ``nonempty``, at least one entry, else a
    DimensionError; with ``finite``, a NaN or +-inf entry is an IngestionError (all_finite)."""
    try:
        a = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError) as exc:  # a str cell, a ragged list
        raise IngestionError(f"{name} must be a numeric array: {exc}") from None
    if (a.ndim != len(shape) or any(k not in (None, s) for k, s in zip(shape, a.shape))
            or nonempty and not a.size):
        want = ", ".join("*" if k is None else str(k) for k in shape) + "," * (len(shape) == 1)
        raise DimensionError(f"{name} must be {'a non-empty' if nonempty else 'an'} array of "
                             f"shape ({want}), got shape {a.shape}")
    if finite and not all_finite(a):
        raise IngestionError(f"{name} contains non-finite entries")
    return a


def checked_unit(name, value, length, binary=False, nonempty=False) -> np.ndarray:
    """The unit rule: a finite vector of ``length`` entries (checked_array), each in [0, 1],
    or with ``binary`` in {0, 1}, else a ParameterError."""
    a = checked_array(name, value, (length,), nonempty=nonempty)
    if not (np.isin(a, (0.0, 1.0)) if binary else (a >= 0) & (a <= 1)).all():
        raise ParameterError(f"{name} must lie in {'{0, 1}' if binary else '[0, 1]'}")
    return a


class ReplicateError(TarpError):
    """A single ensemble replicate failed; carries the replicate index and seed."""

    def __init__(self, index: int, seed: int, cause: BaseException):
        self.index = index
        self.seed = seed
        super().__init__(f"replicate {index} (seed {seed}) failed: {cause!r}")

    def __reduce__(self):
        # rebuilt without __init__, so a forked process can send it back: the cause may not pickle
        return BaseException.__new__, (type(self), *self.args), self.__dict__
