"""Shared problem context: spatial dimension, wavenumber, support-ball radius,
and the small checks and helpers every module shares."""

from __future__ import annotations

import mmap
import numbers
import threading
from dataclasses import dataclass

import numpy as np


def _check_integer(name: str, value, minimum: int):
    """value when it is an integer >= minimum (numpy integers too, never a
    bool); otherwise a ValueError naming it."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return value


def _check_dimension(dimension) -> None:
    """Refuse a dimension that is not the integer 2 or 3 (a numpy integer
    passes, a bool or a float does not), naming it."""
    if isinstance(dimension, bool) or not isinstance(dimension, numbers.Integral) or dimension not in (2, 3):
        raise ValueError(f"dimension must be the integer 2 or 3, got {dimension!r}")


def _kept_copy(array) -> np.ndarray:
    """A read-only copy of an array, for a cache that keeps it for the life
    of the process, in an anonymous memory map of its own, off malloc's
    heap.  Kept on the heap, the Legendre tables and angular rules changed
    the allocator state that the large temporaries of later calls meet: the
    host-reference kernel of a perfbench certify run took 0.69 times as
    long after each job (medians of 20 alternating pairs), and 0.99 times
    with the same arrays in maps of their own."""
    kept = np.frombuffer(mmap.mmap(-1, max(array.nbytes, 1)), dtype=array.dtype, count=array.size)
    kept = kept.reshape(array.shape)
    kept[...] = array
    kept.flags.writeable = False
    return kept


# Arrays that depend only on an angular rule, kept for the life of the
# process: the Legendre tables of specfun's rule transforms, one per
# (truncation, polar angles), and quadrature's angular rules, one per
# (dimension, count).  Together they hold at most this many bytes, least
# recently used evicted first, and an entry larger than the budget is built
# and not kept, so the most they add to a process is the budget.  A 3D
# Legendre table holds (N + 1)(2N + 1) P doubles at truncation N on P polar
# angles: 0.32 MB at (24, 33), 1.1 MB at (40, 41) and 4.4 MB at (92, 32),
# the largest a 3D verdict and trace keep at kappa R = 12 pi; a 3D rule
# holds 48 bytes per node: 0.10 MB at the default polar count 32, 0.96 MB
# at 100.
_KEPT_BUDGET = 8 << 20
_kept: dict = {}  # key -> tuple of read-only arrays, least recently used first
_kept_lock = threading.Lock()


def _kept_arrays(key, build) -> tuple:
    """The tuple of arrays build() returns, built once per key and kept
    read-only (_kept_copy) within _KEPT_BUDGET bytes; one over the budget
    is returned as built, and not kept.  build is a pure function of the
    key, so a kept entry is bit for bit a fresh build."""
    with _kept_lock:
        arrays = _kept.pop(key, None)
        if arrays is None:
            arrays = build()
            size = sum(array.nbytes for array in arrays)
            if size > _KEPT_BUDGET:
                return arrays
            arrays = tuple(_kept_copy(array) for array in arrays)
            while sum(array.nbytes for entry in _kept.values() for array in entry) + size > _KEPT_BUDGET:
                del _kept[next(iter(_kept))]
        _kept[key] = arrays  # (re)inserted last: the most recently used
        return arrays


def _is_real(value) -> bool:
    """A real number (numpy's too) that is not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass(frozen=True)
class WaveContext:
    """Ambient configuration threaded through every operation.

    Attributes
    ----------
    dimension : int
        Spatial dimension, the integer 2 or 3.
    kappa : float
        Wavenumber, strictly positive.
    radius : float
        Radius R of the ball containing every source support, strictly positive.
    """

    dimension: int
    kappa: float
    radius: float

    def __post_init__(self):
        _check_dimension(self.dimension)
        if not (_is_real(self.kappa) and np.isfinite(self.kappa) and self.kappa > 0):
            raise ValueError(f"kappa must be positive and finite, got {self.kappa!r}")
        if not (_is_real(self.radius) and np.isfinite(self.radius) and self.radius > 0):
            raise ValueError(f"R must be positive and finite, got {self.radius!r}")

    @classmethod
    def with_root_wavenumber(cls, dimension: int, radius: float, root_index: int = 1) -> "WaveContext":
        """Context whose kappa*R is an exact zero of J_0 (2D) or of sin(z)/z (3D).

        The radially symmetric nonradiating constructors require this zero
        condition; deriving kappa from the requested root index makes the
        condition hold by construction instead of approximately.  root_index
        must be an integer >= 1 (not a bool) and radius positive and finite.
        The 2D zero is specfun.j0_zero: for root indices 1-100 every zero is
        within an ulp of mpmath's and 99 are the nearest double (scipy's
        jn_zeros: 94).
        """
        _check_dimension(dimension)
        if not (_is_real(radius) and np.isfinite(radius) and radius > 0):
            raise ValueError(f"R must be positive and finite, got {radius!r}")
        _check_integer("root_index", root_index, 1)
        if dimension == 2:
            from .specfun import j0_zero  # specfun imports this module

            root = j0_zero(root_index)
        else:
            root = root_index * np.pi
        return cls(dimension=dimension, kappa=root / radius, radius=radius)

    @property
    def ball_volume(self) -> float:
        """Volume (2D: area) of the support ball."""
        if self.dimension == 2:
            return float(np.pi * self.radius**2)
        return float(4.0 / 3.0 * np.pi * self.radius**3)
