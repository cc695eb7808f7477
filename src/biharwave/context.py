"""Shared problem context: spatial dimension, wavenumber, support-ball radius,
and the small checks and helpers every module shares: one checker per kind
of outside input, scalar (_check_dimension, _check_integer, _check_number,
_check_positive) or array (_check_array, and _read_only_copy for an array
an object keeps), the one block budget
of the library's blocked loops (_BLOCK_BUDGET) and the one keeper of the
arrays the process keeps for its life (_kept_arrays, within _KEPT_BUDGET
bytes)."""

from __future__ import annotations

import mmap
import numbers
import threading
from dataclasses import dataclass

import numpy as np


def _is_real(value) -> bool:
    """A real number (numpy's too) that is not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _check_integer(name: str, value, minimum: int):
    """value when it is an integer >= minimum (numpy integers too, never a
    bool); otherwise a ValueError naming it."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return value


def _check_dimension(name: str, value):
    """value when it is the integer 2 or 3 (a numpy integer passes, a bool
    or a float does not); otherwise a ValueError naming it."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value not in (2, 3):
        raise ValueError(f"{name} must be the integer 2 or 3, got {value!r}")
    return value


def _check_number(name: str, value, real: bool = True):
    """value when it is a finite number (numpy's too, never a bool), real
    unless real is false; otherwise a ValueError naming it.  A complex value
    is refused as real even with a zero imaginary part (a shape parameter is
    compared and squared as a real number); with real false, one whose
    imaginary part is zero (of either sign) comes back as its real part."""
    if isinstance(value, bool) or not isinstance(value, numbers.Number) or not np.isfinite(value):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    if _is_real(value):
        return value
    if real:
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return value.real if value.imag == 0 else value


def _check_positive(name: str, value):
    """value when it is a finite real number > 0 (numpy's too, never a
    bool); otherwise a ValueError naming it."""
    if not (_is_real(value) and np.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")
    return value


def _check_array(name: str, value, shape: tuple) -> np.ndarray:
    """value as a float array of shape, whose None entries take any length
    and whose leading ... (if any) any number of leading axes; a value of
    fewer axes gains leading axes of length 1, as np.atleast_2d adds them.
    Its dtype must be integer or float (never bool, complex, string or
    object) and its entries finite; a float64 array is returned without a
    copy.  Otherwise a ValueError names it, the shape it wants and what it
    got (a ragged nesting such as [[1, 2], [3]] too), or lists its
    non-finite entries (for two or more axes, the rows along the last axis
    that hold them)."""
    try:
        array = np.asarray(value)
    except ValueError:  # numpy's own words name neither the input nor the shape
        raise _shape_refusal(name, shape, "a ragged nesting") from None
    dims = shape[1:] if shape[:1] == (...,) else shape
    full = array if array.ndim >= len(dims) else array.reshape((1,) * (len(dims) - array.ndim) + array.shape)
    if (array.dtype.kind not in "iuf" or (full.ndim > len(dims) and len(dims) == len(shape))
            or any(n not in (None, m) for n, m in zip(dims[::-1], full.shape[::-1]))):
        raise _shape_refusal(name, shape, f"{array.dtype} of shape {array.shape}")
    bad = ~np.isfinite(full)
    if bad.any():
        raise ValueError(f"{name} must be finite, got {full[bad if full.ndim == 1 else bad.any(axis=-1)].tolist()}")
    return full.astype(float, copy=False)


def _shape_refusal(name: str, shape: tuple, got: str) -> ValueError:
    """_check_array's refusal of a value that is no array of the shape."""
    want = str(tuple(n if n in (None, ...) else int(n) for n in shape))
    want = want.replace("None", "n").replace("Ellipsis", "...")
    return ValueError(f"{name} must be an integer or float array of shape {want}, got {got}")


def _read_only_copy(array) -> np.ndarray:
    """A read-only copy of a checked array, for an object that keeps it: a
    later change to the caller's array moves nothing it computes."""
    array = np.array(array, dtype=float)
    array.flags.writeable = False
    return array


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


def _mapped_bytes(arrays) -> int:
    """The bytes the kept copies of arrays map: each array in whole pages
    of its own (_kept_copy), so a Gauss rule of order 3 maps two pages for
    its 48 bytes."""
    return sum(-(-max(array.nbytes, 1) // mmap.PAGESIZE) * mmap.PAGESIZE for array in arrays)


# Entries per block of the library's blocked loops: the grid nodes of one
# call of a pointwise source's function (sources.SourceField._rows), the
# nodes of a radial block of the field quadrature and directions times
# nodes of a phase block (fields._eval_quadrature, fields._phase_sums), so
# that a block's temporaries stay in a 2 MB L2 cache.
_BLOCK_BUDGET = 1 << 14

# The arrays the library keeps for the life of the process, each a pure
# function of its key: the Gauss-Legendre rules of quadrature, one per
# order, its angular rules, one per (dimension, count), the Legendre tables
# of specfun's rule transforms, one per (truncation, polar angles), the
# regular-wave tables of specfun at arguments that repeat (a radial rule's
# nodes times kappa), one pair per (dimension, truncation, arguments), and
# the exterior factors of fields' boundary traces, one set per (context,
# truncation).  Together their maps hold at most this many bytes, each
# array counted in the whole pages it maps (_mapped_bytes), least recently
# used evicted first, and an entry larger than the budget is built and not
# kept, so the most they add to a process is the budget.  A
# 3D Legendre table holds (N + 1)(2N + 1) P doubles at truncation N on P
# polar angles: 0.32 MB at (24, 33), 1.1 MB at (40, 41) and 4.4 MB at
# (92, 32), the largest a 3D verdict and trace keep at kappa R = 12 pi; a
# 3D rule holds 48 bytes per node: 0.10 MB at the default polar count 32,
# 0.96 MB at 100; a 3D set of exterior factors 4 (N + 1)**2 complex values:
# 0.04 MB at the default truncation 24, 0.65 MB at 100; a pair of
# regular-wave tables 2 (N + 1) doubles per argument: 26 KB (32 KiB of
# pages) on a radial rule's 64 nodes at truncation 24, 0.25 MB on the
# bump's 320 nodes at 48.
_KEPT_BUDGET = 8 << 20
_kept: dict = {}  # key -> tuple of read-only arrays, least recently used first
_kept_lock = threading.Lock()


def _kept_arrays(key, build) -> tuple:
    """The tuple of arrays build() returns, built once per key and kept
    read-only (_kept_copy) within _KEPT_BUDGET bytes of maps, counted in
    whole pages (_mapped_bytes); one over the budget is returned as built,
    and not kept.  build is a pure function of the key, so a kept entry is
    bit for bit a fresh build.  It runs with the lock released, since a
    build may ask for another kept entry (a 3D angular rule for its Gauss
    rule); two threads that miss one key both build it, and the later keeps
    its own, the same bits."""
    with _kept_lock:
        arrays = _kept.pop(key, None)
        if arrays is not None:
            _kept[key] = arrays  # reinserted last: the most recently used
            return arrays
    arrays = build()
    size = _mapped_bytes(arrays)
    if size > _KEPT_BUDGET:
        return arrays
    arrays = tuple(_kept_copy(array) for array in arrays)
    with _kept_lock:
        _kept.pop(key, None)
        while sum(_mapped_bytes(entry) for entry in _kept.values()) + size > _KEPT_BUDGET:
            del _kept[next(iter(_kept))]
        _kept[key] = arrays
    return arrays


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
        _check_dimension("dimension", self.dimension)
        _check_positive("kappa", self.kappa)
        _check_positive("R", self.radius)

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
        _check_dimension("dimension", dimension)
        _check_positive("R", radius)
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
