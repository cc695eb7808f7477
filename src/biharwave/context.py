"""Shared problem context: spatial dimension, wavenumber, support-ball radius."""

from __future__ import annotations

import numbers
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
