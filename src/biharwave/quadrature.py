"""Deterministic quadrature over radial intervals, the disk/ball, and its boundary.

Node/weight sets are plain data and are reused across the library: the same
radial rule that integrates a source also carries its angular-mode profiles,
and an angular rule doubles as the measurement surface for traces, the data
on the context's sphere |x| = R (boundary_grid), where R scales it only
when the trace functionals sum over it.

A source's grids end at its support: a radial rule keeps the Gauss-Legendre
nodes and weights of [0, R] below an extent (the support radius) and drops
the rest, where the source is zero, so a Gaussian of support 0.9R keeps 51
of its 64 radial nodes and the rho 0.8R bump 226 of its 320.  The cut
changes no node or weight, only how many of them there are.

The Gauss-Legendre nodes and weights on [-1, 1] are solved once per order
and kept read-only (solving order 320 costs a few milliseconds); every rule
maps them into fresh arrays of its own.  An angular rule's directions,
weights and params are computed once per (dimension, count) and kept
read-only too, within the byte budget they share with specfun's Legendre
tables (context._kept_arrays), and every rule holds fresh copies of them.
Product grids
are not kept, and store no points: a grid holds its two rules and its
weights, and its points (the radial nodes times the directions) are built
only when read, a run of nodes at a time (ProductGrid.node_points) where the
library reads them.

Defaults (radial 64, angular 256 in 2D, Gauss-32 x 64 in 3D) are chosen so
the shipped radially-symmetric test sources self-converge below 1e-10; the
integrands are smooth in r, so Gauss-Legendre converges spectrally, and the
periodic trapezoid rule is spectrally accurate in the angles with exact
discrete orthogonality of Fourier modes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .context import WaveContext, _check_integer, _kept_arrays

DEFAULT_RADIAL_ORDER = 64
DEFAULT_ANGULAR_COUNT_2D = 256
DEFAULT_POLAR_COUNT_3D = 32


@dataclass(frozen=True)
class RadialRule:
    """Gauss-Legendre nodes/weights on [0, R]; weights integrate plain dr.

    order is the Gauss-Legendre order on [0, R]; a rule cut at an extent
    keeps only the nodes below it (len(nodes) <= order), so it integrates
    exactly only integrands that vanish beyond the cut.
    """

    nodes: np.ndarray
    weights: np.ndarray
    order: int


@dataclass(frozen=True)
class AngularRule:
    """Quadrature over the unit circle (2D) or unit sphere (3D).

    directions has shape (M, d); weights sum to 2 pi (2D) or 4 pi (3D).
    params holds the parametrization per node: theta (2D) or
    (theta_polar, phi) (3D).  The nodes are polar_count rings of
    azimuth_count equispaced azimuths, flattened polar-major: in 3D Gauss
    nodes in cos(theta) times equispaced phi, in 2D one ring of M angles
    (polar_count 1, azimuth_count M).
    """

    dimension: int
    directions: np.ndarray
    weights: np.ndarray
    params: np.ndarray
    polar_count: int
    azimuth_count: int

    @property
    def count(self) -> int:
        return self.directions.shape[0]

    @property
    def rings(self) -> tuple[np.ndarray, np.ndarray]:
        """3D: the polar angle of each polar ring and the weight of each of
        its nodes."""
        first = slice(None, None, self.azimuth_count)
        return self.params[first, 0], self.weights[first]


@functools.lru_cache(maxsize=64)
def gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights on [-1, 1], solved once per order."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def radial_rule(ctx: WaveContext, order: int = DEFAULT_RADIAL_ORDER, extent: float | None = None) -> RadialRule:
    """Gauss-Legendre rule mapped to [0, R]; exact for polynomials of degree 2*order - 1.

    With an extent (R when None), only the nodes below it are kept, with
    their weights unchanged: a node at or beyond the extent is dropped, the
    test SourceField uses to zero a node outside its support.
    """
    _check_integer("radial order", order, 2)
    t, w = gauss_legendre(order)
    half = 0.5 * ctx.radius
    nodes, weights = half * (t + 1.0), half * w
    if extent is not None:
        keep = int(np.searchsorted(nodes, extent))  # the nodes ascend: those < extent
        nodes, weights = nodes[:keep], weights[:keep]
    return RadialRule(nodes=nodes, weights=weights, order=order)


def angular_rule(ctx: WaveContext, count: int | None = None) -> AngularRule:
    """Unit-circle/unit-sphere rule.

    2D: count equispaced angles with weight 2 pi / count.
    3D: count Gauss nodes in cos(theta) times 2*count equispaced azimuths;
    integrates spherical harmonics up to degree count - 1 exactly.

    Its arrays are computed once per (dimension, count) and kept
    (context._kept_arrays); every rule owns fresh copies of them.
    """
    if ctx.dimension == 2:
        count = DEFAULT_ANGULAR_COUNT_2D if count is None else _check_integer("angular count", count, 4)
        rings = (1, count)
    else:
        count = DEFAULT_POLAR_COUNT_3D if count is None else _check_integer("polar count", count, 2)
        rings = (count, 2 * count)
    kept = _kept_arrays(("angular rule", ctx.dimension, count), lambda: _angular_arrays(ctx.dimension, count))
    dirs, weights, params = (array.copy() for array in kept)
    return AngularRule(ctx.dimension, dirs, weights, params, *rings)


def _angular_arrays(dimension: int, count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Directions, weights and params of the angular rule of a checked
    count (angular_rule).  Their cosines and sines are scalar loops: 82 us
    for the 3D default rule, against 3 us to copy it."""
    if dimension == 2:
        theta = 2.0 * np.pi * np.arange(count) / count
        dirs = np.column_stack([np.cos(theta), np.sin(theta)])
        return dirs, np.full(count, 2.0 * np.pi / count), theta

    n_az = 2 * count
    c, wc = gauss_legendre(count)  # nodes in cos(theta)
    theta = np.arccos(c)
    phi = 2.0 * np.pi * np.arange(n_az) / n_az
    wphi = 2.0 * np.pi / n_az

    tt = np.repeat(theta, n_az)
    pp = np.tile(phi, count)
    ww = np.repeat(wc, n_az) * wphi
    st = np.sin(tt)
    dirs = np.column_stack([st * np.cos(pp), st * np.sin(pp), np.cos(tt)])
    return dirs, ww, np.column_stack([tt, pp])


def spherical_params(pts: np.ndarray):
    """(r, theta, phi) of points of shape (M, d).

    2D: theta is the angle in [0, 2 pi) and phi is None.  3D: theta is the
    polar angle in [0, pi] (pi/2 at the origin), phi the azimuth in [0, 2 pi).
    """
    r = np.linalg.norm(pts, axis=-1)
    if pts.shape[1] == 2:
        theta = np.mod(np.arctan2(pts[:, 1], pts[:, 0]), 2 * np.pi)
        return r, theta, None
    ct = np.divide(pts[:, 2], r, out=np.zeros_like(r), where=r > 0)
    theta = np.arccos(np.clip(ct, -1.0, 1.0))
    phi = np.mod(np.arctan2(pts[:, 1], pts[:, 0]), 2 * np.pi)
    return r, theta, phi


def boundary_grid(ctx: WaveContext, resolution: int | None = None) -> AngularRule:
    """The angular rule of the boundary sphere |x| = R of the context.

    Its directions are the outward unit normals there; the boundary nodes
    are R times them and their surface weights R**(d-1) times the rule's
    weights, scaled where they are summed (spectral._trace_transform), so R
    is the context's alone.  resolution is the angular count (2D) or polar
    count (3D); must be >= 8.
    """
    if resolution is not None:
        _check_integer("resolution", resolution, 8)
    return angular_rule(ctx, resolution)


@dataclass(frozen=True)
class ProductGrid:
    """Tensor product of a radial rule with an angular rule over the ball.

    Nodes are ordered radial-major, n_r * n_ang of them, n_r the radial
    rule's node count (below its order when the grid ends at an extent);
    weights include the r**(d-1) volume factor, so sum(weights * g(points))
    integrates g over the ball when g vanishes beyond the extent.  The grid
    stores no points: points, shape (n_r * n_ang, d), is built on each read
    as the radial nodes times the rule's directions, and node_points builds
    those of a run of nodes alone, the products the library's sums and
    samplers form block by block, so none of them holds all the points at
    once.
    """

    radial: RadialRule
    angular: AngularRule
    weights: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.radial.nodes), self.angular.count)

    @property
    def points(self) -> np.ndarray:
        return self.node_points(0, self.weights.size)

    def node_points(self, start: int, stop: int) -> np.ndarray:
        """Points of the nodes start..stop (a slice): one radial node times
        the directions they take of its row, or the rows they span."""
        ring = self.angular.count
        row, col = divmod(start, ring)
        if col + stop - start <= ring and row < len(self.radial.nodes):
            return self.radial.nodes[row] * self.angular.directions[col:col + stop - start]
        radii = self.radial.nodes[row:-(-stop // ring), None, None]
        return (radii * self.angular.directions).reshape(-1, self.angular.dimension)[col:col + stop - start]


def product_grid(
    ctx: WaveContext,
    radial_order: int = DEFAULT_RADIAL_ORDER,
    angular_count: int | None = None,
    extent: float | None = None,
) -> ProductGrid:
    """Quadrature grid over the ball B_R used for volume integrals and
    projections; with an extent, over the radial nodes below it only
    (radial_rule).  Building one costs its rules and its weights."""
    rad = radial_rule(ctx, radial_order, extent)
    ang = angular_rule(ctx, angular_count)
    w = (rad.weights * rad.nodes ** (ctx.dimension - 1))[:, None] * ang.weights[None, :]
    return ProductGrid(radial=rad, angular=ang, weights=w.reshape(-1))
