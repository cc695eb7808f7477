"""Forward solver: exterior wave fields, boundary traces, far-field patterns.

The radiated field of a source f splits into two radiation solutions,

    u = (f_h - f_m) / (2 kappa**2),

where f_h solves the Helmholtz equation driven by f and f_m the modified
Helmholtz equation.  Two independent evaluation routes are provided:

* direct quadrature of the kernels against the source's values on its
  default product grid (points strictly outside the support), which ends at
  the support, so no radial block, kernel table or phase sum covers the
  rows of zeros beyond it (51 of 64 radial nodes for a Gaussian of support
  0.9R, 226 of 320 for the rho 0.8R bump): the weighted
  values are one block of real rows (a real source one row, a complex one
  its real and imaginary rows), and the kernels enter as three real tables
  (kernels.kernel_tables: Re phi_h, Im phi_h, phi_m), so each point's sums
  are one real matrix product, never complex arithmetic.  Points that are
  images of each other under the grid's symmetries (azimuth-step rotations,
  phi -> -phi and, in 3D, z -> -z) share the tables of one canonical point;
  where that point lies on a mirror of the grid, its tables and every
  member's sums stay on a fundamental domain of its stabilizer (a 2D
  verdict evaluates and sums 129 of every 256 azimuth columns), each
  member summing the rows at its image folded onto that domain, and a
  direction's groups at several radii share those folded rows.  A block's
  node coordinates are its radial nodes times the rule's directions: a
  product grid stores no points.  One budget of context._BLOCK_BUDGET
  entries sizes every table of the direct sums (and a pointwise source's
  sampling calls): the quadrature walks the grid in radial
  blocks of at most that many nodes, and the far field and the volume
  transforms sum cos and sin (or exp) of the real phase kappa dir . y
  against the same rows in node blocks whose table over all the directions
  holds at most that many entries (_phase_sums, which also takes the
  complex channel columns of the spectral module's boundary-data
  functionals and lays out their rows itself); cos and sin come from one
  half-angle tangent (specfun.cos_sin, within 2.2e-16 of mpmath).  Kernel
  distances come from sources._squared_distance, the helper that also
  reads the Gaussian and the bump, and
* angular-mode series built from the source's modal coefficients
  (sources.modal_coefficients, which the source keeps per truncation; valid
  from the support radius outward; a radial leaf's are two radial sums of
  its profile, so this route does not read the product-grid samples the
  quadrature sums), with the radial tables of
  specfun.exterior_wave_tables expanded per mode (specfun.per_mode), and
  the series prefactors folded in by one function (_radial_tables), which
  the traces, the modal field and spectral.nullspace_residual all read.
  One call gives four tables, the factors of f_h and f_m and of their
  radial derivatives, from one exterior tabulation and one finiteness
  check.  Boundary traces are such series
  on the boundary rule, synthesized by specfun.rule_synthesis, and keep the
  context they were taken in (BoundaryTrace.ctx); their four radial
  factor tables at r = R, prefactors folded in, are built once per
  (context, truncation) and kept read-only within the byte budget of the
  process's one keeper (context._kept_arrays), since they depend on no
  source (_sphere_factors); only the
  modal field at caller-given points sums them against the dense angular
  basis.  The trace derivatives come from the one recurrence
  z_n' = (n / t) z_n - z_(n+1) on those tables, in both dimensions, not
  from numerical differentiation, because the near-field identities
  downstream need them at the 1e-8 level.

Both routes are linear in the source.  A sum or a scaled source
(sources.SourceField, a flat tuple of (factor, leaf) parts) adds its leaves'
direct sums (_eval_quadrature, _volume_transform), each on the leaf's own
grid, and its modal coefficients are its leaves', added
(sources.modal_coefficients), so no leaf is read on another leaf's grid.

Outside the support, f_h and f_m solve the homogeneous equations, so the
Laplacian trace needs no new series: lap u = -(f_h + f_m) / 2.

Exponentially decaying modal terms are tabulated in scaled form (factor
exp(kappa r) removed) and the exp(-kappa r) is folded back into their radial
factors (_radial_tables), so that large-radius evaluation underflows cleanly
to zero instead of producing NaNs.

Every CSV table of the package (the trace here, the CLI's spectral and
field tables) is written by one function, _write_table: sorted '#' metadata
lines, a header, then one row per entry of a list of 1-D float columns,
each value the repr of a Python float.  write_trace_csv hands it the
rule's angles and the real and imaginary parts of each channel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import specfun
from .context import _BLOCK_BUDGET, WaveContext, _check_array, _kept_arrays
from .kernels import kernel_tables
from .quadrature import AngularRule, ProductGrid, spherical_params
from .sources import SourceField, SupportViolationError, _check_source_dimension, _squared_distance, modal_coefficients

# Slack within which two points count as images of one another under the
# quadrature grid's symmetries: relative in the radius, absolute in the polar
# angle and in the fraction of an azimuth step (rounding is about 1e-14 of one).
_LATTICE_TOL = 1e-12


@dataclass(frozen=True)
class FieldSample:
    """Field values at one point: total field and its two radiation parts."""

    point: np.ndarray
    u: complex
    f_h: complex
    f_m: complex


@dataclass(frozen=True)
class BoundaryTrace:
    """The four measurement channels on the sphere |x| = R of the context
    the trace was taken in, at R times the directions of the boundary rule
    (quadrature.boundary_grid).  The trace keeps that context: its nodes
    and weights are R times its rule's, and its channels hold at that
    kappa, so the functionals that sum it (spectral.u_hat_from_trace and
    v_check_from_trace) refuse any other."""

    ctx: WaveContext
    grid: AngularRule
    u: np.ndarray
    du_dnu: np.ndarray
    lap_u: np.ndarray
    dlap_u_dnu: np.ndarray

    def stacked(self) -> np.ndarray:
        """All four channels as a (4, M) array (fixed channel order)."""
        return np.vstack([self.u, self.du_dnu, self.lap_u, self.dlap_u_dnu])


# ---------------------------------------------------------------------------
# Direct quadrature route
# ---------------------------------------------------------------------------
def _snap(keys, relative=False):
    """Integer ids of keys, shared by keys within _LATTICE_TOL (times the key
    when relative) of each other: sort, split where the gap exceeds it, search."""
    ks = np.sort(keys)
    starts = ks[np.diff(ks, prepend=-np.inf) > (_LATTICE_TOL * ks if relative else _LATTICE_TOL)]
    return np.searchsorted(starts, keys, side="right") - 1


def _symmetry_groups(angular, pts):
    """Group the points by the exact symmetries of the product grid: rotation
    by the azimuth step 2 pi / n, the reflection phi -> -phi and, in 3D,
    z -> -z (numpy's Gauss-Legendre polar rings are mirror-symmetric).

    Each point is the image of a canonical point (r, theta_c, f) with
    theta_c <= pi / 2 and f in [0, 1/2]: its azimuth is (s + eps f) 2 pi / n
    and its polar angle pi - theta_c when flipped.  Points whose canonical
    forms agree share a group.  Returns each point's group, s, eps and flip,
    and the canonical form (r, theta_c, f) of each group's first point, with
    f snapped to 0 or 1/2 and theta_c to pi / 2 within _LATTICE_TOL.
    """
    r, theta, phi = spherical_params(pts)
    if angular.dimension == 2:
        phi, theta = theta, np.zeros_like(r)
    n = angular.azimuth_count
    u = phi * (n / (2.0 * np.pi))
    s = np.floor(u)
    f = u - s
    eps = np.where(f > 0.5, -1, 1)
    f = np.where(eps < 0, 1.0 - f, f)
    s = (s.astype(int) + (eps < 0)) % n
    flip = theta > 0.5 * np.pi
    theta = np.where(flip, np.pi - theta, theta)
    ids = np.column_stack([_snap(theta), _snap(f), _snap(r, relative=True)])
    # groups in the order of their (theta_c, f, r): a direction's radii in turn
    _, first, group = np.unique(ids, axis=0, return_index=True, return_inverse=True)
    f0, theta0 = f[first], theta[first]
    for key, lattice in ((f0, 0.0), (f0, 0.5), (theta0, 0.5 * np.pi)):
        key[np.abs(key - lattice) <= _LATTICE_TOL] = lattice
    return group, s, eps, flip, (r[first], theta0, f0)


def _canonical_point(angular, r, theta, f):
    """The canonical point q0 = (r, theta, f 2 pi / n) of a symmetry group,
    and the part of the grid's (polar, azimuth) lattice its kernel tables
    need: the first `rings` polar rings and azimuth columns lo..hi-1, a
    fundamental domain of q0's stabilizer.  The tables are mirror-symmetric
    under l -> -l when f = 0 (columns 0..n/2), under l -> 1 - l when f = 1/2
    (columns 1..n/2) and, in 3D, under j -> P-1-j when theta = pi / 2 (rings
    0..P/2-1)."""
    n, polar = angular.azimuth_count, angular.polar_count
    phi = f * (2.0 * np.pi / n)
    equator = angular.dimension == 3 and theta == 0.5 * np.pi
    if angular.dimension == 2:
        q0 = r * np.array([np.cos(phi), np.sin(phi)])
    else:
        # on the equator exactly: cos(pi / 2) rounds to 6e-17
        st, ct = (1.0, 0.0) if equator else (np.sin(theta), np.cos(theta))
        q0 = r * np.array([st * np.cos(phi), st * np.sin(phi), ct])
    rings = (polar + 1) // 2 if equator else polar
    lo, hi = (0, n // 2 + 1) if f == 0.0 else (1, (n + 1) // 2 + 1) if f == 0.5 else (0, n)
    return q0, (rings, lo, hi)


def _real_rows(data, weights):
    """data of shape (nodes,) or (parts, nodes) times the node weights, as
    one C-contiguous block of real rows: a real part is one row, a complex
    part its (real, imaginary) row pair.  C order whatever the data's (the
    trace functionals' columns are Fortran-ordered): BLAS sums the two
    layouts in different orders, so the same data would sum to other last
    bits."""
    data = np.atleast_2d(data)
    if np.iscomplexobj(data):
        data = np.stack([data.real, data.imag], axis=1).reshape(-1, data.shape[-1])
    return np.multiply(data, weights, order="C")


def _folded_rows(doubled, domain, shift, sign, flip):
    """The weighted rows one member of a symmetry group sums against its
    group's tables on the domain (rings, lo, hi) of _canonical_point, shape
    (rows, domain nodes) in C order.  doubled is a radial block's rows
    twice over the azimuths, shape (rows, radial, polar, 2n), so that every
    image below is a view of it.

    The member is h(q0) for the grid symmetry h taking azimuth index l to
    shift + sign l (mod n) and, when flip, polar ring j to polar-1-j; it
    reads the rows at h(y).  Where the domain is a fundamental domain of
    q0's stabilizer, each domain node y also adds the rows at h(g y) for the
    mirrors g of the stabilizer (l -> lo - l when the domain has fewer than
    n columns, j -> polar-1-j when it has fewer than polar rings), and a
    node on a mirror, its own image there, is halved once per such mirror
    (exactly).  The domain's sum of q0's tables times these rows is then
    the whole block's sum of q0's tables (invariant under the stabilizer)
    times the rows at h(y)."""
    rings, lo, hi = domain
    polar, n = doubled.shape[2], doubled.shape[3] // 2
    v = doubled[:, :, ::-1] if flip else doubled

    def columns(s, e):  # the rows at azimuths s + e l, l = lo..hi-1: in v reversed when e < 0
        a = (e * s + lo - (e < 0)) % n
        return (v if e > 0 else v[..., ::-1])[..., a:a + hi - lo]

    out = columns(shift, sign)
    if hi - lo < n:
        out = out + columns(shift + sign * lo, -sign)
        out[..., [l - lo for l in (lo, hi - 1) if (2 * l - lo) % n == 0]] *= 0.5  # l = lo - l (mod n)
    if rings < polar:
        out = out[:, :, :rings] + out[:, :, ::-1][:, :, :rings]
        if 2 * rings > polar:
            out[:, :, -1] *= 0.5
    return np.ascontiguousarray(out).reshape(len(out), -1)


def _eval_quadrature(ctx, src, pts):
    """f_h and f_m at the points by direct quadrature, in radial blocks of the
    source's grid of at most _BLOCK_BUDGET nodes (at least one radial node);
    a sum or a scaled source adds its leaves' sums times their factors, each
    on the leaf's own grid (SourceField._linear).

    Each symmetry group's kernel tables are those of its canonical point q0
    (_canonical_point), evaluated only on a fundamental domain of q0's
    stabilizer (the whole block when q0 lies on no mirror of the grid), from
    the distances sources._squared_distance sums one coordinate at a time.
    Every member m is h(q0) for a grid symmetry h, so |m - h(y)| = |q0 - y|:
    m sums q0's tables against the weighted rows at h(y), folded onto the
    domain (_folded_rows), which depend only on h and the domain.  Groups
    are visited direction by direction, so a direction's groups at several
    radii are consecutive and share each block's folded rows.  A block's
    node coordinates are its radial nodes times the rule's directions (the
    grid stores no points).

    Each block's coordinates, weighted rows, distances, tables and folded
    rows are small enough to stay in a 2 MB L2 cache; each point adds its
    six real sums (three tables against the real and the imaginary row)
    across the blocks."""
    _check_source_dimension(ctx, src)
    if src._parts:
        return src._linear(lambda leaf: _eval_quadrature(ctx, leaf, pts))
    grid, values = src.default_samples()  # a real source's values stay real
    values = np.atleast_2d(values)
    angular = grid.angular
    shape = (grid.shape[0], angular.polar_count, angular.azimuth_count)
    ring = shape[1] * shape[2]
    step = max(1, _BLOCK_BUDGET // ring)  # radial nodes per block
    group, s, eps, flip, canonical = _symmetry_groups(angular, pts)
    members = np.argsort(group, kind="stable")
    bounds = np.searchsorted(group[members], np.arange(len(canonical[0]) + 1))
    groups = []  # (q0, domain, [(member, its folded-rows key), ...])
    for g, c in enumerate(zip(*canonical)):
        q0, domain = _canonical_point(angular, *c)
        groups.append((q0, domain, [(m, (domain, s[m], eps[m], flip[m])) for m in members[bounds[g]:bounds[g + 1]]]))
    k = len(values) * (2 if np.iscomplexobj(values) else 1)
    # each group's domain of the rule's directions, shape (d, 1, rings, hi - lo)
    directions = angular.directions.T.reshape((ctx.dimension, 1) + shape[1:])
    domains = {domain: np.ascontiguousarray(directions[:, :, :domain[0], domain[1]:domain[2]])
               for _, domain, _ in groups}
    # each table against the real and the imaginary row; a real source's
    # absent imaginary row sums to +0.0
    sums = np.zeros((len(pts), 3, 2))
    for i in range(0, shape[0], step):
        block = (min(i + step, shape[0]) - i,) + shape[1:]
        nodes = slice(i * ring, (i + block[0]) * ring)
        radii = grid.radial.nodes[i:i + block[0], None, None]
        coords = {domain: domain_directions * radii for domain, domain_directions in domains.items()}
        rows = _real_rows(values[:, nodes], grid.weights[nodes]).reshape((-1,) + block)
        doubled = np.concatenate((rows, rows), axis=-1)
        folded = {}
        for q0, domain, keyed_members in groups:
            folded = {key: folded.get(key) for _, key in keyed_members}  # kept from the group before
            tables = kernel_tables(ctx, np.sqrt(_squared_distance(coords[domain], q0))).reshape(3, -1)
            for m, key in keyed_members:
                if folded[key] is None:
                    folded[key] = _folded_rows(doubled, *key)
                sums[m, :, :k] += tables @ folded[key].T
            # freed before the next group's tables are allocated, which then
            # reuse the same, cache-warm memory
            del tables
    (re_a, re_b), (im_a, im_b), (m_a, m_b) = sums.transpose(1, 2, 0)
    f_h, f_m = np.empty((2, len(pts)), dtype=complex)
    f_h.real, f_h.imag = im_b - re_a, -(re_b + im_a)
    f_m.real, f_m.imag = -m_a, -m_b  # complex(-m_a, -m_b): a real source's f_m.imag is -0.0
    return f_h, f_m


def _check_directions(ctx, directions) -> np.ndarray:
    """directions as a float array of shape (M, d), through
    context._check_array, each of unit norm within 1e-12."""
    dirs = _check_array("directions", directions, (None, ctx.dimension))
    # |norm - 1| itself: np.allclose would add its default relative 1e-5
    if not np.all(np.abs(np.linalg.norm(dirs, axis=-1) - 1.0) <= 1e-12):
        raise ValueError("directions must be unit vectors")
    return dirs


def _phase_sums(ctx, points, data, weights, directions, oscillating):
    """Sums over the nodes of data w (c - i s), with c = cos(kappa dir . x)
    and s = sin(kappa dir . x) (oscillating), or c = exp(-kappa dir . x) and
    s = 0; one complex column per part of data ((nodes,) or (parts, nodes),
    real or complex), shape (directions, parts).  points are the nodes'
    coordinates, (nodes, d), or a ProductGrid, whose points each block
    builds (ProductGrid.node_points).  directions are checked unit vectors.

    The weighted data are one block of real rows (_real_rows).  The nodes
    go in one loop of blocks whose phase table over all the directions
    holds at most _BLOCK_BUDGET entries (one node per block past that many
    directions): the block's phases by one matrix product, c and s from
    them (specfun.cos_sin, or c in place of the phases), then the rows
    times c and times s, each one real matrix product over the (parts,
    nodes) rows (a (nodes, parts) product lost 1e-14 of the data's mass in
    3D), added up over the blocks.  The first block's products are written, not added to
    zeros, so a sum of one block keeps their bits and signed zeros."""
    rows = _real_rows(data, weights)
    # rows times c and times s, a part's real row then its imaginary row; a
    # real part's single row takes the real slot, its imaginary one sums to +0.0
    step = 1 if np.iscomplexobj(data) else 2
    sums = np.zeros((2, step * len(rows), len(directions)))
    nodes = max(1, _BLOCK_BUDGET // max(1, len(directions)))
    k = ctx.kappa * directions
    for a in range(0, len(weights), nodes):
        b = a + nodes
        phase = k @ (points.node_points(a, b) if isinstance(points, ProductGrid) else points[a:b]).T
        factors = specfun.cos_sin(phase) if oscillating else (np.exp(np.negative(phase, out=phase), out=phase),)
        for total, factor in zip(sums[:, ::step], factors):
            if a == 0:
                np.matmul(rows[:, :b], factor.T, out=total)
            else:
                total += rows[:, a:b] @ factor.T
        # freed before the next block's phases are allocated, which then
        # reuse the same, cache-warm memory
        del phase, factors, factor
    out = np.empty((len(directions), sums.shape[1] // 2), dtype=complex)
    out.real = (sums[0, 0::2] + sums[1, 1::2]).T
    out.imag = (sums[0, 1::2] - sums[1, 0::2]).T
    return out


def _volume_transform(ctx, src, directions, oscillating):
    """Sum over the source's grid of exp(-i kappa dir . y) f(y) w(y)
    (oscillating) or exp(-kappa dir . y) f(y) w(y), one value per unit
    direction; a sum or a scaled source adds its leaves' sums times their
    factors, each on the leaf's own grid (SourceField._linear)."""
    dirs = _check_directions(ctx, directions)
    _check_source_dimension(ctx, src)
    if src._parts:
        return src._linear(lambda leaf: _volume_transform(ctx, leaf, dirs, oscillating))
    grid, values = src.default_samples()
    return _phase_sums(ctx, grid, values, grid.weights, dirs, oscillating)[:, 0]


# ---------------------------------------------------------------------------
# Modal series route
# ---------------------------------------------------------------------------
def _radial_tables(ctx, truncation, t, derivatives=True):
    """Per-mode radial factors of the f_h and f_m series at t = kappa r
    (shape (M, 1)) and of their r-derivatives: four tables, each of shape
    (M, modes), or the first two alone when derivatives is false.  They are
    the outgoing family times its prefactor c_h and the exp(t)-scaled
    decaying family times c_m exp(-t), its prefactor and the scale folded
    back in, then the t-derivatives of the two with each prefactor times
    kappa (d/dr = kappa d/dt), all from one specfun.exterior_wave_tables
    call (values alone: its value tables, the same bits), expanded by
    specfun.per_mode.  A series is these factors times the angular basis,
    summed against the coefficients.

    Raises OverflowError when a factor leaves the double range (a high
    truncation at small kappa r), where the series would give inf * 0 = NaN.
    """
    # the check below names an overflow, so numpy's warnings would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        if derivatives:
            tables = np.stack(specfun.exterior_wave_tables(ctx.dimension, truncation, np.ravel(t)))
        else:
            tables = np.stack(specfun._exterior_waves(ctx.dimension, truncation, np.ravel(t))[1:])[:, :-1]
    finite = np.all(np.isfinite(tables), axis=(0, 1))  # one flag per kappa r
    if not np.all(finite):
        worst = float(np.min(np.ravel(t)[~finite]))
        raise OverflowError(
            f"exterior series radial factors are not finite at kappa*r = {worst:.6g}: the "
            f"radial wave families leave the double range (truncation {truncation})"
        )
    tables = specfun.per_mode(ctx.dimension, tables.transpose(0, 2, 1))  # (M, modes), as t
    k = ctx.kappa  # d/dr = kappa d/dt
    c_h, c_m = (-0.5j * np.pi,) * 2 if ctx.dimension == 2 else (-1j * k, k)
    damp = np.exp(-t)
    return tuple(scale * table for scale, table in zip((c_h, c_m * damp, c_h * k, c_m * k * damp), tables))


def _sphere_factors(ctx, truncation):
    """_radial_tables at r = R: the per-mode factors of the f_h and f_m
    series and of their radial derivatives, built once per (context,
    truncation) and kept read-only (context._kept_arrays), since they
    depend on nothing else."""
    return _kept_arrays(("sphere factors", ctx, truncation), lambda: tuple(
        table[0] for table in _radial_tables(ctx, truncation, np.array([[ctx.kappa * ctx.radius]]))))


def _sphere_series(ctx, coeffs, angular):
    """f_h, f_m and their radial derivatives on the sphere |x| = R at the
    nodes of the boundary rule: the radial factors are constant there, so
    they are folded into the coefficients of one synthesis of all four
    (specfun.rule_synthesis)."""
    h, s, dh, ds = _sphere_factors(ctx, coeffs.truncation)
    alpha, beta = coeffs.alpha, coeffs.beta
    return specfun.rule_synthesis(np.column_stack([h * alpha, s * beta, dh * alpha, ds * beta]), angular)


def _eval_modal(ctx, src, pts, truncation):
    """f_h and f_m at the points from the exterior mode series, on the dense
    angular basis at the points: one row of _radial_tables (prefactors and
    exp(-kappa r) folded in) per distinct radius, gathered back to the
    points."""
    coeffs = modal_coefficients(ctx, src, truncation)
    r, theta, phi = spherical_params(pts)
    basis = specfun.angular_basis(ctx.dimension, coeffs.truncation, theta, phi)
    radii, row = np.unique(ctx.kappa * r, return_inverse=True)
    h, s = _radial_tables(ctx, coeffs.truncation, radii[:, None], derivatives=False)
    # Named tables: numpy may overwrite an unnamed temporary right operand in
    # place, which changes how a complex product rounds under FMA.
    H = h[row]
    S = s[row]
    return (basis * H) @ coeffs.alpha, (basis * S) @ coeffs.beta


# ---------------------------------------------------------------------------
# Public surface
# ---------------------------------------------------------------------------
def eval_field_batch(
    ctx: WaveContext,
    src: SourceField,
    points,
    method: str,
    truncation: int | None = None,
):
    """Evaluate (u, f_h, f_m) at exterior points, shape (M, d).

    method 'quadrature' integrates the kernels against the source and needs
    every point strictly outside the support radius.  Points that are images
    of each other under the symmetries of the source's product grid (rotation
    by its azimuth step, phi -> -phi and, in 3D, z -> -z) share the kernel
    tables of one canonical point, evaluated only on a fundamental domain of
    its stabilizer when it lies on a mirror of the grid: a ring of probes on
    the 2D grid's angle lattice takes one table per radius, 129 of its 256
    azimuth columns evaluated (24,768 kernel values for a 2D verdict on the
    64 x 256 grid), and the 54 probes of a 3D verdict take 12 tables,
    893,952 kernel values of 1,572,864.  Those counts are a whole-ball
    source's: the grid ends at the support, so a Gaussian of support 0.9R
    takes 51/64 of them (19,737 and 712,368).  Each point sums the source's
    own values at its image, folded onto its group's domain, in radial
    blocks of the grid (the first point of a group sums exactly what it
    sums alone); scattered points take one whole table each and sum the
    permuted values, and a truncation is refused, naming both.  'modal'
    sums the exterior angular-mode series of the source's coefficients at
    the truncation (default_mode_truncation when None; valid from the
    support radius outward).  points go through context._check_array: real
    (never bool, complex or text), finite, of shape (M, d).
    """
    pts = _check_array("points", points, (None, ctx.dimension))
    r = np.linalg.norm(pts, axis=-1)
    if method == "quadrature":
        if truncation is not None:  # the quadrature has no modes to truncate
            raise ValueError(f"method 'quadrature' takes no truncation (got truncation={truncation!r}); "
                             "a truncation sets the 'modal' series")
        if not np.all(r > src.support_radius):
            raise ValueError(
                "quadrature evaluation needs |x| > support radius "
                f"({src.support_radius}); got min |x| = {r.min():.6g}"
            )
        f_h, f_m = _eval_quadrature(ctx, src, pts)
    elif method == "modal":
        if not np.all(r >= src.support_radius * (1.0 - 1e-12)):
            raise ValueError(
                "modal evaluation is valid from the support radius outward "
                f"({src.support_radius}); got min |x| = {r.min():.6g}"
            )
        f_h, f_m = _eval_modal(ctx, src, pts, truncation)
    else:
        raise ValueError(f"unknown method {method!r}")
    u = (f_h - f_m) / (2.0 * ctx.kappa**2)
    return u, f_h, f_m


def eval_field(ctx: WaveContext, src: SourceField, point, **kwargs) -> FieldSample:
    """FieldSample of u and its two radiation parts at a single exterior
    point, d numbers read through context._check_array."""
    pt = _check_array("point", point, (ctx.dimension,))[None]
    u, f_h, f_m = eval_field_batch(ctx, src, pt, **kwargs)
    return FieldSample(point=pt[0], u=complex(u[0]), f_h=complex(f_h[0]), f_m=complex(f_m[0]))


def boundary_trace(
    ctx: WaveContext,
    src: SourceField,
    grid: AngularRule,
    truncation: int | None = None,
) -> BoundaryTrace:
    """The four boundary channels (u, normal derivative, Laplacian, its
    normal derivative) on the context's sphere |x| = R at the directions of
    the boundary rule (quadrature.boundary_grid), from the exterior series of
    the source's coefficients at the truncation (default_mode_truncation
    when None).

    For sources supported strictly inside the ball all four channels are
    classical.  Full-support sources are evaluated as the exterior limit,
    which is exact whenever the exterior field extends smoothly to the
    boundary (in particular for every certified nonradiating source).  The
    source keeps its coefficients per truncation, so traces on several grids
    and the spectral syntheses share one projection.

    The radial tables are evaluated at r = R only, once per context and
    truncation (kept, with their prefactors, by _sphere_factors), and
    folded into the coefficients; all four channels are synthesized at
    once on the grid's rule by specfun.rule_synthesis: in 2D by one inverse
    FFT over the equispaced angles, in 3D by one Legendre sum per order and
    polar ring, then an inverse FFT over the azimuths.  Neither builds a dense angular
    basis.  A rule of another dimension than the context's is refused,
    naming both.
    """
    if grid.dimension != ctx.dimension:
        raise ValueError(f"the boundary grid is {grid.dimension}D but the context is {ctx.dimension}D")
    if src.support_radius > ctx.radius * (1 + 1e-12):
        raise SupportViolationError(
            f"source support {src.support_radius} exceeds the context ball R = {ctx.radius}"
        )
    coeffs = modal_coefficients(ctx, src, truncation)
    f_h, f_m, df_h, df_m = _sphere_series(ctx, coeffs, grid)
    scale = 1.0 / (2.0 * ctx.kappa**2)
    return BoundaryTrace(
        ctx=ctx,
        grid=grid,
        u=(f_h - f_m) * scale,
        du_dnu=(df_h - df_m) * scale,
        lap_u=-(f_h + f_m) / 2.0,
        dlap_u_dnu=-(df_h + df_m) / 2.0,
    )


def far_field(ctx: WaveContext, src: SourceField, directions) -> np.ndarray:
    """Far-field pattern at unit directions, shape (M, d): the source's
    Fourier data at spatial frequency kappa * direction.

    The large-radius field obeys
    u(x) ~ -(mu_d / (8 kappa^2)) exp(i kappa |x|) / (pi |x|)^((d-1)/2) * u_inf(xhat),
    with mu_2 = sqrt(2 / kappa) exp(i pi / 4) and mu_3 = 1.
    """
    return _volume_transform(ctx, src, directions, oscillating=True)


# ---------------------------------------------------------------------------
# CSV tables
# ---------------------------------------------------------------------------
def _write_table(fh, meta: dict, header: list[str], columns) -> None:
    """Write a CSV table: one '# key=value' line per meta entry (sorted, for
    reproducibility), the header, then one row per entry of the 1-D float
    columns, each value written as the repr of a Python float (the shortest
    text that reads back to the same double).  Every CSV output of the CLI
    goes through here."""
    for key in sorted(meta):
        fh.write(f"# {key}={meta[key]}\n")
    fh.write(",".join(header) + "\n")
    rows = np.column_stack(columns).tolist()  # Python floats: numpy 2's repr of a float64 names its type
    fh.writelines(",".join(map(repr, row)) + "\n" for row in rows)


def _complex_columns(*arrays) -> list[np.ndarray]:
    """The real and imaginary parts of each array, in turn: table columns."""
    return [part for a in arrays for part in (a.real, a.imag)]


def write_trace_csv(trace: BoundaryTrace, fh, meta: dict | None = None) -> None:
    """Write a trace as a CSV table (_write_table): the rule's parameter
    angles (theta, then phi in 3D), then the real and imaginary parts of
    each channel of trace.stacked()."""
    angles = trace.grid.params.reshape(trace.grid.count, -1).T
    header = ["theta", "phi"][:len(angles)]
    for name in ("u", "dnu_u", "lap_u", "dnu_lap_u"):
        header += [f"{name}_re", f"{name}_im"]
    _write_table(fh, meta or {}, header, [*angles, *_complex_columns(*trace.stacked())])
