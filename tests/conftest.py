"""Fixtures shared by the test modules."""

import numpy as np
import pytest

from biharwave import context, fields, quadrature, sources, specfun


@pytest.fixture
def kernel_values(monkeypatch):
    """Number of distances fields.kernel_tables is asked for, as a one-entry list."""
    count = [0]
    tables = fields.kernel_tables

    def counting(ctx, r):
        count[0] += np.size(r)
        return tables(ctx, r)

    monkeypatch.setattr(fields, "kernel_tables", counting)
    return count


@pytest.fixture
def harmonic_blocks(monkeypatch):
    """Number of specfun.sph_harmonic_block calls, as a one-entry list."""
    count = [0]
    block = specfun.sph_harmonic_block

    def counting(truncation, theta, phi):
        count[0] += 1
        return block(truncation, theta, phi)

    monkeypatch.setattr(specfun, "sph_harmonic_block", counting)
    return count


@pytest.fixture
def radial_table_radii(monkeypatch):
    """Number of radii of each fields._radial_tables call, as a list; the
    kept arrays (context._kept), the exterior factors at r = R among them,
    are emptied for the test first, so that every trace tabulates its own."""
    monkeypatch.setattr(context, "_kept", {})
    sizes = []
    tables = fields._radial_tables

    def counting(ctx, truncation, t, **kwargs):
        sizes.append(np.size(t))
        return tables(ctx, truncation, t, **kwargs)

    monkeypatch.setattr(fields, "_radial_tables", counting)
    return sizes


@pytest.fixture
def product_grids(monkeypatch):
    """Number of quadrature.product_grid calls, as a one-entry list, counted
    under both names it is called by (quadrature's and sources' import)."""
    count = [0]
    product_grid = quadrature.product_grid

    def counting(*args, **kwargs):
        count[0] += 1
        return product_grid(*args, **kwargs)

    monkeypatch.setattr(quadrature, "product_grid", counting)
    monkeypatch.setattr(sources, "product_grid", counting)
    return count


@pytest.fixture
def projections(monkeypatch):
    """The truncation of each sources.project_modes call, as a list."""
    calls = []
    project_modes = sources.project_modes

    def counting(src, truncation):
        calls.append(truncation)
        return project_modes(src, truncation)

    monkeypatch.setattr(sources, "project_modes", counting)
    return calls
