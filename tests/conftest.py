"""Fixtures shared by the test modules."""

import numpy as np
import pytest

from biharwave import fields, specfun


@pytest.fixture
def kernel_values(monkeypatch):
    """Number of distances fields.phi_h_of_r is asked for, as a one-entry list."""
    count = [0]
    phi_h = fields.phi_h_of_r

    def counting(ctx, r):
        count[0] += np.size(r)
        return phi_h(ctx, r)

    monkeypatch.setattr(fields, "phi_h_of_r", counting)
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
    """Number of radii of each fields._radial_tables call, as a list."""
    sizes = []
    tables = fields._radial_tables

    def counting(ctx, truncation, t, derivative):
        sizes.append(np.size(t))
        return tables(ctx, truncation, t, derivative)

    monkeypatch.setattr(fields, "_radial_tables", counting)
    return sizes
