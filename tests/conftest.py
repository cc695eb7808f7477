"""Fixtures shared by the test modules."""

import numpy as np
import pytest

from biharwave import fields


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
