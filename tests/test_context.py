"""WaveContext: validation of the root-wavenumber constructor."""

import pytest

from biharwave import WaveContext


@pytest.mark.parametrize("dimension", [2, 3])
class TestWithRootWavenumber:
    def test_zero_radius_named(self, dimension):
        with pytest.raises(ValueError, match=r"R must be positive and finite, got 0\.0"):
            WaveContext.with_root_wavenumber(dimension, 0.0, 1)

    def test_negative_radius_named_not_kappa(self, dimension):
        with pytest.raises(ValueError, match=r"R must be positive and finite, got -1\.0"):
            WaveContext.with_root_wavenumber(dimension, -1.0, 1)

    def test_fractional_root_index_refused(self, dimension):
        with pytest.raises(ValueError, match=r"root_index must be an integer >= 1, got 2\.5"):
            WaveContext.with_root_wavenumber(dimension, 1.0, 2.5)

    def test_bool_root_index_refused(self, dimension):
        with pytest.raises(ValueError, match=r"root_index must be an integer >= 1, got True"):
            WaveContext.with_root_wavenumber(dimension, 1.0, True)
