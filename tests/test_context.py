"""WaveContext: validation of the constructor and of the root-wavenumber
constructor; and the one positive checker (context._check_positive) that
every positive input of the library, the scenario reader and the CLI goes
through."""

import json
import re

import mpmath
import numpy as np
import pytest

from biharwave import WaveContext, cli, quadrature
from biharwave.sources import gaussian_source, make_bump_nonradiating, source_from_config
from biharwave.spectral import VerdictConfig


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


@pytest.mark.parametrize("field, args", [("kappa", (2, True, 1.0)), ("R", (3, 2.0, True))], ids=["kappa", "R"])
def test_bool_kappa_or_radius_refused(field, args):
    with pytest.raises(ValueError, match=f"{field} must be positive and finite, got True"):
        WaveContext(*args)


@pytest.mark.parametrize("dimension", [2.0, 3.0, True], ids=["2.0", "3.0", "True"])
def test_non_integer_dimension_refused(dimension):
    # 2.0 in (2, 3) holds, and such a context failed later inside numpy
    pattern = rf"dimension must be the integer 2 or 3, got {dimension!r}"
    with pytest.raises(ValueError, match=pattern):
        WaveContext(dimension, 2.0, 1.0)
    with pytest.raises(ValueError, match=pattern):
        WaveContext.with_root_wavenumber(dimension, 1.0, 1)


def test_numpy_numbers_accepted():
    ctx = WaveContext(np.int64(3), np.float32(2.0), np.int64(1))
    assert (ctx.kappa, ctx.radius) == (2.0, 1)
    assert WaveContext.with_root_wavenumber(np.int64(2), 1.0, 1) == WaveContext.with_root_wavenumber(2, 1.0, 1)


def test_2d_roots_are_the_zeros_of_j0():
    # McMahon's start and Newton's steps on specfun's J_0 and J_1: every zero
    # within an ulp of mpmath's, 99 of these 100 the nearest double (the
    # 20th lies 0.0009 ulp from the midpoint of two doubles)
    for k in range(1, 101):
        zero = float(mpmath.besseljzero(0, k))
        assert abs(WaveContext.with_root_wavenumber(2, 1.0, k).kappa - zero) <= np.spacing(zero)


CTX2 = WaveContext.with_root_wavenumber(2, 1.0, 1)
NR2D = {"dimension": 2, "R": 1.0, "root_index": 1, "kind": "bessel_nonradiating"}


def _run(tmp_path, argv, **keys):
    """Run a subcommand on a scenario of NR2D and the keys, letting its
    refusal (a ValueError) rise instead of printing it."""
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(dict(NR2D, **keys)))  # NaN and inf as JSON's NaN and Infinity
    args = cli.build_parser().parse_args(argv + ["--config", str(path), "--out", str(tmp_path / "out")])
    return args.func(args)


POSITIVE_INPUTS = [
    ("kappa", lambda v, tmp: WaveContext(2, v, 1.0)),
    ("R", lambda v, tmp: WaveContext(2, 1.0, v)),
    ("R", lambda v, tmp: WaveContext.with_root_wavenumber(2, v, 1)),
    ("tolerance", lambda v, tmp: VerdictConfig(tolerance=v)),
    ("sigma", lambda v, tmp: gaussian_source(CTX2, sigma=v)),
    ("rho", lambda v, tmp: make_bump_nonradiating(CTX2, rho=v)),
    ("extent", lambda v, tmp: quadrature.radial_rule(CTX2, 64, v)),
    ("config key 'R'", lambda v, tmp: source_from_config(dict(NR2D, R=v))),
    ("config key 'kappa'", lambda v, tmp: source_from_config({"dimension": 2, "R": 1.0, "kappa": v, "kind": "zero"})),
    ("config key 'tolerance'", lambda v, tmp: _run(tmp, ["verdict"], tolerance=v)),
    ("--radii factors", lambda v, tmp: _run(tmp, ["field", "--radii", str(v)])),
]


@pytest.mark.parametrize("value", [0, -1, float("nan"), float("inf"), True], ids=["0", "-1", "nan", "inf", "True"])
@pytest.mark.parametrize(
    "name, build", POSITIVE_INPUTS,
    ids=["kappa", "R", "R-root-wavenumber", "tolerance", "sigma", "rho", "extent", "config-R", "config-kappa",
         "file-tolerance", "radii"],
)
def test_positive_input_refused_by_name(tmp_path, name, build, value):
    # sigma and rho meet _check_finite_real first, which names a NaN, an
    # inf and a bool as "a finite number"; --radii parses "True" as no
    # number; a file setting is named with its file's path
    with pytest.raises(ValueError, match=rf"^{re.escape(name)}( in '[^']*')? must be "):
        build(value, tmp_path)
    assert not (tmp_path / "out").exists()
