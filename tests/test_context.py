"""WaveContext: validation of the constructor and of the root-wavenumber
constructor; the one positive checker (context._check_positive) that every
positive input of the library, the scenario reader and the CLI goes
through; and the one array checker (context._check_array) that every array
input of the library goes through."""

import json
import re

import mpmath
import numpy as np
import pytest

from biharwave import WaveContext, cli, quadrature, specfun
from biharwave.fields import eval_field, eval_field_batch, far_field
from biharwave.kernels import green_biharmonic
from biharwave.sources import gaussian_source, make_bump_nonradiating, source_from_config
from biharwave.spectral import VerdictConfig, nullspace_residual


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


GAUSS2 = gaussian_source(CTX2, sigma=0.2)
GAUSS3 = gaussian_source(WaveContext.with_root_wavenumber(3, 1.0, 1), sigma=0.2)

# (name, a valid value of integers, the call, the bad kinds that do not
# apply): a list of radii or wave arguments takes any length, and
# green_biharmonic broadcasts over any leading axes
ARRAY_INPUTS = [
    ("points", [[2, 0]], lambda v: eval_field_batch(CTX2, GAUSS2, v, "quadrature"), ()),
    ("point", [2, 0], lambda v: eval_field(CTX2, GAUSS2, v, method="modal"), ()),
    ("directions", [[1, 0]], lambda v: far_field(CTX2, GAUSS2, v), ()),
    ("probe_radii", [2, 3], lambda v: nullspace_residual(CTX2, GAUSS2, v), ("wider", "narrower")),
    ("center", [0, 0], lambda v: gaussian_source(CTX2, center=v), ()),
    ("center", [0, 0], lambda v: make_bump_nonradiating(CTX2, rho=0.5, center=v), ()),
    ("regular wave arguments", [1, 2], lambda v: specfun.regular_wave_tables(2, 3, v), ("wider", "narrower")),
    ("exterior wave arguments", [1, 2], lambda v: specfun.exterior_wave_tables(3, 3, v), ("wider", "narrower")),
    ("points", [[0, 0]], lambda v: GAUSS2.evaluate(v), ()),
    ("points", [[0, 0, 0]], lambda v: GAUSS3.evaluate(v), ()),
    ("x", [[1, 0]], lambda v: green_biharmonic(CTX2, v, [0, 0]), ("extra-axis",)),
    ("y", [[1, 0]], lambda v: green_biharmonic(CTX2, [0, 0], v), ("extra-axis",)),
]
ARRAY_IDS = ["field-points", "field-point", "directions", "probe_radii", "gaussian-center", "bump-center",
             "regular-waves", "exterior-waves", "evaluate-2d", "evaluate-3d", "green-x", "green-y"]


def _last_set(array, value):
    array = array.copy()
    array.flat[-1] = value
    return array


BAD_ARRAYS = {
    "bool": lambda v: v.astype(bool),
    "complex": lambda v: v + 1j,
    "complex-real": lambda v: v + 0j,  # a zero imaginary part
    "string": lambda v: v.astype(str),
    "wider": lambda v: np.concatenate([v, v[..., :1]], axis=-1),
    "narrower": lambda v: v[..., :-1],
    "extra-axis": lambda v: v[None],
    "nan": lambda v: _last_set(v, np.nan),
    "inf": lambda v: _last_set(v, np.inf),
}


@pytest.mark.parametrize("name, valid, call", [entry[:3] for entry in ARRAY_INPUTS], ids=ARRAY_IDS)
def test_array_input_of_integers_accepted(name, valid, call):
    call(valid)


@pytest.mark.parametrize(
    "name, valid, call, kind",
    [(name, valid, call, kind) for name, valid, call, skipped in ARRAY_INPUTS for kind in BAD_ARRAYS
     if kind not in skipped],
    ids=[f"{input_id}-{kind}" for input_id, (*_, skipped) in zip(ARRAY_IDS, ARRAY_INPUTS) for kind in BAD_ARRAYS
         if kind not in skipped],
)
def test_array_input_refused_by_name(name, valid, call, kind):
    # at the parent of context._check_array a bool, a complex or a string
    # array was read as floats (complex ones as their real parts), a 2D
    # source and green_biharmonic read 3-column points by their first two
    # columns or broadcast them, and an extra axis failed inside numpy
    with pytest.raises(ValueError, match=rf"^{re.escape(name)} must "):
        call(BAD_ARRAYS[kind](np.array(valid, dtype=float)))
