"""Command-line surface: exit codes, file formats, determinism."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from biharwave import fields, sources, spectral
from biharwave.cli import main
from biharwave.quadrature import boundary_grid

NR2D = {"dimension": 2, "R": 1.0, "root_index": 1, "kind": "bessel_nonradiating"}
GAUSS2D = {
    "dimension": 2,
    "R": 1.0,
    "root_index": 1,
    "kind": "gaussian",
    "parameters": {"center": [0.25, 0.0], "sigma": 0.1, "support_radius": 0.9},
}
ZERO2D = {"dimension": 2, "R": 1.0, "kappa": 2.0, "kind": "zero"}


def _write(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def _data_lines(path):
    lines = path.read_text().splitlines()
    meta = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if not ln.startswith("#")]
    return meta, body[0].split(","), [ln.split(",") for ln in body[1:]]


class TestVerdictCommand:
    def test_nonradiating_report(self, tmp_path):
        cfg = _write(tmp_path, "nr.json", NR2D)
        out = tmp_path / "report.json"
        assert main(["verdict", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["is_nonradiating"] is True
        assert report["config_sha256"]
        assert report["biharwave_version"]

    def test_radiating_report_still_exits_zero(self, tmp_path):
        cfg = _write(tmp_path, "g.json", GAUSS2D)
        out = tmp_path / "report.json"
        assert main(["verdict", "--config", cfg, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["is_nonradiating"] is False

    def test_malformed_config_names_key(self, tmp_path, capsys):
        bad = dict(ZERO2D, R=-1.0)
        cfg = _write(tmp_path, "bad.json", bad)
        assert main(["verdict", "--config", cfg]) == 1
        assert "'R'" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = _write(tmp_path, "bad.json", dict(ZERO2D, shape="round"))
        assert main(["verdict", "--config", cfg]) == 1
        assert "shape" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["verdict", "--config", "/nonexistent/conf.json"]) == 1


class TestTraceCommand:
    def test_row_count_matches_resolution(self, tmp_path):
        cfg = _write(tmp_path, "g.json", GAUSS2D)
        out = tmp_path / "trace.csv"
        assert main(["trace", "--config", cfg, "--out", str(out), "--resolution", "48"]) == 0
        meta, header, rows = _data_lines(out)
        assert len(rows) == 48
        assert header[0] == "theta"
        assert any("config_sha256" in m for m in meta)

    def test_zero_source_all_zero(self, tmp_path):
        cfg = _write(tmp_path, "z.json", ZERO2D)
        out = tmp_path / "trace.csv"
        assert main(["trace", "--config", cfg, "--out", str(out), "--resolution", "16"]) == 0
        _, _, rows = _data_lines(out)
        data = np.array([[float(v) for v in row[1:]] for row in rows])
        assert np.all(data == 0.0)

    def test_nonradiating_trace_dark(self, tmp_path):
        cfg = _write(tmp_path, "nr.json", NR2D)
        out = tmp_path / "trace.csv"
        assert main(["trace", "--config", cfg, "--out", str(out), "--resolution", "16"]) == 0
        _, _, rows = _data_lines(out)
        data = np.array([[float(v) for v in row[1:]] for row in rows])
        assert np.max(np.abs(data)) < 1e-8

    def test_byte_identical_reruns(self, tmp_path):
        cfg = _write(tmp_path, "g.json", GAUSS2D)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["trace", "--config", cfg, "--out", str(out1), "--resolution", "16"])
        main(["trace", "--config", cfg, "--out", str(out2), "--resolution", "16"])
        assert out1.read_bytes() == out2.read_bytes()


class TestSpectralCommand:
    def test_columns_and_identity_column(self, tmp_path):
        cfg = _write(tmp_path, "g.json", GAUSS2D)
        out = tmp_path / "spec.csv"
        assert main([
            "spectral", "--config", cfg, "--out", str(out),
            "--directions", "16", "--resolution", "128",
        ]) == 0
        _, header, rows = _data_lines(out)
        assert header[-1] == "fhat_minus_uhat_abs"
        assert len(rows) == 16
        gap = np.array([float(r[-1]) for r in rows])
        assert np.max(gap) < 1e-6 * 0.177  # 1e-6 relative; this source's norm is ~0.177

    def test_projects_once(self, tmp_path, monkeypatch):
        # fhat, fcheck and the boundary trace share one set of coefficients
        calls = []
        project_modes = sources.project_modes

        def counting(src, truncation):
            calls.append(truncation)
            return project_modes(src, truncation)

        monkeypatch.setattr(sources, "project_modes", counting)
        cfg = _write(tmp_path, "g.json", GAUSS2D)
        assert main(["spectral", "--config", cfg, "--out", str(tmp_path / "spec.csv")]) == 0
        assert len(calls) == 1

    def test_nonradiating_spectrum_dark(self, tmp_path):
        cfg = _write(tmp_path, "nr.json", NR2D)
        out = tmp_path / "spec.csv"
        assert main([
            "spectral", "--config", cfg, "--out", str(out),
            "--directions", "8", "--resolution", "64",
        ]) == 0
        _, header, rows = _data_lines(out)
        data = np.array([[float(v) for v in row[1:]] for row in rows])
        assert np.max(np.abs(data)) < 1e-8 * 62.4  # 1e-8 relative; norm is ~62.4

    def test_3d_has_two_angle_columns(self, tmp_path):
        cfg = _write(
            tmp_path, "g3.json",
            {"dimension": 3, "R": 1.0, "root_index": 1, "kind": "gaussian",
             "parameters": {"center": [0.2, 0.1, 0.15], "sigma": 0.1,
                             "support_radius": 0.9}},
        )
        out = tmp_path / "spec3.csv"
        assert main([
            "spectral", "--config", cfg, "--out", str(out),
            "--directions", "16", "--resolution", "16",
        ]) == 0
        _, header, rows = _data_lines(out)
        assert header[:2] == ["dir_angle", "dir_polar"]
        assert len(rows) >= 16


GAUSS3D = {
    "dimension": 3,
    "R": 1.0,
    "root_index": 1,
    "kind": "gaussian",
    "parameters": {"center": [0.2, 0.1, 0.15], "sigma": 0.1, "support_radius": 0.9},
}


def _assert_table(path, header, columns):
    """The CSV table at path has this header, every row the header's length,
    one row per entry of the columns, and each value reads back to its
    column's double bit for bit (the sign of a zero included)."""
    _, got_header, rows = _data_lines(path)
    assert got_header == header
    assert [len(row) for row in rows] == [len(header)] * len(columns[0])
    for name, texts, column in zip(header, zip(*rows), columns):
        got = np.array([float(text) for text in texts])
        want = np.asarray(column, dtype=float)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), name


def _parts(*arrays):
    return [part for a in arrays for part in (a.real, a.imag)]


class TestTablesRoundTrip:
    """Every CSV value reads back to the library's double, in the layout the
    README gives."""

    @pytest.mark.parametrize("cfg", [GAUSS2D, GAUSS3D], ids=["2d", "3d"])
    def test_trace(self, tmp_path, cfg):
        out = tmp_path / "trace.csv"
        assert main(["trace", "--config", _write(tmp_path, "g.json", cfg), "--out", str(out),
                     "--resolution", "16"]) == 0
        ctx, src = sources.source_from_config(cfg)
        trace = fields.boundary_trace(ctx, src, boundary_grid(ctx, 16))
        params = trace.grid.params
        names, angles = (["theta"], [params]) if ctx.dimension == 2 else (["theta", "phi"], list(params.T))
        header = names + ["u_re", "u_im", "dnu_u_re", "dnu_u_im", "lap_u_re", "lap_u_im",
                          "dnu_lap_u_re", "dnu_lap_u_im"]
        channels = (trace.u, trace.du_dnu, trace.lap_u, trace.dlap_u_dnu)
        _assert_table(out, header, angles + _parts(*channels))

    def test_spectral_3d(self, tmp_path):
        out = tmp_path / "spec.csv"
        assert main(["spectral", "--config", _write(tmp_path, "g.json", GAUSS3D), "--out", str(out),
                     "--directions", "16", "--resolution", "16"]) == 0
        ctx, src = sources.source_from_config(GAUSS3D)
        dirs, params = spectral.direction_grid(ctx, 16)
        fhat = spectral.fourier_on_circle(ctx, src, dirs)
        fcheck = spectral.laplace_on_circle(ctx, src, dirs)
        trace = fields.boundary_trace(ctx, src, boundary_grid(ctx, 16))
        uhat = spectral.u_hat_from_trace(ctx, trace, dirs)
        vcheck = spectral.v_check_from_trace(ctx, trace, dirs)
        header = ["dir_angle", "dir_polar", "fhat_re", "fhat_im", "fcheck_re", "fcheck_im",
                  "uhat_re", "uhat_im", "vcheck_re", "vcheck_im", "fhat_minus_uhat_abs"]
        gap = [abs(f - u) for f, u in zip(fhat, uhat)]
        _assert_table(out, header, [params[:, 1], params[:, 0]] + _parts(fhat, fcheck, uhat, vcheck) + [gap])

    @pytest.mark.parametrize("cfg", [GAUSS2D, GAUSS3D], ids=["2d", "3d"])
    def test_field_over_two_radii(self, tmp_path, cfg):
        out = tmp_path / "field.csv"
        assert main(["field", "--config", _write(tmp_path, "g.json", cfg), "--out", str(out),
                     "--radii", "1.2,2.0", "--directions", "8"]) == 0
        ctx, src = sources.source_from_config(cfg)
        dirs, params = spectral.direction_grid(ctx, 8)
        angles = [params] if ctx.dimension == 2 else [params[:, 1], params[:, 0]]
        pts = np.vstack([factor * ctx.radius * dirs for factor in (1.2, 2.0)])
        u, f_h, f_m = fields.eval_field_batch(ctx, src, pts, method="quadrature")
        # the directions run fastest: each radius holds for a whole sweep of the angles
        radius = [factor * ctx.radius for factor in (1.2, 2.0) for _ in dirs]
        tiled = [[value for _ in (1.2, 2.0) for value in angle] for angle in angles]
        header = ["radius", "dir_angle"] + (["dir_polar"] if ctx.dimension == 3 else [])
        header += ["u_re", "u_im", "fh_re", "fh_im", "fm_re", "fm_im"]
        _assert_table(out, header, [radius] + tiled + _parts(u, f_h, f_m))


class TestNonuniquenessCommand:
    def test_invisible_perturbation_report(self, tmp_path):
        cfg_f = _write(tmp_path, "f.json", GAUSS2D)
        cfg_g = _write(tmp_path, "g.json", NR2D)
        out = tmp_path / "demo.json"
        assert main([
            "nonuniqueness", "--config", cfg_f, "--config-g", cfg_g, "--out", str(out),
        ]) == 0
        report = json.loads(out.read_text())
        total = report["norm_f"] + report["norm_g"]
        assert report["max_trace_discrepancy"] < 1e-8 * total
        assert report["verdict_g"]["is_nonradiating"] is True

    def test_radiating_perturbation_rejected(self, tmp_path, capsys):
        cfg_f = _write(tmp_path, "f.json", GAUSS2D)
        cfg_g = _write(tmp_path, "g.json", GAUSS2D)
        assert main(["nonuniqueness", "--config", cfg_f, "--config-g", cfg_g]) == 1
        assert "radiates" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("truncation", 12), ("shape", "round")])
    def test_perturbation_file_holds_source_keys_only(self, tmp_path, capsys, key, value):
        # nonuniqueness reads its truncation from --config, never from --config-g
        cfg_f = _write(tmp_path, "f.json", GAUSS2D)
        cfg_g = _write(tmp_path, "g.json", dict(NR2D, **{key: value}))
        assert main(["nonuniqueness", "--config", cfg_f, "--config-g", cfg_g]) == 1
        err = capsys.readouterr().err
        assert err == f"config error: config key {key!r} in {cfg_g!r} is not a source key: " \
                      "--config-g may hold source keys only\n"


class TestFieldCommand:
    def test_field_table(self, tmp_path):
        cfg = _write(tmp_path, "g.json", GAUSS2D)
        out = tmp_path / "field.csv"
        assert main([
            "field", "--config", cfg, "--out", str(out),
            "--radii", "1.2,2.0", "--directions", "8",
        ]) == 0
        _, header, rows = _data_lines(out)
        assert header[0] == "radius"
        assert len(rows) == 2 * 8
        u = np.array([complex(float(r[2]), float(r[3])) for r in rows])
        assert np.max(np.abs(u)) > 0

    def test_one_field_evaluation(self, tmp_path, monkeypatch):
        # all radius factors in one call: the source is sampled on the
        # quadrature grid once, and the rows match per-factor evaluation
        from biharwave import WaveContext, fields, spectral

        reads = []
        values_on = sources.SourceField.values_on

        def counting(self, grid):
            reads.append(grid.points.shape)
            return values_on(self, grid)

        monkeypatch.setattr(sources.SourceField, "values_on", counting)
        cfg = _write(tmp_path, "g.json", GAUSS2D)
        out = tmp_path / "field.csv"
        assert main(["field", "--config", cfg, "--out", str(out), "--directions", "8"]) == 0
        assert len(reads) == 1
        _, _, rows = _data_lines(out)
        ctx = WaveContext.with_root_wavenumber(2, 1.0, 1)
        src = sources.gaussian_source(ctx, **GAUSS2D["parameters"])
        dirs, _ = spectral.direction_grid(ctx, 8)
        expected = []
        for factor in (1.05, 1.5, 3.0):
            u = fields.eval_field_batch(ctx, src, factor * ctx.radius * dirs, method="quadrature")[0]
            expected += [[factor * ctx.radius, v.real, v.imag] for v in u]
        got = [[float(r[0]), float(r[2]), float(r[3])] for r in rows]
        assert got == expected


@pytest.mark.parametrize(
    "argv, file_keys",
    [
        (["field", "--radii", "0.5"], {}),
        (["field", "--radii", "abc"], {}),
        (["trace", "--resolution", "4"], {}),
        (["trace", "--truncation", "-1"], {}),
        (["verdict", "--tolerance", "-1"], {}),
        (["field", "--directions", "-5"], {}),
        (["field", "--directions", "0"], {}),
        (["spectral", "--directions", "0"], {}),
        (["field", "--truncation", "3"], {}),
        (["trace", "--tolerance", "1e-3"], {}),
        (["verdict", "--resolution", "64"], {}),
        (["verdict", "--truncation", "abc"], {}),
        (["field"], {"tolerance": 1e-3}),
        (["verdict", "--dimension", "3"], {}),
    ],
    ids=[
        "radii-inside", "radii-text", "resolution-4", "truncation-neg", "tolerance-neg",
        "field-directions-neg", "field-directions-0", "spectral-directions-0",
        "field-truncation", "trace-tolerance", "verdict-resolution", "truncation-text",
        "field-file-tolerance", "verdict-dimension",
    ],
)
def test_bad_flag_is_config_error(tmp_path, capsys, argv, file_keys):
    # file_keys: settings written into the scenario file instead of passed as flags
    cfg = _write(tmp_path, "nr.json", dict(NR2D, **file_keys))
    assert main(argv + ["--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("config error: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("target", ["missing/out.json", "."], ids=["missing-directory", "directory"])
def test_unwritable_out_is_one_config_error_line(tmp_path, capsys, monkeypatch, target):
    # refused before the verdict is computed: reaching it fails the test
    def unreachable(*args, **kwargs):
        raise AssertionError("the verdict ran before the output path was refused")

    monkeypatch.setattr(spectral, "verdict", unreachable)
    cfg = _write(tmp_path, "nr.json", NR2D)
    out = str(tmp_path / target)
    assert main(["verdict", "--config", cfg, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot write output {out!r}: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "command, key, value",
    [
        ("trace", "truncation", 2.5),
        ("trace", "truncation", "12"),
        ("trace", "truncation", True),
        ("verdict", "tolerance", True),
        ("verdict", "tolerance", "1e-6"),
        ("field", "directions", 8.9),
    ],
    ids=["truncation-float", "truncation-text", "truncation-bool", "tolerance-bool",
         "tolerance-text", "directions-float"],
)
def test_file_setting_needs_its_flag_type(tmp_path, capsys, command, key, value):
    # the file is held to the type its flag parses to, not cast or left to fail later
    cfg = _write(tmp_path, "nr.json", dict(NR2D, **{key: value}))
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and repr(key) in err and repr(value) in err
    assert not (tmp_path / "out").exists()


def test_integer_tolerance_in_file_reports_as_float(tmp_path):
    cfg = _write(tmp_path, "nr.json", dict(NR2D, tolerance=1))
    out = tmp_path / "report.json"
    assert main(["verdict", "--config", cfg, "--out", str(out)]) == 0
    assert repr(json.loads(out.read_text())["tolerance"]) == "1.0"


@pytest.mark.parametrize(
    "kind, name, value",
    [
        ("gaussian", "amplitude", float("nan")),
        ("gaussian", "amplitude", float("inf")),
        ("gaussian", "center", [float("nan"), 0.0]),
        ("gaussian", "sigma", float("nan")),
        ("gaussian", "support_radius", float("nan")),
        ("bump_nonradiating", "amplitude", float("nan")),
        ("bump_nonradiating", "center", [0.0, float("nan")]),
        ("bump_nonradiating", "rho", float("nan")),
        ("gaussian", "sigma", float("inf")),
        ("gaussian", "sigma", True),
        ("gaussian", "support_radius", True),
        ("bump_nonradiating", "rho", True),
        ("gaussian", "center", [True, False]),
        ("bump_nonradiating", "center", [0.1, "a"]),
        ("gaussian", "center", [[0.1, 0.0]]),
    ],
    ids=[
        "gaussian-amplitude-nan", "gaussian-amplitude-inf", "gaussian-center-nan",
        "gaussian-sigma-nan", "gaussian-support_radius-nan", "bump-amplitude-nan",
        "bump-center-nan", "bump-rho-nan", "gaussian-sigma-inf", "gaussian-sigma-bool",
        "gaussian-support_radius-bool", "bump-rho-bool", "gaussian-center-bool", "bump-center-text",
        "gaussian-center-extra-axis",
    ],
)
def test_non_finite_parameter_is_named(tmp_path, capsys, kind, name, value):
    # Python's json reads NaN and Infinity; none may reach a computation, nor
    # may true run as 1.0 (at R = 2 a bump of radius 1 fits, so a true rho is
    # refused for its type, not for its support; a centre [true, false] ran
    # as (1, 0)), nor may a string give float()'s message, which named no key
    cfg = _write(tmp_path, "bad.json", dict(NR2D, R=2.0, kind=kind, parameters={name: value}))
    assert main(["field", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {name} must ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("radii", ["nan", "inf", "-2", "0", "1.5,nan", "abc", "1.5,,2", ""])
def test_radii_must_be_finite_and_positive(tmp_path, capsys, radii):
    # nan matched no probe ring and wrote an all-zero field, the look of an
    # invisible source; -2 probed the antipode under the direction's angles;
    # a word or an empty item gave float()'s message, which named no flag;
    # an empty value ran the default radii
    cfg = _write(tmp_path, "g.json", GAUSS2D)
    assert main(["field", f"--radii={radii}", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "--radii" in err
    assert not (tmp_path / "out").exists()


def test_radii_are_part_of_the_hashed_config(tmp_path):
    # the hash was the scenario's alone, the same for every --radii
    cfg = _write(tmp_path, "g.json", GAUSS2D)
    hashes = []
    for radii in ([], ["--radii", "2.0"], ["--radii", "1.2,2.0"], ["--radii", "1.2, 2"]):
        out = tmp_path / "field.csv"
        assert main(["field", "--config", cfg, "--out", str(out), "--directions", "8"] + radii) == 0
        meta, _, _ = _data_lines(out)
        hashes.append(next(line for line in meta if line.startswith("# config_sha256=")))
    # the parsed factors are hashed, not the flag's text
    assert len(set(hashes[:3])) == 3 and hashes[3] == hashes[2]


@pytest.mark.parametrize("value", [3.7, "3", True, float("nan")], ids=["float", "text", "bool", "nan"])
def test_3d_exponent_must_be_integer(tmp_path, capsys, value):
    # int() truncated 3.7 to 3, read true as 1 and "3" as 3
    scenario = {"dimension": 3, "R": 1.0, "root_index": 1, "kind": "bessel_nonradiating"}
    cfg = _write(tmp_path, "b3.json", dict(scenario, parameters={"m1": value}))
    assert main(["field", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "'m1'" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "key, value",
    [("R", True), ("root_index", True), ("kappa", True), ("dimension", 2.0), ("dimension", True)],
    ids=["R-bool", "root_index-bool", "kappa-bool", "dimension-float", "dimension-bool"],
)
def test_context_key_types_are_exact(tmp_path, capsys, key, value):
    # JSON true is a Python int and 2.0 == 2: both passed the old checks
    scenario = {k: v for k, v in NR2D.items() if not (key == "kappa" and k == "root_index")}
    cfg = _write(tmp_path, "typed.json", dict(scenario, **{key: value}))
    assert main(["field", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and f"'{key}'" in err
    assert not (tmp_path / "out").exists()


def test_overflow_is_one_config_error_line(tmp_path, capsys):
    # beta leaves the double range inside the support (radius 0.9) at
    # kappa = 1000; the library names kappa times the support radius
    scenario = {k: v for k, v in GAUSS2D.items() if k != "root_index"}
    cfg = _write(tmp_path, "k1000.json", dict(scenario, kappa=1000))
    argv = ["trace", "--truncation", "4", "--config", cfg, "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert "kappa*support_radius = 900" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "cfg, truncation, kr",
    [
        (GAUSS2D, 300, "2.40483"),
        (dict(dimension=3, R=1.0, kappa=1e-3, kind="gaussian",
              parameters={"center": [0.2, 0.1, 0.15], "sigma": 0.1, "support_radius": 0.9}), 70, "0.001"),
    ],
    ids=["2d", "3d"],
)
def test_series_overflow_is_one_config_error_line(tmp_path, capsys, cfg, truncation, kr):
    # the exterior series' radial factors leave the double range at kappa R:
    # refused, not written as rows of NaN
    path = _write(tmp_path, "g.json", cfg)
    argv = ["trace", "--truncation", str(truncation), "--config", path, "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert f"kappa*r = {kr}" in err and f"truncation {truncation}" in err
    assert not (tmp_path / "out").exists()


def test_support_inside_the_first_node_is_one_config_error_line(tmp_path, capsys):
    # the 64-node rule's first node is at 3.47e-4 R: a support inside it
    # leaves the grid without a node, which every route would sum to zero
    scenario = dict(GAUSS2D, parameters={"sigma": 0.1, "support_radius": 0.0002})
    cfg = _write(tmp_path, "tiny.json", scenario)
    assert main(["verdict", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert "support_radius 0.0002 " in err and "first radial node 0.000347479 " in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("dimension, center, sigma, grid", [
    (2, [0.5, 0.0013], 1e-4, "64 radial x 256 angular"),
    (2, [0.5, 0.0013], 1e-5, "64 radial x 256 angular"),
    (3, [0.5, 0.0013, 0.0007], 1e-4, "64 radial x 2048 angular"),
], ids=["2d", "2d-narrower", "3d"])
def test_source_no_node_sees_is_refused(tmp_path, capsys, dimension, center, sigma, grid):
    # a Gaussian narrower than the grid's spacing, between its nodes, reads
    # zero at every node: every residual would be 0 / 0, and a residual of 0
    # would certify this radiating source as nonradiating
    scenario = dict(GAUSS2D, dimension=dimension, parameters={"center": center, "sigma": sigma})
    cfg = _write(tmp_path, "narrow.json", scenario)
    assert main(["verdict", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("inconsistency: ") and err.count("\n") == 1
    assert f"zero at every node of its grid ({grid} nodes)" in err and "narrower than the grid's spacing" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["verdict", "nonuniqueness"])
def test_infinite_norm_is_one_config_error_line(tmp_path, capsys, command):
    # a Gaussian of amplitude 1e200 has finite coefficients and an L2 norm of
    # inf: verdict refuses the norm, and nonuniqueness, whose verdict reads g,
    # refuses to write "norm_f": Infinity, which is not JSON
    scenario = dict(GAUSS2D, parameters=dict(GAUSS2D["parameters"], amplitude=1e200))
    argv = [command, "--config", _write(tmp_path, "big.json", scenario), "--out", str(tmp_path / "out")]
    if command == "nonuniqueness":
        argv += ["--config-g", _write(tmp_path, "g.json", NR2D)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert ("L2 norm is not finite (inf)" if command == "verdict" else "not JSON compliant: inf") in err
    assert not (tmp_path / "out").exists()


def test_nonuniqueness_with_a_zero_perturbation_exits_2(tmp_path, capsys):
    cfg_f = _write(tmp_path, "f.json", GAUSS2D)
    cfg_g = _write(tmp_path, "g.json", {"dimension": 2, "R": 1.0, "root_index": 1, "kind": "zero"})
    assert main(["nonuniqueness", "--config", cfg_f, "--config-g", cfg_g, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("inconsistency: ") and "zero at every node of its grid" in err
    assert not (tmp_path / "out").exists()


def test_route_disagreement_exits_2(tmp_path, capsys):
    # the 2D Bessel invisible source at kappa*R ~ 27.5: the modal and spectral
    # residuals miss the tolerance while the field residual meets it, and a
    # higher truncation refuses with the same residuals, so the message must
    # not advise one
    cfg = _write(tmp_path, "nr9.json", dict(NR2D, root_index=9))
    residuals = []
    # the truncation the message names is the projected one, N + 8
    for extra, top in (([], 80), (["--truncation", "96"], 104)):
        assert main(["verdict", "--config", cfg, "--out", str(tmp_path / "out")] + extra) == 2
        err = capsys.readouterr().err
        assert err.startswith("inconsistency: ")
        assert f"(kappa*R = 27.49, truncation {top})" in err and "exp(kappa*R) growth" in err
        assert "raise the truncation" not in err
        residuals.append(re.search(r"modal (\S+), spectral (\S+), field (\S+);", err).groups())
        assert not (tmp_path / "out").exists()
    assert residuals[0] == residuals[1]


def test_import_leaves_scipy_interpolate_unloaded():
    # the library never interpolates, and scipy.interpolate is slow to
    # import; a child process keeps this test's imports apart
    root = Path(__file__).resolve().parents[1]
    code = "import sys, biharwave.cli; sys.exit('scipy.interpolate' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0


_SCIPY_FREE_RUN = """
import json, sys
def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
import biharwave
after_import = scipy_modules()
from biharwave.cli import main
out = sys.argv[1]
codes = [main([sub, "--config", f"scenarios/{sc}.json", "--out", f"{out}/{sub}_{sc}"])
         for sub in ("verdict", "trace", "spectral", "field") for sc in ("gaussian_2d", "invisible_3d")]
codes.append(main(["nonuniqueness", "--config", "scenarios/gaussian_2d.json",
                   "--config-g", "scenarios/invisible_2d.json", "--out", f"{out}/nonuniqueness"]))
print(json.dumps({"after_import": after_import, "at_end": scipy_modules(), "codes": codes}))
"""


def test_commands_run_without_scipy(tmp_path):
    # the library needs numpy alone: neither `import biharwave` nor any
    # subcommand loads scipy, whose special-function module costs a fresh
    # process about 0.18 s and 22 MB; one child process, with the BLAS
    # thread pins of scripts/cli_digest.py, runs every subcommand
    root = Path(__file__).resolve().parents[1]
    pins = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env = dict(os.environ, PYTHONPATH=str(root / "src"), **pins)
    proc = subprocess.run([sys.executable, "-c", _SCIPY_FREE_RUN, str(tmp_path)], cwd=root, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.strip().splitlines()[-1])
    assert seen["after_import"] == [] and seen["at_end"] == []
    assert len(seen["codes"]) == 9 and all(code == 0 for code in seen["codes"])
