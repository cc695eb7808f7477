"""Scenario runner: build sources from config files, certify them, and emit
traces, spectra, field tables, and the invisibility demonstration.

All outputs are machine-readable (CSV with '#' metadata lines, or JSON) and
deterministic: the same resolved configuration produces byte-identical
files, and every file embeds the configuration hash and library version.
Every CSV table is written by one function, fields._write_table (bound here
as _write_rows): the trace table by fields.write_trace_csv, and the spectral
and field tables as lists of float columns built here, with no row loop.
"""

from __future__ import annotations

import argparse
import errno
import hashlib
import json
import os
import sys

import numpy as np

from . import __version__, fields, spectral
from .context import _check_integer, _check_positive
from .quadrature import boundary_grid
from .sources import _SOURCE_KEYS, source_from_config
from .spectral import InconsistencyError, VerdictConfig

# The settings each subcommand reads, beyond the source keys.  A subcommand
# registers a flag for each of its settings, and its scenario file may set
# only these and the source keys.
_READS = {
    "verdict": ("truncation", "tolerance", "directions"),
    "trace": ("truncation", "resolution"),
    "spectral": ("truncation", "resolution", "directions"),
    "nonuniqueness": ("truncation", "tolerance", "resolution", "directions"),
    "field": ("directions",),
}
_SETTING_TYPES = {"truncation": int, "tolerance": float, "resolution": int, "directions": int}


class ConfigError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a ConfigError, so main exits 1 like any other bad flag."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def _load_scenario(path: str, args, reads=None) -> dict:
    """The scenario at path with the flags in args laid over it.  Besides the
    source keys it may set the settings in reads, by default those that
    args.command reads.  A setting in the file is refused by its key and
    path through context's checkers unless it has its flag's type: an
    integer >= 0 for a count (the command refuses a count below its own
    least value, as it does the flag's) and a positive, finite number for
    the tolerance (never a bool or a string)."""
    reads = _READS[args.command] if reads is None else reads
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path!r} must contain a JSON object")
    unread = set(cfg) - _SOURCE_KEYS - set(reads)
    if unread:
        key = sorted(unread)[0]
        # reads=() is nonuniqueness's --config-g: its settings come from --config
        why = f"is not read by {args.command}" if reads else "is not a source key: --config-g may hold source keys only"
        raise ConfigError(f"config key {key!r} in {path!r} {why}")
    for key in reads:
        if cfg.get(key) is not None:
            where = f"config key {key!r} in {path!r}"
            if _SETTING_TYPES[key] is int:
                _check_integer(where, cfg[key], 0)
            else:
                _check_positive(where, cfg[key])
        if getattr(args, key) is not None:
            cfg[key] = getattr(args, key)
    return cfg


def _config_hash(cfg: dict) -> str:
    return hashlib.sha256(
        json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def _build(cfg: dict):
    return source_from_config({k: v for k, v in cfg.items() if k in _SOURCE_KEYS})


def _meta(cfg: dict) -> dict:
    return {"biharwave_version": __version__, "config_sha256": _config_hash(cfg)}


def _check_out(path: str | None) -> None:
    """Refuse an output path that is a directory, or whose directory does
    not exist, with the ConfigError _write_out would raise, before any
    computation; the file is not created."""
    if path is None:
        return
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(parent):
        code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
    else:
        return
    raise ConfigError(f"cannot write output {path!r}: {OSError(code, os.strerror(code), path)}")


def _write_out(path: str | None, write) -> None:
    """Call write(fh) on the file at path, or on stdout when path is None; a
    path that cannot be written is a ConfigError naming it (main refuses a
    directory, or a missing one, before the command runs: _check_out)."""
    if path is None:
        write(sys.stdout)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            write(fh)
    except OSError as exc:
        raise ConfigError(f"cannot write output {path!r}: {exc}") from exc


def _write_json(path: str | None, payload: dict) -> None:
    """Write the payload as standard JSON: a NaN or infinite value, which
    JSON cannot hold, is refused (ValueError, exit 1) and no file is written."""
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
    _write_out(path, lambda fh: fh.write(text))


# The one CSV table writer (fields._write_table), under the name the
# spectral and field tables are written by, which perfbench's tracer wraps.
_write_rows = fields._write_table


def _angle_columns(ctx, params) -> tuple[list[str], list[np.ndarray]]:
    """Header and columns of the direction angles (azimuth, then polar in 3D)."""
    if ctx.dimension == 2:
        return ["dir_angle"], [params]
    return ["dir_angle", "dir_polar"], [params[:, 1], params[:, 0]]


def _verdict_config(cfg: dict) -> VerdictConfig:
    kwargs = {}
    if cfg.get("truncation") is not None:
        kwargs["truncation"] = cfg["truncation"]
    if cfg.get("tolerance") is not None:  # an integer in the file reports as a float, as the flag does
        kwargs["tolerance"] = float(cfg["tolerance"])
    if cfg.get("directions") is not None:
        kwargs["direction_count"] = cfg["directions"]
    return VerdictConfig(**kwargs)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------
def cmd_verdict(args) -> int:
    cfg = _load_scenario(args.config, args)
    ctx, src = _build(cfg)
    payload = spectral.verdict(ctx, src, _verdict_config(cfg)).to_dict()
    payload.update(_meta(cfg))
    _write_json(args.out, payload)
    return 0


def cmd_trace(args) -> int:
    cfg = _load_scenario(args.config, args)
    ctx, src = _build(cfg)
    grid = boundary_grid(ctx, cfg.get("resolution"))
    trace = fields.boundary_trace(ctx, src, grid, truncation=cfg.get("truncation"))
    _write_out(args.out, lambda fh: fields.write_trace_csv(trace, fh, _meta(cfg)))
    return 0


def cmd_spectral(args) -> int:
    cfg = _load_scenario(args.config, args)
    ctx, src = _build(cfg)
    count = 64 if cfg.get("directions") is None else cfg["directions"]
    dirs, params = spectral.direction_grid(ctx, count)
    trunc = cfg.get("truncation")  # the source keeps its coefficients: one projection for all three
    fhat = spectral.fourier_on_circle(ctx, src, dirs, trunc)
    fcheck = spectral.laplace_on_circle(ctx, src, dirs, trunc)
    trace = fields.boundary_trace(ctx, src, boundary_grid(ctx, cfg.get("resolution")), trunc)
    uhat = spectral.u_hat_from_trace(ctx, trace, dirs)
    vcheck = spectral.v_check_from_trace(ctx, trace, dirs)

    header, angles = _angle_columns(ctx, params)
    header += [
        "fhat_re", "fhat_im", "fcheck_re", "fcheck_im",
        "uhat_re", "uhat_im", "vcheck_re", "vcheck_im",
        "fhat_minus_uhat_abs",
    ]
    d = fhat - uhat  # |d| as the hypot of its parts: the scalar abs bit for bit, where np.abs(d) is not
    columns = angles + fields._complex_columns(fhat, fcheck, uhat, vcheck) + [np.hypot(d.real, d.imag)]
    _write_out(args.out, lambda fh: _write_rows(fh, _meta(cfg), header, columns))
    return 0


def cmd_nonuniqueness(args) -> int:
    cfg_f = _load_scenario(args.config, args)
    cfg_g = _load_scenario(args.config_g, args, reads=())
    ctx, src_f = _build(cfg_f)
    ctx_g, src_g = _build(cfg_g)
    if (ctx_g.dimension, ctx_g.kappa, ctx_g.radius) != (ctx.dimension, ctx.kappa, ctx.radius):
        raise ConfigError("the two configs must share dimension, kappa, and R")
    verdict_g = spectral.verdict(ctx, src_g, _verdict_config(cfg_f))
    if not verdict_g.is_nonradiating:
        print(
            "the perturbation source radiates "
            f"(modal residual {verdict_g.residual_modal:.3e}); nothing to demonstrate",
            file=sys.stderr,
        )
        return 1
    grid = boundary_grid(ctx, cfg_f.get("resolution"))
    trunc = cfg_f.get("truncation")
    trace_f = fields.boundary_trace(ctx, src_f, grid, truncation=trunc)
    trace_fg = fields.boundary_trace(ctx, src_f + src_g, grid, truncation=trunc)
    discrepancy = float(np.max(np.abs(trace_f.stacked() - trace_fg.stacked())))
    payload = {
        "max_trace_discrepancy": discrepancy,
        "norm_f": src_f.l2_norm(),
        "norm_g": src_g.l2_norm(),
        "verdict_g": verdict_g.to_dict(),
    }
    payload.update(_meta({"f": cfg_f, "g": cfg_g}))
    _write_json(args.out, payload)
    return 0


def cmd_field(args) -> int:
    cfg = _load_scenario(args.config, args)
    ctx, src = _build(cfg)
    try:
        factors = list(spectral.PROBE_FACTORS) if args.radii is None else [float(v) for v in args.radii.split(",")]
    except ValueError as exc:  # "abc", "" or the empty item of "1.5,,2"
        raise ConfigError(f"--radii factors must be numbers: {exc}") from None
    # a negative factor would probe the antipode under the direction's angle columns
    factors = [_check_positive("--radii factors", factor) for factor in factors]
    if args.radii is not None:  # the factors given are part of the configuration the files' hash covers
        cfg["radii"] = factors
    count = VerdictConfig.direction_count if cfg.get("directions") is None else cfg["directions"]
    dirs, params = spectral.direction_grid(ctx, count)
    angle_header, angles = _angle_columns(ctx, params)
    header = ["radius"] + angle_header + ["u_re", "u_im", "fh_re", "fh_im", "fm_re", "fm_im"]
    pts = np.vstack([factor * ctx.radius * dirs for factor in factors])
    u, f_h, f_m = fields.eval_field_batch(ctx, src, pts, method="quadrature")
    # one row per (radius, direction), the directions running fastest
    columns = [np.repeat(np.array(factors) * ctx.radius, len(dirs))]
    columns += [np.tile(a, len(factors)) for a in angles] + fields._complex_columns(u, f_h, f_m)
    _write_out(args.out, lambda fh: _write_rows(fh, _meta(cfg), header, columns))
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------
def _add_subcommand(sub, name, func, help_text, with_g=False):
    p = sub.add_parser(name, help=help_text)
    p.add_argument("--config", required=True, help="scenario JSON path")
    if with_g:
        p.add_argument("--config-g", required=True, help="perturbation scenario JSON path")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    for key in _READS[name]:
        p.add_argument(f"--{key}", type=_SETTING_TYPES[key], default=None)
    p.set_defaults(func=func)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="biharwave",
        description="Field evaluation and nonradiating-source certification "
        "for the fourth-order wave equation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _add_subcommand(sub, "verdict", cmd_verdict, "certify a source and write a JSON report")
    _add_subcommand(sub, "trace", cmd_trace, "boundary measurement channels as CSV")
    _add_subcommand(sub, "spectral", cmd_spectral, "transform and boundary-functional samples as CSV")
    _add_subcommand(sub, "nonuniqueness", cmd_nonuniqueness, "show an invisible source perturbation",
                    with_g=True)
    p = _add_subcommand(sub, "field", cmd_field, "exterior field samples as CSV")
    p.add_argument("--radii", default=None, help="comma-separated radius factors (times R)")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _check_out(args.out)
        return args.func(args)
    except (ValueError, OverflowError) as exc:  # ConfigError, every rejected value, kappa*R too large
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except InconsistencyError as exc:
        print(f"inconsistency: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
