"""scripts/cli_digest.py: how a compared output's numbers moved."""

import importlib.util
import json
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "cli_digest", Path(__file__).resolve().parent.parent / "scripts" / "cli_digest.py"
)
cli_digest = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(cli_digest)


def _verdict(residual):
    return json.dumps({"residual_field": residual, "truncation": 23, "is_nonradiating": True}).encode()


def test_per_value_change_names_the_key():
    # the residual moves by 1.3e-4 of itself, and of its key's peak; against
    # the output's peak, the truncation, that would read 5e-19
    moved = cli_digest.change(_verdict(8.7574e-14), _verdict(8.7585e-14))
    assert "max rel change 1.256e-04" in moved
    assert moved.endswith("max per-value change 1.256e-04 at residual_field")


def test_relative_change_takes_the_peak_of_its_column():
    # a transform column of 1e-6 beside angles up to 6.0: its move is 3e-8
    # of its own column's peak, where the output's peak would read 5e-15
    old = b"theta,fcheck_re\n0.0,1e-06\n3.0,-5e-07\n6.0,2e-07\n"
    new = old.replace(b"1e-06", b"1.00000003e-06")
    assert "max rel change 3.000e-08" in cli_digest.change(old, new)


def test_column_of_rounding_noise_takes_the_output_floor():
    # a column of rounding noise (a spectral CSV's fhat_minus_uhat_abs, about
    # 1e-17) that moves by 3e-17 is no change of order one: its peak is
    # floored at 1e-15 * the output's peak, 6e-15 here
    old = b"theta,fhat_re,fhat_minus_uhat_abs\n0.0,1e-06,1e-17\n3.0,-5e-07,3e-17\n6.0,2e-07,2e-17\n"
    new = old.replace(b"3e-17", b"6e-17")
    assert "max rel change 5.000e-03" in cli_digest.change(old, new)


def test_per_value_change_names_the_csv_column_and_row():
    old = b"# scenario=x\nradius,u_re,u_im\n1.05,0.5,-0.0\n3.0,1e-20,2.0\n"
    new = old.replace(b"1e-20", b"2e-20")
    # 1e-20 lies below the floor 1e-15 * peak = 3e-15
    assert cli_digest.change(old, new).endswith("max per-value change 3.333e-06 at u_re row 2")


def test_text_change_is_not_a_move():
    assert cli_digest.change(_verdict(1e-14), _verdict(1e-14).replace(b"true", b"false")) == "text differs"


def test_signed_zero_flip_fails_the_comparison():
    # -0.0 == 0.0, so no number moved; the sign of the zero did
    old = b"radius,fm_re,fm_im\n1.05,0.5,-0.0\n1.5,0.25,-0.0\n3.0,0.125,-0.0\n"
    new = old.replace(b"0.25,-0.0", b"0.25,0.0").replace(b"0.125,-0.0", b"0.125,0.0")
    moved = cli_digest.change(old, new)
    assert moved == "signed zero differs at fm_im row 2 and 1 more"
    assert cli_digest.fails(moved)
    assert not cli_digest.fails(cli_digest.change(old, old.replace(b"0.5", b"0.5000001")))
    assert cli_digest.fails(cli_digest.change(_verdict(1e-14), _verdict(1e-14).replace(b"true", b"false")))
