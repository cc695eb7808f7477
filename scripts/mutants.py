"""Run the test suite against known-bad edits of the library, one at a time.

Each mutant is a named text edit of one file (its old text, found exactly
once, replaced by new text) with the tests expected to catch it.  For each
mutant the script copies the tree into a temporary directory, applies the
edit there and runs pytest on the copy, then prints a table of which
mutants were caught (at least one test failed) and which survived.  It
never edits the tree it runs from.  Usage, from any directory:

    python scripts/mutants.py                    # each mutant against its expected tests
    python scripts/mutants.py --all              # each mutant against the whole suite
    python scripts/mutants.py --only A,B         # only the mutants named A and B

A run of the whole suite takes 30-40 s per mutant on 2 cores; the expected
tests alone take a few seconds.  Each table row reads

    <mutant>  <expected tests that failed>/<expected>  caught|survived|timed out  <pytest's summary line>

The result is "caught" when pytest exits 1 (a test failed), "survived" when it
exits 0, "timed out" when it runs longer than TIMEOUT seconds (its process
group is killed and the copy removed; a suite that hangs does not pass, so
this counts as caught) and "exit N" for any other exit (pytest could not
run).  The exit code is 1 when a mutant is neither caught nor timed out, or
when an edit's old text is not found exactly once, and 0 otherwise.  A
surviving mutant is a gap in the tests to record, not a reason to change
the mutant.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", "_out", "*.egg-info")
# Seconds one pytest run may take, well above a whole-suite run (about 45 s
# on 2 cores): a mutant that deadlocks the suite ends at this, "timed out".
TIMEOUT = 300


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    expected: tuple[str, ...]  # pytest node ids that should fail


MUTANTS = (
    Mutant(
        "field-residual-zero",
        "src/biharwave/spectral.py",
        "    res_field = float(np.max(np.abs(u))) / scale\n",
        "    res_field = 0.0\n",
        ("tests/test_spectral.py::TestVerdict::test_gaussian_radiates",),
    ),
    Mutant(
        "spectral-residual-zero",
        "src/biharwave/spectral.py",
        "    res_spectral = float(np.max(np.abs(fh) + np.abs(fc))) / norm_f\n",
        "    res_spectral = 0.0\n",
        ("tests/test_spectral.py::TestVerdict::test_gaussian_radiates",),
    ),
    Mutant(
        "verdict-modal-only",
        "src/biharwave/spectral.py",
        "    flags = [res_modal <= cfg.tolerance, res_spectral <= cfg.tolerance, res_field <= cfg.tolerance]\n",
        "    flags = [res_modal <= cfg.tolerance] * 3\n",
        ("tests/test_cli.py::test_route_disagreement_exits_2",),
    ),
    Mutant(
        "zero-imaginary-dropped",
        "src/biharwave/sources.py",
        "        rows = self._rows(grid)\n",
        "        rows = self._rows(grid)\n"
        "        if np.iscomplexobj(rows) and not np.any(rows.imag):\n"
        "            rows = rows.real\n",
        ("tests/test_sources.py::TestSampleRead::test_zero_imaginary_part_stays_complex",),
    ),
    Mutant(
        "sum-leaf-added-twice",
        "src/biharwave/sources.py",
        "        return reduce(operator.add, terms)\n",
        "        return reduce(operator.add, terms + terms[1:2])\n",
        (
            "tests/test_table_caches.py::TestLinearSums::test_summed_coefficients_are_the_weighted_leaves",
            "tests/test_table_caches.py::TestLinearSums::test_each_linear_route_adds_its_leaves",
            "tests/test_sources.py::TestCoefficientCache::test_derived_sources_share_their_leaves_projections",
        ),
    ),
    Mutant(
        "scaled-factor-on-first-leaf-only",
        "src/biharwave/sources.py",
        "    parts = tuple((c if factor == 1 else _times(c, factor), leaf)\n"
        "                  for factor, src in terms for c, leaf in src._parts or ((1, src),))\n",
        "    parts = tuple((c if factor == 1 or i else _times(c, factor), leaf)\n"
        "                  for factor, src in terms for i, (c, leaf) in enumerate(src._parts or ((1, src),)))\n",
        ("tests/test_table_caches.py::TestLinearSums::test_nested_sums_and_scalings_flatten",),
    ),
    Mutant(
        "dimension-unchecked",
        "src/biharwave/sources.py",
        "        if grid.angular.dimension != self.ctx.dimension:\n            raise ValueError(",
        "        if False:\n            raise ValueError(",
        (
            "tests/test_sources.py::TestSampleRead::test_grid_of_another_dimension_is_refused",
            "tests/test_sources.py::TestSampleRead::test_3d_source_on_a_2d_grid_is_refused",
        ),
    ),
    Mutant(
        "k0-last-coefficient-dropped",
        "src/biharwave/specfun.py",
        "2.5764203428073633e-17, -7.371317369630266e-18)",
        "2.5764203428073633e-17)",
        ("tests/test_specfun.py::TestOrderZeroBessel::test_k0_coefficients_refit",),
    ),
    Mutant(
        "y0-q-sign-flipped",
        "src/biharwave/specfun.py",
        "        a *= q\n        y += a\n",
        "        a *= q\n        y -= a\n",
        (
            "tests/test_specfun.py::TestOrderZeroBessel::test_j0_y0_match_mpmath",
            "tests/test_kernels.py::TestKernelTables::test_mpmath_oracle",
        ),
    ),
    Mutant(
        "j0-threshold-at-2",
        "src/biharwave/specfun.py",
        "J0_THRESHOLD = 5.0\n",
        "J0_THRESHOLD = 2.0\n",
        ("tests/test_specfun.py::TestOrderZeroBessel::test_j0_y0_on_both_sides_of_the_threshold",),
    ),
    Mutant(
        "two-sided-low-entries-not-overwritten",
        "src/biharwave/specfun.py",
        "                v[low] = w\n",
        "                pass\n",
        (
            "tests/test_specfun.py::TestOrderZeroBessel::test_j0_y0_on_both_sides_of_the_threshold",
            "tests/test_specfun.py::TestInHouseSeries::test_order_zero_and_one_match_mpmath",
        ),
    ),
    Mutant(
        "y1-inverse-t-term-dropped",
        "src/biharwave/specfun.py",
        "            y -= (2.0 / np.pi) / t\n",
        "",
        ("tests/test_specfun.py::TestInHouseSeries::test_order_zero_and_one_match_mpmath",),
    ),
    Mutant(
        "legendre-diagonal-sign-dropped",
        "src/biharwave/specfun.py",
        "np.multiply(-np.sqrt((2.0 * m[1:, None] + 1.0)",
        "np.multiply(np.sqrt((2.0 * m[1:, None] + 1.0)",
        ("tests/test_specfun.py::TestSphericalHarmonics::test_legendre_table_matches_mpmath",),
    ),
    Mutant(
        "i0-miller-sum-factor-dropped",
        "src/biharwave/specfun.py",
        "(half / (1.0 + 2.0 * np.cumsum(",
        "(half / (1.0 + np.cumsum(",
        ("tests/test_specfun.py::TestRegularWaveTables::test_order_zero_anchors_up_to_their_overflow",),
    ),
    Mutant(
        "group-columns-not-mirrored",
        "src/biharwave/fields.py",
        "        out = out + columns(shift + sign * lo, -sign)\n",
        "        out = out.copy()\n",
        (
            "tests/test_fields.py::TestEvalField::test_exterior_pde_residual",
            "tests/test_fields.py::TestSymmetryGroupQuadrature::test_folded_sums_over_layouts",
        ),
    ),
    Mutant(
        "node-images-rings-not-reversed",
        "src/biharwave/fields.py",
        "    v = doubled[:, :, ::-1] if flip else doubled\n",
        "    v = doubled\n",
        (
            "tests/test_fields.py::TestSymmetryGroupQuadrature::test_3d_verdict_probes_match_dense_sum",
            "tests/test_fields.py::TestSymmetryGroupQuadrature::test_folded_sums_over_layouts",
        ),
    ),
    Mutant(
        "fold-fixed-column-not-halved",
        "src/biharwave/fields.py",
        "        out[..., [l - lo for l in (lo, hi - 1) if (2 * l - lo) % n == 0]] *= 0.5",
        "        out[..., []] *= 0.5",
        (
            "tests/test_fields.py::TestEvalField::test_exterior_pde_residual",
            "tests/test_fields.py::TestSymmetryGroupQuadrature::test_verdict_probes_match_dense_sum",
            "tests/test_fields.py::TestSymmetryGroupQuadrature::test_folded_sums_over_layouts",
        ),
    ),
    Mutant(
        "phase-sums-last-block-dropped",
        "src/biharwave/fields.py",
        "    for a in range(0, len(weights), nodes):\n",
        "    for a in range(0, len(weights) - nodes, nodes):\n",
        (
            "tests/test_fields.py::TestFarField::test_phase_sums_over_node_blocks",
            "tests/test_fields.py::TestFarField::test_phase_sums_past_the_table_budget",
            "tests/test_spectral.py::TestTraceFunctionals::test_matches_dense_integrand_on_arbitrary_channels",
        ),
    ),
    Mutant(
        "decaying-factor-undamped",
        "src/biharwave/fields.py",
        "    damp = np.exp(-t)\n",
        "    damp = 1.0\n",
        (
            "tests/test_fields.py::TestEvalField::test_quadrature_and_modal_routes_agree",
            "tests/test_fields.py::TestBoundaryTrace::test_normal_derivative_matches_fd",
            "tests/test_spectral.py::TestTraceFunctionals::test_exponential_identity",
            "tests/test_spectral.py::TestNullspaceResidual::test_matches_field_quadrature",
        ),
    ),
    Mutant(
        "exterior-values-one-order-up",
        "src/biharwave/specfun.py",
        "    return (outgoing[:-1], decaying[:-1],\n",
        "    return (outgoing[1:], decaying[1:],\n",
        (
            "tests/test_specfun.py::TestExteriorWaveTables::test_matches_mpmath",
            "tests/test_specfun.py::TestExteriorWaveTables::test_far_arguments_match_mpmath",
        ),
    ),
    Mutant(
        "derivative-prefactor-unscaled",
        "src/biharwave/fields.py",
        "c_h * k, c_m * k * damp)",
        "c_h, c_m * damp)",
        ("tests/test_fields.py::TestBoundaryTrace::test_normal_derivative_matches_fd",),
    ),
    Mutant(
        "norm-overflow-certified",
        "src/biharwave/sources.py",
        "        if not np.isfinite(norm_f):\n            raise",
        "        if False:\n            raise",
        (
            "tests/test_sources.py::TestModalCoefficients::test_norm_overflow_is_refused_by_the_residual",
            "tests/test_cli.py::test_infinite_norm_is_one_config_error_line",
        ),
    ),
    Mutant(
        "squared-distance-one-coordinate",
        "src/biharwave/sources.py",
        "    for k in range(1, len(center)):\n        diff",
        "    for k in range(1, 1):\n        diff",
        (
            "tests/test_fields.py::TestSymmetryGroupQuadrature::test_verdict_probes_match_dense_sum",
            "tests/test_fields.py::TestSymmetryGroupQuadrature::test_3d_verdict_probes_match_dense_sum",
            "tests/test_sources.py::TestRadialPath::test_gaussian_read_is_bitwise_pointwise",
            "tests/test_sources.py::TestBumpConstruction::test_helmholtz_moment_vanishes_outside",
        ),
    ),
    Mutant(
        "support-inside-first-node-accepted",
        "src/biharwave/sources.py",
        "        if support_radius <= first:",
        "        if False:",
        ("tests/test_sources.py::TestSupportGrid::test_support_inside_the_first_node_is_refused",),
    ),
    Mutant(
        "bump-image-d-term",
        "src/biharwave/sources.py",
        "(d + 2) * g3",
        "d * g3",
        ("tests/test_sources.py::TestBumpConstruction::test_image_matches_mpmath_oracle",),
    ),
    Mutant(
        "zero-samples-certified",
        "src/biharwave/spectral.py",
        "    if norm_f == 0.0:  # every residual",
        "    if False:  # every residual",
        ("tests/test_cli.py::test_source_no_node_sees_is_refused",),
    ),
    Mutant(
        "boundary-weights-unscaled",
        "src/biharwave/spectral.py",
        "    weights = ctx.radius ** (ctx.dimension - 1) * rule.weights\n",
        "    weights = rule.weights\n",
        ("tests/test_spectral.py::TestConsistencyTriangle::test_all_routes_agree",),
    ),
    Mutant(
        "boundary-points-unscaled",
        "src/biharwave/spectral.py",
        "    nodes = ctx.radius * rule.directions\n",
        "    nodes = rule.directions\n",
        ("tests/test_spectral.py::TestConsistencyTriangle::test_all_routes_agree",),
    ),
    Mutant(
        "lattice-tolerance-loose",
        "src/biharwave/fields.py",
        "_LATTICE_TOL = 1e-12\n",
        "_LATTICE_TOL = 1e-3\n",
        ("tests/test_fields.py::TestSymmetryGroupQuadrature::test_near_image_forms_its_own_group",),
    ),
    Mutant(
        "row-mask-dropped",
        "src/biharwave/sources.py",
        "        if outside.any():\n",
        "        if False:\n",
        (
            "tests/test_sources.py::TestRadialPath::test_support_masks_nodes_at_or_beyond_it",
            "tests/test_sources.py::TestRadialPath::test_pointwise_support_masks_nodes_at_or_beyond_it",
        ),
    ),
    Mutant(
        "ratio-signs-flipped",
        "src/biharwave/specfun.py",
        "_RATIO_SIGNS = np.array([[-1.0], [1.0]])\n",
        "_RATIO_SIGNS = np.array([[1.0], [-1.0]])\n",
        ("tests/test_specfun.py::TestRegularWaveTables::test_matches_mpmath_on_modal_nodes",),
    ),
    Mutant(
        "forward-signs-flipped",
        "src/biharwave/specfun.py",
        "_FORWARD_SIGNS = np.array([[-1.0], [-1.0], [1.0]])\n",
        "_FORWARD_SIGNS = np.array([[1.0], [1.0], [-1.0]])\n",
        ("tests/test_specfun.py::TestExteriorWaveTables::test_far_arguments_match_mpmath",),
    ),
    Mutant(
        "radial-leaf-unnormalized",
        "src/biharwave/sources.py",
        "            zero_mode = zero_mode * np.sqrt(4.0 * np.pi)\n",
        "            pass\n",
        (
            "tests/test_sources.py::TestRadialLeafCoefficients::test_complex_profile_and_scaling_are_linear",
            "tests/test_sources.py::TestRadialLeafCoefficients::test_projection_is_the_profile_on_the_leafs_rule",
            "tests/test_sources.py::TestClosedFormRadialControls::test_alpha0_and_beta0_match_closed_forms",
        ),
    ),
    Mutant(
        "radial-leaf-route-radius",
        "src/biharwave/sources.py",
        "        modal = project_modes(src, truncation)\n",
        "        modal = project_modes(src, truncation)\n"
        "        if src._profile is not None:  # the rule from the route's context\n"
        "            rule = radial_rule(ctx, src.radial_order, extent=src.support_radius)\n"
        "            modal = ModalProfiles(modal.dimension, modal.truncation, rule, modal.values)\n",
        ("tests/test_sources.py::TestRadialLeafCoefficients::test_route_context_of_another_kappa_and_radius",),
    ),
    Mutant(
        "trace-context-unchecked",
        "src/biharwave/spectral.py",
        "    if trace.ctx != ctx:\n",
        "    if False:\n",
        ("tests/test_spectral.py::TestTraceFunctionals::test_trace_of_another_context_is_refused",),
    ),
    Mutant(
        "table-writer-rounds",
        "src/biharwave/fields.py",
        '    fh.writelines(",".join(map(repr, row)) + "\\n" for row in rows)\n',
        '    fh.writelines(",".join(format(v, ".15g") for v in row) + "\\n" for row in rows)\n',
        (
            "tests/test_cli.py::TestTablesRoundTrip::test_trace",
            "tests/test_cli.py::TestTablesRoundTrip::test_spectral_3d",
            "tests/test_cli.py::TestTablesRoundTrip::test_field_over_two_radii",
        ),
    ),
    Mutant(
        "legendre-kept-writable",
        "src/biharwave/context.py",
        "    kept.flags.writeable = False\n    return kept\n",
        "    return kept\n",
        (
            "tests/test_table_caches.py::TestKeptLegendreTables::test_kept_table_is_read_only_and_fresh",
            "tests/test_quadrature.py::TestRuleCache::test_kept_rule_arrays_equal_fresh_ones",
        ),
    ),
    Mutant(
        # a cold 3D rule then waits on the keeper's lock in its own build:
        # its expected test runs it in a daemon thread, but under --all a
        # test that builds one in the main thread holds the run up for good
        "keeper-builds-under-lock",
        "src/biharwave/context.py",
        "    with _kept_lock:\n"
        "        arrays = _kept.pop(key, None)\n"
        "        if arrays is not None:\n"
        "            _kept[key] = arrays  # reinserted last: the most recently used\n"
        "            return arrays\n"
        "    arrays = build()\n"
        "    size = _mapped_bytes(arrays)\n"
        "    if size > _KEPT_BUDGET:\n"
        "        return arrays\n"
        "    arrays = tuple(_kept_copy(array) for array in arrays)\n"
        "    with _kept_lock:\n"
        "        _kept.pop(key, None)\n"
        "        while sum(_mapped_bytes(entry) for entry in _kept.values()) + size > _KEPT_BUDGET:\n"
        "            del _kept[next(iter(_kept))]\n"
        "        _kept[key] = arrays\n"
        "    return arrays\n",
        "    with _kept_lock:\n"
        "        arrays = _kept.pop(key, None)\n"
        "        if arrays is None:\n"
        "            arrays = build()\n"
        "            size = _mapped_bytes(arrays)\n"
        "            if size > _KEPT_BUDGET:\n"
        "                return arrays\n"
        "            arrays = tuple(_kept_copy(array) for array in arrays)\n"
        "            while sum(_mapped_bytes(entry) for entry in _kept.values()) + size > _KEPT_BUDGET:\n"
        "                del _kept[next(iter(_kept))]\n"
        "        _kept[key] = arrays\n"
        "        return arrays\n",
        ("tests/test_table_caches.py::TestKeeper::test_cold_3d_rule_builds_outside_the_lock",),
    ),
    Mutant(
        "sphere-factors-not-kept",
        "src/biharwave/fields.py",
        "    h, s, dh, ds = _sphere_factors(ctx, coeffs.truncation)\n",
        "    h, s, dh, ds = (table[0] for table in\n"
        "                    _radial_tables(ctx, coeffs.truncation, np.array([[ctx.kappa * ctx.radius]])))\n",
        (
            "tests/test_table_caches.py::TestSphereFactors::test_traces_of_f_and_f_plus_g_tabulate_once",
            "tests/test_table_caches.py::TestSphereFactors"
            "::test_factors_are_kept_entries_evicted_least_recently_used_first",
        ),
    ),
    Mutant(
        "angular-rule-arrays-shared",
        "src/biharwave/quadrature.py",
        "    dirs, weights, params = (array.copy() for array in kept)\n",
        "    dirs, weights, params = kept\n",
        (
            "tests/test_quadrature.py::TestRuleCache::test_rules_own_their_arrays",
            "tests/test_quadrature.py::TestRuleCache::test_rules_of_one_count_share_no_memory",
        ),
    ),
    Mutant(
        "direction-check-relative",
        "src/biharwave/fields.py",
        "    if not np.all(np.abs(np.linalg.norm(dirs, axis=-1) - 1.0) <= 1e-12):\n",
        "    if not np.allclose(np.linalg.norm(dirs, axis=-1), 1.0, atol=1e-12):\n",
        ("tests/test_spectral.py::TestDirectionCheck::test_scaled_directions_are_refused",),
    ),
    Mutant(
        "positive-check-admits-zero",
        "src/biharwave/context.py",
        "    if not (_is_real(value) and np.isfinite(value) and value > 0):\n",
        "    if not (_is_real(value) and np.isfinite(value) and value >= 0):\n",
        ("tests/test_context.py::test_positive_input_refused_by_name",),
    ),
    Mutant(
        "extent-unchecked",
        "src/biharwave/quadrature.py",
        "        _check_positive(\"extent\", extent)\n",
        "",
        (
            "tests/test_quadrature.py::TestExtent::test_extent_not_positive_and_finite_is_refused",
            "tests/test_context.py::test_positive_input_refused_by_name",
        ),
    ),
    Mutant(
        "field-radius-tiled",
        "src/biharwave/cli.py",
        "    columns = [np.repeat(np.array(factors) * ctx.radius, len(dirs))]\n",
        "    columns = [np.tile(np.array(factors) * ctx.radius, len(dirs))]\n",
        ("tests/test_cli.py::TestTablesRoundTrip::test_field_over_two_radii",),
    ),
    Mutant(
        "array-check-admits-bools",
        "src/biharwave/context.py",
        '    if (array.dtype.kind not in "iuf" or',
        '    if (array.dtype.kind not in "biuf" or',
        (
            "tests/test_context.py::test_array_input_refused_by_name",
            "tests/test_cli.py::test_non_finite_parameter_is_named",
        ),
    ),
    Mutant(
        "array-check-skips-shape",
        "src/biharwave/context.py",
        '    if (array.dtype.kind not in "iuf" or (full.ndim > len(dims) and len(dims) == len(shape))\n'
        "            or any(n not in (None, m) for n, m in zip(dims[::-1], full.shape[::-1]))):\n",
        '    if array.dtype.kind not in "iuf":\n',
        (
            "tests/test_context.py::test_array_input_refused_by_name",
            "tests/test_cli.py::test_non_finite_parameter_is_named",
            "tests/test_spectral.py::TestNullspaceResidual::test_meaningless_probe_radii_refused",
        ),
    ),
)


def occurrences(mutant: Mutant, root: Path = ROOT) -> int:
    """How often the mutant's old text occurs in its file under root."""
    return (root / mutant.path).read_text(encoding="utf-8").count(mutant.old)


def run(mutant: Mutant, whole_suite: bool) -> tuple[str, int, str]:
    """The result of pytest on a mutated copy of the tree (caught: some test
    failed; timed out: the run outlived TIMEOUT and its process group was
    killed), how many expected tests failed, and pytest's summary line."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp) / "tree"
        shutil.copytree(ROOT, copy, ignore=IGNORED)
        target = copy / mutant.path
        target.write_text(target.read_text(encoding="utf-8").replace(mutant.old, mutant.new), encoding="utf-8")
        # tests/test_mutants.py checks that each edit applies to the tree, so it
        # fails on every mutated copy: it would report every mutant as caught
        tests = ["tests", "--ignore", "tests/test_mutants.py"] if whole_suite else list(mutant.expected)
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.Popen(
            [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", "--continue-on-collection-errors",
             *tests],
            cwd=copy, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True,
        )
        try:
            stdout, _ = proc.communicate(timeout=TIMEOUT)
            result = {0: "survived", 1: "caught"}.get(proc.returncode, f"exit {proc.returncode}")
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)  # pytest and any child it started
            stdout, _ = proc.communicate()
            result = "timed out"
    failed_ids = re.findall(r"^(?:FAILED|ERROR) (\S+)", stdout, flags=re.M)
    # an expected id names a test or, parametrized, all of its cases
    hit = sum(any(i == e or i.startswith(e + "[") for i in failed_ids) for e in mutant.expected)
    lines = stdout.strip().splitlines() or ["no output"]
    return result, hit, lines[-1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--all", action="store_true", help="run the whole suite on each mutant")
    parser.add_argument("--only", metavar="NAME[,NAME]", help="run only the named mutants")
    args = parser.parse_args(argv)
    chosen = MUTANTS
    if args.only is not None:
        names = args.only.split(",")
        unknown = sorted(set(names) - {m.name for m in MUTANTS})
        if unknown:
            parser.error(f"unknown mutant {unknown[0]!r}")
        chosen = tuple(m for m in MUTANTS if m.name in names)
    missing = [f"{m.name}: old text found {occurrences(m)} times in {m.path}" for m in chosen if occurrences(m) != 1]
    if missing:
        print("\n".join(missing), file=sys.stderr)
        return 1
    uncaught = 0
    width = max(len(m.name) for m in chosen)
    print(f"{'mutant':<{width}}  expected  result     pytest")
    for mutant in chosen:
        result, hit, summary = run(mutant, args.all)
        uncaught += result not in ("caught", "timed out")  # a suite that hangs does not pass
        print(f"{mutant.name:<{width}}  {f'{hit}/{len(mutant.expected)}':>8}  {result:<9}  {summary}", flush=True)
    return 1 if uncaught else 0


if __name__ == "__main__":
    sys.exit(main())
