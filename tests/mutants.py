"""Mutants of checks the library must keep, and a runner that checks the tests still kill them.

Each row names a module of src/schurtrails, a source text that occurs
there exactly once, its replacement, and the tests that must fail once
the text is replaced.  For each mutant the runner copies src/, tests/,
bench/ and pyproject.toml to a temporary directory, applies the mutant
to the copy of src/ and runs its tests in the copy, in a subprocess with
a timeout; so a test that starts bench/cli_entry.py, which imports the
src/ beside it, runs the mutant too.  A mutant is killed
only when pytest exits 1 and reports each of its tests as failed; a
collection error, any other exit code or a timeout counts as survived.

    python tests/mutants.py

It prints one line per mutant and exits 1 if any survives.  A refactor
that moves a mutant's text restates its row; tests/test_mutants.py
checks that every text still occurs exactly once.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import namedtuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIMEOUT_S = 120

Mutant = namedtuple("Mutant", "id module text replacement tests")

MUTANTS = [
    Mutant(
        "polynomial_keeps_zeros",
        "polyring.py",
        """            if c:
                acc[m] = acc.get(m, 0) + c
                if not acc[m]:
                    del acc[m]
""",
        """            acc[m] = acc.get(m, 0) + c
""",
        (
            "tests/test_polyring.py::test_polynomial_arithmetic_and_zero_pruning",
            "tests/test_polyring.py::test_int_scaling[0]",
        ),
    ),
    Mutant(
        "constant_key_is_a_frozenset",
        "polyring.py",
        """        if c.keys() <= {ONE}:
            return c.get(ONE, 0)
""",
        "",
        ("tests/test_polyring.py::test_int_scaling[5]",),
    ),
    Mutant(
        "packed_base_is_top_exponent_plus_one",
        "polyring.py",
        "        base += top\n",
        "        base = max(base, top + 1)\n",
        ("tests/test_polyring.py::test_determinant_reaches_the_packing_bound[0]",),
    ),
    Mutant(
        "packed_sums_drops_the_coefficient",
        "polyring.py",
        "[(p, c * v) for p, v in a.items()]",
        "[(p, v) for p, v in a.items()]",
        (
            "tests/test_identities.py::test_dodgson_two_by_two",
            "tests/test_identities.py::test_ciucu_pairs",
        ),
    ),
    Mutant(
        "sides_share_a_decode_unequal",
        "polyring.py",
        "[poly for seen, poly in done if seen == acc]",
        "[poly for seen, poly in done]",
        (
            "tests/test_identities.py::test_each_side_of_a_schur_identity_is_decoded_once",
            "tests/test_identities.py::test_a_false_window_exchange_names_its_first_differing_monomial[last-term-dropped]",
            "tests/test_identities.py::test_a_false_window_exchange_names_its_first_differing_monomial[sign-flipped]",
            "tests/test_polyring.py::test_sum_of_products_matches_the_merged_sum",
        ),
    ),
    Mutant(
        "identity_width_from_the_larger_factor",
        "identities.py",
        "sum(alpha[:1] + beta[:1])",
        "max(alpha[:1] + beta[:1])",
        (
            "tests/test_identities.py::test_product_digits_at_a_power_of_two_do_not_carry[4-4-N2]",
            "tests/test_identities.py::test_product_digits_at_a_power_of_two_do_not_carry[2-2-N3]",
            "tests/test_identities.py::test_product_digits_at_a_power_of_two_do_not_carry[52-33-N3]",
        ),
    ),
    Mutant(
        "matrix_takes_ragged_rows",
        "polyring.py",
        """        if len({len(row) for row in entries}) > 1:
            raise ValueError("ragged matrix")
""",
        "",
        ("tests/test_polyring.py::test_determinant_basics",),
    ),
    Mutant(
        "jacobi_trudi_drops_inner_parts_past_outer",
        "schur.py",
        """    if any(inner[d:]):
        raise ValueError(""",
        """    if False:
        raise ValueError(""",
        (
            "tests/test_schur.py::test_jacobi_trudi_matrix_refuses_an_inner_part_past_the_outer_rows[None]",
            "tests/test_schur.py::test_jacobi_trudi_matrix_refuses_an_inner_part_past_the_outer_rows[2]",
        ),
    ),
    Mutant(
        "family_paths_share_a_vertex",
        "schur.py",
        """                if v in seen:
                    raise ValueError(
                        "paths %d and %d share""",
        """                if False:
                    raise ValueError(
                        "paths %d and %d share""",
        ("tests/test_schur.py::test_family_rejects_shared_vertex",),
    ),
    Mutant(
        "terminal_starts_weakly_decrease",
        "schur.py",
        """            if a <= b:
                raise ValueError("start x-coordinates must strictly decrease")""",
        """            if a < b:
                raise ValueError("start x-coordinates must strictly decrease")""",
        ("tests/test_schur.py::test_terminal_spec_validation",),
    ),
    Mutant(
        "terminal_spec_key_without_alphabet",
        "partitions.py",
        "        return tuple(getattr(self, name) for name in self.__slots__)\n",
        "        return tuple(getattr(self, name) for name in self.__slots__[:-1])\n",
        (
            "tests/test_schur.py::test_terminal_spec_equality",
            "tests/test_partitions.py::test_value_types_compare_by_value_and_are_immutable[BorderStripSpec]",
        ),
    ),
    Mutant(
        "value_takes_any_field_count",
        "partitions.py",
        """        if len(fields) != len(self.__slots__):
            raise TypeError(""",
        """        if False:
            raise TypeError(""",
        ("tests/test_identities.py::test_reports_are_immutable_values",),
    ),
    Mutant(
        "terminal_matching_takes_one_parity",
        "trails.py",
        """        if qa.parity == qb.parity:
            raise ValueError(""",
        """        if False:
            raise ValueError(""",
        ("tests/test_trails.py::test_terminal_matching_refuses_a_graph_outside_the_hypotheses[parity]",),
    ),
    Mutant(
        "graph_frame_from_blue_alone",
        "trails.py",
        "frame = _Frame.of((path.start, path.end) for family in families for path in family)",
        "frame = _Frame.of((path.start, path.end) for family in families[:1] for path in family)",
        ("tests/test_trails.py::test_trace_fig3_case_a",),
    ),
    Mutant(
        "pattern_frame_from_blue_alone",
        "trails.py",
        "for spec in (blue_spec, green_spec) for pair",
        "for spec in (blue_spec,) for pair",
        ("tests/test_identities.py::test_audit_is_the_orbits_first_step",),
    ),
    Mutant(
        "pattern_weight_from_blue_alone",
        "trails.py",
        "blue_weight + green_weight",
        "blue_weight",
        ("tests/test_identities.py::test_audit_splits_objects",),
    ),
    Mutant(
        "kleber_lists_u_before_v",
        "identities.py",
        """        for V in itertools.combinations(v, m):
            for U in itertools.combinations(u[k:], m):
""",
        """        for U in itertools.combinations(u[k:], m):
            for V in itertools.combinations(v, m):
""",
        (
            "tests/test_identities.py::test_kleber_lists_a_term_for_every_nested_family",
            "tests/test_cli.py::test_bead_identities_keep_their_cli_bytes",
        ),
    ),
    Mutant(
        "kleber_shrinks_without_moving_up",
        "identities.py",
        "parts(beta - {b + 1 for b in V} | {b + 1 for b in U})",
        "parts(beta - set(V) | set(U))",
        (
            "tests/test_identities.py::test_kleber_lists_a_term_for_every_nested_family",
            "tests/test_cli.py::test_bead_identities_keep_their_cli_bytes",
        ),
    ),
    Mutant(
        "beads_count_from_zero",
        "partitions.py",
        "    return tuple(p - i + shift for i, p in enumerate(parts, start=1))\n",
        "    return tuple(p - i + shift for i, p in enumerate(parts))\n",
        (
            "tests/test_partitions.py::test_beads_examples",
            "tests/test_partitions.py::test_from_beads_inverts_beads_and_reads_index_sets",
            "tests/test_schur.py::test_fig_paths_straight_shape",
        ),
    ),
    Mutant(
        "cli_leaves_polyring_unregistered",
        "cli.py",
        """identities, partitions, polyring, replay, schur, svg, trails = map(
    _lazy, ("identities", "partitions", "polyring", "replay", "schur", "svg", "trails")""",
        """identities, partitions, replay, schur, svg, trails = map(
    _lazy, ("identities", "partitions", "replay", "schur", "svg", "trails")""",
        ("tests/test_bench_bindings.py::test_traced_cli_call_runs[verify]",),
    ),
    Mutant(
        "orbit_lists_every_green_family",
        "replay.py",
        "pattern_objects(*pattern, MAX_AUDIT_OBJECTS - moved, refusal)",
        "pattern_objects(*pattern)",
        ("tests/test_identities.py::test_orbit_refuses_a_pattern_before_listing_its_green_side",),
    ),
    Mutant(
        "orbit_keys_its_input_by_raw_terminals",
        "replay.py",
        "queued = {tuple(map(spec_pattern, initial))}",
        "queued = {tuple((spec.starts, spec.ends) for spec in initial)}",
        (
            "tests/test_identities.py::test_orbit_keys_its_input_without_zero_length_paths",
            "tests/test_identities.py::test_seeded_orbit_and_audit_sweep_keeps_its_outcomes",
        ),
    ),
    Mutant(
        "spec_pattern_keeps_zero_length_paths",
        "trails.py",
        "enumerate(zip(spec.starts, spec.ends)) if start != end]",
        "enumerate(zip(spec.starts, spec.ends))]",
        (
            "tests/test_cli.py::test_audit_all_zero_window_at_one_variable[0,0]",
            "tests/test_identities.py::test_audit_single_variable_is_forced",
            "tests/test_trails.py::test_every_object_reads_as_the_spec_pattern_of_its_specs",
        ),
    ),
    Mutant(
        "recolour_in_degree",
        "trails.py",
        """for twice, degree in ((east & north, "out"), (east << n & north << 1, "in")):""",
        """for twice, degree in ((east & north, "out"),):""",
        ("tests/test_trails.py::test_recolour_refuses_a_colour_entering_a_point_twice",),
    ),
    Mutant(
        "recolour_half_flip",
        "trails.py",
        "    if stray[0] or stray[1] or half[0] or half[1]:\n",
        "    if stray[0] or stray[1]:\n",
        ("tests/test_trails.py::test_recolour_rejects_half_of_a_doubly_coloured_edge",),
    ),
    Mutant(
        "recolour_keeps_reached_marks",
        "trails.py",
        "        if marked & touched:\n",
        "        if False:\n",
        ("tests/test_trails.py::test_recolour_keeps_a_point_only_a_zero_length_path_marks",),
    ),
    Mutant(
        "walk_keeps_colour_at_doubly_coloured_points",
        "trails.py",
        "        v, colour, backward = u, colour ^ 1, backward ^ 1\n",
        "        v = u\n",
        (
            "tests/test_trails.py::test_trace_fig3_case_a",
            "tests/test_trails.py::test_doubly_coloured_edge_is_a_two_cycle",
        ),
    ),
    Mutant(
        "run_runs_past_the_first_two_colour_point",
        "trails.py",
        """                    north |= 1 << u
                    u += 1
                else:
                    break
                if both >> u & 1:
                    break
""",
        """                    north |= 1 << u
                    u += 1
                else:
                    break
""",
        (
            "tests/test_trails.py::test_trace_fig3_case_a",
            "tests/test_trails.py::test_seeded_graphs_trace_as_the_frozenset_oracle[0]",
        ),
    ),
    Mutant(
        "main_fails_a_value_error",
        "cli.py",
        "    except RuntimeError as exc:\n",
        "    except (RuntimeError, ValueError) as exc:\n",
        ("tests/test_cli.py::test_validation_error_bubbles_as_usage",),
    ),
    Mutant(
        "reader_takes_a_dash_value_as_an_option",
        "cli.py",
        "            if value is None:\n",
        "            if value is None or value.startswith(\"-\"):\n",
        (
            "tests/test_cli.py::test_each_token_is_read_as_an_option_a_value_or_an_argument[help-as-value]",
            "tests/test_cli.py::test_orbit_json",
        ),
    ),
    Mutant(
        "argument_refuses_a_negative_number",
        "cli.py",
        r""" and not re.fullmatch(r"-\d+|-\d*\.\d+", token)""",
        "",
        (
            "tests/test_cli.py::test_each_token_is_read_as_an_option_a_value_or_an_argument[negative-argument]",
            "tests/test_cli.py::test_each_token_is_read_as_an_option_a_value_or_an_argument[negative-extra-argument]",
            "tests/test_cli.py::test_each_token_is_read_as_an_option_a_value_or_an_argument[negative-command-root]",
            "tests/test_cli.py::test_each_token_is_read_as_an_option_a_value_or_an_argument[negative-command-group]",
        ),
    ),
    Mutant(
        "option_may_hold_a_space",
        "cli.py",
        """ and " " not in token""",
        "",
        ("tests/test_cli.py::test_each_token_is_read_as_an_option_a_value_or_an_argument[spaced-extra-argument]",),
    ),
    Mutant(
        "unknown_option_wins_over_help",
        "cli.py",
        "    if \"--help\" in rest:\n",
        "    if \"--help\" in rest and not unknown:\n",
        ("tests/test_cli.py::test_each_token_is_read_as_an_option_a_value_or_an_argument[help-after-unknown]",),
    ),
]


def source(mutant):
    with open(os.path.join(ROOT, "src", "schurtrails", mutant.module)) as f:
        return f.read()


def run(mutant):
    """'killed', or why the mutant survived."""
    text = source(mutant)
    if text.count(mutant.text) != 1:
        return "survived: its text occurs %d times" % text.count(mutant.text)
    with tempfile.TemporaryDirectory() as tmp:
        skip = shutil.ignore_patterns("__pycache__")
        for tree in ("src", "tests", "bench"):
            shutil.copytree(os.path.join(ROOT, tree), os.path.join(tmp, tree), ignore=skip)
        shutil.copy(os.path.join(ROOT, "pyproject.toml"), tmp)
        src = os.path.join(tmp, "src")
        with open(os.path.join(src, "schurtrails", mutant.module), "w") as f:
            f.write(text.replace(mutant.text, mutant.replacement))
        env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
        command = [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", *mutant.tests]
        try:
            done = subprocess.run(command, cwd=tmp, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "survived: timed out after %d s" % TIMEOUT_S
    if done.returncode != 1:
        return "survived: pytest exited %d" % done.returncode
    failed = {line.split()[1] for line in done.stdout.splitlines() if line.startswith("FAILED ")}
    passed = [test for test in mutant.tests if test not in failed]
    return "survived: %s passed" % ", ".join(passed) if passed else "killed"


def main():
    survived = 0
    for mutant in MUTANTS:
        start = time.perf_counter()
        outcome = run(mutant)
        survived += outcome != "killed"
        print("%s: %s (%.1f s)" % (mutant.id, outcome, time.perf_counter() - start), flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
