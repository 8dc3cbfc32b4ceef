import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
import time

import pytest
from jsonschema import validate

import schurtrails
from schurtrails import identities, replay
from schurtrails.cli import REPORT_SCHEMA, main
from schurtrails.identities import IdentityReport
from schurtrails.partitions import Partition, SkewShape
from schurtrails.polyring import Polynomial, x_var
from schurtrails.schur import TerminalSpec, enumerate_families
from schurtrails.trails import build_graph


class Result:
    """One finished call: its exit code, what it wrote to stdout and stderr, and the two together."""

    def __init__(self, exit_code, stdout, stderr):
        self.exit_code, self.stdout, self.stderr = exit_code, stdout, stderr
        self.output = stdout + stderr


class Runner:
    """Calls a command line's main(argv) with stdin, stdout and stderr captured and SystemExit caught."""

    @staticmethod
    def invoke(cli, argv, input=None):
        saved = sys.stdin, sys.stdout, sys.stderr
        sys.stdin, sys.stdout, sys.stderr = io.StringIO(input or ""), io.StringIO(), io.StringIO()
        try:
            try:
                cli(argv)
                exit_code = 0
            except SystemExit as exc:
                exit_code = exc.code or 0
            return Result(exit_code, sys.stdout.getvalue(), sys.stderr.getvalue())
        finally:
            sys.stdin, sys.stdout, sys.stderr = saved


@pytest.fixture
def runner():
    return Runner()


def graph_json():
    greens = list(enumerate_families(TerminalSpec.from_shape(SkewShape(Partition((2, 1))), 2, 0)))
    blues = list(enumerate_families(TerminalSpec.from_shape(SkewShape(Partition((1,))), 2, -1)))
    return json.dumps(build_graph(blues[0], greens[0]).to_json())


# ---------------------------------------------------------------- exit codes

def test_no_command_is_usage_error(runner):
    result = runner.invoke(main, [])
    assert result.exit_code == 2
    assert "Error: Missing command.\n" in result.stderr


def test_unknown_flag_is_usage_error(runner):
    result = runner.invoke(main, ["catalan", "--points", "4", "--frobnicate"])
    assert result.exit_code == 2


@pytest.mark.parametrize(
    "argv, error",
    [
        (["catalan", "--points", "8", "--format", "xml"], "Invalid value for '--format': 'xml' is not one of 'json', 'text'."),
        (["verify", "dodgson", "--k", "x"], "Invalid value for '--k': 'x' is not a valid integer."),
        (["render", "/no/such/file"], "Invalid value for '[CONFIG]': File '/no/such/file' does not exist."),
        (["render", "DIRECTORY"], "Invalid value for '[CONFIG]': File 'DIRECTORY' is a directory."),
    ],
    ids=["format", "k", "render-missing", "render-directory"],
)
def test_usage_error_names_its_cause(runner, tmp_path, argv, error):
    argv = [str(tmp_path) if bit == "DIRECTORY" else bit for bit in argv]
    result = runner.invoke(main, argv)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert "Error: %s\n" % error.replace("DIRECTORY", str(tmp_path)) in result.stderr


FORMAT_HELP = ("--format", "Report format.")
OUT_HELP = ("--out", "Write output to PATH instead of stdout.")
VARS_HELP = ("--vars", "Number of variables N.")


@pytest.mark.parametrize(
    "argv, entries",
    [
        ([], ["audit", "catalan", "orbit", "render", "verify"]),
        (["verify"], ["ciucu", "dodgson", "general", "kirillov", "kleber", "pluecker"]),
        (["verify", "general"], [("--lambda", "Comma-separated weakly decreasing parts."), VARS_HELP,
                                 ("--sweep", "Semicolon-separated part lists; one JSON report per entry, in order."),
                                 FORMAT_HELP, OUT_HELP]),
        (["verify", "kirillov"], [("--lambda", "The constant window, e.g. 2,2,2."), VARS_HELP, FORMAT_HELP, OUT_HELP]),
        (["verify", "dodgson"], [("--k", "Window length; matrices are (k+1) x (k+1)."), FORMAT_HELP, OUT_HELP]),
        (["verify", "pluecker"], [("--k", "Minor size; the generic matrix is 2k x k."),
                                  ("--rlist", "Comma-separated row indices to exchange."), "--mode",
                                  ("--lambda", "First shape (schur mode)."), ("--sigma", "Second shape (schur mode)."),
                                  VARS_HELP, FORMAT_HELP, OUT_HELP]),
        (["verify", "ciucu"], [("--set", "Comma-separated index set T."), ("--k", "Subset size; T needs 2k elements."),
                               VARS_HELP, FORMAT_HELP, OUT_HELP]),
        (["verify", "kleber"], [("--lambda", "Comma-separated parts."), ("--k", "Corner index, counted from the top."),
                                VARS_HELP, FORMAT_HELP, OUT_HELP]),
        (["audit"], [("--lambda", "Comma-separated parts (r+1 of them)."), VARS_HELP, FORMAT_HELP, OUT_HELP]),
        (["orbit"], [("--lambda", "Blue outer parts (offset 0)."), ("--inner", "Blue inner parts, for a skew layout."),
                     ("--sigma", "Green outer parts."), ("--tau", "Green inner parts, for a skew layout."),
                     ("--offset", "Green layout offset."), ("--rlist", "Selected Q-sequence indices, comma-separated."),
                     VARS_HELP, FORMAT_HELP, OUT_HELP]),
        (["render"], ["CONFIG", ("--trail", "x,y of a terminal whose changing trail is overlaid; repeatable."),
                      VARS_HELP, OUT_HELP]),
        (["catalan"], [("--points", "Number of matched points (even)."), FORMAT_HELP, OUT_HELP]),
    ],
    ids=["root", "verify", "general", "kirillov", "dodgson", "pluecker", "ciucu", "kleber", "audit", "orbit", "render",
         "catalan"],
)
def test_help_lists_every_option_with_its_help_text(runner, monkeypatch, argv, entries):
    # one width for every terminal; a help text may still wrap, so whitespace runs count as one space
    monkeypatch.setenv("COLUMNS", "80")
    result = runner.invoke(main, argv + ["--help"])
    assert result.exit_code == 0
    text = " ".join(result.stdout.split())
    for entry in entries + [("--help", "Show this message and exit.")]:
        for word in (entry,) if isinstance(entry, str) else entry:
            assert word in text, (argv, word)


@pytest.mark.parametrize(
    "argv, exit_code, expected",
    [
        (["catalan", "--points", "8", "--points", "10"], 0, "42"),
        (["catalan", "--points=8"], 0, "14"),
        (["catalan", "--points"], 2, "Error: Option '--points' requires an argument."),
        (["catalan", "--poi", "8"], 2, "Error: No such option '--poi'. (Did you mean one of: '--out', '--points'?)"),
        (["catalan", "-x", "8"], 2, "Error: No such option '-x'."),
        (["catalan", "--points", "8", "a", "b"], 2, "Error: Got unexpected extra arguments (a b)"),
        (["render", "-5"], 2, "Error: Invalid value for '[CONFIG]': File '-5' does not exist."),
        (["catalan", "--frob", "--help"], 0, "usage: schurtrails catalan [OPTIONS]"),
        (["verify", "nosuch"], 2, "Error: No such command 'nosuch'."),
        (["verify", "general", "--lambda", "--help"], 2, "Error: expected comma-separated integers, got '--help'"),
        (["catalan", "--points", "8", "-1.5"], 2, "Error: Got unexpected extra argument (-1.5)"),
        (["--help=x"], 2, "Error: Option '--help' does not take a value."),
        (["verify", "--help=x"], 2, "Error: Option '--help' does not take a value."),
        (["catalan", "--help=x"], 2, "Error: Option '--help' does not take a value."),
        (["-1.5"], 2, "Error: No such command '-1.5'."),
        (["verify", "-1.5"], 2, "Error: No such command '-1.5'."),
        (["catalan", "--points", "8", "-a b"], 2, "Error: Got unexpected extra argument (-a b)"),
    ],
    ids=["last-value-wins", "equals", "missing-value", "close-match", "short-option", "extra-arguments",
         "negative-argument", "help-after-unknown", "no-such-command", "help-as-value", "negative-extra-argument",
         "help-value-root", "help-value-group", "help-value-command", "negative-command-root",
         "negative-command-group", "spaced-extra-argument"],
)
def test_each_token_is_read_as_an_option_a_value_or_an_argument(runner, argv, exit_code, expected):
    # the first line of the output, or the error that ends the usage block
    result = runner.invoke(main, argv)
    assert result.exit_code == exit_code
    if exit_code:
        assert result.stdout == ""
        assert result.stderr.endswith("\n\n%s\n" % expected)
    else:
        assert result.stderr == ""
        assert result.stdout.splitlines()[0] == expected


def test_validation_error_bubbles_as_usage(runner):
    result = runner.invoke(main, ["verify", "general", "--lambda", "3,4", "--vars", "2"])
    assert result.exit_code == 2
    assert "parts must be weakly decreasing" in result.output


def test_non_integer_parts_are_usage_error(runner):
    result = runner.invoke(main, ["verify", "general", "--lambda", "3,x", "--vars", "2"])
    assert result.exit_code == 2


@pytest.mark.parametrize(
    "argv, text",
    [
        (["verify", "general", "--lambda", ",,"], ",,"),
        (["verify", "general", "--lambda", "a"], "a"),
        (["verify", "ciucu", "--set", ",", "--k", "0"], ","),
        (["verify", "pluecker", "--k", "2", "--rlist", "1,,2"], "1,,2"),
        (["render", "--trail", "1,x"], "1,x"),
    ],
    ids=["lambda-commas", "lambda-letter", "set", "rlist", "trail"],
)
def test_malformed_integer_list_is_a_usage_error_quoting_it(runner, argv, text):
    result = runner.invoke(main, argv, input='{"blue": [], "green": []}')
    assert result.exit_code == 2
    assert "Error: expected comma-separated integers, got %r\n" % (text,) in result.output


@pytest.mark.parametrize("n_vars", ["0", "-1"])
@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "general", "--lambda", "2,1"],
        ["verify", "kleber", "--lambda", "2,1", "--k", "1"],
        ["verify", "ciucu", "--set", "1,2,3,4", "--k", "2"],
        ["verify", "pluecker", "--mode", "schur", "--lambda", "4,2", "--sigma", "3,1",
         "--rlist", "1", "--k", "2"],
        ["audit", "--lambda", "2,1"],
        ["orbit", "--lambda", "2", "--sigma", "1", "--offset", "-1", "--rlist", "1"],
        ["render"],
    ],
)
def test_empty_alphabet_is_usage_error(runner, argv, n_vars):
    # render reads the empty graph from stdin; the other commands ignore it
    result = runner.invoke(main, argv + ["--vars", n_vars], input='{"blue": [], "green": []}')
    assert result.exit_code == 2
    assert "alphabet bound must be >= 1" in result.output


# ---------------------------------------------------------------- verify

def test_verify_general_json_report(runner):
    result = runner.invoke(
        main, ["verify", "general", "--lambda", "5,4,3,2", "--vars", "3", "--format", "json"]
    )
    assert result.exit_code == 0
    payload = json.loads(result.output)
    validate(payload, REPORT_SCHEMA)
    assert payload["equal"] is True
    assert payload["identity"] == "general"
    assert payload["params"] == {"N": 3, "lambda": [5, 4, 3, 2]}
    assert "elapsed_ms" not in payload


def test_verify_text_verdict(runner):
    result = runner.invoke(main, ["verify", "kirillov", "--lambda", "2,2,2", "--vars", "3"])
    assert result.exit_code == 0
    assert "kirillov" in result.output
    assert "VERIFIED" in result.output


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["--lambda", "2,1"], lambda text: text == 'general {"N": 2, "lambda": [2, 1]} FAILED (x1: 1 versus 0)\n'),
        (
            ["--lambda", "2,1", "--format", "json"],
            lambda text: json.loads(text)["equal"] is False and json.loads(text)["witness"] == "x1: 1 versus 0",
        ),
        (
            ["--sweep", "2,1;3,2"],
            lambda text: [json.loads(line)["params"]["lambda"] for line in text.splitlines()] == [[2, 1], [3, 2]],
        ),
    ],
    ids=["text", "json", "sweep"],
)
def test_unequal_report_exits_1_after_writing_it(runner, monkeypatch, argv, expected):
    def unequal(parts, N=None):
        # x_1 against 0: the first differing monomial is x1
        x1 = Polynomial.variable(x_var(1))
        return IdentityReport("general", {"lambda": list(parts), "N": 2}, x1, Polynomial.zero())

    monkeypatch.setattr(identities, "verify_general", unequal)
    result = runner.invoke(main, ["verify", "general"] + argv)
    assert result.exit_code == 1
    assert expected(result.stdout)


def test_formal_pluecker_refuses_schur_options(runner):
    argv = ["verify", "pluecker", "--k", "2", "--rlist", "1", "--lambda", "3,1", "--sigma", "9", "--vars", "7"]
    result = runner.invoke(main, argv)
    assert result.exit_code == 2
    assert "formal mode takes no --lambda, --sigma or --vars" in result.output
    assert "VERIFIED" not in result.output


def test_formal_pluecker_needs_k(runner):
    result = runner.invoke(main, ["verify", "pluecker", "--rlist", "1"])
    assert result.exit_code == 2
    assert "formal mode needs --k" in result.output
    assert "VERIFIED" not in result.output


def test_schur_pluecker_needs_both_shapes(runner):
    for shapes in (["--lambda", "3,1"], ["--sigma", "2"], []):
        result = runner.invoke(main, ["verify", "pluecker", "--mode", "schur", "--k", "2", "--rlist", "1"] + shapes)
        assert result.exit_code == 2
        assert "--mode schur needs --lambda and --sigma" in result.output
        assert "VERIFIED" not in result.output


def test_kirillov_window_must_be_constant(runner):
    result = runner.invoke(main, ["verify", "kirillov", "--lambda", "2,1", "--vars", "2"])
    assert result.exit_code == 2


def test_verify_reports_validate_across_identities(runner):
    invocations = [
        ["verify", "dodgson", "--k", "2"],
        ["verify", "pluecker", "--k", "2", "--rlist", "1"],
        ["verify", "pluecker", "--mode", "schur", "--lambda", "4,2", "--sigma", "3,1",
         "--rlist", "1", "--k", "2", "--vars", "3"],
        ["verify", "ciucu", "--set", "1,2,3,4", "--k", "2", "--vars", "3"],
        ["verify", "kleber", "--lambda", "2,1", "--k", "1", "--vars", "3"],
    ]
    for argv in invocations:
        result = runner.invoke(main, argv + ["--format", "json"])
        assert result.exit_code == 0, (argv, result.output)
        payload = json.loads(result.output)
        validate(payload, REPORT_SCHEMA)
        assert payload["equal"] is True


def test_verify_output_is_deterministic(runner):
    argv = ["verify", "kleber", "--lambda", "2,1", "--k", "2", "--format", "json"]
    first = runner.invoke(main, argv)
    second = runner.invoke(main, argv)
    assert first.output == second.output
    assert first.exit_code == second.exit_code == 0


def _box(rows, largest):
    """--lambda texts of the partitions with at most rows parts, each at most largest, zero parts left out."""
    return [",".join(str(p) for p in parts if p)
            for parts in itertools.combinations_with_replacement(range(largest, -1, -1), rows)]


def test_bead_identities_keep_their_cli_bytes(runner):
    # Kleber at every corner of the 4 x 4 box, Ciucu over the 4-subsets of
    # 1..7 and Schur-mode Pluecker over the 3 x 3 box squared, which build
    # their terms from bead coordinates: one digest of argv, exit code and
    # stdout, recorded when they were stated in other coordinates
    calls = [["verify", "kleber", "--lambda", lam, "--k", str(k)]
             for lam in _box(4, 4) for k in range(1, len(set(lam.split(",")) - {""}) + 1)]
    calls += [["verify", "ciucu", "--set", ",".join(map(str, t)), "--k", "2"] for t in itertools.combinations(range(1, 8), 4)]
    calls += [["verify", "pluecker", "--mode", "schur", "--lambda", lam, "--sigma", sigma, "--rlist", rlist]
              for lam in _box(3, 3) for sigma in _box(3, 3) for rlist in ("1", "1,2", "2,3")]
    digest, failed = hashlib.sha256(), []
    for argv in calls:
        argv += ["--format", "json"]
        result = runner.invoke(main, argv)
        if result.exit_code:
            failed.append((argv, result.output))
        digest.update(json.dumps([argv, result.exit_code, result.stdout]).encode() + b"\n")
    assert (len(calls), failed) == (1375, [])
    assert digest.hexdigest() == "b31064b72e36f68899356aec1c68624cc72b721be499a197a4bc85a27f43068a"


def test_packed_product_identities_keep_their_cli_bytes(runner):
    # the window exchange of every window of 2 to 4 parts up to 5 at N = 2..4,
    # Dodgson for k = 1..5 and formal Pluecker for n <= 4 on every r-list,
    # whose sides are expanded together: one digest of argv, exit code and
    # stdout, recorded when each side was expanded on its own
    calls = [["verify", "general", "--lambda", ",".join(map(str, parts)), "--vars", str(N)]
             for length in (2, 3, 4) for parts in itertools.combinations_with_replacement(range(5, -1, -1), length)
             for N in (2, 3, 4)]
    calls += [["verify", "dodgson", "--k", str(k)] for k in range(1, 6)]
    calls += [["verify", "pluecker", "--k", str(n), "--rlist", ",".join(map(str, rlist))]
              for n in range(1, 5) for size in range(n + 1) for rlist in itertools.combinations(range(1, n + 1), size)]
    digest, failed = hashlib.sha256(), []
    for argv in calls:
        argv += ["--format", "json"]
        result = runner.invoke(main, argv)
        if result.exit_code:
            failed.append((argv, result.output))
        digest.update(json.dumps([argv, result.exit_code, result.stdout]).encode() + b"\n")
    assert (len(calls), failed) == (644, [])
    assert digest.hexdigest() == "75c1196df3409627a6058a10da78cdc409a13495204852bee3765bebbd5f3c73"


@pytest.mark.parametrize(
    "argv, exit_code, check",
    [
        (["verify", "general", "--lambda", "2,1", "--format", "json"], 0, lambda text: json.loads(text)["equal"]),
        (
            ["verify", "general", "--sweep", "3,2,1;2,1", "--vars", "3"],
            0,
            lambda text: [json.loads(line)["params"]["lambda"] for line in text.splitlines()]
            == [[3, 2, 1], [2, 1]],
        ),
        (
            ["audit", "--lambda", "2,1", "--vars", "2", "--format", "json"],
            0,
            lambda text: json.loads(text)["objects"] == 6,
        ),
        (["render", "GRAPH"], 0, lambda text: text.startswith("<svg ") and text.endswith("</svg>\n")),
        (["catalan", "--points", "8"], 0, lambda text: text == "14\n"),
        # a usage error raised after the options are read opens no file
        (["verify", "general", "--lambda", "9,9", "--sweep", "2,1"], 2, lambda text: text is None),
    ],
    ids=["verify", "sweep", "audit", "render", "catalan", "usage-error"],
)
def test_verify_out_writes_file(runner, tmp_path, argv, exit_code, check):
    config = tmp_path / "graph.json"
    config.write_text(graph_json())
    argv = [str(config) if bit == "GRAPH" else bit for bit in argv]
    target = tmp_path / "out.txt"
    result = runner.invoke(main, argv + ["--out", str(target)])
    assert result.exit_code == exit_code
    assert result.stdout == ""
    written = target.read_text() if target.exists() else None
    assert check(written)
    # the file holds the bytes the same call writes to stdout without --out
    assert (written or "") == runner.invoke(main, argv).stdout


@pytest.mark.parametrize(
    "argv, work",
    [
        (["verify", "general", "--lambda", "2,1"], "identities.verify_general"),
        (["verify", "general", "--sweep", "2,1;3,2"], "identities.verify_general"),
        (["audit", "--lambda", "2,1"], "replay.bijection_audit"),
        (["render", "GRAPH"], "svg.render_svg"),
        (["catalan", "--points", "8"], "trails.count_noncrossing_matchings"),
    ],
    ids=["verify", "sweep", "audit", "render", "catalan"],
)
@pytest.mark.parametrize("target", ["directory", "missing-directory"])
def test_unopenable_out_is_refused_before_the_work(runner, monkeypatch, tmp_path, argv, work, target):
    def refuse(*args, **kwargs):
        raise AssertionError("%s ran before --out was checked" % work)

    monkeypatch.setattr("schurtrails." + work, refuse)
    config = tmp_path / "graph.json"
    config.write_text(graph_json())
    argv = [str(config) if bit == "GRAPH" else bit for bit in argv]
    out = tmp_path if target == "directory" else tmp_path / "no" / "out.txt"
    result = runner.invoke(main, argv + ["--out", str(out)])
    assert result.exit_code == 2
    assert "Invalid value for '--out'" in result.output
    assert not (tmp_path / "no").exists()


def test_out_file_that_cannot_be_opened_fails_at_the_first_write(runner, tmp_path):
    # the path passes the checks made when the options are read, but no file of that name can exist
    out = str(tmp_path / ("x" * 300))
    result = runner.invoke(main, ["catalan", "--points", "8", "--out", out])
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr.endswith("Error: Could not open file %r: File name too long\n" % out)


# ---------------------------------------------------------------- sweep

def test_sweep_streams_reports_in_input_order(runner):
    result = runner.invoke(
        main, ["verify", "general", "--sweep", "2,1;4,4;3,2,1", "--vars", "3"]
    )
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    shapes = [json.loads(line)["params"]["lambda"] for line in lines]
    assert shapes == [[2, 1], [4, 4], [3, 2, 1]]
    for line in lines:
        validate(json.loads(line), REPORT_SCHEMA)


def test_sweep_needs_entries(runner):
    result = runner.invoke(main, ["verify", "general", "--sweep", " ; "])
    assert result.exit_code == 2
    result = runner.invoke(main, ["verify", "general"])
    assert result.exit_code == 2
    assert "--lambda is required without --sweep" in result.output


def test_sweep_refuses_lambda(runner):
    result = runner.invoke(main, ["verify", "general", "--lambda", "9,9", "--sweep", "2,1"])
    assert result.exit_code == 2
    assert "--lambda and --sweep cannot be combined" in result.output
    assert '"params"' not in result.output


def test_sweep_refuses_format_text(runner):
    result = runner.invoke(main, ["verify", "general", "--sweep", "2,1", "--format", "text"])
    assert result.exit_code == 2
    assert "--sweep writes JSON reports and takes no --format text" in result.output
    assert '"params"' not in result.output
    result = runner.invoke(main, ["verify", "general", "--sweep", "2,1", "--format", "json"])
    assert result.exit_code == 0
    assert json.loads(result.output)["params"] == {"lambda": [2, 1], "N": 2}


# ---------------------------------------------------------------- audit / orbit

def test_audit_text_summary(runner):
    result = runner.invoke(main, ["audit", "--lambda", "2,1", "--vars", "2"])
    assert result.exit_code == 0
    assert result.output == "lambda 2,1 N 2: 6 objects = 2 A + 4 B\n"


def test_audit_json(runner):
    result = runner.invoke(main, ["audit", "--lambda", "2,1", "--vars", "2", "--format", "json"])
    assert result.exit_code == 0
    assert json.loads(result.output) == {
        "lambda": [2, 1],
        "N": 2,
        "objects": 6,
        "case_a": 2,
        "case_b": 4,
    }
    # without --vars the window's parts set N
    assert runner.invoke(main, ["audit", "--lambda", "2,1", "--format", "json"]).output == result.output


@pytest.mark.parametrize("parts", ["0,0", "0,0,0", "0,0,0,0"])
def test_audit_all_zero_window_at_one_variable(runner, parts):
    # the probe sits on a zero-length path: the object is its own image, 1 = 1 + 0
    result = runner.invoke(main, ["audit", "--lambda", parts, "--vars", "1", "--format", "json"])
    assert result.exit_code == 0
    zeros = [0] * len(parts.split(","))
    assert json.loads(result.output) == {"lambda": zeros, "N": 1, "objects": 1, "case_a": 1, "case_b": 0}


def test_audit_refuses_an_oversized_window_at_once(runner):
    start = time.perf_counter()
    result = runner.invoke(main, ["audit", "--lambda", "9,8,7,6,5", "--vars", "6"])
    assert time.perf_counter() - start < 5
    assert result.exit_code == 2
    # s_(9,8,7,6)(1^6) * s_(8,7,6,5)(1^6) objects, against the limit
    assert "the audit has 3102772248576 objects, more than MAX_AUDIT_OBJECTS = 100000" in result.output


def test_audit_of_a_window_with_more_cells_than_the_recursion_limit(runner):
    # 2,400 cells at N = 1: the tableau loop does not recurse per cell
    result = runner.invoke(main, ["audit", "--lambda", "1200,1200", "--vars", "1"])
    assert result.exit_code == 0
    assert result.output == "lambda 1200,1200 N 1: 1 objects = 0 A + 1 B\n"


def test_orbit_is_refused_once_it_moves_more_objects_than_the_limit(runner, monkeypatch):
    # the orbit moves 12 objects, 6 of them in its initial pattern
    monkeypatch.setattr(replay, "MAX_AUDIT_OBJECTS", 5)
    argv = ["orbit", "--lambda", "2", "--sigma", "1", "--offset", "-1", "--rlist", "1", "--vars", "2"]
    result = runner.invoke(main, argv)
    assert result.exit_code == 2
    assert "the orbit moves more than MAX_AUDIT_OBJECTS = 5 objects" in result.output
    monkeypatch.setattr(replay, "MAX_AUDIT_OBJECTS", 12)
    assert runner.invoke(main, argv).exit_code == 0


def test_verify_dodgson_refuses_a_determinant_over_the_expansion_guard(runner):
    result = runner.invoke(main, ["verify", "dodgson", "--k", "6"])
    assert result.exit_code == 2
    assert "dimension 7 exceeds the expansion guard (6)" in result.output


def test_verify_refuses_an_identity_with_too_many_tableau_pairs(runner, monkeypatch):
    def expand(parts, N, width):
        raise AssertionError("expanded %r at N=%d before the guard" % (parts, N))

    monkeypatch.setattr(identities, "_schur_cached", expand)
    result = runner.invoke(main, ["verify", "general", "--lambda", "5,4,3,2,1", "--vars", "8"])
    assert result.exit_code == 2
    # 8 * (s_(5,4,3,2) * s_(4,3,2,1) + ...) with each factor's terms bounded, against the limit
    message = "the identity's products have 40298544000 key digits, more than MAX_PRODUCT_DIGITS = 650000000"
    assert message in result.output


@pytest.mark.parametrize(
    "argv, message",
    [
        (["audit", "--lambda", "2,1", "--vars", "2"], "audit failed: image "),
        (
            ["orbit", "--lambda", "2", "--sigma", "1", "--offset", "-1", "--rlist", "1", "--vars", "2"],
            "orbit failed: the two sides differ in size: 6 vs 0\n",
        ),
    ],
    ids=["audit", "orbit"],
)
def test_failed_check_exits_1_naming_its_command(runner, monkeypatch, argv, message):
    # a recolouring that changes nothing maps every object to itself, which neither check accepts
    def unmoved(frame, layers, trails):
        return tuple((layer.east, layer.north) for layer in layers), (0, 0)

    monkeypatch.setattr(replay, "_recoloured", unmoved)
    result = runner.invoke(main, argv)
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr.startswith(message)


def test_orbit_json(runner):
    result = runner.invoke(
        main,
        ["orbit", "--lambda", "2", "--sigma", "1", "--offset", "-1",
         "--rlist", "1", "--vars", "2", "--format", "json"],
    )
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["O0_size"] == payload["O1_size"] == 6
    assert payload["initial"] == [[2], [0], [1], [0]]
    assert payload["parity_uniform"] is True
    assert len(payload["S1"]) == 2


def test_orbit_json_is_byte_stable(runner):
    # golden bytes: how terminal patterns are keyed inside the orbit must not show in its report
    window = ["--lambda", "2,1", "--sigma", "2,1", "--offset", "1", "--rlist", "2", "--vars", "3"]
    assert runner.invoke(main, ["orbit"] + window + ["--format", "json"]).output == (
        '{"N": 3, "O0_size": 64, "O1_size": 64, "S0": [{"objects": 64, "pattern": [[2, 1], [0, 0], '
        '[2, 1], [0, 0]]}], "S1": [{"objects": 1, "pattern": [[0], [0], [2, 2, 2], [0, 0, 0]]}, '
        '{"objects": 18, "pattern": [[1, 1], [0, 0], [2, 2], [0, 0]]}, {"objects": 45, "pattern": '
        '[[3, 1], [0, 0], [1, 1], [0, 0]]}], "degenerate": false, "initial": [[2, 1], [0, 0], '
        '[2, 1], [0, 0]], "parity_uniform": true, "selected": [[1, 3]]}\n'
    )
    skew = ["--lambda", "3,2", "--inner", "1,1", "--sigma", "3,1", "--tau", "2", "--offset", "1",
            "--rlist", "2", "--vars", "2"]
    assert runner.invoke(main, ["orbit"] + skew + ["--format", "json"]).output == (
        '{"N": 2, "O0_size": 8, "O1_size": 8, "S0": [{"objects": 8, "pattern": [[2, 1], [0, 0], '
        '[3, 1], [2, 0]]}], "S1": [{"objects": 2, "pattern": [[1], [0], [2, 2, 1], [1, 0, 0]]}, '
        '{"objects": 6, "pattern": [[3, 1], [0, 0], [2, 1], [2, 0]]}], "degenerate": false, '
        '"initial": [[2, 1], [0, 0], [3, 1], [2, 0]], "parity_uniform": true, "selected": [[2, 2]]}\n'
    )


def test_orbit_selection_out_of_range(runner):
    result = runner.invoke(
        main, ["orbit", "--lambda", "2", "--sigma", "1", "--offset", "-1", "--rlist", "9"]
    )
    assert result.exit_code == 2
    assert "out of range" in result.output


# ---------------------------------------------------------------- render

def test_render_overlays_requested_trail(runner, tmp_path):
    config = tmp_path / "graph.json"
    config.write_text(graph_json())
    result = runner.invoke(main, ["render", str(config), "--trail", "1,2"])
    assert result.exit_code == 0
    svg = result.output
    assert svg.startswith("<svg ")
    assert svg.rstrip().endswith("</svg>")
    assert "#f0941f" in svg  # the highlighted trail
    assert "stroke-dasharray" in svg  # dotted blue family
    # y axis is flipped: lattice (1,2) sits at canvas (40, 0)
    assert "40,0" in svg
    # green end (1,2) is white/open, green start (-1,1) black/filled
    assert '<circle cx="40" cy="0" r="6" fill="#ffffff" stroke="#111111" stroke-width="2"/>' in svg
    assert '<circle cx="-40" cy="40" r="6" fill="#111111"/>' in svg


def test_render_two_trails_at_one_point_is_usage_error(runner):
    # with one variable the blue end (0,1) is also the green start
    graph = '{"blue": ["(-1,1):E"], "green": ["(0,1):E"]}'
    result = runner.invoke(main, ["render", "--trail", "0,1", "--vars", "1"], input=graph)
    assert result.exit_code == 2
    assert "2 changing trails start at (0, 1)" in result.output


def test_render_is_deterministic(runner, tmp_path):
    config = tmp_path / "graph.json"
    config.write_text(graph_json())
    first = runner.invoke(main, ["render", str(config)])
    second = runner.invoke(main, ["render", str(config)])
    assert first.output == second.output


def test_render_empty_graph_draws_grid(runner):
    result = runner.invoke(main, ["render"], input='{"blue": [], "green": []}')
    assert result.exit_code == 0
    assert "polyline" in result.output
    assert "circle" not in result.output


def test_render_rejects_malformed_config(runner):
    for document in ('{"blue": 3}', '{"blue": "(-1,1):EN", "green": []}'):
        result = runner.invoke(main, ["render"], input=document)
        assert result.exit_code == 2
        assert "malformed graph config" in result.output
    result = runner.invoke(main, ["render", "--trail", "1"], input='{"blue": [], "green": []}')
    assert result.exit_code == 2
    assert "--trail wants x,y, got '1'" in result.output


def test_render_rejects_non_string_paths(runner):
    for document in ('{"blue": [5], "green": []}', '{"blue": [null], "green": []}'):
        result = runner.invoke(main, ["render"], input=document)
        assert result.exit_code == 2
        assert "bad path text" in result.output


@pytest.mark.parametrize(
    "document, n_vars, lines",
    [
        ('{"blue": ["(0,1):E"], "green": ["(200000,1):E"]}', "2", 200_004),
        ('{"blue": ["(-1000000000,1):E"], "green": ["(1000000000,5):NE"]}', "5", 2_000_000_008),
        ('{"blue": [], "green": []}', "1000000000", 1_000_000_005),
    ],
    ids=["wide", "far-apart", "tall-empty"],
)
def test_render_refuses_a_picture_with_too_many_grid_lines(runner, document, n_vars, lines):
    start = time.perf_counter()
    result = runner.invoke(main, ["render", "--vars", n_vars], input=document)
    assert time.perf_counter() - start < 5
    assert result.exit_code == 2
    assert "the picture needs %d grid lines, more than MAX_GRID_LINES = 100000" % lines in result.output


def test_render_draws_a_picture_at_the_grid_line_limit(runner):
    # 99,998 columns and 2 rows of grid, then the two paths
    result = runner.invoke(main, ["render", "--vars", "2"], input='{"blue": ["(0,1):E"], "green": ["(99996,1):E"]}')
    assert result.exit_code == 0
    assert result.output.count("<polyline") == 100_000 + 2


# ---------------------------------------------------------------- catalan

def test_catalan_counts(runner):
    for points, expected in ((2, "1"), (4, "2"), (6, "5"), (8, "14")):
        result = runner.invoke(main, ["catalan", "--points", str(points)])
        assert result.exit_code == 0
        assert result.output == expected + "\n"


def test_catalan_odd_input(runner):
    result = runner.invoke(main, ["catalan", "--points", "5"])
    assert result.exit_code == 2


def test_catalan_refuses_too_many_points(runner):
    result = runner.invoke(main, ["catalan", "--points", "10002"])
    assert result.exit_code == 2
    assert "at most 10000 points" in result.output


def test_catalan_json(runner):
    result = runner.invoke(main, ["catalan", "--points", "8", "--format", "json"])
    assert json.loads(result.output) == {"matchings": 14, "points": 8}


def test_python_dash_m_runs_the_cli():
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(schurtrails.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "schurtrails", "catalan", "--points", "6"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "5\n"


# ---------------------------------------------------------------- module loading

#: Prints the package files compiled while the CLI runs argv, as a last line of its own on stdout.
LOAD_PROBE = """
import json, os, sys
compiled = []
sys.addaudithook(lambda event, args: compiled.append(args[1]) if event == "compile" else None)
from schurtrails import cli
try:
    cli.main(sys.argv[1:])
except SystemExit:
    pass
package = os.path.dirname(cli.__file__)
names = sorted(os.path.basename(f) for f in compiled if isinstance(f, str) and os.path.dirname(f) == package)
print("\\n" + json.dumps(names))
"""


@pytest.fixture(scope="module")
def library_bytecode(tmp_path_factory):
    """A bytecode cache that holds the interpreter's modules the CLI loads but none of the package's."""
    prefix = tmp_path_factory.mktemp("pycache")
    env = dict(os.environ, PYTHONPYCACHEPREFIX=str(prefix))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    subprocess.run([sys.executable, "-c", "import importlib.util, json"], env=env, check=True, timeout=60)
    return prefix


CLI_BASE = ["__init__.py", "cli.py"]
CHECKS = CLI_BASE + ["identities.py", "partitions.py", "polyring.py", "schur.py"]
TRAILS = CLI_BASE + ["partitions.py", "polyring.py", "schur.py", "trails.py"]


@pytest.mark.parametrize(
    "argv, modules",
    [
        (["verify", "general", "--lambda", "2,1"], CHECKS),
        (["verify", "general", "--sweep", "2,1;3,2"], CHECKS),
        (["verify", "kirillov", "--lambda", "2,2", "--vars", "3"], CHECKS),
        (["verify", "dodgson", "--k", "2"], CHECKS),
        (["verify", "pluecker", "--k", "2", "--rlist", "1"], CHECKS),
        (["verify", "pluecker", "--mode", "schur", "--lambda", "4,2", "--sigma", "3,1", "--rlist", "1"], CHECKS),
        (["verify", "ciucu", "--set", "1,2,3,4", "--k", "2"], CHECKS),
        (["verify", "kleber", "--lambda", "3,2,1", "--k", "2"], CHECKS),
        (["audit", "--lambda", "2,1", "--vars", "2"], CHECKS + ["replay.py", "trails.py"]),
        (["orbit", "--lambda", "2", "--sigma", "1", "--offset", "-1", "--rlist", "1", "--vars", "2"],
         CHECKS + ["replay.py", "trails.py"]),
        (["catalan", "--points", "8"], TRAILS),
        (["render"], TRAILS + ["svg.py"]),
        (["--help"], CLI_BASE),
    ],
    ids=["general", "sweep", "kirillov", "dodgson", "pluecker", "pluecker-schur", "ciucu", "kleber",
         "audit", "orbit", "catalan", "render", "help"],
)
def test_each_command_compiles_only_the_modules_it_runs(library_bytecode, argv, modules):
    # the cache is never written, so every package module the call loads is compiled from source
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(schurtrails.__file__)))
    env = dict(os.environ, PYTHONPYCACHEPREFIX=str(library_bytecode), PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", LOAD_PROBE] + argv,
        input='{"blue": ["(-1,1):EN"], "green": ["(0,1):EEN"]}',
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout.splitlines()[-1]) == sorted(modules)


#: Prints which of argparse, click, dataclasses and inspect the CLI call on argv loads, as a last line of its own.
IMPORT_PROBE = """
import json, sys
before = set(sys.modules)
from schurtrails import cli
try:
    cli.main(sys.argv[1:])
except SystemExit:
    pass
print("\\n" + json.dumps(sorted({"argparse", "click", "dataclasses", "inspect"} & (set(sys.modules) - before))))
"""


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "general", "--lambda", "2,1", "--format", "json"],
        ["audit", "--lambda", "2,1", "--vars", "2"],
        ["catalan", "--points", "8"],
        ["catalan", "--help"],
    ],
    ids=["general", "audit", "catalan", "help"],
)
def test_a_call_loads_neither_argparse_nor_click_nor_dataclasses_nor_inspect(argv):
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(schurtrails.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", IMPORT_PROBE] + argv, capture_output=True, text=True, env=env,
                            timeout=60)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout.splitlines()[-1]) == []
