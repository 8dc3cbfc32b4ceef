"""Command-line front end for the verifiers, audits, orbits and pictures.

Exit codes: 0 verified/passed, 1 an identity, audit or orbit check
failed (a failed audit or orbit writes "<command> failed: <message>" to
stderr), 2 usage error (the usage line and "Error: <message>" go to
stderr).  Reports are deterministic: JSON is emitted with sorted keys,
and reports carry no timing, so identical invocations give identical
bytes.

The front end is the standard library's argparse, so the package has no
third-party dependency.  Each command is a function registered in its
group by _command with its options; main walks the groups to the
command, builds that command's parser alone, reads the option texts
through it, converts and checks them, and calls the function.
"""

from __future__ import annotations

import argparse
import functools
import importlib.util
import json
import os
import sys


def _lazy(name):
    """The package module name, registered so that its code runs at its first attribute access.

    A module already imported is reused.  The rest go into sys.modules
    and onto the package as lazy modules, so a command runs only the
    modules it reaches, while code that looks a module up in sys.modules
    right after this import, as a tracer does, still finds it.
    """
    full = "%s.%s" % (__package__, name)
    if full not in sys.modules:
        spec = importlib.util.find_spec(full)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        sys.modules[full] = module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return sys.modules[full]


# polyring and schur are registered too, though commands reach them only through the other modules
identities, partitions, polyring, replay, schur, svg, trails = map(
    _lazy, ("identities", "partitions", "polyring", "replay", "schur", "svg", "trails")
)

#: Schema for every verifier report the CLI prints in JSON format.
REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["identity", "params", "equal", "lhs_terms", "rhs_terms"],
    "properties": {
        "identity": {
            "enum": ["general", "kirillov", "dodgson", "pluecker", "ciucu", "kleber"]
        },
        "params": {"type": "object"},
        "equal": {"type": "boolean"},
        "lhs_terms": {"type": "integer", "minimum": 0},
        "rhs_terms": {"type": "integer", "minimum": 0},
        "witness": {"type": "string"},
    },
    "additionalProperties": False,
}


class UsageError(Exception):
    """A call the command line refuses: main writes its message as "Error: <message>" and exits 2."""


def _ints(text):
    """None -> None, '' -> (), '5,4,3' -> (5, 4, 3); any other text is a ValueError that quotes it."""
    if text is None:
        return None
    if not text.strip():
        return ()
    try:
        return tuple(int(bit) for bit in text.split(","))
    except ValueError:
        raise ValueError("expected comma-separated integers, got %r" % (text,)) from None


def _usage_guard(fn):
    """Turn a ValueError into a usage error (exit 2) and a RuntimeError into a failed check (exit 1)."""

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ValueError as exc:
            raise UsageError(str(exc))
        except RuntimeError as exc:
            sys.stderr.write("%s failed: %s\n" % (fn.__name__, exc))
            raise SystemExit(1)

    return wrapped


def _write(out, fmt, payload, text):
    """Write one report line: the payload as JSON with sorted keys, or the text."""
    out.write((json.dumps(payload, sort_keys=True) if fmt == "json" else text) + "\n")


def _finish_report(rep, fmt, out):
    verdict = "VERIFIED" if rep.equal else "FAILED (%s)" % rep.witness
    text = "%s %s %s" % (rep.identity, json.dumps(rep.params, sort_keys=True), verdict)
    _write(out, fmt, rep.to_json(), text)
    if not rep.equal:
        raise SystemExit(1)


# ---------------------------------------------------------------- option texts
# Each conversion takes an option's text and returns its value, or raises a
# ValueError that main reports as "Invalid value for '<option>': <message>".

def _integer(text):
    try:
        return int(text)
    except ValueError:
        raise ValueError("%r is not a valid integer." % (text,)) from None


def _choice(*choices):
    def convert(text):
        if text not in choices:
            raise ValueError("%r is not one of %s." % (text, ", ".join(map(repr, choices))))
        return text

    return convert


def _config(path):
    """A readable file, or '-' for stdin."""
    if path != "-":
        if not os.path.exists(path):
            raise ValueError("File %r does not exist." % path)
        if os.path.isdir(path):
            raise ValueError("File %r is a directory." % path)
        if not os.access(path, os.R_OK):
            raise ValueError("File %r is not readable." % path)
    return path


class _Out:
    """The --out target, '-' for stdout; a file opens at its first write, so a call refused before it writes makes none.

    A path that is a directory or lies in a missing one is refused when the options are read, before any work.
    """

    def __init__(self, path):
        if path != "-":
            if os.path.isdir(path):
                raise ValueError("%r is a directory" % path)
            if not os.path.isdir(os.path.dirname(os.path.abspath(path))):
                raise ValueError("the directory of %r does not exist" % path)
        self.path, self.file = path, None

    def write(self, text):
        if self.file is None:
            try:
                self.file = sys.stdout if self.path == "-" else open(self.path, "w")
            except OSError as exc:
                sys.stderr.write("Error: Could not open file %r: %s\n" % (self.path, exc.strerror))
                raise SystemExit(1)
        self.file.write(text)
        self.file.flush()

    def close(self):
        if self.file not in (None, sys.stdout):
            self.file.close()


def _option(flag, help=None, dest=None, convert=None, required=False, **kwargs):
    """An option as (flag, conversion, required, argparse keywords); every option takes one value."""
    metavar = "INTEGER" if convert is _integer else "TEXT"
    return flag, convert, required, dict({"metavar": metavar}, dest=dest or flag[2:], help=help, **kwargs)


FORMAT = _option("--format", "Report format.  [default: text]", "fmt", _choice("json", "text"), metavar="[json|text]")
OUT = _option("--out", "Write output to PATH instead of stdout.", convert=_Out, default="-", metavar="FILE")
VARS = _option("--vars", "Number of variables N.", "n_vars", _integer)


# ---------------------------------------------------------------- parsing

class _Parser(argparse.ArgumentParser):
    """A parser that reports a usage error as its usage, a hint and "Error: <message>" on stderr, with exit 2."""

    def __init__(self, prog, usage, doc, epilog=None):
        super().__init__(
            prog=prog,
            usage="%(prog)s " + usage,
            description=doc,
            epilog=epilog,
            formatter_class=argparse.RawDescriptionHelpFormatter,
            add_help=False,
            allow_abbrev=False,
        )
        self.add_argument("--help", action="help", help="Show this message and exit.")

    def error(self, message):
        self.exit(2, "%sTry '%s --help' for help.\n\nError: %s\n" % (self.format_usage(), self.prog, message))


class _Group(dict):
    """Commands by name, each a _Group or a (function, options) pair, and the group's own help text."""

    def __init__(self, doc):
        super().__init__()
        self.doc = doc

    def parser(self, prog):
        width = max(map(len, self))
        lines = ["  %-*s  %s" % (width, name, command.doc if isinstance(command, _Group) else command[0].__doc__)
                 for name, command in sorted(self.items())]
        return _Parser(prog, "[OPTIONS] COMMAND [ARGS]...", self.doc, "commands:\n" + "\n".join(lines))


ROOT = _Group("Exact checks and pictures for the lattice-path Schur calculus.")
VERIFY = ROOT["verify"] = _Group("Run one of the identity verifiers.")


def _command(group, *options):
    """Register the decorated function in the group, under its own name, with its options."""

    def register(fn):
        group[fn.__name__] = fn, options
        return fn

    return register


def _joined(args, flags):
    """The arguments with each option joined to the value after it, so a value starting with '-' stays a value.

    Without the join argparse reads '-1,1' in `--trail -1,1` as an unknown option.
    """
    joined, rest = [], iter(args)
    for arg in rest:
        if arg in flags:
            value = next(rest, None)
            if value is None:
                raise UsageError("Option %r requires an argument." % arg)
            arg = "%s=%s" % (arg, value)
        joined.append(arg)
    return joined


def _no_such_option(arg, flags):
    """The refusal of an unknown option, naming the options of the command it is close to."""
    if not arg.startswith("--"):
        return "No such option %r." % arg[:2]
    import difflib  # here, so that only this refusal pays for it

    name = arg.split("=", 1)[0]
    close = sorted(difflib.get_close_matches(name, flags + ["--help"]))
    message = "No such option %r." % name
    if len(close) > 1:
        return "%s (Did you mean one of: %s?)" % (message, ", ".join(map(repr, close)))
    return "%s Did you mean %r?" % (message, close[0]) if close else message


def main(argv=None):
    """Run the command that argv (by default sys.argv[1:]) names; exit 2 on a usage error and 1 on a failed check."""
    args = sys.argv[1:] if argv is None else list(argv)
    prog, command = "schurtrails", ROOT
    while isinstance(command, _Group):
        name = args.pop(0) if args else None
        if name in command:
            prog, command = "%s %s" % (prog, name), command[name]
            continue
        parser = command.parser(prog)
        if name == "--help":
            parser.print_help()
            parser.exit()
        if name is None:
            parser.error("Missing command.")
        if name.startswith("-") and name != "-":
            parser.error(_no_such_option(name, []))
        parser.error("No such command %r." % name)
    fn, options = command
    flags = [flag for flag, _, _, _ in options if flag.startswith("-")]
    arguments = "".join(" [%s]" % kwargs["metavar"] for flag, _, _, kwargs in options if flag not in flags)
    parser = _Parser(prog, "[OPTIONS]" + arguments, fn.__doc__)
    for flag, _, _, kwargs in options:
        parser.add_argument(flag, **kwargs)
    values = {}
    try:
        namespace, extra = parser.parse_known_args(_joined(args, flags))
        unknown = [arg for arg in extra if arg.startswith("-") and arg != "-"]
        if unknown:
            raise UsageError(_no_such_option(unknown[0], flags))
        if extra:
            raise UsageError("Got unexpected extra argument%s (%s)" % ("s" * (len(extra) > 1), " ".join(extra)))
        for flag, convert, required, kwargs in options:
            name = kwargs.get("dest", flag)
            value = getattr(namespace, name)
            if value is None:
                if required:
                    raise UsageError("Missing option %r." % flag)
            elif convert is not None:
                try:
                    value = convert(value)
                except ValueError as exc:
                    label = flag if flag in flags else "[%s]" % kwargs["metavar"]
                    raise UsageError("Invalid value for %r: %s" % (label, exc)) from None
            values[name] = value
        fn(**values)
    except UsageError as exc:
        parser.error(str(exc))
    finally:
        if "out" in values:
            values["out"].close()


# ---------------------------------------------------------------- commands

@_command(
    VERIFY,
    _option("--lambda", "Comma-separated weakly decreasing parts.", "lam"),
    VARS,
    _option("--sweep", "Semicolon-separated part lists; one JSON report per entry, in order."),
    FORMAT,
    OUT,
)
@_usage_guard
def general(lam, n_vars, sweep, fmt, out):
    """Exchange the first and last parts between consecutive windows."""
    if sweep is not None:
        if lam is not None:
            raise UsageError("--lambda and --sweep cannot be combined")
        # only a typed --format has a value: the default text is None
        if fmt == "text":
            raise UsageError("--sweep writes JSON reports and takes no --format text")
        shapes = [_ints(bit) for bit in sweep.split(";") if bit.strip()]
        if not shapes:
            raise UsageError("--sweep names no part lists")
        all_equal = True
        for parts in shapes:
            rep = identities.verify_general(parts, n_vars)
            _write(out, "json", rep.to_json(), None)
            all_equal = all_equal and rep.equal
        if not all_equal:
            raise SystemExit(1)
        return
    if lam is None:
        raise UsageError("--lambda is required without --sweep")
    _finish_report(identities.verify_general(_ints(lam), n_vars), fmt, out)


@_command(VERIFY, _option("--lambda", "The constant window, e.g. 2,2,2.", "lam", required=True), VARS, FORMAT, OUT)
@_usage_guard
def kirillov(lam, n_vars, fmt, out):
    """Square of a rectangle against its widened and narrowed neighbours."""
    parts = _ints(lam)
    if not parts or len(set(parts)) != 1:
        raise UsageError("--lambda must repeat one part value, got %r" % (lam,))
    _finish_report(identities.verify_kirillov(parts[0], len(parts) - 1, n_vars), fmt, out)


@_command(VERIFY, _option("--k", "Window length; matrices are (k+1) x (k+1).", convert=_integer, required=True),
          FORMAT, OUT)
@_usage_guard
def dodgson(k, fmt, out):
    """Condensation of a generic determinant into corner minors."""
    _finish_report(identities.verify_dodgson(k), fmt, out)


@_command(
    VERIFY,
    _option("--k", "Minor size; the generic matrix is 2k x k.", convert=_integer),
    _option("--rlist", "Comma-separated row indices to exchange.", default=""),
    _option("--mode", "[default: formal]", convert=_choice("formal", "schur"), default="formal",
            metavar="[formal|schur]"),
    _option("--lambda", "First shape (schur mode).", "lam"),
    _option("--sigma", "Second shape (schur mode)."),
    VARS,
    FORMAT,
    OUT,
)
@_usage_guard
def pluecker(k, rlist, mode, lam, sigma, n_vars, fmt, out):
    """Minor exchange on a generic tall matrix, formal or through Schur factors."""
    if mode == "schur" and (lam is None or sigma is None):
        raise UsageError("--mode schur needs --lambda and --sigma")
    if mode == "formal" and (lam is not None or sigma is not None or n_vars is not None):
        raise UsageError("formal mode takes no --lambda, --sigma or --vars")
    if mode == "formal" and k is None:
        raise UsageError("formal mode needs --k")
    rep = identities.verify_pluecker(
        k, _ints(rlist) or (), mode=mode, lam=_ints(lam), sigma=_ints(sigma), N=n_vars
    )
    _finish_report(rep, fmt, out)


@_command(
    VERIFY,
    _option("--set", "Comma-separated index set T.", "index_set", required=True),
    _option("--k", "Subset size; T needs 2k elements.", convert=_integer, required=True),
    VARS,
    FORMAT,
    OUT,
)
@_usage_guard
def ciucu(index_set, k, n_vars, fmt, out):
    """Balanced splits of an index set against its alternating split."""
    _finish_report(identities.verify_ciucu(_ints(index_set), k, n_vars), fmt, out)


@_command(
    VERIFY,
    _option("--lambda", "Comma-separated parts.", "lam", required=True),
    _option("--k", "Corner index, counted from the top.", convert=_integer, required=True),
    VARS,
    FORMAT,
    OUT,
)
@_usage_guard
def kleber(lam, k, n_vars, fmt, out):
    """Square expansion over nested border strips at one corner."""
    _finish_report(identities.verify_kleber(_ints(lam), k, n_vars), fmt, out)


@_command(ROOT, _option("--lambda", "Comma-separated parts (r+1 of them).", "lam", required=True), VARS, FORMAT, OUT)
@_usage_guard
def audit(lam, n_vars, fmt, out):
    """Replay the window-exchange bijection object by object."""
    rep = replay.bijection_audit(_ints(lam), n_vars)
    text = "lambda %s N %d: %d objects = %d A + %d B" % (
        ",".join(str(p) for p in rep.lam),
        rep.N,
        rep.objects,
        rep.case_a,
        rep.case_b,
    )
    _write(out, fmt, rep.to_json(), text)


@_command(
    ROOT,
    _option("--lambda", "Blue outer parts (offset 0).", "lam", required=True),
    _option("--inner", "Blue inner parts, for a skew layout."),
    _option("--sigma", "Green outer parts.", required=True),
    _option("--tau", "Green inner parts, for a skew layout."),
    _option("--offset", "Green layout offset.  [default: 0]", "t", _integer, default="0"),
    _option("--rlist", "Selected Q-sequence indices, comma-separated.", "selected", default=""),
    VARS,
    FORMAT,
    OUT,
)
@_usage_guard
def orbit(lam, inner, sigma, tau, t, selected, n_vars, fmt, out):
    """Close the trail-recolouring move over families with fixed terminals."""
    Partition, SkewShape = partitions.Partition, partitions.SkewShape
    blue = SkewShape(Partition(_ints(lam)), Partition(_ints(inner) or ()))
    green = SkewShape(Partition(_ints(sigma)), Partition(_ints(tau) or ()))
    res = replay.explore_orbit(blue, green, t=t, selected=_ints(selected) or (), N=n_vars)
    text = "initial %s N %d: side 0 has %d objects in %d patterns, side 1 has %d in %d%s" % (
        json.dumps([list(c) for c in res.initial]),
        res.N,
        res.O0_size,
        len(res.counts0),
        res.O1_size,
        len(res.counts1),
        " (degenerate)" if res.degenerate else "",
    )
    _write(out, fmt, res.to_json(), text)


@_command(
    ROOT,
    ("config", _config, False, {"nargs": "?", "default": "-", "metavar": "CONFIG",
                                "help": "Graph JSON file; - (the default) reads stdin."}),
    _option("--trail", "x,y of a terminal whose changing trail is overlaid; repeatable.", "trail_points",
            action="append", default=[]),
    VARS,
    OUT,
)
@_usage_guard
def render(config, trail_points, n_vars, out):
    """Draw a graph JSON file (or stdin) as a deterministic SVG."""
    try:
        if config == "-":
            document = json.load(sys.stdin)
        else:
            with open(config) as fh:
                document = json.load(fh)
        graph = trails.TwoColouredGraph.from_json(document)
    except (KeyError, TypeError, json.JSONDecodeError) as exc:
        raise UsageError("malformed graph config: %s" % exc)
    overlaid = []
    for spec in trail_points:
        location = _ints(spec)
        if len(location) != 2:
            raise UsageError("--trail wants x,y, got %r" % (spec,))
        overlaid.append(trails.trail_at_terminal(graph, location))
    out.write(svg.render_svg(graph, tuple(overlaid), n_vars))


@_command(ROOT, _option("--points", "Number of matched points (even).", convert=_integer, required=True), FORMAT, OUT)
@_usage_guard
def catalan(points, fmt, out):
    """Count perfect noncrossing matchings on cyclically arranged points."""
    count = trails.count_noncrossing_matchings(points)
    _write(out, fmt, {"matchings": count, "points": points}, str(count))
