"""Command-line front end for the verifiers, audits, orbits and pictures.

Exit codes: 0 verified/passed, 1 an identity, audit or orbit check
failed (a failed audit or orbit writes "<command> failed: <message>" to
stderr), 2 usage error (the usage line and "Error: <message>" go to
stderr).  Reports are deterministic: JSON is emitted with sorted keys,
and reports carry no timing, so identical invocations give identical
bytes.

The command line reads its own options, so the package has no
third-party dependency.  Each command is a function registered in its
group by _command with its options; main walks the groups to the
command, _read reads and converts its options, and main calls it and
maps a UsageError or ValueError to exit 2 and a RuntimeError to exit 1.
"""

from __future__ import annotations

import importlib.util
import json
import os
import re
import sys
from types import SimpleNamespace


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


def _option(flag, help, dest=None, convert=None, required=False, default=None, metavar=None):
    """An option of one value; one with a list default collects its values, and a flag without dashes is an argument."""
    metavar = metavar or ("INTEGER" if convert is _integer else "TEXT")
    return SimpleNamespace(flag=flag, help=help, dest=dest or flag.lstrip("-"), convert=convert, required=required,
                           default=default, metavar=metavar)


FORMAT = _option("--format", "Report format.  [default: text]", "fmt", _choice("json", "text"), metavar="[json|text]")
OUT = _option("--out", "Write output to PATH instead of stdout.", convert=_Out, default="-", metavar="FILE")
VARS = _option("--vars", "Number of variables N.", "n_vars", _integer)


# ---------------------------------------------------------------- parsing

class _Group(dict):
    """Commands by name, each a _Group or a (function, options) pair, and the group's own help text."""

    def __init__(self, doc):
        super().__init__()
        self.doc = doc


ROOT = _Group("Exact checks and pictures for the lattice-path Schur calculus.")
VERIFY = ROOT["verify"] = _Group("Run one of the identity verifiers.")


def _command(group, *options):
    """Register the decorated function in the group, under its own name, with its options and --out."""

    def register(fn):
        group[fn.__name__] = fn, options + (OUT,)
        return fn

    return register


def _no_such_option(arg, flags):
    """The refusal of an unknown option, naming the options of the command it is close to, or of a value to --help."""
    if not arg.startswith("--"):
        return "No such option %r." % arg[:2]
    name = arg.split("=", 1)[0]
    if name == "--help":
        return "Option '--help' does not take a value."
    import difflib  # here, so that only this refusal pays for it

    close = sorted(difflib.get_close_matches(name, flags + ["--help"]))
    message = "No such option %r." % name
    if len(close) > 1:
        return "%s (Did you mean one of: %s?)" % (message, ", ".join(map(repr, close)))
    return "%s Did you mean %r?" % (message, close[0]) if close else message


def _negative(token):
    """Whether the token is a negative number, which is an argument, not an option."""
    return re.fullmatch(r"-\d+|-\d*\.\d+", token)


def _read(options, args):
    """The command's keyword arguments, each option's text in args converted; None when a bare --help asks for help.

    A flag takes the next token as its value, even one that starts with
    '-', or the text after '=' in --flag=value.  A flag without a value
    is refused first; then the help wins over an unknown option, which
    wins over an extra argument.
    """
    flags = {option.flag: option for option in options if option.flag.startswith("-")}
    arguments = [option for option in options if option.flag not in flags]
    values, rest = {}, []
    tokens = iter(args)
    for token in tokens:
        flag, equals, value = token.partition("=")
        if token in flags:
            flag, value = token, next(tokens, None)
            if value is None:
                raise UsageError("Option %r requires an argument." % token)
        elif flag == "--help" and equals:
            raise UsageError(_no_such_option(token, []))
        elif not (equals and flag in flags):
            # as in argparse, '-', a negative number or a text with a space is an argument, not an option
            if arguments and (token[:1] != "-" or token == "-" or " " in token or _negative(token)):
                values[arguments.pop(0).dest] = token
            else:
                rest.append(token)
            continue
        option = flags[flag]
        values[option.dest] = values.get(option.dest, []) + [value] if isinstance(option.default, list) else value
    unknown = [token for token in rest if token.startswith("-") and token != "-" and not _negative(token)]
    if "--help" in rest:
        return None
    if unknown:
        raise UsageError(_no_such_option(unknown[0], list(flags)))
    if rest:
        raise UsageError("Got unexpected extra argument%s (%s)" % ("s" * (len(rest) > 1), " ".join(rest)))
    for option in options:
        value = values.get(option.dest, option.default)
        if value is None:
            if option.required:
                raise UsageError("Missing option %r." % option.flag)
        elif option.convert is not None:
            try:
                value = option.convert(value)
            except ValueError as exc:
                label = option.flag if option.flag in flags else "[%s]" % option.metavar
                raise UsageError("Invalid value for %r: %s" % (label, exc)) from None
        values[option.dest] = value
    return values


def _usage(prog, command):
    """The usage line of a group or a command."""
    if isinstance(command, _Group):
        return "usage: %s [OPTIONS] COMMAND [ARGS]...\n" % prog
    arguments = "".join(" [%s]" % option.metavar for option in command[1] if not option.flag.startswith("-"))
    return "usage: %s [OPTIONS]%s\n" % (prog, arguments)


def _help(prog, command):
    """Print the usage line, the description, one row per option and a group's commands."""
    rows, commands = [("--help", "Show this message and exit.")], []
    if isinstance(command, _Group):
        doc = command.doc
        commands = [(name, sub.doc if isinstance(sub, _Group) else sub[0].__doc__)
                    for name, sub in sorted(command.items())]
    else:
        doc = command[0].__doc__
        rows += [(option.flag + " " + option.metavar if option.flag.startswith("-") else option.metavar, option.help)
                 for option in command[1]]
    lines = [_usage(prog, command), doc]
    for title, entries in (("options", rows), ("commands", commands)):
        if entries:
            width = max(len(label) for label, _ in entries)
            lines += ["", title + ":"] + ["  %-*s  %s" % (width, label, text) for label, text in entries]
    sys.stdout.write("\n".join(lines) + "\n")


def main(argv=None):
    """Run the command that argv (by default sys.argv[1:]) names; exit 2 on a usage error and 1 on a failed check."""
    args = sys.argv[1:] if argv is None else list(argv)
    prog, command, values = "schurtrails", ROOT, None
    try:
        while isinstance(command, _Group):
            name = args.pop(0) if args else None
            if name is None:
                raise UsageError("Missing command.")
            if name == "--help":
                return _help(prog, command)
            if name not in command:
                raise UsageError(_no_such_option(name, []) if name.startswith("-") and name != "-"
                                 else "No such command %r." % name)
            prog, command = "%s %s" % (prog, name), command[name]
        fn, options = command
        values = _read(options, args)
        if values is None:
            return _help(prog, command)
        fn(**values)
    except RuntimeError as exc:
        sys.stderr.write("%s failed: %s\n" % (fn.__name__, exc))
        raise SystemExit(1)
    except (UsageError, ValueError) as exc:
        sys.stderr.write("%sTry '%s --help' for help.\n\nError: %s\n" % (_usage(prog, command), prog, exc))
        raise SystemExit(2)
    finally:
        if values:
            values["out"].close()


# ---------------------------------------------------------------- commands

@_command(
    VERIFY,
    _option("--lambda", "Comma-separated weakly decreasing parts.", "lam"),
    VARS,
    _option("--sweep", "Semicolon-separated part lists; one JSON report per entry, in order."),
    FORMAT,
)
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


@_command(VERIFY, _option("--lambda", "The constant window, e.g. 2,2,2.", "lam", required=True), VARS, FORMAT)
def kirillov(lam, n_vars, fmt, out):
    """Square of a rectangle against its widened and narrowed neighbours."""
    parts = _ints(lam)
    if not parts or len(set(parts)) != 1:
        raise UsageError("--lambda must repeat one part value, got %r" % (lam,))
    _finish_report(identities.verify_kirillov(parts[0], len(parts) - 1, n_vars), fmt, out)


@_command(VERIFY, _option("--k", "Window length; matrices are (k+1) x (k+1).", convert=_integer, required=True), FORMAT)
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
)
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
)
def ciucu(index_set, k, n_vars, fmt, out):
    """Balanced splits of an index set against its alternating split."""
    _finish_report(identities.verify_ciucu(_ints(index_set), k, n_vars), fmt, out)


@_command(
    VERIFY,
    _option("--lambda", "Comma-separated parts.", "lam", required=True),
    _option("--k", "Corner index, counted from the top.", convert=_integer, required=True),
    VARS,
    FORMAT,
)
def kleber(lam, k, n_vars, fmt, out):
    """Square expansion over nested border strips at one corner."""
    _finish_report(identities.verify_kleber(_ints(lam), k, n_vars), fmt, out)


@_command(ROOT, _option("--lambda", "Comma-separated parts (r+1 of them).", "lam", required=True), VARS, FORMAT)
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
)
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
    _option("config", "Graph JSON file; - (the default) reads stdin.", convert=_config, default="-", metavar="CONFIG"),
    _option("--trail", "x,y of a terminal whose changing trail is overlaid; repeatable.", "trail_points", default=[]),
    VARS,
)
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


@_command(ROOT, _option("--points", "Number of matched points (even).", convert=_integer, required=True), FORMAT)
def catalan(points, fmt, out):
    """Count perfect noncrossing matchings on cyclically arranged points."""
    count = trails.count_noncrossing_matchings(points)
    _write(out, fmt, {"matchings": count, "points": points}, str(count))
