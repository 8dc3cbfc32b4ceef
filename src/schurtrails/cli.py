"""Command-line front end for the verifiers, audits, orbits and pictures.

Exit codes: 0 verified/passed, 1 an identity, audit or orbit check
failed (a failed audit or orbit writes "<command> failed: <message>" to
stderr), 2 usage error.  Reports are deterministic: JSON is emitted with
sorted keys, and reports carry no timing, so identical invocations give
identical bytes.
"""

from __future__ import annotations

import functools
import importlib.util
import json
import os
import sys

import click


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
            raise click.UsageError(str(exc))
        except RuntimeError as exc:
            click.echo("%s failed: %s" % (click.get_current_context().info_name, exc), err=True)
            raise SystemExit(1)

    return wrapped


def _write(out, fmt, payload, text):
    """Write one report line: the payload as JSON with sorted keys, or the text."""
    click.echo(json.dumps(payload, sort_keys=True) if fmt == "json" else text, file=out)


def _finish_report(rep, fmt, out):
    verdict = "VERIFIED" if rep.equal else "FAILED (%s)" % rep.witness
    text = "%s %s %s" % (rep.identity, json.dumps(rep.params, sort_keys=True), verdict)
    _write(out, fmt, rep.to_json(), text)
    if not rep.equal:
        raise SystemExit(1)


def _checked_out(ctx, param, out):
    """Refuse an --out path that is a directory or lies in a missing one, before any work; the file opens lazily."""
    if out.name != "-":
        if os.path.isdir(out.name):
            raise click.BadParameter("%r is a directory" % out.name)
        if not os.path.isdir(os.path.dirname(os.path.abspath(out.name))):
            raise click.BadParameter("the directory of %r does not exist" % out.name)
    return out


fmt_option = click.option(
    "--format",
    "fmt",
    type=click.Choice(["json", "text"]),
    default="text",
    show_default=True,
    help="Report format.",
)
out_option = click.option(
    "--out",
    type=click.File("w", lazy=True),
    default="-",
    callback=_checked_out,
    metavar="FILE",
    help="Write output to PATH instead of stdout.",
)
vars_option = click.option(
    "--vars", "n_vars", type=int, default=None, help="Number of variables N."
)


@click.group(no_args_is_help=False)
def main():
    """Exact checks and pictures for the lattice-path Schur calculus."""


@main.group()
def verify():
    """Run one of the identity verifiers."""


@verify.command()
@click.option("--lambda", "lam", default=None, help="Comma-separated weakly decreasing parts.")
@vars_option
@click.option(
    "--sweep",
    default=None,
    help="Semicolon-separated part lists; one JSON report per entry, in order.",
)
@fmt_option
@out_option
@_usage_guard
def general(lam, n_vars, sweep, fmt, out):
    """Exchange the first and last parts between consecutive windows."""
    if sweep is not None:
        if lam is not None:
            raise click.UsageError("--lambda and --sweep cannot be combined")
        source = click.get_current_context().get_parameter_source("fmt")
        if fmt == "text" and source == click.core.ParameterSource.COMMANDLINE:
            raise click.UsageError("--sweep writes JSON reports and takes no --format text")
        shapes = [_ints(bit) for bit in sweep.split(";") if bit.strip()]
        if not shapes:
            raise click.UsageError("--sweep names no part lists")
        all_equal = True
        for parts in shapes:
            rep = identities.verify_general(parts, n_vars)
            _write(out, "json", rep.to_json(), None)
            all_equal = all_equal and rep.equal
        if not all_equal:
            raise SystemExit(1)
        return
    if lam is None:
        raise click.UsageError("--lambda is required without --sweep")
    _finish_report(identities.verify_general(_ints(lam), n_vars), fmt, out)


@verify.command()
@click.option("--lambda", "lam", required=True, help="The constant window, e.g. 2,2,2.")
@vars_option
@fmt_option
@out_option
@_usage_guard
def kirillov(lam, n_vars, fmt, out):
    """Square of a rectangle against its widened and narrowed neighbours."""
    parts = _ints(lam)
    if not parts or len(set(parts)) != 1:
        raise click.UsageError("--lambda must repeat one part value, got %r" % (lam,))
    _finish_report(identities.verify_kirillov(parts[0], len(parts) - 1, n_vars), fmt, out)


@verify.command()
@click.option("--k", type=int, required=True, help="Window length; matrices are (k+1) x (k+1).")
@fmt_option
@out_option
@_usage_guard
def dodgson(k, fmt, out):
    """Condensation of a generic determinant into corner minors."""
    _finish_report(identities.verify_dodgson(k), fmt, out)


@verify.command()
@click.option("--k", type=int, default=None, help="Minor size; the generic matrix is 2k x k.")
@click.option("--rlist", default="", help="Comma-separated row indices to exchange.")
@click.option(
    "--mode",
    type=click.Choice(["formal", "schur"]),
    default="formal",
    show_default=True,
)
@click.option("--lambda", "lam", default=None, help="First shape (schur mode).")
@click.option("--sigma", default=None, help="Second shape (schur mode).")
@vars_option
@fmt_option
@out_option
@_usage_guard
def pluecker(k, rlist, mode, lam, sigma, n_vars, fmt, out):
    """Minor exchange on a generic tall matrix, formal or through Schur factors."""
    if mode == "schur" and (lam is None or sigma is None):
        raise click.UsageError("--mode schur needs --lambda and --sigma")
    if mode == "formal" and (lam is not None or sigma is not None or n_vars is not None):
        raise click.UsageError("formal mode takes no --lambda, --sigma or --vars")
    if mode == "formal" and k is None:
        raise click.UsageError("formal mode needs --k")
    rep = identities.verify_pluecker(
        k, _ints(rlist) or (), mode=mode, lam=_ints(lam), sigma=_ints(sigma), N=n_vars
    )
    _finish_report(rep, fmt, out)


@verify.command()
@click.option("--set", "index_set", required=True, help="Comma-separated index set T.")
@click.option("--k", type=int, required=True, help="Subset size; T needs 2k elements.")
@vars_option
@fmt_option
@out_option
@_usage_guard
def ciucu(index_set, k, n_vars, fmt, out):
    """Balanced splits of an index set against its alternating split."""
    _finish_report(identities.verify_ciucu(_ints(index_set), k, n_vars), fmt, out)


@verify.command()
@click.option("--lambda", "lam", required=True, help="Comma-separated parts.")
@click.option("--k", type=int, required=True, help="Corner index, counted from the top.")
@vars_option
@fmt_option
@out_option
@_usage_guard
def kleber(lam, k, n_vars, fmt, out):
    """Square expansion over nested border strips at one corner."""
    _finish_report(identities.verify_kleber(_ints(lam), k, n_vars), fmt, out)


@main.command()
@click.option("--lambda", "lam", required=True, help="Comma-separated parts (r+1 of them).")
@vars_option
@fmt_option
@out_option
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


@main.command()
@click.option("--lambda", "lam", required=True, help="Blue outer parts (offset 0).")
@click.option("--inner", default=None, help="Blue inner parts, for a skew layout.")
@click.option("--sigma", required=True, help="Green outer parts.")
@click.option("--tau", default=None, help="Green inner parts, for a skew layout.")
@click.option("--offset", "t", type=int, default=0, show_default=True, help="Green layout offset.")
@click.option("--rlist", "selected", default="", help="Selected Q-sequence indices, comma-separated.")
@vars_option
@fmt_option
@out_option
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


@main.command()
@click.argument("config", type=click.Path(exists=True, dir_okay=False, allow_dash=True), default="-")
@click.option(
    "--trail",
    "trail_points",
    multiple=True,
    help="x,y of a terminal whose changing trail is overlaid; repeatable.",
)
@vars_option
@out_option
@_usage_guard
def render(config, trail_points, n_vars, out):
    """Draw a graph JSON file (or stdin) as a deterministic SVG."""
    try:
        with click.open_file(config) as fh:
            graph = trails.TwoColouredGraph.from_json(json.load(fh))
    except (KeyError, TypeError, json.JSONDecodeError) as exc:
        raise click.UsageError("malformed graph config: %s" % exc)
    overlaid = []
    for spec in trail_points:
        location = _ints(spec)
        if len(location) != 2:
            raise click.UsageError("--trail wants x,y, got %r" % (spec,))
        overlaid.append(trails.trail_at_terminal(graph, location))
    click.echo(svg.render_svg(graph, tuple(overlaid), n_vars), file=out, nl=False)


@main.command()
@click.option("--points", type=int, required=True, help="Number of matched points (even).")
@fmt_option
@out_option
@_usage_guard
def catalan(points, fmt, out):
    """Count perfect noncrossing matchings on cyclically arranged points."""
    count = trails.count_noncrossing_matchings(points)
    _write(out, fmt, {"matchings": count, "points": points}, str(count))
