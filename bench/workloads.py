"""Seeded, work-balanced inputs and exact checks for the benchmark workloads.

Input generation is plain Python over integers and tuples and calls nothing
in schurtrails, so the program only ever sees the generated inputs.  Every
workload is a fixed list of strata with a fixed number of draws per stratum;
the seed chooses which inputs fill each stratum and the order the checks run
in, so different seeds do comparable work.  A stratum is narrow where the
cost of a check is steep in its input (determinant size, variable count,
shape size, object count), which is why the strata below name all of those.

A check raises CheckFailed when the program's answer is wrong.  Oracles that
need the program itself (the in-process report a CLI call must reproduce, the
Schur product an orbit's weight must equal) are built by Check.prepare before
any batch is timed.
"""

from __future__ import annotations

import itertools
import json
import random
from functools import lru_cache
from math import comb, factorial

from schurtrails.identities import (
    bijection_audit,
    explore_orbit,
    verify_ciucu,
    verify_dodgson,
    verify_general,
    verify_kirillov,
    verify_kleber,
    verify_pluecker,
)
from schurtrails.partitions import Partition, SkewShape
from schurtrails.schur import TerminalSpec, enumerate_families, schur_poly
from schurtrails.svg import render_svg
from schurtrails.trails import (
    BACKWARD,
    FORWARD,
    TwoColouredGraph,
    all_trails,
    build_graph,
    count_noncrossing_matchings,
    recolour,
    terminal_matching,
    terminal_points,
    trace_trail,
    trail_at_terminal,
)

class CheckFailed(Exception):
    """The program returned a wrong answer."""


def expect(condition, message):
    if not condition:
        raise CheckFailed(message)


class Check:
    """One verifier, audit, orbit or CLI call with its exact correctness test."""

    def __init__(self, kind, params, run, prepare=None):
        self.kind = kind
        self.params = params
        self._run = run
        self._prepare = prepare
        self.oracle = None

    @property
    def label(self):
        return "%s %s" % (self.kind, json.dumps(self.params))

    def prepare(self):
        if self._prepare is not None:
            self.oracle = self._prepare()

    def run(self, ctx):
        self._run(self, ctx)


# ---------------------------------------------------------------- combinatorics of our own

def ssyt_count(parts, N):
    """s_parts(1^N) by the hook-content formula; parts may carry zeros."""
    return _ssyt_count(tuple(p for p in parts if p > 0), N)


@lru_cache(maxsize=None)
def _ssyt_count(parts, N):
    if not parts:
        return 1
    conj = [sum(1 for p in parts if p > j) for j in range(parts[0])]
    num = den = 1
    for i, p in enumerate(parts):
        for j in range(p):
            num *= N + j - i
            den *= (p - j) + (conj[j] - i) - 1
    return num // den if num > 0 else 0


def window_objects(parts, N):
    """Objects on the left side of the window exchange: s_lead(1^N) * s_trail(1^N)."""
    r = len(parts) - 1
    return ssyt_count(parts[:r], N) * ssyt_count(parts[1:], N)


def _dominated(bounds, n, length):
    """Partitions of n with at most length parts whose partial sums stay within bounds."""

    def grow(prefix, total, cap):
        if total == n:
            yield prefix
            return
        if len(prefix) == length:
            return
        limit = bounds[min(len(prefix), len(bounds) - 1)] - total
        for part in range(min(cap, limit, n - total), 0, -1):
            yield from grow(prefix + (part,), total + part, part)

    return grow((), 0, n)


def schur_terms(parts, N):
    """Monomials of s_parts(x_1..x_N): permutations of the partitions it dominates."""
    return _schur_terms(tuple(p for p in parts if p > 0), N)


@lru_cache(maxsize=None)
def _schur_terms(parts, N):
    if len(parts) > N:
        return 0
    total = 0
    for mu in _dominated(list(itertools.accumulate(parts)) or [0], sum(parts), N):
        exponents = list(mu) + [0] * (N - len(mu))
        orbit = factorial(N)
        for value in set(exponents):
            orbit //= factorial(exponents.count(value))
        total += orbit
    return total


@lru_cache(maxsize=None)
def general_work(parts, N):
    """Work of verify_general from a cold cache, in units of about 4 us at N=4.

    Twice the term pairs of the three products it expands plus the cells of
    every tableau enumerated for its distinct Schur factors.
    """
    r = len(parts) - 1
    lowered = tuple(p - 1 for p in parts[1:])
    raised = tuple(p + 1 for p in parts[:r])
    products = [(parts[:r], parts[1:]), (parts[1:r], parts)]
    if min(lowered) >= 0:
        products.append((lowered, raised))
    pairs = sum(schur_terms(a, N) * schur_terms(b, N) for a, b in products)
    factors = {f for pair in products for f in pair}
    cells = sum(ssyt_count(f, N) * max(1, sum(f)) for f in factors)
    return 2 * pairs + cells


def catalan(k):
    return comb(2 * k, k) // (k + 1)


def decreasing_tuples(length, top, low=0):
    """Weakly decreasing tuples of the given length over low..top."""
    return list(itertools.combinations_with_replacement(range(top, low - 1, -1), length))


def _draw(rng, pool, count, what):
    if len(pool) < 1:
        raise ValueError("empty stratum for %s" % (what,))
    if len(pool) >= count:
        return rng.sample(pool, count)
    return [rng.choice(pool) for _ in range(count)]


def _random_ssyt(rng, parts, N):
    """A seeded semistandard filling of the straight shape with entries <= N."""
    heights = [sum(1 for p in parts if p > j) for j in range(parts[0] if parts else 0)]
    rows = []
    for i, p in enumerate(parts):
        row = []
        for j in range(p):
            lo = row[-1] if row else 1
            if i > 0:
                lo = max(lo, rows[i - 1][j] + 1)
            hi = N - (heights[j] - 1 - i)
            row.append(rng.randint(lo, hi))
        rows.append(row)
    return rows


def _family_text(rows, N, offset):
    """Path texts of a straight-shape tableau: path i starts at (offset - i, 1)."""
    texts = []
    for i, row in enumerate(rows, start=1):
        steps = "".join("E" * row.count(k) + ("N" if k < N else "") for k in range(1, N + 1))
        texts.append("(%d,1):%s" % (offset - i, steps))
    return texts


def _sort_sign(seq):
    """Sign of the permutation sorting seq into strictly decreasing order; 0 on a repeat."""
    sign = 1
    for a, b in itertools.combinations(seq, 2):
        if a == b:
            return 0
        if a < b:
            sign = -sign
    return sign


def schur_exchange_signfree(lam, sigma, r_list, n):
    """True when every in-place exchange of the Schur-mode Pluecker check keeps its sign.

    The Schur-mode verifier re-sorts exchanged endpoint coordinates into
    partitions and drops the sign of that sort, and raises on a repeated
    coordinate; its report is exact only on instances where every term's
    two sorting signs multiply to +1.
    """
    lam = tuple(lam) + (0,) * (n - len(lam))
    sigma = tuple(sigma) + (0,) * (n - len(sigma))
    top = [lam[p] - p - 1 for p in range(n)]
    bottom = [sigma[q] - q - 1 for q in range(n)]
    for subset in itertools.combinations(range(n), len(r_list)):
        first, second = list(top), list(bottom)
        for r, s in zip(r_list, subset):
            first[r - 1] = bottom[s]
            second[s] = top[r - 1]
        if _sort_sign(first) * _sort_sign(second) != 1:
            return False
    return True


def schur_exchanges(rng, n, draws):
    """Seeded sign-free Schur-mode exchanges on n rows, parts up to 4, by rejection."""
    shapes = decreasing_tuples(n, 4)
    found = []
    while len(found) < draws:
        lam, sigma = rng.choice(shapes), rng.choice(shapes)
        r_list = tuple(sorted(rng.sample(range(1, n + 1), rng.randint(1, n))))
        if schur_exchange_signfree(lam, sigma, r_list, n):
            found.append((lam, sigma, r_list))
    return found


# ---------------------------------------------------------------- jt_oracle

# (parts, N, shape sizes, largest part, draws).  A determinant of d parts
# costs d! * d products of h-polynomials whose size grows with N and the
# part sizes.  The light strata vary freely.  The middle (5 parts, N=2)
# strata are cells of one shape size each, whose shapes cost within a few
# percent of each other; the cells form a ramp of costs, so the median check
# falls on the middle ramp, steady across seeds.  The heaviest cell (5 parts
# of 7 at N=3, parts up to 3: two shapes within 3% of each other) holds more
# than a tenth of the checks, so the tail percentile (p90) falls inside it
# and not on the edge between two cells.
JT_STRATA = (
    (1, 5, (3, 6), 6, 2),
    (2, 3, (4, 7), 5, 3),
    (2, 4, (4, 6), 5, 2),
    (3, 3, (5, 7), 4, 1),
) + tuple((5, 2, (size, size), 3, 2) for size in range(5, 13)) + (
    (4, 4, (6, 6), 3, 2),
    (4, 4, (7, 7), 3, 2),
    (5, 3, (7, 7), 3, 6),
)
DODGSON_SIZES = (1, 2, 3, 4)
FORMAL_PLUECKER_SIZES = (2, 3, 4)


def partitions_of(d, size, cap):
    """Partitions of size with exactly d positive parts, none above cap."""
    return [p for p in decreasing_tuples(d, cap, 1) if sum(p) == size]


def _jt_check(parts, N):
    def run(check, ctx):
        shape = Partition(parts)
        det = schur_poly(shape, N, method="jacobi_trudi")
        tab = schur_poly(shape, N)
        expect(det == tab, "Jacobi-Trudi and tableau sums differ for %r at N=%d" % (parts, N))

    return Check("jt", {"lambda": list(parts), "N": N}, run)


def _report_check(kind, params, call):
    def run(check, ctx):
        rep = call()
        expect(rep.equal, "%s not verified: %s" % (check.label, rep.witness))

    return Check(kind, params, run)


def jt_oracle(rng):
    checks = []
    for d, N, (lo, hi), cap, draws in JT_STRATA:
        pool = [p for size in range(lo, hi + 1) for p in partitions_of(d, size, cap)]
        checks += [_jt_check(p, N) for p in _draw(rng, pool, draws, ("jt", d, N))]
    for r in DODGSON_SIZES:
        checks.append(_report_check("dodgson", {"r": r}, lambda r=r: verify_dodgson(r)))
    for n in FORMAL_PLUECKER_SIZES:
        # One exchanged row: at n=4 the check gets cheaper the more rows are
        # exchanged, from above the median check to below it, so drawing the
        # row count would move the median by a rank from seed to seed.
        r_list = (rng.randint(1, n),)
        checks.append(
            _report_check(
                "pluecker_formal",
                {"n": n, "r_list": list(r_list)},
                lambda n=n, r_list=r_list: verify_pluecker(n, r_list),
            )
        )
    return checks


# ---------------------------------------------------------------- window_sweep

# (N, part-list length, work range, draws) for verify_general over parts
# 0..6.  Cold, its cost is close to linear in general_work: the term pairs
# of the three products it expands plus the cells of the tableaux behind its
# factors.  The median check falls inside the N=3 band and the tail check
# inside the N=4 band, and both bands hold enough draws that their order
# statistics are steady across seeds; the N=4 band is narrow because the
# tail is its top few checks.  The Kleber pool (parts up to 3) and
# the Ciucu pool (index sums up to 7) are cut to instances that, cold, cost
# less than the cheapest check of the N=3 band, as every Schur-mode
# Pluecker instance with parts up to 4 does; so which of them a seed draws
# cannot move the median check up or down the band.
GENERAL_STRATA = (
    (3, 2, (1, 300), 1),
    (3, 3, (1, 300), 1),
    (3, 3, (2000, 3000), 7),
    (3, 4, (2000, 3000), 12),
    (3, 5, (2000, 3000), 7),
    (4, 3, (23000, 27000), 2),
    (4, 4, (23000, 27000), 8),
    (4, 5, (23000, 27000), 10),
)
KLEBER_DRAWS = 3
CIUCU_DRAWS = ((1, 3, 2),)  # (k, N, draws) over index sets inside 1..7 with sum <= 7
SCHUR_PLUECKER_DRAWS = ((2, 2), (3, 1))  # (n, draws) at N=3, parts up to 4


def window_sweep(rng):
    checks = []
    for N, length, (lo, hi), draws in GENERAL_STRATA:
        pool = [p for p in decreasing_tuples(length, 6) if p[0] > 0 and lo <= general_work(p, N) <= hi]
        for parts in _draw(rng, pool, draws, ("general", N, length, lo)):
            checks.append(
                _report_check(
                    "general",
                    {"lambda": list(parts), "N": N},
                    lambda parts=parts, N=N: verify_general(parts, N),
                )
            )
    kleber_pool = [
        (lam, k)
        for d in (1, 2, 3, 4)
        for lam in decreasing_tuples(d, 3, 1)
        for k in range(1, len(set(lam)) + 1)
    ]
    for lam, k in _draw(rng, kleber_pool, KLEBER_DRAWS, "kleber"):
        checks.append(
            _report_check(
                "kleber",
                {"lambda": list(lam), "k": k, "N": 3},
                lambda lam=lam, k=k: verify_kleber(lam, k, 3),
            )
        )
    for k, N, draws in CIUCU_DRAWS:
        pool = [T for T in itertools.combinations(range(1, 8), 2 * k) if sum(T) <= 7]
        for T in _draw(rng, pool, draws, ("ciucu", k)):
            checks.append(
                _report_check(
                    "ciucu",
                    {"T": list(T), "k": k, "N": N},
                    lambda T=T, k=k, N=N: verify_ciucu(T, k, N),
                )
            )
    for n, draws in SCHUR_PLUECKER_DRAWS:
        for lam, sigma, r_list in schur_exchanges(rng, n, draws):
            checks.append(
                _report_check(
                    "pluecker_schur",
                    {"n": n, "lambda": list(lam), "sigma": list(sigma), "r_list": list(r_list), "N": 3},
                    lambda n=n, lam=lam, sigma=sigma, r_list=r_list: verify_pluecker(
                        n, r_list, mode="schur", lam=lam, sigma=sigma, N=3
                    ),
                )
            )
    return checks


# ---------------------------------------------------------------- trail_replay

# (length, N, object-count range, draws).  Audit and orbit time is close to
# linear in the exact object count s_lead(1^N) * s_trail(1^N), so strata are
# bands of that count.  The trail-law checks enumerate the layouts of their
# part list, so they draw from a narrow band of it, and otherwise cost in
# proportion to the number of graphs they test; their strata (with that
# number) form the ramp the median falls on.  The upper
# audit and orbit bands form the ramp the tail falls on.
AUDIT_STRATA = (
    (3, 3, (10, 30), 3),
    (3, 3, (300, 360), 2),
    (3, 3, (360, 420), 2),
    (3, 3, (420, 500), 2),
    (3, 4, (380, 460), 1),
)
ORBIT_STRATA = (
    (2, 2, (6, 30), 3),
    (3, 3, (200, 260), 2),
)
LAW_STRATA = tuple((3, 3, (90, 105), graphs, 5) for graphs in (3, 4, 5, 6))
CATALAN_POINTS = (8, 10, 12)


def _window_pool(length, N, lo, hi):
    return [
        p
        for p in decreasing_tuples(length, 6)
        if p[0] > 0 and lo <= window_objects(p, N) <= hi
    ]


def _layouts(parts, N, offset):
    return list(enumerate_families(TerminalSpec.from_shape(SkewShape(Partition(parts)), N, offset)))


def _audit_check(parts, N):
    r = len(parts) - 1

    def run(check, ctx):
        rep = bijection_audit(parts, N)
        expect(rep.objects == window_objects(parts, N), "audit %r N=%d: %d objects" % (parts, N, rep.objects))
        case_a = ssyt_count(parts[1:r], N) * ssyt_count(parts, N)
        lowered = tuple(p - 1 for p in parts[1:])
        case_b = 0 if min(lowered) < 0 else ssyt_count(lowered, N) * ssyt_count(tuple(p + 1 for p in parts[:r]), N)
        expect((rep.case_a, rep.case_b) == (case_a, case_b), "audit %r N=%d: case split" % (parts, N))

    return Check("audit", {"lambda": list(parts), "N": N}, run)


def _orbit_check(parts, N):
    r = len(parts) - 1
    lead, trail = parts[:r], parts[1:]

    def prepare():
        return schur_poly(Partition(lead), N) * schur_poly(Partition(trail), N)

    def run(check, ctx):
        res = explore_orbit(lead, trail, t=-1, selected=(1,), N=N)
        expect(res.O0_size == res.O1_size == window_objects(parts, N), "orbit %r N=%d: sizes" % (parts, N))
        expect(res.weight0 == check.oracle, "orbit %r N=%d: weight0 is not the Schur product" % (parts, N))

    return Check("orbit", {"lambda": list(lead), "sigma": list(trail), "N": N}, run, prepare)


def _trail_laws(graph):
    terminal_matching(graph)  # raises unless the matching is noncrossing with odd-even chords
    trails = all_trails(graph)
    covered = sorted(inst for t in trails for inst in t.edge_instances())
    expect(covered == sorted(graph.instances()), "trails do not partition the edge instances")
    for t in trails:
        edge, colour = min(t.edge_instances())
        for orientation in (FORWARD, BACKWARD):
            again = trace_trail(graph, (edge, colour, orientation))
            expect(again.edge_instances() == t.edge_instances(), "trail depends on its seed")
    for q in terminal_points(graph):
        flipped = recolour(graph, [trail_at_terminal(graph, q.location)])
        back = recolour(flipped, [trail_at_terminal(flipped, q.location)])
        expect(back == graph, "recolouring at %r is not an involution" % (q.location,))


def _laws_check(parts, N, picks):
    r = len(parts) - 1

    def run(check, ctx):
        greens = _layouts(parts[:r], N, 0)
        blues = _layouts(parts[1:], N, -1)
        expect(len(greens) * len(blues) == window_objects(parts, N), "layouts of %r N=%d" % (parts, N))
        for i, j in picks:
            _trail_laws(build_graph(blues[j], greens[i]))

    return Check("trail_laws", {"lambda": list(parts), "N": N, "picks": [list(p) for p in picks]}, run)


def _catalan_check(points):
    def run(check, ctx):
        got = count_noncrossing_matchings(points)
        expect(got == catalan(points // 2), "%d points: %d matchings" % (points, got))

    return Check("catalan", {"points": points}, run)


def trail_replay(rng):
    checks = []
    for length, N, (lo, hi), draws in AUDIT_STRATA:
        pool = _window_pool(length, N, lo, hi)
        checks += [_audit_check(p, N) for p in _draw(rng, pool, draws, ("audit", length, N))]
    for length, N, (lo, hi), draws in ORBIT_STRATA:
        pool = _window_pool(length, N, lo, hi)
        checks += [_orbit_check(p, N) for p in _draw(rng, pool, draws, ("orbit", length, N))]
    for length, N, (lo, hi), graphs, draws in LAW_STRATA:
        pool = _window_pool(length, N, lo, hi)
        for parts in _draw(rng, pool, draws, ("laws", length, N)):
            r = len(parts) - 1
            n_green, n_blue = ssyt_count(parts[:r], N), ssyt_count(parts[1:], N)
            picks = tuple((rng.randrange(n_green), rng.randrange(n_blue)) for _ in range(graphs))
            checks.append(_laws_check(parts, N, picks))
    checks += [_catalan_check(p) for p in CATALAN_POINTS]
    return checks


# ---------------------------------------------------------------- cli_sweep

def _json_of(payload):
    payload = dict(payload)
    payload.pop("elapsed_ms", None)
    return json.loads(json.dumps(payload, sort_keys=True))


def _cli_json_check(kind, argv, build):
    """A CLI call whose JSON output must equal the in-process report."""

    def run(check, ctx):
        out = ctx.cli(argv)
        expect(json.loads(out) == check.oracle, "%s: CLI JSON differs from the in-process report" % kind)

    return Check(kind, {"argv": argv}, run, lambda: _json_of(build().to_json()))


def _csv(parts):
    return ",".join(str(p) for p in parts)


def _sweep_check(kind, lists, N):
    argv = ["verify", "general", "--sweep", ";".join(_csv(p) for p in lists), "--vars", str(N)]

    def prepare():
        return [_json_of(verify_general(p, N).to_json()) for p in lists]

    def run(check, ctx):
        lines = ctx.cli(argv).splitlines()
        expect([json.loads(line) for line in lines] == check.oracle, "%s: sweep output differs" % kind)

    return Check(kind, {"argv": argv}, run, prepare)


def _render_check(rng, parts, N):
    r = len(parts) - 1
    doc = {
        "blue": _family_text(_random_ssyt(rng, parts[1:], N), N, -1),
        "green": _family_text(_random_ssyt(rng, parts[:r], N), N, 0),
    }
    stdin = json.dumps(doc, sort_keys=True)
    probe = (parts[0] - 1, N)
    argv = ["render", "--trail", _csv(probe), "--vars", str(N)]

    def prepare():
        graph = TwoColouredGraph.from_json(doc)
        return render_svg(graph, (trail_at_terminal(graph, probe),), N)

    def run(check, ctx):
        expect(ctx.cli(argv, stdin) == check.oracle, "render: SVG differs from the in-process picture")

    return Check("cli_render", {"argv": argv, "graph": doc}, run, prepare)


# (length, N, general_work range, entries, sweeps) of the general sweeps,
# over parts up to 5.  The bands are narrow so that a sweep's total work is
# steady across seeds.  The heavy sweeps are more than a fifth of the
# workload's checks, so the tail percentile (p80 at eleven or more checks a
# batch) falls among them and not on the edge between two kinds of call.
SWEEP_LIGHT = (3, 3, (600, 1300), 8, 1)
SWEEP_HEAVY = (3, 4, (6000, 10000), 4, 4)


def cli_sweep(rng):
    checks = []
    for kind, (length, N, (lo, hi), entries, sweeps) in (("cli_sweep_n3", SWEEP_LIGHT), ("cli_sweep_n4", SWEEP_HEAVY)):
        pool = [p for p in decreasing_tuples(length, 5) if p[0] > 0 and lo <= general_work(p, N) <= hi]
        for _ in range(sweeps):
            checks.append(_sweep_check(kind, _draw(rng, pool, entries, kind), N))
    c, r = rng.randint(1, 3), rng.randint(1, 2)
    checks.append(
        _cli_json_check(
            "cli_kirillov",
            ["verify", "kirillov", "--lambda", _csv((c,) * (r + 1)), "--vars", "3", "--format", "json"],
            lambda c=c, r=r: verify_kirillov(c, r, 3),
        )
    )
    k = rng.randint(2, 4)
    checks.append(
        _cli_json_check(
            "cli_dodgson", ["verify", "dodgson", "--k", str(k), "--format", "json"], lambda k=k: verify_dodgson(k)
        )
    )
    n = 3
    r_list = tuple(sorted(rng.sample(range(1, n + 1), rng.randint(1, n))))
    checks.append(
        _cli_json_check(
            "cli_pluecker_formal",
            ["verify", "pluecker", "--k", str(n), "--rlist", _csv(r_list), "--format", "json"],
            lambda n=n, r_list=r_list: verify_pluecker(n, r_list),
        )
    )
    [(lam, sigma, rl)] = schur_exchanges(rng, 2, 1)
    checks.append(
        _cli_json_check(
            "cli_pluecker_schur",
            ["verify", "pluecker", "--mode", "schur", "--k", "2", "--lambda", _csv(lam), "--sigma", _csv(sigma),
             "--rlist", _csv(rl), "--vars", "3", "--format", "json"],
            lambda lam=lam, sigma=sigma, rl=rl: verify_pluecker(2, rl, mode="schur", lam=lam, sigma=sigma, N=3),
        )
    )
    T = tuple(sorted(rng.sample(range(1, 7), 4)))
    checks.append(
        _cli_json_check(
            "cli_ciucu",
            ["verify", "ciucu", "--set", _csv(T), "--k", "2", "--vars", "3", "--format", "json"],
            lambda T=T: verify_ciucu(T, 2, 3),
        )
    )
    shape = rng.choice(decreasing_tuples(3, 3, 1))
    corner = rng.randint(1, len(set(shape)))
    checks.append(
        _cli_json_check(
            "cli_kleber",
            ["verify", "kleber", "--lambda", _csv(shape), "--k", str(corner), "--vars", "3", "--format", "json"],
            lambda: verify_kleber(shape, corner, 3),
        )
    )
    parts = rng.choice(_window_pool(3, 3, 90, 105))
    lead, trail = parts[:2], parts[1:]
    checks.append(
        _cli_json_check(
            "cli_orbit",
            ["orbit", "--lambda", _csv(lead), "--sigma", _csv(trail), "--offset", "-1", "--rlist", "1",
             "--vars", "3", "--format", "json"],
            lambda: explore_orbit(lead, trail, t=-1, selected=(1,), N=3),
        )
    )
    points = rng.choice((8, 10))

    def catalan_run(check, ctx):
        got = json.loads(ctx.cli(["catalan", "--points", str(points), "--format", "json"]))
        expect(got == {"matchings": catalan(points // 2), "points": points}, "catalan %d: %r" % (points, got))

    checks.append(Check("cli_catalan", {"points": points}, catalan_run))
    checks.append(_render_check(rng, rng.choice(_window_pool(3, 3, 40, 200)), 3))
    return checks


GENERATORS = {
    "jt_oracle": jt_oracle,
    "window_sweep": window_sweep,
    "trail_replay": trail_replay,
    "cli_sweep": cli_sweep,
}
WORKLOADS = tuple(GENERATORS)


def make_checks(workload, seed):
    """The workload's checks for this seed, in the order one batch runs them."""
    rng = random.Random("%s:%d" % (workload, seed))
    checks = GENERATORS[workload](rng)
    rng.shuffle(checks)
    return checks
