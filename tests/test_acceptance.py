"""Acceptance gate: ten checks, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v` (add -s to watch the
criterion lines stream).  Every comparison is exact; each criterion
also asserts its wall-clock budget.
"""

import functools
import itertools
import time

import pytest

from schurtrails.identities import (
    verify_ciucu,
    verify_dodgson,
    verify_general,
    verify_kirillov,
    verify_kleber,
    verify_pluecker,
)
from schurtrails.partitions import Partition, SkewShape
from schurtrails.replay import bijection_audit
from schurtrails.schur import (
    TerminalSpec,
    enumerate_families,
    enumerate_ssyt,
    path_weight,
    paths_to_tableau,
    schur_poly,
    tableau_to_paths,
    tableau_weight,
)
from schurtrails.trails import (
    BACKWARD,
    FORWARD,
    all_trails,
    build_graph,
    count_noncrossing_matchings,
    recolour,
    terminal_matching,
    terminal_points,
    trace_trail,
    trail_at_terminal,
)


def criterion(number, budget_s):
    """Print `criterion N: PASS/FAIL ...` and enforce the time budget."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper():
            started = time.monotonic()
            try:
                detail = fn()
            except BaseException as exc:
                print("criterion %d: FAIL (%s)" % (number, exc))
                raise
            elapsed = time.monotonic() - started
            if elapsed >= budget_s:
                print("criterion %d: FAIL (%.1fs over the %ds budget)" % (number, elapsed, budget_s))
                raise AssertionError("criterion %d exceeded %ds" % (number, budget_s))
            print("criterion %d: PASS (%s; %.2fs < %ds)" % (number, detail, elapsed, budget_s))

        return wrapper

    return deco


def partitions_up_to(total):
    """Every canonical partition of 0..total, no trailing zeros."""
    found = [()]

    def grow(prefix, remaining, cap):
        for v in range(min(cap, remaining), 0, -1):
            found.append(prefix + (v,))
            grow(prefix + (v,), remaining - v, v)

    grow((), total, total)
    return found


def subdiagrams(lam):
    """Weakly decreasing inner shapes fitting inside lam, each once."""
    if not lam:
        return [()]
    found = []

    def grow(i, prefix, cap):
        if i == len(lam):
            found.append(prefix)
            return
        for v in range(min(cap, lam[i]), -1, -1):
            grow(i + 1, prefix + (v,), v)

    grow(0, (), lam[0])
    return found


def window_tuples():
    """Weakly decreasing tuples of length 2..4 over {0..4}: 120 of them."""
    out = []
    for length in (2, 3, 4):
        out.extend(itertools.combinations_with_replacement(range(4, -1, -1), length))
    return out


def layouts(parts, N, offset):
    if any(p < 0 for p in parts):
        return []
    spec = TerminalSpec.from_shape(SkewShape(Partition(parts)), N, offset)
    return list(enumerate_families(spec))


# ---------------------------------------------------------------- criteria

@criterion(1, 10)
def test_criterion_01_dual_schur_oracles():
    shapes = partitions_up_to(6)
    assert len(shapes) == 30
    checked = 0
    for parts in shapes:
        for N in (2, 3, 4):
            tab = schur_poly(Partition(parts), N)
            det = schur_poly(Partition(parts), N, method="jacobi_trudi")
            assert tab == det, (parts, N)
            checked += 1
    return "%d shape/alphabet pairs agree across both computations" % checked


@criterion(2, 10)
def test_criterion_02_path_tableau_roundtrip():
    tableaux = 0
    boards = 0
    for outer in partitions_up_to(6):
        for inner in subdiagrams(outer):
            shape = SkewShape(Partition(outer), Partition(inner))
            boards += 1
            for N in (1, 2, 3, 4):
                for t in enumerate_ssyt(shape, N):
                    fam = tableau_to_paths(t, offset=0)
                    assert paths_to_tableau(fam, offset=0, N=N) == t
                    assert path_weight(fam) == tableau_weight(t)
                    tableaux += 1
    return "%d tableaux over %d skew boards roundtrip with weights" % (tableaux, boards)


@criterion(3, 60)
def test_criterion_03_window_exchange_sweep():
    tuples = window_tuples()
    assert len(tuples) == 120
    for parts in tuples:
        rep = verify_general(parts, 3)
        assert rep.equal, parts
    assert verify_general((5, 4, 3, 2), 3).equal
    return "window exchange verified for 121 part lists at N=3"


@criterion(4, 60)
def test_criterion_04_bijection_audit():
    rep = bijection_audit((2, 1), N=2)
    assert rep.objects == 6
    assert rep.case_a == 2
    assert rep.case_b == 4
    tall = bijection_audit((5, 4, 3, 2), N=2)
    assert tall.objects == tall.case_a + tall.case_b
    return "audit (2,1) N=2: 6 objects = 2 A + 4 B; (5,4,3,2) N=2: %d objects" % tall.objects


@criterion(5, 5)
def test_criterion_05_condensation():
    for r in (1, 2, 3):
        assert verify_dodgson(r).equal, r
    return "condensation holds formally for windows 1..3"


@criterion(6, 60)
def test_criterion_06_minor_exchange():
    for r_list in ((), (1,), (2,), (1, 2)):
        assert verify_pluecker(2, r_list).equal, r_list
    for r_list in ((1,), (2,), (3,)):
        assert verify_pluecker(3, r_list).equal, r_list
    rep = verify_pluecker(2, (1,), mode="schur", lam=(4, 2), sigma=(3, 1), N=3)
    assert rep.equal
    return "formal exchanges at sizes 2 and 3, and the Schur instance, all hold"


@criterion(7, 30)
def test_criterion_07_balanced_splits():
    assert verify_ciucu((1, 2), 1, N=3).equal
    assert verify_ciucu((1, 3), 1, N=3).equal
    for pair in itertools.combinations((1, 2, 3, 4), 2):
        assert verify_ciucu(pair, 1, N=3).equal, pair
    assert verify_ciucu((1, 2, 3, 4), 2, N=3).equal
    with pytest.raises(ValueError):
        verify_ciucu((1, 2, 3, 4), 1, N=3)
    return "all k=1 pairs and the k=2 split hold; the malformed k=1 call raises"


@criterion(8, 60)
def test_criterion_08_square_expansion():
    assert verify_kleber((2, 1), 1, N=3).equal
    assert verify_kleber((2, 1), 2, N=3).equal
    rect = verify_kleber((2, 2), 1, N=3)
    assert rect.equal
    kir = verify_kirillov(2, 2, N=3)
    assert rect.lhs == kir.lhs and rect.rhs == kir.rhs
    # term-by-term: same unordered product pairs, all with sign +1
    pairs = {frozenset((tuple(a), tuple(b))) for sign, a, b in rect.params["products"]}
    assert all(sign == 1 for sign, _, _ in rect.params["products"])
    assert pairs == {
        frozenset(((3, 3), (1, 1))),
        frozenset(((2, 2, 2), (2,))),
    }
    return "corner expansions hold; the rectangle case is the two-term product rule"


@criterion(9, 1)
def test_criterion_09_matching_counts():
    # the count is the Catalan closed form; tests/test_trails.py checks it against
    # an enumeration whose every chord joins an odd to an even index
    got = [count_noncrossing_matchings(points) for points in (2, 4, 6, 8)]
    assert got == [1, 2, 5, 14]
    return "noncrossing matchings count 1, 2, 5, 14, the Catalan numbers"


def _trail_laws(graph):
    terminal_matching(graph)  # validates noncrossing + colour/parity per chord
    trails = all_trails(graph)
    instances = sorted(graph.instances())
    covered = sorted(inst for t in trails for inst in t.edge_instances())
    assert covered == instances  # the trails partition the edge instances
    for t in trails:
        edge, colour = min(t.edge_instances())
        for orientation in (FORWARD, BACKWARD):
            assert trace_trail(graph, (edge, colour, orientation)).edge_instances() == t.edge_instances()
    for q in terminal_points(graph):
        first = trail_at_terminal(graph, q.location)
        flipped = recolour(graph, [first])
        second = trail_at_terminal(flipped, q.location)
        assert recolour(flipped, [second]) == graph


@criterion(10, 60)
def test_criterion_10_trail_property_fuzz():
    cases = [(parts, 3) for parts in window_tuples()]
    cases += [((5, 4, 3, 2), 3), ((2, 1), 2), ((5, 4, 3, 2), 2)]
    graphs = 0
    for parts, N in cases:
        r = len(parts) - 1
        greens = layouts(parts[:r], N, 0)
        blues = layouts(parts[1:], N, -1)
        for gf in greens:
            for bf in blues:
                _trail_laws(build_graph(bf, gf))
                graphs += 1
    return "%d superposed graphs satisfy matching, uniqueness and involution laws" % graphs
