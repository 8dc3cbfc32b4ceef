import itertools
import sys
import time
from collections import Counter

from hypothesis import example, given, settings
from hypothesis import strategies as st

import pytest

from schurtrails.partitions import Partition, SkewShape
from schurtrails.polyring import Polynomial, complete_homogeneous, monomial, x_var
from schurtrails.schur import (
    LatticePath,
    PathFamily,
    Tableau,
    TerminalSpec,
    enumerate_families,
    enumerate_ssyt,
    jacobi_trudi_matrix,
    path_weight,
    paths_to_tableau,
    schur_poly,
    ssyt_count,
    tableau_to_paths,
    tableau_weight,
)


def mono(*pairs):
    return monomial({x_var(k): e for k, e in pairs})


def family_generating_function(families):
    """Sum of path weights as a polynomial."""
    return Polynomial(Counter(path_weight(f) for f in families))


partitions_st = st.lists(st.integers(min_value=1, max_value=4), max_size=3).map(
    lambda ps: Partition(sorted(ps, reverse=True))
)


@st.composite
def skew_shapes_st(draw):
    outer = draw(partitions_st)
    inner = []
    for part in outer:
        inner.append(draw(st.integers(min_value=0, max_value=min([part] + inner[-1:]))))
    return SkewShape(outer, Partition(inner))


# ---------------------------------------------------------------- tableaux

def test_ssyt_counts_known():
    assert len(list(enumerate_ssyt(Partition((2, 1)), 2))) == 2
    assert len(list(enumerate_ssyt(Partition((2, 1)), 3))) == 8
    assert len(list(enumerate_ssyt(Partition((1, 1, 1)), 3))) == 1
    assert len(list(enumerate_ssyt(Partition((1, 1, 1)), 4))) == 4
    assert len(list(enumerate_ssyt(Partition((2, 2)), 3))) == 6
    # empty shape: exactly the empty filling
    assert len(list(enumerate_ssyt(Partition(()), 3))) == 1


@pytest.mark.parametrize("parts", [(3, 2, 1), (2, 2), (4, 1, 0), (5, 4, 3, 2), (2, 1, 1, 1, 1), (2, -1), (1, 0, -1)])
@pytest.mark.parametrize("N", [2, 3, 4])
def test_ssyt_count_is_the_coefficient_sum(parts, N):
    from schurtrails.identities import schur_of

    assert ssyt_count(parts, N) == sum(schur_of(parts, N).coeffs.values())


def test_ssyt_rejects_bad_fillings():
    shape = SkewShape(Partition((2, 1)))
    with pytest.raises(ValueError):
        Tableau(shape, [(2, 1), (2,)], 3)  # row decreases
    with pytest.raises(ValueError):
        Tableau(shape, [(1, 1), (1,)], 3)  # column not strict
    with pytest.raises(ValueError):
        Tableau(shape, [(1, 4), (2,)], 3)  # entry out of range
    with pytest.raises(ValueError):
        Tableau(shape, [(1, 1)], 3)  # wrong row count


def fig_skew_tableau():
    return Tableau(SkewShape(Partition((4, 3, 2)), Partition((1,))), [(3, 5, 6), (3, 4, 6), (4, 5)], 6)


def test_weight_fig_straight():
    t = Tableau(SkewShape(Partition((4, 3, 2))), [(2, 3, 5, 6), (3, 4, 6), (4, 5)], 6)
    assert tableau_weight(t) == mono((2, 1), (3, 2), (4, 2), (5, 2), (6, 2))


def test_weight_fig_skew():
    t = fig_skew_tableau()
    assert tableau_weight(t) == mono((3, 2), (4, 2), (5, 2), (6, 2))


# ---------------------------------------------------------------- schur polynomials

def test_schur_small_explicit():
    x1, x2 = Polynomial.variable(x_var(1)), Polynomial.variable(x_var(2))
    assert schur_poly(Partition((2, 1)), 2) == x1 * x1 * x2 + x1 * x2 * x2
    assert schur_poly(Partition(()), 3) == Polynomial.const(1)
    # single row is a complete homogeneous piece
    assert schur_poly(Partition((3,)), 3) == complete_homogeneous(3, 3)
    # single column is elementary: one squarefree monomial per variable choice
    e2 = schur_poly(Partition((1, 1)), 3)
    assert e2.n_terms() == 3
    assert all(c == 1 for _, c in e2.terms())


def test_jacobi_trudi_matches_tableaux():
    for parts in [(), (1,), (2,), (2, 1), (3, 1), (2, 2), (3, 2, 1), (2, 2, 1)]:
        for n in (2, 3):
            p = Partition(parts)
            assert schur_poly(p, n, method="jacobi_trudi") == schur_poly(p, n), parts


def test_jacobi_trudi_matrix_reads_its_inner_shape_once():
    # zeros pad inner up to outer's rows, and zero parts past them are left out
    expected = jacobi_trudi_matrix((3, 2, 1), (1, 1, 0))
    assert jacobi_trudi_matrix((3, 2, 1), iter((1, 1))) == jacobi_trudi_matrix((3, 2, 1), (1, 1)) == expected
    assert jacobi_trudi_matrix((3, 2), iter((1, 1, 0, 0))) == jacobi_trudi_matrix((3, 2), (1, 1))


@pytest.mark.parametrize("N", [None, 2])
def test_jacobi_trudi_matrix_refuses_an_inner_part_past_the_outer_rows(N):
    # a cell of inner below outer's last row is not left out: no skew shape has it, as SkewShape says
    with pytest.raises(ValueError, match=r"^inner shape sticks out of outer: "):
        SkewShape((1,), (1, 1))
    with pytest.raises(ValueError, match=r"^inner shape sticks out of outer: Partition\(\(1,\)\) / \(0, 1\)$"):
        jacobi_trudi_matrix((1,), (0, 1), N=N)
    with pytest.raises(ValueError, match=r"^inner shape sticks out of outer: "):
        jacobi_trudi_matrix((2, 1), iter((1, 1, 1)), N=N)


def test_jacobi_trudi_rejects_skew():
    with pytest.raises(ValueError):
        schur_poly(Partition((2, 1)), 2, method="no-such-method")


def test_skew_jacobi_trudi_matches_tableaux():
    cases = [
        (Partition((2, 1)), Partition((1,))),
        (Partition((3, 2, 1)), Partition((1, 1))),
        (Partition((4, 3, 2)), Partition((1,))),
        (Partition((2, 2)), Partition((2, 1))),
    ]
    for outer, inner in cases:
        shape = SkewShape(outer, inner)
        for n in (2, 3):
            assert schur_poly(shape, n, method="jacobi_trudi") == schur_poly(shape, n), (outer, inner)


def test_schur_vanishes_below_length():
    # more rows than variables: no column-strict filling exists
    assert schur_poly(Partition((1, 1, 1)), 2) == Polynomial.zero()


@st.composite
def wide_skew_shapes_st(draw):
    """Skew shapes of up to 4 rows with parts <= 5; zero parts and empty rows allowed."""
    outer = sorted(draw(st.lists(st.integers(0, 5), max_size=4)), reverse=True)
    inner = []
    for part in outer:
        inner.append(draw(st.integers(0, min([part] + inner[-1:]))))
    return SkewShape(Partition(outer), Partition(inner))


@given(wide_skew_shapes_st(), st.integers(min_value=1, max_value=5))
@example(SkewShape(Partition((2, 1))), 3)
@example(SkewShape(Partition((3, 3, 2, 1)), Partition((2, 1))), 3)  # columns of N cells
@settings(max_examples=80, deadline=None)
def test_ssyt_lex_order_and_distinct(shape, n):
    tableaux = list(enumerate_ssyt(shape, n))
    words = [t.reading_word() for t in tableaux]
    assert all(a < b for a, b in zip(words, words[1:]))
    assert len(words) == sum(schur_poly(shape, n).coeffs.values())
    # built unchecked, each is the tableau the checking constructor makes of its fields
    for t in tableaux:
        rebuilt = Tableau(t.shape, t.rows, t.N)
        assert t == rebuilt and repr(t) == repr(rebuilt)
        assert type(t.rows) is tuple and all(type(row) is tuple for row in t.rows)
        assert all(type(v) is int for v in t.reading_word()) and type(t.N) is int


def test_ssyt_lists_a_row_longer_than_the_recursion_limit():
    (only,) = enumerate_ssyt(Partition((1500,)), 1)
    assert only.rows == ((1,) * 1500,)


def test_ssyt_meets_no_dead_end_in_a_column_of_n_cells():
    # the column of 22 cells has one filling; an uncapped cell would try
    # every entry past 22 - (cells below) before backing up
    start = time.perf_counter()
    (only,) = enumerate_ssyt(Partition((1,) * 22), 22)
    assert time.perf_counter() - start < 1.0
    assert only.reading_word() == tuple(range(1, 23))


@given(wide_skew_shapes_st(), st.integers(min_value=1, max_value=5))
@example(SkewShape(Partition(())), 1)
@example(SkewShape(Partition((3, 2, 2, 0)), Partition((3, 1, 0, 0))), 2)
@example(SkewShape(Partition((2, 2, 1, 1)), Partition((1,))), 2)
@example(SkewShape(Partition((5, 5, 5, 5)), Partition((5, 5, 5, 5))), 1)
@example(SkewShape(Partition((4, 3, 1, 1)), Partition((2, 1, 1))), 3)
@example(SkewShape(Partition((2, 1))), 4)  # one letter more than cells, then three more
@example(SkewShape(Partition((2, 1))), 6)
@example(SkewShape(Partition((3, 2, 1)), Partition((1, 1))), 5)
@example(SkewShape(Partition((3, 2, 1)), Partition((1, 1))), 7)
@settings(max_examples=80, deadline=None)
def test_strip_sum_matches_the_tableau_sum(shape, n):
    by_tableau = Polynomial(Counter(tableau_weight(t) for t in enumerate_ssyt(shape, n)))
    assert schur_poly(shape, n) == by_tableau


def test_tableau_route_takes_more_letters_than_cells():
    # one letter more than the interpreter's recursion limit
    n = sys.getrecursionlimit() + 1
    assert schur_poly(Partition((1,)), n) == complete_homogeneous(1, n)
    h1 = complete_homogeneous(1, 40)
    assert schur_poly(SkewShape(Partition((2, 1)), Partition((1,))), 40) == h1 * h1
    assert schur_poly(Partition((2, 1)), 40) == schur_poly(Partition((2, 1)), 40, method="jacobi_trudi")


def test_spreading_to_more_letters_is_linear_in_the_output():
    # s_(1^11) in 12 letters is e_11: 12 terms.  After letter n only the
    # columns (1^(n-1)) and (1^n) can still be finished, so the pass holds
    # n + 1 keys and must not walk the 11! orders of the exponents.
    n = 12
    e11 = Polynomial(
        (monomial({x_var(k): 1 for k in places}), 1)
        for places in itertools.combinations(range(1, n + 1), n - 1)
    )
    start = time.perf_counter()
    assert schur_poly(Partition((1,) * (n - 1)), n) == e11
    assert time.perf_counter() - start < 1.0


def test_tableau_route_rejects_an_empty_alphabet():
    # both routes refuse N < 1 alike; N = None is the formal determinant on the JT route only
    routes = [(0, "tableaux"), (-1, "tableaux"), (None, "tableaux"), (0, "jacobi_trudi"), (-1, "jacobi_trudi")]
    for n, method in routes:
        with pytest.raises(ValueError, match="alphabet bound must be >= 1"):
            schur_poly(Partition((2, 1)), n, method=method)
        with pytest.raises(ValueError, match="alphabet bound must be >= 1"):
            schur_poly(Partition(()), n, method=method)
    with pytest.raises(ValueError, match="alphabet bound must be >= 1"):
        complete_homogeneous(1, 0)


# ---------------------------------------------------------------- lattice paths

def test_path_text_roundtrip():
    p = LatticePath.from_text("(-1,1):EEEENNENN")
    assert p.start == (-1, 1)
    assert p.steps == "EEEENNENN"
    assert p.end == (4, 5)
    assert p.to_text() == "(-1,1):EEEENNENN"
    with pytest.raises(ValueError):
        LatticePath.from_text("-1,1:EN")
    with pytest.raises(ValueError):
        LatticePath((0, 0), "EX")


def test_path_geometry():
    p = LatticePath((0, 1), "ENNE")
    assert p.vertices() == ((0, 1), (1, 1), (1, 2), (1, 3), (2, 3))
    assert p.edges() == (
        ((0, 1), (1, 1)),
        ((1, 1), (1, 2)),
        ((1, 2), (1, 3)),
        ((1, 3), (2, 3)),
    )
    assert p.east_heights() == (1, 3)


def test_family_rejects_shared_vertex():
    a = LatticePath((0, 1), "NE")  # (0,1) (0,2) (1,2)
    b = LatticePath((1, 1), "EN")  # (1,1) (2,1) (2,2)
    PathFamily([a, b])  # disjoint
    c = LatticePath((1, 1), "NE")  # passes through (1,2), shared with a
    with pytest.raises(ValueError):
        PathFamily([a, c])


def test_fig_paths_straight_shape():
    t = Tableau(SkewShape(Partition((4, 3, 2))), [(2, 3, 5, 6), (3, 4, 6), (4, 5)], 6)
    fam = tableau_to_paths(t)
    assert fam.paths[0].start == (-1, 1)
    assert fam.paths[0].end == (3, 6)
    assert [p.start for p in fam] == [(-1, 1), (-2, 1), (-3, 1)]
    assert [p.end for p in fam] == [(3, 6), (1, 6), (-1, 6)]
    assert fam.paths[0].east_heights() == (2, 3, 5, 6)
    assert path_weight(fam) == tableau_weight(t)
    assert paths_to_tableau(fam) == t


def test_fig_paths_skew_shape():
    t = fig_skew_tableau()
    fam = tableau_to_paths(t)
    assert fam.paths[0].start == (0, 1)
    assert path_weight(fam) == tableau_weight(t)
    assert paths_to_tableau(fam) == t


def test_paths_to_tableau_rejects_non_tableau_families():
    # end heights disagree
    fam = PathFamily([LatticePath((0, 1), "N"), LatticePath((-2, 1), "NN")])
    with pytest.raises(ValueError):
        paths_to_tableau(fam)
    # valid geometry but start too far left for the implied inner shape
    fam = PathFamily([LatticePath((-5, 1), "NN")])
    with pytest.raises(ValueError):
        paths_to_tableau(fam)


@given(partitions_st, st.integers(min_value=1, max_value=3), st.integers(min_value=-2, max_value=2))
@settings(max_examples=60, deadline=None)
def test_path_bijection_roundtrip(p, n, offset):
    if len(p) > n:
        return
    for t in enumerate_ssyt(Partition(p), n):
        fam = tableau_to_paths(t, offset=offset)
        assert paths_to_tableau(fam, offset=offset, N=n) == t
        assert path_weight(fam) == tableau_weight(t)


# ---------------------------------------------------------------- families

def test_terminal_spec_validation():
    with pytest.raises(ValueError):
        TerminalSpec([(0, 2)], [(1, 3)], 3)  # start off y=1
    with pytest.raises(ValueError):
        TerminalSpec([(0, 1)], [(1, 2)], 3)  # end off y=N
    with pytest.raises(ValueError):
        TerminalSpec([(0, 1), (0, 1)], [(2, 3), (1, 3)], 3)  # starts not strictly decreasing
    with pytest.raises(ValueError):
        TerminalSpec([(0, 1)], [(1, 3), (0, 3)], 3)  # count mismatch


def test_enumerate_families_matches_schur():
    for parts in [(2, 1), (2, 2), (3, 1)]:
        p = Partition(parts)
        spec = TerminalSpec.from_shape(p, 3)
        fams = list(enumerate_families(spec))
        assert len(fams) == len(list(enumerate_ssyt(p, 3)))
        assert family_generating_function(fams) == schur_poly(p, 3)


def test_enumerate_families_translation_invariant():
    p = Partition((2, 1))
    base = list(enumerate_families(TerminalSpec.from_shape(p, 2)))
    shifted = list(enumerate_families(TerminalSpec.from_shape(p, 2, offset=-1)))
    assert len(base) == len(shifted) == 2
    # same step strings, starts translated one unit left
    assert {tuple((q.start[0] + 1, q.steps) for q in f) for f in shifted} == {
        tuple((q.start[0], q.steps) for q in f) for f in base
    }


def test_enumerate_families_empty_and_impossible():
    assert list(enumerate_families(TerminalSpec([], [], 3))) == [PathFamily()]
    # ends strictly left of starts: nothing to enumerate
    spec = TerminalSpec([(0, 1)], [(-2, 3)], 3)
    assert list(enumerate_families(spec)) == []
    # too many rows for the alphabet: column strictness kills everything
    spec = TerminalSpec.from_shape(Partition((1, 1, 1)), 2)
    assert list(enumerate_families(spec)) == []


def test_terminal_spec_equality():
    spec = TerminalSpec.from_shape(SkewShape(Partition((3, 1)), Partition((1,))), 2, -1)
    assert spec == TerminalSpec([(-1, 1), (-3, 1)], [(1, 2), (-2, 2)], 2)
    assert hash(spec) == hash(TerminalSpec(spec.starts, spec.ends, 2))
    assert spec != TerminalSpec([(-1, 1), (-3, 1)], [(1, 3), (-2, 3)], 3)
    assert spec != TerminalSpec([(-1, 1)], [(1, 2)], 2)
    assert TerminalSpec([], [], 2) != TerminalSpec([], [], 3)


def test_normal_form_subtracts_the_smallest_inner_part():
    shape = SkewShape(Partition((4, 3, 2)), Partition((3, 2, 1)))
    assert TerminalSpec.from_shape(shape, 3, -2).normal_form() == ((3, 2, 1), (2, 1, 0), -1)
    # the normal form lays the same terminals out again
    outer, inner, shift = TerminalSpec.from_shape(shape, 3, -2).normal_form()
    assert TerminalSpec.from_shape(SkewShape(outer, inner), 3, shift) == TerminalSpec.from_shape(shape, 3, -2)
    assert TerminalSpec([], [], 2).normal_form() == ((), (), 0)


@given(skew_shapes_st(), st.integers(min_value=1, max_value=3), st.integers(min_value=-2, max_value=2))
@settings(max_examples=60, deadline=None)
def test_families_read_back_to_their_spec(shape, n, offset):
    spec = TerminalSpec.from_shape(shape, n, offset)
    low = min(shape.inner.parts, default=0)
    assert spec.normal_form() == (
        tuple(p - low for p in shape.outer.parts),
        tuple(p - low for p in shape.inner.parts),
        offset + low if shape.n_rows else 0,  # no path, no offset to recover
    )
    for fam in enumerate_families(spec):
        back = TerminalSpec.from_family(fam, n)
        assert back == spec
        assert hash(back) == hash(spec)
        assert TerminalSpec.from_family(PathFamily(reversed(fam.paths)), n) == spec
        # built unchecked, each is the family the checking constructors make of its fields
        rebuilt = PathFamily(LatticePath(p.start, p.steps) for p in fam)
        assert fam == rebuilt and repr(fam) == repr(rebuilt)


@given(partitions_st, st.integers(min_value=2, max_value=3))
@settings(max_examples=40, deadline=None)
def test_families_are_vertex_disjoint_and_weighted(p, n):
    if len(p) > n:
        return
    spec = TerminalSpec.from_shape(Partition(p), n)
    total = Polynomial.zero()
    for fam in enumerate_families(spec):
        total = total + Polynomial({path_weight(fam): 1})
    assert total == schur_poly(Partition(p), n)
