import pytest
from hypothesis import given, strategies as st

from schurtrails.identities import IdentityReport
from schurtrails.partitions import (
    BORDER_ADD,
    BORDER_REMOVE,
    BorderStripSpec,
    CornerEncoding,
    Partition,
    SkewShape,
    Value,
    apply_mu,
    apply_nested,
    apply_omega,
    apply_pi,
    beads,
    corner_encoding,
    from_beads,
    partition_from_corners,
    partition_from_set,
)
from schurtrails.polyring import ONE, FormalMatrix, Polynomial, x_var
from schurtrails.replay import AuditReport, OrbitResult
from schurtrails.schur import LatticePath, PathFamily, Tableau, TerminalSpec
from schurtrails.trails import (
    BLACK,
    BLUE,
    EVEN,
    GREEN,
    ODD,
    WHITE,
    ChangingTrail,
    NoncrossingMatching,
    TerminalPoint,
    TwoColouredGraph,
)


def cells(p):
    """Cell set of a partition's board, rows/cols 1-based."""
    return {(r + 1, c + 1) for r, part in enumerate(p) for c in range(part)}


partitions_st = st.lists(st.integers(min_value=1, max_value=9), min_size=0, max_size=7).map(
    lambda ps: Partition(sorted(ps, reverse=True))
)


def test_partition_validation():
    assert Partition((3, 1, 0)).parts == (3, 1, 0)
    assert Partition().parts == ()
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, -1))


def test_trailing_zeros_are_significant():
    assert Partition((3, 1, 0)) != Partition((3, 1))
    assert Partition((3, 1, 0)).without_zeros() == Partition((3, 1))


def test_skew_shape():
    s = SkewShape((4, 3, 2), (1,))
    assert s.inner.parts == (1, 0, 0)
    assert s.size() == 8
    with pytest.raises(ValueError):
        SkewShape((2, 1), (3,))


def test_corner_encoding_examples():
    e = corner_encoding(Partition((8, 6, 5, 3, 3, 1, 1)))
    assert e.x == (8, 6, 5, 3, 1)
    assert e.y == (1, 2, 3, 5, 7)
    e = corner_encoding(Partition((2, 2, 2)))
    assert e.x == (2,)
    assert e.y == (3,)
    e = corner_encoding(Partition((4, 3, 2)))
    assert e.x == (4, 3, 2)
    assert e.y == (1, 2, 3)
    assert corner_encoding(Partition()).n == 0
    # zero parts contribute no corner
    assert corner_encoding(Partition((3, 1, 0, 0))) == corner_encoding(Partition((3, 1)))


def test_partition_from_corners_examples():
    assert partition_from_corners(CornerEncoding((8, 6, 5, 3, 1), (1, 2, 3, 5, 7))).parts == (8, 6, 5, 3, 3, 1, 1)
    assert partition_from_corners(CornerEncoding((8, 6, 4, 2, 0), (1, 1, 2, 4, 6))).parts == (8, 4, 2, 2)
    assert partition_from_corners(CornerEncoding((), ())) == Partition()
    with pytest.raises(ValueError):
        partition_from_corners(CornerEncoding((2, 1), (2, 1)))
    with pytest.raises(ValueError):
        partition_from_corners(CornerEncoding((-1,), (1,)))


@given(partitions_st)
def test_corner_roundtrip(p):
    assert partition_from_corners(corner_encoding(p)) == p.without_zeros()


def test_apply_pi_examples():
    e = corner_encoding(Partition((8, 6, 5, 3, 3, 1, 1)))
    assert partition_from_corners(apply_pi(e, 2, 5)).parts == (8, 6, 6, 6, 4, 4, 2, 2)
    e21 = corner_encoding(Partition((2, 1)))
    assert partition_from_corners(apply_pi(e21, 1, 1)).parts == (2, 2)
    with pytest.raises(ValueError):
        apply_pi(e21, 1, 3)
    with pytest.raises(ValueError):
        apply_pi(e21, 0, 1)


def test_apply_mu_examples():
    e = corner_encoding(Partition((8, 6, 5, 3, 3, 1, 1)))
    assert partition_from_corners(apply_mu(e, 2, 5)).parts == (8, 4, 2, 2)
    assert partition_from_corners(apply_mu(e, 1, 1)).parts == (6, 6, 5, 3, 3, 1, 1)
    e1 = corner_encoding(Partition((1,)))
    assert partition_from_corners(apply_mu(e1, 1, 1)) == Partition()


def test_pi_mu_inverse_on_examples():
    e = corner_encoding(Partition((8, 6, 5, 3, 3, 1, 1)))
    assert apply_mu(apply_pi(e, 2, 5), 2, 5) == e
    assert apply_pi(apply_mu(e, 2, 5), 2, 5) == e


@given(partitions_st, st.data())
def test_pi_mu_inverse(p, data):
    e = corner_encoding(p)
    if e.n == 0:
        return
    i = data.draw(st.integers(1, e.n))
    j = data.draw(st.integers(i, e.n))
    assert apply_mu(apply_pi(e, i, j), i, j) == e


@given(partitions_st, st.data())
def test_strip_size_matches_cell_count(p, data):
    e = corner_encoding(p)
    if e.n == 0:
        return
    i = data.draw(st.integers(1, e.n))
    j = data.draw(st.integers(i, e.n))
    grown = partition_from_corners(apply_pi(e, i, j))
    # the added cells form a border strip: connected along the rim, no 2x2 block
    strip = cells(grown) - cells(p.without_zeros())
    assert len(strip) == grown.size() - p.size() > 0
    for (r, c) in strip:
        assert not {(r, c), (r + 1, c), (r, c + 1), (r + 1, c + 1)} <= strip


def test_mu_rejects_nonremovable():
    # repeated row removals eventually drive y_1 negative
    e = corner_encoding(Partition((1, 1)))
    stepped = apply_mu(apply_mu(e, 1, 1), 1, 1)  # y: (2) -> (1) -> (0)
    with pytest.raises(ValueError):
        apply_mu(stepped, 1, 1)  # y_1 would hit -1
    # x ordering violations are also rejected (reachable from weak encodings)
    weak = CornerEncoding((3, 2, 2), (1, 2, 3))
    with pytest.raises(ValueError):
        apply_mu(weak, 1, 2)  # x_2 - 1 < x_3


def test_apply_nested_examples():
    e = corner_encoding(Partition((8, 6, 5, 3, 3, 1, 1)))
    single = apply_nested(e, BorderStripSpec(((2, 5),), "add"))
    assert single == apply_pi(e, 2, 5)

    e21 = corner_encoding(Partition((2, 1)))
    spec = BorderStripSpec(((1, 2), (2, 2)), "add")
    grown = partition_from_corners(apply_nested(e21, spec))
    # the last pair acts first: (2,1) -> (2,1,1) -> (2,2,2,2)
    assert apply_nested(e21, spec) == apply_pi(apply_pi(e21, 2, 2), 1, 2)
    assert partition_from_corners(apply_pi(e21, 2, 2)).parts == (2, 1, 1)
    assert grown.parts == (2, 2, 2, 2)

    assert apply_nested(e21, BorderStripSpec((), "add")) == e21
    assert apply_nested(e21, BorderStripSpec((), "remove")) == e21


def test_nested_spec_validation():
    BorderStripSpec(((1, 3), (2, 2)), "remove")
    with pytest.raises(ValueError):
        BorderStripSpec(((2, 2), (1, 3)), "remove")  # i's not increasing
    with pytest.raises(ValueError):
        BorderStripSpec(((1, 2), (2, 3)), "remove")  # j's increase
    with pytest.raises(ValueError):
        BorderStripSpec(((1, 1), (2, 1)), "remove")  # innermost i > j
    with pytest.raises(ValueError):
        BorderStripSpec(((1, 1),), "grow")


def test_nested_mu_composite_to_empty():
    # remove the whole (2,1) board as one strip: x=(2,1),y=(1,2) -> mu^1_2
    e = corner_encoding(Partition((2, 1)))
    assert partition_from_corners(apply_mu(e, 1, 2)) == Partition()


def test_apply_omega_examples():
    p = Partition((8, 6, 5, 3, 3, 1, 1))
    assert apply_omega(p, 4, +1).parts == (9, 7, 6, 4, 4, 1, 1)
    assert apply_omega(p, 4, -1).parts == (7, 5, 4, 2, 2, 1, 1)
    assert apply_omega(Partition((1,)), 1, -1) == Partition()
    with pytest.raises(ValueError):
        apply_omega(p, 6, 1)
    with pytest.raises(ValueError):
        apply_omega(p, 1, 2)


@given(partitions_st, st.data())
def test_omega_roundtrip(p, data):
    e = corner_encoding(p)
    if e.n == 0:
        return
    k = data.draw(st.integers(1, e.n))
    assert apply_omega(apply_omega(p, k, +1), k, -1) == p.without_zeros()
    # cell count changes by y_k
    assert apply_omega(p, k, +1).size() - p.size() == e.y[k - 1]


def test_partition_from_set_examples():
    assert partition_from_set({2}).parts == (2,)
    assert partition_from_set({1, 3}).parts == (2, 1)
    assert partition_from_set({1, 2, 3, 4}).parts == (1, 1, 1, 1)
    assert partition_from_set(()) == Partition()
    # a one-shot iterable is read once
    assert partition_from_set(iter((1, 3))) == Partition((2, 1))
    with pytest.raises(ValueError):
        partition_from_set((1, 1, 2))
    with pytest.raises(ValueError):
        partition_from_set((0, 2))


@given(st.sets(st.integers(1, 30), max_size=8))
def test_partition_from_set_always_partition(t):
    p = partition_from_set(t)
    assert len(p) == len(t)  # weak decrease is checked by the constructor


def test_beads_examples():
    assert beads((3, 1, 0)) == (2, -1, -3)
    assert beads((3, 1, 0), 3) == (5, 2, 0)
    assert from_beads((5, 2, 0), 3) == (3, 1, 0)
    assert beads(()) == from_beads(()) == ()


@given(partitions_st, st.integers(-5, 5), st.sets(st.integers(1, 30), max_size=8))
def test_from_beads_inverts_beads_and_reads_index_sets(p, shift, t):
    assert from_beads(beads(p.parts, shift), shift) == p.parts
    assert partition_from_set(t).parts == from_beads(sorted(t, reverse=True), len(t))


# ---------------------------------------------------------------- values

def _family(*paths):
    return PathFamily(LatticePath(start, steps) for start, steps in paths)


# each value type: a construction of one value, and that value with one field changed at a time
VALUES = {
    Partition: (lambda: Partition((3, 1)), [Partition((3, 2))]),
    SkewShape: (lambda: SkewShape((3, 1), (1,)), [SkewShape((3, 2), (1,)), SkewShape((3, 1), (2,))]),
    CornerEncoding: (
        lambda: CornerEncoding((3, 1), (1, 2)),
        [CornerEncoding((3, 2), (1, 2)), CornerEncoding((3, 1), (1, 3))],
    ),
    BorderStripSpec: (
        lambda: BorderStripSpec([(1, 2)], BORDER_ADD),
        [BorderStripSpec([(1, 3)], BORDER_ADD), BorderStripSpec([(1, 2)], BORDER_REMOVE)],
    ),
    Tableau: (
        lambda: Tableau(SkewShape((2, 1)), [(1, 1), (2,)], 2),
        [
            Tableau(SkewShape((3, 1), (1,)), [(1, 1), (2,)], 2),
            Tableau(SkewShape((2, 1)), [(1, 2), (2,)], 2),
            Tableau(SkewShape((2, 1)), [(1, 1), (2,)], 3),
        ],
    ),
    LatticePath: (lambda: LatticePath((0, 1), "EN"), [LatticePath((1, 1), "EN"), LatticePath((0, 1), "NE")]),
    PathFamily: (
        lambda: _family(((1, 1), "EN"), ((-1, 1), "NE")),
        [_family(((1, 1), "EN"), ((-1, 1), "EN")), _family(((1, 1), "EN"))],
    ),
    TerminalSpec: (
        lambda: TerminalSpec.from_shape((2, 1), 2),
        [
            TerminalSpec.from_shape(SkewShape((2, 1), (1,)), 2),
            TerminalSpec.from_shape((3, 1), 2),
            TerminalSpec.from_shape((2, 1), 3),
        ],
    ),
    TwoColouredGraph: (
        lambda: TwoColouredGraph(_family(((1, 1), "EN")), _family(((0, 1), "NE"))),
        [
            TwoColouredGraph(_family(((1, 1), "NE")), _family(((0, 1), "NE"))),
            TwoColouredGraph(_family(((1, 1), "EN")), _family(((0, 1), "EN"))),
        ],
    ),
    Polynomial: (
        lambda: Polynomial({((x_var(1), 1),): 2, ONE: 1}),
        [Polynomial({((x_var(1), 1),): 3, ONE: 1}), Polynomial({((x_var(2), 1),): 2, ONE: 1})],
    ),
    FormalMatrix: (lambda: FormalMatrix([[1, 2]]), [FormalMatrix([[1, 3]]), FormalMatrix([[1], [2]])]),
    TerminalPoint: (
        lambda: TerminalPoint(1, (4, 5), GREEN, WHITE, ODD),
        [
            TerminalPoint(3, (4, 5), GREEN, WHITE, ODD),
            TerminalPoint(1, (4, 6), GREEN, WHITE, ODD),
            TerminalPoint(1, (4, 5), BLUE, WHITE, ODD),
            TerminalPoint(1, (4, 5), GREEN, BLACK, ODD),
            TerminalPoint(1, (4, 5), GREEN, WHITE, EVEN),
        ],
    ),
    NoncrossingMatching: (
        lambda: NoncrossingMatching({(4, 1), (2, 3)}),
        [NoncrossingMatching({(1, 2), (3, 4)})],
    ),
    AuditReport: (
        lambda: AuditReport((2, 1), 2, 2, 4),
        [AuditReport((2, 2), 2, 2, 4), AuditReport((2, 1), 3, 2, 4), AuditReport((2, 1), 2, 3, 4),
         AuditReport((2, 1), 2, 2, 5)],
    ),
}


# value types with no row in VALUES, each with its reason
UNTABLED = {
    IdentityReport: "its params dict makes it unhashable; test_identities.py tests its equality",
    OrbitResult: "it compares by identity",
    ChangingTrail: "it is only traced, never built from fields",
}


def test_every_value_type_has_a_row_or_a_reason():
    """A new Value subclass cannot take the default _key() unnoticed."""
    assert set(Value.__subclasses__()) == set(VALUES) | set(UNTABLED)
    assert not set(VALUES) & set(UNTABLED)


@pytest.mark.parametrize("kind", list(VALUES), ids=lambda kind: kind.__name__)
def test_value_types_compare_by_value_and_are_immutable(kind):
    make, changed = VALUES[kind]
    value, copy = make(), make()
    assert value is not copy
    assert value == copy and hash(value) == hash(copy) and not value != copy
    assert len({value, copy}) == 1
    for other in changed:
        assert value != other and not value == other
    assert value != value._key()
    for other_kind, (other_make, _) in VALUES.items():
        if other_kind is not kind:
            assert value != other_make()
    # the library's own values are built from their fields without __init__'s checks
    unchecked = kind._unchecked(*(getattr(value, name) for name in kind.__slots__))
    assert type(unchecked) is kind and unchecked == value and hash(unchecked) == hash(value)
    for target in (value, unchecked):
        for name in kind.__slots__ + ("colour",):
            with pytest.raises(AttributeError, match="%s is immutable" % kind.__name__):
                setattr(target, name, None)
            with pytest.raises(AttributeError, match="%s is immutable" % kind.__name__):
                delattr(target, name)
    assert value == copy == unchecked
    if kind is PathFamily:
        assert PathFamily.__slots__ == ("paths",)  # a family keeps nothing beside its paths


def test_values_of_two_types_with_one_key_differ():
    assert Partition()._key() == PathFamily()._key()
    assert Partition() != PathFamily()
