from hypothesis import assume, given, settings
from hypothesis import strategies as st

import pytest

from schurtrails.partitions import Partition, SkewShape
from schurtrails.polyring import monomial_mul
from schurtrails.schur import EAST, NORTH, LatticePath, PathFamily, TerminalSpec, enumerate_families, path_weight
from schurtrails.svg import render_svg
from schurtrails.trails import (
    MAX_MATCHING_POINTS,
    BACKWARD,
    BLACK,
    BLUE,
    CYCLE_LIKE,
    EVEN,
    FORWARD,
    GREEN,
    ODD,
    PATH_LIKE,
    WHITE,
    NoncrossingMatching,
    TerminalPoint,
    TwoColouredGraph,
    all_trails,
    build_graph,
    count_noncrossing_matchings,
    pattern_objects,
    recolour,
    terminal_matching,
    terminal_points,
    trace_trail,
    trail_at_terminal,
)

FIG3_GREEN = ["(-1,1):EEEENNENN", "(-2,1):NENENENE", "(-3,1):NNNENEE"]
FIG3_BLUE = ["(-2,1):ENEENNEN", "(-3,1):NENNEEN", "(-4,1):NNNNEE"]
FIG4_GREEN = FIG3_GREEN[:2] + ["(-3,1):NNNEENE"]
FIG4_BLUE = FIG3_BLUE[:2] + ["(-4,1):NNNENE"]


def fig3():
    return build_graph(PathFamily.from_text(FIG3_BLUE), PathFamily.from_text(FIG3_GREEN))


def fig4():
    return build_graph(PathFamily.from_text(FIG4_BLUE), PathFamily.from_text(FIG4_GREEN))


partitions_st = st.lists(st.integers(min_value=1, max_value=3), max_size=3).map(
    lambda ps: Partition(sorted(ps, reverse=True))
)


# ---------------------------------------------------------------- graphs

def test_build_graph_doubly_coloured():
    fam = PathFamily.from_text(["(0,1):EN"])
    g = build_graph(fam, fam)
    assert all(cs == frozenset((BLUE, GREEN)) for cs in g.edge_colours.values())
    assert len(g.edge_colours) == 2


def test_build_graph_empty():
    g = build_graph(PathFamily(), PathFamily())
    assert g.edge_colours == {}
    assert terminal_points(g) == ()


def test_graph_json_roundtrip():
    g = fig3()
    assert TwoColouredGraph.from_json(g.to_json()) == g


def test_a_family_in_any_order_gives_the_canonical_graph():
    # a graph holds only its layers, so its families read back rightmost start first
    canonical = {"blue": ["(-1,1):EENN", "(-3,1):ENEN"], "green": ["(3,1):", "(0,1):ENN"]}
    listed = {colour: paths[::-1] for colour, paths in canonical.items()}
    graph, built = (TwoColouredGraph.from_json(document) for document in (canonical, listed))
    assert built == graph
    assert built.to_json() == graph.to_json() == canonical
    assert repr(built) == repr(graph)
    assert render_svg(built) == render_svg(graph)


# ---------------------------------------------------------------- terminal points

def test_terminal_points_fig3():
    pts = terminal_points(fig3())
    assert pts == (
        TerminalPoint(1, (4, 5), GREEN, WHITE, ODD),
        TerminalPoint(2, (-2, 5), BLUE, BLACK, EVEN),
        TerminalPoint(3, (-4, 1), BLUE, WHITE, ODD),
        TerminalPoint(4, (-1, 1), GREEN, BLACK, EVEN),
    )
    assert [q.kind for q in pts] == ["end", "end", "start", "start"]


def test_terminal_points_identical_families():
    fam = PathFamily.from_text(["(0,1):ENN", "(-2,1):NEN"])
    assert terminal_points(build_graph(fam, fam)) == ()


# ---------------------------------------------------------------- tracing

def test_trace_fig3_case_a():
    g = fig3()
    q1 = terminal_points(g)[0]
    trail = trail_at_terminal(g, q1.location)
    assert trail.kind == PATH_LIKE
    assert trail.endpoints == ((4, 5), (-1, 1))
    # the trail visits (-2,2) twice on its way down
    assert trail.visited_vertices().count((-2, 2)) == 2


def test_trace_fig3_second_trail():
    g = fig3()
    trail = trail_at_terminal(g, (-4, 1))
    assert trail.kind == PATH_LIKE
    assert trail.endpoints == ((-4, 1), (-2, 5))


def test_trace_fig4_case_b():
    g = fig4()
    trail = trail_at_terminal(g, (4, 5))
    assert trail.kind == PATH_LIKE
    assert trail.endpoints == ((4, 5), (-2, 5))
    second = trail_at_terminal(g, (-4, 1))
    assert second.endpoints == ((-4, 1), (-1, 1))


def test_trail_reversal_symmetry():
    g = fig3()
    forward = trail_at_terminal(g, (4, 5))
    reverse = trail_at_terminal(g, (-1, 1))
    assert forward.edge_instances() == reverse.edge_instances()
    assert reverse.endpoints == ((-1, 1), (4, 5))


def test_trail_uniqueness_from_any_instance():
    g = fig3()
    trail = trail_at_terminal(g, (4, 5))
    for edge, colour, _ in trail.steps:
        for orientation in (FORWARD, BACKWARD):
            again = trace_trail(g, (edge, colour, orientation))
            assert again.edge_instances() == trail.edge_instances()


def test_doubly_coloured_edge_is_a_two_cycle():
    fam = PathFamily.from_text(["(0,1):EN"])
    g = build_graph(fam, fam)
    trail = trace_trail(g, (((0, 1), (1, 1)), BLUE, FORWARD))
    assert trail.kind == CYCLE_LIKE
    assert len(trail.steps) == 2
    assert {s[1] for s in trail.steps} == {BLUE, GREEN}
    assert {s[2] for s in trail.steps} == {FORWARD, BACKWARD}
    assert {s[0] for s in trail.steps} == {((0, 1), (1, 1))}


def test_trail_partition_fig3():
    g = fig3()
    trails = all_trails(g)
    covered = set()
    for t in trails:
        covered |= t.edge_instances()
    assert covered == set(g.instances())


def test_trace_errors():
    g = fig3()
    with pytest.raises(ValueError):
        trace_trail(g, (((9, 9), (10, 9)), BLUE, FORWARD))  # edge not in graph
    with pytest.raises(ValueError):
        trail_at_terminal(g, (9, 9))  # nothing starts there


# ---------------------------------------------------------------- recolouring

def total_weight(g):
    return monomial_mul(path_weight(g.blue), path_weight(g.green))


def test_recolour_fig3_case_a_families():
    g = fig3()
    trail = trail_at_terminal(g, (4, 5))
    g2 = recolour(g, [trail])
    assert {p.start for p in g2.green} == {(-2, 1), (-3, 1)}
    assert {p.end for p in g2.green} == {(2, 5), (0, 5)}
    assert {p.start for p in g2.blue} == {(-1, 1), (-2, 1), (-3, 1), (-4, 1)}
    assert {p.end for p in g2.blue} == {(4, 5), (2, 5), (0, 5), (-2, 5)}
    assert total_weight(g2) == total_weight(g)


def test_recolour_fig4_case_b_families():
    g = fig4()
    g2 = recolour(g, [trail_at_terminal(g, (4, 5))])
    assert {p.start for p in g2.green} == {(-1, 1), (-2, 1), (-3, 1)}
    assert {p.end for p in g2.green} == {(2, 5), (0, 5), (-2, 5)}
    assert {p.start for p in g2.blue} == {(-2, 1), (-3, 1), (-4, 1)}
    assert {p.end for p in g2.blue} == {(4, 5), (2, 5), (0, 5)}
    assert total_weight(g2) == total_weight(g)


def test_recolour_involution():
    g = fig3()
    g2 = recolour(g, [trail_at_terminal(g, (4, 5))])
    g3 = recolour(g2, [trail_at_terminal(g2, (4, 5))])
    assert g3 == g


def test_recolour_empty_is_identity():
    g = fig3()
    assert recolour(g, []) == g


def test_recolour_rejects_overlap():
    g = fig3()
    trail = trail_at_terminal(g, (4, 5))
    with pytest.raises(ValueError):
        recolour(g, [trail, trail])


def test_recolour_disjoint_trails_together():
    g = fig3()
    t1 = trail_at_terminal(g, (4, 5))
    t2 = trail_at_terminal(g, (-4, 1))
    g2 = recolour(g, [t1, t2])
    assert total_weight(g2) == total_weight(g)
    assert recolour(g2, [trail_at_terminal(g2, (4, 5)), trail_at_terminal(g2, (-4, 1))]) == g


def sibling_trail(blue, green, location):
    """The trail at the location in the graph of the two families' texts."""
    return trail_at_terminal(build_graph(PathFamily.from_text(blue), PathFamily.from_text(green)), location)


def test_recolour_rejects_half_of_a_doubly_coloured_edge():
    fam = PathFamily.from_text(["(0,1):EN"])
    g = build_graph(fam, fam)
    # a graph of an equal frame whose one blue step runs along g's doubly-coloured edge
    half = sibling_trail(["(0,1):EN"], ["(1,1):N"], (0, 1))
    assert half.steps == ((((0, 1), (1, 1)), BLUE, FORWARD),)
    with pytest.raises(ValueError, match=r"^the doubly-coloured edge \(\(0, 1\), \(1, 1\)\) must flip both"):
        recolour(g, [half])  # its blue instance would land on the green one
    # flipping both instances of the two-cycle leaves the graph as it was
    cycle = trace_trail(g, (((0, 1), (1, 1)), BLUE, FORWARD))
    assert recolour(g, [cycle]) == g


def test_recolour_refuses_a_colour_leaving_a_point_twice():
    g = build_graph(PathFamily.from_text(["(0,1):E"]), PathFamily.from_text(["(0,1):N"]))
    step = sibling_trail(["(1,1):N"], ["(0,1):N"], (0, 1))
    assert step.steps == ((((0, 1), (0, 2)), GREEN, FORWARD),)
    with pytest.raises(ValueError, match=r"^vertex \(0, 1\) has out-degree 2 within one colour$"):
        recolour(g, [step])  # blue would leave (0,1) right and up


def test_recolour_refuses_a_colour_entering_a_point_twice():
    g = build_graph(PathFamily.from_text(["(1,1):N"]), PathFamily.from_text(["(0,2):E"]))
    step = sibling_trail(["(0,1):N"], ["(0,2):E"], (1, 2))
    assert step.edge_instances() == {(((0, 2), (1, 2)), GREEN)}
    with pytest.raises(ValueError, match=r"^vertex \(1, 2\) has in-degree 2 within one colour$"):
        recolour(g, [step])  # blue would enter (1,2) from left and below


def test_recolour_refuses_an_edge_outside_the_graph():
    g = fig3()
    # a trail of another frame; a trail of fig3 with its colours swapped, whose blue edges are green in fig3
    elsewhere = sibling_trail(["(9,9):E"], [], (9, 9))
    swapped = trace_trail(build_graph(g.green, g.blue), (((-1, 1), (0, 1)), BLUE, FORWARD))
    assert swapped._frame.same(g.frame)
    for trail in (elsewhere, swapped):
        with pytest.raises(ValueError, match="^trail edges do not all belong to the graph$"):
            recolour(g, [trail])


def family_from_edges(edges) -> PathFamily:
    """Reassemble one colour's edge set into its nonintersecting family, rightmost start first.

    The reading on coordinate edge sets that graphs used before they read
    their families off the layers' masks.  Raises when the edges are not
    unit right/up steps forming vertex-disjoint monotone paths.
    """
    out, inc = {}, {}
    for tail, head in edges:
        if (head[0] - tail[0], head[1] - tail[1]) not in ((1, 0), (0, 1)):
            raise ValueError("edge %r is not a unit right/up step" % ((tail, head),))
        if tail in out:
            raise ValueError("vertex %r has out-degree 2 within one colour" % (tail,))
        if head in inc:
            raise ValueError("vertex %r has in-degree 2 within one colour" % (head,))
        out[tail], inc[head] = head, tail
    paths = []
    for start in sorted((v for v in out if v not in inc), key=lambda p: (-p[0], p[1])):
        cur, steps = start, []
        while cur in out:
            steps.append(EAST if out[cur][0] > cur[0] else NORTH)
            cur = out[cur]
        paths.append(LatticePath(start, "".join(steps)))
    return PathFamily(paths)


def rebuilt_families(graph, trails):
    """Recolouring by rebuilding: flip the two edge sets, then reassemble each family."""
    flips = {BLUE: set(), GREEN: set()}
    for trail in trails:
        for edge, colour, _ in trail.steps:
            flips[colour].add(edge)
    blue = graph.colour_edges(BLUE)
    green = graph.colour_edges(GREEN)
    return (
        family_from_edges((blue - flips[BLUE]) | flips[GREEN]),
        family_from_edges((green - flips[GREEN]) | flips[BLUE]),
    )


# ---------------------------------------------------------------- the frozenset oracle
#
# The move as it was stated on edge sets before graphs held bit masks: dict
# maps of successors and predecessors for tracing, set algebra for
# recolouring.  The mask code must give the same trails, images and refusals.

_OTHER = {BLUE: GREEN, GREEN: BLUE, FORWARD: BACKWARD, BACKWARD: FORWARD}


class OracleGraph:
    """Per-colour edge sets and zero-length marks, with (succ, pred, points) maps."""

    def __init__(self, edges, marks):
        self.edges, self.marks, self.maps = edges, marks, {}
        for colour in (BLUE, GREEN):
            succ = dict(edges[colour])
            pred = {head: tail for tail, head in edges[colour]}
            self.maps[colour] = (succ, pred, succ.keys() | pred.keys() | marks[colour])

    @classmethod
    def of(cls, blue, green):
        families = {BLUE: blue, GREEN: green}
        return cls(
            {colour: frozenset(e for p in f for e in p.edges()) for colour, f in families.items()},
            {colour: frozenset(p.start for p in f if not p.steps) for colour, f in families.items()},
        )

    def picture(self):
        return _by_colour(self.edges[BLUE], self.edges[GREEN]), _by_colour(self.maps[BLUE][2], self.maps[GREEN][2])


def _by_colour(blue, green):
    out = dict.fromkeys(blue, frozenset((BLUE,)))
    out.update(dict.fromkeys(green, frozenset((GREEN,))))
    out.update(dict.fromkeys(blue & green, frozenset((BLUE, GREEN))))
    return out


def _oracle_after(maps, step):
    blue_points, green_points = maps[BLUE][2], maps[GREEN][2]
    (tail, head), colour, orientation = step
    while True:
        v = head if orientation == FORWARD else tail
        if v in blue_points and v in green_points:
            colour, orientation = _OTHER[colour], _OTHER[orientation]
        succ, pred, _ = maps[colour]
        tail, head = (v, succ.get(v)) if orientation == FORWARD else (pred.get(v), v)
        if tail is None or head is None:
            return
        yield (tail, head), colour, orientation


def _oracle_walk(maps, seed, seen):
    steps = []
    for step in _oracle_after(maps, seed):
        if step == seed:
            return steps, True
        assert (step[0], step[1]) not in seen, "trail revisited an edge instance"
        seen.add((step[0], step[1]))
        steps.append(step)
    return steps, False


def _reverse(step):
    return step[0], step[1], _OTHER[step[2]]


def oracle_trail_at_terminal(oracle, location):
    """(kind, steps) of the trail starting at the location, or its refusal raised."""
    location = (int(location[0]), int(location[1]))
    candidates = []
    for colour in (BLUE, GREEN):
        succ, pred, _ = oracle.maps[colour]
        leaving = ((location, succ.get(location)), colour, FORWARD), ((pred.get(location), location), colour, BACKWARD)
        for step in leaving:
            if None not in step[0] and next(_oracle_after(oracle.maps, _reverse(step)), None) is None:
                candidates.append(step)
    if not candidates:
        raise ValueError("no changing trail starts at %r" % (location,))
    if len(candidates) > 1:
        raise ValueError("%d changing trails start at %r" % (len(candidates), location))
    step0 = candidates[0]
    seen = {(step0[0], step0[1])}
    back, closed = _oracle_walk(oracle.maps, _reverse(step0), seen)
    steps = [_reverse(step) for step in reversed(back)] + [step0]
    if closed:
        return CYCLE_LIKE, tuple(steps)
    return PATH_LIKE, tuple(steps + _oracle_walk(oracle.maps, step0, seen)[0])


def oracle_recolour(oracle, trails):
    """The recoloured OracleGraph, or the list of refusals it may give.

    Where several vertices break a degree rule the refusal named depends on
    set order, so each of them is listed.
    """
    steps = [step for trail in trails for step in trail]
    flips = {BLUE: set(), GREEN: set()}
    for edge, colour, _ in steps:
        flipped = flips.setdefault(colour, set())
        if edge in flipped:
            return ["overlapping trails share the edge instance %r" % ((edge, colour),)]
        flipped.add(edge)
    blue, green = oracle.edges[BLUE], oracle.edges[GREEN]
    from_blue, from_green = flips.pop(BLUE), flips.pop(GREEN)
    to_blue, to_green = from_green - from_blue, from_blue - from_green
    stray = (from_blue - blue).union(from_green - green, *flips.values())
    half = (to_blue & blue) | (to_green & green)
    if stray or half:
        edge = next(edge for edge, _, _ in steps if edge in stray or edge in half)
        if edge in stray:
            return ["trail edges do not all belong to the graph"]
        return ["the doubly-coloured edge %r must flip both colours or neither" % (edge,)]
    blue_edges, green_edges = (blue - to_green) | to_blue, (green - to_blue) | to_green
    for edges, flipped in ((blue_edges, to_blue), (green_edges, to_green)):
        refusals = []
        for tail, head in flipped:
            (x, y), (u, w) = tail, head
            dx, dy = u - x, w - y  # the other unit step is (dy, dx)
            if (tail, (x + dy, y + dx)) in edges:
                refusals.append("vertex %r has out-degree 2 within one colour" % (tail,))
            if ((u - dy, w - dx), head) in edges:
                refusals.append("vertex %r has in-degree 2 within one colour" % (head,))
        if refusals:
            return refusals
    touched = {v for edge in to_blue | to_green for v in edge}
    marks = {colour: oracle.marks[colour] - touched for colour in (BLUE, GREEN)}
    return OracleGraph({BLUE: blue_edges, GREEN: green_edges}, marks)


def _same_move(graph, oracle, trails):
    """The image and its oracle when the move succeeds, after checking they agree."""
    image = _outcome(recolour, graph, trails)
    want = oracle_recolour(oracle, [trail.steps for trail in trails])
    if isinstance(want, list):
        assert image in want
        return None
    assert not isinstance(image, str), image
    assert _picture(image) == want.picture()
    return image, want


def _same_trail(graph, oracle, location):
    trail = _outcome(trail_at_terminal, graph, location)
    want = _outcome(oracle_trail_at_terminal, oracle, location)
    assert trail == want if isinstance(trail, str) else (trail.kind, trail.steps) == want
    return None if isinstance(trail, str) else trail


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_masks_agree_with_the_frozenset_oracle(data):
    # N = 1 draws zero-length paths, and starts of one colour on ends of the other
    n = data.draw(st.integers(min_value=1, max_value=3))
    t = data.draw(st.integers(min_value=-2, max_value=2))
    blues = list(enumerate_families(TerminalSpec.from_shape(data.draw(skew_shapes_st()), n)))
    greens = list(enumerate_families(TerminalSpec.from_shape(data.draw(skew_shapes_st()), n, offset=t)))
    assume(blues and greens)
    fb, fg = data.draw(st.sampled_from(blues)), data.draw(st.sampled_from(greens))
    graph, oracle = build_graph(fb, fg), OracleGraph.of(fb, fg)
    assert _picture(graph) == oracle.picture()
    traced = []
    for location in sorted({p.start for f in (fb, fg) for p in f} | {p.end for f in (fb, fg) for p in f}):
        trail = _same_trail(graph, oracle, location)
        moved = trail and _same_move(graph, oracle, [trail])
        if moved:
            traced.append(trail)
            # moving back from the image drops the zero-length marks the move reached
            back = _same_trail(*moved, location)
            if back:
                _same_move(*moved, [back])
    if traced:
        _same_move(graph, oracle, data.draw(st.lists(st.sampled_from(traced), max_size=3)))
    # each other object of the two layouts that shares a family with this one has an equal frame;
    # its trails are recoloured here and this one's there, each alone, then a few of its trails
    # together here: a trail can be stray, half-flipped, overlapping or refused by a degree rule
    own, foreign = all_trails(graph), []
    for pair in [(fb, green) for green in greens] + [(blue, fg) for blue in blues]:
        other, other_oracle = build_graph(*pair), OracleGraph.of(*pair)
        assert other.frame.same(graph.frame)
        theirs = all_trails(other)
        foreign += [trail for trail in theirs if trail not in own and trail not in foreign]
        for trail in own:
            if trail not in theirs:
                _same_move(other, other_oracle, [trail])
    for trail in foreign:
        _same_move(graph, oracle, [trail])
    if foreign:
        _same_move(graph, oracle, data.draw(st.lists(st.sampled_from(foreign), min_size=1, max_size=3)))


def distinct_trails(graph, locations):
    trails = {}
    for location in locations:
        trail = trail_at_terminal(graph, location)
        trails.setdefault(trail.edge_instances(), trail)
    return list(trails.values())


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_recolour_matches_family_rebuild(data):
    pb = data.draw(partitions_st)
    pg = data.draw(partitions_st)
    # N >= 2: on one line a blue end can sit on a green start, and the
    # move stops being an involution there
    n = data.draw(st.integers(min_value=max(len(pb), len(pg), 2), max_value=3))
    t = data.draw(st.integers(min_value=-2, max_value=2))
    fb = data.draw(st.sampled_from(list(enumerate_families(TerminalSpec.from_shape(pb, n)))))
    fg = data.draw(st.sampled_from(list(enumerate_families(TerminalSpec.from_shape(pg, n, offset=t)))))
    g = build_graph(fb, fg)

    # equality and hashing see edge colours only, not the order of paths
    shuffled = build_graph(PathFamily(reversed(list(fb))), PathFamily(reversed(list(fg))))
    assert shuffled == g and hash(shuffled) == hash(g)
    same = recolour(g, [])
    assert same == g and hash(same) == hash(g)

    locations = [q.location for q in terminal_points(g)]
    chosen = data.draw(st.lists(st.sampled_from(locations), unique=True)) if locations else []
    trails = distinct_trails(g, chosen)
    image = recolour(g, trails)
    rebuilt = build_graph(*rebuilt_families(g, trails))
    assert (image.blue, image.green) == (rebuilt.blue, rebuilt.green)
    assert image.vertices == rebuilt.vertices  # no zero-length paths here
    # the layers cached on fb and fg give what fresh copies of them give
    fresh = build_graph(PathFamily(list(fb)), PathFamily(list(fg)))
    assert _picture(image) == _picture(recolour(fresh, trails))
    assert total_weight(image) == total_weight(g)
    assert recolour(image, distinct_trails(image, chosen)) == g


def test_recolour_keeps_a_point_only_a_zero_length_path_marks():
    # N = 1: the green zero-length path at (4,1) lies off the trail
    g = build_graph(PathFamily.from_text(["(0,1):EE"]), PathFamily.from_text(["(4,1):", "(-2,1):E"]))
    image = recolour(g, [trail_at_terminal(g, (0, 1))])
    assert image.vertices[(4, 1)] == frozenset((GREEN,))
    assert image.vertices == {**g.vertices, **dict.fromkeys([(0, 1), (1, 1), (2, 1)], frozenset((GREEN,)))}
    # on the trail, a point keeps only the colours of the edges that now reach it
    g = build_graph(PathFamily.from_text(["(0,1):EE"]), PathFamily.from_text(["(2,1):"]))
    assert g.vertices[(2, 1)] == frozenset((BLUE, GREEN))
    image = recolour(g, [trail_at_terminal(g, (0, 1))])
    assert image.vertices == dict.fromkeys([(0, 1), (1, 1), (2, 1)], frozenset((GREEN,)))
    # a blue mark reached by the move is not restored when the move is undone
    g = build_graph(PathFamily.from_text(["(2,1):"]), PathFamily.from_text(["(0,1):EE"]))
    image = recolour(g, [trail_at_terminal(g, (0, 1))])
    back = recolour(image, [trail_at_terminal(image, (0, 1))])
    assert back == g and back.vertices[(2, 1)] == frozenset((GREEN,)) != g.vertices[(2, 1)]


def test_an_image_and_its_json_round_trip_trace_the_same_trails():
    # N = 1: the trail at (2,1) is one green step, so the green mark at (0,1) stays
    g = build_graph(PathFamily.from_text(["(-1,1):EE"]), PathFamily.from_text(["(1,1):E", "(0,1):"]))
    image = recolour(g, [trail_at_terminal(g, (2, 1))])
    assert (image.blue.to_text(), image.green.to_text()) == (["(-1,1):EEE"], ["(0,1):"])
    again = TwoColouredGraph.from_json(image.to_json())
    assert again == image and again.vertices == image.vertices
    assert terminal_points(again) == terminal_points(image)
    # the blue trail from (-1,1) stops at the mark after one edge, in both
    trail = trail_at_terminal(image, (-1, 1))
    assert trail.steps == ((((-1, 1), (0, 1)), BLUE, FORWARD),)
    assert trail_at_terminal(again, (-1, 1)) == trail


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_images_at_one_variable_survive_the_json_round_trip(data):
    t = data.draw(st.integers(min_value=-2, max_value=2))
    blues = list(enumerate_families(TerminalSpec.from_shape(data.draw(skew_shapes_st()), 1)))
    greens = list(enumerate_families(TerminalSpec.from_shape(data.draw(skew_shapes_st()), 1, offset=t)))
    assume(blues and greens)
    g = build_graph(data.draw(st.sampled_from(blues)), data.draw(st.sampled_from(greens)))
    for q in terminal_points(g):
        image = _outcome(lambda: recolour(g, [trail_at_terminal(g, q.location)]))
        if isinstance(image, str):
            continue
        again = TwoColouredGraph.from_json(image.to_json())
        assert again == image and again.vertices == image.vertices
        for point in image.vertices:
            assert _outcome(trail_at_terminal, again, point) == _outcome(trail_at_terminal, image, point)


@st.composite
def skew_shapes_st(draw):
    # rows with equal outer and inner parts give zero-length paths at N = 1
    outer = sorted(draw(st.lists(st.integers(0, 3), min_size=1, max_size=3)), reverse=True)
    inner = sorted((draw(st.integers(0, part)) for part in outer), reverse=True)
    return SkewShape(Partition(outer), Partition([min(i, o) for i, o in zip(inner, outer)]))


def _outcome(move, *args):
    try:
        return move(*args)
    except ValueError as exc:
        return str(exc)


def _picture(graph):
    return graph.edge_colours, graph.vertices


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_pattern_objects_share_one_frame_and_match_built_graphs(data):
    n = data.draw(st.integers(min_value=1, max_value=3))
    t = data.draw(st.integers(min_value=-2, max_value=2))
    specs = tuple(TerminalSpec.from_shape(data.draw(skew_shapes_st()), n, offset) for offset in (0, t))
    blues, greens = (list(enumerate_families(spec)) for spec in specs)
    objects = list(pattern_objects(*specs))
    assert len(objects) == len(blues) * len(greens)
    assert len({id(layer.frame) for graph, _ in objects for layer in graph.layers}) <= 1
    terminals = sorted({point for spec in specs for point in spec.starts + spec.ends})
    for (graph, weight), (fb, fg) in zip(objects, ((fb, fg) for fb in blues for fg in greens)):
        built = build_graph(fb, fg)
        assert (graph.frame.cols, graph.frame.rows) == (built.frame.cols, built.frame.rows)
        assert graph._key() == built._key() and (graph.blue, graph.green) == (fb, fg)
        assert [(layer.marks, layer.marked) for layer in graph.layers] == [(b.marks, b.marked) for b in built.layers]
        assert _picture(graph) == _picture(built)
        assert weight == monomial_mul(path_weight(fb), path_weight(fg))
        marks = {path.start: colour for colour, f in ((BLUE, fb), (GREEN, fg)) for path in f if not path.steps}
        for location in terminals:
            trail = _outcome(trail_at_terminal, graph, location)
            assert trail == _outcome(trail_at_terminal, built, location)
            if isinstance(trail, str):
                continue
            image = _outcome(recolour, graph, [trail])
            again = _outcome(recolour, built, [trail])
            assert image == again
            if isinstance(image, str):
                continue
            assert _picture(image) == _picture(again)
            # a recoloured graph keeps every mark no flipped edge reaches
            ends = {v for edge, _, _ in trail.steps for v in edge}
            assert all(colour in image.vertices[point] for point, colour in marks.items() if point not in ends)


@pytest.mark.parametrize(
    "blue, green",
    [(["(0,1):E"], ["(20000,20000):E"]), (["(-1000000000,1):E"], ["(1000000000,5):NE"])],
    ids=["far-apart", "wide-apart"],
)
def test_the_frame_numbers_only_the_columns_and_rows_the_edges_touch(blue, green):
    g = build_graph(PathFamily.from_text(blue), PathFamily.from_text(green))
    graphs = [g]
    for q in terminal_points(g):
        trail = trail_at_terminal(g, q.location)
        image = recolour(g, [trail])
        back = recolour(image, [trail_at_terminal(image, q.location)])
        assert back == g and hash(back) == hash(g)
        assert max(mask.bit_length() for mask in trail._flips) <= 64
        graphs += [image, back]
    for graph in graphs:
        assert max(m.bit_length() for layer in graph.layers for m in (layer.east, layer.north, layer.points)) <= 64


# ---------------------------------------------------------------- decomposition

def test_decompose_roundtrip():
    g = fig3()
    assert family_from_edges(g.colour_edges(BLUE)) == g.blue
    assert family_from_edges(g.colour_edges(GREEN)) == g.green
    # a recoloured graph reads its families back off the layers
    same = recolour(g, [])
    assert (same.blue, same.green) == (g.blue, g.green)


def test_family_from_edges_errors():
    # the oracle refuses edge sets that are not a family
    with pytest.raises(ValueError):
        family_from_edges([((0, 0), (2, 0))])  # not a unit step
    with pytest.raises(ValueError):
        family_from_edges([((0, 0), (1, 0)), ((0, 1), (1, 1)), ((1, 1), (1, 2)), ((0, 0), (0, 1))])
    # in-degree 2: two edges into (1,1)
    with pytest.raises(ValueError):
        family_from_edges([((0, 1), (1, 1)), ((1, 0), (1, 1))])


# ---------------------------------------------------------------- matchings

def test_terminal_matching_fig3():
    m = terminal_matching(fig3())
    assert m.pairs == frozenset({(1, 4), (2, 3)})


def test_terminal_matching_fig4():
    m = terminal_matching(fig4())
    assert m.pairs == frozenset({(1, 2), (3, 4)})


def test_terminal_matching_empty_for_identical_families():
    fam = PathFamily.from_text(["(0,1):ENN"])
    assert terminal_matching(build_graph(fam, fam)).pairs == frozenset()


@pytest.mark.parametrize(
    "blue, green, message",
    [
        (["(0,1):EEE"], ["(1,1):"], "trail joined two black points"),
        (["(2,1):", "(-1,0):NNENN", "(0,0):EEE"], [], "trail joined two odd-indexed points"),
    ],
    ids=["colour", "parity"],
)
def test_terminal_matching_refuses_a_graph_outside_the_hypotheses(blue, green, message):
    """A trail between two points of one matching colour or one parity is refused with ValueError."""
    graph = TwoColouredGraph(PathFamily.from_text(blue), PathFamily.from_text(green))
    with pytest.raises(ValueError, match="^%s$" % message):
        terminal_matching(graph)


def test_noncrossing_matching_validation():
    NoncrossingMatching(frozenset({(1, 4), (2, 3)}))
    with pytest.raises(ValueError):
        NoncrossingMatching(frozenset({(1, 3), (2, 4)}))
    with pytest.raises(ValueError):
        NoncrossingMatching(frozenset({(1, 2), (2, 3)}))


def test_count_noncrossing_matchings():
    assert count_noncrossing_matchings(0) == 1
    assert count_noncrossing_matchings(2) == 1
    assert count_noncrossing_matchings(4) == 2
    assert count_noncrossing_matchings(6) == 5
    assert count_noncrossing_matchings(8) == 14
    catalan = {10: 42, 12: 132, 14: 429, 16: 1430, 18: 4862, 20: 16796}
    for points, count in catalan.items():
        assert count_noncrossing_matchings(points) == count
    with pytest.raises(ValueError):
        count_noncrossing_matchings(5)
    with pytest.raises(ValueError):
        count_noncrossing_matchings(MAX_MATCHING_POINTS + 2)
    # the largest count still converts to text under CPython's 4300-digit limit
    assert 2900 < len(str(count_noncrossing_matchings(MAX_MATCHING_POINTS))) < 4300


def _noncrossing_matchings(avail):
    """Every perfect noncrossing matching of the points, as tuples of chords.

    The first point pairs with a partner an odd number of places on, and
    the chord splits the rest into an inside and an outside arc.
    """
    if not avail:
        yield ()
        return
    first = avail[0]
    for i in range(1, len(avail), 2):
        chord = ((first, avail[i]),)
        for inside in _noncrossing_matchings(avail[1:i]):
            for outside in _noncrossing_matchings(avail[i + 1 :]):
                yield chord + inside + outside


def test_catalan_count_matches_the_enumeration():
    for points in range(0, 21, 2):
        matchings = list(_noncrossing_matchings(tuple(range(1, points + 1))))
        # noncrossing chords always join an odd to an even index
        assert all(a % 2 != b % 2 for m in matchings for a, b in m)
        assert len(set(matchings)) == len(matchings) == count_noncrossing_matchings(points)


# ---------------------------------------------------------------- family-pair laws

@given(st.data())
@settings(max_examples=40, deadline=None)
def test_family_pair_trail_laws(data):
    n = data.draw(st.integers(min_value=2, max_value=3))
    pg = data.draw(partitions_st)
    pb = data.draw(partitions_st)
    if len(pg) > n or len(pb) > n:
        return
    t = data.draw(st.integers(min_value=-1, max_value=1))
    greens = list(enumerate_families(TerminalSpec.from_shape(pg, n)))
    blues = list(enumerate_families(TerminalSpec.from_shape(pb, n, offset=t)))
    fg = data.draw(st.sampled_from(greens))
    fb = data.draw(st.sampled_from(blues))
    g = build_graph(fb, fg)

    points = terminal_points(g)
    locations = {q.location for q in points}
    by_location = {q.location: q for q in points}

    # instance partition
    covered = set()
    for trail in all_trails(g):
        covered |= trail.edge_instances()
    assert covered == set(g.instances())

    # every terminal's trail is path-like and joins opposite colours/parities
    matched = set()
    for q in points:
        trail = trail_at_terminal(g, q.location)
        assert trail.kind == PATH_LIKE
        a, b = trail.endpoints
        assert a == q.location
        assert b in locations, "trail from %r leaked to non-terminal %r" % (q.location, b)
        other = by_location[b]
        assert other.matching_colour != q.matching_colour
        assert other.parity != q.parity
        matched.add(frozenset((q.index, other.index)))
    assert 2 * len(matched) == len(points)
    terminal_matching(g)  # validates noncrossing on construction

    # recolouring a terminal trail conserves weight and is an involution
    if points:
        trail = trail_at_terminal(g, points[0].location)
        g2 = recolour(g, [trail])
        assert total_weight(g2) == total_weight(g)
        assert recolour(g2, [trail_at_terminal(g2, points[0].location)]) == g
