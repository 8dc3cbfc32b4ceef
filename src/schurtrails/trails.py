"""Two-coloured path graphs, changing trails, and terminal matchings.

Superposing a blue and a green family of nonintersecting lattice paths
gives a graph whose unit edges carry one or both colours.  A changing
trail walks this graph: at every vertex met by both colours it must
switch colour and orientation if an edge of the opposite colour and
opposite orientation leaves the vertex, and must stop otherwise; at a
single-colour vertex it runs straight while it can.  Tracing the trail
through a terminal point and flipping the colours along it is the local
move behind the exchange identities in this package.

A graph is its edge-colour map; recolouring flips the trail's edge
instances in a copy.  A zero-length path marks its point but has no
edge, so graph equality ignores it, and a recoloured graph, whose
families are read off its edges, has none.

Orientation vocabulary: ``forward`` means right-upwards (the paths' own
direction), ``backward`` means left-downwards.
"""

from __future__ import annotations

from dataclasses import dataclass

from .schur import EAST, NORTH, LatticePath, PathFamily

BLUE = "blue"
GREEN = "green"
BLACK = "black"
WHITE = "white"
ODD = "odd"
EVEN = "even"
FORWARD = "forward"
BACKWARD = "backward"
PATH_LIKE = "path_like"
CYCLE_LIKE = "cycle_like"

START = "start"
END = "end"

_NONE = frozenset()
_ONLY = {BLUE: frozenset((BLUE,)), GREEN: frozenset((GREEN,))}
_BOTH = frozenset((BLUE, GREEN))


def other_colour(colour: str) -> str:
    return GREEN if colour == BLUE else BLUE


def other_orientation(orientation: str) -> str:
    return BACKWARD if orientation == FORWARD else FORWARD


class TwoColouredGraph:
    """Superposition of a blue and a green path family, held as edge colours.

    edge_colours maps each unit edge (tail, head) to the frozenset of its
    colours, and vertices maps each point to the colours incident to it.
    Within one colour each vertex has at most one in- and one out-edge
    (the family is vertex-disjoint), which is what makes changing trails
    deterministic.  blue and green are the families the graph was built
    from, or, after a recolour, read off the edges on first use.
    Equality and hashing use edge_colours only.  Graphs are not changed
    after construction: recolour returns a new one.
    """

    __slots__ = ("edge_colours", "vertices", "_families")

    def __init__(self, blue, green):
        self._families = {}
        self.edge_colours = edge_colours = {}
        self.vertices = vertices = {}
        for colour, family in ((BLUE, blue), (GREEN, green)):
            if not isinstance(family, PathFamily):
                family = PathFamily(family)
            self._families[colour] = family
            # a family is vertex-disjoint, so a point or edge met twice has both colours
            only = _ONLY[colour]
            for path in family:
                points = path.vertices()
                for v in points:
                    vertices[v] = _BOTH if v in vertices else only
                for edge in zip(points, points[1:]):
                    edge_colours[edge] = _BOTH if edge in edge_colours else only

    def family(self, colour: str) -> PathFamily:
        """The colour's path family: as built, or read off the edges once."""
        if colour not in self._families:
            self._families[colour] = family_from_edges(self.colour_edges(colour))
        return self._families[colour]

    blue = property(lambda self: self.family(BLUE))
    green = property(lambda self: self.family(GREEN))

    def __eq__(self, other):
        if isinstance(other, TwoColouredGraph):
            return self.edge_colours == other.edge_colours
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.edge_colours.items()))

    def __repr__(self):
        return "TwoColouredGraph(%r, %r)" % (self.blue, self.green)

    def is_intersection(self, v) -> bool:
        """True when both colours are incident to v (a mere touch counts)."""
        return len(self.vertices.get(v, ())) == 2

    def colour_edges(self, colour: str) -> frozenset:
        return frozenset(e for e, cs in self.edge_colours.items() if colour in cs)

    def instances(self):
        """All (edge, colour) pairs, doubly-coloured edges contributing two."""
        for edge, colours in self.edge_colours.items():
            for colour in colours:
                yield edge, colour

    def to_json(self) -> dict:
        return {"blue": self.blue.to_text(), "green": self.green.to_text()}

    @classmethod
    def from_json(cls, data: dict) -> "TwoColouredGraph":
        return cls(PathFamily.from_text(data["blue"]), PathFamily.from_text(data["green"]))


def build_graph(blue, green) -> TwoColouredGraph:
    """Superpose two internally nonintersecting families (cross-colour sharing allowed)."""
    return TwoColouredGraph(blue, green)


@dataclass(frozen=True)
class TerminalPoint:
    """Entry of the Q-sequence of non-coincident path terminals.

    Endpoints come first, right to left, then starting points, left to
    right.  Matching colours: among endpoints blue is black and green is
    white; among starting points blue is white and green is black.
    """

    index: int
    location: tuple
    path_colour: str
    matching_colour: str
    parity: str

    @property
    def kind(self) -> str:
        if (self.path_colour, self.matching_colour) in ((BLUE, BLACK), (GREEN, WHITE)):
            return END
        return START


def terminal_points(graph: TwoColouredGraph) -> tuple:
    """The Q-sequence: terminals of exactly one colour, ordered and coloured.

    A lattice point where both a blue and a green path end (or both
    start) is coincident and excluded; trails pass straight through such
    points, so they never terminate a trail.
    """
    return terminal_points_from_sets(
        {p.start for p in graph.blue},
        {p.end for p in graph.blue},
        {p.start for p in graph.green},
        {p.end for p in graph.green},
    )


def terminal_points_from_sets(blue_starts, blue_ends, green_starts, green_ends) -> tuple:
    """Q-sequence computed from bare terminal location sets.

    The sequence depends only on where paths start and end, so terminal
    data can be ordered and coloured before (or without) enumerating any
    family that realizes it.
    """
    blue_starts, blue_ends = set(blue_starts), set(blue_ends)
    green_starts, green_ends = set(green_starts), set(green_ends)
    top = [(pt, BLUE, BLACK) for pt in blue_ends - green_ends]
    top += [(pt, GREEN, WHITE) for pt in green_ends - blue_ends]
    top.sort(key=lambda item: (-item[0][0], item[0][1]))
    bottom = [(pt, BLUE, WHITE) for pt in blue_starts - green_starts]
    bottom += [(pt, GREEN, BLACK) for pt in green_starts - blue_starts]
    bottom.sort(key=lambda item: item[0])
    points = tuple(
        TerminalPoint(index, pt, colour, matching, ODD if index % 2 else EVEN)
        for index, (pt, colour, matching) in enumerate(top + bottom, start=1)
    )
    assert len(points) % 2 == 0
    return points


@dataclass(frozen=True)
class ChangingTrail:
    """Maximal alternating walk; steps are (edge, colour, orientation) triples.

    Consecutive steps keep colour and orientation together: equal
    colours share the orientation, a colour change flips it.  A
    path_like trail has genuine endpoints; a cycle_like trail closes up
    and its step sequence starts at an arbitrary rotation.
    """

    kind: str
    steps: tuple

    def __post_init__(self):
        if not self.steps:
            raise ValueError("a changing trail has at least one step")
        for (e1, c1, o1), (e2, c2, o2) in zip(self.steps, self.steps[1:]):
            if (c1 == c2) != (o1 == o2):
                raise ValueError("colour change must flip orientation: %r -> %r" % ((e1, c1, o1), (e2, c2, o2)))

    @property
    def start(self):
        return _begin(self.steps[0])

    @property
    def end(self):
        return _arrival(self.steps[-1])

    @property
    def endpoints(self):
        """Terminal vertices (path_like only; None for cycles)."""
        if self.kind != PATH_LIKE:
            return None
        return (self.start, self.end)

    def edge_instances(self) -> frozenset:
        return frozenset((edge, colour) for edge, colour, _ in self.steps)

    def visited_vertices(self):
        """Vertices in walk order: begin of first step, then each arrival."""
        out = [_begin(self.steps[0])]
        out.extend(_arrival(s) for s in self.steps)
        return tuple(out)


def _begin(step):
    (tail, head), _, orientation = step
    return tail if orientation == FORWARD else head


def _arrival(step):
    (tail, head), _, orientation = step
    return head if orientation == FORWARD else tail


def _reverse(step):
    edge, colour, orientation = step
    return (edge, colour, other_orientation(orientation))


def _edges_at(v, orientation):
    """The two unit edges leaving v forward (right, up) or backward (left, down)."""
    x, y = v
    if orientation == FORWARD:
        return ((v, (x + 1, y)), (v, (x, y + 1)))
    return (((x - 1, y), v), ((x, y - 1), v))


def _leaving(graph, v, colour, orientation):
    for edge in _edges_at(v, orientation):
        if colour in graph.edge_colours.get(edge, _NONE):
            return edge
    return None


def _successor(graph, step):
    _, colour, orientation = step
    v = _arrival(step)
    if graph.is_intersection(v):
        colour, orientation = other_colour(colour), other_orientation(orientation)
    edge = _leaving(graph, v, colour, orientation)
    return (edge, colour, orientation) if edge is not None else None


def _walk(graph, seed, seen):
    """Steps after seed in walk order, and whether the walk came back to seed."""
    steps = []
    cur = seed
    while True:
        cur = _successor(graph, cur)
        if cur is None:
            return steps, False
        if cur == seed:
            return steps, True
        key = (cur[0], cur[1])
        assert key not in seen, "trail revisited an edge instance"
        seen.add(key)
        steps.append(cur)


def _trail_from_step(graph, step0):
    """Walk back from step0 by walking on from its reversal, then on from step0."""
    seen = {(step0[0], step0[1])}
    back, closed = _walk(graph, _reverse(step0), seen)
    steps = [_reverse(step) for step in reversed(back)]
    steps.append(step0)
    if closed:
        return ChangingTrail(kind=CYCLE_LIKE, steps=tuple(steps))
    ahead, _ = _walk(graph, step0, seen)
    return ChangingTrail(kind=PATH_LIKE, steps=tuple(steps + ahead))


def _start_instances(graph, location):
    """Edge instances leaving the point that no arrival feeds into.

    A step has no predecessor when its reversal has no successor.  A
    trail ends at v exactly when its reversal starts at v with such an
    instance, so these are the first steps of the trails with an
    endpoint at the location.
    """
    found = []
    for colour in (BLUE, GREEN):
        for orientation in (FORWARD, BACKWARD):
            edge = _leaving(graph, location, colour, orientation)
            if edge is not None and _successor(graph, (edge, colour, other_orientation(orientation))) is None:
                found.append((edge, colour, orientation))
    return found


def _seed_step(graph, start):
    try:
        (tail, head), colour, orientation = start
    except (TypeError, ValueError):
        raise ValueError("cannot interpret trail start %r" % (start,))
    if orientation not in (FORWARD, BACKWARD):
        raise ValueError("unknown orientation %r" % (orientation,))
    edge = (tuple(tail), tuple(head))
    if colour not in graph.edge_colours.get(edge, _NONE):
        raise ValueError("edge %r does not carry colour %s" % (edge, colour))
    return (edge, colour, orientation)


def trace_trail(graph: TwoColouredGraph, start) -> ChangingTrail:
    """The unique maximal changing trail through an (edge, colour, orientation) start.

    Tracing from any instance of a trail recovers the same trail edge
    set, with the step direction following the seed.  The trail with an
    endpoint at a given lattice point comes from trail_at_terminal.
    """
    return _trail_from_step(graph, _seed_step(graph, start))


def trail_at_terminal(graph: TwoColouredGraph, location) -> ChangingTrail:
    """The trail with an endpoint at the given lattice point.

    The first step is the unique leaving edge instance without a
    predecessor; a terminal point another path passes through can be
    interior to that other trail, which is why the terminal's own final
    edge is not necessarily the right seed.  Raises ValueError when no
    trail has an endpoint at the point, or when two have: with N = 1 a
    start of one colour can sit on an end of the other.
    """
    location = (int(location[0]), int(location[1]))
    candidates = _start_instances(graph, location)
    if not candidates:
        raise ValueError("no changing trail starts at %r" % (location,))
    if len(candidates) > 1:
        raise ValueError("%d changing trails start at %r" % (len(candidates), location))
    trail = _trail_from_step(graph, candidates[0])
    # terminal-started trails stay clear of doubly-coloured edges, which
    # live on their own two-step cycles
    assert all(
        len(graph.edge_colours[edge]) == 1 for edge, _, _ in trail.steps
    ), "terminal-started trail entered a doubly-coloured edge"
    return trail


def all_trails(graph: TwoColouredGraph) -> tuple:
    """Every maximal changing trail once; their instance sets partition the graph."""
    seen = set()
    trails = []
    for edge in sorted(graph.edge_colours):
        for colour in sorted(graph.edge_colours[edge]):
            if (edge, colour) in seen:
                continue
            trail = trace_trail(graph, (edge, colour, FORWARD))
            trails.append(trail)
            overlap = trail.edge_instances() & seen
            assert not overlap, "trails are not instance-disjoint: %r" % (overlap,)
            seen |= trail.edge_instances()
    return tuple(trails)


def family_from_edges(edges) -> PathFamily:
    """Reassemble one colour's edge set into its nonintersecting family.

    Paths are listed by start, rightmost first.  Raises when the edges
    are not unit right/up steps forming vertex-disjoint monotone paths;
    monotone steps cannot close a cycle, so every edge lies on a path.
    """
    edges = set((tuple(t), tuple(h)) for t, h in edges)
    out = {}
    inc = {}
    for tail, head in edges:
        dx, dy = head[0] - tail[0], head[1] - tail[1]
        if (dx, dy) not in ((1, 0), (0, 1)):
            raise ValueError("edge %r is not a unit right/up step" % ((tail, head),))
        if tail in out:
            raise ValueError("vertex %r has out-degree 2 within one colour" % (tail,))
        if head in inc:
            raise ValueError("vertex %r has in-degree 2 within one colour" % (head,))
        out[tail] = (tail, head)
        inc[head] = (tail, head)
    starts = [v for v in out if v not in inc]
    paths = []
    for v in sorted(starts, key=lambda p: (-p[0], p[1])):
        cur = v
        steps = []
        while cur in out:
            tail, head = out[cur]
            steps.append(EAST if head[0] > tail[0] else NORTH)
            cur = head
        paths.append(LatticePath(v, "".join(steps)))
    return PathFamily(paths)


def _point_colours(edge_colours, v):
    """Colours of the edges at v; within one colour at most one enters and one leaves."""
    colours = _NONE
    for orientation, degree in ((FORWARD, "out"), (BACKWARD, "in")):
        first, second = map(edge_colours.get, _edges_at(v, orientation), (_NONE, _NONE))
        if first & second:
            raise ValueError("vertex %r has %s-degree 2 within one colour" % (v, degree))
        colours = colours | first | second
    return colours


def recolour(graph: TwoColouredGraph, trails) -> TwoColouredGraph:
    """Flip the colour of every edge instance on the given trails.

    The trails must be pairwise instance-disjoint and flip both instances
    of a doubly-coloured edge, so the edge multiset and the total path
    weight are conserved.  Only the flipped edges and the points they
    touch are updated, and each colour must still enter and leave every
    touched point at most once.
    """
    flips = {}
    for trail in trails:
        for edge, colour, _ in trail.steps:
            if colour in flips.setdefault(edge, set()):
                raise ValueError("overlapping trails share the edge instance %r" % ((edge, colour),))
            flips[edge].add(colour)
    edge_colours = dict(graph.edge_colours)
    touched = set()
    for edge, colours in flips.items():
        carried = edge_colours.get(edge, _NONE)
        if not colours <= carried:
            raise ValueError("trail edges do not all belong to the graph")
        if colours != carried:
            raise ValueError("the doubly-coloured edge %r must flip both colours or neither" % (edge,))
        if len(carried) == 1:
            edge_colours[edge] = _ONLY[other_colour(*carried)]
            touched.update(edge)
    vertices = dict(graph.vertices)
    for v in touched:
        vertices[v] = _point_colours(edge_colours, v)
    image = object.__new__(TwoColouredGraph)
    image.edge_colours, image.vertices, image._families = edge_colours, vertices, {}
    return image


@dataclass(frozen=True)
class NoncrossingMatching:
    """Set of chords on 1..2k indices, no two interleaving."""

    pairs: frozenset

    def __post_init__(self):
        pairs = frozenset((min(a, b), max(a, b)) for a, b in self.pairs)
        object.__setattr__(self, "pairs", pairs)
        used = [i for pair in pairs for i in pair]
        if len(used) != len(set(used)):
            raise ValueError("matching repeats an index")
        pl = sorted(pairs)
        for i, (a, b) in enumerate(pl):
            for c, d in pl[i + 1 :]:
                if a < c < b < d:
                    raise ValueError("chords %r and %r cross" % ((a, b), (c, d)))


def terminal_matching(graph: TwoColouredGraph) -> NoncrossingMatching:
    """Matching on the Q-sequence induced by the path_like changing trails.

    Every chord joins a black to a white point and an odd to an even
    index, and no two chords cross.
    """
    points = terminal_points(graph)
    by_location = {q.location: q for q in points}
    pairs = set()
    for q in points:
        trail = trail_at_terminal(graph, q.location)
        if trail.kind != PATH_LIKE:
            continue
        a, b = trail.endpoints
        qa = by_location.get(a)
        qb = by_location.get(b)
        if qa is None or qb is None:
            continue
        pair = (min(qa.index, qb.index), max(qa.index, qb.index))
        pairs.add(pair)
        assert qa.matching_colour != qb.matching_colour, "trail joined two %s points" % qa.matching_colour
        assert qa.parity != qb.parity, "trail joined two %s-indexed points" % qa.parity
    return NoncrossingMatching(frozenset(pairs))


#: Most points count_noncrossing_matchings enumerates: Catalan(12) = 208012
#: matchings, and every two more points cost about four times as much.
MAX_MATCHING_POINTS = 24


def count_noncrossing_matchings(points: int) -> int:
    """Perfect noncrossing matchings on the given even number of points.

    Generates only the noncrossing matchings: the first point pairs with
    a partner an odd number of places on, and the chord between them
    splits the remaining points into an inside arc and an outside arc
    that are matched independently, so the count is Catalan(points / 2).
    Every matching counted is checked to join odd to even indices, which
    is forced for noncrossing chords.  More than MAX_MATCHING_POINTS
    points are refused with ValueError.
    """
    points = int(points)
    if points < 0 or points % 2:
        raise ValueError("need an even, nonnegative number of points")
    if points > MAX_MATCHING_POINTS:
        raise ValueError("at most %d points are enumerated, got %d" % (MAX_MATCHING_POINTS, points))

    def matchings(avail):
        if not avail:
            yield ()
            return
        first = avail[0]
        for i in range(1, len(avail), 2):
            chord = ((first, avail[i]),)
            for inside in matchings(avail[1:i]):
                for outside in matchings(avail[i + 1 :]):
                    yield chord + inside + outside

    count = 0
    for m in matchings(tuple(range(1, points + 1))):
        assert all(a % 2 != b % 2 for a, b in m)
        count += 1
    return count
