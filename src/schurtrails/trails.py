"""Two-coloured path graphs, changing trails, and terminal matchings.

Superposing a blue and a green family of nonintersecting lattice paths
gives a graph whose unit edges carry one or both colours.  A changing
trail walks this graph: at every vertex met by both colours it must
switch colour and orientation if an edge of the opposite colour and
opposite orientation leaves the vertex, and must stop otherwise; at a
single-colour vertex it runs straight while it can.  Tracing the trail
through a terminal point and flipping the colours along it is the local
move behind the exchange identities in this package.

A graph holds one layer per colour: its edge set, the points its
zero-length paths mark, and tail-to-head and head-to-tail maps built on
the first trace.  A family's layer is built once and kept on the family.
edge_pattern reads one colour's edge set back as its terminals and weight.
A trail step is one map lookup; recolouring moves the flipped edges
between the two edge sets and checks degrees only at their ends.  A
zero-length path has no edge, so graph equality ignores it, and a
recoloured graph, whose families are read off its edges, has none.

Orientation vocabulary: ``forward`` means right-upwards (the paths' own
direction), ``backward`` means left-downwards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .partitions import Value
from .polyring import x_monomial
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

_ONLY = {BLUE: frozenset((BLUE,)), GREEN: frozenset((GREEN,))}
_BOTH = frozenset((BLUE, GREEN))
_OTHER = {BLUE: GREEN, GREEN: BLUE, FORWARD: BACKWARD, BACKWARD: FORWARD}


class _Layer:
    """One colour of a graph: its edges, the points its zero-length paths mark, and lazy maps.

    A family is vertex-disjoint, so each point has at most one in- and
    one out-edge of a colour: the maps are well defined, and trails are
    deterministic.
    """

    __slots__ = ("edges", "marks", "_maps")

    def __init__(self, edges, marks):
        self.edges, self.marks, self._maps = edges, marks, None

    def maps(self):
        """(tail -> head, head -> tail, points), built once; the points are edge ends and marks."""
        if self._maps is None:
            succ = dict(self.edges)
            pred = {head: tail for tail, head in self.edges}
            self._maps = (succ, pred, succ.keys() | pred.keys() | self.marks)
        return self._maps


def _family_layer(family):
    """The family's layer, built on first use and kept on the immutable family."""
    if family._layer is None:
        edges = frozenset(edge for path in family for edge in path.edges())
        marks = frozenset(path.start for path in family if not path.steps)
        object.__setattr__(family, "_layer", _Layer(edges, marks))
    return family._layer


def family_edges(family) -> frozenset:
    """The family's edge set, held by its layer; zero-length paths add no edge."""
    return _family_layer(family).edges


def edge_pattern(edges):
    """((starts, ends), weight) of one colour's edge set, each terminal tuple rightmost first.

    A start has an out-edge and no in-edge, an end the reverse; a zero-length
    path has no edge and is not read.  The weight is x_y per east edge at height y.
    """
    tails = {tail for tail, _ in edges}
    heads = {head for _, head in edges}
    terminals = tuple(sorted(tails - heads, reverse=True)), tuple(sorted(heads - tails, reverse=True))
    return terminals, x_monomial(tail[1] for tail, head in edges if tail[1] == head[1])


def _by_colour(blue, green):
    """Each member of either set mapped to the frozenset of the colours holding it."""
    out = dict.fromkeys(blue, _ONLY[BLUE])
    out.update(dict.fromkeys(green, _ONLY[GREEN]))
    out.update(dict.fromkeys(blue & green, _BOTH))
    return out


class TwoColouredGraph(Value):
    """Superposition of a blue and a green path family, held as one layer per colour.

    blue and green are the families the graph was built from, or, after a
    recolour, read off the edges on first use.  Equality and hashing use
    the two edge sets only.  edge_colours (each unit edge to its colours)
    and vertices (each point to the colours at it) are derived views.
    Graphs are immutable: recolour returns a new one.
    """

    __slots__ = ("layers", "_families")

    def __init__(self, blue, green):
        if not isinstance(blue, PathFamily):
            blue = PathFamily(blue)
        if not isinstance(green, PathFamily):
            green = PathFamily(green)
        object.__setattr__(self, "_families", {BLUE: blue, GREEN: green})
        object.__setattr__(self, "layers", {BLUE: _family_layer(blue), GREEN: _family_layer(green)})

    def family(self, colour: str) -> PathFamily:
        """The colour's path family: as built, or read off the edges once."""
        if colour not in self._families:
            self._families[colour] = family_from_edges(self.colour_edges(colour))
        return self._families[colour]

    blue = property(lambda self: self.family(BLUE))
    green = property(lambda self: self.family(GREEN))

    def _key(self):
        return self.layers[BLUE].edges, self.layers[GREEN].edges

    def __repr__(self):
        return "TwoColouredGraph(%r, %r)" % (self.blue, self.green)

    def colour_edges(self, colour: str) -> frozenset:
        return self.layers[colour].edges

    @property
    def edge_colours(self) -> dict:
        return _by_colour(self.colour_edges(BLUE), self.colour_edges(GREEN))

    @property
    def vertices(self) -> dict:
        return _by_colour(self.layers[BLUE].maps()[2], self.layers[GREEN].maps()[2])

    def instances(self):
        """All (edge, colour) pairs, doubly-coloured edges contributing two."""
        return ((edge, colour) for colour, layer in self.layers.items() for edge in layer.edges)

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
        return (_begin(self.steps[0]),) + tuple(map(_arrival, self.steps))


def _begin(step):
    (tail, head), _, orientation = step
    return tail if orientation == FORWARD else head


def _arrival(step):
    (tail, head), _, orientation = step
    return head if orientation == FORWARD else tail


def _reverse(step):
    edge, colour, orientation = step
    return (edge, colour, _OTHER[orientation])


def _maps(graph):
    return {BLUE: graph.layers[BLUE].maps(), GREEN: graph.layers[GREEN].maps()}


def _after(maps, step):
    """The steps that follow step on its trail, in walk order; one map lookup each."""
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


def _walk(maps, seed, seen):
    """Steps after seed in walk order, and whether the walk came back to seed."""
    steps = []
    for step in _after(maps, seed):
        if step == seed:
            return steps, True
        key = (step[0], step[1])
        assert key not in seen, "trail revisited an edge instance"
        seen.add(key)
        steps.append(step)
    return steps, False


def _trail_from_step(maps, step0):
    """Walk back from step0 by walking on from its reversal, then on from step0."""
    seen = {(step0[0], step0[1])}
    back, closed = _walk(maps, _reverse(step0), seen)
    steps = [_reverse(step) for step in reversed(back)]
    steps.append(step0)
    if closed:
        return ChangingTrail(kind=CYCLE_LIKE, steps=tuple(steps))
    ahead, _ = _walk(maps, step0, seen)
    return ChangingTrail(kind=PATH_LIKE, steps=tuple(steps + ahead))


def _start_instances(maps, location):
    """Edge instances leaving the point that no arrival feeds into.

    A step has no predecessor when its reversal has no successor; these
    are the first steps of the trails with an endpoint at the location.
    """
    found = []
    for colour in (BLUE, GREEN):
        succ, pred, _ = maps[colour]
        for step in (
            ((location, succ.get(location)), colour, FORWARD),
            ((pred.get(location), location), colour, BACKWARD),
        ):
            if None not in step[0] and next(_after(maps, _reverse(step)), None) is None:
                found.append(step)
    return found


def _seed_step(graph, start):
    try:
        (tail, head), colour, orientation = start
    except (TypeError, ValueError):
        raise ValueError("cannot interpret trail start %r" % (start,))
    if orientation not in (FORWARD, BACKWARD):
        raise ValueError("unknown orientation %r" % (orientation,))
    edge = (tuple(tail), tuple(head))
    if colour not in graph.layers or edge not in graph.layers[colour].edges:
        raise ValueError("edge %r does not carry colour %s" % (edge, colour))
    return (edge, colour, orientation)


def trace_trail(graph: TwoColouredGraph, start) -> ChangingTrail:
    """The unique maximal changing trail through an (edge, colour, orientation) start.

    Tracing from any instance of a trail recovers the same trail edge
    set, with the step direction following the seed.  The trail with an
    endpoint at a given lattice point comes from trail_at_terminal.
    """
    return _trail_from_step(_maps(graph), _seed_step(graph, start))


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
    maps = _maps(graph)
    candidates = _start_instances(maps, location)
    if not candidates:
        raise ValueError("no changing trail starts at %r" % (location,))
    if len(candidates) > 1:
        raise ValueError("%d changing trails start at %r" % (len(candidates), location))
    trail = _trail_from_step(maps, candidates[0])
    # terminal-started trails stay clear of doubly-coloured edges, which
    # live on their own two-step cycles
    blue, green = graph.colour_edges(BLUE), graph.colour_edges(GREEN)
    assert not any(
        edge in blue and edge in green for edge, _, _ in trail.steps
    ), "terminal-started trail entered a doubly-coloured edge"
    return trail


def all_trails(graph: TwoColouredGraph) -> tuple:
    """Every maximal changing trail once; their instance sets partition the graph."""
    seen = set()
    trails = []
    for edge, colour in sorted(graph.instances()):
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


def recolour(graph: TwoColouredGraph, trails) -> TwoColouredGraph:
    """Flip the colour of every edge instance on the given trails.

    The trails must be pairwise instance-disjoint and flip both instances
    of a doubly-coloured edge, so the edge multiset and the total path
    weight are conserved.  The flipped edges move between the two edge
    sets.  Each colour must still enter and leave every end of a flipped
    edge at most once; the source obeys this, so only the unit step beside
    each newly coloured edge is looked up.
    """
    steps = [step for trail in trails for step in trail.steps]
    flips = {BLUE: set(), GREEN: set()}
    for edge, colour, _ in steps:
        flipped = flips.setdefault(colour, set())
        if edge in flipped:
            raise ValueError("overlapping trails share the edge instance %r" % ((edge, colour),))
        flipped.add(edge)
    blue, green = graph.layers[BLUE], graph.layers[GREEN]
    from_blue, from_green = flips.pop(BLUE), flips.pop(GREEN)
    to_blue, to_green = from_green - from_blue, from_blue - from_green
    stray = (from_blue - blue.edges).union(from_green - green.edges, *flips.values())
    half = (to_blue & blue.edges) | (to_green & green.edges)
    if stray or half:
        edge = next(edge for edge, _, _ in steps if edge in stray or edge in half)
        if edge in stray:
            raise ValueError("trail edges do not all belong to the graph")
        raise ValueError("the doubly-coloured edge %r must flip both colours or neither" % (edge,))
    # a doubly-coloured edge flipped both ways keeps its colours
    blue_edges, green_edges = (blue.edges - to_green) | to_blue, (green.edges - to_blue) | to_green
    for edges, flipped in ((blue_edges, to_blue), (green_edges, to_green)):
        for tail, head in flipped:
            (x, y), (u, w) = tail, head
            dx, dy = u - x, w - y  # the other unit step is (dy, dx)
            if (tail, (x + dy, y + dx)) in edges:
                raise ValueError("vertex %r has out-degree 2 within one colour" % (tail,))
            if ((u - dy, w - dx), head) in edges:
                raise ValueError("vertex %r has in-degree 2 within one colour" % (head,))
    # a marked point that a flipped edge reaches is held by its edges alone
    touched = {v for edge in to_blue | to_green for v in edge} if blue.marks or green.marks else ()
    layers = {
        BLUE: _Layer(blue_edges, blue.marks.difference(touched)),
        GREEN: _Layer(green_edges, green.marks.difference(touched)),
    }
    image = object.__new__(TwoColouredGraph)
    object.__setattr__(image, "_families", {})
    object.__setattr__(image, "layers", layers)
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
    index, and no two chords cross.  A trail traced from a terminal starts
    at a step with no predecessor, so it is path_like, and its far end is
    a terminal of one colour, so on the Q-sequence too.
    """
    points = terminal_points(graph)
    by_location = {q.location: q for q in points}
    pairs = set()
    for q in points:
        a, b = trail_at_terminal(graph, q.location).endpoints
        qa, qb = by_location[a], by_location[b]
        pair = (min(qa.index, qb.index), max(qa.index, qb.index))
        pairs.add(pair)
        assert qa.matching_colour != qb.matching_colour, "trail joined two %s points" % qa.matching_colour
        assert qa.parity != qb.parity, "trail joined two %s-indexed points" % qa.parity
    return NoncrossingMatching(frozenset(pairs))


#: Most points count_noncrossing_matchings counts.  The count is a closed
#: form, so the cap only refuses outputs too long to print: Catalan(5000) has
#: about 3000 digits, under CPython's default limit of 4300 digits on
#: int-to-text conversion, and prints in well under a second.
MAX_MATCHING_POINTS = 10000


def count_noncrossing_matchings(points: int) -> int:
    """Perfect noncrossing matchings on the given even number of points.

    The first point pairs with a partner an odd number of places on, and
    the chord between them splits the remaining points into an inside
    and an outside arc matched independently, so the count is the
    Catalan number C(2k, k) / (k + 1) for k = points / 2.  More than
    MAX_MATCHING_POINTS points are refused with ValueError.
    """
    points = int(points)
    if points < 0 or points % 2:
        raise ValueError("need an even, nonnegative number of points")
    if points > MAX_MATCHING_POINTS:
        raise ValueError("at most %d points are counted, got %d" % (MAX_MATCHING_POINTS, points))
    k = points // 2
    return math.comb(2 * k, k) // (k + 1)
