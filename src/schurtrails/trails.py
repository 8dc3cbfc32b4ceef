"""Two-coloured path graphs, changing trails, and terminal matchings.

Superposing a blue and a green family of nonintersecting lattice paths
gives a graph whose unit edges carry one or both colours.  A changing
trail walks this graph: at every vertex met by both colours it must
switch colour and orientation if an edge of the opposite colour and
opposite orientation leaves the vertex, and must stop otherwise; at a
single-colour vertex it runs straight while it can.  Tracing the trail
through a terminal point and flipping the colours along it is the local
move behind the exchange identities in this package.

A graph numbers only the columns and rows its edges touch, its frame:
point (x, y) is bit v = column * rows + row, so an east step adds the
number of rows to v and a north step adds 1.  Each colour is a layer:
east and north masks with a bit at each edge's tail, the points its
zero-length paths mark, and a mask of all its points.  One builder,
_Layer.of, writes a layer from paths given as (start, east-step heights,
end height), which a LatticePath gives through east_heights and a
tableau row already is; so pattern_objects writes a terminal pattern's
objects straight from its tableaux, in the one frame its terminals fix.
Tracing and recolouring are integer operations, and edge_pattern reads
a layer's terminals and weight off its masks; edge sets, point colours
and coordinate steps are views.  A trail keeps its frame, its integer
steps and its flip masks.  Graphs compare as frame and masks, so a
zero-length path, which has no edge, is kept only as its layer's mark,
and a recoloured graph keeps every mark no flipped edge reaches.  A
graph holds its two layers and nothing else: its families, its JSON and
its terminals are read off them, marks included, by one reader of a
layer's starts and ends, so they agree.

Orientation vocabulary: ``forward`` means right-upwards (the paths' own
direction), ``backward`` means left-downwards.
"""

from __future__ import annotations

import math
from itertools import chain, islice

from .partitions import Value
from .polyring import monomial_mul, x_var
from .schur import EAST, NORTH, LatticePath, PathFamily, spec_tableaux, tableau_weight

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

_COLOURS = (BLUE, GREEN)
_ORIENTATIONS = (FORWARD, BACKWARD)
_INDEX = {BLUE: 0, GREEN: 1, FORWARD: 0, BACKWARD: 1}

# An integer step is v << 3 | north << 2 | colour << 1 | backward, v being
# its edge's tail and colour 0 blue.  Four masks (blue east, blue north,
# green east, green north) are indexed colour * 2 + north.


def _bits(mask) -> list:
    """The set bits of a mask, highest first."""
    out = []
    while mask:
        out.append(mask.bit_length() - 1)
        mask ^= 1 << out[-1]
    return out


class _Frame:
    """The columns and rows a graph's edges touch; point (x, y) is bit column * n + row, n the rows."""

    __slots__ = ("cols", "rows", "n", "_col", "_row")

    def __init__(self, cols, rows):
        self.cols, self.rows, self.n = cols, rows, len(rows)
        self._col = {x: c for c, x in enumerate(cols)}
        self._row = {y: r for r, y in enumerate(rows)}

    @classmethod
    def of(cls, ends):
        """The frame of paths given as (start, end) pairs; a path whose start is its end has no edge."""
        cols, rows = set(), set()
        for (x, y), (u, w) in ends:
            if (x, y) != (u, w):
                cols.update(range(x, u + 1))
                rows.update(range(y, w + 1))
        return cls(tuple(sorted(cols)), tuple(sorted(rows)))

    def same(self, other) -> bool:
        return self is other or (self.cols == other.cols and self.rows == other.rows)

    def index(self, point):
        """The bit of a lattice point, or None outside the frame."""
        c, r = self._col.get(point[0]), self._row.get(point[1])
        return None if c is None or r is None else c * self.n + r

    def point(self, v) -> tuple:
        c, r = divmod(v, self.n)
        return (self.cols[c], self.rows[r])

    def points(self, mask) -> tuple:
        """The points of a mask's bits, rightmost first."""
        return tuple(map(self.point, _bits(mask)))

    def locate(self, edge):
        """(north, tail bit) of a unit right/up edge whose tail is in the frame, or None."""
        (x, y), (u, w) = edge
        north = {(1, 0): 0, (0, 1): 1}.get((u - x, w - y))
        v = self.index((x, y))
        return None if north is None or v is None else (north, v)

    def edge(self, north, v) -> tuple:
        c, r = divmod(v, self.n)
        x, y = self.cols[c], self.rows[r]
        return ((x, y), (x, y + 1) if north else (x + 1, y))


class _Layer:
    """One colour of a graph in a frame: edge masks, zero-length marks and points.

    A family is vertex-disjoint, so each point has at most one in- and one
    out-edge of a colour, and trails are deterministic.  marked has the
    marks' bits, and points a bit at every edge end and mark.
    """

    __slots__ = ("frame", "east", "north", "marks", "marked", "points")

    def __init__(self, frame, east, north, marks=frozenset(), marked=0):
        self.frame, self.east, self.north, self.marks, self.marked = frame, east, north, marks, marked
        self.points = east | north | east << frame.n | north << 1 | marked

    @classmethod
    def of(cls, paths, frame):
        """The layer of paths given as (start, east-step heights, end height); a path with no step is a mark."""
        n, east, north, marked, marks = frame.n, 0, 0, 0, []
        for start, heights, top in paths:
            v, y = frame.index(start), start[1]
            if not heights and y == top:
                marks.append(start)
                marked |= 0 if v is None else 1 << v
                continue
            for h in heights:  # a path's rows are consecutive: k north steps from v set bits v..v+k-1
                north, v = north | ((1 << h - y) - 1) << v, v + h - y
                east, v, y = east | 1 << v, v + n, h
            north |= ((1 << top - y) - 1) << v
        return cls(frame, east, north, frozenset(marks), marked)

    def edges(self) -> frozenset:
        return frozenset(self.frame.edge(d, v) for d, mask in enumerate((self.east, self.north)) for v in _bits(mask))


def _ends(layer) -> tuple:
    """(starts, ends) masks of a layer: an edge's tail and no edge's head, and the reverse; marks are in neither."""
    tails, heads = layer.east | layer.north, layer.east << layer.frame.n | layer.north << 1
    return tails & ~heads, heads & ~tails


def edge_pattern(layer):
    """((starts, ends), weight) of one colour's layer, each terminal tuple rightmost first.

    The terminals are _ends', so a zero-length path is not read.  The weight
    is x_y per east edge in row y.
    """
    frame, east, n = layer.frame, layer.east, layer.frame.n
    row = ((1 << n * len(frame.cols)) - 1) // ((1 << n) - 1) if n else 0  # the bottom row's bits
    counts = ((y, (east >> r & row).bit_count()) for r, y in enumerate(frame.rows))
    return tuple(map(frame.points, _ends(layer))), tuple((x_var(y), k) for y, k in counts if k)


def _family_of(layer) -> PathFamily:
    """A layer's paths, each start bit walked along the masks and each mark a zero-length path.

    Paths are listed by start, rightmost first, then bottom first.
    """
    frame, east, north, n = layer.frame, layer.east, layer.north, layer.frame.n
    paths = [LatticePath(mark) for mark in layer.marks]
    for v in _bits(_ends(layer)[0]):
        start, steps = frame.point(v), []
        while (east | north) >> v & 1:
            up = north >> v & 1
            steps.append(NORTH if up else EAST)
            v += 1 if up else n
        paths.append(LatticePath(start, "".join(steps)))
    return PathFamily(sorted(paths, key=lambda path: (-path.start[0], path.start[1])))


def _by_colour(blue, green):
    """Each member of either set mapped to the frozenset of the colours holding it."""
    return {v: frozenset(c for c, held in ((BLUE, blue), (GREEN, green)) if v in held) for v in blue | green}


class TwoColouredGraph(Value):
    """Superposition of a blue and a green path family, held as its two layers and nothing else.

    blue and green are read off the layers each time, rightmost path first,
    so equal graphs list their families alike.  Equality and hashing use
    the frame and the four edge masks only.  edge_colours (each unit edge
    to its colours), vertices (each point to its colours) and instances
    are views.  Graphs are immutable: recolour returns a new one.
    """

    __slots__ = ("layers",)

    def __init__(self, blue, green):
        families = tuple(f if isinstance(f, PathFamily) else PathFamily(f) for f in (blue, green))
        frame = _Frame.of((path.start, path.end) for family in families for path in family)
        paths = (((path.start, path.east_heights(), path.end[1]) for path in family) for family in families)
        super().__init__(tuple(_Layer.of(family, frame) for family in paths))

    @classmethod
    def from_key(cls, key) -> "TwoColouredGraph":
        """The graph, without zero-length paths, whose _key() is key."""
        frame = _Frame(*key[:2])
        return cls._unchecked((_Layer(frame, *key[2:4]), _Layer(frame, *key[4:])))

    frame = property(lambda self: self.layers[0].frame)
    blue = property(lambda self: _family_of(self.layers[0]))
    green = property(lambda self: _family_of(self.layers[1]))

    def _key(self):
        blue, green = self.layers
        return blue.frame.cols, blue.frame.rows, blue.east, blue.north, green.east, green.north

    def __repr__(self):
        return "TwoColouredGraph(%r, %r)" % (self.blue, self.green)

    def colour_edges(self, colour: str) -> frozenset:
        return self.layers[_INDEX[colour]].edges()

    @property
    def edge_colours(self) -> dict:
        return _by_colour(self.colour_edges(BLUE), self.colour_edges(GREEN))

    @property
    def vertices(self) -> dict:
        return _by_colour(*(frozenset(layer.frame.points(layer.points)) | layer.marks for layer in self.layers))

    def instances(self):
        """All (edge, colour) pairs, doubly-coloured edges contributing two."""
        return ((edge, colour) for colour in _COLOURS for edge in self.colour_edges(colour))

    def to_json(self) -> dict:
        return {"blue": self.blue.to_text(), "green": self.green.to_text()}

    @classmethod
    def from_json(cls, data: dict) -> "TwoColouredGraph":
        if not all(isinstance(data[colour], list) for colour in _COLOURS):
            raise TypeError("blue and green must each be a list of path texts")
        return cls(*(PathFamily.from_text(data[colour]) for colour in _COLOURS))


def build_graph(blue, green) -> TwoColouredGraph:
    """Superpose two internally nonintersecting families (cross-colour sharing allowed)."""
    return TwoColouredGraph(blue, green)


def pattern_objects(blue_spec, green_spec, most=None, refusal=None):
    """(graph, weight) for every object of a (blue, green) TerminalSpec pair, blue families outer.

    A family is a tableau of schur.spec_tableaux: path i runs from
    starts[i] up to height N, east at the heights in row i.  The objects
    share the frame of the specs' starts and ends.  Each layer and
    tableau weight is built once, the green ones listed and the blue ones
    streamed; an object is TwoColouredGraph._unchecked of its two layers,
    each a tableau's family, and its weight is the product of theirs.
    One blue family is read first, so a pair without one lists nothing.
    With most given, a pair with a blue family and more than most green
    ones, so more than most objects, raises refusal before it gives any
    object, having listed at most most + 1 green families.
    """
    frame = _Frame.of(pair for spec in (blue_spec, green_spec) for pair in zip(spec.starts, spec.ends))

    def read(spec):
        for t in spec_tableaux(spec):
            yield _Layer.of(((s, row, spec.N) for s, row in zip(spec.starts, t.rows)), frame), tableau_weight(t)

    blues = read(blue_spec)
    first = next(blues, None)
    greens = [] if first is None else list(islice(read(green_spec), None if most is None else most + 1))
    if most is not None and len(greens) > most:
        raise refusal
    if not greens:
        return
    for blue_layer, blue_weight in chain((first,), blues):
        for green_layer, green_weight in greens:
            yield TwoColouredGraph._unchecked((blue_layer, green_layer)), monomial_mul(blue_weight, green_weight)


class TerminalPoint(Value):
    """Entry of the Q-sequence of non-coincident path terminals.

    Endpoints come first, right to left, then starting points, left to
    right.  Matching colours: among endpoints blue is black and green is
    white; among starting points blue is white and green is black.
    """

    __slots__ = ("index", "location", "path_colour", "matching_colour", "parity")

    @property
    def kind(self) -> str:
        if (self.path_colour, self.matching_colour) in ((BLUE, BLACK), (GREEN, WHITE)):
            return END
        return START


def terminal_points(graph: TwoColouredGraph) -> tuple:
    """The Q-sequence: terminals of exactly one colour, ordered and coloured.

    A lattice point where both a blue and a green path end (or both
    start) is coincident and excluded; trails pass straight through such
    points, so they never terminate a trail.  The terminals are read off
    the layers: _ends' masks, and each mark as both a start and an end.
    """
    return terminal_points_from_sets(
        *(layer.marks.union(layer.frame.points(mask)) for layer in graph.layers for mask in _ends(layer))
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


class ChangingTrail(Value):
    """Maximal alternating walk; steps are (edge, colour, orientation) triples.

    Consecutive steps keep colour and orientation together: equal
    colours share the orientation, a colour change flips it.  A
    path_like trail has genuine endpoints; a cycle_like trail closes up
    and its step sequence starts at an arbitrary rotation.  Trails are
    only traced: each keeps its graph's frame, its integer steps and its
    flip masks, and spells steps out on first read.
    """

    __slots__ = ("kind", "_frame", "_ints", "_flips", "_steps")

    @classmethod
    def _traced(cls, kind, frame, ints, flips) -> "ChangingTrail":
        trail = cls._unchecked(kind, frame, ints, flips, None)
        # colour and orientation change together, so all steps share colour ^ orientation
        if len({(step ^ step >> 1) & 1 for step in ints}) > 1:
            a, b = next((a, b) for a, b in zip(ints, ints[1:]) if (a ^ a >> 1 ^ b ^ b >> 1) & 1)
            raise ValueError("colour change must flip orientation: %r -> %r" % (trail._spell(a), trail._spell(b)))
        return trail

    def _spell(self, step) -> tuple:
        return self._frame.edge(step >> 2 & 1, step >> 3), _COLOURS[step >> 1 & 1], _ORIENTATIONS[step & 1]

    def _point(self, step, at_head) -> tuple:
        return self._frame.point((step >> 3) + (1 if step & 4 else self._frame.n) * at_head)

    @property
    def steps(self) -> tuple:
        if self._steps is None:
            object.__setattr__(self, "_steps", tuple(map(self._spell, self._ints)))
        return self._steps

    def _key(self):
        return self.kind, self.steps

    def __repr__(self):
        return "ChangingTrail(kind=%r, steps=%r)" % (self.kind, self.steps)

    @property
    def start(self):
        return self._point(self._ints[0], self._ints[0] & 1)

    @property
    def end(self):
        return self._point(self._ints[-1], ~self._ints[-1] & 1)

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
        return (self.start,) + tuple(self._point(step, ~step & 1) for step in self._ints)


def _leave(layers, n, v, colour, backward):
    """The integer step leaving bit v in the colour and orientation, or None; v - 1 never wraps onto a north edge."""
    east, north = layers[colour].east, layers[colour].north
    if not backward:
        return v << 3 | colour << 1 if east >> v & 1 else v << 3 | 4 | colour << 1 if north >> v & 1 else None
    if v >= n and east >> (v - n) & 1:
        return (v - n) << 3 | colour << 1 | 1
    return (v - 1) << 3 | 4 | colour << 1 | 1 if v and north >> (v - 1) & 1 else None


def _walk(layers, n, both, seed, flips):
    """Integer steps after seed on its trail, in walk order, and whether the walk came back to seed.

    Each step is set in flips, the trail's four masks.
    """
    steps, step = [], seed
    while True:
        v, colour, backward = step >> 3, step >> 1 & 1, step & 1
        if not backward:
            v += 1 if step & 4 else n  # arrive at the head
        if both >> v & 1:
            colour, backward = colour ^ 1, backward ^ 1
        step = _leave(layers, n, v, colour, backward)
        if step is None or step == seed:
            return steps, step is not None
        k, bit = (step & 2) | (step >> 2 & 1), 1 << (step >> 3)
        assert not flips[k] & bit, "trail revisited an edge instance"
        flips[k] |= bit
        steps.append(step)


def _trace(graph, seed) -> ChangingTrail:
    """The trail through an integer step: walk on from its reversal back to the start, then on from seed."""
    layers = graph.layers
    frame = layers[0].frame
    both = layers[0].points & layers[1].points
    flips = [0, 0, 0, 0]
    flips[(seed & 2) | (seed >> 2 & 1)] = 1 << (seed >> 3)
    back, closed = _walk(layers, frame.n, both, seed ^ 1, flips)
    steps = [step ^ 1 for step in reversed(back)]
    steps.append(seed)
    if not closed:
        steps += _walk(layers, frame.n, both, seed, flips)[0]
    return ChangingTrail._traced(CYCLE_LIKE if closed else PATH_LIKE, frame, tuple(steps), tuple(flips))


def trace_trail(graph: TwoColouredGraph, start) -> ChangingTrail:
    """The unique maximal changing trail through an (edge, colour, orientation) start.

    Tracing from any instance of a trail recovers the same trail edge
    set, with the step direction following the seed.  The trail with an
    endpoint at a given lattice point comes from trail_at_terminal.
    """
    try:
        (tail, head), colour, orientation = start
    except (TypeError, ValueError):
        raise ValueError("cannot interpret trail start %r" % (start,))
    if orientation not in (FORWARD, BACKWARD):
        raise ValueError("unknown orientation %r" % (orientation,))
    edge = (tuple(tail), tuple(head))
    layer = graph.layers[_INDEX[colour]] if colour in _COLOURS else None
    at = None if layer is None else graph.frame.locate(edge)
    if at is None or not (layer.east, layer.north)[at[0]] >> at[1] & 1:
        raise ValueError("edge %r does not carry colour %s" % (edge, colour))
    return _trace(graph, at[1] << 3 | at[0] << 2 | _INDEX[colour] << 1 | _INDEX[orientation])


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
    layers = graph.layers
    n, v = layers[0].frame.n, layers[0].frame.index(location)
    candidates = []
    if v is not None:
        swap = (layers[0].points & layers[1].points) >> v & 1
        for colour, backward in ((0, 0), (0, 1), (1, 0), (1, 1)):
            # a step has no predecessor when its reversal, which arrives at v, has no successor
            step = _leave(layers, n, v, colour, backward)
            if step is not None and _leave(layers, n, v, colour ^ swap, backward ^ 1 ^ swap) is None:
                candidates.append(step)
    if not candidates:
        raise ValueError("no changing trail starts at %r" % (location,))
    if len(candidates) > 1:
        raise ValueError("%d changing trails start at %r" % (len(candidates), location))
    trail = _trace(graph, candidates[0])
    # terminal-started trails stay clear of doubly-coloured edges, which live on their own two-step cycles
    (blue, green), (blue_east, blue_north, green_east, green_north) = layers, trail._flips
    doubly = (blue_east | green_east) & blue.east & green.east or (blue_north | green_north) & blue.north & green.north
    assert not doubly, "terminal-started trail entered a doubly-coloured edge"
    return trail


def all_trails(graph: TwoColouredGraph) -> tuple:
    """Every maximal changing trail once; their instance sets partition the graph.

    Each is traced forward from its least (edge, colour) instance: tails ascend, north before east, blue first.
    """
    masks = graph._key()[2:]
    seen, trails = [0, 0, 0, 0], []
    for v in reversed(_bits(masks[0] | masks[1] | masks[2] | masks[3])):
        for k in (1, 3, 0, 2):
            if (masks[k] & ~seen[k]) >> v & 1:
                trail = _trace(graph, v << 3 | (k & 1) << 2 | (k & 2))
                assert not any(map(int.__and__, seen, trail._flips)), "trails are not instance-disjoint"
                seen = list(map(int.__or__, seen, trail._flips))
                trails.append(trail)
    return tuple(trails)


def recolour(graph: TwoColouredGraph, trails) -> TwoColouredGraph:
    """Flip the colour of every edge instance on the given trails.

    Each trail must be traced in a graph of an equal frame, and brings its
    flip masks.  The trails must be pairwise instance-disjoint, lie in the
    graph and flip both instances of a doubly-coloured edge, so the edge
    multiset and the total path weight are conserved.  Each colour must
    still leave (east & north) and enter (east << rows & north << 1) every
    point at most once.
    """
    frame, flips = graph.frame, [0, 0, 0, 0]
    for trail in trails:
        if not trail._frame.same(frame):
            raise ValueError("trail edges do not all belong to the graph")
        own = trail._flips
        if flips[0] & own[0] or flips[1] & own[1] or flips[2] & own[2] or flips[3] & own[3]:
            shared = next(step for step in trail._ints if flips[step & 2 | step >> 2 & 1] >> (step >> 3) & 1)
            raise ValueError("overlapping trails share the edge instance %r" % (trail._spell(shared)[:2],))
        flips = [flips[0] | own[0], flips[1] | own[1], flips[2] | own[2], flips[3] | own[3]]
    (blue, green), (blue_east, blue_north, green_east, green_north) = graph.layers, flips
    # an edge flipped in both colours keeps them; an edge flipped from a colour it lacks is stray
    to_blue = green_east & ~blue_east, green_north & ~blue_north
    to_green = blue_east & ~green_east, blue_north & ~green_north
    stray = blue_east & ~blue.east | green_east & ~green.east, blue_north & ~blue.north | green_north & ~green.north
    half = to_blue[0] & blue.east | to_green[0] & green.east, to_blue[1] & blue.north | to_green[1] & green.north
    if stray[0] or stray[1] or half[0] or half[1]:
        # name the first step on a faulty edge, in trail order
        faulty, steps = (stray[0] | half[0], stray[1] | half[1]), (step for trail in trails for step in trail._ints)
        north, v = next((s >> 2 & 1, s >> 3) for s in steps if faulty[s >> 2 & 1] >> (s >> 3) & 1)
        if not stray[north] >> v & 1:
            raise ValueError("the doubly-coloured edge %r must flip both colours or neither" % (frame.edge(north, v),))
        raise ValueError("trail edges do not all belong to the graph")
    new = (
        (blue.east & ~to_green[0] | to_blue[0], blue.north & ~to_green[1] | to_blue[1]),
        (green.east & ~to_blue[0] | to_green[0], green.north & ~to_blue[1] | to_green[1]),
    )
    n = frame.n
    for east, north in new:
        for twice, degree in ((east & north, "out"), (east << n & north << 1, "in")):
            if twice:
                point = frame.point(twice.bit_length() - 1)
                raise ValueError("vertex %r has %s-degree 2 within one colour" % (point, degree))
    # a marked point that a flipped edge reaches is held by its edges alone
    moved_east, moved_north = to_blue[0] | to_green[0], to_blue[1] | to_green[1]
    touched = moved_east | moved_north | moved_east << n | moved_north << 1
    layers = []
    for layer, (east, north) in zip((blue, green), new):
        marks, marked = layer.marks, layer.marked
        if marked & touched:
            marks, marked = marks.difference(frame.points(marked & touched)), marked & ~touched
        layers.append(_Layer(frame, east, north, marks, marked))
    return TwoColouredGraph._unchecked(tuple(layers))


class NoncrossingMatching(Value):
    """Set of chords on 1..2k indices, no two interleaving."""

    __slots__ = ("pairs",)

    def __init__(self, pairs):
        pairs = frozenset((min(a, b), max(a, b)) for a, b in pairs)
        used = [i for pair in pairs for i in pair]
        if len(used) != len(set(used)):
            raise ValueError("matching repeats an index")
        pl = sorted(pairs)
        for i, (a, b) in enumerate(pl):
            for c, d in pl[i + 1 :]:
                if a < c < b < d:
                    raise ValueError("chords %r and %r cross" % ((a, b), (c, d)))
        super().__init__(pairs)


def terminal_matching(graph: TwoColouredGraph) -> NoncrossingMatching:
    """Matching on the Q-sequence induced by the path_like changing trails.

    A trail traced from a terminal starts at a step with no predecessor,
    so it is path_like, and its far end is a terminal of one colour, so on
    the Q-sequence too.  The theorem's hypotheses (families of tableau
    type) make every chord join a black to a white point and an odd to an
    even index, with no two chords crossing; a graph where a trail joins
    two points of one matching colour or one parity is outside them, and
    is refused with ValueError.
    """
    points = terminal_points(graph)
    by_location = {q.location: q for q in points}
    pairs = set()
    for q in points:
        a, b = trail_at_terminal(graph, q.location).endpoints
        qa, qb = by_location[a], by_location[b]
        pair = (min(qa.index, qb.index), max(qa.index, qb.index))
        pairs.add(pair)
        if qa.matching_colour == qb.matching_colour:
            raise ValueError("trail joined two %s points" % qa.matching_colour)
        if qa.parity == qb.parity:
            raise ValueError("trail joined two %s-indexed points" % qa.parity)
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
