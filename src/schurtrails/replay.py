"""The two combinatorial replays behind the window-exchange identities.

identities checks the polynomial identities; this module replays
Goulden's recolouring of changing trails object by object.  Both replays
run one step, _moved_objects: for every object trails.pattern_objects
lists for a terminal pattern, all in one frame, it traces the changing
trails at the selected points, recolours them and reads the image.
explore_orbit runs that step on every pattern it reaches and closes the
move, tallying both sides of the resulting object bijection;
bijection_audit runs it once, on the left side of the window exchange
with one selected point, and checks the images by counting them into the
right-side layouts, which it never enumerates.  Both are bounded by
MAX_AUDIT_OBJECTS: the audit counts its objects before it starts, and
the orbit stops once it has moved more.  The window exchange and the
rule that sets N are identities' _window_exchange and _alphabet.

Objects compare as graph keys: the frame's columns and rows and each
colour's east and north edge masks over it.  A pattern is a (blue,
green) pair of (starts, ends) tuples of the paths with an edge, read by
trails.edge_pattern off an image's layers and by trails.spec_pattern
off a TerminalSpec pair.  The specs feed trails.pattern_objects, which
writes the objects straight from tableaux.  No path family is built:
one is spelled out only for a message.
"""

from __future__ import annotations

from collections import Counter, deque

from .identities import _alphabet, _window_exchange
from .partitions import Partition, SkewShape, Value
from .polyring import Polynomial, monomial_str
from .schur import TerminalSpec, ssyt_count
from .trails import (
    BLACK,
    BLUE,
    GREEN,
    WHITE,
    TwoColouredGraph,
    _Layer,
    _recoloured,
    _terminal_trail,
    _weight_key,
    edge_pattern,
    pattern_objects,
    spec_pattern,
    terminal_points_from_sets,
)


def _path_texts(key) -> tuple:
    """An object's key as (blue, green) path texts, rightmost path first, for messages."""
    graph = TwoColouredGraph.from_key((key[0].cols, key[0].rows) + key[1:])
    return tuple(graph.blue.to_text()), tuple(graph.green.to_text())


def _frame_reader():
    """A memo of frames: frame -> (the first frame read with its columns and rows, that frame's image memo).

    An image memo maps a layer's (east, north) to ((east, north), pattern,
    weight), edge_pattern's reading of the layer; a hit returns the masks
    first read, so one copy of each distinct image layer is kept.
    """
    frames = {}

    def read(frame):
        got = frames.get((frame.cols, frame.rows))
        if got is None:
            got = frames[frame.cols, frame.rows] = frame, {}
        return got

    return read


def _moved_objects(objects, locations, read):
    """Every (graph, weight) object trails.pattern_objects gives, with its image under the move at the locations.

    Yields (key, weight, ends, image key, image pattern, image weight) per
    object, in the order objects gives them.  A key is the frame that
    read, the caller's _frame_reader, gives for the graph's frame, then the
    blue and the green east and north masks; weights are packed in that
    frame.  A pattern is the pair of (starts, ends) tuples of the two image
    layers.  Every location is traced, so a location no trail or two
    trails start at raises; its trail is taken unless the location is the
    far end of one already taken, and ends holds the far ends' bits of the
    taken trails.  The move runs on masks: trails._terminal_trail traces,
    trails._recoloured flips, and an image layer is built only when the
    frame's image memo misses it.
    """
    frame = None
    for graph, weight in objects:
        layers = graph.layers
        if layers[0].frame is not frame:
            frame = layers[0].frame
            first, memo = read(frame)
            bits = [(location, frame.index(location)) for location in locations]
        both = layers[0].points & layers[1].points
        taken, ends = [], []
        for location, v in bits:
            flips, end, runs = _terminal_trail(layers, both, v, location)
            if v not in ends:
                taken.append((frame, flips, runs))
                ends.append(end)
        images = []
        for masks in _recoloured(frame, layers, taken)[0]:
            image = memo.get(masks)
            if image is None:
                image = memo[masks] = (masks, *edge_pattern(_Layer(frame, *masks)))
            images.append(image)
        (blue_masks, blue_reached, blue_after), (green_masks, green_reached, green_after) = images
        blue, green = layers
        key, image = (first, blue.east, blue.north, green.east, green.north), (first, *blue_masks, *green_masks)
        yield key, weight, ends, image, (blue_reached, green_reached), blue_after + green_after


#: Most objects bijection_audit replays: s_lead(1^N) * s_trail(1^N) above
#: this is refused before any family is enumerated.  The limit was set for
#: about 4 s of audit at 42 us per object.  Since the move runs on masks an
#: object costs about 14 us ((7,4,1) at N = 4, 75,600 objects in 1.07 s at
#: the reference speed of bench/refspeed.py, best of three; 2-vCPU VM,
#: CPython 3.11.7), so the limit now stands for about 1.4 s.  The r = 2
#: Dodgson audit, (7,5,3) at N = 4 with 264,600 objects, stays over it: it
#: took 4.1-4.2 s at the reference speed, over the 4 s the limit was set for.
#: explore_orbit moves each object by the same step, so it stops once it
#: has moved more objects than this.
MAX_AUDIT_OBJECTS = 100_000

class AuditReport(Value):
    """Tallies from replaying the window-exchange bijection object by object: lam, N, case_a and case_b."""

    __slots__ = ("lam", "N", "case_a", "case_b")

    @property
    def objects(self) -> int:
        return self.case_a + self.case_b

    def to_json(self) -> dict:
        return {
            "lambda": list(self.lam),
            "N": self.N,
            "objects": self.objects,
            "case_a": self.case_a,
            "case_b": self.case_b,
        }


def bijection_audit(lam, N=None) -> AuditReport:
    """Replay the window-exchange bijection and check every object.

    The left side and the two right-side layouts are the terms
    c * s_green * s_blue of _window_exchange, each laid out with its last
    blue path starting at (-r-1, 1) and its last green path at (-r, 1).
    For each left-side object the changing trail starting at the
    rightmost endpoint, green end 1, is recoloured.  The image must land
    in exactly one layout: case A keeps the trail at green start 1,
    (-1, 1), and realizes middle * full; case B ends on the top line, at
    blue end r, and realizes lowered * raised.  Raises on any violated
    check: a trail reaching the protected blue start r, (-r-1, 1), or any
    non-terminal, a repeated image, an image outside the two layouts, a
    changed weight, or a right-side object never reached.  Returns the
    tallies on success.  Raises ValueError, before enumerating, when the
    left side has more than MAX_AUDIT_OBJECTS objects.

    The left side is moved by the step explore_orbit runs on every
    pattern.  The right side is counted, not enumerated: trails.spec_pattern
    keys each layout by its specs and trails.edge_pattern reads each image's
    pattern and weight off the image's layers, both leaving zero-length
    paths out, and the distinct images in a layout must number its
    hook-content count.
    """
    lam = lam if isinstance(lam, Partition) else Partition(lam)
    parts = lam.parts
    lhs, rhs = _window_exchange(parts)
    N = _alphabet(N, lhs + rhs)
    r = len(parts) - 1

    def objects(term):
        return ssyt_count(term[1], N) * ssyt_count(term[2], N)

    def layout(term):
        _, green, blue = term
        return TerminalSpec.from_shape(blue, N, len(blue) - r - 1), TerminalSpec.from_shape(green, N, len(green) - r)

    count = objects(lhs[0])
    if count > MAX_AUDIT_OBJECTS:
        raise ValueError("the audit has %d objects, more than MAX_AUDIT_OBJECTS = %d" % (count, MAX_AUDIT_OBJECTS))
    blue, green = left = layout(lhs[0])
    probe, keep_end, exchange_end, protected = green.ends[0], green.starts[0], blue.ends[-1], blue.starts[-1]

    kind_of, size = {}, {}
    for kind, term in zip("AB", rhs):
        # an empty layout matches no image: at N = 1, less its zero-length paths, it can look like the other
        size[kind] = objects(term)
        if size[kind]:
            kind_of[tuple(map(spec_pattern, layout(term)))] = kind

    images = {}  # each image to its layout
    # with N = 1 and every part 0 the probe's path has no edge: the object is its own image
    selected = (probe,) if probe != keep_end else ()
    moves = _moved_objects(pattern_objects(*left), selected, _frame_reader())
    for key, weight_before, ends, image, reached, weight_after in moves:
        far = key[0].point(ends[0]) if ends else probe
        if far == protected:
            raise RuntimeError("trail from %r reached the protected point %r" % (probe, protected))
        if far not in (keep_end, exchange_end):
            raise RuntimeError("gap trail: far endpoint %r is not an exchange target" % (far,))
        kind = kind_of.get(reached)
        if kind is None:
            raise RuntimeError("image %r is not an object of either layout" % (_path_texts(image),))
        if image in images:
            raise RuntimeError("two objects recoloured to the same image %r" % (_path_texts(image),))
        images[image] = kind
        # with N = 1 the two targets can be the same lattice point,
        # and only the image itself tells the cases apart
        if keep_end != exchange_end and kind != ("A" if far == keep_end else "B"):
            raise RuntimeError("far endpoint %r disagrees with the image layout %s" % (far, kind))
        if weight_before != weight_after:
            raise RuntimeError(
                "recolouring changed the weight: %s -> %s"
                % tuple(monomial_str(_weight_key(key[0], weight)) for weight in (weight_before, weight_after))
            )
    tally = Counter(images.values())
    for kind, count in size.items():
        if tally[kind] < count:
            raise RuntimeError("%d layout objects were never reached" % (count - tally[kind],))
        if tally[kind] > count:
            raise RuntimeError("%d images land in layout %s, more than the %d it has" % (tally[kind], kind, count))
    return AuditReport(parts, N, tally["A"], tally["B"])


def _canonical_pattern(pattern) -> tuple:
    """(blue outer, blue inner, green outer, green inner) of a (blue, green) spec pair."""
    blue_spec, green_spec = pattern
    return blue_spec.normal_form()[:2] + green_spec.normal_form()[:2]


def _side_of(pattern, original_colours) -> int:
    """0 when every selected point keeps its original colour, 1 when all flipped."""
    if not original_colours:
        return 0
    blue_spec, green_spec = pattern
    flips = set()
    for location, first in original_colours.items():
        in_blue = location in blue_spec.starts or location in blue_spec.ends
        in_green = location in green_spec.starts or location in green_spec.ends
        if in_blue and in_green:
            raise RuntimeError("selected point %r became coincident" % (location,))
        if not in_blue and not in_green:
            raise RuntimeError("selected point %r left the terminal data" % (location,))
        flips.add((BLUE if in_blue else GREEN) != first)
    if len(flips) == 2:
        raise RuntimeError("selected points flipped inconsistently in %r" % (pattern,))
    return 1 if flips.pop() else 0


def _parity_uniform(points) -> bool:
    """All black points share a parity and all white points share a parity."""
    blacks = {p.parity for p in points if p.matching_colour == BLACK}
    whites = {p.parity for p in points if p.matching_colour == WHITE}
    return len(blacks) <= 1 and len(whites) <= 1


class OrbitResult(Value):
    """Terminal patterns reachable under the recolouring move, with object counts.

    Patterns are reported canonically as (blue outer, blue inner, green
    outer, green inner).  counts0 maps each pattern whose objects keep
    every selected point's original colour to its number of objects,
    and counts1 does the same for the patterns with every selected
    point flipped.  weight0/weight1 are the summed path weights of the
    two sides.  The pattern sets S0/S1, the side sizes O0_size/O1_size
    and the degenerate flag (no point selected) are derived from these.
    Results compare by identity: two walks are not compared.
    """

    __slots__ = ("initial", "selected", "N", "counts0", "counts1", "weight0", "weight1", "parity_uniform")
    __eq__, __hash__ = object.__eq__, object.__hash__

    S0 = property(lambda self: frozenset(self.counts0))
    S1 = property(lambda self: frozenset(self.counts1))
    O0_size = property(lambda self: sum(self.counts0.values()))
    O1_size = property(lambda self: sum(self.counts1.values()))
    degenerate = property(lambda self: not self.selected)

    def to_json(self) -> dict:
        def pattern(q):
            return [list(component) for component in q]

        def side(counts):
            return [
                {"pattern": pattern(q), "objects": counts[q]} for q in sorted(counts)
            ]

        return {
            "initial": pattern(self.initial),
            "selected": [list(p) for p in self.selected],
            "N": self.N,
            "S0": side(self.counts0),
            "S1": side(self.counts1),
            "O0_size": self.O0_size,
            "O1_size": self.O1_size,
            "degenerate": self.degenerate,
            "parity_uniform": self.parity_uniform,
        }


def explore_orbit(blue, green, t=0, selected=(), N=None) -> OrbitResult:
    """Close the trail-recolouring move over families with fixed terminals.

    blue is laid out at offset 0 and green at offset t.  selected names
    indices into the Q-sequence of the initial terminal data; in every
    object the distinct changing trails starting at those lattice
    points are recoloured together, sending the object to one with a
    possibly different terminal pattern.  The walk repeats from every
    pattern reached until no new pattern appears, then both sides of
    the classification are checked: the recolouring must be an
    involution, the two sides must have the same number of objects and
    the same summed weight, and with uniform parities on the Q-sequence
    the original side must consist of the input pattern alone.  With no
    selected points the move is the identity and the result is flagged
    degenerate.  The number of objects is not known before the walk, so
    the orbit is refused after bounded work, not up front: once more than
    MAX_AUDIT_OBJECTS objects are moved it raises ValueError, as it does
    before moving a pattern with a blue family and more green families
    than the bound has left, once it has listed one more than that.

    Every pattern reached is moved by one shared step, the one
    bijection_audit runs on its left side, and the reached pattern, a pair
    of (starts, ends) tuples, is read off the image's layers as the audit
    reads it; the input's is keyed by trails.spec_pattern, as the audit's
    layouts are.  A pattern's TerminalSpecs are built once, when queued.
    Objects compare as keys, and the step's reader keeps one copy of each
    distinct image layer.  A pattern's weights are tallied packed and
    decoded once each, in its frame, into the summed weights.
    """
    blue = blue if isinstance(blue, SkewShape) else SkewShape(blue)
    green = green if isinstance(green, SkewShape) else SkewShape(green)
    N = _alphabet(N, [(1, blue.outer, green.outer)])  # the objects weigh s_blue * s_green
    initial = blue_spec, green_spec = TerminalSpec.from_shape(blue, N, 0), TerminalSpec.from_shape(green, N, int(t))
    q_points = terminal_points_from_sets(blue_spec.starts, blue_spec.ends, green_spec.starts, green_spec.ends)
    sel_indices = sorted(set(int(i) for i in selected))
    for i in sel_indices:
        if not 1 <= i <= len(q_points):
            raise ValueError("selected index %d out of range 1..%d" % (i, len(q_points)))
    sel_locations = tuple(q_points[i - 1].location for i in sel_indices)
    original_colours = {
        q_points[i - 1].location: q_points[i - 1].path_colour for i in sel_indices
    }
    parity_uniform = _parity_uniform(q_points)
    degenerate = not sel_locations

    cap = 2 ** len(q_points) if q_points else 1
    pending = deque([initial])
    queued = {tuple(map(spec_pattern, initial))}
    processed = moved = 0
    counts = ({}, {})
    weights = (Counter(), Counter())
    image_of = {}
    read = _frame_reader()
    refusal = ValueError("the orbit moves more than MAX_AUDIT_OBJECTS = %d objects" % (MAX_AUDIT_OBJECTS,))

    while pending:
        pattern = pending.popleft()
        if processed >= cap:
            raise RuntimeError("closure exceeded %d terminal patterns without settling" % (cap,))
        processed += 1
        side = _side_of(pattern, original_colours)
        objects, tally = 0, Counter()  # the pattern's packed weights, decoded once each in its frame
        listed = pattern_objects(*pattern, MAX_AUDIT_OBJECTS - moved, refusal)
        for key, weight, _, image_key, reached, _ in _moved_objects(listed, sel_locations, read):
            objects += 1
            moved += 1
            if moved > MAX_AUDIT_OBJECTS:
                raise refusal
            tally[weight] += 1
            if degenerate:
                continue
            image_of[key] = image_key
            if reached not in queued:
                queued.add(reached)
                pending.append(tuple(TerminalSpec(*terminals, N) for terminals in reached))
        for weight, count in tally.items():
            weights[side][_weight_key(key[0], weight)] += count
        if objects:
            canon = _canonical_pattern(pattern)
            counts[side][canon] = counts[side].get(canon, 0) + objects

    for key, image_key in image_of.items():
        if image_of.get(image_key) != key:
            raise RuntimeError(
                "recolouring from the selected points is not an involution at %r" % (_path_texts(key),)
            )
    res = OrbitResult(
        _canonical_pattern(initial),
        sel_locations,
        N,
        counts[0],
        counts[1],
        Polynomial._unchecked(dict(weights[0])),
        Polynomial._unchecked(dict(weights[1])),
        parity_uniform,
    )
    if not degenerate:
        if res.O0_size != res.O1_size:
            raise RuntimeError("the two sides differ in size: %d vs %d" % (res.O0_size, res.O1_size))
        if res.weight0 != res.weight1:
            raise RuntimeError("the two sides differ in summed weight")
        if parity_uniform and res.S0 and res.S0 != {res.initial}:
            raise RuntimeError("uniform parities should pin the original side to the input pattern")
    return res
