"""Semistandard tableaux, Schur polynomials, and lattice-path families.

A tableau of skew shape outer/inner with entries in {1..N} maps to a
family of nonintersecting monotone lattice paths: path i runs from
(inner_i - i + t, 1) to (outer_i - i + t, N) and takes its east steps at
the heights written in row i.  Horizontal steps at height k contribute
x_k, so the total weight of the family equals the tableau weight and the
generating function of either side is the (skew) Schur polynomial.

Schur polynomials are computed two independent ways: summing tableau
weights, and as the determinant det(h_{outer_i - inner_j - i + j}) of
complete homogeneous pieces.  The tableau sum does not list the tableaux
one by one: it runs once over the letters 1..N and adds, at letter n,
the horizontal strip of the cells that hold n, which is the branching
rule of Schur polynomials.  It shares no code with the determinant, so
each route checks the other.  Both are exact polynomials at a fixed
variable count N.  enumerate_ssyt lists single tableaux in one loop
that never recurses; spec_tableaux gives those of a TerminalSpec, which
trails writes into graphs and enumerate_families into path families.
Listed tableaux and their families are built through Value._unchecked.
"""

import itertools

from .partitions import Partition, SkewShape, Value, beads, from_beads
from .polyring import (
    ONE,
    FormalMatrix,
    Polynomial,
    complete_homogeneous,
    determinant,
    formal_h,
    x_monomial,
    x_var,
)

EAST = "E"
NORTH = "N"


class Tableau(Value):
    """Filling of a skew board, weakly increasing in rows, strictly in columns."""

    __slots__ = ("shape", "rows", "N")

    def __init__(self, shape, rows, N):
        if not isinstance(shape, SkewShape):
            shape = SkewShape(shape)
        rows = tuple(tuple(int(v) for v in row) for row in rows)
        if len(rows) != shape.n_rows:
            raise ValueError("row count %d does not match shape %r" % (len(rows), shape))
        for i, (lo, hi) in enumerate(shape.row_bounds()):
            if len(rows[i]) != hi - lo:
                raise ValueError("row %d has %d entries, shape wants %d" % (i + 1, len(rows[i]), hi - lo))
        for row in rows:
            for v in row:
                if not 1 <= v <= N:
                    raise ValueError("entry %d outside 1..%d" % (v, N))
            for a, b in zip(row, row[1:]):
                if a > b:
                    raise ValueError("row entries must weakly increase: %r" % (row,))
        # column strictness across the skew board
        inner = shape.inner.parts
        for i in range(1, shape.n_rows):
            for col in range(inner[i], shape.outer.parts[i]):  # 0-based columns of row i
                if col >= inner[i - 1] and col < shape.outer.parts[i - 1]:
                    above = rows[i - 1][col - inner[i - 1]]
                    here = rows[i][col - inner[i]]
                    if above >= here:
                        raise ValueError("column %d not strictly increasing" % (col + 1,))
        super().__init__(shape, rows, int(N))

    def __repr__(self):
        return "Tableau(%r, %r, N=%d)" % (self.shape, self.rows, self.N)

    def reading_word(self):
        return tuple(v for row in self.rows for v in row)


def enumerate_ssyt(shape, N):
    """All semistandard fillings, in lexicographic order of the reading word.

    One loop fills the cells in reading order, odometer style.  A cell
    starts at the least entry its left and upper neighbours allow and, each
    time the loop comes back to it, steps up by one; past its cap, N less
    the cells below it in its column, it resets and the loop backs up one
    cell.  A column's cells are consecutive rows, and a cell's cap is at
    least its left neighbour's and one more than its upper neighbour's, so
    every start is within the cap and no filled prefix is a dead end.  A
    board with a column of more than N cells has no filling.  Each filling
    is a tableau, so Tableau._unchecked builds it without a second check.
    """
    if not isinstance(shape, SkewShape):
        shape = SkewShape(shape)
    if (N := int(N)) < 1:
        raise ValueError("alphabet bound must be >= 1")
    bounds = shape.row_bounds()
    # per cell in reading order; a missing neighbour is -1, the entry kept 0 past the last cell
    left, above, cap, first = [], [], [], [0]  # first: each row's first cell, then the cell count
    for i, (lo, hi) in enumerate(bounds):
        up_lo, up_hi = bounds[i - 1] if i else (0, 0)
        lower = bounds[i + 1 :]  # these rows start at or left of lo: one reaching past c has a cell below (i, c)
        for c in range(lo, hi):
            left.append(len(left) - 1 if c > lo else -1)
            above.append(first[i - 1] + c - up_lo if up_lo <= c < up_hi else -1)
            cap.append(N - sum(1 for _, h in lower if h > c))
        first.append(len(left))
    if min(cap, default=1) < 1:
        return
    entries, k, last = [0] * (len(left) + 1), 0, len(left)
    while k >= 0:
        if k == last:
            yield Tableau._unchecked(shape, tuple(tuple(entries[a:b]) for a, b in zip(first, first[1:])), N)
            k -= 1
        elif not entries[k]:
            entries[k] = max(entries[left[k]], entries[above[k]] + 1)
            k += 1
        elif entries[k] < cap[k]:
            entries[k] += 1
            k += 1
        else:
            entries[k] = 0
            k -= 1


def tableau_weight(t):
    """prod_k x_k^(number of entries equal to k)."""
    return x_monomial(v for row in t.rows for v in row)


def jacobi_trudi_matrix(outer, inner=None, N=None):
    """Matrix with (i,j) entry h_{outer_i - inner_j - i + j}.

    With N given the entries are expanded complete homogeneous
    polynomials in x_1..x_N; with N=None they stay formal h symbols.
    """
    if not isinstance(outer, Partition):
        outer = Partition(outer)
    d = len(outer)
    columns = beads((() if inner is None else tuple(inner)) + (0,) * d)[:d]
    index = [[row - column for column in columns] for row in beads(outer.parts)]
    # each distinct h_m is built once and shared by the entries that carry it
    h = {m: formal_h(m) if N is None else complete_homogeneous(m, N) for m in set().union(*index)}
    return FormalMatrix._unchecked(tuple(tuple(h[m] for m in row) for row in index))


def _strip_sum(outer, inner, N):
    """Sum of the tableau weights of outer/inner in x_1..x_N, as a coefficient dict.

    The cells of a tableau that hold the entry n form a horizontal strip
    mu_n/mu_(n-1), so a tableau is a chain inner = mu_0 <= .. <= mu_N =
    outer of such strips, of weight prod_n x_n^|mu_n/mu_(n-1)|.  One pass
    over the letters keeps, for each shape mu reached after letter n, the
    summed weights of the chains that reach it: s_(mu/inner)(x_1..x_n),
    the branching rule (Macdonald I.(5.11)).  Letter n adds every strip
    nu/mu with mu_i <= nu_i <= min(outer_i, mu_(i-1)) and nu_i >=
    outer_(i+N-n), which keeps each column of outer/nu within the N - n
    letters left.  So a shape that cannot be finished is never reached,
    and a board with a column of more than N cells gives {}.  Keys over
    x_1..x_(n-1) stay canonical when (x_n, k) is appended.

    A shape that takes no cell of letter n keeps its dict, uncopied, and
    the strips of smaller shapes add to it; so the shapes go largest
    first, and each dict is read before anything is added to it.
    """
    rows = len(outer) - outer.count(0)  # zero rows hold no cells
    outer, inner = outer[:rows], inner[:rows]
    reached = {inner: {ONE: 1}}
    for n in range(1, N + 1):
        xn = x_var(n)
        floor = outer[N - n :] + (0,) * min(N - n, rows)
        grown = {}
        for mu in sorted(reached, key=sum, reverse=True):
            sub = reached[mu]
            size = sum(mu)
            ranges = [range(max(m, f), min(o, up) + 1) for m, f, o, up in zip(mu, floor, outer, outer[:1] + mu)]
            for nu in itertools.product(*ranges):
                k = sum(nu) - size
                if not k:
                    grown[nu] = sub
                    continue
                suffix = ((xn, k),)
                acc = grown.setdefault(nu, {})
                get = acc.get
                for key, c in sub.items():
                    key += suffix
                    acc[key] = get(key, 0) + c
        reached = grown
    return reached.get(outer, {})


def ssyt_count(parts, N) -> int:
    """s_parts(1^N), the number of tableaux of the straight shape in 1..N.

    By the hook-content formula, the product over the cells (i, j) of
    (N + j - i) / hook(i, j).  Zero parts are ignored.  A negative part
    gives 0, as in identities.schur_of (a window lowered to -1 vanishes),
    and so does a shape with more nonzero parts than N.
    """
    parts = [int(p) for p in parts if p]
    if len(parts) > N or min(parts, default=0) < 0:
        return 0
    columns = [sum(1 for p in parts if p > j) for j in range(max(parts, default=0))]
    num = den = 1
    for i, p in enumerate(parts):
        for j in range(p):
            num *= N + j - i
            den *= p - j + columns[j] - i - 1
    return num // den


def schur_poly(shape, N, method="tableaux"):
    """Exact (skew) Schur polynomial in x_1..x_N.

    method="tableaux" sums the tableau weights in one pass over the
    letters, one horizontal strip per letter (see _strip_sum); it shares
    no code with the determinant, so each route is an oracle for the
    other.  method="jacobi_trudi" expands det(h_{outer_i - inner_j - i + j}).
    """
    if isinstance(shape, Partition):
        shape = SkewShape(shape)
    elif not isinstance(shape, SkewShape):
        shape = SkewShape(Partition(shape))
    if N is None and method == "tableaux" or N is not None and N < 1:
        raise ValueError("alphabet bound must be >= 1")
    if method == "tableaux":
        return Polynomial._unchecked(_strip_sum(shape.outer.parts, shape.inner.parts, N))
    if method == "jacobi_trudi":
        return determinant(jacobi_trudi_matrix(shape.outer, shape.inner.parts, N=N))
    raise ValueError("unknown method %r" % (method,))


class LatticePath(Value):
    """Monotone path: integer start plus a string of E (east) and N (north) steps."""

    __slots__ = ("start", "steps")

    def __init__(self, start, steps=""):
        start = (int(start[0]), int(start[1]))
        steps = str(steps)
        for ch in steps:
            if ch not in (EAST, NORTH):
                raise ValueError("steps must be over {E, N}, got %r" % (ch,))
        super().__init__(start, steps)

    @property
    def end(self):
        x, y = self.start
        return (x + self.steps.count(EAST), y + self.steps.count(NORTH))

    def vertices(self):
        x, y = self.start
        out = [(x, y)]
        for ch in self.steps:
            if ch == EAST:
                x += 1
            else:
                y += 1
            out.append((x, y))
        return tuple(out)

    def edges(self):
        """Directed unit edges (tail, head) along the path."""
        vs = self.vertices()
        return tuple(zip(vs, vs[1:]))

    def east_heights(self):
        """Heights of the east steps, weakly increasing by monotonicity."""
        _, y = self.start
        out = []
        for ch in self.steps:
            if ch == EAST:
                out.append(y)
            else:
                y += 1
        return tuple(out)

    def __repr__(self):
        return "LatticePath(%r, %r)" % (self.start, self.steps)

    def to_text(self):
        return "(%d,%d):%s" % (self.start[0], self.start[1], self.steps)

    @classmethod
    def from_text(cls, text):
        """Parse "(-1,1):EEEENNENN"."""
        if not isinstance(text, str):
            raise ValueError("bad path text %r" % (text,))
        text = text.strip()
        if not (text.startswith("(") and ":" in text):
            raise ValueError("bad path text %r" % (text,))
        head, steps = text.split(":", 1)
        xy = head.strip("() ").split(",")
        if len(xy) != 2:
            raise ValueError("bad path start %r" % (head,))
        return cls((int(xy[0]), int(xy[1])), steps.strip())


class PathFamily(Value):
    """Ordered tuple of pairwise vertex-disjoint paths."""

    __slots__ = ("paths",)

    def __init__(self, paths=()):
        paths = tuple(paths)
        for p in paths:
            if not isinstance(p, LatticePath):
                raise TypeError("PathFamily takes LatticePath values")
        seen = {}
        for idx, p in enumerate(paths):
            for v in p.vertices():
                if v in seen:
                    raise ValueError(
                        "paths %d and %d share the lattice point %r" % (seen[v] + 1, idx + 1, v)
                    )
                seen[v] = idx
        super().__init__(paths)

    def __iter__(self):
        return iter(self.paths)

    def __len__(self):
        return len(self.paths)

    def __repr__(self):
        return "PathFamily(%r)" % (self.paths,)

    def to_text(self):
        return [p.to_text() for p in self.paths]

    @classmethod
    def from_text(cls, texts):
        return cls(LatticePath.from_text(t) for t in texts)


class TerminalSpec(Value):
    """Terminal data of one path family: where its paths start and end.

    Path i runs from starts[i] on y=1 to ends[i] on y=N, and x strictly
    decreases with i along both lines.  Two specs are equal when their
    starts, ends and N are, so a (blue, green) pair of specs is a
    hashable terminal pattern.  from_shape lays a skew shape out at an
    offset, from_family reads a family's terminals back, and normal_form
    recovers the skew shape together with the offset it was laid out at.
    """

    __slots__ = ("starts", "ends", "N")

    def __init__(self, starts, ends, N):
        starts = tuple((int(x), int(y)) for x, y in starts)
        ends = tuple((int(x), int(y)) for x, y in ends)
        N = int(N)
        if len(starts) != len(ends):
            raise ValueError("start and end counts differ")
        if any(y != 1 for _, y in starts):
            raise ValueError("starts must lie on y=1")
        if any(y != N for _, y in ends):
            raise ValueError("ends must lie on y=%d" % N)
        for (a, _), (b, _) in zip(starts, starts[1:]):
            if a <= b:
                raise ValueError("start x-coordinates must strictly decrease")
        for (a, _), (b, _) in zip(ends, ends[1:]):
            if a <= b:
                raise ValueError("end x-coordinates must strictly decrease")
        super().__init__(starts, ends, N)

    @classmethod
    def from_shape(cls, shape, N, offset=0):
        """Terminals of the shape's path picture: path i from (inner_i - i + t, 1) to (outer_i - i + t, N)."""
        if not isinstance(shape, SkewShape):
            shape = SkewShape(shape)
        starts = [(x, 1) for x in beads(shape.inner.parts, offset)]
        return cls(starts, [(x, N) for x in beads(shape.outer.parts, offset)], N)

    @classmethod
    def from_family(cls, family, N):
        """Terminals of the family's paths, rightmost first."""
        starts = sorted((p.start for p in family), reverse=True)
        return cls(starts, sorted((p.end for p in family), reverse=True), N)

    def normal_form(self):
        """(outer, inner, shift) with from_shape(outer/inner, N, shift) equal to this spec.

        Row i has parts x + i - shift read off path i's start and end,
        and shift is the least start x + i, so the smallest inner part
        is 0.  outer need not contain inner: then no family fits.
        """
        starts = [x for x, _ in self.starts]
        shift = min(from_beads(starts), default=0)
        return from_beads((x for x, _ in self.ends), shift), from_beads(starts, shift), shift


def tableau_to_paths(t, offset=0):
    """Path i from (inner_i - i + offset, 1) up to height N, east at row i's heights; disjoint, so built unchecked."""
    paths = (
        LatticePath._unchecked((x, 1), NORTH.join(EAST * row.count(k) for k in range(1, t.N + 1)))
        for x, row in zip(beads(t.shape.inner.parts, int(offset)), t.rows)
    )
    return PathFamily._unchecked(tuple(paths))


def paths_to_tableau(f, offset=0, N=None):
    """Inverse of tableau_to_paths: read row i off path i's east-step heights.

    N is only consulted for the empty family, whose picture does not
    determine the alphabet bound.
    """
    if len(f) == 0:
        return Tableau(SkewShape(Partition()), [], 1 if N is None else N)
    n_level = {p.end[1] for p in f}
    if {p.start[1] for p in f} != {1} or len(n_level) != 1:
        raise ValueError("family not of tableau type: terminals off the y=1 / y=N lines")
    N = n_level.pop()
    inner = from_beads((p.start[0] for p in f), offset)
    outer = from_beads((p.end[0] for p in f), offset)
    try:
        shape = SkewShape(Partition(outer), Partition(inner))
    except ValueError as exc:
        raise ValueError("family not of tableau type: %s" % (exc,))
    rows = [p.east_heights() for p in f]
    try:
        return Tableau(shape, rows, N)
    except ValueError as exc:
        raise ValueError("family not of tableau type: %s" % (exc,))


def path_weight(f):
    """prod over paths and east steps of x_height."""
    return x_monomial(k for p in f for k in p.east_heights())


def spec_tableaux(spec):
    """The tableaux of the spec's normal form, row i the east-step heights of the path from starts[i].

    No tableau when outer does not contain inner, and one empty tableau for no paths.
    """
    outer, inner, _ = spec.normal_form()
    if all(o >= m for o, m in zip(outer, inner)):
        yield from enumerate_ssyt(SkewShape(Partition(outer), Partition(inner)), spec.N)


def enumerate_families(spec):
    """Every nonintersecting family with the spec's terminals: tableau_to_paths of spec_tableaux."""
    if not isinstance(spec, TerminalSpec):
        raise TypeError("enumerate_families takes a TerminalSpec")
    shift = spec.normal_form()[2]
    for t in spec_tableaux(spec):
        yield tableau_to_paths(t, offset=shift)
