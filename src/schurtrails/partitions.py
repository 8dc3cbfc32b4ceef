"""Integer partitions, skew shapes, bead coordinates, corner-coordinate surgery, and the Value base.

A partition is stored as a weakly decreasing tuple of nonnegative parts.
Trailing zero parts are significant: (3, 1, 0) and (3, 1) are different
shapes because the declared number of rows feeds into lattice-path
terminal positions.

Every part <-> coordinate reading goes through beads (p_i - i + shift)
and its inverse from_beads: path terminals, Jacobi-Trudi indices and the
terms of Kleber, Ciucu and Schur-mode Plücker.

The corner encoding represents a partition by the column coordinates of
its outside corners x_1 > x_2 > ... > x_n > 0 together with the
cumulative row counts y_i = #{parts >= x_i}.  Border strips are added or
removed by shifting contiguous ranges of these coordinates, and a column
of cells by shifting a prefix of the x's.  No library module calls this
surgery: the tests check Kleber's bead moves against it, and the
benchmark's tracer binds it.
"""

BORDER_ADD = "add"
BORDER_REMOVE = "remove"


class Value:
    """Immutable value, equal to another of its own type with an equal _key() and hashed by it.

    A subclass names its fields once, in __slots__.  _key() is the tuple
    of those fields in __slots__ order, unless the subclass compares
    other data and overrides it.  Value's __init__ takes one field per
    slot: a subclass whose fields need checks checks them in its own
    __init__ and hands them to Value's; one whose fields need none, such
    as a report, keeps Value's.  Polynomial also equals integer
    constants, through its own __eq__.
    """

    __slots__ = ()

    def __init__(self, *fields):
        if len(fields) != len(self.__slots__):
            raise TypeError("%s takes %d fields, got %d" % (type(self).__name__, len(self.__slots__), len(fields)))
        for name, field in zip(self.__slots__, fields):
            object.__setattr__(self, name, field)

    @classmethod
    def _unchecked(cls, *fields):
        """One field per slot, in __slots__ order, set without __init__'s checks: only for fields already checked.

        Every value the library builds from values it has checked goes through here, polynomials and matrices too,
        except the records that keep Value's own __init__, which has no checks to skip.
        """
        value = object.__new__(cls)
        for name, field in zip(cls.__slots__, fields):
            object.__setattr__(value, name, field)
        return value

    def __setattr__(self, *_):
        raise AttributeError("%s is immutable" % type(self).__name__)

    __delattr__ = __setattr__

    def _key(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is type(self):
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, ", ".join("%s=%r" % (name, getattr(self, name)) for name in self.__slots__))


class Partition(Value):
    """Weakly decreasing tuple of nonnegative integers."""

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        parts = tuple(int(p) for p in parts)
        for p in parts:
            if p < 0:
                raise ValueError("parts must be nonnegative, got %r" % (p,))
        for a, b in zip(parts, parts[1:]):
            if a < b:
                raise ValueError("parts must be weakly decreasing, got %r" % (parts,))
        super().__init__(parts)

    def __iter__(self):
        return iter(self.parts)

    def __len__(self):
        return len(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __repr__(self):
        return "Partition(%r)" % (self.parts,)

    def size(self):
        """Number of cells."""
        return sum(self.parts)

    def without_zeros(self):
        """Copy with zero parts dropped."""
        return Partition(p for p in self.parts if p > 0)


class SkewShape(Value):
    """Pair of partitions outer/inner with inner[i] <= outer[i]."""

    __slots__ = ("outer", "inner")

    def __init__(self, outer, inner=()):
        if not isinstance(outer, Partition):
            outer = Partition(outer)
        if not isinstance(inner, Partition):
            inner = Partition(inner)
        if len(inner) > len(outer):
            if any(p > 0 for p in inner.parts[len(outer):]):
                raise ValueError("inner shape sticks out of outer: %r / %r" % (outer, inner))
            inner = Partition(inner.parts[: len(outer)])
        # pad inner with zeros to the outer length
        inner = Partition(inner.parts + (0,) * (len(outer) - len(inner)))
        for l, m in zip(outer.parts, inner.parts):
            if m > l:
                raise ValueError("inner shape sticks out of outer: %r / %r" % (outer, inner))
        super().__init__(outer, inner)

    def __repr__(self):
        return "SkewShape(%r, %r)" % (self.outer.parts, self.inner.parts)

    @property
    def n_rows(self):
        return len(self.outer)

    def size(self):
        return self.outer.size() - self.inner.size()

    def row_bounds(self):
        """Per row i (0-based): half-open column span (inner_i, outer_i), 1-based columns."""
        return tuple((self.inner.parts[i], self.outer.parts[i]) for i in range(len(self.outer)))


class CornerEncoding(Value):
    """Corner coordinates (x_i, y_i) of a partition.

    For genuine partitions x is strictly decreasing and y strictly
    increasing; after strip surgery the sequences may be merely weakly
    monotone (coordinates that stop being geometric corners).
    """

    __slots__ = ("x", "y")

    def __init__(self, x, y):
        x = tuple(int(v) for v in x)
        y = tuple(int(v) for v in y)
        if len(x) != len(y):
            raise ValueError("corner coordinate lengths differ: %d vs %d" % (len(x), len(y)))
        super().__init__(x, y)

    @property
    def n(self):
        return len(self.x)


class BorderStripSpec(Value):
    """Nested families ((i_1,j_1),...,(i_m,j_m)) of strip operations.

    Validates i_1 < i_2 < ... < i_m <= j_m <= ... <= j_1 (the j's may
    repeat: compositions of that looser form are still meaningful array
    surgery, and one documented composite uses equal j's).
    """

    __slots__ = ("pairs", "direction")

    def __init__(self, pairs, direction):
        pairs = tuple((int(i), int(j)) for i, j in pairs)
        if direction not in (BORDER_ADD, BORDER_REMOVE):
            raise ValueError("direction must be %r or %r" % (BORDER_ADD, BORDER_REMOVE))
        for i, j in pairs:
            if i < 1 or j < 1:
                raise ValueError("corner indices are 1-based positive, got (%d, %d)" % (i, j))
        for (i1, _), (i2, _) in zip(pairs, pairs[1:]):
            if not i1 < i2:
                raise ValueError("i indices must strictly increase: %r" % (pairs,))
        for (_, j1), (_, j2) in zip(pairs, pairs[1:]):
            if not j1 >= j2:
                raise ValueError("j indices must weakly decrease: %r" % (pairs,))
        if pairs and pairs[-1][0] > pairs[-1][1]:
            raise ValueError("innermost pair must satisfy i <= j: %r" % (pairs,))
        super().__init__(pairs, direction)

    def __repr__(self):
        return "BorderStripSpec(%r, %r)" % (self.pairs, self.direction)


def corner_encoding(p):
    """Distinct positive part values with cumulative multiplicities.

    (8,6,5,3,3,1,1) -> x=(8,6,5,3,1), y=(1,2,3,5,7).  Zero parts
    contribute no corner; the empty partition has n = 0.
    """
    if not isinstance(p, Partition):
        p = Partition(p)
    xs = []
    ys = []
    count = 0
    for part in p.parts:
        if part == 0:
            break
        count += 1
        if xs and xs[-1] == part:
            ys[-1] = count
        else:
            xs.append(part)
            ys.append(count)
    return CornerEncoding(xs, ys)


def partition_from_corners(e):
    """Inverse of corner_encoding: x_i repeated (y_i - y_{i-1}) times.

    Tolerates the weakly monotone encodings produced by strip surgery:
    zero multiplicities contribute nothing and zero part values are
    dropped.  Rejects y_i < y_{i-1} and negative x_i.
    """
    parts = []
    prev_y = 0
    for xi, yi in zip(e.x, e.y):
        if xi < 0:
            raise ValueError("negative corner column %d" % xi)
        mult = yi - prev_y
        if mult < 0:
            raise ValueError("decreasing row coordinates %r" % (e.y,))
        if xi > 0:
            parts.extend([xi] * mult)
        prev_y = yi
    return Partition(parts)


def _shifted(e, i, j, delta):
    if not (1 <= i <= j <= e.n):
        raise ValueError("corner indices (%d, %d) out of range for n=%d" % (i, j, e.n))
    x = list(e.x)
    y = list(e.y)
    for c in range(i, j):  # x_{i+1} .. x_j, 0-based c = i..j-1
        x[c] += delta
    for c in range(i - 1, j):  # y_i .. y_j
        y[c] += delta
    return CornerEncoding(x, y)


def apply_pi(e, i, j):
    """Add the border strip from corner i to corner j: +1 on x_{i+1}..x_j and y_i..y_j."""
    return _shifted(e, i, j, +1)


def apply_mu(e, i, j):
    """Remove the border strip from corner i to corner j: -1 on x_{i+1}..x_j and y_i..y_j.

    Checked eagerly: the result must keep x weakly decreasing and
    nonnegative, y weakly increasing and nonnegative.  A violation means
    the strip is not removable from this encoding.
    """
    out = _shifted(e, i, j, -1)
    _check_removable(out, i, j)
    return out


def _check_removable(e, i, j):
    x, y = e.x, e.y
    if y and y[0] < 0:
        raise ValueError("strip (%d,%d) not removable: y_1 < 0" % (i, j))
    if x and x[-1] < 0:
        raise ValueError("strip (%d,%d) not removable: x_n < 0" % (i, j))
    for a, b in zip(x, x[1:]):
        if a < b:
            raise ValueError("strip (%d,%d) not removable: x not weakly decreasing" % (i, j))
    for a, b in zip(y, y[1:]):
        if a > b:
            raise ValueError("strip (%d,%d) not removable: y not weakly increasing" % (i, j))


def apply_nested(e, spec):
    """Compose strip operations right-to-left: the last listed pair acts first.

    Removal feasibility is checked at every single step; the first
    infeasible step raises.  Intermediate encodings may be weakly
    monotone only.
    """
    if not isinstance(spec, BorderStripSpec):
        raise TypeError("spec must be a BorderStripSpec")
    out = e
    op = apply_pi if spec.direction == BORDER_ADD else apply_mu
    for i, j in reversed(spec.pairs):
        out = op(out, i, j)
    return out


def apply_omega(p, k, sign):
    """Add (+1) or remove (-1) a column of length y_k: shift x_1..x_k by sign."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    e = corner_encoding(p)
    if not (1 <= k <= e.n):
        raise ValueError("corner index %d out of range for n=%d" % (k, e.n))
    x = list(e.x)
    for c in range(k):
        x[c] += sign
    out = CornerEncoding(x, e.y)
    if sign < 0:
        _check_removable(out, k, k)
    return partition_from_corners(out)


def beads(parts, shift=0):
    """Bead coordinates p_i - i + shift of the parts p_1, p_2, ..., i counted from 1: strictly decreasing for a partition."""
    return tuple(p - i + shift for i, p in enumerate(parts, start=1))


def from_beads(coordinates, shift=0):
    """Inverse of beads: the parts c_i + i - shift of the coordinates c_1, c_2, ..., in the order given."""
    return tuple(c + i - shift for i, c in enumerate(coordinates, start=1))


def partition_from_set(t):
    """Partition (t_r - r + 1, ..., t_2 - 1, t_1) of positive integers t_1 < ... < t_r: from_beads(t_r, ..., t_1, shift=r)."""
    listed = tuple(t) if iter(t) is t else t  # an iterator is read once
    elems = sorted({int(v) for v in listed}, reverse=True)
    if len(elems) != len(listed):
        raise ValueError("set elements must be distinct: %r" % (listed,))
    if elems and elems[-1] < 1:
        raise ValueError("set elements must be positive: %r" % (listed,))
    return Partition(from_beads(elems, len(elems)))
