"""Sparse multivariate polynomials over the integers.

Variables are alphabet-tagged tuples: ('x', 3) is x_3, ('h', 2) is the
formal symbol h_2, ('a', 1, 2) is the generic matrix entry a_{1,2}.
A monomial is a canonical tuple key ((var, exp), ...): variables strictly
increasing, exponents positive, ONE = ().  Plain tuples give immutability,
equality and hashing; monomial() is the one constructor that canonicalises
and monomial_mul() keeps keys canonical.  Packed integers are the ring's
one working form: a packed dict maps a key packed into one integer, one
digit per variable in a base where no digit of a product carries, to its
coefficient, so a product of keys is one addition.  packed_sums adds
several lists of products of packed dicts, each in place into its own
packed dict, and decodes each distinct sum once; the Schur identities
hand it the tableau sums, packed as schur builds them.
sums_of_products packs polynomial operands for it, each once, in base
1 + the sum of the factors' top exponents; a product is its one-term
case.  A determinant packs its entries the same way, adds its products
by the same loop and decodes only its full minor.  A polynomial maps
canonical keys to (arbitrary precision) integer coefficients and never
stores zeros.
Polynomials and matrices are immutable partitions.Value's.  Their
public constructors check outside input; the ring's own sums, products,
determinants and minors are built through Value._unchecked.
Term order everywhere is graded lexicographic, largest first, so text
output and term listings are canonical.
"""

from collections import Counter
from math import comb

from .partitions import Value


def x_var(i):
    return ("x", int(i))


def h_var(m):
    return ("h", int(m))


def a_var(i, j):
    return ("a", int(i), int(j))


def var_name(v):
    return v[0] + "_".join(str(i) for i in v[1:])


def monomial(pairs=()):
    """The canonical key of a product of (var, exponent) pairs, or of a dict.

    Repeated variables are merged and zero exponents dropped; a negative
    exponent is an error.
    """
    if isinstance(pairs, dict):
        pairs = pairs.items()
    merged = {}
    for v, e in pairs:
        e = int(e)
        if e < 0:
            raise ValueError("negative exponent for %r" % (v,))
        if e:
            merged[v] = merged.get(v, 0) + e
    return tuple(sorted(merged.items()))


ONE = ()


def monomial_mul(a, b):
    """Product of two canonical keys by one merge pass; the result is canonical."""
    if not b:
        return a
    if not a:
        return b
    out = []
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        va, vb = a[i][0], b[j][0]
        if va == vb:
            out.append((va, a[i][1] + b[j][1]))
            i += 1
            j += 1
        elif va < vb:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


def x_monomial(indices):
    """prod of x_i over the indices, counted with multiplicity, as a canonical key."""
    return tuple((x_var(i), e) for i, e in sorted(Counter(indices).items()))


def monomial_degree(m):
    return sum(e for _, e in m)


def monomial_sort_key(m):
    # ascending sort of keys = descending graded-lex order of monomials
    return (-monomial_degree(m), tuple((v, -e) for v, e in m))


def monomial_str(m):
    if not m:
        return "1"
    return "*".join(var_name(v) if e == 1 else "%s^%d" % (var_name(v), e) for v, e in m)


class _PackedDigits(dict):
    """Packed digits -> the canonical key fragment they encode, decoded on first lookup."""

    __slots__ = ("variables", "base")

    def __init__(self, variables, base):
        self.variables = variables
        self.base = base

    def __missing__(self, packed):
        q = packed
        key = []
        for v in self.variables:
            q, e = divmod(q, self.base)
            if e:
                key.append((v, e))
        key = self[packed] = tuple(key)
        return key


def _places(groups):
    """(base, variable -> place value) for products of one term from each group of dicts.

    The base is 1 + the sum of the groups' top exponents, so no digit of
    such a product carries; the digits go in variable order.
    """
    variables = set()
    base = 1
    for group in groups:
        top = 0
        for coeffs in group:
            for m in coeffs:
                for v, e in m:
                    variables.add(v)
                    if e > top:
                        top = e
        base += top
    return base, {v: base**i for i, v in enumerate(sorted(variables))}


def _pack(coeffs, place):
    """The packed dict of a coefficient dict: packed key -> coefficient."""
    return {sum(place[v] * e for v, e in m): c for m, c in coeffs.items()}


def _unpack(acc, base, place):
    """Canonical coefficient dict of a packed one that holds no zeros.

    The low half of the digits decodes to the first half of the key; each
    half is decoded once per distinct value and the halves are joined.
    On the window_sweep benchmark this was 6% faster end to end than
    decoding every result digit by digit (CPython 3.11, 2-vCPU VM).
    """
    order = list(place)
    split = (len(order) + 1) // 2
    low = _PackedDigits(order[:split], base)
    high = _PackedDigits(order[split:], base)
    half = base**split
    out = {}
    for p, c in acc.items():
        hi, lo = divmod(p, half)
        out[low[lo] + high[hi]] = c
    return out


def _accumulate(acc, terms, others):
    """Adds t * o into the packed dict acc for every packed (key, coefficient) term t of terms and o of others."""
    get = acc.get
    for p1, c1 in terms:
        for p2, c2 in others:
            p = p1 + p2
            acc[p] = get(p, 0) + c1 * c2


class Polynomial(Value):
    """Mapping canonical monomial key -> nonzero integer coefficient.

    The constructor takes (key, coefficient) pairs or a dict whose keys
    are already canonical (see monomial()); it sums repeated keys and
    drops zeros; _unchecked takes such a dict as it is.  A polynomial
    equals an integer constant and hashes like it.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        if isinstance(coeffs, dict):
            coeffs = coeffs.items()
        acc = {}
        for m, c in coeffs:
            c = int(c)
            if c:
                acc[m] = acc.get(m, 0) + c
                if not acc[m]:
                    del acc[m]
        super().__init__(acc)

    def _key(self):
        """The term frozenset; a constant's integer, so that the two hash alike."""
        c = self.coeffs
        if c.keys() <= {ONE}:
            return c.get(ONE, 0)
        return frozenset(c.items())

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def const(cls, c):
        return cls({ONE: c})

    @classmethod
    def variable(cls, v):
        return cls({((v, 1),): 1})

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __add__(self, other):
        if isinstance(other, int):
            other = Polynomial.const(other)
        elif not isinstance(other, Polynomial):
            return NotImplemented
        acc = dict(self.coeffs)
        for m, c in other.coeffs.items():
            s = acc.get(m, 0) + c
            if s:
                acc[m] = s
            elif m in acc:
                del acc[m]
        return Polynomial._unchecked(acc)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._unchecked({m: -c for m, c in self.coeffs.items()})

    def __sub__(self, other):
        if not isinstance(other, (int, Polynomial)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        if not isinstance(other, int):
            return NotImplemented
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return Polynomial._unchecked({m: c * other for m, c in self.coeffs.items()} if other else {})
        if not isinstance(other, Polynomial):
            return NotImplemented
        return sums_of_products([[(1, self, other)]])[0]

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power")
        out = Polynomial.const(1)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        if isinstance(other, int):
            return self._key() == other
        if isinstance(other, Polynomial):
            return self.coeffs == other.coeffs
        return NotImplemented

    __hash__ = Value.__hash__  # defining __eq__ clears the inherited hash

    def terms(self):
        """(monomial, coefficient) pairs in descending graded-lex order."""
        return [(m, self.coeffs[m]) for m in sorted(self.coeffs, key=monomial_sort_key)]

    def n_terms(self):
        return len(self.coeffs)

    def leading_monomial(self):
        if not self.coeffs:
            return None
        return min(self.coeffs, key=monomial_sort_key)

    def substitute(self, mapping):
        """Replace variables by polynomials (or ints); unmapped variables stay."""
        out = Polynomial.zero()
        for m, c in self.coeffs.items():
            term = Polynomial.const(c)
            for v, e in m:
                if v in mapping:
                    repl = mapping[v]
                    if isinstance(repl, int):
                        repl = Polynomial.const(repl)
                    term = term * repl ** e
                else:
                    term = term * Polynomial.variable(v) ** e
                if term.is_zero():
                    break
            out = out + term
        return out

    def __repr__(self):
        return "Polynomial(%s)" % (str(self),)

    def __str__(self):
        if not self.coeffs:
            return "0"
        bits = []
        for m, c in self.terms():
            mono = monomial_str(m)
            if mono == "1":
                body = str(abs(c))
            elif abs(c) == 1:
                body = mono
            else:
                body = "%d*%s" % (abs(c), mono)
            if not bits:
                bits.append(body if c > 0 else "-" + body)
            else:
                bits.append(("+ " if c > 0 else "- ") + body)
        return " ".join(bits)


def sums_of_products(sides):
    """The sum of c * a * b over each side's (c, a, b) triples of an int and two polynomials, in one packed pass.

    Every side packs in one base, 1 + the top exponent of every a plus
    that of every b (see _places), and each distinct operand is packed
    once; packed_sums adds and decodes the sides.  A triple with a zero
    coefficient or operand is dropped before anything is scanned.
    Returns a tuple of polynomials, one per side.
    """
    sides = [[(c, a.coeffs, b.coeffs) for c, a, b in terms if c and a and b] for terms in sides]
    if not any(sides):
        return (Polynomial._unchecked({}),) * len(sides)
    base, place = _places([[term[i] for side in sides for term in side] for i in (1, 2)])
    packed = {id(f): _pack(f, place) for side in sides for _, a, b in side for f in (a, b)}
    return packed_sums([[(c, packed[id(a)], packed[id(b)]) for c, a, b in side] for side in sides], base, place)


def packed_sums(sides, base, place):
    """The sum of c * a * b over each side's (c, a, b) triples of an int and two packed dicts, decoded.

    The operands' keys are packed in the base and places that decode
    them (see _unpack), and no digit of a product may carry.  Each side
    is added into its own packed dict, zeros dropped; as packing is
    injective, a side whose packed dict equals an earlier side's shares
    that side's polynomial, and any other is decoded.  Returns a tuple
    of polynomials, one per side.
    """
    done = []
    for side in sides:
        acc = {}
        for c, a, b in side:
            if len(a) > len(b):
                a, b = b, a
            _accumulate(acc, [(p, c * v) for p, v in a.items()], b.items())
        acc = {p: c for p, c in acc.items() if c}
        same = [poly for seen, poly in done if seen == acc]
        done.append((acc, same[0] if same else Polynomial._unchecked(_unpack(acc, base, place))))
    return tuple(poly for _, poly in done)


def complete_homogeneous(m, n_vars):
    """Sum of all monomials of degree m in x_1..x_n; 1 for m=0, 0 for m<0."""
    h = complete_homogeneous_upto(m, n_vars)
    return h[m] if h else Polynomial.zero()


def complete_homogeneous_upto(m, n_vars):
    """[h_0, .., h_m] in x_1..x_n, from one pass over the variables; [] for m < 0.

    h_d has C(d + n - 1, n - 1) terms.  A monomial of degree d in
    x_1..x_i is one of degree d - e in x_1..x_(i-1) times x_i^e, for
    e = 0..d.
    """
    if n_vars < 1:
        raise ValueError("alphabet bound must be >= 1")
    keys = [[((x_var(1), d),) if d else ONE] for d in range(m + 1)]
    for v in map(x_var, range(2, n_vars + 1)):
        keys = [keys[d] + [k + ((v, e),) for e in range(1, d + 1) for k in keys[d - e]] for d in range(m + 1)]
    h = [Polynomial._unchecked(dict.fromkeys(ks, 1)) for ks in keys]
    assert all(len(p.coeffs) == comb(d + n_vars - 1, n_vars - 1) for d, p in enumerate(h))
    return h


def formal_h(m):
    """The symbol h_m as a polynomial: h_0 = 1, h_{m<0} = 0."""
    if m < 0:
        return Polynomial.zero()
    if m == 0:
        return Polynomial.const(1)
    return Polynomial.variable(h_var(m))


class FormalMatrix(Value):
    """Rectangular matrix of polynomials, 1-based access, compared by its entries."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        entries = tuple(tuple(self._as_poly(e) for e in row) for row in entries)
        if len({len(row) for row in entries}) > 1:
            raise ValueError("ragged matrix")
        super().__init__(entries)

    @staticmethod
    def _as_poly(e):
        if isinstance(e, Polynomial):
            return e
        if isinstance(e, int):
            return Polynomial.const(e)
        raise TypeError("matrix entries must be Polynomial or int")

    @classmethod
    def generic(cls, n_rows, n_cols):
        """Matrix of independent variables a_var(i, j)."""
        rows, cols = range(1, n_rows + 1), range(1, n_cols + 1)
        return cls._unchecked(tuple(tuple(Polynomial.variable(a_var(i, j)) for j in cols) for i in rows))

    @property
    def n_rows(self):
        return len(self.entries)

    @property
    def n_cols(self):
        return len(self.entries[0]) if self.entries else 0

    def entry(self, i, j):
        """1-based; an index outside the matrix is an error."""
        if not 1 <= i <= self.n_rows:
            raise ValueError("row %d out of range" % i)
        if not 1 <= j <= self.n_cols:
            raise ValueError("column %d out of range" % j)
        return self.entries[i - 1][j - 1]


#: Largest determinant expanded.  verify_dodgson(5), a 6 x 6 determinant
#: and the largest it accepts, took 0.05 s in process and 0.11-0.16 s as a
#: CLI call; verify_dodgson(6), with this guard lifted, took 4.0-4.5 s and
#: a 294 MB peak, with 494,220 terms per side (2-vCPU VM, CPython 3.11.7).
MAX_EXPANSION_DIM = 6


def determinant(matrix):
    """Laplace expansion along the rows, memoized over column subsets, on packed keys.

    Each entry is packed once, in base 1 + the sum of the rows' top
    exponents: a term of a minor is a product of one entry term per row,
    so no digit carries (see _places).  Working up from the last row, the
    minor of the last k rows on each k-column subset (a bitmask) is built
    from the minors on its (k-1)-subsets: 2^d subproblems and at most
    d * 2^(d-1) entry-times-minor products, each added in place into its
    grown minor's packed coefficients.  Zero entries and zero sub-minors
    are skipped; only the full minor is decoded back to canonical keys.
    Division-based routes (Bareiss elimination, Dodgson condensation)
    would need exact polynomial division, which the ring does not have.
    Guarded to dimension MAX_EXPANSION_DIM.
    """
    if matrix.n_rows != matrix.n_cols:
        raise ValueError("determinant of a %dx%d matrix" % (matrix.n_rows, matrix.n_cols))
    d = matrix.n_rows
    if d > MAX_EXPANSION_DIM:
        raise ValueError("dimension %d exceeds the expansion guard (%d)" % (d, MAX_EXPANSION_DIM))
    base, place = _places([e.coeffs for e in row] for row in matrix.entries)
    minors = {0: {0: 1}}
    for row in reversed(matrix.entries):
        entries = [(1 << j, _pack(e.coeffs, place).items()) for j, e in enumerate(row) if e]
        entries = [(bit, terms, [(p, -c) for p, c in terms]) for bit, terms in entries]
        grown = {}
        for mask, sub in minors.items():
            for bit, terms, negated in entries:
                if mask & bit:
                    continue
                # the sign of column j along this row counts the columns of mask to its left
                if (mask & (bit - 1)).bit_count() & 1:
                    terms = negated
                _accumulate(grown.setdefault(mask | bit, {}), terms, sub.items())
        minors = {mask: kept for mask, acc in grown.items() if (kept := {p: c for p, c in acc.items() if c})}
    return Polynomial._unchecked(_unpack(minors.get((1 << d) - 1, {}), base, place))


def minor(matrix, rows, cols):
    """Determinant of the listed rows and columns, in the listed order.

    The order matters for the sign: minor(m, (2, 1), (1, 2)) is the
    negative of minor(m, (1, 2), (1, 2)).  Indices are 1-based; listing
    a row twice gives the zero polynomial, as a determinant should.
    """
    cols = tuple(cols)
    return determinant(FormalMatrix._unchecked(tuple(tuple(matrix.entry(i, j) for j in cols) for i in rows)))
