"""Exact checkers for Schur-polynomial product identities.

Each checker expands both sides of an identity -- tableau sums for the
Schur factors, determinants for the determinant forms -- and returns an
IdentityReport that keeps the two polynomials.  The verdict is derived
from them: the sides are equal or not, and a failed check names the
first monomial whose coefficients disagree instead of returning a bare
boolean.

Every Schur identity here -- the window exchange and its kirillov
preset, Schur-mode Plücker, the balanced split and the square expansion
-- reads sum c * s_alpha * s_beta = sum c' * s_alpha' * s_beta'.  Each
verifier states its two sides as lists of (c, alpha, beta) terms, and
one function, _product_identity, expands them; it first bounds the key
digits their products handle and refuses more than MAX_PRODUCT_DIGITS.
Ciucu, Kleber and Schur-mode Plücker count their terms before they list
them, and refuse more than MAX_PRODUCT_TERMS.  The window exchange is
stated once, by _window_exchange, and verify_general, verify_kirillov
and bijection_audit read its lists.  One rule, _alphabet, sets N for all
of them, the audit and the orbit: unless given, it is the most parts of
any factor, at least 1.

The module also hosts the two combinatorial replays behind the
polynomial identities.  Both run one step, _moved_objects: for every
object trails.pattern_objects lists for a terminal pattern, all in one
frame, it traces the changing trails at the selected points, recolours
them and reads the image.  explore_orbit runs that step on every pattern
it reaches and closes the move, tallying both sides of the resulting
object bijection; bijection_audit runs it once, on the left side of the
window exchange with one selected point, and checks the images by
counting them into the right-side layouts, which it never enumerates.
Objects compare as graph keys: the frame's columns and rows and each
colour's east and north edge masks over it.  A pattern is a (blue,
green) pair of (starts, ends) tuples, read off a layer's masks by
trails.edge_pattern; TerminalSpecs are built only to enumerate a
pattern's families.  Zero-length paths carry no edges, so they are part
of neither.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter, deque
from dataclasses import dataclass
from functools import lru_cache

from .partitions import (
    BORDER_ADD,
    BORDER_REMOVE,
    BorderStripSpec,
    Partition,
    SkewShape,
    apply_nested,
    apply_omega,
    corner_encoding,
    partition_from_corners,
    partition_from_set,
)
from .polyring import FormalMatrix, Polynomial, determinant, minor, monomial_mul, monomial_str
from .schur import TerminalSpec, enumerate_families, schur_poly, ssyt_count
from .trails import (
    BLACK,
    BLUE,
    GREEN,
    WHITE,
    TwoColouredGraph,
    build_graph,
    edge_pattern,
    pattern_objects,
    recolour,
    terminal_points_from_sets,
    trail_at_terminal,
)


@lru_cache(maxsize=None)
def _schur_cached(parts: tuple, N: int) -> Polynomial:
    if any(p < 0 for p in parts):
        return Polynomial.zero()
    return schur_poly(SkewShape(Partition(parts)), N)


def schur_of(parts, N: int) -> Polynomial:
    """Schur polynomial of the part sequence in x_1..x_N.

    Window shifts in the exchange identities can push a part down to
    -1; such a factor is a determinant with an impossible row and
    vanishes identically, so any negative part gives the zero
    polynomial.  Results are cached: the checkers reuse the same
    factors heavily.
    """
    return _schur_cached(tuple(int(p) for p in parts), int(N))


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of one identity check: both sides, with the verdict derived from them."""

    identity: str
    params: dict
    lhs: Polynomial
    rhs: Polynomial

    @property
    def equal(self) -> bool:
        return self.lhs == self.rhs

    @property
    def witness(self) -> str | None:
        return None if self.equal else _witness(self.lhs, self.rhs)

    @property
    def lhs_terms(self) -> int:
        return self.lhs.n_terms()

    @property
    def rhs_terms(self) -> int:
        return self.rhs.n_terms()

    def to_json(self) -> dict:
        payload = {
            "identity": self.identity,
            "params": self.params,
            "equal": self.equal,
            "lhs_terms": self.lhs_terms,
            "rhs_terms": self.rhs_terms,
        }
        if not self.equal:
            payload["witness"] = self.witness
        return payload


def _witness(lhs: Polynomial, rhs: Polynomial) -> str | None:
    """First differing monomial in canonical term order, with both coefficients."""
    diff = lhs - rhs
    if diff.is_zero():
        return None
    m = diff.leading_monomial()
    return "%s: %d versus %d" % (monomial_str(m), lhs.coeffs.get(m, 0), rhs.coeffs.get(m, 0))


def _sum(polys) -> Polynomial:
    """Sum of the polynomials, starting from the first; zero when there are none."""
    polys = iter(polys)
    total = next(polys, Polynomial.zero())
    for p in polys:
        total = total + p
    return total


def _terms_at_most(parts, N: int) -> int:
    """Most terms s_parts(x_1..x_N) can have: its tableaux, and no more than the monomials of its degree."""
    tableaux = ssyt_count(parts, N)
    return min(tableaux, math.comb(sum(parts) + N - 1, N - 1)) if tableaux else 0


def _alphabet(N, terms) -> int:
    """N when given, else the most parts of any factor of the (c, alpha, beta) terms, at least 1; refuses N < 1."""
    N = int(N) if N is not None else max([1] + [len(f) for _, alpha, beta in terms for f in (alpha, beta)])
    if N < 1:
        raise ValueError("alphabet bound must be >= 1")
    return N


def _product_identity(identity, params, lhs, rhs) -> IdentityReport:
    """Expand the two signed product lists of a Schur identity and report on them.

    A side is a list of (c, alpha, beta) terms read as the sum of
    c * s_alpha * s_beta; schur_of takes the factors in x_1..x_N, left
    side first, term by term, alpha before beta.  params["N"] is the N
    asked for, and _alphabet settles it; the report records the N used
    in its place.  Raises ValueError, before any factor is expanded,
    when N < 1 or when the products handle more than MAX_PRODUCT_DIGITS
    key digits in all.
    """
    N = _alphabet(params["N"], lhs + rhs)
    digits = N * sum(_terms_at_most(alpha, N) * _terms_at_most(beta, N) for _, alpha, beta in lhs + rhs)
    if digits > MAX_PRODUCT_DIGITS:
        raise ValueError(
            "the identity's products have %d key digits, more than MAX_PRODUCT_DIGITS = %d"
            % (digits, MAX_PRODUCT_DIGITS)
        )

    def side(terms):
        products = ((c, schur_of(alpha, N) * schur_of(beta, N)) for c, alpha, beta in terms)
        return _sum(p if c == 1 else c * p for c, p in products)

    return IdentityReport(identity, dict(params, N=N), side(lhs), side(rhs))


def _window_exchange(parts):
    """The window exchange at the parts l_1 >= ... >= l_{r+1}, as its (lhs, rhs) product lists.

    lead * trail = middle * full + lowered * raised: lead and trail are
    the leading and trailing r-part windows, middle the window between
    them, full all r+1 parts, lowered trail less one in every part and
    raised lead plus one.  A lowered window reaching -1 contributes zero.
    """
    if len(parts) < 2:
        raise ValueError("need at least two parts, got %r" % (parts,))
    r = len(parts) - 1
    lowered, raised = tuple(p - 1 for p in parts[1:]), tuple(p + 1 for p in parts[:r])
    return [(1, parts[:r], parts[1:])], [(1, parts[1:r], parts), (1, lowered, raised)]


def verify_general(lam, N=None) -> IdentityReport:
    """Window-exchange identity, as _window_exchange states it, for a weakly decreasing sequence of r+1 parts.

    N follows the module's one rule, so it defaults to the number of parts.
    """
    lam = lam if isinstance(lam, Partition) else Partition(lam)
    return _product_identity("general", {"lambda": list(lam.parts), "N": N}, *_window_exchange(lam.parts))


def verify_kirillov(c, r, N=None) -> IdentityReport:
    """Constant-part preset of the window exchange: lam = (c, ..., c) with r+1 parts.

    The windows collapse to the four rectangles (c^r) squared versus
    (c^{r-1})(c^{r+1}) + ((c-1)^r)((c+1)^r).
    """
    c = int(c)
    r = int(r)
    if c < 0 or r < 1:
        raise ValueError("need c >= 0 and r >= 1, got c=%d r=%d" % (c, r))
    return _product_identity("kirillov", {"c": c, "r": r, "N": N}, *_window_exchange((c,) * (r + 1)))


def verify_dodgson(r) -> IdentityReport:
    """Determinant condensation on a generic (r+1) x (r+1) matrix.

    The full determinant times its central minor (rows and columns
    2..r) equals the product of the two principal corner minors minus
    the product of the two off-corner minors.  For r = 1 the central
    minor is the empty determinant, 1.
    """
    r = int(r)
    if r < 1:
        raise ValueError("r must be positive, got %d" % r)
    matrix = FormalMatrix.generic(r + 1, r + 1)
    central = tuple(range(2, r + 1))
    head = tuple(range(1, r + 1))
    tail = tuple(range(2, r + 2))
    lhs = determinant(matrix) * minor(matrix, central, central)
    rhs = minor(matrix, head, head) * minor(matrix, tail, tail) - minor(
        matrix, tail, head
    ) * minor(matrix, head, tail)
    return IdentityReport("dodgson", {"r": r}, lhs, rhs)


def _padded(p: Partition, n: int) -> tuple:
    parts = tuple(p.parts)
    while parts and parts[-1] == 0:
        parts = parts[:-1]
    if len(parts) > n:
        raise ValueError("partition %r has more than %d parts" % (tuple(p.parts), n))
    return parts + (0,) * (n - len(parts))


def _coords_to_partition(coords) -> tuple:
    """Endpoint coordinates sorted to c_1 > c_2 > ... read back as parts c_i + i.

    A negative part is kept: its Schur factor vanishes (see schur_of).
    """
    return tuple(c + i for i, c in enumerate(sorted(coords, reverse=True), start=1))


def _decreasing_sort_sign(coords) -> int:
    """Sign of the sort taking coords into strictly decreasing order; 0 on a repeat."""
    sign = 1
    for a, b in itertools.combinations(coords, 2):
        if a == b:
            return 0
        if a < b:
            sign = -sign
    return sign


def _exchanges(top, bottom, r_list):
    """Rows (first, second) for every exchange of the top entries at the 1-based r_list.

    Each trades them, in place and in order, for the bottom entries at one subset of positions.
    """
    for subset in itertools.combinations(range(len(bottom)), len(r_list)):
        first, second = list(top), list(bottom)
        for r_i, s in zip(r_list, subset):
            first[r_i - 1], second[s] = bottom[s], top[r_i - 1]
        yield first, second


#: Most product terms a Schur identity may list.  Ciucu has C(2k, k)
#: splits, Kleber with n corners at most C(n+1, k) terms and Schur-mode
#: Plücker C(n, |r|) exchanges, and each verifier counts them before it
#: lists them.  Whole CLI calls at the default N, where the key-digit
#: count refused them only after the terms were listed, and at N = 1
#: (2-vCPU VM, CPython 3.11.7): Kleber with 14 corners at k = 7, 6,435
#: terms, took 1.0-1.9 / 1.3-1.8 s and Plücker at n = 14, 3,432 terms,
#: 1.3-2.5 / 0.5 s; Kleber with 16 corners at k = 8, 24,310 terms, took
#: 5.1 / 4.6 s and Plücker at n = 16, 12,870 terms, 9.1 / 2.0 s.  Ciucu
#: at k = 10, 11 and 12 took 8.7, 38.8 and 149.1 s at N = 1, and k = 11
#: and 12 were refused at the default N only after 48.6 and 217.6 s.
MAX_PRODUCT_TERMS = 10_000


def _refuse_terms(count):
    """Raises ValueError when an identity has more than MAX_PRODUCT_TERMS product terms."""
    if count > MAX_PRODUCT_TERMS:
        raise ValueError("the identity has %d product terms, more than MAX_PRODUCT_TERMS = %d"
                         % (count, MAX_PRODUCT_TERMS))


#: Most term pairs formal verify_pluecker may multiply.  Each of its
#: C(n, |r|) + 1 bracket products pairs the n! terms of one maximal minor
#: with the n! of the other, so it multiplies (C(n, |r|) + 1) * (n!)^2
#: pairs in all.  Every n <= 5 is accepted (at most 158,400 pairs; n = 5
#: with r = 1,2 took 1.2-1.3 s) and every n = 6 refused (at least
#: 1,036,800; n = 6 with r = 1, 3,628,800 pairs, took 25.2-25.6 s, and
#: with r = 1,2,3 98.1 s; whole CLI calls, 2-vCPU VM, CPython 3.11.7).
MAX_PLUECKER_PAIRS = 400_000


def verify_pluecker(n=None, r_list=(), mode="formal", lam=None, sigma=None, N=None) -> IdentityReport:
    """Bracket-exchange identity for a generic 2n x n matrix, or its Schur form.

    Formal mode works in generic entries a_{i,j}: the product of the
    top-block and bottom-block maximal minors equals the sum, over all
    ways to exchange the listed top rows against equally many bottom
    rows (each replacement made in place, order kept), of the two
    resulting bracket products.  lam, sigma and N are Schur-mode inputs,
    and formal mode refuses them, as it refuses more than
    MAX_PLUECKER_PAIRS term pairs before any minor is expanded.

    Schur mode replays the same exchange, by the same generator, on
    endpoint coordinates: top row p carries lam_p - p and bottom row q
    carries sigma_q - q.  Each coordinate row is then sorted into
    strictly decreasing order and re-read as a partition, and the
    product of the two sorting signs becomes the sign of the term; a row
    with a repeated coordinate is a determinant with two equal rows, so
    its term vanishes and is left out.  N follows the module's one rule,
    so it defaults to n.  params["products"] lists each remaining term
    as [lam', sigma'], followed by -1 for a negative term.
    """
    if mode not in ("formal", "schur"):
        raise ValueError("mode must be 'formal' or 'schur', got %r" % (mode,))
    r_list = tuple(sorted(set(int(v) for v in r_list)))
    if mode == "schur":
        if lam is None or sigma is None:
            raise ValueError("schur mode needs lam and sigma")
        lam = lam if isinstance(lam, Partition) else Partition(lam)
        sigma = sigma if isinstance(sigma, Partition) else Partition(sigma)
        if n is None:
            n = max(len(lam.parts), len(sigma.parts), max(r_list, default=1))
    elif n is None:
        raise ValueError("formal mode needs n")
    elif lam is not None or sigma is not None or N is not None:
        raise ValueError("formal mode takes no lam, sigma or N")
    n = int(n)
    if n < 1:
        raise ValueError("n must be positive, got %d" % n)
    for v in r_list:
        if not 1 <= v <= n:
            raise ValueError("exchanged row %d out of range 1..%d" % (v, n))

    if mode == "formal":
        pairs = (math.comb(n, len(r_list)) + 1) * math.factorial(n) ** 2
        if pairs > MAX_PLUECKER_PAIRS:
            raise ValueError("the identity multiplies %d term pairs, more than MAX_PLUECKER_PAIRS = %d"
                             % (pairs, MAX_PLUECKER_PAIRS))
        matrix = FormalMatrix.generic(2 * n, n)
        top, bottom = tuple(range(1, n + 1)), tuple(range(n + 1, 2 * n + 1))

        def bracket(first, second):
            return minor(matrix, first, top) * minor(matrix, second, top)

        lhs = bracket(top, bottom)
        rhs = _sum(bracket(*rows) for rows in _exchanges(top, bottom, r_list))
        return IdentityReport("pluecker", {"mode": mode, "n": n, "r_list": list(r_list)}, lhs, rhs)

    top_parts, bottom_parts = _padded(lam, n), _padded(sigma, n)
    coords = ([v - p for p, v in enumerate(parts, start=1)] for parts in (top_parts, bottom_parts))
    _refuse_terms(math.comb(n, len(r_list)))
    terms = []
    for first, second in _exchanges(*coords, r_list):
        sign = _decreasing_sort_sign(first) * _decreasing_sort_sign(second)
        if sign:
            terms.append((sign, _coords_to_partition(first), _coords_to_partition(second)))
    products = [[list(a), list(b)] + ([-1] if sign < 0 else []) for sign, a, b in terms]
    params = {"mode": mode, "n": n, "r_list": list(r_list), "lambda": list(top_parts),
              "sigma": list(bottom_parts), "N": N, "products": products}
    return _product_identity("pluecker", params, [(1, top_parts, bottom_parts)], terms)


def verify_ciucu(T, k, N=None) -> IdentityReport:
    """Balanced-split identity for a set of 2k distinct positive indices.

    Summing s_{lam(A)} * s_{lam(T - A)} over all k-element subsets A of
    T gives 2^k times the product for the alternating split: the
    even-indexed elements t_2, t_4, ... against the odd-indexed ones
    t_1, t_3, ....  lam(S) is the partition whose shifted parts
    enumerate S.  Every shape involved has k parts, so under the
    module's one rule N defaults to k.
    """
    k = int(k)
    if k < 1:
        raise ValueError("k must be positive, got %d" % k)
    listed = tuple(int(v) for v in T)
    elems = tuple(sorted(listed))
    if len(set(elems)) != len(elems):
        raise ValueError("index set has repeated elements: %r" % (listed,))
    if elems and elems[0] < 1:
        raise ValueError("index set elements must be positive: %r" % (listed,))
    if len(elems) != 2 * k:
        raise ValueError("index set needs exactly 2k = %d elements, got %d" % (2 * k, len(elems)))
    _refuse_terms(math.comb(2 * k, k))
    splits = [
        (1, partition_from_set(subset), partition_from_set(tuple(v for v in elems if v not in subset)))
        for subset in itertools.combinations(elems, k)
    ]
    alternating = (2**k, partition_from_set(elems[1::2]), partition_from_set(elems[0::2]))
    return _product_identity("ciucu", {"T": list(elems), "k": k, "N": N}, splits, [alternating])


def _nested_strip_pairs(n: int, k: int):
    """Nonempty pair lists ((i_1,j_1),...,(i_m,j_m)) with i_1<...<i_m <= k <= j_m<...<j_1 <= n."""
    for m in range(1, min(k, n - k + 1) + 1):
        for i_combo in itertools.combinations(range(1, k + 1), m):
            for j_combo in itertools.combinations(range(k, n + 1), m):
                yield tuple(zip(i_combo, tuple(reversed(j_combo))))


def verify_kleber(lam, k, N=None) -> IdentityReport:
    """Square expansion of s_lam pinned at its k-th corner.

    The square equals the product of the column-augmented and
    column-reduced shapes at corner k, plus an alternating sum over
    nested families of border strips straddling corner k: each family
    adds its strips to one factor and removes them from the other, with
    sign (-1)^(m-1) for m nested strips.  A family whose strips cannot
    all be removed contributes zero and is skipped.  N follows the
    module's one rule: the most parts among the shapes that appear.
    """
    lam = lam if isinstance(lam, Partition) else Partition(lam)
    encoding = corner_encoding(lam)
    n = encoding.n
    k = int(k)
    if not 1 <= k <= n:
        raise ValueError("corner index %d out of range for %d corners" % (k, n))
    products = [(1, apply_omega(lam, k, +1).parts, apply_omega(lam, k, -1).parts)]
    _refuse_terms(math.comb(n + 1, k))
    for pairs in _nested_strip_pairs(n, k):
        sign = -1 if len(pairs) % 2 == 0 else 1
        grown = partition_from_corners(apply_nested(encoding, BorderStripSpec(pairs, BORDER_ADD))).parts
        try:
            shrunk = partition_from_corners(
                apply_nested(encoding, BorderStripSpec(pairs, BORDER_REMOVE))
            ).parts
        except ValueError:
            continue
        products.append((sign, grown, shrunk))
    params = {
        "lambda": list(lam.parts),
        "k": k,
        "N": N,
        "products": [[sign, list(a), list(b)] for sign, a, b in products],
    }
    return _product_identity("kleber", params, [(1, lam.parts, lam.parts)], products)


def _path_texts(key) -> tuple:
    """An object's graph key as (blue, green) path texts, rightmost path first, for messages."""
    graph = TwoColouredGraph.from_key(key)
    return tuple(graph.blue.to_text()), tuple(graph.green.to_text())


def _layer_reader():
    """A memo of edge_pattern over image layers: layer -> ((east, north), pattern, weight).

    It keys on the frame's columns and rows and the two masks.  A hit
    returns the masks first read, so one copy of each distinct image
    layer is kept.
    """
    memo = {}

    def read(layer):
        key = layer.frame.cols, layer.frame.rows, layer.east, layer.north
        got = memo.get(key)
        if got is None:
            got = memo[key] = (key[2:], *edge_pattern(layer))
        return got

    return read


def _moved_objects(specs, locations, read):
    """Every object of the (blue, green) spec pair with its image under the move at the selected locations.

    Yields (key, weight, trails, image key, image pattern, image weights)
    per object, in the order and with the weight trails.pattern_objects
    gives, blue families outer and green inner.  A key is the
    graph's: its frame's columns and rows, then the blue and the green
    east and north masks.  A pattern is the pair of (starts, ends) tuples
    that read, the caller's _layer_reader, gives for the two image
    layers.  Every location is traced, so a location no trail or two
    trails start at raises; its trail is taken unless the location is
    the far end of one already taken, and the taken trails are
    recoloured together.
    """
    for graph, weight in pattern_objects(*specs):
        taken = []
        for location in locations:
            trail = trail_at_terminal(graph, location)
            if not any(other.end == location for other in taken):
                taken.append(trail)
        (blue_masks, blue_reached, blue_after), (green_masks, green_reached, green_after) = map(
            read, recolour(graph, taken).layers
        )
        key = graph._key()
        image_key = key[:2] + blue_masks + green_masks
        yield key, weight, taken, image_key, (blue_reached, green_reached), (blue_after, green_after)


#: Most objects bijection_audit replays: s_lead(1^N) * s_trail(1^N) above
#: this is refused before any family is enumerated.  An audit takes about
#: 42 us per object ((7,4,1) at N = 4, 75600 objects in 3.2 s, best of
#: three; 2-vCPU VM, CPython 3.11.7), so the limit is about 4 s.  The
#: r = 2 Dodgson audit, (7,5,3) at N = 4 with 264,600 objects, stays over it.
MAX_AUDIT_OBJECTS = 100_000

#: Most key digits the products of a Schur identity may handle.  The
#: count bounds the terms of each factor s_alpha by its tableaux and by
#: the monomials of its degree (_terms_at_most), sums the bounded
#: products over both sides' terms c * s_alpha * s_beta and multiplies by
#: N, since a packed key carries one digit per variable.  Above the limit
#: the identity is refused before any factor is expanded.  The window
#: exchange of (6,6,6) at N = 6 has 5.3e8 and took 14-16 s, of
#: (5,4,3,2,1) at N = 6 4.9e8 and 2-3 s; (7,6,6) at N = 6, refused at
#: 7.2e8, took 33 s, and (3,3) at N = 30, refused at 1.4e9, 47 s and
#: 1.2 GB (2-vCPU VM, CPython 3.11.7).
MAX_PRODUCT_DIGITS = 650_000_000


@dataclass(frozen=True)
class AuditReport:
    """Tallies from replaying the window-exchange bijection object by object."""

    lam: tuple
    N: int
    case_a: int
    case_b: int

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
    pattern.  The right side is counted, not enumerated: trails.edge_pattern
    reads each layout's pattern off the layer of its first object and each
    image's pattern and weight off the image's layers, and the distinct
    images in a layout must number its hook-content count.  Zero-length
    paths have no edges, so a layout's pattern is compared without them.
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
            # read off the layout's first object, as an image is read
            first = build_graph(*(next(enumerate_families(spec)) for spec in layout(term)))
            kind_of[tuple(edge_pattern(layer)[0] for layer in first.layers)] = kind

    images = {}  # each image to its layout
    read = _layer_reader()
    # with N = 1 and every part 0 the probe's path has no edge: the object is its own image
    selected = (probe,) if probe != keep_end else ()
    for _, weight_before, taken, image, reached, image_weights in _moved_objects(left, selected, read):
        far = taken[0].end if taken else probe
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
        weight_after = monomial_mul(*image_weights)
        if weight_before != weight_after:
            raise RuntimeError(
                "recolouring changed the weight: %s -> %s"
                % (monomial_str(weight_before), monomial_str(weight_after))
            )
    tally = Counter(images.values())
    for kind, count in size.items():
        if tally[kind] < count:
            raise RuntimeError("%d layout objects were never reached" % (count - tally[kind],))
        if tally[kind] > count:
            raise RuntimeError("%d images land in layout %s, more than the %d it has" % (tally[kind], kind, count))
    return AuditReport(lam=parts, N=N, case_a=tally["A"], case_b=tally["B"])


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


@dataclass(frozen=True, eq=False)
class OrbitResult:
    """Terminal patterns reachable under the recolouring move, with object counts.

    Patterns are reported canonically as (blue outer, blue inner, green
    outer, green inner).  counts0 maps each pattern whose objects keep
    every selected point's original colour to its number of objects,
    and counts1 does the same for the patterns with every selected
    point flipped.  weight0/weight1 are the summed path weights of the
    two sides.  The pattern sets S0/S1, the side sizes O0_size/O1_size
    and the degenerate flag (no point selected) are derived from these.
    """

    initial: tuple
    selected: tuple
    N: int
    counts0: dict
    counts1: dict
    weight0: Polynomial
    weight1: Polynomial
    parity_uniform: bool

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
    degenerate.

    Every pattern reached is moved by one shared step, the one
    bijection_audit runs on its left side, and the reached pattern, a pair
    of (starts, ends) tuples, is read off the image's layers as the audit
    reads it.  Its TerminalSpecs are built once, when it is queued.
    Objects compare as graph keys, and the step's reader keeps one copy
    of each distinct image layer.
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
    queued = {tuple((spec.starts, spec.ends) for spec in initial)}
    processed = 0
    counts = ({}, {})
    weights = (Counter(), Counter())
    image_of = {}
    read = _layer_reader()

    while pending:
        pattern = pending.popleft()
        if processed >= cap:
            raise RuntimeError("closure exceeded %d terminal patterns without settling" % (cap,))
        processed += 1
        side = _side_of(pattern, original_colours)
        objects = 0
        for key, weight, _, image_key, reached, _ in _moved_objects(pattern, sel_locations, read):
            objects += 1
            weights[side][weight] += 1
            if degenerate:
                continue
            image_of[key] = image_key
            if reached not in queued:
                queued.add(reached)
                pending.append(tuple(TerminalSpec(*terminals, N) for terminals in reached))
        if objects:
            canon = _canonical_pattern(pattern)
            counts[side][canon] = counts[side].get(canon, 0) + objects

    for key, image_key in image_of.items():
        if image_of.get(image_key) != key:
            raise RuntimeError(
                "recolouring from the selected points is not an involution at %r" % (_path_texts(key),)
            )
    res = OrbitResult(
        initial=_canonical_pattern(initial),
        selected=sel_locations,
        N=N,
        counts0=counts[0],
        counts1=counts[1],
        weight0=Polynomial(weights[0]),
        weight1=Polynomial(weights[1]),
        parity_uniform=parity_uniform,
    )
    if not degenerate:
        if res.O0_size != res.O1_size:
            raise RuntimeError("the two sides differ in size: %d vs %d" % (res.O0_size, res.O1_size))
        if res.weight0 != res.weight1:
            raise RuntimeError("the two sides differ in summed weight")
        if parity_uniform and res.S0 and res.S0 != {res.initial}:
            raise RuntimeError("uniform parities should pin the original side to the input pattern")
    return res
