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
one function, _product_identity, expands both sides in one packed pass,
polyring.packed_sums; both sides of Dodgson and of formal Plücker go
through polyring.sums_of_products, which packs them for it.  It first
bounds the key digits the products handle, refuses more than
MAX_PRODUCT_DIGITS and drops every product whose bound is zero before
either factor is expanded.  The factors are schur's tableau sums,
cached as packed dicts at one digit width per identity, wide enough
for the largest alpha_1 + beta_1, and multiplied without repacking;
schur_of decodes a factor for other callers.
Ciucu, Kleber and Schur-mode Plücker count their terms before they list
them, and refuse more than MAX_PRODUCT_TERMS.  The window exchange is
stated once, by _window_exchange, and verify_general, verify_kirillov
and replay.bijection_audit read its lists.  One rule, _alphabet, sets N
for all of them and for replay's audit and orbit: unless given, it is
the most parts of any factor, at least 1.

The recolouring replays of the window exchange, bijection_audit and
explore_orbit, live in schurtrails.replay, so that a check of the
polynomial identities never loads trails.  Their names, with
AuditReport, OrbitResult and MAX_AUDIT_OBJECTS, still resolve here.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

from .partitions import Partition, Value, beads, from_beads, partition_from_set
from .polyring import FormalMatrix, Polynomial, _unpack, determinant, minor, monomial_str, packed_sums, sums_of_products
from .schur import _strip_sum, letter_places, ssyt_count


@lru_cache(maxsize=None)
def _schur_cached(parts: tuple, N: int, width: int) -> dict:
    """s_parts(x_1..x_N) as the packed dict of schur._strip_sum at the width; {} for a negative part.

    Every caller gets the same dict, so each only reads it.
    """
    if any(p < 0 for p in parts):
        return {}
    if N < 1:
        raise ValueError("alphabet bound must be >= 1")
    parts = Partition(parts).parts
    return _strip_sum(parts, (0,) * len(parts), N, width)


def schur_of(parts, N: int) -> Polynomial:
    """Schur polynomial of the part sequence in x_1..x_N.

    Window shifts in the exchange identities can push a part down to
    -1; such a factor is a determinant with an impossible row and
    vanishes identically, so any negative part gives the zero
    polynomial.  The packed factors are cached, as the checkers reuse
    the same factors heavily; this decodes one.
    """
    parts, N = tuple(int(p) for p in parts), int(N)
    width = sum(parts[:1]).bit_length()
    return Polynomial._unchecked(_unpack(_schur_cached(parts, N, width), *letter_places(N, width)))


class IdentityReport(Value):
    """Outcome of one identity check: both sides, with the verdict derived from them.

    Fields: identity (its name), params (a dict of its parameters), lhs and rhs (Polynomials).
    """

    __slots__ = ("identity", "params", "lhs", "rhs")

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


#: Most key digits the products of a Schur identity may handle.  The
#: count bounds the terms of each factor s_alpha by its tableaux and by
#: the monomials of its degree (_terms_at_most), sums the bounded
#: products over both sides' terms c * s_alpha * s_beta and multiplies by
#: N, since a packed key carries one digit per variable.  Above the limit
#: the identity is refused before any factor is expanded.  The window
#: exchange of (6,6,6) at N = 6 has 5.3e8 and took 3.4 s, of
#: (5,4,3,2,1) at N = 6 4.9e8 and 0.8 s, and of (9,9,9) at N = 5 5.8e8
#: and 3.6-4.0 s, and (7,6,6) at N = 6, refused at 7.2e8, 5.8 s, with
#: bench/refspeed.py's reference loop at 0.7 ms (2-vCPU VM, CPython
#: 3.11.7).  (3,3) at N = 30, refused at 1.4e9, took 47 s and 1.2 GB
#: in an earlier, slower run.
MAX_PRODUCT_DIGITS = 650_000_000


def _product_identity(identity, params, lhs, rhs) -> IdentityReport:
    """Expand the two signed product lists of a Schur identity and report on them.

    A side is a list of (c, alpha, beta) terms read as the sum of
    c * s_alpha * s_beta; _schur_cached packs the factors in x_1..x_N,
    left side first, term by term, alpha before beta, and is not asked
    for either factor of a product whose term bound is zero, as when a
    window is lowered to -1.  Every factor is packed at one width: the
    bit length of the largest alpha_1 + beta_1 of a kept product.
    params["N"] is the N asked for, and _alphabet settles it; the report
    records the N used in its place.
    Raises ValueError, before any factor is expanded, when N < 1 or when
    the products handle more than MAX_PRODUCT_DIGITS key digits in all.
    """
    N = _alphabet(params["N"], lhs + rhs)
    sides = [[(c, alpha, beta, _terms_at_most(alpha, N) * _terms_at_most(beta, N)) for c, alpha, beta in terms]
             for terms in (lhs, rhs)]
    digits = N * sum(bound for side in sides for *_, bound in side)
    if digits > MAX_PRODUCT_DIGITS:
        raise ValueError(
            "the identity's products have %d key digits, more than MAX_PRODUCT_DIGITS = %d"
            % (digits, MAX_PRODUCT_DIGITS)
        )
    kept = [[(c, tuple(map(int, alpha)), tuple(map(int, beta))) for c, alpha, beta, bound in side if bound]
            for side in sides]
    # a digit of a product is at most alpha_1 + beta_1, so none carries at this width
    width = max((sum(alpha[:1] + beta[:1]) for side in kept for _, alpha, beta in side), default=0).bit_length()
    sides = packed_sums([[(c, _schur_cached(alpha, N, width), _schur_cached(beta, N, width)) for c, alpha, beta in side]
                         for side in kept], *letter_places(N, width))
    return IdentityReport(identity, dict(params, N=N), *sides)


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
    sides = sums_of_products([[(1, determinant(matrix), minor(matrix, central, central))],
                              [(1, minor(matrix, head, head), minor(matrix, tail, tail)),
                               (-1, minor(matrix, tail, head), minor(matrix, head, tail))]])
    return IdentityReport("dodgson", {"r": r}, *sides)


def _padded(p: Partition, n: int) -> tuple:
    parts = tuple(p.parts)
    while parts and parts[-1] == 0:
        parts = parts[:-1]
    if len(parts) > n:
        raise ValueError("partition %r has more than %d parts" % (tuple(p.parts), n))
    return parts + (0,) * (n - len(parts))


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
#: with r = 1,2 took 0.14-0.15 s) and every n = 6 refused (at least
#: 1,036,800; with the guard lifted, n = 6 with r = 1, 3,628,800 pairs,
#: took 4.3-6.9 s, and with r = 1,2,3 10.4 s and 572 MB; whole CLI calls,
#: 2-vCPU VM, CPython 3.11.7).
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

        sides = sums_of_products([(1, minor(matrix, first, top), minor(matrix, second, top)) for first, second in rows]
                                 for rows in ([(top, bottom)], _exchanges(top, bottom, r_list)))
        return IdentityReport("pluecker", {"mode": mode, "n": n, "r_list": list(r_list)}, *sides)

    top_parts, bottom_parts = _padded(lam, n), _padded(sigma, n)
    _refuse_terms(math.comb(n, len(r_list)))
    terms = []
    for first, second in _exchanges(beads(top_parts), beads(bottom_parts), r_list):
        sign = _decreasing_sort_sign(first) * _decreasing_sort_sign(second)
        if sign:
            terms.append((sign, from_beads(sorted(first, reverse=True)), from_beads(sorted(second, reverse=True))))
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


def _kleber_terms(lam, k):
    """Kleber's product terms at corner k of lam, each (sign, grown, shrunk), as the bead moves verify_kleber states."""
    def parts(moved):
        return tuple(p for p in from_beads(sorted(moved, reverse=True)) if p)

    beta = beads(lam.without_zeros().parts + (0,))
    u = [b for a, b in zip((None,) + beta, beta) if a != b + 1]
    v = [b - 1 for b, c in zip(beta, beta[1:] + (None,)) if c != b - 1][:k]
    yield (1, parts(b + 1 if b > u[k] else b for b in beta), parts(b - 1 if b > u[k] else b for b in beta))
    beta = set(beta)
    for m in range(1, min(k, len(u) - k) + 1):
        for V in itertools.combinations(v, m):
            for U in itertools.combinations(u[k:], m):
                yield ((-1) ** (m - 1), parts(beta - set(U) | set(V)),
                       parts(beta - {b + 1 for b in V} | {b + 1 for b in U}))


def verify_kleber(lam, k, N=None) -> IdentityReport:
    """Square expansion of s_lam pinned at its k-th corner, its terms read as bead moves.

    lam's beads beta are those of its nonzero parts and one zero part,
    and consecutive beads form runs from the top: run i is corner i, and
    run n + 1 ends with the zero part's bead.  u_i is the top bead of run
    i and v_i the place below its bottom bead.  The square is grown *
    shrunk, every bead of runs 1..k moved up and down one place, plus,
    for m = 1..min(k, n - k + 1), each V of m places among v_1..v_k and in
    it each U of m beads among u_(k+1)..u_(n+1), (-1)^(m-1) times grown =
    beta - U + V by shrunk = beta - (V + 1) + (U + 1), m nested border
    strips at corner k.  Sets read back by from_beads drop zero parts, and
    n corners give C(n + 1, k) products.  N follows the module's one rule:
    the most parts among the shapes that appear.
    """
    lam = lam if isinstance(lam, Partition) else Partition(lam)
    n = len(set(lam.parts) - {0})
    k = int(k)
    if not 1 <= k <= n:
        raise ValueError("corner index %d out of range for %d corners" % (k, n))
    _refuse_terms(math.comb(n + 1, k))
    products = list(_kleber_terms(lam, k))
    params = {
        "lambda": list(lam.parts),
        "k": k,
        "N": N,
        "products": [[sign, list(a), list(b)] for sign, a, b in products],
    }
    return _product_identity("kleber", params, [(1, lam.parts, lam.parts)], products)


def __getattr__(name):
    """The recolouring replay's names, read from schurtrails.replay on first access: only the benchmark uses these."""
    if name in ("MAX_AUDIT_OBJECTS", "AuditReport", "bijection_audit", "OrbitResult", "explore_orbit"):
        from . import replay

        return getattr(replay, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
