import itertools
import random
from collections import Counter
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from schurtrails import polyring
from schurtrails.polyring import (
    ONE,
    FormalMatrix,
    Polynomial,
    a_var,
    complete_homogeneous,
    determinant,
    formal_h,
    h_var,
    minor,
    monomial,
    monomial_degree,
    monomial_mul,
    monomial_str,
    sum_of_products,
    x_var,
)
from schurtrails.partitions import Partition
from schurtrails.identities import verify_dodgson, verify_pluecker
from schurtrails.schur import enumerate_ssyt, path_weight, schur_poly, tableau_to_paths, tableau_weight


def P(text_terms):
    """tiny builder: [(coeff, {var: exp}), ...]"""
    return Polynomial({monomial(v): c for c, v in text_terms})


x1, x2, x3 = x_var(1), x_var(2), x_var(3)


def x_poly(i):
    return Polynomial.variable(x_var(i))


monomials_st = st.dictionaries(
    st.sampled_from([x1, x2, x3]), st.integers(1, 3), max_size=3
).map(monomial)
sparse_polys_st = st.dictionaries(monomials_st, st.integers(-5, 5), max_size=4).map(Polynomial)

# Dense operands of 8 to 12 terms with exponents up to 12, over a few
# variables (like Schur polynomials in x_1..x_N) or over many (like the
# generic-matrix minors of verify_dodgson and verify_pluecker).
FEW_VARS = [x1, x2, x3, x_var(4), h_var(1), h_var(4), a_var(1, 2)]
MANY_VARS = [x_var(i) for i in range(1, 7)] + [h_var(1), h_var(2), a_var(1, 2), a_var(2, 1)]


def dense_polys_st(variables):
    keys = st.dictionaries(st.sampled_from(variables), st.integers(1, 12), max_size=4).map(monomial)
    coefficients = st.integers(-5, 5).filter(bool)
    return st.dictionaries(keys, coefficients, min_size=8, max_size=12).map(Polynomial)


polys_st = st.one_of(sparse_polys_st, dense_polys_st(FEW_VARS), dense_polys_st(MANY_VARS))


def merged_product(p, q):
    """Test-local reference: every pair of keys merged by monomial_mul."""
    acc = Counter()
    for m1, c1 in p.coeffs.items():
        for m2, c2 in q.coeffs.items():
            acc[monomial_mul(m1, m2)] += c1 * c2
    return Polynomial(dict(acc))


def test_monomial_basics():
    m = monomial({x1: 2, x2: 1})
    assert m == ((x1, 2), (x2, 1))
    assert monomial([(x2, 1), (x1, 1), (x3, 0), (x1, 1)]) == m
    assert monomial_degree(m) == 3
    assert dict(m).get(x1) == 2 and x3 not in dict(m)
    assert monomial_str(m) == "x1^2*x2"
    assert monomial_mul(m, monomial({x2: 1})) == monomial({x1: 2, x2: 2})
    assert monomial_mul(m, ONE) == m == monomial_mul(ONE, m)
    assert monomial() == ONE == ()
    assert monomial_str(ONE) == "1"
    with pytest.raises(ValueError):
        monomial({x1: -1})


def test_polynomial_arithmetic_and_zero_pruning():
    p = P([(1, {x1: 1}), (1, {x2: 1})])
    q = P([(1, {x1: 1}), (-1, {x2: 1})])
    assert (p + q) == P([(2, {x1: 1})])
    assert (p * q) == P([(1, {x1: 2}), (-1, {x2: 2})])
    assert (p - p).is_zero()
    assert p * 0 == Polynomial.zero()
    assert (p * q).n_terms() == 2
    # the constructor sums repeated keys and keeps no zero coefficient
    assert Polynomial([(monomial({x1: 1}), 0), (monomial({x2: 1}), 2), (monomial({x2: 1}), -2)]).coeffs == {}


def test_big_integers_survive():
    p = Polynomial.const(10**30) * Polynomial.variable(x1)
    assert (p * p).terms()[0][1] == 10**60


def test_graded_lex_order():
    p = P([(1, {}), (1, {x2: 2}), (1, {x1: 1, x2: 1}), (1, {x1: 1})])
    order = [monomial_str(m) for m, _ in p.terms()]
    assert order == ["x1*x2", "x2^2", "x1", "1"]
    assert monomial_str(p.leading_monomial()) == "x1*x2"


def test_poly_text():
    p = P([(1, {x1: 2, x2: 1}), (1, {x1: 1, x2: 2})])
    assert str(p) == "x1^2*x2 + x1*x2^2"
    assert str(P([(-2, {x1: 1}), (3, {})])) == "-2*x1 + 3"
    assert str(Polynomial.zero()) == "0"
    # mixed alphabets: graded first, then lexicographic by (alphabet, indices)
    h2, a12 = h_var(2), a_var(1, 2)
    p = P([(2, {x1: 1, h2: 1}), (-1, {a12: 2}), (1, {x2: 3}), (-4, {h2: 1}), (5, {}), (1, {a12: 1, x1: 2})])
    assert str(p) == "a1_2*x1^2 + x2^3 - a1_2^2 + 2*h2*x1 - 4*h2 + 5"


@given(polys_st, polys_st, polys_st)
@settings(deadline=None)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p == merged_product(p, q)
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    # the cross terms p*q and q*p cancel inside one product
    assert (p + q) * (p - q) == merged_product(p, p) - merged_product(q, q)
    assert (p * q + p * (-q)).is_zero()


@given(polys_st, polys_st)
@settings(max_examples=50, deadline=None)
def test_packed_product_matches_the_merge(p, q):
    packed = sum_of_products([(1, p, q)])
    assert packed == merged_product(p, q) == p * q
    assert all(packed.coeffs.values())


terms_st = st.lists(st.tuples(st.integers(-3, 3), polys_st, polys_st), max_size=4)


@given(terms_st)
@settings(max_examples=50, deadline=None)
def test_sum_of_products_matches_the_merged_sum(terms):
    expected = Polynomial.zero()
    for c, p, q in terms:
        expected = expected + c * merged_product(p, q)
    total = sum_of_products(terms)
    assert total == expected
    assert canonical_keys(total) and all(total.coeffs.values())
    # each term and its negation cancel to the zero polynomial; no term at all is zero too
    assert sum_of_products(terms + [(-c, q, p) for c, p, q in terms]).coeffs == {}
    assert sum_of_products([]).coeffs == {}


a12 = a_var(1, 2)
# Operands over the x, h and a alphabets whose top exponent is 12 each: the packing
# base of their product is 1 + 12 + 12, and x1^12 times x1^12 puts x1's digit at base - 1.
TOP = P([(3, {x1: 12, h_var(4): 3, a12: 1}), (-1, {x2: 1}), (2, {})])
TOP_TOO = P([(-2, {x1: 12, a12: 2}), (1, {h_var(4): 1, x3: 5}), (1, {})])


@pytest.mark.parametrize(
    "p, q",
    [
        (Polynomial.zero(), TOP),
        (Polynomial.zero(), Polynomial.zero()),
        (Polynomial.const(-7), TOP),
        (Polynomial.const(10**30), Polynomial.const(3)),
        (P([(5, {x2: 1, a12: 3})]), TOP),
        (P([(1, {x1: 1})]), Polynomial.const(1)),
        (TOP, TOP_TOO),
        (TOP, TOP),
    ],
    ids=["empty", "both-empty", "constant", "constants", "one-term", "variable-times-one", "top-digits", "square"],
)
def test_product_edge_cases_match_the_merge(p, q):
    assert p * q == q * p == merged_product(p, q)
    assert canonical_keys(p * q) and all((p * q).coeffs.values())


def test_product_with_the_zero_polynomial_packs_nothing(monkeypatch):
    def no_packing(groups):
        raise AssertionError("an empty operand was scanned for packing")

    monkeypatch.setattr(polyring, "_places", no_packing)
    for p in (TOP, Polynomial.const(3), Polynomial.zero()):
        assert (Polynomial.zero() * p).is_zero()
        assert (p * Polynomial.zero()).is_zero()


@pytest.mark.parametrize("scale", [0, -1, 5, -3, 10**30])
def test_int_scaling(scale):
    for p in (TOP, Polynomial.zero(), Polynomial.const(4)):
        expected = merged_product(p, Polynomial.const(scale))
        assert p * scale == scale * p == expected
        assert all((p * scale).coeffs.values())
    # a constant equals its integer and hashes like it, so a set holds the two once
    const = Polynomial.const(scale)
    assert const == scale and hash(const) == hash(scale) and len({scale, const}) == 1
    assert len({scale, TOP * 0 + scale}) == 1


@pytest.mark.parametrize(
    "combine",
    [
        lambda p, y: p * y,
        lambda p, y: y * p,
        lambda p, y: p + y,
        lambda p, y: y + p,
        lambda p, y: p - y,
        lambda p, y: y - p,
    ],
    ids=["mul", "rmul", "add", "radd", "sub", "rsub"],
)
@pytest.mark.parametrize("foreign", [1.5, "a", None], ids=["float", "str", "None"])
def test_foreign_operands_raise_type_error(combine, foreign):
    with pytest.raises(TypeError):
        combine(Polynomial.const(2), foreign)


def test_complete_homogeneous_examples():
    h2 = complete_homogeneous(2, 2)
    assert h2 == P([(1, {x1: 2}), (1, {x1: 1, x2: 1}), (1, {x2: 2})])
    assert complete_homogeneous(0, 3) == 1
    assert complete_homogeneous(-1, 3).is_zero()
    # key for key against the multisets of m indices from 1..n
    for n in range(1, 7):
        for m in range(9):
            reference = Counter(
                monomial((x_var(i), 1) for i in combo)
                for combo in itertools.combinations_with_replacement(range(1, n + 1), m)
            )
            assert complete_homogeneous(m, n).coeffs == dict(reference), (m, n)
            assert len(reference) == comb(m + n - 1, n - 1)


def test_formal_h():
    assert formal_h(0) == 1
    assert formal_h(-2).is_zero()
    assert formal_h(3) == Polynomial.variable(h_var(3))


def test_substitute():
    p = Polynomial.variable(h_var(2)) * Polynomial.variable(h_var(1)) + Polynomial.variable(h_var(3))
    q = p.substitute({h_var(2): complete_homogeneous(2, 2), h_var(1): complete_homogeneous(1, 2), h_var(3): complete_homogeneous(3, 2)})
    assert q == complete_homogeneous(2, 2) * complete_homogeneous(1, 2) + complete_homogeneous(3, 2)
    # killing a variable kills its terms
    assert p.substitute({h_var(2): 0, h_var(3): 0}).is_zero()


def test_determinant_jacobi_trudi_2_1():
    # det [[h2, h3], [h0, h1]] at N=2 is the (2,1) Schur polynomial
    m = FormalMatrix(
        [
            [complete_homogeneous(2, 2), complete_homogeneous(3, 2)],
            [complete_homogeneous(0, 2), complete_homogeneous(1, 2)],
        ]
    )
    assert determinant(m) == P([(1, {x1: 2, x2: 1}), (1, {x1: 1, x2: 2})])


def test_determinant_basics():
    assert determinant(FormalMatrix([])) == 1
    assert determinant(FormalMatrix([[5]])) == 5
    g = FormalMatrix.generic(2, 2)
    d = determinant(g)
    a = {(i, j): Polynomial.variable(a_var(i, j)) for i in (1, 2) for j in (1, 2)}
    assert d == a[(1, 1)] * a[(2, 2)] - a[(1, 2)] * a[(2, 1)]
    # cancellation: a whole determinant, and the minors of the last two rows on columns 1, 2
    p, q = P([(2, {x1: 1}), (-1, {x2: 3})]), P([(1, {h_var(2): 1}), (4, {})])
    assert determinant(FormalMatrix([[p, q], [p, q]])).is_zero()
    r = P([(1, {x1: 1}), (1, {x2: 1})])
    m = FormalMatrix([[p, q, r], [r, r, x_poly(2)], [r, r, q]])
    assert determinant(m) == leibniz(m) == (p - q) * (r * q - r * x_poly(2))
    # entries over three alphabets
    h2, a12 = Polynomial.variable(h_var(2)), Polynomial.variable(a_var(1, 2))
    m = FormalMatrix([[x_poly(1) * h2, a12 + 3, 0], [h2 * h2 - 1, x_poly(3), a12 * x_poly(1)], [2, a12, h2]])
    det = determinant(m)
    assert det == leibniz(m) and canonical_keys(det)
    assert {v[0] for key in det.coeffs for v, _ in key} == {"a", "h", "x"}
    with pytest.raises(ValueError):
        determinant(FormalMatrix.generic(7, 7))
    with pytest.raises(ValueError):
        determinant(FormalMatrix.generic(2, 3))
    with pytest.raises(ValueError, match="^ragged matrix$"):
        FormalMatrix([[1, 2], [3]])


def test_minor_sign_and_selection():
    g = FormalMatrix.generic(3, 3)
    assert minor(g, (2, 1), (1, 2)) == -minor(g, (1, 2), (1, 2))
    a = {(i, j): Polynomial.variable(a_var(i, j)) for i in range(1, 4) for j in range(1, 4)}
    assert minor(g, (1, 2), (2, 3)) == a[(1, 2)] * a[(2, 3)] - a[(1, 3)] * a[(2, 2)]
    assert minor(g, (1, 1), (1, 2)).is_zero()  # repeated row
    assert minor(g, (), ()) == 1
    with pytest.raises(ValueError):
        minor(g, (4,), (1,))


def test_the_library_builds_its_matrices_unchecked(monkeypatch):
    """Generic matrices, minors' sub-matrices and Jacobi-Trudi matrices are built without the constructor."""

    def run():
        jt = schur_poly((3, 2, 1), 3, method="jacobi_trudi")
        return verify_dodgson(3), verify_pluecker(2, (1,)), jt

    expected = run()
    assert expected[0].equal and expected[1].equal and expected[2] == schur_poly((3, 2, 1), 3)

    def refuse(self, entries):
        raise AssertionError("FormalMatrix constructor called")

    monkeypatch.setattr(FormalMatrix, "__init__", refuse)
    assert run() == expected
    with pytest.raises(AssertionError, match="constructor called"):
        FormalMatrix([[1]])


def test_generic_matrix_entries():
    g = FormalMatrix.generic(4, 2)
    assert g.n_rows == 4 and g.n_cols == 2
    assert g.entry(3, 1) == Polynomial.variable(a_var(3, 1))
    for i in (0, -1, 5):
        with pytest.raises(ValueError, match="row %d out of range" % i):
            g.entry(i, 1)
    for j in (0, -1, 3):
        with pytest.raises(ValueError, match="column %d out of range" % j):
            g.entry(1, j)


# ------------------------------------------------- differential checks

def leibniz(matrix):
    """Test-local oracle: the signed sum over all permutations."""
    d = matrix.n_rows
    total = Polynomial.zero()
    for perm in itertools.permutations(range(d)):
        inversions = sum(1 for a, b in itertools.combinations(perm, 2) if a > b)
        term = Polynomial.const(-1 if inversions % 2 else 1)
        for i, j in enumerate(perm):
            term = term * matrix.entries[i][j]
        total = total + term
    return total


def square_st(entries, max_dim):
    return st.integers(0, max_dim).flatmap(
        lambda d: st.lists(st.lists(entries, min_size=d, max_size=d), min_size=d, max_size=d)
    ).map(FormalMatrix)


small_polys_st = st.dictionaries(monomials_st, st.integers(-3, 3), max_size=2).map(Polynomial)


@given(square_st(st.integers(-4, 4), 5))
def test_determinant_matches_leibniz_on_integers(m):
    assert determinant(m) == leibniz(m)


@given(st.one_of(square_st(small_polys_st, 4), square_st(polys_st, 3)))
@settings(deadline=None)
def test_determinant_matches_leibniz_on_polynomials(m):
    assert determinant(m) == leibniz(m)


@pytest.mark.parametrize("seed", range(6))
def test_determinant_reaches_the_packing_bound(seed):
    """A triangular matrix whose diagonal puts every variable at its row's top exponent.

    The packing base is 1 + the sum of the rows' top exponents, and the
    diagonal product reaches that sum in every variable, so each digit of
    the determinant's one term is base - 1: one more would carry.
    """
    rng = random.Random(seed)
    variables = [x1, x2, h_var(3), a_var(1, 2)]
    d = rng.randint(1, 6)
    tops = [rng.randint(1, 9) for _ in range(d)]
    rows = []
    for i, top in enumerate(tops):
        row = [0] * d
        row[i] = Polynomial({monomial((v, top) for v in variables): rng.choice((-2, 1, 3))})
        for j in range(i + 1, d):
            v = rng.choice(variables)
            row[j] = Polynomial({monomial({v: rng.randint(1, top)}): 1, ONE: rng.randint(-3, 3)})
        rows.append(row)
    m = FormalMatrix(rows)
    det = determinant(m)
    diagonal = Polynomial.const(1)
    for i in range(d):
        diagonal = diagonal * m.entries[i][i]
    assert det == diagonal == leibniz(m)
    (key, _), = det.terms()
    assert key == monomial((v, sum(tops)) for v in variables)
    assert canonical_keys(det)


@given(st.data())
def test_minor_matches_leibniz_on_permuted_selection(data):
    g = FormalMatrix.generic(5, 5)
    k = data.draw(st.integers(0, 5))
    rows = data.draw(st.permutations(range(1, 6)))[:k]
    cols = data.draw(st.permutations(range(1, 6)))[:k]
    sub = FormalMatrix([[g.entry(i, j) for j in cols] for i in rows])
    assert minor(g, rows, cols) == leibniz(sub)


mixed_vars = [x1, x2, x3, h_var(1), h_var(4), a_var(1, 2), a_var(2, 1)]
mixed_monomials_st = st.dictionaries(
    st.sampled_from(mixed_vars), st.integers(1, 3), max_size=5
).map(monomial)


@given(mixed_monomials_st, mixed_monomials_st)
def test_monomial_product_is_canonical(m1, m2):
    product = monomial_mul(m1, m2)
    reference = monomial(m1 + m2)
    assert product == reference
    assert monomial(product) == product
    assert hash(product) == hash(reference)


# ------------------------------------------------- the key invariant

def canonical_keys(poly):
    return all(monomial(m) == m for m in poly.coeffs)


mixed_polys_st = st.dictionaries(mixed_monomials_st, st.integers(-3, 3), max_size=3).map(Polynomial)
factors_st = st.one_of(mixed_polys_st, dense_polys_st(FEW_VARS), dense_polys_st(MANY_VARS))


@given(factors_st, factors_st, square_st(mixed_polys_st, 3), st.integers(-1, 4), st.integers(1, 4))
@settings(deadline=None)
def test_every_produced_key_is_canonical(p, q, m, degree, n_vars):
    """Sums, products, determinants and h_m(x_1..x_N) keep their keys canonical."""
    for result in (p + q, p - q, p * q, q * p, p * 3, determinant(m), complete_homogeneous(degree, n_vars)):
        assert canonical_keys(result)
    assert p * q == merged_product(p, q)


@given(st.lists(st.integers(1, 3), max_size=3), st.integers(1, 3))
@settings(max_examples=30, deadline=None)
def test_x_weights_are_canonical(parts, n):
    shape = Partition(sorted(parts, reverse=True))
    for t in enumerate_ssyt(shape, n):
        w = tableau_weight(t)
        assert monomial(w) == w
        assert w == monomial((x_var(v), 1) for row in t.rows for v in row)
        assert path_weight(tableau_to_paths(t)) == w

