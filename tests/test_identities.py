import collections
import hashlib
import itertools
import json
import math
import random

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import pytest

from schurtrails import identities, polyring, replay, schur, trails
from schurtrails.identities import (
    MAX_PRODUCT_DIGITS,
    IdentityReport,
    _witness,
    schur_of,
    verify_ciucu,
    verify_dodgson,
    verify_general,
    verify_kirillov,
    verify_kleber,
    verify_pluecker,
)
from schurtrails.partitions import (
    BORDER_ADD,
    BORDER_REMOVE,
    BorderStripSpec,
    Partition,
    SkewShape,
    apply_nested,
    apply_omega,
    corner_encoding,
    partition_from_corners,
)
from schurtrails.polyring import (
    FormalMatrix,
    Polynomial,
    a_var,
    determinant,
    formal_h,
    h_var,
    minor,
    monomial,
    x_var,
)
from schurtrails.replay import MAX_AUDIT_OBJECTS, AuditReport, OrbitResult, bijection_audit, explore_orbit
from schurtrails.schur import PathFamily, TerminalSpec, enumerate_families, jacobi_trudi_matrix, path_weight, ssyt_count
from schurtrails.trails import (
    _weight_key,
    build_graph,
    edge_pattern,
    recolour,
    terminal_points,
    trail_at_terminal,
)


def coeff_sum(poly):
    return sum(c for _, c in poly.terms())


def count_of(parts, N):
    return coeff_sum(schur_of(parts, N))


# ---------------------------------------------------------------- reports

def test_report_round_trip():
    rep = verify_general((2, 1))
    assert rep.identity == "general"
    assert rep.equal
    assert rep.witness is None
    assert rep.params == {"lambda": [2, 1], "N": 2}
    payload = rep.to_json()
    assert set(payload) == {"identity", "params", "equal", "lhs_terms", "rhs_terms"}
    assert payload["lhs_terms"] == rep.lhs.n_terms()


def test_reports_are_immutable_values():
    x1, zero = Polynomial.variable(x_var(1)), Polynomial.zero()
    report = IdentityReport("t", {"N": 1}, x1, zero)
    assert report == IdentityReport("t", {"N": 1}, x1, zero)
    assert report != IdentityReport("t", {"N": 2}, x1, zero) and report != IdentityReport("t", {"N": 1}, x1, x1)
    assert repr(report) == "IdentityReport(identity='t', params={'N': 1}, lhs=%r, rhs=%r)" % (x1, zero)
    # an orbit's result is equal only to itself
    fields = ((((2,), (0,), (1,), (0,)),), (), 1, {}, {}, zero, zero, True)
    result = OrbitResult(*fields)
    assert result == result and result != OrbitResult(*fields) and len({result, OrbitResult(*fields)}) == 2
    for value in (report, result, AuditReport((2, 1), 2, 2, 4)):
        with pytest.raises(AttributeError, match="%s is immutable" % type(value).__name__):
            value.N = 3
    with pytest.raises(TypeError, match="AuditReport takes 4 fields, got 3"):
        AuditReport((2, 1), 2, 2)


def test_witness_names_first_differing_monomial():
    lhs = Polynomial({monomial({x_var(1): 2}): 3, monomial({x_var(2): 1}): 1})
    rhs = Polynomial({monomial({x_var(1): 2}): 1, monomial({x_var(2): 1}): 1})
    assert _witness(lhs, rhs) == "x1^2: 3 versus 1"
    assert _witness(lhs, lhs) is None
    # a failed report keeps the witness
    failed = IdentityReport("t", {}, lhs, rhs)
    assert not failed.equal
    assert failed.to_json()["witness"] == failed.witness == _witness(lhs, rhs)
    # mixed alphabets: the first difference in graded-lex order is named
    x1, x2, h2, a12 = x_var(1), x_var(2), h_var(2), a_var(1, 2)
    terms = {(a12, x1, x1): 1, (x2, x2, x2): 1, (a12, a12): -1, (h2, x1): 2, (h2,): -4, (): 5}
    lhs = Polynomial({monomial((v, 1) for v in vs): c for vs, c in terms.items()})
    rhs = lhs + Polynomial({monomial({x2: 3}): 2, monomial({h2: 1, x1: 1}): 1})
    assert _witness(lhs, rhs) == "x2^3: 1 versus 3"
    assert _witness(rhs - lhs, lhs) == "a1_2*x1^2: 0 versus 1"


def test_schur_of_negative_part_is_zero():
    assert schur_of((2, -1), 3).is_zero()
    assert schur_of((), 3) == Polynomial.const(1)
    assert schur_of((0, 0), 2) == Polynomial.const(1)


# ---------------------------------------------------------------- general

def test_general_two_parts_explicit():
    rep = verify_general((1, 1), N=2)
    s1 = Polynomial({monomial({x_var(1): 1}): 1, monomial({x_var(2): 1}): 1})
    assert rep.lhs == s1 * s1
    assert rep.rhs == schur_of((1, 1), 2) + schur_of((2,), 2)
    assert rep.equal


def test_general_counts_split():
    rep = verify_general((2, 1), N=2)
    assert rep.equal
    assert coeff_sum(rep.lhs) == 6
    assert coeff_sum(schur_of((2, 1), 2)) == 2
    assert coeff_sum(schur_of((3,), 2)) == 4


def test_general_zero_parts():
    rep = verify_general((0, 0), N=2)
    assert rep.equal
    assert rep.lhs == Polynomial.const(1)


def test_general_small_sweep():
    shapes = [
        (1, 1), (2, 1), (2, 2), (3, 1), (3, 3),
        (2, 1, 1), (2, 2, 1), (3, 2, 1), (3, 3, 3), (2, 1, 0),
    ]
    for parts in shapes:
        for N in (2, 3):
            assert verify_general(parts, N).equal, (parts, N)


def test_general_input_validation():
    with pytest.raises(ValueError):
        verify_general((3,))
    with pytest.raises(ValueError, match="weakly decreasing"):
        verify_general((3, 4))


def test_kirillov_preset():
    rep = verify_kirillov(2, 2, N=3)
    assert rep.identity == "kirillov"
    assert rep.params == {"c": 2, "r": 2, "N": 3}
    assert rep.equal
    base = verify_general((2, 2, 2), N=3)
    assert rep.lhs == base.lhs and rep.rhs == base.rhs
    with pytest.raises(ValueError):
        verify_kirillov(2, 0)


def test_each_side_of_a_schur_identity_is_decoded_once(monkeypatch):
    verify_general((3, 2, 1), 3)  # caches the factors
    decoded = []
    unpack = polyring._unpack
    monkeypatch.setattr(polyring, "_unpack", lambda *args: decoded.append(args) or unpack(*args))
    assert verify_general((3, 2, 1), 3).equal
    # one packed sum per side: the left side's one product, the right side's two
    assert len(decoded) == 2


# ---------------------------------------------------------------- dodgson

def test_dodgson_two_by_two():
    rep = verify_dodgson(1)
    a = {(i, j): Polynomial.variable(a_var(i, j)) for i in (1, 2) for j in (1, 2)}
    assert rep.lhs == a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1]
    assert rep.rhs == a[1, 1] * a[2, 2] - a[2, 1] * a[1, 2]
    assert rep.equal


def test_dodgson_sizes():
    for r in (1, 2, 3):
        rep = verify_dodgson(r)
        assert rep.equal, r
        assert rep.params == {"r": r}
    with pytest.raises(ValueError):
        verify_dodgson(0)


def test_dodgson_specializes_to_window_exchange():
    lam = (6, 4, 2)
    exponents = [lam[i] - (i + 1) + (j + 1) for i in range(3) for j in range(3)]
    assert len(set(exponents)) == 9  # the entry substitution loses nothing
    sub = {
        a_var(i + 1, j + 1): formal_h(lam[i] - (i + 1) + (j + 1))
        for i in range(3)
        for j in range(3)
    }
    matrix = FormalMatrix.generic(3, 3)

    def jt(parts):
        return determinant(jacobi_trudi_matrix(parts))

    assert determinant(matrix).substitute(sub) == jt((6, 4, 2))
    assert minor(matrix, (2,), (2,)).substitute(sub) == jt((4,))
    assert minor(matrix, (1, 2), (1, 2)).substitute(sub) == jt((6, 4))
    assert minor(matrix, (2, 3), (2, 3)).substitute(sub) == jt((4, 2))
    assert minor(matrix, (2, 3), (1, 2)).substitute(sub) == jt((3, 1))
    assert minor(matrix, (1, 2), (2, 3)).substitute(sub) == jt((7, 5))
    rep = verify_dodgson(2)
    assert rep.lhs.substitute(sub) == rep.rhs.substitute(sub)
    assert verify_general((6, 4, 2), N=3).equal


# ---------------------------------------------------------------- pluecker

def test_pluecker_formal_n2():
    for r_list in ((), (1,), (2,), (1, 2)):
        rep = verify_pluecker(2, r_list)
        assert rep.equal, r_list
        assert rep.params["mode"] == "formal"
    # exchanging nothing reproduces the left side verbatim
    rep = verify_pluecker(2, ())
    assert rep.lhs == rep.rhs


def test_pluecker_formal_n3_single_row():
    for r_list in ((1,), (2,), (3,)):
        assert verify_pluecker(3, r_list).equal, r_list


def test_pluecker_formal_needs_n():
    with pytest.raises(ValueError):
        verify_pluecker(None, (1,))
    with pytest.raises(ValueError):
        verify_pluecker(2, (3,))
    with pytest.raises(ValueError):
        verify_pluecker(2, (1,), mode="sideways")


def test_pluecker_formal_counts_its_term_pairs_before_expanding(monkeypatch):
    def expand(*args):
        raise AssertionError("a minor was expanded before the guard")

    # every n = 5 is accepted, every n = 6 refused
    assert max((math.comb(5, k) + 1) * math.factorial(5) ** 2 for k in range(6)) == 158_400
    assert 158_400 <= identities.MAX_PLUECKER_PAIRS < 2 * math.factorial(6) ** 2
    monkeypatch.setattr(identities, "minor", expand)
    for r_list in ((), (1,), (1, 2, 3)):
        pairs = (math.comb(6, len(r_list)) + 1) * math.factorial(6) ** 2
        with pytest.raises(ValueError, match="^the identity multiplies %d term pairs, more than MAX_PLUECKER" % pairs):
            verify_pluecker(6, r_list)


@pytest.mark.parametrize(
    "listing, refused, accepted, terms",
    [
        # C(2k, k) splits
        ("partition_from_set", lambda: verify_ciucu(range(1, 17), 8), lambda: verify_ciucu(range(1, 15), 7), 12870),
        # at most C(n + 1, k) terms with n corners
        ("_kleber_terms", lambda: verify_kleber(range(16, 0, -1), 8),
         lambda: verify_kleber(range(14, 0, -1), 7), 24310),
        # C(n, |r|) exchanges
        ("_exchanges", lambda: verify_pluecker(16, range(1, 9), mode="schur", lam=(1,), sigma=(1,)),
         lambda: verify_pluecker(14, range(1, 8), mode="schur", lam=(1,), sigma=(1,)), 12870),
    ],
    ids=["ciucu", "kleber", "pluecker"],
)
def test_schur_identities_count_their_terms_before_listing_them(monkeypatch, listing, refused, accepted, terms):
    def listed(*args):
        raise AssertionError("the terms were listed")

    monkeypatch.setattr(identities, listing, listed)
    assert identities.MAX_PRODUCT_TERMS == 10_000
    with pytest.raises(ValueError, match="^the identity has %d product terms, more than MAX_PRODUCT_TERMS = 10000$" % terms):
        refused()
    with pytest.raises(AssertionError, match="the terms were listed"):
        accepted()


def test_kleber_has_at_most_a_binomial_count_of_terms():
    # the staircase (n, ..., 1) has n corners, and C(n + 1, k) terms at corner k
    for n in range(1, 9):
        for k in range(1, n + 1):
            assert sum(1 for _ in identities._kleber_terms(Partition(range(n, 0, -1)), k)) == math.comb(n + 1, k)


def _kleber_by_corner_surgery(parts, k):
    """verify_kleber's products built on the corner encoding: the column at corner k, then each nested strip family."""
    lam = Partition(parts)
    encoding = corner_encoding(lam)
    products = [[1, list(apply_omega(lam, k, +1).parts), list(apply_omega(lam, k, -1).parts)]]
    for m in range(1, min(k, encoding.n - k + 1) + 1):
        for i_combo in itertools.combinations(range(1, k + 1), m):
            for j_combo in itertools.combinations(range(k, encoding.n + 1), m):
                pairs = tuple(zip(i_combo, reversed(j_combo)))
                products.append([(-1) ** (m - 1)] + [
                    list(partition_from_corners(apply_nested(encoding, BorderStripSpec(pairs, direction))).parts)
                    for direction in (BORDER_ADD, BORDER_REMOVE)])
    return products


def test_kleber_lists_a_term_for_every_nested_family(monkeypatch):
    # every family of strips can be removed, so none is skipped: 923 shapes
    # in a 6 x 6 box and 13,358 families, listed and never expanded; the
    # bead moves list the products corner surgery builds, in its order
    monkeypatch.setattr(identities, "_product_identity", lambda identity, params, lhs, rhs: params["products"])
    shapes = families = 0
    for parts in itertools.combinations_with_replacement(range(6, -1, -1), 6):
        n = corner_encoding(parts).n
        shapes += n > 0
        for k in range(1, n + 1):
            products = verify_kleber(parts, k)
            assert len(products) == math.comb(n + 1, k), (parts, k)
            assert products == _kleber_by_corner_surgery(parts, k), (parts, k)
            families += math.comb(n + 1, k) - 1
    assert (shapes, families) == (923, 13358)


@pytest.mark.parametrize("schur_input", [{"lam": (3, 1)}, {"sigma": (9,)}, {"N": 7}])
def test_pluecker_formal_refuses_schur_inputs(schur_input):
    with pytest.raises(ValueError, match="formal mode takes no lam, sigma or N"):
        verify_pluecker(2, (1,), **schur_input)


def test_pluecker_schur_exchange():
    rep = verify_pluecker(2, (1,), mode="schur", lam=(4, 2), sigma=(3, 1), N=3)
    assert rep.equal
    assert rep.params["products"] == [[[3, 2], [4, 1]], [[1, 1], [4, 4]]]
    assert rep.lhs == schur_of((4, 2), 3) * schur_of((3, 1), 3)
    assert rep.rhs == schur_of((3, 2), 3) * schur_of((4, 1), 3) + schur_of((1, 1), 3) * schur_of((4, 4), 3)


def test_pluecker_schur_drops_vanishing_term():
    # exchanging row 2 against bottom row 1 repeats a coordinate: that
    # term is a determinant with two equal rows and is left out
    rep = verify_pluecker(2, (2,), mode="schur", lam=(2, 0), sigma=(2, 1), N=2)
    assert rep.equal
    assert rep.params["products"] == [[[2, 1], [2, 0]]]


def test_pluecker_schur_keeps_sort_sign():
    rep = verify_pluecker(3, (1, 3), mode="schur", lam=(4, 3, 1), sigma=(3, 2, 2), N=3)
    assert rep.equal
    assert rep.params["products"] == [
        [[3, 3, 3], [4, 1, 1], -1],
        [[3, 3, 2], [4, 2, 1]],
        [[2, 2, 2], [4, 4, 1]],
    ]


def test_pluecker_schur_random_instances():
    rng = random.Random(20001)
    for _ in range(100):
        n = rng.randint(1, 3)
        lam = sorted((rng.randint(0, 4) for _ in range(n)), reverse=True)
        sigma = sorted((rng.randint(0, 4) for _ in range(n)), reverse=True)
        r_list = sorted(rng.sample(range(1, n + 1), rng.randint(0, n)))
        N = rng.randint(1, 4)
        rep = verify_pluecker(n, r_list, mode="schur", lam=lam, sigma=sigma, N=N)
        assert rep.equal, (n, lam, sigma, r_list, N)


def test_pluecker_schur_needs_shapes():
    with pytest.raises(ValueError):
        verify_pluecker(2, (1,), mode="schur")


# ---------------------------------------------------------------- ciucu

def test_ciucu_pairs():
    rep = verify_ciucu((1, 2), 1, N=3)
    assert rep.equal
    assert rep.rhs == 2 * (schur_of((2,), 3) * schur_of((1,), 3))
    rep = verify_ciucu((1, 3), 1, N=3)
    assert rep.equal
    assert rep.rhs == 2 * (schur_of((3,), 3) * schur_of((1,), 3))


def test_ciucu_four_indices():
    rep = verify_ciucu((1, 2, 3, 4), 2, N=3)
    assert rep.equal
    # alternating split: {2,4} -> (3,2) against {1,3} -> (2,1)
    assert rep.rhs == 4 * (schur_of((3, 2), 3) * schur_of((2, 1), 3))
    assert rep.params == {"T": [1, 2, 3, 4], "k": 2, "N": 3}


def test_ciucu_malformed_sets():
    with pytest.raises(ValueError, match="2k"):
        verify_ciucu((1, 2, 3, 4), 1, N=3)
    with pytest.raises(ValueError, match="repeated"):
        verify_ciucu((1, 1), 1)
    with pytest.raises(ValueError, match="positive"):
        verify_ciucu((0, 1), 1)
    with pytest.raises(ValueError):
        verify_ciucu((1, 2), 0)


# ---------------------------------------------------------------- kleber

def test_kleber_two_one_first_corner():
    rep = verify_kleber((2, 1), 1)
    assert rep.equal
    assert rep.params["N"] == 3
    assert rep.params["products"] == [
        [1, [3, 1], [1, 1]],
        [1, [2, 2], [1, 1]],
        [1, [2, 2, 2], []],
    ]


def test_kleber_two_one_second_corner():
    rep = verify_kleber((2, 1), 2)
    assert rep.equal
    assert rep.params["products"] == [
        [1, [3, 2], [1]],
        [1, [2, 2, 2], []],
        [1, [2, 1, 1], [2]],
    ]


def test_kleber_rectangle_matches_kirillov():
    rep = verify_kleber((2, 2), 1, N=3)
    assert rep.equal
    assert rep.params["products"] == [[1, [3, 3], [1, 1]], [1, [2, 2, 2], [2]]]
    kir = verify_kirillov(2, 2, N=3)
    pairs = {frozenset((tuple(a), tuple(b))) for _, a, b in
             ((s, a, b) for s, a, b in rep.params["products"])}
    assert pairs == {frozenset(((3, 3), (1, 1))), frozenset(((2, 2, 2), (2,)))}
    assert rep.rhs == kir.rhs
    assert rep.lhs == kir.lhs


def test_kleber_small_sweep():
    cases = [((1,), 1), ((2,), 1), ((3, 1), 1), ((3, 1), 2), ((2, 2), 1),
             ((3, 2, 1), 1), ((3, 2, 1), 2), ((3, 2, 1), 3)]
    for parts, k in cases:
        assert verify_kleber(parts, k).equal, (parts, k)


def test_kleber_corner_range():
    with pytest.raises(ValueError):
        verify_kleber((2, 1), 0)
    with pytest.raises(ValueError):
        verify_kleber((2, 1), 3)
    with pytest.raises(ValueError):
        verify_kleber((2, 2), 2)


# ---------------------------------------------------------------- one N rule

@pytest.mark.parametrize(
    "verify, most_parts",
    [
        (lambda N: verify_general((2, 1, 0), N), 3),  # zero parts count
        (lambda N: verify_kirillov(2, 2, N), 3),
        (lambda N: verify_pluecker(None, (1,), mode="schur", lam=(4, 2), sigma=(3, 1), N=N), 2),
        (lambda N: verify_pluecker(None, (2,), mode="schur", lam=(2,), sigma=(1, 1, 1), N=N), 3),
        (lambda N: verify_ciucu((1, 2, 4, 6), 2, N), 2),
        (lambda N: verify_kleber((2, 1), 1, N), 3),  # the product s_(2,2,2) * s_()
        (lambda N: verify_kleber((3, 2, 1), 2, N), 4),  # the negative term s_(3,3,3,3) * s_()
    ],
    ids=["general-zero-part", "kirillov", "pluecker-n-inferred", "pluecker-padded", "ciucu", "kleber", "kleber-signed"],
)
def test_default_N_is_the_most_parts_of_any_factor(verify, most_parts):
    derived, explicit = verify(None), verify(most_parts)
    assert derived.params["N"] == most_parts
    assert derived.params == explicit.params
    assert (derived.lhs, derived.rhs) == (explicit.lhs, explicit.rhs)
    assert derived.equal


# ---------------------------------------------------------------- orbit

def test_orbit_single_windows():
    res = explore_orbit((2,), (1,), t=-1, selected=(1,), N=2)
    initial = ((2,), (0,), (1,), (0,))
    case_a = ((), (), (2, 1), (0, 0))
    case_b = ((0,), (0,), (3,), (0,))
    assert res.initial == initial
    assert res.S0 == frozenset([initial])
    assert res.S1 == frozenset([case_a, case_b])
    assert res.counts0 == {initial: 6}
    assert res.counts1 == {case_a: 2, case_b: 4}
    assert res.O0_size == res.O1_size == 6
    assert res.weight0 == schur_of((2,), 2) * schur_of((1,), 2)
    assert res.weight1 == schur_of((2, 1), 2) + schur_of((3,), 2)
    assert res.parity_uniform and not res.degenerate


def test_orbit_three_part_windows():
    res = explore_orbit((5, 4, 3), (4, 3, 2), t=-1, selected=(1,), N=3)
    assert res.selected == ((4, 3),)
    exchanged = ((3, 2, 1), (0, 0, 0), (6, 5, 4), (0, 0, 0))
    kept = ((4, 3), (0, 0), (5, 4, 3, 2), (0, 0, 0, 0))
    assert res.S1 == frozenset([exchanged])  # the kept layout needs four rows
    assert kept not in res.S1
    assert res.O0_size == res.O1_size == 64
    assert res.weight0 == schur_of((5, 4, 3), 3) * schur_of((4, 3, 2), 3)
    assert res.weight1 == schur_of((3, 2, 1), 3) * schur_of((6, 5, 4), 3)


def test_orbit_square_expansion_terms():
    res = explore_orbit((2, 1), (2, 1), t=1, selected=(2,), N=2)
    assert res.selected == ((1, 2),)
    assert res.initial == ((2, 1), (0, 0), (2, 1), (0, 0))
    assert res.S0 == frozenset([res.initial])
    outer_pairs = {frozenset((q[0], q[2])) for q in res.S1}
    assert outer_pairs == {
        frozenset(((3, 1), (1, 1))),
        frozenset(((2, 2), (1, 1))),
    }
    assert res.O0_size == res.O1_size == 4
    assert sorted(res.counts1.values()) == [1, 3]
    assert res.weight1 == (
        schur_of((3, 1), 2) * schur_of((1, 1), 2) + schur_of((2, 2), 2) * schur_of((1, 1), 2)
    )


def test_orbit_square_expansion_three_vars():
    res = explore_orbit((2, 1), (2, 1), t=1, selected=(2,), N=3)
    outer_pairs = {frozenset((q[0], q[2])) for q in res.S1}
    # the empty factor of the square expansion shows up as one bare column
    assert outer_pairs == {
        frozenset(((3, 1), (1, 1))),
        frozenset(((2, 2), (1, 1))),
        frozenset(((2, 2, 2), (0,))),
    }
    assert res.O0_size == res.O1_size == 64
    assert sorted(res.counts1.values()) == [1, 18, 45]
    assert res.parity_uniform
    assert res.weight1 == verify_kleber((2, 1), 1, N=3).rhs


def test_orbit_three_part_windows_four_vars():
    res = explore_orbit((5, 4, 3), (4, 3, 2), t=-1, selected=(1,), N=4)
    exchanged = ((3, 2, 1), (0, 0, 0), (6, 5, 4), (0, 0, 0))
    kept = ((4, 3), (0, 0), (5, 4, 3, 2), (0, 0, 0, 0))
    # with a fourth variable the kept layout is realizable, so both appear
    assert res.S1 == frozenset([exchanged, kept])
    assert res.O0_size == res.O1_size
    assert res.weight0 == schur_of((5, 4, 3), 4) * schur_of((4, 3, 2), 4)
    assert res.weight1 == (
        schur_of((3, 2, 1), 4) * schur_of((6, 5, 4), 4)
        + schur_of((4, 3), 4) * schur_of((5, 4, 3, 2), 4)
    )


def test_audit_is_the_orbits_first_step():
    # N = 1 stays out: there bijection_audit((1, 1), 1) and ((2, 1), 1) pass,
    # while the orbit of the same windows raises "not an involution"
    windows = [
        parts
        for length in (2, 3, 4)
        for parts in itertools.combinations_with_replacement(range(3, -1, -1), length)
        if parts[0] > 0
    ]
    assert len(windows) == 62
    for N in (2, 3):
        for parts in windows:
            r = len(parts) - 1
            audit = bijection_audit(parts, N)
            res = explore_orbit(parts[1:], parts[:r], t=1, selected=(1,), N=N)
            assert res.O0_size == audit.objects
            # an S1 pattern is (blue outer, blue inner, green outer, green inner)
            by_blue_outer = {pattern[0]: count for pattern, count in res.counts1.items()}
            raised = tuple(p + 1 for p in parts[:r])
            assert len(by_blue_outer) == len(res.counts1) <= 2
            assert by_blue_outer.keys() <= {parts, raised}
            assert by_blue_outer.get(parts, 0) == audit.case_a
            assert by_blue_outer.get(raised, 0) == audit.case_b
            rep = verify_general(parts, N)
            assert res.weight0 == rep.lhs and res.weight1 == rep.rhs


def test_orbit_no_selection_is_degenerate():
    res = explore_orbit((2,), (1,), t=-1, selected=(), N=2)
    assert res.degenerate
    assert res.S0 == frozenset([res.initial])
    assert res.S1 == frozenset()
    assert res.O0_size == 6 and res.O1_size == 0


def test_orbit_selection_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        explore_orbit((2,), (1,), t=-1, selected=(5,), N=2)
    # identical layouts make every terminal coincident: nothing to select
    with pytest.raises(ValueError, match="out of range"):
        explore_orbit((2, 1), (2, 1), t=0, selected=(1,), N=2)


def test_orbit_names_a_broken_involution_by_its_paths():
    # on one line a start of one colour can sit on an end of the other
    with pytest.raises(RuntimeError) as caught:
        explore_orbit((2,), (1,), t=-1, selected=(1,), N=1)
    assert str(caught.value) == (
        "recolouring from the selected points is not an involution at (('(-1,1):EE',), ('(-2,1):E',))"
    )
    blue = SkewShape(Partition((1, 0)), Partition((0, 0)))
    green = SkewShape(Partition((3, 1, 0)), Partition((1, 0, 0)))
    with pytest.raises(RuntimeError) as caught:
        explore_orbit(blue, green, t=2, selected=(2, 8), N=1)
    # rightmost path first; the zero-length paths carry no edges and are not named
    assert str(caught.value).endswith("at (('(-1,1):E',), ('(2,1):EE', '(0,1):E'))")


def test_orbit_flips_a_trail_joining_two_selected_points_once():
    # in every object one trail runs from the selected end (-3, 3) to the
    # selected start (-3, 1); flipping it twice would reuse its edges
    res = explore_orbit(SkewShape((3,), (3,)), SkewShape((3, 0), (2, 0)), t=-1, selected=(3, 4), N=3)
    assert res.selected == ((-3, 3), (-3, 1))
    assert res.counts0 == {((0,), (0,), (3, 0), (2, 0)): 3}
    assert res.counts1 == {((4, 0), (4, 0), (1,), (0,)): 3}
    assert res.O0_size == res.O1_size == 3


def test_orbit_traces_every_selected_point():
    # on one line (-2, 1) is the far end of the trail from the first selected
    # point and also starts a second trail, so tracing it must raise
    with pytest.raises(ValueError) as caught:
        explore_orbit(SkewShape((3, 0)), SkewShape((3, 3, 0), (3, 0, 0)), t=-1, selected=(1, 7, 8), N=1)
    assert str(caught.value) == "2 changing trails start at (-2, 1)"


def test_orbit_keys_its_input_without_zero_length_paths():
    # at N = 1 the blue path of (0,) starts where it ends; the image of the
    # one green object lands back on the input pattern, which must not be
    # queued again as a pattern with one path fewer
    res = explore_orbit((0,), (1,), t=-2, selected=(3,), N=1)
    assert res.selected == ((-3, 1),)
    assert res.counts0 == {((0,), (0,), (1,), (0,)): 1}
    assert res.counts1 == {((1,), (0,), (), ()): 1}
    assert res.O0_size == res.O1_size == 1


@st.composite
def skew_shapes(draw):
    outer = sorted(draw(st.lists(st.integers(0, 3), min_size=1, max_size=3)), reverse=True)
    inner = [draw(st.integers(0, part)) for part in outer]
    inner = [min(i, o) for i, o in zip(sorted(inner, reverse=True), outer)]
    return SkewShape(Partition(outer), Partition(inner))


def _outcome(read, *args):
    try:
        return read(*args)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_orbit_reads_the_reached_pattern_off_the_edges(data):
    # N = 1 is where zero-length paths occur; a recoloured graph keeps those no
    # flipped edge reaches, and the edges carry no trace of them
    N = data.draw(st.integers(1, 3), label="N")
    offset = data.draw(st.integers(-2, 2), label="offset")
    blue_shape, green_shape = data.draw(skew_shapes(), label="blue"), data.draw(skew_shapes(), label="green")
    blues = list(enumerate_families(TerminalSpec.from_shape(blue_shape, N)))
    greens = list(enumerate_families(TerminalSpec.from_shape(green_shape, N, offset)))
    assume(blues and greens)
    graph = build_graph(data.draw(st.sampled_from(blues)), data.draw(st.sampled_from(greens)))
    locations = [q.location for q in terminal_points(graph)]
    assume(locations)
    try:
        image = recolour(graph, [trail_at_terminal(graph, data.draw(st.sampled_from(locations)))])
    except ValueError:
        assume(False)  # on one line two trails can start at a point, or none
    for layer, family in zip(image.layers, (image.blue, image.green)):
        family = PathFamily(path for path in family if path.steps)
        terminals, weight = edge_pattern(layer)
        edge_read = _outcome(lambda t: (TerminalSpec(*t, N), _weight_key(layer.frame, weight)), terminals)
        assert edge_read == _outcome(lambda f: (TerminalSpec.from_family(f, N), path_weight(f)), family)


def test_edge_pattern_reads_two_objects_of_one_layout_to_its_terminals():
    spec = TerminalSpec.from_shape(SkewShape(Partition((2, 1))), 2, 0)
    first, second = (build_graph(f, PathFamily()).layers[0] for f in itertools.islice(enumerate_families(spec), 2))
    assert (first.east, first.north) != (second.east, second.north)
    assert edge_pattern(first)[0] == edge_pattern(second)[0] == (spec.starts, spec.ends)


# ---------------------------------------------------------------- audit

def test_audit_splits_objects():
    rep = bijection_audit((2, 1), N=2)
    assert rep.objects == 6
    assert rep.case_a == 2
    assert rep.case_b == 4
    assert rep.to_json()["lambda"] == [2, 1]


def test_audit_single_variable_is_forced():
    rep = bijection_audit((1, 1), N=1)
    assert rep.objects == 1
    assert rep.case_a == 0
    assert rep.case_b == 1


def test_audit_four_part_window():
    assert bijection_audit((5, 4, 3, 2), N=2).objects == 0
    rep = bijection_audit((5, 4, 3, 2), N=3)
    assert rep.objects == 64
    assert rep.case_a == 0
    assert rep.case_b == 64


def unmoved(frame, layers, trails):
    """A move on masks that changes nothing: every object is its own image."""
    return tuple((layer.east, layer.north) for layer in layers), (0, 0)


def test_audit_refuses_an_image_outside_the_layouts(monkeypatch):
    monkeypatch.setattr(replay, "_recoloured", unmoved)
    with pytest.raises(RuntimeError, match=r"image \(\('\(.*is not an object of either layout"):
        bijection_audit((2, 1), N=2)


def test_audit_refuses_a_repeated_image(monkeypatch):
    move = replay._recoloured
    first = []

    def to_the_first_image(frame, layers, trails):
        if not first:
            first.append(move(frame, layers, trails))
        return first[0]

    monkeypatch.setattr(replay, "_recoloured", to_the_first_image)
    with pytest.raises(RuntimeError, match=r"two objects recoloured to the same image \(\('\("):
        bijection_audit((2, 1), N=2)


def test_audit_refuses_a_layout_never_reached(monkeypatch):
    # one more tableau per factor: layout A of (2,1) at N = 2 counts 2 * 3 objects, and 2 images land in it
    count = replay.ssyt_count
    monkeypatch.setattr(replay, "ssyt_count", lambda parts, N: count(parts, N) + 1)
    with pytest.raises(RuntimeError, match="^4 layout objects were never reached$"):
        bijection_audit((2, 1), N=2)


def test_audit_refuses_more_images_than_a_layout_has(monkeypatch):
    # one tableau fewer for each factor with more than one: layout A counts 1 * 1 objects
    count = replay.ssyt_count
    monkeypatch.setattr(replay, "ssyt_count", lambda parts, N: count(parts, N) - (count(parts, N) > 1))
    with pytest.raises(RuntimeError, match="^2 images land in layout A, more than the 1 it has$"):
        bijection_audit((2, 1), N=2)


def test_audit_refuses_a_changed_weight(monkeypatch):
    # the left weight comes from the tableaux' tableau_weight, the image's from its east edges
    monkeypatch.setattr(trails, "tableau_weight", lambda t: ())
    with pytest.raises(RuntimeError, match=r"^recolouring changed the weight: 1 -> x"):
        bijection_audit((2, 1), N=2)


def test_audit_and_orbit_build_no_paths_on_passing_inputs(monkeypatch):
    # objects are written straight from tableaux; paths are spelled out only for messages,
    # and the library's own tableaux and families are built without the checking constructors
    calls = [
        lambda: bijection_audit((2, 1), N=2),
        lambda: bijection_audit((3, 2, 1), N=3),
        lambda: bijection_audit((1, 1), N=1),
        lambda: bijection_audit((0, 0), N=1),
        lambda: explore_orbit((2,), (1,), t=-1, selected=(1,), N=2),
        lambda: explore_orbit((5, 4, 3), (4, 3, 2), t=-1, selected=(1,), N=3),
        lambda: explore_orbit((2, 1), (2, 1), t=1, selected=(2,), N=2),
    ]
    expected = [call().to_json() for call in calls]
    specs = [TerminalSpec.from_shape(SkewShape((4, 3, 2), (1,)), 4, -1), TerminalSpec.from_shape((3, 0), 1)]
    families = [list(enumerate_families(spec)) for spec in specs]

    def refuse(self, *args, **kwargs):
        raise AssertionError("built a %s" % type(self).__name__)

    monkeypatch.setattr(schur.LatticePath, "__init__", refuse)
    monkeypatch.setattr(schur.PathFamily, "__init__", refuse)
    monkeypatch.setattr(schur.Tableau, "__init__", refuse)
    assert [call().to_json() for call in calls] == expected
    assert [list(enumerate_families(spec)) for spec in specs] == families


def test_orbit_refuses_a_pattern_before_listing_its_green_side(monkeypatch):
    listed = []

    def counting(spec):
        for t in schur.spec_tableaux(spec):
            listed.append(t)
            yield t

    monkeypatch.setattr(trails, "spec_tableaux", counting)
    monkeypatch.setattr(replay, "MAX_AUDIT_OBJECTS", 5)
    # s_1 * s_33 in three letters: 3 blue families times 10 green ones
    with pytest.raises(ValueError, match="^the orbit moves more than MAX_AUDIT_OBJECTS = 5 objects$"):
        explore_orbit((1,), (3, 3), N=3)
    # one blue family, then one green family more than the bound
    assert len(listed) == 1 + 6
    # a pair without a blue family is never refused, and its green side is not listed
    listed.clear()
    no_blue = TerminalSpec([(0, 1)], [(-1, 3)], 3)
    assert list(trails.pattern_objects(no_blue, TerminalSpec.from_shape((3, 3), 3), 0, ValueError())) == []
    assert listed == []


def test_audit_refuses_more_objects_than_the_limit():
    # s_(7,4)(1^4) * s_(4,2)(1^4) = 113400 objects, just over the limit
    objects = count_of((7, 4), 4) * count_of((4, 2), 4)
    assert MAX_AUDIT_OBJECTS < objects < 2 * MAX_AUDIT_OBJECTS
    with pytest.raises(ValueError, match="the audit has %d objects, more than MAX_AUDIT_OBJECTS" % objects):
        bijection_audit((7, 4, 2), N=4)


def test_schur_identities_refuse_too_many_tableau_pairs(monkeypatch):
    def expand(parts, N):
        raise AssertionError("expanded %r at N=%d before the guard" % (parts, N))

    monkeypatch.setattr(identities, "schur_of", expand)

    def terms(parts, N):
        # no more terms than tableaux, nor than monomials of degree |parts| in N variables
        return min(ssyt_count(parts, N), math.comb(sum(parts) + N - 1, N - 1))

    # the window exchange, both sides: (5,4,3,2,1) has many tableaux, (3,3) few but over 30 variables
    for lam, N, products in (
        ((5, 4, 3, 2, 1), 8, [((5, 4, 3, 2), (4, 3, 2, 1)), ((4, 3, 2), (5, 4, 3, 2, 1)), ((3, 2, 1, 0), (6, 5, 4, 3))]),
        ((3, 3), 30, [((3,), (3,)), ((), (3, 3)), ((2,), (4,))]),
    ):
        digits = N * sum(terms(a, N) * terms(b, N) for a, b in products)
        assert digits > MAX_PRODUCT_DIGITS
        with pytest.raises(ValueError, match="products have %d key digits, more than MAX_PRODUCT_DIGITS" % digits):
            verify_general(lam, N=N)
    with pytest.raises(ValueError, match="more than MAX_PRODUCT_DIGITS"):
        verify_kleber((5, 4, 3, 2, 1), 2, N=8)


def test_audit_needs_two_parts():
    with pytest.raises(ValueError):
        bijection_audit((3,), N=2)


audit_partitions_st = st.lists(
    st.integers(min_value=0, max_value=3), min_size=2, max_size=4
).map(lambda ps: tuple(sorted(ps, reverse=True)))


@settings(max_examples=25, deadline=None)
@given(parts=audit_partitions_st, N=st.sampled_from([1, 2, 3]))
def test_audit_counts_match_products(parts, N):
    rep = bijection_audit(parts, N)
    r = len(parts) - 1
    assert rep.objects == count_of(parts[:r], N) * count_of(parts[1:], N)
    assert rep.case_a == count_of(parts[1:r], N) * count_of(parts, N)
    assert rep.case_b == count_of([p - 1 for p in parts[1:]], N) * count_of(
        [p + 1 for p in parts[:r]], N
    )


# ---------------------------------------------------------------- seeded sweep

def _sweep_shape(rng):
    outer = sorted((rng.randint(0, 3) for _ in range(rng.randint(1, 3))), reverse=True)
    inner = sorted((rng.randint(0, part) for part in outer), reverse=True)
    return SkewShape(Partition(outer), Partition([min(i, o) for i, o in zip(inner, outer)]))


def _sweep_calls():
    rng = random.Random(7)
    for _ in range(1400):
        N = rng.randint(1, 3)
        blue, green = _sweep_shape(rng), _sweep_shape(rng)
        t = rng.randint(-2, 2)
        selected = [rng.randint(1, 8) for _ in range(rng.randint(0, 2))]
        yield explore_orbit, (blue, green), {"t": t, "selected": selected, "N": N}
    for _ in range(300):
        parts = sorted((rng.randint(0, 4) for _ in range(rng.randint(2, 4))), reverse=True)
        yield bijection_audit, (parts, rng.randint(1, 3)), {}


def _sweep_outcome(move, args, kwargs):
    try:
        return json.dumps(move(*args, **kwargs).to_json(), sort_keys=True)
    except (ValueError, RuntimeError) as exc:
        return "%s: %s" % (type(exc).__name__, exc)


def test_seeded_orbit_and_audit_sweep_keeps_its_outcomes():
    # 1,400 small orbits at N = 1..3, zero-length paths among them, then 300
    # audits; each outcome is the report's JSON or the refusal's type and text.
    # The digest pins every outcome, so a change that mends a refusal on
    # purpose (the N = 1 involution failures, say) records a new one.
    outcomes = [_sweep_outcome(*call) for call in _sweep_calls()]
    kinds = collections.Counter("report" if o.startswith("{") else o.split(":")[0] for o in outcomes)
    assert kinds == {"report": 1249, "ValueError": 414, "RuntimeError": 37}
    digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
    assert digest == "8b9dbda1a971ba28dd6e5a0dd37fea8c0500dff2ad260acaeaeb2420b9bd46fc"
