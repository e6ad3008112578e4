from math import gcd

import pytest

from skewinv.errors import InfiniteOrderError, ParameterError
from skewinv.group_actions import (
    DihedralMQ,
    GradedAut,
    GroupSpec,
    RationalFunction,
    _check_finite_order,
    enumerate_group,
    group_report,
    hdet,
    is_quasi_reflection,
    is_small_brute,
    is_small_closed_form,
    trace,
    trace_series,
)
from skewinv.scalars import Cyclo, lcm
from skewinv.skew_algebra import AlgebraElt, AlgebraSpec, Mat2, apply_aut, validate_automorphism

QM1 = AlgebraSpec.quantum(Cyclo.from_rational(-1))
Q5 = AlgebraSpec.quantum(Cyclo.root(5))
JORDAN = AlgebraSpec.jordan()
COMM = AlgebraSpec.commutative()


def test_enumerate_cyclic():
    G = GroupSpec.cyclic(3, 1, Q5)
    assert len(enumerate_group(G)) == 3


def test_enumerate_gnk_order():
    assert len(enumerate_group(GroupSpec.gnk(3, 1))) == 6
    assert len(enumerate_group(GroupSpec.gnk(5, 3))) == 30


def test_gnk_element_formula_matches_matrix_products():
    for n, k in ((3, 1), (3, 4), (5, 3)):
        G = GroupSpec.gnk(n, k)
        g, h = G.generators()
        m = G.root_order
        built = set()
        acc_g = GradedAut.identity_elt()
        for _ in range(n):
            acc = acc_g
            for _ in range(2 * k):
                built.add(acc.key_at(m))
                acc = acc @ h
            acc_g = acc_g @ g
        listed = {e.key_at(m) for e in enumerate_group(G)}
        assert built == listed


def test_gnk_closure():
    for n, k in ((3, 1), (2, 3), (3, 2)):
        G = GroupSpec.gnk(n, k)
        m = G.root_order
        elems = enumerate_group(G)
        keys = {e.key_at(m) for e in elems}
        assert len(keys) == len(elems)
        for x in elems:
            for y in elems:
                assert (x @ y).key_at(m) in keys


def test_gnk_degenerate_pair_coincides():
    # n = 2 mod 4 and k = 0 mod 4: G_{n,k} equals G_{n/2,k} as a matrix group
    a = enumerate_group(GroupSpec.gnk(2, 4))
    b = enumerate_group(GroupSpec.gnk(1, 4))
    M = lcm(2 * 2 * 4, 2 * 1 * 4)
    assert {e.key_at(M) for e in a} == {e.key_at(M) for e in b}
    # the (i, j)-indexed element list repeats elements exactly when degenerate
    assert len(GroupSpec.gnk(2, 4).keys) < 2 * 2 * 4
    assert not len(GroupSpec.gnk(3, 4).keys) < 2 * 3 * 4


@pytest.mark.parametrize("n", range(1, 11))
@pytest.mark.parametrize("k", range(1, 11))
def test_gnk_presentation_relations(n, k):
    G = GroupSpec.gnk(n, k)
    g, h = G.generators()
    m = G.root_order
    ident = GradedAut.identity_elt().key_at(m)
    acc = GradedAut.identity_elt()
    for _ in range(n):
        acc = acc @ g
    assert acc.key_at(m) == ident
    acc = GradedAut.identity_elt()
    for _ in range(2 * k):
        acc = acc @ h
    assert acc.key_at(m) == ident
    lhs = h @ g
    rhs = GradedAut.identity_elt()
    for _ in range(n - 1):
        rhs = rhs @ g
    rhs = rhs @ h
    assert lhs.key_at(m) == rhs.key_at(m)


def test_trace_identity():
    for spec in (QM1, JORDAN, COMM, Q5):
        series, rf = trace(spec, GradedAut.identity_elt(), 8)
        assert series.integer_coeffs() == [d + 1 for d in range(9)]
        assert rf is not None
        assert rf.expand(8) == series


def test_trace_antidiagonal_example():
    h = GradedAut.antidiag_power(2, 0, 0)  # antidiag(1, 1)
    series, rf = trace(QM1, h, 8)
    assert series.integer_coeffs() == [1, 0, -1, 0, 1, 0, -1, 0, 1]
    assert rf.expand(8) == series
    series_c, rf_c = trace(COMM, h, 8)
    assert series_c.integer_coeffs() == [1, 0, 1, 0, 1, 0, 1, 0, 1]
    assert rf_c.expand(8) == series_c


def test_trace_closed_forms_match_series_on_groups():
    groups = [
        GroupSpec.gnk(3, 1),
        GroupSpec.gnk(3, 4),
        GroupSpec.cyclic(5, 2, Q5),
        GroupSpec.cyclic(4, 1, JORDAN),
        GroupSpec.dihedral(3, 2),
    ]
    for G in groups:
        for g in enumerate_group(G):
            series, rf = trace(G.ambient, g, 24)
            assert rf is not None
            assert rf.expand(24) == series


def test_trace_generic_path_agrees_with_mono_path(family_groups):
    groups = [
        GroupSpec.gnk(3, 2),
        GroupSpec.dihedral(4, 3),
        GroupSpec.cyclic(5, 2, Q5),
        GroupSpec.cyclic(3, 1, JORDAN),
    ]
    for G in groups:
        for g in enumerate_group(G):
            stripped = GradedAut(g.a, g.b, g.c, g.d)  # no mono metadata
            assert stripped.mono is None
            assert trace_series(G.ambient, stripped, 10) == trace_series(G.ambient, g, 10)
    # an odd root order leaves q = -1 outside w_m, so the antidiagonal trace needs w_2m
    g = GradedAut.antidiag_power(3, 1, 1)
    assert trace_series(QM1, GradedAut(g.a, g.b, g.c, g.d), 10) == trace_series(QM1, g, 10)
    assert g.exponent_key() == (6, (False, 2, 2))
    # apply_aut: every element's exponent key against its matrix's substitution,
    # on the monomials of degree <= 4 (distinct coefficients)
    elt = AlgebraElt({(i, j): 10 * i + j + 1 for i in range(5) for j in range(5 - i)})
    cases = [(G.ambient, g) for G in family_groups for g in enumerate_group(G)]
    cases += [(QM1, GradedAut.antidiag_power(3, 1, 1)), (QM1, GradedAut.antidiag_power(3, 1, 2))]
    for spec, g in cases:
        stripped = Mat2(g.a, g.b, g.c, g.d)
        assert g.exponent_key() is not None and stripped.exponent_key() is None
        assert apply_aut(spec, g, elt, checked=False) == apply_aut(spec, stripped, elt, checked=False)


def test_mono_product_matches_matrix_product():
    groups = [
        GroupSpec.gnk(3, 2),
        GroupSpec.gnk(2, 4),
        GroupSpec.dihedral(4, 3),
        GroupSpec.cyclic(5, 2, Q5),
    ]
    for G in groups:
        elems = enumerate_group(G)
        for x in elems:
            for y in elems:
                prod = x @ y
                assert prod.mono is not None
                assert prod == Mat2.__matmul__(x, y)
    # mixed root orders compose at the lcm order
    prod = GradedAut.diag_power(4, 1, 3) @ GradedAut.antidiag_power(6, 1, 5)
    assert prod.mono == (12, 5, 7)
    assert prod == Mat2.__matmul__(GradedAut.diag_power(4, 1, 3), GradedAut.antidiag_power(6, 1, 5))
    # an operand without mono takes the matrix product and drops the tag
    plain = GradedAut(Cyclo.root(3), 0, 0, 1) @ GradedAut.diag_power(3, 1, 1)
    assert plain.mono is None and plain == GradedAut.diag_power(3, 2, 1)


def test_jordan_triangular_trace():
    g = GradedAut(Cyclo.root(3), 2, 0, Cyclo.root(3))
    series, rf = trace(JORDAN, g, 10)
    w = Cyclo.root(3)
    assert all(series[d] == (d + 1) * w ** d for d in range(11))
    assert rf.expand(10) == series


def test_quasi_reflection_examples():
    assert is_quasi_reflection(Q5, GradedAut(1, 0, 0, Cyclo.root(3)))
    assert not is_quasi_reflection(QM1, GradedAut.diag_power(3, 1, 2))
    w8 = Cyclo.root(8)
    assert is_quasi_reflection(QM1, GradedAut(0, w8, -(w8 ** -1), 0))  # bc = -1
    assert is_quasi_reflection(COMM, GradedAut.antidiag_power(2, 0, 0))  # Example: bc = 1
    assert not is_quasi_reflection(QM1, GradedAut.antidiag_power(2, 0, 0))


def is_quasi_reflection_by_series(spec: AlgebraSpec, g: GradedAut, N: int = 12) -> bool:
    """Series oracle: trace * (1 - t) must be geometric 1/(1 - lambda t), lambda != 1."""
    validate_automorphism(spec, g)
    _check_finite_order(spec, g)
    trace = trace_series(spec, g, N).coeffs
    series = [trace[0]] + [trace[d] - trace[d - 1] for d in range(1, N + 1)]  # times (1 - t)
    if not series[0].is_one():
        return False
    lam = series[1]
    if lam == 1:
        return False
    acc = Cyclo.one()
    for d in range(1, N + 1):
        acc = acc * lam
        if not (series[d] - acc).is_zero():
            return False
    return True


def test_quasi_reflection_closed_form_agrees_with_series_oracle():
    groups = [
        GroupSpec.gnk(3, 2),
        GroupSpec.gnk(2, 1),
        GroupSpec.cyclic(6, 2, Q5),
        GroupSpec.cyclic(4, 1, JORDAN),
        GroupSpec.dihedral(4, 3),
    ]
    for G in groups:
        for g in enumerate_group(G):
            assert is_quasi_reflection(G.ambient, g) == is_quasi_reflection_by_series(
                G.ambient, g
            )


def test_quasi_reflection_infinite_order():
    with pytest.raises(InfiniteOrderError):
        is_quasi_reflection(Q5, GradedAut.diagonal(2, 3))
    with pytest.raises(InfiniteOrderError):
        is_quasi_reflection(JORDAN, GradedAut(1, 1, 0, 1))


def test_hdet_examples():
    assert hdet(QM1, GradedAut.identity_elt()).is_one()
    a, d = Cyclo.root(7, 2), Cyclo.root(7, 3)
    assert hdet(Q5, GradedAut.diagonal(a, d)) == a * d
    b, c = Cyclo.root(8), Cyclo.root(8, 5)
    assert hdet(QM1, GradedAut.antidiagonal(b, c)) == b * c
    w = Cyclo.root(4)
    assert hdet(JORDAN, GradedAut(w, 3, 0, w)) == w ** 2
    # the key rule against the relation-line scalar of the stripped matrix,
    # at an even and an odd order on both planes antidiagonal maps act on
    for spec in (QM1, COMM):
        for g in (GradedAut.antidiag_power(6, 1, 2), GradedAut.antidiag_power(3, 1, 1)):
            assert hdet(spec, g) == hdet(spec, Mat2(g.a, g.b, g.c, g.d))


def test_hdet_gnk_generators():
    # hdet(g) = 1 and hdet(h) = w^(2n), a primitive k-th root: trivial iff k = 1
    for n, k in ((5, 1), (7, 3), (3, 4)):
        G = GroupSpec.gnk(n, k)
        g, h = G.generators()
        assert hdet(QM1, g).is_one()
        hd = hdet(QM1, h)
        assert hd == Cyclo.root(2 * n * k, 2 * n)
        acc = Cyclo.one()
        order = 0
        for i in range(1, k + 1):
            acc = acc * hd
            if acc.is_one():
                order = i
                break
        assert order == k


def test_hdet_multiplicative_on_groups():
    for G in (GroupSpec.gnk(3, 2), GroupSpec.cyclic(5, 3, Q5), GroupSpec.cyclic(3, 1, JORDAN)):
        elems = enumerate_group(G)
        for x in elems[:6]:
            for y in elems[:6]:
                assert hdet(G.ambient, x @ y) == hdet(G.ambient, x) * hdet(G.ambient, y)


def test_group_report_examples():
    rep = group_report(GroupSpec.gnk(3, 2))
    assert rep["is_small"] is False
    rep = group_report(GroupSpec.gnk(5, 1))
    assert rep["is_small"] is True
    assert rep["hdet_trivial"] is True
    assert rep["gorenstein_flag"] is True
    assert rep["commutative_invariants_flag"] is False
    rep = group_report(GroupSpec.cyclic(4, 1, JORDAN))
    assert rep["is_small"] is True
    assert rep["commutative_invariants_flag"] is None
    assert rep["hdet_trivial"] is False  # trivial only for n = 2


def test_group_report_rejects_commutative_plane():
    with pytest.raises(ParameterError):
        group_report(GroupSpec.cyclic(3, 1, COMM))


def test_smallness_brute_equals_closed_form_small_battery():
    for n in range(1, 7):
        for k in range(1, 7):
            G = GroupSpec.gnk(n, k)
            assert is_small_brute(G) == is_small_closed_form(G)
    for n in range(2, 7):
        for a in range(1, n):
            G = GroupSpec.cyclic(n, a, Q5)
            assert is_small_brute(G) == (gcd(a, n) == 1) == is_small_closed_form(G)


def test_cor_313_trivial_hdet_cases():
    # case (i): a = n-1; case (ii): k = 1; case (iii): n = 2
    for n in range(2, 7):
        for a in range(1, n):
            if gcd(a, n) != 1:
                continue
            rep = group_report(GroupSpec.cyclic(n, a, Q5))
            assert rep["hdet_trivial"] == (a == n - 1)
    for n, k in ((2, 1), (3, 1), (5, 1), (3, 4), (5, 3), (7, 3)):
        rep = group_report(GroupSpec.gnk(n, k))
        assert rep["hdet_trivial"] == (k == 1)
    for n in range(2, 7):
        rep = group_report(GroupSpec.cyclic(n, 1, JORDAN))
        assert rep["hdet_trivial"] == (n == 2)


def test_family_generators_are_automorphisms(family_groups):
    # the variant checks in GroupSpec admit only planes where this holds
    for G in family_groups:
        for g in G.generators():
            validate_automorphism(G.ambient, g)
    for m, q in ((3, 2), (5, 3), (7, 4)):
        with pytest.raises(ParameterError):
            GroupSpec(DihedralMQ(m, q), QM1)


def test_key_classification_matches_matrices(family_groups):
    # smallness and hdet triviality from the keys equal the public
    # per-matrix rules (the general path on the Jordan plane)
    for G in family_groups:
        elems = enumerate_group(G)
        assert is_small_brute(G) == (not any(is_quasi_reflection(G.ambient, g) for g in elems))
        if not G.ambient.is_commutative:
            assert group_report(G)["hdet_trivial"] == all(hdet(G.ambient, g).is_one() for g in elems)


def test_gnk_requires_qminus1():
    with pytest.raises(ParameterError):
        GroupSpec(GroupSpec.gnk(3, 1).variant, Q5)


def test_jordan_group_needs_a_equal_1():
    with pytest.raises(ParameterError):
        GroupSpec.cyclic(5, 2, JORDAN)


def test_rational_function_expansion():
    rf = RationalFunction([1], [1, -2])
    assert rf.expand(5).integer_coeffs() == [1, 2, 4, 8, 16, 32]
    with pytest.raises(ParameterError):
        RationalFunction([1], [0, 1])


def test_trace_generic_matrix_commutative():
    # classical Molien factor 1/det(1 - g t) against the act-on-basis path
    g = GradedAut(1, 2, 1, 3)
    series, rf = trace(COMM, g, 10)
    assert rf is not None
    assert rf.expand(10) == series


def test_hdet_rejects_invalid():
    from skewinv.errors import InvalidAutomorphismError

    with pytest.raises(InvalidAutomorphismError):
        hdet(QM1, GradedAut(1, 1, 0, 1))


def test_finite_order_general_matrix_on_commutative_plane():
    # [[0,-1],[1,-1]] has order 3 over the rationals; the naive entry-order
    # bound would misreport it as infinite
    g = GradedAut(0, -1, 1, -1)
    assert not is_quasi_reflection(COMM, g)
    # an actual reflection written in a skewed basis: conjugate diag(1,-1)
    # by [[1,1],[0,1]] giving [[1,2],[0,-1]]... use u -> u, v -> 2u - v
    h = GradedAut(1, 2, 0, -1)
    assert is_quasi_reflection(COMM, h)
    with pytest.raises(InfiniteOrderError):
        is_quasi_reflection(COMM, GradedAut(1, 1, 0, 1))
