import cmath
import random
from fractions import Fraction
from math import gcd

import matrix_oracle as oracle
import pytest
from conftest import key_matrix
from hypothesis import given, settings
from hypothesis import strategies as st
from matrix_oracle import InfiniteOrderError, Mat2, check_finite_order, validate_automorphism

from skewinv.cli import _parse_element
from skewinv.errors import InvalidAutomorphismError, ParameterError
from skewinv.group_actions import (
    DihedralMQ,
    GroupSpec,
    RationalFunction,
    enumerate_group,
    group_report,
    hdet,
    is_quasi_reflection,
    is_small_brute,
    is_small_closed_form,
    mono_mul,
    trace,
    trace_closed_form,
    trace_series,
)
from skewinv.scalars import Cyclo, lcm
from skewinv.skew_algebra import AlgebraElt, AlgebraSpec, apply_aut, monomial_action

QM1 = AlgebraSpec.quantum(Cyclo.from_rational(-1))
Q5 = AlgebraSpec.quantum(Cyclo.root(5))
JORDAN = AlgebraSpec.jordan()
COMM = AlgebraSpec.commutative()
IDENTITY = (1, (True, 0, 0))
I2 = Mat2(1, 0, 0, 1)


def generator_matrices(G):
    m = G.root_order
    return [key_matrix(m, key) for key in G.generator_keys()]


def test_enumerate_cyclic():
    G = GroupSpec.cyclic(3, 1, Q5)
    assert len(enumerate_group(G)) == 3


def test_enumerate_gnk_order():
    assert len(enumerate_group(GroupSpec.gnk(3, 1))) == 6
    assert len(enumerate_group(GroupSpec.gnk(5, 3))) == 30


def test_gnk_element_formula_matches_matrix_products():
    for n, k in ((3, 1), (3, 4), (5, 3)):
        G = GroupSpec.gnk(n, k)
        g, h = generator_matrices(G)
        m = G.root_order
        built = set()
        acc_g = I2
        for _ in range(n):
            acc = acc_g
            for _ in range(2 * k):
                built.add(acc.key_at(m))
                acc = acc @ h
            acc_g = acc_g @ g
        listed = {key_matrix(*e).key_at(m) for e in enumerate_group(G)}
        assert built == listed


def test_gnk_closure():
    for n, k in ((3, 1), (2, 3), (3, 2)):
        G = GroupSpec.gnk(n, k)
        m = G.root_order
        elems = [key_matrix(*e) for e in enumerate_group(G)]
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
    assert {key_matrix(*e).key_at(M) for e in a} == {key_matrix(*e).key_at(M) for e in b}
    # the (i, j)-indexed element list repeats elements exactly when degenerate
    assert len(GroupSpec.gnk(2, 4).keys) < 2 * 2 * 4
    assert not len(GroupSpec.gnk(3, 4).keys) < 2 * 3 * 4


@pytest.mark.parametrize("n", range(1, 11))
@pytest.mark.parametrize("k", range(1, 11))
def test_gnk_presentation_relations(n, k):
    G = GroupSpec.gnk(n, k)
    g, h = generator_matrices(G)
    m = G.root_order
    ident = I2.key_at(m)
    acc = I2
    for _ in range(n):
        acc = acc @ g
    assert acc.key_at(m) == ident
    acc = I2
    for _ in range(2 * k):
        acc = acc @ h
    assert acc.key_at(m) == ident
    lhs = h @ g
    rhs = I2
    for _ in range(n - 1):
        rhs = rhs @ g
    rhs = rhs @ h
    assert lhs.key_at(m) == rhs.key_at(m)


def test_trace_identity():
    for spec in (QM1, JORDAN, COMM, Q5):
        for series, rf in (trace(spec, IDENTITY, 8), oracle.trace(spec, I2, 8)):
            assert series == [d + 1 for d in range(9)]
            assert rf is not None
            assert rf.expand(8) == series


def test_trace_antidiagonal_example():
    for tr, h in ((trace, (2, (False, 0, 0))), (oracle.trace, Mat2.antidiagonal(1, 1))):
        series, rf = tr(QM1, h, 8)
        assert series == [1, 0, -1, 0, 1, 0, -1, 0, 1]
        assert rf.expand(8) == series
        series_c, rf_c = tr(COMM, h, 8)
        assert series_c == [1, 0, 1, 0, 1, 0, 1, 0, 1]
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
    # the oracle's one formula 1/(1 - tr t + hdet t^2) on matrices, on all four planes:
    # every element's matrix, diagonal and antidiagonal maps whose entries are
    # not roots of unity, general matrices on the commutative plane and
    # Jordan triangular maps [[a, b], [0, a]] with b != 0
    w3, w5 = Cyclo.root(3), Cyclo.root(5)
    cases = [(G.ambient, key_matrix(*g)) for G in groups for g in enumerate_group(G)]
    cases += [(Q5, Mat2.diagonal(w3, -2)), (QM1, Mat2.diagonal(2, w5)),
              (QM1, Mat2.antidiagonal(3, Fraction(-1, 2))), (QM1, Mat2.antidiagonal(w3, w5))]
    cases += [(COMM, M) for M in (Mat2(1, 2, 1, 3), Mat2(0, -1, 1, -1), Mat2(1, 2, 0, -1),
                                  Mat2(w5, 1, 2, w3), Mat2(Fraction(1, 2), 3, -1, w3))]
    cases += [(JORDAN, Mat2(a, b, 0, a)) for a in (1, -1, w3, w5 ** 2) for b in (1, -2, w5)]
    for spec, M in cases:
        series, rf = oracle.trace(spec, M, 10)
        assert rf.expand(10) == series


def test_trace_generic_path_agrees_with_mono_path(family_groups):
    # every element of every family group: the pair's hdet, closed form and
    # trace series through degree 6 against the oracle's on its matrix, and
    # the trace series through degree 10 on four of the groups
    for G in family_groups:
        spec = G.ambient
        for g in enumerate_group(G):
            M = key_matrix(*g)
            assert hdet(spec, g) == oracle.hdet(spec, M)
            closed, closed_m = trace_closed_form(spec, g), oracle.trace_closed_form(spec, M)
            assert closed.num == closed_m.num and closed.den == closed_m.den
            assert trace_series(spec, g, 6) == oracle.trace_series(spec, M, 6)
    groups = [
        GroupSpec.gnk(3, 2),
        GroupSpec.dihedral(4, 3),
        GroupSpec.cyclic(5, 2, Q5),
        GroupSpec.cyclic(3, 1, JORDAN),
    ]
    for G in groups:
        for g in enumerate_group(G):
            assert trace_series(G.ambient, g, 10) == oracle.trace_series(G.ambient, key_matrix(*g), 10)
    # q = -1 is not a power of w_3, so antidiag(w_3, w_3) is read over w_6
    w3 = Cyclo.root(3)
    assert trace_series(QM1, (6, (False, 2, 2)), 10) == oracle.trace_series(
        QM1, Mat2.antidiagonal(w3, w3), 10
    )
    # apply_aut: every element's key against its matrix's substitution,
    # on the monomials of degree <= 4 (distinct coefficients)
    elt = AlgebraElt({(i, j): 10 * i + j + 1 for i in range(5) for j in range(5 - i)})
    cases = [(G.ambient, g, key_matrix(*g)) for G in family_groups for g in enumerate_group(G)]
    cases += [(QM1, (6, (False, 2, 2)), Mat2.antidiagonal(w3, w3)),
              (QM1, (6, (False, 2, 4)), Mat2.antidiagonal(w3, w3 ** 2))]
    for spec, g, M in cases:
        assert apply_aut(spec, g, elt) == oracle.apply_aut(spec, M, elt)


def test_mono_product_matches_matrix_product():
    groups = [
        GroupSpec.gnk(3, 2),
        GroupSpec.gnk(2, 4),
        GroupSpec.dihedral(4, 3),
        GroupSpec.cyclic(5, 2, Q5),
    ]
    for G in groups:
        m = G.root_order
        for x in G.keys:
            for y in G.keys:
                assert key_matrix(m, mono_mul(x, y, m)) == key_matrix(m, x) @ key_matrix(m, y)


_WORD_PLANES = [Q5, COMM, JORDAN]


@st.composite
def _group_and_word(draw):
    """G_(n,k) with n, k <= 6 or 1/n(1,a) with n <= 7 over q = w5, q = 1 or
    Jordan, and a word of up to four factors in its generators, as text and
    as (name, power) factors (power None for a bare name)."""
    if draw(st.booleans()):
        G = GroupSpec.gnk(draw(st.integers(1, 6)), draw(st.integers(1, 6)))
    else:
        spec = draw(st.sampled_from(_WORD_PLANES))
        n = draw(st.integers(1, 7))
        a = 0 if n == 1 else 1 if spec.kind == "jordan" else draw(st.integers(1, n - 1))
        G = GroupSpec.cyclic(n, a, spec)
    names = "gh"[: len(G.generator_keys())]
    factors = draw(st.lists(st.tuples(st.sampled_from(names),
                                      st.none() | st.integers(0, 2 * G.root_order + 1)),
                            max_size=4))
    text = "*".join(name if p is None else f"{name}^{p}" for name, p in factors)
    return G, text or draw(st.sampled_from(["e", "1", ""])), factors


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_group_and_word())
def test_parsed_word_matches_matrix_product(case):
    # the (m, key) pair of a word against the Mat2 product of the generator
    # matrices, and trace on the pair against trace on that matrix
    G, text, factors = case
    gens = dict(zip("gh", generator_matrices(G)))
    M = I2
    for name, p in factors:
        for _ in range(1 if p is None else p):
            M = M @ gens[name]
    g = _parse_element(G, text)
    assert key_matrix(*g) == M
    N = 6
    series, closed = trace(G.ambient, g, N)
    series_m, closed_m = oracle.trace(G.ambient, M, N)
    assert series == series_m
    assert closed.expand(N) == series == closed_m.expand(N)


def test_jordan_triangular_trace():
    g = Mat2(Cyclo.root(3), 2, 0, Cyclo.root(3))
    series, rf = oracle.trace(JORDAN, g, 10)
    w = Cyclo.root(3)
    assert all(series[d] == (d + 1) * w ** d for d in range(11))
    assert rf.expand(10) == series


def test_quasi_reflection_examples():
    assert oracle.is_quasi_reflection(Q5, Mat2(1, 0, 0, Cyclo.root(3)))
    assert not is_quasi_reflection(QM1, (3, (True, 1, 2)))
    assert not oracle.is_quasi_reflection(QM1, key_matrix(3, (True, 1, 2)))
    w8 = Cyclo.root(8)
    assert oracle.is_quasi_reflection(QM1, Mat2(0, w8, -(w8 ** -1), 0))  # bc = -1
    assert is_quasi_reflection(QM1, (8, (False, 1, 3)))  # the same map: -w8^-1 = w8^3
    for qr, h in ((is_quasi_reflection, (2, (False, 0, 0))),
                  (oracle.is_quasi_reflection, Mat2.antidiagonal(1, 1))):
        assert qr(COMM, h)  # Example: bc = 1
        assert not qr(QM1, h)


def is_quasi_reflection_by_series(spec: AlgebraSpec, M: Mat2, traces) -> bool:
    """Series oracle: M must be a valid automorphism of finite order, and its
    trace series `traces`, times (1 - t), geometric 1/(1 - lambda t) with
    lambda != 1."""
    validate_automorphism(spec, M)
    check_finite_order(M)
    trace, N = traces, len(traces) - 1
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
                G.ambient, key_matrix(*g), trace_series(G.ambient, g, 12)
            )


def test_quasi_reflection_matrices_agree_with_series_oracle():
    # the one rule tr = 1 + hdet, hdet != 1 on matrices of every shape, on all
    # four planes, against the trace-series oracle
    roots = [Cyclo.one(), Cyclo.from_rational(-1), Cyclo.root(3), Cyclo.root(4),
             Cyclo.root(5, 2), Cyclo.root(8, 3), Cyclo.root(12, 5)]
    diagonal = [Mat2.diagonal(x, y) for x in roots for y in roots]
    antidiagonal = [Mat2.antidiagonal(x, y) for x in roots for y in roots]
    cases = [(spec, M) for spec in (Q5, QM1, COMM) for M in diagonal]
    cases += [(spec, M) for spec in (QM1, COMM) for M in antidiagonal]
    cases += [(JORDAN, Mat2.diagonal(x, x)) for x in roots]
    # general matrices of finite order on the commutative plane: orders 3, 4
    # and 6, a reflection, and diag(x, y) conjugated by [[1, 1], [0, 1]]
    cases += [(COMM, M) for M in (Mat2(0, -1, 1, -1), Mat2(0, -1, 1, 0), Mat2(1, -1, 1, 0),
                                  Mat2(1, 2, 0, -1), Mat2(2, -1, 3, -2))]
    cases += [(COMM, Mat2(x, y - x, 0, y)) for x in roots for y in roots]
    for spec, M in cases:
        assert oracle.is_quasi_reflection(spec, M) == is_quasi_reflection_by_series(
            spec, M, oracle.trace_series(spec, M, 12)
        ), (spec, M)
    assert sum(oracle.is_quasi_reflection(spec, M) for spec, M in cases) > 20


def _complex(x: Cyclo) -> complex:
    w = cmath.exp(2j * cmath.pi / x.order)
    return sum(c * w ** i for i, c in enumerate(x.coeffs))


def _order_by_powers(M: Mat2, K: int = 30):
    """The least k <= K with M^k = I, or None.  The powers run in complex
    floating point; a k whose power lies within 1e-6 of I is confirmed
    exactly, and a power that is exactly I lies far closer than that."""
    a, b, c, d = map(_complex, M.entries())
    x = (a, b, c, d)
    for k in range(1, K + 1):
        if max(abs(x[0] - 1), abs(x[1]), abs(x[2]), abs(x[3] - 1)) < 1e-6:
            acc = M
            for _ in range(k - 1):
                acc = acc @ M
            if acc == I2:
                return k
        x = (x[0] * a + x[1] * c, x[0] * b + x[1] * d, x[2] * a + x[3] * c, x[2] * b + x[3] * d)
    return None


def test_finite_order_rule_matches_power_search():
    # random invertible matrices with entries in {0, +-1, 2, 1/2, +-w_m^e}.
    # Over Q(w_m) with phi(m) <= 4, a finite-order matrix has eigenvalues of
    # order n with phi(n) <= 8 (each lies in a quadratic extension), so its
    # order, their lcm, divides the number of roots of unity there: n <= 30
    rng = random.Random(17)
    found = []
    while len(found) < 2400:
        m = rng.choice((1, 2, 3, 4, 5, 6, 8, 12))
        pool = [0, 1, -1, 2, Fraction(1, 2)] + [s * Cyclo.root(m, e) for e in range(m) for s in (1, -1)]
        M = Mat2(*(rng.choice(pool) for _ in range(4)))
        if M.det().is_zero():
            continue
        try:
            check_finite_order(M)
            finite = True
        except InfiniteOrderError:
            finite = False
        order = _order_by_powers(M)
        assert finite == (order is not None), (M, order)
        found.append(order)
    assert sum(order is not None for order in found) > 200
    assert {2, 3, 4, 5, 6, 8, 10, 12, 24, 30} <= set(found)


def test_infinite_order_matrices_exit_promptly():
    # both have infinite order over Q(w_120), and the finite-order rule must
    # say so at once; a subprocess timeout turns a stall into a failure
    # instead of a hung suite
    import os
    import subprocess
    import sys

    import skewinv

    src = os.path.dirname(os.path.dirname(skewinv.__file__))
    tests = os.path.dirname(os.path.abspath(__file__))
    code = (
        "from matrix_oracle import InfiniteOrderError, Mat2, is_quasi_reflection\n"
        "from skewinv.scalars import Cyclo\n"
        "from skewinv.skew_algebra import AlgebraSpec\n"
        "for d in (1, 0):\n"
        "    try:\n"
        "        is_quasi_reflection(AlgebraSpec.commutative(), Mat2(Cyclo.root(120), 1, 1, d))\n"
        "    except InfiniteOrderError:\n"
        "        print('infinite', d)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, tests]))
    try:
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=10, env=env)
    except subprocess.TimeoutExpired:
        pytest.fail("is_quasi_reflection on Mat2(w_120, 1, 1, d) did not return in 10 s")
    assert proc.returncode == 0 and proc.stdout == "infinite 1\ninfinite 0\n"


def test_quasi_reflection_infinite_order():
    with pytest.raises(InfiniteOrderError):
        oracle.is_quasi_reflection(Q5, Mat2.diagonal(2, 3))
    with pytest.raises(InfiniteOrderError):
        oracle.is_quasi_reflection(JORDAN, Mat2(1, 1, 0, 1))


def test_hdet_examples():
    assert hdet(QM1, IDENTITY).is_one() and oracle.hdet(QM1, I2).is_one()
    a, d = Cyclo.root(7, 2), Cyclo.root(7, 3)
    assert oracle.hdet(Q5, Mat2.diagonal(a, d)) == a * d
    b, c = Cyclo.root(8), Cyclo.root(8, 5)
    assert oracle.hdet(QM1, Mat2.antidiagonal(b, c)) == b * c
    w = Cyclo.root(4)
    assert oracle.hdet(JORDAN, Mat2(w, 3, 0, w)) == w ** 2
    # the key rule against the relation-line scalar of the matrix, on every
    # plane: diagonal keys, and antidiagonal ones where they act
    for spec in (QM1, COMM):
        for g in ((6, (False, 1, 2)), (6, (False, 2, 2))):
            assert hdet(spec, g) == oracle.hdet(spec, key_matrix(*g))
    for spec in (QM1, COMM, Q5):
        for g in ((6, (True, 1, 2)), (7, (True, 0, 3))):
            assert hdet(spec, g) == oracle.hdet(spec, key_matrix(*g))
    for g in ((4, (True, 1, 1)), (6, (True, 5, 5)), IDENTITY):
        assert hdet(JORDAN, g) == oracle.hdet(JORDAN, key_matrix(*g))


def test_hdet_gnk_generators():
    # hdet(g) = 1 and hdet(h) = w^(2n), a primitive k-th root: trivial iff k = 1
    for n, k in ((5, 1), (7, 3), (3, 4)):
        G = GroupSpec.gnk(n, k)
        g, h = ((G.root_order, key) for key in G.generator_keys())
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
    # the oracle on the product of the matrices, the key rule on the factors
    for G in (GroupSpec.gnk(3, 2), GroupSpec.cyclic(5, 3, Q5), GroupSpec.cyclic(3, 1, JORDAN)):
        elems = enumerate_group(G)
        for x in elems[:6]:
            for y in elems[:6]:
                xy = key_matrix(*x) @ key_matrix(*y)
                assert oracle.hdet(G.ambient, xy) == hdet(G.ambient, x) * hdet(G.ambient, y)


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
        for key in G.generator_keys():
            validate_automorphism(G.ambient, key_matrix(G.root_order, key))
    for m, q in ((3, 2), (5, 3), (7, 4)):
        with pytest.raises(ParameterError):
            GroupSpec(DihedralMQ(m, q), QM1)


def test_key_classification_matches_matrices(family_groups):
    # smallness and hdet triviality from the keys, and the quasi-reflection
    # rule on each pair, equal the oracle's rules on every element's matrix
    for G in family_groups:
        spec = G.ambient
        pairs = enumerate_group(G)
        elems = [key_matrix(*g) for g in pairs]
        reflections = [oracle.is_quasi_reflection(spec, M) for M in elems]
        assert is_small_brute(G) == (not any(reflections))
        assert [is_quasi_reflection(spec, g) for g in pairs] == reflections
        if not spec.is_commutative:
            assert group_report(G)["hdet_trivial"] == all(oracle.hdet(spec, M).is_one() for M in elems)


def test_split_and_character_numbers_match_definition(family_groups):
    # swap_key is an antidiagonal key exactly when G has one; char_number is
    # 0 exactly when every diagonal key fixes the monomial, and two monomials
    # share a number exactly when every diagonal key scales them alike
    monos = [(p, d - p) for d in range(25) for p in range(d + 1)]
    for G in family_groups:
        m = G.root_order
        diag = [monomial_action(G.ambient, m, key)[1:3] for key in G.keys if key[0]]
        t = G.swap_key
        if len(diag) == len(G.keys):
            assert t is None
        else:
            assert t in G.keys and not t[0]
        numbers = [G.char_number(p, r) for p, r in monos]
        scales = [tuple((a * p + b * r) % m for a, b in diag) for p, r in monos]
        assert all(0 <= c < len(diag) for c in numbers)
        assert all((c == 0) == (not any(s)) for c, s in zip(numbers, scales))
        assert len(set(numbers)) == len(set(scales)) == len(set(zip(numbers, scales)))


def test_gnk_coincidence_is_the_same_group():
    # a pair that coincides with G_(n/2,k) has G_(n/2,k)'s matrices
    reduced = []
    for n in range(1, 13):
        for k in range(1, 13):
            G = GroupSpec.gnk(n, k)
            same = G.variant.coincides_with
            if same is not None:
                m = G.root_order
                H = GroupSpec(same, G.ambient)
                assert set(G.keys) == {(d, 2 * e1 % m, 2 * e2 % m) for d, e1, e2 in H.keys}
                reduced.append((n, k))
    assert (2, 4) in reduced and (6, 4) in reduced and (10, 12) in reduced
    assert (2, 2) not in reduced and (4, 4) not in reduced and (3, 4) not in reduced


def test_gnk_requires_qminus1():
    with pytest.raises(ParameterError):
        GroupSpec(GroupSpec.gnk(3, 1).variant, Q5)


def test_jordan_group_needs_a_equal_1():
    with pytest.raises(ParameterError):
        GroupSpec.cyclic(5, 2, JORDAN)


def test_rational_function_expansion():
    rf = RationalFunction([1], [1, -2])
    assert rf.expand(5) == [1, 2, 4, 8, 16, 32]
    with pytest.raises(ParameterError):
        RationalFunction([1], [0, 1])


def test_trace_generic_matrix_commutative():
    # classical Molien factor 1/det(1 - g t) against the act-on-basis path
    g = Mat2(1, 2, 1, 3)
    series, rf = oracle.trace(COMM, g, 10)
    assert rf is not None
    assert rf.expand(10) == series


def test_hdet_rejects_invalid():
    with pytest.raises(InvalidAutomorphismError):
        oracle.hdet(QM1, Mat2(1, 1, 0, 1))
    with pytest.raises(InvalidAutomorphismError):
        hdet(Q5, (2, (False, 0, 0)))


def test_finite_order_general_matrix_on_commutative_plane():
    # [[0,-1],[1,-1]] has order 3 over the rationals; the naive entry-order
    # bound would misreport it as infinite
    g = Mat2(0, -1, 1, -1)
    assert not oracle.is_quasi_reflection(COMM, g)
    # an actual reflection written in a skewed basis: conjugate diag(1,-1)
    # by [[1,1],[0,1]] giving [[1,2],[0,-1]]... use u -> u, v -> 2u - v
    h = Mat2(1, 2, 0, -1)
    assert oracle.is_quasi_reflection(COMM, h)
    with pytest.raises(InfiniteOrderError):
        oracle.is_quasi_reflection(COMM, Mat2(1, 1, 0, 1))
