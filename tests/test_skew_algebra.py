import random
from fractions import Fraction
from functools import lru_cache
from math import factorial

import matrix_oracle as oracle
import pytest
from conftest import key_matrix
from matrix_oracle import Mat2, relation_image_scalar, validate_automorphism

from skewinv.errors import InvalidAutomorphismError, ParameterError
from skewinv.linalg import PrimeField
from skewinv.scalars import Cyclo, gen_binomial
from skewinv.skew_algebra import (
    AlgebraElt,
    AlgebraSpec,
    Monomial,
    apply_aut,
    monomial_action,
    mul,
    power,
    reorder,
    reorder_rule,
    to_text,
    _jordan_reorder_coeffs,
)

QM1 = AlgebraSpec.quantum(Cyclo.from_rational(-1))
JORDAN = AlgebraSpec.jordan()
COMM = AlgebraSpec.commutative()


def brute_normal_form(spec, word, coeff=None):
    """Single-step rewriting oracle: words are strings over 'u', 'v'.  Each
    round rewrites the first "vu" of every word once, and the words a round
    produces are kept as one {word: coefficient} map, so equal words reached
    along different paths merge (rewriting is linear)."""
    coeff = coeff if coeff is not None else Cyclo.one()
    acc = AlgebraElt.zero()
    words = {word: coeff}
    while words:
        nxt = {}
        for w, c in words.items():
            k = w.find("vu")
            if k < 0:
                acc = acc + AlgebraElt.monomial(c, w.count("u"), w.count("v"))
                continue
            head, tail = w[:k], w[k + 2:]
            if spec.is_quantum:
                steps = [(head + "uv" + tail, c * spec.q)]
            else:
                steps = [(head + "uv" + tail, c), (head + "uu" + tail, c)]
            for w2, c2 in steps:
                nxt[w2] = nxt[w2] + c2 if w2 in nxt else c2
        words = nxt
    return acc


def elt_from_word(word):
    return AlgebraElt.monomial(1, word.count("u"), 0) if set(word) <= {"u"} else None


@pytest.mark.parametrize("spec", [QM1, JORDAN, COMM, AlgebraSpec.quantum(Cyclo.root(5))])
@pytest.mark.parametrize("i,j", [(i, j) for i in range(7) for j in range(7)])
def test_reorder_matches_single_step_oracle(spec, i, j):
    assert reorder(spec, i, j) == brute_normal_form(spec, "v" * i + "u" * j)


def test_reorder_quantum_basic():
    q = Cyclo.root(5)
    spec = AlgebraSpec.quantum(q)
    assert reorder(spec, 1, 1) == AlgebraElt.monomial(q, 1, 1)


def test_reorder_jordan_basic():
    assert reorder(JORDAN, 1, 1) == AlgebraElt({(1, 1): 1, (2, 0): 1})


def test_jordan_reorder_coeffs_match_binomial_formula():
    # k! C(j+k-1, k) C(i, k) with generalized binomials, zero terms dropped;
    # at j = 0 only the k = 0 term is nonzero.  The grid asks for about 4800
    # distinct binomials about 130 000 times, so they are cached here
    binomial = lru_cache(maxsize=None)(gen_binomial)
    for i in range(40):
        for j in range(40):
            expected = []
            for k in range(i + 1):
                c = factorial(k) * binomial(j + k - 1, k) * binomial(i, k)
                if c:
                    expected.append((k, c))
            got = _jordan_reorder_coeffs(i, j)
            assert list(got) == expected, (i, j)
            assert all(type(c) is int for _, c in got)


@pytest.mark.parametrize("q", [Cyclo.root(5), Cyclo.root(12, 7), Cyclo.from_rational(-1),
                               Cyclo.from_rational(2), Cyclo.from_rational(Fraction(2, 3))],
                         ids=["w5", "w12^7", "minus1", "two", "two_thirds"])
def test_mod_p_rule_is_the_image_of_the_exact_rule(q):
    spec = AlgebraSpec.quantum(q)
    field = PrimeField.for_scalars([q])
    exact, mod_p = reorder_rule(spec), reorder_rule(spec, field)
    for j in range(12):
        for i in range(12):
            assert mod_p(j, i) == tuple((k, field.coerce(c)) for k, c in exact(j, i))


def test_reorder_jordan_21():
    # v^2 u = u v^2 + 2 u^2 v + 2 u^3
    assert reorder(JORDAN, 2, 1) == AlgebraElt({(1, 2): 1, (2, 1): 2, (3, 0): 2})


def test_mul_ordered_pair():
    u = AlgebraElt.monomial(1, 1, 0)
    v = AlgebraElt.monomial(1, 0, 1)
    assert mul(QM1, u, v) == AlgebraElt.monomial(1, 1, 1)


def test_mul_uv_squared_quantum():
    q = Cyclo.root(7)
    spec = AlgebraSpec.quantum(q)
    uv = AlgebraElt.monomial(1, 1, 1)
    assert mul(spec, uv, uv) == AlgebraElt.monomial(q, 2, 2)


def test_mul_against_expansion_oracle_qminus1():
    # (u^7 - v^7)(uv) squared, against brute single-step rewriting
    f = mul(QM1, AlgebraElt({(7, 0): 1, (0, 7): -1}), AlgebraElt.monomial(1, 1, 1))
    lhs = mul(QM1, f, f)
    oracle = AlgebraElt.zero()
    for w1, c1 in (("uuuuuuuuv", 1), ("vvvvvvvuv", -1)):
        for w2, c2 in (("uuuuuuuuv", 1), ("vvvvvvvuv", -1)):
            oracle = oracle + brute_normal_form(QM1, w1 + w2, Cyclo.from_rational(c1 * c2))
    assert lhs == oracle


@pytest.mark.parametrize("spec", [QM1, JORDAN, AlgebraSpec.quantum(Cyclo.root(3))])
def test_mul_associative_random(spec):
    rng = random.Random(11)
    for _ in range(12):
        elts = []
        for _ in range(3):
            e = AlgebraElt.zero()
            for _ in range(3):
                e = e + AlgebraElt.monomial(rng.randint(-3, 3), rng.randint(0, 4), rng.randint(0, 4))
            elts.append(e)
        a, b, c = elts
        assert mul(spec, mul(spec, a, b), c) == mul(spec, a, mul(spec, b, c))


def test_grading_additive():
    rng = random.Random(3)
    for spec in (QM1, JORDAN):
        for _ in range(10):
            a = AlgebraElt.monomial(1, rng.randint(0, 3), rng.randint(0, 3))
            b = AlgebraElt.monomial(1, rng.randint(0, 3), rng.randint(0, 3))
            assert mul(spec, a, b).degree() == a.degree() + b.degree()


def test_lemma_power_identity_quantum():
    # (u^a v^b)^c == q^(abc(c-1)/2) u^(ac) v^(bc), q = w_5
    q = Cyclo.root(5)
    spec = AlgebraSpec.quantum(q)
    for a in range(4):
        for b in range(4):
            for c in range(5):
                lhs = power(spec, AlgebraElt.monomial(1, a, b), c)
                e = a * b * c * (c - 1) // 2
                assert lhs == AlgebraElt.monomial(q ** e, a * c, b * c)


def test_lemma_multifactor_identity_quantum():
    q = Cyclo.root(5)
    spec = AlgebraSpec.quantum(q)
    rng = random.Random(5)
    for _ in range(20):
        m = rng.randint(1, 3)
        ab = [(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(m)]
        prod = AlgebraElt.one()
        for a, b in ab:
            prod = mul(spec, prod, AlgebraElt.monomial(1, a, b))
        r = sum(ab[i][0] * ab[j][1] for i in range(m) for j in range(i))
        assert prod == AlgebraElt.monomial(q ** r, sum(a for a, _ in ab), sum(b for _, b in ab))


def test_apply_aut_diagonal():
    a = Cyclo.root(3)
    d = Cyclo.root(3, 2)
    M = Mat2.diagonal(a, d)
    elt = AlgebraElt.monomial(1, 2, 3)
    out = oracle.apply_aut(QM1, M, elt)
    assert out == AlgebraElt.monomial((a ** 2) * (d ** 3), 2, 3)


def test_apply_aut_antidiagonal_qminus1():
    b = Cyclo.root(8)
    c = Cyclo.root(8, 3)
    M = Mat2.antidiagonal(b, c)
    uv = AlgebraElt.monomial(1, 1, 1)
    # u -> c v, v -> b u gives uv -> cb * vu = -bc * uv
    assert oracle.apply_aut(QM1, M, uv) == AlgebraElt.monomial(-(b * c), 1, 1)


def test_monomial_action_rule():
    # antidiag(b = w^e1, c = w^e2) sends u -> w^e2 v and v -> w^e1 u
    assert monomial_action(QM1, 12, (True, 5, 7)) == (False, 5, 7, 0)
    assert monomial_action(JORDAN, 12, (True, 5, 5)) == (False, 5, 5, 0)
    assert monomial_action(JORDAN, 12, (True, 5, 17)) == (False, 5, 17, 0)
    # on the Jordan plane a diagonal map acts only as a scalar
    with pytest.raises(InvalidAutomorphismError):
        monomial_action(JORDAN, 12, (True, 5, 7))
    assert monomial_action(QM1, 12, (False, 5, 7)) == (True, 7, 5, 6)
    assert monomial_action(COMM, 9, (False, 5, 7)) == (True, 7, 5, 0)
    # q = -1 is no power of w_m for odd m; other planes have no antidiagonal maps
    with pytest.raises(ParameterError):
        monomial_action(QM1, 9, (False, 5, 7))
    for spec in (JORDAN, AlgebraSpec.quantum(Cyclo.root(5))):
        with pytest.raises(InvalidAutomorphismError):
            monomial_action(spec, 12, (False, 5, 7))


def is_valid_automorphism(spec, M):
    try:
        validate_automorphism(spec, M)
        return True
    except InvalidAutomorphismError:
        return False


def test_automorphism_validity_rules():
    w = Cyclo.root(5)
    q5 = AlgebraSpec.quantum(w)
    assert is_valid_automorphism(q5, Mat2.diagonal(w, w ** 2))
    assert not is_valid_automorphism(q5, Mat2.antidiagonal(1, 1))
    assert not is_valid_automorphism(q5, Mat2(1, 1, 0, 1))
    assert is_valid_automorphism(QM1, Mat2.antidiagonal(w, w))
    assert not is_valid_automorphism(QM1, Mat2(1, 1, 0, 1))
    assert is_valid_automorphism(JORDAN, Mat2(w, 17, 0, w))
    assert not is_valid_automorphism(JORDAN, Mat2.diagonal(w, w ** 2))
    assert not is_valid_automorphism(JORDAN, Mat2.antidiagonal(1, 1))
    # q = 1: everything invertible passes
    assert is_valid_automorphism(COMM, Mat2(1, 2, 3, 4))
    assert not is_valid_automorphism(COMM, Mat2(1, 2, 2, 4))


def test_apply_aut_rejects_invalid():
    with pytest.raises(InvalidAutomorphismError):
        oracle.apply_aut(JORDAN, Mat2.diagonal(1, -1), AlgebraElt.one())
    with pytest.raises(InvalidAutomorphismError):
        apply_aut(JORDAN, (2, (True, 0, 1)), AlgebraElt.one())


def test_apply_aut_is_homomorphism():
    rng = random.Random(9)
    cases = [
        (QM1, Mat2.antidiagonal(Cyclo.root(12), Cyclo.root(12, 7))),
        (QM1, Mat2.diagonal(Cyclo.root(6), Cyclo.root(6, 5))),
        (AlgebraSpec.quantum(Cyclo.root(5)), Mat2.diagonal(Cyclo.root(4), Cyclo.root(4, 3))),
        (JORDAN, Mat2(Cyclo.root(6), Cyclo.from_rational(2), Cyclo.zero(), Cyclo.root(6))),
        (COMM, Mat2(1, 2, 1, 3)),
    ]
    for spec, M in cases:
        for _ in range(6):
            a = AlgebraElt.zero()
            b = AlgebraElt.zero()
            for _ in range(2):
                a = a + AlgebraElt.monomial(rng.randint(-2, 2), rng.randint(0, 3), rng.randint(0, 3))
                b = b + AlgebraElt.monomial(rng.randint(-2, 2), rng.randint(0, 3), rng.randint(0, 3))
            assert oracle.apply_aut(spec, M, mul(spec, a, b)) == mul(
                spec, oracle.apply_aut(spec, M, a), oracle.apply_aut(spec, M, b)
            )


def test_apply_aut_homomorphism_all_group_generators():
    from math import gcd

    from skewinv.group_actions import GroupSpec

    rng = random.Random(23)
    groups = []
    for n in range(1, 7):
        for k in range(1, 7):
            groups.append(GroupSpec.gnk(n, k))
    for n in range(2, 7):
        for a in range(1, n):
            if gcd(a, n) == 1:
                groups.append(GroupSpec.cyclic(n, a, AlgebraSpec.quantum(Cyclo.root(5))))
        groups.append(GroupSpec.cyclic(n, 1, JORDAN))
    for G in groups:
        spec = G.ambient
        for key in G.generator_keys():
            a = AlgebraElt.zero()
            b = AlgebraElt.zero()
            for _ in range(2):
                a = a + AlgebraElt.monomial(rng.randint(-2, 2), rng.randint(0, 3), rng.randint(0, 3))
                b = b + AlgebraElt.monomial(rng.randint(-2, 2), rng.randint(0, 3), rng.randint(0, 3))
            # the (m, key) pair, and its matrix in the oracle
            g = (G.root_order, key)
            for act, M in ((apply_aut, g), (oracle.apply_aut, key_matrix(*g))):
                assert act(spec, M, mul(spec, a, b)) == mul(
                    spec, act(spec, M, a), act(spec, M, b)
                )


def test_relation_image_scalar_values():
    q = Cyclo.root(5)
    assert relation_image_scalar(AlgebraSpec.quantum(q), Mat2.diagonal(2, 3)) == 6
    assert relation_image_scalar(QM1, Mat2.antidiagonal(2, 3)) == 6
    w = Cyclo.root(6)
    assert relation_image_scalar(JORDAN, Mat2(w, 5, 0, w)) == w ** 2


def test_to_text_canonical_order():
    e = AlgebraElt({(0, 2): 3, (2, 0): 1, (1, 1): -2})
    assert to_text(e) == "3 * u^0 * v^2 + -2 * u^1 * v^1 + 1 * u^2 * v^0"
    assert to_text(AlgebraElt.zero()) == "0"


def test_monomial_degree():
    assert Monomial(2, 3).degree == 5
