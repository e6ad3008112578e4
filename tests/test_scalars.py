import random
from fractions import Fraction

import pytest

from skewinv.errors import CycloDivisionError
from skewinv.scalars import (
    Cyclo,
    IntPolynomial,
    cyclotomic_polynomial,
    euler_phi,
    gen_binomial,
)


def test_cyclotomic_base_case():
    assert cyclotomic_polynomial(1) == IntPolynomial((-1, 1))


def test_cyclotomic_m4():
    # x^4 - 1 divided by (x - 1)(x + 1)
    assert cyclotomic_polynomial(4) == IntPolynomial((1, 0, 1))


def test_cyclotomic_m6():
    # x^6 - 1 divided by Phi_1 * Phi_2 * Phi_3
    assert cyclotomic_polynomial(6) == IntPolynomial((1, -1, 1))


@pytest.mark.parametrize("m", range(1, 40))
def test_cyclotomic_degree_is_phi(m):
    assert cyclotomic_polynomial(m).degree == euler_phi(m)


def test_omega2_squares_to_one():
    w = Cyclo.root(2)
    assert w * w == 1
    assert w == -1


def test_omega4_squared_is_minus_one():
    w = Cyclo.root(4)
    assert w * w == Cyclo.from_rational(-1)


def test_omega3_sum_vanishes():
    w = Cyclo.root(3)
    assert (1 + w + w * w).is_zero()


@pytest.mark.parametrize("n", range(1, 13))
def test_root_of_unity_power_sum(n):
    # sum over the n-term version j = 0..n-1 (see hj/group proofs): n if n | i else 0
    w = Cyclo.root(n)
    for i in range(-2 * n, 2 * n + 1):
        total = Cyclo.zero()
        for j in range(n):
            total = total + w ** (i * j)
        if i % n == 0:
            assert total == n
        else:
            assert total.is_zero()


def test_gen_binomial_ordinary():
    assert gen_binomial(5, 2) == 10


def test_gen_binomial_vanishing_range():
    assert gen_binomial(2, 3) == 0


def test_gen_binomial_negative_and_reflection():
    assert gen_binomial(-2, 2) == 3
    # identity (-1)^k binom(alpha, k) == binom(k - alpha - 1, k)
    assert gen_binomial(-2, 2) == gen_binomial(3, 2)
    for alpha in (Fraction(-7, 3), Fraction(5, 2), 4):
        for k in range(6):
            assert (-1) ** k * gen_binomial(alpha, k) == gen_binomial(k - Fraction(alpha) - 1, k)


def test_chu_vandermonde():
    rng = random.Random(20240814)
    for _ in range(25):
        alpha = Fraction(rng.randint(-12, 12), rng.randint(1, 7))
        beta = Fraction(rng.randint(-12, 12), rng.randint(1, 7))
        for n in range(9):
            lhs = sum(gen_binomial(alpha, k) * gen_binomial(beta, n - k) for k in range(n + 1))
            assert lhs == gen_binomial(alpha + beta, n)


def _random_cyclo(rng, m):
    return Cyclo(m, [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(euler_phi(m))])


def test_field_axioms_random():
    rng = random.Random(7)
    for m in (3, 4, 6, 8, 12):
        for _ in range(10):
            a, b, c = (_random_cyclo(rng, m) for _ in range(3))
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            if not a.is_zero():
                assert a * a.inverse() == 1
                assert (a ** -3) * (a ** 3) == 1


def test_promotion_lcm_consistency():
    # the same computation carried out in Q(w_6) and in Q(w_12) agrees after promotion
    w6 = Cyclo.root(6)
    w12 = Cyclo.root(12)
    x = w6 ** 2 + 1
    y = (w12 ** 4) + 1
    assert x == y
    assert x.promote(12).coeffs == y.coeffs
    # mixed-order product lands in the lcm order
    z = w6 * Cyclo.root(4)
    assert z.order == 12
    assert z == Cyclo.root(12, 2) * Cyclo.root(12, 3)


def test_division_by_zero_raises():
    with pytest.raises(CycloDivisionError):
        Cyclo.one() / Cyclo.zero()


def test_cyclo_arith_dispatch():
    w = Cyclo.root(5)
    assert w * w == w ** 2
    assert w ** -2 == (w ** 2).inverse()
    assert (w - w).is_zero()
    assert Cyclo.one() / w == w ** 4


def test_is_root_of_unity():
    assert Cyclo.root(12, 5).is_root_of_unity()
    assert Cyclo.from_rational(-1).is_root_of_unity()
    assert not Cyclo.from_rational(2).is_root_of_unity()
    assert not (Cyclo.root(4) + 1).is_root_of_unity()


def test_primitivity_of_basis_root():
    for m in (2, 3, 4, 6, 8, 9, 12):
        w = Cyclo.root(m)
        assert (w ** m).is_one()
        for d in range(1, m):
            assert not (w ** d).is_one()


def _x_power_mod_phi(m, r):
    """x^r mod Phi_m by integer long division (Phi_m is monic)."""
    cyc = cyclotomic_polynomial(m).coeffs
    phi = len(cyc) - 1
    rem = [0] * r + [1]
    for top in range(r, phi - 1, -1):
        c = rem[top]
        if c:
            for j, b in enumerate(cyc):
                rem[top - phi + j] -= c * b
    return tuple((rem + [0] * phi)[:phi])


# Phi_105 and Phi_210 are the first with a coefficient other than 0 and +-1
@pytest.mark.parametrize("m", list(range(1, 65)) + [105, 210])
def test_root_is_x_power_mod_cyclotomic(m):
    expected = [_x_power_mod_phi(m, r) for r in range(m)]
    for e in range(-m, 3 * m + 1):
        w = Cyclo.root(m, e)
        assert w.order == m
        assert w.coeffs == expected[e % m]
        assert w is Cyclo.root(m, e + m)


def test_from_power_counts_matches_root_sum():
    rng = random.Random(11)
    for m in list(range(1, 31)) + [36, 42, 60, 105]:
        for length in (0, 1, m - 1, m, m + 1, 2 * m, 2 * m + 1, 3 * m):
            counts = [rng.randint(-3, 3) for _ in range(length)]
            expected = Cyclo.zero()
            for e, c in enumerate(counts):
                expected = expected + c * Cyclo.root(m, e)
            got = Cyclo.from_power_counts(m, counts)
            assert got.order == m
            assert got.coeffs == expected.promote(m).coeffs


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 15, 20, 30])
def test_untagged_root_copy_acts_like_root(m):
    for e in range(m):
        w = Cyclo.root(m, e)
        copy = Cyclo(m, w.coeffs)
        assert copy == w and w == copy
        for f in range(m):
            prod = copy * Cyclo(m, Cyclo.root(m, f).coeffs)
            assert prod.coeffs == Cyclo.root(m, e + f).coeffs
            assert prod == Cyclo.root(m, e + f)
        for p in range(-3, 6):
            assert (copy ** p).coeffs == Cyclo.root(m, e * p).coeffs
        # a vector with a non-integer coordinate is never taken for a root
        half = Cyclo(m, (w.coeffs[0] + Fraction(1, 2),) + w.coeffs[1:])
        assert half._root_power_exp() is None
        assert half != w
        assert half * half.inverse() == 1
        assert Cyclo(m, [c / 2 for c in w.coeffs])._root_power_exp() is None


def test_promote_is_a_ring_map_into_order_60():
    rng = random.Random(60)
    orders = [d for d in range(1, 61) if 60 % d == 0]
    for _ in range(80):
        a_order, b_order = rng.choice(orders), rng.choice(orders)
        pair = []
        for order in (a_order, b_order):
            if rng.random() < 0.3:
                pair.append(Cyclo.root(order, rng.randrange(order)))
            else:
                pair.append(_random_cyclo(rng, order))
        a, b = pair
        lhs = (a * b).promote(60)
        rhs = a.promote(60) * b.promote(60)
        assert lhs == rhs
        assert lhs.coeffs == rhs.coeffs
