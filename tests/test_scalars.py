import functools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from matrix_oracle import is_root_of_unity

from skewinv.errors import CycloDivisionError, ParameterError
from skewinv.scalars import (
    Cyclo,
    cyclotomic_polynomial,
    euler_phi,
    gen_binomial,
    lcm,
    prime_factors,
)


def test_cyclotomic_base_case():
    assert cyclotomic_polynomial(1) == (-1, 1)


def test_cyclotomic_m4():
    # x^4 - 1 divided by (x - 1)(x + 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)


def test_cyclotomic_m6():
    # x^6 - 1 divided by Phi_1 * Phi_2 * Phi_3
    assert cyclotomic_polynomial(6) == (1, -1, 1)


@pytest.mark.parametrize("m", range(1, 40))
def test_cyclotomic_degree_is_phi(m):
    assert len(cyclotomic_polynomial(m)) - 1 == euler_phi(m)


@functools.lru_cache(maxsize=None)
def _dense_cyclotomic(m):
    """Oracle: x^m - 1 divided by the dense product of Phi_d over d | m, d < m."""
    den = [1]
    for d in range(1, m):
        if m % d == 0:
            phi_d = _dense_cyclotomic(d)
            prod = [0] * (len(den) + len(phi_d) - 1)
            for i, x in enumerate(den):
                for j, y in enumerate(phi_d):
                    prod[i + j] += x * y
            den = prod
    rem = [-1] + [0] * (m - 1) + [1]
    quot = [0] * (m - len(den) + 2)
    for shift in range(len(quot) - 1, -1, -1):
        c = rem[shift + len(den) - 1]  # den is monic
        quot[shift] = c
        for j, y in enumerate(den):
            rem[shift + j] -= c * y
    assert not any(rem)
    return tuple(quot)


def test_cyclotomic_matches_dense_division_oracle():
    for m in list(range(1, 421)) + [1155, 1365, 1440]:
        assert cyclotomic_polynomial(m) == _dense_cyclotomic(m), m


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


def test_orders_must_be_ints():
    # a float order used to give euler_phi(2.5) = 1.5, and 2.0 must not read
    # the cached entry of 2; bools are rejected too
    assert euler_phi(2) == 1
    for bad in (2.5, 2.0, True, Fraction(3)):
        with pytest.raises(ParameterError):
            euler_phi(bad)
        with pytest.raises(ParameterError):
            prime_factors(bad)
    with pytest.raises(ParameterError):
        Cyclo.root(3.0)


def test_infinite_order_exits_promptly():
    # euler_phi(inf) used to loop forever in trial division; run it in a
    # subprocess with a timeout so that a hang fails instead of stalling the suite
    import os
    import subprocess
    import sys

    import skewinv

    src = os.path.dirname(os.path.dirname(skewinv.__file__))
    code = (
        "from skewinv.errors import ParameterError\n"
        "from skewinv.scalars import Cyclo\n"
        "try:\n"
        "    Cyclo(float('inf'), [])\n"
        "except ParameterError as exc:\n"
        "    print(exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    try:
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=20, env=env)
    except subprocess.TimeoutExpired:
        pytest.fail("Cyclo(float('inf'), []) did not return")
    assert proc.returncode == 0 and proc.stdout == "need an integer, got inf\n"


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
    assert is_root_of_unity(Cyclo.root(12, 5))
    assert is_root_of_unity(Cyclo.from_rational(-1))
    assert not is_root_of_unity(Cyclo.from_rational(2))
    assert not is_root_of_unity(Cyclo.root(4) + 1)


def test_primitivity_of_basis_root():
    for m in (2, 3, 4, 6, 8, 9, 12):
        w = Cyclo.root(m)
        assert (w ** m).is_one()
        for d in range(1, m):
            assert not (w ** d).is_one()


def _x_power_mod_phi(m, r):
    """x^r mod Phi_m by integer long division (Phi_m is monic)."""
    cyc = cyclotomic_polynomial(m)
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


def test_rational_factor_keeps_the_lcm_order():
    three, w7 = Cyclo.from_rational(3), Cyclo.root(7)
    for prod in (three * w7, w7 * three):
        assert prod.order == 7
        assert prod.num == tuple(3 * x for x in w7.num)
    # order 24 does not divide 5, so the product is read in Q(w_120)
    r, w5 = Cyclo.from_rational(Fraction(-2, 3)).promote(24), Cyclo.root(5)
    for prod in (r * w5, w5 * r):
        want = r.promote(120) * w5.promote(120)
        assert prod.order == want.order == 120
        assert (prod.num, prod.den) == (want.num, want.den)
    # of two rationals, the one of larger order is scaled, and the lcm order
    # is kept
    for other, order in ((Cyclo.from_rational(Fraction(1, 2)), 24),
                         (Cyclo.from_rational(5).promote(5), 120)):
        for prod in (r * other, other * r):
            assert prod.order == order
            assert prod == Cyclo.from_rational(r.rational_value() * other.rational_value())
            assert prod.is_rational() and prod.num[1:] == (0,) * (len(prod.num) - 1)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 9, 12, 15, 24])
def test_negated_root_is_the_negated_tuple(m):
    for e in range(m):
        w = Cyclo.root(m, e)
        neg = -w
        assert (neg.order, neg.num, neg.den) == (m, tuple(-x for x in w.num), 1)
        assert neg == Cyclo(m, [-c for c in w.coeffs])
        if m % 2 == 0:
            assert neg is Cyclo.root(m, e + m // 2)


@pytest.mark.parametrize("m", [3, 8, 15, 240, 720])
def test_root_inverse_is_the_opposite_root(m):
    for e in (1, 7, m - 1):
        w = Cyclo.root(m, e)
        assert w.inverse() is Cyclo.root(m, -e)
        assert (w * w.inverse()).is_one()
    assert Cyclo.root(720, 7).inverse() is Cyclo.root(720, -7)


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


# An independent oracle for Q(w_m): power-basis coordinates as Fractions,
# products by polynomial multiplication, then long division by Phi_m.
def _oracle_mod(m, poly):
    cyc = cyclotomic_polynomial(m)
    phi = len(cyc) - 1
    rem = list(poly) + [Fraction(0)] * (phi - len(poly))
    for top in range(len(rem) - 1, phi - 1, -1):
        c = rem[top]
        if c:
            for j, b in enumerate(cyc):
                rem[top - phi + j] -= c * b
    return rem[:phi]


def _oracle_mul(m, a, b):
    poly = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            poly[i + j] += x * y
    return _oracle_mod(m, poly)


def _oracle_promote(m, cs, M):
    step = M // m
    poly = [Fraction(0)] * ((len(cs) - 1) * step + 1)
    poly[::step] = cs
    return _oracle_mod(M, poly)


_ORDERS = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 15, 20, 24, 30]
_RATIONALS = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
).map(Fraction)


@st.composite
def _elements(draw):
    """(order, oracle coordinates, Cyclo): a root, a rational or a general element."""
    m = draw(st.sampled_from(_ORDERS))
    phi = euler_phi(m)
    kind = draw(st.sampled_from(["root", "rational", "general"]))
    if kind == "root":
        e = draw(st.integers(-m, 2 * m))
        return m, _oracle_mod(m, [Fraction(0)] * (e % m) + [Fraction(1)]), Cyclo.root(m, e)
    if kind == "rational":
        cs = [draw(_RATIONALS)] + [Fraction(0)] * (phi - 1)
    else:
        cs = draw(st.lists(_RATIONALS, min_size=phi, max_size=phi))
    return m, cs, Cyclo(m, cs)


def _assert_matches(x, M, coords):
    """x, read in Q(w_M), has the oracle's coordinates and is in normal form."""
    assert M % x.order == 0
    y = x.promote(M)
    assert y.coeffs == tuple(coords)
    for z in (x, y):
        assert z.den > 0 and math.gcd(z.den, *z.num) == 1
        if not any(z.num):
            assert z.den == 1
    assert x.key_at(M) == (y.num, y.den) == Cyclo(M, coords).key_at(M)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_elements(), _elements(), _RATIONALS)
def test_arithmetic_matches_fraction_oracle(a, b, r):
    (ma, ca, x), (mb, cb, y) = a, b
    M = lcm(ma, mb)
    pa, pb = _oracle_promote(ma, ca, M), _oracle_promote(mb, cb, M)
    _assert_matches(x, ma, ca)
    _assert_matches(x.promote(M), M, pa)
    _assert_matches(x + y, M, [s + t for s, t in zip(pa, pb)])
    _assert_matches(x - y, M, [s - t for s, t in zip(pa, pb)])
    _assert_matches(-x, ma, [-s for s in ca])
    _assert_matches(x * y, M, _oracle_mul(M, pa, pb))
    _assert_matches(x * r, ma, [s * r for s in ca])
    _assert_matches(r * x, ma, [s * r for s in ca])
    _assert_matches(x + r, ma, [ca[0] + r] + ca[1:])
    assert (x == y) == (pa == pb)
    cube = _oracle_mul(ma, _oracle_mul(ma, ca, ca), ca)
    _assert_matches(x ** 3, ma, cube)
    if any(ca):
        inv = x.inverse()
        assert inv.order == ma
        _assert_matches(inv, ma, inv.coeffs)
        assert _oracle_mul(ma, ca, list(inv.coeffs)) == _oracle_mod(ma, [Fraction(1)])
        inv_cube = x ** -3
        _assert_matches(inv_cube, ma, inv_cube.coeffs)
        assert _oracle_mul(ma, cube, list(inv_cube.coeffs)) == _oracle_mod(ma, [Fraction(1)])
        if any(cb):
            _assert_matches(y / x, M, _oracle_mul(M, pb, _oracle_promote(ma, list(inv.coeffs), M)))
