from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from skewinv.linalg import EXACT, PrimeField, SpanBuilder, _is_prime, nullspace, rref, vec_add_scaled
from skewinv.scalars import Cyclo, euler_phi

W3 = Cyclo.root(3)
ZERO = Cyclo.zero()


def _c(x) -> Cyclo:
    return x if isinstance(x, Cyclo) else Cyclo.from_rational(x)


def _sparse(dense) -> dict:
    return {i: _c(x) for i, x in enumerate(dense) if not _c(x).is_zero()}


def _check_rref(rows, rank):
    red, pivots = rref(rows)
    assert len(red) == len(pivots) == rank
    assert pivots == sorted(set(pivots))
    for row, p in zip(red, pivots):
        assert min(row) == p
        assert row[p].is_one()
        assert not any(q in row for q in pivots if q != p)
        assert all(not x.is_zero() for x in row.values())
    by_pivot = dict(zip(pivots, red))
    for row in rows:
        # in reduced form, row = sum over pivots p of row[p] * (row with pivot p)
        residual = dict(row)
        for p in pivots:
            if p in row:
                vec_add_scaled(residual, by_pivot[p], -row[p])
        assert residual == {}
    return red, pivots


def test_rref_empty_and_zero_input():
    assert rref([]) == ([], [])
    assert rref([{}, {}]) == ([], [])


def test_rref_known_rank():
    rows = [
        _sparse([0, 2, 4, 0, 1]),
        _sparse([0, 1, 2, 1, 0]),
        _sparse([0, 3, 6, 1, 1]),  # row 0 + row 1
        _sparse([0, 0, 0, 0, W3]),
    ]
    red, pivots = _check_rref(rows, 3)
    assert pivots == [1, 3, 4]
    assert red[0] == {1: Cyclo.one(), 2: _c(2)}


def test_rref_clears_later_pivot_columns():
    # forward elimination alone leaves a 1 at pivot column 1 in the first row
    red, pivots = _check_rref([{1: _c(1)}, {0: _c(1), 1: _c(1)}], 2)
    assert red == [{0: Cyclo.one()}, {1: Cyclo.one()}]


def test_rref_does_not_modify_input():
    rows = [{0: _c(2), 1: W3}, {0: _c(1), 2: _c(-1)}]
    before = [dict(r) for r in rows]
    rref(rows)
    assert rows == before


_coeff = st.sampled_from([_c(1), _c(-1), _c(2), _c(-3), W3, -W3, W3 + 1])


@st.composite
def _rows_of_known_rank(draw):
    ncols = draw(st.integers(1, 7))
    lead = sorted(draw(st.sets(st.integers(0, ncols - 1), max_size=ncols)))
    basis = []
    for p in lead:
        row = {p: draw(_coeff)}
        for c in draw(st.sets(st.integers(p + 1, ncols), max_size=3)):
            if c < ncols:
                row[c] = draw(_coeff)
        basis.append(row)
    rows = [dict(b) for b in basis]
    for _ in range(draw(st.integers(0, 4))):
        combo: dict = {}
        for b in basis:
            if draw(st.booleans()):
                vec_add_scaled(combo, b, draw(_coeff))
        rows.append(combo)
    order = draw(st.permutations(range(len(rows))))
    return [rows[i] for i in order], len(basis)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_rows_of_known_rank())
def test_rref_properties_random(case):
    rows, rank = case
    red, pivots = _check_rref(rows, rank)
    # the reduced form depends only on the span, not on the row order
    assert rref(list(reversed(rows))) == (red, pivots)


def test_nullspace_vectors_are_annihilated():
    one = Cyclo.one()
    cases = [
        ([[_c(x) for x in r] for r in ([1, 2, 0, -1], [2, 4, 1, 0], [3, 6, 1, -1])], 4),
        ([[W3, one, ZERO], [one, ZERO, -W3]], 3),
        ([[ZERO, ZERO]], 2),
        ([], 3),
    ]
    for matrix, ncols in cases:
        kernel = nullspace([_sparse(r) for r in matrix], ncols)
        rank = len(rref([_sparse(r) for r in matrix])[1])
        assert len(kernel) == ncols - rank
        for vec in kernel:
            assert len(vec) == ncols and any(not x.is_zero() for x in vec)
            for row in matrix:
                total = ZERO
                for a, x in zip(row, vec):
                    total = total + a * x
                assert total.is_zero()


def _is_prime_by_trial_division(n):
    return n > 1 and all(n % q for q in range(2, int(n ** 0.5) + 1))


def test_is_prime_matches_trial_division():
    assert [n for n in range(3000) if _is_prime(n)] == [
        n for n in range(3000) if _is_prime_by_trial_division(n)
    ]
    # strong pseudoprimes to the bases 2; 2, 3; and 2, 3, 5
    for n in (2047, 1373653, 25326001):
        assert not _is_prime(n) and not _is_prime_by_trial_division(n)
    assert _is_prime(2 ** 30 - 35) and not _is_prime(2 ** 30 - 1)


def test_prime_field_for_every_order_up_to_60():
    for M in range(1, 61):
        field = PrimeField(M)
        p, zeta = field.p, field.zeta
        assert p < 2 ** 30 and (p - 1) % M == 0 and _is_prime_by_trial_division(p)
        assert pow(zeta, M, p) == 1
        assert all(pow(zeta, e, p) != 1 for e in range(1, M))
        # a denominator that p divides moves the choice to another prime
        other = PrimeField(M, [3 * p, 5])
        assert other.p != p and (other.p - 1) % M == 0 and (3 * p) % other.p and 5 % other.p
        assert _is_prime_by_trial_division(other.p)


def test_prime_field_for_scalars_takes_lcm_order_and_denominators():
    scalars = [Cyclo.root(4), Cyclo.root(6) * Fraction(1, 7), Cyclo.from_rational(Fraction(3, 5))]
    field = PrimeField.for_scalars(scalars)
    assert (field.M, field.p) == (12, PrimeField(12, [7, 5]).p)
    assert field.coerce(-3) == field.p - 3
    assert field.normalize({0: field.p, 1: field.p + 2}) == {1: 2}


_ORDERS_OF_60 = [1, 2, 3, 4, 5, 6, 10, 12, 15, 20, 30, 60]
_SMALL_RATIONALS = st.fractions(min_value=-4, max_value=4, max_denominator=5)


@st.composite
def _elements_of_order_dividing_60(draw):
    m = draw(st.sampled_from(_ORDERS_OF_60))
    return Cyclo(m, draw(st.lists(_SMALL_RATIONALS, min_size=euler_phi(m), max_size=euler_phi(m))))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_elements_of_order_dividing_60(), _elements_of_order_dividing_60())
def test_reduction_mod_p_is_a_ring_map(a, b):
    field = PrimeField(60, [a.den, b.den])
    p, f = field.p, field.coerce
    assert f(a + b) == (f(a) + f(b)) % p
    assert f(a * b) == f(a) * f(b) % p
    assert f(-a) == field.neg(f(a))
    assert f(Cyclo.root(60, 7)) == pow(field.zeta, 7, p)
    assert f(Cyclo.one()) == field.one
    # an element outside the kernel whose inverse is p-integral maps to the inverse
    if f(a) and a.inverse().den % p:
        assert f(a.inverse()) == field.inverse(f(a))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_rows_of_known_rank())
def test_rref_mod_p_reduces_the_images(case):
    rows, rank = case
    field = PrimeField(3)
    images = [{c: field.coerce(x) for c, x in row.items() if field.coerce(x)} for row in rows]
    red, pivots = rref(images, field)
    assert len(pivots) <= rank
    for row, piv in zip(red, pivots):
        assert min(row) == piv and row[piv] == 1
        assert not any(q in row for q in pivots if q != piv)
        assert all(0 < x < field.p for x in row.values())
    span = SpanBuilder(field=field)
    for row in red:
        span.add(row)
    assert all(span.contains(row) for row in images)
    assert rref(list(reversed(images)), field) == (red, pivots)


def _in_field(rows, field):
    """The rows as they are, or their images in the F_p `field`."""
    if field is EXACT:
        return rows
    return [{c: r for c, x in row.items() if (r := field.coerce(x))} for row in rows]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_rows_of_known_rank(), st.sampled_from([EXACT, PrimeField(3)]))
def test_span_rows_stay_reduced(case, field):
    rows = _in_field(case[0], field)
    span = SpanBuilder(field=field)
    for k, row in enumerate(rows):
        span.add(row)
        for piv, stored in span.rows.items():
            assert min(stored) == piv
            assert not any(q in stored for q in span.rows if q != piv)
        assert span.basis() == rref(rows[: k + 1], field)[0]


class _Unreadable(dict):
    """A row that fails the test when it is read."""

    def _fail(self, *args):
        raise AssertionError("rref read a row after its span reached the rank")

    items = keys = values = get = __iter__ = __contains__ = __getitem__ = __len__ = _fail


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_rows_of_known_rank(), st.sampled_from([EXACT, PrimeField(3)]))
def test_rref_stops_at_the_given_rank(case, field):
    rows = _in_field(case[0], field)
    full = rref(rows, field)
    rank = len(full[1])
    span, k = SpanBuilder(field=field), 0
    while span.rank < rank:
        span.add(rows[k])
        k += 1
    # rows[k] is never read: the first k rows already reach the rank
    assert rref(rows[:k] + [_Unreadable()] + rows[k:], field, rank) == full
    # a rank that is never reached reads every row
    assert rref(rows, field, rank + 1) == full
