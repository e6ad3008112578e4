from hypothesis import given, settings
from hypothesis import strategies as st

from skewinv.linalg import nullspace, rref, vec_add_scaled
from skewinv.scalars import Cyclo

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
