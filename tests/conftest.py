from math import gcd

import pytest

from matrix_oracle import Mat2

from skewinv.group_actions import GroupSpec, RationalFunction
from skewinv.hj_series import typeD_data
from skewinv.invariants import _degree_cols, _from_exponents
from skewinv.linalg import SpanBuilder
from skewinv.scalars import Cyclo
from skewinv.skew_algebra import AlgebraSpec, mul_cols, reorder_rule


def key_matrix(m, key):
    """The Mat2 of the group element (m, key), its entries built with
    `Cyclo.root`: what the tests hand to `matrix_oracle`."""
    diagonal, e1, e2 = key
    x, y = Cyclo.root(m, e1), Cyclo.root(m, e2)
    return Mat2.diagonal(x, y) if diagonal else Mat2.antidiagonal(x, y)


def from_factors(factors: list[list]) -> RationalFunction:
    """1 / product(factors), each factor a polynomial coefficient list."""
    den = [Cyclo.one()]
    for f in factors:
        fc = [Cyclo.from_rational(c) for c in f]
        out = [Cyclo.zero()] * (len(den) + len(fc) - 1)
        for i, x in enumerate(den):
            if not x.is_zero():
                for j, y in enumerate(fc):
                    out[i + j] = out[i + j] + x * y
        den = out
    return RationalFunction([Cyclo.one()], den)


def typeD_generators(spec, m: int, q: int):
    """(u^(2qs) + (-1)^t v^(2qs)) (uv)^r generators of the D_{m,q} invariants."""
    return _from_exponents(spec, typeD_data(m, q).generator_exponents())


@pytest.fixture(scope="session")
def family_groups():
    """G_{n,k} with n, k <= 6, 1/n(1,a) on q = w5, -1 and 1, Jordan 1/n(1,1)
    and D_{m,q} with m <= 7."""
    groups = [GroupSpec.gnk(n, k) for n in range(1, 7) for k in range(1, 7)]
    for q in (Cyclo.root(5), Cyclo.from_rational(-1), Cyclo.one()):
        spec = AlgebraSpec.quantum(q)
        groups += [GroupSpec.cyclic(n, a, spec) for n in range(2, 8) for a in range(1, n)]
    groups += [GroupSpec.cyclic(n, 1, AlgebraSpec.jordan()) for n in range(2, 7)]
    groups += [GroupSpec.dihedral(m, q) for m in range(3, 8) for q in range(2, m) if gcd(m, q) == 1]
    return groups


def spans_in_order(spec, gens, N, field):
    """The spans of `invariants.subalgebra_spans` with no bound, each product
    of a span row by a generator added in generator order and row order: the
    oracle for the lead-first order of `_add_products`."""
    spans = [SpanBuilder(field=field) for _ in range(N + 1)]
    spans[0].add({0: field.one})
    rule = reorder_rule(spec, field)
    cols = [(_degree_cols(g, field), g.degree()) for g in gens]
    for d in range(1, N + 1):
        for g, e in cols:
            if e > d:
                continue
            for row in spans[d - e].basis():
                out: dict = {}
                mul_cols(rule, out, row, d - e, g)
                spans[d].add(field.normalize(out))
    return spans
