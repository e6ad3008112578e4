"""The general-matrix reference that the tests hold skewinv's key rules against.

skewinv carries every group element as a pair (m, key), the exponent key
(is_diagonal, e1, e2) of a monomial matrix over w_m, and states how it acts
in `skew_algebra.monomial_action`.  This module takes a 2x2 matrix `Mat2`
over Q(w_m) instead, of any shape, and computes the same quantities the
long way: it checks that the matrix preserves the defining relation line,
substitutes u -> a u + c v, v -> b u + d v and expands (`apply_aut`,
`trace_series`), reads hdet off the image of the relation, and decides
finite order and quasi-reflections from the trace, determinant and hdet.
A test calls skewinv on the pair and this module on `key_matrix(*g)`, then
compares the two.
"""

from __future__ import annotations

from skewinv.errors import InvalidAutomorphismError
from skewinv.group_actions import RationalFunction
from skewinv.scalars import Cyclo, lcm
from skewinv.skew_algebra import AlgebraElt, AlgebraSpec, Monomial, _coerce_scalar, _shape_hint, mul


class InfiniteOrderError(ValueError):
    """An automorphism of infinite order where a finite one is required."""


class Mat2:
    """2x2 matrix over Q(w_m) acting by u -> a*u + c*v, v -> b*u + d*v."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        self.a = _coerce_scalar(a)
        self.b = _coerce_scalar(b)
        self.c = _coerce_scalar(c)
        self.d = _coerce_scalar(d)

    @classmethod
    def diagonal(cls, a, d) -> "Mat2":
        return cls(a, 0, 0, d)

    @classmethod
    def antidiagonal(cls, b, c) -> "Mat2":
        return cls(0, b, c, 0)

    def det(self) -> Cyclo:
        return self.a * self.d - self.b * self.c

    def __matmul__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def entries(self) -> tuple[Cyclo, Cyclo, Cyclo, Cyclo]:
        return (self.a, self.b, self.c, self.d)

    def key_at(self, m: int) -> tuple:
        return tuple(x.key_at(m) for x in self.entries())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mat2):
            return NotImplemented
        return all(x == y for x, y in zip(self.entries(), other.entries()))

    __hash__ = None

    def __repr__(self) -> str:
        return f"Mat2([[{self.a}, {self.b}], [{self.c}, {self.d}]])"


def is_root_of_unity(x: Cyclo) -> bool:
    """True iff x generates a finite multiplicative group (so lies in <±w>)."""
    if x.is_zero():
        return False
    L = lcm(2, x.order)
    return (x ** L).is_one()


def _relation_vector(spec: AlgebraSpec) -> list[Cyclo]:
    """Defining relation in the degree-2 free-algebra basis (uu, uv, vu, vv)."""
    zero, one = Cyclo.zero(), Cyclo.one()
    if spec.is_quantum:
        return [zero, -spec.q, one, zero]
    return [-one, -one, one, zero]


def relation_image_scalar(spec: AlgebraSpec, M: Mat2) -> Cyclo | None:
    """Scalar by which M acts on the relation line, or None if the line moves.

    The lift of M to the free algebra sends the relation r to lambda * r
    exactly when M is a graded automorphism of the algebra; lambda is then
    the homological determinant.
    """
    a, b, c, d = M.entries()
    # images of the degree-2 free words in the basis (uu, uv, vu, vv):
    # u maps to a*u + c*v and v maps to b*u + d*v, so e.g. vu -> (b u + d v)(a u + c v)
    img = [
        [a * a, a * c, c * a, c * c],  # uu
        [a * b, a * d, c * b, c * d],  # uv
        [b * a, b * c, d * a, d * c],  # vu
        [b * b, b * d, d * b, d * d],  # vv
    ]
    rel = _relation_vector(spec)
    out = [Cyclo.zero()] * 4
    for w in range(4):
        if not rel[w].is_zero():
            for k in range(4):
                out[k] = out[k] + rel[w] * img[w][k]
    # solve out == lambda * rel: the vu coefficient of rel is 1 on every plane
    lam = out[2]
    if any(not (out[k] - lam * rel[k]).is_zero() for k in range(4)):
        return None
    return lam


def validate_automorphism(spec: AlgebraSpec, M: Mat2) -> Cyclo:
    """Raise InvalidAutomorphismError unless M is a graded automorphism of
    spec; return the scalar by which it acts on the relation line."""
    if M.det().is_zero():
        raise InvalidAutomorphismError("matrix is not invertible (det = 0)")
    lam = relation_image_scalar(spec, M)
    if lam is None:
        raise InvalidAutomorphismError(
            f"matrix does not preserve the defining relation of {spec.describe()}: "
            + _shape_hint(spec)
        )
    return lam


def image_powers(spec: AlgebraSpec, M: Mat2, n: int) -> tuple[list[AlgebraElt], list[AlgebraElt]]:
    """The images (a u + c v)^i of u^i and (b u + d v)^i of v^i under the
    substitution of M, for 0 <= i <= n (M is not checked)."""
    a, b, c, d = M.entries()
    img_u = AlgebraElt({Monomial(1, 0): a, Monomial(0, 1): c})
    img_v = AlgebraElt({Monomial(1, 0): b, Monomial(0, 1): d})
    pows_u, pows_v = [AlgebraElt.one()], [AlgebraElt.one()]
    for _ in range(n):
        pows_u.append(mul(spec, pows_u[-1], img_u))
        pows_v.append(mul(spec, pows_v[-1], img_v))
    return pows_u, pows_v


def apply_aut(spec: AlgebraSpec, M: Mat2, elt: AlgebraElt) -> AlgebraElt:
    """Check M, then substitute u -> a u + c v, v -> b u + d v, expand and
    normalize."""
    validate_automorphism(spec, M)
    pows_u, pows_v = image_powers(spec, M, elt.degree())
    res = AlgebraElt.zero()
    for (i, j), coeff in elt.terms.items():
        res = res + mul(spec, pows_u[i], pows_v[j]).scale(coeff)
    return res


def hdet(spec: AlgebraSpec, M: Mat2) -> Cyclo:
    """Homological determinant: the scalar by which M acts on the relation
    line, which `validate_automorphism` checks and returns."""
    return validate_automorphism(spec, M)


def trace_closed_form(spec: AlgebraSpec, M: Mat2) -> RationalFunction:
    """Tr_A(M, t) = 1 / (1 - (a + d) t + hdet(M) t^2)."""
    one = Cyclo.one()
    return RationalFunction([one], [one, -(M.a + M.d), hdet(spec, M)])


def trace_series(spec: AlgebraSpec, M: Mat2, N: int) -> list[Cyclo]:
    """The traces of M on degrees 0 .. N, by acting on the monomial basis and
    summing diagonals."""
    validate_automorphism(spec, M)
    pows_u, pows_v = image_powers(spec, M, N)
    return [sum((mul(spec, pows_u[i], pows_v[d - i]).coefficient(i, d - i) for i in range(d + 1)),
                Cyclo.zero()) for d in range(N + 1)]


def trace(spec: AlgebraSpec, M: Mat2, N: int) -> tuple[list[Cyclo], RationalFunction]:
    """(the traces on degrees 0 .. N, closed form)."""
    return trace_series(spec, M, N), trace_closed_form(spec, M)


def check_finite_order(g: Mat2) -> None:
    """Raise InfiniteOrderError unless the matrix g has finite order.

    Let tr = a + d and det = ad - bc.  If tr^2 = 4 det, g has the one
    eigenvalue tr/2 and finite order iff it is diagonalizable, g = (tr/2) I,
    with tr/2 a root of unity; so [[a, b], [0, a]] with b != 0 has infinite
    order.  Otherwise its eigenvalues l1 != l2 are distinct, g is
    diagonalizable, and it has finite order iff det = l1 l2 and z = l1 / l2
    are roots of unity (l1^2 = det z).  z is a root of z^2 - s z + 1 with
    s = tr^2 / det - 2, so c_k = z^k + z^-k has c_1 = s, c_(2k) = c_k^2 - 2
    and c_(2k+1) = c_k c_(k+1) - s, and z^k = 1 iff c_k = 2 (x + 1/x = 2 iff
    x = 1).  z lies in a quadratic extension of Q(w_M), M the lcm of the
    entries' orders; if z has order n, that extension holds w_(rM) with
    rM = lcm(n, M), so phi(r) phi(M) <= phi(rM) <= 2 phi(M), r is 1, 2, 3, 4
    or 6, and n divides 12 M.  So z is a root of unity iff c_(12 M) = 2."""
    tr, det = g.a + g.d, g.det()
    if tr * tr == 4 * det:
        if g.b.is_zero() and g.c.is_zero() and is_root_of_unity(g.a):
            return
    elif is_root_of_unity(det):
        s = tr * tr / det - 2
        c, c1 = s, s * s - 2  # (c_k, c_(k+1)), k running over the prefixes of 12 M in binary
        for bit in bin(12 * lcm(lcm(g.a.order, g.b.order), lcm(g.c.order, g.d.order)))[3:]:
            c, c1 = (c * c1 - s, c1 * c1 - 2) if bit == "1" else (c * c - 2, c * c1 - s)
        if c == 2:
            return
    raise InfiniteOrderError("matrix has infinite order")


def is_quasi_reflection(spec: AlgebraSpec, M: Mat2) -> bool:
    """The condition tr = 1 + hdet, hdet != 1 of a quasi-reflection, read off
    `trace_closed_form`, for a valid M of finite order."""
    h = validate_automorphism(spec, M)
    check_finite_order(M)
    return M.a + M.d == 1 + h and not h.is_one()
