"""Normal-form arithmetic in the quantum plane and the Jordan plane.

Elements are stored as sparse maps {(i, j): coefficient} over Q(w_m), in
normal form (all powers of u to the left of all powers of v).  The quantum
plane has the relation v*u = q*u*v; the Jordan plane has v*u = u*v + u^2.
The commutative plane is the quantum plane with q = 1.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, factorial
from typing import Iterator, NamedTuple

from .errors import InvalidAutomorphismError, ParameterError
from .linalg import EXACT
from .scalars import Cyclo


class Monomial(NamedTuple):
    i: int  # exponent of u
    j: int  # exponent of v

    @property
    def degree(self) -> int:
        return self.i + self.j


def _coerce_scalar(c) -> Cyclo:
    if isinstance(c, Cyclo):
        return c
    return Cyclo.from_rational(c)


class AlgebraElt:
    """Skew polynomial in normal form; immutable by convention."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Monomial, Cyclo] | None = None):
        self.terms: dict[Monomial, Cyclo] = {}
        if terms:
            for mon, c in terms.items():
                c = _coerce_scalar(c)
                if not c.is_zero():
                    self.terms[Monomial(*mon)] = c

    @staticmethod
    def zero() -> "AlgebraElt":
        return AlgebraElt()

    @staticmethod
    def one() -> "AlgebraElt":
        return AlgebraElt.monomial(1, 0, 0)

    @staticmethod
    def monomial(c, i: int, j: int) -> "AlgebraElt":
        if i < 0 or j < 0:
            raise ParameterError("monomial exponents must be non-negative")
        return AlgebraElt({Monomial(i, j): _coerce_scalar(c)})

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Maximal total degree; -1 for the zero element."""
        return max((m.degree for m in self.terms), default=-1)

    def is_homogeneous(self) -> bool:
        degs = {m.degree for m in self.terms}
        return len(degs) <= 1

    def items(self) -> Iterator[tuple[Monomial, Cyclo]]:
        return iter(sorted(self.terms.items()))

    def coefficient(self, i: int, j: int) -> Cyclo:
        return self.terms.get(Monomial(i, j), Cyclo.zero())

    def __add__(self, other: "AlgebraElt") -> "AlgebraElt":
        out = dict(self.terms)
        for mon, c in other.terms.items():
            cur = out.get(mon)
            new = c if cur is None else cur + c
            if new.is_zero():
                out.pop(mon, None)
            else:
                out[mon] = new
        res = AlgebraElt()
        res.terms = out
        return res

    def __neg__(self) -> "AlgebraElt":
        res = AlgebraElt()
        res.terms = {m: -c for m, c in self.terms.items()}
        return res

    def __sub__(self, other: "AlgebraElt") -> "AlgebraElt":
        return self + (-other)

    def scale(self, c) -> "AlgebraElt":
        c = _coerce_scalar(c)
        if c.is_zero():
            return AlgebraElt.zero()
        res = AlgebraElt()
        res.terms = {m: v * c for m, v in self.terms.items()}
        return res

    def __eq__(self, other) -> bool:
        if not isinstance(other, AlgebraElt):
            return NotImplemented
        if set(self.terms) != set(other.terms):
            return False
        return all(c == other.terms[m] for m, c in self.terms.items())

    __hash__ = None

    def __repr__(self) -> str:
        return f"AlgebraElt({to_text(self)!r})"


def to_text(elt: AlgebraElt) -> str:
    """Canonical rendering "c * u^i * v^j + ..." in ascending (i, j)-lex order."""
    if elt.is_zero():
        return "0"
    parts = [f"{c} * u^{m.i} * v^{m.j}" for m, c in sorted(elt.terms.items())]
    return " + ".join(parts)


class AlgebraSpec:
    """Which plane we work in; q is kept exactly as a cyclotomic scalar."""

    __slots__ = ("kind", "q", "_rule", "_unit_q")

    def __init__(self, kind: str, q: Cyclo | None = None):
        if kind not in ("quantum", "jordan"):
            raise ParameterError(f"unknown algebra kind {kind!r}")
        if kind == "quantum":
            if q is None:
                raise ParameterError("quantum plane needs a parameter q")
            q = _coerce_scalar(q)
            if q.is_zero():
                raise ParameterError("q must be nonzero")
        else:
            if q is not None:
                raise ParameterError("the Jordan plane has no q parameter")
        self.kind = kind
        self.q = q
        self._rule = None
        # q as the integer 1 or -1 when q = +-1, else None (`monomial_action`)
        self._unit_q = next((s for s in (1, -1) if q is not None and q == s), None)

    @staticmethod
    def quantum(q) -> "AlgebraSpec":
        return AlgebraSpec("quantum", _coerce_scalar(q))

    @staticmethod
    def jordan() -> "AlgebraSpec":
        return AlgebraSpec("jordan")

    @staticmethod
    def commutative() -> "AlgebraSpec":
        return AlgebraSpec("quantum", Cyclo.one())

    @property
    def is_quantum(self) -> bool:
        return self.kind == "quantum"

    @property
    def is_commutative(self) -> bool:
        return self.is_quantum and self.q.is_one()

    def __eq__(self, other) -> bool:
        if not isinstance(other, AlgebraSpec):
            return NotImplemented
        if self.kind != other.kind:
            return False
        return self.kind == "jordan" or self.q == other.q

    __hash__ = None

    def __repr__(self) -> str:
        return "jordan" if self.kind == "jordan" else f"quantum(q={self.q})"

    def describe(self) -> str:
        if self.kind == "jordan":
            return "jordan"
        if self.is_commutative:
            return "commutative"
        return f"quantum(q={self.q})"


@lru_cache(maxsize=None)
def _jordan_reorder_coeffs(i: int, j: int) -> tuple[tuple[int, int], ...]:
    # v^i u^j = sum_k k! C(j+k-1, k) C(i, k) u^(j+k) v^(i-k); for j = 0 only
    # k = 0 survives, since C(k-1, k) = 0 for k >= 1
    if j == 0:
        return ((0, 1),)
    return tuple((k, factorial(k) * comb(j + k - 1, k) * comb(i, k)) for k in range(i + 1))


def reorder_rule(spec: AlgebraSpec, field=EXACT):
    """The plane's commutation rule v^j u^i = sum_k c_k u^(i+k) v^(j-k), as a
    cached function (j, i) -> ((k, c_k), ...) with each c_k mapped into
    `field`: c_0 = q^(ij) on the quantum plane, and the integers of
    `_jordan_reorder_coeffs` on the Jordan plane.  These are the structure
    constants of every product (`mul_cols`): `mul` reads the exact rule, kept
    on the spec, and the product spans of `invariants` read the rule over
    their own field, an F_p or Q(w_m)."""
    if field is EXACT and spec._rule is not None:
        return spec._rule
    if spec.is_quantum and field is EXACT:
        q = spec.q

        def coeffs(j: int, i: int):
            return ((0, q ** (j * i)),)
    elif spec.is_quantum:
        # q is mapped into F_p once, and its powers are taken mod p there
        q, p = field.coerce(spec.q), field.p

        def coeffs(j: int, i: int):
            return ((0, pow(q, j * i, p)),)
    else:
        coeffs = _jordan_reorder_coeffs

    @lru_cache(maxsize=None)
    def rule(j: int, i: int):
        return tuple((k, field.coerce(c)) for k, c in coeffs(j, i))

    if field is EXACT:
        spec._rule = rule
    return rule


def reorder(spec: AlgebraSpec, i: int, j: int) -> AlgebraElt:
    """Normal form of v^i u^j."""
    if i < 0 or j < 0:
        raise ParameterError("exponents must be non-negative")
    return AlgebraElt({Monomial(j + k, i - k): c for k, c in reorder_rule(spec)(i, j)})


def mul_cols(rule, out: dict, a: dict, da: int, b: dict) -> None:
    """Add to `out` the product of homogeneous elements a (of degree da) and b
    given as column maps {i: c}, column i for u^i v^(deg - i), under the
    commutation rule `rule` from `reorder_rule`: the bilinear extension of
    (u^i1 v^j1)(u^i2 v^j2) = sum_k c_k u^(i1+i2+k) v^(j1-k+j2), written at the
    columns i1 + i2 + k of degree da + deg b.  The scalars are those of the
    rule's field; zeros are kept."""
    get = out.get
    for i1, c1 in a.items():
        j1 = da - i1
        for i2, c2 in b.items():
            c = c1 * c2
            for k, w in rule(j1, i2):
                col = i1 + i2 + k
                cur = get(col)
                out[col] = c * w if cur is None else cur + c * w


def _degree_parts(a: AlgebraElt) -> dict[int, dict[int, Cyclo]]:
    """The homogeneous parts of a as column maps, keyed by degree."""
    parts: dict[int, dict[int, Cyclo]] = {}
    for (i, j), c in a.terms.items():
        parts.setdefault(i + j, {})[i] = c
    return parts


def mul(spec: AlgebraSpec, a: AlgebraElt, b: AlgebraElt) -> AlgebraElt:
    """Exact product in normal form: `mul_cols` on each pair of homogeneous
    parts, over the exact `reorder_rule` of the plane."""
    rule = reorder_rule(spec)
    b_parts = _degree_parts(b)
    outs: dict[int, dict] = {}
    for da, a_cols in _degree_parts(a).items():
        for db, b_cols in b_parts.items():
            mul_cols(rule, outs.setdefault(da + db, {}), a_cols, da, b_cols)
    res = AlgebraElt()
    res.terms = {Monomial(i, d - i): c for d, out in outs.items()
                 for i, c in out.items() if not c.is_zero()}
    return res


def power(spec: AlgebraSpec, a: AlgebraElt, n: int) -> AlgebraElt:
    if n < 0:
        raise ParameterError("negative powers are not defined in A")
    res = AlgebraElt.one()
    for _ in range(n):
        res = mul(spec, res, a)
    return res


def _shape_hint(spec: AlgebraSpec) -> str:
    if spec.kind == "jordan":
        return "valid maps have the form [[a, b], [0, a]]"
    if spec.is_commutative:
        return "any invertible matrix is valid"
    if spec.q == -1:
        return "valid maps are diagonal or antidiagonal"
    return "valid maps are diagonal when q != +-1"


def monomial_action(spec: AlgebraSpec, m: int, key: tuple) -> tuple[bool, int, int, int]:
    """(swap, a, b, c): the monomial element with exponent key (is_diagonal,
    e1, e2) over w_m sends u^i v^j to w_m^(a i + b j + c i j) times u^j v^i
    when swap, else times u^i v^j.  The one statement of this action, and of
    which keys act: InvalidAutomorphismError for any other.

    diag(w^e1, w^e2) gives (False, e1, e2, 0); on the Jordan plane it acts
    only as a scalar, e1 = e2 (mod m).  antidiag(b = w^e1, c = w^e2) sends
    u -> w^e2 v, v -> w^e1 u and u^i v^j -> w^(e2 i + e1 j) v^i u^j =
    w^(e2 i + e1 j) q^(ij) u^j v^i.  It acts only for q = +-1, where
    q = w_m^c with c = 0 or m/2 (m even), so c i j = c (i j mod 2) mod m."""
    diagonal, e1, e2 = key
    if diagonal:
        if spec.kind == "jordan" and (e1 - e2) % m:
            raise InvalidAutomorphismError(
                "diagonal maps act on the Jordan plane only as scalars: " + _shape_hint(spec)
            )
        return False, e1, e2, 0
    if spec._unit_q is None:
        raise InvalidAutomorphismError(
            f"antidiagonal maps do not act on {spec.describe()}: " + _shape_hint(spec)
        )
    if spec._unit_q == 1:
        return True, e2, e1, 0
    if m % 2:
        raise ParameterError(f"q = -1 is not a power of w_{m}; read the key over w_{2 * m}")
    return True, e2, e1, m // 2


def apply_aut(spec: AlgebraSpec, g: tuple, elt: AlgebraElt) -> AlgebraElt:
    """Apply the group element g = (m, key) to elt: each term maps by
    `monomial_action`, which also rejects a key that does not act."""
    m, key = g
    swap, ea, eb, ec = monomial_action(spec, m, key)
    out = AlgebraElt()
    for (i, j), coeff in elt.terms.items():
        mon = Monomial(j, i) if swap else Monomial(i, j)
        out.terms[mon] = coeff * Cyclo.root(m, ea * i + eb * j + ec * i * j)
    return out
