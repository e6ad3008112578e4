"""Finite graded automorphism groups: construction, traces, classification.

The two group families are the diagonal cyclic groups 1/n(1, a) and the
groups G_{n,k} generated by diag(w^(2k), w^(-2k)) and antidiag(w^n, w^n) for
w a primitive (2nk)-th root of unity; a dihedral family D_{m,q} on the
commutative plane is provided for the correspondence checks.

Every group here is monomial, so a group element is the pair (m, key): the
exponent key (is_diagonal, e1, e2) of the matrix with entries w_m^e1, w_m^e2.
`GroupSpec.keys` lists a group once, over w_root_order.  Exponent arithmetic
has one home: `skew_algebra.monomial_action` is how a key acts on u^i v^j
(and which keys act at all), and here `mono_mul` is the product rule,
`trace_counts` the degree-d trace as an exponent histogram,
`GroupSpec.swap_key` the split G = D + tD (D diagonal), `GroupSpec.fixed_lattice`
the exponents of the monomials that D fixes and `GroupSpec.char_number` the
numbering of D's characters on monomials, `Gnk.coincides_with` the
coincidence G_(n,k) = G_(n/2,k), and one rule each decides quasi-reflections
and hdet.  `apply_aut`, the traces, hdet and the quasi-reflection test take
a pair only; the general-matrix reference that the tests hold them against
lives beside the tests, in tests/matrix_oracle.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import InternalInconsistencyError, ParameterError
from .scalars import Cyclo
from .skew_algebra import AlgebraSpec, _coerce_scalar, monomial_action


MonoKey = tuple[bool, int, int]
# a group element: (m, key) with the key over w_m
GroupElt = tuple[int, MonoKey]


def mono_mul(x: MonoKey, y: MonoKey, m: int) -> MonoKey:
    """Product x @ y of monomial matrices given as (is_diagonal, e1, e2) keys
    over w_m (entries w^e1, w^e2 at (a, d) or (b, c)).  A diagonal left factor
    adds exponents in place; an antidiagonal one swaps the right factor's."""
    xd, e1, e2 = x
    yd, f1, f2 = y
    if not xd:
        f1, f2 = f2, f1
    return (xd == yd, (e1 + f1) % m, (e2 + f2) % m)


def gnk_keys(n: int, k: int, diagonal: bool) -> list[MonoKey]:
    """Keys over w_(2nk) of g^i h^(2j) (diagonal) or g^i h^(2j+1), for i < n
    and j < k in (i, j) order:
    g^i h^(2j) = diag(w^(2(nj+ki)), w^(2(nj-ki))) and
    g^i h^(2j+1) = antidiag(w^((2j+1)n + 2ki), w^((2j+1)n - 2ki))."""
    m = 2 * n * k
    if diagonal:
        return [(True, 2 * (n * j + k * i) % m, 2 * (n * j - k * i) % m)
                for i in range(n) for j in range(k)]
    return [(False, ((2 * j + 1) * n + 2 * k * i) % m, ((2 * j + 1) * n - 2 * k * i) % m)
            for i in range(n) for j in range(k)]


@dataclass(frozen=True)
class CyclicDiag:
    """1/n(1, a): the cyclic group generated by diag(w_n, w_n^a)."""

    n: int
    a: int

    def __post_init__(self):
        if self.n < 1 or not (0 <= self.a < self.n) or (self.n > 1 and self.a == 0):
            raise ParameterError(f"need 1 <= a < n, got 1/{self.n}(1, {self.a})")


@dataclass(frozen=True)
class Gnk:
    """G_{n,k} = <diag(w^2k, w^-2k), antidiag(w^n, w^n)>, w of order 2nk."""

    n: int
    k: int

    def __post_init__(self):
        if self.n < 1 or self.k < 1:
            raise ParameterError(f"need positive n, k, got G_({self.n},{self.k})")

    @property
    def coincides_with(self) -> "Gnk | None":
        """G_(n/2,k), the same matrix group, when n = 2 (mod 4) and 4 | k."""
        return Gnk(self.n // 2, self.k) if self.n % 4 == 2 and self.k % 4 == 0 else None


@dataclass(frozen=True)
class DihedralMQ:
    """D_{m,q} = <diag(w^2(m-q), w^-2(m-q)), antidiag(w^q, w^q)>, w of order 4q(m-q).

    Used on the commutative plane for the type D correspondence evidence.
    """

    m: int
    q: int

    def __post_init__(self):
        if not (1 < self.q < self.m) or gcd(self.m, self.q) != 1:
            raise ParameterError(f"need 1 < q < m coprime, got D_({self.m},{self.q})")


class GroupSpec:
    """A group family member together with the ambient algebra.

    The variant checks accept only planes on which the family's generators
    are automorphisms (the tests check every generator).  `keys` lists the
    elements once, as exponent keys over w_root_order; the group-level
    computations read it.
    """

    __slots__ = ("variant", "ambient", "_keys", "_split")

    def __init__(self, variant, ambient: AlgebraSpec):
        self.variant = variant
        self.ambient = ambient
        self._keys = self._split = None
        if isinstance(variant, Gnk):
            if not (ambient.is_quantum and ambient.q == -1):
                raise ParameterError("G_{n,k} acts on the (-1)-quantum plane")
        elif isinstance(variant, CyclicDiag):
            if ambient.kind == "jordan" and variant.n > 1 and variant.a != 1:
                raise ParameterError(
                    "on the Jordan plane only 1/n(1,1) consists of valid automorphisms"
                )
        elif isinstance(variant, DihedralMQ):
            if not ambient.is_commutative:
                raise ParameterError("D_{m,q} is used on the commutative plane here")
        else:
            raise ParameterError(f"unknown group variant {variant!r}")

    # -- conveniences ---------------------------------------------------

    @staticmethod
    def cyclic(n: int, a: int, ambient: AlgebraSpec) -> "GroupSpec":
        return GroupSpec(CyclicDiag(n, a), ambient)

    @staticmethod
    def gnk(n: int, k: int) -> "GroupSpec":
        return GroupSpec(Gnk(n, k), AlgebraSpec.quantum(Cyclo.from_rational(-1)))

    @staticmethod
    def dihedral(m: int, q: int) -> "GroupSpec":
        return GroupSpec(DihedralMQ(m, q), AlgebraSpec.commutative())

    @property
    def root_order(self) -> int:
        v = self.variant
        if isinstance(v, CyclicDiag):
            return v.n
        if isinstance(v, Gnk):
            return 2 * v.n * v.k
        return 4 * v.q * (v.m - v.q)

    def generator_keys(self) -> list[MonoKey]:
        """Keys over w_root_order of the family's generators."""
        v = self.variant
        m = self.root_order
        if isinstance(v, CyclicDiag):
            return [(True, 1 % m, v.a)]
        s, t = (2 * v.k, v.n) if isinstance(v, Gnk) else (2 * (v.m - v.q), v.q)
        return [(True, s % m, -s % m), (False, t, t)]

    @property
    def keys(self) -> tuple[MonoKey, ...]:
        """Every element once, as a key over w_root_order, in a fixed order:
        1/n(1,a) by powers of its generator, G_{n,k} as `gnk_keys` lists it
        (the first of each repeated key kept), D_{m,q} sorted (antidiagonal
        first).  Built on first use."""
        if self._keys is None:
            self._keys = tuple(self._build_keys())
        return self._keys

    def _build_keys(self) -> list[MonoKey]:
        v = self.variant
        m = self.root_order
        if isinstance(v, CyclicDiag):
            return [(True, i, v.a * i % m) for i in range(m)]
        if isinstance(v, Gnk):
            # dict.fromkeys keeps the first of each repeated key (degenerate pairs)
            return list(dict.fromkeys(gnk_keys(v.n, v.k, True) + gnk_keys(v.n, v.k, False)))
        # dihedral: closure of the generators' keys
        gens = self.generator_keys()
        frontier = [(True, 0, 0)]
        seen = {frontier[0]}
        while frontier:
            nxt = []
            for x in frontier:
                for gkey in gens:
                    y = mono_mul(gkey, x, m)
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
            frontier = nxt
        return sorted(seen)

    @property
    def swap_key(self) -> MonoKey | None:
        """t in G = D + tD (D the diagonal subgroup): the first antidiagonal
        key, or None when G = D."""
        return self._diagonal_split()[0]

    @property
    def fixed_lattice(self) -> tuple[int, int, int]:
        """(a, b, c): the basis (a, b), (0, c) of the lattice L of the (p, r)
        with u^p v^r fixed by D, with c > 0 and then a > 0 least and
        0 <= b < c.  diag(w^e1, w^e2) scales u^p v^r by w^(e1 p + e2 r), so L
        is the kernel of (p, r) -> D's character on u^p v^r, of index |D|
        since D acts faithfully on u, v.  (p, r) lies in L exactly when
        a | p and r = (p / a) b (mod c)."""
        return self._diagonal_split()[1]

    @property
    def char_number(self):
        """char_number(p, r): the number in 0..|D|-1 of D's character on
        u^p v^r, 0 exactly when D fixes it.  `fixed_lattice` reduces (p, r)
        to (p mod a, (r - (p div a) b) mod c): that pair, numbered
        (p mod a) c + (r - (p div a) b) mod c."""
        a, b, c = self.fixed_lattice
        return lambda p, r: (p % a) * c + (r - p // a * b) % c

    def _diagonal_split(self):
        """(swap_key, fixed_lattice), built on first use."""
        if self._split is None:
            m = self.root_order
            weights = [key[1:] for key in self.keys if key[0]]

            def trivial(p: int, r: int) -> bool:
                return all((e1 * p + e2 * r) % m == 0 for e1, e2 in weights)

            c = next(r for r in range(1, m + 1) if trivial(0, r))
            a, b = next((p, r) for p in range(1, m + 1) for r in range(c) if trivial(p, r))
            swap = next((key for key in self.keys if not key[0]), None)
            self._split = swap, (a, b, c)
        return self._split

    def describe(self) -> str:
        v = self.variant
        if isinstance(v, CyclicDiag):
            return f"1/{v.n}(1,{v.a})"
        if isinstance(v, Gnk):
            return f"G_({v.n},{v.k})"
        return f"D_({v.m},{v.q})"

    def __repr__(self) -> str:
        return f"GroupSpec({self.describe()} on {self.ambient.describe()})"


def enumerate_group(G: GroupSpec) -> list[GroupElt]:
    """The elements as (root_order, key) pairs, in the order of `G.keys`: the
    public element list, which the smash context hands to `apply_aut`."""
    m = G.root_order
    return [(m, key) for key in G.keys]


# ---------------------------------------------------------------------------
# trace series
# ---------------------------------------------------------------------------


class RationalFunction:
    """num(t) / den(t) with den(0) != 0, expandable at t = 0."""

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        self.num = [_coerce_scalar(c) for c in num]
        self.den = [_coerce_scalar(c) for c in den]
        if all(c.is_zero() for c in self.den):
            raise ParameterError("zero denominator")
        if self.den[0].is_zero():
            raise ParameterError("denominator must be invertible at t = 0")

    def expand(self, N: int) -> list[Cyclo]:
        """The power-series coefficients of degrees 0 .. N."""
        d0inv = self.den[0].inverse()
        coeffs: list[Cyclo] = []
        for n in range(N + 1):
            acc = self.num[n] if n < len(self.num) else Cyclo.zero()
            for i in range(1, min(n, len(self.den) - 1) + 1):
                acc = acc - self.den[i] * coeffs[n - i]
            coeffs.append(acc * d0inv)
        return coeffs

    def to_json(self) -> dict:
        return {
            "num": [c.to_json() for c in self.num],
            "den": [c.to_json() for c in self.den],
        }


def trace_closed_form(spec: AlgebraSpec, g: GroupElt) -> RationalFunction:
    """Tr_A(g, t) = 1 / (1 - tr(g|A_1) t + hdet(g) t^2) for every valid g.

    A is Koszul with one quadratic relation r, so its minimal resolution
    0 -> A(-2) (x) kr -> A(-1) (x) A_1 -> A -> k -> 0 is g-equivariant, and g
    acts on the relation line kr by hdet(g) (Jorgensen and Zhang, Adv. Math.
    151, 2000).  Taking graded traces along it gives
    Tr_A(g, t) (1 - tr(g|A_1) t + hdet(g) t^2) = 1.  For g = (m, key),
    tr(g|A_1) is w^e1 + w^e2 when g is diagonal and 0 when it swaps u and v."""
    m, key = g
    tr = Cyclo.from_power_counts(m, trace_counts(spec, m, key, 1)) if key[0] else Cyclo.zero()
    one = Cyclo.one()
    return RationalFunction([one], [one, -tr, hdet(spec, g)])


def trace_counts(spec: AlgebraSpec, m: int, key: MonoKey, d: int) -> list[int]:
    """Exponent histogram of the degree-d trace of the monomial element with
    this key over w_m: the trace is the sum of counts[e] * w_m^e.

    By `monomial_action`, an element that keeps monomials scales
    u^i v^(d-i) by w^(a i + b (d-i)), one step of a - b per i.  One that
    swaps them fixes only the line of u^i v^i, d = 2i, which it scales by
    w^((a + b) i + c i i)."""
    counts = [0] * m
    swap, a, b, c = monomial_action(spec, m, key)
    if not swap:
        e, step = b * d % m, (a - b) % m
        for _ in range(d + 1):
            counts[e] += 1
            e = (e + step) % m
    elif d % 2 == 0:
        i = d // 2
        counts[((a + b) * i + c * i * i) % m] += 1
    return counts


def trace_series(spec: AlgebraSpec, g: GroupElt, N: int) -> list[Cyclo]:
    """The traces of g = (m, key) on degrees 0 .. N, by its `trace_counts`."""
    m, key = g
    return [Cyclo.from_power_counts(m, trace_counts(spec, m, key, d)) for d in range(N + 1)]


def trace(spec: AlgebraSpec, g: GroupElt, N: int) -> tuple[list[Cyclo], RationalFunction]:
    """(the traces on degrees 0 .. N, closed form)."""
    return trace_series(spec, g, N), trace_closed_form(spec, g)


# ---------------------------------------------------------------------------
# quasi-reflections, hdet, classification
# ---------------------------------------------------------------------------


def _quasi_reflection_rule(spec: AlgebraSpec, m: int, key: MonoKey) -> bool:
    """The condition tr = 1 + hdet, hdet != 1 of `is_quasi_reflection` in
    exponents, for the monomial element with this key over w_m, by its
    `monomial_action` (swap, a, b, c).  Kept apart so that `is_small_brute`
    forms no `Cyclo` per key.  A diagonal element has tr = w^a + w^b and
    hdet = w^(a + b), so the condition is (1 - w^a)(1 - w^b) = 0 with not both
    factors 0: it fixes exactly one of u, v.  One that swaps has tr = 0 and
    hdet = -w^(a + b + c) by `_hdet_rule`, so the condition is
    w^(a + b + c) = 1.  A Jordan group holds only scalars, never one."""
    swap, a, b, c = monomial_action(spec, m, key)
    if swap:
        return (a + b + c) % m == 0
    return (a % m == 0) != (b % m == 0)


def _hdet_rule(spec: AlgebraSpec, m: int, key: MonoKey) -> tuple[int, int]:
    """(s, e) with hdet = s * w_m^e for the monomial element with this key:
    by its `monomial_action`, g sends vu - q uv to w^(a + b) (vu - q uv), or
    when it swaps to w^(a + b) (uv - q vu) = -w^(a + b + c) (vu - q uv); and
    -w^c = 1 when c = m/2 (q = -1).  On the Jordan plane g is the scalar
    w^a = w^b, which scales the quadratic relation by w^(a + b)."""
    swap, a, b, c = monomial_action(spec, m, key)
    return (-1 if swap and not c else 1), (a + b) % m


def is_quasi_reflection(spec: AlgebraSpec, g: GroupElt) -> bool:
    """g is a quasi-reflection when Tr_A(g, t) = 1 / ((1 - t) q(t)) with
    q(1) != 0 (Kirkman, Kuzmanovich and Zhang, Trans. AMS 360, 2008).  By
    `trace_closed_form`, that is 1 - tr t + hdet t^2 = (1 - t)(1 - hdet t):
    tr = 1 + hdet and hdet != 1, which `_quasi_reflection_rule` states for
    g = (m, key).  The tests hold it against a trace-series oracle."""
    return _quasi_reflection_rule(spec, *g)


def hdet(spec: AlgebraSpec, g: GroupElt) -> Cyclo:
    """Homological determinant: the scalar by which g = (m, key) acts on the
    relation line, by `_hdet_rule` (its exponent histogram reduced, no root
    table)."""
    m, key = g
    sign, e = _hdet_rule(spec, m, key)
    return Cyclo.from_power_counts(m, [0] * e + [sign])


def is_small_closed_form(G: GroupSpec) -> bool:
    """Classification predicates: gcd(a, n) = 1 for cyclic groups; for G_{n,k},
    k not congruent to 2 mod 4 and gcd(n, k) <= 2 (Jordan groups are always small)."""
    v = G.variant
    if isinstance(v, CyclicDiag):
        if G.ambient.kind == "jordan":
            return True
        return gcd(v.a, v.n) == 1
    if isinstance(v, Gnk):
        return v.k % 4 != 2 and gcd(v.n, v.k) <= 2
    raise ParameterError("no closed-form smallness predicate for this family")


def is_small_brute(G: GroupSpec) -> bool:
    """No element is a quasi-reflection (the rule applied to every key)."""
    m = G.root_order
    return not any(_quasi_reflection_rule(G.ambient, m, key) for key in G.keys)


def group_report(G: GroupSpec) -> dict:
    """Order, smallness (brute + closed form), hdet triviality, Gorenstein flag,
    commutativity of the invariant ring (G_{n,k} only)."""
    if G.ambient.is_commutative:
        raise ParameterError(
            "classification assumes a noncommutative plane (q = 1 is excluded)"
        )
    small_brute = is_small_brute(G)
    small_closed = is_small_closed_form(G)
    if small_brute != small_closed:
        raise InternalInconsistencyError(
            f"brute smallness scan ({small_brute}) disagrees with the closed form "
            f"({small_closed}) for {G.describe()}"
        )
    m = G.root_order
    # q = 1 is rejected above, so every hdet is a root power w_m^e
    hdet_trivial = all(_hdet_rule(G.ambient, m, key) == (1, 0) for key in G.keys)
    v = G.variant
    commutative_flag = (v.n % 2 == 0 or v.k % 2 == 0) if isinstance(v, Gnk) else None
    return {
        "group": G.describe(),
        "algebra": G.ambient.describe(),
        "order": len(G.keys),
        "is_small": small_brute,
        "hdet_trivial": hdet_trivial,
        "gorenstein_flag": hdet_trivial,
        "commutative_invariants_flag": commutative_flag,
    }
