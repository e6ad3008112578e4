"""Exact scalar arithmetic: rationals, cyclotomic fields Q(w_m), binomials.

Rationals are `fractions.Fraction` (arbitrary precision, always reduced,
positive denominator).  A `Cyclo` is an element of Q(w_m) stored in the
power basis 1, w, ..., w^(phi(m)-1) modulo the m-th cyclotomic polynomial,
so equality is a coefficient comparison.  Mixed-order arithmetic promotes
both operands to the lcm order.

One reduction, `_reduce`, turns a coefficient list indexed by any exponents
into power-basis coordinates: it folds exponents by x^m = 1, then divides by
the monic Phi_m.  Products, promotion, inverses, exponent histograms and the
roots themselves go through it.  Each root of unity exists once: `_roots(m)`
holds w_m^0 .. w_m^(m-1) as `Cyclo`s tagged with their exponent, so
`Cyclo.root(m, e)` is `Cyclo.root(m, e + m)` and a product of two roots is
an exponent sum.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .errors import CycloDivisionError, ParameterError

Rational = Fraction


def lcm(a: int, b: int) -> int:
    return a // math.gcd(a, b) * b


@lru_cache(maxsize=None)
def euler_phi(m: int) -> int:
    if m < 1:
        raise ParameterError(f"euler_phi needs m >= 1, got {m}")
    result = m
    n = m
    p = 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            result -= result // p
        p += 1
    if n > 1:
        result -= result // n
    return result


class IntPolynomial:
    """Dense polynomial over the integers; coeffs[i] is the x^i coefficient."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        if self.is_zero() or other.is_zero():
            return IntPolynomial(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPolynomial(out)

    def exact_div(self, den: "IntPolynomial") -> "IntPolynomial":
        """Exact quotient self/den; raises if the division leaves a remainder."""
        if den.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        rem = list(self.coeffs)
        q = [0] * max(len(rem) - len(den.coeffs) + 1, 0)
        dlead = den.coeffs[-1]
        while len(rem) >= len(den.coeffs) and any(rem):
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) < len(den.coeffs):
                break
            shift = len(rem) - len(den.coeffs)
            c, r = divmod(rem[-1], dlead)
            if r:
                raise ParameterError("non-exact polynomial division")
            q[shift] = c
            for j, b in enumerate(den.coeffs):
                rem[shift + j] -= c * b
        if any(rem):
            raise ParameterError("non-exact polynomial division")
        return IntPolynomial(q)

    def __repr__(self) -> str:
        return f"IntPolynomial({list(self.coeffs)})"


def _divisors(m: int) -> list[int]:
    ds = [d for d in range(1, m) if m % d == 0]
    return ds


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> IntPolynomial:
    """The m-th cyclotomic polynomial, monic of degree phi(m)."""
    if m < 1:
        raise ParameterError(f"cyclotomic_polynomial needs m >= 1, got {m}")
    if m == 1:
        return IntPolynomial((-1, 1))
    xm1 = IntPolynomial([-1] + [0] * (m - 1) + [1])
    den = IntPolynomial((1,))
    for d in _divisors(m):
        den = den * cyclotomic_polynomial(d)
    return xm1.exact_div(den)


_ZERO = Fraction(0)
_ONE = Fraction(1)


@lru_cache(maxsize=None)
def _phi_terms(m: int) -> list[tuple[int, int]]:
    """(j, c) for the nonzero coefficients c of x^j in Phi_m below its leading x^phi."""
    cyc = cyclotomic_polynomial(m).coeffs
    return [(j, c) for j, c in enumerate(cyc[:-1]) if c]


def _reduce(m: int, cs) -> list:
    """The phi(m) power-basis coordinates of sum cs[e] * w_m^e, for any e >= 0.

    Exponents first fold by x^m = 1 (Phi_m divides x^m - 1), then the monic
    Phi_m divides from the top.  Integer input stays integer; the caller's
    list is not changed."""
    phi = euler_phi(m)
    out = list(cs[:m])
    for e in range(m, len(cs)):
        out[e % m] += cs[e]
    out += [_ZERO] * (phi - len(out))
    low = _phi_terms(m)
    for top in range(len(out) - 1, phi - 1, -1):
        c = out[top]
        if c:
            base = top - phi
            for j, a in low:
                if a == 1:
                    out[base + j] -= c
                elif a == -1:
                    out[base + j] += c
                else:
                    out[base + j] -= a * c
    del out[phi:]
    return out


@lru_cache(maxsize=None)
def _roots(m: int) -> tuple["Cyclo", ...]:
    """w_m^0, ..., w_m^(m-1), each tagged with its exponent.  Row e+1 is the
    reduction of x * row e; the roots share one Fraction per coordinate value."""
    rows = [[1] + [0] * (euler_phi(m) - 1)]
    for _ in range(m - 1):
        rows.append(_reduce(m, [0] + rows[-1]))
    shared = {c: Fraction(c) for c in set().union(*rows)}
    return tuple(Cyclo._make(m, tuple(map(shared.__getitem__, row)), e)
                 for e, row in enumerate(rows))


@lru_cache(maxsize=None)
def _root_exp_index(m: int) -> dict[tuple[Fraction, ...], int]:
    """coordinates of w_m^e -> e, for 0 <= e < m."""
    return {r.coeffs: e for e, r in enumerate(_roots(m))}


class Cyclo:
    """An element of Q(w_m) in the power basis modulo the m-th cyclotomic polynomial."""

    __slots__ = ("order", "coeffs", "_rexp")

    def __init__(self, order: int, coeffs):
        self.order = order
        cs = tuple(c if type(c) is Fraction else Fraction(c) for c in coeffs)
        if len(cs) != euler_phi(order):
            raise ParameterError(
                f"need {euler_phi(order)} coefficients for order {order}, got {len(cs)}"
            )
        self.coeffs = cs
        self._rexp = None  # lazily detected root-power exponent (-1: not a root power)

    @staticmethod
    def _make(order: int, coeffs: tuple, rexp: int | None = None) -> "Cyclo":
        """Internal constructor: coeffs must already be a tuple of Fractions;
        rexp is e when the element is w_order^e."""
        out = object.__new__(Cyclo)
        out.order = order
        out.coeffs = coeffs
        out._rexp = rexp
        return out

    # -- constructors ---------------------------------------------------

    @staticmethod
    def from_rational(x) -> "Cyclo":
        return Cyclo(1, (Fraction(x),))

    @staticmethod
    def zero() -> "Cyclo":
        return Cyclo(1, (_ZERO,))

    @staticmethod
    def one() -> "Cyclo":
        return Cyclo(1, (_ONE,))

    @staticmethod
    def from_power_counts(m: int, counts: list[int]) -> "Cyclo":
        """sum of counts[e] * w_m^e over 0 <= e < len(counts): the reduction
        of an exponent histogram, such as a monomial trace's."""
        return Cyclo._make(m, tuple(Fraction(x) if x else _ZERO for x in _reduce(m, counts)))

    @staticmethod
    def root(m: int, e: int = 1) -> "Cyclo":
        """w_m^e for a fixed primitive m-th root of unity w_m: the one shared
        object for e mod m."""
        if m < 1:
            raise ParameterError(f"root of unity order must be >= 1, got {m}")
        return _roots(m)[e % m]

    # -- order handling ---------------------------------------------------

    def promote(self, m: int) -> "Cyclo":
        """Reinterpret in Q(w_m); requires order | m."""
        if m == self.order:
            return self
        if m % self.order != 0:
            raise ParameterError(f"cannot promote order {self.order} into order {m}")
        cs = self.coeffs
        last = len(cs) - 1
        while last and not cs[last]:
            last -= 1
        mult = m // self.order
        terms = [_ZERO] * (last * mult + 1)
        terms[::mult] = cs[: last + 1]
        return Cyclo._make(m, tuple(_reduce(m, terms)))

    @staticmethod
    def _common(a: "Cyclo", b: "Cyclo") -> tuple["Cyclo", "Cyclo"]:
        if a.order == b.order:
            return a, b
        m = lcm(a.order, b.order)
        return a.promote(m), b.promote(m)

    @staticmethod
    def _coerce(x) -> "Cyclo":
        if isinstance(x, Cyclo):
            return x
        if isinstance(x, (int, Fraction)):
            return Cyclo.from_rational(x)
        raise TypeError(f"cannot coerce {type(x).__name__} to Cyclo")

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ParameterError(f"{self!r} is not rational")
        return self.coeffs[0]

    def is_one(self) -> bool:
        return self.coeffs[0] == 1 and all(c == 0 for c in self.coeffs[1:])

    def is_root_of_unity(self) -> bool:
        """True iff self generates a finite multiplicative group (so lies in <±w>)."""
        if self.is_zero():
            return False
        L = lcm(2, self.order)
        return (self ** L).is_one()

    def _root_power_exp(self) -> int | None:
        """e with self == w_order^e, or None (powers this cheap drive hot paths)."""
        e = self._rexp
        if e is None:
            # the denominator test rejects most non-roots before any hashing
            integral = all(c.denominator == 1 for c in self.coeffs)
            e = self._rexp = _root_exp_index(self.order).get(self.coeffs, -1) if integral else -1
        return None if e < 0 else e

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other) -> "Cyclo":
        other = Cyclo._coerce(other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        a, b = Cyclo._common(self, other)
        return Cyclo._make(a.order, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    __radd__ = __add__

    def __neg__(self) -> "Cyclo":
        return Cyclo._make(self.order, tuple(-c for c in self.coeffs))

    def __sub__(self, other) -> "Cyclo":
        return self + (-Cyclo._coerce(other))

    def __rsub__(self, other) -> "Cyclo":
        return Cyclo._coerce(other) - self

    def __mul__(self, other) -> "Cyclo":
        a, b = Cyclo._common(self, Cyclo._coerce(other))
        m = a.order
        if m == 1:
            return Cyclo._make(1, (a.coeffs[0] * b.coeffs[0],))
        if a.is_rational():
            return Cyclo._scale_fast(b, a.coeffs[0])
        if b.is_rational():
            return Cyclo._scale_fast(a, b.coeffs[0])
        ea, eb = a._root_power_exp(), b._root_power_exp()
        if ea is not None and eb is not None:
            return Cyclo.root(m, ea + eb)
        phi = euler_phi(m)
        conv = [_ZERO] * (2 * phi - 1)
        for i, x in enumerate(a.coeffs):
            if x:
                for j, y in enumerate(b.coeffs):
                    if y:
                        conv[i + j] += x * y
        return Cyclo._make(m, tuple(_reduce(m, conv)))

    __rmul__ = __mul__

    @staticmethod
    def _scale_fast(x: "Cyclo", r: Fraction) -> "Cyclo":
        if r == 1:
            return x
        if r == -1:
            e = x._root_power_exp()
            if e is not None and x.order % 2 == 0:
                return Cyclo.root(x.order, e + x.order // 2)
            return Cyclo._make(x.order, tuple(-c for c in x.coeffs))
        return Cyclo._make(x.order, tuple(r * c for c in x.coeffs))

    def inverse(self) -> "Cyclo":
        if self.is_zero():
            raise CycloDivisionError("division by zero in Q(w_m)")
        m = self.order
        if self.is_rational():
            return Cyclo(m, (1 / self.coeffs[0],) + (_ZERO,) * (euler_phi(m) - 1))
        # extended gcd of self (as a polynomial) with the cyclotomic polynomial
        cyc = [Fraction(c) for c in cyclotomic_polynomial(m).coeffs]
        r0, r1 = cyc, list(self.coeffs)
        s0, s1 = [Fraction(0)], [Fraction(1)]

        def trim(p):
            while p and p[-1] == 0:
                p.pop()
            return p

        r1 = trim(r1)
        while True:
            if not r1:
                raise CycloDivisionError("non-invertible element (should not happen)")
            if len(r1) == 1:
                break
            q, rem = _poly_divmod(r0, r1)
            s_new = _poly_sub(s0, _poly_mul(q, s1))
            r0, r1 = r1, trim(rem)
            s0, s1 = s1, s_new
        g = r1[0]
        inv_poly = [c / g for c in s1]
        return Cyclo(m, _reduce(m, inv_poly))

    def __truediv__(self, other) -> "Cyclo":
        return self * Cyclo._coerce(other).inverse()

    def __rtruediv__(self, other) -> "Cyclo":
        return Cyclo._coerce(other) * self.inverse()

    def __pow__(self, n: int) -> "Cyclo":
        e = self._root_power_exp()
        if e is not None:
            return Cyclo.root(self.order, e * n)
        if self.is_rational():
            r = self.coeffs[0]
            if n < 0 and r == 0:
                raise CycloDivisionError("division by zero in Q(w_m)")
            return Cyclo._make(self.order, (r ** n,) + self.coeffs[1:])
        if n < 0:
            return self.inverse() ** (-n)
        result = Cyclo.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Cyclo.from_rational(other)
        if not isinstance(other, Cyclo):
            return NotImplemented
        a, b = Cyclo._common(self, other)
        if a is b:
            return True
        ea, eb = a._rexp, b._rexp
        if ea is not None and eb is not None and ea >= 0 and eb >= 0:
            return ea == eb
        return a.coeffs == b.coeffs

    __hash__ = None  # cross-order equality promotes; use key_at() for hashing

    def key_at(self, m: int) -> tuple:
        """Hashable canonical coordinates in Q(w_m); requires order | m."""
        return self.promote(m).coeffs

    # -- rendering ---------------------------------------------------

    def __str__(self) -> str:
        if self.is_rational():
            return str(self.coeffs[0])
        parts = []
        for e, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if e == 0:
                parts.append(str(c))
            elif e == 1:
                parts.append(f"{c}*w")
            else:
                parts.append(f"{c}*w^{e}")
        return "(" + " + ".join(parts) + f")@{self.order}"

    def __repr__(self) -> str:
        return f"Cyclo({self.order}, {[str(c) for c in self.coeffs]})"

    def to_json(self) -> dict:
        return {"order": self.order, "coeffs": [str(c) for c in self.coeffs]}


def _poly_divmod(num: list[Fraction], den: list[Fraction]):
    num = list(num)
    q = [Fraction(0)] * max(len(num) - len(den) + 1, 1)
    while len(num) >= len(den):
        while num and num[-1] == 0:
            num.pop()
        if len(num) < len(den):
            break
        shift = len(num) - len(den)
        c = num[-1] / den[-1]
        q[shift] = c
        for j, b in enumerate(den):
            num[shift + j] -= c * b
    return q, num


def _poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _poly_sub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    n = max(len(a), len(b))
    a = a + [Fraction(0)] * (n - len(a))
    b = b + [Fraction(0)] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


def gen_binomial(alpha, k: int) -> Fraction:
    """Generalized binomial alpha*(alpha-1)*...*(alpha-k+1)/k!."""
    if k < 0:
        raise ParameterError(f"gen_binomial needs k >= 0, got {k}")
    alpha = Fraction(alpha)
    num = Fraction(1)
    for i in range(k):
        num *= alpha - i
    return num / math.factorial(k)
