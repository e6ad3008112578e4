"""Exact scalar arithmetic: rationals, cyclotomic fields Q(w_m), binomials.

Rationals are `fractions.Fraction` (arbitrary precision, always reduced,
positive denominator).  A `Cyclo` is an element of Q(w_m) in the power basis
1, w, ..., w^(phi(m)-1) modulo the m-th cyclotomic polynomial, stored as one
integer numerator tuple `num` over one positive integer denominator `den`.
The normal form has gcd(num, den) = 1, and zero is stored with den 1, so
equality is a tuple comparison.  Almost every value in the hot paths (roots,
trace sums, smash-product coefficients) has den 1, and then a sum or product
needs no gcd at all.  `coeffs` is a read-only `Fraction` view of the
coordinates, for rendering.  Mixed-order arithmetic promotes both operands
to the lcm order.

One reduction, `_reduce`, turns an integer coefficient list indexed by any
exponents into power-basis coordinates: it folds exponents by x^m = 1, then
divides by the monic Phi_m.  Products, promotion, inverses, exponent
histograms and the roots themselves go through it.  Each root of unity exists
once: `_roots(m)` holds w_m^0 .. w_m^(m-1) as `Cyclo`s tagged with their
exponent, so `Cyclo.root(m, e)` is `Cyclo.root(m, e + m)` and a product of
two roots is an exponent sum.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache

from .errors import CycloDivisionError, ParameterError


def lcm(a: int, b: int) -> int:
    return a // math.gcd(a, b) * b


def prime_factors(n: int) -> tuple[int, ...]:
    """The distinct primes dividing the int n >= 1, ascending (a float such
    as inf would never factor, so any other type is rejected)."""
    if type(n) is not int:
        raise ParameterError(f"need an integer, got {n!r}")
    out = []
    q = 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        out.append(n)
    return tuple(out)


@lru_cache(maxsize=None, typed=True)  # typed: 2.0 must not hit the entry of 2
def euler_phi(m: int) -> int:
    if m < 1:
        raise ParameterError(f"euler_phi needs m >= 1, got {m}")
    result = m
    for q in prime_factors(m):
        result -= result // q
    return result


def _mobius(n: int) -> int:
    primes = prime_factors(n)
    return 0 if any(n % (q * q) == 0 for q in primes) else (-1) ** len(primes)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """The coefficients of the m-th cyclotomic polynomial, constant term
    first: phi(m) + 1 ints, the last one 1.  Phi_m is the Moebius product of
    (x^d - 1)^mu(m/d) over d | m.  The factors with mu = 1 multiply in as
    binomials, then those with mu = -1 divide out exactly by synthetic
    division."""
    if m < 1:
        raise ParameterError(f"cyclotomic_polynomial needs m >= 1, got {m}")
    divisors = [d for d in range(1, m + 1) if m % d == 0]
    poly = [1]
    for d in divisors:
        if _mobius(m // d) == 1:  # poly * (x^d - 1)
            poly = [(poly[i - d] if i >= d else 0) - (poly[i] if i < len(poly) else 0)
                    for i in range(len(poly) + d)]
    for d in divisors:
        if _mobius(m // d) == -1:  # poly / (x^d - 1): poly[i] = q[i - d] - q[i]
            q = [0] * (len(poly) - d)
            for i in range(len(q)):
                q[i] = (q[i - d] if i >= d else 0) - poly[i]
            poly = q
    return tuple(poly)


@lru_cache(maxsize=None)
def _phi_terms(m: int) -> list[tuple[int, int]]:
    """(j, c) for the nonzero coefficients c of x^j in Phi_m below its leading x^phi."""
    cyc = cyclotomic_polynomial(m)
    return [(j, c) for j, c in enumerate(cyc[:-1]) if c]


def _reduce(m: int, cs) -> list[int]:
    """The phi(m) power-basis coordinates of sum cs[e] * w_m^e, for any e >= 0.

    Exponents first fold by x^m = 1 (Phi_m divides x^m - 1), then the monic
    Phi_m divides from the top.  Integers in, integers out; the caller's list
    is not changed."""
    phi = euler_phi(m)
    out = list(cs[:m])
    for e in range(m, len(cs)):
        out[e % m] += cs[e]
    out += [0] * (phi - len(out))
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


def _mul_num(m: int, a: tuple, b: tuple) -> list[int]:
    """Numerators of a * b in Q(w_m): integer convolution, then `_reduce`."""
    conv = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for k, y in enumerate(b, i):
                if y:
                    conv[k] += x * y
    return _reduce(m, conv)


@lru_cache(maxsize=None)
def _roots(m: int) -> tuple["Cyclo", ...]:
    """w_m^0, ..., w_m^(m-1), each tagged with its exponent.  Row e+1 is the
    reduction of x * row e."""
    rows = [[1] + [0] * (euler_phi(m) - 1)]
    for _ in range(m - 1):
        rows.append(_reduce(m, [0] + rows[-1]))
    return tuple(Cyclo._make(m, tuple(row), 1, e) for e, row in enumerate(rows))


@lru_cache(maxsize=None)
def _root_exp_index(m: int) -> dict[tuple[int, ...], int]:
    """numerators of w_m^e -> e, for 0 <= e < m (every root has den 1)."""
    return {r.num: e for e, r in enumerate(_roots(m))}


class Cyclo:
    """An element of Q(w_m): power-basis numerators `num` over one denominator `den`."""

    __slots__ = ("order", "num", "den", "_rexp")

    def __init__(self, order: int, coeffs):
        fs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        if len(fs) != euler_phi(order):
            raise ParameterError(
                f"need {euler_phi(order)} coefficients for order {order}, got {len(fs)}"
            )
        # over the lcm of reduced denominators, some numerator is prime to each
        # prime power of it, so the result is already in normal form
        den = 1
        for c in fs:
            den = lcm(den, c.denominator)
        self.order = order
        self.num = tuple(c.numerator * (den // c.denominator) for c in fs)
        self.den = den
        self._rexp = None  # lazily detected root-power exponent (-1: not a root power)

    @staticmethod
    def _make(order: int, num: tuple, den: int, rexp: int | None = None) -> "Cyclo":
        """Internal constructor: (num, den) must already be in normal form;
        rexp is e when the element is w_order^e."""
        out = object.__new__(Cyclo)
        out.order = order
        out.num = num
        out.den = den
        out._rexp = rexp
        return out

    @staticmethod
    def _normal(order: int, num, den: int) -> "Cyclo":
        """The element num/den for any integer list num and den > 0."""
        if den != 1:
            g = math.gcd(den, *num)
            if g != 1:
                num = [x // g for x in num]
                den //= g
        return Cyclo._make(order, tuple(num), den)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The power-basis coordinates as Fractions (a read-only view)."""
        d = self.den
        return tuple(Fraction(x, d) for x in self.num)

    # -- constructors ---------------------------------------------------

    @staticmethod
    def from_rational(x) -> "Cyclo":
        if type(x) is not int:
            x = Fraction(x)
            return Cyclo._make(1, (x.numerator,), x.denominator)
        return Cyclo._make(1, (x,), 1)

    @staticmethod
    def zero() -> "Cyclo":
        return Cyclo._make(1, (0,), 1)

    @staticmethod
    def one() -> "Cyclo":
        return Cyclo._make(1, (1,), 1)

    @staticmethod
    def from_power_counts(m: int, counts: list[int]) -> "Cyclo":
        """sum of counts[e] * w_m^e over 0 <= e < len(counts): the reduction
        of an exponent histogram, such as a monomial trace's."""
        return Cyclo._make(m, tuple(_reduce(m, counts)), 1)

    @staticmethod
    def root(m: int, e: int = 1) -> "Cyclo":
        """w_m^e for a fixed primitive m-th root of unity w_m: the one shared
        object for e mod m."""
        if m < 1:
            raise ParameterError(f"root of unity order must be >= 1, got {m}")
        return _roots(m)[e % m]

    # -- order handling ---------------------------------------------------

    def promote(self, m: int) -> "Cyclo":
        """Reinterpret in Q(w_m); requires order | m.

        The denominator stays: Z[w_m] meets Q(w_order) in Z[w_order], whose
        power basis is integral, so no prime divides every new numerator
        unless it divided every old one."""
        if m == self.order:
            return self
        if m % self.order != 0:
            raise ParameterError(f"cannot promote order {self.order} into order {m}")
        cs = self.num
        last = len(cs) - 1
        while last and not cs[last]:
            last -= 1
        mult = m // self.order
        terms = [0] * (last * mult + 1)
        terms[::mult] = cs[: last + 1]
        return Cyclo._make(m, tuple(_reduce(m, terms)), self.den)

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
        return not any(self.num)

    def is_rational(self) -> bool:
        """True iff num vanishes past the constant term.  A known root power
        w^e answers from e (it is rational iff it is +-1), and num[1] is read
        before the rest, which settles most non-rationals without a copy."""
        e = self._rexp
        if e is not None and e >= 0:
            return 2 * e % self.order == 0
        num = self.num
        return len(num) == 1 or (not num[1] and not any(num[2:]))

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ParameterError(f"{self!r} is not rational")
        return Fraction(self.num[0], self.den)

    def is_one(self) -> bool:
        return self.den == 1 and self.num[0] == 1 and self.is_rational()

    def _root_power_exp(self) -> int | None:
        """e with self == w_order^e, or None (powers this cheap drive hot paths)."""
        e = self._rexp
        if e is None:
            # every root has den 1, which rejects most non-roots before any hashing
            e = self._rexp = _root_exp_index(self.order).get(self.num, -1) if self.den == 1 else -1
        return None if e < 0 else e

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other) -> "Cyclo":
        if type(other) is not Cyclo:
            other = Cyclo._coerce(other)
        if not any(self.num):
            return other
        if not any(other.num):
            return self
        a, b = (self, other) if self.order == other.order else Cyclo._common(self, other)
        da, db = a.den, b.den
        if da == db:
            return Cyclo._normal(a.order, tuple(map(operator.add, a.num, b.num)), da)
        g = math.gcd(da, db)
        fa, fb = db // g, da // g
        return Cyclo._normal(a.order, [x * fa + y * fb for x, y in zip(a.num, b.num)], da * fa)

    __radd__ = __add__

    def __neg__(self) -> "Cyclo":
        """-self; a known root power w^e of even order m is the root
        w^(e + m/2).  Plain negation does not look e up, which would build
        the order-m root table (`_scale` by -1 does)."""
        e, m = self._rexp, self.order
        if e is not None and e >= 0 and m % 2 == 0:
            return Cyclo.root(m, e + m // 2)
        return Cyclo._make(m, tuple(map(operator.neg, self.num)), self.den)

    def __sub__(self, other) -> "Cyclo":
        return self + (-Cyclo._coerce(other))

    def __rsub__(self, other) -> "Cyclo":
        return Cyclo._coerce(other) - self

    def __mul__(self, other) -> "Cyclo":
        t = type(other)
        if t is not Cyclo:
            if t is int:
                return self._scale(other, 1)
            if t is Fraction:
                return self._scale(other.numerator, other.denominator)
            other = Cyclo._coerce(other)
        # a rational factor r scales the other one x (of the two rationals,
        # the one of larger order), and x is promoted to the lcm order only
        # when r's order does not divide its own
        ra, rb = self.is_rational(), other.is_rational()
        if ra or rb:
            r, x = (self, other) if ra and not (rb and self.order > other.order) else (other, self)
            if x.order % r.order:
                x = x.promote(lcm(x.order, r.order))
            return x._scale(r.num[0], r.den)
        a, b = (self, other) if self.order == other.order else Cyclo._common(self, other)
        na, nb = a.num, b.num
        m = a.order
        ea, eb = a._root_power_exp(), b._root_power_exp()
        if ea is not None and eb is not None:
            return Cyclo.root(m, ea + eb)
        return Cyclo._normal(m, _mul_num(m, na, nb), a.den * b.den)

    __rmul__ = __mul__

    def _scale(self, p: int, q: int) -> "Cyclo":
        """self * p/q for integers p and q > 0."""
        if q == 1:
            if p == 1:
                return self
            if p == -1:
                # look e up first, so that -self of a root power is a root
                self._root_power_exp()
                return -self
        return Cyclo._normal(self.order, [p * c for c in self.num], q * self.den)

    def inverse(self) -> "Cyclo":
        """1/self: the product of the other Galois conjugates over the norm.

        sigma_k (k prime to m) sends w to w^k, and the product of all
        sigma_k(x) is the norm N(x).  For m > 2, sigma_(-1) is complex
        conjugation, so N(x) is a product of |sigma_k(x)|^2, positive for
        x != 0.  With x = a/d for integer numerators a, 1/x = d * adj(a) / N(a),
        where adj(a) is the product of the sigma_k(a) with k != 1."""
        if self.is_zero():
            raise CycloDivisionError("division by zero in Q(w_m)")
        m, a = self.order, self.num
        if self.is_rational():
            p = a[0]
            return Cyclo._make(m, (self.den if p > 0 else -self.den,) + a[1:], abs(p))
        e = self._root_power_exp()
        if e is not None:
            return Cyclo.root(m, -e)
        adj: tuple = (1,)
        for k in range(2, m):
            if math.gcd(k, m) == 1:
                counts = [0] * m
                for i, c in enumerate(a):
                    counts[i * k % m] += c
                adj = tuple(_mul_num(m, adj, _reduce(m, counts)))
        norm = _mul_num(m, a, adj)[0]
        return Cyclo._normal(m, [self.den * c for c in adj], norm)

    def __truediv__(self, other) -> "Cyclo":
        return self * Cyclo._coerce(other).inverse()

    def __rtruediv__(self, other) -> "Cyclo":
        return Cyclo._coerce(other) * self.inverse()

    def __pow__(self, n: int) -> "Cyclo":
        e = self._root_power_exp()
        if e is not None:
            return Cyclo.root(self.order, e * n)
        if self.is_rational():
            p, q = self.num[0], self.den
            if n < 0:
                if not p:
                    raise CycloDivisionError("division by zero in Q(w_m)")
                p, q, n = (q, p, -n) if p > 0 else (-q, -p, -n)
            return Cyclo._make(self.order, (p ** n,) + self.num[1:], q ** n)
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
        return a.den == b.den and a.num == b.num

    __hash__ = None  # cross-order equality promotes; use key_at() for hashing

    def key_at(self, m: int) -> tuple:
        """Hashable normal form (numerators, denominator) in Q(w_m); requires order | m."""
        p = self.promote(m)
        return p.num, p.den

    # -- rendering ---------------------------------------------------

    def _coeff_texts(self) -> list[str]:
        """Each power-basis coordinate as "p" or "p/q": the numerators
        themselves when den is 1, with no `Fraction` built."""
        d = self.den
        if d == 1:
            return [str(x) for x in self.num]
        return [str(Fraction(x, d)) for x in self.num]

    def __str__(self) -> str:
        if self.is_rational():
            return str(self.num[0]) if self.den == 1 else str(self.rational_value())
        parts = []
        for e, (x, c) in enumerate(zip(self.num, self._coeff_texts())):
            if not x:
                continue
            if e == 0:
                parts.append(c)
            elif e == 1:
                parts.append(f"{c}*w")
            else:
                parts.append(f"{c}*w^{e}")
        return "(" + " + ".join(parts) + f")@{self.order}"

    def __repr__(self) -> str:
        return f"Cyclo({self.order}, {self._coeff_texts()})"

    def to_json(self) -> dict:
        return {"order": self.order, "coeffs": self._coeff_texts()}


def gen_binomial(alpha, k: int) -> Fraction:
    """Generalized binomial alpha*(alpha-1)*...*(alpha-k+1)/k!."""
    if k < 0:
        raise ParameterError(f"gen_binomial needs k >= 0, got {k}")
    alpha = Fraction(alpha)
    num = Fraction(1)
    for i in range(k):
        num *= alpha - i
    return num / math.factorial(k)
