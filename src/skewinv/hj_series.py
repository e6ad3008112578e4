"""Hirzebruch-Jung continued fractions and the derived integer series.

Covers the type A data (cyclic quotient generators u^i v^j), the type D
data (binary-dihedral-style generators), and the two noncommutative series
branches for G_{n,k} with n, k odd.  Every constructor validates the full
invariant list before returning, so downstream code can trust the data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .errors import ParameterError


@dataclass(frozen=True)
class HJExpansion:
    """x = a1 - 1/(a2 - 1/(...)) with a1 >= 1 and a_i >= 2 for i >= 2."""

    num: int
    den: int
    entries: tuple[int, ...]

    def value(self) -> Fraction:
        acc = Fraction(self.entries[-1])
        for a in reversed(self.entries[:-1]):
            acc = a - 1 / acc
        return acc

    def to_json(self) -> dict:
        return {"num": self.num, "den": self.den, "entries": list(self.entries)}


def hj_expand(num: int, den: int) -> HJExpansion:
    """Hirzebruch-Jung expansion of num/den by the ceiling recursion."""
    if num <= 0 or den <= 0:
        raise ParameterError(f"hj_expand needs positive integers, got {num}/{den}")
    g = gcd(num, den)
    x = Fraction(num // g, den // g)
    entries: list[int] = []
    while True:
        a = -((-x.numerator) // x.denominator)  # ceil
        entries.append(a)
        rem = a - x
        if rem == 0:
            break
        x = 1 / rem
    exp = HJExpansion(num, den, tuple(entries))
    if exp.entries[0] < 1 or any(a < 2 for a in exp.entries[1:]):
        raise ParameterError(f"malformed expansion {exp.entries} for {num}/{den}")
    if exp.value() != Fraction(num, den):
        raise ParameterError(f"round-trip failed for {num}/{den}")
    return exp


@dataclass(frozen=True)
class TypeAData:
    """Series for the cyclic group 1/n(1, a) acting on a plane.

    beta is the expansion of n/(n-a); the generators are u^(i_k) v^(j_k).
    """

    n: int
    a: int
    beta: tuple[int, ...]
    i_series: tuple[int, ...]
    j_series: tuple[int, ...]
    d: int

    def generator_exponents(self) -> list[tuple[int, int]]:
        return list(zip(self.i_series, self.j_series))

    def generator_degrees(self) -> list[int]:
        return [i + j for i, j in self.generator_exponents()]

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "a": self.a,
            "beta": list(self.beta),
            "i": list(self.i_series),
            "j": list(self.j_series),
            "d": self.d,
        }


def typeA_data(n: int, a: int) -> TypeAData:
    if not (1 <= a < n):
        raise ParameterError(f"typeA_data needs 1 <= a < n, got (n, a) = ({n}, {a})")
    if gcd(a, n) != 1:
        raise ParameterError(f"typeA_data needs gcd(a, n) = 1, got ({n}, {a})")
    beta = hj_expand(n, n - a).entries
    d = len(beta) + 2
    i_series = [n, n - a]
    j_series = [0, 1]
    for k in range(3, d + 1):
        i_series.append(beta[k - 3] * i_series[-1] - i_series[-2])
        j_series.append(beta[k - 3] * j_series[-1] - j_series[-2])
    data = TypeAData(n, a, tuple(beta), tuple(i_series), tuple(j_series), d)
    if data.i_series[-1] != 0 or data.j_series[-1] != n:
        raise ParameterError(f"typeA series failed terminal check for ({n}, {a})")
    if any(x < 0 for x in data.i_series) or any(x < 0 for x in data.j_series):
        raise ParameterError(f"typeA series went negative for ({n}, {a})")
    return data


@dataclass(frozen=True)
class TypeDData:
    """Series for the binary dihedral group D_{m,q} acting on the plane.

    beta is the expansion of m/(m-q); the generators are
    (u^(2q s_k) + (-1)^(t_k) v^(2q s_k)) (uv)^(r_k) for k <= d-1 plus
    (uv)^(2(m-q)).
    """

    m: int
    q: int
    beta: tuple[int, ...]
    s_series: tuple[int, ...]
    t_series: tuple[int, ...]
    r_series: tuple[int, ...]
    d: int

    def generator_exponents(self) -> list[tuple[int, int, int] | tuple[int]]:
        """(power of u and v, sign exponent, uv power) triples, then the (uv) power."""
        out: list = [
            (2 * self.q * s, t, r)
            for s, t, r in zip(self.s_series, self.t_series, self.r_series)
        ]
        out.append((2 * (self.m - self.q),))
        return out

    def generator_degrees(self) -> list[int]:
        degs = [2 * self.q * s + 2 * r for s, r in zip(self.s_series, self.r_series)]
        degs.append(4 * (self.m - self.q))
        return degs

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "q": self.q,
            "beta": list(self.beta),
            "s": list(self.s_series),
            "t": list(self.t_series),
            "r": list(self.r_series),
            "d": self.d,
        }


def typeD_data(m: int, q: int) -> TypeDData:
    if not (1 < q < m):
        raise ParameterError(f"typeD_data needs 1 < q < m, got (m, q) = ({m}, {q})")
    if gcd(m, q) != 1:
        raise ParameterError(f"typeD_data needs gcd(m, q) = 1, got ({m}, {q})")
    beta = hj_expand(m, m - q).entries
    d = len(beta) + 2
    s_series = [1, 1]
    t_series = [beta[0], beta[0] - 1]
    if d - 1 >= 3:
        s_series.append(beta[1])
        t_series.append(beta[1] * (beta[0] - 1) - 1)
        for k in range(4, d):
            s_series.append(beta[k - 2] * s_series[-1] - s_series[-2])
            t_series.append(beta[k - 2] * t_series[-1] - t_series[-2])
    r_series = [(m - q) * t - q * s for s, t in zip(s_series, t_series)]
    data = TypeDData(m, q, tuple(beta), tuple(s_series), tuple(t_series), tuple(r_series), d)
    if len(data.s_series) != d - 1:
        raise ParameterError(f"typeD series has wrong length for ({m}, {q})")
    if any(r < 0 for r in data.r_series) or data.r_series[-1] != 0:
        raise ParameterError(f"typeD r-series failed checks for ({m}, {q})")
    return data


@dataclass(frozen=True)
class NCSeries:
    """Series driving the noncommutative G_{n,k} generators (n, k odd, coprime).

    gamma is the expansion of n / ((n+k)/2); beta is the modified sequence
    (n > k: beta_3 = gamma_3 + 1; n < k: beta_2 = gamma_2 + 2).  For n > k the
    series have length d-1 and the generator list gets the extra (uv)^(2k);
    for n < k the series have length d.  `recurrence_indexing` records which
    beta subscript the recurrence uses, chosen so the terminal values come
    out right (s ends at k, t ends at n).
    """

    n: int
    k: int
    branch: str  # "n_gt_k" | "n_lt_k"
    gamma: tuple[int, ...]
    beta: tuple[int, ...]
    r_series: tuple[int, ...]
    s_series: tuple[int, ...]
    t_series: tuple[int, ...]
    d: int
    recurrence_indexing: str = field(default="")

    def generator_exponents(self) -> list[tuple[int, int, int] | tuple[int]]:
        """(u/v power n*s_i, sign exponent r_i + n*s_i, uv power r_i), then (uv)^(2k)."""
        out: list = [
            (self.n * s, r + self.n * s, r) for s, r in zip(self.s_series, self.r_series)
        ]
        if self.branch == "n_gt_k":
            out.append((2 * self.k,))
        return out

    def generator_degrees(self) -> list[int]:
        degs = [self.n * s + 2 * r for s, r in zip(self.s_series, self.r_series)]
        if self.branch == "n_gt_k":
            degs.append(4 * self.k)
        return degs

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "branch": self.branch,
            "gamma": list(self.gamma),
            "beta": list(self.beta),
            "r": list(self.r_series),
            "s": list(self.s_series),
            "t": list(self.t_series),
            "d": self.d,
            "recurrence_indexing": self.recurrence_indexing,
        }


def _validate_nc_common(ns: NCSeries) -> None:
    n, k = ns.n, ns.k
    r, s, t = ns.r_series, ns.s_series, ns.t_series
    for i in range(len(r)):
        if 2 * r[i] + n * s[i] != k * t[i]:
            raise ParameterError(f"2r + ns != kt at index {i + 1} for ({n}, {k})")
    if any(r[i] <= r[i + 1] for i in range(len(r) - 1)):
        raise ParameterError(f"r-series is not strictly decreasing for ({n}, {k})")
    if r[-2] != 1 or r[-1] != 0:
        raise ParameterError(f"r-series must end 1, 0 for ({n}, {k})")
    if s[-1] != k or t[-1] != n:
        raise ParameterError(f"terminal values s = k, t = n failed for ({n}, {k})")
    for i in range(len(r) - 1):
        if r[i] * s[i + 1] - r[i + 1] * s[i] != k:
            raise ParameterError(f"cross identity r s' - r' s = k failed for ({n}, {k})")
        if r[i] * t[i + 1] - r[i + 1] * t[i] != n:
            raise ParameterError(f"cross identity r t' - r' t = n failed for ({n}, {k})")


def nc_series(n: int, k: int) -> NCSeries:
    if n < 1 or k < 1:
        raise ParameterError(f"nc_series needs positive n, k, got ({n}, {k})")
    if n % 2 == 0 or k % 2 == 0:
        raise ParameterError(f"nc_series needs n, k odd, got ({n}, {k})")
    if gcd(n, k) != 1:
        raise ParameterError(f"nc_series needs gcd(n, k) = 1, got ({n}, {k})")
    if n == k:
        raise ParameterError("nc_series needs n != k (and (1, 1) has no series)")
    gamma = hj_expand(n, (n + k) // 2).entries
    d = len(gamma) + 1
    if n > k:
        beta = list(gamma)
        if len(beta) >= 3:
            beta[2] += 1
        s_series = [1, 1]
        t_series = [2 * beta[1] + 1, 2 * beta[1] - 1]
        for i in range(3, d):  # series indices 3 .. d-1, recurrence uses beta_i
            s_series.append(beta[i - 1] * s_series[-1] - s_series[-2])
            t_series.append(beta[i - 1] * t_series[-1] - t_series[-2])
        r_series = [(k * t - n * s) // 2 for s, t in zip(s_series, t_series)]
        ns = NCSeries(
            n, k, "n_gt_k", tuple(gamma), tuple(beta),
            tuple(r_series), tuple(s_series), tuple(t_series), d,
            recurrence_indexing="beta_i",
        )
        if gamma[0] != 2:
            raise ParameterError(f"expected gamma_1 = 2 for n > k, got {gamma}")
        if any((k * t - n * s) % 2 for s, t in zip(s_series, t_series)):
            raise ParameterError(f"r-series not integral for ({n}, {k})")
        if r_series[0] != k * beta[1] - (n - k) // 2 or r_series[1] != k * beta[1] - (n + k) // 2:
            raise ParameterError(f"r_1/r_2 closed forms failed for ({n}, {k})")
        _validate_nc_common(ns)
        return ns
    # n < k: series run 1..d and the recurrence uses beta_(i-1)
    beta = list(gamma)
    if len(beta) >= 2:
        beta[1] += 2
    s_series = [1, 1]
    t_series = [3, 1]
    for i in range(3, d + 1):
        s_series.append(beta[i - 2] * s_series[-1] - s_series[-2])
        t_series.append(beta[i - 2] * t_series[-1] - t_series[-2])
    r_series = [(k * t - n * s) // 2 for s, t in zip(s_series, t_series)]
    ns = NCSeries(
        n, k, "n_lt_k", tuple(gamma), tuple(beta),
        tuple(r_series), tuple(s_series), tuple(t_series), d,
        recurrence_indexing="beta_(i-1)",
    )
    if gamma[0] != 1:
        raise ParameterError(f"expected gamma_1 = 1 for n < k, got {gamma}")
    if any((k * t - n * s) % 2 for s, t in zip(s_series, t_series)):
        raise ParameterError(f"r-series not integral for ({n}, {k})")
    if r_series[0] != (3 * k - n) // 2 or r_series[1] != (k - n) // 2:
        raise ParameterError(f"r_1/r_2 closed forms failed for ({n}, {k})")
    _validate_nc_common(ns)
    return ns


def decompose_triple(series: NCSeries, r: int, s: int, t: int) -> list[int]:
    """Non-negative c_i with r = sum c_i r_i, s = sum c_i s_i, t = sum c_i t_i.

    Uses the inductive greedy choice (smallest i with r - r_i >= 0, recurse);
    valid for the n > k branch under 2r + ns = kt, 0 <= r < 2k, s, t >= 1.
    """
    if series.branch != "n_gt_k":
        raise ParameterError("decompose_triple applies to the n > k series")
    n, k = series.n, series.k
    if 2 * r + n * s != k * t or not (0 <= r < 2 * k) or s < 1 or t < 1:
        raise ParameterError(f"triple ({r}, {s}, {t}) violates the preconditions")
    rs, ss, ts = series.r_series, series.s_series, series.t_series
    width = len(rs)
    target = (r, s, t)
    coeffs = [0] * width
    while True:
        if r == 0:
            # ns = kt with n, k coprime: s = m*k, t = m*n
            if s % k or t % n or s // k != t // n:
                raise ParameterError(f"no decomposition found at residual ({r}, {s}, {t})")
            coeffs[width - 1] += s // k
            break
        idx = None
        for i in range(width):
            if r - rs[i] >= 0:
                idx = i
                break
        if idx is None:
            raise ParameterError(f"no decomposition found at residual ({r}, {s}, {t})")
        coeffs[idx] += 1
        r, s, t = r - rs[idx], s - ss[idx], t - ts[idx]
        if s == 0 and t == 0:
            if r != 0:
                raise ParameterError(f"no decomposition found at residual ({r}, {s}, {t})")
            break
        if s <= 0 or t <= 0:
            raise ParameterError(f"no decomposition found at residual ({r}, {s}, {t})")
    resummed = tuple(sum(c * x for c, x in zip(coeffs, xs)) for xs in (rs, ss, ts))
    if resummed != target:
        raise ParameterError(f"decomposition re-sum mismatch: {resummed} != {target}")
    return coeffs
