"""Reference answers computed without skewinv.

The benchmark checks every job against these.  Molien series are group
averages of traces, taken over the group's monomial matrices in
floating-point complex arithmetic and rounded to integers.  Nothing here
imports skewinv, so a fault in the package cannot hide in its own reference.
"""

from __future__ import annotations

import cmath
from math import gcd

# A monomial matrix over the m-th roots of unity w is ("d", e1, e2) for
# diag(w^e1, w^e2) or ("a", e1, e2) for [[0, w^e1], [w^e2, 0]].


def _compose(x, y, m):
    (tx, a1, a2), (ty, b1, b2) = x, y
    if tx == "d" and ty == "d":
        return ("d", (a1 + b1) % m, (a2 + b2) % m)
    if tx == "d":
        return ("a", (a1 + b1) % m, (a2 + b2) % m)
    if ty == "d":
        return ("a", (a1 + b2) % m, (a2 + b1) % m)
    return ("d", (a1 + b2) % m, (a2 + b1) % m)


def _closure(gens, m):
    seen = {("d", 0, 0)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = _compose(g, x, m)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return sorted(seen)


def cyclic_group(n: int, a: int):
    """1/n(1,a) = <diag(w_n, w_n^a)>; Jordan 1/n(1,1) is the case a = 1."""
    return n, _closure([("d", 1 % n, a % n)], n)


def gnk_group(n: int, k: int):
    """G_{n,k} = <diag(w^2k, w^-2k), antidiag(w^n, w^n)> with w = w_(2nk)."""
    m = 2 * n * k
    return m, _closure([("d", 2 * k % m, -2 * k % m), ("a", n % m, n % m)], m)


def molien(group, N: int, q_minus_one: bool = False) -> list[int]:
    """dim (A^G)_d for d <= N on a plane with PBW basis u^i v^j.

    A diagonal element scales u^i v^j by w^(e1 i + e2 j).  An antidiagonal
    one fixes the line of u^i v^i only, with scalar (w^e1 w^e2)^i q^(i*i),
    which is (-1)^i extra on the (-1)-quantum plane.
    """
    m, elems = group
    roots = [cmath.exp(2j * cmath.pi * e / m) for e in range(m)]
    half = m // 2
    out = []
    for d in range(N + 1):
        counts = [0] * m
        for t, e1, e2 in elems:
            if t == "d":
                for i in range(d + 1):
                    counts[(e1 * i + e2 * (d - i)) % m] += 1
            elif d % 2 == 0:
                i = d // 2
                e = (e1 + e2) * i
                if q_minus_one and i % 2:
                    e += half
                counts[e % m] += 1
        total = sum(c * roots[e] for e, c in enumerate(counts) if c) / len(elems)
        value = round(total.real)
        if abs(total - value) > 1e-6:
            raise ArithmeticError(f"Molien coefficient {total} at degree {d} is not an integer")
        out.append(value)
    return out


def expand_rational(num: list[int], den: list[int], N: int) -> list[int]:
    """Power series of num/den to degree N (den[0] == 1)."""
    out = []
    for d in range(N + 1):
        c = num[d] if d < len(num) else 0
        for j in range(1, min(d, len(den) - 1) + 1):
            c -= den[j] * out[d - j]
        out.append(c)
    return out


def poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def one_minus_t(k: int) -> list[int]:
    return [1] + [0] * (k - 1) + [-1]


def g73_molien(N: int) -> list[int]:
    """The closed form of hilb A^{G_(7,3)} printed with the paper's fixture."""
    num = [0] * 52
    num[0], num[30], num[33], num[36], num[48], num[51] = 1, -1, -1, -1, 1, 1
    den = [1]
    for k in (15, 9, 21, 12):
        den = poly_mul(den, one_minus_t(k))
    return expand_rational(num, den, N)


def gnk_is_small(n: int, k: int) -> bool:
    """The classification's closed form: k != 2 mod 4 and gcd(n, k) <= 2."""
    return k % 4 != 2 and gcd(n, k) <= 2


def hj_value(entries: list[int]) -> tuple[int, int]:
    """a1 - 1/(a2 - 1/(...)) as a reduced (num, den)."""
    num, den = entries[-1], 1
    for a in reversed(entries[:-1]):
        num, den = a * num - den, num
    g = gcd(num, den)
    return num // g, den // g


def theta_target(n: int, k: int) -> dict:
    """The commutative quotient singularity matching A^{G_(n,k)}."""
    if n == 1:
        return {"kind": "cyclic", "order": 2 * k, "weight": k + 1}
    if n == 2:
        return {"kind": "cyclic", "order": 4 * k, "weight": 2 * k + 1}
    if n % 2 == 1:
        return {"kind": "dihedral", "m": n + k // 2, "q": n}
    return {"kind": "dihedral", "m": n // 2 + k, "q": n // 2}
