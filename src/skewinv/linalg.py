"""Sparse linear algebra over a field: one elimination engine.

Vectors are dicts {column index: scalar} with no zero entries.  Pivoting is
always on the smallest column index, so reduced bases are deterministic.
`SpanBuilder` is the engine; `rref` and `nullspace` are built on it.  The
engine takes its arithmetic from a field object: `EXACT` is Q(w_m) on `Cyclo`
scalars, and a `PrimeField` is F_p on ints in [0, p), reached from Q(w_M) by
the ring map that sends w_M to an element of exact order M.  Plain ints are
scalars of both fields.
"""

from __future__ import annotations

import operator

from .errors import ParameterError
from .scalars import Cyclo, lcm, prime_factors


def vec_add_scaled(target: dict, src: dict, c: Cyclo) -> None:
    """target += c * src, dropping cancelled entries."""
    for col, val in src.items():
        cur = target.get(col)
        new = val * c if cur is None else cur + val * c
        if new.is_zero():
            target.pop(col, None)
        else:
            target[col] = new


class ExactField:
    """Q(w_m) on `Cyclo` scalars: the field of every printed result."""

    one = Cyclo.one()
    axpy = staticmethod(vec_add_scaled)
    neg = staticmethod(operator.neg)

    @staticmethod
    def normalize(vec: dict) -> dict:
        """vec without its zero entries."""
        return {key: c for key, c in vec.items() if not c.is_zero()}

    @staticmethod
    def inverse(a: Cyclo) -> Cyclo:
        return a.inverse()

    @staticmethod
    def coerce(c: Cyclo | int) -> Cyclo | int:
        return c


EXACT = ExactField()


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; the bases 2, 3, 5, 7 suffice below 3.2e9."""
    if n < 11:
        return n in (2, 3, 5, 7)
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """F_p for the largest prime p < 2^30 with p = 1 (mod M) that divides none
    of `denominators`, so residues are one-digit ints.

    F_p* is cyclic of order p - 1, so it has elements of exact order M; zeta is
    the first one found, a root of Phi_M mod p.  A `Cyclo` of order dividing M
    whose denominator is prime to p lies in Z_(p)[w_M], and w_M -> zeta is a
    ring map from there onto F_p: `coerce` applies it.  Products of residues
    may be left unreduced until they reach `normalize` or `axpy`."""

    LIMIT = 1 << 30
    one = 1

    def __init__(self, M: int, denominators=()):
        dens = set(denominators)
        p = (self.LIMIT - 2) // M * M + 1
        while not (_is_prime(p) and all(d % p for d in dens)):
            p -= M
            if p < 2:
                raise ParameterError(f"no prime field for root order {M}")
        cofactors = [M // q for q in prime_factors(M)]
        g = 2
        while True:
            zeta = pow(g, (p - 1) // M, p)
            if all(pow(zeta, c, p) != 1 for c in cofactors):
                break
            g += 1
        self.p, self.M, self.zeta = p, M, zeta
        self._powers = [pow(zeta, e, p) for e in range(M)]

    @classmethod
    def for_scalars(cls, scalars) -> "PrimeField":
        """The F_p that every `Cyclo` in `scalars` maps into: M is the lcm of
        their orders, and p divides none of their denominators."""
        M, dens = 1, set()
        for c in scalars:
            M = lcm(M, c.order)
            dens.add(c.den)
        return cls(M, dens)

    def normalize(self, vec: dict) -> dict:
        """vec with its entries reduced mod p and the zeros dropped."""
        p = self.p
        return {key: r for key, c in vec.items() if (r := c % p)}

    def axpy(self, target: dict, src: dict, c: int) -> None:
        """target += c * src mod p, dropping cancelled entries."""
        p = self.p
        get = target.get
        for col, val in src.items():
            new = (get(col, 0) + val * c) % p
            if new:
                target[col] = new
            else:
                target.pop(col, None)

    def neg(self, a: int) -> int:
        return -a % self.p

    def inverse(self, a: int) -> int:
        return pow(a, -1, self.p)

    def coerce(self, c: Cyclo | int) -> int:
        """The image of c: sum of num[i] * zeta^(i * M / order), over den."""
        if type(c) is int:
            return c % self.p
        if self.M % c.order:
            raise ParameterError(f"order {c.order} does not divide {self.M}")
        p, step = self.p, self.M // c.order
        total = sum(x * self._powers[i * step] for i, x in enumerate(c.num) if x)
        return total * pow(c.den, -1, p) % p


class SpanBuilder:
    """Incremental row space in echelon form: one row per pivot column, where
    the pivot is the row's smallest column and has coefficient 1.

    With full_reduce (the default) the rows are in reduced echelon form at all
    times: no row has an entry at another row's pivot column.  So `reduce`
    clears the pivot columns of a vector in one pass, since clearing one brings
    in no other, and `add` clears the new pivot column from the stored rows.
    Without it, `reduce` follows the leading entry down a chain of pivots and
    `add` stores the residual as it is, so rows keep entries at later pivot
    columns; the generic ideal span of `auslander` takes that cheaper form."""

    def __init__(self, full_reduce: bool = True, field=EXACT):
        self.rows: dict[int, dict] = {}  # pivot column -> row
        self.full_reduce = full_reduce
        self.field = field

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, vec: dict) -> dict:
        """Residual of vec against the current span (vec is not modified).
        With full_reduce it has no entry at any pivot column; otherwise only
        its smallest column is not a pivot."""
        axpy, neg, rows = self.field.axpy, self.field.neg, self.rows
        v = dict(vec)
        if self.full_reduce:
            # no row has an entry at another's pivot: clearing one brings in no other
            for piv in [c for c in v if c in rows]:
                axpy(v, rows[piv], neg(v[piv]))
            return v
        while v:
            piv = min(v)
            row = rows.get(piv)
            if row is None:
                return v
            axpy(v, row, neg(v[piv]))
        return v

    def add(self, vec: dict) -> bool:
        """Insert vec; True iff the rank increased."""
        v = self.reduce(vec)
        if not v:
            return False
        field = self.field
        piv = min(v)
        unit: dict = {}
        field.axpy(unit, v, field.inverse(v[piv]))
        v = unit
        if self.full_reduce:
            for row in self.rows.values():
                if piv in row:
                    field.axpy(row, v, field.neg(row[piv]))
        self.rows[piv] = v
        return True

    def contains(self, vec: dict) -> bool:
        return not self.reduce(vec)

    def basis(self) -> list[dict]:
        return [self.rows[p] for p in sorted(self.rows)]


def rref(rows: list[dict], field=EXACT, rank: int | None = None) -> tuple[list[dict], list[int]]:
    """Reduced row echelon form of the span of sparse rows: (rows, pivot columns),
    pivots ascending.  Each row has a 1 at its pivot and nothing at any other
    pivot column, so the result depends only on the span.

    Given `rank`, the rows are read only until the span reaches that rank; no
    later row is read.  When the caller knows that the span of all the rows has
    rank at most `rank`, every later row lies in the span already read, so the
    result is that of all the rows."""
    span = SpanBuilder(field=field)
    for row in rows:
        if span.rank == rank:
            break
        span.add(row)
    return span.basis(), sorted(span.rows)


def nullspace(rows: list[dict], ncols: int) -> list[list[Cyclo]]:
    """Basis of {x : M x = 0} for the matrix M with sparse rows and ncols
    columns: one dense vector per free column."""
    zero = Cyclo.zero()
    one = Cyclo.one()
    red, pivots = rref(rows)
    pivset = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivset:
            continue
        vec = [zero] * ncols
        vec[free] = one
        for row, p in zip(red, pivots):
            val = row.get(free)
            if val is not None:
                vec[p] = -val
        basis.append(vec)
    return basis
