"""Exact sparse linear algebra over Q(w_m): one elimination engine.

Vectors are dicts {column index: Cyclo} with no zero entries.  Pivoting is
always on the smallest column index, so reduced bases are deterministic.
`SpanBuilder` is the engine; `rref` and `nullspace` are built on it.
"""

from __future__ import annotations

from .scalars import Cyclo


def vec_add_scaled(target: dict, src: dict, c: Cyclo) -> None:
    """target += c * src, dropping cancelled entries."""
    for col, val in src.items():
        cur = target.get(col)
        new = val * c if cur is None else cur + val * c
        if new.is_zero():
            target.pop(col, None)
        else:
            target[col] = new


class SpanBuilder:
    """Incremental row space in echelon form: one row per pivot column, where
    the pivot is the row's smallest column and has coefficient 1.

    With full_reduce, a new row's pivot column is cleared from the rows already
    stored, but the new row keeps its entries at later pivot columns, so the
    rows are not in general reduced; `rref` returns the reduced form."""

    def __init__(self, full_reduce: bool = True):
        self.rows: dict[int, dict] = {}  # pivot column -> row
        self.full_reduce = full_reduce

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, vec: dict) -> dict:
        """Residual of vec against the current span (vec is not modified)."""
        v = dict(vec)
        while v:
            piv = min(v)
            row = self.rows.get(piv)
            if row is None:
                return v
            vec_add_scaled(v, row, -v[piv])
        return v

    def add(self, vec: dict) -> bool:
        """Insert vec; True iff the rank increased."""
        v = self.reduce(vec)
        if not v:
            return False
        piv = min(v)
        inv = v[piv].inverse()
        v = {c: val * inv for c, val in v.items()}
        if self.full_reduce:
            for row in self.rows.values():
                if piv in row:
                    vec_add_scaled(row, v, -row[piv])
        self.rows[piv] = v
        return True

    def contains(self, vec: dict) -> bool:
        return not self.reduce(vec)

    def basis(self) -> list[dict]:
        return [self.rows[p] for p in sorted(self.rows)]


def rref(rows: list[dict]) -> tuple[list[dict], list[int]]:
    """Reduced row echelon form of the span of sparse rows: (rows, pivot columns),
    pivots ascending.  Each row has a 1 at its pivot and nothing at any other
    pivot column, so the result depends only on the span."""
    span = SpanBuilder(full_reduce=False)
    for row in rows:
        span.add(row)
    pivots = sorted(span.rows)
    # back-substitute from the highest pivot down: the rows with higher pivots
    # are already reduced, so clearing them from p's row brings in no pivot column
    for p in reversed(pivots):
        row = span.rows[p]
        for q in [c for c in row if c != p and c in span.rows]:
            vec_add_scaled(row, span.rows[q], -row[q])
    return span.basis(), pivots


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
