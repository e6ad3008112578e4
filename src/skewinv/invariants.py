"""Invariant rings: fixed spaces, Molien series, generators, verification.

Fixed spaces, Molien series and generator walks read the group's exponent
keys, never its matrices: the diagonal subgroup's character numbers filter
the monomial basis, and the swap key (when G has one) pins down the
pairings between u^i v^j and u^j v^i.  `fixed_space` builds a basis of
A^G_d with one element per pair of `_fixed_pairs`, and `molien` counts those
pairs in closed form, from the lattice of exponents that D fixes.  The
generator walk stops each degree at that count: it ranks the products of
the generators found so far over F_p first, and decides over Q(w_m) only the
degrees where that rank falls short.  Generation is verified degree by
degree: the span of products of generators must have the Molien dimension
in every degree up to the bound, which a rank mod p certifies and the exact
span decides otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd

from .errors import InternalInconsistencyError, ParameterError
from .group_actions import (
    CyclicDiag,
    Gnk,
    GroupSpec,
    enumerate_group,
    is_small_brute,
    mono_mul,
)
from .hj_series import nc_series, typeA_data, typeD_data
from .linalg import EXACT, PrimeField, SpanBuilder
from .scalars import Cyclo, lcm
from .skew_algebra import (
    AlgebraElt,
    AlgebraSpec,
    Monomial,
    apply_aut,
    monomial_action,
    mul,
    mul_cols,
    power,
    reorder_rule,
    to_text,
)


def _check_acts(spec: AlgebraSpec, G: GroupSpec) -> None:
    """On a plane other than G's own, check that each element acts on it
    (`monomial_action` rejects a key that does not)."""
    if spec != G.ambient:
        for key in G.keys:
            monomial_action(spec, G.root_order, key)


def _fixed_pairs(spec: AlgebraSpec, G: GroupSpec, d: int):
    """(i, e) for each element of the degree-d fixed basis: u^i v^j, j = d - i,
    is fixed by the diagonal subgroup D (`G.char_number` 0), and with the
    antidiagonal t = `G.swap_key`, t(u^i v^j) = w^e u^j v^i by
    `monomial_action` over w_root_order.  Every other antidiagonal element is
    t delta with delta in D, so all give that ratio on a D-fixed monomial;
    t^2 lies in D, so t maps u^j v^i back by w^-e, and u^j v^i is D-fixed too
    (t normalizes D).  So for i < j the pair u^i v^j + w^e u^j v^i is fixed,
    and u^i v^i is when e = 0; e is None when G = D."""
    char = G.char_number
    t = G.swap_key
    if t is None:
        yield from ((i, None) for i in range(d + 1) if not char(i, d - i))
        return
    m = G.root_order
    _, ea, eb, ec = monomial_action(spec, m, t)
    for i in range(d // 2 + 1):
        j = d - i
        if not char(i, j):
            e = (ea * i + eb * j + ec * i * j) % m
            if i < j or e == 0:
                yield i, e


def fixed_space(spec: AlgebraSpec, G: GroupSpec, d: int) -> list[AlgebraElt]:
    """Canonical basis of A^G_d (ascending (i,j)-lex pivots), one element per
    pair of `_fixed_pairs`.  G permutes the monomial lines, so A^G_d is
    spanned by the group averages of monomials; one that D does not fix
    averages to 0, and a D-fixed one averages onto its orbit (itself or the
    pair t swaps), whose fixed elements are the multiples of the one listed.
    Distinct smallest monomials make the list independent."""
    if d < 0:
        raise ParameterError("degree must be non-negative")
    _check_acts(spec, G)
    basis: list[AlgebraElt] = []
    for i, e in _fixed_pairs(spec, G, d):
        j = d - i
        terms = {Monomial(i, j): Cyclo.one()}
        if e is not None and i < j:
            terms[Monomial(j, i)] = Cyclo.root(G.root_order, e)
        basis.append(AlgebraElt(terms))
    return basis


def molien(spec: AlgebraSpec, G: GroupSpec, N: int) -> list[int]:
    """hilb A^G truncated at N, as the ints dim A^G_0 .. dim A^G_N: the
    number of pairs of `_fixed_pairs` in each degree, since `fixed_space`
    builds one basis element of A^G_d from each, counted in O(1) a degree.

    With (a, b), (0, c) the basis of `G.fixed_lattice`, u^i v^(d-i) is
    D-fixed iff i = a t with t (a + b) = d (mod c).  With g = gcd(a + b, c),
    that has a solution only when g | d, and then the solutions are one class
    of t mod c/g, so the D-fixed i in a range are an arithmetic progression.
    Without a swap key they are counted over 0 <= i <= d.  With one, over
    i < d/2, plus the middle monomial i = d/2 when it is D-fixed and the swap
    scales it by w^0, exactly as `_fixed_pairs` decides.  No root of unity is
    built; the tests hold the count against `_fixed_pairs` and against the
    group average of the trace series."""
    _check_acts(spec, G)
    a, b, c = G.fixed_lattice
    g = gcd(a + b, c)
    step = c // g
    inverse = pow((a + b) // g, -1, step)
    swap = G.swap_key
    if swap is not None:
        m, char = G.root_order, G.char_number
        _, ea, eb, ec = monomial_action(spec, m, swap)
    series = []
    for d in range(N + 1):
        if d % g:
            series.append(0)
            continue
        first = d // g * inverse % step  # the least t >= 0 of the class
        top = (d if swap is None else (d - 1) // 2) // a  # the largest t in range
        count = (top - first) // step + 1 if top >= first else 0
        if swap is not None and d % 2 == 0:
            i = d // 2
            if not char(i, i) and ((ea + eb) * i + ec * i * i) % m == 0:
                count += 1
        series.append(count)
    return series


def reynolds(spec: AlgebraSpec, G: GroupSpec, a: AlgebraElt, normalized: bool = True) -> AlgebraElt:
    """Group sum of the orbit of a (divided by |G| when normalized)."""
    _check_acts(spec, G)
    elems = enumerate_group(G)
    total = AlgebraElt.zero()
    for g in elems:
        total = total + apply_aut(spec, g, a)
    if normalized:
        return total.scale(Fraction(1, len(elems)))
    return total


def is_invariant(spec: AlgebraSpec, G: GroupSpec, a: AlgebraElt) -> bool:
    m = G.root_order
    return all(apply_aut(spec, (m, key), a) == a for key in G.generator_keys())


# ---------------------------------------------------------------------------
# generator sets
# ---------------------------------------------------------------------------


@dataclass
class GeneratorSet:
    generators: list[AlgebraElt]
    degrees: list[int]
    provenance: str  # typeA_formula | jordan_formula | nc_formula | brute_force

    def to_json(self) -> dict:
        return {
            "provenance": self.provenance,
            "degrees": self.degrees,
            "generators": [to_text(g) for g in self.generators],
        }


def _uv_power(spec: AlgebraSpec, r: int) -> AlgebraElt:
    return power(spec, AlgebraElt.monomial(1, 1, 1), r)


def _paired(spec: AlgebraSpec, e: int, sign_exp: int, r: int) -> AlgebraElt:
    """(u^e + (-1)^sign_exp v^e) (uv)^r."""
    head = AlgebraElt({Monomial(e, 0): 1, Monomial(0, e): (-1) ** sign_exp})
    return mul(spec, head, _uv_power(spec, r))


def _from_exponents(spec: AlgebraSpec, exponents) -> list[AlgebraElt]:
    """(uv)^r for each (r,), and `_paired` for each (e, sign_exp, r)."""
    return [_uv_power(spec, *exps) if len(exps) == 1 else _paired(spec, *exps) for exps in exponents]


def _nc_generators(spec: AlgebraSpec, n: int, k: int) -> list[AlgebraElt]:
    return _from_exponents(spec, nc_series(n, k).generator_exponents())


def generator_set(spec: AlgebraSpec, G: GroupSpec) -> GeneratorSet:
    """Explicit generators of A^G for each classification case."""
    if spec.is_commutative:
        raise ParameterError("generator_set targets the noncommutative planes")
    if spec != G.ambient:
        raise ParameterError("group does not act on the requested algebra")
    if not is_small_brute(G):
        raise ParameterError(f"{G.describe()} is not small; no generator formula applies")
    v = G.variant
    if spec.kind == "jordan":
        n = v.n
        gens = [
            AlgebraElt.monomial(Fraction((-1) ** i, factorial(i)), n - i, i) for i in range(n + 1)
        ]
        gs = GeneratorSet(gens, [g.degree() for g in gens], "jordan_formula")
    elif isinstance(v, CyclicDiag):
        data = typeA_data(v.n, v.a)
        gens = [AlgebraElt.monomial(1, i, j) for i, j in data.generator_exponents()]
        gs = GeneratorSet(gens, [g.degree() for g in gens], "typeA_formula")
    elif isinstance(v, Gnk):
        n, k = v.n, v.k
        if n % 2 == 1 and k % 2 == 1 and (n, k) != (1, 1):
            gens = _nc_generators(spec, n, k)
            gs = GeneratorSet(gens, [g.degree() for g in gens], "nc_formula")
        else:
            gens = _brute_force_generators(spec, G)
            gs = GeneratorSet(gens, [g.degree() for g in gens], "brute_force")
    else:
        raise ParameterError(f"no generator formula for {G.describe()}")
    for g in gs.generators:
        if not is_invariant(spec, G, g):
            raise InternalInconsistencyError(
                f"constructed generator is not invariant: {to_text(g)}"
            )
    return gs


def _degree_cols(elt: AlgebraElt, field=EXACT) -> dict[int, Cyclo | int]:
    """Sparse coordinates of a homogeneous element in its degree's monomial
    basis (column i for u^i v^(d-i)), mapped into `field`, with the entries
    that vanish there dropped."""
    return field.normalize({mon.i: field.coerce(c) for mon, c in elt.terms.items()})


def _add_products(rule, spans: list[SpanBuilder], gens: list[tuple[dict, int]], d: int,
                  bound: int | None = None) -> None:
    """Add to spans[d] the products b * g, for (g, e) in gens with e <= d and b
    in spans[d - e], stopping once its rank reaches `bound` when one is given.

    Rows and generators are both column maps {i: c} of homogeneous elements
    (column i for u^i v^(deg - i)) over the spans' field, with no zero
    entries (a generator that vanishes there is skipped), and `rule` is the
    plane's `reorder_rule` over that field, so `mul_cols` writes each product
    as one column row of spans[d].

    On every plane v^j u^i = c_0 u^i v^j + (terms with a larger u-exponent),
    with c_0 = q^(ij), or 1 on the Jordan and commutative planes.  So the
    lowest column of b * g is min(b) + min(g), with the nonzero coefficient
    b_lo * g_lo * c_0.  Given a bound, the pairs whose product starts at a
    column where no row of spans[d] starts yet go first: each raises the rank,
    as no stored row can clear that column.  The other pairs follow, newest
    generator and highest row first.  Without a bound every product is ranked
    and the order saves nothing, so the pairs come in generator and row
    order.  The span of all the products, and so its reduced basis, does not
    depend on the order."""
    span = spans[d]
    normalize = span.field.normalize
    pairs = [(row, d - e, g) for g, e in gens if e <= d and g for row in spans[d - e].basis()]
    if bound is not None:
        starts = {min(row) for row in span.basis()}
        first, deferred = [], []
        for pair in pairs:
            col = min(pair[0]) + min(pair[2])
            (deferred if col in starts else first).append(pair)
            starts.add(col)
        pairs = first + deferred[::-1]
    for row, de, g in pairs:
        if span.rank == bound:
            return
        out: dict = {}
        mul_cols(rule, out, row, de, g)
        prod = normalize(out)
        if prod:
            span.add(prod)


def subalgebra_spans(
    spec: AlgebraSpec, gens: list[AlgebraElt], N: int, field=EXACT,
    bound: list[int] | None = None,
) -> list[SpanBuilder]:
    """Per-degree spans of the unital subalgebra generated by gens, degrees 0..N,
    over `field`, with the generator coefficients and q mapped into it.  Every
    product of a span row by a generator is ranked (`_add_products`).  Given
    `bound`, a list of counts through N, degree d stops once its rank reaches
    bound[d], so each span lies in the unbounded one; where every bound is at
    least the unbounded rank, as the Molien series of a group that fixes
    every generator is, the spans are the same.

    Over a `PrimeField` F_p reached from R = Z_(p)[w_M], with every coefficient
    and q in R, the degree-d span is the span of the reductions of all
    degree-d generator words: by induction on d, since reduction is a ring map
    and the plane's structure constants lie in R.  So its rank is at most the
    rank of the words over Q(w_M), the exact rank: a minor that is nonzero mod
    p is nonzero in R."""
    for g in gens:
        if g.is_zero() or not g.is_homogeneous():
            raise ParameterError("generators must be nonzero and homogeneous")
    spans = [SpanBuilder(field=field) for _ in range(N + 1)]
    spans[0].add({0: field.one})
    rule = reorder_rule(spec, field)
    cols = [(_degree_cols(g, field), g.degree()) for g in gens]
    for d in range(1, N + 1):
        _add_products(rule, spans, cols, d, None if bound is None else bound[d])
    return spans


def verify_generation(
    spec: AlgebraSpec, G: GroupSpec, gens: GeneratorSet, N: int
) -> dict:
    """Compare the span of products of generators with the Molien dimensions.

    The spans are first built over a `PrimeField` that every generator
    coefficient and q map into.  Their rank there is at most the exact rank
    (see `subalgebra_spans`), which is at most dim A^G_d, because products of
    invariants are invariant.  So an F_p rank equal to the Molien dimension in
    every degree through N proves the exact rank equal too
    ("certified_mod_p").  Otherwise the exact spans decide every span_dim and
    the first failure ("exact").  A rank above the Molien dimension, over
    either field, raises InternalInconsistencyError."""
    for g in gens.generators:
        if not is_invariant(spec, G, g):
            raise ParameterError(f"generator is not invariant: {to_text(g)}")
    target = molien(spec, G, N)
    scalars = [c for g in gens.generators for c in g.terms.values()]
    if spec.is_quantum:
        scalars.append(spec.q)
    for method, field in (("certified_mod_p", PrimeField.for_scalars(scalars)), ("exact", EXACT)):
        ranks = [span.rank for span in subalgebra_spans(spec, gens.generators, N, field)]
        over = next((d for d in range(N + 1) if ranks[d] > target[d]), None)
        if over is not None:
            raise InternalInconsistencyError(
                f"span dimension exceeds the invariant dimension at degree {over}"
            )
        if ranks == target:
            break
    first_failure = next((d for d in range(N + 1) if ranks[d] < target[d]), None)
    return {
        "ok": first_failure is None,
        "first_failure": first_failure,
        "N": N,
        "dims": [
            {"degree": d, "span_dim": ranks[d], "invariant_dim": target[d]} for d in range(N + 1)
        ],
        "span_method": method,
    }


def _brute_force_generators(spec: AlgebraSpec, G: GroupSpec) -> list[AlgebraElt]:
    """Deterministic degree-walk extraction: add fixed-space elements outside the
    current subalgebra span, in increasing degree and (i,j)-lex order.

    Products of invariants are invariant, so the span of products in degree
    d lies in A^G_d; once its rank is the Molien count it is all of A^G_d,
    and no fixed element is taken there.  Each degree first ranks the
    products over F_p, w_M -> zeta for M the lcm of the root order and the
    order of q: that rank is at most the exact rank (see `subalgebra_spans`),
    so when it reaches the count the degree is full, and the F_p span stops
    there.  Otherwise the products are ranked exactly, each generator of
    degree e times an exact basis of A^G_(d - e), which every earlier degree
    spans in full by the end of its step: the exact span where one was
    built, else `fixed_space(d - e)`.  The fixed elements outside that span
    are then taken greedily, and their reductions join the F_p span."""
    cap = max(2 * len(G.keys), 8)
    target = molien(spec, G, cap)
    M, dens = G.root_order, ()
    if spec.is_quantum:
        M, dens = lcm(M, spec.q.order), (spec.q.den,)
    field = PrimeField(M, dens)
    rule_p, rule = reorder_rule(spec, field), reorder_rule(spec)
    gens: list[AlgebraElt] = []
    cols: list[tuple[dict, int]] = []
    cols_p: list[tuple[dict, int]] = []
    screen = [SpanBuilder(field=field) for _ in range(cap + 1)]
    screen[0].add({0: 1})
    exact: list[SpanBuilder | None] = [None] * (cap + 1)
    for d in range(1, cap + 1):
        _add_products(rule_p, screen, cols_p, d, target[d])
        if screen[d].rank == target[d]:
            continue
        for _, e in cols:
            if exact[d - e] is None:
                exact[d - e] = full = SpanBuilder()
                for vec in fixed_space(spec, G, d - e):
                    full.add(_degree_cols(vec))
        span = exact[d] = SpanBuilder()
        _add_products(rule, exact, cols, d, target[d])
        for vec in fixed_space(spec, G, d):
            if span.rank == target[d]:
                break
            col = _degree_cols(vec)
            if span.add(col):
                gens.append(vec)
                cols.append((col, d))
                col_p = _degree_cols(vec, field)
                cols_p.append((col_p, d))
                screen[d].add(col_p)
        if span.rank != target[d]:
            raise InternalInconsistencyError(
                f"generator extraction falls short of Molien at degree {d} for {G.describe()}"
            )
    return gens


# ---------------------------------------------------------------------------
# the G_{n,k} fixed-space basis
# ---------------------------------------------------------------------------


def gnk_basis(n: int, k: int, d: int) -> list[AlgebraElt]:
    """Basis elements of (A^{G_{n,k}})_d for n, k odd coprime:
    (u^(ns) + (-1)^(r+ns) v^(ns)) (uv)^r over solutions of 2r + ns = kt,
    plus (uv)^(2ki) when d = 4ki."""
    if n < 1 or k < 1:
        raise ParameterError(f"gnk_basis needs positive n, k, got G_({n},{k})")
    if n % 2 == 0 or k % 2 == 0 or gcd(n, k) != 1:
        raise ParameterError("gnk_basis needs n, k odd and coprime")
    if d < 0:
        raise ParameterError("degree must be non-negative")
    spec = AlgebraSpec.quantum(Cyclo.from_rational(-1))
    if d == 0:
        return [AlgebraElt.one()]
    out: list[AlgebraElt] = []
    if d > 0 and d % (4 * k) == 0:
        out.append(_uv_power(spec, 2 * k * (d // (4 * k))))
    if d > 0 and d % k == 0:
        s = 1
        while n * s <= d:
            if (d - n * s) % 2 == 0:
                r = (d - n * s) // 2
                out.append(_paired(spec, n * s, r + n * s, r))
            s += 1
    return out


# ---------------------------------------------------------------------------
# the commutative correspondence theta
# ---------------------------------------------------------------------------


def theta_map(n: int, k: int) -> tuple[int, int]:
    """(m, q) with invariants of G_{n,k} matching those of D_{m,q}, for n >= 3."""
    if n < 3:
        raise ParameterError("theta_map needs n >= 3")
    if n % 2 == 1:
        if k % 2 != 0:
            raise ParameterError("n odd needs k even")
        return (n + k // 2, n)
    if k % 2 != 1:
        raise ParameterError("n even needs k odd")
    return (n // 2 + k, n // 2)


def eta_map(m: int, q: int) -> tuple[int, int]:
    """Inverse of theta_map."""
    if not (1 < q < m):
        raise ParameterError("eta_map needs 1 < q < m")
    if (m - q) % 2 == 0:
        return (q, 2 * (m - q))
    return (2 * q, m - q)


def theta_correspondence(n: int, k: int, N: int = 40) -> dict:
    """Identify the commutative quotient singularity matching A^{G_{n,k}}.

    Valid when the invariant ring is commutative (n or k even, coprime,
    k != 2 mod 4); returns the target group and series/degree evidence.
    """
    G = GroupSpec.gnk(n, k)  # rejects n < 1 or k < 1 before any parity is read
    if n % 2 == 1 and k % 2 == 1:
        raise ParameterError(f"G_({n},{k}) has noncommutative invariants (n, k both odd)")
    if gcd(n, k) != 1 or k % 4 == 2:
        raise ParameterError(f"G_({n},{k}) is outside the classified commutative cases")
    qm1 = G.ambient
    comm = AlgebraSpec.commutative()
    if n <= 2:
        order, weight = 2 * n * k, n * k + 1
        target = {"kind": "cyclic", "order": order, "weight": weight}
        target_group = GroupSpec.cyclic(order, weight, comm)
        target_degrees = sorted(typeA_data(order, weight).generator_degrees())
    else:
        m, q = theta_map(n, k)
        target = {"kind": "dihedral", "m": m, "q": q}
        target_group = GroupSpec.dihedral(m, q)
        target_degrees = sorted(typeD_data(m, q).generator_degrees())
    series_nk = molien(qm1, G, N)
    series_target = molien(comm, target_group, N)
    series_equal = series_nk == series_target
    gens = generator_set(qm1, G)
    degrees_equal = sorted(gens.degrees) == target_degrees
    evidence = {
        "N": N,
        "molien_equal": series_equal,
        "molien_gnk": series_nk,
        "generator_degrees_gnk": sorted(gens.degrees),
        "generator_degrees_target": target_degrees,
        "generator_degrees_equal": degrees_equal,
    }
    if n <= 2:
        evidence["intermediate_transforms_ok"] = _theta_intermediate_checks(n, k)
    if not (series_equal and degrees_equal):
        raise InternalInconsistencyError(
            f"theta evidence failed for G_({n},{k}): series {series_equal}, "
            f"degrees {degrees_equal}"
        )
    return {"source": {"n": n, "k": k}, "target": target, "evidence": evidence}


def _theta_intermediate_checks(n: int, k: int) -> bool:
    """The printed transformation laws of the intermediate x, y, z coordinates."""
    spec = AlgebraSpec.quantum(Cyclo.from_rational(-1))
    G = GroupSpec.gnk(n, k)
    m = G.root_order
    w = Cyclo.root(m)
    _, h = G.generator_keys()
    u2 = AlgebraElt.monomial(1, 2, 0)
    v2 = AlgebraElt.monomial(1, 0, 2)
    uv = AlgebraElt.monomial(2, 1, 1)
    if n == 1:
        # h^(k/2+1): x -> w^2 x, y -> w^2 y, z -> w^(k+2) z, with x = w^(k/2)(u^2-v^2)
        e = k // 2 + 1
        x = (u2 - v2).scale(w ** (k // 2))
    else:
        ell = k + 1 if k % 4 == 1 else 3 * k + 1
        e = ell // 2
        x = (u2 - v2).scale(w ** k)
    y, z = uv, u2 + v2
    hp = h
    for _ in range(e - 1):
        hp = mono_mul(hp, h, m)
    got_x = apply_aut(spec, (m, hp), x)
    got_y = apply_aut(spec, (m, hp), y)
    got_z = apply_aut(spec, (m, hp), z)
    z_scale = w ** (k + 2) if n == 1 else w ** (2 * k + 2)
    ok = (
        got_x == x.scale(w ** 2)
        and got_y == y.scale(w ** 2)
        and got_z == z.scale(z_scale)
    )
    # the sphere relation x^2 + y^2 + z^2 = 0 holds inside the (-1)-plane
    sphere = mul(spec, x, x) + mul(spec, y, y) + mul(spec, z, z)
    return ok and sphere.is_zero()
