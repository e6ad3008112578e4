import random

import pytest

from skewinv.auslander import (
    GH_element,
    SmashContext,
    SmashElt,
    _ideal_dims_characters,
    _ideal_dims_generic,
    _smash_degree,
    finite_dim_witness,
    gbar,
    ideal_contains,
    ideal_dims,
    smash_context,
    smash_from_algebra,
    smash_from_group,
    smash_mul,
    verify_GH_identities,
)
from skewinv.errors import ParameterError
from skewinv.group_actions import GroupSpec
from skewinv.linalg import SpanBuilder
from skewinv.scalars import Cyclo
from skewinv.skew_algebra import AlgebraElt, AlgebraSpec, mul

QM1 = AlgebraSpec.quantum(Cyclo.from_rational(-1))
Q5 = AlgebraSpec.quantum(Cyclo.root(5))
JORDAN = AlgebraSpec.jordan()
COMM = AlgebraSpec.commutative()


# The oracle: the unsplit span of all of (A # G)_d, with its right-closure
# worklist, which the split span of `auslander._ideal_dims_generic` replaced.
def _vectorize(x: SmashElt, d: int) -> dict[int, Cyclo]:
    out: dict[int, Cyclo] = {}
    for gi, a in x.terms.items():
        for mon, c in a.terms.items():
            out[gi * (d + 1) + mon.i] = c
    return out


def _ideal_rows_generic(spec: AlgebraSpec, ctx: SmashContext, seed: SmashElt, e: int, N: int):
    """Yield (degree, span builder, independent rows) for 0 <= d <= N.

    Per degree: lifts u * I_(d-1) + v * I_(d-1) of the previous rows, plus the
    right-kG-module closure of (kG seed) * A_(d-e), where the closure is taken
    by right multiplication with the group generators (a worklist; exact since
    the generators generate kG as an algebra).
    """
    G = ctx.G
    gen_indices = [ctx.index[key] for key in G.generator_keys()]
    # basis of the span of left group translates of the seed
    left_span = SpanBuilder(full_reduce=False)
    left_reps: list[SmashElt] = []
    for gi in range(ctx.order):
        cand = smash_mul(G, smash_from_group(G, gi), seed)
        if left_span.add(_vectorize(cand, e)):
            left_reps.append(cand)
    u = AlgebraElt.monomial(1, 1, 0)
    v = AlgebraElt.monomial(1, 0, 1)
    prev_rows: list[SmashElt] = []
    for d in range(N + 1):
        span = SpanBuilder(full_reduce=False)
        ambient = ctx.order * (d + 1)
        rows: list[SmashElt] = []
        worklist: list[SmashElt] = []

        def add(x: SmashElt, close: bool):
            if x.is_zero() or span.rank == ambient:
                return
            if span.add(_vectorize(x, d)):
                rows.append(x)
                if close:
                    worklist.append(x)

        for b in prev_rows:
            add(SmashElt(ctx, {gi: mul(spec, u, a) for gi, a in b.terms.items()}), False)
            add(SmashElt(ctx, {gi: mul(spec, v, a) for gi, a in b.terms.items()}), False)
        if d >= e:
            for rep in left_reps:
                for i in range(d - e + 1):
                    mono = AlgebraElt.monomial(1, i, d - e - i)
                    add(smash_mul(G, rep, smash_from_algebra(G, mono)), True)
            while worklist:
                x = worklist.pop()
                for gi in gen_indices:
                    add(smash_mul(G, x, smash_from_group(G, gi)), True)
        yield d, span, rows
        prev_rows = rows


def _unsplit_dims(spec: AlgebraSpec, ctx: SmashContext, seed: SmashElt, e: int, N: int):
    """Yields the rank of I_d for 0 <= d <= N (the reference for the fast paths)."""
    for _, span, _ in _ideal_rows_generic(spec, ctx, seed, e, N):
        yield span.rank


def _unsplit_contains(spec: AlgebraSpec, G: GroupSpec, seed: SmashElt, x: SmashElt) -> bool:
    """Exact membership of x in the two-sided ideal of seed (generic span path)."""
    ctx = smash_context(G)
    d = _smash_degree(x)
    if d is None:
        raise ParameterError("membership test needs a homogeneous element")
    e = _smash_degree(seed)
    for dd, span, _ in _ideal_rows_generic(spec, ctx, seed, e, d):
        if dd == d:
            return span.contains(_vectorize(x, d))
    return False


def test_smash_mul_twist():
    # (u g)(v e) = w3^{-1} uv g for g = diag(w3, w3^{-1})
    G = GroupSpec.gnk(3, 1)
    ctx = smash_context(G)
    w = Cyclo.root(6)  # root order 2nk = 6
    gidx = ctx.index[next(key for m, key in ctx.elements if key[0] and key[1] == 2)]
    x = SmashElt(ctx, {gidx: AlgebraElt.monomial(1, 1, 0)})
    y = smash_from_algebra(G, AlgebraElt.monomial(1, 0, 1))
    out = smash_mul(G, x, y)
    # g.v = w^{-2} v, so the product is w^{-2} uv g (w^2 is the primitive cube root)
    assert out == SmashElt(ctx, {gidx: AlgebraElt.monomial(w ** -2, 1, 1)})


def test_group_algebra_embeds():
    G = GroupSpec.gnk(3, 1)
    ctx = smash_context(G)
    for gi in (0, 1, 3):
        for hi in (0, 2, 5):
            prod = smash_mul(G, smash_from_group(G, gi), smash_from_group(G, hi))
            assert prod == smash_from_group(G, ctx.mult[gi][hi])


def test_gbar_terms_and_absorption():
    G = GroupSpec.gnk(3, 1)
    gb = gbar(G)
    assert len(gb.terms) == 6
    assert all(a == AlgebraElt.one() for a in gb.terms.values())
    assert smash_mul(G, gb, gb) == gb.scale(6)


def test_smash_mul_associativity_random():
    rng = random.Random(17)
    for G in (GroupSpec.gnk(3, 2), GroupSpec.cyclic(5, 2, Q5), GroupSpec.cyclic(3, 1, JORDAN)):
        ctx = smash_context(G)
        def rand_elt():
            terms = {}
            for _ in range(2):
                gi = rng.randrange(ctx.order)
                a = AlgebraElt.monomial(rng.randint(-2, 2), rng.randint(0, 2), rng.randint(0, 2))
                terms[gi] = terms.get(gi, AlgebraElt.zero()) + a
            return SmashElt(ctx, terms)

        for _ in range(8):
            x, y, z = rand_elt(), rand_elt(), rand_elt()
            assert smash_mul(G, smash_mul(G, x, y), z) == smash_mul(G, x, smash_mul(G, y, z))


def test_mixed_group_specs_rejected():
    x = gbar(GroupSpec.gnk(3, 1))
    y = gbar(GroupSpec.gnk(5, 1))
    with pytest.raises(ParameterError):
        smash_mul(GroupSpec.gnk(3, 1), x, y)


def test_gh_split_and_sum():
    for n, k in ((3, 1), (5, 3), (3, 5)):
        G = GroupSpec.gnk(n, k)
        assert GH_element(G, 0, "G") + GH_element(G, 0, "H") == gbar(G)
        total = None
        for l in range(n * k):
            t = GH_element(G, l, "G")
            total = t if total is None else total + t
        assert total == smash_from_algebra(G, AlgebraElt.monomial(n * k, 0, 0))


def test_gh_shift_identities_small():
    G = GroupSpec.gnk(3, 1)
    u = smash_from_algebra(G, AlgebraElt.monomial(1, 1, 0))
    assert smash_mul(G, GH_element(G, 0, "G"), u) == smash_mul(G, u, GH_element(G, 1, "G"))
    for n, k in ((3, 1), (5, 3)):
        Gg = GroupSpec.gnk(n, k)
        nk = n * k
        for l in (0, 1, 2):
            assert GH_element(Gg, l + nk, "H") == GH_element(Gg, l, "H").scale((-1) ** n)


def test_ideal_dims_trivial_group_unit_seed():
    G = GroupSpec.cyclic(1, 0, Q5)
    seed = smash_from_algebra(G, AlgebraElt.one())
    rep = ideal_dims(Q5, G, seed, 6)
    for row in rep["per_degree"]:
        assert row["ideal_dim"] == row["ambient_dim"]


def test_ideal_dims_cyclic_full_from_thm_bound():
    for n, a in ((3, 1), (4, 3), (5, 2)):
        G = GroupSpec.cyclic(n, a, Q5)
        rep = ideal_dims(Q5, G, gbar(G), 2 * (n - 1) + 4)
        for row in rep["per_degree"]:
            if row["degree"] >= 2 * (n - 1):
                assert row["ideal_dim"] == row["ambient_dim"]


def test_ideal_contains_u4v4_gnk31():
    G = GroupSpec.gnk(3, 1)
    x = smash_from_algebra(G, AlgebraElt.monomial(1, 4, 4))
    assert ideal_contains(QM1, G, gbar(G), x)


def _u_times_g(G):
    """The degree-1 seed u * g for the first group generator g."""
    ctx = smash_context(G)
    g = ctx.index[G.generator_keys()[0]]
    return SmashElt(ctx, {g: AlgebraElt.monomial(1, 1, 0)})


# The cross-check reads the raw per-degree ranks of each path, past the first
# full degree, without the early stop of ideal_dims.  The character path needs
# no condition on (n, k): the cases include n even, gcd(n, k) > 1, the
# degenerate pairs (G_(2,4) is G_(1,4), G_(6,4) is G_(3,4)) and dihedral groups.
CHARACTER_CASES = [
    (QM1, GroupSpec.gnk(3, 1), 12),
    (QM1, GroupSpec.gnk(1, 4), 10),
    (QM1, GroupSpec.gnk(5, 1), 10),
    (QM1, GroupSpec.gnk(3, 2), 9),
    (QM1, GroupSpec.gnk(5, 3), 7),
    (QM1, GroupSpec.gnk(3, 4), 7),
    (QM1, GroupSpec.gnk(2, 4), 12),
    (QM1, GroupSpec.gnk(6, 4), 6),
    (QM1, GroupSpec.gnk(2, 1), 10),
    (QM1, GroupSpec.gnk(4, 1), 8),
    (QM1, GroupSpec.gnk(2, 3), 8),
    (QM1, GroupSpec.gnk(4, 3), 6),
    (QM1, GroupSpec.gnk(3, 3), 7),
    (Q5, GroupSpec.cyclic(3, 1, Q5), 9),
    (Q5, GroupSpec.cyclic(4, 3, Q5), 9),
    (QM1, GroupSpec.cyclic(5, 2, QM1), 9),
    (Q5, GroupSpec.cyclic(6, 1, Q5), 9),
    (COMM, GroupSpec.dihedral(3, 2), 7),
    (COMM, GroupSpec.dihedral(4, 3), 7),
]


@pytest.mark.parametrize(
    "spec,G,N",
    CHARACTER_CASES,
    ids=["gnk_3_1", "gnk_1_4", "gnk_5_1", "gnk_3_2", "gnk_5_3", "gnk_3_4", "gnk_2_4",
         "gnk_6_4", "gnk_2_1", "gnk_4_1", "gnk_2_3", "gnk_4_3", "gnk_3_3", "cyclic_3_1_q5",
         "cyclic_4_3_q5", "cyclic_5_2_qm1", "cyclic_6_1_q5", "dihedral_3_2", "dihedral_4_3"],
)
def test_character_path_matches_generic(spec, G, N):
    fast = list(_ideal_dims_characters(spec, G, N))
    assert fast == list(_ideal_dims_generic(spec, smash_context(G), gbar(G), 0, N))


def _gh(kind, l):
    def seed_of(G):
        return GH_element(G, l, kind)

    seed_of.__name__ = f"{kind}_{l}"
    return seed_of


# The split span against the unsplit oracle: every CHARACTER_CASES group, at
# an N where the oracle takes at most 0.3 s and, where it can, past the first
# full degree; Jordan 1/n(1,1) for n = 2..6; the trivial group; and on G_(3,1)
# the seeds gbar, u g and the degree-0 G_1 and H_1.
SPLIT_GRID = [
    (spec, G, gbar, N) for (spec, G, _), N in zip(
        CHARACTER_CASES, (6, 8, 7, 5, 2, 2, 8, 2, 6, 6, 4, 2, 3, 5, 5, 6, 7, 6, 4))
] + [
    (JORDAN, GroupSpec.cyclic(n, 1, JORDAN), gbar, n + 1) for n in range(2, 7)
] + [
    (Q5, GroupSpec.cyclic(1, 0, Q5), gbar, 3),
    (QM1, GroupSpec.gnk(3, 1), _u_times_g, 4),
    (QM1, GroupSpec.gnk(3, 1), _gh("G", 1), 4),
    (QM1, GroupSpec.gnk(3, 1), _gh("H", 1), 4),
]


@pytest.mark.parametrize(
    "spec,G,seed_of,N", SPLIT_GRID,
    ids=[f"{G.describe()}_{spec.describe()}_{seed_of.__name__}" for spec, G, seed_of, _ in
         SPLIT_GRID],
)
def test_split_span_matches_unsplit(spec, G, seed_of, N):
    seed = seed_of(G)
    ctx = smash_context(G)
    e = _smash_degree(seed)
    split = list(_ideal_dims_generic(spec, ctx, seed, e, N))
    assert split == list(_unsplit_dims(spec, ctx, seed, e, N))


def test_ideal_contains_matches_unsplit():
    # the identity is not in <gbar> in degree 0 for G_(3,1), and neither is u;
    # gbar and u^4 v^4 are (4 is the first full degree)
    G = GroupSpec.gnk(3, 1)
    cases = [
        (smash_from_algebra(G, AlgebraElt.one()), False),
        (smash_from_algebra(G, AlgebraElt.monomial(1, 1, 0)), False),
        (gbar(G), True),
        (smash_from_algebra(G, AlgebraElt.monomial(1, 4, 4)), True),
    ]
    for x, member in cases:
        assert ideal_contains(QM1, G, gbar(G), x) is member
        assert _unsplit_contains(QM1, G, gbar(G), x) is member


@pytest.mark.parametrize(
    "spec,G,seed_of,N,method",
    [
        (Q5, GroupSpec.cyclic(4, 3, Q5), gbar, 8, "character_counting"),
        (QM1, GroupSpec.cyclic(5, 2, QM1), gbar, 9, "character_counting"),
        (QM1, GroupSpec.gnk(3, 1), gbar, 8, "gh_basis_graph"),
        (QM1, GroupSpec.gnk(3, 3), gbar, 7, "gh_basis_graph"),
        (QM1, GroupSpec.gnk(2, 4), gbar, 12, "gh_basis_graph"),
        (QM1, GroupSpec.gnk(6, 4), gbar, 6, "gh_basis_graph"),
        (COMM, GroupSpec.dihedral(3, 2), gbar, 7, "gh_basis_graph"),
        (QM1, GroupSpec.gnk(2, 1), gbar, 6, "generic_span"),
        (QM1, GroupSpec.gnk(4, 1), gbar, 4, "generic_span"),
        (QM1, GroupSpec.gnk(2, 3), gbar, 4, "generic_span"),
        (JORDAN, GroupSpec.cyclic(3, 1, JORDAN), gbar, 6, "generic_span"),
        (QM1, GroupSpec.gnk(3, 1), _u_times_g, 4, "generic_span"),
    ],
    ids=["cyclic_4_3_q5", "cyclic_5_2_qm1", "gnk_3_1", "gnk_3_3", "gnk_2_4", "gnk_6_4",
         "dihedral_3_2", "gnk_2_1_pinned", "gnk_4_1_pinned", "gnk_2_3_even", "jordan_3",
         "gnk_3_1_u_g"],
)
def test_ideal_dims_dispatch(spec, G, seed_of, N, method):
    # a gbar seed on a quantum plane takes the character path, except G_(n,k)
    # with n even (other than n = 2 mod 4, 4 | k) and seeds other than gbar
    report = ideal_dims(spec, G, seed_of(G), N)
    assert report["method"] == method
    if method != "generic_span":
        raw = list(_ideal_dims_characters(spec, G, N))
        assert [row["ideal_dim"] for row in report["per_degree"]] == raw


@pytest.mark.parametrize(
    "spec,G,seed_of,N",
    [
        (Q5, GroupSpec.cyclic(4, 3, Q5), gbar, 7),
        (JORDAN, GroupSpec.cyclic(3, 1, JORDAN), gbar, 6),
        (QM1, GroupSpec.gnk(3, 1), gbar, 8),
        (QM1, GroupSpec.gnk(3, 1), _u_times_g, 4),
    ],
    ids=["cyclic_4_3_q5", "jordan_3", "gnk_3_1", "gnk_3_1_u_g"],
)
def test_first_full_degree_certificate(spec, G, seed_of, N):
    # raw generic ranks: every degree after the first full one is full, and
    # ideal_dims, which stops at that degree, reports the same sequence
    seed = seed_of(G)
    ctx = smash_context(G)
    e = next(iter(seed.terms.values())).degree()
    raw = list(_ideal_dims_generic(spec, ctx, seed, e, N))
    ambient = [ctx.order * (d + 1) for d in range(N + 1)]
    s = next(d for d in range(N + 1) if raw[d] == ambient[d])
    assert N >= s + 3
    assert raw[s:] == ambient[s:]
    assert [row["ideal_dim"] for row in ideal_dims(spec, G, seed, N)["per_degree"]] == raw


def test_no_full_degree_computes_every_degree():
    G = GroupSpec.gnk(3, 2)
    raw = list(_ideal_dims_characters(QM1, G, 24))
    assert len(raw) == 25
    assert all(r < 12 * (d + 1) for d, r in enumerate(raw))
    assert [row["ideal_dim"] for row in ideal_dims(QM1, G, gbar(G), 24)["per_degree"]] == raw


def test_jordan_ideal_uses_generic_and_finds_witness():
    G = GroupSpec.cyclic(3, 1, JORDAN)
    rep = finite_dim_witness(JORDAN, G, 10)
    assert rep["method"] == "generic_span"
    assert rep["witness"] is not None and rep["witness"] <= 4


def test_witness_gnk31():
    rep = finite_dim_witness(QM1, GroupSpec.gnk(3, 1), 24)
    assert rep["found"] and rep["witness"] == 4


def test_witness_not_found_for_non_small():
    rep = finite_dim_witness(QM1, GroupSpec.gnk(3, 2), 24)
    assert not rep["found"]
    assert rep["witness"] is None


def test_monotone_coverage_fraction():
    dims = _ideal_dims_characters(QM1, GroupSpec.gnk(3, 1), 16)
    fracs = [r / (6 * (d + 1)) for d, r in enumerate(dims)]
    full_from = next(i for i, f in enumerate(fracs) if f == 1.0)
    assert all(f == 1.0 for f in fracs[full_from:])


def test_verify_gh_identities_small_pairs():
    for n, k in ((3, 1), (1, 3), (5, 3)):
        rep = verify_GH_identities(n, k, 2 * n * k)
        assert rep["ok"], rep["checks"]


def test_verify_gh_identities_rejects_bad_input():
    with pytest.raises(ParameterError):
        verify_GH_identities(3, 2, 5)
    with pytest.raises(ParameterError):
        verify_GH_identities(3, 9, 5)


def test_seed_must_be_homogeneous():
    # ideal_dims and ideal_contains reject the same seeds, each with its reason
    G = GroupSpec.gnk(3, 1)
    x = smash_from_algebra(G, AlgebraElt.monomial(1, 2, 2))
    mixed = smash_from_algebra(G, AlgebraElt.one() + AlgebraElt.monomial(1, 1, 0))
    zero = SmashElt(smash_context(G), {})
    foreign = gbar(GroupSpec.gnk(5, 1))
    cases = [(QM1, mixed, "homogeneous"), (QM1, zero, "homogeneous"),
             (QM1, foreign, "does not belong"), (Q5, gbar(G), "ambient algebra")]
    for spec, seed, reason in cases:
        with pytest.raises(ParameterError, match=reason):
            ideal_dims(spec, G, seed, 4)
        with pytest.raises(ParameterError, match=reason):
            ideal_contains(spec, G, seed, x)
    # and an element of another group's smash product
    with pytest.raises(ParameterError, match="different group specs"):
        ideal_contains(QM1, G, gbar(G), foreign)


def test_zero_lies_in_every_ideal():
    # 0 is a member whatever the seed, while a mixed-degree x stays rejected
    G = GroupSpec.gnk(3, 1)
    zero = SmashElt(smash_context(G), {})
    for seed in (gbar(G), smash_from_algebra(G, AlgebraElt.monomial(1, 2, 2))):
        assert ideal_contains(QM1, G, seed, zero)
    mixed = smash_from_algebra(G, AlgebraElt.one() + AlgebraElt.monomial(1, 1, 0))
    with pytest.raises(ParameterError, match="homogeneous"):
        ideal_contains(QM1, G, gbar(G), mixed)


def test_ideal_contains_ukvk_G0():
    # membership of u^k v^k G_0 re-derived by the ideal-span linear system
    for n, k in ((3, 1), (5, 3)):
        G = GroupSpec.gnk(n, k)
        x = smash_mul(
            G,
            smash_from_algebra(G, AlgebraElt.monomial(1, k, k)),
            GH_element(G, 0, "G"),
        )
        assert ideal_contains(QM1, G, gbar(G), x)
