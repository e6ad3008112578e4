from fractions import Fraction

import pytest
from conftest import spans_in_order
from hypothesis import given, settings
from hypothesis import strategies as st

from skewinv.errors import ParameterError
from skewinv.group_actions import GroupSpec
from skewinv import presentations
from skewinv.invariants import generator_set, molien, subalgebra_spans
from skewinv.linalg import EXACT, SpanBuilder
from skewinv.presentations import (
    FreeWord,
    Presentation,
    _prime_field,
    _QuotientDP,
    discover_relations,
    eval_relations,
    gnk73_presentation,
    jordan_presentation,
    quantum_presentation,
    truncated_quotient_dims,
    verify_presentation,
)
from skewinv.scalars import Cyclo
from skewinv.skew_algebra import AlgebraElt, AlgebraSpec

QM1 = AlgebraSpec.quantum(Cyclo.from_rational(-1))
JORDAN = AlgebraSpec.jordan()


def _relation_strings(pres):
    return {frozenset((str(c), w) for c, w in rel) for rel in pres.relations}


def test_jordan_presentation_n2_matches_display():
    pres = jordan_presentation(2)
    # ba + 2a^2 - ab, ca + 2ba + a^2 - ac, cb + b^2 - bc, b^2 - 2ac + ab
    expected = [
        [(1, (1, 0)), (2, (0, 0)), (-1, (0, 1))],
        [(1, (2, 0)), (2, (1, 0)), (1, (0, 0)), (-1, (0, 2))],
        [(1, (2, 1)), (1, (1, 1)), (-1, (1, 2))],
        [(1, (1, 1)), (-2, (0, 2)), (1, (0, 1))],
    ]
    got = _relation_strings(pres)
    want = {frozenset((str(Fraction(c)), w) for c, w in rel) for rel in expected}
    assert got == want
    assert len(pres.relations) == 4


def test_jordan_presentation_n3_matches_display():
    pres = jordan_presentation(3)
    expected = [
        [(1, (1, 0)), (3, (0, 0)), (-1, (0, 1))],
        [(1, (2, 0)), (3, (1, 0)), (3, (0, 0)), (-1, (0, 2))],
        [(1, (3, 0)), (3, (2, 0)), (3, (1, 0)), (1, (0, 0)), (-1, (0, 3))],
        [(1, (2, 1)), (2, (1, 1)), (1, (0, 1)), (-1, (1, 2)), (-1, (0, 2))],
        [(1, (3, 1)), (2, (2, 1)), (1, (1, 1)), (-1, (1, 3))],
        [(1, (3, 2)), (1, (2, 2)), (-1, (2, 3))],
        [(1, (1, 1)), (-2, (0, 2)), (2, (0, 1))],
        [(1, (1, 2)), (-3, (0, 3)), (1, (0, 2))],
        [(2, (2, 2)), (-3, (1, 3)), (2, (1, 2))],
    ]
    got = _relation_strings(pres)
    want = {frozenset((str(Fraction(c)), w) for c, w in rel) for rel in expected}
    assert got == want
    assert len(pres.relations) == 9


def test_jordan_relation_counts():
    # family 1 has C(n+1, 2) members; family 2 runs over 1 <= i <= j <= n-1,
    # which is C(n, 2) + 0 extra: the displays for n = 2, 3 pin 4 and 9 total
    for n in (2, 3, 4, 5):
        pres = jordan_presentation(n)
        fam1 = n * (n + 1) // 2
        fam2 = n * (n - 1) // 2
        assert len(pres.relations) == fam1 + fam2


def test_jordan_relations_vanish_under_y():
    for n in (2, 3, 4, 5):
        pres = jordan_presentation(n)
        gens = generator_set(JORDAN, GroupSpec.cyclic(n, 1, JORDAN))
        report = eval_relations(JORDAN, gens.generators, pres)
        assert report["all_vanish"]


def test_prop_54_both_sides_closed_form():
    # both sides equal ((-1)^(i+j)/(i! j!)) u^(2n-i-j) v^(i+j)
    from skewinv.scalars import gen_binomial
    from skewinv.skew_algebra import mul

    for n in range(2, 7):
        ys = generator_set(JORDAN, GroupSpec.cyclic(n, 1, JORDAN)).generators
        fact = [1]
        for x in range(1, n + 1):
            fact.append(fact[-1] * x)
        for i in range(n + 1):
            for j in range(i + 1, n + 1):
                lhs = AlgebraElt.zero()
                for k in range(j + 1):
                    c = gen_binomial(n - i, k)
                    if c:
                        lhs = lhs + mul(JORDAN, ys[j - k], ys[i]).scale(c)
                expected = AlgebraElt.monomial(
                    Fraction((-1) ** (i + j), fact[i] * fact[j]), 2 * n - i - j, i + j
                )
                assert lhs == expected


def test_prop_56_identity():
    from skewinv.skew_algebra import mul

    for n in range(2, 7):
        ys = generator_set(JORDAN, GroupSpec.cyclic(n, 1, JORDAN)).generators
        for i in range(1, n):
            for j in range(i, n):
                lhs = mul(JORDAN, ys[i], ys[j]).scale(i)
                rhs = mul(JORDAN, ys[i - 1], ys[j + 1]).scale(j + 1) - mul(
                    JORDAN, ys[i - 1], ys[j]
                ).scale(n - 1 - (j - i))
                assert lhs == rhs


def test_quantum_presentation_kleinian():
    q = Cyclo.root(5)
    pres = quantum_presentation(5, 4, q)
    # d = 3: commutation family C(3,2) = 3 plus one power relation, no third family
    assert len(pres.relations) == 4
    assert pres.gen_degrees == [5, 2, 5]


def test_quantum_presentation_commutation_exponent():
    q = Cyclo.root(7)
    pres = quantum_presentation(5, 2, q)
    from skewinv.hj_series import typeA_data

    data = typeA_data(5, 2)
    i_s, j_s = data.i_series, data.j_series
    # the first relations are x_l x_k - q^(i_k j_l - i_l j_k) x_k x_l
    idx = 0
    for k in range(1, data.d + 1):
        for l in range(k + 1, data.d + 1):
            rel = pres.relations[idx]
            idx += 1
            coeffs = {w: c for c, w in rel}
            e = i_s[k - 1] * j_s[l - 1] - i_s[l - 1] * j_s[k - 1]
            assert coeffs[(l - 1, k - 1)].is_one()
            assert coeffs[(k - 1, l - 1)] == -(q ** e)


def test_quantum_relations_vanish_under_monomials():
    for n, a, q in ((5, 2, Cyclo.root(5)), (7, 3, Cyclo.root(7)), (4, 1, Cyclo.root(3)), (8, 3, Cyclo.root(16))):
        spec = AlgebraSpec.quantum(q)
        pres = quantum_presentation(n, a, q)
        gens = generator_set(spec, GroupSpec.cyclic(n, a, spec))
        report = eval_relations(spec, gens.generators, pres)
        assert report["all_vanish"], (n, a)


def test_lemma_65_exponents_d5_case():
    # (8, 3) has d = 5, exercising the double-sum exponent with a nonempty middle
    from skewinv.hj_series import typeA_data

    assert typeA_data(8, 3).d == 5
    q = Cyclo.root(16)
    spec = AlgebraSpec.quantum(q)
    pres = quantum_presentation(8, 3, q)
    gens = generator_set(spec, GroupSpec.cyclic(8, 3, spec))
    assert eval_relations(spec, gens.generators, pres)["all_vanish"]


def test_gnk73_relations_vanish():
    pres = gnk73_presentation()
    gens = generator_set(QM1, GroupSpec.gnk(7, 3))
    report = eval_relations(QM1, gens.generators, pres)
    assert report["all_vanish"]


def test_eval_relations_detects_perturbation():
    pres = jordan_presentation(2)
    gens = generator_set(JORDAN, GroupSpec.cyclic(2, 1, JORDAN))
    broken = [list(rel) for rel in pres.relations]
    c0, w0 = broken[0][0]
    broken[0][0] = (c0 + 1, w0)
    bad = Presentation(pres.gen_degrees, broken, pres.gen_names)
    report = eval_relations(JORDAN, gens.generators, bad)
    assert not report["all_vanish"]
    assert not report["relations"][0]["vanishes"]


def test_eval_relations_degree_mismatch():
    pres = jordan_presentation(2)
    bad = [AlgebraElt.monomial(1, 1, 0)] * 3
    with pytest.raises(ParameterError):
        eval_relations(JORDAN, bad, pres)


def test_quotient_dims_free_algebra_one_generator():
    pres = Presentation([1], [[(1, (0, 0))]])  # x^2 = 0
    assert truncated_quotient_dims(pres, 5) == [1, 1, 0, 0, 0, 0]
    free = Presentation([1, 1], [[(1, (0, 1)), (-1, (1, 0))]])  # commutative on 2 vars
    assert truncated_quotient_dims(free, 5) == [1, 2, 3, 4, 5, 6]


def test_quotient_dims_jordan_n2():
    pres = jordan_presentation(2)
    dims = truncated_quotient_dims(pres, 12)
    assert dims == [1, 0, 3, 0, 5, 0, 7, 0, 9, 0, 11, 0, 13]


def quotient_dims_bruteforce(pres: Presentation, N: int) -> list[int]:
    """Oracle: materialize the sandwich span {w * rho * w'} per degree and take ranks."""
    words: list[list[FreeWord]] = [[()]]
    for d in range(1, N + 1):
        level: list[FreeWord] = []
        for g, e in enumerate(pres.gen_degrees):
            if e <= d:
                level.extend((g,) + w for w in words[d - e])
        words.append(level)
    dims = []
    for d in range(N + 1):
        index = {w: i for i, w in enumerate(words[d])}
        span = SpanBuilder(full_reduce=False)
        for ridx, rel in enumerate(pres.relations):
            r = pres.relation_degree(ridx)
            if r > d:
                continue
            for d1 in range(d - r + 1):
                for w1 in words[d1]:
                    for w2 in words[d - r - d1]:
                        vec = {}
                        for c, w in rel:
                            col = index[w1 + w + w2]
                            cur = vec.get(col)
                            new = c if cur is None else cur + c
                            if new.is_zero():
                                vec.pop(col, None)
                            else:
                                vec[col] = new
                        if vec:
                            span.add(vec)
        dims.append(len(words[d]) - span.rank)
    return dims


def test_quotient_dims_match_bruteforce_oracle():
    cases = [
        jordan_presentation(2),
        jordan_presentation(3),
        quantum_presentation(3, 2, Cyclo.root(3)),
        Presentation([1, 2], [[(1, (0, 0, 0))], [(1, (0, 1)), (1, (1, 0))]]),
    ]
    for pres in cases:
        N = 10
        assert truncated_quotient_dims(pres, N) == quotient_dims_bruteforce(pres, N)
    for pres in (jordan_presentation(4), quantum_presentation(7, 3, Cyclo.root(7))):
        assert truncated_quotient_dims(pres, 8) == quotient_dims_bruteforce(pres, 8)


_SMALL_COEFFS = st.sampled_from(
    [Cyclo.from_rational(x) for x in (1, -1, 2, -3)] + [Cyclo.root(3), -Cyclo.root(3)]
)


@st.composite
def _small_presentations(draw):
    """1-3 generators of degree 1-2 and 1-3 relations of degree 2-3, each with
    2-4 terms where the degree has that many words."""
    degrees = draw(st.lists(st.integers(1, 2), min_size=1, max_size=3))
    words: list[list[tuple]] = [[()]]
    for d in range(1, 4):
        words.append(
            [(g,) + w for g, e in enumerate(degrees) if e <= d for w in words[d - e]]
        )
    relations = []
    for _ in range(draw(st.integers(1, 3))):
        r = draw(st.sampled_from([d for d in (2, 3) if words[d]]))
        chosen = st.lists(st.sampled_from(words[r]), min_size=min(2, len(words[r])), max_size=4, unique=True)
        relations.append([(draw(_SMALL_COEFFS), w) for w in draw(chosen)])
    return Presentation(degrees, relations)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_small_presentations(), st.integers(3, 6))
def test_quotient_dims_match_bruteforce_random(pres, N):
    assert truncated_quotient_dims(pres, N) == quotient_dims_bruteforce(pres, N)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_small_presentations(), st.integers(3, 6))
def test_mod_p_quotient_dims_bound_the_exact_ones(pres, N):
    upper = truncated_quotient_dims(pres, N, _prime_field(pres))
    assert all(u >= q for u, q in zip(upper, truncated_quotient_dims(pres, N)))


def test_quotient_dims_monotone_under_extra_relation():
    pres = jordan_presentation(3)
    base = truncated_quotient_dims(pres, 15)
    # adding any (valid) relation never increases dimensions
    extra = Presentation(
        pres.gen_degrees,
        pres.relations + [[(1, (0, 0)), (-1, (0, 0))] + []],
        pres.gen_names,
    )
    # a trivially zero relation is rejected; use a consequence instead: multiply
    # the first relation by the first generator on the left
    lifted = [(c, (0,) + w) for c, w in pres.relations[0]]
    extra = Presentation(pres.gen_degrees, pres.relations + [lifted], pres.gen_names)
    assert truncated_quotient_dims(extra, 15) == base
    genuinely_new = Presentation(
        pres.gen_degrees, pres.relations + [[(1, (0, 0))]], pres.gen_names
    )
    dims_new = truncated_quotient_dims(genuinely_new, 15)
    assert all(a <= b for a, b in zip(dims_new, base))
    assert dims_new != base


def test_quotient_dims_detect_missing_relation():
    pres = jordan_presentation(2)
    dropped = Presentation(pres.gen_degrees, pres.relations[:-1], pres.gen_names)
    dims = truncated_quotient_dims(dropped, 8)
    full = truncated_quotient_dims(pres, 8)
    assert dims != full
    assert all(a >= b for a, b in zip(dims, full))


def test_verify_presentation_jordan():
    for n in (2, 3):
        G = GroupSpec.cyclic(n, 1, JORDAN)
        report = verify_presentation(JORDAN, G, jordan_presentation(n), 6 * n)
        assert report["ok"], report


def test_verify_presentation_quantum():
    q = Cyclo.root(5)
    spec = AlgebraSpec.quantum(q)
    G = GroupSpec.cyclic(5, 2, spec)
    report = verify_presentation(spec, G, quantum_presentation(5, 2, q), 30)
    assert report["ok"]


def test_verify_presentation_gnk73_short():
    G = GroupSpec.gnk(7, 3)
    report = verify_presentation(QM1, G, gnk73_presentation(), 40)
    assert report["ok"]


def test_presentation_json_round_trip():
    pres = quantum_presentation(5, 2, Cyclo.root(5))
    data = pres.to_json()
    back = Presentation.from_json(data)
    assert back.gen_degrees == pres.gen_degrees
    assert truncated_quotient_dims(back, 12) == truncated_quotient_dims(pres, 12)


def test_discover_relations_finds_dependencies():
    gens = generator_set(QM1, GroupSpec.gnk(7, 3)).generators
    rels = discover_relations(QM1, gens, 24)
    # degree 24 carries the relation ba + ab + 4d^2
    assert rels
    report = eval_relations(QM1, gens, Presentation([15, 9, 21, 12], rels))
    assert report["all_vanish"]


def test_presentation_rejects_inhomogeneous():
    with pytest.raises(ParameterError):
        Presentation([1, 2], [[(1, (0,)), (1, (1,))]])


def test_typeA_relations_hold_in_commutative_plane():
    # x_(k-1) x_(k+1) = x_k^beta_(k-1) for (5, 2) with q = 1
    from skewinv.hj_series import typeA_data
    from skewinv.skew_algebra import mul, power

    comm = AlgebraSpec.commutative()
    data = typeA_data(5, 2)
    xs = [AlgebraElt.monomial(1, i, j) for i, j in data.generator_exponents()]
    for k in range(2, data.d):
        lhs = mul(comm, xs[k - 2], xs[k])
        assert lhs == power(comm, xs[k - 1], data.beta[k - 2])


def test_quotient_dims_no_relations_single_generator():
    pres = Presentation([1], [])
    assert truncated_quotient_dims(pres, 6) == [1] * 7


def test_verify_presentation_quantum_7_2():
    q = Cyclo.root(7)
    spec = AlgebraSpec.quantum(q)
    G = GroupSpec.cyclic(7, 2, spec)
    report = verify_presentation(spec, G, quantum_presentation(7, 2, q), 40)
    assert report["ok"]


def _exact_report(spec, G, pres, N):
    """What verify_presentation reports from the exact quotient DP."""
    gens = generator_set(spec, G).generators
    evaluation = eval_relations(spec, gens, pres)
    quotient = truncated_quotient_dims(pres, N)
    target = molien(spec, G, N)
    mismatches = [d for d in range(N + 1) if quotient[d] != target[d]]
    return {
        "ok": evaluation["all_vanish"] and not mismatches,
        "relations_vanish": evaluation["all_vanish"],
        "evaluation": evaluation,
        "first_dimension_mismatch": mismatches[0] if mismatches else None,
        "quotient_dims": quotient,
        "invariant_dims": target,
        "N": N,
        "quotient_method": "exact",
    }


def _jordan3_variant(change):
    pres = jordan_presentation(3)
    rels = [list(rel) for rel in pres.relations]
    change(rels)
    return Presentation(pres.gen_degrees, rels, pres.gen_names)


def _scale_last_by_prime(rels):
    p = _prime_field(jordan_presentation(3)).p
    rels[-1] = [(c * p, w) for c, w in rels[-1]]


def _wrong_coefficient(rels):
    c, w = rels[0][0]
    rels[0][0] = (c + 1, w)


def _drop_last(rels):
    del rels[-1]


@pytest.mark.parametrize(
    "change", [_scale_last_by_prime, _wrong_coefficient, _drop_last],
    ids=["vanishes_mod_p", "relations_do_not_vanish", "relation_dropped"],
)
def test_verify_presentation_falls_back_to_exact(change):
    G = GroupSpec.cyclic(3, 1, JORDAN)
    pres = _jordan3_variant(change)
    report = verify_presentation(JORDAN, G, pres, 18)
    assert report == _exact_report(JORDAN, G, pres, 18)


def test_fallback_cases_break_the_bounds_they_target():
    # a relation times p is the same ideal over Q but vanishes mod p, so U_d > Q_d
    scaled = _jordan3_variant(_scale_last_by_prime)
    field = _prime_field(scaled)
    assert field.p == _prime_field(jordan_presentation(3)).p
    assert field.coerce(scaled.relations[-1][0][0]) == 0
    assert truncated_quotient_dims(scaled, 18) == truncated_quotient_dims(jordan_presentation(3), 18)
    assert truncated_quotient_dims(scaled, 18, field) != truncated_quotient_dims(scaled, 18)
    # a dropped relation leaves Q_d above the Molien dimension, which bounds L_d
    G = GroupSpec.cyclic(3, 1, JORDAN)
    dropped = _jordan3_variant(_drop_last)
    target = molien(JORDAN, G, 18)
    assert any(q > t for q, t in zip(truncated_quotient_dims(dropped, 18), target))


def _jordan_case(n):
    G = GroupSpec.cyclic(n, 1, JORDAN)
    return JORDAN, G, jordan_presentation(n), 6 * n


def _quantum_case(n, a, m):
    q = Cyclo.root(m)
    spec = AlgebraSpec.quantum(q)
    return spec, GroupSpec.cyclic(n, a, spec), quantum_presentation(n, a, q), 8 * n


# the criterion-3 fixtures of the presentations benchmark, and Jordan n = 5
DP_CASES = {
    "jordan2": lambda: _jordan_case(2),
    "jordan3": lambda: _jordan_case(3),
    "jordan4": lambda: _jordan_case(4),
    "jordan5": lambda: _jordan_case(5),
    "quantum5_2": lambda: _quantum_case(5, 2, 5),
    "quantum7_3": lambda: _quantum_case(7, 3, 7),
    "quantum4_1": lambda: _quantum_case(4, 1, 3),
    "gnk73": lambda: (QM1, GroupSpec.gnk(7, 3), gnk73_presentation(), 60),
}


# the seven criterion-3 fixtures
FIXTURES = {name: case for name, case in DP_CASES.items() if name != "jordan5"}


def _product_ranks(spec, G, N):
    """L_d: the exact rank of the generators' products in each degree through N."""
    return [span.rank for span in subalgebra_spans(spec, generator_set(spec, G).generators, N)]


@pytest.mark.parametrize("case", DP_CASES.values(), ids=DP_CASES.keys())
def test_quotient_dp_with_lower_bounds_keeps_its_state(case):
    spec, G, pres, N = case()
    lower = _product_ranks(spec, G, N)
    field = _prime_field(pres)
    plain, bounded = _QuotientDP(pres, field), _QuotientDP(pres, field)
    plain.extend_to(N)
    bounded.extend_to(N, lower)
    assert bounded.dims == plain.dims == lower
    assert bounded.pcols == plain.pcols


@pytest.mark.parametrize("case", FIXTURES.values(), ids=FIXTURES.keys())
def test_lead_first_spans_of_the_fixtures_match_the_in_order_spans(case):
    spec, G, _, N = case()
    gens = generator_set(spec, G).generators
    want = [s.basis() for s in spans_in_order(spec, gens, N, EXACT)]
    for bound in (None, molien(spec, G, N)):
        assert [s.basis() for s in subalgebra_spans(spec, gens, N, bound=bound)] == want


def _drop_one(pres):
    return [Presentation(pres.gen_degrees, pres.relations[:i] + pres.relations[i + 1:],
                         pres.gen_names) for i in range(len(pres.relations))]


@pytest.mark.parametrize("case", FIXTURES.values(), ids=FIXTURES.keys())
def test_quotient_dp_does_not_depend_on_the_row_order(case):
    # the reduced echelon form depends only on the span of the relation rows,
    # whatever the order of the relations and so of the rows of equal length;
    # at half the fixture's N, where the exact DP of a drop-one presentation
    # stays cheap
    _, _, full, N = case()
    orders = (list, lambda rels: sorted(rels, key=len), lambda rels: rels[::-1])
    for pres in [full] + _drop_one(full):
        for field in (EXACT, _prime_field(full)):
            states = []
            for order in orders:
                dp = _QuotientDP(pres, field)
                dp.relations = order([[(field.coerce(c), w) for c, w in rel]
                                      for rel in pres.relations])
                dp.extend_to(N // 2)
                states.append((dp.dims, dp.pcols))
            assert states[0] == states[1] == states[2]


@pytest.mark.parametrize("error", [-1, 1], ids=["count_too_small", "count_too_large"])
def test_verify_presentation_needs_no_molien_count(monkeypatch, error):
    # with one Molien count off by one the quotient dims are still the true
    # ones: a count too small caps the lower bound below the F_p dims, so the
    # exact DP decides, and a count too large caps nothing
    spec, G, pres, N = _jordan_case(3)
    honest = verify_presentation(spec, G, pres, N)
    assert honest["ok"] and honest["quotient_method"] == "certified_mod_p"
    wrong = 9
    assert honest["invariant_dims"][wrong] > 0

    def wrong_molien(spec, G, N):
        series = molien(spec, G, N)
        series[wrong] += error
        return series

    monkeypatch.setattr(presentations, "molien", wrong_molien)
    report = verify_presentation(spec, G, pres, N)
    assert report["quotient_dims"] == honest["quotient_dims"]
    assert report["quotient_method"] == ("exact" if error < 0 else "certified_mod_p")
    assert not report["ok"] and report["first_dimension_mismatch"] == wrong


def test_quotient_dp_reads_every_row_when_the_bound_is_not_reached(monkeypatch):
    G = GroupSpec.cyclic(4, 1, JORDAN)
    full = jordan_presentation(4)
    dropped = Presentation(full.gen_degrees, full.relations[:-1], full.gen_names)
    N = 16
    assert eval_relations(JORDAN, generator_set(JORDAN, G).generators, dropped)["all_vanish"]
    lower = _product_ranks(JORDAN, G, N)
    field = _prime_field(dropped)
    upper = truncated_quotient_dims(dropped, N, field)
    calls = []
    plain_rref = presentations.rref

    def spy(rows, field, rank=None):
        red, pivots = plain_rref(rows, field, rank)
        calls.append((rank, len(pivots)))
        return red, pivots

    monkeypatch.setattr(presentations, "rref", spy)
    assert truncated_quotient_dims(dropped, N, field, lower) == upper
    monkeypatch.undo()
    assert upper != lower
    # where U_d > L_d the stop is never reached, so every row is read
    assert any(got < rank for rank, got in calls)
    report = verify_presentation(JORDAN, G, dropped, N)
    assert report["quotient_method"] == "exact"
    assert report["quotient_dims"] == truncated_quotient_dims(dropped, N)
