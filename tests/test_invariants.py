import hashlib
import json
import random
import sys
from fractions import Fraction
from math import gcd

import pytest
from conftest import from_factors, key_matrix, spans_in_order, typeD_generators

from skewinv import group_actions, invariants, scalars
from skewinv.errors import InternalInconsistencyError, ParameterError
from skewinv.group_actions import (
    GroupSpec,
    RationalFunction,
    enumerate_group,
    is_small_brute,
)
from skewinv.invariants import (
    GeneratorSet,
    eta_map,
    fixed_space,
    generator_set,
    gnk_basis,
    is_invariant,
    molien,
    reynolds,
    subalgebra_spans,
    theta_correspondence,
    theta_map,
    verify_generation,
)
from skewinv.linalg import EXACT, PrimeField, SpanBuilder
from skewinv.scalars import Cyclo, euler_phi
from skewinv.skew_algebra import (
    AlgebraElt,
    AlgebraSpec,
    Monomial,
    monomial_action,
    mul,
    power,
    reorder_rule,
    to_text,
)

QM1 = AlgebraSpec.quantum(Cyclo.from_rational(-1))
Q5 = AlgebraSpec.quantum(Cyclo.root(5))
JORDAN = AlgebraSpec.jordan()
COMM = AlgebraSpec.commutative()


def uv_power(spec, r):
    return power(spec, AlgebraElt.monomial(1, 1, 1), r)


def test_fixed_space_below_minimal_degree():
    assert fixed_space(QM1, GroupSpec.gnk(3, 1), 1) == []


def test_fixed_space_minus_one_scalar():
    basis = fixed_space(QM1, GroupSpec.cyclic(2, 1, QM1), 2)
    assert len(basis) == 3
    assert [min(b.terms) for b in basis] == [Monomial(0, 2), Monomial(1, 1), Monomial(2, 0)]


def test_fixed_space_gnk73_degree9():
    basis = fixed_space(QM1, GroupSpec.gnk(7, 3), 9)
    assert len(basis) == 1
    expected = mul(QM1, AlgebraElt({(7, 0): 1, (0, 7): 1}), AlgebraElt.monomial(1, 1, 1))
    # canonical basis is pivot-normalized, so compare up to the leading coefficient
    lead = expected.terms[min(expected.terms)]
    assert basis[0] == expected.scale(lead.inverse())


def fixed_space_by_elements(spec, G, d):
    """Oracle: the fixed space from every element's matrix entries.  Diagonal
    elements filter the monomials; each antidiagonal h must send u^i v^j to
    one common multiple of u^j v^i."""
    elems = enumerate_group(G)
    diag_monos = [(m, e1, e2) for m, (diagonal, e1, e2) in elems if diagonal]
    others = [key_matrix(m, key) for m, key in elems if not key[0]]  # antidiagonal
    surviving = [
        (i, d - i)
        for i in range(d + 1)
        if all((e1 * i + e2 * (d - i)) % m == 0 for m, e1, e2 in diag_monos)
    ]
    if not others:
        return [AlgebraElt.monomial(1, i, j) for (i, j) in surviving]
    surv = set(surviving)
    q = spec.q
    basis = []
    for (i, j) in surviving:
        if (j, i) not in surv or i > j:
            continue
        # scalars s with h(u^i v^j) = s * u^j v^i, one per antidiagonal element
        ratios = []
        ok = True
        for h in others:
            s = (h.c ** i) * (h.b ** j) * (q ** (i * j))
            s_back = (h.c ** j) * (h.b ** i) * (q ** (i * j))
            if not (s.is_one() if i == j else (s * s_back).is_one()):
                ok = False
                break
            ratios.append(s)
        if not ok:
            continue
        if i == j:
            basis.append(AlgebraElt.monomial(1, i, i))
        elif all((r - ratios[0]).is_zero() for r in ratios[1:]):
            basis.append(AlgebraElt({Monomial(i, j): Cyclo.one(), Monomial(j, i): ratios[0]}))
    basis.sort(key=lambda e: min(e.terms))
    return basis


def test_fixed_space_matches_all_elements_oracle(family_groups):
    for G in family_groups:
        for d in range(25):
            got = [to_text(e) for e in fixed_space(G.ambient, G, d)]
            assert got == [to_text(e) for e in fixed_space_by_elements(G.ambient, G, d)], (G, d)


def test_molien_trivial_group():
    series = molien(Q5, GroupSpec.cyclic(1, 0, Q5), 6)
    assert series == [1, 2, 3, 4, 5, 6, 7]


def test_molien_example_half_1_1():
    series = molien(QM1, GroupSpec.cyclic(2, 1, QM1), 8)
    assert series == [1, 0, 3, 0, 5, 0, 7, 0, 9]
    rf = RationalFunction([1, 0, 1], [1, 0, -2, 0, 1])  # (1+t^2)/(1-t^2)^2
    assert rf.expand(8) == series


def test_molien_gnk73_closed_form():
    series = molien(QM1, GroupSpec.gnk(7, 3), 60)
    num = [0] * 52
    num[0], num[30], num[33], num[36], num[48], num[51] = 1, -1, -1, -1, 1, 1
    den = from_factors(
        [[1] + [0] * 14 + [-1], [1] + [0] * 8 + [-1], [1] + [0] * 20 + [-1], [1] + [0] * 11 + [-1]]
    ).den
    rf = RationalFunction(num, den)
    assert rf.expand(60) == series


def test_molien_counting_agrees_with_generic_sum():
    for G in (GroupSpec.gnk(3, 2), GroupSpec.cyclic(5, 2, Q5), GroupSpec.dihedral(3, 2)):
        fast = molien(G.ambient, G, 12)
        total = [Cyclo.zero()] * 13
        elems = enumerate_group(G)
        for g in elems:
            from skewinv.group_actions import trace_series

            s = trace_series(G.ambient, g, 12)
            total = [a + b for a, b in zip(total, s)]
        slow = [c * Fraction(1, len(elems)) for c in total]
        assert all((a - b).is_zero() for a, b in zip(fast, slow))


def summed_trace_counts(spec, G, d):
    """The exponent histogram over w_m of the sum of every element's degree-d
    trace, one `trace_counts` histogram per key."""
    m = G.root_order
    return list(map(sum, zip(*(group_actions.trace_counts(spec, m, key, d) for key in G.keys))))


def summed_traces_by_degree(spec, G, N):
    """The lists of `summed_trace_counts` for d = 0..N, from one running
    histogram per exponent b rather than one histogram per key and degree.

    By `monomial_action`, a key that keeps monomials scales u^i v^(d-i) by
    w^(b d + (a - b) i), so its degree-d exponents are its degree-(d-1)
    exponents plus b, and one more, a d.  The keys sharing b therefore share
    one histogram, rotated by b each degree.  A key that swaps monomials
    fixes only u^i v^i, d = 2i, with exponent (a + b) i + c i i.  Each
    histogram is packed into one int, 32 bits per exponent (no count reaches
    2^32), so that a rotation or a sum is a few int operations."""
    m = G.root_order
    full = (1 << 32 * m) - 1
    steps, swaps = {}, []
    for key in G.keys:
        swap, a, b, c = monomial_action(spec, m, key)
        if swap:
            swaps.append((a + b, c))
        else:
            steps.setdefault(b % m, []).append(a)
    packed = dict.fromkeys(steps, 0)
    for d in range(N + 1):
        total = 0
        for b, tops in steps.items():
            hist = packed[b]
            hist = ((hist << 32 * b) | (hist >> 32 * (m - b))) & full
            for a in tops:
                hist += 1 << 32 * (a * d % m)
            packed[b] = hist
            total += hist
        if d % 2 == 0:
            i = d // 2
            for s, c in swaps:
                total += 1 << 32 * ((s * i + c * i * i) % m)
        yield memoryview(total.to_bytes(4 * m, sys.byteorder)).cast("I").tolist()


def molien_by_traces(spec, G, N, histograms=None):
    """Oracle: hilb A^G as the group average of the trace series.  The traces
    of each degree are summed as one exponent histogram over w_m (by default
    `summed_trace_counts`) and reduced once; each average is a dimension, so
    it must come out an integer (the imaginary parts cancel and |G| divides
    the total)."""
    m = G.root_order
    if histograms is None:
        histograms = (summed_trace_counts(spec, G, d) for d in range(N + 1))
    coeffs = []
    for d, counts in enumerate(histograms):
        total = Cyclo.from_power_counts(m, counts)
        if not total.is_rational():
            raise InternalInconsistencyError(f"Molien coefficient at degree {d} is not rational")
        average = total.rational_value() / len(G.keys)
        if average.denominator != 1:
            raise InternalInconsistencyError(
                f"Molien coefficient at degree {d} is not an integer: {average}"
            )
        coeffs.append(average.numerator)
    return coeffs


def test_molien_rejects_an_average_that_is_not_an_integer(monkeypatch):
    G = GroupSpec.gnk(3, 2)
    first = G.keys[0]
    # a total of 1 over |G| = 12 elements, then a total of w_m
    monkeypatch.setattr(group_actions, "trace_counts", lambda spec, m, key, d: [int(key == first)])
    with pytest.raises(InternalInconsistencyError, match="not an integer"):
        molien_by_traces(G.ambient, G, 2)
    monkeypatch.setattr(group_actions, "trace_counts", lambda spec, m, key, d: [0, int(key == first)])
    with pytest.raises(InternalInconsistencyError, match="not rational"):
        molien_by_traces(G.ambient, G, 2)


def test_molien_counting_matches_trace_average_grid():
    # G_{n,k} with n, k <= 12, 1/n(1,a) on q = w3, w5, w7 for n <= 9, Jordan
    # 1/n(1,1) for n <= 7 and D_{m,q} on the commutative plane for m <= 13
    groups = [GroupSpec.gnk(n, k) for n in range(1, 13) for k in range(1, 13)]
    for m in (3, 5, 7):
        spec = AlgebraSpec.quantum(Cyclo.root(m))
        groups += [GroupSpec.cyclic(n, a, spec) for n in range(2, 10) for a in range(1, n)]
    groups += [GroupSpec.cyclic(n, 1, JORDAN) for n in range(2, 8)]
    groups += [GroupSpec.dihedral(m, q) for m in range(3, 14) for q in range(2, m) if gcd(m, q) == 1]
    assert len(groups) == 303
    for G in groups:
        totals = summed_traces_by_degree(G.ambient, G, 60)
        assert molien(G.ambient, G, 60) == molien_by_traces(G.ambient, G, 60, totals), G


def test_running_trace_histograms_match_trace_counts():
    groups = [GroupSpec.gnk(n, k) for n in range(1, 7) for k in range(1, 7)]
    groups += [GroupSpec.cyclic(n, a, Q5) for n in range(2, 8) for a in range(1, n)]
    groups += [GroupSpec.cyclic(n, 1, JORDAN) for n in range(2, 6)]
    groups += [GroupSpec.dihedral(m, q) for m in range(3, 8) for q in range(2, m) if gcd(m, q) == 1]
    for G in groups:
        fast = list(summed_traces_by_degree(G.ambient, G, 25))
        assert fast == [summed_trace_counts(G.ambient, G, d) for d in range(26)], G


@pytest.mark.parametrize(
    "G",
    [GroupSpec.gnk(12, 12), GroupSpec.gnk(12, 11), GroupSpec.gnk(11, 12),
     GroupSpec.cyclic(9, 8, AlgebraSpec.quantum(Cyclo.root(7))), GroupSpec.dihedral(13, 12)],
    ids=["gnk_12_12", "gnk_12_11", "gnk_11_12", "cyclic_9_8_w7", "dihedral_13_12"],
)
def test_running_trace_histograms_match_trace_counts_at_grid_extremes(G):
    # the grid's largest root orders, through the grid's own N = 60
    fast = list(summed_traces_by_degree(G.ambient, G, 60))
    assert fast == [summed_trace_counts(G.ambient, G, d) for d in range(61)], G


@pytest.mark.parametrize(
    "G",
    [
        GroupSpec.gnk(3, 1),
        GroupSpec.gnk(3, 2),
        GroupSpec.gnk(2, 3),
        GroupSpec.gnk(7, 3),
        GroupSpec.gnk(2, 4),
        GroupSpec.gnk(5, 4),
        GroupSpec.cyclic(4, 1, JORDAN),
        GroupSpec.cyclic(6, 1, JORDAN),
        GroupSpec.cyclic(6, 5, Q5),
        GroupSpec.cyclic(7, 3, Q5),
        GroupSpec.cyclic(5, 2, QM1),
        GroupSpec.dihedral(4, 3),
        GroupSpec.dihedral(5, 2),
        GroupSpec.dihedral(7, 5),
        GroupSpec.cyclic(1, 0, Q5),
    ],
)
def test_molien_equals_fixed_space_dims(G):
    # group orders up to 60, compared degreewise through N = 30 with the
    # fixed space read from every element's matrix entries
    N = 30
    assert len(enumerate_group(G)) <= 60
    series = molien(G.ambient, G, N)
    for d in range(N + 1):
        assert len(fixed_space_by_elements(G.ambient, G, d)) == series[d]


def test_molien_builds_no_root_table(monkeypatch):
    calls = []

    def spy(name, f):
        def wrapped(*args):
            calls.append(name)
            return f(*args)

        return wrapped

    for module in (group_actions, invariants):
        monkeypatch.setattr(module, "trace_counts", spy("trace_counts", group_actions.trace_counts), raising=False)
    monkeypatch.setattr(scalars, "_roots", spy("_roots", scalars._roots))
    monkeypatch.setattr(Cyclo, "root", staticmethod(spy("root", Cyclo.root)))
    monkeypatch.setattr(
        Cyclo, "from_power_counts", staticmethod(spy("from_power_counts", Cyclo.from_power_counts))
    )
    G = GroupSpec.gnk(29, 23)
    series = molien(G.ambient, G, 200)
    assert calls == []
    assert series[:93] == [1] + [0] * 68 + [1] + [0] * 22 + [2]


# the small G_{n,k} with gcd 1, n or k even and nk <= 24, which generator_set
# sends to the brute-force walk; the digest of their generators' to_text
# lists was recorded before the walk stopped each degree at its count
BRUTE_FORCE_GNK = [
    (n, k)
    for n in range(1, 25)
    for k in range(1, 25)
    if n * k <= 24 and gcd(n, k) == 1 and (n % 2 == 0 or k % 2 == 0)
    and is_small_brute(GroupSpec.gnk(n, k))
]
BRUTE_FORCE_DIGEST = "e6574007c7ebe15ebd8ee2ca2c5323f7a8283ccbd85872889239f34324db4bb6"


def test_brute_force_generators_unchanged():
    texts = {}
    for n, k in BRUTE_FORCE_GNK:
        G = GroupSpec.gnk(n, k)
        texts[f"{n},{k}"] = [to_text(g) for g in invariants._brute_force_generators(G.ambient, G)]
    blob = json.dumps(texts, sort_keys=True).encode()
    assert len(BRUTE_FORCE_GNK) == 29
    assert hashlib.sha256(blob).hexdigest() == BRUTE_FORCE_DIGEST


def test_brute_force_walk_without_the_screen_gives_the_same_generators(monkeypatch):
    # with the F_p products skipped, no degree is full before its exact step,
    # so every degree with a nonzero count ranks its products exactly
    plain = invariants._add_products
    exact_degrees = []

    def exact_only(rule, spans, gens, d, bound=None):
        if spans[d].field is EXACT:
            exact_degrees.append(d)
            plain(rule, spans, gens, d, bound)

    monkeypatch.setattr(invariants, "_add_products", exact_only)
    G = GroupSpec.gnk(4, 3)
    invariants._brute_force_generators(QM1, G)
    cap = 2 * len(G.keys)
    series = molien(QM1, G, cap)
    assert exact_degrees == [d for d in range(1, cap + 1) if series[d]]
    test_brute_force_generators_unchanged()


def test_brute_force_walk_stops_each_degree_at_its_count(monkeypatch):
    adds = {"F_p": 0, "exact": 0}
    plain_add = SpanBuilder.add

    def counted_add(self, vec):
        adds["exact" if self.field is EXACT else "F_p"] += 1
        return plain_add(self, vec)

    monkeypatch.setattr(SpanBuilder, "add", counted_add)
    G = GroupSpec.gnk(4, 3)
    gens = invariants._brute_force_generators(QM1, G)
    degrees = sorted(g.degree() for g in gens)
    assert degrees == [6, 12, 12, 12]
    # without the stop at the Molien count, every product and fixed vector
    # is added: 199 calls
    assert adds["F_p"] <= 60
    # the exact step runs only at the generator degrees, where it stops at the count
    series = molien(QM1, G, 12)
    assert adds["exact"] <= sum(series[d] for d in set(degrees))


@pytest.mark.parametrize("n, k, most", [(8, 3, 110), (2, 7, 115)])
def test_brute_force_walk_adds_products_lead_first(monkeypatch, n, k, most):
    # a product whose lowest column no row starts at yet raises the rank, so
    # the walk reaches each count in 106 F_p adds on G_(8,3) and 109 on
    # G_(2,7), against 182 and 229 in generator and row order; deferring the
    # other products in that order, not newest first, still takes 229 on G_(2,7)
    adds = []
    plain_add = SpanBuilder.add

    def counted_add(self, vec):
        if self.field is not EXACT:
            adds.append(vec)
        return plain_add(self, vec)

    monkeypatch.setattr(SpanBuilder, "add", counted_add)
    invariants._brute_force_generators(QM1, GroupSpec.gnk(n, k))
    assert len(adds) <= most


def test_molien_closed_form_matches_fixed_pairs():
    # the count of `_fixed_pairs` in every degree through 2|G| + 5: G_{n,k}
    # with n, k <= 15, 1/n(1,a) on q = w3, w5, w7 with n <= 19, Jordan
    # 1/n(1,1) with n <= 11, and the commutative groups that theta compares
    # the G_{n,k} of that grid against
    groups = [GroupSpec.gnk(n, k) for n in range(1, 16) for k in range(1, 16)]
    for m in (3, 5, 7):
        spec = AlgebraSpec.quantum(Cyclo.root(m))
        groups += [GroupSpec.cyclic(1, 0, spec)]
        groups += [GroupSpec.cyclic(n, a, spec) for n in range(2, 20) for a in range(1, n)]
    groups += [GroupSpec.cyclic(n, 1 % n, JORDAN) for n in range(1, 12)]
    targets = {}
    for n in range(1, 16):
        for k in range(1, 16):
            if (n % 2 == 0 or k % 2 == 0) and gcd(n, k) == 1 and k % 4 != 2:
                if n <= 2:
                    G = GroupSpec.cyclic(2 * n * k, n * k + 1, COMM)
                else:
                    G = GroupSpec.dihedral(*theta_map(n, k))
                targets[G.describe()] = G
    groups += targets.values()
    assert len(groups) == 820
    for G in groups:
        N = 2 * len(G.keys) + 5
        pairs = [sum(1 for _ in invariants._fixed_pairs(G.ambient, G, d)) for d in range(N + 1)]
        assert molien(G.ambient, G, N) == pairs, G


def test_thm_812_auxiliary_identity():
    # x1 x2 + x2 x1 = (-1)^((n-1)/2) * 4 (uv)^(2k) for the n < k generators
    from skewinv.invariants import _nc_generators

    for n in range(1, 16, 2):
        for k in range(n + 2, 16, 2):
            if gcd(n, k) != 1:
                continue
            gens = _nc_generators(QM1, n, k)
            x1, x2 = gens[0], gens[1]
            lhs = mul(QM1, x1, x2) + mul(QM1, x2, x1)
            sign = (-1) ** ((n - 1) // 2)
            assert lhs == uv_power(QM1, 2 * k).scale(4 * sign), (n, k)


def test_reynolds_fixes_invariants():
    G = GroupSpec.gnk(3, 1)
    inv = uv_power(QM1, 2)
    assert reynolds(QM1, G, inv, normalized=True) == inv


def test_reynolds_kills_off_characters():
    G = GroupSpec.gnk(3, 1)
    assert reynolds(QM1, G, AlgebraElt.monomial(1, 3, 1)).is_zero()


def test_reynolds_unnormalized_matches_case_analysis():
    # u^i v^j with i - j = 0 mod n and i + j = 0 mod k maps to
    # nk (u^i v^j + (-1)^((i+1)(j+1)+1) u^j v^i)
    for n, k in ((3, 1), (5, 3), (3, 5)):
        G = GroupSpec.gnk(n, k)
        found = 0
        for i in range(0, 3 * n + 1):
            for j in range(0, i + 1):
                if (i - j) % n or (i + j) % k:
                    continue
                got = reynolds(QM1, G, AlgebraElt.monomial(1, i, j), normalized=False)
                sign = (-1) ** ((i + 1) * (j + 1) + 1)
                if i == j:
                    expected = AlgebraElt({(i, i): (1 + sign) * n * k})
                else:
                    expected = AlgebraElt({(i, j): n * k, (j, i): sign * n * k})
                assert got == expected
                found += 1
        assert found > 0


def test_reynolds_projection_property():
    G = GroupSpec.gnk(3, 2)
    for i, j in ((0, 0), (1, 1), (3, 3), (4, 2), (5, 1)):
        once = reynolds(QM1, G, AlgebraElt.monomial(1, i, j), normalized=True)
        assert reynolds(QM1, G, once, normalized=True) == once
        assert is_invariant(QM1, G, once)


def test_generator_set_jordan_n2():
    gs = generator_set(JORDAN, GroupSpec.cyclic(2, 1, JORDAN))
    assert gs.provenance == "jordan_formula"
    assert gs.generators == [
        AlgebraElt.monomial(1, 2, 0),
        AlgebraElt.monomial(-1, 1, 1),
        AlgebraElt.monomial(Fraction(1, 2), 0, 2),
    ]


def test_generator_set_typeA():
    gs = generator_set(Q5, GroupSpec.cyclic(3, 2, Q5))
    assert gs.provenance == "typeA_formula"
    assert gs.generators == [
        AlgebraElt.monomial(1, 3, 0),
        AlgebraElt.monomial(1, 1, 1),
        AlgebraElt.monomial(1, 0, 3),
    ]


def test_generator_set_gnk73_printed_elements():
    gs = generator_set(QM1, GroupSpec.gnk(7, 3))
    assert gs.provenance == "nc_formula"
    assert sorted(gs.degrees) == [9, 12, 15, 21]
    a = mul(QM1, AlgebraElt({(7, 0): 1, (0, 7): -1}), uv_power(QM1, 4))
    b = mul(QM1, AlgebraElt({(7, 0): 1, (0, 7): 1}), uv_power(QM1, 1))
    c = AlgebraElt({(21, 0): 1, (0, 21): -1})
    d = uv_power(QM1, 6)
    assert gs.generators == [a, b, c, d]


def test_generator_set_rejects_non_small():
    with pytest.raises(ParameterError):
        generator_set(QM1, GroupSpec.gnk(3, 2))


def test_verify_generation_kleinian():
    for n in (3, 4, 5):
        G = GroupSpec.cyclic(n, n - 1, QM1)
        gs = generator_set(QM1, G)
        report = verify_generation(QM1, G, gs, 4 * n)
        assert report["ok"], report["first_failure"]


def test_verify_generation_drop_one_fails():
    G = GroupSpec.gnk(7, 3)
    gs = generator_set(QM1, G)
    dropped = GeneratorSet(gs.generators[:3], gs.degrees[:3], gs.provenance)
    report = verify_generation(QM1, G, dropped, 20)
    assert not report["ok"]
    assert report["first_failure"] == 12
    # the mod-p ranks miss the Molien dimensions, so the exact spans decide
    assert report["span_method"] == "exact"
    exact = [s.rank for s in subalgebra_spans(QM1, dropped.generators, 20)]
    assert [row["span_dim"] for row in report["dims"]] == exact
    assert exact[12] < report["dims"][12]["invariant_dim"]


class _RecordedRows:
    """Stands in for a `SpanBuilder` around `invariants._add_products`:
    `basis` lists the given rows and `add` records each product row."""

    def __init__(self, field):
        self.field, self.rows = field, []

    @property
    def rank(self):
        return len(self.rows)

    def basis(self):
        return self.rows

    def add(self, row):
        self.rows.append(row)
        return True


def _random_homogeneous(rng, d, M):
    """A nonzero element of A_d with coefficients in Q(w_M): rationals, root
    powers and general elements, on a random set of monomials."""
    terms = {}
    for i in range(d + 1):
        kind = rng.randrange(4)
        if kind == 0:
            continue
        if kind == 1:
            c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        elif kind == 2:
            c = Cyclo.root(M, rng.randrange(M))
        else:
            c = Cyclo(M, [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(euler_phi(M))])
        terms[(i, d - i)] = c
    elt = AlgebraElt(terms)
    return elt if not elt.is_zero() else AlgebraElt.monomial(1, d, 0)


@pytest.mark.parametrize(
    "spec, M",
    [(JORDAN, 4), (AlgebraSpec.quantum(Cyclo.root(3)), 6), (QM1, 12), (COMM, 5)],
    ids=["jordan", "q_w3", "q_minus_1", "commutative"],
)
def test_product_rows_match_mul(spec, M):
    # each row b * g that _add_products writes equals mul(spec, b, g) in the
    # columns of its degree, exactly and after the reduction to F_p; given a
    # bound, the rows come lead-first, so they are compared as multisets
    rng = random.Random(M)
    for _ in range(25):
        db, dg = rng.randrange(5), rng.randrange(1, 5)
        bs = [_random_homogeneous(rng, db, M) for _ in range(3)]
        g = _random_homogeneous(rng, dg, M)
        d = db + dg
        for field in (EXACT, _generation_field(spec, bs + [g])):
            spans = [_RecordedRows(field) for _ in range(d + 1)]
            spans[db].rows = [invariants._degree_cols(b, field) for b in bs]
            gens = [(invariants._degree_cols(g, field), dg)]
            invariants._add_products(reorder_rule(spec, field), spans, gens, d)
            products = (field.normalize(invariants._degree_cols(mul(spec, b, g), field)) for b in bs)
            want = [row for row in products if row]
            assert spans[d].rows == want
            spans[d].rows = []
            invariants._add_products(reorder_rule(spec, field), spans, gens, d, bound=1)
            assert spans[d].rows == want[:1]
            spans[d].rows = []
            invariants._add_products(reorder_rule(spec, field), spans, gens, d, len(want) + 1)
            got = spans[d].rows
            assert len(got) == len(want) and all(got.count(row) == want.count(row) for row in want)


@pytest.mark.parametrize(
    "spec, M",
    [(JORDAN, 4), (AlgebraSpec.quantum(Cyclo.root(3)), 6), (QM1, 12), (COMM, 5)],
    ids=["jordan", "q_w3", "q_minus_1", "commutative"],
)
def test_product_starts_at_the_sum_of_the_lowest_columns(spec, M):
    # v^j u^i = c_0 u^i v^j + (terms with a larger u-exponent), c_0 = q^(ij) or 1,
    # so a * b has a nonzero coefficient at column min(a) + min(b) and none
    # below it, exactly and after the reduction to F_p
    rng = random.Random(100 + M)
    for _ in range(40):
        a, b = (_random_homogeneous(rng, rng.randrange(6), M) for _ in range(2))
        for field in (EXACT, _generation_field(spec, [a, b])):
            ca, cb, prod = (field.normalize(invariants._degree_cols(x, field))
                            for x in (a, b, mul(spec, a, b)))
            if ca and cb:
                assert min(prod) == min(ca) + min(cb)


def _generation_field(spec, gens):
    scalars = [c for g in gens for c in g.terms.values()]
    return PrimeField.for_scalars(scalars + ([spec.q] if spec.is_quantum else []))


CERTIFIED_GENERATION = (
    [(JORDAN, GroupSpec.cyclic(n, 1, JORDAN), 4 * n) for n in range(2, 7)]
    + [(Q5, GroupSpec.cyclic(n, a, Q5), 3 * n) for n, a in ((3, 1), (5, 2), (6, 5), (7, 3))]
    + [(QM1, GroupSpec.gnk(n, k), 30) for n, k in ((3, 1), (1, 3), (5, 3), (7, 3), (4, 3), (2, 3))]
)


@pytest.mark.parametrize(
    "spec,G,N", CERTIFIED_GENERATION, ids=[G.describe() for _, G, _ in CERTIFIED_GENERATION]
)
def test_generation_certified_mod_p_matches_exact_ranks(spec, G, N):
    gs = generator_set(spec, G)
    field = _generation_field(spec, gs.generators)
    mod_p = [s.rank for s in subalgebra_spans(spec, gs.generators, N, field)]
    exact = [s.rank for s in subalgebra_spans(spec, gs.generators, N)]
    assert mod_p == exact
    report = verify_generation(spec, G, gs, N)
    assert report["ok"] and report["span_method"] == "certified_mod_p"
    assert [row["span_dim"] for row in report["dims"]] == exact


@pytest.mark.parametrize(
    "spec,G,N", CERTIFIED_GENERATION, ids=[G.describe() for _, G, _ in CERTIFIED_GENERATION]
)
def test_lead_first_spans_match_the_in_order_spans(spec, G, N):
    # reduced echelon forms are unique, and the Molien bound stops no span short
    gens = generator_set(spec, G).generators
    target = molien(spec, G, N)
    for field in (EXACT, _generation_field(spec, gens)):
        want = [s.basis() for s in spans_in_order(spec, gens, N, field)]
        for bound in (None, target):
            assert [s.basis() for s in subalgebra_spans(spec, gens, N, field, bound)] == want


def test_generation_provenances_covered():
    # the certificate cases reach every generator formula of the noncommutative planes
    provenances = {generator_set(spec, G).provenance for spec, G, _ in CERTIFIED_GENERATION}
    assert provenances == {"jordan_formula", "typeA_formula", "nc_formula", "brute_force"}


def test_subalgebra_spans_unit():
    spans = subalgebra_spans(QM1, [AlgebraElt.monomial(1, 1, 1)], 6)
    assert [s.rank for s in spans] == [1, 0, 1, 0, 1, 0, 1]


def test_gnk_basis_examples():
    assert gnk_basis(7, 3, 1) == []
    # degree 21 splits as 21 and 12+9, so the fixed space is 2-dimensional:
    # the new generator u^21 - v^21 plus the decomposable (u^7+v^7)(uv)^7
    b21 = gnk_basis(7, 3, 21)
    assert len(b21) == 2
    assert AlgebraElt({(21, 0): 1, (0, 21): -1}) in b21
    b12 = gnk_basis(7, 3, 12)
    assert len(b12) == 1
    assert b12[0] == uv_power(QM1, 6)
    b9 = gnk_basis(7, 3, 9)
    assert len(b9) == 1
    assert b9[0] == mul(QM1, AlgebraElt({(7, 0): 1, (0, 7): 1}), uv_power(QM1, 1))


def test_gnk_basis_matches_fixed_space_dims():
    for n in (1, 3, 5, 7, 9):
        for k in (1, 3, 5, 7, 9):
            if gcd(n, k) != 1:
                continue
            G = GroupSpec.gnk(n, k)
            for d in range(0, 25):
                expected = len(fixed_space(QM1, G, d))
                got = len(gnk_basis(n, k, d))
                assert got == expected, (n, k, d, got, expected)


def test_gnk_basis_elements_invariant():
    G = GroupSpec.gnk(5, 3)
    for d in range(0, 20):
        for e in gnk_basis(5, 3, d):
            assert is_invariant(QM1, G, e)


def test_typed_generators_invariant_and_complete():
    # confirms the (uv)^(2(m-q)) reading of the final type D generator
    from skewinv.invariants import subalgebra_spans

    for m, q in ((3, 2), (5, 2), (5, 3), (7, 4)):
        G = GroupSpec.dihedral(m, q)
        gens = typeD_generators(COMM, m, q)
        for g in gens:
            assert is_invariant(COMM, G, g), (m, q)
        N = 4 * (m - q) + 4 * q + 8
        spans = subalgebra_spans(COMM, gens, N)
        target = molien(COMM, G, N)
        assert [s.rank for s in spans] == target, (m, q)


def test_theta_eta_mutually_inverse():
    for n in range(3, 21):
        for k in range(1, 21):
            if gcd(n, k) != 1 or (n + k) % 2 == 0 or k % 4 == 2:
                continue
            m, q = theta_map(n, k)
            assert 1 < q < m and gcd(m, q) == 1
            assert eta_map(m, q) == (n, k)
    for m in range(3, 21):
        for q in range(2, m):
            if gcd(m, q) != 1:
                continue
            n, k = eta_map(m, q)
            assert theta_map(n, k) == (m, q)


def test_theta_correspondence_2_1():
    rec = theta_correspondence(2, 1, N=24)
    assert rec["target"] == {"kind": "cyclic", "order": 4, "weight": 3}
    assert rec["evidence"]["molien_equal"]
    assert rec["evidence"]["intermediate_transforms_ok"]
    # hilb k[x,y,z]/(xy - z^4) = (1 - t^8)/((1 - t^4)^2 (1 - t^2))
    den = from_factors(
        [[1, 0, 0, 0, -1], [1, 0, 0, 0, -1], [1, 0, -1]]
    ).den
    rf = RationalFunction([1, 0, 0, 0, 0, 0, 0, 0, -1], den)
    assert rf.expand(24) == molien(QM1, GroupSpec.gnk(2, 1), 24)


def test_theta_correspondence_dihedral_cases():
    rec = theta_correspondence(3, 4, N=24)
    assert rec["target"] == {"kind": "dihedral", "m": 5, "q": 3}
    rec = theta_correspondence(4, 3, N=24)
    assert rec["target"] == {"kind": "dihedral", "m": 5, "q": 2}
    rec = theta_correspondence(1, 4, N=24)
    assert rec["target"] == {"kind": "cyclic", "order": 8, "weight": 5}


def test_theta_correspondence_rejects_noncommutative():
    with pytest.raises(ParameterError):
        theta_correspondence(7, 3)


def test_commutativity_of_invariants_matches_parity():
    # n or k even: all low-degree invariant pairs commute; both odd: they do not
    G = GroupSpec.gnk(3, 4)
    elems = []
    for d in range(1, 13):
        elems.extend(fixed_space(QM1, G, d))
    for x in elems:
        for y in elems:
            assert mul(QM1, x, y) == mul(QM1, y, x)


def test_prop_312_noncommutativity_witness():
    for n, k in ((3, 5), (5, 3), (7, 3), (3, 7), (5, 9), (9, 5)):
        m = 1
        while m * k <= n:
            m += 2
        i = (m * k + n) // 2
        j = (m * k - n) // 2
        a = AlgebraElt({(i, j): 1, (j, i): -1})
        b = AlgebraElt({(3 * i, 3 * j): 1, (3 * j, 3 * i): -1})
        G = GroupSpec.gnk(n, k)
        assert is_invariant(QM1, G, a)
        assert is_invariant(QM1, G, b)
        assert mul(QM1, a, b) != mul(QM1, b, a)
