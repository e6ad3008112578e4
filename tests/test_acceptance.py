"""Acceptance suite: one test per criterion, exact comparisons throughout.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per criterion.
"""

import time
from math import gcd

from conftest import from_factors, key_matrix

from skewinv.auslander import finite_dim_witness, verify_GH_identities
from skewinv.group_actions import (
    GroupSpec,
    RationalFunction,
    enumerate_group,
    group_report,
    is_small_brute,
    is_small_closed_form,
)
from skewinv.hj_series import nc_series
from skewinv.invariants import (
    fixed_space,
    generator_set,
    gnk_basis,
    is_invariant,
    molien,
    theta_correspondence,
    verify_generation,
)
from skewinv.presentations import (
    gnk73_presentation,
    jordan_presentation,
    quantum_presentation,
    verify_presentation,
)
from skewinv.scalars import Cyclo, gen_binomial, lcm
from skewinv.skew_algebra import AlgebraElt, AlgebraSpec, mul, power

QM1 = AlgebraSpec.quantum(Cyclo.from_rational(-1))
JORDAN = AlgebraSpec.jordan()
Q5 = AlgebraSpec.quantum(Cyclo.root(5))


def _report(name: str, detail: str = ""):
    print(f"ACCEPTANCE {name}: PASS{(' - ' + detail) if detail else ''}")


def uv_power(spec, r):
    return power(spec, AlgebraElt.monomial(1, 1, 1), r)


def one_minus_t(k):
    return [1] + [0] * (k - 1) + [-1]


def test_criterion_1_molien_fixture():
    t0 = time.time()
    series = molien(QM1, GroupSpec.gnk(7, 3), 60)
    num = [0] * 52
    num[0], num[30], num[33], num[36], num[48], num[51] = 1, -1, -1, -1, 1, 1
    den = from_factors(
        [one_minus_t(15), one_minus_t(9), one_minus_t(21), one_minus_t(12)]
    ).den
    expected = RationalFunction(num, den).expand(60)
    assert series == expected
    elapsed = time.time() - t0
    assert elapsed < 30
    _report("1 (Molien fixture G_{7,3}, N=60)", f"{elapsed:.2f}s")


def test_criterion_2_generator_fixtures():
    # G_{7,3}: degrees {15, 9, 21, 12} with the printed elements
    gs = generator_set(QM1, GroupSpec.gnk(7, 3))
    assert gs.degrees == [15, 9, 21, 12]
    a = mul(QM1, AlgebraElt({(7, 0): 1, (0, 7): -1}), uv_power(QM1, 4))
    b = mul(QM1, AlgebraElt({(7, 0): 1, (0, 7): 1}), uv_power(QM1, 1))
    c = AlgebraElt({(21, 0): 1, (0, 21): -1})
    d = uv_power(QM1, 6)
    assert gs.generators == [a, b, c, d]
    rep = verify_generation(QM1, GroupSpec.gnk(7, 3), gs, 60)
    assert rep["ok"], rep["first_failure"]
    # n odd, k = 1: {(u^n + v^n) uv, u^n - v^n, (uv)^2}
    for n in (3, 5, 7):
        G = GroupSpec.gnk(n, 1)
        gsn = generator_set(QM1, G)
        x1 = mul(QM1, AlgebraElt({(n, 0): 1, (0, n): 1}), uv_power(QM1, 1))
        x2 = AlgebraElt({(n, 0): 1, (0, n): -1})
        x3 = uv_power(QM1, 2)
        assert gsn.generators == [x1, x2, x3]
        assert verify_generation(QM1, G, gsn, 4 * n)["ok"]
    # n = 17, k = 11: the six-row table drives the generators
    ns = nc_series(17, 11)
    assert ns.beta == (2, 2, 3, 2, 3, 2)
    assert ns.r_series == (19, 8, 5, 2, 1, 0)
    assert ns.s_series == (1, 1, 2, 3, 7, 11)
    assert ns.t_series == (5, 3, 4, 5, 11, 17)
    G17 = GroupSpec.gnk(17, 11)
    gs17 = generator_set(QM1, G17)
    assert verify_generation(QM1, G17, gs17, 100)["ok"]
    _report("2 (generator fixtures: G_{7,3}; k=1 family; n=17,k=11)")


def test_criterion_3_presentation_fixtures():
    for n in (2, 3, 4):
        rep = verify_presentation(
            JORDAN, GroupSpec.cyclic(n, 1, JORDAN), jordan_presentation(n), 6 * n
        )
        assert rep["ok"], (n, rep["first_dimension_mismatch"])
        assert rep["quotient_method"] == "certified_mod_p", n
    for n, a, m in ((5, 2, 5), (7, 3, 7), (4, 1, 3)):
        q = Cyclo.root(m)
        spec = AlgebraSpec.quantum(q)
        rep = verify_presentation(
            spec, GroupSpec.cyclic(n, a, spec), quantum_presentation(n, a, q), 8 * n
        )
        assert rep["ok"], (n, a, rep["first_dimension_mismatch"])
        assert rep["quotient_method"] == "certified_mod_p", (n, a)
    rep = verify_presentation(QM1, GroupSpec.gnk(7, 3), gnk73_presentation(), 60)
    assert rep["ok"], rep["first_dimension_mismatch"]
    assert rep["quotient_method"] == "certified_mod_p"
    _report("3 (presentations: Jordan n=2,3,4; quantum (5,2),(7,3),(4,1); G_{7,3} at N=60)")


# witness values recorded as regression fixtures on first computation
GNK_WITNESSES = {(3, 1): 4, (5, 1): 6, (3, 4): 13, (5, 3): 16, (1, 4): 7}
CYCLIC_WITNESS = lambda n: n - 1  # noqa: E731  (empirical: one below the 2(n-1) bound)


def test_criterion_4_auslander_witnesses():
    for n in range(2, 7):
        for a in range(1, n):
            if gcd(a, n) != 1:
                continue
            rep = finite_dim_witness(Q5, GroupSpec.cyclic(n, a, Q5), 2 * (n - 1) + 6)
            assert rep["found"] and rep["witness"] <= 2 * (n - 1)
            assert rep["witness"] == CYCLIC_WITNESS(n)
        repj = finite_dim_witness(JORDAN, GroupSpec.cyclic(n, 1, JORDAN), 2 * (n - 1) + 6)
        assert repj["found"] and repj["witness"] <= 2 * (n - 1)
        assert repj["witness"] == CYCLIC_WITNESS(n)
    for (n, k), expected in GNK_WITNESSES.items():
        N = 4 * n * k + 8
        rep = finite_dim_witness(QM1, GroupSpec.gnk(n, k), N)
        assert rep["found"], (n, k)
        assert rep["witness"] == expected, (n, k, rep["witness"])
    _report("4 (Auslander witnesses: cyclic <= 2(n-1); G_{n,k} found at recorded degrees)")


def test_criterion_5_classification():
    for n in range(1, 13):
        for k in range(1, 13):
            G = GroupSpec.gnk(n, k)
            brute = is_small_brute(G)
            assert brute == (k % 4 != 2 and gcd(n, k) <= 2), (n, k)
            assert brute == is_small_closed_form(G)
    # group coincidence: the pairs with n = 2 mod 4 and k = 0 mod 4 reduce
    for n in (2, 6, 10):
        for k in (4, 8, 12):
            A = enumerate_group(GroupSpec.gnk(n, k))
            B = enumerate_group(GroupSpec.gnk(n // 2, k))
            M = lcm(2 * n * k, n * k)
            assert {key_matrix(*e).key_at(M) for e in A} == {key_matrix(*e).key_at(M) for e in B}, (n, k)
    # Cor 3.13 hdet-triviality: G_{n,k} iff k = 1; 1/n(1,a) iff a = n-1; Jordan iff n = 2
    for n in range(1, 13):
        for k in range(1, 13):
            rep = group_report(GroupSpec.gnk(n, k))
            assert rep["hdet_trivial"] == (k == 1), (n, k)
    for n in range(2, 9):
        for a in range(1, n):
            if gcd(a, n) != 1:
                continue
            rep = group_report(GroupSpec.cyclic(n, a, Q5))
            assert rep["hdet_trivial"] == (a == n - 1)
    for n in range(2, 9):
        rep = group_report(GroupSpec.cyclic(n, 1, JORDAN))
        assert rep["hdet_trivial"] == (n == 2)
    _report("5 (classification: brute = closed form <= 12; set reductions; hdet cases)")


def _odd_coprime_pairs(bound):
    for n in range(1, bound + 1, 2):
        for k in range(1, bound + 1, 2):
            if gcd(n, k) == 1:
                yield n, k


def test_criterion_6_identity_batteries():
    # the G_l/H_l identity battery for all odd coprime n, k <= 9 (the explicit
    # membership certificates additionally run on two named pairs)
    for n, k in _odd_coprime_pairs(9):
        full = (n, k) in ((3, 1), (5, 3))
        rep = verify_GH_identities(n, k, 2 * n * k, memberships=full)
        assert rep["ok"], (n, k, rep["checks"])
    # the Jordan commutator and shift identities for n <= 6
    for n in range(2, 7):
        ys = generator_set(JORDAN, GroupSpec.cyclic(n, 1, JORDAN)).generators
        for i in range(n + 1):
            for j in range(i + 1, n + 1):
                lhs = AlgebraElt.zero()
                rhs = AlgebraElt.zero()
                for kk in range(j + 1):
                    cc = gen_binomial(n - i, kk)
                    if cc:
                        lhs = lhs + mul(JORDAN, ys[j - kk], ys[i]).scale(cc)
                for ll in range(i + 1):
                    cc = gen_binomial(n - j, ll)
                    if cc:
                        rhs = rhs + mul(JORDAN, ys[i - ll], ys[j]).scale(cc)
                assert lhs == rhs
        for i in range(1, n):
            for j in range(i, n):
                assert mul(JORDAN, ys[i], ys[j]).scale(i) == mul(
                    JORDAN, ys[i - 1], ys[j + 1]
                ).scale(j + 1) - mul(JORDAN, ys[i - 1], ys[j]).scale(n - 1 - (j - i))
    # the q-power identity (u^a v^b)^c = q^(abc(c-1)/2) u^(ac) v^(bc), exponents <= 4
    q = Cyclo.root(5)
    spec = AlgebraSpec.quantum(q)
    for a in range(5):
        for b in range(5):
            for c in range(5):
                lhs = power(spec, AlgebraElt.monomial(1, a, b), c)
                assert lhs == AlgebraElt.monomial(q ** (a * b * c * (c - 1) // 2), a * c, b * c)
    # the series laws for both branches, odd coprime pairs <= 25
    for n, k in _odd_coprime_pairs(25):
        if n == k:
            continue
        ns = nc_series(n, k)  # construction-time validation runs the full battery
        assert ns.r_series[-2] == 1 and ns.r_series[-1] == 0
        assert ns.s_series[-1] == k and ns.t_series[-1] == n
    # basis count equals fixed-space dimension, n, k <= 9, d <= 24
    for n, k in _odd_coprime_pairs(9):
        G = GroupSpec.gnk(n, k)
        for d in range(25):
            assert len(gnk_basis(n, k, d)) == len(fixed_space(QM1, G, d)), (n, k, d)
    # noncommutativity witnesses for odd n, k <= 9 (excluding (1,1), which has no
    # series data), commutativity when n or k is even, n, k <= 8
    for n, k in _odd_coprime_pairs(9):
        if (n, k) == (1, 1):
            continue
        m = 1
        while m * k <= n:
            m += 2
        i = (m * k + n) // 2
        j = (m * k - n) // 2
        a = AlgebraElt({(i, j): 1, (j, i): -1})
        b = AlgebraElt({(3 * i, 3 * j): 1, (3 * j, 3 * i): -1})
        G = GroupSpec.gnk(n, k)
        assert is_invariant(QM1, G, a) and is_invariant(QM1, G, b)
        assert mul(QM1, a, b) != mul(QM1, b, a), (n, k)
    for n in range(1, 9):
        for k in range(1, 9):
            if gcd(n, k) != 1 or (n % 2 == 1 and k % 2 == 1):
                continue
            G = GroupSpec.gnk(n, k)
            elems = []
            for d in range(1, 17):
                elems.extend(fixed_space(QM1, G, d))
            for x in elems:
                for y in elems:
                    if x.degree() + y.degree() <= 16 * 2:
                        assert mul(QM1, x, y) == mul(QM1, y, x), (n, k)
    _report("6 (identity batteries: G_l/H_l, Jordan commutators, q-powers, series laws, basis counts, commutativity)")


def test_criterion_7_theta_correspondences():
    rec = theta_correspondence(2, 1, N=40)
    assert rec["target"] == {"kind": "cyclic", "order": 4, "weight": 3}
    assert rec["evidence"]["molien_equal"]
    den = from_factors(
        [one_minus_t(4), one_minus_t(4), one_minus_t(2)]
    ).den
    closed = RationalFunction([1, 0, 0, 0, 0, 0, 0, 0, -1], den).expand(40)
    assert closed == molien(QM1, GroupSpec.gnk(2, 1), 40)
    for n, k, target in (
        (1, 4, {"kind": "cyclic", "order": 8, "weight": 5}),
        (3, 4, {"kind": "dihedral", "m": 5, "q": 3}),
        (4, 3, {"kind": "dihedral", "m": 5, "q": 2}),
    ):
        rec = theta_correspondence(n, k, N=40)
        assert rec["target"] == target
        assert rec["evidence"]["molien_equal"]
        assert rec["evidence"]["generator_degrees_equal"]
    _report("7 (theta correspondences: (2,1) hypersurface series; (1,4),(3,4),(4,3) at N=40)")


def test_criterion_8_scope_note():
    # GK-dimension statements and the all-degrees Auslander isomorphism are not
    # desk-verifiable; criteria 4 and 6 stand in for them by design.  Nothing to run.
    _report("8 (scope note: replaced by degree-window witnesses and identity batteries)")
