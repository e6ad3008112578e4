"""The three workloads: job lists, each job with its check.

A job is a call into one public skewinv function (or `skewinv.cli.main`) and
a check of its answer against a reference that does not come from the call
itself.  Functions are looked up on their module at call time, so the
tracer's wrappers see the calls.
"""

from __future__ import annotations

import cmath
import contextlib
import hashlib
import importlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Callable

import oracle

# Recorded on first computation and fixed by tests/test_acceptance.py.
GNK_WITNESSES = {(3, 1): 4, (5, 1): 6, (3, 4): 13, (5, 3): 16, (1, 4): 7}


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    smoke: bool = False


class Modules:
    """The skewinv modules a workload calls into."""

    def __init__(self):
        for name in ("auslander", "cli", "group_actions", "presentations", "scalars", "skew_algebra"):
            setattr(self, name, importlib.import_module(f"skewinv.{name}"))


# ---------------------------------------------------------------------------
# presentations: verify_presentation on the criterion-3 fixtures
# ---------------------------------------------------------------------------


def _check_presentation(reference: Callable[[], list[int]]):
    """Checks a report against the Molien series `reference()` gives; it runs
    only at check time, after the timed pass."""

    def check(rep) -> list[str]:
        expected = reference()
        problems = []
        if not rep["ok"] or not rep["relations_vanish"]:
            problems.append(f"ok={rep['ok']} relations_vanish={rep['relations_vanish']}")
        if rep["quotient_dims"] != expected:
            problems.append(f"quotient dims {rep['quotient_dims']} != Molien {expected}")
        if rep["invariant_dims"] != expected:
            problems.append(f"invariant dims {rep['invariant_dims']} != Molien {expected}")
        return problems

    return check


def presentations_jobs(mods: Modules) -> list[Job]:
    sa, ga, pr, sc = mods.skew_algebra, mods.group_actions, mods.presentations, mods.scalars
    jobs = []

    def verify(spec, G, pres, N):
        return lambda: mods.presentations.verify_presentation(spec, G, pres, N)

    jordan = sa.AlgebraSpec.jordan()
    for n in (2, 3, 4):
        N = 6 * n
        G = ga.GroupSpec.cyclic(n, 1, jordan)
        expected = (lambda n=n, N=N: oracle.molien(oracle.cyclic_group(n, 1), N))
        jobs.append(Job(f"jordan n={n} N={N}", verify(jordan, G, pr.jordan_presentation(n), N),
                        _check_presentation(expected), smoke=n == 2))
    for n, a, m in ((5, 2, 5), (7, 3, 7), (4, 1, 3)):
        N = 8 * n
        q = sc.Cyclo.root(m)
        spec = sa.AlgebraSpec.quantum(q)
        G = ga.GroupSpec.cyclic(n, a, spec)
        expected = (lambda n=n, a=a, N=N: oracle.molien(oracle.cyclic_group(n, a), N))
        jobs.append(Job(f"quantum 1/{n}(1,{a}) q=w{m} N={N}",
                        verify(spec, G, pr.quantum_presentation(n, a, q), N),
                        _check_presentation(expected)))
    # The paper's closed form; selftest.py checks it against the trace average.
    qm1 = sa.AlgebraSpec.quantum(sc.Cyclo.from_rational(-1))
    jobs.append(Job("G_(7,3) N=60", verify(qm1, ga.GroupSpec.gnk(7, 3), pr.gnk73_presentation(), 60),
                    _check_presentation(lambda: oracle.g73_molien(60)), smoke=True))
    return jobs


# ---------------------------------------------------------------------------
# auslander: finite_dim_witness on the criterion-4 set
# ---------------------------------------------------------------------------


def canonical_witness(rep: dict) -> dict:
    """The witness payload without its nondeterministic wall time."""
    return {
        "witness": rep["witness"],
        "found": rep["found"],
        "first_full_degree": rep["first_full_degree"],
        "tail_needed": rep["tail_needed"],
        "N": rep["N"],
        "method": rep["method"],
        "ideal_dims": [row["ideal_dim"] for row in rep["per_degree"]],
        "ambient_dims": [row["ambient_dim"] for row in rep["per_degree"]],
    }


def _check_witness(order: int, N: int, witness: int, method: str, recorded: dict | None):
    def check(rep) -> list[str]:
        got = canonical_witness(rep)
        problems = []
        if witness is not None and (not got["found"] or got["witness"] != witness):
            problems.append(f"witness {got['witness']} (found={got['found']}) != {witness}")
        if got["method"] != method:
            problems.append(f"method {got['method']} != {method}")
        if got["ambient_dims"] != [order * (d + 1) for d in range(N + 1)]:
            problems.append("ambient dims are not |G|(d+1)")
        if recorded is None:
            problems.append("no recorded per-degree dims")
        elif got["ideal_dims"] != recorded["ideal_dims"]:
            problems.append(f"ideal dims {got['ideal_dims']} != recorded {recorded['ideal_dims']}")
        return problems

    return check


def auslander_specs():
    """(name, algebra, group, N, |G|, witness or None, method) for the criterion-4 set."""
    out = []
    for n in range(2, 7):
        for a in range(1, n):
            if gcd(a, n) == 1:
                out.append((f"1/{n}(1,{a}) q=w5", "q5", ("cyclic", n, a), 2 * (n - 1) + 6, n,
                            n - 1, "character_counting"))
        out.append((f"jordan 1/{n}(1,1)", "jordan", ("cyclic", n, 1), 2 * (n - 1) + 6, n,
                    n - 1, "generic_span"))
    for (n, k), w in GNK_WITNESSES.items():
        out.append((f"G_({n},{k})", "qm1", ("gnk", n, k), 4 * n * k + 8, 2 * n * k, w,
                    "gh_basis_graph"))
    # n even: the graph path does not apply, so these take the generic span over Q(w_2nk)
    for n, k in ((4, 1), (2, 1)):
        out.append((f"G_({n},{k})", "qm1", ("gnk", n, k), 10, 2 * n * k, None, "generic_span"))
    return out


SMOKE_AUSLANDER = {"1/3(1,2) q=w5", "jordan 1/2(1,1)", "G_(3,1)", "G_(2,1)"}


def auslander_jobs(mods: Modules, refs: dict) -> list[Job]:
    sa, ga, sc = mods.skew_algebra, mods.group_actions, mods.scalars
    algebras = {
        "q5": sa.AlgebraSpec.quantum(sc.Cyclo.root(5)),
        "jordan": sa.AlgebraSpec.jordan(),
        "qm1": sa.AlgebraSpec.quantum(sc.Cyclo.from_rational(-1)),
    }
    recorded = refs["auslander"]
    jobs = []
    for name, alg, (kind, n, x), N, order, witness, method in auslander_specs():
        spec = algebras[alg]
        G = ga.GroupSpec.cyclic(n, x, spec) if kind == "cyclic" else ga.GroupSpec.gnk(n, x)
        rec = recorded.get(name)
        if witness is None and rec is not None:
            witness = rec["witness"]
        run = (lambda spec=spec, G=G, N=N: mods.auslander.finite_dim_witness(spec, G, N))
        jobs.append(Job(name, run, _check_witness(order, N, witness, method, rec),
                        smoke=name in SMOKE_AUSLANDER))
    return jobs


# ---------------------------------------------------------------------------
# cli_sweep: seeded queries through skewinv.cli.main
# ---------------------------------------------------------------------------

QM1 = ["--algebra", "qminus1", "--group", "gnk"]


def _odd_coprime(bound):
    return [(n, k) for n in range(1, bound + 1, 2) for k in range(1, bound + 1, 2)
            if gcd(n, k) == 1 and (n, k) != (1, 1)]


def _theta_pairs(max_product):
    """Pairs inside the classified commutative cases: exactly these exit 0."""
    out = []
    for n in range(1, max_product + 1):
        for k in range(1, max_product // n + 1):
            if gcd(n, k) != 1 or (n % 2 and k % 2) or k % 4 == 2:
                continue
            if n >= 3 and (n % 2) == (k % 2):
                continue
            out.append((n, k))
    return out


# The large classify queries: pairs with n, k in 13..30 that span the range of
# root-table size m*phi(m), m = 2nk, in ascending size.  All 324 pairs were
# sorted by that size and cut into 16 equal strata; each stratum gives its
# middle pair.  Root tables dominate the time and memory of these queries and
# stay cached, so a seeded draw here moved peak_rss_mb by 20% from seed to
# seed.  The seed places these queries in the pass instead.
BIG_CLASSIFY = [(15, 17), (21, 15), (18, 17), (18, 18), (21, 20), (19, 16), (30, 15), (27, 16),
                (26, 18), (26, 21), (23, 19), (25, 20), (19, 28), (30, 24), (28, 30), (29, 23)]


# Queries per kind in one pass, besides the 16 of BIG_CLASSIFY: 128 in all.
# The large classify queries are the slowest, so p90 falls inside them rather
# than on the edge of their group.
MIX = {
    "classify": 14,
    "molien": 20,
    "trace": 14,
    "hj": 14,
    "generators": 15,
    "gnk_basis": 14,
    "theta": 13,
    "auslander": 8,
}
AUSLANDER_GNK = ((3, 1), (1, 4), (5, 1))  # never the unbounded default of e.g. gnk 6 4


def _group_args(rng, max_n=9, kind=None):
    """A random small group: ('gnk', n, k), ('cyclic', m, n, a) on q = w_m, or ('jordan', n)."""
    kind = kind or rng.choice(("gnk", "cyclic", "jordan"))
    if kind == "gnk":
        return ("gnk", rng.randint(1, max_n), rng.randint(1, max_n))
    if kind == "cyclic":
        n = rng.randint(2, max_n)
        a = rng.choice([a for a in range(1, n) if gcd(a, n) == 1])
        return ("cyclic", rng.choice((3, 5, 7)), n, a)
    return ("jordan", rng.randint(2, 6))


# A query's cost grows steeply with its size parameter and differs by group
# kind, so free draws made the slow tail of a pass, and with it job_p90_s,
# differ from seed to seed.  The draws are therefore stratified: every pass
# has each group kind in equal shares, and each kind's sizes come one from
# each equal slice of the size range; the seed picks within the slices, the
# groups and the order.


def _shares(rng, items, count):
    """`count` items in equal shares (the remainder seeded), in seeded order."""
    order = rng.sample(list(items), len(items))
    out = [order[j % len(order)] for j in range(count)]
    rng.shuffle(out)
    return out


def _sizes(rng, lo, hi, count):
    """`count` integers in lo..hi, one from each of `count` equal slices, in seeded order."""
    width = (hi - lo + 1) / count
    out = [lo + int((j + rng.random()) * width) for j in range(count)]
    rng.shuffle(out)
    return out


def _kinds_and_sizes(rng, kinds, lo, hi, count):
    """`count` (kind, size) pairs: kinds in equal shares, each kind's sizes
    spread over lo..hi by `_sizes`; in seeded order."""
    order = rng.sample(list(kinds), len(kinds))
    out = []
    for i, kind in enumerate(order):
        share = count // len(order) + (i < count % len(order))
        out += [(kind, size) for size in _sizes(rng, lo, hi, share)]
    rng.shuffle(out)
    return out


def _argv_for(group):
    if group[0] == "gnk":
        return QM1 + [str(group[1]), str(group[2])]
    if group[0] == "cyclic":
        _, m, n, a = group
        return ["--algebra", "quantum", "--q", f"root:{m}", "--group", "cyclic", str(n), str(a)]
    return ["--algebra", "jordan", "--group", "cyclic", str(group[1]), "1"]


def _oracle_group(group):
    if group[0] == "gnk":
        return oracle.gnk_group(group[1], group[2])
    if group[0] == "cyclic":
        return oracle.cyclic_group(group[2], group[3])
    return oracle.cyclic_group(group[1], 1)


def draw_queries(seed: int) -> list[tuple[list[str], dict]]:
    """The pass's queries as (argv, facts the checker needs), in seeded order."""
    rng = random.Random(seed)
    out = []
    for n, k in BIG_CLASSIFY:
        out.append((["classify"] + QM1 + [str(n), str(k)], {"group": ("gnk", n, k)}))
    for _ in range(MIX["classify"]):
        g = _group_args(rng, max_n=12)
        out.append((["classify"] + _argv_for(g), {"group": g}))
    kinds = ("gnk", "cyclic", "jordan")
    for kind, N in _kinds_and_sizes(rng, kinds, 20, 60, MIX["molien"]):
        g = _group_args(rng, kind=kind)
        out.append((["molien"] + _argv_for(g) + ["--N", str(N)], {"group": g, "N": N}))
    for kind, N in _kinds_and_sizes(rng, kinds, 8, 24, MIX["trace"]):
        g = _group_args(rng, max_n=7, kind=kind)
        if g[0] == "gnk":
            word = "*".join(rng.choice(("g", "h", "g^2", "h^3")) for _ in range(rng.randint(1, 3)))
        else:
            word = f"g^{rng.randint(0, 5)}"
        out.append((["trace"] + _argv_for(g) + ["--element", word, "--N", str(N)],
                    {"group": g, "word": word, "N": N}))
    for mode in _shares(rng, ("expand", "typea", "typed", "nc"), MIX["hj"]):
        if mode == "expand":
            p = rng.randint(2, 60)
            nums = (p, rng.randint(1, p))
        elif mode == "typea":
            n = rng.randint(2, 30)
            nums = (n, rng.choice([a for a in range(1, n) if gcd(a, n) == 1]))
        elif mode == "typed":
            m = rng.randint(3, 30)
            nums = (m, rng.choice([q for q in range(2, m) if gcd(q, m) == 1]))
        else:
            nums = rng.choice([p for p in _odd_coprime(25) if p[0] != p[1]])
        out.append((["hj", mode, str(nums[0]), str(nums[1])], {"mode": mode, "nums": nums}))
    for kind, N in _kinds_and_sizes(rng, kinds, 12, 30, MIX["generators"]):
        if kind == "gnk":
            g = ("gnk", *rng.choice(_odd_coprime(9)))
        elif kind == "cyclic":
            g = _group_args(rng, max_n=9, kind="cyclic")
        else:
            g = ("jordan", rng.randint(2, 4))
        out.append((["generators"] + _argv_for(g) + ["--verify", str(N)], {"N": N}))
    for d in _sizes(rng, 0, 60, MIX["gnk_basis"]):
        n, k = rng.choice(_odd_coprime(15))
        out.append((["gnk-basis", str(n), str(k), "--d", str(d)], {"n": n, "k": k, "d": d}))
    count = MIX["theta"]
    for (n, k), N in zip(_shares(rng, _theta_pairs(12), count), _sizes(rng, 20, 40, count)):
        out.append((["theta", str(n), str(k), "--N", str(N)], {"n": n, "k": k, "N": N}))
    # Each bounded G_(n,k) case and Jordan n = 2, 3 once; the rest cyclic on q = w5.
    cases = [("gnk", n, k) for n, k in AUSLANDER_GNK] + [("jordan", 2), ("jordan", 3)]
    while len(cases) < MIX["auslander"]:
        n = rng.randint(2, 6)
        cases.append(("cyclic", 5, n, rng.choice([a for a in range(1, n) if gcd(a, n) == 1])))
    for g in cases:
        if g[0] == "gnk":
            witness = GNK_WITNESSES[g[1:]]
        else:
            witness = g[2] - 1 if g[0] == "cyclic" else g[1] - 1
        out.append((["auslander"] + _argv_for(g), {"witness": witness}))
    rng.shuffle(out)
    # The cached root tables only grow, so peak memory comes when the largest
    # table is built on top of all the others.  Keeping the large classify
    # queries in ascending size, wherever the shuffle put them, makes that the
    # last one on every seed.
    slots = [i for i, (argv, facts) in enumerate(out) if argv[0] == "classify"
             and facts["group"][1:] in BIG_CLASSIFY]
    for i, (n, k) in zip(slots, BIG_CLASSIFY):
        out[i] = (["classify"] + QM1 + [str(n), str(k)], {"group": ("gnk", n, k)})
    return out


def _eval_cyclo(text: str) -> complex:
    """Numeric value of a rendered Cyclo: "p/q" or "(c0 + c1*w + c2*w^2 ...)@m"."""
    if not text.startswith("("):
        return complex(Fraction(text))
    body, m = text[1:].rsplit(")@", 1)
    w = cmath.exp(2j * cmath.pi / int(m))
    total = 0j
    for part in body.split(" + "):
        if "*w" in part:
            c, power = part.split("*w")
            e = int(power[1:]) if power.startswith("^") else 1
        else:
            c, e = part, 0
        total += float(Fraction(c)) * w ** e
    return total


def _element(group, word):
    m, _ = _oracle_group(group)
    if group[0] == "gnk":
        n, k = group[1], group[2]
        gens = {"g": ("d", 2 * k % m, -2 * k % m), "h": ("a", n % m, n % m)}
    elif group[0] == "cyclic":
        gens = {"g": ("d", 1 % m, group[3] % m)}
    else:
        gens = {"g": ("d", 1 % m, 1 % m)}
    acc = ("d", 0, 0)
    for token in word.split("*"):
        name, _, power = token.partition("^")
        for _ in range(int(power or 1)):
            acc = oracle._compose(acc, gens[name], m)
    return m, acc


def _trace_value(group, word, d) -> complex:
    m, (t, e1, e2) = _element(group, word)
    w = cmath.exp(2j * cmath.pi / m)
    if t == "d":
        return sum(w ** (e1 * i + e2 * (d - i)) for i in range(d + 1))
    if d % 2:
        return 0j
    i = d // 2
    return w ** ((e1 + e2) * i) * (-1) ** i  # q = -1 for every antidiagonal group here


def check_query(argv: list[str], facts: dict, rc, out: str) -> list[str]:
    """Problems with one query's exit code and stdout (stderr is ignored)."""
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        payload = json.loads(out)
    except ValueError:
        return ["stdout is not one JSON document"]
    cmd = argv[0]
    problems = []
    if cmd == "classify":
        rep = payload["report"]
        g = facts["group"]
        if g[0] == "gnk":
            small, hdet = oracle.gnk_is_small(g[1], g[2]), g[2] == 1
        elif g[0] == "cyclic":
            small, hdet = True, g[3] == g[2] - 1
        else:
            small, hdet = True, g[1] == 2
        if rep["is_small"] != small or rep["hdet_trivial"] != hdet:
            problems.append(f"is_small={rep['is_small']} hdet_trivial={rep['hdet_trivial']}, "
                            f"closed forms give {small}, {hdet}")
    elif cmd == "molien":
        g = facts["group"]
        expected = oracle.molien(_oracle_group(g), facts["N"], q_minus_one=g[0] == "gnk")
        if [Fraction(c) for c in payload["series"]] != expected:
            problems.append("series differs from the trace average")
    elif cmd == "trace":
        series = payload["series"]
        if len(series) != facts["N"] + 1:
            problems.append("series has the wrong length")
        for d, text in enumerate(series):
            if abs(_eval_cyclo(text) - _trace_value(facts["group"], facts["word"], d)) > 1e-6:
                problems.append(f"trace in degree {d} is {text}")
                break
    elif cmd == "hj":
        data, mode, (a, b) = payload["data"], facts["mode"], facts["nums"]
        if mode == "expand":
            g = gcd(a, b)
            e = data["entries"]
            if oracle.hj_value(e) != (a // g, b // g) or e[0] < 1 or min(e[1:], default=2) < 2:
                problems.append(f"expansion {e} of {a}/{b}")
        elif mode == "typea":
            if (oracle.hj_value(data["beta"]) != (a, a - b) or data["i"][-1] != 0
                    or data["j"][-1] != a):
                problems.append("type A series fail their terminal values")
        elif mode == "typed":
            if oracle.hj_value(data["beta"]) != (a, a - b) or data["r"][-1] != 0:
                problems.append("type D series fail their terminal values")
        elif (data["r"][-2:] != [1, 0] or data["s"][-1] != b or data["t"][-1] != a):
            problems.append("nc series fail their terminal values")
    elif cmd == "generators":
        ver = payload["verification"]
        if not ver["ok"] or ver["first_failure"] is not None or ver["N"] != facts["N"]:
            problems.append(f"verification {ver}")
    elif cmd == "gnk-basis":
        dim = oracle.molien(oracle.gnk_group(facts["n"], facts["k"]), facts["d"], True)[-1]
        if payload["dimension"] != dim or len(payload["basis"]) != dim:
            problems.append(f"dimension {payload['dimension']} != Molien coefficient {dim}")
    elif cmd == "theta":
        n, k, N = facts["n"], facts["k"], facts["N"]
        ev = payload["evidence"]
        if payload["target"] != oracle.theta_target(n, k):
            problems.append(f"target {payload['target']}")
        if not (ev["molien_equal"] and ev["generator_degrees_equal"]):
            problems.append("evidence does not hold")
        if ev["molien_gnk"] != oracle.molien(oracle.gnk_group(n, k), N, True):
            problems.append("molien_gnk differs from the trace average")
    elif cmd == "auslander":
        if payload["witness"] != facts["witness"]:
            problems.append(f"witness {payload['witness']} != {facts['witness']}")
        per = payload["per_degree"]
        full = [r["ideal_dim"] == r["ambient_dim"] for r in per]
        if any(r["ideal_dim"] > r["ambient_dim"] for r in per) or not all(full[facts["witness"]:]):
            problems.append("per-degree dims contradict the witness")
    return problems


def run_cli(mods: Modules, argv: list[str]) -> tuple[int | str, str]:
    """One query in-process: (exit code, captured stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = mods.cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects a malformed argv this way
            rc = exc.code
    return rc, out.getvalue()


def stream_digest(records: list[tuple[list[str], object, str]]) -> str:
    h = hashlib.sha256()
    for argv, rc, out in records:
        h.update(json.dumps([argv, rc, out]).encode())
    return h.hexdigest()


def cli_jobs(mods: Modules, seed: int) -> list[Job]:
    jobs = []
    for i, (argv, facts) in enumerate(draw_queries(seed)):
        run = (lambda argv=argv: run_cli(mods, argv))
        check = (lambda res, argv=argv, facts=facts: check_query(argv, facts, *res))
        jobs.append(Job(" ".join(argv), run, check, smoke=i < 12))
    return jobs


def build(workload: str, mods: Modules, refs: dict, seed: int) -> list[Job]:
    """The workload's jobs.  The seed draws the cli_sweep queries.

    The fixture workloads keep one order.  Their jobs share caches and the
    collector's heap, so a job's time depends on what ran before it in the
    process: with the order shuffled by the seed, job_p50_s (a single job of
    7 or 23) spread by 0.44 over ten seeds.
    """
    if workload == "cli_sweep":
        return cli_jobs(mods, seed)
    return presentations_jobs(mods) if workload == "presentations" else auslander_jobs(mods, refs)


WORKLOADS = ("presentations", "auslander", "cli_sweep")
