"""Command-line front end.

Subcommands: classify, trace, molien, hj (expand/typea/typed/nc), generators,
present, verify-pres, auslander, gnk-basis.  All numeric output is exact:
rationals render as "p/q" strings, cyclotomic scalars as coefficient lists
with their declared order.  Output is deterministic for identical requests
(diagnostics such as wall time go to stderr).  Exit codes: 0 success (possibly
with a not-found payload), 1 invalid parameters, 2 internal inconsistency.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from functools import lru_cache

from .auslander import finite_dim_witness, verify_GH_identities
from .errors import InternalInconsistencyError, SkewInvError
from .group_actions import CyclicDiag, GradedAut, GroupSpec, group_report, trace
from .hj_series import hj_expand, nc_series, typeA_data, typeD_data
from .invariants import (
    generator_set,
    gnk_basis,
    molien,
    theta_correspondence,
    verify_generation,
)
from .presentations import (
    Presentation,
    gnk73_presentation,
    jordan_presentation,
    quantum_presentation,
    verify_presentation,
)
from .scalars import Cyclo
from .skew_algebra import AlgebraSpec, to_text

SCHEMA = 1


def _parse_q(text: str) -> Cyclo:
    if text.startswith("root:"):
        m = int(text.split(":", 1)[1])
        if m < 1:
            raise ValueError("root order must be positive")
        return Cyclo.root(m)
    try:
        return Cyclo.from_rational(Fraction(text))
    except ZeroDivisionError:
        raise ValueError(f"--q {text} has a zero denominator") from None


def _algebra_from_args(args) -> AlgebraSpec:
    kind = args.algebra
    if kind == "jordan":
        return AlgebraSpec.jordan()
    if kind == "commutative":
        return AlgebraSpec.commutative()
    if kind == "qminus1":
        return AlgebraSpec.quantum(Cyclo.from_rational(-1))
    if kind == "quantum":
        if args.q is None:
            raise ValueError("--algebra quantum needs --q (root:m or a rational)")
        return AlgebraSpec.quantum(_parse_q(args.q))
    raise ValueError(f"unknown algebra {kind!r}")


def _group_from_args(args, spec: AlgebraSpec) -> GroupSpec:
    tokens = args.group
    if not tokens:
        raise ValueError("--group needs a kind and parameters")
    kind = tokens[0]
    params = [int(t) for t in tokens[1:]]
    if kind == "cyclic":
        if len(params) != 2:
            raise ValueError("--group cyclic needs n and a")
        return GroupSpec.cyclic(params[0], params[1], spec)
    if kind == "gnk":
        if len(params) != 2:
            raise ValueError("--group gnk needs n and k")
        if not (spec.is_quantum and spec.q == -1):
            raise ValueError("the G_{n,k} family acts on the (-1)-quantum plane")
        G = GroupSpec.gnk(*params)
        same = G.variant.coincides_with
        if same is not None:
            print(
                f"warning: {G.describe()} coincides with G_({same.n},{same.k}) "
                "(the pair reduces)",
                file=sys.stderr,
            )
        return G
    raise ValueError(f"unknown group kind {kind!r} (use cyclic or gnk)")


def _reject_commutative_for_classification(spec: AlgebraSpec) -> None:
    if spec.is_commutative:
        raise ValueError(
            "classification assumes the plane is not commutative (q = 1 rejected)"
        )


def _series_json(series) -> list[str]:
    return [str(c.rational_value()) if c.is_rational() else str(c) for c in series.coeffs]


def _emit(payload: dict, args) -> None:
    payload = {"schema": SCHEMA, **payload}
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        _emit_text(payload)


def _emit_text(payload: dict, indent: int = 0) -> None:
    pad = " " * indent
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, dict):
            print(f"{pad}{key}:")
            _emit_text(value, indent + 2)
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            print(f"{pad}{key}:")
            for item in value:
                print(f"{pad}  -")
                _emit_text(item, indent + 4)
        else:
            print(f"{pad}{key}: {value}")


def _parse_element(G: GroupSpec, text: str) -> GradedAut:
    gens = G.generators()
    names = {"g": gens[0]}
    if len(gens) > 1:
        names["h"] = gens[1]
    acc = GradedAut.identity_elt()
    if text in ("e", "1", ""):
        return acc
    for token in text.split("*"):
        token = token.strip()
        if "^" in token:
            name, pw = token.split("^", 1)
            power = int(pw)
        else:
            name, power = token, 1
        if name not in names:
            raise ValueError(f"unknown generator {name!r} (use {' or '.join(names)})")
        if power < 0:
            raise ValueError("use non-negative powers")
        # g^(2m) = 1 for every generator over w_m: a diagonal one has order
        # dividing m and an antidiagonal one squares to a scalar matrix
        for _ in range(power % (2 * G.root_order)):
            acc = acc @ names[name]
    return acc


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_classify(args) -> dict:
    spec = _algebra_from_args(args)
    _reject_commutative_for_classification(spec)
    G = _group_from_args(args, spec)
    return {"command": "classify", "report": group_report(G)}


def _cmd_trace(args) -> dict:
    spec = _algebra_from_args(args)
    G = _group_from_args(args, spec)
    g = _parse_element(G, args.element)
    series, closed = trace(spec, g, args.N)
    payload = {
        "command": "trace",
        "group": G.describe(),
        "element": args.element,
        "N": args.N,
        "series": _series_json(series),
    }
    if closed is not None:
        payload["closed_form"] = closed.to_json()
    return payload


def _cmd_molien(args) -> dict:
    spec = _algebra_from_args(args)
    G = _group_from_args(args, spec)
    series = molien(spec, G, args.N)
    return {
        "command": "molien",
        "algebra": spec.describe(),
        "group": G.describe(),
        "N": args.N,
        "series": _series_json(series),
    }


def _cmd_hj(args) -> dict:
    mode = args.mode
    if mode == "expand":
        exp = hj_expand(args.p, args.q)
        return {"command": "hj", "mode": "expand", "data": exp.to_json()}
    if mode == "typea":
        return {"command": "hj", "mode": "typea", "data": typeA_data(args.p, args.q).to_json()}
    if mode == "typed":
        return {"command": "hj", "mode": "typed", "data": typeD_data(args.p, args.q).to_json()}
    if mode == "nc":
        return {"command": "hj", "mode": "nc", "data": nc_series(args.p, args.q).to_json()}
    raise ValueError(f"unknown hj mode {mode!r}")


def _cmd_generators(args) -> dict:
    spec = _algebra_from_args(args)
    _reject_commutative_for_classification(spec)
    G = _group_from_args(args, spec)
    gens = generator_set(spec, G)
    payload = {"command": "generators", "group": G.describe(), "set": gens.to_json()}
    if args.verify is not None:
        report = verify_generation(spec, G, gens, args.verify)
        payload["verification"] = {
            "ok": report["ok"],
            "first_failure": report["first_failure"],
            "N": report["N"],
        }
    return payload


def _build_presentation(args) -> tuple[Presentation, AlgebraSpec | None, GroupSpec | None]:
    fam = args.family
    if fam == "jordan":
        if args.n is None:
            raise ValueError("--family jordan needs --n")
        spec = AlgebraSpec.jordan()
        return jordan_presentation(args.n), spec, GroupSpec.cyclic(args.n, 1, spec)
    if fam == "quantum":
        if args.n is None or args.a is None or args.q is None:
            raise ValueError("--family quantum needs --n, --a and --q")
        q = _parse_q(args.q)
        spec = AlgebraSpec.quantum(q)
        return (
            quantum_presentation(args.n, args.a, q),
            spec,
            GroupSpec.cyclic(args.n, args.a, spec),
        )
    if fam == "gnk73":
        spec = AlgebraSpec.quantum(Cyclo.from_rational(-1))
        return gnk73_presentation(), spec, GroupSpec.gnk(7, 3)
    raise ValueError(f"unknown presentation family {fam!r}")


def _cmd_present(args) -> dict:
    pres, _, _ = _build_presentation(args)
    return {"command": "present", "family": args.family, "presentation": pres.to_json()}


def _cmd_verify_pres(args) -> dict:
    if args.stdin:
        data = json.load(sys.stdin)
        if not isinstance(data, dict):
            raise ValueError("the presentation JSON must be an object")
        pres = Presentation.from_json(data.get("presentation", data))
        if not pres.relations:
            raise ValueError(
                "the presentation JSON has an empty 'relations' list; an invariant "
                "ring of the plane needs at least one relation"
            )
        spec = _algebra_from_args(args)
        G = _group_from_args(args, spec)
    else:
        pres, spec, G = _build_presentation(args)
    N = args.N
    if N is None:
        max_rel = max(pres.relation_degree(i) for i in range(len(pres.relations)))
        N = 2 * max_rel + 2 * max(pres.gen_degrees)
    report = verify_presentation(spec, G, pres, N)
    return {
        "command": "verify-pres",
        "group": G.describe(),
        "N": N,
        "ok": report["ok"],
        "relations_vanish": report["relations_vanish"],
        "first_dimension_mismatch": report["first_dimension_mismatch"],
        "quotient_dims": report["quotient_dims"],
        "invariant_dims": report["invariant_dims"],
    }


def _cmd_auslander(args) -> dict:
    spec = _algebra_from_args(args)
    G = _group_from_args(args, spec)
    N, truncated = args.N, False
    if N is None:
        default = _default_auslander_N(G)
        N = min(default, AUSLANDER_CAP)
        truncated = N < default
    t0 = time.perf_counter()
    report = finite_dim_witness(spec, G, N)
    wall = round(time.perf_counter() - t0, 6)
    print(f"wall time: {wall}s ({report['method']})", file=sys.stderr)
    return {
        "command": "auslander",
        "group": G.describe(),
        "algebra": spec.describe(),
        "N": report["N"],
        "truncated": truncated,
        "witness": report["witness"] if report["found"] else "not_found",
        "first_full_degree": report["first_full_degree"],
        "tail_needed": report["tail_needed"],
        "per_degree": report["per_degree"],
    }


def _cmd_gnk_basis(args) -> dict:
    basis = gnk_basis(args.n, args.k, args.d)
    return {
        "command": "gnk-basis",
        "n": args.n,
        "k": args.k,
        "degree": args.d,
        "dimension": len(basis),
        "basis": [to_text(b) for b in basis],
    }


def _cmd_theta(args) -> dict:
    record = theta_correspondence(args.n, args.k, args.N)
    return {"command": "theta", **record}


def _cmd_gh(args) -> dict:
    report = verify_GH_identities(args.n, args.k, args.N)
    return {"command": "gh-identities", **report}


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process: it keeps no state between
    `parse_args` calls, each of which returns a fresh Namespace."""
    parser = argparse.ArgumentParser(
        prog="skewinv",
        description="Exact invariant theory of the quantum and Jordan planes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, group=True):
        p.add_argument(
            "--algebra",
            choices=["jordan", "commutative", "qminus1", "quantum"],
            required=True,
        )
        p.add_argument("--q", help="quantum parameter: root:m for w_m, or a rational p/q")
        if group:
            p.add_argument(
                "--group",
                nargs="+",
                required=True,
                metavar=("KIND", "PARAM"),
                help="cyclic n a | gnk n k",
            )
        p.add_argument("--format", choices=["json", "text"], default="json")

    p = sub.add_parser("classify", help="order/smallness/hdet/Gorenstein report")
    common(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("trace", help="trace series of one group element")
    common(p)
    p.add_argument("--element", default="g", help="word in g and h, e.g. g^2*h")
    p.add_argument("--N", type=int, default=16)
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("molien", help="Hilbert series of the invariant ring")
    common(p)
    p.add_argument("--N", type=int, required=True)
    p.set_defaults(func=_cmd_molien)

    p = sub.add_parser("hj", help="continued fractions and derived series")
    p.add_argument("mode", choices=["expand", "typea", "typed", "nc"])
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.set_defaults(func=_cmd_hj)

    p = sub.add_parser("generators", help="explicit invariant-ring generators")
    common(p)
    p.add_argument("--verify", type=int, help="verify generation up to this degree")
    p.set_defaults(func=_cmd_generators)

    p = sub.add_parser("present", help="emit a presentation as JSON")
    p.add_argument("--family", choices=["jordan", "quantum", "gnk73"], required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--a", type=int)
    p.add_argument("--q")
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.set_defaults(func=_cmd_present)

    p = sub.add_parser("verify-pres", help="verify a presentation against the invariants")
    p.add_argument("--family", choices=["jordan", "quantum", "gnk73"])
    p.add_argument("--n", type=int)
    p.add_argument("--a", type=int)
    p.add_argument("--q")
    p.add_argument("--N", type=int)
    p.add_argument("--stdin", action="store_true", help="read presentation JSON from stdin")
    p.add_argument(
        "--algebra",
        choices=["jordan", "commutative", "qminus1", "quantum"],
        help="needed with --stdin",
    )
    p.add_argument("--group", nargs="+", help="needed with --stdin")
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.set_defaults(func=_cmd_verify_pres)

    p = sub.add_parser("auslander", help="degree-truncated Auslander witness search")
    common(p)
    p.add_argument("--N", type=int, help="degree cap (default from the group data)")
    p.set_defaults(func=_cmd_auslander)

    p = sub.add_parser("gnk-basis", help="fixed-space basis of G_{n,k} at one degree")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.set_defaults(func=_cmd_gnk_basis)

    p = sub.add_parser("theta", help="commutative correspondence for G_{n,k}")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.add_argument("--N", type=int, default=40)
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.set_defaults(func=_cmd_theta)

    p = sub.add_parser("gh-identities", help="the G_l/H_l identity battery")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.set_defaults(func=_cmd_gh)

    return parser


AUSLANDER_CAP = 120


def _default_auslander_N(G) -> int:
    v = G.variant
    if isinstance(v, CyclicDiag):
        return 2 * (v.n - 1) + 4
    return 4 * v.n * v.k + 4


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    # `hj P Q` is shorthand for `hj expand P Q`
    if argv and argv[0] == "hj" and len(argv) >= 2 and argv[1].lstrip("-").isdigit():
        argv.insert(1, "expand")
    args = build_parser().parse_args(argv)
    try:
        for flag in ("N", "d", "verify"):
            value = getattr(args, flag, None)
            if value is not None and value < 0:
                raise ValueError(f"--{flag} must be non-negative, got {value}")
        payload = args.func(args)
    except InternalInconsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 2
    except (SkewInvError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _emit(payload, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
