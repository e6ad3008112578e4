import hashlib
import io
import json
import sys

import pytest

from skewinv.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_molien_gnk73(capsys):
    code, out, _ = run_cli(
        capsys, "molien", "--algebra", "qminus1", "--group", "gnk", "7", "3", "--N", "36"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    series = [int(c) for c in payload["series"]]
    assert series[0] == 1
    assert series[9] == 1 and series[12] == 1 and series[15] == 1
    assert series[30] == 2  # 30 = 15+15 = 9+21 and t^30 subtracted once


def test_classify_non_small(capsys):
    code, out, _ = run_cli(
        capsys, "classify", "--algebra", "qminus1", "--group", "gnk", "3", "2"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["report"]["is_small"] is False


def test_classify_rejects_commutative(capsys):
    code, _, err = run_cli(
        capsys, "classify", "--algebra", "commutative", "--group", "cyclic", "3", "1"
    )
    assert code == 1
    assert "not commutative" in err or "q = 1" in err


def test_classify_warns_on_reducible_pair(capsys):
    code, out, err = run_cli(
        capsys, "classify", "--algebra", "qminus1", "--group", "gnk", "2", "4"
    )
    assert code == 0
    assert "reduces" in err
    assert json.loads(out)["report"]["order"] == 8


def test_hj_expand(capsys):
    code, out, _ = run_cli(capsys, "hj", "expand", "17", "14")
    assert code == 0
    assert json.loads(out)["data"]["entries"] == [2, 2, 2, 2, 3, 2]


def test_hj_bare_form_defaults_to_expand(capsys):
    code, out, _ = run_cli(capsys, "hj", "17", "14")
    assert code == 0
    assert json.loads(out)["data"]["entries"] == [2, 2, 2, 2, 3, 2]


def test_auslander_default_N(capsys):
    code, out, _ = run_cli(
        capsys, "auslander", "--algebra", "qminus1", "--group", "gnk", "3", "1"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["N"] == 16  # 4nk + 4
    assert payload["truncated"] is False
    assert payload["witness"] == 4


def test_verify_pres_default_N(capsys):
    code, out, _ = run_cli(capsys, "verify-pres", "--family", "jordan", "--n", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["N"] == 12  # 2*max relation degree + 2*max generator degree
    assert payload["ok"] is True


def test_hj_nc(capsys):
    code, out, _ = run_cli(capsys, "hj", "nc", "7", "3")
    assert code == 0
    data = json.loads(out)["data"]
    assert data["r"] == [4, 1, 0]
    assert data["s"] == [1, 1, 3]
    assert data["t"] == [5, 3, 7]


def test_hj_invalid_input_exit_code(capsys):
    code, _, err = run_cli(capsys, "hj", "nc", "4", "2")
    assert code == 1
    assert "error" in err


def test_generators_with_verify(capsys):
    code, out, _ = run_cli(
        capsys,
        "generators", "--algebra", "qminus1", "--group", "gnk", "3", "1", "--verify", "16",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["set"]["degrees"] == [5, 3, 4]
    assert payload["verification"]["ok"] is True


def test_trace_element(capsys):
    code, out, _ = run_cli(
        capsys,
        "trace", "--algebra", "qminus1", "--group", "gnk", "3", "1",
        "--element", "h", "--N", "8",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["series"] == ["1", "0", "-1", "0", "1", "0", "-1", "0", "1"]
    assert "closed_form" in payload
    # a cyclic group has only g, and the hint names only the generators it has
    code, out, err = run_cli(
        capsys, "trace", "--algebra", "jordan", "--group", "cyclic", "3", "1", "--element", "h"
    )
    assert (code, out) == (1, "")
    assert err == "error: unknown generator 'h' (use g)\n"
    code, _, err = run_cli(capsys, "trace", *QM1_GNK, "3", "1", "--element", "x")
    assert code == 1 and err == "error: unknown generator 'x' (use g or h)\n"


def test_trace_element_huge_power(capsys):
    # g^(2m) = 1 for every generator, so the power is reduced mod 2m (m = 6)
    # before any product: this word takes no longer than g^4*h^3
    word = "g^1000000000*h^3"
    argv = ("trace", *QM1_GNK, "3", "1", "--N", "12", "--element")
    code, out, _ = run_cli(capsys, *argv, word)
    assert code == 0
    payload = json.loads(out)
    assert payload["element"] == word
    _, small, _ = run_cli(capsys, *argv, "g^4*h^3")
    assert payload["series"] == json.loads(small)["series"]


def test_present_verify_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "present", "--family", "jordan", "--n", "2")
    assert code == 0
    code2, out2, _ = _verify_stdin(capsys, out, "--N", "12")
    assert code2 == 0
    assert json.loads(out2)["ok"] is True


def test_verify_pres_family_direct(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify-pres", "--family", "quantum", "--n", "5", "--a", "2",
        "--q", "root:5", "--N", "24",
    )
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_auslander_witness(capsys):
    code, out, err = run_cli(
        capsys,
        "auslander", "--algebra", "qminus1", "--group", "gnk", "3", "1", "--N", "20",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["witness"] == 4
    assert "wall time" in err  # diagnostics on stderr, payload deterministic


def test_auslander_default_N_builds_group_once(capsys):
    code, out, err = run_cli(capsys, "auslander", "--algebra", "qminus1", "--group", "gnk", "2", "4")
    assert code == 0
    assert err.count("(the pair reduces)") == 1
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "c83b697104842538b164ada83d9bdb0668d1b8311146431a0ff80d4f3f6cf197"
    )


# stdout digests recorded with the dense-elimination quotient DP; the sparse
# DP must reproduce them byte for byte
VERIFY_PRES_DIGESTS = [
    (
        ("--family", "jordan", "--n", "4"),
        "ed7b905b75a02fa28c06217020250573cf3bf15fd0d4d265110d22c59f39f4f3",
    ),
    (("--family", "gnk73"), "562b84c20c93cf154a26ab760e5f269a7dcaef56affcc4bf1f953c10c06c3189"),
    (
        ("--family", "quantum", "--n", "7", "--a", "3", "--q", "root:7"),
        "3aec88ca1a6be3394f2fcbc1519cc9c166ce0ed93314645bc8a195e287902595",
    ),
]


@pytest.mark.parametrize("argv,digest", VERIFY_PRES_DIGESTS, ids=["jordan4", "gnk73", "quantum7_3"])
def test_verify_pres_stdout_unchanged(capsys, argv, digest):
    code, out, _ = run_cli(capsys, "verify-pres", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# stdout digests recorded at the commits before four changes, which must
# reproduce them byte for byte: group products that keep their exponent form
# (the first nine), roots of unity built once per order by one reduction
# modulo Phi_m, with the smash-product index keyed by exponents (up to
# auslander53), and fixed spaces read from each group's exponent keys (the
# next two, which take the brute-force generator walk); the next three were
# recorded with the Molien series as a group average of traces and the
# generator walk run to the end of every degree; the last two with separate
# diagonal and antidiagonal matrix branches in apply_aut and the traces (the
# generic span through smash twists on the Jordan plane, and an antidiagonal
# word with e1 != e2)
QM1_GNK = ("--algebra", "qminus1", "--group", "gnk")
MONOMIAL_CORE_DIGESTS = [
    (
        ("trace", *QM1_GNK, "5", "3", "--element", "g^2*h", "--N", "14"),
        "09744f24d1b3e3f1d79bc6222d8f29bfe42824b9e1da944af9fd816bbd18e4bd",
    ),
    (
        ("trace", *QM1_GNK, "5", "3", "--element", "h^3", "--N", "14"),
        "575759524ee28f5bede3de966182df5083793f9014aa02f153647bf86333b621",
    ),
    (
        ("trace", *QM1_GNK, "4", "2", "--element", "g*h*g", "--N", "14"),
        "4307524b2a66ee20fcba967f2b8f3be02173c531ee105cb60c31a394a57fc6b5",
    ),
    (
        ("trace", *QM1_GNK, "4", "2", "--element", "g^4*h^2", "--N", "14"),
        "674aed2714079f93c2fc2748ef2aa48bd295dfaf85be450a00624fd7e9b095b8",
    ),
    (
        ("molien", "--algebra", "commutative", "--group", "cyclic", "6", "5", "--N", "30"),
        "06de66e249cc63c09bfe5e8b9e4b46835a48a8c7f223bec556556f5c98fb0522",
    ),
    (("theta", "3", "4", "--N", "40"), "18656de8acd5235358c34fd50cec846345358b3c4e627a1fbe29cb8c74e582e6"),
    (
        ("generators", *QM1_GNK, "2", "1", "--verify", "20"),
        "8a36f869501b5de372fe952b73767343078befb8cc1f169730833e315bdedc48",
    ),
    (("classify", *QM1_GNK, "6", "4"), "c0ba810a942b0a5e2a4b564209b0d6690b585c83bb0d03c63c0222eeeb5c54c6"),
    (
        ("gh-identities", "5", "3", "--N", "30"),
        "6cc147ef930acbd5c9bf0dde995bb9b06291bebb4863a98effd2b3a74e67e146",
    ),
    (("classify", *QM1_GNK, "29", "23"), "51ab1cb86f6729438b55d6cb506e0bcbc5e05a58c4082ac0fc906fe83956130c"),
    (("classify", *QM1_GNK, "30", "24"), "67d233c5c794b01d9744150c2a51be12999df7f9c9953b5f1e543186efc2b38a"),
    (
        ("molien", "--algebra", "quantum", "--q", "root:7", "--group", "cyclic", "9", "4", "--N", "60"),
        "147dc5299a98adfe1f0416ba2dee0350cad25c192e09eab516c38dd247cbd0e9",
    ),
    (
        ("molien", *QM1_GNK, "8", "7", "--N", "60"),
        "1e3752d390b72f76da8d4b01eb38d215a51dadcf8cae37bd6795dd83306397ae",
    ),
    (
        ("trace", *QM1_GNK, "7", "5", "--element", "g*h^3", "--N", "24"),
        "e573090248059988c6443147db6538bd21a29ea8a77a1646b7b850370697f488",
    ),
    (
        ("present", "--family", "quantum", "--n", "7", "--a", "3", "--q", "root:7"),
        "1a24314160d1612d66d07296b5e928a5ffc1addc1340a775bcc4aab70bd0938d",
    ),
    (("auslander", *QM1_GNK, "5", "3"), "638c2da49d45acb10c0fc56315e865201a9cb0855ca5ea12f6fe2e604c22da64"),
    (
        ("generators", *QM1_GNK, "4", "3", "--verify", "24"),
        "f482e07ef7bb3b04b46a1f6c9a4a4591af1c381fa719a5a63a639082d4a3e1d4",
    ),
    (("theta", "4", "3", "--N", "40"), "bb0423ded985376e9dddf4ee8645dec53a0a7bf99acede7b47b282bf26ea944d"),
    (
        ("molien", *QM1_GNK, "29", "23", "--N", "200"),
        "b3b6b253778ebabd5392c2c78c7e7063f1aef251a1286635a765379f6521da56",
    ),
    (("theta", "1", "12", "--N", "40"), "99ca0bf16526ae76238deefba86172493c048c85036ebcecb4dad9d5325dac72"),
    (
        ("generators", *QM1_GNK, "4", "3", "--verify", "40"),
        "b2c2cced8cabf622182ff53df81f4c632c380d26e521a176b11f020406945217",
    ),
    (
        ("auslander", "--algebra", "jordan", "--group", "cyclic", "5", "1", "--N", "8"),
        "472df17dfc0d328e94c22f93edcb3f8d5c6c469cedcf0498110b384b31de3d69",
    ),
    (
        ("trace", *QM1_GNK, "3", "5", "--element", "h^3*g", "--N", "20"),
        "5e2d819cb36fe6f142e2c7c2a368ea0757d30ebf8cdb6f03f71a9f9597b56c20",
    ),
]


@pytest.mark.parametrize(
    "argv,digest",
    MONOMIAL_CORE_DIGESTS,
    ids=["trace53_g2h", "trace53_h3", "trace42_ghg", "trace42_g4h2", "molien_comm6_5",
         "theta34", "generators21", "classify64", "gh53", "classify29_23", "classify30_24",
         "molien_q7_cyclic9_4", "molien_gnk87", "trace75_gh3", "present_quantum7_3",
         "auslander53", "generators43", "theta43", "molien_gnk29_23", "theta1_12",
         "generators43_40", "auslander_jordan5_1", "trace35_h3g"],
)
def test_monomial_core_stdout_unchanged(capsys, argv, digest):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_generators_jordan_verify_stdout_unchanged(capsys):
    # recorded with the exact generation check as the only path
    code, out, _ = run_cli(
        capsys, "generators", "--algebra", "jordan", "--group", "cyclic", "4", "1", "--verify", "24"
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "b02d3512152205d00813a33eda02222175c403b316a80eddb76ba5c0231028cb"
    )


def test_main_reuses_one_parser(capsys):
    from skewinv import cli

    queries = [
        ("molien", *QM1_GNK, "3", "1", "--N", "12", "--format", "text"),
        ("molien", *QM1_GNK, "3", "1", "--N", "12"),
        ("hj", "17", "14"),
        ("molien", "--algebra", "qminus1", "--N", "12"),  # no --group: argparse exits 2
        ("generators", "--algebra", "jordan", "--group", "cyclic", "2", "1", "--verify", "8"),
    ]

    def run(argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        return code, capsys.readouterr().out

    reused = [run(argv) for argv in queries]
    assert cli.build_parser() is cli.build_parser()
    fresh = []
    for argv in queries:
        cli.build_parser.cache_clear()
        fresh.append(run(argv))
    assert reused == fresh
    assert [code for code, _ in reused] == [0, 0, 0, 2, 0]
    assert not reused[0][1].startswith("{") and json.loads(reused[1][1])["command"] == "molien"


def test_classify_builds_no_root_table(capsys, monkeypatch):
    # classification reads exponent keys, so G_(29,23) needs no w_1334 table
    from skewinv import scalars

    orders = []
    roots = scalars._roots

    def spy(m):
        orders.append(m)
        return roots(m)

    monkeypatch.setattr(scalars, "_roots", spy)
    code, out, _ = run_cli(capsys, "classify", *QM1_GNK, "29", "23")
    assert code == 0 and json.loads(out)["report"]["order"] == 1334
    assert 1334 not in orders


def test_auslander_degenerate_gnk_takes_graph_path(capsys):
    # G_(6,4) is G_(3,4): the default N used to run the generic span for 70 s
    code, out, err = run_cli(capsys, "auslander", *QM1_GNK, "6", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["witness"] == 13 and payload["first_full_degree"] == 13
    assert "(gh_basis_graph)" in err
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "77240552b1a8b6f03b05ae879949ac6c9dd221bc3273e1a149979b9f58743ee2"
    )


def test_auslander_gnk33_takes_character_path(capsys):
    # G_(3,3) (n and k not coprime, not small) used to take the generic span;
    # the digest was recorded with it at N = 10, where it took 5 s
    code, out, err = run_cli(capsys, "auslander", *QM1_GNK, "3", "3", "--N", "10")
    assert code == 0
    assert "(gh_basis_graph)" in err
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "346cdcf0f4eca363d5039213f74a3e62b14c8bbae5c855dc31b511e8b05b943c"
    )
    code, out, _ = run_cli(capsys, "auslander", *QM1_GNK, "3", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["N"] == 40 and payload["witness"] == "not_found"


def test_auslander_generic_span_over_order_12(capsys):
    # G_(2,3) keeps the generic span, over Q(w_12); the digest was recorded
    # with scalars stored as one Fraction per coordinate
    code, out, err = run_cli(capsys, "auslander", *QM1_GNK, "2", "3", "--N", "12")
    assert code == 0
    assert "(generic_span)" in err
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "d8b0541dd3f598f9d646104660afb3f96eb5b2f451f2ddd57bf427e2c64f4601"
    )


def test_zero_denominators_rejected(capsys):
    code, out, err = run_cli(
        capsys, "molien", "--algebra", "quantum", "--q", "1/0", "--group", "cyclic", "3", "1",
        "--N", "4",
    )
    assert code == 1
    assert out == ""
    assert err == "error: --q 1/0 has a zero denominator\n"
    _, pres, _ = run_cli(capsys, "present", "--family", "jordan", "--n", "2")
    data = json.loads(pres)["presentation"]
    data["relations"][0][0]["coeff"]["coeffs"][0] = "1/0"
    code, out, err = _verify_stdin(capsys, json.dumps(data))
    assert code == 1
    assert out == ""
    assert err == "error: presentation JSON has a coefficient with a zero denominator\n"


def test_auslander_not_found(capsys):
    code, out, _ = run_cli(
        capsys,
        "auslander", "--algebra", "qminus1", "--group", "gnk", "3", "2", "--N", "16",
    )
    assert code == 0
    assert json.loads(out)["witness"] == "not_found"


def test_gnk_basis_command(capsys):
    code, out, _ = run_cli(capsys, "gnk-basis", "7", "3", "--d", "9")
    assert code == 0
    payload = json.loads(out)
    assert payload["dimension"] == 1
    assert payload["basis"] == ["-1 * u^1 * v^8 + 1 * u^8 * v^1"]


def test_theta_command(capsys):
    code, out, _ = run_cli(capsys, "theta", "2", "1", "--N", "16")
    assert code == 0
    payload = json.loads(out)
    assert payload["target"] == {"kind": "cyclic", "order": 4, "weight": 3}


def test_deterministic_output(capsys):
    args = ("molien", "--algebra", "qminus1", "--group", "gnk", "3", "1", "--N", "12")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_quantum_algebra_flag(capsys):
    code, out, _ = run_cli(
        capsys,
        "molien", "--algebra", "quantum", "--q", "root:5",
        "--group", "cyclic", "5", "2", "--N", "10",
    )
    assert code == 0
    series = [int(c) for c in json.loads(out)["series"]]
    # the trace is q-independent for diagonal groups, so count monomials
    # u^i v^j with i + 2j = 0 mod 5 directly
    expected = [
        sum(1 for i in range(d + 1) if (i + 2 * (d - i)) % 5 == 0) for d in range(11)
    ]
    assert series == expected


def test_text_format(capsys):
    code, out, _ = run_cli(
        capsys,
        "molien", "--algebra", "qminus1", "--group", "gnk", "3", "1",
        "--N", "6", "--format", "text",
    )
    assert code == 0
    assert "series" in out


def test_negative_size_flags_rejected(capsys):
    cases = [
        ("molien", "--algebra", "qminus1", "--group", "gnk", "3", "1", "--N", "-1"),
        ("trace", "--algebra", "qminus1", "--group", "gnk", "3", "1", "--N", "-2"),
        ("auslander", "--algebra", "qminus1", "--group", "gnk", "3", "1", "--N", "-1"),
        ("generators", "--algebra", "qminus1", "--group", "gnk", "3", "1", "--verify", "-1"),
        ("verify-pres", "--family", "jordan", "--n", "2", "--N", "-1"),
        ("gnk-basis", "7", "3", "--d", "-1"),
        ("theta", "2", "1", "--N", "-1"),
        ("gh-identities", "3", "1", "--N", "-1"),
    ]
    for argv in cases:
        code, out, err = run_cli(capsys, *argv)
        assert code == 1, argv
        assert out == ""
        assert err.startswith("error: --") and "non-negative" in err
        assert len(err.strip().splitlines()) == 1


def _verify_stdin(capsys, text, *extra, n="2"):
    stdin_backup = sys.stdin
    try:
        sys.stdin = io.StringIO(text)
        return run_cli(
            capsys,
            "verify-pres", "--stdin", "--algebra", "jordan", "--group", "cyclic", n, "1",
            *extra,
        )
    finally:
        sys.stdin = stdin_backup


def test_verify_pres_stdin_missing_degree(capsys):
    _, pres, _ = run_cli(capsys, "present", "--family", "jordan", "--n", "2")
    data = json.loads(pres)["presentation"]
    del data["generators"][1]["degree"]
    code, out, err = _verify_stdin(capsys, json.dumps(data))
    assert code == 1
    assert out == ""
    assert err == "error: presentation JSON has no 'degree' field\n"
    data["generators"][1]["degree"] = "2"
    code, out, err = _verify_stdin(capsys, json.dumps(data))
    assert code == 1
    assert err.startswith("error: malformed presentation JSON")


def test_verify_pres_stdin_undefined_generator(capsys):
    # the word's generator index is checked before its degree is read
    data = {
        "generators": [{"name": "a", "degree": 2}],
        "relations": [[{"coeff": {"order": 1, "coeffs": ["1"]}, "word": [5]}]],
    }
    code, out, err = _verify_stdin(capsys, json.dumps(data))
    assert code == 1
    assert out == ""
    assert err == "error: word (5,) uses an undefined generator\n"
    assert "Traceback" not in err


def _coeff_data(coeff):
    return {
        "generators": [{"name": "a", "degree": 2}],
        "relations": [[{"coeff": coeff, "word": [0, 0]}]],
    }


@pytest.mark.parametrize(
    "coeff,message",
    [
        ({"order": 2.5, "coeffs": ["1"]}, "coefficient order must be an integer >= 1, got 2.5"),
        ({"order": True, "coeffs": ["1"]}, "coefficient order must be an integer >= 1, got True"),
        ({"order": 1, "coeffs": [float("inf")]}, "coefficients must be a list of strings or integers, got [inf]"),
        ({"order": 1, "coeffs": [0.5]}, "coefficients must be a list of strings or integers, got [0.5]"),
    ],
    ids=["float_order", "bool_order", "infinite_coeff", "float_coeff"],
)
def test_verify_pres_stdin_rejects_non_integer_json(capsys, coeff, message):
    # Cyclo.to_json writes an integer order and string coefficients; JSON
    # floats used to reach Cyclo (inf raised OverflowError, and 2.5 asked
    # for "1.5 coefficients")
    code, out, err = _verify_stdin(capsys, json.dumps(_coeff_data(coeff)), "--N", "4", n="2")
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "order,message",
    [
        ("1e400", "coefficient order must be an integer >= 1, got inf"),
        (str(2 ** 89 - 1), f"1 coefficients are too few for order {2 ** 89 - 1}"),
    ],
    ids=["infinite", "huge"],
)
def test_verify_pres_stdin_unbounded_order_exits(order, message):
    # "order": 1e400 reads as float inf, and euler_phi(inf) never returned;
    # the prime order 2^89 - 1 was factored by trial division up to its
    # square root.  Each run is bounded by a timeout rather than left to hang
    # the suite
    import os
    import subprocess

    import skewinv

    src = os.path.dirname(os.path.dirname(skewinv.__file__))
    text = json.dumps(_coeff_data({"order": 1, "coeffs": ["1"]})).replace('"order": 1', f'"order": {order}')
    argv = [sys.executable, "-m", "skewinv.cli", "verify-pres", "--stdin", "--algebra", "jordan",
            "--group", "cyclic", "2", "1", "--N", "4"]
    env = dict(os.environ, PYTHONPATH=src)
    try:
        proc = subprocess.run(argv, input=text, capture_output=True, text=True, timeout=20, env=env)
    except subprocess.TimeoutExpired:
        pytest.fail("verify-pres --stdin did not return on order 1e400")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == f"error: {message}\n"


def test_verify_pres_stdin_empty_relations(capsys):
    _, pres, _ = run_cli(capsys, "present", "--family", "jordan", "--n", "2")
    data = json.loads(pres)["presentation"]
    data["relations"] = []
    for extra in ((), ("--N", "6")):
        code, out, err = _verify_stdin(capsys, json.dumps(data), *extra)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "'relations'" in err
        assert len(err.strip().splitlines()) == 1


def _wrong_coefficient(data):
    data["relations"][0][0]["coeff"]["coeffs"] = ["2"]


def _drop_last_relation(data):
    del data["relations"][-1]


# stdout digests recorded with the exact quotient DP as the only path; these
# presentations fail the mod-p certificate and must print the exact dims
@pytest.mark.parametrize(
    "change,digest",
    [
        (_wrong_coefficient, "e56e0da19f85c48c7151145887ad83c534abbf5e7f3a5162ab9cb2629cd3ff87"),
        (_drop_last_relation, "fe8a04bc72ed29b2b8ac7605bbd60d8b6522f3b275c87ab6bdbc6879448180d4"),
    ],
    ids=["wrong_coefficient", "relation_dropped"],
)
def test_verify_pres_stdin_fallback_stdout_unchanged(capsys, change, digest):
    _, pres, _ = run_cli(capsys, "present", "--family", "jordan", "--n", "3")
    data = json.loads(pres)["presentation"]
    change(data)
    code, out, _ = _verify_stdin(capsys, json.dumps(data), "--N", "18", n="3")
    assert code == 0
    assert json.loads(out)["ok"] is False
    assert hashlib.sha256(out.encode()).hexdigest() == digest
