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


# stdout digests recorded at the commits before two changes, which must
# reproduce them byte for byte: group products that keep their exponent form
# (the first nine), and roots of unity built once per order by one reduction
# modulo Phi_m, with the smash-product index keyed by exponents (the rest)
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
]


@pytest.mark.parametrize(
    "argv,digest",
    MONOMIAL_CORE_DIGESTS,
    ids=["trace53_g2h", "trace53_h3", "trace42_ghg", "trace42_g4h2", "molien_comm6_5",
         "theta34", "generators21", "classify64", "gh53", "classify29_23", "classify30_24",
         "molien_q7_cyclic9_4", "molien_gnk87", "trace75_gh3", "present_quantum7_3",
         "auslander53"],
)
def test_monomial_core_stdout_unchanged(capsys, argv, digest):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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


def _verify_stdin(capsys, text, *extra):
    stdin_backup = sys.stdin
    try:
        sys.stdin = io.StringIO(text)
        return run_cli(
            capsys,
            "verify-pres", "--stdin", "--algebra", "jordan", "--group", "cyclic", "2", "1",
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
