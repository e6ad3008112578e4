"""Record or check the CLI's stdout and exit codes on a fixed command set.

    python3 tools/cli_golden.py record FILE   # write the sha256 of stdout and the exit code
    python3 tools/cli_golden.py check FILE    # compare with FILE; exit 1 on any difference

Every command runs in this process through `skewinv.cli.main`, against the
`src/` of the checkout that holds this file.  The set:
 - every `draw_queries` query of seeds 0-9 (perfbench/workloads.py);
 - the README commands, with the `present | verify-pres --stdin` pipe, and
   `verify-pres --stdin` on presentations with one relation dropped;
 - the `--format text` form of every README command and of the pipe;
 - every digest command of tests/test_cli.py;
 - two commands at a large root order (LARGE_ORDER), which reach the
   root-power and mixed-order scalar paths of the product spans;
 - `generators ... --verify 4` on every G_(n,k) that the brute-force walk
   serves with nk <= 24 (BRUTE_FORCE), and on G_(40,41);
 - `molien ... --N 400` on one group of each family (MOLIEN_FAMILIES);
 - `molien ... gnk n k --N 60` for n, k <= 12;
 - the default `auslander` on G_(n,k) with n odd and nk <= 15, and on
   1/n(1,a) over q = w_5 with n <= 9;
 - the default `auslander` on the generic span (GENERIC_SPAN): G_(4,3),
   G_(2,5) and G_(4,1), and Jordan 1/n(1,1) for n = 2..12;
 - `verify-pres` on Jordan n = 2..8 and the quantum and G_(7,3) fixtures at
   the default N, and on a rational q;
 - `trace ... --N 9` on the words of GNK_WORDS for G_(n,k) with n, k <= 7,
   on `g h g^3*h` for G_(20,20), G_(13,9) and G_(30,7), and on the words of
   CYCLIC_WORDS for 1/n(1,a) with n <= 9 and 0 <= a < n over each plane of
   TRACE_PLANES, the error paths included.
Record the file at one commit and check it at another: a change that must
keep stdout byte-identical passes `check` with no difference.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
from math import gcd
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from skewinv.cli import main  # noqa: E402
from skewinv.group_actions import GroupSpec, is_small_closed_form  # noqa: E402

QM1_GNK = ["--algebra", "qminus1", "--group", "gnk"]

README = [
    "classify --algebra qminus1 --group gnk 3 2",
    "molien --algebra qminus1 --group gnk 7 3 --N 60",
    "trace --algebra qminus1 --group gnk 3 1 --element g^2*h --N 12",
    "hj 17 14",
    "hj typea 5 2",
    "hj typed 5 2",
    "hj nc 7 3",
    "generators --algebra qminus1 --group gnk 7 3 --verify 60",
    "present --family quantum --n 5 --a 2 --q root:5",
    "present --family jordan --n 3",
    "verify-pres --family gnk73 --N 60",
    "auslander --algebra qminus1 --group gnk 3 1 --N 24",
    "gnk-basis 7 3 --d 21",
    "theta 3 4 --N 40",
    "gh-identities 5 3 --N 30",
]

# the digest commands of tests/test_cli.py outside its two digest lists
TEST_CLI_SINGLE = [
    "auslander --algebra qminus1 --group gnk 2 4",
    "generators --algebra jordan --group cyclic 4 1 --verify 24",
    "auslander --algebra qminus1 --group gnk 6 4",
    "auslander --algebra qminus1 --group gnk 3 3 --N 10",
    "auslander --algebra qminus1 --group gnk 3 3",
    "auslander --algebra qminus1 --group gnk 2 3 --N 12",
]

LARGE_ORDER = [
    "generators --algebra qminus1 --group gnk 20 21 --verify 4",
    "theta 1 12 --N 60",
]

# the small G_(n,k) with gcd 1, n or k even and nk <= 24, and G_(1,1): the
# groups whose generators the brute-force walk finds
BRUTE_FORCE = [
    f"generators --algebra qminus1 --group gnk {n} {k} --verify 4"
    for n in range(1, 25) for k in range(1, 25)
    if n * k <= 24 and gcd(n, k) == 1 and (n % 2 == 0 or k % 2 == 0 or n == k == 1)
    and is_small_closed_form(GroupSpec.gnk(n, k))
] + ["generators --algebra qminus1 --group gnk 40 41 --verify 4"]

MOLIEN_FAMILIES = [
    *(f"molien --algebra quantum --q root:{m} --group cyclic {n} {a} --N 400"
      for m, n, a in ((3, 9, 4), (5, 10, 3), (7, 14, 5))),
    "molien --algebra jordan --group cyclic 11 1 --N 400",
    "molien --algebra qminus1 --group gnk 29 23 --N 400",
]

GENERIC_SPAN = [
    *(f"auslander --algebra qminus1 --group gnk {n} {k}" for n, k in ((4, 3), (2, 5), (4, 1))),
    *(f"auslander --algebra jordan --group cyclic {n} 1" for n in range(2, 13)),
]

GNK_WORDS = ["e", "1", "g", "h", "g^0", "g^2*h", "h^3", "g*h*g", "h^2", "h*g^5*h"]
CYCLIC_WORDS = ["e", "g", "g^0", "g^3", "g*g^4", "h"]
TRACE_PLANES = [["--algebra", "jordan"], ["--algebra", "commutative"], ["--algebra", "qminus1"],
                ["--algebra", "quantum", "--q", "root:5"],
                ["--algebra", "quantum", "--q", "root:12"],
                ["--algebra", "quantum", "--q", "2/3"]]

VERIFY_PRES = [
    *(f"verify-pres --family jordan --n {n}" for n in range(2, 9)),
    "verify-pres --family quantum --n 5 --a 2 --q root:5",
    "verify-pres --family quantum --n 7 --a 3 --q root:7",
    "verify-pres --family quantum --n 4 --a 1 --q root:3",
    "verify-pres --family gnk73",
    "verify-pres --family quantum --n 5 --a 2 --q 2",
]

STDIN_ARGS = ["verify-pres", "--stdin", "--algebra", "jordan", "--group", "cyclic"]

TEXT = ["--format", "text"]


def run(argv: list[str], stdin: str | None = None) -> tuple[int, str]:
    """(exit code, stdout) of one in-process `cli.main` call."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    if stdin is not None:
        sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def _test_cli_lists() -> list[list[str]]:
    path = ROOT / "tests" / "test_cli.py"
    spec = importlib.util.spec_from_file_location("_golden_test_cli", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    out = [["verify-pres", *argv] for argv, _ in module.VERIFY_PRES_DIGESTS]
    out += [list(argv) for argv, _ in module.MONOMIAL_CORE_DIGESTS]
    return out


def _dropped(present: list[str], index: int) -> str:
    """The presentation JSON that `present` prints, with relation `index` removed."""
    pres = json.loads(run(present)[1])["presentation"]
    del pres["relations"][index]
    return json.dumps(pres)


def _stdin_cases() -> list[tuple[str, list[str], str]]:
    """(label, argv, stdin): the README pipe, the two altered Jordan n = 3
    presentations whose digests tests/test_cli.py pins, and one relation
    dropped from Jordan n = 4 and from the quantum 1/5(1,2) fixture."""
    _, text = run(["present", "--family", "jordan", "--n", "3"])
    pres = json.loads(text)["presentation"]
    wrong = json.loads(json.dumps(pres))
    wrong["relations"][0][0]["coeff"]["coeffs"] = ["2"]
    argv = STDIN_ARGS + ["3", "1", "--N", "18"]
    argv4 = STDIN_ARGS + ["4", "1", "--N", "16"]
    argv_q = ["verify-pres", "--stdin", "--algebra", "quantum", "--q", "root:5",
              "--group", "cyclic", "5", "2"]
    return [
        ("present --family jordan --n 3 | " + " ".join(argv), argv, text),
        ("present --family jordan --n 3 | " + " ".join(argv + TEXT), argv + TEXT, text),
        ("<wrong coefficient> | " + " ".join(argv), argv, json.dumps(wrong)),
        ("<relation dropped> | " + " ".join(argv), argv,
         _dropped(["present", "--family", "jordan", "--n", "3"], -1)),
        ("<jordan 4, relation dropped> | " + " ".join(argv4), argv4,
         _dropped(["present", "--family", "jordan", "--n", "4"], -1)),
        ("<quantum 1/5(1,2), first relation dropped> | " + " ".join(argv_q), argv_q,
         _dropped(["present", "--family", "quantum", "--n", "5", "--a", "2", "--q", "root:5"], 0)),
    ]


def _trace_grid() -> list[list[str]]:
    def trace(group: list[str], word: str, plane: list[str] = ["--algebra", "qminus1"]):
        return ["trace", *plane, "--group", *group, "--element", word, "--N", "9"]

    out = [trace(["gnk", str(n), str(k)], word)
           for n in range(1, 8) for k in range(1, 8) for word in GNK_WORDS]
    out += [trace(["gnk", str(n), str(k)], word)
            for n, k in ((20, 20), (13, 9), (30, 7)) for word in ("g", "h", "g^3*h")]
    out += [trace(["cyclic", str(n), str(a)], word, plane)
            for plane in TRACE_PLANES for n in range(1, 10) for a in range(n)
            for word in CYCLIC_WORDS]
    return out


def commands() -> list[tuple[str, list[str], str | None]]:
    """(label, argv, stdin) for the whole set, duplicates removed."""
    from workloads import draw_queries

    argvs = [argv for seed in range(10) for argv, _ in draw_queries(seed)]
    argvs += [line.split() for line in README + TEST_CLI_SINGLE + LARGE_ORDER + VERIFY_PRES
                                         + GENERIC_SPAN + BRUTE_FORCE + MOLIEN_FAMILIES]
    argvs += [line.split() + TEXT for line in README]
    argvs += _test_cli_lists()
    argvs += [["molien", *QM1_GNK, str(n), str(k), "--N", "60"]
              for n in range(1, 13) for k in range(1, 13)]
    argvs += [["auslander", *QM1_GNK, str(n), str(k)]
              for n in range(1, 16, 2) for k in range(1, 16) if n * k <= 15]
    argvs += [["auslander", "--algebra", "quantum", "--q", "root:5", "--group", "cyclic",
               str(n), str(a)] for n in range(2, 10) for a in range(1, n)]
    argvs += _trace_grid()
    cases = {" ".join(argv): (argv, None) for argv in argvs}
    for label, argv, stdin in _stdin_cases():
        cases[label] = (argv, stdin)
    return [(label, argv, stdin) for label, (argv, stdin) in cases.items()]


def digests() -> dict[str, dict]:
    out = {}
    for label, argv, stdin in commands():
        code, stdout = run(argv, stdin)
        out[label] = {"exit": code, "sha256": hashlib.sha256(stdout.encode()).hexdigest()}
    return out


def cli(argv: list[str]) -> int:
    if len(argv) != 2 or argv[0] not in ("record", "check"):
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: cli_golden.py record|check FILE", file=sys.stderr)
        return 2
    mode, path = argv
    got = digests()
    if mode == "record":
        Path(path).write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
        print(f"recorded {len(got)} commands to {path}")
        return 0
    want = json.loads(Path(path).read_text())
    diff = sorted(label for label in want.keys() | got.keys() if want.get(label) != got.get(label))
    for label in diff:
        print(f"differs: {label}: {want.get(label)} -> {got.get(label)}")
    print(f"checked {len(want)} commands: {len(diff)} differ")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(cli(sys.argv[1:]))
