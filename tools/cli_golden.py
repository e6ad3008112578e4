"""Record or check the CLI's stdout and exit codes on a fixed command set.

    python3 tools/cli_golden.py record FILE   # write the sha256 of stdout and the exit code
    python3 tools/cli_golden.py check FILE    # compare with FILE; exit 1 on any difference

Every command runs in this process through `skewinv.cli.main`, against the
`src/` of the checkout that holds this file.  The set:
 - every `draw_queries` query of seeds 0-9 (perfbench/workloads.py);
 - the README commands, with the `present | verify-pres --stdin` pipe;
 - every digest command of tests/test_cli.py;
 - `molien ... gnk n k --N 60` for n, k <= 12;
 - the default `auslander` on G_(n,k) with n odd and nk <= 15, and on
   1/n(1,a) over q = w_5 with n <= 9.
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
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from skewinv.cli import main  # noqa: E402

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

STDIN_ARGS = ["verify-pres", "--stdin", "--algebra", "jordan", "--group", "cyclic"]


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


def _stdin_cases() -> list[tuple[str, list[str], str]]:
    """(label, argv, stdin): the README pipe, and the two altered Jordan n = 3
    presentations whose digests tests/test_cli.py pins."""
    _, text = run(["present", "--family", "jordan", "--n", "3"])
    pres = json.loads(text)["presentation"]
    wrong = json.loads(json.dumps(pres))
    wrong["relations"][0][0]["coeff"]["coeffs"] = ["2"]
    dropped = json.loads(json.dumps(pres))
    del dropped["relations"][-1]
    argv = STDIN_ARGS + ["3", "1", "--N", "18"]
    return [
        ("present --family jordan --n 3 | " + " ".join(argv), argv, text),
        ("<wrong coefficient> | " + " ".join(argv), argv, json.dumps(wrong)),
        ("<relation dropped> | " + " ".join(argv), argv, json.dumps(dropped)),
    ]


def commands() -> list[tuple[str, list[str], str | None]]:
    """(label, argv, stdin) for the whole set, duplicates removed."""
    from workloads import draw_queries

    argvs = [argv for seed in range(10) for argv, _ in draw_queries(seed)]
    argvs += [line.split() for line in README + TEST_CLI_SINGLE]
    argvs += _test_cli_lists()
    argvs += [["molien", *QM1_GNK, str(n), str(k), "--N", "60"]
              for n in range(1, 13) for k in range(1, 13)]
    argvs += [["auslander", *QM1_GNK, str(n), str(k)]
              for n in range(1, 16, 2) for k in range(1, 16) if n * k <= 15]
    argvs += [["auslander", "--algebra", "quantum", "--q", "root:5", "--group", "cyclic",
               str(n), str(a)] for n in range(2, 10) for a in range(1, n)]
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
