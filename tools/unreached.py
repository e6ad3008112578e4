"""List the functions of `src/skewinv` that no `tools/cli_golden.py` command enters.

    python3 tools/unreached.py

Every command of the golden set runs in this process under `sys.setprofile`,
which sees each Python function call.  The profiler is on before `skewinv`
is imported, so what runs at import counts as reached.  A function is a
`def` found by `ast` in a module of `src/skewinv` (methods and nested
functions included); the output has one line per function that was never
entered, with its line count, then the totals.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PKG = ROOT / "src" / "skewinv"


def functions() -> dict[tuple[str, int], tuple[str, int]]:
    """(file, first line) -> (module.qualname, line count) for every def in
    the package.  The first line is that of the code object: the first
    decorator's, if the def has any."""
    out = {}
    for path in sorted(PKG.glob("*.py")):
        module = path.stem

        def walk(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    lines = child.end_lineno - first + 1
                    out[(str(path), first)] = (f"{module}.{prefix}{child.name}", lines)
                    walk(child, f"{prefix}{child.name}.")
                elif isinstance(child, ast.ClassDef):
                    walk(child, f"{prefix}{child.name}.")
                else:
                    walk(child, prefix)

        walk(ast.parse(path.read_text()), "")
    return out


def entered() -> set[tuple[str, int]]:
    """(file, first line) of every code object called while the golden set runs."""
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(profile)
    try:
        sys.path.insert(0, str(ROOT / "tools"))
        import cli_golden

        for _, argv, stdin in cli_golden.commands():
            cli_golden.run(argv, stdin)
    finally:
        sys.setprofile(None)
    return {(code.co_filename, code.co_firstlineno) for code in codes}


def main() -> int:
    seen = entered()
    missed = sorted(info for loc, info in functions().items() if loc not in seen)
    for name, lines in missed:
        print(f"{lines:4d}  {name}")
    print(f"{len(missed)} functions, {sum(lines for _, lines in missed)} lines, never entered")
    return 0


if __name__ == "__main__":
    sys.exit(main())
