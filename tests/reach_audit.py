"""Run every shipped config at seed 1 and list the lines of wellspin that no
run entered.

    PYTHONPATH=src python tests/reach_audit.py

Each configs/*.json runs through harness.run with seed 1, into a temporary
directory, under sys.settrace. The executable lines are those of the
functions, methods, lambdas and comprehensions of every src/wellspin
module, as their code objects list them (module-level and class-body lines
run at import time and are left out, and so is a function's def line).
Per module, the lines that no run entered are printed by the function that
holds them, as ranges. Error guards and n = 3 branches show up here by
design; anything else is code that no shipped scenario reaches. The file
name has no test_ prefix, so pytest does not collect it; an audit takes
about a second.
"""

import inspect
import json
import sys
import tempfile
from pathlib import Path

import wellspin
from wellspin.harness import run

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(wellspin.__file__).parent
SEED = 1


def function_lines(path):
    """{line: qualified name of the innermost function holding it} over the
    function code objects compiled from the module at path."""
    owner = {}
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        if code.co_flags & inspect.CO_NEWLOCALS:
            for _, _, line in code.co_lines():
                if line is not None and line != code.co_firstlineno:
                    owner[line] = getattr(code, "co_qualname", code.co_name)
        # nested code objects come later, so an inner function owns its lines
        stack.extend(c for c in code.co_consts if inspect.iscode(c))
    return owner


def entered_lines():
    """{(file name, line)} of the lines the shipped configs entered in the
    package, one run per config at SEED."""
    entered = set()
    package = str(PACKAGE)

    def local(frame, event, arg):
        if event == "line":
            entered.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(package) else None

    with tempfile.TemporaryDirectory() as tmp:
        for path in sorted((ROOT / "configs").glob("*.json")):
            cfg = {**json.loads(path.read_text(encoding="utf-8")), "seed": SEED}
            sys.settrace(calls)
            try:
                run(cfg, out_dir=Path(tmp) / path.stem)
            finally:
                sys.settrace(None)
    return entered


def ranges(lines):
    """'3-5, 9' for [3, 4, 5, 9]: runs of consecutive line numbers."""
    runs = []
    for line in lines:
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def main():
    entered = entered_lines()
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        owner = function_lines(path)
        if not owner:
            continue
        missed = sorted(line for line in owner if (str(path), line) not in entered)
        total += len(missed)
        print(f"{path.name}: {len(missed)} of {len(owner)} lines not entered")
        by_function = {}
        for line in missed:
            by_function.setdefault(owner[line], []).append(line)
        for name, lines in sorted(by_function.items(), key=lambda item: item[1][0]):
            print(f"  {name}: {ranges(lines)}")
    print(f"{total} lines not entered at seed {SEED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
