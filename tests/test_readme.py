"""The README's library quickstart runs as written, against whichever
wellspin is imported: the source tree or an installed package."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quickstart_runs(capsys):
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    exec(compile(block, str(README), "exec"), {"__name__": "readme"})
    printed = capsys.readouterr().out.splitlines()
    # the twins, dbar and c0, the energy, and one line per component
    assert len(printed) >= 4
