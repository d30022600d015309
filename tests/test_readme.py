"""README's "Library use" block is run as written, so the documented API
cannot drift from the code."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_block_runs(capsys):
    text = README.read_text()
    section = text[text.index("## Library use"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md (Library use)", "exec"), {})
    out = capsys.readouterr().out
    oa = float(re.fullmatch(r"OA=(\S+)\n", out).group(1))
    assert 0.0 <= oa <= 1.0
