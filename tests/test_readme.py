"""README's "Library use" block is run as written, and its Configuration
table is checked against cli.CONFIG_KEYS, so the documented API and
defaults cannot drift from the code."""

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


def test_configuration_table_matches_config_keys():
    """The Configuration table lists every key once, with its default."""
    from quanvseg.cli import CONFIG_KEYS

    text = README.read_text()
    section = text[text.index("## Configuration"):text.index("## Circuit evaluation")]
    rows = [[cell.strip() for cell in line.strip("|").split("|")]
            for line in section.splitlines() if line.startswith("|")]
    assert rows[0][:2] == ["key", "default"] and set(rows[1][0]) == {"-"}
    table = {row[0]: row[1] for row in rows[2:]}
    assert len(table) == len(rows) - 2
    assert sorted(table) == sorted(CONFIG_KEYS)
    for key, (default, parse) in CONFIG_KEYS.items():
        assert parse(key, table[key]) == default, key
