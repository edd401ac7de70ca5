import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs(capsys):
    # the first python block under "## Quick start", run as a reader would
    text = README.read_text()
    section = text[text.index("\n## Quick start\n"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, f"{README}:Quick start", "exec"), {"__name__": "__main__"})
    assert re.fullmatch(r"ETA -?\d+\.\d{3}, risk \d+\.\d{4} \(variance \d+\.\d{4}, "
                        r"bias\^2 \d+\.\d{4}\)\n", capsys.readouterr().out)
