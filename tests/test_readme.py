import re
import shlex
from pathlib import Path

from etalab.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _section(title: str) -> str:
    text = README.read_text()
    start = text.index(f"\n## {title}\n")
    end = text.find("\n## ", start + 1)
    return text[start:end if end >= 0 else len(text)]


def test_quick_start_runs(capsys):
    # the first python block under "## Quick start", run as a reader would
    code = re.search(r"```python\n(.*?)```", _section("Quick start"), re.S).group(1)
    exec(compile(code, f"{README}:Quick start", "exec"), {"__name__": "__main__"})
    assert re.fullmatch(r"ETA -?\d+\.\d{3}, risk \d+\.\d{4} \(variance \d+\.\d{4}, "
                        r"bias\^2 \d+\.\d{4}\)\n", capsys.readouterr().out)


def test_command_line_examples_run(tmp_path, monkeypatch, capsys):
    # every `etalab ...` line under "## Command line", in a directory that
    # holds the files its heredocs write
    section = _section("Command line")
    monkeypatch.chdir(tmp_path)
    for name, body in re.findall(r"cat > (\S+) <<'EOF'\n(.*?\n)EOF\n", section, re.S):
        (tmp_path / name).write_text(body)
    commands = re.findall(r"^etalab (.*)$", section, re.M)
    assert [c.split()[0] for c in commands] == ["examples", "sweep", "oracle", "diag"]
    for command in commands:
        assert main(shlex.split(command)) == 0, command
        capsys.readouterr()
