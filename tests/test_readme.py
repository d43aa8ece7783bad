"""Every example in the README's CLI block runs and exits 0."""

import re
import shlex
from pathlib import Path

from kmx.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _cli_block() -> list[str]:
    """The lines of the first sh block after '## CLI', continuations joined."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## CLI"):]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return block.replace("\\\n", " ").splitlines()


def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    lines = _cli_block()
    (setup,) = [line for line in lines if line.startswith("echo ")]
    payload, path = re.fullmatch(r"echo '(.*)' > (\S+)", setup).groups()
    (tmp_path / path).write_text(payload + "\n", encoding="utf-8")
    ran = []
    for line in lines:
        argv = shlex.split(line)
        # `kmx verify` is criterion 10 of the acceptance tests
        if not argv or argv[0] != "kmx" or argv[1:] == ["verify"]:
            continue
        code = main(argv[1:])
        out = capsys.readouterr().out
        assert code == 0, (line, out)
        ran.append(argv[1])
    assert len(ran) == 23  # every example but `kmx verify`
