"""The README's examples run as written, so the docs cannot drift from the
code unnoticed."""

import shlex

from conftest import CONFIG_PATH, ROOT
from rsmopt.cli import main

README = (ROOT / "README.md").read_text()


def code_block(heading: str, language: str) -> str:
    """The first ```language block after the line ``heading``."""
    section = README.split(f"\n{heading}\n", 1)[1]
    return section.split(f"```{language}\n", 1)[1].split("```", 1)[0]


def test_library_use_runs_from_the_repository_root(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    exec(compile(code_block("## Library use", "python"), "README.md", "exec"), {})
    assert capsys.readouterr().out


def test_quick_start_commands_exit_0(tmp_path, monkeypatch, capsys):
    """Each command, in a fresh directory, with the config by its absolute
    path; ``eval`` reads the model that ``fit`` wrote there."""
    monkeypatch.chdir(tmp_path)
    commands = code_block("## Quick start", "sh").strip().splitlines()
    assert [shlex.split(line)[:2] for line in commands] == [
        ["rsmopt", "fit"], ["rsmopt", "eval"], ["rsmopt", "optimize"], ["rsmopt", "report"]]
    for line in commands:
        argv = [str(CONFIG_PATH) if word == "configs/example.json" else word
                for word in shlex.split(line)[1:]]
        assert main(argv) == 0, line
    assert (tmp_path / "model.json").exists()
    assert capsys.readouterr().out
